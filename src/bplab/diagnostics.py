"""Post-processing of simulation output: energy-growth certificates, the
transport a priori bound, weighted-norm growth flags, and the bootstrap
feasibility arithmetic.

Nothing here advances the dynamics; every routine is a pure function of a
RunResult or a parameter tuple; only energy_certificate reads a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagator import split_bound
from .spectral import ConfigurationError, sobolev_norm
from .solver import RunResult


def _checkpoint_reports(result: RunResult):
    """(t, profile, report) per checkpoint. Raises ValueError when
    there are no checkpoints, or when the reports do not pair up with them."""
    if not result.checkpoints:
        raise ValueError("run result has no checkpoints")
    if len(result.reports) != len(result.checkpoints):
        raise ValueError(f"run result has {len(result.reports)} reports for "
                         f"{len(result.checkpoints)} checkpoints")
    return [(t, prof, rep) for (t, prof), rep in zip(result.checkpoints, result.reports)]


def _cumulative_trapezoid(values, ts):
    """int_{ts[0]}^{ts[i]} by the trapezoid rule, for each i."""
    values, ts = np.asarray(values), np.asarray(ts)
    return np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(ts))])


# ---------------------------------------------------------------------------
# energy inequality certificate

@dataclass
class EnergyCertificate:
    hk_measured: np.ndarray
    c: float                       # fitted minimal constant
    rhs_envelope: np.ndarray
    valid: bool


def energy_certificate(result: RunResult, k: int) -> EnergyCertificate:
    """Fit the minimal c with |w(t)|_Hk <= |w(0)|_Hk exp(c 4^k int(|Du|+|w|)).

    The time integral uses the trapezoid rule at checkpoint resolution. The
    certificate fails only when the initial norm vanishes while later norms
    do not (no finite c can dominate). The H^k norm is read off the profile:
    the free flow is unimodular, so the vorticity has the same norm. 4^k is
    taken in float64; a k for which it is not finite is refused.
    """
    with np.errstate(over="ignore"):
        four_k = np.float64(4.0) ** k
    if not np.isfinite(four_k):
        raise ConfigurationError(f"4^k not finite at k={k}")
    ts, hks, integrand = [], [], []
    for t, prof, rep in _checkpoint_reports(result):
        ts.append(t)
        hks.append(sobolev_norm(prof.field, k))
        integrand.append(rep.linf_du + rep.linf_omega)
    hks = np.asarray(hks)
    cumint = _cumulative_trapezoid(integrand, ts)
    h0 = hks[0]
    if h0 == 0.0:
        grown = bool(np.any(hks > 0))
        # valid only if the norm stays zero: growth from zero admits no finite c
        return EnergyCertificate(hks, np.inf if grown else 0.0, np.zeros_like(hks),
                                 valid=not grown)
    c = 0.0
    for h, I in zip(hks[1:], cumint[1:]):
        growth = np.log(h / h0)
        if growth <= 0:
            continue
        if I <= 0:      # norm growth with vanishing integrand
            return EnergyCertificate(hks, np.inf, np.zeros_like(hks), valid=False)
        c = max(c, growth / (four_k * I))
    envelope = h0 * np.exp(c * four_k * cumint)
    # tiny headroom so the fitted equality point still dominates in floats
    valid = bool(np.all(envelope * (1.0 + 1e-12) >= hks))
    return EnergyCertificate(hks, c, envelope, valid)


# ---------------------------------------------------------------------------
# sup-norm transport bound

@dataclass
class TransportReport:
    lhs: np.ndarray                # |omega(t)|_Linf
    rhs: np.ndarray                # |omega(0)|_Linf + int |beta L1 omega|_Linf
    slack: np.ndarray
    ok: bool

    @property
    def min_rel_slack(self) -> float:
        """The smallest slack over t > 0 relative to rhs; at t = 0 the slack
        is 0 by construction."""
        return float((self.slack[1:] / self.rhs[1:]).min())


TRANSPORT_TOLERANCE = 0.01


def linfty_transport_check(result: RunResult) -> TransportReport:
    """Check |omega(t)|_Linf <= |omega(0)|_Linf + int_0^t |beta L1 omega|_Linf ds
    at checkpoint resolution (trapezoid rule), with the relative tolerance
    TRANSPORT_TOLERANCE absorbing the integration error. The norms are the
    reports', with |beta L1 omega|_Linf = |beta| linf_u2 (L1 omega is u2)."""
    beta = abs(result.config.beta)
    ts, lhs, forcing = [], [], []
    for t, _, rep in _checkpoint_reports(result):
        ts.append(t)
        lhs.append(rep.linf_omega)
        forcing.append(beta * rep.linf_u2)
    lhs = np.asarray(lhs)
    rhs = lhs[0] + _cumulative_trapezoid(forcing, ts)
    slack = rhs - lhs
    scale = max(lhs[0], float(lhs.max()))
    ok = bool(np.all(slack >= -TRANSPORT_TOLERANCE * scale))
    return TransportReport(lhs, rhs, slack, ok)


# ---------------------------------------------------------------------------
# weighted norm series

def weighted_norm_series(result: RunResult) -> list[bool]:
    """One flag per checkpoint: whether its report's weighted2, weighted3 or
    fhat_sup2 is above 10x its nonzero value at the first checkpoint."""
    series = [(rep.weighted2, rep.weighted3, rep.fhat_sup2)
              for _, _, rep in _checkpoint_reports(result)]
    return [any(b > 0 and v > 10.0 * b for v, b in zip(values, series[0]))
            for values in series]


def doubling_time(times, values, t_end):
    """First time the series reaches twice its initial value, linearly
    interpolated; right-censored at t_end when no doubling occurs."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    target = 2.0 * values[0]
    for i in range(1, len(values)):
        if values[i] >= target:
            lo, hi = values[i - 1], values[i]
            frac = 0.0 if hi == lo else (target - lo) / (hi - lo)
            return float(times[i - 1] + frac * (times[i] - times[i - 1]))
    return float(t_end)


# ---------------------------------------------------------------------------
# bootstrap arithmetic

@dataclass
class BootstrapParams:
    M: float
    k: float = 32.0
    eps: float = 1e-160
    mu: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.M < np.inf:
            raise ConfigurationError("M must be positive and finite")
        split_bound(self.mu)              # refuses mu outside (0, 1)
        if not (0.0 < self.eps < np.inf and 1 <= self.k < np.inf):
            raise ConfigurationError("need 0 < eps < inf and 1 <= k < inf")


def _log_poly_in_eps(terms, log_eps):
    """log of sum of coeff * eps^expo for (coeff, expo) pairs, in log space."""
    logs = [np.log(c) + e * log_eps for c, e in terms]
    return float(np.logaddexp.reduce(logs))


def bootstrap_conditions(params: BootstrapParams):
    """Log-space margins of the four smallness conditions; positive = satisfied.

    Each margin is log(rhs) - log(lhs), so the condition lhs <= rhs holds
    exactly when the margin is >= 0.
    """
    M, k, eps, mu = params.M, params.k, params.eps, params.mu
    le = np.log(eps)
    e8 = eps ** 0.125
    inv_p, amp = split_bound(mu)
    margins = {}
    # a power or product past float64 is inf, and its margin -inf
    with np.errstate(over="ignore"):
        # 1: eps * eps^(-M c(k) eps^(1/8)) <= eps^(1/2), with c(k) = 2^(2k)
        lhs1 = (1.0 - M * np.float64(2.0) ** (2.0 * k) * e8) * le
        margins["cond1"] = 0.5 * le - lhs1
        # 2: [eps + k eps^(-M/k) eps^(1/2) (eps^(1/2)+eps^(1/8)+eps^(1/4))] eps^(-M eps^(1/8))
        shift = -M * e8
        lhs2 = _log_poly_in_eps(
            [(1.0, 1.0)] + [(k, -M / k + 0.5 + q) for q in (0.5, 0.125, 0.25)], le)
        margins["cond2"] = 0.5 * le - (lhs2 + shift * le)
        # 3: adds the eps^(1/8) intermediate commutator term and doubles the loss M/k
        lhs3 = _log_poly_in_eps(
            [(1.0, 1.0), (k, -M / k + 0.125 + 0.5)]
            + [(k, -2.0 * M / k + 0.5 + q) for q in (0.5, 0.125, 0.25)], le)
        margins["cond3"] = 0.5 * le - (lhs3 + shift * le)
        # 4: A(mu) eps^(-2M/p) eps^(-(2M/k)(mu + 6/p)) eps^(1/2) <= eps^(1/4)
        lhs4 = np.log(amp) + (
            -2.0 * M * inv_p - (2.0 * M / k) * (mu + 6.0 * inv_p) + 0.5) * le
        margins["cond4"] = 0.25 * le - lhs4
    return margins


def bootstrap_feasibility(params: BootstrapParams):
    """Per-condition verdicts and margins, plus the k > 32M sufficient check
    k eps^(1/16 - M eps^(1/8)) <= 1 (reported only where it applies)."""
    margins = bootstrap_conditions(params)
    report = {name: {"margin": m, "satisfied": m >= 0.0} for name, m in margins.items()}
    if params.k > 32.0 * params.M:
        le = np.log(params.eps)
        short = -(np.log(params.k) + (1.0 / 16.0 - params.M * params.eps ** 0.125) * le)
        report["shortcut_k_gt_32M"] = {"margin": short, "satisfied": short >= 0.0}
    feasible = all(report[f"cond{i}"]["satisfied"] for i in (1, 2, 3, 4))
    return feasible, report


def bootstrap_search(M: float):
    """Scan a desk-scale box of (k, eps, mu) for a feasible point at the given
    M: k in 8 .. 64, eps in 1e-20 .. 1e-320 and mu in 0.3 .. 0.01.

    Returns the first feasible BootstrapParams, or None.
    """
    for k in (8, 16, 24, 32, 48, 64):
        for le in (-20, -40, -80, -160, -320):
            for mu in (0.3, 0.1, 0.03, 0.01):
                params = BootstrapParams(M=M, k=k, eps=10.0 ** le, mu=mu)
                feasible, _ = bootstrap_feasibility(params)
                if feasible:
                    return params
    return None
