"""Post-processing of simulation output: energy-growth certificates, the
transport a priori bound, weighted profile norms, and the bootstrap
feasibility arithmetic.

Nothing here advances the dynamics; every routine is a pure function of a
RunResult or a parameter tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .propagator import split_bound_amplitude, split_bound_exponent
from .spectral import ConfigurationError, linf_norm, sobolev_norm
from .solver import (
    RunResult,
    linear_operator_field,
    omega_from_profile,
)


def _checkpoint_reports(result: RunResult):
    """(t, profile, report) per retained checkpoint. Raises ValueError when
    there are no checkpoints, or when the reports do not pair up with them."""
    if not result.checkpoints:
        raise ValueError("run result has no retained checkpoints")
    if len(result.reports) != len(result.checkpoints):
        raise ValueError(f"run result has {len(result.reports)} reports for "
                         f"{len(result.checkpoints)} checkpoints")
    return [(t, prof, rep) for (t, prof), rep in zip(result.checkpoints, result.reports)]


# ---------------------------------------------------------------------------
# energy inequality certificate

@dataclass
class EnergyCertificate:
    k: int
    t_grid: np.ndarray
    hk_measured: np.ndarray
    integrand: np.ndarray          # |Du|_Linf + |omega|_Linf samples
    c: float                       # fitted minimal constant
    rhs_envelope: np.ndarray
    valid: bool
    note: str = ""


def energy_certificate(result: RunResult, k: int) -> EnergyCertificate:
    """Fit the minimal c with |w(t)|_Hk <= |w(0)|_Hk exp(c 4^k int(|Du|+|w|)).

    The time integral uses the trapezoid rule at checkpoint resolution. The
    certificate fails only when the initial norm vanishes while later norms
    do not (no finite c can dominate). The H^k norm is read off the profile:
    the free flow is unimodular, so the vorticity has the same norm.
    """
    ts, hks, integrand = [], [], []
    for t, prof, rep in _checkpoint_reports(result):
        ts.append(t)
        hks.append(sobolev_norm(prof.field, k))
        integrand.append(rep.linf_du + rep.linf_omega)
    ts = np.asarray(ts)
    hks = np.asarray(hks)
    integrand = np.asarray(integrand)
    cumint = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(ts))])
    h0 = hks[0]
    if h0 == 0.0:
        grown = bool(np.any(hks > 0))
        return EnergyCertificate(k, ts, hks, integrand, np.inf if grown else 0.0,
                                 np.zeros_like(hks), valid=not grown,
                                 note="zero initial data" if not grown else
                                 "growth from zero data admits no finite constant")
    c = 0.0
    for h, I in zip(hks[1:], cumint[1:]):
        growth = np.log(h / h0)
        if growth <= 0:
            continue
        if I <= 0:
            return EnergyCertificate(k, ts, hks, integrand, np.inf,
                                     np.zeros_like(hks), valid=False,
                                     note="norm growth with vanishing integrand")
        c = max(c, growth / (4.0 ** k * I))
    envelope = h0 * np.exp(c * 4.0 ** k * cumint)
    # tiny headroom so the fitted equality point still dominates in floats
    valid = bool(np.all(envelope * (1.0 + 1e-12) >= hks))
    return EnergyCertificate(k, ts, hks, integrand, c, envelope, valid)


# ---------------------------------------------------------------------------
# sup-norm transport bound

@dataclass
class TransportReport:
    t_grid: np.ndarray
    lhs: np.ndarray                # |omega(t)|_Linf
    rhs: np.ndarray                # |omega(0)|_Linf + int |beta L1 omega|_Linf
    slack: np.ndarray
    ok: bool
    tolerance: float = 0.01


def linfty_transport_check(result: RunResult, tolerance: float = 0.01) -> TransportReport:
    """Check |omega(t)|_Linf <= |omega(0)|_Linf + int_0^t |beta L1 omega|_Linf ds
    at checkpoint resolution (trapezoid rule), with a relative tolerance
    absorbing the integration error. |omega(t)|_Linf is the report's."""
    beta = result.config.beta
    ts, lhs, forcing = [], [], []
    for t, prof, rep in _checkpoint_reports(result):
        ts.append(t)
        lhs.append(rep.linf_omega)
        forcing.append(linf_norm(linear_operator_field(omega_from_profile(prof, beta), beta)))
    ts = np.asarray(ts)
    lhs = np.asarray(lhs)
    forcing = np.asarray(forcing)
    cumint = np.concatenate([[0.0], np.cumsum(
        0.5 * (forcing[1:] + forcing[:-1]) * np.diff(ts))])
    rhs = lhs[0] + cumint
    slack = rhs - lhs
    scale = max(lhs[0], float(lhs.max()))
    ok = bool(np.all(slack >= -tolerance * scale))
    return TransportReport(ts, lhs, rhs, slack, ok, tolerance)


# ---------------------------------------------------------------------------
# weighted norm series

def weighted_norm_series(result: RunResult):
    """Rows (t, weighted2, weighted3, fhat_sup2, flagged, warnings) per
    checkpoint, read from its report; flagged marks entries above 10x their
    initial value."""
    rows = []
    base = None
    for t, _, rep in _checkpoint_reports(result):
        values = (rep.weighted2, rep.weighted3, rep.fhat_sup2)
        if base is None:
            base = values
        flagged = any(b > 0 and v > 10.0 * b for v, b in zip(values, base))
        rows.append({"t": t, "weighted2": rep.weighted2, "weighted3": rep.weighted3,
                     "fhat_sup2": rep.fhat_sup2, "flagged": flagged,
                     "warnings": list(rep.warnings)})
    return rows


def doubling_time(times, values, t_end=None):
    """First time the series reaches twice its initial value, linearly
    interpolated; right-censored at the final time when no doubling occurs."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    target = 2.0 * values[0]
    for i in range(1, len(values)):
        if values[i] >= target:
            lo, hi = values[i - 1], values[i]
            frac = 0.0 if hi == lo else (target - lo) / (hi - lo)
            return float(times[i - 1] + frac * (times[i] - times[i - 1]))
    return float(times[-1] if t_end is None else t_end)


# ---------------------------------------------------------------------------
# bootstrap arithmetic

@dataclass
class BootstrapParams:
    M: float
    k: float
    eps: float
    mu: float
    rho: float = 0.01
    c1: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.mu < 1.0):
            raise ConfigurationError("mu must lie in (0, 1)")
        if not (self.eps > 0.0 and self.k >= 1 and 0.0 < self.rho < 1.0):
            raise ConfigurationError("need eps > 0, k >= 1, rho in (0, 1)")

    @property
    def c_of_k(self) -> float:
        return self.c1 * 2.0 ** (2.0 * self.k)


def _log_poly_in_eps(terms, log_eps):
    """log of sum of coeff * eps^expo for (coeff, expo) pairs, in log space."""
    logs = [np.log(c) + e * log_eps for c, e in terms]
    return float(logsumexp(logs))


def bootstrap_conditions(params: BootstrapParams):
    """Log-space margins of the four smallness conditions; positive = satisfied.

    Each margin is log(rhs) - log(lhs), so the condition lhs <= rhs holds
    exactly when the margin is >= 0.
    """
    M, k, eps, mu = params.M, params.k, params.eps, params.mu
    le = np.log(eps)
    e8 = eps ** 0.125
    inv_p = split_bound_exponent(mu)
    margins = {}
    # 1: eps * eps^(-M c(k) eps^(1/8)) <= eps^(1/2)
    lhs1 = (1.0 - M * params.c_of_k * e8) * le
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
    lhs4 = np.log(split_bound_amplitude(mu)) + (
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


def bootstrap_search(M: float, k_grid=None, log10_eps_grid=None, mu_grid=None):
    """Scan a desk-scale box for a feasible (k, eps, mu) at the given M.

    Returns the first feasible BootstrapParams, or None.
    """
    if k_grid is None:
        k_grid = [8, 16, 24, 32, 48, 64]
    if log10_eps_grid is None:
        log10_eps_grid = [-20, -40, -80, -160, -320]
    if mu_grid is None:
        mu_grid = [0.3, 0.1, 0.03, 0.01]
    for k in k_grid:
        for le in log10_eps_grid:
            for mu in mu_grid:
                params = BootstrapParams(M=M, k=k, eps=10.0 ** le, mu=mu)
                feasible, _ = bootstrap_feasibility(params)
                if feasible:
                    return params
    return None
