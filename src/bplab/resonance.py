"""Closed-form resonance apparatus for the quadratic interaction phase

    Phi(xi, eta) = xi1/|xi|^2 - (xi1-eta1)/|xi-eta|^2 - eta1/|eta|^2

and the transport null form m(xi, eta) = xi.eta_perp/|eta|^2: derivatives,
region classification of frequency pairs, and Monte-Carlo certification of
the constant-explicit region inequalities.

Perpendicular convention, fixed once: v_perp = (-v2, v1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .propagator import symbol, symbol_grad, symbol_hess
from .spectral import ConfigurationError, InputError

_SINGULAR_MARGIN = 1e-12


class SamplerError(RuntimeError):
    """Region rejection sampling starved (acceptance below threshold)."""


@dataclass(frozen=True)
class FreqPair:
    xi: tuple
    eta: tuple

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if xi.shape != (2,) or eta.shape != (2,):
            raise InputError("xi and eta must be 2-vectors")
        scale = max(np.linalg.norm(xi), np.linalg.norm(eta))
        if np.linalg.norm(xi) <= _SINGULAR_MARGIN * max(1.0, scale) or \
           np.linalg.norm(eta) <= _SINGULAR_MARGIN * max(1.0, scale) or \
           np.linalg.norm(xi - eta) <= _SINGULAR_MARGIN * max(1.0, scale):
            raise InputError("singular pair: xi = 0, eta = 0 or xi = eta")
        object.__setattr__(self, "xi", (float(xi[0]), float(xi[1])))
        object.__setattr__(self, "eta", (float(eta[0]), float(eta[1])))

    @property
    def xi_arr(self) -> np.ndarray:
        return np.asarray(self.xi)

    @property
    def eta_arr(self) -> np.ndarray:
        return np.asarray(self.eta)


# ---------------------------------------------------------------------------
# vectorized closed forms; points are (..., 2) arrays

def phase_arr(xi, eta):
    """Phi(xi, eta), built from the symbol g(v) = v1/|v|^2."""
    return symbol(xi) - symbol(xi - eta) - symbol(eta)


def grad_xi_arr(xi, eta):
    return symbol_grad(xi) - symbol_grad(xi - eta)


def grad_eta_arr(xi, eta):
    return symbol_grad(xi - eta) - symbol_grad(eta)


def grad_phase_magnitudes_arr(xi, eta):
    """The product identities |grad_xi Phi| = |eta-2xi||eta|/(|xi-eta|^2 |xi|^2)
    and |grad_eta Phi| = |xi-2eta||xi|/(|xi-eta|^2 |eta|^2)."""
    d2 = norm(xi - eta) ** 2
    g_xi = norm(eta - 2.0 * xi) * norm(eta) / (d2 * norm(xi) ** 2)
    g_eta = norm(xi - 2.0 * eta) * norm(xi) / (d2 * norm(eta) ** 2)
    return g_xi, g_eta


def norm(v):
    """Euclidean length over the last axis of a (..., 2) array."""
    return np.hypot(v[..., 0], v[..., 1])


def _perp(v):
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def _null_form_arr(xi, eta):
    return (xi[..., 0] * (-eta[..., 1]) + xi[..., 1] * eta[..., 0]) / \
        (eta[..., 0] ** 2 + eta[..., 1] ** 2)


# ---------------------------------------------------------------------------
# scalar API

def phase(p: FreqPair) -> float:
    return float(phase_arr(p.xi_arr, p.eta_arr))


def null_form(p: FreqPair):
    """(m, mbar) with m = xi.eta_perp/|eta|^2 and mbar(xi,eta) = m(xi, xi-eta),
    which reduces to -xi.eta_perp/|xi-eta|^2."""
    xi, eta = p.xi_arr, p.eta_arr
    m = float(_null_form_arr(xi, eta))
    mbar = float(_null_form_arr(xi, xi - eta))
    return m, mbar


def grad_phase(p: FreqPair):
    """(grad_xi Phi, grad_eta Phi) as 2-vectors."""
    xi, eta = p.xi_arr, p.eta_arr
    return grad_xi_arr(xi, eta), grad_eta_arr(xi, eta)


def grad_phase_magnitudes(p: FreqPair):
    """(|grad_xi Phi|, |grad_eta Phi|) from the product identities."""
    g_xi, g_eta = grad_phase_magnitudes_arr(p.xi_arr, p.eta_arr)
    return float(g_xi), float(g_eta)


def second_derivs(p: FreqPair):
    """Second derivative bundle {\"xi_xi\", \"eta_eta\", \"xi_eta\"} of Phi.

    eta_eta and xi_xi are trace-free (harmonicity); the mixed block satisfies
    d_xi1 d_eta1 Phi = -d_xi2 d_eta2 Phi for the same reason.
    """
    xi, eta = p.xi_arr, p.eta_arr
    return {
        "xi_xi": symbol_hess(xi) - symbol_hess(xi - eta),
        "eta_eta": -symbol_hess(xi - eta) - symbol_hess(eta),
        "xi_eta": symbol_hess(xi - eta),
    }


def null_form_derivs(p: FreqPair):
    """Gradients of m and mbar in both arguments.

    grad_xi m = eta_perp/|eta|^2 (xi-independent);
    grad_eta m = -xi_perp/|eta|^2 - 2 (eta/|eta|^2) m;
    the mbar entries follow by the chain rule from mbar(xi,eta) = m(xi, xi-eta).
    """
    xi, eta = p.xi_arr, p.eta_arr

    def grads(a, b):
        m = _null_form_arr(a, b)
        b2 = b[0] ** 2 + b[1] ** 2
        gx = _perp(b) / b2
        ge = -_perp(a) / b2 - 2.0 * (b / b2) * m
        return gx, ge

    gxm, gem = grads(xi, eta)
    gxm2, gem2 = grads(xi, xi - eta)
    return {
        "grad_xi_m": gxm,
        "grad_eta_m": gem,
        "grad_xi_mbar": gxm2 + gem2,
        "grad_eta_mbar": -gem2,
    }


# ---------------------------------------------------------------------------
# region classification

class Region(enum.Enum):
    R1_CASE1 = "R1_Case1"
    R1_CASE2A = "R1_Case2A"
    R1_CASE2B = "R1_Case2B"
    R2 = "R2"
    R3 = "R3"
    UNCLASSIFIED = "Unclassified"


@dataclass
class RegionLabel:
    region: Region
    margins: dict = field(default_factory=dict)
    swapped: bool = False


def _classify_masks(xi, eta):
    """Vectorized region classification after the |eta| <= |xi-eta| swap.

    Returns (codes, xi_n, eta_n, swapped) where codes indexes Region by
    [R1_Case1, R1_Case2A, R1_Case2B, R2, R3, Unclassified].
    """
    nxi = norm(xi)
    neta = norm(eta)
    ndiff = norm(xi - eta)
    swap = neta > ndiff
    eta_n = np.where(swap[..., None], xi - eta, eta)
    neta_n = np.where(swap, ndiff, neta)
    ndiff_n = np.where(swap, neta, ndiff)

    in_r1 = (neta_n / 100.0 <= nxi) & (nxi <= 100.0 * neta_n) & \
            (neta_n / 10000.0 <= ndiff_n) & (ndiff_n <= 10000.0 * neta_n)
    dist2 = norm(xi - 2.0 * eta_n)
    case1 = dist2 >= neta_n / 1000.0
    suba = np.abs(xi[..., 0]) >= np.abs(eta_n[..., 0]) / 100.0

    codes = np.full(nxi.shape, 5, dtype=np.int8)            # Unclassified
    codes[in_r1 & case1] = 0
    codes[in_r1 & ~case1 & suba] = 1
    codes[in_r1 & ~case1 & ~suba] = 2
    r2 = ~in_r1 & (nxi <= neta_n / 100.0)
    r3 = ~in_r1 & ~r2 & (nxi >= 100.0 * neta_n)
    codes[r2] = 3
    codes[r3] = 4
    return codes, xi, eta_n, swap


_REGION_BY_CODE = [Region.R1_CASE1, Region.R1_CASE2A, Region.R1_CASE2B,
                   Region.R2, Region.R3, Region.UNCLASSIFIED]


def classify_region(p: FreqPair) -> RegionLabel:
    """Classify after the normalization swap eta <-> xi - eta (taken so that
    |eta| <= |xi - eta|, under which Phi is invariant). Boundary ties follow
    the printed non-strict inequalities; Case 1 wins the tie with Case 2.
    """
    xi = p.xi_arr[None, :]
    eta = p.eta_arr[None, :]
    codes, xi_n, eta_n, swap = _classify_masks(xi, eta)
    xi0, eta0 = xi_n[0], eta_n[0]
    nxi = np.linalg.norm(xi0)
    neta = np.linalg.norm(eta0)
    ndiff = np.linalg.norm(xi0 - eta0)
    margins = {
        "r1_lower": nxi - neta / 100.0,
        "r1_upper": 100.0 * neta - nxi,
        "r1_diff_lower": ndiff - neta / 10000.0,
        "r1_diff_upper": 10000.0 * neta - ndiff,
        "r2": neta / 100.0 - nxi,
        "r3": nxi - 100.0 * neta,
        "case1": np.linalg.norm(xi0 - 2.0 * eta0) - neta / 1000.0,
        "subcase_a": abs(xi0[0]) - abs(eta0[0]) / 100.0,
    }
    return RegionLabel(_REGION_BY_CODE[int(codes[0])], margins, bool(swap[0]))


# ---------------------------------------------------------------------------
# Monte-Carlo certification

@dataclass
class BoundCheckReport:
    inequality_id: str
    samples: int
    violations: int
    worst_margin: float
    constant_min: float            # smallest finite ratio seen, nan if none
    empirical_constant: float      # largest finite ratio seen, nan if none


def annulus(rng, n, r_lo=0.1, r_hi=10.0):
    """n points uniform in area on the annulus r_lo <= |v| <= r_hi, shape (n, 2)."""
    r = np.sqrt(rng.uniform(r_lo ** 2, r_hi ** 2, n))
    th = rng.uniform(-np.pi, np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def _propose_generic(rng, n):
    return annulus(rng, n), annulus(rng, n)


def _propose_case2(rng, n):
    """xi = 2 eta + delta with |delta| <= |eta|/1000 lands in Case 2 densely."""
    eta = annulus(rng, n)
    r = norm(eta)
    rad = np.sqrt(rng.uniform(0.0, 1.0, n)) * r / 1000.0
    th = rng.uniform(-np.pi, np.pi, n)
    delta = np.stack([rad * np.cos(th), rad * np.sin(th)], axis=-1)
    return 2.0 * eta + delta, eta


def _propose_case2b(rng, n):
    """Case 2 with |xi1| < |eta1|/100, which pins eta near the eta2-axis and
    delta1 near -2 eta1."""
    r = np.sqrt(rng.uniform(0.01, 100.0, n))
    alpha = rng.uniform(-1.0, 1.0, n) / 2010.0
    sgn = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    eta = np.stack([r * np.sin(alpha), sgn * r * np.cos(alpha)], axis=-1)
    e1 = eta[..., 0]
    d1 = -2.0 * e1 + rng.uniform(-1.0, 1.0, n) * np.abs(e1) / 100.0
    s = np.sqrt(np.maximum((r / 1000.0) ** 2 - d1 ** 2, 0.0))
    d2 = rng.uniform(-1.0, 1.0, n) * s
    delta = np.stack([d1, d2], axis=-1)
    return 2.0 * eta + delta, eta


def _check_a(xi, eta):
    lhs = np.abs(phase_arr(xi, eta))
    rhs = (0.6 * np.abs(xi[..., 0]) - 0.002 * np.abs(eta[..., 0])) / norm(eta) ** 2
    margin = lhs - rhs
    const = np.full_like(lhs, np.nan)
    return margin, const


def _check_b(xi, eta):
    lhs = np.abs(phase_arr(xi, eta))
    rhs = np.abs(xi[..., 0]) / (2.0 * norm(eta) ** 2)
    return lhs - rhs, np.full_like(lhs, np.nan)


def _check_c(xi, eta):
    d_eta2 = grad_eta_arr(xi, eta)[..., 1]
    neta = norm(eta)
    rhs = np.abs(eta[..., 0]) * neta / (4.0 * norm(xi - eta) ** 4)
    return np.abs(d_eta2) - rhs, np.full_like(rhs, np.nan)


def _check_d(xi, eta):
    cross = np.abs(xi[..., 0] * (-eta[..., 1]) + xi[..., 1] * eta[..., 0])
    base = np.abs(eta[..., 0]) * norm(eta)
    ratio = np.where(base > 0, cross / base, np.nan)
    margin = np.minimum(cross - 0.5 * base, 4.0 * base - cross)
    return margin, ratio


def _check_e(xi, eta):
    gx = norm(grad_xi_arr(xi, eta))
    ge = norm(grad_eta_arr(xi, eta))
    pred = (norm(eta - 2.0 * xi) * norm(eta) ** 3) / \
           (norm(xi - 2.0 * eta) * norm(xi) ** 3)
    quot = gx / ge
    rel = np.abs(quot - pred) / np.abs(pred)
    return 1e-10 - rel, quot


def _check_f(xi, eta):
    nxi, neta, nd = norm(xi), norm(eta), norm(xi - eta)
    m1 = np.minimum(nxi - 1.999 * neta, 2.001 * neta - nxi)
    m2 = np.minimum(nd - 0.999 * neta, 1.001 * neta - nd)
    return np.minimum(m1, m2), np.full_like(nxi, np.nan)


_REGISTRY = {
    "a": (_propose_case2, {1, 2}, _check_a),
    "b": (_propose_case2, {1}, _check_b),
    "c": (_propose_case2b, {2}, _check_c),
    "d": (_propose_case2b, {2}, _check_d),
    "e": (_propose_generic, {0}, _check_e),
    "f": (_propose_case2, {1, 2}, _check_f),
}
INEQUALITY_IDS = tuple(_REGISTRY)


def evaluate_bound(inequality_id: str, p: FreqPair):
    """Margin of a registered inequality at a single pair; the pair must lie
    in the inequality's region."""
    if inequality_id not in _REGISTRY:
        raise KeyError(f"unknown inequality id {inequality_id!r}")
    _, codes_ok, check = _REGISTRY[inequality_id]
    xi = p.xi_arr[None, :]
    eta = p.eta_arr[None, :]
    codes, xi_n, eta_n, _ = _classify_masks(xi, eta)
    if int(codes[0]) not in codes_ok:
        names = ", ".join(_REGION_BY_CODE[c].value for c in sorted(codes_ok))
        raise InputError(
            f"pair classifies as {_REGION_BY_CODE[int(codes[0])].value}, "
            f"but inequality {inequality_id!r} is certified on {names}")
    margin, const = check(xi_n, eta_n)
    return float(margin[0]), float(const[0])


def certify_bound(inequality_id: str, n: int, seed=0,
                  batch: int = 200_000, min_acceptance: float = 1e-6) -> BoundCheckReport:
    """Monte-Carlo certification of a registered inequality over n in-region
    samples. Proposals are conditioned toward the region (the thin Case-2 sets
    are unreachable by uniform draws); acceptance is still by the exact region
    predicates, so the conditioning only changes the sampling density.
    """
    if inequality_id not in _REGISTRY:
        raise KeyError(f"unknown inequality id {inequality_id!r}")
    if n < 10 ** 4:
        raise ConfigurationError("need at least 1e4 samples for certification")
    propose, codes_ok, check = _REGISTRY[inequality_id]
    rng = np.random.default_rng(seed)
    ok_codes = np.array(sorted(codes_ok), dtype=np.int8)
    accepted = 0
    proposed = 0
    violations = 0
    worst = np.inf
    lo, hi = np.inf, -np.inf
    while accepted < n:
        m = min(batch, 4 * (n - accepted) + 1000)
        xi, eta = propose(rng, m)
        codes, xi_n, eta_n, _ = _classify_masks(xi, eta)
        keep = np.isin(codes, ok_codes)
        proposed += m
        take = min(int(keep.sum()), n - accepted)
        if proposed > 10 * batch and accepted + take == 0:
            raise SamplerError(
                f"acceptance below threshold for {inequality_id!r}: "
                f"0/{proposed} proposals in region")
        if take == 0:
            continue
        idx = np.flatnonzero(keep)[:take]
        margin, const = check(xi_n[idx], eta_n[idx])
        violations += int(np.sum(margin < 0.0))
        if margin.size:
            worst = min(worst, float(margin.min()))
        finite = const[np.isfinite(const)]
        if finite.size:
            lo = min(lo, float(finite.min()))
            hi = max(hi, float(finite.max()))
        accepted += take
        if accepted < n and accepted / max(proposed, 1) < min_acceptance:
            raise SamplerError(
                f"acceptance {accepted / proposed:.2e} below {min_acceptance:.0e} "
                f"for {inequality_id!r}")
    if lo > hi:
        lo = hi = np.nan
    return BoundCheckReport(inequality_id, accepted, violations, worst, lo, hi)


# ---------------------------------------------------------------------------
# resonance sets

def resonance_probe(lam_grid, n_random: int = 1000, seed=0):
    """Verify spacetime resonances at (xi, eta) = ((0, 2 lam), (0, lam)) and
    the characterization grad_eta Phi = 0 <=> xi = 2 eta on random probes."""
    rows = []
    for lam in lam_grid:
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        p = FreqPair((0.0, 2.0 * lam), (0.0, lam))
        _, ge = grad_phase(p)
        rows.append({"lam": float(lam), "abs_phase": abs(phase(p)),
                     "grad_eta_norm": float(np.linalg.norm(ge))})
    rng = np.random.default_rng(seed)
    eta = annulus(rng, n_random)
    xi = annulus(rng, n_random)
    sep = norm(xi - 2.0 * eta) > 1e-6 * norm(eta)
    ok = (norm(xi - eta) > 1e-9)
    ge = norm(grad_eta_arr(xi[sep & ok], eta[sep & ok]))
    converse_ok = bool(np.all(ge > 0.0))
    forward = [np.linalg.norm(grad_eta_arr(2.0 * e, e)) for e in eta[:50]]
    forward_ok = bool(np.max(forward) < 1e-14)
    return {"spacetime": rows, "forward_exact": forward_ok,
            "converse_nonzero": converse_ok}
