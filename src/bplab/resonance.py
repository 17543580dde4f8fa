"""Closed-form resonance apparatus for the quadratic interaction phase

    Phi(xi, eta) = xi1/|xi|^2 - (xi1-eta1)/|xi-eta|^2 - eta1/|eta|^2

and the transport null form m(xi, eta) = xi.eta_perp/|eta|^2: derivatives,
region classification of frequency pairs (its predicates are written once,
in _region_sides), and Monte-Carlo certification of the region inequalities.

Perpendicular convention, fixed once: v_perp = (-v2, v1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .propagator import norm, symbol
from .spectral import ConfigurationError, InputError

_SINGULAR_MARGIN = 1e-12
CHUNK = 16_384          # pairs per classify-and-check slice of certify_bound
BATCH = 200_000         # proposals certify_bound draws at once
MIN_ACCEPTANCE = 1e-6   # accepted/proposed ratio below which certify_bound gives up


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
        lengths = [norm(v) for v in (xi, eta, xi - eta)]
        if min(lengths) <= _SINGULAR_MARGIN * max(1.0, *lengths[:2]):
            raise InputError("singular pair: xi = 0, eta = 0 or xi = eta")
        object.__setattr__(self, "xi", (float(xi[0]), float(xi[1])))
        object.__setattr__(self, "eta", (float(eta[0]), float(eta[1])))


# ---------------------------------------------------------------------------
# vectorized closed forms; points are (..., 2) arrays

def phase_arr(xi, eta):
    """Phi(xi, eta), built from the symbol g(v) = v1/|v|^2."""
    return symbol(xi) - symbol(xi - eta) - symbol(eta)


def grad_xi_arr(xi, eta):
    """grad_xi Phi = g'(xi) - g'(xi-eta), read as the complex number
    conj(eta (2xi-eta) / (xi^2 (xi-eta)^2)) since g'(v) = -1/conj(v)^2.

    The factored form keeps full relative precision near eta = 2xi, where
    the difference of the two g' terms cancels."""
    return _conj_ratio(eta, 2.0 * xi - eta, xi, xi - eta)


def grad_eta_arr(xi, eta):
    """grad_eta Phi = g'(xi-eta) - g'(eta) = conj(xi (xi-2eta) / (eta^2 (xi-eta)^2)),
    exactly zero on the resonance xi = 2eta."""
    return _conj_ratio(xi, xi - 2.0 * eta, eta, xi - eta)


def _conj_ratio(a, b, c, d):
    """conj(a b / (c d)^2) for points read as complex numbers, as a (..., 2)
    array: conj(a b) times the square of 1/conj(c d) = c d / |c d|^2.

    Written in real arithmetic, which numpy rounds alike in its SIMD body and
    its scalar tail, so a point's value does not depend on the array length."""
    a1, a2, b1, b2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    c1, c2, d1, d2 = c[..., 0], c[..., 1], d[..., 0], d[..., 1]
    n1, n2 = a1 * b1 - a2 * b2, a1 * b2 + a2 * b1
    p1, p2 = c1 * d1 - c2 * d2, c1 * d2 + c2 * d1
    m = p1 * p1 + p2 * p2
    r1, r2 = p1 / m, p2 / m
    s1, s2 = r1 * r1 - r2 * r2, 2.0 * r1 * r2
    return np.stack([n1 * s1 + n2 * s2, n1 * s2 - n2 * s1], axis=-1)


def grad_phase_magnitudes_arr(xi, eta):
    """The product identities |grad_xi Phi| = |eta-2xi||eta|/(|xi-eta|^2 |xi|^2)
    and |grad_eta Phi| = |xi-2eta||xi|/(|xi-eta|^2 |eta|^2)."""
    nxi, neta = norm(xi), norm(eta)
    d2 = norm(xi - eta) ** 2
    g_xi = norm(eta - 2.0 * xi) * neta / (d2 * nxi ** 2)
    g_eta = norm(xi - 2.0 * eta) * nxi / (d2 * neta ** 2)
    return g_xi, g_eta


# ---------------------------------------------------------------------------
# scalar API

def null_form(p: FreqPair) -> float:
    """m = xi.eta_perp/|eta|^2."""
    (x1, x2), (e1, e2) = p.xi, p.eta
    return (x1 * (-e2) + x2 * e1) / (e1 ** 2 + e2 ** 2)


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
    margins: dict
    swapped: bool


def _region_sides(xi, eta_n, nxi, neta, dist2, ndiff):
    """The region predicates, each the non-strict lesser <= greater: yields
    (name, lesser, greater) for R1's four bounds, R2, R3, Case 1 and Case 2's
    subcase a, one at a time, so that a caller keeps one pair alive."""
    yield "r1_lower", neta / 100.0, nxi
    yield "r1_upper", nxi, 100.0 * neta
    yield "r1_diff_lower", neta / 10000.0, ndiff
    yield "r1_diff_upper", ndiff, 10000.0 * neta
    yield "r2", nxi, neta / 100.0
    yield "r3", 100.0 * neta, nxi
    yield "case1", neta / 1000.0, dist2
    yield "subcase_a", np.abs(eta_n[..., 0]) / 100.0, np.abs(xi[..., 0])


def _classify_masks(xi, eta):
    """Vectorized region classification after the |eta| <= |xi-eta| swap.

    Returns (codes, eta_n, swapped, lengths) where codes indexes Region by
    [R1_Case1, R1_Case2A, R1_Case2B, R2, R3, Unclassified] and lengths holds
    (|xi|, |eta_n|, |xi - 2 eta_n|, |xi - eta_n|), the lengths the region
    predicates compare; the bound checks reuse the first three.
    """
    diff = xi - eta
    nxi = norm(xi)
    neta = norm(eta)
    ndiff = norm(diff)
    swap = neta > ndiff
    eta_n = np.where(swap[..., None], diff, eta)
    lengths = (nxi, np.where(swap, ndiff, neta), norm(xi - 2.0 * eta_n),
               np.where(swap, neta, ndiff))
    ok = {name: lesser <= greater for name, lesser, greater in _region_sides(xi, eta_n, *lengths)}
    in_r1 = ok["r1_lower"] & ok["r1_upper"] & ok["r1_diff_lower"] & ok["r1_diff_upper"]
    codes = np.where(in_r1, np.where(ok["case1"], 0, np.where(ok["subcase_a"], 1, 2)),
                     np.where(ok["r2"], 3, np.where(ok["r3"], 4, 5)))
    return codes, eta_n, swap, lengths


_REGION_BY_CODE = list(Region)


def classify_region(p: FreqPair) -> RegionLabel:
    """Classify after the swap eta <-> xi - eta that makes |eta| <= |xi - eta|
    (Phi is invariant under it). Each margin is greater - lesser of a region
    predicate, so it is >= 0 exactly where the predicate holds: ties follow
    the printed non-strict inequalities, and Case 1 wins the tie with Case 2.
    """
    xi = np.array([p.xi])
    codes, eta_n, swap, lengths = _classify_masks(xi, np.array([p.eta]))
    margins = {name: float(greater[0] - lesser[0])
               for name, lesser, greater in _region_sides(xi, eta_n, *lengths)}
    return RegionLabel(_REGION_BY_CODE[int(codes[0])], margins, bool(swap[0]))


# ---------------------------------------------------------------------------
# Monte-Carlo certification

@dataclass
class BoundCheckReport:
    samples: int
    violations: int
    worst_margin: float
    constant_min: float            # smallest finite ratio seen, nan if none
    empirical_constant: float      # largest finite ratio seen, nan if none


def annulus(rng, n):
    """n points uniform in area on the annulus 0.1 <= |v| <= 10, shape (n, 2)."""
    r = np.sqrt(rng.uniform(0.1 ** 2, 10.0 ** 2, n))
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


# Each check takes an in-region batch (xi, eta_n) with the lengths
# (|xi|, |eta_n|, |xi - 2 eta_n|) that _classify_masks computed for it.

def _check_a(xi, eta, nxi, neta, dist2):
    lhs = np.abs(phase_arr(xi, eta))
    rhs = (0.6 * np.abs(xi[..., 0]) - 0.002 * np.abs(eta[..., 0])) / neta ** 2
    return lhs - rhs, np.full_like(lhs, np.nan)


def _check_b(xi, eta, nxi, neta, dist2):
    lhs = np.abs(phase_arr(xi, eta))
    rhs = np.abs(xi[..., 0]) / (2.0 * neta ** 2)
    return lhs - rhs, np.full_like(lhs, np.nan)


def _check_c(xi, eta, nxi, neta, dist2):
    d_eta2 = grad_eta_arr(xi, eta)[..., 1]
    rhs = np.abs(eta[..., 0]) * neta / (4.0 * norm(xi - eta) ** 4)
    return np.abs(d_eta2) - rhs, np.full_like(rhs, np.nan)


def _check_d(xi, eta, nxi, neta, dist2):
    cross = np.abs(xi[..., 0] * (-eta[..., 1]) + xi[..., 1] * eta[..., 0])
    base = np.abs(eta[..., 0]) * neta
    ratio = np.where(base > 0, cross / base, np.nan)
    margin = np.minimum(cross - 0.5 * base, 4.0 * base - cross)
    return margin, ratio


def _check_e(xi, eta, nxi, neta, dist2):
    gx = norm(grad_xi_arr(xi, eta))
    ge = norm(grad_eta_arr(xi, eta))
    pred = (norm(eta - 2.0 * xi) * neta ** 3) / (dist2 * nxi ** 3)
    quot = gx / ge
    rel = np.abs(quot - pred) / np.abs(pred)
    return 1e-10 - rel, quot


def _check_f(xi, eta, nxi, neta, dist2):
    nd = norm(xi - eta)
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


def certify_bound(inequality_id: str, n: int, seed=0) -> BoundCheckReport:
    """Monte-Carlo certification of a registered inequality over n in-region
    samples. Proposals are conditioned toward the region (the thin Case-2 sets
    are unreachable by uniform draws); acceptance is still by the exact region
    predicates, so the conditioning only changes the sampling density.

    Each batch of BATCH proposals is drawn whole, then classified and checked
    in slices of CHUNK pairs, so the temporaries stay cache-sized; the checks
    reuse the lengths the classification computed, and classification stops
    at the n-th accepted sample. Every check is real arithmetic, so the
    report does not depend on the slicing.
    """
    if inequality_id not in _REGISTRY:
        raise KeyError(f"unknown inequality id {inequality_id!r}")
    if n < 10 ** 4:
        raise ConfigurationError("need at least 1e4 samples for certification")
    propose, codes_ok, check = _REGISTRY[inequality_id]
    rng = np.random.default_rng(seed)
    in_region = np.isin(np.arange(len(_REGION_BY_CODE)), sorted(codes_ok))
    accepted = 0
    proposed = 0
    violations = 0
    worst = np.inf
    lo, hi = np.inf, -np.inf
    while accepted < n:
        m = min(BATCH, 4 * (n - accepted) + 1000)
        xi, eta = propose(rng, m)
        proposed += m
        before = accepted
        for start in range(0, m, CHUNK):
            if accepted == n:
                break
            xi_c = xi[start:start + CHUNK]
            codes, eta_n, _, lengths = _classify_masks(xi_c, eta[start:start + CHUNK])
            idx = np.flatnonzero(in_region[codes])[:n - accepted]
            if idx.size == 0:
                continue
            # np.take gathers (m, 2) rows far faster than fancy indexing
            margin, const = check(np.take(xi_c, idx, axis=0), np.take(eta_n, idx, axis=0),
                                  *(v[idx] for v in lengths[:3]))
            violations += int(np.count_nonzero(margin < 0.0))
            worst = min(worst, float(margin.min()))
            finite = const[np.isfinite(const)]
            if finite.size:
                lo = min(lo, float(finite.min()))
                hi = max(hi, float(finite.max()))
            accepted += idx.size
        if accepted == 0 and proposed > 10 * BATCH:
            raise SamplerError(
                f"acceptance below threshold for {inequality_id!r}: "
                f"0/{proposed} proposals in region")
        if before < accepted < n and accepted / proposed < MIN_ACCEPTANCE:
            raise SamplerError(
                f"acceptance {accepted / proposed:.2e} below {MIN_ACCEPTANCE:.0e} "
                f"for {inequality_id!r}")
    if lo > hi:
        lo = hi = np.nan
    return BoundCheckReport(accepted, violations, worst, lo, hi)


# ---------------------------------------------------------------------------
# resonance sets

def resonance_probe(lam_grid):
    """The spacetime resonances (xi, eta) = ((0, 2 lam), (0, lam)) for each lam
    of lam_grid: the arrays lam, |Phi| and |grad_eta Phi| over lam_grid."""
    lam = np.asarray(lam_grid, dtype=float)
    if np.any(lam == 0):
        raise ValueError("lambda must be nonzero")
    eta = np.stack([np.zeros_like(lam), lam], axis=-1)
    return {"lam": lam, "abs_phase": np.abs(phase_arr(2.0 * eta, eta)),
            "grad_eta_norm": norm(grad_eta_arr(2.0 * eta, eta))}
