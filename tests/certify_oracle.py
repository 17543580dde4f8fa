"""Tests-side oracle of the whole-batch Monte-Carlo certification: each
batch of proposals is classified whole, and every check recomputes the
lengths it needs. The proposals and the draws are bplab's own, so the
chunked `resonance.certify_bound` must reach the same samples."""

import numpy as np

from bplab import resonance
from bplab.resonance import SamplerError, grad_eta_arr, grad_xi_arr, norm, phase_arr


def classify_codes(xi, eta):
    """(codes, eta_n): region codes after the |eta| <= |xi-eta| swap."""
    nxi = norm(xi)
    neta = norm(eta)
    ndiff = norm(xi - eta)
    swap = neta > ndiff
    eta_n = np.where(swap[..., None], xi - eta, eta)
    neta_n = np.where(swap, ndiff, neta)
    ndiff_n = np.where(swap, neta, ndiff)
    in_r1 = (neta_n / 100.0 <= nxi) & (nxi <= 100.0 * neta_n) & \
            (neta_n / 10000.0 <= ndiff_n) & (ndiff_n <= 10000.0 * neta_n)
    case1 = norm(xi - 2.0 * eta_n) >= neta_n / 1000.0
    suba = np.abs(xi[..., 0]) >= np.abs(eta_n[..., 0]) / 100.0
    codes = np.full(nxi.shape, 5, dtype=np.int8)
    codes[in_r1 & case1] = 0
    codes[in_r1 & ~case1 & suba] = 1
    codes[in_r1 & ~case1 & ~suba] = 2
    r2 = ~in_r1 & (nxi <= neta_n / 100.0)
    r3 = ~in_r1 & ~r2 & (nxi >= 100.0 * neta_n)
    codes[r2] = 3
    codes[r3] = 4
    return codes, eta_n


def _check_a(xi, eta):
    lhs = np.abs(phase_arr(xi, eta))
    rhs = (0.6 * np.abs(xi[..., 0]) - 0.002 * np.abs(eta[..., 0])) / norm(eta) ** 2
    return lhs - rhs, np.full_like(lhs, np.nan)


def _check_b(xi, eta):
    lhs = np.abs(phase_arr(xi, eta))
    rhs = np.abs(xi[..., 0]) / (2.0 * norm(eta) ** 2)
    return lhs - rhs, np.full_like(lhs, np.nan)


def _check_c(xi, eta):
    d_eta2 = grad_eta_arr(xi, eta)[..., 1]
    rhs = np.abs(eta[..., 0]) * norm(eta) / (4.0 * norm(xi - eta) ** 4)
    return np.abs(d_eta2) - rhs, np.full_like(rhs, np.nan)


def _check_d(xi, eta):
    cross = np.abs(xi[..., 0] * (-eta[..., 1]) + xi[..., 1] * eta[..., 0])
    base = np.abs(eta[..., 0]) * norm(eta)
    ratio = np.where(base > 0, cross / base, np.nan)
    return np.minimum(cross - 0.5 * base, 4.0 * base - cross), ratio


def _check_e(xi, eta):
    gx = norm(grad_xi_arr(xi, eta))
    ge = norm(grad_eta_arr(xi, eta))
    pred = (norm(eta - 2.0 * xi) * norm(eta) ** 3) / \
           (norm(xi - 2.0 * eta) * norm(xi) ** 3)
    quot = gx / ge
    return 1e-10 - np.abs(quot - pred) / np.abs(pred), quot


def _check_f(xi, eta):
    nxi, neta, nd = norm(xi), norm(eta), norm(xi - eta)
    m1 = np.minimum(nxi - 1.999 * neta, 2.001 * neta - nxi)
    m2 = np.minimum(nd - 0.999 * neta, 1.001 * neta - nd)
    return np.minimum(m1, m2), np.full_like(nxi, np.nan)


CHECKS = {"a": ({1, 2}, _check_a), "b": ({1}, _check_b), "c": ({2}, _check_c),
          "d": ({2}, _check_d), "e": ({0}, _check_e), "f": ({1, 2}, _check_f)}


def whole_batch_certify(inequality_id, n, seed=0, batch=200_000, min_acceptance=1e-6):
    """certify_bound as one classification and one check per batch."""
    propose = resonance._REGISTRY[inequality_id][0]
    codes_ok, check = CHECKS[inequality_id]
    rng = np.random.default_rng(seed)
    ok_codes = np.array(sorted(codes_ok), dtype=np.int8)
    accepted = proposed = violations = 0
    worst = np.inf
    lo, hi = np.inf, -np.inf
    while accepted < n:
        m = min(batch, 4 * (n - accepted) + 1000)
        xi, eta = propose(rng, m)
        codes, eta_n = classify_codes(xi, eta)
        keep = np.isin(codes, ok_codes)
        proposed += m
        take = min(int(keep.sum()), n - accepted)
        if proposed > 10 * batch and accepted + take == 0:
            raise SamplerError("no proposal in region")
        if take == 0:
            continue
        idx = np.flatnonzero(keep)[:take]
        margin, const = check(xi[idx], eta_n[idx])
        violations += int(np.sum(margin < 0.0))
        worst = min(worst, float(margin.min()))
        finite = const[np.isfinite(const)]
        if finite.size:
            lo = min(lo, float(finite.min()))
            hi = max(hi, float(finite.max()))
        accepted += take
        if accepted < n and accepted / proposed < min_acceptance:
            raise SamplerError("acceptance below threshold")
    if lo > hi:
        lo = hi = np.nan
    return resonance.BoundCheckReport(accepted, violations, worst, lo, hi)
