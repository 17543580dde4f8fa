"""Desk-scale checks of the toolkit's headline quantitative claims.

Each criterion function runs a self-contained experiment and returns a
CriterionResult; the pytest acceptance module and the `reproduce-all` CLI
target both drive these. Randomness flows from a single seed through named
substreams, so verdicts are deterministic per seed.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import diagnostics, propagator, resonance, solver
from .harness import substream, substream_seed
from .spectral import (
    Grid2D,
    RealField2D,
    SpectralField2D,
    grid_operators,
    l2_norm,
    shell_field,
    transform_forward,
    transform_inverse,
    zero_mean,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict
    elapsed: float

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index:2d} [{verdict}] {self.name} ({self.elapsed:.1f}s)"


def _criterion(index, name):
    """Make fn(seed) -> (passed, details) acceptance criterion `index`, titled
    `name`: called with a seed, it returns the CriterionResult, timed. Its
    `index` attribute is what run_all selects by."""
    def wrap(fn):
        @functools.wraps(fn)
        def timed(seed=0):
            t0 = time.perf_counter()
            passed, details = fn(seed)
            return CriterionResult(index, name, bool(passed), details, time.perf_counter() - t0)
        timed.index = index
        return timed
    return wrap


@_criterion(1, "linear dispersive decay")
def criterion_1(seed=0):
    """Linear dispersive decay of unit-shell data: exponent near -1 and a
    grid-stable empirical constant."""
    times = np.geomspace(10.0, 100.0, 8)
    fit_hi = propagator.decay_curve(shell_field(Grid2D(512, 200.0)), times)
    fit_lo = propagator.decay_curve(shell_field(Grid2D(256, 200.0)), times)
    stable = abs(fit_hi.c_emp - fit_lo.c_emp) <= 0.2 * fit_hi.c_emp
    ok = (-1.15 <= fit_hi.exponent <= -0.85) and np.isfinite(fit_hi.c_emp) and stable
    return ok, {"exponent": fit_hi.exponent, "c_emp": fit_hi.c_emp,
                "c_emp_coarse": fit_lo.c_emp}


@_criterion(2, "stationary phase")
def criterion_2(seed=0):
    """Stationary phase: root count, gradient residuals, Hessian determinant."""
    rng = substream(seed, "stphase")
    r = np.sqrt(rng.uniform(0.01, 400.0, 100_000))
    th = rng.uniform(-np.pi, np.pi, 100_000)
    vs = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    roots, found = propagator.stationary_roots(vs)
    max_count = int(found.sum(-1).max())
    grad = propagator.phase_gradient(vs[:, None, :], roots)
    worst_res = float(propagator.norm(grad)[found].max(initial=0.0))
    # closed-form determinant vs the 2x2 determinants of the Hessian and of
    # central differences of the gradient, at points outside |xi| < 0.3
    xi = rng.uniform(-2, 2, (100, 2))
    xi = xi[propagator.norm(xi) >= 0.3]
    ref = propagator.hessian_det(xi)
    x, e = xi[:, None, :], 1e-5 * np.eye(2)          # row a of e steps along axis a
    fd = (propagator.phase_gradient((0, 0), x + e)
          - propagator.phase_gradient((0, 0), x - e)) / 2e-5
    dets = [np.linalg.det(-propagator.symbol_hess(xi)), np.linalg.det(fd.swapaxes(-1, -2))]
    fd_worst = float(max(np.max(np.abs(det - ref) / np.abs(ref)) for det in dets))
    ok = max_count <= 4 and worst_res < 1e-10 and fd_worst < 1e-6
    return ok, {"max_count": max_count, "worst_residual": worst_res,
                "det_worst_rel": fd_worst}


@_criterion(3, "L2 conservation")
def criterion_3(seed=0):
    """Conservation of |omega|_L2 and |u|_L2 for beta in {0, 1}, plus the
    discrete energy bracket. At beta = 0 the data is a moving pair, since the
    radial Gaussian is a steady Euler flow that leaves transport untested."""
    details = {}
    ok = True
    for beta, init in ((0.0, "pair"), (1.0, "gaussian")):
        cfg = solver.SimConfig(n=256, box_length=50.0, beta=beta, dt=0.05,
                               t_end=10.0, eps=0.5, init=init, output_stride=20)
        res = solver.run(cfg)
        if res.aborted:
            return False, {"abort": res.abort_reason}
        w_drift = _rel_spread([r.l2 for r in res.reports])
        u_l2 = []
        bracket = 0.0
        for t, prof in res.checkpoints:
            omega = solver.omega_from_profile(prof, beta)
            u1h, u2h = solver.biot_savart(omega)
            u_l2.append(np.hypot(l2_norm(u1h), l2_norm(u2h)))
            nl = solver.nonlinear_term(omega)
            ops = grid_operators(omega.grid)
            wd = omega.modes * ops.dealias_mask
            num = abs(float(np.sum(ops.weight * nl.modes * np.conj(wd)).real))
            den = float(np.sum(ops.weight * np.abs(wd) ** 2))
            bracket = max(bracket, num / den if den > 0 else 0.0)
        u_drift = _rel_spread(u_l2)
        details[f"beta={beta:g}"] = {"w_drift": w_drift, "u_drift": u_drift,
                                     "bracket": bracket}
        ok = ok and w_drift < 1e-8 and u_drift < 1e-8 and bracket < 1e-10
    return ok, details


def _rel_spread(values):
    values = np.asarray(values, dtype=float)
    return float((values.max() - values.min()) / values[0])


@_criterion(4, "energy certificate")
def criterion_4(seed=0):
    """Energy certificate: finite fitted constants for k = 2, 3, 4 whose
    consecutive ratios respect the 4^k scaling within two orders."""
    cfg = solver.SimConfig(n=128, box_length=50.0, beta=1.0, dt=0.02,
                           t_end=4.0, eps=1.5, init="pair", output_stride=20)
    res = solver.run(cfg)
    if res.aborted:
        return False, {"abort": res.abort_reason}
    cs = {}
    ok = True
    for k in (2, 3, 4):
        cert = diagnostics.energy_certificate(res, k)
        cs[k] = cert.c
        ok = ok and cert.valid and np.isfinite(cert.c)
    ratios = {f"c({k + 1})/c({k})": cs[k + 1] / cs[k] for k in (2, 3)}
    for r in ratios.values():
        ok = ok and 0.25 <= r <= 64.0
    return ok, {"c": cs, **ratios}


@_criterion(5, "small-data longevity trend")
def criterion_5(seed=0):
    """Longevity trend: as epsilon shrinks, the doubling time of |omega|_H4 is
    nondecreasing and its peak excess over |omega(0)|_H4 nonincreasing;
    weighted profile norms bounded at the smallest epsilon."""
    t_doubles, censored, excess = [], [], []
    last = None
    epsilons = (0.2, 0.1, 0.05)
    for eps in epsilons:
        # radial data: a self-propelling dipole would carry its x-weight
        # toward the box boundary and swamp the profile norms; the narrow
        # width keeps that weight well inside the box over the whole run
        cfg = solver.SimConfig(n=128, box_length=50.0, beta=1.0, dt=0.05,
                               t_end=50.0, eps=eps, init="gaussian",
                               init_width=2.5, k_energy=4, output_stride=20)
        res = solver.run(cfg)
        if res.aborted:
            return False, {"abort": res.abort_reason, "eps": eps}
        ts = [r.t for r in res.reports]
        hks = [r.hk for r in res.reports]
        t_doubles.append(diagnostics.doubling_time(ts, hks, t_end=cfg.t_end))
        censored.append(max(hks) < 2.0 * hks[0])     # doubling_time found no doubling
        excess.append(max(hks) / hks[0] - 1.0)
        last = res
    monotone = all(t_doubles[i] <= t_doubles[i + 1] + 1e-9 for i in range(2))
    shrinking = all(excess[i + 1] <= excess[i] for i in range(2))
    order = (float(np.polyfit(np.log(epsilons), np.log(excess), 1)[0])
             if min(excess) > 0 else np.nan)
    w2 = [r.weighted2 for r in last.reports]
    w3 = [r.weighted3 for r in last.reports]
    s2 = [r.fhat_sup2 for r in last.reports]
    bounded = all(max(series) <= 4.0 * series[0]
                  for series in (w2, w3, s2) if series[0] > 0)
    return monotone and shrinking and bounded, {
        "t_double": t_doubles, "censored": censored, "monotone": monotone,
        "h4_excess": excess, "excess_order": order, "w2_growth": max(w2) / w2[0],
        "w3_growth": max(w3) / w3[0], "s2_growth": max(s2) / s2[0]}


@_criterion(6, "resonance identities")
def criterion_6(seed=0):
    """Resonance identities at 1e6 random pairs, evaluated in slices of
    resonance.CHUNK pairs."""
    rng = substream(seed, "resonance-identities")
    n = 1_000_000
    xi = resonance.annulus(rng, n)
    eta = resonance.annulus(rng, n)
    keep = propagator.norm(xi - eta) > 1e-9
    xi, eta = xi[keep], eta[keep]
    chunk = resonance.CHUNK
    errs = [_identity_errors(xi[s:s + chunk], eta[s:s + chunk])
            for s in range(0, len(xi), chunk)]
    sym_err, mag_err, harm = (max(col) for col in zip(*errs))
    lam = rng.uniform(0.1, 10.0, 1000) * np.where(rng.uniform(size=1000) < 0.5, 1, -1)
    spacetime = resonance.resonance_probe(lam)
    res_phase = float(np.max(spacetime["abs_phase"]))
    res_grad = float(np.max(spacetime["grad_eta_norm"]))
    ok = sym_err < 1e-12 and mag_err < 1e-12 and harm < 1e-12 and \
        res_phase == 0.0 and res_grad == 0.0
    return ok, {"sym_err": sym_err, "mag_err": mag_err, "harmonicity": harm,
                "resonance_phase": res_phase, "resonance_grad": res_grad}


def _identity_errors(xi, eta):
    """Worst relative errors (symmetry, gradient magnitudes, harmonicity) of
    the phase identities over a batch of pairs."""
    phi1 = resonance.phase_arr(xi, eta)
    phi2 = resonance.phase_arr(xi, xi - eta)
    # scale by the largest constituent term; the phase itself can cancel
    sym = propagator.symbol
    scale = np.maximum.reduce([np.abs(sym(xi)), np.abs(sym(xi - eta)),
                               np.abs(sym(eta)), np.full_like(phi1, 1e-300)])
    sym_err = float(np.max(np.abs(phi1 - phi2) / scale))
    # harmonicity and the magnitude identities
    ge = propagator.norm(resonance.grad_eta_arr(xi, eta))
    gx = propagator.norm(resonance.grad_xi_arr(xi, eta))
    gx_id, ge_id = resonance.grad_phase_magnitudes_arr(xi, eta)
    mag_err = max(float(np.max(np.abs(ge - ge_id) / np.maximum(ge_id, 1e-300))),
                  float(np.max(np.abs(gx - gx_id) / np.maximum(gx_id, 1e-300))))
    hess = propagator.symbol_hess(eta)
    entry_scale = np.abs(hess).max(axis=(-2, -1))
    harm = float(np.max(np.abs(hess[..., 0, 0] + hess[..., 1, 1])
                        / np.maximum(entry_scale, 1e-300)))
    return sym_err, mag_err, harm


@_criterion(7, "region-bound certification")
def criterion_7(seed=0):
    """Region-bound certification (a)-(f) at 1e6 samples each."""
    reps = {iid: resonance.certify_bound(iid, 1_000_000,
                                         seed=substream_seed(seed, f"certify-{iid}"))
            for iid in resonance.INEQUALITY_IDS}
    details = {iid: {"violations": rep.violations, "worst_margin": rep.worst_margin,
                     "empirical_constant": rep.empirical_constant}
               for iid, rep in reps.items()}
    # the two-sided claim of id d: its ratio stays in [1/2, 4]
    lo, hi = reps["d"].constant_min, reps["d"].empirical_constant
    details["d_ratio_range"] = (lo, hi)
    ok = all(rep.violations == 0 for rep in reps.values()) and 0.5 <= lo and hi <= 4.0
    return ok, details


@_criterion(8, "null structure")
def criterion_8(seed=0):
    """Null structure: single-line spectra annihilate, parallel pairs give
    m = 0, and the pseudo-spectral product matches the convolution oracle,
    at t = 0 (oracle_err) and in profile variables at t = 0.7 and -3.1 on
    boxes of length 2 pi and 5 (oracle_err_t, the worst of the four)."""
    g = Grid2D(32, 2 * np.pi)
    modes = np.zeros(g.half_shape, dtype=complex)
    rng = substream(seed, "null-structure")
    for j in (1, 2, 3):           # modes on the line through (1, 2)
        modes[j, 2 * j] = rng.normal() + 1j * rng.normal()
    line = SpectralField2D(g, modes)
    nl_line = solver.nonlinear_term(line)
    line_resid = float(np.abs(nl_line.modes).max()) / float(np.abs(modes).max())
    m_parallel = float(resonance.null_form(np.array([2.0, 0.0]), np.array([1.0, 0.0])))
    rng = substream(seed, "conv-oracle")
    oracle_err, *errs = _convolution_oracle_errors(rng, 2 * np.pi, (0.0, 0.7, -3.1))
    oracle_err_t = max(errs + _convolution_oracle_errors(rng, 5.0, (0.7, -3.1)))
    ok = line_resid < 1e-12 and m_parallel == 0.0 and oracle_err < 1e-10 and oracle_err_t < 1e-10
    return ok, {"line_residual": line_resid, "m_parallel": m_parallel,
                "oracle_err": oracle_err, "oracle_err_t": oracle_err_t}


def _convolution_oracle_errors(rng, box_length, times):
    """For each t of times, the max deviation of E(-t) N(E(t) f) from the direct
    O(n^4) sum -dxi^2 sum_eta e^(i t Phi(xi, eta)) m(xi, eta) f(xi - eta) f(eta),
    relative to the sum's scale, for a dealiased random f on an 8x8 grid. Phi and
    m are resonance's, at the pairs with xi kept by the 2/3 rule and xi, eta and
    xi - eta nonzero lattice points (m is 0 at xi = 0, where Phi is undefined).
    The sum covers the whole lattice and is compared on the half spectrum."""
    g = Grid2D(8, box_length)
    f = zero_mean(transform_forward(RealField2D(g, rng.normal(size=(8, 8)))))
    f.modes *= grid_operators(g).dealias_mask
    full = np.concatenate([f.modes, np.conj(f.modes[-np.arange(8) % 8, 3:0:-1])], axis=1)
    k = (np.fft.fftfreq(8) * 8).astype(int)
    lattice = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    diff = lattice[:, None] - lattice[None, :]                       # xi - eta
    nonzero = np.any(lattice != 0, axis=-1)
    pairs = ((nonzero & np.all(np.abs(lattice) <= 8 / 3, axis=-1))[:, None] & nonzero
             & np.any(diff != 0, axis=-1) & np.all((-4 <= diff) & (diff <= 3), axis=-1))
    rows, cols = np.nonzero(pairs)
    xi, eta = lattice[rows] * g.dxi, lattice[cols] * g.dxi
    amp = resonance.null_form(xi, eta) * full[diff[rows, cols, 0] % 8, diff[rows, cols, 1] % 8] \
        * full.ravel()[cols]
    phase = resonance.phase_arr(xi, eta)
    errs = []
    for t in times:
        expect = np.zeros(64, dtype=complex)
        np.add.at(expect, rows, np.exp(1j * t * phase) * amp)
        expect = -expect.reshape(8, 8) * g.dxi ** 2
        got = solver.nonlinear_term(propagator.apply_semigroup(f, t))
        got = propagator.apply_semigroup(got, -t)
        scale = max(float(np.abs(expect).max()), 1e-300)
        errs.append(float(np.abs(got.modes - expect[:, :5]).max()) / scale)
    return errs


@_criterion(9, "scaling symmetry")
def criterion_9(seed=0):
    """Scaling symmetry: the lambda = 2 rescaled run tracks the rescaled
    reference solution."""
    lam = 2.0
    n, L = 256, 50.0
    cfg_ref = solver.SimConfig(n=n, box_length=L, beta=1.0, dt=0.0125,
                               t_end=0.5, eps=1.0, init="gaussian",
                               output_stride=10 ** 6)
    res_ref = solver.run(cfg_ref)
    if res_ref.aborted:
        return False, {"abort": res_ref.abort_reason}
    w0 = transform_inverse(solver.initial_vorticity(cfg_ref))
    w0_scaled = solver.scaling_transform(w0, lam)
    cfg_s = solver.SimConfig(n=n, box_length=L, beta=1.0, dt=0.025, t_end=1.0)
    state = solver.SimState(0.0, solver.profile_from_omega(
        zero_mean(transform_forward(w0_scaled)), 0.0, cfg_s.beta))
    for _ in range(cfg_s.n_steps):
        state = solver.step(state, cfg_s)
    got = transform_inverse(solver.omega_from_profile(state.profile, cfg_s.beta))
    t_ref, prof_ref = res_ref.checkpoints[-1]
    ref = transform_inverse(solver.omega_from_profile(prof_ref, cfg_ref.beta))
    want = solver.scaling_transform(ref, lam)
    num = np.linalg.norm(got.samples - want.samples)
    den = np.linalg.norm(want.samples)
    rel = float(num / den)
    return rel < 1e-4, {"rel_l2_err": rel, "t_ref": t_ref}


@_criterion(10, "transport sup-norm bound")
def criterion_10(seed=0):
    """Transport a priori bound on a large-data vortex-pair run."""
    cfg = solver.SimConfig(n=128, box_length=50.0, beta=1.0, dt=0.02,
                           t_end=20.0, eps=2.0, init="pair", output_stride=50)
    res = solver.run(cfg)
    if res.aborted:
        return False, {"abort": res.abort_reason}
    rep = diagnostics.linfty_transport_check(res)
    return rep.ok, {"min_rel_slack": rep.min_rel_slack,
                    "final_lhs": float(rep.lhs[-1]), "final_rhs": float(rep.rhs[-1])}


@_criterion(11, "bootstrap arithmetic")
def criterion_11(seed=0):
    """Bootstrap arithmetic: feasibility at M = 1 and monotone margins."""
    params = diagnostics.bootstrap_search(1.0)
    if params is None:
        return False, {"feasible": None}
    feasible, report = diagnostics.bootstrap_feasibility(params)
    rng = substream(seed, "bootstrap-monotone")
    monotone = True
    for _ in range(200):
        M = rng.uniform(0.5, 3)
        k = rng.uniform(1, 80)
        mu = rng.uniform(0.01, 0.9)
        l1 = rng.uniform(-200, -0.1)
        l2 = l1 + rng.uniform(-100, -0.5)
        a = diagnostics.bootstrap_conditions(
            diagnostics.BootstrapParams(M, k, 10.0 ** l1, mu))
        b = diagnostics.bootstrap_conditions(
            diagnostics.BootstrapParams(M, k, 10.0 ** l2, mu))
        for c in ("cond1", "cond2", "cond3"):
            if a[c] >= 0 and b[c] < 0:
                monotone = False
    ok = feasible and monotone
    return ok, {"k": params.k, "eps": params.eps, "mu": params.mu,
                "margins": {k: float(v["margin"]) for k, v in report.items()},
                "monotone": monotone}


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
                criterion_11]


def run_all(seed=0, only=None) -> list[CriterionResult]:
    """Run every criterion, or those whose index is in `only`, in the order
    of ALL_CRITERIA."""
    return [fn(seed) for fn in ALL_CRITERIA if only is None or fn.index in only]
