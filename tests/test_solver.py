import dataclasses
import itertools
import os
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab import acceptance, solver
from bplab.solver import (
    CONFIG_KEYS,
    NORM_REPORT_COLUMNS,
    Profile,
    RunResult,
    SimConfig,
    SimState,
    StabilityError,
    biot_savart,
    format_config,
    initial_vorticity,
    make_report,
    nonlinear_term,
    omega_from_profile,
    parse_config,
    profile_from_omega,
    read_vorticity,
    run,
    scaling_transform,
    step,
    velocity_sup_norms,
)
from bplab.spectral import (
    BPF_MAGIC,
    ConfigurationError,
    Grid2D,
    InputError,
    RealField2D,
    SpectralField2D,
    grid_operators,
    lp_shell_range,
    read_field,
    transform_forward,
    transform_inverse,
    weighted_profile_norm,
    write_field,
    zero_mean,
)
from halfspec import full_wavenumbers, hermitian_extension
from lp_oracle import central_mass_fraction, lp_project


def random_vorticity(n=32, box_length=10.0, seed=0):
    g = Grid2D(n, box_length)
    rng = np.random.default_rng(seed)
    return zero_mean(transform_forward(RealField2D(g, rng.normal(size=(n, n)))))


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = parse_config("n=64\nL=100.0\nbeta=0.5\ndt=0.01\nt_end=5\n"
                           "k_energy=3\ninit=gaussian\neps=0.1\n# comment\n")
        assert cfg.n == 64
        assert cfg.box_length == 100.0
        assert cfg.beta == 0.5
        assert cfg.k_energy == 3

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([8, 64, 256]), box_length=st.floats(1e-3, 1e4),
           beta=st.floats(-1e3, 1e3), dt=st.floats(1e-4, 1.0), steps=st.integers(0, 10 ** 4),
           k_energy=st.integers(0, 8), output_stride=st.integers(1, 1000),
           init=st.sampled_from(["gaussian", "shell", "pair", "file"]),
           eps=st.floats(-10.0, 10.0), init_width=st.just(0.0) | st.floats(1e-100, 100.0),
           init_file=st.none() | st.text("abc/._-XYZ 019", min_size=1).map(str.strip)
           .filter(bool), nonlinear=st.booleans())
    def test_format_parse_roundtrip(self, steps, **fields):
        cfg = SimConfig(t_end=steps * fields["dt"], **fields)
        text = format_config(cfg)
        assert parse_config(text) == cfg
        assert [line.split("=")[0] for line in text.splitlines()] == \
            [k for k in CONFIG_KEYS if k != "init_file" or cfg.init_file is not None]

    def test_format_writes_repr_floats(self):
        text = format_config(SimConfig(beta=1.23456789, box_length=10.123456789))
        assert "beta=1.23456789\n" in text and "L=10.123456789\n" in text

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            parse_config("viscosity=0.1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigurationError):
            parse_config("n=sixty-four\n")

    @pytest.mark.parametrize("word, value", [
        ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
        ("false", False), ("False", False), ("NO", False), ("0", False),
        ("on", None), ("off", None), ("2", None), ("", None)])
    def test_nonlinear_values(self, word, value):
        # any other word is refused, not read as false
        if value is None:
            with pytest.raises(ConfigurationError, match="bad value for nonlinear"):
                parse_config(f"nonlinear = {word}\n")
        else:
            assert parse_config(f"nonlinear = {word}\n").nonlinear is value

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError):
            parse_config("n 64\n")

    def test_invalid_timestep(self):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=-0.1)

    @pytest.mark.parametrize("dt, t_end", [(0.01, 0.025), (0.01, 0.0049), (0.02, np.inf),
                                           (np.nan, 1.0), (0.01, np.nan)])
    def test_t_end_must_be_whole_steps(self, dt, t_end):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=dt, t_end=t_end)
        assert SimConfig(dt=0.01, t_end=0.03).n_steps == 3


class TestBiotSavart:
    def test_sign_is_fixed_and_consistent(self):
        # the fixed symbol (i xi2, -i xi1)/|xi|^2 has curl u = omega on every
        # mode off the Nyquist row, where the odd factor k1 is 0
        w = random_vorticity(seed=2)
        u1, u2 = biot_savart(w)
        ops = grid_operators(w.grid)
        curl = 1j * ops.k1 * u2.modes - 1j * ops.k2 * u1.modes
        off = np.ones(w.modes.shape, dtype=bool)
        off[16] = False
        assert np.abs(curl - w.modes)[off].max() < 1e-13 * np.abs(w.modes).max()

    def test_zero(self):
        g = Grid2D(16, 5.0)
        u1, u2 = biot_savart(SpectralField2D(g, np.zeros(g.half_shape)))
        assert np.all(u1.modes == 0) and np.all(u2.modes == 0)

    def test_curl_consistency_sine(self):
        g = Grid2D(32, 10.0)
        x = g.x_coords()
        w = zero_mean(transform_forward(RealField2D(
            g, np.sin(2 * np.pi * x / 10.0)[:, None] * np.ones(32))))
        u1, u2 = biot_savart(w)
        ops = grid_operators(g)
        curl = 1j * ops.k1 * u2.modes - 1j * ops.k2 * u1.modes
        assert np.abs(curl - w.modes).max() < 1e-13
        # u depends only on x1
        u1p = transform_inverse(u1).samples
        u2p = transform_inverse(u2).samples
        assert np.abs(u1p).max() < 1e-13
        assert np.abs(u2p - u2p[:, :1]).max() < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_divergence_free(self, seed):
        w = random_vorticity(seed=seed)
        u1, u2 = biot_savart(w)
        k1, k2 = grid_operators(w.grid).k1, grid_operators(w.grid).k2
        div = k1 * u1.modes + k2 * u2.modes
        scale = max(np.abs(k1 * u1.modes).max(), np.abs(k2 * u2.modes).max())
        assert np.abs(div).max() < 1e-14 * scale

    def test_rejects_nonzero_mean(self):
        g = Grid2D(16, 5.0)
        w = transform_forward(RealField2D(g, np.ones((16, 16))))
        with pytest.raises(InputError):
            biot_savart(w)


class TestNonlinearTerm:
    def test_zero(self):
        g = Grid2D(16, 5.0)
        out = nonlinear_term(SpectralField2D(g, np.zeros(g.half_shape)))
        assert np.all(out.modes == 0)

    def test_shear_annihilates(self):
        # for omega = sin(2 pi x1/L), u is parallel to the level sets
        g = Grid2D(32, 10.0)
        x = g.x_coords()
        w = zero_mean(transform_forward(RealField2D(
            g, np.sin(2 * np.pi * x / 10.0)[:, None] * np.ones(32))))
        out = nonlinear_term(w)
        assert np.abs(out.modes).max() < 1e-15

    def test_single_line_spectrum_annihilates(self):
        g = Grid2D(32, 2 * np.pi)
        rng = np.random.default_rng(3)
        modes = np.zeros(g.half_shape, dtype=complex)
        for j in (1, 2, 3):
            modes[2 * j, j] = rng.normal() + 1j * rng.normal()
        out = nonlinear_term(SpectralField2D(g, modes))
        assert np.abs(out.modes).max() < 1e-12 * np.abs(modes).max()

    def test_energy_bracket_vanishes(self):
        w = random_vorticity(seed=5)
        nl = nonlinear_term(w)
        ops = grid_operators(w.grid)
        wd = w.modes * ops.dealias_mask
        ip = float(np.sum(ops.weight * nl.modes * np.conj(wd)).real)
        assert abs(ip) < 1e-10 * float(np.sum(ops.weight * np.abs(wd) ** 2))

    def test_matches_convolution_oracle(self):
        # direct O(n^4) sum of m(xi, eta) w(xi - eta) w(eta) d_eta^2 on 8x8
        g = Grid2D(8, 2 * np.pi)
        rng = np.random.default_rng(7)
        w = zero_mean(transform_forward(RealField2D(g, rng.normal(size=(8, 8)))))
        w.modes *= grid_operators(g).dealias_mask
        got = nonlinear_term(w)
        full = hermitian_extension(w.modes)
        k = (np.fft.fftfreq(8) * 8).astype(int)
        keep = (np.abs(k)[:, None] <= 8 / 3) & (np.abs(k)[None, :] <= 8 / 3)
        expect = np.zeros((8, 8), dtype=complex)
        for ia, a in enumerate(k):
            for ib, b in enumerate(k):
                if not keep[ia, ib]:
                    continue
                xi = np.array([a, b], float) * g.dxi
                total = 0j
                for ic, c in enumerate(k):
                    for id_, d in enumerate(k):
                        if (c, d) == (0, 0) or (a - c, b - d) == (0, 0):
                            continue
                        if not (-4 <= a - c <= 3 and -4 <= b - d <= 3):
                            continue
                        eta = np.array([c, d], float) * g.dxi
                        m = (xi[0] * (-eta[1]) + xi[1] * eta[0]) / (eta @ eta)
                        total += m * full[(a - c) % 8, (b - d) % 8] * full[ic, id_]
                expect[ia, ib] = -total * g.dxi ** 2
        scale = np.abs(expect).max()
        assert np.abs(hermitian_extension(got.modes) - expect).max() < 1e-10 * scale


def reference_nonlinear(w, g):
    """-u.grad omega on the full spectrum `w` of the grid g: complex
    transforms of the dealiased velocity and vorticity gradient, product in
    physical space."""
    k1, k2 = full_wavenumbers(g)
    mag2 = k1 ** 2 + k2 ** 2
    inv = np.divide(1.0, mag2, out=np.zeros_like(mag2), where=mag2 > 0)
    lattice = np.abs(np.fft.fftfreq(g.n) * g.n) <= g.n / 3.0
    mask = lattice[:, None] & lattice[None, :]
    wd = w * mask

    def phys(modes):
        return c2c_samples(modes, g).real

    advect = phys(1j * k2 * inv * wd) * phys(1j * k1 * wd) \
        + phys(-1j * k1 * inv * wd) * phys(1j * k2 * wd)
    return -np.fft.fft2(np.fft.ifftshift(advect)) * (g.dx / (2 * np.pi)) ** 2 * mask


def reference_step(f0, t, cfg):
    """Classical RK4 on the full profile modes, 8 phases per step."""
    k1, k2 = full_wavenumbers(cfg.grid)
    mag2 = k1 ** 2 + k2 ** 2
    sym = np.divide(k1, mag2, out=np.zeros_like(mag2), where=mag2 > 0)

    def rhs(f, s):
        omega = f * np.exp(-1j * cfg.beta * s * sym)
        return reference_nonlinear(omega, cfg.grid) * np.exp(1j * cfg.beta * s * sym)

    dt = cfg.dt
    a = rhs(f0, t)
    b = rhs(f0 + 0.5 * dt * a, t + 0.5 * dt)
    c = rhs(f0 + 0.5 * dt * b, t + 0.5 * dt)
    d = rhs(f0 + dt * c, t + dt)
    out = f0 + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
    out[0, 0] = 0.0
    return out


def rel_err(got, expect):
    return np.abs(got - expect).max() / np.abs(expect).max()


class TestFullSpectrumEquivalence:
    """The half-spectrum step against the full-spectrum reference above, fed
    the Hermitian extension, on random fields whose Nyquist row and column
    carry O(1) mass."""

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nonlinear_term(self, n, seed):
        w = random_vorticity(n=n, seed=seed)
        expect = reference_nonlinear(hermitian_extension(w.modes), w.grid)
        assert rel_err(hermitian_extension(nonlinear_term(w).modes), expect) <= 1e-12

    def test_fifty_steps(self):
        cfg = SimConfig(n=32, box_length=10.0, beta=1.0, dt=0.05)
        w0 = random_vorticity(seed=21)
        w0 = SpectralField2D(w0.grid, 0.3 * w0.modes)
        state = SimState(0.0, profile_from_omega(w0, 0.0, cfg.beta))
        expect = hermitian_extension(state.profile.field.modes)
        for i in range(50):
            expect = reference_step(expect, i * cfg.dt, cfg)
            state = step(state, cfg)
        assert state.t == pytest.approx(50 * cfg.dt, abs=1e-12)
        assert rel_err(hermitian_extension(state.profile.field.modes), expect) <= 1e-12

    def test_nyquist_row_and_column_kept(self):
        # the step changes only the kept block: row n/2 and the columns
        # kc = n//3 + 1 .. n/2 stay as they were
        cfg = SimConfig(n=32, box_length=10.0, beta=1.0, dt=0.05)
        state = SimState(0.0, Profile(random_vorticity(seed=22), 0.0))
        f0 = state.profile.field.modes
        f1 = step(state, cfg).profile.field.modes
        assert np.array_equal(f1[16], f0[16]) and np.array_equal(f1[:, 11:], f0[:, 11:])
        assert not np.array_equal(f1[:, :11], f0[:, :11])

    @pytest.mark.parametrize("t", [0.0, 0.7, 3.1])
    def test_cfl_speed_is_max_speed(self, t):
        # the step's advective bound is the max speed of the velocity of the
        # dealiased vorticity at time t, here by complex transforms of the
        # whole lattice
        cfg = SimConfig(n=32, box_length=10.0, beta=1.3, dt=1e3, t_end=1e3)
        prof = Profile(random_vorticity(seed=23), t)
        with pytest.raises(StabilityError) as err:
            step(SimState(t, prof), cfg)
        omega = omega_from_profile(prof, cfg.beta)
        w = hermitian_extension(omega.modes * grid_operators(cfg.grid).dealias_mask)
        k1, k2 = full_wavenumbers(cfg.grid)
        mag2 = k1 ** 2 + k2 ** 2
        a = w * np.divide(1.0, mag2, out=np.zeros_like(mag2), where=mag2 > 0)
        u1, u2 = (c2c_samples(m, cfg.grid).real for m in (1j * k2 * a, -1j * k1 * a))
        speed = np.sqrt((u1 ** 2 + u2 ** 2).max())
        assert err.value.suggested_dt == pytest.approx(0.25 * cfg.grid.dx / speed, rel=1e-13)

    def test_dropped_modes_do_not_bound_dt(self):
        # one mode pair at xi1 = 12 dxi, which the 2/3 rule drops at n=32: its
        # velocity (sup 5.2, a bound of 0.03 on dt) never enters a stage, so
        # dt=0.1 steps, and the step leaves the profile as it was
        cfg = SimConfig(n=32, box_length=10.0, dt=0.1, t_end=0.1)
        modes = np.zeros(cfg.grid.half_shape, dtype=complex)
        modes[12, 0] = modes[-12, 0] = 50.0
        prof = Profile(SpectralField2D(cfg.grid, modes), 0.0)
        assert cfg.dt > 0.5 * cfg.grid.dx / velocity_sup_norms(prof.field)[0]
        assert np.array_equal(step(SimState(0.0, prof), cfg).profile.field.modes, modes)

    def test_rejects_nonzero_mean(self):
        # step sets mode (0, 0) to zero, so it refuses a profile with a mean
        w = random_vorticity(n=16, box_length=5.0, seed=24)
        w.modes[0, 0] = 1.0
        with pytest.raises(InputError):
            step(SimState(0.0, Profile(w, 0.0)), SimConfig(n=16, box_length=5.0))


def half_spectrum_advection(w, ops):
    """-u.grad omega on the half spectrum `w`: one batched irfft2 of the
    dealiased velocity and vorticity gradient, and one rfft2 of u.grad omega."""
    n = w.shape[0]
    mask = ops.dealias_mask
    wd = w * mask
    a = wd * ops.inv_mag2
    u1, u2 = 1j * ops.k2 * a, -1j * ops.k1 * a
    d1 = 1j * ops.k1 * wd
    d2 = 1j * ops.k2 * wd
    phys = np.fft.irfft2(np.stack((u1, u2, d1, d2)), s=(n, n))
    advect = np.fft.rfft2(phys[0] * phys[2] + phys[1] * phys[3])
    return -ops.inverse_scale * advect * mask


def half_spectrum_step(f0, t, cfg):
    """One RK4 step of the profile modes f0 on the whole half spectrum, with an
    exp per stage time; the Hermitian extension of the increment is added."""
    n, dt = cfg.n, cfg.dt
    m = n // 2 + 1
    ops = grid_operators(cfg.grid)

    def rhs(h, s):
        phase = np.exp(-1j * cfg.beta * s * ops.symbol)
        return half_spectrum_advection(h * phase, ops) * np.conj(phase)

    h0 = f0[:, :m]
    a = rhs(h0, t)
    b = rhs(h0 + 0.5 * dt * a, t + 0.5 * dt)
    c = rhs(h0 + 0.5 * dt * b, t + 0.5 * dt)
    d = rhs(h0 + dt * c, t + dt)
    inc = dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
    out = f0.copy()
    out[:, :m] += inc
    out[:, m:] += np.conj(inc[-np.arange(n) % n, m - 2:0:-1])
    out[0, 0] = 0.0
    return out


class TestHalfSpectrumEquivalence:
    """The step on the kept block, with the Basdevant products and cached phase
    ratios, against the half-spectrum step above. The increments are compared,
    not the profiles, which they change only slightly."""

    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    @pytest.mark.parametrize("t", [0.0, 0.7, 3.1, 15.0])
    @pytest.mark.parametrize("init", ["pair", "random"])
    def test_one_step(self, n, t, init):
        cfg = SimConfig(n=n, box_length=50.0, beta=1.3, dt=0.01, init="pair", eps=0.5)
        w = initial_vorticity(cfg) if init == "pair" else random_vorticity(n, 50.0, seed=n)
        f0 = hermitian_extension(w.modes)
        got = hermitian_extension(step(SimState(t, Profile(w, t)), cfg).profile.field.modes)
        expect = half_spectrum_step(f0, t, cfg)
        assert rel_err(got - f0, expect - f0) <= 1e-12

    def test_chained_steps(self):
        cfg = SimConfig(n=128, box_length=50.0, beta=1.0, dt=0.05, init="gaussian", eps=0.5)
        state = SimState(0.0, profile_from_omega(initial_vorticity(cfg), 0.0, cfg.beta))
        f0 = expect = hermitian_extension(state.profile.field.modes)
        for i in range(300):
            expect = half_spectrum_step(expect, i * cfg.dt, cfg)
            state = step(state, cfg)
        got = hermitian_extension(state.profile.field.modes)
        assert rel_err(got - f0, expect - f0) <= 1e-12


class TestRunAgainstStep:
    """run carries the vorticity in the Lawson form, with the phase as a
    product of the cached E(dt); its checkpoints are checked against the
    half-spectrum step above, and its aborts against chained step calls."""

    def test_chained_steps(self):
        cfg = SimConfig(n=128, box_length=50.0, beta=1.0, dt=0.05, t_end=15.0,
                        init="gaussian", eps=0.5, output_stride=300)
        res = run(cfg)
        f0 = expect = hermitian_extension(res.checkpoints[0][1].field.modes)
        for i in range(300):
            expect = half_spectrum_step(expect, i * cfg.dt, cfg)
        got = hermitian_extension(res.checkpoints[-1][1].field.modes)
        assert rel_err(got - f0, expect - f0) <= 1e-12

    def test_criterion_5_run(self):
        # criterion 5's first run, checked at each of its 51 checkpoints. The
        # product of E(dt) drifts by about an ulp per step, so the tolerances
        # grow with the step count: 1000 steps measured 5.0e-14 on the profile
        # and 6.4e-13 on its increment
        cfg = SimConfig(n=128, box_length=50.0, beta=1.0, dt=0.05, t_end=50.0, eps=0.2,
                        init="gaussian", init_width=2.5, k_energy=4, output_stride=20)
        res = run(cfg)
        assert not res.aborted and len(res.checkpoints) == 51
        f0 = expect = hermitian_extension(res.checkpoints[0][1].field.modes)
        for i in range(1, cfg.n_steps + 1):
            expect = half_spectrum_step(expect, (i - 1) * cfg.dt, cfg)
            if i % cfg.output_stride == 0:
                got = hermitian_extension(res.checkpoints[i // cfg.output_stride][1].field.modes)
                assert rel_err(got, expect) <= 2e-13
                assert rel_err(got - f0, expect - f0) <= 2e-12

    def test_cfl_abort_matches_step(self):
        # shell data at 0.95 of the initial bound: the speed grows, and the
        # bound breaks after a few steps
        base = SimConfig(n=32, box_length=10.0, beta=2.0, eps=1.0, init="shell")
        w0 = initial_vorticity(base)
        dt = 0.95 * 0.5 * base.grid.dx / velocity_sup_norms(w0)[0]
        cfg = dataclasses.replace(base, dt=dt, t_end=60 * dt, output_stride=1)
        state = SimState(0.0, Profile(w0, 0.0))
        with pytest.raises(StabilityError) as err:
            for done in range(cfg.n_steps):
                state = step(state, cfg)
        assert done > 0
        res = run(cfg)
        assert res.aborted and len(res.reports) == done + 1
        assert res.abort_reason == \
            f"stability: {err.value} (try dt={err.value.suggested_dt:.3e})"

    def test_nan_dumps_last_good_vorticity(self, tmp_path, monkeypatch):
        # the stages of step 4 turn to NaN; the dump is the vorticity of step 3
        cfg = SimConfig(n=32, box_length=10.0, dt=0.05, t_end=0.5, eps=0.5, init="pair",
                        output_stride=1)
        advection, calls = solver._advection, []

        def poisoned(u, blk, ws, out):
            calls.append(1)
            advection(u, blk, ws, out)
            return np.multiply(out, np.nan if len(calls) > 12 else 1.0, out=out)

        monkeypatch.setattr(solver, "_advection", poisoned)
        path = tmp_path / "dump.bpf"
        res = run(cfg, dump_path=path)
        assert res.aborted and res.abort_reason == "NaN at step 4"
        t, prof = res.checkpoints[-1]
        assert t == 3 * cfg.dt
        want = transform_inverse(omega_from_profile(prof, cfg.beta)).samples
        assert rel_err(read_field(path).samples, want) <= 1e-14

    def test_blow_up_guard(self, monkeypatch):
        # the slopes of step 4 are scaled up 1e4 times: |omega|_Linf stays
        # finite but passes 1000x its initial value, and the run stops at
        # that report
        cfg = SimConfig(n=32, box_length=10.0, dt=0.05, t_end=0.5, eps=0.5, init="pair",
                        output_stride=1)
        advection, calls = solver._advection, []

        def poisoned(u, blk, ws, out):
            calls.append(1)
            advection(u, blk, ws, out)
            return np.multiply(out, 1e4 if len(calls) > 12 else 1.0, out=out)

        monkeypatch.setattr(solver, "_advection", poisoned)
        res = run(cfg)
        assert res.abort_reason == f"blow-up guard at t={4 * cfg.dt}"
        linf = [r.linf_omega for r in res.reports]
        assert len(linf) == 5 and np.isfinite(linf[-1]) and linf[-1] > 1e3 * linf[0]
        assert max(linf[:-1]) < 2.0 * linf[0]


def expression_increment(w, cfg):
    """The Lawson increment written as numpy expressions, each of which
    allocates its result: the oracle of the workspace form."""
    g, dt = cfg.grid, cfg.dt
    blk = solver._block_operators(g)
    e_half, e_one = solver._phase_ratios(g, cfg.beta, dt)

    def slope(v):
        u1, u2 = np.fft.irfft(np.fft.ifft(blk.velocity * v, axis=-2), n=g.n, axis=-1)
        a, b = np.fft.fft(np.fft.rfft(np.stack((u2 * u2 - u1 * u1, u1 * u2)),
                                      axis=-1)[..., :blk.kc], axis=-2)
        return blk.basdevant[0] * a + blk.basdevant[1] * b

    w = w[:, :blk.kc]
    k1 = slope(w)
    k2 = slope(e_half * (w + 0.5 * dt * k1))
    k3 = slope(e_half * w + 0.5 * dt * k2)
    k4 = slope(e_one * w + dt * e_half * k3)
    return dt / 6.0 * (e_one * k1 + 2.0 * e_half * (k2 + k3) + k4)


class TestWorkspace:
    """run steps in one workspace: the increment is formed in its buffers,
    with each complex product in the order of the formula."""

    @staticmethod
    def increment(n, init, seed=0):
        cfg = SimConfig(n=n, box_length=50.0, beta=1.3, dt=0.01, init="pair", eps=0.5)
        w = initial_vorticity(cfg) if init == "pair" else random_vorticity(n, 50.0, seed)
        ws = solver._workspace(cfg.grid)
        return solver._lawson_increment(w.modes, cfg, ws), expression_increment(w.modes, cfg)

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("init", ["pair", "random"])
    def test_bitwise_equal_to_expressions(self, n, init):
        got, expect = self.increment(n, init)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("init", ["pair", "random"])
    def test_close_to_expressions_at_256(self, init):
        # above 256 KiB numpy may elide a temporary of e_half * (w + ...) and
        # multiply in the other order, which can round the last bit apart
        got, expect = self.increment(256, init)
        assert rel_err(got, expect) <= 1e-13

    def test_warm_increment_allocates_nothing(self):
        n = 64
        cfg = SimConfig(n=n, box_length=50.0, beta=1.3, dt=0.01, init="pair", eps=0.5)
        w = initial_vorticity(cfg).modes
        ws = solver._workspace(cfg.grid)
        solver._lawson_increment(w, cfg, ws)
        tracemalloc.start()
        try:
            solver._lawson_increment(w, cfg, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * (n // 3 + 1) * np.dtype(complex).itemsize

    def test_checkpoints_share_no_memory(self):
        # the run's two half-spectrum buffers swap every step; no result holds them
        cfg = SimConfig(n=32, box_length=10.0, dt=0.05, t_end=0.5, eps=0.5, init="pair",
                        output_stride=1)
        res = run(cfg)
        arrays = [prof.field.modes for _, prof in res.checkpoints]
        assert len(arrays) == 11
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))


def c2c_samples(modes, g):
    """Centered physical samples by a complex inverse FFT, imaginary part kept."""
    return np.fft.fftshift(np.fft.ifft2(modes)) * (2 * np.pi / g.dx) ** 2


def reference_report(state, cfg):
    """make_report's columns by complex transforms of the Hermitian
    extensions: one inverse per shell of lp_project, six for the velocity
    norms, and one weighted-norm evaluation per order, each with its own
    central-mass test."""
    omega = omega_from_profile(state.profile, cfg.beta)
    g, w = omega.grid, hermitian_extension(omega.modes)
    prof = hermitian_extension(state.profile.field.modes)
    k1, k2 = full_wavenumbers(g)
    mag = np.hypot(k1, k2)
    inv = np.divide(1.0, mag ** 2, out=np.zeros_like(mag), where=mag > 0)
    u1h, u2h = 1j * k2 * inv * w, -1j * k1 * inv * w
    u1, u2 = c2c_samples(u1h, g).real, c2c_samples(u2h, g).real
    du = max(np.abs(c2c_samples(1j * k * uh, g).real).max()
             for uh in (u1h, u2h) for k in (k1, k2))
    j_min, j_max = lp_shell_range(g)
    besov = sum(2.0 ** (3 * j) * np.abs(c2c_samples(
        hermitian_extension(lp_project(omega, j).modes), g).real).sum() * g.dx ** 2
        for j in range(j_min, j_max + 1))
    x = g.x_coords()
    phys = c2c_samples(prof, g)
    scale = g.dx ** 2 / (2 * np.pi) ** 2
    inside = (np.abs(x)[:, None] <= g.box_length / 4) & (np.abs(x)[None, :] <= g.box_length / 4)
    weighted, masses = [], []
    for l in (2, 3):
        s = c2c_samples(prof, g).real
        masses.append(np.sum(s[inside] ** 2) / np.sum(s ** 2))
        d1 = np.fft.fft2(np.fft.ifftshift(-1j * x[:, None] * phys)) * scale
        d2 = np.fft.fft2(np.fft.ifftshift(-1j * x[None, :] * phys)) * scale
        total = np.sum(mag ** (2 * l) * (np.abs(d1) ** 2 + np.abs(d2) ** 2)) * g.dxi ** 2
        weighted.append(2 * np.pi * np.sqrt(total))
    row = {
        "t": state.t,
        "l2": 2 * np.pi * g.dxi * np.linalg.norm(w),
        "hk": 2 * np.pi * np.sqrt(np.sum((1 + mag ** 2) ** cfg.k_energy * np.abs(w) ** 2)
                                  * g.dxi ** 2),
        "linf_omega": np.abs(c2c_samples(w, g).real).max(),
        "linf_u": np.sqrt(u1 ** 2 + u2 ** 2).max(),
        "linf_u2": np.abs(u2).max(),
        "linf_du": du,
        "besov311": besov,
        "weighted2": weighted[0],
        "weighted3": weighted[1],
        "fhat_sup2": (mag ** 2 * np.abs(prof)).max(),
    }
    return row, masses[0]


def windowed_vorticity(n, seed):
    """Random samples under a Gaussian window, made mean-zero with the
    window itself, so the mass stays central."""
    g = Grid2D(n, 10.0)
    x = g.x_coords()
    window = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / 2.0)
    samples = np.random.default_rng(seed).normal(size=(n, n)) * window
    samples -= samples.mean() / window.mean() * window
    return zero_mean(transform_forward(RealField2D(g, samples)))


class TestReportEquivalence:
    """make_report on the half spectrum against the complex-transform
    formulas above. The profile is rotated to t with beta = 1 and reported
    with beta = 1.3. Plain random samples reach the box edge and trip the
    boundary warning; windowed ones do not."""

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.7, 3.1])
    @pytest.mark.parametrize("windowed", [False, True])
    def test_columns(self, n, seed, t, windowed):
        cfg = SimConfig(n=n, box_length=10.0, beta=1.3, k_energy=3)
        w = windowed_vorticity(n, seed) if windowed else random_vorticity(n=n, seed=seed)
        state = SimState(t, profile_from_omega(w, t, 1.0))
        rep = make_report(state, cfg)
        expect, mass = reference_report(state, cfg)
        for col in NORM_REPORT_COLUMNS:
            assert getattr(rep, col) == pytest.approx(expect[col], rel=1e-12, abs=0), col
        assert central_mass_fraction(state.profile.field) == pytest.approx(mass, rel=1e-12)
        assert (mass >= 0.99) == windowed
        assert bool(rep.warning) == (not windowed)
        omega = omega_from_profile(state.profile, cfg.beta)
        ref = c2c_samples(hermitian_extension(omega.modes), omega.grid).real
        assert rel_err(transform_inverse(omega).samples, ref) <= 1e-12

    def test_rotated_fields_stay_real(self):
        # rotated to t, the profile and the vorticity are each the half
        # spectrum of their real samples: the round trip through them is exact
        for t in (0.7, 3.1):
            prof = profile_from_omega(random_vorticity(n=32, seed=0), t, 1.0)
            omega = omega_from_profile(prof, 1.3)
            for f in (prof.field, omega):
                back = transform_forward(transform_inverse(f)).modes
                assert rel_err(back, f.modes) <= 1e-14
                assert f.modes[16, 0].imag == 0.0

    def test_one_warning_per_report(self):
        # the boundary warning is the report's own: one per report, naming its
        # t, with the weighted columns of weighted_profile_norm; none when the
        # mass stays central
        cfg = SimConfig(n=32, box_length=10.0)
        state = SimState(0.3, profile_from_omega(random_vorticity(n=32, seed=0), 0.3, cfg.beta))
        first, second = make_report(state, cfg), make_report(state, cfg)
        want = "boundary contamination: <99% mass in central half-box at t=0.3"
        assert first.warning == second.warning == want
        assert (first.weighted2, first.weighted3) == weighted_profile_norm(state.profile.field)[:2]
        central = SimState(0.3, profile_from_omega(windowed_vorticity(32, 0), 0.3, cfg.beta))
        assert make_report(central, cfg).warning == ""


class TestStep:
    def test_zero_fixed_point(self):
        cfg = SimConfig(n=16, box_length=10.0, dt=0.1, t_end=1.0, eps=0.0)
        g = cfg.grid
        state = SimState(0.0, profile_from_omega(
            SpectralField2D(g, np.zeros(g.half_shape)), 0.0, cfg.beta))
        out = step(state, cfg)
        assert np.all(out.profile.field.modes == 0)
        assert out.t == pytest.approx(0.1)

    def test_linear_only_profile_constant(self):
        cfg = SimConfig(n=32, box_length=10.0, beta=2.5, dt=0.1, t_end=1.0,
                        nonlinear=False)
        w0 = random_vorticity(seed=9)
        state = SimState(0.0, profile_from_omega(w0, 0.0, cfg.beta))
        for _ in range(10):
            state = step(state, cfg)
        assert np.abs(state.profile.field.modes - w0.modes).max() < 1e-15

    def test_beta_zero_is_euler(self):
        # with beta = 0 the profile equals the vorticity at all times
        cfg = SimConfig(n=32, box_length=10.0, beta=0.0, dt=0.01, t_end=0.1, eps=0.5)
        w0 = initial_vorticity(cfg)
        state = SimState(0.0, profile_from_omega(w0, 0.0, 0.0))
        out = step(state, cfg)
        recon = omega_from_profile(out.profile, 0.0)
        assert np.array_equal(recon.modes, out.profile.field.modes)

    def test_stability_rejection(self):
        cfg = SimConfig(n=32, box_length=10.0, dt=50.0, t_end=100.0, eps=1.0,
                        init="pair")
        w0 = initial_vorticity(cfg)
        state = SimState(0.0, profile_from_omega(w0, 0.0, cfg.beta))
        with pytest.raises(StabilityError) as err:
            step(state, cfg)
        assert err.value.suggested_dt < 50.0

    def test_rk4_order(self):
        def final(dt):
            cfg = SimConfig(n=32, box_length=40.0, dt=dt, t_end=0.4, eps=1.0,
                            init="pair", output_stride=10 ** 6)
            res = run(cfg)
            return res.checkpoints[-1][1].field.modes

        fa, fb, fc = final(0.1), final(0.05), final(0.025)
        ratio = np.abs(fa - fc).max() / np.abs(fb - fc).max()
        assert 12.0 <= ratio <= 20.0

    def test_linear_rejects_nonzero_mean(self):
        # the linear step, too, refuses a profile with a mean rather than
        # zeroing it
        cfg = SimConfig(n=16, box_length=5.0, nonlinear=False)
        w = random_vorticity(n=16, box_length=5.0, seed=25)
        w.modes[0, 0] = 3.0
        with pytest.raises(InputError):
            step(SimState(0.0, Profile(w, 0.0)), cfg)

    def test_linear_pairing_annihilation(self):
        # the dispersive term never exchanges L2 mass: Re<L1 w, w> = 0
        w = random_vorticity(seed=11)
        lw = biot_savart(w)[1]       # u2 = L1 w
        weight = grid_operators(w.grid).weight
        ip = float(np.sum(weight * lw.modes * np.conj(w.modes)).real)
        assert abs(ip) < 1e-16 * float(np.sum(weight * np.abs(w.modes) ** 2))


def packet_centroid_error(tmp_path, beta):
    """The largest error of the omega^2 centroid of a small packet at
    xi = (1, 0.5), at t = 5, 10, 15 and 20, against the group velocity of the
    free flow exp(-i beta t g), g = xi1/|xi|^2: the centroid sits at
    beta t grad g(1, 0.5) = beta t (-0.48, -0.64)."""
    g = Grid2D(128, 100.0)
    x = g.x_coords()
    X, Y = np.meshgrid(x, x, indexing="ij")
    samples = 1e-3 * np.exp(-(X ** 2 + Y ** 2) / 72.0) * np.cos(X + 0.5 * Y)
    path = tmp_path / "packet.bpf"
    write_field(path, RealField2D(g, samples - samples.mean()))
    cfg = SimConfig(n=128, box_length=100.0, beta=beta, dt=0.1, t_end=20.0,
                    init="file", init_file=str(path), output_stride=50)
    res = run(cfg)
    assert not res.aborted and len(res.checkpoints) == 5
    errors = []
    for t, prof in res.checkpoints[1:]:
        w2 = transform_inverse(omega_from_profile(prof, beta)).samples ** 2
        centroid = np.array([np.sum(X * w2), np.sum(Y * w2)]) / np.sum(w2)
        errors.append(np.abs(centroid - beta * t * np.array([-0.48, -0.64])).max())
    return max(errors)


class TestRun:
    def test_zero_data(self):
        cfg = SimConfig(n=16, box_length=10.0, dt=0.1, t_end=0.5, eps=0.0,
                        output_stride=2)
        res = run(cfg)
        assert not res.aborted
        for rep in res.reports:
            assert rep.l2 == 0.0 and rep.linf_omega == 0.0

    def test_euler_conservation(self):
        cfg = SimConfig(n=64, box_length=40.0, beta=0.0, dt=0.05, t_end=2.0,
                        eps=0.5, init="pair", output_stride=10)
        res = run(cfg)
        l2s = [r.l2 for r in res.reports]
        assert (max(l2s) - min(l2s)) / l2s[0] < 1e-8

    def test_report_count_and_checkpoints(self):
        cfg = SimConfig(n=16, box_length=10.0, dt=0.1, t_end=1.0, eps=0.1,
                        output_stride=5)
        res = run(cfg)
        assert len(res.reports) == 3    # t = 0, 0.5, 1.0
        assert [t for t, _ in res.checkpoints] == pytest.approx([0.0, 0.5, 1.0])

    def test_report_times_are_whole_steps(self):
        # a running sum of dt = 0.01 would read 0.13999999999999999 and
        # 0.20000000000000004 here
        cfg = SimConfig(n=16, box_length=10.0, dt=0.01, t_end=0.3, eps=0.1,
                        output_stride=2)
        res = run(cfg)
        want = [k * cfg.output_stride * cfg.dt for k in range(16)]
        assert [r.t for r in res.reports] == want
        assert [t for t, _ in res.checkpoints] == want
        assert [prof.t for _, prof in res.checkpoints] == want

    @pytest.mark.parametrize("beta", [1.0, -0.7])
    def test_packet_moves_at_the_group_velocity(self, tmp_path, beta):
        assert packet_centroid_error(tmp_path, beta) < 1e-3

    def test_aborted_follows_the_reason(self):
        cfg = SimConfig(n=16, box_length=10.0)
        assert RunResult(cfg, [], [], "NaN at step 4").aborted
        assert not RunResult(cfg, [], []).aborted
        with pytest.raises(TypeError):
            RunResult(cfg, [], [], aborted=True)


class TestPlantedBugs:
    """Each solver bug planted here fails a check of the acceptance
    criteria, run at the smallest size that still catches it."""

    @staticmethod
    def w_drift():
        # criterion 3's beta = 1 run at n = 32 and t_end = 2: its bound is
        # w_drift < 1e-8
        cfg = SimConfig(n=32, box_length=50.0, beta=1.0, dt=0.05, t_end=2.0, eps=0.5,
                        init="gaussian", output_stride=10)
        res = run(cfg)
        assert not res.aborted
        return acceptance._rel_spread([r.l2 for r in res.reports])

    def test_unplanted_solver_passes(self):
        assert self.w_drift() < 1e-8

    def test_full_step_phase_in_the_stages(self, monkeypatch):
        # E(dt) in place of E(dt/2): the drift is 6e-6
        ratios = solver._phase_ratios
        monkeypatch.setattr(solver, "_phase_ratios",
                            lambda grid, beta, dt: np.stack([ratios(grid, beta, dt)[1]] * 2))
        assert not self.w_drift() < 1e-8

    def test_k4_dropped(self, monkeypatch):
        # every 4th slope of a step is k4; zeroed, the drift is 1.5e-6
        advection, calls = solver._advection, itertools.count(1)

        def planted(u, blk, ws, out):
            advection(u, blk, ws, out)
            if next(calls) % 4 == 0:
                out[...] = 0.0
            return out

        monkeypatch.setattr(solver, "_advection", planted)
        assert not self.w_drift() < 1e-8

    def test_beta_sign_flipped(self, tmp_path, monkeypatch):
        # the solver's free flow runs as E(-t): the packet moves against its
        # group velocity, and its centroid misses by 25
        free_flow, apply_semigroup = solver.free_flow, solver.apply_semigroup
        monkeypatch.setattr(solver, "free_flow", lambda grid, t: free_flow(grid, -t))
        monkeypatch.setattr(solver, "apply_semigroup", lambda f, t: apply_semigroup(f, -t))
        solver._phase_ratios.cache_clear()
        try:
            assert not packet_centroid_error(tmp_path, 1.0) < 1e-3
        finally:
            solver._phase_ratios.cache_clear()


@st.composite
def field_files(draw):
    """The bytes of a BPF1 file: a header (n, L), most often the (32, 20.0)
    of the reading grid, then the float bits of n^2 samples, less a drawn
    count of bytes. The samples are a mean-free normal field at a drawn
    scale, zeros or random bits, with a few drawn floats planted."""
    n = draw(st.one_of(st.just(32), st.sampled_from([16, 64, 7, 0, -32])))
    box_length = draw(st.one_of(st.just(20.0), st.floats()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = max(n, 0) ** 2
    kind = draw(st.sampled_from(["normal", "zeros", "bits"]))
    if kind == "normal":
        samples = rng.normal(size=size)
        samples = (samples - samples.sum() / max(size, 1)) * draw(
            st.sampled_from([1.0, 1e-300, 1e150, 1e300]))
    elif kind == "zeros":
        samples = np.zeros(size)
    else:
        samples = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64)
    for value in draw(st.lists(st.floats(), max_size=3)):
        if size:
            samples[rng.integers(size)] = value
    payload = samples.astype("<f8").tobytes()
    payload = payload[:len(payload) - draw(st.sampled_from([0, 0, 0, 1, 8]))]
    return BPF_MAGIC + struct.pack("<qd", n, box_length) + payload


class TestInitialData:
    @pytest.mark.parametrize("init", ["gaussian", "shell", "pair"])
    def test_mean_zero(self, init):
        cfg = SimConfig(n=64, box_length=50.0, eps=0.3, init=init)
        w = initial_vorticity(cfg)
        assert w.modes[0, 0] == 0.0
        assert np.abs(w.modes).max() > 0

    def test_file_init(self, tmp_path):
        cfg0 = SimConfig(n=32, box_length=20.0, eps=0.2, init="gaussian")
        w = initial_vorticity(cfg0)
        path = tmp_path / "init.bpf"
        write_field(path, transform_inverse(w))
        cfg = SimConfig(n=32, box_length=20.0, init="file", init_file=str(path))
        back = initial_vorticity(cfg)
        assert np.abs(back.modes - w.modes).max() < 1e-14

    @pytest.mark.parametrize("n, box_length", [(32, 40.0), (64, 20.0)])
    def test_file_init_rejects_another_grid(self, tmp_path, n, box_length):
        path = tmp_path / "init.bpf"
        write_field(path, transform_inverse(initial_vorticity(SimConfig(n=32, box_length=20.0))))
        cfg = SimConfig(n=n, box_length=box_length, init="file", init_file=str(path))
        with pytest.raises(ConfigurationError,
                           match=rf"\(n=32, L=20\.0\).*\(n={n}, L={box_length}\)"):
            initial_vorticity(cfg)

    @pytest.mark.parametrize("ratio, refused", [(1e-13, False), (1e-11, True)])
    def test_file_init_mean_policy(self, tmp_path, ratio, refused):
        # every field read takes require_mean_zero's policy: a mean mode of
        # at most 1e-12 of max(1, largest |mode|)
        cfg = SimConfig(n=32, box_length=20.0, eps=0.2, init="gaussian")
        w = initial_vorticity(cfg)
        unit = transform_forward(RealField2D(cfg.grid, np.ones((32, 32)))).modes[0, 0].real
        lift = ratio * max(1.0, float(np.abs(w.modes).max())) / unit
        path = tmp_path / "init.bpf"
        write_field(path, RealField2D(cfg.grid, transform_inverse(w).samples + lift))
        cfg_file = SimConfig(n=32, box_length=20.0, init="file", init_file=str(path))
        if refused:
            with pytest.raises(InputError, match="nonzero mean"):
                initial_vorticity(cfg_file)
        else:
            assert initial_vorticity(cfg_file).modes[0, 0] == 0.0

    def test_file_init_rejects_nonzero_mean(self, tmp_path):
        g = Grid2D(16, 5.0)
        path = tmp_path / "bad.bpf"
        write_field(path, RealField2D(g, np.ones((16, 16))))
        cfg = SimConfig(n=16, box_length=5.0, init="file", init_file=str(path))
        with pytest.raises(InputError):
            initial_vorticity(cfg)

    def test_unknown_init(self):
        with pytest.raises(ConfigurationError):
            initial_vorticity(SimConfig(init="plume"))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e308])
    def test_file_init_rejects_samples_not_finite(self, tmp_path, value):
        # a sample that is not finite, or modes that overflow, is refused by
        # name before anything warns
        samples = transform_inverse(random_vorticity(n=32, box_length=20.0)).samples
        samples[3, 4] = value
        samples[5, 6] = -value
        path = tmp_path / "init.bpf"
        write_field(path, RealField2D(Grid2D(32, 20.0), samples))
        with pytest.raises(InputError, match=f"{path}: field samples not finite"):
            read_vorticity(path, Grid2D(32, 20.0))

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(BPF_MAGIC.__add__),
                          field_files()))
    def test_any_file_gives_a_field_or_a_refusal(self, data):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "field.bpf")
            with open(path, "wb") as fh:
                fh.write(data)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    omega = read_vorticity(path, Grid2D(32, 20.0))
                except (InputError, ConfigurationError):
                    return
        assert omega.grid == Grid2D(32, 20.0) and omega.modes[0, 0] == 0.0
        assert np.all(np.isfinite(omega.modes))


class TestScalingTransform:
    def test_identity(self):
        g = Grid2D(32, 10.0)
        rng = np.random.default_rng(13)
        f = RealField2D(g, rng.normal(size=(32, 32)))
        out = scaling_transform(f, 1.0)
        assert np.abs(out.samples - f.samples).max() < 1e-10

    def test_pointwise_dilation(self):
        # lambda^-1 w(lambda x) on the central quarter of the box; farther out
        # the periodic interpolant replays copies of the compressed bump
        cfg = SimConfig(n=128, box_length=40.0, eps=1.0, init="gaussian")
        w = transform_inverse(initial_vorticity(cfg))
        lam = 2.0
        out = scaling_transform(w, lam)
        g = w.grid
        x = g.x_coords()
        X, Y = np.meshgrid(x, x, indexing="ij")
        a = cfg.box_length / 16.0
        r2 = (lam * X) ** 2 + (lam * Y) ** 2
        exact = cfg.eps * (1 - r2 / (2 * a * a)) * np.exp(-r2 / (2 * a * a)) / lam
        central = (np.abs(X) < g.box_length / 4) & (np.abs(Y) < g.box_length / 4)
        assert np.abs(out.samples - exact)[central].max() < 1e-10

    def test_l2_with_periodic_copies(self):
        # integer lambda tiles lambda^2 compressed copies into the box, so the
        # global norm picks up lambda^(d/2) relative to the single-copy value
        cfg = SimConfig(n=128, box_length=40.0, eps=1.0, init="gaussian")
        w = transform_inverse(initial_vorticity(cfg))
        lam = 2.0
        out = scaling_transform(w, lam)
        n0 = np.sqrt(np.sum(w.samples ** 2) * w.grid.dx ** 2)
        n1 = np.sqrt(np.sum(out.samples ** 2) * w.grid.dx ** 2)
        assert n1 == pytest.approx(lam * (n0 / lam ** 2), rel=1e-6)

    def test_support_overflow(self):
        g = Grid2D(64, 10.0)
        rng = np.random.default_rng(14)
        f = RealField2D(g, rng.normal(size=(64, 64)))   # mass everywhere
        with pytest.raises(ValueError):
            scaling_transform(f, 4.0)

    def test_rejects_nonpositive(self):
        g = Grid2D(16, 5.0)
        f = RealField2D(g, np.zeros((16, 16)))
        with pytest.raises(ValueError):
            scaling_transform(f, -1.0)

    @pytest.mark.parametrize("lam", [1.5, 0.5])
    def test_rejects_fractional_lambda(self, lam):
        # lambda x_j is a grid point only for whole-number lambda
        g = Grid2D(16, 5.0)
        with pytest.raises(ValueError):
            scaling_transform(RealField2D(g, np.zeros((16, 16))), lam)

    def test_samples_are_gathered(self):
        # each output sample is the input sample at the grid point that is
        # lambda x_j modulo the box, divided by lambda
        cfg = SimConfig(n=32, box_length=40.0, eps=1.0, init="gaussian")
        w = transform_inverse(initial_vorticity(cfg))
        x = w.grid.x_coords()
        y = (2.0 * x + w.grid.box_length / 2) % w.grid.box_length - w.grid.box_length / 2
        idx = [int(np.flatnonzero(np.isclose(x, v))[0]) for v in y]
        out = scaling_transform(w, 2)
        assert np.array_equal(out.samples, w.samples[np.ix_(idx, idx)] / 2.0)


def test_dealias_mask_two_thirds():
    g = Grid2D(32, 10.0)
    mask = grid_operators(g).dealias_mask
    k = np.fft.fftfreq(32) * 32
    for i, ki in enumerate(k):
        assert mask[i, 0] == (abs(ki) <= 32 / 3)
