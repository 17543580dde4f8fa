import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab.solver import (
    SimConfig,
    SimState,
    StabilityError,
    biot_savart,
    dealias,
    dealias_mask,
    initial_vorticity,
    linear_operator_field,
    make_report,
    max_speed,
    nonlinear_term,
    omega_from_profile,
    parse_config,
    profile_from_omega,
    run,
    scaling_transform,
    step,
)
from bplab.spectral import (
    NORM_REPORT_COLUMNS,
    ConfigurationError,
    Grid2D,
    InputError,
    Profile,
    RealField2D,
    SpectralField2D,
    central_mass_fraction,
    lp_project,
    lp_shell_range,
    transform_forward,
    transform_inverse,
    write_field,
    zero_mean,
)


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

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            parse_config("viscosity=0.1\n")

    def test_bad_value(self):
        with pytest.raises(ConfigurationError):
            parse_config("n=sixty-four\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigurationError):
            parse_config("n 64\n")

    def test_invalid_timestep(self):
        with pytest.raises(ConfigurationError):
            SimConfig(dt=-0.1)


class TestBiotSavart:
    def test_sign_is_fixed_and_consistent(self):
        # the fixed symbol (i xi2, -i xi1)/|xi|^2 has curl u = omega on every mode
        w = random_vorticity(seed=2)
        u1, u2 = biot_savart(w)
        k1, k2 = w.grid.wavenumbers()
        curl = 1j * k1 * u2.modes - 1j * k2 * u1.modes
        assert np.abs(curl - w.modes).max() < 1e-13 * np.abs(w.modes).max()

    def test_zero(self):
        g = Grid2D(16, 5.0)
        u1, u2 = biot_savart(SpectralField2D(g, np.zeros((16, 16))))
        assert np.all(u1.modes == 0) and np.all(u2.modes == 0)

    def test_curl_consistency_sine(self):
        g = Grid2D(32, 10.0)
        x = g.x_coords()
        w = zero_mean(transform_forward(RealField2D(
            g, np.sin(2 * np.pi * x / 10.0)[:, None] * np.ones(32))))
        u1, u2 = biot_savart(w)
        k1, k2 = g.wavenumbers()
        curl = 1j * k1 * u2.modes - 1j * k2 * u1.modes
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
        k1, k2 = w.grid.wavenumbers()
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
        out = nonlinear_term(SpectralField2D(g, np.zeros((16, 16))))
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
        modes = np.zeros((32, 32), dtype=complex)
        for j in (1, 2, 3):
            amp = rng.normal() + 1j * rng.normal()
            modes[(2 * j) % 32, j % 32] = amp
            modes[(-2 * j) % 32, (-j) % 32] = np.conj(amp)
        out = nonlinear_term(SpectralField2D(g, modes))
        assert np.abs(out.modes).max() < 1e-12 * np.abs(modes).max()

    def test_energy_bracket_vanishes(self):
        w = random_vorticity(seed=5)
        nl = nonlinear_term(w)
        wd = dealias(w)
        ip = float(np.sum(nl.modes * np.conj(wd.modes)).real)
        assert abs(ip) < 1e-10 * float(np.sum(np.abs(wd.modes) ** 2))

    def test_matches_convolution_oracle(self):
        # direct O(n^4) sum of m(xi, eta) w(xi - eta) w(eta) d_eta^2 on 8x8
        g = Grid2D(8, 2 * np.pi)
        rng = np.random.default_rng(7)
        w = dealias(zero_mean(transform_forward(RealField2D(g, rng.normal(size=(8, 8))))))
        got = nonlinear_term(w)
        k = (np.fft.fftfreq(8) * 8).astype(int)
        keep = dealias_mask(g)
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
                        total += m * w.modes[(a - c) % 8, (b - d) % 8] * w.modes[ic, id_]
                expect[ia, ib] = -total * g.dxi ** 2
        scale = np.abs(expect).max()
        assert np.abs(got.modes - expect).max() < 1e-10 * scale


def reference_nonlinear(omega):
    """-u.grad omega on the full spectrum: complex transforms of the dealiased
    velocity and vorticity gradient, product in physical space."""
    g = omega.grid
    k1, k2 = g.wavenumbers()
    mag2 = k1 ** 2 + k2 ** 2
    inv = np.divide(1.0, mag2, out=np.zeros_like(mag2), where=mag2 > 0)
    lattice = np.abs(np.fft.fftfreq(g.n) * g.n) <= g.n / 3.0
    mask = lattice[:, None] & lattice[None, :]
    wd = omega.modes * mask

    def phys(modes):
        return transform_inverse(SpectralField2D(g, modes)).samples

    advect = phys(1j * k2 * inv * wd) * phys(1j * k1 * wd) \
        + phys(-1j * k1 * inv * wd) * phys(1j * k2 * wd)
    return -transform_forward(RealField2D(g, advect)).modes * mask


def reference_step(f0, t, cfg):
    """Classical RK4 on the full profile modes, 8 phases per step."""
    k1, k2 = cfg.grid.wavenumbers()
    mag2 = k1 ** 2 + k2 ** 2
    sym = np.divide(k1, mag2, out=np.zeros_like(mag2), where=mag2 > 0)

    def rhs(f, s):
        omega = SpectralField2D(cfg.grid, f * np.exp(-1j * cfg.beta * s * sym))
        return reference_nonlinear(omega) * np.exp(1j * cfg.beta * s * sym)

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
    """The half-spectrum step against the full-spectrum reference above, on
    random fields whose Nyquist row and column carry O(1) mass."""

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nonlinear_term(self, n, seed):
        w = random_vorticity(n=n, seed=seed)
        assert rel_err(nonlinear_term(w).modes, reference_nonlinear(w)) <= 1e-12

    def test_fifty_steps(self):
        cfg = SimConfig(n=32, box_length=10.0, beta=1.0, dt=0.05)
        w0 = random_vorticity(seed=21)
        w0 = SpectralField2D(w0.grid, 0.3 * w0.modes)
        state = SimState(0.0, profile_from_omega(w0, 0.0, cfg.beta))
        expect = state.profile.field.modes
        for i in range(50):
            expect = reference_step(expect, i * cfg.dt, cfg)
            state = step(state, cfg)
        assert state.step_count == 50
        assert rel_err(state.profile.field.modes, expect) <= 1e-12

    def test_nyquist_row_and_column_kept(self):
        cfg = SimConfig(n=32, box_length=10.0, beta=1.0, dt=0.05)
        state = SimState(0.0, Profile(random_vorticity(seed=22), 0.0))
        f0 = state.profile.field.modes
        f1 = step(state, cfg).profile.field.modes
        assert np.array_equal(f1[16], f0[16]) and np.array_equal(f1[:, 16], f0[:, 16])
        assert not np.array_equal(f1, f0)

    @pytest.mark.parametrize("t", [0.0, 0.7, 3.1])
    def test_cfl_speed_is_max_speed(self, t):
        # the profile is not rotated to time t, so the vorticity's Nyquist row
        # carries a phase that breaks its Hermitian symmetry
        cfg = SimConfig(n=32, box_length=10.0, beta=1.3, dt=1e3)
        prof = Profile(random_vorticity(seed=23), t)
        with pytest.raises(StabilityError) as err:
            step(SimState(t, prof), cfg)
        speed = 0.25 * cfg.grid.dx / err.value.suggested_dt
        assert speed == pytest.approx(max_speed(omega_from_profile(prof, cfg.beta)), rel=1e-12)


def c2c_samples(modes, g):
    """Centered physical samples by a complex inverse FFT, imaginary part kept."""
    return np.fft.fftshift(np.fft.ifft2(modes)) * (2 * np.pi / g.dx) ** 2


def reference_report(state, cfg):
    """make_report's columns by complex transforms: one inverse per shell of
    lp_project, six for the velocity norms, and one weighted-norm evaluation
    per order, each with its own central-mass test."""
    prof = state.profile
    omega = omega_from_profile(prof, cfg.beta)
    g, w = omega.grid, omega.modes
    k1, k2 = g.wavenumbers()
    mag = g.wavenumber_magnitude()
    inv = np.divide(1.0, mag ** 2, out=np.zeros_like(mag), where=mag > 0)
    u1h, u2h = 1j * k2 * inv * w, -1j * k1 * inv * w
    u1, u2 = c2c_samples(u1h, g).real, c2c_samples(u2h, g).real
    du = max(np.abs(c2c_samples(1j * k * uh, g).real).max()
             for uh in (u1h, u2h) for k in (k1, k2))
    j_min, j_max = lp_shell_range(g)
    besov = sum(2.0 ** (3 * j) * np.abs(c2c_samples(lp_project(omega, j).modes, g).real).sum()
                * g.dx ** 2 for j in range(j_min, j_max + 1))
    x = g.x_coords()
    phys = c2c_samples(prof.field.modes, g)
    scale = g.dx ** 2 / (2 * np.pi) ** 2
    inside = (np.abs(x)[:, None] <= g.box_length / 4) & (np.abs(x)[None, :] <= g.box_length / 4)
    weighted, masses = [], []
    for l in (2, 3):
        s = c2c_samples(prof.field.modes, g).real
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
        "linf_du": du,
        "besov311": besov,
        "weighted2": weighted[0],
        "weighted3": weighted[1],
        "fhat_sup2": (mag ** 2 * np.abs(prof.field.modes)).max(),
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
    """make_report on real transforms against the complex-transform formulas
    above. The profile is rotated to t with beta = 1 and reported with
    beta = 1.3, so neither it nor the vorticity is Hermitian on the Nyquist
    row for t > 0. Plain random samples reach the box edge and trip the
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
        assert len(rep.warnings) == int(not windowed)
        omega = omega_from_profile(state.profile, cfg.beta)
        ref = c2c_samples(omega.modes, omega.grid).real
        assert rel_err(transform_inverse(omega).samples, ref) <= 1e-12

    def test_nyquist_row_is_not_hermitian(self):
        n, r = 32, 16
        prof = profile_from_omega(random_vorticity(n=n, seed=0), 0.7, 1.0)
        omega = omega_from_profile(prof, 1.3)
        for modes in (prof.field.modes, omega.modes):
            row = modes[r]
            assert np.abs(row[1:r] - np.conj(row[:r:-1])).max() > 1e-3 * np.abs(row).max()


class TestStep:
    def test_zero_fixed_point(self):
        cfg = SimConfig(n=16, box_length=10.0, dt=0.1, t_end=1.0, eps=0.0)
        g = cfg.grid
        state = SimState(0.0, profile_from_omega(
            SpectralField2D(g, np.zeros((16, 16))), 0.0, cfg.beta))
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

    def test_linear_pairing_annihilation(self):
        # the dispersive term never exchanges L2 mass: Re<L1 w, w> = 0
        w = random_vorticity(seed=11)
        lw = linear_operator_field(w, beta=1.0)
        ip = float(np.sum(lw.modes * np.conj(w.modes)).real)
        assert abs(ip) < 1e-16 * float(np.sum(np.abs(w.modes) ** 2))


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


class TestInitialData:
    @pytest.mark.parametrize("init", ["gaussian", "shell", "pair"])
    def test_mean_zero(self, init):
        cfg = SimConfig(n=64, box_length=50.0, eps=0.3, init=init)
        w = initial_vorticity(cfg)
        assert w.mean_mode() == 0.0
        assert np.abs(w.modes).max() > 0

    def test_file_init(self, tmp_path):
        cfg0 = SimConfig(n=32, box_length=20.0, eps=0.2, init="gaussian")
        w = initial_vorticity(cfg0)
        path = tmp_path / "init.bpf"
        write_field(path, transform_inverse(w))
        cfg = SimConfig(n=32, box_length=20.0, init="file", init_file=str(path))
        back = initial_vorticity(cfg)
        assert np.abs(back.modes - w.modes).max() < 1e-14

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
        a = cfg.width
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


def test_dealias_mask_two_thirds():
    g = Grid2D(32, 10.0)
    mask = dealias_mask(g)
    k = np.fft.fftfreq(32) * 32
    for i, ki in enumerate(k):
        assert mask[i, 0] == (abs(ki) <= 32 / 3)


def test_max_speed_positive():
    w = random_vorticity(seed=15)
    assert max_speed(w) > 0
