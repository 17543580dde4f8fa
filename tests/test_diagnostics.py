import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab import diagnostics, solver
from bplab.diagnostics import (
    BootstrapParams,
    bootstrap_conditions,
    bootstrap_feasibility,
    bootstrap_search,
    doubling_time,
    energy_certificate,
    linfty_transport_check,
    weighted_norm_series,
)
from bplab.solver import (
    NormReport,
    Profile,
    RunResult,
    SimConfig,
    biot_savart,
    omega_from_profile,
    run,
    velocity_sup_norms,
)
from bplab.spectral import (
    Grid2D,
    RealField2D,
    SpectralField2D,
    fhat_sup_weighted,
    linf_norm,
    sobolev_norm,
    transform_forward,
    transform_inverse,
    weighted_profile_norm,
    zero_mean,
)
from halfspec import full_wavenumbers, hermitian_extension


@pytest.fixture(scope="module")
def euler_run():
    cfg = SimConfig(n=64, box_length=40.0, beta=0.0, dt=0.05, t_end=3.0,
                    eps=1.0, init="pair", output_stride=10)
    return run(cfg)


@pytest.fixture(scope="module")
def linear_run():
    cfg = SimConfig(n=32, box_length=20.0, beta=1.0, dt=0.1, t_end=2.0,
                    eps=0.5, init="gaussian", output_stride=5, nonlinear=False)
    return run(cfg)


class TestDecayNorms:
    """|omega|_Linf, |u|_Linf and |Du|_Linf with u recovered spectrally."""

    def test_zero(self):
        g = Grid2D(16, 5.0)
        w = SpectralField2D(g, np.zeros(g.half_shape))
        assert (linf_norm(w),) + velocity_sup_norms(w) == (0.0, 0.0, 0.0, 0.0)

    def test_single_shell_gradient_relation(self):
        # one Hermitian mode pair at |xi| = k: |Du| ~= |xi| |u| for that wave
        g = Grid2D(32, 2 * np.pi)
        modes = np.zeros(g.half_shape, dtype=complex)
        modes[2, 0] = 1.0
        modes[-2, 0] = 1.0
        w = SpectralField2D(g, modes)
        u_sup, _, du_sup = velocity_sup_norms(w)
        assert du_sup == pytest.approx(2.0 * u_sup, rel=1e-10)

    def test_one_velocity_per_call(self, monkeypatch):
        g = Grid2D(32, 10.0)
        rng = np.random.default_rng(4)
        w = zero_mean(transform_forward(RealField2D(g, rng.normal(size=(32, 32)))))
        calls = []

        def counted(omega):
            calls.append(omega)
            return biot_savart(omega)
        monkeypatch.setattr(solver, "biot_savart", counted)
        u_sup, u2_sup, _ = velocity_sup_norms(w)
        assert len(calls) == 1
        monkeypatch.undo()
        s1, s2 = (transform_inverse(u).samples for u in biot_savart(w))
        assert u_sup == np.sqrt((s1 ** 2 + s2 ** 2).max())
        assert u2_sup == np.abs(s2).max()


class TestEnergyCertificate:
    def test_linear_run_minimal_constant_zero(self, linear_run):
        cert = energy_certificate(linear_run, 3)
        assert cert.valid
        assert cert.c == 0.0

    def test_euler_run_envelope_dominates(self, euler_run):
        cert = energy_certificate(euler_run, 3)
        assert cert.valid and np.isfinite(cert.c)
        assert np.all(cert.rhs_envelope * (1 + 1e-12) >= cert.hk_measured)

    def test_amplitude_doubling_does_not_shrink_c(self):
        cs = []
        for eps in (0.8, 1.6):
            cfg = SimConfig(n=64, box_length=40.0, beta=0.0, dt=0.02, t_end=2.0,
                            eps=eps, init="pair", output_stride=10)
            cs.append(energy_certificate(run(cfg), 3).c)
        assert cs[1] >= cs[0]

    def test_growth_from_zero_norm(self, linear_run):
        # from a zero initial norm only a norm that stays zero is certified
        res = linear_run
        zero = [(t, Profile(SpectralField2D(p.field.grid, np.zeros_like(p.field.modes)), t))
                for t, p in res.checkpoints]
        grown = energy_certificate(RunResult(res.config, res.reports,
                                             zero[:1] + res.checkpoints[1:]), 3)
        assert not grown.valid and grown.c == np.inf and not grown.rhs_envelope.any()
        flat = energy_certificate(RunResult(res.config, res.reports, zero), 3)
        assert flat.valid and flat.c == 0.0 and not flat.hk_measured.any()

    def test_growth_with_zero_integrand(self, linear_run):
        # the norm grows while int(|Du| + |w|) stays 0: no finite c dominates
        res = linear_run
        reports = [dataclasses.replace(r, linf_du=0.0, linf_omega=0.0) for r in res.reports]
        grown = [(t, Profile(SpectralField2D(p.field.grid, (1.0 + i) * p.field.modes), t))
                 for i, (t, p) in enumerate(res.checkpoints)]
        cert = energy_certificate(RunResult(res.config, reports, grown), 3)
        assert not cert.valid and cert.c == np.inf and not cert.rhs_envelope.any()

    def test_requires_checkpoints(self, euler_run):
        res = RunResult(euler_run.config, euler_run.reports, [])
        with pytest.raises(ValueError):
            energy_certificate(res, 2)


class TestTransportCheck:
    def test_zero_data(self):
        cfg = SimConfig(n=16, box_length=10.0, dt=0.1, t_end=0.5, eps=0.0,
                        output_stride=2)
        rep = linfty_transport_check(run(cfg))
        assert rep.ok
        assert np.all(rep.lhs == 0.0) and np.all(rep.rhs == 0.0)

    def test_small_run_nonnegative_slack(self):
        cfg = SimConfig(n=64, box_length=40.0, beta=1.0, dt=0.05, t_end=3.0,
                        eps=0.5, init="pair", output_stride=10)
        rep = linfty_transport_check(run(cfg))
        assert rep.ok
        assert rep.slack.min() >= -diagnostics.TRANSPORT_TOLERANCE * rep.lhs.max()

    def test_min_rel_slack_skips_t0(self):
        # the slack at t = 0 is 0 by construction; every later one is positive
        # here, and so is the smallest of them relative to rhs
        cfg = SimConfig(n=64, box_length=40.0, beta=1.0, dt=0.05, t_end=3.0,
                        eps=0.5, init="pair", output_stride=10)
        rep = linfty_transport_check(run(cfg))
        assert rep.slack[0] == 0.0 and np.all(rep.slack[1:] > 0)
        assert rep.min_rel_slack == min(rep.slack[1:] / rep.rhs[1:])
        assert rep.min_rel_slack > 0

    @pytest.mark.parametrize("beta", [1.3, -0.7])
    def test_forcing_is_beta_L1_omega(self, beta, monkeypatch):
        # the integrated forcing is |beta L1 omega|_Linf at each checkpoint,
        # here by a complex transform of the whole lattice of the vorticity;
        # a negative beta gives the same norm as |beta|
        cfg = SimConfig(n=32, box_length=20.0, beta=beta, dt=0.05, t_end=0.5,
                        eps=0.5, init="pair", output_stride=2)
        res = run(cfg)
        integrands = []
        trapezoid = diagnostics._cumulative_trapezoid

        def spy(values, ts):
            integrands.append(list(values))
            return trapezoid(values, ts)
        monkeypatch.setattr(diagnostics, "_cumulative_trapezoid", spy)
        linfty_transport_check(res)
        g = cfg.grid
        k1, k2 = full_wavenumbers(g)
        mag2 = k1 ** 2 + k2 ** 2
        symbol = -1j * beta * np.divide(k1, mag2, out=np.zeros_like(mag2), where=mag2 > 0)
        want = []
        for _, prof in res.checkpoints:
            w = hermitian_extension(omega_from_profile(prof, beta).modes)
            samples = np.fft.ifft2(symbol * w).real * (2 * np.pi / g.dx) ** 2
            want.append(np.abs(samples).max())
        assert len(integrands) == 1 and len(integrands[0]) == len(want) == 6
        np.testing.assert_allclose(integrands[0], want, rtol=1e-15, atol=0)


class TestWeightedSeries:
    def test_linear_run_constant(self, linear_run):
        w2 = np.array([r.weighted2 for r in linear_run.reports])
        w3 = np.array([r.weighted3 for r in linear_run.reports])
        assert np.abs(w2 - w2[0]).max() < 1e-12 * w2[0]
        assert np.abs(w3 - w3[0]).max() < 1e-12 * w3[0]
        assert weighted_norm_series(linear_run) == [False] * len(linear_run.reports)

    def test_zero_data(self):
        cfg = SimConfig(n=16, box_length=10.0, dt=0.1, t_end=0.3, eps=0.0,
                        output_stride=1)
        res = run(cfg)
        assert all(r.weighted2 == 0.0 and r.weighted3 == 0.0 for r in res.reports)
        assert weighted_norm_series(res) == [False] * 4

    @staticmethod
    def _series(**columns):
        """A RunResult whose reports carry the given weighted-norm columns,
        1.0 for the columns not given, on dummy checkpoints."""
        n = len(next(iter(columns.values())))
        reports = [NormReport(t=float(i), l2=1.0, hk=1.0, linf_omega=1.0, linf_u=1.0,
                              linf_u2=1.0, linf_du=1.0, besov311=1.0,
                              **{c: columns.get(c, [1.0] * n)[i]
                                 for c in ("weighted2", "weighted3", "fhat_sup2")})
                   for i in range(n)]
        return RunResult(SimConfig(), reports, [(r.t, None) for r in reports])

    def test_flag_strictly_above_ten_times(self):
        assert weighted_norm_series(self._series(weighted2=[1.0, 5.0, 10.0, 10.5])) == \
            [False, False, False, True]

    def test_zero_first_value_never_flags(self):
        assert weighted_norm_series(self._series(weighted2=[0.0, 1.0, 1e300])) == \
            [False, False, False]

    @pytest.mark.parametrize("column", ["weighted2", "weighted3", "fhat_sup2"])
    def test_each_column_flags(self, column):
        assert weighted_norm_series(self._series(**{column: [2.0, 21.0, 3.0]})) == \
            [False, True, False]


class TestDiagnosticsReadReports:
    """The diagnostics take their norms from the run's reports; these equal
    the norms recomputed from the checkpoints."""

    @pytest.fixture(scope="class")
    def contaminated_run(self):
        # a vortex pair wide enough to leave the central half-box
        cfg = SimConfig(n=32, box_length=20.0, beta=1.0, dt=0.05, t_end=0.5,
                        eps=0.5, init="pair", init_width=2.5, output_stride=2)
        return run(cfg)

    def test_weighted_series_matches_checkpoints(self, contaminated_run):
        flags = weighted_norm_series(contaminated_run)
        assert flags == [False] * len(contaminated_run.checkpoints) and len(flags) == 6
        for rep, (t, prof) in zip(contaminated_run.reports, contaminated_run.checkpoints):
            weighted2, weighted3, central = weighted_profile_norm(prof.field)
            assert rep.t == t
            assert (rep.weighted2, rep.weighted3) == (weighted2, weighted3)
            assert rep.fhat_sup2 == fhat_sup_weighted(prof.field)
            assert central < 0.99 and rep.warnings == [
                f"boundary contamination: <99% mass in central half-box at t={t}"]

    def test_transport_lhs_matches_checkpoints(self, contaminated_run):
        rep = linfty_transport_check(contaminated_run)
        beta = contaminated_run.config.beta
        expect = [linf_norm(omega_from_profile(prof, beta))
                  for _, prof in contaminated_run.checkpoints]
        assert rep.lhs.tolist() == expect

    def test_transport_reads_no_checkpoint_field(self, contaminated_run):
        # with every checkpoint field replaced by NaN modes, the check gives
        # the same report: it reads only the reports
        res = contaminated_run
        blank = [(t, Profile(SpectralField2D(prof.field.grid,
                                             np.full_like(prof.field.modes, np.nan)), t))
                 for t, prof in res.checkpoints]
        got = linfty_transport_check(RunResult(res.config, res.reports, blank))
        want = linfty_transport_check(res)
        for name in ("lhs", "rhs", "slack"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.ok == want.ok

    def test_energy_norms_match_vorticity(self, contaminated_run):
        cert = energy_certificate(contaminated_run, 3)
        beta = contaminated_run.config.beta
        expect = [sobolev_norm(omega_from_profile(prof, beta), 3)
                  for _, prof in contaminated_run.checkpoints]
        np.testing.assert_allclose(cert.hk_measured, expect, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("diagnostic", [
        lambda res: energy_certificate(res, 3), linfty_transport_check, weighted_norm_series,
    ], ids=["energy_certificate", "linfty_transport_check", "weighted_norm_series"])
    @pytest.mark.parametrize("drop", ["report", "checkpoint"])
    def test_unpaired_reports_rejected(self, contaminated_run, diagnostic, drop):
        res = contaminated_run
        reports, checkpoints = res.reports, res.checkpoints
        if drop == "report":
            reports = reports[:-1]
        else:
            checkpoints = checkpoints[:-1]
        with pytest.raises(ValueError, match="reports for"):
            diagnostic(RunResult(res.config, reports, checkpoints))


class TestProfileSup:
    def test_single_mode_value(self):
        g = Grid2D(32, 2 * np.pi)
        modes = np.zeros(g.half_shape, dtype=complex)
        modes[2, 0] = 0.7    # |xi| = 2
        assert fhat_sup_weighted(SpectralField2D(g, modes)) == pytest.approx(4.0 * 0.7)

    def test_linear_invariance(self, linear_run):
        vals = [fhat_sup_weighted(prof.field) for _, prof in linear_run.checkpoints]
        assert np.ptp(vals) < 1e-12 * vals[0]


class TestDoublingTime:
    def test_interpolated(self):
        t = doubling_time([0, 1, 2], [1.0, 1.5, 2.5], t_end=2.0)
        assert 1.0 < t < 2.0

    def test_censored(self):
        assert doubling_time([0, 1, 2], [1.0, 1.1, 1.2], t_end=10.0) == 10.0


class TestBootstrap:
    def test_condition1_margin_is_direct_arithmetic(self):
        p = BootstrapParams(M=1.0, k=4.0, eps=1e-8, mu=0.1)
        margins = bootstrap_conditions(p)
        # cond1 in log space: (1/2 - 1)*log(eps) + M c(k) eps^(1/8) log(eps)
        log_eps = np.log(1e-8)
        expect = 0.5 * log_eps - (1.0 - 1.0 * 2.0 ** 8 * 1e-1) * log_eps
        assert margins["cond1"] == pytest.approx(expect, rel=1e-12)
        # and its sign agrees with M c(k) eps^(1/8) <= 1/2
        satisfied = 1.0 * 2.0 ** 8 * 1e-1 <= 0.5
        assert (margins["cond1"] >= 0) == satisfied

    def test_condition1_eventually_true(self):
        k, M, mu = 6.0, 1.0, 0.1
        assert bootstrap_conditions(BootstrapParams(M, k, 1e-2, mu))["cond1"] < 0
        assert bootstrap_conditions(BootstrapParams(M, k, 1e-40, mu))["cond1"] > 0

    def test_search_feasible_at_m1(self):
        params = bootstrap_search(1.0)
        assert params is not None
        feasible, report = bootstrap_feasibility(params)
        assert feasible
        assert all(report[f"cond{i}"]["satisfied"] for i in (1, 2, 3, 4))

    def test_shortcut_only_above_32m(self):
        _, rep_small = bootstrap_feasibility(BootstrapParams(1.0, 16.0, 1e-60, 0.1))
        assert "shortcut_k_gt_32M" not in rep_small
        _, rep_large = bootstrap_feasibility(BootstrapParams(1.0, 40.0, 1e-60, 0.1))
        assert "shortcut_k_gt_32M" in rep_large

    @settings(max_examples=60, deadline=None)
    @given(M=st.floats(0.5, 3.0), k=st.floats(1.0, 80.0), mu=st.floats(0.02, 0.9),
           l1=st.floats(-150.0, -0.5), dl=st.floats(-80.0, -0.5))
    def test_monotone_in_eps(self, M, k, mu, l1, dl):
        a = bootstrap_conditions(BootstrapParams(M, k, 10.0 ** l1, mu))
        b = bootstrap_conditions(BootstrapParams(M, k, 10.0 ** (l1 + dl), mu))
        for cond in ("cond1", "cond2", "cond3"):
            if a[cond] >= 0:
                assert b[cond] >= 0

    @pytest.mark.parametrize("kwargs", [dict(mu=0.0), dict(mu=1.0),
                                        dict(eps=0.0), dict(k=0.5)])
    def test_invalid_params(self, kwargs):
        base = dict(M=1.0, k=4.0, eps=1e-4, mu=0.2)
        base.update(kwargs)
        with pytest.raises(ValueError):
            BootstrapParams(**base)
