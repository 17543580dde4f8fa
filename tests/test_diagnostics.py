import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    RunResult,
    SimConfig,
    omega_from_profile,
    run,
    velocity_sup_norms,
)
from bplab.spectral import (
    Grid2D,
    Profile,
    SpectralField2D,
    fhat_sup_weighted,
    linf_norm,
    sobolev_norm,
    weighted_profile_norm,
)


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
        w = SpectralField2D(g, np.zeros((16, 16)))
        assert (linf_norm(w),) + velocity_sup_norms(w) == (0.0, 0.0, 0.0)

    def test_single_shell_gradient_relation(self):
        # one Hermitian mode pair at |xi| = k: |Du| ~= |xi| |u| for that wave
        g = Grid2D(32, 2 * np.pi)
        modes = np.zeros((32, 32), dtype=complex)
        modes[2, 0] = 1.0
        modes[-2, 0] = 1.0
        w = SpectralField2D(g, modes)
        u_sup, du_sup = velocity_sup_norms(w)
        assert du_sup == pytest.approx(2.0 * u_sup, rel=1e-10)


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

    def test_requires_checkpoints(self, euler_run):
        cfg = SimConfig(n=16, box_length=10.0, t_end=0.2, dt=0.1,
                        retain_checkpoints=False)
        res = run(cfg)
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
        assert rep.slack.min() >= -rep.tolerance * rep.lhs.max()


class TestWeightedSeries:
    def test_linear_run_constant(self, linear_run):
        rows = weighted_norm_series(linear_run)
        w2 = np.array([r["weighted2"] for r in rows])
        w3 = np.array([r["weighted3"] for r in rows])
        assert np.abs(w2 - w2[0]).max() < 1e-12 * w2[0]
        assert np.abs(w3 - w3[0]).max() < 1e-12 * w3[0]
        assert not any(r["flagged"] for r in rows)

    def test_zero_data(self):
        cfg = SimConfig(n=16, box_length=10.0, dt=0.1, t_end=0.3, eps=0.0,
                        output_stride=1)
        rows = weighted_norm_series(run(cfg))
        assert all(r["weighted2"] == 0.0 and r["weighted3"] == 0.0 for r in rows)


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
        rows = weighted_norm_series(contaminated_run)
        assert len(rows) == len(contaminated_run.checkpoints) == 6
        for row, (t, prof) in zip(rows, contaminated_run.checkpoints):
            warns = []
            assert row["t"] == t
            assert row["weighted2"] == weighted_profile_norm(prof, 2, warns)
            assert row["weighted3"] == weighted_profile_norm(prof, 3)
            assert row["fhat_sup2"] == fhat_sup_weighted(prof)
            assert row["warnings"] == warns and len(warns) == 1

    def test_transport_lhs_matches_checkpoints(self, contaminated_run):
        rep = linfty_transport_check(contaminated_run)
        beta = contaminated_run.config.beta
        expect = [linf_norm(omega_from_profile(prof, beta))
                  for _, prof in contaminated_run.checkpoints]
        assert rep.lhs.tolist() == expect

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
        modes = np.zeros((32, 32), dtype=complex)
        modes[2, 0] = 0.7    # |xi| = 2
        p = Profile(SpectralField2D(g, modes), 0.0)
        assert fhat_sup_weighted(p) == pytest.approx(4.0 * 0.7)

    def test_linear_invariance(self, linear_run):
        vals = [fhat_sup_weighted(prof) for _, prof in linear_run.checkpoints]
        assert np.ptp(vals) < 1e-12 * vals[0]


class TestDoublingTime:
    def test_interpolated(self):
        t = doubling_time([0, 1, 2], [1.0, 1.5, 2.5])
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
