"""End-to-end acceptance gate.

Each test runs one numbered criterion, prints its one-line verdict, and fails
if the verdict is FAIL. The slow simulation-backed criteria dominate the
suite's wall time; run this file alone with `pytest tests/test_acceptance.py -s`
to watch the verdict lines as they complete.
"""

import numpy as np
import pytest

from bplab import acceptance, propagator, resonance, solver

SEED = 0


def _check(result):
    print()
    print(result.summary_line())
    assert result.passed, result.details


def test_criterion_01_dispersive_decay_rate():
    _check(acceptance.criterion_1(SEED))


def test_criterion_02_stationary_phase_geometry():
    _check(acceptance.criterion_2(SEED))


def test_criterion_03_solver_correctness():
    _check(acceptance.criterion_3(SEED))


def test_criterion_04_energy_certificate():
    _check(acceptance.criterion_4(SEED))


def test_criterion_05_longevity_trend():
    result = acceptance.criterion_5(SEED)
    _check(result)
    d = result.details
    # one flag per epsilon, set where doubling_time fell back to t_end = 50
    assert d["censored"] == [t == 50.0 for t in d["t_double"]]
    assert 0.0 < d["h4_excess"][-1] <= d["h4_excess"][0]
    slope = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(d["h4_excess"]), 1)[0]
    assert d["excess_order"] == slope


def test_criterion_06_resonance_identities():
    _check(acceptance.criterion_6(SEED))


def test_criterion_07_region_bounds_certified():
    _check(acceptance.criterion_7(SEED))


def test_criterion_08_null_form_convolution():
    _check(acceptance.criterion_8(SEED))


class TestPlantedOracleBugs:
    """A sign drift between the free flow and the resonance phase fails
    criterion 8 at t != 0 (oracle_err_t) and leaves t = 0 (oracle_err) passing."""

    @pytest.mark.parametrize("plant", ["phase-sign", "free-flow-backwards"])
    def test_sign_flip_fails(self, monkeypatch, plant):
        if plant == "phase-sign":
            phase_arr = resonance.phase_arr
            monkeypatch.setattr(resonance, "phase_arr", lambda xi, eta: -phase_arr(xi, eta))
        else:
            free_flow = propagator.free_flow
            monkeypatch.setattr(propagator, "free_flow", lambda grid, t: free_flow(grid, -t))
        result = acceptance.criterion_8(SEED)
        assert not result.passed
        assert result.details["oracle_err"] < 1e-10
        assert result.details["oracle_err_t"] > 0.1


def test_criterion_09_scaling_covariance():
    _check(acceptance.criterion_9(SEED))


def test_criterion_10_transport_inequality():
    _check(acceptance.criterion_10(SEED))


def test_criterion_11_bootstrap_feasibility():
    _check(acceptance.criterion_11(SEED))


def test_run_all_selects_by_index(monkeypatch):
    # the index that @_criterion sets, not the position in ALL_CRITERIA,
    # decides which criterion runs
    real = acceptance.ALL_CRITERIA
    assert [fn.index for fn in real] == list(range(1, 12))
    stubs = [acceptance._criterion(k, f"stub {k}")(lambda seed: (True, {})) for k in range(1, 12)]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs[::-1])
    for k in range(1, 12):
        assert [(r.index, r.name) for r in acceptance.run_all(only={k})] == [(k, f"stub {k}")]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", real[::-1])
    assert [r.name for r in acceptance.run_all(only={8})] == ["null structure"]


def test_criterion_decorator_names_and_times():
    @acceptance._criterion(12, "toy")
    def toy(seed=0):
        """Toy criterion."""
        return seed == 3, {"seed": seed}

    result = toy(3)
    assert (result.index, result.name, result.passed, result.details) == (12, "toy", True,
                                                                          {"seed": 3})
    assert result.elapsed >= 0.0 and toy.__doc__ == "Toy criterion."
    assert not toy().passed


@pytest.mark.parametrize("criterion, extra", [
    (acceptance.criterion_3, {}), (acceptance.criterion_4, {}),
    (acceptance.criterion_5, {"eps": 0.2}), (acceptance.criterion_9, {}),
    (acceptance.criterion_10, {}),
], ids=["3", "4", "5", "9", "10"])
def test_solver_criteria_fail_on_an_aborted_run(monkeypatch, criterion, extra):
    # a run that aborts fails its criterion at once, with the reason (and
    # criterion 5's eps) as the details
    def aborted(cfg, dump_path=None):
        return solver.RunResult(cfg, [], [], "NaN at step 4")

    monkeypatch.setattr(solver, "run", aborted)
    result = criterion(SEED)
    assert not result.passed
    assert result.details == {"abort": "NaN at step 4", **extra}
