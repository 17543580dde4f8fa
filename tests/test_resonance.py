import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bplab import resonance
from bplab.cli import EXIT_RUNTIME, main
from bplab.resonance import (
    BoundCheckReport,
    FreqPair,
    Region,
    annulus,
    certify_bound,
    classify_region,
    grad_eta_arr,
    grad_phase_magnitudes_arr,
    grad_xi_arr,
    norm,
    null_form,
    phase_arr,
    resonance_probe,
)
from bplab.spectral import InputError
from certify_oracle import classify_codes, whole_batch_certify

coords = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def valid_pairs(draw):
    xi = np.array([draw(coords), draw(coords)])
    eta = np.array([draw(coords), draw(coords)])
    assume(np.linalg.norm(xi) > 1e-3)
    assume(np.linalg.norm(eta) > 1e-3)
    assume(np.linalg.norm(xi - eta) > 1e-3)
    return FreqPair(tuple(xi), tuple(eta))


@st.composite
def region_pairs(draw):
    """Pairs across the regions: |xi|/|eta| from 1e-3 to 1e3, xi within
    1e-5 .. 1e-2 |eta| of 2 eta (where Cases 1 and 2 meet), and Case 2 with
    eta near the eta2-axis and |xi1| near |eta1|/100 (where a and b meet)."""
    eta = np.array([draw(coords), draw(coords)])
    kind = draw(st.sampled_from(["ratio", "near_2eta", "subcase"]))
    if kind == "subcase":
        eta[0] = eta[1] * 10.0 ** draw(st.floats(-6.0, -3.5))
        xi = np.array([eta[0] * draw(st.floats(-0.02, 0.02)), 2.0 * eta[1]])
    else:
        th = draw(st.floats(-np.pi, np.pi))
        unit = np.linalg.norm(eta) * np.array([np.cos(th), np.sin(th)])
        xi = 10.0 ** draw(st.floats(-3.0, 3.0)) * unit if kind == "ratio" else \
            2.0 * eta + 10.0 ** draw(st.floats(-5.0, -2.0)) * unit
    assume(min(np.linalg.norm(v) for v in (xi, eta, xi - eta)) > 1e-3)
    return FreqPair(tuple(xi), tuple(eta))


@st.composite
def pair_batches(draw):
    """A batch of 1 to 32 pairs as two (k, 2) arrays xi and eta, with xi, eta
    and xi - eta each longer than 1e-3."""
    rows = np.array(draw(st.lists(st.tuples(coords, coords, coords, coords),
                                  min_size=1, max_size=32)))
    xi, eta = rows[:, :2], rows[:, 2:]
    keep = np.minimum.reduce([norm(xi), norm(eta), norm(xi - eta)]) > 1e-3
    assume(keep.any())
    return xi[keep], eta[keep]


class TestFreqPair:
    @pytest.mark.parametrize("xi,eta", [((0.0, 0.0), (1.0, 0.0)),
                                        ((1.0, 0.0), (0.0, 0.0)),
                                        ((1.0, 2.0), (1.0, 2.0))])
    def test_singular_inputs_rejected(self, xi, eta):
        with pytest.raises(InputError):
            FreqPair(xi, eta)

    def test_valid(self):
        p = FreqPair((1.0, 0.0), (0.0, 1.0))
        assert p.xi == (1.0, 0.0)

    @pytest.mark.parametrize("xi,eta", [((1e308, 1e308), (-1e308, -1e308)),
                                        ((1e306, 0.0), (0.0, 1e306)),
                                        ((1e308, 0.0), (-0.7e308, 0.0))])
    def test_lengths_past_float64_refused(self, xi, eta):
        # a compared length overflows: xi - eta; 10^4 |eta|; 100 |eta| and
        # xi - 2 eta. Refused with no RuntimeWarning, which tier-1 makes an error
        with pytest.raises(InputError, match="not finite in float64"):
            FreqPair(xi, eta)


class TestPhase:
    def test_spacetime_resonance_zero(self):
        assert phase_arr(np.array([0.0, 2.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert phase_arr(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == pytest.approx(1.5)

    @settings(max_examples=100, deadline=None)
    @given(p=valid_pairs())
    def test_symmetry_under_swap(self, p):
        xi, eta = np.asarray(p.xi), np.asarray(p.eta)
        phi = phase_arr(xi, eta)
        scale = max(abs(phi), 1.0 / min(np.linalg.norm(eta), np.linalg.norm(xi - eta)) ** 2)
        assert abs(phi - phase_arr(xi, xi - eta)) < 1e-13 * scale


class TestNullForm:
    def test_parallel_zero(self):
        assert null_form(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_perp_convention(self):
        # eta_perp = (-eta2, eta1): (0, 1).(0, 1) = 1
        assert null_form(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 1.0

    def test_batch_is_pointwise(self):
        # each entry of a (2, 3) batch of pairs is the form at that pair alone
        xi, eta = np.random.default_rng(3).normal(size=(2, 2, 3, 2))
        m = null_form(xi, eta)
        assert m.shape == (2, 3)
        assert all(m[i] == null_form(xi[i], eta[i]) for i in np.ndindex(2, 3))

    @settings(max_examples=100, deadline=None)
    @given(batch=pair_batches())
    def test_pointwise_bound(self, batch):
        # |m| <= min(|xi|, |xi - 2 eta|)/|eta| via xi.eta_perp = (xi-2eta).eta_perp
        xi, eta = batch
        bound = np.minimum(norm(xi), norm(xi - 2 * eta)) / norm(eta)
        assert np.all(np.abs(null_form(xi, eta)) <= bound * (1 + 1e-12))


class TestGradPhase:
    def test_space_resonance(self):
        for eta in (np.array([0.3, -1.2]), np.array([2.0, 0.0])):
            assert np.linalg.norm(grad_eta_arr(2 * eta, eta)) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(p=valid_pairs())
    def test_magnitude_identities(self, p):
        xi, eta = np.asarray(p.xi), np.asarray(p.eta)
        ix, ie = grad_phase_magnitudes_arr(xi, eta)
        assert np.linalg.norm(grad_xi_arr(xi, eta)) == pytest.approx(ix, rel=1e-12, abs=1e-300)
        assert np.linalg.norm(grad_eta_arr(xi, eta)) == pytest.approx(ie, rel=1e-12, abs=1e-300)

    def test_finite_differences(self):
        xi = np.array([0.7, -0.3])
        eta = np.array([1.2, 0.5])
        gx, ge = grad_xi_arr(xi, eta), grad_eta_arr(xi, eta)
        h = 1e-6
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            assert gx[a] == pytest.approx(
                (phase_arr(xi + e, eta) - phase_arr(xi - e, eta)) / (2 * h), rel=1e-6)
            assert ge[a] == pytest.approx(
                (phase_arr(xi, eta + e) - phase_arr(xi, eta - e)) / (2 * h), rel=1e-6)


class TestClassifyRegion:
    def test_spacetime_resonance_is_case2a(self):
        # eta1 = 0 makes the strict subcase-B test false, so the >= branch wins
        label = classify_region(FreqPair((0.0, 2.0), (0.0, 1.0)))
        assert label.region == Region.R1_CASE2A

    def test_r2(self):
        assert classify_region(FreqPair((1.0, 0.0), (200.0, 0.0))).region == Region.R2

    def test_r3(self):
        assert classify_region(FreqPair((200.0, 0.0), (1.0, 0.0))).region == Region.R3

    def test_case1(self):
        label = classify_region(FreqPair((1.0, 1.0), (1.0, 0.0)))
        assert label.region == Region.R1_CASE1
        assert label.margins["case1"] > 0

    def test_swap_normalization_recorded(self):
        # |eta| > |xi - eta| triggers the change of variables
        label = classify_region(FreqPair((1.0, 1.0), (5.0, 5.0)))
        assert label.swapped

    @settings(max_examples=300, deadline=None)
    @given(p=region_pairs())
    def test_region_agrees_with_margins_and_oracle(self, p):
        label = classify_region(p)
        holds = {name: m >= 0.0 for name, m in label.margins.items()}
        if all(holds[name] for name in ("r1_lower", "r1_upper", "r1_diff_lower",
                                        "r1_diff_upper")):
            want = Region.R1_CASE1 if holds["case1"] else \
                Region.R1_CASE2A if holds["subcase_a"] else Region.R1_CASE2B
        else:
            want = Region.R2 if holds["r2"] else \
                Region.R3 if holds["r3"] else Region.UNCLASSIFIED
        assert label.region == want
        codes, _ = classify_codes(np.array([p.xi]), np.array([p.eta]))
        assert label.region == list(Region)[codes[0]]

    @settings(max_examples=100, deadline=None)
    @given(p=valid_pairs())
    def test_total_and_deterministic(self, p):
        a = classify_region(p)
        b = classify_region(p)
        assert a.region == b.region
        assert a.region in Region


class TestCertifyBound:
    @pytest.mark.parametrize("iid", list("abcdef"))
    def test_zero_violations_small(self, iid):
        rep = certify_bound(iid, 10_000, seed=42)
        assert isinstance(rep, BoundCheckReport)
        assert rep.samples == 10_000
        assert rep.violations == 0
        assert rep.worst_margin >= 0.0

    def test_ratio_range_for_d(self):
        rep = certify_bound("d", 10_000, seed=7)
        assert 0.5 <= rep.constant_min <= rep.empirical_constant <= 4.0

    def test_no_ratio_range_without_ratios(self):
        rep = certify_bound("a", 10_000, seed=7)
        assert np.isnan(rep.constant_min) and np.isnan(rep.empirical_constant)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            certify_bound("z", 10_000)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            certify_bound("a", 100)

    def test_deterministic_per_seed(self):
        a = certify_bound("d", 10_000, seed=5)
        b = certify_bound("d", 10_000, seed=5)
        assert a == b


class TestChunkedCertification:
    """certify_bound against the whole-batch oracle: 60 000 samples in
    batches of 25 000 span three batches, each ending on a partial chunk,
    and the last one is cut at the n-th accepted sample. Every check is real
    arithmetic, so the report is bitwise the oracle's for any CHUNK."""

    N, BATCH = 60_000, 25_000

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("iid", list("abcdef"))
    def test_matches_whole_batch_oracle(self, iid, seed, monkeypatch):
        monkeypatch.setattr(resonance, "BATCH", self.BATCH)
        want = whole_batch_certify(iid, self.N, seed=seed, batch=self.BATCH)
        fields = ("samples", "violations", "worst_margin", "constant_min",
                  "empirical_constant")
        for chunk in (resonance.CHUNK, 1000):
            monkeypatch.setattr(resonance, "CHUNK", chunk)
            got = certify_bound(iid, self.N, seed=seed)
            assert np.array_equal([getattr(got, f) for f in fields],
                                  [getattr(want, f) for f in fields], equal_nan=True)


def _hypot_norm(v):
    return np.hypot(v[..., 0], v[..., 1])


@pytest.mark.parametrize("iid", list("abcdef"))
def test_length_rule_moves_no_proposal(iid):
    """The length rule and np.hypot lengths put each proposal of one seed's
    first batch in the same region, with the same swap."""
    xi, eta = resonance._REGISTRY[iid][0](np.random.default_rng(0), resonance.BATCH)
    codes, eta_n, _, _ = resonance._classify_masks(xi, eta)
    want_codes, want_eta_n = classify_codes(xi, eta, norm=_hypot_norm)
    assert np.array_equal(codes, want_codes)
    assert np.array_equal(eta_n, want_eta_n)


def _propose_outside(in_region_first):
    """Proposals for id a (Case 2) that all land in R3, xi >> eta, except the
    first of each batch when in_region_first: ((0, 2), (0, 1)), Case 2A."""
    def propose(rng, m):
        xi = np.tile([1e6, 0.0], (m, 1))
        eta = np.tile([0.0, 1.0], (m, 1))
        if in_region_first:
            xi[0] = (0.0, 2.0)
        return xi, eta
    return propose


class TestSamplerStarvation:
    @pytest.fixture
    def patch_a(self, monkeypatch):
        def patch(in_region_first):
            _, codes_ok, check = resonance._REGISTRY["a"]
            monkeypatch.setitem(resonance._REGISTRY, "a",
                                (_propose_outside(in_region_first), codes_ok, check))
        return patch

    def test_none_accepted_in_ten_batches(self, patch_a, monkeypatch):
        patch_a(False)
        monkeypatch.setattr(resonance, "BATCH", 1000)
        with pytest.raises(resonance.SamplerError, match="0/11000 proposals"):
            certify_bound("a", 10_000)

    def test_acceptance_below_minimum(self, patch_a, monkeypatch):
        patch_a(True)
        monkeypatch.setattr(resonance, "BATCH", 1000)
        monkeypatch.setattr(resonance, "MIN_ACCEPTANCE", 0.01)
        with pytest.raises(resonance.SamplerError, match="acceptance 1.00e-03 below"):
            certify_bound("a", 10_000)

    def test_cli_exit_code(self, patch_a, tmp_path, capsys):
        patch_a(False)
        argv = ["resonance", "verify", "--id", "a", "--n", "10000",
                "--out", str(tmp_path / "v.csv")]
        assert main(argv) == EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err


class TestResonanceProbe:
    def test_lambda_grid(self):
        spacetime = resonance_probe([1.0, -3.5, 0.25])
        assert spacetime["lam"].tolist() == [1.0, -3.5, 0.25]
        assert spacetime["abs_phase"].shape == spacetime["grad_eta_norm"].shape == (3,)
        assert spacetime["abs_phase"].max() < 1e-14
        assert spacetime["grad_eta_norm"].max() < 1e-14

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            resonance_probe([0.0])

    def test_space_resonance_iff_xi_is_two_eta(self):
        # grad_eta Phi vanishes exactly on xi = 2 eta and nowhere off it
        rng = np.random.default_rng(0)
        eta, xi = annulus(rng, 1000), annulus(rng, 1000)
        assert norm(grad_eta_arr(2.0 * eta, eta)).max() < 1e-14
        off = (norm(xi - 2.0 * eta) > 1e-6 * norm(eta)) & (norm(xi - eta) > 1e-9)
        assert np.all(norm(grad_eta_arr(xi[off], eta[off])) > 0.0)

    def test_magnitude_positive_off_resonance(self):
        # |xi - 2 eta| = |eta| forces a nonzero eta-gradient
        eta = np.array([0.7, 0.2])
        xi = 2 * eta + np.linalg.norm(eta) * np.array([1.0, 0.0])
        assert np.linalg.norm(grad_eta_arr(xi, eta)) > 0.0
