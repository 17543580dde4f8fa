import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab.propagator import (
    apply_semigroup,
    decay_curve,
    free_flow,
    hessian_det,
    norm,
    phase_gradient,
    split_bound,
    split_decay_bound,
    stationary_roots,
    symbol,
    symbol_grad,
    symbol_hess,
)
from bplab import spectral
from bplab.spectral import (
    ConfigurationError,
    Grid2D,
    RealField2D,
    SpectralField2D,
    grid_operators,
    l2_norm,
    linf_norm,
    transform_forward,
    zero_mean,
)


def shell_field(n=128, box_length=80.0, j=0):
    return spectral.shell_field(Grid2D(n, box_length), j)


def random_mean_zero(n=32, box_length=10.0, seed=0):
    g = Grid2D(n, box_length)
    rng = np.random.default_rng(seed)
    return zero_mean(transform_forward(RealField2D(g, rng.normal(size=(n, n)))))


class TestSemigroup:
    def test_identity_at_zero(self):
        f = random_mean_zero(seed=1)
        out = apply_semigroup(f, 0.0)
        assert np.array_equal(out.modes, f.modes)

    def test_group_law(self):
        f = random_mean_zero(seed=2)
        a = apply_semigroup(apply_semigroup(f, 1.3), 2.4)
        b = apply_semigroup(f, 3.7)
        assert np.abs(a.modes - b.modes).max() < 1e-12

    def test_inverse(self):
        f = random_mean_zero(seed=3)
        back = apply_semigroup(apply_semigroup(f, 5.0), -5.0)
        assert np.abs(back.modes - f.modes).max() < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(-100, 100, allow_nan=False), seed=st.integers(0, 1000))
    def test_unitarity(self, t, seed):
        f = random_mean_zero(seed=seed)
        assert l2_norm(apply_semigroup(f, t)) == pytest.approx(l2_norm(f), rel=1e-13)

    def test_commutes_with_multipliers(self):
        f = random_mean_zero(seed=4)
        k1 = grid_operators(f.grid).k1
        deriv_then_flow = apply_semigroup(SpectralField2D(f.grid, 1j * k1 * f.modes), 2.0)
        flow_then_deriv = apply_semigroup(f, 2.0)
        flow_then_deriv = SpectralField2D(f.grid, 1j * k1 * flow_then_deriv.modes)
        diff = np.abs(deriv_then_flow.modes - flow_then_deriv.modes).max()
        assert diff < 1e-15 * np.abs(deriv_then_flow.modes).max()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_time_past_float64_phase_refused(self, sign):
        # the largest |xi1|/|xi|^2 is 1/dxi, so from |t|/dxi = 2^53 on float64
        # holds no digit of the phase; the refusal names t as a float
        g = Grid2D(16, 20.0)
        edge = 2.0 ** 53 * g.dxi
        assert np.all(np.isfinite(free_flow(g, sign * np.nextafter(edge, 0.0))))
        for t in (edge, np.float64(1e308), np.inf, np.nan):
            with pytest.raises(ConfigurationError, match=re.escape(f"t={float(sign * t)!r} at L=20.0")):
                free_flow(g, sign * t)


class TestSymbol:
    """g(v) = v1/|v|^2 with its gradient and Hessian against central differences."""

    @staticmethod
    def points(seed, n=50):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-2, 2, (n, 2))
        return v[np.linalg.norm(v, axis=-1) > 0.3]

    def test_gradient_finite_differences(self):
        v = self.points(20)
        h = 1e-6
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd = (symbol(v + e) - symbol(v - e)) / (2 * h)
            assert np.allclose(symbol_grad(v)[:, a], fd, rtol=1e-6, atol=1e-8)

    def test_hessian_finite_differences(self):
        v = self.points(21)
        h = 1e-5
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd = (symbol_grad(v + e) - symbol_grad(v - e)) / (2 * h)
            assert np.allclose(symbol_hess(v)[:, :, a], fd, rtol=1e-5, atol=1e-7)

    def test_hessian_symmetric_trace_free_with_closed_form_det(self):
        v = self.points(22)
        hess = symbol_hess(v)
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))
        assert np.abs(np.trace(hess, axis1=-2, axis2=-1)).max() < 1e-12 * np.abs(hess).max()
        dets = np.linalg.det(-hess)
        ref = np.array([hessian_det(p) for p in v])
        assert np.abs(dets - ref).max() < 1e-12 * np.abs(ref).max()

    def test_any_leading_shape(self):
        # one point, a batch of points and a grid of points give the same values
        v = self.points(23)
        for fn in (symbol, symbol_grad, symbol_hess):
            batch = fn(v)
            assert np.allclose(fn(v.reshape(-1, 1, 2))[:, 0], batch, rtol=1e-14, atol=0)
            for i in (0, len(v) - 1):
                assert np.shape(fn(v[i])) == batch.shape[1:]
                assert np.allclose(fn(v[i]), batch[i], rtol=1e-14, atol=0)


def _float_neighbours(r, steps):
    """The float `steps` steps below r and the one `steps` steps above it."""
    lo = hi = r
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return Fraction(lo), Fraction(hi)


class TestNorm:
    """The length rule: vectorised sqrt(v1 v1 + v2 v2), np.hypot where the
    length is zero, not finite or outside [2^-450, 2^450]."""

    @staticmethod
    def samples(seed, n=1000):
        """Log-uniform lengths over [2^-440, 2^440]: n at uniform angles and
        n with the smaller component 2^-60 to 1 times the larger."""
        rng = np.random.default_rng(seed)
        mag = 2.0 ** rng.uniform(-440, 440, (2, n))
        th = rng.uniform(-np.pi, np.pi, n)
        skew = 2.0 ** rng.uniform(-60, 0, n) * rng.choice([-1.0, 1.0], n)
        return np.concatenate([np.stack([mag[0] * np.cos(th), mag[0] * np.sin(th)], -1),
                               np.stack([mag[1], mag[1] * skew], -1)])

    def test_within_one_ulp_of_exact(self):
        # exact arithmetic on the squared length s: a length l lies in [a, b]
        # iff a^2 <= s <= b^2. Each result is the correctly rounded length or
        # a float next to it, and within the classical 2u relative bound of
        # float sqrt(x^2 + y^2) (u = 2^-53); the error from the exact length
        # passes one ulp, by up to a tenth, on about 0.05% of lengths.
        v = self.samples(40)
        two_u = Fraction(1, 2 ** 52)
        for (x, y), r in zip(v.tolist(), norm(v).tolist()):
            s = Fraction(x) ** 2 + Fraction(y) ** 2
            lo2, hi2 = _float_neighbours(r, 2)
            lo1, hi1 = _float_neighbours(r, 1)
            assert ((lo2 + lo1) / 2) ** 2 <= s <= ((hi1 + hi2) / 2) ** 2
            assert (Fraction(r) / (1 + two_u)) ** 2 <= s <= (Fraction(r) / (1 - two_u)) ** 2

    @staticmethod
    def near_edges(seed, n=200):
        """Lengths just past 2^450 and just short of 2^-450, at uniform angles."""
        th = np.random.default_rng(seed).uniform(-np.pi, np.pi, n)
        unit = np.stack([np.cos(th), np.sin(th)], -1)
        return np.concatenate([unit * 2.0 ** 450 * (1 + 2.0 ** -10),
                               unit * 2.0 ** -450 * (1 - 2.0 ** -10)])

    def test_hypot_where_guarded(self):
        edges = self.near_edges(41)
        with np.errstate(over="ignore", under="ignore"):
            naive = np.sqrt(edges[:, 0] ** 2 + edges[:, 1] ** 2)
        # the sample tells the two rules apart
        assert np.any(naive != np.hypot(edges[:, 0], edges[:, 1]))
        v = np.concatenate([edges, [(1e308, 1e308), (-1e308, 1e308), (5e-324, 5e-324),
                                    (0.0, 0.0), (-0.0, 0.0), (np.inf, 1.0), (-np.inf, 1.0),
                                    (np.inf, np.nan), (1.0, np.nan), (np.nan, np.nan)]])
        want = np.hypot(v[:, 0], v[:, 1])
        assert np.array_equal(norm(v).view(np.uint64), want.view(np.uint64))
        for row, w in zip(v, want):
            assert np.array_equal(norm(row).view(np.uint64), w.view(np.uint64))

    def test_shape_contract(self):
        v = self.samples(42, n=12)
        flat = norm(v)
        assert flat.shape == (24,) and flat.dtype == np.float64
        assert np.array_equal(norm(v.reshape(4, 6, 2)), flat.reshape(4, 6))
        one = norm(v[5])
        assert np.ndim(one) == 0 and one == flat[5]
        assert norm([3, 4]) == 5.0 and norm(np.array([3, 4])) == 5.0
        assert np.array_equal(norm([[3, 4], [5, 12]]), [5.0, 13.0])
        assert norm(np.empty((0, 2))).shape == (0,)

    def test_no_runtime_warning(self):
        v = np.concatenate([self.samples(43), self.near_edges(43),
                            [(1e308, 1e308), (5e-324, 5e-324), (0.0, 0.0),
                             (np.inf, np.nan), (np.nan, 1.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm(v)
            for row in v[-5:]:
                norm(row)


def per_point_roots(v, shell=(0.25, 4.0)):
    """Oracle: the damped Newton polish run on one x/t at a time."""
    v = np.asarray(v, dtype=float)
    vn = np.linalg.norm(v)
    if vn == 0.0:
        return []
    r = vn ** -0.5
    if not (shell[0] <= r <= shell[1]):
        return []
    half = 0.5 * np.arctan2(-v[1], -v[0])
    roots = []
    for theta in (half, half + np.pi):
        xi = r * np.array([np.cos(theta), np.sin(theta)])
        for _ in range(50):
            g = phase_gradient(v, xi)
            if np.linalg.norm(g) < 1e-13:
                break
            step = np.linalg.solve(-symbol_hess(xi), g)
            scale = 1.0
            while np.linalg.norm(xi - scale * step) < shell[0] / 2:
                scale *= 0.5
            xi = xi - scale * step
        if np.linalg.norm(phase_gradient(v, xi)) < 1e-10 and \
                shell[0] <= np.linalg.norm(xi) <= shell[1]:
            roots.append(xi)
    return roots


def directions(seed, n, lo=1 / 64, hi=64):
    """x/t with |x/t| log-uniform over [lo, hi]; the default spans the
    default shell's [1/16, 16] and beyond it on both sides."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    th = rng.uniform(-np.pi, np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


class TestStationaryPhase:
    EDGES = [(1 / 16, 0.0), (0.0, -1 / 16), (16.0, 0.0), (0.0, 16.0), (-1.0, 0.0),
             (0.0, 0.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0)]

    def test_batch_matches_per_point_oracle(self):
        vs = np.concatenate([directions(30, 10_000 - len(self.EDGES)), self.EDGES])
        roots, found = stationary_roots(vs)
        assert roots.shape == (len(vs), 2, 2) and found.shape == (len(vs), 2)
        self.assert_matches_oracle(vs, roots, found)
        # both inside the shell and outside it are exercised
        counts = found.sum(-1)
        assert (counts == 2).sum() > 1000 and (counts == 0).sum() > 1000
        assert not found[-4:].any()                      # zero and non-finite x/t

    @staticmethod
    def assert_matches_oracle(vs, roots, found):
        for v, rr, ff in zip(vs, roots, found):
            want = per_point_roots(v)
            assert len(want) == ff.sum()
            for a, b in zip(want, rr[ff]):
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)

    def test_any_leading_shape(self):
        # one point, a batch of points and a grid of points give the same values
        vs = directions(31, 24)
        roots, found = stationary_roots(vs)
        grid_roots, grid_found = stationary_roots(vs.reshape(4, 6, 2))
        assert np.array_equal(grid_found.reshape(24, 2), found)
        assert np.array_equal(grid_roots.reshape(24, 2, 2), roots, equal_nan=True)
        for v, rr, ff in zip(vs, roots, found):
            one_roots, one_found = stationary_roots(v)
            assert one_roots.shape == (2, 2) and one_found.shape == (2,)
            assert np.array_equal(one_found, ff)
            assert np.array_equal(one_roots, rr, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1 / 16, 16), st.floats(-np.pi, np.pi))
    def test_found_roots_are_stationary(self, rho, angle):
        v = rho * np.array([np.cos(angle), np.sin(angle)])
        roots, found = stationary_roots(v)
        for xi in roots[found]:
            assert np.linalg.norm(phase_gradient(v, xi)) < 1e-10
            assert abs(np.linalg.norm(xi) - np.linalg.norm(v) ** -0.5) \
                <= 1e-12 * np.linalg.norm(xi)
            assert hessian_det(xi) < 0.0
        if found.all():
            assert np.linalg.norm(roots[0] + roots[1]) <= 1e-12 * np.linalg.norm(roots[0])

    def test_axis_example(self):
        roots, found = stationary_roots((-1.0, 0.0))
        got = sorted(tuple(np.round(r, 10)) for r in roots[found])
        assert got == [(-1.0, 0.0), (1.0, 0.0)]

    def test_residuals_and_count(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            v = rng.normal(size=2) * rng.choice([0.1, 1.0, 10.0])
            if np.linalg.norm(v) == 0:
                continue
            roots, found = stationary_roots(v)
            assert len(roots[found]) <= 4
            for xi in roots[found]:
                assert np.linalg.norm(phase_gradient(v, xi)) < 1e-10
                assert hessian_det(xi) < 0.0

    def test_empty_outside_shell(self):
        # |root| = |v|^(-1/2); v tiny or huge pushes it out of [1/4, 4]
        for v in ((1e-6, 0.0), (1e6, 0.0), (0.0, 0.0)):
            roots, found = stationary_roots(v)
            assert roots[found].size == 0

    def test_hessian_det_values(self):
        assert hessian_det((1.0, 0.0)) == pytest.approx(-4.0)
        assert hessian_det((0.0, 2.0)) == pytest.approx(-0.0625)
        with pytest.raises(ValueError):
            hessian_det((0.0, 0.0))
        # a (..., 2) batch gives each point's value, and one xi = 0 refuses it
        batch = np.array([[[1.0, 0.0], [0.0, 2.0]], [[3.0, -4.0], [0.5, 0.5]]])
        assert hessian_det(batch).tolist() == [[hessian_det(p) for p in row] for row in batch]
        with pytest.raises(ValueError):
            hessian_det(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_hessian_det_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            xi = rng.uniform(-2, 2, 2)
            if np.linalg.norm(xi) < 0.3:
                continue
            eps = 1e-5
            fd = np.zeros((2, 2))
            for a in range(2):
                e = np.zeros(2)
                e[a] = eps
                fd[:, a] = (phase_gradient((0, 0), xi + e)
                            - phase_gradient((0, 0), xi - e)) / (2 * eps)
            ref = hessian_det(xi)
            assert abs(np.linalg.det(fd) - ref) / abs(ref) < 1e-6


class TestDecayCurve:
    def test_shell_exponent(self):
        times = np.geomspace(10.0, 100.0, 6)
        fit = decay_curve(shell_field(256, 200.0), times)
        assert -1.15 <= fit.exponent <= -0.85
        assert np.isfinite(fit.c_emp)

    def test_linearity(self):
        f = shell_field(128, 100.0)
        times = np.geomspace(10.0, 40.0, 4)
        fit1 = decay_curve(f, times)
        fit5 = decay_curve(SpectralField2D(f.grid, 5.0 * f.modes), times)
        assert fit5.exponent == pytest.approx(fit1.exponent, abs=1e-9)
        assert fit5.constant == pytest.approx(5.0 * fit1.constant, rel=1e-9)

    def test_bad_times_rejected(self):
        f = shell_field(64, 50.0)
        for times in ([5.0], [3.0, 2.0], [-1.0, 2.0], [1.0, 1.0]):
            with pytest.raises(ConfigurationError):
                decay_curve(f, times)


class TestSplitBound:
    def test_mu_half_constants(self):
        inv_p, amp = split_bound(0.5)
        assert inv_p == pytest.approx(5.0 / 6.0)
        assert amp == pytest.approx(0.5 ** (-1.0 / 18.0))

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.2, 1.5])
    def test_mu_domain(self, mu):
        with pytest.raises(ValueError):
            split_bound(mu)

    def test_extreme_splits_are_worse(self):
        # the high term blows up as N -> 0 and the low term as N -> infinity,
        # so a moderate split frequency beats both extremes
        f = shell_field(64, 50.0)
        mid, = split_decay_bound(f, [10.0], 4.0, 0.5, 3)
        assert split_decay_bound(f, [10.0], 1e-3, 0.5, 3)[0] > mid
        assert split_decay_bound(f, [10.0], 1e6, 0.5, 3)[0] > mid

    def test_amplitude_blows_up_small_mu(self):
        assert split_bound(1e-6)[1] > split_bound(0.1)[1] > 1.0

    def test_bound_dominates_measured(self):
        # measured sup over bound stays below one fixed constant at both times
        g = Grid2D(128, 80.0)
        x = g.x_coords()
        X, Y = np.meshgrid(x, x, indexing="ij")
        r2 = X ** 2 + Y ** 2
        f = zero_mean(transform_forward(RealField2D(g, (1 - r2 / 2) * np.exp(-r2 / 2))))
        ratios = []
        for t in (10.0, 100.0):
            measured = linf_norm(apply_semigroup(f, t))
            bound, = split_decay_bound(f, [t], 4.0, 0.5, 2)
            ratios.append(measured / bound)
        assert max(ratios) < 10.0
