import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bplab.spectral import (
    ConfigurationError,
    Grid2D,
    InputError,
    RealField2D,
    SpectralField2D,
    besov_norm,
    grid_operators,
    homogeneous_sobolev_norm,
    l2_norm,
    linf_norm,
    lp_bump,
    lp_shell_range,
    mass_inside,
    read_field,
    real_samples,
    require_mean_zero,
    shell_field,
    sobolev_norm,
    transform_forward,
    transform_inverse,
    weighted_profile_norm,
    write_field,
    zero_mean,
)
from bplab.spectral import _lp_shells
from bplab.harness import write_csv
from bplab.solver import NORM_REPORT_COLUMNS, NormReport
from halfspec import full_wavenumbers, hermitian_extension
from lp_oracle import besov_reference, central_mass_fraction, lp_phys_norm, lp_project


def random_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return RealField2D(grid, scale * rng.normal(size=(grid.n, grid.n)))


def gaussian_field(grid, width=1.0):
    x = grid.x_coords()
    X, Y = np.meshgrid(x, x, indexing="ij")
    return RealField2D(grid, np.exp(-(X ** 2 + Y ** 2) / (2.0 * width ** 2)))


class TestGrid:
    def test_wavenumber_spacing(self):
        g = Grid2D(16, 10.0)
        assert g.dxi == pytest.approx(2 * np.pi / 10.0)
        k1 = grid_operators(g).k1
        assert k1[1, 0] - k1[0, 0] == pytest.approx(g.dxi)
        assert g.half_shape == (16, 9)

    @pytest.mark.parametrize("n", [7, 12, 4, 0])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ConfigurationError):
            Grid2D(n, 10.0)

    def test_rejects_nonpositive_box(self):
        with pytest.raises(ConfigurationError):
            Grid2D(16, -1.0)

    def test_x_coords_centered(self):
        g = Grid2D(8, 8.0)
        assert g.x_coords()[0] == -4.0
        assert g.x_coords()[-1] == 3.0

    @pytest.mark.parametrize("box_length", [1e160, 1e-160, 1e300, 1e-300, 5e-324])
    def test_rejects_box_whose_scales_overflow(self, box_length):
        # (2 pi/dx)^2, dx^2/(2 pi)^2 or its square would be inf or 0; at
        # L = 5e-324, dx is 0 and 2 pi/dx divides by zero, without a warning
        with pytest.raises(ConfigurationError, match="not finite and nonzero"):
            Grid2D(64, box_length)

    @pytest.mark.parametrize("box_length", [1e70, 1e-70])
    def test_accepts_box_whose_scales_are_finite(self, box_length):
        assert Grid2D(64, box_length).box_length == box_length


class TestGridOperators:
    def test_equal_grids_share_one_set(self):
        assert grid_operators(Grid2D(32, 10.0)) is grid_operators(Grid2D(32, 10.0))

    def test_values(self):
        # the half spectrum's columns 0 .. n/2 of the whole lattice; the odd
        # factor k1 and the symbol are 0 on the Nyquist row
        g = Grid2D(16, 5.0)
        ops = grid_operators(g)
        k1, k2 = (k[:, :9] for k in full_wavenumbers(g))
        nz = (k1 != 0) | (k2 != 0)
        mag2 = k1 ** 2 + k2 ** 2
        odd1 = np.where(np.arange(16)[:, None] == 8, 0.0, k1)
        assert np.array_equal(np.broadcast_to(ops.k1, (16, 9)), odd1)
        assert np.array_equal(np.broadcast_to(ops.k2, (16, 9)), k2)
        assert np.array_equal(ops.mag2, mag2) and np.array_equal(ops.mag, np.hypot(k1, k2))
        assert ops.inv_mag2[0, 0] == 0.0 and ops.symbol[0, 0] == 0.0
        assert np.allclose(ops.inv_mag2[nz], 1.0 / mag2[nz], rtol=1e-15, atol=0)
        assert np.allclose(ops.symbol[nz], odd1[nz] / mag2[nz], rtol=1e-15, atol=0)
        assert not ops.symbol[8].any()
        assert ops.weight.tolist() == [[1.0] + [2.0] * 7 + [1.0]]
        assert ops.inverse_scale == pytest.approx((2 * np.pi / g.dx) ** 2, rel=1e-15)

    def test_arrays_are_read_only(self):
        g = Grid2D(32, 10.0)
        ops = grid_operators(g)
        for arr in (ops.k1, ops.k2, ops.mag2, ops.mag, ops.inv_mag2, ops.symbol,
                    ops.weight, ops.dealias_mask):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
        sym = ops.symbol
        with pytest.raises(ValueError):
            sym *= 2.0
        assert np.array_equal(grid_operators(g).symbol, sym)


class TestTransforms:
    def test_zero_field(self):
        g = Grid2D(16, 5.0)
        fh = transform_forward(RealField2D(g, np.zeros((16, 16))))
        assert np.all(fh.modes == 0)

    def test_cosine_two_modes(self):
        g = Grid2D(32, 10.0)
        x = g.x_coords()
        f = RealField2D(g, np.cos(2 * np.pi * x / 10.0)[:, None] * np.ones(32))
        fh = transform_forward(f)
        assert fh.modes.shape == (32, 17)
        nz = np.abs(fh.modes) > 1e-12
        assert nz.sum() == 2
        k1, k2 = (k[:, :17] for k in full_wavenumbers(g))
        assert set(np.round(k1[nz] * 10 / (2 * np.pi)).astype(int)) == {-1, 1}
        assert np.allclose(k2[nz], 0.0)

    def test_roundtrip_random(self):
        g = Grid2D(32, 7.0)
        f = random_field(g, seed=1)
        back = transform_inverse(transform_forward(f))
        assert np.abs(back.samples - f.samples).max() < 1e-12

    def test_forward_matches_direct_summation(self):
        # O(n^4) oracle on an 8x8 grid, straight from the definition
        g = Grid2D(8, 3.0)
        f = random_field(g, seed=2)
        fh = transform_forward(f)
        x = g.x_coords()
        k = 2 * np.pi * np.fft.fftfreq(8, d=g.dx)
        expect = np.zeros((8, 8), dtype=complex)
        for a in range(8):
            for b in range(8):
                phase = np.exp(-1j * (k[a] * x[:, None] + k[b] * x[None, :]))
                expect[a, b] = np.sum(f.samples * phase) * g.dx ** 2 / (2 * np.pi) ** 2
        assert np.abs(hermitian_extension(fh.modes) - expect).max() < 1e-12

    def test_parseval(self):
        g = Grid2D(64, 9.0)
        f = random_field(g, seed=3)
        fh = transform_forward(f)
        phys = np.sum(f.samples ** 2) * g.dx ** 2
        spec = (2 * np.pi) ** 2 * np.sum(np.abs(hermitian_extension(fh.modes)) ** 2) * g.dxi ** 2
        assert phys == pytest.approx(spec, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 16])
    def test_real_samples_of_any_spectrum(self, n):
        # a half array with no symmetry at all: the samples are the real field
        # whose spectrum is its Hermitian extension, in FFT order
        g = Grid2D(n, 3.0)
        rng = np.random.default_rng(n)
        modes = rng.normal(size=g.half_shape) + 1j * rng.normal(size=g.half_shape)
        expect = np.fft.ifft2(hermitian_extension(modes)) * (2 * np.pi / g.dx) ** 2
        assert np.abs(expect.imag).max() <= 1e-12 * np.abs(expect).max()
        got = real_samples(SpectralField2D(g, modes))
        assert np.abs(got - expect.real).max() <= 1e-12 * np.abs(expect).max()
        assert np.array_equal(transform_inverse(SpectralField2D(g, modes)).samples,
                              np.fft.fftshift(got))

    def test_rejects_full_spectrum(self):
        g = Grid2D(16, 5.0)
        with pytest.raises(ConfigurationError):
            SpectralField2D(g, np.zeros((16, 16)))

    def test_require_mean_zero(self):
        g = Grid2D(16, 5.0)
        f = transform_forward(RealField2D(g, np.ones((16, 16))))
        with pytest.raises(InputError):
            require_mean_zero(f)
        require_mean_zero(zero_mean(f))


class TestLittlewoodPaley:
    def test_partition_of_unity(self):
        r = np.geomspace(1e-3, 1e3, 4001)
        total = sum(lp_bump(r / 2.0 ** j) for j in range(-14, 14))
        assert np.abs(total - 1.0).max() < 1e-12

    def test_support(self):
        r = np.array([0.49, 0.5, 2.0, 2.01])
        vals = lp_bump(r)
        assert vals[0] == 0.0 and vals[3] == 0.0

    def test_disjoint_shells_annihilate(self):
        g = Grid2D(64, 40.0)
        f = zero_mean(SpectralField2D(g, lp_bump(grid_operators(g).mag)))
        for dj in (2, 3, -2):
            out = lp_project(f, dj)
            assert np.abs(out.modes).max() < 1e-15

    def test_reconstruction(self):
        g = Grid2D(64, 20.0)
        f = zero_mean(transform_forward(random_field(g, seed=4)))
        j_min, j_max = lp_shell_range(g)
        total = sum(lp_project(f, j).modes for j in range(j_min, j_max + 1))
        assert np.abs(total - f.modes).max() < 1e-10 * np.abs(f.modes).max()

    def test_single_mode_weight(self):
        g = Grid2D(32, 2 * np.pi)
        modes = np.zeros(g.half_shape, dtype=complex)
        modes[1, 0] = 1.0   # |xi| = 1 = 2^0
        f = SpectralField2D(g, modes)
        out = lp_project(f, 0)
        assert out.modes[1, 0] == pytest.approx(lp_bump(1.0))
        assert lp_bump(1.0) == pytest.approx(1.0)


class TestNorms:
    def test_sobolev_zero_and_single_mode(self):
        g = Grid2D(32, 2 * np.pi)
        assert sobolev_norm(SpectralField2D(g, np.zeros(g.half_shape)), 3) == 0.0
        # Hermitian pair at |xi| = 1 with unit L2 mass
        modes = np.zeros(g.half_shape, dtype=complex)
        modes[1, 0] = 1.0
        modes[-1, 0] = 1.0
        f = SpectralField2D(g, modes)
        scale = l2_norm(f)
        assert sobolev_norm(f, 1) / scale == pytest.approx(np.sqrt(2.0))

    def test_sobolev_matches_direct_sum(self):
        g = Grid2D(16, 7.0)
        f = transform_forward(random_field(g, seed=5))
        k = 3
        k1, k2 = full_wavenumbers(g)
        mag2 = k1 ** 2 + k2 ** 2
        full = hermitian_extension(f.modes)
        total = 0.0
        for idx in np.ndindex(16, 16):
            total += (1 + mag2[idx]) ** k * abs(full[idx]) ** 2 * g.dxi ** 2
        assert sobolev_norm(f, k) == pytest.approx(2 * np.pi * np.sqrt(total), rel=1e-12)

    def test_sobolev_monotone_in_k(self):
        g = Grid2D(32, 6.0)
        f = transform_forward(random_field(g, seed=6))
        norms = [sobolev_norm(f, k) for k in range(4)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))
        assert norms[0] == pytest.approx(l2_norm(f), rel=1e-13)

    def test_linf_cosine(self):
        g = Grid2D(32, 10.0)
        x = g.x_coords()
        f = transform_forward(RealField2D(g, np.cos(2 * np.pi * x / 10.0)[:, None]
                                          * np.ones(32)))
        assert linf_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_linf_matches_scan(self):
        g = Grid2D(16, 4.0)
        f = random_field(g, seed=7)
        assert linf_norm(transform_forward(f)) == pytest.approx(
            np.abs(f.samples).max(), rel=1e-12)

    def test_besov_zero(self):
        g = Grid2D(32, 10.0)
        assert besov_norm(SpectralField2D(g, np.zeros(g.half_shape))) == 0.0

    def test_besov_single_shell(self):
        # shell-at-j=0 data: only the neighboring bump weights contribute
        g = Grid2D(128, 80.0)
        f = zero_mean(SpectralField2D(g, lp_bump(grid_operators(g).mag)))
        got = besov_norm(f)
        j_min, j_max = lp_shell_range(g)
        expect = sum(2.0 ** (3 * j) * lp_phys_norm(lp_project(f, j), 1.0)
                     for j in range(j_min, j_max + 1))
        assert got == pytest.approx(expect, rel=1e-12)
        # mass confined to shells j in {-1, 0, 1}
        for j in (j_min, j_max):
            assert lp_phys_norm(lp_project(f, j), 1.0) == 0.0


# Past L = 128 pi, dxi falls just below 2^-6 but log2(dxi) rounds to -6, so
# the bottom shell of lp_shell_range keeps a tiny weight at |xi| = dxi; at
# L = 50 it has no mode. The top shell lies an octave past the lattice's
# corner, so it has no mode at any L. _lp_shells keeps only shells with a mode.
BOTTOM_SHELL_FILLED = float(np.nextafter(128 * np.pi, np.inf))


class TestBesovShells:
    def test_equal_grids_share_one_tuple(self):
        assert _lp_shells(Grid2D(32, 10.0)) is _lp_shells(Grid2D(32, 10.0))

    def test_bumps_are_read_only(self):
        for _, bump in _lp_shells(Grid2D(32, 10.0)):
            assert bump.flags.c_contiguous
            with pytest.raises(ValueError):
                bump[0, 0] = 1

    def test_columns_at_n256(self):
        # the low shells fill only the first 2, 4, ..., 64 of the 129 columns;
        # j = -4 and j = 6 of lp_shell_range have no mode and are left out
        shells = _lp_shells(Grid2D(256, 50.0))
        assert [(j, b.shape[1]) for j, b in shells] == [
            (-3, 2), (-2, 4), (-1, 8), (0, 16), (1, 32), (2, 64), (3, 128), (4, 129), (5, 129)]
        assert sum(b.nbytes for _, b in shells) == 1048576

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("box_length", [50.0, BOTTOM_SHELL_FILLED])
    def test_bumps_are_the_cut_full_bumps(self, n, box_length):
        # each bump is lp_bump(|xi|/2^j) up to its last nonzero column, bit
        # for bit; a j of the shell range is left out exactly where its full
        # bump has no mode, and only the ends of the range are
        g = Grid2D(n, box_length)
        mag = grid_operators(g).mag
        j_min, j_max = lp_shell_range(g)
        shells = dict(_lp_shells(g))
        assert list(shells) == sorted(shells)
        for j in range(j_min, j_max + 1):
            full = lp_bump(mag / 2.0 ** j)
            kc = shells[j].shape[1] if j in shells else 0
            assert not full[:, kc:].any()
            if j in shells:
                assert np.array_equal(full[:, :kc], shells[j]) and full[:, kc - 1].any()
        left_out = sorted(set(range(j_min, j_max + 1)) - set(shells))
        assert left_out == ([j_max] if box_length == BOTTOM_SHELL_FILLED else [j_min, j_max])

    @pytest.mark.parametrize("n", [8, 32, 128, 256])
    @pytest.mark.parametrize("box_length", [50.0, 2 * np.pi, BOTTOM_SHELL_FILLED])
    def test_bitwise_equal_to_reference(self, n, box_length):
        g = Grid2D(n, box_length)
        j_min, j_max = lp_shell_range(g)
        fields = [zero_mean(transform_forward(random_field(g, seed=s))) for s in range(2)]
        fields += [shell_field(g, j) for j in range(j_min, j_max + 1, 2)]
        fields.append(SpectralField2D(g, np.zeros(g.half_shape)))
        for f in fields:
            assert besov_norm(f) == besov_reference(f)
        assert besov_norm(fields[-1]) == 0.0


class TestWeightedNorms:
    def test_zero_profile(self):
        g = Grid2D(32, 10.0)
        assert weighted_profile_norm(SpectralField2D(g, np.zeros(g.half_shape))) == \
            (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("l,expect", [(2, np.sqrt(6 * np.pi)),
                                          (3, np.sqrt(24 * np.pi))])
    def test_gaussian_closed_form(self, l, expect):
        # For f = exp(-|x|^2/2): fhat = exp(-|xi|^2/2)/(2 pi), so the norm is
        # 2 pi (int |xi|^(2l) |xi|^2 e^(-|xi|^2) dxi / (2 pi)^2)^(1/2)
        # = (pi Gamma(l+2))^(1/2) by the radial integral.
        g = Grid2D(256, 40.0)
        f = transform_forward(gaussian_field(g))
        assert weighted_profile_norm(f)[l - 2] == pytest.approx(expect, rel=0.01)

    def test_translation_modulation_growth(self):
        # translating by a multiplies fhat by exp(-i a xi1); the weighted norm
        # grows consistently with the extra |a| |xi|^l fhat term
        g = Grid2D(128, 40.0)
        x = g.x_coords()
        X, Y = np.meshgrid(x, x, indexing="ij")
        base = np.exp(-(X ** 2 + Y ** 2) / 2.0)
        a = 3.0
        shifted = np.exp(-((X - a) ** 2 + Y ** 2) / 2.0)
        n0 = weighted_profile_norm(transform_forward(RealField2D(g, base)))[0]
        n1 = weighted_profile_norm(transform_forward(RealField2D(g, shifted)))[0]
        assert n1 > n0
        assert n1 < n0 + 2.0 * a * sobolev_norm(transform_forward(RealField2D(g, base)), 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_mass_inside_matches_oracle(self, seed):
        # natural order with x_coords, and the FFT order of real_samples with
        # the same coordinates in that order
        g = Grid2D(32, 12.0)
        rng = np.random.default_rng(seed)
        f = zero_mean(transform_forward(
            RealField2D(g, rng.normal(size=(32, 32)) * rng.uniform(0.0, 2.0, size=32))))
        want = central_mass_fraction(f)
        x = g.x_coords()
        assert mass_inside(transform_inverse(f).samples, x, g.box_length / 4.0) == \
            pytest.approx(want, rel=1e-12)
        assert mass_inside(real_samples(f), np.fft.ifftshift(x), g.box_length / 4.0) == \
            pytest.approx(want, rel=1e-12)

    def test_mass_inside_edges(self):
        g = Grid2D(16, 8.0)
        x = g.x_coords()
        assert mass_inside(np.zeros((16, 16)), x, 1.0) == 1.0
        # the whole box, and a square holding only the centre sample
        ones = np.ones((16, 16))
        assert mass_inside(ones, x, g.box_length / 2.0) == 1.0
        assert mass_inside(ones, x, 0.0) == 1.0 / 256

    def test_boundary_warning(self):
        g = Grid2D(64, 4.0)     # box too small for the unit Gaussian
        f = transform_forward(gaussian_field(g, width=2.0))
        central = weighted_profile_norm(f)[2]
        assert central < 0.99
        assert central == pytest.approx(central_mass_fraction(f), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-50, max_value=50, allow_nan=False).filter(lambda v: v != 0),
       seed=st.integers(0, 2 ** 16))
def test_norm_homogeneity(c, seed):
    g = Grid2D(16, 6.0)
    f = transform_forward(random_field(g, seed=seed))
    scaled = SpectralField2D(g, c * f.modes)
    for norm in (l2_norm, lambda h: sobolev_norm(h, 2), linf_norm,
                 besov_norm):
        assert norm(scaled) == pytest.approx(abs(c) * norm(f), rel=1e-11, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n=st.sampled_from([8, 16, 32]),
       box=st.floats(1.0, 50.0))
def test_half_spectrum_norms_are_lattice_sums(seed, n, box):
    # each norm on the half spectrum, with its column weights, against the
    # sum over the whole lattice of the complex transform of the samples
    g = Grid2D(n, box)
    x = g.x_coords()
    samples = np.random.default_rng(seed).normal(size=(n, n))
    f = transform_forward(RealField2D(g, samples))
    scale = g.dx ** 2 / (2 * np.pi) ** 2
    full = np.fft.fft2(np.fft.ifftshift(samples)) * scale
    k1, k2 = full_wavenumbers(g)
    mag2 = k1 ** 2 + k2 ** 2

    def lattice_norm(density):
        return 2 * np.pi * np.sqrt(np.sum(density) * g.dxi ** 2)

    parseval = np.sqrt(np.sum(samples ** 2) * g.dx ** 2)
    assert l2_norm(f) == pytest.approx(lattice_norm(np.abs(full) ** 2), rel=1e-12)
    assert l2_norm(f) == pytest.approx(parseval, rel=1e-12)
    assert sobolev_norm(f, 3) == pytest.approx(
        lattice_norm((1 + mag2) ** 3 * np.abs(full) ** 2), rel=1e-12)
    for s in (0.5, 3.0):
        assert homogeneous_sobolev_norm(f, s) == pytest.approx(
            lattice_norm(mag2 ** s * np.abs(full) ** 2), rel=1e-12)
    xs = np.fft.ifftshift(x)
    d1 = np.fft.fft2(xs[:, None] * np.fft.ifftshift(samples)) * scale
    d2 = np.fft.fft2(xs[None, :] * np.fft.ifftshift(samples)) * scale
    got = weighted_profile_norm(f)
    for l, norm in zip((2, 3), got):
        want = lattice_norm(mag2 ** l * (np.abs(d1) ** 2 + np.abs(d2) ** 2))
        assert norm == pytest.approx(want, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_roundtrip_property(seed):
    g = Grid2D(16, 5.0)
    f = random_field(g, seed=seed)
    back = transform_inverse(transform_forward(f))
    assert np.abs(back.samples - f.samples).max() < 1e-12


_FULL = 8 * 16 * 16     # sample bytes of a 16 x 16 field


def _bpf(n, box_length, sample_bytes):
    """A BPF1 file with the given header and sample_bytes zero bytes."""
    return b"BPF1" + struct.pack("<qd", n, box_length) + b"\x00" * sample_bytes


class TestFieldFiles:
    def test_roundtrip(self, tmp_path):
        g = Grid2D(16, 12.5)
        f = random_field(g, seed=11)
        path = tmp_path / "field.bpf"
        write_field(path, f)
        back = read_field(path)
        assert back.grid == g
        assert np.array_equal(back.samples, f.samples)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bpf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(InputError):
            read_field(path)

    @pytest.mark.parametrize("data", [
        _bpf(16, 12.5, 0)[:6], _bpf(16, 12.5, 0), _bpf(16, 12.5, _FULL - 1),
        _bpf(16, 12.5, _FULL + 8), _bpf(2 ** 20, 1.0, 64),
        _bpf(12, 1.0, 8 * 144), _bpf(4, 1.0, 8 * 16), _bpf(0, 1.0, 0), _bpf(-8, 1.0, 0),
        _bpf(16, float("nan"), _FULL), _bpf(16, float("inf"), _FULL),
        _bpf(16, 0.0, _FULL), _bpf(16, -1.0, _FULL),
    ], ids=["header-cut", "no-samples", "byte-short", "sample-extra", "n-beyond-file",
            "n-12", "n-4", "n-0", "n-negative", "L-nan", "L-inf", "L-0", "L-negative"])
    def test_corrupt_file_rejected(self, tmp_path, data):
        # n = 2^20 would need 8 TiB of samples; the bad-n and bad-L files hold
        # exactly the samples their header asks for
        path = tmp_path / "field.bpf"
        path.write_bytes(data)
        with pytest.raises(InputError):
            read_field(path)

    def test_non_regular_file_rejected(self, tmp_path):
        path = tmp_path / "field.fifo"
        os.mkfifo(path)
        with pytest.raises(InputError, match="not a regular file"):
            read_field(path)


def test_norm_report_csv_format(tmp_path):
    rep = NormReport(t=1.0, l2=2.0, hk=3.0, linf_omega=0.1, linf_u=0.2,
                     linf_u2=0.15, linf_du=0.3, besov311=4.0, weighted2=5.0,
                     weighted3=6.0, fhat_sup2=7.0)
    path = tmp_path / "reports.csv"
    write_csv(path, ["seed=0"], NORM_REPORT_COLUMNS, [rep.row()])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == ",".join(NORM_REPORT_COLUMNS)
    assert lines[1].split(",")[4:7] == ["linf_u", "linf_u2", "linf_du"]
    assert lines[2].split(",")[:7] == ["1", "2", "3", "0.10000000000000001", "0.20000000000000001",
                                       "0.14999999999999999", "0.29999999999999999"]
    assert len(lines[2].split(",")) == len(NORM_REPORT_COLUMNS)
    assert [float(v) for v in lines[2].split(",")] == rep.row()
