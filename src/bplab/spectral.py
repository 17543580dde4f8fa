"""Periodic grids, FFT transforms, Littlewood-Paley shells and norms.

Conventions
-----------
The continuum pair used throughout is

    fhat(xi) = (2*pi)**-2 * integral f(x) exp(-i x.xi) dx,
    f(x)     = integral fhat(xi) exp(i x.xi) dxi,

discretized on the centered box [-L/2, L/2)^2 with n points per axis and
wavenumbers xi in (2*pi/L) * {-n/2, ..., n/2 - 1}^2 (stored in FFT order).
With this convention the L2 norm of the physical field equals
(2*pi) * (sum |modes|^2 * dxi^2)^(1/2), the sum running over the whole
lattice, which is how all spectral norms below are normalized.

Half spectrum
-------------
Every field is real, so its spectrum is Hermitian, F(-xi) = conj F(xi),
and is fixed by the n x (n//2 + 1) half that rfft2 stores: all rows, and
the columns xi2 = 0 .. n/2 (the last one at the Nyquist wavenumber). The
other columns are the conjugate mirror of columns 1 .. n/2 - 1, so a sum
over the lattice is the sum over the half with the column weight 1 on
columns 0 and n/2 and 2 on the others; every norm below takes its weight
from grid_operators. real_samples is one irfft2, which reads any half
array as the half of its Hermitian extension: the columns 0 and n/2 enter
through their Hermitian part along xi1.

Nyquist wavenumber: on the lattice, -n/2 is its own negative. On the
column n/2, irfft2 takes the Hermitian part along xi1, which is the mean
of a multiplier over the two aliases xi2 = -n/2 and +n/2: odd factors of
xi2 drop out there and even ones stay. The row n/2 has no such mean, since
its mirror half is implicit, so the odd factor k1 is 0 on it, as usual for
real fields (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 3): in
the velocity, the derivatives and the dispersion symbol xi1/|xi|^2. Even
factors such as |xi|^2 keep their value, and a product of two odd factors
of xi1 is formed from an even one. So the free flow leaves the Nyquist row
as it is, and a profile rotated to any t stays the half spectrum of a real
field.

The samples come out in FFT order; max and sum |.|^p norms do not depend
on the order, so the norms skip the fftshift.

Pruned inverse: a multiplier that is zero past column kc needs only an ifft
down columns 0 .. kc-1, then an irfft along the rows, which reads the other
columns as zeros. These are the two steps of irfft2, so the samples are
equal bit for bit; besov_norm inverts each shell so. The two 1-D calls also
write through out=, which np.fft.irfft2 drops (numpy 2.4 passes out=None on
to irfftn).
"""

from __future__ import annotations

import functools
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

BPF_MAGIC = b"BPF1"


class ConfigurationError(ValueError):
    """Invalid grid or solver configuration."""


class InputError(ValueError):
    """Field data violating a precondition (e.g. nonzero mean)."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform n x n periodic grid on the centered box of side L."""

    n: int
    box_length: float

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ConfigurationError(f"grid size must be a power of two >= 8, got {self.n}")
        if not 0 < self.box_length < np.inf:
            raise ConfigurationError(f"box length must lie in (0, inf), got {self.box_length}")
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            dx = np.float64(self.dx)
            forward = dx ** 2 / (2.0 * np.pi) ** 2
            scales = ((2.0 * np.pi / dx) ** 2, forward, forward ** 2)
        if not all(0.0 < s < np.inf for s in scales):
            raise ConfigurationError(
                f"box length {self.box_length!r} at n={self.n} gives dx={float(dx)!r}, for which "
                "(2 pi/dx)^2, dx^2/(2 pi)^2 or its square is not finite and nonzero")

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.box_length

    def x_coords(self) -> np.ndarray:
        """Centered physical coordinates along one axis, natural order."""
        return (np.arange(self.n) - self.n // 2) * self.dx

    @property
    def half_shape(self) -> tuple[int, int]:
        """Shape of the half spectrum, (n, n//2 + 1)."""
        return self.n, self.n // 2 + 1


@dataclass(frozen=True)
class GridOperators:
    """Fourier multipliers of one grid on the half spectrum, all read-only.

    k1 has shape (n, 1), k2 and weight (1, n//2 + 1); the others are
    (n, n//2 + 1). Column n/2 holds xi2 = -n/2, its place in the FFT order.
    """

    k1: np.ndarray             # xi1, as an odd factor: 0 on the Nyquist row
    k2: np.ndarray
    mag2: np.ndarray           # |xi|^2
    mag: np.ndarray            # |xi|
    inv_mag2: np.ndarray       # 1/|xi|^2, zero at the zero mode
    symbol: np.ndarray         # dispersion symbol k1/|xi|^2
    weight: np.ndarray         # column weight of lattice sums: 1, 2, ..., 2, 1
    dealias_mask: np.ndarray   # 2/3 rule: |k_i| <= n/3 on the integer lattice
    inverse_scale: float       # (2 pi / dx)^2, the factor of transform_inverse


@functools.lru_cache(maxsize=4)
def grid_operators(grid: Grid2D) -> GridOperators:
    """The operator set of `grid`, built once; equal grids share one set."""
    n, m = grid.half_shape
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    k1, k2 = k[:, None].copy(), k[None, :m]
    k1[n // 2] = 0.0
    mag2 = k[:, None] ** 2 + k2 ** 2
    inv_mag2 = np.zeros_like(mag2)
    nz = mag2 > 0
    inv_mag2[nz] = 1.0 / mag2[nz]
    weight = np.full((1, m), 2.0)
    weight[0, [0, -1]] = 1.0
    keep = np.abs(np.fft.fftfreq(n) * n) <= (2.0 / 3.0) * (n / 2.0)
    ops = GridOperators(k1=k1, k2=k2, mag2=mag2, mag=np.hypot(k[:, None], k2),
                        inv_mag2=inv_mag2, symbol=k1 * inv_mag2, weight=weight,
                        dealias_mask=keep[:, None] & keep[None, :m],
                        inverse_scale=(2.0 * np.pi / grid.dx) ** 2)
    for arr in (ops.k1, ops.k2, ops.mag2, ops.mag, ops.inv_mag2, ops.symbol,
                ops.weight, ops.dealias_mask):
        arr.flags.writeable = False
    return ops


@dataclass
class RealField2D:
    """Real samples on the physical grid, natural (centered-x) order."""

    grid: Grid2D
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.shape != (self.grid.n, self.grid.n):
            raise ConfigurationError(
                f"expected {self.grid.n}x{self.grid.n} samples, got {self.samples.shape}")


@dataclass
class SpectralField2D:
    """The half spectrum of a real field: complex Fourier coefficients of
    shape (n, n//2 + 1), rows in FFT order."""

    grid: Grid2D
    modes: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=complex)
        if self.modes.shape != self.grid.half_shape:
            raise ConfigurationError(
                f"expected {self.grid.half_shape} modes, got {self.modes.shape}")


# ---------------------------------------------------------------------------
# transforms


def transform_forward(f: RealField2D) -> SpectralField2D:
    """Physical samples -> half spectrum (centered-box phase)."""
    g = f.grid
    scale = g.dx ** 2 / (2.0 * np.pi) ** 2
    return SpectralField2D(g, np.fft.rfft2(np.fft.ifftshift(f.samples)) * scale)


def transform_inverse(f: SpectralField2D) -> RealField2D:
    """Half spectrum -> real physical samples."""
    return RealField2D(f.grid, np.fft.fftshift(real_samples(f)))


def real_samples(f: SpectralField2D) -> np.ndarray:
    """Real physical samples of f in FFT order (unshifted), by one irfft2."""
    g = f.grid
    return np.fft.irfft2(f.modes, s=(g.n, g.n)) * grid_operators(g).inverse_scale


def zero_mean(f: SpectralField2D) -> SpectralField2D:
    out = SpectralField2D(f.grid, f.modes.copy())
    out.modes[0, 0] = 0.0
    return out


def require_mean_zero(f: SpectralField2D) -> None:
    """Raise InputError unless the zero mode is negligible: at most 1e-12 of
    the largest mode, or of 1."""
    scale = max(1.0, float(np.abs(f.modes).max(initial=0.0)))
    mean = complex(f.modes[0, 0])
    if abs(mean) > 1e-12 * scale:
        raise InputError(f"field has nonzero mean mode {mean:.3e}")


# ---------------------------------------------------------------------------
# Littlewood-Paley machinery

def _chi(s: np.ndarray) -> np.ndarray:
    """Cutoff 1 on [0, 1], 0 on [2, inf): 1 minus the C^2 quintic smoothstep of s - 1."""
    t = np.clip(s - 1.0, 0.0, 1.0)
    return 1.0 - t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def lp_bump(r):
    """Radial bump phi with support [1/2, 2] and dyadic partition of unity.

    Built as chi(r) - chi(2 r) from the cutoff chi, so sum_j phi(2^-j r)
    telescopes to 1 for r > 0.
    """
    r = np.asarray(r, dtype=float)
    return _chi(r) - _chi(2.0 * r)


def shell_field(grid: Grid2D, j: int = 0) -> SpectralField2D:
    """Mean-zero data whose modes are the bump of the dyadic shell |xi| ~ 2^j;
    2^j is taken in float64, so a j for which it overflows or underflows gives
    data with no modes (|xi|/2^j is then 0, or inf with a 0/0 that zero_mean clears)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        radius = grid_operators(grid).mag / np.float64(2.0) ** j
    return zero_mean(SpectralField2D(grid, lp_bump(radius)))


def lp_shell_range(grid: Grid2D) -> tuple[int, int]:
    """Dyadic indices [j_min, j_max] that can carry mass on this grid."""
    xi_min = grid.dxi
    xi_max = np.sqrt(2.0) * np.pi * grid.n / grid.box_length
    j_min = int(np.floor(np.log2(xi_min))) - 1
    j_max = int(np.ceil(np.log2(xi_max))) + 1
    return j_min, j_max


@functools.lru_cache(maxsize=4)
def _lp_shells(grid: Grid2D) -> tuple[tuple[int, np.ndarray], ...]:
    """(j, bump) for each j in lp_shell_range whose shell has a mode on the
    grid: the bump chi(|xi|/2^j) - chi(|xi|/2^(j-1)) on the half spectrum,
    cut to the columns up to its last nonzero one, contiguous and read-only.
    Built once; equal grids share one tuple."""
    mag = grid_operators(grid).mag
    j_min, j_max = lp_shell_range(grid)
    chi_below = _chi(mag / 2.0 ** (j_min - 1))
    shells = []
    for j in range(j_min, j_max + 1):
        chi = _chi(mag / 2.0 ** j)
        bump = chi - chi_below
        chi_below = chi
        cols = np.flatnonzero(np.any(bump, axis=0))
        if cols.size:
            bump = np.ascontiguousarray(bump[:, :cols[-1] + 1])
            bump.flags.writeable = False
            shells.append((j, bump))
    return tuple(shells)


# ---------------------------------------------------------------------------
# norms


def _lattice_l2(density: np.ndarray, g: Grid2D) -> float:
    """2 pi (sum over the lattice of density dxi^2)^(1/2), for a density
    |multiplier fhat|^2 given on the half spectrum."""
    total = float(np.sum(grid_operators(g).weight * density)) * g.dxi ** 2
    return 2.0 * np.pi * np.sqrt(total)


def l2_norm(f: SpectralField2D) -> float:
    return _lattice_l2(np.abs(f.modes) ** 2, f.grid)


def sobolev_norm(f: SpectralField2D, k: int) -> float:
    """Inhomogeneous H^k norm via the symbol (1 + |xi|^2)^(k/2); a norm that
    float64 cannot hold is refused."""
    if k < 0:
        raise ConfigurationError("Sobolev index must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _lattice_l2((1.0 + grid_operators(f.grid).mag2) ** k * np.abs(f.modes) ** 2,
                           f.grid)
    if not np.isfinite(norm):
        raise ConfigurationError(f"H^{k} norm not finite at n={f.grid.n}, L={f.grid.box_length!r}")
    return norm


def homogeneous_sobolev_norm(f: SpectralField2D, s: float) -> float:
    """|D^s f|_{L^2} for s > 0."""
    return _lattice_l2(grid_operators(f.grid).mag ** (2.0 * s) * np.abs(f.modes) ** 2, f.grid)


def linf_norm(f: SpectralField2D) -> float:
    return float(np.abs(real_samples(f)).max())


def besov_norm(f: SpectralField2D) -> float:
    """Homogeneous B^3_{1,1} norm: the sum over shells of 2^(3 j) |P_j f|_{L^1}.

    The shell sum is truncated to lp_shell_range, the dyadic range
    resolvable on the grid. The bumps come from _lp_shells, built once per
    grid. Each shell multiplies only the columns its bump reaches and takes
    one pruned inverse; every shell reuses the same two buffers, made once
    per call. A shell with no mode on the grid adds no term.
    """
    g = f.grid
    n, m = g.half_shape
    scale = grid_operators(g).inverse_scale
    spec = np.empty(n * m, dtype=complex)
    samples = np.empty((n, n))
    terms = []
    for j, bump in _lp_shells(g):
        piece = spec[:bump.size].reshape(bump.shape)     # contiguous, for out=
        np.multiply(f.modes[:, :bump.shape[1]], bump, out=piece)
        np.fft.ifft(piece, axis=0, out=piece)
        np.fft.irfft(piece, n=n, axis=1, out=samples)
        np.multiply(samples, scale, out=samples)
        terms.append(2.0 ** (3.0 * j) * float(np.sum(np.abs(samples, out=samples)) * g.dx ** 2))
    return float(np.sum(terms))


def mass_inside(samples: np.ndarray, coords: np.ndarray, half_width: float) -> float:
    """Fraction of the |f|^2 mass of real samples in the square |x1|, |x2| <= half_width,
    with coords the coordinates along each axis, in the samples' order; 1 when all are 0."""
    keep = np.abs(coords) <= half_width
    total = float(np.sum(samples ** 2))
    if total == 0.0:
        return 1.0
    return float(np.sum(samples[np.ix_(keep, keep)] ** 2)) / total


def weighted_profile_norm(f: SpectralField2D):
    """(|D^2 x f|_{L^2}, |D^3 x f|_{L^2}, central), with |D^l x f|_{L^2} the L2
    norm of |xi|^l grad_xi fhat and central the mass_inside fraction of f in
    the central half-box. The two orders share one inverse transform and one
    |grad_xi fhat|^2. grad_xi fhat is the transform of -i x f(x), with x the
    centered box coordinate; the two real fields x_i f(x) take one batched
    rfft2.
    """
    g = f.grid
    phys = real_samples(f)
    x = np.fft.ifftshift(g.x_coords())           # in FFT order, that of phys
    central = mass_inside(phys, x, g.box_length / 4.0)
    d1, d2 = np.fft.rfft2(np.stack((x[:, None] * phys, x[None, :] * phys)))
    grad2 = (np.abs(d1) ** 2 + np.abs(d2) ** 2) * (g.dx ** 2 / (2.0 * np.pi) ** 2) ** 2
    mag2 = grid_operators(g).mag2
    return _lattice_l2(mag2 ** 2 * grad2, g), _lattice_l2(mag2 ** 3 * grad2, g), central


def fhat_sup_weighted(f: SpectralField2D) -> float:
    """sup over modes of |xi|^2 |fhat(xi)| (in the fhat normalization above)."""
    return float((grid_operators(f.grid).mag2 * np.abs(f.modes)).max())


# ---------------------------------------------------------------------------
# file formats


def write_field(path, f: RealField2D) -> None:
    """Binary layout: magic 'BPF1', n and L as 8-byte little-endian, then
    row-major float64 samples."""
    with open(path, "wb") as fh:
        fh.write(BPF_MAGIC)
        fh.write(struct.pack("<q", f.grid.n))
        fh.write(struct.pack("<d", f.grid.box_length))
        fh.write(np.ascontiguousarray(f.samples, dtype="<f8").tobytes())


def read_field(path) -> RealField2D:
    # the sample count is checked against the file size, which only a
    # regular file has; a pipe or a terminal is refused before it is opened
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise InputError(f"field file {path} is not a regular file")
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BPF_MAGIC:
            raise InputError(f"bad field file magic {magic!r}")
        head = fh.read(16)
        if len(head) != 16:
            raise InputError(f"field file header truncated to {len(head)} of 16 bytes")
        try:
            grid = Grid2D(*struct.unpack("<qd", head))
        except ConfigurationError as exc:
            raise InputError(f"bad field file header: {exc}") from exc
        # sized from the file, so a corrupt n cannot ask for a huge read
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * grid.n ** 2:
            raise InputError(f"field file holds {size} bytes of samples, "
                             f"expected {8 * grid.n ** 2} for n={grid.n}")
        data = np.frombuffer(fh.read(size), dtype="<f8").reshape(grid.n, grid.n)
    return RealField2D(grid, data.copy())
