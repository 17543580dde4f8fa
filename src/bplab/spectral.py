"""Periodic grids, FFT transforms, Littlewood-Paley projections and norms.

Conventions
-----------
The continuum pair used throughout is

    fhat(xi) = (2*pi)**-2 * integral f(x) exp(-i x.xi) dx,
    f(x)     = integral fhat(xi) exp(i x.xi) dxi,

discretized on the centered box [-L/2, L/2)^2 with n points per axis and
wavenumbers xi in (2*pi/L) * {-n/2, ..., n/2 - 1}^2 (stored in FFT order).
With this convention the L2 norm of the physical field equals
(2*pi) * (sum |modes|^2 * dxi^2)^(1/2), which is how all spectral norms
below are normalized.

Real samples
------------
The physical samples of a spectrum F are the real part of its inverse
transform, which is the inverse transform of the Hermitian part
0.5 (F(xi) + conj F(-xi)). Here -xi is the negation on the lattice, on
which the Nyquist wavenumber -n/2 is its own negative. real_samples forms
the leading n//2 + 1 columns of the Hermitian part and runs one real
inverse transform (irfft2) on them. This holds also when F is not
Hermitian, as on the Nyquist row of a profile rotated to t > 0. The samples
come out in FFT order; max and sum |.|^p norms do not depend on the order,
so the norms skip the fftshift.
"""

from __future__ import annotations

import functools
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

BPF_MAGIC = b"BPF1"

# Column order is fixed for CSV export.
NORM_REPORT_COLUMNS = (
    "t", "l2", "hk", "linf_omega", "linf_u", "linf_du",
    "besov311", "weighted2", "weighted3", "fhat_sup2",
)


class ConfigurationError(ValueError):
    """Invalid grid or solver configuration."""


class InputError(ValueError):
    """Field data violating a precondition (e.g. nonzero mean)."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    """Uniform n x n periodic grid on the centered box of side L."""

    n: int
    box_length: float

    def __post_init__(self):
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ConfigurationError(f"grid size must be a power of two >= 8, got {self.n}")
        if self.box_length <= 0:
            raise ConfigurationError(f"box length must be positive, got {self.box_length}")

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.box_length

    def x_coords(self) -> np.ndarray:
        """Centered physical coordinates along one axis, natural order."""
        return (np.arange(self.n) - self.n // 2) * self.dx

    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids (xi1, xi2) in FFT order, 'ij' indexing."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        return np.meshgrid(k, k, indexing="ij")

    def wavenumber_magnitude(self) -> np.ndarray:
        k1, k2 = self.wavenumbers()
        return np.hypot(k1, k2)


@dataclass(frozen=True)
class GridOperators:
    """Fourier multipliers of one grid, in FFT order, all read-only.

    k1 has shape (n, 1) and k2 shape (1, n); they broadcast against the
    (n, n) arrays. The leading n//2 + 1 columns of each array are the
    multipliers on the half spectrum that real transforms store.
    """

    k1: np.ndarray
    k2: np.ndarray
    inv_mag2: np.ndarray       # 1/|xi|^2, zero at the zero mode
    symbol: np.ndarray         # xi1/|xi|^2, zero at the zero mode
    dealias_mask: np.ndarray   # 2/3 rule: |k_i| <= n/3 on the integer lattice
    inverse_scale: float       # (2 pi / dx)^2, the factor of transform_inverse


@functools.lru_cache(maxsize=4)
def grid_operators(grid: Grid2D) -> GridOperators:
    """The operator set of `grid`, built once; equal grids share one set."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    k1, k2 = k[:, None], k[None, :]
    mag2 = k1 ** 2 + k2 ** 2
    inv_mag2 = np.zeros_like(mag2)
    nz = mag2 > 0
    inv_mag2[nz] = 1.0 / mag2[nz]
    keep = np.abs(np.fft.fftfreq(grid.n) * grid.n) <= (2.0 / 3.0) * (grid.n / 2.0)
    ops = GridOperators(k1=k1, k2=k2, inv_mag2=inv_mag2, symbol=k1 * inv_mag2,
                        dealias_mask=keep[:, None] & keep[None, :],
                        inverse_scale=(2.0 * np.pi / grid.dx) ** 2)
    for arr in (ops.k1, ops.k2, ops.inv_mag2, ops.symbol, ops.dealias_mask):
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
    """Complex Fourier coefficients indexed by the FFT-ordered lattice."""

    grid: Grid2D
    modes: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=complex)
        if self.modes.shape != (self.grid.n, self.grid.n):
            raise ConfigurationError(
                f"expected {self.grid.n}x{self.grid.n} modes, got {self.modes.shape}")

    def copy(self) -> "SpectralField2D":
        return SpectralField2D(self.grid, self.modes.copy())

    def mean_mode(self) -> complex:
        return complex(self.modes[0, 0])


@dataclass
class Profile:
    """A spectral field interpreted as the free-flow-unwound profile at time t."""

    field: SpectralField2D
    t: float = 0.0


@dataclass
class NormReport:
    t: float
    l2: float
    hk: float
    linf_omega: float
    linf_u: float
    linf_du: float
    besov311: float
    weighted2: float
    weighted3: float
    fhat_sup2: float
    warnings: list = field(default_factory=list)

    def row(self) -> list[float]:
        return [getattr(self, c) for c in NORM_REPORT_COLUMNS]


# ---------------------------------------------------------------------------
# transforms


def transform_forward(f: RealField2D) -> SpectralField2D:
    """Physical samples -> Fourier coefficients (centered-box phase)."""
    g = f.grid
    scale = g.dx ** 2 / (2.0 * np.pi) ** 2
    modes = np.fft.fft2(np.fft.ifftshift(f.samples)) * scale
    return SpectralField2D(g, modes)


def transform_inverse(f: SpectralField2D) -> RealField2D:
    """Fourier coefficients -> real physical samples."""
    return RealField2D(f.grid, np.fft.fftshift(real_samples(f)))


def _hermitian_half(modes: np.ndarray) -> np.ndarray:
    """Leading n//2 + 1 columns of the Hermitian part 0.5 (F(xi) + conj F(-xi))
    of the n x n modes F."""
    n = modes.shape[0]
    r = n // 2
    neg = np.empty((n, r + 1), dtype=complex)      # F(-xi) on the half spectrum
    neg[0, 0] = modes[0, 0]
    neg[1:, 0] = modes[:0:-1, 0]
    neg[0, 1:] = modes[0, :r - 1:-1]
    neg[1:, 1:] = modes[:0:-1, :r - 1:-1]
    np.conj(neg, out=neg)
    neg += modes[:, :r + 1]
    neg *= 0.5
    return neg


def _half_samples(half: np.ndarray, g: Grid2D) -> np.ndarray:
    return np.fft.irfft2(half, s=(g.n, g.n)) * grid_operators(g).inverse_scale


def real_samples(f: SpectralField2D) -> np.ndarray:
    """Real physical samples of f in FFT order (unshifted): the real part of
    the inverse transform, by one irfft2 of the Hermitian half."""
    return _half_samples(_hermitian_half(f.modes), f.grid)


def zero_mean(f: SpectralField2D) -> SpectralField2D:
    out = f.copy()
    out.modes[0, 0] = 0.0
    return out


def require_mean_zero(f: SpectralField2D | np.ndarray, tol: float = 1e-12) -> None:
    """Raise InputError unless the zero mode is negligible. `f` is a field or
    a modes array (full or half spectrum) with the zero mode at [0, 0]."""
    modes = f.modes if isinstance(f, SpectralField2D) else f
    scale = max(1.0, float(np.abs(modes).max(initial=0.0)))
    mean = complex(modes[0, 0])
    if abs(mean) > tol * scale:
        raise InputError(f"field has nonzero mean mode {mean:.3e}")


# ---------------------------------------------------------------------------
# Littlewood-Paley machinery

def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Quintic polynomial smoothstep, C^2 across [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _chi(s: np.ndarray) -> np.ndarray:
    """Smoothstep cutoff: 1 on [0, 1], 0 on [2, inf)."""
    return 1.0 - _smoothstep(s - 1.0)


def lp_bump(r):
    """Radial bump phi with support [1/2, 2] and dyadic partition of unity.

    Built as chi(r) - chi(2 r) from the cutoff chi, so sum_j phi(2^-j r)
    telescopes to 1 for r > 0.
    """
    r = np.asarray(r, dtype=float)
    return _chi(r) - _chi(2.0 * r)


def lp_project(f: SpectralField2D, j: int) -> SpectralField2D:
    """Restrict to the dyadic shell |xi| ~ 2^j via the smooth bump."""
    mag = f.grid.wavenumber_magnitude()
    return SpectralField2D(f.grid, f.modes * lp_bump(mag / 2.0 ** j))


def shell_field(grid: Grid2D, j: int = 0) -> SpectralField2D:
    """Mean-zero data whose modes are the bump of the dyadic shell |xi| ~ 2^j."""
    return zero_mean(SpectralField2D(grid, lp_bump(grid.wavenumber_magnitude() / 2.0 ** j)))


def lp_shell_range(grid: Grid2D) -> tuple[int, int]:
    """Dyadic indices [j_min, j_max] that can carry mass on this grid."""
    xi_min = grid.dxi
    xi_max = np.sqrt(2.0) * np.pi * grid.n / grid.box_length
    j_min = int(np.floor(np.log2(xi_min))) - 1
    j_max = int(np.ceil(np.log2(xi_max))) + 1
    return j_min, j_max


# ---------------------------------------------------------------------------
# norms


def _mag2(ops: GridOperators) -> np.ndarray:
    """|xi|^2 on the full grid, from the cached wavenumber axes."""
    return ops.k1 ** 2 + ops.k2 ** 2


def l2_norm(f: SpectralField2D) -> float:
    g = f.grid
    return 2.0 * np.pi * g.dxi * float(np.linalg.norm(f.modes))


def sobolev_norm(f: SpectralField2D, k: int) -> float:
    """Inhomogeneous H^k norm via the symbol (1 + |xi|^2)^(k/2)."""
    if k < 0:
        raise ValueError("Sobolev index must be >= 0")
    g = f.grid
    w = (1.0 + _mag2(grid_operators(g))) ** k
    total = float(np.sum(w * np.abs(f.modes) ** 2)) * g.dxi ** 2
    return 2.0 * np.pi * np.sqrt(total)


def homogeneous_sobolev_norm(f: SpectralField2D, s: float) -> float:
    """|D^s f|_{L^2}; the zero mode is skipped (its symbol is singular)."""
    g = f.grid
    mag = g.wavenumber_magnitude()
    w = np.zeros_like(mag)
    nz = mag > 0
    w[nz] = mag[nz] ** (2.0 * s)
    total = float(np.sum(w * np.abs(f.modes) ** 2)) * g.dxi ** 2
    return 2.0 * np.pi * np.sqrt(total)


def linf_norm(f: SpectralField2D) -> float:
    return float(np.abs(real_samples(f)).max())


def _samples_lp_norm(samples: np.ndarray, p: float, dx: float) -> float:
    s = np.abs(samples)
    if np.isinf(p):
        return float(s.max())
    return float(np.sum(s ** p) * dx ** 2) ** (1.0 / p)


def lp_phys_norm(f: SpectralField2D, p: float) -> float:
    """L^p norm of the physical-space field by Riemann sum (p may be inf)."""
    return _samples_lp_norm(real_samples(f), p, f.grid.dx)


def besov_norm(f: SpectralField2D, s: float, p: float, q: float) -> float:
    """Homogeneous Besov norm: ell^q over shells of 2^(s j) |P_j f|_{L^p}.

    The shell sum is truncated to lp_shell_range, the dyadic range
    resolvable on the grid. The shells are cut from the Hermitian half of f
    (the bump is radial, so it commutes with taking the Hermitian part), and
    each costs one irfft2; the bump of shell j is chi(r/2^j) - chi(r/2^(j-1)),
    so consecutive shells share one cutoff.
    """
    if not (p >= 1 and q >= 1):
        raise ValueError("p, q must lie in [1, inf]")
    g = f.grid
    ops = grid_operators(g)
    half = _hermitian_half(f.modes)
    mag = np.hypot(ops.k1, ops.k2[:, :half.shape[1]])
    j_min, j_max = lp_shell_range(g)
    chi_below = _chi(mag / 2.0 ** (j_min - 1))
    terms = []
    for j in range(j_min, j_max + 1):
        chi = _chi(mag / 2.0 ** j)
        piece = half * (chi - chi_below)
        chi_below = chi
        terms.append(2.0 ** (s * j) * _samples_lp_norm(_half_samples(piece, g), p, g.dx)
                     if np.any(piece) else 0.0)
    terms = np.asarray(terms)
    if np.isinf(q):
        return float(terms.max(initial=0.0))
    return float(np.sum(terms ** q) ** (1.0 / q))


def _fft_order_coords(g: Grid2D) -> np.ndarray:
    """x_coords in FFT order, the order of unshifted samples."""
    return np.fft.fftfreq(g.n) * g.n * g.dx


def _central_mass(samples: np.ndarray, g: Grid2D) -> float:
    """Fraction of the mass of FFT-ordered real samples in the central half-box."""
    keep = np.abs(_fft_order_coords(g)) <= g.box_length / 4.0
    total = float(np.sum(samples ** 2))
    if total == 0.0:
        return 1.0
    return float(np.sum(samples[np.ix_(keep, keep)] ** 2)) / total


def central_mass_fraction(f: SpectralField2D) -> float:
    """Fraction of |f|^2 mass inside the central half-box."""
    return _central_mass(real_samples(f), f.grid)


def weighted_profile_norm(f: Profile, l, warn_sink: list | None = None):
    """|D^l x f|_{L^2} for l in {2, 3}: the L2 norm of |xi|^l grad_xi fhat.

    `l` is one order or a tuple of orders; a tuple returns a tuple of norms,
    which share one inverse transform and one |grad_xi fhat|^2. grad_xi fhat
    is the transform of -i x f(x), with x the centered box coordinate and
    the imaginary part of f(x) kept.

    Appends a boundary-contamination warning to warn_sink when less than 99%
    of the field's mass sits in the central half-box.
    """
    orders = tuple(l) if isinstance(l, tuple) else (l,)
    if any(o not in (2, 3) for o in orders):
        raise ValueError("weight order must be 2 or 3")
    fld = f.field
    g = fld.grid
    ops = grid_operators(g)
    phys = np.fft.ifft2(fld.modes) * ops.inverse_scale
    if warn_sink is not None and _central_mass(phys.real, g) < 0.99:
        warn_sink.append(f"boundary contamination: <99% mass in central half-box at t={f.t}")
    x = _fft_order_coords(g)
    scale = g.dx ** 2 / (2.0 * np.pi) ** 2
    d1 = np.fft.fft2(-1j * x[:, None] * phys) * scale
    d2 = np.fft.fft2(-1j * x[None, :] * phys) * scale
    grad2 = np.abs(d1) ** 2 + np.abs(d2) ** 2
    mag2 = _mag2(ops)
    norms = tuple(2.0 * np.pi * np.sqrt(float(np.sum(mag2 ** o * grad2)) * g.dxi ** 2)
                  for o in orders)
    return norms if isinstance(l, tuple) else norms[0]


def fhat_sup_weighted(f: Profile) -> float:
    """sup over modes of |xi|^2 |fhat(xi)| (in the fhat normalization above)."""
    return float((_mag2(grid_operators(f.field.grid)) * np.abs(f.field.modes)).max())


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
        n, box_length = struct.unpack("<qd", head)
        if n < 8 or not _is_power_of_two(n) or not (0.0 < box_length < np.inf):
            raise InputError(f"bad field file header: n={n}, L={box_length!r}")
        grid = Grid2D(n, box_length)
        # sized from the file, so a corrupt n cannot ask for a huge read
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * n * n:
            raise InputError(f"field file holds {size} bytes of samples, "
                             f"expected {8 * n * n} for n={n}")
        data = np.frombuffer(fh.read(size), dtype="<f8").reshape(n, n)
    return RealField2D(grid, data.copy())
