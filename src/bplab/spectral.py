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
    g = f.grid
    samples = np.fft.fftshift(np.fft.ifft2(f.modes)) * grid_operators(g).inverse_scale
    return RealField2D(g, samples.real)


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


def lp_bump(r):
    """Radial bump phi with support [1/2, 2] and dyadic partition of unity.

    Built as chi(r) - chi(2 r) from a smoothstep cutoff chi that is 1 on
    [0, 1] and 0 on [2, inf), so sum_j phi(2^-j r) telescopes to 1 for r > 0.
    """
    r = np.asarray(r, dtype=float)

    def chi(s):
        return 1.0 - _smoothstep(s - 1.0)

    return chi(r) - chi(2.0 * r)


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


def l2_norm(f: SpectralField2D) -> float:
    g = f.grid
    return 2.0 * np.pi * g.dxi * float(np.linalg.norm(f.modes))


def sobolev_norm(f: SpectralField2D, k: int) -> float:
    """Inhomogeneous H^k norm via the symbol (1 + |xi|^2)^(k/2)."""
    if k < 0:
        raise ValueError("Sobolev index must be >= 0")
    g = f.grid
    w = (1.0 + g.wavenumber_magnitude() ** 2) ** k
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
    return float(np.abs(transform_inverse(f).samples).max())


def lp_phys_norm(f: SpectralField2D, p: float) -> float:
    """L^p norm of the physical-space field by Riemann sum (p may be inf)."""
    s = np.abs(transform_inverse(f).samples)
    if np.isinf(p):
        return float(s.max())
    return float(np.sum(s ** p) * f.grid.dx ** 2) ** (1.0 / p)


def besov_norm(f: SpectralField2D, s: float, p: float, q: float) -> float:
    """Homogeneous Besov norm: ell^q over shells of 2^(s j) |P_j f|_{L^p}.

    The shell sum is truncated to lp_shell_range, the dyadic range
    resolvable on the grid.
    """
    if not (p >= 1 and q >= 1):
        raise ValueError("p, q must lie in [1, inf]")
    j_min, j_max = lp_shell_range(f.grid)
    terms = []
    for j in range(j_min, j_max + 1):
        piece = lp_project(f, j)
        if not np.any(piece.modes):
            terms.append(0.0)
            continue
        terms.append(2.0 ** (s * j) * lp_phys_norm(piece, p))
    terms = np.asarray(terms)
    if np.isinf(q):
        return float(terms.max(initial=0.0))
    return float(np.sum(terms ** q) ** (1.0 / q))


def central_mass_fraction(f: SpectralField2D) -> float:
    """Fraction of |f|^2 mass inside the central half-box."""
    g = f.grid
    s = transform_inverse(f).samples
    x = g.x_coords()
    inside = (np.abs(x)[:, None] <= g.box_length / 4.0) & \
             (np.abs(x)[None, :] <= g.box_length / 4.0)
    total = float(np.sum(s ** 2))
    if total == 0.0:
        return 1.0
    return float(np.sum(s[inside] ** 2)) / total


def profile_gradient_modes(f: SpectralField2D) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-space gradient of fhat, computed as the transform of -i x f(x)
    with x the centered box coordinate."""
    g = f.grid
    # the inverse transform, keeping the imaginary part of a non-real field
    phys = np.fft.fftshift(np.fft.ifft2(f.modes)) * grid_operators(g).inverse_scale
    x = g.x_coords()
    scale = g.dx ** 2 / (2.0 * np.pi) ** 2
    d1 = np.fft.fft2(np.fft.ifftshift(-1j * x[:, None] * phys)) * scale
    d2 = np.fft.fft2(np.fft.ifftshift(-1j * x[None, :] * phys)) * scale
    return d1, d2


def weighted_profile_norm(f: Profile, l: int, warn_sink: list | None = None) -> float:
    """|D^l x f|_{L^2} for l in {2, 3}: the L2 norm of |xi|^l grad_xi fhat.

    Appends a boundary-contamination warning to warn_sink when less than 99%
    of the field's mass sits in the central half-box.
    """
    if l not in (2, 3):
        raise ValueError("weight order must be 2 or 3")
    fld = f.field
    if warn_sink is not None and central_mass_fraction(fld) < 0.99:
        warn_sink.append(f"boundary contamination: <99% mass in central half-box at t={f.t}")
    d1, d2 = profile_gradient_modes(fld)
    mag = fld.grid.wavenumber_magnitude()
    w = mag ** (2 * l)
    total = float(np.sum(w * (np.abs(d1) ** 2 + np.abs(d2) ** 2))) * fld.grid.dxi ** 2
    return 2.0 * np.pi * np.sqrt(total)


def fhat_sup_weighted(f: Profile) -> float:
    """sup over modes of |xi|^2 |fhat(xi)| (in the fhat normalization above)."""
    mag = f.field.grid.wavenumber_magnitude()
    return float((mag ** 2 * np.abs(f.field.modes)).max())


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
