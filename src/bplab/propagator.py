"""The dispersive semigroup exp(t d1/|grad|^2) and its decay diagnostics.

The linear operator has Fourier symbol -i xi1/|xi|^2, so the semigroup acts
as the unimodular multiplier exp(-i t xi1/|xi|^2). Besides the grid-based
multiplier we provide a direct oscillatory-integral evaluation on dyadic
shells, a stationary-phase analysis of the frequency-space phase
phi(xi) = (x/t).xi - xi1/|xi|^2, and the split high/low frequency sup-norm
bound used to convert weighted L2 control into pointwise decay.

The real symbol g(xi) = xi1/|xi|^2, its gradient and its Hessian are defined
here once, vectorized; the resonance phase is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral import (
    ConfigurationError,
    Profile,
    SpectralField2D,
    besov_norm,
    grid_operators,
    homogeneous_sobolev_norm,
    linf_norm,
    lp_bump,
    require_mean_zero,
    sobolev_norm,
    weighted_profile_norm,
)


class QuadratureError(RuntimeError):
    """Oscillatory quadrature failed to reach the requested tolerance."""


@dataclass
class DecayFit:
    exponent: float
    constant: float
    t_range: tuple[float, float]
    residual: float
    c_emp: float


# ---------------------------------------------------------------------------
# the symbol g(v) = v1/|v|^2 and its derivatives, at points v of shape (..., 2)
#
# Unpacking v.T yields the two coordinate arrays, or two scalars for a single
# point, which keeps the per-point calls of the stationary-phase solver cheap;
# transposing back restores the leading axes.

def symbol(v):
    """g(v) = v1/|v|^2."""
    v1, v2 = v.T
    return (v1 / (v1 ** 2 + v2 ** 2)).T


def symbol_grad(v):
    """grad g(v) = ((v2^2 - v1^2)/|v|^4, -2 v1 v2/|v|^4), shape (..., 2)."""
    v1, v2 = v.T
    m4 = (v1 ** 2 + v2 ** 2) ** 2
    return np.array([(v2 ** 2 - v1 ** 2) / m4, -2.0 * v1 * v2 / m4]).T


def symbol_hess(v):
    """Hessian of g(v), a trace-free symmetric 2x2, shape (..., 2, 2)."""
    v1, v2 = v.T
    m2 = v1 ** 2 + v2 ** 2
    m6 = m2 ** 3
    d11 = (-2.0 * v1 * m2 - 4.0 * v1 * (v2 ** 2 - v1 ** 2)) / m6
    d12 = (2.0 * v2 * m2 - 4.0 * v2 * (v2 ** 2 - v1 ** 2)) / m6
    d22 = (-2.0 * v1 * m2 + 8.0 * v1 * v2 ** 2) / m6
    # symmetric, so the transpose also swapping the 2x2 indices is harmless
    return np.array([[d11, d12], [d12, d22]]).T


def dispersion_symbol(grid) -> np.ndarray:
    """xi1/|xi|^2 on the grid lattice, zero at the zero mode (cached, read-only)."""
    return grid_operators(grid).symbol


def apply_semigroup(f: SpectralField2D, t: float) -> SpectralField2D:
    """Multiply modes by exp(-i t xi1/|xi|^2); unitary on L2."""
    require_mean_zero(f)
    phase = np.exp(-1j * t * dispersion_symbol(f.grid))
    return SpectralField2D(f.grid, f.modes * phase)


# ---------------------------------------------------------------------------
# oscillatory integral oracle

def _shell_integral(x, t, j, n_r, n_theta):
    """Tensor Gauss-Legendre quadrature of the shell integral in polar form."""
    r_lo, r_hi = 2.0 ** (j - 1), 2.0 ** (j + 1)
    gr, wr = leggauss(n_r)
    gth, wth = leggauss(n_theta)
    r = 0.5 * (r_hi - r_lo) * gr + 0.5 * (r_hi + r_lo)
    wr = wr * 0.5 * (r_hi - r_lo)
    th = np.pi * gth
    wth = wth * np.pi
    rr, tt = np.meshgrid(r, th, indexing="ij")
    c, s = np.cos(tt), np.sin(tt)
    phase = x[0] * rr * c + x[1] * rr * s - t * c / rr
    vals = lp_bump(rr / 2.0 ** j) * np.exp(1j * phase) * rr
    return np.einsum("i,j,ij->", wr, wth, vals)


def oscillatory_quadrature(x, t, j, tol=1e-8, max_panels=4096):
    """Direct evaluation of integral phi(2^-j xi) exp(i x.xi - i t xi1/|xi|^2) dxi.

    Panel counts grow with the oscillation count of the phase over the shell;
    the rule is refined until two successive evaluations agree to `tol`.
    """
    x = np.asarray(x, dtype=float)
    if t < 0:
        raise ValueError("t must be >= 0")
    r_hi = 2.0 ** (j + 1)
    r_lo = 2.0 ** (j - 1)
    # phase range estimate across the shell drives the initial resolution
    osc = (np.linalg.norm(x) * (r_hi - r_lo) + t * (1.0 / r_lo - 1.0 / r_hi)) / (2.0 * np.pi)
    osc_th = (np.linalg.norm(x) * r_hi + t / r_lo) / np.pi
    n_r = max(16, int(4 * osc) + 8)
    n_theta = max(32, int(4 * osc_th) + 8)
    prev = _shell_integral(x, t, j, n_r, n_theta)
    while n_r <= max_panels and n_theta <= max_panels:
        n_r, n_theta = int(n_r * 1.6) + 1, int(n_theta * 1.6) + 1
        cur = _shell_integral(x, t, j, n_r, n_theta)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    raise QuadratureError(f"no convergence at {n_r}x{n_theta} points; last delta "
                          f"{abs(cur - prev):.3e}")


# ---------------------------------------------------------------------------
# stationary phase

def phase_gradient(x_over_t, xi):
    """grad of phi(xi) = (x/t).xi - xi1/|xi|^2."""
    return np.asarray(x_over_t, dtype=float) - symbol_grad(np.asarray(xi, dtype=float))


def stationary_points(x_over_t, shell=(0.25, 4.0)):
    """All roots of grad phi = 0 with |xi| in the given shell.

    In polar coordinates the gradient equation reads
    x/t = -(1/r^2) (cos 2theta, sin 2theta), which pins r = |x/t|^(-1/2)
    and leaves two antipodal angles; a damped Newton polish removes the
    residual floating error.
    """
    v = np.asarray(x_over_t, dtype=float)
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
            # keep the iterate inside the shell
            scale = 1.0
            while np.linalg.norm(xi - scale * step) < shell[0] / 2:
                scale *= 0.5
            xi = xi - scale * step
        if np.linalg.norm(phase_gradient(v, xi)) < 1e-10 and \
                shell[0] <= np.linalg.norm(xi) <= shell[1]:
            roots.append(xi)
    return roots


def hessian_det(xi) -> float:
    """Closed-form determinant of the Hessian of phi, -symbol_hess: -4/|xi|^6."""
    xi = np.asarray(xi, dtype=float)
    m2 = xi[0] ** 2 + xi[1] ** 2
    if m2 == 0.0:
        raise ValueError("Hessian determinant undefined at xi = 0")
    return -4.0 / m2 ** 3


# ---------------------------------------------------------------------------
# measured decay

def decay_curve(g: SpectralField2D, times) -> DecayFit:
    """Fit the power law of |semigroup(t) g|_Linf over the given times."""
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be positive and increasing, >= 2 entries")
    sups = np.array([linf_norm(apply_semigroup(g, t)) for t in times])
    if np.any(sups <= 0):
        raise ValueError("sup-norm vanished; cannot fit a power law")
    logs, logt = np.log(sups), np.log(times)
    slope, intercept = np.polyfit(logt, logs, 1)
    fit = slope * logt + intercept
    residual = float(np.max(np.abs(fit - logs) / np.abs(logs)))
    b311 = besov_norm(g, 3.0, 1.0, 1.0)
    c_emp = float(np.max(times * sups)) / b311 if b311 > 0 else np.inf
    if np.ptp(logs) < 1e-12:
        residual = np.inf  # degenerate, constant data
    return DecayFit(exponent=float(slope), constant=float(np.exp(intercept)),
                    t_range=(float(times[0]), float(times[-1])),
                    residual=residual, c_emp=c_emp)


def split_bound_exponent(mu: float) -> float:
    """1/p = 1 + mu - 1/(1 + mu)."""
    if not 0.0 < mu < 1.0:
        raise ConfigurationError("mu must lie in (0, 1)")
    return 1.0 + mu - 1.0 / (1.0 + mu)


def split_bound_amplitude(mu: float) -> float:
    """A(mu) = mu^(-(1-mu)^2 / (2 (1+mu)^2)); blows up as mu -> 0."""
    if not 0.0 < mu < 1.0:
        raise ConfigurationError("mu must lie in (0, 1)")
    return mu ** (-((1.0 - mu) ** 2) / (2.0 * (1.0 + mu) ** 2))


def split_decay_bound(f: Profile, t: float, N: float, mu: float, k: int) -> float:
    """High/low frequency sup-norm bound with implicit constant 1:

        2^k N^-k |f|_{H^(3+k)}
        + t^(-1 + 2/p) N^(2 mu + 12/p) A(mu) (|D^3 f|_L2 + |D^3 x f|_L2).
    """
    if not (t > 0 and N > 0 and k >= 1):
        raise ConfigurationError("need t > 0, N > 0, k >= 1")
    inv_p = split_bound_exponent(mu)
    amp = split_bound_amplitude(mu)
    high = 2.0 ** k * N ** (-k) * sobolev_norm(f.field, 3 + k)
    low = (t ** (-1.0 + 2.0 * inv_p) * N ** (2.0 * mu + 12.0 * inv_p) * amp
           * (homogeneous_sobolev_norm(f.field, 3.0) + weighted_profile_norm(f, 3)))
    return high + low
