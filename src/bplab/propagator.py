"""The dispersive semigroup exp(t d1/|grad|^2) and its decay diagnostics.

The linear operator has Fourier symbol -i xi1/|xi|^2, so the semigroup acts
as the unimodular multiplier exp(-i t xi1/|xi|^2). Besides the grid-based
multiplier we provide a stationary-phase analysis of the frequency-space
phase phi(xi) = (x/t).xi - xi1/|xi|^2, and the split high/low frequency
sup-norm bound used to convert weighted L2 control into pointwise decay.

The real symbol g(xi) = xi1/|xi|^2, its gradient and its Hessian are defined
here once, vectorized; the resonance phase is built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    ConfigurationError,
    Grid2D,
    SpectralField2D,
    besov_norm,
    grid_operators,
    homogeneous_sobolev_norm,
    linf_norm,
    require_mean_zero,
    sobolev_norm,
    weighted_profile_norm,
)


@dataclass
class DecayFit:
    exponent: float
    constant: float
    c_emp: float
    sup_norms: np.ndarray          # |semigroup(t) g|_Linf at each time
    besov311: float                # |g|_{B^3_{1,1}}


# ---------------------------------------------------------------------------
# the symbol g(v) = v1/|v|^2 and its derivatives, at points v of shape (..., 2)
#
# Unpacking v.T yields the two coordinate arrays (two scalars for a single
# point); transposing back restores the leading axes.

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


def free_flow(grid: Grid2D, t: float) -> np.ndarray:
    """E(t) = exp(-i t xi1/|xi|^2) on the half spectrum of grid: the free flow.
    The largest |xi1|/|xi|^2 is 1/dxi, so a t with |t|/dxi >= 2^53, which
    leaves float64 no digit of the phase mod 2 pi, is refused."""
    if not abs(float(t)) / grid.dxi < 2.0 ** 53:
        raise ConfigurationError(f"free-flow time t={float(t)!r} at L={grid.box_length!r}: "
                                 "|t| L/(2 pi) >= 2^53 leaves float64 no digit of the phase")
    return np.exp(-1j * t * grid_operators(grid).symbol)


def apply_semigroup(f: SpectralField2D, t: float) -> SpectralField2D:
    """modes times E(t), in that operand order (a SIMD complex multiply can
    round E * modes apart); unitary on L2. The symbol is odd, so the result
    is again the half spectrum of a real field."""
    require_mean_zero(f)
    return SpectralField2D(f.grid, np.multiply(f.modes, free_flow(f.grid, t)))


# ---------------------------------------------------------------------------
# stationary phase

_NORM_RANGE = (2.0 ** -450, 2.0 ** 450)   # lengths whose squares neither overflow nor underflow


def norm(v):
    """Euclidean length over the last axis of a (..., 2) array-like, vectorised
    sqrt(v1 v1 + v2 v2). Where that is zero, not finite or outside
    _NORM_RANGE, a square may have overflowed or lost its digits to underflow,
    so those entries take np.hypot, which does neither."""
    v = np.asarray(v, dtype=float)
    v1, v2 = v[..., 0], v[..., 1]
    with np.errstate(over="ignore", under="ignore"):
        r = np.asarray(np.sqrt(v1 * v1 + v2 * v2))
    ok = (r >= _NORM_RANGE[0]) & (r <= _NORM_RANGE[1])
    if not ok.all():
        far = ~ok
        r[far] = np.hypot(v1[far], v2[far])
    return r[()]


def phase_gradient(x_over_t, xi):
    """grad of phi(xi) = (x/t).xi - xi1/|xi|^2."""
    return np.asarray(x_over_t, dtype=float) - symbol_grad(np.asarray(xi, dtype=float))


def stationary_roots(x_over_t):
    """The roots of grad phi = 0 for each x/t of a (..., 2) batch.

    In polar coordinates the gradient equation reads
    x/t = -(1/r^2) (cos 2theta, sin 2theta), which pins r = |x/t|^(-1/2)
    and leaves two antipodal angles; this closed form is the root to
    rounding. Returns the two candidates, (..., 2, 2), and whether each is
    found, its residual below 1e-10 and |xi| in the shell [1/4, 4], (..., 2);
    none is found for x/t zero, non-finite or with r outside.
    """
    v = np.asarray(x_over_t, dtype=float)
    lead, v = v.shape[:-1], v.reshape(-1, 2)
    half = 0.5 * np.arctan2(-v[:, 1], -v[:, 0])
    theta = np.stack([half, half + np.pi], -1).ravel()
    v = np.repeat(v, 2, axis=0)                      # one row per candidate
    lo, hi = 0.25, 4.0                               # the shell
    with np.errstate(divide="ignore"):
        r = norm(v) ** -0.5
    live = (lo <= r) & (r <= hi)
    xi = np.where(live, r, np.nan)[:, None] * np.stack([np.cos(theta), np.sin(theta)], -1)
    size = norm(xi)
    found = (norm(phase_gradient(v, xi)) < 1e-10) & (lo <= size) & (size <= hi)
    return xi.reshape(lead + (2, 2)), found.reshape(lead + (2,))


def hessian_det(xi):
    """Closed-form determinant of the Hessian of phi, -symbol_hess: -4/|xi|^6 on (..., 2)."""
    xi = np.asarray(xi, dtype=float)
    m2 = xi[..., 0] ** 2 + xi[..., 1] ** 2
    if np.any(m2 == 0.0):
        raise ValueError("Hessian determinant undefined at xi = 0")
    return -4.0 / m2 ** 3


# ---------------------------------------------------------------------------
# measured decay

def decay_curve(g: SpectralField2D, times) -> DecayFit:
    """Fit the power law of |semigroup(t) g|_Linf over the given times."""
    times = np.asarray(times, dtype=float)
    if times.size < 2 or np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ConfigurationError("times must be positive and increasing, >= 2 entries")
    sups = np.array([linf_norm(apply_semigroup(g, t)) for t in times])
    if np.any(sups <= 0):
        raise ConfigurationError("sup-norm vanished: the data has no modes on the grid")
    slope, intercept = np.polyfit(np.log(times), np.log(sups), 1)
    b311 = besov_norm(g)
    c_emp = float(np.max(times * sups)) / b311 if b311 > 0 else np.inf
    return DecayFit(exponent=float(slope), constant=float(np.exp(intercept)),
                    c_emp=c_emp, sup_norms=sups, besov311=b311)


def split_bound(mu: float) -> tuple[float, float]:
    """(1/p, A(mu)) of the split bound, for mu in (0, 1): 1/p = 1 + mu - 1/(1 + mu)
    and A(mu) = mu^(-(1-mu)^2 / (2 (1+mu)^2)), which blows up as mu -> 0."""
    if not 0.0 < mu < 1.0:
        raise ConfigurationError("mu must lie in (0, 1)")
    return 1.0 + mu - 1.0 / (1.0 + mu), mu ** (-((1.0 - mu) ** 2) / (2.0 * (1.0 + mu) ** 2))


def split_decay_bound(f: SpectralField2D, times, N: float, mu: float, k: int) -> list[float]:
    """High/low frequency sup-norm bound with implicit constant 1, at each
    of the times; the three norms of f are computed once:

        2^k N^-k |f|_{H^(3+k)}
        + t^(-1 + 2/p) N^(2 mu + 12/p) A(mu) (|D^3 f|_L2 + |D^3 x f|_L2).

    The powers are float64, so they overflow to inf; a bound that is not finite is refused.
    """
    if not (all(t > 0 for t in times) and N > 0 and k >= 1):
        raise ConfigurationError("need t > 0, N > 0, k >= 1")
    inv_p, amp = split_bound(mu)
    norms = homogeneous_sobolev_norm(f, 3.0) + weighted_profile_norm(f)[1]
    N = np.float64(N)
    with np.errstate(over="ignore", invalid="ignore"):
        high = 2.0 ** np.float64(k) * N ** (-k) * sobolev_norm(f, 3 + k)
        bounds = [high + t ** (-1.0 + 2.0 * inv_p) * N ** (2.0 * mu + 12.0 * inv_p) * amp * norms
                  for t in np.asarray(times, dtype=float)]
    if not np.all(np.isfinite(bounds)):
        raise ConfigurationError(f"split bound not finite at N={float(N)!r}, mu={mu!r}, k={k}")
    return [float(b) for b in bounds]
