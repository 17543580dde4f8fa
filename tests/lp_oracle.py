"""Tests-side Littlewood-Paley oracles: the smooth shell projection, the
Riemann-sum L^p norm and the central-mass fraction, each computed one shell
or one field at a time, and the B^3_{1,1} norm from them. besov_norm and the
boundary-contamination warning of weighted_profile_norm are checked against
them."""

import numpy as np

from bplab.spectral import (
    SpectralField2D,
    grid_operators,
    lp_bump,
    lp_shell_range,
    real_samples,
    transform_inverse,
)


def lp_project(f, j):
    """Restrict f to the dyadic shell |xi| ~ 2^j via the smooth bump."""
    return SpectralField2D(f.grid, f.modes * lp_bump(grid_operators(f.grid).mag / 2.0 ** j))


def besov_reference(f):
    """The B^3_{1,1} norm summed as besov_norm sums it, with no cached or
    pruned shell: a full-width multiplier and one irfft2 per shell, no term
    for a shell whose bump has no mode on the grid, and 0.0 for a shell whose
    product has no nonzero mode."""
    g = f.grid
    j_min, j_max = lp_shell_range(g)
    terms = []
    for j in range(j_min, j_max + 1):
        if not lp_bump(grid_operators(g).mag / 2.0 ** j).any():
            continue
        piece = lp_project(f, j)
        terms.append(2.0 ** (3.0 * j) * float(np.sum(np.abs(real_samples(piece))) * g.dx ** 2)
                     if np.any(piece.modes) else 0.0)
    return float(np.sum(terms))


def lp_phys_norm(f, p):
    """L^p norm of the physical-space field by Riemann sum (p may be inf)."""
    s = np.abs(real_samples(f))
    if np.isinf(p):
        return float(s.max())
    return float(np.sum(s ** p) * f.grid.dx ** 2) ** (1.0 / p)


def central_mass_fraction(f):
    """Fraction of the |f|^2 mass inside the central half-box |x1|, |x2| <= L/4."""
    g = f.grid
    samples = transform_inverse(f).samples
    keep = np.abs(g.x_coords()) <= g.box_length / 4.0
    total = float(np.sum(samples ** 2))
    return float(np.sum(samples[np.ix_(keep, keep)] ** 2)) / total if total else 1.0
