"""Tests-side Littlewood-Paley oracles: the smooth shell projection, the
Riemann-sum L^p norm and the central-mass fraction, each computed one shell
or one field at a time. besov_norm and the boundary-contamination warning of
weighted_profile_norm are checked against them."""

import numpy as np

from bplab.spectral import SpectralField2D, grid_operators, lp_bump, real_samples, transform_inverse


def lp_project(f, j):
    """Restrict f to the dyadic shell |xi| ~ 2^j via the smooth bump."""
    return SpectralField2D(f.grid, f.modes * lp_bump(grid_operators(f.grid).mag / 2.0 ** j))


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
