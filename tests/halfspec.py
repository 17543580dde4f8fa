"""Tests-side bridge from the half spectrum that bplab stores to the whole
lattice that the full-spectrum oracles sum over."""

import numpy as np


def hermitian_extension(half):
    """The n x n Hermitian array whose leading n//2 + 1 columns are `half`,
    up to the columns 0 and n/2, which pair with themselves and so take the
    Hermitian part of theirs; these are the modes of the real field that
    irfft2 reads from `half`."""
    n, m = half.shape
    neg = np.conj(half[-np.arange(n) % n])          # conj F(-xi1, xi2)
    full = np.empty((n, n), dtype=complex)
    full[:, :m] = half
    full[:, m:] = neg[:, m - 2:0:-1]
    for col in (0, m - 1):
        full[:, col] = 0.5 * (half[:, col] + neg[:, col])
    return full


def full_wavenumbers(grid):
    """Meshgrids (xi1, xi2) of the whole lattice in FFT order, 'ij' indexing."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    return np.meshgrid(k, k, indexing="ij")
