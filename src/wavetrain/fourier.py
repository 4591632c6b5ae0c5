"""Fourier-coefficient utilities shared by the profile solver and spectral modules.

Conventions: a 1-periodic R^n-valued function is represented by complex
coefficients ``c`` of shape (2M+1, n) in signed-ascending mode order
l = -M..M, with Hermitian symmetry c[-l] = conj(c[l]) for real functions.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def modes(m):
    """Signed mode numbers -m..m."""
    return np.arange(-m, m + 1)


def trunc_order(coeffs):
    return (coeffs.shape[0] - 1) // 2


def synth(coeffs, x, deriv=0):
    """Evaluate sum_l c_l (2*pi*i*l)^deriv e^{2*pi*i*l*x} at arbitrary points."""
    x = np.asarray(x, dtype=float)
    m = trunc_order(coeffs)
    ell = modes(m)
    fac = (TWO_PI * 1j * ell) ** deriv if deriv else np.ones_like(ell, dtype=complex)
    phases = np.exp(TWO_PI * 1j * np.multiply.outer(x, ell))
    vals = phases @ (fac[:, None] * coeffs)
    return np.real(vals)


def synth_grid(coeffs, grid_size):
    """Evaluate on the uniform grid x_j = j/grid_size via zero-padded inverse FFT."""
    m = trunc_order(coeffs)
    if grid_size < 2 * m + 1:
        raise ValueError(f"grid_size {grid_size} cannot hold modes up to {m}")
    spec = np.zeros((grid_size, coeffs.shape[1]), dtype=complex)
    spec[modes(m) % grid_size, :] = coeffs
    return np.real(np.fft.ifft(spec, axis=0) * grid_size)


def grid_coeffs(values, m):
    """Fourier coefficients -m..m of samples on a uniform periodic grid.

    ``values`` has shape (G, ...), a vector- or matrix-valued function at
    each of the G points; the result has shape (2m+1, ...).
    """
    g = values.shape[0]
    if g < 2 * m + 1:
        raise ValueError(f"{g} samples cannot resolve modes up to {m}")
    spec = np.fft.fft(values, axis=0) / g
    ell = modes(m)
    return spec[ell % g]


def deriv_coeffs(coeffs):
    ell = modes(trunc_order(coeffs))
    return (TWO_PI * 1j * ell)[:, None] * coeffs


def operator_matrix(ells, xi, a2, a1, that, react_scale=1.0):
    """Dense matrix of a2 (d/dx + i xi)^2 + a1 (d/dx + i xi) + react_scale * T
    on Fourier modes ``ells``, where T is convolution with the matrix-valued
    coefficient array ``that`` (shape (2mt+1, n, n), signed-ascending).

    Ordering: unknowns are mode-major, component-minor; block (p, q) couples
    mode ells[p] to mode ells[q] through that[ells[p] - ells[q]].
    """
    ells = np.asarray(ells)
    n = that.shape[1]
    mt = (that.shape[0] - 1) // 2
    span = ells[:, None] - ells[None, :]
    if np.abs(span).max() > mt:
        raise ValueError("coefficient array too short for requested mode range")
    blocks = react_scale * that[span + mt]          # (L, L, n, n)
    a = np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).reshape(
        ells.size * n, ells.size * n
    ).astype(complex)
    zeta = xi + TWO_PI * ells
    sym = a2 * (1j * zeta) ** 2 + a1 * (1j * zeta)
    a[np.arange(ells.size * n), np.arange(ells.size * n)] += np.repeat(sym, n)
    return a

