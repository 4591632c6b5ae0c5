"""Discrete N-periodic functions, their Bloch transform, and norms.

Functions live on a uniform grid of P = m_x * N points covering [0, N), with
m_x samples per unit cell, stored as plain real arrays of shape
(P, n_components), or stacks (..., P, n_components) of them; the period N
comes from the caller.  ``GridFunction`` is their trigonometric interpolant.

The Bloch transform of an N-periodic grid function is exact on this grid: the
global DFT index m splits as m = j + l*N, giving for each admissible frequency
xi_j = 2*pi*j/N a 1-periodic amplitude with m_x Fourier coefficients.  The
inverse recombines them,

    g(x) = (1/N) * sum_j e^{i xi_j x} (B g)(xi_j, x),

and Parseval holds in the form
``integral_0^N |g|^2 = (1/N) * sum_j ||(B g)(xi_j, .)||^2_{L2(0,1)}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier

TWO_PI = 2.0 * np.pi

# points per cell (odd), at least, of the quadrature of a perturbation's size
# (evolve.random_perturbation scales to it; linear-decay divides its
# constants by it), so that a band-limited field has one size on every grid
PERTURBATION_QUADRATURE = 65

# multiple of its rounding level up to which a series carries no slope.  On
# the reference run (rgl q = 0.3, N = 16, l1_sobolev 1e-2, seed 0) every
# |gamma_t| sample of 10 <= t <= N^2/10 lies within 2.6 times the level
# eps max|u| / h, while ||v||_{H^3} ends 1e8 times above eps max|u|.
ROUNDING_FLOOR = 100.0


@dataclass
class GridFunction:
    """The trigonometric interpolant of N-periodic samples ``values`` (P, n)."""

    n_period: int
    values: np.ndarray

    @property
    def n_points(self):
        return self.values.shape[0]

    def interp(self, points):
        """Trigonometric interpolation at arbitrary points.

        Evaluates sum_m c_m e^{i m theta}, theta = 2 pi x / N,
        over the P modes m = lo..lo+P-1, lo = -floor(P/2), in ascending
        order (the set fftfreq holds, so an even P keeps its Nyquist term at
        -P/2).  Splitting m = lo + a + b*B with B = ceil(sqrt(P)) factors
        every exponential as
        e^{i(lo + bB) theta} e^{i a theta}: one product with a (points, B)
        table and one row-wise contraction with a (points, ceil(P/B)) table
        give the exact sum with O(P^{3/2}) exponentials and memory instead of
        a dense (points, P) matrix.
        """
        P, n = self.values.shape
        B = int(np.ceil(np.sqrt(P)))
        C = -(-P // B)
        lo = -(P // 2)
        coeffs = np.zeros((B * C, n), dtype=complex)
        coeffs[:P] = np.fft.fftshift(np.fft.fft(self.values, axis=0), axes=0) / P
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        theta = TWO_PI * np.mod(pts, self.n_period) / self.n_period
        # blocks[a, b*n + k] is component k of the coefficient of mode lo + a + bB
        blocks = coeffs.reshape(C, B, n).transpose(1, 0, 2).reshape(B, C * n)
        partial = (_unit_phases(theta, np.arange(B)) @ blocks).reshape(-1, C, n)
        out = np.einsum("pb,pbn->pn", _unit_phases(theta, lo + B * np.arange(C)),
                        partial)
        if np.isrealobj(self.values):
            out = out.real
        return out


def _unit_phases(theta, freqs):
    """The table e^{i f theta} for points theta (rows) and integers f (columns)."""
    table = np.empty((theta.size, freqs.size), dtype=complex)
    arg = np.multiply.outer(theta, freqs, out=table.real)
    np.sin(arg, out=table.imag)
    np.cos(arg, out=arg)
    return table


def grid_points(n_period, m_x):
    """The P = m_x * N sample locations in [0, N)."""
    return np.arange(m_x * n_period) / m_x


def from_profile(profile, n_period, m_x, shift=0.0):
    """Sample phi(x + shift), shape (P, n), exactly by synthesizing one cell
    and tiling it.

    The cell carries the coefficients c_l e^{2 pi i l shift} of the ones
    that ``bloch.grid_modes`` keeps on m_x points (it refuses an m_x that
    would drop more than a negligible tail).
    """
    from .bloch import grid_modes       # bloch imports this module
    m_x, coeffs = grid_modes(profile, m_x)
    ell = fourier.modes(fourier.trunc_order(coeffs))
    phases = np.exp(TWO_PI * 1j * ell * np.mod(shift, 1.0))
    cell = fourier.synth_grid(phases[:, None] * coeffs, m_x)
    return np.tile(cell, (n_period, 1))


# ---------------------------------------------------------------------------
# Bloch transform

def cell_modes(m_x):
    """Signed integers 0, 1, ..., -1 in FFT wrap order.

    These index the 1-periodic cell modes l of an m_x-point cell (m_x odd
    recommended) and, for m_x = N, the Bloch lattice j of N-periodic functions:
    the Bloch fibers, the engine's slots and ``frequency_lattice`` come in this
    order. Profile coefficients do not: they run signed-ascending, l = -M..M
    (see ``fourier``), and ``GridFunction.interp`` sums its modes from -P//2
    upward.
    """
    return np.fft.fftfreq(m_x, d=1.0 / m_x).astype(int)


def frequency_lattice(n_period):
    """The N admissible Bloch frequencies 2*pi*j/N, j in FFT wrap order.

    Even N keeps -pi and drops +pi; index 0 is always xi = 0.
    """
    if n_period < 1:
        raise ValueError(f"period multiple must be >= 1, got {n_period}")
    return TWO_PI * cell_modes(n_period) / n_period


def _mode_slots(n_period, m_x):
    """FFT slot of global mode j + l*N for signed j (rows) and signed l (cols).

    The signed decompositions j + l*N cover P consecutive integers, so the map
    to slots mod P is a bijection and the transform below is exact.
    """
    P = n_period * m_x
    return np.mod(cell_modes(n_period)[:, None]
                  + cell_modes(m_x)[None, :] * n_period, P)


def bloch_transform(values, n_period):
    """Exact discrete Bloch transform of N-periodic samples on the point axis
    of a (..., P, n) array: the (..., N, m_x, n) coefficients whose slot
    [..., j, l, :] multiplies e^{i xi_j x} e^{2 pi i l x}, with j and l
    signed in FFT wrap order, so slot (j, l) carries the global mode of
    frequency xi_j + 2 pi l exactly."""
    P = values.shape[-2]
    if P % n_period:
        raise ValueError(f"{P} samples do not divide into {n_period} cells")
    c = np.fft.fft(values, axis=-2) / P
    return n_period * c[..., _mode_slots(n_period, P // n_period), :]


def bloch_inverse(coeffs):
    """The complex samples, shape (..., P, n), of the (..., N, m_x, n) Bloch
    coefficients ``coeffs``; a real function is the real part."""
    *lead, N, m_x, n = coeffs.shape
    P = N * m_x
    # in place: a stack's transform holds one array of its size at a time
    c = np.empty((*lead, P, n), dtype=complex)
    c[..., _mode_slots(N, m_x).reshape(-1), :] = coeffs.reshape(*lead, P, n)
    c /= N
    c *= P
    return np.fft.ifft(c, axis=-2, out=c)


# ---------------------------------------------------------------------------
# norms on [0, N), of the (P, n) samples on the last two axes of an array:
# a float for one field, an array for a stack of them

def norm_l2(values, n_period):
    m_x = values.shape[-2] // n_period
    return np.sqrt(np.sum(np.abs(values) ** 2, axis=(-2, -1)) * (1.0 / m_x))


def resample(values, n_period, m_x):
    """The trigonometric interpolant of the real samples ``values`` on m_x
    points per cell; an even grid's Nyquist mode is split evenly between
    +-P/2.  Below the samples' own m_x the modes the grid cannot hold are
    dropped."""
    P = values.shape[-2]
    n_points = n_period * m_x
    if n_points == P:
        return values
    spec = np.fft.rfft(values, axis=-2)
    if P % 2 == 0:
        spec[..., -1, :] *= 0.5
    return np.fft.irfft(spec, n=n_points, axis=-2) * (n_points / P)


def quadrature_samples(values, n_period, band=None):
    """``values`` where a perturbation's size is measured (``resample``): on
    max(m_x, PERTURBATION_QUADRATURE) points per cell, or for global modes
    |m| <= ``band`` on the fewest odd ones >= that constant that hold them."""
    fewest = (values.shape[-2] // n_period if band is None
              else -(-2 * (band + 1) // n_period) | 1)
    return resample(values, n_period, max(fewest, PERTURBATION_QUADRATURE))


def norm_l1(values, n_period):
    """integral of the pointwise Euclidean magnitude (trapezoid = plain sum)."""
    m_x = values.shape[-2] // n_period
    return np.sum(np.linalg.norm(values, axis=-1), axis=-1) * (1.0 / m_x)


def norm_linf(values, n_period):
    return np.max(np.linalg.norm(values, axis=-1), axis=-1)


def pair_weights(n_points):
    """Multiplicity of each row m = 0..P//2 of the rfft of a real field on
    P = ``n_points`` samples: a row 0 < m < P/2 stands for the pair +-m."""
    m = np.arange(n_points // 2 + 1)
    return np.where((m == 0) | (2 * m == n_points), 1.0, 2.0)


def _half_frequencies(n_points, n_period):
    """The global frequencies 2 pi m / N of the rfft rows m = 0..P//2."""
    return TWO_PI * np.arange(n_points // 2 + 1) / n_period


def norm_h(values, n_period, s):
    """Sobolev norm of real samples via global multipliers
    (1 + omega^2)^{s/2}, summed over the rfft half by ``pair_weights``."""
    P = values.shape[-2]
    c = np.fft.rfft(values, axis=-2) / P
    weights = pair_weights(P) * (1.0 + _half_frequencies(P, n_period) ** 2) ** s
    return np.sqrt(np.sum(weights[:, None] * np.abs(c) ** 2, axis=(-2, -1))
                   * n_period)


def derivative_values(values, n_period):
    """Spectral x-derivative of real N-periodic samples on the point axis of
    a (..., P, n) array: every (P, n) slice is differentiated on its own.
    An even grid's Nyquist mode has no derivative that stays real, and
    drops out."""
    P = values.shape[-2]
    c = np.fft.rfft(values, axis=-2)
    c *= 1j * _half_frequencies(P, n_period)[:, None]
    return np.fft.irfft(c, n=P, axis=-2)
