"""Discrete N-periodic functions, their Bloch transform, and norms.

Functions live on a uniform grid of P = m_x * N points covering [0, N), with
m_x samples per unit cell, stored as arrays of shape (P, n_components).

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


@dataclass
class GridFunction:
    """Samples of an N-periodic vector-valued function on a uniform grid."""

    n_period: int
    values: np.ndarray      # (P, n), P = m_x * n_period

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ValueError(f"values must be 1- or 2-dimensional, got shape {vals.shape}")
        if vals.shape[0] % self.n_period != 0:
            raise ValueError(
                f"{vals.shape[0]} samples do not divide into {self.n_period} cells")
        self.values = vals

    @property
    def n_points(self):
        return self.values.shape[0]

    @property
    def n_components(self):
        return self.values.shape[1]

    @property
    def m_x(self):
        return self.values.shape[0] // self.n_period

    @property
    def spacing(self):
        return 1.0 / self.m_x

    @property
    def x(self):
        return np.arange(self.n_points) / self.m_x

    def interp(self, points, deriv=0):
        """Trigonometric interpolation (and differentiation) at arbitrary points.

        Evaluates sum_m c_m (i omega_m)^deriv e^{i m theta}, theta = 2 pi x / N,
        over the P modes m = lo..lo+P-1, lo = -floor(P/2) (fftfreq order, so
        an even P keeps its Nyquist term at -P/2).  Splitting m = lo + a + b*B
        with B = ceil(sqrt(P)) factors every exponential as
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
        if deriv:
            omega = TWO_PI * (lo + np.arange(P)) / self.n_period
            coeffs[:P] *= (1j * omega[:, None]) ** deriv
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

    def copy(self):
        return GridFunction(self.n_period, self.values.copy())


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


def from_callable(fn, n_period, m_x):
    """Sample a callable of x into a GridFunction."""
    vals = np.asarray(fn(grid_points(n_period, m_x)))
    return GridFunction(n_period, vals)


def from_profile(profile, n_period, m_x, shift=0.0):
    """Sample phi(x + shift) exactly by synthesizing one cell and tiling it.

    The cell carries the coefficients c_l e^{2 pi i l shift} of the ones
    that ``bloch.grid_modes`` keeps on m_x points (it refuses an m_x that
    would drop more than a negligible tail).
    """
    from .bloch import grid_modes       # bloch imports this module
    m_x, coeffs = grid_modes(profile, m_x)
    ell = fourier.modes(fourier.trunc_order(coeffs))
    phases = np.exp(TWO_PI * 1j * ell * np.mod(shift, 1.0))
    cell = fourier.synth_grid(phases[:, None] * coeffs, m_x)
    return GridFunction(n_period, np.tile(cell, (n_period, 1)))


# ---------------------------------------------------------------------------
# Bloch transform

@dataclass
class BlochCoefficients:
    """Per-frequency 1-periodic Fourier coefficients of an N-periodic function.

    ``coeffs[j, l, :]`` multiplies e^{i xi_j x} * e^{2 pi i l x} with both the
    frequency index j and the cell mode l signed in FFT wrap order, so slot
    (j, l) carries the global mode of frequency xi_j + 2*pi*l exactly.
    """

    n_period: int
    coeffs: np.ndarray          # (N, m_x, n) complex
    was_real: bool = True

    @property
    def m_x(self):
        return self.coeffs.shape[1]

    @property
    def n_components(self):
        return self.coeffs.shape[2]

    @property
    def frequencies(self):
        """Signed Bloch frequencies 2*pi*j/N in FFT wrap order."""
        return frequency_lattice(self.n_period)

    def copy(self):
        return BlochCoefficients(self.n_period, self.coeffs.copy(), self.was_real)


def cell_modes(m_x):
    """Signed integers 0, 1, ..., -1 in FFT wrap order.

    These index the 1-periodic cell modes l of an m_x-point cell (m_x odd
    recommended) and, for m_x = N, the Bloch lattice j of N-periodic functions.
    Every frequency and mode list of the package comes in this one order.
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


def bloch_transform(gf):
    """Exact discrete Bloch transform of a grid function."""
    N = gf.n_period
    c = np.fft.fft(gf.values, axis=0) / gf.n_points
    beta = N * c[_mode_slots(N, gf.m_x)]
    return BlochCoefficients(N, beta, was_real=np.isrealobj(gf.values))


def bloch_inverse(bc):
    """Invert the Bloch transform back to grid samples."""
    N = bc.n_period
    P = N * bc.m_x
    c = np.empty((P, bc.n_components), dtype=complex)
    c[_mode_slots(N, bc.m_x).reshape(-1)] = bc.coeffs.reshape(P, bc.n_components) / N
    vals = np.fft.ifft(c * P, axis=0)
    if bc.was_real:
        vals = vals.real
    return GridFunction(N, vals)


def cell_norms_sq(bc):
    """||(B g)(xi_j, .)||^2_{L2(0,1)} for each frequency j."""
    return np.sum(np.abs(bc.coeffs) ** 2, axis=(1, 2))


# ---------------------------------------------------------------------------
# norms and inner products on [0, N)

def inner_l2(f, g):
    """<f, g> = integral over [0, N) of conj(f) . g (exact for band-limited data)."""
    return complex(np.vdot(f.values, g.values)) * f.spacing


def norm_l2(gf):
    return float(np.sqrt(np.sum(np.abs(gf.values) ** 2) * gf.spacing))


def resample(gf, m_x):
    """The trigonometric interpolant of the real ``gf`` on m_x points per
    cell; an even grid's Nyquist mode is split evenly between +-P/2.  Below
    gf.m_x the modes the grid cannot hold are dropped."""
    n_points = gf.n_period * m_x
    if n_points == gf.n_points:
        return gf
    spec = np.fft.rfft(gf.values, axis=0)
    if gf.n_points % 2 == 0:
        spec[-1] *= 0.5
    vals = np.fft.irfft(spec, n=n_points, axis=0) * (n_points / gf.n_points)
    return GridFunction(gf.n_period, vals)


def quadrature_samples(gf, band=None):
    """``gf`` where a perturbation's size is measured (``resample``): on
    max(m_x, PERTURBATION_QUADRATURE) points per cell, or for global modes
    |m| <= ``band`` on the fewest odd ones >= that constant that hold them."""
    fewest = gf.m_x if band is None else -(-2 * (band + 1) // gf.n_period) | 1
    return resample(gf, max(fewest, PERTURBATION_QUADRATURE))


def norm_l1(gf):
    """integral of the pointwise Euclidean magnitude (trapezoid = plain sum)."""
    return float(np.sum(np.linalg.norm(gf.values, axis=1)) * gf.spacing)


def norm_linf(gf):
    return float(np.max(np.linalg.norm(gf.values, axis=1)))


def norm_h(gf, s):
    """Sobolev norm via global multipliers (1 + omega^2)^{s/2}."""
    P = gf.n_points
    c = np.fft.fft(gf.values, axis=0) / P
    omega = TWO_PI * np.fft.fftfreq(P, d=1.0 / P) / gf.n_period
    weights = (1.0 + omega ** 2) ** s
    total = np.sum(weights[:, None] * np.abs(c) ** 2) * gf.n_period
    return float(np.sqrt(total))


def derivative_values(values, n_period, order=1):
    """Spectral x-derivative of N-periodic samples on the point axis of a
    (..., P, n) array: every (P, n) slice is differentiated on its own."""
    P = values.shape[-2]
    c = np.fft.fft(values, axis=-2)
    omega = TWO_PI * np.fft.fftfreq(P, d=1.0 / P) / n_period
    c = c * (1j * omega[:, None]) ** order
    vals = np.fft.ifft(c, axis=-2)
    if np.isrealobj(values):
        vals = vals.real
    return vals


def derivative(gf, order=1):
    """Spectral derivative on the grid."""
    return GridFunction(gf.n_period,
                        derivative_values(gf.values, gf.n_period, order))
