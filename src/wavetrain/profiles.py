"""Periodic wave profiles: Newton solver and serialization.

A profile is a 1-periodic solution phi of

    k^2 phi'' + k c phi' + f(phi) = 0,

found as Fourier coefficients on modes -M..M together with one free scalar
(the wave speed c, or the spatial scale k), pinned by the phase condition
<guess', phi>_{L2(0,1)} = 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier
from .errors import (
    DegenerateProfileError,
    ModelParameterError,
    ProfileConvergenceError,
)
from .models import make_model

TWO_PI = 2.0 * np.pi

_SCHEMA_VERSION = 1

# Newton systems with a smaller 1-norm reciprocal condition number are
# refused: machine epsilon, twice the LAPACK dlamch('E') below which
# scipy.linalg.solve warns
_RCOND_MIN = np.finfo(float).eps

_CONSTANT_STATE_L2 = 1e-6          # ||phi'||_{L2(0,1)} of a constant state

# nagumo_guess's k as a fraction of the linearization value
NAGUMO_DETUNE = 0.95


@dataclass
class WaveProfile:
    """A solved wave train: model, truncation, scales, coefficients."""

    model: object
    m_f: int
    k: float
    c: float
    coeffs: np.ndarray            # (2*m_f+1, n) complex, Hermitian
    residual_norm: float
    info: dict = field(default_factory=dict)
    # the Bloch-fiber store at the Hill truncation (see bloch.fiber_store)
    _fiber_store: object = field(default=None, init=False, repr=False,
                                 compare=False)

    @property
    def n(self):
        return self.coeffs.shape[1]

    def __call__(self, x, deriv=0):
        return fourier.synth(self.coeffs, x, deriv=deriv)

    def on_grid(self, grid_size):
        return fourier.synth_grid(self.coeffs, grid_size)

    def derivative_l2(self):
        """L2(0,1) norm of phi'."""
        return float(np.linalg.norm(fourier.deriv_coeffs(self.coeffs)))

    def amplitude(self):
        """Max of |phi(x)| (Euclidean across components) on a fine grid."""
        vals = self.on_grid(max(512, 4 * self.m_f + 4))
        return float(np.sqrt((vals * vals).sum(axis=1)).max())


def rgl_analytic(q, m_f=32):
    """Exact wave-train coefficients for the real Ginzburg-Landau model.

    phi(y) = sqrt(1-q^2) (cos 2 pi y, sin 2 pi y) with k = q/(2 pi), c = 0.
    """
    if not 0.0 < q < 1.0:
        raise ModelParameterError(
            f"rgl wave train needs 0 < q < 1 (wavenumber k = q/(2 pi) > 0, "
            f"amplitude sqrt(1-q^2)); got q={q}")
    amp = np.sqrt(1.0 - q * q)
    coeffs = np.zeros((2 * m_f + 1, 2), dtype=complex)
    coeffs[m_f + 1] = amp * np.array([0.5, -0.5j])
    coeffs[m_f - 1] = np.conj(coeffs[m_f + 1])
    return coeffs, q / TWO_PI, 0.0


def nagumo_guess(alpha, amplitude=0.1, m_f=32):
    """Small-oscillation guess around the middle rest state of the nagumo model.

    Returns (coeffs, k, c) with k the fraction NAGUMO_DETUNE of the
    linearization value sqrt(alpha(1-alpha))/(2 pi); nonconstant period-1
    orbits exist for k slightly below it (the period grows with amplitude).
    Solve with the wave speed free and k fixed: the scalar problem at c = 0
    is variational, which makes <phi', residual> vanish identically; freeing
    c absorbs that redundancy, while freeing k instead yields a singular
    bordered system.
    """
    coeffs = np.zeros((2 * m_f + 1, 1), dtype=complex)
    coeffs[m_f, 0] = alpha
    coeffs[m_f + 1, 0] = amplitude / 2.0
    coeffs[m_f - 1, 0] = amplitude / 2.0
    k_guess = NAGUMO_DETUNE * np.sqrt(alpha * (1.0 - alpha)) / TWO_PI
    return coeffs, k_guess, 0.0


def _residual(model, coeffs, k, c):
    m = fourier.trunc_order(coeffs)
    phi = fourier.synth_grid(coeffs, 4 * (m + 1))
    fhat = fourier.grid_coeffs(model.f(phi), m)
    ell = fourier.modes(m)
    sym = k * k * (TWO_PI * 1j * ell) ** 2 + k * c * (TWO_PI * 1j * ell)
    res = sym[:, None] * coeffs + fhat
    return res, phi


def solve_profile(model, guess, k, c, solve_for="c", tol=1e-10, max_iter=25):
    """Newton-solve the profile equation from coefficient guess ``guess``.

    ``solve_for`` selects the free scalar ("c" or "k"); the other of k, c stays
    fixed at the passed value. Raises ProfileConvergenceError on failure and
    DegenerateProfileError if the guess or the solution is constant.

    The bordered Newton system acts on the complex coefficient vector. For a
    real reaction term its Jacobian commutes with the conjugate flip
    c_l -> conj(c_{-l}), so the step is Hermitian up to rounding, which the
    update projects away.
    """
    if solve_for not in ("c", "k"):
        raise ValueError(f"solve_for must be 'c' or 'k', got {solve_for!r}")
    coeffs = np.array(guess, dtype=complex)
    m = fourier.trunc_order(coeffs)
    # project the guess onto real-valued functions (Hermitian symmetry)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[::-1]))
    gderiv = fourier.deriv_coeffs(coeffs)
    if np.linalg.norm(gderiv) < 1e-8:
        raise DegenerateProfileError("guess is a constant state; phase condition is singular")
    gflat = gderiv.reshape(-1)

    ell = fourier.modes(m)
    kk, cc = float(k), float(c)
    history = []
    rconds = []
    dim = coeffs.size
    for it in range(max_iter):
        res, phi = _residual(model, coeffs, kk, cc)
        # L2(0,1) norm of the mode-projected residual function
        rnorm = float(np.linalg.norm(res))
        history.append(rnorm)
        if not np.isfinite(rnorm):
            raise ProfileConvergenceError(
                f"residual became non-finite at iteration {it}", rnorm, history)
        if rnorm < tol:
            break

        that = fourier.grid_coeffs(model.df(phi), 2 * m)
        jac = np.zeros((dim + 1, dim + 1), dtype=complex)
        jac[:dim, :dim] = fourier.operator_matrix(ell, 0.0, kk * kk, kk * cc, that)
        if solve_for == "c":
            dscalar = (kk * (TWO_PI * 1j * ell))[:, None] * coeffs
        else:
            dscalar = ((2.0 * kk * (TWO_PI * 1j * ell) ** 2
                        + cc * (TWO_PI * 1j * ell)))[:, None] * coeffs
        jac[:dim, dim] = dscalar.reshape(-1)
        jac[dim, :dim] = np.conj(gflat)
        rhs = np.append(res.reshape(-1), np.vdot(gflat, coeffs.reshape(-1)))
        # the exact 1-norm reciprocal condition number, never above LAPACK's
        # estimate of it; 0 for an exactly singular jac
        rcond = 1.0 / float(np.linalg.cond(jac, 1))
        rconds.append(rcond)
        if not rcond >= _RCOND_MIN:         # also catches NaN
            raise ProfileConvergenceError(
                "singular Newton system (a continuous symmetry may make the chosen "
                f"free scalar redundant): reciprocal condition number {rcond:.3e}",
                rnorm, history)
        delta = np.linalg.solve(jac, -rhs)
        step = delta[:dim].reshape(coeffs.shape)
        coeffs = coeffs + 0.5 * (step + np.conj(step[::-1]))
        if solve_for == "c":
            cc += delta[dim].real
        else:
            kk += delta[dim].real
    else:
        raise ProfileConvergenceError(
            f"no convergence after {max_iter} iterations (residual {history[-1]:.3e})",
            history[-1], history)

    prof = WaveProfile(model, m, kk, cc, coeffs, rnorm,
                       info={"newton_residuals": history, "newton_rcond": rconds,
                             "solve_for": solve_for})
    if prof.derivative_l2() < _CONSTANT_STATE_L2:
        raise DegenerateProfileError("converged to a constant state")
    if prof.k <= 0.0:
        raise ProfileConvergenceError(f"converged to nonpositive k = {prof.k:.3e}",
                                      rnorm, history)
    return prof


def profile_residual(profile):
    """Recompute the mode-projected residual norm of a profile."""
    res, _ = _residual(profile.model, profile.coeffs, profile.k, profile.c)
    return float(np.linalg.norm(res))


def save_profile(profile, path):
    """Serialize a profile to JSON (doubles round-trip bit-faithfully)."""
    m = profile.m_f
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "model_id": profile.model.id,
        "params": {key: float(val) for key, val in sorted(profile.model.params.items())},
        "n": profile.n,
        "m_f": m,
        "k": float(profile.k),
        "c": float(profile.c),
        "coeffs": [
            [[float(z.real), float(z.imag)] for z in profile.coeffs[:, comp]]
            for comp in range(profile.n)
        ],
        "residual_norm": float(profile.residual_norm),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finite(val):
    return type(val) in (int, float) and math.isfinite(val)     # bools refused


def _require(ok, key, rule):
    if not ok:
        raise ValueError(f"profile field {key!r} must be {rule}")


def load_profile(path):
    """Read a profile written by ``save_profile``: ValueError names a
    malformed field, DegenerateProfileError refuses a constant state."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported profile schema {payload.get('schema_version')!r}")
    model = make_model(payload["model_id"], payload["params"])
    m, n, k, lists = (payload[key] for key in ("m_f", "n", "k", "coeffs"))
    _require(type(m) is int and m >= 1, "m_f", "an integer >= 1")
    _require(type(n) is int and type(lists) is list and n == len(lists) >= 1,
             "n", "an integer >= 1 counting the coefficient lists")
    _require(_finite(k) and k > 0.0, "k", "a finite number > 0")
    for key in ("c", "residual_norm"):
        _require(_finite(payload[key]), key, "a finite number")
    _require(all(type(pairs) is list and len(pairs) == 2 * m + 1
                 and all(type(pair) is list and len(pair) == 2
                         and all(map(_finite, pair)) for pair in pairs)
                 for pairs in lists),
             "coeffs", "n lists of 2 m_f + 1 pairs of finite numbers")
    coeffs = np.empty((2 * m + 1, n), dtype=complex)
    for comp, pairs in enumerate(lists):
        coeffs[:, comp] = [re + 1j * im for re, im in pairs]
    prof = WaveProfile(model, m, k, payload["c"], coeffs,
                       payload["residual_norm"], info={"loaded_from": str(path)})
    if prof.derivative_l2() < _CONSTANT_STATE_L2:
        raise DegenerateProfileError(f"profile {path} is a constant state")
    return prof
