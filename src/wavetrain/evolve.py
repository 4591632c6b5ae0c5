"""Time integration in the co-moving frame and modulation extraction.

States evolve under u_t = k u_xx + c u_x + f(u)/k on [0, N) with spectral
space discretization: the linear part is applied exactly through its Fourier
symbol, the reaction term pointwise on the grid.

Modulation data (gamma, psi) is read off a trajectory in two independent
ways: by direct spectral projection of u - phi at each time, and through the
Duhamel representation, iterating the nonlinear integral equations for the
phase variables and the residual to a joint fixed point.  In both routes the
perturbation is

    v(x) = u_mod(x) - phi(x),   u_mod(x) = u(x - gamma/N - psi(x)),

so the wave is undone by a mean translation gamma/N plus a local phase psi.
The modulation variables move between functions as arrays stacked over the
T snapshots: gamma (T,), psi (T, P) and v (T, P, n), with phi sampled once
per run (``ExperimentResult.base``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import _pocketfft_umath as pocketfft

from . import grids
from .errors import (
    BlowUpError,
    ExtractionDivergenceError,
    PhaseWarpError,
    ResolutionError,
    ShiftFitError,
)

TWO_PI = 2.0 * np.pi

# profile grid points on which stable_dt_limit samples the stiffness of Df(phi)
DT_LIMIT_SAMPLES = 256

# largest fraction of a snapshot's energy in the global modes |m| > P/3 that
# run_experiment accepts before it raises ResolutionError.  Measured on rgl
# (N = 4 and 8, sup amplitudes 0.1 to 2, m_x 17 to 65 against m_x = 129):
# every run whose tail passed 1e-9 had gamma_inf off by more than 2e-6
# relative, and no run on m_x = 65 passed 1.3e-13.  A smaller tail does not
# certify gamma_inf for data that large: tails of 3e-10 came with errors
# up to 1e-4.
SNAPSHOT_TAIL_TOL = 1e-9

# snapshot times of default_snapshot_times: every SNAPSHOT_SPACING up to
# SNAPSHOT_DENSE_UNTIL, then geometric by SNAPSHOT_RATIO
SNAPSHOT_DENSE_UNTIL = 10.0
SNAPSHOT_SPACING = 0.25
SNAPSHOT_RATIO = 1.15

# [start, end] of the quintic ramp chi that switches the modulation ansatz on
CHI_RAMP = (0.5, 1.0)

# fixed-point sweeps extract_modulation_duhamel makes before it gives up, and
# the sup update |d gamma| + ||d psi||_{L2} at which it stops
DUHAMEL_MAX_SWEEPS = 25
DUHAMEL_TOL = 1e-8

# sup-norm of a snapshot above which run_experiment raises BlowUpError
BLOWUP_LIMIT = 1e6

# Newton steps phase_convergence takes at most to the shift of u(T), and the
# step (in cells) below which it stops.  From the projection's gamma(T)/N it
# settles in 1 step on the reference and ACCEPTANCE 10 runs (rgl, N = 16),
# in 2 on a sup-0.1 datum at N = 4 and in 3 on the phase-mass datum of the
# tests; unperturbed runs at N = 2, 16 and 64 land within 1.2e-16 of 0.
SHIFT_NEWTON_STEPS = 8
SHIFT_TOL = 1e-13


# ---------------------------------------------------------------------------
# stepper

class ImexStepper:
    """Crank-Nicolson on the linear symbol, 2-step Adams-Bashforth reaction.

    The spectral state is component-major, shape (n, P//2+1), so every FFT
    runs along the contiguous last axis and the 1-D symbol broadcasts over
    the components.  The reaction model still sees grid values as (P, n),
    through the transposed view.

    A step is u <- lin u + w_new g - w_old g_prev, g the transform of f(u),
    lin = (1 + dt L/2)/den and w_new, w_old = (1.5, 0.5) dt/(k den) for the
    symbol L, den = 1 - dt L/2; equilibria are kept to rounding, not exactly.

    The FFTs call the pocketfft kernels behind np.fft.rfft/irfft directly,
    with the same factors (1 forward, 1/P back): the same bits, without the
    wrappers' per-call checks, which cost a fifth of a step at P = 272.
    """

    def __init__(self, profile, n_period, m_x, dt):
        self.profile = profile
        self.P = int(m_x) * int(n_period)
        omega = TWO_PI * np.fft.rfftfreq(self.P, d=1.0 / self.P) / int(n_period)
        k, c = profile.k, profile.c
        symbol = k * (1j * omega) ** 2 + c * (1j * omega)
        dt = float(dt)
        den = 1.0 - 0.5 * dt * symbol
        self.lin = (1.0 + 0.5 * dt * symbol) / den
        self.w_new = (1.5 * dt / k) / den
        self.w_old = (0.5 * dt / k) / den
        self._rfft = (pocketfft.rfft_n_even if self.P % 2 == 0
                      else pocketfft.rfft_n_odd)
        # reaction transforms written in turn, so prev_g is never overwritten
        self._grid = np.empty((profile.n, self.P))
        self._g = np.empty((2, profile.n, omega.size), dtype=complex)
        self._turn = 0
        self.prev_g = None

    def to_hat(self, values):
        """The (n, P//2+1) state of grid values of shape (P, n)."""
        out = np.empty((values.shape[1], self.P // 2 + 1), dtype=complex)
        return self._rfft(values.T, 1.0, out=out)

    def to_grid(self, u_hat):
        """Grid values of the state, shape (n, P): transpose for (P, n)."""
        return pocketfft.irfft(u_hat, 1.0 / self.P,
                               out=np.empty((u_hat.shape[0], self.P)))

    def step(self, u_hat):
        g = self._g[self._turn]
        self._turn ^= 1
        pocketfft.irfft(u_hat, 1.0 / self.P, out=self._grid)
        self._rfft(self.profile.model.f(self._grid.T).T, 1.0, out=g)
        prev = g if self.prev_g is None else self.prev_g
        out = self.lin * u_hat
        out += self.w_new * g
        out -= self.w_old * prev
        self.prev_g = g
        return out


_SCHEMES = {"imex": ImexStepper}


def stable_dt_limit(profile):
    """Heuristic explicit-term step bound 0.5 / rho(Df(phi)/k).

    The reaction term is integrated explicitly; its stiffness along the wave
    is estimated by the largest spectral radius of Df(phi(x))/k on a fine
    profile grid.
    """
    vals = profile.on_grid(max(DT_LIMIT_SAMPLES, 4 * profile.m_f + 4))
    jac = profile.model.df(vals) / profile.k
    rho = np.max(np.abs(np.linalg.eigvals(jac)))
    return 0.5 / max(float(rho), 1e-300)


# ---------------------------------------------------------------------------
# initial data

def fourier_band(n_period, m_x, band=None):
    """The band of global modes |m| <= band of a "fourier" perturbation
    (default 3N); ValueError unless it lies below the grid's Nyquist mode."""
    band = 3 * n_period if band is None else int(band)
    top = n_period * m_x // 2 - 1
    if band > top:
        raise ValueError(
            f"perturbation band {band} exceeds the highest mode {top} of the "
            f"grid (N = {n_period}, m_x = {m_x})")
    return band


def random_perturbation(n_period, m_x, n_components, seed, amplitude,
                        band=None, kind="fourier", normalize="sup", k_sob=3):
    """Smooth random N-periodic field of prescribed size ``amplitude``, as
    (P, n) samples.

    Deterministic in ``seed`` (counter-based Philox generator).  "fourier"
    draws Gaussian coefficients on global modes |m| <= band (default 3N),
    which must lie below the grid's Nyquist mode (else ValueError);
    "bump" places a Gaussian bump of unit-cell width at a random location.

    ``normalize`` picks the norm that is scaled to ``amplitude``: "sup" for
    the maximum, "l1" for the L1(0, N) norm, "l1_sobolev" for the sum
    ||.||_{L1} + ||.||_{H^k_sob} (the smallness quantity of the nonlinear
    stability statement).  The norm is taken on the field's trigonometric
    interpolant (``grids.quadrature_samples``); for "fourier" its points per
    cell follow from N and the band alone, so a seed draws the same field on
    every grid.
    """
    P = n_period * m_x
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    x = grids.grid_points(n_period, m_x)
    if kind == "fourier":
        band = fourier_band(n_period, m_x, band)
        vals = np.zeros((P, n_components))
        for comp in range(n_components):
            c = np.zeros(P // 2 + 1, dtype=complex)
            c[0] = rng.standard_normal()
            c[1:band + 1] = (rng.standard_normal(band)
                             + 1j * rng.standard_normal(band))
            vals[:, comp] = np.fft.irfft(c, n=P) * P
    elif kind == "bump":
        x0 = rng.uniform(0.0, n_period)
        dist = np.abs((x - x0 + n_period / 2.0) % n_period - n_period / 2.0)
        shape = np.exp(-0.5 * (dist / 0.25) ** 2)
        weights = rng.standard_normal(n_components)
        vals = shape[:, None] * weights[None, :]
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if amplitude == 0.0:
        return np.zeros_like(vals)
    ref = grids.quadrature_samples(vals, n_period,
                                   band if kind == "fourier" else None)
    if normalize == "sup":
        size = grids.norm_linf(ref, n_period)
    elif normalize == "l1":
        size = grids.norm_l1(ref, n_period)
    elif normalize == "l1_sobolev":
        size = grids.norm_l1(ref, n_period) + grids.norm_h(ref, n_period, k_sob)
    else:
        raise ValueError(f"unknown normalization {normalize!r}")
    if size == 0.0:
        raise ValueError("degenerate random draw with zero amplitude")
    vals *= amplitude / size
    return vals


def quintic_smoothstep(t, lo, hi):
    """C^2 ramp: 0 below lo, 1 above hi, quintic polynomial between."""
    r = np.clip((np.asarray(t, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    out = r ** 3 * (10.0 - 15.0 * r + 6.0 * r ** 2)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# experiment driver

def write_snapshot(path, values, n_period, t):
    """Store the (P, n) state ``values`` of period ``n_period`` at time t as
    a little-endian binary blob.

    Layout: three int64 header words (N, m_x, components), one float64 time
    stamp, then the N*m_x by components state row-major as float64.
    """
    P, n = values.shape
    with open(path, "wb") as fh:
        np.array([n_period, P // n_period, n], dtype="<i8").tofile(fh)
        np.array([t], dtype="<f8").tofile(fh)
        np.ascontiguousarray(values, dtype="<f8").tofile(fh)


def read_snapshot(path):
    """Load a snapshot blob back into (values, n_period, t)."""
    with open(path, "rb") as fh:
        head = np.fromfile(fh, dtype="<i8", count=3)
        t = float(np.fromfile(fh, dtype="<f8", count=1)[0])
        vals = np.fromfile(fh, dtype="<f8")
    n_period, m_x, n_comp = (int(h) for h in head)
    return vals.reshape(m_x * n_period, n_comp), n_period, t


def default_snapshot_times(t_max):
    """Snapshots every SNAPSHOT_SPACING up to SNAPSHOT_DENSE_UNTIL, then
    geometric by SNAPSHOT_RATIO up to ``t_max``.

    ValueError for a negative ``t_max``, and when the geometric part
    cannot grow: ``t_max`` lies below the spacing, so the dense part ends at
    t = 0 short of it.
    """
    if t_max < 0.0:
        raise ValueError(f"snapshot times need t_max >= 0, got {t_max:g}")
    times = list(np.arange(0.0, min(SNAPSHOT_DENSE_UNTIL, t_max) + 1e-12,
                           SNAPSHOT_SPACING))
    t = times[-1]
    if t < t_max and t == 0.0:
        raise ValueError(
            f"snapshot times cannot grow geometrically from t = 0: t_max "
            f"({t_max:g}) must reach the spacing {SNAPSHOT_SPACING:g}")
    while t < t_max:
        t = min(t * SNAPSHOT_RATIO, t_max)
        times.append(t)
    return np.array(times)


@dataclass
class ExperimentResult:
    """Trajectory record: snapshots of u, shape (T, P, n), plus projection
    traces.

    ``inner`` holds the critical amplitudes of u - phi at each snapshot on
    the engine's N//2+1 stored lattice slots, shape (T, N//2+1), and
    ``gamma_raw`` its entry 0, the mean translation content.
    ``chi`` is the short-time ramp; the modulation ansatz uses
    gamma = chi * gamma_raw so the phase variables vanish at t = 0.
    ``snapshot_tail`` is the fraction of sum |u_hat_m|^2 in the global modes
    |m| > P/3 at each snapshot: the resolution the warp interpolation of
    :func:`modulation_frame` relies on.  ``base`` is phi on the run's grid,
    shape (P, n), sampled once for every reader of the run.  The profile,
    N and m_x are the engine's.
    """

    engine: object
    times: np.ndarray
    snapshots: np.ndarray
    base: np.ndarray
    inner: np.ndarray
    chi: np.ndarray
    snapshot_tail: np.ndarray
    n_steps: int

    @property
    def gamma_raw(self):
        return self.inner[:, 0].real

    @property
    def gamma(self):
        return self.chi * self.gamma_raw


def _spectral_tail(u_hat, n_points):
    """Fraction of sum_m |u_hat_m|^2 in the global modes |m| > P/3.

    ``u_hat`` is the rfft of a real field on P = ``n_points`` samples, so each
    row 0 < m < P/2 stands for the pair +-m.
    """
    energy = grids.pair_weights(n_points) * np.sum(np.abs(u_hat) ** 2, axis=1)
    total = float(np.sum(energy))
    high = 3 * np.arange(energy.size) > n_points
    return float(np.sum(energy[high])) / total if total > 0 else 0.0


def run_experiment(engine, perturbation, snapshot_times, *, dt=0.01,
                   scheme="imex"):
    """Integrate phi + ``perturbation`` on the grid of ``engine`` and record
    snapshots with projections.

    ``perturbation`` is (P, n) samples on the engine's grid (ValueError
    otherwise), for instance a :func:`random_perturbation`; the profile, N
    and m_x are the engine's.  Each snapshot time, the horizon included,
    rounds to its nearest whole step.
    Raises BlowUpError when the sup-norm passes BLOWUP_LIMIT or turns
    non-finite, and ResolutionError at the first snapshot whose
    ``snapshot_tail`` exceeds SNAPSHOT_TAIL_TOL.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} (have {sorted(_SCHEMES)})")
    profile, n_period, m_x = engine.profile, engine.n_period, engine.m_x
    stepper = _SCHEMES[scheme](profile, n_period, m_x, dt)

    base = grids.from_profile(profile, n_period, m_x)
    if perturbation.shape != base.shape:
        raise ValueError(
            f"the perturbation's grid {perturbation.shape} does not match "
            f"the engine's {base.shape}")
    u = base + perturbation

    snapshot_times = np.asarray(snapshot_times, dtype=float)
    snap_steps = np.unique(np.round(snapshot_times / dt).astype(int))

    u_hat = stepper.to_hat(u)
    snaps = np.empty((snap_steps.size, *base.shape))
    times, tails = [], []

    def record(step_index):
        snaps[len(times)] = vals = stepper.to_grid(u_hat).T
        sup = float(np.max(np.abs(vals))) if vals.size else 0.0
        t = step_index * dt
        if not np.isfinite(sup) or sup > BLOWUP_LIMIT:
            raise BlowUpError(f"solution reached sup-norm {sup:.3e} at t = {t:.4f}",
                              t=t)
        times.append(t)
        tails.append(_spectral_tail(u_hat.T, stepper.P))
        if not tails[-1] <= SNAPSHOT_TAIL_TOL:
            raise ResolutionError(
                f"the snapshot at t = {t:.4f} holds {tails[-1]:.2e} of its "
                f"energy in the modes |m| > P/3 (limit {SNAPSHOT_TAIL_TOL:g}): "
                f"m_x = {m_x} cell modes under-resolve the run; set a larger m_x")

    done = 0
    # non-finite values only occur on the way to the BlowUpError below, so
    # numpy's invalid-value warnings are just noise here
    with np.errstate(invalid="ignore", over="ignore"):
        for target in snap_steps.tolist():
            for _ in range(target - done):
                u_hat = stepper.step(u_hat)
            done = target
            record(done)

    times = np.array(times)
    return ExperimentResult(
        engine=engine,
        times=times,
        snapshots=snaps,
        base=base,
        inner=engine.amplitudes(engine.fibers(snaps - base)),
        chi=quintic_smoothstep(times, *CHI_RAMP),
        snapshot_tail=np.array(tails),
        n_steps=done,
    )


# ---------------------------------------------------------------------------
# nonuniform finite differences (for time derivatives of traces)

def fd_weights(nodes, x0, order):
    """Finite-difference weights at x0 for the given derivative order."""
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    C = np.zeros((n, order + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for kk in range(mn, 0, -1):
                    C[i, kk] = c1 * (kk * C[i - 1, kk - 1] - c5 * C[i - 1, kk]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for kk in range(mn, 0, -1):
                C[j, kk] = (c4 * C[j, kk] - kk * C[j, kk - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    return C[:, order]


def time_derivative(times, values):
    """Differentiate sampled traces on a nonuniform time grid.

    ``values`` has leading axis aligned with ``times``; interior points use
    centered five-point stencils, the ends one-sided ones.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    T = times.size
    stencil = min(5, T)
    if T < 2:
        raise ValueError(f"need at least 2 samples, got {T}")
    out = np.empty_like(values, dtype=float)
    half = stencil // 2
    for i in range(T):
        lo = min(max(i - half, 0), T - stencil)
        sl = slice(lo, lo + stencil)
        w = fd_weights(times[sl], times[i], 1)
        out[i] = np.tensordot(w, values[sl], axes=(0, 0))
    return out


# ---------------------------------------------------------------------------
# modulation extraction: direct projection route

def modulation_frame(result, i):
    """The local phase psi, shape (P,), and the modulated perturbation v,
    shape (P, n), at snapshot i, from the projections of u - phi.

    v undoes the extracted phases through the composition
    v(x) = u(x - gamma/N - psi(x)) - phi(x), evaluated by trigonometric
    interpolation of the snapshot.  Raises PhaseWarpError when the phase
    gradient reaches 1/2 and the warp stops being invertible.
    """
    N = result.engine.n_period
    psi = result.engine.synthesize_phase(result.chi[i] * result.inner[i])
    steep = float(np.max(np.abs(grids.derivative_values(psi, N))))
    if not np.isfinite(steep) or steep >= 0.5:
        raise PhaseWarpError(
            f"max |psi_x| = {steep:.3f} >= 1/2 at t = {result.times[i]:.3f}; "
            "the coordinate warp is not invertible")
    u = grids.GridFunction(N, result.snapshots[i])
    x = grids.grid_points(N, result.engine.m_x)
    return psi[:, 0], u.interp(x - result.gamma[i] / N - psi[:, 0]) - result.base


# ---------------------------------------------------------------------------
# nonlinear residual terms

def nonlinear_residual(result, gamma, psi_vals, v_vals):
    """The Duhamel source (Q + k R_x)/k at every snapshot of ``result``,
    shape (T, P, n), for the phases ``gamma`` (T,) and ``psi_vals`` (T, P)
    and the modulated perturbation ``v_vals`` (T, P, n):

    Q = (1 - psi_x) [f(phi+v) - f(phi) - Df(phi) v]
    R = -psi_t v - gamma_t v / N + c psi_x v + k (psi_x v)_x
        + k psi_x/(1-psi_x) v_x + k psi_x^2/(1-psi_x) phi',

    with gamma_t and psi_t from :func:`time_derivative`.  Raises
    PhaseWarpError at the first snapshot where psi_x reaches 1.
    """
    prof = result.engine.profile
    k, c, model = prof.k, prof.c, prof.model
    N = result.engine.n_period
    times = result.times
    psix = grids.derivative_values(psi_vals[..., None], N)
    steep = np.max(psix, axis=(1, 2))
    if np.any(steep >= 1.0):
        i = int(np.argmax(steep >= 1.0))
        raise PhaseWarpError(
            f"max psi_x = {steep[i]:.3f} >= 1 at t = {times[i]:.3f}; "
            "the 1/(1 - psi_x) residual factors are singular")
    psit = time_derivative(times, psi_vals)[..., None]
    gamma_t = time_derivative(times, gamma)[:, None, None]
    phi = result.base
    phip = grids.derivative_values(phi, N)
    v = v_vals
    vx = grids.derivative_values(v, N)

    fv = model.f(phi + v) - model.f(phi)
    dfv = np.einsum("xij,txj->txi", model.df(phi), v)
    q_vals = (1.0 - psix) * (fv - dfv)

    denom = 1.0 - psix
    r_vals = (-psit * v - (gamma_t / N) * v + c * psix * v
              + k * grids.derivative_values(psix * v, N)
              + k * (psix / denom) * vx
              + k * (psix ** 2 / denom) * phip)
    return (q_vals + k * grids.derivative_values(r_vals, N)) / k


# ---------------------------------------------------------------------------
# modulation extraction: Duhamel route

@dataclass
class DuhamelTrace:
    """Joint fixed point of the phase and residual integral equations."""

    times: np.ndarray
    gamma: np.ndarray
    psi_vals: np.ndarray        # (T, P) synthesized phase fields
    v_vals: np.ndarray          # (T, P, n) iterated residual fields
    iterations: int
    update_norms: list
    v2_defect: float            # relative misfit when the trace is resubstituted


def _trapezoid_prefixes(times, init, f, step):
    """Every prefix I_i = E(t_i - t_0) init + int_{t_0}^{t_i} E(t_i - s) f(s) ds
    of the trapezoid rule on ``times``, by the exact recurrence

        I_0 = init,   I_i = E(h_i) (I_{i-1} + (h_i/2) f_{i-1}) + (h_i/2) f_i,

    with h_i = t_i - t_{i-1}: the weighted sum sum_s w_s E(t_i - t_s) f_s over
    the trapezoid weights w of [t_0, t_i], at one propagation per step.
    ``step`` is the propagator (x, h) -> E(h) x.
    """
    out = [np.asarray(init)]
    for i in range(1, len(times)):
        h = times[i] - times[i - 1]
        out.append(step(out[-1] + 0.5 * h * f[i - 1], h) + 0.5 * h * f[i])
    return np.stack(out)


def extract_modulation_duhamel(result, trace, tol=DUHAMEL_TOL):
    """Fixed-point solve of the integral equations for gamma, psi, and v.

    The iteration starts from the projection extraction in ``trace``, the
    :func:`modulation_trace` of ``result``; a snapshot whose phase warp
    failed there raises PhaseWarpError.  Each sweep evaluates the quadratic
    source (Q + k R_x)/k from the current variables, updates gamma and psi through their Duhamel formulas, and
    updates v through the split residual equation: the unmodulated linear
    evolution on the ramp-in interval plus the cutoff remainder afterwards.
    Iteration stops when the sup over snapshots of |d gamma| + ||d psi||_{L2}
    drops below ``tol``; two consecutive growing updates raise
    ExtractionDivergenceError.  The variables move as stacked arrays, gamma
    (T,), psi (T, P) and v (T, P, n), so a sweep builds every snapshot's
    source in one :func:`nonlinear_residual` call, on phi sampled once per
    run (``result.base``).

    The Duhamel integrals e^{L(t_i - t_0)} v_0 + int_{t_0}^{t_i} e^{L(t_i - s)}
    f(s) ds use the trapezoid rule on the snapshot grid, accumulated on the
    engine's stored Bloch fibers by the exact recurrence of
    :func:`_trapezoid_prefixes` with ``SemigroupEngine.apply`` as its
    propagator (x, h) -> e^{L h} x.  Each accumulated fiber set gives the
    critical amplitudes (``SemigroupEngine.amplitudes``, whence gamma and
    psi) and their phase part (``SemigroupEngine.phase_part``): since
    (1 - chi) e^{Lt} + chi S~ = e^{Lt} - chi (phase part), v takes one
    synthesis.  The engine acts on the stacked snapshots, so a sweep costs
    one Bloch transform, T - 1 fiber propagations and two Bloch syntheses
    (v and psi) of the (T, ...) stacks for T snapshots, not the O(T^2)
    propagations of summing every prefix from scratch.

    The returned trace carries ``v2_defect``: the relative sup-misfit when
    the converged variables are substituted back into the residual equation
    (same quadrature and stencils), which should sit at iteration tolerance.
    """
    eng = result.engine
    times = result.times
    if not trace.warp_ok.all():
        raise PhaseWarpError(
            f"projection phase warp failed at t = {times[~trace.warp_ok][0]:.3f}; "
            "the Duhamel iteration has no starting point")
    N = eng.n_period
    chi = result.chi

    fibers0 = eng.fibers(result.snapshots[0] - result.base)

    # projection initialization of (gamma, psi, v)
    gamma = result.gamma.copy()
    v_vals, psi_vals = trace.v_vals, trace.psi_vals

    def integrals(gamma, psi_vals, v_vals):
        """Duhamel integrals of the current sources: the propagated stored
        fibers (T, N//2+1, dim) and their critical amplitudes (T, N//2+1)."""
        fibers = eng.fibers(nonlinear_residual(result, gamma, psi_vals, v_vals))
        full = _trapezoid_prefixes(times, fibers0, fibers, eng.apply)
        return full, eng.amplitudes(full)

    def v_update(full, amps, psi_vals_ref, v_vals_ref):
        # (1 - chi) e^{Lt} + chi S~: the evolution less chi's phase part
        psix = grids.derivative_values(psi_vals_ref[..., None], N)
        w = chi[:, None, None]
        return (eng.field(full - w * eng.phase_part(amps))
                + w * psix * v_vals_ref)

    update_norms = []
    converged = False
    iterations = 0
    for sweep in range(1, DUHAMEL_MAX_SWEEPS + 1):
        iterations = sweep
        full, amps = integrals(gamma, psi_vals, v_vals)
        new_gamma = chi * amps[:, 0].real
        new_psi = eng.synthesize_phase(chi[:, None] * amps)[..., 0]
        new_v = v_update(full, amps, new_psi, v_vals)

        dpsi = grids.norm_l2((new_psi - psi_vals)[..., None], N)
        delta = float(np.max(np.abs(new_gamma - gamma) + dpsi))
        update_norms.append(delta)
        gamma, psi_vals, v_vals = new_gamma, new_psi, new_v
        if delta < tol:
            converged = True
            break
        if (len(update_norms) >= 3
                and update_norms[-1] > update_norms[-2] > update_norms[-3]):
            raise ExtractionDivergenceError(
                "integral-equation iteration is diverging (two consecutive "
                "growing updates); a smaller initial perturbation converges",
                iterations=sweep, update_norms=update_norms)
    if not converged:
        raise ExtractionDivergenceError(
            f"no fixed point within {DUHAMEL_MAX_SWEEPS} sweeps (last update "
            f"{update_norms[-1]:.3e})", iterations=DUHAMEL_MAX_SWEEPS,
            update_norms=update_norms)

    # consistency: substitute the converged trace back into the equations
    rhs_v = v_update(*integrals(gamma, psi_vals, v_vals), psi_vals, v_vals)
    vnorms = grids.norm_l2(v_vals, N)
    dnorms = grids.norm_l2(rhs_v - v_vals, N)
    v2_defect = float(np.max(dnorms) / max(np.max(vnorms), 1e-300))
    return DuhamelTrace(times, gamma, psi_vals, v_vals, iterations,
                        update_norms, v2_defect)


# ---------------------------------------------------------------------------
# trajectory diagnostics

@dataclass
class ModulationTraceData:
    """Per-snapshot phase variables, residual fields, and their norms.

    All Sobolev norms use the global periodic frequencies of [0, N); the
    order ``k_sob`` of :func:`modulation_trace` applies to v and psi_t, with
    psi_x measured one order higher, matching the weighted quantity the
    decay diagnostics track.
    Snapshots whose phase warp failed have ``warp_ok`` False and NaN rows.
    """

    times: np.ndarray
    gamma: np.ndarray
    gamma_t: np.ndarray
    psi_vals: np.ndarray        # (T, P)
    v_vals: np.ndarray          # (T, P, n)
    v_h: np.ndarray             # ||v||_{H^K}
    psi_x_h: np.ndarray         # ||psi_x||_{H^{K+1}}
    psi_t_h: np.ndarray         # ||psi_t||_{H^K}
    v_l2: np.ndarray
    psi_x_l2: np.ndarray
    psi_t_l2: np.ndarray
    warp_ok: np.ndarray         # (T,) bool


def modulation_trace(result, k_sob=3):
    """Extract phases along the trajectory and collect the diagnostic norms.

    A snapshot whose phase warp fails (PhaseWarpError from
    :func:`modulation_frame`) is recorded, not fatal: its rows are NaN and
    its ``warp_ok`` entry False; psi_t takes its phase as zero.
    """
    times = result.times
    T = times.size
    N = result.engine.n_period
    psi_vals = np.full(result.snapshots.shape[:2], np.nan)
    v_vals = np.full(result.snapshots.shape, np.nan)
    warp_ok = np.ones(T, dtype=bool)
    for i in range(T):
        try:
            psi_vals[i], v_vals[i] = modulation_frame(result, i)
        except PhaseWarpError:
            warp_ok[i] = False
    psi_x = grids.derivative_values(psi_vals[..., None], N)
    psi_t = time_derivative(times, np.nan_to_num(psi_vals))[..., None]
    norms = {"v_h": grids.norm_h(v_vals, N, k_sob),
             "psi_x_h": grids.norm_h(psi_x, N, k_sob + 1),
             "psi_t_h": grids.norm_h(psi_t, N, k_sob),
             "v_l2": grids.norm_l2(v_vals, N),
             "psi_x_l2": grids.norm_l2(psi_x, N),
             "psi_t_l2": grids.norm_l2(psi_t, N)}
    for series in norms.values():
        series[~warp_ok] = np.nan
    return ModulationTraceData(
        times=times,
        gamma=result.gamma.copy(),
        gamma_t=time_derivative(times, result.gamma),
        psi_vals=psi_vals,
        v_vals=v_vals,
        warp_ok=warp_ok,
        **norms,
    )


def damping_check(trace, theta):
    """The smallest constant C in the nonlinear damping inequality

        ||v(t)||_{H^K}^2 <= C [ e^{-theta (t-t_0)} ||v(t_0)||_{H^K}^2
                                + int_{t_0}^t e^{-theta (t-s)} S(s) ds ]

    at the rate ``theta``, with t_0 the first snapshot time and the
    lower-order source S = ||v||_{L2}^2 + ||psi_x||_{L2}^2 + ||psi_t||_{L2}^2
    + gamma_t^2 (trapezoid rule on the snapshots).  Returns (C, violations):
    a snapshot where the right side vanishes while the energy does not
    makes C infinite and counts as a violation.  The right side vanishes
    only while ||v(t_0)|| and the source are both still 0, so the count
    does not depend on theta.
    """
    energy = trace.v_h ** 2
    source = (trace.v_l2 ** 2 + trace.psi_x_l2 ** 2 + trace.psi_t_l2 ** 2
              + trace.gamma_t ** 2)
    bound = _trapezoid_prefixes(trace.times, energy[0], source,
                                lambda x, h: np.exp(-theta * h) * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, energy / bound,
                          np.where(energy > 0, np.inf, 0.0))
    constant = np.max(ratios[1:]) if ratios.size > 1 else ratios[0]
    return float(constant), int(np.sum((bound <= 0) & (energy > 0)))


def envelope_slope(times, values, t_lo, t_hi):
    """Fitted exponent of the decaying upper envelope of a trace.

    The envelope at time t is the running maximum of |values| over [t, end],
    so oscillation nulls do not drag the fit; the slope is the least-squares
    coefficient of log(envelope) against log(1+t) on [t_lo, t_hi].
    """
    times = np.asarray(times, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    env = np.maximum.accumulate(vals[::-1])[::-1]
    mask = (times >= t_lo) & (times <= t_hi) & (env > 0)
    if mask.sum() < 3:
        raise ValueError(
            f"fewer than 3 samples in the fit window [{t_lo}, {t_hi}]")
    slope, _ = np.polyfit(np.log1p(times[mask]), np.log(env[mask]), 1)
    return float(slope)


@dataclass
class PhaseReport:
    """Long-time translation offset and its linear-prediction anchor."""

    gamma_inf: float            # N s, phi(. + s) the translate nearest u(T)
    anchor: float               # <adj_0, v(0)>
    shift_misfit: float         # L2 distance of u(T) to phi(. + s)


def phase_convergence(result):
    """The phase limit gamma_inf = N s, with phi(. + s) the translate of the
    wave nearest the last snapshot u(T) in L2, and its linear prediction,
    the anchor <adj_0, v(0)>.

    Only the cell harmonics (global modes lN) of u(T) meet a 1-periodic
    translate, so s maximizes the cross-correlation
    g(s) = Re sum_l conj(u_l) . c_l e^{2 pi i l s}, with u_l and c_l those
    rows of the FFTs of u(T) and of phi.  Newton's method on g' finds it,
    started from the projection's gamma(T)/N; ShiftFitError unless it
    settles on a maximum of g (g'' < 0) within SHIFT_NEWTON_STEPS steps.
    """
    eng = result.engine
    N = eng.n_period
    u_last = result.snapshots[-1]
    corr = np.sum(np.conj(np.fft.fft(u_last, axis=0)[::N])
                  * np.fft.fft(result.base, axis=0)[::N], axis=1)
    omega = TWO_PI * grids.cell_modes(eng.m_x)
    s = float(result.gamma[-1]) / N
    for _ in range(SHIFT_NEWTON_STEPS):
        terms = corr * np.exp(1j * omega * s)
        curvature = -float(np.real(omega ** 2 @ terms))
        if not curvature < 0:
            raise ShiftFitError(
                f"the cross-correlation of u(T) with phi's translates has "
                f"curvature {curvature:.3e} >= 0 at the shift {s:.6g}")
        step = float(np.real(1j * omega @ terms)) / curvature
        s -= step
        if abs(step) <= SHIFT_TOL:
            break
    else:
        raise ShiftFitError(
            f"Newton's method for the shift of u(T) did not settle in "
            f"{SHIFT_NEWTON_STEPS} steps (last step {step:.3e})")
    nearest = grids.from_profile(eng.profile, N, eng.m_x, s)
    return PhaseReport(gamma_inf=N * s, anchor=float(result.gamma_raw[0]),
                       shift_misfit=float(grids.norm_l2(u_last - nearest, N)))


@dataclass
class CrossoverFit:
    """Two-regime fit of a decaying trace: one power-law and one exponential
    segment joined at a knee.  ``exp_side`` tells which side the exponential
    won ("late" is the physical finite-size crossover)."""

    t_knee: float
    power: float
    rate: float
    exp_side: str


def crossover_fit(times, values):
    """Split values(t) at the knee minimizing the two-segment fit error.

    Both orientations are tried (power then exponential, and the reverse);
    the reported rate always belongs to the exponential segment.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (times > 0) & (values > 0)
    t, v = times[keep], values[keep]
    T = t.size
    if T < 7:
        raise ValueError(f"need at least 7 usable samples, got {T}")
    lt, lv = np.log(t), np.log(v)

    def seg_fit(abscissa, sl):
        p = np.polyfit(abscissa[sl], lv[sl], 1)
        r = lv[sl] - np.polyval(p, abscissa[sl])
        return -p[0], float(r @ r)

    best = (np.inf, None, None, None, "late")
    for kk in range(3, T - 2):
        left, right = slice(None, kk), slice(kk, None)
        pw, e1 = seg_fit(lt, left)
        rate, e2 = seg_fit(t, right)
        if e1 + e2 < best[0]:
            best = (e1 + e2, kk, pw, rate, "late")
        rate, e1 = seg_fit(t, left)
        pw, e2 = seg_fit(lt, right)
        if e1 + e2 < best[0]:
            best = (e1 + e2, kk, pw, rate, "early")
    _, kk, power, rate, side = best
    return CrossoverFit(float(t[kk - 1]), float(power), float(rate), side)


# ---------------------------------------------------------------------------
# the paper's checks

def _check(value, window, band, ok=True, reason=None, **extra):
    """One check: passed when ``value`` lies in ``band`` ([lo, hi], None for
    an open end) and ``ok`` holds; None, with the reason, when unjudged."""
    lo, hi = band
    check = {"value": value, "window": window, "band": band, **extra}
    if reason is not None:
        return {**check, "pass": None, "reason": reason}
    check["pass"] = bool(ok and (lo is None or lo <= value)
                         and (hi is None or value <= hi))
    return check


def _envelope_check(times, values, window, band, level):
    """Envelope slope over ``window``, unjudged when every sample there lies
    within grids.ROUNDING_FLOOR times ``level(the window's times)``."""
    lo, hi = window
    try:
        slope = envelope_slope(times, values, t_lo=lo, t_hi=hi)
    except ValueError as exc:
        return _check(None, window, band, reason=str(exc))
    inside = (times >= lo) & (times <= hi)
    floor = grids.ROUNDING_FLOOR * level(times[inside])
    if np.all(np.abs(values[inside]) <= floor):
        return _check(None, window, band, reason="below rounding floor")
    return _check(slope, window, band)


def _crossover_check(times, values, delta_n):
    """The exponential rate of :func:`crossover_fit` against the gap."""
    window = [float(times[0]), float(times[-1])]
    band = [0.5 * delta_n, 1.1 * delta_n]
    try:
        knee = crossover_fit(times, values)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return _check(None, window, band, reason=f"no fit: {exc}")
    # the knee lies near t = 1/delta_N: a shorter run cannot show the late
    # exponential rate, so its fit is reported, not judged
    short = times[-1] < 1.0 / delta_n
    return _check(knee.rate, window, band, ok=knee.exp_side == "late",
                  reason="horizon shorter than 1/delta_N" if short else None,
                  t_knee=knee.t_knee, power=knee.power, exp_side=knee.exp_side)


def run_checks(result, trace, delta_n, e0, duhamel=None):
    """The paper's checks on a run from a datum of size ``e0`` and on its
    :func:`modulation_trace`.

    Each check is ``{value, window, band, pass}``: the value, the time span
    [t_lo, t_hi] it is measured on, the [lo, hi] it must lie in (None for
    an open end), and the verdict, None with a ``reason`` when unjudged.

    - phase: |gamma_inf - anchor| / |anchor| <= 10 E0, plus the
      :func:`phase_convergence` report (gamma_inf, anchor, shift_misfit);
    - zeta: zeta(t_end) / zeta(10) <= 4, zeta(t) = sup_{s <= t} (1+s)^{3/4}
      [||v||_{H^K}^2 + ||psi_x||_{H^{K+1}}^2 + ||psi_t||_{H^K}^2 + |gamma_t|]^{1/2};
    - damping: the constant C of :func:`damping_check` at its rate
      theta = delta_N/2 is finite and > 0, with no violation;
    - crossover: ||u - phi(. + gamma_inf/N)||_{H^1} decays at a rate in
      [0.5, 1.1] delta_N after its knee (unjudged before t = 1/delta_N,
      and for E0 = 0);
    - v_h_envelope: the slope of ||v||_{H^K} over [10, t_knee] <= -0.6;
    - gamma_t_envelope: the slope of |gamma_t| over [10, N^2/10] <= -1.2;
    - route_agreement, given the run's Duhamel trace: the larger of the
      relative gamma and psi differences of the two routes <= 1e-3.

    zeta is normalized at t = 10, so the run must reach past it
    (ValueError otherwise).
    For E0 = 0 both sides of a comparison are rounding, so phase and
    route_agreement report and judge the absolute differences, <= 1e-12.

    A slope is "below rounding floor" when every sample in its window lies
    within grids.ROUNDING_FLOOR times its rounding level: eps max|u| for ||v||,
    and eps max|u| / (smallest snapshot spacing in the window) for gamma_t,
    which is read off u = phi + v.  Checks that read the residual fields are
    unjudged when a phase warp failed.
    """
    times = trace.times
    if times[-1] <= 10.0:
        raise ValueError(
            f"horizon t_max = {times[-1]:g} is too short for the checks: "
            "zeta is normalized at t = 10; need t_max > 10")
    whole = [float(times[0]), float(times[-1])]
    eng = result.engine
    n = eng.n_period
    phase = phase_convergence(result)
    tol = 10.0 * e0
    relative = tol > 0

    def difference(diff, scale):
        return diff / max(scale, 1e-300) if relative else diff

    offset = abs(phase.gamma_inf - phase.anchor)
    checks = {"phase": _check(
        difference(offset, abs(phase.anchor)), whole,
        [0.0, tol if relative else 1e-12], **vars(phase))}

    shifted = grids.from_profile(eng.profile, n, eng.m_x, phase.gamma_inf / n)
    h1 = grids.norm_h(result.snapshots - shifted, n, 1)
    checks["crossover"] = _crossover_check(times, h1, delta_n)
    if not relative:
        # an unperturbed run decays from rounding noise: nothing to judge
        checks["crossover"] |= {"pass": None, "reason": "zero perturbation"}

    zeta = np.maximum.accumulate((1.0 + times) ** 0.75 * np.sqrt(
        trace.v_h ** 2 + trace.psi_x_h ** 2 + trace.psi_t_h ** 2
        + np.abs(trace.gamma_t)))
    checks["zeta"] = _check(
        float(zeta[-1] / zeta[np.searchsorted(times, 10.0)]),
        [10.0, whole[1]], [None, 4.0])

    c_half, violations = damping_check(trace, delta_n / 2.0)
    checks["damping"] = _check(
        c_half, whole, [0.0, None],
        ok=np.isfinite(c_half) and c_half > 0 and violations == 0,
        theta=delta_n / 2.0, violations=violations)

    eps_u = np.finfo(float).eps * float(np.max(np.abs(result.snapshots)))
    t_knee = checks["crossover"].get("t_knee", whole[1])
    checks["v_h_envelope"] = _envelope_check(
        times, trace.v_h, [10.0, t_knee], [None, -0.6], lambda t: eps_u)
    checks["gamma_t_envelope"] = _envelope_check(
        times, trace.gamma_t, [10.0, n ** 2 / 10.0], [None, -1.2],
        lambda t: eps_u / np.min(np.diff(t)))

    if duhamel is not None:
        gam = float(difference(np.max(np.abs(duhamel.gamma - trace.gamma)),
                               np.max(np.abs(trace.gamma))))
        psi = float(difference(
            np.max(np.linalg.norm(duhamel.psi_vals - trace.psi_vals, axis=1)),
            np.max(np.linalg.norm(trace.psi_vals, axis=1))))
        checks["route_agreement"] = _check(
            max(gam, psi), whole, [0.0, 1e-3 if relative else 1e-12],
            gamma=gam, psi=psi)

    failed = int(np.sum(~trace.warp_ok))
    reason = f"phase warp failed at {failed} of {times.size} snapshots"
    for name in ("zeta", "damping", "v_h_envelope", "route_agreement"):
        if failed and name in checks:
            checks[name] = _check(None, checks[name]["window"],
                                  checks[name]["band"], reason=reason)
    return checks
