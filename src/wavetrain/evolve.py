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

from dataclasses import dataclass, field

import numpy as np

from . import grids
from .errors import (
    BlowUpError,
    ExtractionDivergenceError,
    PhaseWarpError,
    ResolutionError,
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
        # reaction transforms written in turn, so prev_g is never overwritten
        self._grid = np.empty((profile.n, self.P))
        self._g = np.empty((2, profile.n, omega.size), dtype=complex)
        self._turn = 0
        self.prev_g = None

    def to_hat(self, values):
        """The (n, P//2+1) state of grid values of shape (P, n).

        The transform of a strided view keeps its stride order, so the
        components are made contiguous first: the state stays C-ordered.
        """
        return np.fft.rfft(np.ascontiguousarray(values.T), axis=-1)

    def to_grid(self, u_hat):
        """Grid values of the state, shape (n, P): transpose for (P, n)."""
        return np.fft.irfft(u_hat, n=self.P, axis=-1)

    def step(self, u_hat):
        g = self._g[self._turn]
        self._turn ^= 1
        np.fft.irfft(u_hat, n=self.P, axis=-1, out=self._grid)
        np.fft.rfft(self.profile.model.f(self._grid.T).T, axis=-1, out=g)
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
    """Smooth random N-periodic field of prescribed size ``amplitude``.

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
    gf = grids.GridFunction(n_period, vals)
    if amplitude == 0.0:
        gf.values[:] = 0.0
        return gf
    ref = grids.quadrature_samples(gf, band if kind == "fourier" else None)
    if normalize == "sup":
        size = grids.norm_linf(ref)
    elif normalize == "l1":
        size = grids.norm_l1(ref)
    elif normalize == "l1_sobolev":
        size = grids.norm_l1(ref) + grids.norm_h(ref, k_sob)
    else:
        raise ValueError(f"unknown normalization {normalize!r}")
    if size == 0.0:
        raise ValueError("degenerate random draw with zero amplitude")
    gf.values *= amplitude / size
    return gf


def quintic_smoothstep(t, lo=0.5, hi=1.0):
    """C^2 ramp: 0 below lo, 1 above hi, quintic polynomial between."""
    r = np.clip((np.asarray(t, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    out = r ** 3 * (10.0 - 15.0 * r + 6.0 * r ** 2)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# experiment driver

def write_snapshot(path, gf, t):
    """Store one state snapshot as a little-endian binary blob.

    Layout: three int64 header words (N, m_x, components), one float64 time
    stamp, then the N*m_x by components state row-major as float64.
    """
    with open(path, "wb") as fh:
        head = np.array([gf.n_period, gf.m_x, gf.values.shape[1]], dtype="<i8")
        head.tofile(fh)
        np.array([t], dtype="<f8").tofile(fh)
        np.ascontiguousarray(gf.values, dtype="<f8").tofile(fh)


def read_snapshot(path):
    """Load a snapshot blob back into (GridFunction, t)."""
    with open(path, "rb") as fh:
        head = np.fromfile(fh, dtype="<i8", count=3)
        t = float(np.fromfile(fh, dtype="<f8", count=1)[0])
        vals = np.fromfile(fh, dtype="<f8")
    n_period, m_x, n_comp = (int(h) for h in head)
    return grids.GridFunction(n_period, vals.reshape(m_x * n_period, n_comp)), t


def default_snapshot_times(t_max, dense_until=10.0, dense_spacing=0.25,
                           geometric_ratio=1.15):
    """Uniform sampling early, geometric later.

    ValueError when the geometric part cannot grow: the dense part ends at
    t = 0 (``dense_until`` or ``t_max`` below ``dense_spacing``) short of
    ``t_max``, or ``geometric_ratio`` <= 1.
    """
    times = list(np.arange(0.0, min(dense_until, t_max) + 1e-12, dense_spacing))
    t = times[-1]
    if t < t_max and not (t > 0.0 and geometric_ratio > 1.0):
        raise ValueError(
            f"snapshot times cannot grow geometrically from t = {t:g} by the "
            f"ratio {geometric_ratio:g}: dense_until ({dense_until:g}) must "
            f"reach dense_spacing ({dense_spacing:g}) and the ratio exceed 1")
    while t < t_max:
        t = min(t * geometric_ratio, t_max)
        times.append(t)
    return np.array(times)


@dataclass
class ExperimentResult:
    """Trajectory record: snapshots of u plus projection traces.

    ``gamma_raw`` and ``inner`` hold the spectral projections of u - phi at
    each snapshot (mean translation content and per-frequency critical
    amplitudes).  ``chi`` is the short-time ramp; the modulation ansatz uses
    gamma = chi * gamma_raw so the phase variables vanish at t = 0.
    ``snapshot_tail`` is the fraction of sum |u_hat_m|^2 in the global modes
    |m| > P/3 at each snapshot: the resolution the warp interpolation of
    :func:`modulation_frame` relies on.  ``base`` is phi on the run's grid,
    sampled once for every reader of the run.
    """

    profile: object
    engine: object
    n_period: int
    m_x: int
    amplitude: float
    times: np.ndarray
    snapshots: list
    base: grids.GridFunction
    gamma_raw: np.ndarray
    inner: np.ndarray
    chi: np.ndarray
    snapshot_tail: np.ndarray
    n_steps: int
    perturbation: dict = field(default_factory=dict)

    @property
    def gamma(self):
        return self.chi * self.gamma_raw


def _spectral_tail(u_hat, n_points):
    """Fraction of sum_m |u_hat_m|^2 in the global modes |m| > P/3.

    ``u_hat`` is the rfft of a real field on P = ``n_points`` samples, so each
    row 0 < m < P/2 stands for the pair +-m.
    """
    m = np.arange(u_hat.shape[0])
    weight = np.where((m == 0) | (2 * m == n_points), 1.0, 2.0)
    energy = weight * np.sum(np.abs(u_hat) ** 2, axis=1)
    total = float(np.sum(energy))
    return float(np.sum(energy[3 * m > n_points])) / total if total > 0 else 0.0


def run_experiment(profile, n_period, engine, *, t_max=100.0, dt=0.01,
                   scheme="imex", seed=0, amplitude=1e-2, band=None,
                   kind="fourier", normalize="l1_sobolev", k_sob=3,
                   initial=None, snapshot_times=None, blowup_limit=1e6,
                   chi_interval=(0.5, 1.0)):
    """Integrate phi + perturbation and record snapshots with projections.

    ``initial`` overrides the random perturbation (a GridFunction added to
    phi).  Snapshot times are rounded to whole steps.  Raises BlowUpError
    when the sup-norm passes ``blowup_limit`` or turns non-finite, and
    ResolutionError at the first snapshot whose ``snapshot_tail`` exceeds
    SNAPSHOT_TAIL_TOL.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r} (have {sorted(_SCHEMES)})")
    m_x = engine.m_x
    if engine.n_period != n_period:
        raise ValueError(f"engine is for N={engine.n_period}, requested N={n_period}")
    stepper = _SCHEMES[scheme](profile, n_period, m_x, dt)

    base = grids.from_profile(profile, n_period, m_x)
    if initial is None:
        pert = random_perturbation(n_period, m_x, profile.n, seed, amplitude,
                                   band=band, kind=kind, normalize=normalize,
                                   k_sob=k_sob)
    else:
        pert = initial
        if pert.n_period != n_period or pert.m_x != m_x:
            raise ValueError("initial perturbation grid does not match the engine")
    u = base.values + pert.values

    if snapshot_times is None:
        snapshot_times = default_snapshot_times(t_max)
    snap_steps = np.unique(np.round(np.asarray(snapshot_times) / dt).astype(int))
    snap_steps = snap_steps[snap_steps * dt <= t_max + 1e-9]

    u_hat = stepper.to_hat(u)
    times, snaps, inners, tails = [], [], [], []

    def record(step_index):
        vals = stepper.to_grid(u_hat).T
        sup = float(np.max(np.abs(vals))) if vals.size else 0.0
        t = step_index * dt
        if not np.isfinite(sup) or sup > blowup_limit:
            raise BlowUpError(f"solution reached sup-norm {sup:.3e} at t = {t:.4f}",
                              t=t)
        times.append(t)
        snaps.append(grids.GridFunction(n_period, vals.copy()))
        inners.append(engine.amplitudes(engine.fibers(
            grids.GridFunction(n_period, vals - base.values))))
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
    inner = np.array(inners)
    return ExperimentResult(
        profile=profile,
        engine=engine,
        n_period=n_period,
        m_x=m_x,
        amplitude=float(amplitude),
        times=times,
        snapshots=snaps,
        base=base,
        gamma_raw=inner[:, 0].real.copy(),
        inner=inner,
        chi=quintic_smoothstep(times, *chi_interval),
        snapshot_tail=np.array(tails),
        n_steps=done,
        perturbation={"seed": int(seed), "amplitude": float(amplitude),
                      "band": band, "normalize": normalize,
                      "kind": kind if initial is None else "explicit",
                      "chi_interval": list(chi_interval)},
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


def time_derivative(times, values, order=1, stencil=5):
    """Differentiate sampled traces on a nonuniform time grid.

    ``values`` has leading axis aligned with ``times``; interior points use
    centered stencils, the ends one-sided ones.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    T = times.size
    stencil = min(int(stencil), T)
    if T < 2 or stencil < 2:
        raise ValueError(f"need at least 2 samples, got {T}")
    out = np.empty_like(values, dtype=float)
    half = stencil // 2
    for i in range(T):
        lo = min(max(i - half, 0), T - stencil)
        sl = slice(lo, lo + stencil)
        w = fd_weights(times[sl], times[i], order)
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
    N = result.n_period
    psi = result.engine.synthesize_phase(result.chi[i] * result.inner[i]).values
    steep = float(np.max(np.abs(grids.derivative_values(psi, N))))
    if not np.isfinite(steep) or steep >= 0.5:
        raise PhaseWarpError(
            f"max |psi_x| = {steep:.3f} >= 1/2 at t = {result.times[i]:.3f}; "
            "the coordinate warp is not invertible")
    u = result.snapshots[i]
    u_mod = u.interp(u.x - result.gamma[i] / N - psi[:, 0])
    return psi[:, 0], u_mod - result.base.values


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
    prof = result.profile
    k, c, model = prof.k, prof.c, prof.model
    N = result.n_period
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
    phi = result.base.values
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
    inner: np.ndarray           # (T, N) complex critical amplitudes (chi-ramped)
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
    ``step`` gives E: a rate lambda (a scalar or one per trailing entry of
    ``init``, E(h) x = e^{lambda h} x) or a callable (x, h) -> E(h) x.
    """
    if not callable(step):
        rate = np.asarray(step)

        def step(x, h):
            return np.exp(rate * h) * x
    out = [np.asarray(init)]
    for i in range(1, len(times)):
        h = times[i] - times[i - 1]
        out.append(step(out[-1] + 0.5 * h * f[i - 1], h) + 0.5 * h * f[i])
    return np.stack(out)


def extract_modulation_duhamel(result, tol=1e-8, max_iter=25, trace=None):
    """Fixed-point solve of the integral equations for gamma, psi, and v.

    The iteration starts from the projection extraction in ``trace`` (a
    :class:`ModulationTraceData` of ``result``, built when not given); a
    snapshot whose phase warp failed there raises PhaseWarpError.  Each
    sweep evaluates the quadratic source (Q + k R_x)/k from the current
    variables, updates gamma and psi through their Duhamel formulas, and
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
    :func:`_trapezoid_prefixes` with ``SemigroupEngine.apply`` as the
    propagator.  Each accumulated fiber set gives the critical amplitudes
    (``SemigroupEngine.amplitudes``, whence gamma and psi) and, through
    ``SemigroupEngine.split``, the remainder S~.  A sweep thus costs T Bloch
    transforms, T - 1 fiber propagations and at most 3T Bloch syntheses for
    T snapshots, not the O(T^2) of summing every prefix from scratch.

    The returned trace carries ``v2_defect``: the relative sup-misfit when
    the converged variables are substituted back into the residual equation
    (same quadrature and stencils), which should sit at iteration tolerance.
    """
    eng = result.engine
    times = result.times
    if trace is None:
        trace = modulation_trace(result)
    if not trace.warp_ok.all():
        raise PhaseWarpError(
            f"projection phase warp failed at t = {times[~trace.warp_ok][0]:.3f}; "
            "the Duhamel iteration has no starting point")
    T = times.size
    N = result.n_period
    m_x = result.m_x
    chi = result.chi

    fibers0 = eng.fibers(grids.GridFunction(
        N, result.snapshots[0].values - result.base.values))

    # projection initialization of (gamma, psi, v)
    gamma = result.gamma.copy()
    inner = chi[:, None] * result.inner
    v_vals, psi_vals = trace.v_vals, trace.psi_vals

    def integrals(gamma, psi_vals, v_vals):
        """Duhamel integrals of the current sources: the propagated stored
        fibers (T, N//2+1, dim) and their critical amplitudes (T, N)."""
        source = nonlinear_residual(result, gamma, psi_vals, v_vals)
        fibers = np.stack([eng.fibers(grids.GridFunction(N, src))
                           for src in source])
        full = _trapezoid_prefixes(times, fibers0, fibers, eng.apply)
        return full, np.stack([eng.amplitudes(f) for f in full])

    def v_update(full, amps, psi_vals_ref, v_vals_ref):
        psix = grids.derivative_values(psi_vals_ref[..., None], N)
        new_v = np.zeros_like(v_vals)
        for i in range(T):
            if chi[i] < 1.0:
                new_v[i] += (1.0 - chi[i]) * eng.field(full[i]).values
            if chi[i] > 0.0:
                rem = eng.split(full[i], amps[i])[2]
                new_v[i] += chi[i] * (eng.field(rem).values
                                      + psix[i] * v_vals_ref[i])
        return new_v

    update_norms = []
    converged = False
    iterations = 0
    for sweep in range(1, max_iter + 1):
        iterations = sweep
        full, amps = integrals(gamma, psi_vals, v_vals)
        new_inner = chi[:, None] * amps
        new_gamma = chi * amps[:, 0].real
        new_psi = np.stack([eng.synthesize_phase(new_inner[i]).values[:, 0]
                            for i in range(T)])
        new_v = v_update(full, amps, new_psi, v_vals)

        dpsi = np.sqrt(np.sum((new_psi - psi_vals) ** 2, axis=1) / m_x)
        delta = float(np.max(np.abs(new_gamma - gamma) + dpsi))
        update_norms.append(delta)
        gamma, inner, psi_vals, v_vals = new_gamma, new_inner, new_psi, new_v
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
            f"no fixed point within {max_iter} sweeps (last update "
            f"{update_norms[-1]:.3e})", iterations=max_iter,
            update_norms=update_norms)

    # consistency: substitute the converged trace back into the equations
    rhs_v = v_update(*integrals(gamma, psi_vals, v_vals), psi_vals, v_vals)
    vnorms = np.sqrt(np.sum(v_vals ** 2, axis=(1, 2)) / m_x)
    dnorms = np.sqrt(np.sum((rhs_v - v_vals) ** 2, axis=(1, 2)) / m_x)
    v2_defect = float(np.max(dnorms) / max(np.max(vnorms), 1e-300))
    return DuhamelTrace(times, gamma, inner, psi_vals, v_vals, iterations,
                        update_norms, v2_defect)


# ---------------------------------------------------------------------------
# trajectory diagnostics

@dataclass
class ModulationTraceData:
    """Per-snapshot phase variables, residual fields, and their norms.

    All Sobolev norms use the global periodic frequencies of [0, N); the
    ``k_sob`` order applies to v and psi_t, with psi_x measured one order
    higher, matching the weighted quantity the decay diagnostics track.
    Snapshots whose phase warp failed have ``warp_ok`` False and NaN rows.
    """

    k_sob: int
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
    N = result.n_period
    P = result.m_x * N
    psi_vals = np.full((T, P), np.nan)
    v_vals = np.full((T, P, result.profile.n), np.nan)
    norms = {name: np.full(T, np.nan) for name in
             ("v_h", "psi_x_h", "psi_t_h", "v_l2", "psi_x_l2", "psi_t_l2")}
    warp_ok = np.ones(T, dtype=bool)
    for i in range(T):
        try:
            psi_vals[i], v_vals[i] = modulation_frame(result, i)
        except PhaseWarpError:
            warp_ok[i] = False
    psi_x_vals = grids.derivative_values(psi_vals[..., None], N)
    psi_t_vals = time_derivative(times, np.nan_to_num(psi_vals))[..., None]
    for i in np.flatnonzero(warp_ok):
        v, psi_x, psi_t = (grids.GridFunction(N, vals[i]) for vals in
                           (v_vals, psi_x_vals, psi_t_vals))
        norms["v_h"][i] = grids.norm_h(v, k_sob)
        norms["psi_x_h"][i] = grids.norm_h(psi_x, k_sob + 1)
        norms["psi_t_h"][i] = grids.norm_h(psi_t, k_sob)
        norms["v_l2"][i] = grids.norm_l2(v)
        norms["psi_x_l2"][i] = grids.norm_l2(psi_x)
        norms["psi_t_l2"][i] = grids.norm_l2(psi_t)
    return ModulationTraceData(
        k_sob=int(k_sob),
        times=times,
        gamma=result.gamma.copy(),
        gamma_t=time_derivative(times, result.gamma),
        psi_vals=psi_vals,
        v_vals=v_vals,
        warp_ok=warp_ok,
        **norms,
    )


@dataclass
class DampingReport:
    thetas: np.ndarray
    constants: np.ndarray
    best_theta: float
    best_constant: float
    violations: int             # snapshots infeasible at the best theta


def damping_check(trace, delta_n=None):
    """Smallest constants in the nonlinear damping inequality

        ||v(t)||_{H^K}^2 <= C [ e^{-theta (t-t_0)} ||v(t_0)||_{H^K}^2
                                + int_{t_0}^t e^{-theta (t-s)} S(s) ds ],

    with t_0 the first snapshot time and the lower-order source
    S = ||v||_{L2}^2 + ||psi_x||_{L2}^2 + ||psi_t||_{L2}^2 + gamma_t^2, over
    13 rates theta in [1e-3, 1] and theta = delta_N/2 when given (trapezoid
    rule on the snapshots).  The reported optimum minimizes C(theta)
    (1 + theta); a snapshot where the right side vanishes while the energy
    does not makes theta infeasible (C = inf) and counts as a violation.
    The right side vanishes only while ||v(t_0)|| and the source are both
    still 0, whatever theta is, so every theta counts the same violations.
    """
    times = trace.times
    T = times.size
    energy = trace.v_h ** 2
    source = (trace.v_l2 ** 2 + trace.psi_x_l2 ** 2 + trace.psi_t_l2 ** 2
              + trace.gamma_t ** 2)

    thetas = np.geomspace(1e-3, 1.0, 13)
    if delta_n:
        thetas = np.unique(np.append(thetas, delta_n / 2.0))

    bound = _trapezoid_prefixes(times, np.full(thetas.shape, energy[0]),
                                source, -thetas)
    energy = energy[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, energy / bound,
                          np.where(energy > 0, np.inf, 0.0))
    constants = np.max(ratios[1:], axis=0) if T > 1 else ratios[0]
    bad_counts = np.sum((bound <= 0) & (energy > 0), axis=0)
    score = constants * (1.0 + thetas)
    best = int(np.argmin(score))
    return DampingReport(thetas, constants, float(thetas[best]),
                         float(constants[best]), int(bad_counts[best]))


def envelope_slope(times, values, t_lo=10.0, t_hi=None):
    """Fitted exponent of the decaying upper envelope of a trace.

    The envelope at time t is the running maximum of |values| over [t, end],
    so oscillation nulls do not drag the fit; the slope is the least-squares
    coefficient of log(envelope) against log(1+t) inside the window.
    """
    times = np.asarray(times, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    env = np.maximum.accumulate(vals[::-1])[::-1]
    mask = (times >= t_lo) & (env > 0)
    if t_hi is not None:
        mask &= times <= t_hi
    if mask.sum() < 3:
        raise ValueError(f"fewer than 3 samples in the fit window (t >= {t_lo})")
    slope, _ = np.polyfit(np.log1p(times[mask]), np.log(env[mask]), 1)
    return float(slope)


@dataclass
class PhaseReport:
    """Long-time translation offset and its linear-prediction anchor."""

    gamma_inf: float            # gamma(t_end) plus the fitted tail integral
    gamma_inf_fit: float        # from the algebraic gamma_inf + b/sqrt(t) fit
    tail_power: float           # fitted decay power of |gamma_t|
    anchor: float
    sigma_inf: float
    best_shift: float
    shift_misfit: float         # L2 distance of u(T) to the best translate
    unshifted_misfit: float


def phase_convergence(result, fit_fraction=0.25):
    """Extrapolate gamma(t) -> gamma_inf and test the rigid-shift picture.

    gamma_inf is the final value plus a tail correction from the fitted
    power-law decay of gamma_t; an algebraic fit gamma(t) = g + b t^{-1/2}
    over the last quarter cross-checks it.  The anchor <adj_0, v(0)> is the
    linear prediction of the limit.  The final snapshot is compared against
    rigid translates of the wave to locate the best shift.
    """
    times = result.times
    if times[-1] <= 10.0:
        raise ValueError(
            f"horizon t_max = {times[-1]:g} is too short to fit the phase "
            "limit; need t_max > 10")
    gam = result.gamma
    gamma_t = time_derivative(times, gam)

    gamma_inf = float(gam[-1])
    tail_power = np.nan
    late = (times >= max(10.0, times[-1] * (1.0 - fit_fraction))) \
        & (np.abs(gamma_t) > 0)
    if late.sum() >= 3:
        p, _ = np.polyfit(np.log1p(times[late]), np.log(np.abs(gamma_t[late])), 1)
        tail_power = float(-p)
        if tail_power > 1.05:
            # integrate the fitted c (1+t)^{-p} model beyond the horizon
            gamma_inf += float(gamma_t[-1] * (1.0 + times[-1]) / (tail_power - 1.0))

    mask = times >= max(times[-1] * (1.0 - fit_fraction), 1.0)
    if mask.sum() < 3:
        mask = times >= times[max(0, times.size - 4)]
    A = np.stack([np.ones(mask.sum()), times[mask] ** -0.5], axis=1)
    coef, *_ = np.linalg.lstsq(A, gam[mask], rcond=None)
    gamma_inf_fit = float(coef[0])

    anchor = float(result.gamma_raw[0])
    N = result.n_period
    sigma = gamma_inf / N

    u_last = result.snapshots[-1]
    prof = result.profile

    def misfit(s):
        ref = grids.from_profile(prof, N, result.m_x, s) if s else result.base
        return grids.norm_l2(grids.GridFunction(N, u_last.values - ref.values))

    # golden-section around the predicted shift, one cell wide
    lo, hi = sigma - 0.5, sigma + 0.5
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = misfit(c), misfit(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = misfit(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = misfit(d)
    best = 0.5 * (a + b)
    return PhaseReport(
        gamma_inf=gamma_inf,
        gamma_inf_fit=gamma_inf_fit,
        tail_power=tail_power,
        anchor=anchor,
        sigma_inf=sigma,
        best_shift=float(best),
        shift_misfit=float(misfit(best)),
        unshifted_misfit=float(misfit(0.0)),
    )


@dataclass
class CrossoverFit:
    """Two-regime fit of a decaying trace: one power-law and one exponential
    segment joined at a knee.  ``exp_side`` tells which side the exponential
    won ("late" is the physical finite-size crossover)."""

    t_knee: float
    power: float
    rate: float
    exp_side: str = "late"


def crossover_fit(times, values, min_side=3):
    """Split values(t) at the knee minimizing the two-segment fit error.

    Both orientations are tried (power then exponential, and the reverse);
    the reported rate always belongs to the exponential segment.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (times > 0) & (values > 0)
    t, v = times[keep], values[keep]
    T = t.size
    if T < 2 * min_side + 1:
        raise ValueError(f"need at least {2 * min_side + 1} usable samples, got {T}")
    lt, lv = np.log(t), np.log(v)

    def seg_fit(abscissa, sl):
        p = np.polyfit(abscissa[sl], lv[sl], 1)
        r = lv[sl] - np.polyval(p, abscissa[sl])
        return -p[0], float(r @ r)

    best = (np.inf, None, None, None, "late")
    for kk in range(min_side, T - min_side + 1):
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

# multiple of its rounding level up to which a trace carries no slope.  On
# the reference run (rgl q = 0.3, N = 16, l1_sobolev 1e-2, seed 0) every
# |gamma_t| sample of 10 <= t <= N^2/10 lies within 2.6 times the level
# eps max|u| / h, while ||v||_{H^3} ends 1e8 times above eps max|u|.
ROUNDING_FLOOR = 100.0


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
    within ROUNDING_FLOOR times ``level(the window's times)``."""
    lo, hi = window
    try:
        slope = envelope_slope(times, values, t_lo=lo, t_hi=hi)
    except ValueError as exc:
        return _check(None, window, band, reason=str(exc))
    inside = (times >= lo) & (times <= hi)
    if np.all(np.abs(values[inside]) <= ROUNDING_FLOOR * level(times[inside])):
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


def run_checks(result, trace, delta_n, duhamel=None):
    """The paper's checks on a run and its :func:`modulation_trace`.

    Each check is ``{value, window, band, pass}``: the value, the time span
    [t_lo, t_hi] it is measured on, the [lo, hi] it must lie in (None for
    an open end), and the verdict, None with a ``reason`` when unjudged.

    - phase: |gamma_inf - anchor| / |anchor| <= 10 E0 (for E0 = 0 the
      offset itself < 1e-12), plus the :func:`phase_convergence` report;
    - zeta: zeta(t_end) / zeta(10) <= 4, zeta(t) = sup_{s <= t} (1+s)^{3/4}
      [||v||_{H^K}^2 + ||psi_x||_{H^{K+1}}^2 + ||psi_t||_{H^K}^2 + |gamma_t|]^{1/2};
    - damping: C(delta_N/2) of :func:`damping_check` is finite and > 0,
      with no violation at the best theta;
    - crossover: ||u - phi(. + gamma_inf/N)||_{H^1} decays at a rate in
      [0.5, 1.1] delta_N after its knee (unjudged before t = 1/delta_N,
      and for E0 = 0);
    - v_h_envelope: the slope of ||v||_{H^K} over [10, t_knee] <= -0.6;
    - gamma_t_envelope: the slope of |gamma_t| over [10, N^2/10] <= -1.2;
    - route_agreement, given the run's Duhamel trace: the larger of the
      relative gamma and psi differences of the two routes <= 1e-3 (for
      E0 = 0, where both routes read rounding, the absolute ones <= 1e-12).

    A slope is "below rounding floor" when every sample in its window lies
    within ROUNDING_FLOOR times its rounding level: eps max|u| for ||v||,
    and eps max|u| / (smallest snapshot spacing in the window) for gamma_t,
    which is read off u = phi + v.  Checks that read the residual fields are
    unjudged when a phase warp failed.
    """
    times = trace.times
    whole = [float(times[0]), float(times[-1])]
    n = result.n_period
    phase = phase_convergence(result)
    tol = 10.0 * result.amplitude
    offset = abs(phase.gamma_inf - phase.anchor)
    checks = {"phase": _check(
        offset / max(abs(phase.anchor), 1e-300), whole,
        [0.0, tol if tol > 0 else None], ok=tol > 0 or offset < 1e-12,
        **{k: None if np.isnan(v) else v for k, v in vars(phase).items()})}

    shifted = grids.from_profile(result.profile, n, result.m_x,
                                 phase.gamma_inf / n)
    h1 = np.array([grids.norm_h(grids.GridFunction(
        n, snap.values - shifted.values), 1) for snap in result.snapshots])
    checks["crossover"] = _crossover_check(times, h1, delta_n)
    if tol == 0:
        # an unperturbed run decays from rounding noise: nothing to judge
        checks["crossover"] |= {"pass": None, "reason": "zero perturbation"}

    zeta = np.maximum.accumulate((1.0 + times) ** 0.75 * np.sqrt(
        trace.v_h ** 2 + trace.psi_x_h ** 2 + trace.psi_t_h ** 2
        + np.abs(trace.gamma_t)))
    checks["zeta"] = _check(
        float(zeta[-1] / zeta[np.searchsorted(times, 10.0)]),
        [10.0, whole[1]], [None, 4.0])

    damp = damping_check(trace, delta_n=delta_n)
    c_half = float(damp.constants[damp.thetas == delta_n / 2.0][0])
    checks["damping"] = _check(
        c_half, whole, [0.0, None],
        ok=np.isfinite(c_half) and c_half > 0 and damp.violations == 0,
        theta=delta_n / 2.0, best_theta=damp.best_theta,
        best_constant=damp.best_constant, violations=damp.violations)

    eps_u = np.finfo(float).eps * max(float(np.max(np.abs(snap.values)))
                                      for snap in result.snapshots)
    t_knee = checks["crossover"].get("t_knee", whole[1])
    checks["v_h_envelope"] = _envelope_check(
        times, trace.v_h, [10.0, t_knee], [None, -0.6], lambda t: eps_u)
    checks["gamma_t_envelope"] = _envelope_check(
        times, trace.gamma_t, [10.0, n ** 2 / 10.0], [None, -1.2],
        lambda t: eps_u / np.min(np.diff(t)))

    if duhamel is not None:
        d_gam = np.max(np.abs(duhamel.gamma - trace.gamma))
        d_psi = np.max(np.linalg.norm(duhamel.psi_vals - trace.psi_vals,
                                      axis=1))
        gam = float(d_gam / np.max(np.abs(trace.gamma)))
        psi = float(d_psi / np.max(np.linalg.norm(trace.psi_vals, axis=1)))
        absolute = {} if tol > 0 else {"absolute": float(max(d_gam, d_psi))}
        checks["route_agreement"] = _check(
            max(gam, psi), whole, [0.0, 1e-3 if tol > 0 else None],
            ok=tol > 0 or max(d_gam, d_psi) <= 1e-12, gamma=gam, psi=psi,
            **absolute)

    failed = int(np.sum(~trace.warp_ok))
    reason = f"phase warp failed at {failed} of {times.size} snapshots"
    for name in ("zeta", "damping", "v_h_envelope", "route_agreement"):
        if failed and name in checks:
            checks[name] = _check(None, checks[name]["window"],
                                  checks[name]["band"], reason=reason)
    return checks
