"""Linear semigroup on N-periodic perturbations, split into decay classes.

The semigroup e^{Lt} of the linearization about a diffusively stable wave
train is diagonalized fiber-by-fiber over the N admissible Bloch frequencies.
With a smooth even cutoff rho supported near the critical dispersion branch
it splits as

    e^{Lt} v = phi' <adj_0, v> / N  +  phi' . s_p(t) v  +  S~(t) v,

where s_p carries the slowly decaying phase-like content

    (s_p(t) v)(x) = (1/N) sum_{xi != 0} rho(xi) e^{i xi x} e^{lambda_c(xi) t}
                    <adj_xi, (B v)(xi, .)>,

and S~ collects the high-frequency part, the low-frequency complement of the
critical mode, and the difference between the critical eigenfunction and its
phi' approximation.  The three pieces sum to the full semigroup exactly,
fiber by fiber: ``SemigroupEngine.phase_part`` gives the first two, and the
fibers less it are S~.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bloch, grids
from .errors import AdmissibilityError, BranchTrackingError, DiagonalizationError

TWO_PI = 2.0 * np.pi

# Largest eigenvector bound ||V||_F ||V^-1||_F of a fiber the engine
# propagates through V; above it the engine refuses the fiber.
COND_LIMIT = 1e10


# ---------------------------------------------------------------------------
# frequency cutoff

@dataclass(frozen=True)
class CutoffSpec:
    """Even raised-cosine cutoff: 1 on |xi| <= xi_1/2, supported in |xi| < xi_1."""

    xi_1: float

    def __post_init__(self):
        if not 0.0 < self.xi_1 < np.pi:
            raise AdmissibilityError(
                f"cutoff radius must lie in (0, pi), got {self.xi_1}")

    def weight(self, xi):
        axi = np.abs(np.asarray(xi, dtype=float))
        half = self.xi_1 / 2.0
        w = np.where(axi <= half, 1.0,
                     np.where(axi >= self.xi_1, 0.0,
                              np.cos(np.pi * (axi - half) / self.xi_1) ** 2))
        return w if w.shape else float(w)


def default_cutoff(stability):
    """Cutoff radius from the separation of the critical branch, read off
    a ``bloch.verify_diffusive_stability`` report."""
    xi_1 = stability.xi_1
    if xi_1 <= 0.0:
        raise AdmissibilityError(
            "critical branch is not separated from the rest of the spectrum; "
            "no cutoff radius exists")
    return CutoffSpec(min(xi_1, np.pi * (1.0 - 1e-9)))


# ---------------------------------------------------------------------------
# engine

class SemigroupEngine:
    """Fiberwise-diagonalized semigroup for one profile, period multiple N
    and frequency cutoff (a :class:`CutoffSpec`).

    The engine takes real fields only, so the fiber at -xi is the conjugate
    of the one at xi under the l -> -l flip, and it keeps the floor(N/2)+1
    lattice slots j = 0..N//2 in FFT wrap order, the ones ``rfft`` keeps
    (for even N slot N/2 is -pi, the conjugate of the +pi fiber): every
    per-frequency array has that leading size. It decomposes the dense Bloch
    block (odd per-cell mode count m_x; ``bloch.grid_modes`` derives the
    default from the Hill truncation) at each slot by
    ``bloch.decompose_fiber``, following the critical branch in the
    phi'-anchored gauge from the profile's fiber store at the same
    frequency, zero-padded onto the engine's modes; a branch lost inside the
    cutoff support raises BranchTrackingError, and a fiber whose eigenvector
    matrix fails ||V||_F ||V^-1||_F <= COND_LIMIT raises
    DiagonalizationError.

    The operations act on the stored fibers of arrays with any leading stack
    axes: ``fibers`` transforms real (..., P, n) samples into (..., N//2+1,
    dim) fibers, ``apply`` propagates, ``amplitudes`` reads the critical
    amplitudes, ``phase_part`` builds the mean-phase and phase-field fibers
    from them, ``field`` synthesizes the real samples and ``norm_l2`` takes
    their L2 norm without synthesizing them. So e^{Lt} v is
    ``field(apply(fibers(v), t))``.
    """

    def __init__(self, profile, n_period, cutoff, m_x=None):
        if m_x is not None and m_x % 2 == 0:
            raise ValueError(f"m_x must be odd, got {m_x}")
        self.profile = profile
        self.n_period = N = int(n_period)
        self.m_x, _ = bloch.grid_modes(profile, m_x)
        self.n = profile.n
        self.dim = self.m_x * self.n
        self.ells = grids.cell_modes(self.m_x)
        self.that = bloch.reaction_coeffs(profile, self.m_x - 1)
        H = self.n_half = N // 2 + 1
        self.frequencies = grids.frequency_lattice(N)[:H]
        self.cutoff = cutoff
        self.rho = np.asarray(cutoff.weight(self.frequencies), dtype=float).reshape(-1)

        # phi' in slot layout (flattened mode-major)
        self.phi_slots = bloch.phi_prime_vector(profile, self.ells)

        self._mirror = np.arange(1, (N + 1) // 2)   # j with a distinct -xi slot N - j
        # Parseval weights of the stored slots: a distinct -xi mirror doubles
        self._weights = np.ones(H)
        self._weights[self._mirror] = 2.0
        self._lflip = bloch.conjugate_index(self.m_x, 1)
        flip = bloch.conjugate_index(self.m_x, self.n)
        self.eigvals = np.empty((H, self.dim), dtype=complex)
        self.right = np.empty((H, self.dim, self.dim), dtype=complex)
        self.right_inv = np.empty_like(self.right)
        self.eigvec_cond = np.empty(H)
        self.crit_lam = np.full(H, np.nan + 0j)
        self.crit_phi = np.zeros((H, self.dim), dtype=complex)
        self.crit_adj = np.zeros((H, self.dim), dtype=complex)

        store = bloch.fiber_store(profile)
        for j in range(H):
            # |xi| turns the lattice's -pi (even N) into the +pi it mirrors
            xi = abs(self.frequencies[j])
            mat = bloch.assemble_bloch(profile, xi, ells=self.ells,
                                       that=self.that)
            ref = bloch.pad_modes(store.fiber(j, N).vec, self.n, self.m_x)
            fib, V = bloch.decompose_fiber(mat, ref, self.phi_slots)
            if fib.index is None and self.rho[j] > 0.0:
                raise BranchTrackingError(
                    f"critical branch lost at xi = {xi:.6g} inside the "
                    f"cutoff support |xi| < {cutoff.xi_1:.6g}")
            if 2 * j == N:      # even N keeps -pi: conjugate the +pi fiber
                fib, V = fib.conjugate(flip), np.conj(V)[flip]
            try:
                V_inv = np.linalg.inv(V)
                cond = np.linalg.norm(V) * np.linalg.norm(V_inv)
            except np.linalg.LinAlgError:
                cond = np.inf
            if not cond <= COND_LIMIT:
                raise DiagonalizationError(
                    f"the fiber at xi = {self.frequencies[j]:.6g} has "
                    f"eigenvector bound ||V|| ||V^-1|| = {cond:.3e} above "
                    f"{COND_LIMIT:g}")
            self.eigvals[j], self.right[j], self.right_inv[j] = fib.lam, V, V_inv
            self.eigvec_cond[j] = cond
            if fib.index is not None:
                self.crit_lam[j] = fib.lam_c
                self.crit_phi[j], self.crit_adj[j] = fib.vec, fib.adj
        # the frequencies that carry a critical projection
        self.critical = (self.rho > 0.0) & np.isfinite(self.crit_lam.real)

    # -- fiber-space operations ---------------------------------------------

    def fibers(self, values):
        """The stored (xi >= 0) half of the Bloch transform of the real
        (..., P, n) samples ``values``, shape (..., N//2+1, dim)."""
        shape = (self.n_period * self.m_x, self.n)
        if values.shape[-2:] != shape:
            raise ValueError(
                f"grid mismatch: engine takes (..., {shape[0]}, {shape[1]}) "
                f"samples (N={self.n_period}, m_x={self.m_x}), got "
                f"{values.shape}")
        if np.iscomplexobj(values):
            raise ValueError("the semigroup engine takes real fields only")
        coeffs = grids.bloch_transform(values, self.n_period)
        return coeffs[..., :self.n_half, :, :].reshape(
            *values.shape[:-2], self.n_half, self.dim)

    def _synthesize(self, half):
        """The real samples of the stored slots ``half`` (..., N//2+1, m_x,
        k): slot N - j of the full lattice holds the conjugate of slot j
        under the cell-mode flip l -> -l."""
        N = self.n_period
        full = np.empty((*half.shape[:-3], N, *half.shape[-2:]), dtype=complex)
        full[..., :self.n_half, :, :] = half
        full[..., N - self._mirror, :, :] = np.conj(
            half[..., self._mirror, :, :][..., self._lflip, :])
        return grids.bloch_inverse(full).real

    def field(self, half):
        """The real samples, shape (..., P, n), with stored fibers ``half``."""
        return self._synthesize(
            half.reshape(*half.shape[:-1], self.m_x, self.n))

    def norm_l2(self, half):
        """The L2(0, N) norm of ``field(half)``, read off the stored fibers
        by Parseval (``grids``): a fiber with a distinct -xi mirror counts
        twice. For even N the -pi fiber is its own mirror (cell mode l pairs
        with 1 - l, the grid's Nyquist entry with itself); ``field`` keeps
        only its conjugate-symmetric part, which the truncated propagation
        breaks, and so does the sum."""
        # squared moduli summed from views: no temporary the stack's size
        re, im = half.real, half.imag
        sq = (np.einsum("...jd,...jd->...j", re, re)
              + np.einsum("...jd,...jd->...j", im, im))
        if self.n_period % 2 == 0:
            pair = (((1 - self.ells) % self.m_x)[:, None] * self.n
                    + np.arange(self.n)).reshape(-1)
            last = half[..., -1, :]
            sym = 0.5 * (last + np.conj(last[..., pair]))
            sq[..., -1] = np.sum(sym.real ** 2 + sym.imag ** 2, axis=-1)
        return np.sqrt(sq @ self._weights / self.n_period)

    def apply(self, half, t):
        """V e^{Lambda t} V^-1, that is e^{L_xi t}, on every stored fiber;
        a (T, 1, 1) array ``t`` propagates ``half`` to T times at once."""
        return (self.right @ (np.exp(self.eigvals * t)[..., None]
                              * (self.right_inv @ half[..., None])))[..., 0]

    def amplitudes(self, half):
        """Critical amplitudes <adj_xi, fiber> of the stored fibers ``half``,
        shape (..., N//2+1), NaN off the critical frequencies; entry 0 is
        the translation content of the field."""
        inner = (np.conj(self.crit_adj)[:, None, :] @ half[..., None])[..., 0, 0]
        return np.where(self.critical, inner, np.nan)

    def phase_part(self, amp):
        """The phase fibers of stored fibers with critical amplitudes ``amp``
        (for a fiber propagated over t, e^{lambda_c t} times the datum's
        amplitudes): the mean phase rho amp crit_phi[0] at xi = 0 and the
        phase field rho amp phi' elsewhere, 0 off the critical frequencies.
        The fibers less it are the remainder S~."""
        factors = np.where(self.critical, self.rho * amp, 0.0)
        out = factors[..., None] * self.phi_slots
        out[..., 0, :] = factors[..., 0, None] * self.crit_phi[0]
        return out

    def synthesize_phase(self, inner):
        """Plane-wave synthesis of the scalar phase field, shape (..., P, 1),
        from critical amplitudes ``inner`` (..., N//2+1), conjugated onto
        xi < 0: (1/N) sum_{xi != 0} rho inner_xi e^{i xi x}. Non-finite
        entries of ``inner`` and non-critical frequencies are skipped."""
        inner = np.asarray(inner)
        keep = self.critical & np.isfinite(inner.real)
        keep[..., 0] = False
        coeffs = np.zeros((*inner.shape, self.m_x, 1), dtype=complex)
        coeffs[..., 0, 0] = np.where(keep, self.rho * inner, 0.0)
        return self._synthesize(coeffs)


# ---------------------------------------------------------------------------
# decay measurement

@dataclass
class DecayMeasurement:
    """Norm history of one decomposition part against a claimed envelope."""

    times: np.ndarray
    norms: np.ndarray
    claimed_exponent: float
    fitted_exponent: float
    attained_constant: float    # sup_t norm (1+t)^{-claimed} / reference_norm
    reference_norm: float
    super_polynomial: bool


def measure_decay(engine, v, size, times, l=0, m=0, fit_window=None):
    """Track the L2 norms of the parts of e^{Lt} v, for v real (P, n)
    samples on the engine's grid of L1 size ``size``, and fit each log-norm
    against log(1+t).

    Returns a DecayMeasurement per part: "total" (e^{Lt} v), "mean" (the
    mean phase), "sp" (the scalar d_x^l d_t^m s_p(t) v) and "stilde" (the
    remainder).  v is transformed once and propagated to every sample time
    as one stack of fibers, and every norm is read off fibers by Parseval,
    so no part is synthesized on the grid: "total" and "stilde" by
    ``engine.norm_l2``, S~ formed in place on the propagated stack by
    subtracting ``engine.phase_part``; "mean" from the xi = 0 fiber; "sp"
    from the plane-wave coefficients rho (i xi)^l lambda^m e^{lambda t}
    <adj, v> on the stored slots, weighted as in ``engine.norm_l2``.
    The attained constant is sup_t norm(t) (1+t)^{-claimed}
    / ``size``; the caller gives the size it drew v at, so the constant of
    one band-limited datum is the same on every grid.

    The default fit window is [10, N^2/10] (transient and crossover excluded);
    when that window holds fewer than two samples the whole series is used.
    An explicitly empty window raises ValueError.  Fits leave out samples at
    or below grids.ROUNDING_FLOOR eps max ||e^{Lt} v|| (rounding, not decay);
    a part left with fewer than two samples fits NaN.
    """
    times = np.asarray(times, dtype=float)
    if fit_window is None:
        lo, hi = 10.0, engine.n_period ** 2 / 10.0
    else:
        lo, hi = fit_window
    window = (times >= lo) & (times <= hi)
    if fit_window is not None and not window.any():
        raise ValueError(f"no samples inside fit window [{lo}, {hi}]")

    N = engine.n_period
    half = engine.fibers(v)
    inner = engine.amplitudes(half)
    amp = np.exp(engine.crit_lam * times[:, None]) * inner
    full = engine.apply(half, times[:, None, None])
    total = engine.norm_l2(full)
    # the mean phase lives on the xi = 0 fiber alone
    mean = (np.abs(engine.rho[0] * amp[:, 0])
            * np.linalg.norm(engine.crit_phi[0]) / np.sqrt(N))
    # s_p's plane waves are orthogonal: Parseval on their coefficients, on
    # the nonzero critical frequencies (the amplitudes are NaN off them)
    keep = np.isfinite(inner)
    keep[0] = False
    lam = engine.crit_lam[keep]
    coeffs = (engine.rho[keep] * (1j * engine.frequencies[keep]) ** l
              * lam ** m * amp[:, keep])
    sp = np.sqrt(np.sum(engine._weights[keep] * np.abs(coeffs) ** 2, axis=-1)
                 / N)
    # S~ in place, one time at a time so that no second stack is made
    for row, a in zip(full, amp):
        row -= engine.phase_part(a)
    norms = np.stack([total, mean, sp, engine.norm_l2(full)])

    claimed = {"total": 0.0, "mean": 0.0, "sp": -0.25 - 0.5 * (l + m),
               "stilde": -0.75}
    floor = grids.ROUNDING_FLOOR * np.finfo(float).eps * np.max(norms[0])
    out = {}
    for series, (part, exponent) in zip(norms, claimed.items()):
        mask = series > floor
        if fit_window is not None or (mask & window).sum() >= 2:
            mask &= window
        if mask.sum() >= 2:
            slope = np.polyfit(np.log1p(times[mask]), np.log(series[mask]), 1)[0]
        else:
            slope = np.nan
        envelope = (1.0 + times) ** exponent
        out[part] = DecayMeasurement(
            times=times,
            norms=series,
            claimed_exponent=float(exponent),
            fitted_exponent=float(slope),
            attained_constant=(float(np.max(series / (envelope * size)))
                               if size > 0 else np.inf),
            reference_norm=float(size),
            super_polynomial=bool(slope < exponent - 2.0),
        )
    return out


# ---------------------------------------------------------------------------
# frequency-lattice sums

def lattice_sum(n_period, r, times, d=1.0):
    """(1/N) sum over nonzero lattice frequencies of |xi|^{2r} e^{-2 d xi^2 t}."""
    xi = grids.frequency_lattice(n_period)[1:]
    t = np.asarray(times, dtype=float)[..., None]
    return np.sum(np.abs(xi) ** (2 * r) * np.exp(-2.0 * d * xi ** 2 * t),
                  axis=-1) / n_period


def continuum_envelope(r, times, d=1.0, band=None):
    """(1/2pi) integral of |xi|^{2r} e^{-2 d xi^2 t} over the line.

    With ``band`` the integral is restricted to |xi| <= band, which keeps it
    finite at t = 0 and makes it the natural comparison object for lattice
    sums over frequencies in (-pi, pi].
    """
    from scipy.special import gamma, gammainc
    t = np.asarray(times, dtype=float)
    if band is None:
        return gamma(r + 0.5) * (2.0 * d * t) ** (-(r + 0.5)) / (2.0 * np.pi)
    with np.errstate(divide="ignore"):
        scale = np.where(t > 0, (2.0 * d * t) ** (-(r + 0.5)), 0.0)
    tail = gammainc(r + 0.5, 2.0 * d * t * band ** 2)
    out = np.where(t > 0,
                   gamma(r + 0.5) * scale * tail / (2.0 * np.pi),
                   band ** (2 * r + 1) / ((2 * r + 1) * np.pi))
    return out if out.shape else float(out)


@dataclass
class SumBoundRow:
    n_period: int
    r: float
    attained_constant: float    # sup_t sum * (1+t)^{r+1/2}
    sup_time: float
    sums: np.ndarray            # the lattice sum at each time
    ratios: np.ndarray          # sums * (1+t)^{r+1/2}


def sum_bound_report(n_values, r_values, times, d=1.0):
    """Attained constants of the polynomial bound, per (N, r) pair.

    The claim is (1/N) sum_{xi != 0} |xi|^{2r} e^{-2 d xi^2 t} <= C (1+t)^{-r-1/2}
    with C independent of N and t; the report exposes sup ratios so uniformity
    can be checked across N.
    """
    times = np.asarray(times, dtype=float)
    rows = []
    for n in n_values:
        for r in r_values:
            vals = lattice_sum(n, r, times, d=d)
            ratios = vals * (1.0 + times) ** (r + 0.5)
            i = int(np.argmax(ratios))
            rows.append(SumBoundRow(int(n), float(r), float(ratios[i]),
                                    float(times[i]), vals, ratios))
    return rows


@dataclass
class CrossoverReport:
    n_period: int
    t_star: float               # departure from the continuum envelope
    late_rate: float            # fitted exponential rate after the crossover
    predicted_rate: float       # 2 d (2 pi / N)^2


def crossover_probe(n_period, d=1.0, r=0):
    """Locate the finite-N crossover from power-law to exponential decay:
    on 400 geometric times up to 20 N^2, the first time after the agreement
    window where the continuum envelope exceeds the lattice sum twice over."""
    times = np.geomspace(1e-2, 20.0 * n_period ** 2, 400)
    sums = lattice_sum(n_period, r, times, d=d)
    env = continuum_envelope(r, times, d=d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(sums > 0, env / sums, np.inf)
    # at small t the line integral overshoots the bounded lattice sum, so the
    # departure is the first excursion after the agreement window
    agree = np.nonzero(ratio < 2.0)[0]
    if agree.size:
        later = np.nonzero((np.arange(times.size) > agree[-1]) & (ratio >= 2.0))[0]
        t_star = float(times[later[0]]) if later.size else float(times[-1])
    else:
        t_star = float(times[-1])

    xi_min = TWO_PI / n_period
    predicted = 2.0 * d * xi_min ** 2
    late = (times >= 4.0 * t_star) & (sums > 1e-290)
    if late.sum() >= 2:
        slope, _ = np.polyfit(times[late], np.log(sums[late]), 1)
        late_rate = float(-slope)
    else:
        late_rate = np.nan
    return CrossoverReport(int(n_period), t_star, late_rate, float(predicted))
