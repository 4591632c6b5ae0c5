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
fiber by fiber.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bloch, grids
from .errors import AdmissibilityError, BranchTrackingError

TWO_PI = 2.0 * np.pi

# Fibers whose eigenvector matrix has ||V||_F ||V^-1||_F above COND_LIMIT
# propagate by expm instead of through V.
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


def default_cutoff(profile, stability=None, scan=128):
    """Cutoff radius from the separation of the critical branch."""
    if stability is None:
        stability = bloch.verify_diffusive_stability(profile, scan=scan)
    xi_1 = stability.xi_1
    if xi_1 <= 0.0:
        raise AdmissibilityError(
            "critical branch is not separated from the rest of the spectrum; "
            "no cutoff radius exists")
    return CutoffSpec(min(xi_1, np.pi * (1.0 - 1e-9)))


# ---------------------------------------------------------------------------
# engine

class SemigroupEngine:
    """Fiberwise-diagonalized semigroup for one profile and period multiple N.

    The engine takes real fields only, so the fiber at -xi is the conjugate
    of the one at xi under the l -> -l flip. It decomposes the dense Bloch
    block (odd per-cell mode count m_x; ``bloch.grid_modes`` derives the
    default from the Hill truncation) at the floor(N/2)+1 lattice slots
    j = 0..N//2 in FFT wrap order, the ones ``rfft`` keeps, by
    ``bloch.decompose_fiber`` (for even N slot N/2 is -pi, the conjugate of
    the +pi fiber), and fills the xi < 0 half by conjugation when ``field``
    synthesizes a result. Each fiber follows the critical branch in the
    phi'-anchored gauge from the profile's fiber store at the same
    frequency, zero-padded onto the engine's modes; a branch lost inside the
    cutoff support raises BranchTrackingError. Per-fiber arrays have leading
    size N//2+1; ``frequencies``, ``rho``, ``crit_lam`` and ``critical``
    cover all N frequencies. Fibers whose eigenvector matrix fails
    ||V||_F ||V^-1||_F <= COND_LIMIT propagate by expm.

    The operations act on the stored fibers: ``fibers`` transforms a real
    field, ``apply`` propagates, ``amplitudes`` reads the critical
    amplitudes, ``split`` separates the mean phase, the phase field and S~,
    and ``field`` synthesizes the result. So e^{Lt} v is
    ``field(apply(fibers(v), t))``.
    """

    def __init__(self, profile, n_period, m_x=None, cutoff=None, stability=None):
        if m_x is not None and m_x % 2 == 0:
            raise ValueError(f"m_x must be odd, got {m_x}")
        self.profile = profile
        self.n_period = N = int(n_period)
        self.m_x, _ = bloch.grid_modes(profile, m_x)
        self.n = profile.n
        self.dim = self.m_x * self.n
        self.ells = grids.cell_modes(self.m_x)
        self.that = bloch.reaction_coeffs(profile, self.m_x - 1)
        self.frequencies = grids.frequency_lattice(N)

        if cutoff is None:
            cutoff = default_cutoff(profile, stability=stability)
        self.cutoff = cutoff
        self.rho = np.asarray(cutoff.weight(self.frequencies), dtype=float).reshape(-1)

        # phi' in slot layout (flattened mode-major)
        self.phi_slots = bloch.phi_prime_vector(profile, self.ells)

        H = self.n_half = N // 2 + 1
        self._mirror = np.arange(1, (N + 1) // 2)   # j with a distinct -xi slot N - j
        self._flip = flip = bloch.conjugate_index(self.m_x, self.n)
        self.eigvals = np.empty((H, self.dim), dtype=complex)
        self.right = np.empty((H, self.dim, self.dim), dtype=complex)
        self.right_inv = np.empty_like(self.right)
        self.eigvec_cond = np.empty(H)
        self.crit_lam = np.full(N, np.nan + 0j)
        self.crit_phi = np.zeros((H, self.dim), dtype=complex)
        self.crit_adj = np.zeros((H, self.dim), dtype=complex)
        self._expm = {}             # j -> Bloch matrix of a fiber failing COND_LIMIT

        store = bloch.fiber_store(profile)
        for j in range(H):
            # |xi| turns the lattice's -pi (even N) into the +pi it mirrors
            xi = abs(self.frequencies[j])
            mat = bloch.assemble_bloch(profile, xi, ells=self.ells,
                                       that=self.that).entries
            ref = bloch.pad_modes(store.fiber(j, N).vec, self.n, self.m_x)
            fib, V = bloch.decompose_fiber(mat, ref, self.phi_slots)
            if fib.index is None and self.rho[j] > 0.0:
                raise BranchTrackingError(
                    f"critical branch lost at xi = {xi:.6g} inside the "
                    f"cutoff support |xi| < {cutoff.xi_1:.6g}")
            if 2 * j == N:      # even N keeps -pi: conjugate the +pi fiber
                fib, V, mat = (fib.conjugate(flip), np.conj(V)[flip],
                               np.conj(mat)[flip][:, flip])
            try:
                V_inv = np.linalg.inv(V)
                cond = np.linalg.norm(V) * np.linalg.norm(V_inv)
            except np.linalg.LinAlgError:
                cond = np.inf
            if not cond <= COND_LIMIT:
                V_inv = np.full_like(V, np.nan)
                self._expm[j] = mat
            self.eigvals[j], self.right[j], self.right_inv[j] = fib.lam, V, V_inv
            self.eigvec_cond[j] = cond
            if fib.index is not None:
                self.crit_lam[j] = fib.lam_c
                self.crit_phi[j], self.crit_adj[j] = fib.vec, fib.adj
        self.diagonalizable = self.eigvec_cond <= COND_LIMIT
        self.crit_lam[N - self._mirror] = np.conj(self.crit_lam[self._mirror])
        # the frequencies that carry a critical projection
        self.critical = (self.rho > 0.0) & np.isfinite(self.crit_lam.real)

    # -- fiber-space operations ---------------------------------------------

    def fibers(self, v):
        """The stored (xi >= 0) half of the Bloch transform of the real v,
        shape (N//2+1, dim)."""
        if v.n_period != self.n_period or v.m_x != self.m_x:
            raise ValueError(
                f"grid mismatch: engine is (N={self.n_period}, m_x={self.m_x}), "
                f"function is (N={v.n_period}, m_x={v.m_x})")
        if np.iscomplexobj(v.values):
            raise ValueError("the semigroup engine takes real fields only")
        coeffs = grids.bloch_transform(v).coeffs[:self.n_half]
        return coeffs.reshape(self.n_half, self.dim)

    def field(self, half):
        """The real field with stored fibers ``half``, conjugated onto xi < 0."""
        N = self.n_period
        full = np.empty((N, self.dim), dtype=complex)
        full[:self.n_half] = half
        full[N - self._mirror] = np.conj(half[self._mirror][:, self._flip])
        return grids.bloch_inverse(grids.BlochCoefficients(
            N, full.reshape(N, self.m_x, self.n), was_real=True))

    def apply(self, half, t):
        """e^{L_xi t} on every stored fiber (expm where V is ill-conditioned)."""
        out = (self.right @ (np.exp(self.eigvals * t)[:, :, None]
                             * (self.right_inv @ half[:, :, None])))[:, :, 0]
        if self._expm:
            import scipy.linalg     # kept off the package's import path
            for j, mat in self._expm.items():
                out[j] = scipy.linalg.expm(mat * t) @ half[j]
        return out

    def amplitudes(self, half):
        """Critical amplitudes <adj_xi, fiber> of the stored fibers ``half`` on
        all N frequencies, NaN off the critical ones; entry 0 is the
        translation content of the field."""
        H = self.n_half
        inner = (np.conj(self.crit_adj)[:, None, :] @ half[:, :, None])[:, 0, 0]
        out = np.full(self.n_period, np.nan + 0j)
        out[:H] = np.where(self.critical[:H], inner, np.nan)
        out[self.n_period - self._mirror] = np.conj(out[self._mirror])
        return out

    def split(self, full, amp):
        """The mean-phase, phase-field and remainder S~ fibers of the stored
        fibers ``full``, given their critical amplitudes ``amp`` (for a fiber
        propagated over t, e^{lambda_c t} times the datum's amplitudes).
        The three sum to ``full``."""
        H = self.n_half
        factors = np.where(self.critical[:H], self.rho[:H] * amp[:H], 0.0)
        mean_f = np.zeros_like(full)
        mean_f[0] = factors[0] * self.crit_phi[0]
        sp_f = factors[:, None] * self.phi_slots
        sp_f[0] = 0.0
        return mean_f, sp_f, full - mean_f - sp_f

    def synthesize_phase(self, inner, t=0.0, l=0, m=0):
        """Plane-wave synthesis of the scalar phase field from critical
        amplitudes: (1/N) sum_{xi != 0} rho (i xi)^l lambda^m e^{lambda t}
        inner_xi e^{i xi x}.  Non-finite entries of ``inner`` and
        non-critical frequencies are skipped."""
        inner = np.asarray(inner)
        sel = np.flatnonzero(self.critical & np.isfinite(inner.real))
        sel = sel[sel != 0]
        lam = self.crit_lam[sel]
        fibers = np.zeros((self.n_period, self.m_x, 1), dtype=complex)
        fibers[sel, 0, 0] = (self.rho[sel] * (1j * self.frequencies[sel]) ** l
                             * lam ** m * np.exp(lam * t) * inner[sel])
        bc = grids.BlochCoefficients(self.n_period, fibers, was_real=True)
        return grids.bloch_inverse(bc)


# ---------------------------------------------------------------------------
# decay measurement

@dataclass
class DecayMeasurement:
    """Norm history of one decomposition part against a claimed envelope."""

    times: np.ndarray
    norms: np.ndarray
    claimed_exponent: float
    fitted_exponent: float
    attained_constant: float    # sup_t norm (1+t)^{-claimed} / ref
    reference_norm: float
    super_polynomial: bool


def measure_decay(engine, v, times, l=0, m=0, fit_window=None,
                  reference_norm=None):
    """Track the L2 norms of the parts of e^{Lt} v and fit each log-norm
    against log(1+t).

    Returns a DecayMeasurement per part: "total" (e^{Lt} v), "mean" (the
    mean phase), "sp" (the scalar d_x^l d_t^m s_p(t) v) and "stilde" (the
    remainder).  v is transformed once and propagated once per sample time.
    The attained constant is sup_t norm(t) (1+t)^{-claimed} / ||v||_{L1},
    with ||v||_{L1} summed on the engine's grid unless ``reference_norm``
    gives it (for a band-limited datum, its size on
    ``grids.quadrature_samples``, which is the same on every grid).

    The default fit window is [10, N^2/10] (transient and crossover excluded);
    when that window holds fewer than two samples the whole series is used.
    An explicitly empty window raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    if fit_window is None:
        lo, hi = 10.0, engine.n_period ** 2 / 10.0
    else:
        lo, hi = fit_window
    window = (times >= lo) & (times <= hi)
    if fit_window is not None and not window.any():
        raise ValueError(f"no samples inside fit window [{lo}, {hi}]")

    half = engine.fibers(v)
    inner = engine.amplitudes(half)
    norms = np.empty((4, times.size))
    for i, t in enumerate(times):
        total = engine.apply(half, t)
        mean, _, rem = engine.split(total, np.exp(engine.crit_lam * t) * inner)
        sp = engine.synthesize_phase(inner, t=t, l=l, m=m)
        norms[:, i] = [grids.norm_l2(engine.field(total)),
                       grids.norm_l2(engine.field(mean)), grids.norm_l2(sp),
                       grids.norm_l2(engine.field(rem))]
    ref = grids.norm_l1(v) if reference_norm is None else reference_norm

    claimed = {"total": 0.0, "mean": 0.0, "sp": -0.25 - 0.5 * (l + m),
               "stilde": -0.75}
    out = {}
    for series, (part, exponent) in zip(norms, claimed.items()):
        mask = series > 1e-290
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
            attained_constant=(float(np.max(series / (envelope * ref)))
                               if ref > 0 else np.inf),
            reference_norm=float(ref),
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


def crossover_probe(n_period, d=1.0, r=0, times=None, factor=2.0):
    """Locate the finite-N crossover from power-law to exponential decay."""
    if times is None:
        tmax = 20.0 * n_period ** 2
        times = np.geomspace(1e-2, tmax, 400)
    times = np.asarray(times, dtype=float)
    sums = lattice_sum(n_period, r, times, d=d)
    env = continuum_envelope(r, times, d=d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(sums > 0, env / sums, np.inf)
    # at small t the line integral overshoots the bounded lattice sum, so the
    # departure is the first excursion after the agreement window
    agree = np.nonzero(ratio < factor)[0]
    if agree.size:
        later = np.nonzero((np.arange(times.size) > agree[-1]) & (ratio >= factor))[0]
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
