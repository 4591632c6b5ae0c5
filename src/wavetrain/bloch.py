"""Bloch operators of the linearization about a wave profile.

The co-moving linearization about phi is the generator

    L w = k w'' + c w' + Df(phi(x)) w / k,

acting on N-periodic functions. On each Bloch frequency xi the conjugated
operator L_xi = e^{-i xi x} L e^{i xi x} acts on 1-periodic functions and is
discretized here as a dense matrix on Fourier modes (Hill's method): diagonal
symbol blocks k (i(xi+2*pi*l))^2 + c i(xi+2*pi*l) plus the block-Toeplitz
convolution with the coefficients of Df(phi(.))/k.

The spectral quantities use the Hill truncation derived from the tail of
those coefficients (see ``fiber_store``), not the profile's storage size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fourier, grids
from .errors import AdmissibilityError, BranchTrackingError, ResolutionError

TWO_PI = 2.0 * np.pi

# Hill truncation: the smallest M whose Df(phi) coefficients beyond |l| = M
# are at most HILL_TAIL_TOL of the largest, raised to HILL_MIN_MODES and
# capped at the profile's m_f, which must leave no larger tail; the
# rightmost eigenvalues at M and 2M must then agree to HILL_CHECK_TOL
# relative.
HILL_TAIL_TOL = 1e-13
HILL_MIN_MODES = 4
HILL_CHECK_TOL = 1e-9

# Branch following: a continuation is ambiguous when the runner-up
# eigenvector overlap reaches BRANCH_OVERLAP_FLOOR; the branch is walked on
# lattices refined until their frequency steps are at most BRANCH_MAX_STEP.
BRANCH_OVERLAP_FLOOR = 0.5
BRANCH_MAX_STEP = 0.15

# Condition (c) of the stability check: L_0 has exactly one eigenvalue within
# STABILITY_TOL_ZERO of 0, with eigenfunction within STABILITY_ANGLE_TOL of
# phi' (1 - |cos|).
STABILITY_TOL_ZERO = 1e-8
STABILITY_ANGLE_TOL = 1e-6

# Points of the critical curve's fit on |xi| <= CURVE_XI_MAX (odd, so the
# grid holds xi = 0 for the second difference).
CURVE_SAMPLES = 17
CURVE_XI_MAX = 0.25


# ---------------------------------------------------------------------------
# operator assembly

def reaction_coeffs(profile, span):
    """Fourier coefficients -span..span of Df(phi(.)), sampled alias-safely."""
    m = profile.m_f
    grid = 2 * (m + span + 1)
    phi = profile.on_grid(grid)
    return fourier.grid_coeffs(profile.model.df(phi), span)


def assemble_bloch(profile, xi, ells=None, that=None):
    """The dense matrix of L_xi on modes ``ells`` (default the profile's
    storage modes |l| <= m_f, in FFT wrap order)."""
    if ells is None:
        ells = grids.cell_modes(2 * profile.m_f + 1)
    ells = np.asarray(ells)
    if that is None:
        span = int(np.abs(ells[:, None] - ells[None, :]).max())
        that = reaction_coeffs(profile, span)
    k, c = profile.k, profile.c
    return fourier.operator_matrix(ells, xi, k, c, that, react_scale=1.0 / k)


def pad_modes(vec, n, m_x):
    """A mode-major vector on the 2m+1 modes |l| <= m (FFT wrap order),
    zero-padded onto the m_x >= 2m+1 cell modes of ``grids.cell_modes``."""
    vec = np.asarray(vec).reshape(-1, n)
    out = np.zeros((m_x, n), dtype=vec.dtype)
    out[grids.cell_modes(vec.shape[0]) % m_x] = vec
    return out.reshape(-1)


def _nearest_eigenvalue(matrix, shift):
    """The eigenvalue of ``matrix`` nearest ``shift``, by inverse iteration.

    Each of three steps solves (matrix - shift) y = x for the unit vector
    x, so shift + 1 / <x, y> converges to the nearest eigenvalue at the
    ratio of the nearest to the next-nearest distance from ``shift``. The
    start vector is a fixed pseudo-random one.
    """
    dim = matrix.shape[0]
    shifted = matrix - shift * np.eye(dim)
    x = np.random.default_rng(0).standard_normal(dim).astype(complex)
    mu = complex(shift)
    for _ in range(3):
        x /= np.linalg.norm(x)
        try:
            y = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:       # shift is an eigenvalue
            return complex(shift)
        mu = shift + 1.0 / np.vdot(x, y)
        x = y
    return complex(mu)


def phi_prime_vector(profile, ells):
    """Coefficient vector of phi' on the mode set ``ells`` (mode-major layout)."""
    dc = fourier.deriv_coeffs(profile.coeffs)
    m = profile.m_f
    ells = np.asarray(ells)
    out = np.zeros((ells.size, profile.n), dtype=complex)
    inside = np.abs(ells) <= m
    out[inside] = dc[ells[inside] + m]
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# critical branch

def adjoint_vector(matrix, lam, v):
    """Left eigenvector w of ``matrix`` at the simple eigenvalue lam, <w, v> = 1.

    It solves the bordered system [[A - lam, v], [v^H, 0]]^H (w, mu) = (0, 1),
    which is nonsingular for a simple eigenvalue with right eigenvector v.
    """
    dim = v.size
    border = np.zeros((dim + 1, dim + 1), dtype=complex)
    border[:dim, :dim] = matrix - lam * np.eye(dim)
    border[:dim, dim] = v
    border[dim, :dim] = v.conj()
    rhs = np.zeros(dim + 1, dtype=complex)
    rhs[dim] = 1.0
    return np.linalg.solve(border.conj().T, rhs)[:dim]


def follow_branch(matrix, lam, vecs, ref, phi_vec):
    """Continue the critical branch of ``ref`` into the fiber (lam, vecs).

    Picks the eigenvector with the largest normalized overlap with ``ref``,
    gauges it to <phi', v> = ||phi'||^2, takes the adjoint with <adj, v> = 1
    by the bordered solve of ``adjoint_vector``, and refines lambda_c by the
    two-sided Rayleigh quotient, which is exact to second order in the
    vector errors; the dense eigensolver alone is only good to
    eps * ||matrix||. Returns (index, lambda_c, v, adj, margin), the margin
    being the best minus the runner-up overlap. Raises BranchTrackingError
    when the runner-up also reaches BRANCH_OVERLAP_FLOOR or when v is
    orthogonal to phi'.
    """
    overlaps = np.abs(ref.conj() @ vecs) / (np.linalg.norm(vecs, axis=0)
                                             * np.linalg.norm(ref))
    order = np.argsort(-overlaps)
    idx = int(order[0])
    runner_up = overlaps[order[1]] if overlaps.size > 1 else 0.0
    if runner_up >= BRANCH_OVERLAP_FLOOR:
        raise BranchTrackingError(
            f"ambiguous branch continuation: overlaps {overlaps[idx]:.3f} and "
            f"{runner_up:.3f} both exceed {BRANCH_OVERLAP_FLOOR}")
    v = vecs[:, idx]
    s = np.vdot(phi_vec, v)
    if abs(s) < 1e-8 * np.linalg.norm(v) * np.linalg.norm(phi_vec):
        raise BranchTrackingError("critical eigenvector is orthogonal to phi'; "
                                  "gauge undefined")
    v = v * (np.vdot(phi_vec, phi_vec) / s)
    adj = adjoint_vector(matrix, lam[idx], v)
    lam_c = np.vdot(adj, matrix @ v) / np.vdot(adj, v)
    return idx, lam_c, v, adj, float(overlaps[idx] - runner_up)


def conjugate_index(n_modes, n):
    """Permutation l -> -l of mode-major vectors on FFT-ordered modes.

    L_{-xi} = P conj(L_xi) P for this permutation P, so conj(v)[perm] is an
    eigenvector of L_{-xi} whenever v is one of L_xi.
    """
    slots = (-np.arange(n_modes)) % n_modes
    return (slots[:, None] * n + np.arange(n)).reshape(-1)


@dataclass
class _Fiber:
    """One decomposed Bloch fiber and the critical branch through it."""

    lam: np.ndarray             # eigenvalues, Re-descending (lambda_c refined)
    index: int | None           # position of lambda_c in ``lam``; None where lost
    vec: np.ndarray             # phi'-gauged critical vector (last followed if lost)
    adj: np.ndarray | None      # its adjoint, <adj, vec> = 1
    margin: float               # best minus runner-up overlap; nan where lost

    @property
    def lam_c(self):
        return complex(np.nan, np.nan) if self.index is None else complex(
            self.lam[self.index])

    def conjugate(self, flip):
        """The fiber at -xi: L_{-xi} = P conj(L_xi) P for the l -> -l
        permutation ``flip`` of ``conjugate_index``."""
        return _Fiber(np.conj(self.lam), self.index, np.conj(self.vec)[flip],
                      None if self.adj is None else np.conj(self.adj)[flip],
                      self.margin)


def decompose_fiber(matrix, ref, phi_vec):
    """Eigendecompose one Bloch fiber and follow the critical branch of
    ``ref`` into it (see ``follow_branch``).

    Returns (fiber, V): the eigenvalues Re-descending with lambda_c refined,
    and the unit eigenvectors V in the same order. Where the branch is lost
    the fiber's index is None and its vec is ``ref``.
    """
    lam, vecs = np.linalg.eig(matrix)
    order = np.argsort(-lam.real)
    lam, vecs = lam[order], vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    try:
        idx, lam_c, vec, adj, margin = follow_branch(matrix, lam, vecs, ref,
                                                     phi_vec)
    except BranchTrackingError:
        return _Fiber(lam, None, ref, None, np.nan), vecs
    lam[idx] = lam_c
    return _Fiber(lam, idx, vec, adj, margin), vecs


class _BranchWalker:
    """The Bloch fibers of a profile at its Hill truncation, decomposed once.

    A fiber xi = base * q >= 0 is keyed on the reduced fraction q. Base 2*pi
    gives the N-periodic lattice xi = 2*pi*j/N, so nested lattices share
    their fibers; other bases serve critical-curve samples and single
    frequencies. The critical branch is followed from xi = 0, where it is
    phi', by eigenvector overlap over the lattice of q's denominator, refined
    by powers of two until its steps are at most BRANCH_MAX_STEP. A fiber keeps
    its eigenvalues and critical data only, no eigenvector matrix; xi < 0
    comes from -xi by conjugation. Modes are in FFT wrap order.
    """

    def __init__(self, profile, m):
        self.profile = profile
        self.m = m
        self.ells = grids.cell_modes(2 * m + 1)
        self.that = reaction_coeffs(profile, 2 * m)
        self.phi_vec = phi_prime_vector(profile, self.ells)
        self._flip = conjugate_index(self.ells.size, profile.n)
        self._fibers = {}
        self.decomposed = 0         # fibers eigendecomposed so far
        self.hill = None            # HillTruncation of m, set by fiber_store

    def refined(self, n, base=TWO_PI):
        """Smallest n * 2^p with lattice steps base / (n 2^p) <= BRANCH_MAX_STEP."""
        while base / n > BRANCH_MAX_STEP:
            n *= 2
        return n

    def _key(self, q, base):
        return (base if q else 0.0, q)

    def fiber(self, j, n=1, base=TWO_PI):
        """The fiber at xi = base * j / n."""
        q = Fraction(int(j), int(n))
        if q < 0:
            return self.fiber(-q.numerator, q.denominator, base).conjugate(
                self._flip)
        key = self._key(q, base)
        if key in self._fibers:
            return self._fibers[key]
        # walk the refined lattice from the last fiber known on the way
        fine = self.refined(q.denominator, base)
        target = int(q * fine)
        k = target
        while k > 0 and self._key(Fraction(k, fine), base) not in self._fibers:
            k -= 1
        start = self._fibers.get(self._key(Fraction(k, fine), base))
        ref = self.phi_vec if start is None else start.vec
        for i in range(k if start is None else k + 1, target + 1):
            step = Fraction(i, fine)
            fib = self._decompose(base * step.numerator / step.denominator, ref)
            self._fibers[self._key(step, base)] = fib
            ref = fib.vec
        return self._fibers[key]

    def _decompose(self, xi, ref):
        mat = assemble_bloch(self.profile, xi, ells=self.ells, that=self.that)
        self.decomposed += 1
        return decompose_fiber(mat, ref, self.phi_vec)[0]

    def mode_at(self, xi):
        """The fiber at one frequency, walked to from 0; BranchTrackingError
        where the critical branch is lost."""
        xi = float(xi)
        fib = self.fiber(np.sign(xi), 1, abs(xi))
        if fib.index is None:
            raise BranchTrackingError(
                f"critical branch lost on the way to xi={xi:.4f}")
        return fib


@dataclass(frozen=True)
class HillTruncation:
    """The spectral truncation of a profile and the evidence for it."""

    modes: int          # M: the fibers carry the modes |l| <= M
    tail: float         # largest Df(phi) coefficient beyond M, over the largest
    check: float        # rightmost eigenvalues at M against 2M, relative


def _coefficient_tails(profile):
    """tails[M]: the largest coefficient of Df(phi) with M < |l| <= 2 m_f,
    relative to the largest one."""
    span = 2 * profile.m_f
    mags = np.abs(reaction_coeffs(profile, span)).max(axis=(1, 2))
    per_abs = np.maximum(mags[span:], mags[span::-1])        # |l| = 0..span
    beyond = np.append(np.maximum.accumulate(per_abs[::-1])[::-1][1:], 0.0)
    return beyond / per_abs.max()


def _two_truncation_deviation(store):
    """Distance of the 2n rightmost eigenvalues of L_0 and L_pi at the
    store's m from those at 2m, over the largest modulus among them.

    The eigenvalues at m are the store's (its fibers at 0 and pi); each one
    is followed into the 2m operator by ``_nearest_eigenvalue``, so the check
    costs solves, not eigendecompositions.
    """
    profile = store.profile
    ells = grids.cell_modes(4 * store.m + 1)
    that = reaction_coeffs(profile, 4 * store.m)
    dev = scale = 0.0
    for xi, fib in ((0.0, store.fiber(0)), (np.pi, store.fiber(1, 2))):
        coarse = fib.lam[:2 * profile.n]
        mat = assemble_bloch(profile, xi, ells=ells, that=that)
        fine = np.array([_nearest_eigenvalue(mat, lam) for lam in coarse])
        dev = max(dev, float(np.abs(fine - coarse).max()))
        scale = max(scale, float(np.abs(coarse).max()),
                    float(np.abs(fine).max()))
    return dev / scale if scale > 0.0 else dev


def _require_tail(tail, what, remedy):
    """The one tail test of the Hill truncation and the grids: ResolutionError
    unless ``tail``, relative to the largest coefficient, is at most
    HILL_TAIL_TOL."""
    if not tail <= HILL_TAIL_TOL:
        raise ResolutionError(
            f"{what} up to {tail:.2e} of the largest (limit "
            f"{HILL_TAIL_TOL:g}); {remedy}")


def fiber_store(profile):
    """The fiber store of ``profile`` at its Hill truncation, cached on it.

    The mode count M is derived once: the smallest M whose Df(phi)
    coefficients beyond |l| = M are at most HILL_TAIL_TOL of the largest,
    raised to HILL_MIN_MODES and capped at ``profile.m_f``. The store's
    ``hill`` holds the evidence. Raises ResolutionError, and caches nothing,
    when the cap leaves a larger tail, or when the rightmost eigenvalues of
    L_0 and L_pi at M and 2M differ by more than HILL_CHECK_TOL relative.
    """
    store = profile._fiber_store
    if store is None:
        tails = _coefficient_tails(profile)
        m = min(max(int(np.argmax(tails <= HILL_TAIL_TOL)), HILL_MIN_MODES),
                profile.m_f)
        # below the cap the tail at m passes by the choice of m
        _require_tail(tails[m],
                      f"the Hill truncation, capped at the profile's m_f = "
                      f"{profile.m_f}, leaves Df(phi) coefficients",
                      "the profile is under-resolved, solve it again with "
                      "more modes")
        store = _BranchWalker(profile, m)
        check = _two_truncation_deviation(store)
        if not check <= HILL_CHECK_TOL:
            raise ResolutionError(
                f"Hill truncation m = {m} (profile m_f = {profile.m_f}) "
                f"is under-resolved: the rightmost eigenvalues at m and "
                f"2m differ by {check:.2e} relative (limit "
                f"{HILL_CHECK_TOL:g}); solve the profile with more modes")
        store.hill = HillTruncation(m, float(tails[m]), check)
        profile._fiber_store = store
    return store


def grid_modes(profile, m_x=None):
    """The cell modes m_x of the grids and engines of ``profile``, and the
    profile coefficients such a cell carries.

    The default is 4M + 1 for the Hill truncation M of ``fiber_store``: the
    cell holds |l| <= 2M, the band of Df(phi) times a fiber's modes, capped
    at the 2 m_f + 1 that carry every stored coefficient. An explicit m_x
    below 2 m_f + 1 must be at least 2M + 1, so that the store's fibers fit
    (AdmissibilityError otherwise). The coefficients beyond the cell's
    |l| <= (m_x - 1)/2 are dropped only when the largest of them is at most
    HILL_TAIL_TOL of the largest coefficient; otherwise ResolutionError is
    raised. Returns (m_x, coefficients on the kept modes).
    """
    full = 2 * profile.m_f + 1
    if m_x is None or m_x < full:
        M = fiber_store(profile).hill.modes
        if m_x is None:
            m_x = min(4 * M + 1, full)
        elif m_x < 2 * M + 1:
            raise AdmissibilityError(
                f"m_x = {m_x} cannot hold the modes |l| <= {M} of the Hill "
                f"truncation; need m_x >= {2 * M + 1}")
    m_f, keep = profile.m_f, min(profile.m_f, (m_x - 1) // 2)
    coeffs = profile.coeffs
    if keep < m_f:
        mags = np.abs(coeffs).max(axis=1)
        kept = np.s_[m_f - keep:m_f + keep + 1]
        _require_tail(np.delete(mags, kept).max() / mags.max(),
                      f"m_x = {m_x} drops profile coefficients",
                      "the grid is under-resolved, use a larger m_x")
        coeffs = coeffs[kept]
    return int(m_x), coeffs


def decomposed_fibers(profile):
    """Fibers eigendecomposed so far by the fiber store of ``profile``."""
    store = profile._fiber_store
    return 0 if store is None else store.decomposed


@dataclass
class CriticalCurve:
    """Sampled critical dispersion branch with its small-xi fit."""

    xis: np.ndarray
    lambdas: np.ndarray
    a: float                  # drift:   lambda_c(xi) ~ i a xi ...
    d: float                  # curvature: ... - d xi^2
    d_second_diff: float      # centered second difference at 0, for cross-checks
    fit_residual: float


def critical_curve(profile):
    """Track lambda_c at CURVE_SAMPLES points of |xi| <= CURVE_XI_MAX and fit
    i*a*xi - d*xi^2."""
    store = fiber_store(profile)
    half = CURVE_SAMPLES // 2
    pos = np.array([store.fiber(i, half, CURVE_XI_MAX).lam_c
                    for i in range(half + 1)])
    if np.isnan(pos.real).any():
        raise BranchTrackingError(
            f"critical branch lost on |xi| <= {CURVE_XI_MAX:g}")
    lams = np.concatenate([np.conj(pos[:0:-1]), pos])
    xs = np.linspace(-CURVE_XI_MAX, CURVE_XI_MAX, CURVE_SAMPLES)

    d = -float(np.sum(lams.real * xs ** 2) / np.sum(xs ** 4))
    a = float(np.sum(lams.imag * xs) / np.sum(xs ** 2))
    model_vals = 1j * a * xs - d * xs ** 2
    fit_residual = float(np.linalg.norm(lams - model_vals) / max(np.linalg.norm(lams), 1e-300))
    h = xs[1] - xs[0]
    d2 = -(lams[half + 1].real - 2.0 * lams[half].real + lams[half - 1].real) / (h * h) / 2.0
    return CriticalCurve(xs, lams, a, d, float(d2), fit_residual)


# ---------------------------------------------------------------------------
# stability verification

@dataclass
class StabilityReport:
    """Outcome of the three-part diffusive spectral stability check."""

    verdict: bool
    condition_negative_spectrum: bool
    condition_quadratic_bound: bool
    condition_simple_zero: bool
    theta: float
    curve: CriticalCurve
    xi_1: float
    delta_1: float
    delta_0: dict
    zero_simplicity: float
    max_nonzero_real: float
    failures: list
    scan: int
    hill: HillTruncation                 # the Hill truncation and its evidence
    tol_zero: float
    branch_lost: list                    # scan xi where lambda_c was lost
    min_overlap_margin: float            # over the followed scan fibers


def verify_diffusive_stability(profile, scan=256):
    """Check the three spectral stability conditions over a Bloch-frequency scan.

    (a) spectrum of every L_xi in {Re < 0} apart from the translation zero,
    (b) Re sigma(L_xi) <= -theta xi^2 for some theta > 0,
    (c) 0 a simple eigenvalue of L_0 with eigenfunction phi'.

    The scan covers the xi >= 0 half of the lattice xi = 2*pi*j/scan (the
    spectrum at -xi is the conjugate one).
    """
    if scan < 8:
        raise ValueError(f"scan must be >= 8, got {scan}")
    store = fiber_store(profile)
    half = (scan + 1) // 2
    xis = grids.frequency_lattice(scan)[:half]
    fibers = [store.fiber(j, scan) for j in grids.cell_modes(scan)[:half]]

    failures = []

    # condition (c): simplicity of the zero of L_0 with eigenfunction phi'
    lam0 = fibers[0].lam
    absorder = np.argsort(np.abs(lam0))
    zero_count = int(np.sum(np.abs(lam0) <= STABILITY_TOL_ZERO))
    zero_simplicity = float(np.abs(lam0[absorder[1]]))
    # the gauge makes <phi', vec> = ||phi'||^2, so |cos| = ||phi'|| / ||vec||
    align = (float(np.linalg.norm(store.phi_vec) / np.linalg.norm(fibers[0].vec))
             if fibers[0].index == absorder[0] else 0.0)
    cond_simple = (zero_count == 1) and (align >= 1.0 - STABILITY_ANGLE_TOL)
    if zero_count != 1:
        failures.append(
            f"L_0 has {zero_count} eigenvalues within {STABILITY_TOL_ZERO:g} "
            "of 0 (need exactly 1)")
    if align < 1.0 - STABILITY_ANGLE_TOL:
        failures.append(f"zero eigenfunction misaligned with phi' (|cos| = {align:.2e})")

    # per scan frequency: the top of the spectrum, Re lambda_c (nan where
    # lost) and the top of the rest; at xi = 0 lambda_c is the zero, the
    # eigenvalue nearest 0
    top, crit, rest = np.empty((3, half))
    for j, fib in enumerate(fibers):
        re = fib.lam.real
        out = absorder[0] if j == 0 else fib.index
        top[j] = re.max()
        crit[j] = 0.0 if j == 0 else fib.lam_c.real
        rest[j] = re.max() if out is None else np.delete(re, out).max()
    margins = [fib.margin for fib in fibers if fib.index is not None]

    max_nonzero_real = -lattice_gap([fib.lam for fib in fibers])[0]
    theta = np.min(-top[1:] / xis[1:] ** 2)
    cond_negative = bool(max_nonzero_real < 0.0)
    if max_nonzero_real >= 0.0:
        failures.append(f"spectrum reaches Re = {max_nonzero_real:.3e} >= 0 away from the origin")
    cond_quadratic = bool(theta > 0.0)
    if not cond_quadratic:
        failures.append(f"no parabolic bound: theta = {theta:.3e} <= 0")

    # separation radius xi_1 and gap delta_1: the critical branch stays above
    # the rest on the first k scan points, up to where they meet or the
    # branch is lost (the nan runs on through the accumulate)
    worst_rest = np.maximum.accumulate(rest)
    worst_crit = np.minimum.accumulate(crit)
    k = int(np.count_nonzero(worst_rest < worst_crit))
    xi_1 = min(xis[k - 1], np.pi * (1.0 - 2.0 / scan)) if k else 0.0
    delta_1 = -(worst_rest[k - 1] + worst_crit[k - 1]) / 2.0 if k else 0.0

    # exponential rates outside cutoff radii
    delta_0 = {float(xi0): float(-top[xis >= xi0 - 1e-12].max())
               for xi0 in (xi_1 / 2.0, xi_1) if xi0 > 0}

    curve = critical_curve(profile)

    verdict = cond_negative and cond_quadratic and cond_simple
    return StabilityReport(
        verdict=verdict,
        condition_negative_spectrum=cond_negative,
        condition_quadratic_bound=cond_quadratic,
        condition_simple_zero=cond_simple,
        theta=float(theta),
        curve=curve,
        xi_1=float(xi_1),
        delta_1=float(delta_1),
        delta_0=delta_0,
        zero_simplicity=zero_simplicity,
        max_nonzero_real=float(max_nonzero_real),
        failures=failures,
        scan=scan,
        hill=store.hill,
        tol_zero=STABILITY_TOL_ZERO,
        branch_lost=xis[np.isnan(crit)].tolist(),
        min_overlap_margin=float(min(margins)) if margins else np.nan,
    )


# ---------------------------------------------------------------------------
# subharmonic (N-periodic) spectra

@dataclass
class SubharmonicSpectrum:
    """Pooled spectrum over the N//2+1 lattice slots xi >= 0 (FFT wrap
    order, so even N ends at -pi); -xi holds the conjugate spectrum."""

    n_period: int
    frequencies: np.ndarray
    eigenvalues: list               # per-frequency arrays, Re-descending
    critical: np.ndarray            # tracked branch value per frequency (nan if lost)
    delta: float                    # spectral gap: -max Re over nonzero modes
    attaining_xi: float
    zero_defect: float              # |lambda| of the translation mode at xi = 0


def lattice_gap(eigenvalues):
    """Gap of a lattice's spectra, listed in FFT wrap order (entry 0 at xi = 0).

    Returns (delta, index of the first fiber attaining it, zero defect):
    delta is minus the largest real part once the translation eigenvalue,
    the one nearest 0 at xi = 0, is set aside.
    """
    top, where = -np.inf, 0
    zero = int(np.argmin(np.abs(eigenvalues[0])))
    zero_defect = float(np.abs(eigenvalues[0][zero]))
    for j, lam in enumerate(eigenvalues):
        if j == 0:
            lam = np.delete(lam, zero)
        t = float(lam.real.max())
        if t > top:
            top, where = t, j
    return -top, where, zero_defect


def subharmonic_spectrum(profile, n_period):
    """Eigenvalues of L_xi on the xi >= 0 half of the N-periodic Bloch
    lattice, whose gap and zero defect are those of the whole lattice."""
    store = fiber_store(profile)
    half = n_period // 2 + 1
    freqs = grids.frequency_lattice(n_period)[:half]
    fibers = [store.fiber(j, n_period)
              for j in grids.cell_modes(n_period)[:half]]
    eigs = [fib.lam for fib in fibers]
    delta, where, zero_defect = lattice_gap(eigs)
    return SubharmonicSpectrum(
        n_period=n_period,
        frequencies=freqs,
        eigenvalues=eigs,
        critical=np.array([fib.lam_c for fib in fibers]),
        delta=delta,
        attaining_xi=float(freqs[where]),
        zero_defect=zero_defect,
    )

