"""Bloch-operator spectra, the critical branch, and stability verdicts."""

import dataclasses

import numpy as np
import pytest

from wavetrain import bloch
from wavetrain.bloch import (
    assemble_bloch,
    critical_curve,
    fiber_store,
    grid_modes,
    pad_modes,
    subharmonic_spectrum,
    verify_diffusive_stability,
)
from wavetrain.errors import AdmissibilityError, ResolutionError
from wavetrain.grids import cell_modes, frequency_lattice
from wavetrain.models import ReactionModel, nagumo, real_ginzburg_landau
from wavetrain.profiles import (
    WaveProfile,
    nagumo_guess,
    rgl_analytic,
    solve_profile,
)

# Frozen reference values for the q = 0.3 wave (k = 0.3 / (2 pi)).
# The drift vanishes by reflection symmetry and the curvature equals
# k (1 - 3 q^2) / (1 - q^2); the gaps come from converged scans.
D_Q03 = 0.03830212366717042
GAPS_Q03 = {
    1: 1.515684575117475,
    2: 0.37825363713,
    4: 0.094520930738,
    8: 0.023627565626,
}


@pytest.fixture(scope="module")
def rgl_q07():
    return solve_profile(
        real_ginzburg_landau(), *rgl_analytic(0.7, m_f=32), solve_for="c")


def test_frequency_lattice_frequencies():
    freqs = frequency_lattice(4)
    assert len(freqs) == 4
    assert 0.0 in freqs
    assert np.all(np.abs(freqs) <= np.pi + 1e-12)
    # spacing 2 pi / N
    spacing = np.diff(np.sort(freqs))
    np.testing.assert_allclose(spacing, np.pi / 2, atol=1e-12)


def test_translation_mode_sits_at_zero(rgl_profile):
    lam = np.linalg.eigvals(assemble_bloch(rgl_profile, 0.0))
    assert np.min(np.abs(lam)) <= 1e-10
    # and it is the only one near zero
    assert np.sort(np.abs(lam))[1] > 0.1


def test_spectrum_is_conjugate_symmetric_across_xi(rgl_profile):
    # L_{-xi} = conj(L_xi) for real operators, so spectra pair up.
    lam_plus = np.sort_complex(
        np.linalg.eigvals(assemble_bloch(rgl_profile, 0.4)))
    lam_minus = np.sort_complex(
        np.conj(np.linalg.eigvals(assemble_bloch(rgl_profile, -0.4))))
    np.testing.assert_allclose(lam_plus, lam_minus, atol=1e-9)


def test_critical_curve_recovers_drift_and_curvature(rgl_profile):
    curve = critical_curve(rgl_profile)
    assert curve.xis.size == 17
    assert abs(curve.a) < 1e-6
    assert curve.d > 0
    # the quadratic fit over |xi| <= 0.25 carries O(xi^2) truncation, so
    # agreement with the analytic curvature is ~1e-6 relative, not machine
    assert curve.d == pytest.approx(D_Q03, rel=1e-4)
    assert abs(curve.d - curve.d_second_diff) <= 0.01 * curve.d
    assert curve.fit_residual < 1e-2


def test_critical_mode_data_gauge(rgl_profile):
    data = fiber_store(rgl_profile).mode_at(0.3)
    assert abs(np.vdot(data.adj, data.vec) - 1.0) < 1e-10
    assert data.lam_c.real < 0


def test_stability_verdict_true_in_the_stable_range(stability):
    assert stability.verdict
    assert stability.condition_negative_spectrum
    assert stability.condition_quadratic_bound
    assert stability.condition_simple_zero
    assert stability.theta > 0
    assert stability.failures == []
    assert stability.zero_simplicity > 0.1
    assert stability.curve.d == pytest.approx(D_Q03, rel=1e-4)


def test_stability_verdict_false_beyond_the_stable_range(rgl_q07):
    # q = 0.7 sits outside q^2 < 1/3: the curvature d goes negative, which
    # breaks the quadratic bound while the zero eigenvalue stays simple.
    report = verify_diffusive_stability(rgl_q07, scan=128)
    assert not report.verdict
    assert not report.condition_quadratic_bound
    assert report.condition_simple_zero
    assert report.curve.d == pytest.approx(-0.1024, rel=1e-2)
    assert report.failures


def test_stability_scan_validation(rgl_profile):
    with pytest.raises(ValueError, match="scan"):
        verify_diffusive_stability(rgl_profile, scan=4)


def test_subharmonic_spectrum_at_the_coperiodic_frequency(rgl_profile):
    spec = subharmonic_spectrum(rgl_profile, 1)
    assert spec.n_period == 1
    assert spec.zero_defect <= 1e-10
    assert spec.delta == pytest.approx(GAPS_Q03[1], rel=1e-6)
    assert spec.attaining_xi == 0.0


def test_gap_sequence_matches_reference_values(rgl_profile):
    for n, expected in GAPS_Q03.items():
        assert subharmonic_spectrum(rgl_profile, n).delta == pytest.approx(
            expected, rel=1e-6), f"N = {n}"


def rgl_closed_form_spectrum(q, xis):
    """The closed-form spectrum of the rgl wave of wavenumber q, in the
    code's units (k = q / 2 pi, time scaled by k): lambda_+-(nu) =
    [-nu^2 - r^2 +- sqrt(r^4 + 4 q^2 nu^2)] / k with nu = k (xi + 2 pi l)
    and r^2 = 1 - q^2, at the frequencies ``xis`` and the cell modes
    |l| <= 8. Returns lam[branch (+, -), xi, l + 8]."""
    k, r2 = q / (2.0 * np.pi), 1.0 - q * q
    nu = k * (np.asarray(xis)[:, None] + 2.0 * np.pi * np.arange(-8, 9))
    root = np.sqrt(r2 ** 2 + 4.0 * q * q * nu ** 2)
    return np.stack([-nu ** 2 - r2 + root, -nu ** 2 - r2 - root]) / k


def rgl_closed_form_gap(q, n_period):
    """delta_N of the rgl wave of wavenumber q from its closed-form
    spectrum over the lattice xi, less the translation zero (xi = 0,
    l = 0, +)."""
    lam = rgl_closed_form_spectrum(q, frequency_lattice(n_period))
    lam[0, 0, 8] = -np.inf
    return -float(lam.max())


def test_gaps_match_the_closed_form_spectrum(rgl_profile):
    # absolute band: at N = 1024 the gap is 1.4e-6, so rounding in the
    # closed form's cancellation alone is 1e-9 of it
    for n in (1, 2, 3, 4, 8, 16, 64, 256, 1024):
        got = subharmonic_spectrum(rgl_profile, n).delta
        assert abs(got - rgl_closed_form_gap(0.3, n)) <= 1e-12, f"N = {n}"


@pytest.mark.parametrize("scan", [16, 17, 128])
def test_verdict_matches_the_closed_form_spectrum(rgl_profile, scan):
    report = verify_diffusive_stability(rgl_profile, scan=scan)
    xis = frequency_lattice(scan)[:(scan + 1) // 2]
    lam = rgl_closed_form_spectrum(0.3, xis)
    top = lam.max(axis=(0, 2))
    # lambda_c is the (l = 0, +) branch, the translation zero at xi = 0
    crit = lam[0, :, 8].copy()
    lam[0, :, 8] = -np.inf
    rest = lam.max(axis=(0, 2))
    # xi_1: the last scan point up to which every lambda_c lies above all
    # of the rest, capped at pi (1 - 2 / scan)
    last = max(j for j in range(xis.size) if rest[:j + 1].max()
               < crit[:j + 1].min())
    xi_1 = min(xis[last], np.pi * (1.0 - 2.0 / scan))
    want = {
        "max_nonzero_real": -rgl_closed_form_gap(0.3, scan),
        "theta": np.min(-top[1:] / xis[1:] ** 2),
        "xi_1": xi_1,
        "delta_1": -(rest[:last + 1].max() + crit[:last + 1].min()) / 2.0,
    }
    for name, value in want.items():
        assert abs(getattr(report, name) - value) <= 1e-12, name
    assert report.verdict
    assert len(report.delta_0) == 2
    for (xi0, rate), frac in zip(report.delta_0.items(), (0.5, 1.0)):
        assert abs(xi0 - frac * xi_1) <= 1e-12
        assert abs(rate + top[xis >= xi0 - 1e-12].max()) <= 1e-12


def test_a_lost_fiber_ends_the_separation_but_not_the_bounds():
    prof = _fresh_profile()
    store = fiber_store(prof)
    plain = store.fiber
    j_lost, scan = 10, 128
    xi_lost = float(frequency_lattice(scan)[j_lost])
    assert xi_lost > bloch.CURVE_XI_MAX

    # the lost fiber's spectrum is raised to a top of -1e-5, above every
    # other fiber's, so the bounds read it
    def fiber(j, n=1, base=bloch.TWO_PI):
        fib = plain(j, n, base)
        if base == bloch.TWO_PI and j * scan == j_lost * n:
            lam = fib.lam - fib.lam.real.max() - 1e-5
            return dataclasses.replace(fib, lam=lam, index=None, adj=None,
                                       margin=np.nan)
        return fib

    store.fiber = fiber
    report = verify_diffusive_stability(prof, scan=scan)
    assert report.branch_lost == [xi_lost]
    # the separation stops at the point before the lost one
    before = [plain(j, scan) for j in range(j_lost)]
    rest = max(np.delete(f.lam.real, f.index).max() for f in before)
    crit = min([0.0] + [f.lam_c.real for f in before[1:]])
    assert report.xi_1 == float(frequency_lattice(scan)[j_lost - 1])
    assert report.delta_1 == pytest.approx(-(rest + crit) / 2.0, abs=1e-15)
    # the lost fiber's top still bounds the spectrum
    top = fiber(j_lost, scan).lam.real.max()
    assert report.max_nonzero_real == top
    assert report.theta == -top / xi_lost ** 2


def test_gap_sequence_is_nonincreasing(rgl_profile):
    vals = [subharmonic_spectrum(rgl_profile, n).delta for n in (2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_gaps_scale_like_the_critical_curvature(rgl_profile):
    # For large N the gap is governed by the parabolic tip:
    # delta_N ~ d (2 pi / N)^2.
    for n in (32, 64):
        predicted = D_Q03 * (2 * np.pi / n) ** 2
        assert subharmonic_spectrum(rgl_profile, n).delta == pytest.approx(
            predicted, rel=0.10), f"N = {n}"


def test_critical_branch_is_tracked_across_the_lattice(rgl_profile):
    spec = subharmonic_spectrum(rgl_profile, 8)
    assert not np.any(np.isnan(spec.critical))
    # the branch obeys the quadratic model near xi = 0
    for x, lam in zip(spec.frequencies, spec.critical):
        if 0 < abs(x) <= 0.8:
            assert lam.real == pytest.approx(-D_Q03 * x ** 2, rel=0.15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
def test_subharmonic_spectrum_walks_the_half_lattice(rgl_profile, n):
    # the N//2+1 slots xi >= 0 give the gap, its attaining frequency and the
    # zero defect of all N, the -xi spectra being the conjugate mirrors
    spec = subharmonic_spectrum(rgl_profile, n)
    half = n // 2 + 1
    assert len(spec.eigenvalues) == spec.critical.size == half
    np.testing.assert_array_equal(spec.frequencies,
                                  frequency_lattice(n)[:half])
    store = fiber_store(rgl_profile)
    full = [store.fiber(j, n).lam for j in cell_modes(n)]
    delta, where, zero_defect = bloch.lattice_gap(full)
    assert (spec.delta, spec.zero_defect) == (delta, zero_defect)
    assert spec.attaining_xi == frequency_lattice(n)[where]


def test_eigenvalues_are_sorted_by_descending_real_part(rgl_profile):
    spec = subharmonic_spectrum(rgl_profile, 2)
    for lam in spec.eigenvalues:
        assert np.all(np.diff(lam.real) <= 1e-12)


def _fresh_profile(m_f=32):
    return solve_profile(real_ginzburg_landau(), *rgl_analytic(0.3, m_f=m_f),
                         solve_for="c")


def test_each_fiber_is_decomposed_once_per_profile(monkeypatch):
    from wavetrain import semigroup

    calls = {"eig": 0, "eigvals": 0, "inv": 0, "cond": 0}

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in calls:
        counted(name)

    # nested lattices N = 2..64 share the 33 fibers 2 pi j / 64, 0 <= j <= 32
    prof = _fresh_profile()
    for n in (2, 4, 8, 16, 32, 64):
        subharmonic_spectrum(prof, n)
    assert 0 < calls["eig"] + calls["eigvals"] <= 33

    # the engine decomposes its xi >= 0 fibers once and conjugates the rest
    prof = _fresh_profile()
    stability = verify_diffusive_stability(prof, scan=128)
    calls.update(eig=0, eigvals=0, inv=0, cond=0)
    semigroup.SemigroupEngine(prof, 64, semigroup.default_cutoff(stability))
    assert 0 < calls["eig"] + calls["eigvals"] <= 33
    assert calls["inv"] <= 33
    assert calls["cond"] <= 33

    # a coarse lattice takes its branch references from the default store,
    # which the default scan has filled, so only the engine's own 9 remain
    prof = _fresh_profile()
    stability = verify_diffusive_stability(prof)
    calls.update(eig=0, eigvals=0, inv=0, cond=0)
    semigroup.SemigroupEngine(prof, 16, semigroup.default_cutoff(stability))
    assert 0 < calls["eig"] <= 9


def test_fiber_eigensolves_use_one_blas(monkeypatch):
    """Fiber eigensolves go through numpy.linalg, never scipy.linalg, so the
    dense work runs on numpy's BLAS alone."""
    import scipy.linalg as sla

    from wavetrain import semigroup

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg eigensolver called")

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(sla, name, refuse)
    prof = _fresh_profile(m_f=16)
    stability = verify_diffusive_stability(prof, scan=16)
    for n in (2, 4, 8):
        subharmonic_spectrum(prof, n)
    semigroup.SemigroupEngine(prof, 4, semigroup.default_cutoff(stability))


def test_engine_critical_data_matches_the_branch(engine16, rgl_profile):
    n = engine16.n_period
    inside = [j for j in range(1, n // 2) if engine16.rho[j] > 0.0]
    assert inside
    for j in inside:
        data = fiber_store(rgl_profile).mode_at(engine16.frequencies[j])
        np.testing.assert_allclose(engine16.crit_lam[j], data.lam_c,
                                   rtol=1e-10, atol=0.0)
        adj = pad_modes(data.adj, rgl_profile.n, engine16.m_x)
        scale = np.max(np.abs(adj))
        np.testing.assert_allclose(engine16.crit_adj[j], adj,
                                   rtol=0.0, atol=1e-10 * scale)


def _nagumo_profile(m_f):
    return solve_profile(nagumo(0.25), *nagumo_guess(0.25, m_f=m_f),
                         solve_for="c")


@pytest.mark.parametrize("make, most_modes", [
    (_fresh_profile, 8),
    (lambda: solve_profile(real_ginzburg_landau(),
                           *rgl_analytic(0.7, m_f=32), solve_for="c"), 8),
    (lambda: _nagumo_profile(32), 31),
], ids=["rgl_q03", "rgl_q07", "nagumo"])
def test_derived_truncation_reproduces_the_storage_truncation(
        make, most_modes, monkeypatch):
    n_values = (2, 4, 8, 16, 32, 64)
    derived = make()
    report = verify_diffusive_stability(derived, scan=128)
    gaps = [subharmonic_spectrum(derived, n).delta for n in n_values]
    # the reference: the same rule with its floor raised to the storage size
    monkeypatch.setattr(bloch, "HILL_MIN_MODES", 32)
    full = make()
    ref = verify_diffusive_stability(full, scan=128)
    gaps_full = [subharmonic_spectrum(full, n).delta for n in n_values]
    assert report.hill.modes <= most_modes
    assert report.hill.tail <= 1e-13
    assert report.hill.check <= 1e-9
    assert ref.hill.modes == 32
    assert report.verdict == ref.verdict
    assert report.xi_1 == ref.xi_1
    assert report.curve.d == pytest.approx(ref.curve.d, rel=1e-10)
    assert report.max_nonzero_real == pytest.approx(ref.max_nonzero_real,
                                                    rel=1e-10)
    for n, gap, gap_full in zip(n_values, gaps, gaps_full):
        assert gap == pytest.approx(gap_full, rel=1e-10), f"N = {n}"


def test_under_resolved_profile_raises(tmp_path, capsys):
    from wavetrain.cli import main
    from wavetrain.profiles import save_profile

    prof = _nagumo_profile(4)
    with pytest.raises(ResolutionError, match="under-resolved"):
        fiber_store(prof)
    with pytest.raises(ResolutionError):
        verify_diffusive_stability(prof, scan=16)
    path = tmp_path / "nagumo4.json"
    save_profile(prof, path)
    code = main(["spectrum", "--profile", str(path), "--scan", "16",
                 "--out-dir", str(tmp_path / "spec")])
    assert code == 65
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "under-resolved" in err[0]


def test_the_hill_cap_refuses_an_unresolved_tail():
    # nagumo(0.25) at m_f = 8: the cap M = 8 leaves a Df(phi) tail of
    # 1.5e-10, although the two truncations agree to 4e-15
    with pytest.raises(ResolutionError,
                       match=r"m_f = 8, .* up to 1\.5\de-10 .*under-resolved"):
        fiber_store(_nagumo_profile(8))
    hill = fiber_store(_nagumo_profile(12)).hill
    assert hill.modes == 11 and hill.tail <= bloch.HILL_TAIL_TOL


def _engine(prof):
    from wavetrain.semigroup import CutoffSpec, SemigroupEngine
    return SemigroupEngine(prof, 8, CutoffSpec(1.0))


@pytest.mark.parametrize("read", [
    lambda prof: verify_diffusive_stability(prof, scan=16),
    lambda prof: subharmonic_spectrum(prof, 8),
    critical_curve,
    grid_modes,
    _engine,
], ids=["verify_diffusive_stability", "subharmonic_spectrum",
        "critical_curve", "grid_modes", "SemigroupEngine"])
def test_no_reader_of_the_store_skips_the_hill_check(read):
    # the store caches nothing when the check fails, so each reader of a
    # fresh under-resolved profile meets it
    with pytest.raises(ResolutionError, match="under-resolved"):
        read(_nagumo_profile(4))


@pytest.mark.parametrize("argv", [
    ["spectrum", "--scan", "16"],
    ["gap", "--N", "2,4"],
    ["linear-decay", "--N", "8", "--tmax", "20", "--samples", "6"],
], ids=["spectrum", "gap", "linear-decay"])
def test_commands_refuse_an_under_resolved_profile(argv, tmp_path, capsys):
    from wavetrain.cli import main
    from wavetrain.profiles import save_profile

    path = tmp_path / "nagumo4.json"
    save_profile(_nagumo_profile(4), path)
    out = tmp_path / "out"
    code = main([*argv, "--profile", str(path), "--out-dir", str(out)])
    assert code == 65
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "under-resolved" in err[0]
    # refused before its first artifact: no output directory
    assert not out.exists()


def test_grid_modes_follow_the_hill_truncation(nagumo_profile):
    # 4M + 1 cell modes, capped at the storage grid 2 m_f + 1
    assert grid_modes(nagumo_profile)[0] == 4 * 11 + 1
    m_x, coeffs = grid_modes(nagumo_profile, 23)
    np.testing.assert_array_equal(coeffs, nagumo_profile.coeffs[32 - 11:32 + 12])
    assert grid_modes(nagumo_profile, 67)[1] is nagumo_profile.coeffs


def test_grid_modes_refuse_to_drop_a_profile_tail():
    # a linear reaction has a constant Df(phi), so its Hill truncation is
    # HILL_MIN_MODES = 4 whatever phi carries: the default grid 4M + 1 = 17
    # would drop phi's modes +-12
    model = ReactionModel("linear", 1, lambda u: -u,
                          lambda u: -np.ones(u.shape + (1,)))
    coeffs = np.zeros((33, 1), dtype=complex)
    coeffs[[15, 17]] = 0.5
    coeffs[[4, 28]] = 1e-6
    prof = WaveProfile(model, 16, 0.1, 0.0, coeffs, 0.0)
    with pytest.raises(ResolutionError, match="drops profile coefficients"):
        grid_modes(prof)
    assert grid_modes(prof, 25)[0] == 25
    with pytest.raises(AdmissibilityError, match="need m_x >= 9"):
        grid_modes(prof, 7)
    coeffs[[4, 28]] = 1e-14
    m_x, kept = grid_modes(prof)
    assert m_x == 17 and kept.shape == (17, 1)
