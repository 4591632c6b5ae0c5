"""Bloch-operator spectra, the critical branch, and stability verdicts."""

import numpy as np
import pytest

from wavetrain.bloch import (
    assemble_bloch,
    critical_curve,
    critical_mode_data,
    fiber_store,
    gap_sequence,
    grid_modes,
    pad_modes,
    subharmonic_spectrum,
    verify_diffusive_stability,
)
from wavetrain.errors import AdmissibilityError, ResolutionError
from wavetrain.grids import frequency_lattice
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
    lam = np.linalg.eigvals(assemble_bloch(rgl_profile, 0.0).entries)
    assert np.min(np.abs(lam)) <= 1e-10
    # and it is the only one near zero
    assert np.sort(np.abs(lam))[1] > 0.1


def test_spectrum_is_conjugate_symmetric_across_xi(rgl_profile):
    # L_{-xi} = conj(L_xi) for real operators, so spectra pair up.
    lam_plus = np.sort_complex(
        np.linalg.eigvals(assemble_bloch(rgl_profile, 0.4).entries))
    lam_minus = np.sort_complex(
        np.conj(np.linalg.eigvals(assemble_bloch(rgl_profile, -0.4).entries)))
    np.testing.assert_allclose(lam_plus, lam_minus, atol=1e-9)


def test_critical_curve_recovers_drift_and_curvature(rgl_profile):
    curve = critical_curve(rgl_profile, xi_max=0.25, samples=17)
    assert abs(curve.a) < 1e-6
    assert curve.d > 0
    # the quadratic fit over |xi| <= 0.25 carries O(xi^2) truncation, so
    # agreement with the analytic curvature is ~1e-6 relative, not machine
    assert curve.d == pytest.approx(D_Q03, rel=1e-4)
    assert abs(curve.d - curve.d_second_diff) <= 0.01 * curve.d
    assert curve.fit_residual < 1e-2


def test_critical_curve_argument_validation(rgl_profile):
    with pytest.raises(ValueError, match="odd"):
        critical_curve(rgl_profile, samples=16)
    with pytest.raises(ValueError, match="xi_max"):
        critical_curve(rgl_profile, xi_max=4.0)


def test_critical_mode_data_gauge(rgl_profile):
    data = critical_mode_data(rgl_profile, 0.3)
    assert abs(np.vdot(data.adjoint_vec, data.phi_vec) - 1.0) < 1e-10
    assert data.lam.real < 0


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
    gaps = gap_sequence(rgl_profile, [1, 2, 4, 8])
    for n, expected in GAPS_Q03.items():
        assert gaps[n] == pytest.approx(expected, rel=1e-6), f"N = {n}"


def test_gap_sequence_is_nonincreasing(rgl_profile):
    gaps = gap_sequence(rgl_profile, [2, 4, 8, 16])
    vals = [gaps[n] for n in (2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_gaps_scale_like_the_critical_curvature(rgl_profile):
    # For large N the gap is governed by the parabolic tip:
    # delta_N ~ d (2 pi / N)^2.
    gaps = gap_sequence(rgl_profile, [32, 64])
    for n in (32, 64):
        predicted = D_Q03 * (2 * np.pi / n) ** 2
        assert gaps[n] == pytest.approx(predicted, rel=0.10), f"N = {n}"


def test_critical_branch_is_tracked_across_the_lattice(rgl_profile):
    spec = subharmonic_spectrum(rgl_profile, 8)
    assert not np.any(np.isnan(spec.critical))
    # the branch obeys the quadratic model near xi = 0
    for x, lam in zip(spec.frequencies, spec.critical):
        if 0 < abs(x) <= 0.8:
            assert lam.real == pytest.approx(-D_Q03 * x ** 2, rel=0.15)


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
    gap_sequence(_fresh_profile(), [2, 4, 8, 16, 32, 64])
    assert 0 < calls["eig"] + calls["eigvals"] <= 33

    # the engine decomposes its xi >= 0 fibers once and conjugates the rest
    prof = _fresh_profile()
    stability = verify_diffusive_stability(prof, scan=128)
    calls.update(eig=0, eigvals=0, inv=0, cond=0)
    semigroup.SemigroupEngine(prof, 64, stability=stability)
    assert 0 < calls["eig"] + calls["eigvals"] <= 33
    assert calls["inv"] <= 33
    assert calls["cond"] <= 33

    # a coarse lattice takes its branch references from the default store,
    # which the default scan has filled, so only the engine's own 9 remain
    prof = _fresh_profile()
    stability = verify_diffusive_stability(prof)
    calls.update(eig=0, eigvals=0, inv=0, cond=0)
    semigroup.SemigroupEngine(prof, 16, stability=stability)
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
    gap_sequence(prof, [2, 4, 8])
    semigroup.SemigroupEngine(prof, 4, stability=stability)


def test_engine_critical_data_matches_the_branch(engine16, rgl_profile):
    n = engine16.n_period
    inside = [j for j in range(1, n // 2) if engine16.rho[j] > 0.0]
    assert inside
    for j in inside:
        data = critical_mode_data(rgl_profile, engine16.frequencies[j])
        np.testing.assert_allclose(engine16.crit_lam[j], data.lam,
                                   rtol=1e-10, atol=0.0)
        adj = pad_modes(data.adjoint_vec, rgl_profile.n, engine16.m_x)
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
def test_derived_truncation_reproduces_the_storage_truncation(make, most_modes):
    derived, full = make(), make()
    report = verify_diffusive_stability(derived, scan=128)
    ref = verify_diffusive_stability(full, scan=128, m_f=32)
    assert report.hill.modes == report.m_f <= most_modes
    assert report.hill.tail <= 1e-13
    assert report.hill.check <= 1e-9
    assert ref.hill is None and ref.m_f == 32
    assert report.verdict == ref.verdict
    assert report.xi_1 == ref.xi_1
    assert report.curve.d == pytest.approx(ref.curve.d, rel=1e-10)
    assert report.max_nonzero_real == pytest.approx(ref.max_nonzero_real,
                                                    rel=1e-10)
    n_values = (2, 4, 8, 16, 32, 64)
    gaps = gap_sequence(derived, n_values)
    gaps_full = gap_sequence(full, n_values, m_f=32)
    for n in n_values:
        assert gaps[n] == pytest.approx(gaps_full[n], rel=1e-10), f"N = {n}"


def test_under_resolved_profile_raises(tmp_path, capsys):
    from wavetrain.cli import main
    from wavetrain.profiles import save_profile

    prof = _nagumo_profile(4)
    with pytest.raises(ResolutionError, match="under-resolved"):
        fiber_store(prof)
    with pytest.raises(ResolutionError):
        verify_diffusive_stability(prof, scan=16)
    # an explicit truncation overrides the rule
    assert fiber_store(prof, 4).m == 4
    path = tmp_path / "nagumo4.json"
    save_profile(prof, path)
    code = main(["spectrum", "--profile", str(path), "--scan", "16",
                 "--out-dir", str(tmp_path / "spec")])
    assert code == 65
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "under-resolved" in err[0]


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
