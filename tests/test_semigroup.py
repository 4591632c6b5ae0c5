"""Fiberwise semigroup, its three-part decomposition, and the sum bounds."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from wavetrain import bloch, grids, profiles, semigroup
from wavetrain.cli import main
from wavetrain.errors import AdmissibilityError, DiagonalizationError
from wavetrain.evolve import random_perturbation
from wavetrain.semigroup import (
    CutoffSpec,
    SemigroupEngine,
    continuum_envelope,
    crossover_probe,
    default_cutoff,
    lattice_sum,
    measure_decay,
    sum_bound_report,
)

D_Q03 = 0.03830212366717042


def phi_prime_field(profile, n_period, m_x):
    return profile(grids.grid_points(n_period, m_x), deriv=1)


def random_field(engine, rng, scale=1.0):
    return scale * rng.standard_normal((engine.n_period * engine.m_x, engine.n))


def on_grid(engine, v, t):
    """e^{Lt} v on the grid, through the engine's fiber operations."""
    return engine.field(engine.apply(engine.fibers(v), t))


def parts_on_grid(engine, v, t):
    """e^{Lt} v and its mean-phase, phase-field and S~ parts on the grid."""
    half = engine.fibers(v)
    full = engine.apply(half, t)
    amp = np.exp(engine.crit_lam * t) * engine.amplitudes(half)
    phase = engine.phase_part(amp)
    mean, sp = np.zeros_like(phase), phase.copy()
    mean[..., 0, :], sp[..., 0, :] = phase[..., 0, :], 0.0
    return [engine.field(f) for f in (full, mean, sp, full - phase)]


def phase_on_grid(engine, v, t, l=0, m=0):
    """The scalar field d_x^l d_t^m s_p(t) v: the phase synthesis of the
    lambda^m e^{lambda t}-weighted amplitudes, differentiated l times on
    the grid."""
    lam = engine.crit_lam
    amp = lam ** m * np.exp(lam * t) * engine.amplitudes(engine.fibers(v))
    field = engine.synthesize_phase(amp)
    for _ in range(l):
        field = grids.derivative_values(field, engine.n_period)
    return field


def test_cutoff_weight_shape():
    spec = CutoffSpec(0.8)
    assert spec.weight(0.0) == 1.0
    assert spec.weight(0.4) == 1.0          # plateau up to xi_1/2
    assert spec.weight(0.8) == 0.0
    assert spec.weight(-0.3) == spec.weight(0.3)
    mid = spec.weight(0.6)
    assert 0.0 < mid < 1.0
    # smooth decrease on the shoulder
    xs = np.linspace(0.4, 0.8, 20)
    ws = spec.weight(xs)
    assert np.all(np.diff(ws) <= 1e-12)


def test_cutoff_radius_validation():
    with pytest.raises(AdmissibilityError):
        CutoffSpec(0.0)
    with pytest.raises(AdmissibilityError):
        CutoffSpec(3.5)


def test_default_cutoff_uses_branch_separation(stability):
    spec = default_cutoff(stability)
    assert spec.xi_1 == pytest.approx(stability.xi_1)
    assert 0.0 < spec.xi_1 < np.pi


def test_engine_rejects_even_cell_grids(rgl_profile, cutoff):
    with pytest.raises(ValueError, match="odd"):
        SemigroupEngine(rgl_profile, 2, cutoff, m_x=64)


def test_all_fibers_diagonalize_cleanly(engine8):
    assert np.all(engine8.eigvec_cond <= semigroup.COND_LIMIT)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_engine_stores_the_half_lattice_only(rgl_profile, cutoff, n, rng):
    engine = SemigroupEngine(rgl_profile, n, cutoff)
    half = n // 2 + 1
    for name in ("frequencies", "rho", "crit_lam", "critical", "eigvals",
                 "right", "right_inv", "crit_phi", "crit_adj", "eigvec_cond"):
        assert getattr(engine, name).shape[0] == half, name
    assert not hasattr(engine, "matrices")
    np.testing.assert_array_equal(engine.frequencies,
                                  grids.frequency_lattice(n)[:half])
    v = random_field(engine, rng)
    with pytest.raises(ValueError, match="real"):
        engine.fibers(v + 0j)
    stack = engine.fibers(np.stack([v, v]))
    assert stack.shape == (2, half, engine.dim)
    assert engine.amplitudes(stack).shape == (2, half)
    assert engine.phase_part(engine.amplitudes(stack)).shape == stack.shape

    # reference: expm of the Bloch matrix at every one of the N frequencies,
    # the xi < 0 ones included, which the engine never assembles
    coeffs = grids.bloch_transform(v, n).reshape(n, engine.dim)
    for t in (0.7, 3.0):
        ref_fibers = np.stack([
            sla.expm(t * bloch.assemble_bloch(
                rgl_profile, xi, ells=engine.ells, that=engine.that))
            @ coeffs[j] for j, xi in enumerate(grids.frequency_lattice(n))])
        ref = grids.bloch_inverse(
            ref_fibers.reshape(n, engine.m_x, engine.n)).real
        scale = np.max(np.abs(ref))
        out = on_grid(engine, v, t)
        assert np.max(np.abs(out - ref)) <= 1e-11 * scale, t


@pytest.mark.parametrize("n", [8, 16])
def test_engine_on_the_store_modes_holds_the_store_fibers(
        rgl_profile, cutoff, n):
    # on the store's own 2M+1 modes the engine decomposes the store's
    # matrices, so the two hold the same fibers bit for bit, the -pi slot
    # (the conjugate of the +pi fiber) included
    store = bloch.fiber_store(rgl_profile)
    engine = SemigroupEngine(rgl_profile, n, cutoff, m_x=2 * store.m + 1)
    assert engine.m_x == 9
    assert engine.frequencies[n // 2] == -np.pi
    for j in range(engine.n_half):
        fib = store.fiber(grids.cell_modes(n)[j], n)
        assert fib.index is not None, j
        np.testing.assert_array_equal(engine.eigvals[j], fib.lam)
        assert engine.crit_lam[j] == fib.lam_c, j
        np.testing.assert_array_equal(engine.crit_phi[j], fib.vec)
        np.testing.assert_array_equal(engine.crit_adj[j], fib.adj)


def test_apply_at_time_zero_is_the_identity(engine4, rng):
    v = random_field(engine4, rng)
    out = on_grid(engine4, v, 0.0)
    assert np.max(np.abs(out - v)) <= 1e-12 * np.max(np.abs(v))


def test_semigroup_law(engine4, rng):
    v = random_field(engine4, rng)
    for s in (0.5, 2.0):
        for t in (0.5, 2.0):
            once = on_grid(engine4, v, s + t)
            twice = on_grid(engine4, on_grid(engine4, v, s), t)
            defect = grids.norm_l2(twice - once, 4)
            assert defect <= 1e-8 * max(grids.norm_l2(v, 4), 1.0), (s, t)


def test_profile_derivative_is_stationary(engine4, rgl_profile):
    dphi = phi_prime_field(rgl_profile, 4, engine4.m_x)
    for t in (1.0, 10.0):
        drift = on_grid(engine4, dphi, t)
        err = grids.norm_l2(drift - dphi, 4)
        assert err <= 1e-8, t


def test_decomposition_sums_back_to_the_full_action(engine8, rng):
    v = random_field(engine8, rng)
    for t in (0.0, 0.7, 5.0):
        total, mean, sp_field, stilde = parts_on_grid(engine8, v, t)
        recon = mean + sp_field + stilde
        assert np.max(np.abs(recon - total)) <= 1e-11


def test_an_ill_conditioned_fiber_fails_the_engine_build(
        rgl_profile, cutoff, tmp_path, capsys, monkeypatch):
    # ||V||_F ||V^-1||_F >= dim > 1, so every fiber fails COND_LIMIT = 1;
    # the first one, xi = 0, is named
    monkeypatch.setattr(semigroup, "COND_LIMIT", 1.0)
    with pytest.raises(DiagonalizationError, match="xi = 0 "):
        SemigroupEngine(rgl_profile, 4, cutoff)
    prof = tmp_path / "q03.json"
    profiles.save_profile(rgl_profile, prof)
    assert main(["linear-decay", "--profile", str(prof), "--N", "4",
                 "--tmax", "20", "--samples", "8",
                 "--out-dir", str(tmp_path / "decay")]) == 65
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "DiagonalizationError" in err[0], err


def test_engine_takes_stacks_bit_for_bit(engine8, rng):
    # every operation on a (T, ...) stack gives each slice the bits of the
    # same operation on that slice alone
    stack = np.stack([random_field(engine8, rng) for _ in range(3)])
    half = engine8.fibers(stack)
    full = engine8.apply(half, 0.7)
    amps = engine8.amplitudes(full)
    phase = engine8.phase_part(amps)
    fields = engine8.field(full)
    lam = engine8.crit_lam
    weighted = 1j * engine8.frequencies * lam * np.exp(lam * 0.3) * amps
    phases = engine8.synthesize_phase(weighted)
    for i in range(stack.shape[0]):
        assert np.array_equal(engine8.fibers(stack[i]), half[i])
        assert np.array_equal(engine8.apply(half[i], 0.7), full[i])
        assert np.array_equal(engine8.amplitudes(full[i]), amps[i],
                              equal_nan=True)
        assert np.array_equal(engine8.phase_part(amps[i]), phase[i])
        assert np.array_equal(engine8.field(full[i]), fields[i])
        assert np.array_equal(engine8.synthesize_phase(weighted[i]),
                              phases[i])


def test_mean_phase_coefficient_of_the_derivative_is_the_period(
        engine4, engine16, rgl_profile):
    for engine, n in ((engine4, 4), (engine16, 16)):
        dphi = phi_prime_field(rgl_profile, n, engine.m_x)
        coeff = engine.amplitudes(engine.fibers(dphi))[0].real
        assert coeff == pytest.approx(n, rel=1e-8)


def test_translated_profile_projects_onto_the_phase(engine4, rgl_profile):
    # phi(x - s) - phi(x) ~ -s phi'(x), so the mean coefficient is ~ -s N.
    s = 1e-6
    x = grids.grid_points(4, engine4.m_x)
    diff = rgl_profile(x - s) - rgl_profile(x)
    coeff = engine4.amplitudes(engine4.fibers(diff))[0].real
    assert coeff == pytest.approx(-s * 4, rel=1e-4)


def test_high_frequency_data_has_no_phase_part(engine8):
    # a pure Bloch mode outside the cutoff support projects to nothing
    outside = [j for j, xi in enumerate(engine8.frequencies)
               if abs(xi) > engine8.cutoff.xi_1]
    assert outside, "grid too coarse to have frequencies beyond the cutoff"
    j = outside[0]
    fibers = np.zeros((8, engine8.m_x, engine8.n), dtype=complex)
    fibers[j, 1, 0] = 1.0
    fibers[(8 - j) % 8, -1, 0] = 1.0      # conjugate partner slot
    v = grids.bloch_inverse(fibers).real
    sp = phase_on_grid(engine8, v, 1.0)
    assert grids.norm_l2(sp, 8) <= 1e-13
    _, mean, sp_field, _ = parts_on_grid(engine8, v, 1.0)
    assert grids.norm_l2(sp_field, 8) <= 1e-13
    assert grids.norm_l2(mean, 8) <= 1e-13


@pytest.mark.parametrize("n", [5, 8])
def test_phase_synthesis_is_the_plane_wave_sum(rgl_profile, cutoff, engine8,
                                               n, rng):
    # the stored amplitudes' phase field equals (1/N) sum_{xi != 0} rho a
    # e^{i xi x} over all N lattice frequencies, the -xi amplitudes being
    # the conjugate mirrors of the stored ones
    engine = engine8 if n == 8 else SemigroupEngine(rgl_profile, n, cutoff)
    amp = engine.amplitudes(engine.fibers(random_field(engine, rng)))
    xi = grids.frequency_lattice(n)
    full = np.concatenate([amp, np.conj(amp[1:(n + 1) // 2][::-1])])
    crit = np.concatenate([engine.critical,
                           engine.critical[1:(n + 1) // 2][::-1]])
    keep = crit & (xi != 0.0)
    x = grids.grid_points(n, engine.m_x)
    waves = (cutoff.weight(xi[keep]) * full[keep]
             * np.exp(1j * np.outer(x, xi[keep])))
    direct = np.sum(waves, axis=1).real / n
    assert keep.sum() >= 2
    np.testing.assert_allclose(engine.synthesize_phase(amp)[:, 0], direct,
                               rtol=0, atol=1e-14 * np.max(np.abs(direct)))


def test_phase_scalar_derivative_multipliers(engine8, rng):
    # d_x of the synthesized phase is the synthesis of i xi times the
    # amplitudes: each amplitude lands on the plane wave of its frequency
    v = random_field(engine8, rng)
    amp = engine8.amplitudes(engine8.fibers(v))
    sp_x = engine8.synthesize_phase(1j * engine8.frequencies * amp)
    np.testing.assert_allclose(phase_on_grid(engine8, v, 0.0, l=1), sp_x,
                               atol=1e-10)
    # d_t brings down lambda: compare with a finite difference in t
    h = 1e-5
    sp_t = phase_on_grid(engine8, v, 2.0, m=1)
    fd = (phase_on_grid(engine8, v, 2.0 + h)
          - phase_on_grid(engine8, v, 2.0 - h)) / (2 * h)
    np.testing.assert_allclose(sp_t, fd, atol=1e-7)


def test_remainder_decays_at_the_subharmonic_gap(engine4, rgl_profile, rng):
    # late enough that only the slowest nonzero mode survives, the remainder
    # decays like e^{-delta_N t}: the gap rate of the N-periodic lattice
    from wavetrain.bloch import subharmonic_spectrum
    delta = subharmonic_spectrum(rgl_profile, 4).delta
    v = random_field(engine4, rng)
    t0, t1 = 40.0, 80.0
    stilde0 = parts_on_grid(engine4, v, t0)[3]
    stilde1 = parts_on_grid(engine4, v, t1)[3]
    rate = -np.log(grids.norm_l2(stilde1, 4)
                   / grids.norm_l2(stilde0, 4)) / (t1 - t0)
    assert rate == pytest.approx(delta, rel=0.10)


def test_measure_decay_flags_exponential_parts(engine4, rng):
    v = random_field(engine4, rng)
    times = np.geomspace(0.5, 40.0, 24)
    dm = measure_decay(engine4, v, grids.norm_l1(v, 4), times,
                       fit_window=(5.0, 40.0))["stilde"]
    assert dm.super_polynomial
    assert np.isfinite(dm.attained_constant)


def test_measure_decay_fits_the_phase_exponent(engine16, rng):
    v = random_field(engine16, rng)
    times = np.geomspace(1.0, 25.0, 30)
    dm = measure_decay(engine16, v, grids.norm_l1(v, 16), times,
                       fit_window=(2.0, 25.0))["sp"]
    assert dm.claimed_exponent == -0.25
    assert dm.fitted_exponent < 0.0
    assert np.isfinite(dm.attained_constant) and dm.attained_constant > 0


def decay_parts_on_grid(engine, v, times, l, m):
    """measure_decay's four norm series, each part synthesized on the grid."""
    norms = []
    for t in times:
        total, mean, _, stilde = parts_on_grid(engine, v, t)
        norms.append([grids.norm_l2(f, engine.n_period) for f in
                      (total, mean, phase_on_grid(engine, v, t, l, m), stilde)])
    return dict(zip(("total", "mean", "sp", "stilde"), np.transpose(norms)))


def test_measure_decay_reads_every_part_off_one_transform(engine8, rng,
                                                         monkeypatch):
    v = random_field(engine8, rng)
    times = np.array([0.0, 0.7, 5.0, 30.0])
    transform, calls = grids.bloch_transform, []
    inverse, inverse_calls = grids.bloch_inverse, []

    def counted(values, n_period):
        calls.append(values)
        return transform(values, n_period)

    def counted_inverse(coeffs):
        inverse_calls.append(coeffs)
        return inverse(coeffs)

    monkeypatch.setattr(grids, "bloch_transform", counted)
    monkeypatch.setattr(grids, "bloch_inverse", counted_inverse)
    measures = measure_decay(engine8, v, 1.0, times, l=1, m=1)
    assert len(calls) == 1
    assert not inverse_calls
    # Parseval sums the fibers in another order than the grid sums samples
    ref = decay_parts_on_grid(engine8, v, times, 1, 1)
    tol = 1e-13 * np.max(ref["total"])
    for part, want in ref.items():
        assert np.max(np.abs(measures[part].norms - want)) <= tol, part


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
def test_measure_decay_agrees_with_grid_synthesis(rgl_profile, cutoff,
                                                  engine8, engine64, n, rng):
    # white noise reaches the -pi fiber's Nyquist entry, which the truncated
    # propagation leaves complex; band-limited data does not
    engine = {8: engine8, 64: engine64}.get(n) or SemigroupEngine(
        rgl_profile, n, cutoff)
    times = np.array([0.0, 0.1, 0.7, 30.0, 410.0])
    data = {"white": random_field(engine, rng),
            "band": random_perturbation(n, engine.m_x, 2, seed=7,
                                        amplitude=1.0, normalize="l1")}
    for name, v in data.items():
        for l, m in ((0, 0), (1, 0), (0, 1), (1, 1)):
            measures = measure_decay(engine, v, 1.0, times, l=l, m=m)
            ref = decay_parts_on_grid(engine, v, times, l, m)
            # absolute: parts below the rounding floor agree to rounding only
            tol = 1e-13 * np.max(ref["total"])
            for part, want in ref.items():
                err = np.max(np.abs(measures[part].norms - want))
                assert err <= tol, (name, l, m, part, err)


def test_measure_decay_peak_memory_at_n64(engine64):
    # linear-decay --N 64 at 60 samples: one (60, 33, 34) complex fiber
    # stack is 1.1 MB and the propagation holds two at once; a (60, P, n)
    # grid stack per part would peak above 8 MB
    v = random_perturbation(64, engine64.m_x, 2, seed=0, amplitude=1.0,
                            normalize="l1")
    times = np.geomspace(0.1, 410.0, 60)
    tracemalloc.start()
    try:
        measure_decay(engine64, v, 1.0, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6, peak


def test_decay_constants_do_not_depend_on_the_grid(rgl_profile, cutoff,
                                                   engine4):
    # linear-decay's datum, drawn at L1 size 1, on the derived grid
    # (m_x = 17), the storage grid (65) and a finer one (129): one function
    # of one size, so one constant
    times = np.geomspace(0.5, 40.0, 12)
    consts = {}
    for engine in (engine4, *(SemigroupEngine(rgl_profile, 4, cutoff, m_x=m_x)
                              for m_x in (65, 129))):
        v = random_perturbation(4, engine.m_x, 2, seed=7, amplitude=1.0,
                                normalize="l1")
        consts[engine.m_x] = measure_decay(
            engine, v, 1.0, times)["total"].attained_constant
    assert sorted(consts) == [17, 65, 129]
    assert consts[17] == pytest.approx(consts[65], rel=1e-10)
    assert consts[129] == pytest.approx(consts[65], rel=1e-10)


def test_measure_decay_leaves_rounding_out_of_its_fits(engine4):
    # linear-decay --N 4 --l 1 --m 1: the default window [10, N^2/10] is
    # empty at N = 4, so the whole series is fitted, and S~ ends at rounding
    times = np.geomspace(0.1, 500.0, 60)
    v = random_perturbation(4, engine4.m_x, 2, seed=0, amplitude=1.0,
                            normalize="l1")
    measures = measure_decay(engine4, v, 1.0, times, l=1, m=1)
    floor = (grids.ROUNDING_FLOOR * np.finfo(float).eps
             * np.max(measures["total"].norms))
    series = measures["stilde"].norms
    above = series > floor
    assert 2 <= above.sum() < times.size
    want = np.polyfit(np.log1p(times[above]), np.log(series[above]), 1)[0]
    assert measures["stilde"].fitted_exponent == want


def test_measure_decay_rejects_an_empty_window(engine4, rng):
    v = random_field(engine4, rng)
    with pytest.raises(ValueError, match="window"):
        measure_decay(engine4, v, 1.0, np.array([1.0, 2.0]),
                      fit_window=(50.0, 60.0))


def test_lattice_sum_small_cases():
    # N = 2 has the single nonzero frequency pi: value at t = 0 is 1/2
    assert lattice_sum(2, 0, 0.0) == pytest.approx(0.5)
    # generally (N - 1) / N at t = 0, r = 0
    for n in (3, 5, 8):
        assert lattice_sum(n, 0, 0.0) == pytest.approx((n - 1) / n)
    # decay in t
    vals = lattice_sum(8, 1, np.array([0.0, 1.0, 10.0]))
    assert np.all(np.diff(vals) < 0)


def test_continuum_envelope_matches_the_closed_form():
    # unbounded integral: Gamma(r + 1/2) / (2 pi (2 d t)^{r + 1/2})
    t = 3.0
    assert continuum_envelope(0, t) == pytest.approx(
        np.sqrt(np.pi / (2.0 * t)) / (2 * np.pi), rel=1e-12)
    # banded integral at t = 0: band^{2r+1} / ((2r+1) pi)
    for r in (0, 1, 2):
        expected = np.pi ** (2 * r + 1) / ((2 * r + 1) * np.pi)
        assert continuum_envelope(r, 0.0, band=np.pi) == pytest.approx(
            expected, rel=1e-12)
    # the banded value approaches the unbounded one for large t
    assert continuum_envelope(1, 50.0, band=np.pi) == pytest.approx(
        continuum_envelope(1, 50.0), rel=1e-10)


def test_sum_bound_constants_are_uniform_in_n():
    times = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 200)])
    rows = sum_bound_report([4, 16, 64], [0, 1], times)
    by_r = {}
    for row in rows:
        by_r.setdefault(row.r, []).append(row.attained_constant)
    for r, consts in by_r.items():
        assert max(consts) <= 2.0 * min(consts), f"r = {r}: {consts}"


def test_crossover_probe_finds_the_finite_size_time():
    rep8 = crossover_probe(8)
    assert rep8.late_rate == pytest.approx(rep8.predicted_rate, rel=0.10)
    assert rep8.predicted_rate == pytest.approx(2.0 * (2 * np.pi / 8) ** 2)
    rep16 = crossover_probe(16)
    # t* grows like N^2
    ratio = rep16.t_star / rep8.t_star
    assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5


def test_stilde_high_frequency_part_decays_at_the_cutoff_rate(
        engine8, stability, rng):
    # data placed beyond the cutoff decays at least at the delta_0 rate
    # associated with frequencies |xi| >= xi_1 / 2
    v = random_field(engine8, rng)
    rho = engine8.rho[:engine8.n_half, None]
    hf0, hf1 = (engine8.field(
        (1 - rho) * engine8.apply(engine8.fibers(v), t)) for t in (2.0, 6.0))
    rate = -np.log(grids.norm_l2(hf1, 8) / grids.norm_l2(hf0, 8)) / 4.0
    floor = min(stability.delta_0.values())
    assert rate >= 0.9 * floor
