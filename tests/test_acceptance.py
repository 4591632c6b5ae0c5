"""End-to-end acceptance checks for the quantitative claims of the package.

Each test covers one numbered claim and prints a single summary line
(``ACCEPTANCE nn PASS/FAIL: ...``); run ``pytest tests/test_acceptance.py -s``
to see all ten lines.  The assertion message repeats the line, so a plain
``pytest`` run is self-describing on failure.  The heavier checks share the
session fixtures from ``conftest.py``; the whole module takes a few minutes.
"""

import numpy as np
import pytest

from wavetrain import bloch, evolve, grids, models, profiles, semigroup


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# the size of the nonlinear reference run's datum in L1 + H^3
E0 = 1e-2


@pytest.fixture(scope="module")
def engine32(rgl_profile, cutoff):
    return semigroup.SemigroupEngine(rgl_profile, 32, cutoff)


def _acceptance10_run(engine):
    # N = 16, sup amplitude 1e-5, t_max = 20
    datum = evolve.random_perturbation(16, engine.m_x, engine.n, 7, 1e-5,
                                       band=16, normalize="sup")
    return evolve.run_experiment(engine, datum,
                                 evolve.default_snapshot_times(20.0), dt=0.01)


@pytest.fixture(scope="module")
def run9(engine16):
    # The nonlinear reference run: N = 16, E0 = 1e-2, horizon 4 N^2.
    datum = evolve.random_perturbation(16, engine16.m_x, engine16.n, 0, E0,
                                       band=16, normalize="l1_sobolev",
                                       k_sob=3)
    res = evolve.run_experiment(engine16, datum,
                                evolve.default_snapshot_times(1024.0), dt=0.01)
    return res, evolve.modulation_trace(res, k_sob=3)


def test_acceptance_01_profile_solver(rgl_profile):
    coeffs, k, c = profiles.rgl_analytic(0.3, m_f=32)
    rng = np.random.Generator(np.random.Philox(key=42))
    noise = 0.01 * np.max(np.abs(coeffs)) * (
        rng.standard_normal(coeffs.shape)
        + 1j * rng.standard_normal(coeffs.shape))
    prof = profiles.solve_profile(models.real_ginzburg_landau(),
                                  coeffs + noise, k, c, solve_for="c")
    resid = profiles.profile_residual(prof)
    amp_err = abs(prof.amplitude() - np.sqrt(1.0 - 0.3 ** 2))
    _verdict(1, resid < 1e-10 and amp_err < 1e-8,
             f"newton residual {resid:.2e} (< 1e-10), "
             f"amplitude error {amp_err:.2e} (< 1e-8)")


def test_acceptance_02_stability_verdicts(stability):
    prof07 = profiles.solve_profile(models.real_ginzburg_landau(),
                                    *profiles.rgl_analytic(0.7, m_f=32),
                                    solve_for="c")
    rep07 = bloch.verify_diffusive_stability(prof07, scan=128)
    ok = (stability.verdict is True
          and rep07.verdict is False
          and rep07.condition_quadratic_bound is False)
    _verdict(2, ok,
             f"q=0.3 verdict {stability.verdict} (want True); q=0.7 verdict "
             f"{rep07.verdict} with quadratic-bound condition "
             f"{rep07.condition_quadratic_bound} (want False, d = "
             f"{rep07.curve.d:.4f})")


def test_acceptance_03_critical_curve(stability):
    curve = stability.curve
    gap = abs(curve.d - curve.d_second_diff)
    ok = abs(curve.a) < 1e-6 and curve.d > 0 and gap <= 0.01 * curve.d
    _verdict(3, ok,
             f"drift |a| = {abs(curve.a):.2e} (< 1e-6), curvature d = "
             f"{curve.d:.6f} (> 0), second-difference gap {gap:.2e} "
             f"(<= 1% of d)")


def test_acceptance_04_gap_asymptotics(rgl_profile, stability):
    d = stability.curve.d
    gaps = {n: bloch.subharmonic_spectrum(rgl_profile, n).delta
            for n in (2, 4, 8, 16, 32, 64)}
    rel = {n: abs(gaps[n] * n ** 2 / (4 * np.pi ** 2) - d) / d
           for n in (32, 64)}
    chain = [gaps[n] for n in (2, 4, 8, 16)]
    monotone = all(a >= b for a, b in zip(chain, chain[1:]))
    ok = max(rel.values()) <= 0.10 and monotone
    _verdict(4, ok,
             f"delta_N N^2/(4 pi^2) vs d off by {rel[32]:.3f} (N=32) and "
             f"{rel[64]:.3f} (N=64) (<= 0.10); delta_N nonincreasing along "
             f"N=2,4,8,16: {monotone}")


def test_acceptance_05_transform_identities(rng):
    worst_rt = worst_par = worst_fac = 0.0
    for n in (1, 3, 8, 17):
        m_x = 9
        vals = (rng.standard_normal((n * m_x, 2))
                + 1j * rng.standard_normal((n * m_x, 2)))
        coeffs = grids.bloch_transform(vals, n)
        back = grids.bloch_inverse(coeffs)
        worst_rt = max(worst_rt,
                       np.max(np.abs(back - vals)) / np.max(np.abs(vals)))
        lhs = grids.norm_l2(vals, n) ** 2
        rhs = float(np.sum(np.abs(coeffs) ** 2, axis=(1, 2)).sum()) / n
        worst_par = max(worst_par, abs(lhs - rhs) / lhs)
        # a 1-periodic multiplier must act on each frequency separately
        factor = rng.standard_normal(m_x)
        product = vals * np.tile(factor, n)[:, None]
        per_freq = np.fft.ifft(grids.bloch_transform(vals, n) * m_x, axis=1)
        per_freq_prod = np.fft.ifft(
            grids.bloch_transform(product, n) * m_x, axis=1)
        worst_fac = max(worst_fac, float(np.max(np.abs(
            per_freq_prod - factor[None, :, None] * per_freq))))
    ok = worst_rt <= 1e-12 and worst_par <= 1e-12 and worst_fac <= 1e-10
    _verdict(5, ok,
             f"round trip {worst_rt:.1e}, parseval {worst_par:.1e} "
             f"(<= 1e-12 relative); multiplier factorization {worst_fac:.1e} "
             f"(<= 1e-10), N in {{1, 3, 8, 17}}")


def _on_grid(engine, v, t):
    """e^{Lt} v on the grid, through the engine's fiber operations."""
    return engine.field(engine.apply(engine.fibers(v), t))


def test_acceptance_06_semigroup_kernel(rgl_profile, engine4, engine16, rng):
    worst_stat = 0.0
    for eng in (engine4, engine16):
        n = eng.n_period
        dphi = rgl_profile(grids.grid_points(n, eng.m_x), deriv=1)
        for t in (1.0, 10.0):
            moved = _on_grid(eng, dphi, t)
            worst_stat = max(worst_stat, grids.norm_l2(moved - dphi, n))
    v = rng.standard_normal((16 * engine16.m_x, engine16.n))
    v = v / grids.norm_l2(v, 16)
    worst_law = 0.0
    for s in (0.5, 2.0):
        for t in (0.5, 2.0):
            once = _on_grid(engine16, v, s + t)
            twice = _on_grid(engine16, _on_grid(engine16, v, s), t)
            worst_law = max(worst_law, grids.norm_l2(twice - once, 16))
    ok = worst_stat <= 1e-8 and worst_law <= 1e-8
    _verdict(6, ok,
             f"wave-derivative drift {worst_stat:.1e} over t in {{1, 10}}, "
             f"N in {{4, 16}}; semigroup-law defect {worst_law:.1e} "
             f"(both <= 1e-8)")


def test_acceptance_07_frequency_sum_bounds(stability):
    d = stability.curve.d
    times = np.unique(np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 240)]))
    n_values = (4, 8, 16, 32, 64, 128, 256)
    rows = semigroup.sum_bound_report(n_values, (0, 1, 2), times, d=d)
    ratios = {}
    for r in (0, 1, 2):
        c_global = max(row.attained_constant for row in rows if row.r == r)
        env = semigroup.continuum_envelope(r, times, d=d, band=np.pi)
        c_cont = float(np.max(env * (1.0 + times) ** (r + 0.5)))
        ratios[r] = c_global / c_cont
    rate_rel = {}
    probes = {}
    for n in (8, 16):
        probe = semigroup.crossover_probe(n, d=d, r=0)
        probes[n] = probe
        rate_rel[n] = abs(probe.late_rate / probe.predicted_rate - 1.0)
    tstar_ratio = probes[16].t_star / probes[8].t_star
    ok = (all(0.5 <= c <= 2.0 for c in ratios.values())
          and max(rate_rel.values()) <= 0.10
          and 4.0 / 1.5 <= tstar_ratio <= 4.0 * 1.5)
    _verdict(7, ok,
             f"global/continuum constant ratios r=0,1,2: "
             f"{ratios[0]:.3f}, {ratios[1]:.3f}, {ratios[2]:.3f} "
             f"(within [0.5, 2]); late-rate mismatch {max(rate_rel.values()):.3f} "
             f"(<= 0.10); t* ratio N=16/N=8 = {tstar_ratio:.2f} "
             f"(4 within factor 1.5)")


def _unit_mass_spike(engine):
    # Deterministic datum for the rate fits: a delta spike at x = 0 carried by
    # the second component, so that it has an order-one overlap with the
    # adjoint translation mode (whose second component peaks at x = 0).  Its
    # L1 size on the engine's grid is 1.
    vals = np.zeros((engine.n_period * engine.m_x, engine.n))
    vals[0, 1] = engine.m_x
    return vals


def test_acceptance_08_linear_decay_rates(engine4, engine8, engine16,
                                          engine32, engine64):
    times = np.unique(np.concatenate([np.geomspace(0.5, 410.0, 48), [10.0]]))
    consts = {"sp": {}, "stilde": {}}
    slopes = {}
    for eng in (engine4, engine8, engine16, engine32, engine64):
        measures = semigroup.measure_decay(eng, _unit_mass_spike(eng), 1.0,
                                           times)
        for part in ("sp", "stilde"):
            consts[part][eng.n_period] = measures[part].attained_constant
            if eng.n_period == 64:
                slopes[part] = measures[part].fitted_exponent
    datum64 = _unit_mass_spike(engine64)
    slopes["sp_dx"] = semigroup.measure_decay(
        engine64, datum64, 1.0, times, l=1)["sp"].fitted_exponent
    slopes["sp_dt"] = semigroup.measure_decay(
        engine64, datum64, 1.0, times, m=1)["sp"].fitted_exponent
    spread = {part: max(vals.values()) / min(vals.values())
              for part, vals in consts.items()}
    checks = {
        "sp value": -0.35 <= slopes["sp"] <= -0.15,
        "sp d/dx": -0.90 <= slopes["sp_dx"] <= -0.60,
        "sp d/dt": -0.90 <= slopes["sp_dt"] <= -0.60,
        "remainder": -0.90 <= slopes["stilde"] <= -0.60,
        "constants": max(spread.values()) <= 2.0,
    }
    ok = all(checks.values())
    bad = ", ".join(name for name, good in checks.items() if not good)
    _verdict(8, ok,
             f"N=64 slopes: value {slopes['sp']:.3f} (-0.25 +/- 0.1), "
             f"d/dx {slopes['sp_dx']:.3f}, d/dt {slopes['sp_dt']:.3f}, "
             f"remainder {slopes['stilde']:.3f} (each -0.75 +/- 0.15); "
             f"constant spread over N=4..64: sp {spread['sp']:.2f}, "
             f"remainder {spread['stilde']:.2f} (<= 2)"
             + (f"; out of band: {bad}" if bad else ""))


def test_acceptance_09_nonlinear_run(rgl_profile, run9):
    res, trace = run9
    n = res.engine.n_period
    delta_n = bloch.subharmonic_spectrum(rgl_profile, n).delta
    judged = evolve.run_checks(res, trace, delta_n, E0)
    knee, damp = judged["crossover"], judged["damping"]

    # the judge reports |gamma_t| as below its rounding floor on this run;
    # the slope over the same window stays this test's own check
    slope_gt = evolve.envelope_slope(res.times, np.abs(trace.gamma_t),
                                     t_lo=10.0, t_hi=n ** 2 / 10.0)
    slope_vh = judged["v_h_envelope"]["value"]
    zeta_ratio = judged["zeta"]["value"]
    anchor_rel = judged["phase"]["value"]
    rate_ratio = knee["value"] / delta_n
    c_half = damp["value"]

    checks = {
        "envelope": slope_vh <= -0.6,
        "zeta": zeta_ratio <= 4.0,
        "gamma_t": slope_gt <= -1.2,
        "anchor": anchor_rel <= 10.0 * E0,
        "knee rate": knee["exp_side"] == "late" and 0.5 <= rate_ratio <= 1.1,
        "damping": np.isfinite(c_half) and c_half > 0
                   and damp["violations"] == 0,
    }
    ok = all(checks.values())
    bad = ", ".join(name for name, good in checks.items() if not good)
    _verdict(9, ok,
             f"H^3 envelope slope {slope_vh:.2f} (<= -0.6), zeta growth "
             f"{zeta_ratio:.2f} (<= 4), |gamma_t| slope {slope_gt:.2f} "
             f"(<= -1.2), phase limit off its linear prediction by "
             f"{anchor_rel:.1e} (<= {10.0 * E0:.0e}), post-knee "
             f"rate/gap {rate_ratio:.2f} (in [0.5, 1.1]), damping constant "
             f"{c_half:.1f} with {damp['violations']} violations"
             + (f"; out of band: {bad}" if bad else ""))
    # report.json ships the judge's verdicts: the same ones, and gamma_t
    # unjudged at the rounding floor
    for name, key in (("envelope", "v_h_envelope"), ("zeta", "zeta"),
                      ("anchor", "phase"), ("knee rate", "crossover"),
                      ("damping", "damping")):
        assert judged[key]["pass"] == checks[name], key
    assert judged["gamma_t_envelope"]["pass"] is None
    assert judged["gamma_t_envelope"]["reason"] == "below rounding floor"


def test_acceptance_10_extraction_equivalence(rgl_profile, engine16):
    tol = 1e-8
    res = _acceptance10_run(engine16)
    trace = evolve.modulation_trace(res)
    tr = evolve.extract_modulation_duhamel(res, trace, tol=tol)
    delta = bloch.subharmonic_spectrum(rgl_profile, 16).delta
    agreement = evolve.run_checks(res, trace, delta, 1e-5,
                                  duhamel=tr)["route_agreement"]
    ok = agreement["value"] <= 1e-3 and tr.v2_defect <= 10.0 * tol
    _verdict(10, ok,
             f"route agreement: gamma {agreement['gamma']:.1e}, psi "
             f"{agreement['psi']:.1e} (<= 1e-3 relative); residual-equation "
             f"defect {tr.v2_defect:.1e} (<= {10.0 * tol:.0e})")


def test_acceptance_10_fingerprints_hold_on_the_storage_grid(
        rgl_profile, cutoff, engine16):
    # the ACCEPTANCE 10 run on the derived grid (m_x = 17) and on the
    # profile's storage grid 2 m_f + 1 = 65
    tol = 1e-8
    prints = {}
    for engine in (engine16, semigroup.SemigroupEngine(
            rgl_profile, 16, cutoff, m_x=65)):
        res = _acceptance10_run(engine)
        tr = evolve.extract_modulation_duhamel(
            res, evolve.modulation_trace(res), tol=tol)
        prints[engine.m_x] = (evolve.phase_convergence(res).gamma_inf,
                              bloch.lattice_gap(list(engine.eigvals))[0],
                              tr.v2_defect)
    assert sorted(prints) == [17, 65]
    (g17, d17, v17), (g65, d65, v65) = prints[17], prints[65]
    assert abs(g17 - g65) <= 1e-8 * abs(g65)
    assert abs(d17 - d65) <= 1e-8 * abs(d65)
    assert max(v17, v65) <= 10.0 * tol
