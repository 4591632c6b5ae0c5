"""Time stepping, modulation extraction, and trajectory diagnostics."""

import dataclasses
import re

import numpy as np
import pytest

from wavetrain import bloch, evolve, grids, semigroup
from wavetrain.errors import (
    BlowUpError,
    ExtractionDivergenceError,
    PhaseWarpError,
    ResolutionError,
)
from wavetrain.evolve import (
    ImexStepper,
    crossover_fit,
    default_snapshot_times,
    envelope_slope,
    extract_modulation_duhamel,
    fd_weights,
    modulation_frame,
    modulation_trace,
    nonlinear_residual,
    quintic_smoothstep,
    random_perturbation,
    read_snapshot,
    run_experiment,
    stable_dt_limit,
    time_derivative,
    write_snapshot,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def small_run(rgl_profile, engine4):
    return run_experiment(rgl_profile, 4, engine4, t_max=6.0, dt=0.01,
                          seed=3, amplitude=1e-5)


def test_stable_dt_limit_is_positive_and_tight(rgl_profile):
    lim = stable_dt_limit(rgl_profile)
    assert 0.005 < lim < 0.05      # the default dt = 0.01 must be admissible


def test_random_perturbation_is_deterministic():
    a = random_perturbation(4, 65, 2, seed=7, amplitude=1e-3)
    b = random_perturbation(4, 65, 2, seed=7, amplitude=1e-3)
    np.testing.assert_array_equal(a.values, b.values)
    c = random_perturbation(4, 65, 2, seed=8, amplitude=1e-3)
    assert np.any(c.values != a.values)


def test_random_perturbation_normalizations():
    sup = random_perturbation(4, 65, 2, seed=1, amplitude=2.5, normalize="sup")
    assert grids.norm_linf(sup) == pytest.approx(2.5, rel=1e-12)
    l1 = random_perturbation(4, 65, 2, seed=1, amplitude=0.5, normalize="l1")
    assert grids.norm_l1(l1) == pytest.approx(0.5, rel=1e-12)
    sob = random_perturbation(4, 65, 2, seed=1, amplitude=1e-2,
                              normalize="l1_sobolev", k_sob=3)
    assert (grids.norm_l1(sob) + grids.norm_h(sob, 3)
            ) == pytest.approx(1e-2, rel=1e-12)


def test_random_perturbation_band_limit():
    gf = random_perturbation(8, 65, 2, seed=2, amplitude=1.0, band=8)
    spec = np.fft.fft(gf.values, axis=0)
    # modes live at global frequencies 2 pi m / 8 with |m| <= 8
    mags = np.abs(spec).sum(axis=1)
    live = np.nonzero(mags > 1e-9 * mags.max())[0]
    P = 8 * 65
    signed = np.where(live <= P // 2, live, live - P)
    assert np.max(np.abs(signed)) <= 8


@pytest.mark.parametrize("normalize", ["sup", "l1", "l1_sobolev"])
def test_random_perturbation_is_one_function_on_every_grid(normalize):
    # the size is measured on grids.PERTURBATION_QUADRATURE points per cell,
    # so a seed draws the same band-limited function on the derived and the
    # storage grid
    n, band = 16, 16
    coeffs = {}
    for m_x in (17, 65):
        gf = random_perturbation(n, m_x, 2, seed=7, amplitude=1e-2, band=band,
                                 normalize=normalize)
        coeffs[m_x] = np.fft.rfft(gf.values, axis=0)[:band + 1] / (n * m_x)
    scale = np.max(np.abs(coeffs[65]))
    assert np.max(np.abs(coeffs[17] - coeffs[65])) <= 1e-14 * scale


@pytest.mark.parametrize("normalize", ["sup", "l1", "l1_sobolev"])
@pytest.mark.parametrize("band, coarse", [(12, 65), (140, 71)])
def test_random_perturbation_is_one_function_above_the_quadrature(
        normalize, band, coarse):
    # on m_x = 129 the size is measured on the fewest odd points per cell,
    # at least grids.PERTURBATION_QUADRATURE, that hold the band (65 for
    # band 12, 71 for band 140), not on the grid's 129
    n = 4
    coeffs = {}
    for m_x in (coarse, 129):
        gf = random_perturbation(n, m_x, 2, seed=2, amplitude=0.4, band=band,
                                 normalize=normalize)
        coeffs[m_x] = np.fft.rfft(gf.values, axis=0)[:band + 1] / (n * m_x)
    scale = np.max(np.abs(coeffs[coarse]))
    assert np.max(np.abs(coeffs[129] - coeffs[coarse])) <= 1e-14 * scale


def test_random_perturbation_refuses_a_band_beyond_the_grid():
    # P = 4 * 17 = 68 points hold the modes |m| <= 33 below Nyquist
    assert random_perturbation(4, 17, 2, seed=0, amplitude=1.0,
                               band=33).values.shape == (68, 2)
    with pytest.raises(ValueError, match="band 34"):
        random_perturbation(4, 17, 2, seed=0, amplitude=1.0, band=34)


def test_zero_amplitude_perturbation_is_zero():
    gf = random_perturbation(4, 65, 2, seed=0, amplitude=0.0)
    assert np.all(gf.values == 0.0)


def test_snapshot_round_trip(tmp_path, rng):
    gf = grids.GridFunction(3, rng.standard_normal((3 * 5, 2)))
    path = tmp_path / "snap.bin"
    write_snapshot(path, gf, 12.25)
    back, t = read_snapshot(path)
    assert t == 12.25
    assert back.n_period == 3
    np.testing.assert_array_equal(back.values, gf.values)


def test_default_snapshot_times_structure():
    times = default_snapshot_times(100.0)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(100.0)
    assert np.all(np.diff(times) > 0)
    dense = times[times <= 10.0]
    np.testing.assert_allclose(np.diff(dense), 0.25, atol=1e-9)


@pytest.mark.parametrize("kwargs", [{"dense_until": 0.0},
                                    {"dense_until": 0.1},
                                    {"dense_spacing": 200.0},
                                    {"geometric_ratio": 1.0}])
def test_default_snapshot_times_refuse_a_geometric_part_that_cannot_grow(
        kwargs):
    with pytest.raises(ValueError, match="geometrically"):
        default_snapshot_times(100.0, **kwargs)


def test_quintic_smoothstep_ramp():
    assert quintic_smoothstep(0.2) == 0.0
    assert quintic_smoothstep(1.5) == 1.0
    assert quintic_smoothstep(0.75) == pytest.approx(0.5)
    ts = np.linspace(0.5, 1.0, 50)
    vals = quintic_smoothstep(ts)
    assert np.all(np.diff(vals) >= 0)
    # first and second derivatives vanish at both ends
    h = 1e-4
    for edge in (0.5, 1.0):
        fd1 = (quintic_smoothstep(edge + h) - quintic_smoothstep(edge - h)) / (2 * h)
        assert abs(fd1) < 1e-6


def test_fd_weights_differentiate_polynomials():
    nodes = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    w = fd_weights(nodes, 0.0, 1)
    # exact for polynomials up to degree 4
    for p in range(5):
        deriv = np.dot(w, nodes ** p)
        expected = 0.0 if p != 1 else 1.0
        assert deriv == pytest.approx(expected, abs=1e-12)


def test_time_derivative_exact_on_cubics():
    times = np.linspace(0.0, 2.0, 9)
    vals = times ** 3 - 2.0 * times
    d1 = time_derivative(times, vals)
    np.testing.assert_allclose(d1, 3.0 * times ** 2 - 2.0, atol=1e-10)
    # nonuniform grid
    times = np.geomspace(1.0, 4.0, 11)
    vals = times ** 2
    np.testing.assert_allclose(time_derivative(times, vals), 2.0 * times,
                               atol=1e-9)


@pytest.mark.parametrize("scheme", ["imex"])
def test_pure_profile_is_stationary(rgl_profile, engine4, scheme):
    res = run_experiment(rgl_profile, 4, engine4, t_max=10.0, dt=0.01,
                         scheme=scheme, amplitude=0.0,
                         snapshot_times=[0.0, 10.0])
    base = grids.from_profile(rgl_profile, 4, engine4.m_x)
    drift = grids.norm_l2(grids.GridFunction(
        4, res.snapshots[-1].values - base.values))
    assert drift <= 1e-10, scheme


def test_imex_is_second_order_in_time(rgl_profile, engine4):
    # use a state well away from the wave so the reaction term actually
    # moves; near phi the scheme's exact steady state hides the truncation
    x = grids.grid_points(4, engine4.m_x)
    bump = grids.GridFunction(4, np.column_stack(
        [0.2 * np.sin(np.pi * x / 2), 0.1 * np.cos(np.pi * x)]))

    def final_state(dt):
        res = run_experiment(rgl_profile, 4, engine4, t_max=1.0, dt=dt,
                             amplitude=0.0, initial=bump,
                             snapshot_times=[1.0])
        return res.snapshots[-1].values

    ref = final_state(0.0003125)
    e1 = np.max(np.abs(final_state(0.01) - ref))
    e2 = np.max(np.abs(final_state(0.005) - ref))
    assert 2.8 < e1 / e2 < 5.5


def test_imex_is_second_order_in_time_on_a_travelling_wave(
        brusselator_profile):
    # |c| > 1: the symbol and so the folded coefficients are complex, which
    # the rgl check above (c = 0, real coefficients) cannot see
    profile = brusselator_profile
    assert abs(profile.c) > 1.0
    n_period, m_x = 2, 2 * profile.m_f + 1
    values = _bump_state(profile, n_period, m_x)

    def final_state(dt):
        stepper = ImexStepper(profile, n_period, m_x, dt)
        u_hat = stepper.to_hat(values)
        for _ in range(int(round(0.5 / dt))):
            u_hat = stepper.step(u_hat)
        return stepper.to_grid(u_hat)

    ref = final_state(0.0003125)
    e1 = np.max(np.abs(final_state(0.005) - ref))
    e2 = np.max(np.abs(final_state(0.0025) - ref))
    assert 2.8 < e1 / e2 < 5.5


def _point_major_steps(profile, n_period, m_x, dt, values, steps):
    """Reference: the IMEX formulas on a (P//2+1, n) state, verbatim.

    The stepper keeps a component-major (n, P//2+1) state; this is the
    point-major layout it replaced, with the folded coefficients and the
    expressions of ``ImexStepper.step`` in their order.
    """
    P = m_x * n_period
    omega = TWO_PI * np.fft.rfftfreq(P, d=1.0 / P) / n_period
    k, c = profile.k, profile.c
    symbol = (k * (1j * omega) ** 2 + c * (1j * omega))[:, None]
    den = 1.0 - 0.5 * dt * symbol
    lin = (1.0 + 0.5 * dt * symbol) / den
    w_new = (1.5 * dt / k) / den
    w_old = (0.5 * dt / k) / den

    u_hat = np.fft.rfft(values, axis=0)
    prev_g = None
    for _ in range(steps):
        g = np.fft.rfft(profile.model.f(np.fft.irfft(u_hat, n=P, axis=0)),
                        axis=0)
        if prev_g is None:
            prev_g = g
        u_hat = lin * u_hat + w_new * g - w_old * prev_g
        prev_g = g
    return np.fft.irfft(u_hat, n=P, axis=0)


def _unfolded_steps(profile, n_period, m_x, dt, values, steps):
    """Second reference: Crank-Nicolson / AB2 as written in the textbook,
    ((1 + dt L/2) u + dt (1.5 g - 0.5 g_prev) / k) / (1 - dt L/2)."""
    P = m_x * n_period
    omega = TWO_PI * np.fft.rfftfreq(P, d=1.0 / P) / n_period
    k, c = profile.k, profile.c
    symbol = (k * (1j * omega) ** 2 + c * (1j * omega))[:, None]
    num = 1.0 + 0.5 * dt * symbol
    den = 1.0 - 0.5 * dt * symbol

    u_hat = np.fft.rfft(values, axis=0)
    prev_g = None
    for _ in range(steps):
        u = np.fft.irfft(u_hat, n=P, axis=0)
        g = np.fft.rfft(profile.model.f(u) / k, axis=0)
        if prev_g is None:
            prev_g = g
        u_hat = (num * u_hat + dt * (1.5 * g - 0.5 * prev_g)) / den
        prev_g = g
    return np.fft.irfft(u_hat, n=P, axis=0)


def _bump_state(profile, n_period, m_x):
    x = grids.grid_points(n_period, m_x)
    return grids.from_profile(profile, n_period, m_x).values + np.column_stack(
        [0.2 * np.sin(np.pi * x / 2), 0.1 * np.cos(np.pi * x)])


@pytest.mark.parametrize("scheme", ["imex"])
def test_steppers_reproduce_the_point_major_formulas_bitwise(rgl_profile,
                                                             scheme):
    # the state layout must not change a single bit of a trajectory; the
    # rgl wave stands still (c = 0), so its symbol is real
    n_period, m_x, dt = 4, 65, 0.01
    values = _bump_state(rgl_profile, n_period, m_x)
    stepper = evolve._SCHEMES[scheme](rgl_profile, n_period, m_x, dt)
    u_hat = stepper.to_hat(values)
    assert u_hat.shape == (2, n_period * m_x // 2 + 1)
    for _ in range(50):
        u_hat = stepper.step(u_hat)
    # every FFT and reaction sum of a step runs on the contiguous axis
    assert u_hat.flags.c_contiguous
    want = _point_major_steps(rgl_profile, n_period, m_x, dt, values, 50)
    assert np.max(np.abs(want - values)) > 1e-2
    assert np.array_equal(stepper.to_grid(u_hat).T, want)
    # folding 1/k, dt and 1/den into the coefficients moves only rounding
    unfolded = _unfolded_steps(rgl_profile, n_period, m_x, dt, values, 50)
    assert np.max(np.abs(want - unfolded)) <= 1e-13 * np.max(np.abs(want))


def test_imex_steps_do_not_touch_returned_states(rgl_profile):
    n_period, m_x, dt = 4, 17, 0.01
    stepper = ImexStepper(rgl_profile, n_period, m_x, dt)
    u0 = stepper.to_hat(_bump_state(rgl_profile, n_period, m_x))
    # the first step starts Adams-Bashforth with g_prev = g: Crank-Nicolson
    # plus forward Euler on the same coefficients
    u = np.fft.irfft(u0, n=stepper.P, axis=-1)
    g = np.fft.rfft(rgl_profile.model.f(u.T).T, axis=-1)
    euler = stepper.lin * u0
    euler += stepper.w_new * g
    euler -= stepper.w_old * g
    u1 = stepper.step(u0)
    assert np.array_equal(u1, euler)
    kept = u1.copy()
    states = [u1]
    for _ in range(10):
        states.append(stepper.step(states[-1]))
    assert np.array_equal(u1, kept)
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(states) for b in states[i + 1:])


@pytest.mark.parametrize("scheme", ["imex"])
@pytest.mark.parametrize("wave", ["nagumo", "brusselator"])
def test_pure_profile_of_other_models_is_stationary(request, wave, scheme):
    # the models see the (P, n) transpose of the component-major state:
    # nagumo (n = 1) returns x[..., None], brusselator fills np.empty_like
    profile = request.getfixturevalue(f"{wave}_profile")
    if wave == "brusselator":
        assert abs(profile.c) > 1.0
    n_period, m_x = 2, 2 * profile.m_f + 1
    dt = 0.5 * stable_dt_limit(profile)
    stepper = evolve._SCHEMES[scheme](profile, n_period, m_x, dt)
    base = grids.from_profile(profile, n_period, m_x).values
    u_hat = stepper.to_hat(base)
    assert u_hat.shape == (profile.n, n_period * m_x // 2 + 1)
    for _ in range(int(round(2.0 / dt))):
        u_hat = stepper.step(u_hat)
    vals = stepper.to_grid(u_hat).T
    assert vals.shape == base.shape
    assert np.max(np.abs(vals - base)) <= 1e-11


def test_unknown_scheme_is_rejected(rgl_profile, engine4):
    with pytest.raises(ValueError, match="scheme"):
        run_experiment(rgl_profile, 4, engine4, scheme="rk4")


def test_engine_period_mismatch_is_rejected(rgl_profile, engine8):
    with pytest.raises(ValueError, match="N="):
        run_experiment(rgl_profile, 4, engine8)


def test_blow_up_is_detected(rgl_profile, engine4):
    # drive the cubic nonlinearity past recovery
    big = grids.GridFunction(4, 40.0 * np.ones((4 * engine4.m_x, 2)))
    with pytest.raises(BlowUpError) as err:
        run_experiment(rgl_profile, 4, engine4, t_max=5.0, dt=0.01,
                       initial=big, blowup_limit=1e4)
    assert err.value.t is not None


def test_under_resolved_run_raises_at_its_first_snapshot(rgl_profile,
                                                        stability, cutoff):
    # m_x = 9 is rgl's floor 2M + 1; a band of 64 global modes puts a
    # quarter of the perturbation above P/3 = 48 already at t = 0, a tail
    # of 2.3e-6 at sup amplitude 1e-2
    engine = semigroup.SemigroupEngine(rgl_profile, 16, m_x=9, cutoff=cutoff,
                                       stability=stability)
    with pytest.raises(ResolutionError, match=r"t = 0\.0000.*m_x = 9"):
        run_experiment(rgl_profile, 16, engine, t_max=12.0, dt=0.01,
                       seed=0, amplitude=1e-2, band=64, normalize="sup")
    res = run_experiment(rgl_profile, 16, engine, t_max=12.0, dt=0.01,
                         seed=0, amplitude=1e-2, band=16)
    assert np.max(res.snapshot_tail) <= evolve.SNAPSHOT_TAIL_TOL


def test_trajectory_stays_real(small_run):
    for snap in small_run.snapshots:
        assert snap.values.dtype == np.float64
    assert small_run.gamma_raw.dtype == np.float64
    assert np.max(np.abs(small_run.inner.imag[:, 0])) <= 1e-12


def test_chi_ramp_gates_the_phase(small_run):
    times = small_run.times
    assert np.all(small_run.chi[times <= 0.5] == 0.0)
    assert np.all(small_run.chi[times >= 1.0] == 1.0)
    assert small_run.gamma[0] == 0.0


def test_translation_is_pure_phase(rgl_profile, engine4):
    # starting from phi(x - s), the projection reads off gamma ~ N s
    s = 0.01
    shifted = grids.from_profile(rgl_profile, 4, engine4.m_x, s)
    base = grids.from_profile(rgl_profile, 4, engine4.m_x)
    init = grids.GridFunction(4, shifted.values - base.values)
    res = run_experiment(rgl_profile, 4, engine4, t_max=3.0, dt=0.01,
                         amplitude=0.0, initial=init,
                         snapshot_times=[0.0, 2.0, 3.0])
    assert res.gamma_raw[-1] == pytest.approx(4 * s, rel=1e-2)
    psi, v = modulation_frame(res, len(res.times) - 1)
    assert grids.norm_l2(grids.GridFunction(4, psi)) <= 1e-4
    assert grids.norm_linf(grids.GridFunction(4, v)) <= 1e-4


def test_spectral_tail_weights_the_rfft_half():
    P = 12
    x = np.arange(P)
    # mean squares: mode 1 carries 1/2, mode 5 > P/3 1/8, the Nyquist mode 1/16
    u = (np.cos(TWO_PI * x / P) + 0.5 * np.cos(TWO_PI * 5 * x / P)
         + 0.25 * np.cos(np.pi * x))[:, None]
    tail = evolve._spectral_tail(np.fft.rfft(u, axis=0), P)
    energy = {1: 0.5, 5: 0.5 * 0.25, 6: 0.0625}
    assert tail == pytest.approx((energy[5] + energy[6]) / sum(energy.values()),
                                 rel=1e-14)
    assert evolve._spectral_tail(np.zeros((7, 1), dtype=complex), P) == 0.0


def test_snapshots_of_the_acceptance_run_are_resolved(rgl_profile, engine16):
    # the ACCEPTANCE 10 trajectory: modes |m| > P/3 carry rounding only
    res = run_experiment(rgl_profile, 16, engine16, t_max=20.0, dt=0.01,
                         seed=7, amplitude=1e-5, band=16, normalize="sup")
    assert res.snapshot_tail.shape == res.times.shape
    assert np.all(res.snapshot_tail >= 0.0)
    assert np.max(res.snapshot_tail) < 1e-20


def test_derivative_direction_is_pure_phase(rgl_profile, engine4):
    # phi + eps phi' is phi translated by -eps/1 to leading order... the
    # projection sees mean content eps * N with no local phase
    eps = 1e-6
    x = grids.grid_points(4, engine4.m_x)
    init = grids.GridFunction(4, eps * rgl_profile(x, deriv=1))
    res = run_experiment(rgl_profile, 4, engine4, t_max=2.0, dt=0.01,
                         amplitude=0.0, initial=init, snapshot_times=[0.0, 2.0])
    assert res.gamma_raw[0] == pytest.approx(4 * eps, rel=1e-6)
    psi0, _ = modulation_frame(res, 0)
    assert grids.norm_l2(grids.GridFunction(4, psi0)) <= 1e-10


def test_recomposition_inverts_the_warp(rgl_profile, engine4):
    # the inverse warp point of each grid node y solves the fixed point
    # x = y + gamma/N + psi(x); then phi(x) + v(x) must return u(y), up to
    # the interpolation error of the composed fields
    res = run_experiment(rgl_profile, 4, engine4, t_max=5.0, dt=0.01,
                         seed=9, amplitude=1e-4)
    for i in (0, len(res.times) // 2, len(res.times) - 1):
        psi, v = (grids.GridFunction(4, f) for f in modulation_frame(res, i))
        u = res.snapshots[i]
        y = u.x
        g = res.gamma[i] / 4
        x = y + g
        for _ in range(50):
            x_new = y + g + psi.interp(x)[:, 0]
            shift = np.max(np.abs(x_new - x))
            x = x_new
            if shift < 1e-14:
                break
        err = np.max(np.abs(v.interp(x) + rgl_profile(x) - u.values))
        assert err <= 1e-6 * np.max(np.abs(u.values))


def test_modulation_frame_rejects_steep_phases(small_run):
    # an absurd phase amplitude at snapshot 10
    inner = np.zeros(4, dtype=complex)
    inner[1] = 40.0
    inner[3] = np.conj(inner[1])
    steep = small_run.inner.copy()
    steep[10] = inner / small_run.chi[10]
    run = dataclasses.replace(small_run, inner=steep)
    with pytest.raises(PhaseWarpError, match="psi_x"):
        modulation_frame(run, 10)
    # the trace records such a snapshot as a NaN row instead of raising
    tr = modulation_trace(run)
    assert np.flatnonzero(~tr.warp_ok).tolist() == [10]
    assert np.isnan(tr.v_h[10]) and np.isnan(tr.psi_vals[10]).all()
    assert np.isfinite(np.delete(tr.v_h, 10)).all()


def test_nonlinear_residual_scales_quadratically(rgl_profile, engine4):
    # every term of the source is quadratic in (gamma, psi, v): halving the
    # perturbation should quarter it
    norms = {}
    for eps in (1e-3, 5e-4):
        res = run_experiment(rgl_profile, 4, engine4, t_max=4.0, dt=0.01,
                             seed=13, amplitude=eps, normalize="sup")
        tr = modulation_trace(res)
        source = nonlinear_residual(res, tr.gamma, tr.psi_vals, tr.v_vals)
        assert source.shape == tr.v_vals.shape
        norms[eps] = grids.norm_l2(grids.GridFunction(4, source[-1]))
    ratio = norms[1e-3] / norms[5e-4]
    assert ratio == pytest.approx(4.0, rel=0.25)


def _snapshot_source(profile, n_period, psi, v, psi_t, gamma_t):
    """Reference: the source at one snapshot as the frame-by-frame code
    assembled it, on (P, n) GridFunctions, in its order of operations."""
    k, c, model = profile.k, profile.c, profile.model
    base = grids.from_profile(profile, n_period, v.shape[0] // n_period)
    phi = base.values
    phip = grids.derivative(base).values
    vx = grids.derivative(grids.GridFunction(n_period, v)).values
    psix = grids.derivative(grids.GridFunction(n_period, psi[:, None])).values
    fv = model.f(phi + v) - model.f(phi)
    dfv = np.einsum("xij,xj->xi", model.df(phi), v)
    q_vals = (1.0 - psix) * (fv - dfv)
    denom = 1.0 - psix
    r_vals = (-psi_t[:, None] * v - (gamma_t / n_period) * v + c * psix * v
              + k * grids.derivative(grids.GridFunction(n_period,
                                                        psix * v)).values
              + k * (psix / denom) * vx
              + k * (psix ** 2 / denom) * phip)
    r_x = grids.derivative(grids.GridFunction(n_period, r_vals)).values
    return (q_vals + k * r_x) / k


def test_nonlinear_residual_matches_the_per_snapshot_formulas(small_run):
    # one batched call must give every snapshot's source bit for bit
    tr = modulation_trace(small_run)
    source = nonlinear_residual(small_run, tr.gamma, tr.psi_vals, tr.v_vals)
    gamma_t = time_derivative(small_run.times, tr.gamma)
    psi_t = time_derivative(small_run.times, tr.psi_vals)
    assert np.max(np.abs(source)) > 0.0
    for s in range(len(small_run.times)):
        want = _snapshot_source(small_run.profile, 4, tr.psi_vals[s],
                                tr.v_vals[s], psi_t[s], gamma_t[s])
        assert np.array_equal(source[s], want)


def test_nonlinear_residual_names_the_first_singular_snapshot(small_run):
    # psi_x = 2 cos(pi x / 2) added at snapshots 10 and 20 of a valid trace
    tr = modulation_trace(small_run)
    x = grids.grid_points(4, small_run.m_x)
    psi = tr.psi_vals.copy()
    psi[[10, 20]] += 4.0 / np.pi * np.sin(np.pi * x / 2)
    t = re.escape(f"t = {small_run.times[10]:.3f};")
    with pytest.raises(PhaseWarpError, match=rf"max psi_x = 2\.\d+ >= 1 at {t}"):
        nonlinear_residual(small_run, tr.gamma, psi, tr.v_vals)


def test_duhamel_sweeps_evaluate_the_source_once_each(small_run, monkeypatch):
    # one batched source per sweep plus one for the defect, on the phi the
    # run sampled: the extraction samples phi on the grid no more
    calls = {"nonlinear_residual": 0, "from_profile": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(evolve, "nonlinear_residual")
    counted(grids, "from_profile")
    trace = extract_modulation_duhamel(small_run)
    assert calls == {"nonlinear_residual": trace.iterations + 1,
                     "from_profile": 0}


def test_projection_extraction_full_trajectory(small_run):
    trace = modulation_trace(small_run)
    assert trace.warp_ok.all() and trace.v_vals.shape[0] == len(small_run.times)
    assert trace.gamma[0] == 0.0
    # v is the perturbation in the comoving frame; it stays small
    assert np.max(np.abs(trace.v_vals)) < 1e-3


def test_duhamel_agrees_with_projection_for_small_data(rgl_profile, engine4):
    # dense snapshots keep the quadrature defect below the 10x-tol bar
    res = run_experiment(rgl_profile, 4, engine4, t_max=8.0, dt=0.01,
                         seed=21, amplitude=1e-5,
                         snapshot_times=np.arange(0.0, 8.01, 0.1))
    trace = extract_modulation_duhamel(res, tol=1e-8)
    assert trace.iterations <= 3
    assert trace.v2_defect <= 1e-7
    gam_p = res.gamma
    diff = np.max(np.abs(trace.gamma - gam_p))
    assert diff <= 1e-3 * max(np.max(np.abs(gam_p)), 1e-30)


def test_duhamel_contracts_at_moderate_amplitude(rgl_profile, engine4):
    res = run_experiment(rgl_profile, 4, engine4, t_max=6.0, dt=0.01,
                         seed=2, amplitude=5e-3, normalize="sup")
    trace = extract_modulation_duhamel(res, tol=1e-10)
    assert trace.iterations >= 3
    updates = trace.update_norms
    assert all(a > b for a, b in zip(updates, updates[1:]))
    assert trace.v2_defect <= 1e-9


def test_duhamel_reports_divergence(rgl_profile, engine4):
    res = run_experiment(rgl_profile, 4, engine4, t_max=6.0, dt=0.01,
                         seed=2, amplitude=0.4, normalize="sup")
    with pytest.raises(ExtractionDivergenceError, match="diverging"):
        extract_modulation_duhamel(res)


def test_duhamel_reports_sweep_exhaustion(rgl_profile, engine4):
    # just inside the contraction region but too slow for the sweep budget
    res = run_experiment(rgl_profile, 4, engine4, t_max=6.0, dt=0.01,
                         seed=2, amplitude=0.2, normalize="sup")
    with pytest.raises(ExtractionDivergenceError, match="sweeps"):
        extract_modulation_duhamel(res)


def test_zero_run_extracts_zero(rgl_profile, engine4):
    res = run_experiment(rgl_profile, 4, engine4, t_max=3.0, dt=0.01,
                         amplitude=0.0)
    trace = extract_modulation_duhamel(res)
    assert trace.iterations == 1
    assert np.max(np.abs(trace.gamma)) <= 1e-12
    assert np.max(np.abs(trace.psi_vals)) <= 1e-12


def test_duhamel_makes_linearly_many_syntheses(rgl_profile, engine4,
                                               monkeypatch):
    # every prefix integral comes out of one recurrence, so a sweep
    # synthesizes each snapshot a bounded number of times, not once per
    # earlier snapshot
    res = run_experiment(rgl_profile, 4, engine4, t_max=8.0, dt=0.01,
                         seed=21, amplitude=1e-5,
                         snapshot_times=np.arange(0.0, 8.01, 0.1))
    trace = modulation_trace(res)
    calls = []
    inverse = grids.bloch_inverse

    def counting(bc):
        calls.append(1)
        return inverse(bc)

    monkeypatch.setattr(grids, "bloch_inverse", counting)
    tr = extract_modulation_duhamel(res, tol=1e-8, trace=trace)
    T = res.times.size
    assert 0 < len(calls) <= 3 * T * (tr.iterations + 1)


@pytest.fixture(scope="module")
def acceptance10_run(rgl_profile, engine16):
    res = run_experiment(rgl_profile, 16, engine16, t_max=20.0, dt=0.01,
                         seed=7, amplitude=1e-5, band=16, normalize="sup")
    return res, modulation_trace(res)


def test_duhamel_amplitudes_match_the_scalar_recurrence(acceptance10_run,
                                                        monkeypatch):
    # the critical amplitudes read off the accumulated fibers equal the
    # trapezoid recurrence run on the amplitudes themselves: adj_xi is a
    # left eigenvector, so <adj_xi, e^{L_xi h} f> = e^{lambda_c h} <adj_xi, f>
    res, trace = acceptance10_run
    eng = res.engine
    prefixes, worst = evolve._trapezoid_prefixes, []

    def compared(times, init, f, step):
        out = prefixes(times, init, f, step)
        fiber = np.stack([eng.amplitudes(x) for x in out])
        scalar = prefixes(times, eng.amplitudes(init),
                          np.stack([eng.amplitudes(x) for x in f]),
                          eng.crit_lam)
        assert np.array_equal(np.isnan(fiber), np.isnan(scalar))
        ok = ~np.isnan(scalar)
        worst.append(np.max(np.abs(fiber[ok] - scalar[ok]))
                     / np.max(np.abs(scalar[ok])))
        return out

    monkeypatch.setattr(evolve, "_trapezoid_prefixes", compared)
    tr = extract_modulation_duhamel(res, tol=1e-8, trace=trace)
    assert len(worst) == tr.iterations + 1
    assert max(worst) <= 1e-12


def test_duhamel_propagates_once_per_step_and_sweep(acceptance10_run,
                                                    monkeypatch):
    res, trace = acceptance10_run
    eng = res.engine
    calls = []

    def counted(half, t):
        calls.append(t)
        return semigroup.SemigroupEngine.apply(eng, half, t)

    monkeypatch.setattr(eng, "apply", counted)
    tr = extract_modulation_duhamel(res, tol=1e-8, trace=trace)
    assert len(calls) == (res.times.size - 1) * (tr.iterations + 1)


def test_trapezoid_prefixes_match_the_explicit_sum():
    rng = np.random.Generator(np.random.Philox(key=5))
    times = 1.5 + np.cumsum(rng.uniform(0.05, 0.6, 30))     # nonuniform
    cases = (-0.7, -0.3 + 2.1j, np.array([-1.2, 0.0, -0.05 + 0.4j]))
    for lam in cases:
        shape = np.shape(lam)
        f = rng.standard_normal((times.size,) + shape)
        init = rng.standard_normal(shape)
        if np.iscomplexobj(lam):
            f = f + 1j * rng.standard_normal(f.shape)
        got = evolve._trapezoid_prefixes(times, init, f, lam)
        for i in range(times.size):
            # the trapezoid rule on [t_0, t_i], every term written out
            ref = np.exp(lam * (times[i] - times[0])) * init
            for s in range(i + 1):
                w = 0.0
                if s > 0:
                    w += 0.5 * (times[s] - times[s - 1])
                if s < i:
                    w += 0.5 * (times[s + 1] - times[s])
                ref = ref + w * np.exp(lam * (times[i] - times[s])) * f[s]
            np.testing.assert_allclose(got[i], ref, rtol=1e-12, atol=1e-13)


def test_damping_constants_do_not_depend_on_the_time_origin(small_run):
    # the homogeneous term decays from the first snapshot, so moving every
    # time of the trace by a constant leaves the constants where they are
    trace = modulation_trace(small_run)
    base = evolve.damping_check(trace)
    moved = evolve.damping_check(
        dataclasses.replace(trace, times=trace.times + 5.0))
    np.testing.assert_allclose(moved.constants, base.constants, rtol=1e-12)
    assert moved.best_theta == base.best_theta


def test_envelope_slope_recovers_a_power_law():
    times = np.geomspace(0.5, 200.0, 60)
    vals = 3.0 * (1.0 + times) ** -0.75
    slope = envelope_slope(times, vals, t_lo=5.0)
    assert slope == pytest.approx(-0.75, abs=0.01)
    # oscillation under the envelope does not change the fit much
    wob = vals * (1.0 + 0.3 * np.sin(3.0 * np.log(times)))
    slope2 = envelope_slope(times, wob, t_lo=5.0)
    assert slope2 == pytest.approx(-0.75, abs=0.15)


def test_envelope_slope_needs_enough_samples():
    with pytest.raises(ValueError, match="samples"):
        envelope_slope(np.array([1.0, 2.0]), np.array([1.0, 0.5]), t_lo=10.0)


def test_crossover_fit_recovers_the_synthetic_rate():
    # a power term plus an exponential: the exponential rules early here,
    # and the fitter's orientation search still pins its rate
    delta = 0.09
    times = np.geomspace(0.5, 400.0, 120)
    vals = 1e-4 * (1.0 + times) ** -0.25 + 2.0 * np.exp(-delta * times)
    fit = crossover_fit(times, vals)
    assert fit.rate == pytest.approx(delta, rel=0.05)
    assert fit.exp_side == "early"


def test_crossover_fit_physical_orientation():
    # power law handing over to an exponential at a knee (the finite-size
    # crossover shape): knee and rate both recovered
    delta = 0.08
    times = np.geomspace(0.5, 300.0, 150)
    knee = 60.0
    pow_part = 0.9 * (1.0 + times) ** -0.25
    exp_part = pow_part[np.searchsorted(times, knee)] * np.exp(
        -delta * (times - knee))
    vals = np.where(times <= knee, pow_part, exp_part)
    fit = crossover_fit(times, vals)
    assert fit.exp_side == "late"
    assert fit.rate == pytest.approx(delta, rel=0.05)
    assert fit.t_knee == pytest.approx(knee, rel=0.25)
    assert fit.power == pytest.approx(0.25, abs=0.1)


def test_envelope_check_reports_slopes_at_the_rounding_floor_unjudged():
    # gamma_t of an O(1) wave: its rounding level is eps max|u| / h
    times = np.concatenate([np.arange(0.0, 10.0, 0.25),
                            10.0 * 1.15 ** np.arange(30)])
    window, band = [10.0, 160.0], [None, -1.2]

    def level(t):
        return np.finfo(float).eps * 1.0 / np.min(np.diff(t))

    noise = 1e-16 * (1.0 + np.random.default_rng(0).random(times.size))
    check = evolve._envelope_check(times, noise, window, band, level)
    assert check["pass"] is None and check["value"] is None
    assert check["reason"] == "below rounding floor"

    decay = 1e-6 * (1.0 + times) ** -1.5
    check = evolve._envelope_check(times, decay, window, band, level)
    assert check["value"] == pytest.approx(-1.5, abs=0.05)
    assert check["pass"] is True and "reason" not in check


def test_crossover_check_needs_the_late_exponential():
    # the synthetic trace of test_crossover_fit_recovers_the_synthetic_rate:
    # its rate matches the gap, but the exponential segment is the early one
    delta = 0.09
    times = np.geomspace(0.5, 400.0, 120)
    vals = 1e-4 * (1.0 + times) ** -0.25 + 2.0 * np.exp(-delta * times)
    check = evolve._crossover_check(times, vals, delta)
    assert check["exp_side"] == "early"
    assert check["band"][0] <= check["value"] <= check["band"][1]
    assert check["pass"] is False


def test_run_checks_leave_the_residual_checks_unjudged_after_a_warp_failure(
        rgl_profile, engine4):
    res = run_experiment(rgl_profile, 4, engine4, t_max=12.0, dt=0.01,
                         seed=3, amplitude=1e-5)
    trace = modulation_trace(res)
    delta = bloch.subharmonic_spectrum(rgl_profile, 4).delta
    clean = evolve.run_checks(res, trace, delta)
    assert clean["zeta"]["pass"] is True and clean["damping"]["pass"] is True
    warp_ok = trace.warp_ok.copy()
    warp_ok[-1] = False
    judged = evolve.run_checks(
        res, dataclasses.replace(trace, warp_ok=warp_ok), delta)
    for name in ("zeta", "damping", "v_h_envelope"):
        assert judged[name]["pass"] is None and judged[name]["value"] is None
        assert judged[name]["reason"] == (
            f"phase warp failed at 1 of {res.times.size} snapshots")
    # phase and crossover read no residual field
    assert judged["phase"] == clean["phase"]
    assert judged["crossover"] == clean["crossover"]


def test_crossover_fit_on_a_linear_relaxation(rgl_profile, engine4):
    # N = 4 has a large gap: the knee comes early and the late rate is the
    # subharmonic gap
    from wavetrain.bloch import subharmonic_spectrum
    delta4 = subharmonic_spectrum(rgl_profile, 4).delta
    res = run_experiment(rgl_profile, 4, engine4, t_max=64.0, dt=0.01,
                         seed=0, amplitude=1e-2, band=4)
    gam_inf = res.gamma_raw[-1]
    shifted = grids.from_profile(rgl_profile, 4, res.m_x, gam_inf / 4)
    h1 = np.array([grids.norm_h(grids.GridFunction(
        4, res.snapshots[i].values - shifted.values), 1)
        for i in range(len(res.times))])
    fit = crossover_fit(res.times, h1)
    assert fit.exp_side == "late"
    assert fit.rate == pytest.approx(delta4, rel=0.20)


def test_run_experiment_records_perturbation_metadata(small_run):
    meta = small_run.perturbation
    assert meta["seed"] == 3
    assert meta["amplitude"] == 1e-5
    assert meta["normalize"] == "l1_sobolev"
    assert "band" in meta and "kind" in meta


def test_decay_constant_is_uniform_in_the_period(rgl_profile, stability,
                                                 cutoff, engine8, engine16):
    # The constant in max_t ||v(t)||_{H^3} (1+t)^{3/4} <= C * E0 must not
    # grow with the number of periods.  Run the same protocol on wider and
    # wider domains and compare the attained constants.  The N = 32 leg
    # dominates the runtime of this whole module.
    engines = {8: engine8, 16: engine16,
               32: semigroup.SemigroupEngine(rgl_profile, 32, cutoff=cutoff,
                                             stability=stability)}
    e0 = 1e-2
    attained = {}
    for n, eng in engines.items():
        res = run_experiment(rgl_profile, n, eng, t_max=4.0 * n ** 2, dt=0.01,
                             seed=0, amplitude=e0, band=n,
                             normalize="l1_sobolev", k_sob=3)
        tr = modulation_trace(res, k_sob=3)
        attained[n] = float(np.max(tr.v_h * (1.0 + res.times) ** 0.75) / e0)
    assert all(np.isfinite(c) and c > 0 for c in attained.values())
    assert max(attained.values()) / min(attained.values()) < 3.0
