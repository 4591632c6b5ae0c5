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
    ShiftFitError,
)
from wavetrain.evolve import (
    ImexStepper,
    crossover_fit,
    default_snapshot_times,
    envelope_slope,
    extract_modulation_duhamel,
    fd_weights,
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


def _datum(engine, seed=0, amplitude=1e-2, band=None, normalize="l1_sobolev"):
    """A random datum on the engine's grid, sized in L1 + H^3 unless
    ``normalize`` says otherwise."""
    return random_perturbation(engine.n_period, engine.m_x, engine.n, seed,
                               amplitude, band=band, normalize=normalize,
                               k_sob=3)


def _run(engine, datum, t_max):
    """A run on the default snapshot times to ``t_max``."""
    return run_experiment(engine, datum, default_snapshot_times(t_max))


@pytest.fixture(scope="module")
def small_run(engine4):
    return _run(engine4, _datum(engine4, 3, 1e-5), 6.0)


def test_stable_dt_limit_is_positive_and_tight(rgl_profile):
    lim = stable_dt_limit(rgl_profile)
    assert 0.005 < lim < 0.05      # the default dt = 0.01 must be admissible


def test_random_perturbation_is_deterministic():
    a = random_perturbation(4, 65, 2, seed=7, amplitude=1e-3)
    b = random_perturbation(4, 65, 2, seed=7, amplitude=1e-3)
    np.testing.assert_array_equal(a, b)
    c = random_perturbation(4, 65, 2, seed=8, amplitude=1e-3)
    assert np.any(c != a)


def test_random_perturbation_normalizations():
    sup = random_perturbation(4, 65, 2, seed=1, amplitude=2.5, normalize="sup")
    assert grids.norm_linf(sup, 4) == pytest.approx(2.5, rel=1e-12)
    l1 = random_perturbation(4, 65, 2, seed=1, amplitude=0.5, normalize="l1")
    assert grids.norm_l1(l1, 4) == pytest.approx(0.5, rel=1e-12)
    sob = random_perturbation(4, 65, 2, seed=1, amplitude=1e-2,
                              normalize="l1_sobolev", k_sob=3)
    assert (grids.norm_l1(sob, 4) + grids.norm_h(sob, 4, 3)
            ) == pytest.approx(1e-2, rel=1e-12)


def test_random_perturbation_band_limit():
    vals = random_perturbation(8, 65, 2, seed=2, amplitude=1.0, band=8)
    spec = np.fft.fft(vals, axis=0)
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
        vals = random_perturbation(n, m_x, 2, seed=7, amplitude=1e-2,
                                   band=band, normalize=normalize)
        coeffs[m_x] = np.fft.rfft(vals, axis=0)[:band + 1] / (n * m_x)
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
        vals = random_perturbation(n, m_x, 2, seed=2, amplitude=0.4,
                                   band=band, normalize=normalize)
        coeffs[m_x] = np.fft.rfft(vals, axis=0)[:band + 1] / (n * m_x)
    scale = np.max(np.abs(coeffs[coarse]))
    assert np.max(np.abs(coeffs[129] - coeffs[coarse])) <= 1e-14 * scale


def test_random_perturbation_refuses_a_band_beyond_the_grid():
    # P = 4 * 17 = 68 points hold the modes |m| <= 33 below Nyquist
    assert random_perturbation(4, 17, 2, seed=0, amplitude=1.0,
                               band=33).shape == (68, 2)
    with pytest.raises(ValueError, match="band 34"):
        random_perturbation(4, 17, 2, seed=0, amplitude=1.0, band=34)


def test_zero_amplitude_perturbation_is_zero():
    vals = random_perturbation(4, 65, 2, seed=0, amplitude=0.0)
    assert vals.shape == (4 * 65, 2)
    assert np.all(vals == 0.0)


def test_snapshot_round_trip(tmp_path, rng):
    vals = rng.standard_normal((3 * 5, 2))
    path = tmp_path / "snap.bin"
    write_snapshot(path, vals, 3, 12.25)
    assert path.read_bytes() == (np.array([3, 5, 2], dtype="<i8").tobytes()
                                 + np.array([12.25], dtype="<f8").tobytes()
                                 + vals.astype("<f8").tobytes())
    back, n_period, t = read_snapshot(path)
    assert t == 12.25
    assert n_period == 3
    np.testing.assert_array_equal(back, vals)


def test_default_snapshot_times_structure():
    times = default_snapshot_times(100.0)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(100.0)
    assert np.all(np.diff(times) > 0)
    dense = times[times <= 10.0]
    np.testing.assert_allclose(np.diff(dense), 0.25, atol=1e-9)


# a horizon below the spacing 0.25 ends the dense part at t = 0, short of it
@pytest.mark.parametrize("kwargs", [{"t_max": 1e-9}, {"t_max": 0.1},
                                    {"t_max": 0.2}, {"t_max": 0.249}])
def test_default_snapshot_times_refuse_a_geometric_part_that_cannot_grow(
        kwargs):
    with pytest.raises(ValueError, match="geometrically"):
        default_snapshot_times(**kwargs)


def test_default_snapshot_times_refuse_a_negative_horizon():
    with pytest.raises(ValueError, match="t_max >= 0, got -1"):
        default_snapshot_times(-1.0)


def test_quintic_smoothstep_ramp():
    assert quintic_smoothstep(0.2, 0.5, 1.0) == 0.0
    assert quintic_smoothstep(1.5, 0.5, 1.0) == 1.0
    assert quintic_smoothstep(0.75, 0.5, 1.0) == pytest.approx(0.5)
    ts = np.linspace(0.5, 1.0, 50)
    vals = quintic_smoothstep(ts, 0.5, 1.0)
    assert np.all(np.diff(vals) >= 0)
    # first and second derivatives vanish at both ends
    h = 1e-4
    for edge in (0.5, 1.0):
        fd1 = (quintic_smoothstep(edge + h, 0.5, 1.0)
               - quintic_smoothstep(edge - h, 0.5, 1.0)) / (2 * h)
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
    base = grids.from_profile(rgl_profile, 4, engine4.m_x)
    res = run_experiment(engine4, np.zeros_like(base), [0.0, 10.0],
                         scheme=scheme)
    drift = grids.norm_l2(res.snapshots[-1] - base, 4)
    assert drift <= 1e-10, scheme


def test_imex_is_second_order_in_time(engine4):
    # use a state well away from the wave so the reaction term actually
    # moves; near phi the scheme's exact steady state hides the truncation
    x = grids.grid_points(4, engine4.m_x)
    bump = np.column_stack(
        [0.2 * np.sin(np.pi * x / 2), 0.1 * np.cos(np.pi * x)])

    def final_state(dt):
        res = run_experiment(engine4, bump, [1.0], dt=dt)
        return res.snapshots[-1]

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
    return grids.from_profile(profile, n_period, m_x) + np.column_stack(
        [0.2 * np.sin(np.pi * x / 2), 0.1 * np.cos(np.pi * x)])


@pytest.mark.parametrize("scheme, wave, n_period, m_x", [
    # even P, real symbol (the rgl wave stands still, c = 0)
    pytest.param("imex", "rgl", 4, 65, id="imex"),
    # odd P: the other forward FFT kernel
    pytest.param("imex", "rgl", 3, 33, id="imex-odd_P"),
    # |c| > 1: a complex symbol
    pytest.param("imex", "brusselator", 2, 49, id="imex-brusselator"),
])
def test_steppers_reproduce_the_point_major_formulas_bitwise(
        request, scheme, wave, n_period, m_x):
    # neither the state layout nor the FFT kernels the stepper calls may
    # change a single bit of a trajectory
    profile = request.getfixturevalue(f"{wave}_profile")
    dt = 0.01
    values = _bump_state(profile, n_period, m_x)
    stepper = evolve._SCHEMES[scheme](profile, n_period, m_x, dt)
    u_hat = stepper.to_hat(values)
    assert u_hat.shape == (2, n_period * m_x // 2 + 1)
    for _ in range(50):
        u_hat = stepper.step(u_hat)
    # every FFT and reaction sum of a step runs on the contiguous axis
    assert u_hat.flags.c_contiguous
    want = _point_major_steps(profile, n_period, m_x, dt, values, 50)
    assert np.max(np.abs(want - values)) > 1e-2
    assert np.array_equal(stepper.to_grid(u_hat).T, want)
    # folding 1/k, dt and 1/den into the coefficients moves only rounding
    unfolded = _unfolded_steps(profile, n_period, m_x, dt, values, 50)
    assert np.max(np.abs(want - unfolded)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_period, m_x", [(4, 17), (3, 33)])
def test_stepper_transforms_are_numpys_bitwise(rgl_profile, n_period, m_x):
    # the stepper calls the pocketfft kernels behind np.fft directly, on
    # even and odd P
    stepper = ImexStepper(rgl_profile, n_period, m_x, 0.01)
    values = _bump_state(rgl_profile, n_period, m_x)
    u_hat = stepper.to_hat(values)
    assert u_hat.flags.c_contiguous
    assert np.array_equal(u_hat, np.fft.rfft(values, axis=0).T)
    assert np.array_equal(stepper.to_grid(u_hat),
                          np.fft.irfft(u_hat, n=stepper.P, axis=-1))


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
    base = grids.from_profile(profile, n_period, m_x)
    u_hat = stepper.to_hat(base)
    assert u_hat.shape == (profile.n, n_period * m_x // 2 + 1)
    for _ in range(int(round(2.0 / dt))):
        u_hat = stepper.step(u_hat)
    vals = stepper.to_grid(u_hat).T
    assert vals.shape == base.shape
    assert np.max(np.abs(vals - base)) <= 1e-11


def test_unknown_scheme_is_rejected(engine4):
    with pytest.raises(ValueError, match="scheme"):
        run_experiment(engine4, _datum(engine4), [1.0], scheme="rk4")


def test_datum_on_another_grid_is_rejected(engine4, engine8):
    # a datum drawn for N = 8 has twice the samples of the N = 4 grid
    with pytest.raises(ValueError, match="grid"):
        run_experiment(engine4, _datum(engine8), [1.0])


def test_a_horizon_off_the_step_grid_rounds_to_its_nearest_step(engine4):
    # 12.006 lies 0.6 steps past step 1200: the horizon is step 1201
    res = run_experiment(engine4, _datum(engine4, 3, 1e-5), [12.006],
                         dt=0.01)
    assert res.n_steps == 1201
    assert res.times.tolist() == [pytest.approx(12.01, abs=1e-12)]
    assert res.snapshots.shape[0] == 1


def test_blow_up_is_detected(engine4):
    # drive the cubic nonlinearity past recovery
    big = 40.0 * np.ones((4 * engine4.m_x, 2))
    with pytest.raises(BlowUpError) as err:
        _run(engine4, big, 5.0)
    assert err.value.t is not None


def test_under_resolved_run_raises_at_its_first_snapshot(rgl_profile,
                                                        cutoff):
    # m_x = 9 is rgl's floor 2M + 1; a band of 64 global modes puts a
    # quarter of the perturbation above P/3 = 48 already at t = 0, a tail
    # of 2.3e-6 at sup amplitude 1e-2
    engine = semigroup.SemigroupEngine(rgl_profile, 16, cutoff, m_x=9)
    with pytest.raises(ResolutionError, match=r"t = 0\.0000.*m_x = 9"):
        _run(engine, _datum(engine, 0, 1e-2, band=64, normalize="sup"), 12.0)
    res = _run(engine, _datum(engine, 0, 1e-2, band=16), 12.0)
    assert np.max(res.snapshot_tail) <= evolve.SNAPSHOT_TAIL_TOL


def test_trajectory_stays_real(small_run):
    assert small_run.snapshots.dtype == np.float64
    assert small_run.gamma_raw.dtype == np.float64
    assert np.max(np.abs(small_run.inner.imag[:, 0])) <= 1e-12


def test_run_projects_its_snapshot_stack_once(engine4, monkeypatch):
    calls = {"fibers": 0, "amplitudes": 0}

    def counted(name):
        method = getattr(semigroup.SemigroupEngine, name)

        def call(*args):
            calls[name] += 1
            return method(engine4, *args)
        return call

    for name in calls:
        monkeypatch.setattr(engine4, name, counted(name))
    res = _run(engine4, _datum(engine4, 3, 1e-5), 6.0)
    assert calls == {"fibers": 1, "amplitudes": 1}
    monkeypatch.undo()
    # each row holds the bits of that snapshot projected alone
    for vals, row in zip(res.snapshots, res.inner):
        assert np.array_equal(
            engine4.amplitudes(engine4.fibers(vals - res.base)), row,
            equal_nan=True)
    assert np.array_equal(res.gamma_raw, res.inner[:, 0].real)


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
    init = shifted - base
    res = run_experiment(engine4, init, [0.0, 2.0, 3.0])
    assert res.gamma_raw[-1] == pytest.approx(4 * s, rel=1e-2)
    tr = modulation_trace(res)
    assert grids.norm_l2(tr.psi_vals[-1][:, None], 4) <= 1e-4
    assert grids.norm_linf(tr.v_vals[-1], 4) <= 1e-4


def test_rgl_conserves_the_phase_mass(rgl_profile, engine8):
    # the Burgers phase law of rgl has no quadratic term, so the phase mass
    # is conserved: the datum u0 = phi(x + eps b(x)) ends at the shift
    # gamma_inf = eps int b, with b a periodized Gaussian of width 2 cells
    # centred at N/2; t_max = 340 is about 8 N^2 / (4 pi^2 d)
    N, eps, width = 8, 0.05, 2.0
    x = grids.grid_points(N, engine8.m_x)
    b = sum(np.exp(-0.5 * ((x - N / 2.0 + k * N) / width) ** 2)
            for k in range(-3, 4))
    datum = rgl_profile(x + eps * b) - grids.from_profile(
        rgl_profile, N, engine8.m_x)
    res = _run(engine8, datum, 340.0)
    mass = eps * width * np.sqrt(TWO_PI)
    assert abs(evolve.phase_convergence(res).gamma_inf - mass) <= 1e-8 * mass


def test_phase_limit_refuses_a_correlation_minimum(engine4):
    # the last snapshot is -phi, which for rgl is phi(. + 1/2): at the
    # projection's start gamma(T)/N = 0 the correlation has its minimum
    res = run_experiment(engine4, np.zeros((4 * engine4.m_x, 2)), [0.0, 1.0])
    flipped = dataclasses.replace(res, snapshots=-res.snapshots)
    with pytest.raises(ShiftFitError, match="curvature"):
        evolve.phase_convergence(flipped)


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


def test_snapshots_of_the_acceptance_run_are_resolved(acceptance10_run):
    # the ACCEPTANCE 10 trajectory: modes |m| > P/3 carry rounding only
    res, _ = acceptance10_run
    assert res.snapshot_tail.shape == res.times.shape
    assert np.all(res.snapshot_tail >= 0.0)
    assert np.max(res.snapshot_tail) < 1e-20


def test_derivative_direction_is_pure_phase(rgl_profile, engine4):
    # phi + eps phi' is phi translated by -eps/1 to leading order... the
    # projection sees mean content eps * N with no local phase
    eps = 1e-6
    x = grids.grid_points(4, engine4.m_x)
    init = eps * rgl_profile(x, deriv=1)
    res = run_experiment(engine4, init, [0.0, 2.0])
    assert res.gamma_raw[0] == pytest.approx(4 * eps, rel=1e-6)
    psi0 = modulation_trace(res).psi_vals[0]
    assert grids.norm_l2(psi0[:, None], 4) <= 1e-10


def test_recomposition_inverts_the_warp(rgl_profile, engine4):
    # the inverse warp point of each grid node y solves the fixed point
    # x = y + gamma/N + psi(x); then phi(x) + v(x) must return u(y), up to
    # the interpolation error of the composed fields
    res = _run(engine4, _datum(engine4, 9, 1e-4), 5.0)
    tr = modulation_trace(res)
    for i in (0, len(res.times) // 2, len(res.times) - 1):
        psi, v = (grids.GridFunction(4, f.reshape(f.shape[0], -1))
                  for f in (tr.psi_vals[i], tr.v_vals[i]))
        u = res.snapshots[i]
        y = grids.grid_points(4, engine4.m_x)
        g = res.gamma[i] / 4
        x = y + g
        for _ in range(50):
            x_new = y + g + psi.interp(x)[:, 0]
            shift = np.max(np.abs(x_new - x))
            x = x_new
            if shift < 1e-14:
                break
        err = np.max(np.abs(v.interp(x) + rgl_profile(x) - u))
        assert err <= 1e-6 * np.max(np.abs(u))


def _steep_at(run, i):
    """``run`` with an absurd phase amplitude at snapshot i, on the stored
    slots (its -xi mirror is the conjugate)."""
    inner = np.zeros(3, dtype=complex)
    inner[1] = 40.0
    steep = run.inner.copy()
    steep[i] = inner / run.chi[i]
    return dataclasses.replace(run, inner=steep)


def test_modulation_trace_records_steep_phases_as_nan_rows(small_run):
    # the trace records a snapshot too steep to warp as a NaN row
    run = _steep_at(small_run, 10)
    tr = modulation_trace(run)
    assert np.flatnonzero(~tr.warp_ok).tolist() == [10]
    assert np.isnan(tr.v_h[10]) and np.isnan(tr.psi_vals[10]).all()
    assert np.isfinite(np.delete(tr.v_h, 10)).all()


def test_trace_rows_hold_each_snapshot_warped_alone(small_run):
    # one synthesis of the stack gives each row the bits of that snapshot's
    # own phase synthesis and interpolated warp
    tr = modulation_trace(small_run)
    eng = small_run.engine
    x = grids.grid_points(4, eng.m_x)
    assert tr.warp_ok.all()
    for i in range(len(small_run.times)):
        psi = eng.synthesize_phase(small_run.chi[i] * small_run.inner[i])
        u = grids.GridFunction(4, small_run.snapshots[i])
        v = u.interp(x - small_run.gamma[i] / 4 - psi[:, 0]) - small_run.base
        assert np.array_equal(tr.psi_vals[i], psi[:, 0])
        assert np.array_equal(tr.v_vals[i], v)


def test_nonlinear_residual_scales_quadratically(engine4):
    # every term of the source is quadratic in (gamma, psi, v): halving the
    # perturbation should quarter it
    norms = {}
    for eps in (1e-3, 5e-4):
        res = _run(engine4, _datum(engine4, 13, eps, normalize="sup"), 4.0)
        tr = modulation_trace(res)
        source = nonlinear_residual(res, tr.gamma, tr.psi_vals, tr.v_vals)
        assert source.shape == tr.v_vals.shape
        norms[eps] = grids.norm_l2(source[-1], 4)
    ratio = norms[1e-3] / norms[5e-4]
    assert ratio == pytest.approx(4.0, rel=0.25)


def _snapshot_source(profile, n_period, psi, v, psi_t, gamma_t):
    """Reference: the source at one snapshot as the frame-by-frame code
    assembled it, on (P, n) samples, in its order of operations."""
    k, c, model = profile.k, profile.c, profile.model
    phi = grids.from_profile(profile, n_period, v.shape[0] // n_period)

    def dx(vals):
        return grids.derivative_values(vals, n_period)

    phip = dx(phi)
    vx = dx(v)
    psix = dx(psi[:, None])
    fv = model.f(phi + v) - model.f(phi)
    dfv = np.einsum("xij,xj->xi", model.df(phi), v)
    q_vals = (1.0 - psix) * (fv - dfv)
    denom = 1.0 - psix
    r_vals = (-psi_t[:, None] * v - (gamma_t / n_period) * v + c * psix * v
              + k * dx(psix * v)
              + k * (psix / denom) * vx
              + k * (psix ** 2 / denom) * phip)
    r_x = dx(r_vals)
    return (q_vals + k * r_x) / k


def test_nonlinear_residual_matches_the_per_snapshot_formulas(small_run):
    # one batched call must give every snapshot's source bit for bit
    tr = modulation_trace(small_run)
    source = nonlinear_residual(small_run, tr.gamma, tr.psi_vals, tr.v_vals)
    gamma_t = time_derivative(small_run.times, tr.gamma)
    psi_t = time_derivative(small_run.times, tr.psi_vals)
    assert np.max(np.abs(source)) > 0.0
    for s in range(len(small_run.times)):
        want = _snapshot_source(small_run.engine.profile, 4, tr.psi_vals[s],
                                tr.v_vals[s], psi_t[s], gamma_t[s])
        assert np.array_equal(source[s], want)


def test_nonlinear_residual_names_the_first_singular_snapshot(small_run):
    # psi_x = 2 cos(pi x / 2) added at snapshots 10 and 20 of a valid trace
    tr = modulation_trace(small_run)
    x = grids.grid_points(4, small_run.engine.m_x)
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

    trace = modulation_trace(small_run)
    counted(evolve, "nonlinear_residual")
    counted(grids, "from_profile")
    trace = extract_modulation_duhamel(small_run, trace)
    assert calls == {"nonlinear_residual": trace.iterations + 1,
                     "from_profile": 0}


def test_projection_extraction_full_trajectory(small_run):
    trace = modulation_trace(small_run)
    assert trace.warp_ok.all() and trace.v_vals.shape[0] == len(small_run.times)
    assert trace.gamma[0] == 0.0
    # v is the perturbation in the comoving frame; it stays small
    assert np.max(np.abs(trace.v_vals)) < 1e-3


def test_duhamel_agrees_with_projection_for_small_data(engine4):
    # dense snapshots keep the quadrature defect below the 10x-tol bar
    res = run_experiment(engine4, _datum(engine4, 21, 1e-5),
                         np.arange(0.0, 8.01, 0.1))
    trace = extract_modulation_duhamel(res, modulation_trace(res), tol=1e-8)
    assert trace.iterations <= 3
    assert trace.v2_defect <= 1e-7
    gam_p = res.gamma
    diff = np.max(np.abs(trace.gamma - gam_p))
    assert diff <= 1e-3 * max(np.max(np.abs(gam_p)), 1e-30)


def test_duhamel_contracts_at_moderate_amplitude(engine4):
    res = _run(engine4, _datum(engine4, 2, 5e-3, normalize="sup"), 6.0)
    trace = extract_modulation_duhamel(res, modulation_trace(res), tol=1e-10)
    assert trace.iterations >= 3
    updates = trace.update_norms
    assert all(a > b for a, b in zip(updates, updates[1:]))
    assert trace.v2_defect <= 1e-9


def test_duhamel_reports_divergence(engine4):
    res = _run(engine4, _datum(engine4, 2, 0.4, normalize="sup"), 6.0)
    with pytest.raises(ExtractionDivergenceError, match="diverging"):
        extract_modulation_duhamel(res, modulation_trace(res))


def test_duhamel_reports_sweep_exhaustion(engine4):
    # just inside the contraction region but too slow for the sweep budget
    res = _run(engine4, _datum(engine4, 2, 0.2, normalize="sup"), 6.0)
    with pytest.raises(ExtractionDivergenceError, match="sweeps"):
        extract_modulation_duhamel(res, modulation_trace(res))


def test_zero_run_extracts_zero(engine4):
    res = _run(engine4, np.zeros((4 * engine4.m_x, 2)), 3.0)
    trace = extract_modulation_duhamel(res, modulation_trace(res))
    assert trace.iterations == 1
    assert np.max(np.abs(trace.gamma)) <= 1e-12
    assert np.max(np.abs(trace.psi_vals)) <= 1e-12


def test_zero_datum_is_judged_on_absolute_differences(rgl_profile, engine4):
    # for E0 = 0 both sides of the phase and route comparisons are rounding,
    # so the judge reads their absolute differences against 1e-12
    res = _run(engine4, np.zeros((4 * engine4.m_x, 2)), 12.0)
    trace = modulation_trace(res)
    du = extract_modulation_duhamel(res, trace)
    delta = bloch.subharmonic_spectrum(rgl_profile, 4).delta
    checks = evolve.run_checks(res, trace, delta, 0.0, duhamel=du)
    for name in ("phase", "route_agreement"):
        assert checks[name]["band"] == [0.0, 1e-12], name
        assert checks[name]["pass"] is True, checks[name]
        assert 0.0 <= checks[name]["value"] <= 1e-12, name
    assert abs(checks["phase"]["gamma_inf"]) <= 1e-12
    assert checks["phase"]["shift_misfit"] <= 1e-12
    assert checks["crossover"]["pass"] is None


def test_run_checks_need_a_horizon_past_the_zeta_normalization(rgl_profile,
                                                               small_run):
    # zeta is normalized at t = 10, which a run to t = 6 never reaches
    delta = bloch.subharmonic_spectrum(rgl_profile, 4).delta
    with pytest.raises(ValueError, match="t = 10"):
        evolve.run_checks(small_run, modulation_trace(small_run), delta, 1e-5)


def test_duhamel_makes_linearly_many_syntheses(engine4, monkeypatch):
    # every prefix integral comes out of one recurrence, so a sweep
    # synthesizes each snapshot a bounded number of times, not once per
    # earlier snapshot
    res = run_experiment(engine4, _datum(engine4, 21, 1e-5),
                         np.arange(0.0, 8.01, 0.1))
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
def acceptance10_run(engine16):
    res = _run(engine16, _datum(engine16, 7, 1e-5, band=16, normalize="sup"),
               20.0)
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
                          lambda x, h: np.exp(eng.crit_lam * h) * x)
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


def test_duhamel_calls_each_engine_operation_once_per_sweep(
        acceptance10_run, monkeypatch):
    # the engine acts on the stacked snapshots: a sweep makes one call of
    # each operation, whatever the number of snapshots
    res, trace = acceptance10_run
    eng = res.engine
    calls = {name: 0 for name in ("fibers", "amplitudes", "field",
                                  "synthesize_phase")}

    def counted(name):
        method = getattr(semigroup.SemigroupEngine, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return method(eng, *args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(eng, name, counted(name))
    tr = extract_modulation_duhamel(res, tol=1e-8, trace=trace)
    # sweeps plus the closing resubstitution; fibers also reads v_0
    passes = tr.iterations + 1
    assert calls == {"fibers": passes + 1, "amplitudes": passes,
                     "field": passes, "synthesize_phase": tr.iterations}


def test_projection_synthesizes_the_phase_once_per_trace(small_run,
                                                        monkeypatch):
    # the trace synthesizes psi for the whole stack in one engine call and
    # interpolates only the snapshots that pass the warp test, one each
    run = _steep_at(small_run, 10)
    eng = run.engine
    calls = {"synthesize_phase": 0, "interp": 0}
    synthesize = eng.synthesize_phase
    interp = grids.GridFunction.interp

    def counted_synthesize(inner):
        calls["synthesize_phase"] += 1
        return synthesize(inner)

    def counted_interp(self, points):
        calls["interp"] += 1
        return interp(self, points)

    monkeypatch.setattr(eng, "synthesize_phase", counted_synthesize)
    monkeypatch.setattr(grids.GridFunction, "interp", counted_interp)
    tr = modulation_trace(run)
    assert calls == {"synthesize_phase": 1,
                     "interp": len(run.times) - 1}
    assert np.flatnonzero(~tr.warp_ok).tolist() == [10]


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
        got = evolve._trapezoid_prefixes(
            times, init, f, lambda x, h: np.exp(lam * h) * x)
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


def test_damping_constants_do_not_depend_on_the_time_origin(rgl_profile,
                                                             small_run):
    # the homogeneous term decays from the first snapshot, so moving every
    # time of the trace by a constant leaves the constant where it is
    trace = modulation_trace(small_run)
    moved = dataclasses.replace(trace, times=trace.times + 5.0)
    delta = bloch.subharmonic_spectrum(rgl_profile, 4).delta
    for theta in (1e-3, delta / 2.0, 1.0):
        base = evolve.damping_check(trace, theta)
        shifted = evolve.damping_check(moved, theta)
        assert shifted[0] == pytest.approx(base[0], rel=1e-12), theta
        assert shifted[1] == base[1], theta


def test_envelope_slope_recovers_a_power_law():
    times = np.geomspace(0.5, 200.0, 60)
    vals = 3.0 * (1.0 + times) ** -0.75
    slope = envelope_slope(times, vals, t_lo=5.0, t_hi=np.inf)
    assert slope == pytest.approx(-0.75, abs=0.01)
    # oscillation under the envelope does not change the fit much
    wob = vals * (1.0 + 0.3 * np.sin(3.0 * np.log(times)))
    slope2 = envelope_slope(times, wob, t_lo=5.0, t_hi=np.inf)
    assert slope2 == pytest.approx(-0.75, abs=0.15)


def test_envelope_slope_needs_enough_samples():
    # the reason names both ends of the window
    with pytest.raises(ValueError, match=r"samples in the fit window "
                                         r"\[10.0, inf\]"):
        envelope_slope(np.array([1.0, 2.0]), np.array([1.0, 0.5]), t_lo=10.0,
                       t_hi=np.inf)


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
    res = _run(engine4, _datum(engine4, 3, 1e-5), 12.0)
    trace = modulation_trace(res)
    delta = bloch.subharmonic_spectrum(rgl_profile, 4).delta
    clean = evolve.run_checks(res, trace, delta, 1e-5)
    assert clean["zeta"]["pass"] is True and clean["damping"]["pass"] is True
    warp_ok = trace.warp_ok.copy()
    warp_ok[-1] = False
    judged = evolve.run_checks(
        res, dataclasses.replace(trace, warp_ok=warp_ok), delta, 1e-5)
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
    res = _run(engine4, _datum(engine4, 0, 1e-2, band=4), 64.0)
    gam_inf = res.gamma_raw[-1]
    shifted = grids.from_profile(rgl_profile, 4, engine4.m_x, gam_inf / 4)
    h1 = grids.norm_h(res.snapshots - shifted, 4, 1)
    fit = crossover_fit(res.times, h1)
    assert fit.exp_side == "late"
    assert fit.rate == pytest.approx(delta4, rel=0.20)


def test_decay_constant_is_uniform_in_the_period(rgl_profile, cutoff, engine8,
                                                 engine16):
    # The constant in max_t ||v(t)||_{H^3} (1+t)^{3/4} <= C * E0 must not
    # grow with the number of periods.  Run the same protocol on wider and
    # wider domains and compare the attained constants.  The N = 32 leg
    # dominates the runtime of this whole module.
    engines = {8: engine8, 16: engine16,
               32: semigroup.SemigroupEngine(rgl_profile, 32, cutoff)}
    e0 = 1e-2
    attained = {}
    for n, eng in engines.items():
        res = _run(eng, _datum(eng, 0, e0, band=n), 4.0 * n ** 2)
        tr = modulation_trace(res, k_sob=3)
        attained[n] = float(np.max(tr.v_h * (1.0 + res.times) ** 0.75) / e0)
    assert all(np.isfinite(c) and c > 0 for c in attained.values())
    assert max(attained.values()) / min(attained.values()) < 3.0
