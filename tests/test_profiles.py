import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from wavetrain import (
    DegenerateProfileError,
    ProfileConvergenceError,
    load_profile,
    profile_residual,
    save_profile,
    solve_profile,
)
from wavetrain.models import ReactionModel, nagumo, real_ginzburg_landau
from wavetrain.profiles import nagumo_guess, rgl_analytic

TWO_PI = 2.0 * np.pi


def _perturbed_rgl_guess(q=0.3, m_f=32, rel=0.01, seed=42):
    coeffs, k, c = rgl_analytic(q, m_f=m_f)
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale = rel * np.max(np.abs(coeffs))
    noise = scale * (rng.standard_normal(coeffs.shape)
                     + 1j * rng.standard_normal(coeffs.shape))
    return coeffs + noise, k, c


def test_newton_recovers_analytic_wave_from_perturbed_guess():
    guess, k, c = _perturbed_rgl_guess()
    prof = solve_profile(real_ginzburg_landau(), guess, k, c, solve_for="c")
    assert prof.residual_norm < 1e-10
    assert abs(prof.amplitude() - np.sqrt(1.0 - 0.09)) < 1e-8
    assert abs(prof.c) < 1e-8


def test_newton_residuals_drop_fast_near_the_solution():
    guess, k, c = _perturbed_rgl_guess()
    prof = solve_profile(real_ginzburg_landau(), guess, k, c, solve_for="c")
    hist = prof.info["newton_residuals"]
    assert len(hist) >= 3
    late = [r for r in hist if r > 1e-13]
    drops = [late[i + 1] / late[i] for i in range(len(late) - 1)
             if late[i] < 1e-2]
    assert drops and all(d < 0.1 for d in drops)


def test_solver_failure_carries_history():
    guess, k, c = _perturbed_rgl_guess()
    with pytest.raises(ProfileConvergenceError) as err:
        solve_profile(real_ginzburg_landau(), guess, k, c, max_iter=2)
    assert len(err.value.history) == 2
    assert err.value.residual_norm > 0


def _nagumo_with_a_passive_component(rate):
    """nagumo kinetics on u_1 and the linear f_2 = -rate u_2 on u_2."""
    scalar = nagumo(0.25)

    def f(u):
        return np.concatenate([scalar.f(u[..., :1]), -rate * u[..., 1:]], axis=-1)

    def df(u):
        jac = np.zeros(u.shape + (2,))
        jac[..., :1, :1] = scalar.df(u[..., :1])
        jac[..., 1, 1] = -rate
        return jac

    return ReactionModel("passive", 2, f, df)


@pytest.mark.parametrize("rate", [0.0, 1e-18], ids=["singular", "ill_conditioned"])
def test_newton_refuses_a_singular_or_ill_conditioned_system(rate):
    # the l = 0 mode of u_2 enters the Jacobian only through -rate
    coeffs, k, c = nagumo_guess(0.25)
    guess = np.concatenate([coeffs, np.zeros_like(coeffs)], axis=1)
    with pytest.raises(ProfileConvergenceError, match="singular Newton system"):
        solve_profile(_nagumo_with_a_passive_component(rate), guess, k, c,
                      solve_for="c")


def test_constant_guess_is_rejected():
    coeffs = np.zeros((65, 2), dtype=complex)
    coeffs[32] = [0.5, 0.1]
    with pytest.raises(DegenerateProfileError):
        solve_profile(real_ginzburg_landau(), coeffs, 0.05, 0.0)


def test_phase_rotation_invariance():
    coeffs, k, c = rgl_analytic(0.3, m_f=32)
    base = solve_profile(real_ginzburg_landau(), coeffs, k, c, solve_for="c")
    shift = 0.17
    ell = np.arange(-32, 33)
    phases = np.exp(TWO_PI * 1j * ell * shift)[:, None]
    rotated = solve_profile(real_ginzburg_landau(), coeffs * phases, k, c,
                            solve_for="c")
    npt.assert_allclose(rotated.coeffs, base.coeffs * phases, atol=1e-10)
    assert abs(rotated.k - base.k) < 1e-12


def test_truncation_refinement_changes_little():
    prof32 = solve_profile(real_ginzburg_landau(),
                           *rgl_analytic(0.3, m_f=32), solve_for="c")
    prof64 = solve_profile(real_ginzburg_landau(),
                           *rgl_analytic(0.3, m_f=64), solve_for="c")
    common = prof64.coeffs[64 - 32:64 + 33]
    npt.assert_allclose(common, prof32.coeffs, atol=1e-8)
    assert abs(prof64.c - prof32.c) < 1e-8


def test_profile_evaluation_periodicity_and_derivatives(rgl_profile):
    x = np.linspace(0.0, 1.0, 7)
    npt.assert_allclose(rgl_profile(x + 1.0), rgl_profile(x), atol=1e-12)
    eps = 1e-6
    for deriv in (1, 2, 3, 4):
        fd = (rgl_profile(x + eps, deriv=deriv - 1)
              - rgl_profile(x - eps, deriv=deriv - 1)) / (2.0 * eps)
        npt.assert_allclose(rgl_profile(x, deriv=deriv), fd,
                            rtol=1e-5, atol=1e-4)


def test_residual_detects_wrong_speed(rgl_profile):
    assert profile_residual(rgl_profile) < 1e-10
    wrong = dataclasses.replace(rgl_profile, c=rgl_profile.c + 0.1)
    assert profile_residual(wrong) > 1e-3


def test_newton_with_free_wavenumber_returns_to_the_wave(brusselator_profile):
    # the k-free bordered system, started off the c-solve on both sides
    base = brusselator_profile
    for scale in (1.01, 0.99):
        prof = solve_profile(base.model, base.coeffs * (1.0 + 1e-3),
                             base.k * scale, base.c, solve_for="k")
        assert prof.residual_norm < 1e-10
        assert abs(prof.k - base.k) <= 1e-12
        assert prof.c == base.c
        assert np.array_equal(prof.coeffs, np.conj(prof.coeffs[::-1]))


def test_nagumo_wave_solves_with_free_speed(nagumo_profile):
    assert nagumo_profile.residual_norm < 1e-10
    assert nagumo_profile.k > 0
    assert nagumo_profile.derivative_l2() > 1e-3


@pytest.mark.parametrize("q", [1.5, -0.3])
def test_analytic_guess_rejects_bad_wavenumber(q):
    from wavetrain import ModelParameterError
    with pytest.raises(ModelParameterError):
        rgl_analytic(q)


def test_save_load_round_trip_is_bit_faithful(tmp_path, rgl_profile):
    path = tmp_path / "wave.json"
    save_profile(rgl_profile, path)
    back = load_profile(path)
    assert back.k == rgl_profile.k
    assert back.c == rgl_profile.c
    assert np.array_equal(back.coeffs, rgl_profile.coeffs)
    assert back.model.id == "rgl"
    assert profile_residual(back) < 1e-10


def test_nagumo_guess_has_detuned_wavenumber():
    _, k, _ = nagumo_guess(0.25)
    k_lin = np.sqrt(0.25 * 0.75) / TWO_PI
    assert 0.9 * k_lin < k < k_lin
