import numpy as np
import pytest

from wavetrain import bloch, models, profiles, semigroup

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="session")
def rgl_profile():
    return profiles.solve_profile(models.real_ginzburg_landau(),
                                  *profiles.rgl_analytic(0.3, m_f=32),
                                  solve_for="c")


@pytest.fixture(scope="session")
def rgl_profile_m16():
    return profiles.solve_profile(models.real_ginzburg_landau(),
                                  *profiles.rgl_analytic(0.3, m_f=16),
                                  solve_for="c")


@pytest.fixture(scope="session")
def nagumo_profile():
    return profiles.solve_profile(models.nagumo(0.25),
                                  *profiles.nagumo_guess(0.25),
                                  solve_for="c")


@pytest.fixture(scope="session")
def brusselator_profile():
    # A = 1, B = 2.2 lies past the Hopf point B = 1 + A^2; a wave train of
    # wavenumber 0.9 of the critical one bifurcates from the rest state
    # (A, B/A) along the critical eigenvector, travelling at c != 0
    a, b = 1.0, 2.2
    mu, vec = np.linalg.eig(np.array([[b - 1.0, a * a], [-b, -a * a]]))
    i = int(np.argmax(mu.imag))
    k = 0.9 * np.sqrt(mu[i].real) / TWO_PI
    # m_f = 24: at 16 the Df(phi) tail beyond the cap is 6.4e-13, above
    # bloch.HILL_TAIL_TOL
    coeffs = np.zeros((49, 2), dtype=complex)
    coeffs[24] = [a, b / a]
    coeffs[25] = vec[:, i] / 2.0
    coeffs[23] = np.conj(coeffs[25])
    return profiles.solve_profile(models.brusselator(a, b), coeffs, k,
                                  -mu[i].imag / (TWO_PI * k), solve_for="c")


@pytest.fixture(scope="session")
def stability(rgl_profile):
    return bloch.verify_diffusive_stability(rgl_profile, scan=128)


@pytest.fixture(scope="session")
def cutoff(stability):
    return semigroup.default_cutoff(stability)


@pytest.fixture(scope="session")
def engine4(rgl_profile, cutoff):
    return semigroup.SemigroupEngine(rgl_profile, 4, cutoff)


@pytest.fixture(scope="session")
def engine8(rgl_profile, cutoff):
    return semigroup.SemigroupEngine(rgl_profile, 8, cutoff)


@pytest.fixture(scope="session")
def engine16(rgl_profile, cutoff):
    return semigroup.SemigroupEngine(rgl_profile, 16, cutoff)


@pytest.fixture(scope="session")
def engine64(rgl_profile, cutoff):
    return semigroup.SemigroupEngine(rgl_profile, 64, cutoff)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(key=1234))
