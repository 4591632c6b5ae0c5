"""Grid containers, the discrete Bloch transform, and norms."""

import tracemalloc

import numpy as np
import pytest

from wavetrain.grids import (
    BlochCoefficients,
    GridFunction,
    bloch_inverse,
    bloch_transform,
    cell_modes,
    cell_norms_sq,
    derivative,
    derivative_values,
    from_callable,
    from_profile,
    grid_points,
    inner_l2,
    norm_h,
    norm_l1,
    norm_l2,
    norm_linf,
    resample,
)

TWO_PI = 2.0 * np.pi


def random_grid_function(n_period, m_x, n_components, rng, complex_valued=False):
    shape = (n_period * m_x, n_components)
    vals = rng.standard_normal(shape)
    if complex_valued:
        vals = vals + 1j * rng.standard_normal(shape)
    return GridFunction(n_period, vals)


def per_frequency_samples(bc):
    """Samples of each (Bg)(xi_j, .) on the unit-cell grid."""
    return np.fft.ifft(bc.coeffs * bc.m_x, axis=1)


@pytest.mark.parametrize("n_period", [1, 3, 8, 17])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_bloch_round_trip_is_exact(n_period, complex_valued, rng):
    gf = random_grid_function(n_period, 9, 2, rng, complex_valued)
    back = bloch_inverse(bloch_transform(gf))
    err = norm_linf(GridFunction(n_period, np.abs(back.values - gf.values)))
    assert err <= 1e-12 * norm_linf(gf)


@pytest.mark.parametrize("n_period", [1, 3, 8, 17])
def test_parseval_identity(n_period, rng):
    gf = random_grid_function(n_period, 9, 2, rng, complex_valued=True)
    bc = bloch_transform(gf)
    lhs = norm_l2(gf) ** 2
    rhs = float(np.sum(cell_norms_sq(bc))) / n_period
    assert abs(lhs - rhs) <= 1e-12 * lhs


@pytest.mark.parametrize("n_period", [1, 3, 8, 17])
def test_multiplication_by_cell_periodic_factor_acts_per_frequency(n_period, rng):
    # A 1-periodic factor passes through the transform pointwise in x.
    m_x = 9
    gf = random_grid_function(n_period, m_x, 2, rng)
    cell_factor = rng.standard_normal(m_x)
    product = GridFunction(
        n_period, gf.values * np.tile(cell_factor, n_period)[:, None])
    lhs = per_frequency_samples(bloch_transform(product))
    rhs = cell_factor[None, :, None] * per_frequency_samples(bloch_transform(gf))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_unit_cell_harmonic_lands_in_the_zero_frequency_slot():
    # e^{2 pi i x} is 1-periodic: frequency 0, cell mode l = 1, weight N.
    n_period, m_x = 8, 9
    x = grid_points(n_period, m_x)
    gf = GridFunction(n_period, np.exp(1j * TWO_PI * x)[:, None])
    bc = bloch_transform(gf)
    slot_l = list(cell_modes(m_x)).index(1)
    expected = np.zeros_like(bc.coeffs)
    expected[0, slot_l, 0] = n_period
    np.testing.assert_allclose(bc.coeffs, expected, atol=1e-12)


def test_longest_wavelength_harmonic_lands_in_the_first_frequency_slot():
    n_period, m_x = 8, 9
    x = grid_points(n_period, m_x)
    gf = GridFunction(n_period, np.exp(1j * TWO_PI * x / n_period)[:, None])
    bc = bloch_transform(gf)
    expected = np.zeros_like(bc.coeffs)
    expected[1, 0, 0] = n_period
    np.testing.assert_allclose(bc.coeffs, expected, atol=1e-12)


def test_single_slot_impulse_synthesizes_a_pure_mode():
    n_period, m_x = 5, 9
    j, slot_l = 2, 3
    coeffs = np.zeros((n_period, m_x, 1), dtype=complex)
    coeffs[j, slot_l, 0] = n_period
    bc = BlochCoefficients(n_period, coeffs, was_real=False)
    gf = bloch_inverse(bc)
    omega = bc.frequencies[j] + TWO_PI * cell_modes(m_x)[slot_l]
    expected = np.exp(1j * omega * grid_points(n_period, m_x))
    np.testing.assert_allclose(gf.values[:, 0], expected, atol=1e-12)


def test_distinct_frequencies_are_orthogonal(rng):
    n_period, m_x = 8, 9
    gf = random_grid_function(n_period, m_x, 1, rng)
    bc = bloch_transform(gf)
    # Zero out everything except one frequency, invert, and check the
    # result is orthogonal to the complementary reconstruction.
    keep = bc.copy()
    keep.coeffs[1:] = 0.0
    rest = bc.copy()
    rest.coeffs[0] = 0.0
    ip = inner_l2(bloch_inverse(keep), bloch_inverse(rest))
    assert abs(ip) <= 1e-12


def test_zero_coefficients_invert_to_zero():
    bc = BlochCoefficients(4, np.zeros((4, 9, 2), dtype=complex))
    gf = bloch_inverse(bc)
    assert np.all(gf.values == 0.0)
    assert gf.values.dtype == np.float64


def test_grid_function_validates_shape():
    with pytest.raises(ValueError, match="divide"):
        GridFunction(3, np.zeros(10))
    gf = GridFunction(2, np.zeros(10))
    assert gf.values.shape == (10, 1)
    assert gf.m_x == 5


def test_interp_reproduces_grid_samples(rng):
    gf = random_grid_function(4, 9, 2, rng)
    np.testing.assert_allclose(gf.interp(gf.x), gf.values, atol=1e-12)
    # periodic extension
    np.testing.assert_allclose(gf.interp(gf.x + 4.0), gf.values, atol=1e-11)


def resolved_grid_function(n_period, m_x, rng, complex_valued):
    """Random two-component field whose spectrum decays to rounding at P/2."""
    P = n_period * m_x
    m = np.fft.fftfreq(P, d=1.0 / P)
    spec = (rng.standard_normal((P, 2)) + 1j * rng.standard_normal((P, 2))) \
        * np.exp(-36.0 * np.abs(m) / P)[:, None]
    vals = np.fft.ifft(spec, axis=0) * P
    return GridFunction(n_period, vals if complex_valued else vals.real)


def long_double_interp(gf, points, deriv):
    """The interpolating sum evaluated term by term in extended precision."""
    P = gf.n_points
    coeffs = np.fft.fft(gf.values, axis=0).astype(np.clongdouble) / P
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    omega = two_pi * np.fft.fftfreq(P, d=1.0 / P).astype(np.longdouble) \
        / gf.n_period
    arg = np.multiply.outer(np.asarray(points, dtype=np.longdouble), omega)
    coeffs = coeffs * ((1j * omega[:, None]) ** deriv)
    out = (np.cos(arg) + 1j * np.sin(arg)) @ coeffs
    return out if np.iscomplexobj(gf.values) else out.real


@pytest.mark.parametrize("complex_valued", [False, True])
@pytest.mark.parametrize("n_period,m_x", [(16, 65), (4, 16), (5, 13)])
def test_interp_matches_an_extended_precision_sum(n_period, m_x,
                                                  complex_valued, rng):
    # P = 1040 is the simulation grid; the even P = 64 keeps its Nyquist mode
    # at -P/2, the odd P = 65 has none
    gf = resolved_grid_function(n_period, m_x, rng, complex_valued)
    points = np.concatenate([rng.uniform(-n_period, 0.0, 100),
                             rng.uniform(0.0, n_period, 100),
                             rng.uniform(n_period, 3 * n_period, 100)])
    omega_max = TWO_PI * (gf.n_points // 2) / n_period
    scale = np.max(np.abs(gf.values))
    for deriv in (0, 1, 2):
        got = gf.interp(points, deriv=deriv)
        assert got.shape == (points.size, 2)
        assert np.iscomplexobj(got) == complex_valued
        err = np.max(np.abs(got - long_double_interp(gf, points, deriv)))
        assert err <= 3e-14 * scale * omega_max ** deriv


def test_interp_of_a_scalar_point_is_one_row(rng):
    gf = resolved_grid_function(16, 65, rng, False)
    got = gf.interp(0.3)
    assert got.shape == (1, 2)
    np.testing.assert_array_equal(got, gf.interp(np.array([0.3])))


def test_interp_memory_grows_slower_than_the_dense_table(rng):
    gf = resolved_grid_function(64, 65, rng, False)
    points = gf.x + 0.01 * np.sin(gf.x)
    tracemalloc.start()
    try:
        gf.interp(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense P x P exponential table alone is 4160^2 * 16 B = 277 MB
    assert peak < 16e6


def test_norms_agree_on_simple_functions():
    n_period, m_x = 3, 16
    one = from_callable(lambda x: np.ones_like(x), n_period, m_x)
    assert norm_l2(one) == pytest.approx(np.sqrt(n_period), rel=1e-14)
    assert norm_l1(one) == pytest.approx(n_period, rel=1e-14)
    assert norm_linf(one) == 1.0
    assert norm_h(one, 0) == pytest.approx(norm_l2(one), rel=1e-13)
    assert norm_h(one, 3) == pytest.approx(norm_l2(one), rel=1e-13)


def test_sobolev_norm_weights_a_single_mode():
    n_period, m_x = 4, 16
    wave = from_callable(lambda x: np.cos(TWO_PI * x / n_period), n_period, m_x)
    omega = TWO_PI / n_period
    expected = np.sqrt(n_period / 2.0) * (1.0 + omega ** 2) ** 1.0
    assert norm_h(wave, 2) == pytest.approx(expected, rel=1e-12)


def test_spectral_derivative_of_a_harmonic():
    n_period, m_x = 4, 16
    wave = from_callable(lambda x: np.sin(TWO_PI * x / n_period), n_period, m_x)
    dwave = derivative(wave)
    omega = TWO_PI / n_period
    expected = omega * np.cos(omega * grid_points(n_period, m_x))
    np.testing.assert_allclose(dwave.values[:, 0], expected, atol=1e-12)
    d2 = derivative(wave, order=2)
    np.testing.assert_allclose(d2.values[:, 0], -omega ** 2 * np.sin(
        omega * grid_points(n_period, m_x)), atol=1e-12)
    # a (T, P, n) stack differentiates each (P, n) slice on its own, bit
    # for bit as one GridFunction
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((3, n_period * m_x, 2))
    got = derivative_values(stack, n_period)
    for vals, want in zip(stack, got):
        assert np.array_equal(derivative(GridFunction(n_period, vals)).values,
                              want)


def test_from_profile_tiles_one_cell_exactly(rgl_profile):
    gf = from_profile(rgl_profile, 3, 96)
    cell = gf.values[:96]
    np.testing.assert_array_equal(gf.values[96:192], cell)
    np.testing.assert_array_equal(gf.values[192:], cell)
    direct = rgl_profile(grid_points(3, 96))
    np.testing.assert_allclose(gf.values, direct, atol=1e-12)


@pytest.mark.parametrize("shift", [-1.3, 0.4, 17.25])
def test_from_profile_samples_the_shifted_wave(rgl_profile, shift):
    from wavetrain.fourier import synth
    got = from_profile(rgl_profile, 3, 65, shift)
    direct = synth(rgl_profile.coeffs, grid_points(3, 65) + shift)
    assert got.n_period == 3
    np.testing.assert_allclose(got.values, direct, rtol=0, atol=1e-13)


def test_from_profile_rejects_coarse_grids(rgl_profile):
    # below 2M + 1 = 9, the modes of rgl's Hill truncation M = 4
    with pytest.raises(ValueError, match="modes"):
        from_profile(rgl_profile, 2, 7)


def test_inner_product_is_conjugate_linear_in_the_first_slot(rng):
    f = random_grid_function(2, 9, 1, rng, complex_valued=True)
    g = random_grid_function(2, 9, 1, rng, complex_valued=True)
    scaled = GridFunction(2, (2.0 + 1j) * f.values)
    assert inner_l2(scaled, g) == pytest.approx(
        np.conj(2.0 + 1j) * inner_l2(f, g), rel=1e-12)
    assert inner_l2(f, f).real == pytest.approx(norm_l2(f) ** 2, rel=1e-12)


def test_resample_is_the_trigonometric_interpolant():
    # an even grid (N = 4, m_x = 4): its Nyquist mode cos(pi x m_x) must
    # interpolate as a cosine, not twice one
    x = grid_points(4, 4)
    coarse = GridFunction(4, np.column_stack(
        [np.cos(np.pi * 4 * x), np.sin(2 * np.pi * x / 4)]))
    fine = resample(coarse, 9)
    xf = grid_points(4, 9)
    want = np.column_stack([np.cos(np.pi * 4 * xf), np.sin(2 * np.pi * xf / 4)])
    np.testing.assert_allclose(fine.values, want, atol=1e-13)
