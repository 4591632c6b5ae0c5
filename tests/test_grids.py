"""Grid samples, their interpolant, the discrete Bloch transform, and norms."""

import tracemalloc

import numpy as np
import pytest

from wavetrain.grids import (
    GridFunction,
    bloch_inverse,
    bloch_transform,
    cell_modes,
    derivative_values,
    frequency_lattice,
    from_profile,
    grid_points,
    norm_h,
    norm_l1,
    norm_l2,
    norm_linf,
    quadrature_samples,
    resample,
)

TWO_PI = 2.0 * np.pi


def random_samples(n_period, m_x, n_components, rng, complex_valued=False):
    shape = (n_period * m_x, n_components)
    vals = rng.standard_normal(shape)
    if complex_valued:
        vals = vals + 1j * rng.standard_normal(shape)
    return vals


def per_frequency_samples(coeffs):
    """Samples of each (Bg)(xi_j, .) on the unit-cell grid."""
    return np.fft.ifft(coeffs * coeffs.shape[1], axis=1)


@pytest.mark.parametrize("n_period", [1, 3, 8, 17])
@pytest.mark.parametrize("complex_valued", [False, True])
def test_bloch_round_trip_is_exact(n_period, complex_valued, rng):
    vals = random_samples(n_period, 9, 2, rng, complex_valued)
    back = bloch_inverse(bloch_transform(vals, n_period))
    if not complex_valued:
        back = back.real
    err = norm_linf(np.abs(back - vals), n_period)
    assert err <= 1e-12 * norm_linf(vals, n_period)


@pytest.mark.parametrize("n_period", [1, 3, 8, 17])
def test_parseval_identity(n_period, rng):
    vals = random_samples(n_period, 9, 2, rng, complex_valued=True)
    coeffs = bloch_transform(vals, n_period)
    lhs = norm_l2(vals, n_period) ** 2
    rhs = float(np.sum(np.abs(coeffs) ** 2, axis=(1, 2)).sum()) / n_period
    assert abs(lhs - rhs) <= 1e-12 * lhs


@pytest.mark.parametrize("n_period", [1, 3, 8, 17])
def test_multiplication_by_cell_periodic_factor_acts_per_frequency(n_period, rng):
    # A 1-periodic factor passes through the transform pointwise in x.
    m_x = 9
    vals = random_samples(n_period, m_x, 2, rng)
    cell_factor = rng.standard_normal(m_x)
    product = vals * np.tile(cell_factor, n_period)[:, None]
    lhs = per_frequency_samples(bloch_transform(product, n_period))
    rhs = cell_factor[None, :, None] * per_frequency_samples(
        bloch_transform(vals, n_period))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_unit_cell_harmonic_lands_in_the_zero_frequency_slot():
    # e^{2 pi i x} is 1-periodic: frequency 0, cell mode l = 1, weight N.
    n_period, m_x = 8, 9
    x = grid_points(n_period, m_x)
    coeffs = bloch_transform(np.exp(1j * TWO_PI * x)[:, None], n_period)
    slot_l = list(cell_modes(m_x)).index(1)
    expected = np.zeros_like(coeffs)
    expected[0, slot_l, 0] = n_period
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_longest_wavelength_harmonic_lands_in_the_first_frequency_slot():
    n_period, m_x = 8, 9
    x = grid_points(n_period, m_x)
    coeffs = bloch_transform(np.exp(1j * TWO_PI * x / n_period)[:, None],
                             n_period)
    expected = np.zeros_like(coeffs)
    expected[1, 0, 0] = n_period
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_single_slot_impulse_synthesizes_a_pure_mode():
    n_period, m_x = 5, 9
    j, slot_l = 2, 3
    coeffs = np.zeros((n_period, m_x, 1), dtype=complex)
    coeffs[j, slot_l, 0] = n_period
    values = bloch_inverse(coeffs)
    omega = frequency_lattice(n_period)[j] + TWO_PI * cell_modes(m_x)[slot_l]
    expected = np.exp(1j * omega * grid_points(n_period, m_x))
    np.testing.assert_allclose(values[:, 0], expected, atol=1e-12)


def test_distinct_frequencies_are_orthogonal(rng):
    n_period, m_x = 8, 9
    vals = random_samples(n_period, m_x, 1, rng)
    coeffs = bloch_transform(vals, n_period)
    # Zero out everything except one frequency, invert, and check the
    # result is orthogonal to the complementary reconstruction.
    keep = coeffs.copy()
    keep[1:] = 0.0
    rest = coeffs.copy()
    rest[0] = 0.0
    f, g = bloch_inverse(keep).real, bloch_inverse(rest).real
    ip = np.vdot(f, g) / m_x
    assert abs(ip) <= 1e-12


def test_zero_coefficients_invert_to_zero():
    values = bloch_inverse(np.zeros((4, 9, 2), dtype=complex))
    assert values.shape == (36, 2)
    assert np.all(values == 0.0)


def test_bloch_transform_takes_stacks_bit_for_bit(rng):
    # a (T, P, n) stack transforms and inverts each (P, n) slice on its own,
    # bit for bit as that slice alone
    n_period, m_x = 6, 9
    stack = rng.standard_normal((3, n_period * m_x, 2))
    coeffs = bloch_transform(stack, n_period)
    assert coeffs.shape == (3, n_period, m_x, 2)
    back = bloch_inverse(coeffs)
    for vals, want, want_back in zip(stack, coeffs, back):
        assert np.array_equal(bloch_transform(vals, n_period), want)
        assert np.array_equal(bloch_inverse(want), want_back)
    with pytest.raises(ValueError, match="divide"):
        bloch_transform(stack[:, :-1], n_period)


def test_interp_reproduces_grid_samples(rng):
    gf = GridFunction(4, random_samples(4, 9, 2, rng))
    x = grid_points(4, 9)
    np.testing.assert_allclose(gf.interp(x), gf.values, atol=1e-12)
    # periodic extension
    np.testing.assert_allclose(gf.interp(x + 4.0), gf.values, atol=1e-11)


def resolved_grid_function(n_period, m_x, rng, complex_valued):
    """Random two-component field whose spectrum decays to rounding at P/2."""
    P = n_period * m_x
    m = np.fft.fftfreq(P, d=1.0 / P)
    spec = (rng.standard_normal((P, 2)) + 1j * rng.standard_normal((P, 2))) \
        * np.exp(-36.0 * np.abs(m) / P)[:, None]
    vals = np.fft.ifft(spec, axis=0) * P
    return GridFunction(n_period, vals if complex_valued else vals.real)


def long_double_interp(gf, points):
    """The interpolating sum evaluated term by term in extended precision."""
    P = gf.n_points
    coeffs = np.fft.fft(gf.values, axis=0).astype(np.clongdouble) / P
    two_pi = 2 * np.longdouble("3.14159265358979323846264338327950288")
    omega = two_pi * np.fft.fftfreq(P, d=1.0 / P).astype(np.longdouble) \
        / gf.n_period
    arg = np.multiply.outer(np.asarray(points, dtype=np.longdouble), omega)
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
    got = gf.interp(points)
    assert got.shape == (points.size, 2)
    assert np.iscomplexobj(got) == complex_valued
    err = np.max(np.abs(got - long_double_interp(gf, points)))
    assert err <= 3e-14 * np.max(np.abs(gf.values))


def test_interp_of_a_scalar_point_is_one_row(rng):
    gf = resolved_grid_function(16, 65, rng, False)
    got = gf.interp(0.3)
    assert got.shape == (1, 2)
    np.testing.assert_array_equal(got, gf.interp(np.array([0.3])))


def test_interp_memory_grows_slower_than_the_dense_table(rng):
    gf = resolved_grid_function(64, 65, rng, False)
    x = grid_points(64, 65)
    points = x + 0.01 * np.sin(x)
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
    one = np.ones((n_period * m_x, 1))
    assert norm_l2(one, n_period) == pytest.approx(np.sqrt(n_period), rel=1e-14)
    assert norm_l1(one, n_period) == pytest.approx(n_period, rel=1e-14)
    assert norm_linf(one, n_period) == 1.0
    assert norm_h(one, n_period, 0) == pytest.approx(norm_l2(one, n_period),
                                                     rel=1e-13)
    assert norm_h(one, n_period, 3) == pytest.approx(norm_l2(one, n_period),
                                                     rel=1e-13)


def test_norms_take_stacks_bit_for_bit(rng):
    # a (T, P, n) stack gives each (P, n) slice the bits of the slice alone:
    # a float for one field, a (T,) array for the stack
    n_period, m_x = 6, 9
    stack = rng.standard_normal((5, n_period * m_x, 2))
    stack[:, :, 1] *= 1e-3
    for norm in (norm_l2, norm_l1, norm_linf,
                 lambda v, n: norm_h(v, n, 3)):
        got = norm(stack, n_period)
        assert got.shape == (5,)
        for vals, want in zip(stack, got):
            one = norm(vals, n_period)
            assert isinstance(one, float)
            assert one == want
    # strided views (a real part, a trailing axis) read as their copies
    psi = derivative_values(stack[:, :, :1], n_period)
    assert np.array_equal(norm_h(psi, n_period, 4),
                          norm_h(np.ascontiguousarray(psi), n_period, 4))


def test_sobolev_norm_weights_a_single_mode():
    n_period, m_x = 4, 16
    x = grid_points(n_period, m_x)
    wave = np.cos(TWO_PI * x / n_period)[:, None]
    omega = TWO_PI / n_period
    expected = np.sqrt(n_period / 2.0) * (1.0 + omega ** 2) ** 1.0
    assert norm_h(wave, n_period, 2) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("m_x", [9, 16])
def test_half_spectrum_reads_every_mode_pair(m_x, rng):
    # the rfft half with pair weights gives the full complex spectrum's
    # H^s norm and derivative, on odd P and on even P with its Nyquist mode
    n_period = 4
    P = n_period * m_x
    vals = rng.standard_normal((P, 2))
    c = np.fft.fft(vals, axis=0)
    omega = TWO_PI * np.fft.fftfreq(P, d=1.0 / P) / n_period
    want = np.sqrt(np.sum((1.0 + omega[:, None] ** 2) ** 3 * np.abs(c / P) ** 2)
                   * n_period)
    assert norm_h(vals, n_period, 3) == pytest.approx(want, rel=1e-13)
    deriv = np.fft.ifft(1j * omega[:, None] * c, axis=0).real
    np.testing.assert_allclose(derivative_values(vals, n_period), deriv,
                               rtol=0, atol=1e-12 * np.max(np.abs(deriv)))


def test_sobolev_norm_of_a_stack_makes_no_complex_copy(rng):
    # the reference run's (T, P, n) snapshot stack: a complex FFT of the
    # whole stack alone peaks at 4 times its bytes
    stack = rng.standard_normal((75, 272, 2))
    tracemalloc.start()
    try:
        norm_h(stack, 16, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * stack.nbytes


def test_spectral_derivative_of_a_harmonic():
    n_period, m_x = 4, 16
    x = grid_points(n_period, m_x)
    dwave = derivative_values(np.sin(TWO_PI * x / n_period)[:, None], n_period)
    omega = TWO_PI / n_period
    expected = omega * np.cos(omega * grid_points(n_period, m_x))
    np.testing.assert_allclose(dwave[:, 0], expected, atol=1e-12)
    d2 = derivative_values(dwave, n_period)
    np.testing.assert_allclose(d2[:, 0], -omega ** 2 * np.sin(
        omega * grid_points(n_period, m_x)), atol=1e-12)
    # a (T, P, n) stack differentiates each (P, n) slice on its own, bit
    # for bit as that slice alone
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((3, n_period * m_x, 2))
    got = derivative_values(stack, n_period)
    for vals, want in zip(stack, got):
        assert np.array_equal(derivative_values(vals, n_period), want)


def test_from_profile_tiles_one_cell_exactly(rgl_profile):
    vals = from_profile(rgl_profile, 3, 96)
    cell = vals[:96]
    np.testing.assert_array_equal(vals[96:192], cell)
    np.testing.assert_array_equal(vals[192:], cell)
    direct = rgl_profile(grid_points(3, 96))
    np.testing.assert_allclose(vals, direct, atol=1e-12)


@pytest.mark.parametrize("shift", [-1.3, 0.4, 17.25])
def test_from_profile_samples_the_shifted_wave(rgl_profile, shift):
    from wavetrain.fourier import synth
    got = from_profile(rgl_profile, 3, 65, shift)
    direct = synth(rgl_profile.coeffs, grid_points(3, 65) + shift)
    assert got.shape == (3 * 65, 2)
    np.testing.assert_allclose(got, direct, rtol=0, atol=1e-13)


def test_from_profile_rejects_coarse_grids(rgl_profile):
    # below 2M + 1 = 9, the modes of rgl's Hill truncation M = 4
    with pytest.raises(ValueError, match="modes"):
        from_profile(rgl_profile, 2, 7)


def test_resample_is_the_trigonometric_interpolant():
    # an even grid (N = 4, m_x = 4): its Nyquist mode cos(pi x m_x) must
    # interpolate as a cosine, not twice one
    x = grid_points(4, 4)
    coarse = np.column_stack(
        [np.cos(np.pi * 4 * x), np.sin(2 * np.pi * x / 4)])
    fine = resample(coarse, 4, 9)
    xf = grid_points(4, 9)
    want = np.column_stack([np.cos(np.pi * 4 * xf), np.sin(2 * np.pi * xf / 4)])
    np.testing.assert_allclose(fine, want, atol=1e-13)
    # a stack resamples slice by slice, and the quadrature grid of a band
    # is the fewest odd points per cell >= PERTURBATION_QUADRATURE
    stack = np.stack([coarse, 2.0 * coarse])
    np.testing.assert_array_equal(resample(stack, 4, 9)[1],
                                  resample(2.0 * coarse, 4, 9))
    assert quadrature_samples(coarse, 4, band=6).shape == (4 * 65, 2)
