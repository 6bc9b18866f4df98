"""Bilinear dot product, modulus, and the elementary inequalities."""

import math

import numpy as np
import pytest

from heatline.points import check_inequalities, cis, dot, modulus


def test_cis_is_the_complex_exponential_of_a_real_phase():
    theta = 2.0 * math.pi * np.multiply.outer(np.linspace(-16.0, 16.0, 257), np.array([-1.3, -0.0, 0.0, 0.7]))
    got = cis(theta)
    assert got.shape == theta.shape and got.dtype == np.complex128
    assert np.max(np.abs(got - np.exp(1j * theta))) <= 1e-15
    assert cis(0.0) == 1.0


def test_dot_orthogonal_axes():
    assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_dot_is_bilinear_not_hermitian():
    # i . i = -1 under the bilinear pairing; a Hermitian form would give +1
    assert dot([1j], [1j]) == -1.0 + 0.0j


def test_dot_hand_sum():
    assert dot([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]) == 32.0


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot([1.0, 2.0], [1.0, 2.0, 3.0])


def test_dot_of_empty_points_is_zero():
    assert dot([], []) == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("complex_z", [False, True])
@pytest.mark.parametrize(
    "z_shape, w_shape",
    [((500,), (500,)), ((500,), ()), ((), ()), ((7, 1), (1, 5)), ((), (50,))],
)
def test_dot_matches_the_numpy_reduce_bit_for_bit(dim, complex_z, z_shape, w_shape):
    rng = np.random.default_rng(dim)
    z = rng.standard_normal((*z_shape, dim))
    if complex_z:
        z = z + 1j * rng.standard_normal(z.shape)
    # magnitudes over 16 decades, and signed zeros, so rounding order shows
    w = rng.standard_normal((*w_shape, dim)) * 10.0 ** rng.integers(-8, 8, size=(*w_shape, dim))
    w.reshape(-1)[::7] = -0.0
    for a, b in [(z, w), (np.asfortranarray(z), w), (-0.0 * z, w)]:
        got = dot(a, b)
        assert np.array_equal(got, np.sum(a * b, axis=-1))
        assert np.shape(got) == np.broadcast_shapes(z_shape, w_shape)
        assert np.array_equal(np.signbit(np.real(got)), np.signbit(np.real(np.sum(a * b, axis=-1))))


def test_dot_in_higher_dimension_matches_the_numpy_reduce():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((500, 6)) + 1j * rng.standard_normal((500, 6))
    w = rng.standard_normal((500, 6))
    assert np.allclose(dot(z, w), np.sum(z * w, axis=-1), rtol=1e-14, atol=0.0)


def test_modulus_zero_vector():
    assert modulus([0.0, 0.0, 0.0]) == 0.0


def test_modulus_pythagorean_triple():
    assert modulus([3.0, 4.0]) == pytest.approx(5.0, abs=0.0)


def test_modulus_complex_coordinates():
    assert modulus([1j, 1.0]) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_check_inequalities_collinear_equality():
    report = check_inequalities([1.0, 0.0], [1.0, 0.0])
    assert report.cs_slack == 0.0
    assert report.tri_slack == 0.0


def test_check_inequalities_orthogonal_pair():
    report = check_inequalities([1.0, 0.0], [0.0, 1.0])
    assert report.cs_slack == pytest.approx(1.0, abs=1e-15)
    assert report.tri_slack == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)


def test_check_inequalities_dimension_mismatch():
    with pytest.raises(ValueError):
        check_inequalities([1.0], [1.0, 2.0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_inequality_slacks_nonnegative_at_scale(dim):
    rng = np.random.default_rng(1234 + dim)
    for _ in range(10_000 // dim):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        report = check_inequalities(z, w)
        assert report.cs_slack >= -1e-12 * modulus(z) * modulus(w)
        assert report.tri_slack >= -1e-12 * (modulus(z) + modulus(w))


def test_scalar_modulus_is_multiplicative():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        z = complex(rng.standard_normal(), rng.standard_normal())
        w = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(abs(z * w), abs(z) * abs(w), rtol=1e-12)
        np.testing.assert_allclose(
            modulus([z * w]), modulus([z]) * modulus([w]), rtol=1e-12
        )


def test_conjugation_distributes_exactly_over_sum_and_product():
    # exact integer components keep the arithmetic exact
    cases = [(3 + 4j, 1 - 2j), (0 + 1j, 0 - 1j), (5 + 0j, -2 + 7j)]
    for z, w in cases:
        assert (z + w).conjugate() == z.conjugate() + w.conjugate()
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()


def test_conjugation_is_an_involution():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert z.conjugate().conjugate() == z


def test_modulus_squared_matches_self_pairing():
    rng = np.random.default_rng(9)
    for _ in range(500):
        z = rng.standard_normal(3)
        np.testing.assert_allclose(modulus(z) ** 2, dot(z, z), rtol=1e-12)
