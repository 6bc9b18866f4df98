"""Closed-form kernel evaluation on real and complex arguments."""

import math

import numpy as np
import pytest

from heatline.kernels import KernelScale, gauss, weierstrass, weierstrass_peak


def gauss_product_scale(a: KernelScale, b: KernelScale) -> KernelScale:
    """Scale of the pointwise product of two Gauss kernels (exponents add)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return KernelScale(a.alpha + b.alpha, a.dim)


class TestKernelScale:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(ValueError):
            KernelScale(alpha)

    @pytest.mark.parametrize("dim", [0, -1, 1.5])
    def test_rejects_bad_dimension(self, dim):
        with pytest.raises(ValueError):
            KernelScale(0.1, dim)


class TestGauss:
    def test_value_at_origin_is_one(self):
        for alpha in (0.01, 0.1, 1.0, 7.0):
            assert gauss(KernelScale(alpha), 0.0) == 1.0

    def test_exponent_reduces_at_special_scale(self):
        # alpha = 1/(4 pi^2) turns the exponent into -x.x
        value = gauss(KernelScale(1.0 / (4.0 * math.pi**2)), 1.0)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_growth_on_imaginary_axis(self):
        value = gauss(KernelScale(1.0), np.array([1j]))
        assert value == pytest.approx(math.exp(4.0 * math.pi**2), rel=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gauss(KernelScale(0.1, 2), np.array([1.0]))


class TestWeierstrass:
    def test_unit_prefactor_scale(self):
        assert weierstrass(KernelScale(1.0 / (4.0 * math.pi)), 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_prefactor_at_fixed_scale(self):
        # (4 pi 0.15)^(-1/2) = (0.6 pi)^(-1/2)
        value = weierstrass(KernelScale(0.15), 0.0)
        assert value == pytest.approx(0.7283656203947194, rel=1e-14)

    def test_two_dimensional_prefactor(self):
        for alpha in (0.05, 0.3):
            value = weierstrass(KernelScale(alpha, 2), np.zeros(2))
            assert value == pytest.approx(1.0 / (4.0 * math.pi * alpha), rel=1e-14)
        assert weierstrass_peak(KernelScale(0.3, 2)) == pytest.approx(
            1.0 / (4.0 * math.pi * 0.3), rel=1e-14
        )


class TestProductScale:
    def test_scales_add(self):
        combined = gauss_product_scale(KernelScale(1.0), KernelScale(2.0))
        assert combined.alpha == 3.0

    def test_doubling(self):
        combined = gauss_product_scale(KernelScale(0.4), KernelScale(0.4))
        assert combined.alpha == pytest.approx(0.8, rel=0.0)

    def test_pointwise_product_law(self):
        a, b = KernelScale(1.0), KernelScale(2.0)
        combined = gauss_product_scale(a, b)
        x = np.array([0.7])
        lhs = gauss(a, x) * gauss(b, x)
        np.testing.assert_allclose(lhs, gauss(combined, x), rtol=1e-14)
        assert gauss(a, 0.0) * gauss(b, 0.0) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gauss_product_scale(KernelScale(1.0, 1), KernelScale(1.0, 2))


class TestKernelProperties:
    def test_positivity_and_range(self):
        # moderate arguments, where the exponents stay clear of underflow
        rng = np.random.default_rng(42)
        for dim in (1, 2, 3):
            pts = rng.uniform(-2.0, 2.0, size=(500, dim))
            for alpha in (0.05, 0.2, 0.5):
                scale = KernelScale(alpha, dim)
                gv = gauss(scale, pts)
                wv = weierstrass(scale, pts)
                assert np.all(wv > 0.0)
                assert np.all(gv > 0.0) and np.all(gv <= 1.0)
                nonzero = np.any(pts != 0.0, axis=1)
                assert np.all(gv[nonzero] < 1.0)

    def test_wide_range_values_stay_in_the_closed_interval(self):
        rng = np.random.default_rng(43)
        pts = rng.uniform(-8.0, 8.0, size=(500, 3))
        for alpha in (0.05, 2.0):
            gv = gauss(KernelScale(alpha, 3), pts)
            assert np.all(gv >= 0.0) and np.all(gv <= 1.0)

    def test_both_kernels_are_even(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5.0, 5.0, size=(200, 2))
        scale = KernelScale(0.2, 2)
        np.testing.assert_array_equal(gauss(scale, pts), gauss(scale, -pts))
        np.testing.assert_array_equal(weierstrass(scale, pts), weierstrass(scale, -pts))

    def test_rescaling_consistency(self):
        # exponents kept below ~40 so 1e-14 relative agreement is meaningful
        # in double precision (the error scales with the exponent magnitude)
        rng = np.random.default_rng(11)
        xs = rng.uniform(-1.0, 1.0, size=(300, 1))
        for alpha in (0.05, 0.3, 1.0):
            lhs = gauss(KernelScale(alpha), xs)
            rhs = gauss(KernelScale(1.0), math.sqrt(alpha) * xs)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    def test_imaginary_argument_flips_the_exponent_sign(self):
        rng = np.random.default_rng(13)
        us = rng.uniform(-1.5, 1.5, size=50)
        for alpha in (0.1, 0.6):
            scale = KernelScale(alpha)
            values = gauss(scale, (1j * us).reshape(-1, 1))
            expected = np.exp(4.0 * math.pi**2 * alpha * us * us)
            np.testing.assert_allclose(values, expected, rtol=1e-13)

    def test_underflow_flushes_to_zero(self):
        assert weierstrass(KernelScale(0.01), 100.0) == 0.0
