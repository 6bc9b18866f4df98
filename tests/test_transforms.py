"""Transform pair, summability, mollification, duality, and modulation."""

import math
import weakref
from functools import partial
from typing import Callable

import numpy as np
import pytest

from heatline.catalog import (
    bump_fn,
    bump_pair_fn,
    constant_fn,
    gauss_fn,
    unit_gaussian,
    weierstrass_fn,
    zero_fn,
)
from heatline.kernels import KernelScale, gauss, weierstrass, weierstrass_peak
from heatline.measures import Atom, BoundedMeasure
from heatline.quadrature import (
    _TINY,
    BoundedOnly,
    GaussianDecay,
    GridSpec,
    QuadratureError,
    TestFunction,
    _Integrand,
    integrate_auto,
    integrate_values,
    l1_norm,
)
from heatline.transforms import (
    _FREQ_CUTOFF,
    Spectrum,
    fourier,
    fourier_complex,
    fourier_profile,
    gauss_inversion,
    gauss_inversion_ladder,
    gauss_mean,
    invert_spectrum,
    mollify,
    mollify_l1_check,
    mollify_ladder,
    modulate,
    multiplication_formula_check,
    sampled_spectrum,
)

W_015_AT_0 = 0.7283656203947194  # (0.6 pi)^(-1/2)
W_01_AT_0 = 0.8920620580763856  # (0.4 pi)^(-1/2)


def weierstrass_oracle(alpha: float, x: float) -> float:
    """Independent closed form for the 1-d Weierstrass kernel."""
    return (4.0 * math.pi * alpha) ** -0.5 * math.exp(-x * x / (4.0 * alpha))


class TestFourierPair:
    def test_gauss_transforms_to_weierstrass(self):
        scale = KernelScale(0.1, 1)
        value = fourier(gauss_fn(0.1), [0.5], 1e-8)
        assert abs(value - weierstrass(scale, 0.5)) < 1e-8

    def test_weierstrass_transforms_to_gauss(self):
        scale = KernelScale(0.1, 1)
        value = fourier(weierstrass_fn(0.1), [0.5], 1e-8)
        assert abs(value - gauss(scale, 0.5)) < 1e-8

    def test_zero_frequency_is_the_integral(self):
        f = bump_pair_fn()
        base, _ = integrate_auto(f, 1e-9)
        assert abs(fourier(f, [0.0], 1e-9) - base.value) < 1e-9

    def test_inverse_pair(self):
        scale = KernelScale(0.1, 1)
        [to_weierstrass] = fourier_profile(gauss_fn(0.1), [0.7], 1e-8, inverse=True)
        [to_gauss] = fourier_profile(weierstrass_fn(0.1), [0.7], 1e-8, inverse=True)
        assert abs(to_weierstrass.value - weierstrass(scale, 0.7)) < 1e-8
        assert abs(to_gauss.value - gauss(scale, 0.7)) < 1e-8

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
    def test_pair_identity_on_a_frequency_grid(self, alpha):
        scale = KernelScale(alpha, 1)
        xi = np.linspace(-2.0, 2.0, 41)
        for source, expected in (
            (gauss_fn(alpha), lambda p: weierstrass(scale, p)),
            (weierstrass_fn(alpha), lambda p: gauss(scale, p)),
        ):
            for inverse in (False, True):
                samples = fourier_profile(source, xi, 2.5e-7, inverse=inverse)
                worst = max(
                    abs(s.value - expected(np.asarray(s.xi))) for s in samples
                )
                assert worst <= 1e-6

    def test_round_trip_through_the_closed_form(self):
        # sampled transform of W_beta, inverted pointwise, lands back on W_beta
        beta = 0.1
        xs = [0.0, 0.4, 1.0]
        ghat = gauss_fn(beta)  # the transform of W_beta in closed form
        for x in xs:
            [back] = fourier_profile(ghat, [x], 1e-8, inverse=True)
            assert abs(back.value - weierstrass_oracle(beta, x)) < 1e-7

    def test_sup_bound(self):
        for f in (gauss_fn(0.1), bump_pair_fn()):
            cap = l1_norm(f, 1e-9).value.real + 1e-6
            for s in fourier_profile(f, np.linspace(-3.0, 3.0, 25), 1e-7):
                assert abs(s.value) <= cap

    def test_inverse_at_the_origin_is_the_integral(self):
        f = bump_pair_fn()
        base, _ = integrate_auto(f, 1e-9)
        [origin] = fourier_profile(f, [0.0], 1e-9, inverse=True)
        assert abs(origin.value - base.value) < 1e-9

    def test_sampled_modulus_of_continuity_shrinks(self):
        # a diagnostic stand-in for uniform continuity of the transform:
        # the largest jump between neighbouring samples shrinks with the gap
        f = gauss_fn(0.1)
        jumps = []
        for step in (0.2, 0.1, 0.05):
            xi = np.arange(-2.0, 2.0 + step / 2.0, step)
            values = np.array([s.value for s in fourier_profile(f, xi, 1e-8)])
            jumps.append(float(np.max(np.abs(np.diff(values)))))
        assert jumps[2] < jumps[1] < jumps[0]

    def test_transform_needs_integrability(self):
        with pytest.raises(QuadratureError, match="integrable"):
            fourier(constant_fn(1.0), [0.5])


class TestFourierComplex:
    def test_purely_imaginary_frequency(self):
        value = fourier_complex(gauss_fn(0.2), np.array([0.3j]), 1e-7)
        assert abs(value - 0.705891901476784) < 1e-6

    def test_matches_the_kernel_at_complex_argument(self):
        scale = KernelScale(0.2, 1)
        xi = np.array([0.4 + 0.25j])
        value = fourier_complex(gauss_fn(0.2), xi, 1e-8)
        expected = weierstrass(scale, xi)
        assert abs(value - expected) < 1e-7

    def test_real_frequency_reduces_to_fourier(self):
        f = gauss_fn(0.3)
        a = fourier_complex(f, np.array([0.8 + 0.0j]), 1e-8)
        b = fourier(f, [0.8], 1e-8)
        assert abs(a - b) < 1e-12

    def test_zero_frequency_is_the_integral(self):
        f = gauss_fn(0.3)
        base, _ = integrate_auto(f, 1e-9)
        assert abs(fourier_complex(f, np.array([0.0j]), 1e-9) - base.value) < 1e-8

    def test_needs_gaussian_envelope(self):
        with pytest.raises(QuadratureError, match="GaussianDecay"):
            fourier_complex(bump_fn(1.0), np.array([0.5j]), 1e-8)


class TestGaussMeans:
    def test_constant_one_gives_the_kernel_mass(self):
        for alpha in (0.05, 0.1, 0.4):
            value = gauss_mean(constant_fn(1.0), alpha, 1e-9)
            assert abs(value - (4.0 * math.pi * alpha) ** -0.5) < 1e-8

    def test_odd_function_has_zero_mean(self):
        f = TestFunction(
            f=lambda pts: pts[:, 0] * np.exp(-np.sum(pts * pts, axis=1)),
            dim=1,
            envelope=GaussianDecay(0.5, 0.61),
            sup_bound=0.43,
        )
        assert abs(gauss_mean(f, 0.2, 1e-9)) < 1e-12

    def test_gauss_factor_means_add_scales(self):
        # the mean of one gauss kernel under another is the combined mass
        beta, alpha = 0.15, 0.1
        value = gauss_mean(gauss_fn(beta), alpha, 1e-9)
        expected = (4.0 * math.pi * (alpha + beta)) ** -0.5
        assert abs(value - expected) < 1e-8


class TestSummability:
    # Gauss means converge to the integral at a known rate (Stein & Weiss 1971, Ch. I):
    # for W_a the mean is (1 + 16 pi^2 alpha a)^(-d/2), so 1 - mean <= (d/2) 16 pi^2 alpha a = 8 pi^2 alpha a d
    @pytest.mark.parametrize("dim", [1, 2])
    def test_integrable_function_is_summable_to_its_integral(self, dim):
        a = 0.1
        f = weierstrass_fn(a, dim)
        for alpha in [0.4 * 2.0**-k for k in range(12)]:
            value = gauss_mean(f, alpha, 1e-8)
            assert abs(value - (1.0 + 16.0 * math.pi**2 * alpha * a) ** (-dim / 2.0)) <= 1e-8
            assert abs(value - 1.0) <= 8.0 * math.pi**2 * alpha * a * dim

    @pytest.mark.parametrize("dim", [1, 2])
    def test_constant_one_diverges(self, dim):
        f, values = constant_fn(1.0, dim), []
        for alpha in [0.4 * 2.0**-k for k in range(6)]:
            values.append(gauss_mean(f, alpha, 1e-8).real)
            assert abs(values[-1] - (4.0 * math.pi * alpha) ** (-dim / 2.0)) <= 1e-8
        # each halving of alpha multiplies the mean by 2^(d/2): no limit
        assert all(later > earlier for earlier, later in zip(values, values[1:]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_function_is_summable_to_zero(self, dim):
        f = zero_fn(dim)
        for alpha in [0.4 * 2.0**-k for k in range(6)]:
            assert gauss_mean(f, alpha, 1e-9) == 0.0


class TestMollify:
    def test_kernel_smoothing_adds_scales(self):
        for x in (0.0, 0.5):
            value = mollify(weierstrass_fn(0.1), 0.05, [x], 1e-8)
            assert abs(value - weierstrass_oracle(0.15, x)) < 1e-7
        assert abs(mollify(weierstrass_fn(0.1), 0.05, [0.0], 1e-8) - W_015_AT_0) < 1e-7

    def test_constants_pass_through_the_unit_mass(self):
        value = mollify(constant_fn(2.5), 0.3, [0.7], 1e-9)
        assert abs(value - 2.5) < 1e-8

    def test_pointwise_convergence_away_from_the_crossing_zone(self):
        f = weierstrass_fn(0.1)
        x = 1.5
        fx = weierstrass_oracle(0.1, x)
        values = mollify_ladder(f, [0.2 * 2.0**-k for k in range(6)], np.array([[x]]), 1e-8)[:, 0]
        errors = [abs(v - fx) for v in values]
        assert all(errors[k + 1] < errors[k] for k in range(len(errors) - 1))

    def test_sup_contraction(self):
        xs = np.linspace(-2.0, 2.0, 41)
        for f in (weierstrass_fn(0.1), bump_pair_fn()):
            worst = max(abs(mollify(f, 0.1, [x], 1e-8)) for x in xs)
            assert worst <= f.sup_bound + 1e-6

    def test_uniform_convergence_on_a_compact_window(self):
        # sup over [-1, 1] of |smoothed - original| shrinks along the ladder
        f = weierstrass_fn(0.1)
        xs = np.linspace(-1.0, 1.0, 21)
        originals = np.array([weierstrass_oracle(0.1, x) for x in xs])
        sups = []
        for alpha in [0.2 * 2.0**-k for k in range(6)]:
            smoothed = np.array([mollify(f, alpha, [x], 1e-8) for x in xs])
            sups.append(float(np.max(np.abs(smoothed - originals))))
        assert all(sups[k + 1] < sups[k] for k in range(len(sups) - 1))

    def test_needs_bounded_or_integrable(self):
        f = TestFunction(
            f=lambda pts: np.cos(pts[:, 0]),
            dim=1,
            envelope=BoundedOnly(1.0),
        )
        with pytest.raises(QuadratureError, match="bounded or integrable"):
            mollify(f, 0.1, [0.0])


class TestL1Contraction:
    def test_unit_mass_kernels_saturate(self):
        report = mollify_l1_check(weierstrass_fn(0.1), 0.1, GridSpec(8.0, 1024, 1))
        assert abs(report.lhs - 1.0) < 1e-6
        assert abs(report.rhs - 1.0) < 1e-6
        assert report.lhs <= report.rhs + 1e-6

    def test_nonnegative_function_conserves_mass(self):
        report = mollify_l1_check(bump_fn(1.0), 0.1, GridSpec(8.0, 1024, 1))
        assert abs(report.lhs - report.rhs) <= report.lhs_error_budget + report.rhs_error_budget

    def test_sign_alternation_strictly_contracts(self):
        report = mollify_l1_check(bump_pair_fn(), 0.1, GridSpec(8.0, 1024, 1))
        assert report.lhs < report.rhs
        assert report.lhs <= report.rhs + 1e-6


class TestGaussInversion:
    def test_semigroup_value(self):
        value = gauss_inversion(weierstrass_fn(0.1), [0.0], 0.05, 2e-7)
        assert abs(value - W_015_AT_0) < 1e-6

    @pytest.mark.parametrize("alpha", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    def test_agrees_with_direct_smoothing(self, alpha, x):
        f = weierstrass_fn(0.1)
        inv = gauss_inversion(f, [x], alpha, 2e-7)
        mol = mollify(f, alpha, [x], 2e-7)
        assert abs(inv - mol) <= 1e-6

    def test_real_even_input_gives_real_output(self):
        value = gauss_inversion(weierstrass_fn(0.1), [0.5], 0.1, 1e-7)
        assert abs(value.imag) < 1e-7

    def test_errors_shrink_along_the_ladder_off_the_crossing_zone(self):
        f = weierstrass_fn(0.1)
        alphas = [0.2 * 2.0**-k for k in range(6)]
        for x in (0.0, 1.0):
            fx = weierstrass_oracle(0.1, x)
            errors = [abs(gauss_inversion(f, [x], a, 2e-7) - fx) for a in alphas]
            assert all(errors[k + 1] <= errors[k] for k in range(len(errors) - 1))

    def test_the_small_alpha_ladder_reaches_k_10(self):
        # from k = 7 the Gauss weight's tail needs a radius above 16 (24 for k = 7, 8 and 48 for k = 9, 10)
        f, tol = weierstrass_fn(0.1), 2.5e-7
        alphas = [0.2 * 2.0**-k for k in range(11)]
        xs = [0.0, 0.5, 1.0]
        ladder = gauss_inversion_ladder(f, alphas, np.array(xs).reshape(-1, 1), tol)
        for j, x in enumerate(xs):
            inv = gauss_inversion_ladder(f, alphas, np.array([[x]]), tol)[:, 0]
            mol = mollify_ladder(f, alphas, np.array([[x]]), tol)[:, 0]
            assert inv.tobytes() == ladder[:, j].tobytes()
            for alpha, v, m in zip(alphas, inv, mol):
                assert abs(v - m) <= 1e-6
                assert abs(v - weierstrass_oracle(0.1 + alpha, x)) <= 1e-6


# points with phase rates far enough apart that their outer walks start on different rungs
BATCH_XS = [-1.0, 0.0, 0.5, 1.2, 3.0]


def counting_spectrum_at(spectrum_at: Callable, blocks: list) -> Callable:
    """spectrum_at for invert_spectrum, recording each (spectrum key, frequency block) its spectra are asked for."""

    def counted(inner_tol, max_freq):
        inner = spectrum_at(inner_tol, max_freq)

        def values(xi_pts):
            blocks.append((inner.key, xi_pts.tobytes()))
            return inner.values(xi_pts)

        return Spectrum(values, inner.bound, inner.rate, inner.key)

    return counted


def reference_inversion(spectrum_at: Callable, x: np.ndarray, alpha: float, tol: float) -> complex:
    """One point's inversion with nothing shared: a fresh spectrum, sampled anew on every block."""
    dim = x.shape[0]
    scale = KernelScale(alpha, dim)
    freq_radius = math.sqrt(math.log(1.0 / _FREQ_CUTOFF) / (4.0 * math.pi**2 * alpha))
    spectrum = spectrum_at(tol / (2.0 * max(1.0, weierstrass_peak(scale))), freq_radius * math.sqrt(dim))

    def fn(xi_pts):
        return spectrum.values(xi_pts) * np.exp(2j * math.pi * (xi_pts @ x)) * gauss(scale, xi_pts)

    envelope = GaussianDecay(4.0 * math.pi**2 * alpha, spectrum.bound * (1.0 + 1e-9) + _TINY)
    rate = float(np.sqrt(np.sum(x * x))) + spectrum.rate
    return integrate_values(_Integrand(fn, envelope, dim, "reference"), tol / 2.0, phase_rate=rate)[0].value


class TestBatchedInversion:
    def test_rows_match_the_unshared_reference(self):
        f = weierstrass_fn(0.1)
        xs = np.array(BATCH_XS).reshape(-1, 1)
        batch = gauss_inversion_ladder(f, [0.1], xs, 2e-7)[0]
        assert list(batch) == [reference_inversion(partial(sampled_spectrum, f), x, 0.1, 2e-7) for x in xs]

    def test_dim_2_rows_match_the_unshared_reference(self):
        # dim-2 blocks are large enough for numpy to multiply a temporary in place
        measure = BoundedMeasure(dim=2, atoms=(Atom((0.0, 0.0), 1.0), Atom((0.7, -0.2), -0.5)))
        xs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.3]])
        batch = measure.gauss_inversion_ladder([0.1], xs, 2.5e-7)[0]
        assert list(batch) == [reference_inversion(measure.spectrum, x, 0.1, 2.5e-7) for x in xs]

    def test_a_large_dim_2_batch_is_the_one_point_calls(self):
        # 34 of these 40 points walk on one 257 x 257 grid: its blocks are sized for one point,
        # as a one-point call's are, not for every point on the grid, which would split it
        measure = BoundedMeasure(dim=2, atoms=(Atom((0.0, 0.0), 1.0), Atom((0.7, -0.2), -0.5)))
        xs = np.random.default_rng(3).uniform(-3.5, 3.5, size=(40, 2))
        batch = measure.gauss_inversion_ladder([0.1], xs, 2.5e-7)[0]
        assert list(batch) == [measure.gauss_inversion_ladder([0.1], x[None], 2.5e-7)[0, 0] for x in xs]

    @pytest.mark.parametrize("f", [weierstrass_fn(0.1), gauss_fn(0.05)], ids=lambda f: f.name)
    def test_each_row_is_the_one_point_call(self, f):
        batch = gauss_inversion_ladder(f, [0.1], BATCH_XS, 2e-7)[0]
        assert batch.shape == (len(BATCH_XS),)
        assert list(batch) == [gauss_inversion(f, [x], 0.1, 2e-7) for x in BATCH_XS]

    def test_a_point_does_not_depend_on_its_batch(self):
        f = weierstrass_fn(0.1)
        full = gauss_inversion_ladder(f, [0.05], BATCH_XS, 2e-7)[0]
        assert list(gauss_inversion_ladder(f, [0.05], BATCH_XS[::-1], 2e-7)[0]) == list(full[::-1])
        assert list(gauss_inversion_ladder(f, [0.05], BATCH_XS[1::2], 2e-7)[0]) == list(full[1::2])

    def test_each_frequency_block_is_sampled_once_per_call(self):
        f = weierstrass_fn(0.1)
        xs = np.array(BATCH_XS).reshape(-1, 1)
        blocks = []
        invert_spectrum(counting_spectrum_at(partial(sampled_spectrum, f), blocks), 1, xs, [0.1], 2e-7, "counted")
        assert len(blocks) == len(set(blocks))
        # the sharing is local to the call: a second call samples every block afresh
        again = []
        invert_spectrum(counting_spectrum_at(partial(sampled_spectrum, f), again), 1, xs, [0.1], 2e-7, "counted")
        assert again == blocks
        # one call per point would sample blocks the points share more than once
        per_point = []
        for x in xs:
            invert_spectrum(counting_spectrum_at(partial(sampled_spectrum, f), per_point), 1, x.reshape(1, 1), [0.1], 2e-7, "counted")
        assert set(per_point) == set(blocks) and len(per_point) > len(blocks)

    def test_a_ladder_samples_each_grid_block_once(self):
        # the default invert spec: its ladder, points and quadrature tolerance
        f = weierstrass_fn(0.1)
        alphas = [0.2 * 2.0**-k for k in range(6)]
        xs = np.array([[0.0], [0.5], [1.0]])
        blocks = []
        invert_spectrum(counting_spectrum_at(partial(sampled_spectrum, f), blocks), 1, xs, alphas, 2.5e-7, "counted")
        assert len(blocks) == len(set(blocks))
        # one call per alpha samples again the blocks that alphas on one x-grid share
        per_alpha = []
        for alpha in alphas:
            invert_spectrum(counting_spectrum_at(partial(sampled_spectrum, f), per_alpha), 1, xs, [alpha], 2.5e-7, "counted")
        assert set(per_alpha) == set(blocks) and len(blocks) < len(per_alpha)

    def test_spectrum_values_live_for_one_block_only(self):
        # the default invert spec, whose walks sum on several rungs: the values of a
        # frequency block are dropped once that block is summed, not kept to the end
        f = weierstrass_fn(0.1)
        alphas = [0.2 * 2.0**-k for k in range(6)]
        blocks, alive, most = [], [0], [0]

        def tracked(inner_tol, max_freq):
            counted = counting_spectrum_at(partial(sampled_spectrum, f), blocks)(inner_tol, max_freq)

            def values(xi_pts):
                out = counted.values(xi_pts)
                alive[0] += 1
                most[0] = max(most[0], alive[0])
                weakref.finalize(out, lambda: alive.__setitem__(0, alive[0] - 1))
                return out

            return Spectrum(values, counted.bound, counted.rate, counted.key)

        invert_spectrum(tracked, 1, [[0.0], [0.5], [1.0]], alphas, 2.5e-7, "tracked")
        keys_by_block = {}
        for key, block in blocks:
            keys_by_block.setdefault(block, set()).add(key)
        assert len(keys_by_block) > 1
        assert most[0] <= max(len(keys) for keys in keys_by_block.values())
        assert alive[0] == 0

    @pytest.mark.parametrize(
        "dim, source, alphas, tol",
        [
            (1, "function", [0.2, 0.15, 0.1, 0.0125], 2e-7),
            (1, "measure", [0.4, 0.3, 0.1, 0.0125], 2e-7),
            # within the matrix budget every dim-2 alpha samples on the same x-grid
            (2, "function", [2.0, 0.6], 1e-3),
            (2, "measure", [2.0, 0.6], 1e-3),
        ],
    )
    def test_each_ladder_row_is_the_one_alpha_call(self, dim, source, alphas, tol):
        xs = np.zeros((2, dim))
        xs[:, 0] = [0.0, 0.7]
        if source == "function":
            f = gauss_fn(0.1, dim) if dim > 1 else weierstrass_fn(0.1)
            spectrum_at, ladder = partial(sampled_spectrum, f), partial(gauss_inversion_ladder, f)
        else:
            atoms = (Atom((0.3,) + (0.0,) * (dim - 1), 1.0), Atom((-0.5,) + (0.2,) * (dim - 1), -0.4 + 0.2j))
            measure = BoundedMeasure(dim=dim, atoms=atoms, density=gauss_fn(0.1, dim))
            spectrum_at, ladder = measure.spectrum, measure.gauss_inversion_ladder
        # the ladder, recording the spectrum key (the x-grid) of each frequency block it samples
        blocks = []
        rows = invert_spectrum(counting_spectrum_at(spectrum_at, blocks), dim, xs, alphas, tol, source)
        assert rows.shape == (len(alphas), 2)
        assert len(blocks) == len(set(blocks))
        keys = {key for key, _ in blocks}
        assert len(keys) < len(alphas)  # some alphas share an x-grid
        if dim == 1:
            assert len(keys) > 2  # and others sample on different x-grids
            # two alphas meet the same outer block on different x-grids: each samples its own spectrum there
            by_block = {}
            for key, block in blocks:
                by_block.setdefault(block, set()).add(key)
            assert any(len(block_keys) > 1 for block_keys in by_block.values())
            assert ladder(alphas, xs, tol).tobytes() == rows.tobytes()
        for alpha, row in zip(alphas, rows):
            assert row.tobytes() == ladder([alpha], xs, tol)[0].tobytes()

    @pytest.mark.parametrize(
        "xs", [[], np.zeros((0, 1)), [[0.0, 1.0]], [[[0.0]]], [0.0, math.nan], [[math.inf]]],
        ids=["empty-list", "empty-array", "wrong-dim", "3-d", "nan", "inf"],
    )
    def test_a_malformed_batch_is_refused(self, xs):
        with pytest.raises(ValueError, match=r"shape \(k, 1\)"):
            gauss_inversion_ladder(weierstrass_fn(0.1), [0.1], xs)

    def test_a_dim_2_batch_needs_two_columns(self):
        f = gauss_fn(0.1, dim=2)
        with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
            gauss_inversion_ladder(f, [0.1], np.zeros((3, 1)))


class TestMultiplicationFormula:
    def test_balanced_scales(self):
        a = 1.0 / (4.0 * math.pi)
        report = multiplication_formula_check(gauss_fn(a), gauss_fn(a), 2.5e-7)
        closed = 2.0**-0.5
        assert abs(report.lhs - closed) < 1e-6
        assert abs(report.rhs - closed) < 1e-6

    def test_unbalanced_scales(self):
        report = multiplication_formula_check(gauss_fn(0.05), gauss_fn(0.2), 2.5e-7)
        closed = 0.6226769922994998  # (1 + 16 pi^2 * 0.05 * 0.2)^(-1/2)
        assert abs(report.lhs - closed) < 1e-6
        assert abs(report.rhs - closed) < 1e-6

    def test_swapping_the_roles_is_symmetric(self):
        fwd = multiplication_formula_check(gauss_fn(0.05), gauss_fn(0.2), 2.5e-7)
        rev = multiplication_formula_check(gauss_fn(0.2), gauss_fn(0.05), 2.5e-7)
        assert abs(fwd.lhs - rev.lhs) < 2e-6

    def test_zero_input(self):
        report = multiplication_formula_check(zero_fn(), gauss_fn(0.1), 1e-7)
        assert abs(report.lhs) < 1e-9
        assert abs(report.rhs) < 1e-9

    def test_compact_weight_is_accepted(self):
        report = multiplication_formula_check(gauss_fn(0.1), bump_fn(1.0), 1e-6)
        assert abs(report.lhs - report.rhs) < 2e-6


class TestModulate:
    def test_zero_shift_is_plain_transform(self):
        h = gauss_fn(0.1)
        assert abs(modulate(h, [0.0], [0.6], 1e-8) - fourier(h, [0.6], 1e-8)) < 1e-12

    def test_shift_onto_the_peak(self):
        value = modulate(gauss_fn(0.1), [0.3], [0.3], 1e-8)
        assert abs(value - W_01_AT_0) < 1e-7

    def test_matches_the_shifted_closed_form(self):
        scale = KernelScale(0.1, 1)
        value = modulate(gauss_fn(0.1), [0.4], [-0.2], 1e-8)
        assert abs(value - weierstrass(scale, -0.6)) < 1e-7

    def test_residual_grid(self):
        h = gauss_fn(0.1)
        for a in (-0.5, 0.0, 0.5):
            for eta in (-0.5, 0.0, 0.5):
                direct = modulate(h, [a], [eta], 5e-7)
                shifted = fourier(h, [eta - a], 5e-7)
                assert abs(direct - shifted) <= 2e-6


def test_unit_gaussian_is_its_own_transform_shape():
    # exp(-pi x^2) pairs with scale 1/(4 pi): its transform is itself
    f = unit_gaussian(1)
    for xi in (0.0, 0.5, 1.2):
        value = fourier(f, [xi], 1e-8)
        assert abs(value - math.exp(-math.pi * xi * xi)) < 1e-7
