"""Certified quadrature: tail bounds, Simpson grids, and the auto ladder."""

import itertools
import math

import numpy as np
import pytest

from heatline.catalog import bump_fn, constant_fn, gauss_fn, unit_gaussian, weierstrass_fn
from heatline import quadrature
from heatline.kernels import KernelScale, gauss, weierstrass_peak
from heatline.points import cis
from heatline.quadrature import (
    CompactSupport,
    GaussianDecay,
    GridSpec,
    PolynomialDecay,
    QuadratureError,
    TestFunction,
    integrate,
    integrate_auto,
    l1_norm,
    node_budget,
    walk_ladders,
)
from heatline.transforms import sampled_spectrum


class TestGridSpec:
    def test_rejects_odd_or_tiny_point_counts(self):
        for bad in (3, 5, 2, 0, -4, 6, 130):
            with pytest.raises(ValueError):
                GridSpec(4.0, bad, 1)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 128, 1)

    @pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_radius_by_name(self, radius):
        with pytest.raises(ValueError, match=f"radius must be positive and finite, got {radius}"):
            integrate(unit_gaussian(1), GridSpec(radius, 128, 1))

    def test_per_axis_arrays_are_read_only(self):
        grid = GridSpec(4.0, 16, 2)
        for array in (grid.nodes, grid.rows):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_node_budget_enforced(self):
        with pytest.raises(QuadratureError, match="node budget"):
            GridSpec(4.0, 8192, 2)

    def test_budget_env_override(self, monkeypatch):
        monkeypatch.setenv("HEATLINE_BUDGET", "1000")
        assert node_budget() == 1000
        with pytest.raises(QuadratureError, match="node budget"):
            GridSpec(4.0, 2048, 1)

    def test_spacing(self):
        assert GridSpec(6.0, 256, 1).spacing == pytest.approx(12.0 / 256.0)


class TestEnvelopeChecks:
    def test_envelope_violation_rejected(self):
        # unit gaussian peaks at 1, above the declared 0.5 ceiling
        with pytest.raises(ValueError, match="envelope"):
            TestFunction(
                f=lambda pts: np.exp(-math.pi * np.sum(pts * pts, axis=1)),
                dim=1,
                envelope=GaussianDecay(math.pi, 0.5),
            )

    def test_compact_support_violation_rejected(self):
        with pytest.raises(ValueError, match="compact support"):
            TestFunction(
                f=lambda pts: np.exp(-np.sum(pts * pts, axis=1)),
                dim=1,
                envelope=CompactSupport(2.0),
            )

    def test_declared_sup_bound_checked(self):
        with pytest.raises(ValueError, match="sup bound"):
            TestFunction(
                f=lambda pts: np.exp(-math.pi * np.sum(pts * pts, axis=1)),
                dim=1,
                envelope=GaussianDecay(math.pi, 1.0),
                bounded=True,
                sup_bound=0.25,
            )

    def test_bounded_requires_declared_sup(self):
        with pytest.raises(ValueError, match="sup_bound"):
            TestFunction(
                f=lambda pts: np.zeros(pts.shape[0]),
                dim=1,
                envelope=GaussianDecay(1.0, 1.0),
                bounded=True,
            )

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            TestFunction(
                f=lambda pts: np.full(pts.shape[0], np.nan),
                dim=1,
                envelope=GaussianDecay(1.0, 1.0),
            )

    def test_polynomial_power_must_exceed_dimension(self):
        fn = lambda pts: (1.0 + np.sqrt(np.sum(pts * pts, axis=1))) ** -1.5
        with pytest.raises(ValueError, match="power"):
            TestFunction(f=fn, dim=2, envelope=PolynomialDecay(1.5, 1.0))
        # 1.5 > 1 is accepted in dimension 1
        TestFunction(f=fn, dim=1, envelope=PolynomialDecay(1.5, 1.0))


class TestDeclaredFactors:
    """A declared product form is spot-checked against f at construction."""

    def test_presets_declare_factors_that_pass_the_check(self):
        for dim in (1, 2, 3):
            for g in (gauss_fn(0.1, dim), weierstrass_fn(0.1, dim), unit_gaussian(dim)):
                assert len(g.factors) == dim

    def test_factors_at_a_wrong_scale_rejected(self):
        g = weierstrass_fn(0.1, 2)
        first, second = g.factors
        with pytest.raises(ValueError, match="product of its declared factors"):
            TestFunction(
                g.f, 2, g.envelope, name="off-by-1e-9",
                factors=(lambda x: (1.0 + 1e-9) * first(x), second),
            )

    def test_swapped_axes_of_an_anisotropic_product_rejected(self):
        def narrow(x):
            return np.exp(-math.pi * x * x)

        def wide(x):
            return np.exp(-0.5 * x * x)

        def f(pts):
            return narrow(pts[:, 0]) * wide(pts[:, 1])

        envelope = GaussianDecay(0.5, 1.0)
        assert TestFunction(f, 2, envelope, factors=(narrow, wide)).factors is not None
        with pytest.raises(ValueError, match="product of its declared factors"):
            TestFunction(f, 2, envelope, name="swapped", factors=(wide, narrow))

    def test_unshifted_factors_of_a_shifted_function_rejected(self):
        g = gauss_fn(0.1, 2)
        moved = g.shifted([0.5, -0.25])
        with pytest.raises(ValueError, match="product of its declared factors"):
            TestFunction(moved.f, 2, moved.envelope, name="unshifted", factors=g.factors)

    def test_one_factor_per_axis_required(self):
        g = gauss_fn(0.1, 2)
        with pytest.raises(ValueError, match="one per axis"):
            TestFunction(g.f, 2, g.envelope, factors=g.factors[:1])

    def test_factor_values_get_the_checks_of_f(self):
        g = gauss_fn(0.1, 1)
        with pytest.raises(ValueError, match="returned shape"):
            TestFunction(g.f, 1, g.envelope, factors=(lambda x: np.ones(3),))
        with pytest.raises(ValueError, match="non-finite"):
            TestFunction(g.f, 1, g.envelope, factors=(lambda x: np.full(x.shape[0], np.nan),))


class TestRealPoints:
    def test_complex_points_rejected(self):
        # the imaginary part used to be dropped: gauss:0.1 at 0.3i returned its value at 0
        g = gauss_fn(0.1)
        for pts in (np.array([0.3j]), 0.3j, [[0.3 + 0.0j]]):
            with pytest.raises(ValueError, match="real points.*fourier_complex"):
                g(pts)

    def test_the_kernels_take_complex_points(self):
        value = gauss(KernelScale(0.1), np.array([0.3j]))
        assert value == pytest.approx(math.exp(4.0 * math.pi**2 * 0.1 * 0.09), rel=1e-15)
        assert value == pytest.approx(1.4266, rel=1e-4)


class TestIntegrate:
    def test_unit_gaussian_normalization(self):
        result = integrate(unit_gaussian(1), GridSpec(6.0, 256, 1))
        assert abs(result.value - 1.0) < 1e-10

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
    def test_weierstrass_unit_mass(self, alpha):
        result, _ = integrate_auto(weierstrass_fn(alpha, 1), 1e-8)
        assert abs(result.value - 1.0) < 1e-8

    def test_gauss_kernel_mass_hits_the_peak_value(self):
        # integral of the gauss kernel equals the weierstrass peak at 0
        result, _ = integrate_auto(gauss_fn(0.1, 1), 1e-8)
        assert abs(result.value - 0.8920620580763856) < 1e-8

    def test_two_dimensional_normalization(self):
        result, _ = integrate_auto(unit_gaussian(2), 1e-8)
        assert abs(result.value - 1.0) < 1e-8

    def test_not_certified_integrable(self):
        with pytest.raises(QuadratureError, match="not certified integrable"):
            integrate(constant_fn(1.0), GridSpec(4.0, 128, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            integrate(unit_gaussian(2), GridSpec(4.0, 128, 1))

    def test_fixed_grid_is_bit_reproducible(self):
        grid = GridSpec(6.0, 512, 1)
        a = integrate(unit_gaussian(1), grid)
        b = integrate(unit_gaussian(1), grid)
        assert a.value == b.value
        assert a.disc_error_est == b.disc_error_est
        assert a.tail_bound == b.tail_bound

    def test_polynomial_decay_against_exact_tail(self):
        # |f| = (1+|x|)^(-3): the tail bound formula is exact for this envelope
        f = TestFunction(
            f=lambda pts: (1.0 + np.abs(pts[:, 0])) ** -3.0,
            dim=1,
            envelope=PolynomialDecay(3.0, 1.0),
        )
        result, grid = integrate_auto(f, 2e-2)
        assert abs(result.value - 1.0) <= result.error_budget + 1e-12
        assert result.tail_bound == pytest.approx((1.0 + grid.radius) ** -2.0, rel=1e-12)


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "builder,closed",
        [
            (lambda: unit_gaussian(1), 1.0),
            (lambda: weierstrass_fn(0.05, 1), 1.0),
            (lambda: weierstrass_fn(0.5, 1), 1.0),
            (lambda: gauss_fn(0.1, 1), 0.8920620580763856),
            (lambda: gauss_fn(0.5, 1), weierstrass_peak(KernelScale(0.5, 1))),
        ],
    )
    def test_error_within_reported_budget(self, builder, closed):
        result, _ = integrate_auto(builder(), 1e-9)
        assert abs(result.value - closed) <= result.error_budget + 1e-12

    def test_refinement_never_leaves_the_estimate(self):
        g = gauss_fn(0.2, 1)
        closed = weierstrass_peak(KernelScale(0.2, 1))
        for n in (128, 256, 512, 1024):
            coarse = integrate(g, GridSpec(6.0, n, 1))
            fine = integrate(g, GridSpec(6.0, 2 * n, 1))
            err_coarse = abs(coarse.value - closed)
            err_fine = abs(fine.value - closed)
            assert err_fine <= err_coarse + coarse.disc_error_est + 1e-15

    def test_linearity(self):
        g1 = gauss_fn(0.1, 1)
        g2 = weierstrass_fn(0.2, 1)
        a, b = 2.0, 3.0

        def combo(pts):
            return a * g1(pts) + b * g2(pts)

        combined = TestFunction(
            f=combo,
            dim=1,
            envelope=GaussianDecay(1.25, a + b * weierstrass_peak(KernelScale(0.2, 1))),
        )
        r_combo, _ = integrate_auto(combined, 1e-9)
        r1, _ = integrate_auto(g1, 1e-9)
        r2, _ = integrate_auto(g2, 1e-9)
        budget = r_combo.error_budget + a * r1.error_budget + b * r2.error_budget
        assert abs(r_combo.value - (a * r1.value + b * r2.value)) <= budget + 1e-12

    def test_translation_invariance(self):
        g = unit_gaussian(1)
        shifted = g.shifted([1.5])
        base, _ = integrate_auto(g, 1e-9)
        moved, _ = integrate_auto(shifted, 1e-9)
        assert abs(base.value - moved.value) <= base.error_budget + moved.error_budget + 1e-10


class TestAutoGrid:
    def test_gaussian_envelope_needs_modest_radius(self):
        grid = integrate_auto(unit_gaussian(1), 1e-8)[1]
        assert grid.radius <= 6.0
        envelope = GaussianDecay(math.pi, 1.0)
        assert envelope.tail_bound(grid.radius, 1) <= 0.5e-8

    def test_compact_support_picks_first_covering_rung(self):
        grid = integrate_auto(bump_fn(1.0, 1), 1e-6)[1]
        assert grid.radius == 4.0
        assert CompactSupport(1.0).tail_bound(grid.radius, 1) == 0.0

    def test_slow_polynomial_tail_exhausts_the_ladder(self):
        f = TestFunction(
            f=lambda pts: (1.0 + np.abs(pts[:, 0])) ** -1.5,
            dim=1,
            envelope=PolynomialDecay(1.5, 1.0),
        )
        with pytest.raises(QuadratureError, match="tolerance unreachable"):
            integrate_auto(f, 1e-8)

    def test_bounded_only_rejected(self):
        with pytest.raises(QuadratureError, match="not certified integrable"):
            integrate_auto(constant_fn(2.0), 1e-6)

    def test_oscillation_floor_raises_point_count(self):
        quiet = integrate_auto(gauss_fn(0.1, 1), 1e-8, phase_rate=0.0)[1]
        rapid = integrate_auto(gauss_fn(0.1, 1), 1e-8, phase_rate=20.0)[1]
        assert rapid.points_per_axis > quiet.points_per_axis
        assert rapid.points_per_axis >= 8.0 * rapid.radius * 20.0

    def test_ladder_env_overrides(self, monkeypatch):
        monkeypatch.setattr(quadrature, "RADIUS_LADDER", (5.0, 10.0))
        monkeypatch.setattr(quadrature, "POINTS_LADDER", (96, 192))
        grid = integrate_auto(unit_gaussian(1), 1e-7)[1]
        assert grid.radius == 5.0
        assert grid.points_per_axis == 96


class TestHelpers:
    def test_l1_norm_of_odd_function_counts_magnitude(self):
        # f(x) = x exp(-pi x^2) integrates to 0; its |f| mass is 1/pi
        def odd(pts):
            return pts[:, 0] * np.exp(-math.pi * np.sum(pts * pts, axis=1))

        f = TestFunction(f=odd, dim=1, envelope=GaussianDecay(math.pi / 2.0, 0.35))
        plain, _ = integrate_auto(f, 1e-9)
        mass = l1_norm(f, 1e-9)
        assert abs(plain.value) < 1e-12
        assert abs(mass.value - 1.0 / math.pi) < 1e-8

    def test_tail_bound_matches_hand_computation(self):
        # 1-d gaussian tail bound: exp(-c R^2) / (c R) at c = pi, R = 6
        envelope = GaussianDecay(math.pi, 1.0)
        expected = math.exp(-math.pi * 36.0) / (math.pi * 6.0)
        assert envelope.tail_bound(6.0, 1) == pytest.approx(expected, rel=1e-12)
        assert expected < 1e-48

    def test_scaled_and_shifted_envelopes_stay_valid(self):
        g = gauss_fn(0.2, 1)
        doubled = g.scaled(2.0)
        assert doubled.envelope.scale == pytest.approx(2.0)
        moved = g.shifted([0.8])
        assert moved.envelope.rate == pytest.approx(g.envelope.rate / 2.0)
        # the shifted function still peaks at its new center
        assert abs(moved(0.8)) == pytest.approx(1.0)


# -- distinct-column contraction of factored phase sums ----------------------


def _lattice(axis: np.ndarray, dim: int = 2) -> np.ndarray:
    """Every point of axis^dim, one per row, in row-major order."""
    return np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)


def _shuffled_lattice_with_duplicates() -> np.ndarray:
    rng = np.random.default_rng(11)
    xi = _lattice(np.linspace(-1.5, 1.5, 7))
    xi = np.concatenate([xi, xi[rng.choice(49, size=10, replace=False)]])
    return xi[rng.permutation(xi.shape[0])]


def _one_at_a_time(grid: GridSpec, values, xi: np.ndarray, sign: float) -> np.ndarray:
    return np.concatenate([grid.phase_sum(values, xi[i:i + 1], sign) for i in range(xi.shape[0])], axis=1)


def _cis_entries(monkeypatch) -> list:
    entries = []

    def counted(theta):
        entries.append(np.size(theta))
        return cis(theta)

    monkeypatch.setattr(quadrature, "cis", counted)
    return entries


class TestDistinctColumns:
    def test_distinct_values_ascend_with_signed_zeros_apart(self):
        values = np.array([1.0, 0.0, -2.0, -0.0, 1.0, 0.0, -0.0, 5e-324, -5e-324, -2.0])
        distinct, back = quadrature._distinct(values)
        assert distinct.view(np.int64).tolist() == np.array([-2.0, -5e-324, -0.0, 0.0, 5e-324, 1.0]).view(np.int64).tolist()
        assert distinct[back].view(np.int64).tolist() == values.view(np.int64).tolist()

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("f", [gauss_fn(0.1, 2), weierstrass_fn(0.2, 2).shifted([0.3, -0.2])], ids=["gauss", "shifted"])
    def test_a_shuffled_lattice_with_duplicates_matches_one_frequency_at_a_time(self, f, sign):
        grid = GridSpec(4.0, 64, 2)
        xi = _shuffled_lattice_with_duplicates()
        sums = grid.phase_sum(f, xi, sign)
        # a repeated frequency gathers the same columns, so its sums repeat bit for bit
        for a, b in itertools.combinations(range(xi.shape[0]), 2):
            if np.array_equal(xi[a], xi[b]):
                assert sums[:, a].tobytes() == sums[:, b].tobytes()
        assert np.max(np.abs(sums - _one_at_a_time(grid, f, xi, sign))) <= 1e-15

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_signed_zero_frequencies_keep_their_columns(self, sign):
        grid = GridSpec(4.0, 32, 2)
        axis = np.array([-1.0, -0.0, 0.0, 1.0])
        xi = _lattice(axis)
        # each zero's phase column is its own, bit for bit (the sine of -0.0 x is -(+0.0 x)'s, signed zeros included)
        distinct, back = quadrature._distinct(axis)
        c = sign * 2.0 * math.pi
        direct = cis(c * np.multiply.outer(grid.nodes, axis))
        # the engine builds the forward matrix only; the +1 matrix is its conjugate, compared with a direct cis(+2 pi x xi)
        phase = grid.phase_matrix(distinct)
        signed = np.conjugate(phase) if sign > 0 else phase
        assert signed[:, back].tobytes() == direct.tobytes()
        f = gauss_fn(0.1, 2).scaled(-1.0)
        sums, alone = grid.phase_sum(f, xi, sign), _one_at_a_time(grid, f, xi, sign)
        zero = alone.imag == 0.0
        assert zero[:, [5, 6, 9, 10]].all()  # the four frequencies (+-0, +-0)
        assert np.signbit(sums.imag[zero]).tolist() == np.signbit(alone.imag[zero]).tolist()
        assert np.max(np.abs(sums - alone)) <= 1e-15

    @pytest.mark.parametrize("axis", [np.linspace(-1.0, 1.0, 7), np.linspace(-2.0, 2.0, 5), np.linspace(-1.5, 1.5, 7)])
    def test_a_factored_lattice_pays_one_phase_column_per_axis_value(self, monkeypatch, axis):
        grid = GridSpec(4.0, 64, 2)
        k = axis.size
        xi = _lattice(axis)[np.random.default_rng(3).permutation(k * k)]
        entries = _cis_entries(monkeypatch)
        grid.phase_sum(gauss_fn(0.1, 2), xi, -1.0)
        assert sum(entries) <= 2 * (64 // 2 + 1) * k
        if quadrature._mirrored(axis):
            # a symmetric axis, sorted, is mirrored about its centre: the quarter path
            assert sum(entries) == 2 * (64 // 2 + 1) * (k // 2 + 1)

    @pytest.mark.parametrize("f", [gauss_fn(0.1, 1), bump_fn(1.0, 1)], ids=["factored", "unfactored"])
    def test_dim_1_contracts_the_frequencies_as_given(self, monkeypatch, f):
        def refused(values):
            raise AssertionError("dim 1 needs no dedupe")

        monkeypatch.setattr(quadrature, "_distinct", refused)
        xi = np.array([[0.5], [-0.5], [0.5], [0.0]])
        sums = GridSpec(4.0, 64, 1).phase_sum(f, xi, -1.0)
        assert sums.shape == (2, 4)


_LATTICE_FUNCTIONS = {
    "factored": weierstrass_fn(0.1),
    "unfactored": bump_fn(1.0),
    "complex": weierstrass_fn(0.2).shifted([0.3]).scaled(0.6 - 0.8j),
}


def _fine_weighted(grid: GridSpec, f) -> np.ndarray:
    """The weighted values a fine phase sum of f contracts, as the engine forms them."""
    return grid.weighted_factors(f)[0][0]


class TestLatticeSum:
    """Phase sums on ladder lattices by FFT: the Simpson sum of the phase matrices, rounded differently."""

    # (inner radius, N) x (outer radius, N), and s t = P 2^-m: P = 1, 3 and 9; the 24 and 48 pairs
    # fold their 1025 or 4097 nodes onto a shorter FFT (L = 1024 or 2048)
    PAIRS = {
        "P1": ((4.0, 128), (4.0, 256)),
        "P3": ((6.0, 128), (4.0, 128)),
        "P9": ((12.0, 256), (6.0, 128)),
        "P3-fold": ((24.0, 1024), (4.0, 128)),
        "P9-fold": ((48.0, 1024), (6.0, 128)),
        "P3-fold-twice": ((48.0, 4096), (4.0, 128)),
    }

    @pytest.mark.parametrize("f", list(_LATTICE_FUNCTIONS.values()), ids=list(_LATTICE_FUNCTIONS))
    @pytest.mark.parametrize("inner, outer", list(PAIRS.values()), ids=list(PAIRS))
    def test_matches_the_phase_sum(self, inner, outer, f):
        grid, xi = GridSpec(*inner, 1), GridSpec(*outer, 1).nodes[:, None]
        fast = grid._lattice_sum(f, xi)
        assert fast is not None and fast.shape == (xi.shape[0],)
        bound = float(np.sum(np.abs(_fine_weighted(grid, f))))
        assert np.max(np.abs(fast - grid.phase_sum(f, xi, -1.0)[0])) <= 1e-15 * bound

    def test_fold_is_shorter_than_the_nodes(self, monkeypatch):
        lengths = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a: lengths.append(a.size) or fft(a))
        grid = GridSpec(*self.PAIRS["P3-fold-twice"][0], 1)
        grid._lattice_sum(weierstrass_fn(0.1), GridSpec(4.0, 128, 1).nodes[:, None])
        assert lengths == [2048] and grid.nodes.size == 4097

    @pytest.mark.parametrize("outer", [(6.0, 128), (12.0, 64)])
    def test_dim_2_factored_matches_the_phase_sum(self, outer):
        f = gauss_fn(0.1, 2).shifted([0.3, -0.2])
        grid, xi = GridSpec(4.0, 128, 2), GridSpec(*outer, 2).points()
        fast = grid._lattice_sum(f, xi)
        bound = math.prod(float(np.sum(np.abs(wf[0]))) for wf in grid.weighted_factors(f))
        assert np.max(np.abs(fast - grid.phase_sum(f, xi, -1.0)[0])) <= 2e-15 * bound

    @pytest.mark.parametrize("inner, outer", [PAIRS["P3"], PAIRS["P9"]], ids=["P3", "P9"])
    def test_no_farther_from_a_30_digit_sum_than_the_phase_sum(self, inner, outer):
        mpmath = pytest.importorskip("mpmath")
        f = _LATTICE_FUNCTIONS["complex"]
        grid = GridSpec(*inner, 1)
        xi = GridSpec(*outer, 1).nodes[::7, None]  # odd multiples of the spacing among them: the full L
        a = _fine_weighted(grid, f)
        with mpmath.workdps(30):
            terms = [(mpmath.mpc(complex(w)), mpmath.mpf(float(x))) for w, x in zip(a, grid.nodes)]
            oracle = np.array([
                complex(mpmath.fsum(w * mpmath.expjpi(-2 * x * mpmath.mpf(float(k))) for w, x in terms)) for k in xi[:, 0]
            ])
        fast_error = np.max(np.abs(grid._lattice_sum(f, xi) - oracle))
        direct_error = np.max(np.abs(grid.phase_sum(f, xi, -1.0)[0] - oracle))
        assert fast_error <= direct_error

    @pytest.mark.parametrize(
        "grid, xi, f",
        [
            (GridSpec(4.0, 512, 1), np.linspace(-2.0, 2.0, 41)[:, None], weierstrass_fn(0.1)),
            (GridSpec(4.0, 512, 1), quadrature._spot_points(1), weierstrass_fn(0.1)),
            (GridSpec(4.0, 128, 2), quadrature._spot_points(2), gauss_fn(0.1, 2)),
            (GridSpec(7.3, 128, 1), GridSpec(4.0, 128, 1).nodes[:, None], weierstrass_fn(0.1)),
            (GridSpec(4.0, 64, 2), GridSpec(4.0, 64, 2).points(), bump_fn(1.0, 2)),
            (GridSpec(4.0, 128, 1), np.array([[2.0**-40]]), weierstrass_fn(0.1)),
        ],
        ids=["linspace", "spot-points", "spot-points-d2", "non-dyadic-grid", "unfactored-d2", "fft-too-long"],
    )
    def test_off_the_lattice_there_is_no_fft(self, grid, xi, f):
        assert grid._lattice_sum(f, xi) is None

    def test_the_spectrum_off_the_lattice_is_the_phase_sum(self):
        f = weierstrass_fn(0.1)
        spectrum = sampled_spectrum(f, 1e-6, 1.0)
        grid = spectrum.key[2]
        for xi in (np.linspace(-2.0, 2.0, 41)[:, None], quadrature._spot_points(1)):
            assert grid._lattice_sum(f, xi) is None
            assert spectrum.values(xi).tobytes() == grid.phase_sum(f, xi, -1.0)[0].tobytes()

    def test_nodes_off_their_lattice_are_refused_in_integers(self):
        assert GridSpec(4.0, 128, 1)._step == (1, -4)
        assert GridSpec(6.0, 128, 1)._step == (3, -5)
        assert GridSpec(7.3, 128, 1)._step is None


class TestPerWalkPhaseRates:
    """walk_ladders with one phase rate per walk: a walk joins only the rungs that meet its own cap."""

    TOL = 1e-8

    @staticmethod
    def _recorded(fs: list, rungs: list):
        """Grid sums of the plain integral of each f, one walk each, recording (points, walks) of every rung."""
        sums = [quadrature._value_sum(f) for f in fs]

        def grid_sums(grid, walks):
            rungs.append((grid.points_per_axis, tuple(walks)))
            return [sums[i](grid, [0])[0] for i in walks]

        return grid_sums

    def _walk_all(self, fs: list, rates, rungs: list | None = None):
        grid_sums = self._recorded(fs, [] if rungs is None else rungs)
        return walk_ladders(grid_sums, [f.envelope for f in fs], 1, self.TOL, [f.name for f in fs], rates)

    def test_each_walk_is_its_solo_walk(self):
        # rate 0 starts on the first rung; rate 12 at radius 4 caps below 8 * 4 * 12 = 384 points
        fs = [weierstrass_fn(0.1), gauss_fn(0.1), weierstrass_fn(0.005), gauss_fn(0.2)]
        rates = [0.0, 12.0, 0.0, 6.0]
        rungs = []
        walked = self._walk_all(fs, rates, rungs)
        for f, rate, (fine, coarse, grid) in zip(fs, rates, walked):
            [(solo_fine, solo_coarse, solo_grid)] = walk_ladders(quadrature._value_sum(f), [f.envelope], 1, self.TOL, [f.name], [rate])
            assert fine.tobytes() == solo_fine.tobytes() and coarse.tobytes() == solo_coarse.tobytes()
            assert grid is solo_grid
        assert [grid.points_per_axis for _, _, grid in walked][:2] == [128, 512]
        for i, (f, rate, (_, _, grid)) in enumerate(zip(fs, rates, walked)):
            joined = [n for n, walks in rungs if i in walks]
            # a walk joins every rung from its cap up to the rung it stops on, and no other
            assert joined == [n for n in quadrature.POINTS_LADDER if 8.0 * grid.radius * rate <= n <= grid.points_per_axis]
        assert any(len(walks) > 1 for _, walks in rungs)  # walks that meet on a rung share its grid

    def test_walks_of_one_rate_are_their_solo_walks(self):
        fs = [weierstrass_fn(0.1), gauss_fn(0.1)]
        solo = [self._walk_all([f], [6.0])[0] for f in fs]
        for (a_fine, a_coarse, a_grid), (b_fine, b_coarse, b_grid) in zip(solo, self._walk_all(fs, [6.0, 6.0])):
            assert a_fine.tobytes() == b_fine.tobytes() and a_coarse.tobytes() == b_coarse.tobytes() and a_grid is b_grid

    def _solo_error(self, f, rate) -> str:
        with pytest.raises(QuadratureError) as solo:
            walk_ladders(quadrature._value_sum(f), [f.envelope], 1, self.TOL, [f.name], [rate])
        return str(solo.value)

    def test_an_unreachable_cap_raises_its_own_walks_error(self):
        fs = [weierstrass_fn(0.1), gauss_fn(0.1)]
        rates = [0.0, 1000.0]  # 8 * 4 * 1000 points per axis: above the point ladder
        with pytest.raises(QuadratureError) as batch:
            self._walk_all(fs, rates)
        assert str(batch.value) == self._solo_error(fs[1], 1000.0)
        assert str(batch.value) == "tolerance unreachable at budget for 'gauss:0.1': phase cap exceeds the point ladder"

    def test_a_budget_below_the_cap_names_the_cap_of_that_walk(self, monkeypatch):
        monkeypatch.setenv("HEATLINE_BUDGET", "300")  # rungs of 128 and 256 points
        fs = [weierstrass_fn(0.1), gauss_fn(0.1)]
        rates = [0.0, 12.0]  # the second walk needs at least 384 points
        with pytest.raises(QuadratureError) as batch:
            self._walk_all(fs, rates)
        assert str(batch.value) == self._solo_error(fs[1], 12.0)
        assert "for 'gauss:0.1': the node budget (300 nodes) admits no rung of the point ladder at or above the phase cap" in str(batch.value)
        # the rate-0 walk alone still meets the tolerance under that budget
        [(_, _, grid)] = self._walk_all(fs[:1], [0.0])
        assert grid.points_per_axis == 128
