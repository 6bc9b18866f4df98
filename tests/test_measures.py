"""Bounded measures: pairing, transform, smoothing, and weak convergence."""

import json
import math

import numpy as np
import pytest

from heatline.catalog import bump_fn, gauss_fn, weierstrass_fn
from heatline.kernels import KernelScale, weierstrass
from heatline.measures import (
    Atom,
    BoundedMeasure,
    continuity_check,
    dirac,
    from_density,
    measure_from_json,
    weak_convergence_trace,
)
from heatline.quadrature import GaussianDecay, GridSpec, QuadratureError, TestFunction


def window_fn() -> TestFunction:
    """Bounded odd window with exact values +-0.5 at +-0.5."""
    return TestFunction(
        f=lambda pts: pts[:, 0] * np.exp(0.25 - np.sum(pts * pts, axis=1)),
        dim=1,
        envelope=GaussianDecay(0.5, 0.79),
        bounded=True,
        sup_bound=0.56,
        name="window",
    )


def dipole() -> BoundedMeasure:
    return BoundedMeasure(
        dim=1,
        atoms=(Atom((0.5,), 1.0), Atom((-0.5,), -1.0)),
    )


class TestConstruction:
    def test_bound_counts_atoms_and_density(self):
        measure = BoundedMeasure(
            dim=1,
            atoms=(Atom((0.0,), 1.0), Atom((0.7,), -0.5), Atom((-0.4,), 0.25j)),
            density=weierstrass_fn(0.1),
        )
        assert measure.bound == pytest.approx(1.75 + 1.0, abs=1e-6)

    def test_empty_measure_has_zero_bound(self):
        assert BoundedMeasure(dim=1).bound == 0.0

    def test_atom_dimension_checked(self):
        with pytest.raises(ValueError, match="dimension"):
            BoundedMeasure(dim=2, atoms=(Atom((1.0,), 1.0),))

    def test_density_must_be_integrable(self):
        from heatline.catalog import constant_fn

        with pytest.raises(QuadratureError, match="integrable"):
            BoundedMeasure(dim=1, density=constant_fn(1.0))


class TestApply:
    def test_dirac_evaluates_the_function(self):
        h = gauss_fn(0.3)
        measure = dirac([0.0])
        assert measure.apply(h) == pytest.approx(1.0)

    def test_unit_mass_density_against_the_constant_one(self):
        from heatline.catalog import constant_fn

        measure = from_density(weierstrass_fn(0.1))
        assert abs(measure.apply(constant_fn(1.0), 1e-8) - 1.0) < 1e-8

    def test_dipole_against_window(self):
        assert dipole().apply(window_fn()) == pytest.approx(1.0, abs=1e-15)

    def test_unbounded_function_rejected(self):
        f = weierstrass_fn(0.1)
        unbounded = TestFunction(f=f.f, dim=1, envelope=f.envelope, name="nosup")
        with pytest.raises(ValueError, match="sup bound"):
            dipole().apply(unbounded)

    def test_linearity(self):
        measure = BoundedMeasure(
            dim=1,
            atoms=(Atom((0.2,), 1.5),),
            density=weierstrass_fn(0.2),
        )
        h1, h2 = gauss_fn(0.5), window_fn()
        a, b = 2.0, -1.5

        def combo(pts):
            return a * h1(pts) + b * h2(pts)

        h3 = TestFunction(
            f=combo,
            dim=1,
            envelope=GaussianDecay(0.5, a * 1.0 + abs(b) * 0.79),
            bounded=True,
            sup_bound=a * 1.0 + abs(b) * 0.56,
            name="combo",
        )
        lhs = measure.apply(h3, 1e-9)
        rhs = a * measure.apply(h1, 1e-9) + b * measure.apply(h2, 1e-9)
        assert abs(lhs - rhs) < 1e-7

    def test_bound_inequality_over_a_corpus(self):
        measures = [
            dipole(),
            dirac([0.3], weight=2.0 - 1.0j),
            from_density(weierstrass_fn(0.1)),
            BoundedMeasure(dim=1, atoms=(Atom((0.1,), 0.5j),), density=gauss_fn(0.2)),
        ]
        functions = [gauss_fn(1.0), bump_fn(1.0), window_fn()]
        for measure in measures:
            for h in functions:
                value = measure.apply(h, 1e-9)
                assert abs(value) <= measure.bound * h.sup_bound + 1e-7


class TestMeasureFourier:
    def test_origin_atom_gives_the_constant_one(self):
        measure = dirac([0.0])
        for xi in np.linspace(-2.0, 2.0, 9):
            assert measure.fourier([xi]) == pytest.approx(1.0)

    def test_forced_character_value(self):
        value = dirac([0.5]).fourier([1.0])
        assert abs(value - (-1.0)) < 1e-12

    def test_density_reduction_matches_the_kernel_pair(self):
        measure = from_density(gauss_fn(0.1))
        scale = KernelScale(0.1, 1)
        for xi in np.linspace(-2.0, 2.0, 21):
            assert abs(measure.fourier([xi], 1e-8) - weierstrass(scale, xi)) < 1e-8

    def test_bounded_by_the_measure_bound(self):
        measure = BoundedMeasure(
            dim=1,
            atoms=(Atom((0.4,), 1.0), Atom((-0.2,), 0.5j)),
            density=weierstrass_fn(0.3),
        )
        for xi in np.linspace(-3.0, 3.0, 13):
            assert abs(measure.fourier([xi], 1e-8)) <= measure.bound + 1e-6

    def test_sampled_modulus_of_continuity_shrinks(self):
        measure = BoundedMeasure(
            dim=1,
            atoms=(Atom((0.4,), 1.0), Atom((-0.2,), 0.5j)),
            density=weierstrass_fn(0.3),
        )
        jumps = []
        for step in (0.2, 0.1, 0.05):
            xi = np.arange(-2.0, 2.0 + step / 2.0, step)
            values = np.array([measure.fourier([v], 1e-9) for v in xi])
            jumps.append(float(np.max(np.abs(np.diff(values)))))
        assert jumps[2] < jumps[1] < jumps[0]


class TestMeasureMollify:
    def test_single_atom_is_a_shifted_kernel(self):
        scale = KernelScale(0.2, 1)
        measure = dirac([0.6])
        for y in (-0.5, 0.0, 1.1):
            expected = weierstrass(scale, y - 0.6)
            assert measure.mollify(0.2, [y]) == pytest.approx(expected, rel=1e-14)

    def test_kernel_density_adds_scales(self):
        measure = from_density(weierstrass_fn(0.1))
        value = measure.mollify(0.05, [0.5], 1e-8)
        expected = (0.6 * math.pi) ** -0.5 * math.exp(-0.25 / 0.6)
        assert abs(value - expected) < 1e-7

    def test_doubled_atom_at_the_unit_prefactor_scale(self):
        measure = BoundedMeasure(dim=1, atoms=(Atom((0.0,), 2.0),))
        value = measure.mollify(1.0 / (4.0 * math.pi), [0.0])
        assert value == pytest.approx(2.0, rel=1e-14)


class TestMeasureInversion:
    def test_origin_atom_recovers_the_peak(self):
        for alpha in (0.2, 0.05):
            value = dirac([0.0]).gauss_inversion([0.0], alpha, 2e-7)
            assert abs(value - (4.0 * math.pi * alpha) ** -0.5) < 1e-6

    def test_shifted_atom_recovers_the_shifted_kernel(self):
        scale = KernelScale(0.1, 1)
        value = dirac([0.4]).gauss_inversion([1.0], 0.1, 2e-7)
        assert abs(value - weierstrass(scale, 0.6)) < 1e-6

    def test_empty_measure_inverts_to_zero(self):
        assert abs(BoundedMeasure(dim=1).gauss_inversion([0.3], 0.1, 1e-7)) < 1e-9

    @pytest.mark.parametrize("alpha", [0.2, 0.1, 0.05])
    def test_cross_check_against_smoothing(self, alpha):
        measure = BoundedMeasure(
            dim=1,
            atoms=(Atom((0.0,), 1.0), Atom((0.7,), -0.5), Atom((-0.4,), 0.25j)),
        )
        for x in (-1.0, -0.5, 0.0, 0.5, 1.0):
            inv = measure.gauss_inversion([x], alpha, 2.5e-7)
            mol = measure.mollify(alpha, [x], 2.5e-7)
            assert abs(inv - mol) <= 1e-6

    def test_density_measure_cross_check(self):
        measure = from_density(weierstrass_fn(0.1))
        inv = measure.gauss_inversion([0.5], 0.1, 2.5e-7)
        mol = measure.mollify(0.1, [0.5], 2.5e-7)
        assert abs(inv - mol) <= 1e-6

    def test_batched_rows_are_the_one_point_calls(self):
        measure = BoundedMeasure(
            dim=1, atoms=(Atom((0.3,), 1.0), Atom((-0.4,), 0.25j)), density=gauss_fn(0.1)
        )
        xs = [-1.0, 0.0, 0.5, 2.0]
        batch = measure.gauss_inversion_ladder([0.1], xs, 2.5e-7)[0]
        assert list(batch) == [measure.gauss_inversion([x], 0.1, 2.5e-7) for x in xs]
        assert list(measure.gauss_inversion_ladder([0.1], xs[::-1], 2.5e-7)[0]) == list(batch[::-1])
        assert list(measure.gauss_inversion_ladder([0.1], xs[1:3], 2.5e-7)[0]) == list(batch[1:3])

    @pytest.mark.parametrize(
        "xs", [[], [[0.0, 1.0]], [[[0.0]]], [0.0, math.nan], [[-math.inf]]],
        ids=["empty", "wrong-dim", "3-d", "nan", "inf"],
    )
    def test_a_malformed_batch_is_refused(self, xs):
        with pytest.raises(ValueError, match=r"shape \(k, 1\)"):
            dirac([0.0]).gauss_inversion_ladder([0.1], xs)


class TestWeakConvergence:
    def test_origin_atom_against_gauss_weight(self):
        measure = dirac([0.0])
        h = gauss_fn(1.0)
        alphas = [0.2 * 2.0**-k for k in range(6)]
        samples = weak_convergence_trace(measure, h, alphas, GridSpec(6.0, 1024, 1))
        values = [s.value.real for s in samples]
        for sample in samples:
            closed = (1.0 + 16.0 * math.pi**2 * sample.alpha) ** -0.5
            assert abs(sample.value - closed) < 1e-6
            assert abs(sample.target - 1.0) < 1e-9
        assert all(values[k + 1] > values[k] for k in range(len(values) - 1))

    def test_density_measure_against_compact_bump(self):
        measure = from_density(weierstrass_fn(0.1))
        h = bump_fn(1.0)
        alphas = [0.2, 0.1, 0.05, 0.025]
        samples = weak_convergence_trace(measure, h, alphas, GridSpec(6.0, 1024, 1))
        errors = [abs(s.value - s.target) for s in samples]
        assert all(errors[k + 1] <= errors[k] + 1e-7 for k in range(len(errors) - 1))
        assert errors[-1] < errors[0]

    def test_zero_measure_stays_zero(self):
        samples = weak_convergence_trace(
            BoundedMeasure(dim=1), gauss_fn(1.0), [0.2, 0.1, 0.05], GridSpec(4.0, 256, 1)
        )
        for sample in samples:
            assert abs(sample.value) < 1e-12
            assert sample.target == 0.0

    def test_unbounded_pairing_rejected(self):
        from heatline.catalog import constant_fn

        h = constant_fn(1.0)
        with pytest.raises(QuadratureError, match="compact|Gaussian"):
            weak_convergence_trace(dirac([0.0]), h, [0.1], GridSpec(4.0, 128, 1))


class TestContinuity:
    def test_scaled_sequence_converges_linearly(self):
        measure = dipole()
        h = window_fn()
        sequence = [h.scaled(1.0 - 1.0 / j) for j in range(2, 8)]
        report = continuity_check(measure, sequence, h)
        base = abs(measure.apply(h))
        for j, delta in zip(range(2, 8), report.deltas):
            assert delta == pytest.approx(base / j, rel=1e-9)

    def test_shifted_gaussians_converge(self):
        measure = dirac([0.0])
        h = gauss_fn(1.0)
        sequence = [h.shifted([1.0 / j]) for j in (1, 2, 4, 8, 16)]
        report = continuity_check(measure, sequence, h)
        assert all(
            report.deltas[k + 1] < report.deltas[k] for k in range(len(report.deltas) - 1)
        )
        assert all(
            report.sup_differences[k + 1] < report.sup_differences[k]
            for k in range(len(report.sup_differences) - 1)
        )

    def test_uniform_bound_violation_rejected(self):
        measure = dirac([0.0])
        h = gauss_fn(1.0)
        with pytest.raises(ValueError, match="uniform bound"):
            continuity_check(measure, [h.scaled(3.0)], h, uniform_bound=1.0)

    def test_a_dim_4_lattice_meets_the_grid_dimension_cap(self):
        measure = dirac([0.0] * 4)
        h = gauss_fn(1.0, 4)
        with pytest.raises(QuadratureError, match="capped at dimension 3"):
            continuity_check(measure, [h.shifted([0.5, 0.0, 0.0, 0.0])], h)


class TestMeasureJson:
    def test_documented_literal_round_trip(self):
        literal = {
            "dim": 1,
            "atoms": [{"at": [0.5], "re": 1.0}, {"at": [-0.5], "re": -1.0, "im": 0.5}],
            "density": "weierstrass:0.1",
        }
        measure = measure_from_json(json.dumps(literal))
        assert measure.dim == 1
        assert len(measure.atoms) == 2
        assert measure.atoms[1].weight == -1.0 + 0.5j
        assert measure.density is not None
        assert measure.bound == pytest.approx(1.0 + abs(-1.0 + 0.5j) + 1.0, abs=1e-6)

    def test_atoms_only(self):
        measure = measure_from_json('{"dim": 1, "atoms": [{"at": [0.5], "re": 1.0}]}')
        assert measure.density is None
        assert abs(measure.fourier([1.0]) - (-1.0)) < 1e-12

    def test_missing_location_rejected(self):
        with pytest.raises(ValueError, match="'at'"):
            measure_from_json('{"dim": 1, "atoms": [{"re": 1.0}]}')

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            measure_from_json('{"dim": 2, "atoms": [{"at": [0.5], "re": 1.0}]}')

    def test_unknown_density_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            measure_from_json('{"dim": 1, "density": "mystery:1"}')

    @pytest.mark.parametrize("dim, shown", [("1.5", "1.5"), ("true", "True"), ('"2"', "'2'")])
    def test_a_non_integer_dim_is_refused_not_truncated(self, dim, shown):
        with pytest.raises(ValueError, match=f"dim must be an integer, got {shown}$"):
            measure_from_json(f'{{"dim": {dim}, "atoms": [{{"at": [0.5], "re": 1.0}}]}}')

    def test_an_integral_float_dim_is_that_integer(self):
        assert measure_from_json('{"dim": 2.0, "density": "gauss:0.1"}').dim == 2
