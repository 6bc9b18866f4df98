"""The package's public names: each one is listed here, so adding one is a deliberate edit."""

import types

import pytest

import heatline
from heatline import experiments, kernels, measures, points

PUBLIC = {
    # experiments and their exports
    "EXPERIMENTS", "ExperimentSpec", "ResultTable", "export", "run",
    # catalog presets
    "bump_fn", "bump_pair_fn", "constant_fn", "gauss_fn", "parse_preset", "unit_gaussian",
    "weierstrass_fn", "zero_fn",
    # kernels and points
    "KernelScale", "gauss", "weierstrass", "weierstrass_peak", "dot", "modulus",
    # measures
    "Atom", "BoundedMeasure", "WeakConvergenceSample", "dirac", "from_density", "measure_from_json",
    "weak_convergence_trace",
    # quadrature
    "BoundedOnly", "CompactSupport", "GaussianDecay", "GridSpec", "PolynomialDecay", "QuadratureError",
    "QuadratureResult", "TestFunction", "integrate", "integrate_auto", "l1_norm", "node_budget",
    # transforms
    "FrequencySample", "L1ContractionReport", "MultiplicationReport", "fourier", "fourier_complex",
    "fourier_profile", "gauss_inversion", "gauss_inversion_ladder", "gauss_mean", "mollify",
    "mollify_l1_check", "modulate", "multiplication_formula_check",
}

REMOVED = [
    "continuity_check", "ContinuityReport", "import_csv", "check_inequalities", "InequalityReport",
    "as_point", "gauss_product_scale",
]


def test_the_public_names_are_the_listed_ones():
    names = {
        name for name, value in vars(heatline).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC


@pytest.mark.parametrize("module", [points, kernels, measures, experiments], ids=lambda m: m.__name__)
def test_a_removed_name_is_gone_from_its_module(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []
