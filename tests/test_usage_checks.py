"""Checks that must run or fail loudly: closed forms, ignored flags, dimensions."""

import math
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import heatline
from heatline import (
    dirac,
    experiments,
    fourier_complex,
    fourier_profile,
    gauss_inversion,
    gauss_mean,
    l1_norm,
    measure_from_json,
    modulate,
    mollify,
    mollify_l1_check,
    multiplication_formula_check,
    parse_preset,
    weak_convergence_trace,
)
from heatline.catalog import closed_form
from heatline.cli import main
from heatline.experiments import ExperimentSpec, export, run
from heatline.kernels import KernelScale
from heatline.measures import BoundedMeasure
from heatline.quadrature import GaussianDecay, GridSpec, QuadratureError, TestFunction, integrate_auto
from heatline import transforms
from heatline.transforms import fourier, gauss_inversion_ladder, mollify_ladder


@pytest.fixture
def runner():
    return CliRunner()


@pytest.mark.parametrize("preset", ["GAUSS:0.1", "Weierstrass:0.1", "Unit-Gauss"])
def test_fourier_checks_presets_whatever_their_case(preset):
    table = run(ExperimentSpec(name="fourier", params={"preset": preset}))
    residuals = [row[-1] for row in table.rows]
    assert all(isinstance(r, float) for r in residuals)
    assert 0.0 < max(residuals) <= 1e-6
    assert table.summary.endswith(f"max residual {max(residuals):.3e}")


def test_integrate_exports_the_closed_form_whatever_the_case():
    table = run(ExperimentSpec(name="integrate", params={"preset": "WEIERSTRASS:0.1"}))
    row = dict(zip(table.columns, table.rows[0]))
    assert row["closed_form"] == 1.0
    assert row["abs_error"] <= 1e-8


def test_weak_convergence_checks_the_closed_form_whatever_the_case():
    lower = run(ExperimentSpec(name="weak-convergence", params={"h": "gauss:1"}))
    upper = run(ExperimentSpec(name="weak-convergence", params={"h": "GAUSS:1"}))
    assert upper.rows == lower.rows
    assert all(isinstance(row[-1], float) for row in upper.rows)


@pytest.mark.parametrize("preset", ["gauss:0.3", "weierstrass:0.05", "unit-gauss"])
def test_closed_forms_agree_with_quadrature(preset):
    f = parse_preset(preset, 1)
    forms = closed_form(preset, 1)
    assert abs(integrate_auto(f, 1e-10)[0].value - forms.integral) < 1e-9
    for xi in (0.0, 0.7):
        assert abs(fourier(f, [xi], 1e-10) - forms.transform(np.array([xi]))) < 1e-9
    for x in (0.0, 0.4):
        assert abs(mollify(f, 0.02, [x], 1e-10) - forms.smoothed(0.02, np.array([x]))) < 1e-9


def test_presets_without_closed_forms_report_none():
    assert closed_form("bump:1") is None
    assert closed_form("const:1") is None
    assert math.isclose(closed_form("Gauss:0.25", 2).integral, 1.0 / math.pi)


@pytest.mark.parametrize("args", [
    ["mollify", "--points", "4", "--radius", "0.001"],
    ["fourier", "--radius", "6"],
    ["verify-kernels", "--points", "256"],
    ["measure-ft", "--radius", "6"],
])
def test_grid_flags_are_only_taken_where_they_are_used(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize("name", ["fourier", "measure-ft"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_a_frequency_count_below_one_is_a_usage_error(runner, name, count):
    # zero frequencies would check nothing and pass; a negative count is no count at all
    result = runner.invoke(main, [name, "--xi-count", count])
    assert result.exit_code == 2, result.output
    assert "'xi_count' must be at least 1" in result.output
    assert "PASS" not in result.output


def test_integrate_still_takes_an_explicit_grid(runner, tmp_path):
    out = tmp_path / "grid.csv"
    result = runner.invoke(main, ["integrate", "--radius", "6", "--points", "256", "--out", str(out)])
    assert result.exit_code == 0, result.output
    _, rows = experiments.import_csv(out.read_bytes())
    assert rows[0][1:3] == [6.0, 256.0]


def test_config_key_the_subcommand_does_not_take_is_a_usage_error(runner, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("radius = 6\npoints = 256\n")
    result = runner.invoke(main, ["mollify", "--config", str(config)])
    assert result.exit_code == 2
    assert "radius" in result.output
    result = runner.invoke(main, ["integrate", "--config", str(config)])
    assert result.exit_code == 0, result.output


def test_bad_config_value_is_a_usage_error(runner, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("tol = tiny\n")
    result = runner.invoke(main, ["integrate", "--config", str(config)])
    assert result.exit_code == 2


def test_explicit_dim_must_match_the_measure_literal(runner):
    result = runner.invoke(main, ["measure-ft", "--dim", "2"])
    assert result.exit_code == 2
    assert "dim" in result.output
    literal = '{"dim": 2, "atoms": [{"at": [0.5, 0.0], "re": 1.0}]}'
    result = runner.invoke(main, ["measure-ft", "--measure", literal, "--dim", "2", "--xi-count", "5"])
    assert result.exit_code == 0, result.output


def test_measure_literal_sets_the_dim_when_none_is_given(runner):
    literal = '{"dim": 2, "atoms": [{"at": [0.5, 0.0], "re": 1.0}]}'
    result = runner.invoke(main, ["measure-ft", "--measure", literal, "--xi-count", "5"])
    assert result.exit_code == 0, result.output
    assert "xi1,xi2" in result.output


def test_library_rejects_a_conflicting_measure_dim():
    with pytest.raises(ValueError, match="dim"):
        measure_from_json('{"dim": 1, "atoms": []}', dim=2)
    with pytest.raises(ValueError, match="dim"):
        run(ExperimentSpec(name="measure-ft", dim=2))
    assert measure_from_json('{"atoms": []}', dim=2).dim == 2


def test_exports_carry_the_package_version():
    assert not hasattr(experiments, "LIBRARY_VERSION")
    table = run(ExperimentSpec(name="integrate"))
    assert f"# version={heatline.__version__}\n".encode() in export(table, "csv")


def test_a_dim_below_one_is_a_usage_error(runner):
    result = runner.invoke(main, ["integrate", "--dim", "0"])
    assert result.exit_code == 2
    assert "dim must be a positive integer" in result.output
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        run(ExperimentSpec(name="integrate", dim=0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: GridSpec(4.0, 128, True),
        lambda: BoundedMeasure(dim=True),
        lambda: KernelScale(0.1, True),
        lambda: TestFunction(lambda pts: np.zeros(pts.shape[0]), True, GaussianDecay(1.0, 1.0)),
        lambda: run(ExperimentSpec("integrate", dim=True)),
    ],
    ids=["grid", "measure", "kernel-scale", "test-function", "run"],
)
def test_a_boolean_dim_is_refused_by_name(build):
    # True == 1, but a flag is not a dimension
    with pytest.raises(ValueError, match="dim must be a positive integer, got True"):
        build()


@pytest.mark.parametrize(
    "name, param",
    [
        ("invert", "alphas"),
        ("measure-invert", "alphas"),
        ("weak-convergence", "alphas"),
        ("verify-kernels", "alphas"),
        ("mollify", "xs"),
        ("modulate", "shifts"),
    ],
)
def test_an_empty_list_is_refused_by_name(runner, name, param):
    # an empty list would run no check at all and report a pass
    result = runner.invoke(main, [name, f"--{param}", ""])
    assert result.exit_code == 2, result.output
    assert f"parameter {param!r}: expected at least one value" in result.output
    with pytest.raises(ValueError, match=f"parameter {param!r}: expected at least one value"):
        run(ExperimentSpec(name, params={param: []}))


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
def test_a_tolerance_that_is_not_positive_and_finite_is_refused_by_name(runner, name, tol):
    # a check against such a tolerance cannot pass, or cannot fail, so none is run
    result = runner.invoke(main, [name, "--tol", tol])
    assert result.exit_code == 2, result.output
    assert "parameter 'tol': expected a positive, finite tolerance" in result.output
    with pytest.raises(ValueError, match="parameter 'tol': expected a positive, finite tolerance"):
        run(ExperimentSpec(name, params={"tol": float(tol)}))


DENSITY_MEASURE = '{"dim": 1, "atoms": [{"at": [0.3], "re": 1.0}], "density": "gauss:0.1"}'
LADDER_WALKS = {
    "fourier": lambda tol: fourier(parse_preset("gauss:0.1"), [0.5], tol),
    "fourier_profile": lambda tol: fourier_profile(parse_preset("gauss:0.1"), [[0.5], [1.0]], tol),
    "gauss_inversion": lambda tol: gauss_inversion(parse_preset("weierstrass:0.1"), [0.0], 0.1, tol),
    "l1_norm": lambda tol: l1_norm(parse_preset("gauss:0.1"), tol),
    "measure.gauss_inversion": lambda tol: measure_from_json(DENSITY_MEASURE).gauss_inversion([0.0], 0.1, tol),
    "mollify": lambda tol: mollify(parse_preset("gauss:0.1"), 0.1, [0.0], tol),
}


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
@pytest.mark.parametrize("call", sorted(LADDER_WALKS))
def test_a_ladder_walk_refuses_a_tolerance_that_is_not_positive(call, tol):
    # a usage error before any work, naming the tolerance given, not a certification failure after a walk
    with pytest.raises(ValueError, match=re.escape(f"target tolerance must be positive, got {tol}")):
        LADDER_WALKS[call](tol)


NON_FINITE_CALLS = {
    "dirac.fourier": lambda bad: dirac([0.0]).fourier([bad]),
    "dirac.mollify": lambda bad: dirac([0.0]).mollify(0.1, [bad]),
    "dirac.mollify_ladder": lambda bad: dirac([0.0]).mollify_ladder([0.1], np.array([[0.0], [bad]])),
    "fourier": lambda bad: fourier(parse_preset("weierstrass:0.1"), [bad]),
    "gauss_inversion": lambda bad: gauss_inversion(parse_preset("weierstrass:0.1"), [bad], 0.1),
    "mollify": lambda bad: mollify(parse_preset("gauss:0.1"), 0.1, [bad]),
    "mollify_ladder": lambda bad: mollify_ladder(parse_preset("gauss:0.1"), [0.1], np.array([[bad]]), 1e-8),
    "modulate": lambda bad: modulate(parse_preset("gauss:0.1"), [bad], [0.0]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_a_non_finite_point_or_frequency_is_refused(call, bad):
    # a usage error before any work, not a nan value or a certification failure after a walk
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_CALLS[call](bad)


@pytest.mark.parametrize(
    "xi", [complex(0.0, math.inf), complex(0.0, math.nan), 0.5 + 1e200j], ids=["im-inf", "im-nan", "im-squared-overflows"]
)
def test_a_complex_frequency_without_a_finite_growth_is_refused(monkeypatch, xi):
    # a usage error before any walk and without an overflow warning, as a non-finite real frequency is
    monkeypatch.setattr(transforms, "_transform_table", lambda *args: pytest.fail("walked the ladder"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            fourier_complex(parse_preset("gauss:0.1"), np.array([xi]))


@pytest.mark.parametrize(
    "args, message",
    [
        (["measure-ft", "--xi-max", "inf"], "parameter 'xi_max' must give finite frequencies"),
        (["measure-ft", "--xi-max", "1e308"], "parameter 'xi_max' must give finite frequencies"),
        (["fourier", "--xi-max", "nan"], "parameter 'xi_max' must give finite frequencies"),
        (["modulate", "--etas", "nan"], "parameter 'etas': expected finite values"),
        (["modulate", "--shifts", "nan"], "parameter 'shifts': expected finite values"),
        (["invert", "--xs", "0,inf"], "parameter 'xs': expected finite values"),
    ],
    ids=["xi-max-inf", "xi-max-overflows", "xi-max-nan", "etas-nan", "shifts-nan", "xs-inf"],
)
def test_a_non_finite_list_or_axis_is_a_usage_error(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output


DIRAC_TOLERANCE_CALLS = {
    "dirac.apply": lambda tol: dirac([0.0]).apply(parse_preset("gauss:1"), tol),
    "dirac.fourier": lambda tol: dirac([0.0]).fourier([0.3], tol),
    "dirac.gauss_inversion": lambda tol: dirac([0.0]).gauss_inversion([0.0], 0.1, tol),
    "dirac.gauss_inversion_ladder": lambda tol: dirac([0.0]).gauss_inversion_ladder([0.1], [[0.0]], tol),
    "dirac.mollify": lambda tol: dirac([0.0]).mollify(0.1, [0.0], tol),
    "dirac.mollify_ladder": lambda tol: dirac([0.0]).mollify_ladder([0.1], np.array([[0.0]]), tol),
    "dirac.mollify_on_points": lambda tol: dirac([0.0]).mollify_on_points(0.1, np.array([[0.0]]), tol),
    "dirac.spectrum": lambda tol: dirac([0.0]).spectrum(tol, 1.0),
    "weak_convergence_trace": lambda tol: weak_convergence_trace(
        dirac([0.0]), parse_preset("gauss:1"), [0.1], GridSpec(6.0, 128, 1), tol
    ),
}
TOLERANCE_CALLS = {
    **DIRAC_TOLERANCE_CALLS,
    "fourier": lambda tol: fourier(parse_preset("gauss:0.1"), [0.5], tol),
    "fourier_complex": lambda tol: fourier_complex(parse_preset("gauss:0.1"), np.array([0.5 + 0.1j]), tol),
    "fourier_profile": lambda tol: fourier_profile(parse_preset("gauss:0.1"), [[0.5]], tol),
    "gauss_inversion": lambda tol: gauss_inversion(parse_preset("weierstrass:0.1"), [0.0], 0.1, tol),
    "gauss_inversion_ladder": lambda tol: gauss_inversion_ladder(parse_preset("weierstrass:0.1"), [0.1], [[0.0]], tol),
    "gauss_mean": lambda tol: gauss_mean(parse_preset("gauss:0.1"), 0.1, tol),
    "integrate_auto": lambda tol: integrate_auto(parse_preset("gauss:0.1"), tol),
    "l1_norm": lambda tol: l1_norm(parse_preset("gauss:0.1"), tol),
    "modulate": lambda tol: modulate(parse_preset("gauss:0.1"), [0.5], [0.0], tol),
    "mollify": lambda tol: mollify(parse_preset("gauss:0.1"), 0.1, [0.0], tol),
    "mollify_l1_check": lambda tol: mollify_l1_check(parse_preset("gauss:0.1"), 0.1, GridSpec(6.0, 128, 1), tol),
    "mollify_ladder": lambda tol: mollify_ladder(parse_preset("gauss:0.1"), [0.1], np.array([[0.0]]), tol),
    "multiplication_formula_check": lambda tol: multiplication_formula_check(
        parse_preset("gauss:0.1"), parse_preset("gauss:0.2"), tol
    ),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", sorted(TOLERANCE_CALLS))
def test_every_entry_refuses_a_tolerance_that_is_not_positive_and_finite(monkeypatch, call, tol):
    # a usage error before any work, on atoms-only measures too: no grid is summed and no atom is evaluated
    monkeypatch.setattr(GridSpec, "weighted_factors", lambda *args: pytest.fail("summed a grid"))
    monkeypatch.setattr(GridSpec, "blocks", lambda *args: pytest.fail("summed a grid"))
    monkeypatch.setattr(BoundedMeasure, "atom_locations", property(lambda self: pytest.fail("evaluated an atom")))
    with pytest.raises(ValueError, match=re.escape(f"target tolerance must be {'finite' if tol == math.inf else 'positive'}, got {tol}")):
        TOLERANCE_CALLS[call](tol)


def test_weak_convergence_without_alphas_has_no_samples():
    measure = measure_from_json('{"dim": 1, "atoms": [{"at": [0.3], "re": 1.0}], "density": "gauss:0.1"}')
    assert weak_convergence_trace(measure, parse_preset("gauss:1"), [], GridSpec(6.0, 128, 1)) == []


@pytest.mark.parametrize("xi", [0.5 + 12j, 0.5 + 30j])
def test_a_complex_frequency_whose_growth_overflows_is_refused_before_any_walk(monkeypatch, xi):
    # 2 pi^2 |Im xi|^2 / c exceeds log(float64 max) = 709.78 for gauss:0.1 (c = 0.4 pi^2) from |Im xi| = 12 on
    monkeypatch.setattr(transforms, "_transform_table", lambda *args: pytest.fail("walked the ladder"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=re.escape(f"at [{xi!r}]: the growth factor")):
            fourier_complex(parse_preset("gauss:0.1"), np.array([xi]))


def test_a_complex_frequency_whose_integrand_overflows_sums_to_a_non_finite_value():
    # the growth factor exp(320) is finite, but exp(2 pi 8 x) overflows at the far nodes of the ladder grids
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"'fourier\[gauss:0.1\]@complex' summed to a non-finite value"):
            fourier_complex(parse_preset("gauss:0.1"), np.array([0.5 + 8j]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: fourier(parse_preset("gauss:0.1"), [1e300]),
        lambda: fourier_profile(parse_preset("gauss:0.1"), [[1e300]]),
        lambda: measure_from_json('{"dim": 1, "atoms": [{"at": [0.3], "re": 1.0}], "density": "gauss:0.1"}').fourier([1e300]),
    ],
    ids=["fourier", "fourier_profile", "measure.fourier"],
)
def test_a_frequency_whose_norm_overflows_reaches_no_rung_without_a_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="phase cap exceeds the point ladder"):
            call()
