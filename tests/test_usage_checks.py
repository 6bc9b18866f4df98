"""Checks that must run or fail loudly: closed forms, ignored flags, dimensions."""

import math
import re
import tempfile
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import heatline
from exported_csv import import_csv
from heatline import (
    Atom,
    bump_fn,
    bump_pair_fn,
    dirac,
    experiments,
    fourier_complex,
    fourier_profile,
    gauss_fn,
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
from heatline.quadrature import (
    BoundedOnly,
    CompactSupport,
    GaussianDecay,
    GridSpec,
    PolynomialDecay,
    QuadratureError,
    TestFunction,
    integrate_auto,
    node_budget,
)
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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("preset", ["bump:1", "bumppair:0.8"])
def test_fourier_says_when_a_preset_has_no_closed_form(preset, dim):
    # with nothing to compare against, a "max residual 0.000e+00" would read as a check that ran
    table = run(ExperimentSpec(name="fourier", dim=dim, params={"preset": preset}))
    assert table.summary == f"sup bound holds; no closed form for {preset!r}; residuals not checked"
    assert [row[-1] for row in table.rows] == [""] * len(table.rows)


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
    _, rows = import_csv(out.read_bytes())
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


FLOAT_COUNTS = [
    (lambda n: GridSpec(4.0, 128, n), "dim", 2.0),
    (lambda n: GridSpec(4.0, n, 1), "points_per_axis", 128.0),
    (lambda n: BoundedMeasure(dim=n), "dim", 2.0),
    (lambda n: KernelScale(0.1, n), "dim", 2.0),
    (lambda n: TestFunction(lambda pts: np.zeros(pts.shape[0]), n, GaussianDecay(1.0, 1.0)), "dim", 1.0),
    (lambda n: gauss_fn(0.1, n), "dim", 2.0),
    (lambda n: bump_fn(1.0, n), "dim", 2.0),
    (lambda n: run(ExperimentSpec("integrate", dim=n)), "dim", 1.0),
]


def test_a_float_dim_or_point_count_is_refused_by_name():
    # 2.0 == 2, but a count is an integer: every entry keeps the one rule, points.check_dim, which a numpy
    # integer passes
    for build, name, value in FLOAT_COUNTS:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a positive integer, got {value!r}")):
            build(value)
        build(np.int64(value))


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


@pytest.mark.parametrize("xi", [0.5 + 8j, 0.5 + 9j], ids=["8i", "9i"])
def test_a_complex_frequency_whose_growth_overflows_at_far_nodes_is_not_certified(xi):
    # the growth factors exp(320) and exp(405) are finite, but exp(2 pi x Im xi) overflows at the far nodes
    # of the ladder grids; the integrand stays finite there, and the transforms' moduli, about 1.5e69 and
    # 4.2e87, are far above what an absolute tolerance of 1e-8 can certify
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=r"'fourier\[gauss:0.1\]@complex': discretization estimate never met"):
            fourier_complex(parse_preset("gauss:0.1"), np.array([xi]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: fourier(parse_preset("gauss:0.1"), [1e300]),
        lambda: fourier_profile(parse_preset("gauss:0.1"), [[1e300]]),
        lambda: measure_from_json('{"dim": 1, "atoms": [{"at": [0.3], "re": 1.0}], "density": "gauss:0.1"}').fourier([1e300]),
        # a point or an atom at 1e200: the inversion's phase rate |x| + rate overflows
        lambda: gauss_inversion_ladder(parse_preset("weierstrass:0.1"), [0.1], [[1e200]]),
        lambda: dirac([1e200]).gauss_inversion([0.0], 0.1),
    ],
    ids=["fourier", "fourier_profile", "measure.fourier", "gauss_inversion_ladder", "dirac.gauss_inversion"],
)
def test_a_frequency_whose_norm_overflows_reaches_no_rung_without_a_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="phase cap exceeds the point ladder"):
            call()


@pytest.mark.parametrize(
    "literal, named",
    [
        ('{"dim": 1, "atomz": [{"at": [0.5], "re": 1.0}]}', "'atomz'"),
        ('{"dim": 1, "atoms": [{"at": [0.5], "weight": 1.0}]}', "'weight'"),
        ('{"dim": 1, "densty": "gauss:0.1"}', "'densty'"),
        ('{"dim": 1, "atoms": {"at": [0.5], "re": 1.0}}', "atoms must be a list of objects"),
        ('{"dim": 1, "atoms": [[0.5]]}', "atoms must be a list of objects"),
        ('{"dim": 1, "atoms": [{"at": [0.5], "re": true}]}', "'re' must hold numbers, got True"),
        ('{"dim": 1, "atoms": [{"at": [0.5], "im": false}]}', "'im' must hold numbers, got False"),
        ('{"dim": 1, "atoms": [{"at": [true], "re": 1.0}]}', "'at' must hold numbers, got [True]"),
        ('{"dim": 1, "density": false}', "density must be a preset string, got False"),
    ],
    ids=["literal-key", "atom-key", "density-key", "atoms-object", "atom-list", "re-bool", "im-bool", "at-bool", "density-bool"],
)
def test_a_measure_literal_with_an_unknown_key_or_a_boolean_number_is_refused_by_name(runner, literal, named):
    # a misspelt key would drop its part (atomz left the zero measure, which passed), and a boolean is no weight
    with pytest.raises(ValueError, match=re.escape(named)):
        measure_from_json(literal)
    result = runner.invoke(main, ["measure-ft", "--measure", literal])
    assert result.exit_code == 2, result.output
    assert named in result.output


def _three_peak(pts: np.ndarray) -> np.ndarray:
    """3 exp(-pi |x|^2): it reaches 3.0 at the origin."""
    return 3.0 * np.exp(-np.pi * np.sum(pts * pts, axis=1))


def test_a_declared_sup_bound_is_checked_and_used(monkeypatch):
    envelope = GaussianDecay(np.pi, 3.0)
    with pytest.raises(ValueError, match="exceeds its declared sup bound 0.5"):
        TestFunction(_three_peak, 1, envelope, sup_bound=0.5, name="three-peak")
    # a bound no spot check can refute is refused outright
    for bound in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="sup_bound must be finite and nonnegative"):
            TestFunction(_three_peak, 1, envelope, sup_bound=bound)
    f = TestFunction(_three_peak, 1, envelope, sup_bound=3.0, name="three-peak")
    assert f.bounded
    # mollify takes the bounded branch: its walk is certified by the sup bound times the kernel peak
    walks = []
    walk_ladders = transforms.walk_ladders

    def recorded(grid_sums, envelopes, *args):
        walks.append(envelopes)
        return walk_ladders(grid_sums, envelopes, *args)

    monkeypatch.setattr(transforms, "walk_ladders", recorded)
    alpha = 0.1
    mollify(f, alpha, [0.0])
    assert walks == [[GaussianDecay(1.0 / (4.0 * alpha), 3.0 * transforms.weierstrass_peak(KernelScale(alpha, 1)))]]
    assert dirac([0.0]).apply(f) == 3.0


def _budget(raw: str) -> int:
    """node_budget() with HEATLINE_BUDGET set to raw."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HEATLINE_BUDGET", raw)
        return node_budget()


def _cli(*args: str) -> None:
    """The console command on args, raising click's usage errors instead of exiting."""
    main.main(list(args), standalone_mode=False, prog_name="heatline")


def _cli_with_config(text: str) -> None:
    """``heatline fourier --config`` on a config file holding text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        _cli("fourier", "--config", str(path))


def _polynomial() -> TestFunction:
    """(1 + x^2)^-8 under PolynomialDecay(16, 2^8): integrable, but neither Gaussian nor compact."""
    return TestFunction(lambda pts: (1.0 + pts[:, 0] ** 2) ** -8.0, 1, PolynomialDecay(16.0, 2.0**8), name="poly")


def _flat() -> TestFunction:
    """A constant with no sup bound declared: neither bounded nor certified integrable."""
    return TestFunction(lambda pts: np.ones(pts.shape[0]), 1, BoundedOnly(1.0), name="flat")


def _unbounded() -> TestFunction:
    """gauss:0.1 with no sup bound declared."""
    g = gauss_fn(0.1)
    return TestFunction(g.f, 1, g.envelope, name="unbounded")


# usage refusals no other test raises: (call, exception class, the message, after a config file's path and line)
REFUSALS = {
    "GaussianDecay": (lambda: GaussianDecay(0.0, 1.0), ValueError, "GaussianDecay needs rate > 0 and scale > 0"),
    "PolynomialDecay": (lambda: PolynomialDecay(2.0, 0.0), ValueError, "PolynomialDecay needs power > 0 and scale > 0"),
    "CompactSupport": (lambda: CompactSupport(-1.0), ValueError, "CompactSupport needs radius > 0"),
    "BoundedOnly": (lambda: BoundedOnly(0.0), ValueError, "BoundedOnly needs bound > 0"),
    "budget-not-integer": (lambda: _budget("1e6"), QuadratureError, "HEATLINE_BUDGET must be an integer, got '1e6'"),
    "budget-too-small": (lambda: _budget("7"), QuadratureError, "HEATLINE_BUDGET too small: 7"),
    "scaled-by-zero": (lambda: gauss_fn(0.1).scaled(0), ValueError, "scaling factor must be nonzero"),
    "shifted-wrong-length": (
        lambda: gauss_fn(0.1, 2).shifted([0.5]), ValueError, "offset has dimension 1, expected 2",
    ),
    "fourier_complex-shape": (
        lambda: fourier_complex(gauss_fn(0.1, 2), [0.5j]), ValueError, "expected a frequency of dimension 2, got shape (1,)",
    ),
    "gauss_mean-unbounded-unintegrable": (
        lambda: gauss_mean(_flat(), 0.1),
        QuadratureError,
        "the Gauss mean of 'flat' needs a bounded or integrable-certified function",
    ),
    "mollify_l1_check-dim": (
        lambda: mollify_l1_check(gauss_fn(0.1), 0.1, GridSpec(4.0, 16, 2)),
        ValueError,
        "dimension mismatch: function 1, grid 2",
    ),
    "mollify_l1_check-compact-without-sup": (
        lambda: mollify_l1_check(TestFunction(bump_fn(1.0).f, 1, CompactSupport(1.0)), 0.1, GridSpec(4.0, 16, 1)),
        QuadratureError,
        "a compactly supported integrand needs a sup bound here",
    ),
    "mollify_l1_check-envelope": (
        lambda: mollify_l1_check(_polynomial(), 0.1, GridSpec(4.0, 16, 1)),
        QuadratureError,
        "the L1 check of 'poly' needs a Gaussian or compact envelope",
    ),
    "multiplication-dim": (
        lambda: multiplication_formula_check(gauss_fn(0.1), gauss_fn(0.1, 2)), ValueError, "dimension mismatch: 1 vs 2",
    ),
    "multiplication-envelope": (
        lambda: multiplication_formula_check(_polynomial(), gauss_fn(0.1)),
        QuadratureError,
        "the multiplication formula needs Gaussian or compact envelopes, got PolynomialDecay for 'poly'",
    ),
    "atom-non-finite": (lambda: Atom((math.nan,), 1.0), ValueError, "atom location and weight must be finite"),
    "density-dim": (
        lambda: BoundedMeasure(dim=2, density=gauss_fn(0.1)), ValueError, "density dimension does not match the measure",
    ),
    "apply-dim": (
        lambda: dirac([0.0]).apply(gauss_fn(0.1, 2)), ValueError, "dimension mismatch: measure 1, function 2",
    ),
    "apply-unbounded": (
        lambda: dirac([0.0]).apply(_unbounded()),
        ValueError,
        "measures act on bounded functions; 'unbounded' declares no sup bound",
    ),
    "weak-dim": (
        lambda: weak_convergence_trace(dirac([0.0]), gauss_fn(0.1, 2), [0.1], GridSpec(4.0, 16, 2)),
        ValueError,
        "dimension mismatch between measure, test function, and grid",
    ),
    "weak-unbounded": (
        lambda: weak_convergence_trace(dirac([0.0]), _unbounded(), [0.1], GridSpec(4.0, 16, 1)),
        ValueError,
        "weak convergence is tested against bounded functions",
    ),
    "measure-literal-not-an-object": (
        lambda: measure_from_json("[1, 2]"), ValueError, "measure literal must be a JSON object",
    ),
    "bump-radius": (lambda: bump_fn(0.0), ValueError, "bump radius must be positive, got 0.0"),
    "bumppair-parameters": (
        lambda: bump_pair_fn(0.8, separation=-1.0), ValueError, "bump pair needs radius > 0 and separation > 0",
    ),
    "preset-parameter": (lambda: parse_preset("gauss:wide"), ValueError, "bad preset parameter in 'gauss:wide'"),
    "cli-number-list": (
        lambda: _cli("invert", "--alphas", "0.1,x"),
        click.BadParameter,
        "expected a comma-separated list of numbers, got '0.1,x'",
    ),
    "cli-unreadable-measure-file": (
        lambda: _cli("measure-ft", "--measure", "@/nonexistent/measure.json"),
        click.BadParameter,
        "cannot read the measure literal '/nonexistent/measure.json': No such file or directory",
    ),
    "cli-config-line-without-equals": (
        lambda: _cli_with_config("tol 1e-8\n"), click.UsageError, "expected key = value, got 'tol 1e-8'",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_a_usage_refusal_raises_its_class_and_names_its_cause(name):
    call, cls, message = REFUSALS[name]
    with pytest.raises(cls) as refused:
        call()
    assert type(refused.value) is cls
    assert str(refused.value).endswith(message)
