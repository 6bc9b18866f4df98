"""Checks that must run or fail loudly: closed forms, ignored flags, dimensions."""

import math

import numpy as np
import pytest
from click.testing import CliRunner

import heatline
from heatline import experiments, measure_from_json, mollify, parse_preset
from heatline.catalog import closed_form
from heatline.cli import main
from heatline.experiments import ExperimentSpec, export, run
from heatline.quadrature import integrate_auto
from heatline.transforms import fourier


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
