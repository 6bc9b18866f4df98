"""One parameter declaration per experiment drives run(), the CLI and config files."""

import pytest
from click.testing import CliRunner

from exported_csv import import_csv
from heatline.cli import main
from heatline.experiments import EXPERIMENTS, PARAMS, ExperimentSpec, export, run
from heatline.measures import BoundedMeasure

SHARED_FLAGS = {"--dim", "--out", "--format", "--config"}

UNDECLARED = [
    ("mollify", "radius", 0.001),
    ("invert", "alpha", 0.05),
    ("mollify", "alhpa", 7.0),
]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.mark.parametrize("name, key, value", UNDECLARED)
def test_library_rejects_an_undeclared_parameter(name, key, value):
    with pytest.raises(ValueError, match=f"takes no parameter '{key}'"):
        run(ExperimentSpec(name=name, params={key: value}))


@pytest.mark.parametrize("name, key, value", UNDECLARED)
def test_undeclared_config_key_is_a_usage_error(runner, tmp_path, name, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    result = runner.invoke(main, [name, "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert f"takes no {key}" in result.output


@pytest.mark.parametrize("args", [
    ["verify-kernels", "--alpha", "0.3", "--alphas", "0.1"],
    ["invert", "--alpha", "0.05"],
])
def test_alpha_is_not_an_alias_of_alphas(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output


def test_integrate_takes_radius_and_points_together():
    with pytest.raises(ValueError, match="together"):
        run(ExperimentSpec(name="integrate", params={"radius": 6.0}))
    with pytest.raises(ValueError, match="together"):
        run(ExperimentSpec(name="integrate", params={"points": 256}))


def test_a_value_of_the_wrong_type_names_its_parameter():
    with pytest.raises(ValueError, match="'xi_count'"):
        run(ExperimentSpec(name="fourier", params={"xi_count": "many"}))


def test_config_keys_are_flag_names(runner, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("f = gauss:0.2\nxi_count = 5\nxi-max = 1\n")
    out = tmp_path / "fourier.csv"
    result = runner.invoke(main, ["fourier", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    data = out.read_bytes()
    assert b'"preset": "gauss:0.2"' in data
    _, rows = import_csv(data)
    assert [row[0] for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    config.write_text("preset = gauss:0.1\n")
    result = runner.invoke(main, ["fourier", "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert "takes no preset" in result.output


def test_every_experiment_has_exactly_one_subcommand():
    assert sorted(main.commands) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_cli_agrees_with_the_schema_and_the_library(runner, tmp_path, name):
    flags = {flag for option in main.commands[name].params for flag in option.opts}
    assert flags == {param.option for param in PARAMS[name]} | SHARED_FLAGS

    out = tmp_path / f"{name}.csv"
    result = runner.invoke(main, [name, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == export(run(ExperimentSpec(name=name)), "csv")


def test_an_int_parameter_refuses_a_fractional_value():
    with pytest.raises(ValueError, match="'xi_count'"):
        run(ExperimentSpec(name="fourier", params={"xi_count": 5.7}))
    assert len(run(ExperimentSpec(name="fourier", params={"xi_count": 5})).rows) == 5


# a value other than the default for every declared parameter but the measure literal, typed
NON_DEFAULT = {
    "verify-kernels": {"alphas": [0.2], "tol": 2e-6},
    "integrate": {"preset": "gauss:0.2", "tol": 1e-7, "radius": 6.0, "points": 256},
    "fourier": {"preset": "gauss:0.2", "tol": 2e-6, "xi_max": 1.0, "xi_count": 5},
    "invert": {"preset": "gauss:0.1", "alphas": [0.1, 0.05], "xs": [0.25], "tol": 2e-6},
    "mollify": {"preset": "gauss:0.1", "alpha": 0.05, "xs": [0.0, 0.5], "tol": 2e-6},
    "multiplication": {"a": 0.1, "b": 0.1, "tol": 2e-6},
    "modulate": {"preset": "gauss:0.2", "tol": 2e-6, "shifts": [0.25], "etas": [0.0, 0.5]},
    "measure-ft": {"tol": 1e-7, "xi_max": 1.0, "xi_count": 5},
    "measure-invert": {"tol": 2e-6, "alphas": [0.1], "xs": [0.0, 0.5]},
    "weak-convergence": {"h": "gauss:0.5", "tol": 2e-6, "alphas": [0.1, 0.05], "radius": 8.0, "points": 512},
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_the_config_echoes_every_parameter(name):
    # an export can be re-run from its config line only if the line holds every parameter
    echoed = [param for param in PARAMS[name] if param.type is not BoundedMeasure]
    values = NON_DEFAULT[name]
    assert sorted(values) == sorted(param.name for param in echoed)
    for param in echoed:
        default = param.default(1) if callable(param.default) else param.default
        assert values[param.name] != default, param.name
    table = run(ExperimentSpec(name, params=values))
    assert {key: table.config[key] for key in values} == values
