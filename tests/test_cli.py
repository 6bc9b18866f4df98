"""CLI flags, config files, exports, and exit codes."""

import json

import pytest
from click.testing import CliRunner

from heatline import experiments
from heatline.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_verify_kernels_exits_zero(runner):
    result = runner.invoke(main, ["verify-kernels", "--alphas", "0.1"])
    assert result.exit_code == 0, result.output
    assert "PASS verify-kernels" in result.output


def test_csv_export_is_byte_identical_across_runs(runner, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        result = runner.invoke(
            main, ["verify-kernels", "--alphas", "0.1", "--out", str(path)]
        )
        assert result.exit_code == 0, result.output
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_export_parses(runner, tmp_path):
    out = tmp_path / "table.json"
    result = runner.invoke(
        main, ["integrate", "--f", "weierstrass:0.1", "--format", "json", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "integrate"
    assert payload["passed"] is True


def test_config_file_supplies_defaults_and_flags_win(runner, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# tolerances\nalphas = 0.05,0.1\ntol = 1e-6\n")
    out_cfg = tmp_path / "from_config.csv"
    result = runner.invoke(
        main, ["verify-kernels", "--config", str(config), "--out", str(out_cfg)]
    )
    assert result.exit_code == 0, result.output
    _, rows = experiments.import_csv(out_cfg.read_bytes())
    assert {row[0] for row in rows} == {0.05, 0.1}

    out_flag = tmp_path / "flag_wins.csv"
    result = runner.invoke(
        main,
        ["verify-kernels", "--config", str(config), "--alphas", "0.5", "--out", str(out_flag)],
    )
    assert result.exit_code == 0, result.output
    _, rows = experiments.import_csv(out_flag.read_bytes())
    assert {row[0] for row in rows} == {0.5}


def test_measure_literal_from_file(runner, tmp_path):
    literal = tmp_path / "measure.json"
    literal.write_text('{"dim": 1, "atoms": [{"at": [0.5], "re": 1.0}]}')
    result = runner.invoke(main, ["measure-ft", "--measure", f"@{literal}"])
    assert result.exit_code == 0, result.output


def test_bad_preset_is_a_usage_error(runner):
    result = runner.invoke(main, ["integrate", "--f", "mystery:1"])
    assert result.exit_code == 2
    assert "preset" in result.output


def test_unknown_option_is_a_usage_error(runner):
    result = runner.invoke(main, ["integrate", "--bogus"])
    assert result.exit_code == 2


def test_unreachable_tolerance_exits_one(runner):
    result = runner.invoke(main, ["modulate", "--tol", "1e-18"])
    assert result.exit_code == 1
    assert "error running" in result.output


def test_failed_check_exits_one(runner, monkeypatch):
    def always_fails(spec):
        return experiments.ResultTable(
            name=spec.name, columns=["v"], rows=[[1.0]], config={}, passed=False,
            summary="forced failure",
        )

    monkeypatch.setitem(experiments.EXPERIMENTS, "verify-kernels", always_fails)
    result = runner.invoke(main, ["verify-kernels"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_budget_env_var_reaches_the_engine(runner, monkeypatch):
    monkeypatch.setenv("HEATLINE_BUDGET", "64")
    result = runner.invoke(main, ["integrate", "--f", "weierstrass:0.1"])
    assert result.exit_code == 1
    # the budget admits no rung of the point ladder, and the reason says so (the integrand has no phase)
    assert "the node budget (64 nodes) admits no rung of the point ladder" in result.output


@pytest.mark.parametrize("tol, code", [(None, 1), ("0.5", 0)])
def test_a_fixed_grid_integral_passes_only_within_its_tolerance(runner, tol, code):
    # 16 intervals on [-4, 4] leave an error budget of about 0.197: above the default 1e-8, within 0.5
    args = ["integrate", "--radius", "4", "--points", "16"]
    result = runner.invoke(main, args + (["--tol", tol] if tol else []))
    assert result.exit_code == code, result.output
    assert ("PASS" if code == 0 else "FAIL") in result.output


@pytest.mark.parametrize("points, code", [("128", 1), ("1024", 0)])
def test_weak_convergence_passes_only_within_its_outer_budget(runner, points, code):
    # on 128 intervals the outer sums of an atom at 0.05 carry budgets of 2.0e-2 to 1.3e-1, far above
    # the default tol of 1e-6, while no closed-form column checks an atom off the origin
    literal = '{"dim": 1, "atoms": [{"at": [0.05], "re": 1.0}]}'
    result = runner.invoke(main, ["weak-convergence", "--points", points, "--measure", literal])
    assert result.exit_code == code, result.output
    assert ("max outer budget" in result.output) and (("> tol 1e-06" in result.output) == (code == 1))


@pytest.mark.parametrize(
    "args, named",
    [
        (["integrate", "--radius", "6", "--points", "130"], "multiple of 4"),
        (["weak-convergence", "--points", "130"], "multiple of 4"),
        (["integrate", "--radius", "inf", "--points", "128"], "got inf"),
        (["measure-ft", "--measure", '{"dim": 1.5, "atoms": [{"at": [0.5], "re": 1.0}]}'], "got 1.5"),
        (["measure-ft", "--measure", '{"dim": true, "atoms": [{"at": [0.5], "re": 1.0}]}'], "got True"),
    ],
)
def test_an_invalid_grid_or_literal_is_a_usage_error_naming_it(runner, args, named):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert named in result.output


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_format_without_out_is_a_usage_error(runner, tmp_path, source):
    # there is no export for --format to choose the format of: it would be accepted and ignored
    config = tmp_path / "run.cfg"
    config.write_text("format = json\n")
    args = ["fourier", "--format", "json"] if source == "flag" else ["fourier", "--config", str(config)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "--format chooses the export format of --out" in result.output
    assert "PASS" not in result.output
