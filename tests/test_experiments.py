"""Experiment registry, table exports, and reproducibility."""

import json

import pytest

from heatline.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    ResultTable,
    export,
    export_csv,
    export_json,
    import_csv,
    run,
)
from heatline.quadrature import QuadratureError


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown experiment"):
        run(ExperimentSpec(name="mystery"))


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_registered_experiment_passes_with_defaults(name):
    table = run(ExperimentSpec(name=name))
    assert table.passed, table.summary
    assert table.rows
    assert all(len(row) == len(table.columns) for row in table.rows)


# The cells of the dims table that refuse today, with their exact refusal.  Each is a strict xfail,
# so a cell that starts to pass fails until its entry is removed here, and a cell that refuses with
# another text fails outright.
_ONE_DIM = {"invert": "inversion", "mollify": "mollify", "modulate": "modulation"}
_MEASURES = ("measure-ft", "measure-invert", "weak-convergence")
REFUSALS = {
    **{(name, dim): (ValueError, f"the {what} experiment runs in dimension 1") for name, what in _ONE_DIM.items() for dim in (2, 3)},
    ("multiplication", 2): (QuadratureError, "sampled-transform evaluation exceeds the matrix budget"),
    ("multiplication", 3): (
        QuadratureError,
        "tolerance unreachable at budget for 'gauss:0.05': discretization estimate never met the tolerance",
    ),
    **{
        (name, dim): (
            ValueError,
            f"experiment {name!r}, parameter 'measure': the measure literal has dim 1, but dim {dim} was requested",
        )
        for name in _MEASURES
        for dim in (2, 3)
    },
}


def _dims_cells():
    for name in EXPERIMENTS:
        for dim in (1, 2, 3):
            refusal = REFUSALS.get((name, dim))
            marks = () if refusal is None else pytest.mark.xfail(raises=refusal[0], strict=True, reason=refusal[1])
            yield pytest.param(name, dim, refusal, marks=marks, id=f"{name}-d{dim}")


@pytest.mark.parametrize("name, dim, refusal", list(_dims_cells()))
def test_default_spec_in_every_dimension(name, dim, refusal):
    """The dims table: each experiment's default spec at dims 1-3 passes, or refuses with the recorded text."""
    try:
        table = run(ExperimentSpec(name, dim))
    except Exception as exc:
        assert refusal is not None and (type(exc), str(exc)) == refusal, f"{type(exc).__name__}: {exc}"
        raise
    assert table.passed, table.summary
    assert table.config["dim"] == dim


def test_repeated_runs_export_identical_bytes():
    spec = ExperimentSpec(name="multiplication", params={"a": 0.05, "b": 0.2})
    first = run(spec)
    second = run(spec)
    assert export(first, "csv") == export(second, "csv")
    assert export(first, "json") == export(second, "json")


def test_empty_table_exports_header_only():
    table = ResultTable(
        name="empty", columns=["a", "b"], rows=[], config={}, passed=True, summary=""
    )
    data = export_csv(table)
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    assert lines == ["a,b"]


def test_csv_round_trip():
    table = run(ExperimentSpec(name="measure-ft", params={"xi_count": 5}))
    columns, rows = import_csv(export_csv(table))
    assert columns == table.columns
    assert len(rows) == len(table.rows)
    for got, want in zip(rows, table.rows):
        for g, w in zip(got, want):
            if isinstance(w, float):
                assert g == w
            else:
                assert str(g) == str(w) or g == w


def test_single_row_round_trip():
    table = ResultTable(
        name="one",
        columns=["x", "value"],
        rows=[[0.5, 0.7283656203947194]],
        config={"tol": 1e-6},
        passed=True,
        summary="",
    )
    columns, rows = import_csv(export_csv(table))
    assert columns == ["x", "value"]
    assert rows == [[0.5, 0.7283656203947194]]


def test_json_export_matches_the_documented_schema():
    table = run(ExperimentSpec(name="integrate", params={"preset": "gauss:0.1"}))
    payload = json.loads(export_json(table))
    assert set(payload) == {"experiment", "version", "passed", "config", "columns", "rows"}
    assert payload["experiment"] == "integrate"
    assert isinstance(payload["passed"], bool)
    assert isinstance(payload["columns"], list)
    assert all(len(row) == len(payload["columns"]) for row in payload["rows"])


def test_export_rejects_unknown_format():
    table = ResultTable(name="x", columns=[], rows=[], config={}, passed=True, summary="")
    with pytest.raises(ValueError, match="format"):
        export(table, "xml")


def test_wall_time_never_reaches_the_export():
    spec = ExperimentSpec(name="measure-ft")
    table = run(spec)
    assert table.wall_time_s > 0.0
    body = export(table, "json").decode() + export(table, "csv").decode()
    assert "wall" not in body


def test_forced_measure_value_row():
    table = run(ExperimentSpec(name="measure-ft"))
    by_xi = {row[0]: row for row in table.rows}
    assert by_xi[1.0][1] == pytest.approx(-1.0, abs=1e-12)
    assert by_xi[1.0][2] == pytest.approx(0.0, abs=1e-12)


def test_invert_experiment_reports_nonincreasing_errors():
    table = run(ExperimentSpec(name="invert", params={"xs": [0.0], "tol": 1e-6}))
    errors = [row[-1] for row in table.rows]
    assert all(errors[k + 1] <= errors[k] for k in range(len(errors) - 1))
