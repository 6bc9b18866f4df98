"""Experiment registry, table exports, and reproducibility."""

import json

import numpy as np
import pytest

from exported_csv import import_csv
from heatline import measure_from_json, parse_preset, quadrature
from heatline.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    ResultTable,
    _xi_axis_points,
    export,
    export_csv,
    export_json,
    run,
)
from heatline.quadrature import QuadratureError
from heatline.transforms import fourier, modulate, mollify, mollify_ladder


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


_DENSITY_MEASURE = {
    1: '{"dim": 1, "atoms": [{"at": [0.3], "re": 1.0}], "density": "gauss:0.1"}',
    2: '{"dim": 2, "atoms": [{"at": [0.3, 0.0], "re": 1.0}], "density": "gauss:0.1"}',
}


@pytest.mark.parametrize(
    "name, dim, params",
    [
        ("invert", 1, {}),
        ("invert", 1, {"preset": "bump:1"}),
        ("measure-invert", 1, {"measure": _DENSITY_MEASURE[1]}),
        ("measure-invert", 2, {"measure": _DENSITY_MEASURE[2]}),
        ("multiplication", 1, {}),
        ("multiplication", 2, {}),
    ],
    ids=["invert", "invert-unfactored", "measure-invert", "measure-invert-d2", "multiplication", "multiplication-d2"],
)
def test_every_sampled_spectrum_block_takes_the_fft(monkeypatch, name, dim, params):
    """Each outer block a sampled spectrum is asked for is a ladder lattice: no phase matrix is built for it."""
    taken = []
    lattice_sum = quadrature.GridSpec._lattice_sum

    def recorded(grid, values, xi):
        sums = lattice_sum(grid, values, xi)
        taken.append(sums is not None)
        return sums

    monkeypatch.setattr(quadrature.GridSpec, "_lattice_sum", recorded)
    table = run(ExperimentSpec(name, dim, params))
    assert table.passed, table.summary
    assert taken and all(taken), f"{taken.count(False)} of {len(taken)} blocks took the phase sum"


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


def test_a_numpy_scalar_cell_exports_as_a_number():
    # under numpy 2, repr(np.float64(0.1)) is "np.float64(0.1)"; str gives "0.1", as json does
    table = ResultTable(name="np", columns=["x"], rows=[[np.float64(0.1)]], config={}, passed=True, summary="")
    assert export_csv(table).decode().splitlines()[-1] == "0.1"
    assert json.loads(export_json(table))["rows"] == [[0.1]]
    assert import_csv(export_csv(table)) == (["x"], [[0.1]])


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


# -- batched runners: one ladder call per table, each row the library's one-point call ----------


def _column(table: ResultTable, name: str) -> list:
    return [row[table.columns.index(name)] for row in table.rows]


def _complex_column(table: ResultTable, re: str, im: str) -> np.ndarray:
    return np.array([complex(a, b) for a, b in zip(_column(table, re), _column(table, im))])


MOLLIFY_SPECS = [{}, {"preset": "gauss:0.2", "alpha": 0.05, "xs": [float(x) for x in np.linspace(-1.5, 1.5, 13)]}]


@pytest.mark.parametrize("params", MOLLIFY_SPECS, ids=["default", "gauss"])
def test_each_mollify_row_is_the_one_point_call(params):
    table = run(ExperimentSpec("mollify", params=params))
    f = parse_preset(table.config["preset"], 1)
    want = [mollify(f, table.config["alpha"], [x], table.config["tol"] / 4.0) for x in _column(table, "x")]
    assert _complex_column(table, "value_re", "value_im").tobytes() == np.array(want).tobytes()


INVERT_SPECS = [{}, {"preset": "gauss:0.1", "alphas": [0.2, 0.1, 0.05, 0.025], "xs": [-0.7, 0.3]}]


@pytest.mark.parametrize("params", INVERT_SPECS, ids=["default", "gauss"])
def test_each_smoothed_invert_column_is_the_one_point_ladder(params):
    table = run(ExperimentSpec("invert", params=params))
    config = table.config
    f = parse_preset(config["preset"], 1)
    got = _complex_column(table, "mollified_re", "mollified_im").reshape(len(config["xs"]), len(config["alphas"]))
    for x, column in zip(config["xs"], got):
        want = mollify_ladder(f, config["alphas"], np.array([[x]]), config["tol"] / 4.0)[:, 0]
        assert column.tobytes() == want.tobytes()


MEASURE = '{"dim": 1, "atoms": [{"at": [0.3], "re": 1.0}, {"at": [-0.6], "re": -0.4, "im": 0.2}], "density": "gauss:0.1"}'


def test_each_smoothed_measure_invert_column_is_the_one_point_ladder():
    # the atoms' kernel sum is a matrix product over the batch, which BLAS may round differently for one point
    table = run(ExperimentSpec("measure-invert", params={"measure": MEASURE}))
    config, measure = table.config, measure_from_json(MEASURE)
    got = _complex_column(table, "mollified_re", "mollified_im").reshape(len(config["alphas"]), len(config["xs"]))
    for i, x in enumerate(config["xs"]):
        want = measure.mollify_ladder(config["alphas"], np.array([[x]]), config["tol"] / 4.0)[:, 0]
        assert np.max(np.abs(got[:, i] - want)) <= 1e-15


def test_each_modulate_row_is_the_one_frequency_call():
    # the walks on one grid share a phase sum, which BLAS rounds differently over several columns
    params = {"preset": "gauss:0.05", "shifts": [-0.3, 0.0, 0.45], "etas": [-0.5, 0.1, 0.4, 1.5]}
    table = run(ExperimentSpec("modulate", params=params))
    h, tol = parse_preset("gauss:0.05", 1), table.config["tol"] / 4.0
    pairs = list(zip(_column(table, "a"), _column(table, "eta")))
    assert pairs == [(a, eta) for a in params["shifts"] for eta in params["etas"]]
    direct = [modulate(h, [a], [eta], tol) for a, eta in pairs]
    shifted = [fourier(h, [eta - a], tol) for a, eta in pairs]
    assert np.max(np.abs(_complex_column(table, "modulated_re", "modulated_im") - direct)) <= 1e-15
    assert np.max(np.abs(_complex_column(table, "shifted_re", "shifted_im") - shifted)) <= 1e-15


@pytest.mark.parametrize("literal", [None, MEASURE], ids=["default", "density"])
def test_each_measure_ft_row_is_the_one_frequency_call(literal):
    params = {} if literal is None else {"measure": literal}
    table = run(ExperimentSpec("measure-ft", params=params))
    measure = measure_from_json(literal or '{"dim": 1, "atoms": [{"at": [0.5], "re": 1.0}]}')
    want = [measure.fourier([xi], table.config["tol"]) for xi in _column(table, "xi1")]
    assert np.max(np.abs(_complex_column(table, "value_re", "value_im") - want)) <= 1e-15


@pytest.mark.parametrize("count", [1, 2, 5, 20, 21, 41])
def test_the_frequency_axis_is_mirrored_as_a_grid_is(count):
    pts = _xi_axis_points(2.0, count, 2)
    axis, spaced = pts[:, 0], np.linspace(-2.0, 2.0, count)
    assert not pts[:, 1].any()
    half = count // 2
    # np.linspace's lower half, negated above the centre, within an ulp of np.linspace
    assert axis[:half].tobytes() == spaced[:half].tobytes()
    assert (-axis[count - half:][::-1]).tobytes() == axis[:half].tobytes()
    assert np.max(np.abs(axis - spaced)) <= np.spacing(2.0)
    if count % 2 and count > 1:
        assert axis[half] == 0.0 and not np.signbit(axis[half])
        assert quadrature._mirrored(axis)  # so its phase matrices take the quarter path
    if count == 1:
        assert axis.tolist() == [-2.0]  # a single sample sits where np.linspace puts it


@pytest.mark.parametrize("name", ["fourier", "measure-ft"])
@pytest.mark.parametrize("count", [0, -3])
def test_a_frequency_count_below_one_is_refused(name, count):
    with pytest.raises(ValueError, match="'xi_count' must be at least 1"):
        run(ExperimentSpec(name, params={"xi_count": count}))
