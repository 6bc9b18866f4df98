"""Default-spec exports against committed goldens, and run-to-run determinism.

The goldens under ``tests/goldens/`` are the CSV exports of every registered
experiment at dim 1, plus ``integrate``, ``fourier``, ``verify-kernels`` and
``multiplication`` at dim 2 and ``fourier``, ``integrate`` and
``verify-kernels`` at dim 3, all with default parameters.  A refactor of the engine must
reproduce them: text cells exactly, numeric cells (including the numbers
inside the ``# config=`` JSON line) to 1e-14 absolute.

Regenerate with ``PYTHONPATH=src python tests/test_goldens.py`` only when a
change of the reported numbers is intended.
"""

import json
import math
from pathlib import Path

import pytest

from heatline.experiments import EXPERIMENTS, ExperimentSpec, export, run

GOLDEN_DIR = Path(__file__).parent / "goldens"
CASES = [(name, 1) for name in sorted(EXPERIMENTS)] + [
    ("integrate", 2),
    ("fourier", 2),
    ("verify-kernels", 2),
    ("multiplication", 2),
    ("fourier", 3),
    ("integrate", 3),
    ("verify-kernels", 3),
]
ABS_TOL = 1e-14


def _golden_path(name: str, dim: int) -> Path:
    return GOLDEN_DIR / f"{name}-d{dim}.csv"


def _export(name: str, dim: int) -> bytes:
    return export(run(ExperimentSpec(name=name, dim=dim)), "csv")


def _as_number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _assert_close(got, want, where: str) -> None:
    """Structural equality with numbers compared to ABS_TOL."""
    if isinstance(want, bool) or isinstance(got, bool):
        assert got == want, where
    elif isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isnan(want):
            assert math.isnan(got), f"{where}: {got!r} vs nan"
        else:
            assert abs(got - want) <= ABS_TOL, f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    else:
        assert got == want, f"{where}: {got!r} vs {want!r}"


def _cell(text: str):
    number = _as_number(text)
    return text if number is None else number


def _compare_csv(got: bytes, want: bytes, label: str) -> None:
    got_lines = got.decode("utf-8").splitlines()
    want_lines = want.decode("utf-8").splitlines()
    assert len(got_lines) == len(want_lines), f"{label}: line count"
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        where = f"{label}:{lineno}"
        if w.startswith("# config="):
            assert g.startswith("# config="), where
            _assert_close(json.loads(g[len("# config="):]), json.loads(w[len("# config="):]), where)
        elif w.startswith("#"):
            assert g == w, where
        else:
            g_cells, w_cells = g.split(","), w.split(",")
            assert len(g_cells) == len(w_cells), f"{where}: cell count"
            for k, (gc, wc) in enumerate(zip(g_cells, w_cells)):
                _assert_close(_cell(gc), _cell(wc), f"{where}[{k}]")


@pytest.mark.parametrize("name,dim", CASES, ids=[f"{n}-d{d}" for n, d in CASES])
def test_default_export_matches_golden(name, dim):
    _compare_csv(_export(name, dim), _golden_path(name, dim).read_bytes(), f"{name}-d{dim}")


@pytest.mark.parametrize("name,dim", [("invert", 1), ("verify-kernels", 1), ("verify-kernels", 2), ("verify-kernels", 3)])
def test_two_runs_export_identical_bytes(name, dim):
    assert _export(name, dim) == _export(name, dim)


def test_comparison_catches_a_numeric_drift():
    want = _golden_path("integrate", 1).read_bytes()
    lines = want.decode("utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-12)
    drifted = ("\n".join([*lines[:-1], ",".join(cells)]) + "\n").encode("utf-8")
    with pytest.raises(AssertionError):
        _compare_csv(drifted, want, "drift")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        _golden_path(*case).write_bytes(_export(*case))
        print(f"wrote {_golden_path(*case)}")
