"""Registered verification experiments and their result tables.

Each experiment drives one identity of the library at desk scale and
returns a ResultTable whose rows carry the inputs that produced them.
Grids, ladders, and seeds are fixed, so a given spec always produces the
same table; exports omit wall time so repeated runs are byte-identical.
Each experiment declares its parameters once (``PARAMS``): ``run`` rejects
an undeclared key, fills in defaults and applies the declared types, and the
CLI builds its subcommands and config-file keys from the same declarations.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable

import numpy as np

from . import __version__
from .catalog import closed_form, gauss_fn, parse_preset, weierstrass_fn
from .kernels import KernelScale, gauss, weierstrass
from .measures import BoundedMeasure, measure_from_json, weak_convergence_trace
from .quadrature import GridSpec, TensorGrid, integrate, integrate_auto, l1_norm
from .transforms import (
    fourier,
    fourier_complex,
    fourier_profile,
    gauss_inversion,
    mollify,
    mollify_l1_check,
    modulate,
    multiplication_formula_check,
)

@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment name with its dimension and parameter map.

    ``dim`` None means 1, or for a measure experiment the measure's own dim.
    """

    name: str
    dim: int | None = None
    params: dict = field(default_factory=dict)


@dataclass
class ResultTable:
    """Columns and rows of one experiment run, plus a reproducible config echo."""

    name: str
    columns: list[str]
    rows: list[list]
    config: dict
    passed: bool
    summary: str
    wall_time_s: float = 0.0


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def export_csv(table: ResultTable) -> bytes:
    """CSV with '#' metadata lines; '.' decimal separator, no locale."""
    lines = [
        f"# experiment={table.name}",
        f"# version={__version__}",
        f"# passed={'true' if table.passed else 'false'}",
        f"# config={json.dumps(table.config, sort_keys=True)}",
        ",".join(table.columns),
    ]
    for row in table.rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def export_json(table: ResultTable) -> bytes:
    payload = {
        "experiment": table.name,
        "version": __version__,
        "passed": table.passed,
        "config": table.config,
        "columns": table.columns,
        "rows": table.rows,
    }
    return (json.dumps(payload, sort_keys=True, separators=(",", ": ")) + "\n").encode("utf-8")


def export(table: ResultTable, fmt: str) -> bytes:
    """Serialize a table as csv or json bytes (deterministic for a fixed spec)."""
    if fmt == "csv":
        return export_csv(table)
    if fmt == "json":
        return export_json(table)
    raise ValueError(f"unknown export format {fmt!r}; expected csv or json")


def import_csv(data: bytes) -> tuple[list[str], list[list]]:
    """Re-read an exported CSV into (columns, rows); numbers become floats."""
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no header line in CSV data")
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = []
        for cell in ln.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return columns, rows


@dataclass(frozen=True)
class Param:
    """One declared experiment parameter; a None ``default`` is resolved by the runner.

    ``type`` is float, int, str, list[float] or BoundedMeasure (a JSON literal,
    a mapping or a measure).  ``option`` is the CLI flag and, undashed, the config key.
    """

    name: str
    type: object
    default: object
    help: str
    flag: str | None = None

    @property
    def option(self) -> str:
        return "--" + (self.flag or self.name.replace("_", "-"))


def _integer(value) -> int:
    """An int parameter's value; a fractional value is refused, never truncated."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


_CASTS = {float: float, int: _integer, str: str, list[float]: lambda values: [float(v) for v in values]}


def _as_measure(value, dim: int | None) -> BoundedMeasure:
    if not isinstance(value, BoundedMeasure):
        return measure_from_json(value, dim=dim)
    if dim not in (None, value.dim):
        raise ValueError(f"the measure has dim {value.dim}, but dim {dim} was requested")
    return value


def _typed_params(spec: ExperimentSpec, declared: tuple[Param, ...]) -> dict:
    """Every declared parameter, typed, with a given None meaning the default."""
    names = [param.name for param in declared]
    unknown = sorted(set(spec.params) - set(names))
    if unknown:
        accepted = ", ".join(names)
        raise ValueError(f"experiment {spec.name!r} takes no parameter {', '.join(map(repr, unknown))}; it accepts {accepted}")
    params = {}
    for param in declared:
        value = spec.params.get(param.name)
        value = param.default if value is None else value
        try:
            if value is not None:
                value = _as_measure(value, spec.dim) if param.type is BoundedMeasure else _CASTS[param.type](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"experiment {spec.name!r}, parameter {param.name!r}: {exc}") from exc
        params[param.name] = value
    return params


EXPERIMENTS: dict[str, Callable[[ExperimentSpec], ResultTable]] = {}
PARAMS: dict[str, tuple[Param, ...]] = {}


def _experiment(name: str, *params: Param):
    """Register a runner under ``name``; it is called with the spec and its typed parameters."""

    def register(runner):
        EXPERIMENTS[name] = wraps(runner)(lambda spec: runner(spec, **_typed_params(spec, params)))
        PARAMS[name] = params
        return runner

    return register


def _tol(default: float | None) -> Param:
    return Param("tol", float, default, "Check tolerance.")


def _preset(default: str, help: str) -> Param:
    return Param("preset", str, default, help, flag="f")


def _xi_axis_points(xi_max: float, count: int, dim: int) -> np.ndarray:
    """Frequencies along the first axis, embedded in R^dim."""
    pts = np.zeros((count, dim))
    pts[:, 0] = np.linspace(-xi_max, xi_max, count)
    return pts


@_experiment(
    "verify-kernels",
    Param("alphas", list[float], None, "Comma-separated kernel scales (default 0.05,0.1,0.5 in dim 1, else 0.1)."),
    _tol(None),
)
def _run_verify_kernels(spec: ExperimentSpec, alphas, tol) -> ResultTable:
    """Check the kernel transform pair on a frequency grid."""
    dim = spec.dim or 1
    if alphas is None:
        alphas = [0.05, 0.1, 0.5] if dim == 1 else [0.1]
    if tol is None:
        tol = 1e-6 if dim == 1 else 1e-5
    if dim == 1:
        xi_pts = _xi_axis_points(2.0, 41, 1)
    else:
        xi_pts = TensorGrid(2.0, 4, dim).points()  # the 5^dim lattice on [-2, 2]^dim
    quad_tol = tol / 4.0
    columns = ["alpha", "direction", *[f"xi{j+1}" for j in range(dim)], "computed_re", "computed_im", "expected", "residual"]
    rows = []
    worst = 0.0
    for alpha in alphas:
        scale = KernelScale(alpha, dim)
        cases = [
            ("fourier[gauss]", gauss_fn(alpha, dim), False, lambda p: weierstrass(scale, p)),
            ("fourier[weierstrass]", weierstrass_fn(alpha, dim), False, lambda p: gauss(scale, p)),
            ("inverse[gauss]", gauss_fn(alpha, dim), True, lambda p: weierstrass(scale, p)),
            ("inverse[weierstrass]", weierstrass_fn(alpha, dim), True, lambda p: gauss(scale, p)),
        ]
        for label, fn, inv, expected in cases:
            samples = fourier_profile(fn, xi_pts, quad_tol, inverse=inv)
            for sample in samples:
                want = float(expected(np.asarray(sample.xi)))
                resid = abs(sample.value - want)
                worst = max(worst, resid)
                rows.append([alpha, label, *sample.xi, sample.value.real, sample.value.imag, want, resid])
        if dim == 1:
            # the pair identity continues to purely imaginary frequencies
            xi_imag = np.array([0.3j])
            value = fourier_complex(gauss_fn(alpha, 1), xi_imag, quad_tol)
            want = complex(weierstrass(scale, xi_imag))
            resid = abs(value - want)
            worst = max(worst, resid)
            rows.append([alpha, "fourier[gauss]@0.3i", 0.3, value.real, value.imag, want.real, resid])
    passed = worst <= tol
    return ResultTable(
        name=spec.name,
        columns=columns,
        rows=rows,
        config={"dim": dim, "alphas": alphas, "tol": tol},
        passed=passed,
        summary=f"max kernel-pair residual {worst:.3e} (tolerance {tol:g})",
    )


@_experiment(
    "integrate",
    _preset("weierstrass:0.1", "Integrand preset, e.g. weierstrass:0.1."),
    _tol(1e-8),
    Param("radius", float, None, "Quadrature cube radius (with --points; default chosen from --tol)."),
    Param("points", int, None, "Simpson intervals per axis (with --radius)."),
)
def _run_integrate(spec: ExperimentSpec, preset, tol, radius, points) -> ResultTable:
    """Integrate a preset over R^n with certified error terms."""
    dim = spec.dim or 1
    if (radius is None) != (points is None):
        raise ValueError("integrate takes radius and points together, or neither")
    g = parse_preset(preset, dim)
    if radius is not None:
        grid = GridSpec(radius, points, dim)
        result = integrate(g, grid)
    else:
        result, grid = integrate_auto(g, tol)
    forms = closed_form(preset, dim)
    closed = None if forms is None else forms.integral
    err = abs(result.value - closed) if closed is not None else float("nan")
    passed = closed is None or err <= result.error_budget + 1e-12
    rows = [[
        preset,
        grid.radius,
        grid.points_per_axis,
        result.value.real,
        result.value.imag,
        result.disc_error_est,
        result.tail_bound,
        closed if closed is not None else "",
        err if closed is not None else "",
    ]]
    return ResultTable(
        name=spec.name,
        columns=["preset", "radius", "points", "value_re", "value_im", "disc_error_est", "tail_bound", "closed_form", "abs_error"],
        rows=rows,
        config={"dim": dim, "preset": preset, "tol": tol, "radius": grid.radius, "points": grid.points_per_axis},
        passed=passed,
        summary=f"integral {result.value.real!r} (error budget {result.error_budget:.3e})",
    )


@_experiment(
    "fourier",
    _preset("gauss:0.1", "Function preset to transform."),
    _tol(1e-6),
    Param("xi_max", float, 2.0, "Frequency grid half-width."),
    Param("xi_count", int, 21, "Number of frequency samples."),
)
def _run_fourier(spec: ExperimentSpec, preset, tol, xi_max, xi_count) -> ResultTable:
    """Tabulate the transform of a preset along the first frequency axis."""
    dim = spec.dim or 1
    f = parse_preset(preset, dim)
    sup_cap = l1_norm(f, tol / 4.0).value.real + tol
    forms = closed_form(preset, dim)
    closed = None if forms is None else forms.transform
    samples = fourier_profile(f, _xi_axis_points(xi_max, xi_count, dim), tol / 4.0)
    rows = []
    worst = 0.0
    sup_ok = True
    for sample in samples:
        mag = abs(sample.value)
        sup_ok = sup_ok and mag <= sup_cap
        resid = abs(sample.value - closed(np.asarray(sample.xi))) if closed else float("nan")
        if closed:
            worst = max(worst, resid)
        rows.append([
            *sample.xi,
            sample.value.real,
            sample.value.imag,
            mag,
            resid if closed else "",
        ])
    passed = sup_ok and (closed is None or worst <= tol)
    return ResultTable(
        name=spec.name,
        columns=[*[f"xi{j+1}" for j in range(dim)], "value_re", "value_im", "modulus", "residual"],
        rows=rows,
        config={"dim": dim, "preset": preset, "tol": tol, "xi_max": xi_max, "xi_count": xi_count},
        passed=passed,
        summary=f"sup bound {'holds' if sup_ok else 'fails'}; max residual {worst:.3e}",
    )


@_experiment(
    "invert",
    _preset("weierstrass:0.1", "Function preset to invert."),
    Param("alphas", list[float], [0.2 * 2.0**-k for k in range(6)], "Summability ladder."),
    Param("xs", list[float], [0.0, 0.5, 1.0], "Sample points."),
    _tol(1e-6),
)
def _run_invert(spec: ExperimentSpec, preset, alphas, xs, tol) -> ResultTable:
    """Gauss-summable inversion against direct smoothing, along a ladder."""
    dim = spec.dim or 1
    if dim != 1:
        raise ValueError("the inversion experiment runs in dimension 1")
    f = parse_preset(preset, dim)
    quad_tol = tol / 4.0
    rows = []
    worst_cross = 0.0
    for x in xs:
        fx = complex(f(np.array([[x]]))[0])
        for alpha in alphas:
            inv = gauss_inversion(f, x, alpha, quad_tol)
            mol = mollify(f, alpha, x, quad_tol)
            cross = abs(inv - mol)
            worst_cross = max(worst_cross, cross)
            rows.append([x, alpha, inv.real, inv.imag, mol.real, mol.imag, cross, abs(inv - fx)])
    passed = worst_cross <= tol
    return ResultTable(
        name=spec.name,
        columns=["x", "alpha", "inversion_re", "inversion_im", "mollified_re", "mollified_im", "cross_difference", "error_vs_f"],
        rows=rows,
        config={"dim": dim, "preset": preset, "alphas": alphas, "xs": xs, "tol": tol},
        passed=passed,
        summary=f"max inversion/mollification cross-difference {worst_cross:.3e}",
    )


@_experiment(
    "mollify",
    _preset("weierstrass:0.1", "Function preset to smooth."),
    Param("alpha", float, 0.1, "Smoothing scale."),
    Param("xs", list[float], list(np.linspace(-2.0, 2.0, 41)), "Sample points."),
    _tol(1e-6),
)
def _run_mollify(spec: ExperimentSpec, preset, alpha, tol, xs) -> ResultTable:
    """Smooth a preset and check both contraction inequalities."""
    dim = spec.dim or 1
    if dim != 1:
        raise ValueError("the mollify experiment runs in dimension 1")
    f = parse_preset(preset, dim)
    rows = []
    sup_moll = 0.0
    for x in xs:
        value = mollify(f, alpha, x, tol / 4.0)
        sup_moll = max(sup_moll, abs(value))
        rows.append([x, value.real, value.imag])
    sup_ok = sup_moll <= f.sup_bound + tol
    report = mollify_l1_check(f, alpha, GridSpec(8.0, 1024, 1), inner_tol=tol / 100.0)
    l1_ok = report.lhs <= report.rhs + tol
    passed = sup_ok and l1_ok
    return ResultTable(
        name=spec.name,
        columns=["x", "value_re", "value_im"],
        rows=rows,
        config={
            "dim": dim,
            "preset": preset,
            "alpha": alpha,
            "tol": tol,
            "sup_original": f.sup_bound,
            "sup_mollified": sup_moll,
            "l1_lhs": report.lhs,
            "l1_rhs": report.rhs,
        },
        passed=passed,
        summary=(
            f"sup {sup_moll:.6f} vs {f.sup_bound:.6f}; "
            f"L1 {report.lhs:.6f} vs {report.rhs:.6f}"
        ),
    )


@_experiment(
    "multiplication",
    Param("a", float, 0.05, "First kernel scale."),
    Param("b", float, 0.2, "Second kernel scale."),
    _tol(1e-6),
)
def _run_multiplication(spec: ExperimentSpec, a, b, tol) -> ResultTable:
    """Both sides of the transform duality for a pair of kernels."""
    dim = spec.dim or 1
    report = multiplication_formula_check(gauss_fn(a, dim), gauss_fn(b, dim), tol / 4.0)
    closed = (1.0 + 16.0 * math.pi**2 * a * b) ** (-dim / 2.0)
    err_l = abs(report.lhs - closed)
    err_r = abs(report.rhs - closed)
    gap = abs(report.lhs - report.rhs)
    passed = gap <= 2.0 * tol and err_l <= tol and err_r <= tol
    rows = [[a, b, report.lhs.real, report.lhs.imag, report.rhs.real, report.rhs.imag, closed, gap, err_l, err_r]]
    return ResultTable(
        name=spec.name,
        columns=["a", "b", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "closed_form", "gap", "lhs_error", "rhs_error"],
        rows=rows,
        config={"dim": dim, "a": a, "b": b, "tol": tol},
        passed=passed,
        summary=f"duality gap {gap:.3e}, closed-form errors {err_l:.3e}/{err_r:.3e}",
    )


@_experiment(
    "modulate",
    _preset("gauss:0.1", "Function preset to modulate."),
    _tol(1e-6),
    Param("shifts", list[float], [-0.5, 0.0, 0.5], "Modulation frequencies a."),
    Param("etas", list[float], [-0.5, 0.0, 0.5], "Evaluation frequencies eta."),
)
def _run_modulate(spec: ExperimentSpec, preset, tol, shifts, etas) -> ResultTable:
    """Check the shift rule for modulated transforms on an (a, eta) grid."""
    dim = spec.dim or 1
    if dim != 1:
        raise ValueError("the modulation experiment runs in dimension 1")
    h = parse_preset(preset, dim)
    rows = []
    worst = 0.0
    for a in shifts:
        for eta in etas:
            direct = modulate(h, [a], [eta], tol / 4.0)
            shifted = fourier(h, [eta - a], tol / 4.0)
            resid = abs(direct - shifted)
            worst = max(worst, resid)
            rows.append([a, eta, direct.real, direct.imag, shifted.real, shifted.imag, resid])
    passed = worst <= 2.0 * tol
    return ResultTable(
        name=spec.name,
        columns=["a", "eta", "modulated_re", "modulated_im", "shifted_re", "shifted_im", "residual"],
        rows=rows,
        config={"dim": dim, "preset": preset, "shifts": shifts, "etas": etas, "tol": tol},
        passed=passed,
        summary=f"max modulation residual {worst:.3e} (tolerance {2 * tol:g})",
    )


def _measure(literal: str) -> Param:
    return Param("measure", BoundedMeasure, literal, "Measure JSON literal, or @file.")


@_experiment(
    "measure-ft",
    _measure('{"dim": 1, "atoms": [{"at": [0.5], "re": 1.0}]}'),
    _tol(1e-8),
    Param("xi_max", float, 2.0, "Frequency grid half-width."),
    Param("xi_count", int, 41, "Number of frequency samples."),
)
def _run_measure_ft(spec: ExperimentSpec, measure, tol, xi_max, xi_count) -> ResultTable:
    """Tabulate the transform of a bounded measure."""
    xi_pts = _xi_axis_points(xi_max, xi_count, measure.dim)
    rows = []
    bounded_ok = True
    for xi in xi_pts:
        value = measure.fourier(xi, tol)
        mag = abs(value)
        bounded_ok = bounded_ok and mag <= measure.bound + tol
        rows.append([*[float(v) for v in xi], value.real, value.imag, mag])
    return ResultTable(
        name=spec.name,
        columns=[*[f"xi{j+1}" for j in range(measure.dim)], "value_re", "value_im", "modulus"],
        rows=rows,
        config={
            "dim": measure.dim,
            "atoms": len(measure.atoms),
            "bound": measure.bound,
            "tol": tol,
            "xi_max": xi_max,
            "xi_count": xi_count,
        },
        passed=bounded_ok,
        summary=f"transform bounded by {measure.bound:.6f} {'holds' if bounded_ok else 'fails'}",
    )


@_experiment(
    "measure-invert",
    _measure('{"dim": 1, "atoms": [{"at": [0.0], "re": 1.0}, {"at": [0.7], "re": -0.5}, {"at": [-0.4], "im": 0.25}]}'),
    _tol(1e-6),
    Param("alphas", list[float], [0.2, 0.1, 0.05], "Summability ladder."),
    Param("xs", list[float], [-1.0, -0.5, 0.0, 0.5, 1.0], "Sample points along the first axis."),
)
def _run_measure_invert(spec: ExperimentSpec, measure, tol, alphas, xs) -> ResultTable:
    """Measure inversion against direct measure smoothing."""
    rows = []
    worst = 0.0
    for alpha in alphas:
        for x in xs:
            point = np.zeros(measure.dim)
            point[0] = x
            inv = measure.gauss_inversion(point, alpha, tol / 4.0)
            mol = measure.mollify(alpha, point, tol / 4.0)
            diff = abs(inv - mol)
            worst = max(worst, diff)
            rows.append([alpha, x, inv.real, inv.imag, mol.real, mol.imag, diff])
    passed = worst <= tol
    return ResultTable(
        name=spec.name,
        columns=["alpha", "x", "inversion_re", "inversion_im", "mollified_re", "mollified_im", "difference"],
        rows=rows,
        config={"dim": measure.dim, "atoms": len(measure.atoms), "alphas": alphas, "xs": xs, "tol": tol},
        passed=passed,
        summary=f"max inversion/smoothing difference {worst:.3e}",
    )


@_experiment(
    "weak-convergence",
    _measure('{"dim": 1, "atoms": [{"at": [0.0], "re": 1.0}]}'),
    Param("h", str, "gauss:1", "Bounded pairing preset."),
    _tol(1e-6),
    Param("alphas", list[float], [0.2 * 2.0**-k for k in range(6)], "Smoothing ladder."),
    Param("radius", float, 6.0, "Quadrature cube radius."),
    Param("points", int, 1024, "Simpson intervals per axis."),
)
def _run_weak_convergence(spec: ExperimentSpec, measure, h, tol, alphas, radius, points) -> ResultTable:
    """Pair the smoothed measure against h along a ladder of scales."""
    pairing = parse_preset(h, measure.dim)
    grid = GridSpec(radius, points, measure.dim)
    samples = weak_convergence_trace(measure, pairing, alphas, grid, tol=tol / 100.0)

    # a unit atom at the origin smooths to W_alpha, and pairing W_alpha with
    # an even h gives (W_alpha * h)(0), known in closed form for some presets
    single_origin_atom = (
        len(measure.atoms) == 1
        and measure.density is None
        and measure.atoms[0].weight == 1.0
        and all(v == 0.0 for v in measure.atoms[0].location)
    )
    forms = closed_form(h, measure.dim) if single_origin_atom else None

    rows = []
    errors = []
    worst_cf = 0.0
    for sample in samples:
        err = abs(sample.value - sample.target)
        errors.append(err)
        if forms is not None:
            cf = forms.smoothed(sample.alpha, np.zeros(measure.dim))
            cf_err = abs(sample.value - cf)
            worst_cf = max(worst_cf, cf_err)
        else:
            cf = ""
            cf_err = ""
        rows.append([sample.alpha, sample.value.real, sample.value.imag, sample.target.real, err, cf, cf_err])
    nonincreasing = all(errors[k + 1] <= errors[k] + 1e-7 for k in range(len(errors) - 1))
    passed = nonincreasing and (forms is None or worst_cf <= tol)
    return ResultTable(
        name=spec.name,
        columns=["alpha", "value_re", "value_im", "target_re", "abs_error", "closed_form", "closed_form_error"],
        rows=rows,
        config={
            "dim": measure.dim,
            "h": h,
            "alphas": alphas,
            "radius": radius,
            "points": points,
            "tol": tol,
        },
        passed=passed,
        summary=(
            f"errors {'nonincreasing' if nonincreasing else 'NOT monotone'}; "
            f"max closed-form error {worst_cf:.3e}" if forms is not None else
            f"errors {'nonincreasing' if nonincreasing else 'NOT monotone'}"
        ),
    )


def run(spec: ExperimentSpec) -> ResultTable:
    """Run a registered experiment spec and return its result table.

    A parameter the experiment does not declare, or a dim that is not a
    positive integer, raises ValueError.
    """
    if spec.name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {spec.name!r}; registered: {known}")
    if spec.dim is not None and not (isinstance(spec.dim, numbers.Integral) and spec.dim >= 1):
        raise ValueError(f"dim must be a positive integer, got {spec.dim!r}")
    start = time.perf_counter()
    table = EXPERIMENTS[spec.name](spec)
    table.wall_time_s = time.perf_counter() - start
    return table
