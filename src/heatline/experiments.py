"""Registered verification experiments and their result tables.

Each experiment drives one identity of the library at desk scale and
returns a ResultTable whose rows carry the inputs that produced them.
Grids, ladders, and seeds are fixed, so a given spec always produces the
same table; exports omit wall time so repeated runs are byte-identical.
Each experiment declares its parameters once (``PARAMS``): ``run`` rejects
an undeclared key, fills in defaults (some depend on the run's dim) and
applies the declared types, and the CLI builds its subcommands and
config-file keys from the same declarations.  A runner returns only its
columns, rows, verdict, summary and the config entries it computes; the
table and its config echo, the dim plus every typed parameter but the
measure literal, are built from the declarations.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable

import numpy as np

from . import __version__
from .catalog import closed_form, gauss_fn, parse_preset, weierstrass_fn
from .kernels import KernelScale, gauss, weierstrass
from .measures import BoundedMeasure, measure_from_json, weak_convergence_trace
from .points import check_dim
from .quadrature import GridSpec, integrate, integrate_auto, l1_norm
from .transforms import (
    _modulated_rows,
    _mollify_walks,
    _transform_rows,
    _transform_table,
    fourier_complex,
    fourier_profile,
    gauss_inversion_ladder,
    mollify_l1_check,
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
        lines.append(",".join(map(str, row)))
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


@dataclass(frozen=True)
class Param:
    """One declared experiment parameter.

    ``type`` is float, int, str, list[float] or BoundedMeasure (a JSON literal,
    a mapping or a measure).  ``option`` is the CLI flag and, undashed, the config key.
    A callable ``default`` is a function of the run's dim; a None default is
    resolved by the runner.  ``cast`` replaces the type's own parser.
    """

    name: str
    type: object
    default: object
    help: str
    flag: str | None = None
    cast: Callable | None = None

    @property
    def option(self) -> str:
        return "--" + (self.flag or self.name.replace("_", "-"))


def _integer(value) -> int:
    """An int parameter's value; a fractional value is refused, never truncated."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _floats(values) -> list[float]:
    """A list parameter's values; an empty list is refused, since it would run no check and pass, as is a nan or infinite value."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("expected at least one value, got an empty list")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"expected finite values, got {values}")
    return values


def _tolerance(value) -> float:
    """A check tolerance; zero, a negative value, nan and inf are refused: a check against them cannot pass, or cannot fail."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"expected a positive, finite tolerance, got {value!r}")
    return value


_CASTS = {float: float, int: _integer, str: str, list[float]: _floats}


def _as_measure(value, dim: int | None) -> BoundedMeasure:
    if not isinstance(value, BoundedMeasure):
        return measure_from_json(value, dim=dim)
    if dim not in (None, value.dim):
        raise ValueError(f"the measure has dim {value.dim}, but dim {dim} was requested")
    return value


def _typed_params(spec: ExperimentSpec, declared: tuple[Param, ...]) -> tuple[int, dict]:
    """The run's dim and every declared parameter, typed, with a given None meaning the default.

    The dim is the spec's, else the measure literal's, else 1; the measure is
    read first, so a default that depends on the dim sees it.
    """
    names = [param.name for param in declared]
    unknown = sorted(set(spec.params) - set(names))
    if unknown:
        accepted = ", ".join(names)
        raise ValueError(f"experiment {spec.name!r} takes no parameter {', '.join(map(repr, unknown))}; it accepts {accepted}")
    dim, params = spec.dim, {}
    for param in sorted(declared, key=lambda p: p.type is not BoundedMeasure):
        value = spec.params.get(param.name)
        if value is None:
            value = param.default(dim or 1) if callable(param.default) else param.default
        try:
            if param.type is BoundedMeasure:
                value = _as_measure(value, spec.dim)
                dim = value.dim
            elif value is not None:
                value = (param.cast or _CASTS[param.type])(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"experiment {spec.name!r}, parameter {param.name!r}: {exc}") from exc
        params[param.name] = value
    return dim or 1, params


EXPERIMENTS: dict[str, Callable[[ExperimentSpec], ResultTable]] = {}
PARAMS: dict[str, tuple[Param, ...]] = {}


def _experiment(name: str, *params: Param):
    """Register a runner under ``name``; it is called with the run's dim and its typed parameters.

    The runner returns (columns, rows, passed, summary, computed), where
    ``computed`` holds the config entries it works out itself.  The table's
    config echoes the dim and every typed parameter but the measure literal,
    then ``computed``, so a run can be repeated from its export.
    """

    def register(runner):
        @wraps(runner)
        def table(spec: ExperimentSpec) -> ResultTable:
            dim, typed = _typed_params(spec, params)
            columns, rows, passed, summary, computed = runner(dim, **typed)
            echo = {p.name: typed[p.name] for p in params if p.type is not BoundedMeasure}
            return ResultTable(spec.name, columns, rows, {"dim": dim, **echo, **computed}, passed, summary)

        EXPERIMENTS[name] = table
        PARAMS[name] = params
        return runner

    return register


def _tol(default) -> Param:
    return Param("tol", float, default, "Check tolerance.", cast=_tolerance)


def _preset(default: str, help: str) -> Param:
    return Param("preset", str, default, help, flag="f")


def _xi_axis_points(xi_max: float, count: int, dim: int) -> np.ndarray:
    """``count`` frequencies on [-xi_max, xi_max] along the first axis, embedded in R^dim.

    The axis is mirrored as a grid's nodes are (see ``GridSpec``):
    np.linspace's lower half, a +0.0 centre for an odd count, and the
    negated lower half above it, so an odd count takes the quarter path of
    ``GridSpec.phase_matrix``.  A count below 1 is refused: it would check
    nothing and pass.  So is an axis that is not finite, as from an
    infinite xi_max or one whose span overflows.
    """
    if count < 1:
        raise ValueError(f"parameter 'xi_count' must be at least 1 (one frequency sample), got {count}")
    half = count // 2
    with np.errstate(over="ignore", invalid="ignore"):
        axis = np.linspace(-xi_max, xi_max, count)
    if not np.all(np.isfinite(axis)):
        raise ValueError(f"parameter 'xi_max' must give finite frequencies on [-xi_max, xi_max], got {xi_max}")
    if count > 1:
        if count % 2:
            axis[half] = 0.0
        axis[count - half:] = -axis[half - 1::-1]
    pts = np.zeros((count, dim))
    pts[:, 0] = axis
    return pts


@_experiment(
    "verify-kernels",
    Param(
        "alphas", list[float], lambda dim: [0.05, 0.1, 0.5] if dim == 1 else [0.1],
        "Comma-separated kernel scales (default 0.05,0.1,0.5 in dim 1, else 0.1).",
    ),
    _tol(lambda dim: 1e-6 if dim == 1 else 1e-5),
)
def _run_verify_kernels(dim, alphas, tol) -> tuple:
    """Check the kernel transform pair on a frequency grid."""
    if dim == 1:
        xi_pts = _xi_axis_points(2.0, 41, 1)
    else:
        xi_pts = GridSpec(2.0, 4, dim).points()  # the 5^dim lattice on [-2, 2]^dim
    quad_tol = tol / 4.0
    columns = ["alpha", "direction", *[f"xi{j+1}" for j in range(dim)], "computed_re", "computed_im", "expected", "residual"]
    rows = []
    worst = 0.0
    for alpha in alphas:
        scale = KernelScale(alpha, dim)
        # one build (and envelope spot check) per kernel and alpha
        gauss_alpha, weierstrass_alpha = gauss_fn(alpha, dim), weierstrass_fn(alpha, dim)
        cases = [
            ("fourier[gauss]", gauss_alpha, False, weierstrass),
            ("fourier[weierstrass]", weierstrass_alpha, False, gauss),
            ("inverse[gauss]", gauss_alpha, True, weierstrass),
            ("inverse[weierstrass]", weierstrass_alpha, True, gauss),
        ]
        # each case is fourier_profile(fn, xi_pts, quad_tol, inverse) bit for bit, from one ladder call per alpha
        table = _transform_table([(fn, inverse) for _, fn, inverse, _ in cases], xi_pts, quad_tol)
        for (label, _, _, expected), values in zip(cases, table.tolist()):
            for xi, value, want in zip(xi_pts.tolist(), values, expected(scale, xi_pts).tolist()):
                resid = abs(value - want)
                worst = max(worst, resid)
                rows.append([alpha, label, *xi, value.real, value.imag, want, resid])
        if dim == 1:
            # the pair identity continues to purely imaginary frequencies
            xi_imag = np.array([0.3j])
            value = fourier_complex(gauss_alpha, xi_imag, quad_tol)
            want = complex(weierstrass(scale, xi_imag))
            resid = abs(value - want)
            worst = max(worst, resid)
            rows.append([alpha, "fourier[gauss]@0.3i", 0.3, value.real, value.imag, want.real, resid])
    return columns, rows, worst <= tol, f"max kernel-pair residual {worst:.3e} (tolerance {tol:g})", {}


@_experiment(
    "integrate",
    _preset("weierstrass:0.1", "Integrand preset, e.g. weierstrass:0.1."),
    _tol(1e-8),
    Param("radius", float, None, "Quadrature cube radius (with --points; default chosen from --tol)."),
    Param("points", int, None, "Simpson intervals per axis (with --radius)."),
)
def _run_integrate(dim, preset, tol, radius, points) -> tuple:
    """Integrate a preset over R^n with certified error terms."""
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
    # the budget must meet the tolerance too: on a fixed grid nothing else holds it to --tol
    passed = (closed is None or err <= result.error_budget + 1e-12) and result.error_budget <= tol
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
    columns = ["preset", "radius", "points", "value_re", "value_im", "disc_error_est", "tail_bound", "closed_form", "abs_error"]
    summary = f"integral {result.value.real!r} (error budget {result.error_budget:.3e})"
    return columns, rows, passed, summary, {"radius": grid.radius, "points": grid.points_per_axis}


@_experiment(
    "fourier",
    _preset("gauss:0.1", "Function preset to transform."),
    _tol(1e-6),
    Param("xi_max", float, 2.0, "Frequency grid half-width."),
    Param("xi_count", int, 21, "Number of frequency samples."),
)
def _run_fourier(dim, preset, tol, xi_max, xi_count) -> tuple:
    """Tabulate the transform of a preset along the first frequency axis."""
    xi_pts = _xi_axis_points(xi_max, xi_count, dim)
    f = parse_preset(preset, dim)
    sup_cap = l1_norm(f, tol / 4.0).value.real + tol
    forms = closed_form(preset, dim)
    closed = None if forms is None else forms.transform
    samples = fourier_profile(f, xi_pts, tol / 4.0)
    wants = closed(xi_pts).tolist() if closed else [math.nan] * len(samples)
    rows = []
    worst = 0.0
    sup_ok = True
    for sample, want in zip(samples, wants):
        mag = abs(sample.value)
        sup_ok = sup_ok and mag <= sup_cap
        resid = abs(sample.value - want)
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
    columns = [*[f"xi{j+1}" for j in range(dim)], "value_re", "value_im", "modulus", "residual"]
    residuals = f"max residual {worst:.3e}" if closed else f"no closed form for {preset!r}; residuals not checked"
    return columns, rows, passed, f"sup bound {'holds' if sup_ok else 'fails'}; {residuals}", {}


@_experiment(
    "invert",
    _preset("weierstrass:0.1", "Function preset to invert."),
    Param("alphas", list[float], [0.2 * 2.0**-k for k in range(6)], "Summability ladder."),
    Param("xs", list[float], [0.0, 0.5, 1.0], "Sample points."),
    _tol(1e-6),
)
def _run_invert(dim, preset, alphas, xs, tol) -> tuple:
    """Gauss-summable inversion against direct smoothing, along a ladder."""
    if dim != 1:
        raise ValueError("the inversion experiment runs in dimension 1")
    f = parse_preset(preset, dim)
    quad_tol = tol / 4.0
    inversions = gauss_inversion_ladder(f, alphas, xs, quad_tol).tolist()
    rows = []
    worst_cross = 0.0
    # one smoothing call, one walk per (alpha, point); each value is mollify(f, alpha, x, quad_tol)'s
    smoothed = _mollify_walks(f, alphas, np.array(xs, dtype=float).reshape(-1, 1), quad_tol, per_point=True).tolist()
    for i, x in enumerate(xs):
        fx = complex(f(np.array([[x]]))[0])
        for inv_row, mol_row, alpha in zip(inversions, smoothed, alphas):
            inv, mol = inv_row[i], mol_row[i]
            cross = abs(inv - mol)
            worst_cross = max(worst_cross, cross)
            rows.append([x, alpha, inv.real, inv.imag, mol.real, mol.imag, cross, abs(inv - fx)])
    columns = ["x", "alpha", "inversion_re", "inversion_im", "mollified_re", "mollified_im", "cross_difference", "error_vs_f"]
    return columns, rows, worst_cross <= tol, f"max inversion/mollification cross-difference {worst_cross:.3e}", {}


@_experiment(
    "mollify",
    _preset("weierstrass:0.1", "Function preset to smooth."),
    Param("alpha", float, 0.1, "Smoothing scale."),
    Param("xs", list[float], list(np.linspace(-2.0, 2.0, 41)), "Sample points."),
    _tol(1e-6),
)
def _run_mollify(dim, preset, alpha, tol, xs) -> tuple:
    """Smooth a preset and check both contraction inequalities."""
    if dim != 1:
        raise ValueError("the mollify experiment runs in dimension 1")
    f = parse_preset(preset, dim)
    rows = []
    sup_moll = 0.0
    # one smoothing call, one walk per point; each value is mollify(f, alpha, x, tol / 4)'s
    values = _mollify_walks(f, [alpha], np.array(xs, dtype=float).reshape(-1, 1), tol / 4.0, per_point=True)[0]
    for x, value in zip(xs, values.tolist()):
        sup_moll = max(sup_moll, abs(value))
        rows.append([x, value.real, value.imag])
    sup_ok = sup_moll <= f.sup_bound + tol
    report = mollify_l1_check(f, alpha, GridSpec(8.0, 1024, 1), inner_tol=tol / 100.0)
    l1_ok = report.lhs <= report.rhs + tol
    summary = f"sup {sup_moll:.6f} vs {f.sup_bound:.6f}; L1 {report.lhs:.6f} vs {report.rhs:.6f}"
    computed = {"sup_original": f.sup_bound, "sup_mollified": sup_moll, "l1_lhs": report.lhs, "l1_rhs": report.rhs}
    return ["x", "value_re", "value_im"], rows, sup_ok and l1_ok, summary, computed


@_experiment(
    "multiplication",
    Param("a", float, 0.05, "First kernel scale."),
    Param("b", float, 0.2, "Second kernel scale."),
    _tol(1e-6),
)
def _run_multiplication(dim, a, b, tol) -> tuple:
    """Both sides of the transform duality for a pair of kernels."""
    report = multiplication_formula_check(gauss_fn(a, dim), gauss_fn(b, dim), tol / 4.0)
    closed = (1.0 + 16.0 * math.pi**2 * a * b) ** (-dim / 2.0)
    err_l = abs(report.lhs - closed)
    err_r = abs(report.rhs - closed)
    gap = abs(report.lhs - report.rhs)
    passed = gap <= 2.0 * tol and err_l <= tol and err_r <= tol
    rows = [[a, b, report.lhs.real, report.lhs.imag, report.rhs.real, report.rhs.imag, closed, gap, err_l, err_r]]
    columns = ["a", "b", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "closed_form", "gap", "lhs_error", "rhs_error"]
    return columns, rows, passed, f"duality gap {gap:.3e}, closed-form errors {err_l:.3e}/{err_r:.3e}", {}


@_experiment(
    "modulate",
    _preset("gauss:0.1", "Function preset to modulate."),
    _tol(1e-6),
    Param("shifts", list[float], [-0.5, 0.0, 0.5], "Modulation frequencies a."),
    Param("etas", list[float], [-0.5, 0.0, 0.5], "Evaluation frequencies eta."),
)
def _run_modulate(dim, preset, tol, shifts, etas) -> tuple:
    """Check the shift rule for modulated transforms on an (a, eta) grid."""
    if dim != 1:
        raise ValueError("the modulation experiment runs in dimension 1")
    h = parse_preset(preset, dim)
    pairs = [(a, eta) for a in shifts for eta in etas]
    eta_pts = np.array(etas, dtype=float).reshape(-1, 1)
    # one call per shift, one walk per eta; each value is modulate(h, [a], [eta], tol / 4)'s
    direct = [v for a in shifts for v in _modulated_rows(h, [a], eta_pts, tol / 4.0).tolist()]
    # one call for every shifted frequency, one walk each; each value is fourier(h, [eta - a], tol / 4)'s
    shifted = _transform_rows(h, np.array([[eta - a] for a, eta in pairs]), tol / 4.0).tolist()
    rows = []
    worst = 0.0
    for (a, eta), mod, shift in zip(pairs, direct, shifted):
        resid = abs(mod - shift)
        worst = max(worst, resid)
        rows.append([a, eta, mod.real, mod.imag, shift.real, shift.imag, resid])
    columns = ["a", "eta", "modulated_re", "modulated_im", "shifted_re", "shifted_im", "residual"]
    return columns, rows, worst <= 2.0 * tol, f"max modulation residual {worst:.3e} (tolerance {2 * tol:g})", {}


def _measure(literal: str) -> Param:
    return Param("measure", BoundedMeasure, literal, "Measure JSON literal, or @file.")


@_experiment(
    "measure-ft",
    _measure('{"dim": 1, "atoms": [{"at": [0.5], "re": 1.0}]}'),
    _tol(1e-8),
    Param("xi_max", float, 2.0, "Frequency grid half-width."),
    Param("xi_count", int, 41, "Number of frequency samples."),
)
def _run_measure_ft(dim, measure, tol, xi_max, xi_count) -> tuple:
    """Tabulate the transform of a bounded measure."""
    xi_pts = _xi_axis_points(xi_max, xi_count, dim)
    rows = []
    bounded_ok = True
    # one call, one density walk per frequency; each value is measure.fourier(xi, tol)'s
    for xi, value in zip(xi_pts.tolist(), measure._fourier_rows(xi_pts, tol).tolist()):
        mag = abs(value)
        bounded_ok = bounded_ok and mag <= measure.bound + tol
        rows.append([*xi, value.real, value.imag, mag])
    columns = [*[f"xi{j+1}" for j in range(dim)], "value_re", "value_im", "modulus"]
    summary = f"transform bounded by {measure.bound:.6f} {'holds' if bounded_ok else 'fails'}"
    return columns, rows, bounded_ok, summary, {"atoms": len(measure.atoms), "bound": measure.bound}


@_experiment(
    "measure-invert",
    _measure('{"dim": 1, "atoms": [{"at": [0.0], "re": 1.0}, {"at": [0.7], "re": -0.5}, {"at": [-0.4], "im": 0.25}]}'),
    _tol(1e-6),
    Param("alphas", list[float], [0.2, 0.1, 0.05], "Summability ladder."),
    Param("xs", list[float], [-1.0, -0.5, 0.0, 0.5, 1.0], "Sample points along the first axis."),
)
def _run_measure_invert(dim, measure, tol, alphas, xs) -> tuple:
    """Measure inversion against direct measure smoothing."""
    points = np.zeros((len(xs), dim))
    points[:, 0] = xs
    # one smoothing call, one density walk per (alpha, point); entry (j, i) is measure.mollify(alphas[j], points[i], tol / 4)
    smoothed = measure._mollify_walks(alphas, points, tol / 4.0, per_point=True).tolist()
    rows = []
    worst = 0.0
    # one inversion call for the whole ladder; row j is what alphas[j] gives alone
    inversions = measure.gauss_inversion_ladder(alphas, points, tol / 4.0).tolist()
    for alpha, alpha_inversions, alpha_smoothed in zip(alphas, inversions, smoothed):
        for x, inv, mol in zip(xs, alpha_inversions, alpha_smoothed):
            diff = abs(inv - mol)
            worst = max(worst, diff)
            rows.append([alpha, x, inv.real, inv.imag, mol.real, mol.imag, diff])
    columns = ["alpha", "x", "inversion_re", "inversion_im", "mollified_re", "mollified_im", "difference"]
    return columns, rows, worst <= tol, f"max inversion/smoothing difference {worst:.3e}", {"atoms": len(measure.atoms)}


@_experiment(
    "weak-convergence",
    _measure('{"dim": 1, "atoms": [{"at": [0.0], "re": 1.0}]}'),
    Param("h", str, "gauss:1", "Bounded pairing preset."),
    _tol(1e-6),
    Param("alphas", list[float], [0.2 * 2.0**-k for k in range(6)], "Smoothing ladder."),
    Param("radius", float, 6.0, "Quadrature cube radius."),
    Param("points", int, 1024, "Simpson intervals per axis."),
)
def _run_weak_convergence(dim, measure, h, tol, alphas, radius, points) -> tuple:
    """Pair the smoothed measure against h along a ladder of scales."""
    pairing = parse_preset(h, dim)
    grid = GridSpec(radius, points, dim)
    samples = weak_convergence_trace(measure, pairing, alphas, grid, tol=tol / 100.0)

    # a unit atom at the origin smooths to W_alpha, and pairing W_alpha with
    # an even h gives (W_alpha * h)(0), known in closed form for some presets
    single_origin_atom = (
        len(measure.atoms) == 1
        and measure.density is None
        and measure.atoms[0].weight == 1.0
        and all(v == 0.0 for v in measure.atoms[0].location)
    )
    forms = closed_form(h, dim) if single_origin_atom else None

    rows = []
    errors = []
    worst_cf = 0.0
    for sample in samples:
        err = abs(sample.value - sample.target)
        errors.append(err)
        if forms is not None:
            cf = forms.smoothed(sample.alpha, np.zeros(dim))
            cf_err = abs(sample.value - cf)
            worst_cf = max(worst_cf, cf_err)
        else:
            cf = ""
            cf_err = ""
        rows.append([
            sample.alpha, sample.value.real, sample.value.imag, sample.target.real, err, cf, cf_err, sample.error_budget,
        ])
    nonincreasing = all(errors[k + 1] <= errors[k] + 1e-7 for k in range(len(errors) - 1))
    # the outer grid is the caller's: its sums are certified only where their budget meets tol
    worst_budget = max(sample.error_budget for sample in samples)
    passed = nonincreasing and worst_budget <= tol and (forms is None or worst_cf <= tol)
    summary = f"errors {'nonincreasing' if nonincreasing else 'NOT monotone'}; max outer budget {worst_budget:.3e}"
    if worst_budget > tol:
        summary += f" > tol {tol:g}"
    if forms is not None:
        summary += f"; max closed-form error {worst_cf:.3e}"
    columns = [
        "alpha", "value_re", "value_im", "target_re", "abs_error", "closed_form", "closed_form_error", "budget",
    ]
    return columns, rows, passed, summary, {}


def run(spec: ExperimentSpec) -> ResultTable:
    """Run a registered experiment spec and return its result table.

    A parameter the experiment does not declare, or a dim that is not a
    positive integer (a bool is not one), raises ValueError.
    """
    if spec.name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {spec.name!r}; registered: {known}")
    if spec.dim is not None:
        check_dim(spec.dim)
    start = time.perf_counter()
    table = EXPERIMENTS[spec.name](spec)
    table.wall_time_s = time.perf_counter() - start
    return table
