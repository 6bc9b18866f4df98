"""Seeded workloads: each is one pass, a fixed list of ops the runner repeats.

An op is one public call into heatline -- one ``experiments.run(spec)`` or one
library call -- plus the runner's own check of its output against the closed
forms in ``closed_forms``.  The seed drives every draw.  Parameters that
decide how much work an op does (kernel scales, alpha ladders, frequency
windows, grid sizes) come from fixed level lists that every pass uses the
same number of times, and the seed permutes which op gets which level and
jitters them slightly; parameters that do not change the work (evaluation
points, atom locations and weights, shifts) are drawn freely.  So two seeds
give different inputs but passes of nearly the same cost, which keeps the
latency percentiles of different seeds comparable.

Every op calls heatline through module or class attributes looked up at call
time (``hl.run``, ``measure.gauss_inversion``), so the traced run sees the
wrapped functions.

Pass lengths are odd multiples of 5 (25, 15, 35), so that the nearest-rank
p50 and p90 land inside one op's block of repeated samples, not on the
boundary between two ops.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import closed_forms as cf
import heatline as hl

WORKLOADS = ("verify-d1", "spectral-d2", "measures-d1")


@dataclass
class Op:
    """One public call with the runner's own check of its result.

    ``check`` returns a list of problems (empty when the output is right).
    ``digest`` returns the bytes whose repeat is the determinism check: the
    CSV and JSON exports for an experiment, the exact result values otherwise.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], bytes]


def _values_digest(result) -> bytes:
    return repr(result).encode()


def _export_digest(table) -> bytes:
    h = hashlib.sha256()
    h.update(hl.export(table, "csv"))
    h.update(hl.export(table, "json"))
    return h.digest()


def _far(label: str, got, want, tol: float) -> list:
    """Problems for each entry of got farther than tol from want."""
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    want = np.atleast_1d(np.asarray(want, dtype=complex))
    if got.shape != want.shape:
        return [f"{label}: {got.shape[0]} values, expected {want.shape[0]}"]
    err = np.abs(got - want)
    if not np.all(err <= tol):
        return [f"{label}: error {float(np.max(err)):.3e} > {tol:g}"]
    return []


# ---------------------------------------------------------------- experiment ops


def _cols(table, *names) -> list[np.ndarray]:
    idx = {name: i for i, name in enumerate(table.columns)}
    return [np.array([row[idx[n]] for row in table.rows]) for n in names]


def _cplx(table, re: str, im: str) -> np.ndarray:
    a, b = _cols(table, re, im)
    return a.astype(float) + 1j * b.astype(float)


def _xi(table, dim: int) -> np.ndarray:
    return np.stack(_cols(table, *[f"xi{j + 1}" for j in range(dim)]), axis=-1).astype(float)


def _check_verify_kernels(spec, table) -> list:
    dim, tol = spec.dim, spec.params["tol"]
    per_alpha = 4 * (41 if dim == 1 else 25) + (1 if dim == 1 else 0)
    if len(table.rows) != per_alpha * len(spec.params["alphas"]):
        return [f"verify-kernels: {len(table.rows)} rows, expected {per_alpha * len(spec.params['alphas'])}"]
    alpha, label = _cols(table, "alpha", "direction")
    got = _cplx(table, "computed_re", "computed_im")
    xi = _xi(table, dim)
    want = np.empty(len(table.rows), dtype=complex)
    for k in range(len(table.rows)):
        a = float(alpha[k])
        if label[k].endswith("@0.3i"):
            want[k] = cf.weierstrass(a, np.array([0.3j]))[0]
        elif "[gauss]" in label[k]:
            want[k] = cf.weierstrass(a, xi[k])[0]
        else:
            want[k] = cf.gauss(a, xi[k])[0]
    return _far("kernel pair", got, want, tol)


def _check_integrate(spec, table) -> list:
    got = _cplx(table, "value_re", "value_im")
    return _far("unit mass", got, cf.mass(spec.params["preset"], spec.dim), spec.params["tol"])


def _check_fourier(spec, table) -> list:
    p = spec.params
    if len(table.rows) != p["xi_count"]:
        return [f"fourier: {len(table.rows)} rows, expected {p['xi_count']}"]
    got = _cplx(table, "value_re", "value_im")
    return _far("transform", got, cf.transform(p["preset"], _xi(table, spec.dim)), p["tol"])


def _check_invert(spec, table) -> list:
    p = spec.params
    if len(table.rows) != len(p["xs"]) * len(p["alphas"]):
        return [f"invert: {len(table.rows)} rows"]
    x, alpha = (c.astype(float) for c in _cols(table, "x", "alpha"))
    inv = _cplx(table, "inversion_re", "inversion_im")
    mol = _cplx(table, "mollified_re", "mollified_im")
    want = np.array([cf.mollified(p["preset"], a, [v])[0] for v, a in zip(x, alpha)])
    return _far("inversion vs mollify", inv, mol, p["tol"]) + _far("mollified", mol, want, p["tol"])


def _check_mollify(spec, table) -> list:
    p = spec.params
    if len(table.rows) != len(p["xs"]):
        return [f"mollify: {len(table.rows)} rows"]
    (x,) = _cols(table, "x")
    got = _cplx(table, "value_re", "value_im")
    problems = _far("mollified", got, cf.mollified(p["preset"], p["alpha"], x.astype(float).reshape(-1, 1)), p["tol"])
    c = table.config
    if not c["l1_lhs"] <= c["l1_rhs"] + p["tol"]:
        problems.append(f"L1 contraction: {c['l1_lhs']!r} > {c['l1_rhs']!r}")
    problems += _far("L1 mass", c["l1_rhs"], cf.mass(p["preset"], 1), p["tol"])
    if not c["sup_mollified"] <= float(cf.value(p["preset"], [0.0])[0]) + p["tol"]:
        problems.append("sup contraction fails")
    return problems


def _check_multiplication(spec, table) -> list:
    p = spec.params
    want = cf.multiplication(p["a"], p["b"], spec.dim)
    lhs, rhs = _cplx(table, "lhs_re", "lhs_im"), _cplx(table, "rhs_re", "rhs_im")
    return _far("multiplication lhs", lhs, want, p["tol"]) + _far("multiplication rhs", rhs, want, p["tol"])


def _check_modulate(spec, table) -> list:
    p = spec.params
    if len(table.rows) != len(p["shifts"]) * len(p["etas"]):
        return [f"modulate: {len(table.rows)} rows"]
    a, eta = (c.astype(float) for c in _cols(table, "a", "eta"))
    want = cf.transform(p["preset"], (eta - a).reshape(-1, 1))
    direct = _cplx(table, "modulated_re", "modulated_im")
    shifted = _cplx(table, "shifted_re", "shifted_im")
    return _far("modulation shift rule", direct, want, 2.0 * p["tol"]) + _far("shifted transform", shifted, want, p["tol"])


def _check_measure_ft(spec, table, measure: cf.Measure) -> list:
    p = spec.params
    if len(table.rows) != p["xi_count"]:
        return [f"measure-ft: {len(table.rows)} rows"]
    got = _cplx(table, "value_re", "value_im")
    return _far("measure transform", got, measure.transform(_xi(table, 1)), p["tol"])


def _check_measure_invert(spec, table, measure: cf.Measure) -> list:
    p = spec.params
    if len(table.rows) != len(p["xs"]) * len(p["alphas"]):
        return [f"measure-invert: {len(table.rows)} rows"]
    alpha, x = (c.astype(float) for c in _cols(table, "alpha", "x"))
    inv = _cplx(table, "inversion_re", "inversion_im")
    mol = _cplx(table, "mollified_re", "mollified_im")
    want = np.array([measure.mollified(a, [v])[0] for a, v in zip(alpha, x)])
    return _far("measure inversion vs mollify", inv, mol, p["tol"]) + _far("measure mollified", mol, want, p["tol"])


def _check_weak(spec, table, measure: cf.Measure) -> list:
    p = spec.params
    c = cf.parse(p["h"])[1]
    if len(table.rows) != len(p["alphas"]):
        return [f"weak-convergence: {len(table.rows)} rows"]
    alpha, target = (col.astype(float) for col in _cols(table, "alpha", "target_re"))
    got = _cplx(table, "value_re", "value_im")
    want = np.array([measure.smoothed_against_gauss(a, c) for a in alpha])
    limit = [measure.apply_gauss(c)] * len(alpha)
    return _far("smoothed pairing", got, want, p["tol"]) + _far("weak limit", target, limit, p["tol"])


def _experiment(name: str, dim: int, params: dict, checker) -> Op:
    spec = hl.ExperimentSpec(name, dim, params)

    def check(table) -> list:
        problems = [] if table.passed else [f"{name}: passed=False ({table.summary})"]
        return problems + checker(spec, table)

    return Op(kind=f"run:{name}", call=lambda: hl.run(spec), check=check, digest=_export_digest)


# ---------------------------------------------------------------- draws


def _r(x: float) -> float:
    """Round a draw to 4 significant digits so specs and presets stay short."""
    return float(f"{x:.4g}")


def _jitter(rng: random.Random, level: float) -> float:
    return _r(level * rng.uniform(0.97, 1.03))


def _levels(rng: random.Random, levels: list) -> list:
    out = list(levels)
    rng.shuffle(out)
    return out


def _ladder(start: float, rungs: int) -> list:
    return [start * 2.0**-k for k in range(rungs)]


def _atoms(rng: random.Random, count: int, reach: float) -> list:
    return [
        ((_r(rng.uniform(-reach, reach)),), complex(_r(rng.uniform(-1.0, 1.0)), _r(rng.uniform(-0.5, 0.5))))
        for _ in range(count)
    ]


# ---------------------------------------------------------------- verify-d1


def _verify_d1(rng: random.Random) -> list[Op]:
    """All ten registered experiments at dim 1 (25 ops; the four inverts are the heavy tail)."""
    ops = []
    for head, b in _levels(rng, [("weierstrass", 0.05), ("gauss", 0.1), ("weierstrass", 0.2)]):
        ops.append(_experiment("integrate", 1, {"preset": f"{head}:{_jitter(rng, b)!r}", "tol": 1e-8}, _check_integrate))
    for head, b, count in _levels(rng, [("gauss", 0.05, 21), ("weierstrass", 0.1, 31), ("gauss", 0.2, 41)]):
        params = {"preset": f"{head}:{_jitter(rng, b)!r}", "tol": 1e-6, "xi_max": _r(rng.uniform(1.0, 3.0)), "xi_count": count}
        ops.append(_experiment("fourier", 1, params, _check_fourier))
    for pair in _levels(rng, [[0.05, 0.2], [0.1, 0.5]]):
        params = {"alphas": [_jitter(rng, a) for a in pair], "tol": 1e-6}
        ops.append(_experiment("verify-kernels", 1, params, _check_verify_kernels))
    for preset, start in _levels(
        rng, [("weierstrass:0.05", 0.2), ("weierstrass:0.1", 0.1), ("gauss:0.05", 0.1), ("gauss:0.1", 0.2)]
    ):
        params = {
            "preset": preset,
            "alphas": _ladder(start, 4),
            "xs": sorted(_r(rng.uniform(-1.0, 1.0)) for _ in range(2)),
            "tol": 1e-6,
        }
        ops.append(_experiment("invert", 1, params, _check_invert))
    for head, b, alpha in _levels(rng, [("weierstrass", 0.1, 0.05), ("gauss", 0.2, 0.1), ("weierstrass", 0.3, 0.2)]):
        reach = _r(rng.uniform(1.0, 2.0))
        params = {
            "preset": f"{head}:{_jitter(rng, b)!r}",
            "alpha": _jitter(rng, alpha),
            "xs": [_r(v) for v in np.linspace(-reach, reach, 13)],
            "tol": 1e-6,
        }
        ops.append(_experiment("mollify", 1, params, _check_mollify))
    for a, b in _levels(rng, [(0.05, 0.2), (0.1, 0.1)]):
        params = {"a": _jitter(rng, a), "b": _jitter(rng, b), "tol": 1e-6}
        ops.append(_experiment("multiplication", 1, params, _check_multiplication))
    for b in _levels(rng, [0.05, 0.1, 0.2]):
        params = {
            "preset": f"gauss:{_jitter(rng, b)!r}",
            "shifts": [_r(rng.uniform(-0.5, 0.5)) for _ in range(3)],
            "etas": [_r(rng.uniform(-0.5, 0.5)) for _ in range(3)],
            "tol": 1e-6,
        }
        ops.append(_experiment("modulate", 1, params, _check_modulate))
    for density in _levels(rng, [None, f"weierstrass:{_jitter(rng, 0.1)!r}"]):
        measure = cf.Measure(1, _atoms(rng, 2, 1.0), density)
        params = {"measure": json.dumps(measure.literal()), "tol": 1e-8, "xi_max": _r(rng.uniform(1.0, 3.0)), "xi_count": 21}
        ops.append(_experiment("measure-ft", 1, params, lambda s, t, m=measure: _check_measure_ft(s, t, m)))
    for density in _levels(rng, [None, f"gauss:{_jitter(rng, 0.1)!r}"]):
        measure = cf.Measure(1, _atoms(rng, 3, 0.8), density)
        params = {
            "measure": json.dumps(measure.literal()),
            "alphas": [0.2, 0.1, 0.05],
            "xs": sorted(_r(rng.uniform(-1.0, 1.0)) for _ in range(5)),
            "tol": 1e-6,
        }
        ops.append(_experiment("measure-invert", 1, params, lambda s, t, m=measure: _check_measure_invert(s, t, m)))
    # positive atoms within 0.08 of the origin keep the weak-convergence errors
    # monotone for c <= 1 (the experiment's own pass criterion)
    atoms = [((_r(rng.uniform(-0.08, 0.08)),), complex(_r(rng.uniform(0.5, 1.0)))) for _ in range(2)]
    measure = cf.Measure(1, atoms, None)
    params = {
        "measure": json.dumps(measure.literal()),
        "h": f"gauss:{_r(rng.uniform(0.5, 1.0))!r}",
        "alphas": _ladder(0.2, 5),
        "radius": 6.0,
        "points": 1024,
        "tol": 1e-6,
    }
    ops.append(_experiment("weak-convergence", 1, params, lambda s, t, m=measure: _check_weak(s, t, m)))
    warm, rest = ops[0], ops[1:]
    rng.shuffle(rest)
    return [warm, *rest]


# ---------------------------------------------------------------- spectral-d2


def _freq_grid(rng: random.Random, xi_max: float, per_axis: int) -> np.ndarray:
    """A per_axis x per_axis grid on [-xi_max, xi_max]^2, in seeded order.

    The grid itself is fixed by the level: its largest per-axis frequency
    decides the point-ladder rung, and so the cost.
    """
    axis = np.linspace(-xi_max, xi_max, per_axis)
    mesh = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    order = list(range(pts.shape[0]))
    rng.shuffle(order)
    return pts[order]


def _fourier_profile_op(preset: str, xi: np.ndarray, tol: float) -> Op:
    def call():
        return hl.fourier_profile(hl.parse_preset(preset, 2), xi, tol)

    def check(samples) -> list:
        got = np.array([s.value for s in samples])
        at = np.array([s.xi for s in samples])
        if at.shape != xi.shape or not np.array_equal(at, xi):
            return ["fourier_profile: samples not at the requested frequencies"]
        return _far(f"fourier_profile {preset}", got, cf.transform(preset, xi), tol)

    return Op(kind="lib:fourier_profile", call=call, check=check, digest=_values_digest)


def _spectral_d2(rng: random.Random) -> list[Op]:
    """Dim-2 transforms plus dim-2/3 integrals (15 ops; verify-kernels dim 2 is the heavy tail)."""
    ops = []
    for head, b in _levels(rng, [("weierstrass", 0.05), ("gauss", 0.1), ("weierstrass", 0.2)]):
        ops.append(_experiment("integrate", 2, {"preset": f"{head}:{_jitter(rng, b)!r}", "tol": 1e-8}, _check_integrate))
    for head, b in _levels(rng, [("weierstrass", 0.05), ("gauss", 0.1)]):
        ops.append(_experiment("integrate", 3, {"preset": f"{head}:{_jitter(rng, b)!r}", "tol": 1e-8}, _check_integrate))
    for head in ("gauss", "weierstrass"):
        for b, xi_max, per_axis in _levels(rng, [(0.05, 2.0, 5), (0.1, 1.5, 7), (0.2, 1.0, 7)]):
            xi = _freq_grid(rng, xi_max, per_axis)
            ops.append(_fourier_profile_op(f"{head}:{_jitter(rng, b)!r}", xi, 1e-6))
    for alpha in _levels(rng, [0.05, 0.2]):
        params = {"alphas": [_jitter(rng, alpha)], "tol": 1e-5}
        ops.append(_experiment("verify-kernels", 2, params, _check_verify_kernels))
    for head, b in _levels(rng, [("weierstrass", 0.1), ("gauss", 0.05)]):
        params = {"preset": f"{head}:{_jitter(rng, b)!r}", "tol": 1e-6, "xi_max": 2.0, "xi_count": 21}
        ops.append(_experiment("fourier", 2, params, _check_fourier))
    warm, rest = ops[0], ops[1:]
    rng.shuffle(rest)
    return [warm, *rest]


# ---------------------------------------------------------------- measures-d1


def _measure_ops(rng: random.Random, density: str) -> list[Op]:
    """Seven library calls on one measure of two atoms plus a kernel density."""
    truth = cf.Measure(1, _atoms(rng, 2, 1.0), density)
    measure = hl.measure_from_json(json.dumps(truth.literal()))
    density_only = hl.from_density(hl.parse_preset(density, 1))
    xi = _r(rng.uniform(-2.0, 2.0))
    ops = [Op(
        kind="measure.fourier",
        call=lambda: measure.fourier([xi], 1e-8),
        check=lambda v: _far("measure transform", v, truth.transform([xi]), 1e-8),
        digest=_values_digest,
    )]
    for alpha in _levels(rng, [0.2, 0.05]):
        x = _r(rng.uniform(-1.0, 1.0))
        pair = {}

        def inversion(x=x, alpha=alpha, pair=pair):
            pair["inv"] = measure.gauss_inversion([x], alpha, 2.5e-7)
            return pair["inv"]

        def cross_check(mol, x=x, alpha=alpha, pair=pair) -> list:
            if "inv" not in pair:
                return ["measure mollify: no inversion value to cross-check"]
            return _far("measure inversion vs mollify", pair.pop("inv"), mol, 1e-6) + _far(
                "measure mollified", mol, truth.mollified(alpha, [x]), 1e-6
            )

        ops.append(Op(
            kind="measure.gauss_inversion",
            call=inversion,
            check=lambda v, x=x, alpha=alpha: _far("measure inversion", v, truth.mollified(alpha, [x]), 1e-6),
            digest=_values_digest,
        ))
        ops.append(Op(
            kind="measure.mollify",
            call=lambda x=x, alpha=alpha: measure.mollify(alpha, [x], 2.5e-7),
            check=cross_check,
            digest=_values_digest,
        ))
    # below alpha ~0.1 some densities need the next points-ladder rung (3x the cost)
    alpha = _jitter(rng, 0.14)
    xs = np.round(np.linspace(-2.0, 2.0, 801) + rng.uniform(-0.05, 0.05), 6).reshape(-1, 1)
    ops.append(Op(
        kind="measure.mollify_on_points",
        call=lambda: measure.mollify_on_points(alpha, xs, 1e-8),
        check=lambda v: _far("batched mollify", v, truth.mollified(alpha, xs), 1e-6),
        digest=lambda v: v.tobytes(),
    ))
    c = _r(rng.uniform(0.5, 1.0))
    h = hl.gauss_fn(c, 1)
    alphas = _ladder(0.2, 4)
    grid = hl.GridSpec(6.0, 1024, 1)
    only = cf.Measure(1, [], density)

    def weak_check(samples) -> list:
        got = [s.value for s in samples]
        want = [only.smoothed_against_gauss(a, c) for a in alphas]
        targets = [s.target for s in samples]
        return _far("weak convergence", got, want, 1e-6) + _far(
            "weak limit", targets, [only.apply_gauss(c)] * len(alphas), 1e-6
        )

    ops.append(Op(
        kind="lib:weak_convergence_trace",
        call=lambda: hl.weak_convergence_trace(density_only, h, alphas, grid, 1e-8),
        check=weak_check,
        digest=_values_digest,
    ))
    return ops


def _measures_d1(rng: random.Random) -> list[Op]:
    """Five measures, one per density level, seven calls each (35 ops).

    The 801-point batches of mollify_on_points sit between the sub-millisecond
    calls and the inversions, so the p50 falls on them rather than on the
    noisiest, shortest calls.
    """
    ops = []
    for density in _levels(rng, ["weierstrass:0.05", "weierstrass:0.1", "weierstrass:0.2", "gauss:0.05", "gauss:0.1"]):
        head, b = density.split(":")
        ops.extend(_measure_ops(rng, f"{head}:{_jitter(rng, float(b))!r}"))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The seeded pass of ops for a workload; ops[0] is the warm-up op."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-d1":
        return _verify_d1(rng)
    if workload == "spectral-d2":
        return _spectral_d2(rng)
    if workload == "measures-d1":
        return _measures_d1(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
