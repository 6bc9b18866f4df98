"""Span recorder for the traced run, and the per-layer metrics derived from it.

Tracing lives only in the benchmark: ``instrument`` wraps the public
functions of each heatline layer (module) in place, both in the module that
defines them and in every heatline module that imported them by name (for
example ``heatline.transforms.integrate_auto``), and patches the methods on
their classes.  A call between layers therefore becomes a parent/child pair
of spans, and a layer's self time is its span time minus the time of its
child spans.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import heatline.measures
import heatline.quadrature


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    op: int  # index of the runner op this span belongs to
    nodes: int = 0  # grid nodes evaluated, for quadrature.integrate
    raised: bool = False


class Recorder:
    """Keeps spans in memory; ``wrap`` makes a function record one span per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str, nodes: int = 0) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op, nodes)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, index: int, kind: str):
        """Root span around one runner op; its spans share the op index."""
        self._op = index
        span = self._open(f"op:{kind}")
        try:
            yield
        finally:
            self._close(span)
            self._op = -1

    def wrap(self, name: str, fn, count_nodes=None):
        def traced(*args, **kwargs):
            span = self._open(name, count_nodes(*args, **kwargs) if count_nodes else 0)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def write(self, path: Path) -> None:
        """Gzipped, one JSON array per line: name, start, end, parent, op, nodes."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.nodes]) + "\n")


def _integrate_nodes(g, grid, *args, **kwargs) -> int:
    """Nodes of one integrate call: the fine grid (N+1)^d plus the coarse (N/2+1)^d."""
    n, d = grid.points_per_axis, grid.dim
    return (n + 1) ** d + (n // 2 + 1) ** d


# (module, attribute, span name) for the wrapped functions
FUNCTIONS = (
    ("heatline.quadrature", "integrate", "quadrature.integrate"),
    ("heatline.quadrature", "integrate_auto", "quadrature.integrate_auto"),
    ("heatline.transforms", "fourier_profile", "transforms.fourier_profile"),
    ("heatline.transforms", "gauss_inversion", "transforms.gauss_inversion"),
    ("heatline.transforms", "mollify", "transforms.mollify"),
    ("heatline.transforms", "fourier", "transforms.fourier"),
    ("heatline.transforms", "fourier_complex", "transforms.fourier_complex"),
    ("heatline.transforms", "modulate", "transforms.modulate"),
    ("heatline.transforms", "mollify_l1_check", "transforms.mollify_l1_check"),
    ("heatline.transforms", "multiplication_formula_check", "transforms.multiplication_formula_check"),
    ("heatline.measures", "weak_convergence_trace", "measures.weak_convergence_trace"),
    ("heatline.kernels", "gauss", "kernels.gauss"),
    ("heatline.kernels", "weierstrass", "kernels.weierstrass"),
    ("heatline.points", "dot", "points.dot"),
    ("heatline.catalog", "parse_preset", "catalog.parse_preset"),
    ("heatline.experiments", "run", "experiments.run"),
    ("heatline.experiments", "export", "experiments.export"),
)

# (class, method, span name) for the wrapped methods; a TestFunction is
# built when its __post_init__ runs the envelope spot check
METHODS = (
    (heatline.quadrature.TestFunction, "__post_init__", "quadrature.testfunction"),
    (heatline.measures.BoundedMeasure, "fourier", "measures.fourier"),
    (heatline.measures.BoundedMeasure, "mollify", "measures.mollify"),
    (heatline.measures.BoundedMeasure, "mollify_on_points", "measures.mollify_on_points"),
    (heatline.measures.BoundedMeasure, "gauss_inversion", "measures.gauss_inversion"),
)


@contextmanager
def instrument(recorder: Recorder):
    """Wrap every layer function and method for the duration of the block."""
    modules = [m for name, m in sys.modules.items() if name == "heatline" or name.startswith("heatline.")]
    undo = []
    try:
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = recorder.wrap(span, original, _integrate_nodes if span == "quadrature.integrate" else None)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, traced)
        for cls, attr, span in METHODS:
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, recorder.wrap(span, original))
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# per-layer metrics: (metric prefix, span names summed into it)
LAYERS = (
    ("quadrature.testfunction", ("quadrature.testfunction",)),
    ("quadrature.integrate", ("quadrature.integrate",)),
    ("quadrature.integrate_auto", ("quadrature.integrate_auto",)),
    *((f"transforms.{f}", (f"transforms.{f}",)) for f in (
        "fourier_profile", "gauss_inversion", "mollify", "fourier", "fourier_complex",
        "modulate", "mollify_l1_check", "multiplication_formula_check",
    )),
    *((f"measures.{f}", (f"measures.{f}",)) for f in (
        "fourier", "mollify", "mollify_on_points", "gauss_inversion", "weak_convergence_trace",
    )),
    ("kernels", ("kernels.gauss", "kernels.weierstrass")),
    ("points.dot", ("points.dot",)),
    ("catalog.parse_preset", ("catalog.parse_preset",)),
    ("experiments.run", ("experiments.run",)),
    ("experiments.export", ("experiments.export",)),
)

# experiments.* are reported by self time only: their call counts are the
# runner's own op counts
_NO_CALLS = ("experiments.run", "experiments.export")


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for prefix, _ in LAYERS:
        if prefix not in _NO_CALLS:
            count = "builds" if prefix == "quadrature.testfunction" else "calls"
            out.append((f"{prefix}.{count}", "count/pass"))
        out.append((f"{prefix}.self_s", "s/pass"))
        if prefix == "quadrature.integrate":
            out.append(("quadrature.integrate.nodes", "count/pass"))
    out += [
        ("quadrature.ladder.rungs_per_walk", "count"),
        ("quadrature.ladder.useful_ratio", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Counts and self times per pass, and the ladder-walk ratios.

    A ladder walk is one quadrature.integrate_auto span; its rungs are its
    quadrature.integrate children, and the chosen rung is the last of them
    when the walk returned.  useful_ratio is the chosen rungs' nodes over
    all nodes walked.
    """
    child_time = [0.0] * len(spans)
    rungs: dict[int, list[int]] = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            if s.name == "quadrature.integrate" and spans[s.parent].name == "quadrature.integrate_auto":
                rungs.setdefault(s.parent, []).append(s.nodes)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    nodes = 0
    for k, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start) - child_time[k]
        nodes += s.nodes
    out = {}
    for prefix, names in LAYERS:
        out[f"{prefix}.calls"] = sum(calls.get(n, 0) for n in names) / passes
        out[f"{prefix}.self_s"] = sum(self_s.get(n, 0.0) for n in names) / passes
    out["quadrature.testfunction.builds"] = out.pop("quadrature.testfunction.calls")
    out["quadrature.integrate.nodes"] = nodes / passes
    walks = [k for k, s in enumerate(spans) if s.name == "quadrature.integrate_auto"]
    walked = sum(sum(rungs.get(k, [])) for k in walks)
    useful = sum(rungs[k][-1] for k in walks if k in rungs and not spans[k].raised)
    out["quadrature.ladder.rungs_per_walk"] = sum(len(rungs.get(k, [])) for k in walks) / max(1, len(walks))
    out["quadrature.ladder.useful_ratio"] = useful / walked if walked else 0.0
    return out
