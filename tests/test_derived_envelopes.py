"""Derived envelopes hold: every integrand the library builds stays within its envelope.

A declared envelope (a ``TestFunction`` and its ``scaled``/``shifted``
copies) is spot-checked when the function is constructed.  Integrands the
library derives from declared functions (Gauss means, smoothing, inversion,
pairings, ...) enter the engine directly, with envelopes proved in code;
this module checks those proofs.  It wraps the engine entry points
(``integrate_values`` and ``walk_ladder``) in every heatline module that
imported them, runs every registered experiment at its default spec plus the
derived entry points those runs do not reach, and evaluates each captured
integrand at the runtime spot points with the runtime slack.

A walk's integrand is read point by point through its block evaluator, a
thousand calls, so a walk that repeats the label, width and envelope of one
already captured (the same integrand summed for other evaluation points or
frequencies, such as the 41 points of the mollify experiment) is checked
once.
"""

import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from heatline import (
    Atom,
    BoundedMeasure,
    GridSpec,
    TestFunction,
    bump_pair_fn,
    constant_fn,
    gauss_fn,
    gauss_mean,
    mollify,
    mollify_l1_check,
    weak_convergence_trace,
    weierstrass_fn,
)
from heatline import quadrature, transforms
from heatline.experiments import EXPERIMENTS, ExperimentSpec, run
from heatline.quadrature import _ENVELOPE_SLACK, _spot_points

# each derived integrand's label, by the routine that derives it
DERIVED_LABELS = {
    "gauss_mean": r"gauss-mean\[.+\]",
    "mollify_on_points": r"mollify\[.+\]",
    "fourier_complex": r"fourier\[.+\]@complex",
    "modulate": r"mod\[.+\]",
    "invert_spectrum": r"gauss-inv\[.+\]",
    "_dual_pairing": r"dual\[.+,.+\]",
    "mollify_l1_check": r"\|smooth\[.+\]\|",
    "BoundedMeasure.apply": r"pair\[.+,.+\]",
    "weak_convergence_trace": r"weak\[.+\]@.+",
    "l1_norm": r"\|[^\[\]]+\|",
}


@dataclass(frozen=True)
class Capture:
    label: str
    envelope: object
    dim: int
    values: Callable  # (m, dim) points -> m values, or (m, width) for a vector-valued walk


def _pointwise(block_sum: Callable, width: int) -> Callable:
    """The integrand behind a block evaluator: its block sum at one point with unit weight."""
    return lambda pts: np.array([block_sum(p[None, :], np.ones(1)) for p in pts]).reshape(len(pts), width)


@contextmanager
def captured_integrands():
    """Record every integrand handed to the engine while the block runs."""
    captures = []
    walks = set()
    integrate_values, walk_ladder, value_sum = quadrature.integrate_values, quadrature.walk_ladder, quadrature._value_sum

    def capture_values(values, envelope, dim, label, *args, **kwargs):
        captures.append(Capture(label, envelope, dim, values))
        return integrate_values(values, envelope, dim, label, *args, **kwargs)

    def capture_walk(block_sum, width, envelope, dim, tol, label, *args, **kwargs):
        # a walk on integrate_values' own block sum was captured there, in values form
        if not getattr(block_sum, "values_form", False) and (label, width, envelope) not in walks:
            walks.add((label, width, envelope))
            captures.append(Capture(label, envelope, dim, _pointwise(block_sum, width)))
        return walk_ladder(block_sum, width, envelope, dim, tol, label, *args, **kwargs)

    def mark_value_sum(values):
        block_sum = value_sum(values)
        block_sum.values_form = True
        return block_sum

    wrappers = {integrate_values: capture_values, walk_ladder: capture_walk, value_sum: mark_value_sum}
    modules = [m for name, m in sys.modules.items() if name == "heatline" or name.startswith("heatline.")]
    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            for key, value in list(vars(module).items()):
                if any(value is original for original in wrappers):
                    mp.setattr(module, key, wrappers[value])
        yield captures


def violations(captures: list[Capture]) -> list[tuple[str, float]]:
    """(label, worst excess) of each capture whose values leave its envelope at the spot points."""
    out = []
    for c in captures:
        pts = _spot_points(c.dim)
        mags = np.abs(np.asarray(c.values(pts))).reshape(len(pts), -1)
        limit = c.envelope.bound(np.sqrt(np.sum(pts * pts, axis=1))) * (1.0 + _ENVELOPE_SLACK) + 1e-300
        excess = float(np.max(mags - limit[:, None]))
        if excess > 0.0:
            out.append((c.label, excess))
    return out


def _unbounded(f: TestFunction) -> TestFunction:
    """f's values under its own envelope with no sup bound declared."""
    return TestFunction(f.f, f.dim, f.envelope, name=f"unbounded-{f.name}")


def _derived_entry_points() -> None:
    """The derived integrands that no experiment builds at its default spec."""
    gauss_mean(weierstrass_fn(0.1), 0.05)
    gauss_mean(constant_fn(2.0), 0.05)
    mollify(_unbounded(weierstrass_fn(0.1)), 0.05, [0.3])
    mollify_l1_check(weierstrass_fn(0.1), 0.1, GridSpec(6.0, 256, 1))
    mollify_l1_check(bump_pair_fn(0.8), 0.1, GridSpec(6.0, 256, 1))
    measure = BoundedMeasure(dim=1, atoms=(Atom((0.5,), 1.0 - 0.5j),), density=weierstrass_fn(0.1))
    measure.apply(gauss_fn(1.0))
    measure.mollify_on_points(0.1, np.linspace(-2.0, 2.0, 9).reshape(-1, 1))
    weak_convergence_trace(measure, gauss_fn(1.0), [0.2, 0.1], GridSpec(6.0, 256, 1))


def test_every_derived_integrand_stays_within_its_envelope():
    with captured_integrands() as captures:
        for name in EXPERIMENTS:
            run(ExperimentSpec(name))
        _derived_entry_points()
    assert violations(captures) == []
    unseen = [
        routine for routine, pattern in DERIVED_LABELS.items()
        if not any(re.fullmatch(pattern, c.label) for c in captures)
    ]
    assert unseen == []


def test_the_check_catches_a_halved_envelope(monkeypatch):
    peak = transforms.weierstrass_peak
    monkeypatch.setattr(transforms, "weierstrass_peak", lambda scale: 0.5 * peak(scale))
    with captured_integrands() as captures:
        mollify(weierstrass_fn(0.1), 0.1, [0.0])
    assert [label for label, _ in violations(captures)] == ["mollify[weierstrass:0.1]"]
