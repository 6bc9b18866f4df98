"""Derived envelopes hold: every integrand the library builds stays within its envelope.

A declared envelope (a ``TestFunction`` and its ``scaled``/``shifted``
copies) is spot-checked when the function is constructed.  Integrands the
library derives from declared functions (Gauss means, smoothing, inversion,
pairings, ...) enter the engine directly, with envelopes proved in code;
this module checks those proofs.  It wraps the engine entry points
(``integrate_values``, the ladder walk ``walk_ladders``, the fixed-grid
sum of several walks ``_grid_walks`` and the grid-sum builders
``_value_sum``, ``_block_sums``, ``_phase_sums`` and ``_case_phase_sums``) in every
heatline module that imported them, runs every registered
experiment at its default spec plus the derived entry points those runs do
not reach, and evaluates each captured integrand at the runtime spot points
with the runtime slack.  A shared walk's integrands are read one walk at a
time.

A phase sum's integrand is read in values form: the phase has modulus 1,
so the envelope must bound the values.  A block sum's integrand is read
point by point through its block evaluator, a thousand calls, so a walk
that repeats the label, width and envelope of one already captured (the
same integrand summed for other evaluation points, such as the 41 points of
the mollify experiment) is checked once.
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
    fourier_complex,
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
    "mollify_ladder": r"mollify\[.+\]",
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


def _pointwise(block_sum: Callable) -> Callable:
    """The integrand behind a block evaluator: its block sum at one point with one unit weight row."""
    return lambda pts: np.array([block_sum(p[None, :], np.ones((1, 1))) for p in pts]).reshape(len(pts), -1)


@contextmanager
def captured_integrands():
    """Record every integrand handed to the engine while the block runs."""
    captures = []
    walks = set()
    integrate_values, walk_ladders, grid_walks = quadrature.integrate_values, quadrature.walk_ladders, quadrature._grid_walks
    value_sum, block_sums, phase_sums = quadrature._value_sum, quadrature._block_sums, quadrature._phase_sums
    case_phase_sums = quadrature._case_phase_sums

    def capture_values(values, envelope, dim, label, *args, **kwargs):
        captures.append(Capture(label, envelope, dim, values))
        return integrate_values(values, envelope, dim, label, *args, **kwargs)

    def capture(integrand, envelope, dim, label):
        if integrand is not None:
            # a pointwise reader is costly, so it reads a repeated walk once; its width is read at one point
            values, pointwise = integrand
            width = values(_spot_points(dim)[:1]).shape[1] if pointwise else None
            if width is None or (label, width, envelope) not in walks:
                walks.add((label, width, envelope))
                captures.append(Capture(label, envelope, dim, values))

    def capture_walks(grid_sums, envelopes, dim, tol, labels, *args, **kwargs):
        # every walk sums the tagged grid sums of one of the builders: each walk is read on its own
        assert hasattr(grid_sums, "integrands"), f"walk for {labels!r} sums untagged grid sums"
        for i, (envelope, label) in enumerate(zip(envelopes, labels)):
            capture(grid_sums.integrands(i), envelope, dim, label)
        return walk_ladders(grid_sums, envelopes, dim, tol, labels, *args, **kwargs)

    def capture_grid_walks(grid_sums, grid, envelopes, labels):
        # as for a ladder walk: each walk on the given grid is read on its own
        assert hasattr(grid_sums, "integrands"), f"grid sum for {labels!r} sums untagged grid sums"
        for i, (envelope, label) in enumerate(zip(envelopes, labels)):
            capture(grid_sums.integrands(i), envelope, grid.dim, label)
        return grid_walks(grid_sums, grid, envelopes, labels)

    def tag_value_sum(values):
        # integrate_values captured these values already
        grid_sums = value_sum(values)
        grid_sums.integrands = lambda i: None
        return grid_sums

    def tag_phase_sums(values, xi):
        # every walk of a phase sum sums the same values, at its own frequency
        grid_sums = phase_sums(values, xi)
        grid_sums.integrands = lambda i: (values, False)
        return grid_sums

    def tag_case_phase_sums(cases, xi):
        # walk i sums its own case's values, each checked against that walk's envelope
        grid_sums = case_phase_sums(cases, xi)
        grid_sums.integrands = lambda i: (cases[i][0], False)
        return grid_sums

    def tag_block_sums(block_for):
        grid_sums = block_sums(block_for)
        grid_sums.integrands = lambda i: (_pointwise(block_for([i])), True)
        return grid_sums

    wrappers = {
        integrate_values: capture_values,
        walk_ladders: capture_walks,
        grid_walks: capture_grid_walks,
        value_sum: tag_value_sum,
        phase_sums: tag_phase_sums,
        case_phase_sums: tag_case_phase_sums,
        block_sums: tag_block_sums,
    }
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


def test_the_check_catches_a_halved_phase_envelope(monkeypatch):
    table = transforms._transform_table

    def halved(cases, *args):
        return table([(values, envelope.scaled(0.5), label, sign) for values, envelope, label, sign in cases], *args)

    monkeypatch.setattr(transforms, "_transform_table", halved)
    with captured_integrands() as captures:
        fourier_complex(gauss_fn(0.1), [0.3j])
    assert [label for label, _ in violations(captures)] == ["fourier[gauss:0.1]@complex"]


def test_the_check_reads_each_case_of_a_transform_table_against_its_own_envelope(monkeypatch):
    table = transforms._transform_table

    def halved_second(cases, *args):
        # the second case, weierstrass forward, under half its envelope; the others keep theirs
        return table([(v, e.scaled(0.5) if i == 1 else e, label, sign) for i, (v, e, label, sign) in enumerate(cases)], *args)

    monkeypatch.setattr(transforms, "_transform_table", halved_second)
    with captured_integrands() as captures:
        run(ExperimentSpec("verify-kernels", 1, {"alphas": [0.1]}))
    assert [label for label, _ in violations(captures)] == ["weierstrass:0.1"]
