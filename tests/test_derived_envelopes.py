"""Derived envelopes hold: every integrand the library builds stays within its envelope.

A declared envelope (a ``TestFunction`` and its ``scaled``/``shifted``
copies) is spot-checked when the function is constructed; the last tests
here build such copies under each envelope class that derives one.
Integrands the library derives from declared functions (Gauss means,
smoothing, inversion, pairings, ...) enter the engine directly, as
``_Integrand``s or as grid sums, with envelopes proved in code; this module
checks those proofs.  It wraps the engine entry points
(``integrate_values``, the ladder walk ``walk_ladders``, the fixed-grid
sum of several walks ``_grid_walks`` and the grid-sum builders
``_value_sum`` and ``_block_sums``) in every heatline module that imported
them, runs every registered experiment at its default spec plus the
derived entry points those runs do not reach, and evaluates each captured
integrand at the runtime spot points with the runtime slack.
``integrate_values`` takes its integrand whole, and it is read whole: its
values, envelope, dim and name.  A shared walk's integrands are read one
walk at a time.

A phase sum's integrand is read in values form: the phase has modulus 1,
so the envelope must bound the values.  A walk whose grid sums call
``GridSpec.phase_sum`` directly is read by handing its grid sums a grid
that records the one case the walk sums and sums nothing.  A block sum's
integrand is read point by point through its block evaluator, a thousand
calls, so a walk that repeats the label, width and envelope of one already
captured (the same integrand summed for other evaluation points, such as
the 41 points of the mollify experiment) is checked once.
"""

import math
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
    CompactSupport,
    GridSpec,
    PolynomialDecay,
    TestFunction,
    bump_pair_fn,
    constant_fn,
    fourier_complex,
    gauss_fn,
    gauss_mean,
    integrate_auto,
    mollify,
    mollify_l1_check,
    weak_convergence_trace,
    weierstrass_fn,
)
from heatline import experiments, quadrature, transforms
from heatline.experiments import EXPERIMENTS, ExperimentSpec, run
from heatline.quadrature import _ENVELOPE_SLACK, _spot_geometry

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


class _PhaseRecorder:
    """A grid for one walk's grid sums: ``phase_sum`` records the walk's one case and returns zero sums.

    Grid sums that call anything else fail on the missing attribute: a
    walk's grid sums are tagged by a builder or are phase sums.
    """

    case = None

    def phase_sum(self, cases: list, xi: np.ndarray) -> list[np.ndarray]:
        assert self.case is None and len(cases) == 1, "one walk sums one case, once"
        [(self.case, _)] = cases
        return [np.zeros((2, xi.shape[0]), dtype=np.complex128)]


@contextmanager
def captured_integrands():
    """Record every integrand handed to the engine while the block runs."""
    captures = []
    walks = set()
    integrate_values, walk_ladders, grid_walks = quadrature.integrate_values, quadrature.walk_ladders, quadrature._grid_walks
    value_sum, block_sums = quadrature._value_sum, quadrature._block_sums

    def capture_values(g, *args, **kwargs):
        captures.append(Capture(g.name, g.envelope, g.dim, g))
        return integrate_values(g, *args, **kwargs)

    def capture(integrand, envelope, dim, label):
        if integrand is not None:
            # a pointwise reader is costly, so it reads a repeated walk once; its width is read at one point
            values, pointwise = integrand
            width = values(_spot_geometry(dim)[0][:1]).shape[1] if pointwise else None
            if width is None or (label, width, envelope) not in walks:
                walks.add((label, width, envelope))
                captures.append(Capture(label, envelope, dim, values))

    def integrands(grid_sums, i):
        # the tagged grid sums of one of the builders, or else phase sums, read through a recording grid
        if hasattr(grid_sums, "integrands"):
            return grid_sums.integrands(i)
        recorder = _PhaseRecorder()
        grid_sums(recorder, [i])
        return recorder.case, False

    def capture_walks(grid_sums, envelopes, dim, tol, labels, *args, **kwargs):
        # each walk is read on its own
        for i, (envelope, label) in enumerate(zip(envelopes, labels)):
            capture(integrands(grid_sums, i), envelope, dim, label)
        return walk_ladders(grid_sums, envelopes, dim, tol, labels, *args, **kwargs)

    def capture_grid_walks(grid_sums, grid, envelopes, labels):
        # as for a ladder walk: each walk on the given grid is read on its own
        for i, (envelope, label) in enumerate(zip(envelopes, labels)):
            capture(integrands(grid_sums, i), envelope, grid.dim, label)
        return grid_walks(grid_sums, grid, envelopes, labels)

    def tag_value_sum(values):
        # integrate_values captured these values already
        grid_sums = value_sum(values)
        grid_sums.integrands = lambda i: None
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
        pts = _spot_geometry(c.dim)[0]
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


def _halved(g) -> quadrature._Integrand:
    """g's values, dim, name and factors under half its envelope."""
    return quadrature._Integrand(g, g.envelope.scaled(0.5), g.dim, g.name, g.factors)


def test_the_check_catches_a_halved_phase_envelope(monkeypatch):
    table = transforms._transform_table

    def halved(cases, *args):
        return table([(_halved(g), inverse) for g, inverse in cases], *args)

    monkeypatch.setattr(transforms, "_transform_table", halved)
    with captured_integrands() as captures:
        fourier_complex(gauss_fn(0.1), [0.3j])
    assert [label for label, _ in violations(captures)] == ["fourier[gauss:0.1]@complex"]


def test_the_check_reads_each_case_of_a_transform_table_against_its_own_envelope(monkeypatch):
    table = transforms._transform_table

    def halved_second(cases, *args):
        # the second case, weierstrass forward, under half its envelope; the others keep theirs
        return table([(_halved(g) if i == 1 else g, inverse) for i, (g, inverse) in enumerate(cases)], *args)

    monkeypatch.setattr(experiments, "_transform_table", halved_second)  # the runner's own import
    with captured_integrands() as captures:
        run(ExperimentSpec("verify-kernels", 1, {"alphas": [0.1]}))
    assert [label for label, _ in violations(captures)] == ["weierstrass:0.1"]


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1 / (1 - t^2)) on |t| < 1, and 0 elsewhere."""
    inside = np.abs(t) < 1.0
    out = np.zeros(t.shape)
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _polynomial_fn(dim: int) -> TestFunction:
    """prod_j (1 + x_j^2)^-8, factored, under PolynomialDecay(16, (2 dim)^8).

    (1 + |x|)^2 <= 2 (1 + |x|^2) <= 2 dim (1 + max_j x_j^2), and the
    product is at most (1 + max_j x_j^2)^-8.
    """
    factor = lambda t: (1.0 + t * t) ** -8.0
    envelope = PolynomialDecay(16.0, (2.0 * dim) ** 8)
    return TestFunction(lambda pts: np.prod(factor(pts), axis=1), dim, envelope, name="poly", factors=(factor,) * dim)


def _compact_fn(dim: int) -> TestFunction:
    """prod_j bump(x_j / 2), factored: zero outside the cube [-2, 2]^dim, so outside radius 2 sqrt(dim)."""
    factor = lambda t: _bump(t / 2.0)
    envelope = CompactSupport(2.0 * math.sqrt(dim))
    return TestFunction(lambda pts: np.prod(factor(pts), axis=1), dim, envelope, name="bumps", factors=(factor,) * dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("build", [_polynomial_fn, _compact_fn], ids=["polynomial", "compact"])
def test_scaled_and_shifted_copies_hold_their_derived_envelopes(build, dim):
    f, c, offset = build(dim), -1.5 + 0.5j, np.array([0.1, -0.05, 0.05])[:dim]
    # each copy's constructor spot-checks the envelope its declaration derives
    scaled, shifted = f.scaled(c), f.shifted(offset)
    assert scaled.envelope == f.envelope.scaled(abs(c))
    assert shifted.envelope == f.envelope.shifted(float(np.sqrt(np.sum(offset * offset))))
    assert scaled(np.zeros((1, dim)))[0] == c * f(np.zeros((1, dim)))[0]
    # a translate has the same integral: each side within its own error budget
    base, _ = integrate_auto(f, 1e-5)
    moved, _ = integrate_auto(shifted, 1e-5)
    assert abs(moved.value - base.value) <= base.error_budget + moved.error_budget


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_zero_shift_keeps_the_gaussian_envelope(dim):
    f = gauss_fn(0.1, dim)
    assert f.shifted(np.zeros(dim)).envelope is f.envelope
