"""Bounded measures: finite atoms plus an optional continuous density.

A measure here acts on bounded continuous functions as

    lam(h) = sum_j c_j h(a_j) + integral of density(x) h(x) dx

and carries the functional bound value sum_j |c_j| + integral of |density|,
recomputed at construction, so the defining inequality
|lam(h)| <= bound * sup|h| is machine-checkable.  The Dirac mass is the
single-atom case; a density alone gives the classical integral pairing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .catalog import parse_preset
from .kernels import KernelScale, weierstrass, weierstrass_peak
from .points import check_dim, cis, real_point, real_points
from .quadrature import (
    _TINY,
    CompactSupport,
    GaussianDecay,
    GridSpec,
    QuadratureError,
    TestFunction,
    _block_sums,
    _check_tolerance,
    _grid_walks,
    integrate_values,
    l1_norm,
)
from .transforms import (
    Spectrum,
    _fourier_rows,
    _mollify_walks,
    invert_spectrum,
    sampled_spectrum,
)


@dataclass(frozen=True)
class Atom:
    """A point mass: complex weight at a location."""

    location: tuple[float, ...]
    weight: complex

    def __post_init__(self) -> None:
        loc = tuple(float(v) for v in np.atleast_1d(np.asarray(self.location, dtype=float)))
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "weight", complex(self.weight))
        if not all(math.isfinite(v) for v in loc) or not np.isfinite(self.weight):
            raise ValueError("atom location and weight must be finite")

    @property
    def dim(self) -> int:
        return len(self.location)


@dataclass(frozen=True)
class BoundedMeasure:
    """Finite atoms plus an optional integrable density, with its computed bound."""

    dim: int
    atoms: tuple[Atom, ...] = ()
    density: TestFunction | None = None
    bound: float = field(init=False)

    def __post_init__(self) -> None:
        check_dim(self.dim)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for atom in self.atoms:
            if atom.dim != self.dim:
                raise ValueError(
                    f"atom at {atom.location} has dimension {atom.dim}, measure has {self.dim}"
                )
        total = float(sum(abs(a.weight) for a in self.atoms))
        if self.density is not None:
            if self.density.dim != self.dim:
                raise ValueError("density dimension does not match the measure")
            if not self.density.integrable:
                raise QuadratureError("the density of a bounded measure must be integrable-certified")
            mass = l1_norm(self.density, 1e-9)
            total += float(mass.value.real) + mass.error_budget
        object.__setattr__(self, "bound", total)

    @property
    def atom_locations(self) -> np.ndarray:
        return np.array([a.location for a in self.atoms], dtype=float).reshape(len(self.atoms), self.dim)

    @property
    def atom_weights(self) -> np.ndarray:
        return np.array([a.weight for a in self.atoms], dtype=np.complex128)

    def apply(self, h: TestFunction, tol: float = 1e-8) -> complex:
        """Evaluate the measure on a bounded test function."""
        _check_tolerance(tol)
        if h.dim != self.dim:
            raise ValueError(f"dimension mismatch: measure {self.dim}, function {h.dim}")
        if not h.bounded or h.sup_bound is None:
            raise ValueError(f"measures act on bounded functions; {h.name!r} declares no sup bound")
        out = 0.0 + 0.0j
        if self.atoms:
            out += complex(np.sum(self.atom_weights * np.asarray(h(self.atom_locations))))
        if self.density is not None:
            density = self.density

            def fn(pts: np.ndarray) -> np.ndarray:
                return density(pts) * h(pts)

            envelope = density.envelope.scaled(max(h.sup_bound, _TINY))
            result, _ = integrate_values(fn, envelope, self.dim, f"pair[{density.name},{h.name}]", tol)
            out += complex(result.value)
        return out

    def fourier(self, xi, tol: float = 1e-8) -> complex:
        """Transform value: the measure applied to the character at xi."""
        xi = real_point(xi, self.dim)
        return complex(self._fourier_rows(xi.reshape(1, -1), tol)[0])

    def _fourier_rows(self, xi_pts: np.ndarray, tol: float) -> np.ndarray:
        """``fourier`` at each row of xi_pts: the atoms in closed form, the density in one walk per row."""
        _check_tolerance(tol)
        out = np.zeros(xi_pts.shape[0], dtype=np.complex128)
        if self.atoms:
            phases = cis(-2.0 * math.pi * (xi_pts @ self.atom_locations.T))
            out += (self.atom_weights * phases).sum(axis=1)
        if self.density is not None:
            out += _fourier_rows(self.density, xi_pts, tol)
        return out

    def mollify(self, alpha: float, y, tol: float = 1e-8) -> complex:
        """Smoothed value: the measure applied to the kernel centered at y; one row of mollify_on_points."""
        y = real_point(y, self.dim)
        return complex(self.mollify_on_points(alpha, y.reshape(1, -1), tol)[0])

    def mollify_on_points(self, alpha: float, xs: np.ndarray, inner_tol: float = 1e-8) -> np.ndarray:
        """Smoothed values on a batch of points (rows of xs); the one-alpha row of mollify_ladder."""
        return self.mollify_ladder([alpha], xs, inner_tol)[0]

    def mollify_ladder(self, alphas, xs: np.ndarray, inner_tol: float = 1e-8) -> np.ndarray:
        """Smoothed values for each alpha (rows) at each row of xs (columns), a (len(alphas), k) array.

        Each row starts from zeros, adds the atoms' kernels at that scale,
        then the smoothed density; the density is smoothed once per ladder
        grid for every alpha (see ``transforms.mollify_ladder``, which also
        says which ``xs`` are accepted).
        """
        return self._mollify_walks(alphas, real_points(xs, self.dim), inner_tol, per_point=False)

    def _mollify_walks(self, alphas, xs: np.ndarray, inner_tol: float, per_point: bool) -> np.ndarray:
        """``mollify_ladder``, with the density smoothed in one walk per (alpha, point) when ``per_point``.

        See ``transforms._mollify_walks``.  The atoms' kernel sum is one
        matrix product per alpha over every row of xs either way.
        """
        _check_tolerance(inner_tol)
        scales = [KernelScale(alpha, self.dim) for alpha in alphas]
        out = np.zeros((len(scales), xs.shape[0]), dtype=np.complex128)
        if self.atoms:
            diffs = xs[:, None, :] - self.atom_locations[None, :, :]
            for row, scale in zip(out, scales):
                row += weierstrass(scale, diffs) @ self.atom_weights
        if self.density is not None:
            out += _mollify_walks(self.density, alphas, xs, inner_tol, per_point)
        return out

    def spectrum(self, inner_tol: float, max_freq: float) -> Spectrum:
        """The measure's transform: atoms in closed form plus the sampled density transform.

        The atoms' part is keyed by their locations and weights, and the
        density's by its sampling grid (see ``transforms.Spectrum``).
        """
        _check_tolerance(inner_tol)
        locations = self.atom_locations
        weights = self.atom_weights
        spectrum = Spectrum(
            lambda xi_pts: cis(-2.0 * math.pi * (xi_pts @ locations.T)) @ weights,
            float(np.sum(np.abs(weights))),
            float(np.max(np.sqrt(np.sum(locations**2, axis=1)))) if weights.size else 0.0,
            ("atoms", locations.tobytes(), weights.tobytes()),
        )
        if self.density is not None:
            spectrum = spectrum + sampled_spectrum(self.density, inner_tol, max_freq)
        return spectrum

    def gauss_inversion(self, x, alpha: float, tol: float = 1e-8) -> complex:
        """Gauss-weighted inversion at x; a one-alpha, one-point gauss_inversion_ladder."""
        x = real_point(x, self.dim)
        return complex(self.gauss_inversion_ladder([alpha], x.reshape(1, -1), tol)[0, 0])

    def gauss_inversion_ladder(self, alphas, xs, tol: float = 1e-8) -> np.ndarray:
        """Gauss-weighted inversion of the measure transform for each alpha (rows) at each row of xs (columns).

        Each alpha samples the transform for itself and each point keeps its
        own outer grid (see ``invert_spectrum``), so row j is
        ``gauss_inversion_ladder([alphas[j]], xs, tol)[0]`` bit for bit; a
        frequency block of the atoms, or of the density on one x-grid, is
        sampled once for every walk that meets it.  Cross-checks against
        ``mollify_ladder``: the two routes share no computation, yet agree
        within tolerance.
        """
        return invert_spectrum(self.spectrum, self.dim, xs, alphas, tol, "measure")


def dirac(location, weight: complex = 1.0) -> BoundedMeasure:
    """The Dirac mass: evaluation at a point, optionally weighted."""
    atom = Atom(location=tuple(np.atleast_1d(np.asarray(location, dtype=float))), weight=weight)
    return BoundedMeasure(dim=atom.dim, atoms=(atom,))


def from_density(f: TestFunction) -> BoundedMeasure:
    """The measure pairing against an integrable density."""
    return BoundedMeasure(dim=f.dim, density=f)


@dataclass(frozen=True)
class WeakConvergenceSample:
    """One scale's pairing, the limit target, and the outer sum's error budget (``QuadratureResult.error_budget``)."""

    alpha: float
    value: complex
    target: complex
    error_budget: float


def weak_convergence_trace(
    measure: BoundedMeasure,
    h: TestFunction,
    alphas,
    grid: GridSpec,
    tol: float = 1e-8,
) -> list[WeakConvergenceSample]:
    """Pair the smoothed measure with h along a ladder of scales.

    Each sample integrates (W_alpha * measure)(x) h(x) over the grid and
    records the limit target, the measure applied to h directly, and the
    outer sum's error budget on that grid (its ``|fine - coarse|`` plus its
    tail bound; the inner smoothing's error is held to ``tol``).  Every
    alpha is summed in one pass over the grid's blocks: each block is
    smoothed once for all the alphas (``BoundedMeasure.mollify_ladder``,
    which smooths a density once per ladder grid for all the alphas walking
    on it, keeps its last sampling on a dyadic lattice, and takes a climbed
    rung's coarse sum from the rung below), h is evaluated once on its
    nodes, and its rows are dropped before the next block.  Each alpha
    integrates its own row, and its value is the one-alpha smoothing's, bit
    for bit.  The outer sum is a fixed grid's, so its coarse sum is
    contracted on the block as its fine sum is.  No alphas give no samples.
    """
    _check_tolerance(tol)
    if h.dim != measure.dim or grid.dim != measure.dim:
        raise ValueError("dimension mismatch between measure, test function, and grid")
    if not h.bounded or h.sup_bound is None:
        raise ValueError("weak convergence is tested against bounded functions")
    if not isinstance(h.envelope, (GaussianDecay, CompactSupport)):
        raise QuadratureError(
            "the x-integral needs h compactly supported or Gaussian-enveloped, got "
            f"{type(h.envelope).__name__}"
        )
    alphas = [float(alpha) for alpha in alphas]
    if not alphas:
        return []
    target = measure.apply(h, tol)

    def block_for(walks: list) -> Callable:
        def block(pts: np.ndarray, w: np.ndarray) -> np.ndarray:
            rows, h_values = measure.mollify_ladder([alphas[i] for i in walks], pts, tol), h(pts)
            return np.concatenate([np.sum(w * (row * h_values), axis=-1, keepdims=True) for row in rows])

        return block

    peaks = [weierstrass_peak(KernelScale(alpha, measure.dim)) for alpha in alphas]
    envelopes = [h.envelope.scaled(measure.bound * peak * (1.0 + 1e-9) + _TINY) for peak in peaks]
    labels = [f"weak[{h.name}]@{alpha:g}" for alpha in alphas]
    results = _grid_walks(_block_sums(block_for), grid, envelopes, labels)
    return [
        WeakConvergenceSample(alpha, result.value, target, result.error_budget)
        for alpha, result in zip(alphas, results)
    ]


@dataclass(frozen=True)
class ContinuityReport:
    """Trace of measure values along a sequence of test functions."""

    uniform_bound: float
    sup_differences: tuple[float, ...]
    deltas: tuple[float, ...]


def continuity_check(
    measure: BoundedMeasure,
    h_sequence,
    h_limit: TestFunction,
    uniform_bound: float | None = None,
    compact_radius: float = 4.0,
    tol: float = 1e-8,
) -> ContinuityReport:
    """Trace measure values along h_j -> h, sampling uniform convergence.

    The sequence must respect a declared uniform bound; the report carries
    the sampled sup of |h_j - h| on [-compact_radius, compact_radius]^n and
    the measure-value differences |lam(h_j) - lam(h)|.
    """
    h_sequence = list(h_sequence)
    for h in [*h_sequence, h_limit]:
        if h.dim != measure.dim:
            raise ValueError("dimension mismatch in the function sequence")
        if not h.bounded or h.sup_bound is None:
            raise ValueError("continuity is tested along bounded functions")
    if uniform_bound is None:
        uniform_bound = max(h.sup_bound for h in [*h_sequence, h_limit])
    offenders = [h.name for h in h_sequence if h.sup_bound > uniform_bound * (1.0 + 1e-12)]
    if offenders:
        raise ValueError(f"sequence violates its declared uniform bound: {offenders}")
    intervals = 40 if measure.dim > 1 else 320
    pts = GridSpec(compact_radius, intervals, measure.dim).points()
    limit_vals = h_limit(pts)
    sup_diffs = tuple(
        float(np.max(np.abs(np.asarray(h(pts)) - limit_vals))) for h in h_sequence
    )
    target = measure.apply(h_limit, tol)
    deltas = tuple(abs(measure.apply(h, tol) - target) for h in h_sequence)
    return ContinuityReport(
        uniform_bound=float(uniform_bound),
        sup_differences=sup_diffs,
        deltas=deltas,
    )


def measure_from_json(source, dim: int | None = None) -> BoundedMeasure:
    """Build a measure from its JSON literal.

    The schema is ``{"dim": n, "atoms": [{"at": [..], "re": r, "im": i}, ...],
    "density": "<preset>"}`` with both parts optional; density presets are
    the catalog strings such as ``gauss:0.1``.  A literal without ``dim``
    takes the given dim (default 1); a literal's ``dim`` must be an integer
    (not a boolean) and agree with it.
    """
    data = json.loads(source) if isinstance(source, str) else dict(source)
    if not isinstance(data, dict):
        raise ValueError("measure literal must be a JSON object")
    n = data.get("dim", dim or 1)
    if isinstance(n, bool) or not (isinstance(n, int) or isinstance(n, float) and n.is_integer()):
        raise ValueError(f"the measure literal's dim must be an integer, got {n!r}")
    n = int(n)
    if dim is not None and n != dim:
        raise ValueError(f"the measure literal has dim {n}, but dim {dim} was requested")
    atoms = []
    for entry in data.get("atoms", []):
        if "at" not in entry:
            raise ValueError(f"atom entry {entry!r} needs an 'at' location")
        loc = np.atleast_1d(np.asarray(entry["at"], dtype=float))
        if loc.shape != (n,):
            raise ValueError(f"atom location {entry['at']!r} does not have dimension {n}")
        weight = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
        atoms.append(Atom(location=tuple(loc), weight=weight))
    density = None
    if data.get("density"):
        density = parse_preset(str(data["density"]), n)
    return BoundedMeasure(dim=n, atoms=tuple(atoms), density=density)
