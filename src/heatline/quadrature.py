"""Certified improper integrals over R^n.

An integral over all of R^n is approximated on the cube [-R, R]^n with a
composite Simpson rule per axis, tensored across axes.  The result carries
two error terms:

* ``tail_bound`` -- a rigorous closed-form bound on the mass omitted
  outside the cube, computed from the integrand's declared decay envelope
  (never from sampling);
* ``disc_error_est`` -- a two-resolution estimate ``|value(N) - value(N/2)|``
  of the discretization error inside the cube.

Every integrand enters the engine as a vectorized ``values(points)``
callable with an envelope, a dimension and a label (``integrate_values``;
``walk_ladder`` for vector-valued sums); ``integrate`` and
``integrate_auto`` pass a ``TestFunction`` in that form.  Declared
envelopes (a ``TestFunction`` and its ``scaled``/``shifted`` copies) are
spot-checked at construction, as validation of input from outside the
library; envelopes the library derives are proved in code and checked by
``tests/test_derived_envelopes.py``.  Node
evaluations are vectorized and chunked in a fixed order, and reductions use
numpy's pairwise summation, so a fixed grid always reproduces the same
value bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Union

import numpy as np

DEFAULT_NODE_BUDGET = 2**24
RADIUS_LADDER = (4.0, 6.0, 8.0, 12.0, 16.0)
POINTS_LADDER = (128, 256, 512, 1024, 2048, 4096, 8192)

_CHUNK = 1 << 17  # nodes per evaluation block
_BLOCK_ENTRIES = 1 << 21  # node-output pairs per evaluation block
_TINY = 1e-300  # floor that keeps a derived envelope scale positive
_ENVELOPE_SLACK = 1e-9
_SPOT_SEED = 20260810


class QuadratureError(RuntimeError):
    """Certification failure: uncertified integrand, budget, or tolerance."""


def node_budget() -> int:
    """Grid-node budget; the HEATLINE_BUDGET env var overrides the default."""
    raw = os.environ.get("HEATLINE_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise QuadratureError(f"HEATLINE_BUDGET must be an integer, got {raw!r}") from exc
    if value < 8:
        raise QuadratureError(f"HEATLINE_BUDGET too small: {value}")
    return value


def _env_ladder(name: str, default: tuple, cast, kind: str, invalid, rule: str) -> tuple:
    """An increasing ladder from a comma-separated env var, or the default."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        values = tuple(cast(v) for v in raw.split(","))
    except ValueError as exc:
        raise QuadratureError(f"{name} must be comma-separated {kind}, got {raw!r}") from exc
    if not values or any(map(invalid, values)) or any(b <= a for a, b in zip(values, values[1:])):
        raise QuadratureError(f"{name} must be {rule}")
    return values


def radius_ladder() -> tuple[float, ...]:
    """Truncation radii tried by the auto machinery; HEATLINE_RADIUS_LADDER overrides."""
    return _env_ladder(
        "HEATLINE_RADIUS_LADDER", RADIUS_LADDER, float, "reals", lambda v: v <= 0.0, "positive and increasing"
    )


def points_ladder() -> tuple[int, ...]:
    """Per-axis interval counts tried by the auto machinery; HEATLINE_POINTS_LADDER overrides."""
    return _env_ladder(
        "HEATLINE_POINTS_LADDER", POINTS_LADDER, int, "integers",
        lambda v: v < 4 or v % 2, "even, >= 4, and increasing",
    )


def _sphere_area(dim: int) -> float:
    """Surface area of the unit sphere in R^dim (2 for dim = 1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class GaussianDecay:
    """Envelope |g(x)| <= scale * exp(-rate * |x|^2)."""

    rate: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.rate > 0.0 and self.scale > 0.0):
            raise ValueError("GaussianDecay needs rate > 0 and scale > 0")

    def bound(self, r):
        return self.scale * np.exp(-self.rate * np.square(r))

    def tail_bound(self, radius: float, dim: int) -> float:
        # union bound over the n half-spaces |x_j| > R, with the 1-d tail
        # integral over-estimated by exp(-c R^2) / (c R)
        one_dim_tail = math.exp(-self.rate * radius * radius) / (self.rate * radius)
        cross_mass = (math.pi / self.rate) ** ((dim - 1) / 2.0)
        return self.scale * dim * cross_mass * one_dim_tail

    def scaled(self, factor: float) -> "GaussianDecay":
        return GaussianDecay(self.rate, self.scale * factor)

    def shifted(self, distance: float) -> "GaussianDecay":
        # exp(-c|x-a|^2) <= exp(c|a|^2) exp(-c|x|^2 / 2)
        if distance == 0.0:
            return self
        return GaussianDecay(self.rate / 2.0, self.scale * math.exp(self.rate * distance**2))


@dataclass(frozen=True)
class PolynomialDecay:
    """Envelope |g(x)| <= scale * (1 + |x|)^(-power); needs power > dim."""

    power: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.power > 0.0 and self.scale > 0.0):
            raise ValueError("PolynomialDecay needs power > 0 and scale > 0")

    def bound(self, r):
        return self.scale * (1.0 + np.asarray(r)) ** (-self.power)

    def tail_bound(self, radius: float, dim: int) -> float:
        if self.power <= dim:
            return math.inf
        return (
            self.scale
            * _sphere_area(dim)
            * (1.0 + radius) ** (dim - self.power)
            / (self.power - dim)
        )

    def scaled(self, factor: float) -> "PolynomialDecay":
        return PolynomialDecay(self.power, self.scale * factor)

    def shifted(self, distance: float) -> "PolynomialDecay":
        # 1 + |x| <= (1 + |x - a|)(1 + |a|)
        return PolynomialDecay(self.power, self.scale * (1.0 + distance) ** self.power)


@dataclass(frozen=True)
class CompactSupport:
    """Envelope g(x) = 0 for |x| > radius (nothing asserted inside)."""

    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise ValueError("CompactSupport needs radius > 0")

    def bound(self, r):
        return np.where(np.asarray(r) > self.radius, 0.0, math.inf)

    def tail_bound(self, radius: float, dim: int) -> float:
        return 0.0 if radius >= self.radius else math.inf

    def scaled(self, factor: float) -> "CompactSupport":
        return self

    def shifted(self, distance: float) -> "CompactSupport":
        return CompactSupport(self.radius + distance)


@dataclass(frozen=True)
class BoundedOnly:
    """Envelope |g(x)| <= bound with no decay; not integrable-certified."""

    bound_value: float

    def __post_init__(self) -> None:
        if not self.bound_value > 0.0:
            raise ValueError("BoundedOnly needs bound > 0")

    def bound(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.bound_value)

    def tail_bound(self, radius: float, dim: int) -> float:
        return math.inf

    def scaled(self, factor: float) -> "BoundedOnly":
        return BoundedOnly(self.bound_value * factor)

    def shifted(self, distance: float) -> "BoundedOnly":
        return self


Envelope = Union[GaussianDecay, PolynomialDecay, CompactSupport, BoundedOnly]


@lru_cache(maxsize=8)
def _spot_points(dim: int) -> np.ndarray:
    """Fixed deterministic sample of 1000 points at three length scales."""
    rng = np.random.default_rng(_SPOT_SEED + dim)
    blocks = [
        rng.uniform(-1.0, 1.0, size=(200, dim)),
        rng.uniform(-4.0, 4.0, size=(400, dim)),
        rng.uniform(-16.0, 16.0, size=(400, dim)),
    ]
    return np.concatenate(blocks, axis=0)


@dataclass(frozen=True)
class TestFunction:
    """A continuous map R^n -> C with a declared decay envelope.

    Parameters
    ----------
    f : callable
        Vectorized evaluation: given an (m, dim) float array it returns an
        (m,) array of values (real or complex).
    dim : int
        Ambient dimension n.
    envelope : Envelope
        Declared bound on |f|; checked by spot-sampling at construction and
        used for closed-form tail bounds.  (Integrands the library derives
        from a TestFunction enter the engine directly, with envelopes proved
        in code and checked by ``tests/test_derived_envelopes.py``.)
    bounded : bool
        Whether a finite sup bound is declared.
    sup_bound : float, optional
        The declared sup bound; required when ``bounded`` is set.
    name : str
        Optional label used in error messages and result tables.
    """

    __test__ = False  # domain type, not a pytest suite

    f: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dim: int
    envelope: Envelope
    bounded: bool = False
    sup_bound: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if isinstance(self.envelope, PolynomialDecay) and self.envelope.power <= self.dim:
            raise ValueError(
                f"PolynomialDecay power {self.envelope.power} must exceed dim {self.dim} "
                "to certify integrability"
            )
        if self.bounded and self.sup_bound is None:
            raise ValueError("bounded test functions must declare sup_bound")
        self._spot_check()

    def _spot_check(self) -> None:
        pts = _spot_points(self.dim)
        vals = self(pts)
        mags = np.abs(vals)
        radii = np.sqrt(np.sum(pts * pts, axis=1))
        if isinstance(self.envelope, CompactSupport):
            outside = radii > self.envelope.radius
            if np.any(mags[outside] != 0.0):
                raise ValueError(
                    f"test function {self.name!r} violates its compact support "
                    f"(radius {self.envelope.radius})"
                )
        else:
            limit = self.envelope.bound(radii) * (1.0 + _ENVELOPE_SLACK) + 1e-300
            if np.any(mags > limit):
                worst = float(np.max(mags - limit))
                raise ValueError(
                    f"test function {self.name!r} violates its decay envelope "
                    f"(worst excess {worst:.3e})"
                )
        if self.bounded:
            cap = self.sup_bound * (1.0 + _ENVELOPE_SLACK) + 1e-300
            if np.any(mags > cap):
                raise ValueError(
                    f"test function {self.name!r} exceeds its declared sup bound {self.sup_bound}"
                )

    def __call__(self, pts) -> np.ndarray:
        a = np.asarray(pts, dtype=np.float64)
        scalar = False
        if a.ndim == 0:
            if self.dim != 1:
                raise ValueError(f"scalar point given but dim is {self.dim}")
            a = a.reshape(1, 1)
            scalar = True
        elif a.ndim == 1:
            if self.dim == 1:
                a = a.reshape(-1, 1)
            elif a.shape[0] == self.dim:
                a = a.reshape(1, self.dim)
                scalar = True
            else:
                raise ValueError(f"point of dimension {a.shape[0]} given, expected {self.dim}")
        elif a.ndim == 2:
            if a.shape[1] != self.dim:
                raise ValueError(f"points have dimension {a.shape[1]}, expected {self.dim}")
        else:
            raise ValueError(f"points array must be at most 2-d, got shape {a.shape}")
        vals = np.asarray(self.f(a), dtype=np.complex128)
        if vals.shape != (a.shape[0],):
            raise ValueError(
                f"test function {self.name!r} returned shape {vals.shape} "
                f"for {a.shape[0]} points"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"test function {self.name!r} returned non-finite values")
        return vals[0] if scalar else vals

    @property
    def integrable(self) -> bool:
        """True when the envelope certifies a finite integral of |f|."""
        return not isinstance(self.envelope, BoundedOnly)

    def scaled(self, factor: complex, name: str = "") -> "TestFunction":
        """The function factor * f, with the envelope scaled by |factor|."""
        mag = abs(factor)
        if mag == 0.0:
            raise ValueError("scaling factor must be nonzero")
        inner = self.f
        return replace(
            self,
            f=lambda pts: factor * np.asarray(inner(pts)),
            envelope=self.envelope.scaled(mag),
            sup_bound=None if self.sup_bound is None else self.sup_bound * mag,
            name=name or f"{mag:g}*{self.name}",
        )

    def shifted(self, offset, name: str = "") -> "TestFunction":
        """The translate x -> f(x - offset), with a valid shifted envelope."""
        a = np.asarray(offset, dtype=float).reshape(-1)
        if a.shape[0] != self.dim:
            raise ValueError(f"offset has dimension {a.shape[0]}, expected {self.dim}")
        distance = float(np.sqrt(np.sum(a * a)))
        inner = self.f
        return replace(
            self,
            f=lambda pts: np.asarray(inner(pts - a)),
            envelope=self.envelope.shifted(distance),
            name=name or f"{self.name}(x-a)",
        )


@dataclass(frozen=True)
class GridSpec:
    """Symmetric tensor grid on [-radius, radius]^dim with N Simpson intervals per axis."""

    radius: float
    points_per_axis: int
    dim: int

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        n = self.points_per_axis
        if int(n) != n or n < 4 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be an even integer >= 4, got {n}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if self.dim > 3:
            raise QuadratureError(
                f"tensor grids are capped at dimension 3, got {self.dim}"
            )
        budget = node_budget()
        if n**self.dim > budget:
            raise QuadratureError(
                f"node budget exceeded: {n}^{self.dim} > {budget} "
                "(set HEATLINE_BUDGET to raise it)"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / self.points_per_axis


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with certified tail bound and discretization estimate."""

    value: complex
    disc_error_est: float
    tail_bound: float

    @property
    def error_budget(self) -> float:
        return self.disc_error_est + self.tail_bound


class TensorGrid:
    """Composite-Simpson tensor grid on [-radius, radius]^dim, n_points intervals per axis.

    Only the per-axis nodes and weights are stored; the tensor product is
    built block by block in a fixed order, so every sum is reproducible.
    """

    def __init__(self, radius: float, n_points: int, dim: int) -> None:
        self.dim = dim
        self.nodes = np.linspace(-radius, radius, n_points + 1)
        weights = np.full(n_points + 1, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        self.weights = weights * (2.0 * radius / n_points / 3.0)

    def blocks(self, width: int = 1):
        """Yield (points, weights) blocks covering the grid in a fixed order.

        A block holds at most _CHUNK nodes and, when each node meets ``width``
        outputs (frequencies or evaluation points), at most _BLOCK_ENTRIES
        node-output pairs, unless a single node already exceeds that.
        """
        step = max(1, min(_CHUNK, _BLOCK_ENTRIES // max(1, width)))
        m = self.nodes.size
        total = m**self.dim
        for start in range(0, total, step):
            multi = np.unravel_index(np.arange(start, min(start + step, total)), (m,) * self.dim)
            pts = np.stack([self.nodes[ix] for ix in multi], axis=-1)
            w = np.ones(pts.shape[0])
            for ix in multi:
                w *= self.weights[ix]
            yield pts, w

    def points(self) -> np.ndarray:
        """Every node, as one (size, dim) array in block order."""
        return np.concatenate([pts for pts, _ in self.blocks()])

    def sum(self, block_sum: Callable, width: int = 1) -> np.ndarray:
        """Sum of ``block_sum(points, weights)`` over the blocks, a (width,) vector."""
        out = np.zeros(width, dtype=np.complex128)
        for pts, w in self.blocks(width):
            out += block_sum(pts, w)
        return out


def _coarse_points(n_points: int) -> int:
    """Largest even interval count <= n_points / 2."""
    return max(2, (n_points // 2) // 2 * 2)


def truncation_radius(envelope: Envelope, dim: int, tol: float, label: str) -> float:
    """Smallest ladder radius whose closed-form tail bound is at most tol / 2."""
    rungs = radius_ladder()
    for r in rungs:
        if envelope.tail_bound(r, dim) <= tol / 2.0:
            return r
    raise QuadratureError(
        f"tolerance unreachable at budget: tail bound for {label!r} stays above "
        f"{tol / 2:.3e} at radius {rungs[-1]}"
    )


def walk_ladder(
    block_sum: Callable, width: int, envelope: Envelope, dim: int, tol: float, label: str,
    phase_rate: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, GridSpec]:
    """Block sums on the smallest ladder grid that meets tol, as (fine, coarse, grid).

    ``block_sum(points, weights)`` returns a block's share of the (width,)
    vector of sums.  The radius comes from ``truncation_radius``; the point ladder is then
    walked until every entry of ``|fine - coarse|`` is at most tol / 2.
    ``phase_rate`` is an oscillation rate (cycles per unit length, e.g. |xi|
    for a Fourier factor); the walk starts where the phase advances at most a
    quarter cycle per step.  A rung's fine sum is reused as the next rung's
    coarse sum when the point counts match, as on the default ladder.
    """
    radius = truncation_radius(envelope, dim, tol, label)
    budget = node_budget()
    min_points = 8.0 * radius * phase_rate
    last_n, last_fine = None, None
    for n in points_ladder():
        if n**dim > budget:
            break
        if n < min_points:
            continue
        grid = GridSpec(radius, n, dim)
        fine = TensorGrid(radius, n, dim).sum(block_sum, width)
        coarse_n = _coarse_points(n)
        if coarse_n == last_n:
            coarse = last_fine
        else:
            coarse = TensorGrid(radius, coarse_n, dim).sum(block_sum, width)
        if float(np.max(np.abs(fine - coarse))) <= tol / 2.0:
            return fine, coarse, grid
        last_n, last_fine = n, fine
    tried = last_n is not None
    reason = "discretization estimate never met the tolerance" if tried else "phase cap exceeds the point ladder"
    raise QuadratureError(f"tolerance unreachable at budget for {label!r}: {reason}")


def _require_integrable(envelope: Envelope, label: str, what: str) -> None:
    """Raise unless the envelope certifies integrability; ``what`` names the caller's operation."""
    if isinstance(envelope, BoundedOnly):
        raise QuadratureError(
            f"{what} needs an integrable-certified function; {label!r} is not certified "
            "integrable (BoundedOnly envelope)"
        )


def _value_sum(values: Callable) -> Callable:
    """Block evaluator for the plain integral of values."""
    return lambda pts, w: np.sum(w * np.asarray(values(pts), dtype=np.complex128))


def integrate_values(
    values: Callable, envelope: Envelope, dim: int, label: str,
    tol: float | None = None, grid: GridSpec | None = None, phase_rate: float = 0.0,
) -> tuple[QuadratureResult, GridSpec]:
    """Integral over R^dim of ``values``, certified by ``envelope``: the engine's one entry form.

    ``values`` maps an (m, dim) array of points to m values; the caller
    vouches that ``envelope`` bounds them.  Given a ``grid``, the result
    pairs its fine sum with the sum at half the points; given ``tol``
    instead, the ladder is walked to it (see ``walk_ladder``, which also
    explains ``phase_rate``).  ``label`` names the integrand in errors.

    Raises
    ------
    QuadratureError
        If the envelope is BoundedOnly, the sums are not finite, or no
        ladder grid within the node budget meets the tolerance.
    """
    if grid is not None and grid.dim != dim:
        raise ValueError(f"dimension mismatch: integrand {dim}, grid {grid.dim}")
    _require_integrable(envelope, label, "integration")
    block_sum = _value_sum(values)
    if grid is None:
        if tol is None or not tol > 0.0:
            raise ValueError(f"target tolerance must be positive, got {tol}")
        fine, coarse, grid = walk_ladder(block_sum, 1, envelope, dim, tol, label, phase_rate)
    else:
        if tol is not None or phase_rate:
            raise ValueError("a fixed grid takes no tol or phase_rate")
        n = grid.points_per_axis
        fine, coarse = (TensorGrid(grid.radius, m, dim).sum(block_sum) for m in (n, _coarse_points(n)))
    value = complex(fine[0])
    if not math.isfinite(abs(value)):
        raise QuadratureError(f"integrand {label!r} summed to a non-finite value")
    result = QuadratureResult(
        value=value,
        disc_error_est=abs(value - complex(coarse[0])),
        tail_bound=envelope.tail_bound(grid.radius, dim),
    )
    return result, grid


def integrate(g: TestFunction, grid: GridSpec) -> QuadratureResult:
    """Integrate g over R^dim by truncation to the grid's cube plus Simpson.

    ``value`` approximates the integral within ``disc_error_est + tail_bound``;
    a BoundedOnly envelope (not certified integrable) raises QuadratureError.
    """
    return integrate_values(g, g.envelope, g.dim, g.name, grid=grid)[0]


def integrate_auto(
    g: TestFunction, target_tol: float, phase_rate: float = 0.0
) -> tuple[QuadratureResult, GridSpec]:
    """Integrate g choosing the smallest ladder grid that meets target_tol.

    The radius ladder is walked until the closed-form tail bound is at most
    target_tol / 2, then the per-axis point ladder until the two-resolution
    discretization estimate is at most target_tol / 2 (see ``walk_ladder``,
    which also explains ``phase_rate``).

    Raises
    ------
    QuadratureError
        If no ladder grid within the node budget meets the tolerance.
    """
    return integrate_values(g, g.envelope, g.dim, g.name, target_tol, phase_rate=phase_rate)


def auto_grid(g: TestFunction, target_tol: float, phase_rate: float = 0.0) -> GridSpec:
    """Smallest ladder grid meeting target_tol for g (see integrate_auto)."""
    return integrate_auto(g, target_tol, phase_rate)[1]


def l1_norm(g: TestFunction, tol: float = 1e-9) -> QuadratureResult:
    """Integral of |g| over R^dim to the requested tolerance."""
    result, _ = integrate_values(lambda pts: np.abs(g(pts)), g.envelope, g.dim, f"|{g.name}|", tol)
    return QuadratureResult(
        value=result.value.real,
        disc_error_est=result.disc_error_est,
        tail_bound=result.tail_bound,
    )
