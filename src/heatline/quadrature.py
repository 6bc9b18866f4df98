"""Certified improper integrals over R^n.

An integral over all of R^n is approximated on the cube [-R, R]^n with a
composite Simpson rule per axis, tensored across axes.  The result carries
two error terms:

* ``tail_bound`` -- a rigorous closed-form bound on the mass omitted
  outside the cube, computed from the integrand's declared decay envelope
  (never from sampling);
* ``disc_error_est`` -- a two-resolution estimate ``|value(N) - value(N/2)|``
  of the discretization error inside the cube.  N is a multiple of 4, so
  the N/2 sum reuses the N-grid's even nodes (the N/2 grid's Simpson
  weights there, zero on the odd nodes), and each grid evaluates its
  integrand once.  A ladder walk of block sums that climbs from the N/2
  rung has already summed its N/2 sum there and takes it from there, so a
  rung that every walk on it climbed to contracts only the fine weights
  (``_block_sums``).

A walk is certified only when its integrand has an integrable envelope, its
tolerance is positive and finite, and its sums are finite: ``walk_ladders``
and ``_grid_walks`` check these rules for every walk, and the entry points
that walk leave them to it.

Every integrand enters the engine as a vectorized ``values(points)``
callable with an envelope, a dimension and a label (``integrate_values``;
``walk_ladders`` for vector-valued sums and for several walks at once, such
as smoothing at several scales and points or the phase sums of a transform
at several frequencies, which factor exp(-2 pi i x.xi) per axis, or of
several integrands, which share one set of phase matrices (an inverse sum,
exp(+2 pi i x.xi), is the conjugate of the forward sum of the conjugated
values): the walks share their ladder grids); ``integrate`` and
``integrate_auto`` pass a ``TestFunction`` in that form.  Declared
envelopes (a ``TestFunction`` and its ``scaled``/``shifted`` copies) are
spot-checked at construction, as validation of input from outside the
library; envelopes the library derives are proved in code and checked by
``tests/test_derived_envelopes.py``.

An integrand that declares per-axis ``factors``, f(x) = prod_j f_j(x_j)
(as the Gaussian presets do, and ``l1_norm`` passes |f| with factors
|f_j|), and every integrand in dim 1, which is its own single factor, is
summed through its per-axis rows (``GridSpec.weighted_factors``, the one
place that chooses the form): by Fubini, a plain sum is
prod_j sum_k w_k f_j(x_k), and a phase sum the product of one per-axis
contraction per frequency, so each grid evaluates d (n+1) factor nodes
instead of (n+1)^d points.  In dim >= 2 the frequencies of a tensor lattice
take few distinct values per axis (7 on a 7 x 7 lattice, not 49), so each
axis is contracted on its distinct values only, ascending and told apart by
their bits, and the columns are gathered back per frequency; a symmetric
axis such as [-2, -1, 0, 1, 2] is then mirrored about its centre, and its
phase matrix takes cos and sin on a quarter of its entries.  Dim 1
contracts every frequency as given.  The block loop serves unfactored
integrands in dims 2-3: they are evaluated at every node, vectorized and
chunked in a fixed order.  Reductions use numpy's pairwise summation, so a
fixed grid always reproduces the same value bit for bit.

Ladder grids have dyadic spacings (every radius is 2^a or 3 2^a, every N a
power of two), so on a frequency axis that is itself such a lattice, such as
another ladder grid's nodes, x_i xi_k = j q_k / L exactly for integers j,
q_k and a power of two L, and a phase sum is an exact length-L DFT:
``GridSpec._lattice_sum`` folds the weighted values modulo L and runs one FFT
per axis (Cooley and Tukey, Math. Comp. 19, 1965), after checking the
identity in integer arithmetic, never up to a tolerance.  In the same way,
when a batch of points and a block of nodes in dim 1 are both integer
progressions times one power of two, every difference x_i - u_j is a point
of one lattice, and ``_lattice_window`` reads the (points x nodes) matrix
of a function of x - u from one sampling of it on that lattice.

Real values stay real: an integrand whose values are real (every catalog
preset, both kernels) is evaluated, weighted and summed in float64, and so
are the matrix products of batched smoothing.  Complex arithmetic enters
only with a complex factor, such as a phase, a complex atom weight or a
complex ``scaled`` factor.  The grid sums accumulate in complex128, and
every result is complex.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from typing import Callable, Union

import numpy as np

from .points import check_dim, cis

DEFAULT_NODE_BUDGET = 2**24
RADIUS_LADDER = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)
POINTS_LADDER = (128, 256, 512, 1024, 2048, 4096, 8192)

_CHUNK = 1 << 17  # nodes per evaluation block
_BLOCK_ENTRIES = 1 << 21  # entries per phase matrix, FFT length or lattice sampling
_TINY = 1e-300  # floor that keeps a derived envelope scale positive
_ENVELOPE_SLACK = 1e-9
_FACTOR_RTOL = 1e-12  # relative spot-check tolerance of declared factors
_SPOT_SEED = 20260810
_MAGNITUDE_BITS = np.int64(0x7FFFFFFFFFFFFFFF)  # every bit of a float64 but its sign


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
def _spot_geometry(dim: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The spot points, a fixed deterministic sample of 1000 points at three length scales, with their radii and per-axis columns.

    Computed once per dim; the radii and the columns (contiguous) are read-only.
    """
    rng = np.random.default_rng(_SPOT_SEED + dim)
    blocks = [
        rng.uniform(-1.0, 1.0, size=(200, dim)),
        rng.uniform(-4.0, 4.0, size=(400, dim)),
        rng.uniform(-16.0, 16.0, size=(400, dim)),
    ]
    pts = np.concatenate(blocks, axis=0)
    radii = np.sqrt(np.sum(pts * pts, axis=1))
    columns = tuple(np.ascontiguousarray(pts[:, j]) for j in range(dim))
    for array in (radii, *columns):
        array.flags.writeable = False
    return pts, radii, columns


def _spot_points(dim: int) -> np.ndarray:
    """The spot points of ``_spot_geometry``: a (1000, dim) array."""
    return _spot_geometry(dim)[0]


def _evaluated(fn: Callable, x: np.ndarray, name: str) -> np.ndarray:
    """fn(x) as an array of one value per row of x, checked for shape and finiteness.

    Real values (bool, integer or float) come back as float64, all others as
    complex128.
    """
    vals = np.asarray(fn(x))
    vals = vals.astype(np.float64 if vals.dtype.kind in "biuf" else np.complex128, copy=False)
    if vals.shape != (x.shape[0],):
        raise ValueError(f"test function {name!r} returned shape {vals.shape} for {x.shape[0]} points")
    if not np.isfinite(vals).all():
        raise ValueError(f"test function {name!r} returned non-finite values")
    return vals


def _product(terms):
    """The product of per-axis terms, taken in axis order."""
    return reduce(operator.mul, terms)


@dataclass(frozen=True)
class TestFunction:
    """A continuous map R^n -> C with a declared decay envelope.

    Parameters
    ----------
    f : callable
        Vectorized evaluation: given an (m, dim) float array it returns an
        (m,) array of values (real or complex).  Calling the TestFunction
        returns them as float64 when they are real (bool, integer or
        float) and as complex128 otherwise.
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
    factors : tuple of callables, optional
        A declared product form f(x) = prod_j factors[j](x_j): ``dim``
        callables, each mapping an (m,) array of reals to m values.  Checked
        against ``f`` by spot-sampling at construction (relative 1e-12); the
        engine then sums f as a product of one-dimensional sums.

    Points are real: complex input raises ``ValueError`` (``fourier_complex``
    handles complex frequencies, and ``kernels.gauss``/``weierstrass``
    accept complex points).
    """

    __test__ = False  # domain type, not a pytest suite

    f: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dim: int
    envelope: Envelope
    bounded: bool = False
    sup_bound: float | None = None
    name: str = ""
    factors: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_dim(self.dim)
        if isinstance(self.envelope, PolynomialDecay) and self.envelope.power <= self.dim:
            raise ValueError(
                f"PolynomialDecay power {self.envelope.power} must exceed dim {self.dim} "
                "to certify integrability"
            )
        if self.bounded and self.sup_bound is None:
            raise ValueError("bounded test functions must declare sup_bound")
        if self.factors is not None and len(self.factors) != self.dim:
            raise ValueError(f"{len(self.factors)} factors declared, expected one per axis ({self.dim})")
        self._spot_check()

    def _spot_check(self) -> None:
        pts, radii, columns = _spot_geometry(self.dim)
        vals = self(pts)
        mags = np.abs(vals)
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
        if self.factors is not None:
            product = _product(_evaluated(f_j, x_j, self.name) for f_j, x_j in zip(self.factors, columns))
            excess = np.abs(product - vals) - _FACTOR_RTOL * mags - 1e-300
            if np.any(excess > 0.0):
                raise ValueError(
                    f"test function {self.name!r} is not the product of its declared factors "
                    f"(worst excess {float(np.max(excess)):.3e})"
                )

    def __call__(self, pts) -> np.ndarray:
        a = np.asarray(pts)
        if a.dtype.kind == "c":
            raise ValueError(
                f"test function {self.name!r} takes real points, got complex input; use "
                "fourier_complex for complex frequencies, or kernels.gauss/weierstrass, "
                "which accept complex points"
            )
        a = a.astype(np.float64, copy=False)
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
        vals = _evaluated(self.f, a, self.name)
        return vals[0] if scalar else vals

    @property
    def integrable(self) -> bool:
        """True when the envelope certifies a finite integral of |f|."""
        return not isinstance(self.envelope, BoundedOnly)

    def scaled(self, factor: complex, name: str = "") -> "TestFunction":
        """The function factor * f, with the envelope scaled by |factor| (and the first factor by factor)."""
        mag = abs(factor)
        if mag == 0.0:
            raise ValueError("scaling factor must be nonzero")
        inner = self.f
        factors = self.factors
        if factors is not None:
            first = factors[0]
            factors = (lambda x: factor * np.asarray(first(x)), *factors[1:])
        return replace(
            self,
            f=lambda pts: factor * np.asarray(inner(pts)),
            factors=factors,
            envelope=self.envelope.scaled(mag),
            sup_bound=None if self.sup_bound is None else self.sup_bound * mag,
            name=name or f"{mag:g}*{self.name}",
        )

    def shifted(self, offset, name: str = "") -> "TestFunction":
        """The translate x -> f(x - offset), with a valid shifted envelope (factor j shifted by offset_j)."""
        a = np.asarray(offset, dtype=float).reshape(-1)
        if a.shape[0] != self.dim:
            raise ValueError(f"offset has dimension {a.shape[0]}, expected {self.dim}")
        distance = float(np.sqrt(np.sum(a * a)))
        inner = self.f
        factors = self.factors
        if factors is not None:
            factors = tuple(lambda x, f_j=f_j, a_j=a_j: np.asarray(f_j(x - a_j)) for f_j, a_j in zip(factors, a))
        return replace(
            self,
            f=lambda pts: np.asarray(inner(pts - a)),
            factors=factors,
            envelope=self.envelope.shifted(distance),
            name=name or f"{self.name}(x-a)",
        )


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with certified tail bound and discretization estimate."""

    value: complex
    disc_error_est: float
    tail_bound: float

    @property
    def error_budget(self) -> float:
        return self.disc_error_est + self.tail_bound


def _simpson_weights(radius: float, n_points: int) -> np.ndarray:
    """Composite-Simpson weights of the n_points + 1 equispaced nodes on [-radius, radius]."""
    weights = np.full(n_points + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return weights * (2.0 * radius / n_points / 3.0)


def _block_weights(rows: np.ndarray, index: tuple) -> np.ndarray:
    """The tensor product of each per-axis weight row of ``rows`` over a block's index slices, one flattened row each (a view in dim 1)."""
    w = rows[:, index[0]]
    for s in index[1:]:
        w = (w[:, :, None] * rows[:, None, s]).reshape(rows.shape[0], -1)
    return w


def _matvec_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ row for each weight row of w, stacked; real when a and w are both real.

    The product is np.einsum's, real or complex, which sums every output on
    its own in the same order, so each output keeps its bits whatever the
    height of a, the number of weight rows and the number of BLAS threads (a
    BLAS product split over threads rounds differently).  One exception is
    mended here: a single output (one row of a, one weight row) is reduced
    along another path, which for real rows of more than 8,192 entries sums
    in another order (numpy 2.4), so that row is contracted beside a
    zero-copy second view of itself, as the two-row product would.
    """
    if a.shape[0] == w.shape[0] == 1:
        return np.einsum("ij,kj->ki", a, np.broadcast_to(w, (2, w.shape[1])))[:1]
    return np.einsum("ij,kj->ki", a, w)


def _mirrored(values: np.ndarray) -> bool:
    """Whether values[K - 1 - k] is exactly -values[k], bit for bit (sign of zero included), for every k < K/2.

    The centre of an odd K is not compared: a grid's centre is +0.0, whose
    negation is -0.0.
    """
    mid = values.size // 2
    return values[:mid].tobytes() == (-values[:-mid - 1:-1]).tobytes()


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a float64 array in ascending order, and the index that gathers them back.

    Values are told apart by their bits, so -0.0 and +0.0 stay apart (-0.0
    first): a phase column at -0.0 keeps the signed zeros of its imaginary
    parts.  The bits are mapped to integers ordered as the values are (a
    negative value's magnitude bits are flipped), deduplicated and mapped
    back.  A lattice axis holds a few dozen values, which Python's set and
    sort dedupe about as fast as ``np.unique``, whose first call adds about
    1.7 MB to the resident set (numpy 2.4).
    """
    keys = values.astype(np.float64).view(np.int64)  # a copy, remapped in place
    keys ^= (keys >> 63) & _MAGNITUDE_BITS
    distinct = np.array(sorted(set(keys.tolist())), dtype=np.int64)
    inverse = np.searchsorted(distinct, keys)
    distinct ^= (distinct >> 63) & _MAGNITUDE_BITS
    return distinct.view(np.float64), inverse


def _dyadic(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each finite float64 of values as odd * 2**exponent, exactly: the odd integers (0 for a zero) and the exponents.

    np.frexp gives a mantissa in [0.5, 1) with at most 53 significant bits,
    so mantissa * 2^53 is an integer; its trailing zero bits move into the
    exponent.  The exponent of a zero means nothing.
    """
    mantissas, exponents = np.frexp(values)
    ints = (mantissas * 2.0**53).astype(np.int64)
    zeros = np.frexp((ints & -ints).astype(np.float64))[1] - 1  # the lowest set bit's position, -1 for a zero
    return ints >> np.maximum(zeros, 0), exponents - 53 + zeros


def _lattice_window(values: Callable, xs: np.ndarray, nodes: np.ndarray, sampled: dict) -> np.ndarray | None:
    """values(x_i - u_j) for each row x_i of xs (rows) and u_j of nodes (columns), from one sampling of values; None off a lattice.

    In dim 1, take the starts x_0, u_0 and the steps s = x_1 - x_0,
    t = u_1 - u_0, and test x_i == x_0 + i s and u_j == u_0 + j t in floats.
    When s, t >= 0 and the four are integers x_0', s', u_0', t' times one
    power of two 2^e (found in integers, see ``_dyadic``), and both ends of
    both progressions are below 2^52 in integer modulus, every x_0 + i s and
    u_0 + j t is computed exactly, so the float test was an exact one.  Then
    every difference x_i - u_j is exactly
    (d + i s' + (m - 1 - j) t') 2^e, with d 2^e = x_0 - u_(m-1).  So values
    sampled once on the D = (k - 1) s' + (m - 1) t' + 1 lattice points from
    x_0 - u_(m-1) on hold every entry, bit for bit the float the direct route
    evaluates, and the (k, m) matrix is a zero-copy, read-only strided
    window onto them.  Returns None, having evaluated nothing, in dim >= 2,
    for an empty or non-finite batch, a point at -0.0 (whose difference with
    the node +0.0 is -0.0, not the lattice's +0.0), a batch off such a
    lattice, or a D above _BLOCK_ENTRIES or not below the k m pairs it
    replaces (so a single point or node keeps the direct route).

    ``sampled`` holds the last sampling of these values, by its lattice
    (power of two, first point and size): a lattice met twice in a row is
    read from it, as the 1,025 nodes of ``GridSpec(6, 1024, 1)`` meet one
    5,121-point lattice with rung (4, 128) and then with rung (4, 256),
    and any other lattice replaces it, so it holds one sampling at most.
    """
    k, m = xs.shape[0], nodes.shape[0]
    if xs.shape[1] != 1 or min(k, m) < 2:
        return None  # one point or node: D >= k m, unless the other side repeats one value
    x, u = xs[:, 0], nodes[:, 0]
    # Python floats: a non-finite difference yields inf or nan, and no warning
    ends = [(float(v[0]), float(v[1]) - float(v[0])) for v in (x, u)]
    if not all(math.isfinite(start) and 0.0 <= step < math.inf for start, step in ends):
        return None
    # the float test first: it refuses most batches off the lattice cheaply, and is exact once the bounds below hold
    if not all(np.array_equal(v, start + step * np.arange(v.size)) for v, (start, step) in zip((x, u), ends)):
        return None
    starts_and_steps = np.array(ends).reshape(-1)
    odd, exponents = _dyadic(starts_and_steps)
    exponent = int(exponents[odd != 0].min()) if odd.any() else 0
    x0, s, u0, t = (int(v) for v in np.ldexp(starts_and_steps, -exponent))  # exact: a power-of-two scaling to integers
    x_last, u_last = x0 + (k - 1) * s, u0 + (m - 1) * t
    size = x_last - x0 + u_last - u0 + 1
    if max(abs(x0), abs(x_last), abs(u0), abs(u_last)) >= 2**52 or size > _BLOCK_ENTRIES or size >= k * m:
        return None
    if np.signbit(x[x == 0.0]).any():
        return None
    key = (exponent, x0 - u_last, size)
    if key not in sampled:
        points = np.ldexp(float(x0 - u_last) + np.arange(size, dtype=np.float64), exponent)
        sampled.clear()
        sampled[key] = np.ascontiguousarray(values(points.reshape(-1, 1)))
    lattice = sampled[key]
    item = lattice.itemsize
    return np.lib.stride_tricks.as_strided(
        lattice[(m - 1) * t:], shape=(k, m), strides=(s * item, -t * item), writeable=False
    )


def _conjugator(sign: float) -> Callable:
    """np.conjugate for an inverse phase sum (sign > 0), the identity for a forward one (see ``GridSpec.phase_sum``)."""
    return np.conjugate if sign > 0 else lambda a: a


@dataclass(frozen=True)
class GridSpec:
    """Composite-Simpson tensor grid on [-radius, radius]^dim, N = ``points_per_axis`` intervals per axis.

    Only read-only per-axis arrays are stored: ``nodes``, and ``rows``, two
    weight rows: the Simpson weights, then the N/2 grid's Simpson weights on
    the even nodes (which, as N is a multiple of 4, are the N/2 grid's nodes
    bit for bit) and zero on the odd ones.  The tensor product is built
    block by block in a fixed order, so every sum is reproducible, and every
    sum returns the fine and the coarse row from one evaluation of the
    integrand.  Node N - i is exactly -node i, and the
    centre node is +0.0 (np.linspace's lower half, mirrored; for every ladder
    grid that is np.linspace itself, bit for bit).
    """

    radius: float
    points_per_axis: int
    dim: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        n = self.points_per_axis
        if int(n) != n or n < 4 or n % 4 != 0:
            raise ValueError(f"points_per_axis must be a multiple of 4 (so the grid embeds its N/2 grid), got {n}")
        check_dim(self.dim)
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
        half = n // 2
        nodes = np.linspace(-self.radius, self.radius, n + 1)
        nodes[half] = 0.0
        nodes[half + 1:] = -nodes[half - 1::-1]
        rows = np.zeros((2, n + 1))
        rows[0] = _simpson_weights(self.radius, n)
        rows[1, ::2] = _simpson_weights(self.radius, half)
        nodes.flags.writeable = rows.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "rows", rows)

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / self.points_per_axis

    def blocks(self):
        """Yield (points, rows, index) blocks covering the grid in row-major order.

        ``index`` holds one slice of node indices per axis, and the block is
        their tensor product; ``rows`` are the block's fine and coarse
        weights, a (2, block) array (a view of the grid's ``rows`` in dim 1).  A
        block is a run of whole leading-axis rows; when one row exceeds the
        cap, it is a run of whole lines along the second axis within one row,
        and so on.  A block holds at most _CHUNK nodes, so the partition is
        the grid's alone, whoever asks: an evaluator that meets many outputs
        per node (smoothing's evaluation points) builds its matrices in row
        tiles of its own.
        """
        m = self.nodes.size
        split = 0  # the axis along which a block takes a run of indices
        while m ** (self.dim - split - 1) > _CHUNK:
            split += 1
        run = _CHUNK // m ** (self.dim - split - 1)
        whole = (slice(0, m),) * (self.dim - split - 1)
        for prefix in itertools.product(range(m), repeat=split):
            for start in range(0, m, run):
                index = (*(slice(i, i + 1) for i in prefix), slice(start, min(start + run, m)), *whole)
                pts = np.empty((*(s.stop - s.start for s in index), self.dim))
                for axis, s in enumerate(index):
                    pts[..., axis] = self.nodes[s].reshape((-1,) + (1,) * (self.dim - axis - 1))
                yield pts.reshape(-1, self.dim), _block_weights(self.rows, index), index

    def points(self) -> np.ndarray:
        """Every node, as one (size, dim) array in block order."""
        return np.concatenate([pts for pts, _, _ in self.blocks()])

    def phase_matrix(self, freqs: np.ndarray) -> np.ndarray:
        """exp(-2 pi i x xi) for each node x (rows) and each xi in ``freqs`` (columns).

        Only rows 0..N/2 take cos and sin: the nodes are mirrored, so the angle
        -2 pi (x xi) of row N - i is exactly the negated angle of row i, and as cos
        is even and sin odd, that row is the conjugate of row i, bit for bit.
        The same holds for the columns of mirrored frequencies: when ``freqs``
        has an odd size K >= 3 and xi_{K-1-k} is exactly -xi_k for k < K/2 (as
        the nodes of a 1-D grid are), only columns 0..K/2 take cos and sin, a
        quarter of the matrix, and the rest are conjugates.  Other ``freqs``
        cost one scalar comparison of their end points before the plain path
        (and a comparison of the two halves' bytes when the ends mirror).
        Only the forward sign is built: an inverse sum conjugates the forward
        contraction of its conjugated values (see ``_phase_sum_cases``).
        """
        half, mid = self.nodes.size // 2, freqs.size // 2
        lead = -2.0 * math.pi
        phase = np.empty((self.nodes.size, freqs.size), dtype=np.complex128)
        top = phase[:half + 1]
        if freqs.size % 2 and freqs.size >= 3 and freqs[0] == -freqs[-1] and _mirrored(freqs):
            top[:, :mid + 1] = cis(lead * np.multiply.outer(self.nodes[:half + 1], freqs[:mid + 1]))
            np.conjugate(top[:, mid - 1::-1], out=top[:, mid + 1:])
        else:
            top[:] = cis(lead * np.multiply.outer(self.nodes[:half + 1], freqs))
        np.conjugate(phase[half - 1::-1], out=phase[half + 1:])
        return phase

    @cached_property
    def _step(self) -> tuple[int, int] | None:
        """(odd, exponent) with the spacing s = odd * 2**exponent when node i is exactly (i - N/2) s; None otherwise.

        Checked in integers and bits: |i - N/2| odd < 2^53, so each float
        product (i - N/2) s is exact, and the products equal the nodes bit for
        bit.  Every ladder grid passes (its spacing is 2^a or 3 2^a).
        """
        half = self.points_per_axis // 2
        [odd], [exponent] = _dyadic(np.array([self.spacing]))
        offsets = np.arange(2 * half + 1) - half
        if int(odd) * half >= 2**53 or (offsets * self.spacing).tobytes() != self.nodes.tobytes():
            return None
        return int(odd), int(exponent)

    def _lattice_sum(self, values: Callable, xi: np.ndarray) -> np.ndarray | None:
        """Fine sums of values(x) exp(-2 pi i x.xi), one per row of xi, by one FFT per axis; None off the lattice.

        When node i is exactly (i - N/2) s (see ``_step``) and, on an axis, L
        is the least power of two for which every xi_k s L is an integer
        q_k, then x_i xi_k = (i - N/2) q_k / L exactly, so the phase depends
        only on (i - N/2) mod L and q_k mod L: the weighted values folded
        modulo L and transformed by one length-L FFT hold every sum, at bin
        q_k mod L (for ladder grids s t = P 2^-m with P in {1, 3, 9}, and P
        goes into q_k).  Both tests are exact, in integer arithmetic (see
        ``_dyadic``), never up to a tolerance, so the result is the Simpson sum
        of ``phase_sum``'s fine row, with the same weights and values, rounded
        differently.  The sum is a product of one such sum per axis of
        ``weighted_factors``.  Returns None, having evaluated nothing, for
        nodes off their lattice, non-finite or empty xi, an axis whose L
        exceeds _BLOCK_ENTRIES or the (N + 1) x len(xi) phase entries it
        replaces, or an integrand with no per-axis rows (unfactored, in
        dim >= 2).
        """
        step = self._step
        k = xi.shape[0]
        if step is None or not k or not np.isfinite(xi).all():
            return None
        odd_s, exponent_s = step
        limit = min(_BLOCK_ENTRIES, self.nodes.size * k)
        bins = []
        for j in range(self.dim):
            odd, exponent = _dyadic(xi[:, j])
            exponent += exponent_s  # xi_k s = odd_k odd_s 2**exponent_k
            nonzero = odd != 0
            bits = max(0, -int(exponent[nonzero].min())) if nonzero.any() else 0
            if 2**bits > limit:
                return None
            length = 1 << bits
            shift = np.clip(exponent + bits, 0, bits)  # q_k = odd_k odd_s 2**(exponent_k + bits), taken mod L
            bins.append((length, ((odd % length) * (odd_s % length) % length << shift) % length))
        weighted = self.weighted_factors(values)
        if weighted is None:
            return None
        from numpy.fft import fft  # imported where the route first runs, not with the package

        half = self.points_per_axis // 2
        sums = []
        for (a, _), (length, q) in zip(weighted, bins):  # the fine row of each axis
            start = -half % length  # node i lands in slot (i - N/2) mod L
            rows = -(-(start + a.size) // length)
            folded = np.zeros(rows * length, dtype=a.dtype)
            folded[start:start + a.size] = a
            sums.append(fft(folded.reshape(rows, length).sum(axis=0))[q])
        return _product(sums)

    def weighted_factors(self, values) -> list[np.ndarray] | None:
        """The integrand's per-axis rows on this grid; None for an unfactored integrand in dim >= 2.

        An integrand that declares ``factors`` (see ``TestFunction``) has
        rows * f_j(nodes) for each axis j, and its factor values get the
        checks of f(points): one finite value per node.  Any other integrand
        in dim 1 is its own single factor, rows * values(nodes), evaluated
        raw at the N + 1 nodes, as a block of the grid would be.  Each entry
        is a (2, N + 1) array, one row per weight row, real for real values.
        This is where every sum chooses between per-axis rows and blocks.
        """
        factors = getattr(values, "factors", None)
        if factors is None:
            return [self.rows * np.asarray(values(self.nodes[:, None]))] if self.dim == 1 else None
        return [self.rows * _evaluated(f_j, self.nodes, values.name) for f_j in factors]

    def sum(self, block_sum: Callable, weight_rows: int = 2) -> np.ndarray:
        """Sums of ``block_sum(points, rows)`` over the blocks, in complex128, in the shape ``block_sum`` returns.

        ``rows`` stacks the block's fine and coarse weights (see ``blocks``),
        or with ``weight_rows`` 1 its fine weights alone, and ``block_sum``
        returns one row of sums per weight row; for several walks at once
        (see ``_block_sums``), the rows of each walk in turn.  The blocks'
        sums are added in block order onto zero, real while they are real:
        the real parts of complex sums round alike.
        """
        return np.asarray(sum(block_sum(pts, rows[:weight_rows]) for pts, rows, _ in self.blocks()), dtype=np.complex128)

    def phase_sum(self, values: Callable, xi: np.ndarray, sign: float) -> np.ndarray:
        """Sums of values(x) exp(sign 2 pi i x.xi) over the grid, one column per row of xi.

        The phase factors per axis, exp(sign 2 pi i x.xi) = prod_j
        exp(sign 2 pi i x_j xi_j), so a block of weighted values is contracted
        with one (nodes, frequencies) phase matrix per axis, the trailing axes
        first: d (N+1) exponentials per frequency instead of (N+1)^d, of
        which ``phase_matrix`` computes only the N/2 + 1 rows up to the
        centre node and mirrors the rest as their conjugates (and, for a
        chunk of frequencies mirrored about its centre, as a 1-D grid's
        nodes are, only the columns up to the centre).  The
        frequencies are taken in chunks so that no phase matrix or
        intermediate exceeds _BLOCK_ENTRIES entries (unless one frequency
        already does).  An integrand with per-axis rows (see
        ``weighted_factors``: a factored one, or any in dim 1) is evaluated
        once, on its axes' nodes: its sum is the product over axes of the
        axis's row contracted with the axis's phase matrix.  In dim >= 2
        that contraction runs on the axis's distinct frequencies only (see
        ``_distinct``: ascending, with -0.0 and +0.0 apart), and its columns
        are gathered back per frequency before the product, so a k x k
        lattice costs 2 k phase columns, not 2 k^2, and a symmetric axis takes
        the mirrored quarter path of ``phase_matrix``.  Dim 1 contracts the
        frequencies as given, with no dedupe.  An unfactored integrand in
        dims 2 and 3 is evaluated block by block, once per chunk.

        The result has a row of fine sums, then one of coarse sums: the same
        values contracted on the even nodes only, with the even rows of the
        same phase matrices.  For sign +1 the sum is the conjugate of the
        forward sum of the conjugated values: IEEE negation is exact, so
        that is the direct sum term for term, up to signed zeros, which the
        zero accumulators clear.  This is the one-integrand call of
        ``_phase_sum_cases``, which sums several integrands at once.
        """
        return self._phase_sum_cases([(values, sign)], xi)[0]

    def _phase_sum_cases(self, cases: list, xi: np.ndarray) -> list[np.ndarray]:
        """``phase_sum(values, xi, sign)`` for each (values, sign) of cases: a list of (2, len(xi)) arrays.

        Each case's sums are those of its own ``phase_sum`` bit for bit: the
        same operands meet in the same products, one case at a time, and are
        never stacked into a wider product (BLAS rounds that differently).
        The cases share what they have in common.  Each function (by
        identity) has its per-axis rows evaluated once, or, unfactored in
        dims 2-3, its values once per block and chunk.  Each chunk builds
        one list of forward phase matrices per route, and every case uses
        it: an inverse case (sign +1) conjugates its weighted values on the
        way in and its contraction on the way out.
        """
        m = self.nodes.size
        # a phase matrix has m rows, and a block contracted along its last
        # (whole) axis leaves at most _CHUNK // m rows
        step = max(1, _BLOCK_ENTRIES // max(m, _CHUNK // m))
        out = [np.zeros((2, xi.shape[0]), dtype=np.complex128) for _ in cases]
        rows = {}  # each function's per-axis rows (None: unfactored), by identity, for every case that sums it
        for values, _ in cases:
            if id(values) not in rows:
                rows[id(values)] = self.weighted_factors(values)
        factored, blocked = [], []  # each case's sums, its conjugator, and its rows (conjugated by it) or values
        for sums, (values, sign) in zip(out, cases):
            turn, weighted = _conjugator(sign), rows[id(values)]
            if weighted is None:
                blocked.append((sums, values, turn))
            else:
                factored.append((sums, [turn(wf) for wf in weighted], turn))
        for k in range(0, xi.shape[0], step):
            chunk = xi[k:k + step]
            if factored:
                # dim >= 2: each axis's phase columns on its distinct frequencies, gathered back per frequency
                axes = [(chunk[:, 0], slice(None))] if self.dim == 1 else [_distinct(chunk[:, j]) for j in range(self.dim)]
                matrices = [self.phase_matrix(freqs) for freqs, _ in axes]
            for sums, weighted, turn in factored:
                for r in range(2):
                    on = slice(None, None, r + 1)  # row 1, the coarse rule, lives on the even nodes
                    sums[r, k:k + step] += turn(_product(
                        (wf[r:r + 1, on] @ phase[on])[0, back] for wf, phase, (_, back) in zip(weighted, matrices, axes)
                    ))
            if not blocked:
                continue
            matrices = [self.phase_matrix(chunk[:, j]) for j in range(self.dim)]
            for pts, weight_rows, index in self.blocks():
                block_values = {}
                shape = tuple(s.stop - s.start for s in index)
                for sums, values, turn in blocked:
                    if id(values) not in block_values:
                        block_values[id(values)] = values(pts)
                    for r, w_r in enumerate(weight_rows):
                        # the block positions of the row's nodes: all of them, or the even nodes
                        on = tuple(slice(s.start % 2 if r else 0, None, r + 1) for s in index)
                        acc = turn(w_r * block_values[id(values)]).reshape(shape)[on]
                        if not acc.size:
                            continue  # a block of odd nodes along some axis
                        on_axes = [phase[s][o] for phase, s, o in zip(matrices, index, on)]
                        acc = acc.reshape(-1, acc.shape[-1]) @ on_axes[-1]
                        for axis in range(self.dim - 2, -1, -1):
                            acc = np.einsum("abk,bk->ak", acc.reshape(-1, on_axes[axis].shape[0], acc.shape[-1]), on_axes[axis])
                        sums[r, k:k + step] += turn(acc[0])
        return out


def truncation_radius(envelope: Envelope, dim: int, tol: float, label: str) -> float:
    """Smallest radius of ``RADIUS_LADDER`` whose closed-form tail bound is at most tol / 2.

    Rungs are tried smallest first, so the wide rungs serve only integrands
    whose tails need them, such as the Gauss weight of ``gauss_inversion``
    at small alpha, whose length scale 1/(2 pi sqrt(alpha)) outgrows 16.
    """
    for r in RADIUS_LADDER:
        if envelope.tail_bound(r, dim) <= tol / 2.0:
            return r
    raise QuadratureError(
        f"tolerance unreachable at budget: tail bound for {label!r} stays above "
        f"{tol / 2:.3e} at radius {RADIUS_LADDER[-1]}"
    )


@lru_cache(maxsize=32)
def _ladder_grid(radius: float, n: int, dim: int) -> GridSpec:
    """The ladder grid of this shape, built once per process (a GridSpec holds only read-only arrays)."""
    return GridSpec(radius, n, dim)


def walk_ladders(
    grid_sums: Callable, envelopes, dim: int, tol: float, labels, phase_rate: list,
) -> list[tuple[np.ndarray, np.ndarray, GridSpec]]:
    """Several walks up the ladder at once, each to its own grid: one (fine, coarse, grid) per walk.

    Walk i has its own envelope and label, so its own radius (a rung of
    ``RADIUS_LADDER``, from ``truncation_radius``), and stops at the first
    rung where its own ``|fine - coarse|`` is at most tol / 2: the rung, the
    sums and the errors are those of walking it alone.
    ``phase_rate[i]`` is walk i's oscillation rate (cycles per unit length,
    e.g. |xi| for a Fourier factor); a walk starts where its phase advances
    at most a quarter cycle per step, so it joins only the rungs that meet
    its own cap.  Radii are discrete, so walks of different envelopes often
    share one; on each rung, the walks still going whose cap the rung meets
    are grouped by radius, in the order they joined (by the rung they
    joined, then by index), and share the grid: ``grid_sums(grid, walks)``
    returns the (2, width) sums of each walk index in ``walks``, in order,
    so values the walks have in common (such as f(x - u) under kernels of
    several scales, or the phase matrices of several frequencies) are
    computed once per grid.  Each rung evaluates its integrand once: the N/2
    sum reuses the N-grid's even nodes, and a block-sum walk (see
    ``_block_sums``) that climbs from the N/2 rung takes that sum from the
    rung below, and a rung that every walk on it climbed to contracts the
    fine weights alone.  The stopping test reads the coarse sum only.
    Ladder grids are built once per process and shared by every walk; the
    node budget is checked before each rung all the same.

    Every walk keeps three rules, checked here for every ladder walk (and
    by ``_grid_walks`` for the walks of a fixed grid): the tolerance is
    positive and finite (``_check_tolerance``, ValueError); each envelope
    certifies integrability (``_require_integrable``), checked walk by walk
    as the radii are chosen, so before any grid sum; and a walk whose fine
    or coarse sums on a rung are not all finite ends on that rung, failed,
    while the others walk on.  When walks fail, the first failed walk's
    error is raised once every walk has ended, naming its label and, for a
    walk that reached no rung, its own phase cap.
    """
    _check_tolerance(tol)
    radii, floors, unreachable = [], [], None
    for envelope, label, rate in zip(envelopes, labels, phase_rate):
        _require_integrable(envelope, label)
        try:
            radius = truncation_radius(envelope, dim, tol, label)
        except QuadratureError as exc:
            unreachable = exc  # raised unless a walk before it fails first
            break
        radii.append(radius)
        floors.append(8.0 * radius * rate)  # the phase cap: the fewest points per axis
    joined = sorted(range(len(radii)), key=lambda i: (bisect_left(POINTS_LADDER, floors[i]), i))
    budget = node_budget()
    found = [None] * len(radii)
    tried = [False] * len(radii)
    capped = False
    for n in POINTS_LADDER:
        if n**dim > budget:
            capped = True
            break
        going = {}  # by radius, the walks still going whose cap this rung meets, in join order
        for i in joined:
            if found[i] is None and floors[i] <= n:
                going.setdefault(radii[i], []).append(i)
        for radius, walks in going.items():
            grid = _ladder_grid(radius, n, dim)
            for i, (fine, coarse) in zip(walks, grid_sums(grid, walks)):
                error = float(np.abs(fine - coarse).max())
                if error <= tol / 2.0:
                    found[i] = (fine, coarse, grid)
                else:  # a finite error has finite sums on both sides; None: the walk climbs on
                    found[i] = None if math.isfinite(error) else _non_finite(fine, coarse, labels[i])
                    tried[i] = True
        if None not in found:
            break
    for i, result in enumerate(found):
        if isinstance(result, QuadratureError):
            raise result
        if result is None:
            if tried[i]:
                reason = "discretization estimate never met the tolerance"
            elif capped:
                floor = " at or above the phase cap" if floors[i] > POINTS_LADDER[0] else ""
                reason = f"the node budget ({budget} nodes) admits no rung of the point ladder{floor}"
            else:
                reason = "phase cap exceeds the point ladder"
            raise QuadratureError(f"tolerance unreachable at budget for {labels[i]!r}: {reason}")
    if unreachable is not None:
        raise unreachable
    return found


@dataclass(frozen=True)
class _Integrand:
    """Values ``f`` with optional per-axis ``factors`` (see ``TestFunction``), derived and not spot-checked."""

    f: Callable
    factors: tuple | None
    name: str

    def __call__(self, pts) -> np.ndarray:
        return self.f(pts)


def _check_tolerance(tol: float | None) -> None:
    """Raise ValueError unless 0 < tol < inf: no grid meets a tolerance of zero or less, and one of inf certifies nothing."""
    if tol is None or not 0.0 < tol < math.inf:
        raise ValueError(f"target tolerance must be {'finite' if tol == math.inf else 'positive'}, got {tol}")


def _require_integrable(envelope: Envelope, label: str) -> None:
    """Raise unless the envelope certifies integrability."""
    if isinstance(envelope, BoundedOnly):
        raise QuadratureError(f"integrand {label!r} is not certified integrable (BoundedOnly envelope)")


def _non_finite(fine: np.ndarray, coarse: np.ndarray, label: str) -> QuadratureError | None:
    """The failure of a walk whose fine or coarse sums on a rung are not all finite; None when they are."""
    if not (np.isfinite(fine).all() and np.isfinite(coarse).all()):
        return QuadratureError(f"integrand {label!r} summed to a non-finite value")


def _value_sum(values: Callable) -> Callable:
    """Grid sums of the plain integral of values for ``walk_ladders``: one walk, a (2, 1) array of the fine and the coarse sum.

    An integrand with per-axis rows (see ``GridSpec.weighted_factors``: a
    factored one, or any in dim 1) sums as prod_j sum_k w_k f_j(x_k); an
    unfactored one in dims 2 and 3 block by block.  Real values are weighted
    and summed in float64; the sums are added onto the complex accumulator.
    """

    def grid_sums(grid: GridSpec, walks: list) -> list[np.ndarray]:
        weighted = grid.weighted_factors(values)
        if weighted is None:
            return [grid.sum(lambda pts, w: np.sum(w * np.asarray(values(pts)), axis=-1, keepdims=True))]
        # added onto zeros like a block sum, so a dim-1 sum keeps the block loop's bits (signed zeros too)
        return [np.zeros((2, 1), np.complex128) + _product(np.sum(wf, axis=-1, keepdims=True) for wf in weighted)]

    return grid_sums


def _block_sums(block_for: Callable) -> Callable:
    """Grid sums of several walks at once, for ``walk_ladders``: one (2, width) array per walk.

    ``block_for(walks)`` is a block evaluator (see ``GridSpec.sum``) for the
    listed walks together, returning each walk's rows in turn, one per
    weight row it is handed, each ``width`` sums wide (the same width for
    every walk), so a block's values can be shared by every walk.  The
    grid's blocks do not depend on the walks (see ``GridSpec.blocks``), so
    neither do a walk's sums.

    A climbed rung contracts once.  The grid sums keep each rung's sums
    until the walks on it have climbed on.  A walk that walked the rung of
    the same radius and N/2 points has summed the N/2 sum on the even nodes
    there, with the same weights and values, so its coarse row is its fine
    row from there, whichever walks share the grid; on a grid where every
    walk climbed, the evaluator is handed the fine weights alone.  A fine
    row keeps its bits either way (see ``_matvec_rows``); a climbed walk's
    coarse row, read only by the stopping test, is rounded as the rung below
    summed it.  A walk's first rung and a fixed grid (``_grid_walks``)
    contract both rows.
    """
    rungs = {}  # by (radius, points): the walks on the rung and their sums there

    def grid_sums(grid: GridSpec, walks: list) -> np.ndarray:
        walked, below = rungs.pop((grid.radius, grid.points_per_axis // 2), ((), None))
        places = dict(zip(walked, range(len(walked))))
        climbed = [(p, places[i]) for p, i in enumerate(walks) if i in places]
        rows = 1 if len(climbed) == len(walks) else 2
        sums = grid.sum(block_for(walks), rows).reshape(len(walks), rows, -1)
        if climbed:
            here, there = map(list, zip(*climbed))
            if rows == 1:
                sums = np.concatenate([sums, below[there, :1]], axis=1)
            else:
                sums[here, 1] = below[there, 0]
        rungs[grid.radius, grid.points_per_axis] = walks, sums
        return sums

    return grid_sums


def _phase_sums(values: Callable, xi: np.ndarray) -> Callable:
    """Grid sums of values(x) exp(-2 pi i x.xi) for ``walk_ladders``: walk i sums row i of xi alone (see ``GridSpec.phase_sum``).

    The walks on one grid share one phase sum over their rows, so its phase
    matrices are built once per axis for all of them.
    """

    def grid_sums(grid: GridSpec, walks: list) -> np.ndarray:
        return grid.phase_sum(values, xi[walks], -1.0).reshape(2, len(walks), 1).swapaxes(0, 1)

    return grid_sums


def _case_phase_sums(cases: list, xi: np.ndarray) -> Callable:
    """Grid sums for ``walk_ladders`` of integrands at every row of xi: walk i sums the case (values, sign) cases[i].

    The walks on one grid share one ``GridSpec._phase_sum_cases`` call, so
    each chunk's forward phase matrices are built once for every case and
    each function's rows are evaluated once, while
    each walk's sums keep the bits of its own ``phase_sum``.
    """
    return lambda grid, walks: grid._phase_sum_cases([cases[i] for i in walks], xi)


def _certified(fine: np.ndarray, coarse: np.ndarray, grid: GridSpec, envelope: Envelope) -> QuadratureResult:
    """One walk's finite fine and coarse sums on its grid, with the envelope's tail bound."""
    value = complex(fine[0])
    return QuadratureResult(value, abs(value - complex(coarse[0])), envelope.tail_bound(grid.radius, grid.dim))


def _grid_walks(grid_sums: Callable, grid: GridSpec, envelopes, labels) -> list[QuadratureResult]:
    """Several walks summed on one given grid, each certified as ``integrate_values`` certifies one.

    ``grid_sums(grid, walks)`` is called once, with every walk (see
    ``walk_ladders``), so the walks share one pass over the grid's blocks.
    The walks keep ``walk_ladders``' rules on their one rung: every envelope
    must certify integrability before the grid is summed, and the first walk
    whose sums are not all finite fails.
    """
    for envelope, label in zip(envelopes, labels):
        _require_integrable(envelope, label)
    sums = grid_sums(grid, list(range(len(labels))))
    for (fine, coarse), label in zip(sums, labels):
        if failure := _non_finite(fine, coarse, label):
            raise failure
    return [_certified(fine, coarse, grid, envelope) for (fine, coarse), envelope in zip(sums, envelopes)]


def integrate_values(
    values: Callable, envelope: Envelope, dim: int, label: str,
    tol: float | None = None, grid: GridSpec | None = None, phase_rate: float = 0.0,
) -> tuple[QuadratureResult, GridSpec]:
    """Integral over R^dim of ``values``, certified by ``envelope``: the engine's one entry form.

    ``values`` maps an (m, dim) array of points to m values; the caller
    vouches that ``envelope`` bounds them.  Given a ``grid``, the result
    pairs its fine sum with the sum at half the points, which reuses the
    grid's even nodes, so the integrand is evaluated once (a one-walk
    ``_grid_walks``); given ``tol`` instead, the ladder is walked to it as
    one walk (see ``walk_ladders``, which also explains ``phase_rate``).
    ``label`` names the integrand in errors.

    Raises
    ------
    QuadratureError
        If the envelope is BoundedOnly, the sums are not finite, or no
        ladder grid within the node budget meets the tolerance.
    """
    if grid is not None and grid.dim != dim:
        raise ValueError(f"dimension mismatch: integrand {dim}, grid {grid.dim}")
    if grid is not None:
        if tol is not None or phase_rate:
            raise ValueError("a fixed grid takes no tol or phase_rate")
        return _grid_walks(_value_sum(values), grid, [envelope], [label])[0], grid
    [(fine, coarse, grid)] = walk_ladders(_value_sum(values), [envelope], dim, tol, [label], [phase_rate])
    return _certified(fine, coarse, grid, envelope), grid


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
    discretization estimate is at most target_tol / 2 (see ``walk_ladders``,
    which also explains ``phase_rate``).

    Raises
    ------
    QuadratureError
        If no ladder grid within the node budget meets the tolerance.
    """
    return integrate_values(g, g.envelope, g.dim, g.name, target_tol, phase_rate=phase_rate)


def _absolute(g: TestFunction) -> _Integrand:
    """|g| as an integrand named |name|, with factors |g_j| when g declares factors."""
    factors = None if g.factors is None else tuple(lambda x, f_j=f_j: np.abs(f_j(x)) for f_j in g.factors)
    return _Integrand(lambda pts: np.abs(g(pts)), factors, f"|{g.name}|")


def l1_norm(g: TestFunction, tol: float = 1e-9) -> QuadratureResult:
    """Integral of |g| over R^dim to the requested tolerance (a product of per-axis sums if g is factored)."""
    absolute = _absolute(g)
    result, _ = integrate_values(absolute, g.envelope, g.dim, absolute.name, tol)
    return replace(result, value=result.value.real)
