"""Fourier integral transforms with Gauss summability, and mollification.

The forward transform pairs a function with the character
exp(-2 pi i x.xi); the inverse transform flips the sign.  Since the
inverse transform of a transform need not be integrable, inversion is
regularized by a Gauss weight: the xi-integral of
fhat(xi) exp(2 pi i x.xi) gauss_alpha(xi) equals the Weierstrass
mollification (W_alpha * f)(x), and converges to f(x) as alpha -> 0.
That equality is computed here from quadrature-sampled transform values,
never substituted analytically, so it stays a falsifiable cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from .kernels import KernelScale, gauss, weierstrass, weierstrass_peak
from .points import cis, modulus, real_point, real_points
from .quadrature import (
    _TINY,
    CompactSupport,
    GaussianDecay,
    GridSpec,
    QuadratureError,
    TestFunction,
    _absolute,
    _Integrand,
    _block_sums,
    _check_tolerance,
    _lattice_window,
    _matvec_rows,
    integrate_values,
    l1_norm,
    truncation_radius,
    walk_ladders,
)

_FREQ_CUTOFF = 1e-12  # gauss weight level that sets the sampled-frequency cube
_EXP_MAX = math.log(np.finfo(np.float64).max)  # about 709.78: the largest x whose exp(x) is finite
_TILE_ENTRIES = 1 << 14  # point-node pairs per row tile of a smoothing block's matrix (128 KB real, 256 KB complex)


@dataclass(frozen=True)
class FrequencySample:
    """A frequency point together with a transform value there."""

    xi: tuple[float, ...]
    value: complex


@dataclass(frozen=True)
class L1ContractionReport:
    """Both sides of the smoothing L1 inequality, with their error budgets."""

    lhs: float
    rhs: float
    lhs_error_budget: float
    rhs_error_budget: float


@dataclass(frozen=True)
class MultiplicationReport:
    """Both sides of the transform duality integral."""

    lhs: complex
    rhs: complex


@dataclass(frozen=True)
class Spectrum:
    """Transform values on demand, with a bound on their modulus and a phase rate.

    ``values`` maps (k, dim) frequencies to k values; ``rate`` bounds their
    oscillation.  ``key``, when set, is a hashable name of the values: two
    spectra with equal keys return the same values, bit for bit, on any
    frequency block, so ``invert_spectrum`` samples such a block once for
    both (``sampled_spectrum`` keys by the function and its grid).
    Spectra add: values and bounds add, rates take the larger, and the key
    is the pair of keys (none when either part has none).
    """

    values: Callable[[np.ndarray], np.ndarray]
    bound: float
    rate: float
    key: Hashable | None = None

    def __add__(self, other: "Spectrum") -> "Spectrum":
        return Spectrum(
            lambda xi_pts: self.values(xi_pts) + other.values(xi_pts),
            self.bound + other.bound,
            max(self.rate, other.rate),
            None if self.key is None or other.key is None else (self.key, other.key),
        )


def _transform_table(cases: list, xi_arr: np.ndarray, tol: float) -> np.ndarray:
    """Transform values of several integrands at every row of xi_arr: one row per case, one column per frequency.

    A case is (g, inverse): an integrand taken whole (a ``TestFunction`` or
    an ``_Integrand``; every case has one dimension) and whether to take
    the inverse transform, the case ``GridSpec.phase_sum`` sums.  One
    ``walk_ladders`` call makes a walk per case, to the largest |xi|, with
    the case's own envelope, name and stopping rung, and the walks on a
    grid share one ``phase_sum`` of their cases, so row i is the value of
    walking case i alone, bit for bit: the cases there share each chunk's
    forward phase matrices (an inverse case conjugates its values and its
    sums) and each function's weighted rows, and each case keeps its own
    products.  When several cases fail, the first one's error is raised.  A
    frequency whose norm overflows has an infinite phase cap, and its walk
    reaches no rung.
    """
    worst = float(modulus(xi_arr).max()) if xi_arr.size else 0.0

    def grid_sums(grid: GridSpec, walks: list) -> list[np.ndarray]:
        return grid.phase_sum([cases[i] for i in walks], xi_arr)

    envelopes, labels = [g.envelope for g, _ in cases], [g.name for g, _ in cases]
    walked = walk_ladders(grid_sums, envelopes, cases[0][0].dim, tol, labels, [worst] * len(cases))
    return np.array([fine for fine, _, _ in walked], dtype=np.complex128)


def fourier(f: TestFunction, xi, tol: float = 1e-8) -> complex:
    """Transform value integral of f(x) exp(-2 pi i x.xi) over R^n."""
    xi = real_point(xi, f.dim)
    return complex(_transform_rows(f, xi.reshape(1, -1), tol)[0])


def _transform_rows(g: TestFunction | _Integrand, xi_arr: np.ndarray, tol: float) -> np.ndarray:
    """Forward transform of the integrand g, taken whole, at each row of xi_arr, each row a walk of its own.

    Each walk has the phase cap of its own |xi| and its own stopping rung,
    so a row gives the value of walking that frequency alone, up to
    rounding: the walks on one grid share one forward ``GridSpec.phase_sum``
    over their rows, so its phase matrices are built once per axis for all
    of them, and BLAS rounds a product over several columns differently
    from one over a single column.  A frequency whose norm overflows has an
    infinite phase cap, and its walk reaches no rung.
    """
    norms = modulus(xi_arr)
    count = xi_arr.shape[0]

    def grid_sums(grid: GridSpec, walks: list) -> np.ndarray:
        return grid.phase_sum([(g, False)], xi_arr[walks])[0].reshape(2, len(walks), 1).swapaxes(0, 1)

    walked = walk_ladders(grid_sums, [g.envelope] * count, g.dim, tol, [g.name] * count, norms.tolist())
    return np.array([fine[0] for fine, _, _ in walked], dtype=np.complex128)


def fourier_profile(
    f: TestFunction, xi_list, tol: float = 1e-8, inverse: bool = False
) -> list[FrequencySample]:
    """Transform values over a list of frequencies, sharing one grid."""
    arr = real_points(xi_list, f.dim, "frequency list")
    [values] = _transform_table([(f, inverse)], arr, tol)
    return [FrequencySample(tuple(row), v) for row, v in zip(arr.tolist(), values.tolist())]


def fourier_complex(f: TestFunction, xi, tol: float = 1e-8) -> complex:
    """Transform of f at a complex frequency, certified by a Gaussian envelope.

    The integrand gains a factor exp(2 pi x . Im xi); only a GaussianDecay
    envelope can absorb that growth into a certified tail, via
    exp(-c r^2 + 2 pi q r) <= exp(2 pi^2 q^2 / c) exp(-c r^2 / 2).
    A frequency whose parts or q^2 = |Im xi|^2 are not finite is refused
    with ValueError before any walk, and one whose growth factor
    exp(2 pi^2 q^2 / c) overflows float64 with QuadratureError.  Within the
    bound, exp(2 pi x.Im xi) may still overflow at a far node, where f
    underflows: there the integrand is f / |f| exp(log |f| + 2 pi x.Im xi),
    one exponent (0 where f is 0), so every value the envelope bounds is
    finite, and every value that is finite as a product keeps its bits.
    Such a transform is huge (gauss:0.1 at 0.5 + 8i has a modulus of about
    1.5e69), so the absolute tolerance cannot certify it, and the walk fails
    with "discretization estimate never met the tolerance".
    """
    arr = np.atleast_1d(np.asarray(xi, dtype=complex))
    if arr.shape != (f.dim,):
        raise ValueError(f"expected a frequency of dimension {f.dim}, got shape {arr.shape}")
    re, im = arr.real.copy(), arr.imag.copy()
    q = modulus(im)
    if not (np.isfinite(re).all() and math.isfinite(q)):
        raise ValueError(f"expected a finite complex frequency with a finite |Im xi|^2, got {arr.tolist()}")
    if not np.any(im):
        return fourier(f, re, tol)
    if not isinstance(f.envelope, GaussianDecay):
        raise QuadratureError(
            f"complex-frequency transform of {f.name!r} needs a GaussianDecay envelope "
            "to certify the tail against exponential growth"
        )
    c = f.envelope.rate
    exponent = 2.0 * math.pi**2 * q * q / c
    if exponent > _EXP_MAX:
        raise QuadratureError(
            f"complex-frequency transform of {f.name!r} at {arr.tolist()}: the growth factor "
            f"exp(2 pi^2 |Im xi|^2 / c) = exp({exponent:.6g}) overflows float64"
        )
    grown = GaussianDecay(c / 2.0, f.envelope.scale * math.exp(exponent))

    def fn(pts: np.ndarray) -> np.ndarray:
        values, growth = f(pts), 2.0 * math.pi * (pts @ im)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = values * np.exp(growth)
            # where exp(growth) overflows: one exponent, f / |f| exp(log |f| + growth), and 0 where f is 0
            far = ~np.isfinite(out)
            magnitude = np.abs(values[far])
            out[far] = np.where(magnitude > 0.0, values[far] / magnitude * np.exp(np.log(magnitude) + growth[far]), 0.0)
        return out

    # the transform at re + i im is the transform at re of f(x) exp(2 pi x.im)
    g = _Integrand(fn, grown, f.dim, f"fourier[{f.name}]@complex")
    return complex(_transform_table([(g, False)], re.reshape(1, -1), tol)[0, 0])


def gauss_mean(f: TestFunction, alpha: float, tol: float = 1e-8) -> complex:
    """Gauss mean: integral of f(x) gauss_alpha(x) over R^n."""
    scale = KernelScale(alpha, f.dim)

    def fn(pts: np.ndarray) -> np.ndarray:
        return f(pts) * gauss(scale, pts)

    weight_rate = 4.0 * math.pi**2 * alpha
    if f.integrable:
        envelope = f.envelope
        if isinstance(envelope, GaussianDecay):
            envelope = GaussianDecay(envelope.rate + weight_rate, envelope.scale)
    elif f.bounded:
        envelope = GaussianDecay(weight_rate, max(f.sup_bound, _TINY))
    else:
        raise QuadratureError(
            f"the Gauss mean of {f.name!r} needs a bounded or integrable-certified function"
        )
    result, _ = integrate_values(_Integrand(fn, envelope, f.dim, f"gauss-mean[{f.name}]"), tol)
    return complex(result.value)


def mollify(f: TestFunction, alpha: float, x, tol: float = 1e-8) -> complex:
    """Smoothed value (W_alpha * f)(x) = integral of f(y) W_alpha(x - y) dy; a one-alpha, one-point mollify_ladder."""
    x = real_point(x, f.dim)
    return complex(mollify_ladder(f, [alpha], x.reshape(1, -1), tol)[0, 0])


def mollify_ladder(f: TestFunction, alphas, xs: np.ndarray, inner_tol: float) -> np.ndarray:
    """(W_alpha * f)(x) for each alpha (rows) and each row of xs (columns), a (len(alphas), k) array.

    A bounded f is integrated in u = x - y, under a Gaussian envelope from its
    sup bound; an integrable but unbounded f is integrated in y, under its own
    envelope scaled by the kernel peak.  Each alpha walks the ladder as it
    would alone, so its row is ``mollify_ladder(f, [alpha], xs, inner_tol)[0]``
    bit for bit, but the alphas still walking on a ladder grid share it (see
    ``quadrature.walk_ladders``); ``_mollify_walks`` walks each (alpha,
    point) pair on its own instead.  For a bounded f,
    each tile of the block's f(x - u) matrix is evaluated once per grid, on
    the rows of xs that some walk on it needs, and contracted with the kernel
    weight rows of every alpha on it at once; for an integrable f, f(y) is
    shared and each alpha builds its own kernel matrix.  The coarse sums
    cost no evaluation of f (see ``quadrature._block_sums``).  In dim 1, when the points and a block's nodes lie on one dyadic lattice,
    that matrix (f(x - u), or an integrable f's kernel matrix) is read from
    one sampling of f (of each alpha's kernel) on the lattice, kept until
    a block meets another lattice, with the same entries bit for bit (see
    ``_shifted_products``): the 1,025 nodes of ``GridSpec(6, 1024, 1)``
    against the 129 of the rung (4, 128) and then the 257 of the rung
    (4, 256) take 5,121 evaluations in all, not 132,225 and 263,425.
    A block's (points x nodes) matrix is built and contracted in row tiles of
    about 2^14 entries, so it stays in cache and needs no fresh memory, while
    each point keeps its own sum over the block's nodes, bit for bit (see
    ``quadrature._matvec_rows``).  For a real f the kernel
    weights, the matrices and their products stay real (float64); a complex
    f makes them complex.  ``xs`` has shape (k, dim), or is a list of k
    points in dim 1; non-finite entries are refused.
    """
    return _mollify_walks(f, alphas, real_points(xs, f.dim), inner_tol, per_point=False)


def _shifted_products(g: Callable, xs: np.ndarray, nodes: np.ndarray, w: np.ndarray, sampled: dict) -> np.ndarray:
    """_matvec_rows of the (points x nodes) matrix g(x_i - u_j) with each weight row of w, built in row tiles of xs.

    g maps an (n, dim) array of points to n values.  A tile holds at most
    _TILE_ENTRIES entries (one row at least), so it stays in cache, and each
    output keeps the bits of the untiled product; the result is real when
    the matrix and w are.  A tile's rows are evaluated at every (point,
    node) pair, unless the points and the nodes share a dyadic lattice (see
    ``quadrature._lattice_window``): then the matrix is a window onto g
    sampled once on the lattice, or read from ``sampled``, g's last
    sampling, when the block before met the same lattice, with the same
    entries bit for bit; each tile of it is copied into a C-contiguous
    array first, since einsum sums a strided operand in another order.
    """
    window = _lattice_window(g, xs, nodes, sampled)
    rows = max(1, _TILE_ENTRIES // nodes.shape[0])

    def tile(a: int) -> np.ndarray:
        if window is not None:
            return np.ascontiguousarray(window[a:a + rows])
        shifted = xs[a:a + rows, None, :] - nodes[None, :, :]
        return g(shifted.reshape(-1, xs.shape[1])).reshape(shifted.shape[:2])

    return np.concatenate([_matvec_rows(tile(a), w) for a in range(0, xs.shape[0], rows)], axis=-1)


def _mollify_walks(f: TestFunction, alphas, xs: np.ndarray, inner_tol: float, per_point: bool) -> np.ndarray:
    """``mollify_ladder``, or with ``per_point`` one walk per (alpha, point): a (len(alphas), k) array.

    A walk is an alpha and the rows of xs it smooths: every row, or with
    ``per_point`` one row (walk j k + i is alphas[j] at xs[i]).  Each walk
    stops on its own rung, so with ``per_point`` entry (j, i) is
    ``mollify(f, alphas[j], xs[i], inner_tol)`` bit for bit, while the walks
    on one ladder grid share its f(x - u) tiles and kernel weights, evaluated
    on the rows of xs that some walk on the grid still needs: each grid
    sum's block evaluator (``block_for``) picks the alphas and rows of xs
    of its walks, and reads each walk's rows back from the block's product.
    The call keeps what its grid sums share: the last sampling of f (or of
    each alpha's kernel) on a dyadic lattice, and each walk's last rung
    (``quadrature._block_sums``).
    """
    scales = [KernelScale(float(alpha), f.dim) for alpha in alphas]
    peaks = [weierstrass_peak(scale) for scale in scales]
    k = xs.shape[0]
    sets, width = (k, 1) if per_point else (1, k)  # one alpha's walks: one per row of xs, or one for every row
    row_sets = xs.reshape(sets, width, f.dim)

    if f.bounded:
        envelopes = [GaussianDecay(1.0 / (4.0 * s.alpha), max(f.sup_bound, _TINY) * p) for s, p in zip(scales, peaks)]
        sampled = {}  # f's last lattice sampling

        def product(on: list, x_rows: np.ndarray, upts: np.ndarray, w: np.ndarray) -> np.ndarray:
            # each alpha's kernel weights are shared by every x, and f(x - u) by every alpha
            kw = np.concatenate([w * weierstrass(scales[a], upts) for a in on])
            return _shifted_products(f, x_rows, upts, kw, sampled)

    elif f.integrable:
        envelopes = [f.envelope.scaled(peak) for peak in peaks]
        kernels = [{} for _ in scales]  # each alpha's kernel's last lattice sampling

        def product(on: list, x_rows: np.ndarray, ypts: np.ndarray, w: np.ndarray) -> np.ndarray:
            # the function values are shared by every x and every alpha
            fw = w * f(ypts)
            return np.concatenate([
                _shifted_products(lambda pts, s=scales[a]: weierstrass(s, pts), x_rows, ypts, fw, kernels[a]) for a in on
            ])

    else:
        raise QuadratureError(
            f"mollification of {f.name!r} needs a bounded or integrable-certified function"
        )

    def block_for(walks: list) -> Callable:
        # walk i is alpha i // sets on row set i % sets; the product has a row per weight row for each alpha
        # on the grid, in turn, and a column per row of xs needed, and is read back as each walk's rows in turn
        on, chosen = sorted({i // sets for i in walks}), sorted({i % sets for i in walks})
        slot, spot = {a: p * len(chosen) for p, a in enumerate(on)}, {s: p for p, s in enumerate(chosen)}
        pairs = np.array([slot[i // sets] + spot[i % sets] for i in walks])  # each walk's (alpha, row set) pair
        x_rows = row_sets.take(chosen, axis=0).reshape(-1, f.dim)

        def block(pts: np.ndarray, w: np.ndarray) -> np.ndarray:
            by_pair = product(on, x_rows, pts, w).reshape(len(on), -1, len(chosen), width).swapaxes(1, 2)
            return by_pair.reshape(len(on) * len(chosen), -1).take(pairs, axis=0).reshape(-1, width)

        return block

    envelopes = [envelope for envelope in envelopes for _ in range(sets)]
    labels = [f"mollify[{f.name}]"] * len(envelopes)
    walked = walk_ladders(_block_sums(block_for), envelopes, f.dim, inner_tol, labels, [0.0] * len(envelopes))
    return np.array([fine for fine, _, _ in walked], dtype=np.complex128).reshape(len(scales), k)


def mollify_l1_check(
    f: TestFunction, alpha: float, grid: GridSpec, inner_tol: float = 1e-8
) -> L1ContractionReport:
    """Check the L1 contraction: smoothed mass never exceeds the original.

    The left side integrates |(W_alpha * f)| over the given grid; the right
    side is the integral of |f|.  Cancellation under smoothing can only
    shrink the left side.
    """
    if f.dim != grid.dim:
        raise ValueError(f"dimension mismatch: function {f.dim}, grid {grid.dim}")
    rhs = l1_norm(f, inner_tol)
    env = f.envelope
    if isinstance(env, CompactSupport):
        if not f.bounded:
            raise QuadratureError("a compactly supported integrand needs a sup bound here")
        rate = 1.0 / (4.0 * alpha)
        env = GaussianDecay(rate, max(f.sup_bound, _TINY) * math.exp(rate * env.radius**2))
    if not isinstance(env, GaussianDecay):
        raise QuadratureError(
            f"the L1 check of {f.name!r} needs a Gaussian or compact envelope"
        )
    # Gaussian convolution in closed form: smoothing a C exp(-c|x|^2)
    # envelope yields C (1+4ac)^(-n/2) exp(-c|x|^2 / (1+4ac))
    spread = 1.0 + 4.0 * alpha * env.rate
    outer_env = GaussianDecay(env.rate / spread, env.scale * spread ** (-f.dim / 2.0))

    def outer_fn(pts: np.ndarray) -> np.ndarray:
        return np.abs(mollify_ladder(f, [alpha], pts, inner_tol)[0])

    lhs, _ = integrate_values(_Integrand(outer_fn, outer_env, f.dim, f"|smooth[{f.name}]|"), grid=grid)
    inner_mass = (2.0 * grid.radius) ** f.dim
    return L1ContractionReport(
        lhs=float(lhs.value.real),
        rhs=float(rhs.value.real),
        lhs_error_budget=lhs.error_budget + inner_mass * inner_tol,
        rhs_error_budget=rhs.error_budget,
    )


def sampled_spectrum(f: TestFunction, inner_tol: float, max_freq: float) -> Spectrum:
    """The quadrature transform of f, frozen on the smallest ladder grid that meets inner_tol.

    The grid is chosen at ``max_freq`` along the first axis.  Positive Simpson
    weights bound the values by the quadrature L1 mass, the fine sum of
    ``l1_norm``'s integrand |f| on the grid; the phase rate is the grid's
    half-diagonal.  The values on a block of frequencies are the Simpson sum
    of f(x) exp(-2 pi i x.xi) on the grid.  When every axis of the block is
    a lattice the grid's nodes pair with exactly (as the nodes of another
    ladder grid are), they are one FFT per axis (``GridSpec._lattice_sum``):
    every f in dim 1, a factored f in dims 2 and 3.  Any other block (spot
    points, non-dyadic frequencies, an unfactored f in dim >= 2) is the fine
    row of one forward ``GridSpec.phase_sum`` of f, under a budget of 2^31
    node-frequency pairs; the grid is walked to with that phase sum at the
    probe frequency.  The key is (f, grid): the values depend on nothing
    else.
    """
    probe = np.zeros((1, f.dim))
    probe[0, 0] = max_freq
    [(_, _, grid)] = walk_ladders(
        lambda grid, walks: grid.phase_sum([(f, False)], probe), [f.envelope], f.dim, inner_tol, [f.name], [max_freq]
    )
    size = grid.nodes.size**f.dim

    def values(xi_pts: np.ndarray) -> np.ndarray:
        sums = grid._lattice_sum(f, xi_pts)
        if sums is not None:
            return sums
        if size * xi_pts.shape[0] > 1 << 31:
            raise QuadratureError("sampled-transform evaluation exceeds the matrix budget")
        return grid.phase_sum([(f, False)], xi_pts)[0][0]

    l1_mass, _ = integrate_values(_absolute(f), grid=grid)
    return Spectrum(values, float(l1_mass.value.real), grid.radius * math.sqrt(f.dim), ("sampled", f, grid))


def invert_spectrum(spectrum_at: Callable, dim: int, xs, alphas, tol: float, label: str) -> np.ndarray:
    """Gauss-weighted inversion for each alpha (rows) at each row of xs (columns), a (len(alphas), k) array.

    Row j is the xi-integral of s(xi) exp(2 pi i x.xi) gauss_alpha(xi) for
    alpha = alphas[j], where ``spectrum_at(inner_tol, max_freq)`` supplies s
    for that alpha, sampled out to where its gauss weight falls to
    _FREQ_CUTOFF; its bound and rate certify the integrand.  Every alpha's
    spectrum is sampled first, then one ``walk_ladders`` call makes a walk
    per (alpha, point), and each walk keeps its own phase cap (|x| plus the
    spectrum's rate) and stopping rung, so a value depends neither on the
    batch of points nor on the other alphas.  Within one block of a grid,
    the walks share each alpha's Gauss weights, each point's phases
    exp(2 pi i x.xi) and the values of each spectrum ``key`` (a spectrum
    without a key shares its values with no other alpha); nothing is kept
    from one block to the next.  Each point's integrand is evaluated as it
    would be alone, on a fresh copy of the spectrum values.
    """
    _check_tolerance(tol)
    xs = real_points(xs, dim)
    k = xs.shape[0]
    scales = [KernelScale(float(alpha), dim) for alpha in alphas]
    spectra = []
    for scale in scales:
        peak = weierstrass_peak(scale)  # integral of the gauss weight
        freq_radius = math.sqrt(math.log(1.0 / _FREQ_CUTOFF) / (4.0 * math.pi**2 * scale.alpha))
        spectra.append(spectrum_at(tol / (2.0 * max(1.0, peak)), freq_radius * math.sqrt(dim)))
    keys = [object() if spectrum.key is None else spectrum.key for spectrum in spectra]

    def block_for(walks: list) -> Callable:
        def block(xi_pts: np.ndarray, w: np.ndarray) -> np.ndarray:
            # this block's gauss weights by alpha, spectrum values by key and phases by point
            weights, values, phases, sums = {}, {}, {}, []
            for walk in walks:
                j, i = divmod(walk, k)  # walk j k + i is alphas[j] at xs[i]
                if j not in weights:
                    weights[j] = gauss(scales[j], xi_pts)
                if keys[j] not in values:
                    values[keys[j]] = spectra[j].values(xi_pts)
                if i not in phases:
                    phases[i] = cis(2.0 * math.pi * (xi_pts @ xs[i]))
                # a fresh array, as an unshared one would be: numpy multiplies a large
                # temporary in place, where its complex multiply may round differently
                phased = values[keys[j]].copy() * phases[i] * weights[j]
                sums.append(np.sum(w * phased, axis=-1, keepdims=True))
            return np.concatenate(sums)

        return block

    name = f"gauss-inv[{label}]"
    envelopes = [
        GaussianDecay(4.0 * math.pi**2 * scale.alpha, spectrum.bound * (1.0 + 1e-9) + _TINY)
        for scale, spectrum in zip(scales, spectra) for _ in xs
    ]
    norms = modulus(xs).tolist()
    rates = [norm + spectrum.rate for spectrum in spectra for norm in norms]
    walked = walk_ladders(_block_sums(block_for), envelopes, dim, tol / 2.0, [name] * len(envelopes), rates)
    return np.array([fine[0] for fine, _, _ in walked], dtype=np.complex128).reshape(len(scales), k)


def gauss_inversion_ladder(f: TestFunction, alphas, xs, tol: float = 1e-8) -> np.ndarray:
    """Gauss-weighted inversion for each alpha (rows) at each row of xs (columns), a (len(alphas), k) array.

    Computes the xi-integral of fhat(xi) exp(2 pi i x.xi) gauss_alpha(xi)
    with fhat itself obtained by quadrature, so agreement with the
    mollified value (W_alpha * f)(x) is a genuine two-route check.  Each
    alpha samples the transform on the x-grid its own inner tolerance and
    frequency reach pick, and each point keeps its own outer grid, so row j
    is ``gauss_inversion_ladder(f, [alphas[j]], xs, tol)[0]`` bit for bit; a
    frequency block is sampled once per x-grid for the walks that meet it
    (see ``invert_spectrum``).  ``xs`` has shape (k, dim), or is a list of k
    points in dim 1.
    """
    return invert_spectrum(
        lambda inner_tol, max_freq: sampled_spectrum(f, inner_tol, max_freq), f.dim, xs, alphas, tol, f.name
    )


def gauss_inversion(f: TestFunction, x, alpha: float, tol: float = 1e-8) -> complex:
    """Gauss-weighted inversion integral at x; a one-alpha, one-point gauss_inversion_ladder."""
    x = real_point(x, f.dim)
    return complex(gauss_inversion_ladder(f, [alpha], x.reshape(1, -1), tol)[0, 0])


def multiplication_formula_check(
    f: TestFunction, psi: TestFunction, tol: float = 1e-8
) -> MultiplicationReport:
    """Both sides of the duality: integral of fhat psi vs integral of f psihat.

    Each side samples one transform by quadrature and integrates it against
    the other factor, so the two sides share no computation path.
    """
    _check_tolerance(tol)
    if f.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {psi.dim}")
    for side in (f, psi):
        if not isinstance(side.envelope, (GaussianDecay, CompactSupport)):
            raise QuadratureError(
                f"the multiplication formula needs Gaussian or compact envelopes, "
                f"got {type(side.envelope).__name__} for {side.name!r}"
            )
    lhs = _dual_pairing(f, psi, tol)
    rhs = _dual_pairing(psi, f, tol)
    return MultiplicationReport(lhs=lhs, rhs=rhs)


def _dual_pairing(transformed: TestFunction, weight: TestFunction, tol: float) -> complex:
    """Integral of (transform of `transformed`) times `weight`."""
    rough = l1_norm(transformed, 1e-6).value.real
    pre_env = weight.envelope.scaled(max(rough * 1.01, _TINY))
    radius = truncation_radius(pre_env, weight.dim, tol, weight.name)
    spectrum = sampled_spectrum(
        transformed, tol / (2.0 * (2.0 * radius) ** weight.dim), radius * math.sqrt(weight.dim)
    )
    def fn(xi_pts: np.ndarray) -> np.ndarray:
        return spectrum.values(xi_pts) * weight(xi_pts)

    envelope = weight.envelope.scaled(spectrum.bound * (1.0 + 1e-9) + _TINY)
    g = _Integrand(fn, envelope, weight.dim, f"dual[{transformed.name},{weight.name}]")
    result, _ = integrate_values(g, tol / 2.0, phase_rate=spectrum.rate)
    return complex(result.value)


def modulate(h: TestFunction, a, eta, tol: float = 1e-8) -> complex:
    """Transform of h(x) exp(2 pi i a.x) at eta; the shift rule sends it to eta - a."""
    eta = real_point(eta, h.dim)
    return complex(_modulated_rows(h, a, eta.reshape(1, -1), tol)[0])


def _modulated_rows(h: TestFunction, a, etas: np.ndarray, tol: float) -> np.ndarray:
    """``modulate`` at each row of etas: one walk per row, on shared ladder grids."""
    a = real_point(a, h.dim)

    def fn(pts: np.ndarray) -> np.ndarray:
        return h(pts) * cis(2.0 * math.pi * (pts @ a))

    return _transform_rows(_Integrand(fn, h.envelope, h.dim, f"mod[{h.name}]"), etas, tol)
