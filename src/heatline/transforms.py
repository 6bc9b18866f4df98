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
from typing import Callable

import numpy as np

from .kernels import KernelScale, gauss, weierstrass, weierstrass_peak
from .points import real_point
from .quadrature import (
    _TINY,
    CompactSupport,
    Envelope,
    GaussianDecay,
    GridSpec,
    QuadratureError,
    TensorGrid,
    TestFunction,
    _require_integrable,
    integrate_values,
    l1_norm,
    truncation_radius,
    walk_ladder,
)

_FREQ_CUTOFF = 1e-12  # gauss weight level that sets the sampled-frequency cube


@dataclass(frozen=True)
class FrequencySample:
    """A frequency point together with a transform value there."""

    xi: tuple[float, ...]
    value: complex


@dataclass(frozen=True)
class SummabilityTrace:
    """Values along a decreasing ladder of kernel scales, at an optional point."""

    alphas: tuple[float, ...]
    values: tuple[complex, ...]
    point: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.alphas) != len(self.values):
            raise ValueError("one value per alpha required")
        if len(self.alphas) == 0:
            raise ValueError("empty trace")
        arr = np.asarray(self.alphas, dtype=float)
        if np.any(arr <= 0.0) or np.any(np.diff(arr) >= 0.0):
            raise ValueError("alphas must be strictly decreasing positive reals")


@dataclass(frozen=True)
class SummabilityResult:
    limit: complex
    converged: bool
    final_difference: float


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
    oscillation.  Spectra add: values and bounds add, rates take the larger.
    """

    values: Callable[[np.ndarray], np.ndarray]
    bound: float
    rate: float

    def __add__(self, other: "Spectrum") -> "Spectrum":
        return Spectrum(
            lambda xi_pts: self.values(xi_pts) + other.values(xi_pts),
            self.bound + other.bound,
            max(self.rate, other.rate),
        )


def _phase_block(values: Callable, xi_arr: np.ndarray, sign: float) -> Callable:
    """Block evaluator of the sums of values(x) exp(sign 2 pi i x.xi), one per row of xi_arr."""
    return lambda pts, w: (w * values(pts)) @ np.exp(sign * 2j * math.pi * (pts @ xi_arr.T))


def _transform_profile(
    values: Callable, envelope: Envelope, dim: int, label: str, xi_arr: np.ndarray, tol: float, sign: float
) -> np.ndarray:
    """Transform values at a batch of real frequencies, on one escalating grid."""
    _require_integrable(envelope, label, "the Fourier transform")
    worst = float(np.max(np.sqrt(np.sum(xi_arr * xi_arr, axis=1)))) if xi_arr.size else 0.0
    fine, _, _ = walk_ladder(_phase_block(values, xi_arr, sign), xi_arr.shape[0], envelope, dim, tol, label, worst)
    return fine


def fourier(f: TestFunction, xi, tol: float = 1e-8) -> complex:
    """Transform value integral of f(x) exp(-2 pi i x.xi) over R^n."""
    xi = real_point(xi, f.dim)
    return complex(_transform_profile(f, f.envelope, f.dim, f.name, xi.reshape(1, -1), tol, -1.0)[0])


def inverse_fourier(phi: TestFunction, x, tol: float = 1e-8) -> complex:
    """Inverse transform: integral of phi(xi) exp(+2 pi i x.xi) over R^n."""
    x = real_point(x, phi.dim)
    return complex(_transform_profile(phi, phi.envelope, phi.dim, phi.name, x.reshape(1, -1), tol, +1.0)[0])


def fourier_profile(
    f: TestFunction, xi_list, tol: float = 1e-8, inverse: bool = False
) -> list[FrequencySample]:
    """Transform values over a list of frequencies, sharing one grid."""
    arr = np.asarray(xi_list, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1) if f.dim == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != f.dim:
        raise ValueError(f"frequency list must have shape (k, {f.dim})")
    values = _transform_profile(f, f.envelope, f.dim, f.name, arr, tol, +1.0 if inverse else -1.0)
    return [FrequencySample(tuple(map(float, row)), complex(v)) for row, v in zip(arr, values)]


def fourier_complex(f: TestFunction, xi, tol: float = 1e-8) -> complex:
    """Transform of f at a complex frequency, certified by a Gaussian envelope.

    The integrand gains a factor exp(2 pi x . Im xi); only a GaussianDecay
    envelope can absorb that growth into a certified tail, via
    exp(-c r^2 + 2 pi q r) <= exp(2 pi^2 q^2 / c) exp(-c r^2 / 2).
    """
    arr = np.atleast_1d(np.asarray(xi, dtype=complex))
    if arr.shape != (f.dim,):
        raise ValueError(f"expected a frequency of dimension {f.dim}, got shape {arr.shape}")
    re, im = arr.real.copy(), arr.imag.copy()
    if not np.any(im):
        return fourier(f, re, tol)
    if not isinstance(f.envelope, GaussianDecay):
        raise QuadratureError(
            f"complex-frequency transform of {f.name!r} needs a GaussianDecay envelope "
            "to certify the tail against exponential growth"
        )
    c = f.envelope.rate
    q = float(np.sqrt(np.sum(im * im)))
    grown = GaussianDecay(c / 2.0, f.envelope.scale * math.exp(2.0 * math.pi**2 * q * q / c))

    def fn(pts: np.ndarray) -> np.ndarray:
        return f(pts) * np.exp(2.0 * math.pi * (pts @ im))

    # the transform at re + i im is the transform at re of f(x) exp(2 pi x.im)
    label = f"fourier[{f.name}]@complex"
    return complex(_transform_profile(fn, grown, f.dim, label, re.reshape(1, -1), tol, -1.0)[0])


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
    result, _ = integrate_values(fn, envelope, f.dim, f"gauss-mean[{f.name}]", tol)
    return complex(result.value)


def gauss_mean_trace(f: TestFunction, alphas, tol: float = 1e-8) -> SummabilityTrace:
    """Gauss means along a decreasing ladder of scales."""
    alphas = tuple(float(a) for a in alphas)
    values = tuple(gauss_mean(f, a, tol) for a in alphas)
    return SummabilityTrace(alphas=alphas, values=values, point=None)


def gauss_summable_limit(trace: SummabilityTrace, tol: float = 1e-6) -> SummabilityResult:
    """Declare the trace convergent and report its limit.

    Convergence requires the last two successive differences to shrink by a
    factor of at least 0.75 and the final difference to be at most 10 * tol;
    a heuristic, but a documented one.
    """
    if len(trace.alphas) < 4:
        raise ValueError(f"need at least 4 ladder rungs, got {len(trace.alphas)}")
    ratios = np.diff(np.asarray(trace.alphas)) / np.asarray(trace.alphas[:-1])
    if np.any(-ratios < 0.5 - 1e-12):
        raise ValueError("ladder must decrease geometrically with ratio <= 1/2")
    diffs = np.abs(np.diff(np.asarray(trace.values, dtype=complex)))
    final = float(diffs[-1])
    if final == 0.0:
        converged = True
    else:
        prev = float(diffs[-2])
        converged = final <= 10.0 * tol and prev > 0.0 and final / prev <= 0.75
    return SummabilityResult(limit=complex(trace.values[-1]), converged=converged, final_difference=final)


def mollify(f: TestFunction, alpha: float, x, tol: float = 1e-8) -> complex:
    """Smoothed value (W_alpha * f)(x) = integral of f(y) W_alpha(x - y) dy; one row of mollify_on_points."""
    x = real_point(x, f.dim)
    return complex(mollify_on_points(f, alpha, x.reshape(1, -1), tol)[0])


def mollify_trace(f: TestFunction, alphas, x, tol: float = 1e-8) -> SummabilityTrace:
    """Mollified values at x along a decreasing ladder of scales."""
    x = real_point(x, f.dim)
    alphas = tuple(float(a) for a in alphas)
    values = tuple(mollify(f, a, x, tol) for a in alphas)
    return SummabilityTrace(alphas=alphas, values=values, point=tuple(map(float, x)))


def mollify_on_points(f: TestFunction, alpha: float, xs: np.ndarray, inner_tol: float) -> np.ndarray:
    """(W_alpha * f)(x) for each row of xs, on one shared escalating grid.

    A bounded f is integrated in u = x - y, under a Gaussian envelope from its
    sup bound; an integrable but unbounded f is integrated in y, under its own
    envelope scaled by the kernel peak.
    """
    scale = KernelScale(alpha, f.dim)
    peak = weierstrass_peak(scale)
    if f.bounded:
        envelope = GaussianDecay(1.0 / (4.0 * alpha), max(f.sup_bound, _TINY) * peak)

        def block(upts: np.ndarray, w: np.ndarray) -> np.ndarray:
            # the kernel weight is shared by every x
            kw = w * weierstrass(scale, upts)
            shifted = xs[:, None, :] - upts[None, :, :]
            vals = f(shifted.reshape(-1, f.dim)).reshape(xs.shape[0], upts.shape[0])
            return vals @ kw.astype(np.complex128)

    elif f.integrable:
        envelope = f.envelope.scaled(peak)

        def block(ypts: np.ndarray, w: np.ndarray) -> np.ndarray:
            # the function values are shared by every x
            return weierstrass(scale, xs[:, None, :] - ypts[None, :, :]) @ (w * f(ypts))

    else:
        raise QuadratureError(
            f"mollification of {f.name!r} needs a bounded or integrable-certified function"
        )
    fine, _, _ = walk_ladder(block, xs.shape[0], envelope, f.dim, inner_tol, f"mollify[{f.name}]")
    return fine


def mollify_l1_check(
    f: TestFunction, alpha: float, grid: GridSpec, inner_tol: float = 1e-8
) -> L1ContractionReport:
    """Check the L1 contraction: smoothed mass never exceeds the original.

    The left side integrates |(W_alpha * f)| over the given grid; the right
    side is the integral of |f|.  Cancellation under smoothing can only
    shrink the left side.
    """
    _require_integrable(f.envelope, f.name, "the L1 contraction check")
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
        return np.abs(mollify_on_points(f, alpha, pts, inner_tol))

    lhs, _ = integrate_values(outer_fn, outer_env, f.dim, f"|smooth[{f.name}]|", grid=grid)
    inner_mass = (2.0 * grid.radius) ** f.dim
    return L1ContractionReport(
        lhs=float(lhs.value.real),
        rhs=float(rhs.value.real),
        lhs_error_budget=lhs.error_budget + inner_mass * inner_tol,
        rhs_error_budget=rhs.error_budget,
    )


def sampled_spectrum(f: TestFunction, inner_tol: float, max_freq: float, sign: float = -1.0) -> Spectrum:
    """The quadrature transform of f, frozen on the smallest ladder grid that meets inner_tol.

    The grid is chosen at ``max_freq`` along the first axis.  Positive Simpson
    weights bound the values by the quadrature L1 mass; the phase rate is the
    grid's half-diagonal.
    """
    _require_integrable(f.envelope, f.name, "the sampled Fourier transform")
    probe = np.zeros((1, f.dim))
    probe[0, 0] = max_freq
    _, _, grid = walk_ladder(_phase_block(f, probe, sign), 1, f.envelope, f.dim, inner_tol, f.name, max_freq)
    tensor = TensorGrid(grid.radius, grid.points_per_axis, f.dim)
    size = tensor.nodes.size**f.dim

    def values(xi_pts: np.ndarray) -> np.ndarray:
        if size * xi_pts.shape[0] > 1 << 31:
            raise QuadratureError("sampled-transform evaluation exceeds the matrix budget")
        return tensor.sum(_phase_block(f, xi_pts, sign), xi_pts.shape[0])

    l1_mass = float(tensor.sum(lambda pts, w: np.sum(np.abs(w * f(pts))))[0].real)
    return Spectrum(values, l1_mass, grid.radius * math.sqrt(f.dim))


def invert_spectrum(spectrum_at: Callable, dim: int, x, alpha: float, tol: float, label: str) -> complex:
    """Gauss-weighted inversion at x: the xi-integral of s(xi) exp(2 pi i x.xi) gauss_alpha(xi).

    ``spectrum_at(inner_tol, max_freq)`` supplies s, sampled out to where the
    gauss weight falls to _FREQ_CUTOFF; its bound and rate certify the integrand.
    """
    x = real_point(x, dim)
    scale = KernelScale(alpha, dim)
    peak = weierstrass_peak(scale)  # integral of the gauss weight
    freq_radius = math.sqrt(math.log(1.0 / _FREQ_CUTOFF) / (4.0 * math.pi**2 * alpha))
    spectrum = spectrum_at(tol / (2.0 * max(1.0, peak)), freq_radius * math.sqrt(dim))

    def fn(xi_pts: np.ndarray) -> np.ndarray:
        return spectrum.values(xi_pts) * np.exp(2j * math.pi * (xi_pts @ x)) * gauss(scale, xi_pts)

    envelope = GaussianDecay(4.0 * math.pi**2 * alpha, spectrum.bound * (1.0 + 1e-9) + _TINY)
    rate = float(np.sqrt(np.sum(x * x))) + spectrum.rate
    result, _ = integrate_values(fn, envelope, dim, f"gauss-inv[{label}]", tol / 2.0, phase_rate=rate)
    return complex(result.value)


def gauss_inversion(f: TestFunction, x, alpha: float, tol: float = 1e-8) -> complex:
    """Gauss-weighted inversion integral at x, from sampled transform values.

    Computes the xi-integral of fhat(xi) exp(2 pi i x.xi) gauss_alpha(xi)
    with fhat itself obtained by quadrature, so agreement with the
    mollified value (W_alpha * f)(x) is a genuine two-route check.
    """
    _require_integrable(f.envelope, f.name, "Gauss-summable inversion")
    return invert_spectrum(
        lambda inner_tol, max_freq: sampled_spectrum(f, inner_tol, max_freq), f.dim, x, alpha, tol, f.name
    )


def gauss_inversion_trace(f: TestFunction, alphas, x, tol: float = 1e-8) -> SummabilityTrace:
    """Inversion values at x along a decreasing ladder of scales."""
    x = real_point(x, f.dim)
    alphas = tuple(float(a) for a in alphas)
    values = tuple(gauss_inversion(f, a_, x, tol) for a_ in alphas)
    return SummabilityTrace(alphas=alphas, values=values, point=tuple(map(float, x)))


def multiplication_formula_check(
    f: TestFunction, psi: TestFunction, tol: float = 1e-8
) -> MultiplicationReport:
    """Both sides of the duality: integral of fhat psi vs integral of f psihat.

    Each side samples one transform by quadrature and integrates it against
    the other factor, so the two sides share no computation path.
    """
    if f.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {psi.dim}")
    for side in (f, psi):
        _require_integrable(side.envelope, side.name, "the multiplication formula")
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
    label = f"dual[{transformed.name},{weight.name}]"
    result, _ = integrate_values(fn, envelope, weight.dim, label, tol / 2.0, phase_rate=spectrum.rate)
    return complex(result.value)


def modulate(h: TestFunction, a, eta, tol: float = 1e-8) -> complex:
    """Transform of h(x) exp(2 pi i a.x) at eta; the shift rule sends it to eta - a."""
    _require_integrable(h.envelope, h.name, "modulation")
    a = real_point(a, h.dim)
    eta = real_point(eta, h.dim)

    def fn(pts: np.ndarray) -> np.ndarray:
        return h(pts) * np.exp(2j * math.pi * (pts @ a))

    return complex(_transform_profile(fn, h.envelope, h.dim, f"mod[{h.name}]", eta.reshape(1, -1), tol, -1.0)[0])
