"""Named test functions with certified decay envelopes.

These are the stock integrands used by the verification experiments and
accepted by the CLI preset syntax (``gauss:0.1``, ``weierstrass:0.1``,
``unit-gauss``, ``bump:1``, ``bumppair:0.8``, ``const:1``).  Preset heads
match case-insensitively, both when a preset is built and when its closed
forms are looked up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import KernelScale, gauss, weierstrass, weierstrass_peak
from .quadrature import (
    BoundedOnly,
    CompactSupport,
    GaussianDecay,
    TestFunction,
)


def _axis_factors(kernel: Callable, alpha: float, dim: int) -> tuple:
    """The 1-d kernel at scale alpha on every axis: x.x and the prefactor split per axis."""
    scale = KernelScale(alpha, 1)
    return (lambda x: kernel(scale, x[:, None]),) * dim


def gauss_fn(alpha: float, dim: int = 1) -> TestFunction:
    """The Gauss kernel at scale alpha as a test function (sup is 1)."""
    scale = KernelScale(alpha, dim)
    return TestFunction(
        f=lambda pts: gauss(scale, pts),
        dim=dim,
        envelope=GaussianDecay(4.0 * math.pi**2 * alpha, 1.0),
        bounded=True,
        sup_bound=1.0,
        name=f"gauss:{alpha:g}",
        factors=_axis_factors(gauss, alpha, dim),
    )


def weierstrass_fn(alpha: float, dim: int = 1) -> TestFunction:
    """The Weierstrass kernel at scale alpha (unit mass, peak (4 pi a)^(-n/2))."""
    scale = KernelScale(alpha, dim)
    peak = weierstrass_peak(scale)
    return TestFunction(
        f=lambda pts: weierstrass(scale, pts),
        dim=dim,
        envelope=GaussianDecay(1.0 / (4.0 * alpha), peak),
        bounded=True,
        sup_bound=peak,
        name=f"weierstrass:{alpha:g}",
        factors=_axis_factors(weierstrass, alpha, dim),
    )


def unit_gaussian(dim: int = 1) -> TestFunction:
    """exp(-pi |x|^2), whose integral over R^n is exactly 1."""
    return TestFunction(
        f=lambda pts: np.exp(-math.pi * np.sum(pts * pts, axis=1)),
        dim=dim,
        envelope=GaussianDecay(math.pi, 1.0),
        bounded=True,
        sup_bound=1.0,
        name="unit-gauss",
        factors=(lambda x: np.exp(-math.pi * (x * x)),) * dim,
    )


def _bump_values(pts: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    d2 = np.sum((pts - center) ** 2, axis=1) / (radius * radius)
    inside = d2 < 1.0
    out = np.zeros(pts.shape[0])
    # guard the exponent against the pole at the support edge
    safe = np.where(inside, 1.0 - d2, 1.0)
    out[inside] = np.exp(-1.0 / safe[inside])
    return out


def bump_fn(radius: float, dim: int = 1, center=None) -> TestFunction:
    """Smooth bump exp(-1 / (1 - (|x-c|/radius)^2)) inside, identically 0 outside."""
    if not radius > 0.0:
        raise ValueError(f"bump radius must be positive, got {radius}")
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float).reshape(dim)
    support = radius + float(np.sqrt(np.sum(c * c)))
    return TestFunction(
        f=lambda pts: _bump_values(pts, c, radius),
        dim=dim,
        envelope=CompactSupport(support),
        bounded=True,
        sup_bound=math.exp(-1.0),
        name=f"bump:{radius:g}",
    )


def bump_pair_fn(radius: float = 0.8, separation: float = 2.0, dim: int = 1) -> TestFunction:
    """Sign-alternating pair of bumps at +/- separation/2 along the first axis."""
    if not (radius > 0.0 and separation > 0.0):
        raise ValueError("bump pair needs radius > 0 and separation > 0")
    shift = np.zeros(dim)
    shift[0] = separation / 2.0
    support = radius + separation / 2.0

    def values(pts: np.ndarray) -> np.ndarray:
        return _bump_values(pts, shift, radius) - _bump_values(pts, -shift, radius)

    return TestFunction(
        f=values,
        dim=dim,
        envelope=CompactSupport(support),
        bounded=True,
        sup_bound=math.exp(-1.0),
        name=f"bumppair:{radius:g}",
    )


def zero_fn(dim: int = 1) -> TestFunction:
    """The zero function, certified integrable with a vanishing envelope."""
    return TestFunction(
        f=lambda pts: np.zeros(pts.shape[0]),
        dim=dim,
        envelope=GaussianDecay(1.0, 1e-300),
        bounded=True,
        sup_bound=0.0,
        name="const:0",
    )


def constant_fn(value: complex, dim: int = 1) -> TestFunction:
    """The constant function (BoundedOnly envelope, not integrable-certified); float64 for a real value."""
    if value == 0:
        return zero_fn(dim)
    dtype = np.complex128 if np.iscomplexobj(value) else np.float64
    return TestFunction(
        f=lambda pts: np.full(pts.shape[0], value, dtype=dtype),
        dim=dim,
        envelope=BoundedOnly(abs(value)),
        bounded=True,
        sup_bound=abs(value),
        name=f"const:{value}",
    )


def _split_preset(text: str) -> tuple[str, str]:
    """The lowercased head and the argument of a preset literal."""
    head, _, arg = text.strip().partition(":")
    return head.lower(), arg


def parse_preset(text: str, dim: int = 1) -> TestFunction:
    """Build a test function from a preset literal like ``gauss:0.1``."""
    head, arg = _split_preset(text)
    try:
        if head == "gauss":
            return gauss_fn(float(arg), dim)
        if head == "weierstrass":
            return weierstrass_fn(float(arg), dim)
        if head in ("unit-gauss", "unitgauss"):
            return unit_gaussian(dim)
        if head == "bump":
            return bump_fn(float(arg), dim)
        if head == "bumppair":
            return bump_pair_fn(float(arg) if arg else 0.8, dim=dim)
        if head == "const":
            return constant_fn(float(arg), dim)
    except ValueError as exc:
        if "could not convert" in str(exc):
            raise ValueError(f"bad preset parameter in {text!r}") from exc
        raise
    raise ValueError(
        f"unknown preset {text!r}; expected gauss:A, weierstrass:A, unit-gauss, "
        "bump:R, bumppair:R, or const:C"
    )


@dataclass(frozen=True)
class ClosedForm:
    """Exact values for a preset f in dimension n.

    The integral of f over R^n, its transform at real frequencies (one xi
    of shape (n,), or a (k, n) batch with one value per row), and its
    mollified value (W_alpha * f)(x).
    """

    integral: float
    transform: Callable[[np.ndarray], np.ndarray]
    smoothed: Callable[[float, np.ndarray], float]


def closed_form(text: str, dim: int = 1) -> ClosedForm | None:
    """Closed forms of a preset literal, or None when the catalog knows none."""
    head, arg = _split_preset(text)
    if head == "weierstrass":
        scale = KernelScale(float(arg), dim)
        return ClosedForm(
            1.0,
            lambda xi: gauss(scale, xi),
            # the semigroup property: W_alpha * W_a = W_{a + alpha}
            lambda alpha, x: float(weierstrass(KernelScale(scale.alpha + alpha, dim), x)),
        )
    if head not in ("gauss", "unit-gauss", "unitgauss"):
        return None
    # unit-gauss, exp(-pi |x|^2), is the gauss kernel at scale 1 / (4 pi)
    scale = KernelScale(float(arg) if head == "gauss" else 1.0 / (4.0 * math.pi), dim)

    def smoothed(alpha: float, x) -> float:
        # W_alpha * gauss_a = (1 + 16 pi^2 alpha a)^(-n/2) gauss_{a / (1 + 16 pi^2 alpha a)}
        spread = 1.0 + 16.0 * math.pi**2 * alpha * scale.alpha
        return spread ** (-dim / 2.0) * float(gauss(KernelScale(scale.alpha / spread, dim), x))

    return ClosedForm(weierstrass_peak(scale), lambda xi: weierstrass(scale, xi), smoothed)
