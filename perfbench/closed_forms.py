"""Closed forms the benchmark checks heatline's outputs against.

Everything here is computed from the formulas directly, with numpy only, so
that no check depends on heatline's own kernels, closed-form lookups or
``passed`` flags.  Conventions follow the library: the transform pairs f
with exp(-2 pi i x.xi), points pair by the bilinear dot product, and for a
scale a > 0 in dimension n

    gauss_a(x)       = exp(-4 pi^2 a x.x)
    weierstrass_a(x) = (4 pi a)^(-n/2) exp(-x.x / (4 a)).

Only the two kernel presets ``gauss:A`` and ``weierstrass:A`` are generated
by the workloads, so only those have closed forms here.
"""

from __future__ import annotations

import math

import numpy as np

_PI2 = math.pi**2


def parse(preset: str) -> tuple[str, float]:
    head, _, arg = preset.partition(":")
    if head not in ("gauss", "weierstrass"):
        raise ValueError(f"no closed form for preset {preset!r}")
    return head, float(arg)


def _points(x) -> np.ndarray:
    a = np.asarray(x)
    return a.reshape(1, -1) if a.ndim <= 1 else a


def _self_dot(x) -> np.ndarray:
    a = _points(x)
    return np.sum(a * a, axis=-1)


def gauss(a: float, x) -> np.ndarray:
    return np.exp(-4.0 * _PI2 * a * _self_dot(x))


def weierstrass(a: float, x) -> np.ndarray:
    n = _points(x).shape[-1]
    return (4.0 * math.pi * a) ** (-n / 2.0) * np.exp(-_self_dot(x) / (4.0 * a))


def value(preset: str, x) -> np.ndarray:
    """The preset function itself at each row of x."""
    head, b = parse(preset)
    return gauss(b, x) if head == "gauss" else weierstrass(b, x)


def transform(preset: str, xi) -> np.ndarray:
    """Fourier transform at each row of xi: the kernel pair swaps gauss and weierstrass."""
    head, b = parse(preset)
    return weierstrass(b, xi) if head == "gauss" else gauss(b, xi)


def mass(preset: str, dim: int) -> float:
    """Integral over R^dim: 1 for weierstrass, (4 pi b)^(-n/2) for gauss."""
    head, b = parse(preset)
    return 1.0 if head == "weierstrass" else (4.0 * math.pi * b) ** (-dim / 2.0)


def mollified(preset: str, alpha: float, x) -> np.ndarray:
    """(W_alpha * f)(x): heat-semigroup closed forms for both kernels."""
    head, b = parse(preset)
    if head == "weierstrass":
        return weierstrass(alpha + b, x)
    spread = 1.0 + 16.0 * _PI2 * alpha * b
    n = _points(x).shape[-1]
    return spread ** (-n / 2.0) * gauss(b / spread, x)


def multiplication(a: float, b: float, dim: int) -> float:
    """Integral of the transform of gauss_a against gauss_b: (1 + 16 pi^2 a b)^(-n/2)."""
    return (1.0 + 16.0 * _PI2 * a * b) ** (-dim / 2.0)


def paired_with_gauss(preset: str, c: float, dim: int) -> float:
    """Integral over R^dim of the preset times gauss_c."""
    head, b = parse(preset)
    if head == "weierstrass":
        return multiplication(b, c, dim)
    return (4.0 * math.pi * (b + c)) ** (-dim / 2.0)


class Measure:
    """Atoms (location, weight) plus an optional kernel-preset density, as plain data."""

    def __init__(self, dim: int, atoms, density: str | None):
        self.dim = dim
        self.locations = np.array([loc for loc, _ in atoms], dtype=float).reshape(len(atoms), dim)
        self.weights = np.array([w for _, w in atoms], dtype=complex)
        self.density = density

    def literal(self) -> dict:
        """The heatline JSON measure literal for these atoms and density."""
        out = {
            "dim": self.dim,
            "atoms": [
                {"at": [float(v) for v in loc], "re": float(w.real), "im": float(w.imag)}
                for loc, w in zip(self.locations, self.weights)
            ],
        }
        if self.density:
            out["density"] = self.density
        return out

    def transform(self, xi) -> np.ndarray:
        xi = _points(xi)
        out = np.exp(-2j * math.pi * (xi @ self.locations.T)) @ self.weights
        if self.density:
            out = out + transform(self.density, xi)
        return out

    def mollified(self, alpha: float, y) -> np.ndarray:
        y = _points(y)
        diffs = y[:, None, :] - self.locations[None, :, :]
        out = weierstrass(alpha, diffs.reshape(-1, self.dim)).reshape(diffs.shape[:2]) @ self.weights
        if self.density:
            out = out + mollified(self.density, alpha, y)
        return out

    def apply_gauss(self, c: float) -> complex:
        """The measure applied to gauss_c."""
        out = complex(np.sum(self.weights * gauss(c, self.locations))) if len(self.weights) else 0j
        if self.density:
            out += paired_with_gauss(self.density, c, self.dim)
        return out

    def smoothed_against_gauss(self, alpha: float, c: float) -> complex:
        """Integral of (W_alpha * measure)(x) gauss_c(x) dx, by symmetry of W_alpha."""
        out = 0j
        if len(self.weights):
            out += complex(np.sum(self.weights * mollified(f"gauss:{c!r}", alpha, self.locations)))
        if self.density:
            head, b = parse(self.density)
            if head == "weierstrass":
                out += multiplication(alpha + b, c, self.dim)
            else:
                spread = 1.0 + 16.0 * _PI2 * alpha * b
                out += spread ** (-self.dim / 2.0) * paired_with_gauss(
                    f"gauss:{b / spread!r}", c, self.dim
                )
        return out
