"""Gauss and Weierstrass kernels on real or complex arguments.

For a scale alpha > 0 in dimension n the two kernels are

    gauss:        exp(-4 pi^2 alpha x.x)
    weierstrass:  (4 pi alpha)^(-n/2) exp(-x.x / (4 alpha))

with the bilinear x.x, so both extend verbatim to complex points (exp is
entire and the prefactor involves only real alpha > 0).  They are Fourier
transforms of each other; the quadrature suite verifies that numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .points import check_dim, dot


@dataclass(frozen=True)
class KernelScale:
    """Positive scale alpha for a kernel pair in dimension dim."""

    alpha: float
    dim: int = 1

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha}")
        check_dim(self.dim)


def _self_dot(scale: KernelScale, x) -> np.ndarray:
    """Bilinear x.x over the last axis, after checking the dimension.

    The result is a fresh floating array (0-d for one point), owned by the
    caller: the kernels below finish in place on it, so a batch allocates no
    temporary beside it.  Each in-place step is the operation the expression
    would apply, so the bits are the expression's.
    """
    a = np.asarray(x)
    if a.ndim == 0:
        if scale.dim != 1:
            raise ValueError(f"scalar point given but kernel dimension is {scale.dim}")
        a = a.reshape(1)
    if a.shape[-1] != scale.dim:
        raise ValueError(f"dimension mismatch: point has {a.shape[-1]}, kernel has {scale.dim}")
    q = dot(a, a)
    return np.asarray(q, dtype=np.result_type(q, 1.0))


def gauss(scale: KernelScale, x):
    """Gauss kernel exp(-4 pi^2 alpha x.x); batched over leading axes of x."""
    q = _self_dot(scale, x)
    np.multiply(q, -4.0 * math.pi**2 * scale.alpha, out=q)
    np.exp(q, out=q)
    return q[()] if q.ndim == 0 else q


def weierstrass(scale: KernelScale, x):
    """Weierstrass kernel (4 pi alpha)^(-n/2) exp(-x.x / (4 alpha))."""
    q = _self_dot(scale, x)
    prefactor = (4.0 * math.pi * scale.alpha) ** (-scale.dim / 2.0)
    np.negative(q, out=q)
    np.divide(q, 4.0 * scale.alpha, out=q)
    np.exp(q, out=q)
    np.multiply(q, prefactor, out=q)
    return q[()] if q.ndim == 0 else q


def weierstrass_peak(scale: KernelScale) -> float:
    """Value of the Weierstrass kernel at the origin, (4 pi alpha)^(-n/2)."""
    return (4.0 * math.pi * scale.alpha) ** (-scale.dim / 2.0)
