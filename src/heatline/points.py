"""Complex n-tuples: bilinear dot product, Euclidean modulus, inequality slacks.

The dot product here is bilinear, z . w = sum_j z_j w_j with no conjugation;
every kernel and transform in this package pairs points that way.  The
modulus is the usual Euclidean one, |z| = (sum_j |z_j|^2)^(1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def check_dim(dim) -> None:
    """Raise ValueError unless ``dim`` is a positive integer; a bool is not a dimension."""
    if isinstance(dim, bool) or int(dim) != dim or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-d float64 or complex128 array, checking ``dim``."""
    a = np.atleast_1d(np.asarray(x))
    if a.ndim != 1:
        raise ValueError(f"a point must be a 1-d tuple, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("a point needs at least one coordinate")
    if np.iscomplexobj(a):
        a = a.astype(np.complex128)
    else:
        a = a.astype(np.float64)
    if dim is not None and a.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {a.shape[0]}")
    return a


def real_point(x, dim: int) -> np.ndarray:
    """Coerce ``x`` to a finite real point of shape (dim,)."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.shape != (dim,):
        raise ValueError(f"expected a real point of dimension {dim}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"expected a finite real point, got {a.tolist()}")
    return a


def real_points(xs, dim: int, what: str = "points") -> np.ndarray:
    """Coerce ``xs`` to a nonempty (k, dim) batch of finite real points.

    A 1-d list is read as k points in dim 1, or as one point otherwise;
    ``what`` names the batch in the error raised for any other input.
    """
    a = np.asarray(xs, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1) if dim == 1 else a.reshape(1, -1)
    if a.ndim != 2 or a.shape[1] != dim or a.shape[0] == 0 or not np.all(np.isfinite(a)):
        raise ValueError(
            f"{what} must have shape (k, {dim}) with k >= 1 and finite entries, got shape {a.shape}"
        )
    return a


def dot(z, w):
    """Bilinear dot product sum_j z_j w_j (no conjugation).

    Accepts arrays of shape (..., n); the product is taken over the last
    axis, so batches of points are paired elementwise.
    """
    z = np.atleast_1d(np.asarray(z))
    w = np.atleast_1d(np.asarray(w))
    if z.shape[-1] != w.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {z.shape[-1]} vs {w.shape[-1]}"
        )
    # numpy reduces a short trailing axis slowly; an in-order sum of columns
    # onto a 0-d +0 (broadcast by the first column, so no array is allocated
    # for it) is faster, and for n <= 3 gives the same bits as
    # np.sum(z * w, axis=-1), signed zeros included.  Each column's fresh
    # product takes the running sum in place, so no array is allocated for
    # the sums
    out = np.zeros((), np.result_type(z, w))
    for j in range(z.shape[-1]):
        term = z[..., j] * w[..., j]
        out = out + term if term.ndim == 0 else np.add(out, term, out=term)
    return out[()] if out.ndim == 0 else out


def cis(theta) -> np.ndarray:
    """exp(i theta) = cos(theta) + i sin(theta) for real theta, as a complex128 array.

    The real and imaginary parts are filled by np.cos and np.sin, which is
    about twice as fast as np.exp of a complex argument.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def modulus(z):
    """Euclidean modulus (sum_j |z_j|^2)^(1/2) over the last axis."""
    z = np.atleast_1d(np.asarray(z))
    out = np.sqrt(np.sum((z * np.conj(z)).real, axis=-1))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class InequalityReport:
    """Nonnegative slack in the Cauchy-Schwarz and triangle inequalities."""

    cs_slack: float
    tri_slack: float


def check_inequalities(z, w) -> InequalityReport:
    """Slack |z||w| - |z.w| and |z| + |w| - |z+w| for a pair of points.

    Both slacks are >= 0 up to roundoff for every pair; the property suite
    samples this at scale.
    """
    z = as_point(z)
    w = as_point(w, dim=z.shape[0])
    cs = modulus(z) * modulus(w) - abs(dot(z, w))
    tri = modulus(z) + modulus(w) - modulus(z + w)
    return InequalityReport(cs_slack=float(cs), tri_slack=float(tri))
