"""Default dim-2 and dim-3 transforms against the kernel pair's closed forms, to 2e-15.

The transform of gauss_alpha is weierstrass_alpha and vice versa.  The
closed forms are written out here, independently of ``heatline.kernels``
and ``heatline.catalog``, and each value in the default exports of
``fourier`` (dims 2 and 3) and ``verify-kernels`` (dim 2) must lie within
2e-15 of them.  This is far below the experiments' own tolerances: it holds
the phase sums to rounding level, which the goldens' 1e-14 comparison
alone would not.
"""

import math

import numpy as np
import pytest

from heatline.experiments import ExperimentSpec, run

RESIDUAL_CAP = 2e-15


def _gauss(alpha: float, xi: np.ndarray) -> np.ndarray:
    return np.exp(-4.0 * math.pi**2 * alpha * np.sum(xi * xi, axis=-1))


def _weierstrass(alpha: float, xi: np.ndarray) -> np.ndarray:
    dim = xi.shape[-1]
    return (4.0 * math.pi * alpha) ** (-dim / 2.0) * np.exp(-np.sum(xi * xi, axis=-1) / (4.0 * alpha))


def _column(table, name: str) -> np.ndarray:
    k = table.columns.index(name)
    return np.array([row[k] for row in table.rows])


def _frequencies(table, dim: int) -> np.ndarray:
    return np.stack([_column(table, f"xi{j + 1}").astype(float) for j in range(dim)], axis=-1)


def _assert_residuals(table, got: np.ndarray, want: np.ndarray) -> None:
    assert np.max(np.abs(got - want)) <= RESIDUAL_CAP
    assert np.max(_column(table, "residual").astype(float)) <= RESIDUAL_CAP


@pytest.mark.parametrize("dim", [2, 3])
def test_default_fourier_meets_the_closed_form(dim):
    table = run(ExperimentSpec("fourier", dim))
    assert table.config["preset"] == "gauss:0.1"
    got = _column(table, "value_re") + 1j * _column(table, "value_im")
    _assert_residuals(table, got, _weierstrass(0.1, _frequencies(table, dim)))


def test_default_verify_kernels_meets_the_closed_form():
    table = run(ExperimentSpec("verify-kernels", 2))
    xi = _frequencies(table, 2)
    alpha = _column(table, "alpha").astype(float)
    to_weierstrass = np.array(["[gauss]" in label for label in _column(table, "direction")])
    want = np.array([
        (_weierstrass if w else _gauss)(a, x[None, :])[0] for a, x, w in zip(alpha, xi, to_weierstrass)
    ])
    got = _column(table, "computed_re") + 1j * _column(table, "computed_im")
    _assert_residuals(table, got, want)
