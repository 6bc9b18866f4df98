"""The shared tensor-grid engine: block iteration, the ladder walk, and spectra."""

import math

import numpy as np
import pytest

from heatline import (
    Atom,
    BoundedMeasure,
    GridSpec,
    TestFunction,
    gauss_fn,
    gauss_inversion,
    integrate,
    integrate_auto,
    mollify,
    weierstrass_fn,
)
from heatline.quadrature import GaussianDecay, QuadratureError, TensorGrid, integrate_values
from heatline.transforms import Spectrum, mollify_on_points, sampled_spectrum


@pytest.fixture
def default_ladders(monkeypatch):
    for var in ("HEATLINE_BUDGET", "HEATLINE_RADIUS_LADDER", "HEATLINE_POINTS_LADDER"):
        monkeypatch.delenv(var, raising=False)


def _counted(base: TestFunction, seen: list) -> TestFunction:
    def f(pts):
        seen.append(pts.shape[0])
        return base.f(pts)

    return TestFunction(f, base.dim, base.envelope, bounded=True, sup_bound=base.sup_bound, name="counted")


def test_default_walk_evaluates_each_rung_once(default_ladders):
    seen = []
    g = _counted(weierstrass_fn(0.005), seen)
    seen.clear()  # the construction spot check is not part of the walk
    result, grid = integrate_auto(g, 1e-8)
    assert grid == GridSpec(4.0, 512, 1)
    # rungs 128, 256, 512 plus the coarse 64; evaluating every rung's coarse
    # grid afresh would cost (65 + 129) + (129 + 257) + (257 + 513) = 1350
    assert sum(seen) == 65 + 129 + 257 + 513
    assert result == integrate(g, grid)


@pytest.mark.parametrize("ladder", ["128,256,512", "128,384,1024"])
def test_walk_matches_fresh_fine_and_coarse_sums(monkeypatch, ladder):
    monkeypatch.setenv("HEATLINE_POINTS_LADDER", ladder)
    g = weierstrass_fn(0.005)
    result, grid = integrate_auto(g, 1e-8)
    assert result == integrate(g, grid)


@pytest.mark.parametrize("width", [801, 66049])
def test_blocks_respect_the_caps_and_cover_the_grid(width):
    grid = TensorGrid(4.0, 512, 2)
    sizes = [pts.shape[0] for pts, _ in grid.blocks(width=width)]
    assert max(sizes) * width <= 1 << 21
    assert sum(sizes) == 513**2
    assert max(pts.shape[0] for pts, _ in grid.blocks()) <= 1 << 17
    # Simpson weights integrate constants exactly
    total = grid.sum(lambda pts, w: np.sum(w))
    assert abs(total[0] - 64.0) < 1e-12


def test_points_are_the_lattice_in_row_major_order():
    pts = TensorGrid(2.0, 4, 2).points()
    axis = np.linspace(-2.0, 2.0, 5)
    assert pts.shape == (25, 2)
    assert np.array_equal(pts[:, 0], np.repeat(axis, 5))
    assert np.array_equal(pts[:, 1], np.tile(axis, 5))


def test_spectra_add():
    xi = np.array([[0.0], [0.5]])
    a = Spectrum(lambda p: np.ones(p.shape[0], dtype=complex), 1.0, 2.0)
    b = Spectrum(lambda p: p[:, 0] + 0j, 0.5, 3.0)
    total = a + b
    assert np.array_equal(total.values(xi), np.array([1.0, 1.5]))
    assert (total.bound, total.rate) == (1.5, 3.0)


def test_sampled_spectrum_is_bounded_by_its_mass_and_matches_the_kernel_pair():
    spectrum = sampled_spectrum(gauss_fn(0.1), 1e-9, 2.0)
    xi = np.linspace(-2.0, 2.0, 9).reshape(-1, 1)
    values = spectrum.values(xi)
    assert np.all(np.abs(values) <= spectrum.bound)
    expected = (4.0 * math.pi * 0.1) ** -0.5 * np.exp(-xi[:, 0] ** 2 / 0.4)
    assert np.max(np.abs(values - expected)) < 1e-8


def test_function_and_density_share_one_inversion():
    f = weierstrass_fn(0.1)
    measure = BoundedMeasure(dim=1, density=f)
    for x in (0.0, 0.5):
        assert measure.gauss_inversion([x], 0.05, 1e-7) == gauss_inversion(f, [x], 0.05, 1e-7)


def _unbounded_weierstrass(a: float) -> TestFunction:
    """The values of weierstrass:a declared without a sup bound, so smoothing takes the integrable branch."""
    base = weierstrass_fn(a)
    return TestFunction(base.f, 1, base.envelope, name="unbounded-weierstrass")


@pytest.mark.parametrize("alpha", [0.2, 0.05])
def test_smoothing_an_unbounded_integrable_function_meets_the_semigroup(alpha):
    f = _unbounded_weierstrass(0.1)
    xs = np.array([[0.0], [0.5], [1.0]])
    # the semigroup property: W_alpha * W_0.1 = W_{0.1 + alpha}
    expected = (4.0 * math.pi * (0.1 + alpha)) ** -0.5 * np.exp(-xs[:, 0] ** 2 / (4.0 * (0.1 + alpha)))
    batched = mollify_on_points(f, alpha, xs, 1e-9)
    assert np.max(np.abs(batched - expected)) <= 1e-9
    for x, want in zip(xs, expected):
        assert abs(mollify(f, alpha, x, 1e-9) - want) <= 1e-9


def test_measure_smoothing_is_row_zero_of_the_batch():
    measure = BoundedMeasure(dim=1, atoms=(Atom((0.3,), 0.5 - 0.25j),), density=weierstrass_fn(0.1))
    for y in (np.array([0.0]), np.array([0.7])):
        assert measure.mollify(0.05, y) == measure.mollify_on_points(0.05, y[None])[0]


def test_a_non_finite_sum_fails_loudly():
    def nan_values(pts):
        return np.full(pts.shape[0], np.nan)

    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_values(nan_values, GaussianDecay(1.0, 1.0), 1, "nan", grid=GridSpec(4.0, 8, 1))


def test_a_fixed_grid_refuses_a_tolerance_it_would_ignore():
    g = weierstrass_fn(0.1)
    with pytest.raises(ValueError, match="fixed grid"):
        integrate_values(g, g.envelope, 1, g.name, 1e-8, grid=GridSpec(4.0, 128, 1))
    with pytest.raises(ValueError, match="fixed grid"):
        integrate_values(g, g.envelope, 1, g.name, grid=GridSpec(4.0, 128, 1), phase_rate=2.0)
