"""The shared tensor-grid engine: block iteration, the ladder walk, and spectra."""

import math
import tracemalloc
import weakref
from collections.abc import Callable
from fractions import Fraction

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
    l1_norm,
    mollify,
    unit_gaussian,
    weierstrass_fn,
)
from heatline import measures, quadrature, transforms
from heatline.catalog import bump_fn, bump_pair_fn, constant_fn, parse_preset
from heatline.experiments import ExperimentSpec, run
from heatline.measures import weak_convergence_trace
from heatline.points import cis
from heatline.quadrature import GaussianDecay, QuadratureError, integrate_values
from heatline.transforms import (
    Spectrum,
    fourier,
    fourier_profile,
    gauss_inversion_ladder,
    modulate,
    mollify_l1_check,
    mollify_ladder,
    sampled_spectrum,
)


@pytest.fixture
def default_ladders(monkeypatch):
    monkeypatch.delenv("HEATLINE_BUDGET", raising=False)


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
    # rungs 128, 256, 512, each coarse sum taken on its rung's even nodes;
    # evaluating every rung's coarse grid afresh would cost
    # (65 + 129) + (129 + 257) + (257 + 513) = 1350
    assert sum(seen) == 129 + 257 + 513
    assert result == integrate(g, grid)


@pytest.mark.parametrize("ladder", ["128,256,512", "128,384,1024"])
def test_walk_matches_fresh_fine_and_coarse_sums(monkeypatch, ladder):
    monkeypatch.setattr(quadrature, "POINTS_LADDER", tuple(map(int, ladder.split(","))))
    g = weierstrass_fn(0.005)
    result, grid = integrate_auto(g, 1e-8)
    assert result == integrate(g, grid)


def _lattice(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Every node of the grid in row-major order, with its fine and coarse weights, built independently of blocks()."""
    d = grid.dim
    pts = np.stack(np.meshgrid(*[grid.nodes] * d, indexing="ij"), axis=-1).reshape(-1, d)
    w = np.ones((2, pts.shape[0]))
    for ix in np.unravel_index(np.arange(pts.shape[0]), (grid.nodes.size,) * d):
        w *= grid.rows[:, ix]
    return pts, w


def _assert_blocks_tile_the_lattice(grid: GridSpec, blocks: list) -> None:
    """The blocks are tensor products of their index slices and follow one another in row-major order."""
    for pts, w, index in blocks:
        axes = np.meshgrid(*(grid.nodes[s] for s in index), indexing="ij")
        assert np.array_equal(pts, np.stack(axes, axis=-1).reshape(-1, grid.dim))
        assert w.shape == (2, pts.shape[0])
    pts, w = _lattice(grid)
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), pts)
    assert np.array_equal(np.concatenate([b[1] for b in blocks], axis=1), w)


def test_blocks_respect_the_cap_and_cover_the_grid():
    grid = GridSpec(4.0, 512, 2)
    sizes = [pts.shape[0] for pts, _, _ in grid.blocks()]
    assert sum(sizes) == 513**2
    assert max(sizes) <= 1 << 17
    # Simpson weights integrate constants exactly, the fine and the coarse rule alike
    total = grid.sum(lambda pts, w: np.sum(w, axis=-1, keepdims=True))
    assert np.max(np.abs(total - 64.0)) < 1e-12
    # unwidened blocks are runs of whole leading-axis rows, as many as fit the node cap
    blocks = list(grid.blocks())
    assert [index[1] for _, _, index in blocks] == [slice(0, 513)] * len(blocks)
    assert [index[0].stop - index[0].start for _, _, index in blocks] == [255, 255, 3]
    _assert_blocks_tile_the_lattice(grid, blocks)


def test_a_row_over_the_cap_splits_along_the_second_axis(monkeypatch):
    monkeypatch.setattr(quadrature, "_CHUNK", 40)
    grid = GridSpec(1.0, 8, 3)  # rows of 9 x 9 = 81 nodes
    blocks = list(grid.blocks())
    assert all(index[0].stop - index[0].start == 1 and index[2] == slice(0, 9) for _, _, index in blocks)
    # runs of 40 // 9 = 4 whole lines along the third axis, within one row
    assert [index[1].stop - index[1].start for _, _, index in blocks] == [4, 4, 1] * 9
    _assert_blocks_tile_the_lattice(grid, blocks)


def test_points_are_the_lattice_in_row_major_order():
    pts = GridSpec(2.0, 4, 2).points()
    axis = np.linspace(-2.0, 2.0, 5)
    assert pts.shape == (25, 2)
    assert np.array_equal(pts[:, 0], np.repeat(axis, 5))
    assert np.array_equal(pts[:, 1], np.tile(axis, 5))


def _skewed_gaussian(pts: np.ndarray) -> np.ndarray:
    """A complex integrand with no symmetry that would hide an axis mix-up."""
    return np.exp(-np.sum(pts * pts, axis=1) - 0.3 * pts[:, 0]) * (1.0 + 0.5j * pts[:, -1])


def _frequencies(dim: int) -> np.ndarray:
    """Seven frequencies off any lattice."""
    return np.random.default_rng(7 + dim).uniform(-1.5, 1.5, size=(7, dim))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_phase_sum_matches_the_dense_sum(dim, sign):
    grid = GridSpec(3.0, 16, dim)
    xi = _frequencies(dim)
    pts, w = _lattice(grid)
    dense = (w * _skewed_gaussian(pts)) @ np.exp(sign * 2j * math.pi * (pts @ xi.T))
    assert np.max(np.abs(grid.phase_sum(_skewed_gaussian, xi, sign) - dense)) <= 1e-13  # the fine and the coarse row


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_phase_sum_in_frequency_chunks_and_small_blocks(monkeypatch, dim):
    grid = GridSpec(3.0, 16, dim)
    xi = _frequencies(dim)
    whole = grid.phase_sum(_skewed_gaussian, xi, -1.0)
    assert np.array_equal(whole, grid.phase_sum(_skewed_gaussian, xi, -1.0))
    # one frequency per chunk, and blocks of at most 64 nodes (split rows in dim 3)
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 64)
    chunked = grid.phase_sum(_skewed_gaussian, xi, -1.0)
    assert np.max(np.abs(chunked[0] - whole[0])) <= 1e-15  # the fine sums


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
    batched = mollify_ladder(f, [alpha], xs, 1e-9)[0]
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


# -- the rules every walk keeps ----------------------------------------------

BOUNDED_ONLY_WALKS = {
    "fourier": lambda f: fourier(f, [0.5]),
    "fourier_profile": lambda f: fourier_profile(f, [[0.5], [1.0]]),
    "gauss_inversion_ladder": lambda f: gauss_inversion_ladder(f, [0.1], [[0.0]]),
    "integrate": lambda f: integrate(f, GridSpec(4.0, 128, 1)),
    "integrate_auto": lambda f: integrate_auto(f, 1e-8),
    "l1_norm": lambda f: l1_norm(f),
    "modulate": lambda f: modulate(f, [0.5], [0.0]),
    "mollify_l1_check": lambda f: mollify_l1_check(f, 0.1, GridSpec(6.0, 128, 1)),
}


@pytest.mark.parametrize("call", sorted(BOUNDED_ONLY_WALKS))
def test_a_bounded_only_integrand_is_refused_before_any_grid_sum(monkeypatch, call):
    seen = []
    f = _counted(constant_fn(1.0), seen)
    seen.clear()  # the construction spot check is not part of the walk
    monkeypatch.setattr(GridSpec, "weighted_factors", lambda *args: pytest.fail("summed a grid"))
    monkeypatch.setattr(GridSpec, "blocks", lambda *args: pytest.fail("summed a grid"))
    with pytest.raises(QuadratureError, match="not certified integrable"):
        BOUNDED_ONLY_WALKS[call](f)
    assert seen == []


def _rung_sums(calls: list, failing: set) -> Callable:
    """Grid sums that record (points, walks) per call: walks in ``failing`` sum to nan, the others meet tol from rung 512."""

    def grid_sums(grid: GridSpec, walks: list) -> list:
        calls.append((grid.points_per_axis, list(walks)))
        coarse = 1.0 if grid.points_per_axis >= 512 else 0.5
        return [np.full((2, 1), complex(math.nan)) if i in failing else np.array([[1.0], [coarse]], complex) for i in walks]

    return grid_sums


def test_a_walk_with_non_finite_sums_ends_on_that_rung():
    envelope = GaussianDecay(1.0, 1.0)
    calls = []
    with pytest.raises(QuadratureError, match="'nan' summed to a non-finite value"):
        quadrature.walk_ladders(_rung_sums(calls, {0}), [envelope], 1, 1e-8, ["nan"], [0.0])
    assert calls == [(128, [0])]
    # in a batch, walks 1 and 2 end on their first rung, walk 1's error is raised after the
    # others have walked, and walk 0 reaches the rungs it reaches alone
    alone, batch = [], []
    quadrature.walk_ladders(_rung_sums(alone, set()), [envelope], 1, 1e-8, ["a"], [0.0])
    with pytest.raises(QuadratureError, match="'b' summed to a non-finite value"):
        quadrature.walk_ladders(_rung_sums(batch, {1, 2}), [envelope] * 3, 1, 1e-8, ["a", "b", "c"], [0.0] * 3)
    assert alone == [(128, [0]), (256, [0]), (512, [0])]
    assert batch == [(128, [0, 1, 2]), (256, [0]), (512, [0])]


def test_a_fixed_grid_refuses_a_non_finite_coarse_sum():
    calls = []
    grid_sums = lambda grid, walks: calls.append(walks) or [np.array([[1.0], [math.inf]], complex) for _ in walks]
    with pytest.raises(QuadratureError, match="'b' summed to a non-finite value"):
        quadrature._grid_walks(grid_sums, GridSpec(4.0, 8, 1), [GaussianDecay(1.0, 1.0)] * 2, ["b", "c"])
    assert calls == [[0, 1]]


def test_a_batch_of_smoothing_points_meets_the_blocks_one_point_meets(monkeypatch):
    # rung (4, 128) in dim 2 is one block of 129^2 nodes, whatever the number of points smoothed on it
    blocks = []
    shifted_products = transforms._shifted_products

    def recorded(g, xs, nodes, w, sampled):
        blocks.append(nodes.shape[0])
        return shifted_products(g, xs, nodes, w, sampled)

    monkeypatch.setattr(transforms, "_shifted_products", recorded)
    grids = _walked_grids(monkeypatch)
    xs = np.random.default_rng(2).uniform(-2.0, 2.0, size=(300, 2))
    partitions = []
    for batch in (xs[:1], xs):
        blocks.clear()
        mollify_ladder(weierstrass_fn(0.1, 2), [0.2], batch, 1e-2)
        partitions.append(list(blocks))
    assert [grid[:2] for grid in grids] == [(4.0, 128)] * 2
    assert partitions == [[pts.shape[0] for pts, _, _ in GridSpec(4.0, 128, 2).blocks()]] * 2 == [[129**2]] * 2


def test_a_fixed_grid_refuses_a_tolerance_it_would_ignore():
    g = weierstrass_fn(0.1)
    with pytest.raises(ValueError, match="fixed grid"):
        integrate_values(g, g.envelope, 1, g.name, 1e-8, grid=GridSpec(4.0, 128, 1))
    with pytest.raises(ValueError, match="fixed grid"):
        integrate_values(g, g.envelope, 1, g.name, grid=GridSpec(4.0, 128, 1), phase_rate=2.0)


# -- factored integrands: grid sums by Fubini --------------------------------

FACTORED_PRESETS = {
    "gauss": lambda dim: gauss_fn(0.1, dim),
    "weierstrass": lambda dim: weierstrass_fn(0.1, dim),
    "unit-gauss": unit_gaussian,
}


def _unfactored(g: TestFunction) -> TestFunction:
    """g's values declared without factors: in dims 2-3 the engine evaluates them block by block."""
    return TestFunction(g.f, g.dim, g.envelope, g.bounded, g.sup_bound, g.name)


def _block_value_sum(grid: GridSpec, values) -> np.ndarray:
    """The plain (2, 1) fine and coarse sums of values over the grid's blocks: the block route of ``_value_sum``."""
    return grid.sum(lambda pts, w: np.sum(w * np.asarray(values(pts)), axis=-1, keepdims=True))


def _block_phase_sum(grid: GridSpec, values, xi: np.ndarray, sign: float) -> np.ndarray:
    """``GridSpec.phase_sum`` by the block loop, whatever the integrand: values evaluated block by block, per chunk.

    A copy of the engine's block loop, kept as the reference the per-axis
    route of a dim-1 integrand must match bit for bit.  Its +1 phase
    matrices are built directly, cis(+2 pi x xi), not as the engine's
    conjugates.
    """
    m = grid.nodes.size
    step = max(1, quadrature._BLOCK_ENTRIES // max(m, quadrature._CHUNK // m))
    out = np.zeros((2, xi.shape[0]), dtype=np.complex128)
    c = sign * 2.0 * math.pi
    for k in range(0, xi.shape[0], step):
        chunk = xi[k:k + step]
        if sign < 0:
            phases = [grid.phase_matrix(chunk[:, j]) for j in range(grid.dim)]
        else:
            phases = [cis(c * np.multiply.outer(grid.nodes, chunk[:, j])) for j in range(grid.dim)]
        for pts, weight_rows, index in grid.blocks():
            vals = values(pts)
            shape = tuple(s.stop - s.start for s in index)
            for r, w_r in enumerate(weight_rows):
                on = tuple(slice(s.start % 2 if r else 0, None, r + 1) for s in index)
                acc = (w_r * vals).reshape(shape)[on]
                if not acc.size:
                    continue
                axes = [phase[s][o] for phase, s, o in zip(phases, index, on)]
                acc = acc.reshape(-1, acc.shape[-1]) @ axes[-1]
                for axis in range(grid.dim - 2, -1, -1):
                    acc = np.einsum("abk,bk->ak", acc.reshape(-1, axes[axis].shape[0], acc.shape[-1]), axes[axis])
                out[r, k:k + step] += acc[0]
    return out


def _assert_factored_sums_match_the_block_path(g: TestFunction, grid: GridSpec) -> None:
    """Plain and phase sums of g equal the block loop's sums of its unfactored copy on the same grid.

    Bit for bit in dim 1; in dims 2-3 to 1e-15 of the grid's L1 mass sum |w f|,
    the scale of a sum's rounding error.
    """
    block = _unfactored(g)
    xi = _frequencies(g.dim)
    pairs = [(quadrature._value_sum(g)(grid, [0])[0], _block_value_sum(grid, block))]
    pairs += [(grid.phase_sum(g, xi, sign), _block_phase_sum(grid, block, xi, sign)) for sign in (-1.0, 1.0)]
    if g.dim == 1:
        assert all(got.tobytes() == want.tobytes() for got, want in pairs)
    else:
        mass = grid.sum(lambda pts, w: np.sum(np.abs(w[0] * block(pts)))).real
        assert max(float(np.max(np.abs(got - want))) for got, want in pairs) <= 1e-15 * mass


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("preset", sorted(FACTORED_PRESETS))
def test_factored_presets_sum_like_the_block_path(preset, dim):
    _assert_factored_sums_match_the_block_path(FACTORED_PRESETS[preset](dim), GridSpec(4.0, 64, dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scaled_and_shifted_copies_keep_factored_sums_exact(dim):
    offset = np.array([0.3, -0.2, 0.1])[:dim]
    grid = GridSpec(4.0, 64, dim)
    for g in (
        gauss_fn(0.1, dim).scaled(0.5 - 0.25j).shifted(offset),
        weierstrass_fn(0.1, dim).shifted(offset).scaled(-2.0),
    ):
        assert g.factors is not None
        _assert_factored_sums_match_the_block_path(g, grid)


def test_a_factored_integral_evaluates_only_factor_nodes(default_ladders):
    base = weierstrass_fn(0.1, 3)
    full, axes = [], []

    def f(pts):
        full.append(pts.shape[0])
        return base.f(pts)

    def counted(factor):
        def on_axis(x):
            axes.append(x.shape[0])
            return factor(x)

        return on_axis

    g = TestFunction(
        f, 3, base.envelope, bounded=True, sup_bound=base.sup_bound, name="counted",
        factors=tuple(counted(factor) for factor in base.factors),
    )
    full.clear()  # the construction spot check is not part of the walk
    axes.clear()
    result, grid = integrate_auto(g, 1e-8)
    assert grid == GridSpec(4.0, 128, 3)
    # the fine 129^3 grid and the coarse 65^3 grid on its even nodes: 2,146,689
    # nodes, or 3 x 129 factor nodes
    assert full == []
    assert sorted(axes) == [129] * 3
    assert abs(result.value - 1.0) <= result.error_budget + 1e-12


_H, _IM = gauss_fn(0.1), np.array([0.3])
_DIM_1_UNFACTORED = {
    "bump": bump_fn(1.0),
    # complex, as modulate's integrand h(x) exp(2 pi i a.x) is
    "modulated": lambda pts: _H(pts) * cis(2.0 * math.pi * (pts @ np.array([0.7]))),
    # fourier_complex's integrand f(x) exp(2 pi x.Im xi)
    "grown": lambda pts: _H(pts) * np.exp(2.0 * math.pi * (pts @ _IM)),
}


def _counting(values, seen: list):
    """values, recording the number of points of each call in seen."""

    def counted(pts):
        seen.append(pts.shape[0])
        return values(pts)

    return counted


@pytest.mark.parametrize("block_entries", [quadrature._BLOCK_ENTRIES, 1 << 14], ids=["one-chunk", "chunks"])
@pytest.mark.parametrize("name", sorted(_DIM_1_UNFACTORED))
def test_a_dim_1_integrand_is_its_own_single_factor(monkeypatch, name, block_entries):
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", block_entries)  # 1 << 14: chunks of 16 frequencies
    values, grid = _DIM_1_UNFACTORED[name], GridSpec(4.0, 128, 1)
    lattice = GridSpec(6.0, 128, 1).nodes[:, None]  # frequencies the grid's nodes pair with exactly
    xi = np.concatenate([lattice, _frequencies(1)])
    wants = [_block_value_sum(grid, values)] + [_block_phase_sum(grid, values, xi, sign) for sign in (-1.0, 1.0)]
    # the same values declared as one factor: the lattice route every dim-1 integrand took already
    wants.append(grid._lattice_sum(quadrature._Integrand(values, (lambda x: values(x[:, None]),), name), lattice))

    def refused(self):
        raise AssertionError("a dim-1 integrand never takes the block loop")

    monkeypatch.setattr(GridSpec, "blocks", refused)
    seen = []
    counted = _counting(values, seen)
    got = [quadrature._value_sum(counted)(grid, [0])[0]] + [grid.phase_sum(counted, xi, sign) for sign in (-1.0, 1.0)]
    got.append(grid._lattice_sum(counted, lattice))
    assert seen == [129] * 4  # once per sum, at the N + 1 nodes, whatever the frequency chunks
    assert [a.tobytes() for a in got] == [b.tobytes() for b in wants]


def test_an_unfactored_dim_2_integrand_takes_the_block_loop(monkeypatch):
    f, grid, xi = bump_fn(1.0, 2), GridSpec(4.0, 16, 2), _frequencies(2)
    assert grid.weighted_factors(f) is None
    wants = [_block_value_sum(grid, f), _block_phase_sum(grid, f, xi, -1.0)]
    lattice = grid.points()
    walked, blocks = [], GridSpec.blocks
    monkeypatch.setattr(GridSpec, "blocks", lambda self: walked.append(self) or blocks(self))
    seen = []
    counted = _counting(f, seen)
    assert grid._lattice_sum(counted, lattice) is None and seen == [] and walked == []
    got = [quadrature._value_sum(counted)(grid, [0])[0], grid.phase_sum(counted, xi, -1.0)]
    assert walked == [grid, grid] and seen == [17**2] * 2
    assert [a.tobytes() for a in got] == [b.tobytes() for b in wants]


@pytest.mark.parametrize(
    "f", [bump_fn(1.0), bump_fn(1.0, 2), gauss_fn(0.1, 2).shifted([0.3, -0.2])], ids=["d1", "d2", "d2-factored"]
)
def test_a_sampled_spectrum_is_bounded_by_its_fine_l1_sum(f):
    spectrum = sampled_spectrum(f, 1e-6, 1.0)
    grid = spectrum.key[2]
    if f.factors is None:  # sum |w f| over the grid's blocks, or a product of per-axis sums
        mass = float(grid.sum(lambda pts, w: np.sum(np.abs(w * f(pts)), axis=-1, keepdims=True))[0, 0].real)
    else:
        mass = math.prod(float(np.sum(np.abs(wf[0]))) for wf in grid.weighted_factors(f))
    assert spectrum.bound == mass


@pytest.mark.parametrize("dim", [1, 2])
def test_l1_norm_of_a_sign_changing_product_matches_the_block_path(dim):
    # prod_j x_j exp(-pi x_j^2) changes sign across every axis; its |f| mass is pi^-dim
    def odd(x):
        return x * np.exp(-math.pi * x * x)

    g = TestFunction(
        lambda pts: np.prod(odd(pts), axis=1), dim, GaussianDecay(math.pi / 2.0, 0.35**dim),
        name="odd-product", factors=(odd,) * dim,
    )
    factored, block = l1_norm(g, 1e-9), l1_norm(_unfactored(g), 1e-9)
    assert abs(factored.value - math.pi**-dim) <= 1e-8
    assert factored.tail_bound == block.tail_bound
    if dim == 1:
        assert factored == block
    else:
        assert abs(factored.value - block.value) <= 1e-15 * block.value


# -- the coarse sum on the fine grid's even nodes ----------------------------


@pytest.mark.parametrize("radius", quadrature.RADIUS_LADDER)
def test_the_coarse_grid_is_every_other_node_of_each_rung(radius):
    for n in quadrature.POINTS_LADDER:
        fine, coarse = GridSpec(radius, n, 1), GridSpec(radius, n // 2, 1)
        assert fine.nodes[::2].tobytes() == coarse.nodes.tobytes()
        assert fine.rows[1, ::2].tobytes() == coarse.rows[0].tobytes()
        assert not np.any(fine.rows[1, 1::2])


def test_a_grid_of_n_2_mod_4_intervals_embeds_no_coarse_grid():
    # the N/2 = 65-interval grid is no Simpson grid, so such a grid is refused
    for dim in (1, 2, 3):
        with pytest.raises(ValueError, match="multiple of 4.*got 130"):
            GridSpec(6.0, 130, dim)


def _shifted_values(dim: int):
    """Values at x - y for three points x: a (3, m) matrix for m points y."""
    xs = np.array([[0.3, -0.2, 0.1], [-0.5, 0.4, 0.0], [1.1, 0.7, -0.9]])[:, :dim]
    return lambda pts: _skewed_gaussian((xs[:, None, :] - pts[None, :, :]).reshape(-1, dim)).reshape(3, -1)


def _grid_sums(dim: int):
    """(name, grid sum, values whose modulus bounds the summands) for plain, block and phase sums."""
    xi = _frequencies(dim)
    factored = weierstrass_fn(0.1, dim).shifted(np.array([0.3, -0.2, 0.1])[:dim]).scaled(0.5 - 0.25j)
    shifted = _shifted_values(dim)
    cases = []
    for name, g in (("skewed", _skewed_gaussian), ("factored", factored)):
        value_sum = quadrature._value_sum(g)  # one walk
        cases.append((f"plain-{name}", lambda grid, value_sum=value_sum: value_sum(grid, [0])[0], g))
        phase_sums = quadrature._case_phase_sums([(g, -1.0)], xi)  # one walk holding every frequency
        cases.append((f"phase-{name}", lambda grid, phase_sums=phase_sums: phase_sums(grid, [0])[0], g))
    # a block sum contracts its values with the weight rows one matrix-vector product at a time, as smoothing does
    block = lambda grid: grid.sum(lambda pts, w: quadrature._matvec_rows(shifted(pts), w.astype(np.complex128)))
    cases.append(("block", block, lambda pts: np.max(np.abs(shifted(pts)), axis=0)))
    return cases


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_evaluation_gives_the_fine_sum_and_the_coarse_sum(monkeypatch, dim, split):
    n = 32
    if split:
        # blocks of 3 leading-axis rows, so every other block starts on an odd node
        monkeypatch.setattr(quadrature, "_CHUNK", 3 * (n + 1) ** (dim - 1))
    fine_grid, coarse_grid = GridSpec(4.0, n, dim), GridSpec(4.0, n // 2, dim)
    for name, grid_sum, values in _grid_sums(dim):
        fine, coarse = grid_sum(fine_grid)
        mass = float(fine_grid.sum(lambda pts, w: np.sum(np.abs(w[0] * values(pts)))).real)
        assert float(np.max(np.abs(coarse - grid_sum(coarse_grid)[0]))) <= 1e-15 * mass, name


def test_weak_convergence_holds_one_outer_block_of_smoothed_rows(monkeypatch):
    # blocks of 64 outer nodes: the 257-node grid has five, and each block's rows are dropped once it is summed
    monkeypatch.setattr(quadrature, "_CHUNK", 64)
    measure = BoundedMeasure(dim=1, atoms=(Atom((0.5,), 1.0 - 0.5j),), density=weierstrass_fn(0.1))
    calls, alive, most = [0], [0], [0]
    smooth = BoundedMeasure.mollify_ladder

    def tracked(self, alphas, xs, inner_tol=1e-8):
        rows = smooth(self, alphas, xs, inner_tol)
        calls[0] += 1
        alive[0] += 1
        most[0] = max(most[0], alive[0])
        weakref.finalize(rows, lambda: alive.__setitem__(0, alive[0] - 1))
        return rows

    monkeypatch.setattr(BoundedMeasure, "mollify_ladder", tracked)
    weak_convergence_trace(measure, gauss_fn(1.0), [0.2, 0.1, 0.05], GridSpec(6.0, 256, 1))
    assert calls[0] == 5
    assert most[0] == 1


def test_weak_convergence_smooths_only_the_fine_outer_batch(monkeypatch):
    measure = BoundedMeasure(dim=1, atoms=(Atom((0.5,), 1.0 - 0.5j),), density=weierstrass_fn(0.1))
    batches = []
    smooth = BoundedMeasure.mollify_ladder

    def counted(self, alphas, xs, inner_tol=1e-8):
        batches.append((len(alphas), xs.shape[0]))
        return smooth(self, alphas, xs, inner_tol)

    monkeypatch.setattr(BoundedMeasure, "mollify_ladder", counted)
    weak_convergence_trace(measure, gauss_fn(1.0), [0.2, 0.1], GridSpec(6.0, 256, 1))
    # one smoothing for both alphas, on the 257 outer nodes; the coarse sum takes the even ones
    assert batches == [(2, 257)]


# -- a climbed rung contracts once -------------------------------------------


def _kernel_rows(grid: GridSpec, upts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The fine and coarse kernel weights of four alphas on a block, stacked by alpha as smoothing stacks them: (8, block)."""
    return np.concatenate([w * transforms.weierstrass(transforms.KernelScale(a, grid.dim), upts) for a in (0.4, 0.2, 0.1, 0.05)])


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim, points", [(2, 1), (1, 127)], ids=["dim-2-one-row-tiles", "dim-1-127-row-tiles"])
def test_every_output_keeps_its_bits_with_one_two_or_eight_weight_rows(dim, points, complex_values):
    # a climbed rung hands the smoothing product one weight row per alpha, the first rung two; the
    # 66,049-node block of rung (4, 256) in dim 2 is one block with one-row tiles, which einsum would
    # reduce along another path for a single row
    grid = GridSpec(4.0, 256 if dim == 2 else 128, dim)
    [(upts, w, _)] = list(grid.blocks())
    xs = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(points, dim))
    f = weierstrass_fn(0.1, dim).scaled(1.0 - 0.5j if complex_values else 1.0)
    tile = f((xs[:, None, :] - upts[None, :, :]).reshape(-1, dim)).reshape(points, -1)
    assert tile.shape[1] == (66049 if dim == 2 else 129) and points <= max(1, transforms._TILE_ENTRIES // tile.shape[1])
    rows = _kernel_rows(grid, upts, w)
    eight = quadrature._matvec_rows(tile, rows)
    for r in range(8):
        assert quadrature._matvec_rows(tile, rows[r:r + 1]).tobytes() == eight[r:r + 1].tobytes()
    for r in range(0, 8, 2):
        assert quadrature._matvec_rows(tile, rows[r:r + 2]).tobytes() == eight[r:r + 2].tobytes()


def test_a_climbed_rung_contracts_the_fine_kernel_row_and_samples_its_lattice_once(monkeypatch, default_ladders):
    # measures-d1's weak-convergence shape: rung (4, 128) smooths the 1,025 outer nodes for every alpha,
    # and the alphas that fail there climb to rung (4, 256), whose coarse sum is rung 128's fine sum
    seen = []
    measure = BoundedMeasure(dim=1, density=_counted(weierstrass_fn(0.05), seen))
    products = []  # (block nodes, weight rows) of each smoothing product
    shifted_products = transforms._shifted_products

    def recorded(g, xs, nodes, w, sampled):
        products.append((w.shape[1], w.shape[0]))
        return shifted_products(g, xs, nodes, w, sampled)

    monkeypatch.setattr(transforms, "_shifted_products", recorded)
    grids = _walked_grids(monkeypatch)
    seen.clear()
    weak_convergence_trace(measure, gauss_fn(0.75), [0.2 * 2.0**-k for k in range(4)], GridSpec(6.0, 1024, 1), 1e-8)
    [(r, n, first), (r_climbed, n_climbed, climbed)] = grids
    assert (r, n, first) == (4.0, 128, (0, 1, 2, 3)) and (r_climbed, n_climbed) == (4.0, 256) and 0 < len(climbed) < 4
    assert products == [(129, 2 * 4), (257, len(climbed))]
    # every difference of an outer node and a node of either rung lies on one 5,121-point lattice
    assert seen.count(5121) == 1


def test_a_climbed_walk_keeps_its_coarse_row_beside_a_walk_that_joins_its_rung_fresh():
    # walk 0 climbs from rung (4, 64) to (4, 128), where walk 1 joins fresh (as an inversion walk with
    # another phase cap does): each walk's rows there are the bits it gets walking alone
    fs = [weierstrass_fn(0.05), gauss_fn(0.3)]

    def block_for(walks):
        return lambda pts, w: np.concatenate([np.sum(w * fs[i](pts), axis=-1, keepdims=True) for i in walks])

    below, rung = GridSpec(4.0, 64, 1), GridSpec(4.0, 128, 1)
    alone = quadrature._block_sums(block_for)
    [(fine_below, _)] = alone(below, [0])
    [climbed_alone] = alone(rung, [0])
    [fresh_alone] = quadrature._block_sums(block_for)(rung, [1])
    shared = quadrature._block_sums(block_for)
    shared(below, [0])
    climbed, fresh = shared(rung, [0, 1])
    # the rung's own coarse contraction rounds walk 0's N/2 sum otherwise than the rung below did
    [(_, coarse_fresh)] = quadrature._block_sums(block_for)(rung, [0])
    assert coarse_fresh.tobytes() != fine_below.tobytes() and climbed_alone[1].tobytes() == fine_below.tobytes()
    assert climbed.tobytes() == climbed_alone.tobytes() and fresh.tobytes() == fresh_alone.tobytes()


def test_a_fixed_grid_contracts_both_weight_rows(monkeypatch):
    # weak convergence's outer sum (a _grid_walks sum) reports |fine - coarse|, so it keeps both rows
    measure = BoundedMeasure(dim=1, density=weierstrass_fn(0.05))
    handed = []
    block_sums = measures._block_sums

    def recorded(block_for):
        def recorded_for(walks):
            block = block_for(walks)
            return lambda pts, w: (handed.append(w.shape), block(pts, w))[1]

        return block_sums(recorded_for)

    monkeypatch.setattr(measures, "_block_sums", recorded)
    weak_convergence_trace(measure, gauss_fn(0.75), [0.2, 0.1], GridSpec(6.0, 1024, 1), 1e-8)
    assert handed == [(2, 1025)]


# -- mirrored nodes and phase matrices ---------------------------------------

LADDER_GRIDS = [(radius, n) for radius in quadrature.RADIUS_LADDER for n in quadrature.POINTS_LADDER]
NON_DYADIC_GRIDS = [(7.3, 132), (6.0, 136)]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius, n", LADDER_GRIDS + NON_DYADIC_GRIDS)
def test_grid_nodes_are_mirrored_about_a_positive_zero(radius, n, dim):
    nodes = GridSpec(radius, n, 1).nodes
    half = n // 2
    # node n - i is -node i bit for bit; the centre is +0.0, not -0.0
    assert nodes[:half:-1].view(np.int64).tolist() == (-nodes[:half]).view(np.int64).tolist()
    assert nodes[half] == 0.0 and not np.signbit(nodes[half])
    assert (nodes[0], nodes[-1]) == (-radius, radius)
    if (radius, n) in LADDER_GRIDS:
        # every ladder grid already had mirrored nodes: they are np.linspace's, unchanged
        assert nodes.tobytes() == np.linspace(-radius, radius, n + 1).tobytes()
    if (n // 2) % 4 == 0:
        assert GridSpec(radius, n // 2, 1).nodes.tobytes() == nodes[::2].tobytes()
    # the nodes are per axis: a grid of any dim within the node budget has these, and a larger one is refused
    if n**dim <= quadrature.node_budget():
        assert GridSpec(radius, n, dim).nodes.tobytes() == nodes.tobytes()
    else:
        with pytest.raises(QuadratureError, match="node budget"):
            GridSpec(radius, n, dim)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("radius, n", LADDER_GRIDS + NON_DYADIC_GRIDS)
def test_the_mirrored_phase_matrix_is_the_direct_one_bit_for_bit(radius, n, sign):
    grid = GridSpec(radius, n, 1)
    xi = np.array([0.0, -0.0, 2.0, -2.0, 0.37, -1.9, 5e-3])
    c = sign * 2.0 * math.pi
    direct = cis(c * np.multiply.outer(grid.nodes, xi))
    assert np.array_equal(_signed_phase_matrix(grid, sign, xi).view(np.int64), direct.view(np.int64))


def _signed_phase_matrix(grid: GridSpec, sign: float, freqs: np.ndarray) -> np.ndarray:
    """exp(sign 2 pi i x xi) from the engine's forward matrix: itself for sign -1, its conjugate for +1.

    The conjugate is compared with a direct cis(+2 pi x xi), so a +1 case
    checks that cos is even and sin odd, as the mirrored rows already assume.
    """
    phase = grid.phase_matrix(freqs)
    return np.conjugate(phase) if sign > 0 else phase


def _phase_matrix_and_cis_entries(monkeypatch, grid: GridSpec, sign: float, freqs: np.ndarray):
    """_signed_phase_matrix(grid, sign, freqs), with the number of entries it took cos and sin of."""
    entries = []

    def counted(theta):
        entries.append(np.size(theta))
        return cis(theta)

    monkeypatch.setattr(quadrature, "cis", counted)
    return _signed_phase_matrix(grid, sign, freqs), sum(entries)


def _mirrored_freqs() -> np.ndarray:
    """An odd array mirrored bit for bit about a nonzero centre, not a grid's nodes."""
    half = np.random.default_rng(7).normal(scale=3.0, size=20)
    return np.concatenate([half, [0.41], -half[::-1]])


def _off_by_one_ulp() -> np.ndarray:
    freqs = _mirrored_freqs()
    freqs[3] = np.nextafter(freqs[3], math.inf)
    return freqs


def _signed_zero_pair() -> np.ndarray:
    # freqs[0] == -freqs[-1] holds, but the sign bits do not mirror
    freqs = _mirrored_freqs()
    freqs[0] = freqs[-1] = 0.0
    return freqs


def _negative_zero_centre() -> np.ndarray:
    freqs = GridSpec(4.0, 128, 1).nodes.copy()
    freqs[64] = -0.0
    return freqs


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("radius, n", LADDER_GRIDS + NON_DYADIC_GRIDS)
def test_mirrored_frequency_columns_are_the_direct_ones_bit_for_bit(monkeypatch, radius, n, sign):
    grid = GridSpec(6.0, 128, 1)
    freqs = GridSpec(radius, n, 1).nodes
    c = sign * 2.0 * math.pi
    direct = cis(c * np.multiply.outer(grid.nodes, freqs))
    phase, entries = _phase_matrix_and_cis_entries(monkeypatch, grid, sign, freqs)
    assert np.array_equal(phase.view(np.int64), direct.view(np.int64))
    # cos and sin of the top-left quarter only: rows up to the centre node, columns up to the centre frequency
    assert entries == 65 * (n // 2 + 1)


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize(
    "freqs, mirrored",
    [
        (_mirrored_freqs(), True),
        # the centre column is computed, not mirrored, so a -0.0 centre keeps the quarter path
        (_negative_zero_centre(), True),
        (_off_by_one_ulp(), False),
        (_signed_zero_pair(), False),
        (GridSpec(4.0, 128, 1).nodes[1:], False),  # an even size
        (np.array([0.0, -0.0]), False),
        (np.array([-0.0]), False),
        (np.array([1.0, 5.0, -1.0]), True),
    ],
    ids=["odd-mirrored", "negative-zero-centre", "one-ulp-off", "signed-zero-pair", "even", "two", "one", "three"],
)
def test_only_exactly_mirrored_columns_are_mirrored(monkeypatch, freqs, mirrored, sign):
    grid = GridSpec(4.0, 128, 1)
    c = sign * 2.0 * math.pi
    direct = cis(c * np.multiply.outer(grid.nodes, freqs))
    phase, entries = _phase_matrix_and_cis_entries(monkeypatch, grid, sign, freqs)
    assert np.array_equal(phase.view(np.int64), direct.view(np.int64))
    assert entries == 65 * (freqs.size // 2 + 1 if mirrored else freqs.size)


# -- smoothing in row tiles --------------------------------------------------


@pytest.mark.parametrize("rows", [1, 2, 5, 124, 125, 993, 1025])
@pytest.mark.parametrize("width", [1, 129, 1935, 4097, 1 << 20])
def test_row_tiles_cover_the_batch_in_runs_of_four(monkeypatch, rows, width):
    # a tile of any height keeps each row's bits (the einsum product), so tiles need only cover the batch in order;
    # each tile's product is stood in for by its own index, so the result tells which tile held each row
    heights = []
    monkeypatch.setattr(
        transforms, "_matvec_rows", lambda tile, w: heights.append(tile.shape[0]) or np.full((1, tile.shape[0]), len(heights) - 1)
    )
    products = transforms._shifted_products(lambda pts: pts[:, 0], np.zeros((rows, 1)), np.zeros((width, 1)), np.ones((1, width)), {})
    size = max(1, transforms._TILE_ENTRIES // width)
    assert products.tolist() == [np.repeat(np.arange(len(heights)), heights).tolist()]
    assert all(0 < height <= size for height in heights)
    assert len(heights) == -(-rows // size)


def _smoothing_case(dim: int, bounded: bool, count: int) -> tuple[TestFunction, np.ndarray]:
    """weierstrass:0.1 (bounded, or declared without a sup bound) and ``count`` points in [-3, 3]^dim."""
    f = weierstrass_fn(0.1, dim)
    if not bounded:
        f = TestFunction(f.f, dim, f.envelope, name="unbounded-weierstrass")
    xs = np.random.default_rng(count + dim).uniform(-3.0, 3.0, size=(count, dim))
    return f, xs


def _assert_tiles_keep_every_bit(monkeypatch, f: TestFunction, xs: np.ndarray, alpha: float, tol: float) -> None:
    tiled = mollify_ladder(f, [alpha], xs, tol)[0]
    with monkeypatch.context() as m:
        m.setattr(transforms, "_TILE_ENTRIES", 1 << 40)  # one tile per block: the untiled products
        assert tiled.tobytes() == mollify_ladder(f, [alpha], xs, tol)[0].tobytes()


@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("dim, count, alpha, tol", [(1, 1025, 0.025, 1e-8), (1, 125, 0.2, 1e-8), (2, 1025, 0.2, 1e-2)])
def test_smoothing_in_row_tiles_keeps_every_bit(monkeypatch, dim, count, alpha, tol, bounded):
    # 1,025 points against the 129 nodes of a dim-1 block make 8 tiles of 127
    # rows and a 9-row one, while 125 points fit one tile; in dim 2 a loose
    # tolerance keeps the walk on its first rung
    f, xs = _smoothing_case(dim, bounded, count)
    _assert_tiles_keep_every_bit(monkeypatch, f, xs, alpha, tol)


@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("dim, count, alpha, tol", [(1, 1025, 0.025, 1e-8), (1, 128, 0.2, 1e-8), (2, 1025, 0.2, 1e-2)])
def test_complex_smoothing_in_row_tiles_keeps_every_bit(monkeypatch, dim, count, alpha, tol, bounded):
    # f scaled by 1j smooths in complex128 through the same einsum product;
    # 128 points against a 129-node block end in a one-row tile, which a BLAS
    # product would sum as a dot product
    f, xs = _smoothing_case(dim, bounded, count)
    _assert_tiles_keep_every_bit(monkeypatch, f.scaled(1j), xs, alpha, tol)


def test_smoothing_a_large_batch_stays_small_in_memory():
    f, xs = _smoothing_case(1, True, 1025)
    mollify_ladder(f, [0.025], xs, 1e-8)  # first-call caches are not part of the call's footprint
    tracemalloc.start()
    try:
        mollify_ladder(f, [0.025], xs, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the untiled 1,025 x 129 blocks took about 8 MB
    assert peak < 1 << 20


# -- real integrands stay real -----------------------------------------------

PRESETS = ["gauss:0.1", "weierstrass:0.1", "unit-gauss", "bump:1", "bumppair:0.8", "const:1", "const:-2.5", "const:0"]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("preset", PRESETS)
def test_catalog_presets_take_real_values(preset, dim):
    f = parse_preset(preset, dim)
    pts = GridSpec(2.0, 4, dim).points()
    assert f(pts).dtype == np.float64
    if f.factors is not None:
        assert all(wf.dtype == np.float64 for wf in GridSpec(4.0, 16, dim).weighted_factors(f))
    assert f.scaled(1j)(pts).dtype == np.complex128


def test_real_values_of_any_real_type_come_back_as_float64():
    for values in (lambda pts: pts[:, 0] > 0.0, lambda pts: np.ones(pts.shape[0], dtype=np.int64)):
        f = TestFunction(values, 1, quadrature.CompactSupport(20.0), name="stepped")
        assert f(np.array([[-1.0], [1.0]])).dtype == np.float64


def _smoothing_block_dtypes(monkeypatch, f: TestFunction, xs: np.ndarray) -> set:
    """The dtypes of the block sums that mollify_ladder(f, [0.1]) contracts on its walk."""
    dtypes = set()
    block_sums = transforms._block_sums

    def recorded(block_for):
        def recorded_for(walks):
            block = block_for(walks)

            def wrapped(pts, w):
                out = block(pts, w)
                dtypes.add(out.dtype)
                return out

            return wrapped

        return block_sums(recorded_for)

    monkeypatch.setattr(transforms, "_block_sums", recorded)
    mollify_ladder(f, [0.1], xs, 1e-8)
    monkeypatch.setattr(transforms, "_block_sums", block_sums)
    return dtypes


@pytest.mark.parametrize("bounded", [True, False])
def test_smoothing_blocks_are_real_for_a_real_function(monkeypatch, bounded):
    f, xs = _smoothing_case(1, bounded, 9)
    assert _smoothing_block_dtypes(monkeypatch, f, xs) == {np.dtype(np.float64)}
    assert _smoothing_block_dtypes(monkeypatch, f.scaled(1j), xs) == {np.dtype(np.complex128)}


def test_a_modulated_integrand_stays_complex(monkeypatch):
    integrands = []
    phase_sums = transforms._phase_sums

    def recorded(values, xi):
        integrands.append(values)
        return phase_sums(values, xi)

    monkeypatch.setattr(transforms, "_phase_sums", recorded)
    modulate(gauss_fn(0.1), [0.5], [0.0], 1e-8)
    assert integrands[0](np.zeros((3, 1))).dtype == np.complex128


@pytest.mark.parametrize("bounded", [True, False])
@pytest.mark.parametrize("dim, tol", [(1, 1e-9), (2, 1e-4)])
def test_real_smoothing_agrees_with_the_complex_path(dim, tol, bounded):
    # a sign-changing f; f.scaled(1 + 0j) has complex values, so its smoothing takes the complex products
    f = bump_pair_fn(0.8, dim=dim)
    sup = {"bounded": True, "sup_bound": f.sup_bound} if bounded else {}
    f = TestFunction(f.f, dim, f.envelope, name="bumppair", **sup)
    xs = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(9, dim))
    real = mollify_ladder(f, [0.1], xs, tol)[0]
    assert real.dtype == np.complex128  # the accumulators stay complex
    complex_path = mollify_ladder(f.scaled(1 + 0j), [0.1], xs, tol)[0]
    assert np.max(np.abs(real - complex_path)) <= 1e-15 * l1_norm(f).value


# -- one build per ladder grid -----------------------------------------------


def test_the_walk_builds_each_ladder_grid_once(default_ladders):
    g = weierstrass_fn(0.1)
    _, grid = integrate_auto(g, 1e-8)
    assert integrate_auto(g, 1e-8)[1] is grid
    assert integrate_auto(weierstrass_fn(0.2), 1e-8)[1] is grid  # another integrand on the same rung
    fresh = GridSpec(grid.radius, grid.points_per_axis, grid.dim)  # a user-built grid is its own
    assert fresh == grid and fresh is not grid


def test_a_lowered_budget_still_refuses_a_cached_ladder_grid(monkeypatch, default_ladders):
    g = weierstrass_fn(0.1, 2)
    _, grid = integrate_auto(g, 1e-6)
    monkeypatch.setenv("HEATLINE_BUDGET", str(grid.points_per_axis**2 - 1))
    with pytest.raises(QuadratureError, match="at budget"):
        integrate_auto(g, 1e-6)


# -- one smoothing walk for a ladder of scales --------------------------------


def _walked_grids(monkeypatch) -> list:
    """(radius, points, walks) of every grid the smoothing walks sum on, recorded from transforms."""
    grids = []
    walk = transforms.walk_ladders

    def recorded(grid_sums, *args, **kwargs):
        def recording(grid, walks):
            grids.append((grid.radius, grid.points_per_axis, tuple(walks)))
            return grid_sums(grid, walks)

        return walk(recording, *args, **kwargs)

    monkeypatch.setattr(transforms, "walk_ladders", recorded)
    return grids


LADDER_CASES = {
    # (dim, bounded): (weierstrass scale, alphas, tol), so that the alphas walk at more than one
    # radius, stop on more than one rung, and share some grid
    (1, True): (0.1, (0.4, 0.1, 0.01, 0.002), 1e-8),
    (2, True): (0.1, (2.0, 0.1, 0.01), 1e-5),
    (1, False): (1.0, (0.4, 0.1, 0.01, 0.002), 1e-7),
    (2, False): (0.5, (0.4, 0.05, 0.002), 1e-4),
}


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim, bounded", list(LADDER_CASES))
def test_each_ladder_row_is_the_one_alpha_smoothing(monkeypatch, default_ladders, dim, bounded, complex_values):
    scale, alphas, tol = LADDER_CASES[dim, bounded]
    f = weierstrass_fn(scale, dim)
    if not bounded:
        f = TestFunction(f.f, dim, f.envelope, name="unbounded-weierstrass")
    if complex_values:
        f = f.scaled(1j)
    # 125 points in dim 1 end one row past a whole tile of a 129-node block
    xs = np.random.default_rng(dim).uniform(-3.0, 3.0, size=(125 if dim == 1 else 9, dim))
    grids = _walked_grids(monkeypatch)
    ladder = transforms.mollify_ladder(f, alphas, xs, tol)
    assert ladder.shape == (len(alphas), xs.shape[0]) and ladder.dtype == np.complex128
    assert len({r for r, _, _ in grids}) > 1
    last_rung = {i: n for _, n, walks in grids for i in walks}
    assert len(set(last_rung.values())) > 1
    assert max(len(walks) for _, _, walks in grids) > 1
    for alpha, row in zip(alphas, ladder):
        assert row.tobytes() == mollify_ladder(f, [alpha], xs, tol)[0].tobytes()


def test_a_ladder_row_does_not_depend_on_how_many_alphas_share_its_grid(monkeypatch, default_ladders):
    # three alphas walk on one 513 x 513 grid: its blocks are sized for one alpha's points, as a
    # one-alpha call's are, not for every alpha's together, which would split it and sum it in another order
    f = weierstrass_fn(0.005, 2)
    alphas = (0.5, 0.4, 0.3, 0.2)
    xs = np.random.default_rng(2).uniform(-1.0, 1.0, size=(9, 2))
    grids = _walked_grids(monkeypatch)
    ladder = transforms.mollify_ladder(f, alphas, xs, 1e-5)
    assert (6.0, 512, (0, 1, 2)) in grids
    for alpha, row in zip(alphas, ladder):
        assert row.tobytes() == mollify_ladder(f, [alpha], xs, 1e-5)[0].tobytes()


def _two_adic(value: float) -> int:
    """The exponent e of value = odd * 2**e (value nonzero)."""
    q = Fraction(value)
    return ((q.numerator & -q.numerator).bit_length() - 1) - (q.denominator.bit_length() - 1)


@pytest.mark.parametrize("count, on_lattice", [(7, False), (9, True)])
def test_a_ladder_evaluates_the_function_once_per_ladder_grid(monkeypatch, default_ladders, count, on_lattice):
    seen = []
    f = _counted(weierstrass_fn(0.1), seen)
    # 9 points in steps of 1/4 share a dyadic lattice with every ladder grid; 7 points in steps of 1/3 do not
    xs = np.linspace(-1.0, 1.0, count).reshape(-1, 1)
    alphas = (0.4, 0.2, 0.05, 0.01)
    grids = _walked_grids(monkeypatch)
    seen.clear()
    ladder = transforms.mollify_ladder(f, alphas, xs, 1e-8)
    shapes = [(r, n) for r, n, _ in grids]
    assert len(shapes) == len(set(shapes))  # no grid is walked twice
    if on_lattice:
        # one f per lattice point from x_min - r to x_max + r, in the finest power of two of the
        # points and the nodes, for each grid walked, whichever scales walk on it
        units = [2.0 ** min(_two_adic(1.0), _two_adic(0.25), _two_adic(r), _two_adic(2 * r / n)) for r, n in shapes]
        want = [int((2.0 + 2.0 * r) / unit) + 1 for (r, _), unit in zip(shapes, units)]
        assert all(w < count * (n + 1) for w, (_, n) in zip(want, shapes))
    else:
        # one f(x - u) per point and node of each grid walked, whichever scales walk on it
        want = [count * (n + 1) for _, n in shapes]
    assert sum(seen) == sum(want)
    one_at_a_time = []
    for alpha, row in zip(alphas, ladder):
        seen.clear()
        assert mollify_ladder(f, [alpha], xs, 1e-8)[0].tobytes() == row.tobytes()
        one_at_a_time.append(sum(seen))
    assert sum(want) < sum(one_at_a_time)


def test_a_dyadic_batch_reads_one_lattice_sampling_per_block(monkeypatch, default_ladders):
    # the 1,025 outer nodes of GridSpec(6, 1024, 1), spacing 3 2^-8, against the 129 nodes of rung
    # (4, 128), spacing 2^-4: every difference lies on 2^-8 Z within [-10, 10], 5,121 points
    monkeypatch.setattr(quadrature, "POINTS_LADDER", (128,))
    seen = []
    f = _counted(weierstrass_fn(0.05), seen)
    xs = GridSpec(6.0, 1024, 1).points()
    grids = _walked_grids(monkeypatch)
    seen.clear()
    lattice = transforms.mollify_ladder(f, [0.1], xs, 1e-2)
    assert [(r, n) for r, n, _ in grids] == [(4.0, 128)]
    assert sum(seen) == 5121
    seen.clear()
    monkeypatch.setattr(transforms, "_lattice_window", lambda *args: None)
    assert transforms.mollify_ladder(f, [0.1], xs, 1e-2).tobytes() == lattice.tobytes()
    assert sum(seen) == 1025 * 129


# -- smoothing on a shared dyadic lattice -------------------------------------


def _both_routes(monkeypatch, call) -> tuple:
    """call() through the lattice window, then with every window refused; and whether any window was read."""
    read = []
    window = transforms._lattice_window

    def recorded(*args):
        out = window(*args)
        read.append(out is not None)
        return out

    with monkeypatch.context() as m:
        m.setattr(transforms, "_lattice_window", recorded)
        lattice = call()
    with monkeypatch.context() as m:
        m.setattr(transforms, "_lattice_window", lambda *args: None)
        direct = call()
    return lattice, direct, any(read)


def _unbounded(f: TestFunction) -> TestFunction:
    """f declared without a sup bound, so it is smoothed on the integrable branch."""
    return TestFunction(f.f, f.dim, f.envelope, name=f"unbounded-{f.name}")


WINDOW_CASES = {
    # measures-d1's weak-convergence op: a density smoothed at every node of its outer grid
    "weak-shape": (lambda: weierstrass_fn(0.05), GridSpec(6.0, 1024, 1).points(), [0.2 * 2.0**-k for k in range(4)], 1e-8),
    # the outer grid of mollify_l1_check in the mollify experiment
    "l1-grid": (lambda: weierstrass_fn(0.1), GridSpec(8.0, 1024, 1).points(), [0.1], 1e-8),
    "integrable": (lambda: _unbounded(weierstrass_fn(0.1)), np.linspace(-2.0, 2.0, 257).reshape(-1, 1), [0.2, 0.05, 0.01], 1e-8),
    "complex": (lambda: weierstrass_fn(0.05).scaled(1j), GridSpec(6.0, 1024, 1).points(), [0.2, 0.025], 1e-8),
    "complex-integrable": (lambda: _unbounded(weierstrass_fn(0.1)).scaled(1j), np.linspace(-2.0, 2.0, 65).reshape(-1, 1), [0.1], 1e-8),
}


@pytest.mark.parametrize("case", list(WINDOW_CASES))
def test_the_lattice_window_keeps_every_bit_of_the_direct_route(monkeypatch, default_ladders, case):
    make, xs, alphas, tol = WINDOW_CASES[case]
    f = make()
    lattice, direct, read = _both_routes(monkeypatch, lambda: transforms.mollify_ladder(f, alphas, xs, tol))
    assert read
    assert lattice.tobytes() == direct.tobytes()


@pytest.mark.parametrize("case", ["weak-shape", "integrable", "complex"])
def test_per_point_walks_on_the_lattice_keep_every_bit(monkeypatch, default_ladders, case):
    make, _, alphas, tol = WINDOW_CASES[case]
    f, xs = make(), np.linspace(-2.0, 2.0, 33).reshape(-1, 1)
    lattice, direct, read = _both_routes(monkeypatch, lambda: transforms._mollify_walks(f, alphas, xs, tol, per_point=True))
    assert read
    assert lattice.tobytes() == direct.tobytes()


def test_the_l1_check_on_the_lattice_keeps_every_bit(monkeypatch, default_ladders):
    f, grid = weierstrass_fn(0.1), GridSpec(8.0, 1024, 1)
    lattice, direct, read = _both_routes(monkeypatch, lambda: transforms.mollify_l1_check(f, 0.1, grid))
    assert read
    assert lattice == direct


@pytest.mark.parametrize(
    "xs, nodes",
    [
        (np.linspace(-3.0, 3.0, 49), np.linspace(-4.0, 4.0, 129)),  # steps 1/8 and 1/16
        (np.full(5, 0.375), np.linspace(-6.0, 6.0, 257)),  # one point five times: step 0
        (np.linspace(-1.5, 2.25, 11), np.linspace(-6.0, 6.0, 129)),  # steps 3/8 and 3/32
        (np.linspace(-0.75, 0.0, 4), np.linspace(1.0, 2.0, 9)),  # points below the nodes, steps 1/4 and 1/8
    ],
)
def test_a_lattice_window_is_the_direct_matrix(xs, nodes):
    f = weierstrass_fn(0.3).scaled(1.0 - 2.0j)
    xs, nodes = xs.reshape(-1, 1), nodes.reshape(-1, 1)
    window = quadrature._lattice_window(f, xs, nodes, {})
    assert window is not None and window.shape == (xs.shape[0], nodes.shape[0])
    direct = f((xs[:, None, :] - nodes[None, :, :]).reshape(-1, 1)).reshape(window.shape)
    assert np.ascontiguousarray(window).tobytes() == direct.tobytes()


@pytest.mark.parametrize(
    "xs, nodes, why",
    [
        (np.linspace(-2.0, 2.0, 41), np.linspace(-4.0, 4.0, 129), "steps of 0.1 are not a dyadic lattice"),
        (np.array([0.0, 0.25, 0.75, 1.0]), np.linspace(-4.0, 4.0, 129), "dyadic points that are not a progression"),
        (np.linspace(1.0, 0.0, 5), np.linspace(-4.0, 4.0, 129), "a decreasing progression"),
        (np.array([0.5]), np.linspace(-4.0, 4.0, 129), "one point: no fewer lattice points than pairs"),
        (np.array([-0.0, 0.25]), np.linspace(-4.0, 4.0, 129), "a point at -0.0"),
        (np.array([0.0, np.inf]), np.linspace(-4.0, 4.0, 129), "a non-finite point"),
        (np.array([0.0, 2.0**60]), np.linspace(-4.0, 4.0, 129), "a coordinate above 2^52"),
    ],
)
def test_off_a_lattice_no_window_is_read_and_nothing_is_evaluated(xs, nodes, why):
    seen = []
    f = _counted(weierstrass_fn(0.1), seen)
    seen.clear()
    assert quadrature._lattice_window(f, xs.reshape(-1, 1), nodes.reshape(-1, 1), {}) is None, why
    assert seen == []


def test_a_lattice_over_the_block_cap_is_not_sampled(monkeypatch):
    seen = []
    f = _counted(weierstrass_fn(0.1), seen)
    xs, nodes = GridSpec(6.0, 1024, 1).points(), GridSpec(4.0, 128, 1).points()  # a lattice of 5,121 points
    seen.clear()
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 5120)
    assert quadrature._lattice_window(f, xs, nodes, {}) is None and seen == []
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 5121)
    assert quadrature._lattice_window(f, xs, nodes, {}) is not None and seen == [5121]


def test_a_lattice_sampling_is_kept_until_another_lattice_is_met():
    seen = []
    f = _counted(weierstrass_fn(0.1), seen)
    xs = GridSpec(6.0, 1024, 1).points()
    coarse, fine, other = (GridSpec(r, n, 1).points() for r, n in ((4.0, 128), (4.0, 256), (6.0, 128)))
    sampled = {}
    seen.clear()
    for nodes in (coarse, fine, other, coarse):
        assert quadrature._lattice_window(f, xs, nodes, sampled) is not None and len(sampled) == 1
    # rungs (4, 128) and (4, 256) meet one 5,121-point lattice with these points; rung (6, 128) another
    assert seen == [5121, 6145, 5121]


def test_dim_2_smoothing_keeps_the_direct_route(monkeypatch, default_ladders):
    seen = []
    f = _counted(weierstrass_fn(0.1, 2), seen)
    grid = GridSpec(2.0, 4, 2)
    seen.clear()
    assert quadrature._lattice_window(f, grid.points(), GridSpec(4.0, 8, 2).points(), {}) is None and seen == []
    lattice, direct, read = _both_routes(monkeypatch, lambda: transforms.mollify_ladder(f, [0.2], grid.points(), 1e-2))
    assert not read and lattice.tobytes() == direct.tobytes()


def test_a_ladder_raises_the_one_alpha_error(default_ladders):
    f, xs = weierstrass_fn(0.1), np.zeros((1, 1))
    # at alpha 5000 the kernel's tail stays above the tolerance at every radius of the ladder
    with pytest.raises(QuadratureError) as alone:
        mollify_ladder(f, [5000.0], xs, 1e-8)
    for alphas in ((5000.0, 0.1), (0.1, 5000.0)):
        with pytest.raises(QuadratureError) as ladder:
            transforms.mollify_ladder(f, alphas, xs, 1e-8)
        assert str(ladder.value) == str(alone.value)


def _assert_the_one_alpha_pairings(measure, h, alphas, grid, tol):
    samples = weak_convergence_trace(measure, h, alphas, grid, tol)
    target = measure.apply(h, tol)
    for sample, alpha in zip(samples, alphas):
        # the pairing of one alpha, written out: the measure smoothed at that scale alone, times h
        peak = transforms.weierstrass_peak(transforms.KernelScale(alpha, grid.dim))
        envelope = h.envelope.scaled(measure.bound * peak * (1.0 + 1e-9) + quadrature._TINY)
        want, _ = integrate_values(
            lambda pts, alpha=alpha: measure.mollify_on_points(alpha, pts, tol) * h(pts), envelope, grid.dim, "one", grid=grid
        )
        got = np.array([sample.value, sample.target])
        assert sample.alpha == alpha
        assert got.tobytes() == np.array([want.value, target]).tobytes()


@pytest.mark.parametrize("density", [True, False])
@pytest.mark.parametrize("dim", [1, 2])
def test_weak_convergence_is_the_one_alpha_pairing_bit_for_bit(monkeypatch, dim, density):
    if dim == 1:
        # the outer grid is one block
        atoms, grid, tol = (Atom((0.05,), 0.7), Atom((-0.3,), 0.2 - 0.1j)), GridSpec(6.0, 256, 1), 1e-8
    else:
        # outer blocks of 6 leading-axis rows: each block is smoothed once for every alpha
        monkeypatch.setattr(quadrature, "_CHUNK", 6 * 17)
        atoms, grid, tol = (Atom((0.1, 0.0), 1.0 + 0.5j), Atom((-0.2, 0.3), -0.4)), GridSpec(4.0, 16, 2), 1e-2
    measure = BoundedMeasure(dim=dim, atoms=atoms, density=gauss_fn(0.1, dim) if density else None)
    _assert_the_one_alpha_pairings(measure, gauss_fn(1.0, dim), (0.2, 0.05, 0.01), grid, tol)


def test_weak_convergence_on_a_large_dim_2_block_is_the_one_alpha_pairing_bit_for_bit():
    # one outer block of 129^2 complex rows (266 KB), above the 256 KB at which numpy may multiply a
    # temporary in place, where a complex multiply can round differently: each alpha's row, a view
    # into the block's smoothed rows, is multiplied by h as the one-alpha pairing's row is
    measure = BoundedMeasure(dim=2, atoms=(Atom((0.1, 0.0), 1.0 + 0.5j), Atom((-0.2, 0.3), -0.4)))
    _assert_the_one_alpha_pairings(measure, gauss_fn(1.0, 2), (0.2, 0.05, 0.01), GridSpec(4.0, 128, 2), 1e-2)


def test_a_budget_below_every_rung_names_the_budget(monkeypatch, default_ladders):
    f = weierstrass_fn(0.1)
    monkeypatch.setenv("HEATLINE_BUDGET", "64")
    reason = r"the node budget \(64 nodes\) admits no rung of the point ladder$"
    with pytest.raises(QuadratureError, match=r"for 'weierstrass:0\.1': " + reason):
        integrate_auto(f, 1e-8)
    with pytest.raises(QuadratureError, match=r"for 'mollify\[weierstrass:0\.1\]': " + reason):
        transforms.mollify_ladder(f, (0.2, 0.1), np.zeros((1, 1)), 1e-8)


def test_a_phase_cap_above_the_ladder_names_the_phase(default_ladders):
    # 8 x radius 4 x rate 1e4 points per axis: more than the ladder's last rung, which the budget admits
    with pytest.raises(QuadratureError, match="phase cap exceeds the point ladder"):
        integrate_auto(weierstrass_fn(0.1), 1e-8, phase_rate=1e4)


# -- one ladder call per kernel-pair table -----------------------------------


def _assert_each_case_is_its_own_profile(cases: list, xi: np.ndarray, tol: float) -> None:
    for (f, inverse), row in zip(cases, transforms._profile_table(cases, xi, tol), strict=True):
        alone = np.array([s.value for s in fourier_profile(f, xi, tol, inverse)])
        assert row.tobytes() == alone.tobytes(), (f.name, inverse)


@pytest.mark.parametrize("dim, tol", [(1, 1e-8), (2, 1e-5), (3, 1e-3)])
def test_each_case_of_a_transform_table_is_its_own_fourier_profile(default_ladders, dim, tol):
    # bump is unfactored in dims 2-3: its cases take the block loop, beside the factored cases' per-axis rows
    fs = [parse_preset(preset, dim) for preset in ("gauss:0.1", "weierstrass:0.05", "bump:1")]
    xi = GridSpec(1.0, 4, 1).nodes[:: 2 if dim == 3 else 1]  # [-1, -0.5, 0, 0.5, 1], or [-1, 0, 1] in dim 3
    lattice = np.stack(np.meshgrid(*[xi] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    _assert_each_case_is_its_own_profile([(f, inverse) for f in fs for inverse in (False, True)], lattice, tol)


def test_a_table_whose_functions_sit_on_different_radii_is_each_profile(default_ladders):
    gauss_alpha, weierstrass_alpha = gauss_fn(0.5), weierstrass_fn(0.5)
    xi = np.linspace(-2.0, 2.0, 41).reshape(-1, 1)
    cases = [(gauss_alpha, False), (weierstrass_alpha, False), (gauss_alpha, True), (weierstrass_alpha, True)]
    # each walk alone: gauss:0.5 on radius 4, weierstrass:0.5 on radius 6
    radii = [quadrature.truncation_radius(f.envelope, 1, 1e-6, f.name) for f, _ in cases[:2]]
    assert radii == [4.0, 6.0]
    _assert_each_case_is_its_own_profile(cases, xi, 1e-6)


@pytest.mark.parametrize("dim", [1, 2])
def test_a_table_over_several_phase_chunks_is_each_profile(monkeypatch, default_ladders, dim):
    monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1 << 14)  # chunks of 16 frequencies on the 129-node rung
    if dim == 1:
        xi = np.linspace(-2.0, 2.0, 41).reshape(-1, 1)
    else:
        axis = np.linspace(-2.0, 2.0, 5)
        xi = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    fs = [gauss_fn(0.1, dim), bump_fn(1.0, dim)]
    _assert_each_case_is_its_own_profile([(f, inverse) for f in fs for inverse in (True, False)], xi, 1e-5)


def _conjugated(values) -> quadrature._Integrand:
    """conj(values(x)) as an integrand, with conjugated factors when values declares factors (so it takes the same route)."""
    factors = getattr(values, "factors", None)
    if factors is not None:
        factors = tuple(lambda x, f_j=f_j: np.conjugate(f_j(x)) for f_j in factors)
    return quadrature._Integrand(lambda pts: np.conjugate(values(pts)), factors, "conj")


SIGN_CASES = {
    "factored-real": lambda dim: gauss_fn(0.1, dim),
    "factored-complex": lambda dim: weierstrass_fn(0.1, dim).shifted(np.array([0.3, -0.2, 0.1])[:dim]).scaled(0.5 - 0.25j),
    "unfactored-real": lambda dim: bump_fn(1.0, dim),  # the block loop in dims 2-3
    "unfactored-complex": lambda dim: _skewed_gaussian,
}


@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "chunked"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(SIGN_CASES))
def test_an_inverse_phase_sum_is_the_conjugate_of_the_forward_sum_of_the_conjugate(monkeypatch, case, dim, chunked):
    if chunked:
        # chunks of 4 frequencies and blocks of at most 2^14 nodes on the 33-node axes
        monkeypatch.setattr(quadrature, "_BLOCK_ENTRIES", 1 << 14)
    grid = GridSpec(4.0, 32, dim)
    axis = np.array([-1.0, -0.0, 0.0, 0.5])
    lattice = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    xi = np.concatenate([_frequencies(dim), lattice])
    values = SIGN_CASES[case](dim)
    inverse = grid.phase_sum(values, xi, 1.0)
    assert np.array_equal(inverse, np.conjugate(grid.phase_sum(_conjugated(values), xi, -1.0)))
    # and the direct sum, with cis(+2 pi x xi) matrices, to rounding
    assert np.max(np.abs(inverse - _block_phase_sum(grid, values, xi, 1.0))) <= 1e-14


def test_walks_that_wait_for_a_later_rung_join_after_the_walks_going(monkeypatch, default_ladders):
    calls = []
    phase_sums = transforms._phase_sums

    def recorded(values, xi):
        grid_sums = phase_sums(values, xi)

        def recording(grid, walks):
            calls.append((grid.radius, grid.points_per_axis, list(walks)))
            return grid_sums(grid, walks)

        return recording

    monkeypatch.setattr(transforms, "_phase_sums", recorded)
    xi = np.linspace(-6.0, 6.0, 21).reshape(-1, 1)
    transforms._fourier_rows(gauss_fn(0.1), xi, 1e-8)
    # at radius 4 a row's phase cap is 8 x 4 x |xi| points, so the rows with |xi| > 4 wait for rung 256
    waiting = [i for i in range(21) if 32.0 * abs(xi[i, 0]) > 128.0]
    assert waiting == [0, 1, 2, 3, 17, 18, 19, 20]
    (radius, n, first), (_, later, second) = calls[:2]
    assert (radius, n, later) == (4.0, 128, 256)
    assert first == [i for i in range(21) if i not in waiting]
    going = [i for i in first if i in second]
    assert going and second == going + waiting  # the joiners follow the walks going, each group in index order


@pytest.mark.parametrize("dim, apart_entries", [(1, 38376), (2, 3108), (3, 4662)])
def test_a_default_verify_kernels_run_shares_phases_and_rows(monkeypatch, default_ladders, dim, apart_entries):
    entries, rows = [], []

    def counted(theta):
        entries.append(np.size(theta))
        return cis(theta)

    weighted_factors = GridSpec.weighted_factors

    def recorded(grid, values):
        rows.append((grid, getattr(values, "name", None)))
        return weighted_factors(grid, values)

    monkeypatch.setattr(quadrature, "cis", counted)
    monkeypatch.setattr(GridSpec, "weighted_factors", recorded)
    run(ExperimentSpec("verify-kernels", dim))
    # four separate fourier_profile walks per alpha, each building its own phase matrices, computed apart_entries
    assert sum(entries) <= apart_entries // 2
    # each kernel's rows once per grid it walks, for its forward and its inverse case
    kernels = [row for row in rows if row[1] is not None and row[1].startswith(("gauss:", "weierstrass:"))]
    assert kernels and len(kernels) == len(set(kernels))
