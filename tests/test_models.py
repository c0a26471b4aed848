import contextlib
import functools
import json
import logging
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fnspace import models
from fnspace.activation import sigma_k, sigma_k_prime, spectrum
from fnspace.errors import ConfigurationError, ContractError, PrecisionError
from fnspace.harmonics import PROJECT_MARGIN, harmonic_block, project, reference_grid
from fnspace.harness import ExperimentConfig, domain_grid, get_target, run_randcmp
from fnspace.models import (
    BLOCK_FLOATS,
    FiniteNeuronModel,
    Grid,
    TargetFunction,
    _block_rows,
    _design_blocks,
    _monomials,
    _polynomial_block,
    coef_stat,
    constructive_fit,
    error_norms,
    features,
    least_squares_fit,
    ridge_bisect_cap,
)
from fnspace.pde_erm import disk_problem, midpoint_grid
from fnspace.quadrature import build_rule
from fnspace.sphere import PointSet, generate_points


def circle_setup(n=64, k=1, d=1):
    ps = generate_points(d, n, "equispaced_circle")
    rule = build_rule(ps, n - 1)
    spec = spectrum(d, k, rule.J + 4)
    grid = reference_grid(d, max(2 * rule.J + 8, 512))
    return ps, rule, spec, grid


def test_constructive_single_harmonic():
    ps, rule, spec, grid = circle_setup()
    m0, ell0 = 4, 1  # even degree in the support of ReLU^1

    def g(eta):
        return harmonic_block(1, m0, np.atleast_2d(eta))[ell0 - 1]

    target = TargetFunction("harmonic", 1, g, on_sphere=True, parity=1)
    model = constructive_fit(target, rule, spec, grid)
    dense = reference_grid(1, 4096)
    coeffs, _ = project(dense, model(dense.nodes), m0)
    assert coeffs[ell0 - 1] == pytest.approx(1.0, abs=1e-6)


def test_constructive_zero_target():
    ps, rule, spec, grid = circle_setup()
    target = TargetFunction(
        "zero", 1, lambda eta: np.zeros(len(np.atleast_2d(eta))),
        on_sphere=True, parity=1,
    )
    model = constructive_fit(target, rule, spec, grid)
    np.testing.assert_allclose(model.a, 0.0, atol=1e-14)


def test_constructive_fit_needs_one_sphere():
    """A spectrum or grid of S^2 with a rule on the circle is a ContractError."""
    ps, rule, spec, grid = circle_setup()
    target = TargetFunction("zero", 1, lambda eta: np.zeros(len(np.atleast_2d(eta))), on_sphere=True, parity=1)
    for args in ((spectrum(2, 1, spec.m_max), grid), (spec, reference_grid(2, grid.degree))):
        with pytest.raises(ContractError, match="S\\^2"):
            constructive_fit(target, rule, *args)


def test_constructive_parity_mismatch():
    ps, rule, spec, grid = circle_setup()
    target = TargetFunction(
        "odd", 1, lambda eta: np.atleast_2d(eta)[:, 0], on_sphere=True, parity=-1
    )
    with pytest.raises(ContractError):
        constructive_fit(target, rule, spec, grid)


def test_constructive_rule_too_coarse():
    ps = generate_points(1, 4, "equispaced_circle")
    rule = build_rule(ps, 3)  # J=1 < k+1
    spec = spectrum(1, 1, 10)
    grid = reference_grid(1, 64)
    target = TargetFunction(
        "one", 1, lambda eta: np.ones(len(np.atleast_2d(eta))),
        on_sphere=True, parity=1,
    )
    with pytest.raises(ContractError):
        constructive_fit(target, rule, spec, grid)


def _constructive_reference(g, rule, spec, grid):
    """constructive_fit's coefficients as one project call per support degree."""
    samples = g(grid.nodes)
    acc = np.zeros(rule.ps.n)
    for m in spec.support_degrees(hi=rule.J):
        _, proj = project(grid, samples, int(m))
        acc += proj(rule.ps.points) / spec.coefficient(int(m))
    return rule.weights * acc


def _s2_setup(n, strategy):
    """The constructive_ball_s2 workload's rule, spectrum (k = 1) and grid."""
    ps = generate_points(2, n, strategy, seed=3)
    rule = build_rule(ps, 2 * math.isqrt(n))
    return ps, rule, spectrum(2, 1, rule.J + 4), reference_grid(2, max(2 * rule.J + 8, 64))


def _s2_even_target():
    def g(eta):
        eta = np.atleast_2d(eta)
        return np.exp(eta[:, 0] ** 2 - eta[:, 1] * eta[:, 2])

    return TargetFunction("even", 2, g, on_sphere=True, parity=1)


@pytest.mark.parametrize("case", ["circle16", "circle256", "fibonacci_s2", "uniform_random"])
def test_constructive_fit_matches_per_degree_projections(case):
    if case.startswith("circle"):
        _, rule, spec, grid = circle_setup(int(case[6:]))
        target = get_target("smooth_even_circle", 1)
    else:
        _, rule, spec, grid = _s2_setup(200, case)
        target = _s2_even_target()
    got = constructive_fit(target, rule, spec, grid).a
    want = _constructive_reference(target, rule, spec, grid)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("d", [1, 2])
def test_constructive_grid_exactness_check(d):
    """The grid must be exact to degree 2 max(support) + PROJECT_MARGIN."""
    _, rule, spec, _ = circle_setup(32) if d == 1 else _s2_setup(200, "fibonacci_s2")
    target = get_target("smooth_even_circle", 1) if d == 1 else _s2_even_target()
    top = 2 * int(spec.support_degrees(hi=rule.J)[-1]) + PROJECT_MARGIN
    with pytest.raises(PrecisionError):
        constructive_fit(target, rule, spec, reference_grid(d, top - 1))
    constructive_fit(target, rule, spec, reference_grid(d, top))


def domain_grid_1d(n=512):
    return midpoint_grid(-1.0, 1.0, n)[:, None], np.full(n, 1.0 / n)


def test_ls_representable_target():
    ps = generate_points(1, 8, "equispaced_circle")
    theta0 = ps.points[0]

    def f(x):
        xt = np.column_stack([np.atleast_2d(x), np.ones(len(np.atleast_2d(x)))])
        return np.maximum(xt @ theta0, 0.0) ** 2

    target = TargetFunction("in_span", 1, f)
    pts, w = domain_grid_1d()
    model = least_squares_fit(target, ps, Grid(pts, w), k=2)
    l2, _ = error_norms(model, target, Grid(pts, w), s=0)
    assert l2 <= 1e-8


def test_ls_zero_target():
    ps = generate_points(1, 8, "equispaced_circle")
    target = TargetFunction("zero", 1, lambda x: np.zeros(len(np.atleast_2d(x))))
    pts, w = domain_grid_1d()
    model = least_squares_fit(target, ps, Grid(pts, w), k=2)
    np.testing.assert_allclose(model.a, 0.0, atol=1e-12)


def test_ls_norm_cap_binds():
    ps = generate_points(1, 16, "equispaced_circle")

    def f(x):
        return np.cos(math.pi * np.atleast_2d(x)[:, 0])

    target = TargetFunction("cos", 1, f)
    pts, w = domain_grid_1d()
    free = least_squares_fit(target, ps, Grid(pts, w), k=2)
    free_norm = coef_stat(free)[1]
    M = free_norm / 10.0
    capped = least_squares_fit(target, ps, Grid(pts, w), k=2, norm_cap=M)
    assert coef_stat(capped)[1] <= M * (1.0 + 1e-6)
    assert coef_stat(capped)[1] >= M * (1.0 - 1e-3)


@pytest.mark.parametrize("bad", [{"ridge": -1e-3}, {"norm_cap": -5.0}, {"ridge": math.nan}, {"norm_cap": math.nan}],
                         ids=["ridge", "norm_cap", "nan_ridge", "nan_norm_cap"])
def test_ls_rejects_a_negative_ridge_or_cap(bad):
    target = TargetFunction("zero", 1, lambda x: np.zeros(len(np.atleast_2d(x))))
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        least_squares_fit(target, generate_points(1, 8, "equispaced_circle"), Grid(*domain_grid_1d()), k=2, **bad)


def test_model_cap_invariant():
    ps = generate_points(1, 4, "equispaced_circle")
    with pytest.raises(ContractError):
        FiniteNeuronModel(1, ps, np.ones(4), norm_cap=1.0)
    for cap in (-1.0, float("nan")):
        with pytest.raises(ConfigurationError, match="norm_cap must be >= 0"):
            FiniteNeuronModel(1, ps, np.ones(4), norm_cap=cap)
    assert FiniteNeuronModel(1, ps, np.ones(4), norm_cap=0.0).norm_cap == 0.0
    assert FiniteNeuronModel(1, ps, np.ones(4), norm_cap=4.0).norm_cap == 4.0  # sqrt(4) * 2, on the cap


def test_model_rejects_non_finite_coefficients():
    ps = generate_points(1, 4, "equispaced_circle")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractError, match="finite"):
            FiniteNeuronModel(1, ps, np.array([1.0, bad, 0.0, 0.0]))


@pytest.mark.parametrize("bad", ["short", "negative", "nan", "inf", "column"])
def test_grid_weights_are_checked(bad):
    """Weights one short raised numpy's ValueError, and weights -w gave a
    model of NaN coefficients; each is a ContractError now."""
    target = get_target("gaussian_bump", 2)
    ps = generate_points(2, 16, "fibonacci_s2")
    pts, w = domain_grid(2, 4096)
    weights = {"short": w[:-1], "negative": -w, "nan": np.where(np.arange(len(w)) == 7, math.nan, w),
               "inf": np.where(np.arange(len(w)) == 7, math.inf, w), "column": w[:, None]}[bad]
    with pytest.raises(ContractError, match="grid weights"):
        least_squares_fit(target, ps, Grid(pts, weights), k=1, ridge=1e-9)
    model = least_squares_fit(target, ps, Grid(pts, w), k=1, ridge=1e-9)
    for s in (0, 1):
        with pytest.raises(ContractError, match="grid weights"):
            error_norms(model, target, Grid(pts, weights), s=s)


@pytest.mark.parametrize("ridge", [0.0, 1e-9], ids=["lstsq", "ridge"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_grid_points_are_rejected(bad, ridge, monkeypatch):
    """A grid row with a NaN or infinite coordinate is a ContractError that
    names the grid, raised when the Grid is made, before anything is tiled:
    it gave "SVD did not converge" without a ridge and "coefficients must
    be finite" with one."""
    target = get_target("gaussian_bump", 2)
    ps = generate_points(2, 16, "fibonacci_s2")
    pts, w = domain_grid(2, 4096)
    pts = pts.copy()
    pts[7, 1] = bad
    trees = _count_trees(monkeypatch)
    with pytest.raises(ContractError, match="grid points must be finite"):
        least_squares_fit(target, ps, Grid(pts, w), k=1, ridge=ridge)
    assert not trees


def _pairs(points, weights):
    """The (point, weight) rows of a grid, sorted: equal for two grids that
    hold the same pairs, in whatever order."""
    rows = np.column_stack([points, weights])
    return rows[np.lexsort(rows.T[::-1])]


def _count_trees(monkeypatch):
    """A list that gains an entry for each kd-tree models builds from here on."""
    trees, tree = [], models.cKDTree

    def counting(*args, **kwargs):
        trees.append(len(args[0]))
        return tree(*args, **kwargs)

    monkeypatch.setattr(models, "cKDTree", counting)
    return trees


def test_inputs_of_the_wrong_width_are_rejected():
    ps = generate_points(2, 4, "fibonacci_s2")
    with pytest.raises(ContractError):
        features(ps, 1, np.zeros((5, 4)))
    sphere_pts = generate_points(2, 16, "fibonacci_s2").points
    with pytest.raises(ContractError, match="components"):
        least_squares_fit(get_target("gaussian_bump", 2), ps, Grid(sphere_pts, np.full(16, 1.0 / 16)))


@pytest.mark.parametrize("grid", [
    domain_grid_1d(32),
    domain_grid_1d(32)[0],
    list(domain_grid_1d(32)),
])
def test_a_grid_that_is_not_a_grid_is_rejected(grid):
    """least_squares_fit and error_norms take a Grid: (points, weights) as
    a tuple or a list, or the points alone, is a ContractError."""
    ps = generate_points(1, 4, "equispaced_circle")
    target = get_target("gaussian_bump", 1)
    with pytest.raises(ContractError, match="models.Grid"):
        least_squares_fit(target, ps, grid, ridge=1e-9)
    with pytest.raises(ContractError, match="models.Grid"):
        error_norms(FiniteNeuronModel(1, ps, np.ones(4)), target, grid, s=1)


def test_grid_keeps_the_tables_of_the_last_three_functions():
    """Grid.tabulate keeps one table for each of the last three functions
    asked, a function asked again counting as the last: a fourth function
    drops the least recently asked, whose table is then computed anew."""
    grid = Grid(*domain_grid_1d(64))
    calls = []

    def tracked(name):
        def fn(x):
            calls.append(name)
            return np.full(len(x), float(len(name)))
        return fn

    f, g, h, u = (tracked(name) for name in ("f", "gg", "hhh", "uuuu"))
    tables = {fn: grid.tabulate(fn) for fn in (f, g, h)}
    assert grid.tabulate(f) is tables[f]  # f is now the last asked
    grid.tabulate(u)  # drops g, the least recently asked
    assert grid.tabulate(f) is tables[f] and grid.tabulate(h) is tables[h]
    assert calls == ["f", "gg", "hhh", "uuuu"] and len(vars(grid)["_tables"]) == 3
    assert grid.tabulate(g) is not tables[g] and calls[-1] == "gg"
    assert np.array_equal(grid.tabulate(g), tables[g])


def test_single_ridge_value_and_gradient():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ps = PointSet(pts)
    model = FiniteNeuronModel(2, ps, np.array([1.0, 0.0]))
    x = np.array([0.5, 0.3])
    assert model(x) == pytest.approx(0.25)
    np.testing.assert_allclose(model.gradient(x), [1.0, 0.0], atol=1e-12)


def test_dead_zone():
    pts = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
    ps = PointSet(pts)
    model = FiniteNeuronModel(2, ps, np.array([1.0, 1.0]))
    x = np.array([-2.0])
    assert model(x) == 0.0
    np.testing.assert_allclose(model.gradient(x), [0.0])


def test_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(13))
    for d in (1, 2):
        for k in (1, 2, 3):
            ps = generate_points(d, 20, "uniform_random", seed=10 * d + k)
            model = FiniteNeuronModel(k, ps, rng.standard_normal(20))
            for _ in range(10):
                x = rng.uniform(-0.9, 0.9, d)
                grad = model.gradient(x)
                fd = np.empty(d)
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = 1e-5
                    fd[i] = (model(x + e) - model(x - e)) / 2e-5
                denom = max(np.linalg.norm(fd), 1e-8)
                assert np.max(np.abs(grad - fd)) / denom < 1e-6


def test_gradient_k0_unsupported():
    ps = generate_points(1, 4, "equispaced_circle")
    model = FiniteNeuronModel(0, ps, np.ones(4))
    with pytest.raises(ContractError):
        model.gradient(np.array([0.0]))


def test_error_norms_self_and_grid_consistency():
    ps = generate_points(2, 32, "fibonacci_s2")
    rng = np.random.Generator(np.random.Philox(2))
    model = FiniteNeuronModel(1, ps, 0.1 * rng.standard_normal(32))
    target = TargetFunction(
        "zero", 2, lambda x: np.zeros(len(np.atleast_2d(x))),
        grad=lambda x: np.zeros((len(np.atleast_2d(x)), 2)),
    )
    grids = []
    for n_r in (60, 120):
        r, wr = np.polynomial.legendre.leggauss(n_r)
        r = (r + 1.0) / 2.0
        t = 2.0 * math.pi * (np.arange(256) + 0.5) / 256
        R, T = np.meshgrid(r, t, indexing="ij")
        pts = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
        w = np.repeat(wr / 2.0 * r, 256) / 256
        grids.append((pts, w / w.sum()))
    l2a, h1a = error_norms(model, target, Grid(*grids[0]), s=1)
    l2b, h1b = error_norms(model, target, Grid(*grids[1]), s=1)
    assert abs(l2a - l2b) / l2b < 0.01
    assert h1a >= 0.0 and h1b >= 0.0


def test_error_norms_missing_gradient():
    ps = generate_points(1, 4, "equispaced_circle")
    model = FiniteNeuronModel(1, ps, np.ones(4))
    target = TargetFunction("nograd", 1, lambda x: np.zeros(len(np.atleast_2d(x))))
    pts, w = domain_grid_1d(32)
    with pytest.raises(ContractError):
        error_norms(model, target, Grid(pts, w), s=1)


def test_coef_stat_values():
    ps = generate_points(1, 4, "equispaced_circle")
    model = FiniteNeuronModel(1, ps, np.ones(4))
    assert coef_stat(model) == pytest.approx((2.0, 4.0, 4.0))
    zero = FiniteNeuronModel(1, ps, np.zeros(4))
    assert coef_stat(zero) == (0.0, 0.0, 0.0)


def test_ls_no_worse_than_constructive_on_sphere():
    ps, rule, spec, grid = circle_setup(n=32)

    def g(eta):
        phi = np.arctan2(np.atleast_2d(eta)[:, 1], np.atleast_2d(eta)[:, 0])
        return np.exp(np.sin(2.0 * phi))

    target = TargetFunction("smooth", 1, g, on_sphere=True, parity=1)
    cons = constructive_fit(target, rule, spec, grid)
    ls = least_squares_fit(target, ps, Grid(grid.nodes, grid.weights), k=1)
    err_cons = math.sqrt(float(grid.weights @ (cons(grid.nodes) - g(grid.nodes)) ** 2))
    err_ls = math.sqrt(float(grid.weights @ (ls(grid.nodes) - g(grid.nodes)) ** 2))
    assert err_ls <= err_cons + 1e-12


# A small float budget puts block boundaries a few dozen rows apart: at
# B = budget // n rows for an n-neuron evaluation, and for a least-squares
# design of at most 15 columns at budget // (cols + 1) rows, where the QR
# fold of the widest takes more than one block.
SMALL_BLOCK_FLOATS = 1 << 9
OFFSETS = ["B-1", "B", "B+1", "2B+3"]


def _offset_rows(offset, B):
    return {"1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "2B+3": 2 * B + 3}[offset]


@settings(max_examples=60, deadline=None)
@given(
    offset=st.sampled_from(["1", *OFFSETS]),
    k=st.integers(0, 3),
    d=st.integers(1, 2),
    n=st.integers(1, 12),
    on_sphere=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_evaluation_matches_one_shot(offset, k, d, n, on_sphere, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.standard_normal((n, d + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ps = PointSet(pts)
    a = rng.standard_normal(n)
    model = FiniteNeuronModel(k, ps, a, on_sphere=on_sphere)
    rows = _offset_rows(offset, SMALL_BLOCK_FLOATS // n)
    x = rng.uniform(-1.5, 1.5, (rows, d + 1 if on_sphere else d))
    xt = x if on_sphere else np.column_stack([x, np.ones(rows)])
    z = xt @ pts.T
    scale = np.abs(sigma_k(k, z)) @ np.abs(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "BLOCK_FLOATS", SMALL_BLOCK_FLOATS)
        assert np.all(np.abs(model(x) - sigma_k(k, z) @ a) <= 1e-13 * scale)
        if k >= 1 and not on_sphere:
            want = (sigma_k_prime(k, z) * a) @ pts[:, :d]
            gscale = (np.abs(sigma_k_prime(k, z)) @ np.abs(a))[:, None]
            assert np.all(np.abs(model.gradient(x) - want) <= 1e-13 * gscale)
    assert np.array_equal(features(ps, k, x), sigma_k(k, z))
    if k >= 1:
        phi, dphi = features(ps, k, x, grad=True)
        assert np.array_equal(phi, sigma_k(k, z)) and np.array_equal(dphi, sigma_k_prime(k, z))


def _evaluate_reference(model, x, grad, B):
    """FiniteNeuronModel._evaluate as written with sigma_k' and sigma_k each
    taken from z, sigma_k' in a second buffer, over blocks of B rows of the
    whole lifted input: the bit reference."""
    xt = x if model.on_sphere else np.column_stack([x, np.ones(len(x))])
    rows = len(xt)
    values = np.empty(rows)
    grads = np.empty((rows, model.d)) if grad else None
    aw = model.a[:, None] * model.ps.points[:, : model.d]
    z_buf = np.empty((min(rows, B), model.n))
    dz_buf = np.empty_like(z_buf)
    for lo in range(0, rows, B):
        hi = min(lo + B, rows)
        z = np.matmul(xt[lo:hi], model.ps.points.T, out=z_buf[: hi - lo])
        if grad:
            grads[lo:hi] = sigma_k_prime(model.k, z, out=dz_buf[: hi - lo]) @ aw
        values[lo:hi] = sigma_k(model.k, z, out=z) @ model.a
    return values, grads


def _assert_bits_equal(got, want):
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=80, deadline=None)
@given(
    offset=st.sampled_from(OFFSETS),
    k=st.integers(0, 3),
    d=st.integers(1, 2),
    n=st.integers(1, 40),
    on_sphere=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluation_bit_identical_to_two_buffer_reference(offset, k, d, n, on_sphere, seed):
    """Values and gradients from one r = max(z, 0) per block, with the 2 of
    sigma_2' = 2r folded into the coefficients and each block's (x, 1) rows
    written into a reused buffer, equal the two-buffer loop's over the lifted
    input."""
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.standard_normal((n, d + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ps = PointSet(pts)
    model = FiniteNeuronModel(k, ps, rng.standard_normal(n), on_sphere=on_sphere)
    B = SMALL_BLOCK_FLOATS // n
    x = rng.uniform(-1.5, 1.5, (_offset_rows(offset, B), d + 1 if on_sphere else d))
    grad = k >= 1 and not on_sphere
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "BLOCK_FLOATS", SMALL_BLOCK_FLOATS)
        values, grads = model._evaluate(x, grad=grad)
        values_only = model._evaluate(x)[0]
    want_values, want_grads = _evaluate_reference(model, x, grad, B)
    _assert_bits_equal(values, want_values)
    _assert_bits_equal(values_only, want_values)
    if grad:
        _assert_bits_equal(grads, want_grads)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("on_sphere", [False, True])
def test_evaluation_at_zero_preactivations_matches_the_reference(k, on_sphere, monkeypatch):
    """Inputs on the kinks, where z is exactly 0 (and -0 in the input), over
    more than one block: r > 0 is False there, as z > 0 is."""
    monkeypatch.setattr(models, "BLOCK_FLOATS", SMALL_BLOCK_FLOATS)
    B = SMALL_BLOCK_FLOATS // 5
    s = math.sqrt(0.5)
    pts = np.array([[1.0, 0.0], [s, -s], [-s, -s], [0.0, 1.0], [-1.0, 0.0]])
    ps = PointSet(pts)
    model = FiniteNeuronModel(k, ps, np.array([1.5, -2.0, 0.25, 3.0, -0.5]), on_sphere=on_sphere)
    if on_sphere:
        base = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, -0.0], [s, s]])
    else:
        base = np.array([[0.0], [-0.0], [1.0], [-1.0], [0.5]])
    x = np.tile(base, (B // len(base) + 2, 1))
    z = (x if on_sphere else np.column_stack([x, np.ones(len(x))])) @ pts.T
    assert np.count_nonzero(z == 0.0) >= len(x)
    grad = k >= 1 and not on_sphere
    values, grads = model._evaluate(x, grad=grad)
    want_values, want_grads = _evaluate_reference(model, x, grad, B)
    assert values.tobytes() == want_values.tobytes()
    if grad:
        assert grads.tobytes() == want_grads.tobytes()


def _ls_reference(f, ps, pts, w, k, ridge=0.0, norm_cap=0.0):
    """least_squares_fit as written before the in-place design: the bit reference."""
    z = np.column_stack([pts, np.ones(len(pts))]) @ ps.points.T
    design = np.where(z >= 0.0, 1.0, 0.0) if k == 0 else np.maximum(z, 0.0) ** k
    sw = np.sqrt(w)
    Aw = design * sw[:, None]
    yw = f(pts) * sw
    if norm_cap > 0.0:
        G = Aw.T @ Aw + ridge * np.eye(ps.n)
        return ridge_bisect_cap(G, Aw.T @ yw, ps.n, norm_cap)[0]
    if ridge > 0.0:
        return np.linalg.solve(Aw.T @ Aw + ridge * np.eye(ps.n), Aw.T @ yw)
    return np.linalg.lstsq(Aw, yw, rcond=None)[0]


def _ridge_objective(f, ps, pts, w, k, a, ridge=0.0):
    """||A_w a - y_w||^2 + ridge ||a||^2 on the full weighted design."""
    sw = np.sqrt(w)
    r = (features(ps, k, pts) * sw[:, None]) @ a - f(pts) * sw
    return float(r @ r + ridge * a @ a)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize(
    "path", [{}, {"ridge": 1e-6}, {"norm_cap": 0.5}], ids=["lstsq", "ridge", "cap"]
)
def test_ls_coefficients_bit_identical_to_reference(k, path):
    """The pruned fit solves the reference's problem: no higher objective, and
    coefficients within 1e-8 (9.5e-10 measured, at ridge 1e-6, k=1)."""
    ps = generate_points(2, 40, "fibonacci_s2")
    pts, w = domain_grid(2, 4096)
    target = get_target("gaussian_bump", 2)
    model = least_squares_fit(target, ps, Grid(pts, w), k=k, **path)
    want = _ls_reference(target, ps, pts, w, k, **path)
    ridge = path.get("ridge", 0.0)
    got_obj = _ridge_objective(target, ps, pts, w, k, model.a, ridge)
    assert got_obj <= _ridge_objective(target, ps, pts, w, k, want, ridge) * (1.0 + 1e-10)
    assert np.linalg.norm(model.a - want) <= 1e-8 * np.linalg.norm(want)
    if "norm_cap" in path:  # the cap path is exercised only if the cap binds
        free = least_squares_fit(target, ps, Grid(pts, w), k=k)
        assert coef_stat(free)[1] > path["norm_cap"]


def _unit(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _small_grid(d, radius, rows, rng):
    """rows random points in the ball of the given radius, random weights summing to 1."""
    x = rng.standard_normal((rows, d))
    x *= (radius * rng.uniform(0.0, 1.0, rows) ** (1.0 / d) / np.linalg.norm(x, axis=1))[:, None]
    return x, _weights(rows, rng)


def _weights(rows, rng):
    w = rng.uniform(0.5, 1.5, rows)
    return w / w.sum()


def _polynomial_null_space(ps, k, poly, rng):
    """Coefficient vectors on the polynomial directions whose expansion
    sum_j a_j (theta_j . (x, 1))^k vanishes identically, from point values."""
    theta = ps.points[poly]
    x = np.column_stack([rng.uniform(-1.0, 1.0, (4 * len(theta) + 40, ps.d)), np.ones(4 * len(theta) + 40)])
    _, s, vt = np.linalg.svd((x @ theta.T) ** k)
    rank = int(np.count_nonzero(s > 1e-10 * s[0])) if len(s) else 0
    return vt[rank:]


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 2),
    k=st.integers(0, 3),
    n=st.integers(1, 60),
    strategy=st.sampled_from(["uniform_random", "structured"]),
    radius=st.floats(0.2, 1.0),
    path=st.sampled_from([{}, {"ridge": 1e-9}, {"ridge": 1e-6}, "cap"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, k=3, n=26, strategy="uniform_random", radius=0.451171875, path={}, seed=67550)
def test_pruned_fit_solves_the_full_problem(d, k, n, strategy, radius, path, seed):
    """Dead, polynomial and live neurons on a shrunk grid: dead coefficients are
    exactly 0, the polynomial block carries no null-space component (the
    minimum-norm choice), and the ridge objective is no worse than the
    full-design reference's, up to the rounding of the objectives themselves:
    each computed residual B a - y is off by about (eps / 2) ||B|| ||a||,
    which moves ||r||^2 by up to 2 ||r|| times that."""
    rng = np.random.Generator(np.random.Philox(seed))
    if strategy == "structured":
        ps0 = generate_points(d, max(n, 2), "equispaced_circle" if d == 1 else "fibonacci_s2")
        pts = ps0.points
    else:
        pts = _unit(rng.standard_normal((n, d + 1)))
    # one direction of each class: dead (b = -1), polynomial (b = 1), live (b = 0);
    # a structured circle holds them already, up to rounding
    extra = np.zeros((3, d + 1))
    extra[0, d], extra[1, d], extra[2, 0] = -1.0, 1.0, 1.0
    held = np.min(np.linalg.norm(pts[:, None, :] - extra, axis=2), axis=0) < 1e-12
    ps = PointSet(np.vstack([pts, extra[~held]]))
    at = np.argmin(np.linalg.norm(ps.points[:, None, :] - extra, axis=2), axis=0)
    x, w = _small_grid(d, radius, 3 * ps.n + 20, rng)
    target = get_target("gaussian_bump", d)
    if path == "cap":
        free = coef_stat(least_squares_fit(target, ps, Grid(x, w), k=k))[1]
        path = {"norm_cap": 0.5 * free}
    model = least_squares_fit(target, ps, Grid(x, w), k=k, **path)
    a = model.a
    r = float(np.max(np.linalg.norm(x, axis=1)))
    b, wn = ps.points[:, d], np.linalg.norm(ps.points[:, :d], axis=1)
    dead, poly = b + wn * r < -1e-12, b - wn * r > 1e-12
    assert dead[at[0]] and poly[at[1]] and not (dead[at[2]] or poly[at[2]])
    assert np.all(a[dead] == 0.0)
    null = _polynomial_null_space(ps, k, poly, rng)
    assert np.linalg.norm(null @ a[poly]) <= 1e-8 * max(np.linalg.norm(a), 1e-300)
    ridge = path.get("ridge", 0.0)
    want = _ls_reference(target, ps, x, w, k, **path)
    got_obj = _ridge_objective(target, ps, x, w, k, a, ridge)
    want_obj = _ridge_objective(target, ps, x, w, k, want, ridge)
    B = features(ps, k, x) * np.sqrt(w)[:, None]
    rounding = np.finfo(float).eps * np.linalg.norm(B, 2) * (np.linalg.norm(a) + np.linalg.norm(want)) * math.sqrt(want_obj)
    assert got_obj <= want_obj * (1.0 + 1e-10) + 1e-13 * float(w @ target(x) ** 2) + rounding


def _straddling_grid(d, radius, n_rows_for, on_sphere, rng):
    """A weighted grid whose row count n_rows_for(r) may depend on its largest
    radius r: row 0 sits at radius, the rest strictly inside (or, on the
    sphere, random unit rows with r = 1)."""
    if on_sphere:
        rows = n_rows_for(1.0)
        return _unit(rng.standard_normal((rows, d + 1))), _weights(rows, rng)
    first = np.zeros((1, d))
    first[0, 0] = radius
    r = float(np.linalg.norm(first))
    rows = n_rows_for(r)
    x, _ = _small_grid(d, 0.999 * radius, rows - 1, rng)
    return np.vstack([first, x]), _weights(rows, rng)


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 2),
    k=st.integers(0, 3),
    n=st.integers(1, 12),
    on_sphere=st.booleans(),
    offset=st.sampled_from(["step-1", "step", "step+1", "2step", "2step+1", "8step+3"]),
    radius=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_solvers_match_the_dense_design(d, k, n, on_sphere, offset, radius, seed):
    """Rows straddle a tile boundary under a small float budget: a fit's
    tiles hold at most step = budget // (live + C(k + d, d) + 1) rows, so
    step rows are one tile, step + 1 and 2 step two, 2 step + 1 four, and
    8 step + 3 sixteen, whose virtual rows the QR fold takes in more than
    one fold.  Reference: the full rows x n design A of every direction,
    solved densely.  Tolerances, fixed in advance: with
    lam = 1e-6 ||A||_F^2, so cond(A^T A + lam I) <= 1e6 + 1, the ridge path
    (dsyrk) and the QR fold (a ridge under a cap that does not bind) give
    ||a - a_ref|| <= 1e-8 ||a_ref||; the ridge-free QR fold reaches the
    lstsq objective within a relative 1e-10 plus 1e-13 ||y_w||^2.  Each
    fit's residual is ||A a - y_w|| within _assert_residual's tolerances,
    and its record reads the tiles the rule gives."""
    rng = np.random.Generator(np.random.Philox(seed))
    pts = _unit(rng.standard_normal((n, d + 1)))
    if not on_sphere:  # one direction of each class: dead, polynomial and live
        extra = np.zeros((3, d + 1))
        extra[0, d], extra[1, d], extra[2, 0] = -1.0, 1.0, 1.0
        pts = np.vstack([pts, extra])
    ps = PointSet(pts)
    step = None

    def rows_for(r):
        nonlocal step
        b, wn = ps.points[:, d], np.linalg.norm(ps.points[:, :d], axis=1)
        live = ~((b + wn * r < -1e-12) | (b - wn * r > 1e-12)) | on_sphere  # nothing is pruned on the sphere
        step = max(1, SMALL_BLOCK_FLOATS // (int(np.count_nonzero(live)) + math.comb(k + d, d) + 1))
        factor, extra = {"step-1": (1, -1), "step": (1, 0), "step+1": (1, 1), "2step": (2, 0),
                         "2step+1": (2, 1), "8step+3": (8, 3)}[offset]
        return max(1, factor * step + extra)

    x, w = _straddling_grid(d, radius, rows_for, on_sphere, rng)
    if on_sphere:
        target = TargetFunction("sphere_wave", d, lambda eta: np.exp(eta[:, 0]) * np.cos(3.0 * eta[:, -1]), on_sphere=True)
    else:
        target = get_target("gaussian_bump", d)
    sw = np.sqrt(w)
    A = features(ps, k, x) * sw[:, None]
    yw = target(x) * sw
    lam = 1e-6 * float(np.sum(A * A))
    if lam == 0.0:  # every direction is 0 on the grid
        assert np.array_equal(least_squares_fit(target, ps, Grid(x, w), k=k, ridge=1.0).a, np.zeros(ps.n))
        return
    want = np.linalg.solve(A.T @ A + lam * np.eye(ps.n), A.T @ yw)
    huge = 1e6 * math.sqrt(ps.n) * float(np.linalg.norm(want))
    rows = len(x)
    tiles = 1 << max(0, math.ceil(math.log2(rows / step)))  # median cuts halve every tile
    with pytest.MonkeyPatch.context() as mp, _model_records() as records:
        mp.setattr(models, "BLOCK_FLOATS", SMALL_BLOCK_FLOATS)
        for path in ({"ridge": lam}, {"ridge": lam, "norm_cap": huge}, {}):
            model = least_squares_fit(target, ps, Grid(x, w), k=k, **path)
            info = records[-1]
            assert (info["tiles"], info["block_rows"]) == (min(tiles, rows), -(-rows // tiles))
            _assert_residual(model, float(np.linalg.norm(A @ model.a - yw)), A, yw, cholesky=path == {"ridge": lam})
            if path:
                assert np.linalg.norm(model.a - want) <= 1e-8 * np.linalg.norm(want)
        got = model.a
    ref = np.linalg.lstsq(A, yw, rcond=None)[0]

    def objective(a):
        r = A @ a - yw
        return float(r @ r)

    assert objective(got) <= objective(ref) * (1.0 + 1e-10) + 1e-13 * float(yw @ yw)


def _reduced(ps, k, x, on_sphere):
    """(P, T, lift): the live directions, the polynomial block and, per column of
    [P | T], its coefficients on the degree-k monomials, by least_squares_fit's
    global rule on the grid x."""
    d = ps.d
    if on_sphere:
        dead = poly = np.zeros(ps.n, dtype=bool)
    else:
        r = float(np.max(np.linalg.norm(x, axis=1)))
        b, wn = ps.points[:, d], np.linalg.norm(ps.points[:, :d], axis=1)
        dead, poly = b + wn * r < -1e-12, b - wn * r > 1e-12
    P = ps.points[~(dead | poly)]
    T, _ = _polynomial_block(ps.points[poly], k)
    return P, T, _lift(P, T, k)


def _lift(P, T, k):
    """Each column of [P | T]'s coefficients on the degree-k monomials."""
    idx, coef = _monomials(P.shape[1] - 1, k)
    return np.hstack([coef[:, None] * np.prod(P[:, idx], axis=2).T, T])


def _dense_rows(P, T, k, x, on_sphere, sw, yw):
    """(E, Q): the dense weighted [B | y] of the reduced design on the grid x,
    and its weighted degree-k monomials."""
    xt = x if on_sphere else np.column_stack([x, np.ones(len(x))])
    idx, _ = _monomials(P.shape[1] - 1, k)
    Q = np.prod(xt[:, idx], axis=2) * sw[:, None]
    return np.column_stack([sigma_k(k, xt @ P.T) * sw[:, None], Q @ T, yw]), Q


def _blocks(P, k, T, grid, yw, gram):
    """(level, blocks): the tile level a fit of P takes on the Grid grid, and
    copies of the blocks _design_blocks yields there (it reuses one
    buffer), from Householder or, with gram, pivoted Cholesky tile factors."""
    level = grid.level(_block_rows(len(P) + math.comb(k + P.shape[1] - 1, k) + 1))
    blocks = _design_blocks(P, k, T, grid, level, yw, gram)
    return level, [Bt.copy() for Bt in blocks]


def test_design_blocks_share_one_buffer_within_the_budget():
    """The tiles of the 40960-row disk grid cover it: the coarsest level whose
    tiles hold at most _block_rows(live + 7) rows, each row inside its tile's
    box up to the rounding of its centre and half-widths, which CLASS_MARGIN
    covers.  The blocks are neuron-major views of one C-contiguous buffer, one
    per tile, with at most (crossing neurons + 7) rows, fewer than the
    tile's; each has the Gram of its tile's rows of the dense weighted
    reduced design [B | y], within 1e-13 of its largest entry.
    _block_rows gives as many rows as the budget holds."""
    pts, w = domain_grid(2, 4096)
    ps = generate_points(2, 96, "fibonacci_s2")
    P, T, _ = _reduced(ps, 2, pts, False)
    assert len(P) < 96 - 6 and T.shape == (6, 6)  # dead and polynomial directions were pruned
    cols = len(P) + 6
    grid = Grid(pts, w)
    assert np.array_equal(_pairs(*grid), _pairs(pts, w))
    assert np.array_equal(grid.xt, np.column_stack([grid[0], np.ones(len(pts))]).T)
    sw = np.sqrt(grid[1])
    yw = sw * np.cos(grid[0][:, 0])
    dense, _ = _dense_rows(P, T, 2, grid[0], False, sw, yw)
    max_rows = BLOCK_FLOATS // (cols + 1)
    bounds, centres, half = level = grid.level(max_rows)
    sizes = np.diff(bounds)
    tiles = 1 << math.ceil(math.log2(len(pts) / max_rows))  # median cuts halve every tile
    assert len(sizes) == tiles > 1 and np.all(sizes == len(pts) // tiles)
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):  # within the box, to the rounding of c and h
        assert np.all(np.abs(grid.xt[:, lo:hi].T - centres[t]) <= half[t] + 2 * np.finfo(float).eps)
    blocks = []
    for t, Bt in enumerate(_design_blocks(P, 2, T, grid, level, yw)):
        assert Bt.flags.c_contiguous and Bt.shape[0] == cols + 1 and Bt.shape[1] < sizes[t]
        assert Bt.size <= BLOCK_FLOATS
        assert not blocks or np.shares_memory(Bt, blocks[0][1])
        rows = dense[bounds[t] : bounds[t + 1]]
        want = rows.T @ rows
        assert np.max(np.abs(Bt @ Bt.T - want)) <= 1e-13 * np.max(np.abs(want))
        blocks.append((Bt.copy(), Bt))
    assert len(blocks) == tiles and sum(c.shape[1] for c, _ in blocks) < len(pts) // 10
    for width in (1, 2, 51, 201, 512, 513, 514, 2001, BLOCK_FLOATS, BLOCK_FLOATS + 1):
        rows = _block_rows(width)
        assert rows >= 1 and (rows * width <= BLOCK_FLOATS or rows == 1)
        assert (rows + 1) * width > BLOCK_FLOATS  # as many rows as the budget holds


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 2),
    k=st.integers(0, 3),
    n=st.integers(1, 12),
    on_sphere=st.booleans(),
    rows=st.integers(1, 160),
    gram=st.booleans(),
    deficient=st.sampled_from(["", "repeated direction", "few rows", "zero weights"]),
    y_scale=st.sampled_from([1.0, 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
# y in the span of an 11-row tile's other columns, whose Gram has condition 1e8: the unscaled
# pivoted Cholesky dropped y's last pivot, -5e-29 of rounding, 7.5e-11 u_y^2
@example(d=1, k=2, n=8, on_sphere=True, rows=11, gram=True, deficient="", y_scale=1e-9, seed=0)
def test_virtual_rows_have_the_gram_of_the_grid_rows(d, k, n, on_sphere, rows, gram, deficient, y_scale, seed):
    """The stacked blocks' Gram is the dense [B | y]^T [B | y] under a small
    float budget, from each tile's Householder factor and, with gram, from
    the pivoted Cholesky factor of its Gram, as the ridge path takes them.
    On a domain grid two more directions put their kink within
    CLASS_MARGIN of a tile's box, at its largest and smallest row along one
    axis, so a k = 0 neuron there is 1 on one row and 0 on the others, or 0
    on one row and 1 on the others: dead or polynomial by a wrong margin, it
    would lose or gain that row.  Tiles are rank-deficient with a repeated
    live direction, with at most 4 rows (fewer than the columns of most
    tile designs) or with about half the weights 0, and a target scaled by
    1e-9 leaves y a column of small norm, which a pivoted Cholesky of the
    unscaled Gram at LAPACK's default tolerance drops.  Tolerance, fixed
    before the first run: entry (i, j) within 1e-11 u_i u_j, where
    u_j = sum_a |L_aj| ||Q_a|| for a neuron or column of T with monomial
    coefficients L_aj on the weighted monomial columns Q_a, which bounds the
    norm of its column and of the monomial sum the block takes it from, and
    u = ||y|| for y."""
    rng = np.random.Generator(np.random.Philox(seed))
    if deficient == "few rows":
        rows = min(rows, 4)
    if on_sphere:
        x = _unit(rng.standard_normal((rows, d + 1)))
    else:
        x, _ = _small_grid(d, 0.9, rows, rng)
    w = _weights(rows, rng)
    if deficient == "zero weights":
        w[rng.random(rows) < 0.5] = 0.0
    grid = Grid(x, w)
    x, w = grid  # the grid's rows, in the order its blocks read them
    sw = np.sqrt(w)
    yw = y_scale * sw * rng.standard_normal(rows)
    dirs = _unit(rng.standard_normal((n, d + 1)))
    if not on_sphere:  # one direction of each class, then two at the edges of a tile's box
        extra = np.zeros((3, d + 1))
        extra[0, d], extra[1, d], extra[2, 0] = -1.0, 1.0, 1.0
        dirs = np.vstack([dirs, extra])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "BLOCK_FLOATS", SMALL_BLOCK_FLOATS)
        if not on_sphere:  # both edge directions are live on the grid, so the fit takes this level
            n_live = len(_reduced(PointSet(dirs), k, x, False)[0]) + 2
            bounds, _, _ = grid.level(_block_rows(n_live + math.comb(k + d, k) + 1))
            t, axis = int(rng.integers(len(bounds) - 1)), int(rng.integers(d))
            side = grid.xt[axis, bounds[t] : bounds[t + 1]]
            for end, shift in ((side.max(), 0.5e-12), (side.min(), -0.5e-12)):
                edge = np.zeros(d + 1)
                edge[axis], edge[d] = 1.0, shift - end
                if np.min(np.linalg.norm(_unit([edge]) - dirs, axis=1)) > 1e-9:
                    dirs = np.vstack([dirs, _unit([edge])])
        ps = PointSet(dirs)
        P, T, _ = _reduced(ps, k, x, on_sphere)
        if deficient == "repeated direction":  # no PointSet holds one, but the blocks take any rows
            P = np.vstack([P, P[-1:]])
        if not len(P) + T.shape[1]:  # least_squares_fit builds no block
            return
        level, blocks = _blocks(P, k, T, grid, yw, gram)
    if not on_sphere and len(P) == n_live:  # a tile of equal coordinates has one edge direction
        assert np.array_equal(level[0], bounds)
    dense, Q = _dense_rows(P, T, k, x, on_sphere, sw, yw)
    want = dense.T @ dense
    got = sum(Bt @ Bt.T for Bt in blocks)
    u = np.append(np.abs(_lift(P, T, k)).T @ np.linalg.norm(Q, axis=0), np.linalg.norm(yw))
    assert np.all(np.abs(got - want) <= 1e-11 * np.outer(u, u))


def test_pruned_columns_are_exact():
    """Dead columns of the features are exactly 0 and their coefficients too;
    polynomial columns equal the monomial reconstruction (Q T) V^T to 1e-13."""
    pts, w = domain_grid(2, 4096)
    r = float(np.max(np.linalg.norm(pts, axis=1)))
    ps = generate_points(2, 96, "fibonacci_s2")
    target = get_target("gaussian_bump", 2)
    xt = np.column_stack([pts, np.ones(len(pts))])
    b, wn = ps.points[:, 2], np.linalg.norm(ps.points[:, :2], axis=1)
    dead, poly = b + wn * r < -1e-12, b - wn * r > 1e-12
    assert dead.sum() > 0 and poly.sum() > 0
    for k in range(4):
        T, V = _polynomial_block(ps.points[poly], k)
        phi = features(ps, k, pts)
        assert np.all(phi[:, dead] == 0.0)
        idx, _ = _monomials(2, k)
        rebuilt = np.prod(xt[:, idx], axis=2) @ T @ V.T
        assert np.max(np.abs(rebuilt - phi[:, poly])) <= 1e-13 * np.max(np.abs(phi[:, poly]))
        for path in ({}, {"ridge": 1e-9}):
            assert np.all(least_squares_fit(target, ps, Grid(pts, w), k=k, **path).a[dead] == 0.0)


@pytest.mark.parametrize("path", [{}, {"ridge": 1e-6}, {"norm_cap": 1e-3}], ids=["lstsq", "ridge", "cap"])
def test_every_direction_dead_gives_zero_coefficients(path):
    pts, w = domain_grid(2, 4096)
    ps = PointSet(_unit([[1.0, 0.0, -1.5], [0.0, 1.0, -1.2], [-0.6, 0.8, -2.0]]))
    target = get_target("gaussian_bump", 2)
    model = least_squares_fit(target, ps, Grid(pts, w), k=2, **path)
    assert np.array_equal(model.a, np.zeros(3))
    assert model.residual == pytest.approx(error_norms(model, target, Grid(pts, w))[0], rel=1e-12)


@pytest.mark.parametrize("path", [{}, {"ridge": 1e-9}, {"norm_cap": 0.05}], ids=["lstsq", "ridge", "cap"])
def test_fewer_polynomial_directions_than_monomials(path):
    """k=3 on the disk has 10 monomials; 4 polynomial directions span only 4 of them."""
    pts, w = domain_grid(2, 4096)
    rng = np.random.Generator(np.random.Philox(4))
    poly_dirs = np.column_stack([0.3 * rng.standard_normal((4, 2)), np.full(4, 2.0)])
    live_dirs = np.column_stack([_unit(rng.standard_normal((12, 2))), rng.uniform(-0.3, 0.3, 12)])
    ps = PointSet(_unit(np.vstack([poly_dirs, live_dirs])))
    poly = np.arange(16) < 4
    T, V = _polynomial_block(ps.points[poly], 3)
    assert T.shape == (10, 4) and V.shape == (4, 4)
    target = get_target("gaussian_bump", 2)
    model = least_squares_fit(target, ps, Grid(pts, w), k=3, **path)
    want = _ls_reference(target, ps, pts, w, 3, **path)
    ridge = path.get("ridge", 0.0)
    got_obj = _ridge_objective(target, ps, pts, w, 3, model.a, ridge)
    assert got_obj <= _ridge_objective(target, ps, pts, w, 3, want, ridge) * (1.0 + 1e-10)
    assert np.linalg.norm(model.a - want) <= 1e-6 * np.linalg.norm(want)


def test_capped_fit_on_a_rank_deficient_design_matches_the_design_svd(caplog):
    """Fibonacci n=96, k=2 on the disk: the full design has cond ~ 1e16.  At the
    fit's own lambda, a = V diag(s/(s^2+lambda)) U^T y from the SVD of the
    full design is the accurate answer; the full Gram read 2.5e-4 from it
    here, the pruned Gram 4.8e-5, the QR factor of the pruned design 1.9e-10."""
    pts, w = domain_grid(2, 4096)
    ps = generate_points(2, 96, "fibonacci_s2")
    target = get_target("gaussian_bump", 2)
    cap = 0.5 * coef_stat(least_squares_fit(target, ps, Grid(pts, w), k=2))[1]
    with caplog.at_level(logging.DEBUG, logger="fnspace.models"):
        model = least_squares_fit(target, ps, Grid(pts, w), k=2, norm_cap=cap)
    lam = [json.loads(r.getMessage()) for r in caplog.records if "lam" in r.getMessage()][0]["lam"]
    assert 1e-12 < lam < 1e-10  # the cap binds near the Gram's rounding level
    sw = np.sqrt(w)
    U, s, Vt = np.linalg.svd(features(ps, 2, pts) * sw[:, None], full_matrices=False)
    want = Vt.T @ (s / (s**2 + lam) * (U.T @ (target(pts) * sw)))
    want *= min(1.0, cap / (math.sqrt(ps.n) * np.linalg.norm(want)))
    assert np.linalg.norm(model.a - want) <= 1e-8 * np.linalg.norm(want)


@contextlib.contextmanager
def _model_records():
    """The JSON records the fnspace.models logger sends within the block, in a
    list (caplog is function-scoped, which hypothesis tests cannot take)."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: records.append(json.loads(record.getMessage()))
    logger = logging.getLogger("fnspace.models")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _fit_records(caplog, *args, **kwargs):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fnspace.models"):
        least_squares_fit(*args, **kwargs)
    return [json.loads(r.getMessage()) for r in caplog.records if r.name == "fnspace.models"]


def test_least_squares_fit_diagnostics_record(caplog):
    """One record per fit.  tiles counts the grid tiles the fit read,
    block_rows is the largest of them and solver_rows the virtual rows the
    solver read: on the QR and capped paths min(tile rows, crossing neurons
    + 7) per tile at k = 2 on the disk, counted here from the tile boxes,
    and on the Cholesky path the rank its pivoted Cholesky factor reached,
    at most as many.  The three paths read the same tiles; a fit with every
    neuron dead reads none."""
    pts, w = domain_grid(2, 4096)
    ps = generate_points(2, 96, "fibonacci_s2")
    target = get_target("gaussian_bump", 2)
    (info,) = _fit_records(caplog, target, ps, Grid(pts, w), k=2, ridge=1e-9)
    r = float(np.max(np.linalg.norm(pts, axis=1)))
    b, wn = ps.points[:, 2], np.linalg.norm(ps.points[:, :2], axis=1)
    dead, poly = int(np.sum(b + wn * r < -1e-12)), int(np.sum(b - wn * r > 1e-12))
    live = 96 - dead - poly
    cols = live + 6
    bounds, centres, half = Grid(pts, w).level(BLOCK_FLOATS // (live + 7))
    P, _, _ = _reduced(ps, 2, pts, False)
    mid, spread = centres @ P.T, half @ np.abs(P).T
    crossing = np.count_nonzero(np.abs(mid) <= spread + 1e-12, axis=1)
    sizes = np.diff(bounds)
    seconds = info.pop("seconds")
    residual = info.pop("residual")
    assert info == {
        "rows": len(pts), "n": 96, "live": live, "polynomial": poly,
        "dead": dead, "columns": cols, "path": "solve", "solver": "cholesky",
        "tiles": len(sizes), "block_rows": int(np.max(sizes)), "solver_rows": info["solver_rows"],
    }
    tiled = {"tiles": len(sizes), "block_rows": int(np.max(sizes)),
             "solver_rows": int(np.sum(np.minimum(sizes, crossing + 7)))}
    assert 0 < info["solver_rows"] <= tiled["solver_rows"]
    assert dead > 0 and poly > 6  # six monomials of degree 2 stand in for the polynomial block
    assert np.max(sizes) <= BLOCK_FLOATS // (live + 7) < 2 * np.max(sizes)  # the coarsest level within the budget
    assert len(sizes) > 1 and info["solver_rows"] < len(pts) // 10
    assert isinstance(seconds, float) and 0.0 < seconds < 60.0
    assert residual == least_squares_fit(target, ps, Grid(pts, w), k=2, ridge=1e-9).residual > 0.0
    (lstsq,) = _fit_records(caplog, target, ps, Grid(pts, w), k=2)
    assert (lstsq["path"], lstsq["solver"]) == ("lstsq", "qr")
    capped = _fit_records(caplog, target, ps, Grid(pts, w), k=2, norm_cap=1.0)
    assert [r.get("path") for r in capped] == [None, "cap"]  # ridge_bisect_cap's record first
    assert capped[1]["solver"] == "qr"
    for record in (lstsq, capped[1]):  # both solvers read the same virtual rows
        assert {key: record[key] for key in tiled} == tiled
    # a grid shorter than one tile is one tile; a wide design's tiles stay within the budget
    (short,) = _fit_records(caplog, target, ps, Grid(pts[:500], w[:500]), k=2, ridge=1e-9)
    assert (short["tiles"], short["block_rows"]) == (1, 500)
    for path in ({"ridge": 1e-9}, {}):
        (info,) = _fit_records(caplog, target, generate_points(2, 800, "fibonacci_s2"), Grid(pts[::20], w[::20]), k=1, **path)
        max_rows = BLOCK_FLOATS // (info["live"] + 4)
        assert info["columns"] > 512 and info["block_rows"] <= max_rows < 2 * info["block_rows"]
        assert info["block_rows"] * (info["columns"] + 1) <= BLOCK_FLOATS and info["tiles"] > 1
    sphere = get_target("smooth_even_circle", 1)
    grid = reference_grid(1, 256)
    (info,) = _fit_records(caplog, sphere, generate_points(1, 16, "equispaced_circle"), Grid(grid.nodes, grid.weights))
    assert (info["live"], info["polynomial"], info["dead"], info["columns"]) == (16, 0, 0, 16)
    dead_only = PointSet(_unit([[1.0, 0.0, -1.5], [0.0, 1.0, -1.2]]))
    (info,) = _fit_records(caplog, target, dead_only, Grid(pts, w), k=2, ridge=1e-9)
    # no tile is read
    assert (info["columns"], info["solver"], info["tiles"], info["block_rows"], info["solver_rows"]) == (0, None, 0, 0, 0)


def test_least_squares_fit_quiet_by_default(caplog):
    pts, w = domain_grid(2, 4096)
    least_squares_fit(get_target("gaussian_bump", 2), generate_points(2, 16, "fibonacci_s2"), Grid(pts, w))
    assert not [r for r in caplog.records if r.name == "fnspace.models"]


def _weighted_design(ps, k, x, w, target):
    """(A, y): the full weighted design and target on the grid."""
    sw = np.sqrt(w)
    return features(ps, k, x) * sw[:, None], target(x) * sw


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 2),
    k=st.integers(1, 2),
    n=st.integers(2, 48),
    strategy=st.sampled_from(["uniform_random", "structured"]),
    radius=st.floats(0.3, 1.0),
    path=st.sampled_from(["lstsq", "solve", "cap"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_residual_matches_the_evaluated_error(d, k, n, strategy, radius, path, seed):
    """model.residual is error_norms(model, f, grid, s=0)[0] on the grid the fit
    solved on, within 1e-9 relative whenever err^2 >= 1e-8 y^T y, plus the
    rounding both carry at the scale S = (sum_j |a_j| ||b_j||)^2 of the
    terms they sum.  Evaluation and the QR fold's rho are off by a few
    eps sqrt(y^T y + S): an ill-conditioned minimum-norm fit (||a|| ~ 1e7)
    read 1.9e-7 relative apart, with the long-double residual between them.
    The Cholesky path (solve) subtracts, y^T y - ||z||^2 - ridge ||c||^2, and
    that moves it by a few eps (y^T y + S) / err more; it may read NaN only
    below RESIDUAL_FLOOR (y^T y + S), with a factor 100 for the reduced
    design's own S."""
    rng = np.random.Generator(np.random.Philox(seed))
    if strategy == "structured":
        ps = generate_points(d, n, "equispaced_circle" if d == 1 else "fibonacci_s2")
    else:
        ps = PointSet(_unit(rng.standard_normal((n, d + 1))))
    x, w = _small_grid(d, radius, 4 * ps.n + 40, rng)
    target = get_target("gaussian_bump", d)
    kwargs = {"solve": {"ridge": 1e-9}, "lstsq": {}, "cap": {}}[path]
    if path == "cap":
        kwargs = {"norm_cap": 0.5 * coef_stat(least_squares_fit(target, ps, Grid(x, w), k=k))[1]}
    model = least_squares_fit(target, ps, Grid(x, w), k=k, **kwargs)
    _assert_residual(model, error_norms(model, target, Grid(x, w), s=0)[0], *_weighted_design(ps, k, x, w, target),
                     cholesky=path == "solve")


def _assert_residual(model, err, A, y, cholesky):
    """model.residual against err, the error of model.a on the weighted
    design A and target y, with the tolerances of
    test_residual_matches_the_evaluated_error."""
    yy = float(y @ y)
    scale = yy + float(np.abs(model.a) @ np.linalg.norm(A, axis=0)) ** 2
    eps = np.finfo(float).eps
    if cholesky and math.isnan(model.residual):
        assert err * err < 100 * models.RESIDUAL_FLOOR * scale
    elif err * err >= 1e-8 * yy:
        cancellation = 4 * eps * scale / err if cholesky else 0.0
        assert abs(model.residual - err) <= 1e-9 * err + 4 * eps * math.sqrt(scale) + cancellation


def test_ridge_below_rounding_falls_back_to_the_qr_fold(caplog):
    """Ten distinct grid points, each repeated eight times, under 40 live
    neurons: B^T B has rank 10, and a ridge of 1e-20 is below its rounding, so
    dpotrf meets a pivot that is not positive.  The fit then takes the QR
    fold, c = V (s U^T z / (s^2 + ridge)), which matches the full design's
    ridge solution from its SVD, and the fold's residual.  The fold reads
    the tile's Householder factor again, after the Cholesky pass read its
    pivoted Cholesky factor, whose rows stop at the first pivot that is not
    positive, so fewer of them."""
    ps = generate_points(2, 64, "fibonacci_s2")
    rng = np.random.Generator(np.random.Philox(0))
    x = np.tile(rng.uniform(-0.6, 0.6, (10, 2)), (8, 1))
    w = np.full(len(x), 1.0 / len(x))
    target = get_target("gaussian_bump", 2)
    (info,) = _fit_records(caplog, target, ps, Grid(x, w), k=1, ridge=1e-20)
    assert (info["path"], info["solver"], info["live"]) == ("solve", "cholesky->qr", 40)
    (free,) = _fit_records(caplog, target, ps, Grid(x, w), k=1)
    assert free["solver_rows"] < info["solver_rows"] < 2 * free["solver_rows"]  # the fallback reads the tiles again
    model = least_squares_fit(target, ps, Grid(x, w), k=1, ridge=1e-20)
    A, y = _weighted_design(ps, 1, x, w, target)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    want = Vt.T @ (s * (U.T @ y) / (s * s + 1e-20))
    assert np.linalg.norm(model.a - want) <= 1e-8 * np.linalg.norm(want)
    assert info["residual"] == model.residual
    assert model.residual <= 1e-12 * np.linalg.norm(y)  # ten points, forty neurons: it interpolates
    assert abs(model.residual - error_norms(model, target, Grid(x, w))[0]) <= 1e-12 * np.linalg.norm(y)


def test_ridge_fit_of_an_in_span_target_records_nan():
    """A target the fit reproduces leaves a ridge residual^2 of rounding size,
    below the floor, so the model records NaN instead of a clamped value; the
    QR fold's residual of the same target is exact enough to keep."""
    ps = generate_points(2, 32, "fibonacci_s2")
    x, w = domain_grid(2, 4096)
    theta = ps.points[:5]

    def f(x):
        return np.maximum(np.column_stack([x, np.ones(len(x))]) @ theta.T, 0.0) @ np.arange(1.0, 6.0)

    target = TargetFunction("in_span", 2, f)
    ridge = least_squares_fit(target, ps, Grid(x, w), k=1, ridge=1e-9)
    assert math.isnan(ridge.residual)
    assert error_norms(ridge, target, Grid(x, w))[0] <= 1e-6
    free = least_squares_fit(target, ps, Grid(x, w), k=1)
    assert 0.0 <= free.residual <= 1e-10 * math.sqrt(float(w @ f(x) ** 2))


def test_ridge_residual_below_the_floor_is_nan():
    """With y^T y = 1 and ridge ||c||^2 = 0, residual^2 = 1 - z^2: negative,
    zero, under RESIDUAL_FLOOR (y^T y + size) or NaN gives NaN, never a
    clamped 0; 4e-8 is kept at size 0 and dropped once size lifts the floor
    to 1e-6; a zero target (y^T y = 0) fits exactly."""
    c = np.zeros(1)
    for z in (1.0 + 1e-12, 1.0, math.sqrt(1.0 - 0.5e-8), math.nan):
        assert math.isnan(models._ridge_residual(1.0, np.array([z]), c, 1e-9, 0.0))
    z = np.array([math.sqrt(1.0 - 4e-8)])
    assert models._ridge_residual(1.0, z, c, 1e-9, 0.0) == pytest.approx(2e-4, rel=1e-6)
    assert math.isnan(models._ridge_residual(1.0, z, c, 1e-9, 99.0))
    assert models._ridge_residual(0.0, np.zeros(1), c, 1e-9, 0.0) == 0.0


def test_only_least_squares_fits_carry_a_residual():
    """residual is set by least_squares_fit alone, takes no part in equality or
    repr, and is NaN on every other model."""
    ps = generate_points(1, 8, "equispaced_circle")
    model = FiniteNeuronModel(1, ps, np.ones(8))
    assert math.isnan(model.residual) and "residual" not in repr(model)
    target = get_target("gaussian_bump", 1)
    fit = least_squares_fit(target, ps, Grid(*domain_grid_1d()), k=1)
    assert fit.residual > 0.0 and fit == FiniteNeuronModel(1, ps, fit.a)
    with pytest.raises(TypeError):
        FiniteNeuronModel(1, ps, np.ones(8), residual=0.0)
    ps, rule, spec, grid = circle_setup(n=16)
    assert math.isnan(constructive_fit(get_target("smooth_even_circle", 1), rule, spec, grid).residual)


def test_one_tiling_per_grid(monkeypatch):
    """A ridge randcmp sweep makes one Grid: it builds one kd-tree and takes
    the grid's radius and weighted rows once, which all 33 fits read, and
    no fit copies the grid to bytes (ndarray.tobytes).  A Grid builds its
    kd-tree when it is built, and fits on it build none, whatever their
    directions, k or path.  A Grid's points and weights are read-only, as
    is everything it keeps, so an in-place edit raises rather than leaving
    a stale tiling behind."""
    trees = _count_trees(monkeypatch)
    radii = []

    def radius(grid):
        radii.append(len(grid[0]))
        return float(np.max(np.linalg.norm(grid[0], axis=1)))

    counting = functools.cached_property(radius)
    counting.__set_name__(Grid, "radius")
    monkeypatch.setattr(Grid, "radius", counting)
    solve, weighted = models._solve_reduced, []

    def spy(P, k, T, grid, *args):
        weighted.append(grid.scaled(k))
        return solve(P, k, T, grid, *args)

    monkeypatch.setattr(models, "_solve_reduced", spy)
    cfg = ExperimentConfig(d=2, k=1, target="gaussian_bump", strategy="fibonacci_s2", ns=(16, 24, 32),
                           seeds=tuple(range(10)), ridge=1e-9)
    copied = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "tobytes":
            copied.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        summary = run_randcmp(cfg)
    finally:
        sys.setprofile(None)
    assert len(summary["rows"]) == 3 and len(weighted) == 33
    assert len(trees) == 1 and radii == trees  # the 40960-row criterion-08 disk grid
    assert all(rows is weighted[0] for rows in weighted) and not copied
    trees.clear()
    grid, target = Grid(*domain_grid(2, 4096)), get_target("gaussian_bump", 2)
    assert trees == [len(grid[0])]
    least_squares_fit(target, generate_points(2, 32, "fibonacci_s2"), grid, k=1, ridge=1e-9)
    least_squares_fit(target, generate_points(2, 64, "fibonacci_s2"), grid, k=2)
    least_squares_fit(target, generate_points(2, 64, "fibonacci_s2"), grid, k=2, norm_cap=1.0)
    assert trees == [len(grid[0])]
    for array in (*grid, grid.xt, *grid.level(100), grid.sw, grid.scaled(2), grid.tabulate(target)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5


@pytest.mark.parametrize("ridge", [0.0, 1e-9], ids=["lstsq", "ridge"])
def test_a_fit_does_not_depend_on_the_fits_before_it(ridge):
    """An n = 32 fit on the criterion-06 disk grid reads a coarser tile
    level than an n = 512 fit before it on the same Grid, and after a k = 2
    fit that weights the grid's rows anew, it equals a fit on a fresh Grid
    bit for bit."""
    pts, w = domain_grid(2, 64 * 512)
    target = get_target("gaussian_bump", 2)
    small, large = generate_points(2, 32, "fibonacci_s2"), generate_points(2, 512, "fibonacci_s2")
    fresh = least_squares_fit(target, small, Grid(pts, w), k=1, ridge=ridge)
    grid = Grid(pts, w)
    least_squares_fit(target, large, grid, k=1, ridge=ridge)
    least_squares_fit(target, small, grid, k=2, ridge=ridge)
    after = least_squares_fit(target, small, grid, k=1, ridge=ridge)
    assert len(grid._boxes) == 2  # the n = 512 fit and the n = 32 fits read two levels
    assert np.array_equal(after.a, fresh.a) and after.residual == fresh.residual


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 2),
    on_sphere=st.booleans(),
    rows=st.integers(1, 80),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tile_levels_partition_the_grid(d, on_sphere, rows, data, seed):
    """A Grid's (point, weight) pairs are the pairs it was given, in the
    order of its tiles, and xt is its points lifted to (x, 1).  A level's
    tiles are runs of those rows that partition them, each of at most
    max_rows rows.  It is the coarsest such level: L halvings at each
    tile's middle row, L the fewest that bring the largest tile,
    ceil(rows / 2^L) rows, down to max_rows.  Every lifted row lies in its
    tile's box up to 2 eps, on grids with fewer and more rows than a kd-tree
    leaf holds and on grids whose rows repeat, down to one row repeated
    throughout.  A Grid lifts its rows to (x, 1), on the sphere too, and
    the kd-tree never splits on the column of 1s, so a sphere Grid's rows
    are in the order a kd-tree of its eta rows leaves them."""
    rng = np.random.Generator(np.random.Philox(seed))
    distinct = data.draw(st.integers(1, rows), label="distinct")
    max_rows = data.draw(st.integers(1, rows), label="max_rows")
    base = _unit(rng.standard_normal((distinct, d + 1))) if on_sphere else _small_grid(d, 1.0, distinct, rng)[0]
    x = base[rng.integers(distinct, size=rows)]
    w = rng.random(rows)
    grid = Grid(x, w)
    assert np.array_equal(_pairs(*grid), _pairs(x, w))
    if on_sphere:
        assert np.array_equal(grid[0], x[models.cKDTree(x, balanced_tree=True).indices])
    assert np.array_equal(grid.xt, np.column_stack([grid[0], np.ones(rows)]).T)
    bounds, centres, half = grid.level(max_rows)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == rows and np.all(sizes >= 1) and np.max(sizes) <= max_rows
    L = 0
    while -(-rows // 2**L) > max_rows:
        L += 1
    assert len(sizes) == min(rows, 2**L) and set(sizes) <= {rows // 2**L, -(-rows // 2**L)}
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        assert np.all(np.abs(grid.xt[:, lo:hi].T - centres[t]) <= half[t] + 2 * np.finfo(float).eps)


@pytest.mark.parametrize(
    "path", [{}, {"ridge": 1e-9}, {"norm_cap": 1.0}], ids=["lstsq", "ridge", "cap"]
)
def test_ridge_fit_holds_no_full_design(path, caplog):
    """A fit at n=256 on 40960 rows works over row blocks, accumulating the Gram
    (ridge) or a QR factor (ridge-free or capped): its peak allocation stays far
    below one rows x n design (84 MB), and each block of [B | y] within the
    float budget."""
    pts, w = domain_grid(2, 40960)
    ps = generate_points(2, 256, "fibonacci_s2")
    target = get_target("gaussian_bump", 2)
    tracemalloc.start()
    try:
        with caplog.at_level(logging.DEBUG, logger="fnspace.models"):
            least_squares_fit(target, ps, Grid(pts, w), k=1, **path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) == 40960 and peak < len(pts) * ps.n * 8 / 8
    info = json.loads(caplog.records[-1].getMessage())
    assert info["block_rows"] * (info["columns"] + 1) <= BLOCK_FLOATS < len(pts) * (info["columns"] + 1)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 512])
def test_evaluation_holds_at_most_two_blocks(n, k):
    """A values-and-gradients call on the 131072-point disk grid peaks at its
    outputs plus two blocks of BLOCK_FLOATS floats (one at k = 2, where
    sigma_2' = 2r needs none of its own) and the block's (x, 1) rows, with
    64 KiB of slack for small objects: no copy of the whole input is made."""
    pts, _ = disk_problem().grid()
    ps = generate_points(2, n, "fibonacci_s2")
    model = FiniteNeuronModel(k, ps, np.random.default_rng(0).standard_normal(n))
    tracemalloc.start()
    try:
        values, grads = model._evaluate(pts, grad=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) == 131072
    blocks = 1 if k == 2 else 2
    lifted = 8 * _block_rows(n) * 3
    assert peak <= values.nbytes + grads.nbytes + blocks * 8 * BLOCK_FLOATS + lifted + 64 * 1024


def test_error_norms_match_direct_evaluation():
    ps = generate_points(2, 48, "fibonacci_s2")
    B = BLOCK_FLOATS // 48
    pts, w = domain_grid(2, 4096)
    pts, w = pts[: 3 * B + 5], w[: 3 * B + 5]  # a partial last block
    target = get_target("gaussian_bump", 2)
    model = least_squares_fit(target, ps, Grid(pts, w), k=2)
    l2, h1 = error_norms(model, target, Grid(pts, w), s=1)
    z = np.column_stack([pts, np.ones(len(pts))]) @ ps.points.T
    diff = sigma_k(2, z) @ model.a - target(pts)
    gdiff = (sigma_k_prime(2, z) * model.a) @ ps.points[:, :2] - target.grad(pts)
    assert l2 == pytest.approx(math.sqrt(float(np.dot(w, diff**2))), rel=1e-13)
    h1_direct = math.sqrt(float(np.dot(w, np.sum(gdiff**2, axis=1))))
    assert h1 == pytest.approx(h1_direct, rel=1e-13)
    assert error_norms(model, target, Grid(pts, w), s=0) == (l2, 0.0)


def _bisect_reference(G, c, n, M, max_iter=60):
    """ridge_bisect_cap before the eigendecomposition, verbatim: the tolerance reference."""

    def _solve_ridge(G, c, lam):
        if lam == 0.0:
            sol, *_ = np.linalg.lstsq(G, c, rcond=None)
            return sol
        return np.linalg.solve(G + lam * np.eye(len(G)), c)

    a0 = _solve_ridge(G, c, 0.0)
    if math.sqrt(n) * np.linalg.norm(a0) <= M:
        return a0, 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if math.sqrt(n) * np.linalg.norm(_solve_ridge(G, c, hi)) <= M:
            break
        hi *= 4.0
    else:
        raise AssertionError("ridge bracketing failed to satisfy the norm cap")
    a = None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        a = _solve_ridge(G, c, mid)
        norm = math.sqrt(n) * float(np.linalg.norm(a))
        if norm > M:
            lo = mid
        else:
            hi = mid
            if abs(norm - M) <= 1e-6 * M:
                return a, mid
    return _solve_ridge(G, c, hi), hi


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 24),
    rank=st.integers(0, 24),
    log_cond=st.floats(0.0, 12.0),
    cap_frac=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_ridge_bisect_cap_meets_the_cap(n, rank, log_cond, cap_frac, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    rank = min(rank, n)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.zeros(n)
    s[:rank] = np.logspace(0.0, -log_cond, rank) * 10.0 ** rng.uniform(-3, 3)
    G = (Q * s) @ Q.T
    G = (G + G.T) / 2.0
    c = rng.standard_normal(n)
    free = math.sqrt(n) * np.linalg.norm(np.linalg.pinv(G, hermitian=True) @ c)
    M = max(cap_frac * free, 1e-3)
    a, lam = ridge_bisect_cap(G, c, n, M)
    norm = math.sqrt(n) * np.linalg.norm(a)
    assert norm <= M * (1.0 + 1e-12)
    assert lam >= 0.0
    if lam > 0.0:  # the cap binds: a sits on it and solves the shifted system
        assert norm >= M * (1.0 - 1e-9)
        shifted = G + lam * np.eye(n)
        resid = np.linalg.norm(shifted @ a - c)  # backward error, at rounding scale
        assert resid <= 1e-10 * (np.linalg.norm(shifted, 2) * np.linalg.norm(a) + np.linalg.norm(c))
    if rank == n and log_cond <= 6.0:  # well conditioned: agrees with the bisection
        want, _ = _bisect_reference(G, c, n, M)
        nrm = math.sqrt(n) * float(np.linalg.norm(want))
        if nrm > M:
            want = want * (M / nrm)
        assert np.linalg.norm(a - want) <= 1e-5 * np.linalg.norm(want)


def _solver_records(caplog, *args):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fnspace.models"):
        out = ridge_bisect_cap(*args)
    (record,) = [r for r in caplog.records if r.name == "fnspace.models"]
    assert record.levelno == logging.DEBUG
    return out, json.loads(record.getMessage())


def test_ridge_bisect_cap_diagnostics_record(caplog):
    G = np.diag([4.0, 1.0, 0.25])
    c = np.array([1.0, 1.0, 1.0])
    (a, lam), info = _solver_records(caplog, G, c, np.int64(3), np.float64(0.5))  # numpy scalars too
    assert info == {"n": 3, "lam": lam, "cap_bound": True, "s_min": 0.25, "s_max": 4.0}
    assert lam > 0.0
    (a, lam), info = _solver_records(caplog, G, c, 3, 100.0)
    assert (lam, info["lam"], info["cap_bound"]) == (0.0, 0.0, False)


def test_ridge_bisect_cap_quiet_by_default(caplog):
    ridge_bisect_cap(np.eye(3), np.ones(3), 3, 0.5)
    assert not [r for r in caplog.records if r.name == "fnspace.models"]


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_error_norms_rejects_non_finite_grid_points(bad, s, monkeypatch):
    """A grid row with a NaN or infinite coordinate is a ContractError that
    names the grid, raised when the Grid is made, before the target is
    evaluated or the grid tiled: it returned (nan, nan) without a word, and
    the kd-tree's ValueError is not a cell error, so a sweep would have
    stopped on it."""
    target = get_target("gaussian_bump", 2)
    pts, w = domain_grid(2, 4096)
    model = least_squares_fit(target, generate_points(2, 16, "fibonacci_s2"), Grid(pts, w), k=1, ridge=1e-9)
    pts = pts.copy()
    pts[7, 1] = bad
    calls = []
    spy = TargetFunction("spy", 2, lambda x: calls.append(len(x)) or target.f(x), target.grad)
    trees = _count_trees(monkeypatch)
    with pytest.raises(ContractError, match="grid points must be finite"):
        error_norms(model, spy, Grid(pts, w), s=s)
    assert not trees and not calls


def test_error_norms_check_the_weights_before_they_evaluate():
    target = get_target("gaussian_bump", 2)
    pts, w = domain_grid(2, 4096)
    model = least_squares_fit(target, generate_points(2, 16, "fibonacci_s2"), Grid(pts, w), k=1, ridge=1e-9)
    calls = []
    spy = TargetFunction("spy", 2, lambda x: calls.append(len(x)) or target.f(x), target.grad)
    for s in (0, 1):
        with pytest.raises(ContractError, match="grid weights"):
            error_norms(model, spy, Grid(pts, -w), s=s)
    assert not calls


def test_both_walkers_classify_a_shared_level_alike(monkeypatch):
    """On one level of one Grid and with the same directions, _design_blocks
    and _tile_values each classify every tile in one _classify call and
    see the same dead and polynomial masks."""
    pts, w = domain_grid(2, 4096)
    ps = generate_points(2, 64, "fibonacci_s2")
    grid = Grid(pts, w)
    calls, classify = [], models._classify

    def spy(centres, half, P):
        calls.append(classify(centres, half, P))
        return calls[-1]

    monkeypatch.setattr(models, "_classify", spy)
    model = FiniteNeuronModel(2, ps, np.random.default_rng(0).standard_normal(ps.n))
    for _ in models._tile_values(model, grid):
        pass
    level = grid.level(_block_rows(ps.n))
    for _ in _design_blocks(ps.points, 2, np.zeros((6, 0)), grid, level, np.zeros(len(pts))):
        pass
    (dead, poly), (dead_fit, poly_fit) = calls
    assert dead.shape == (len(level[0]) - 1, ps.n) and len(level[0]) > 2
    assert np.array_equal(dead, dead_fit) and np.array_equal(poly, poly_fit)
    assert dead.any() and poly.any() and not np.all(dead | poly)


# c of the per-row bound c eps sum_j |a_j| (sum_i |theta_ji x_i|)^k, fixed before
# the first run: twice the worst case n + k (d + 1) + C(k + d, d) + 2 of either
# path's rounding count at n <= 40, d <= 2, k <= 3.
TILE_C = 128


def _kinked_grid(d, n, kinked, on_sphere, distinct, rng):
    """(directions, rows): n directions, the first kinked (at most 4 on the
    circle) of which have one of the rows exactly on their kink, and
    distinct rows, the rest random.  On a domain a kink row is x0 e_a, x0 =
    m 2^-p with m < 2^8, and its neuron (t, -t_a x0) with t on a grid of
    2^-44, so theta . (x, 1) is 0 in every summation order; on the sphere
    the row is +-e_a and the neuron's a-th component is 0."""
    if on_sphere and d == 1:
        theta = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]])[rng.permutation(4)[:kinked]]
        kinked = len(theta)
        kinks = theta[:, ::-1] * rng.choice([-1.0, 1.0], (kinked, 1))
    elif on_sphere:
        axes = rng.integers(3, size=kinked)
        r = rng.standard_normal((kinked, 3))
        r[np.arange(kinked), axes] = 0.0
        theta = _unit(r)
        kinks = np.eye(3)[axes] * rng.choice([-1.0, 1.0], (kinked, 1))
    else:
        axes = rng.integers(d, size=kinked)
        pool = np.arange(1, 256, 2)[:, None] * 2.0 ** -np.arange(7, 11)
        x0 = rng.choice(pool.ravel(), kinked, replace=False) * rng.choice([-1.0, 1.0], kinked)
        t = rng.standard_normal((kinked, d))
        t /= np.sqrt(np.sum(t**2, axis=1) + (t[np.arange(kinked), axes] * x0) ** 2)[:, None]
        t = np.round(t * 2.0**44) / 2.0**44
        theta = np.column_stack([t, -t[np.arange(kinked), axes] * x0])
        kinks = np.eye(d)[axes] * x0[:, None]
    spread = _unit(rng.standard_normal((distinct, d + 1))) if on_sphere else rng.uniform(-1.5, 1.5, (distinct, d))
    others = _unit(rng.standard_normal((n - kinked, d + 1)))
    return PointSet(np.vstack([theta, others])), np.vstack([kinks, spread])[: max(distinct, kinked)]


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 2),
    k=st.integers(0, 3),
    on_sphere=st.booleans(),
    n=st.integers(1, 40),
    kink_share=st.sampled_from([0.0, 0.5, 1.0]),
    distinct=st.integers(1, 400),
    blocks=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
# tile boxes that end on kink rows, whose bound rounds to the wrong side of 0 without CLASS_MARGIN
@example(d=1, k=0, on_sphere=False, n=26, kink_share=1.0, distinct=256, blocks=3, seed=28)
def test_tiled_evaluation_matches_evaluate(d, k, on_sphere, n, kink_share, distinct, blocks, seed):
    """The tiled evaluator gives _evaluate's values, and for k >= 1 on a
    domain its gradients, at every grid row within TILE_C eps times the
    row's sum_j |a_j| (sum_i |theta_ji x_i|)^k (its k-fold counterpart for a
    gradient component), on grids of repeated rows, of rows exactly on
    kinks, which tile boxes end on and where sigma_0 and sigma_1' jump, and
    of more rows than one tile holds."""
    rng = np.random.Generator(np.random.Philox(seed))
    ps, base = _kinked_grid(d, n, round(kink_share * n), on_sphere, distinct, rng)
    model = FiniteNeuronModel(k, ps, rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2, n), on_sphere=on_sphere)
    x = base[rng.integers(len(base), size=min(blocks * _block_rows(n), 12000))]
    grad = k >= 1 and not on_sphere
    grid = Grid(x, np.ones(len(x)))
    x = grid[0]
    values, grads = model._evaluate(x, grad=grad)
    got = np.full((1 + d * grad, len(x)), np.nan)
    for lo, hi, V in models._tile_values(model, grid, grad=grad):
        got[:, lo:hi] = V
    reach = np.abs(models._lifted(x, d, on_sphere)) @ np.abs(ps.points.T)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got[-1] - values) <= TILE_C * eps * (reach**k @ np.abs(model.a)))
    if grad:
        for i in range(d):
            bound = TILE_C * eps * k * reach ** (k - 1) @ np.abs(model.a * ps.points[:, i])
            assert np.all(np.abs(got[i] - grads[:, i]) <= bound)
