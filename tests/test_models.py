import itertools
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import SphericalVoronoi

from fnspace.activation import sigma_k, sigma_k_prime, spectrum
from fnspace.errors import ConfigurationError, ContractError
from fnspace.harmonics import harmonic_block, project, reference_grid
from fnspace.harness import domain_grid, get_target
from fnspace.models import (
    EVAL_BLOCK_ROWS,
    FiniteNeuronModel,
    TargetFunction,
    _monomials,
    _polynomial_block,
    coef_stat,
    constructive_fit,
    density_from_model,
    error_norms,
    features,
    least_squares_fit,
    ridge_bisect_cap,
)
from fnspace.pde_erm import midpoint_grid
from fnspace.quadrature import build_rule
from fnspace.sphere import PointSet, generate_points, mesh_norm, separation


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
    model = least_squares_fit(target, ps, pts, w, k=2)
    l2, _ = error_norms(model, target, pts, w, s=0)
    assert l2 <= 1e-8


def test_ls_zero_target():
    ps = generate_points(1, 8, "equispaced_circle")
    target = TargetFunction("zero", 1, lambda x: np.zeros(len(np.atleast_2d(x))))
    pts, w = domain_grid_1d()
    model = least_squares_fit(target, ps, pts, w, k=2)
    np.testing.assert_allclose(model.a, 0.0, atol=1e-12)


def test_ls_norm_cap_binds():
    ps = generate_points(1, 16, "equispaced_circle")

    def f(x):
        return np.cos(math.pi * np.atleast_2d(x)[:, 0])

    target = TargetFunction("cos", 1, f)
    pts, w = domain_grid_1d()
    free = least_squares_fit(target, ps, pts, w, k=2)
    free_norm = coef_stat(free)[1]
    M = free_norm / 10.0
    capped = least_squares_fit(target, ps, pts, w, k=2, norm_cap=M)
    assert coef_stat(capped)[1] <= M * (1.0 + 1e-6)
    assert coef_stat(capped)[1] >= M * (1.0 - 1e-3)


def test_model_cap_invariant():
    ps = generate_points(1, 4, "equispaced_circle")
    with pytest.raises(ContractError):
        FiniteNeuronModel(1, 1, ps, np.ones(4), norm_cap=1.0)


def test_model_dimension_must_match_directions():
    ps = generate_points(2, 4, "fibonacci_s2")
    with pytest.raises(ContractError, match="dimension"):
        FiniteNeuronModel(1, 1, ps, np.ones(4))
    with pytest.raises(ContractError, match="dimension"):
        FiniteNeuronModel(3, 1, ps, np.ones(4), on_sphere=True)


def test_inputs_of_the_wrong_width_are_rejected():
    ps = generate_points(2, 4, "fibonacci_s2")
    with pytest.raises(ContractError):
        features(ps, 1, np.zeros((5, 4)))
    sphere_pts = generate_points(2, 16, "fibonacci_s2").points
    with pytest.raises(ContractError, match="components"):
        least_squares_fit(get_target("gaussian_bump", 2), ps, sphere_pts)


def test_single_ridge_value_and_gradient():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ps = PointSet(2, pts, mesh_norm(pts, 2, 0.02), separation(pts), 0.02)
    model = FiniteNeuronModel(2, 2, ps, np.array([1.0, 0.0]))
    x = np.array([0.5, 0.3])
    assert model(x) == pytest.approx(0.25)
    np.testing.assert_allclose(model.gradient(x), [1.0, 0.0], atol=1e-12)


def test_dead_zone():
    pts = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
    ps = PointSet(1, pts, mesh_norm(pts, 1), separation(pts), 0.0)
    model = FiniteNeuronModel(1, 2, ps, np.array([1.0, 1.0]))
    x = np.array([-2.0])
    assert model(x) == 0.0
    np.testing.assert_allclose(model.gradient(x), [0.0])


def test_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(13))
    for d in (1, 2):
        for k in (1, 2, 3):
            ps = generate_points(d, 20, "uniform_random", seed=10 * d + k)
            model = FiniteNeuronModel(d, k, ps, rng.standard_normal(20))
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
    model = FiniteNeuronModel(1, 0, ps, np.ones(4))
    with pytest.raises(ContractError):
        model.gradient(np.array([0.0]))


def test_error_norms_self_and_grid_consistency():
    ps = generate_points(2, 32, "fibonacci_s2")
    rng = np.random.Generator(np.random.Philox(2))
    model = FiniteNeuronModel(2, 1, ps, 0.1 * rng.standard_normal(32))
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
    l2a, h1a = error_norms(model, target, *grids[0], s=1)
    l2b, h1b = error_norms(model, target, *grids[1], s=1)
    assert abs(l2a - l2b) / l2b < 0.01
    assert h1a >= 0.0 and h1b >= 0.0


def test_error_norms_missing_gradient():
    ps = generate_points(1, 4, "equispaced_circle")
    model = FiniteNeuronModel(1, 1, ps, np.ones(4))
    target = TargetFunction("nograd", 1, lambda x: np.zeros(len(np.atleast_2d(x))))
    pts, w = domain_grid_1d(32)
    with pytest.raises(ContractError):
        error_norms(model, target, pts, w, s=1)


def test_coef_stat_values():
    ps = generate_points(1, 4, "equispaced_circle")
    model = FiniteNeuronModel(1, 1, ps, np.ones(4))
    assert coef_stat(model) == pytest.approx((2.0, 4.0, 4.0))
    zero = FiniteNeuronModel(1, 1, ps, np.zeros(4))
    assert coef_stat(zero) == (0.0, 0.0, 0.0)


def test_density_circle_arcs():
    ps = generate_points(1, 4, "equispaced_circle")
    model = FiniteNeuronModel(1, 1, ps, np.array([1.0, 0.0, 0.0, 0.0]), on_sphere=True)
    measures, psi = density_from_model(model)
    np.testing.assert_allclose(measures, 0.25, atol=1e-12)
    assert psi(ps.points[:1])[0] == pytest.approx(4.0)
    assert psi(ps.points[1:2])[0] == 0.0


def test_density_zero_model():
    ps = generate_points(1, 4, "equispaced_circle")
    model = FiniteNeuronModel(1, 1, ps, np.zeros(4), on_sphere=True)
    _, psi = density_from_model(model)
    eta = generate_points(1, 16, "equispaced_circle").points
    np.testing.assert_array_equal(psi(eta), 0.0)


def test_density_s2_measures_sum():
    ps = generate_points(2, 100, "fibonacci_s2")
    model = FiniteNeuronModel(2, 1, ps, np.ones(100), on_sphere=True)
    measures, _ = density_from_model(model)
    assert abs(measures.sum() - 1.0) <= 1e-12


def _density_reference(model, n_mc=10**6, seed=0):
    """density_from_model as written before exact cell measures: the arc
    branch on the circle, Monte Carlo frequencies and an argmax lookup on S^2."""
    pts = model.ps.points
    if model.ps.h_sep <= 1e-12:
        raise ContractError("duplicate directions make Voronoi cells degenerate")
    if model.d == 1:
        ang = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
        order = np.argsort(ang)
        sa = ang[order]
        mids = (sa[:-1] + sa[1:]) / 2.0
        bounds = np.concatenate([[sa[0] - (2 * math.pi - sa[-1] + sa[0]) / 2], mids])
        widths = np.diff(np.append(bounds, bounds[0] + 2.0 * math.pi))
        measures = np.empty(len(pts))
        measures[order] = widths / (2.0 * math.pi)
    elif model.d == 2:
        rng = np.random.Generator(np.random.Philox(seed))
        g = rng.standard_normal((n_mc, 3))
        samples = g / np.linalg.norm(g, axis=1, keepdims=True)
        idx = np.argmax(samples @ pts.T, axis=1)
        measures = np.bincount(idx, minlength=len(pts)) / n_mc
    else:
        raise ConfigurationError("density recovery implemented for d in {1,2}")
    with np.errstate(divide="ignore"):
        vals = np.where(measures > 0.0, model.a / measures, 0.0)

    def psi(eta: np.ndarray) -> np.ndarray:
        eta = np.atleast_2d(np.asarray(eta, dtype=float))
        return vals[np.argmax(eta @ pts.T, axis=1)]

    return measures, psi


def _sphere_model(pts, a=None):
    ps = PointSet(pts.shape[1] - 1, pts, math.pi, separation(pts), 0.0)
    return FiniteNeuronModel(ps.d, 1, ps, np.ones(ps.n) if a is None else a, on_sphere=True)


def _platonic(n):
    """Vertices of the Platonic solid with n vertices, on the unit sphere."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0

    def cyclic(a, b):  # the cyclic permutations of (0, +-a, +-b)
        return [np.roll([0.0, s * a, t * b], r) for s in (-1, 1) for t in (-1, 1) for r in range(3)]

    cube = list(itertools.product([-1.0, 1.0], repeat=3))
    rows = {
        4: [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
        6: np.vstack([np.eye(3), -np.eye(3)]),
        8: cube,
        12: cyclic(1.0, phi),
        20: cube + cyclic(1.0 / phi, phi),
    }[n]
    return _unit(rows)


@pytest.mark.parametrize("n", [4, 6, 8, 12, 20])
def test_platonic_cells_are_equal(n):
    measures, _ = density_from_model(_sphere_model(_platonic(n)))
    assert len(measures) == n
    np.testing.assert_allclose(measures, 1.0 / n, rtol=0.0, atol=1e-12)


S2_KINDS = ["uniform", "hemisphere", "small_cap", "coplanar", "nearly_coplanar"]


def _s2_set(kind, n, rng):
    if kind in ("uniform", "hemisphere", "small_cap"):
        g = rng.standard_normal((n, 3))
        if kind == "hemisphere":
            g[:, 2] = np.abs(g[:, 2])
        if kind == "small_cap":  # within ~0.15 of the north pole
            g[:, 2] = np.abs(g[:, 2]) + 20.0
        return _unit(g)
    c = 0.0 if rng.uniform() < 0.3 else rng.uniform(-0.9, 0.9)  # a great or a small circle
    z = np.full(n, c)
    if kind == "nearly_coplanar":  # spreads on both sides of the rank tolerance UNIT_TOL
        z += 10.0 ** rng.uniform(-15.0, -5.0) * rng.standard_normal(n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(1.0 - z**2)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(S2_KINDS), n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_s2_cell_measures_properties(kind, n, seed):
    """Exact cells are nonempty, tile the sphere and turn with it."""
    rng = np.random.Generator(np.random.Philox(seed))
    pts = _s2_set(kind, n, rng)
    assume(separation(pts) > 1e-6)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    measures, _ = density_from_model(_sphere_model(pts))
    turned, _ = density_from_model(_sphere_model(pts @ (q * np.sign(np.diag(r))).T))
    assert np.all(measures > 0.0)
    assert abs(measures.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(turned, measures, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("strategy", ["equispaced_circle", "uniform_random"])
def test_circle_measures_bit_identical_to_reference(strategy):
    for n in (1, 2, 3, 5, 16, 37, 100, 255, 512):
        model = _sphere_model(generate_points(1, n, strategy, seed=n).points)
        assert np.array_equal(density_from_model(model)[0], _density_reference(model)[0])


MC_SETS = {
    "fibonacci_24": lambda: generate_points(2, 24, "fibonacci_s2").points,
    "uniform_24": lambda: generate_points(2, 24, "uniform_random", seed=5).points,
    "two": lambda: _unit([[1.0, 0.2, 0.3], [-0.4, 1.0, 0.1]]),
    "three": lambda: _unit([[1.0, 0.2, 0.3], [-0.4, 1.0, 0.1], [0.3, -0.5, -1.0]]),
    "great_circle": lambda: _s2_set("coplanar", 7, np.random.Generator(np.random.Philox(1))),
    "small_circle": lambda: np.column_stack(
        [0.8 * np.cos(np.arange(6) ** 1.5), 0.8 * np.sin(np.arange(6) ** 1.5), np.full(6, 0.6)]
    ),
}


@pytest.mark.parametrize("name", sorted(MC_SETS))
def test_cell_measures_match_monte_carlo(name):
    model = _sphere_model(MC_SETS[name]())
    n_mc = 10**5
    exact, _ = density_from_model(model)
    mc, _ = _density_reference(model, n_mc=n_mc, seed=1)
    assert np.all(np.abs(mc - exact) <= 5.0 * np.sqrt(exact * (1.0 - exact) / n_mc))


def test_cell_measures_match_spherical_voronoi():
    for pts in (generate_points(2, 100, "fibonacci_s2").points, generate_points(2, 512, "uniform_random").points):
        want = SphericalVoronoi(pts).calculate_areas() / (4.0 * math.pi)
        np.testing.assert_allclose(density_from_model(_sphere_model(pts))[0], want, rtol=0.0, atol=1e-13)


def test_psi_matches_argmax_reference():
    rng = np.random.Generator(np.random.Philox(3))
    for d, n in ((1, 37), (2, 200)):
        pts = generate_points(d, n, "uniform_random", seed=4).points
        model = _sphere_model(pts, rng.standard_normal(n))
        measures, psi = density_from_model(model)
        eta = _unit(rng.standard_normal((5000, d + 1))) * rng.uniform(0.5, 2.0, (5000, 1))
        assert np.array_equal(psi(eta), (model.a / measures)[np.argmax(eta @ pts.T, axis=1)])
        if d == 1:
            assert np.array_equal(psi(eta), _density_reference(model)[1](eta))


def test_psi_holds_no_rows_by_n_array():
    n, rows = 256, 4096
    _, psi = density_from_model(_sphere_model(generate_points(2, n, "fibonacci_s2").points))
    eta = _unit(np.random.Generator(np.random.Philox(0)).standard_normal((rows, 3)))
    tracemalloc.start()
    psi(eta)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < rows * n * 8 / 16


def test_density_rejects_off_sphere_directions():
    rng = np.random.Generator(np.random.Philox(2))
    for d, n in ((1, 8), (2, 3), (2, 40)):
        pts = _unit(rng.standard_normal((n, d + 1)))
        pts[0] *= 1.0 + 1e-6
        ps = PointSet(d, pts, math.pi, 0.1, 0.0)
        with pytest.raises(ContractError, match="unit vectors"):
            density_from_model(FiniteNeuronModel(d, 1, ps, np.ones(n), on_sphere=True))


def test_density_rejects_directions_the_hull_cannot_resolve():
    """Directions 1e-9 apart are distinct, but qhull merges them into one vertex."""
    rng = np.random.Generator(np.random.Philox(1))
    pts = generate_points(2, 30, "fibonacci_s2").points
    pts = np.vstack([pts, _unit(pts[0] + 1e-9 * rng.standard_normal((5, 3)))])
    with pytest.raises(ContractError, match="too close"):
        density_from_model(_sphere_model(pts))


def test_ls_no_worse_than_constructive_on_sphere():
    ps, rule, spec, grid = circle_setup(n=32)

    def g(eta):
        phi = np.arctan2(np.atleast_2d(eta)[:, 1], np.atleast_2d(eta)[:, 0])
        return np.exp(np.sin(2.0 * phi))

    target = TargetFunction("smooth", 1, g, on_sphere=True, parity=1)
    cons = constructive_fit(target, rule, spec, grid)
    ls = least_squares_fit(target, ps, grid.nodes, grid.weights, k=1)
    err_cons = math.sqrt(float(grid.weights @ (cons(grid.nodes) - g(grid.nodes)) ** 2))
    err_ls = math.sqrt(float(grid.weights @ (ls(grid.nodes) - g(grid.nodes)) ** 2))
    assert err_ls <= err_cons + 1e-12


B = EVAL_BLOCK_ROWS


@settings(max_examples=60, deadline=None)
@given(
    rows=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 3]),
    k=st.integers(0, 3),
    d=st.integers(1, 2),
    n=st.integers(1, 12),
    on_sphere=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_evaluation_matches_one_shot(rows, k, d, n, on_sphere, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.standard_normal((n, d + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ps = PointSet(d, pts, math.pi, max(separation(pts), 1e-3), 0.0)
    a = rng.standard_normal(n)
    model = FiniteNeuronModel(d, k, ps, a, on_sphere=on_sphere)
    x = rng.uniform(-1.5, 1.5, (rows, d + 1 if on_sphere else d))
    xt = x if on_sphere else np.column_stack([x, np.ones(rows)])
    z = xt @ pts.T
    scale = np.abs(sigma_k(k, z)) @ np.abs(a)
    assert np.all(np.abs(model(x) - sigma_k(k, z) @ a) <= 1e-13 * scale)
    assert np.array_equal(features(ps, k, x), sigma_k(k, z))
    if k >= 1:
        phi, dphi = features(ps, k, x, grad=True)
        assert np.array_equal(phi, sigma_k(k, z)) and np.array_equal(dphi, sigma_k_prime(k, z))
    if k >= 1 and not on_sphere:
        want = (sigma_k_prime(k, z) * a) @ pts[:, :d]
        gscale = (np.abs(sigma_k_prime(k, z)) @ np.abs(a))[:, None]
        assert np.all(np.abs(model.gradient(x) - want) <= 1e-13 * gscale)


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
    model = least_squares_fit(target, ps, pts, w, k=k, **path)
    want = _ls_reference(target, ps, pts, w, k, **path)
    ridge = path.get("ridge", 0.0)
    got_obj = _ridge_objective(target, ps, pts, w, k, model.a, ridge)
    assert got_obj <= _ridge_objective(target, ps, pts, w, k, want, ridge) * (1.0 + 1e-10)
    assert np.linalg.norm(model.a - want) <= 1e-8 * np.linalg.norm(want)
    if "norm_cap" in path:  # the cap path is exercised only if the cap binds
        free = least_squares_fit(target, ps, pts, w, k=k)
        assert coef_stat(free)[1] > path["norm_cap"]


def _unit(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _direction_set(d, pts):
    return PointSet(d, pts, math.pi, max(separation(pts), 1e-3), 0.0)


def _small_grid(d, radius, rows, rng):
    """rows random points in the ball of the given radius, random weights summing to 1."""
    x = rng.standard_normal((rows, d))
    x *= (radius * rng.uniform(0.0, 1.0, rows) ** (1.0 / d) / np.linalg.norm(x, axis=1))[:, None]
    w = rng.uniform(0.5, 1.5, rows)
    return x, w / w.sum()


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
def test_pruned_fit_solves_the_full_problem(d, k, n, strategy, radius, path, seed):
    """Dead, polynomial and live neurons on a shrunk grid: dead coefficients are
    exactly 0, the polynomial block carries no null-space component (the
    minimum-norm choice), and the ridge objective is no worse than the
    full-design reference's."""
    rng = np.random.Generator(np.random.Philox(seed))
    if strategy == "structured":
        ps0 = generate_points(d, max(n, 2), "equispaced_circle" if d == 1 else "fibonacci_s2")
        pts = ps0.points
    else:
        pts = _unit(rng.standard_normal((n, d + 1)))
    # one direction of each class: dead (b = -1), polynomial (b = 1), live (b = 0)
    extra = np.zeros((3, d + 1))
    extra[0, d], extra[1, d], extra[2, 0] = -1.0, 1.0, 1.0
    ps = _direction_set(d, np.vstack([pts, extra]))
    x, w = _small_grid(d, radius, 3 * ps.n + 20, rng)
    target = get_target("gaussian_bump", d)
    if path == "cap":
        free = coef_stat(least_squares_fit(target, ps, x, w, k=k))[1]
        path = {"norm_cap": 0.5 * free}
    model = least_squares_fit(target, ps, x, w, k=k, **path)
    a = model.a
    r = float(np.max(np.linalg.norm(x, axis=1)))
    b, wn = ps.points[:, d], np.linalg.norm(ps.points[:, :d], axis=1)
    dead, poly = b + wn * r < -1e-12, b - wn * r > 1e-12
    assert dead[-3] and poly[-2] and not (dead[-1] or poly[-1])
    assert np.all(a[dead] == 0.0)
    null = _polynomial_null_space(ps, k, poly, rng)
    assert np.linalg.norm(null @ a[poly]) <= 1e-8 * max(np.linalg.norm(a), 1e-300)
    ridge = path.get("ridge", 0.0)
    want = _ls_reference(target, ps, x, w, k, **path)
    got_obj = _ridge_objective(target, ps, x, w, k, a, ridge)
    want_obj = _ridge_objective(target, ps, x, w, k, want, ridge)
    assert got_obj <= want_obj * (1.0 + 1e-10) + 1e-13 * float(w @ target(x) ** 2)


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
        T, V = _polynomial_block(ps, k, poly)
        phi = features(ps, k, pts)
        assert np.all(phi[:, dead] == 0.0)
        idx, _ = _monomials(2, k)
        rebuilt = np.prod(xt[:, idx], axis=2) @ T @ V.T
        assert np.max(np.abs(rebuilt - phi[:, poly])) <= 1e-13 * np.max(np.abs(phi[:, poly]))
        for path in ({}, {"ridge": 1e-9}):
            assert np.all(least_squares_fit(target, ps, pts, w, k=k, **path).a[dead] == 0.0)


@pytest.mark.parametrize("path", [{}, {"ridge": 1e-6}, {"norm_cap": 1e-3}], ids=["lstsq", "ridge", "cap"])
def test_every_direction_dead_gives_zero_coefficients(path):
    pts, w = domain_grid(2, 4096)
    ps = _direction_set(2, _unit([[1.0, 0.0, -1.5], [0.0, 1.0, -1.2], [-0.6, 0.8, -2.0]]))
    model = least_squares_fit(get_target("gaussian_bump", 2), ps, pts, w, k=2, **path)
    assert np.array_equal(model.a, np.zeros(3))


@pytest.mark.parametrize("path", [{}, {"ridge": 1e-9}, {"norm_cap": 0.05}], ids=["lstsq", "ridge", "cap"])
def test_fewer_polynomial_directions_than_monomials(path):
    """k=3 on the disk has 10 monomials; 4 polynomial directions span only 4 of them."""
    pts, w = domain_grid(2, 4096)
    rng = np.random.Generator(np.random.Philox(4))
    poly_dirs = np.column_stack([0.3 * rng.standard_normal((4, 2)), np.full(4, 2.0)])
    live_dirs = np.column_stack([_unit(rng.standard_normal((12, 2))), rng.uniform(-0.3, 0.3, 12)])
    ps = _direction_set(2, _unit(np.vstack([poly_dirs, live_dirs])))
    poly = np.arange(16) < 4
    T, V = _polynomial_block(ps, 3, poly)
    assert T.shape == (10, 4) and V.shape == (4, 4)
    target = get_target("gaussian_bump", 2)
    model = least_squares_fit(target, ps, pts, w, k=3, **path)
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
    cap = 0.5 * coef_stat(least_squares_fit(target, ps, pts, w, k=2))[1]
    with caplog.at_level(logging.DEBUG, logger="fnspace.models"):
        model = least_squares_fit(target, ps, pts, w, k=2, norm_cap=cap)
    lam = [json.loads(r.getMessage()) for r in caplog.records if "lam" in r.getMessage()][0]["lam"]
    assert 1e-12 < lam < 1e-10  # the cap binds near the Gram's rounding level
    sw = np.sqrt(w)
    U, s, Vt = np.linalg.svd(features(ps, 2, pts) * sw[:, None], full_matrices=False)
    want = Vt.T @ (s / (s**2 + lam) * (U.T @ (target(pts) * sw)))
    want *= min(1.0, cap / (math.sqrt(ps.n) * np.linalg.norm(want)))
    assert np.linalg.norm(model.a - want) <= 1e-8 * np.linalg.norm(want)


def _fit_records(caplog, *args, **kwargs):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fnspace.models"):
        least_squares_fit(*args, **kwargs)
    return [json.loads(r.getMessage()) for r in caplog.records if r.name == "fnspace.models"]


def test_least_squares_fit_diagnostics_record(caplog):
    pts, w = domain_grid(2, 4096)
    ps = generate_points(2, 96, "fibonacci_s2")
    target = get_target("gaussian_bump", 2)
    (info,) = _fit_records(caplog, target, ps, pts, w, k=2, ridge=1e-9)
    r = float(np.max(np.linalg.norm(pts, axis=1)))
    b, wn = ps.points[:, 2], np.linalg.norm(ps.points[:, :2], axis=1)
    dead, poly = int(np.sum(b + wn * r < -1e-12)), int(np.sum(b - wn * r > 1e-12))
    assert info == {
        "rows": len(pts), "n": 96, "live": 96 - dead - poly, "polynomial": poly,
        "dead": dead, "columns": 96 - dead - poly + 6, "path": "solve",
    }
    assert dead > 0 and poly > 6  # six monomials of degree 2 stand in for the polynomial block
    assert _fit_records(caplog, target, ps, pts, w, k=2)[0]["path"] == "lstsq"
    capped = _fit_records(caplog, target, ps, pts, w, k=2, norm_cap=1.0)
    assert [r.get("path") for r in capped] == [None, "cap"]  # ridge_bisect_cap's record first
    sphere = get_target("smooth_even_circle", 1)
    grid = reference_grid(1, 256)
    (info,) = _fit_records(caplog, sphere, generate_points(1, 16, "equispaced_circle"), grid.nodes, grid.weights)
    assert (info["live"], info["polynomial"], info["dead"], info["columns"]) == (16, 0, 0, 16)


def test_least_squares_fit_quiet_by_default(caplog):
    pts, w = domain_grid(2, 4096)
    least_squares_fit(get_target("gaussian_bump", 2), generate_points(2, 16, "fibonacci_s2"), pts, w)
    assert not [r for r in caplog.records if r.name == "fnspace.models"]


def test_ridge_fit_holds_no_full_design():
    """A ridge fit at n=256 on 40960 rows accumulates the Gram over row blocks:
    its peak allocation stays far below one rows x n design (84 MB)."""
    pts, w = domain_grid(2, 40960)
    ps = generate_points(2, 256, "fibonacci_s2")
    target = get_target("gaussian_bump", 2)
    tracemalloc.start()
    try:
        least_squares_fit(target, ps, pts, w, k=1, ridge=1e-9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) == 40960 and peak < len(pts) * ps.n * 8 / 8


def test_error_norms_match_direct_evaluation():
    ps = generate_points(2, 48, "fibonacci_s2")
    pts, w = domain_grid(2, 4096)
    pts, w = pts[: 3 * B + 5], w[: 3 * B + 5]  # a partial last block
    target = get_target("gaussian_bump", 2)
    model = least_squares_fit(target, ps, pts, w, k=2)
    l2, h1 = error_norms(model, target, pts, w, s=1)
    z = np.column_stack([pts, np.ones(len(pts))]) @ ps.points.T
    diff = sigma_k(2, z) @ model.a - target(pts)
    gdiff = (sigma_k_prime(2, z) * model.a) @ ps.points[:, :2] - target.grad(pts)
    assert l2 == pytest.approx(math.sqrt(float(np.dot(w, diff**2))), rel=1e-13)
    h1_direct = math.sqrt(float(np.dot(w, np.sum(gdiff**2, axis=1))))
    assert h1 == pytest.approx(h1_direct, rel=1e-13)
    assert error_norms(model, target, pts, w, s=0) == (l2, 0.0)


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
