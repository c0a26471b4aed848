import json
import logging
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fnspace import sphere
from fnspace.errors import ConfigurationError, ContractError
from fnspace.sphere import (
    PointSet,
    generate_points,
    geodesic_distance,
    mesh_norm,
    pointset_from_json,
    pointset_to_json,
    separation,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])

# frozen regression value: dense-grid mesh-norm search at resolution 0.005
FIB400_H = 0.14128961182426011


def test_geodesic_trivial_cases():
    assert geodesic_distance(E1, E1) == 0.0
    assert geodesic_distance(E1, -E1) == pytest.approx(math.pi)
    assert geodesic_distance(E1, E2) == pytest.approx(math.pi / 2.0)


def test_geodesic_contract_checks():
    with pytest.raises(ContractError):
        geodesic_distance(E1, np.array([1.0, 0.0]))
    with pytest.raises(ContractError):
        geodesic_distance(2.0 * E1, E1)


def test_geodesic_triangle_inequality():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(50):
        u, v, w = rng.standard_normal((3, 3))
        u, v, w = (x / np.linalg.norm(x) for x in (u, v, w))
        assert geodesic_distance(u, w) <= (
            geodesic_distance(u, v) + geodesic_distance(v, w) + 1e-10
        )


def test_equispaced_circle_exact_diagnostics():
    ps = generate_points(1, 4, "equispaced_circle")
    assert ps.h == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert ps.h_sep == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert ps.h_resolution == 0.0
    ps8 = generate_points(1, 8, "equispaced_circle")
    assert ps8.h == pytest.approx(math.pi / 8.0, abs=1e-12)


def test_fibonacci_regression_and_scaling():
    ps = generate_points(2, 400, "fibonacci_s2", resolution=0.005)
    assert ps.h == pytest.approx(FIB400_H, abs=1e-9)
    assert ps.h * math.sqrt(400) < 3.0
    h100 = generate_points(2, 100, "fibonacci_s2", resolution=0.005).h
    assert ps.h / h100 == pytest.approx(0.5, rel=0.2)


def test_fibonacci_mesh_norm_exponent():
    ns = (64, 128, 256, 512, 1024)
    hs = [generate_points(2, n, "fibonacci_s2", resolution=0.005).h for n in ns]
    slope = np.polyfit(np.log(ns), np.log(hs), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_uniform_random_determinism():
    a = generate_points(2, 100, "uniform_random", seed=11)
    b = generate_points(2, 100, "uniform_random", seed=11)
    assert a.h == b.h
    np.testing.assert_array_equal(a.points, b.points)
    c = generate_points(2, 100, "uniform_random", seed=12)
    assert not np.array_equal(a.points, c.points)


def test_uniform_random_mesh_norm_bound():
    n = 256
    meds = [
        generate_points(2, n, "uniform_random", seed=s).h for s in range(20)
    ]
    assert np.median(meds) <= 3.0 * (n / math.log(n)) ** -0.5


def test_covering_packing_consistency():
    sets = [
        generate_points(1, 16, "equispaced_circle"),
        generate_points(2, 128, "fibonacci_s2"),
        generate_points(2, 64, "uniform_random", seed=4),
    ]
    for ps in sets:
        assert ps.h_sep <= 2.0 * ps.h + 2.0 * ps.h_resolution


def test_petrushev_tensor_structure():
    ps = generate_points(2, 100, "petrushev_tensor")
    np.testing.assert_allclose(np.linalg.norm(ps.points, axis=1), 1.0, atol=1e-12)
    assert 0.5 * 100 <= ps.n <= 2 * 100


def test_band_with_poly_completion():
    ps = generate_points(2, 100, "band_with_poly_completion", k=2, lam=1.0)
    assert ps.n == 100
    cap = ps.points[: math.comb(2 + 2, 2)]
    assert np.all(cap[:, 2] > 1.0 / math.sqrt(2.0) - 1e-9)
    with pytest.raises(ConfigurationError):
        generate_points(2, 3, "band_with_poly_completion", k=2, lam=1.0)


def test_generate_points_bad_configs():
    with pytest.raises(ConfigurationError):
        generate_points(2, 10, "equispaced_circle")
    with pytest.raises(ConfigurationError):
        generate_points(1, 10, "fibonacci_s2")
    with pytest.raises(ConfigurationError):
        generate_points(1, 10, "no_such_strategy")


def test_mesh_norm_singleton():
    pt = np.array([[0.0, 0.0, 1.0]])
    h = mesh_norm(pt, 2, resolution=0.02)
    assert h == pytest.approx(math.pi, abs=0.05)


def test_mesh_norm_accepts_pointset():
    ps = generate_points(1, 8, "equispaced_circle")
    assert mesh_norm(ps) == pytest.approx(math.pi / 8.0, abs=1e-12)


def test_duplicate_points_rejected():
    pts = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ContractError):
        PointSet(1, pts, 1.0, separation(pts), 0.0)


def test_json_roundtrip():
    ps = generate_points(2, 50, "fibonacci_s2", resolution=0.02)
    back = pointset_from_json(pointset_to_json(ps))
    np.testing.assert_array_equal(back.points, ps.points)
    assert back.h == ps.h and back.h_sep == ps.h_sep and back.d == ps.d
    assert back.strategy == ps.strategy


@lru_cache(maxsize=4)
def _search_grid_reference(d, resolution):
    n = max(64, int(math.ceil((3.0 / resolution) ** 2)))
    return sphere._fibonacci_sphere(n)


def _grid_mesh_norm_reference(points, d, resolution):
    """The full-grid mesh-norm search that preceded the hull bound, verbatim."""
    if d == 1:
        return sphere._circle_mesh_norm(points)
    grid = _search_grid_reference(d, resolution)
    tree = cKDTree(points)
    chord, _ = tree.query(grid, k=1, workers=-1)
    worst = float(np.max(np.arccos(np.clip(1.0 - chord**2 / 2.0, -1.0, 1.0))))
    return worst + resolution


def _separation_reference(points):
    """Minimal arccos of the pairwise Gram, the former separation."""
    if len(points) < 2:
        return math.pi
    g = np.clip(points @ points.T, -1.0, 1.0)
    np.fill_diagonal(g, -1.0)
    return float(np.arccos(np.max(g)))


@st.composite
def _s2_rows(draw):
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["uniform", "hemisphere", "cap", "great_circle"]))
    rng = np.random.Generator(np.random.Philox(draw(st.integers(0, 2**32 - 1))))
    g = rng.standard_normal((n, 3))
    if kind == "hemisphere":
        g[:, 2] = np.abs(g[:, 2])
        g[: n // 3, 2] = 0.0  # rows on the rim close the hemisphere
    elif kind == "cap":
        g[:, :2] *= draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0]))
        g[:, 2] = 1.0
    elif kind == "great_circle":
        g[:, 2] *= draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        g = g @ q
    rows = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.vstack([rows, rows[: draw(st.integers(0, 3))]])


@given(_s2_rows(), st.sampled_from([0.02, 0.03, 0.05, 0.07, 0.1]))
def test_hull_mesh_norm_equals_full_grid_search(rows, resolution):
    assert mesh_norm(rows, 2, resolution) == _grid_mesh_norm_reference(rows, 2, resolution)


@settings(deadline=None)  # one example takes up to ~0.2 s, near the default deadline
@given(st.integers(12, 60), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_hull_caps_cover_the_sphere_and_bound_the_distance(n, seed, dups):
    rows = sphere._uniform_random(2, n, seed)
    rows = np.vstack([rows, rows[:dups]])
    caps = sphere._hull_caps(rows)
    assume(caps is not None)
    centers, radii, vertices = caps
    grid = sphere._search_grid(2, 0.05).data
    to_center = np.linalg.norm(grid[:, None, :] - centers, axis=2)
    to_vertex = np.linalg.norm(grid[:, None, None, :] - vertices, axis=3).min(axis=2)
    slack = radii + sphere.HULL_SLACK
    assert np.all(((to_center <= slack) & (to_vertex <= slack)).any(axis=1))


STRATEGIES = [
    (1, "equispaced_circle", {}),
    (2, "fibonacci_s2", {}),
    (2, "uniform_random", {}),
    (2, "petrushev_tensor", {}),
    (2, "band_with_poly_completion", {"k": 1, "lam": 0.3}),
    (2, "band_with_poly_completion", {"k": 2, "lam": 1.0}),
    (2, "band_with_poly_completion", {"k": 3, "lam": 3.0}),
]


@pytest.mark.parametrize("d,strategy,kw", STRATEGIES)
def test_generated_mesh_norms_equal_full_grid_search(d, strategy, kw):
    for n in (32, 64, 128, 256, 512):
        ps = generate_points(d, n, strategy, seed=n, **kw)
        assert ps.h == _grid_mesh_norm_reference(ps.points, d, 0.01)
        assert ps.h_sep == pytest.approx(_separation_reference(ps.points), rel=1e-9)


def test_separation_edge_cases():
    pt = np.array([[0.0, 0.0, 1.0]])
    assert separation(pt) == math.pi
    assert separation(np.vstack([pt, pt, -pt])) == 0.0
    assert separation(np.vstack([pt, -pt])) == pytest.approx(math.pi, abs=1e-15)
    ang = np.array([0.0, 1e-6])
    pair = np.column_stack([np.cos(ang), np.sin(ang)])
    assert separation(pair) == pytest.approx(1e-6, rel=1e-12)


def test_off_sphere_rows_rejected():
    pts = generate_points(2, 16, "fibonacci_s2").points.copy()
    pts[3] *= 1.0 + 1e-13
    mesh_norm(pts, 2, resolution=0.05)
    separation(pts)
    pts[3] *= 1.0 + 1e-11
    with pytest.raises(ContractError):
        mesh_norm(pts, 2, resolution=0.05)
    with pytest.raises(ContractError):
        separation(pts)
    with pytest.raises(ContractError):
        mesh_norm(np.array([[0.5, 0.0, 0.0]]), 2)
    with pytest.raises(ContractError):
        mesh_norm(pts[:, :2], 2)


def _mesh_norm_record(caplog, points, resolution=0.01):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fnspace.sphere"):
        h = mesh_norm(points, 2, resolution)
    (record,) = [r for r in caplog.records if r.name == "fnspace.sphere"]
    assert record.levelno == logging.DEBUG
    return h, json.loads(record.getMessage())


def test_mesh_norm_diagnostics_record(caplog):
    pts = generate_points(2, 128, "fibonacci_s2").points
    h, info = _mesh_norm_record(caplog, pts)
    assert info == {"n": 128, "grid": 90000, "queried": info["queried"], "bound": "hull", "h": h}
    assert 0 < info["queried"] < 90000 // 10

    h, info = _mesh_norm_record(caplog, pts[pts[:, 2] >= 0.0], resolution=0.05)
    assert (info["bound"], info["queried"], info["grid"], info["h"]) == ("grid", 3600, 3600, h)


def test_mesh_norm_quiet_by_default(caplog):
    generate_points(2, 32, "fibonacci_s2", resolution=0.05)
    assert not [r for r in caplog.records if r.name == "fnspace.sphere"]
