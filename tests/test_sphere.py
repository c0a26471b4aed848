import json
import logging
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fnspace import pde_erm, sphere
from fnspace.errors import ConfigurationError, ContractError
from fnspace.sphere import (
    PointSet,
    generate_points,
    geodesic_distance,
    pointset_from_json,
    pointset_to_json,
    separation,
)
from fnspace.quadrature import build_rule

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])

# frozen regression value: dense-grid mesh-norm search at resolution 0.005
FIB400_H = 0.14128961182426011


def _searched_h(points, resolution):
    """The S^2 mesh-norm search of unit rows, which may repeat, at a given resolution."""
    return sphere._grid_mesh_norm(cKDTree(points), resolution)


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
    h400 = _searched_h(generate_points(2, 400, "fibonacci_s2").points, 0.005)
    assert h400 == pytest.approx(FIB400_H, abs=1e-9)
    assert h400 * math.sqrt(400) < 3.0
    h100 = _searched_h(generate_points(2, 100, "fibonacci_s2").points, 0.005)
    assert h400 / h100 == pytest.approx(0.5, rel=0.2)


def test_fibonacci_mesh_norm_exponent():
    ns = (64, 128, 256, 512, 1024)
    hs = [generate_points(2, n, "fibonacci_s2").h for n in ns]
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


def test_generate_points_bad_configs():
    with pytest.raises(ConfigurationError):
        generate_points(2, 10, "equispaced_circle")
    with pytest.raises(ConfigurationError):
        generate_points(1, 10, "fibonacci_s2")
    for strategy in ("no_such_strategy", "petrushev_tensor", "band_with_poly_completion"):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            generate_points(2, 64, strategy)


def test_mesh_norm_singleton():
    ps = PointSet(np.array([[0.0, 0.0, 1.0]]))
    assert ps.h == pytest.approx(math.pi, abs=0.05)


def test_every_set_searches_at_the_one_resolution():
    """Beyond the circle, h_resolution is the fixed search resolution (the
    generated sets' h equals the full-grid search at it, tested below)."""
    for d, n, strategy in ((2, 100, "fibonacci_s2"), (2, 64, "uniform_random"), (3, 64, "uniform_random")):
        assert generate_points(d, n, strategy).h_resolution == sphere.MESH_RESOLUTION == 0.01


def test_point_set_options_are_keyword_only():
    pts = generate_points(2, 16, "fibonacci_s2").points
    with pytest.raises(TypeError):
        PointSet(pts, 0.02)
    assert PointSet(pts, strategy="mine", seed=3).strategy == "mine"


def test_h_is_searched_on_first_read_only(caplog):
    """A set that only fits and integrates never searches for h; the first
    read of h searches once, and later reads reuse it."""
    prob = pde_erm.disk_problem()
    with caplog.at_level(logging.DEBUG, logger="fnspace.sphere"):
        ps = generate_points(2, 16, "fibonacci_s2")
        pde_erm.erm_fit(prob, ps, prob.sample(256, 0), k=2)
        build_rule(generate_points(2, 64, "uniform_random", seed=3), 6)
        assert not [r for r in caplog.records if r.name == "fnspace.sphere"]
        h = ps.h
        (record,) = [r for r in caplog.records if r.name == "fnspace.sphere"]
        assert json.loads(record.getMessage())["h"] == h
        assert ps.h == h
        assert len([r for r in caplog.records if r.name == "fnspace.sphere"]) == 1


def test_sets_beyond_s2_construct_without_a_mesh_norm():
    ps = generate_points(3, 64, "uniform_random")
    assert ps.d == 3 and ps.points.shape == (64, 4)
    assert ps.h_sep > 0.0
    with pytest.raises(ConfigurationError, match="d=2"):
        ps.h


def test_duplicate_points_rejected():
    pts = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ContractError):
        PointSet(pts)


def test_directions_nearer_than_the_floor_rejected():
    """The circle of 8 holds (cos pi/2, sin pi/2) = (6.1e-17, 1), which (0, 1) repeats up to rounding."""
    pts = generate_points(1, 8, "equispaced_circle").points
    with pytest.raises(ContractError, match="nearer than"):
        PointSet(np.vstack([pts, [0.0, 1.0]]))
    ang = np.array([0.0, 10.0 * sphere.SEP_FLOOR])
    assert PointSet(np.column_stack([np.cos(ang), np.sin(ang)])).h_sep >= sphere.SEP_FLOOR


def test_json_roundtrip():
    ps = generate_points(2, 50, "fibonacci_s2")
    back = pointset_from_json(pointset_to_json(ps))
    np.testing.assert_array_equal(back.points, ps.points)
    assert back.h == ps.h and back.h_sep == ps.h_sep and back.d == ps.d
    assert back.strategy == ps.strategy


@pytest.mark.parametrize("d, strategy", [(1, "equispaced_circle"), (2, "fibonacci_s2")])
def test_json_d_must_match_the_rows(d, strategy):
    payload = json.loads(pointset_to_json(generate_points(d, 12, strategy)))
    payload["d"] = 3 - d
    with pytest.raises(ContractError, match="does not match rows"):
        pointset_from_json(json.dumps(payload))


@pytest.mark.parametrize("d, strategy, resolution", [(1, "equispaced_circle", 0.01), (2, "fibonacci_s2", 0.005)])
def test_json_resolution_must_be_the_sets(d, strategy, resolution):
    payload = json.loads(pointset_to_json(generate_points(d, 12, strategy)))
    assert payload["resolution"] == (0.0 if d == 1 else 0.01)
    payload["resolution"] = resolution
    with pytest.raises(ContractError, match="h_resolution"):
        pointset_from_json(json.dumps(payload))


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


def _fibonacci_band(n, zmax):
    """A Fibonacci z-profile squeezed into |z| <= zmax: its hull caps are
    wide, so the mesh-norm search queries the whole grid or a single point."""
    i = np.arange(n)
    z = zmax * (1.0 - (2.0 * i + 1.0) / n)
    r = np.sqrt(1.0 - z**2)
    phi = sphere.GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@st.composite
def _s2_rows(draw):
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["uniform", "hemisphere", "cap", "great_circle", "band"]))
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
    elif kind == "band":
        g = _fibonacci_band(n, draw(st.sampled_from([0.1, 0.3, 0.5])))
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        g = g @ q
    rows = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.vstack([rows, rows[: draw(st.integers(0, 3))]])


@given(_s2_rows(), st.sampled_from([0.02, 0.03, 0.05, 0.07, 0.1]))
def test_hull_mesh_norm_equals_full_grid_search(rows, resolution):
    assert _searched_h(rows, resolution) == _grid_mesh_norm_reference(rows, 2, resolution)


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


@pytest.mark.parametrize("resolution", [0.0, -0.01, math.nan])
@pytest.mark.parametrize("d, strategy", [(1, "equispaced_circle"), (2, "fibonacci_s2")])
def test_resolution_must_be_positive(d, strategy, resolution):
    with pytest.raises(ConfigurationError, match="resolution must be > 0"):
        _searched_h(generate_points(d, 16, strategy).points, resolution)


def test_off_sphere_rows_rejected():
    pts = generate_points(2, 16, "fibonacci_s2").points.copy()
    pts[3] *= 1.0 + 1e-13
    PointSet(pts)
    separation(pts)
    pts[3] *= 1.0 + 1e-11
    with pytest.raises(ContractError):
        PointSet(pts)
    with pytest.raises(ContractError):
        separation(pts)
    with pytest.raises(ContractError):
        PointSet(np.array([[0.5, 0.0, 0.0]]))
    with pytest.raises(ContractError):
        PointSet(pts[:, :2])


def _mesh_norm_record(caplog, points, resolution=0.01):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fnspace.sphere"):
        h = _searched_h(points, resolution)
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

    # a hull bound exists, but its caps would hold the sphere's area over again
    band = _fibonacci_band(128, 0.1)
    assert sphere._hull_caps(band) is not None
    h, info = _mesh_norm_record(caplog, band)
    assert (info["bound"], info["queried"], info["grid"], info["h"]) == ("grid", 90000, 90000, h)
    h, info = _mesh_norm_record(caplog, _fibonacci_band(16, 0.3), resolution=0.05)
    assert (info["bound"], info["queried"], info["h"]) == ("hull", 1, h)


def test_mesh_norm_quiet_by_default(caplog):
    generate_points(2, 32, "fibonacci_s2").h
    assert not [r for r in caplog.records if r.name == "fnspace.sphere"]
