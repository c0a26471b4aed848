"""Point configurations on the unit sphere S^d in R^{d+1}.

Mesh norm (covering radius) and separation are the two diagnostics that
drive every approximation-rate experiment.  On the circle the mesh norm
is exact, from sorted angles.  On S^2 it is searched on a Fibonacci grid
with covering radius below the requested resolution: the reported h is
the largest geodesic distance from a grid point to its nearest direction,
plus the resolution, so it over-estimates the true mesh norm by at most
that resolution.

Only the grid points that can hold that maximum are queried.  For unit
directions the facets of their convex hull are the spherical Delaunay
triangles; facet t has outward unit normal v_t and chord circumradius
c_t = max_a |v_t - p_a| over its vertices p_a.  A point x of the
spherical triangle is x = y/|y| with y = sum_a alpha_a p_a on the facet
plane and |y| <= 1.  With b_t = min_a v_t.p_a > 0, max_a x.p_a >= |y| >=
v_t.y >= b_t and v_t.x = v_t.y/|y| >= b_t: x lies within c_t of a vertex
and within c_t of v_t.  When the origin is strictly inside the hull these
triangles cover the sphere.  The exact nearest distances of the grid
points nearest to the v_t give a lower bound L on the grid maximum, so
every grid point that attains it lies in a circumcap with c_t >= L.  L is
taken over the facets with c_t >= max c_t - 2 resolution - HULL_SLACK
only, and is the same as over all facets: a Delaunay circumcap holds no
direction, so the nearest direction to v_t is at chord c_t, and the grid
point g_t nearest v_t, within chord resolution of it, has its nearest
direction within c_t +- resolution.  The widest facet's g_t is at least
max c_t - resolution from the set, which a facet below that threshold
cannot exceed, so h does not change by a bit.  Those
caps, widened by HULL_SLACK, are searched, and of their grid points only
those at least L - HULL_SLACK from the facet's vertices are queried, since
a point nearer a vertex is nearer than L to the set.  Each queried point
gets the chord that querying the whole grid would give it, from the same
tree, and the maximum over a set holding the argmax is the grid maximum,
so h equals the whole-grid search bit for bit.  Where no hull bound
exists (n < 4, a flat hull, or an origin on or outside the hull), or the
caps to search hold the sphere's area HULL_CAP_COVER times over (nearly
coplanar directions, whose caps are hemispheres), the whole grid is
queried.  Each S^2 mesh norm sends one JSON debug record to
the "fnspace.sphere" logger, quiet by default: n, the grid size, the grid
points queried, the bound used and h.

Separation is 2 arcsin(chord/2) of the nearest-neighbour chord from the
same cKDTree, which is also accurate at small angles.  Both diagnostics
hold for unit rows only, so off-sphere rows raise ContractError.

Random strategies use numpy's Philox counter-based generator, so a seed
identifies the point set portably.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import cdist

from .errors import ConfigurationError, ContractError

__all__ = [
    "geodesic_distance",
    "PointSet",
    "generate_points",
    "mesh_norm",
    "separation",
    "pointset_to_json",
    "pointset_from_json",
]

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
UNIT_TOL = 1e-12
# chord slack on the hull bound, so the queried set always holds the maximum
HULL_SLACK = 1e-9
# searched caps covering this many spheres' area, with overlap, query the whole grid
HULL_CAP_COVER = 1.0

_log = logging.getLogger("fnspace.sphere")


def _check_unit(v: np.ndarray) -> None:
    if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_TOL:
        raise ContractError("direction is not a unit vector")


def _check_unit_rows(points: np.ndarray) -> None:
    if len(points) and np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) > UNIT_TOL:
        raise ContractError("points must be unit vectors")


def geodesic_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Great-circle distance arccos(u . v), in [0, pi]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ContractError("directions must have equal dimension")
    _check_unit(u)
    _check_unit(v)
    return float(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0)))


def _separation(tree: cKDTree) -> float:
    if tree.n < 2:
        return math.pi
    chord, _ = tree.query(tree.data, k=2)
    return float(2.0 * np.arcsin(min(float(np.min(chord[:, 1])) / 2.0, 1.0)))


def separation(points: np.ndarray) -> float:
    """Minimal pairwise geodesic distance of unit rows."""
    points = np.asarray(points, dtype=float)
    _check_unit_rows(points)
    return _separation(cKDTree(points))


@lru_cache(maxsize=8)
def _search_grid(d: int, resolution: float) -> cKDTree:
    """Covering grid of S^d with covering radius <= resolution, as a tree
    whose .data is the grid."""
    if d != 2:
        raise ConfigurationError("mesh-norm grid search implemented for d=2")
    # Fibonacci grid covering radius is below 2.6/sqrt(N); 3.0 is margin
    n = max(64, int(math.ceil((3.0 / resolution) ** 2)))
    return cKDTree(_fibonacci_sphere(n), balanced_tree=False)


def _circle_mesh_norm(points: np.ndarray) -> float:
    ang = np.sort(np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * math.pi))
    gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
    return float(np.max(gaps)) / 2.0


def _hull_caps(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Circumcenters v_t, chord circumradii c_t and vertices of the hull
    facets of unit rows, or None where the facets do not cover S^2 (see the
    module docstring)."""
    if len(points) < 4:
        return None
    try:
        hull = ConvexHull(points)
    except QhullError:
        return None
    if np.max(hull.equations[:, -1]) >= -HULL_SLACK:
        return None
    centers = hull.equations[:, :-1]
    vertices = points[hull.simplices]
    radii = np.max(np.linalg.norm(vertices - centers[:, None, :], axis=2), axis=1)
    return centers, radii, vertices


def _grid_mesh_norm(tree: cKDTree, d: int, resolution: float) -> float:
    if d == 1:
        return _circle_mesh_norm(tree.data)
    grid = _search_grid(d, resolution)
    caps = _hull_caps(tree.data)
    if caps is None:
        queried = grid.data
    else:
        centers, radii, vertices = caps
        # the grid points nearest the widest v_t bound the grid maximum from below
        _, nearest = grid.query(centers[radii >= np.max(radii) - 2.0 * resolution - HULL_SLACK])
        lower = np.max(tree.query(grid.data[nearest])[0]) - HULL_SLACK
        keep = np.flatnonzero(radii >= lower)
        # a chord-c cap holds c^2/4 of the sphere: caps that hold it all,
        # counted with overlap, cost more to search than the whole grid
        if np.sum((radii[keep] + HULL_SLACK) ** 2) >= 4.0 * HULL_CAP_COVER:
            queried = grid.data
        else:
            candidates = []
            for t, idx in zip(keep, grid.query_ball_point(centers[keep], radii[keep] + HULL_SLACK)):
                idx = np.asarray(idx, dtype=np.intp)
                candidates.append(idx[np.min(cdist(grid.data[idx], vertices[t]), axis=1) >= lower])
            queried = grid.data[np.unique(np.concatenate(candidates))]
    chord, _ = tree.query(queried, k=1)
    worst = float(np.max(np.arccos(np.clip(1.0 - chord**2 / 2.0, -1.0, 1.0))))
    h = worst + resolution
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s", json.dumps({
            "n": tree.n, "grid": grid.n, "queried": len(queried),
            "bound": "grid" if len(queried) == grid.n else "hull", "h": h,
        }))
    return h


@dataclass(frozen=True)
class PointSet:
    """Directions on S^d with cached covering/packing diagnostics.

    h over-estimates the true mesh norm by at most h_resolution
    (h_resolution == 0 means h is exact, as on the circle).
    """

    d: int
    points: np.ndarray = field(repr=False)
    h: float
    h_sep: float
    h_resolution: float
    strategy: str = "custom"
    seed: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d + 1:
            raise ContractError("points must have shape (n, d+1)")
        if self.h_sep <= 0.0:
            raise ContractError("point set contains duplicate points")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)


def mesh_norm(points, d: int | None = None, resolution: float = 0.01) -> float:
    """Covering radius estimate via dense grid search (exact on the circle).

    Accepts either a PointSet or a raw (n, d+1) array of unit rows with d
    given.
    """
    if isinstance(points, PointSet):
        d = points.d
        points = points.points
    elif d is None:
        raise ContractError("d is required for raw coordinate arrays")
    if resolution <= 0.0:
        raise ContractError("resolution must be positive")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != d + 1:
        raise ContractError("points must have shape (n, d+1)")
    _check_unit_rows(points)
    return _grid_mesh_norm(cKDTree(points), d, resolution)


def _make_pointset(
    points: np.ndarray, d: int, resolution: float, strategy: str, seed: int
) -> PointSet:
    tree = cKDTree(points)
    h = _grid_mesh_norm(tree, d, resolution)
    res = 0.0 if d == 1 else resolution
    return PointSet(d, points, h, _separation(tree), res, strategy, seed)


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    phi = GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _equispaced_circle(n: int, offset: float = 0.0) -> np.ndarray:
    ang = 2.0 * math.pi * np.arange(n) / n + offset
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _uniform_random(d: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(seed))
    g = rng.standard_normal((n, d + 1))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _petrushev_tensor(d: int, n: int, seed: int) -> np.ndarray:
    # n1 ~ n^{(d-1)/d} directions on S^{d-1} x n2 ~ n^{1/d} bias levels,
    # normalized onto the band of S^d by (w, b) / sqrt(1 + b^2)
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif d == 2:
        n1 = max(2, round(n ** ((d - 1) / d)))
        dirs = _equispaced_circle(n1)
    else:
        raise ConfigurationError("petrushev_tensor implemented for d in {1,2}")
    n2 = max(1, round(n / len(dirs)))
    b = -1.0 + 2.0 * (np.arange(n2) + 0.5) / n2
    w = np.repeat(dirs, n2, axis=0)
    bb = np.tile(b, len(dirs))
    raw = np.column_stack([w, bb])
    return raw / np.sqrt(1.0 + bb**2)[:, None]


def _band_with_poly_completion(
    d: int, n: int, k: int, lam: float, seed: int
) -> np.ndarray:
    n_cap = math.comb(k + d, d)
    if n < n_cap:
        raise ConfigurationError(
            f"band_with_poly_completion needs n >= C(k+d,d) = {n_cap}"
        )
    z_band = lam / math.sqrt(1.0 + lam**2)
    n_band = n - n_cap
    if d == 1:
        # cap points: small arc near the north pole (inside the upper cap)
        half = 0.5 * (math.pi / 2.0 - math.asin(z_band))
        base = math.pi / 2.0
        cap_ang = base + half * (np.arange(n_cap) - (n_cap - 1) / 2.0) / max(n_cap, 1)
        cap = np.column_stack([np.cos(cap_ang), np.sin(cap_ang)])
        # band: two arcs |sin(angle)| <= z_band, equispaced within each
        amax = math.asin(z_band)
        per = max(n_band // 2, 1)
        a1 = np.linspace(-amax, amax, per)
        a2 = np.pi + np.linspace(-amax, amax, n_band - per) if n_band - per > 0 else []
        ang = np.concatenate([a1, np.asarray(a2, dtype=float)])[:n_band]
        band = np.column_stack([np.cos(ang), np.sin(ang)])
    elif d == 2:
        # cap: Fibonacci patch shrunk into the upper cap
        patch = _fibonacci_sphere(max(n_cap, 4))[:n_cap]
        shrink = 0.4 * (1.0 - z_band)
        z = 1.0 - shrink * (1.0 - patch[:, 2])
        r_old = np.sqrt(np.clip(1.0 - patch[:, 2] ** 2, 1e-30, None))
        r_new = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
        cap = np.column_stack(
            [patch[:, 0] / r_old * r_new, patch[:, 1] / r_old * r_new, z]
        )
        # band: Fibonacci z-profile squeezed into |z| <= z_band
        i = np.arange(n_band)
        z = z_band * (1.0 - (2.0 * i + 1.0) / max(n_band, 1))
        r = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
        phi = GOLDEN_ANGLE * i
        band = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    else:
        raise ConfigurationError("band_with_poly_completion implemented for d in {1,2}")
    points = np.vstack([cap, band])
    _check_cap_independence(points[:n_cap], d, k, seed)
    return points


def _check_cap_independence(cap: np.ndarray, d: int, k: int, seed: int) -> None:
    """Rank check: the cap monomials (theta . x~)^k must be independent."""
    rng = np.random.Generator(np.random.Philox(seed + 0x9E37))
    x = rng.uniform(-1.0, 1.0, size=(4 * len(cap) + 16, d))
    xt = np.column_stack([x, np.ones(len(x))])
    cols = (xt @ cap.T) ** k
    norms = np.linalg.norm(cols, axis=0)
    if np.any(norms == 0.0):
        raise ConfigurationError("degenerate polynomial-completion direction")
    s = np.linalg.svd(cols / norms, compute_uv=False)
    if s[-1] <= 1e-8:
        raise ConfigurationError(
            "polynomial-completion directions are numerically dependent"
        )


def generate_points(
    d: int,
    n: int,
    strategy: str,
    seed: int = 0,
    resolution: float = 0.01,
    offset: float = 0.0,
    k: int = 1,
    lam: float = 1.0,
) -> PointSet:
    """Deterministic point-set generation; h and h_sep are computed on return.

    Strategies: equispaced_circle (d=1), fibonacci_s2 (d=2), uniform_random
    (any supported d), petrushev_tensor, band_with_poly_completion
    (needs k and the domain radius lam).
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if strategy == "equispaced_circle":
        if d != 1:
            raise ConfigurationError("equispaced_circle requires d=1")
        pts = _equispaced_circle(n, offset)
    elif strategy == "fibonacci_s2":
        if d != 2:
            raise ConfigurationError("fibonacci_s2 requires d=2")
        pts = _fibonacci_sphere(n)
    elif strategy == "uniform_random":
        pts = _uniform_random(d, n, seed)
    elif strategy == "petrushev_tensor":
        pts = _petrushev_tensor(d, n, seed)
    elif strategy == "band_with_poly_completion":
        pts = _band_with_poly_completion(d, n, k, lam, seed)
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    return _make_pointset(pts, d, resolution, strategy, seed)


def pointset_to_json(ps: PointSet) -> str:
    coords = [[f"{x:.17g}" for x in p] for p in ps.points]
    payload = {
        "d": ps.d,
        "strategy": ps.strategy,
        "seed": ps.seed,
        "resolution": ps.h_resolution,
        "points": coords,
        "h": ps.h,
        "h_sep": ps.h_sep,
    }
    return json.dumps(payload)


def pointset_from_json(text: str) -> PointSet:
    obj = json.loads(text)
    pts = np.array([[float(x) for x in row] for row in obj["points"]])
    return PointSet(
        obj["d"],
        pts,
        obj["h"],
        obj["h_sep"],
        obj["resolution"],
        obj["strategy"],
        obj["seed"],
    )
