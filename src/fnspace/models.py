"""Finite neuron space models: fixed-direction ReLU^k ridge expansions.

A model evaluates f_n(x) = sum_j a_j sigma_k(theta_j . (x, 1)) on a domain
in R^d, or f_n(eta) = sum_j a_j sigma_k(theta_j . eta) when fitted on the
sphere itself.  Two fitting routes are provided: the constructive
coefficient recipe a_j = tau_j sum_m sigma_hat(m)^{-1} (Pi_m g)(theta_j),
which reproduces the harmonic coefficients of g up to the quadrature
degree, and plain (optionally ridge-regularized and norm-capped) least
squares on a sample grid.

Evaluation is row-blocked: each block of EVAL_BLOCK_ROWS inputs forms the
preactivation z = theta . (x, 1) once, in a buffer reused across blocks,
and yields the values sigma_k(z) @ a and, when asked, the gradients
sigma_k'(z) @ (a W) together, so temporaries stay at two blocks of
EVAL_BLOCK_ROWS x n floats whatever the grid size.  least_squares_fit and
pde_erm.erm_fit share one feature map, `features`, and one O(n)-per-step
root search for a norm cap's ridge, _cap_root: erm_fit runs it on one
eigendecomposition of its Gram matrix (ridge_bisect_cap), capped least
squares on the SVD of its QR factor.

least_squares_fit on a domain drops the neurons that are 0 on the whole
grid and fits the ones that are polynomials there through an orthonormal
basis of their span, which leaves the solution unchanged.  A ridge without
a cap accumulates the normal equations, and every other fit a QR factor of
the design, over blocks of rows, so no rows x n design is held (see its
docstring).
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.optimize import brentq
from scipy.spatial import ConvexHull, cKDTree

from .activation import ActivationSpectrum, sigma_k, sigma_k_prime
from .errors import ConfigurationError, ContractError
from .harmonics import ReferenceGrid, harmonic_block, project
from .quadrature import QuadratureRule
from .sphere import UNIT_TOL, PointSet, _check_unit_rows

__all__ = [
    "FiniteNeuronModel",
    "TargetFunction",
    "features",
    "constructive_fit",
    "least_squares_fit",
    "error_norms",
    "coef_stat",
    "density_from_model",
]

CAP_SLACK = 1e-9
# Input rows per evaluation block; a block holds EVAL_BLOCK_ROWS x n floats.
EVAL_BLOCK_ROWS = 256
# A computed preactivation on the unit ball is within ~1e-15 of the exact
# one, so classifying neurons with this margin is exact on the features.
CLASS_MARGIN = 1e-12

_log = logging.getLogger("fnspace.models")


def _lifted(x: np.ndarray, d: int, on_sphere: bool) -> np.ndarray:
    """Inputs as the rows the neurons see: (x, 1), or eta on the sphere."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if on_sphere:
        if x.shape[1] != d + 1:
            raise ContractError("sphere inputs must have d+1 components")
        return x
    if x.shape[1] != d:
        raise ContractError("domain inputs must have d components")
    return np.column_stack([x, np.ones(len(x))])


def features(ps: PointSet, k: int, x: np.ndarray, grad: bool = False, out: np.ndarray | None = None):
    """sigma_k(z), or (sigma_k(z), sigma_k'(z)) with grad, for z = lifted(x) theta^T;
    rows of x with d+1 components are used as they are (sphere points, or
    rows already lifted), rows with d are lifted to (x, 1).  z is written
    to out when given."""
    z = np.matmul(_lifted(x, ps.d, np.shape(x)[-1] == ps.d + 1), ps.points.T, out=out)
    dz = sigma_k_prime(k, z) if grad else None
    sigma_k(k, z, out=z)
    return (z, dz) if grad else z


@dataclass(frozen=True)
class FiniteNeuronModel:
    """Ridge expansion with fixed directions and linear coefficients.

    on_sphere selects the argument convention: False means inputs are
    x in R^d and each neuron sees theta . (x, 1); True means inputs are
    unit vectors eta in R^{d+1} fed to the neurons directly.
    """

    d: int
    k: int
    ps: PointSet
    a: np.ndarray = field(repr=False)
    norm_cap: float = 0.0
    on_sphere: bool = False

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if self.d != self.ps.d:
            raise ContractError(f"model dimension d={self.d} != direction dimension {self.ps.d}")
        if a.shape != (self.ps.n,):
            raise ContractError("coefficient count must match direction count")
        if self.norm_cap > 0.0:
            cap_norm = math.sqrt(self.ps.n) * float(np.linalg.norm(a))
            if cap_norm > self.norm_cap * (1.0 + CAP_SLACK) + CAP_SLACK:
                raise ContractError("coefficients violate the norm cap")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.ps.n

    def _evaluate(
        self, x: np.ndarray, grad: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(values, gradients or None) at the rows of x, block by block."""
        if grad and self.k < 1:
            raise ContractError("gradient undefined for k=0")
        if grad and self.on_sphere:
            raise ContractError("gradient is implemented for domain models only")
        xt = _lifted(x, self.d, self.on_sphere)
        rows = len(xt)
        pt = self.ps.points.T
        values = np.empty(rows)
        z_buf = np.empty((min(rows, EVAL_BLOCK_ROWS), self.n))
        if grad:
            grads = np.empty((rows, self.d))
            aw = self.a[:, None] * self.ps.points[:, : self.d]
            dz_buf = np.empty_like(z_buf)
        else:
            grads = None
        for lo in range(0, rows, EVAL_BLOCK_ROWS):
            hi = min(lo + EVAL_BLOCK_ROWS, rows)
            z = np.matmul(xt[lo:hi], pt, out=z_buf[: hi - lo])
            if grad:
                grads[lo:hi] = sigma_k_prime(self.k, z, out=dz_buf[: hi - lo]) @ aw
            values[lo:hi] = sigma_k(self.k, z, out=z) @ self.a
        return values, grads

    def __call__(self, x: np.ndarray) -> np.ndarray | float:
        single = np.asarray(x).ndim == 1
        out, _ = self._evaluate(x)
        return float(out[0]) if single else out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient in x; requires k >= 1 and on_sphere=False."""
        single = np.asarray(x).ndim == 1
        _, g = self._evaluate(x, grad=True)
        return g[0] if single else g


@dataclass(frozen=True)
class TargetFunction:
    """Named target with evaluator, optional gradient, and metadata.

    on_sphere targets take unit vectors eta in R^{d+1}; for those a parity
    tag records the sign s in g(-eta) = s * g(eta) (constructive fitting
    requires s = (-1)^{k+1}).
    """

    name: str
    d: int
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    on_sphere: bool = False
    parity: int = 0

    def __call__(self, x):
        return self.f(np.asarray(x, dtype=float))


def constructive_fit(
    g: TargetFunction,
    rule: QuadratureRule,
    spec: ActivationSpectrum,
    grid: ReferenceGrid,
) -> FiniteNeuronModel:
    """Coefficients from the harmonic-projection recipe.

    For each support degree m <= J, project g on the reference grid, then
    a_j = tau_j * sum_m sigma_hat(m)^{-1} (Pi_m g)(theta_j).  The fitted
    model reproduces the harmonic coefficients of g up to degree J within
    the rule residual and grid tolerance.
    """
    k = spec.k
    if not g.on_sphere:
        raise ContractError("constructive fitting needs a sphere target")
    if g.parity != (-1) ** (k + 1):
        raise ContractError(
            f"target parity {g.parity} incompatible with k={k}; "
            f"need g(-eta) = {(-1) ** (k + 1)} g(eta)"
        )
    J = rule.J
    if J < k + 1:
        raise ContractError(f"quadrature degree J={J} too coarse; need J >= k+1")
    if grid.degree < 2 * J:
        raise ContractError("reference grid too coarse for the projection degrees")
    samples = g(grid.nodes)
    acc = np.zeros(rule.ps.n)
    for m in spec.support_degrees(hi=J):
        _, proj = project(grid, samples, int(m))
        acc += proj(rule.ps.points) / spec.coefficient(int(m))
    a = rule.weights * acc
    return FiniteNeuronModel(spec.d, k, rule.ps, a, 0.0, on_sphere=True)


def ridge_bisect_cap(G: np.ndarray, c: np.ndarray, n: int, M: float) -> tuple[np.ndarray, float]:
    """(a, lam): smallest ridge lam >= 0 with sqrt(n)||a||_2 <= M, a = (G + lam I)^+ c.

    G = U diag(s) U^T once, then a(lam) = U (U^T c) / (s + lam) costs O(n).
    At lam = 0 eigenvalues at or below lstsq's cutoff eps n s_max are zeroed.
    ||a(lam)|| falls with lam and is at most ||c|| / lam, so a binding cap has
    its root in (0, sqrt(n)||c|| / M]; searching up to twice that survives
    rounding.  a is finally rescaled onto the cap.  One JSON debug record
    per call (n, lam, cap_bound, extreme eigenvalues) goes to the
    "fnspace.models" logger, quiet by default.
    """
    evals, U = np.linalg.eigh(G)
    s = np.maximum(evals, 0.0)  # a Gram matrix; rounding can leave eigenvalues at -eps
    keep = s > np.finfo(float).eps * len(s) * s[-1]
    return _cap_root(s, U, U.T @ c, float(np.linalg.norm(c)), keep, n, M)


def _cap_root(s, U, p, c_norm, keep, n, M) -> tuple[np.ndarray, float]:
    """ridge_bisect_cap given G = U diag(s) U^T, p = U^T c, ||c|| and the
    eigenvalues `keep` inverts at lam = 0."""
    root_n = math.sqrt(n)
    pinv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)

    def coef(lam: float) -> np.ndarray:
        return p * pinv if lam == 0.0 else p / (s + lam)

    def gap(lam: float) -> float:
        return root_n * float(np.linalg.norm(coef(lam))) - M

    binds = bool(gap(0.0) > 0.0)
    lam = brentq(gap, 0.0, 2.0 * root_n * c_norm / M, xtol=1e-300) if binds else 0.0
    a = U @ coef(lam)
    nrm = root_n * float(np.linalg.norm(a))
    if nrm > M:
        a *= M / nrm
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s", json.dumps({"n": int(n), "lam": float(lam), "cap_bound": binds,
                                     "s_min": float(np.min(s)), "s_max": float(np.max(s))}))
    return a, lam


def _monomials(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Variable indices (C(k+d, d) x k) of the degree-k monomials in d+1
    variables, and their multinomial coefficients in (theta . x)^k."""
    combos = list(itertools.combinations_with_replacement(range(d + 1), k))
    coef = [math.factorial(k) / math.prod(math.factorial(c.count(v)) for v in set(c)) for c in combos]
    return np.array(combos, dtype=np.intp).reshape(len(combos), k), np.array(coef)


def _polynomial_block(ps: PointSet, k: int, poly: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, V) with (theta_j . (x, 1))^k over the poly directions = Q(x) T V^T.

    Q holds the degree-k monomials of (x, 1) and M their coefficients in the
    poly neurons; M = U S V^T truncated at its numerical rank r gives
    T = U_r S_r and V = V_r, whose columns are orthonormal.
    """
    idx, coef = _monomials(ps.d, k)
    M = coef[:, None] * np.prod(ps.points[poly][:, idx], axis=2).T
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(np.count_nonzero(S > np.finfo(float).eps * max(M.shape) * S.max(initial=0.0)))
    return U[:, :r] * S[:r], Vt[:r].T


def _solve_reduced(live_ps, k, T, xt, sw, yw, ridge, norm_cap, n) -> np.ndarray:
    """Coefficients for the weighted reduced design B = sw [sigma_k(live) | Q T].

    A ridge without a cap accumulates the upper triangle of G = B^T B (dsyrk)
    and B^T y over blocks of EVAL_BLOCK_ROWS rows held in one reused buffer,
    then solves (G + ridge I) a = B^T y.  Every other fit folds blocks of
    max(EVAL_BLOCK_ROWS, 4 cols) rows of [B | y], stacked under the previous
    factor in one buffer, into the triangular factor [[R, z], [0, rho]] of a
    QR decomposition, so the singular values of B = (Q U) diag(s) V^T come
    from R = U diag(s) V^T without squaring its condition number.  Over the s
    above lstsq's cutoff eps max(rows, cols) s_max, a = V (U^T z / s) is the
    minimum-norm least-squares solution; a cap instead runs the root search
    on G = V diag(s^2) V^T and B^T y = V diag(s) U^T z, which at lam = 0
    inverts the same s.
    """
    rows, n_live = len(xt), live_ps.n
    cols = n_live + T.shape[1]
    idx, _ = _monomials(live_ps.d, k)
    normal = ridge > 0.0 and norm_cap == 0.0
    # the QR re-factors R with every block, so its blocks are at least 4 cols rows
    step = EVAL_BLOCK_ROWS if normal else max(EVAL_BLOCK_ROWS, 4 * cols)
    block = min(rows, step)
    r = 0  # rows of R held above the block
    if normal:
        design = np.empty((block, cols))
        G = np.zeros((cols, cols), order="F")
        By = np.zeros(cols)
    else:  # [R | z] stacked over a block of [B | y] rows
        design = np.empty((cols + 1 + block, cols + 1))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        B = design[r : r + hi - lo]
        features(live_ps, k, xt[lo:hi], out=B[:, :n_live])
        np.matmul(np.prod(xt[lo:hi, idx], axis=2), T, out=B[:, n_live:cols])
        B[:, :cols] *= sw[lo:hi, None]
        if normal:
            dsyrk(1.0, B.T, beta=1.0, c=G, overwrite_c=1)
            By += B.T @ yw[lo:hi]
        else:
            B[:, cols] = yw[lo:hi]
            R = np.linalg.qr(design[: r + hi - lo], mode="r")
            r = len(R)
            design[:r] = R
    if normal:
        G = np.triu(G) + np.triu(G, 1).T + ridge * np.eye(cols)
        return np.linalg.solve(G, By)
    R, z = np.zeros((cols, cols)), np.zeros(cols)
    m = min(r, cols)
    R[:m], z[:m] = design[:m, :cols], design[:m, cols]
    U, s, Vt = np.linalg.svd(R)
    keep = (s > np.finfo(float).eps * max(rows, cols) * s[0]) | (ridge > 0.0)
    if norm_cap == 0.0:
        return Vt.T @ np.divide(U.T @ z, s, out=np.zeros(cols), where=keep)
    p = s * (U.T @ z)
    return _cap_root(s * s + ridge, Vt.T, p, float(np.linalg.norm(p)), keep, n, norm_cap)[0]


def least_squares_fit(
    f: TargetFunction,
    ps: PointSet,
    grid_points: np.ndarray,
    grid_weights: np.ndarray | None = None,
    k: int = 1,
    ridge: float = 0.0,
    norm_cap: float = 0.0,
) -> FiniteNeuronModel:
    """Weighted least squares over a sample grid on the domain (or sphere).

    With norm_cap > 0, the cap sqrt(n)||a||_2 <= M is enforced by the
    smallest extra ridge parameter that meets it (ridge_bisect_cap).  A
    rank-deficient design with ridge=0 yields the minimum-norm solution.

    Only the neurons the grid can tell apart are fitted.  On a domain of
    largest grid radius r, a dead neuron (0 on the grid) gets a_j = 0, and
    the polynomial block Q U_r S_r V_r^T is fitted through its r columns
    Q U_r S_r with coefficients c, lifted back as a_P = V_r c.  V_r has
    orthonormal columns, so ||a|| = ||(a_live, c)|| and the ridge,
    minimum-norm and norm-cap problems keep their solutions exactly.
    Sphere targets prune nothing.  With a ridge and no cap, G = B^T B and
    B^T y are accumulated over blocks of EVAL_BLOCK_ROWS rows of the
    weighted reduced design B, in one reused buffer, and (G + ridge I) a =
    B^T y is solved.  Every other fit folds row blocks of B into a QR
    factor, whose SVD gives the minimum-norm solution, or the cap's root
    search, without squaring the condition number as G does (see
    _solve_reduced).  One JSON debug record per fit (rows, n, the live,
    polynomial and dead counts, the reduced column count and the problem
    solved: lstsq, solve or cap) goes to the "fnspace.models" logger, quiet
    by default.
    """
    grid_points = np.asarray(grid_points, dtype=float)
    if grid_points.shape[-1] != f.d + f.on_sphere:
        raise ContractError("grid points must have d components (d+1 on the sphere)")
    rows, n = len(grid_points), ps.n
    if rows < n:
        raise ConfigurationError("sample grid must have at least n points")
    if grid_weights is None:
        grid_weights = np.full(rows, 1.0 / rows)
    if f.on_sphere:  # theta . eta spans [-1, 1] over unit rows
        dead = poly = np.zeros(n, dtype=bool)
    else:  # theta . (x, 1) spans [b - |w| r, b + |w| r] over |x| <= r
        r = float(np.max(np.linalg.norm(grid_points, axis=1)))
        w = np.linalg.norm(ps.points[:, : ps.d], axis=1)
        dead = ps.points[:, ps.d] + w * r < -CLASS_MARGIN
        poly = ps.points[:, ps.d] - w * r > CLASS_MARGIN
    live = ~(dead | poly)
    T, V = _polynomial_block(ps, k, poly)
    live_ps = replace(ps, points=ps.points[live])  # features reads only d and the directions
    n_live = live_ps.n
    cols = n_live + T.shape[1]
    if cols:
        xt = _lifted(grid_points, ps.d, f.on_sphere)
        sw = np.sqrt(grid_weights)
        c = _solve_reduced(live_ps, k, T, xt, sw, f(grid_points) * sw, ridge, norm_cap, n)
    else:  # every neuron is 0 on the grid
        c = np.zeros(0)
    a = np.zeros(n)
    a[live] = c[:n_live]
    a[poly] = V @ c[n_live:]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s", json.dumps({
            "rows": rows, "n": n, "live": n_live, "polynomial": int(np.count_nonzero(poly)),
            "dead": int(np.count_nonzero(dead)), "columns": cols,
            "path": "cap" if norm_cap > 0.0 else "solve" if ridge > 0.0 else "lstsq",
        }))
    return FiniteNeuronModel(f.d, k, ps, a, norm_cap, on_sphere=f.on_sphere)


def error_norms(
    model: FiniteNeuronModel,
    f: TargetFunction,
    grid_points: np.ndarray,
    grid_weights: np.ndarray,
    s: int = 0,
) -> tuple[float, float]:
    """Discrete (L2 error, H1-seminorm error); the latter is 0.0 when s=0.

    Values and gradients come from one blocked pass over the grid.
    """
    if s not in (0, 1):
        raise ContractError("s must be 0 or 1")
    if s == 1 and f.grad is None:
        raise ContractError("H1 error needs the target gradient")
    grid_points = np.asarray(grid_points, dtype=float)
    w = np.asarray(grid_weights, dtype=float)
    values, grads = model._evaluate(grid_points, grad=s == 1)
    diff = values - f(grid_points)
    l2 = math.sqrt(max(float(np.dot(w, diff**2)), 0.0))
    if s == 0:
        return l2, 0.0
    gdiff = grads - f.grad(grid_points)
    h1 = math.sqrt(max(float(np.dot(w, np.sum(gdiff**2, axis=1))), 0.0))
    return l2, h1


def coef_stat(model: FiniteNeuronModel) -> tuple[float, float, float]:
    """(||a||_2, sqrt(n)||a||_2, ||a||_1)."""
    l2 = float(np.linalg.norm(model.a))
    return l2, math.sqrt(model.n) * l2, float(np.abs(model.a).sum())


def _arc_measures(angles: np.ndarray) -> np.ndarray:
    """Normalized lengths of the Voronoi arcs of points at these angles on
    the circle: each arc runs between the midpoints to its neighbours."""
    ang = np.mod(angles, 2.0 * math.pi)
    order = np.argsort(ang)
    sa = ang[order]
    mids = (sa[:-1] + sa[1:]) / 2.0
    bounds = np.concatenate([[sa[0] - (2 * math.pi - sa[-1] + sa[0]) / 2], mids])
    widths = np.diff(np.append(bounds, bounds[0] + 2.0 * math.pi))
    measures = np.empty(len(ang))
    measures[order] = widths / (2.0 * math.pi)
    return measures


def _cell_measures(pts: np.ndarray) -> np.ndarray:
    """Normalized areas of the Voronoi cells of distinct unit rows on S^2.

    Rows within n UNIT_TOL of one plane with normal v (always so for n <= 3)
    get lunes about v, the arc measures of their azimuths: qhull cannot
    resolve such heights and drops vertices of well-separated rows (seen up
    to 5.3e-13 off the plane at n = 60, 5e-12 at n = 500).  For rows within
    delta of the plane at height c, radius rho = sqrt(1 - c^2), separation
    s, a lune misses its cell by at most 2 |c| delta / (pi rho s) to first
    order in delta / s: the radii differ by up to 2 |c| delta / rho, which
    turns each of the cell's two bisectors about its equator point by that
    over s; their tilt out of the plane is second order.  Otherwise the cell
    of p is the hull's normal cone at p, with area the angular defect 2 pi -
    sum of face angles at p (Descartes: they sum to 4 pi), from hull edges,
    so nearly coplanar rows with ill-conditioned Voronoi vertices are fine.
    """
    rel = pts - pts[0]
    basis = np.linalg.svd(rel, full_matrices=len(pts) < 3)[2]  # rows 0, 1 span the plane; row 2 its normal
    if np.max(np.abs(rel @ basis[2])) <= len(pts) * UNIT_TOL:
        return _arc_measures(np.arctan2(pts @ basis[1], pts @ basis[0]))
    hull = ConvexHull(pts)
    if len(hull.vertices) < len(pts):
        raise ContractError("directions too close together to resolve their Voronoi cells")
    tri = pts[hull.simplices]
    u, w = np.roll(tri, -1, axis=1) - tri, np.roll(tri, 1, axis=1) - tri
    angles = np.arctan2(np.linalg.norm(np.cross(u, w), axis=2), np.sum(u * w, axis=2))
    face_sums = np.bincount(hull.simplices.ravel(), angles.ravel(), minlength=len(pts))
    return (2.0 * math.pi - face_sums) / (4.0 * math.pi)


def density_from_model(model: FiniteNeuronModel) -> tuple[np.ndarray, Callable]:
    """Piecewise-constant density a_j / |A_j| on the Voronoi cells A_j.

    The cell measures (normalized surface measure) are exact Voronoi
    measures: arc lengths on the circle, lune or hull angular-defect areas
    on S^2 (see _cell_measures).  Returns (measures, psi) where psi
    evaluates the density at sphere points by a nearest-direction lookup
    in a cKDTree; for unit directions the nearest chord is the largest
    dot product.
    """
    pts = model.ps.points
    if model.ps.h_sep <= 1e-12:
        raise ContractError("duplicate directions make Voronoi cells degenerate")
    _check_unit_rows(pts)
    if model.d == 1:
        measures = _arc_measures(np.arctan2(pts[:, 1], pts[:, 0]))
    elif model.d == 2:
        measures = _cell_measures(pts)
    else:
        raise ConfigurationError("density recovery implemented for d in {1,2}")
    vals = model.a / measures
    tree = cKDTree(pts)

    def psi(eta: np.ndarray) -> np.ndarray:
        return vals[tree.query(np.atleast_2d(np.asarray(eta, dtype=float)))[1]]

    return measures, psi
