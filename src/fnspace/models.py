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
EVAL_BLOCK_ROWS x n floats whatever the grid size.  A least-squares fit
holds a single rows x n buffer: the preactivation, overwritten in place by
ReLU^k and then by its sqrt-weight scaling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .activation import ActivationSpectrum, sigma_k, sigma_k_prime
from .errors import ConfigurationError, ContractError, NumericalError
from .harmonics import ReferenceGrid, harmonic_block, project
from .quadrature import QuadratureRule
from .sphere import PointSet, pointset_from_json, pointset_to_json

__all__ = [
    "FiniteNeuronModel",
    "TargetFunction",
    "constructive_fit",
    "least_squares_fit",
    "error_norms",
    "coef_stat",
    "density_from_model",
    "model_to_json",
    "model_from_json",
]

CAP_SLACK = 1e-9
# Input rows per evaluation block; a block holds EVAL_BLOCK_ROWS x n floats.
EVAL_BLOCK_ROWS = 256


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

    def _lifted(self, x: np.ndarray) -> np.ndarray:
        """Inputs as the rows the neurons see: (x, 1), or eta on the sphere."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.on_sphere:
            if x.shape[1] != self.d + 1:
                raise ContractError("sphere inputs must have d+1 components")
            return x
        if x.shape[1] != self.d:
            raise ContractError("domain inputs must have d components")
        return np.column_stack([x, np.ones(len(x))])

    def _preactivation(self, x: np.ndarray) -> np.ndarray:
        return self._lifted(x) @ self.ps.points.T

    def _evaluate(
        self, x: np.ndarray, grad: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """(values, gradients or None) at the rows of x, block by block."""
        if grad and self.k < 1:
            raise ContractError("gradient undefined for k=0")
        if grad and self.on_sphere:
            raise ContractError("gradient is implemented for domain models only")
        xt = self._lifted(x)
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
    regularity: float = math.inf
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


def _solve_ridge(G: np.ndarray, c: np.ndarray, lam: float) -> np.ndarray:
    if lam == 0.0:
        sol, *_ = np.linalg.lstsq(G, c, rcond=None)
        return sol
    return np.linalg.solve(G + lam * np.eye(len(G)), c)


def ridge_bisect_cap(
    G: np.ndarray, c: np.ndarray, n: int, M: float, max_iter: int = 60
) -> tuple[np.ndarray, float]:
    """Smallest ridge parameter for which sqrt(n)||a||_2 <= M.

    Returns (a, lam).  ||a(lam)|| decreases monotonically in lam, so
    bisection on log-bracketed lam converges; stops when the cap binds
    within 1e-6 relative (or is slack at lam=0).
    """
    a0 = _solve_ridge(G, c, 0.0)
    if math.sqrt(n) * np.linalg.norm(a0) <= M:
        return a0, 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if math.sqrt(n) * np.linalg.norm(_solve_ridge(G, c, hi)) <= M:
            break
        hi *= 4.0
    else:
        raise NumericalError("ridge bracketing failed to satisfy the norm cap")
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

    With norm_cap > 0, the cap sqrt(n)||a||_2 <= M is enforced by
    increasing the ridge parameter via bisection until it binds.  A
    rank-deficient design with ridge=0 yields the minimum-norm solution.
    """
    grid_points = np.asarray(grid_points, dtype=float)
    if len(grid_points) < ps.n:
        raise ConfigurationError("sample grid must have at least n points")
    if grid_weights is None:
        grid_weights = np.full(len(grid_points), 1.0 / len(grid_points))
    probe = FiniteNeuronModel(f.d, k, ps, np.zeros(ps.n), on_sphere=f.on_sphere)
    # the one rows x n buffer: preactivation, then ReLU^k and sqrt(w) in place
    Aw = probe._preactivation(grid_points)
    sigma_k(k, Aw, out=Aw)
    sw = np.sqrt(grid_weights)
    Aw *= sw[:, None]
    yw = f(grid_points) * sw
    if norm_cap > 0.0:
        G = Aw.T @ Aw + ridge * np.eye(ps.n)
        c = Aw.T @ yw
        a, _ = ridge_bisect_cap(G, c, ps.n, norm_cap)
        nrm = math.sqrt(ps.n) * float(np.linalg.norm(a))
        if nrm > norm_cap:
            a *= norm_cap / nrm
    elif ridge > 0.0:
        a = np.linalg.solve(Aw.T @ Aw + ridge * np.eye(ps.n), Aw.T @ yw)
    else:
        a, *_ = np.linalg.lstsq(Aw, yw, rcond=None)
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


def density_from_model(
    model: FiniteNeuronModel, n_mc: int = 10**6, seed: int = 0
) -> tuple[np.ndarray, Callable]:
    """Piecewise-constant density a_j / |A_j| on the Voronoi cells A_j.

    Cell measures (normalized surface measure) are exact arc lengths on
    the circle and Monte Carlo nearest-neighbor frequencies on S^2.
    Returns (measures, psi) where psi evaluates the density at sphere
    points by nearest-neighbor lookup.
    """
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


def model_to_json(model: FiniteNeuronModel) -> str:
    payload = {
        "d": model.d,
        "k": model.k,
        "M": model.norm_cap,
        "on_sphere": model.on_sphere,
        "points_ref": json.loads(pointset_to_json(model.ps)),
        "a": [f"{v:.17g}" for v in model.a],
    }
    return json.dumps(payload)


def model_from_json(text: str) -> FiniteNeuronModel:
    obj = json.loads(text)
    ps = pointset_from_json(json.dumps(obj["points_ref"]))
    a = np.array([float(v) for v in obj["a"]])
    return FiniteNeuronModel(obj["d"], obj["k"], ps, a, obj["M"], obj["on_sphere"])
