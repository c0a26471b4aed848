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
pde_erm.erm_fit share one feature map, `features`, which applies ReLU^k in
place over the preactivation, and one norm-capped solver, ridge_bisect_cap:
a single eigendecomposition of the Gram matrix, then an O(n)-per-step
root search for the ridge.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .activation import ActivationSpectrum, sigma_k, sigma_k_prime
from .errors import ConfigurationError, ContractError
from .harmonics import ReferenceGrid, harmonic_block, project
from .quadrature import QuadratureRule
from .sphere import PointSet, pointset_from_json, pointset_to_json

__all__ = [
    "FiniteNeuronModel",
    "TargetFunction",
    "features",
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


def features(ps: PointSet, k: int, x: np.ndarray, grad: bool = False):
    """sigma_k(z), or (sigma_k(z), sigma_k'(z)) with grad, for z = lifted(x) theta^T;
    rows of x with d+1 components are sphere points, rows with d are lifted to (x, 1)."""
    z = _lifted(x, ps.d, np.shape(x)[-1] == ps.d + 1) @ ps.points.T
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
    p = U.T @ c
    root_n = math.sqrt(n)
    pinv = np.divide(1.0, s, out=np.zeros_like(s), where=s > np.finfo(float).eps * len(s) * s[-1])

    def coef(lam: float) -> np.ndarray:
        return p * pinv if lam == 0.0 else p / (s + lam)

    def gap(lam: float) -> float:
        return root_n * float(np.linalg.norm(coef(lam))) - M

    binds = bool(gap(0.0) > 0.0)
    lam = brentq(gap, 0.0, 2.0 * root_n * float(np.linalg.norm(c)) / M, xtol=1e-300) if binds else 0.0
    a = U @ coef(lam)
    nrm = root_n * float(np.linalg.norm(a))
    if nrm > M:
        a *= M / nrm
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s", json.dumps({"n": int(n), "lam": float(lam), "cap_bound": binds,
                                     "s_min": float(evals[0]), "s_max": float(evals[-1])}))
    return a, lam


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
    """
    grid_points = np.asarray(grid_points, dtype=float)
    if grid_points.shape[-1] != f.d + f.on_sphere:
        raise ContractError("grid points must have d components (d+1 on the sphere)")
    if len(grid_points) < ps.n:
        raise ConfigurationError("sample grid must have at least n points")
    if grid_weights is None:
        grid_weights = np.full(len(grid_points), 1.0 / len(grid_points))
    # the one rows x n buffer: preactivation, then ReLU^k and sqrt(w) in place
    Aw = features(ps, k, grid_points)
    sw = np.sqrt(grid_weights)
    Aw *= sw[:, None]
    yw = f(grid_points) * sw
    if norm_cap > 0.0:
        a, _ = ridge_bisect_cap(Aw.T @ Aw + ridge * np.eye(ps.n), Aw.T @ yw, ps.n, norm_cap)
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
