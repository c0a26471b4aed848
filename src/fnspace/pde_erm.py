"""Ritz-energy empirical risk minimization over finite neuron spaces.

The model problem is -Laplace(f) + f = h with zero Neumann data, whose
solution minimizes E(g) = int_Omega (|grad g|^2 + g^2)/2 - h g.  Both
manufactured problems normalize the density so that the Monte Carlo
estimator of E is an unweighted sample mean of |Omega| * Psi(g)(x_i) with
x_i uniform on Omega.  Because E is quadratic, E(g) - E(f) equals half
the squared energy norm of g - f, which pins the excess-risk and H1
computations to each other.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ContractError
from .models import FiniteNeuronModel, TargetFunction, features, ridge_bisect_cap
from .sphere import PointSet, mesh_norm, separation

__all__ = [
    "EXCESS_FLOOR",
    "EllipticProblem",
    "ErmResult",
    "interval_problem",
    "disk_problem",
    "interval_directions",
    "energy",
    "empirical_risk",
    "erm_fit",
]

_log = logging.getLogger("fnspace.pde_erm")


@dataclass(frozen=True)
class EllipticProblem:
    """Manufactured Neumann problem -Lap(f) + f = h on Omega.

    sample(m, seed) draws uniform points on Omega; grid() returns a dense
    quadrature (points, weights) with weights summing to |Omega|.
    """

    d: int
    name: str
    volume: float
    source: Callable[[np.ndarray], np.ndarray]
    solution: TargetFunction
    sample: Callable[[int, int], np.ndarray]
    grid: Callable[[], tuple[np.ndarray, np.ndarray]]
    exact_energy: float


INTERVAL_GRID_POINTS = 4096
DISK_GRID_RADII = 256
DISK_GRID_ANGLES = 512


def midpoint_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Midpoints lo + (hi - lo)(i + 1/2)/n of n equal cells of [lo, hi]."""
    return lo + (hi - lo) * ((np.arange(n) + 0.5) / n)


def disk_grid(n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """n_r Gauss radii x DISK_GRID_ANGLES equispaced angles on the unit disk;
    the weights integrate over the area measure divided by 2 pi."""
    r, wr = np.polynomial.legendre.leggauss(n_r)
    r = (r + 1.0) / 2.0
    wr = wr / 2.0
    t = 2.0 * math.pi * (np.arange(DISK_GRID_ANGLES) + 0.5) / DISK_GRID_ANGLES
    R, T = np.meshgrid(r, t, indexing="ij")
    pts = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
    return pts, np.repeat(wr * r, DISK_GRID_ANGLES) / DISK_GRID_ANGLES


def interval_problem() -> EllipticProblem:
    """Omega = (0,1), f = cos(pi x), h = (pi^2+1) cos(pi x).

    E(f) = -(pi^2+1)/4.
    """

    def f(x):
        return np.cos(math.pi * x[..., 0])

    def fg(x):
        return -math.pi * np.sin(math.pi * x[..., 0])[..., None]

    def h(x):
        return (math.pi**2 + 1.0) * np.cos(math.pi * x[..., 0])

    def sample(m, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        return rng.uniform(0.0, 1.0, (m, 1))

    def grid():
        x = midpoint_grid(0.0, 1.0, INTERVAL_GRID_POINTS)
        return x[:, None], np.full(INTERVAL_GRID_POINTS, 1.0 / INTERVAL_GRID_POINTS)

    sol = TargetFunction("cos_pi_x", 1, f, fg, regularity=math.inf)
    return EllipticProblem(
        1, "interval", 1.0, h, sol, sample, grid, -(math.pi**2 + 1.0) / 4.0
    )


def disk_problem() -> EllipticProblem:
    """Omega = unit disk, f = cos(pi r^2).

    Then -Lap(f) + f = 4 pi sin(pi r^2) + (4 pi^2 r^2 + 1) cos(pi r^2),
    and grad f vanishes on r = 1, so the Neumann data is zero.
    """

    def f(x):
        return np.cos(math.pi * np.sum(x**2, axis=-1))

    def fg(x):
        r2 = np.sum(x**2, axis=-1)
        return (-2.0 * math.pi * np.sin(math.pi * r2))[..., None] * x

    def h(x):
        r2 = np.sum(x**2, axis=-1)
        return 4.0 * math.pi * np.sin(math.pi * r2) + (
            4.0 * math.pi**2 * r2 + 1.0
        ) * np.cos(math.pi * r2)

    def sample(m, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        out = np.empty((m, 2))
        filled = 0
        while filled < m:
            cand = rng.uniform(-1.0, 1.0, (2 * (m - filled) + 16, 2))
            keep = cand[np.sum(cand**2, axis=1) <= 1.0]
            take = min(len(keep), m - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out

    def grid():
        pts, w = disk_grid(DISK_GRID_RADII)
        return pts, 2.0 * math.pi * w

    # at the minimizer E(f) = -(1/2)||f||_energy^2; computed on the dense grid
    sol = TargetFunction("cos_pi_r2", 2, f, fg, regularity=math.inf)
    gp, gw = grid()
    e_exact = float(np.dot(gw, _psi(f(gp), fg(gp), h(gp))))
    return EllipticProblem(2, "disk", math.pi, h, sol, sample, grid, e_exact)


def interval_directions(n: int) -> PointSet:
    """Directions on S^1 adapted to ridge fitting on the interval (0, 1).

    The first two neurons are active on the whole interval (breakpoints
    outside it, one per orientation); the rest place their breakpoints at
    equispaced interior knots with alternating orientation.  This keeps
    the span's expressive power growing with every added direction, which
    generic circle configurations fail to do at very small n.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rows = [(1.0, 1.0), (-1.0, 1.0)][:n]
    nk = n - len(rows)
    for j in range(nk):
        t = (j + 1.0) / (nk + 1.0)
        s = 1.0 if j % 2 == 0 else -1.0
        rows.append((s, -s * t))
    pts = np.asarray(rows, dtype=float)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return PointSet(
        1, pts, mesh_norm(pts, 1), separation(pts), 0.0, "interval_knots", 0
    )


# Excess risk below this means the grid energy is off, not a better minimizer.
EXCESS_FLOOR = -1e-9


@dataclass(frozen=True)
class ErmResult:
    model: FiniteNeuronModel
    empirical_risk: float
    population_energy: float
    excess_risk: float
    h1_error: float
    m: int
    seed: int

    def __post_init__(self):
        if self.excess_risk < EXCESS_FLOOR:
            raise ContractError("excess risk below the numerical tolerance floor")
        if self.h1_error < 0.0:
            raise ContractError("h1_error must be nonnegative")


def _psi(gv: np.ndarray, gr: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Psi from values g, gradients grad g and source values h at the same points."""
    return 0.5 * np.sum(gr**2, axis=-1) + 0.5 * gv**2 - hv * gv


def energy(g, grad_g, problem: EllipticProblem) -> float:
    """Grid-quadrature value of int_Omega Psi(g)."""
    pts, w = problem.grid()
    return float(np.dot(w, _psi(g(pts), grad_g(pts), problem.source(pts))))


def empirical_risk(g, grad_g, problem: EllipticProblem, samples: np.ndarray) -> float:
    """Sample mean of |Omega| Psi(g) over the given uniform draws."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise ContractError("empirical risk needs at least one sample")
    psi = _psi(g(samples), grad_g(samples), problem.source(samples))
    return problem.volume * float(np.mean(psi))


def erm_fit(
    problem: EllipticProblem,
    ps: PointSet,
    samples: np.ndarray,
    k: int,
    norm_cap: float = 0.0,
    seed: int = 0,
) -> ErmResult:
    """Empirical risk minimizer over the fixed-direction class.

    Assembles A_ij = |Omega| mean[grad(phi_i).grad(phi_j) + phi_i phi_j]
    and b_i = |Omega| mean[h phi_i], solves the quadratic program
    (ridge_bisect_cap if the cap sqrt(n)||a||_2 <= norm_cap is set), and
    measures excess risk and H1 error against the manufactured solution.
    An uncapped A that is exactly singular (neurons 0 on every sample give
    zero rows) is solved as A + 1e-12 I instead, and that fallback sends one
    JSON debug record (path, n, zero_rows) to the "fnspace.pde_erm" logger,
    quiet by default.
    """
    if k < 1:
        raise ConfigurationError("erm_fit needs k >= 1 for gradients")
    samples = np.asarray(samples, dtype=float)
    m = len(samples)
    if m == 0 or samples.shape[-1] != problem.d:
        raise ContractError("samples must be a nonempty array of points in R^d")
    # two m x n buffers: sigma_k' from the preactivation, then sigma_k over it
    phi, dphi = features(ps, k, samples, grad=True)
    wdirs = ps.points[:, : problem.d]
    A = (phi.T @ phi) / m
    gram_w = wdirs @ wdirs.T
    A += (dphi.T @ dphi) / m * gram_w
    A *= problem.volume
    h = problem.source(samples)
    b = problem.volume * (phi.T @ h) / m
    if norm_cap > 0.0:
        a, _ = ridge_bisect_cap(A, b, ps.n, norm_cap)
    else:
        try:
            a = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            a = np.linalg.solve(A + 1e-12 * np.eye(ps.n), b)
            if _log.isEnabledFor(logging.DEBUG):
                zero_rows = int(np.count_nonzero(~A.any(axis=1)))
                _log.debug("%s", json.dumps({"path": "solve+1e-12I", "n": ps.n, "zero_rows": zero_rows}))
    model = FiniteNeuronModel(problem.d, k, ps, a, norm_cap)
    # the sample features are still at hand: risk without a re-evaluation
    emp = problem.volume * float(np.mean(_psi(phi @ a, dphi @ (a[:, None] * wdirs), h)))
    # one grid, one evaluation: energy and H1 error from the same values
    pts, w = problem.grid()
    values, grads = model._evaluate(pts, grad=True)
    pop = float(np.dot(w, _psi(values, grads, problem.source(pts))))
    excess = pop - problem.exact_energy
    diff = values - problem.solution(pts)
    gdiff = grads - problem.solution.grad(pts)
    h1 = math.sqrt(max(float(np.dot(w, diff**2 + np.sum(gdiff**2, axis=1))), 0.0))
    return ErmResult(model, emp, pop, excess, h1, m, seed)
