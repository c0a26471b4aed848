"""Positive quadrature rules on scattered sphere points.

Given directions on S^d, solve for nonnegative weights tau_j matching the
harmonic moments up to a target degree D (constant integrates to 1, all
higher harmonics to 0 under the normalized measure).  The solver is
nonnegative least squares, preceded by a cheap minimum-norm least-squares
attempt that is accepted whenever it happens to be nonnegative (it always
is for symmetric configurations such as equispaced circles).  If the
residual tolerance cannot be met at D, the lower degrees D - 2, ..., 0 are
bisected (a rule exact to one degree is exact below it), so a rule with the
largest feasible exact degree is always returned.

The moment matrix A is built once, at the target degree.  Its rows are
ordered by harmonic degree m, so the system at a lower degree D is the
row prefix A[:R(D)] with R(D) = sum_{m<=D} N(m), the same matrix bit for
bit.  NNLS runs only at degrees where a rule can exist.  Row 0 of A is
all ones, so a w >= 0 with max|Aw - b| <= tol has ||w||_2 <= sum w <=
1 + tol; the truncated-SVD least-squares residual is then at most
||Aw - b||_2 + cut ||w||_2 <= sqrt(R) tol + cut (1 + tol), where cut is
the singular-value cutoff of lstsq.  A degree whose lstsq residual exceeds
twice that bound is skipped without an NNLS solve.

Each call to build_rule sends one debug record, a JSON object, to the
"fnspace.quadrature" logger: the degrees asked for, tried and reached,
the NNLS solves run and skipped, the solver path, the residual, the
moment-matrix shape and the time taken.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .errors import ContractError, NumericalError
from .harmonics import harmonic_dim, harmonic_table
from .sphere import PointSet, pointset_from_json, pointset_to_json

__all__ = ["QuadratureRule", "build_rule", "integrate", "rule_to_json", "rule_from_json"]

DEFAULT_C1 = 0.5

_log = logging.getLogger("fnspace.quadrature")


@dataclass(frozen=True)
class QuadratureRule:
    """Nonnegative weights exact on spherical polynomials up to degree D.

    J = D // 2 is the largest degree usable in product (projection)
    integrands.  residual is the max absolute moment error achieved.
    """

    ps: PointSet
    weights: np.ndarray = field(repr=False)
    exact_degree: int
    residual: float
    tol: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.ps.n,):
            raise ContractError("weight count must match point count")
        if np.any(w < 0.0):
            raise ContractError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise ContractError("weights must sum to 1")
        object.__setattr__(self, "weights", w)

    @property
    def J(self) -> int:
        return self.exact_degree // 2

    @property
    def c_tau(self) -> float:
        """Recorded constant max_j tau_j / h^d."""
        return float(np.max(self.weights)) / self.ps.h**self.ps.d


def _moment_system(ps: PointSet, D: int):
    A = harmonic_table(ps.d, D, ps.points)
    b = np.zeros(len(A))
    b[0] = 1.0
    return A, b


def default_degree(ps: PointSet) -> int:
    """Default target degree D = 2*floor(DEFAULT_C1 / h)."""
    return 2 * int(math.floor(DEFAULT_C1 / ps.h))


def build_rule(ps: PointSet, D_target: int, tol: float = 1e-8) -> QuadratureRule:
    """Largest-degree nonnegative rule with moment residual <= tol.

    Tries D_target, then bisects the chain D_target - 2, ..., 0 (a rule exact
    to D is exact below D); raises NumericalError only if even mass matching
    fails.  The moment matrix is built once at D_target and each degree solves
    its row prefix.  NNLS is skipped at a degree when the lstsq residual r obeys
    ||r||_2 > 2 (sqrt(R) tol + cut (1 + tol)): any feasible w >= 0 sums to
    at most 1 + tol (row 0 of A is all ones), so it would bound r by
    sqrt(R) tol + cut ||w||_2, and no rule exists there.
    """
    if D_target < 0:
        raise ContractError("D_target must be >= 0")
    start = time.perf_counter()
    A_top, b_top = _moment_system(ps, D_target)
    row_ends = np.cumsum([harmonic_dim(ps.d, m) for m in range(D_target + 1)])
    info = {"D_target": D_target, "D": None, "degrees_tried": [], "nnls_run": 0,
            "nnls_skipped": [], "path": None, "residual": None,
            "moment_shape": list(A_top.shape)}

    def solve(D):
        """The rule at degree D, or None; a rule found is recorded in info."""
        info["degrees_tried"].append(D)
        A, b = A_top[: row_ends[D]], b_top[: row_ends[D]]
        # fast path: min-norm least squares, accepted if already nonnegative
        w, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
        r = A @ w - b
        path = "lstsq"
        if np.min(w) < -1e-14 or np.max(np.abs(r)) > tol:
            cut = np.finfo(float).eps * max(A.shape) * sv[0]
            if np.linalg.norm(r) > 2.0 * (math.sqrt(len(A)) * tol + cut * (1.0 + tol)):
                info["nnls_skipped"].append(D)
                return None
            w, _ = nnls(A, b, maxiter=10 * max(A.shape))
            info["nnls_run"] += 1
            path = "nnls"
        w = np.maximum(w, 0.0)
        res = float(np.max(np.abs(A @ w - b)))
        if res <= tol and w.sum() > 0.0:
            w = w / w.sum()
            res = float(np.max(np.abs(A @ w - b)))
            info.update(D=D, path=path, residual=res)
            return QuadratureRule(ps, w, D, res, tol)
        return None

    # chain[lo] has a rule (lo = -1: none yet), chain[hi] has none (hi = len: untried)
    chain = sorted({0, *range(D_target, -1, -2)})
    lo, hi, mid, rule = -1, len(chain), len(chain) - 1, None
    while hi - lo > 1:
        found = solve(chain[mid])
        if found is None:
            hi = mid
        else:
            lo, rule = mid, found
        mid = (lo + hi) // 2
    _report(info, start)
    if rule is None:
        raise NumericalError("no feasible nonnegative rule at any degree >= 0")
    return rule


def _report(info: dict, start: float) -> None:
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s", json.dumps(info | {"seconds": time.perf_counter() - start}))


def integrate(rule: QuadratureRule, values: np.ndarray) -> float:
    """Sum tau_j v_j for samples v_j at the rule points."""
    values = np.asarray(values, dtype=float)
    if values.shape != rule.weights.shape:
        raise ContractError("sample count must match rule size")
    return float(np.dot(rule.weights, values))


def rule_to_json(rule: QuadratureRule) -> str:
    ps_json = pointset_to_json(rule.ps)
    payload = {
        "D": rule.exact_degree,
        "J": rule.J,
        "tol": rule.tol,
        "residual": rule.residual,
        "weights": [f"{w:.17g}" for w in rule.weights],
        "pointset_hash": hashlib.sha256(ps_json.encode()).hexdigest()[:12],
        "pointset": json.loads(ps_json),
    }
    return json.dumps(payload)


def rule_from_json(text: str) -> QuadratureRule:
    obj = json.loads(text)
    ps = pointset_from_json(json.dumps(obj["pointset"]))
    w = np.array([float(x) for x in obj["weights"]])
    return QuadratureRule(ps, w, obj["D"], obj["residual"], obj["tol"])
