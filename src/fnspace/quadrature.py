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

The moment matrix A is built once, up to the largest chain degree that
the dimension bound below leaves open (the target degree when it settles
none).  Its rows are ordered by harmonic degree m, so the system at a
lower degree D is the row prefix A[:R(D)] with R(D) = sum_{m<=D} N(m),
the same matrix bit for bit.  NNLS runs only at degrees where a rule can
exist.  Row 0 of A is
all ones, so a w >= 0 with max|Aw - b| <= tol has ||w||_2 <= sum w <=
1 + tol; the truncated-SVD least-squares residual is then at most
||Aw - b||_2 + cut ||w||_2 <= sqrt(R) tol + cut (1 + tol), where cut is
the singular-value cutoff of lstsq.  A degree whose lstsq residual exceeds
twice that bound is skipped without an NNLS solve.

Two certificates skip a degree before lstsq is called.  Each skips only
degrees that the residual test above would also skip, so the rules and the
record are those of lstsq at every degree (the tests check this bit for
bit, tolerances up to 0.1 included).

* Dimension bound (Delsarte, Goethals and Seidel, "Spherical codes and
  designs", 1977).  Let J = D // 2 and dim P_J = R(J).  If R(J) > n, some
  p in P_J with ||p||_2 = 1 vanishes at all n points.  Write p^2 =
  sum_r c_r Y_r over the harmonics of degree <= 2J; for any weights w,
  1 = int p^2 - sum_i w_i p(x_i)^2 = -sum_r c_r e_r, where e = Aw - b.
  Cauchy-Schwarz and ||p^2||_2 <= ||p||_inf <= sqrt(R(J)) (the
  reproducing kernel's diagonal is the dimension) give ||e||_2 >=
  1 / sqrt(R(J)), and for a rule within tol, 1 <= tol sqrt(R(2J) R(J)).
  So no rule exists once tol^2 R(2J) R(J) <= 1/4, which keeps a factor 2
  for rounding.
* Residual floor.  Let D0 be the smallest degree of the chain with
  R(D0) > n.  The least-squares residual cannot fall when rows are added,
  so rho0 = |R[-1, -1]| of the QR factor of [A | b] at D0 bounds the lstsq
  residual from below at every D >= D0.  Such a D is skipped when rho0 >
  2 (sqrt(R) tol + cut_F (1 + tol)) with cut_F = eps max(A.shape) ||A||_F;
  since ||A||_F >= s_max, cut_F >= cut and the residual test would skip it
  too.  The factorization runs at most once per call, and only when an
  overdetermined degree that the dimension bound does not settle is tried
  after some degree has failed: a first degree the bound leaves open goes
  straight to lstsq, so a call whose first degree is feasible (every
  equispaced circle rule) factors nothing.

Each call to build_rule sends one debug record, a JSON object, to the
"fnspace.quadrature" logger: the degrees asked for, tried and reached,
the lstsq and NNLS solves run, the NNLS solves skipped, the solver path,
the residual, the moment-matrix shape and the time taken.
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
    fails.  The moment matrix is built once, up to the largest chain degree
    the dimension bound does not settle, since the bound settles every degree
    above it and no row past it is read; each degree solves its row prefix,
    and the debug record's moment_shape is the shape built.  NNLS is skipped at a degree when the lstsq residual r obeys
    ||r||_2 > 2 (sqrt(R) tol + cut (1 + tol)): any feasible w >= 0 sums to
    at most 1 + tol (row 0 of A is all ones), so it would bound r by
    sqrt(R) tol + cut ||w||_2, and no rule exists there.

    lstsq itself is skipped at a degree that one of two certificates (module
    docstring) proves infeasible: the dimension bound, when dim P_{D//2} > n
    and tol^2 R(2 (D//2)) R(D//2) <= 1/4, and, once a degree has failed, the
    residual floor rho0 of one QR of [A | b] at the first overdetermined
    chain degree, which bounds the lstsq residual from below at every
    overdetermined degree.
    """
    if not (D_target >= 0 and tol >= 0.0):  # NaN too
        raise ContractError(f"D_target and tol must be >= 0, got {D_target} and {tol}")
    start = time.perf_counter()
    row_ends = np.cumsum([harmonic_dim(ps.d, m) for m in range(D_target + 1)])
    chain = sorted({0, *range(D_target, -1, -2)})

    def too_many_polynomials(D):
        """The dimension bound: dim P_{D//2} > n and tol^2 R(2 (D//2)) R(D//2) <= 1/4."""
        J = D // 2
        return row_ends[J] > ps.n and tol**2 * row_ends[2 * J] * row_ends[J] <= 0.25

    # the bound settles every degree above the largest it leaves open, so no row past it is read
    A_top, b_top = _moment_system(ps, max(D for D in chain if not too_many_polynomials(D)))
    info = {"D_target": D_target, "D": None, "degrees_tried": [], "lstsq_run": 0, "nnls_run": 0,
            "nnls_skipped": [], "path": None, "residual": None,
            "moment_shape": list(A_top.shape)}
    rho0 = None  # the least-squares residual at the first overdetermined chain degree

    def skip_bound(A, s_max):
        """2 (sqrt(R) tol + cut (1 + tol)), with the lstsq cutoff cut taken at s_max."""
        cut = np.finfo(float).eps * max(A.shape) * s_max
        return 2.0 * (math.sqrt(len(A)) * tol + cut * (1.0 + tol))

    def infeasible(D, failed):
        """True when a certificate proves that no rule within tol exists at D;
        the residual floor is consulted only once a degree has failed."""
        nonlocal rho0
        if too_many_polynomials(D):
            return True
        if row_ends[D] <= ps.n or not failed:
            return False
        if rho0 is None:
            D0 = next(m for m in chain if row_ends[m] > ps.n)
            Ab = np.column_stack((A_top[: row_ends[D0]], b_top[: row_ends[D0]]))
            rho0 = abs(np.linalg.qr(Ab, mode="r")[-1, -1])
        A = A_top[: row_ends[D]]
        return rho0 > skip_bound(A, np.linalg.norm(A))  # ||A||_F >= s_max

    def solve(D, failed):
        """The rule at degree D, or None; a rule found is recorded in info."""
        info["degrees_tried"].append(D)
        if infeasible(D, failed):
            info["nnls_skipped"].append(D)
            return None
        A, b = A_top[: row_ends[D]], b_top[: row_ends[D]]
        # fast path: min-norm least squares, accepted if already nonnegative
        w, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
        info["lstsq_run"] += 1
        r = A @ w - b
        path = "lstsq"
        if np.min(w) < -1e-14 or np.max(np.abs(r)) > tol:
            if np.linalg.norm(r) > skip_bound(A, sv[0]):
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
    lo, hi, mid, rule = -1, len(chain), len(chain) - 1, None
    while hi - lo > 1:
        found = solve(chain[mid], hi < len(chain))
        if found is None:
            hi = mid
        else:
            lo, rule = mid, found
        mid = (lo + hi) // 2
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s", json.dumps(info | {"seconds": time.perf_counter() - start}))
    if rule is None:
        raise NumericalError("no feasible nonnegative rule at any degree >= 0")
    return rule


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
