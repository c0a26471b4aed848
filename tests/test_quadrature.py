import hashlib
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from fnspace.errors import ContractError, NumericalError
from fnspace.harmonics import harmonic_block, harmonic_dim, reference_grid
from fnspace.quadrature import (
    QuadratureRule,
    _moment_system,
    build_rule,
    default_degree,
    integrate,
    rule_from_json,
    rule_to_json,
)
import fnspace
from fnspace.sphere import (
    PointSet,
    generate_points,
    mesh_norm,
    pointset_to_json,
    separation,
)

# frozen regression values for fibonacci_s2 n=200 at resolution 0.005:
# achieved degree with the default target 2*floor(0.5/h), and the
# weight-bound constant max tau_j / h^2
FIB200_D = 4
FIB200_C_TAU_MAX = 0.2


def test_equispaced_rule_is_uniform():
    ps = generate_points(1, 8, "equispaced_circle")
    rule = build_rule(ps, 7)
    assert rule.exact_degree == 7
    assert rule.residual < 1e-12
    np.testing.assert_allclose(rule.weights, 1.0 / 8.0, atol=1e-14)


def test_single_point_rule():
    pts = np.array([[0.0, 0.0, 1.0]])
    ps = PointSet(2, pts, mesh_norm(pts, 2, 0.02), separation(pts), 0.02)
    rule = build_rule(ps, 0)
    assert rule.exact_degree == 0
    assert rule.weights[0] == pytest.approx(1.0)


def test_fibonacci_rule_regression():
    ps = generate_points(2, 200, "fibonacci_s2", resolution=0.005)
    rule = build_rule(ps, default_degree(ps))
    assert rule.exact_degree == FIB200_D
    assert rule.residual <= 1e-8
    assert np.all(rule.weights >= 0.0)
    assert rule.c_tau <= FIB200_C_TAU_MAX


def test_weight_bound_stable_across_n():
    cs = []
    for n in (100, 200, 400):
        ps = generate_points(2, n, "fibonacci_s2", resolution=0.005)
        cs.append(build_rule(ps, default_degree(ps)).c_tau)
    assert max(cs) / min(cs) <= 3.0


def test_integrate_exactness():
    ps = generate_points(2, 200, "fibonacci_s2", resolution=0.005)
    rule = build_rule(ps, 4)
    assert integrate(rule, np.ones(ps.n)) == pytest.approx(1.0, abs=1e-10)
    for m in (1, 2):
        for row in harmonic_block(2, m, ps.points):
            assert abs(integrate(rule, row)) < 1e-8
    y21 = harmonic_block(2, 2, ps.points)[0]
    assert integrate(rule, y21 * y21) == pytest.approx(1.0, abs=1e-6)


def test_product_exactness_random_polys():
    ps = generate_points(2, 200, "fibonacci_s2", resolution=0.005)
    rule = build_rule(ps, 4)
    grid = reference_grid(2, 20)
    rng = np.random.Generator(np.random.Philox(8))
    blocks_pts = np.vstack([harmonic_block(2, m, ps.points) for m in range(rule.J + 1)])
    blocks_grid = np.vstack(
        [harmonic_block(2, m, grid.nodes) for m in range(rule.J + 1)]
    )
    for _ in range(5):
        cp = rng.standard_normal(len(blocks_pts))
        cq = rng.standard_normal(len(blocks_pts))
        approx = integrate(rule, (cp @ blocks_pts) * (cq @ blocks_pts))
        exact = grid.integrate((cp @ blocks_grid) * (cq @ blocks_grid))
        scale = np.linalg.norm(cp) * np.linalg.norm(cq)
        assert abs(approx - exact) <= 1e-6 * scale


def test_degree_fallback():
    # 6 points cannot match degree-6 moments on S^2; the builder backs off
    ps = generate_points(2, 6, "fibonacci_s2")
    rule = build_rule(ps, 6)
    assert rule.exact_degree < 6
    assert rule.residual <= rule.tol


def test_integrate_length_mismatch():
    ps = generate_points(1, 8, "equispaced_circle")
    rule = build_rule(ps, 7)
    with pytest.raises(ContractError):
        integrate(rule, np.ones(7))


def test_rule_invariants_enforced():
    ps = generate_points(1, 4, "equispaced_circle")
    from fnspace.quadrature import QuadratureRule

    with pytest.raises(ContractError):
        QuadratureRule(ps, np.array([0.5, 0.5, 0.5, -0.5]), 0, 0.0, 1e-8)
    with pytest.raises(ContractError):
        QuadratureRule(ps, np.array([0.5, 0.5, 0.5, 0.5]), 0, 0.0, 1e-8)


def test_json_roundtrip():
    ps = generate_points(2, 100, "fibonacci_s2", resolution=0.01)
    rule = build_rule(ps, default_degree(ps))
    back = rule_from_json(rule_to_json(rule))
    np.testing.assert_array_equal(back.weights, rule.weights)
    assert back.exact_degree == rule.exact_degree
    assert back.J == rule.J
    np.testing.assert_array_equal(back.ps.points, rule.ps.points)


def test_rule_json_independent_of_hash_seed():
    code = (
        "from fnspace.quadrature import build_rule, rule_to_json\n"
        "from fnspace.sphere import generate_points\n"
        "print(rule_to_json(build_rule(generate_points(1, 8, 'equispaced_circle'), 7)))"
    )
    src = str(Path(fnspace.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outs[0] == outs[1]
    ps = generate_points(1, 8, "equispaced_circle")
    want = hashlib.sha256(pointset_to_json(ps).encode()).hexdigest()[:12]
    assert json.loads(outs[0])["pointset_hash"] == want


def _rebuild_per_degree(ps, D_target, tol=1e-8):
    """Reference degree fallback: every degree rebuilds its own moment system
    and runs NNLS whenever the lstsq fast path fails."""
    if D_target < 0:
        raise ContractError("D_target must be >= 0")
    D = D_target
    while D >= 0:
        A, b = _moment_system(ps, D)
        # fast path: min-norm least squares, accepted if already nonnegative
        w, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.min(w) < -1e-14 or np.max(np.abs(A @ w - b)) > tol:
            w, _ = nnls(A, b, maxiter=10 * max(A.shape))
        w = np.maximum(w, 0.0)
        res = float(np.max(np.abs(A @ w - b)))
        if res <= tol and w.sum() > 0.0:
            w = w / w.sum()
            res = float(np.max(np.abs(A @ w - b)))
            return QuadratureRule(ps, w, D, res, tol)
        D -= 2
    raise NumericalError("no feasible nonnegative rule at any degree >= 0")


def _outcome(builder, ps, D_target):
    try:
        return builder(ps, D_target)
    except NumericalError as exc:  # the reference never tries D = 0 after an odd chain
        return exc


SMALL_SETS = st.sampled_from(
    [(1, "uniform_random"), (1, "equispaced_circle"), (2, "uniform_random"), (2, "fibonacci_s2")]
)


@settings(max_examples=40, deadline=None)
@given(SMALL_SETS, st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
def test_shared_moment_matrix_matches_rebuild_per_degree(kind, n, seed, data):
    d, strategy = kind
    ps = generate_points(d, n, strategy, seed=seed, resolution=0.05)
    D_target = data.draw(st.integers(0, 2 * math.isqrt(n) + 4), label="D_target")
    got, want = _outcome(build_rule, ps, D_target), _outcome(_rebuild_per_degree, ps, D_target)
    if isinstance(want, Exception):  # an odd chain failed: build_rule ends at the mass rule
        assert D_target % 2 == 1
        want = _rebuild_per_degree(ps, 0)
    assert got.exact_degree == want.exact_degree
    assert got.residual == want.residual
    assert np.array_equal(got.weights, want.weights)


def test_odd_target_falls_back_to_mass_rule():
    ps = generate_points(1, 1, "uniform_random", seed=0)
    rule = build_rule(ps, 1)
    assert rule.exact_degree == 0
    assert np.array_equal(rule.weights, [1.0])


def test_moment_matrix_prefix_is_lower_degree_system():
    ps = generate_points(2, 60, "fibonacci_s2", resolution=0.05)
    A_top, b_top = _moment_system(ps, 12)
    for D in range(13):
        rows = sum(harmonic_dim(2, m) for m in range(D + 1))
        A, b = _moment_system(ps, D)
        assert np.array_equal(A_top[:rows], A)
        assert np.array_equal(b_top[:rows], b)


def _diagnostics(caplog, ps, D_target):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fnspace.quadrature"):
        rule = build_rule(ps, D_target)
    (record,) = [r for r in caplog.records if r.name == "fnspace.quadrature"]
    assert record.levelno == logging.DEBUG
    return rule, json.loads(record.getMessage())


def test_skipped_degrees_have_no_nnls_rule(caplog):
    skipped = 0
    for strategy, n in (("fibonacci_s2", 100), ("uniform_random", 200), ("fibonacci_s2", 6)):
        ps = generate_points(2, n, strategy, seed=n, resolution=0.05)
        rule, info = _diagnostics(caplog, ps, 2 * math.isqrt(n))
        for D in info["nnls_skipped"]:
            assert D > rule.exact_degree
            A, b = _moment_system(ps, D)
            w, _ = nnls(A, b, maxiter=10 * max(A.shape))
            assert np.max(np.abs(A @ np.maximum(w, 0.0) - b)) > rule.tol
        skipped += len(info["nnls_skipped"])
    assert skipped > 0


def test_build_rule_diagnostics_record(caplog):
    ps = generate_points(2, 200, "uniform_random", seed=200, resolution=0.05)
    rule, info = _diagnostics(caplog, ps, 28)
    assert info["D_target"] == 28
    assert info["D"] == rule.exact_degree < 28
    D, chain = rule.exact_degree, sorted({0, *range(28, -1, -2)})
    assert info["degrees_tried"][0] == 28
    assert {D, chain[chain.index(D) + 1]} <= set(info["degrees_tried"])
    assert len(info["degrees_tried"]) <= math.ceil(math.log2(len(chain))) + 1
    assert 0 < info["nnls_run"] <= len(info["degrees_tried"]) - len(info["nnls_skipped"])
    assert info["path"] == "nnls"
    assert info["residual"] == rule.residual
    assert info["moment_shape"] == [sum(harmonic_dim(2, m) for m in range(29)), 200]
    assert info["seconds"] >= 0.0

    _, info = _diagnostics(caplog, generate_points(1, 8, "equispaced_circle"), 7)
    assert (info["D"], info["path"], info["nnls_run"], info["nnls_skipped"]) == (7, "lstsq", 0, [])


def test_build_rule_quiet_by_default(caplog):
    build_rule(generate_points(1, 8, "equispaced_circle"), 7)
    assert not [r for r in caplog.records if r.name == "fnspace.quadrature"]
