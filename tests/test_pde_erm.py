import dataclasses
import gc
import json
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fnspace import models
from fnspace.errors import ConfigurationError, ContractError
from fnspace.pde_erm import (
    DISK_GRID_RADII,
    EXCESS_FLOOR,
    EllipticProblem,
    _grid_energy,
    _psi,
    disk_grid,
    disk_problem,
    empirical_risk,
    energy,
    erm_fit,
    interval_problem,
)
from fnspace.harness import domain_grid
from fnspace.models import FiniteNeuronModel, TargetFunction, features, ridge_bisect_cap
from fnspace.sphere import generate_points
from fnspace.pde_erm import interval_directions

EXACT_INTERVAL_ENERGY = -(math.pi**2 + 1.0) / 4.0


def fd_second(f, x, h=1e-5):
    return (f(x + h) + f(x - h) - 2.0 * f(x)) / h**2


def test_interval_problem_satisfies_pde():
    prob = interval_problem()
    rng = np.random.Generator(np.random.Philox(4))
    xs = rng.uniform(0.05, 0.95, 20)
    for x0 in xs:
        f1 = lambda t: prob.solution(np.array([[t]]))[0]
        lap = fd_second(f1, x0)
        res = -lap + f1(x0) - prob.source(np.array([[x0]]))[0]
        assert abs(res) < 1e-5
    # Neumann ends
    assert abs(prob.solution.grad(np.array([[0.0]]))[0, 0]) < 1e-12
    assert abs(prob.solution.grad(np.array([[1.0]]))[0, 0]) < 1e-12


def test_disk_problem_satisfies_pde():
    prob = disk_problem()
    rng = np.random.Generator(np.random.Philox(6))
    pts = rng.uniform(-0.6, 0.6, (20, 2))
    h = 1e-4
    for p in pts:
        def f2(q):
            return prob.solution(q[None, :])[0]
        lap = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            lap += (f2(p + e) + f2(p - e) - 2.0 * f2(p)) / h**2
        res = -lap + f2(p) - prob.source(p[None, :])[0]
        assert abs(res) < 1e-4
    # zero Neumann data on the boundary circle
    phi = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    bdry = np.column_stack([np.cos(phi), np.sin(phi)])
    normal_deriv = np.sum(prob.solution.grad(bdry) * bdry, axis=1)
    assert np.max(np.abs(normal_deriv)) < 1e-10


def test_energy_zero_function():
    prob = interval_problem()
    zero = lambda x: np.zeros(len(x))
    zero_grad = lambda x: np.zeros((len(x), 1))
    assert energy(zero, zero_grad, prob) == 0.0


def test_energy_of_exact_solution():
    prob = interval_problem()
    e = energy(prob.solution, prob.solution.grad, prob)
    assert e == pytest.approx(EXACT_INTERVAL_ENERGY, abs=1e-6)
    assert prob.exact_energy == pytest.approx(EXACT_INTERVAL_ENERGY, abs=1e-12)


def test_solution_is_energy_minimizer():
    prob = interval_problem()
    rng = np.random.Generator(np.random.Philox(9))
    base = energy(prob.solution, prob.solution.grad, prob)
    for _ in range(5):
        a, b = rng.standard_normal(2)

        def g(x):
            t = x[..., 0]
            return prob.solution(x) + 0.1 * (a * np.cos(2 * math.pi * t) + b)

        def gg(x):
            t = x[..., 0]
            return prob.solution.grad(x) + 0.1 * (
                -2.0 * math.pi * a * np.sin(2 * math.pi * t)
            )[..., None]

        assert energy(g, gg, prob) >= base - 1e-12


def test_empirical_risk_basics():
    prob = interval_problem()
    zero = lambda x: np.zeros(len(x))
    zero_grad = lambda x: np.zeros((len(x), 1))
    samples = prob.sample(100, 0)
    assert empirical_risk(zero, zero_grad, prob, samples) == 0.0
    one = samples[:1]
    v = empirical_risk(prob.solution, prob.solution.grad, prob, one)
    g = prob.solution(one)[0]
    gr = prob.solution.grad(one)[0, 0]
    want = 0.5 * gr**2 + 0.5 * g**2 - prob.source(one)[0] * g
    assert v == pytest.approx(want, rel=1e-12)
    with pytest.raises(ContractError):
        empirical_risk(zero, zero_grad, prob, samples[:0])


def test_empirical_risk_concentrates():
    prob = interval_problem()
    m = 10**5
    devs = []
    for seed in range(10):
        s = prob.sample(m, seed)
        em = empirical_risk(prob.solution, prob.solution.grad, prob, s)
        devs.append(em - prob.exact_energy)
    # Psi(f) values have std ~ 3.6; all deviations within the CLT band
    gp, gw = prob.grid()
    psi = (
        0.5 * np.sum(prob.solution.grad(gp) ** 2, axis=1)
        + 0.5 * prob.solution(gp) ** 2
        - prob.source(gp) * prob.solution(gp)
    )
    std = float(np.sqrt(np.dot(gw, (psi - prob.exact_energy) ** 2)))
    assert np.max(np.abs(devs)) <= 3.0 * std / math.sqrt(m)


def test_erm_zero_source():
    base = interval_problem()
    zero_tf = TargetFunction(
        "zero", 1, lambda x: np.zeros(len(np.atleast_2d(x))),
        grad=lambda x: np.zeros((len(np.atleast_2d(x)), 1)),
    )
    prob = EllipticProblem(
        "null", 1.0, lambda x: np.zeros(len(x)), zero_tf,
        base.sample, base.grid, 0.0,
    )
    ps = interval_directions(6)
    res = erm_fit(prob, ps, prob.sample(500, 0), k=2)
    np.testing.assert_allclose(res.model.a, 0.0, atol=1e-10)
    assert abs(res.excess_risk) < 1e-12


def test_erm_certificate_and_h1_relation():
    prob = interval_problem()
    ps = interval_directions(8)
    samples = prob.sample(4096, 0)
    res = erm_fit(prob, ps, samples, k=2)
    # strong-convexity identity: excess = half the squared energy error
    assert res.h1_error**2 == pytest.approx(2.0 * res.excess_risk, rel=1e-3)
    assert res.excess_risk > 0.0


def test_erm_cap_binds():
    prob = interval_problem()
    ps = interval_directions(8)
    samples = prob.sample(2048, 0)
    free = erm_fit(prob, ps, samples, k=2)
    free_norm = math.sqrt(ps.n) * float(np.linalg.norm(free.model.a))
    M = free_norm / 5.0
    capped = erm_fit(prob, ps, samples, k=2, norm_cap=M)
    got = math.sqrt(ps.n) * float(np.linalg.norm(capped.model.a))
    assert got <= M * (1.0 + 1e-6)
    assert got >= M * (1.0 - 1e-3)
    assert capped.excess_risk >= free.excess_risk - 1e-12


def test_erm_more_samples_no_worse():
    prob = interval_problem()
    ps = interval_directions(8)
    means = []
    for m in (1024, 2048):
        ex = [
            erm_fit(prob, ps, prob.sample(m, seed), k=2, seed=seed).excess_risk
            for seed in range(4)
        ]
        means.append(np.mean(ex))
    assert means[1] <= means[0] + 1e-12


def test_erm_needs_gradients():
    prob = interval_problem()
    ps = interval_directions(4)
    with pytest.raises(ConfigurationError):
        erm_fit(prob, ps, prob.sample(100, 0), k=0)


@pytest.mark.parametrize("norm_cap", [-1.0, math.nan])
def test_erm_rejects_a_negative_norm_cap(norm_cap):
    prob = interval_problem()
    with pytest.raises(ConfigurationError, match="norm_cap must be >= 0"):
        erm_fit(prob, interval_directions(4), prob.sample(100, 0), k=2, norm_cap=norm_cap)


def test_erm_rejects_samples_of_the_wrong_width():
    with pytest.raises(ContractError, match="samples"):
        erm_fit(interval_problem(), interval_directions(4), np.zeros((100, 2)), k=2)


def test_erm_rejects_directions_of_another_dimension():
    # 16 directions in R^3 are 48 floats, which would read as 24 rows of
    # (w, b) for the interval if nothing checked the dimension
    prob = interval_problem()
    with pytest.raises(ContractError, match="directions are for d = 2"):
        erm_fit(prob, generate_points(2, 16, "fibonacci_s2"), prob.sample(100, 0), k=2)


def test_disk_sampling_inside():
    prob = disk_problem()
    s = prob.sample(5000, 3)
    assert s.shape == (5000, 2)
    assert np.max(np.sum(s**2, axis=1)) <= 1.0
    s2 = prob.sample(5000, 3)
    np.testing.assert_array_equal(s, s2)


def test_disk_erm_runs():
    prob = disk_problem()
    ps = generate_points(2, 16, "fibonacci_s2")
    res = erm_fit(prob, ps, prob.sample(2000, 0), k=2)
    assert res.excess_risk >= 0.0
    assert res.h1_error**2 <= 2.0 * res.excess_risk * (1.0 + 1e-2) + 1e-8


def test_interval_directions_shape():
    ps = interval_directions(6)
    assert ps.n == 6
    np.testing.assert_allclose(np.linalg.norm(ps.points, axis=1), 1.0, atol=1e-12)
    assert ps.h_sep > 0.0


def test_erm_excess_floor_fires():
    prob = interval_problem()
    # an exact energy set too high makes the grid energy undercut it
    raised = dataclasses.replace(prob, exact_energy=prob.exact_energy + 1.0)
    with pytest.raises(ContractError, match="excess risk"):
        erm_fit(raised, interval_directions(8), prob.sample(1024, 0), k=2)
    res = erm_fit(prob, interval_directions(8), prob.sample(1024, 0), k=2)
    assert res.excess_risk >= EXCESS_FLOOR


def test_erm_single_evaluation_matches_public_functions():
    prob = disk_problem()
    ps = generate_points(2, 24, "fibonacci_s2")
    samples = prob.sample(3000, 1)
    res = erm_fit(prob, ps, samples, k=2)
    model = res.model
    want = _erm_reference(prob, ps, samples, 2)
    assert abs(res.population_energy - energy(model, model.gradient, prob)) <= want[5]
    assert res.empirical_risk == empirical_risk(model, model.gradient, prob, samples)
    assert res.excess_risk == res.population_energy - prob.exact_energy
    pts, w = prob.grid()
    diff = model(pts) - prob.solution(pts)
    gdiff = model.gradient(pts) - prob.solution.grad(pts)
    h1 = math.sqrt(float(np.dot(w, diff**2 + np.sum(gdiff**2, axis=1))))
    assert abs(res.h1_error - h1) <= want[6]


def _disk_grid_reference(n_r, n_t):
    """The disk grid as pde_erm and harness each wrote it before they shared one function."""
    r, wr = np.polynomial.legendre.leggauss(n_r)
    r = (r + 1.0) / 2.0
    wr = wr / 2.0
    t = 2.0 * math.pi * (np.arange(n_t) + 0.5) / n_t
    R, T = np.meshgrid(r, t, indexing="ij")
    pts = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
    return pts, np.repeat(wr * r, n_t)


def _pairs(points, weights):
    """The (point, weight) rows of a grid, sorted: equal for two grids that
    hold the same pairs, in whatever order."""
    rows = np.column_stack([points, weights])
    return rows[np.lexsort(rows.T[::-1])]


def test_disk_grids_bit_identical_to_reference():
    """disk_grid and domain_grid are the reference grids bit for bit, and
    each problem's Grid holds the same (point, weight) pairs, in its tile
    order."""
    pts, w = disk_grid(DISK_GRID_RADII)
    want_pts, wr = _disk_grid_reference(256, 512)
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(w, wr / 512)
    assert np.array_equal(_pairs(*disk_problem().grid()), _pairs(want_pts, wr * (2.0 * math.pi / 512)))
    for min_points in (2048, 64 * 640):
        pts, w = domain_grid(2, min_points)
        want_pts, wr = _disk_grid_reference(max(80, math.ceil(min_points / 512)), 512)
        assert np.array_equal(pts, want_pts)
        assert np.array_equal(w, (wr / 512) / (wr / 512).sum())
    # the interval grids as pde_erm and harness each wrote them before midpoint_grid
    x, w = interval_problem().grid()
    assert np.array_equal(np.sort(x[:, 0]), (np.arange(4096) + 0.5) / 4096)
    assert np.array_equal(w, np.full(4096, 1.0 / 4096))
    for n in (1, 7, 512, 4096):
        x, w = domain_grid(1, n)
        assert np.array_equal(x[:, 0], -1.0 + 2.0 * (np.arange(n) + 0.5) / n)
        assert np.array_equal(w, np.full(n, 1.0 / n))


@pytest.mark.parametrize("make", [interval_problem, disk_problem])
def test_problem_grid_is_built_once_and_read_only(make):
    prob = make()
    (pts, w), (pts2, w2) = prob.grid(), prob.grid()
    assert pts is pts2 and w is w2
    assert not pts.flags.writeable and not w.flags.writeable


def test_erm_fallback_keeps_its_reason(caplog):
    """Fibonacci directions on the disk include neurons that are 0 on every
    sample, so the uncapped Gram has zero rows, solve raises, and the
    shifted solve that replaces it says so."""
    prob = disk_problem()
    ps = generate_points(2, 64, "fibonacci_s2")
    samples = prob.sample(16384, 0)
    quiet = erm_fit(prob, ps, samples, k=2)
    assert not [r for r in caplog.records if r.name == "fnspace.pde_erm"]
    with caplog.at_level(logging.DEBUG, logger="fnspace.pde_erm"):
        logged = erm_fit(prob, ps, samples, k=2)
    (record,) = [r for r in caplog.records if r.name == "fnspace.pde_erm"]
    info = json.loads(record.getMessage())
    assert (info["path"], info["n"]) == ("solve+1e-12I", 64) and info["zero_rows"] > 0
    assert np.array_equal(logged.model.a, quiet.model.a)


# The grid stage evaluates the model tile by tile (models._tile_values), so
# pop, excess and h1 are the dense reference's up to rounding: within
# ERM_TOL eps times the first-order reach of the per-row bound
# S = sum_j |a_j| (sum_i |theta_ji x_i|)^k on the values, and its k-fold
# counterpart on the gradients, plus the sums' own rounding.
ERM_TOL = 64


def _erm_reference(problem, ps, samples, k, norm_cap=0.0):
    """erm_fit as written with two m x n buffers, the risk read off them, and a
    dense grid evaluation: the bit reference for a and the risk, the
    reference for pop, excess and h1 within (pop_tol, h1_tol).
    (a, emp, pop, excess, h1, pop_tol, h1_tol)."""
    m = len(samples)
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
    model = FiniteNeuronModel(k, ps, a, norm_cap)
    emp = problem.volume * float(np.mean(_psi(phi @ a, dphi @ (a[:, None] * wdirs), h)))
    pts, w = problem.grid()
    values, grads = model._evaluate(pts, grad=True)
    hv = problem.source(pts)
    pop = float(np.dot(w, _psi(values, grads, hv)))
    diff = values - problem.solution(pts)
    gdiff = grads - problem.solution.grad(pts)
    h1 = math.sqrt(max(float(np.dot(w, diff**2 + np.sum(gdiff**2, axis=1))), 0.0))
    reach = np.abs(np.column_stack([pts, np.ones(len(pts))])) @ np.abs(ps.points.T)
    S = reach**k @ np.abs(a)
    S1 = k * reach ** (k - 1) @ (np.abs(a) * np.abs(wdirs).sum(axis=1))
    grad_abs = np.abs(grads).sum(axis=1)
    eps = np.finfo(float).eps
    terms = 0.5 * (values**2 + np.sum(grads**2, axis=1)) + np.abs(hv * values)
    pop_tol = ERM_TOL * eps * float(np.dot(w, S * (np.abs(values) + np.abs(hv)) + S1 * grad_abs + terms))
    h1_reach = float(np.dot(w, S * np.abs(diff) + S1 * np.abs(gdiff).sum(axis=1)))
    h1_tol = ERM_TOL * eps * (h1_reach / h1 + h1 if h1 > 0.0 else math.sqrt(h1_reach))
    return a, emp, pop, pop - problem.exact_energy, h1, pop_tol, h1_tol


PROBLEMS = {"interval": interval_problem(), "disk": disk_problem()}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PROBLEMS)),
    k=st.integers(1, 3),
    n=st.integers(1, 24),
    rows_per_neuron=st.integers(16, 128),
    fibonacci=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    cap_share=st.sampled_from([0.0, 0.5, 0.9, 2.0]),
)
def test_erm_fit_bit_identical_to_two_buffer_reference(name, k, n, rows_per_neuron, fibonacci, seed, cap_share):
    """One reused buffer gives the same a, bit for bit, and the tiled grid
    stage the dense energy and H1 error within the reference's tolerance;
    the empirical risk is the fitted model's, bit for bit, and within
    rounding of the two-buffer risk.  A reference excess within tolerance
    of EXCESS_FLOOR allows either outcome."""
    prob = PROBLEMS[name]
    if fibonacci:
        ps = interval_directions(n) if prob.d == 1 else generate_points(2, n, "fibonacci_s2")
    else:
        ps = generate_points(prob.d, n, "uniform_random", seed)
    samples = prob.sample(rows_per_neuron * n, seed)
    cap = 0.0
    if cap_share:  # a share of the free norm: binding below 1, loose above
        free = _erm_reference(prob, ps, samples, k)[0]
        cap = cap_share * math.sqrt(n) * float(np.linalg.norm(free))
        assume(cap > 0.0)
    want = _erm_reference(prob, ps, samples, k, cap)
    excess, pop_tol = want[3], want[5]
    if excess < EXCESS_FLOOR - pop_tol:  # a kink pair no sample or grid point resolves
        with pytest.raises(ContractError, match="excess risk"):
            erm_fit(prob, ps, samples, k, norm_cap=cap)
        return
    try:
        res = erm_fit(prob, ps, samples, k, norm_cap=cap)
    except ContractError as exc:  # only where the floor lies within tolerance of the reference
        assert "excess risk" in str(exc) and excess <= EXCESS_FLOOR + pop_tol
        return
    _assert_matches_reference(res, want)
    assert res.empirical_risk == empirical_risk(res.model, res.model.gradient, prob, samples)
    assert res.empirical_risk == pytest.approx(want[1], rel=1e-13)


def _erm_records(caplog):
    return [json.loads(r.getMessage()) for r in caplog.records if r.name == "fnspace.pde_erm"]


def test_erm_fit_holds_one_sample_buffer(caplog):
    """A warm fit that assembles its system keeps its tracemalloc peak below
    1.5 m x n float64 buffers (two buffers read 2.08).  The traced fit draws
    samples the warm-up did not, so it builds rather than reuses."""
    prob = interval_problem()
    ps = interval_directions(64)
    m = 32768
    erm_fit(prob, ps, prob.sample(m, 0), k=2)
    samples = prob.sample(m, 1)
    with caplog.at_level(logging.DEBUG, logger="fnspace.pde_erm"):
        tracemalloc.start()
        try:
            erm_fit(prob, ps, samples, k=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    (record,) = _erm_records(caplog)
    assert record["assembly"] == "built"
    assert peak < 1.5 * 8 * m * ps.n


def _assert_matches_reference(res, want):
    """a bit for bit; pop, excess and h1 within the reference's tolerance."""
    a, _, pop, excess, h1, pop_tol, h1_tol = want
    assert np.array_equal(res.model.a, a)
    assert abs(res.population_energy - pop) <= pop_tol
    assert abs(res.excess_risk - excess) <= pop_tol
    assert abs(res.h1_error - h1) <= h1_tol


def test_erm_capped_refit_reuses_the_system(caplog):
    prob = disk_problem()
    ps = generate_points(2, 32, "fibonacci_s2")
    samples = prob.sample(4096, 3)
    with caplog.at_level(logging.DEBUG, logger="fnspace.pde_erm"):
        free = erm_fit(prob, ps, samples, k=2)
        cap = 0.5 * math.sqrt(ps.n) * float(np.linalg.norm(free.model.a))
        capped = erm_fit(prob, ps, samples, k=2, norm_cap=cap)
        # an equal PointSet built anew is the same system by value
        again = erm_fit(prob, generate_points(2, 32, "fibonacci_s2"), samples.copy(), k=2, norm_cap=cap)
    _assert_matches_reference(capped, _erm_reference(prob, ps, samples, 2, cap))
    assert capped.empirical_risk == empirical_risk(capped.model, capped.model.gradient, prob, samples)
    assert np.array_equal(again.model.a, capped.model.a)
    assert _outcome(again) == _outcome(capped)
    records = _erm_records(caplog)
    assert [(r["assembly"], r["path"]) for r in records[1:]] == [("reused", "cap")] * 2
    assert all((r["n"], r["m"], r["k"]) == (32, 4096, 2) and r["seconds"] >= 0.0 for r in records)
    _assert_stage_seconds(records)


def _outcome(res):
    """Everything a fit reports, for exact comparison between fits."""
    return (res.model.a.tobytes(), res.empirical_risk, res.population_energy, res.excess_risk, res.h1_error)


def _assert_stage_seconds(records):
    """Each stage's seconds are nonnegative, and together at most the call's."""
    for r in records:
        stages = [r[key] for key in ("assembly_s", "solve_s", "evaluate_s")]
        assert min(stages) >= 0.0 and sum(stages) <= r["seconds"]


def test_erm_fit_at_a_workload_size_matches_the_reference(caplog):
    """Fibonacci n = 64, m = 16384 on the disk at k = 2, uncapped and then
    capped at half the free norm: the reference's a, energy and H1 error bit
    for bit, the one-preactivation assembly built once and reused."""
    prob = PROBLEMS["disk"]
    ps = generate_points(2, 64, "fibonacci_s2")
    samples = prob.sample(16384, 0)
    want = _erm_reference(prob, ps, samples, 2)
    cap = 0.5 * math.sqrt(ps.n) * float(np.linalg.norm(want[0]))
    want_capped = _erm_reference(prob, ps, samples, 2, cap)
    with caplog.at_level(logging.DEBUG, logger="fnspace.pde_erm"):
        free = erm_fit(prob, ps, samples, k=2)
        capped = erm_fit(prob, ps, samples, k=2, norm_cap=cap)
    for res, ref in ((free, want), (capped, want_capped)):
        _assert_matches_reference(res, ref)
        assert res.empirical_risk == empirical_risk(res.model, res.model.gradient, prob, samples)
    records = _erm_records(caplog)
    assert [r["assembly"] for r in records] == ["built", "reused"] and records[1]["path"] == "cap"
    _assert_stage_seconds(records)


def test_erm_in_place_edit_of_samples_rebuilds(caplog):
    prob = interval_problem()
    ps = interval_directions(8)
    samples = prob.sample(1024, 0)
    erm_fit(prob, ps, samples, k=2)
    samples[:100] *= 0.5
    want = _erm_reference(prob, ps, samples, 2)
    with caplog.at_level(logging.DEBUG, logger="fnspace.pde_erm"):
        res = erm_fit(prob, ps, samples, k=2)
        samples[0] = 0.0
        erm_fit(prob, ps, samples, k=2)
        samples[0] = -0.0  # equal by value, not by bits
        erm_fit(prob, ps, samples, k=2)
    assert [r["assembly"] for r in _erm_records(caplog)] == ["built"] * 3
    _assert_matches_reference(res, want)


def test_erm_in_place_edit_of_directions_rebuilds(caplog):
    prob = interval_problem()
    ps = interval_directions(8)
    samples = prob.sample(1024, 0)
    erm_fit(prob, ps, samples, k=2)
    ps.points[2:4] = ps.points[2:4, ::-1]  # still unit vectors
    with caplog.at_level(logging.DEBUG, logger="fnspace.pde_erm"):
        res = erm_fit(prob, ps, samples, k=2)
    (record,) = _erm_records(caplog)
    assert record["assembly"] == "built"
    _assert_matches_reference(res, _erm_reference(prob, ps, samples, 2))


def test_erm_other_k_or_source_rebuilds(caplog):
    prob = interval_problem()
    ps = interval_directions(8)
    samples = prob.sample(1024, 0)
    # the same values from another function: the source is keyed by identity
    wrapped = dataclasses.replace(prob, source=lambda x: prob.source(x))
    with caplog.at_level(logging.DEBUG, logger="fnspace.pde_erm"):
        erm_fit(prob, ps, samples, k=2)
        other_k = erm_fit(prob, ps, samples, k=3)
        other_source = erm_fit(wrapped, ps, samples, k=3)
    assert [r["assembly"] for r in _erm_records(caplog)] == ["built"] * 3
    want = _erm_reference(prob, ps, samples, 3)
    _assert_matches_reference(other_k, want)
    _assert_matches_reference(other_source, want)


_POOL = {}
_POOL_DIRECTIONS = interval_directions(6)


class _Keep(logging.Handler):
    """Collects the JSON records of the "fnspace.pde_erm" logger."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(json.loads(record.getMessage()))


def _pool_reference(seed, k, cap_share):
    """(samples, cap, reference) for one entry of the cache property's pool."""
    key = (seed, k, cap_share)
    if key not in _POOL:
        prob, ps = PROBLEMS["interval"], _POOL_DIRECTIONS
        samples = prob.sample(512, seed)
        cap = 0.0
        if cap_share:
            free = _erm_reference(prob, ps, samples, k)[0]
            cap = cap_share * math.sqrt(ps.n) * float(np.linalg.norm(free))
        _POOL[key] = (samples, cap, _erm_reference(prob, ps, samples, k, cap))
    return _POOL[key]


@settings(max_examples=40, deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.integers(0, 1), st.integers(1, 2), st.sampled_from([0.0, 0.5, 2.0]), st.booleans()),
        min_size=1, max_size=6,
    )
)
def test_erm_fit_sequences_match_the_reference(calls):
    """Any sequence of fits over a small pool of (samples, k, cap) gives each
    fit's reference result (a bit for bit, the grid stage within tolerance),
    whatever the previous fit left, and every fit of one pool entry, reused
    or rebuilt, the same result bit for bit; a fresh draw of the same
    samples is the same system."""
    prob = PROBLEMS["interval"]
    logger = logging.getLogger("fnspace.pde_erm")
    handler = _Keep()
    logger.addHandler(handler)
    level = logger.level
    logger.setLevel(logging.DEBUG)
    try:
        previous, seen = None, {}
        for seed, k, cap_share, fresh in calls:
            samples, cap, want = _pool_reference(seed, k, cap_share)
            if fresh:
                samples = prob.sample(len(samples), seed)
            res = erm_fit(prob, _POOL_DIRECTIONS, samples, k, norm_cap=cap)
            _assert_matches_reference(res, want)
            assert seen.setdefault((seed, k, cap_share), _outcome(res)) == _outcome(res)
            if previous is not None:
                assert handler.records[-1]["assembly"] == ("reused" if previous == (seed, k) else "built")
            previous = (seed, k)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@pytest.mark.parametrize("make", [interval_problem, disk_problem])
def test_grid_values_are_evaluated_once_and_read_only(make):
    """Fits and energy on a problem read h on its grid from one table,
    evaluated once, as they read f and grad f: read-only, on the grid's
    own rows."""
    base = make()
    calls = []

    def source(x):
        calls.append(len(x))
        return base.source(x)

    prob = dataclasses.replace(base, source=source)
    ps = interval_directions(4) if prob.d == 1 else generate_points(2, 8, "fibonacci_s2")
    erm_fit(prob, ps, prob.sample(256, 0), k=2)
    energy(prob.solution, prob.solution.grad, prob)
    erm_fit(prob, ps, prob.sample(256, 1), k=2)
    pts, _ = grid = prob.grid()
    hv, fv, fg = (grid.tabulate(fn) for fn in (source, prob.solution, prob.solution.grad))
    assert calls.count(len(pts)) == 1
    assert np.array_equal(hv, base.source(pts)) and np.array_equal(fv, base.solution(pts))
    assert np.array_equal(fg, base.solution.grad(pts).T)
    assert not any(v.flags.writeable for v in (hv, fv, fg))


def test_disk_exact_energy_is_the_grid_quadrature():
    """disk_problem's closed form E(f) = -(pi^3 + pi/2)/2 is within 1e-12 of
    the grid quadrature of Psi(f), the oracle it replaced."""
    prob = disk_problem()
    pts, w = prob.grid()
    quadrature = float(np.dot(w, _psi(prob.solution(pts), prob.solution.grad(pts), prob.source(pts))))
    assert prob.exact_energy == -(math.pi**3 + math.pi / 2.0) / 2.0
    assert abs(prob.exact_energy - quadrature) <= 1e-12


def test_a_problem_grid_that_is_not_a_grid_is_refused():
    """A problem whose grid() returns (points, weights) as a plain tuple, not
    a models.Grid, is a ContractError in energy and in erm_fit."""
    base = interval_problem()
    prob = dataclasses.replace(base, grid=lambda: tuple(base.grid()))
    with pytest.raises(ContractError, match="models.Grid"):
        energy(prob.solution, prob.solution.grad, prob)
    with pytest.raises(ContractError, match="models.Grid"):
        erm_fit(prob, interval_directions(4), prob.sample(256, 0), k=2)


def test_the_erm_grid_is_tiled_and_tabulated_once(monkeypatch):
    """disk_problem() builds no Grid: its grid is built, with its kd-tree,
    on the first call of grid(), with neither tile boxes nor tables.  Fits
    through dataclasses.replace(problem, grid=<wrapper>), as the erm_disk
    benchmark runs them, alternating with fits on fresh interval problems,
    build no other disk kd-tree and each of its tables of h, f and grad f
    once, and an interval problem is freed with its grid once it goes."""
    built, tree = [], models.cKDTree

    def counting(*args, **kwargs):
        built.append(len(args[0]))
        return tree(*args, **kwargs)

    monkeypatch.setattr(models, "cKDTree", counting)
    prob = disk_problem()
    assert built == []
    grid = prob.grid()
    assert built == [len(grid[0])] and not grid._boxes and "_tables" not in vars(grid)
    tables, freed = set(), []
    for n in (8, 16, 24):
        wrapped = dataclasses.replace(prob, grid=lambda: prob.grid())
        erm_fit(wrapped, generate_points(2, n, "fibonacci_s2"), prob.sample(64 * n, n), k=2)
        tables.add(tuple(map(id, vars(grid)["_tables"].values())))
        interval = interval_problem()
        erm_fit(interval, interval_directions(n), interval.sample(64 * n, n), k=2)
        freed += [weakref.ref(interval), weakref.ref(interval.grid().xt)]
        del interval
    gc.collect()
    assert built.count(len(grid[0])) == 1 and len(tables) == 1 and len(tables.pop()) == 3
    assert all(ref() is None for ref in freed)


def test_warm_grid_stage_allocates_no_grid_length_array():
    """The energy and H1 error of an n = 512 model on the 131072-point disk
    grid, once the grid is tiled and tabulated, peak below one float array
    as long as the grid: no values or gradients array of the grid is formed."""
    prob = PROBLEMS["disk"]
    ps = generate_points(2, 512, "fibonacci_s2")
    model = FiniteNeuronModel(2, ps, np.random.default_rng(0).standard_normal(512))
    want = _grid_energy(model, prob)
    tracemalloc.start()
    try:
        got = _grid_energy(model, prob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * len(prob.grid()[0])
