import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from fnspace.errors import ConfigurationError, ContractError
from fnspace.pde_erm import (
    EXCESS_FLOOR,
    EllipticProblem,
    disk_problem,
    empirical_risk,
    energy,
    erm_fit,
    interval_problem,
)
from fnspace.harness import domain_grid
from fnspace.models import TargetFunction
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
        1, "null", 1.0, lambda x: np.zeros(len(x)), zero_tf,
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


def test_erm_rejects_samples_of_the_wrong_width():
    with pytest.raises(ContractError, match="samples"):
        erm_fit(interval_problem(), interval_directions(4), np.zeros((100, 2)), k=2)


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
    pop = energy(model, model.gradient, prob)
    assert res.population_energy == pytest.approx(pop, rel=1e-13)
    emp = empirical_risk(model, model.gradient, prob, samples)
    assert res.empirical_risk == pytest.approx(emp, rel=1e-13)
    assert res.excess_risk == res.population_energy - prob.exact_energy
    pts, w = prob.grid()
    diff = model(pts) - prob.solution(pts)
    gdiff = model.gradient(pts) - prob.solution.grad(pts)
    h1 = math.sqrt(float(np.dot(w, diff**2 + np.sum(gdiff**2, axis=1))))
    assert res.h1_error == pytest.approx(h1, rel=1e-13)


def _disk_grid_reference(n_r, n_t):
    """The disk grid as pde_erm and harness each wrote it before they shared one function."""
    r, wr = np.polynomial.legendre.leggauss(n_r)
    r = (r + 1.0) / 2.0
    wr = wr / 2.0
    t = 2.0 * math.pi * (np.arange(n_t) + 0.5) / n_t
    R, T = np.meshgrid(r, t, indexing="ij")
    pts = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
    return pts, np.repeat(wr * r, n_t)


def test_disk_grids_bit_identical_to_reference():
    pts, w = disk_problem().grid()
    want_pts, wr = _disk_grid_reference(256, 512)
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(w, wr * (2.0 * math.pi / 512))
    for min_points in (2048, 64 * 640):
        pts, w = domain_grid(2, min_points)
        want_pts, wr = _disk_grid_reference(max(80, math.ceil(min_points / 512)), 512)
        assert np.array_equal(pts, want_pts)
        assert np.array_equal(w, (wr / 512) / (wr / 512).sum())
    # the interval grids as pde_erm and harness each wrote them before midpoint_grid
    x, w = interval_problem().grid()
    assert np.array_equal(x[:, 0], (np.arange(4096) + 0.5) / 4096)
    assert np.array_equal(w, np.full(4096, 1.0 / 4096))
    for n in (1, 7, 512, 4096):
        x, w = domain_grid(1, n)
        assert np.array_equal(x[:, 0], -1.0 + 2.0 * (np.arange(n) + 0.5) / n)
        assert np.array_equal(w, np.full(n, 1.0 / n))


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
