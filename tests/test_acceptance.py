"""Acceptance suite: every headline property at desk scale.

Each test prints one summary line so the suite doubles as a report when
run with `pytest -s tests/test_acceptance.py`.
"""

import math
import time

import numpy as np
import pytest

from fnspace import ball_map, pde_erm
from fnspace.activation import (
    _sigma_hat_closed,
    in_support,
    kernel,
    sigma_hat_quadrature,
    sigma_k,
    spectrum,
)
from fnspace.harmonics import (
    PROJECT_MARGIN,
    harmonic_block,
    harmonic_dim,
    harmonic_table,
    legendre_table,
    project,
    reference_grid,
)
from fnspace.harness import (
    ExperimentConfig,
    get_target,
    loglog_slope,
    run_randcmp,
    run_rates,
)
from fnspace.models import FiniteNeuronModel, constructive_fit, features
from fnspace.quadrature import build_rule, default_degree
from fnspace.sphere import generate_points


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d}: {status} ({detail}; {elapsed:.1f}s / {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget:.0f}s"


def test_criterion_01_spectrum_oracle_equivalence(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for d in (1, 2, 3):
        for k in (0, 1, 2, 3):
            for m in range(k + 1, 51):
                if not in_support(k, m):
                    continue
                closed = _sigma_hat_closed(d, k, m)
                quad = sigma_hat_quadrature(d, k, m)
                worst = max(worst, abs(closed - quad) / abs(quad))
    with capsys.disabled():
        report(1, worst < 1e-8, f"max rel err {worst:.2e}", time.monotonic() - t0, 10)


def test_criterion_02_decay_exponent(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for d in (1, 2):
        for k in (1, 2):
            sp = spectrum(d, k, 400)
            ms = sp.support_degrees(20, 400)
            slope, _ = loglog_slope(ms, np.abs(sp.coefficients[ms]))
            worst = max(worst, abs(slope + (d + 2 * k + 1) / 2.0))
    with capsys.disabled():
        report(2, worst < 0.05, f"max slope dev {worst:.3f}", time.monotonic() - t0, 5)


def test_criterion_03_addition_theorem(capsys):
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(1))
    worst = 0.0
    for d in (1, 2):
        eta = rng.standard_normal((30, d + 1))
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        theta = rng.standard_normal((30, d + 1))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        u = np.clip(np.sum(eta * theta, axis=1), -1.0, 1.0)
        table = legendre_table(d, 20, u)
        table1 = legendre_table(d, 20, np.array([1.0]))
        for m in range(21):
            lhs = np.sum(
                harmonic_block(d, m, eta) * harmonic_block(d, m, theta), axis=0
            )
            worst = max(worst, float(np.max(np.abs(lhs - table[m]))))
            worst = max(worst, abs(table1[m, 0] - harmonic_dim(d, m)))
    with capsys.disabled():
        report(3, worst < 1e-9, f"max residual {worst:.2e}", time.monotonic() - t0, 5)


def test_criterion_04_quadrature_exactness(capsys):
    t0 = time.monotonic()
    degrees = {}
    ok = True
    detail = []
    for n in (100, 200, 400):
        ps = generate_points(2, n, "fibonacci_s2")
        rule = build_rule(ps, default_degree(ps))
        degrees[n] = rule.exact_degree
        ok &= bool(np.all(rule.weights >= 0.0))
        ok &= abs(float(rule.weights.sum()) - 1.0) <= 1e-10
        ok &= rule.residual <= 1e-8
        detail.append(f"D({n})={rule.exact_degree}")
    ok &= degrees[400] >= 1.5 * degrees[100]
    with capsys.disabled():
        report(4, ok, " ".join(detail), time.monotonic() - t0, 60)


def test_criterion_05_constructive_rate_circle(capsys):
    t0 = time.monotonic()
    target = get_target("smooth_even_circle", 1)
    dense = reference_grid(1, 8192)
    errs, match_worst = [], 0.0
    ns = (16, 32, 64, 128, 256)
    for n in ns:
        ps = generate_points(1, n, "equispaced_circle")
        rule = build_rule(ps, n - 1)
        spec = spectrum(1, 1, rule.J + 4)
        grid = reference_grid(1, max(2 * rule.J + 8, 1024))
        model = constructive_fit(target, rule, spec, grid)
        diff = model(grid.nodes) - target(grid.nodes)
        errs.append(math.sqrt(float(grid.weights @ diff**2)))
        fs, gs = model(dense.nodes), target(dense.nodes)
        for m in spec.support_degrees(hi=rule.J):
            cf, _ = project(dense, fs, int(m))
            cg, _ = project(dense, gs, int(m))
            match_worst = max(match_worst, float(np.max(np.abs(cf - cg))))
    slope, _ = loglog_slope(ns, errs)
    ok = slope <= -1.7 and match_worst < 1e-6
    with capsys.disabled():
        report(
            5,
            ok,
            f"slope {slope:.2f} (need <= -1.7), trunc match {match_worst:.1e}",
            time.monotonic() - t0,
            60,
        )


@pytest.fixture(scope="module")
def ls_rate_report():
    cfg = ExperimentConfig(
        d=2,
        k=1,
        target="gaussian_bump",
        strategy="fibonacci_s2",
        ns=(32, 64, 128, 256, 512),
        ridge=1e-9,
        s=1,
    )
    t0 = time.monotonic()
    report_ = run_rates(cfg)
    return report_, time.monotonic() - t0


def test_criterion_06_ls_rate_disk(capsys, ls_rate_report):
    rate, elapsed = ls_rate_report
    rows = [r for r in rate.rows if r["error_code"] == ""]
    ns = [r["n"] for r in rows]
    l2_slope, _ = loglog_slope(ns, [r["error_l2"] for r in rows])
    h1_slope, _ = loglog_slope(ns, [r["error_h1"] for r in rows])
    ok = len(rows) == 5 and l2_slope <= -1.1 and h1_slope <= -0.75
    with capsys.disabled():
        report(
            6,
            ok,
            f"L2 slope {l2_slope:.2f} (<= -1.1), H1 slope {h1_slope:.2f} (<= -0.75)",
            elapsed,
            300,
        )


def test_criterion_07_coefficient_bound(capsys, ls_rate_report):
    rate, _ = ls_rate_report
    rows = [r for r in rate.rows if r["error_code"] == ""]
    slope, _ = loglog_slope([r["n"] for r in rows], [r["sqrtn_a_norm"] for r in rows])
    ok = -0.25 <= slope <= 0.25
    with capsys.disabled():
        report(7, ok, f"sqrt(n)||a|| slope {slope:.3f} in [-0.25, 0.25]", 0.0, 1)


def test_criterion_08_random_vs_deterministic(capsys):
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        d=2,
        k=1,
        target="gaussian_bump",
        strategy="fibonacci_s2",
        ns=(64, 128, 256, 512),
        seeds=tuple(range(20)),
        ridge=1e-9,
    )
    summary = run_randcmp(cfg)
    rows = {r["n"]: r for r in summary["rows"]}
    med_ok = rows[256]["rand_median"] >= rows[256]["det_error"]
    slope, _ = loglog_slope(
        sorted(rows), [rows[n]["rand_median"] for n in sorted(rows)]
    )
    ok = med_ok and -1.35 <= slope <= -0.95
    with capsys.disabled():
        report(
            8,
            ok,
            f"median(256) {rows[256]['rand_median']:.2e} >= det {rows[256]['det_error']:.2e}, "
            f"random slope {slope:.2f}",
            time.monotonic() - t0,
            600,
        )


def test_criterion_09_kernel_identity(capsys):
    t0 = time.monotonic()
    d, k, n_mc = 2, 1, 10**6
    sp = spectrum(d, k, 600)
    rng = np.random.Generator(np.random.Philox(2))
    theta = rng.standard_normal((n_mc, d + 1))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    area = 4.0 * math.pi
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-0.7, 0.7, d)
        y = rng.uniform(-0.7, 0.7, d)
        vals = sigma_k(k, theta @ np.append(x, 1.0)) * sigma_k(
            k, theta @ np.append(y, 1.0)
        )
        mc = area * float(np.mean(vals))
        se = area * float(np.std(vals)) / math.sqrt(n_mc)
        series = kernel(d, k, sp, x, y)
        worst = max(worst, abs(series - mc) / se)
    with capsys.disabled():
        report(9, worst <= 3.0, f"max |series-MC| = {worst:.2f} SE", time.monotonic() - t0, 60)


def test_criterion_10_transfer_roundtrips(capsys):
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(3))
    bw = math.pi / 16.0
    margin = math.pi / 4.0 + bw / 2.0 + 0.01
    worst_rt, worst_par = 0.0, 0.0
    for trial in range(100):
        k = int(rng.integers(0, 4))
        centers = rng.uniform(-0.5, 0.5, (3, 2))
        amps = rng.standard_normal(3)

        def f(x):
            out = np.zeros(len(x))
            for c, a in zip(centers, amps):
                out += a * np.exp(-np.sum((x - c) ** 2, axis=1))
            return out

        cap = ball_map.restrict_T_k(2, k, f, margin=margin)
        lifted = ball_map.lift_S_k(cap)
        x = rng.uniform(-0.5, 0.5, (20, 2))
        worst_rt = max(worst_rt, float(np.max(np.abs(lifted(x) - f(x)))))
        back = ball_map.restrict_T_k(2, k, ball_map.lift_S_k(cap))
        z = rng.uniform(1.0 / math.sqrt(2.0) + 1e-6, 1.0, 20)
        phi = rng.uniform(0.0, 2.0 * math.pi, 20)
        r = np.sqrt(1.0 - z**2)
        eta = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
        worst_rt = max(worst_rt, float(np.max(np.abs(back(eta) - cap(eta)))))
        if k >= 1:
            ext = ball_map.parity_extend(cap, bw)
            v = rng.standard_normal((50, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            res = ext(v) - (-1.0) ** (k + 1) * ext(-v)
            worst_par = max(worst_par, float(np.max(np.abs(res))))
    ok = worst_rt < 1e-12 and worst_par < 1e-12
    with capsys.disabled():
        report(
            10,
            ok,
            f"roundtrip {worst_rt:.1e}, parity {worst_par:.1e}",
            time.monotonic() - t0,
            10,
        )


def test_criterion_11_pde_erm(capsys):
    t0 = time.monotonic()
    prob = pde_erm.interval_problem()
    energy_ok = abs(prob.exact_energy + (math.pi**2 + 1.0) / 4.0) < 1e-6
    e_grid = pde_erm.energy(prob.solution, prob.solution.grad, prob)
    energy_ok &= abs(e_grid - prob.exact_energy) < 1e-6
    # optimality certificate at one representative fit
    k = 2
    ps = pde_erm.interval_directions(6)
    samples = prob.sample(4096, 0)
    res = pde_erm.erm_fit(prob, ps, samples, k=k)
    phi, dphi = features(ps, k, samples, grad=True)
    gram_w = ps.points[:, :1] @ ps.points[:, :1].T
    A = (phi.T @ phi + (dphi.T @ dphi) * gram_w) / len(samples)
    b = (phi.T @ prob.source(samples)) / len(samples)
    cert = float(np.linalg.norm(A @ res.model.a - b)) <= 1e-8 * float(
        np.linalg.norm(b)
    )
    ms = [2**j for j in range(8, 15)]
    means = []
    for m in ms:
        n = math.ceil(m ** (1.0 / (2.0 * (1 + 2 * k - 1))))
        dirs = pde_erm.interval_directions(n)
        ex = [
            pde_erm.erm_fit(prob, dirs, prob.sample(m, seed), k=k, seed=seed).excess_risk
            for seed in range(8)
        ]
        means.append(float(np.mean(ex)))
    slope, _ = loglog_slope(ms, means)
    ok = energy_ok and cert and -0.8 <= slope <= -0.3
    with capsys.disabled():
        report(
            11,
            ok,
            f"E(f) ok={energy_ok}, certificate={cert}, excess slope {slope:.2f} in [-0.8, -0.3]",
            time.monotonic() - t0,
            600,
        )


def test_criterion_12_gradient_checks(capsys):
    t0 = time.monotonic()
    rng = np.random.Generator(np.random.Philox(4))
    worst = 0.0
    for d in (1, 2):
        for k in (1, 2, 3):
            ps = generate_points(d, 24, "uniform_random", seed=100 * d + k)
            model = FiniteNeuronModel(k, ps, rng.standard_normal(24))
            for _ in range(50):
                x = rng.uniform(-0.9, 0.9, d)
                grad = model.gradient(x)
                fd = np.empty(d)
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = 1e-5
                    fd[i] = (model(x + e) - model(x - e)) / 2e-5
                denom = max(float(np.linalg.norm(fd)), 1e-8)
                worst = max(worst, float(np.max(np.abs(grad - fd))) / denom)
    with capsys.disabled():
        report(12, worst < 1e-6, f"max rel grad err {worst:.1e}", time.monotonic() - t0, 5)


def test_criterion_13_integral_representation_density(capsys):
    """Theorem 1: f in H^{(d+2k+1)/2} is the integral of rho(theta) sigma_k(theta . x~)
    with rho in L^2.  rho_J = sum_{m<=J} sigma_hat(m)^{-1} Pi_m g, so under the
    normalized measure ||rho_J||^2 = sum_{m<=J} ||Pi_m g||^2 / sigma_hat(m)^2.
    At 1 BLAS thread ||rho_J|| read, at J = 8, 16, 24, 32, 40:
      k = 1 smooth  13.3657 13.5909 13.6053 13.6056 13.6056
      k = 1 |eta_3| 13.644 26.304 41.311 60.634 87.813
      k = 2 smooth  27.3885 32.7183 32.8569 32.8715 32.8724
      k = 2 eta_3|eta_3| 11.998 23.268 34.185 43.809 49.860
    so a smooth series settles (|rho_40 - rho_32| read < 1e-6 and 2.7e-5
    of rho_40; the band is 1e-4) and a rough control outside
    H^{(d+2k+1)/2} keeps growing (rho_40 / rho_8 read 6.4 and 4.2; the
    band is 3)."""
    t0 = time.monotonic()
    js = (8, 16, 24, 32, 40)
    grid = reference_grid(2, 88)
    assert grid.degree >= 2 * js[-1] + PROJECT_MARGIN
    eta3 = grid.nodes[:, 2]

    def smooth(k):  # the constructive_ball_s2 target
        bw = math.pi / 16.0
        cap = ball_map.restrict_T_k(
            2, k, lambda x: np.exp(-2.0 * np.sum(x**2, axis=-1)), margin=math.pi / 4.0 + bw / 2.0
        )
        return ball_map.parity_extend(cap, bw)(grid.nodes)

    series = {
        (1, "smooth"): smooth(1),
        (1, "|eta3|"): np.abs(eta3),
        (2, "smooth"): smooth(2),
        (2, "eta3|eta3|"): eta3 * np.abs(eta3),
    }
    # every degree's harmonic block, built once for all four targets; degree m is rows m^2 .. (m+1)^2 - 1
    samples = np.column_stack(list(series.values()))
    coeffs = harmonic_table(2, js[-1], grid.nodes) @ (grid.weights[:, None] * samples)
    ok, detail = True, []
    for col, (k, name) in enumerate(series):
        spec = spectrum(2, k, 44)
        terms = np.zeros(js[-1] + 1)
        for m in spec.support_degrees(hi=js[-1]):
            terms[m] = np.sum(coeffs[m * m : (m + 1) ** 2, col] ** 2) / spec.coefficient(int(m)) ** 2
        rho = dict(zip(js, np.sqrt(np.cumsum(terms)[list(js)])))
        if name == "smooth":
            change = abs(rho[40] - rho[32]) / rho[40]
            ok &= change <= 1e-4
            detail.append(f"k={k} smooth |d rho| {change:.1e}")
        else:
            growth = rho[40] / rho[8]
            ok &= growth >= 3.0
            detail.append(f"k={k} {name} rho40/rho8 {growth:.1f}")
    with capsys.disabled():
        report(13, ok, ", ".join(detail), time.monotonic() - t0, 30)
