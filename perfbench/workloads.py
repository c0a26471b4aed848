"""The three benchmark workloads, each one closed-loop pass of fnspace calls.

A pass returns cells.  A cell is one unit of checked output: a CSV row, a
fit, or an acceptance band.  Each cell carries the values the correctness
gate compares with the reference recorded at the seed commit, whether
those values depend on the workload seed, and whether its band held.

Every call into fnspace goes through a module attribute (``sphere.generate_points``,
``cli.main``, ...), so a traced pass sees the wrappers the tracer installs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from fnspace import activation, ball_map, cli, harmonics, harness, models, pde_erm, quadrature, sphere

# Sizes per workload; the smoke sizes only exercise the code paths.
SIZES = {
    "full": {
        "rates_ns": (32, 64, 128, 256, 512),
        "randcmp_ns": (32, 64, 128, 256),
        "constructive_ns": (200, 400),
        "circle_ns": (16, 32, 64, 128, 256),
        "mc_directions": 10**6,
        "erm": ((16, 4096), (32, 8192), (64, 16384), (128, 32768), (256, 65536)),
        "interval_ms": tuple(2**j for j in range(8, 15)),
    },
    "smoke": {
        "rates_ns": (8, 16, 32, 64),
        "randcmp_ns": (8, 16, 32, 64),
        "constructive_ns": (100,),
        "circle_ns": (16, 32, 64, 128),
        "mc_directions": 10**4,
        "erm": ((16, 1024),),
        "interval_ms": tuple(2**j for j in range(8, 12)),
    },
}
RANDCMP_SEEDS = 10  # run_randcmp refuses fewer
INTERVAL_SEEDS = 8
MC_PAIRS = 20
KERNEL_MAX_Z = 5.0  # series vs Monte Carlo, in standard errors, worst of MC_PAIRS
CAP_BIND_RTOL = 1e-5
BLEND = math.pi / 16.0


def derived_seeds(seed: int) -> list[int]:
    """Point-set and sample seeds for fnspace, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(32)]


@dataclasses.dataclass
class Context:
    seed: int
    work: Path
    smoke: bool = False
    disk: object = None  # pde_erm.disk_problem(), built once per process
    tracer: object = None  # a Tracer during traced passes
    counts: dict = dataclasses.field(default_factory=lambda: defaultdict(float))
    cells: list = dataclasses.field(default_factory=list)

    def __post_init__(self):
        self.pool = derived_seeds(self.seed)
        self.sizes = SIZES["smoke" if self.smoke else "full"]
        if self.tracer is not None:
            self.counts = self.tracer.counts

    def traced(self, name, fn, count=None):
        return fn if self.tracer is None else self.tracer.wrap(name, fn, count)

    def cell(self, cid: str, seeded: bool, compute) -> dict | None:
        """Run compute() -> (values, band_ok) as one cell; an exception
        becomes a failed cell that keeps its traceback."""
        try:
            values, ok = compute()
            error = ""
        except Exception:  # a failed cell must not stop the pass
            values, ok, error = None, False, traceback.format_exc(limit=4)
        self.cells.append({"id": cid, "seeded": seeded, "values": values, "ok": bool(ok), "error": error})
        return values


def _slope(ns, errs) -> float:
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])


def _l2(weights, diff) -> float:
    return math.sqrt(float(np.dot(weights, diff**2)))


def _count_points(counts, args, out):
    counts["ball_map.target_eval.points"] += len(np.atleast_2d(next(iter(args.values()))))


def _count_grid(counts, args, out):
    counts["pde_erm.grid_eval_points"] += len(out[0])


# ----------------------------------------------------------------- ls_rates_disk


def _run_cli(ctx: Context, command: str, cfg: dict) -> dict[str, str]:
    out = ctx.work / command
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg_path = ctx.work / f"{command}.cfg"
    cfg_path.write_text("".join(f"{key} = {val}\n" for key, val in cfg.items()))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(cfg_path), "--out", str(out), command])
    if code != 0:
        raise RuntimeError(f"fnspace {command} exited with {code}")
    files = {p.suffix: p.read_text() for p in out.glob(f"{command}_*")}
    ctx.counts["cli.result_bytes"] += sum(len(t.encode()) for t in files.values())
    return files


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def ls_rates_disk(ctx: Context) -> None:
    base = {"d": 2, "k": 1, "target": "gaussian_bump", "strategy": "fibonacci_s2", "ridge": "1e-9"}
    ns = ctx.sizes["rates_ns"]
    rates = {}

    def rates_cli():
        rates.update(_run_cli(ctx, "rates", base | {"ns": " ".join(map(str, ns)), "s": 1}))
        return {"files": len(rates)}, set(rates) == {".csv", ".json"}

    ctx.cell("rates/cli", False, rates_cli)
    rows = _csv_rows(rates[".csv"]) if ".csv" in rates else []
    for row in rows:
        ctx.cell(
            f"rates/n={row['n']}",
            False,
            lambda row=row: (
                {key: float(row[key]) for key in ("h", "error_l2", "error_h1", "sqrtn_a_norm")},
                row["error_code"] == "",
            ),
        )

    def rates_band():
        good = [r for r in rows if r["error_code"] == ""]
        n = [int(r["n"]) for r in good]
        l2 = _slope(n, [float(r["error_l2"]) for r in good])
        h1 = _slope(n, [float(r["error_h1"]) for r in good])
        reported = json.loads(rates[".json"])["fitted_slope"]
        ok = len(good) == len(ns) and abs(reported - l2) <= 1e-9 * abs(l2)
        if not ctx.smoke:  # criterion 06
            ok = ok and l2 <= -1.1 and h1 <= -0.75
        return {"l2_slope": l2, "h1_slope": h1}, ok

    ctx.cell("rates/band06", False, rates_band)

    seeds = " ".join(map(str, ctx.pool[:RANDCMP_SEEDS]))
    ns = ctx.sizes["randcmp_ns"]
    cmp_ = {}

    def randcmp_cli():
        cmp_.update(_run_cli(ctx, "randcmp", base | {"ns": " ".join(map(str, ns)), "seeds": seeds}))
        return {"files": len(cmp_)}, set(cmp_) == {".csv"}

    ctx.cell("randcmp/cli", False, randcmp_cli)
    rows = {int(r["n"]): r for r in _csv_rows(cmp_[".csv"])} if ".csv" in cmp_ else {}
    for n, row in rows.items():
        ctx.cell(f"randcmp/det/n={n}", False, lambda row=row: ({k: float(row[k]) for k in ("det_error", "det_h")}, True))
        ctx.cell(
            f"randcmp/rand/n={n}",
            True,
            lambda row=row: ({k: float(row[k]) for k in ("rand_q1", "rand_median", "rand_q3", "rand_h_median")}, True),
        )

    def randcmp_band():
        slope = _slope(list(rows), [float(r["rand_median"]) for r in rows.values()])
        ok = len(rows) == len(ns)
        if not ctx.smoke:  # criterion 08
            ok = ok and float(rows[256]["rand_median"]) >= float(rows[256]["det_error"]) and -1.35 <= slope <= -0.95
        return {"rand_slope": slope}, ok

    ctx.cell("randcmp/band08", True, randcmp_band)


# ---------------------------------------------------------- constructive_ball_s2


def _ball_gaussian(x):
    return np.exp(-2.0 * np.sum(x**2, axis=-1))


def constructive_ball_s2(ctx: Context) -> None:
    k = 1
    cap = ball_map.restrict_T_k(2, k, _ball_gaussian, margin=math.pi / 4.0 + BLEND / 2.0)
    g = ctx.traced("ball_map.target_eval", ball_map.parity_extend(cap, BLEND), _count_points)
    target = models.TargetFunction("ball_gaussian", 2, g, on_sphere=True, parity=(-1) ** (k + 1))
    ball_pts, ball_w = harness.domain_grid(2, 4096)
    ball_f = _ball_gaussian(ball_pts)

    def fit(strategy, n):
        ps = sphere.generate_points(2, n, strategy, seed=ctx.pool[RANDCMP_SEEDS])
        d_target = 2 * math.isqrt(n)  # above the feasible degree, so fallback and NNLS run
        rule = quadrature.build_rule(ps, d_target)
        spec = activation.spectrum(2, k, rule.J + 4)
        grid = harmonics.reference_grid(2, max(2 * rule.J + 8, 64))
        model = models.constructive_fit(target, rule, spec, grid)
        lifted = ctx.traced("ball_map.target_eval", ball_map.lift_S_k(ball_map.CapFunction(2, k, model)), _count_points)
        err = _l2(ball_w, lifted(ball_pts) - ball_f)
        return {"exact_degree": rule.exact_degree, "error_ball": err}, True

    for strategy in ("fibonacci_s2", "uniform_random"):
        for n in ctx.sizes["constructive_ns"]:
            ctx.cell(f"ball/{strategy}/n={n}", strategy == "uniform_random", lambda s=strategy, n=n: fit(s, n))

    # criterion 05: constructive rate on the circle (lstsq fast path)
    circle = harness.get_target("smooth_even_circle", 1)
    dense = harmonics.reference_grid(1, 8192)
    errs, match = {}, {}

    def circle_fit(n):
        ps = sphere.generate_points(1, n, "equispaced_circle")
        rule = quadrature.build_rule(ps, n - 1)
        spec = activation.spectrum(1, 1, rule.J + 4)
        grid = harmonics.reference_grid(1, max(2 * rule.J + 8, 1024))
        model = models.constructive_fit(circle, rule, spec, grid)
        errs[n] = _l2(grid.weights, model(grid.nodes) - circle(grid.nodes))
        fs, gs = model(dense.nodes), circle(dense.nodes)
        match[n] = max(
            float(np.max(np.abs(harmonics.project(dense, fs, int(m))[0] - harmonics.project(dense, gs, int(m))[0])))
            for m in spec.support_degrees(hi=rule.J)
        )
        return {"exact_degree": rule.exact_degree, "error_l2": errs[n]}, True

    for n in ctx.sizes["circle_ns"]:
        ctx.cell(f"circle/n={n}", False, lambda n=n: circle_fit(n))

    def circle_band():
        slope = _slope(list(errs), list(errs.values()))
        worst = max(match.values())
        ok = len(errs) == len(ctx.sizes["circle_ns"]) and slope <= -1.7 and worst < 1e-6
        return {"slope": slope, "trunc_match": worst}, ok

    ctx.cell("circle/band05", False, circle_band)

    # criterion 09: kernel series against Monte Carlo over random directions
    def kernel_check():
        n_mc = ctx.sizes["mc_directions"]
        spec = activation.spectrum(2, 1, 600)
        rng = np.random.Generator(np.random.Philox(ctx.pool[RANDCMP_SEEDS + 1]))
        theta = rng.standard_normal((n_mc, 3))
        theta /= np.linalg.norm(theta, axis=1, keepdims=True)
        worst, total = 0.0, 0.0
        for _ in range(MC_PAIRS):
            x, y = rng.uniform(-0.7, 0.7, 2), rng.uniform(-0.7, 0.7, 2)
            vals = activation.sigma_k(1, theta @ np.append(x, 1.0)) * activation.sigma_k(1, theta @ np.append(y, 1.0))
            area = 4.0 * math.pi
            series = activation.kernel(2, 1, spec, x, y)
            se = area * float(np.std(vals)) / math.sqrt(n_mc)
            worst = max(worst, abs(series - area * float(np.mean(vals))) / se)
            total += series
        return {"max_z": worst, "series_sum": total}, worst <= KERNEL_MAX_Z

    ctx.cell("kernel/mc", True, kernel_check)


# ----------------------------------------------------------------------- erm_disk


def erm_disk(ctx: Context) -> None:
    k = 2
    prob = dataclasses.replace(ctx.disk, grid=ctx.traced("pde_erm.problem_grid", ctx.disk.grid, _count_grid))
    for i, (n, m) in enumerate(ctx.sizes["erm"]):
        seed = ctx.pool[12 + i]
        state = {}

        def uncapped(n=n, m=m, seed=seed, state=state):
            ps = sphere.generate_points(2, n, "fibonacci_s2")
            samples = prob.sample(m, seed)
            res = pde_erm.erm_fit(prob, ps, samples, k, seed=seed)
            state.update(ps=ps, samples=samples, cap=0.5 * math.sqrt(n) * float(np.linalg.norm(res.model.a)))
            return {"excess": res.excess_risk, "h1": res.h1_error, "emp_risk": res.empirical_risk}, True

        def capped(n=n, seed=seed, state=state):
            cap = state["cap"]
            res = pde_erm.erm_fit(prob, state["ps"], state["samples"], k, norm_cap=cap, seed=seed)
            binds = math.sqrt(n) * float(np.linalg.norm(res.model.a)) >= (1.0 - CAP_BIND_RTOL) * cap
            ctx.counts["pde_erm.capped_fits"] += 1
            ctx.counts["pde_erm.cap_bound"] += binds
            # observed, not required: with a singular Gram the minimum-norm
            # minimizer can lie inside a cap set below the solve() solution
            return {"excess": res.excess_risk, "h1": res.h1_error, "cap": cap}, True

        if ctx.cell(f"erm/n={n}/m={m}", True, uncapped) is not None:
            ctx.cell(f"erm/n={n}/m={m}/capped", True, capped)

    # criterion 11: energy identity and excess-risk rate on the interval
    interval = pde_erm.interval_problem()

    def energy_check():
        e_grid = pde_erm.energy(interval.solution, interval.solution.grad, interval)
        exact = -(math.pi**2 + 1.0) / 4.0
        ok = abs(interval.exact_energy - exact) < 1e-6 and abs(e_grid - interval.exact_energy) < 1e-6
        return {"energy": e_grid}, ok

    ctx.cell("interval/energy", False, energy_check)
    means = {}

    def interval_mean(m):
        n = math.ceil(m ** (1.0 / (2.0 * (1 + 2 * k - 1))))
        dirs = pde_erm.interval_directions(n)
        seeds = ctx.pool[20 : 20 + INTERVAL_SEEDS]
        ex = [pde_erm.erm_fit(interval, dirs, interval.sample(m, s), k=k, seed=s).excess_risk for s in seeds]
        means[m] = float(np.mean(ex))
        return {"mean_excess": means[m]}, True

    for m in ctx.sizes["interval_ms"]:
        ctx.cell(f"interval/m={m}", True, lambda m=m: interval_mean(m))

    def interval_band():
        slope = _slope(list(means), list(means.values()))
        ok = len(means) == len(ctx.sizes["interval_ms"])
        if not ctx.smoke:  # criterion 11
            ok = ok and -0.8 <= slope <= -0.3
        return {"excess_slope": slope}, ok

    ctx.cell("interval/band11", True, interval_band)


WORKLOADS = {
    "ls_rates_disk": ls_rates_disk,
    "constructive_ball_s2": constructive_ball_s2,
    "erm_disk": erm_disk,
}
