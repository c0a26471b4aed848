"""fnspace benchmark: closed-loop sweep workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; fnspace is imported from its ``src``.
Each run starts fresh worker processes with BLAS pinned to BLAS_THREADS
threads.  With ``--trace 0`` it measures set-up in SETUP_PROBES fresh
processes, then runs untraced passes of the workload for S seconds and
reports the end-to-end metrics.  With ``--trace 1`` untraced and traced
passes alternate and it reports the per-layer metrics, including the
tracing overhead.  Every pass goes through the correctness gate; the last
line of standard output is one JSON object, and the exit code is nonzero
when any cell fails.  ``--smoke`` runs every workload once, untraced and
traced, at the smallest sizes, and checks that every metric named in
BENCHMARK.json appears and that traced self times add up to the pass time.

The full record of a run (machine, versions, end_to_end or layers, and the
gate's findings) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"

BLAS_THREADS = 1  # one BLAS thread read steadier than two on a 2-core machine
SETUP_PROBES = 5
RTOL = 1e-4  # float values against the reference; integers must match exactly
ATOL = 1e-12
SELF_TIME_RTOL = 0.01  # traced self times must sum to the traced pass time
DEADLINE_S = 170.0


def machine() -> dict:
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu.max": _cpu_max(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "blas_threads_set": min(BLAS_THREADS, nproc),
    }


def _cpu_max() -> str:
    """cgroup CPU quota as in cgroup v2's cpu.max ("max 100000" = no limit)."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    if v2.is_file():
        return v2.read_text().strip()
    quota, period = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota.is_file() and period.is_file():
        q = int(quota.read_text())
        return f"{'max' if q < 0 else q} {int(period.read_text())}"
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count()))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    return env


def _remaining(t_begin: float) -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - t_begin))


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool, probes: int) -> dict:
    """Set-up probes, then one worker process; returns the worker's passes."""
    t_begin = time.monotonic()
    env = _env()
    setup = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(WORKER), "setup"], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=_remaining(t_begin),
        )
        setup.append(float(proc.stdout.split()[-1]))
    OUT.mkdir(exist_ok=True)
    result = OUT / f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.passes.json"
    args = [workload, str(seed), repr(seconds), str(trace), str(int(smoke)), str(result)]
    subprocess.run(
        [sys.executable, str(WORKER), "run", *args], env=env, cwd=ROOT,
        stdout=sys.stderr, check=True, timeout=_remaining(t_begin),
    )
    out = json.loads(result.read_text())
    result.unlink()
    out["setup_s"] = setup
    return out


def _mismatch(cell: dict, expected: dict) -> str:
    if set(expected) != set(cell["values"]):
        return f"values {sorted(cell['values'])}, reference has {sorted(expected)}"
    for key, want in expected.items():
        got = cell["values"][key]
        if isinstance(want, int) and got != want:
            return f"{key}={got!r}, reference {want!r}"
        if abs(got - want) > RTOL * abs(want) + ATOL:
            return f"{key}={got!r}, reference {want!r} (rtol {RTOL:g})"
    return ""


def gate(workload: str, seed: int, passes: list, smoke: bool) -> tuple[int, list[str]]:
    """Cells attempted and the reasons of those that failed.

    A cell fails if it raised, gave a non-finite value, missed its
    acceptance band, or differs from the reference recorded at the seed
    commit.  Seed-dependent cells are compared only for recorded seeds."""
    ref = json.loads((HERE / "reference.json").read_text())["workloads"][workload]
    recorded = ref["seeded"].get(str(seed), {})
    attempted, failures = 0, []
    for i, p in enumerate(passes):
        seen = set()
        for cell in p["cells"]:
            attempted += 1
            seen.add(cell["id"])
            values = cell["values"] or {}
            expected = recorded.get(cell["id"]) if cell["seeded"] else ref["fixed"].get(cell["id"])
            if cell["error"]:
                why = cell["error"].strip().splitlines()[-1]
            elif not all(math.isfinite(v) for v in values.values()):
                why = f"non-finite value in {values}"
            elif not cell["ok"]:
                why = f"outside its acceptance band: {values}"
            elif smoke:
                why = ""
            elif expected is None:
                why = "" if cell["seeded"] else "no reference value"
            else:
                why = _mismatch(cell, expected)
            if why:
                failures.append(f"pass {i} {cell['id']}: {why}")
        if not smoke:
            for cid in sorted((set(ref["fixed"]) | set(recorded)) - seen):
                attempted += 1
                failures.append(f"pass {i} {cid}: missing")
    return attempted, failures


def _median(xs) -> float:
    return float(statistics.median(xs))


def metrics_of(out: dict, trace: int, attempted: int, failed: int) -> dict[str, float]:
    plain = [p for p in out["passes"] if not p["traced"]]
    if not trace:
        return {
            "setup_s": _median(out["setup_s"]),
            "sweep_s": _median(p["wall_s"] for p in plain),
            "cpu_s": _median(p["cpu_s"] for p in plain),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    traced = [p for p in out["passes"] if p["traced"]]
    values = {key: _median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
    values["trace.overhead_s"] = _median(p["wall_s"] for p in traced) - _median(p["wall_s"] for p in plain)
    values["failed_ratio"] = failed / attempted
    return values


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """One measured run: returns (result line, full record, worker output)."""
    out = measure(workload, seed, seconds, trace, smoke, SETUP_PROBES if not trace else 0)
    attempted, failures = gate(workload, seed, out["passes"], smoke)
    values = metrics_of(out, trace, attempted, len(failures))
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark bug: metrics {missing} were not measured")
    named = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    counts = {"passes": len([p for p in out["passes"] if p["traced"] == bool(trace)]), "setup_probes": len(out["setup_s"])}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "machine": machine(),
        "versions": out["versions"],
        "end_to_end" if not trace else "layers": named,
        "samples": counts,
        "all_values": values,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s")} for p in out["passes"]],
        "gate": {"attempted": attempted, "failed": len(failures), "failures": failures},
    }
    line = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": named}
    return line, record, out


def _print_human(record: dict) -> None:
    wl, samples = record["workload"], record["samples"]
    for name, m in record.get("end_to_end", record.get("layers", {})).items():
        note = ""
        if name in ("sweep_s", "cpu_s") or name.endswith(".busy_s"):
            note = f"  (median of {samples['passes']} passes)"
        elif name == "setup_s":
            note = f"  (median of {samples['setup_probes']} fresh processes)"
        print(f"{wl:22s} {name:36s} {m['value']:14.6g} {m['unit']}{note}")
    vals = record["all_values"]
    if record["trace"]:
        print(f"{wl:22s} rule_yield base: {vals.get('quadrature.degrees_attempted', 0):g} degrees attempted; "
              f"cap_bind_ratio base: {vals.get('pde_erm.capped_fits', 0):g} capped fits")
    for why in record["gate"]["failures"][:20]:
        print(f"{wl:22s} GATE FAIL {why}")


def smoke(spec: dict) -> int:
    """Every workload once untraced and once traced at the smallest sizes."""
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            _, record, out = run_one(spec, wl, 0, 0.0, trace, smoke=True)
            _print_human(record)
            problems += [f"{wl}: gate: {why}" for why in record["gate"]["failures"]]
            for p in (p for p in out["passes"] if p["traced"]):
                busy = [v for k, v in p["layers"].items() if k.endswith(".busy_s")]
                gap = abs(p["layers"]["self_sum_s"] - p["wall_s"])
                if gap > SELF_TIME_RTOL * p["wall_s"] or min(busy) < 0.0:
                    problems.append(f"{wl}: self times sum to {p['layers']['self_sum_s']:.4f} s, pass took {p['wall_s']:.4f} s")
    for why in problems:
        print("SMOKE FAIL", why)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    if not (ROOT / "src" / "fnspace" / "__init__.py").is_file():
        print(f"no fnspace sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at the smallest sizes")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    line, record, _ = run_one(spec, args.workload, args.seed, args.seconds, args.trace)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    _print_human(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
