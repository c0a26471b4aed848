"""Repeat the benchmark over seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py FIRST_SEED LAST_SEED [WORKLOAD ...]

Runs ``run.py --trace 0`` once per workload and seed, the way a
comparison would, and writes ``.perfbench_out/baseline.json``. For each
metric it gives the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median, and
whether that spread is within a third of the metric's bound.  A committed
baseline appends the file to the ``sets`` of ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import OUT, ROOT, machine


def main(lo: int, hi: int, workloads: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    summary = {"seeds": [lo, hi], "run_seconds": spec["run_seconds"], "machine": machine(), "workloads": {}}
    steady = True
    for wl in workloads:
        runs = []
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(f"{wl} seed {seed}: failed\n{proc.stdout[-2000:]}", file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in line["metrics"].items()})
            print(f"{wl} seed {seed}: {runs[-1]}", flush=True)
        summary["workloads"][wl] = stats = {}
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            stats[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                                "bound": m["bound"], "values": values}
            ok = spread <= m["bound"] / 3.0 or m["name"] == "setup_s"
            steady &= ok
            print(f"{wl:22s} {m['name']:12s} median {med:10.4f} spread {spread:.4f} (bound {m['bound']}){'' if ok else '  WIDE'}")
    OUT.mkdir(exist_ok=True)
    (OUT / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]))
