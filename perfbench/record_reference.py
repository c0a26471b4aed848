"""Record reference.json, the values the correctness gate expects.

    python3 perfbench/record_reference.py [FIRST_SEED LAST_SEED]

Runs one untraced pass of every workload for each seed (default 0 to 23)
on the current commit.  Seed-independent cells must give the same values
for every seed, and every cell must pass its own checks, or nothing is
written.
"""

from __future__ import annotations

import json
import math
import sys

from run import HERE, ROOT, measure


def main(lo: int = 0, hi: int = 23) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = {"seeds": [lo, hi], "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        fixed, seeded = {}, {}
        for seed in range(lo, hi + 1):
            for cell in measure(wl, seed, 0.0, 0, False, 0)["passes"][0]["cells"]:
                values = cell["values"]
                if cell["error"] or not cell["ok"] or not all(math.isfinite(v) for v in values.values()):
                    raise SystemExit(f"{wl} seed {seed} {cell['id']} failed: {cell['error'] or values}")
                if cell["seeded"]:
                    seeded.setdefault(str(seed), {})[cell["id"]] = values
                elif fixed.setdefault(cell["id"], values) != values:
                    raise SystemExit(f"{wl} {cell['id']} is marked seed-independent but changed at seed {seed}")
            print(f"{wl} seed {seed}: recorded", flush=True)
        ref["workloads"][wl] = {"fixed": fixed, "seeded": seeded}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:3]))
