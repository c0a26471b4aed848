"""Benchmark worker, started by run.py in a fresh process with pinned BLAS threads.

    python3 perfbench/worker.py setup
        Import fnspace from the checkout, warm its per-process caches, and
        print the seconds that took.
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE SMOKE RESULT
        Run closed-loop passes of WORKLOAD until SECONDS have passed (at
        least one pass; with TRACE=1 untraced and traced passes alternate,
        at least one of each) and write the passes as JSON to RESULT.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MESH_RESOLUTION = 0.01  # generate_points' default; every S^2 point set searches this grid


def warm():
    """What every fnspace user pays once per process: the import, the
    lru-cached mesh-norm search grid on S^2 and the disk problem."""
    sys.path.insert(0, str(SRC))
    import fnspace
    from fnspace import pde_erm, sphere

    if Path(fnspace.__file__).resolve().parent != SRC / "fnspace":
        raise SystemExit(f"fnspace imported from {fnspace.__file__}, not from {SRC}")
    sphere._search_grid(2, MESH_RESOLUTION)
    return pde_erm.disk_problem()


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, asked from the library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return {}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def versions() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, result: Path) -> None:
    disk = warm()
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, Context

    work = result.parent / f"work-{result.stem}"
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        ctx = Context(seed, work, smoke, disk, tracer if traced else None)
        fn = WORKLOADS[workload]
        if traced:
            tracer.reset()
            tracer.install(layers.LAYERS)
            fn = tracer.wrap("workload", fn)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            fn(ctx)
        finally:
            wall = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            tracer.uninstall()
        rec = {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            "cells": ctx.cells,
        }
        if traced:
            rec["layers"] = layers.metrics(tracer)
        passes.append(rec)
        if time.perf_counter() - start >= seconds and len(passes) >= (2 if trace else 1):
            break
    shutil.rmtree(work, ignore_errors=True)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    result.write_text(json.dumps({"passes": passes, "peak_rss_mb": peak, "versions": versions()}))


if __name__ == "__main__":
    if sys.argv[1:] == ["setup"]:
        warm()
        print(repr(time.perf_counter() - _T0))
    elif len(sys.argv) == 8 and sys.argv[1] == "run":
        wl, seed, secs, trace, smoke, out = sys.argv[2:]
        run(wl, int(seed), float(secs), trace == "1", smoke == "1", Path(out))
    else:
        raise SystemExit(__doc__)
