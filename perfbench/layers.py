"""The layers a traced pass measures: fnspace's modules.

Each entry names a public function, the span it records and the counter
that reads work sizes from its arguments and result.  Counts marked
*computed* are derived from array shapes, not measured allocations.
"""

from __future__ import annotations

import numpy as np

from fnspace import activation, cli, harmonics, harness, models, pde_erm, quadrature, sphere
from fnspace.harmonics import harmonic_dim


def _rule(counts, args, rule):
    ps, top, got = args["ps"], args["D_target"], rule.exact_degree
    steps = (top - got) // 2
    counts["quadrature.fallback_steps"] += steps
    counts["quadrature.degrees_attempted"] += steps + 1
    # computed: one float64 moment matrix of sum_{m<=D} N(m) rows by n per degree tried
    counts["quadrature.moment_bytes"] += sum(
        8 * ps.n * sum(harmonic_dim(ps.d, m) for m in range(deg + 1)) for deg in range(got, top + 1, 2)
    )


def _sigma(counts, args, out):
    counts["activation.sigma_k.elements"] += np.size(args["t"])


def _lsq_design(counts, args, model):
    counts["models.design_bytes"] += 8 * len(args["grid_points"]) * args["ps"].n  # computed


def _err_design(counts, args, out):
    # computed: error_norms rebuilds the value design, and the gradient design for s=1
    per = 8 * len(args["grid_points"]) * args["model"].n
    counts["models.design_bytes"] += per * (2 if args["s"] == 1 else 1)


def _rate_rows(counts, args, report):
    counts["harness.error_rows"] += len(report.rows)


def _randcmp_rows(counts, args, summary):
    counts["harness.error_rows"] += len(summary["rows"])


LAYERS = (  # (span name, owner module, attribute, counter)
    ("sphere.generate_points", sphere, "generate_points", None),
    ("quadrature.build_rule", quadrature, "build_rule", _rule),
    ("harmonics.harmonic_block", harmonics, "harmonic_block", None),
    ("harmonics.project", harmonics, "project", None),
    ("harmonics.reference_grid", harmonics, "reference_grid", None),
    ("activation.sigma_k", activation, "sigma_k", _sigma),
    ("activation.spectrum", activation, "spectrum", None),
    ("activation.kernel", activation, "kernel", None),
    ("models.least_squares_fit", models, "least_squares_fit", _lsq_design),
    ("models.error_norms", models, "error_norms", _err_design),
    ("models.constructive_fit", models, "constructive_fit", None),
    ("models.ridge_bisect_cap", models, "ridge_bisect_cap", None),
    ("pde_erm.erm_fit", pde_erm, "erm_fit", None),
    ("pde_erm.energy", pde_erm, "energy", None),
    ("harness.run_rates", harness, "run_rates", _rate_rows),
    ("harness.run_randcmp", harness, "run_randcmp", _randcmp_rows),
    ("harness.domain_grid", harness, "domain_grid", None),
    ("cli.main", cli, "main", None),
)
# ball_map returns closures, so the workloads wrap those themselves
BUSY = tuple(name for name, *_ in LAYERS) + ("ball_map.target_eval",)
CALLS = (
    "sphere.generate_points",
    "quadrature.build_rule",
    "harmonics.harmonic_block",
    "models.ridge_bisect_cap",
    "pde_erm.erm_fit",
)


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def metrics(tracer) -> dict[str, float]:
    """Per-layer values of one traced pass, plus the counts behind each ratio."""
    st = tracer.self_times()
    counts = tracer.counts
    out = {f"{name}.busy_s": st.get(name, (0.0, 0))[0] for name in BUSY}
    out |= {f"{name}.calls": st.get(name, (0.0, 0))[1] for name in CALLS}
    out |= counts
    for key in ("quadrature.fallback_steps", "quadrature.moment_bytes", "activation.sigma_k.elements",
                "models.design_bytes", "ball_map.target_eval.points", "pde_erm.grid_eval_points",
                "harness.error_rows", "cli.result_bytes"):
        out.setdefault(key, 0.0)
    out["quadrature.rule_yield"] = _ratio(out["quadrature.build_rule.calls"], counts.get("quadrature.degrees_attempted", 0))
    out["pde_erm.cap_bind_ratio"] = _ratio(counts.get("pde_erm.cap_bound", 0), counts.get("pde_erm.capped_fits", 0))
    out["self_sum_s"] = sum(busy for busy, _ in st.values())
    return out
