"""Benchmark harness: classical baseline vs the QUBO pipeline.

Each scenario runs the deterministic classical planner once and the QUBO
pipeline over several derived seeds, then aggregates success rate, lengths,
and variable-reduction statistics. Path lengths are reported as moves
(cells minus one); waits count as moves because each takes one time step.
"""

import json
import time
from dataclasses import replace
from statistics import median

from .classical import prioritized_plan
from .multi import plan_multi
from .scenario import ScenarioError, ScenarioSpec
from .solvers import derive_seed

SCHEMA_VERSION = 4  # of the `plan` and `bench` JSON


def classical_lengths(spec: ScenarioSpec) -> dict:
    """Per-robot lengths from prioritized space-time A*, plus the total.

    For one robot the search has nothing to avoid, so its length is the
    optimal (A*) length.
    """
    steps = prioritized_plan(spec.grid, spec.robots)
    lengths = {rid: None if s is None else s[-1][0] - s[0][0]
               for rid, s in steps.items()}
    values = list(lengths.values())
    total = None if any(v is None for v in values) else sum(values)
    return {"per_robot": lengths, "total": total}


def run_pipeline(spec: ScenarioSpec, seed: int):
    """One QUBO planning run of a scenario under an explicit seed."""
    solver_cfg = replace(spec.solver_cfg, seed=seed)
    return plan_multi(
        spec.grid, spec.robots,
        weights=spec.weights,
        window_cfg=spec.window_cfg,
        solver_cfg=solver_cfg,
    )


def run_benchmark(spec: ScenarioSpec, repeats: int | None = None,
                  include_timings: bool = False) -> dict:
    """Benchmark one scenario; per-run failures are recorded, never fatal.

    Timing columns are informational only and excluded by default so the
    report is byte-stable for a fixed (scenario, seed).
    """
    if repeats is None:
        repeats = spec.repeats
    if repeats < 1:
        raise ScenarioError("repeats must be >= 1")
    t0 = time.perf_counter()
    classical = classical_lengths(spec)
    classical_seconds = time.perf_counter() - t0

    runs = []
    for rep in range(repeats):
        seed = derive_seed(spec.seed, rep)
        t1 = time.perf_counter()
        result = run_pipeline(spec, seed)
        elapsed = time.perf_counter() - t1
        totals = result.preprocess_totals()
        run = {
            "repeat": rep,
            "seed": seed,
            "success": result.succeeded,
            "length": sum(p.moves for p in result.plans) if result.succeeded else None,
            "per_robot": {str(p.robot): p.moves if result.succeeded else None
                          for p in result.plans},
            "preprocess": totals,
            "windows": len(result.windows),
        }
        if include_timings:
            run["seconds"] = round(elapsed, 6)
        runs.append(run)

    lengths = [r["length"] for r in runs if r["length"] is not None]
    successes = sum(1 for r in runs if r["success"])
    best = min(lengths) if lengths else None
    med = median(lengths) if lengths else None
    cbest = classical["total"]
    report = {
        "schema": SCHEMA_VERSION,
        "scenario": spec.name,
        "grid": f"{spec.grid.rows}x{spec.grid.cols}",
        "robots": len(spec.robots),
        "seed": spec.seed,
        "repeats": repeats,
        "length_convention": "moves (cells minus one); waits count",
        "classical": classical,
        "qubo": {
            "success_rate": round(successes / repeats, 4),
            "best_length": best,
            "median_length": med,
            "matches_classical": sum(1 for v in lengths if v == cbest) if cbest is not None else 0,
        },
        "ratio_best": (
            round(best / cbest, 4)
            if best is not None and cbest not in (None, 0) else None
        ),
        "reduction": _reduction_summary(runs),
        "runs": runs,
    }
    if include_timings:
        report["classical_seconds"] = round(classical_seconds, 6)
    return report


def _reduction_summary(runs) -> dict:
    pre = [r["preprocess"] for r in runs]
    return {
        "original": pre[0]["original"],
        "reduced_best": min(p["reduced"] for p in pre),
        "reduction_pct_min": min(p["reduction_pct"] for p in pre),
        "fully_preprocessed_runs": sum(1 for p in pre if p["solved_by_preprocess"]),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def format_table(reports: list[dict]) -> str:
    """Aligned text table over one or more benchmark reports."""
    headers = ("Scenario", "Grid", "Robots", "Path (C/Q)", "Vars (orig/red)",
               "Reduction %", "Success")
    rows = [headers]
    for rep in reports:
        cbest = rep["classical"]["total"]
        qbest = rep["qubo"]["best_length"]
        red = rep.get("reduction", {})
        rows.append((
            rep["scenario"],
            rep["grid"],
            str(rep["robots"]),
            f"{'-' if cbest is None else cbest}/{'-' if qbest is None else qbest}",
            f"{red.get('original', '-')}/{red.get('reduced_best', '-')}",
            f"{red.get('reduction_pct_min', 0.0):.1f}",
            f"{rep['qubo']['success_rate'] * 100:.0f}%",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
