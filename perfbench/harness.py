"""Time-to-valid-plan benchmark: plan a workload's instances, check every
plan, and report end-to-end metrics (untraced) or per-layer metrics (traced).

Run it through `perfbench/run.py`; see `perfbench/README.md`.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import quboplan

from . import corpus
from .checker import check_plans
from .pace import Pacer
from .tracer import Tracer

SETUP_SAMPLES = 9

# Workload -> (seconds of --seconds budgeted for one pass over its corpus,
# the corpus given the checkout root, seed and corpus seed, the parts of
# the calibration kernel that its work resembles; see `pace`).
# A budget is about what one pass takes at the seed commit on the reference
# machine (2 cores, one OpenBLAS thread). A run makes
# max(1, seconds // budget) passes, so the number of timed plans, and with
# it the tail percentile, is fixed by --seconds alone. Each instance's time
# is the median over the passes, which drops a plan that a burst of other
# work on the machine slowed.
#
# Corridor plans are deterministic, so the seed varies the maps freely.
# Shipped and city outcomes depend on the annealer's luck, and a run holds
# too few plans to average it out, so every run plans the corpus that
# --corpus-seed (default 0) picks and the seed is not used.
WORKLOADS = {
    "shipped": (30.0, lambda root, seed, cseed: corpus.shipped(root / "scenarios", cseed),
                ("sweeps", "streamed")),
    "corridor": (9.0, lambda root, seed, cseed: corpus.corridor(seed),
                 ("interpreted", "sweeps")),
    "city": (22.0, lambda root, seed, cseed: corpus.city(cseed), ("sweeps", "streamed")),
}


def openblas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS will use, or None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                return int(query())
    return None


@dataclass
class Outcome:
    """One instance's plan: what the pipeline said and what the checker found."""

    name: str
    succeeded: bool
    errors: list[str]
    moves: int
    classical: int | None
    digest: str
    seconds: float
    ref_seconds: float
    result: object

    @property
    def valid(self) -> bool:
        return self.succeeded and not self.errors


def import_seconds(root: Path) -> float:
    """Time to `import quboplan` from `root / "src"` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import time; start = time.perf_counter(); import quboplan; "
            "print(time.perf_counter() - start)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def plan(inst: corpus.Instance):
    """One timed `plan_multi` call, looked up at call time so a tracer sees it."""
    start = time.perf_counter()
    result = quboplan.plan_multi(inst.grid, inst.robots, weights=inst.weights,
                                 window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
    return result, time.perf_counter() - start


def plan_digest(result) -> str:
    text = json.dumps(result.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def classical_steps(inst: corpus.Instance):
    """The classical baseline's timed plans, as `bench.classical_lengths`
    picks them: A* for one robot, prioritized planning for several."""
    if len(inst.robots) == 1:
        robot = inst.robots[0]
        path = quboplan.astar(inst.grid, robot.start, robot.goal)
        if path is None:
            return {robot.id: None}
        return {robot.id: [(robot.release + k, c) for k, c in enumerate(path)]}
    return quboplan.prioritized_plan(inst.grid, inst.robots)


def setup(make_instances, root: Path, seed: int, corpus_seed: int):
    """Instances, classical reference lengths and a warm-up plan.

    Returns (instances, classical lengths, errors in the classical plans).
    """
    instances = make_instances(root, seed, corpus_seed)
    lengths, errors = [], []
    for inst in instances:
        steps = classical_steps(inst)
        if any(s is None for s in steps.values()):
            lengths.append(None)
            continue
        bad = check_plans(inst.grid, inst.robots, steps)
        errors += [f"classical {inst.name}: {e}" for e in bad]
        lengths.append(sum(s[-1][0] - s[0][0] for s in steps.values()))
    plan(corpus.warmup())
    return instances, lengths, errors


def timed_setup(pacer: Pacer, make_instances, root: Path, seed: int, corpus_seed: int):
    """One sample of the set-up time in reference seconds (see `pace`), a
    fresh import included, and what `setup` returned."""
    def run():
        import_s = import_seconds(root)
        start = time.perf_counter()
        out = setup(make_instances, root, seed, corpus_seed)
        return import_s + time.perf_counter() - start, out
    (seconds, out), factor = pacer.run(run)
    return seconds * factor, out


def evaluate(pacer: Pacer, inst: corpus.Instance, classical: int | None) -> Outcome:
    """Plan one instance and check the plan."""
    (result, seconds), factor = pacer.run(lambda: plan(inst))
    steps = {p.robot: p.steps for p in result.plans}
    errors = check_plans(inst.grid, inst.robots, steps) if result.succeeded else []
    return Outcome(inst.name, result.succeeded, errors,
                   sum(p.moves for p in result.plans), classical, plan_digest(result),
                   seconds, seconds * factor, result)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond."""
    if len(samples) < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {len(samples)}")
    ranked = sorted(samples)
    return ranked[-11], 100.0 * (len(ranked) - 10) / len(ranked)


def by_instance(outcomes: list[Outcome]) -> dict[str, list[Outcome]]:
    """Each instance's plans, one per pass, instances in corpus order."""
    out: dict[str, list[Outcome]] = {}
    for o in outcomes:
        out.setdefault(o.name, []).append(o)
    return out


def workload_digest(outcomes: list[Outcome]) -> str:
    """One hash over each instance's plan JSON, in instance order."""
    lines = "\n".join(f"{name} {plans[0].digest}"
                      for name, plans in by_instance(outcomes).items())
    return hashlib.sha256(lines.encode()).hexdigest()


def report_plans(outcomes: list[Outcome]) -> list[str]:
    """Print one line per plan and return the problems found: a plan the
    pipeline accepted but the checker rejects is a failed operation and an
    incorrect output, and is named here."""
    problems = []
    for o in outcomes:
        status = "valid" if o.valid else "REJECTED" if o.succeeded else "failed"
        print(f"plan {o.name} {status} moves={o.moves} classical={o.classical} "
              f"seconds={o.seconds:.4f} ref_seconds={o.ref_seconds:.4f}")
        if o.succeeded and o.errors:
            problems.append(f"{o.name}: accepted by the pipeline, rejected by the "
                            f"checker: {'; '.join(o.errors[:3])}")
    for name, plans in by_instance(outcomes).items():
        if any(o.digest != plans[0].digest for o in plans):
            problems.append(f"{name}: the same instance gave different plans")
    return problems


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict:
    """The gated end-to-end metrics, times in reference seconds (see
    `pace`). The latency quantiles, `optimal_share` and the unscaled wall
    time to a valid plan are printed on their own lines, ungated: see README."""
    valid = [o for o in outcomes if o.valid]
    compared = [o for o in valid if o.classical is not None]
    optimal = [o for o in compared if o.moves == o.classical]
    samples = [o.ref_seconds for o in outcomes]
    # Every plan counts at the median time of its instance's passes.
    plan_s = sum(len(plans) * statistics.median(o.ref_seconds for o in plans)
                 for plans in by_instance(outcomes).values())
    tail_s, tail_pct = tail(samples)
    if valid:
        print(f"tts_wall_s {sum(o.seconds for o in outcomes) / len(valid)} s")
    print(f"plan_s_p50 {statistics.median(samples)} s")
    print(f"plan_s_tail {tail_s} s (p{tail_pct:.1f} of {len(samples)} samples)")
    print(f"optimal_share {len(optimal) / len(outcomes)} ratio")
    return {
        "tts_s": (plan_s / len(valid) if valid else None, "s"),
        "success_rate": (len(valid) / len(outcomes), "ratio"),
        "length_ratio": (sum(o.moves for o in compared) / sum(o.classical for o in compared)
                         if compared else None, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _self_s(spans, *names) -> float:
    return sum(s.self_s for s in spans if s.name in names)


def _count(spans, *names) -> int:
    return sum(1 for s in spans if s.name in names)


def per_layer(spans, outcomes: list[Outcome], untraced_p50: float, traced_p50: float) -> dict:
    """Counts and self times per layer over one traced pass.

    Times are self times: a span's duration minus its child spans, so the
    layers partition the traced plan time. Planner counts come from the
    plans' public `WindowRecord`s.
    """
    classical = [s for s in spans if s.layer == "classical"]
    spans = [s for s in spans if s.plan is not None]
    solves = [s.info for s in spans if s.name == "solve"]
    anneals = [i for i in solves if i["annealer"]]
    solve_s = _self_s(spans, "solve")
    spin_updates = sum(i["reads"] * i["sweeps"] * i["n"] for i in anneals)
    reads = sum(i["reads"] for i in anneals)

    windows = [w for o in outcomes for w in o.result.windows]
    attempts = sum(w.retries + 1 for w in windows)
    accepted = sum(1 for w in windows
                   if not any(r.startswith("window abandoned") for r in w.repairs))
    presolve = [s.info for s in spans if s.name == "fix_numeric_diagonal"]
    original = sum(i["original"] for i in presolve)
    free = sum(i["free"] for i in presolve)
    repairs = [s.info for s in spans if s.name == "fix_one_hot_continuity"]
    sizes = [i["n"] for i in solves]
    return {
        "solvers.calls": (len(solves), "count"),
        "solvers.solve_s": (solve_s, "s"),
        "solvers.free_vars_p50": (statistics.median(sizes) if sizes else 0, "count"),
        "solvers.free_vars_max": (max(sizes, default=0), "count"),
        "solvers.nnz_max": (max((i["nnz"] for i in solves), default=0), "count"),
        "solvers.spin_updates": (spin_updates, "count"),
        "solvers.updates_per_s": (spin_updates / solve_s if solve_s else 0.0, "1/s"),
        "solvers.distinct_share": (sum(i["distinct"] for i in anneals) / reads if reads else 0.0,
                                   "ratio"),
        "planner.windows": (len(windows), "count"),
        "planner.attempts": (attempts, "count"),
        "planner.failed_attempts": (attempts - accepted, "count"),
        "planner.useful_attempt_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
        "planner.escalations": (sum(1 for w in windows if w.escalated), "count"),
        "planner.self_s": (_self_s(spans, "plan_paths"), "s"),
        "preprocess.fix_logical_s": (_self_s(spans, "fix_logical"), "s"),
        "preprocess.fold_s": (_self_s(spans, "fold"), "s"),
        "preprocess.numeric_s": (_self_s(spans, "fix_numeric_diagonal"), "s"),
        "preprocess.vars_original": (original, "count"),
        "preprocess.vars_free": (free, "count"),
        "preprocess.reduction_pct": (100.0 * (original - free) / original if original else 0.0,
                                     "%"),
        "preprocess.presolved_share": (
            sum(1 for i in presolve if i["free"] == 0) / attempts if attempts else 0.0, "ratio"),
        "grid.bfs_calls": (_count(spans, "bfs_layers", "bfs_distances"), "count"),
        "grid.bfs_s": (_self_s(spans, "bfs_layers", "bfs_distances"), "s"),
        "penalties.build_calls": (_count(spans, "build_window_model"), "count"),
        "penalties.build_s": (_self_s(spans, "build_window_model"), "s"),
        "penalties.nnz": (sum(s.info["nnz"] for s in spans if s.name == "build_window_model"),
                          "count"),
        "qubo.decode_s": (_self_s(spans, "decode"), "s"),
        "qubo.energy_calls": (_count(spans, "energy"), "count"),
        "qubo.energy_s": (_self_s(spans, "energy"), "s"),
        "postprocess.repair_s": (_self_s(spans, "fix_one_hot_continuity", "detect_invalid_move"),
                                 "s"),
        "postprocess.repairs": (sum(1 for i in repairs if i["dropped"]), "count"),
        "postprocess.clash_s": (_self_s(spans, "find_vertex_conflicts", "resolve_clash_wait"),
                                "s"),
        "postprocess.clash_events": (sum(len(o.result.clash_events) for o in outcomes), "count"),
        "postprocess.unresolved": (sum(len(o.result.unresolved_conflicts) for o in outcomes),
                                   "count"),
        "classical.calls": (len(classical), "count"),
        "classical.s": (sum(s.self_s for s in classical), "s"),
        "trace.overhead_pct": (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
    }


def print_layer_shares(spans) -> None:
    """Each layer's share of the traced plan time, for reading the trace."""
    spans = [s for s in spans if s.plan is not None]
    total = sum(s.end - s.start for s in spans if s.parent is None)
    layers: dict[str, float] = {}
    for s in spans:
        layers[s.layer] = layers.get(s.layer, 0.0) + s.self_s
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer} self_s={seconds:.4f} share={seconds / total:.3f}")


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=0,
                        help="seed of the shipped and city corpora (default 0)")
    args = parser.parse_args(argv)
    budget, make_instances, pace_parts = WORKLOADS[args.workload]
    # A traced run plans the corpus twice, untraced and traced, so its counts
    # do not depend on --seconds.
    passes = 1 if args.trace else max(1, int(args.seconds // budget))

    corpus_args = (make_instances, root, args.seed, args.corpus_seed)
    pacer = Pacer(pace_parts)
    if args.trace:
        with Tracer() as tracer:
            instances, lengths, problems = setup(*corpus_args)
    else:
        sample, (instances, lengths, problems) = timed_setup(pacer, *corpus_args)
        setup_samples = [sample]

    print(f"workload {args.workload} seed {args.seed} corpus_seed {args.corpus_seed} "
          f"instances {len(instances)} "
          f"passes {passes} openblas_threads {openblas_threads()}")
    # The other set-up samples of an untraced run are taken between timed
    # plans, spread evenly through the run, so that a change of machine
    # speed during the run weighs on setup_s as it does on tts_s.
    schedule = list(zip(instances, lengths)) * passes
    resample = [j * len(schedule) // SETUP_SAMPLES for j in range(1, SETUP_SAMPLES)]
    outcomes = []
    for k, (inst, length) in enumerate(schedule):
        if not args.trace:
            setup_samples += [timed_setup(pacer, *corpus_args)[0]
                              for _ in range(resample.count(k))]
        outcomes.append(evaluate(pacer, inst, length))
    problems += report_plans(outcomes)
    print(f"digest sha256:{workload_digest(outcomes)}")

    if args.trace:
        traced = []
        with tracer:
            for inst in instances:
                tracer.plan = inst.name
                traced.append(plan(inst))
        for o, (result, _) in zip(outcomes, traced):
            if plan_digest(result) != o.digest:
                problems.append(f"{o.name}: the traced plan differs from the untraced one")
        print_layer_shares(tracer.spans)
        metrics = per_layer(tracer.spans, outcomes,
                            statistics.median(o.seconds for o in outcomes),
                            statistics.median(seconds for _, seconds in traced))
    else:
        metrics = end_to_end(outcomes, statistics.median(setup_samples))

    for p in problems:
        print(f"problem {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.valid),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1
