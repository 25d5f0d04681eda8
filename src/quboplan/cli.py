"""Command-line interface: plan, bench, render, export-qubo.

Exit codes: 0 on success, 1 when planning fails, 2 on input errors. All
randomness flows from a single seed, and JSON output is byte-identical for
identical (scenario, seed) pairs.
"""

import argparse
import json
import sys
from dataclasses import replace

from .bench import SCHEMA_VERSION, format_table, report_json, run_benchmark, run_pipeline
from .penalties import build_window_model, with_one_hot_pairs
from .planner import build_window
from .render import render_svg
from .scenario import ScenarioError, load_scenario


def _apply_solver_overrides(spec, args):
    flags = {"num_reads": args.reads, "sweeps": args.sweeps, "seed": args.seed}
    try:
        spec.solver_cfg = replace(
            spec.solver_cfg, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return spec


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_plan(args) -> int:
    spec = _apply_solver_overrides(load_scenario(args.scenario), args)
    result = run_pipeline(spec, spec.seed)
    payload = {
        "schema": SCHEMA_VERSION,
        "scenario": spec.name,
        "seed": spec.seed,
        **result.to_json(),
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    if args.verbose:
        for plan in result.plans:
            print(f"robot {plan.robot}: {plan.status}, {plan.moves} moves",
                  file=sys.stderr)
        for event in result.clash_events:
            print(f"clash: {event}", file=sys.stderr)
    return 0 if result.succeeded else 1


def _cmd_bench(args) -> int:
    spec = _apply_solver_overrides(load_scenario(args.scenario), args)
    report = run_benchmark(spec, repeats=args.repeats,
                           include_timings=args.timings)
    _emit(report_json(report), args.output)
    if args.table:
        sys.stderr.write(format_table([report]))
    return 0


def _cmd_render(args) -> int:
    spec = _apply_solver_overrides(load_scenario(args.scenario), args)
    result = run_pipeline(spec, spec.seed)
    render_svg(spec.grid, result.plans, args.output)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0 if result.succeeded else 1


def _cmd_export_qubo(args) -> int:
    spec = load_scenario(args.scenario)
    if len(spec.robots) != 1:
        raise ScenarioError("export-qubo handles single-robot scenarios")
    robot = spec.robots[0]
    window = build_window(spec.grid, [(robot.start, robot.goal, {robot.start})],
                          spec.window_cfg.window_len, spec.weights)
    if args.raw:
        model = build_window_model(window.spec)
        per_cell = spec.grid.rows * spec.grid.cols
        groups = [v // per_cell for v in range(model.num_vars)]
        model = with_one_hot_pairs(model, groups, spec.weights.k_hot)
    else:
        model = window.folded.model
    _emit(model.to_text(), args.output)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quboplan",
        description="Grid path planning through sparse QUBO models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan_p = sub.add_parser("plan", help="plan a scenario and print JSON")
    bench_p = sub.add_parser("bench", help="compare against the classical baseline")
    render_p = sub.add_parser("render", help="plan a scenario and write an SVG")
    export_p = sub.add_parser("export-qubo",
                              help="dump the first window's model as text triples")

    for p in (plan_p, bench_p, render_p, export_p):
        p.add_argument("scenario", help="path to a .scn scenario file")
    for p in (plan_p, bench_p, render_p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--reads", type=int, default=None)
        p.add_argument("--sweeps", type=int, default=None)

    plan_p.add_argument("-o", "--output", default=None, help="write JSON to a file")
    plan_p.add_argument("--verbose", action="store_true",
                        help="print per-robot and repair summaries to stderr")
    plan_p.set_defaults(func=_cmd_plan)

    bench_p.add_argument("--repeats", type=int, default=None,
                         help="override the scenario repeat count")
    bench_p.add_argument("--timings", action="store_true",
                         help="include wall-clock columns (non-deterministic)")
    bench_p.add_argument("--table", action="store_true",
                         help="also print an aligned table to stderr")
    bench_p.add_argument("-o", "--output", default=None)
    bench_p.set_defaults(func=_cmd_bench)

    render_p.add_argument("-o", "--output", required=True, help="SVG output path")
    render_p.set_defaults(func=_cmd_render)

    export_p.add_argument("--raw", action="store_true",
                          help="skip presolve and export the full window model")
    export_p.add_argument("-o", "--output", default=None)
    export_p.set_defaults(func=_cmd_export_qubo)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
