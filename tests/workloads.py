"""Generated planning workloads beyond the benchmark's, and a table of how
the planner fares on them. Run from the repository root:

    python tests/workloads.py

It plans every instance of every set below and prints one row per set:
the plans that pass `perfbench.checker`, their summed moves, the window
tries, the windows with a failed try, the solves the annealer answered, and
a hash of every path of the set, failed plans included, so two versions of
the planner can be compared path for path.

The sets:

- `shipped 0-3` and `city 0-19`: `perfbench.corpus`'s `shipped` corpora 0
  to 3 and `city` corpora 0 to 19.
- `dense 0` and `dense 1`: 24 crowded maps each, of sides 8, 10 and 12
  with 4, 6, 8 or 12 robots, built as `perfbench.corpus.city` builds its
  maps. Instance k is `{family}{side}x{robots}#{k}`.
- `random probe`: 3,000 small random maps of 2 to 4 robots, some released
  late, with short windows.

A draw is replaced only when a goal is out of reach on the bare map, or
when a map has too few free cells for its robots; planning outcomes play no
part in the selection.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checker import check_plans  # noqa: E402
from perfbench.corpus import Instance, _endpoints, city, city_map, shipped  # noqa: E402
from quboplan import (  # noqa: E402
    GridMap,
    PenaltyWeights,
    RobotSpec,
    SolverConfig,
    WindowConfig,
    bfs_distances,
    plan_multi,
    planner,
)

DENSE_SIDES = (8, 10, 12)
DENSE_ROBOTS = (4, 6, 8, 12)
DENSE_FAMILIES = ("open", "block")
DENSE_MAX_WINDOWS = 60
DENSE_READS, DENSE_SWEEPS = 100, 300

PROBE_SEED = 4242
PROBE_SIZE = 3000
PROBE_OBSTACLES = 0.15
PROBE_LATE = 0.3
PROBE_READS, PROBE_SWEEPS = 20, 100


def dense(draw: int) -> list[Instance]:
    """Draw `draw` of the dense set: instance k runs side-major, then robot
    count, then family, open before block. Its window is 8 + k mod 3 steps,
    at most 60 windows, 100 reads x 300 sweeps and seed k."""
    out = []
    for k in range(len(DENSE_SIDES) * len(DENSE_ROBOTS) * len(DENSE_FAMILIES)):
        side = DENSE_SIDES[k // 8]
        count = DENSE_ROBOTS[(k % 8) // 2]
        family = DENSE_FAMILIES[k % 2]
        rng = random.Random(f"dense{draw}:{k}")
        while True:
            grid = city_map(family, side, rng)
            pairs = _endpoints(grid, count, rng)
            if all(g in bfs_distances(grid, s) for s, g in pairs):
                break
        robots = tuple(RobotSpec(r, s, g) for r, (s, g) in enumerate(pairs))
        out.append(Instance(
            f"{family}{side}x{count}#{k}", grid, robots, PenaltyWeights(),
            WindowConfig(window_len=8 + k % 3, max_windows=DENSE_MAX_WINDOWS),
            SolverConfig(num_reads=DENSE_READS, sweeps=DENSE_SWEEPS, seed=k)))
    return out


def random_probe() -> list[Instance]:
    """The first 3,000 accepted draws of one seeded stream. A draw takes
    1-6 rows and 2-6 columns, makes each cell an obstacle with probability
    0.15 (row-major), puts 2-4 robots on distinct free cells, releases each
    at 0-3 with probability 0.3 (else at 0) and picks a window of 2-6 steps.
    A draw is replaced when a goal is out of reach; distinct cells always
    pass `planner.validate_robots`. Instance k runs 20 reads x 100 sweeps
    at seed k."""
    rng = random.Random(PROBE_SEED)
    out = []
    while len(out) < PROBE_SIZE:
        rows, cols = rng.randint(1, 6), rng.randint(2, 6)
        grid = GridMap(rows, cols, frozenset(
            (i, j) for i in range(rows) for j in range(cols) if rng.random() < PROBE_OBSTACLES))
        free = grid.free_cells()
        count = rng.randint(2, 4)
        if len(free) < 2 * count:
            continue
        cells = rng.sample(free, 2 * count)
        robots = tuple(
            RobotSpec(r, s, g, rng.randint(0, 3) if rng.random() < PROBE_LATE else 0)
            for r, (s, g) in enumerate(zip(cells[::2], cells[1::2])))
        window_len = rng.randint(2, 6)
        if any(r.goal not in bfs_distances(grid, r.start) for r in robots):
            continue
        k = len(out)
        out.append(Instance(
            f"probe{rows}x{cols}x{count}#{k}", grid, robots, PenaltyWeights(),
            WindowConfig(window_len=window_len),
            SolverConfig(num_reads=PROBE_READS, sweeps=PROBE_SWEEPS, seed=k)))
    return out


SETS = {
    "shipped 0-3": lambda: [i for c in range(4) for i in shipped(ROOT / "scenarios", c)],
    "city 0-19": lambda: [i for c in range(20) for i in city(c)],
    "dense 0": lambda: dense(0),
    "dense 1": lambda: dense(1),
    "random probe": random_probe,
}


def plan(inst: Instance):
    """`plan_multi` on one instance, and the checker's findings on its plans
    when the planner accepted them ([] otherwise)."""
    result = plan_multi(inst.grid, inst.robots, weights=inst.weights,
                        window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
    steps = {p.robot: p.steps for p in result.plans}
    return result, check_plans(inst.grid, inst.robots, steps) if result.succeeded else []


def summary(instances) -> dict:
    """One table row over `instances`."""
    annealed = 0
    solve = planner.solve

    def counted(model, cfg, *, groups):
        nonlocal annealed
        sampleset = solve(model, cfg, groups=groups)
        annealed += bool(sampleset.best.occurrences)
        return sampleset

    planner.solve = counted
    try:
        row = {"instances": 0, "plans": 0, "moves": 0, "windows": 0, "tries": 0,
               "failed_try": 0}
        paths = hashlib.sha256()
        for inst in instances:
            result, errors = plan(inst)
            row["instances"] += 1
            if result.succeeded and not errors:
                row["plans"] += 1
                row["moves"] += sum(p.moves for p in result.plans)
            row["windows"] += len(result.windows)
            row["tries"] += sum(w.retries + 1 for w in result.windows)
            row["failed_try"] += sum(1 for w in result.windows if w.retries)
            paths.update(json.dumps([inst.name, [p.steps for p in result.plans]]).encode())
    finally:
        planner.solve = solve
    row["annealed"] = annealed
    row["paths"] = paths.hexdigest()[:12]
    return row


def main() -> None:
    print("| Set | Plans | Moves | Tries | Windows with a failed try | Annealed solves "
          "| Paths sha256 |")
    print("|---|---|---|---|---|---|---|")
    for name, instances in SETS.items():
        r = summary(instances())
        print(f"| {name} | {r['plans']}/{r['instances']} | {r['moves']:,} | {r['tries']:,} "
              f"| {r['failed_try']} of {r['windows']:,} | {r['annealed']} | {r['paths']} |",
              flush=True)


if __name__ == "__main__":
    main()
