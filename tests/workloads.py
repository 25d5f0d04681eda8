"""Generated planning workloads beyond the benchmark's, and a table of how
the planner fares on them. Run from the repository root:

    python tests/workloads.py

It plans every instance of every set below and prints one row per set:
the plans that pass `perfbench.checker`, their summed moves, the window
tries, the windows with a failed try, the solves the annealer answered,
the largest complete QUBO that any try of the set solves, a hash of every
path of the set, failed plans included, so two versions of the planner
can be compared path for path, and the set's wall time in seconds,
planning and checking every instance (the checker takes under 1 % of it),
so two versions can be compared for speed on sets the benchmark does not
run. The time is one run's, on whatever machine runs the script.

The complete QUBO of a try is the model it solves plus the one-hot pair
terms (`penalties.with_one_hot_pairs`), the form a hardware sampler would
take. Its columns are the most variables, the most couplings and the
highest degree, a variable's count of couplings, each over every solve of
the set.

The sets:

- `shipped 0-3` and `city 0-19`: `perfbench.corpus`'s `shipped` corpora 0
  to 3 and `city` corpora 0 to 19.
- `dense 0` and `dense 1`: 24 crowded maps each, of sides 8, 10 and 12
  with 4, 6, 8 or 12 robots, built as `perfbench.corpus.city` builds its
  maps. Instance k is `{family}{side}x{robots}#{k}`.
- `large` and `bigger`: 8 maps of sides 16 to 32 with 4 to 8 robots, and 4
  maps of sides 32 and 40 with 12 or 16 robots, built the same way.
- `scale probe`: 4 maps of sides 32 to 64 with 16 to 64 robots, their
  endpoints drawn one pair at a time.
- `random probe`: 3,000 small random maps of 2 to 4 robots, some released
  late, with short windows.

A draw is replaced only when a goal is out of reach on the bare map, when
a start and its goal lie less than half a side apart (the city-style sets),
or when a map has too few free cells for its robots; planning outcomes play
no part in the selection.
"""

import hashlib
import itertools
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

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
from quboplan.grid import manhattan  # noqa: E402

# (family, side, robots) of each instance, in instance order.
DENSE_MIX = tuple((family, side, count) for side, count, family in itertools.product(
    (8, 10, 12), (4, 6, 8, 12), ("open", "block")))
LARGE_MIX = (("block", 16, 4), ("open", 16, 4), ("block", 20, 6), ("open", 20, 6),
             ("open", 24, 4), ("block", 24, 8), ("open", 24, 8), ("open", 32, 8))
BIGGER_MIX = (("open", 32, 12), ("block", 32, 12), ("open", 40, 16), ("block", 40, 16))
SCALE_MIX = (("open", 32, 16), ("open", 48, 32), ("block", 48, 32), ("open", 64, 64))
READS, SWEEPS = 100, 300

PROBE_SEED = 4242
PROBE_SIZE = 3000
PROBE_OBSTACLES = 0.15
PROBE_LATE = 0.3
PROBE_READS, PROBE_SWEEPS = 20, 100


def _city_set(mix, stream: str, max_windows: int) -> list[Instance]:
    """Instance k of `mix` on a map drawn from `random.Random(stream + str(k))`
    as `perfbench.corpus.city` draws its own: the map and every endpoint
    are redrawn until each goal is reachable. Its window is 8 + k mod 3
    steps, at most `max_windows` windows, 100 reads x 300 sweeps and seed
    k."""
    out = []
    for k, (family, side, count) in enumerate(mix):
        rng = random.Random(f"{stream}{k}")
        while True:
            grid = city_map(family, side, rng)
            pairs = _endpoints(grid, count, rng)
            if all(g in bfs_distances(grid, s) for s, g in pairs):
                break
        robots = tuple(RobotSpec(r, s, g) for r, (s, g) in enumerate(pairs))
        out.append(Instance(
            f"{family}{side}x{count}#{k}", grid, robots, PenaltyWeights(),
            WindowConfig(window_len=8 + k % 3, max_windows=max_windows),
            SolverConfig(num_reads=READS, sweeps=SWEEPS, seed=k)))
    return out


def dense(draw: int) -> list[Instance]:
    """Draw `draw` of the dense set: instance k runs side-major, then robot
    count, then family, open before block, with at most 60 windows."""
    return _city_set(DENSE_MIX, f"dense{draw}:", 60)


def large() -> list[Instance]:
    """The large set, at most 60 windows an instance."""
    return _city_set(LARGE_MIX, "big:", 60)


def bigger() -> list[Instance]:
    """The bigger set, at most 80 windows an instance."""
    return _city_set(BIGGER_MIX, "bigger:", 80)


def scale_probe() -> list[Instance]:
    """`SCALE_MIX` drawn from one stream, `random.Random("scale:0")`. Each
    map is drawn as `perfbench.corpus.city_map` draws it. Its endpoints are
    drawn one pair at a time: a pair is redrawn until both cells are unused,
    at least half a side apart, and the goal is reachable from the start.
    (Redrawing the whole set, as `corpus._endpoints` does, almost never
    succeeds with dozens of robots.) Every instance has a window of 8
    steps, at most 100 windows, 100 reads x 300 sweeps and seed 0."""
    rng = random.Random("scale:0")
    out = []
    for family, side, count in SCALE_MIX:
        grid = city_map(family, side, rng)
        free, used, pairs = grid.free_cells(), set(), []
        while len(pairs) < count:
            s, g = rng.sample(free, 2)
            if (s in used or g in used or manhattan(s, g) < side // 2
                    or g not in bfs_distances(grid, s)):
                continue
            used |= {s, g}
            pairs.append((s, g))
        robots = tuple(RobotSpec(r, s, g) for r, (s, g) in enumerate(pairs))
        out.append(Instance(
            f"{family}{side}x{count}", grid, robots, PenaltyWeights(),
            WindowConfig(window_len=8, max_windows=100),
            SolverConfig(num_reads=READS, sweeps=SWEEPS, seed=0)))
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
    "large": large,
    "bigger": bigger,
    "scale probe": scale_probe,
    "random probe": random_probe,
}


def plan(inst: Instance):
    """`plan_multi` on one instance, and the checker's findings on its plans
    when the planner accepted them ([] otherwise)."""
    result = plan_multi(inst.grid, inst.robots, weights=inst.weights,
                        window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
    steps = {p.robot: p.steps for p in result.plans}
    return result, check_plans(inst.grid, inst.robots, steps) if result.succeeded else []


def complete_size(model, groups) -> tuple[int, int, int]:
    """Variables, couplings and highest degree of `model` with the one-hot
    pair terms, counted from its `solve` groups: a group of m variables
    adds m(m - 1)/2 couplings, and m - 1 to each member's degree."""
    pairs = np.array([key for key in model.coeffs if key[0] != key[1]], dtype=np.intp)
    _, labels, sizes = np.unique(groups, return_inverse=True, return_counts=True)
    degree = np.bincount(pairs.ravel(), minlength=model.num_vars) + sizes[labels] - 1
    return model.num_vars, len(pairs) + int((sizes * (sizes - 1) // 2).sum()), int(degree.max())


def planned(instances):
    """Yield each of `instances`, planned in order, with its result, the
    checker's findings, its wall time in seconds, counting left out, and
    one (annealed, variables, couplings, degree) tuple per solve: whether
    the annealer answered it, and its complete QUBO's `complete_size`."""
    solve = planner.solve
    for inst in instances:
        solves, counting = [], 0.0

        def counted(model, cfg, *, groups, seed_parts=()):
            nonlocal counting
            sampleset = solve(model, cfg, groups=groups, seed_parts=seed_parts)
            started = time.perf_counter()
            solves.append((bool(sampleset.best.occurrences), *complete_size(model, groups)))
            counting += time.perf_counter() - started
            return sampleset

        planner.solve = counted
        try:
            started = time.perf_counter()
            result, errors = plan(inst)
            seconds = time.perf_counter() - started - counting
        finally:
            planner.solve = solve
        yield inst, result, errors, seconds, solves


def summary(records) -> dict:
    """One table row over the records of `planned`."""
    row = {"instances": 0, "plans": 0, "moves": 0, "windows": 0, "tries": 0,
           "failed_try": 0, "seconds": 0.0, "annealed": 0,
           "qubo_vars": 0, "qubo_couplings": 0, "qubo_degree": 0}
    paths = hashlib.sha256()
    for inst, result, errors, seconds, solves in records:
        row["seconds"] += seconds
        row["instances"] += 1
        if result.succeeded and not errors:
            row["plans"] += 1
            row["moves"] += sum(p.moves for p in result.plans)
        row["windows"] += len(result.windows)
        row["tries"] += sum(w.retries + 1 for w in result.windows)
        row["failed_try"] += sum(1 for w in result.windows if w.retries)
        for annealed, *size in solves:
            row["annealed"] += annealed
            for key, value in zip(("qubo_vars", "qubo_couplings", "qubo_degree"), size):
                row[key] = max(row[key], value)
        paths.update(json.dumps([inst.name, [p.steps for p in result.plans]]).encode())
    row["paths"] = paths.hexdigest()[:12]
    return row


def main() -> None:
    print("| Set | Plans | Moves | Tries | Windows with a failed try | Annealed solves "
          "| Complete QUBO: variables / couplings / degree | Paths sha256 | Seconds |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, instances in SETS.items():
        r = summary(planned(instances()))
        print(f"| {name} | {r['plans']}/{r['instances']} | {r['moves']:,} | {r['tries']:,} "
              f"| {r['failed_try']} of {r['windows']:,} | {r['annealed']} "
              f"| {r['qubo_vars']:,} / {r['qubo_couplings']:,} / {r['qubo_degree']} "
              f"| {r['paths']} | {r['seconds']:.2f} |", flush=True)


if __name__ == "__main__":
    main()
