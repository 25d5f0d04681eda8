"""Deterministic planning instances for the three benchmark workloads.

`shipped` replays the scenario files under `scenarios/` over the seeds
`quboplan bench` derives for them. `corridor` and `city` are generated here
from a seed, after the map families of Stern et al., "Multi-Agent
Pathfinding: Definitions, Variants, and Benchmarks" (SoCS 2019): serpentine
corridors, city blocks and open maps with random obstacles. Nothing is
downloaded and the same seed always yields the same instances.
"""

import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from quboplan import (
    GridMap,
    PenaltyWeights,
    RobotSpec,
    SolverConfig,
    WindowConfig,
    bfs_distances,
    load_scenario,
)


@dataclass(frozen=True)
class Instance:
    """Everything one `plan_multi` call receives."""

    name: str
    grid: GridMap
    robots: tuple[RobotSpec, ...]
    weights: PenaltyWeights
    window_cfg: WindowConfig
    solver_cfg: SolverConfig


def derived_seed(base: int, index: int) -> int:
    """The seed `quboplan bench` uses for repeat `index` of base seed `base`."""
    entropy = (base & 0xFFFFFFFFFFFFFFFF, index)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def shipped(scenario_dir: Path, corpus_seed: int = 0) -> list[Instance]:
    """Every shipped scenario, with its own weights, window and solver
    settings, over the first `repeats` seeds that `quboplan bench` derives
    from its seed plus `corpus_seed`, `repeats` being the scenario's own
    `[bench] repeats`. Corpus seed 0 gives `quboplan bench`'s seeds."""
    specs = [load_scenario(str(p)) for p in sorted(Path(scenario_dir).glob("*.scn"))]
    if not specs:
        raise FileNotFoundError(f"no scenario files in {scenario_dir}")
    # Each scenario's plans are spaced evenly through the run, not timed in
    # one stretch, so a drift in machine speed touches every scenario alike.
    slots = sorted(((k + 0.5) / spec.repeats, spec.name, k, spec)
                   for spec in specs for k in range(spec.repeats))
    return [
        Instance(f"{name}#{k}", spec.grid, tuple(spec.robots), spec.weights, spec.window_cfg,
                 replace(spec.solver_cfg, seed=derived_seed(spec.seed + corpus_seed, k)))
        for _, name, k, spec in slots
    ]


def warmup() -> Instance:
    """A tiny two-robot plan that runs every stage, annealer included."""
    grid = GridMap(5, 5, frozenset({(2, 2)}))
    return Instance("warmup", grid, (RobotSpec(0, (0, 0), (4, 4)), RobotSpec(1, (4, 0), (0, 4))),
                    PenaltyWeights(), WindowConfig(window_len=8),
                    SolverConfig(num_reads=10, sweeps=50))


def _transform(rows: int, cols: int, cells, symmetry: int):
    """Apply one of the 8 symmetries of the square to a set of cells."""
    out = []
    for i, j in cells:
        if symmetry & 1:
            i = rows - 1 - i
        if symmetry & 2:
            j = cols - 1 - j
        if symmetry & 4:
            i, j = j, i
        out.append((i, j))
    return out


# Corridor sides of the corpus: one corridor of each side, so the mix of
# path lengths (and so of window counts) is the same for every seed, and
# plan times spread evenly instead of in clusters.
CORRIDOR_SIDES = tuple(range(20, 41))
CORRIDOR_WINDOW = 6


def serpentine(side: int, symmetry: int, reverse: bool):
    """corridor10's family: one-cell lanes joined at alternating ends.

    Returns (grid, start, goal) with start and goal at the two ends of the
    corridor, after a symmetry of the square and an optional reversal.
    """
    walls = set()
    for i in range(1, side, 2):
        gap = side - 1 if (i // 2) % 2 == 0 else 0
        last_wall = i == side - 1  # an even side ends in a full wall row
        walls |= {(i, j) for j in range(side) if last_wall or j != gap}
    last_lane = side - 1 if side % 2 else side - 2
    start = (0, 0)
    goal = (last_lane, side - 1 if (last_lane // 2) % 2 == 0 else 0)
    walls = _transform(side, side, walls, symmetry)
    start, goal = _transform(side, side, [start, goal], symmetry)
    if reverse:
        start, goal = goal, start
    return GridMap(side, side, frozenset(walls)), start, goal


def corridor(seed: int) -> list[Instance]:
    """Single-robot serpentine corridors; the seed picks each one's
    orientation and direction. `max_windows` is the cell count, which no
    path can exceed, so every plan can finish."""
    rng = random.Random(seed)
    out = []
    for k, side in enumerate(CORRIDOR_SIDES):
        symmetry = rng.randrange(8)
        reverse = rng.random() < 0.5
        grid, start, goal = serpentine(side, symmetry, reverse)
        out.append(Instance(
            f"corridor{side}#{k}", grid, (RobotSpec(0, start, goal),),
            PenaltyWeights(),
            WindowConfig(window_len=CORRIDOR_WINDOW, max_windows=side * side),
            SolverConfig(seed=derived_seed(seed, k)),
        ))
    return out


# (family, side, robots, window) of each city instance, fixed up front from
# sizes alone: sides 12-20, 2-4 robots, windows 8-10. Maps, endpoints and
# annealer seeds come from the generator seed.
CITY_MIX = (
    ("block", 12, 2, 8),
    ("open", 12, 2, 8),
    ("block", 12, 2, 10),
    ("open", 12, 2, 10),
    ("block", 12, 3, 8),
    ("open", 12, 3, 8),
    ("block", 12, 4, 8),
    ("block", 14, 2, 8),
    ("open", 14, 2, 8),
    ("block", 16, 2, 8),
    ("open", 16, 2, 8),
    ("block", 20, 2, 8),
)
CITY_READS = 100
CITY_SWEEPS = 300
OPEN_DENSITY = 0.15
BLOCK_SIZE = 2


def city_map(family: str, side: int, rng: random.Random) -> GridMap:
    """A city-block map (2x2 blocks between one-cell streets, as in
    multi10_2) or an open map with random obstacles."""
    if family == "block":
        step = BLOCK_SIZE + 1
        blocked = {
            (i, j) for i in range(side) for j in range(side)
            if i % step and j % step and i != side - 1 and j != side - 1
        }
    else:
        blocked = {
            (i, j) for i in range(side) for j in range(side)
            if rng.random() < OPEN_DENSITY
        }
    return GridMap(side, side, frozenset(blocked))


def _endpoints(grid: GridMap, count: int, rng: random.Random):
    """Distinct start and goal cells, each pair at least half a side apart."""
    free = grid.free_cells()
    min_gap = grid.rows // 2
    while True:
        cells = rng.sample(free, 2 * count)
        pairs = list(zip(cells[::2], cells[1::2]))
        if all(abs(s[0] - g[0]) + abs(s[1] - g[1]) >= min_gap for s, g in pairs):
            return pairs


def city(seed: int) -> list[Instance]:
    """Multi-robot city-block and open maps at 100 reads x 300 sweeps.

    A draw is replaced only when BFS shows some robot's goal unreachable
    from its start; QUBO outcomes play no part in the selection.
    """
    out = []
    for k, (family, side, count, window) in enumerate(CITY_MIX):
        rng = random.Random(f"{seed}:{k}")
        while True:
            grid = city_map(family, side, rng)
            pairs = _endpoints(grid, count, rng)
            if all(g in bfs_distances(grid, s) for s, g in pairs):
                break
        robots = tuple(RobotSpec(r, s, g) for r, (s, g) in enumerate(pairs))
        out.append(Instance(
            f"{family}{side}x{count}#{k}", grid, robots, PenaltyWeights(),
            WindowConfig(window_len=window),
            SolverConfig(num_reads=CITY_READS, sweeps=CITY_SWEEPS,
                         seed=derived_seed(seed, k)),
        ))
    return out
