"""Solver-vs-exhaustive agreement checks on pipeline-generated instances.

Random small scenarios are built into their first window by the planner's
own window builder, and the best energy of the default annealer backend is
compared against the enumerated ground state on every instance small enough
to enumerate. That backend answers by exact elimination, and runs no read,
a window whose one-hot minimum is unique or whose (robot, step) groups form
a forest. These single-robot windows are chains of steps, so nearly every
run is answered that way (`eliminated`) and checks elimination, not the
annealer.
"""

import numpy as np

from .grid import GridMap, bfs_distances
from .penalties import PenaltyWeights
from .planner import build_window, derive_seed
from .qubo import var_group
from .solvers import SolverConfig, _cut, solve, solve_exhaustive


def random_instances(samples: int, seed: int):
    """Folded first-window models of random solvable scenarios, as the
    planner builds them, with 1 to 20 free variables, each with the
    (robot, step) group of every free variable."""
    rng = np.random.default_rng(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, 0xA11CE)))
    produced = 0
    while produced < samples:
        size = int(rng.integers(3, 5))
        cells = [(i, j) for i in range(size) for j in range(size)]
        obstacles = frozenset(
            c for c in cells if rng.random() < 0.15
        )
        free = [c for c in cells if c not in obstacles]
        if len(free) < 4:
            continue
        start, goal = (free[int(k)] for k in rng.choice(len(free), 2, replace=False))
        grid = GridMap(size, size, obstacles)
        if goal not in bfs_distances(grid, start):
            continue
        horizon = int(rng.integers(3, 6))
        window = build_window(grid, [(start, goal, {start})], horizon, PenaltyWeights())
        folded = window.folded
        n = folded.model.num_vars
        if n < 1 or n > 20:
            continue
        produced += 1
        yield folded.model, [var_group(window.spec.dims, v) for v in folded.free_vars]


def oracle_check(samples: int = 25, runs_per_sample: int = 4, seed: int = 7) -> dict:
    """Fraction of default `solve` runs that hit the enumerated ground state,
    within the solvers' own tie tolerance (`solvers._cut`).

    `eliminated` counts the runs that ran no read (their occurrences sum to
    0): `solve` answered them by exact elimination, not by annealing.
    """
    total = 0
    agreed = 0
    eliminated = 0
    details = []
    for model, groups in random_instances(samples, seed):
        ground = solve_exhaustive(model).best.energy
        hits = 0
        for run in range(runs_per_sample):
            sub = derive_seed(seed, total + run)
            result = solve(model, SolverConfig(seed=sub), groups=groups)
            hits += result.best.energy <= _cut(ground)
            eliminated += sum(s.occurrences for s in result) == 0
        total += runs_per_sample
        agreed += hits
        details.append({
            "free_vars": model.num_vars,
            "ground_energy": ground,
            "hits": hits,
            "runs": runs_per_sample,
        })
    return {
        "samples": len(details),
        "runs": total,
        "agreed": agreed,
        "eliminated": eliminated,
        "agreement": round(agreed / total, 4) if total else 0.0,
        "instances": details,
    }
