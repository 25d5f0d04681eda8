"""Annealer-vs-exact agreement checks on pipeline-generated instances.

Random small scenarios are built into their first window by the planner's
own window builder. `solve` answers every window within the exact table cap
by min-sum elimination, and a wider one by elimination with its collision
couplings added lazily, so the pipeline anneals only windows whose lazy
rounds exceed the cap too. This check therefore calls the annealer itself,
as `solve` runs it then (all `num_reads` reads), on two-robot windows
whose (robot, step) groups form a cycle, and scores its best energy
against the window's exact one-hot minimum.
"""

import numpy as np

from .grid import GridMap, bfs_distances
from .penalties import PenaltyWeights
from .planner import build_window, derive_seed
from .solvers import (
    SolverConfig,
    _anneal,
    _collect,
    _cut,
    _eliminate,
    _one_hot_layout,
    _tally,
)


def random_instances(samples: int, seed: int, robots: int = 1, max_vars: int = 20,
                     loopy: bool = False):
    """Folded first-window models of random solvable scenarios with
    `robots` robots, as the planner builds them, with 1 to `max_vars` free
    variables, each with the (robot, step) group of every free variable.
    With `loopy`, only windows whose groups form a cycle are kept."""
    rng = np.random.default_rng(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, 0xA11CE)))
    produced = 0
    while produced < samples:
        size = int(rng.integers(3, 5)) + robots - 1
        cells = [(i, j) for i in range(size) for j in range(size)]
        obstacles = frozenset(
            c for c in cells if rng.random() < 0.15
        )
        free = [c for c in cells if c not in obstacles]
        if len(free) < 4 * robots:
            continue
        ends = [free[int(k)] for k in rng.choice(len(free), 2 * robots, replace=False)]
        grid = GridMap(size, size, obstacles)
        pairs = list(zip(ends[::2], ends[1::2]))
        if any(goal not in bfs_distances(grid, start) for start, goal in pairs):
            continue
        horizon = int(rng.integers(3, 6))
        window = build_window(grid, [(start, goal, {start}) for start, goal in pairs], horizon,
                              PenaltyWeights(), allow_wait=robots > 1)
        folded = window.folded
        n = folded.model.num_vars
        if n < 1 or n > max_vars:
            continue
        groups = window.groups
        if loopy and not _has_cycle(groups, folded.model.coeffs):
            continue
        produced += 1
        yield folded.model, groups


def _has_cycle(groups, coeffs) -> bool:
    """Whether the graph of the groups, with an edge wherever a coefficient
    couples two of them, has a cycle: union-find over its edges."""
    root = {g: g for g in groups}

    def find(g):
        while root[g] != g:
            g = root[g]
        return g

    for edge in {frozenset((groups[a], groups[b])) for a, b in coeffs}:
        if len(edge) == 2:
            ga, gb = (find(g) for g in edge)
            if ga == gb:
                return True
            root[ga] = gb
    return False


def oracle_check(samples: int = 25, runs_per_sample: int = 4, seed: int = 7) -> dict:
    """Fraction of annealer runs at default settings that end at the exact
    one-hot minimum, within the solvers' own tie tolerance
    (`solvers._cut`), on loopy two-robot first windows. Each run draws its
    own seed; exact elimination gives each window's minimum."""
    total = 0
    agreed = 0
    details = []
    for model, groups in random_instances(samples, seed, robots=2, max_vars=200, loopy=True):
        layout = _one_hot_layout(model, groups)
        ground = _collect(model, _tally(layout, _eliminate(layout)[None])).best.energy
        hits = 0
        for run in range(runs_per_sample):
            sub = derive_seed(seed, total + run)
            result = _anneal(model, layout, SolverConfig(seed=sub))
            hits += result.best.energy <= _cut(ground)
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
        "agreement": round(agreed / total, 4) if total else 0.0,
        "instances": details,
    }
