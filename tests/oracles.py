"""Independent reference implementations used only by the tests.

These evaluate the closed-form penalty sums directly on occupancies, count
shortest paths by brute force, and compute exact minima and the two lowest
one-hot energies by plain enumeration. They deliberately avoid the
library's coefficient-accumulation and solver code paths so agreement
between the two is meaningful. The first one-hot annealing kernel is kept
here too, as the reference its faster rewrite must reproduce state for
state, and so are the grid's first neighbour rule, its first distance
search, the exhaustive backend's first, two-pass screen and the first,
tick-by-tick vertex clash scan.
"""

import itertools
import math

import numpy as np

from quboplan.grid import (
    GridMap,
    manhattan,
    max_manhattan,
    obstacle_potential,
)
from quboplan.penalties import (
    BT_SOFT_FACTOR,
    EARLY_GOAL_PENALTY,
    START_REWARD,
    WindowSpec,
    goal_factor,
)
from quboplan.postprocess import occupied_at
from quboplan.qubo import QuboModel
from quboplan.solvers import (
    _ENUM_CHUNK,
    _RANDOM_BUDGET,
    SampleSet,
    SolverConfig,
    _collect,
    _dense_arrays,
    _energies,
    _OneHotLayout,
)


def penalty_energy(spec: WindowSpec, admissible, occupancy, allow_wait=False) -> float:
    """Sum of every penalty formula evaluated directly on an occupancy.

    `occupancy[r]` maps time step to the set of cells robot r holds. Only
    variables present in `admissible` contribute, mirroring the variable
    space of the built model. A robot whose goal is admissible at some step
    and strictly closer than the horizon earns the late-time goal reward,
    any other the window-final approximation reward.
    """
    w = spec.weights

    def occ(r, t, c):
        return 1 if c in occupancy[r].get(t, set()) else 0

    total = 0.0
    horizon = spec.horizon
    for r, rec in enumerate(spec.robots):
        for t in range(horizon + 1):
            filled = sum(occ(r, t, c) for c in admissible[r][t])
            total += w.k_hot * (1 - filled) ** 2
        for t in range(horizon):
            for c in admissible[r][t]:
                if occ(r, t, c):
                    linked = sum(
                        occ(r, t + 1, n)
                        for n in spec.grid.neighbors(c, allow_wait=allow_wait)
                        if n in admissible[r][t + 1]
                    )
                    total += w.k_adj * (1 - linked)
        if rec.start in admissible[r][0]:
            total -= START_REWARD * occ(r, 0, rec.start)
        seeks_goal = (manhattan(rec.start, rec.goal) < horizon
                      and any(rec.goal in cells for cells in admissible[r]))
        if not seeks_goal:
            d_max = max_manhattan(spec.grid)
            for c in admissible[r][horizon]:
                if occ(r, horizon, c):
                    closeness = 1.0 - (manhattan(c, rec.goal) / d_max if d_max else 0.0)
                    openness = 1.0 - obstacle_potential(spec.grid, c)
                    total -= w.k_approx * closeness * openness
        else:
            for t in range(1, horizon + 1):
                if rec.goal in admissible[r][t]:
                    total -= w.k_goal * goal_factor(t, horizon) * occ(r, t, rec.goal)
        for t in range(horizon):
            if rec.goal in admissible[r][t]:
                here = occ(r, t, rec.goal)
                after = occ(r, t + 1, rec.goal) if rec.goal in admissible[r][t + 1] else 0
                total += w.k_lock * (here - here * after)
        cells = set()
        for t in range(horizon + 1):
            cells |= admissible[r][t]
        for c in sorted(cells):
            times = [t for t in range(horizon + 1) if c in admissible[r][t]]
            if c != rec.goal:
                for i, t1 in enumerate(times):
                    for t2 in times[i + 1:]:
                        total += w.k_bt * occ(r, t1, c) * occ(r, t2, c)
            if c in rec.visited:
                for t in times:
                    total += w.k_bt * BT_SOFT_FACTOR * occ(r, t, c)
        for t in range(min(manhattan(rec.start, rec.goal), horizon + 1)):
            if rec.goal in admissible[r][t]:
                total += EARLY_GOAL_PENALTY * occ(r, t, rec.goal)

    for r1 in range(len(spec.robots)):
        for r2 in range(r1 + 1, len(spec.robots)):
            for t in range(horizon + 1):
                for c in admissible[r1][t] & admissible[r2][t]:
                    total += w.k_coll * occ(r1, t, c) * occ(r2, t, c)
    return total


def neighbors(grid: GridMap, c, allow_wait=False) -> set:
    """`GridMap.neighbors` as it was first written: the four edge steps,
    each kept when `GridMap.is_free` admits it."""
    if not grid.in_bounds(c):
        raise ValueError(f"cell {c} outside {grid.rows}x{grid.cols} grid")
    if c in grid.obstacles:
        raise ValueError(f"cell {c} is an obstacle")
    out = set()
    for di, dj in ((-1, 0), (0, -1), (0, 1), (1, 0)):
        n = (c[0] + di, c[1] + dj)
        if grid.is_free(n):
            out.add(n)
    if allow_wait:
        out.add(c)
    return out


def bfs_distances(grid: GridMap, start) -> dict:
    """`grid.bfs_distances` as it was first written: a frontier loop of its
    own, apart from `grid.bfs_layers`."""
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        fresh = []
        for c in frontier:
            for n in grid.neighbors(c):
                if n not in dist:
                    dist[n] = d
                    fresh.append(n)
        frontier = fresh
    return dist


def all_shortest_paths(grid: GridMap, start, goal, limit: int = 10000):
    """Every minimum-length path between two cells, by depth-first search."""
    from_start = bfs_distances(grid, start)
    from_goal = bfs_distances(grid, goal)
    if goal not in from_start:
        return []
    total = from_start[goal]
    paths = []

    def extend(path):
        if len(paths) >= limit:
            return
        c = path[-1]
        if c == goal:
            paths.append(list(path))
            return
        for n in sorted(grid.neighbors(c)):
            if from_start.get(n) == from_start[c] + 1 and from_goal.get(n) == from_goal[c] - 1:
                path.append(n)
                extend(path)
                path.pop()

    extend([start])
    assert all(len(p) == total + 1 for p in paths)
    return paths


def vertex_conflicts(step_lists):
    """Every (t, cell, r1, r2) clash, found by checking every tick from the
    first step time to the last; `postprocess.find_vertex_conflicts` must
    return the same list."""
    populated = [(r, s) for r, s in enumerate(step_lists) if s]
    if len(populated) < 2:
        return []
    lo = min(s[0][0] for _, s in populated)
    hi = max(s[-1][0] for _, s in populated)
    conflicts = []
    for t in range(lo, hi + 1):
        spots = {}
        for r, s in populated:
            c = occupied_at(s, t)
            if c is None:
                continue
            if c in spots:
                conflicts.append((t, c, spots[c], r))
            else:
                spots[c] = r
    conflicts.sort()
    return conflicts


def brute_force_minima(model: QuboModel):
    """Exact minimum energy and every minimizing assignment, by enumeration."""
    n = model.num_vars
    best = None
    argmins = []
    for bits in itertools.product((0, 1), repeat=n):
        ones = {i for i, b in enumerate(bits) if b}
        e = model.energy(ones)
        if best is None or e < best:
            best = e
            argmins = [bits]
        elif e == best:
            argmins.append(bits)
    return best, argmins


def one_hot_two_lowest(model: QuboModel, groups) -> tuple[float, float]:
    """The lowest and second-lowest energy over the states that set exactly
    one variable per group, by enumeration (second is inf with one state)."""
    members: dict = {}
    for v, g in enumerate(groups):
        members.setdefault(g, []).append(v)
    energies = sorted(model.energy(set(ones)) for ones in itertools.product(*members.values()))
    return energies[0], energies[1] if len(energies) > 1 else math.inf


def solve_exhaustive_two_pass(model) -> SampleSet:
    """`solvers.solve_exhaustive` as it screened first: one pass over every
    chunk for the minimum, a second for the codes within tolerance of it."""
    n = model.num_vars
    diag, upper = _dense_arrays(model)
    shifts = np.arange(n, dtype=np.uint32)
    total = 1 << n

    def chunk_energies(lo, hi):
        codes = np.arange(lo, hi, dtype=np.uint32)
        bits = ((codes[:, None] >> shifts) & 1).astype(np.float64)
        return bits @ diag + np.einsum("ij,ij->i", bits @ upper, bits)

    best = math.inf
    for lo in range(0, total, _ENUM_CHUNK):
        e = chunk_energies(lo, min(lo + _ENUM_CHUNK, total))
        best = min(best, float(e.min()))

    tolerance = 1e-9 * max(1.0, abs(best))
    near = []
    for lo in range(0, total, _ENUM_CHUNK):
        e = chunk_energies(lo, min(lo + _ENUM_CHUNK, total))
        near.append(lo + np.nonzero(e <= best + tolerance)[0])
    codes = np.concatenate(near)
    on = ((codes[:, None] >> shifts) & 1).astype(bool)
    exact = _energies(model, on)
    ties = on[exact == exact.min()].astype(int)
    return _collect(model, {tuple(bits): 1 for bits in ties.tolist()})


def peak_rescaled(model: QuboModel, scale: float) -> QuboModel:
    """The model with every coefficient, constant included, scaled so that its
    largest |coefficient| is `scale`: a positive rescale, which `solvers.solve`
    absorbs into β."""
    factor = scale / max(abs(w) for w in model.coeffs.values())
    out = QuboModel(model.num_vars, model.constant * factor)
    out.coeffs = {key: w * factor for key, w in model.coeffs.items()}
    return out


def random_grid_model(rng, n, density=0.4, step=0.25, span=16) -> QuboModel:
    """Random model with grid-quantized coefficients (keeps ties exact)."""
    model = QuboModel(n)
    for i in range(n):
        if rng.random() < 0.9:
            w = step * int(rng.integers(-span, span + 1))
            if w:
                model.add(i, i, w)
        for j in range(i + 1, n):
            if rng.random() < density:
                w = step * int(rng.integers(-span, span + 1))
                if w:
                    model.add(i, j, w)
    return model


def four_var_fixture() -> QuboModel:
    """Small dense model with a known unique minimum, used across tests."""
    model = QuboModel(4)
    model.add(0, 0, -5.0)
    model.add(1, 1, -3.0)
    model.add(2, 2, -8.0)
    model.add(3, 3, -6.0)
    model.add(0, 1, 4.0)
    model.add(0, 2, 8.0)
    model.add(1, 2, 2.0)
    model.add(2, 3, 10.0)
    return model


# The one-hot annealing kernel as first written: each class reads its state
# as a strided column slice of `cur`, and accepted moves are masked out and
# concatenated. `solvers._anneal_one_hot` must return exactly its states.
def anneal_one_hot(layout: _OneHotLayout, cfg: SolverConfig, scale: float) -> np.ndarray:
    """Each read's final state: one chosen internal variable per group.

    The fields of a block of reads live in one flat array, a row of `stride`
    entries per read, and a state is the flat index of each group's set bit.
    """
    n, num_groups = len(layout.order), len(layout.size)
    stride = 1 << n.bit_length()  # > n, so column n is the padding sink
    betas = np.geomspace(*cfg.beta_range, cfg.sweeps) * scale
    span = (layout.size - 1).astype(np.float64)
    # Every per-read array counts against the budget, in 8-byte units.
    per_read = num_groups * (cfg.sweeps + 2) + stride
    block = max(1, min(cfg.num_reads, _RANDOM_BUDGET // per_read))
    seed_base = cfg.seed & 0xFFFFFFFFFFFFFFFF
    states = np.empty((cfg.num_reads, num_groups), dtype=np.intp)
    offset, weight = layout.offset, layout.weight
    draws = np.empty((cfg.sweeps, num_groups), dtype=np.float32)

    def shift(field, ends, count):
        # The bits at `ends[:count]` were set and the rest cleared: add and
        # remove their couplings to the fields of the other groups.
        local = ends & (stride - 1)
        change = weight.take(local, axis=0)
        change[count:] *= -1.0
        targets = ends[:, None] + offset.take(local, axis=0)
        np.add.at(field, targets.ravel(), change.ravel())

    for lo in range(0, cfg.num_reads, block):
        reads = min(block, cfg.num_reads - lo)
        base = (np.arange(reads) * stride)[:, None] + layout.first
        start = np.empty((reads, num_groups), dtype=np.float32)
        picks = np.empty((reads, cfg.sweeps, num_groups), dtype=np.int32)
        limits = np.empty((reads, cfg.sweeps, num_groups), dtype=np.float32)
        for i in range(reads):
            rng = np.random.default_rng(np.random.SeedSequence((seed_base, lo + i)))
            rng.random(dtype=np.float32, out=start[i])
            # A proposal picks one of the group's other members, uniformly:
            # the k-th of them is member k, or k + 1 from the held member on.
            rng.random(dtype=np.float32, out=draws)
            picks[i] = draws * span + base[i]
            rng.random(dtype=np.float32, out=limits[i])
        # Metropolis: accept when delta <= -ln(u) / beta (always when u = 0).
        with np.errstate(divide="ignore"):
            np.log(limits, out=limits)
        limits *= (-1.0 / betas)[:, None]

        cur = (base + start * layout.size).astype(np.int32)
        field = np.zeros((reads, stride))
        field[:, :n] = layout.diag
        field = field.ravel()
        shift(field, cur.ravel(), cur.size)

        passes = [(cur[:, a:b], a, b) for a, b in layout.classes]
        for s in range(cfg.sweeps):
            for held, a, b in passes:
                pick = picks[:, s, a:b]
                proposed = pick + (pick >= held)
                accept = field.take(proposed) - field.take(held) <= limits[:, s, a:b]
                moved = proposed[accept]
                if moved.size:
                    ends = np.concatenate((moved, held[accept]))
                    held[accept] = moved
                    shift(field, ends, moved.size)
        states[lo:lo + reads] = cur - base + layout.first
    return states
