"""Independent reference implementations used only by the tests.

These evaluate the closed-form penalty sums directly on occupancies, count
shortest paths by brute force, compute exact minima and the two lowest
one-hot energies by plain enumeration, and tell a forest of groups from a
graph with a cycle by union-find. They deliberately avoid the
library's coefficient-accumulation and solver code paths so agreement
between the two is meaningful. The first one-hot annealing kernel is kept
here too, as the reference its faster rewrite must reproduce state for
state, and so are the grid's first neighbour rule, its first layer and
distance searches, the first, tick-by-tick vertex clash scan, and the
window builder
and fold as first written, every term through `QuboModel.add`. The
exhaustive solver, a plain enumeration of every assignment, is the ground
truth that tests plan through in place of `solvers.solve`. Random small
scenarios built into their first window by the planner's own window builder
feed the agreement check that scores the annealer against exact
elimination. A cell collection that answers membership but cannot be listed
checks that a search only asks its exclusions about cells.
"""

import itertools
import math

import numpy as np

from quboplan.grid import GridMap, manhattan
from quboplan.penalties import (
    BT_SOFT_FACTOR,
    EARLY_GOAL_PENALTY,
    START_REWARD,
    PenaltyWeights,
    WindowSpec,
    dense_admissible,
    goal_factor,
)
from quboplan.planner import build_window, derive_seed
from quboplan.postprocess import occupied_at
from quboplan.qubo import QuboModel, block_size, var_index
from quboplan.solvers import (
    _RANDOM_BUDGET,
    SampleSet,
    SolverConfig,
    _anneal,
    _collect,
    _eliminate,
    _energies,
    _one_hot_model,
    _OneHotLayout,
    _ones,
)

# The most variables `solve_exhaustive` enumerates, and the codes it scores
# at a time.
EXHAUSTIVE_VAR_CAP = 24
_ENUM_CHUNK = 1 << 16


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
            for c, closeness in goal_closeness(spec, rec).items():
                if c in admissible[r][horizon]:
                    total -= w.k_approx * closeness * occ(r, horizon, c)
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


def goal_closeness(spec: WindowSpec, rec) -> dict:
    """The window-final reward's closeness 1 - d/d_max of each cell the goal
    search reaches: d is the robot's `goal_distances` or, without them, this
    module's `bfs_distances` from the goal on the window's map with the goal
    cell open, and d_max the largest d."""
    distances = rec.goal_distances
    if distances is None:
        grid = spec.grid
        distances = bfs_distances(
            GridMap(grid.rows, grid.cols, grid.obstacles - {rec.goal}), rec.goal)
    d_max = max(distances.values())
    return {c: 1.0 - d / d_max if d_max else 0.0 for c, d in distances.items()}


def build_window_model_by_terms(spec: WindowSpec, admissible=None) -> QuboModel:
    """`penalties.build_window_model` as it was first written: every term
    through one `var_index` and one `QuboModel.add` call, in emission order,
    moves from `GridMap.neighbors`.

    The merge rule makes the order matter: a key sits where its sum first
    turns non-zero, and a sum that cancels to 0.0 drops it, so a later term
    adds it again at the end."""
    dims, horizon, w = spec.dims, spec.horizon, spec.weights
    if admissible is None:
        admissible = dense_admissible(spec)
    model = QuboModel(len(spec.robots) * block_size(dims))

    def entries(robot, t):
        return [(c, var_index(dims, robot, t, c)) for c in sorted(admissible[robot][t])]

    for robot, rec in enumerate(spec.robots):
        for t in range(horizon + 1):
            row = entries(robot, t)
            model.constant += w.k_hot
            for i, (_, a) in enumerate(row):
                model.add(a, a, -w.k_hot)
                for _, b in row[i + 1:]:
                    model.add(a, b, 2.0 * w.k_hot)
        for t in range(horizon):
            nxt = admissible[robot][t + 1]
            for c, a in entries(robot, t):
                model.add(a, a, w.k_adj)
                for n in sorted(neighbors(spec.grid, c, allow_wait=spec.allow_wait) & nxt):
                    model.add(a, var_index(dims, robot, t + 1, n), -w.k_adj)
        if rec.start in admissible[robot][0]:
            a = var_index(dims, robot, 0, rec.start)
            model.add(a, a, -START_REWARD)
        if (manhattan(rec.start, rec.goal) < horizon
                and any(rec.goal in cells for cells in admissible[robot])):
            for t in range(1, horizon + 1):
                if rec.goal in admissible[robot][t]:
                    a = var_index(dims, robot, t, rec.goal)
                    model.add(a, a, -w.k_goal * goal_factor(t, horizon))
        else:
            closeness = goal_closeness(spec, rec)
            for c, a in entries(robot, horizon):
                weight = -w.k_approx * closeness.get(c, 0.0)
                if weight != 0.0:
                    model.add(a, a, weight)
        for t in range(horizon):
            if rec.goal not in admissible[robot][t]:
                continue
            a = var_index(dims, robot, t, rec.goal)
            model.add(a, a, w.k_lock)
            if rec.goal in admissible[robot][t + 1]:
                model.add(a, var_index(dims, robot, t + 1, rec.goal), -w.k_lock)
        occurrences = {}
        for t in range(horizon + 1):
            for c in admissible[robot][t]:
                occurrences.setdefault(c, []).append(t)
        for c in sorted(occurrences):
            times = sorted(occurrences[c])
            if c != rec.goal:
                for i, t1 in enumerate(times):
                    a = var_index(dims, robot, t1, c)
                    for t2 in times[i + 1:]:
                        model.add(a, var_index(dims, robot, t2, c), w.k_bt)
            if c in rec.visited:
                for t in times:
                    a = var_index(dims, robot, t, c)
                    model.add(a, a, w.k_bt * BT_SOFT_FACTOR)
        for t in range(min(manhattan(rec.start, rec.goal), horizon + 1)):
            if rec.goal in admissible[robot][t]:
                a = var_index(dims, robot, t, rec.goal)
                model.add(a, a, EARLY_GOAL_PENALTY)
    for r1 in range(len(spec.robots)):
        for r2 in range(r1 + 1, len(spec.robots)):
            for t in range(horizon + 1):
                for c in sorted(admissible[r1][t] & admissible[r2][t]):
                    model.add(var_index(dims, r1, t, c), var_index(dims, r2, t, c), w.k_coll)
    return model


def fold_by_terms(model: QuboModel, ones) -> tuple[QuboModel, list[int]]:
    """`preprocess.fold` with no zeros, as it was first written: every
    surviving term through `QuboModel.add`. Returns the folded model and
    its free variables."""
    free = sorted({v for key in model.coeffs for v in key} - set(ones))
    position = {orig: dense for dense, orig in enumerate(free)}
    out = QuboModel(len(free), model.constant)
    for (a, b), w in model.coeffs.items():
        if a in ones and (a == b or b in ones):
            out.constant += w
        elif a in ones:
            out.add(position[b], position[b], w)
        elif b in ones:
            out.add(position[a], position[a], w)
        else:
            out.add(position[a], position[b], w)
    return out, free


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


def bfs_layers(grid: GridMap, start, horizon: int, exclude_visited=()) -> list:
    """`grid.bfs_layers` as it was first written: each layer's cells
    expanded through `GridMap.neighbors`."""
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    layers = [{start}]
    seen = {start}
    while len(layers) <= horizon:
        fresh = set()
        for c in layers[-1]:
            for n in grid.neighbors(c):
                if n not in seen and n not in exclude_visited:
                    seen.add(n)
                    fresh.add(n)
        if not fresh:
            break
        layers.append(fresh)
    return layers


class CellsWithoutIteration:
    """Cells that answer membership and size but cannot be listed, so a
    search that iterates or copies them fails."""

    def __init__(self, cells):
        self.cells = frozenset(cells)

    def __contains__(self, c):
        return c in self.cells

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        raise AssertionError("the visited cells were iterated")


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


def _require_enumerable(states: int) -> None:
    """Refuse an enumeration of more than 2^16 states before it starts.

    The largest one a test asks for has 4,096 states; multi10_4's first
    window has 2^24 one-hot states, whose sorted list takes gigabytes.
    """
    if states > 1 << 16:
        raise ValueError(f"{states} states to enumerate; the oracles stop at {1 << 16}")


def brute_force_minima(model: QuboModel):
    """Exact minimum energy and every minimizing assignment, by enumeration."""
    n = model.num_vars
    _require_enumerable(2 ** n)
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


def one_hot_two_lowest(model: QuboModel, groups) -> tuple[float, float, tuple[int, ...]]:
    """The lowest and second-lowest energy over the states that set exactly
    one variable per group, by enumeration (second is inf with one state),
    and the bits of a state at the lowest."""
    members: dict = {}
    for v, g in enumerate(groups):
        members.setdefault(g, []).append(v)
    _require_enumerable(math.prod(len(m) for m in members.values()))
    scored = sorted((model.energy(set(ones)), ones)
                    for ones in itertools.product(*members.values()))
    lowest, argmin = scored[0]
    bits = tuple(int(v in argmin) for v in range(model.num_vars))
    return lowest, scored[1][0] if len(scored) > 1 else math.inf, bits


def group_graph_is_forest(model: QuboModel, groups) -> bool:
    """Whether the graph whose nodes are the groups, with an edge wherever a
    coefficient couples two groups, has no cycle: union-find over its edges,
    a cycle being an edge whose ends are already joined."""
    root = {g: g for g in groups}

    def find(g):
        while root[g] != g:
            g = root[g]
        return g

    edges = {frozenset((groups[a], groups[b])) for a, b in model.coeffs}
    for edge in edges:
        if len(edge) == 2:
            ga, gb = (find(g) for g in edge)
            if ga == gb:
                return False
            root[ga] = gb
    return True


def _dense_arrays(model):
    """The model's diagonal and its couplings as a dense upper matrix."""
    diag = np.zeros(model.num_vars)
    upper = np.zeros((model.num_vars, model.num_vars))
    for (a, b), w in model.coeffs.items():
        if a == b:
            diag[a] = w
        else:
            upper[a, b] = w
    return diag, upper


def cut(best: float) -> float:
    """The highest energy that counts as tied with `best`."""
    return best + 1e-9 * max(1.0, abs(best))


def solve_exhaustive(model) -> SampleSet:
    """Global minimum by complete enumeration; every tied optimum is kept,
    with 1 occurrence each. One pass over every chunk finds the minimum, a
    second the codes within tolerance of it, which are then scored exactly,
    so that ties are exact ties."""
    n = model.num_vars
    if n > EXHAUSTIVE_VAR_CAP:
        raise ValueError(f"solve_exhaustive handles at most {EXHAUSTIVE_VAR_CAP} "
                         f"variables, got {n}")
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

    near = []
    for lo in range(0, total, _ENUM_CHUNK):
        e = chunk_energies(lo, min(lo + _ENUM_CHUNK, total))
        near.append(lo + np.nonzero(e <= cut(best))[0])
    codes = np.concatenate(near)
    on = ((codes[:, None] >> shifts) & 1).astype(bool)
    exact = _energies(model, on)
    ties = on[exact == exact.min()].astype(int)
    return _collect(model, {tuple(bits): 1 for bits in ties.tolist()})


def random_instances(samples: int, seed: int, robots: int = 1, max_vars: int = 20,
                     loopy: bool = False):
    """Folded first-window models of random solvable scenarios with
    `robots` robots, as the planner builds them, with 1 to `max_vars` free
    variables, each with the (robot, step) group of every free variable.
    With `loopy`, only windows whose groups form a cycle are kept."""
    for window in random_windows(samples, seed, robots, max_vars, loopy):
        yield window.folded.model, window.groups


def random_windows(samples: int, seed: int, robots: int = 1, max_vars: int = 20,
                   loopy: bool = False, bounded: bool = True):
    """The windows `random_instances` folds, built by `planner.build_window`
    at the default weights; on the first-reach layers when `bounded` is
    false."""
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
                              PenaltyWeights(), allow_wait=robots > 1, bounded=bounded)
        model = window.folded.model
        if model.num_vars < 1 or model.num_vars > max_vars:
            continue
        if loopy and group_graph_is_forest(model, window.groups):
            continue
        produced += 1
        yield window


def oracle_check(samples: int = 25, runs_per_sample: int = 4, seed: int = 7) -> dict:
    """Fraction of annealer runs at default settings that end at the exact
    one-hot minimum, within `cut`'s tie tolerance, on loopy two-robot first
    windows, where `solvers.solve` would answer by elimination. Each run
    draws its own seed; exact elimination gives each window's minimum."""
    total = 0
    agreed = 0
    details = []
    for model, groups in random_instances(samples, seed, robots=2, max_vars=200, loopy=True):
        one_hot = _one_hot_model(model, groups)
        ground = model.energy(_ones(one_hot, _eliminate(one_hot)))
        hits = 0
        for run in range(runs_per_sample):
            sub = derive_seed(seed, total + run)
            result = _anneal(model, one_hot, SolverConfig(seed=sub))
            hits += result.best.energy <= cut(ground)
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
def anneal_one_hot(layout: _OneHotLayout, cfg: SolverConfig, betas: np.ndarray) -> np.ndarray:
    """Each read's final state: one chosen internal variable per group;
    sweep s runs at inverse temperature `betas[s]`.

    The fields of a block of reads live in one flat array, a row of `stride`
    entries per read, and a state is the flat index of each group's set bit.
    """
    n, num_groups = len(layout.order), len(layout.size)
    stride = 1 << n.bit_length()  # > n, so column n is the padding sink
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
