"""Penalty emission: turns a planning window into QUBO coefficients.

Every constraint of the path model is a weighted quadratic term added to a
shared model: one-hot occupancy per time step, continuity between steps,
start/goal conditions, goal locking, revisit discouragement, early-arrival
discouragement, the window-final reward by BFS distance to the goal, and
inter-robot vertex-collision coupling. Each emitter mirrors one closed-form
penalty, so model energy always equals the sum of the formulas evaluated on
the decoded occupancy. The emitters append their terms to one flat list per
window, indexed through a table built once, and the list is merged into the
model once. The model a window is solved on leaves out the one-hot pair
terms, which never fire on the one-hot states the solver visits; the
complete model keeps them, for `export-qubo` and the tests' oracles.
`derived_weights` reads a window's own objective terms for the constraint
weights at which its minimum keeps every constraint it can (Lucas, "Ising
formulations of many NP problems", Front. Phys. 2, 5, 2014).
"""

import math
from itertools import repeat
from collections.abc import Mapping, Set as AbstractSet
from dataclasses import dataclass, field, fields, replace

from .grid import Cell, GridMap, bfs_distances, manhattan
from .qubo import Dims, QuboModel, block_size

# The goal reward's time multiplier at a window's last step (it starts at 1).
GOAL_RAMP_MAX = 2.0
# Share of `k_bt` charged for each step on a cell visited in an earlier window.
BT_SOFT_FACTOR = 0.5
# The start reward and the early-goal penalty cannot change a plan, so they
# are constants. Layer 0 of `bfs_layers` is {start}, so the start variable is
# forced on and `fold` moves its reward into the constant before any solve.
# The goal enters a layer at its BFS distance, never below its L1 distance
# (left-out visited cells and added obstacles only lengthen it), and
# `fix_logical` pads the goal only after that step: `apply_teleportation`
# emits nothing in a planner window. Both still shape the dense model.
START_REWARD = 4.0
EARLY_GOAL_PENALTY = 3.0


def goal_factor(t: int, horizon: int) -> float:
    """Time multiplier of the goal reward at step t of a window, rising
    linearly from 1 to `GOAL_RAMP_MAX`."""
    return 1.0 + (GOAL_RAMP_MAX - 1.0) * t / horizon


@dataclass(frozen=True)
class PenaltyWeights:
    """Relative importance of each constraint.

    The defaults were tuned empirically on the benchmark scenarios; all
    weights must be finite and strictly positive. Only the weights' ratios
    matter: the annealer reads its β range per unit of the model's largest
    coupling between (robot, step) groups (`solvers.solve`), so no overall
    scale is set here. A window is first tried at these weights, on
    admissible sets bounded from the goal end. The first-reach tries of a
    multi-robot window run at derived weights (`derived_weights`); fields
    are floors there.
    """

    k_hot: float = 4.0
    k_adj: float = 2.0
    k_goal: float = 2.0
    k_lock: float = 1.0
    k_bt: float = 1.5
    k_approx: float = 1.0
    k_coll: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and strictly positive")


@dataclass(frozen=True)
class RobotWindow:
    """One robot's slice of a planning window.

    `visited` carries cells from earlier windows: `preprocess.fix_logical`
    leaves them out of the robot's reachability search, and the revisit
    penalties softly discourage them. Held as given and only asked whether
    it holds a cell, it must not change while the window is in use.
    `goal_distances` maps cells to their BFS distance to the goal, as the
    planner's walled-off check searched it; `apply_approximation` reads it,
    and searches the window's own map when it is None.
    """

    start: Cell
    goal: Cell
    visited: AbstractSet[Cell] = frozenset()
    goal_distances: Mapping[Cell, int] | None = None


@dataclass(frozen=True)
class WindowSpec:
    """Everything needed to build one window's QUBO: map, robots, the
    window's horizon (every robot plans steps 0..horizon), weights, and
    whether a robot may wait (stay on its cell for a step)."""

    grid: GridMap
    robots: tuple[RobotWindow, ...]
    horizon: int
    weights: PenaltyWeights = field(default_factory=PenaltyWeights)
    allow_wait: bool = False

    def __post_init__(self):
        if not self.robots:
            raise ValueError("window needs at least one robot")
        if self.horizon < 1:
            raise ValueError("window horizon must be >= 1")
        object.__setattr__(self, "robots", tuple(self.robots))
        for r in self.robots:
            if not self.grid.is_free(r.start):
                raise ValueError(f"robot start {r.start} is not a free cell")
            # A goal may be temporarily blocked (another robot is sitting on
            # it); the goal-seeking terms are then vacuous for this window.
            if not self.grid.in_bounds(r.goal):
                raise ValueError(f"robot goal {r.goal} outside the grid")

    @property
    def dims(self) -> Dims:
        return (self.grid.rows, self.grid.cols, self.horizon)


# Admissible[robot][t] is the set of cells robot may occupy at local step t.
Admissible = list[list[set[Cell]]]


def dense_admissible(spec: WindowSpec) -> Admissible:
    """Every free cell at every step: the un-preprocessed variable space."""
    free = set(spec.grid.free_cells())
    return [
        [set(free) for _ in range(spec.horizon + 1)]
        for _ in spec.robots
    ]


class WindowTerms:
    """A window's penalty terms in emission order, over its index table.

    `layers[robot][t]` maps each cell admissible to the robot at step t to
    its variable (`qubo.var_index`), in sorted cell order. The table is
    built once, and it checks each cell once: a cell outside the grid, or an
    obstacle at any step, raises `ValueError`. Each `apply_*` appends its
    (a, b) keys, a <= b, and their weights to `keys` and `weights`; `model`
    merges them.
    """

    __slots__ = ("num_vars", "layers", "keys", "weights", "constant")

    def __init__(self, spec: WindowSpec, admissible: Admissible):
        grid, horizon = spec.grid, spec.horizon
        rows, cols, obstacles = grid.rows, grid.cols, grid.obstacles
        per_cell = rows * cols
        self.num_vars = len(spec.robots) * block_size(spec.dims)
        self.layers: list[list[dict[Cell, int]]] = []
        for robot in range(len(spec.robots)):
            layers = []
            for t in range(horizon + 1):
                base = (robot * (horizon + 1) + t) * per_cell
                layer = {}
                for c in sorted(admissible[robot][t]):
                    i, j = c
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise ValueError(f"cell {c} outside {rows}x{cols} grid")
                    layer[c] = base + i * cols + j
                if obstacles and not obstacles.isdisjoint(layer):
                    raise ValueError(f"cell {min(obstacles.intersection(layer))} is an obstacle")
                layers.append(layer)
            self.layers.append(layers)
        self.keys: list[tuple[int, int]] = []
        self.weights: list[float] = []
        self.constant = 0.0

    def add(self, a: int, b: int, w: float) -> None:
        self.keys.append((a, b))
        self.weights.append(w)

    def model(self) -> QuboModel:
        """The terms merged into a `QuboModel` in emission order."""
        return QuboModel.from_terms(self.num_vars, self.constant, self.keys, self.weights)


def apply_one_hot(terms: WindowTerms, spec: WindowSpec, robot: int, *,
                  pairs: bool = True) -> None:
    """Exactly-one-cell-per-step: K * (1 - sum x)^2 for every time step.

    Without `pairs`, only the constant and the diagonal -K are emitted: the
    pair terms 2K x_a x_b never fire on a state with one cell per step.
    """
    k = spec.weights.k_hot
    keys, weights = terms.keys, terms.weights
    for layer in terms.layers[robot]:
        terms.constant += k
        entries = list(layer.values())
        if not pairs:
            keys.extend(zip(entries, entries))
            weights.extend(repeat(-k, len(entries)))
            continue
        for i, a in enumerate(entries, 1):
            keys.append((a, a))
            weights.append(-k)
            if i < len(entries):
                keys.extend(zip(repeat(a), entries[i:]))
                weights.extend(repeat(2.0 * k, len(entries) - i))


def apply_adjacency(terms: WindowTerms, spec: WindowSpec, robot: int) -> None:
    """Continuity: K * x_t * (1 - sum of neighbor x at t+1).

    Obstacles never appear among the admissible cells, so avoiding them is
    structural rather than penalized. A cell's moves are scanned up, left,
    (wait,) right, down: sorted order.
    """
    k = spec.weights.k_adj
    wait = spec.allow_wait
    keys, weights = terms.keys, terms.weights
    layers = terms.layers[robot]
    for t in range(spec.horizon):
        nxt = layers[t + 1].get
        for (i, j), a in layers[t].items():
            keys.append((a, a))
            weights.append(k)
            moves = ((i - 1, j), (i, j - 1), (i, j), (i, j + 1), (i + 1, j)) if wait else \
                ((i - 1, j), (i, j - 1), (i, j + 1), (i + 1, j))
            for n in moves:
                b = nxt(n)
                if b is not None:
                    keys.append((a, b))
                    weights.append(-k)


def apply_start(terms: WindowTerms, spec: WindowSpec, robot: int) -> None:
    """Reward occupying the start cell at local step 0."""
    a = terms.layers[robot][0].get(spec.robots[robot].start)
    if a is not None:
        terms.add(a, a, -START_REWARD)


def apply_goal_late_time(terms: WindowTerms, spec: WindowSpec, robot: int) -> None:
    """Goal reward growing along the window; never applied at step 0."""
    goal = spec.robots[robot].goal
    k = spec.weights.k_goal
    for t, layer in enumerate(terms.layers[robot][1:], 1):
        a = layer.get(goal)
        if a is not None:
            terms.add(a, a, -k * goal_factor(t, spec.horizon))


def apply_goal_lock(terms: WindowTerms, spec: WindowSpec, robot: int) -> None:
    """Penalize leaving the goal: K * x_{g,t} * (1 - x_{g,t+1})."""
    goal = spec.robots[robot].goal
    k = spec.weights.k_lock
    layers = terms.layers[robot]
    for t in range(spec.horizon):
        if goal not in layers[t]:
            continue
        a = layers[t][goal]
        terms.add(a, a, k)
        if goal in layers[t + 1]:
            terms.add(a, layers[t + 1][goal], -k)


def apply_backtracking(terms: WindowTerms, spec: WindowSpec, robot: int) -> None:
    """Discourage occupying any non-goal cell at two different steps.

    Cells inherited from earlier windows additionally get a softened linear
    penalty, so new windows prefer fresh ground without being forbidden from
    re-crossing old cells.
    """
    rec = spec.robots[robot]
    k = spec.weights.k_bt
    keys, weights = terms.keys, terms.weights
    occurrences: dict[Cell, list[int]] = {}  # cell -> its variables, step by step
    for layer in terms.layers[robot]:
        for c, a in layer.items():
            if c in occurrences:
                occurrences[c].append(a)
            else:
                occurrences[c] = [a]
    goal, visited = rec.goal, rec.visited
    for c in sorted(occurrences):
        entries = occurrences[c]
        if len(entries) > 1 and c != goal:
            for i, a in enumerate(entries, 1):
                keys.extend(zip(repeat(a), entries[i:]))
                weights.extend(repeat(k, len(entries) - i))
        if c in visited:
            keys.extend(zip(entries, entries))
            weights.extend(repeat(k * BT_SOFT_FACTOR, len(entries)))


def apply_teleportation(terms: WindowTerms, spec: WindowSpec, robot: int) -> None:
    """Penalize claiming the goal before its L1 distance from the start."""
    rec = spec.robots[robot]
    for layer in terms.layers[robot][:manhattan(rec.start, rec.goal)]:
        a = layer.get(rec.goal)
        if a is not None:
            terms.add(a, a, EARLY_GOAL_PENALTY)


def apply_approximation(terms: WindowTerms, spec: WindowSpec, robot: int) -> None:
    """Window-final reward for ending close to the goal.

    Used instead of the late-time goal reward when `build_window_model`
    finds the goal out of reach. Each candidate final cell earns
    -K * (1 - d(c)/d_max), where d is the robot's `goal_distances` (without
    them, BFS distance to the goal on the window's map with the goal cell
    open) and d_max the largest d. A cell the search does not reach earns
    nothing.
    """
    rec = spec.robots[robot]
    distances = rec.goal_distances
    if distances is None:
        grid = spec.grid
        distances = bfs_distances(
            GridMap(grid.rows, grid.cols, grid.obstacles - {rec.goal}), rec.goal)
    k = spec.weights.k_approx
    d_max = max(distances.values())
    for c, a in terms.layers[robot][spec.horizon].items():
        d = distances.get(c)
        if d is not None and d < d_max:
            terms.add(a, a, -k * (1.0 - d / d_max))


def apply_vertex_collision(terms: WindowTerms, spec: WindowSpec) -> None:
    """Couple every (cell, step) admissible to two robots at once."""
    k = spec.weights.k_coll
    for r1, layers1 in enumerate(terms.layers):
        for layers2 in terms.layers[r1 + 1:]:
            for first, second in zip(layers1, layers2):
                for c, a in first.items():
                    b = second.get(c)
                    if b is not None:
                        terms.add(a, b, k)


def build_window_model(spec: WindowSpec, admissible: Admissible | None = None, *,
                       one_hot_pairs: bool = True) -> QuboModel:
    """Emit every penalty for every robot into one QUBO.

    A robot whose goal is admissible at some step and strictly closer than
    the horizon seeks it with the late-time reward, any other with the
    window-final approximation reward. Without an explicit admissible
    structure the model spans the full dense variable space, where a free
    goal counts as reachable; this keeps the builder self-contained for
    ground-truth checks by enumeration.

    With `one_hot_pairs` false the one-hot pair terms are left out. No
    other term shares their keys, so every other coefficient keeps its
    value and its place in the order.
    """
    if admissible is None:
        admissible = dense_admissible(spec)
    terms = WindowTerms(spec, admissible)
    for robot in range(len(spec.robots)):
        apply_one_hot(terms, spec, robot, pairs=one_hot_pairs)
        apply_adjacency(terms, spec, robot)
        _apply_objective(terms, spec, robot)
    apply_vertex_collision(terms, spec)
    return terms.model()


def _apply_objective(terms: WindowTerms, spec: WindowSpec, robot: int) -> None:
    """One robot's objective: every term but one-hot, adjacency and
    collision, with the goal reward chosen as `build_window_model` states."""
    rec = spec.robots[robot]
    apply_start(terms, spec, robot)
    if (manhattan(rec.start, rec.goal) < spec.horizon
            and any(rec.goal in layer for layer in terms.layers[robot])):
        apply_goal_late_time(terms, spec, robot)
    else:
        apply_approximation(terms, spec, robot)
    apply_goal_lock(terms, spec, robot)
    apply_backtracking(terms, spec, robot)
    apply_teleportation(terms, spec, robot)


def derived_weights(spec: WindowSpec, admissible: Admissible) -> PenaltyWeights:
    """Weights at which the window's minimum breaks no move and shares no
    cell whenever some state of `admissible` does neither.

    A one-hot state sets one variable of every (robot, step) group with an
    admissible cell. The objective O is the sum of the start reward, the
    late-time goal reward or the approximation reward, the goal lock, the
    revisit terms and the early-goal penalty, merged as in the model. On a
    one-hot state a group's linear terms take the diagonal of its one set
    variable (0 without one), and a pair of groups holds at most one set
    coupling (0 without one). So the spread of O over one-hot states is at
    most S: the sum over groups of their largest minus their smallest such
    diagonal, plus the sum over pairs of groups of max(0, their largest
    coupling) - min(0, their smallest). The spec's weights are floors.

    1. `k_adj` and `k_coll` become at least 1 + S. On a one-hot state an
       adjacency term is 0 when the cell at step t + 1 is a move (or, with
       waits, a wait) from the cell at t, and `k_adj` when it is not or when
       step t + 1 admits no cell, the last the same for every state; a
       collision term is `k_coll` or 0. So, up to terms the same for every
       one-hot state, a state s that breaks a move or shares a cell has
       E(s) >= O(s) + 1 + S > max O >= O(v) = E(v) for every state v that
       does neither, and no such s is a minimum while a v exists.
    2. `k_hot` becomes at least 1 + R. For a variable, R bounds the sum of
       |coefficient| over the terms other than one-hot that hold it:
       adjacency's diagonal and its couplings to at most `moves` cells at
       t + 1 and from at most `moves` at t - 1 (5 with waits, 4 without),
       `k_coll` to each other robot, and O's terms. A state that sets m != 1
       variables of some group gets strictly lower by setting one (m = 0)
       or clearing one (m >= 2): the one-hot term drops by k_hot * (2m - 3)
       >= k_hot at m >= 2 and by k_hot at m = 0, and the rest changes by at
       most R < k_hot. So every minimum over all bit vectors is one-hot.
       Folding only moves a fixed variable's couplings onto its partners'
       diagonals, so R still bounds them, and every diagonal is at most
       R - k_hot < 0, so the numeric pass clears no variable.
    """
    terms = WindowTerms(spec, admissible)
    for robot in range(len(spec.robots)):
        _apply_objective(terms, spec, robot)
    objective = terms.model().coeffs
    per_cell = spec.grid.rows * spec.grid.cols
    spread = 0.0
    reach: dict[int, float] = {}
    couplings: dict[tuple[int, int], tuple[float, float]] = {}
    for (a, b), w in objective.items():
        reach[a] = reach.get(a, 0.0) + abs(w)
        if a != b:
            reach[b] = reach.get(b, 0.0) + abs(w)
            groups = (a // per_cell, b // per_cell)
            low, high = couplings.get(groups, (0.0, 0.0))
            couplings[groups] = (min(low, w), max(high, w))
    for low, high in couplings.values():
        spread += high - low
    for layers in terms.layers:
        for layer in layers:
            if layer:
                diagonals = [objective.get((a, a), 0.0) for a in layer.values()]
                spread += max(diagonals) - min(diagonals)
    floor = spec.weights
    k_adj, k_coll = max(floor.k_adj, 1.0 + spread), max(floor.k_coll, 1.0 + spread)
    moves = 5 if spec.allow_wait else 4
    bound = (k_adj * (1 + 2 * moves) + k_coll * (len(spec.robots) - 1)
             + max(reach.values(), default=0.0))
    return replace(floor, k_hot=max(floor.k_hot, 1.0 + bound), k_adj=k_adj, k_coll=k_coll)
