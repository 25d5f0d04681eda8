"""Penalty emission: turns a planning window into QUBO coefficients.

Every constraint of the path model is a weighted quadratic term added to a
shared model: one-hot occupancy per time step, continuity between steps,
start/goal conditions, goal locking, revisit discouragement, early-arrival
discouragement, the window-final approximation reward, and inter-robot
vertex-collision coupling. Each emitter mirrors one closed-form penalty, so
model energy always equals the sum of the formulas evaluated on the decoded
occupancy.
"""

import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field, fields

from .grid import Cell, GridMap, manhattan, max_manhattan, obstacle_potential
from .qubo import Dims, QuboModel, block_size, var_index

# The goal reward's time multiplier at a window's last step (it starts at 1).
GOAL_RAMP_MAX = 2.0
# Share of `k_bt` charged for each step on a cell visited in an earlier window.
BT_SOFT_FACTOR = 0.5
# The start reward and the early-goal penalty cannot change a plan, so they
# are constants. Layer 0 of `bfs_layers` is {start}, so the start variable is
# forced on and `fold` moves its reward into the constant, on either backend.
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
    scale is set here.
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

    `visited` carries cells from earlier windows that should be softly
    discouraged. It is held as given, not copied, and is only asked whether
    it holds a cell, so a caller must not change it while the window is in
    use.
    """

    start: Cell
    goal: Cell
    visited: AbstractSet[Cell] = frozenset()


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


def _vars_at(spec: WindowSpec, robot: int, t: int, admissible: Admissible):
    return [
        (c, var_index(spec.dims, robot, t, c))
        for c in sorted(admissible[robot][t])
    ]


def apply_one_hot(model: QuboModel, spec: WindowSpec, robot: int,
                  admissible: Admissible) -> QuboModel:
    """Exactly-one-cell-per-step: K * (1 - sum x)^2 for every time step."""
    k = spec.weights.k_hot
    for t in range(spec.horizon + 1):
        entries = _vars_at(spec, robot, t, admissible)
        model.constant += k
        for i, (_, a) in enumerate(entries):
            model.add(a, a, -k)
            for _, b in entries[i + 1:]:
                model.add(a, b, 2.0 * k)
    return model


def apply_adjacency(model: QuboModel, spec: WindowSpec, robot: int,
                    admissible: Admissible) -> QuboModel:
    """Continuity: K * x_t * (1 - sum of neighbor x at t+1).

    Obstacles never appear among the admissible cells, so avoiding them is
    structural rather than penalized.
    """
    k = spec.weights.k_adj
    for t in range(spec.horizon):
        nxt = admissible[robot][t + 1]
        for c, a in _vars_at(spec, robot, t, admissible):
            model.add(a, a, k)
            for n in sorted(spec.grid.neighbors(c, allow_wait=spec.allow_wait) & nxt):
                model.add(a, var_index(spec.dims, robot, t + 1, n), -k)
    return model


def apply_start(model: QuboModel, spec: WindowSpec, robot: int,
                admissible: Admissible) -> QuboModel:
    """Reward occupying the start cell at local step 0."""
    rec = spec.robots[robot]
    if rec.start in admissible[robot][0]:
        a = var_index(spec.dims, robot, 0, rec.start)
        model.add(a, a, -START_REWARD)
    return model


def apply_goal_late_time(model: QuboModel, spec: WindowSpec, robot: int,
                         admissible: Admissible) -> QuboModel:
    """Goal reward growing along the window; never applied at step 0."""
    rec = spec.robots[robot]
    k = spec.weights.k_goal
    for t in range(1, spec.horizon + 1):
        if rec.goal in admissible[robot][t]:
            a = var_index(spec.dims, robot, t, rec.goal)
            model.add(a, a, -k * goal_factor(t, spec.horizon))
    return model


def apply_goal_lock(model: QuboModel, spec: WindowSpec, robot: int,
                    admissible: Admissible) -> QuboModel:
    """Penalize leaving the goal: K * x_{g,t} * (1 - x_{g,t+1})."""
    rec = spec.robots[robot]
    k = spec.weights.k_lock
    for t in range(spec.horizon):
        if rec.goal not in admissible[robot][t]:
            continue
        a = var_index(spec.dims, robot, t, rec.goal)
        model.add(a, a, k)
        if rec.goal in admissible[robot][t + 1]:
            model.add(a, var_index(spec.dims, robot, t + 1, rec.goal), -k)
    return model


def apply_backtracking(model: QuboModel, spec: WindowSpec, robot: int,
                       admissible: Admissible) -> QuboModel:
    """Discourage occupying any non-goal cell at two different steps.

    Cells inherited from earlier windows additionally get a softened linear
    penalty, so new windows prefer fresh ground without being forbidden from
    re-crossing old cells.
    """
    rec = spec.robots[robot]
    k = spec.weights.k_bt
    occurrences: dict[Cell, list[int]] = {}
    for t in range(spec.horizon + 1):
        for c in admissible[robot][t]:
            occurrences.setdefault(c, []).append(t)
    for c in sorted(occurrences):
        times = sorted(occurrences[c])
        if c != rec.goal:
            for i, t1 in enumerate(times):
                a = var_index(spec.dims, robot, t1, c)
                for t2 in times[i + 1:]:
                    model.add(a, var_index(spec.dims, robot, t2, c), k)
        if c in rec.visited:
            soft = k * BT_SOFT_FACTOR
            for t in times:
                a = var_index(spec.dims, robot, t, c)
                model.add(a, a, soft)
    return model


def apply_teleportation(model: QuboModel, spec: WindowSpec, robot: int,
                        admissible: Admissible) -> QuboModel:
    """Penalize claiming the goal before its L1 distance from the start."""
    rec = spec.robots[robot]
    bound = min(manhattan(rec.start, rec.goal), spec.horizon + 1)
    for t in range(bound):
        if rec.goal in admissible[robot][t]:
            a = var_index(spec.dims, robot, t, rec.goal)
            model.add(a, a, EARLY_GOAL_PENALTY)
    return model


def apply_approximation(model: QuboModel, spec: WindowSpec, robot: int,
                        admissible: Admissible) -> QuboModel:
    """Window-final reward for ending close to the goal and in open space.

    Used instead of the late-time goal reward when `build_window_model`
    finds the goal out of reach. Each candidate final cell earns
    -K * (1 - d(c, goal)/d_max) * (1 - potential(c)).
    """
    rec = spec.robots[robot]
    k = spec.weights.k_approx
    d_max = max_manhattan(spec.grid)
    t = spec.horizon
    for c in sorted(admissible[robot][t]):
        closeness = 1.0 - (manhattan(c, rec.goal) / d_max if d_max else 0.0)
        openness = 1.0 - obstacle_potential(spec.grid, c)
        w = -k * closeness * openness
        if w != 0.0:
            a = var_index(spec.dims, robot, t, c)
            model.add(a, a, w)
    return model


def apply_vertex_collision(model: QuboModel, spec: WindowSpec,
                           admissible: Admissible) -> QuboModel:
    """Couple every (cell, step) admissible to two robots at once."""
    k = spec.weights.k_coll
    for r1 in range(len(spec.robots)):
        for r2 in range(r1 + 1, len(spec.robots)):
            for t in range(spec.horizon + 1):
                for c in sorted(admissible[r1][t] & admissible[r2][t]):
                    model.add(
                        var_index(spec.dims, r1, t, c),
                        var_index(spec.dims, r2, t, c),
                        k,
                    )
    return model


def build_window_model(spec: WindowSpec, admissible: Admissible | None = None) -> QuboModel:
    """Emit every penalty for every robot into one QUBO.

    A robot whose goal is admissible at some step and strictly closer than
    the horizon seeks it with the late-time reward, any other with the
    window-final approximation reward. Without an explicit admissible
    structure the model spans the full dense variable space, where a free
    goal counts as reachable; this keeps the builder self-contained for
    exhaustive ground-truth checks.
    """
    if admissible is None:
        admissible = dense_admissible(spec)
    model = QuboModel(len(spec.robots) * block_size(spec.dims))
    for robot, rec in enumerate(spec.robots):
        apply_one_hot(model, spec, robot, admissible)
        apply_adjacency(model, spec, robot, admissible)
        apply_start(model, spec, robot, admissible)
        if (manhattan(rec.start, rec.goal) < spec.horizon
                and any(rec.goal in cells for cells in admissible[robot])):
            apply_goal_late_time(model, spec, robot, admissible)
        else:
            apply_approximation(model, spec, robot, admissible)
        apply_goal_lock(model, spec, robot, admissible)
        apply_backtracking(model, spec, robot, admissible)
        apply_teleportation(model, spec, robot, admissible)
    apply_vertex_collision(model, spec, admissible)
    return model
