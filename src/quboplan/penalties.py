"""Penalty emission: turns a planning window into QUBO coefficients.

Every constraint of the path model is a weighted quadratic term added to a
shared model: one-hot occupancy per time step, continuity between steps,
start/goal conditions, goal locking, revisit discouragement, early-arrival
discouragement, the window-final approximation reward, and inter-robot
vertex-collision coupling. Each emitter mirrors one closed-form penalty, so
model energy always equals the sum of the formulas evaluated on the decoded
occupancy.
"""

from dataclasses import dataclass, field

from .grid import Cell, GridMap, manhattan, max_manhattan, min_moves, obstacle_potential
from .qubo import Dims, QuboModel, block_size, var_index

GOAL_MODE_LATE = "late_time"
GOAL_MODE_APPROX = "approximation"

# Free-variable count below which the stronger normalization scale pays off.
SMALL_MODEL_VARS = 80


@dataclass(frozen=True)
class PenaltyWeights:
    """Relative importance of each constraint, plus normalization policy.

    The defaults were tuned empirically on the benchmark scenarios; all
    weights must stay strictly positive. `norm_scale=None` selects the scale
    automatically: 2.0 for models under `SMALL_MODEL_VARS` free variables,
    1.0 otherwise.
    """

    k_hot: float = 4.0
    k_adj: float = 2.0
    k_start: float = 4.0
    k_goal: float = 2.0
    k_lock: float = 1.0
    k_bt: float = 1.5
    k_tel: float = 3.0
    k_approx: float = 1.0
    k_coll: float = 4.0
    goal_ramp_max: float = 2.0
    bt_soft_factor: float = 0.5
    potential_radius: int = 1
    norm_scale: float | None = None

    def __post_init__(self):
        for name in ("k_hot", "k_adj", "k_start", "k_goal", "k_lock",
                     "k_bt", "k_tel", "k_approx", "k_coll"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.goal_ramp_max < 1:
            raise ValueError("goal_ramp_max must be >= 1")
        if self.norm_scale is not None and self.norm_scale <= 0:
            raise ValueError("norm_scale must be positive")

    def pick_scale(self, free_vars: int) -> float:
        if self.norm_scale is not None:
            return self.norm_scale
        return 2.0 if free_vars < SMALL_MODEL_VARS else 1.0

    def goal_factor(self, t: int, horizon: int) -> float:
        """Time multiplier of the goal reward at step t of a window, rising
        linearly from 1 to `goal_ramp_max`."""
        return 1.0 + ((self.goal_ramp_max - 1.0) * t / horizon if horizon else 0.0)


@dataclass(frozen=True)
class RobotWindow:
    """One robot's slice of a planning window.

    `visited` carries cells from earlier windows that should be softly
    discouraged, and `excluded` carries cells structurally removed from this
    robot's reachability.
    """

    start: Cell
    goal: Cell
    horizon: int
    goal_mode: str = GOAL_MODE_LATE
    visited: frozenset[Cell] = frozenset()
    excluded: frozenset[Cell] = frozenset()

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("window horizon must be >= 1")
        if self.goal_mode not in (GOAL_MODE_LATE, GOAL_MODE_APPROX):
            raise ValueError(f"unknown goal mode {self.goal_mode!r}")
        object.__setattr__(self, "visited", frozenset(self.visited))
        object.__setattr__(self, "excluded", frozenset(self.excluded))


@dataclass(frozen=True)
class WindowSpec:
    """Everything needed to build one window's QUBO: map, robots, weights."""

    grid: GridMap
    robots: tuple[RobotWindow, ...]
    weights: PenaltyWeights = field(default_factory=PenaltyWeights)

    def __post_init__(self):
        if not self.robots:
            raise ValueError("window needs at least one robot")
        object.__setattr__(self, "robots", tuple(self.robots))
        for r in self.robots:
            if not self.grid.is_free(r.start):
                raise ValueError(f"robot start {r.start} is not a free cell")
            # A goal may be temporarily blocked (another robot is sitting on
            # it); the goal-seeking terms are then vacuous for this window.
            if not self.grid.in_bounds(r.goal):
                raise ValueError(f"robot goal {r.goal} outside the grid")

    @property
    def horizon(self) -> int:
        return max(r.horizon for r in self.robots)

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
    for t in range(spec.robots[robot].horizon + 1):
        entries = _vars_at(spec, robot, t, admissible)
        model.constant += k
        for i, (_, a) in enumerate(entries):
            model.add(a, a, -k)
            for _, b in entries[i + 1:]:
                model.add(a, b, 2.0 * k)
    return model


def apply_adjacency(model: QuboModel, spec: WindowSpec, robot: int,
                    admissible: Admissible, allow_wait: bool = False) -> QuboModel:
    """Continuity: K * x_t * (1 - sum of neighbor x at t+1).

    Obstacles never appear among the admissible cells, so avoiding them is
    structural rather than penalized.
    """
    k = spec.weights.k_adj
    for t in range(spec.robots[robot].horizon):
        nxt = admissible[robot][t + 1]
        for c, a in _vars_at(spec, robot, t, admissible):
            model.add(a, a, k)
            for n in sorted(spec.grid.neighbors(c, allow_wait=allow_wait) & nxt):
                model.add(a, var_index(spec.dims, robot, t + 1, n), -k)
    return model


def apply_start(model: QuboModel, spec: WindowSpec, robot: int,
                admissible: Admissible) -> QuboModel:
    """Reward occupying the start cell at local step 0."""
    rec = spec.robots[robot]
    if rec.start in admissible[robot][0]:
        a = var_index(spec.dims, robot, 0, rec.start)
        model.add(a, a, -spec.weights.k_start)
    return model


def apply_goal_late_time(model: QuboModel, spec: WindowSpec, robot: int,
                         admissible: Admissible) -> QuboModel:
    """Goal reward growing along the window; never applied at step 0."""
    rec = spec.robots[robot]
    k = spec.weights.k_goal
    for t in range(1, rec.horizon + 1):
        if rec.goal in admissible[robot][t]:
            a = var_index(spec.dims, robot, t, rec.goal)
            model.add(a, a, -k * spec.weights.goal_factor(t, rec.horizon))
    return model


def apply_goal_lock(model: QuboModel, spec: WindowSpec, robot: int,
                    admissible: Admissible) -> QuboModel:
    """Penalize leaving the goal: K * x_{g,t} * (1 - x_{g,t+1})."""
    rec = spec.robots[robot]
    k = spec.weights.k_lock
    for t in range(rec.horizon):
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
    for t in range(rec.horizon + 1):
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
            soft = k * spec.weights.bt_soft_factor
            for t in times:
                a = var_index(spec.dims, robot, t, c)
                model.add(a, a, soft)
    return model


def apply_teleportation(model: QuboModel, spec: WindowSpec, robot: int,
                        admissible: Admissible) -> QuboModel:
    """Penalize claiming the goal before the move lower bound allows."""
    rec = spec.robots[robot]
    k = spec.weights.k_tel
    bound = min(min_moves(spec.grid, rec.start, rec.goal), rec.horizon + 1)
    for t in range(bound):
        if rec.goal in admissible[robot][t]:
            a = var_index(spec.dims, robot, t, rec.goal)
            model.add(a, a, k)
    return model


def apply_approximation(model: QuboModel, spec: WindowSpec, robot: int,
                        admissible: Admissible) -> QuboModel:
    """Window-final reward for ending close to the goal and in open space.

    Used instead of the goal reward when the goal cannot be reached inside
    this window. Each candidate final cell earns
    -K * (1 - d(c, goal)/d_max) * (1 - potential(c)).
    """
    rec = spec.robots[robot]
    k = spec.weights.k_approx
    d_max = max_manhattan(spec.grid)
    radius = spec.weights.potential_radius
    t = rec.horizon
    for c in sorted(admissible[robot][t]):
        closeness = 1.0 - (manhattan(c, rec.goal) / d_max if d_max else 0.0)
        openness = 1.0 - obstacle_potential(spec.grid, c, radius)
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
            steps = min(spec.robots[r1].horizon, spec.robots[r2].horizon)
            for t in range(steps + 1):
                for c in sorted(admissible[r1][t] & admissible[r2][t]):
                    model.add(
                        var_index(spec.dims, r1, t, c),
                        var_index(spec.dims, r2, t, c),
                        k,
                    )
    return model


def build_window_model(spec: WindowSpec, admissible: Admissible | None = None,
                       allow_wait: bool = False) -> QuboModel:
    """Emit every penalty for every robot into one QUBO.

    Without an explicit admissible structure the model spans the full dense
    variable space, which keeps the builder self-contained for exhaustive
    ground-truth checks.
    """
    if admissible is None:
        admissible = dense_admissible(spec)
    model = QuboModel(len(spec.robots) * block_size(spec.dims))
    for robot, rec in enumerate(spec.robots):
        apply_one_hot(model, spec, robot, admissible)
        apply_adjacency(model, spec, robot, admissible, allow_wait=allow_wait)
        apply_start(model, spec, robot, admissible)
        if rec.goal_mode == GOAL_MODE_APPROX:
            apply_approximation(model, spec, robot, admissible)
        else:
            apply_goal_late_time(model, spec, robot, admissible)
        apply_goal_lock(model, spec, robot, admissible)
        apply_backtracking(model, spec, robot, admissible)
        apply_teleportation(model, spec, robot, admissible)
    if len(spec.robots) >= 2:
        apply_vertex_collision(model, spec, admissible)
    return model
