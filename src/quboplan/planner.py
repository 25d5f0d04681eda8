"""Sequential window planning: presolve, solve, repair, validate, stitch.

A plan is assembled window by window. Each window fixes what reachability
(searched in `preprocess.fix_logical`) decides for the robots active on the
global clock; when variables remain free, it builds their QUBO, folds the
fixed values in and solves it, and the best sample is decoded. A decided
window's layers are its occupancy. The occupancy is repaired, and the
accepted sub-path, or in a multi-robot plan its first steps, is stitched
onto the plan so global times advance by exactly one per step. A window is
first tried on layers bounded from the goal end at the given weights, then
once more on the first-reach layers, at penalty weights derived from the
window when it holds two or more robots; `plan_paths` states the rule.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .grid import Cell, GridMap, _require_cell, _require_ints, bfs_distances
from .penalties import (
    Admissible,
    PenaltyWeights,
    RobotWindow,
    WindowSpec,
    build_window_model,
    derived_weights,
    with_one_hot_pairs,
)
from .postprocess import (
    detect_invalid_move,
    find_vertex_conflicts,
    fix_one_hot_continuity,
    resolve_clash_wait,
)
from .preprocess import (
    FixReport,
    FoldedModel,
    fix_logical,
    fix_numeric_diagonal,
    fold,
    forced_ones,
    reduction_pct,
)
from .qubo import decode
from .solvers import SolverConfig, solve

STATUS_REACHED = "reached_goal"
STATUS_EXHAUSTED = "max_windows_exhausted"
STATUS_INFEASIBLE = "infeasible"


class StitchError(RuntimeError):
    """A window path does not begin where the plan so far ends."""


@dataclass(frozen=True)
class WindowConfig:
    """Window length and window budget of the sequential decomposition."""

    window_len: int = 6
    max_windows: int = 20

    def __post_init__(self):
        _require_ints(self, "window_len", "max_windows")
        if self.window_len < 2:
            raise ValueError("window_len must be >= 2")
        if self.max_windows < 1:
            raise ValueError("max_windows must be >= 1")


@dataclass(frozen=True)
class RobotSpec:
    """A robot's planning request: `int` identity, endpoints, `int` release."""

    id: int
    start: Cell
    goal: Cell
    release: int = 0

    def __post_init__(self):
        _require_cell(self.start, "start")
        _require_cell(self.goal, "goal")
        _require_ints(self, "id", "release")
        if self.release < 0:
            raise ValueError("release time must be >= 0")


def stitch(steps, window_path):
    """Append a window path to `steps` in place, dropping the duplicated
    boundary cell, and return `steps`.

    The window must begin on the plan's last cell, and global times continue
    by exactly one. A window that does not fit, or an empty side, raises
    `StitchError` and leaves `steps` unchanged.
    """
    window_path = window_path if isinstance(window_path, list) else list(window_path)
    if not steps or not window_path:
        raise StitchError(f"{'plan' if not steps else 'window path'} is empty")
    base, last = steps[-1]
    if window_path[0] != last:
        raise StitchError(
            f"window starts at {window_path[0]} but plan ends at {last}"
        )
    steps.extend(zip(range(base + 1, base + len(window_path)), window_path[1:]))
    return steps


@dataclass
class WindowRecord:
    """Joint per-window diagnostics shared by every robot active in it.

    A try at the window fills in what it found. `backend` says who answered
    it: "presolve" when logical fixing decided it, "exact" when `solve`
    returned elimination's state (no read ran), "annealer" when its reads
    did. The window loop then sets `index`, `global_start` and `retries`,
    the number of tries that failed before the last one, at most 1 (see
    `plan_paths`). `escalated` is always false: no try widens the window.
    It stays, with its JSON key, because the benchmark harness reads it.
    """

    horizon: int
    original: int = 0
    reduced: int = 0
    numeric_fixed: int = 0
    backend: str = "presolve"
    best_energy: float | None = None
    repairs: list[str] = field(default_factory=list)
    histogram: list[tuple[float, int]] = field(default_factory=list)
    index: int = 0
    global_start: int = 0
    escalated: bool = False
    retries: int = 0

    @property
    def reduction_pct(self) -> float:
        return reduction_pct(self.original, self.reduced)

    @property
    def solved_by_preprocess(self) -> bool:
        return self.reduced == 0

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "global_start": self.global_start,
            "horizon": self.horizon,
            "original": self.original,
            "reduced": self.reduced,
            "reduction_pct": round(self.reduction_pct, 4),
            "solved_by_preprocess": self.solved_by_preprocess,
            "numeric_fixed": self.numeric_fixed,
            "retries": self.retries,
            "escalated": self.escalated,
            "backend": self.backend,
            "best_energy": self.best_energy,
            "histogram": [[e, n] for e, n in self.histogram],
            "repairs": list(self.repairs),
        }


@dataclass
class Plan:
    """One robot's timestamped route plus everything learned producing it."""

    robot: int
    steps: list[tuple[int, Cell]]
    status: str
    window_log: list[WindowRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def moves(self) -> int:
        return max(0, len(self.steps) - 1)

    @property
    def cells(self) -> list[Cell]:
        return [c for _, c in self.steps]

    def to_json(self) -> dict:
        return {
            "robot": self.robot,
            "status": self.status,
            "moves": self.moves,
            "path": [[t, c[0], c[1]] for t, c in self.steps],
            "windows": [w.index for w in self.window_log],
            "notes": list(self.notes),
        }


@dataclass
class PlanningResult:
    """Plans for every robot plus run-level window and clash diagnostics.

    Clash events and unresolved conflicts, each a (t, cell, robot, robot)
    tuple with the waiting robot last, name robots by their ids.
    """

    plans: list[Plan]
    windows: list[WindowRecord]
    clash_events: list[str] = field(default_factory=list)
    unresolved_conflicts: list = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return (
            all(p.status == STATUS_REACHED for p in self.plans)
            and not self.unresolved_conflicts
        )

    def preprocess_totals(self) -> dict:
        original = sum(w.original for w in self.windows)
        reduced = sum(w.reduced for w in self.windows)
        return {
            "original": original,
            "reduced": reduced,
            "reduction_pct": round(reduction_pct(original, reduced), 4),
            "solved_by_preprocess": bool(self.windows)
            and all(w.solved_by_preprocess for w in self.windows),
        }

    def to_json(self) -> dict:
        return {
            "status": "ok" if self.succeeded else "failed",
            "robots": [p.to_json() for p in self.plans],
            "preprocess": self.preprocess_totals(),
            "windows": [w.as_dict() for w in self.windows],
            "clash_events": list(self.clash_events),
            "unresolved_conflicts": [
                [t, [c[0], c[1]], r1, r2] for t, c, r1, r2 in self.unresolved_conflicts
            ],
        }


class _Agent:
    """A robot's planning state; `status` stays None while it is still to plan."""

    __slots__ = ("spec", "current", "visited", "goal_distances", "steps", "status", "log",
                 "notes")

    def __init__(self, spec: RobotSpec):
        self.spec = spec
        self.current = spec.start
        self.visited = {spec.start}
        self.goal_distances: dict[Cell, int] | None = None
        self.steps: list[tuple[int, Cell]] = []
        self.status: str | None = None
        self.log: list[WindowRecord] = []
        self.notes: list[str] = []


@dataclass
class Window:
    """One window as `build_window` makes it: the spec, the presolve counts
    and the cells logical fixing left admissible.

    Its one model is built when first read, as `one_hot`, which the planner
    solves, or as `folded`, the complete QUBO. A window that logical fixing
    decided needs neither: each of its layers holds one cell, or none where
    the search ended early. The spec holds the robots' visited sets, not
    copies, and `plan_paths` grows them once the window's try is over, so a
    model must be read during the try: read later, it is another window's.
    """

    spec: WindowSpec
    report: FixReport
    admissible: Admissible

    @cached_property
    def one_hot(self) -> FoldedModel:
        """The window's model over the admissible cells, folded onto the free
        variables with the singleton layers' variables fixed on, and cleared
        of hopeless diagonals, which the numeric pass counts into `report`."""
        model = build_window_model(self.spec, self.admissible)
        ones = forced_ones(self.spec.dims, self.admissible)
        return fix_numeric_diagonal(fold(model, ones), self.report)

    @cached_property
    def folded(self) -> FoldedModel:
        """The complete QUBO: `one_hot` plus its one-hot pair terms."""
        complete = with_one_hot_pairs(self.one_hot.model, self.groups, self.spec.weights.k_hot)
        return replace(self.one_hot, model=complete)

    @property
    def groups(self) -> np.ndarray:
        """The (robot, step) group of each free variable, robot * (horizon
        + 1) + t: a robot occupies exactly one cell per step, so a feasible
        assignment sets exactly one variable of each group."""
        free = np.array(self.one_hot.free_vars, dtype=np.intp)
        return free // (self.spec.grid.rows * self.spec.grid.cols)


def build_window(grid: GridMap, robots, horizon: int, weights: PenaltyWeights,
                 allow_wait: bool = False, bounded: bool = True) -> Window:
    """One window's spec and presolve report, with its model built on demand.

    `robots` holds one (current cell, goal, visited cells[, goal distances])
    tuple of `RobotWindow` fields per robot, held, not copied.
    `preprocess.fix_logical` runs each robot's reachability search and
    decides the admissible cells: the first-reach layers, bounded from the
    goal end unless `bounded` is false.
    """
    records = tuple(RobotWindow(*robot) for robot in robots)
    spec = WindowSpec(grid, records, horizon, weights, allow_wait)
    report, admissible = fix_logical(spec, bounded)
    return Window(spec, report, admissible)


def _attempt_window(window: Window, agents, solver_cfg, seed_parts
                    ) -> tuple[WindowRecord, list[list[Cell]] | None]:
    """Presolve, solve, and repair one built window.

    Logical fixing settles the window when it leaves no variable free; its
    layers are then the occupancy. Otherwise the window's one-hot model is
    folded and solved; `solve` derives the sampler's seed from the run's
    seed and `seed_parts` only if it anneals. The record takes its counts
    from the window's report once it is final. The repair decides each
    robot's path: it is valid when it reaches the goal, runs to the horizon
    or, in a multi-robot window, stops at an empty step and then waits.
    Returns the try's record with every robot's path when every path is
    valid and no two robots clash, or with None when it fails; the record's
    last repair entry then gives the reason and the step.
    """
    spec, report = window.spec, window.report
    horizon, multi = spec.horizon, spec.allow_wait
    if report.reduced_count == 0:
        # Every layer holds one cell or none: the layers are the occupancy.
        occupancy = window.admissible
        record = WindowRecord(horizon, report.original_count, 0, report.numeric_fixed)
    else:
        folded = window.one_hot
        sampleset = solve(folded.model, solver_cfg, groups=window.groups,
                          seed_parts=seed_parts)
        best = sampleset.best
        occupancy = decode(folded.expand(best.bits), spec.dims, len(agents))
        record = WindowRecord(
            horizon, report.original_count, report.reduced_count, report.numeric_fixed,
            "annealer" if best.occurrences else "exact", best.energy,
            histogram=[(s.energy, s.occurrences) for s in sampleset.samples[:8]])

    paths = []
    for r, agent in enumerate(agents):
        repair = fix_one_hot_continuity(occupancy[r], agent.spec.goal, allow_wait=multi)
        path = repair.path
        if multi and repair.reason == "empty_step":
            # Trapped short of the horizon (another robot blocks the way, or
            # the robot has no free move at all): hold position for the
            # remaining steps and try again next window.
            path = path + [path[-1]] * (horizon + 1 - len(path))
            record.repairs.append(f"robot {agent.spec.id}: waits from t={len(repair.path)}")
        elif repair.reason is not None:
            record.repairs.append(f"robot {agent.spec.id}: {repair.reason} at t={len(path)}")
            return record, None
        paths.append(path)
    # The collision terms make a clash costly, not impossible, so a sample
    # can still put two robots on one cell; a robot that reached its goal
    # holds it for the rest of the window. One path cannot clash.
    clashes = len(paths) > 1 and find_vertex_conflicts([list(enumerate(p)) for p in paths])
    if clashes:
        t, _, i, j = clashes[0]
        record.repairs.append(
            f"robots {agents[i].spec.id} and {agents[j].spec.id}: vertex conflict at t={t}")
        return record, None
    return record, paths


def validate_robots(grid: GridMap, robots) -> None:
    """Reject robot sets that can never produce conflict-free plans."""
    robots = list(robots)
    ids = [r.id for r in robots]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate robot ids")
    for r in robots:
        if not grid.is_free(r.start):
            raise ValueError(f"robot {r.id}: start {r.start} is not a free cell")
        if not grid.is_free(r.goal):
            raise ValueError(f"robot {r.id}: goal {r.goal} is not a free cell")
    goals = [r.goal for r in robots]
    if len(set(goals)) != len(goals):
        raise ValueError("two robots share a goal cell; both could never park")
    seen: dict[tuple, int] = {}
    for r in robots:
        key = (r.start, r.release)
        if key in seen:
            raise ValueError(
                f"robots {seen[key]} and {r.id} share start {r.start} at release {r.release}"
            )
        seen[key] = r.id


def plan_paths(grid: GridMap, robots, weights: PenaltyWeights | None = None,
               window_cfg: WindowConfig | None = None,
               solver_cfg: SolverConfig | None = None) -> PlanningResult:
    """Plan every robot on a shared global clock.

    Windows advance in lockstep; all robots active in a window share one
    QUBO with vertex-collision coupling. Robots that reach their goals park
    there and become static obstacles for later windows, a robot whose start
    is its goal from its release on; robots released
    mid-window join at the next window boundary, waiting on their start
    cell, and every window that reaches a robot's release, or in which its
    start is an active robot's goal, keeps the others off its start. A
    robot whose goal the map or the parked robots wall off ends as
    infeasible at once: a BFS from each goal, before the first window and
    again whenever the parked set changes (parked robots left out, starts of
    robots not yet released open), must reach the robot's cell. Its note
    names the parked robots only when a second search, on the bare map,
    reaches the cell. Each window's goal bound and approximation reward read
    the first search's distances, the window's only goal table.

    The try rule: a window gets at most two tries of `window_len` steps,
    in a fixed order, both with seed parts (window index, 0, 0), and each
    try builds its window once.
    1. Admissible sets bounded from the goal end (`preprocess.fix_logical`),
       at `weights`.
    2. The first-reach layers. It is skipped only when it would repeat the
       first try: the bound dropped no cell and logical fixing decided that
       try.

    A window whose last try fails is abandoned, ending the run. In a
    window of two or more robots, a try on first-reach layers that leaves
    variables free is solved at the weights `penalties.derived_weights`
    gives for its window, with `weights` as floors: its minimum then breaks
    no move and shares no cell whenever some state of its admissible sets
    does neither. Waits are moves there, so a state the repair accepts, with
    its robots parked on the goals they reach, pays no adjacency or
    collision term, and a failed try on first-reach layers means the
    admissible sets hold no such state, or that the minimum steps a robot
    off a goal it has reached, which the repair reads as parking there. A
    single robot's two tries run at `weights`: it cannot wait, so it parks
    on a dead-end goal by breaking moves after its first arrival, which the
    repair accepts and derived weights make the costliest choice.

    The robot sets (pending, parked and active robots, their goals, the
    starts kept clear) and the goal checks are recomputed only at the first
    window, after the walled-off pass, after a window that changed a status
    and while a robot that is not infeasible awaits its release. Otherwise
    they are reused, exactly: pending and active robots change only with a
    status, a robot that reached its goal has its last step at or before
    the clock from then on, one whose start is its goal parks at its
    release, and only robots released after the clock keep starts clear.

    In a plan of two or more robots only the first max(1, window_len - 2)
    steps of an accepted window are committed (stitched, added to `visited`
    and passed by the clock), so every committed step was planned with
    look-ahead; a single robot commits the whole window. Every finished
    plan, clash-repair waits included, is validated once more on the input
    map by `detect_invalid_move`. Raises `ValueError` for a robot set that
    `validate_robots` rejects.
    """
    robots = list(robots)
    validate_robots(grid, robots)
    weights = weights or PenaltyWeights()
    wcfg = window_cfg or WindowConfig()
    horizon = wcfg.window_len
    scfg = solver_cfg or SolverConfig()
    multi = len(robots) > 1
    agents = [_Agent(r) for r in robots]

    for agent in agents:
        if agent.spec.start == agent.spec.goal:
            agent.steps = [(agent.spec.release, agent.spec.start)]
            agent.status = STATUS_REACHED

    windows: list[WindowRecord] = []
    clock = 0
    walls: set[Cell] | None = None  # the parked cells the goals were last checked on
    commit = max(1, horizon - 2) if multi else horizon
    stale = True  # the sets below are out of date: a status changed or a release is ahead

    while len(windows) < wcfg.max_windows:
        if stale:
            pending = [a for a in agents if a.status is None]
            if not pending:
                break
            # A robot whose start is its goal parks there only once released.
            parkers = [a for a in agents
                       if a.status == STATUS_REACHED and a.steps[-1][0] <= clock]
            parked = {a.steps[-1][1] for a in parkers}
            if parked != walls:
                # Parked robots never move again, so a goal they wall off
                # stays out of reach. The starts of robots yet to be released
                # are only blocked for a while and stay open here.
                walls = parked
                for agent in pending:
                    agent.goal_distances = bfs_distances(
                        grid, agent.spec.goal, parked - {agent.current})
                    if agent.current not in agent.goal_distances:
                        goal, cell = agent.spec.goal, agent.current
                        if parked - {cell} and cell in bfs_distances(grid, goal):
                            blockers = ", ".join(str(a.spec.id) for a in parkers)
                            agent.notes.append(
                                f"goal {goal} walled off by parked robot(s) {blockers}")
                        else:
                            agent.notes.append(f"goal {goal} unreachable from {cell} on the map")
                        agent.status = STATUS_INFEASIBLE
                continue
            active = [a for a in pending if a.spec.release <= clock]
            if not active:
                clock = min(a.spec.release for a in pending)
                continue
            for agent in active:
                if not agent.steps:
                    agent.steps = [(t, agent.spec.start)
                                   for t in range(agent.spec.release, clock + 1)]
            goals = {a.spec.goal for a in active}
            # A robot released within this window, or later onto an active
            # robot's goal, keeps the others off its start for the whole
            # window. While one is ahead, the sets are recomputed every window.
            late = [a for a in agents
                    if a.status != STATUS_INFEASIBLE and clock < a.spec.release]
            releasing = {a.spec.start for a in late
                         if a.spec.release <= clock + horizon or a.spec.start in goals}
            blocked = parked | releasing
            stale = bool(late)

        occupied = {a.current for a in active}
        eff_grid = grid.with_obstacles(blocked - occupied) if blocked else grid
        states = [(a.current, a.spec.goal, a.visited, a.goal_distances) for a in active]
        seed_parts = (len(windows), 0, 0)
        window = build_window(eff_grid, states, horizon, weights, multi)
        record, paths = _attempt_window(window, active, scfg, seed_parts)
        # The retry on the first-reach layers, unless it would repeat a first
        # try that logical fixing decided with no cell dropped by the bound.
        if paths is None and (window.report.bound_dropped or record.backend != "presolve"):
            window = build_window(eff_grid, states, horizon, weights, multi, bounded=False)
            if multi and window.report.reduced_count:
                # Before the model is first built: the copy takes over the
                # report, which only folding writes to.
                derived = derived_weights(window.spec, window.admissible)
                window = replace(window, spec=replace(window.spec, weights=derived))
            record, paths = _attempt_window(window, active, scfg, seed_parts)
            record.retries = 1

        record.index, record.global_start = len(windows), clock
        windows.append(record)
        for agent in active:
            agent.log.append(record)

        if paths is None:
            record.repairs[-1] = f"window abandoned: {record.repairs[-1]}"
            break

        for agent, path in zip(active, paths):
            del path[commit + 1:]
            agent.steps = stitch(agent.steps, path)
            agent.visited.update(path)
            agent.current = path[-1]
            if agent.current == agent.spec.goal:
                agent.status = STATUS_REACHED
                stale = True
        clock += commit

    plans = [
        Plan(a.spec.id, a.steps, a.status or STATUS_EXHAUSTED, a.log, a.notes)
        for a in agents
    ]

    clash_events: list[str] = []
    unresolved: list = []
    reached = [p for p in plans if p.status == STATUS_REACHED]
    lists = [p.steps for p in reached]
    if find_vertex_conflicts(lists):
        lists, waits, conflicts = resolve_clash_wait(lists, grid)
        for p, new_steps in zip(reached, lists):
            p.steps = new_steps
        clash_events = [
            f"robot {reached[r].robot} waits at {hold} before t={t} to avoid {cell}"
            for r, hold, t, cell in waits]
        for t, cell, i, j in conflicts:
            unresolved.append((t, cell, reached[i].robot, reached[j].robot))
            if reached[j].status == STATUS_REACHED:
                reached[j].status = STATUS_EXHAUSTED
                reached[j].notes.append(f"unresolved vertex conflict at t={t}")

    for plan in plans:
        if plan.status != STATUS_REACHED:
            continue
        bad = detect_invalid_move(plan.cells, grid, allow_wait=multi)
        if bad is not None:
            plan.status = STATUS_EXHAUSTED
            plan.notes.append(f"validation failed: {bad[1]} at step {bad[0]}")

    return PlanningResult(plans, windows, clash_events, unresolved)

