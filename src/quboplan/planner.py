"""Sequential window planning: presolve, solve, repair, validate, stitch.

A plan is assembled window by window. Each window fixes what reachability
(searched in `preprocess.fix_logical`) decides for the robots active on the
global clock; when variables remain free, it builds their QUBO, folds the
fixed values in and solves it, and the best sample is decoded. A decided
window's layers are its occupancy. The occupancy is repaired, and the
accepted sub-path is stitched onto the plan so global times advance by
exactly one per step. Failed windows are retried with fresh solver seeds;
the final retry widens the window once before giving up. A window whose
outcome no seed can change is widened at once instead, and given up when
the widened one fails too.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .grid import Cell, GridMap, bfs_distances
from .penalties import (
    Admissible,
    PenaltyWeights,
    RobotWindow,
    WindowSpec,
    build_window_model,
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
from .qubo import decode, var_group
from .solvers import SolverConfig, solve

STATUS_REACHED = "reached_goal"
STATUS_EXHAUSTED = "max_windows_exhausted"
STATUS_INFEASIBLE = "infeasible"
# Tries per window; the last one widens the window before giving up.
ATTEMPTS_PER_WINDOW = 5


class StitchError(RuntimeError):
    """A window path does not begin where the plan so far ends."""


@dataclass(frozen=True)
class WindowConfig:
    """Window length and window budget of the sequential decomposition."""

    window_len: int = 6
    max_windows: int = 20

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError("window_len must be >= 2")
        if self.max_windows < 1:
            raise ValueError("max_windows must be >= 1")


@dataclass(frozen=True)
class RobotSpec:
    """A robot's planning request: identity, endpoints, release time."""

    id: int
    start: Cell
    goal: Cell
    release: int = 0

    def __post_init__(self):
        if self.release < 0:
            raise ValueError("release time must be >= 0")


@dataclass
class PathDiagnosis:
    ok: bool
    kind: str | None = None
    step: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_path(grid: GridMap, path, goal: Cell | None = None,
                  allow_wait: bool = False) -> PathDiagnosis:
    """Soundness gate for a path given as one cell per step.

    Reports the earliest step onto a blocked cell or off the adjacency rule
    (see `detect_invalid_move`), then, when a goal is given, checks that the
    path ends on it.
    """
    cells = list(path)
    if not cells:
        return PathDiagnosis(False, "empty", 0)
    bad = detect_invalid_move(cells, grid, allow_wait=allow_wait)
    if bad is not None:
        return PathDiagnosis(False, bad[1], bad[0])
    if goal is not None and cells[-1] != goal:
        return PathDiagnosis(False, "goal_missed", len(cells) - 1)
    return PathDiagnosis(True)


def stitch(steps, window_path):
    """Append a window path to `steps` in place, dropping the duplicated
    boundary cell, and return `steps`.

    The window must begin on the plan's last cell, and global times continue
    by exactly one. A window that does not fit leaves `steps` unchanged.
    """
    window_path = list(window_path)
    if window_path[0] != steps[-1][1]:
        raise StitchError(
            f"window starts at {window_path[0]} but plan ends at {steps[-1][1]}"
        )
    base = steps[-1][0]
    steps.extend((base + k, c) for k, c in enumerate(window_path[1:], 1))
    return steps


@dataclass
class WindowRecord:
    """Joint per-window diagnostics shared by every robot active in it.

    A try at the window fills in what it found; `backend` stays "presolve"
    unless a sampler ran. The retry loop then sets `index`, `global_start`,
    `retries` and `escalated`.
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
    retries: int = 0
    escalated: bool = False

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
    """Plans for every robot plus run-level window and clash diagnostics."""

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

    __slots__ = ("spec", "current", "visited", "steps", "status", "log", "notes")

    def __init__(self, spec: RobotSpec):
        self.spec = spec
        self.current = spec.start
        self.visited = {spec.start}
        self.steps: list[tuple[int, Cell]] = []
        self.status: str | None = None
        self.log: list[WindowRecord] = []
        self.notes: list[str] = []


def derive_seed(base: int, *parts: int) -> int:
    """Seed for one part of a run (a window attempt, a bench repeat) drawn
    from the run's base seed; each part is taken modulo 2**32."""
    entropy = (base & 0xFFFFFFFFFFFFFFFF,) + tuple(p & 0xFFFFFFFF for p in parts)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass
class Window:
    """One window as `build_window` makes it: the spec, the presolve report
    and the cells logical fixing left admissible.

    The folded model is built when `folded` is first read. A window that
    logical fixing decided never needs it: each of its layers then holds
    one cell, or none where the search ended early.
    """

    spec: WindowSpec
    report: FixReport
    admissible: Admissible

    @cached_property
    def folded(self) -> FoldedModel:
        """The window's QUBO over the admissible cells, folded onto the free
        variables and cleared of hopeless diagonals. The variables forced on
        by singleton layers and the numeric pass's clearings are recorded in
        `report` in place."""
        self.report.fixed_one |= forced_ones(self.spec.dims, self.admissible)
        model = build_window_model(self.spec, self.admissible)
        return fix_numeric_diagonal(fold(model, self.report), self.report)


def build_window(grid: GridMap, robots, horizon: int, weights: PenaltyWeights,
                 allow_wait: bool = False) -> Window:
    """One window's spec and presolve report, with its model built on demand.

    `robots` holds one (current cell, goal, visited cells) triple per robot;
    the visited cells are held, not copied. `preprocess.fix_logical` runs
    each robot's reachability search and decides the admissible cells.
    """
    records = tuple(RobotWindow(start, goal, visited) for start, goal, visited in robots)
    spec = WindowSpec(grid, records, horizon, weights, allow_wait)
    report, admissible = fix_logical(spec)
    return Window(spec, report, admissible)


def _attempt_window(grid, agents, weights, solver_cfg, horizon, seed_parts, multi
                    ) -> tuple[WindowRecord, list[list[Cell]] | None]:
    """Build, presolve, solve, and repair one window.

    The sampler's seed is derived from the run's seed and `seed_parts` only
    when the sampler runs. The repair decides each robot's path: it is valid
    when it reaches the goal, runs to the horizon or, in a multi-robot
    window, stops at an empty step and then waits. Returns the try's record
    with every robot's path when every path is valid and no two robots
    clash, or with None when it fails; the record's last repair entry then
    gives the reason and the step.
    """
    window = build_window(
        grid, [(a.current, a.spec.goal, a.visited) for a in agents], horizon, weights,
        allow_wait=multi)
    spec, report = window.spec, window.report
    # A window that logical fixing decided needs no model. Building one runs
    # the numeric pass, which updates the report read below.
    folded = None if report.solved_by_preprocess else window.folded
    record = WindowRecord(
        horizon,
        original=report.original_count,
        reduced=report.reduced_count,
        numeric_fixed=report.numeric_fixed,
    )
    if report.solved_by_preprocess:
        # Every layer holds one cell or none: the layers are the occupancy.
        occupancy = window.admissible
    else:
        cfg = replace(solver_cfg, seed=derive_seed(solver_cfg.seed, *seed_parts))
        sampleset = solve(folded.model, cfg,
                          groups=[var_group(spec.dims, v) for v in folded.free_vars])
        occupancy = decode(folded.expand(sampleset.best.bits), spec.dims, len(agents))
        record.backend = cfg.backend
        record.best_energy = sampleset.best.energy
        record.histogram = [(s.energy, s.occurrences) for s in sampleset.samples[:8]]

    paths = []
    for r, agent in enumerate(agents):
        repair = fix_one_hot_continuity(occupancy[r], agent.current, agent.spec.goal,
                                        allow_wait=multi)
        if repair.dropped:
            record.repairs.append(
                f"robot {agent.spec.id}: dropped {repair.dropped} extra cell(s)"
            )
        path = repair.path
        if multi and path and repair.reason == "empty_step":
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
    # holds it for the rest of the window.
    clashes = find_vertex_conflicts([list(enumerate(path)) for path in paths])
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
    cell, and every window that reaches a robot's release keeps the others
    off its start. A robot whose goal the parked robots wall off ends as
    infeasible at once. Every finished plan, clash-repair waits included, is
    validated once more on the input map. Raises `ValueError` for a robot set
    that `validate_robots` rejects.
    """
    robots = list(robots)
    validate_robots(grid, robots)
    weights = weights or PenaltyWeights()
    wcfg = window_cfg or WindowConfig()
    scfg = solver_cfg or SolverConfig()
    multi = len(robots) > 1
    agents = [_Agent(r) for r in robots]

    for agent in agents:
        if agent.spec.start == agent.spec.goal:
            agent.steps = [(agent.spec.release, agent.spec.start)]
            agent.status = STATUS_REACHED
        elif agent.spec.goal not in bfs_distances(grid, agent.spec.start):
            agent.status = STATUS_INFEASIBLE

    windows: list[WindowRecord] = []
    clock = 0
    walls: set[Cell] = set()  # the parked cells the goals were last checked on

    while len(windows) < wcfg.max_windows:
        pending = [a for a in agents if a.status is None]
        if not pending:
            break
        # A robot whose start is its goal parks there only once released.
        parkers = [a for a in agents
                   if a.status == STATUS_REACHED and a.steps[-1][0] <= clock]
        parked = {a.steps[-1][1] for a in parkers}
        if parked != walls:
            # Parked robots never move again, so a goal they wall off stays
            # out of reach. The starts of robots yet to be released are only
            # blocked for a while and stay open here.
            walls = parked
            for agent in pending:
                open_map = grid.with_obstacles(parked - {agent.current})
                if agent.spec.goal not in bfs_distances(open_map, agent.current):
                    blockers = ", ".join(str(a.spec.id) for a in parkers)
                    agent.notes.append(
                        f"goal {agent.spec.goal} walled off by parked robot(s) {blockers}")
                    agent.status = STATUS_INFEASIBLE
            continue
        active = [a for a in pending if a.spec.release <= clock]
        if not active:
            clock = min(a.spec.release for a in pending)
            continue
        for agent in active:
            if not agent.steps:
                agent.steps = [
                    (t, agent.spec.start)
                    for t in range(agent.spec.release, clock + 1)
                ]

        occupied = {a.current for a in active}
        horizon = wcfg.window_len
        escalated = False
        for retries in range(ATTEMPTS_PER_WINDOW):
            # A robot released within this try's horizon keeps the others
            # off its start for the whole try.
            releasing = {a.spec.start for a in agents if a.status != STATUS_INFEASIBLE
                         and clock < a.spec.release <= clock + horizon}
            eff_grid = grid.with_obstacles((parked | releasing) - occupied)
            record, paths = _attempt_window(eff_grid, active, weights, scfg, horizon,
                                            (len(windows), retries, int(escalated)), multi)
            # Without a sampler run, no other seed can change the outcome.
            retry_cannot_help = record.backend == "presolve"
            if paths is not None or (escalated and retry_cannot_help):
                break
            if retry_cannot_help or retries == ATTEMPTS_PER_WINDOW - 2:
                # Widen the window once: at once when retrying cannot help,
                # otherwise for the last try.
                horizon = 2 * wcfg.window_len
                escalated = True

        record.index, record.global_start = len(windows), clock
        record.retries, record.escalated = retries, escalated
        windows.append(record)
        for agent in active:
            agent.log.append(record)

        if paths is None:
            record.repairs[-1] = f"window abandoned: {record.repairs[-1]}"
            break

        for agent, path in zip(active, paths):
            agent.steps = stitch(agent.steps, path)
            agent.visited.update(path)
            agent.current = path[-1]
            if agent.current == agent.spec.goal:
                agent.status = STATUS_REACHED
        clock += horizon

    plans = [
        Plan(a.spec.id, a.steps, a.status or STATUS_EXHAUSTED, a.log, a.notes)
        for a in agents
    ]

    clash_events: list[str] = []
    unresolved: list = []
    reached = [p for p in plans if p.status == STATUS_REACHED]
    lists = [p.steps for p in reached]
    if find_vertex_conflicts(lists):
        lists, clash_events, unresolved = resolve_clash_wait(lists, grid)
        for p, new_steps in zip(reached, lists):
            p.steps = new_steps
    for conflict in unresolved:
        plan = reached[conflict[3]]
        if plan.status == STATUS_REACHED:
            plan.status = STATUS_EXHAUSTED
            plan.notes.append(f"unresolved vertex conflict at t={conflict[0]}")

    for plan, agent in zip(plans, agents):
        if plan.status != STATUS_REACHED:
            continue
        diagnosis = validate_path(grid, plan.cells, agent.spec.goal, multi)
        if not diagnosis:
            plan.status = STATUS_EXHAUSTED
            plan.notes.append(
                f"validation failed: {diagnosis.kind} at step {diagnosis.step}"
            )

    return PlanningResult(plans, windows, clash_events, unresolved)


def plan_single(grid: GridMap, start: Cell, goal: Cell,
                weights: PenaltyWeights | None = None,
                window_cfg: WindowConfig | None = None,
                solver_cfg: SolverConfig | None = None) -> Plan:
    """Plan one robot: the degenerate single-agent case of `plan_paths`."""
    result = plan_paths(
        grid, [RobotSpec(0, start, goal)],
        weights=weights, window_cfg=window_cfg, solver_cfg=solver_cfg,
    )
    return result.plans[0]
