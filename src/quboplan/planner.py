"""Sequential window planning: presolve, solve, repair, validate, stitch.

A plan is assembled window by window. Each window builds a fresh QUBO over
the robots active on the global clock, shrinks it by variable fixing, solves
it (or skips the solver when fixing decided everything), repairs the decoded
occupancy, and stitches the accepted sub-path onto the plan so global times
advance by exactly one per step. Failed windows are retried with fresh solver
seeds; the final retry widens the window once before giving up.
"""

from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Cell, GridMap, bfs_distances, bfs_layers, min_moves
from .penalties import (
    GOAL_MODE_APPROX,
    GOAL_MODE_LATE,
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
from .preprocess import FixReport, FoldedModel, fix_logical, fix_numeric_diagonal, fold
from .qubo import decode
from .solvers import SolverConfig, solve

STATUS_REACHED = "reached_goal"
STATUS_EXHAUSTED = "max_windows_exhausted"
STATUS_INFEASIBLE = "infeasible"


class StitchError(RuntimeError):
    """A window path does not begin where the plan so far ends."""


@dataclass(frozen=True)
class WindowConfig:
    """Window length and retry budget of the sequential decomposition."""

    window_len: int = 6
    max_windows: int = 20
    max_retries_per_window: int = 5

    def __post_init__(self):
        if self.window_len < 2:
            raise ValueError("window_len must be >= 2")
        if self.max_windows < 1 or self.max_retries_per_window < 1:
            raise ValueError("window and retry budgets must be >= 1")


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
    """Soundness gate for a decoded path.

    Accepts a sequence of cells or of per-step cell sets. Checks one cell per
    step, then reports the earliest step onto a blocked cell or off the
    adjacency rule (see `detect_invalid_move`), then that the goal is not
    claimed before the move lower bound from the path's first cell allows.
    """
    cells: list[Cell] = []
    for t, entry in enumerate(path):
        if isinstance(entry, (set, frozenset)):
            if len(entry) != 1:
                return PathDiagnosis(False, "one_hot", t)
            entry = next(iter(entry))
        cells.append(entry)
    if not cells:
        return PathDiagnosis(False, "empty", 0)
    bad = detect_invalid_move(cells, grid, allow_wait=allow_wait)
    if bad is not None:
        return PathDiagnosis(False, bad[1], bad[0])
    if goal is not None and goal in cells:
        first = cells.index(goal)
        if first < min_moves(grid, cells[0], goal):
            return PathDiagnosis(False, "early_goal", first)
    return PathDiagnosis(True)


def _validate_by_window(cells, stitched, maps, goal: Cell,
                        allow_wait: bool) -> PathDiagnosis:
    """Validate a finished path window by window, each on its own map.

    `stitched` is the path as the windows stitched it, and `maps` holds one
    (stitched cells up to the window's end, map it was planned on) pair per
    window. Clash repair only repeats cells as waits, so each cell of
    `cells` belongs to the window of the stitched cell it matches or
    repeats. Each window's run of cells, with the cell it starts from, is
    checked on that window's map; steps are reported along `cells`.
    """
    ends = [end for end, _ in maps]
    owner, p = [], 0
    for i, c in enumerate(cells):
        if i and p + 1 < len(stitched) and c == stitched[p + 1]:
            p += 1
        owner.append(bisect_right(ends, p))
    lo = 0
    for hi in range(1, len(cells) + 1):
        if hi < len(cells) and owner[hi] == owner[lo]:
            continue
        first = max(lo - 1, 0)
        diagnosis = validate_path(maps[owner[lo]][1], cells[first:hi], goal, allow_wait)
        if not diagnosis:
            return PathDiagnosis(False, diagnosis.kind, first + diagnosis.step)
        lo = hi
    return PathDiagnosis(True)


def stitch(steps, window_path, start_time: int = 0):
    """Append a window path, dropping the duplicated boundary cell.

    An empty plan is re-based at `start_time`; otherwise the window must
    begin on the plan's last cell, and global times continue by exactly one.
    """
    window_path = list(window_path)
    if not steps:
        return [(start_time + k, c) for k, c in enumerate(window_path)]
    if not window_path:
        return list(steps)
    if window_path[0] != steps[-1][1]:
        raise StitchError(
            f"window starts at {window_path[0]} but plan ends at {steps[-1][1]}"
        )
    base = steps[-1][0]
    return list(steps) + [(base + k, c) for k, c in enumerate(window_path[1:], 1)]


@dataclass
class WindowRecord:
    """Joint per-window diagnostics shared by every robot active in it."""

    index: int
    global_start: int
    horizon: int
    original: int
    reduced: int
    reduction_pct: float
    solved_by_preprocess: bool
    numeric_fixed: int
    retries: int
    escalated: bool
    backend: str
    best_energy: float | None
    norm_scale: float | None
    modes: dict[int, str]
    repairs: list[str] = field(default_factory=list)
    histogram: list[tuple[float, int]] = field(default_factory=list)

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
            "norm_scale": self.norm_scale,
            "histogram": [[e, n] for e, n in self.histogram],
            "modes": {str(k): v for k, v in sorted(self.modes.items())},
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
        pct = 100.0 * (original - reduced) / original if original else 0.0
        return {
            "original": original,
            "reduced": reduced,
            "reduction_pct": round(pct, 4),
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
    __slots__ = ("spec", "current", "visited", "steps", "status", "done", "log", "maps")

    def __init__(self, spec: RobotSpec):
        self.spec = spec
        self.current = spec.start
        self.visited = {spec.start}
        self.steps: list[tuple[int, Cell]] = []
        self.status: str | None = None
        self.done = False
        self.log: list[WindowRecord] = []
        # (stitched steps so far, map planned on) after each window
        self.maps: list[tuple[int, GridMap]] = []

    def finish(self, status: str):
        self.status = status
        self.done = True


def derive_seed(base: int, *parts: int) -> int:
    """Seed for one part of a run (a window attempt, a bench repeat) drawn
    from the run's base seed; each part is taken modulo 2**32."""
    entropy = (base & 0xFFFFFFFFFFFFFFFF,) + tuple(p & 0xFFFFFFFF for p in parts)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def build_window(grid: GridMap, robots, horizon: int, weights: PenaltyWeights,
                 allow_wait: bool = False) -> tuple[WindowSpec, FixReport, FoldedModel]:
    """One window's spec, presolve report and folded model.

    `robots` holds one (current cell, goal, visited cells) triple per robot.
    Cells visited in earlier windows are left out of a robot's reachability
    search; when that walls off the goal, or ends the search short of the
    horizon where the full search reaches further, the exclusion is dropped
    and the softened revisit penalties take over instead. A robot whose goal
    is reachable and strictly closer than the horizon (`min_moves`) seeks it
    with the late-time reward, any other with the window-final approximation
    reward.
    Logical fixing reuses these searches; the model is then built, folded,
    and cleared of hopeless diagonals.
    """
    records, tables = [], []
    for start, goal, visited in robots:
        excluded = frozenset(visited) - {start}
        table = bfs_layers(grid, start, horizon, exclude_visited=excluded)
        reachable = table.contains(goal)
        if not reachable and excluded:
            full = bfs_layers(grid, start, horizon)
            reachable = full.contains(goal)
            if reachable or table.max_depth() < min(horizon, full.max_depth()):
                table, excluded = full, frozenset()
        if reachable and min_moves(grid, start, goal) < horizon:
            mode = GOAL_MODE_LATE
        else:
            mode = GOAL_MODE_APPROX
        records.append(RobotWindow(start, goal, horizon, mode, visited, excluded))
        tables.append(table)
    spec = WindowSpec(grid, tuple(records), weights)
    report, admissible = fix_logical(spec, tables)
    model = build_window_model(spec, admissible, allow_wait=allow_wait)
    folded = fix_numeric_diagonal(fold(model, report), report)
    return spec, report, folded


@dataclass
class _Attempt:
    """One try at a window.

    `paths` holds every robot's (path, reached goal) when the try was
    accepted, and `report` is None when no model was built.
    """

    report: FixReport | None
    modes: dict[int, str] = field(default_factory=dict)
    paths: list[tuple[list[Cell], bool]] | None = None
    failure: str | None = None
    backend: str = "presolve"
    best_energy: float | None = None
    norm_scale: float | None = None
    histogram: list[tuple[float, int]] = field(default_factory=list)
    repairs: list[str] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        """Retrying the same window cannot change the outcome."""
        return self.report is None or self.report.solved_by_preprocess


def _attempt_window(grid, agents, weights, solver_cfg, horizon, seed, multi) -> _Attempt:
    """Build, presolve, solve, and repair one window."""
    for agent in agents:
        if not grid.neighbors(agent.current):
            return _Attempt(None, failure=f"robot {agent.spec.id} cannot move")
    spec, report, folded = build_window(
        grid, [(a.current, a.spec.goal, a.visited) for a in agents], horizon, weights,
        allow_wait=multi)
    modes = [rec.goal_mode for rec in spec.robots]
    attempt = _Attempt(report, {a.spec.id: m for a, m in zip(agents, modes)})
    if report.solved_by_preprocess:
        ones = set(folded.fixed_one)
    else:
        scale = weights.pick_scale(folded.model.num_vars)
        cfg = replace(solver_cfg, seed=seed)
        sampleset = solve(folded.model.normalized(scale), cfg)
        ones = folded.expand(sampleset.best.bits)
        attempt.backend = cfg.backend
        attempt.best_energy = sampleset.best.energy
        attempt.norm_scale = scale
        attempt.histogram = [(s.energy, s.occurrences) for s in sampleset.samples[:8]]

    occupancy = decode(ones, spec.dims, len(agents))
    paths = []
    for r, agent in enumerate(agents):
        per_step = [occupancy[r].get(t, set()) for t in range(horizon + 1)]
        repair = fix_one_hot_continuity(per_step, agent.current, grid,
                                        allow_wait=multi)
        if repair.dropped:
            attempt.repairs.append(
                f"robot {agent.spec.id}: dropped {repair.dropped} extra cell(s)"
            )
        goal = agent.spec.goal
        reached = False
        if goal in repair.path:
            path = repair.path[: repair.path.index(goal) + 1]
            reached = True
        elif repair.complete and modes[r] == GOAL_MODE_APPROX:
            path = repair.path
        elif (multi and repair.path and repair.reason == "empty_step"
              and modes[r] == GOAL_MODE_APPROX):
            # Trapped short of the horizon (another robot blocks the way):
            # hold position for the remaining steps and try again next window.
            path = repair.path + [repair.path[-1]] * (horizon + 1 - len(repair.path))
            attempt.repairs.append(
                f"robot {agent.spec.id}: waits from t={repair.failed_at}"
            )
        else:
            attempt.failure = f"robot {agent.spec.id}: {repair.reason or 'goal_missed'}"
            return attempt
        bad = detect_invalid_move(path, grid, allow_wait=multi)
        if bad is not None:
            attempt.failure = f"robot {agent.spec.id}: {bad[1]} at t={bad[0]}"
            return attempt
        if len(path) < 2 and not reached and not multi:
            attempt.failure = f"robot {agent.spec.id}: no progress"
            return attempt
        paths.append((path, reached))
    attempt.paths = paths
    return attempt


def plan_paths(grid: GridMap, robots, weights: PenaltyWeights | None = None,
               window_cfg: WindowConfig | None = None,
               solver_cfg: SolverConfig | None = None,
               map_hook=None) -> PlanningResult:
    """Plan every robot on a shared global clock.

    Windows advance in lockstep; all robots active in a window share one
    QUBO with vertex-collision coupling. Robots that reach their goals park
    there and become static obstacles for later windows; robots released
    mid-window join at the next window boundary, waiting on their start
    cell. `map_hook(window_index, grid) -> GridMap | None` may swap the map
    between windows for dynamic scenes. Every finished plan is validated
    window by window on the map each window was planned on, clash-repair
    waits included.
    """
    robots = list(robots)
    if len({r.id for r in robots}) != len(robots):
        raise ValueError("robot ids must be unique")
    weights = weights or PenaltyWeights()
    wcfg = window_cfg or WindowConfig()
    scfg = solver_cfg or SolverConfig()
    multi = len(robots) > 1
    agents = [_Agent(r) for r in robots]

    for agent in agents:
        if agent.spec.start == agent.spec.goal:
            agent.steps = [(agent.spec.release, agent.spec.start)]
            agent.finish(STATUS_REACHED)
        elif agent.spec.goal not in bfs_distances(grid, agent.spec.start):
            agent.finish(STATUS_INFEASIBLE)

    windows: list[WindowRecord] = []
    current_grid = grid
    pending = [a for a in agents if not a.done]
    clock = min((a.spec.release for a in pending), default=0)
    window_index = 0

    while window_index < wcfg.max_windows:
        pending = [a for a in agents if not a.done]
        if not pending:
            break
        active = [a for a in pending if a.spec.release <= clock]
        if not active:
            clock = min(a.spec.release for a in pending)
            continue
        if map_hook is not None:
            swapped = map_hook(window_index, current_grid)
            if swapped is not None:
                current_grid = swapped
        for agent in active:
            if not agent.steps:
                agent.steps = [
                    (t, agent.spec.start)
                    for t in range(agent.spec.release, clock + 1)
                ]

        blocked = set()
        for agent in agents:
            if agent.done and agent.status == STATUS_REACHED and agent.steps:
                blocked.add(agent.steps[-1][1])
            elif agent.done and agent.status == STATUS_EXHAUSTED:
                blocked.add(agent.current)
            elif not agent.done and clock < agent.spec.release < clock + wcfg.window_len:
                blocked.add(agent.spec.start)
        blocked -= {a.current for a in active}
        eff_grid = current_grid.with_obstacles(blocked)

        stuck = [a for a in active if not eff_grid.is_free(a.current)]
        if stuck:
            for agent in stuck:
                agent.finish(STATUS_EXHAUSTED)
            continue

        horizon = wcfg.window_len
        escalated = False
        for retries in range(wcfg.max_retries_per_window):
            if retries > 0 and retries == wcfg.max_retries_per_window - 1:
                # Last chance: widen the window once before giving up.
                horizon = 2 * wcfg.window_len
                escalated = True
            seed = derive_seed(scfg.seed, window_index, retries, int(escalated))
            attempt = _attempt_window(eff_grid, active, weights, scfg, horizon, seed, multi)
            if attempt.paths is not None:
                break
            if attempt.deterministic and not escalated:
                # Retrying an identical deterministic window cannot help.
                horizon = 2 * wcfg.window_len
                escalated = True

        report = attempt.report or FixReport()
        record = WindowRecord(
            index=window_index,
            global_start=clock,
            horizon=horizon,
            original=report.original_count,
            reduced=report.reduced_count,
            reduction_pct=report.reduction_pct,
            solved_by_preprocess=attempt.report is not None and report.solved_by_preprocess,
            numeric_fixed=report.numeric_fixed,
            retries=retries,
            escalated=escalated,
            backend=attempt.backend,
            best_energy=attempt.best_energy,
            norm_scale=attempt.norm_scale,
            modes=attempt.modes,
            repairs=attempt.repairs,
            histogram=attempt.histogram,
        )
        if attempt.failure is not None:
            record.repairs.append(f"window abandoned: {attempt.failure}")
        windows.append(record)

        if attempt.paths is None:
            for agent in active:
                agent.log.append(record)
                agent.finish(STATUS_EXHAUSTED)
            break

        for agent, (path, reached) in zip(active, attempt.paths):
            agent.log.append(record)
            agent.steps = stitch(agent.steps, path, start_time=clock)
            agent.maps.append((len(agent.steps), current_grid))
            agent.visited |= set(path)
            agent.current = path[-1]
            if reached:
                agent.finish(STATUS_REACHED)
        clock += horizon
        window_index += 1

    for agent in agents:
        if not agent.done:
            agent.finish(STATUS_EXHAUSTED)

    plans = [
        Plan(a.spec.id, a.steps, a.status or STATUS_EXHAUSTED, a.log)
        for a in agents
    ]

    clash_events: list[str] = []
    unresolved: list = []
    if multi:
        reached = [p for p in plans if p.status == STATUS_REACHED and p.steps]
        lists = [p.steps for p in reached]
        if len(lists) >= 2 and find_vertex_conflicts(lists):
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
        diagnosis = _validate_by_window(plan.cells, [c for _, c in agent.steps],
                                        agent.maps or [(len(agent.steps), grid)],
                                        agent.spec.goal, multi)
        if not diagnosis:
            plan.status = STATUS_EXHAUSTED
            plan.notes.append(
                f"validation failed: {diagnosis.kind} at step {diagnosis.step}"
            )

    return PlanningResult(plans, windows, clash_events, unresolved)


def plan_single(grid: GridMap, start: Cell, goal: Cell,
                weights: PenaltyWeights | None = None,
                window_cfg: WindowConfig | None = None,
                solver_cfg: SolverConfig | None = None,
                map_hook=None) -> Plan:
    """Plan one robot: the degenerate single-agent case of `plan_paths`."""
    result = plan_paths(
        grid, [RobotSpec(0, start, goal)],
        weights=weights, window_cfg=window_cfg, solver_cfg=solver_cfg,
        map_hook=map_hook,
    )
    return result.plans[0]
