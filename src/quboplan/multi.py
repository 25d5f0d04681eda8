"""Multi-robot coordination on a global clock.

Robots are planned jointly: every window holds one QUBO containing all
currently active robots with vertex-collision coupling, so the variable
count grows linearly in the robot count while conflicts are resolved inside
the optimization rather than sequentially.
"""

from .grid import GridMap
from .planner import (
    PenaltyWeights,
    PlanningResult,
    RobotSpec,
    SolverConfig,
    WindowConfig,
    plan_paths,
)

__all__ = ["RobotSpec", "plan_multi", "validate_robots"]


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


def plan_multi(grid: GridMap, robots,
               weights: PenaltyWeights | None = None,
               window_cfg: WindowConfig | None = None,
               solver_cfg: SolverConfig | None = None) -> PlanningResult:
    """Jointly plan a set of robots; one robot degenerates to single planning.

    Robots are planned in ascending `id` order, whatever their order in
    `robots`, and that order is their priority: when residual clashes must
    be cleared by waiting, the robot with the larger id yields.
    """
    robots = sorted(robots, key=lambda r: r.id)
    validate_robots(grid, robots)
    return plan_paths(
        grid, robots,
        weights=weights, window_cfg=window_cfg, solver_cfg=solver_cfg,
    )
