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

__all__ = ["RobotSpec", "plan_multi"]


def plan_multi(grid: GridMap, robots,
               weights: PenaltyWeights | None = None,
               window_cfg: WindowConfig | None = None,
               solver_cfg: SolverConfig | None = None) -> PlanningResult:
    """Jointly plan a set of robots; one robot degenerates to single planning.

    Robots are planned in ascending `id` order, whatever their order in
    `robots`, and that order is their priority: when residual clashes must
    be cleared by waiting, the robot with the larger id yields.
    """
    return plan_paths(
        grid, sorted(robots, key=lambda r: r.id),
        weights=weights, window_cfg=window_cfg, solver_cfg=solver_cfg,
    )
