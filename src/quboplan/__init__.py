"""Grid path planning for one or more robots through sparse QUBO models."""

from .grid import (
    Cell,
    GridMap,
    bfs_distances,
    bfs_layers,
    manhattan,
)
from .qubo import QuboModel, block_size, decode, var_index
from .penalties import (
    PenaltyWeights,
    RobotWindow,
    WindowSpec,
    build_window_model,
    with_one_hot_pairs,
)
from .preprocess import (
    FixReport,
    FoldedModel,
    fix_logical,
    fix_numeric_diagonal,
    fold,
)
from .solvers import (
    Sample,
    SampleSet,
    SolverConfig,
    solve,
)
from .planner import (
    Plan,
    PlanningResult,
    RobotSpec,
    STATUS_EXHAUSTED,
    STATUS_INFEASIBLE,
    STATUS_REACHED,
    StitchError,
    WindowConfig,
    build_window,
    plan_paths,
    stitch,
    validate_robots,
)
from .postprocess import (
    detect_invalid_move,
    find_vertex_conflicts,
    fix_one_hot_continuity,
    resolve_clash_wait,
)
from .multi import plan_multi
from .classical import astar, prioritized_plan
from .scenario import ScenarioError, ScenarioSpec, load_scenario, parse_scenario
from .render import render_svg
from .bench import run_benchmark, run_pipeline

__version__ = "0.1.0"
