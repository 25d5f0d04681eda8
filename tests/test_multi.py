import numpy as np
import pytest

from quboplan.grid import GridMap
from quboplan.multi import plan_multi, validate_robots
from quboplan.penalties import PenaltyWeights, RobotWindow, WindowSpec, build_window_model
from quboplan.planner import (
    RobotSpec,
    STATUS_REACHED,
    WindowConfig,
    plan_single,
    validate_path,
)
from quboplan.postprocess import find_vertex_conflicts
from quboplan.preprocess import fix_logical
from quboplan.qubo import block_size
from quboplan.solvers import SolverConfig

EXHAUSTIVE = SolverConfig(backend="exhaustive", seed=1)


def test_validate_robots_rejects_shared_goal():
    g = GridMap(3, 3)
    with pytest.raises(ValueError):
        validate_robots(g, [RobotSpec(0, (0, 0), (2, 2)),
                            RobotSpec(1, (2, 0), (2, 2))])


def test_validate_robots_rejects_shared_start_same_release():
    g = GridMap(3, 3)
    with pytest.raises(ValueError):
        validate_robots(g, [RobotSpec(0, (0, 0), (2, 2)),
                            RobotSpec(1, (0, 0), (0, 2))])
    # different releases may share a start cell
    validate_robots(g, [RobotSpec(0, (0, 0), (2, 2)),
                        RobotSpec(1, (0, 0), (0, 2), release=9)])


def test_joint_variable_count_scales_linearly():
    g = GridMap(3, 3)
    weights = PenaltyWeights()
    single = WindowSpec(g, (RobotWindow(start=(0, 0), goal=(2, 2), horizon=3),), weights)
    double = WindowSpec(g, (
        RobotWindow(start=(0, 0), goal=(2, 2), horizon=3),
        RobotWindow(start=(2, 0), goal=(0, 2), horizon=3),
    ), weights)
    assert build_window_model(double).num_vars == 2 * build_window_model(single).num_vars
    assert block_size(double.dims) * 2 == build_window_model(double).num_vars


def test_collision_terms_only_on_shared_admissible_cells():
    g = GridMap(3, 5)
    # disjoint corridors: rows 0 and 2 never meet
    recs = (
        RobotWindow(start=(0, 0), goal=(0, 4), horizon=4),
        RobotWindow(start=(2, 0), goal=(2, 4), horizon=4),
    )
    grid = GridMap(3, 5, frozenset({(1, j) for j in range(5)}))
    spec = WindowSpec(grid, recs, PenaltyWeights(), allow_wait=True)
    report, adm = fix_logical(spec)
    model = build_window_model(spec, adm)
    block = block_size(spec.dims)
    cross = [(a, b) for a, b in model.coeffs if a < block <= b]
    assert cross == []


def test_single_robot_multi_equals_plan_single():
    g = GridMap(4, 4, frozenset({(1, 1), (2, 2)}))
    cfg = WindowConfig(window_len=8)
    solo = plan_single(g, (0, 0), (3, 3), window_cfg=cfg, solver_cfg=EXHAUSTIVE)
    result = plan_multi(g, [RobotSpec(0, (0, 0), (3, 3))],
                        window_cfg=cfg, solver_cfg=EXHAUSTIVE)
    assert result.plans[0].steps == solo.steps
    assert result.plans[0].status == solo.status


def test_two_robot_benchmark_reaches_joint_optimum():
    g = GridMap(5, 5, frozenset({(2, 2)}))
    robots = [RobotSpec(0, (0, 0), (4, 4)), RobotSpec(1, (4, 0), (0, 4))]
    result = plan_multi(g, robots, window_cfg=WindowConfig(window_len=22),
                        solver_cfg=SolverConfig(seed=5, num_reads=150, sweeps=600))
    assert result.succeeded
    assert sum(p.moves for p in result.plans) == 16
    assert find_vertex_conflicts([p.steps for p in result.plans]) == []
    for plan, robot in zip(result.plans, robots):
        assert validate_path(g, plan.cells, goal=robot.goal, allow_wait=True)


def test_disjoint_corridor_robots_match_solo_plans():
    grid = GridMap(3, 5, frozenset({(1, j) for j in range(5)}))
    robots = [RobotSpec(0, (0, 0), (0, 4)), RobotSpec(1, (2, 0), (2, 4))]
    result = plan_multi(grid, robots, window_cfg=WindowConfig(window_len=6),
                        solver_cfg=EXHAUSTIVE)
    assert result.succeeded
    for plan, robot in zip(result.plans, robots):
        solo = plan_single(grid, robot.start, robot.goal,
                           window_cfg=WindowConfig(window_len=6),
                           solver_cfg=EXHAUSTIVE)
        assert plan.moves == solo.moves == 4


def test_staggered_release_waits_at_start():
    grid = GridMap(2, 6)
    robots = [RobotSpec(0, (0, 0), (0, 5)),
              RobotSpec(1, (1, 5), (1, 0), release=3)]
    result = plan_multi(grid, robots, window_cfg=WindowConfig(window_len=6),
                        solver_cfg=EXHAUSTIVE)
    late = result.plans[1]
    assert late.status == STATUS_REACHED
    assert late.steps[0] == (3, (1, 5))
    # waits at its start until the next window boundary, then moves
    assert [c for _, c in late.steps[:4]] == [(1, 5)] * 4
    times = [t for t, _ in late.steps]
    assert times == list(range(3, 3 + len(times)))


def test_release_robot_parked_on_another_goal_degrades_gracefully():
    # the late robot sits on the first robot's goal until released; the first
    # robot makes partial progress, waits, and finishes once the cell clears
    grid = GridMap(1, 6)
    robots = [RobotSpec(0, (0, 0), (0, 5)),
              RobotSpec(1, (0, 5), (0, 3), release=3)]
    result = plan_multi(grid, robots, window_cfg=WindowConfig(window_len=6),
                        solver_cfg=EXHAUSTIVE)
    reached = [p for p in result.plans if p.status == STATUS_REACHED]
    assert find_vertex_conflicts([p.steps for p in reached]) == []
    assert result.plans[0].status == STATUS_REACHED


def test_vertex_free_across_corpus():
    rng = np.random.default_rng(77)
    g = GridMap(4, 4)
    corners = [(0, 0), (3, 3), (0, 3), (3, 0)]
    robots = [RobotSpec(0, corners[0], corners[1]), RobotSpec(1, corners[2], corners[3])]
    for seed in range(5):
        result = plan_multi(g, robots, window_cfg=WindowConfig(window_len=8),
                            solver_cfg=SolverConfig(seed=seed, num_reads=120, sweeps=500))
        reached = [p for p in result.plans if p.status == STATUS_REACHED]
        assert find_vertex_conflicts([p.steps for p in reached]) == []
