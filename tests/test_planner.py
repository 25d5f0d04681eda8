import numpy as np
import pytest

from quboplan.grid import GridMap, manhattan
from quboplan.penalties import PenaltyWeights
from quboplan.planner import (
    Plan,
    RobotSpec,
    STATUS_INFEASIBLE,
    STATUS_REACHED,
    StitchError,
    WindowConfig,
    plan_paths,
    plan_single,
    stitch,
    validate_path,
)
from quboplan.solvers import SolverConfig

from oracles import all_shortest_paths

EXHAUSTIVE = SolverConfig(backend="exhaustive", seed=1)


def test_validate_accepts_straight_line():
    g = GridMap(3, 3)
    assert validate_path(g, [(0, 0), (0, 1), (0, 2)], goal=(0, 2))


def test_validate_rejects_jump():
    g = GridMap(3, 3)
    out = validate_path(g, [(0, 0), (2, 2)])
    assert not out and out.kind == "adjacency" and out.step == 1


def test_validate_rejects_multi_cell_step():
    g = GridMap(3, 3)
    out = validate_path(g, [{(0, 0)}, {(0, 1), (1, 0)}])
    assert out.kind == "one_hot" and out.step == 1


def test_validate_rejects_obstacle_and_early_goal():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    assert validate_path(g, [(0, 0), (1, 1)]).kind == "obstacle"
    out = validate_path(g, [(0, 0), (0, 2), (1, 1)])  # jump, then obstacle
    assert (out.kind, out.step) == ("adjacency", 1)
    sneaky = [(0, 0), (2, 2), (2, 1)]  # claims a distance-4 goal at step 1
    out = validate_path(GridMap(3, 3), sneaky, goal=(2, 2))
    assert out.kind in ("adjacency", "early_goal")


def test_validate_wait_flag():
    g = GridMap(2, 2)
    waiting = [(0, 0), (0, 0), (0, 1)]
    assert not validate_path(g, waiting)
    assert validate_path(g, waiting, allow_wait=True)


def test_stitch_drops_boundary_duplicate():
    steps = [(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (2, 2))]
    merged = stitch(steps[:3], [(0, 2), (1, 2)])
    assert merged == [(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (1, 2))]


def test_stitch_rebases_empty_plan():
    assert stitch([], [(1, 1), (1, 2)], start_time=4) == [(4, (1, 1)), (5, (1, 2))]


def test_stitch_contract_violation():
    with pytest.raises(StitchError):
        stitch([(0, (0, 0))], [(2, 2), (2, 1)])


def test_stitch_three_windows_contiguous():
    steps = []
    cells = [(0, j) for j in range(10)]
    steps = stitch(steps, cells[:4], start_time=0)
    steps = stitch(steps, cells[3:7])
    steps = stitch(steps, cells[6:10])
    assert [t for t, _ in steps] == list(range(10))
    assert [c for _, c in steps] == cells


def test_plan_single_empty_map_single_window():
    g = GridMap(5, 5)
    plan = plan_single(g, (0, 0), (4, 4),
                       window_cfg=WindowConfig(window_len=10),
                       solver_cfg=SolverConfig(seed=2, num_reads=60, sweeps=400))
    assert plan.status == STATUS_REACHED
    assert plan.moves == 8
    assert len(plan.window_log) == 1
    assert validate_path(g, plan.cells, goal=(4, 4))


def test_plan_single_start_equals_goal():
    g = GridMap(3, 3)
    plan = plan_single(g, (1, 1), (1, 1), solver_cfg=EXHAUSTIVE)
    assert plan.status == STATUS_REACHED
    assert plan.moves == 0
    assert plan.window_log == []


def test_plan_single_walled_goal_is_infeasible_without_solving():
    g = GridMap(3, 3, frozenset({(1, 2), (2, 1)}))
    plan = plan_single(g, (0, 0), (2, 2), solver_cfg=EXHAUSTIVE)
    assert plan.status == STATUS_INFEASIBLE
    assert plan.window_log == []  # detected before any window was attempted


def test_plan_single_exhaustive_matches_shortest_distance():
    rng = np.random.default_rng(5)
    g = GridMap(3, 3, frozenset({(1, 1)}))
    for start, goal in (((0, 0), (2, 2)), ((0, 2), (2, 0)), ((1, 0), (1, 2))):
        plan = plan_single(g, start, goal,
                           window_cfg=WindowConfig(window_len=4),
                           solver_cfg=EXHAUSTIVE)
        assert plan.status == STATUS_REACHED
        shortest = len(all_shortest_paths(g, start, goal)[0]) - 1
        assert plan.moves == shortest


def test_plan_single_ground_state_is_optimal_when_window_covers_distance():
    g = GridMap(4, 4)
    plan = plan_single(g, (0, 0), (3, 3),
                       window_cfg=WindowConfig(window_len=7),
                       solver_cfg=EXHAUSTIVE)
    assert plan.status == STATUS_REACHED
    assert plan.moves == manhattan((0, 0), (3, 3))


def test_plan_multi_window_progression():
    # corridor longer than one window forces several fully-preprocessed hops
    g = GridMap(1, 9)
    plan = plan_single(g, (0, 0), (0, 8),
                       window_cfg=WindowConfig(window_len=3),
                       solver_cfg=EXHAUSTIVE)
    assert plan.status == STATUS_REACHED
    assert plan.moves == 8
    assert len(plan.window_log) == 3
    assert [t for t, _ in plan.steps] == list(range(9))
    assert all(w.solved_by_preprocess for w in plan.window_log)


def test_plan_windowed_open_map_reaches_goal_validly():
    g = GridMap(4, 4)
    plan = plan_single(g, (0, 0), (3, 3),
                       window_cfg=WindowConfig(window_len=3),
                       solver_cfg=EXHAUSTIVE)
    assert plan.status == STATUS_REACHED
    assert validate_path(g, plan.cells, goal=(3, 3))
    assert 6 <= plan.moves <= 12  # at least the L1 bound, bounded wandering


def test_plan_window_budget_respected():
    g = GridMap(1, 9)
    cfg = WindowConfig(window_len=2, max_windows=2)
    plan = plan_single(g, (0, 0), (0, 8), window_cfg=cfg, solver_cfg=EXHAUSTIVE)
    assert plan.status == "max_windows_exhausted"
    assert len(plan.window_log) <= 2


def test_plan_dynamic_map_swap_between_windows():
    g = GridMap(3, 5)

    def swap(window_index, grid):
        if window_index == 1:
            return grid.with_obstacles({(0, 3)})
        return None

    plan = plan_single(g, (0, 0), (0, 4),
                       window_cfg=WindowConfig(window_len=2),
                       solver_cfg=EXHAUSTIVE, map_hook=swap)
    assert plan.status == STATUS_REACHED
    assert (0, 3) not in [c for t, c in plan.steps if t >= 2]


def test_plan_release_offsets_single_robot():
    g = GridMap(1, 4)
    result = plan_paths(g, [RobotSpec(0, (0, 0), (0, 3), release=2)],
                        window_cfg=WindowConfig(window_len=4),
                        solver_cfg=EXHAUSTIVE)
    plan = result.plans[0]
    assert plan.status == STATUS_REACHED
    assert plan.steps[0] == (2, (0, 0))
    assert plan.steps[-1] == (5, (0, 3))


def test_plan_json_shape():
    g = GridMap(2, 2)
    plan = plan_single(g, (0, 0), (1, 1),
                       window_cfg=WindowConfig(window_len=2),
                       solver_cfg=EXHAUSTIVE)
    payload = plan.to_json()
    assert payload["status"] == STATUS_REACHED
    assert payload["path"][0] == [0, 0, 0]
    assert payload["moves"] == 2


def test_duplicate_robot_ids_rejected():
    g = GridMap(2, 2)
    with pytest.raises(ValueError):
        plan_paths(g, [RobotSpec(0, (0, 0), (1, 1)), RobotSpec(0, (1, 0), (0, 1))])


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(window_len=1)
    with pytest.raises(ValueError):
        WindowConfig(max_windows=0)
