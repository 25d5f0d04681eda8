import pathlib
import sys

import numpy as np
import pytest

from perfbench.checker import check_plans
from perfbench.corpus import city, corridor, serpentine
from quboplan.classical import astar, path_moves
from quboplan.grid import GridMap, bfs_layers, manhattan
from quboplan.penalties import PenaltyWeights, RobotWindow, WindowSpec, build_window_model
from quboplan import planner, qubo
from quboplan.planner import (
    Plan,
    RobotSpec,
    STATUS_EXHAUSTED,
    STATUS_INFEASIBLE,
    STATUS_REACHED,
    StitchError,
    WindowConfig,
    build_window,
    plan_paths,
    plan_single,
    stitch,
    validate_path,
)
from quboplan.preprocess import fix_logical
from quboplan.scenario import load_scenario
from quboplan.solvers import Sample, SampleSet, SolverConfig

from oracles import all_shortest_paths

EXHAUSTIVE = SolverConfig(backend="exhaustive", seed=1)
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_validate_accepts_straight_line():
    g = GridMap(3, 3)
    assert validate_path(g, [(0, 0), (0, 1), (0, 2)], goal=(0, 2))


def test_validate_rejects_jump():
    g = GridMap(3, 3)
    out = validate_path(g, [(0, 0), (2, 2)])
    assert not out and out.kind == "adjacency" and out.step == 1


def test_validate_rejects_obstacle_and_early_goal():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    assert validate_path(g, [(0, 0), (1, 1)]).kind == "obstacle"
    out = validate_path(g, [(0, 0), (0, 2), (1, 1)])  # jump, then obstacle
    assert (out.kind, out.step) == ("adjacency", 1)
    sneaky = [(0, 0), (2, 2), (2, 1)]  # claims a distance-4 goal at step 1
    out = validate_path(GridMap(3, 3), sneaky, goal=(2, 2))
    assert (out.kind, out.step) == ("adjacency", 1)
    short = [(0, 0), (0, 1), (0, 2)]  # sound moves that stop short of the goal
    out = validate_path(g, short, goal=(2, 2))
    assert (out.ok, out.kind, out.step) == (False, "goal_missed", 2)


def test_validate_accepts_diagonal_on_eight_connected_map():
    diagonal = [(0, 0), (1, 1), (2, 2)]
    assert validate_path(GridMap(3, 3), diagonal, goal=(2, 2)).kind == "adjacency"


def test_validate_wait_flag():
    g = GridMap(2, 2)
    waiting = [(0, 0), (0, 0), (0, 1)]
    assert not validate_path(g, waiting)
    assert validate_path(g, waiting, allow_wait=True)


def test_stitch_drops_boundary_duplicate():
    steps = [(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (2, 2))]
    merged = stitch(steps[:3], [(0, 2), (1, 2)])
    assert merged == [(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (1, 2))]


def test_stitch_contract_violation():
    with pytest.raises(StitchError):
        stitch([(0, (0, 0))], [(2, 2), (2, 1)])


def test_stitch_three_windows_contiguous():
    cells = [(0, j) for j in range(10)]
    steps = stitch([(0, cells[0])], cells[:4])
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


def test_plan_validates_each_window_on_its_own_map(monkeypatch):
    # The final check runs on the stitched plan, so a segment that the
    # window check never saw is still caught on the input map.
    def stitch_through_obstacle(steps, window_path):
        window_path = list(window_path)
        if window_path == [(0, 0), (1, 0), (1, 1)]:
            window_path[1] = (0, 1)
        return stitch(steps, window_path)

    grid = GridMap(2, 2, frozenset({(0, 1)}))
    assert plan_single(grid, (0, 0), (1, 1), solver_cfg=EXHAUSTIVE).cells == [
        (0, 0), (1, 0), (1, 1)]
    monkeypatch.setattr(planner, "stitch", stitch_through_obstacle)
    plan = plan_single(grid, (0, 0), (1, 1), solver_cfg=EXHAUSTIVE)
    assert plan.cells == [(0, 0), (0, 1), (1, 1)]
    assert plan.status == STATUS_EXHAUSTED
    assert plan.notes == ["validation failed: obstacle at step 1"]


def test_failed_deterministic_window_is_widened_once_then_abandoned(monkeypatch):
    calls = []
    attempt_window = planner._attempt_window

    def counting_attempt(grid, agents, weights, solver_cfg, horizon, seed, multi):
        record, paths = attempt_window(grid, agents, weights, solver_cfg, horizon, seed, multi)
        calls.append((horizon, paths, list(record.repairs)))
        return record, paths

    monkeypatch.setattr(planner, "_attempt_window", counting_attempt)
    # Head-on in a one-cell corridor: each robot has one path, fixing decides
    # the window, and the two paths meet at t=1 whatever the horizon.
    result = plan_paths(GridMap(1, 3), [RobotSpec(0, (0, 0), (0, 2)),
                                        RobotSpec(1, (0, 2), (0, 0))])
    clash = "robots 0 and 1: vertex conflict at t=1"
    assert calls == [(6, None, [clash]), (12, None, [clash])]
    (window,) = result.windows
    assert (window.retries, window.escalated, window.horizon) == (1, True, 12)
    assert window.repairs == [f"window abandoned: {clash}"]
    assert [p.status for p in result.plans] == [STATUS_EXHAUSTED, STATUS_EXHAUSTED]


def test_a_window_whose_first_try_fails_is_rescued_by_the_widened_try(monkeypatch):
    calls = []
    attempt_window = planner._attempt_window

    def counting_attempt(grid, agents, weights, solver_cfg, horizon, seed, multi):
        record, paths = attempt_window(grid, agents, weights, solver_cfg, horizon, seed, multi)
        calls.append((seed[0], horizon, paths is not None, list(record.repairs)))
        return record, paths

    monkeypatch.setattr(planner, "_attempt_window", counting_attempt)
    grid = GridMap(5, 4, frozenset({(0, 3), (4, 1)}))
    robots = [RobotSpec(0, (1, 1), (0, 0), release=7), RobotSpec(1, (1, 2), (1, 0)),
              RobotSpec(2, (0, 1), (3, 1))]
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=4),
                        solver_cfg=SolverConfig(num_reads=100, sweeps=300, seed=366))
    window_0 = [call[1:3] for call in calls if call[0] == 0]
    assert window_0 == [(4, False), (8, True)]
    assert calls[0][3] == ["robot 1: adjacency at t=2"]
    assert (result.windows[0].escalated, result.windows[0].retries) == (True, 1)
    assert result.succeeded
    assert [p.moves for p in result.plans] == [3, 4, 5]
    assert check_plans(grid, robots, {p.robot: p.steps for p in result.plans}) == []


def test_a_robot_with_no_free_move_waits_in_a_multi_robot_window():
    # Robot 1's start, blocked while it awaits release, is robot 0's only
    # exit, so robot 0 holds its cell until robot 1 has left that start.
    grid = GridMap(5, 3, frozenset({(1, 2), (3, 1), (4, 2)}))
    robots = [RobotSpec(0, (0, 2), (1, 0)), RobotSpec(1, (0, 1), (2, 0), release=1)]
    for seed in range(3):
        result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=2),
                            solver_cfg=SolverConfig(seed=seed))
        assert result.succeeded, result.windows[-1].repairs
        assert result.windows[0].repairs == ["robot 0: waits from t=1"]
        assert check_plans(grid, robots, {p.robot: p.steps for p in result.plans}) == []


def _samples_take(monkeypatch, paths, solves=1):
    """Make the first `solves` solves of a plan return the one-hot sample
    that puts robot r on `paths[r]` at each step; later solves run as usual."""
    windows, solved = [], []
    build, solve = planner.build_window, planner.solve

    def recording_build(*args, **kwargs):
        windows.append(build(*args, **kwargs))
        return windows[-1]

    def scripted_solve(model, cfg, *, groups):
        if len(solved) == solves:
            return solve(model, cfg, groups=groups)
        dims, free_vars = windows[-1].spec.dims, windows[-1].folded.free_vars
        chosen = {qubo.var_index(dims, r, t, c)
                  for r, path in enumerate(paths) for t, c in enumerate(path)}
        bits = tuple(int(v in chosen) for v in free_vars)
        ones = {i for i, bit in enumerate(bits) if bit}
        solved.append(Sample(bits, model.energy(ones), cfg.num_reads))
        return SampleSet([solved[-1]])

    monkeypatch.setattr(planner, "build_window", recording_build)
    monkeypatch.setattr(planner, "solve", scripted_solve)


def test_a_path_that_runs_to_the_horizon_past_a_reachable_goal_is_kept(monkeypatch):
    # The goal (0, 1) is admissible at t=1, well before the horizon 3; the
    # first sample steers around it, and the next window starts where it ends.
    path = [(0, 0), (1, 0), (2, 0), (2, 1)]
    _samples_take(monkeypatch, [path])
    result = plan_paths(GridMap(3, 3), [RobotSpec(0, (0, 0), (0, 1))],
                        window_cfg=WindowConfig(window_len=3), solver_cfg=EXHAUSTIVE)
    first, second = result.windows
    assert (first.retries, first.repairs) == (0, [])
    assert second.global_start == 3
    assert result.plans[0].steps[:4] == list(enumerate(path))
    assert result.succeeded


def test_a_robot_that_stops_short_of_a_reachable_goal_waits(monkeypatch):
    # Two walled-off rooms: the search ends at t=2 in both, so t=3 admits no
    # cell. Robot 0 could have stepped onto its goal at t=1 but stops beside
    # it, and waits there for the rest of the window.
    path = [(0, 0), (1, 0), (1, 1)]
    _samples_take(monkeypatch, [path, [(0, 3), (0, 4), (1, 4)]])
    result = plan_paths(GridMap(2, 5, frozenset({(0, 2), (1, 2)})),
                        [RobotSpec(0, (0, 0), (0, 1)), RobotSpec(1, (0, 3), (1, 4))],
                        window_cfg=WindowConfig(window_len=3), solver_cfg=EXHAUSTIVE)
    first = result.windows[0]
    assert (first.retries, first.repairs) == (0, ["robot 0: waits from t=3"])
    assert result.plans[0].steps[:4] == list(enumerate(path + [(1, 1)]))
    assert result.plans[1].status == STATUS_REACHED
    assert result.succeeded


def test_a_sample_whose_path_jumps_fails_the_try_at_that_step(monkeypatch):
    # Each step holds one cell, but (2, 0) at t=2 is no move from (0, 1).
    path = [(0, 0), (0, 1), (2, 0), (2, 1)]
    _samples_take(monkeypatch, [path], solves=2)
    result = plan_paths(GridMap(3, 3), [RobotSpec(0, (0, 0), (2, 2))],
                        window_cfg=WindowConfig(window_len=3), solver_cfg=EXHAUSTIVE)
    (window,) = result.windows
    assert (window.retries, window.escalated) == (1, True)
    assert window.repairs == ["window abandoned: robot 0: adjacency at t=2"]
    assert result.plans[0].steps == [(0, (0, 0))]
    assert result.plans[0].status == STATUS_EXHAUSTED


def test_a_clash_left_in_the_finished_plans_fails_the_plan():
    # Robot 0 parks on robot 1's start before robot 1 is released there; no
    # wait can clear a clash with a parked robot, so the final check reports it.
    result = plan_paths(GridMap(1, 5), [RobotSpec(0, (0, 0), (0, 3)),
                                        RobotSpec(1, (0, 3), (0, 4), release=10)],
                        window_cfg=WindowConfig(window_len=6))
    assert not result.succeeded
    assert result.plans[1].status == STATUS_EXHAUSTED
    assert result.plans[1].notes == ["unresolved vertex conflict at t=10"]
    assert result.unresolved_conflicts == [(10, (0, 3), 0, 1)]
    assert result.clash_events == []


def test_conflict_reports_name_robots_by_id():
    # The clash above, with ids that are not the robots' positions.
    result = plan_paths(GridMap(1, 5), [RobotSpec(5, (0, 0), (0, 3)),
                                        RobotSpec(9, (0, 3), (0, 4), release=10)],
                        window_cfg=WindowConfig(window_len=6))
    assert result.unresolved_conflicts == [(10, (0, 3), 5, 9)]
    assert result.to_json()["unresolved_conflicts"] == [[10, [0, 3], 5, 9]]
    assert result.plans[1].notes == ["unresolved vertex conflict at t=10"]


def test_clash_repair_waits_name_robots_by_id():
    # Two-step windows leave the third robot on (1, 2) at t=3 and t=4, where
    # the second robot, released at t=3, stands; it waits twice to clear it.
    grid = GridMap(3, 4, frozenset({(0, 1), (2, 3)}))
    result = plan_paths(grid, [RobotSpec(4, (2, 1), (0, 2)),
                               RobotSpec(7, (1, 2), (0, 0), release=3),
                               RobotSpec(6, (2, 0), (2, 2))],
                        window_cfg=WindowConfig(window_len=2), solver_cfg=EXHAUSTIVE)
    assert result.succeeded
    assert result.clash_events == ["robot 6 waits at (1, 1) before t=3 to avoid (1, 2)",
                                   "robot 6 waits at (1, 1) before t=4 to avoid (1, 2)"]


def test_a_clash_on_the_waiting_robots_own_cell_is_reported_at_once():
    # Robot 2's one wait keeps it on (0, 2) at t=3, where robot 1 then
    # arrives. Another wait there cannot clear that, so the repair reports
    # the clash instead of spending its budget of waits on it (41 of them).
    result = plan_paths(GridMap(1, 6), [RobotSpec(0, (0, 3), (0, 2), release=3),
                                        RobotSpec(1, (0, 5), (0, 1)),
                                        RobotSpec(2, (0, 0), (0, 4))],
                        window_cfg=WindowConfig(window_len=2, max_windows=8),
                        solver_cfg=SolverConfig(num_reads=8, sweeps=50, seed=8260))
    assert result.clash_events == ["robot 2 waits at (0, 2) before t=3 to avoid (0, 3)"]
    assert result.unresolved_conflicts[0] == (3, (0, 2), 1, 2)
    assert not result.succeeded
    assert result.plans[2].notes == ["unresolved vertex conflict at t=3"]


def test_window_whose_paths_share_a_cell_is_retried_then_abandoned(monkeypatch):
    # Both robots cross the centre of a 3x3 map at t=1. With a token collision
    # weight, that clash is the model's minimum, so every try decodes it.
    calls = []
    attempt_window = planner._attempt_window

    def counting_attempt(*args):
        record, paths = attempt_window(*args)
        calls.append((paths, record.repairs[-1]))
        return record, paths

    monkeypatch.setattr(planner, "_attempt_window", counting_attempt)
    result = plan_paths(GridMap(3, 3), [RobotSpec(0, (1, 0), (1, 2)),
                                        RobotSpec(1, (0, 1), (2, 1))],
                        weights=PenaltyWeights(k_coll=0.01),
                        window_cfg=WindowConfig(window_len=3),
                        solver_cfg=SolverConfig(seed=1, num_reads=20, sweeps=100))
    clash = "robots 0 and 1: vertex conflict at t=1"
    assert calls == [(None, clash)] * 2
    (window,) = result.windows
    assert window.repairs[-1] == f"window abandoned: {clash}"
    assert not result.succeeded


def test_a_goal_walled_off_by_a_parked_robot_ends_infeasible_at_once():
    # Robot 1 parks on (1, 1), the only way into robot 0's goal (1, 0).
    grid = GridMap(3, 6, frozenset({(0, 0), (0, 3), (1, 4), (2, 1)}))
    result = plan_paths(grid, [RobotSpec(0, (2, 3), (1, 0)),
                               RobotSpec(1, (0, 1), (1, 1), release=2)],
                        window_cfg=WindowConfig(window_len=2))
    walled, parked = result.plans
    assert parked.status == STATUS_REACHED
    assert walled.status == STATUS_INFEASIBLE
    assert walled.notes == ["goal (1, 0) walled off by parked robot(s) 1"]
    # No window runs after robot 1 parks at the end of window 1.
    assert [w.index for w in walled.window_log] == [0, 1]
    assert len(result.windows) == 2


def test_a_robot_parked_from_the_start_can_wall_off_a_goal():
    result = plan_paths(GridMap(1, 3), [RobotSpec(0, (0, 0), (0, 2)),
                                        RobotSpec(1, (0, 1), (0, 1))])
    assert result.windows == []
    assert result.plans[0].status == STATUS_INFEASIBLE
    assert result.plans[0].notes == ["goal (0, 2) walled off by parked robot(s) 1"]


def test_a_start_awaiting_release_walls_off_no_goal():
    # Robot 2 is parked from the start, so the goals are checked at once,
    # while robot 1's start still cuts robot 0 off from its goal. That start
    # is free again by the time robot 0 gets there.
    grid = GridMap(2, 4, frozenset({(1, 0), (1, 1), (1, 2)}))
    robots = [RobotSpec(0, (0, 0), (0, 2)), RobotSpec(1, (0, 1), (0, 0), release=5),
              RobotSpec(2, (1, 3), (1, 3))]
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=2),
                        solver_cfg=EXHAUSTIVE)
    assert result.succeeded
    assert [p.status for p in result.plans] == [STATUS_REACHED] * 3


class _CellsWithoutIteration:
    """Cells that answer membership and size but cannot be listed, so a
    search that iterates or copies them fails."""

    def __init__(self, cells):
        self.cells = frozenset(cells)

    def __contains__(self, c):
        return c in self.cells

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        raise AssertionError("the visited cells were iterated")


@pytest.mark.parametrize("grid, start, goal, visited, horizon", [
    # Exclusions keep: the search runs on past the cells behind the robot.
    (GridMap(1, 9), (0, 4), (0, 8), {(0, k) for k in range(5)}, 3),
    # Exclusions hide the goal: the full search replaces them.
    (GridMap(3, 3), (1, 1), (0, 0), {(1, 1), (0, 1), (1, 0)}, 4),
    # Exclusions end the search short of a horizon the goal lies beyond.
    (GridMap(2, 6), (0, 1), (0, 5), {(0, 1), (0, 2), (1, 2)}, 3),
])
def test_windows_read_the_visited_cells_without_copying_them(grid, start, goal, visited,
                                                             horizon):
    def spec(cells):
        return WindowSpec(grid, (RobotWindow(start, goal, cells),), horizon, PenaltyWeights())

    listed, opaque = spec(set(visited)), spec(_CellsWithoutIteration(visited))
    listed_report, listed_admissible = fix_logical(listed)
    report, admissible = fix_logical(opaque)
    assert report == listed_report
    assert admissible == listed_admissible
    # The revisit penalties ask the visited cells about each admissible cell.
    assert (build_window_model(opaque, admissible).coeffs
            == build_window_model(listed, listed_admissible).coeffs)
    assert (bfs_layers(grid, start, horizon, exclude_visited=opaque.robots[0].visited)
            == bfs_layers(grid, start, horizon, exclude_visited=visited - {start}))


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


@pytest.mark.parametrize("start, goal, message", [
    ((1, 1), (0, 0), "robot 0: start (1, 1) is not a free cell"),
    ((0, 0), (1, 1), "robot 0: goal (1, 1) is not a free cell"),
])
def test_a_robot_off_the_free_cells_is_rejected(start, goal, message):
    with pytest.raises(ValueError) as excinfo:
        plan_paths(GridMap(2, 2, frozenset({(1, 1)})), [RobotSpec(0, start, goal)])
    assert str(excinfo.value) == message


def test_a_negative_release_is_rejected():
    with pytest.raises(ValueError, match="^release time must be >= 0$"):
        RobotSpec(0, (0, 0), (1, 1), release=-1)


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(window_len=1)
    with pytest.raises(ValueError):
        WindowConfig(max_windows=0)


def test_best_energy_is_the_folded_models_energy_of_the_chosen_sample(monkeypatch):
    folded_models, chosen = [], []
    numeric_pass, solve = planner.fix_numeric_diagonal, planner.solve

    def recording_pass(folded, report):
        folded = numeric_pass(folded, report)
        folded_models.append(folded.model)
        return folded

    def recording_solve(model, cfg, *, groups):
        sampleset = solve(model, cfg, groups=groups)
        ones = {i for i, b in enumerate(sampleset.best.bits) if b}
        chosen.append(folded_models[-1].energy(ones))
        return sampleset

    monkeypatch.setattr(planner, "fix_numeric_diagonal", recording_pass)
    monkeypatch.setattr(planner, "solve", recording_solve)
    result = plan_paths(GridMap(5, 5, frozenset({(2, 2)})),
                        [RobotSpec(0, (0, 0), (4, 4)), RobotSpec(1, (4, 0), (0, 4))],
                        window_cfg=WindowConfig(window_len=5),
                        solver_cfg=SolverConfig(seed=3, num_reads=50, sweeps=200))
    annealed = [w for w in result.windows if w.backend == "annealer"]
    assert len(annealed) >= 2 and all(w.retries == 0 for w in annealed)
    assert [w.best_energy for w in annealed] == chosen


@pytest.mark.parametrize("side", range(8, 15))
def test_decided_corridor_windows_build_no_model(side, monkeypatch):
    # Reachability fixing decides every window of a one-cell corridor, so
    # the plan needs no model, no sampler and no sampler seed.
    def unused(*args, **kwargs):
        raise AssertionError("a decided window built, seeded or sampled a model")

    for name in ("build_window_model", "solve", "derive_seed"):
        monkeypatch.setattr(planner, name, unused)
    grid, start, goal = serpentine(side, side % 8, side % 2 == 1)
    plan = plan_single(grid, start, goal,
                       window_cfg=WindowConfig(max_windows=side * side))
    assert plan.status == STATUS_REACHED
    assert plan.moves == path_moves(astar(grid, start, goal))
    assert plan.window_log and all(w.solved_by_preprocess for w in plan.window_log)


def test_decided_windows_compute_no_variable_index(monkeypatch):
    # Every window of `corridor(1)` is decided by presolve, so none of its
    # variables is ever indexed: no model, no fold, no decode.
    calls = 0
    real = qubo.var_index

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("quboplan") and hasattr(module, "var_index"):
            monkeypatch.setattr(module, "var_index", counted)
    for inst in corridor(1):
        result = plan_paths(inst.grid, inst.robots, weights=inst.weights,
                            window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
        assert result.succeeded
    assert calls == 0


def test_annealer_samples_decode_one_cell_per_step(monkeypatch):
    # The annealer sets one bit per (robot, step) group, so the repair never
    # meets a step with several cells, and neither its collapse branches nor
    # its start check ever fire in the pipeline.
    repairs, sampled = [], [False]
    build, solve, repair = planner.build_window, planner.solve, planner.fix_one_hot_continuity

    def recording_build(*args, **kwargs):
        sampled[0] = False
        return build(*args, **kwargs)

    def recording_solve(*args, **kwargs):
        sampled[0] = True
        return solve(*args, **kwargs)

    def recording_repair(occupancy, *args, **kwargs):
        outcome = repair(occupancy, *args, **kwargs)
        if sampled[0]:
            repairs.append((max(len(cells) for cells in occupancy), outcome))
        return outcome

    monkeypatch.setattr(planner, "build_window", recording_build)
    monkeypatch.setattr(planner, "solve", recording_solve)
    monkeypatch.setattr(planner, "fix_one_hot_continuity", recording_repair)
    runs = [load_scenario(str(path)) for path in sorted(SCENARIOS.glob("*.scn"))]
    for run in runs + city(0):
        plan_paths(run.grid, run.robots, weights=run.weights,
                   window_cfg=run.window_cfg, solver_cfg=run.solver_cfg)
    assert len(repairs) >= 50
    for widest, outcome in repairs:
        assert widest == 1
        assert outcome.dropped == 0 and outcome.reason in (None, "empty_step")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="each robot's one goal-reaching path through its first-reach"
                          " BFS layers crosses (1, 1) at t=1, so window 0 has no"
                          " conflict-free valid assignment (ROADMAP item 3)")
@pytest.mark.parametrize("backend", ["annealer", "exhaustive"])
def test_two_robots_cross_the_centre_of_an_empty_3x3_map(backend):
    result = plan_paths(GridMap(3, 3), [RobotSpec(0, (1, 0), (1, 2)),
                                        RobotSpec(1, (0, 1), (2, 1))],
                        solver_cfg=SolverConfig(backend=backend))
    assert result.succeeded, result.windows[-1].repairs


@pytest.mark.parametrize("window_len", [
    pytest.param(2, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="at t=2 robot 0 stands on (1, 4), two moves from its corner goal (0, 5);"
               " that is not closer than the horizon, so it gets the approximation"
               " reward, where the openness factor scores the goal 0.375"
               " against 0.486 for (0, 3), and the robot cycles until max_windows runs"
               " out (ROADMAP item 2)")),
    4,
])
def test_a_robot_two_moves_from_a_corner_goal_reaches_it(window_len):
    grid = GridMap(5, 6, frozenset({(1, 0), (2, 4), (4, 3)}))
    robots = [RobotSpec(0, (1, 2), (0, 5)), RobotSpec(1, (0, 0), (1, 4), release=5),
              RobotSpec(2, (3, 3), (2, 5))]
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=window_len),
                        solver_cfg=SolverConfig(num_reads=20, sweeps=150, seed=240))
    assert result.succeeded, [(p.status, p.moves) for p in result.plans]
