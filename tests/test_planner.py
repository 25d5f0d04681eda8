import hashlib
import json
import pathlib
import sys
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from perfbench.checker import check_plans
from perfbench.corpus import city, corridor, serpentine, shipped
from quboplan.classical import astar, prioritized_plan
from quboplan.grid import GridMap, bfs_layers, manhattan
from quboplan.penalties import PenaltyWeights, RobotWindow, WindowSpec, build_window_model
from quboplan import penalties, planner, qubo, solvers
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
    stitch,
)
from quboplan.preprocess import fix_logical
from quboplan.scenario import load_scenario
from quboplan.solvers import Sample, SampleSet, SolverConfig

from oracles import CellsWithoutIteration, all_shortest_paths

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_stitch_drops_boundary_duplicate():
    steps = [(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (2, 2))]
    merged = stitch(steps[:3], [(0, 2), (1, 2)])
    assert merged == [(0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (1, 2))]


def test_stitch_contract_violation():
    # A window that does not start on the plan's last cell leaves the plan
    # as it was.
    steps = [(0, (0, 0)), (1, (0, 1))]
    with pytest.raises(StitchError, match=r"^window starts at \(1, 1\) but plan ends at "
                                          r"\(0, 1\)$"):
        stitch(steps, iter([(1, 1), (1, 2)]))
    assert steps == [(0, (0, 0)), (1, (0, 1))]


@pytest.mark.parametrize("shape", [list, tuple, iter])
def test_stitch_takes_any_sequence_of_cells(shape):
    steps = [(4, (0, 0)), (5, (0, 1))]
    path = [(0, 1), (1, 1), (1, 2)]
    assert stitch(list(steps), shape(path)) == stitch(list(steps), path) == [
        (4, (0, 0)), (5, (0, 1)), (6, (1, 1)), (7, (1, 2))]
    assert stitch(list(steps), shape(path[:1])) == steps


@pytest.mark.parametrize("steps, path, side", [
    ([(0, (0, 0))], [], "window path"),
    ([(0, (0, 0))], iter([]), "window path"),
    ([], [(0, 0)], "plan"),
])
def test_stitch_names_an_empty_side(steps, path, side):
    # Either side empty used to raise a bare IndexError.
    before = list(steps)
    with pytest.raises(StitchError, match=f"^{side} is empty$"):
        stitch(steps, path)
    assert steps == before


def test_stitch_three_windows_contiguous():
    cells = [(0, j) for j in range(10)]
    steps = stitch([(0, cells[0])], cells[:4])
    steps = stitch(steps, cells[3:7])
    steps = stitch(steps, cells[6:10])
    assert [t for t, _ in steps] == list(range(10))
    assert [c for _, c in steps] == cells


def test_plan_single_empty_map_single_window():
    g = GridMap(5, 5)
    robots = [RobotSpec(0, (0, 0), (4, 4))]
    plan = plan_paths(g, robots, window_cfg=WindowConfig(window_len=10),
                      solver_cfg=SolverConfig(seed=2, num_reads=60, sweeps=400)).plans[0]
    assert plan.status == STATUS_REACHED
    assert plan.moves == 8
    assert len(plan.window_log) == 1
    assert check_plans(g, robots, {0: plan.steps}) == []


def test_plan_single_start_equals_goal(exhaustive):
    g = GridMap(3, 3)
    plan = plan_paths(g, [RobotSpec(0, (1, 1), (1, 1))]).plans[0]
    assert plan.status == STATUS_REACHED
    assert plan.moves == 0
    assert plan.window_log == []


def test_plan_single_walled_goal_is_infeasible_without_solving(exhaustive):
    g = GridMap(3, 3, frozenset({(1, 2), (2, 1)}))
    plan = plan_paths(g, [RobotSpec(0, (0, 0), (2, 2))]).plans[0]
    assert plan.status == STATUS_INFEASIBLE
    assert plan.window_log == []  # detected before any window was attempted


def test_plan_single_exhaustive_matches_shortest_distance(exhaustive):
    rng = np.random.default_rng(5)
    g = GridMap(3, 3, frozenset({(1, 1)}))
    for start, goal in (((0, 0), (2, 2)), ((0, 2), (2, 0)), ((1, 0), (1, 2))):
        plan = plan_paths(g, [RobotSpec(0, start, goal)],
                          window_cfg=WindowConfig(window_len=4)).plans[0]
        assert plan.status == STATUS_REACHED
        shortest = len(all_shortest_paths(g, start, goal)[0]) - 1
        assert plan.moves == shortest


def test_plan_single_ground_state_is_optimal_when_window_covers_distance(exhaustive):
    g = GridMap(4, 4)
    plan = plan_paths(g, [RobotSpec(0, (0, 0), (3, 3))],
                      window_cfg=WindowConfig(window_len=7)).plans[0]
    assert plan.status == STATUS_REACHED
    assert plan.moves == manhattan((0, 0), (3, 3))


def test_plan_multi_window_progression(exhaustive):
    # corridor longer than one window forces several fully-preprocessed hops
    g = GridMap(1, 9)
    plan = plan_paths(g, [RobotSpec(0, (0, 0), (0, 8))],
                      window_cfg=WindowConfig(window_len=3)).plans[0]
    assert plan.status == STATUS_REACHED
    assert plan.moves == 8
    assert len(plan.window_log) == 3
    assert [t for t, _ in plan.steps] == list(range(9))
    assert all(w.solved_by_preprocess for w in plan.window_log)


def test_plan_windowed_open_map_reaches_goal_validly(exhaustive):
    g = GridMap(4, 4)
    robots = [RobotSpec(0, (0, 0), (3, 3))]
    plan = plan_paths(g, robots, window_cfg=WindowConfig(window_len=3)).plans[0]
    assert plan.status == STATUS_REACHED
    assert check_plans(g, robots, {0: plan.steps}) == []
    assert 6 <= plan.moves <= 12  # at least the L1 bound, bounded wandering


def test_plan_window_budget_respected(exhaustive):
    g = GridMap(1, 9)
    cfg = WindowConfig(window_len=2, max_windows=2)
    plan = plan_paths(g, [RobotSpec(0, (0, 0), (0, 8))], window_cfg=cfg).plans[0]
    assert plan.status == "max_windows_exhausted"
    assert len(plan.window_log) <= 2


def test_plan_validates_each_window_on_its_own_map(monkeypatch, exhaustive):
    # The final check runs on the stitched plan, so a segment that the
    # window check never saw is still caught on the input map.
    def stitch_through_obstacle(steps, window_path):
        window_path = list(window_path)
        if window_path == [(0, 0), (1, 0), (1, 1)]:
            window_path[1] = (0, 1)
        return stitch(steps, window_path)

    grid = GridMap(2, 2, frozenset({(0, 1)}))
    robots = [RobotSpec(0, (0, 0), (1, 1))]
    assert plan_paths(grid, robots).plans[0].cells == [(0, 0), (1, 0), (1, 1)]
    monkeypatch.setattr(planner, "stitch", stitch_through_obstacle)
    plan = plan_paths(grid, robots).plans[0]
    assert plan.cells == [(0, 0), (0, 1), (1, 1)]
    assert plan.status == STATUS_EXHAUSTED
    assert plan.notes == ["validation failed: obstacle at step 1"]


def test_failed_deterministic_window_is_abandoned_without_a_retry(monkeypatch):
    calls = []
    attempt_window = planner._attempt_window

    def counting_attempt(window, *args):
        record, paths = attempt_window(window, *args)
        calls.append((window.spec.horizon, paths, list(record.repairs)))
        return record, paths

    monkeypatch.setattr(planner, "_attempt_window", counting_attempt)
    # Head-on in a one-cell corridor: each robot has one path, fixing decides
    # the window, and the two paths meet at t=1. The bound drops no cell, so
    # the first-reach try would repeat the decided first try and is skipped.
    result = plan_paths(GridMap(1, 3), [RobotSpec(0, (0, 0), (0, 2)),
                                        RobotSpec(1, (0, 2), (0, 0))])
    clash = "robots 0 and 1: vertex conflict at t=1"
    assert calls == [(6, None, [clash])]
    (window,) = result.windows
    assert (window.retries, window.escalated, window.horizon) == (0, False, 6)
    assert window.repairs == [f"window abandoned: {clash}"]
    assert [p.status for p in result.plans] == [STATUS_EXHAUSTED, STATUS_EXHAUSTED]


def _record_tries(monkeypatch, floors=PenaltyWeights()):
    """Each window try of the plans that follow, in call order, as (window
    index, seed parts, horizon, whether the goal bound narrowed its layers,
    k_adj, k_coll, accepted, repairs, weights, the weights derived from the
    try's window with `floors` as floors). The window holds the robots'
    visited cells, which grow as the plan goes on, so its derived weights
    are read during the try."""
    tries = []
    attempt_window = planner._attempt_window

    def recorded(window, agents, solver_cfg, seed):
        record, paths = attempt_window(window, agents, solver_cfg, seed)
        weights = window.spec.weights
        derived = penalties.derived_weights(replace(window.spec, weights=floors),
                                            window.admissible)
        tries.append((seed[0], seed[1:], window.spec.horizon, window.report.bound_dropped > 0,
                      weights.k_adj, weights.k_coll, paths is not None, list(record.repairs),
                      weights, derived))
        return record, paths

    monkeypatch.setattr(planner, "_attempt_window", recorded)
    return tries


def test_a_window_whose_minimum_steps_off_a_reached_goal_is_abandoned(monkeypatch, exhaustive):
    # Robot 2's start (2, 3), released at t=1, is closed for the whole of
    # window 0, so robot 0 must pass robot 1's goal (1, 3). At horizon 4 the
    # bounded try clashes, and the first-reach try's minimum, at the weights
    # derived from its window, has robot 1 step onto its goal at t=1 and off
    # it again: no constraint forbids leaving a goal, but the repair reads
    # the first arrival as parking, so robot 0 clashes with it, and the
    # window is abandoned. ROADMAP item 23 (derived weights that keep a
    # reached goal) should turn this back into a plan.
    tries = _record_tries(monkeypatch)
    grid = GridMap(3, 5, frozenset({(0, 1), (2, 0)}))
    robots = [RobotSpec(0, (2, 2), (2, 4)), RobotSpec(1, (1, 2), (1, 3)),
              RobotSpec(2, (2, 3), (1, 0), release=1), RobotSpec(3, (0, 0), (2, 1), release=1)]
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=4))
    clash = ["robots 0 and 1: vertex conflict at t=2"]
    assert [t[:4] + t[6:8] for t in tries] == [
        (0, (0, 0), 4, True, False, clash), (0, (0, 0), 4, False, False, clash)]
    assert tries[0][8] == PenaltyWeights()
    assert tries[1][8] == tries[1][9] and tries[1][4] > 2.0
    (window,) = result.windows
    assert (window.escalated, window.retries) == (False, 1)
    assert window.repairs == [f"window abandoned: {clash[0]}"]
    assert not result.succeeded


def test_an_invalid_exact_minimum_is_solved_again_at_the_same_horizon(monkeypatch):
    # Window 0's exact minimum breaks robot 1's path on the bounded layers.
    # On the first-reach layers, at the weights derived from their window,
    # it is a valid window, accepted at the same horizon with the same seed
    # parts.
    tries = _record_tries(monkeypatch)
    runs = []
    kernel = solvers._anneal_one_hot

    def recorded_kernel(layout, cfg, betas):
        runs.append(cfg.num_reads)
        return kernel(layout, cfg, betas)

    monkeypatch.setattr(solvers, "_anneal_one_hot", recorded_kernel)
    grid = GridMap(5, 4, frozenset({(0, 3), (4, 1)}))
    robots = [RobotSpec(0, (1, 1), (0, 0), release=7), RobotSpec(1, (1, 2), (1, 0)),
              RobotSpec(2, (0, 1), (3, 1))]
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=4),
                        solver_cfg=SolverConfig(num_reads=100, sweeps=300, seed=366))
    window_0 = [t for t in tries if t[0] == 0]
    assert [t[1:7] for t in window_0] == [
        ((0, 0), 4, True, 2.0, 4.0, False), ((0, 0), 4, False, 19.0, 19.0, True)]
    assert window_0[1][8] == window_0[1][9]
    assert tries[0][7] == ["robot 1: adjacency at t=2"]
    assert runs == []  # every window is answered by elimination
    assert (result.windows[0].escalated, result.windows[0].retries) == (False, 1)
    assert result.windows[0].histogram == [(result.windows[0].best_energy, 0)]
    assert result.succeeded
    assert [p.moves for p in result.plans] == [2, 4, 3]
    assert check_plans(grid, robots, {p.robot: p.steps for p in result.plans}) == []


def test_a_multi_robot_plan_commits_all_but_the_last_two_steps_of_a_window(monkeypatch):
    # Two robots in walled-off lanes: fixing decides every window. Each
    # window of 4 steps commits 2, so the clock and the stitched plan
    # advance by 2, and the cells past them are left out of `visited`. A
    # single robot commits the whole window.
    visited = []
    build = planner.build_window

    def recording_build(grid, robots, *args, **kwargs):
        visited.append([set(cells) for _, _, cells, _ in robots])
        return build(grid, robots, *args, **kwargs)

    monkeypatch.setattr(planner, "build_window", recording_build)
    grid = GridMap(3, 7, frozenset((1, j) for j in range(7)))
    lanes = [RobotSpec(0, (0, 0), (0, 6)), RobotSpec(1, (2, 6), (2, 0))]
    result = plan_paths(grid, lanes, window_cfg=WindowConfig(window_len=4))
    assert result.succeeded
    assert [w.global_start for w in result.windows] == [0, 2, 4]
    assert [w.horizon for w in result.windows] == [4, 4, 4]
    assert visited[1] == [{(0, 0), (0, 1), (0, 2)}, {(2, 6), (2, 5), (2, 4)}]
    assert [p.moves for p in result.plans] == [6, 6]
    alone = plan_paths(grid, lanes[:1], window_cfg=WindowConfig(window_len=4))
    assert [w.global_start for w in alone.windows] == [0, 4]


def test_planner_windows_read_the_goal_distances_of_the_walled_off_check(monkeypatch):
    # `plan_paths` hands each window the goal-rooted search it ran to check
    # reachability, so a window that searched the goal again would fail.
    def searched(*args):
        raise AssertionError("a planner window searched its goal again")

    approximated = []
    approximation = penalties.apply_approximation

    def counted(*args):
        approximated.append(args[2])
        return approximation(*args)

    monkeypatch.setattr(penalties, "bfs_distances", searched)
    monkeypatch.setattr(penalties, "apply_approximation", counted)
    for inst in city(0):
        result = plan_paths(inst.grid, inst.robots, inst.weights, inst.window_cfg,
                            inst.solver_cfg)
        assert result.succeeded, inst.name
    assert approximated


def test_the_window_loop_never_asks_the_map_for_neighbours(monkeypatch):
    # The two searches, the goal bound and the onward test of a reached goal
    # test a cell's steps inline, so planning never calls
    # `GridMap.neighbors`; the classical baselines still do.
    def asked(*args, **kwargs):
        raise AssertionError("the window loop called GridMap.neighbors")

    monkeypatch.setattr(GridMap, "neighbors", asked)
    for inst in (corridor(1)[0], city(0)[0]):
        result = plan_paths(inst.grid, inst.robots, inst.weights, inst.window_cfg,
                            inst.solver_cfg)
        assert result.succeeded, inst.name


def test_plans_ask_for_a_blocked_map_only_for_windows_with_a_parked_robot(monkeypatch):
    # The goal checks leave the parked robots out of their searches, so the
    # only blocked map a plan asks for is a window's. A robot planning alone
    # asks for none; in `city(0)`, where every robot is released at 0, each
    # window planned while a robot is parked asks for one, blocking the
    # parked cells.
    instances = corridor(1)
    calls = []
    with_obstacles = GridMap.with_obstacles

    def counted(self, extra):
        calls.append(frozenset(extra))
        return with_obstacles(self, extra)

    monkeypatch.setattr(GridMap, "with_obstacles", counted)
    windows = 0
    for inst in instances:
        result = plan_paths(inst.grid, inst.robots, inst.weights, inst.window_cfg,
                            inst.solver_cfg)
        assert result.succeeded, inst.name
        windows += len(result.windows)
    assert calls == [] and windows > 50 * len(instances)
    parked_windows = 0
    for inst in city(0):
        assert all(r.release == 0 for r in inst.robots)
        calls.clear()
        result = plan_paths(inst.grid, inst.robots, inst.weights, inst.window_cfg,
                            inst.solver_cfg)
        assert result.succeeded, inst.name
        parked = [frozenset(p.steps[-1][1] for p in result.plans
                            if p.steps[-1][0] <= w.global_start) for w in result.windows]
        assert calls == [cells for cells in parked if cells], inst.name
        parked_windows += len(calls)
    assert parked_windows >= 5


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
    attempt, solve = planner._attempt_window, planner.solve

    def recording_attempt(window, *args):
        windows.append(window)
        return attempt(window, *args)

    def scripted_solve(model, cfg, *, groups, seed_parts=()):
        if len(solved) == solves:
            return solve(model, cfg, groups=groups, seed_parts=seed_parts)
        dims, free_vars = windows[-1].spec.dims, windows[-1].folded.free_vars
        chosen = {qubo.var_index(dims, r, t, c)
                  for r, path in enumerate(paths) for t, c in enumerate(path)}
        bits = tuple(int(v in chosen) for v in free_vars)
        ones = {i for i, bit in enumerate(bits) if bit}
        solved.append(Sample(bits, model.energy(ones), cfg.num_reads))
        return SampleSet([solved[-1]])

    monkeypatch.setattr(planner, "_attempt_window", recording_attempt)
    monkeypatch.setattr(planner, "solve", scripted_solve)


def test_a_path_that_runs_to_the_horizon_past_a_reachable_goal_is_kept(monkeypatch, exhaustive):
    # The goal (0, 2) is admissible at t=2, before the horizon 3; the first
    # sample steers around it, within the goal bound's slack, and the next
    # window starts where it ends.
    path = [(0, 0), (1, 0), (1, 1), (1, 2)]
    _samples_take(monkeypatch, [path])
    result = plan_paths(GridMap(3, 3), [RobotSpec(0, (0, 0), (0, 2))],
                        window_cfg=WindowConfig(window_len=3))
    first, second = result.windows
    assert (first.retries, first.repairs) == (0, [])
    assert second.global_start == 3
    assert result.plans[0].steps[:4] == list(enumerate(path))
    assert result.succeeded


def test_a_robot_that_stops_short_of_a_reachable_goal_waits(monkeypatch, exhaustive):
    # Two walled-off rooms: the search ends at t=2 in both, so t=3 admits no
    # cell. Robot 0 could have stepped onto its goal at t=1 but stops beside
    # it, and waits there for the rest of the window. The window's first 3
    # of 5 steps are committed, the wait at t=3 among them.
    path = [(0, 0), (1, 0), (1, 1)]
    _samples_take(monkeypatch, [path, [(0, 3), (0, 4), (1, 4)]])
    result = plan_paths(GridMap(2, 5, frozenset({(0, 2), (1, 2)})),
                        [RobotSpec(0, (0, 0), (0, 1)), RobotSpec(1, (0, 3), (1, 4))],
                        window_cfg=WindowConfig(window_len=5))
    first = result.windows[0]
    assert (first.retries, first.repairs) == (0, ["robot 0: waits from t=3"])
    assert result.plans[0].steps[:4] == list(enumerate(path + [(1, 1)]))
    assert result.plans[1].status == STATUS_REACHED
    assert result.succeeded


def test_a_sample_whose_path_jumps_fails_the_try_at_that_step(monkeypatch, exhaustive):
    # Each step holds one cell, but (2, 0) at t=2 is no move from (0, 1).
    # Every solve, one for each of the two tries, returns that sample. The
    # goal bound narrows no layer of this window, but the first try ran a
    # solve, so the first-reach try at the same horizon is not skipped.
    tries = _record_tries(monkeypatch)
    path = [(0, 0), (0, 1), (2, 0), (2, 1)]
    _samples_take(monkeypatch, [path], solves=2)
    result = plan_paths(GridMap(3, 3), [RobotSpec(0, (0, 0), (2, 2))],
                        window_cfg=WindowConfig(window_len=3))
    jump = ["robot 0: adjacency at t=2"]
    assert [(t[2], t[3], t[7]) for t in tries] == [(3, False, jump)] * 2
    (window,) = result.windows
    assert (window.retries, window.escalated) == (1, False)
    assert window.repairs == ["window abandoned: robot 0: adjacency at t=2"]
    assert result.plans[0].steps == [(0, (0, 0))]
    assert result.plans[0].status == STATUS_EXHAUSTED


def test_a_single_robot_parks_on_a_dead_end_goal_in_its_first_reach_try(monkeypatch, exhaustive):
    # The goal (2, 2) is a dead end. The first solve returns a sample that
    # jumps from (1, 0) to (0, 2), which fails the bounded try. The
    # first-reach try runs at the given weights: its minimum parks on the
    # goal from t=4, breaking the moves the robot cannot make, and the
    # repair ends the path at that first arrival. Its minimum at derived
    # weights would run on to (1, 4) and jump onto the goal at t=6.
    tries = _record_tries(monkeypatch)
    _samples_take(monkeypatch, [[(0, 0), (1, 0), (0, 2), (1, 2), (2, 2), (2, 2), (2, 2)]])
    grid = GridMap(3, 5, frozenset({(2, 0), (2, 1), (2, 3), (2, 4)}))
    robots = [RobotSpec(0, (0, 0), (2, 2))]
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=6))
    assert [(t[2], t[3], t[6], t[7], t[8]) for t in tries] == [
        (6, True, False, ["robot 0: adjacency at t=2"], PenaltyWeights()),
        (6, False, True, [], PenaltyWeights())]
    assert tries[1][8] != tries[1][9]
    (window,) = result.windows
    assert (window.retries, window.escalated) == (1, False)
    assert result.succeeded
    assert result.plans[0].moves == 4
    assert check_plans(grid, robots, {p.robot: p.steps for p in result.plans}) == []


def _pinned_plan(grid, robots, window_len, digest):
    """The plan of `robots` at `window_len`, whose whole `to_json()`,
    dumped with sorted keys, must hash to `digest`. Each digest below pins
    one event after which the window loop recomputes its robot sets."""
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=window_len))
    dumped = json.dumps(result.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(dumped).hexdigest() == digest
    return result


def test_a_start_released_after_the_first_window_stays_blocked_until_then():
    # Robot 1 appears on (0, 2) at t=5, within the first window, so robot 0
    # goes round it; robot 1 joins at the window boundary t=8.
    result = _pinned_plan(GridMap(2, 5), [RobotSpec(0, (0, 0), (0, 4)),
                                          RobotSpec(1, (0, 2), (1, 0), release=5)], 6,
                          "050ce8eb2f77a9dc753fb7ad008bc8c7fd3c20a2f4137086e909eead736fbf61")
    assert result.succeeded
    assert (0, 2) not in result.plans[0].cells
    assert result.plans[1].steps[:4] == [(t, (0, 2)) for t in range(5, 9)]
    assert [w.global_start for w in result.windows] == [0, 4, 8]


@pytest.mark.parametrize("grid, parker, others, window_len, digest", [
    # Robot 1 crosses (0, 2) at t=2 and is still planning at t=5, when the
    # goal check runs again with the parker in place.
    (GridMap(1, 8), (0, 2), [RobotSpec(1, (0, 0), (0, 7))], 2,
     "e8039750321afc6fb97cb9fa019ce00d27d16151aec3187e65f814100e8d9227"),
    # Robot 1 crosses (0, 4) at t=1. The window at t=2 runs to t=6, so it
    # keeps the others off (0, 4), though no path would enter it.
    (GridMap(1, 6), (0, 4), [RobotSpec(1, (0, 5), (0, 1)), RobotSpec(2, (0, 0), (0, 3))], 4,
     "6d5c3569f8fc98ad0256095c21e80d1e9c900c948ff7feef8d6eb435a8b19228"),
], ids=["checked at release", "kept clear before release"])
def test_a_robot_whose_start_is_its_goal_is_passed_through_before_its_release(
        grid, parker, others, window_len, digest):
    result = _pinned_plan(grid, [RobotSpec(0, parker, parker, release=5)] + others,
                          window_len, digest)
    assert result.succeeded
    assert result.plans[0].steps == [(5, parker)]
    assert any(c == parker and t < 5 for t, c in result.plans[1].steps)


def test_a_robot_keeps_off_a_later_start_that_is_its_goal_until_it_is_left():
    # Robot 1 stands on robot 0's goal (0, 3) from its release at t=10, so
    # robot 0 waits beside it and parks only once robot 1 has moved on.
    grid = GridMap(1, 5)
    robots = [RobotSpec(0, (0, 0), (0, 3)), RobotSpec(1, (0, 3), (0, 4), release=10)]
    result = _pinned_plan(grid, robots, 6,
                          "18304014ed43337129ca3d9931c5931a7256014dbd00095d1a1db4efaf58e1a4")
    assert result.succeeded, result.unresolved_conflicts
    assert (result.clash_events, result.unresolved_conflicts) == ([], [])
    assert [p.moves for p in result.plans] == [13, 3]
    assert result.plans[0].steps[-1] == (13, (0, 3))
    assert check_plans(grid, robots, {p.robot: p.steps for p in result.plans}) == []


def test_a_clash_left_in_the_finished_plans_fails_the_plan(exhaustive):
    # Robot 2 yields to robot 1 with one wait and then meets robot 0 at its
    # release; the final check reports the clashes the waits cannot clear.
    result = _shared_start((0, 1, 2))
    assert not result.succeeded
    assert [p.status for p in result.plans] == [STATUS_REACHED] * 2 + [STATUS_EXHAUSTED]
    assert result.plans[2].notes == ["unresolved vertex conflict at t=3"]
    assert result.unresolved_conflicts == [(3, (0, 2), 1, 2), (4, (0, 1), 0, 2)]
    assert result.clash_events == ["robot 2 waits at (0, 2) before t=3 to avoid (0, 1)"]


def test_conflict_reports_name_robots_by_id(exhaustive):
    # The clashes above, with ids that are not the robots' positions.
    result = _shared_start((5, 9, 3))
    assert result.unresolved_conflicts == [(3, (0, 2), 9, 3), (4, (0, 1), 5, 3)]
    assert result.to_json()["unresolved_conflicts"] == [[3, [0, 2], 9, 3], [4, [0, 1], 5, 3]]
    assert result.plans[2].notes == ["unresolved vertex conflict at t=3"]


def _shared_start(ids):
    """Three robots in a one-row corridor, named by `ids`. The first two
    share the start (0, 1), the second released at t=1 and the first at
    t=3. The third robot walks from (0, 4) to (0, 0) and steps onto (0, 1)
    at t=3: the window at clock 2 keeps robots off a start released within
    it, but not off a cell a robot stands on, and the second robot stands
    there."""
    return plan_paths(GridMap(1, 5), [RobotSpec(ids[0], (0, 1), (0, 3), release=3),
                                      RobotSpec(ids[1], (0, 1), (0, 4), release=1),
                                      RobotSpec(ids[2], (0, 4), (0, 0))],
                      window_cfg=WindowConfig(window_len=4))


def test_clash_repair_waits_name_robots_by_id(exhaustive):
    result = _shared_start((5, 9, 3))
    assert result.clash_events == ["robot 3 waits at (0, 2) before t=3 to avoid (0, 1)"]
    assert result.unresolved_conflicts == [(3, (0, 2), 9, 3), (4, (0, 1), 5, 3)]


def test_a_clash_on_the_waiting_robots_own_cell_is_reported_at_once(exhaustive):
    # Robot 2's one wait keeps it on (0, 2) at t=3, where robot 1 then
    # arrives. Another wait there cannot clear that, so the repair reports
    # the clash instead of spending its budget of waits on it.
    result = _shared_start((0, 1, 2))
    assert result.clash_events == ["robot 2 waits at (0, 2) before t=3 to avoid (0, 1)"]
    assert result.unresolved_conflicts[0] == (3, (0, 2), 1, 2)
    assert not result.succeeded
    assert result.plans[2].notes == ["unresolved vertex conflict at t=3"]


def test_window_whose_paths_share_a_cell_is_retried_then_abandoned(monkeypatch):
    # Head-on in a corridor with a one-cell pocket below its middle cell
    # (0, 1): both robots must stand on (0, 1) at t=1, so no state keeps them
    # apart. Both tries decode that clash, and the window is abandoned.
    calls = []
    attempt_window = planner._attempt_window

    def counting_attempt(*args):
        record, paths = attempt_window(*args)
        calls.append((paths, record.repairs[-1]))
        return record, paths

    monkeypatch.setattr(planner, "_attempt_window", counting_attempt)
    result = plan_paths(GridMap(2, 3, frozenset({(1, 0), (1, 2)})),
                        [RobotSpec(0, (0, 0), (0, 2)), RobotSpec(1, (0, 2), (0, 0))],
                        solver_cfg=SolverConfig(seed=1, num_reads=20, sweeps=100))
    clash = "robots 0 and 1: vertex conflict at t=1"
    assert calls == [(None, clash)] * 2  # the bounded and the first-reach try
    (window,) = result.windows
    assert (window.retries, window.escalated) == (1, False)
    assert window.repairs[-1] == f"window abandoned: {clash}"
    assert not result.succeeded


def test_a_token_collision_weight_is_only_a_floor_for_the_re_solve(monkeypatch):
    # Both robots cross the centre of a 3x3 map at t=1. With a token
    # collision weight that clash is the first try's minimum; the
    # first-reach try raises `k_coll` above the objective's spread and plans
    # the window at the same horizon.
    tries = _record_tries(monkeypatch, PenaltyWeights(k_coll=0.01))
    result = plan_paths(GridMap(3, 3), [RobotSpec(0, (1, 0), (1, 2)),
                                        RobotSpec(1, (0, 1), (2, 1))],
                        weights=PenaltyWeights(k_coll=0.01),
                        window_cfg=WindowConfig(window_len=3),
                        solver_cfg=SolverConfig(seed=1, num_reads=20, sweeps=100))
    first, second = (t for t in tries if t[0] == 0)
    assert first[5:8] == (0.01, False, ["robots 0 and 1: vertex conflict at t=1"])
    assert second[5] > PenaltyWeights().k_coll and second[6]
    assert second[8] == first[9]
    assert (result.windows[0].escalated, result.windows[0].retries) == (False, 1)
    assert result.succeeded


def test_a_goal_walled_off_by_a_parked_robot_ends_infeasible_at_once():
    # Robot 1 parks on (1, 1), the only way into robot 0's goal (1, 0).
    grid = GridMap(3, 6, frozenset({(0, 0), (0, 3), (1, 4), (2, 1)}))
    result = _pinned_plan(grid, [RobotSpec(0, (2, 3), (1, 0)),
                                 RobotSpec(1, (0, 1), (1, 1), release=2)], 2,
                          "80a620739c388a2bc05b951497d7dafdceb44b00e88101d74e943117d63b5e11")
    walled, parked = result.plans
    assert parked.status == STATUS_REACHED
    assert walled.status == STATUS_INFEASIBLE
    assert walled.notes == ["goal (1, 0) walled off by parked robot(s) 1"]
    # Two-step windows commit one step each. Robot 1 joins at t=2 and
    # parks at the end of window 2; no window runs after that.
    assert [w.index for w in walled.window_log] == [0, 1, 2]
    assert len(result.windows) == 3


def test_a_robot_parked_from_the_start_can_wall_off_a_goal():
    result = plan_paths(GridMap(1, 3), [RobotSpec(0, (0, 0), (0, 2)),
                                        RobotSpec(1, (0, 1), (0, 1))])
    assert result.windows == []
    assert result.plans[0].status == STATUS_INFEASIBLE
    assert result.plans[0].notes == ["goal (0, 2) walled off by parked robot(s) 1"]


@pytest.mark.parametrize("parked, notes", [
    ([], ["goal (2, 2) unreachable from (0, 1) on the map"]),
    ([RobotSpec(1, (0, 0), (0, 0))], ["goal (2, 2) unreachable from (0, 1) on the map"]),
])
def test_a_goal_the_map_walls_off_ends_infeasible_before_any_window(parked, notes):
    # The map alone walls the goal off, so no parked robot is named.
    grid = GridMap(3, 3, frozenset({(1, 2), (2, 1)}))
    result = plan_paths(grid, [RobotSpec(0, (0, 1), (2, 2))] + parked)
    assert result.windows == []
    assert result.plans[0].status == STATUS_INFEASIBLE
    assert result.plans[0].notes == notes


def test_a_goal_the_map_walls_off_is_not_blamed_on_an_unrelated_parked_robot():
    # Obstacles alone enclose (0, 0); robot 1 is parked far from it.
    grid = GridMap(3, 5, frozenset({(0, 1), (1, 0), (1, 1)}))
    result = plan_paths(grid, [RobotSpec(0, (0, 0), (2, 2)), RobotSpec(1, (2, 4), (2, 4))])
    assert result.windows == []
    assert [p.status for p in result.plans] == [STATUS_INFEASIBLE, STATUS_REACHED]
    assert result.plans[0].notes == ["goal (2, 2) unreachable from (0, 0) on the map"]


def test_a_start_awaiting_release_walls_off_no_goal(exhaustive):
    # Robot 2 is parked from the start, so the goals are checked at once,
    # while robot 1's start still cuts robot 0 off from its goal. That start
    # is free again by the time robot 0 gets there.
    grid = GridMap(2, 4, frozenset({(1, 0), (1, 1), (1, 2)}))
    robots = [RobotSpec(0, (0, 0), (0, 2)), RobotSpec(1, (0, 1), (0, 0), release=5),
              RobotSpec(2, (1, 3), (1, 3))]
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=2))
    assert result.succeeded
    assert [p.status for p in result.plans] == [STATUS_REACHED] * 3


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

    listed, opaque = spec(set(visited)), spec(CellsWithoutIteration(visited))
    listed_report, listed_admissible = fix_logical(listed)
    report, admissible = fix_logical(opaque)
    assert report == listed_report
    assert admissible == listed_admissible
    # The revisit penalties ask the visited cells about each admissible cell.
    assert (build_window_model(opaque, admissible).coeffs
            == build_window_model(listed, listed_admissible).coeffs)
    assert (bfs_layers(grid, start, horizon, exclude_visited=opaque.robots[0].visited)
            == bfs_layers(grid, start, horizon, exclude_visited=visited - {start}))


def test_window_groups_label_each_free_variable_with_its_robot_and_step():
    grid = GridMap(4, 5, frozenset({(1, 1), (2, 3)}))
    window = build_window(grid, [((0, 0), (3, 4), {(0, 0)}), ((3, 0), (0, 4), {(3, 0)})], 5,
                          PenaltyWeights(), allow_wait=True)
    expected = []
    for v in window.folded.free_vars:
        occupancy = qubo.decode([v], window.spec.dims, 2)
        (robot, t), = [(r, t) for r, steps in enumerate(occupancy)
                       for t, cells in enumerate(steps) if cells]
        expected.append(robot * (window.spec.horizon + 1) + t)
    assert len(expected) > 10
    assert window.groups.tolist() == expected


def test_plan_release_offsets_single_robot(exhaustive):
    g = GridMap(1, 4)
    result = plan_paths(g, [RobotSpec(0, (0, 0), (0, 3), release=2)],
                        window_cfg=WindowConfig(window_len=4))
    plan = result.plans[0]
    assert plan.status == STATUS_REACHED
    assert plan.steps[0] == (2, (0, 0))
    assert plan.steps[-1] == (5, (0, 3))


def test_window_records_say_who_answered(monkeypatch, first_reach):
    # On first-reach layers and with elimination's table cap lowered to 3
    # entries, this plan's fourth window still fits it and its first and
    # fifth are annealed; fixing decides the second and third. (Under the
    # goal bound, fixing also decides the first, and the fourth and fifth
    # take tables of one size.) The label is read off the sample set:
    # elimination's one state carries 0 occurrences, and an annealed set
    # counts every read.
    monkeypatch.setattr(solvers, "_EXACT_TABLE_CAP", 3)
    answers, solve = [], planner.solve

    def recorded(model, cfg, *, groups, seed_parts=()):
        answers.append((cfg.num_reads, solve(model, cfg, groups=groups, seed_parts=seed_parts)))
        return answers[-1][1]

    monkeypatch.setattr(planner, "solve", recorded)
    spec = load_scenario(str(pathlib.Path(__file__).parent / "scenarios"
                             / "multi10_4_window4.scn"))
    result = plan_paths(spec.grid, spec.robots, weights=spec.weights,
                        window_cfg=spec.window_cfg, solver_cfg=spec.solver_cfg)
    assert result.succeeded and all(w.retries == 0 for w in result.windows)
    assert [w.backend for w in result.windows] == ["annealer", "presolve", "presolve",
                                                   "exact", "annealer"]
    solved = [w for w in result.windows if w.backend != "presolve"]
    assert len(solved) == len(answers)
    for window, (reads, sampleset) in zip(solved, answers):
        counts = [s.occurrences for s in sampleset]
        assert window.histogram == [(s.energy, s.occurrences) for s in sampleset.samples[:8]]
        assert sum(counts) == (reads if window.backend == "annealer" else 0)
    # The histogram keeps the 8 lowest samples; the fifth window's reads end
    # in fewer states, so its histogram counts all 200 of them.
    assert sum(n for _, n in result.windows[4].histogram) == spec.solver_cfg.num_reads == 200
    assert result.windows[3].histogram == [(result.windows[3].best_energy, 0)]


def test_plan_json_shape(exhaustive):
    g = GridMap(2, 2)
    plan = plan_paths(g, [RobotSpec(0, (0, 0), (1, 1))],
                      window_cfg=WindowConfig(window_len=2)).plans[0]
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


@pytest.mark.parametrize("value", [1.5, True])
def test_a_release_that_is_not_an_int_is_rejected(value):
    # A float release used to fail mid-plan with a bare TypeError, and True
    # planned as release 1.
    with pytest.raises(ValueError, match=f"^release must be an integer, got {value!r}$"):
        RobotSpec(0, (0, 0), (2, 2), release=value)


@pytest.mark.parametrize("value", ["a", 1.0, True])
def test_an_id_that_is_not_an_int_is_rejected(value):
    # An id of "a" next to an int id crashed `plan_multi`'s sort with a bare
    # TypeError, and an id of 1.0 planned and printed "robot": 1.0.
    with pytest.raises(ValueError, match=f"^id must be an integer, got {value!r}$"):
        RobotSpec(value, (0, 0), (2, 2))


@pytest.mark.parametrize("field", ["start", "goal"])
@pytest.mark.parametrize("cell", [(0.5, 1), (1, 1, 1), (True, 1), [1, 1]])
def test_an_endpoint_that_is_not_a_pair_of_ints_is_rejected(field, cell):
    # A start of (0.5, 1) used to plan, and end infeasible with "goal (2, 2)
    # unreachable from (0.5, 1) on the map".
    endpoints = {"start": (0, 0), "goal": (2, 2), field: cell}
    with pytest.raises(ValueError) as excinfo:
        RobotSpec(0, **endpoints)
    assert str(excinfo.value) == f"{field} {cell!r} is not a pair of integers"


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(window_len=1)
    with pytest.raises(ValueError):
        WindowConfig(max_windows=0)


@pytest.mark.parametrize("field", ["window_len", "max_windows"])
@pytest.mark.parametrize("value", [3.5, True])
def test_window_config_rejects_a_count_that_is_not_an_int(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        WindowConfig(**{field: value})


def test_best_energy_is_the_folded_models_energy_of_the_chosen_sample(monkeypatch):
    folded_models, chosen = [], []
    numeric_pass, solve = planner.fix_numeric_diagonal, planner.solve

    def recording_pass(folded, report):
        folded = numeric_pass(folded, report)
        folded_models.append(folded.model)
        return folded

    def recording_solve(model, cfg, *, groups, seed_parts=()):
        sampleset = solve(model, cfg, groups=groups, seed_parts=seed_parts)
        ones = {i for i, b in enumerate(sampleset.best.bits) if b}
        chosen.append(folded_models[-1].energy(ones))
        return sampleset

    monkeypatch.setattr(planner, "fix_numeric_diagonal", recording_pass)
    monkeypatch.setattr(planner, "solve", recording_solve)
    result = plan_paths(GridMap(5, 5, frozenset({(2, 2)})),
                        [RobotSpec(0, (0, 0), (4, 4)), RobotSpec(1, (4, 0), (0, 4))],
                        window_cfg=WindowConfig(window_len=5),
                        solver_cfg=SolverConfig(seed=3, num_reads=50, sweeps=200))
    solved = [w for w in result.windows if w.backend != "presolve"]
    assert len(solved) >= 2 and all(w.retries == 0 for w in solved)
    assert [w.best_energy for w in solved] == chosen


@pytest.mark.parametrize("side", range(8, 15))
def test_decided_corridor_windows_build_no_model(side, monkeypatch):
    # Reachability fixing decides every window of a one-cell corridor, so
    # the plan needs no model, no sampler and no sampler seed.
    def unused(*args, **kwargs):
        raise AssertionError("a decided window built, seeded or sampled a model")

    for module, name in ((planner, "build_window_model"), (planner, "solve"),
                         (solvers, "derive_seed")):
        monkeypatch.setattr(module, name, unused)
    grid, start, goal = serpentine(side, side % 8, side % 2 == 1)
    plan = plan_paths(grid, [RobotSpec(0, start, goal)],
                      window_cfg=WindowConfig(max_windows=side * side)).plans[0]
    assert plan.status == STATUS_REACHED
    assert plan.moves == len(astar(grid, start, goal)) - 1
    assert plan.window_log and all(w.solved_by_preprocess for w in plan.window_log)


def _plan_benchmark_traffic():
    """Plan `shipped(0)` and `city(0)`, each plan checked to succeed."""
    for run in [*shipped(SCENARIOS, 0), *city(0)]:
        result = plan_paths(run.grid, run.robots, weights=run.weights,
                            window_cfg=run.window_cfg, solver_cfg=run.solver_cfg)
        assert result.succeeded, run.name


def test_the_solved_model_is_the_complete_one_without_the_one_hot_pairs(monkeypatch):
    # Over every window of the benchmark traffic that a try solves, the
    # model the planner solves (`one_hot`) is the complete one (`folded`)
    # without the pair terms inside a (robot, step) group, each 2 * k_hot:
    # the same free variables, groups and constant, and every other
    # coefficient equal, in the same order. Reading the complete model after
    # it lowers the report's counts no further. The window holds the robots'
    # visited cells, which grow as the plan goes on, so both are read during
    # the try.
    solved, attempt = [], planner._attempt_window

    def recorded(window, *args):
        outcome = attempt(window, *args)
        if window.report.reduced_count:
            counts = (window.report.reduced_count, window.report.numeric_fixed)
            solved.append((window, window.one_hot, window.folded))
            assert counts == (window.report.reduced_count, window.report.numeric_fixed)
        return outcome

    monkeypatch.setattr(planner, "_attempt_window", recorded)
    _plan_benchmark_traffic()
    assert len(solved) >= 80
    pairs = 0
    for window, one_hot, folded in solved:
        assert (one_hot.free_vars, one_hot.fixed_one) == (folded.free_vars, folded.fixed_one)
        assert one_hot.model.constant == folded.model.constant
        groups = window.groups
        per_cell = window.spec.grid.rows * window.spec.grid.cols
        assert groups.tolist() == [v // per_cell for v in folded.free_vars]
        inside = {(a, b): w for (a, b), w in folded.model.coeffs.items()
                  if a != b and groups[a] == groups[b]}
        assert set(inside.values()) <= {2.0 * window.spec.weights.k_hot}
        assert list(one_hot.model.coeffs.items()) == [
            (key, w) for key, w in folded.model.coeffs.items() if key not in inside]
        pairs += len(inside)
    assert pairs > 0


def test_windows_are_folded_before_the_plan_grows_their_visited_cells(monkeypatch):
    # A window holds the robots' visited sets, not copies, and the plan grows
    # them once the window's try is over. Visited sets only grow, so a set
    # whose size at fold time is its size at build time is the one the
    # window was built on.
    sizes, folds = {}, 0
    build, one_hot = planner.build_window, planner.Window.one_hot.func

    def recording_build(*args, **kwargs):
        window = build(*args, **kwargs)
        robots = window.spec.robots
        sizes[id(robots)] = (robots, [len(rec.visited) for rec in robots])
        return window

    def checked_one_hot(window):
        nonlocal folds
        robots, at_build = sizes[id(window.spec.robots)]
        assert robots is window.spec.robots
        assert [len(rec.visited) for rec in robots] == at_build
        folds += 1
        return one_hot(window)

    hooked = cached_property(checked_one_hot)
    hooked.__set_name__(planner.Window, "one_hot")
    monkeypatch.setattr(planner, "build_window", recording_build)
    monkeypatch.setattr(planner.Window, "one_hot", hooked)
    _plan_benchmark_traffic()
    assert folds >= 80


@pytest.mark.parametrize("order", [("folded", "one_hot"), ("one_hot", "folded")])
def test_a_window_builds_folds_and_presolves_one_model(order, monkeypatch):
    # The complete QUBO is the solved model plus its one-hot pairs, so a
    # window that is read both ways builds and presolves its model once.
    calls = {"build_window_model": 0, "fix_numeric_diagonal": 0}

    def counted(name):
        original = getattr(planner, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    for name in calls:
        monkeypatch.setattr(planner, name, counted(name))
    inst = city(0)[0]
    window = planner.build_window(inst.grid, [(r.start, r.goal, {r.start}) for r in inst.robots],
                                  inst.window_cfg.window_len, inst.weights, allow_wait=True,
                                  bounded=False)
    assert window.report.reduced_count
    for name in order:
        getattr(window, name)
    assert calls == {"build_window_model": 1, "fix_numeric_diagonal": 1}
    assert window.folded.free_vars == window.one_hot.free_vars


def test_the_benchmark_traffic_repairs_steps_of_one_cell_at_most(monkeypatch):
    # Presolved layers and decoded one-hot samples both give the repair one
    # cell per step, or none, so its candidate lists never run on this
    # traffic; `fix_one_hot_continuity` checks such a step directly.
    widths, repair = [], planner.fix_one_hot_continuity

    def recording_repair(occupancy, *args, **kwargs):
        widths.append(max(len(cells) for cells in occupancy))
        return repair(occupancy, *args, **kwargs)

    monkeypatch.setattr(planner, "fix_one_hot_continuity", recording_repair)
    _plan_benchmark_traffic()
    for inst in corridor(1):
        result = plan_paths(inst.grid, inst.robots, weights=inst.weights,
                            window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
        assert result.succeeded, inst.name
    assert len(widths) >= 1900
    assert max(widths) == 1


def test_exact_windows_derive_no_sampler_seed(monkeypatch):
    # Every window of the benchmark traffic is answered exactly, and `solve`
    # derives the sampler's seed from the seed parts only when it anneals.
    def refuse(*args, **kwargs):
        raise AssertionError("a window answered exactly derived a sampler seed")

    monkeypatch.setattr(solvers, "derive_seed", refuse)
    _plan_benchmark_traffic()


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


@pytest.mark.parametrize("solver", ["annealer", "exhaustive"])
def test_two_robots_cross_the_centre_of_an_empty_3x3_map(solver, request):
    # The first try breaks a path, and the first-reach try at derived
    # weights, at the same horizon, sends one robot round the edge of the
    # map, where it then waits: a detour, not a yield inside the window.
    if solver == "exhaustive":
        request.getfixturevalue("exhaustive")
    result = plan_paths(GridMap(3, 3), [RobotSpec(0, (1, 0), (1, 2)),
                                        RobotSpec(1, (0, 1), (2, 1))])
    assert result.succeeded, result.windows[-1].repairs
    assert (result.windows[0].escalated, result.windows[0].retries) == (False, 1)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a robot's admissible cell at step t lies exactly t moves from its"
                          " start, so neither robot can wait for the other inside a window;"
                          " the plans detour instead, 7 moves in all through `solve` and"
                          " through the exhaustive oracle (ROADMAP item 3)")
@pytest.mark.parametrize("solver", ["annealer", "exhaustive"])
def test_two_robots_cross_the_centre_of_an_empty_3x3_map_in_the_moves_prioritized_needs(solver,
                                                                                        request):
    if solver == "exhaustive":
        request.getfixturevalue("exhaustive")
    robots = [RobotSpec(0, (1, 0), (1, 2)), RobotSpec(1, (0, 1), (2, 1))]
    result = plan_paths(GridMap(3, 3), robots)
    assert result.succeeded, result.windows[-1].repairs
    reference = prioritized_plan(GridMap(3, 3), robots)
    assert sum(p.moves for p in result.plans) == sum(
        steps[-1][0] - steps[0][0] for steps in reference.values()) == 5


# Robot 0's goal (0, 5) sits in a corner; at `window_len` 2 a window
# commits one step, and the robot reaches its goal all the same.
@pytest.mark.parametrize("window_len", [2, 4])
def test_a_robot_two_moves_from_a_corner_goal_reaches_it(window_len):
    grid = GridMap(5, 6, frozenset({(1, 0), (2, 4), (4, 3)}))
    robots = [RobotSpec(0, (1, 2), (0, 5)), RobotSpec(1, (0, 0), (1, 4), release=5),
              RobotSpec(2, (3, 3), (2, 5))]
    result = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=window_len),
                        solver_cfg=SolverConfig(num_reads=20, sweeps=150, seed=240))
    assert result.succeeded, [(p.status, p.moves) for p in result.plans]
