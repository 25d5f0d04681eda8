import math
import pathlib

import numpy as np
import pytest

from perfbench.corpus import city
from quboplan import penalties, planner
from quboplan.grid import GridMap, manhattan
from quboplan.penalties import (
    BT_SOFT_FACTOR,
    EARLY_GOAL_PENALTY,
    PenaltyWeights,
    RobotWindow,
    START_REWARD,
    WindowSpec,
    apply_adjacency,
    apply_approximation,
    apply_backtracking,
    apply_goal_late_time,
    apply_goal_lock,
    apply_one_hot,
    apply_start,
    apply_teleportation,
    apply_vertex_collision,
    build_window_model,
    dense_admissible,
    goal_factor,
)
from quboplan.qubo import QuboModel, block_size, var_index
from quboplan.scenario import load_scenario

from oracles import penalty_energy


W = PenaltyWeights()
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def spec_1x2(horizon=1):
    g = GridMap(1, 2)
    rec = RobotWindow(start=(0, 0), goal=(0, 1))
    return WindowSpec(g, (rec,), horizon, W)


def fresh_model(spec):
    return QuboModel(len(spec.robots) * block_size(spec.dims))


def test_one_hot_contributions():
    spec = spec_1x2()
    adm = dense_admissible(spec)
    model = apply_one_hot(fresh_model(spec), spec, 0, adm)
    a = var_index(spec.dims, 0, 0, (0, 0))
    b = var_index(spec.dims, 0, 0, (0, 1))
    # satisfied step costs zero, double occupancy and empty step cost k_hot
    assert model.energy({a}) - model.energy(set()) + W.k_hot == pytest.approx(0.0)
    assert model.constant == W.k_hot * 2
    assert model.get(a, b) == 2 * W.k_hot
    assert model.energy({a, b}) == pytest.approx(W.k_hot + model.energy({a}))


def test_adjacency_contributions():
    spec = spec_1x2()
    adm = dense_admissible(spec)
    model = apply_adjacency(fresh_model(spec), spec, 0, adm)
    a0 = var_index(spec.dims, 0, 0, (0, 0))
    b1 = var_index(spec.dims, 0, 1, (0, 1))
    assert model.energy({a0, b1}) == pytest.approx(0.0)  # continuous
    assert model.energy({a0}) == pytest.approx(W.k_adj)  # broken continuity


def test_adjacency_diagonal_jump_penalized():
    g = GridMap(2, 2)
    rec = RobotWindow(start=(0, 0), goal=(1, 1))
    spec = WindowSpec(g, (rec,), 1, W)
    adm = dense_admissible(spec)
    model = apply_adjacency(fresh_model(spec), spec, 0, adm)
    a = var_index(spec.dims, 0, 0, (0, 0))
    b = var_index(spec.dims, 0, 1, (1, 1))
    # (1,1) is not a 4-neighbor of (0,0): the step stays penalized
    assert model.energy({a, b}) == pytest.approx(W.k_adj)


def test_start_reward():
    spec = spec_1x2()
    adm = dense_admissible(spec)
    model = apply_start(fresh_model(spec), spec, 0, adm)
    a = var_index(spec.dims, 0, 0, (0, 0))
    assert model.get(a, a) == -START_REWARD
    assert model.energy(set()) == 0.0


def test_goal_late_time_ramp():
    g = GridMap(1, 5)
    rec = RobotWindow(start=(0, 0), goal=(0, 4))
    spec = WindowSpec(g, (rec,), 4, PenaltyWeights(k_goal=1.0))
    adm = dense_admissible(spec)
    model = apply_goal_late_time(fresh_model(spec), spec, 0, adm)
    goal_var = lambda t: var_index(spec.dims, 0, t, (0, 4))
    assert model.get(goal_var(0), goal_var(0)) == 0.0  # never at step 0
    assert model.get(goal_var(2), goal_var(2)) == pytest.approx(-1.5)
    assert model.get(goal_var(4), goal_var(4)) == pytest.approx(-2.0)


def test_goal_lock_contributions():
    spec = spec_1x2(horizon=2)
    adm = dense_admissible(spec)
    model = apply_goal_lock(fresh_model(spec), spec, 0, adm)
    g1 = var_index(spec.dims, 0, 1, (0, 1))
    g2 = var_index(spec.dims, 0, 2, (0, 1))
    assert model.energy({g1, g2}) == pytest.approx(0.0)   # parked through the end
    assert model.energy({g1}) == pytest.approx(W.k_lock)  # leaves the goal
    assert model.energy(set()) == 0.0


def test_backtracking_pairs_and_goal_exemption():
    g = GridMap(1, 4)
    rec = RobotWindow(start=(0, 0), goal=(0, 3))
    spec = WindowSpec(g, (rec,), 3, W)
    adm = dense_admissible(spec)
    model = apply_backtracking(fresh_model(spec), spec, 0, adm)
    c1 = var_index(spec.dims, 0, 1, (0, 1))
    c3 = var_index(spec.dims, 0, 3, (0, 1))
    assert model.get(c1, c3) == W.k_bt
    goal2 = var_index(spec.dims, 0, 2, (0, 3))
    goal3 = var_index(spec.dims, 0, 3, (0, 3))
    assert model.get(goal2, goal3) == 0.0


def test_backtracking_visited_softening():
    g = GridMap(1, 4)
    rec = RobotWindow(start=(0, 0), goal=(0, 3), visited=frozenset({(0, 1)}))
    spec = WindowSpec(g, (rec,), 2, W)
    adm = dense_admissible(spec)
    model = apply_backtracking(fresh_model(spec), spec, 0, adm)
    v = var_index(spec.dims, 0, 2, (0, 1))
    assert model.get(v, v) == pytest.approx(W.k_bt * BT_SOFT_FACTOR)


def test_teleportation_before_bound_only():
    g = GridMap(5, 5)
    rec = RobotWindow(start=(0, 0), goal=(2, 2))
    spec = WindowSpec(g, (rec,), 6, W)
    adm = dense_admissible(spec)
    model = apply_teleportation(fresh_model(spec), spec, 0, adm)
    early = var_index(spec.dims, 0, 2, (2, 2))
    late = var_index(spec.dims, 0, 4, (2, 2))
    assert model.get(early, early) == EARLY_GOAL_PENALTY
    assert model.get(late, late) == 0.0


def test_teleportation_degenerate_start_is_goal():
    g = GridMap(3, 3)
    rec = RobotWindow(start=(1, 1), goal=(1, 1))
    spec = WindowSpec(g, (rec,), 2, W)
    model = apply_teleportation(fresh_model(spec), spec, 0, dense_admissible(spec))
    assert len(model) == 0


def test_approximation_rewards():
    g = GridMap(5, 5)
    rec = RobotWindow(start=(0, 0), goal=(4, 4))
    spec = WindowSpec(g, (rec,), 3, PenaltyWeights(k_approx=1.0))
    adm = dense_admissible(spec)
    model = apply_approximation(fresh_model(spec), spec, 0, adm)
    center = var_index(spec.dims, 0, 3, (2, 2))
    assert model.get(center, center) == pytest.approx(-0.5)  # halfway, open space
    goal = var_index(spec.dims, 0, 3, (4, 4))
    assert model.get(goal, goal) == pytest.approx(-3 / 8)  # borders crowd the corner
    far = var_index(spec.dims, 0, 2, (2, 2))
    assert model.get(far, far) == 0.0  # only the final step is rewarded


def test_vertex_collision_pairs():
    g = GridMap(3, 3)
    recs = (
        RobotWindow(start=(0, 0), goal=(2, 2)),
        RobotWindow(start=(2, 0), goal=(0, 2)),
    )
    spec = WindowSpec(g, recs, 2, W)
    adm = dense_admissible(spec)
    model = apply_vertex_collision(fresh_model(spec), spec, adm)
    a = var_index(spec.dims, 0, 1, (1, 1))
    b = var_index(spec.dims, 1, 1, (1, 1))
    assert model.get(a, b) == W.k_coll
    a2 = var_index(spec.dims, 0, 1, (0, 1))
    b2 = var_index(spec.dims, 1, 1, (1, 0))
    assert model.get(a2, b2) == 0.0  # different cells never couple


def test_vertex_collision_symmetric_in_robot_order():
    g = GridMap(2, 2)
    recs = (
        RobotWindow(start=(0, 0), goal=(1, 1)),
        RobotWindow(start=(1, 1), goal=(0, 0)),
    )
    spec_ab = WindowSpec(g, recs, 2, W)
    spec_ba = WindowSpec(g, recs[::-1], 2, W)
    m_ab = apply_vertex_collision(fresh_model(spec_ab), spec_ab, dense_admissible(spec_ab))
    m_ba = apply_vertex_collision(fresh_model(spec_ba), spec_ba, dense_admissible(spec_ba))
    # robot blocks swap, but the coupled (cell, step) pairs are the same
    def pairs(spec, model):
        out = set()
        block = block_size(spec.dims)
        for (a, b) in model.coeffs:
            out.add((a % block, b % block))
        return out
    assert pairs(spec_ab, m_ab) == pairs(spec_ba, m_ba)


def test_valid_path_scores_only_goal_rewards():
    g = GridMap(1, 3)
    rec = RobotWindow(start=(0, 0), goal=(0, 2))
    # The goal is closer than the horizon, so it earns the late-time reward
    # at each step the robot parks on it.
    spec = WindowSpec(g, (rec,), 3, W, allow_wait=True)
    adm = dense_admissible(spec)
    model = build_window_model(spec, adm)
    path = [(0, 0), (0, 1), (0, 2), (0, 2)]
    ones = {var_index(spec.dims, 0, t, c) for t, c in enumerate(path)}
    expected = -START_REWARD - W.k_goal * (goal_factor(2, 3) + goal_factor(3, 3))
    assert model.energy(ones) == pytest.approx(expected)


def _random_window(rng):
    while True:
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 5))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        obstacles = frozenset(c for c in cells if rng.random() < 0.15)
        free = [c for c in cells if c not in obstacles]
        if len(free) < 3:
            continue
        picks = rng.choice(len(free), size=min(4, len(free)), replace=False)
        n_robots = 2 if len(free) >= 4 and rng.random() < 0.5 else 1
        horizon = int(rng.integers(1, 5))
        recs = []
        for r in range(n_robots):
            start = free[int(picks[2 * r])]
            goal = free[int(picks[2 * r + 1])]
            visited = frozenset(c for c in free if rng.random() < 0.2)
            recs.append(RobotWindow(start=start, goal=goal, visited=visited))
        weights = PenaltyWeights(
            k_hot=float(rng.integers(1, 6)),
            k_adj=float(rng.integers(1, 5)),
            k_goal=float(rng.integers(1, 4)),
            k_lock=float(rng.integers(1, 3)),
            k_bt=0.5 * float(rng.integers(1, 5)),
            k_approx=float(rng.integers(1, 3)),
            k_coll=float(rng.integers(1, 6)),
        )
        return WindowSpec(GridMap(rows, cols, obstacles), tuple(recs), horizon, weights,
                          allow_wait=n_robots > 1)


def test_model_energy_matches_direct_formulas():
    rng = np.random.default_rng(42)
    for _ in range(120):
        spec = _random_window(rng)
        adm = dense_admissible(spec)
        model = build_window_model(spec, adm)
        dims = spec.dims
        for _ in range(4):
            occupancy = []
            ones = set()
            for r in range(len(spec.robots)):
                per_t = {}
                for t in range(spec.horizon + 1):
                    chosen = {c for c in adm[r][t] if rng.random() < 0.25}
                    if chosen:
                        per_t[t] = chosen
                        ones |= {var_index(dims, r, t, c) for c in chosen}
                occupancy.append(per_t)
            direct = penalty_energy(spec, adm, occupancy, allow_wait=spec.allow_wait)
            assert model.energy(ones) == pytest.approx(direct, abs=1e-9)


def test_criterion_6_draws_both_goal_rewards_many_times(monkeypatch):
    # Replays the windows that acceptance criterion 6 draws from its seed:
    # 1000 occupancies, four per window, each taking one draw per variable.
    # The dense model admits a free goal at every step, so the goal's L1
    # distance alone picks the reward; both branches must stay under test.
    calls = {"late": 0, "approx": 0}

    def counting(name, emit):
        def counted(*args):
            calls[name] += 1
            return emit(*args)
        return counted

    monkeypatch.setattr(penalties, "apply_goal_late_time",
                        counting("late", penalties.apply_goal_late_time))
    monkeypatch.setattr(penalties, "apply_approximation",
                        counting("approx", penalties.apply_approximation))
    rng = np.random.default_rng(2024)
    for _ in range(1000 // 4):
        spec = _random_window(rng)
        build_window_model(spec)
        variables = len(spec.robots) * (spec.horizon + 1) * len(spec.grid.free_cells())
        rng.random(4 * variables)
    assert min(calls.values()) >= 100, calls


def test_obstacle_cells_never_receive_variables():
    from quboplan.preprocess import fix_logical

    g = GridMap(4, 4, frozenset({(1, 1), (2, 3), (3, 0)}))
    rec = RobotWindow(start=(0, 0), goal=(3, 3))
    spec = WindowSpec(g, (rec,), 6, W)
    obstacle_vars = {
        var_index(spec.dims, 0, t, c)
        for t in range(spec.horizon + 1)
        for c in g.obstacles
    }
    for adm in (dense_admissible(spec), fix_logical(spec)[1]):
        model = build_window_model(spec, adm)
        used = {a for key in model.coeffs for a in key}
        assert not (used & obstacle_vars)


def test_built_models_store_no_zero_coefficients():
    from quboplan.planner import build_window

    g = GridMap(5, 5, frozenset({(2, 2)}))
    built = build_window(g, [((0, 0), (4, 4), {(0, 0)})], 10, W)
    dense = build_window_model(built.spec)
    assert all(w != 0.0 for w in dense.coeffs.values())
    assert all(w != 0.0 for w in built.folded.model.coeffs.values())


def test_weights_validation():
    with pytest.raises(ValueError):
        PenaltyWeights(k_hot=0.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="k_adj must be finite and strictly positive"):
            PenaltyWeights(k_adj=value)


def test_window_spec_rejects_horizon_below_one():
    rec = RobotWindow(start=(0, 0), goal=(0, 1))
    assert WindowSpec(GridMap(1, 2), (rec,), 1, W).horizon == 1
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        WindowSpec(GridMap(1, 2), (rec,), 0, W)


# `START_REWARD` and `EARLY_GOAL_PENALTY` are constants because no planner
# window can feel them: its layer 0 is the start alone, and its goal is
# admitted no earlier than its L1 distance. The tests below check that
# premise on every window the planner builds, so a change to the admissible
# sets that breaks it fails here.


def _assert_start_forced_and_goal_not_early(spec, admissible):
    for robot, rec in enumerate(spec.robots):
        layers = admissible[robot]
        assert layers[0] == {rec.start}
        early = min(manhattan(rec.start, rec.goal), len(layers))
        assert not any(rec.goal in layers[t] for t in range(early))
        assert len(apply_teleportation(fresh_model(spec), spec, robot, admissible)) == 0


@pytest.fixture
def planner_windows(monkeypatch):
    """Every (spec, admissible sets) pair that `fix_logical` returns to the
    planner while the test runs."""
    seen = []
    fix_logical = planner.fix_logical

    def recording(spec):
        report, admissible = fix_logical(spec)
        seen.append((spec, admissible))
        return report, admissible

    monkeypatch.setattr(planner, "fix_logical", recording)
    return seen


def test_planner_windows_force_the_start_and_admit_no_early_goal(planner_windows):
    runs = [load_scenario(str(path)) for path in sorted(SCENARIOS.glob("*.scn"))]
    runs += city(0)
    assert len(runs) == 18
    for run in runs:
        planner.plan_paths(run.grid, run.robots, weights=run.weights,
                           window_cfg=run.window_cfg, solver_cfg=run.solver_cfg)
    assert len(planner_windows) >= len(runs)
    for spec, admissible in planner_windows:
        _assert_start_forced_and_goal_not_early(spec, admissible)


def test_windows_with_left_out_and_blocked_cells_admit_no_early_goal(planner_windows):
    # Random maps whose robots have visited cells to leave out and whose
    # parked robots block cells: both can only lengthen the way to a goal.
    rng = np.random.default_rng(16)
    while len(planner_windows) < 300:
        rows, cols = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        grid = GridMap(rows, cols, frozenset(c for c in cells if rng.random() < 0.15))
        free = [c for c in cells if grid.is_free(c)]
        if len(free) < 8:
            continue
        picks = [free[k] for k in rng.permutation(len(free))]
        count = int(rng.integers(1, 4))
        ends, parked = picks[:2 * count], picks[2 * count:2 * count + 3]
        robots = []
        for start, goal in zip(ends[::2], ends[1::2]):
            visited = {start} | {c for c in free if rng.random() < 0.3}
            robots.append((start, goal, visited))
        planner.build_window(grid.with_obstacles(parked), robots, int(rng.integers(1, 9)),
                             W, allow_wait=count > 1)
    for spec, admissible in planner_windows:
        _assert_start_forced_and_goal_not_early(spec, admissible)
