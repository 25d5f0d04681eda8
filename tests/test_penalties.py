import itertools
import math
import pathlib
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from perfbench.corpus import city, shipped
from quboplan import penalties, planner, preprocess, qubo
from quboplan.grid import GridMap, bfs_distances, manhattan
from quboplan.penalties import (
    BT_SOFT_FACTOR,
    EARLY_GOAL_PENALTY,
    PenaltyWeights,
    RobotWindow,
    START_REWARD,
    WindowSpec,
    WindowTerms,
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
    with_one_hot_pairs,
)
from quboplan.preprocess import fix_logical, fold, forced_ones
from quboplan.qubo import block_size, var_index
from quboplan.scenario import load_scenario
from quboplan.solvers import SolverConfig, solve

import oracles
from oracles import (
    build_window_model_by_terms,
    fold_by_terms,
    penalty_energy,
    random_windows,
    solve_exhaustive,
)


W = PenaltyWeights()
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def spec_1x2(horizon=1):
    g = GridMap(1, 2)
    rec = RobotWindow(start=(0, 0), goal=(0, 1))
    return WindowSpec(g, (rec,), horizon, W)


def emitted(apply, spec, admissible, *robot):
    """The model that one emitter's terms alone make over `admissible`."""
    terms = WindowTerms(spec, admissible)
    apply(terms, spec, *robot)
    return terms.model()


def complete(spec, model):
    """`model`, over a window's whole variable space, with the one-hot pair
    terms: the complete QUBO, whose energy is the penalty formulas' sum."""
    per_cell = spec.grid.rows * spec.grid.cols
    return with_one_hot_pairs(model, np.arange(model.num_vars) // per_cell, spec.weights.k_hot)


def test_one_hot_contributions():
    spec = spec_1x2()
    adm = dense_admissible(spec)
    model = complete(spec, emitted(apply_one_hot, spec, adm, 0))
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
    model = emitted(apply_adjacency, spec, adm, 0)
    a0 = var_index(spec.dims, 0, 0, (0, 0))
    b1 = var_index(spec.dims, 0, 1, (0, 1))
    assert model.energy({a0, b1}) == pytest.approx(0.0)  # continuous
    assert model.energy({a0}) == pytest.approx(W.k_adj)  # broken continuity


def test_adjacency_diagonal_jump_penalized():
    g = GridMap(2, 2)
    rec = RobotWindow(start=(0, 0), goal=(1, 1))
    spec = WindowSpec(g, (rec,), 1, W)
    adm = dense_admissible(spec)
    model = emitted(apply_adjacency, spec, adm, 0)
    a = var_index(spec.dims, 0, 0, (0, 0))
    b = var_index(spec.dims, 0, 1, (1, 1))
    # (1,1) is not a 4-neighbor of (0,0): the step stays penalized
    assert model.energy({a, b}) == pytest.approx(W.k_adj)


def test_start_reward():
    spec = spec_1x2()
    adm = dense_admissible(spec)
    model = emitted(apply_start, spec, adm, 0)
    a = var_index(spec.dims, 0, 0, (0, 0))
    assert model.get(a, a) == -START_REWARD
    assert model.energy(set()) == 0.0


def test_goal_late_time_ramp():
    g = GridMap(1, 5)
    rec = RobotWindow(start=(0, 0), goal=(0, 4))
    spec = WindowSpec(g, (rec,), 4, PenaltyWeights(k_goal=1.0))
    adm = dense_admissible(spec)
    model = emitted(apply_goal_late_time, spec, adm, 0)
    goal_var = lambda t: var_index(spec.dims, 0, t, (0, 4))
    assert model.get(goal_var(0), goal_var(0)) == 0.0  # never at step 0
    assert model.get(goal_var(2), goal_var(2)) == pytest.approx(-1.5)
    assert model.get(goal_var(4), goal_var(4)) == pytest.approx(-2.0)


def test_goal_lock_contributions():
    spec = spec_1x2(horizon=2)
    adm = dense_admissible(spec)
    model = emitted(apply_goal_lock, spec, adm, 0)
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
    model = emitted(apply_backtracking, spec, adm, 0)
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
    model = emitted(apply_backtracking, spec, adm, 0)
    v = var_index(spec.dims, 0, 2, (0, 1))
    assert model.get(v, v) == pytest.approx(W.k_bt * BT_SOFT_FACTOR)


def test_teleportation_before_bound_only():
    g = GridMap(5, 5)
    rec = RobotWindow(start=(0, 0), goal=(2, 2))
    spec = WindowSpec(g, (rec,), 6, W)
    adm = dense_admissible(spec)
    model = emitted(apply_teleportation, spec, adm, 0)
    early = var_index(spec.dims, 0, 2, (2, 2))
    late = var_index(spec.dims, 0, 4, (2, 2))
    assert model.get(early, early) == EARLY_GOAL_PENALTY
    assert model.get(late, late) == 0.0


def test_teleportation_degenerate_start_is_goal():
    g = GridMap(3, 3)
    rec = RobotWindow(start=(1, 1), goal=(1, 1))
    spec = WindowSpec(g, (rec,), 2, W)
    model = emitted(apply_teleportation, spec, dense_admissible(spec), 0)
    assert len(model) == 0


def test_approximation_rewards():
    # A wall stands between start and goal: the goal lies 10 moves from the
    # start (1, 1) around the wall's end, not 4, and the walled-in corner
    # (0, 0) has no way to it at all.
    g = GridMap(5, 5, {(0, 1), (1, 0), (0, 2), (1, 2), (2, 2), (3, 2)})
    rec = RobotWindow(start=(1, 1), goal=(0, 4))
    spec = WindowSpec(g, (rec,), 3, PenaltyWeights(k_approx=1.0))
    adm = dense_admissible(spec)
    model = emitted(apply_approximation, spec, adm, 0)

    def reward(c, t=3):
        a = var_index(spec.dims, 0, t, c)
        return model.get(a, a)

    assert reward((0, 4)) == pytest.approx(-1.0)  # the goal, in a corner
    assert reward((0, 3)) == pytest.approx(-0.9)
    assert reward((4, 2)) == pytest.approx(-0.4)  # around the wall's end
    assert reward((1, 1)) == 0.0  # the farthest cell from the goal
    assert reward((0, 0)) == 0.0  # walled in
    assert reward((0, 3), t=2) == 0.0  # only the final step is rewarded
    # Distances handed to the window are read, not searched again: on the
    # map without the wall the start is 4 of the largest 8 moves away.
    given = replace(rec, goal_distances=bfs_distances(GridMap(5, 5), rec.goal))
    spec = WindowSpec(g, (given,), 3, PenaltyWeights(k_approx=1.0))
    model = emitted(apply_approximation, spec, adm, 0)
    assert reward((1, 1)) == pytest.approx(-0.5)


def test_a_window_built_without_goal_tables_searches_each_goal_once(monkeypatch):
    # `build_window` from 3-tuples, then `.folded`: both goals lie past the
    # horizon, so the goal bound and the window-final reward read each
    # robot's table, and the spec searched each goal once for them.
    searched = []

    def counted(grid, start, *args):
        searched.append(start)
        return bfs_distances(grid, start, *args)

    for module in (penalties, preprocess, planner):
        if hasattr(module, "bfs_distances"):
            monkeypatch.setattr(module, "bfs_distances", counted)
    g = GridMap(6, 6, frozenset({(2, 2), (3, 3)}))
    robots = [((0, 2), (5, 5), {(0, 2)}), ((5, 2), (0, 5), {(5, 2)})]
    window = planner.build_window(g, robots, 4, W)
    assert window.report.reduced_count and window.report.bound_dropped
    assert window.folded.model.num_vars
    assert searched == [(5, 5), (0, 5)]
    for rec in window.spec.robots:
        assert rec.goal_distances == oracles.bfs_distances(g, rec.goal)
    # A goal that is an obstacle on the window's map gets the search with
    # the goal cell open, as the window-final reward always read it.
    blocked = g.with_obstacles({(0, 5)})
    spec = WindowSpec(blocked, (RobotWindow((0, 0), (0, 5)),), 4, W)
    assert spec.robots[0].goal_distances == oracles.bfs_distances(g, (0, 5))
    assert searched[2:] == [(0, 5)]
    # A table the spec is given is kept, not searched again.
    assert WindowSpec(blocked, spec.robots, 4, W).robots == spec.robots
    assert searched[3:] == []


def test_vertex_collision_pairs():
    g = GridMap(3, 3)
    recs = (
        RobotWindow(start=(0, 0), goal=(2, 2)),
        RobotWindow(start=(2, 0), goal=(0, 2)),
    )
    spec = WindowSpec(g, recs, 2, W)
    adm = dense_admissible(spec)
    model = emitted(apply_vertex_collision, spec, adm)
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
    m_ab = emitted(apply_vertex_collision, spec_ab, dense_admissible(spec_ab))
    m_ba = emitted(apply_vertex_collision, spec_ba, dense_admissible(spec_ba))
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
        model = complete(spec, build_window_model(spec, adm))
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


def _merge_rule_window(rng):
    """A random window and its admissible sets, dense or from
    `fix_logical`, with waits in some and visited cells in all; `k_adj`
    equals `k_hot` in a third of them, where one-hot diagonals cancel."""
    while True:
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        grid = GridMap(rows, cols, frozenset(c for c in cells if rng.random() < 0.15))
        free = [c for c in cells if grid.is_free(c)]
        count = int(rng.integers(1, 4))
        if len(free) >= 2 * count:
            break
    picks = [free[k] for k in rng.permutation(len(free))]
    robots = tuple(RobotWindow(start, goal, frozenset({start} | {c for c in free
                                                                 if rng.random() < 0.25}))
                   for start, goal in zip(picks[:2 * count:2], picks[1:2 * count:2]))
    weights = PenaltyWeights(k_adj=float(rng.choice([2.0, 4.0, 8.0])),
                             k_coll=float(rng.choice([4.0, 8.0])))
    spec = WindowSpec(grid, robots, int(rng.integers(1, 9)), weights,
                      allow_wait=count > 1 or rng.random() < 0.3)
    dense = rng.random() < 0.3
    return spec, dense_admissible(spec) if dense else fix_logical(spec)[1]


def test_window_models_merge_as_the_term_by_term_builder(monkeypatch):
    # `_energies` sums in `coeffs` order, so the order is pinned too: a key
    # sits where its sum first turns non-zero, and one that cancels to 0.0
    # is added again at the end by a later term. The reference is the
    # complete QUBO; the built model is it without the pairs inside a
    # (robot, step) group, in order, and `with_one_hot_pairs` adds them back.
    emitted_keys = []
    merge = WindowTerms.model

    def recording(terms):
        emitted_keys.append(list(terms.keys))
        return merge(terms)

    monkeypatch.setattr(WindowTerms, "model", recording)
    rng = np.random.default_rng(29)
    readded = 0
    for _ in range(400):
        spec, admissible = _merge_rule_window(rng)
        model = build_window_model(spec, admissible)
        reference = build_window_model_by_terms(spec, admissible)
        per_cell = spec.grid.rows * spec.grid.cols
        assert list(model.coeffs.items()) == [
            ((a, b), w) for (a, b), w in reference.coeffs.items()
            if a == b or a // per_cell != b // per_cell]
        whole = complete(spec, model)
        assert whole.coeffs == reference.coeffs
        assert (model.num_vars, model.constant) == (reference.num_vars, reference.constant)
        assert (whole.num_vars, whole.constant) == (reference.num_vars, reference.constant)
        first_seen = [key for key in dict.fromkeys(emitted_keys[-1]) if key in model.coeffs]
        readded += first_seen != list(model.coeffs)
        ones = forced_ones(spec.dims, admissible)
        folded = fold(whole, ones)
        folded_reference, free = fold_by_terms(whole, ones)
        assert list(folded.model.coeffs.items()) == list(folded_reference.coeffs.items())
        assert folded.model.constant == folded_reference.constant
        assert (folded.free_vars, folded.model.num_vars) == (free, folded_reference.num_vars)
    assert readded >= 100


def test_window_models_check_each_cell_as_the_per_term_calls_did():
    grid = GridMap(3, 3, frozenset({(1, 1)}))
    spec = WindowSpec(grid, (RobotWindow((0, 0), (0, 1)),), 2, W)
    for t in range(3):
        outside = dense_admissible(spec)
        outside[0][t].add((3, 0))
        with pytest.raises(ValueError, match="outside 3x3 grid"):
            build_window_model(spec, outside)
    # An obstacle is rejected at every step, the last included.
    for t in range(3):
        blocked = dense_admissible(spec)
        blocked[0][t].add((1, 1))
        with pytest.raises(ValueError, match="is an obstacle"):
            build_window_model(spec, blocked)


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


@pytest.mark.parametrize("field", ["k_hot", "k_coll"])
@pytest.mark.parametrize("value", [True, "4", None, 4j])
def test_a_weight_that_is_not_a_real_number_is_rejected(field, value):
    # k_hot=True planned as 1, and k_hot="4" failed with a bare TypeError.
    with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
        PenaltyWeights(**{field: value})


def test_integer_and_numpy_weights_are_real_numbers():
    weights = PenaltyWeights(k_hot=4, k_adj=np.float64(2.0), k_coll=np.int64(4))
    assert (weights.k_hot, weights.k_adj, weights.k_coll) == (4, 2.0, 4)


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
        assert len(emitted(apply_teleportation, spec, admissible, robot)) == 0


@pytest.fixture
def planner_windows(monkeypatch):
    """Every (spec, admissible sets) pair that `fix_logical` returns to the
    planner while the test runs."""
    seen = []
    fix_logical = planner.fix_logical

    def recording(spec, bounded=True):
        report, admissible = fix_logical(spec, bounded)
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


def test_planner_windows_admit_no_cell_but_the_goal_at_two_steps(planner_windows):
    # First-reach layers admit each cell at its first step only, and the
    # goal is the one cell padded onto later steps. So `apply_backtracking`
    # emits no revisit coupling in a planner window, and the couplings that
    # `solvers._eliminate_lazily` drops there are vertex collisions. The
    # dense model, which admits every cell at every step, still has them.
    runs = [*shipped(SCENARIOS, 0), *city(0)]
    for run in runs:
        planner.plan_paths(run.grid, run.robots, weights=run.weights,
                           window_cfg=run.window_cfg, solver_cfg=run.solver_cfg)
    assert len(planner_windows) >= len(runs)
    for spec, admissible in planner_windows:
        for robot, rec in enumerate(spec.robots):
            steps = Counter(c for cells in admissible[robot] for c in cells if c != rec.goal)
            assert max(steps.values(), default=1) == 1
            backtracking = emitted(apply_backtracking, spec, admissible, robot)
            assert all(a == b for a, b in backtracking.coeffs)


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


def _keeps_every_constraint(spec, occupancy) -> bool:
    """Whether a one-hot occupancy moves (or, with waits, waits) between
    every two steps that both admit a cell, and never puts two robots on
    one cell at one step."""
    least = 0 if spec.allow_wait else 1
    for cells in occupancy:
        for here, there in zip(cells, cells[1:]):
            if here and there:
                ((i, j),), ((k, m),) = here, there
                if not least <= abs(i - k) + abs(j - m) <= 1:
                    return False
    return not any(a[t] & b[t] for a, b in itertools.combinations(occupancy, 2)
                   for t in range(spec.horizon + 1))


def _clash_windows():
    """Two robots crossing the centre of an empty 3x3 map, whose minimum at
    the default weights breaks a constraint, and two robots head-on in a
    corridor with a one-cell pocket, whose every state puts both on the
    corridor's middle cell at t=1."""
    crossing = planner.build_window(GridMap(3, 3), [((1, 0), (1, 2), {(1, 0)}),
                                                    ((0, 1), (2, 1), {(0, 1)})], 3, W, True)
    pocket = planner.build_window(GridMap(2, 3, frozenset({(1, 0), (1, 2)})),
                                  [((0, 0), (0, 2), {(0, 0)}), ((0, 2), (0, 0), {(0, 2)})], 4,
                                  W, True)
    return crossing, pocket


def test_derived_weights_make_the_minimum_one_hot_and_keep_every_constraint_they_can():
    # Multi-robot windows small enough to enumerate. At the derived weights
    # the minimum over all bit vectors is one-hot, it keeps every constraint
    # whenever some one-hot state does, and elimination reaches it.
    crossing, pocket = _clash_windows()
    best = solve(crossing.folded.model, SolverConfig(), groups=crossing.groups).best
    decoded = qubo.decode(crossing.folded.expand(best.bits), crossing.spec.dims, 2)
    assert not _keeps_every_constraint(crossing.spec, decoded)
    windows = [crossing, pocket, *random_windows(40, 7, robots=2, max_vars=16)]
    kept = 0
    for window in windows:
        spec = window.spec
        weights = penalties.derived_weights(spec, window.admissible)
        assert all(getattr(weights, f.name) >= getattr(spec.weights, f.name)
                   for f in fields(weights))
        states = [(r.start, r.goal, r.visited, r.goal_distances) for r in spec.robots]
        derived = planner.build_window(spec.grid, states, spec.horizon, weights,
                                       spec.allow_wait)
        assert derived.admissible == window.admissible
        folded, groups = derived.folded, derived.groups.tolist()
        members = {}
        for v, g in enumerate(groups):
            members.setdefault(g, []).append(v)

        def occupancy(ones):
            return qubo.decode(folded.expand([int(v in ones) for v in range(len(groups))]),
                               spec.dims, len(spec.robots))

        minimum = solve_exhaustive(folded.model).best
        ones = {v for v, bit in enumerate(minimum.bits) if bit}
        assert all(len(ones.intersection(m)) == 1 for m in members.values())
        if any(_keeps_every_constraint(spec, occupancy(set(state)))
               for state in itertools.product(*members.values())):
            assert _keeps_every_constraint(spec, occupancy(ones))
            kept += 1
        exact = solve(folded.model, SolverConfig(), groups=derived.groups).best
        assert exact.energy == pytest.approx(minimum.energy, abs=1e-9)
    assert kept == len(windows) - 1  # all but the pocket


def _objective_energy(spec, admissible, ones) -> float:
    """The energy of the window's objective terms alone (every term but
    one-hot, adjacency and collision) on the original-index state `ones`."""
    terms = WindowTerms(spec, admissible)
    for robot in range(len(spec.robots)):
        penalties._apply_objective(terms, spec, robot)
    return terms.model().energy(ones)


@pytest.mark.parametrize("robots", [2, 3])
def test_a_valid_minimum_at_the_given_weights_stays_valid_at_derived_weights(robots):
    # Why a multi-robot first-reach try runs at derived weights alone. The
    # objective holds no `k_hot`, `k_adj` or `k_coll`, so it is the same at
    # both weights, and every state that breaks no move and shares no cell pays
    # the same constraint energy at each. A minimum at the given weights
    # that keeps every constraint therefore minimises the objective over
    # those states, and so does the minimum at the derived weights.
    valid = 0
    for window in random_windows(60, 41, robots=robots, max_vars=40, bounded=False):
        spec, admissible = window.spec, window.admissible
        given = solve(window.folded.model, SolverConfig(), groups=window.groups).best
        ones = window.folded.expand(given.bits)
        if not _keeps_every_constraint(spec, qubo.decode(ones, spec.dims, robots)):
            continue
        valid += 1
        states = [(r.start, r.goal, r.visited, r.goal_distances) for r in spec.robots]
        derived = planner.build_window(spec.grid, states, spec.horizon,
                                       penalties.derived_weights(spec, admissible),
                                       spec.allow_wait, bounded=False)
        assert derived.admissible == admissible
        best = solve(derived.folded.model, SolverConfig(), groups=derived.groups).best
        derived_ones = derived.folded.expand(best.bits)
        assert _keeps_every_constraint(spec, qubo.decode(derived_ones, spec.dims, robots))
        assert _objective_energy(spec, admissible, derived_ones) == pytest.approx(
            _objective_energy(spec, admissible, ones), abs=1e-9)
    assert valid >= 50


def _try_at(window, weights):
    """The planner's try at `window` solved at `weights`: its record, and
    every robot's path when the repair accepts them, else None."""
    window = replace(window, spec=replace(window.spec, weights=weights))
    agents = [planner._Agent(planner.RobotSpec(r, robot.start, robot.goal))
              for r, robot in enumerate(window.spec.robots)]
    return planner._attempt_window(window, agents, SolverConfig(), (0, 0, 0))


@pytest.mark.parametrize("robots", [1, 2, 3])
def test_derived_weights_lose_an_accepted_first_reach_try_only_with_one_robot(robots):
    # The repair accepts more than the states that keep every constraint: a
    # path ends at its first arrival on the goal. With two or more robots
    # waits are moves, and derived weights lose no try the given weights
    # win. A single robot cannot wait, so it parks on a dead-end goal by
    # breaking moves, which derived weights make the costliest choice; its
    # first-reach tries keep the given weights, which here lose no try that
    # derived weights win.
    lost = won = 0
    for window in random_windows(60, 41, robots=robots, max_vars=40, bounded=False):
        given = _try_at(window, window.spec.weights)[1] is not None
        derived = _try_at(window, penalties.derived_weights(window.spec, window.admissible))
        lost += given and derived[1] is None
        won += derived[1] is not None and not given
    if robots == 1:
        assert (lost > 0, won) == (True, 0)
    else:
        assert lost == 0


def test_a_single_robot_parks_on_a_dead_end_goal_at_the_given_weights_alone():
    # (1, 2) is a dead end: a robot there can neither move on nor wait, so
    # parking breaks a move at each of the steps after its arrival at t=3.
    # The repair ends the path there and accepts it. At derived weights the
    # minimum breaks one move instead: it runs on to (0, 4) and jumps onto
    # the goal at t=5.
    grid = GridMap(2, 5, frozenset({(1, 0), (1, 1), (1, 3), (1, 4)}))
    window = planner.build_window(grid, [((0, 0), (1, 2), {(0, 0)})], 5, W, bounded=False)
    assert _try_at(window, W)[1] == [[(0, 0), (0, 1), (0, 2), (1, 2)]]
    record, paths = _try_at(window, penalties.derived_weights(window.spec, window.admissible))
    assert (paths, record.repairs) == (None, ["robot 0: adjacency at t=5"])


def test_derived_weights_keep_weights_already_above_them():
    crossing, _ = _clash_windows()
    derived = penalties.derived_weights(crossing.spec, crossing.admissible)
    assert derived.k_adj > W.k_adj and derived.k_coll > W.k_coll
    high = replace(W, k_hot=2 * derived.k_hot, k_adj=2 * derived.k_adj,
                   k_coll=2 * derived.k_coll)
    assert penalties.derived_weights(replace(crossing.spec, weights=high),
                                     crossing.admissible) == high
