import hashlib
import json
import pathlib

import numpy as np
import pytest

from perfbench.checker import check_plans
from perfbench.corpus import city, corridor, shipped
from quboplan.grid import GridMap
from quboplan.multi import plan_multi
from quboplan.penalties import PenaltyWeights, RobotWindow, WindowSpec, build_window_model
from quboplan.planner import (
    RobotSpec,
    STATUS_REACHED,
    WindowConfig,
    plan_single,
    validate_path,
    validate_robots,
)
from quboplan.postprocess import find_vertex_conflicts
from quboplan.preprocess import fix_logical
from quboplan.qubo import block_size
from quboplan.solvers import SolverConfig


EXHAUSTIVE = SolverConfig(backend="exhaustive", seed=1)
# sha256 of the `to_json()` of every plan of `city(0)`, in corpus order, each
# dumped with sorted keys. Its windows reach 235 free variables in up to five
# colour classes, beyond the golden files. A change that means to alter these
# plans runs this module's independent-checker test, reads the new value from
# the failed assertion and commits it.
CITY0_PLANS_SHA256 = "622ccd7b72ba4f98ea477a046d2612ecf5beee704162e3021d3faebea308bf19"
# The same digest for `corridor(1)`: serpentine corridors that reachability
# fixing decides window by window, so it pins the presolve path.
CORRIDOR1_PLANS_SHA256 = "96f7005f4ca92ddec8cdb2cca7d3b4208310fbcc9a4518ea070897e86572b08d"
# The same two corpora digested over each plan's steps only, so a change to
# the JSON around the paths moves the pins above but not these.
CITY0_STEPS_SHA256 = "31ab8bc48a3cf32ee4f8ff37099b6a05950cb11d5df20ef2e0eea4d55bafc9bd"
CORRIDOR1_STEPS_SHA256 = "ec040e48a8442fd4d6660ab60c0805dad52d50b97fd502cd3522cadcf640dee4"
# Plans and total moves of `shipped(scenarios, 0)`, the traffic the acceptance
# tests were tuned on. This pins its lengths, not its paths: equal-energy
# optima may trade one shortest path for another.
SHIPPED0_PLANS = 54
SHIPPED0_MOVES = 1003


def _steps_json(result) -> bytes:
    return json.dumps([p.steps for p in result.plans]).encode()


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
    single = WindowSpec(g, (RobotWindow(start=(0, 0), goal=(2, 2)),), 3, weights)
    double = WindowSpec(g, (
        RobotWindow(start=(0, 0), goal=(2, 2)),
        RobotWindow(start=(2, 0), goal=(0, 2)),
    ), 3, weights)
    assert build_window_model(double).num_vars == 2 * build_window_model(single).num_vars
    assert block_size(double.dims) * 2 == build_window_model(double).num_vars


def test_collision_terms_only_on_shared_admissible_cells():
    g = GridMap(3, 5)
    # disjoint corridors: rows 0 and 2 never meet
    recs = (
        RobotWindow(start=(0, 0), goal=(0, 4)),
        RobotWindow(start=(2, 0), goal=(2, 4)),
    )
    grid = GridMap(3, 5, frozenset({(1, j) for j in range(5)}))
    spec = WindowSpec(grid, recs, 4, PenaltyWeights(), allow_wait=True)
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


def test_robot_released_at_a_window_end_is_kept_off_its_start():
    # robot 1 appears on (0, 5) at t=6, the last step of the second window,
    # which robot 0 would otherwise cross on its way to (0, 6)
    grid = GridMap(2, 7)
    robots = [RobotSpec(0, (1, 0), (0, 6)),
              RobotSpec(1, (0, 5), (1, 5), release=6)]
    for seed in range(3):
        result = plan_multi(grid, robots, window_cfg=WindowConfig(window_len=3),
                            solver_cfg=SolverConfig(seed=seed))
        assert result.succeeded, [w.repairs for w in result.windows]
        assert [p.moves for p in result.plans] == [7, 1]
        assert find_vertex_conflicts([p.steps for p in result.plans]) == []


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


@pytest.mark.parametrize("parker", [0, 1])
def test_a_robot_whose_start_is_its_goal_parks_only_once_released(parker):
    # The parker appears on (0, 2) at t=10; the other robot passes that cell
    # long before, instead of finding its goal walled off from t=0.
    grid = GridMap(1, 5)
    robots = [RobotSpec(parker, (0, 2), (0, 2), release=10),
              RobotSpec(1 - parker, (0, 0), (0, 4))]
    result = plan_multi(grid, robots)
    assert result.succeeded, [p.notes for p in result.plans]
    assert result.plans[parker].steps == [(10, (0, 2))]
    assert check_plans(grid, robots, {p.robot: p.steps for p in result.plans}) == []


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


def _released_pairs(count):
    """Two robots on small maps with 15 % obstacles; the second robot is
    released at a random step in [0, 2 * window_len]."""
    rng = np.random.default_rng(909)
    for k in range(count):
        rows, cols = (int(n) for n in rng.integers(3, 7, size=2))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        grid = GridMap(rows, cols, frozenset(c for c in cells if rng.random() < 0.15))
        free = grid.free_cells()
        window_len = int(rng.integers(2, 5))
        release = int(rng.integers(0, 2 * window_len + 1))
        if len(free) < 4:
            continue
        a, b, c, d = (free[int(i)] for i in rng.choice(len(free), 4, replace=False))
        yield (grid, (RobotSpec(0, a, b), RobotSpec(1, c, d, release)),
               WindowConfig(window_len=window_len),
               SolverConfig(num_reads=20, sweeps=200, seed=k))


def test_every_accepted_generated_plan_passes_the_independent_checker():
    corpus = [(i.grid, i.robots, i.window_cfg, i.solver_cfg) for i in city(0)]
    instances = corpus + list(_released_pairs(30))
    accepted = 0
    city_plans, city_steps = hashlib.sha256(), hashlib.sha256()
    for k, (grid, robots, window_cfg, solver_cfg) in enumerate(instances):
        result = plan_multi(grid, robots, window_cfg=window_cfg, solver_cfg=solver_cfg)
        if k < len(corpus):
            city_plans.update(json.dumps(result.to_json(), sort_keys=True).encode())
            city_steps.update(_steps_json(result))
        if result.succeeded:
            accepted += 1
            steps = {p.robot: p.steps for p in result.plans}
            assert check_plans(grid, robots, steps) == [], (grid, robots)
    # the check must not pass by accepting nothing
    assert accepted > len(instances) // 2
    assert city_steps.hexdigest() == CITY0_STEPS_SHA256
    assert city_plans.hexdigest() == CITY0_PLANS_SHA256


def test_shipped_corpus_plans_stay_valid_at_their_length():
    scenarios = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    valid = moves = 0
    for inst in shipped(scenarios, 0):
        result = plan_multi(inst.grid, inst.robots, weights=inst.weights,
                            window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
        steps = {p.robot: p.steps for p in result.plans}
        if result.succeeded and check_plans(inst.grid, inst.robots, steps) == []:
            valid += 1
            moves += sum(p.moves for p in result.plans)
    assert (valid, moves) == (SHIPPED0_PLANS, SHIPPED0_MOVES)


def test_corridor_plans_are_decided_by_presolve_and_unchanged():
    corridor_plans, corridor_steps = hashlib.sha256(), hashlib.sha256()
    for inst in corridor(1):
        result = plan_multi(inst.grid, inst.robots, weights=inst.weights,
                            window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
        assert result.succeeded
        assert {w.backend for w in result.windows} == {"presolve"}
        corridor_plans.update(json.dumps(result.to_json(), sort_keys=True).encode())
        corridor_steps.update(_steps_json(result))
    assert corridor_steps.hexdigest() == CORRIDOR1_STEPS_SHA256
    assert corridor_plans.hexdigest() == CORRIDOR1_PLANS_SHA256
