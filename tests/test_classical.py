import time

import numpy as np
import pytest

from perfbench.checker import check_plans
from perfbench.corpus import corridor
from quboplan.classical import astar, prioritized_plan
from quboplan.grid import GridMap, bfs_distances
from quboplan.planner import RobotSpec
from quboplan.postprocess import find_vertex_conflicts


def test_astar_empty_map_diagonal():
    g = GridMap(5, 5)
    path = astar(g, (0, 0), (4, 4))
    assert len(path) - 1 == 8
    assert check_plans(g, [RobotSpec(0, (0, 0), (4, 4))], {0: list(enumerate(path))}) == []


def test_astar_start_equals_goal():
    g = GridMap(3, 3)
    assert astar(g, (1, 1), (1, 1)) == [(1, 1)]


def test_astar_walled_goal_infeasible():
    g = GridMap(3, 3, frozenset({(1, 2), (2, 1)}))
    assert astar(g, (0, 0), (2, 2)) is None


def _gives_up_at_once(grid, robots, walled):
    started = time.perf_counter()
    plans = prioritized_plan(grid, robots)
    assert time.perf_counter() - started < 0.5
    assert plans[walled] is None


def test_prioritized_gives_up_at_once_on_a_goal_the_map_walls_off():
    # A full space-time search expands (cell, t) states up to a horizon of
    # 2 * rows * cols, about 15 s at this size, so the bound shows it skips
    # every state that cannot reach the goal.
    g = GridMap(30, 30, frozenset({(28, 29), (29, 28)}))
    _gives_up_at_once(g, [RobotSpec(0, (0, 0), (29, 29))], 0)


def test_prioritized_gives_up_at_once_on_a_goal_parked_robots_wall_off():
    # Robots 0 and 1 park on both neighbours of robot 2's goal: after their
    # last timed cell no state of robot 2 can reach it. A full search takes
    # about 4 s here.
    robots = [RobotSpec(0, (0, 2), (0, 1)), RobotSpec(1, (2, 0), (1, 0)),
              RobotSpec(2, (23, 23), (0, 0))]
    _gives_up_at_once(GridMap(24, 24), robots, 2)


def test_prioritized_follows_a_serpentine_corridor_in_milliseconds():
    # With the Manhattan bound, every wait in a long corridor made a new
    # state under the f bound: 1.27 s on this 40x40 map. The BFS distance
    # around the parked cells bounds each state by the corridor's length.
    inst = next(i for i in corridor(0) if i.grid.rows == 40)
    robot, = inst.robots
    start = time.perf_counter()
    steps = prioritized_plan(inst.grid, inst.robots)[robot.id]
    elapsed = time.perf_counter() - start
    assert steps[-1][0] - steps[0][0] == len(astar(inst.grid, robot.start, robot.goal)) - 1
    assert check_plans(inst.grid, inst.robots, {robot.id: steps}) == []
    assert elapsed < 0.5


def test_astar_rejects_bad_endpoints():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        astar(g, (1, 1), (0, 0))


@pytest.mark.parametrize("start, goal", [((1, 1), (0, 0)), ((0, 0), (1, 1))])
def test_prioritized_rejects_bad_endpoints(start, goal):
    g = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="start and goal must be free cells"):
        prioritized_plan(g, [RobotSpec(0, (0, 2), (2, 2)), RobotSpec(1, start, goal)])


@pytest.mark.parametrize("cell", [(0, 0), (5, 5)], ids=["obstacle", "outside"])
def test_prioritized_rejects_a_robot_whose_start_is_its_goal_off_the_free_cells(cell):
    # Such a robot used to be returned parked on its cell, inside a wall or
    # off the map.
    g = GridMap(2, 2, frozenset({(0, 0)}))
    with pytest.raises(ValueError, match="^start and goal must be free cells$"):
        prioritized_plan(g, [RobotSpec(0, cell, cell)])


def test_astar_deterministic():
    g = GridMap(6, 6, frozenset({(2, 2), (3, 3)}))
    assert astar(g, (0, 0), (5, 5)) == astar(g, (0, 0), (5, 5))


def test_astar_dijkstra_lengths_agree_and_match_bfs():
    rng = np.random.default_rng(11)
    for _ in range(40):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        obstacles = frozenset(c for c in cells if rng.random() < 0.2)
        free = [c for c in cells if c not in obstacles]
        if len(free) < 2:
            continue
        start, goal = free[0], free[-1]
        g = GridMap(rows, cols, obstacles)
        reference = bfs_distances(g, start).get(goal)
        a = astar(g, start, goal)
        if reference is None:
            assert a is None
        else:
            assert len(a) - 1 == reference


def test_prioritized_disjoint_corridors_match_solo():
    g = GridMap(3, 5)
    robots = [RobotSpec(0, (0, 0), (0, 4)), RobotSpec(1, (2, 0), (2, 4))]
    plans = prioritized_plan(g, robots)
    for r in robots:
        solo = len(astar(g, r.start, r.goal)) - 1
        steps = plans[r.id]
        assert steps[-1][0] - steps[0][0] == solo


def test_prioritized_crossing_robots_benchmark_length():
    g = GridMap(5, 5, frozenset({(2, 2)}))
    robots = [RobotSpec(0, (0, 0), (4, 4)), RobotSpec(1, (4, 0), (0, 4))]
    plans = prioritized_plan(g, robots)
    total = sum(s[-1][0] - s[0][0] for s in plans.values())
    assert total == 16
    assert find_vertex_conflicts([plans[0], plans[1]]) == []


def test_prioritized_bottleneck_second_robot_waits():
    # plus-shaped junction: both robots need the center at the same moment,
    # so the later one waits exactly once
    g = GridMap(3, 3, frozenset({(0, 0), (0, 2), (2, 0), (2, 2)}))
    robots = [RobotSpec(0, (0, 1), (2, 1)), RobotSpec(1, (1, 0), (1, 2))]
    plans = prioritized_plan(g, robots)
    first = plans[0][-1][0] - plans[0][0][0]
    second = plans[1][-1][0] - plans[1][0][0]
    assert first == len(astar(g, (0, 1), (2, 1))) - 1
    assert second == len(astar(g, (1, 0), (1, 2)))
    assert find_vertex_conflicts([plans[0], plans[1]]) == []


def test_prioritized_releases_respected():
    g = GridMap(1, 5)
    robots = [RobotSpec(0, (0, 0), (0, 4)), RobotSpec(1, (0, 2), (0, 0), release=6)]
    plans = prioritized_plan(g, robots)
    assert plans[1][0][0] == 6
    assert find_vertex_conflicts([plans[0], plans[1]]) == []


def test_prioritized_conflicts_validator_shared_with_pipeline():
    g = GridMap(4, 4)
    robots = [RobotSpec(0, (0, 0), (3, 3)), RobotSpec(1, (3, 0), (0, 3)),
              RobotSpec(2, (0, 3), (3, 0))]
    plans = prioritized_plan(g, robots)
    lists = [plans[r.id] for r in robots if plans[r.id] is not None]
    assert len(lists) == 3
    assert find_vertex_conflicts(lists) == []
    assert check_plans(g, robots, plans) == []


def test_prioritized_refuses_a_robot_parked_where_an_earlier_one_passes():
    # Robot 1 starts on its goal, (0, 1), which robot 0 crosses at t=1: from
    # release 0 it would stand there then, so it cannot be routed. Released
    # at t=5, after robot 0 has gone by, it plans as a single step.
    g = GridMap(1, 3)
    passing = RobotSpec(0, (0, 0), (0, 2))
    plans = prioritized_plan(g, [passing, RobotSpec(1, (0, 1), (0, 1))])
    assert plans[0] == [(0, (0, 0)), (1, (0, 1)), (2, (0, 2))]
    assert plans[1] is None
    robots = [passing, RobotSpec(1, (0, 1), (0, 1), release=5)]
    plans = prioritized_plan(g, robots)
    assert plans[1] == [(5, (0, 1))]
    assert check_plans(g, robots, plans) == []
