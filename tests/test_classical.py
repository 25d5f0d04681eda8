import numpy as np
import pytest

from quboplan.classical import astar, dijkstra, path_moves, prioritized_plan
from quboplan.grid import GridMap, bfs_distances
from quboplan.planner import RobotSpec, validate_path
from quboplan.postprocess import find_vertex_conflicts


def test_astar_empty_map_diagonal():
    g = GridMap(5, 5)
    path = astar(g, (0, 0), (4, 4))
    assert path_moves(path) == 8
    assert validate_path(g, path, goal=(4, 4))


def test_astar_start_equals_goal():
    g = GridMap(3, 3)
    assert astar(g, (1, 1), (1, 1)) == [(1, 1)]


def test_astar_walled_goal_infeasible():
    g = GridMap(3, 3, frozenset({(1, 2), (2, 1)}))
    assert astar(g, (0, 0), (2, 2)) is None


def test_astar_rejects_bad_endpoints():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        astar(g, (1, 1), (0, 0))


def test_astar_deterministic():
    g = GridMap(6, 6, frozenset({(2, 2), (3, 3)}))
    assert astar(g, (0, 0), (5, 5)) == astar(g, (0, 0), (5, 5))


def test_dijkstra_examples():
    assert path_moves(dijkstra(GridMap(3, 3), (0, 0), (2, 2))) == 4
    assert path_moves(dijkstra(GridMap(1, 5), (0, 0), (0, 4))) == 4


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
        for connectivity in (4, 8):
            g = GridMap(rows, cols, obstacles, connectivity=connectivity)
            reference = bfs_distances(g, start).get(goal)
            a = astar(g, start, goal)
            d = dijkstra(g, start, goal)
            if reference is None:
                assert a is None and d is None
            else:
                assert path_moves(a) == path_moves(d) == reference, connectivity


def test_prioritized_disjoint_corridors_match_solo():
    g = GridMap(3, 5)
    robots = [RobotSpec(0, (0, 0), (0, 4)), RobotSpec(1, (2, 0), (2, 4))]
    plans = prioritized_plan(g, robots)
    for r in robots:
        solo = path_moves(astar(g, r.start, r.goal))
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
    assert first == path_moves(astar(g, (0, 1), (2, 1)))
    assert second == path_moves(astar(g, (1, 0), (1, 2))) + 1
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
    for r in robots:
        cells = [c for _, c in plans[r.id]]
        assert validate_path(g, cells, goal=r.goal, allow_wait=True)
