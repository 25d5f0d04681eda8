import numpy as np
import pytest

from quboplan.grid import (
    GridMap,
    bfs_distances,
    bfs_layers,
    manhattan,
    max_manhattan,
    min_moves,
    obstacle_potential,
)


def test_neighbors_interior_four_connected():
    g = GridMap(3, 3)
    assert g.neighbors((1, 1)) == {(0, 1), (2, 1), (1, 0), (1, 2)}


def test_neighbors_corner_with_obstacle():
    g = GridMap(3, 3, frozenset({(0, 1)}))
    assert g.neighbors((0, 0)) == {(1, 0)}


def test_neighbors_wait_adds_self():
    g = GridMap(3, 3)
    assert g.neighbors((1, 1), allow_wait=True) == {(0, 1), (2, 1), (1, 0), (1, 2), (1, 1)}


def test_neighbors_eight_connected():
    g = GridMap(3, 3, connectivity=8)
    assert len(g.neighbors((1, 1))) == 8


def test_neighbors_rejects_obstacle_and_outside():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        g.neighbors((1, 1))
    with pytest.raises(ValueError):
        g.neighbors((3, 0))


def test_neighbors_symmetric():
    rng = np.random.default_rng(4)
    g = GridMap(5, 6, frozenset({(1, 1), (2, 4), (3, 3)}))
    free = g.free_cells()
    for a in free:
        for b in g.neighbors(a):
            assert a in g.neighbors(b)


def test_obstacle_outside_grid_rejected():
    with pytest.raises(ValueError):
        GridMap(2, 2, frozenset({(2, 0)}))


def test_manhattan_values():
    assert manhattan((0, 0), (0, 0)) == 0
    assert manhattan((0, 0), (4, 4)) == 8
    assert manhattan((2, 1), (0, 3)) == 4


def test_manhattan_lower_bounds_grid_distance():
    g = GridMap(4, 4, frozenset({(1, 1), (1, 2), (2, 1)}))
    dist = bfs_distances(g, (0, 0))
    for cell, d in dist.items():
        assert manhattan((0, 0), cell) <= d
    empty = GridMap(4, 4)
    for cell, d in bfs_distances(empty, (0, 0)).items():
        assert manhattan((0, 0), cell) == d


@pytest.mark.parametrize("connectivity", [4, 8])
def test_min_moves_lower_bounds_grid_distance(connectivity):
    walls = frozenset({(1, 1), (1, 2), (2, 1)})
    g = GridMap(4, 4, walls, connectivity=connectivity)
    for cell, d in bfs_distances(g, (0, 0)).items():
        assert min_moves(g, (0, 0), cell) <= d
    empty = GridMap(4, 4, connectivity=connectivity)
    for cell, d in bfs_distances(empty, (0, 0)).items():
        assert min_moves(empty, (0, 0), cell) == d
    assert min_moves(empty, (0, 0), (3, 2)) == (3 if connectivity == 8 else 5)


def test_bfs_layers_first_reach_3x3():
    g = GridMap(3, 3)
    table = bfs_layers(g, (0, 0), 2)
    assert table.layers == {
        0: {(0, 0)},
        1: {(0, 1), (1, 0)},
        2: {(0, 2), (1, 1), (2, 0)},
    }


def test_bfs_layers_2x2_shape():
    g = GridMap(2, 2)
    table = bfs_layers(g, (0, 0), 2)
    assert table.layers == {0: {(0, 0)}, 1: {(0, 1), (1, 0)}, 2: {(1, 1)}}


def test_bfs_layers_horizon_zero():
    g = GridMap(3, 3)
    assert bfs_layers(g, (1, 1), 0).layers == {0: {(1, 1)}}


def test_bfs_layers_never_contain_obstacles():
    g = GridMap(4, 4, frozenset({(0, 1), (2, 2), (3, 0)}))
    table = bfs_layers(g, (0, 0), 8)
    for cells in table.layers.values():
        assert not (cells & g.obstacles)


def test_bfs_layers_excluded_cells_omitted():
    g = GridMap(3, 3)
    table = bfs_layers(g, (0, 0), 4, exclude_visited={(0, 1)})
    assert not any((0, 1) in cells for cells in table.layers.values())


def test_bfs_layers_rejects_bad_start():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        bfs_layers(g, (1, 1), 2)
    with pytest.raises(ValueError):
        bfs_layers(g, (0, 0), 2, exclude_visited={(0, 0)})


def test_obstacle_potential_empty_interior():
    g = GridMap(5, 5)
    assert obstacle_potential(g, (2, 2), 1) == 0.0


def test_obstacle_potential_fully_enclosed():
    ring = {(i, j) for i in range(3) for j in range(3)} - {(1, 1)}
    g = GridMap(3, 3, frozenset(ring))
    assert obstacle_potential(g, (1, 1), 1) == 1.0


def test_obstacle_potential_single_neighbor():
    g = GridMap(5, 5, frozenset({(2, 3)}))
    assert obstacle_potential(g, (2, 2), 1) == pytest.approx(1 / 8)


def test_obstacle_potential_borders_count():
    g = GridMap(5, 5)
    assert obstacle_potential(g, (0, 0), 1) == pytest.approx(5 / 8)


def test_max_manhattan():
    assert max_manhattan(GridMap(5, 5)) == 8
    assert max_manhattan(GridMap(1, 7)) == 6
