import numpy as np
import pytest

from quboplan.grid import (
    GridMap,
    bfs_distances,
    bfs_layers,
    manhattan,
)

import oracles


def test_neighbors_interior_four_connected():
    g = GridMap(3, 3)
    assert g.neighbors((1, 1)) == {(0, 1), (2, 1), (1, 0), (1, 2)}


def test_neighbors_corner_with_obstacle():
    g = GridMap(3, 3, frozenset({(0, 1)}))
    assert g.neighbors((0, 0)) == {(1, 0)}


def test_neighbors_wait_adds_self():
    g = GridMap(3, 3)
    assert g.neighbors((1, 1), allow_wait=True) == {(0, 1), (2, 1), (1, 0), (1, 2), (1, 1)}


def test_neighbors_rejects_obstacle_and_outside():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        g.neighbors((1, 1))
    with pytest.raises(ValueError):
        g.neighbors((3, 0))


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", [1.5, True])
def test_a_grid_size_that_is_not_an_int_is_rejected(field, value):
    # A float size used to construct a map that planning then failed on
    # with a bare TypeError.
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        GridMap(**{"rows": 3, "cols": 3, field: value})


def test_neighbors_symmetric():
    rng = np.random.default_rng(4)
    g = GridMap(5, 6, frozenset({(1, 1), (2, 4), (3, 3)}))
    free = g.free_cells()
    for a in free:
        for b in g.neighbors(a):
            assert a in g.neighbors(b)


def test_neighbors_match_the_first_rule_on_random_maps():
    # The inline candidate tests must give the same sets, built in the same
    # order, as the rule through `is_free`, and refuse the same cells.
    rng = np.random.default_rng(31)
    refused = set()
    for _ in range(60):
        rows, cols = (int(n) for n in rng.integers(1, 8, size=2))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        g = GridMap(rows, cols, frozenset(c for c in cells if rng.random() < 0.3))
        outside = [(-1, 0), (0, -1), (rows, 0), (0, cols), (rows, cols), (-1, cols)]
        for c in cells + outside:
            for allow_wait in (False, True):
                try:
                    expected = oracles.neighbors(g, c, allow_wait)
                except ValueError as err:
                    with pytest.raises(ValueError) as got:
                        g.neighbors(c, allow_wait=allow_wait)
                    assert str(got.value) == str(err)
                    refused.add("obstacle" if g.in_bounds(c) else "outside")
                    continue
                assert list(g.neighbors(c, allow_wait=allow_wait)) == list(expected)
    assert refused == {"obstacle", "outside"}


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


def test_bfs_layers_first_reach_3x3():
    g = GridMap(3, 3)
    assert bfs_layers(g, (0, 0), 2) == [
        {(0, 0)},
        {(0, 1), (1, 0)},
        {(0, 2), (1, 1), (2, 0)},
    ]


def test_bfs_layers_2x2_shape():
    g = GridMap(2, 2)
    assert bfs_layers(g, (0, 0), 2) == [{(0, 0)}, {(0, 1), (1, 0)}, {(1, 1)}]


def test_bfs_layers_end_at_the_last_new_cell():
    g = GridMap(2, 2)
    layers = bfs_layers(g, (0, 0), 5)
    assert layers == [{(0, 0)}, {(0, 1), (1, 0)}, {(1, 1)}]
    # The start is seen from step 0, so excluding it changes nothing.
    assert bfs_layers(g, (0, 0), 5, exclude_visited={(0, 0)}) == layers


def test_bfs_layers_horizon_zero():
    g = GridMap(3, 3)
    assert bfs_layers(g, (1, 1), 0) == [{(1, 1)}]


def test_bfs_layers_never_contain_obstacles():
    g = GridMap(4, 4, frozenset({(0, 1), (2, 2), (3, 0)}))
    for cells in bfs_layers(g, (0, 0), 8):
        assert not (cells & g.obstacles)


def test_bfs_layers_excluded_cells_omitted():
    g = GridMap(3, 3)
    layers = bfs_layers(g, (0, 0), 4, exclude_visited={(0, 1)})
    assert not any((0, 1) in cells for cells in layers)


def test_bfs_layers_rejects_bad_start():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    for start in ((1, 1), (3, 0), (0, -1)):
        with pytest.raises(ValueError) as expected:
            oracles.bfs_layers(g, start, 2)
        with pytest.raises(ValueError) as got:
            bfs_layers(g, start, 2)
        assert str(got.value) == str(expected.value) == f"start {start} is not a free cell"


# Maps one or three cells thin, where a flat index that mixed up rows and
# columns would step off the map or wrap onto another row.
THIN_SIZES = [(1, 40), (40, 1), (3, 37), (37, 3)]


def _random_map(rng, rows, cols):
    density = rng.uniform(0.0, 0.4)
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    return GridMap(rows, cols, frozenset(c for c in cells if rng.random() < density))


def test_bfs_layers_match_the_first_search_on_random_maps():
    # The inline step tests must give the layers of the search through
    # `GridMap.neighbors`, at every horizon, whatever the exclusions hold:
    # the start or not, cells the search never reaches, cells off the map,
    # and cells that can only be asked about.
    rng = np.random.default_rng(41)
    sizes = [tuple(int(n) for n in rng.integers(1, 9, size=2)) for _ in range(150)]
    maps = start_excluded = unreached_excluded = 0
    for rows, cols in sizes + THIN_SIZES:
        g = _random_map(rng, rows, cols)
        free = g.free_cells()
        if not free:
            continue
        maps += 1
        start = free[int(rng.integers(len(free)))]
        reached = oracles.bfs_distances(g, start)
        unreached = [c for c in free if c not in reached]
        off_map = [(-1, 0), (0, -1), (rows, cols - 1), (rows - 1, cols)]
        excluded = {c for c in free + unreached + off_map if rng.random() < 0.3}
        if rng.random() < 0.5:
            excluded.add(start)
        start_excluded += start in excluded
        unreached_excluded += not excluded.isdisjoint(unreached)
        opaque = oracles.CellsWithoutIteration(excluded)
        for horizon in range(rows * cols + 1):
            assert bfs_layers(g, start, horizon) == oracles.bfs_layers(g, start, horizon)
            expected = oracles.bfs_layers(g, start, horizon, excluded)
            assert bfs_layers(g, start, horizon, exclude_visited=excluded) == expected
            assert bfs_layers(g, start, horizon, exclude_visited=opaque) == expected
    assert maps >= 140 and start_excluded >= 50 and unreached_excluded >= 20


def test_bfs_distances_match_the_first_search_on_random_maps():
    # The padded frontier loop must give the distances of the search through
    # `GridMap.neighbors`, from every start, small components and thin maps
    # too.
    rng = np.random.default_rng(37)
    sizes = [tuple(int(n) for n in rng.integers(1, 9, size=2)) for _ in range(240)]
    maps = small = 0
    for rows, cols in sizes + THIN_SIZES:
        g = _random_map(rng, rows, cols)
        free = g.free_cells()
        maps += bool(free)
        for start in free:
            expected = oracles.bfs_distances(g, start)
            assert bfs_distances(g, start) == expected
            small += len(expected) <= min(3, len(free) - 1)
    assert maps >= 200 and small >= 100
    for rows, cols in THIN_SIZES:
        g = GridMap(rows, cols)
        corner = (rows - 1, cols - 1)
        assert bfs_distances(g, (0, 0)) == oracles.bfs_distances(g, (0, 0))
        assert bfs_distances(g, corner)[(0, 0)] == rows + cols - 2


def test_bfs_distances_reject_a_blocked_or_outside_start():
    g = GridMap(3, 3, frozenset({(1, 1)}))
    for start in ((1, 1), (3, 0), (0, -1)):
        with pytest.raises(ValueError) as expected:
            oracles.bfs_distances(g, start)
        with pytest.raises(ValueError) as got:
            bfs_distances(g, start)
        assert str(got.value) == str(expected.value) == f"start {start} is not a free cell"

