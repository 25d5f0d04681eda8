from pathlib import Path

import numpy as np
import pytest

from perfbench.corpus import city, serpentine
from quboplan import preprocess
from quboplan.grid import GridMap, bfs_layers, manhattan
from quboplan.penalties import (
    PenaltyWeights,
    RobotWindow,
    WindowSpec,
    build_window_model,
)
from quboplan.preprocess import (
    FixReport,
    fix_logical,
    fix_numeric_diagonal,
    fold,
    forced_ones,
    reduction_pct,
)
from quboplan.planner import build_window
from quboplan.qubo import QuboModel, var_index
from quboplan.scenario import load_scenario

from oracles import (
    all_shortest_paths,
    brute_force_minima,
    four_var_fixture,
    random_grid_model,
)


def window(grid, start, goal, horizon, **kw):
    rec = RobotWindow(start=start, goal=goal, **kw)
    return WindowSpec(grid, (rec,), horizon, PenaltyWeights())


def test_fix_logical_2x2_leaves_two_free():
    spec = window(GridMap(2, 2), (0, 0), (1, 1), 2)
    report, adm = fix_logical(spec)
    assert report.original_count == 12
    assert report.reduced_count == 2
    assert adm[0][0] == {(0, 0)}
    assert adm[0][1] == {(0, 1), (1, 0)}
    assert adm[0][2] == {(1, 1)}
    # start and the forced final singleton are fixed on
    ones = forced_ones(spec.dims, adm)
    assert var_index(spec.dims, 0, 0, (0, 0)) in ones
    assert var_index(spec.dims, 0, 2, (1, 1)) in ones


def test_fix_logical_benchmark_reduction():
    grid = GridMap(5, 5, frozenset({(2, 2)}))
    spec = window(grid, (0, 0), (4, 4), 19)
    report, _ = fix_logical(spec)
    assert report.original_count == 500
    assert reduction_pct(report.original_count, report.reduced_count) >= 95.0


def test_fix_logical_forced_corridor_is_fully_solved():
    spec = window(GridMap(1, 2), (0, 0), (0, 1), 1)
    report, adm = fix_logical(spec)
    assert report.solved_by_preprocess
    assert report.reduced_count == 0
    assert len(forced_ones(spec.dims, adm)) == 2


def test_fix_logical_leaves_a_sealed_start_nothing_free():
    grid = GridMap(3, 3, frozenset({(0, 1), (1, 1), (1, 0)}))
    spec = window(grid, (0, 0), (2, 2), 4)
    report, _ = fix_logical(spec)
    assert report.reduced_count == 0  # the start is a sealed pocket


def test_fix_logical_no_shortest_path_is_pruned():
    rng = np.random.default_rng(9)
    for _ in range(40):
        rows = int(rng.integers(2, 4))
        cols = int(rng.integers(2, 4))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        obstacles = frozenset(c for c in cells if rng.random() < 0.2)
        free = [c for c in cells if c not in obstacles]
        if len(free) < 2:
            continue
        start, goal = free[0], free[-1]
        if start == goal:
            continue
        paths = all_shortest_paths(GridMap(rows, cols, obstacles), start, goal)
        if not paths or len(paths[0]) - 1 > 4:
            continue
        spec = window(GridMap(rows, cols, obstacles), start, goal, 4)
        _, adm = fix_logical(spec)
        for path in paths:
            for t, c in enumerate(path):
                assert c in adm[0][t], (path, t, c)


@pytest.mark.parametrize("allow_wait, steps", [(True, [1, 2, 3, 4]), (False, [1])])
def test_reached_goal_stays_admissible_when_the_window_allows_waits(allow_wait, steps):
    # A robot planning alone in a window with waits must be able to park on
    # its goal; the goal then stays live through the last non-empty layer.
    built = build_window(GridMap(5, 5), [((2, 2), (2, 3), {(2, 2)})], 8,
                         PenaltyWeights(), allow_wait=allow_wait)
    spec, folded = built.spec, built.folded
    live = set(folded.free_vars) | folded.fixed_one
    assert [t for t in range(spec.horizon + 1)
            if var_index(spec.dims, 0, t, (2, 3)) in live] == steps


def test_fold_substitutes_one():
    model = four_var_fixture()
    report = FixReport(fixed_one={0}, fixed_zero=set(),
                       original_count=4, reduced_count=3)
    folded = fold(model, report)
    assert folded.model.constant == -5.0
    # dense indices: 1->0, 2->1, 3->2
    assert folded.model.get(0, 0) == pytest.approx(-3.0 + 4.0)
    assert folded.model.get(1, 1) == 0.0  # -8 + 8 cancels and is dropped
    assert folded.model.get(2, 2) == -6.0
    assert folded.model.get(1, 2) == 10.0
    assert folded.free_vars == [1, 2, 3]


def test_fold_deletes_zeroed_entries():
    model = four_var_fixture()
    report = FixReport(fixed_one=set(), fixed_zero={2},
                       original_count=4, reduced_count=3)
    folded = fold(model, report)
    assert folded.model.constant == 0.0
    assert set(folded.model.coeffs) == {(0, 0), (1, 1), (2, 2), (0, 1)}
    assert folded.model.get(0, 1) == 4.0


def test_fold_identity_when_nothing_fixed():
    model = four_var_fixture()
    folded = fold(model, FixReport(original_count=4, reduced_count=4))
    assert folded.model.coeffs == model.coeffs
    assert folded.free_vars == [0, 1, 2, 3]


def test_fold_rejects_overlapping_fix_sets():
    with pytest.raises(ValueError):
        fold(four_var_fixture(), FixReport(fixed_one={1}, fixed_zero={1}))


def test_fold_preserves_energy_on_random_models():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        model = random_grid_model(rng, n)
        model.constant = float(rng.integers(-4, 5))
        labels = rng.integers(0, 3, size=n)  # 0 free, 1 one, 2 zero
        ones = {i for i in range(n) if labels[i] == 1}
        zeros = {i for i in range(n) if labels[i] == 2}
        folded = fold(model, FixReport(fixed_one=set(ones), fixed_zero=set(zeros),
                                       original_count=n,
                                       reduced_count=n - len(ones) - len(zeros)))
        for _ in range(5):
            free_bits = [int(rng.integers(2)) for _ in folded.free_vars]
            reduced_energy = folded.model.energy(
                {i for i, b in enumerate(free_bits) if b})
            full = folded.expand(free_bits)
            assert reduced_energy == pytest.approx(model.energy(full), abs=1e-9)


def test_numeric_fix_clears_hopeless_outlier():
    rng = np.random.default_rng(2)
    model = QuboModel(12)
    model.add(0, 0, 100.0)
    for v in range(1, 12):
        model.add(v, v, float(rng.uniform(-2, 2)))
    for _ in range(10):
        a, b = rng.integers(0, 12, 2)
        if a != b:
            model.add(int(a), int(b), float(rng.uniform(-2, 2)))
    report = FixReport(original_count=12, reduced_count=12)
    folded = fold(model, report)
    folded = fix_numeric_diagonal(folded, report)
    assert 0 in report.fixed_zero
    assert report.numeric_fixed >= 1


def test_numeric_fix_leaves_negative_diagonals_alone():
    model = QuboModel(6)
    for v in range(6):
        model.add(v, v, -1.0 - v)
    report = FixReport(original_count=6, reduced_count=6)
    folded = fold(model, report)
    folded = fix_numeric_diagonal(folded, report)
    assert report.numeric_fixed == 0
    assert folded.model.num_vars == 6


def test_numeric_fix_cascades():
    # clearing the first outlier removes the negative coupling that shielded
    # the second, which the next round then clears as well
    model = QuboModel(12)
    model.add(0, 0, 60.0)
    model.add(1, 1, 50.0)
    model.add(0, 1, -55.0)
    for v in range(2, 12):
        model.add(v, v, -1.0)
    report = FixReport(original_count=12, reduced_count=12)
    folded = fold(model, report)
    exact_before, argmins_before = brute_force_minima(model)
    folded = fix_numeric_diagonal(folded, report, aggressiveness=1.0)
    assert report.numeric_fixed == 2
    # every surviving optimum matches the original model's optimum
    exact_after, _ = brute_force_minima(folded.model)
    assert exact_after + 0.0 == pytest.approx(exact_before, abs=1e-9)


def test_numeric_fix_preserves_minimum_on_random_instances():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(4, 13))
        model = random_grid_model(rng, n, density=0.5)
        report = FixReport(original_count=n, reduced_count=n)
        folded = fold(model, report)
        folded = fix_numeric_diagonal(folded, report, aggressiveness=1.5)
        if report.numeric_fixed == 0:
            continue
        checked += 1
        best_before, _ = brute_force_minima(model)
        best_after, _ = brute_force_minima(folded.model)
        assert best_after == pytest.approx(best_before, abs=1e-9)
    assert checked >= 5


def test_preprocess_window_end_to_end_energy_identity():
    grid = GridMap(3, 3, frozenset({(1, 1)}))
    built = build_window(grid, [((0, 0), (2, 2), {(0, 0)})], 4, PenaltyWeights())
    spec, folded = built.spec, built.folded
    model = build_window_model(spec, built.admissible)
    rng = np.random.default_rng(12)
    for _ in range(30):
        bits = [int(rng.integers(2)) for _ in folded.free_vars]
        assert folded.model.energy({i for i, b in enumerate(bits) if b}) == pytest.approx(
            model.energy(folded.expand(bits)), abs=1e-9)


def _first_windows():
    """(grid, per-robot window state, horizon, weights) of first windows."""
    for path in sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.scn")):
        scn = load_scenario(str(path))
        yield pytest.param(scn.grid, [(r.start, r.goal, {r.start}) for r in scn.robots],
                           scn.window_cfg.window_len, scn.weights, id=scn.name)
    grid, start, goal = serpentine(40, 0, False)
    yield pytest.param(grid, [(start, goal, {start})], 6, PenaltyWeights(), id="serpentine40")
    inst = city(0)[0]
    yield pytest.param(inst.grid, [(r.start, r.goal, {r.start}) for r in inst.robots],
                       inst.window_cfg.window_len, inst.weights, id="city0")


@pytest.mark.parametrize("grid, robots, horizon, weights", _first_windows())
def test_fold_drops_exactly_the_non_admissible_variables(grid, robots, horizon, weights):
    built = build_window(grid, robots, horizon, weights, allow_wait=len(robots) > 1)
    spec, report, admissible = built.spec, built.report, built.admissible
    model = build_window_model(spec, admissible)
    cells = [(i, j) for i in range(grid.rows) for j in range(grid.cols)]
    outside = {
        var_index(spec.dims, r, t, c)
        for r, layers in enumerate(admissible)
        for t, allowed in enumerate(layers)
        for c in cells if c not in allowed
    }
    report.fixed_one |= forced_ones(spec.dims, admissible)
    explicit = fold(model, FixReport(fixed_one=set(report.fixed_one), fixed_zero=outside))
    implicit = fold(model, report)
    assert implicit.model.coeffs == explicit.model.coeffs
    assert implicit.model.constant == explicit.model.constant
    assert implicit.free_vars == explicit.free_vars
    assert len(implicit.free_vars) == report.reduced_count


def test_fix_logical_work_follows_the_admissible_variables(monkeypatch):
    calls = 0
    real = preprocess.var_index

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(preprocess, "var_index", counted)
    spec = window(GridMap(40, 40), (0, 0), (39, 39), 6)
    report, admissible = fix_logical(spec)
    entries = sum(len(cells) for layers in admissible for cells in layers)
    assert report.original_count == 40 * 40 * 7
    assert calls <= entries


def _window_searching_the_full_map_whenever_exclusions_hide_the_goal(
        grid, robots, horizon, weights, allow_wait):
    """`build_window`'s report and admissible cells under its earlier rule,
    which searched the whole map again whenever the search with exclusions
    missed the goal, and each robot's left-out cells under that rule; also
    counts the searches the current rule skips (goal beyond the horizon,
    layers already at full depth). A robot whose full search the rule keeps
    is given no visited cells, so `fix_logical` searches the whole map for
    it; the others keep theirs, and no cell they leave out may be
    admissible."""
    records, left_out, skippable = [], [], 0
    for start, goal, visited in robots:
        excluded = frozenset(visited) - {start}
        layers = bfs_layers(grid, start, horizon, exclude_visited=excluded)
        reachable = any(goal in cells for cells in layers)
        if not reachable and excluded:
            skippable += (manhattan(start, goal) > horizon
                          and len(layers) == horizon + 1)
            full = bfs_layers(grid, start, horizon)
            reachable = any(goal in cells for cells in full)
            if reachable or len(layers) < len(full):
                visited, excluded = frozenset(), frozenset()
        records.append(RobotWindow(start, goal, visited))
        left_out.append(excluded)
    spec = WindowSpec(grid, tuple(records), horizon, weights, allow_wait)
    report, admissible = fix_logical(spec)
    return report, admissible, left_out, skippable


def test_skipped_full_searches_change_no_window():
    rng = np.random.default_rng(808)
    skipped = 0
    for _ in range(400):
        rows, cols = (int(n) for n in rng.integers(2, 9, size=2))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        obstacles = frozenset(c for c in cells if rng.random() < 0.2)
        free = [c for c in cells if c not in obstacles]
        n_robots = int(rng.integers(1, 3))
        if len(free) < 2 * n_robots:
            continue
        rng.random()  # unused draw; keeps the rest of the random instances fixed
        grid = GridMap(rows, cols, obstacles)
        picks = [free[int(k)] for k in rng.choice(len(free), 2 * n_robots, replace=False)]
        density = rng.random()
        robots = [(start, goal, {start} | {c for c in free if rng.random() < density})
                  for start, goal in zip(picks[:n_robots], picks[n_robots:])]
        horizon = int(rng.integers(1, 9))
        weights, allow_wait = PenaltyWeights(), n_robots > 1
        built = build_window(grid, robots, horizon, weights, allow_wait=allow_wait)
        report, admissible, left_out, skippable = (
            _window_searching_the_full_map_whenever_exclusions_hide_the_goal(
                grid, robots, horizon, weights, allow_wait))
        assert built.report == report
        assert built.admissible == admissible
        for layers, excluded in zip(built.admissible, left_out):
            assert not any(cells & excluded for cells in layers)
        skipped += skippable
    assert skipped >= 20
