from pathlib import Path

import numpy as np
import pytest

from perfbench.corpus import city, serpentine
from quboplan import preprocess
from quboplan.grid import GridMap
from quboplan.penalties import (
    GOAL_MODE_APPROX,
    GOAL_MODE_LATE,
    PenaltyWeights,
    RobotWindow,
    WindowSpec,
    build_window_model,
)
from quboplan.preprocess import (
    FixReport,
    InfeasibleWindowError,
    fix_logical,
    fix_numeric_diagonal,
    fold,
)
from quboplan.planner import build_window
from quboplan.qubo import QuboModel, var_index
from quboplan.scenario import load_scenario

from oracles import all_shortest_paths, brute_force_minima, four_var_fixture, random_grid_model


def window(grid, start, goal, horizon, mode=GOAL_MODE_LATE, **kw):
    rec = RobotWindow(start=start, goal=goal, horizon=horizon, goal_mode=mode, **kw)
    return WindowSpec(grid, (rec,), PenaltyWeights())


def test_fix_logical_2x2_leaves_two_free():
    spec = window(GridMap(2, 2), (0, 0), (1, 1), 2)
    report, adm = fix_logical(spec)
    assert report.original_count == 12
    assert report.reduced_count == 2
    assert adm[0][0] == {(0, 0)}
    assert adm[0][1] == {(0, 1), (1, 0)}
    assert adm[0][2] == {(1, 1)}
    # start and the forced final singleton are fixed on
    assert var_index(spec.dims, 0, 0, (0, 0)) in report.fixed_one
    assert var_index(spec.dims, 0, 2, (1, 1)) in report.fixed_one


def test_fix_logical_benchmark_reduction():
    grid = GridMap(5, 5, frozenset({(2, 2)}))
    spec = window(grid, (0, 0), (4, 4), 19)
    report, _ = fix_logical(spec)
    assert report.original_count == 500
    assert report.reduction_pct >= 95.0


def test_fix_logical_forced_corridor_is_fully_solved():
    spec = window(GridMap(1, 2), (0, 0), (0, 1), 1)
    report, _ = fix_logical(spec)
    assert report.solved_by_preprocess
    assert report.reduced_count == 0
    assert len(report.fixed_one) == 2


def test_fix_logical_rejects_unreachable_goal_in_goal_seeking_mode():
    grid = GridMap(3, 3, frozenset({(0, 1), (1, 1), (1, 0)}))
    with pytest.raises(InfeasibleWindowError):
        fix_logical(window(grid, (0, 0), (2, 2), 4))
    # the approximation objective tolerates it
    report, _ = fix_logical(window(grid, (0, 0), (2, 2), 4, mode=GOAL_MODE_APPROX))
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
    spec, _, folded = build_window(grid, [((0, 0), (2, 2), {(0, 0)})], 4, PenaltyWeights())
    model = build_window_model(spec, fix_logical(spec)[1])
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
    allow_wait = len(robots) > 1
    spec, _, _ = build_window(grid, robots, horizon, weights, allow_wait=allow_wait)
    report, admissible = fix_logical(spec)
    model = build_window_model(spec, admissible, allow_wait=allow_wait)
    cells = [(i, j) for i in range(grid.rows) for j in range(grid.cols)]
    outside = {
        var_index(spec.dims, r, t, c)
        for r, layers in enumerate(admissible)
        for t, allowed in enumerate(layers)
        for c in cells if c not in allowed
    }
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
    spec = window(GridMap(40, 40), (0, 0), (39, 39), 6, mode=GOAL_MODE_APPROX)
    report, admissible = fix_logical(spec)
    entries = sum(len(cells) for layers in admissible for cells in layers)
    assert report.original_count == 40 * 40 * 7
    assert calls <= entries
