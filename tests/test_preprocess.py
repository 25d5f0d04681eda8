from itertools import product
from pathlib import Path

import numpy as np
import pytest

from perfbench.corpus import city, serpentine
from quboplan import planner, preprocess
from quboplan.grid import GridMap, bfs_distances, bfs_layers, manhattan
from quboplan.penalties import (
    PenaltyWeights,
    RobotWindow,
    WindowSpec,
    build_window_model,
)
from quboplan.preprocess import (
    SLACK,
    FixReport,
    FoldedModel,
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

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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
    assert report.reduced_count == 0
    assert len(forced_ones(spec.dims, adm)) == 2


def test_fix_logical_leaves_a_sealed_start_nothing_free():
    grid = GridMap(3, 3, frozenset({(0, 1), (1, 1), (1, 0)}))
    spec = window(grid, (0, 0), (2, 2), 4)
    report, _ = fix_logical(spec)
    assert report.reduced_count == 0  # the start is a sealed pocket


def test_fix_logical_no_shortest_path_is_pruned():
    # Neither the first-reach layers nor the goal bound drop a cell of a
    # shortest path within the horizon: with the window's own distances,
    # each of its cells sums to the shortest distance, the bound's best.
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(300):
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(2, 6))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        obstacles = frozenset(c for c in cells if rng.random() < 0.2)
        free = [c for c in cells if c not in obstacles]
        if len(free) < 2:
            continue
        start, goal = (free[int(k)] for k in rng.choice(len(free), 2, replace=False))
        horizon = int(rng.integers(1, 9))
        paths = all_shortest_paths(GridMap(rows, cols, obstacles), start, goal)
        if not paths or len(paths[0]) - 1 > horizon:
            continue
        spec = window(GridMap(rows, cols, obstacles), start, goal, horizon)
        for allow_wait, bounded in product((False, True), repeat=2):
            spec = WindowSpec(spec.grid, spec.robots, horizon, spec.weights, allow_wait)
            _, adm = fix_logical(spec, bounded)
            for path in paths:
                for t, c in enumerate(path):
                    assert c in adm[0][t], (path, t, c, allow_wait, bounded)
        checked += 1
    assert checked >= 200


def _random_windows(seed, count):
    """`count` random windows of 1 to 3 robots on maps up to 7x7 with 20 %
    obstacles. Each robot leaves out some visited cells, and the window
    closes up to two more cells; half the robots carry goal distances
    searched on the map without those, as the planner searches them, and
    the spec searches the window's own map for the rest."""
    rng = np.random.default_rng(seed)
    while count:
        rows, cols = (int(n) for n in rng.integers(2, 8, size=2))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        base = GridMap(rows, cols, frozenset(c for c in cells if rng.random() < 0.2))
        free = base.free_cells()
        robots = int(rng.integers(1, 4))
        if len(free) < 2 * robots:
            continue
        picks = [free[int(k)] for k in rng.permutation(len(free))]
        ends, closed = picks[:2 * robots], picks[2 * robots:2 * robots + int(rng.integers(3))]
        records = []
        for start, goal in zip(ends[::2], ends[1::2]):
            visited = {start} | {c for c in free if rng.random() < 0.15}
            distances = bfs_distances(base, goal) if rng.random() < 0.5 else None
            records.append(RobotWindow(start, goal, visited, distances))
        yield WindowSpec(base.with_obstacles(closed), tuple(records), int(rng.integers(1, 9)),
                         PenaltyWeights(), robots > 1)
        count -= 1


def test_the_goal_bound_keeps_a_connected_subset_of_the_first_reach_layers():
    bounded = 0
    for spec in _random_windows(36, 500):
        wide_report, wide = fix_logical(spec, bounded=False)
        report, kept = fix_logical(spec)
        assert report.original_count == wide_report.original_count
        assert report.reduced_count == sum(len(cells) for layers in kept
                                           for cells in layers if len(cells) != 1)
        assert report.bound_dropped == (sum(len(cells) for layers in wide for cells in layers)
                                        - sum(len(cells) for layers in kept for cells in layers))
        for rec, layers, first in zip(spec.robots, kept, wide):
            assert len(layers) == spec.horizon + 1
            assert all(cells <= full for cells, full in zip(layers, first))
            assert layers[0] == {rec.start}
            distances = rec.goal_distances
            if not (wide_report.reduced_count and spec.grid.is_free(rec.goal)
                    and rec.start in distances):
                assert layers == first
                continue
            bounded += 1
            arrival = next((t for t, cells in enumerate(first) if rec.goal in cells), None)
            best = min(arrival if c == rec.goal else t + distances[c]
                       for t, cells in enumerate(first) for c in cells if c in distances)
            last = max(t for t, cells in enumerate(layers) if cells)
            for t, cells in enumerate(layers):
                for c in cells:
                    assert (arrival if c == rec.goal else t + distances[c]) <= best + SLACK
                    if t < last:
                        assert c in layers[t + 1] or spec.grid.neighbors(c) & layers[t + 1]
    assert bounded >= 800


def test_a_window_that_fixing_decides_skips_the_goal_bound():
    # Layers of one cell or none leave nothing to bound, even where they
    # lead away from the goal: the window comes back as first reached.
    decided = 0
    specs = list(_random_windows(37, 800))
    for side in (20, 30):
        grid, start, goal = serpentine(side, 0, False)
        specs.append(window(grid, start, goal, 6))
        specs.append(window(grid, goal, start, 6))
    for spec in specs:
        wide_report, wide = fix_logical(spec, bounded=False)
        if wide_report.reduced_count:
            continue
        assert fix_logical(spec) == (wide_report, wide)
        decided += 1
    assert decided >= 60


@pytest.mark.parametrize("layers, free", [("bounded", 668), ("first-reach", 3306)])
def test_city0_windows_leave_free_the_variables_counted(layers, free, request):
    # The goal bound leaves a fifth of the free variables that the
    # first-reach layers leave over city(0)'s windows; a change that widens
    # the admissible sets fails here.
    if layers == "first-reach":
        request.getfixturevalue("first_reach")
    total = 0
    for inst in city(0):
        result = planner.plan_paths(inst.grid, inst.robots, inst.weights, inst.window_cfg,
                                    inst.solver_cfg)
        total += result.preprocess_totals()["reduced"]
    assert total == free


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
    folded = fold(model, {0})
    assert folded.model.constant == -5.0
    # dense indices: 1->0, 2->1, 3->2
    assert folded.model.get(0, 0) == pytest.approx(-3.0 + 4.0)
    assert folded.model.get(1, 1) == 0.0  # -8 + 8 cancels and is dropped
    assert folded.model.get(2, 2) == -6.0
    assert folded.model.get(1, 2) == 10.0
    assert folded.free_vars == [1, 2, 3]


def test_fold_deletes_zeroed_entries():
    model = four_var_fixture()
    folded = fold(model, (), {2})
    assert folded.model.constant == 0.0
    assert set(folded.model.coeffs) == {(0, 0), (1, 1), (2, 2), (0, 1)}
    assert folded.model.get(0, 1) == 4.0


def test_fold_identity_when_nothing_fixed():
    model = four_var_fixture()
    folded = fold(model, ())
    assert folded.model.coeffs == model.coeffs
    assert folded.free_vars == [0, 1, 2, 3]


def test_fold_rejects_overlapping_fix_sets():
    with pytest.raises(ValueError):
        fold(four_var_fixture(), {1}, {1})


def test_fold_preserves_energy_on_random_models():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        model = random_grid_model(rng, n)
        model.constant = float(rng.integers(-4, 5))
        labels = rng.integers(0, 3, size=n)  # 0 free, 1 one, 2 zero
        ones = {i for i in range(n) if labels[i] == 1}
        zeros = {i for i in range(n) if labels[i] == 2}
        folded = fold(model, ones, zeros)
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
    folded = fix_numeric_diagonal(fold(model, ()), report)
    assert 0 not in folded.free_vars
    assert report.numeric_fixed >= 1
    assert report.reduced_count == len(folded.free_vars)


def test_numeric_fix_leaves_negative_diagonals_alone():
    model = QuboModel(6)
    for v in range(6):
        model.add(v, v, -1.0 - v)
    report = FixReport(original_count=6, reduced_count=6)
    folded = fix_numeric_diagonal(fold(model, ()), report)
    assert report.numeric_fixed == 0
    assert folded.model.num_vars == 6


def _numeric_pass_by_the_full_rule(folded: FoldedModel, report: FixReport) -> FoldedModel:
    """`fix_numeric_diagonal` as its rule reads, with no early return: each
    round takes the mean and std of the diagonals, then clears every
    variable above the threshold whose diagonal its negative couplings
    cannot outweigh."""
    while folded.model.num_vars:
        model = folded.model
        diag, slack = np.zeros(model.num_vars), np.zeros(model.num_vars)
        for (a, b), w in model.coeffs.items():
            if a == b:
                diag[a] += w
            elif w < 0:
                slack[a] += w
                slack[b] += w
        threshold = diag.mean() + preprocess.AGGRESSIVENESS * diag.std()
        doomed = np.flatnonzero((diag > threshold) & (diag + slack > 0)).tolist()
        if not doomed:
            break
        refolded = fold(model, (), doomed)
        kept = [folded.free_vars[d] for d in refolded.free_vars]
        report.numeric_fixed += len(doomed)
        report.reduced_count -= len(folded.free_vars) - len(kept)
        folded = FoldedModel(refolded.model, kept, folded.fixed_one)
    return folded


def test_the_numeric_pass_keeps_a_positive_margin_below_the_threshold():
    # Variable 1's diagonal outweighs its negative coupling, but it lies
    # below the outlier threshold in every round, so it is kept; variable
    # 0 lies above it with no negative coupling, so it is cleared. The
    # pass's early return for a model with no positive margin changes
    # nothing here: it ends as the full rule does, report included.
    model = QuboModel(21)
    model.add(0, 0, 40.0)
    model.add(1, 1, 0.5)
    model.add(1, 2, -0.25)
    for v in range(2, 21):
        model.add(v, v, -1.0 - 0.5 * (v - 2))
    diagonals = np.array([model.get(v, v) for v in range(21)])
    threshold = diagonals.mean() + preprocess.AGGRESSIVENESS * diagonals.std()
    assert 0.5 - 0.25 > 0 and 0.5 < threshold < 40.0
    report = FixReport(original_count=21, reduced_count=21)
    folded = fix_numeric_diagonal(fold(model, ()), report)
    full_report = FixReport(original_count=21, reduced_count=21)
    full = _numeric_pass_by_the_full_rule(fold(model, ()), full_report)
    assert folded.free_vars == list(range(1, 21))
    assert report == full_report == FixReport(21, 20, numeric_fixed=1)
    assert list(folded.model.coeffs.items()) == list(full.model.coeffs.items())
    assert (folded.free_vars, folded.model.constant) == (full.free_vars, full.model.constant)


def test_numeric_fix_cascades(monkeypatch):
    # clearing the first outlier removes the negative coupling that shielded
    # the second, which the next round then clears as well
    model = QuboModel(12)
    model.add(0, 0, 60.0)
    model.add(1, 1, 50.0)
    model.add(0, 1, -55.0)
    for v in range(2, 12):
        model.add(v, v, -1.0)
    report = FixReport(original_count=12, reduced_count=12)
    folded = fold(model, ())
    exact_before, argmins_before = brute_force_minima(model)
    monkeypatch.setattr(preprocess, "AGGRESSIVENESS", 1.0)
    folded = fix_numeric_diagonal(folded, report)
    assert report.numeric_fixed == 2
    # every surviving optimum matches the original model's optimum
    exact_after, _ = brute_force_minima(folded.model)
    assert exact_after + 0.0 == pytest.approx(exact_before, abs=1e-9)


def test_numeric_fix_preserves_minimum_on_random_instances(monkeypatch):
    monkeypatch.setattr(preprocess, "AGGRESSIVENESS", 1.5)
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(4, 13))
        model = random_grid_model(rng, n, density=0.5)
        report = FixReport(original_count=n, reduced_count=n)
        folded = fix_numeric_diagonal(fold(model, ()), report)
        if report.numeric_fixed == 0:
            continue
        checked += 1
        best_before, _ = brute_force_minima(model)
        best_after, _ = brute_force_minima(folded.model)
        assert best_after == pytest.approx(best_before, abs=1e-9)
    assert checked >= 5


def test_preprocess_window_end_to_end_energy_identity():
    from test_penalties import complete

    grid = GridMap(3, 3, frozenset({(1, 1)}))
    built = build_window(grid, [((0, 0), (2, 2), {(0, 0)})], 4, PenaltyWeights())
    spec, folded = built.spec, built.folded
    model = complete(spec, build_window_model(spec, built.admissible))
    rng = np.random.default_rng(12)
    for _ in range(30):
        bits = [int(rng.integers(2)) for _ in folded.free_vars]
        assert folded.model.energy({i for i, b in enumerate(bits) if b}) == pytest.approx(
            model.energy(folded.expand(bits)), abs=1e-9)


def _first_windows():
    """(grid, per-robot window state, horizon, weights) of first windows."""
    for path in sorted(SCENARIOS.glob("*.scn")):
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
    ones = forced_ones(spec.dims, admissible)
    explicit = fold(model, ones, outside)
    implicit = fold(model, ones)
    assert implicit.model.coeffs == explicit.model.coeffs
    assert implicit.model.constant == explicit.model.constant
    assert implicit.free_vars == explicit.free_vars
    assert len(implicit.free_vars) == report.reduced_count


@pytest.mark.parametrize("grid, robots, horizon, weights", _first_windows())
def test_reading_the_folded_model_leaves_the_report_as_fix_logical_made_it(
        grid, robots, horizon, weights):
    built = build_window(grid, robots, horizon, weights, allow_wait=len(robots) > 1)
    built.folded
    assert built.report == fix_logical(built.spec)[0]


def test_the_numeric_pass_clears_nothing_in_planner_windows(monkeypatch):
    # Every free variable of every planner window has a diagonal that its
    # negative couplings outweigh, so the pass's rule never clears one.
    margins = []
    numeric = planner.fix_numeric_diagonal

    def recording(folded, report):
        model = folded.model
        margin = np.zeros(model.num_vars)
        for (a, b), w in model.coeffs.items():
            if a == b:
                margin[a] += w
            elif w < 0:
                margin[a] += w
                margin[b] += w
        margins.append(margin.max())
        return numeric(folded, report)

    monkeypatch.setattr(planner, "fix_numeric_diagonal", recording)
    runs = [load_scenario(str(path)) for path in sorted(SCENARIOS.glob("*.scn"))]
    for run in runs + city(0):
        result = planner.plan_paths(run.grid, run.robots, weights=run.weights,
                                    window_cfg=run.window_cfg, solver_cfg=run.solver_cfg)
        assert all(w.numeric_fixed == 0 for w in result.windows)
    assert len(margins) >= 25
    assert max(margins) < 0


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


def _fix_logical_by_two_scans(spec, bounded, seen):
    """`fix_logical` as it was before the goal's first arrival was read
    once: the layers are scanned for the goal before the fallback, and again
    after padding. Adds to `seen` the branches each robot takes."""
    horizon = spec.horizon
    admissible = []
    for rec in spec.robots:
        start, goal, visited = rec.start, rec.goal, rec.visited
        layers = bfs_layers(spec.grid, start, horizon, exclude_visited=visited)
        reachable = any(goal in cells for cells in layers)
        lower = manhattan(start, goal)
        if (not reachable and len(visited) > (start in visited)
                and (lower <= horizon or len(layers) <= horizon)):
            full = bfs_layers(spec.grid, start, horizon)
            reachable = any(goal in cells for cells in full)
            if reachable or len(layers) < len(full):
                seen.add("full search kept, goal " + ("reached" if reachable else "missed"))
                layers = full
            else:
                seen.add("full search dropped")
        if not reachable:
            seen.add("goal unreachable")
        admissible.append(layers)
    joint_depth = max(len(layers) for layers in admissible) - 1
    for rec, layers in zip(spec.robots, admissible):
        layers += [set() for _ in range(horizon + 1 - len(layers))]
        goal_time = next((t for t, cells in enumerate(layers) if rec.goal in cells), None)
        if spec.allow_wait and goal_time is not None:
            for t in range(goal_time + 1, joint_depth + 1):
                layers[t].add(rec.goal)
        elif goal_time is not None and goal_time < horizon:
            after = layers[goal_time + 1]
            if not spec.grid.neighbors(rec.goal) & after:
                seen.add("dead-end goal")
                for t in range(goal_time + 1, horizon + 1):
                    layers[t].add(rec.goal)

    def free_count():
        return sum(len(cells) for layers in admissible for cells in layers if len(cells) != 1)

    reduced, dropped = free_count(), 0
    if bounded and reduced:
        for r, rec in enumerate(spec.robots):
            if not spec.grid.is_free(rec.goal):
                continue
            distances = rec.goal_distances
            layers = admissible[r]
            arrival = next((t for t, cells in enumerate(layers) if rec.goal in cells), None)
            admissible[r] = preprocess._bound_to_goal(rec.goal, arrival, distances, layers)
            dropped += sum(map(len, layers)) - sum(map(len, admissible[r]))
        reduced = free_count()
    original = len(spec.robots) * spec.grid.rows * spec.grid.cols * (horizon + 1)
    return FixReport(original, reduced, bound_dropped=dropped), admissible


def test_fix_logical_matches_the_two_scan_rule_on_random_windows():
    # Random maps, visited sets from sparse to dense (some wall the goal
    # off), waits on and off, bounded and first-reach: one arrival scan per
    # robot gives the reports and admissible sets that two scans gave.
    rng = np.random.default_rng(4848)
    seen = set()
    for _ in range(1500):
        rows, cols = (int(n) for n in rng.integers(2, 8, size=2))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        base = GridMap(rows, cols, frozenset(c for c in cells if rng.random() < 0.25))
        free = base.free_cells()
        robots = int(rng.integers(1, 4))
        if len(free) < 2 * robots:
            continue
        picks = [free[int(k)] for k in rng.permutation(len(free))]
        density = float(rng.random()) * 0.6
        records = []
        for start, goal in zip(picks[:2 * robots:2], picks[1:2 * robots:2]):
            visited = {start} | {c for c in free if c != goal and rng.random() < density}
            distances = bfs_distances(base, goal) if rng.random() < 0.5 else None
            records.append(RobotWindow(start, goal, visited, distances))
        closed = picks[2 * robots:2 * robots + int(rng.integers(3))]
        horizon = int(rng.integers(1, 9))
        for allow_wait, bounded in product((False, True), repeat=2):
            spec = WindowSpec(base.with_obstacles(closed), tuple(records), horizon,
                              PenaltyWeights(), allow_wait)
            assert fix_logical(spec, bounded) == _fix_logical_by_two_scans(spec, bounded, seen)
    assert seen == {"full search kept, goal reached", "full search kept, goal missed",
                    "full search dropped", "goal unreachable", "dead-end goal"}
