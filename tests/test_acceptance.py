"""Acceptance gate: every release criterion as an executable check.

Each test prints one PASS line on success (visible with `pytest -s` or `-v`);
a failure of any test here means the build does not meet its contract.
"""

import json
import pathlib
import time
from itertools import product

import numpy as np
import pytest

from perfbench.checker import check_plans
from quboplan.bench import run_benchmark, run_pipeline
from quboplan.classical import astar
from quboplan.cli import main as cli_main
from quboplan.grid import GridMap
from quboplan.penalties import build_window_model, dense_admissible
from quboplan.planner import RobotSpec, STATUS_REACHED, WindowConfig, plan_paths
from quboplan.preprocess import fold
from quboplan.qubo import var_index
from quboplan.scenario import load_scenario
from quboplan.solvers import SolverConfig

from oracles import peak_rescaled, penalty_energy, random_grid_model, solve_exhaustive

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

SMALL_PATTERNS = {
    "2x2": (2, 2, ()),
    "2x3": (2, 3, ()),
    "3x3-empty": (3, 3, ()),
    "3x3-center": (3, 3, ((1, 1),)),
    "3x3-edge": (3, 3, ((0, 1),)),
    "3x3-el": (3, 3, ((0, 1), (1, 1))),
    "3x3-wall": (3, 3, ((1, 0), (1, 1))),
    "3x3-gap": (3, 3, ((0, 1), (2, 1))),
    "3x3-two": (3, 3, ((1, 1), (2, 0))),
}


def _spec(name):
    return load_scenario(str(SCENARIOS / f"{name}.scn"))


def test_criterion_1_exhaustive_ground_truth_matches_astar(exhaustive):
    started = time.perf_counter()
    checked = 0
    for rows, cols, obstacles in SMALL_PATTERNS.values():
        grid = GridMap(rows, cols, frozenset(obstacles))
        free = grid.free_cells()
        for start, goal in product(free, free):
            if start == goal:
                continue
            reference = astar(grid, start, goal)
            if reference is None:
                continue
            optimum = len(reference) - 1
            window = max(2, min(4, optimum + 1))
            robots = [RobotSpec(0, start, goal)]
            plan = plan_paths(grid, robots, window_cfg=WindowConfig(window_len=window)).plans[0]
            checked += 1
            assert plan.status == STATUS_REACHED, (start, goal, plan.status)
            assert check_plans(grid, robots, {0: plan.steps}) == [], (start, goal)
            assert plan.moves == optimum, (start, goal, plan.moves, optimum)
            assert all(w.reduced <= 20 for w in plan.window_log)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"ground-truth sweep took {elapsed:.1f}s"
    assert checked > 300
    print(f"ACCEPTANCE 1 PASS - {checked} exhaustive scenarios match the "
          f"classical optimum exactly ({elapsed:.1f}s)")


def test_criterion_2_single_robot_benchmark():
    started = time.perf_counter()
    spec = _spec("single5")
    report = run_benchmark(spec, repeats=20)
    classical = report["classical"]["total"]
    matches = sum(1 for r in report["runs"] if r["length"] == classical)
    assert matches >= 18, f"only {matches}/20 runs matched {classical}"
    assert report["reduction"]["reduction_pct_min"] >= 95.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 PASS - single-robot 5x5: {matches}/20 optimal, "
          f"reduction {report['reduction']['reduction_pct_min']:.1f}% ({elapsed:.1f}s)")


def test_criterion_3_two_robot_benchmark():
    spec = _spec("multi5")
    report = run_benchmark(spec, repeats=20)
    classical = report["classical"]["total"]
    matches = sum(1 for r in report["runs"] if r["length"] == classical)
    assert matches >= 16, f"only {matches}/20 runs matched {classical}"
    assert report["reduction"]["reduction_pct_min"] >= 96.0
    print(f"ACCEPTANCE 3 PASS - two-robot 5x5: {matches}/20 equal the "
          f"prioritized baseline, reduction "
          f"{report['reduction']['reduction_pct_min']:.1f}%")


@pytest.mark.parametrize("name", ["multi10_2", "multi10_4"])
def test_criterion_4_ten_by_ten_ratio_bound(name):
    spec = _spec(name)
    report = run_benchmark(spec, repeats=5)
    classical = report["classical"]["total"]
    best = report["qubo"]["best_length"]
    assert best is not None, "no successful run in 5 seeds"
    ratio = best / classical
    assert ratio <= 1.06, f"{name}: best {best} vs classical {classical}"
    print(f"ACCEPTANCE 4 PASS - {name}: best {best} vs classical {classical} "
          f"(ratio {ratio:.3f} <= 1.06)")


def test_criterion_5_fully_preprocessed_windowed_scenario():
    spec = _spec("corridor10")
    result = run_pipeline(spec, spec.seed)
    assert result.succeeded
    assert len(result.windows) > 1, "scenario must actually be windowed"
    assert all(w.solved_by_preprocess for w in result.windows)
    plan = result.plans[0]
    assert plan.status == STATUS_REACHED
    assert check_plans(spec.grid, spec.robots, {plan.robot: plan.steps}) == []
    print(f"ACCEPTANCE 5 PASS - corridor scenario: {len(result.windows)} windows, "
          f"all decided by preprocessing, plan valid at {plan.moves} moves")


def test_criterion_6_closed_form_equivalence():
    from test_penalties import _random_window, complete

    rng = np.random.default_rng(2024)
    pairs = 0
    while pairs < 1000:
        spec = _random_window(rng)
        adm = dense_admissible(spec)
        allow_wait = len(spec.robots) > 1
        model = complete(spec, build_window_model(spec, adm))
        for _ in range(4):
            occupancy = []
            ones = set()
            for r, rec in enumerate(spec.robots):
                per_t = {}
                for t in range(spec.horizon + 1):
                    chosen = {c for c in adm[r][t] if rng.random() < 0.3}
                    if chosen:
                        per_t[t] = chosen
                        ones |= {var_index(spec.dims, r, t, c) for c in chosen}
                occupancy.append(per_t)
            direct = penalty_energy(spec, adm, occupancy, allow_wait=allow_wait)
            assert abs(model.energy(ones) - direct) <= 1e-9
            pairs += 1
    print(f"ACCEPTANCE 6 PASS - {pairs} random occupancies match the "
          f"closed-form penalty sums within 1e-9")


def test_criterion_7_normalization_argmin_invariance():
    # Minimizer sets are compared by mutual achievement of the minimum: a
    # tolerance of 1e-9 absorbs the last-ulp rounding of the common positive
    # rescale, which cannot reorder strictly separated energies.
    rng = np.random.default_rng(404)
    models = 0
    while models < 200:
        n = int(rng.integers(2, 15))
        model = random_grid_model(rng, n)
        if not model.coeffs:
            continue
        models += 1
        base = solve_exhaustive(model)
        base_bits = {s.bits for s in base}
        for scale in (1.0, 2.0, 5.0):
            scaled_model = peak_rescaled(model, scale)
            scaled = solve_exhaustive(scaled_model)
            tol = 1e-9 * max(1.0, abs(scaled.best.energy))
            for bits in base_bits:
                ones = {i for i, b in enumerate(bits) if b}
                assert scaled_model.energy(ones) <= scaled.best.energy + tol
            tol_base = 1e-9 * max(1.0, abs(base.best.energy))
            for s in scaled:
                ones = {i for i, b in enumerate(s.bits) if b}
                assert model.energy(ones) <= base.best.energy + tol_base
    print("ACCEPTANCE 7 PASS - 200 models keep identical minimizer sets under "
          "normalization scales 1.0/2.0/5.0")


def test_criterion_8_fold_soundness():
    rng = np.random.default_rng(808)
    models = 0
    while models < 200:
        n = int(rng.integers(3, 13))
        model = random_grid_model(rng, n)
        model.constant = float(rng.integers(-4, 5))
        labels = rng.integers(0, 3, size=n)
        ones = {i for i in range(n) if labels[i] == 1}
        zeros = {i for i in range(n) if labels[i] == 2}
        folded = fold(model, ones, zeros)
        models += 1
        for _ in range(4):
            bits = [int(rng.integers(2)) for _ in folded.free_vars]
            reduced = folded.model.energy({i for i, b in enumerate(bits) if b})
            assert abs(reduced - model.energy(folded.expand(bits))) <= 1e-9
    print("ACCEPTANCE 8 PASS - 200 folded models preserve energies exactly")


def test_criterion_9_validator_completeness_over_corpus():
    from quboplan.multi import plan_multi

    def reached_errors(grid, robots, result):
        # The independent checker over the plans that reached their goal;
        # where only one did, it also rejects that plan's waits.
        steps = {p.robot: p.steps for p in result.plans if p.status == STATUS_REACHED}
        return check_plans(grid, [r for r in robots if r.id in steps], steps)

    failures = []
    # shipped scenarios, one seed each
    for name in ("single5", "multi5", "corridor10", "multi10_2", "multi10_4", "demo3"):
        spec = _spec(name)
        result = run_pipeline(spec, spec.seed)
        errors = reached_errors(spec.grid, spec.robots, result)
        if errors:
            failures.append((name, errors))
    # random small scenarios across seeds
    rng = np.random.default_rng(909)
    for trial in range(30):
        rows, cols = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        obstacles = frozenset(c for c in cells if rng.random() < 0.15)
        grid = GridMap(rows, cols, obstacles)
        free = grid.free_cells()
        if len(free) < 4:
            continue
        picks = [free[int(k)] for k in rng.choice(len(free), 4, replace=False)]
        robots = [RobotSpec(0, picks[0], picks[1]), RobotSpec(1, picks[2], picks[3])]
        result = plan_multi(grid, robots,
                            window_cfg=WindowConfig(window_len=6),
                            solver_cfg=SolverConfig(seed=trial, num_reads=100, sweeps=400))
        errors = reached_errors(grid, robots, result)
        if errors:
            failures.append((trial, errors))
    assert failures == [], failures
    print("ACCEPTANCE 9 PASS - every goal-reaching plan in the corpus passes "
          "one-hot/adjacency/obstacle/vertex checks")


def test_criterion_10_byte_identical_json(tmp_path, capsys):
    for name, extra in (("demo3", []), ("multi10_4", [])):
        first = tmp_path / f"{name}_1.json"
        second = tmp_path / f"{name}_2.json"
        argv = ["plan", str(SCENARIOS / f"{name}.scn")] + extra
        assert cli_main(argv + ["-o", str(first)]) == 0
        assert cli_main(argv + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    # bench output without timings is deterministic too
    b1 = tmp_path / "bench1.json"
    b2 = tmp_path / "bench2.json"
    argv = ["bench", str(SCENARIOS / "demo3.scn"), "--repeats", "2"]
    assert cli_main(argv + ["-o", str(b1)]) == 0
    assert cli_main(argv + ["-o", str(b2)]) == 0
    assert b1.read_bytes() == b2.read_bytes()
    print("ACCEPTANCE 10 PASS - identical (scenario, seed) pairs produce "
          "byte-identical JSON")
