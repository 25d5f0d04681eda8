import json
import pathlib

import numpy as np
import pytest

from quboplan.bench import classical_lengths, format_table, report_json, run_benchmark
from quboplan.classical import astar
from quboplan.grid import GridMap
from quboplan.planner import RobotSpec
from quboplan.scenario import ScenarioSpec, load_scenario, parse_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_single_robot_lengths_never_beat_classical():
    spec = load_scenario(str(SCENARIOS / "single5.scn"))
    report = run_benchmark(spec, repeats=5)
    classical = report["classical"]["total"]
    for run in report["runs"]:
        if run["length"] is not None:
            assert run["length"] >= classical


def test_report_shape_and_reduction_summary():
    spec = load_scenario(str(SCENARIOS / "demo3.scn"))
    report = run_benchmark(spec, repeats=2)
    assert report["schema"] == 4
    assert report["grid"] == "3x3"
    assert report["robots"] == 1
    assert report["reduction"]["original"] == 45
    assert 0 <= report["qubo"]["success_rate"] <= 1
    assert report["ratio_best"] == 1.0
    # deterministic serialization
    assert report_json(report) == report_json(json.loads(report_json(report)))


def test_classical_infeasible_marks_both_sides():
    text = """
[map]
...
..#
.#.

[robots]
0 0 2 2
"""
    spec = parse_scenario(text, name="walled")
    report = run_benchmark(spec, repeats=2)
    assert report["classical"]["total"] is None
    assert report["qubo"]["best_length"] is None
    assert report["ratio_best"] is None
    assert all(not r["success"] for r in report["runs"])


def test_classical_lengths_of_one_robot_are_the_astar_lengths():
    # Prioritized space-time A* with nothing to avoid finds the A* length,
    # also when the robot is released late or its goal is walled off.
    rng = np.random.default_rng(53)
    walled = released = 0
    for _ in range(200):
        rows, cols = (int(n) for n in rng.integers(1, 8, size=2))
        density = rng.uniform(0.0, 0.4)
        cells = [(i, j) for i in range(rows) for j in range(cols)]
        grid = GridMap(rows, cols, frozenset(c for c in cells if rng.random() < density))
        free = grid.free_cells()
        if not free:
            continue
        start, goal = (free[int(k)] for k in rng.integers(0, len(free), size=2))
        release = int(rng.integers(0, 4))
        path = astar(grid, start, goal)
        moves = None if path is None else len(path) - 1
        spec = ScenarioSpec(grid, [RobotSpec(0, start, goal, release)])
        assert classical_lengths(spec) == {"per_robot": {0: moves}, "total": moves}
        walled += path is None
        released += release > 0
    assert walled >= 10 and released >= 100


@pytest.mark.parametrize("name, per_robot", [
    ("corridor10", [53]),
    ("demo3", [4]),
    ("multi10_2", [18, 18]),
    ("multi10_4", [9, 9, 9, 9]),
    ("multi5", [8, 8]),
    ("single5", [8]),
])
def test_classical_lengths_of_the_shipped_scenarios(name, per_robot):
    spec = load_scenario(str(SCENARIOS / f"{name}.scn"))
    assert classical_lengths(spec) == {"per_robot": dict(enumerate(per_robot)),
                                       "total": sum(per_robot)}


def test_format_table_alignment():
    spec = load_scenario(str(SCENARIOS / "demo3.scn"))
    report = run_benchmark(spec, repeats=1)
    table = format_table([report])
    lines = table.splitlines()
    assert lines[0].startswith("Scenario")
    assert set(lines[1]) <= {"-", " "}
    assert "demo3" in lines[2]
    assert "8/8" in lines[2] or "4/4" in lines[2]


def test_timings_flag_adds_seconds():
    spec = load_scenario(str(SCENARIOS / "demo3.scn"))
    timed = run_benchmark(spec, repeats=1, include_timings=True)
    assert "seconds" in timed["runs"][0]
    plain = run_benchmark(spec, repeats=1)
    assert "seconds" not in plain["runs"][0]
