import json
import pathlib

from quboplan.bench import format_table, report_json, run_benchmark
from quboplan.scenario import load_scenario, parse_scenario

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
    assert report["schema"] == 2
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

[solver]
backend = exhaustive
"""
    spec = parse_scenario(text, name="walled")
    report = run_benchmark(spec, repeats=2)
    assert report["classical"]["total"] is None
    assert report["qubo"]["best_length"] is None
    assert report["ratio_best"] is None
    assert all(not r["success"] for r in report["runs"])


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
