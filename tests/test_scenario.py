import pathlib
from dataclasses import fields

import pytest

from quboplan.penalties import PenaltyWeights
from quboplan.planner import RobotSpec, WindowConfig
from quboplan.scenario import (
    ScenarioError,
    load_scenario,
    parse_map_text,
    parse_scenario,
)
from quboplan.solvers import SolverConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent

MINIMAL = """
[map]
...
.#.
...

[robots]
0 0 2 2
"""


def test_minimal_scenario_gets_defaults():
    spec = parse_scenario(MINIMAL)
    assert spec.grid.rows == spec.grid.cols == 3
    assert spec.grid.obstacles == frozenset({(1, 1)})
    assert len(spec.robots) == 1
    assert spec.robots[0].start == (0, 0)
    assert spec.robots[0].goal == (2, 2)
    assert spec.robots[0].release == 0
    assert spec.weights == PenaltyWeights()
    assert spec.window_cfg == WindowConfig()
    assert spec.solver_cfg == SolverConfig()
    assert spec.repeats == 1


def test_full_scenario_roundtrip():
    text = """
[map]
....
.##.
....

[robots]
0 0 2 3 0
2 0 0 3 2

[weights]
k_hot = 5.0
k_approx = 2.0

[window]
window_len = 8
max_windows = 12

[solver]
reads = 64
sweeps = 256
seed = 99

[bench]
repeats = 4
"""
    spec = parse_scenario(text, name="full")
    assert spec.name == "full"
    assert (spec.grid.rows, spec.grid.cols) == (3, 4)
    assert spec.grid.obstacles == frozenset({(1, 1), (1, 2)})
    assert spec.robots == [RobotSpec(0, (0, 0), (2, 3), 0), RobotSpec(1, (2, 0), (0, 3), 2)]
    assert spec.weights == PenaltyWeights(k_hot=5.0, k_approx=2.0)
    assert spec.window_cfg == WindowConfig(window_len=8, max_windows=12)
    assert spec.solver_cfg == SolverConfig(num_reads=64, sweeps=256, seed=99)
    assert spec.repeats == 4


def test_every_weight_parses_with_its_type():
    defaults = PenaltyWeights()
    values = {f.name: 2 * getattr(defaults, f.name) + 1 for f in fields(PenaltyWeights)}
    lines = "\n".join(f"{key} = {value}" for key, value in values.items())
    spec = parse_scenario(f"{MINIMAL}\n[weights]\n{lines}\n")
    assert spec.weights == PenaltyWeights(**values)
    for f in fields(PenaltyWeights):
        assert type(getattr(spec.weights, f.name)) is type(getattr(defaults, f.name)), f.name


def test_readme_scenario_example_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    example = section.split("```\n", 2)[1]
    spec = parse_scenario(example, name="readme")
    sections = {line.strip("[]") for line in example.splitlines() if line.startswith("[")}
    assert sections == {"map", "robots", "weights", "window", "solver", "bench"}
    assert spec.robots and spec.grid.obstacles


def test_robot_on_obstacle_rejected_with_line():
    text = "[map]\n.#\n..\n\n[robots]\n0 1 1 1\n"
    with pytest.raises(ScenarioError, match="line 6.*obstacle"):
        parse_scenario(text)


def test_ragged_rows_rejected():
    text = "[map]\n...\n..\n\n[robots]\n0 0 0 2\n"
    with pytest.raises(ScenarioError, match="inconsistent row length"):
        parse_scenario(text)


def test_bad_map_character_rejected():
    text = "[map]\n..x\n...\n...\n\n[robots]\n0 0 2 2\n"
    with pytest.raises(ScenarioError, match="unexpected map character"):
        parse_scenario(text)


def test_indented_map_row_rejected_at_its_first_column():
    text = "[map]\n  ..#\n...\n...\n\n[robots]\n0 0 2 2\n"
    with pytest.raises(ScenarioError,
                       match=r"^line 2: column 1: unexpected map character ' '$"):
        parse_scenario(text)


def test_crlf_line_ends_parse_like_lf():
    assert parse_scenario(MINIMAL.replace("\n", "\r\n")) == parse_scenario(MINIMAL)


def test_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "bom.scn"
    path.write_text(MINIMAL.lstrip(), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf[map]")
    assert load_scenario(str(path)) == parse_scenario(MINIMAL, name="bom")


def test_duplicate_robot_rejected():
    text = "[map]\n...\n...\n...\n\n[robots]\n0 0 2 2\n0 0 2 2\n"
    with pytest.raises(ScenarioError, match="duplicate robot"):
        parse_scenario(text)


def test_shared_goal_rejected():
    text = "[map]\n...\n...\n...\n\n[robots]\n0 0 2 2\n0 1 2 2\n"
    with pytest.raises(ScenarioError, match="share a goal"):
        parse_scenario(text)


def test_unknown_section_and_key_rejected():
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario("[maps]\n...\n")
    for section, line in (("solver", "threads = 4"), ("weights", "norm_scale = 1.0"),
                          ("window", "max_retries = 5"), ("weights", "goal_ramp_max = 2.0"),
                          ("weights", "bt_soft_factor = 0.5"), ("weights", "potential_radius = 1"),
                          ("solver", "beta0 = 0.2"), ("solver", "beta1 = 8.0"),
                          ("solver", "backend = exhaustive")):
        text = MINIMAL + f"\n[{section}]\n{line}\n"
        with pytest.raises(ScenarioError, match=f"unknown \\[{section}\\] key"):
            parse_scenario(text)


@pytest.mark.parametrize("section, line, message", [
    ("weights", "k_hot = inf", "k_hot must be finite and strictly positive"),
])
def test_non_finite_values_rejected(section, line, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario(MINIMAL + f"\n[{section}]\n{line}\n")


def test_out_of_grid_robot_rejected():
    text = "[map]\n..\n..\n\n[robots]\n0 0 5 5\n"
    with pytest.raises(ScenarioError, match="outside the map"):
        parse_scenario(text)


def test_malformed_robot_line_rejected():
    text = "[map]\n..\n..\n\n[robots]\n0 0 1\n"
    with pytest.raises(ScenarioError, match="robot line"):
        parse_scenario(text)


@pytest.mark.parametrize("text", ["[map]\n[robots]\n0 0 1 1\n", "[robots]\n0 0 1 1\n"],
                         ids=["empty", "missing"])
def test_empty_or_missing_map_rejected(text):
    with pytest.raises(ScenarioError, match=r"missing or empty \[map\] section"):
        parse_scenario(text)


SMALL = "[map]\n..\n..\n[robots]\n"  # the robot lines start at line 5


@pytest.mark.parametrize("text, message", [
    (SMALL + "0 0 1 1\n\n[map]\n", "line 7: duplicate section [map]"),
    ("0 0 1 1\n" + SMALL, "line 1: content before any section"),
    (SMALL, "missing or empty [robots] section"),
    ("[map]\n..\n..\n", "missing or empty [robots] section"),
    (SMALL + "0 0 1 x\n", "line 5: robot fields must be integers"),
    (SMALL + "0 0 1 1 -1\n", "line 5: release must be >= 0"),
    (SMALL + "0 0 1 1\n\n[window]\nwindow_len = 4\nwindow_len = 4\n",
     "line 9: duplicate [window] key 'window_len'"),
    (SMALL + "0 0 1 1\n\n[window]\nwindow_len 4\n",
     "line 8: expected 'key = value', got 'window_len 4'"),
    (SMALL + "0 0 1 1\n[bench]\nrepeats = 0\n", "line 7: repeats must be >= 1"),
    (SMALL + "0 0 1 1\n[window]\nwindow_len = 3.0\n",
     "line 7: window_len must be an integer, got '3.0'"),
    (SMALL + "0 0 1 1\n[solver]\nseed = 1e3\n", "line 7: seed must be an integer, got '1e3'"),
    (SMALL + "0 0 1 1\n[bench]\nrepeats = 2.5\n",
     "line 7: repeats must be an integer, got '2.5'"),
    (SMALL + "0 0 1 1\n[weights]\nk_hot = 4,0\n", "line 7: k_hot must be a number, got '4,0'"),
    (SMALL + "0 0 1 1\n[solver]\nbeta0 = 0.2\n", "line 7: unknown [solver] key 'beta0'"),
    (SMALL + "0 0 1 1\n[solver]\nbackend = exhaustive\n",
     "line 7: unknown [solver] key 'backend'"),
], ids=["duplicate-section", "before-section", "empty-robots", "missing-robots",
        "non-integer-robot", "negative-release", "duplicate-key", "not-key-value",
        "zero-repeats", "fractional-window-len", "exponent-seed", "fractional-repeats",
        "comma-weight", "removed-beta", "removed-backend"])
def test_scenario_rejections_name_their_line(text, message):
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(text)
    assert str(excinfo.value) == message


def test_parse_map_text_direct():
    grid = parse_map_text(["..#", "#.."])
    assert grid.rows == 2 and grid.cols == 3
    assert grid.obstacles == frozenset({(0, 2), (1, 0)})


def test_shipped_scenarios_parse(tmp_path):
    root = ROOT / "scenarios"
    names = sorted(p.name for p in root.glob("*.scn"))
    assert names, "shipped scenario files are missing"
    for name in names:
        spec = load_scenario(str(root / name))
        assert spec.robots
