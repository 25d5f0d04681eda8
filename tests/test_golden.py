"""Byte-for-byte guard on the CLI's deterministic outputs.

`golden/` holds the `plan` JSON of every shipped scenario and of one test
scenario under `scenarios/` here, a two-repeat `bench` of demo3 and an
`oracle-check` summary. A change that claims to keep the planner's
behaviour must reproduce each file exactly; a change that means to alter it
regenerates the files with the commands below and says so.
"""

import json
import pathlib

import pytest

from quboplan.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SCENARIOS = TESTS.parent / "scenarios"
PLANNED = ("corridor10", "demo3", "multi10_2", "multi10_4", "multi5", "single5")

# Golden file -> CLI arguments; commands that accept `-o` write to a file.
COMMANDS = {
    **{f"plan_{name}.json": ["plan", str(SCENARIOS / f"{name}.scn")] for name in PLANNED},
    "plan_multi10_4_window4.json": ["plan", str(TESTS / "scenarios" / "multi10_4_window4.scn")],
    "bench_demo3.json": ["bench", str(SCENARIOS / "demo3.scn"), "--repeats", "2"],
    "oracle_check.json": ["oracle-check", "--samples", "4", "--runs", "2", "--seed", "3"],
}


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_cli_output_matches_golden(golden, tmp_path, capsys):
    argv = COMMANDS[golden]
    if argv[0] == "oracle-check":
        assert main(argv) == 0
        produced = capsys.readouterr().out.encode()
    else:
        out = tmp_path / golden
        assert main(argv + ["-o", str(out)]) == 0
        produced = out.read_bytes()
    assert produced == (GOLDEN / golden).read_bytes()


def test_a_golden_plan_mixes_decided_and_sampled_windows():
    # The planner builds no model for a window that variable fixing decides;
    # this plan takes both branches, so its golden file guards both.
    golden = json.loads((GOLDEN / "plan_multi10_4_window4.json").read_text())
    assert [w["backend"] for w in golden["windows"]] == ["annealer", "presolve", "annealer"]
