"""Byte-for-byte guard on the CLI's deterministic outputs.

`golden/` holds the `plan` JSON of every shipped scenario and of one test
scenario under `scenarios/` here, and a two-repeat `bench` of demo3.
`export-qubo` output, folded and raw, is pinned by its sha256 digest
instead, since the raw exports run to hundreds of kilobytes. A change that
claims to keep the planner's behaviour must reproduce each file and digest
exactly; a change that means to alter it regenerates them with the commands
below and says so.
"""

import hashlib
import json
import pathlib

import pytest

from quboplan.cli import main

TESTS = pathlib.Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SCENARIOS = TESTS.parent / "scenarios"
PLANNED = ("corridor10", "demo3", "multi10_2", "multi10_4", "multi5", "single5")

# Golden file -> CLI arguments, which each write to the file given by `-o`.
COMMANDS = {
    **{f"plan_{name}.json": ["plan", str(SCENARIOS / f"{name}.scn")] for name in PLANNED},
    "plan_multi10_4_window4.json": ["plan", str(TESTS / "scenarios" / "multi10_4_window4.scn")],
    "bench_demo3.json": ["bench", str(SCENARIOS / "demo3.scn"), "--repeats", "2"],
}

# (scenario, --raw) -> sha256 of the `export-qubo` output.
EXPORT_SHA256 = {
    ("corridor10", False): "069de06075c669ccbe039072a75baa14b30e9e688ce27682c767f56447c33845",
    ("corridor10", True): "060c319952b5e02155bc8c20ad09d32e6848ea5ab893ba9ae83b7f3411743d01",
    ("demo3", False): "2d6a99050c4576e83e384d7e307c0e6b23fed87a741a56cf254e8572eb016f10",
    ("demo3", True): "c829db4616a6ea41b169d896564c205edbc3f3b5509e68e5e318f0171d2bcb79",
    ("single5", False): "0d1bf4cedbdc667c2cc46b9e2da0fd2286c894a9b0ecd3cb8215dad0cbd7463d",
    ("single5", True): "747a104651d2e5f9a729847cf58988a5cedf6d94c13ee92fce660e5c0d941fdf",
}


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_cli_output_matches_golden(golden, tmp_path):
    out = tmp_path / golden
    assert main(COMMANDS[golden] + ["-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_a_golden_plan_mixes_decided_and_sampled_windows():
    # The planner builds no model for a window that variable fixing decides;
    # this plan takes both branches, so its golden file guards both.
    golden = json.loads((GOLDEN / "plan_multi10_4_window4.json").read_text())
    assert [w["backend"] for w in golden["windows"]] == ["presolve", "presolve", "presolve",
                                                         "exact", "exact"]


@pytest.mark.parametrize("name, raw", sorted(EXPORT_SHA256))
def test_export_qubo_output_matches_its_digest(name, raw, tmp_path):
    out = tmp_path / "export.txt"
    argv = ["export-qubo", str(SCENARIOS / f"{name}.scn"), "-o", str(out)]
    assert main(argv + (["--raw"] if raw else [])) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256[name, raw]
