import json
import pathlib
import re

import pytest

from quboplan.cli import main

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_plan_writes_json_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main(["plan", str(SCENARIOS / "demo3.scn"), "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 3
    assert payload["status"] == "ok"
    assert payload["robots"][0]["moves"] == 4
    assert payload["preprocess"]["original"] == 45


def test_plan_missing_file_exits_two(capsys):
    assert main(["plan", "nowhere.scn"]) == 2
    assert "error" in capsys.readouterr().err


def test_plan_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[map]\n..\n.\n\n[robots]\n0 0 1 1\n")
    assert main(["plan", str(bad)]) == 2
    assert "inconsistent row length" in capsys.readouterr().err


def test_plan_rejects_an_empty_map_section_with_exit_two(tmp_path, capsys):
    scn = tmp_path / "nomap.scn"
    scn.write_text("[map]\n[robots]\n0 0 1 1\n")
    assert main(["plan", str(scn)]) == 2
    assert capsys.readouterr().err == "error: missing or empty [map] section\n"


def test_plan_infeasible_exits_one(tmp_path, capsys):
    scn = tmp_path / "walled.scn"
    scn.write_text("[map]\n...\n..#\n.#.\n\n[robots]\n0 0 2 2\n\n[solver]\nbackend = exhaustive\n")
    code = main(["plan", str(scn)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["robots"][0]["status"] == "infeasible"


def test_plan_seed_override_changes_output_seed(tmp_path):
    out1 = tmp_path / "a.json"
    main(["plan", str(SCENARIOS / "demo3.scn"), "--seed", "123", "-o", str(out1)])
    assert json.loads(out1.read_text())["seed"] == 123


def test_bench_deterministic_without_timings(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    args = ["bench", str(SCENARIOS / "demo3.scn"), "--repeats", "2"]
    assert main(args + ["-o", str(first)]) == 0
    assert main(args + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_plan_verbose_prints_one_line_per_robot(tmp_path, capsys):
    code = main(["plan", str(SCENARIOS / "demo3.scn"), "--verbose",
                 "-o", str(tmp_path / "plan.json")])
    assert code == 0
    assert capsys.readouterr().err == "robot 0: reached_goal, 4 moves\n"


def test_bench_table_prints_its_header_row(tmp_path, capsys):
    code = main(["bench", str(SCENARIOS / "demo3.scn"), "--repeats", "1", "--table",
                 "-o", str(tmp_path / "bench.json")])
    assert code == 0
    header, rule, row = capsys.readouterr().err.splitlines()
    assert header.split() == ["Scenario", "Grid", "Robots", "Path", "(C/Q)", "Vars",
                              "(orig/red)", "Reduction", "%", "Success"]
    assert set(rule) <= {"-", " "}
    assert row.split()[0] == "demo3"


def test_export_qubo_rejects_a_multi_robot_scenario(capsys):
    assert main(["export-qubo", str(SCENARIOS / "multi5.scn")]) == 2
    assert capsys.readouterr().err == "error: export-qubo handles single-robot scenarios\n"


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--backend", "exhaustive"],
                                  ["--reads", "0"], ["--sweeps", "5"]],
                         ids=["seed", "backend", "reads", "sweeps"])
def test_export_qubo_rejects_the_solver_flags(flag, capsys):
    # export-qubo builds no solver, so it takes none of its settings.
    with pytest.raises(SystemExit) as exited:
        main(["export-qubo", str(SCENARIOS / "single5.scn")] + flag)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_plan_rejects_a_nan_weight_with_exit_two(tmp_path, capsys):
    scn = tmp_path / "demo3.scn"
    scn.write_text((SCENARIOS / "demo3.scn").read_text() + "\n[weights]\nk_adj = nan\n")
    assert main(["plan", str(scn)]) == 2
    out = capsys.readouterr()
    assert out.err == "error: k_adj must be finite and strictly positive\n"
    assert out.out == ""


@pytest.mark.parametrize("key", ["k_start", "k_tel"])
def test_plan_rejects_a_weight_that_is_now_a_constant(key, tmp_path, capsys):
    # The start reward and the early-goal penalty are constants in
    # `penalties`: no planner window can feel them, so no file may set them.
    scn = tmp_path / "demo3.scn"
    scn.write_text((SCENARIOS / "demo3.scn").read_text() + f"\n[weights]\n{key} = 4.0\n")
    assert main(["plan", str(scn)]) == 2
    out = capsys.readouterr()
    assert f"unknown [weights] key '{key}'" in out.err
    assert out.out == ""


def test_render_writes_svg(tmp_path, capsys):
    out = tmp_path / "demo.svg"
    code = main(["render", str(SCENARIOS / "demo3.scn"), "-o", str(out)])
    assert code == 0
    assert out.read_text().startswith("<svg ")


def test_export_qubo_text_format(capsys):
    code = main(["export-qubo", str(SCENARIOS / "demo3.scn")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    head = lines[0].split()
    assert len(head) == 2
    assert int(head[0]) >= 1
    for line in lines[1:]:
        a, b, w = line.split()
        assert int(a) <= int(b)
        float(w)


def test_export_qubo_raw_is_larger(capsys):
    main(["export-qubo", str(SCENARIOS / "demo3.scn")])
    folded_lines = len(capsys.readouterr().out.splitlines())
    main(["export-qubo", str(SCENARIOS / "demo3.scn"), "--raw"])
    raw_lines = len(capsys.readouterr().out.splitlines())
    assert raw_lines > folded_lines


@pytest.mark.parametrize("name", ["demo3", "single5"])
def test_export_qubo_is_the_planners_first_window(name, capsys, monkeypatch):
    from quboplan import planner
    from quboplan.bench import run_pipeline
    from quboplan.scenario import load_scenario

    presolved = []
    numeric_pass = planner.fix_numeric_diagonal

    def recording(folded, report):
        folded = numeric_pass(folded, report)
        presolved.append(folded.model)
        return folded

    monkeypatch.setattr(planner, "fix_numeric_diagonal", recording)
    spec = load_scenario(str(SCENARIOS / f"{name}.scn"))
    run_pipeline(spec, spec.seed)
    assert main(["export-qubo", str(SCENARIOS / f"{name}.scn")]) == 0
    assert capsys.readouterr().out == presolved[0].to_text()


def test_oracle_check_small_run(capsys):
    code = main(["oracle-check", "--samples", "4", "--runs", "2",
                 "--seed", "3", "--threshold", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["runs"] == 8


@pytest.mark.parametrize("argv, window", [
    (["plan", "--reads", "-5"], ""),
    (["plan", "--reads", "0"], ""),
    (["plan", "--sweeps", "0"], ""),
    (["bench", "--repeats", "0"], ""),
    (["bench", "--repeats", "-1"], ""),
    (["plan"], "max_windows = 0\n"),
], ids=["reads-5", "reads0", "sweeps0", "repeats0", "repeats-1", "max_windows0"])
def test_out_of_range_inputs_exit_two(argv, window, tmp_path, capsys):
    scn = tmp_path / "demo3.scn"
    text = (SCENARIOS / "demo3.scn").read_text()
    scn.write_text(text.replace("[window]\n", "[window]\n" + window))
    assert main([argv[0], str(scn)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \w+ must be >= [01]\n", err), err


@pytest.mark.parametrize("command", [["plan"], ["bench"], ["render", "-o", "out.svg"]],
                         ids=["plan", "bench", "render"])
def test_exhaustive_backend_on_a_large_window_exits_two(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [command[0], str(SCENARIOS / "multi10_2.scn"), "--backend", "exhaustive"]
    assert main(argv + command[1:]) == 2
    out = capsys.readouterr()
    assert out.err == "error: exhaustive backend handles at most 24 variables, got 124\n"
    assert out.out == "" and not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize("flag", ["--samples", "--runs"])
def test_oracle_check_rejects_zero_counts(flag, capsys):
    assert main(["oracle-check", flag, "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan", "inf"])
def test_oracle_check_rejects_a_threshold_outside_zero_to_one(threshold, capsys):
    assert main(["oracle-check", "--threshold", threshold]) == 2
    out = capsys.readouterr()
    assert out.err == "error: threshold must be a number in [0, 1]\n"
    assert out.out == ""
