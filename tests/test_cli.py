import itertools
import json
import pathlib
import re

import pytest

from quboplan import planner
from quboplan.cli import main
from quboplan.qubo import QuboModel
from quboplan.scenario import load_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _with_one_hot_pairs(model, groups, k_hot) -> QuboModel:
    """`model` plus the one-hot penalty's pair terms, 2 * `k_hot` on every
    pair of variables of one group, none of which `model` holds."""
    complete = QuboModel(model.num_vars, model.constant)
    complete.coeffs.update(model.coeffs)
    members = {}
    for v, g in enumerate(groups):
        members.setdefault(g, []).append(v)
    for variables in members.values():
        for a, b in itertools.combinations(variables, 2):
            assert (a, b) not in complete.coeffs
            complete.coeffs[a, b] = 2.0 * k_hot
    return complete


def test_plan_writes_json_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main(["plan", str(SCENARIOS / "demo3.scn"), "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 4
    assert payload["status"] == "ok"
    assert payload["robots"][0]["moves"] == 4
    assert payload["preprocess"]["original"] == 45


@pytest.mark.parametrize("name", ["single5", "demo3"])
def test_export_qubo_writes_the_model_the_planner_solves_first(name, tmp_path, monkeypatch):
    # demo3's first window takes the window-final reward, so its export's
    # own goal search must give the distances the planner hands the window.
    # The planner solves the model without the one-hot pair terms; the
    # export is the complete model, so it holds them too.
    solved = []
    solve = planner.solve

    def recording_solve(model, *args, groups, **kwargs):
        solved.append((model, groups))
        return solve(model, *args, groups=groups, **kwargs)

    monkeypatch.setattr(planner, "solve", recording_solve)
    scenario = str(SCENARIOS / f"{name}.scn")
    plan, export = tmp_path / "plan.json", tmp_path / "export.txt"
    assert main(["plan", scenario, "-o", str(plan)]) == 0
    assert json.loads(plan.read_text())["windows"][0]["backend"] == "exact"
    assert main(["export-qubo", scenario, "-o", str(export)]) == 0
    model, groups = solved[0]
    k_hot = load_scenario(scenario).weights.k_hot
    assert export.read_text() == _with_one_hot_pairs(model, groups, k_hot).to_text()


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
    scn.write_text("[map]\n...\n..#\n.#.\n\n[robots]\n0 0 2 2\n")
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
    # The export is the planner's first presolved model plus the one-hot
    # pair terms, which the planner leaves out of the model it solves.
    from quboplan.bench import run_pipeline

    presolved = []
    numeric_pass = planner.fix_numeric_diagonal

    def recording(folded, report):
        folded = numeric_pass(folded, report)
        presolved.append(folded)
        return folded

    monkeypatch.setattr(planner, "fix_numeric_diagonal", recording)
    spec = load_scenario(str(SCENARIOS / f"{name}.scn"))
    run_pipeline(spec, spec.seed)
    assert main(["export-qubo", str(SCENARIOS / f"{name}.scn")]) == 0
    first = presolved[0]
    groups = [v // (spec.grid.rows * spec.grid.cols) for v in first.free_vars]
    expected = _with_one_hot_pairs(first.model, groups, spec.weights.k_hot)
    assert capsys.readouterr().out == expected.to_text()


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
def test_the_backend_flag_exits_two(command, tmp_path, monkeypatch, capsys):
    # There is one solver, so no flag chooses it: even the value that named
    # it is an unknown argument.
    monkeypatch.chdir(tmp_path)
    argv = [command[0], str(SCENARIOS / "multi10_2.scn"), "--backend", "annealer"]
    with pytest.raises(SystemExit) as exited:
        main(argv + command[1:])
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert "unrecognized arguments: --backend annealer" in out.err
    assert out.out == "" and not (tmp_path / "out.svg").exists()


def test_the_oracle_check_command_exits_two(capsys):
    # The annealer's agreement check is a test oracle, not a subcommand.
    with pytest.raises(SystemExit) as exited:
        main(["oracle-check"])
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert "invalid choice: 'oracle-check'" in out.err
    assert out.out == ""
