import json
import sys
from pathlib import Path

import pytest

import quboplan
from quboplan import GridMap, RobotSpec, bfs_distances, load_scenario
from quboplan.qubo import QuboModel

from perfbench import corpus, harness, pace, tracer
from perfbench.checker import check_plans

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generators_are_deterministic():
    assert corpus.corridor(7) == corpus.corridor(7)
    assert corpus.city(3) == corpus.city(3)
    assert corpus.shipped(ROOT / "scenarios") == corpus.shipped(ROOT / "scenarios")
    assert corpus.corridor(7) != corpus.corridor(8)


def test_shipped_uses_each_scenario_repeats_and_bench_seeds():
    instances = corpus.shipped(ROOT / "scenarios")
    for path in sorted((ROOT / "scenarios").glob("*.scn")):
        spec = load_scenario(str(path))
        mine = [i for i in instances if i.name.split("#")[0] == spec.name]
        assert [i.solver_cfg.seed for i in sorted(mine, key=lambda i: int(i.name.split("#")[1]))] \
            == [corpus.derived_seed(spec.seed, k) for k in range(spec.repeats)]
    assert corpus.shipped(ROOT / "scenarios", corpus_seed=1) != instances


def test_city_instances_are_connected_and_distinct():
    for inst in corpus.city(5):
        ends = [r.start for r in inst.robots] + [r.goal for r in inst.robots]
        assert len(set(ends)) == len(ends)
        for r in inst.robots:
            assert r.goal in bfs_distances(inst.grid, r.start)


def test_serpentine_reproduces_corridor10():
    spec = load_scenario(str(ROOT / "scenarios" / "corridor10.scn"))
    grid, start, goal = corpus.serpentine(10, symmetry=0, reverse=False)
    assert grid == spec.grid
    assert (start, goal) == (spec.robots[0].start, spec.robots[0].goal)


GRID = GridMap(3, 3, frozenset({(1, 1)}))
TWO = (RobotSpec(0, (0, 0), (0, 2)), RobotSpec(1, (2, 0), (0, 1)))


def _steps(*cells, start=0):
    return [(start + k, c) for k, c in enumerate(cells)]


def test_checker_accepts_a_valid_plan():
    plans = {0: _steps((0, 0), (1, 0), (1, 0), (0, 0), (0, 1), (0, 2)),
             1: _steps((2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1))}
    # Robot 1 passes (0, 2) at t=4, before robot 0 parks there at t=5.
    assert check_plans(GRID, TWO, plans) == []


def test_checker_rejects_adjacency_jump():
    robot = RobotSpec(0, (0, 0), (0, 2))
    errors = check_plans(GRID, (robot,), {0: _steps((0, 0), (0, 2))})
    assert any("jumps" in e for e in errors)


def test_checker_rejects_obstacle_step():
    robot = RobotSpec(0, (0, 1), (2, 1))
    errors = check_plans(GRID, (robot,), {0: _steps((0, 1), (1, 1), (2, 1))})
    assert any("obstacle" in e for e in errors)


def test_checker_rejects_clash_with_parked_robot():
    plans = {0: _steps((0, 0), (0, 1), (0, 2)),
             1: _steps((2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1))}
    errors = check_plans(GRID, TWO, plans)
    assert errors == ["robots 0 and 1 share (0, 2) at t=4"]


@pytest.mark.parametrize("steps, fragment", [
    (_steps((0, 0), (0, 0), (0, 1), (0, 2)), "waits"),
    (_steps((0, 1), (0, 2)), "starts on"),
    (_steps((0, 0), (0, 1)), "ends on"),
    ([(0, (0, 0)), (2, (0, 1)), (3, (0, 2))], "time jumps"),
    (_steps((0, 0), (0, 1), (0, 2), start=1), "released"),
])
def test_checker_rejects_single_robot_faults(steps, fragment):
    robot = RobotSpec(0, (0, 0), (0, 2))
    assert any(fragment in e for e in check_plans(GRID, (robot,), {0: steps}))


def _bindings():
    """Every (owner, attribute) -> object binding the tracer may touch."""
    out = {(QuboModel, "energy"): QuboModel.energy}
    for name, mod in list(sys.modules.items()):
        if name == "quboplan" or name.startswith("quboplan."):
            out.update({(name, attr): value for attr, value in vars(mod).items()})
    return out


def test_traced_and_untraced_plans_match_and_wrappers_are_removed():
    before = _bindings()
    instances = [corpus.warmup()] + corpus.corridor(1)[:1]
    plain = [harness.plan_digest(harness.plan(inst)[0]) for inst in instances]
    with tracer.Tracer() as t:
        assert quboplan.plan_multi is not before[("quboplan", "plan_multi")]
        traced = [harness.plan_digest(harness.plan(inst)[0]) for inst in instances]
    assert traced == plain
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    layers = {s.layer for s in t.spans}
    assert {"multi", "planner", "grid", "preprocess", "penalties", "solvers",
            "qubo", "postprocess"} <= layers
    for span in t.spans:
        assert span.self_s >= 0
        if span.parent is not None:
            parent = t.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end


def test_tracer_patches_names_the_planner_imported():
    with tracer.Tracer():
        from quboplan import planner, preprocess
        assert planner.solve is quboplan.solvers.solve
        assert planner.fold is preprocess.fold
        assert hasattr(planner.solve, "__wrapped__")


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    before = _bindings()
    monkeypatch.setitem(tracer.TRACED, "grid", ("bfs_layers", "no_such_function"))
    with pytest.raises(RuntimeError, match="no_such_function"):
        with tracer.Tracer():
            pass
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


@pytest.fixture
def small_corridors(monkeypatch):
    """Twelve 8x8 corridors in place of the corridor workload."""
    monkeypatch.setattr(corpus, "CORRIDOR_SIDES", (8,) * 12)


def _run(capsys, *args, seconds=1):
    code = harness.main(["--workload", "corridor", "--seed", "3", "--seconds", str(seconds),
                         *args], ROOT)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_reports_exactly_the_declared_metrics(small_corridors, capsys):
    code, result, lines = _run(capsys, "--trace", "0")
    assert code == 0 and result["correct"]
    assert result["attempted"] == 12 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert result["metrics"]["success_rate"]["value"] == 1.0
    digest = next(line for line in lines if line.startswith("digest"))

    code, traced, lines = _run(capsys, "--trace", "1")
    assert code == 0 and traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert traced["metrics"]["solvers.calls"]["value"] == 0
    assert digest in lines


def test_pacer_scales_by_the_kernel_before_and_after(monkeypatch):
    times = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(pace, "kernel_seconds", lambda parts: next(times))
    pacer = pace.Pacer(("interpreted", "streamed"))
    reference = pace.REFERENCE_S["interpreted"] + pace.REFERENCE_S["streamed"]
    assert pacer.run(lambda: "one") == ("one", reference / 0.03)
    assert pacer.run(lambda: "two") == ("two", reference / 0.025)


def test_every_workload_paces_with_known_parts():
    for _, _, parts in harness.WORKLOADS.values():
        assert parts and set(parts) <= set(pace.PARTS) == set(pace.REFERENCE_S)


def test_times_are_reported_at_the_reference_speed(small_corridors, capsys, monkeypatch):
    parts = harness.WORKLOADS["corridor"][2]
    reference = sum(pace.REFERENCE_S[part] for part in parts)
    monkeypatch.setattr(pace, "kernel_seconds", lambda parts: 2 * reference)
    code, result, lines = _run(capsys, "--trace", "0")
    wall = float(next(line for line in lines if line.startswith("tts_wall_s")).split()[1])
    assert code == 0
    assert result["metrics"]["tts_s"]["value"] == pytest.approx(wall / 2)


def test_passes_repeat_the_corpus_and_time_each_instance_by_its_median(
        small_corridors, capsys, monkeypatch):
    _, one, lines = _run(capsys, "--trace", "0")
    digest = next(line for line in lines if line.startswith("digest"))
    # Three passes, taking 5, 1 and 0 s a plan: each instance's median is 1 s.
    parts = harness.WORKLOADS["corridor"][2]
    reference = sum(pace.REFERENCE_S[part] for part in parts)
    monkeypatch.setattr(pace, "kernel_seconds", lambda parts: reference)
    plan, seen = harness.plan, []
    def fake(inst):
        seen.append(inst.name)
        return plan(inst)[0], (5.0, 1.0, 0.0)[seen.count(inst.name) - 1]
    monkeypatch.setattr(harness, "plan", lambda inst: fake(inst) if inst.name != "warmup"
                        else plan(inst))
    budget = harness.WORKLOADS["corridor"][0]
    code, three, lines = _run(capsys, "--trace", "0", seconds=3 * budget)
    assert code == 0 and three["correct"]
    assert three["attempted"] == 3 * one["attempted"] == 36
    assert digest in lines
    assert three["metrics"]["tts_s"]["value"] == pytest.approx(1.0)


def test_setup_is_sampled_through_the_untraced_run(small_corridors, capsys, monkeypatch):
    calls = []
    timed_setup = harness.timed_setup
    monkeypatch.setattr(harness, "timed_setup", lambda *a: calls.append(a) or timed_setup(*a))
    code, result, _ = _run(capsys, "--trace", "0")
    assert code == 0 and len(calls) == harness.SETUP_SAMPLES
    code, result, _ = _run(capsys, "--trace", "1")
    assert code == 0 and len(calls) == harness.SETUP_SAMPLES


def test_checker_rejection_is_a_failed_and_incorrect_run(small_corridors, capsys, monkeypatch):
    monkeypatch.setattr(harness, "check_plans", lambda grid, robots, steps: ["crafted fault"])
    code, result, lines = _run(capsys, "--trace", "0")
    assert code != 0 and not result["correct"]
    assert result["failed"] == result["attempted"] == 12
    assert any(line.startswith("problem corridor8#0") for line in lines)
