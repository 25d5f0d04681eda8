import hashlib
import json
import math
import pathlib
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from perfbench.checker import check_plans
from perfbench.corpus import city, shipped
from quboplan.bench import run_pipeline
from quboplan.multi import plan_multi
import quboplan.planner as planner
from quboplan.planner import build_window, derive_seed
import quboplan.solvers as solvers
from quboplan.qubo import QuboModel
from quboplan.scenario import load_scenario
from quboplan.solvers import SolverConfig, solve

from oracles import (
    anneal_one_hot,
    brute_force_minima,
    cut,
    four_var_fixture,
    group_graph_is_forest,
    one_hot_two_lowest,
    oracle_check,
    peak_rescaled,
    random_grid_model,
    random_instances,
    solve_exhaustive,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
# The fixture's unique minimum (1, 0, 0, 1) sets one variable of each pair.
PAIRS = (0, 0, 1, 1)


def _tied_triangle():
    """Three groups of three, each coupled with the other two, whose minimum
    -4.0 is not unique: members 0 and 1 of the first group tie. The groups
    form a cycle; `solve` answers it by elimination all the same."""
    model = QuboModel(9)
    for v, w in enumerate([-2.0, -2.0, 1.0, -1.0, 0.5, 2.0, -1.0, 0.0, 1.0]):
        model.add(v, v, w)
    for u, v in ((2, 5), (5, 8), (2, 8)):
        model.add(u, v, 0.5)
    return model, [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_solver_config_validation():
    with pytest.raises(TypeError):
        SolverConfig(backend="x")
    with pytest.raises(ValueError):
        SolverConfig(num_reads=0)


@pytest.mark.parametrize("field", ["num_reads", "sweeps"])
@pytest.mark.parametrize("value", [20.5, True])
def test_solver_config_rejects_a_count_that_is_not_an_int(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("value", [2.5, True])
def test_solver_config_rejects_a_seed_that_is_not_an_int(value):
    # A float seed used to construct and then fail mid-plan with a bare
    # TypeError, and True planned as seed 1.
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {value!r}$"):
        SolverConfig(seed=value)


def test_exhaustive_finds_known_minimum():
    result = solve_exhaustive(four_var_fixture())
    assert result.best.energy == -11.0
    assert result.best.bits == (1, 0, 0, 1)
    assert len(result) == 1  # unique optimum


def test_exhaustive_empty_model():
    result = solve_exhaustive(QuboModel(0, constant=2.5))
    assert result.best.energy == 2.5
    assert result.best.bits == ()


def test_exhaustive_nonnegative_model_minimized_by_zero():
    m = QuboModel(5)
    for v in range(5):
        m.add(v, v, float(v + 1))
    m.add(0, 3, 2.0)
    result = solve_exhaustive(m)
    assert result.best.bits == (0, 0, 0, 0, 0)
    assert result.best.energy == 0.0


def test_exhaustive_returns_all_ties():
    m = QuboModel(3)
    m.add(0, 0, -1.0)
    m.add(1, 1, -1.0)
    result = solve_exhaustive(m)
    # bit 2 is indifferent, so four assignments tie at -2
    assert result.best.energy == -2.0
    tied = {s.bits for s in result.samples if s.energy == -2.0}
    assert tied == {(1, 1, 0), (1, 1, 1)}


def test_exhaustive_matches_brute_force_on_random_models():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        m = random_grid_model(rng, n)
        m.constant = float(rng.integers(-3, 4))
        best, argmins = brute_force_minima(m)
        result = solve_exhaustive(m)
        assert result.best.energy == pytest.approx(best, abs=1e-12)
        assert {s.bits for s in result.samples} == set(argmins)


def test_exhaustive_rejects_oversized_models():
    with pytest.raises(ValueError):
        solve_exhaustive(QuboModel(25))


def test_annealer_finds_known_minimum():
    result = _anneal(four_var_fixture(), PAIRS, SolverConfig(seed=3, num_reads=50))
    assert result.best.energy == -11.0
    assert result.best.bits == (1, 0, 0, 1)


def test_annealer_zero_variables():
    # No read runs, so none is counted.
    result = solve(QuboModel(0, constant=1.5), SolverConfig(num_reads=7), groups=())
    assert result.best.energy == 1.5
    assert result.best.occurrences == 0


def test_annealer_needs_groups():
    with pytest.raises(ValueError):
        solve(four_var_fixture(), SolverConfig(), groups=(0, 1))


def _anneal(model, groups, cfg):
    """The annealer itself, all `cfg.num_reads` reads, as `solve` runs it
    on a model above the table cap."""
    return solvers._anneal(model, solvers._one_hot_model(model, groups), cfg)


def _layout(model, groups):
    """The annealer's layout of the model, grouped as `solve` groups it."""
    return solvers._one_hot_layout(solvers._one_hot_model(model, groups))


def test_annealer_deterministic_for_fixed_seed(monkeypatch):
    # Hot enough that the reads do not all settle in the minimum.
    monkeypatch.setattr(solvers, "_BETA_RANGE", (0.01, 0.02))
    m, groups = _tied_triangle()
    cfg = SolverConfig(seed=99, num_reads=20, sweeps=100)
    first = _anneal(m, groups, cfg)
    second = _anneal(m, groups, cfg)
    assert [(s.bits, s.energy, s.occurrences) for s in first] == \
           [(s.bits, s.energy, s.occurrences) for s in second]
    different = _anneal(m, groups, replace(cfg, seed=100))
    assert [(s.bits, s.occurrences) for s in first] != \
           [(s.bits, s.occurrences) for s in different]


def _reads_used(result):
    """The reads an annealed sample set counts."""
    return sum(s.occurrences for s in result)


def _assert_eliminated(result, model, groups):
    """Check that `solve` answered a model within the table cap by
    elimination: one sample, no read, at the lowest one-hot energy."""
    lowest, _, _ = one_hot_two_lowest(model, groups)
    assert [s.occurrences for s in result] == [0]
    assert result.best.energy == pytest.approx(lowest, abs=1e-9)


def _state_bits(one_hot, state):
    """The model bits of one state, the member chosen in each group."""
    bits = [0] * sum(map(len, one_hot.members))
    for members, chosen in zip(one_hot.members, state):
        bits[members[chosen]] = 1
    return tuple(bits)


def _state_energy(model, one_hot, state):
    return model.energy(solvers._ones(one_hot, state))


def test_sampleset_energies_reverify_and_occurrences_sum():
    m, groups = _tied_triangle()
    cfg = SolverConfig(seed=5, num_reads=64, sweeps=200)
    result = _anneal(m, groups, cfg)
    assert _reads_used(result) == 64
    for s in result:
        assert s.energy == m.energy({i for i, b in enumerate(s.bits) if b})
    energies = [s.energy for s in result]
    assert energies == sorted(energies)


def test_metropolis_equilibrium_statistics():
    # One group of three members at energies 0, 0.5 and 1 under a fixed
    # temperature: uniform proposals are symmetric, so member occupancy
    # converges to the Boltzmann weights. The kernel runs all 4,000 reads;
    # `solve` would answer the model by elimination.
    beta = 1.25
    m = QuboModel(3)
    m.add(1, 1, 0.5)
    m.add(2, 2, 1.0)
    cfg = SolverConfig(seed=8, num_reads=4000, sweeps=60)
    layout = _layout(m, (0, 0, 0))
    held = layout.order[solvers._anneal_one_hot(layout, cfg, np.full(60, beta))[:, 0]]
    weights = np.exp(-beta * np.array([0.0, 0.5, 1.0]))
    for member, expected in enumerate(weights / weights.sum()):
        hits = int((held == member).sum())
        assert hits / 4000 == pytest.approx(expected, abs=0.03)


def test_solve_dispatch():
    m = four_var_fixture()
    with pytest.raises(TypeError, match="groups"):
        solve(m, SolverConfig())
    assert solve(m, SolverConfig(seed=1, num_reads=30), groups=PAIRS).best.energy == -11.0


def test_annealer_agrees_with_exhaustive_on_pipeline_instances():
    report = oracle_check(samples=25, runs_per_sample=4, seed=7)
    assert report["runs"] == 100
    assert report["agreement"] >= 0.95


def test_a_small_agreement_check_is_deterministic():
    # The instances and the annealer's seeds follow from `seed` alone, so
    # this small check gives the same summary on every run.
    report = oracle_check(samples=4, runs_per_sample=2, seed=3)
    assert {k: v for k, v in report.items() if k != "instances"} == {
        "samples": 4, "runs": 8, "agreed": 8, "agreement": 1.0}
    # Each instance's exact one-hot minimum, the bar every run is held to.
    assert [d["ground_energy"] for d in report["instances"]] == pytest.approx(
        [-27.7, -15.1, -17.5, -8.5])


def _first_window(name):
    """The folded model, annealer settings and variable groups of a shipped
    scenario's first window, built on first-reach layers at the scenario's
    own weights, with the solver settings seeded as the planner seeds the
    first window's tries. (The goal bound decides multi10_4's first window
    outright, and these windows are the solver's subjects.)"""
    spec = load_scenario(str(SCENARIOS / f"{name}.scn"))
    robots = [(r.start, r.goal, {r.start}) for r in spec.robots]
    window = build_window(spec.grid, robots, spec.window_cfg.window_len,
                          spec.weights, allow_wait=len(robots) > 1, bounded=False)
    folded = window.folded
    cfg = replace(spec.solver_cfg, seed=derive_seed(spec.seed, 0, 0, 0))
    return folded.model, cfg, window.groups


def _window(name, monkeypatch):
    """`_first_window(name)`, or for "triangle" `_tied_triangle`, with the
    annealer's β range patched so hot that its reads spread over many
    states."""
    if name != "triangle":
        return _first_window(name)
    monkeypatch.setattr(solvers, "_BETA_RANGE", (0.01, 0.02))
    model, groups = _tied_triangle()
    return model, SolverConfig(seed=3, num_reads=40, sweeps=20), groups


def _draws(sampleset):
    return [(s.bits, s.occurrences) for s in sampleset]


def _members(groups):
    out: dict[int, list[int]] = {}
    for v, g in enumerate(groups):
        out.setdefault(g, []).append(v)
    return list(out.values())


@pytest.mark.parametrize("name", ["single5", "multi5", "multi10_4", "triangle"])
def test_every_sample_sets_one_bit_per_group(name, monkeypatch):
    # Both the state elimination returns and every annealed read.
    model, cfg, groups = _window(name, monkeypatch)
    cfg = replace(cfg, num_reads=40, sweeps=50)
    eliminated = solve(model, cfg, groups=groups)
    assert [s.occurrences for s in eliminated] == [0]
    annealed = _anneal(model, groups, cfg)
    assert _reads_used(annealed) == 40
    for s in [*eliminated, *annealed]:
        assert all(sum(s.bits[v] for v in members) == 1 for members in _members(groups))


def _record_runs(monkeypatch):
    """The read count of each kernel call `solve` makes, in call order."""
    runs = []
    kernel = solvers._anneal_one_hot

    def recorded(layout, cfg, betas):
        runs.append(cfg.num_reads)
        return kernel(layout, cfg, betas)

    monkeypatch.setattr(solvers, "_anneal_one_hot", recorded)
    return runs


def _betas(layout, sweeps, beta_range=None):
    """Each sweep's β as `_anneal` sets it: `beta_range`, by default
    `solvers._BETA_RANGE`, per unit of the layout's peak."""
    scale = 1.0 / layout.peak if layout.peak > 0 else 1.0
    return np.geomspace(*(beta_range or solvers._BETA_RANGE), sweeps) * scale


def _full_run(model, groups, cfg):
    layout = _layout(model, groups)
    return layout, solvers._anneal_one_hot(layout, cfg, _betas(layout, cfg.sweeps))


# corridor10's first window is decided by variable fixing and builds no model.
# Every other first window fits the table cap, so `solve` answers it exactly:
# by elimination, with no read. The triangle is solved under a test-only cap
# below its 9-entry pair tables, so `solve` anneals it, all its reads.
@pytest.mark.parametrize("name, exact", [("demo3", True), ("multi10_2", True),
                                         ("multi10_4", True), ("multi5", True),
                                         ("single5", True), ("triangle", False)])
def test_solve_returns_the_first_reads_of_a_full_run(name, exact, monkeypatch):
    model, cfg, groups = _window(name, monkeypatch)
    if not exact:
        monkeypatch.setattr(solvers, "_EXACT_TABLE_CAP", 8)
    result = solve(model, cfg, groups=groups)
    used = sum(s.occurrences for s in result)
    assert (used == 0) == exact
    if used == 0:
        assert len(result) == 1
        return
    assert used == cfg.num_reads
    layout, states = _full_run(model, groups, cfg)
    prefix = solvers._collect(model, solvers._tally(layout, states[:used]))
    assert _draws(result) == _draws(prefix)


def test_solve_derives_the_annealers_seed_from_its_seed_parts(monkeypatch):
    # With seed parts, the reads draw from `derive_seed(cfg.seed, *parts)`,
    # the seed the planner drew for a window before `solve` took the parts;
    # without them, from `cfg.seed` as given. The triangle anneals under a
    # test-only cap; an exact answer derives nothing.
    model, cfg, groups = _window("triangle", monkeypatch)
    derived, derive = [], solvers.derive_seed

    def recorded(*args):
        derived.append(args)
        return derive(*args)

    monkeypatch.setattr(solvers, "derive_seed", recorded)
    assert solve(model, cfg, groups=groups, seed_parts=(2, 0, 0)).best.occurrences == 0
    assert derived == []
    monkeypatch.setattr(solvers, "_EXACT_TABLE_CAP", 8)
    parted = solve(model, cfg, groups=groups, seed_parts=(2, 0, 0))
    assert derived == [(cfg.seed, 2, 0, 0)]
    seeded = replace(cfg, seed=derive_seed(cfg.seed, 2, 0, 0))
    assert _draws(parted) == _draws(solve(model, seeded, groups=groups))
    one_hot = solvers._one_hot_model(model, groups)
    assert _draws(solve(model, cfg, groups=groups)) == _draws(solvers._anneal(model, one_hot, cfg))
    assert len(derived) == 1


def test_solve_follows_the_table_cap_on_random_models(monkeypatch):
    # `solve` answers every model within the table cap by elimination and
    # runs no read. Above a test-only cap it anneals all `num_reads` reads,
    # in one kernel call.
    runs = _record_runs(monkeypatch)
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(40):
        sizes = rng.integers(1, 5, int(rng.integers(1, 9)))
        groups = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)).tolist()
        # Few distinct weights make tied minima.
        model = random_grid_model(rng, len(groups), span=int(rng.choice([1, 16])))
        num_reads = int(rng.integers(1, 60))
        cfg = SolverConfig(seed=int(rng.integers(1 << 30)), num_reads=num_reads, sweeps=30)
        monkeypatch.setattr(solvers, "_BETA_RANGE", (0.01, float(rng.choice([0.05, 50.0]))))
        _assert_eliminated(solve(model, cfg, groups=groups), model, groups)
        assert runs == []
        with monkeypatch.context() as m:
            m.setattr(solvers, "_EXACT_TABLE_CAP", 0)
            result = solve(model, cfg, groups=groups)
        assert runs == [num_reads]
        layout, states = _full_run(model, groups, cfg)
        assert _draws(result) == _draws(solvers._collect(model, solvers._tally(layout, states)))
        runs.clear()
        outcomes.add("forest" if group_graph_is_forest(model, groups) else "cycle")
    assert outcomes == {"forest", "cycle"}


def test_reads_that_agree_early_do_not_stop_the_annealer(monkeypatch):
    # Above a test-only cap, the fixture's first 16 reads all end at its
    # unique minimum. The annealer still runs every read, in one call.
    model = four_var_fixture()
    cfg = SolverConfig(seed=3, num_reads=50)
    layout, states = _full_run(model, PAIRS, replace(cfg, num_reads=16))
    first = solvers._collect(model, solvers._tally(layout, states))
    assert _draws(first) == [((1, 0, 0, 1), 16)]
    runs = _record_runs(monkeypatch)
    monkeypatch.setattr(solvers, "_EXACT_TABLE_CAP", 0)
    result = solve(model, cfg, groups=PAIRS)
    assert runs == [50]
    assert _reads_used(result) == 50


def test_a_unique_minimum_runs_no_read(monkeypatch):
    # multi10_4's first window has a unique minimum, which 10 of 16 reads
    # reach. Elimination names that state before any read runs.
    model, cfg, groups = _first_window("multi10_4")
    layout, states = _full_run(model, groups, replace(cfg, num_reads=16))
    reads = solvers._collect(model, solvers._tally(layout, states))
    assert sum(s.occurrences for s in reads if s.energy <= cut(reads.best.energy)) == 10
    runs = _record_runs(monkeypatch)
    result = solve(model, cfg, groups=groups)
    assert runs == []
    assert _draws(result) == [(reads.best.bits, 0)]
    assert result.best.energy == model.energy({v for v, b in enumerate(result.best.bits) if b})


def _random_forest(rng):
    """A model over groups of 1 to 4 members whose group graph is a random
    forest: each group after the first couples with one earlier group or,
    now and then, with none. Few distinct weights make tied minima."""
    sizes = rng.integers(1, 5, int(rng.integers(1, 8)))
    groups = np.repeat(np.arange(len(sizes)), sizes).tolist()
    firsts = (np.cumsum(sizes) - sizes).tolist()
    model = QuboModel(len(groups))
    span = int(rng.choice([1, 16]))
    for v in range(len(groups)):
        model.add(v, v, 0.25 * int(rng.integers(-span, span + 1)))
    for g in range(1, len(sizes)):
        if rng.random() < 0.8:
            h = int(rng.integers(g))
            for u in range(firsts[h], firsts[h] + int(sizes[h])):
                for v in range(firsts[g], firsts[g] + int(sizes[g])):
                    if rng.random() < 0.5:
                        model.add(u, v, 0.25 * int(rng.integers(-span, span + 1)))
    return model, groups


def test_forest_windows_are_answered_at_the_minimum_with_no_read(monkeypatch):
    rng = np.random.default_rng(53)
    runs = _record_runs(monkeypatch)
    seen = set()
    for _ in range(60):
        model, groups = _random_forest(rng)
        assert group_graph_is_forest(model, groups)
        lowest, second, _ = one_hot_two_lowest(model, groups)
        result = solve(model, SolverConfig(seed=int(rng.integers(1 << 30)), num_reads=30,
                                           sweeps=20), groups=groups)
        assert [(s.occurrences, len(result)) for s in result] == [(0, 1)]
        assert result.best.energy == pytest.approx(lowest, abs=1e-9)
        seen.add("tie" if second == lowest else "gap")
    assert runs == []
    assert seen == {"tie", "gap"}


def test_a_tied_chain_takes_the_highest_member_of_each_group():
    # Three groups of three in a chain under one coupling weight: every
    # one-hot state has energy -1.0. The annealer would rank them by bits,
    # and the one that sets each group's last member sorts first.
    groups = np.repeat(np.arange(3), 3).tolist()
    model = QuboModel(9)
    for g in range(2):
        for u in range(3 * g, 3 * g + 3):
            for v in range(3 * g + 3, 3 * g + 6):
                model.add(u, v, -0.5)
    one_hot = solvers._one_hot_model(model, groups)
    state = solvers._eliminate(one_hot)
    assert one_hot_two_lowest(model, groups)[:2] == (-1.0, -1.0)
    last = (0, 0, 1) * 3
    assert _state_bits(one_hot, state) == last
    layout = solvers._one_hot_layout(one_hot)
    every_state = np.array(list(np.ndindex(3, 3, 3))) + layout.first
    assert solvers._collect(model, solvers._tally(layout, every_state)).best.bits == last
    assert _draws(solve(model, SolverConfig(), groups=groups)) == [(last, 0)]


def test_a_tied_triangle_is_answered_with_no_read(monkeypatch):
    # A cycle of groups whose minimum is tied: elimination's state is the
    # one sample, and no read runs.
    model, groups = _tied_triangle()
    assert one_hot_two_lowest(model, groups)[:2] == (-4.0, -4.0)
    assert not group_graph_is_forest(model, groups)
    runs = _record_runs(monkeypatch)
    result = solve(model, SolverConfig(seed=4, num_reads=40, sweeps=50), groups=groups)
    assert runs == []
    _assert_eliminated(result, model, groups)
    # So is multi5's one window, whose groups form a cycle and whose minimum
    # is tied: its record counts no read.
    spec = load_scenario(str(SCENARIOS / "multi5.scn"))
    (window,) = run_pipeline(spec, spec.seed).windows
    assert runs == []
    assert window.histogram == [(window.best_energy, 0)]


def test_the_enumeration_oracles_refuse_a_large_window_at_once():
    # multi10_4's first window has 48 variables in 24 groups of two: 2^24
    # one-hot states and 2^48 assignments, far beyond what the oracles hold.
    model, _, groups = _first_window("multi10_4")
    started = time.perf_counter()
    with pytest.raises(ValueError, match="states to enumerate"):
        one_hot_two_lowest(model, groups)
    with pytest.raises(ValueError, match="states to enumerate"):
        brute_force_minima(model)
    assert time.perf_counter() - started < 0.5


def test_elimination_matches_one_hot_enumeration_on_random_models():
    # `_eliminate`'s state lies at the lowest one-hot energy, and it is the
    # enumerated state whenever that minimum is unique.
    rng = np.random.default_rng(47)
    seen = set()
    for _ in range(300):
        sizes = rng.integers(1, 5, int(rng.integers(1, 8)))
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        groups = [int(label) * 5 - 7 for label in labels]  # shuffled, sparse labels
        model = random_grid_model(rng, len(groups), density=float(rng.choice([0.1, 0.4, 0.9])),
                                  span=int(rng.choice([2, 16])))
        model.constant = float(rng.integers(-3, 4))
        lowest, second, argmin = one_hot_two_lowest(model, groups)
        one_hot = solvers._one_hot_model(model, groups)
        state = solvers._eliminate(one_hot)
        assert _state_energy(model, one_hot, state) == pytest.approx(lowest, abs=1e-9)
        if cut(lowest) < second:
            assert _state_bits(one_hot, state) == argmin
        seen.add("tie" if second == lowest else "gap")
        seen.add("forest" if group_graph_is_forest(model, groups) else "cycle")
        if 1 in sizes:
            seen.add("singleton group")
        if math.prod(sizes) == 1:
            seen.add("one state")
    assert seen == {"tie", "gap", "singleton group", "one state", "forest", "cycle"}


def test_elimination_matches_exhaustive_on_pipeline_windows():
    unique = 0
    for model, groups in random_instances(40, 7):
        one_hot = solvers._one_hot_model(model, groups)
        state = solvers._eliminate(one_hot)
        exact = solve_exhaustive(model)
        assert _state_energy(model, one_hot, state) == pytest.approx(exact.best.energy, abs=1e-9)
        if len(exact) == 1:
            unique += 1
            assert _state_bits(one_hot, state) == exact.best.bits
    assert unique > 0


# Among tied minima `_eliminate`'s state follows the elimination order, and so
# the group order that `_one_hot_model`'s colouring sets. Eliminating the
# groups in label order instead passes every other test; it moves city(10)'s
# block12x3#4 onto other paths of the same length, and it takes a window of
# city(14)'s open12x3#5 above the cap, which the lazy rounds then answer on
# the same paths. city(14)'s block12x4#6 fails its bounded first try, and
# its first-reach fallback lies above the cap, so its tie order is that of
# the lazy rounds' last relaxed tables. That window's three first-reach
# tries end at the energies the annealer reached, at other tied states,
# after which robot 1 takes 19 moves, not 15.
# These plans' paths pin the tie order.
@pytest.mark.parametrize("seed, name, digest", [
    (10, "block12x3#4", "3cc9c9e6ff87e4c8b70a295e59af935fd13df6aa7ab76e61d010a15daee707b3"),
    (14, "open12x3#5", "50dadee27cd37057785be564a98b680623a5fc717430af8b4ae281a25b513de6"),
    (14, "block12x4#6", "1eb87da471517473ef5c5fd2360f76e2f6f858833212052705ec9da37fa7f446"),
], ids=["city10-block12x3#4", "city14-open12x3#5", "city14-block12x4#6"])
def test_tied_minima_keep_the_city_paths(seed, name, digest):
    inst = next(i for i in city(seed) if i.name == name)
    result = plan_multi(inst.grid, inst.robots, weights=inst.weights,
                        window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
    paths = json.dumps([r["path"] for r in result.to_json()["robots"]])
    assert hashlib.sha256(paths.encode()).hexdigest() == digest


def _solved_windows(monkeypatch, plan_all):
    """Each (model, cfg, groups, sample set) that `solve` answered during
    `plan_all()`, in call order, with the seed of `cfg` derived from the
    call's seed parts as `solve` derives it for its reads."""
    calls = []

    def recorded(model, cfg, *, groups, seed_parts=()):
        result = solve(model, cfg, groups=groups, seed_parts=seed_parts)
        calls.append((model, replace(cfg, seed=derive_seed(cfg.seed, *seed_parts)), groups,
                      result))
        return result

    monkeypatch.setattr(planner, "solve", recorded)
    plan_all()
    return calls


def _plan_shipped():
    """Plan every shipped scenario at its first bench seed."""
    for path in sorted(SCENARIOS.glob("*.scn")):
        spec = load_scenario(str(path))
        run_pipeline(spec, derive_seed(spec.seed, 0))


def _plan_city(seed, name=None):
    """A `plan_all` that plans `city(seed)`, or its one instance `name`."""
    def plan_all():
        for inst in city(seed):
            if name in (None, inst.name):
                plan_multi(inst.grid, inst.robots, weights=inst.weights,
                           window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
    return plan_all


def _window_outcomes(monkeypatch, plan_all):
    """How the annealer does on each window that `solve` answered during
    `plan_all()`, counted. `solve` answers every window exactly with no
    read: by elimination within the table cap, by the lazy rounds above it.
    When the window's groups form a cycle, or it lies above the cap,
    `_anneal` then runs on it with the window's own settings. It never ends
    below that minimum, and it ends "at the minimum" or "above the minimum"
    by its best energy, prefixed "above the cap, " for a window above the
    cap. A window within the cap whose groups form a forest is counted as
    "forest" and not annealed. A window annealed above its minimum is
    listed by its model's size, with both energies."""
    outcomes, misses = Counter(), []
    for model, cfg, groups, result in _solved_windows(monkeypatch, plan_all):
        one_hot = solvers._one_hot_model(model, groups)
        state = solvers._eliminate(one_hot)
        above = state is None
        if above:
            state = solvers._eliminate_lazily(one_hot)
            assert state is not None, "a lazy round exceeded the cap"
        lowest = _state_energy(model, one_hot, state)
        assert [s.occurrences for s in result] == [0]
        assert result.best.energy == lowest
        if not above and group_graph_is_forest(model, groups):
            outcomes["forest"] += 1
            continue
        annealed = solvers._anneal(model, one_hot, cfg).best.energy
        assert annealed >= lowest - 1e-9 * max(1.0, abs(lowest))
        where = "at the minimum" if annealed <= cut(lowest) else "above the minimum"
        outcomes["above the cap, " * above + where] += 1
        if where == "above the minimum":
            misses.append((model.num_vars, round(annealed, 3), round(lowest, 3)))
    return outcomes, misses


def test_shipped_windows_reach_the_exact_minimum(monkeypatch):
    # ROADMAP item 11 on the first bench seed of every shipped scenario:
    # every window fits the table cap, and the annealer, run on each window
    # whose groups form a cycle (multi5's), ends within the tie tolerance of
    # elimination's lowest energy.
    outcomes, misses = _window_outcomes(monkeypatch, _plan_shipped)
    assert set(outcomes) == {"forest", "at the minimum"} and misses == []


def test_city_windows_reach_the_exact_minimum_as_counted(monkeypatch, first_reach):
    # ROADMAP item 11 on `city(0)`'s 29 windows on first-reach layers, the
    # planner's fallback try: 14 are forests, and of the 14 within the table
    # cap whose groups form a cycle the annealer ends 13 at the minimum. It
    # ends block14x2#7's 97-variable window at -7.967 against -8.005. One
    # 4-robot window (block12x4#6's first) lies above the cap; `solve`
    # answers it by the lazy rounds, at -23.434, and the annealer, run on it
    # here only, ends there too. (Under the goal bound, 27 of these windows
    # are forests and none lies above the cap.)
    outcomes, misses = _window_outcomes(monkeypatch, _plan_city(0))
    assert outcomes == {"forest": 14, "at the minimum": 13, "above the minimum": 1,
                        "above the cap, at the minimum": 1}
    assert misses == [(97, -7.967, -8.005)]


def test_no_plan_of_the_benchmark_traffic_anneals(monkeypatch):
    # Every window of `city(0)` and `shipped(0)` is answered exactly, by
    # elimination or by the lazy rounds, so their plans stand without the
    # annealer, and the independent checker accepts each of them.
    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark window was annealed")

    monkeypatch.setattr(solvers, "_anneal", refuse)
    instances = [*city(0), *shipped(SCENARIOS, 0)]
    for inst in instances:
        result = plan_multi(inst.grid, inst.robots, weights=inst.weights,
                            window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
        assert result.succeeded, inst.name
        steps = {p.robot: p.steps for p in result.plans}
        assert check_plans(inst.grid, inst.robots, steps) == [], inst.name
    assert len(instances) > 12


def test_exact_solves_build_no_annealer_array(monkeypatch):
    # `solve` answers every window of `shipped(0)` and `city(0)` exactly
    # from the one-hot model: the annealer's layout is never built, and
    # `_energies`, which scores annealed samples, never runs.
    def refuse(*args, **kwargs):
        raise AssertionError("an exact solve built an annealer array")

    monkeypatch.setattr(solvers, "_one_hot_layout", refuse)
    monkeypatch.setattr(solvers, "_energies", refuse)
    backends = Counter()
    for inst in [*shipped(SCENARIOS, 0), *city(0)]:
        result = plan_multi(inst.grid, inst.robots, weights=inst.weights,
                            window_cfg=inst.window_cfg, solver_cfg=inst.solver_cfg)
        assert result.succeeded, inst.name
        backends.update(w.backend for w in result.windows)
    assert backends["exact"] > 0 and backends["annealer"] == 0


def _kept_energy(one_hot, state) -> float:
    """The energy of a one-hot state under the couplings `one_hot` keeps,
    without the model's constant: its diagonal entries and, for each pair
    of groups, the entry of its table at the two chosen members."""
    sizes = [len(m) for m in one_hot.members]
    firsts = np.cumsum(sizes) - sizes
    fired = [lo + state[g] * sizes[h] + state[h] for (g, h), lo in one_hot.edges.items()]
    return float(one_hot.tables[firsts + state].sum() + one_hot.tables[fired].sum())


def _lazy_rounds(model, groups, monkeypatch):
    """`_eliminate_lazily` forced on a model: the one-hot model, the final
    state, and each round's relaxed energy at its own state."""
    one_hot = solvers._one_hot_model(model, groups)
    rounds, eliminate = [], solvers._eliminate

    def recorded(relaxed):
        state = eliminate(relaxed)
        rounds.append(None if state is None else _kept_energy(relaxed, state))
        return state

    with monkeypatch.context() as m:
        m.setattr(solvers, "_eliminate", recorded)
        state = solvers._eliminate_lazily(one_hot)
    return one_hot, state, rounds


def _assert_rounds_bound(one_hot, state, rounds, lowest):
    """Check that the last round ends at `lowest` (without the constant),
    and that every round's relaxed energy is at most the one after it."""
    assert None not in rounds
    assert _kept_energy(one_hot, state) == pytest.approx(lowest, abs=1e-9)
    assert rounds[-1] == pytest.approx(lowest, abs=1e-9)
    for low, high in zip(rounds, rounds[1:]):
        assert low <= high + 1e-9


def test_lazy_rounds_reach_the_exact_minimum_within_the_cap(monkeypatch, first_reach):
    # Forced on windows that elimination answers, the lazy rounds end at its
    # energy, and at the exhaustive minimum where that oracle fits. The
    # windows are built on first-reach layers, as the planner's fallback
    # builds them: under the goal bound every one of them ends in one round.
    seen = Counter()
    small = [*random_instances(30, 7), *random_instances(20, 7, robots=2)]
    for model, groups in small:
        one_hot, state, rounds = _lazy_rounds(model, groups, monkeypatch)
        exact = solve_exhaustive(model).best.energy - model.constant
        _assert_rounds_bound(one_hot, state, rounds, exact)
        seen[min(len(rounds), 2)] += 1
    shipped_windows = _solved_windows(monkeypatch, _plan_shipped)
    for model, _, groups, _ in shipped_windows:
        one_hot, state, rounds = _lazy_rounds(model, groups, monkeypatch)
        lowest = _kept_energy(one_hot, solvers._eliminate(one_hot))
        _assert_rounds_bound(one_hot, state, rounds, lowest)
        seen[min(len(rounds), 2)] += 1
    assert len(shipped_windows) == 7
    assert set(seen) == {1, 2}


def test_lazy_rounds_bound_the_minimum_above_the_cap(monkeypatch):
    # city(14)'s block12x4#6 takes more than one round on the windows above
    # the cap; each round's relaxed energy is at most the one it ends at.
    seen = set()
    for model, _, groups, result in _solved_windows(monkeypatch, _plan_city(14, "block12x4#6")):
        if solvers._eliminate(solvers._one_hot_model(model, groups)) is None:
            one_hot, state, rounds = _lazy_rounds(model, groups, monkeypatch)
            _assert_rounds_bound(one_hot, state, rounds, result.best.energy - model.constant)
            seen.add(len(rounds) > 1)
    assert seen == {True}


def _lazy_triangle(second=0.0, coupling=3.0):
    """Three groups of two labelled 0, 2 and 4: each group's first member
    at -1.0 and its second at `second`, the first members coupled pairwise
    at `coupling`. Under the defaults every coupling is lazy, the first
    round's state fires all three, and the second round is the whole
    model, with a tied minimum of -1.0."""
    groups = [0, 0, 2, 2, 4, 4]
    model = QuboModel(6)
    for v in (0, 2, 4):
        model.add(v, v, -1.0)
        model.add(v + 1, v + 1, second)
    if coupling:
        for u, v in ((0, 2), (2, 4), (0, 4)):
            model.add(u, v, coupling)
    return model, groups


# The third case couples the first members at -3.0: a negative coupling is
# never dropped, since without it the first round would end at -4.5 on the
# second members, firing no dropped coupling.
@pytest.mark.parametrize("second, coupling, rounds", [
    (0.0, 3.0, [-3.0, -1.0]), (0.0, 0.0, [-3.0]), (-1.5, -3.0, [-12.0]),
], ids=["all_lazy", "no_coupling", "negative"])
def test_lazy_rounds_end_at_the_minimum_of_a_small_triangle(second, coupling, rounds,
                                                           monkeypatch):
    model, groups = _lazy_triangle(second, coupling)
    one_hot, state, seen = _lazy_rounds(model, groups, monkeypatch)
    lowest, _, _ = one_hot_two_lowest(model, groups)
    _assert_rounds_bound(one_hot, state, seen, lowest)
    assert seen == rounds


def test_solve_anneals_when_a_lazy_round_exceeds_the_cap(monkeypatch):
    # Under a cap of 4 entries the triangle fits only its first lazy round;
    # the second is the whole triangle, so `solve` anneals all its reads.
    model, groups = _lazy_triangle()
    monkeypatch.setattr(solvers, "_EXACT_TABLE_CAP", 4)
    _, state, rounds = _lazy_rounds(model, groups, monkeypatch)
    assert state is None and rounds == [-3.0, None]
    result = solve(model, SolverConfig(num_reads=20, sweeps=50), groups=groups)
    assert _reads_used(result) == 20
    assert result.best.energy == -1.0


def test_city0_wide_window_is_answered_exactly(monkeypatch, first_reach):
    # block12x4#6's first window of city(0) on first-reach layers is the one
    # the annealer ran at the benchmark's traffic until the lazy rounds took
    # it; the goal bound brings it within the cap.
    (model, _, groups, result), *_ = _solved_windows(monkeypatch, _plan_city(0, "block12x4#6"))
    assert solvers._eliminate(solvers._one_hot_model(model, groups)) is None
    assert [s.occurrences for s in result] == [0]
    assert round(result.best.energy, 3) == -23.434


def _clique(sizes):
    """Groups of the given sizes, each group's first member coupled with
    every other group's first member."""
    groups = np.repeat(np.arange(len(sizes)), sizes).tolist()
    firsts = np.cumsum(sizes) - sizes
    model = QuboModel(len(groups))
    for u in range(len(groups)):
        model.add(u, u, -1.0)
    for i, u in enumerate(firsts.tolist()):
        for v in firsts[i + 1:].tolist():
            model.add(u, v, 0.5)
    return model, groups


@pytest.mark.parametrize("sizes, fits", [((256, 256), True), ((257, 256), False)],
                         ids=["at_the_cap", "above_the_cap"])
def test_elimination_gives_up_above_the_table_cap(sizes, fits):
    # Eliminating either group builds a table over both.
    assert math.prod(sizes) - solvers._EXACT_TABLE_CAP in (0, 256)
    model, groups = _clique(sizes)
    one_hot = solvers._one_hot_model(model, groups)
    state = solvers._eliminate(one_hot)
    assert (_state_energy(model, one_hot, state) == -2.0) if fits else state is None


def test_elimination_gives_up_before_building_a_table():
    # Five groups of 40: the first elimination needs 40^5 entries, and the
    # ten pair tables alone would take 10 x 1,600 x 8 bytes.
    model, groups = _clique([40] * 5)
    one_hot = solvers._one_hot_model(model, groups)
    tracemalloc.start()
    try:
        assert solvers._eliminate(one_hot) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1600 * 8 // 4


def test_one_bit_per_group_under_shuffled_labels():
    # Labels need not be contiguous, sorted or dense.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        model = random_grid_model(rng, n)
        groups = [int(label) * 7 - 3 for label in rng.integers(0, 4, n)]
        cfg = SolverConfig(seed=int(rng.integers(1 << 30)), num_reads=16, sweeps=30)
        for s in [*solve(model, cfg, groups=groups), *_anneal(model, groups, cfg)]:
            assert all(sum(s.bits[v] for v in members) == 1 for members in _members(groups))
            assert s.energy == model.energy({i for i, b in enumerate(s.bits) if b})


def test_samples_do_not_depend_on_the_read_block(monkeypatch):
    model, cfg, groups = _first_window("multi5")
    cfg = replace(cfg, num_reads=12, sweeps=80)
    whole = _draws(_anneal(model, groups, cfg))
    monkeypatch.setattr(solvers, "_RANDOM_BUDGET", 1)  # one read per block
    assert _draws(_anneal(model, groups, cfg)) == whole


@pytest.mark.parametrize("name", ["multi5", "multi10_2"])
def test_cold_samples_are_local_minima_under_one_group_moves(name, monkeypatch):
    # Incremental fields that drifted from the model would leave a final
    # state from which some relocation still lowers the energy.
    monkeypatch.setattr(solvers, "_BETA_RANGE", (1.0, 200.0))
    model, cfg, groups = _first_window(name)
    cfg = replace(cfg, num_reads=20, sweeps=400)
    for s in _anneal(model, groups, cfg):
        ones = {v for v, b in enumerate(s.bits) if b}
        for members in _members(groups):
            held = next(v for v in members if v in ones)
            for other in members:
                moved = (ones - {held}) | {other}
                assert model.energy(moved) >= s.energy - 1e-9


@pytest.mark.parametrize("k", [-3, 1, 4])
def test_solve_is_invariant_to_scaling_the_model(k):
    model, cfg, groups = _first_window("multi5")
    scaled = peak_rescaled(model, 2.0 ** k * max(abs(w) for w in model.coeffs.values()))
    assert _draws(_anneal(scaled, groups, cfg)) == _draws(_anneal(model, groups, cfg))


def test_sample_energies_repeat_model_energy_bit_for_bit():
    # Steps of 0.1 are inexact, so a different order of additions shows; a
    # constant of -0.0 keeps its sign when no term is active.
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        model = random_grid_model(rng, n, step=0.1)
        model.constant = float(rng.choice([-0.0, 0.0, 0.3]))
        counts = {tuple(int(b) for b in rng.integers(0, 2, n)): 1 for _ in range(6)}
        counts[(0,) * n] = 1
        for s in solvers._collect(model, counts):
            expected = model.energy({i for i, b in enumerate(s.bits) if b})
            assert (s.energy, math.copysign(1.0, s.energy)) == \
                   (expected, math.copysign(1.0, expected))


def _assert_kernels_agree(model, groups, cfg, beta_range=None):
    """Check that the kernel and the reference kernel end every read in the
    same state under the same β; return the layout they ran on."""
    layout = _layout(model, groups)
    betas = _betas(layout, cfg.sweeps, beta_range)
    assert np.array_equal(solvers._anneal_one_hot(layout, cfg, betas),
                          anneal_one_hot(layout, cfg, betas))
    return layout


@pytest.mark.parametrize("name", ["single5", "multi5", "multi10_4", "multi10_2"])
def test_kernel_matches_the_reference_on_shipped_first_windows(name):
    model, cfg, groups = _first_window(name)
    _assert_kernels_agree(model, groups, cfg)


@pytest.mark.parametrize("budget", [1, 700, solvers._RANDOM_BUDGET])
def test_kernel_matches_the_reference_on_random_grouped_models(budget, monkeypatch):
    # A budget of 1 runs each read alone and 700 a few reads per block; the
    # reference always runs every read in one block.
    monkeypatch.setattr(solvers, "_RANDOM_BUDGET", budget)
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(80):
        sizes = rng.integers(1, 5, int(rng.integers(1, 9)))
        groups = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)).tolist()
        model = random_grid_model(rng, len(groups), density=float(rng.choice([0.0, 0.15, 0.5])))
        cfg = SolverConfig(seed=int(rng.integers(1 << 62)), num_reads=int(rng.integers(1, 12)),
                           sweeps=int(rng.integers(1, 40)))
        layout = _assert_kernels_agree(model, groups, cfg,
                                       (0.1, float(rng.choice([1.0, 50.0]))))
        seen.add(f"{min(len(layout.classes), 3)} classes")
        if layout.classes and layout.classes[0][0] > 0:
            seen.add("singleton groups")
        if (layout.weight == 0).any():
            seen.add("padded neighbour rows")
    assert seen == {"0 classes", "1 classes", "2 classes", "3 classes",
                    "singleton groups", "padded neighbour rows"}


def test_annealing_memory_stays_within_the_random_budget():
    # Every array the kernel holds per read counts against `_RANDOM_BUDGET`
    # (8-byte units). All 400 reads of multi10_2's first window fill it, so a
    # per-read table left out of the count fails here. `solve` answers that
    # window by elimination, so the kernel runs them directly.
    model, cfg, groups = _first_window("multi10_2")
    layout = _layout(model, groups)
    tracemalloc.start()
    try:
        solvers._anneal_one_hot(layout, cfg, _betas(layout, cfg.sweeps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * solvers._RANDOM_BUDGET
