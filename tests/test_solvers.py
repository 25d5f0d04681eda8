import math
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from quboplan.planner import build_window, derive_seed
import quboplan.solvers as solvers
from quboplan.qubo import QuboModel, var_group
from quboplan.scenario import load_scenario
from quboplan.solvers import SolverConfig, solve, solve_exhaustive

from oracles import (
    anneal_one_hot,
    brute_force_minima,
    four_var_fixture,
    one_hot_two_lowest,
    peak_rescaled,
    random_grid_model,
    solve_exhaustive_two_pass,
)

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
# The fixture's unique minimum (1, 0, 0, 1) sets one variable of each pair.
PAIRS = (0, 0, 1, 1)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(backend="quantum")
    with pytest.raises(ValueError):
        SolverConfig(num_reads=0)
    with pytest.raises(ValueError):
        SolverConfig(beta_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        SolverConfig(beta_range=(0.0, 1.0))
    with pytest.raises(ValueError, match="beta_range must satisfy"):
        SolverConfig(beta_range=(0.4, math.inf))


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


def _chunk_spanning_model(kind, n, rng):
    """A random model over n variables, 2 to 8 enumeration chunks for n of
    17 to 19, shaped so the running minimum moves across chunks."""
    if kind == "late":
        # Every minimum sets the top bit, so it lies only in the later
        # chunks, after the earlier ones have kept codes near their own.
        model = random_grid_model(rng, n, density=0.2)
        model.add(n - 1, n - 1, -100.0)
    elif kind == "ties":
        # The top variable has no coefficient: each minimum ties with its
        # copy in a chunk that sets the top bit.
        model = QuboModel(n)
        model.coeffs = dict(random_grid_model(rng, n - 1, density=0.2).coeffs)
    else:
        model = random_grid_model(rng, n, density=0.2, span=2)
    model.constant = float(rng.integers(-3, 4))
    return model


@pytest.mark.parametrize("kind, n", [("random", 17), ("random", 19), ("late", 18),
                                     ("late", 19), ("ties", 17), ("ties", 19)])
def test_one_pass_enumeration_matches_the_two_pass_screen(kind, n):
    assert 2 <= (1 << n) // solvers._ENUM_CHUNK <= 8
    model = _chunk_spanning_model(kind, n, np.random.default_rng(n))
    result, reference = solve_exhaustive(model), solve_exhaustive_two_pass(model)
    assert [(s.bits, s.energy.hex(), s.occurrences) for s in result] == \
        [(s.bits, s.energy.hex(), s.occurrences) for s in reference]
    if kind == "late":
        assert {s.bits[-1] for s in result} == {1}
    if kind == "ties":
        assert {s.bits[-1] for s in result} == {0, 1}


def test_annealer_finds_known_minimum():
    result = solve(four_var_fixture(), SolverConfig(seed=3, num_reads=50), groups=PAIRS)
    assert result.best.energy == -11.0
    assert result.best.bits == (1, 0, 0, 1)


def test_annealer_zero_variables():
    result = solve(QuboModel(0, constant=1.5), SolverConfig(num_reads=7), groups=())
    assert result.best.energy == 1.5
    assert result.best.occurrences == 7


def test_annealer_needs_groups():
    with pytest.raises(ValueError):
        solve(four_var_fixture(), SolverConfig())
    with pytest.raises(ValueError):
        solve(four_var_fixture(), SolverConfig(), groups=(0, 1))


def test_annealer_deterministic_for_fixed_seed():
    # Hot enough that the reads do not all settle in the minimum.
    m = four_var_fixture()
    cfg = SolverConfig(seed=99, num_reads=20, sweeps=100, beta_range=(0.01, 0.02))
    first = solve(m, cfg, groups=PAIRS)
    second = solve(m, cfg, groups=PAIRS)
    assert [(s.bits, s.energy, s.occurrences) for s in first] == \
           [(s.bits, s.energy, s.occurrences) for s in second]
    different = solve(m, replace(cfg, seed=100), groups=PAIRS)
    assert [(s.bits, s.occurrences) for s in first] != \
           [(s.bits, s.occurrences) for s in different]


def _reads_used(result, num_reads, model, groups):
    """The reads an annealer sample set counts, checked against the stop
    rule: all `num_reads`, or the probe's `PROBE_READS` when at least
    `PROBE_AGREE` of them end within the exhaustive tolerance of the best
    energy, or when the two lowest one-hot energies, recomputed here, put
    the best state alone within that tolerance of the minimum."""
    used = sum(s.occurrences for s in result)
    if used != num_reads:
        best = result.best.energy
        at_best = sum(s.occurrences for s in result if s.energy <= _tied_with(best))
        assert used == solvers.PROBE_READS < num_reads
        if at_best < solvers.PROBE_AGREE:
            lowest, second = solvers._two_lowest(model, solvers._one_hot_layout(model, groups))
            assert best <= _tied_with(lowest) < second
    return used


def _tied_with(energy):
    return energy + 1e-9 * max(1.0, abs(energy))


def test_sampleset_energies_reverify_and_occurrences_sum():
    m = four_var_fixture()
    cfg = SolverConfig(seed=5, num_reads=64, sweeps=200)
    result = solve(m, cfg, groups=PAIRS)
    _reads_used(result, 64, m, PAIRS)
    for s in result:
        assert s.energy == m.energy({i for i, b in enumerate(s.bits) if b})
    energies = [s.energy for s in result]
    assert energies == sorted(energies)


def test_metropolis_equilibrium_statistics():
    # One group of three members at energies 0, 0.5 and 1 under a fixed
    # temperature: uniform proposals are symmetric, so member occupancy
    # converges to the Boltzmann weights. Without couplings between groups β
    # is read per unit of the peak |coefficient|, here 1. The kernel runs
    # all 4,000 reads; `solve` would stop at its probe.
    beta = 1.25
    m = QuboModel(3)
    m.add(1, 1, 0.5)
    m.add(2, 2, 1.0)
    cfg = SolverConfig(seed=8, num_reads=4000, sweeps=60, beta_range=(beta, beta + 1e-9))
    layout = solvers._one_hot_layout(m, (0, 0, 0))
    held = layout.order[solvers._anneal_one_hot(layout, cfg, 1.0, range(4000))[:, 0]]
    weights = np.exp(-beta * np.array([0.0, 0.5, 1.0]))
    for member, expected in enumerate(weights / weights.sum()):
        hits = int((held == member).sum())
        assert hits / 4000 == pytest.approx(expected, abs=0.03)


def test_solve_dispatch():
    m = four_var_fixture()
    assert solve(m, SolverConfig(backend="exhaustive")).best.energy == -11.0
    assert solve(m, SolverConfig(seed=1, num_reads=30), groups=PAIRS).best.energy == -11.0


def test_annealer_agrees_with_exhaustive_on_pipeline_instances():
    from quboplan.oracle import oracle_check

    report = oracle_check(samples=25, runs_per_sample=4, seed=7)
    assert report["runs"] == 100
    assert report["agreement"] >= 0.95


def _first_window(name):
    """The folded model, annealer settings and variable groups of a shipped
    scenario's first window attempt, as the planner builds and seeds them."""
    spec = load_scenario(str(SCENARIOS / f"{name}.scn"))
    robots = [(r.start, r.goal, {r.start}) for r in spec.robots]
    window = build_window(spec.grid, robots, spec.window_cfg.window_len,
                          spec.weights, allow_wait=len(robots) > 1)
    folded = window.folded
    cfg = replace(spec.solver_cfg, backend="annealer", seed=derive_seed(spec.seed, 0, 0, 0))
    groups = [var_group(window.spec.dims, v) for v in folded.free_vars]
    return folded.model, cfg, groups


def _draws(sampleset):
    return [(s.bits, s.occurrences) for s in sampleset]


def _members(groups):
    out: dict[int, list[int]] = {}
    for v, g in enumerate(groups):
        out.setdefault(g, []).append(v)
    return list(out.values())


@pytest.mark.parametrize("name", ["single5", "multi5", "multi10_4"])
def test_every_sample_sets_one_bit_per_group(name):
    model, cfg, groups = _first_window(name)
    result = solve(model, replace(cfg, num_reads=40, sweeps=50), groups=groups)
    _reads_used(result, 40, model, groups)
    for s in result:
        assert all(sum(s.bits[v] for v in members) == 1 for members in _members(groups))


def _record_runs(monkeypatch):
    """The read ranges `solve` hands the kernel, in call order."""
    runs = []
    kernel = solvers._anneal_one_hot

    def recorded(layout, cfg, scale, reads):
        runs.append(reads)
        return kernel(layout, cfg, scale, reads)

    monkeypatch.setattr(solvers, "_anneal_one_hot", recorded)
    return runs


def _full_run(model, groups, cfg):
    layout = solvers._one_hot_layout(model, groups)
    scale = 1.0 / layout.peak if layout.peak > 0 else 1.0
    return layout, solvers._anneal_one_hot(layout, cfg, scale, range(cfg.num_reads))


# corridor10's first window is decided by variable fixing and builds no model.
@pytest.mark.parametrize("name, stops", [("demo3", True), ("multi10_2", True),
                                         ("multi10_4", True), ("multi5", True),
                                         ("single5", True)])
def test_solve_returns_the_first_reads_of_a_full_run(name, stops):
    model, cfg, groups = _first_window(name)
    result = solve(model, cfg, groups=groups)
    used = _reads_used(result, cfg.num_reads, model, groups)
    assert (used < cfg.num_reads) == stops
    layout, states = _full_run(model, groups, cfg)
    prefix = solvers._collect(model, solvers._tally(layout, states[:used]))
    assert _draws(result) == _draws(prefix)


def test_solve_follows_the_stop_rule_on_random_models():
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(40):
        sizes = rng.integers(1, 5, int(rng.integers(1, 9)))
        groups = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)).tolist()
        model = random_grid_model(rng, len(groups))
        num_reads = int(rng.integers(1, 60))
        cfg = SolverConfig(seed=int(rng.integers(1 << 30)), num_reads=num_reads, sweeps=30,
                           beta_range=(0.01, float(rng.choice([0.05, 50.0]))))
        used = _reads_used(solve(model, cfg, groups=groups), num_reads, model, groups)
        outcomes.add("probe" if used < num_reads else "cap")
    assert outcomes == {"probe", "cap"}


def test_a_probe_that_disagrees_runs_every_read(monkeypatch):
    # Eight groups of three at a high temperature: the probe's reads spread
    # over many of the 6,561 states, so few share the lowest energy.
    rng = np.random.default_rng(4)
    groups = np.repeat(np.arange(8), 3).tolist()
    model = QuboModel(len(groups))
    for v in range(len(groups)):
        model.add(v, v, float(rng.integers(-8, 9)))
    cfg = SolverConfig(seed=6, num_reads=40, sweeps=20, beta_range=(0.01, 0.02))
    layout, states = _full_run(model, groups, cfg)
    probe = solvers._collect(model, solvers._tally(layout, states[:solvers.PROBE_READS]))
    assert not solvers._agrees(probe)
    runs = _record_runs(monkeypatch)
    result = solve(model, cfg, groups=groups)
    assert runs == [range(solvers.PROBE_READS), range(solvers.PROBE_READS, 40)]
    assert _draws(result) == _draws(solvers._collect(model, solvers._tally(layout, states)))


def test_a_certified_probe_stops_although_it_disagrees(monkeypatch):
    # multi10_4's first window: 3 of 16 reads reach the minimum, and no
    # other one-hot state ties with it.
    model, cfg, groups = _first_window("multi10_4")
    layout, states = _full_run(model, groups, replace(cfg, num_reads=solvers.PROBE_READS))
    probe = solvers._collect(model, solvers._tally(layout, states))
    lowest, second = solvers._two_lowest(model, layout)
    assert not solvers._agrees(probe)
    assert probe.best.energy <= _tied_with(lowest) < second
    runs = _record_runs(monkeypatch)
    result = solve(model, cfg, groups=groups)
    assert runs == [range(solvers.PROBE_READS)]
    assert _draws(result) == _draws(probe)


def test_a_probe_at_a_tied_minimum_runs_every_read(monkeypatch):
    # Two groups of three, hot: the reads spread over the nine states, and
    # members 0 and 1 of the first group tie, so the minimum is not unique.
    groups = [0, 0, 0, 1, 1, 1]
    model = QuboModel(6)
    for v, w in enumerate([-2.0, -2.0, 1.0, -1.0, 0.5, 2.0]):
        model.add(v, v, w)
    cfg = SolverConfig(seed=3, num_reads=40, sweeps=20, beta_range=(0.01, 0.02))
    layout, states = _full_run(model, groups, cfg)
    probe = solvers._collect(model, solvers._tally(layout, states[:solvers.PROBE_READS]))
    assert solvers._two_lowest(model, layout) == (-3.0, -3.0)
    assert probe.best.energy == -3.0 and not solvers._agrees(probe)
    runs = _record_runs(monkeypatch)
    result = solve(model, cfg, groups=groups)
    assert runs == [range(solvers.PROBE_READS), range(solvers.PROBE_READS, 40)]
    assert _draws(result) == _draws(solvers._collect(model, solvers._tally(layout, states)))


def test_two_lowest_matches_one_hot_enumeration_on_random_models():
    rng = np.random.default_rng(47)
    seen = set()
    for _ in range(300):
        sizes = rng.integers(1, 5, int(rng.integers(1, 8)))
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        groups = [int(label) * 5 - 7 for label in labels]  # shuffled, sparse labels
        model = random_grid_model(rng, len(groups), density=float(rng.choice([0.1, 0.4, 0.9])),
                                  span=int(rng.choice([2, 16])))
        model.constant = float(rng.integers(-3, 4))
        lowest, second = one_hot_two_lowest(model, groups)
        got = solvers._two_lowest(model, solvers._one_hot_layout(model, groups))
        assert got == (pytest.approx(lowest, abs=1e-9), pytest.approx(second, abs=1e-9))
        seen.add("tie" if second == lowest else "gap")
        if 1 in sizes:
            seen.add("singleton group")
        if math.prod(sizes) == 1:
            seen.add("one state")
    assert seen == {"tie", "gap", "singleton group", "one state"}


def test_two_lowest_matches_exhaustive_on_pipeline_windows():
    from quboplan.oracle import random_instances

    for model, groups in random_instances(40, 7):
        lowest, _ = solvers._two_lowest(model, solvers._one_hot_layout(model, groups))
        assert lowest == pytest.approx(solve_exhaustive(model).best.energy, abs=1e-9)


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
def test_two_lowest_gives_up_above_the_table_cap(sizes, fits):
    # Eliminating either group builds a table over both.
    assert math.prod(sizes) - solvers._EXACT_TABLE_CAP in (0, 256)
    model, groups = _clique(sizes)
    got = solvers._two_lowest(model, solvers._one_hot_layout(model, groups))
    assert (got == (-2.0, -2.0)) if fits else got is None


def test_two_lowest_gives_up_before_building_a_table():
    # Five groups of 40: the first elimination needs 40^5 entries, and the
    # ten pair tables alone would take 10 x 1,600 x 8 bytes.
    model, groups = _clique([40] * 5)
    layout = solvers._one_hot_layout(model, groups)
    tracemalloc.start()
    try:
        assert solvers._two_lowest(model, layout) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1600 * 8 // 4


def test_fewer_reads_than_the_probe_run_once(monkeypatch):
    runs = _record_runs(monkeypatch)
    cfg = SolverConfig(seed=2, num_reads=solvers.PROBE_READS - 11, sweeps=50)
    result = solve(four_var_fixture(), cfg, groups=PAIRS)
    assert runs == [range(cfg.num_reads)]
    assert sum(s.occurrences for s in result) == cfg.num_reads


def test_one_bit_per_group_under_shuffled_labels():
    # Labels need not be contiguous, sorted or dense.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        model = random_grid_model(rng, n)
        groups = [int(label) * 7 - 3 for label in rng.integers(0, 4, n)]
        result = solve(model, SolverConfig(seed=int(rng.integers(1 << 30)), num_reads=16,
                                           sweeps=30), groups=groups)
        for s in result:
            assert all(sum(s.bits[v] for v in members) == 1 for members in _members(groups))
            assert s.energy == model.energy({i for i, b in enumerate(s.bits) if b})


def test_samples_do_not_depend_on_the_read_block(monkeypatch):
    model, cfg, groups = _first_window("multi5")
    cfg = replace(cfg, num_reads=12, sweeps=80)
    whole = _draws(solve(model, cfg, groups=groups))
    monkeypatch.setattr(solvers, "_RANDOM_BUDGET", 1)  # one read per block
    assert _draws(solve(model, cfg, groups=groups)) == whole


@pytest.mark.parametrize("name", ["multi5", "multi10_2"])
def test_cold_samples_are_local_minima_under_one_group_moves(name):
    # Incremental fields that drifted from the model would leave a final
    # state from which some relocation still lowers the energy.
    model, cfg, groups = _first_window(name)
    cfg = replace(cfg, num_reads=20, sweeps=400, beta_range=(1.0, 200.0))
    for s in solve(model, cfg, groups=groups):
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
    assert _draws(solve(scaled, cfg, groups=groups)) == _draws(solve(model, cfg, groups=groups))


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


def _assert_kernels_agree(model, groups, cfg):
    """Check that the kernel and the reference kernel end every read in the
    same state; return the layout they ran on."""
    layout = solvers._one_hot_layout(model, groups)
    scale = 1.0 / layout.peak if layout.peak > 0 else 1.0
    assert np.array_equal(solvers._anneal_one_hot(layout, cfg, scale, range(cfg.num_reads)),
                          anneal_one_hot(layout, cfg, scale))
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
                           sweeps=int(rng.integers(1, 40)),
                           beta_range=(0.1, float(rng.choice([1.0, 50.0]))))
        layout = _assert_kernels_agree(model, groups, cfg)
        seen.add(f"{min(len(layout.classes), 3)} classes")
        if layout.classes and layout.classes[0][0] > 0:
            seen.add("singleton groups")
        if (layout.weight == 0).any():
            seen.add("padded neighbour rows")
    assert seen == {"0 classes", "1 classes", "2 classes", "3 classes",
                    "singleton groups", "padded neighbour rows"}


def test_annealing_memory_stays_within_the_random_budget():
    # Every array the kernel holds per read counts against `_RANDOM_BUDGET`
    # (8-byte units). multi10_2's first window fills it, so a per-read table
    # left out of the count fails here.
    model, cfg, groups = _first_window("multi10_2")
    tracemalloc.start()
    try:
        solve(model, cfg, groups=groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * solvers._RANDOM_BUDGET
