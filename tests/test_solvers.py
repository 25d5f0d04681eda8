import pathlib
from dataclasses import replace

import numpy as np
import pytest

from quboplan.planner import build_window, derive_seed
from quboplan.qubo import QuboModel
from quboplan.scenario import load_scenario
from quboplan.solvers import (
    SMALL_MODEL_VARS,
    SolverConfig,
    metropolis_accept,
    solve,
    solve_annealing,
    solve_exhaustive,
)

from oracles import brute_force_minima, four_var_fixture, peak_rescaled, random_grid_model

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(backend="quantum")
    with pytest.raises(ValueError):
        SolverConfig(num_reads=0)
    with pytest.raises(ValueError):
        SolverConfig(beta_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        SolverConfig(beta_range=(0.0, 1.0))


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
    result = solve_annealing(four_var_fixture(), SolverConfig(seed=3, num_reads=50))
    assert result.best.energy == -11.0
    assert result.best.bits == (1, 0, 0, 1)


def test_annealer_zero_variables():
    result = solve_annealing(QuboModel(0, constant=1.5), SolverConfig(num_reads=7))
    assert result.best.energy == 1.5
    assert result.best.occurrences == 7


def test_annealer_deterministic_for_fixed_seed():
    m = four_var_fixture()
    cfg = SolverConfig(seed=99, num_reads=20, sweeps=100)
    first = solve_annealing(m, cfg)
    second = solve_annealing(m, cfg)
    assert [(s.bits, s.energy, s.occurrences) for s in first] == \
           [(s.bits, s.energy, s.occurrences) for s in second]
    different = solve_annealing(m, SolverConfig(seed=100, num_reads=20, sweeps=100))
    assert [(s.bits, s.occurrences) for s in first] != \
           [(s.bits, s.occurrences) for s in different]


def test_sampleset_energies_reverify_and_occurrences_sum():
    m = four_var_fixture()
    cfg = SolverConfig(seed=5, num_reads=64, sweeps=200)
    result = solve_annealing(m, cfg)
    assert sum(s.occurrences for s in result) == 64
    for s in result:
        assert s.energy == m.energy({i for i, b in enumerate(s.bits) if b})
    energies = [s.energy for s in result]
    assert energies == sorted(energies)


def test_metropolis_acceptance_rule():
    u = np.array([0.0, 0.5, 0.999])
    assert metropolis_accept(np.array([-1.0, -1.0, -1.0]), 2.0, u).all()
    assert metropolis_accept(np.array([0.0, 0.0, 0.0]), 2.0, u).all()
    # an uphill move passes only when u < exp(-beta * dE)
    p = float(np.exp(-2.0 * 0.7))
    got = metropolis_accept(np.array([0.7, 0.7]), 2.0, np.array([p * 0.9, p * 1.1]))
    assert got.tolist() == [True, False]


def test_metropolis_equilibrium_statistics():
    # single uphill bit at fixed temperature: occupancy of state 1 converges
    # to exp(-beta*d) / (1 + exp(-beta*d))
    d, beta = 1.0, 1.25
    m = QuboModel(1)
    m.add(0, 0, d)
    cfg = SolverConfig(seed=8, num_reads=4000, sweeps=60, beta_range=(beta, beta + 1e-9))
    result = solve_annealing(m, cfg)
    occupancy = sum(s.occurrences for s in result if s.bits == (1,)) / 4000
    expected = np.exp(-beta * d) / (1 + np.exp(-beta * d))
    assert occupancy == pytest.approx(expected, abs=0.03)


def test_solve_dispatch():
    m = four_var_fixture()
    assert solve(m, SolverConfig(backend="exhaustive")).best.energy == -11.0
    assert solve(m, SolverConfig(seed=1, num_reads=30)).best.energy == -11.0


def test_annealer_agrees_with_exhaustive_on_pipeline_instances():
    from quboplan.oracle import oracle_check

    report = oracle_check(samples=25, runs_per_sample=4, seed=7)
    assert report["runs"] == 100
    assert report["agreement"] >= 0.95


def _first_window(name):
    """The folded model and annealer settings of a shipped scenario's first
    window attempt, as the planner builds and seeds them."""
    spec = load_scenario(str(SCENARIOS / f"{name}.scn"))
    robots = [(r.start, r.goal, {r.start}) for r in spec.robots]
    _, _, folded = build_window(spec.grid, robots, spec.window_cfg.window_len, spec.weights,
                                allow_wait=len(robots) > 1)
    cfg = replace(spec.solver_cfg, backend="annealer", seed=derive_seed(spec.seed, 0, 0, 0))
    return folded.model, cfg


def _draws(sampleset):
    return [(s.bits, s.occurrences) for s in sampleset]


@pytest.mark.parametrize("name", ["single5", "multi5", "multi10_2", "multi10_4", "demo3"])
def test_solve_matches_annealing_the_peak_rescaled_model(name):
    # solve folds the peak |coefficient| into β: it must draw what the
    # absolute-β annealer draws on the model rescaled to a peak of 2.0 (under
    # SMALL_MODEL_VARS free variables) or 1.0.
    model, cfg = _first_window(name)
    peak = 2.0 if model.num_vars < SMALL_MODEL_VARS else 1.0
    assert _draws(solve(model, cfg)) == _draws(solve_annealing(peak_rescaled(model, peak), cfg))


@pytest.mark.parametrize("k", [-3, 1, 4])
def test_solve_is_invariant_to_scaling_the_model(k):
    model, cfg = _first_window("multi5")
    scaled = peak_rescaled(model, 2.0 ** k * model.max_abs_coefficient())
    assert _draws(solve(scaled, cfg)) == _draws(solve(model, cfg))
