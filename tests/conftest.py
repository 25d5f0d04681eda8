import pytest

from quboplan import planner

from oracles import solve_exhaustive


@pytest.fixture
def exhaustive(monkeypatch):
    """Plan through `oracles.solve_exhaustive` in place of `solvers.solve`:
    every window with free variables is answered by enumeration, over every
    bit vector of its complete QUBO (`Window.folded`, the one-hot pair
    terms included), which has the free variables of the model the planner
    passes to `solve`."""
    tried, attempt = [], planner._attempt_window

    def recorded(window, *args):
        tried.append(window)
        return attempt(window, *args)

    monkeypatch.setattr(planner, "_attempt_window", recorded)
    monkeypatch.setattr(planner, "solve", lambda model, cfg, *, groups, seed_parts=():
                        solve_exhaustive(tried[-1].folded.model))


@pytest.fixture
def first_reach(monkeypatch):
    """Plan on first-reach layers alone: the goal bound narrows no window, so
    a window's first try runs, at the given weights, on the layers its later
    tries use."""
    fix_logical = planner.fix_logical
    monkeypatch.setattr(planner, "fix_logical",
                        lambda spec, bounded=True: fix_logical(spec, bounded=False))
