import pytest

from quboplan import planner

from oracles import solve_exhaustive


@pytest.fixture
def exhaustive(monkeypatch):
    """Plan through `oracles.solve_exhaustive` in place of `solvers.solve`:
    every window with free variables is answered by enumeration, over every
    bit vector of its complete QUBO (the one-hot pair terms included)."""
    monkeypatch.setattr(planner, "solve",
                        lambda model, cfg, *, groups, seed_parts=(): solve_exhaustive(model))
    monkeypatch.setattr(planner.Window, "one_hot", property(lambda window: window.folded))


@pytest.fixture
def first_reach(monkeypatch):
    """Plan on first-reach layers alone: the goal bound narrows no window, so
    a window's first try runs, at the given weights, on the layers its later
    tries use."""
    fix_logical = planner.fix_logical
    monkeypatch.setattr(planner, "fix_logical",
                        lambda spec, bounded=True: fix_logical(spec, bounded=False))
