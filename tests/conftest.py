import pytest

from quboplan import planner

from oracles import solve_exhaustive


@pytest.fixture
def exhaustive(monkeypatch):
    """Plan through `oracles.solve_exhaustive` in place of `solvers.solve`:
    every window with free variables is answered by enumeration."""
    monkeypatch.setattr(planner, "solve", lambda model, cfg, *, groups: solve_exhaustive(model))
