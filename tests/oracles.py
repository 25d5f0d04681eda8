"""Independent reference implementations used only by the tests.

These evaluate the closed-form penalty sums directly on occupancies, count
shortest paths by brute force, and compute exact minima by plain enumeration.
They deliberately avoid the library's coefficient-accumulation and solver
code paths so agreement between the two is meaningful.
"""

import itertools

from quboplan.grid import GridMap, bfs_distances, manhattan, max_manhattan, obstacle_potential
from quboplan.penalties import GOAL_MODE_APPROX, WindowSpec
from quboplan.qubo import QuboModel


def penalty_energy(spec: WindowSpec, admissible, occupancy, allow_wait=False) -> float:
    """Sum of every penalty formula evaluated directly on an occupancy.

    `occupancy[r]` maps time step to the set of cells robot r holds. Only
    variables present in `admissible` contribute, mirroring the variable
    space of the built model.
    """
    w = spec.weights

    def occ(r, t, c):
        return 1 if c in occupancy[r].get(t, set()) else 0

    total = 0.0
    for r, rec in enumerate(spec.robots):
        horizon = rec.horizon
        for t in range(horizon + 1):
            filled = sum(occ(r, t, c) for c in admissible[r][t])
            total += w.k_hot * (1 - filled) ** 2
        for t in range(horizon):
            for c in admissible[r][t]:
                if occ(r, t, c):
                    linked = sum(
                        occ(r, t + 1, n)
                        for n in spec.grid.neighbors(c, allow_wait=allow_wait)
                        if n in admissible[r][t + 1]
                    )
                    total += w.k_adj * (1 - linked)
        if rec.start in admissible[r][0]:
            total -= w.k_start * occ(r, 0, rec.start)
        if rec.goal_mode == GOAL_MODE_APPROX:
            d_max = max_manhattan(spec.grid)
            for c in admissible[r][horizon]:
                if occ(r, horizon, c):
                    closeness = 1.0 - (manhattan(c, rec.goal) / d_max if d_max else 0.0)
                    openness = 1.0 - obstacle_potential(spec.grid, c, w.potential_radius)
                    total -= w.k_approx * closeness * openness
        else:
            for t in range(1, horizon + 1):
                if rec.goal in admissible[r][t]:
                    total -= w.k_goal * w.goal_factor(t, horizon) * occ(r, t, rec.goal)
        for t in range(horizon):
            if rec.goal in admissible[r][t]:
                here = occ(r, t, rec.goal)
                after = occ(r, t + 1, rec.goal) if rec.goal in admissible[r][t + 1] else 0
                total += w.k_lock * (here - here * after)
        cells = set()
        for t in range(horizon + 1):
            cells |= admissible[r][t]
        for c in sorted(cells):
            times = [t for t in range(horizon + 1) if c in admissible[r][t]]
            if c != rec.goal:
                for i, t1 in enumerate(times):
                    for t2 in times[i + 1:]:
                        total += w.k_bt * occ(r, t1, c) * occ(r, t2, c)
            if c in rec.visited:
                for t in times:
                    total += w.k_bt * w.bt_soft_factor * occ(r, t, c)
        for t in range(min(manhattan(rec.start, rec.goal), horizon + 1)):
            if rec.goal in admissible[r][t]:
                total += w.k_tel * occ(r, t, rec.goal)

    for r1 in range(len(spec.robots)):
        for r2 in range(r1 + 1, len(spec.robots)):
            shared_horizon = min(spec.robots[r1].horizon, spec.robots[r2].horizon)
            for t in range(shared_horizon + 1):
                for c in admissible[r1][t] & admissible[r2][t]:
                    total += w.k_coll * occ(r1, t, c) * occ(r2, t, c)
    return total


def all_shortest_paths(grid: GridMap, start, goal, limit: int = 10000):
    """Every minimum-length path between two cells, by depth-first search."""
    from_start = bfs_distances(grid, start)
    from_goal = bfs_distances(grid, goal)
    if goal not in from_start:
        return []
    total = from_start[goal]
    paths = []

    def extend(path):
        if len(paths) >= limit:
            return
        c = path[-1]
        if c == goal:
            paths.append(list(path))
            return
        for n in sorted(grid.neighbors(c)):
            if from_start.get(n) == from_start[c] + 1 and from_goal.get(n) == from_goal[c] - 1:
                path.append(n)
                extend(path)
                path.pop()

    extend([start])
    assert all(len(p) == total + 1 for p in paths)
    return paths


def brute_force_minima(model: QuboModel):
    """Exact minimum energy and every minimizing assignment, by enumeration."""
    n = model.num_vars
    best = None
    argmins = []
    for bits in itertools.product((0, 1), repeat=n):
        ones = {i for i, b in enumerate(bits) if b}
        e = model.energy(ones)
        if best is None or e < best:
            best = e
            argmins = [bits]
        elif e == best:
            argmins.append(bits)
    return best, argmins


def peak_rescaled(model: QuboModel, scale: float) -> QuboModel:
    """The model with every coefficient, constant included, scaled so that its
    largest |coefficient| is `scale`: a positive rescale, which `solvers.solve`
    absorbs into β."""
    factor = scale / max(abs(w) for w in model.coeffs.values())
    out = QuboModel(model.num_vars, model.constant * factor)
    out.coeffs = {key: w * factor for key, w in model.coeffs.items()}
    return out


def random_grid_model(rng, n, density=0.4, step=0.25, span=16) -> QuboModel:
    """Random model with grid-quantized coefficients (keeps ties exact)."""
    model = QuboModel(n)
    for i in range(n):
        if rng.random() < 0.9:
            w = step * int(rng.integers(-span, span + 1))
            if w:
                model.add(i, i, w)
        for j in range(i + 1, n):
            if rng.random() < density:
                w = step * int(rng.integers(-span, span + 1))
                if w:
                    model.add(i, j, w)
    return model


def four_var_fixture() -> QuboModel:
    """Small dense model with a known unique minimum, used across tests."""
    model = QuboModel(4)
    model.add(0, 0, -5.0)
    model.add(1, 1, -3.0)
    model.add(2, 2, -8.0)
    model.add(3, 3, -6.0)
    model.add(0, 1, 4.0)
    model.add(0, 2, 8.0)
    model.add(1, 2, 2.0)
    model.add(2, 3, 10.0)
    return model
