"""Variable fixing: shrink a window's QUBO before any solver sees it.

Logical fixing derives forced assignments from reachability alone, and
`fix_logical` alone decides a window's admissible cells: it runs each
robot's BFS, and a step admits only its layer (the start alone at step 0),
so no goal is claimed before its BFS distance, and a singleton layer
forces its variable on (`forced_ones`, computed only when a model is
folded). Cells outside a layer never enter the model. The layers are then
bounded from the goal end: a cell stays at step t only when t plus its
distance to the goal is within `SLACK` of the robot's shortest way there,
and a cell left with no admissible successor goes too. That is the MDD of
increasing-cost tree search (Sharon et al., AIJ 195, 2013) with a
focal-style slack. A window whose first-reach layers already leave no
variable free skips the bound. Folding takes the fixed sets as
arguments, substitutes their values into the coefficients and reindexes
the survivors densely. A conservative numeric pass then clears outlier
diagonals that no incident negative mass could ever compensate. A
`FixReport` only counts a window's variables.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Cell, bfs_distances, bfs_layers, manhattan
from .penalties import Admissible, WindowSpec
from .qubo import QuboModel, block_size, var_index

# The goal bound's slack, in moves. A cell's step t and its distance d to
# the goal are lengths of paths from the start and to the goal, so on a
# 4-connected grid every t + d of a window has one parity: a slack of 1 keeps
# what 0 keeps, and 2 is the first that admits a detour.
SLACK = 2
# The numeric pass's outlier threshold, in standard deviations of the
# diagonals above their mean.
AGGRESSIVENESS = 3.0


def reduction_pct(original: int, reduced: int) -> float:
    """Share of `original` variables that fixing removed, in percent."""
    return 100.0 * (original - reduced) / original if original else 0.0


@dataclass
class FixReport:
    """A window's variable counts before and after fixing.

    `fix_logical` sets both counts, and `bound_dropped`, the admissible
    cells its goal bound dropped. The numeric pass, run when the window's
    first model is folded, lowers `reduced_count` by the variables it
    clears and adds the ones it clears by rule to `numeric_fixed`.
    """

    original_count: int
    reduced_count: int
    numeric_fixed: int = 0
    bound_dropped: int = 0


def _free_count(admissible: Admissible) -> int:
    """The variables that admissible sets leave free: those of every layer
    that admits more than one cell."""
    count = 0
    for layers in admissible:
        for cells in layers:
            if len(cells) > 1:
                count += len(cells)
    return count


def _arrival(goal: Cell, layers: list[set[Cell]]) -> int | None:
    """The first step whose layer holds `goal`, or None."""
    for t, cells in enumerate(layers):
        if goal in cells:
            return t
    return None


def _bound_to_goal(goal: Cell, arrival, distances, layers: list[set[Cell]]) -> list[set[Cell]]:
    """One robot's layers bounded from the goal end.

    A cell c stays at step t when t + d(c) is at most the smallest such sum
    over the layers plus `SLACK`, d being `distances` to the goal; a cell
    that `distances` does not hold goes. The goal counts as at `arrival`,
    its first step, on every step it is padded to, so parking on it stays
    admissible exactly when reaching it does. Then, backward from the last
    step left non-empty, a cell with no kept successor (a neighbour, or
    itself for the parked goal) goes. Each kept cell keeps the predecessor
    it was first reached from, whose sum is no larger when `distances` were
    searched on a map that allows every move of this one, so step 0 keeps
    the start. The kept cells are free, so a successor test looks a cell's
    four neighbour tuples up in the next kept set.
    """
    sums = [[(arrival if c == goal else t + distances[c], c)
             for c in cells if c in distances] for t, cells in enumerate(layers)]
    best = min((s for step in sums for s, _ in step), default=None)
    if best is None:
        return layers
    kept = [{c for s, c in step if s <= best + SLACK} for step in sums]
    last = max(t for t, cells in enumerate(kept) if cells)
    for t in range(last - 1, -1, -1):
        after = kept[t + 1]
        kept[t] = {(i, j) for i, j in kept[t]
                   if (i, j) in after or (i - 1, j) in after or (i, j - 1) in after
                   or (i, j + 1) in after or (i + 1, j) in after}
    return kept


def fix_logical(spec: WindowSpec, bounded: bool = True) -> tuple[FixReport, Admissible]:
    """One window's variable counts, plus its admissible variable sets.

    Each robot's admissible sets are its BFS layers from its start over the
    window's horizon, padded with empty sets to `spec.horizon + 1` steps.
    The search leaves out the visited cells, only asking them whether they
    hold a cell; where that walls off the goal, or ends short of the horizon
    where the full search reaches further, the full search is kept and the
    softened revisit penalties take over. The full search is skipped when
    it can change neither: the goal lies beyond the horizon in L1 distance
    and the search with exclusions reaches the horizon. One scan per search
    finds the goal's first arrival, which the padding reuses: with waits
    allowed, a reached goal stays admissible after it, for parking.

    With `bounded`, the first-reach layers of each robot whose goal is free
    on the window's map are then bounded from the goal end (`SLACK`). The
    distance to the goal is the robot's `goal_distances`, or a search of
    the window's map from the goal when that is None. The planner searches
    it without the starts it closes, so it is a lower bound on the window's
    own. With the window's own distances, no cell of a shortest path within
    the horizon is dropped; where closed starts or left-out cells lengthen
    the way by more than `SLACK`, the bound may lose it, and the planner's
    first-reach fallback tries again. A window whose first-reach layers
    leave no variable free skips the bound, at the cost of one comparison.
    The report's `bound_dropped` counts the cells the bound dropped.
    """
    horizon = spec.horizon
    admissible: Admissible = []
    arrivals: list[int | None] = []
    for rec in spec.robots:
        start, goal, visited = rec.start, rec.goal, rec.visited
        layers = bfs_layers(spec.grid, start, horizon, exclude_visited=visited)
        arrival = _arrival(goal, layers)
        # Only a visited cell other than the start is left out of the search.
        if (arrival is None and len(visited) > (start in visited)
                and (manhattan(start, goal) <= horizon or len(layers) <= horizon)):
            full = bfs_layers(spec.grid, start, horizon)
            full_arrival = _arrival(goal, full)
            if full_arrival is not None or len(layers) < len(full):
                layers, arrival = full, full_arrival
        admissible.append(layers)
        arrivals.append(arrival)
    joint_depth = max(len(layers) for layers in admissible) - 1 if spec.allow_wait else None
    for rec, layers, goal_time in zip(spec.robots, admissible, arrivals):
        if len(layers) <= horizon:
            layers += [set() for _ in range(horizon + 1 - len(layers))]
        if spec.allow_wait and goal_time is not None:
            # Keep the goal available after first arrival so the robot can
            # park on it, and an early finisher stays visible to the other
            # robots' collision terms.
            for t in range(goal_time + 1, joint_depth + 1):
                layers[t].add(rec.goal)
        elif goal_time is not None and goal_time < horizon:
            # A goal the search wavefront cannot be continued from would
            # otherwise lose to wandering: parking must stay expressible, and
            # the growing goal rewards then make it the cheapest choice.
            # The layers hold free cells only, so the four steps need no
            # bounds or obstacle test.
            i, j = rec.goal
            after = layers[goal_time + 1]
            if not ((i - 1, j) in after or (i, j - 1) in after
                    or (i, j + 1) in after or (i + 1, j) in after):
                for t in range(goal_time + 1, horizon + 1):
                    layers[t].add(rec.goal)

    reduced = _free_count(admissible)
    dropped = 0
    if bounded and reduced:
        for r, rec in enumerate(spec.robots):
            if not spec.grid.is_free(rec.goal):
                continue
            distances = rec.goal_distances
            if distances is None:
                distances = bfs_distances(spec.grid, rec.goal)
            layers = admissible[r]
            admissible[r] = _bound_to_goal(rec.goal, arrivals[r], distances, layers)
            dropped += sum(map(len, layers)) - sum(map(len, admissible[r]))
        reduced = _free_count(admissible)
    report = FixReport(len(spec.robots) * block_size(spec.dims), reduced, bound_dropped=dropped)
    return report, admissible


def forced_ones(dims, admissible: Admissible) -> set[int]:
    """The variables of the layers that admit one cell: logical fixing
    forces each of them on."""
    return {var_index(dims, robot, t, next(iter(cells)))
            for robot, layers in enumerate(admissible)
            for t, cells in enumerate(layers) if len(cells) == 1}


@dataclass
class FoldedModel:
    """A model restricted to free variables, with the index mapping retained."""

    model: QuboModel
    free_vars: list[int]  # dense index -> original index
    fixed_one: frozenset[int]

    def expand(self, bits) -> set[int]:
        """Original-index assignment from a dense free-variable assignment."""
        ones = set(self.fixed_one)
        for dense, bit in enumerate(bits):
            if bit:
                ones.add(self.free_vars[dense])
        return ones


def fold(model: QuboModel, ones, zeros=()) -> FoldedModel:
    """Fix the variables in `ones` to one and those in `zeros` to zero, and
    reindex the free variables.

    Free variables are those some coefficient touches, minus the fixed ones,
    in ascending order: an untouched variable changes no energy and is
    dropped as fixed to zero, so the cost is O(nnz), not O(num_vars).
    Variables fixed to zero drop every incident entry; variables fixed to one
    move their diagonal into the constant and project their pair terms onto
    the partner's diagonal. Energies are preserved exactly for any
    assignment setting `ones` to one and `zeros` to zero.
    """
    ones, zeros = frozenset(ones), frozenset(zeros)
    overlap = ones & zeros
    if overlap:
        raise ValueError(f"fix sets overlap on {sorted(overlap)[:4]}")
    touched = {v for key in model.coeffs for v in key}
    free = sorted(touched - ones - zeros)
    position = {orig: dense for dense, orig in enumerate(free)}
    keys, weights = [], []
    constant = float(model.constant)
    for (a, b), w in model.coeffs.items():
        if a in zeros or b in zeros:
            continue
        if a in ones:
            if a == b or b in ones:
                constant += w
                continue
            keys.append((position[b], position[b]))
        elif b in ones:
            keys.append((position[a], position[a]))
        else:
            keys.append((position[a], position[b]))
        weights.append(w)
    return FoldedModel(QuboModel.from_terms(len(free), constant, keys, weights), free, ones)


def fix_numeric_diagonal(folded: FoldedModel, report: FixReport) -> FoldedModel:
    """Iteratively clear free variables whose diagonal can never pay off.

    A variable is fixed to zero when its diagonal stays positive even if
    every negative incident pair term fired AND is an outlier above mean +
    `AGGRESSIVENESS` * std of all diagonals. Setting such a bit strictly
    raises the energy of any assignment, so the minimum set is untouched.
    The first test needs only sums, so a model where no variable passes it
    is returned before any statistic is taken; in planner windows none
    does. Each round refolds and re-examines until nothing more can be
    cleared; fixing to one is never attempted. `report`'s counts are
    updated in place.
    """
    while True:
        model = folded.model
        n = model.num_vars
        diag = [0.0] * n
        slack = [0.0] * n  # sum of negative incident off-diagonal weights
        for (a, b), w in model.coeffs.items():
            if a == b:
                diag[a] += w
            elif w < 0:
                slack[a] += w
                slack[b] += w
        hopeless = [v for v in range(n) if diag[v] + slack[v] > 0]
        if not hopeless:
            break
        diagonals = np.array(diag)
        threshold = diagonals.mean() + AGGRESSIVENESS * diagonals.std()
        doomed = [v for v in hopeless if diag[v] > threshold]
        if not doomed:
            break
        refolded = fold(model, (), doomed)
        kept = [folded.free_vars[d] for d in refolded.free_vars]
        # Refolding also drops any survivor left without a coefficient.
        report.numeric_fixed += len(doomed)
        report.reduced_count -= len(folded.free_vars) - len(kept)
        folded = FoldedModel(refolded.model, kept, folded.fixed_one)
    return folded
