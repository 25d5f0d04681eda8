"""Variable fixing: shrink a window's QUBO before any solver sees it.

Logical fixing derives forced assignments from reachability alone: a step
admits only its BFS layer (the start alone at step 0), so no goal is
claimed before its BFS distance, and a singleton layer forces its variable
on (`forced_ones`, computed only when a model is folded). Cells outside a
layer never enter the model, so no work is spent on them. Folding
substitutes the fixed values into the coefficients and reindexes the
survivors densely. A conservative numeric pass then clears outlier
diagonals that no incident negative mass could ever compensate.
"""

from dataclasses import dataclass, field

import numpy as np

from .penalties import Admissible, WindowSpec
from .qubo import QuboModel, block_size, var_index


def reduction_pct(original: int, reduced: int) -> float:
    """Share of `original` variables that fixing removed, in percent."""
    return 100.0 * (original - reduced) / original if original else 0.0


@dataclass
class FixReport:
    """What preprocessing decided: forced bits and the resulting model size.

    `fixed_one` is filled from `forced_ones` when the window is folded, so
    a window that logical fixing decides never computes it. `fixed_zero`
    holds only explicitly cleared variables (the numeric pass); logical
    fixing leaves the non-admissible ones for `fold` to drop.
    """

    fixed_one: set[int] = field(default_factory=set)
    fixed_zero: set[int] = field(default_factory=set)
    original_count: int = 0
    reduced_count: int = 0
    numeric_fixed: int = 0

    @property
    def solved_by_preprocess(self) -> bool:
        return self.reduced_count == 0


def fix_logical(spec: WindowSpec, tables: Admissible
                ) -> tuple[FixReport, Admissible]:
    """Forced assignments for one window, plus the admissible variable sets.

    `tables` holds each robot's reachability layers from its start over the
    window's horizon, as `planner.build_window` searched them; each robot's
    admissible sets are its layers, padded with empty sets to
    `spec.horizon + 1` steps. The inputs are left unchanged. When the
    spec allows waits, a reached goal stays admissible after first arrival,
    so the robot can park on it.
    """
    horizon = spec.horizon
    report = FixReport(original_count=len(spec.robots) * block_size(spec.dims))
    admissible: Admissible = []
    joint_depth = max(len(table) for table in tables) - 1

    for rec, table in zip(spec.robots, tables):
        layers = [set(cells) for cells in table]
        layers += [set() for _ in range(horizon + 1 - len(layers))]
        goal_time = next(
            (t for t, cells in enumerate(layers) if rec.goal in cells), None)
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
            onward = spec.grid.neighbors(rec.goal) & layers[goal_time + 1]
            if not onward:
                for t in range(goal_time + 1, horizon + 1):
                    layers[t].add(rec.goal)
        admissible.append(layers)

    report.reduced_count = sum(len(cells) for layers in admissible
                               for cells in layers if len(cells) != 1)
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


def fold(model: QuboModel, report: FixReport) -> FoldedModel:
    """Substitute fixed values into the model and reindex the free variables.

    Free variables are those some coefficient touches, minus the fixed ones,
    in ascending order: an untouched variable changes no energy and is
    dropped as fixed to zero, so the cost is O(nnz), not O(num_vars).
    Variables fixed to zero drop every incident entry; variables fixed to one
    move their diagonal into the constant and project their pair terms onto
    the partner's diagonal. Energies are preserved exactly for any
    assignment extending the fixed values.
    """
    ones = report.fixed_one
    zeros = report.fixed_zero
    overlap = ones & zeros
    if overlap:
        raise ValueError(f"fix sets overlap on {sorted(overlap)[:4]}")
    touched = {v for key in model.coeffs for v in key}
    free = sorted(touched - ones - zeros)
    position = {orig: dense for dense, orig in enumerate(free)}
    out = QuboModel(len(free), model.constant)
    for (a, b), w in model.coeffs.items():
        if a in zeros or b in zeros:
            continue
        a_one = a in ones
        b_one = b in ones
        if a == b:
            if a_one:
                out.constant += w
            else:
                out.add(position[a], position[a], w)
        elif a_one and b_one:
            out.constant += w
        elif a_one:
            out.add(position[b], position[b], w)
        elif b_one:
            out.add(position[a], position[a], w)
        else:
            out.add(position[a], position[b], w)
    return FoldedModel(out, free, frozenset(ones))


def fix_numeric_diagonal(folded: FoldedModel, report: FixReport,
                         aggressiveness: float = 3.0) -> FoldedModel:
    """Iteratively clear free variables whose diagonal can never pay off.

    A variable is fixed to zero when its diagonal is an outlier above
    mean + aggressiveness * std of all diagonals AND stays positive even if
    every negative incident pair term fired. Setting such a bit strictly
    raises the energy of any assignment, so the minimum set is untouched.
    Each round refolds and re-examines until nothing more can be cleared;
    fixing to one is never attempted. `report` is updated in place.
    """
    while True:
        model = folded.model
        n = model.num_vars
        if n == 0:
            break
        diag = np.zeros(n)
        slack = np.zeros(n)  # sum of negative incident off-diagonal weights
        for (a, b), w in model.coeffs.items():
            if a == b:
                diag[a] += w
            elif w < 0:
                slack[a] += w
                slack[b] += w
        threshold = diag.mean() + aggressiveness * diag.std()
        doomed = [
            v for v in range(n)
            if diag[v] > threshold and diag[v] + slack[v] > 0
        ]
        if not doomed:
            break
        refolded = fold(model, FixReport(fixed_zero=set(doomed)))
        kept = [folded.free_vars[d] for d in refolded.free_vars]
        # Refolding also drops any survivor left without a coefficient.
        newly_fixed = set(folded.free_vars) - set(kept)
        report.fixed_zero |= newly_fixed
        report.numeric_fixed += len(doomed)
        report.reduced_count -= len(newly_fixed)
        folded = FoldedModel(refolded.model, kept, folded.fixed_one)
    return folded
