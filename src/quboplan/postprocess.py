"""Repairs that turn near-valid solver output into usable window paths.

Two stages, applied in order: continuity repair follows each robot's path
through a window up to its goal, keeping at each step the one cell that
continues it, and wait insertion clears vertex clashes between finished
per-robot plans. `detect_invalid_move` is the final check of every plan.
All transformations are pure; every function returns new data.
"""

from dataclasses import dataclass

from .grid import Cell, GridMap

Steps = list[tuple[int, Cell]]  # (global time, cell), times contiguous


@dataclass
class RepairOutcome:
    """Result of continuity repair: the kept prefix, why it stopped (None
    when it reached the goal or kept every step) and how many extra cells it
    dropped. The step it stopped at is `len(path)`."""

    path: list[Cell]
    reason: str | None = None
    dropped: int = 0


def fix_one_hot_continuity(occupancy, prev_cell: Cell, goal: Cell,
                           allow_wait: bool = False) -> RepairOutcome:
    """Follow a robot's path step by step up to its goal.

    `occupancy` is one cell set per local step, and step 0 must hold
    `prev_cell`, the robot's current cell. Every later step keeps the one
    cell that is a move, or with `allow_wait` a wait, from the cell kept
    before it, and the path ends at its first arrival on `goal`. The cells
    are admissible, hence free, so a move is one L1 step and a wait none; a
    step of one cell is tested directly. The repair stops at an empty step,
    or where no cell (`adjacency`) or several cells (`ambiguous`) continue
    the path.
    """
    kept: list[Cell] = []
    dropped = 0
    least = 0 if allow_wait else 1  # the fewest L1 steps from the kept cell
    for t, cells in enumerate(occupancy):
        if not cells:
            return RepairOutcome(kept, "empty_step", dropped)
        if t == 0:
            if prev_cell not in cells:
                return RepairOutcome([], "start_mismatch")
            cell = prev_cell
        elif len(cells) == 1:
            (cell,) = cells
            if not least <= abs(cell[0] - i) + abs(cell[1] - j) <= 1:
                return RepairOutcome(kept, "adjacency", dropped)
        else:
            candidates = [c for c in cells if least <= abs(c[0] - i) + abs(c[1] - j) <= 1]
            if len(candidates) != 1:
                reason = "ambiguous" if candidates else "adjacency"
                return RepairOutcome(kept, reason, dropped)
            cell = candidates[0]
        dropped += len(cells) - 1
        kept.append(cell)
        if cell == goal:
            break
        i, j = cell
    return RepairOutcome(kept, None, dropped)


def detect_invalid_move(path, grid: GridMap, allow_wait: bool = False):
    """Earliest step breaking adjacency or stepping onto a blocked cell.

    Returns (step, kind) or None. The obstacle branch is unreachable while
    obstacles are pruned structurally, but stays as defense in depth. Both
    cells of a move are free by then, so they are neighbours exactly when
    they lie one step apart; a wait is no step.
    """
    rows, cols, obstacles = grid.rows, grid.cols, grid.obstacles
    least = 0 if allow_wait else 1  # the fewest L1 steps between consecutive cells
    for t, c in enumerate(path):
        i, j = c
        if not (0 <= i < rows and 0 <= j < cols) or c in obstacles:
            return (t, "obstacle")
        if t and not least <= abs(i - prev_i) + abs(j - prev_j) <= 1:
            return (t, "adjacency")
        prev_i, prev_j = i, j
    return None


def occupied_at(steps: Steps, t: int) -> Cell | None:
    """Cell a robot holds at global time t; robots park on their last cell."""
    if not steps or t < steps[0][0]:
        return None
    if t >= steps[-1][0]:
        return steps[-1][1]
    return steps[t - steps[0][0]][1]


def find_vertex_conflicts(step_lists: list[Steps]):
    """All (t, cell, r1, r2) where two robots hold the same cell at once.

    Finished robots keep occupying their final cell, and robots are absent
    before their first timestamp. Sorted by time, then cell, then robots.
    Between two step times no robot changes cell, so only step times are
    checked; a clash found at one is listed at every tick up to the next.
    """
    populated = [(r, s) for r, s in enumerate(step_lists) if s]
    if len(populated) < 2:
        return []
    times = sorted({t for _, s in populated for t, _ in s})
    conflicts = []
    for t, end in zip(times, times[1:] + [times[-1] + 1]):
        spots: dict[Cell, int] = {}
        for r, s in populated:
            c = occupied_at(s, t)
            if c is None:
                continue
            if c in spots:
                conflicts.extend((tick, c, spots[c], r) for tick in range(t, end))
            else:
                spots[c] = r
    conflicts.sort()
    return conflicts


def resolve_clash_wait(step_lists: list[Steps], grid: GridMap):
    """Clear vertex clashes by delaying the lower-priority robot.

    The robot with the higher index waits one extra step on the cell it holds
    just before the clash, and the scan repeats until no conflicts remain or
    a budget of 2 * robots * (rows + cols) waits runs out. It stops at once
    when the earliest clash is on the waiting robot's start or on the cell
    it already holds, or when either robot is already parked on its final
    cell, since no wait can clear those.
    Cell sequences are never altered, only timing. Robots are named by their
    index in `step_lists`. Returns (adjusted step lists, the waits as
    (robot, held cell, t, clash cell), unresolved conflicts).
    """
    lists = [list(s) for s in step_lists]
    budget = 2 * max(1, len(lists)) * (grid.rows + grid.cols)
    waits: list[tuple[int, Cell, int, Cell]] = []
    while budget > 0:
        conflicts = find_vertex_conflicts(lists)
        if not conflicts:
            return lists, waits, []
        t, cell, other, victim = conflicts[0]
        steps = lists[victim]
        if t <= steps[0][0] or t >= min(steps[-1][0], lists[other][-1][0]):
            return lists, waits, conflicts
        k = t - steps[0][0]
        hold = steps[k - 1][1]
        if hold == cell:
            return lists, waits, conflicts
        lists[victim] = (
            steps[:k]
            + [(t, hold)]
            + [(tt + 1, c) for tt, c in steps[k:]]
        )
        waits.append((victim, hold, t, cell))
        budget -= 1
    return lists, waits, find_vertex_conflicts(lists)
