"""Classical reference planners the benchmarks compare against.

A* provides optimal single-robot path lengths; prioritized planning runs
space-time A* robot by robot, treating earlier robots' timed cells as
reservations. Both planners move on `GridMap.neighbors`, the grid semantics
of the QUBO side, so comparisons cannot diverge on map details.
"""

import heapq

from .grid import Cell, GridMap, bfs_distances, manhattan


def _cell_order(grid: GridMap, c: Cell) -> int:
    return c[0] * grid.cols + c[1]


def astar(grid: GridMap, start: Cell, goal: Cell) -> list[Cell] | None:
    """Optimal path under unit step cost, or None if disconnected."""
    if not grid.is_free(start) or not grid.is_free(goal):
        raise ValueError("start and goal must be free cells")
    if start == goal:
        return [start]
    # Heap keys: (f, cell order, g). Ties break on the smaller linear cell
    # index, which makes expansion order deterministic.
    open_heap = [(manhattan(start, goal), _cell_order(grid, start), 0, start)]
    parent: dict[Cell, Cell] = {}
    best_g = {start: 0}
    closed: set[Cell] = set()
    while open_heap:
        _, _, g, cell = heapq.heappop(open_heap)
        if cell in closed:
            continue
        if cell == goal:
            path = [cell]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return path[::-1]
        closed.add(cell)
        for n in sorted(grid.neighbors(cell)):
            ng = g + 1
            if n in closed or best_g.get(n, float("inf")) <= ng:
                continue
            best_g[n] = ng
            parent[n] = cell
            heapq.heappush(open_heap, (ng + manhattan(n, goal), _cell_order(grid, n), ng, n))
    return None


class _Reservations:
    """Space-time occupancy of already-planned robots."""

    def __init__(self):
        self.timed: set[tuple[Cell, int]] = set()
        self.parked: dict[Cell, int] = {}  # cell -> occupied from this time on

    def add_plan(self, steps):
        for t, c in steps:
            self.timed.add((c, t))
        last_t, last_c = steps[-1]
        prev = self.parked.get(last_c)
        self.parked[last_c] = last_t if prev is None else min(prev, last_t)

    def blocked(self, c: Cell, t: int) -> bool:
        if (c, t) in self.timed:
            return True
        since = self.parked.get(c)
        return since is not None and t >= since

    def blocked_ever_after(self, c: Cell, t: int) -> bool:
        """Would parking on c at time t clash with anything later?"""
        since = self.parked.get(c)
        if since is not None:
            return True
        return any(rc == c and rt >= t for rc, rt in self.timed)


def _space_time_astar(grid: GridMap, start: Cell, goal: Cell, release: int,
                      reservations: _Reservations, horizon: int):
    """Timed A* with waiting; earlier robots' reservations are hard blocks.

    From the last timed reservation on (`settled`) only parked cells block,
    so a state's bound is then its cell's distance to the goal in a BFS
    that leaves them out, and one whose cell cannot reach the goal is
    dropped: every state it leads to is cut off the same way. This also
    ends the search at once on a goal that the map or the parked robots
    wall off. Before `settled` the bound is the Manhattan distance, which
    never exceeds a BFS distance one move on, so the bound stays consistent.
    """
    if reservations.blocked(start, release):
        return None
    settled = max((t for _, t in reservations.timed), default=release)
    dist = None  # moves to the goal around the parked cells

    def bound(cell: Cell, t: int) -> int | None:
        """Fewest moves left from (cell, t), at least; None when the goal
        is out of reach from there."""
        nonlocal dist
        if t < settled:
            return manhattan(cell, goal)
        if dist is None:
            parked = reservations.parked
            dist = {} if goal in parked else bfs_distances(grid, goal, parked)
        return dist.get(cell)

    h = bound(start, release)
    if h is None:
        return None
    start_state = (start, release)
    open_heap = [(h, _cell_order(grid, start), release, start_state)]
    parent: dict[tuple[Cell, int], tuple[Cell, int]] = {}
    seen = {start_state}
    while open_heap:
        _, _, g, state = heapq.heappop(open_heap)
        cell, t = state
        if cell == goal and not reservations.blocked_ever_after(cell, t):
            steps = [state]
            while steps[-1] in parent:
                steps.append(parent[steps[-1]])
            return [(tt, cc) for cc, tt in reversed(steps)]
        if t - release >= horizon:
            continue
        for n in sorted(grid.neighbors(cell, allow_wait=True)):
            nxt = (n, t + 1)
            if nxt in seen or reservations.blocked(n, t + 1):
                continue
            h = bound(n, t + 1)
            if h is None:
                continue
            seen.add(nxt)
            parent[nxt] = state
            heapq.heappush(open_heap, (t + 1 - release + h, _cell_order(grid, n), t + 1, nxt))
    return None


def prioritized_plan(grid: GridMap, robots) -> dict[int, list | None]:
    """Plan robots one by one in index order through space-time A*.

    Earlier robots' timed cells are vertex obstacles and their goals stay
    blocked forever once reached. Swap conflicts are deliberately not
    forbidden, matching the collision model of the QUBO pipeline. Returns
    per-robot step lists [(t, cell), ...], or None for robots that cannot
    be routed. A start or goal off the free cells raises `ValueError`.
    """
    robots = sorted(robots, key=lambda r: r.id)
    horizon = 2 * grid.rows * grid.cols + max((r.release for r in robots), default=0)
    reservations = _Reservations()
    out: dict[int, list | None] = {}
    for r in robots:
        if not (grid.is_free(r.start) and grid.is_free(r.goal)):
            raise ValueError("start and goal must be free cells")
        if r.start == r.goal:
            blocked = reservations.blocked_ever_after(r.start, r.release)
            steps = None if blocked else [(r.release, r.start)]
        else:
            steps = _space_time_astar(grid, r.start, r.goal, r.release,
                                      reservations, horizon)
        out[r.id] = steps
        if steps is not None:
            reservations.add_plan(steps)
    return out
