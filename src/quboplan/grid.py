"""Grid world: occupancy maps, neighborhoods, distances, and reachability layers.

Two search loops serve the planner. `bfs_layers` grows a robot's
first-reach layers from its start over a window's horizon, around the cells
it has visited; `bfs_distances` searches a whole map from a goal. Neither
calls `GridMap.neighbors`: each tests a cell's four steps inline.
"""

from dataclasses import dataclass

Cell = tuple[int, int]


def _require_ints(config, *names: str) -> None:
    """Reject a setting that is not an `int`, `bool` included, by name."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GridMap:
    """Rectangular 4-connected grid with static obstacles.

    Cells are (row, col) tuples indexed from the top-left corner. A move
    steps to one of the four edge neighbours. Maps are
    immutable after construction; callers that need extra blocked cells build
    a derived map with :meth:`with_obstacles`.
    """

    rows: int
    cols: int
    obstacles: frozenset[Cell] = frozenset()

    def __post_init__(self):
        _require_ints(self, "rows", "cols")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))
        for c in self.obstacles:
            if not self.in_bounds(c):
                raise ValueError(f"obstacle {c} outside {self.rows}x{self.cols} grid")

    def in_bounds(self, c: Cell) -> bool:
        return 0 <= c[0] < self.rows and 0 <= c[1] < self.cols

    def is_free(self, c: Cell) -> bool:
        return self.in_bounds(c) and c not in self.obstacles

    def free_cells(self) -> list[Cell]:
        """All non-obstacle cells in row-major order."""
        return [
            (i, j)
            for i in range(self.rows)
            for j in range(self.cols)
            if (i, j) not in self.obstacles
        ]

    def neighbors(self, c: Cell, allow_wait: bool = False) -> set[Cell]:
        """In-grid non-obstacle neighbors of a free cell.

        Includes `c` itself when `allow_wait` is set. Querying an obstacle or
        out-of-grid cell is a contract violation.
        """
        i, j = c
        rows, cols, obstacles = self.rows, self.cols, self.obstacles
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"cell {c} outside {rows}x{cols} grid")
        if c in obstacles:
            raise ValueError(f"cell {c} is an obstacle")
        # Up, left, right, down: one bounds test and one obstacle test each.
        # The reachability searches test their steps inline; the classical
        # baselines and the tests' reference code call this.
        out = set()
        if i > 0 and (i - 1, j) not in obstacles:
            out.add((i - 1, j))
        if j > 0 and (i, j - 1) not in obstacles:
            out.add((i, j - 1))
        if j + 1 < cols and (i, j + 1) not in obstacles:
            out.add((i, j + 1))
        if i + 1 < rows and (i + 1, j) not in obstacles:
            out.add((i + 1, j))
        if allow_wait:
            out.add(c)
        return out

    def with_obstacles(self, extra) -> "GridMap":
        """Copy of this map with additional blocked cells."""
        extra = frozenset(extra)
        if not extra:
            return self
        return GridMap(self.rows, self.cols, self.obstacles | extra)


def manhattan(a: Cell, b: Cell) -> int:
    """L1 distance: the fewest moves from a to b on the map without its
    obstacles. No path on the map is shorter."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def bfs_layers(grid: GridMap, start: Cell, horizon: int,
               exclude_visited=()) -> list[set[Cell]]:
    """Breadth-first reachability layers from `start` up to `horizon` steps.

    Entry t holds the cells first reached at step t, so a cell appears in one
    layer only, and cells in `exclude_visited` other than the start never
    appear at all. The list ends at the last step that reaches a new cell, so
    it holds at most `horizon + 1` layers. The search only asks
    `exclude_visited` whether it holds a cell, so its work follows the cells
    it reaches, not the size of that collection. Each of a cell's four
    steps is tested inline: bounds, then seen, obstacle and excluded cells.
    """
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    obstacles = grid.obstacles
    last_row, last_col = grid.rows - 1, grid.cols - 1
    layers = [{start}]
    seen = {start}
    while len(layers) <= horizon:
        fresh = set()
        for i, j in layers[-1]:
            if i:
                n = (i - 1, j)
                if n not in seen and n not in obstacles and n not in exclude_visited:
                    seen.add(n)
                    fresh.add(n)
            if j:
                n = (i, j - 1)
                if n not in seen and n not in obstacles and n not in exclude_visited:
                    seen.add(n)
                    fresh.add(n)
            if j < last_col:
                n = (i, j + 1)
                if n not in seen and n not in obstacles and n not in exclude_visited:
                    seen.add(n)
                    fresh.add(n)
            if i < last_row:
                n = (i + 1, j)
                if n not in seen and n not in obstacles and n not in exclude_visited:
                    seen.add(n)
                    fresh.add(n)
        if not fresh:
            break
        layers.append(fresh)
    return layers


def bfs_distances(grid: GridMap, start: Cell) -> dict[Cell, int]:
    """Shortest move counts from `start` to every reachable cell.

    A frontier loop of its own, not a flattening of `bfs_layers`: it walks
    flat indices of a per-call copy of the map's open cells, padded with a
    border of walls, so a step is `idx ± 1` or `idx ± (cols + 2)` and needs
    no bounds test. A reached index is closed in that copy, and its cell
    tuple is made once, as it enters the result. The dict's insertion order
    is not part of the result.
    """
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    width = grid.cols + 2
    row = b"\0" + b"\1" * grid.cols + b"\0"
    open_cells = bytearray(b"\0" * width + row * grid.rows + b"\0" * width)
    for i, j in grid.obstacles:
        open_cells[(i + 1) * width + j + 1] = 0
    first = (start[0] + 1) * width + start[1] + 1
    open_cells[first] = 0
    dist = {start: 0}
    frontier = [first]
    d = 0
    while frontier:
        d += 1
        fresh = []
        for idx in frontier:
            for n in (idx - width, idx - 1, idx + 1, idx + width):
                if open_cells[n]:
                    open_cells[n] = 0
                    fresh.append(n)
                    i = n // width
                    dist[(i - 1, n - i * width - 1)] = d
        frontier = fresh
    return dist
