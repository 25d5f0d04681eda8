"""Grid world: occupancy maps, neighborhoods, distances, and reachability layers.

One frontier loop serves both searches: `bfs_layers` grows a robot's
first-reach layers over a window's horizon, around the cells it has visited;
`bfs_distances` searches a whole map from a goal, around cells such as
parked robots. It walks the padded open-cell mask that each map builds
once, never the obstacle set.
"""

from dataclasses import dataclass

Cell = tuple[int, int]


def _require_ints(config, *names: str) -> None:
    """Reject a setting that is not an `int`, `bool` included, by name."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_cell(cell, name: str) -> None:
    """Reject a cell that is not a tuple of two `int`s, `bool`s excluded, by
    name. Exact types keep the check cheap: a map runs it once per obstacle."""
    if not (type(cell) is tuple and len(cell) == 2
            and type(cell[0]) is int and type(cell[1]) is int):
        raise ValueError(f"{name} {cell!r} is not a pair of integers")


@dataclass(frozen=True)
class GridMap:
    """Rectangular 4-connected grid with static obstacles.

    Cells are (row, col) tuples indexed from the top-left corner. A move
    steps to one of the four edge neighbours. Maps are immutable after
    construction; a window that blocks extra cells builds a derived map with
    :meth:`with_obstacles`, a search leaves them out. The searches'
    open-cell mask is built once per map; it is not a field, so equality,
    hashing and the repr ignore it.
    """

    rows: int
    cols: int
    obstacles: frozenset[Cell] = frozenset()

    def __post_init__(self):
        _require_ints(self, "rows", "cols")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))
        width = self.cols + 2
        row = b"\0" + b"\1" * self.cols + b"\0"
        open_cells = bytearray(b"\0" * width + row * self.rows + b"\0" * width)
        for c in self.obstacles:
            _require_cell(c, "obstacle")
            i, j = c
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"obstacle {c} outside {self.rows}x{self.cols} grid")
            open_cells[(i + 1) * width + j + 1] = 0
        object.__setattr__(self, "_open", bytes(open_cells))

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
        # The searches walk the map's mask instead; the classical baselines
        # and the tests' reference code call this.
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


def _frontier(grid: GridMap, start: Cell, horizon: int, excluded=()) -> list[set[Cell]]:
    """The cells first reached at each step from `start`, a set per step,
    within `horizon` steps, ending at the last step that reaches a new cell.
    It walks flat indices of a copy of the map's mask, padded with walls,
    so a step is `idx ± 1` or `idx ± (cols + 2)` and needs no bounds test.
    A reached or `excluded` cell is closed in the copy, so `excluded` is
    asked once per cell, and never about the start. Both searches call this
    loop, so neither calls the other, and each call is one search.
    """
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    width = grid.cols + 2
    open_cells = bytearray(grid._open)
    first = (start[0] + 1) * width + start[1] + 1
    open_cells[first] = 0
    frontier = [first]
    layers = [{start}]
    while len(layers) <= horizon:
        fresh, cells = [], set()
        for idx in frontier:
            for n in (idx - width, idx - 1, idx + 1, idx + width):
                if open_cells[n]:
                    open_cells[n] = 0
                    i = n // width
                    c = (i - 1, n - i * width - 1)
                    if c not in excluded:
                        fresh.append(n)
                        cells.add(c)
        if not fresh:
            break
        layers.append(cells)
        frontier = fresh
    return layers


def bfs_layers(grid: GridMap, start: Cell, horizon: int,
               exclude_visited=()) -> list[set[Cell]]:
    """Breadth-first reachability layers from `start` up to `horizon` steps.

    Entry t holds the cells first reached at step t, so a cell appears in one
    layer only, and cells in `exclude_visited` other than the start never
    appear at all. The list ends at the last step that reaches a new cell, so
    it holds at most `horizon + 1` layers. The search only asks
    `exclude_visited` whether it holds a cell, so its work follows the cells
    it reaches, not the size of that collection.
    """
    return _frontier(grid, start, horizon, exclude_visited)


def bfs_distances(grid: GridMap, start: Cell, excluded=()) -> dict[Cell, int]:
    """Shortest move counts from `start` to every reachable cell: the layers
    of the search under `bfs_layers`, unbounded, as no shortest path is as
    long as the cell count. Cells in `excluded` other than the start are
    left out as obstacles are, and `excluded` is only asked whether it
    holds a cell. The dict's insertion order is not part of the result.
    """
    layers = _frontier(grid, start, grid.rows * grid.cols, excluded)
    return {c: d for d, cells in enumerate(layers) for c in cells}
