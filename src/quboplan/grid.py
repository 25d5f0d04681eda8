"""Grid world: occupancy maps, neighborhoods, distances, and reachability layers."""

from dataclasses import dataclass

Cell = tuple[int, int]

_STEPS_4 = ((-1, 0), (0, -1), (0, 1), (1, 0))
_STEPS_8 = _STEPS_4 + ((-1, -1), (-1, 1), (1, -1), (1, 1))


@dataclass(frozen=True)
class GridMap:
    """Rectangular grid with static obstacles.

    Cells are (row, col) tuples indexed from the top-left corner. Maps are
    immutable after construction; callers that need extra blocked cells build
    a derived map with :meth:`with_obstacles`.
    """

    rows: int
    cols: int
    obstacles: frozenset[Cell] = frozenset()
    connectivity: int = 4

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid needs at least one row and one column")
        if self.connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {self.connectivity}")
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
        if not self.in_bounds(c):
            raise ValueError(f"cell {c} outside {self.rows}x{self.cols} grid")
        if c in self.obstacles:
            raise ValueError(f"cell {c} is an obstacle")
        steps = _STEPS_4 if self.connectivity == 4 else _STEPS_8
        out = set()
        for di, dj in steps:
            n = (c[0] + di, c[1] + dj)
            if self.is_free(n):
                out.add(n)
        if allow_wait:
            out.add(c)
        return out

    def with_obstacles(self, extra) -> "GridMap":
        """Copy of this map with additional blocked cells."""
        extra = frozenset(extra)
        if not extra:
            return self
        return GridMap(self.rows, self.cols, self.obstacles | extra, self.connectivity)


def manhattan(a: Cell, b: Cell) -> int:
    """L1 distance: the minimum number of 4-connected moves on an empty map."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def min_moves(grid: GridMap, a: Cell, b: Cell) -> int:
    """Fewest moves from a to b on the map without its obstacles: the L1
    distance on a 4-connected map, the Chebyshev distance on an 8-connected
    one. No path on the map is shorter."""
    di, dj = abs(a[0] - b[0]), abs(a[1] - b[1])
    return max(di, dj) if grid.connectivity == 8 else di + dj


def max_manhattan(grid: GridMap) -> int:
    """Largest L1 distance representable on the map (corner to corner)."""
    return (grid.rows - 1) + (grid.cols - 1)


@dataclass
class ReachabilityTable:
    """Per-time-step sets of cells a robot could occupy, produced by BFS."""

    layers: dict[int, set[Cell]]
    horizon: int

    def max_depth(self) -> int:
        """Latest time step with a non-empty layer."""
        depth = 0
        for t, cells in self.layers.items():
            if cells:
                depth = max(depth, t)
        return depth

    def contains(self, c: Cell) -> bool:
        return any(c in cells for cells in self.layers.values())


def bfs_layers(grid: GridMap, start: Cell, horizon: int,
               exclude_visited=()) -> ReachabilityTable:
    """Breadth-first reachability layers from `start` up to `horizon` steps.

    A cell appears only in the layer of its first reach, and cells in
    `exclude_visited` never appear at all.
    """
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    excluded = frozenset(exclude_visited)
    if start in excluded:
        raise ValueError(f"start {start} is in the excluded set")
    layers: dict[int, set[Cell]] = {0: {start}}
    seen = {start} | excluded
    for t in range(1, horizon + 1):
        fresh = set()
        for c in layers[t - 1]:
            for n in grid.neighbors(c):
                if n not in seen:
                    seen.add(n)
                    fresh.add(n)
        layers[t] = fresh
    return ReachabilityTable(layers, horizon)


def bfs_distances(grid: GridMap, start: Cell) -> dict[Cell, int]:
    """Shortest move counts from `start` to every reachable cell."""
    if not grid.is_free(start):
        raise ValueError(f"start {start} is not a free cell")
    dist = {start: 0}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        fresh = []
        for c in frontier:
            for n in grid.neighbors(c):
                if n not in dist:
                    dist[n] = d
                    fresh.append(n)
        frontier = fresh
    return dist


def obstacle_potential(grid: GridMap, c: Cell, radius: int = 1) -> float:
    """Fraction of the Chebyshev neighborhood blocked by obstacles or borders.

    Out-of-grid cells count as blocked, so map borders repel like walls.
    Result lies in [0, 1].
    """
    if not grid.is_free(c):
        raise ValueError(f"cell {c} is not a free cell")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    total = 0
    blocked = 0
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            if di == 0 and dj == 0:
                continue
            total += 1
            if not grid.is_free((c[0] + di, c[1] + dj)):
                blocked += 1
    return blocked / total
