"""Sparse upper-triangular QUBO container and the grid variable encoding."""

from collections.abc import Collection

from .grid import Cell

Dims = tuple[int, int, int]  # (rows, cols, horizon): time steps run 0..horizon


def block_size(dims: Dims) -> int:
    """Variables one robot occupies: rows * cols * (horizon + 1)."""
    rows, cols, horizon = dims
    return rows * cols * (horizon + 1)


def var_index(dims: Dims, robot: int, t: int, c: Cell) -> int:
    """Linear index of the binary variable "robot occupies cell c at step t".

    Cells are enumerated row-major, time steps are grouped consecutively, and
    each robot owns one contiguous block. The mapping is a bijection over its
    domain.
    """
    rows, cols, horizon = dims
    if robot < 0:
        raise ValueError(f"robot index {robot} out of range")
    if not 0 <= t <= horizon:
        raise ValueError(f"time step {t} outside 0..{horizon}")
    i, j = c
    if not (0 <= i < rows and 0 <= j < cols):
        raise ValueError(f"cell {c} outside {rows}x{cols} grid")
    return i * cols + j + rows * cols * t + robot * block_size(dims)


def decode(ones: Collection[int], dims: Dims, num_robots: int) -> list[list[set[Cell]]]:
    """Inverse of `var_index` applied to every set bit.

    Returns one cell set per step 0..horizon for each robot. A solve sets
    one member of every (robot, step) group, so an empty set at a step only
    means that no cell was admissible to that robot there; the repair stops
    at it.
    """
    rows, cols, horizon = dims
    block = block_size(dims)
    per_cell = rows * cols
    out = [[set() for _ in range(horizon + 1)] for _ in range(num_robots)]
    for n in ones:
        if not 0 <= n < block * num_robots:
            raise ValueError(f"variable index {n} out of range")
        robot, rem = divmod(n, block)
        t, lin = divmod(rem, per_cell)
        i, j = divmod(lin, cols)
        out[robot][t].add((i, j))
    return out


class QuboModel:
    """Quadratic binary objective stored as an upper-triangular coefficient map.

    Diagonal keys (a, a) hold linear terms; off-diagonal keys are kept with
    a < b. Coefficients that cancel to exactly zero are dropped, so the map
    never stores explicit zeros. `constant` carries the assignment-independent
    offset picked up by squared penalty expansions.

    The map's order is part of the model: a key takes its place at its first
    non-zero accumulation, and a cancel drops it, so a later term adds it
    again at the end. `solvers._energies` sums terms in this order, and so
    does a window's `best_energy`. `from_terms` merges a whole term list by
    that rule; `add` applies it to one term.
    """

    __slots__ = ("num_vars", "constant", "coeffs")

    def __init__(self, num_vars: int, constant: float = 0.0):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.constant = float(constant)
        self.coeffs: dict[tuple[int, int], float] = {}

    @classmethod
    def from_terms(cls, num_vars: int, constant: float, keys, weights) -> "QuboModel":
        """The model of the terms `keys[i]` with weight `weights[i]`, merged
        in order. Each key is a canonical (a, b) pair, a <= b, inside
        0..num_vars - 1; they are not checked."""
        model = cls(num_vars, constant)
        coeffs = model.coeffs
        get = coeffs.get
        for key, w in zip(keys, weights):
            value = get(key, 0.0) + w
            if value == 0.0:
                coeffs.pop(key, None)
            else:
                coeffs[key] = value
        return model

    def add(self, a: int, b: int, w: float) -> "QuboModel":
        """Accumulate weight w onto the canonical (min, max) key."""
        if not (0 <= a < self.num_vars and 0 <= b < self.num_vars):
            raise ValueError(f"index pair ({a}, {b}) outside 0..{self.num_vars - 1}")
        key = (a, b) if a <= b else (b, a)
        value = self.coeffs.get(key, 0.0) + w
        if value == 0.0:
            self.coeffs.pop(key, None)
        else:
            self.coeffs[key] = value
        return self

    def get(self, a: int, b: int) -> float:
        key = (a, b) if a <= b else (b, a)
        return self.coeffs.get(key, 0.0)

    def __len__(self) -> int:
        return len(self.coeffs)

    def energy(self, ones: Collection[int]) -> float:
        """Objective value for the assignment whose set bits are `ones`."""
        active = ones if isinstance(ones, (set, frozenset)) else set(ones)
        for n in active:
            if not 0 <= n < self.num_vars:
                raise ValueError(f"variable index {n} out of range")
        total = self.constant
        for (a, b), w in self.coeffs.items():
            if a in active and (a == b or b in active):
                total += w
        return total

    def to_text(self) -> str:
        """Plain-text triple list: header "num_vars constant", then "a b w" lines."""
        lines = [f"{self.num_vars} {self.constant!r}"]
        for (a, b), w in sorted(self.coeffs.items()):
            lines.append(f"{a} {b} {w!r}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (
            f"QuboModel(num_vars={self.num_vars}, nnz={len(self.coeffs)}, "
            f"constant={self.constant})"
        )
