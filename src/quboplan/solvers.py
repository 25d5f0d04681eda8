"""The QUBO solver: exact elimination over one-hot groups, with collision
couplings added lazily above its table cap, and simulated annealing when
even that exceeds the cap.

`solve` consumes a frozen model over dense free variables, with each
variable's group, and returns a `SampleSet`. The annealer stands in for the
quantum or quantum-inspired sampler that a window's QUBO is meant for.

The annealer visits one-hot states only: the caller labels each variable
with its group (in a window model, its (robot, step)), a state sets exactly
one variable per group, and a move sends a group's bit to another member,
so every move preserves the constraint (Hen and Spedalieri, Phys. Rev.
Applied 5, 034007, 2016). Intra-group pair terms never fire on such states,
so a move costs the difference of two local fields over the diagonal and
the couplings between groups. The fields are updated after each accepted
move over sparse neighbour lists, and groups that share no coupling move
together (Isakov et al., Comput. Phys. Commun. 192, 265, 2015).

Window models are small, tens to a few hundred free variables in two to
five colour classes, so the annealer's time goes to numpy calls, not to
arithmetic. Each colour class therefore keeps its state, its proposals and
its draws for each sweep in contiguous arrays of its own, and a pass over
it makes about a dozen numpy calls. Sample energies are scored in one
vectorised sum that adds the terms in `QuboModel.energy`'s order.

The annealing β range `_BETA_RANGE` is read per unit of the largest
|coupling between groups| (unscaled when there is none), and the model is
never rescaled: scaling Q by s is the same as scaling β by s, so sample
energies stay in the model's own units.

`solve` first runs min-sum elimination over the groups, exact on one-hot
states (Dechter, Artif. Intell. 113, 41, 1999), and returns its state at
the lowest energy, tied or not, with 0 occurrences: no read runs, and no
seed is derived. When an elimination table would exceed `_EXACT_TABLE_CAP`
entries, it drops the collision couplings, eliminates the rest and adds
back the ones the state fires, round after round, until a state fires
none: that state is the exact one-hot minimum too (Sharon et al., Artif.
Intell. 219, 40, 2015). Only when a round's own tables exceed the cap does
the annealer run, and then it runs all `num_reads` reads, from a seed
`derive_seed` draws from the run's seed and the caller's seed parts. Read
r draws from `SeedSequence((seed, r))` alone, so its final state does not
depend on the block of reads it runs in.

`solve` reads the model and its labels once, in one Python pass over its
coefficients, into `_OneHotModel`: the groups, ranked by their greedy
colouring, with their labels, every diagonal and every table of couplings
between two groups in one flat array. A planner window's model comes
without the one-hot pair terms inside a group, which that pass would only
skip. Elimination, its lazy rounds and the annealer's layout all read
those tables. Only `model.energy`, for the exact state, and `_energies`,
for annealed samples, reread the coefficients. The layout and the tally of samples are built only when
reads run. At window sizes a pass over numpy arrays costs more in calls
than the Python pass it replaces, so numpy holds only the tables and the
annealer's arrays.
"""

import heapq
import math
from dataclasses import dataclass, replace
from itertools import accumulate, chain, count

import numpy as np

from .grid import _require_ints

# 8-byte values held per block of reads while annealing: 64 MiB. The 100
# reads of a window of 235 variables in 32 groups at 300 sweeps need 9,920
# values each, so they share one block.
_RANDOM_BUDGET = 1 << 23
# Entries in the largest table exact elimination builds before it gives up.
_EXACT_TABLE_CAP = 1 << 16
# The annealer's first and last inverse temperature, per unit of the window
# model's largest |coupling between groups|, in a geometric schedule.
_BETA_RANGE = (0.4, 40.0)


def derive_seed(base: int, *parts: int) -> int:
    """Seed for one part of a run (a window attempt, a bench repeat) drawn
    from the run's base seed; each part is taken modulo 2**32."""
    entropy = (base & 0xFFFFFFFFFFFFFFFF,) + tuple(p & 0xFFFFFFFF for p in parts)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SolverConfig:
    """Sampling parameters. Same seed, same samples.

    `num_reads` is the annealer's read count: it runs none when exact
    elimination, or its lazy rounds, fit the table cap (see `solve`).
    `seed` is the annealer's seed or, when `solve` is given seed parts, the
    run's seed that it is derived from; an exact answer reads neither.
    """

    num_reads: int = 100
    sweeps: int = 1000
    seed: int = 0

    @property
    def backend(self) -> str:
        """Always "annealer". Read only by the benchmark tracer's solve
        counts; it goes when their `annealer` key does (ROADMAP item 7)."""
        return "annealer"

    def __post_init__(self):
        _require_ints(self, "num_reads", "sweeps", "seed")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")


@dataclass(frozen=True)
class Sample:
    bits: tuple[int, ...]
    energy: float
    occurrences: int


@dataclass
class SampleSet:
    """Distinct assignments sorted by ascending energy."""

    samples: list[Sample]

    @property
    def best(self) -> Sample:
        return self.samples[0]

    def __iter__(self):
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


def _energies(model, on: np.ndarray) -> np.ndarray:
    """`model.energy` of each row of a boolean matrix, bit for bit.

    Each row sums the constant, then every term in `coeffs` order, one
    addition at a time, as `model.energy` does. An inactive term adds -0.0,
    which leaves any sum unchanged.
    """
    count = len(model.coeffs)
    pairs = np.fromiter(chain.from_iterable(model.coeffs), dtype=np.intp,
                        count=2 * count).reshape(count, 2)
    weights = np.fromiter(model.coeffs.values(), dtype=np.float64, count=count)
    summands = np.full((len(on), len(pairs) + 1), -0.0)
    summands[:, 0] = model.constant
    np.copyto(summands[:, 1:], weights, where=on[:, pairs[:, 0]] & on[:, pairs[:, 1]])
    return np.add.accumulate(summands, axis=1)[:, -1]


def _collect(model, counts: dict[tuple[int, ...], int]) -> SampleSet:
    energies = _energies(model, np.array(list(counts), dtype=bool))
    samples = [Sample(bits, energy, hits)
               for (bits, hits), energy in zip(counts.items(), energies.tolist())]
    samples.sort(key=lambda s: (s.energy, s.bits))
    return SampleSet(samples)


@dataclass(frozen=True)
class _OneHotModel:
    """A model read as one-hot groups, with its elimination tables.

    Groups are numbered by rank in a greedy colouring of the group graph:
    the groups of one member first, then colour class by colour class, by
    label within a class. `members[g]` lists group g's variables in
    ascending order, `labels[g]` is its label, and `colour[g]` is its
    colour, -1 for a group of one member, which never moves. `tables` holds
    every group's diagonal, one entry per member, group after group, then
    one table per coupled pair of
    groups: `edges` maps each such pair (g, h), in one of its two orders, to
    the offset of its table, a row per member of g and a column per member
    of h, each entry the coupling of the two members (0.0 without one). A
    coupling inside a group never fires on a one-hot state and is left out.
    """

    members: list[list[int]]
    labels: list
    colour: list[int]
    tables: np.ndarray
    edges: dict[tuple[int, int], int]


def _one_hot_model(model, groups) -> _OneHotModel:
    """Group the model's variables by label, and lay out their tables, in one
    pass over its coefficients; then colour the groups greedily, most
    constrained first."""
    n = model.num_vars
    labels = np.asarray(groups)
    if labels.shape != (n,):
        raise ValueError(f"groups must label each of the {n} variables once")
    # Group ids number the distinct labels in ascending order.
    seq = labels.tolist()
    distinct = sorted(set(seq))
    index = {label: g for g, label in enumerate(distinct)}
    ids = [index[label] for label in seq]
    by_id: list[list[int]] = [[] for _ in index]
    member = [0] * n
    for v, g in enumerate(ids):
        member[v] = len(by_id[g])
        by_id[g].append(v)
    num, size = len(by_id), [len(m) for m in by_id]

    diag = [0.0] * n
    # Each coupled pair of groups, keyed ga * num + gb with ga < gb, and the
    # offset of its table in the flat array, after the n diagonal entries.
    offset: dict[int, int] = {}
    at, weights = [], []
    end = n
    for (a, b), w in model.coeffs.items():
        if a == b:
            diag[a] = w
            continue
        ga, gb = ids[a], ids[b]
        if ga == gb:
            continue
        if ga > gb:
            ga, gb, a, b = gb, ga, b, a
        lo = offset.get(ga * num + gb)
        if lo is None:
            lo = offset[ga * num + gb] = end
            end += size[ga] * size[gb]
        at.append(lo + member[a] * size[gb] + member[b])
        weights.append(w)

    near: list[set[int]] = [set() for _ in by_id]
    for key in offset:
        ga, gb = divmod(key, num)
        near[ga].add(gb)
        near[gb].add(ga)
    colour = [-1] * num
    for g in sorted(range(num), key=lambda g: (-len(near[g]), g)):
        if size[g] > 1:
            taken = {colour[h] for h in near[g]}
            colour[g] = next(c for c in count() if c not in taken)
    ranked = sorted(range(num), key=lambda g: (colour[g], g))
    rank = [0] * num
    for r, g in enumerate(ranked):
        rank[g] = r

    members = [by_id[g] for g in ranked]
    tables = np.zeros(end)
    tables[:n] = [diag[v] for m in members for v in m]
    tables[at] = weights
    edges = {(rank[key // num], rank[key % num]): lo for key, lo in offset.items()}
    return _OneHotModel(members, [distinct[g] for g in ranked], [colour[g] for g in ranked],
                        tables, edges)


@dataclass(frozen=True)
class _OneHotLayout:
    """A one-hot model laid out for the annealer's moves.

    Internal variables run group by group, in rank order, so a group's
    members are the contiguous range `first[g]` .. `first[g] + size[g] - 1`;
    `order` maps them back to model variables. Groups run class by class:
    the groups of one `classes` range share no coupling, so their moves are
    independent. Row i of `offset` and `weight` holds internal variable i's
    couplings to other groups, padded to one width: `offset` is the
    neighbour's index minus i, and padding points at the sink column `n`
    with weight 0. `peak` is the largest |coupling between groups|, 0.0
    without one.
    """

    order: np.ndarray
    first: np.ndarray
    size: np.ndarray
    classes: list[tuple[int, int]]
    diag: np.ndarray
    offset: np.ndarray
    weight: np.ndarray
    peak: float


def _one_hot_layout(one_hot: _OneHotModel) -> _OneHotLayout:
    """The annealer's arrays for `one_hot`, read from its tables: each
    nonzero entry of a pair table is a coupling between groups, the edge
    whose table holds it gives the two groups, and its row and column give
    their members."""
    size = np.array([len(m) for m in one_hot.members], dtype=np.intp)
    first = np.cumsum(size) - size
    n = int(size.sum())
    order = np.fromiter(chain.from_iterable(one_hot.members), dtype=np.intp, count=n)
    colour = np.array(one_hot.colour)
    classes = [(int(np.searchsorted(colour, c)), int(np.searchsorted(colour, c, "right")))
               for c in range(int(colour.max()) + 1)]

    tables = one_hot.tables
    edges = sorted((lo, g, h) for (g, h), lo in one_hot.edges.items())
    lo, g, h = np.array(edges, dtype=np.intp).reshape(-1, 3).T
    at = n + np.flatnonzero(tables[n:])
    edge = np.searchsorted(lo, at, "right") - 1
    row, column = np.divmod(at - lo[edge], size[h[edge]])
    a, b, w = first[g[edge]] + row, first[h[edge]] + column, tables[at]
    # Both ends of each coupling, grouped by variable.
    src, dst = np.concatenate((a, b)), np.concatenate((b, a))
    by_src = np.argsort(src, kind="stable")
    src, dst, both = src[by_src], dst[by_src], np.concatenate((w, w))[by_src]
    degree = np.bincount(src, minlength=n)
    slot = np.arange(len(src)) - np.repeat(np.cumsum(degree) - degree, degree)
    offset = np.repeat((n - np.arange(n))[:, None], int(degree.max()), axis=1)
    weight = np.zeros(offset.shape)
    offset[src, slot] = dst - src
    weight[src, slot] = both
    return _OneHotLayout(order, first, size, classes, tables[:n], offset, weight,
                         float(np.abs(w).max(initial=0.0)))


def _anneal_one_hot(layout: _OneHotLayout, cfg: SolverConfig, betas: np.ndarray
                    ) -> np.ndarray:
    """The final state of each of the `cfg.num_reads` reads, one chosen
    internal variable per group, with sweep s at inverse temperature `betas[s]`.

    Reads run in blocks that fit `_RANDOM_BUDGET`, each in its own call so
    that its arrays are freed before the next block allocates. A read's
    draws come from `SeedSequence((seed, read))` alone, so its final state
    does not depend on its block.
    """
    reads = range(cfg.num_reads)
    n, num_groups = len(layout.order), len(layout.size)
    stride = 1 << n.bit_length()  # > n, so column n is the padding sink
    # Every per-read array counts against the budget, in 8-byte units.
    per_read = num_groups * (cfg.sweeps + 2) + stride
    block = max(1, min(len(reads), _RANDOM_BUDGET // per_read))
    states = np.empty((len(reads), num_groups), dtype=np.intp)
    for lo in range(0, len(reads), block):
        part = reads[lo:lo + block]
        states[lo:lo + len(part)] = _anneal_block(layout, cfg, betas, part, stride)
    return states


def _anneal_block(layout: _OneHotLayout, cfg: SolverConfig, betas: np.ndarray,
                  reads: range, stride: int) -> np.ndarray:
    """The final states of one block of reads.

    The fields of the block live in one flat array, a row of `stride`
    entries per read, and a state is the flat index of each group's set bit.
    Each colour class keeps its own contiguous arrays, read by read in group
    order: `pair[1]` holds the class's state and `pair[0]` its proposals, and
    its picks and thresholds for sweep s are row s of its columns of `picks`
    and `limits`. So a pass over a class reads and writes contiguous arrays
    only, and it compacts the accepted moves once.
    """
    n, num_groups = len(layout.order), len(layout.size)
    offset, weight = layout.offset, layout.weight
    count = len(reads)
    base = (np.arange(count) * stride)[:, None] + layout.first
    # Groups before `moving` have one member and never move.
    moving = layout.classes[0][0] if layout.classes else num_groups
    cuts = [(a, b, slice(count * (a - moving), count * (b - moving)))
            for a, b in layout.classes]

    def shift(field, ends, count):
        # The bits at `ends[:count]` were set and the rest cleared: add and
        # remove their couplings to the fields of the other groups.
        local = ends & (stride - 1)
        change = weight.take(local, axis=0)
        change[count:] *= -1.0
        targets = ends[:, None] + offset.take(local, axis=0)
        np.add.at(field, targets.ravel(), change.ravel())

    # Each read draws its G starting values, then sweeps x G proposals, then
    # sweeps x G acceptance values, and its columns are filled from them.
    span = (layout.size - 1).astype(np.float64)
    seed_base = cfg.seed & 0xFFFFFFFFFFFFFFFF
    start = np.empty((count, num_groups), dtype=np.float32)
    picks = np.empty((cfg.sweeps, count * (num_groups - moving)), dtype=np.int32)
    limits = np.empty(picks.shape, dtype=np.float32)
    draws = np.empty((cfg.sweeps, num_groups), dtype=np.float32)
    chosen = np.empty(draws.shape, dtype=np.int32)
    # Each class's columns of `picks` and `limits`, read by read.
    columns = [(picks[:, cut].reshape(cfg.sweeps, count, b - a), chosen[:, a:b],
                limits[:, cut].reshape(cfg.sweeps, count, b - a), draws[:, a:b])
               for a, b, cut in cuts]
    for i, read in enumerate(reads):
        rng = np.random.default_rng(np.random.SeedSequence((seed_base, read)))
        rng.random(dtype=np.float32, out=start[i])
        # A proposal picks one of the group's other members, uniformly:
        # the k-th of them is member k, or k + 1 from the held member on.
        rng.random(dtype=np.float32, out=draws)
        np.add(draws * span, base[i], out=chosen, casting="unsafe")
        for to, column, _, _ in columns:
            to[:, i] = column
        rng.random(dtype=np.float32, out=draws)
        for _, _, to, column in columns:
            to[:, i] = column
    # Metropolis: accept when delta <= -ln(u) / beta (always when u = 0).
    with np.errstate(divide="ignore"):
        np.log(limits, out=limits)
    limits *= (-1.0 / betas)[:, None]

    cur = (base + start * layout.size).astype(np.int32)
    field = np.zeros((count, stride))
    field[:, :n] = layout.diag
    field = field.ravel()
    shift(field, cur.ravel(), cur.size)

    passes = []
    for a, b, cut in cuts:
        pair = np.empty((2, count * (b - a)), dtype=np.intp)
        pair[1] = cur[:, a:b].ravel()
        energy = np.empty(pair.shape)
        passes.append((picks[:, cut], limits[:, cut], pair, pair[0], pair[1],
                       energy, energy[0], energy[1], np.empty(pair.shape[1], dtype=bool)))
    for s in range(cfg.sweeps):
        for pick, limit, pair, proposed, held, energy, new, old, accept in passes:
            pick = pick[s]
            np.greater_equal(pick, held, accept)
            np.add(pick, accept, proposed)
            field.take(pair, out=energy, mode="clip")
            np.subtract(new, old, new)
            np.less_equal(new, limit[s], accept)
            ends = pair.compress(accept, axis=1)
            if ends.size:
                np.putmask(held, accept, proposed)
                # The set bits first, then the cleared ones, each read by
                # read in group order.
                shift(field, ends.ravel(), ends.shape[1])
    for (a, b, _), (_, _, pair, *_) in zip(cuts, passes):
        cur[:, a:b] = pair[1].reshape(count, b - a)
    return cur - base + layout.first


def solve(model, cfg: SolverConfig, *, groups, seed_parts=()) -> SampleSet:
    """The model's lowest one-hot states found, exactly or by annealing.

    `groups` labels each variable, and every state sets exactly one
    variable per group. The model and its labels are read once, into
    `_OneHotModel`, and every path reads only that. When `_eliminate` fits
    its table cap, or else `_eliminate_lazily`'s rounds do, the state at
    the one-hot minimum is the only sample, with 0 occurrences and
    `model.energy` as its energy: no read runs, and no annealer array is
    built. The lazy rounds read the labels as integers, two steps of one
    robot being consecutive. Otherwise it anneals on the layout read from
    the pair tables, at `_BETA_RANGE` per unit of the largest |coupling
    between groups|, so scaling the model by a positive factor leaves its
    samples unchanged up to the rounding of β; a model with no such
    coupling, which elimination always fits within the real cap, anneals
    at `_BETA_RANGE` unscaled. Occurrences then count all `cfg.num_reads`
    reads, and `_energies` alone rereads the coefficients to score them.
    The reads draw from `derive_seed(cfg.seed, *seed_parts)`, or from
    `cfg.seed` as given without seed parts; an exact answer derives no
    seed. A model with no variables runs no read.
    """
    if model.num_vars == 0:
        return SampleSet([Sample((), model.constant, 0)])
    one_hot = _one_hot_model(model, groups)
    chosen = _eliminate(one_hot)
    if chosen is None:
        chosen = _eliminate_lazily(one_hot)
    if chosen is None:
        if seed_parts:
            cfg = replace(cfg, seed=derive_seed(cfg.seed, *seed_parts))
        return _anneal(model, one_hot, cfg)
    # The one-hot minimum: no read could end below it, so none runs.
    ones = _ones(one_hot, chosen)
    bits = [0] * model.num_vars
    for v in ones:
        bits[v] = 1
    return SampleSet([Sample(tuple(bits), model.energy(ones), 0)])


def _ones(one_hot: _OneHotModel, chosen: list[int]) -> list[int]:
    """The model variables that `chosen`, the member chosen in each group as
    `_eliminate` returns, sets."""
    return [m[c] for m, c in zip(one_hot.members, chosen)]


def _eliminate_lazily(one_hot: _OneHotModel) -> list[int] | None:
    """A one-hot state at the lowest one-hot energy of `one_hot`, as
    `_eliminate` returns, found by adding the collision couplings lazily so
    that its tables can stay within the cap; None when a round's own tables
    exceed it. The groups' labels are `one_hot.labels`, robot *
    (horizon + 1) + t in a window.

    Each round drops the positive couplings between groups whose labels
    differ by more than one that no earlier round fired, eliminates the
    rest, and adds back the dropped couplings its state fires. In a model
    with every cell at every step these are vertex collisions between
    robots and revisits of a robot's own cells. A planner window holds no
    revisit coupling, since its first-reach layers admit no cell but the
    goal at two steps of one robot, so there they are vertex collisions
    only. Dropping positive terms can only lower an energy, so a state that
    fires none is at the lowest one-hot energy of the whole model. Each
    round adds at least one coupling, so the rounds end. This is Conflict-Based Search's
    lazy treatment of conflicts (Sharon et al., Artif. Intell. 219, 40,
    2015), or constraint generation (Lam et al., IJCAI 2019).
    """
    labels = one_hot.labels
    sizes = [len(m) for m in one_hot.members]
    tables, edges = one_hot.tables, one_hot.edges
    # The table offsets of each pair's dropped couplings.
    lazy: dict[tuple[int, int], set[int]] = {}
    for (g, h), lo in edges.items():
        if abs(labels[g] - labels[h]) > 1:
            table = tables[lo:lo + sizes[g] * sizes[h]]
            lazy[g, h] = set((lo + np.flatnonzero(table > 0)).tolist())
    while True:
        kept = tables.copy()
        kept[list(chain.from_iterable(lazy.values()))] = 0.0
        # A pair keeps its edge while its table holds a coupling.
        chosen = _eliminate(replace(one_hot, tables=kept, edges={
            (g, h): lo for (g, h), lo in edges.items()
            if (g, h) not in lazy or kept[lo:lo + sizes[g] * sizes[h]].any()}))
        if chosen is None:
            return None
        fired = False
        for (g, h), dropped in lazy.items():
            at = edges[g, h] + chosen[g] * sizes[h] + chosen[h]
            if at in dropped:
                dropped.remove(at)
                fired = True
        if not fired:
            return chosen


def _anneal(model, one_hot: _OneHotModel, cfg: SolverConfig) -> SampleSet:
    """The annealer's sample set over all `cfg.num_reads` reads."""
    layout = _one_hot_layout(one_hot)
    scale = 1.0 / layout.peak if layout.peak > 0 else 1.0
    betas = np.geomspace(*_BETA_RANGE, cfg.sweeps) * scale
    return _collect(model, _tally(layout, _anneal_one_hot(layout, cfg, betas)))


def _tally(layout: _OneHotLayout, states: np.ndarray) -> dict[tuple[int, ...], int]:
    """How many reads ended in each assignment of the model's variables."""
    bits = np.zeros((len(states), len(layout.order)), dtype=np.int8)
    bits[np.arange(len(states))[:, None], layout.order[states]] = 1
    counts: dict[tuple[int, ...], int] = {}
    for row in bits.tolist():
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _eliminate(one_hot: _OneHotModel) -> list[int] | None:
    """A one-hot state at the lowest one-hot energy of the model that
    `one_hot` groups, as the member chosen in each group, or None when an
    elimination table would exceed `_EXACT_TABLE_CAP` entries.

    This is min-sum bucket elimination over the groups (Dechter, Artif.
    Intell. 113, 41, 1999). A one-hot state's energy is the constant, one
    diagonal entry per group and one coupling per pair of groups, so each
    group's diagonal is a table over its members and each coupled pair of
    groups a table over both. Every table entry holds the lowest sum over
    the groups already eliminated into it. Each group also keeps a member
    at its lowest sum for every assignment of the groups eliminated after
    it, the highest one among ties, as the annealer's tied samples sort
    (`_collect` ranks them by bits, and a set bit later in a group sorts
    first); read back in reverse order, they give the state. A group's
    bucket holds its diagonal, then its pair tables in (rank, rank) order,
    then the tables eliminated into it as they arrive, and ties follow the
    group ranks, so the colouring sets the tie order.
    """
    tables, edges = one_hot.tables, one_hot.edges
    sizes = [len(m) for m in one_hot.members]
    plan = _elimination_plan(sizes, edges)
    if plan is None:
        return None
    # Each group's place in the elimination order.
    step = [0] * len(sizes)
    for i, (g, _) in enumerate(plan):
        step[g] = i

    buckets: list[list] = []
    for g, lo in enumerate(accumulate(sizes[:-1], initial=0)):
        buckets.append([((g,), tables[lo:lo + sizes[g]])])
    # Each pair table, in (lower rank, higher rank) order, in the bucket of
    # the group eliminated first, with a row per member of that group.
    for g, h in sorted(edges, key=sorted):
        lo = edges[g, h]
        table = tables[lo:lo + sizes[g] * sizes[h]].reshape(sizes[g], sizes[h])
        if step[g] > step[h]:
            g, h, table = h, g, table.T
        buckets[g].append(((g, h), table))

    argmins = []
    for g, near in plan:
        scope = [g, *sorted(near, key=step.__getitem__)]
        low = None
        for part, table in buckets[g]:
            if len(part) < len(scope):
                table = table.reshape([sizes[u] if u in part else 1 for u in scope])
            low = table if low is None else low + table
        argmins.append((scope, len(low) - 1 - low[::-1].argmin(axis=0)))
        if len(scope) > 1:
            buckets[scope[1]].append((tuple(scope[1:]), low.min(axis=0)))
    chosen = [0] * len(sizes)
    for scope, argmin in reversed(argmins):
        chosen[scope[0]] = int(argmin[tuple(chosen[u] for u in scope[1:])])
    return chosen


def _elimination_plan(size: list[int], edges):
    """Each group in min-degree elimination order on the graph of `edges`,
    (group, group) pairs, with its neighbours when eliminated; None when
    eliminating a group would build a table of more than `_EXACT_TABLE_CAP`
    entries."""
    near: list[set[int]] = [set() for _ in size]
    for g, h in edges:
        near[g].add(h)
        near[h].add(g)
    queue = [(len(n), g) for g, n in enumerate(near)]
    heapq.heapify(queue)
    done = [False] * len(size)
    plan = []
    while queue:
        degree, g = heapq.heappop(queue)
        if done[g] or degree != len(near[g]):
            continue  # a stale entry
        if size[g] * math.prod(size[h] for h in near[g]) > _EXACT_TABLE_CAP:
            return None
        done[g] = True
        for h in near[g]:
            near[h] |= near[g]
            near[h].discard(h)
            near[h].discard(g)
            heapq.heappush(queue, (len(near[h]), h))
        plan.append((g, near[g]))
    return plan
