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
|coupling between groups|, and the model is never rescaled: scaling Q by s
is the same as scaling β by s, so sample energies stay in the model's own
units.

`solve` first runs min-sum elimination over the groups, exact on one-hot
states (Dechter, Artif. Intell. 113, 41, 1999), and returns its state at
the lowest energy, tied or not, with 0 occurrences: no read runs. When an
elimination table would exceed `_EXACT_TABLE_CAP` entries, it drops the
collision couplings, eliminates the rest and adds back the ones the state
fires, round after round, until a state fires none: that state is the
exact one-hot minimum too (Sharon et al., Artif. Intell. 219, 40, 2015).
Only when a round's own tables exceed the cap does the annealer run, and
then it runs all `num_reads` reads. Read r draws from
`SeedSequence((seed, r))` alone, so its final state does not depend on the
block of reads it runs in.
"""

import heapq
import math
from dataclasses import dataclass, replace
from itertools import chain

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


@dataclass(frozen=True)
class SolverConfig:
    """Sampling parameters. Same seed, same samples.

    `num_reads` is the annealer's read count: it runs none when exact
    elimination, or its lazy rounds, fit the table cap (see `solve`).
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


def _terms(model) -> tuple[np.ndarray, np.ndarray]:
    """The model's (a, b) index pairs and their weights, in `coeffs` order."""
    count = len(model.coeffs)
    pairs = np.fromiter(chain.from_iterable(model.coeffs), dtype=np.intp, count=2 * count)
    return pairs.reshape(count, 2), np.fromiter(model.coeffs.values(), dtype=np.float64,
                                                count=count)


def _energies(model, on: np.ndarray, terms=None) -> np.ndarray:
    """`model.energy` of each row of a boolean matrix, bit for bit.

    Each row sums the constant, then every term in `coeffs` order, one
    addition at a time, as `model.energy` does. An inactive term adds -0.0,
    which leaves any sum unchanged. `terms` is `_terms(model)` when the
    caller has it.
    """
    pairs, weights = terms or _terms(model)
    summands = np.full((len(on), len(pairs) + 1), -0.0)
    summands[:, 0] = model.constant
    np.copyto(summands[:, 1:], weights, where=on[:, pairs[:, 0]] & on[:, pairs[:, 1]])
    return np.add.accumulate(summands, axis=1)[:, -1]


def _collect(model, counts: dict[tuple[int, ...], int], terms=None) -> SampleSet:
    energies = _energies(model, np.array(list(counts), dtype=bool), terms)
    samples = [Sample(bits, energy, hits)
               for (bits, hits), energy in zip(counts.items(), energies.tolist())]
    samples.sort(key=lambda s: (s.energy, s.bits))
    return SampleSet(samples)


@dataclass(frozen=True)
class _OneHotLayout:
    """A model regrouped for one-hot moves.

    Internal variables run group by group, so a group's members are the
    contiguous range `first[g]` .. `first[g] + size[g] - 1`; `order` maps
    them back to model variables. Groups run class by class: the groups of
    one `classes` range share no coupling, so their moves are independent.
    Each coupling between groups is one row of `pairs` (internal indices),
    with its `pair_weight`; `_neighbour_rows` lays them out for the
    annealer.
    """

    order: np.ndarray
    first: np.ndarray
    size: np.ndarray
    classes: list[tuple[int, int]]
    diag: np.ndarray
    pairs: np.ndarray
    pair_weight: np.ndarray
    peak: float


def _one_hot_layout(model, groups, terms=None) -> _OneHotLayout:
    """Group the model's variables by label and colour the groups greedily.
    `terms` is `_terms(model)` when the caller has it."""
    n = model.num_vars
    labels = np.asarray(groups)
    if labels.shape != (n,):
        raise ValueError(f"groups must label each of the {n} variables once")
    gid = np.unique(labels, return_inverse=True)[1].reshape(n)
    num_groups = int(gid.max()) + 1
    keys, values = terms or _terms(model)
    a, b = keys[:, 0], keys[:, 1]
    linear = a == b
    cross = gid[a] != gid[b]
    a, b, w = a[cross], b[cross], values[cross]
    # The peak |coupling between groups|, or the peak |coefficient| when the
    # groups share no coupling.
    peak = float(np.abs(w if len(w) else values).max(initial=0.0))

    # Greedy colouring of the groups that can move, most constrained first.
    size = np.bincount(gid, minlength=num_groups)
    touching: list[set[int]] = [set() for _ in range(num_groups)]
    for ga, gb in set(zip(gid[a].tolist(), gid[b].tolist())):
        touching[ga].add(gb)
        touching[gb].add(ga)
    colour = np.full(num_groups, -1)
    for g in sorted(range(num_groups), key=lambda g: (-len(touching[g]), g)):
        if size[g] > 1:
            taken = {colour[h] for h in touching[g]}
            colour[g] = next(c for c in range(num_groups) if c not in taken)

    # Groups in class order (the ones that never move first), then variables
    # in group order.
    rank = np.empty(num_groups, dtype=np.intp)
    rank[np.lexsort((np.arange(num_groups), colour))] = np.arange(num_groups)
    order = np.lexsort((np.arange(n), rank[gid]))
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    size = size[np.argsort(rank)]
    first = np.concatenate(([0], np.cumsum(size)[:-1]))
    ranked = np.sort(colour)
    classes = [(int(np.searchsorted(ranked, c)), int(np.searchsorted(ranked, c, "right")))
               for c in range(int(colour.max()) + 1)]

    diag = np.zeros(n)
    diag[position[keys[linear, 0]]] = values[linear]
    pairs = np.stack((position[a], position[b]), axis=1)
    return _OneHotLayout(order, first, size, classes, diag, pairs, w, peak)


def _neighbour_rows(layout: _OneHotLayout) -> tuple[np.ndarray, np.ndarray]:
    """Each variable's couplings to other groups as `offset`/`weight` rows,
    padded to one width: `offset` is the neighbour's index minus the
    variable's own, and padding points at the sink column `n` with weight
    0."""
    n, pairs, w = len(layout.order), layout.pairs, layout.pair_weight
    src = np.concatenate((pairs[:, 0], pairs[:, 1]))
    dst = np.concatenate((pairs[:, 1], pairs[:, 0]))
    both = np.concatenate((w, w))
    by_src = np.argsort(src, kind="stable")
    src, dst, both = src[by_src], dst[by_src], both[by_src]
    degree = np.bincount(src, minlength=n)
    slot = np.arange(len(src)) - np.repeat(np.cumsum(degree) - degree, degree)
    offset = np.repeat((n - np.arange(n))[:, None], int(degree.max()), axis=1)
    weight = np.zeros(offset.shape)
    offset[src, slot] = dst - src
    weight[src, slot] = both
    return offset, weight


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
    rows = _neighbour_rows(layout)
    states = np.empty((len(reads), num_groups), dtype=np.intp)
    for lo in range(0, len(reads), block):
        part = reads[lo:lo + block]
        states[lo:lo + len(part)] = _anneal_block(layout, rows, cfg, betas, part, stride)
    return states


def _anneal_block(layout: _OneHotLayout, rows: tuple[np.ndarray, np.ndarray],
                  cfg: SolverConfig, betas: np.ndarray, reads: range, stride: int
                  ) -> np.ndarray:
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
    offset, weight = rows
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


def solve(model, cfg: SolverConfig, *, groups=None) -> SampleSet:
    """The model's lowest one-hot states found, exactly or by annealing.

    `groups` labels each variable, and every state sets exactly one
    variable per group. When `_eliminate` fits its table cap, or else
    `_eliminate_lazily`'s rounds do, the state at the one-hot minimum is
    the only sample, with 0 occurrences: no read runs. The lazy rounds read
    the labels as integers, two steps of one robot being consecutive.
    Otherwise it anneals, reading `_BETA_RANGE` per unit of the
    largest |coupling between groups| (the peak |coefficient| when groups
    share none), so scaling the model by a positive factor leaves its
    samples unchanged up to the rounding of β. Its occurrences then count
    all `cfg.num_reads` reads. A model with no variables runs no read.
    """
    if groups is None:
        raise ValueError("solve needs each variable's group")
    if model.num_vars == 0:
        return SampleSet([Sample((), model.constant, 0)])
    terms = _terms(model)
    layout = _one_hot_layout(model, groups, terms)
    state = _eliminate(layout)
    if state is None:
        state = _eliminate_lazily(layout, np.asarray(groups)[layout.order])
    if state is not None:
        # The one-hot minimum: no read could end below it, so none runs.
        return _collect(model, dict.fromkeys(_tally(layout, state[None]), 0), terms)
    return _anneal(model, layout, cfg, terms)


def _eliminate_lazily(layout: _OneHotLayout, labels: np.ndarray) -> np.ndarray | None:
    """A one-hot state at the lowest one-hot energy of `layout`, as
    `_eliminate` returns, found by adding the collision couplings lazily so
    that its tables can stay within the cap; None when a round's own tables
    exceed it. `labels` holds each internal variable's group label, robot *
    (horizon + 1) + t in a window.

    Each round drops the positive couplings between groups whose labels
    differ by more than one (vertex collisions between robots and revisits
    of a robot's own cells) that no earlier round fired, eliminates the
    rest, and adds back the dropped couplings its state fires. Dropping
    positive terms can only lower an energy, so a state that fires none is
    at the lowest one-hot energy of the whole layout. Each round adds at
    least one coupling, so the rounds end. This is Conflict-Based Search's
    lazy treatment of conflicts (Sharon et al., Artif. Intell. 219, 40,
    2015), or constraint generation (Lam et al., IJCAI 2019).
    """
    a, b = layout.pairs[:, 0], layout.pairs[:, 1]
    lazy = (layout.pair_weight > 0) & (np.abs(labels[a] - labels[b]) > 1)
    while True:
        keep = ~lazy
        state = _eliminate(replace(layout, pairs=layout.pairs[keep],
                                   pair_weight=layout.pair_weight[keep]))
        if state is None:
            return None
        on = np.zeros(len(labels), dtype=bool)
        on[state] = True
        fired = lazy & on[a] & on[b]
        if not fired.any():
            return state
        lazy &= ~fired


def _anneal(model, layout: _OneHotLayout, cfg: SolverConfig, terms=None) -> SampleSet:
    """The annealer's sample set over all `cfg.num_reads` reads. `terms` is
    `_terms(model)` when the caller has it."""
    scale = 1.0 / layout.peak if layout.peak > 0 else 1.0
    betas = np.geomspace(*_BETA_RANGE, cfg.sweeps) * scale
    return _collect(model, _tally(layout, _anneal_one_hot(layout, cfg, betas)), terms)


def _tally(layout: _OneHotLayout, states: np.ndarray) -> dict[tuple[int, ...], int]:
    """How many reads ended in each assignment of the model's variables."""
    bits = np.zeros((len(states), len(layout.order)), dtype=np.int8)
    bits[np.arange(len(states))[:, None], layout.order[states]] = 1
    counts: dict[tuple[int, ...], int] = {}
    for row in bits.tolist():
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _eliminate(layout: _OneHotLayout) -> np.ndarray | None:
    """A one-hot state at the lowest one-hot energy of the model that
    `layout` regroups (one chosen internal variable per group, as the
    annealer's states hold), or None when an elimination table would
    exceed `_EXACT_TABLE_CAP` entries.

    This is min-sum bucket elimination over the groups (Dechter, Artif.
    Intell. 113, 41, 1999). A one-hot state's energy is the constant, one
    diagonal entry per group and one coupling per pair of groups, so each
    group's diagonal is a table over its members and each coupled pair of
    groups a table over both. Every table entry holds the lowest sum over
    the groups already eliminated into it. Each group also keeps a member
    at its lowest sum for every assignment of the groups eliminated after
    it, the highest-indexed one among ties, as the annealer's tied samples
    sort (`_collect` ranks them by bits, and a set bit later in a group
    sorts first); read back in reverse order, they give the state.
    """
    size, first = layout.size, layout.first
    num_groups = len(size)
    group = np.repeat(np.arange(num_groups), size)
    member = np.arange(len(group)) - first[group]
    a, b = layout.pairs[:, 0], layout.pairs[:, 1]
    ga, gb = group[a], group[b]
    edges, edge_of = np.unique(np.minimum(ga, gb) * num_groups + np.maximum(ga, gb),
                               return_inverse=True)
    sizes = size.tolist()
    plan = _elimination_plan(sizes, (edges // num_groups).tolist(),
                             (edges % num_groups).tolist())
    if plan is None:
        return None
    rank = np.empty(num_groups, dtype=np.intp)
    rank[[g for g, _ in plan]] = np.arange(num_groups)

    # Every pair table in one flat array, rows for the group eliminated first.
    head = np.where(rank[ga] < rank[gb], a, b)
    tail = a + b - head
    heads = np.empty(len(edges), dtype=np.intp)
    tails = np.empty(len(edges), dtype=np.intp)
    heads[edge_of], tails[edge_of] = group[head], group[tail]
    spans = size[heads] * size[tails]
    starts = np.cumsum(spans) - spans
    flat = np.bincount(starts[edge_of] + member[head] * size[group[tail]] + member[tail],
                       layout.pair_weight, int(spans.sum()))
    buckets: list[list] = [[((g,), layout.diag[lo:lo + sizes[g]])]
                           for g, lo in enumerate(first.tolist())]
    for g, h, lo, span in zip(heads.tolist(), tails.tolist(), starts.tolist(), spans.tolist()):
        buckets[g].append(((g, h), flat[lo:lo + span].reshape(sizes[g], sizes[h])))

    rank = rank.tolist()
    argmins = []
    for g, near in plan:
        scope = [g, *sorted(near, key=rank.__getitem__)]
        low = None
        for part, table in buckets[g]:
            if len(part) < len(scope):
                table = table.reshape([sizes[u] if u in part else 1 for u in scope])
            low = table if low is None else low + table
        argmins.append((scope, len(low) - 1 - low[::-1].argmin(axis=0)))
        if len(scope) > 1:
            buckets[scope[1]].append((tuple(scope[1:]), low.min(axis=0)))
    chosen = np.empty(num_groups, dtype=np.intp)
    for scope, argmin in reversed(argmins):
        chosen[scope[0]] = argmin[tuple(chosen[scope[1:]])]
    return first + chosen


def _elimination_plan(size: list[int], heads: list[int], tails: list[int]):
    """Each group in min-degree elimination order on the group graph, with
    its neighbours when eliminated; None when eliminating a group would
    build a table of more than `_EXACT_TABLE_CAP` entries."""
    near: list[set[int]] = [set() for _ in size]
    for g, h in zip(heads, tails):
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
