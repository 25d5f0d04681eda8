"""QUBO solving backends: exact enumeration and one-hot simulated annealing.

Both backends consume a frozen model over dense free variables and return a
`SampleSet`. The exhaustive backend enumerates every assignment and is the
ground-truth oracle for small instances. The annealer is the production
sampler; a future hardware or circuit backend would slot in behind the same
interface.

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

`solve` reads the annealing β range per unit of the largest |coupling
between groups| and never rescales the model: scaling Q by s is the same as
scaling β by s, so sample energies stay in the model's own units.

`num_reads` caps the annealer's reads. It first anneals a probe of
`PROBE_READS` reads and stops there when at least `PROBE_AGREE` of them end
at the probe's lowest energy. If a share p of reads ends in a state,
ln(0.01) / ln(1 - p) reads find it with 99 % probability (Rønnow et al.,
Science 345, 420, 2014): 7 reads for p = 1/2, fewer than the probe holds.
A probe that disagrees still stops when its best state is the certified
unique minimum: min-sum elimination over the groups, exact on one-hot
states, finds their lowest and second-lowest energies, and the best state
is within the tie tolerance of the lowest while the second is not. Every
other one-hot state then lies above the best, so a full run would return
the same best state. Otherwise, or when an elimination table would exceed
`_EXACT_TABLE_CAP` entries, the remaining reads run too. Read r draws from
`SeedSequence((seed, r))` alone, so the reads returned are always the first
reads of a run of `num_reads`.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

BACKEND_EXHAUSTIVE = "exhaustive"
BACKEND_ANNEALER = "annealer"

EXHAUSTIVE_VAR_CAP = 24
_ENUM_CHUNK = 1 << 16
# 8-byte values held per block of reads while annealing: 64 MiB, enough for
# the 384 reads that follow multi10_2's probe (20,596 values each) to share
# one block.
_RANDOM_BUDGET = 1 << 23
# The annealer's probe: its size, and how many of its reads must end at its
# lowest energy for the remaining reads to be skipped.
PROBE_READS = 16
PROBE_AGREE = 8
# Entries in the largest table exact elimination builds before it gives up.
_EXACT_TABLE_CAP = 1 << 16


class ModelTooLargeError(ValueError):
    """The model has more variables than the exhaustive backend enumerates."""


@dataclass(frozen=True)
class SolverConfig:
    """Backend choice and sampling parameters. Same seed, same samples.

    `num_reads` is the annealer's cap on reads: it stops after its probe
    when the probe agrees on its best energy, or when its best state is the
    certified unique one-hot minimum (see `solve`).
    `beta_range` is the annealer's first and last inverse temperature per
    unit of the model's largest |coupling between groups| (see `solve`).
    """

    backend: str = BACKEND_ANNEALER
    num_reads: int = 100
    sweeps: int = 1000
    beta_range: tuple[float, float] = (0.4, 40.0)
    seed: int = 0

    def __post_init__(self):
        if self.backend not in (BACKEND_EXHAUSTIVE, BACKEND_ANNEALER):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        lo, hi = self.beta_range
        if not 0 < lo < hi < math.inf:
            raise ValueError("beta_range must satisfy 0 < initial < final < inf")


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
    pairs = np.array(list(model.coeffs), dtype=np.intp).reshape(-1, 2)
    return pairs, np.fromiter(model.coeffs.values(), dtype=np.float64, count=len(pairs))


def _energies(model, on: np.ndarray) -> np.ndarray:
    """`model.energy` of each row of a boolean matrix, bit for bit.

    Each row sums the constant, then every term in `coeffs` order, one
    addition at a time, as `model.energy` does. An inactive term adds -0.0,
    which leaves any sum unchanged.
    """
    pairs, weights = _terms(model)
    terms = np.full((len(on), len(pairs) + 1), -0.0)
    terms[:, 0] = model.constant
    np.copyto(terms[:, 1:], weights, where=on[:, pairs[:, 0]] & on[:, pairs[:, 1]])
    return np.add.accumulate(terms, axis=1)[:, -1]


def _collect(model, counts: dict[tuple[int, ...], int]) -> SampleSet:
    energies = _energies(model, np.array(list(counts), dtype=bool))
    samples = [Sample(bits, energy, hits)
               for (bits, hits), energy in zip(counts.items(), energies.tolist())]
    samples.sort(key=lambda s: (s.energy, s.bits))
    return SampleSet(samples)


def _dense_arrays(model):
    pairs, weights = _terms(model)
    a, b = pairs[:, 0], pairs[:, 1]
    linear = a == b
    diag = np.zeros(model.num_vars)
    diag[a[linear]] = weights[linear]
    upper = np.zeros((model.num_vars, model.num_vars))
    upper[a[~linear], b[~linear]] = weights[~linear]
    return diag, upper


def _cut(best: float) -> float:
    """The highest energy that counts as tied with `best`."""
    return best + 1e-9 * max(1.0, abs(best))


def solve_exhaustive(model) -> SampleSet:
    """Global minimum by complete enumeration; every tied optimum is kept."""
    n = model.num_vars
    if n > EXHAUSTIVE_VAR_CAP:
        raise ModelTooLargeError(
            f"exhaustive backend handles at most {EXHAUSTIVE_VAR_CAP} variables, got {n}"
        )
    diag, upper = _dense_arrays(model)
    shifts = np.arange(n, dtype=np.uint32)
    total = 1 << n

    def chunk_energies(lo, hi):
        codes = np.arange(lo, hi, dtype=np.uint32)
        bits = ((codes[:, None] >> shifts) & 1).astype(np.float64)
        return bits @ diag + np.einsum("ij,ij->i", bits @ upper, bits)

    # One pass: each chunk keeps its codes near the running minimum. That
    # cut only falls, so every code near the final minimum is kept.
    best = math.inf
    kept, screened = [], []
    for lo in range(0, total, _ENUM_CHUNK):
        e = chunk_energies(lo, min(lo + _ENUM_CHUNK, total))
        best = min(best, float(e.min()))
        near = np.nonzero(e <= _cut(best))[0]
        kept.append(lo + near)
        screened.append(e[near])
    codes = np.concatenate(kept)[np.concatenate(screened) <= _cut(best)]
    # Score the near-minimal codes exactly, so that ties are exact ties.
    on = ((codes[:, None] >> shifts) & 1).astype(bool)
    exact = _energies(model, on)
    ties = on[exact == exact.min()].astype(int)
    return _collect(model, {tuple(bits): 1 for bits in ties.tolist()})


@dataclass(frozen=True)
class _OneHotLayout:
    """A model regrouped for one-hot moves.

    Internal variables run group by group, so a group's members are the
    contiguous range `first[g]` .. `first[g] + size[g] - 1`; `order` maps
    them back to model variables. Groups run class by class: the groups of
    one `classes` range share no coupling, so their moves are independent.
    Each coupling between groups is one row of `pairs` (internal indices),
    with its `pair_weight`. Each variable's couplings to other groups sit in
    `offset`/`weight` rows, padded to one width: `offset` is the neighbour's
    index minus the variable's own, and padding points at the sink column
    `n` with weight 0.
    """

    order: np.ndarray
    first: np.ndarray
    size: np.ndarray
    classes: list[tuple[int, int]]
    diag: np.ndarray
    pairs: np.ndarray
    pair_weight: np.ndarray
    offset: np.ndarray
    weight: np.ndarray
    peak: float


def _one_hot_layout(model, groups) -> _OneHotLayout:
    """Group the model's variables by label and colour the groups greedily."""
    n = model.num_vars
    labels = np.asarray(groups)
    if labels.shape != (n,):
        raise ValueError(f"groups must label each of the {n} variables once")
    gid = np.unique(labels, return_inverse=True)[1].reshape(n)
    num_groups = int(gid.max()) + 1
    keys, values = _terms(model)
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
    return _OneHotLayout(order, first, size, classes, diag, pairs, w, offset, weight, peak)


def _anneal_one_hot(layout: _OneHotLayout, cfg: SolverConfig, scale: float,
                    reads: range) -> np.ndarray:
    """The final state of each read in `reads`: one chosen internal variable
    per group.

    Reads run in blocks that fit `_RANDOM_BUDGET`, each in its own call so
    that its arrays are freed before the next block allocates. A read's
    draws come from `SeedSequence((seed, read))` alone, so its final state
    does not depend on its block or on the other reads run.
    """
    n, num_groups = len(layout.order), len(layout.size)
    stride = 1 << n.bit_length()  # > n, so column n is the padding sink
    # Every per-read array counts against the budget, in 8-byte units.
    per_read = num_groups * (cfg.sweeps + 2) + stride
    block = max(1, min(len(reads), _RANDOM_BUDGET // per_read))
    betas = np.geomspace(*cfg.beta_range, cfg.sweeps) * scale
    states = np.empty((len(reads), num_groups), dtype=np.intp)
    for lo in range(0, len(reads), block):
        part = reads[lo:lo + block]
        states[lo:lo + len(part)] = _anneal_block(layout, cfg, betas, part, stride)
    return states


def _items(columns: np.ndarray, width: int) -> np.ndarray:
    """A view of 4-byte values in which each run of `width` values along a
    row is one opaque item; numpy copies such an item much faster than the
    values one by one."""
    return columns.view(f"V{4 * width}")


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
        change = layout.weight.take(local, axis=0)
        change[count:] *= -1.0
        targets = ends[:, None] + layout.offset.take(local, axis=0)
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
    columns = [(_items(picks[:, cut], b - a), _items(chosen[:, a:b], b - a)[:, 0],
                _items(limits[:, cut], b - a), _items(draws[:, a:b], b - a)[:, 0])
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
    """Dispatch to the configured backend.

    The annealer needs `groups`, one label per variable. It samples states
    with exactly one set bit per group, and reads `cfg.beta_range` per unit
    of the largest |coupling between groups| (the peak |coefficient| when
    groups share none), so scaling the model by a positive factor leaves
    its samples unchanged up to the rounding of β. Its occurrences count
    the reads run: the first `PROBE_READS` when at least `PROBE_AGREE` of
    them tie with their lowest energy (within `_cut`, the exhaustive
    backend's tolerance) or when `_two_lowest` certifies their best state
    as the only one-hot state tied with the minimum, and all
    `cfg.num_reads` otherwise.
    """
    if cfg.backend == BACKEND_EXHAUSTIVE:
        return solve_exhaustive(model)
    if groups is None:
        raise ValueError("the annealer needs each variable's group")
    n = model.num_vars
    if n == 0:
        return SampleSet([Sample((), model.constant, cfg.num_reads)])
    layout = _one_hot_layout(model, groups)
    scale = 1.0 / layout.peak if layout.peak > 0 else 1.0
    probe = min(cfg.num_reads, PROBE_READS)
    states = _anneal_one_hot(layout, cfg, scale, range(probe))
    result = _collect(model, _tally(layout, states))
    if probe < cfg.num_reads and not _agrees(result) and not _certified(model, layout, result):
        rest = _anneal_one_hot(layout, cfg, scale, range(probe, cfg.num_reads))
        result = _collect(model, _tally(layout, np.concatenate((states, rest))))
    return result


def _tally(layout: _OneHotLayout, states: np.ndarray) -> dict[tuple[int, ...], int]:
    """How many reads ended in each assignment of the model's variables."""
    bits = np.zeros((len(states), len(layout.order)), dtype=np.int8)
    bits[np.arange(len(states))[:, None], layout.order[states]] = 1
    counts: dict[tuple[int, ...], int] = {}
    for row in bits.tolist():
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _agrees(result: SampleSet) -> bool:
    """Whether at least `PROBE_AGREE` reads tie with the lowest energy."""
    cut = _cut(result.best.energy)
    return sum(s.occurrences for s in result if s.energy <= cut) >= PROBE_AGREE


def _certified(model, layout: _OneHotLayout, result: SampleSet) -> bool:
    """Whether exact elimination proves the best sample the model's only
    one-hot state within `_cut` of its minimum."""
    bounds = _two_lowest(model, layout)
    return bounds is not None and result.best.energy <= _cut(bounds[0]) < bounds[1]


def _two_lowest(model, layout: _OneHotLayout) -> tuple[float, float] | None:
    """The lowest and second-lowest energy over distinct one-hot states, or
    None when an elimination table would exceed `_EXACT_TABLE_CAP` entries.

    This is min-sum bucket elimination over the groups (Dechter, Artif.
    Intell. 113, 41, 1999). A one-hot state's energy is the constant, one
    diagonal entry per group and one coupling per pair of groups, so each
    group's diagonal is a table over its members and each coupled pair of
    groups a table over both. Every table entry holds the lowest sum over
    the groups already eliminated into it and the rise to the second-lowest
    sum over their distinct assignments (inf when there is only one).
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
    buckets: list[list] = [[((g,), layout.diag[lo:lo + sizes[g]], None)]
                           for g, lo in enumerate(first.tolist())]
    for g, h, lo, span in zip(heads.tolist(), tails.tolist(), starts.tolist(), spans.tolist()):
        buckets[g].append(((g, h), flat[lo:lo + span].reshape(sizes[g], sizes[h]), None))

    rank = rank.tolist()
    lowest, gap = model.constant, math.inf
    for g, near in plan:
        scope = [g, *sorted(near, key=rank.__getitem__)]
        low = rise = None
        for part, part_low, part_rise in buckets[g]:
            if len(part) < len(scope):
                shape = [sizes[u] if u in part else 1 for u in scope]
                part_low = part_low.reshape(shape)
                part_rise = None if part_rise is None else part_rise.reshape(shape)
            low = part_low if low is None else low + part_low
            if part_rise is not None:
                rise = part_rise if rise is None else np.minimum(rise, part_rise)
        # Each member of g offers its lowest sum and its second-lowest; the
        # new table keeps the two lowest of them.
        options = low if rise is None else np.concatenate((low, low + rise))
        if len(options) > 1:
            two = np.partition(options, 1, axis=0)
            low, rise = two[0], two[1] - two[0]
        else:
            low, rise = options[0], np.full(options.shape[1:], math.inf)
        if len(scope) > 1:
            buckets[scope[1]].append((tuple(scope[1:]), low, rise))
        else:
            lowest, gap = lowest + float(low), min(gap, float(rise))
    return lowest, lowest + gap


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
