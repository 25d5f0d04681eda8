"""QUBO solving backends: exact enumeration and simulated annealing.

Both backends consume a frozen model over dense free variables and return a
`SampleSet`. The exhaustive backend is the ground-truth oracle for small
instances; the annealer is the production sampler. A future hardware or
circuit backend would slot in behind the same interface.

`solve` reads the annealing β range per unit of the model's peak |coefficient|
and never rescales the model: scaling Q by s is the same as scaling β by s, so
sample energies stay in the model's own units.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

BACKEND_EXHAUSTIVE = "exhaustive"
BACKEND_ANNEALER = "annealer"

EXHAUSTIVE_VAR_CAP = 24
_ENUM_CHUNK = 1 << 16
_RANDOM_BUDGET = 8_000_000  # floats held at once while annealing
# Free-variable count below which `solve` anneals twice as cold per unit of
# the peak coefficient.
SMALL_MODEL_VARS = 80


class ModelTooLargeError(ValueError):
    """The model has more variables than the exhaustive backend enumerates."""


@dataclass(frozen=True)
class SolverConfig:
    """Backend choice and sampling parameters. Same seed, same samples.

    Through `solve`, `beta_range` is read per unit of the model's peak
    |coefficient|; `solve_annealing` takes it as absolute inverse temperatures.
    """

    backend: str = BACKEND_ANNEALER
    num_reads: int = 100
    sweeps: int = 1000
    beta_range: tuple[float, float] = (0.1, 10.0)
    seed: int = 0

    def __post_init__(self):
        if self.backend not in (BACKEND_EXHAUSTIVE, BACKEND_ANNEALER):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        lo, hi = self.beta_range
        if not (0 < lo < hi):
            raise ValueError("beta_range must satisfy 0 < initial < final")


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


def _collect(model, counts: dict[tuple[int, ...], int]) -> SampleSet:
    samples = [
        Sample(bits, model.energy({i for i, b in enumerate(bits) if b}), hits)
        for bits, hits in counts.items()
    ]
    samples.sort(key=lambda s: (s.energy, s.bits))
    return SampleSet(samples)


def _dense_arrays(model):
    n = model.num_vars
    diag = np.zeros(n)
    upper = np.zeros((n, n))
    for (a, b), w in model.coeffs.items():
        if a == b:
            diag[a] = w
        else:
            upper[a, b] = w
    return diag, upper


def solve_exhaustive(model) -> SampleSet:
    """Global minimum by complete enumeration; every tied optimum is kept."""
    n = model.num_vars
    if n > EXHAUSTIVE_VAR_CAP:
        raise ModelTooLargeError(
            f"exhaustive backend handles at most {EXHAUSTIVE_VAR_CAP} variables, got {n}"
        )
    if n == 0:
        return SampleSet([Sample((), model.constant, 1)])
    diag, upper = _dense_arrays(model)
    shifts = np.arange(n, dtype=np.uint32)
    total = 1 << n

    def chunk_energies(lo, hi):
        codes = np.arange(lo, hi, dtype=np.uint32)
        bits = ((codes[:, None] >> shifts) & 1).astype(np.float64)
        return bits @ diag + np.einsum("ij,ij->i", bits @ upper, bits)

    best = math.inf
    for lo in range(0, total, _ENUM_CHUNK):
        e = chunk_energies(lo, min(lo + _ENUM_CHUNK, total))
        best = min(best, float(e.min()))

    # Re-evaluate near-minimal candidates exactly so ties are exact ties.
    tolerance = 1e-9 * max(1.0, abs(best))
    counts: dict[tuple[int, ...], int] = {}
    exact_best = math.inf
    for lo in range(0, total, _ENUM_CHUNK):
        e = chunk_energies(lo, min(lo + _ENUM_CHUNK, total))
        for offset in np.nonzero(e <= best + tolerance)[0]:
            code = lo + int(offset)
            bits = tuple((code >> k) & 1 for k in range(n))
            exact = model.energy({i for i, b in enumerate(bits) if b})
            if exact < exact_best:
                exact_best = exact
                counts = {bits: 1}
            elif exact == exact_best:
                counts[bits] = 1
    return _collect(model, counts)


def _geometric_betas(beta_range: tuple[float, float], sweeps: int) -> np.ndarray:
    lo, hi = beta_range
    if sweeps == 1:
        return np.array([lo])
    return np.geomspace(lo, hi, sweeps)


def metropolis_accept(delta, beta: float, u):
    """Acceptance rule: always take non-increasing flips, otherwise exp(-beta*dE)."""
    return u < np.exp(-beta * np.maximum(delta, 0.0))


def _color_classes(model) -> list[np.ndarray]:
    """Greedy coloring of the interaction graph.

    Variables in one class share no coefficient, so flipping them together
    within a sweep equals flipping them one by one: each flip cost depends
    only on variables outside the class.
    """
    n = model.num_vars
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for (a, b) in model.coeffs:
        if a != b:
            neighbors[a].add(b)
            neighbors[b].add(a)
    order = sorted(range(n), key=lambda v: (-len(neighbors[v]), v))
    color = [-1] * n
    for v in order:
        taken = {color[u] for u in neighbors[v] if color[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        classes.setdefault(c, []).append(v)
    return [np.array(classes[c], dtype=np.intp) for c in sorted(classes)]


def solve_annealing(model, cfg: SolverConfig) -> SampleSet:
    """Restart-based single-bit-flip Metropolis sampling.

    Each read starts from its own random assignment and performs `sweeps`
    passes over all variables under a geometric inverse-temperature schedule.
    Flip costs come incrementally from incident coefficients; within a sweep,
    variables update class by class over a fixed coloring of the interaction
    graph, which vectorizes cleanly without changing single-flip semantics.
    Every read derives its randomness from (seed, read index), so results are
    reproducible regardless of batching.
    """
    n = model.num_vars
    if n == 0:
        return SampleSet([Sample((), model.constant, cfg.num_reads)])
    diag, upper = _dense_arrays(model)
    coupling = upper + upper.T  # symmetric off-diagonal weights
    classes = _color_classes(model)
    betas = _geometric_betas(cfg.beta_range, cfg.sweeps)

    per_read = cfg.sweeps * n + n
    block = max(1, min(cfg.num_reads, _RANDOM_BUDGET // per_read))
    counts: dict[tuple[int, ...], int] = {}
    seed_base = cfg.seed & 0xFFFFFFFFFFFFFFFF

    for first in range(0, cfg.num_reads, block):
        reads = range(first, min(first + block, cfg.num_reads))
        inits = []
        accepts = []
        for r in reads:
            rng = np.random.default_rng(np.random.SeedSequence((seed_base, r)))
            inits.append(rng.random(n))
            accepts.append(rng.random((cfg.sweeps, n)))
        x = (np.stack(inits) < 0.5).astype(np.float64)
        u = np.stack(accepts)
        for s in range(cfg.sweeps):
            beta = betas[s]
            for cls in classes:
                field = diag[cls] + x @ coupling[:, cls]
                delta = (1.0 - 2.0 * x[:, cls]) * field
                flip = metropolis_accept(delta, beta, u[:, s, cls])
                x[:, cls] = np.where(flip, 1.0 - x[:, cls], x[:, cls])
        for row in x.astype(np.int64):
            bits = tuple(int(b) for b in row)
            counts[bits] = counts.get(bits, 0) + 1
    return _collect(model, counts)


def solve(model, cfg: SolverConfig) -> SampleSet:
    """Dispatch to the configured backend.

    The annealer reads `cfg.beta_range` per unit of the peak |coefficient|,
    doubled under `SMALL_MODEL_VARS` free variables, so scaling the model by
    a positive factor leaves its samples unchanged up to the rounding of β.
    """
    if cfg.backend == BACKEND_EXHAUSTIVE:
        return solve_exhaustive(model)
    peak = model.max_abs_coefficient()
    if peak > 0:
        scale = (2.0 if model.num_vars < SMALL_MODEL_VARS else 1.0) / peak
        lo, hi = cfg.beta_range
        cfg = replace(cfg, beta_range=(lo * scale, hi * scale))
    return solve_annealing(model, cfg)
