"""Machine-speed calibration for the timed metrics.

The benchmark runs on a shared machine whose speed swings by a fifth or
more within seconds, as other work comes and goes on the same cores. Wall
times alone then measure the machine as much as the program. So a fixed
kernel, which shares no code with `quboplan`, is timed between timed
stretches (one plan, one set-up sample), and each stretch's wall time is
scaled by how much slower or faster the kernel ran than on the reference
machine: `wall * reference / mean(kernel before, kernel after)`. The
result is the stretch's time at the reference machine's speed.

The kernel is made of parts like the program's kinds of work, and each
workload uses the parts its own work resembles (see `harness.WORKLOADS`):

- `interpreted`: dict and set updates, as in variable fixing;
- `sweeps`: small per-class numpy updates over a coupling matrix, as in
  the annealer's sweep;
- `streamed`: a walk over an array larger than a core's L2 cache, as the
  annealer walks its random-number budget.

When other work slows the machine, cache-bound code slows more than code
that waits on memory, so a kernel of the first kind alone overstates the
slowdown of the annealer, and one with `streamed` overstates the speed-up
of interpreted code.
"""

import functools
import time

import numpy as np

# Median time of each part on the reference machine (see README, "Timing
# at the reference speed"). They set the scale of the reported times and
# weigh the parts of a kernel, nothing else.
REFERENCE_S = {"interpreted": 0.0100, "sweeps": 0.0080, "streamed": 0.0073}

_RNG = np.random.default_rng(0)
_N, _READS, _SWEEPS = 60, 30, 35
_COUPLING = _RNG.random((_N, _N))
_COUPLING += _COUPLING.T
_DIAG = _RNG.random(_N)
_UNIFORM = _RNG.random((_READS, _SWEEPS, _N))
_CLASSES = [np.arange(k, _N, 6) for k in range(6)]


def _interpreted() -> None:
    counts: dict[tuple[int, int], int] = {}
    for i in range(30_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    cells = set()
    for a, b in counts:
        cells.add(a * 1000 + b)


def _sweeps() -> None:
    x = (_UNIFORM[:, 0, :] < 0.5).astype(np.float64)
    for s in range(_SWEEPS):
        for cls in _CLASSES:
            field = _DIAG[cls] + x @ _COUPLING[:, cls]
            delta = (1.0 - 2.0 * x[:, cls]) * field
            flip = _UNIFORM[:, s, cls] < np.exp(-0.5 * np.maximum(delta, 0.0))
            x[:, cls] = np.where(flip, 1.0 - x[:, cls], x[:, cls])


@functools.cache
def _stream_buffer() -> np.ndarray:
    """16 MB, allocated only by workloads whose kernel streams."""
    return np.random.default_rng(1).random(2 * 1024 * 1024)


def _streamed() -> None:
    buffer = _stream_buffer()
    for _ in range(4):
        # One float per 64-byte line at each offset: every line, once a round.
        for offset in range(0, 64, 8):
            buffer[offset::64].sum()


PARTS = {"interpreted": _interpreted, "sweeps": _sweeps, "streamed": _streamed}


def kernel_seconds(parts: tuple[str, ...]) -> float:
    """Wall time of one run of the kernel made of `parts`."""
    start = time.perf_counter()
    for part in parts:
        PARTS[part]()
    return time.perf_counter() - start


class Pacer:
    """Times the kernel once between consecutive stretches, so each kernel
    run serves the stretch before it and the stretch after it."""

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.reference = sum(REFERENCE_S[part] for part in parts)
        self.last = kernel_seconds(parts)

    def run(self, call):
        """Run `call()`; return its result and the factor that turns wall
        seconds measured during it into seconds at the reference speed."""
        before = self.last
        out = call()
        self.last = kernel_seconds(self.parts)
        return out, self.reference / ((before + self.last) / 2)
