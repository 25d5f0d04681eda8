"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload {shipped,corridor,city} --seed N \
        --seconds S --trace {0,1}

It plans the workload's instances through `quboplan.plan_multi` from the
sources under `src/`, checks every plan, and prints one JSON result as its
last line. It exits 2 without a result when the sources are missing.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: faster than two for the annealer's small products on a
# 2-core machine, and steadier when other processes share it. Must be set
# before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "quboplan" / "__init__.py").is_file():
        print(f"perfbench: no quboplan sources under {src}", file=sys.stderr)
        return 2
    if not (ROOT / "scenarios").is_dir():
        print(f"perfbench: no scenarios directory under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import quboplan
    if Path(quboplan.__file__).resolve().parent != src / "quboplan":
        print(f"perfbench: imported quboplan from {quboplan.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from perfbench.harness import main as run
    return run(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
