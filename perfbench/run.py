"""vidmood benchmark.

    python3 perfbench/run.py --workload {train-c07,infer-paper,prep-paper}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced round. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _limit_threads() -> None:
    """BLAS and OpenMP pools get no more threads than this process may use.
    Must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vidmood" / "__init__.py").is_file():
        print(f"error: vidmood sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    _limit_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    from vmbench.harness import WORKLOADS, run
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
