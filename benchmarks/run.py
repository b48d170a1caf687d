"""Benchmark entry point; bench.py holds what a run does, NOTES.md why.

From the repository root:

    python3 benchmarks/run.py --workload {default,scale,analysis} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

The BLAS thread variables are removed here, before numpy is first imported
by this process or any child, so that every process runs with the threading
users get by default.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "efcilab" / "cli.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'efcilab'}")
    cleared = {name: os.environ.pop(name) for name in THREAD_VARS if name in os.environ}
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(cleared))
