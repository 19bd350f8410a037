"""Launcher for the gutterlp benchmark.

    python3 perfbench/run.py --workload {wide-scan,optimize-deep,tiny-text,all}
                             --seed N --seconds S [--trace 0|1]

Pins BLAS/OpenMP pools to one thread before numpy is imported, puts the
checkout's `src/` first on the import path and runs bench.py. Exits 2 without
a result when the checkout holds no `src/gutterlp`.
"""
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "gutterlp" / "__init__.py").is_file():
        print(f"error: no gutterlp sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import bench
    return bench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
