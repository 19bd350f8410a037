"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <workload>  < pickled instance pool

Times `import gutterlp` (with `gutterlp.cli`) and then the building of the
workload's inputs from the pool's arrays, then times the calibration kernel
(see calibrate.py) a few times, and prints all as one JSON line. Reading the
pool is not timed.
"""
import json
import pickle
import sys
import time

KERNEL_RUNS = 5


def main() -> None:
    src, name = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import gutterlp  # noqa: F401
    import gutterlp.cli  # noqa: F401
    import_s = time.perf_counter() - start

    import workloads
    pool = pickle.load(sys.stdin.buffer)
    start = time.perf_counter()
    workloads.build_inputs(workloads.WORKLOADS[name], pool)
    build_s = time.perf_counter() - start

    import calibrate
    kernel_s = [calibrate.kernel_seconds() for _ in range(KERNEL_RUNS)]
    print(json.dumps({"import_s": import_s, "build_s": build_s, "kernel_s": kernel_s}))


if __name__ == "__main__":
    main()
