"""Set up one workload's inputs in a fresh interpreter and print the seconds taken.

Usage: python3 perfbench/setup_once.py WORKLOAD SEED SIZE OUT_DIR

The time runs from the first statement (interpreter start-up excluded) to
the last file written, so it covers importing numpy and adaptkan, generating
inputs and configs, and writing them.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, size, out = sys.argv[1:]
    workloads.setup(workload, int(seed), size, Path(out))
    print(repr(time.perf_counter() - START))
