"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

The clock starts before NumPy, SciPy and the package are imported, so the
figure includes imports and every first-call cost the workload's set-up
pays.  Prints one JSON object {"setup_s": seconds}.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed).set_up()
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
