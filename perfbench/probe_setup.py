"""Time one set-up of a workload in a fresh interpreter.

Prints the seconds from the first line of this script to a built
simulation: imports, config generation and ``build_simulation``.  Run by
``run.py``; by hand::

    python3 perfbench/probe_setup.py scaled_mobile 1 .perfbench_work/probe
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.setup(workload, seed, work_dir)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
