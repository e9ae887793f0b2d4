"""Set-up probe: time ``import lomlab`` plus one workload's first-call build.

Run in a fresh interpreter by run.py, several times per run:

    python3 perfbench/setup_probe.py WORKLOAD SEED [--quick]

Prints the seconds spent importing lomlab and doing the workload's ``warm``
step (context and table builds a first call pays), excluding interpreter
start-up, the benchmark's own imports and numpy's import.  numpy is imported
before the clock starts: on the 2-core VM the benchmark was tuned on, its
import took about 0.16 s for minutes at a time and then about 0.08 s, with
lomlab's own import steady at about 0.05 s, and no lomlab change moves it.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    quick = "--quick" in sys.argv[3:]
    sys.path.insert(0, str(HERE))
    from run import ROOT, import_lomlab

    import numpy  # noqa: F401  (see the module docstring)

    t0 = time.perf_counter()
    import_lomlab()
    imported = time.perf_counter() - t0

    import workloads

    wl = workloads.WORKLOADS[workload](
        seed, workloads.QUICK if quick else workloads.FULL, ROOT / ".bench_build" / "perfbench"
    )
    t1 = time.perf_counter()
    wl.warm()
    print(imported + time.perf_counter() - t1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
