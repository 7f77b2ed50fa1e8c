"""Measure one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED JOBS`` (with
``src`` and ``perfbench`` on ``PYTHONPATH``, as ``run.py`` sets it).
Times the imports, ``suite.build`` and VM construction for every spec
of one iteration, and -- for workloads that use the engine's process
pool -- starting a pool of ``JOBS`` workers; prints ``{"setup_s": ...}``.
"""

import json
import os
import sys
import time


def main() -> None:
    name, seed, jobs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    for spec in workload.specs(seed):
        workload.build_vm(spec)
    if workload.uses_pool:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for future in [pool.submit(os.getpid) for _ in range(jobs)]:
                future.result()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
