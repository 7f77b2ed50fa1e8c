"""Host-side performance observatory: the ``repro bench`` subsystem.

The paper's premise is that monitoring must be cheap enough to leave
on; this package applies the same discipline to the repository itself.
Every host-side performance gate the repo cares about — translated
fast path vs reference interpreter, engine warm/cold cache behaviour,
audit wall time, lineage-ledger overhead, a full-suite smoke — is a
declarative :class:`~repro.bench.registry.BenchCase` with its own gate
predicates (speedup floors, overhead ceilings, bit-identity checks).

Around the registry sit four services:

* :mod:`repro.bench.execute` runs cases with warmup/repeats and robust
  wall-time statistics (median, MAD, min),
* :mod:`repro.bench.history` appends every run to the persistent
  ``results/bench_history.jsonl`` trajectory (keyed by code version,
  git sha, and timestamp),
* :mod:`repro.bench.compare` scores a run against a baseline window of
  compatible history entries and emits improved/ok/regressed verdicts,
* :mod:`repro.bench.profile` wraps any case in cProfile, attributes
  wall time to repro subsystems (hw/jit/gc/vm/core/harness/telemetry/
  lineage/...), and exports collapsed stacks for flamegraph.pl or
  speedscope — the host-side mirror of the simulated-cycle tracer.

Everything is reachable through ``python -m repro bench
list|run|history|compare|profile``.
"""

from repro.bench.registry import (BenchCase, Gate, all_cases,  # noqa: F401
                                  get_case, register)
