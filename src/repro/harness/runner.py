"""Benchmark runner: one entry point per (benchmark, configuration).

The experiment figures share many configurations (Figure 4's large-heap
runs are Figure 5's 4x points, ...), so results are cached in layers:

1. an in-process memo of :class:`Measurement` aggregates and per-seed
   :class:`~repro.harness.record.RunRecord` results,
2. a persistent on-disk cache (:mod:`repro.harness.diskcache`) keyed by
   the spec plus a code-version hash, so re-running any figure across
   processes or CI runs is near-instant,
3. the simulator itself (:func:`execute`), which always runs fresh —
   guest programs carry mutable static state, so each run builds a new
   program.

``measure`` traffics in portable :class:`RunRecord` results (no live VM
reference), which is what lets the parallel scheduler in
:mod:`repro.harness.engine` compute them in worker processes and the
disk cache replay them without any simulation work.

The paper reports timing as averages over 3 executions; the simulator
is deterministic for a fixed seed, so repetition happens over seeds and
the reported deviation is across-seed.  The seed only drives the PEBS
sampling jitter, so an unmonitored spec is one run for every seed and
every cache layer keys it by :meth:`RunSpec.key`.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import GCConfig, SystemConfig, scaled_interval
from repro.harness import diskcache
from repro.harness.record import RunRecord
from repro.vm.snapshot import Snapshot
from repro.vm.vmcore import RunResult, VM
from repro.workloads import suite

#: Interval names accepted by the harness: the paper's three plus auto.
INTERVAL_NAMES = ("25K", "50K", "100K", "auto")

#: Simulations actually executed by this process (not served from any
#: cache layer) — the counter the warm-cache "zero simulation work"
#: assertions read.
SIM_RUNS = 0

#: Cycles actually *simulated* by this process.  A resumed run adds
#: only its delta, which is how tests prove that extending a cached
#: ``until_cycles`` run never re-executes the prefix.
SIM_CYCLES = 0


@dataclass(frozen=True)
class RunSpec:
    """One benchmark execution configuration."""

    benchmark: str
    heap_mult: float = 4.0
    coalloc: bool = False
    monitoring: bool = True
    interval: str = "auto"          # "25K" | "50K" | "100K" | "auto"
    gc_plan: str = "genms"
    event: str = "L1D_MISS"
    seed: int = 1
    #: Stop (and record) once the cycle clock passes this bound; None
    #: runs to completion.  Two specs differing only here share one
    #: checkpoint family in the caches (see :meth:`base`).
    until_cycles: Optional[int] = None

    def key(self) -> "RunSpec":
        """The spec every cache layer stores this run under.

        The seed feeds only the PEBS interval jitter, so a run without
        monitoring consumes no randomness and is the same run for every
        seed: it is keyed as if its seed were the default.  Equality,
        hashing and ``seed`` itself stay field-wise.
        """
        if self.monitoring or self.seed == 1:
            return self
        return replace(self, seed=1)

    def base(self) -> "RunSpec":
        """:meth:`key` with the cycle bound stripped — the snapshot key."""
        key = self.key()
        return replace(key, until_cycles=None) if key.until_cycles \
            else key

    def system_config(self, min_heap_bytes: int) -> SystemConfig:
        sampling = (None if self.interval == "auto"
                    else scaled_interval(self.interval))
        return SystemConfig(
            gc=GCConfig(heap_bytes=int(min_heap_bytes * self.heap_mult)),
            coalloc=self.coalloc,
            monitoring=self.monitoring,
            sampling_interval=sampling,
            sampled_event=self.event,
            gc_plan=self.gc_plan,
            seed=self.seed,
        )


@dataclass
class Measurement:
    """Aggregate over the repetition seeds of one spec."""

    spec: RunSpec
    cycles_mean: float
    cycles_std: float
    results: List[RunRecord] = field(repr=False, default_factory=list)

    @property
    def result(self) -> RunRecord:
        """The first repetition (used for counters and GC statistics —
        identical across seeds except for sampling jitter)."""
        return self.results[0]

    @property
    def l1_misses(self) -> int:
        return self.result.counters["L1D_MISS"]

    @property
    def coallocated(self) -> int:
        return self.result.gc_stats.coallocated_objects


_CACHE: Dict[RunSpec, Measurement] = {}
#: Record memo, keyed by :meth:`RunSpec.key`.
_RECORDS: Dict[RunSpec, RunRecord] = {}
#: In-process checkpoint memo: base spec -> {cycle: Snapshot}.
_SNAPSHOTS: Dict[RunSpec, Dict[int, Snapshot]] = {}
_DISK: Optional[diskcache.DiskCache] = None
_DISK_RESOLVED = False


def _disk() -> Optional[diskcache.DiskCache]:
    """The process-wide disk cache (None when disabled via env)."""
    global _DISK, _DISK_RESOLVED
    if not _DISK_RESOLVED:
        _DISK = diskcache.DiskCache() if diskcache.cache_enabled() else None
        _DISK_RESOLVED = True
    return _DISK


def set_disk_cache(cache: Optional[diskcache.DiskCache]) -> None:
    """Inject (or disable, with None) the persistent cache layer."""
    global _DISK, _DISK_RESOLVED
    _DISK = cache
    _DISK_RESOLVED = True


def execute(spec: RunSpec, telemetry=None, fastpath=None,
            lineage=None, health=None,
            resume_from: Optional[Snapshot] = None,
            checkpoint_every: Optional[int] = None,
            on_checkpoint=None) -> RunResult:
    """Run one spec once (no caching).

    ``telemetry``, ``lineage``, ``health``, and ``fastpath`` ride on
    the :class:`SystemConfig`, never on the frozen spec, so they cannot
    pollute the memoization key used by :func:`measure` (nor the
    disk-cache key): telemetry, the lineage ledger, and the health
    monitor are pure observers, and the interpreters are bit-identical,
    so a record computed under any knob setting is valid for all of
    them.

    ``resume_from`` continues a captured :class:`Snapshot` instead of
    simulating from cycle 0 — bit-identical to the unbroken run.  A
    resumed run keeps the snapshot's own telemetry/lineage observers
    (they hold the already-recorded prefix); only ``fastpath`` may be
    overridden.  ``checkpoint_every`` slices the run on an absolute
    cycle grid and hands each boundary snapshot to ``on_checkpoint``;
    the grid is absolute (multiples of the stride, not offsets from
    the start) so resumed legs land on the same checkpoints the
    unbroken run would.
    """
    if spec.interval not in INTERVAL_NAMES:
        raise ValueError(f"unknown interval {spec.interval!r}")
    if resume_from is not None:
        vm = resume_from.restore(fastpath=fastpath)
    else:
        workload = suite.build(spec.benchmark)
        config = spec.system_config(workload.min_heap_bytes)
        if telemetry is not None:
            config.telemetry = telemetry
        if lineage is not None:
            config.lineage = lineage
        if health is not None:
            config.health = health
        if fastpath is not None:
            config.fastpath = fastpath
        vm = VM(workload.program, config, compilation_plan=workload.plan)
        vm.begin()
    return _drive(vm, until_cycles=spec.until_cycles,
                  checkpoint_every=checkpoint_every,
                  on_checkpoint=on_checkpoint)


def _drive(vm: VM, until_cycles: Optional[int] = None,
           checkpoint_every: Optional[int] = None,
           on_checkpoint=None) -> RunResult:
    """Advance a begun (or restored) VM to its end state and finish it.

    The end state is completion, or the first scheduler-quantum
    boundary past ``until_cycles``.  When the run is truncated by the
    bound, a final snapshot is captured *before* ``finish()`` (whose
    sample drain mutates controller state), so the same simulation
    yields both the truncated record and the checkpoint a later
    extension resumes from.
    """
    global SIM_RUNS, SIM_CYCLES
    SIM_RUNS += 1
    start_cycles = vm.cpu.cycles
    done = False
    while not done:
        stop = until_cycles
        if checkpoint_every:
            grid = (vm.cpu.cycles // checkpoint_every + 1) * checkpoint_every
            stop = grid if until_cycles is None else min(grid, until_cycles)
        done = vm.advance(until_cycles=stop)
        if done:
            break
        if until_cycles is not None and vm.cpu.cycles >= until_cycles:
            break
        if on_checkpoint is not None:
            on_checkpoint(Snapshot.capture(vm))
    if not done and on_checkpoint is not None:
        on_checkpoint(Snapshot.capture(vm))
    SIM_CYCLES += vm.cpu.cycles - start_cycles
    return vm.finish()


def cached_record(spec: RunSpec) -> Optional[RunRecord]:
    """Look ``spec`` up in the memo and disk layers without computing."""
    record = _RECORDS.get(spec.key())
    if record is None:
        disk = _disk()
        if disk is not None:
            record = disk.get(spec)
            if record is not None:
                _RECORDS[spec.key()] = record
    return record


def store_record(spec: RunSpec, record: RunRecord) -> None:
    """Install a computed record in the memo and disk layers."""
    _RECORDS[spec.key()] = record
    disk = _disk()
    if disk is not None:
        disk.put(spec, record)


def record_from_result(spec: RunSpec, result: RunResult,
                       fastpath: "bool | None" = None) -> RunRecord:
    """Extract a portable record and stamp its provenance manifest.

    This is the one place records destined for the cache layers are
    minted (both the serial path here and the worker path in
    :mod:`repro.harness.engine` go through it), so every stored record
    carries the inputs it is a pure function of.
    """
    from repro.analysis import provenance

    record = RunRecord.from_result(result)
    record.provenance = provenance.manifest(spec, fastpath)
    return record


def store_snapshot(spec: RunSpec, snap: Snapshot) -> None:
    """Install one checkpoint in the memo and disk layers.

    Keyed by the *base* spec (``until_cycles`` stripped): every cycle
    bound of the same configuration draws from one checkpoint family.
    """
    base = spec.base()
    _SNAPSHOTS.setdefault(base, {})[snap.cycle] = snap
    disk = _disk()
    if disk is not None:
        disk.put_snapshot(base, snap)


def best_snapshot(spec: RunSpec) -> Optional[Snapshot]:
    """The latest cached checkpoint usable for ``spec``, or None.

    Usable means *pure* (no live observers — a cached record must come
    out identical whether simulated fresh or resumed) and strictly
    before the spec's ``until_cycles`` bound (resuming at or past the
    bound would skip the recorded end state).
    """
    base = spec.base()
    bound = spec.until_cycles
    memo = _SNAPSHOTS.get(base, {})
    cycles = [c for c in memo
              if memo[c].pure and (bound is None or c < bound)]
    best = memo[max(cycles)] if cycles else None
    disk = _disk()
    if disk is not None:
        from_disk = disk.get_snapshot(base, max_cycle=bound,
                                      require_pure=True)
        if from_disk is not None and (best is None
                                      or from_disk.cycle > best.cycle):
            _SNAPSHOTS.setdefault(base, {})[from_disk.cycle] = from_disk
            best = from_disk
    return best


def record_for(spec: RunSpec) -> RunRecord:
    """One spec's portable result: memo -> disk -> simulate.

    Simulation resumes from the best cached checkpoint when one
    exists, and a run truncated by ``until_cycles`` deposits its end
    state back into the snapshot layers — so extending a bounded run's
    horizon simulates only the delta (``SIM_CYCLES`` proves it).
    """
    record = cached_record(spec)
    if record is not None:
        return record
    on_checkpoint = None
    if spec.until_cycles is not None:
        def on_checkpoint(snap, _spec=spec):
            store_snapshot(_spec, snap)
    result = execute(spec, resume_from=best_snapshot(spec),
                     on_checkpoint=on_checkpoint)
    record = record_from_result(spec, result)
    store_record(spec, record)
    return record


def measure(spec: RunSpec, repeats: int = 1) -> Measurement:
    """Run (cached) with ``repeats`` seeds; aggregate cycle counts.

    Each repetition seed is cached independently, so raising ``repeats``
    only computes the seeds not already measured.  Without monitoring
    every seed shares one cache key (see :meth:`RunSpec.key`), so all
    repetitions come from a single simulation.
    """
    cached = _CACHE.get(spec)
    if cached is not None and len(cached.results) >= repeats:
        return cached
    records = [record_for(replace(spec, seed=spec.seed + r))
               for r in range(repeats)]
    cycles = [r.cycles for r in records]
    measurement = Measurement(
        spec=spec,
        cycles_mean=statistics.fmean(cycles),
        cycles_std=statistics.pstdev(cycles) if len(cycles) > 1 else 0.0,
        results=records,
    )
    _CACHE[spec] = measurement
    return measurement


def clear_cache(disk: bool = False) -> None:
    """Drop the in-process memo; with ``disk=True`` also the disk layer."""
    _CACHE.clear()
    _RECORDS.clear()
    _SNAPSHOTS.clear()
    if disk:
        layer = _disk()
        if layer is not None:
            layer.clear()


def make_vm(benchmark: str, spec: Optional[RunSpec] = None,
            telemetry=None, fastpath=None,
            lineage=None, health=None) -> Tuple[VM, object]:
    """Build a VM without running it (for experiments that intervene
    mid-run, like Figure 8's manual gap insertion).

    Returns ``(vm, workload)``.
    """
    spec = spec or RunSpec(benchmark=benchmark, coalloc=True)
    workload = suite.build(benchmark)
    config = spec.system_config(workload.min_heap_bytes)
    if telemetry is not None:
        config.telemetry = telemetry
    if lineage is not None:
        config.lineage = lineage
    if health is not None:
        config.health = health
    if fastpath is not None:
        config.fastpath = fastpath
    vm = VM(workload.program, config, compilation_plan=workload.plan)
    return vm, workload
