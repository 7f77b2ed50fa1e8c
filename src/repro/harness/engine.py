"""Parallel experiment execution engine.

The paper's evaluation is dozens of independent, deterministic
:class:`~repro.harness.runner.RunSpec` runs.  They share no state — every
run builds a fresh guest program and VM — so the engine fans them out
across cores with a :class:`~concurrent.futures.ProcessPoolExecutor` and
collects results in input order, which (with a fixed seed per spec)
makes parallel output bit-identical to serial output.

Workers return portable :class:`~repro.harness.record.RunRecord` JSON;
the parent installs each record into the runner's memo and the
persistent disk cache, so a warmed engine leaves every later
``measure()`` call a cache hit.

Knobs:

* ``jobs`` argument > ``REPRO_JOBS`` env > ``os.cpu_count()``;
  ``jobs=1`` is the plain serial path (debugger-friendly: no
  subprocesses at all),
* ``trace_dir`` — when set, every worker builds a
  :class:`~repro.telemetry.Telemetry` bundle for its run and exports a
  per-run Chrome trace into the directory, preserving span export from
  worker processes,
* ``progress`` — a :class:`ProgressSink` receiving structured job
  events (queued / started / finished / cache-hit, with an ETA derived
  from completed-job wall times).  :class:`StderrProgress` renders them
  as one-line updates, :class:`JsonlProgress` appends them to an
  append-only JSONL event log, and :func:`set_default_progress`
  installs a process-wide default so the figure drivers stay
  signature-stable (the CLI's ``--progress`` / ``--progress-log``).

Progress events carry harness wall-clock times — they describe the
*fleet*, not the simulation, so they are exempt from (and irrelevant
to) the simulated-determinism guarantees.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Iterable, List, Optional, TextIO

try:  # Protocol: typing on 3.8+, fallback keeps 3.7 importable
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

from repro.harness import runner
from repro.harness.diskcache import spec_key
from repro.harness.record import RunRecord
from repro.harness.runner import RunSpec


# ---------------------------------------------------------------------------
# Fleet progress
# ---------------------------------------------------------------------------

def estimate_eta(elapsed: float, completed: int, total: int) -> Optional[float]:
    """Remaining wall time from the mean pace so far, or None.

    Guarded against every degenerate batch: nothing completed yet (all
    cache hits, or a clock that has not advanced past the first job),
    zero/negative elapsed time, and non-finite intermediates — an ETA is
    either a finite non-negative float or absent, never ``inf``/``nan``
    in a progress line or a JSONL event log.
    """
    if completed <= 0 or total <= completed:
        return None if total != completed else 0.0
    if not math.isfinite(elapsed) or elapsed < 0:
        return None
    eta = elapsed / completed * (total - completed)
    if not math.isfinite(eta):
        return None
    return max(0.0, eta)


@dataclass
class JobEvent:
    """One structured fleet event.

    ``kind`` is ``queued`` / ``started`` / ``finished`` / ``cache-hit``.
    ``wall_s`` (finished only) is the job's wall time; ``eta_s``
    (finished only) extrapolates the remaining work from the mean wall
    time of the jobs completed so far.

    ``ts`` (monotonic seconds, stamped at construction unless given)
    orders events when several streams are multiplexed into one log;
    ``batch`` tags every event of one engine call with the submitter's
    batch id, so a consumer tailing a shared stream — the fleet
    server's ``/events`` endpoint — can demux concurrent batches.
    Both are additive: consumers of the pre-existing keys are
    unaffected, and ``batch`` is omitted from the JSON when unset.
    """

    kind: str
    benchmark: str
    spec_key: str
    index: int            # position within this batch (0-based)
    total: int            # jobs in this batch (cache hits excluded)
    completed: int = 0    # jobs finished so far, including this one
    wall_s: Optional[float] = None
    eta_s: Optional[float] = None
    ts: Optional[float] = None     # monotonic seconds (auto-stamped)
    batch: Optional[str] = None    # submitting batch id, if any

    def __post_init__(self):
        if self.ts is None:
            self.ts = time.monotonic()

    def to_json(self) -> dict:
        doc = {"type": "job", "kind": self.kind,
               "benchmark": self.benchmark, "spec": self.spec_key,
               "index": self.index, "total": self.total,
               "completed": self.completed}
        if self.ts is not None and math.isfinite(self.ts):
            doc["ts"] = round(self.ts, 4)
        if self.batch is not None:
            doc["batch"] = self.batch
        if self.wall_s is not None and math.isfinite(self.wall_s):
            doc["wall_s"] = round(self.wall_s, 4)
        if self.eta_s is not None and math.isfinite(self.eta_s):
            doc["eta_s"] = round(self.eta_s, 1)
        return doc


class ProgressSink(Protocol):
    """Receiver of :class:`JobEvent` streams."""

    def emit(self, event: JobEvent) -> None:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class StderrProgress:
    """One line per event on stderr (never stdout: reports stay clean)."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: JobEvent) -> None:
        parts = [f"[engine] {event.kind:>9} {event.benchmark}"
                 f" ({event.spec_key[:10]})"]
        if event.kind == "finished":
            parts.append(f" {event.completed}/{event.total}")
            if event.wall_s is not None:
                parts.append(f" in {event.wall_s:.1f}s")
            if event.eta_s is not None and math.isfinite(event.eta_s) \
                    and event.completed < event.total:
                parts.append(f", eta {event.eta_s:.0f}s")
        print("".join(parts), file=self.stream, flush=True)

    def close(self) -> None:
        pass


class JsonlProgress:
    """Append-only JSONL event log (one self-describing object/line)."""

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "a")

    def emit(self, event: JobEvent) -> None:
        self._fh.write(json.dumps(event.to_json()))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class TeeProgress:
    """Fan one event stream out to several sinks.

    ``close()`` is exception-safe: every sink's ``close`` runs even
    when an earlier one raises (the first failure is re-raised after
    the sweep).  The fleet server tees one engine stream to many
    subscriber sinks, and one subscriber's broken pipe must not leak
    the others' file handles.
    """

    def __init__(self, *sinks: ProgressSink):
        self.sinks = [s for s in sinks if s is not None]

    def emit(self, event: JobEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        first_error: Optional[BaseException] = None
        for sink in self.sinks:
            try:
                sink.close()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error


#: Process-wide default sink (installed by the CLI's --progress flags);
#: an explicit ``progress=`` argument always wins.  Guarded by a lock:
#: the fleet server installs/clears sinks from its event loop thread
#: while engine calls resolve them from worker threads.
_DEFAULT_PROGRESS: Optional[ProgressSink] = None
_DEFAULT_PROGRESS_LOCK = threading.Lock()


def set_default_progress(sink: Optional[ProgressSink]) -> None:
    """Install (or clear, with None) the process-wide progress sink."""
    global _DEFAULT_PROGRESS
    with _DEFAULT_PROGRESS_LOCK:
        _DEFAULT_PROGRESS = sink


def _resolve_progress(progress: Optional[ProgressSink]) -> Optional[ProgressSink]:
    if progress is not None:
        return progress
    with _DEFAULT_PROGRESS_LOCK:
        return _DEFAULT_PROGRESS


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else (os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _run_one(payload) -> dict:
    """Worker entry point: simulate one spec, return its record as JSON.

    Top-level (picklable) and self-contained: reconstructs the spec,
    optionally attaches a fresh telemetry bundle, and exports the run's
    spans before returning, so tracing survives process boundaries.
    """
    spec_dict, trace_dir = payload
    spec = RunSpec(**spec_dict)
    telemetry = None
    if trace_dir:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
    result = runner.execute(spec, telemetry=telemetry)
    record = runner.record_from_result(spec, result)
    if trace_dir:
        from repro.telemetry.export import write_chrome_trace

        path = os.path.join(
            trace_dir, f"{spec.benchmark}-{spec_key(spec)[:10]}.json")
        write_chrome_trace(path, telemetry.tracer, telemetry.metrics,
                           dict(spec_dict))
    return record.to_json()


def run_specs(specs: Iterable[RunSpec], jobs: Optional[int] = None,
              trace_dir: Optional[str] = None,
              progress: Optional[ProgressSink] = None,
              batch: Optional[str] = None) -> List[RunRecord]:
    """Compute (or recall) records for ``specs``; results in input order.

    Every uncached spec key (:meth:`RunSpec.key`) is simulated exactly
    once; duplicates and cache hits are free.  The round trip through
    RunRecord JSON is the same in the serial and parallel paths, so
    ``jobs`` can never change a result — only how fast it arrives.
    ``progress`` (or the default installed via
    :func:`set_default_progress`) observes the fleet; ``batch`` tags
    every emitted event with the submitter's batch id so concurrent
    engine calls sharing one sink stay demuxable.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    progress = _resolve_progress(progress)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)

    missing: List[RunSpec] = []
    seen = set()
    for spec in specs:
        key = spec.key()
        if key not in seen:
            seen.add(key)
            if runner.cached_record(spec) is None:
                missing.append(spec)
            elif progress is not None:
                progress.emit(JobEvent("cache-hit", spec.benchmark,
                                       spec_key(spec), index=len(seen) - 1,
                                       total=0, batch=batch))

    if missing:
        total = len(missing)
        keys = [spec_key(spec) for spec in missing]
        if progress is not None:
            for i, spec in enumerate(missing):
                progress.emit(JobEvent("queued", spec.benchmark, keys[i],
                                       index=i, total=total, batch=batch))
        payloads = [(asdict(spec), trace_dir) for spec in missing]
        docs: List[Optional[dict]] = [None] * total
        started = time.monotonic()
        completed = 0

        def note_finished(i: int, wall_s: float) -> None:
            nonlocal completed
            completed += 1
            if progress is not None:
                elapsed = time.monotonic() - started
                eta = estimate_eta(elapsed, completed, total)
                progress.emit(JobEvent(
                    "finished", missing[i].benchmark, keys[i], index=i,
                    total=total, completed=completed, wall_s=wall_s,
                    eta_s=eta, batch=batch))

        if jobs == 1 or total == 1:
            for i, payload in enumerate(payloads):
                if progress is not None:
                    progress.emit(JobEvent("started", missing[i].benchmark,
                                           keys[i], index=i, total=total,
                                           batch=batch))
                t0 = time.monotonic()
                docs[i] = _run_one(payload)
                note_finished(i, time.monotonic() - t0)
        else:
            pool = ProcessPoolExecutor(max_workers=min(jobs, total))
            with pool:
                # Futures are collected as they complete (for live
                # progress) but installed by input index, so the result
                # order is deterministic no matter which worker
                # finishes first.
                submit_t0 = {}
                futures = {}
                for i, payload in enumerate(payloads):
                    fut = pool.submit(_run_one, payload)
                    futures[fut] = i
                    submit_t0[i] = time.monotonic()
                    if progress is not None:
                        progress.emit(JobEvent("started",
                                               missing[i].benchmark,
                                               keys[i], index=i,
                                               total=total, batch=batch))
                pending = set(futures)
                while pending:
                    done, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                    for fut in done:
                        i = futures[fut]
                        docs[i] = fut.result()
                        note_finished(i, time.monotonic() - submit_t0[i])
        for spec, doc in zip(missing, docs):
            runner.store_record(spec, RunRecord.from_json(doc))

    return [runner.record_for(spec) for spec in specs]


def _run_leg(payload) -> dict:
    """Worker entry point: simulate one checkpoint leg of one spec.

    A leg starts from a shipped snapshot (or cycle 0) and advances to
    the next absolute ``leg_cycles`` grid boundary.  An unfinished leg
    returns its boundary snapshot (wire form) for the parent to ship
    into the next leg; the final leg runs ``finish()`` and mints the
    record in-worker, exactly like :func:`_run_one`.
    """
    spec_dict, snap_data, leg_cycles = payload
    spec = RunSpec(**spec_dict)
    from repro.vm.snapshot import Snapshot

    if snap_data is not None:
        vm = Snapshot.from_bytes(snap_data).restore()
    else:
        from repro.vm.vmcore import VM
        from repro.workloads import suite

        workload = suite.build(spec.benchmark)
        config = spec.system_config(workload.min_heap_bytes)
        vm = VM(workload.program, config, compilation_plan=workload.plan)
        vm.begin()
    grid = (vm.cpu.cycles // leg_cycles + 1) * leg_cycles
    stop = grid if spec.until_cycles is None \
        else min(grid, spec.until_cycles)
    done = vm.advance(until_cycles=stop)
    truncated = (not done and spec.until_cycles is not None
                 and vm.cpu.cycles >= spec.until_cycles)
    if not done and not truncated:
        return {"kind": "snapshot",
                "data": Snapshot.capture(vm).to_bytes()}
    end_state = None if done else Snapshot.capture(vm).to_bytes()
    record = runner.record_from_result(spec, vm.finish())
    return {"kind": "record", "record": record.to_json(),
            "end_state": end_state}


def run_specs_sharded(specs: Iterable[RunSpec], leg_cycles: int,
                      jobs: Optional[int] = None,
                      progress: Optional[ProgressSink] = None,
                      batch: Optional[str] = None,
                      ) -> List[RunRecord]:
    """Compute records with each run pipelined as checkpoint legs.

    One run cannot be parallelized internally — leg N+1 needs leg N's
    end state — but while a spec waits for its next leg to be
    scheduled, *other specs'* legs fill the pool, and the parent
    overlaps its per-leg analysis work (installing checkpoints and
    finished records into the cache layers) with the simulation still
    in flight.  A suite of long runs therefore finishes in roughly
    ``max`` instead of ``sum`` of the per-spec chains on multi-core.

    Results are bit-identical to :func:`run_specs`: legs stop on the
    same scheduler-quantum boundaries the unbroken run passes through,
    and every leg boundary snapshot feeds the runner's snapshot cache
    so later ``until_cycles`` extensions resume instead of re-running.
    """
    if leg_cycles < 1:
        raise ValueError(f"leg_cycles must be >= 1, got {leg_cycles}")
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    progress = _resolve_progress(progress)

    from repro.vm.snapshot import Snapshot

    missing: List[RunSpec] = []
    seen = set()
    for spec in specs:
        key = spec.key()
        if key not in seen:
            seen.add(key)
            if runner.cached_record(spec) is None:
                missing.append(spec)
            elif progress is not None:
                progress.emit(JobEvent("cache-hit", spec.benchmark,
                                       spec_key(spec), index=len(seen) - 1,
                                       total=0, batch=batch))

    if missing:
        total = len(missing)
        keys = [spec_key(spec) for spec in missing]
        payloads = [(asdict(spec), None, leg_cycles) for spec in missing]
        started = time.monotonic()
        completed = 0

        def absorb(i: int, outcome: dict) -> Optional[tuple]:
            """Install a leg's product; next payload if the chain
            continues, None when the spec is done."""
            nonlocal completed
            for data in (outcome.get("data"), outcome.get("end_state")):
                if data is not None:
                    runner.store_snapshot(missing[i],
                                          Snapshot.from_bytes(data))
            if outcome["kind"] == "snapshot":
                if progress is not None:
                    progress.emit(JobEvent("leg", missing[i].benchmark,
                                           keys[i], index=i, total=total,
                                           completed=completed, batch=batch))
                return (payloads[i][0], outcome["data"], leg_cycles)
            runner.store_record(missing[i],
                                RunRecord.from_json(outcome["record"]))
            completed += 1
            if progress is not None:
                elapsed = time.monotonic() - started
                eta = estimate_eta(elapsed, completed, total)
                progress.emit(JobEvent("finished", missing[i].benchmark,
                                       keys[i], index=i, total=total,
                                       completed=completed, eta_s=eta,
                                       batch=batch))
            return None

        if progress is not None:
            for i, spec in enumerate(missing):
                progress.emit(JobEvent("queued", spec.benchmark, keys[i],
                                       index=i, total=total, batch=batch))
        if jobs == 1 or total == 1:
            for i in range(total):
                payload = payloads[i]
                while payload is not None:
                    payload = absorb(i, _run_leg(payload))
        else:
            with ProcessPoolExecutor(max_workers=min(jobs, total)) as pool:
                futures = {pool.submit(_run_leg, payloads[i]): i
                           for i in range(total)}
                pending = set(futures)
                while pending:
                    done, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                    for fut in done:
                        i = futures.pop(fut)
                        nxt = absorb(i, fut.result())
                        if nxt is not None:
                            fresh = pool.submit(_run_leg, nxt)
                            futures[fresh] = i
                            pending.add(fresh)

    return [runner.record_for(spec) for spec in specs]


def warm(specs: Iterable[RunSpec], jobs: Optional[int] = None,
         trace_dir: Optional[str] = None,
         progress: Optional[ProgressSink] = None,
         batch: Optional[str] = None) -> int:
    """Precompute records for ``specs``; returns how many were missing.

    After warming, serial harness code (``measure`` loops in the figure
    drivers) does zero simulation work for these specs.
    """
    specs = list(specs)
    uncached = sum(1 for key in dict.fromkeys(s.key() for s in specs)
                   if runner.cached_record(key) is None)
    run_specs(specs, jobs=jobs, trace_dir=trace_dir, progress=progress,
              batch=batch)
    return uncached
