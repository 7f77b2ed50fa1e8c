"""The benchmark's workloads: what one iteration runs, and its checks.

Every workload is a closed loop driven from one process: the next run
starts when the previous one has finished.  ``figure-sweep`` fans its
runs out over the harness engine's process pool; the others run in
process.  The simulator is deterministic for a fixed seed, so the
simulated statistics of a spec repeat exactly from iteration to
iteration; only host time varies.

The ``--seed`` of the benchmark becomes ``RunSpec.seed``, which drives
the PEBS sampling jitter (and with it every monitored decision).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from repro.harness import diskcache, engine, runner
from repro.harness import experiments as exps
from repro.harness.runner import RunSpec

#: Seed used when ``--seed`` is not given.  Claims made at this seed
#: should be re-checked at another one (a held-out seed).
DEFAULT_SEED = 1

#: Co-allocation experiments the ``doctor-storm`` storm seeds.
STORM_COUNT = 3

#: The reference-oracle prefix advances in steps of this many cycles.
PREFIX_STEP = 100_000

#: Environment variable naming the directory :func:`timed_run_one`
#: writes each run's own time to.
RUN_TIMES_ENV = "PERFBENCH_RUN_TIMES"

#: Iteration ``i`` of a workload with ``K`` sub-seeds simulates
#: ``RunSpec.seed = seed + SUBSEED_STRIDE * (i % K)``: sub-seed 0 is the
#: benchmark seed itself, and seeds below the stride never share one.
SUBSEED_STRIDE = 1000


@dataclass
class Run:
    """One counted simulation: its host time and simulated statistics."""

    label: str
    wall_s: float
    cycles: int
    instructions: int
    counters: Dict[str, int]
    app_cycles: int
    gc_cycles: int
    monitoring_cycles: int
    coallocated: int
    reverts: int
    monitored: bool

    def fingerprint(self) -> str:
        """Every simulated statistic, in one comparable string."""
        doc = asdict(self)
        del doc["wall_s"]
        return json.dumps(doc, sort_keys=True)


def run_from(label: str, wall_s: float, source, monitored: bool) -> Run:
    """A :class:`Run` from a live RunResult or a RunRecord."""
    vm = getattr(source, "vm", None)
    if vm is not None:
        reverts = (len(vm.controller.feedback.reverted_experiments())
                   if vm.controller is not None else 0)
    else:
        reverts = len(source.reverted_experiments)
    return Run(label=label, wall_s=wall_s, cycles=source.cycles,
               instructions=source.instructions,
               counters=dict(source.counters),
               app_cycles=source.app_cycles, gc_cycles=source.gc_cycles,
               monitoring_cycles=source.monitoring_cycles,
               coallocated=source.gc_stats.coallocated_objects,
               reverts=reverts, monitored=monitored)


@dataclass
class Iteration:
    """One pass over a workload's specs."""

    runs: List[Run]
    #: host seconds the simulations took (the denominator of sim_mips)
    sim_wall_s: float
    #: per-run host times for run_s (engine job walls on figure-sweep)
    run_walls: List[float]
    #: problems found by the workload's own checks
    problems: List[str] = field(default_factory=list)
    #: layer details only the workload can see (record bytes, ...)
    details: Dict[str, float] = field(default_factory=dict)


def label_of(spec: RunSpec) -> str:
    role = "coalloc" if spec.coalloc else "base"
    mon = "mon" if spec.monitoring else "nomon"
    return (f"{spec.benchmark}/{spec.heap_mult:g}x/{role}/{mon}/"
            f"{spec.interval}/{spec.gc_plan}/s{spec.seed}")


def prefix_fingerprint(result) -> dict:
    """Cycles, instructions, every counter, ``pebs.samples_taken``, the
    collections and co-allocations, and the reverted experiments."""
    vm = result.vm
    feedback = vm.controller.feedback if vm.controller else None
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "counters": dict(result.counters),
        "pebs.samples_taken": vm.pebs.samples_taken if vm.pebs else 0,
        "gc.minor_gcs": result.gc_stats.minor_gcs,
        "gc.full_gcs": result.gc_stats.full_gcs,
        "gc.coallocated_objects": result.gc_stats.coallocated_objects,
        "reverted": [[e.name, e.reverted_period]
                     for e in feedback.reverted_experiments()]
        if feedback else [],
    }


#: ``engine._run_one`` as the harness defines it.
_ENGINE_RUN_ONE = engine._run_one


def timed_run_one(payload) -> dict:
    """``engine._run_one``, timed in the process that runs it.

    The engine stamps a pooled job's wall time from its submission, so
    that time includes the job's wait in the pool's queue.  This
    wrapper writes the run's own host seconds to
    ``$PERFBENCH_RUN_TIMES/<spec key>``, for the parent to read after
    the sweep.  Top level, so the pool can pickle it by name."""
    t0 = time.perf_counter()
    doc = _ENGINE_RUN_ONE(payload)
    run_s = time.perf_counter() - t0
    key = diskcache.spec_key(RunSpec(**payload[0]))
    with open(os.path.join(os.environ[RUN_TIMES_ENV], key), "w") as fh:
        fh.write(repr(run_s))
    return doc


class Workload:
    """One workload: its specs, one iteration, and its checks."""

    name = ""
    #: distinct seeds the iterations cycle through; the modelled
    #: metrics average over them
    subseeds = 1
    #: iterations in a timed run, however long they take: one more
    #: than ``subseeds``, so that some spec always runs twice and the
    #: repeat check has something to compare
    min_iterations = 2
    #: whether a run starts the engine's process pool (part of set-up)
    uses_pool = False

    def iteration_seed(self, seed: int, index: int) -> int:
        return seed + SUBSEED_STRIDE * (index % self.subseeds)

    def specs(self, seed: int) -> List[RunSpec]:
        raise NotImplementedError

    def build_vm(self, spec: RunSpec, fastpath: Optional[int] = None):
        """Construct (but do not run) a VM for ``spec``, as a run would."""
        vm, _ = runner.make_vm(spec.benchmark, spec, fastpath=fastpath)
        return vm

    def prefix_covered(self, vm) -> bool:
        """Whether a prefix has reached what the oracle must cover: the
        first minor collection (and with it the first co-allocation)."""
        return vm.plan.stats.minor_gcs > 0

    def prefix_set_problems(self, references: List[dict]) -> List[str]:
        """Problems of the reference prefixes of a run taken together."""
        return []

    def prefix_run(self, spec: RunSpec, fastpath: int,
                   stop_at: Optional[int] = None) -> tuple:
        """(fingerprint, bound): ``spec`` simulated in ``PREFIX_STEP``
        steps up to ``stop_at`` cycles or, without one, up to the first
        step that :meth:`prefix_covered` accepts, or to the end of the
        run."""
        vm = self.build_vm(spec, fastpath)
        vm.begin()
        bound = 0
        while True:
            bound += PREFIX_STEP
            done = vm.advance(until_cycles=bound)
            if done or bound == stop_at or (
                    stop_at is None and self.prefix_covered(vm)):
                break
        return prefix_fingerprint(vm.finish()), bound

    def prepare(self, seed: int, work_dir: str) -> None:
        """Work done once per process, outside the measured window."""

    def iterate(self, seed: int, jobs: int, work_dir: str,
                tracer=None) -> Iteration:
        raise NotImplementedError

    def coalloc_pairs(self, runs: List[Run]) -> List[tuple]:
        """(monitored co-allocating run, its baseline) pairs: the same
        spec without co-allocation and without monitoring."""
        by_label = {r.label: r for r in runs}
        return [(r, by_label[r.label.replace("/coalloc/mon/",
                                             "/base/nomon/")])
                for r in runs if "/coalloc/mon/auto/" in r.label]


class DbCoalloc(Workload):
    """The paper's headline case: ``db`` at heap 4x, baseline vs
    monitored co-allocation (Figures 4 and 5)."""

    name = "db-coalloc"

    def specs(self, seed):
        return [RunSpec("db", heap_mult=4.0, coalloc=False,
                        monitoring=False, seed=seed),
                RunSpec("db", heap_mult=4.0, coalloc=True,
                        monitoring=True, seed=seed)]

    def iterate(self, seed, jobs, work_dir, tracer=None):
        runner.clear_cache()
        runs = []
        for spec in self.specs(seed):
            t0 = time.perf_counter()
            result = runner.execute(spec)
            runs.append(run_from(label_of(spec), time.perf_counter() - t0,
                                 result, spec.monitoring))
        problems = []
        base, co = runs
        if not co.counters["L1D_MISS"] < base.counters["L1D_MISS"]:
            problems.append("co-allocation did not reduce db's L1D misses")
        return Iteration(runs=runs,
                         sim_wall_s=sum(r.wall_s for r in runs),
                         run_walls=[r.wall_s for r in runs],
                         problems=problems)


class _EventLog:
    """Engine progress sink: keeps every JobEvent."""

    def __init__(self):
        self.events = []

    def emit(self, event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def kinds(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]


class FigureSweep(Workload):
    """Cold figure-spec sweep into a fresh disk cache, then a warm
    replay of the same specs (figure-regeneration traffic).

    One ``run_s`` sample is one figure point: the worker-side run times
    of its spec on every program, summed.  ``jython``'s runs take about
    2.5 times ``fop``'s, so per-run samples would put the median
    between the two programs' clusters."""

    name = "figure-sweep"
    programs = ("jython", "fop")
    uses_pool = True
    #: a second sweep would double the run; the traced run sweeps the
    #: same seed three times and checks the repeats there
    min_iterations = 1

    def specs(self, seed):
        return [replace(s, seed=seed)
                for s in exps.figure_specs(list(self.programs))]

    def prepare(self, seed, work_dir):
        engine._run_one = timed_run_one

    def iterate(self, seed, jobs, work_dir, tracer=None):
        specs = self.specs(seed)
        distinct = len(set(specs))
        runner.clear_cache()
        root = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
        times_dir = tempfile.mkdtemp(prefix="run-times-", dir=work_dir)
        os.environ[RUN_TIMES_ENV] = times_dir
        runner.set_disk_cache(diskcache.DiskCache(root))
        problems = []
        try:
            cold_log = _EventLog()
            sims_before = runner.SIM_RUNS
            t0 = time.perf_counter()
            cold = engine.run_specs(specs, jobs=jobs, progress=cold_log)
            cold_wall = time.perf_counter() - t0
            run_s = {}
            for key in os.listdir(times_dir):
                with open(os.path.join(times_dir, key)) as fh:
                    run_s[key] = float(fh.read())
            cold_sims = len(cold_log.kinds("finished"))
            parent_sims = runner.SIM_RUNS - sims_before
            if cold_sims != distinct:
                problems.append(f"cold sweep simulated {cold_sims} specs, "
                                f"expected {distinct}")
            if parent_sims != (distinct if jobs == 1 else 0):
                problems.append(f"cold sweep: SIM_RUNS moved by "
                                f"{parent_sims} in the parent")

            # Warm replay: drop the in-process memo so every record comes
            # back through the disk cache.
            runner.clear_cache()
            warm_log = _EventLog()
            sims_before = runner.SIM_RUNS
            warm = engine.run_specs(specs, jobs=jobs, progress=warm_log)
            warm_sims = (len(warm_log.kinds("finished"))
                         + runner.SIM_RUNS - sims_before)
            if warm_sims:
                problems.append(f"warm replay simulated {warm_sims} specs")
            if [r.to_json() for r in warm] != [r.to_json() for r in cold]:
                problems.append("warm replay records differ from the cold "
                                "sweep's")
            record_bytes = sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(root) for f in files)
        finally:
            runner.set_disk_cache(None)
            runner.clear_cache()
            shutil.rmtree(root, ignore_errors=True)
            shutil.rmtree(times_dir, ignore_errors=True)

        # The engine's job wall runs from submission to the record in
        # the parent; what the worker did not spend running is the
        # job's wait in the pool's queue (and its pickling).
        finished = cold_log.kinds("finished")
        waits = [e.wall_s - run_s[e.spec_key] for e in finished]
        runs = []
        seen = set()
        for spec, record in zip(specs, cold):
            if spec in seen:
                continue
            seen.add(spec)
            runs.append(run_from(label_of(spec),
                                 run_s[diskcache.spec_key(spec)], record,
                                 spec.monitoring))
        points: Dict[RunSpec, float] = {}
        for spec in dict.fromkeys(specs):
            point = replace(spec, benchmark="")
            points[point] = (points.get(point, 0.0)
                             + run_s[diskcache.spec_key(spec)])
        return Iteration(
            runs=runs, sim_wall_s=cold_wall,
            run_walls=list(points.values()),
            problems=problems,
            details={"queue_wait_s": sum(waits) / len(waits),
                     "record_bytes": record_bytes})


class DoctorStorm(Workload):
    """``repro doctor --storm`` on ``phased`` and ``pmd`` with the
    ``run --trace --record`` observer set (telemetry, lineage, health).

    How long each seeded experiment lasts before its revert depends on
    the sampled miss rates, so the simulated totals move by several
    percent from seed to seed.  The iterations therefore cycle through
    six seeds, and the modelled metrics are their average.  One doctor
    pass (both programs) is one ``run_s`` sample: the two programs'
    run times differ by half, so per-program samples would make the
    median jump between them."""

    name = "doctor-storm"
    programs = ("phased", "pmd")
    subseeds = 6
    min_iterations = subseeds + 1

    def __init__(self):
        #: benchmark -> its run without co-allocation and monitoring,
        #: which consumes no randomness and so serves every seed
        self.baselines: Dict[str, Run] = {}

    def specs(self, seed):
        return [RunSpec(p, coalloc=True, monitoring=True, seed=seed)
                for p in self.programs]

    def build_vm(self, spec, fastpath=None):
        return self._storm_vm(spec, fastpath=fastpath)[0]

    def _storm_vm(self, spec, fastpath=None):
        from repro.health import HealthMonitor
        from repro.lineage import DecisionLedger
        from repro.telemetry import Telemetry

        telemetry, ledger, health = (Telemetry(), DecisionLedger(),
                                     HealthMonitor())
        vm, workload = runner.make_vm(spec.benchmark, spec,
                                      telemetry=telemetry, lineage=ledger,
                                      health=health, fastpath=fastpath)
        qualified = (workload.hot_fields[0] if workload.hot_fields
                     else "String::value")
        exps.seed_revert_storm(vm, exps.resolve_field(vm.program, qualified),
                               count=STORM_COUNT)
        return vm, telemetry, ledger, health

    def prefix_covered(self, vm):
        """Also the first revert: the storm's decision path.  A run
        whose storm never reverts is checked to its end."""
        return (super().prefix_covered(vm)
                and bool(vm.controller.feedback.reverted_experiments()))

    def prefix_set_problems(self, references):
        if any(reference["reverted"] for reference in references):
            return []
        return ["no checked storm prefix reaches a revert"]

    def prepare(self, seed, work_dir):
        # The no-co-allocation baselines the storm runs are compared
        # against.  Deterministic, so simulated once, outside the window.
        for spec in self.specs(seed):
            base = replace(spec, coalloc=False, monitoring=False)
            t0 = time.perf_counter()
            result = runner.execute(base)
            self.baselines[spec.benchmark] = run_from(
                label_of(base), time.perf_counter() - t0, result, False)

    def iterate(self, seed, jobs, work_dir, tracer=None):
        from repro.lineage import explain

        runner.clear_cache()
        run_one, export = self._run_one, self._export
        if tracer is not None:
            run_one = tracer.wrap(run_one, "bench.doctor_run", new_run=True)
            export = tracer.wrap(export, "observers.export")
        runs, problems = [], []
        details = dict.fromkeys(("telemetry_spans", "lineage_entries",
                                 "health_intervals", "record_bytes"), 0)
        details["export_s"] = 0.0
        for spec in self.specs(seed):
            t0 = time.perf_counter()
            result, report, record, telemetry, ledger = run_one(
                spec, work_dir, export, details)
            by_id = explain.index_entries(record.lineage)
            found = explain.validate(record.lineage)
            for finding in report.findings:
                found += [f"{finding.detector}: evidence id {eid} not in "
                          "the ledger" for eid in finding.ledger_ids
                          if eid not in by_id]
            label = label_of(spec)
            problems += [f"{label}: {p}" for p in found]
            details["telemetry_spans"] += len(telemetry.tracer.spans)
            details["lineage_entries"] += len(ledger)
            details["health_intervals"] += report.intervals
            runs.append(run_from(label, time.perf_counter() - t0, result,
                                 True))
        sim_wall_s = sum(r.wall_s for r in runs)
        return Iteration(runs=runs, sim_wall_s=sim_wall_s,
                         run_walls=[sim_wall_s], problems=problems,
                         details=details)

    def _run_one(self, spec, work_dir, export, details):
        """One doctor run: the storm, its health report, the export."""
        vm, telemetry, ledger, health = self._storm_vm(spec)
        result = vm.run()
        report = health.report(result.cycles)
        t0 = time.perf_counter()
        record = export(spec, result, telemetry, work_dir, details)
        details["export_s"] += time.perf_counter() - t0
        return result, report, record, telemetry, ledger

    @staticmethod
    def _export(spec, result, telemetry, work_dir, details):
        """Mint the run's record (with ledger and health report) and
        write it and the Chrome trace, as ``run --trace --record`` does."""
        from repro.telemetry.export import write_chrome_trace

        record = runner.record_from_result(spec, result)
        text = json.dumps(record.to_json())
        with open(os.path.join(work_dir, f"{spec.benchmark}.json"),
                  "w") as fh:
            fh.write(text)
        write_chrome_trace(
            os.path.join(work_dir, f"{spec.benchmark}.trace.json"),
            telemetry.tracer, telemetry.metrics,
            {"benchmark": spec.benchmark, "seed": spec.seed})
        details["record_bytes"] += len(text)
        return record

    def coalloc_pairs(self, runs):
        return [(r, self.baselines[r.label.split("/")[0]]) for r in runs]


WORKLOADS = {w.name: w for w in (DbCoalloc(), FigureSweep(), DoctorStorm())}


def prefix_check(name: str, spec_doc: dict) -> tuple:
    """Reference (fastpath 0) and default-path (fastpath 2) fingerprints
    of one spec's prefix, both bounded where the reference's prefix is
    covered.  Top level so a worker can run it."""
    workload = WORKLOADS[name]
    spec = RunSpec(**spec_doc)
    reference, bound = workload.prefix_run(spec, 0)
    fast, _ = workload.prefix_run(spec, 2, stop_at=bound)
    return reference, fast
