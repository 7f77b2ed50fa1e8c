"""The built-in benchmark cases.

Each case is one CI gate (a speedup floor, an overhead ceiling, a
bit-identity check), plus a full-suite smoke case.  Case functions
return a **flat metrics dict** — booleans for identity
properties, numbers for everything else — and never print or assert:
gate evaluation and reporting belong to the caller.

Cache hygiene: every case must actually simulate, so each one pins the
runner's cache state explicitly (no disk layer unless the case manages
its own, fresh memo).  :func:`repro.bench.execute.run_case` restores
the surrounding state afterwards.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict

from repro.bench.registry import BenchCase, Gate, register


def _timed_interp_run(spec, fastpath, repeats: int):
    """Best-of-``repeats`` wall time for one interpreter choice.

    ``fastpath`` is any :func:`repro.core.config.fastpath_level`
    setting: a bool (False = reference, True = fastest) or an explicit
    level 0/1/2.
    """
    from repro.harness import runner
    from repro.harness.record import RunRecord

    best = None
    doc = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = runner.execute(spec, fastpath=fastpath)
        elapsed = time.perf_counter() - start
        doc = RunRecord.from_result(result).to_json()
        if best is None or elapsed < best:
            best = elapsed
    return doc, best


def run_interp(params: Dict[str, object]) -> Dict[str, object]:
    """Reference interpreter vs the closure-threaded fast path."""
    from repro.harness import runner
    from repro.harness.runner import RunSpec

    runner.set_disk_cache(None)
    runner.clear_cache()
    repeats = int(params["repeats"])
    spec = RunSpec(benchmark=str(params["benchmark"]), monitoring=True)
    ref_doc, ref_s = _timed_interp_run(spec, False, repeats)
    fast_doc, fast_s = _timed_interp_run(spec, True, repeats)
    speedup = ref_s / fast_s if fast_s else float("inf")
    mips = (fast_doc["instructions"] / fast_s / 1e6) if fast_s else None
    return {
        "benchmark": params["benchmark"],
        "instructions": ref_doc["instructions"],
        "repeats": repeats,
        "reference_seconds": round(ref_s, 3),
        "fastpath_seconds": round(fast_s, 3),
        "speedup": round(speedup, 3),
        "fastpath_mips": round(mips, 3) if mips else None,
        "min_speedup": params["min_speedup"],
        "identical": fast_doc == ref_doc,
    }


register(BenchCase(
    name="interp",
    description="translated fast path vs reference interpreter "
                "(bit-identity + speedup floor)",
    run=run_interp,
    params={"benchmark": "compress", "repeats": 2, "min_speedup": 1.5},
    gates=(
        Gate("identical", "==", True,
             "fast-path record bit-identical to the reference record"),
        Gate("speedup", ">=", "min_speedup",
             "translated/reference speedup floor"),
    ),
    primary_metric="speedup",
    primary_direction="higher",
    compare_threshold=0.15,
))


def run_interp_superblock(params: Dict[str, object]) -> Dict[str, object]:
    """Superblock fast path (level 2) vs per-instruction fast path (1).

    The two levels alternate run by run (1, 2, 1, 2, ...) and each
    keeps its best of ``repeats``, so a slow stretch of host noise
    hits both sides instead of one level's whole batch.
    """
    from repro.harness import runner
    from repro.harness.runner import RunSpec

    runner.set_disk_cache(None)
    runner.clear_cache()
    repeats = int(params["repeats"])
    spec = RunSpec(benchmark=str(params["benchmark"]), monitoring=True)
    per_walls, sb_walls = [], []
    for _ in range(repeats):
        per_doc, elapsed = _timed_interp_run(spec, 1, 1)
        per_walls.append(elapsed)
        sb_doc, elapsed = _timed_interp_run(spec, 2, 1)
        sb_walls.append(elapsed)
    per_s, sb_s = min(per_walls), min(sb_walls)
    speedup = per_s / sb_s if sb_s else float("inf")
    mips = (sb_doc["instructions"] / sb_s / 1e6) if sb_s else None
    return {
        "benchmark": params["benchmark"],
        "instructions": per_doc["instructions"],
        "repeats": repeats,
        "per_instruction_seconds": round(per_s, 3),
        "superblock_seconds": round(sb_s, 3),
        "speedup": round(speedup, 3),
        "superblock_mips": round(mips, 3) if mips else None,
        "min_speedup": params["min_speedup"],
        "identical": sb_doc == per_doc,
    }


register(BenchCase(
    name="interp_superblock",
    description="superblock fast path vs per-instruction fast path "
                "(bit-identity + speedup floor)",
    run=run_interp_superblock,
    params={"benchmark": "compress", "repeats": 5, "min_speedup": 1.5},
    gates=(
        Gate("identical", "==", True,
             "superblock record bit-identical to the per-instruction "
             "record"),
        Gate("speedup", ">=", "min_speedup",
             "superblock/per-instruction speedup floor"),
    ),
    primary_metric="speedup",
    primary_direction="higher",
    compare_threshold=0.15,
))


def _compile_pass(benchmarks):
    """Baseline-compile and translate every method of ``benchmarks``.

    Each benchmark gets a fresh program and VM at fastpath level 2, so
    every method is JIT-compiled and translated (superblocks included)
    exactly once.  Returns ``(seconds, sources)``: the seconds cover
    only compilation plus translation, and ``sources`` lists each
    method's generated superblock source.
    """
    from repro.harness.runner import RunSpec, make_vm
    from repro.hw.translate import superblock_source, translation_for

    seconds = 0.0
    sources = []
    for benchmark in benchmarks:
        vm, workload = make_vm(benchmark, RunSpec(benchmark=benchmark),
                               fastpath=2)
        methods = workload.program.all_methods()
        start = time.perf_counter()
        cms = [vm.compiled_code_for(m) for m in methods]
        for cm in cms:
            translation_for(cm, vm.cpu)
        seconds += time.perf_counter() - start
        for cm in cms:
            built = superblock_source(cm)
            sources.append(built[0] if built else None)
    return seconds, sources


def run_translate(params: Dict[str, object]) -> Dict[str, object]:
    """JIT plus translation per method, on a cold and a warm cache.

    The cold pass starts from an empty superblock factory cache, so it
    pays one ``compile()`` per distinct source; the warm pass repeats
    the same work and must only hit the cache.  Both are best-of-
    ``repeats`` (each cold repetition clears the cache first).
    """
    from repro.hw.translate import _compiled_factory

    benchmarks = [str(b) for b in params["benchmarks"]]
    repeats = int(params["repeats"])
    cold = []
    for _ in range(repeats):
        _compiled_factory.cache_clear()
        cold.append(_compile_pass(benchmarks))
    cold_misses = _compiled_factory.cache_info().misses
    warm = [_compile_pass(benchmarks) for _ in range(repeats)]
    warm_misses = _compiled_factory.cache_info().misses - cold_misses
    methods = len(cold[0][1])
    return {
        "benchmarks": ",".join(benchmarks),
        "methods": methods,
        "repeats": repeats,
        "cold_ms_per_method": round(
            min(s for s, _ in cold) * 1e3 / methods, 4),
        "warm_ms_per_method": round(
            min(s for s, _ in warm) * 1e3 / methods, 4),
        "cold_misses": cold_misses,
        "warm_misses": warm_misses,
        "identical_source": all(sources == cold[0][1]
                                for _, sources in cold + warm),
    }


register(BenchCase(
    name="translate",
    description="JIT plus translation of every method, ms/method on a "
                "cold and a warm superblock factory cache",
    run=run_translate,
    params={"benchmarks": ["jython", "fop"], "repeats": 3},
    gates=(
        Gate("identical_source", "==", True,
             "cold and warm passes generate identical superblock source"),
        Gate("warm_misses", "<=", 0,
             "the warm pass compiles nothing"),
    ),
    primary_metric="warm_ms_per_method",
    primary_direction="lower",
    compare_threshold=0.30,
))


def run_interp_snapshot(params: Dict[str, object]) -> Dict[str, object]:
    """Snapshot/resume: bit-identity plus the resumed-delta wall bound.

    Splits one run into two legs at ``cut_fraction`` of its cycle
    count.  The second leg (restore the checkpoint from wire bytes,
    advance to the end, finish) must reproduce the unbroken record
    bit-for-bit and cost at most ``max_delta_ratio`` of the full-run
    wall time — the property that makes extending cached runs cheap.
    """
    from dataclasses import replace

    from repro.harness import runner
    from repro.harness.record import RunRecord
    from repro.harness.runner import RunSpec
    from repro.vm.snapshot import Snapshot

    runner.set_disk_cache(None)
    runner.clear_cache()
    repeats = int(params["repeats"])
    spec = RunSpec(benchmark=str(params["benchmark"]), coalloc=True,
                   monitoring=True)
    full_doc, full_s = _timed_interp_run(spec, None, repeats)

    cut = int(full_doc["cycles"] * float(params["cut_fraction"]))
    snaps = []
    runner.execute(replace(spec, until_cycles=cut),
                   on_checkpoint=snaps.append)
    wire = snaps[-1].to_bytes()

    best_delta = None
    resumed_doc = None
    for _ in range(repeats):
        start = time.perf_counter()
        vm = Snapshot.from_bytes(wire).restore()
        vm.advance()
        result = vm.finish()
        elapsed = time.perf_counter() - start
        resumed_doc = RunRecord.from_result(result).to_json()
        if best_delta is None or elapsed < best_delta:
            best_delta = elapsed

    ratio = best_delta / full_s if full_s else float("inf")
    return {
        "benchmark": params["benchmark"],
        "repeats": repeats,
        "cut_fraction": params["cut_fraction"],
        "cut_cycle": snaps[-1].cycle,
        "snapshot_kib": round(len(wire) / 1024, 1),
        "full_seconds": round(full_s, 3),
        "delta_seconds": round(best_delta, 3),
        "delta_ratio": round(ratio, 3),
        "max_delta_ratio": params["max_delta_ratio"],
        "identical": resumed_doc == full_doc,
    }


register(BenchCase(
    name="interp_snapshot",
    description="snapshot/resume: resumed run bit-identical to the "
                "unbroken run, resumed delta within its wall-time bound",
    run=run_interp_snapshot,
    params={"benchmark": "fop", "repeats": 2, "cut_fraction": 0.7,
            "max_delta_ratio": 0.5},
    gates=(
        Gate("identical", "==", True,
             "resumed record bit-identical to the unbroken record"),
        Gate("delta_ratio", "<=", "max_delta_ratio",
             "second-leg wall time / full-run wall time ceiling"),
    ),
    primary_metric="delta_ratio",
    primary_direction="lower",
    compare_threshold=0.20,
))


def run_engine(params: Dict[str, object]) -> Dict[str, object]:
    """Engine cold serial vs cold parallel, then zero-work warm replay."""
    from repro.harness import engine, runner
    from repro.harness import experiments as ex
    from repro.harness.diskcache import DiskCache

    benchmarks = [str(b) for b in params["benchmarks"]]
    jobs = engine.resolve_jobs(params["jobs"])
    specs = ex.figure_specs(benchmarks,
                            heap_mults=tuple(params["heap_mults"]))

    def cold_run(n_jobs, cache_root):
        runner.clear_cache()
        runner.set_disk_cache(DiskCache(root=cache_root))
        start = time.perf_counter()
        records = engine.run_specs(specs, jobs=n_jobs)
        elapsed = time.perf_counter() - start
        return [r.to_json() for r in records], elapsed

    with tempfile.TemporaryDirectory(prefix="bench-serial-") as serial_root, \
            tempfile.TemporaryDirectory(prefix="bench-par-") as par_root:
        serial_docs, serial_s = cold_run(1, serial_root)
        parallel_docs, parallel_s = cold_run(jobs, par_root)

        # Warm replay against the parallel run's disk cache, fresh
        # memo — must perform zero simulation work.
        runner.clear_cache()
        runner.set_disk_cache(DiskCache(root=par_root))
        sims_before = runner.SIM_RUNS
        start = time.perf_counter()
        engine.run_specs(specs, jobs=1)
        warm_s = time.perf_counter() - start
        warm_sims = runner.SIM_RUNS - sims_before
    runner.set_disk_cache(None)
    runner.clear_cache()

    return {
        "benchmarks": ",".join(benchmarks),
        "specs": len(specs),
        "jobs": jobs,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "warm_replay_seconds": round(warm_s, 3),
        "warm_replay_simulations": warm_sims,
        "identical": serial_docs == parallel_docs,
    }


register(BenchCase(
    name="runner",
    description="experiment engine: parallel == serial records, "
                "warm cache replays with zero simulation work",
    run=run_engine,
    params={"benchmarks": ["fop", "compress"], "jobs": None,
            "heap_mults": [1.0, 4.0]},
    gates=(
        Gate("identical", "==", True,
             "parallel records bit-identical to serial records"),
        Gate("warm_replay_simulations", "<=", 0,
             "warm-cache replay performs no simulation work"),
    ),
    primary_metric="serial_seconds",
    primary_direction="lower",
    compare_threshold=0.30,
))


#: Keys every interval entry of an audit report must carry.
AUDIT_INTERVAL_KEYS = frozenset({
    "interval", "scaled_interval", "cycles", "monitoring_cycles",
    "overhead", "samples_taken", "exact_events", "exact_attributed",
    "sampled_attributed", "fidelity", "method_overlap", "field_overlap",
    "method_spearman", "field_spearman", "field_abs_error",
    "top_methods_exact", "top_methods_sampled", "top_fields_exact",
    "top_fields_sampled",
})


def run_audit(params: Dict[str, object]) -> Dict[str, object]:
    """Sampling-fidelity audit: wall time + report-schema invariants."""
    import json

    from repro.analysis import fidelity
    from repro.harness import runner

    runner.set_disk_cache(None)
    runner.clear_cache()
    intervals = tuple(str(v) for v in params["intervals"])
    start = time.perf_counter()
    report = fidelity.audit_benchmark(str(params["benchmark"]),
                                      intervals=intervals)
    elapsed = time.perf_counter() - start
    doc = report.to_json()

    schema_ok = (doc.get("schema") == fidelity.AUDIT_SCHEMA_VERSION
                 and [ia["interval"] for ia in doc["intervals"]]
                 == list(intervals)
                 and all(not (AUDIT_INTERVAL_KEYS - set(entry))
                         and 0.0 <= entry["overhead"] < 1.0
                         and entry["exact_events"] >= entry["samples_taken"]
                         for entry in doc["intervals"]))
    scores = [ia["fidelity"] for ia in doc["intervals"]]
    metrics: Dict[str, object] = {
        "benchmark": params["benchmark"],
        "audit_wall_s": round(elapsed, 3),
        "schema_ok": schema_ok,
        "first_fidelity": scores[0] if scores else float("nan"),
        "monotone": all(a >= b for a, b in zip(scores, scores[1:])),
        "min_fidelity": params["min_fidelity"],
    }
    for entry in doc["intervals"]:
        metrics[f"fidelity_{entry['interval']}"] = entry["fidelity"]
        metrics[f"overhead_{entry['interval']}"] = round(entry["overhead"], 6)
    if params["report"]:
        with open(str(params["report"]), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return metrics


register(BenchCase(
    name="audit",
    description="sampling-fidelity audit: schema invariants, hot-set "
                "overlap floor, monotone fidelity, wall time",
    run=run_audit,
    params={"benchmark": "fop", "intervals": ["25K", "50K", "100K"],
            "min_fidelity": 0.8, "report": None},
    gates=(
        Gate("schema_ok", "==", True,
             "audit report matches its promised schema"),
        Gate("first_fidelity", ">=", "min_fidelity",
             "top-N hot-method overlap floor at the densest interval"),
        Gate("monotone", "==", True,
             "fidelity non-increasing as the interval grows"),
    ),
    primary_metric="audit_wall_s",
    primary_direction="lower",
    compare_threshold=0.30,
))


def _lineage_fingerprint(result) -> dict:
    """Every simulated surface the ledger must leave untouched."""
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "app_cycles": result.app_cycles,
        "gc_cycles": result.gc_cycles,
        "monitoring_cycles": result.monitoring_cycles,
        "counters": dict(result.counters),
        "gc_summary": result.gc_stats.summary(),
        "monitor_summary": result.monitor_summary,
        "samples_taken": result.vm.pebs.samples_taken,
    }


def run_lineage(params: Dict[str, object]) -> Dict[str, object]:
    """Decision-lineage ledger: pure observer + overhead ceiling."""
    from repro.harness import runner
    from repro.harness.runner import RunSpec
    from repro.lineage import DecisionLedger, explain

    runner.set_disk_cache(None)
    runner.clear_cache()
    spec = RunSpec(benchmark=str(params["benchmark"]), coalloc=True)
    repeats = int(params["repeats"])

    off_times, on_times = [], []
    off_fp = on_fp = None
    ledger_doc = None
    for _ in range(repeats):
        start = time.perf_counter()
        r_off = runner.execute(spec)
        off_times.append(time.perf_counter() - start)
        ledger = DecisionLedger()
        start = time.perf_counter()
        r_on = runner.execute(spec, lineage=ledger)
        on_times.append(time.perf_counter() - start)
        off_fp = _lineage_fingerprint(r_off)
        on_fp = _lineage_fingerprint(r_on)
        ledger_doc = ledger.to_json()

    best_off, best_on = min(off_times), min(on_times)
    ratio = best_on / best_off if best_off else float("inf")
    return {
        "benchmark": params["benchmark"],
        "repeats": repeats,
        "wall_off_s": round(best_off, 3),
        "wall_on_s": round(best_on, 3),
        "overhead_ratio": round(ratio, 4),
        "max_ratio": params["max_ratio"],
        "ledger_entries": len(ledger_doc["entries"]),
        "ledger_dropped": ledger_doc["dropped"],
        "ledger_valid": not explain.validate(ledger_doc),
        "bit_identical": off_fp == on_fp,
    }


register(BenchCase(
    name="lineage",
    description="decision-lineage ledger: pure observer (bit-identical "
                "simulated state) within its overhead ceiling",
    run=run_lineage,
    params={"benchmark": "db", "repeats": 3, "max_ratio": 1.10},
    gates=(
        Gate("bit_identical", "==", True,
             "ledger-on run bit-identical to ledger-off run"),
        Gate("ledger_valid", "==", True,
             "captured ledger is non-empty and internally valid"),
        Gate("ledger_entries", ">=", 1, "ledger observed the run"),
        Gate("overhead_ratio", "<=", "max_ratio",
             "ledger-on / ledger-off wall-time ceiling"),
    ),
    primary_metric="overhead_ratio",
    primary_direction="lower",
    compare_threshold=0.15,
))


def _health_fingerprint(result) -> dict:
    """Every simulated surface the health observer must leave untouched:
    the lineage fingerprint plus the feedback engine's revert log."""
    fp = _lineage_fingerprint(result)
    vm = result.vm
    fp["reverted"] = ([e.name for e in
                       vm.controller.feedback.reverted_experiments()]
                      if vm is not None and vm.controller is not None
                      else [])
    return fp


def run_health_overhead(params: Dict[str, object]) -> Dict[str, object]:
    """Run-health observatory: pure observer + overhead ceiling.

    Three properties in one case: (1) a health-on run leaves every
    simulated surface — cycles, counters, PEBS samples, the revert
    log — bit-identical to a health-off run; (2) health riding next to
    a decision ledger does not perturb a single ledger entry (the
    evidence ids findings cite are exactly the ids the ledger would
    have assigned anyway); (3) the wall-time overhead of the interval
    tap + segmentation + detectors stays under ``max_ratio``.
    """
    from repro.harness import runner
    from repro.harness.runner import RunSpec
    from repro.health import HealthMonitor
    from repro.lineage import DecisionLedger

    runner.set_disk_cache(None)
    runner.clear_cache()
    spec = RunSpec(benchmark=str(params["benchmark"]), coalloc=True)
    repeats = int(params["repeats"])

    off_times, on_times = [], []
    off_fp = on_fp = None
    report_doc = None
    for _ in range(repeats):
        start = time.perf_counter()
        r_off = runner.execute(spec)
        off_times.append(time.perf_counter() - start)
        health = HealthMonitor()
        start = time.perf_counter()
        r_on = runner.execute(spec, health=health)
        on_times.append(time.perf_counter() - start)
        off_fp = _health_fingerprint(r_off)
        on_fp = _health_fingerprint(r_on)
        report_doc = health.report(r_on.cycles).to_json()

    # Ledger-id identity: the same ledger entries, byte for byte,
    # whether or not health observed the run alongside it.
    ledger_solo, ledger_obs = DecisionLedger(), DecisionLedger()
    runner.execute(spec, lineage=ledger_solo)
    runner.execute(spec, lineage=ledger_obs, health=HealthMonitor())

    best_off, best_on = min(off_times), min(on_times)
    ratio = best_on / best_off if best_off else float("inf")
    return {
        "benchmark": params["benchmark"],
        "repeats": repeats,
        "wall_off_s": round(best_off, 3),
        "wall_on_s": round(best_on, 3),
        "overhead_ratio": round(ratio, 4),
        "max_ratio": params["max_ratio"],
        "verdict": report_doc["verdict"],
        "phases": len(report_doc["phases"]),
        "intervals": report_doc["intervals"],
        "findings": len(report_doc["findings"]),
        "bit_identical": off_fp == on_fp,
        "ledger_identical": ledger_solo.to_json() == ledger_obs.to_json(),
    }


register(BenchCase(
    name="health_overhead",
    description="run-health observatory: pure observer (bit-identical "
                "simulated state, untouched ledger ids) within its "
                "overhead ceiling",
    run=run_health_overhead,
    params={"benchmark": "db", "repeats": 3, "max_ratio": 1.10},
    gates=(
        Gate("bit_identical", "==", True,
             "health-on run bit-identical to health-off run "
             "(cycles/counters/samples/revert log)"),
        Gate("ledger_identical", "==", True,
             "ledger entries unchanged when health rides along"),
        Gate("phases", ">=", 1, "segmentation produced at least one phase"),
        Gate("overhead_ratio", "<=", "max_ratio",
             "health-on / health-off wall-time ceiling"),
    ),
    primary_metric="overhead_ratio",
    primary_direction="lower",
    compare_threshold=0.15,
))


def run_suite(params: Dict[str, object]) -> Dict[str, object]:
    """End-to-end smoke over a figure-spec slice, cold, serial."""
    from repro.harness import engine, runner
    from repro.harness import experiments as ex

    runner.set_disk_cache(None)
    runner.clear_cache()
    benchmarks = [str(b) for b in params["benchmarks"]]
    specs = ex.figure_specs(benchmarks,
                            heap_mults=tuple(params["heap_mults"]))
    sims_before = runner.SIM_RUNS
    start = time.perf_counter()
    records = engine.run_specs(specs, jobs=1)
    elapsed = time.perf_counter() - start
    sims = runner.SIM_RUNS - sims_before
    return {
        "benchmarks": ",".join(benchmarks),
        "specs": len(specs),
        "suite_wall_s": round(elapsed, 3),
        "simulations": sims,
        "completed": len(records) == len(specs) and sims == len(specs),
    }


register(BenchCase(
    name="suite",
    description="full-pipeline smoke: a figure-spec slice simulated "
                "cold and serially, wall time tracked",
    run=run_suite,
    params={"benchmarks": ["fop"], "heap_mults": [1.0, 4.0]},
    gates=(
        Gate("completed", "==", True,
             "every spec simulated exactly once, no cache interference"),
    ),
    primary_metric="suite_wall_s",
    primary_direction="lower",
    compare_threshold=0.30,
))
