#!/usr/bin/env python3
"""The repository's benchmark: end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload db-coalloc --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced and one traced iteration (serially),
checks that both simulate identical statistics, and reports the
per-layer metrics and the tracing overhead; on ``figure-sweep`` a
pooled untraced sweep in between supplies the engine's queue wait.  Either way every counted
run is checked (see ``checks`` below) and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, spans and collapsed stacks are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Setup is measured this many times per run (fresh interpreters);
#: the median is reported.
SETUP_REPEATS = 7

#: Linux prctl option that makes orphaned descendants this process's
#: children instead of init's.
PR_SET_CHILD_SUBREAPER = 36


def pin_env(work_dir: str, jobs: int) -> dict:
    """Pin every environment knob the simulator and harness read, so a
    run never depends on the caller's shell and never writes outside
    the checkout (``results/.cache`` included)."""
    pins = {
        "REPRO_FASTPATH": "2",
        "REPRO_JOBS": str(jobs),
        "REPRO_DISK_CACHE": "0",
        "REPRO_CACHE_DIR": os.path.join(work_dir, "repro-cache"),
        "TMPDIR": work_dir,
        "PYTHONPATH": os.pathsep.join([SRC, HERE]),
    }
    os.environ.update(pins)
    return pins


def tail(values):
    """(value, rank, n): the highest order statistic with at least ten
    samples above it, but never below the upper median -- with fewer
    than 22 samples no rank above the median has ten beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 11, n // 2)
    return ordered[rank], rank + 1, n


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited-for
    children (the engine's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def setup_times(name: str, seed: int, jobs: int) -> list:
    """Set-up seconds of ``SETUP_REPEATS`` fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name,
             str(seed), str(jobs)],
            check=True, capture_output=True, text=True, timeout=120)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def check_prefixes(workload, specs: list, jobs: int, ledger) -> dict:
    """Fail every spec whose prefix differs between the reference
    interpreter and the default fast path, or reaches no minor
    collection, and every run on the workload's problems with the
    prefixes as a whole.  Returns label -> cycles the prefix covered."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from dataclasses import asdict

    from workloads import label_of, prefix_check

    distinct = list(dict.fromkeys(specs))
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
        futures = [pool.submit(prefix_check, workload.name, asdict(spec))
                   for spec in distinct]
        outcomes = [f.result() for f in futures]
    for spec, (reference, fast) in zip(distinct, outcomes):
        if reference != fast:
            ledger.fail_label(label_of(spec), (
                f"prefix differs from the reference interpreter: "
                f"{json.dumps(reference, sort_keys=True)} != "
                f"{json.dumps(fast, sort_keys=True)}"))
        elif not reference["gc.minor_gcs"]:
            ledger.fail_label(label_of(spec),
                              "the checked prefix has no minor collection")
    for problem in workload.prefix_set_problems(
            [reference for reference, _ in outcomes]):
        ledger.fail_all(problem)
    return {label_of(spec): reference["cycles"]
            for spec, (reference, _) in zip(distinct, outcomes)}


class Ledger:
    """Counted runs and the checks that failed them."""

    def __init__(self):
        self.runs = []          # every counted Run, in order
        self.failed = set()     # indices into runs
        self.crashed = 0        # runs of iterations that raised
        self.problems = []

    def add_iteration(self, iteration) -> None:
        first = len(self.runs)
        self.runs += iteration.runs
        if iteration.problems:
            self.problems += iteration.problems
            self.failed.update(range(first, len(self.runs)))

    def add_crash(self, planned: int, problem: str) -> None:
        self.crashed += planned
        self.problems.append(problem)

    def fail_all(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed.update(range(len(self.runs)))

    def fail_label(self, label: str, problem: str) -> None:
        self.problems.append(f"{label}: {problem}")
        self.failed.update(i for i, run in enumerate(self.runs)
                           if run.label == label)

    def check_repeats(self) -> None:
        """Every run of a spec must simulate what its first run did."""
        first = {}
        for i, run in enumerate(self.runs):
            stats = run.fingerprint()
            if first.setdefault(run.label, stats) != stats:
                self.failed.add(i)
                self.problems.append(f"{run.label}: simulated statistics "
                                     "changed between repeated runs")

    @property
    def attempted(self) -> int:
        return len(self.runs) + self.crashed

    @property
    def failures(self) -> int:
        return len(self.failed) + self.crashed


def modelled(workload, iterations) -> dict:
    """The modelled-design metrics (exact for a seed): per-iteration
    totals averaged over the workload's sub-seeds, and ratios of sums."""
    runs = [r for it in iterations for r in it.runs]
    monitored = [r for r in runs if r.monitored]
    pairs = workload.coalloc_pairs(runs)
    return {
        "sim_cycles": sum(r.cycles for r in runs) / len(iterations),
        "l1d_misses": sum(r.counters["L1D_MISS"] for r in runs)
        / len(iterations),
        "monitoring_overhead_pct": 100.0 * sum(
            r.monitoring_cycles for r in monitored)
        / sum(r.cycles for r in monitored),
        "coalloc_l1d_ratio": sum(c.counters["L1D_MISS"] for c, _ in pairs)
        / sum(b.counters["L1D_MISS"] for _, b in pairs),
        "coalloc_cycle_ratio": sum(c.cycles for c, _ in pairs)
        / sum(b.cycles for _, b in pairs),
    }


def iterate_safely(workload, ledger, index, seed, *args, **kwargs):
    try:
        iteration = workload.iterate(seed, *args, **kwargs)
    except Exception:
        traceback.print_exc()
        ledger.add_crash(len(workload.specs(seed)),
                         f"iteration {index} raised")
        return None
    ledger.add_iteration(iteration)
    return iteration


def timed_run(workload, seed, seconds, jobs, work, ledger, report):
    """End-to-end metrics over a window of about ``seconds``."""
    from workloads import PREFIX_STEP

    workload.prepare(seed, work)
    # Lazy imports and first-call set-up happen once per process; pay
    # them before the window.
    workload.prefix_run(workload.specs(seed)[0], 2, stop_at=PREFIX_STEP)

    iterations = []
    start = time.perf_counter()
    planned = workload.min_iterations
    rss = None
    while len(iterations) < planned:
        index = len(iterations)
        iteration = iterate_safely(workload, ledger, index,
                                   workload.iteration_seed(seed, index),
                                   jobs, work)
        if iteration is None:
            break
        iterations.append(iteration)
        if index == 0:
            first = time.perf_counter() - start
            planned = max(planned, int(seconds / first))
        if len(iterations) == workload.subseeds:
            # After a fixed amount of work, so that the iteration count
            # (which follows host speed) cannot move the peak.
            rss = peak_rss_mb()
    window = time.perf_counter() - start
    if rss is None:
        return None

    walls = [w for it in iterations for w in it.run_walls]
    tail_value, tail_rank, tail_n = tail(walls)
    metrics = {
        "sim_mips": statistics.median(
            sum(r.instructions for r in it.runs) / it.sim_wall_s / 1e6
            for it in iterations),
        "run_s.p50": statistics.median(walls),
        "run_s.tail": tail_value,
        "specs_per_s": statistics.median(
            len(it.runs) / it.sim_wall_s for it in iterations),
        "peak_rss_mb": rss,
    }
    metrics.update(modelled(workload, iterations[:workload.subseeds]))
    report.update(seeds=[workload.iteration_seed(seed, i)
                         for i in range(workload.subseeds)],
                  iterations=len(iterations), window_s=window,
                  run_s_tail={"rank": tail_rank, "samples": tail_n},
                  run_walls=walls)
    return metrics


def traced_run(workload, seed, jobs, work, ledger, report):
    """Per-layer metrics: an untraced and a traced serial iteration
    (and, on a workload that uses the engine's pool, an untraced pooled
    one for the queue wait)."""
    from tracing import LayerTracer
    from workloads import PREFIX_STEP

    workload.prepare(seed, work)
    workload.prefix_run(workload.specs(seed)[0], 2, stop_at=PREFIX_STEP)

    t0 = time.perf_counter()
    untraced = iterate_safely(workload, ledger, 0, seed, 1, work)
    untraced_s = time.perf_counter() - t0
    pooled = (iterate_safely(workload, ledger, 0, seed, jobs, work)
              if workload.uses_pool else untraced)
    tracer = LayerTracer(root=f"bench.{workload.name}")
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = tracer.wrap(iterate_safely, "bench.iteration")(
            workload, ledger, 1, seed, 1, work, tracer=tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    if untraced is None or traced is None or pooled is None:
        return None
    if [r.fingerprint() for r in untraced.runs] != \
            [r.fingerprint() for r in traced.runs]:
        ledger.fail_all("traced run simulated different statistics from "
                        "the untraced run")

    runs = traced.runs

    def count(event: str) -> int:
        return sum(r.counters[event] for r in runs)

    layers = tracer.layer_self_s()
    calls = tracer.calls
    instructions = count("INSTRUCTIONS")
    accesses = count("L1D_ACCESS")
    lookups = calls("hw.translate.translation_for")
    built = calls("hw.translate.translate")
    compiles = calls("jit.compile_baseline") + calls("jit.compile_opt")
    details = traced.details
    metrics = {
        "hw.cpu.self_s": layers["hw.cpu"],
        "hw.cpu.ns_per_instr": layers["hw.cpu"] / instructions * 1e9,
        "hw.memsys.access_run_segments.calls":
            calls("hw.memsys.access_run_segments"),
        "hw.memsys.access.calls": calls("hw.memsys.access"),
        "hw.memsys.self_s": layers["hw.memsys"],
        "hw.memsys.ns_per_access": layers["hw.memsys"] / accesses * 1e9,
        "hw.memsys.l1d_miss_ratio": count("L1D_MISS") / accesses,
        "hw.memsys.l2_miss_ratio": count("L2_MISS") / count("L2_ACCESS"),
        "hw.memsys.dtlb_miss_ratio":
            count("DTLB_MISS") / count("DTLB_ACCESS"),
        "hw.translate.translation_for.calls": lookups,
        "hw.translate.built": built,
        "hw.translate.hit_ratio": 1.0 - built / lookups if lookups else 0.0,
        "hw.translate.self_s": layers["hw.translate"],
        "jit.compile_baseline.calls": calls("jit.compile_baseline"),
        "jit.compile_opt.calls": calls("jit.compile_opt"),
        "jit.self_s": layers["jit"],
        "jit.ms_per_method":
            layers["jit"] * 1e3 / compiles if compiles else 0.0,
        "gc.collect_minor.calls": calls("gc.collect_minor"),
        "gc.collect_full.calls": calls("gc.collect_full"),
        "gc.self_s": layers["gc"],
        "gc.coallocated_objects": sum(r.coallocated for r in runs),
        "gc.sim_share": sum(r.gc_cycles for r in runs)
        / sum(r.cycles for r in runs),
        "perfmon.on_interrupt.calls": calls("perfmon.on_interrupt"),
        "perfmon.samples_read": tracer.samples_read,
        "core.process_samples.calls": calls("core.process_samples"),
        "core.on_period.calls": calls("core.on_period"),
        "core.feedback.reverts": sum(r.reverts for r in runs),
        "monitoring.self_s": layers["monitoring"],
        "telemetry.spans": details.get("telemetry_spans", 0),
        "lineage.entries": details.get("lineage_entries", 0),
        "health.intervals": details.get("health_intervals", 0),
        "observers.self_s": layers["observers"],
        "observers.export_s": details.get("export_s", 0.0),
        "harness.engine.queue_wait_s":
            pooled.details.get("queue_wait_s", 0.0),
        "harness.diskcache.put.calls": calls("harness.diskcache.put"),
        "harness.diskcache.put.self_s": tracer.self_s("harness.diskcache.put"),
        "harness.diskcache.get.calls": calls("harness.diskcache.get"),
        "harness.diskcache.get.self_s": tracer.self_s("harness.diskcache.get"),
        "harness.record.self_s": sum(
            tracer.self_s(n) for n in tracer.stats
            if n.startswith("harness.record.")),
        "harness.record.bytes": details.get("record_bytes", 0),
        "workloads.build.self_s": layers["workloads"],
        "vm.init.self_s": layers["vm"],
        "unattributed.self_s": layers["unattributed"],
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }

    traces = os.path.join(OUT, "traces")
    os.makedirs(traces, exist_ok=True)
    stem = os.path.join(traces, f"{workload.name}-s{seed}")
    tracer.write(stem + ".spans.json", stem + ".collapsed",
                 {"workload": workload.name, "seed": seed,
                  "runs": [r.label for r in runs]})
    total = sum(layers.values())
    report.update(seeds=[seed], untraced_s=untraced_s, traced_s=traced_s,
                  layer_self_s=layers,
                  layer_share={k: v / total for k, v in layers.items()},
                  spans=stem + ".spans.json",
                  collapsed=stem + ".collapsed")
    return metrics


def adopt_orphans() -> None:
    """Become the subreaper of every process this run starts, so that
    helpers outliving their parent (a set-up probe's pool, say) are
    reparented here and :func:`reap_children` can wait for them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list:
    """Processes whose parent is this one, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the fields after it do not.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float = 10.0) -> None:
    """Stop the multiprocessing helpers this process started (the
    resource tracker that a spawn-context pool leaves running until
    the interpreter exits) and wait for every child, adopted orphans
    included.  Whatever has not ended after ``grace_s`` is killed."""
    from multiprocessing import forkserver, resource_tracker

    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def main(argv=None) -> int:
    adopt_orphans()
    try:
        return measure(argv)
    finally:
        reap_children()


def measure(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("db-coalloc", "figure-sweep",
                                 "doctor-storm"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (RunSpec.seed; default 1)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: src/repro not found next to perfbench/; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    jobs = min(2, os.cpu_count() or 1)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    pins = pin_env(work, jobs)
    sys.path[:0] = [SRC, HERE]
    from workloads import DEFAULT_SEED, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    report = {"workload": workload.name, "seed": seed,
              "default_seed": DEFAULT_SEED, "seconds": args.seconds,
              "trace": args.trace, "jobs": jobs, "env": pins}
    try:
        if args.trace:
            metrics = traced_run(workload, seed, jobs, work, ledger, report)
        else:
            metrics = timed_run(workload, seed, args.seconds, jobs, work,
                                ledger, report)
        if metrics is None:
            print("perfbench: no iteration completed", file=sys.stderr)
            return 1
        ledger.check_repeats()
        report["prefix_cycles"] = check_prefixes(
            workload, [spec for counted in report["seeds"]
                       for spec in workload.specs(counted)], jobs, ledger)
        if not args.trace:
            setups = setup_times(workload.name, seed, jobs)
            metrics["setup_s"] = statistics.median(setups)
            report["setup_s_samples"] = setups
            metrics["success_rate"] = 1.0 - ledger.failures / \
                ledger.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report.update(attempted=ledger.attempted, failed=ledger.failures,
                  problems=ledger.problems, metrics=metrics)
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-s{seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"perfbench {workload.name}: seed {seed} (default "
          f"{DEFAULT_SEED}), jobs {jobs}, trace {args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in sorted(pins.items())))
    if args.trace:
        print(f"untraced {report['untraced_s']:.3f} s, traced "
              f"{report['traced_s']:.3f} s; self-time share by layer:")
        for layer, share in sorted(report["layer_share"].items(),
                                   key=lambda kv: -kv[1]):
            print(f"  {layer:24s} {100 * share:6.2f} %")
    else:
        tail_info = report["run_s_tail"]
        print(f"{report['iterations']} iteration(s) in "
              f"{report['window_s']:.2f} s; run_s.tail is rank "
              f"{tail_info['rank']} of {tail_info['samples']} samples")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]!r:>24} {unit}")
    if not args.trace:
        print(f"  {'error_rate':40s} {1.0 - metrics['success_rate']!r:>24} "
              "ratio")
        for ratio in ("l1d", "cycle"):
            print(f"  {'coalloc_' + ratio + '_reduction_pct':40s} "
                  f"{100 * (1 - metrics['coalloc_' + ratio + '_ratio'])!r:>24}"
                  " %")
    for problem in ledger.problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": ledger.failures == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failures,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
