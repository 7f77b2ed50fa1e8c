"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list                      the Table 1 benchmarks
run BENCH [options]       run one benchmark, print the result summary
timeline BENCH [options]  run one benchmark, print a text trace timeline
audit BENCH [options]     sampling-fidelity audit vs. exact ground truth
explain BENCH [options]   justification chain behind an online decision
doctor BENCH [options]    run-health report: online phase segmentation +
                          pathology detectors, evidence-linked to the
                          decision ledger
diff A.json B.json        structured diff of two exported run records
bench list|run|history|compare|profile
                          host-side performance observatory (see below)
table1 | table2           regenerate a table
fig2 .. fig8              regenerate a figure
ablations                 run the ablation experiments
cache stats|prune|clear   inspect, trim, or drop the persistent result
                          cache (records and resumable snapshots)
serve [options]           fleet daemon: HTTP/JSON job queue over the
                          engine with live /events and /metrics
submit BENCH... [--wait]  submit a batch to the daemon
jobs [JOB]                list the daemon's jobs (or one, --wait)
watch [--from LOG]        live fleet dashboard (or offline replay)

``bench`` runs the registered host-side benchmark cases (the CI perf
gates) with warmup/repeats and robust stats, appends every run to the
persistent ``results/bench_history.jsonl`` trajectory, scores runs
against a baseline window with improved/ok/regressed verdicts
(``compare`` exits nonzero on a regression), and self-profiles any
case into a subsystem wall-time attribution table plus collapsed
stacks for flamegraph.pl/speedscope (``profile``).

Table/figure commands accept ``--jobs N`` to fan uncached runs across N
worker processes (default: ``REPRO_JOBS`` or the CPU count; ``--jobs 1``
runs serially in-process).  Results are bit-identical either way.
``--progress`` streams live fleet events (queued/started/finished/
cache-hit, with an ETA) to stderr; ``--progress-log PATH`` appends the
same events to a JSONL log.

Examples::

    python -m repro run db --heap-mult 4 --coalloc --trace out.json
    python -m repro run db --record db.json --prom db.prom
    python -m repro audit db --json audit.json
    python -m repro explain db --fig8
    python -m repro explain db --from db.json --json lineage.json
    python -m repro doctor phased --coalloc --storm --json DOCTOR.json
    python -m repro doctor db --from db.json
    python -m repro diff a.json b.json
    python -m repro timeline db --coalloc
    python -m repro timeline phased --coalloc --phases
    python -m repro fig4 --benchmarks db,pseudojbb,compress --jobs 4
    python -m repro fig6 --progress
    python -m repro run compress --until-cycles 2000000 --checkpoint-every 500000
    python -m repro run compress --until-cycles 8000000 --resume
    python -m repro cache stats --json
    python -m repro cache prune --max-bytes 50000000 --dry-run
    python -m repro bench run --all --json BENCH_report.json
    python -m repro bench compare --from BENCH_report.json
    python -m repro bench profile interp --collapsed interp.collapsed
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness import experiments as ex
from repro.harness import report
from repro.harness.runner import RunSpec, execute
from repro.workloads import suite


def _version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def _benchmark_list(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    names = [v.strip() for v in value.split(",") if v.strip()]
    for name in names:
        if name not in suite.BENCHMARKS:
            raise SystemExit(f"unknown benchmark {name!r}; "
                             f"known: {', '.join(suite.all_names())}")
    return names


def cmd_list(args) -> None:
    for row in ex.table1():
        print(f"{row.name:10s} {row.description}")


def _run_spec(args) -> RunSpec:
    return RunSpec(
        benchmark=args.benchmark,
        heap_mult=args.heap_mult,
        coalloc=args.coalloc,
        monitoring=not args.no_monitoring,
        interval=args.interval,
        gc_plan=args.gc_plan,
        event=args.event,
        seed=args.seed,
        until_cycles=getattr(args, "until_cycles", None),
    )


def cmd_run(args) -> None:
    from repro.harness import runner
    from repro.telemetry import Telemetry
    from repro.telemetry.export import (write_chrome_trace, write_jsonl,
                                        write_prometheus)

    spec = _run_spec(args)
    telemetry = (Telemetry()
                 if (args.trace or args.metrics or args.prom
                     or args.collapsed)
                 else None)
    # Exported records carry the decision ledger (schema 3) and the
    # health report (schema 5), so `repro explain --from REC.json`,
    # `repro doctor --from REC.json`, and `repro diff` work on them
    # without re-running anything.
    lineage = None
    health = None
    if args.record:
        from repro.health import HealthMonitor
        from repro.lineage import DecisionLedger

        lineage = DecisionLedger()
        health = HealthMonitor()

    resume_from = None
    if args.resume:
        # CLI resume accepts any checkpoint, pure or not: the user
        # asked to continue *this* run, observers and all.  (The record
        # cache is stricter — see `runner.best_snapshot`.)
        disk = runner._disk()
        if disk is not None:
            resume_from = disk.get_snapshot(spec.base(),
                                            max_cycle=spec.until_cycles)
        if resume_from is None:
            raise SystemExit(
                f"run: no checkpoint to resume for this spec (run with "
                f"--checkpoint-every first, and keep the same options)")

    on_checkpoint = None
    stored = []
    if args.checkpoint_every or spec.until_cycles is not None:
        def on_checkpoint(snap):
            runner.store_snapshot(spec, snap)
            stored.append(snap)

    result = execute(spec, telemetry=telemetry, lineage=lineage,
                     health=health,
                     fastpath=False if args.no_fastpath else None,
                     resume_from=resume_from,
                     checkpoint_every=args.checkpoint_every,
                     on_checkpoint=on_checkpoint)
    if resume_from is not None:
        print(f"resumed              : from cycle {resume_from.cycle:,}")
        # The snapshot's own observers continued through the resume;
        # export whatever they accumulated, not the fresh (unused)
        # telemetry/ledger built above.
        if result.vm is not None and result.vm.telemetry.enabled:
            telemetry = result.vm.telemetry
    print(f"benchmark            : {result.program}")
    print(f"cycles               : {result.cycles:,}")
    print(f"instructions         : {result.instructions:,}")
    print(f"L1D misses           : {result.counters['L1D_MISS']:,} "
          f"(rate {result.l1_miss_rate:.4f})")
    print(f"L2 misses            : {result.counters['L2_MISS']:,}")
    print(f"DTLB misses          : {result.counters['DTLB_MISS']:,}")
    print(f"GC                   : {result.gc_stats.summary()}")
    print(f"cycles (app/gc/mon)  : {result.app_cycles:,} / "
          f"{result.gc_cycles:,} / {result.monitoring_cycles:,}")
    if result.monitor_summary:
        print(f"monitoring           : {result.monitor_summary}")
    else:
        print("monitoring           : disabled")
    truncated = result.vm is not None and bool(result.vm.cpu.frames)
    if truncated:
        print(f"truncated            : at --until-cycles {spec.until_cycles:,}"
              f" (resume with --resume)")
    if stored:
        print(f"checkpoints          : {len(stored)} stored "
              f"(cycles {', '.join(f'{s.cycle:,}' for s in stored)})")
    if telemetry is not None and args.trace:
        metadata = {"benchmark": spec.benchmark, "seed": spec.seed,
                    "gc_plan": spec.gc_plan, "coalloc": spec.coalloc}
        try:
            if args.trace.endswith(".jsonl"):
                write_jsonl(args.trace, telemetry.tracer, telemetry.metrics)
            else:
                write_chrome_trace(args.trace, telemetry.tracer,
                                   telemetry.metrics, metadata)
        except OSError as exc:
            raise SystemExit(f"cannot write trace to {args.trace!r}: {exc}")
        print(f"trace                : {args.trace} "
              f"({len(telemetry.tracer.spans)} spans; open in Perfetto)")
    if telemetry is not None and args.prom:
        try:
            write_prometheus(args.prom, telemetry.metrics)
        except OSError as exc:
            raise SystemExit(f"cannot write metrics to {args.prom!r}: {exc}")
        print(f"prometheus           : {args.prom}")
    if telemetry is not None and args.collapsed:
        from repro.telemetry.export import collapsed_stacks, write_collapsed

        try:
            lines = write_collapsed(args.collapsed,
                                    collapsed_stacks(telemetry.tracer))
        except OSError as exc:
            raise SystemExit(f"cannot write collapsed stacks to "
                             f"{args.collapsed!r}: {exc}")
        print(f"collapsed            : {args.collapsed} ({lines} stacks; "
              "feed to flamegraph.pl or speedscope)")
    if args.record:
        import json

        from repro.harness.runner import record_from_result

        record = record_from_result(
            spec, result, fastpath=False if args.no_fastpath else None)
        try:
            with open(args.record, "w") as fh:
                json.dump(record.to_json(), fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise SystemExit(f"cannot write record to {args.record!r}: {exc}")
        print(f"record               : {args.record} (repro diff input)")
    if telemetry is not None and args.metrics:
        print("metrics:")
        for line in telemetry.metrics.render().splitlines():
            print(f"  {line}")


def _load_trace_spans(path: str):
    """Rebuild span events from an exported trace (JSON or JSONL)."""
    import json

    from repro.telemetry.tracer import SpanEvent

    spans = []
    with open(path, "r") as fh:
        text = fh.read()
    if not text.strip():
        return spans
    if path.endswith(".jsonl"):
        docs = [json.loads(line) for line in text.splitlines() if line.strip()]
        events = [d for d in docs if d.get("type") == "span"]
        for d in events:
            spans.append(SpanEvent(d["name"], d["cat"], d["ts"], d["dur"],
                                   d.get("depth", 0), d.get("args")))
    else:
        doc = json.loads(text)
        for ev in doc.get("traceEvents", []):
            if ev.get("ph") == "X":
                spans.append(SpanEvent(ev["name"], ev.get("cat", "vm"),
                                       ev["ts"], ev["dur"], 0,
                                       ev.get("args")))
    return spans


def cmd_timeline(args) -> None:
    from repro.telemetry import Telemetry
    from repro.telemetry.export import format_timeline
    from repro.telemetry.tracer import Tracer

    if args.from_trace:
        if args.phases:
            raise SystemExit("timeline: --phases needs a live run (it "
                             "recomputes per-interval HPM vectors); drop "
                             "--from")
        try:
            spans = _load_trace_spans(args.from_trace)
        except OSError:
            raise SystemExit(f"timeline: no trace at {args.from_trace!r} "
                             "(run `repro run BENCH --trace PATH` first)")
        except (ValueError, KeyError, TypeError, AttributeError):
            # Malformed JSON, truncated files, and well-formed JSON of
            # the wrong shape (a list, spans missing fields, ...) all
            # land here: a readable message, never a traceback.
            raise SystemExit(f"timeline: {args.from_trace!r} is not an "
                             "exported trace (JSON or JSONL)")
        if not spans:
            print(f"timeline: no spans in {args.from_trace!r}")
            return
        tracer = Tracer()
        tracer.spans = spans
        print(format_timeline(tracer, width=args.width))
        return
    telemetry = Telemetry()
    health = None
    if args.phases:
        from repro.health import HealthMonitor

        health = HealthMonitor()
    result = execute(_run_spec(args), telemetry=telemetry, health=health,
                     fastpath=False if args.no_fastpath else None)
    print(format_timeline(telemetry.tracer, total_cycles=result.cycles,
                          width=args.width))
    if health is not None:
        from repro.health.report import format_phase_overlay, format_phase_table

        health_report = health.report(result.cycles)
        print(format_phase_overlay(health_report, result.cycles,
                                   width=args.width))
        print()
        print(format_phase_table(health_report))


def cmd_table1(args) -> None:
    print(report.format_table1(ex.table1()))


def cmd_table2(args) -> None:
    print(report.format_table2(ex.table2(args.benchmark_names,
                                         jobs=args.jobs)))


def cmd_fig2(args) -> None:
    print(report.format_fig2(ex.fig2_sampling_overhead(args.benchmark_names,
                                                       jobs=args.jobs)))


def cmd_fig3(args) -> None:
    print(report.format_fig3(ex.fig3_coalloc_counts(args.benchmark_names,
                                                    jobs=args.jobs)))


def cmd_fig4(args) -> None:
    print(report.format_fig4(ex.fig4_l1_reduction(args.benchmark_names,
                                                  jobs=args.jobs)))


def cmd_fig5(args) -> None:
    print(report.format_fig5(ex.fig5_exec_time(args.benchmark_names,
                                               jobs=args.jobs)))


def cmd_fig6(args) -> None:
    print(report.format_fig6(ex.fig6_gencopy_vs_genms(jobs=args.jobs)))


def cmd_fig7(args) -> None:
    print(report.format_fig7(ex.fig7_db_timeline()))


def cmd_fig8(args) -> None:
    print(report.format_fig8(ex.fig8_revert()))


def cmd_disasm(args) -> None:
    from repro.core.interest import analyze_compiled_method
    from repro.jit.baseline import compile_baseline
    from repro.jit.disasm import format_compiled_method
    from repro.jit.opt import compile_opt

    workload = suite.build(args.benchmark)
    wanted = args.method
    method = next((m for m in workload.program.all_methods()
                   if m.qualified_name == wanted), None)
    if method is None:
        known = ", ".join(sorted(m.qualified_name
                                 for m in workload.program.all_methods()
                                 if not m.name.startswith("cold")))
        raise SystemExit(f"no method {wanted!r}; try one of: {known}")
    cm = (compile_baseline(method) if args.baseline
          else compile_opt(method))
    cm.code_addr = 0x0800_0000  # nominal base for the listing
    interest = analyze_compiled_method(cm)
    print(format_compiled_method(cm, interest))


def cmd_ablations(args) -> None:
    from repro.harness import ablations as ab

    ev = ab.event_driver_ablation(jobs=args.jobs)
    print(f"event-driver ablation ({ev.benchmark}):")
    for event, (cycles, l1, co) in ev.by_event.items():
        print(f"  {event:10s} cycles={cycles:,} coallocated={co}")
    oracle = ab.static_oracle_ablation(jobs=args.jobs)
    print(f"\nstatic-oracle ablation ({oracle.benchmark}):")
    print(f"  online speedup {oracle.online_speedup:.1%}, "
          f"oracle speedup {oracle.oracle_speedup:.1%}")
    for name in ("compress", "db"):
        pf = ab.prefetcher_ablation(name)
        print(f"\nprefetcher off ({name}): "
              f"+{pf.slowdown_without:.1%} time, "
              f"L2 misses {pf.l2_misses_with:,} -> {pf.l2_misses_without:,}")


def cmd_audit(args) -> None:
    from repro.analysis import fidelity

    intervals = tuple(v.strip() for v in args.intervals.split(",")
                      if v.strip())
    for name in intervals:
        if name not in ("25K", "50K", "100K", "auto"):
            raise SystemExit(f"unknown interval {name!r}; "
                             "known: 25K, 50K, 100K, auto")
    report = fidelity.audit_benchmark(
        args.benchmark, intervals=intervals, seed=args.seed,
        top_n=args.top, event=args.event, coalloc=args.coalloc)
    print(fidelity.format_report(report))
    if args.json:
        import json

        try:
            with open(args.json, "w") as fh:
                json.dump(report.to_json(), fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise SystemExit(f"cannot write report to {args.json!r}: {exc}")
        print(f"\njson report: {args.json}")


def cmd_explain(args) -> None:
    from repro.lineage import DecisionLedger, explain

    if args.from_record:
        from repro.analysis.diff import load_record

        try:
            record = load_record(args.from_record)
        except OSError as exc:
            raise SystemExit(
                f"explain: cannot read {args.from_record!r}: {exc}")
        except (ValueError, KeyError, TypeError):
            raise SystemExit(f"explain: {args.from_record!r} is not an "
                             "exported run record (see `repro run "
                             "--record`)")
        doc = record.lineage
        if not doc:
            raise SystemExit(f"explain: {args.from_record!r} carries no "
                             "lineage (re-export it with this version: "
                             "`repro run BENCH --record PATH`)")
    elif args.fig8:
        from repro.harness import experiments as exps

        ledger = DecisionLedger()
        revert = exps.fig8_revert(args.benchmark, lineage=ledger)
        doc = ledger.to_json()
        print(f"fig8 intervention on {revert.benchmark}: gap applied at "
              f"period {revert.gap_applied_period}, "
              f"reverted={revert.reverted} "
              f"(period {revert.reverted_period})\n")
    else:
        ledger = DecisionLedger()
        execute(_run_spec(args), lineage=ledger,
                fastpath=False if args.no_fastpath else None)
        doc = ledger.to_json()

    problems = explain.validate(doc)
    target = explain.find_target(doc, field=args.field, revert=args.revert,
                                 decision=args.decision)
    chain = (explain.chain_ids(explain.index_entries(doc), target["id"])
             if target is not None else [])

    if args.json:
        import json

        out = {"lineage": doc, "problems": problems,
               "target": target["id"] if target else None,
               "chain": chain}
        try:
            with open(args.json, "w") as fh:
                json.dump(out, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise SystemExit(f"cannot write report to {args.json!r}: {exc}")
        print(f"json report: {args.json}")
    if args.dot:
        try:
            with open(args.dot, "w") as fh:
                fh.write(explain.to_dot(doc, chain=chain))
        except OSError as exc:
            raise SystemExit(f"cannot write graph to {args.dot!r}: {exc}")
        print(f"dot graph: {args.dot} (render with `dot -Tsvg`)")

    print(explain.format_summary(doc))
    if target is None:
        selector = (f"field {args.field!r}" if args.field
                    else f"revert #{args.revert}" if args.revert is not None
                    else f"decision #{args.decision}")
        raise SystemExit(f"explain: no decision matches {selector}")
    print(f"\njustification chain for #{target['id']}:")
    print(explain.format_chain(doc, target))
    if problems:
        print("\nlineage INVALID:")
        for problem in problems:
            print(f"  {problem}")
        raise SystemExit(1)


def cmd_doctor(args) -> None:
    """Run-health report: phase table, pathology findings, and — when a
    decision ledger rides along — each finding's evidence validated and
    justified against it.  Exits 1 only when evidence fails to resolve
    (the verdict itself is diagnosis, not a gate)."""
    from repro.health.report import HealthReport, format_findings, \
        format_phase_table
    from repro.lineage import explain

    storm_info = None
    if args.from_record:
        from repro.analysis.diff import load_record

        try:
            record = load_record(args.from_record)
        except OSError as exc:
            raise SystemExit(
                f"doctor: cannot read {args.from_record!r}: {exc}")
        except (ValueError, KeyError, TypeError):
            raise SystemExit(f"doctor: {args.from_record!r} is not an "
                             "exported run record (see `repro run "
                             "--record`)")
        if not record.health:
            raise SystemExit(f"doctor: {args.from_record!r} carries no "
                             "health report (re-export it with this "
                             "version: `repro run BENCH --record PATH`)")
        health_report = HealthReport.from_json(record.health)
        lineage_doc = record.lineage
        benchmark = record.program
    else:
        from dataclasses import replace

        from repro.harness import experiments as exps
        from repro.harness.runner import make_vm
        from repro.health import HealthMonitor
        from repro.lineage import DecisionLedger

        spec = _run_spec(args)
        health = HealthMonitor()
        ledger = DecisionLedger()
        if args.storm:
            if not spec.coalloc:
                # The storm intervenes through the co-allocation policy.
                print("doctor: --storm implies --coalloc")
                spec = replace(spec, coalloc=True)
            vm, workload = make_vm(
                args.benchmark, spec, lineage=ledger, health=health,
                fastpath=False if args.no_fastpath else None)
            qualified = (workload.hot_fields[0] if workload.hot_fields
                         else "String::value")
            fld = exps.resolve_field(vm.program, qualified)
            driver = exps.seed_revert_storm(vm, fld, count=args.storm_count)
            result = vm.run()
            storm_info = {"field": qualified, "begun": driver.begun,
                          "reverted": driver.reverted()}
            print(f"storm: {driver.begun} experiment(s) seeded on "
                  f"{qualified}, {driver.reverted()} reverted\n")
        else:
            result = execute(spec, lineage=ledger, health=health,
                             fastpath=False if args.no_fastpath else None)
        health_report = health.report(result.cycles)
        lineage_doc = ledger.to_json()
        benchmark = result.program

    print(f"doctor: {benchmark} — verdict {health_report.verdict.upper()} "
          f"({len(health_report.findings)} finding(s), "
          f"{len(health_report.phases)} phase(s), "
          f"{health_report.intervals} interval(s))")
    print()
    print(format_phase_table(health_report))
    print()
    print(format_findings(health_report))

    # Resolve every finding's evidence against the ledger and print the
    # justification chain behind each finding's primary evidence entry.
    problems: List[str] = []
    chains = {}
    if lineage_doc:
        problems.extend(explain.validate(lineage_doc))
        by_id = explain.index_entries(lineage_doc)
        for i, finding in enumerate(health_report.findings):
            resolved = []
            for eid in finding.ledger_ids:
                if eid in by_id:
                    resolved.append(eid)
                else:
                    problems.append(f"finding[{i}] ({finding.detector}): "
                                    f"evidence id {eid} not in ledger")
            if resolved:
                primary = resolved[-1]
                chains[str(i)] = explain.chain_ids(by_id, primary)
                print(f"\njustification chain for finding [{i}] "
                      f"{finding.detector} (ledger #{primary}):")
                print(explain.format_chain(lineage_doc, by_id[primary]))
    elif health_report.findings:
        print("\n(no decision ledger rode along: evidence ids not "
              "validated; run without --from, or re-export the record)")

    if args.json:
        import json

        out = {"benchmark": benchmark, "verdict": health_report.verdict,
               "report": health_report.to_json(), "storm": storm_info,
               "problems": problems, "chains": chains}
        try:
            with open(args.json, "w") as fh:
                json.dump(out, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise SystemExit(f"cannot write report to {args.json!r}: {exc}")
        print(f"\njson report: {args.json}")

    if problems:
        print("\nevidence INVALID:")
        for problem in problems:
            print(f"  {problem}")
        raise SystemExit(1)


def cmd_diff(args) -> None:
    from repro.analysis import provenance
    from repro.analysis.diff import diff_records, format_diff, load_record

    records = []
    for path in (args.record_a, args.record_b):
        try:
            records.append(load_record(path))
        except OSError as exc:
            raise SystemExit(f"diff: cannot read {path!r}: {exc}")
        except (ValueError, KeyError, TypeError):
            raise SystemExit(f"diff: {path!r} is not an exported run "
                             "record (see `repro run --record`)")
    a, b = records
    print(f"a: {provenance.describe(a.provenance)}")
    print(f"b: {provenance.describe(b.provenance)}")
    diff = diff_records(a, b, threshold=args.threshold)
    print(format_diff(diff, args.record_a, args.record_b,
                      limit=args.limit))
    if diff.significant:
        raise SystemExit(1)


def cmd_bench(args) -> None:
    from repro.bench import cli as bench_cli

    handlers = {
        "list": bench_cli.cmd_list,
        "run": bench_cli.cmd_run,
        "history": bench_cli.cmd_history,
        "compare": bench_cli.cmd_compare,
        "profile": bench_cli.cmd_profile,
    }
    handlers[args.bench_command](args)


def cmd_cache(args) -> None:
    from repro.harness import runner
    from repro.harness.diskcache import DiskCache, cache_enabled

    if not cache_enabled():
        print("disk cache disabled (REPRO_DISK_CACHE=0)")
        return
    cache = DiskCache()
    if args.cache_command == "clear":
        removed = cache.clear()
        runner.clear_cache()
        print(f"removed {removed} cached result(s) from {cache.root}")
    elif args.cache_command == "prune":
        outcome = cache.prune(max_bytes=args.max_bytes,
                              dry_run=args.dry_run)
        if not args.dry_run:
            runner.clear_cache()
        verb = "would prune" if args.dry_run else "pruned"
        tail = ("would remain" if args.dry_run else "remain")
        print(f"{verb} {outcome['removed_stale']} stale-version and "
              f"{outcome['removed_current']} current-version entr(ies); "
              f"{outcome['bytes'] / 1024:.1f} KiB {tail} in {cache.root}")
    else:
        import os

        if not os.path.isdir(cache.root):
            if args.json:
                print("{}")
            else:
                print(f"cache: no cache directory at {cache.root} "
                      "(nothing cached yet)")
            return
        stats = cache.stats()
        if args.json:
            import json

            print(json.dumps(stats, indent=1, sort_keys=True))
            return
        if stats["entries"] == 0 and stats["stale_entries"] == 0:
            print(f"cache: empty at {cache.root} (nothing cached yet)")
            return
        rec, snap = stats["records"], stats["snapshots"]
        print(f"root          : {stats['root']}")
        print(f"code version  : {stats['version']}")
        print(f"entries       : {stats['entries']} (current version)")
        print(f"  records     : {rec['entries']} "
              f"({rec['bytes'] / 1024:.1f} KiB)")
        print(f"  snapshots   : {snap['entries']} "
              f"({snap['bytes'] / 1024:.1f} KiB)")
        print(f"stale entries : {stats['stale_entries']} (older versions)")
        print(f"size          : {stats['bytes'] / 1024:.1f} KiB")


def cmd_serve(args) -> None:
    from repro.fleet import DEFAULT_HOST, DEFAULT_PORT, serve

    raise SystemExit(serve(
        host=args.host or DEFAULT_HOST,
        port=DEFAULT_PORT if args.port is None else args.port,
        jobs=args.jobs, cache_dir=args.cache_dir,
        events_log=args.events_log))


def _submit_docs(args) -> List[dict]:
    from dataclasses import asdict

    docs = []
    for benchmark in args.submit_benchmarks:
        spec = RunSpec(
            benchmark=benchmark,
            heap_mult=args.heap_mult,
            coalloc=args.coalloc,
            monitoring=not args.no_monitoring,
            interval=args.interval,
            gc_plan=args.gc_plan,
            event=args.event,
            seed=args.seed,
            until_cycles=args.until_cycles,
        )
        docs.append(asdict(spec))
    return docs


def _fleet_client(args):
    from repro.fleet import FleetClient

    return FleetClient(args.url, timeout=args.timeout)


def _print_job(doc: dict) -> None:
    print(f"job {doc['job']}: {doc['state']} "
          f"({doc['completed']}/{doc['specs']} specs)"
          + (f" error: {doc['error']}" if doc.get("error") else ""))
    for row in doc.get("spec_states", ()):
        flags = []
        if row.get("coalesced"):
            flags.append("coalesced")
        if row.get("wall_s") is not None:
            flags.append(f"{row['wall_s']:.2f}s")
        if row.get("error"):
            flags.append(f"error: {row['error']}")
        tail = ("  (" + ", ".join(flags) + ")") if flags else ""
        print(f"  {row['state']:>9}  {row['benchmark']:<10} "
              f"{row['spec']}{tail}")


def cmd_submit(args) -> None:
    import json

    from repro.fleet import FleetClientError

    client = _fleet_client(args)
    try:
        doc = client.submit(_submit_docs(args),
                            leg_cycles=args.leg_cycles, wait=args.wait)
    except FleetClientError as exc:
        raise SystemExit(f"submit: {exc}")
    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
        return
    _print_job(doc)
    if doc.get("state") == "failed":
        raise SystemExit(1)


def cmd_jobs(args) -> None:
    import json

    from repro.fleet import FleetClientError

    client = _fleet_client(args)
    try:
        if args.job_id:
            doc = client.job(args.job_id, wait=args.wait)
            if args.json:
                print(json.dumps(doc, indent=1, sort_keys=True))
            else:
                _print_job(doc)
            return
        rows = client.jobs()
    except FleetClientError as exc:
        raise SystemExit(f"jobs: {exc}")
    if args.json:
        print(json.dumps(rows, indent=1, sort_keys=True))
        return
    if not rows:
        print("no jobs submitted yet")
        return
    for doc in rows:
        _print_job(doc)


def cmd_watch(args) -> None:
    from repro.fleet import FleetClientError, watch

    if args.from_log:
        try:
            state = watch.replay_file(args.from_log)
        except OSError as exc:
            raise SystemExit(f"watch: cannot read {args.from_log!r}: {exc}")
        print(watch.render(state, width=args.width))
        return
    client = _fleet_client(args)
    try:
        watch.watch_stream(client.events(backlog=not args.no_backlog),
                           width=args.width, raw_json=args.json)
    except FleetClientError as exc:
        raise SystemExit(f"watch: {exc}")
    except KeyboardInterrupt:
        pass


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=("Reproduction of 'Online Optimizations Driven by "
                     "Hardware Performance Monitoring' (PLDI 2007)"))
    parser.add_argument("--version", action="version",
                        version=f"repro {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark programs")

    def add_run_options(p) -> None:
        # Table 1 plus the adversarial probes (e.g. "phased", the
        # health observatory's phase-shift workload).
        p.add_argument("benchmark", choices=suite.extended_names())
        p.add_argument("--heap-mult", type=float, default=4.0,
                       help="heap as a multiple of the minimum (default 4)")
        p.add_argument("--coalloc", action="store_true",
                       help="enable HPM-guided co-allocation")
        p.add_argument("--no-monitoring", action="store_true",
                       help="disable event sampling")
        p.add_argument("--interval", default="auto",
                       choices=["25K", "50K", "100K", "auto"])
        p.add_argument("--gc-plan", default="genms",
                       choices=["genms", "gencopy"])
        p.add_argument("--event", default="L1D_MISS",
                       choices=["L1D_MISS", "L2_MISS", "DTLB_MISS"])
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--no-fastpath", action="store_true",
                       help="run the reference interpreter instead of the "
                            "translated fast path (same results, slower)")

    run_p = sub.add_parser("run", help="run one benchmark")
    add_run_options(run_p)
    run_p.add_argument("--until-cycles", type=int, default=None, metavar="N",
                       help="stop at the first scheduler boundary past N "
                            "cycles, record the truncated run, and leave a "
                            "checkpoint behind for --resume")
    run_p.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="capture a resumable checkpoint every N cycles "
                            "(absolute grid, stored in the result cache)")
    run_p.add_argument("--resume", action="store_true",
                       help="continue from the latest cached checkpoint of "
                            "this exact spec instead of starting at cycle 0 "
                            "(bit-identical to never having stopped)")
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="write the telemetry trace (Chrome trace-event "
                            "JSON; '.jsonl' suffix selects JSONL)")
    run_p.add_argument("--metrics", action="store_true",
                       help="print the metrics registry after the run")
    run_p.add_argument("--prom", metavar="PATH", default=None,
                       help="write the metrics registry in Prometheus "
                            "text format")
    run_p.add_argument("--record", metavar="PATH", default=None,
                       help="export the portable run record (with its "
                            "provenance manifest) as JSON for `repro diff`")
    run_p.add_argument("--collapsed", metavar="PATH", default=None,
                       help="export the span trace as collapsed stacks "
                            "(flamegraph.pl / speedscope input, weighted "
                            "by simulated self-cycles)")

    tl_p = sub.add_parser("timeline",
                          help="run one benchmark, print a text timeline")
    add_run_options(tl_p)
    tl_p.add_argument("--width", type=int, default=72,
                      help="timeline width in columns (default 72)")
    tl_p.add_argument("--from", dest="from_trace", metavar="PATH",
                      default=None,
                      help="render a previously exported trace (JSON or "
                           "JSONL) instead of re-running the benchmark")
    tl_p.add_argument("--phases", action="store_true",
                      help="overlay the online phase segmentation (a "
                           "phase lane under the timeline plus the phase "
                           "table)")

    def positive_int(value: str) -> int:
        jobs = int(value)
        if jobs < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
        return jobs

    def add_jobs_option(p) -> None:
        p.add_argument("--jobs", type=positive_int, default=None, metavar="N",
                       help="worker processes for uncached runs (default: "
                            "REPRO_JOBS or the CPU count; 1 = serial)")
        p.add_argument("--progress", action="store_true",
                       help="stream fleet job events (queued/started/"
                            "finished/cache-hit, with an ETA) to stderr")
        p.add_argument("--progress-log", metavar="PATH", default=None,
                       help="append fleet job events to a JSONL event log")

    def add_figure_parser(name: str, help: str,
                          benchmarks: bool = False):
        """One registration path for every table/figure subcommand:
        all of them get ``--jobs/--progress/--progress-log`` (handlers
        that run a single simulation simply ignore the fan-out knobs),
        and the multi-benchmark ones get ``--benchmarks``."""
        fig_p = sub.add_parser(name, help=help)
        if benchmarks:
            fig_p.add_argument("--benchmarks", default="",
                               help="comma-separated subset "
                                    "(default: all 16)")
        add_jobs_option(fig_p)
        return fig_p

    for name in ("table2", "fig2", "fig3", "fig4", "fig5"):
        add_figure_parser(name, f"regenerate {name}", benchmarks=True)
    for name in ("table1", "fig6", "fig7", "fig8"):
        add_figure_parser(name, f"regenerate {name}")
    add_figure_parser("ablations", "run the ablations")

    audit_p = sub.add_parser(
        "audit", help="audit sampled-profile fidelity against the "
                      "simulator's exact miss attribution")
    audit_p.add_argument("benchmark", choices=suite.all_names())
    audit_p.add_argument("--intervals", default="25K,50K,100K",
                         help="comma-separated sampling intervals to sweep "
                              "(default 25K,50K,100K)")
    audit_p.add_argument("--seed", type=int, default=1)
    audit_p.add_argument("--top", type=positive_int, default=10,
                         metavar="N", help="hot-set size for the overlap "
                                           "coefficient (default 10)")
    audit_p.add_argument("--event", default="L1D_MISS",
                         choices=["L1D_MISS", "L2_MISS", "DTLB_MISS"])
    audit_p.add_argument("--coalloc", action="store_true",
                         help="audit with co-allocation enabled (default "
                              "off, the Figure 2 configuration)")
    audit_p.add_argument("--json", metavar="PATH", default=None,
                         help="also write the report as JSON")

    explain_p = sub.add_parser(
        "explain", help="print the justification chain behind an online "
                        "optimization decision (decision lineage)")
    add_run_options(explain_p)
    add_jobs_option(explain_p)
    source = explain_p.add_mutually_exclusive_group()
    source.add_argument("--from", dest="from_record", metavar="RECORD.json",
                        default=None,
                        help="explain a previously exported run record "
                             "(`repro run --record`) instead of re-running")
    source.add_argument("--fig8", action="store_true",
                        help="run the Figure 8 revert experiment (mid-run "
                             "gap injection) and explain its decisions")
    which = explain_p.add_mutually_exclusive_group()
    which.add_argument("--field", metavar="CLASS::FIELD", default=None,
                       help="latest decision touching this qualified field")
    which.add_argument("--revert", type=positive_int, metavar="N",
                       default=None, help="the N-th revert of the run "
                                          "(1-based)")
    which.add_argument("--decision", type=int, metavar="ID", default=None,
                       help="a specific entry id")
    explain_p.add_argument("--json", metavar="PATH", default=None,
                           help="write the full lineage document, "
                                "validation problems, and chain as JSON")
    explain_p.add_argument("--dot", metavar="PATH", default=None,
                           help="write the ledger as a Graphviz digraph "
                                "with the chain highlighted")

    doctor_p = sub.add_parser(
        "doctor", help="run-health report: online phase segmentation, "
                       "pathology detectors, ledger-backed evidence")
    add_run_options(doctor_p)
    doctor_p.add_argument("--from", dest="from_record",
                          metavar="RECORD.json", default=None,
                          help="diagnose a previously exported run record "
                               "(`repro run --record`) instead of "
                               "re-running")
    doctor_p.add_argument("--storm", action="store_true",
                          help="seed a revert storm (repeated bad-placement "
                               "experiments the feedback engine must "
                               "revert) before diagnosing; implies "
                               "--coalloc")
    doctor_p.add_argument("--storm-count", type=positive_int, default=4,
                          metavar="N",
                          help="experiments the storm seeds (default 4)")
    doctor_p.add_argument("--json", metavar="PATH", default=None,
                          help="write the verdict, full health report, "
                               "evidence problems, and justification "
                               "chains as JSON")

    diff_p = sub.add_parser(
        "diff", help="structured diff of two exported run records "
                     "(exit 1 when significantly different)")
    diff_p.add_argument("record_a", metavar="A.json")
    diff_p.add_argument("record_b", metavar="B.json")
    diff_p.add_argument("--threshold", type=float, default=0.01,
                        help="relative-delta significance threshold "
                             "(default 0.01)")
    diff_p.add_argument("--limit", type=positive_int, default=40,
                        metavar="N", help="max differences to print")

    cache_p = sub.add_parser("cache",
                             help="inspect, prune, or clear the persistent "
                                  "result cache")
    cache_p.add_argument("cache_command", choices=["stats", "clear", "prune"])
    cache_p.add_argument("--max-bytes", type=int, default=None, metavar="N",
                         help="prune: evict oldest current-version entries "
                              "until the cache fits in N bytes (stale code "
                              "versions are always removed)")
    cache_p.add_argument("--dry-run", action="store_true",
                         help="prune: report what would be removed without "
                              "deleting anything")
    cache_p.add_argument("--json", action="store_true",
                         help="stats: print the raw stats document as JSON")

    bench_p = sub.add_parser(
        "bench", help="host-side performance observatory: run the "
                      "registered benchmark cases, track history, "
                      "score regressions, self-profile")
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)

    from repro.bench.history import DEFAULT_HISTORY

    def add_bench_history_option(p) -> None:
        p.add_argument("--history", metavar="PATH", default=DEFAULT_HISTORY,
                       help=f"bench trajectory file "
                            f"(default {DEFAULT_HISTORY})")

    def add_bench_exec_options(p) -> None:
        p.add_argument("cases", nargs="*", metavar="CASE",
                       help="case names (see `bench list`)")
        p.add_argument("--all", action="store_true",
                       help="run every registered case")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override a case parameter (value parsed as "
                            "JSON when possible; repeatable)")
        p.add_argument("--repeats", type=positive_int, default=None,
                       metavar="N", help="timed repetitions per case "
                                         "(default: per-case)")
        p.add_argument("--warmup", type=int, default=None, metavar="N",
                       help="discarded warmup runs per case (default: "
                            "per-case)")
        p.add_argument("--out-dir", metavar="DIR", default=None,
                       help="directory for BENCH_<case>.json artifacts "
                            "(default: current directory)")
        p.add_argument("--no-artifacts", action="store_true",
                       help="skip writing BENCH_<case>.json artifacts")
        p.add_argument("--no-history", action="store_true",
                       help="do not append this run to the history")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the full run report as JSON")
        add_bench_history_option(p)

    bench_sub.add_parser("list", help="list the registered cases, their "
                                      "gates, and primary metrics")

    bench_run_p = bench_sub.add_parser(
        "run", help="execute cases with warmup/repeats; exit 1 on any "
                    "gate failure")
    add_bench_exec_options(bench_run_p)

    bench_hist_p = bench_sub.add_parser(
        "history", help="show the recorded bench trajectory")
    bench_hist_p.add_argument("--case", metavar="NAME", default=None,
                              help="restrict to one case")
    bench_hist_p.add_argument("--limit", type=positive_int, default=20,
                              metavar="N",
                              help="show the last N entries (default 20)")
    bench_hist_p.add_argument("--json", action="store_true",
                              help="print the raw entries as JSON")
    add_bench_history_option(bench_hist_p)

    bench_cmp_p = bench_sub.add_parser(
        "compare", help="score a run against the baseline window; exit 1 "
                        "on a regressed or invalid verdict")
    add_bench_exec_options(bench_cmp_p)
    bench_cmp_p.add_argument("--from", dest="from_report",
                             metavar="REPORT.json", default=None,
                             help="score a previously written `bench run "
                                  "--json` report instead of re-running")
    bench_cmp_p.add_argument("--window", type=positive_int, default=5,
                             metavar="N",
                             help="baseline window: median of the last N "
                                  "compatible entries (default 5)")
    bench_cmp_p.add_argument("--threshold", type=float, default=None,
                             help="override every case's relative verdict "
                                  "threshold")
    bench_cmp_p.add_argument("--baseline-code", metavar="VERSION",
                             default=None,
                             help="only accept baseline entries from this "
                                  "code version")

    bench_prof_p = bench_sub.add_parser(
        "profile", help="run one case under cProfile: subsystem wall-time "
                        "attribution + collapsed stacks")
    bench_prof_p.add_argument("case", metavar="CASE")
    bench_prof_p.add_argument("--param", action="append",
                              metavar="KEY=VALUE",
                              help="override a case parameter (repeatable)")
    bench_prof_p.add_argument("--warmup", type=int, default=0, metavar="N",
                              help="discarded warmup runs before profiling")
    bench_prof_p.add_argument("--top", type=positive_int, default=12,
                              metavar="N",
                              help="subsystem rows to print (default 12)")
    bench_prof_p.add_argument("--collapsed", metavar="PATH", default=None,
                              help="write collapsed stacks (flamegraph.pl "
                                   "/ speedscope input)")
    bench_prof_p.add_argument("--json", metavar="PATH", default=None,
                              help="write the attribution report as JSON")

    serve_p = sub.add_parser(
        "serve", help="run the fleet daemon: an HTTP/JSON job queue over "
                      "the engine with live /events and /metrics")
    serve_p.add_argument("--host", default=None,
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=None,
                         help="bind port (default 8077; 0 = ephemeral)")
    serve_p.add_argument("--jobs", type=positive_int, default=None,
                         metavar="N",
                         help="worker processes per batch (default: "
                              "REPRO_JOBS or the CPU count)")
    serve_p.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="disk-cache root for this daemon (default: "
                              "REPRO_CACHE_DIR or results/.cache)")
    serve_p.add_argument("--events-log", metavar="PATH", default=None,
                         help="tee every fleet event to a JSONL file "
                              "(replayable with `repro watch --from`)")

    def add_fleet_client_options(p) -> None:
        p.add_argument("--url", metavar="URL", default=None,
                       help="daemon base URL (default http://127.0.0.1:8077)")
        p.add_argument("--timeout", type=float, default=30.0, metavar="S",
                       help="per-request timeout in seconds (default 30)")
        p.add_argument("--json", action="store_true",
                       help="print raw JSON instead of the summary")

    submit_p = sub.add_parser(
        "submit", help="submit a batch of benchmarks to the fleet daemon")
    submit_p.add_argument("submit_benchmarks", nargs="+", metavar="BENCH",
                          choices=suite.extended_names(),
                          help="benchmarks to run (one spec each)")
    submit_p.add_argument("--heap-mult", type=float, default=4.0)
    submit_p.add_argument("--coalloc", action="store_true")
    submit_p.add_argument("--no-monitoring", action="store_true")
    submit_p.add_argument("--interval", default="auto",
                          choices=["25K", "50K", "100K", "auto"])
    submit_p.add_argument("--gc-plan", default="genms",
                          choices=["genms", "gencopy"])
    submit_p.add_argument("--event", default="L1D_MISS",
                          choices=["L1D_MISS", "L2_MISS", "DTLB_MISS"])
    submit_p.add_argument("--seed", type=int, default=1)
    submit_p.add_argument("--until-cycles", type=int, default=None,
                          metavar="N")
    submit_p.add_argument("--leg-cycles", type=positive_int, default=None,
                          metavar="N",
                          help="shard each run into checkpoint legs of N "
                               "cycles (run_specs_sharded)")
    submit_p.add_argument("--wait", action="store_true",
                          help="long-poll until the job is terminal; exit "
                               "1 if it failed")
    add_fleet_client_options(submit_p)

    jobs_p = sub.add_parser(
        "jobs", help="list the fleet daemon's jobs (or show one)")
    jobs_p.add_argument("job_id", nargs="?", default=None, metavar="JOB",
                        help="job id for per-spec detail (default: all)")
    jobs_p.add_argument("--wait", action="store_true",
                        help="with JOB: long-poll until it is terminal")
    add_fleet_client_options(jobs_p)

    watch_p = sub.add_parser(
        "watch", help="live terminal dashboard over the fleet event "
                      "stream (or replay a recorded one)")
    watch_p.add_argument("--from", dest="from_log", metavar="EVENTS.jsonl",
                         default=None,
                         help="replay a recorded event stream (`serve "
                              "--events-log` / `--progress-log`) offline "
                              "instead of connecting")
    watch_p.add_argument("--no-backlog", action="store_true",
                         help="skip the daemon's replayed event history; "
                              "show only new events")
    watch_p.add_argument("--width", type=positive_int, default=100,
                         help="dashboard width in columns (default 100)")
    add_fleet_client_options(watch_p)

    dis_p = sub.add_parser("disasm", help="disassemble a benchmark method")
    dis_p.add_argument("benchmark", choices=suite.all_names())
    dis_p.add_argument("method", help="qualified name, e.g. App.scan")
    dis_p.add_argument("--baseline", action="store_true",
                       help="use the baseline compiler instead of opt")

    args = parser.parse_args(argv)
    if hasattr(args, "benchmarks"):
        args.benchmark_names = _benchmark_list(args.benchmarks)

    progress_sink = None
    if getattr(args, "progress", False) or getattr(args, "progress_log",
                                                   None):
        from repro.harness import engine

        sinks = []
        if args.progress:
            sinks.append(engine.StderrProgress())
        if args.progress_log:
            try:
                sinks.append(engine.JsonlProgress(args.progress_log))
            except OSError as exc:
                raise SystemExit(f"cannot open progress log "
                                 f"{args.progress_log!r}: {exc}")
        progress_sink = engine.TeeProgress(*sinks)
        engine.set_default_progress(progress_sink)

    handlers = {
        "list": cmd_list, "run": cmd_run, "timeline": cmd_timeline,
        "audit": cmd_audit, "diff": cmd_diff, "explain": cmd_explain,
        "doctor": cmd_doctor,
        "table1": cmd_table1, "table2": cmd_table2,
        "fig2": cmd_fig2, "fig3": cmd_fig3, "fig4": cmd_fig4,
        "fig5": cmd_fig5, "fig6": cmd_fig6, "fig7": cmd_fig7,
        "fig8": cmd_fig8, "ablations": cmd_ablations,
        "disasm": cmd_disasm, "cache": cmd_cache, "bench": cmd_bench,
        "serve": cmd_serve, "submit": cmd_submit, "jobs": cmd_jobs,
        "watch": cmd_watch,
    }
    try:
        handlers[args.command](args)
    finally:
        if progress_sink is not None:
            from repro.harness import engine

            engine.set_default_progress(None)
            progress_sink.close()


if __name__ == "__main__":
    main()
