"""Host-time tracing of the simulator's layers, from outside ``src/``.

:class:`LayerTracer` replaces each layer's public entry points with a
timing wrapper, at the name the caller looks up (a module global such
as ``repro.hw.cpu.translation_for``, or a method on its class such as
``MemorySystem.access_run_segments``), before the VM under test is
built.  :meth:`LayerTracer.restore` puts the originals back.

Every wrapped call is accounted on a stack: its duration, and its self
time (duration minus the time its wrapped children took).  Self time is
summed per entry point and per call path (for collapsed stacks).  Calls
marked ``keep`` are also kept as spans -- name, start, end, parent span
and run id -- in memory until :meth:`LayerTracer.write`.  The per-access
and per-allocation entry points are far too frequent to keep one span
each (tens of millions over a run); they are aggregated instead.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Dict, List, Optional

#: (module or class path, attribute, traced name, keep as a span,
#: a new per-run id starts at this call).  Ordered by layer.
ENTRY_POINTS = (
    # Setup: workload construction and VM wiring.
    ("repro.workloads.suite", "build", "workloads.build", True, False),
    ("repro.vm.vmcore.VM", "__init__", "vm.init", True, False),
    # Guest dispatch: the interpreter / superblock driver.
    ("repro.hw.cpu.CPU", "run", "hw.cpu.run", True, False),
    # Memory model.
    ("repro.hw.memsys.MemorySystem", "access", "hw.memsys.access",
     False, False),
    ("repro.hw.memsys.MemorySystem", "access_run_segments",
     "hw.memsys.access_run_segments", False, False),
    ("repro.hw.memsys.MemorySystem", "pollute_minor",
     "hw.memsys.pollute_minor", False, False),
    ("repro.hw.memsys.MemorySystem", "pollute_full",
     "hw.memsys.pollute_full", False, False),
    # Translation (closure tables and superblocks).
    ("repro.hw.cpu", "translation_for", "hw.translate.translation_for",
     False, False),
    ("repro.hw.translate", "translate", "hw.translate.translate",
     False, False),
    # JIT compilers, at the names the VM calls.
    ("repro.vm.vmcore", "compile_baseline", "jit.compile_baseline",
     True, False),
    ("repro.vm.vmcore", "compile_opt", "jit.compile_opt", True, False),
    # GC and the object model.
    ("repro.gc.genms.GenMSPlan", "collect_minor", "gc.collect_minor",
     True, False),
    ("repro.gc.genms.GenMSPlan", "collect_full", "gc.collect_full",
     True, False),
    ("repro.gc.gencopy.GenCopyPlan", "collect_minor", "gc.collect_minor",
     True, False),
    ("repro.gc.gencopy.GenCopyPlan", "collect_full", "gc.collect_full",
     True, False),
    ("repro.gc.plan.Plan", "alloc_object", "gc.alloc_object",
     False, False),
    ("repro.gc.plan.Plan", "alloc_array", "gc.alloc_array", False, False),
    ("repro.gc.plan.Plan", "write_barrier", "gc.write_barrier",
     False, False),
    # Monitoring stack: PEBS, perfmon, controller, feedback.
    ("repro.hw.pebs.PEBSUnit", "on_event", "hw.pebs.on_event",
     False, False),
    ("repro.perfmon.kernel.PerfmonSession", "on_interrupt",
     "perfmon.on_interrupt", False, False),
    ("repro.perfmon.kernel.PerfmonSession", "read", "perfmon.read",
     False, False),
    ("repro.perfmon.userlib.UserSampleLibrary", "read_samples",
     "perfmon.read_samples", False, False),
    ("repro.core.controller.OnlineOptimizationController",
     "process_samples", "core.process_samples", True, False),
    ("repro.core.controller.OnlineOptimizationController", "on_period",
     "core.on_period", True, False),
    ("repro.core.feedback.FeedbackEngine", "on_period",
     "core.feedback.on_period", False, False),
    # Observers.  Only the enabled classes: the null instances override
    # every one of these, so a run without observers makes no call here.
    ("repro.telemetry.tracer.Tracer", "begin", "telemetry.tracer.begin",
     False, False),
    ("repro.telemetry.tracer.Tracer", "end", "telemetry.tracer.end",
     False, False),
    ("repro.telemetry.tracer.Tracer", "span", "telemetry.tracer.span",
     False, False),
    ("repro.telemetry.tracer.Tracer", "complete",
     "telemetry.tracer.complete", False, False),
    ("repro.telemetry.tracer.Tracer", "instant",
     "telemetry.tracer.instant", False, False),
    ("repro.telemetry.tracer.Tracer", "sample", "telemetry.tracer.sample",
     False, False),
    ("repro.telemetry.metrics.Counter", "inc", "telemetry.metrics.inc",
     False, False),
    ("repro.telemetry.metrics.Gauge", "set", "telemetry.metrics.set",
     False, False),
    ("repro.telemetry.metrics.Histogram", "observe",
     "telemetry.metrics.observe", False, False),
    ("repro.lineage.ledger.DecisionLedger", "_add", "lineage.add",
     False, False),
    ("repro.health.HealthMonitor", "on_interval", "health.on_interval",
     False, False),
    ("repro.health.HealthMonitor", "on_experiment_begin",
     "health.on_experiment", False, False),
    ("repro.health.HealthMonitor", "on_experiment_verdict",
     "health.on_experiment", False, False),
    ("repro.health.HealthMonitor", "on_experiment_revert",
     "health.on_experiment", False, False),
    ("repro.health.HealthMonitor", "report", "health.report", True, False),
    ("repro.perfmon.tap.IntervalTap", "on_period", "health.tap",
     False, False),
    # Harness: runs, the disk cache and record minting.
    ("repro.harness.runner", "execute", "harness.runner.execute",
     True, True),
    ("repro.harness.diskcache.DiskCache", "put", "harness.diskcache.put",
     True, False),
    ("repro.harness.diskcache.DiskCache", "get", "harness.diskcache.get",
     True, False),
    ("repro.harness.runner", "record_from_result",
     "harness.record.from_result", True, False),
    ("repro.harness.record.RunRecord", "to_json", "harness.record.to_json",
     True, False),
    ("repro.harness.record.RunRecord", "from_json",
     "harness.record.from_json", True, False),
)

#: Layer of each traced name, by longest matching prefix.
LAYERS = (
    ("workloads.", "workloads"),
    ("vm.init", "vm"),
    ("hw.cpu.", "hw.cpu"),
    ("hw.memsys.", "hw.memsys"),
    ("hw.translate.", "hw.translate"),
    ("jit.", "jit"),
    ("gc.", "gc"),
    ("hw.pebs.", "monitoring"),
    ("perfmon.", "monitoring"),
    ("core.", "monitoring"),
    ("telemetry.", "observers"),
    ("lineage.", "observers"),
    ("health.", "observers"),
    ("observers.", "observers"),
    ("harness.runner.", "harness"),
    ("harness.diskcache.", "harness"),
    ("harness.record.", "harness"),
    ("bench.", "unattributed"),
)


def layer_of(name: str) -> str:
    best = ""
    layer = "other"
    for prefix, candidate in LAYERS:
        if name.startswith(prefix) and len(prefix) > len(best):
            best, layer = prefix, candidate
    return layer


def _resolve(path: str):
    """``"pkg.mod.Class"`` or ``"pkg.mod"`` -> the object it names."""
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class LayerTracer:
    """Stack-based self-time accounting over wrapped entry points."""

    def __init__(self, root: str = "bench"):
        #: traced name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List] = {}
        #: kept spans: [name, start, end, parent span index, run id]
        self.spans: List[list] = []
        #: call-path tree for collapsed stacks
        self.node_name: List[str] = [root]
        self.node_parent: List[int] = [-1]
        self.node_self: List[float] = [0.0]
        self.node_children: List[Dict[str, int]] = [{}]
        self.run_id = 0
        #: frames: [start, child seconds, node, span index]
        self.stack: List[list] = [[time.perf_counter(), 0.0, 0, -1]]
        self._run_depth = 0
        #: results of ``perfmon.read``: samples handed to user space
        self.samples_read = 0
        self._patches: List[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for owner_path, attr, name, keep, new_run in ENTRY_POINTS:
            owner = _resolve(owner_path)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, name, keep,
                                               new_run))
            else:
                patched = self._wrap(raw, name, keep, new_run)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _node(self, parent: int, name: str) -> int:
        node = len(self.node_name)
        self.node_name.append(name)
        self.node_parent.append(parent)
        self.node_self.append(0.0)
        self.node_children.append({})
        self.node_children[parent][name] = node
        return node

    def _wrap(self, fn, name: str, keep: bool, new_run: bool):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        spans = self.spans
        node_self = self.node_self
        node_children = self.node_children
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        count_result = name == "perfmon.read"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = node_children[parent[2]].get(name)
            if node is None:
                node = tracer._node(parent[2], name)
            if new_run:
                if not tracer._run_depth:
                    tracer.run_id += 1
                tracer._run_depth += 1
            span = parent[3]
            if keep:
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent[3], tracer.run_id])
            frame = [clock(), 0.0, node, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if count_result:
                    tracer.samples_read += len(result)
                return result
            finally:
                end = clock()
                if new_run:
                    tracer._run_depth -= 1
                stack.pop()
                dur = end - frame[0]
                own = dur - frame[1]
                stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += own
                node_self[node] += own
                if keep:
                    record = spans[span]
                    record[1] = frame[0]
                    record[2] = end

        return wrapper

    def wrap(self, fn, name: str, new_run: bool = False):
        """``fn`` traced as a kept span: for the benchmark's own steps."""
        return self._wrap(fn, name, True, new_run)

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer.  ``unattributed`` is the self time of
        the benchmark's own spans: its code, and simulator code that
        runs between wrapped entry points (VM glue, the scheduler)."""
        out: Dict[str, float] = {}
        for name, (_, _, own) in self.stats.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + own
        return out

    def collapsed(self) -> List[str]:
        """Brendan Gregg collapsed stacks, weighted in microseconds."""
        lines = []
        for node, own in enumerate(self.node_self):
            weight = int(round(own * 1e6))
            if weight <= 0:
                continue
            names = []
            cursor = node
            while cursor >= 0:
                names.append(self.node_name[cursor])
                cursor = self.node_parent[cursor]
            lines.append(f"{';'.join(reversed(names))} {weight}")
        return sorted(lines)

    def write(self, json_path: str, collapsed_path: str,
              meta: Optional[dict] = None) -> None:
        doc = {
            "meta": meta or {},
            "clock": "host seconds (time.perf_counter)",
            "span_fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "entry_points": {name: {"calls": c, "total_s": t, "self_s": s}
                             for name, (c, t, s) in sorted(self.stats.items())},
        }
        with open(json_path, "w") as fh:
            json.dump(doc, fh)
        with open(collapsed_path, "w") as fh:
            fh.write("\n".join(self.collapsed()) + "\n")

