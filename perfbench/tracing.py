"""Span tracing from outside the program, for the benchmark's traced run.

The program under test has no tracing of its own yet, so this module
wraps the public entry points of each layer (``machine``, ``runtime``,
``instrument``, ``analysis``, ``antibody``, ``worm``) in place, records
one span per call and restores the originals afterwards.  Spans nest on
one stack (the load is single-threaded), so a span's self time is its
duration minus the time its direct children cover, computed as each
span closes.

Only processes built *after* :meth:`Tracer.install` see the wrapped
natives: a process binds its native handlers when it loads.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import NamedTuple

from repro.analysis.pipeline import AnalysisPipeline
from repro.antibody.distribution import CommunityBus
from repro.antibody.verify import SandboxVerifier
from repro.instrument.hooks import HookManager
from repro.machine.natives import NATIVES
from repro.machine.process import Process
from repro.runtime.checkpoint import Checkpoint, CheckpointManager
from repro.runtime.proxy import NetworkProxy
from repro.runtime.recovery import RecoveryManager
from repro.runtime.sweeper import Sweeper
from repro.worm.fleet import NodeHost

_PHASE_OP = "op"


class Span(NamedTuple):
    """One closed call: ``parent`` is the enclosing span's id (0 at the
    root), ``op`` the operation id, ``top`` whether no other span of the
    same layer encloses it."""

    id: int
    parent: int
    name: str
    op: int | None
    phase: str
    start: float
    end: float
    self_s: float
    top: bool


def run_tier(process: Process) -> str:
    """The execution tier ``CPU.run`` selects for ``process`` at entry."""
    cpu = process.cpu
    if process.hooks.active:
        return "instrumented"
    if cpu.pre_checks:
        return "checked"
    if cpu.fusion_enabled and cpu.fused_trace_count:
        return "fused"
    return "plain"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``phase`` ("setup", "build" or "op") and ``op`` (the operation id)
    are set by the workload code and stamped on every span; metrics
    of the timed operations read only ``phase == "op"`` spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op: int | None = None
        #: (phase, counter name) -> summed value.
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        #: (phase, Sweeper) for every node built while installed.
        self.sweepers: list[tuple[str, Sweeper]] = []
        self._stack: list[list] = []
        self._open_layers: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._saved: list[tuple] = []
        self._natives: dict | None = None
        self._clock = time.perf_counter

    # -- recording -------------------------------------------------------

    def enter(self, name: str):
        layer = name.partition(".")[0]
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        top = self._open_layers[layer] == 0
        self._open_layers[layer] += 1
        self._stack.append([self._next_id, parent, name, layer, top, 0.0,
                            self._clock()])

    def exit(self):
        end = self._clock()
        sid, parent, name, layer, top, children, start = self._stack.pop()
        self._open_layers[layer] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][5] += duration
        self.spans.append(Span(sid, parent, name, self.op, self.phase,
                               start, end, duration - children, top))

    def count(self, name: str, value: float = 1):
        self.counters[(self.phase, name)] += value

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return wrapper

    def _patch(self, owner, attr: str, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced entry point; :meth:`uninstall` undoes it."""
        tracer = self
        wrap = self._wrap

        run = Process.run

        @functools.wraps(run)
        def process_run(process, *args, **kwargs):
            tracer.enter("machine.run." + run_tier(process))
            try:
                result = run(process, *args, **kwargs)
                tracer.count("machine.guest_cycles", result.cycles)
                return result
            finally:
                tracer.exit()
        self._patch(Process, "run", process_run)

        self._natives = dict(NATIVES)
        for name, fn in self._natives.items():
            NATIVES[name] = wrap("machine.native." + name, fn)

        init = Sweeper.__init__

        @functools.wraps(init)
        def sweeper_init(sweeper, *args, **kwargs):
            name = ("worm.materialize" if tracer.inside("worm.run_fleet")
                    else "runtime.boot")
            tracer.enter(name)
            try:
                init(sweeper, *args, **kwargs)
            finally:
                tracer.exit()
            tracer.sweepers.append((tracer.phase, sweeper))
        self._patch(Sweeper, "__init__", sweeper_init)

        analyze = AnalysisPipeline.analyze

        @functools.wraps(analyze)
        def pipeline_analyze(pipeline, fault):
            tracer.enter("analysis.analyze")
            try:
                outcome = analyze(pipeline, fault)
            finally:
                tracer.exit()
            for step in outcome.steps:
                tracer.count(f"analysis.{step.name}_s", step.wall_seconds)
            tracer.count("analysis.isolation_replays",
                         outcome.isolation_replays)
            return outcome
        self._patch(AnalysisPipeline, "analyze", pipeline_analyze)

        snapshot = Checkpoint.__dict__["snapshot"]
        self._patch(Checkpoint, "snapshot", property(
            wrap("runtime.checkpoint.materialize", snapshot.fget)))

        for owner, attr, name in (
                (Sweeper, "submit", "runtime.submit"),
                (Sweeper, "advance", "runtime.advance"),
                (Sweeper, "advance_busy", "runtime.advance_busy"),
                (Sweeper, "apply_bundle", "antibody.apply_bundle"),
                (NetworkProxy, "submit", "runtime.proxy.submit"),
                (NetworkProxy, "deliver", "runtime.proxy.deliver"),
                (NetworkProxy, "commit", "runtime.proxy.commit"),
                (CheckpointManager, "take", "runtime.checkpoint.take"),
                (RecoveryManager, "recover", "runtime.recovery"),
                (HookManager, "attach", "instrument.attach"),
                (HookManager, "detach", "instrument.detach"),
                (SandboxVerifier, "verify", "antibody.verify"),
                (CommunityBus, "publish", "antibody.bus.publish"),
                (CommunityBus, "poll", "antibody.bus.poll"),
                (NodeHost, "_deliver", "worm.deliver")):
            self._patch(owner, attr, wrap(name, owner.__dict__[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        if self._natives is not None:
            NATIVES.update(self._natives)
            self._natives = None

    # -- summaries -------------------------------------------------------

    def totals(self, phase: str = _PHASE_OP) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds and the
        seconds of calls not nested in another span of the same layer."""
        out: dict[str, dict] = {}
        for span in self.spans:
            if span.phase != phase:
                continue
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "top_s": 0.0})
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += span.self_s
            if span.top:
                row["top_s"] += duration
        return out

    def counter(self, name: str, phase: str = _PHASE_OP) -> float:
        return self.counters.get((phase, name), 0.0)

    # -- export ----------------------------------------------------------

    def export(self, jsonl_path, chrome_path):
        """Write the spans as JSON lines and as Chrome trace-event JSON
        (the ``X`` complete-event form that Perfetto and
        chrome://tracing open)."""
        origin = min((span.start for span in self.spans), default=0.0)

        def us(seconds: float) -> float:
            return round(seconds * 1e6, 3)

        with open(jsonl_path, "w") as jsonl:
            for span in self.spans:
                jsonl.write(json.dumps({
                    "id": span.id, "parent": span.parent, "name": span.name,
                    "op": span.op, "phase": span.phase,
                    "start_us": us(span.start - origin),
                    "end_us": us(span.end - origin),
                    "self_us": us(span.self_s)}) + "\n")
        events = [{"name": span.name, "cat": span.name.partition(".")[0],
                   "ph": "X", "pid": 1, "tid": 1,
                   "ts": us(span.start - origin),
                   "dur": us(span.end - span.start),
                   "args": {"id": span.id, "parent": span.parent,
                            "op": span.op, "phase": span.phase}}
                  for span in self.spans]
        with open(chrome_path, "w") as chrome:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      chrome)
