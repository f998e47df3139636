"""Differential suite: the analysis replays against their references.

The three instrumented replays of the analysis pipeline run on
event-selective instrumented cells (an unprobed instruction whose
operand and control events no listener hears runs its plain cell), the
slicer is table-driven with parallel node lists, and the memory-bug
detector finds heap blocks through a sorted index.  Each is held here to a reference:

- every exploit, canonical and as seeded polymorphic variants, is run
  through a fresh node twice: once as is, and once with a do-nothing
  tool listening to every tier event, which forces the full
  instrumented cell at every pc, with the slicer replaced by the
  original if-chain slicer kept in ``tests/slicing_reference.py``.
  The dependence graphs (node pcs and kinds, edges, input labels), the
  slices, the memory-bug and taint reports, every replay's window and
  outcome, every step's virtual times and findings, the node's events
  and its responses must be identical;
- targeted guards pin that a memory-bug replay really runs non-memory
  instructions on plain cells, that attaching or detaching a tool or
  arming a probe mid-run recompiles the affected cells, that the table
  of events per opcode covers what the general path emits, and that the
  heap index answers exactly as the ordered scan it replaces, also when
  a corrupted heap hands out overlapping blocks.

Seeds come from ``ANALYSIS_DIFF_SEED`` (comma-separated); CI runs the
suite under two seeds.
"""

from __future__ import annotations

import os
import random
import re
from contextlib import contextmanager

import pytest

from repro.analysis import pipeline as pipeline_module
from repro.analysis.membug import MemoryBugDetector, _BlockMap, _LiveBlock
from repro.analysis.slicing import BackwardSlicer
from repro.antibody.distribution import CommunityBus
from repro.apps.exploits import EXPLOITS, ExploitStream
from repro.apps.workload import TrafficStream
from repro.errors import ProcessExited
from repro.instrument.hooks import Tool
from repro.isa.assembler import assemble
from repro.isa.opcodes import ALU_OPS, COND_BRANCHES, Op
from repro.machine.execcore import EMITTED_EVENTS
from repro.machine.layout import ReferenceLayout
from repro.machine.process import Process
from repro.runtime.sweeper import Sweeper, SweeperConfig
from tests.slicing_reference import ReferenceSlicer

#: Antibody and signature ids come from process-wide counters, so they
#: differ between two runs of one case.
_IDS = re.compile(r"\b(vsef|sig-[a-z]+)-\d+")

SEEDS = [int(s) for s in
         os.environ.get("ANALYSIS_DIFF_SEED", "101").split(",")]

#: Seeded polymorphic variants per exploit, besides the canonical one.
VARIANTS = 1
#: Benign requests a node serves before the exploit, so a checkpoint
#: precedes it.
PRE_ATTACK = 3


class _AllEvents(Tool):
    """Listens to every tier event and does nothing: no instruction can
    run as a plain cell while it is attached."""

    name = "all-events"

    def on_ins(self, pc, insn, cpu):
        pass

    def on_mem_read(self, pc, addr, size):
        pass

    def on_mem_write(self, pc, addr, size, data):
        pass

    def on_reg_write(self, pc, reg, value):
        pass

    def on_branch(self, pc, target, taken):
        pass

    def on_call(self, pc, target, return_addr):
        pass

    def on_ret(self, pc, target, sp):
        pass


@contextmanager
def _recording(slicer_cls):
    """Make the pipeline build ``slicer_cls`` slicers and record them,
    and record every replay's outcome."""
    slicers: list = []
    replays: list = []
    saved_cls = pipeline_module.BackwardSlicer
    saved_replay = pipeline_module.AnalysisPipeline._replay

    def make(*args, **kwargs):
        slicer = slicer_cls(*args, **kwargs)
        slicers.append(slicer)
        return slicer

    def replay(self, checkpoint, tools=(), only_msg_ids=None):
        outcome = saved_replay(self, checkpoint, tools, only_msg_ids)
        fault = outcome.fault
        replays.append((tuple(tool.name for tool in tools),
                        outcome.window_cycles, outcome.reason,
                        None if fault is None
                        else (fault.kind, fault.pc, fault.addr)))
        return outcome

    pipeline_module.BackwardSlicer = make
    pipeline_module.AnalysisPipeline._replay = replay
    try:
        yield slicers, replays
    finally:
        pipeline_module.BackwardSlicer = saved_cls
        pipeline_module.AnalysisPipeline._replay = saved_replay


def _graph(slicer) -> tuple:
    if isinstance(slicer, ReferenceSlicer):
        pcs = [node.pc for node in slicer.nodes]
        kinds = [node.kind for node in slicer.nodes]
    else:
        pcs, kinds = slicer.pcs, slicer.kinds
    return pcs, kinds, slicer.deps, slicer.node_labels, slicer.truncated


def _slice(report) -> tuple | None:
    if report is None:
        return None
    return (report.criterion, report.node_indices, report.pcs,
            report.input_labels, report.total_nodes)


def _taint(report) -> tuple | None:
    if report is None:
        return None
    violation = report.violation
    return (None if violation is None else
            (violation.kind, violation.pc, violation.cell),
            report.malicious_msg_ids, report.tainted_offsets,
            report.propagation_pcs, report.sink_pc,
            report.pointer_taint_events)


def _attack(name: str, payload: bytes, node_seed: int, traffic_seed: int,
            forced: bool) -> tuple:
    """One exploit against a fresh node: everything the analysis and the
    node produced.  ``forced`` attaches the all-events tool and slices
    with the reference slicer."""
    app = EXPLOITS[name].app
    with _recording(ReferenceSlicer if forced else BackwardSlicer) \
            as (slicers, replays):
        node = Sweeper(EXPLOITS[name].build_image(), app_name=app,
                       config=SweeperConfig(seed=node_seed),
                       bus=CommunityBus())
        if forced:
            node.process.hooks.attach(_AllEvents(), node.process)
        responses = [node.submit(request) for request in
                     TrafficStream(app, seed=traffic_seed).take(PRE_ATTACK)]
        responses.append(node.submit(payload))
    assert node.attacks, f"{name}: the exploit was not analyzed"
    outcome = node.attacks[0].outcome
    steps = [(step.name, step.virtual_seconds, step.cumulative_virtual,
              step.summary, [{**v.to_dict(), "vsef_id": None}
                             for v in step.vsefs])
             for step in outcome.steps]
    return {
        "responses": responses,
        "events": [(e.virtual_time, e.kind, _IDS.sub(r"\1-#", e.detail))
                   for e in node.events],
        "steps": steps,
        "replays": replays,
        "membug": outcome.membug_reports,
        "taint": _taint(outcome.taint),
        "slice": _slice(outcome.slice_report),
        "verified": outcome.slice_verified,
        "malicious": outcome.malicious_msg_ids,
        "graphs": [_graph(slicer) for slicer in slicers],
        "cycles": node.process.cpu.cycles,
    }


def _cases(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for name in sorted(EXPLOITS):
        stream = ExploitStream(name, seed=rng.randrange(1 << 30))
        payloads = [("canonical", EXPLOITS[name].payload())]
        payloads += [(f"variant{i}", stream.next_payload())
                     for i in range(VARIANTS)]
        for label, payload in payloads:
            cases.append(pytest.param(
                name, payload, rng.randrange(1 << 20),
                rng.randrange(1 << 30), id=f"{seed}-{name}-{label}"))
    return cases


@pytest.mark.parametrize("name,payload,node_seed,traffic_seed",
                         [case for seed in SEEDS for case in _cases(seed)])
def test_analysis_matches_reference(name, payload, node_seed, traffic_seed):
    got = _attack(name, payload, node_seed, traffic_seed, forced=False)
    want = _attack(name, payload, node_seed, traffic_seed, forced=True)
    assert got["graphs"], f"{name}: no slicer ran"
    assert got["graphs"][0][0], f"{name}: the slicer recorded nothing"
    for key in want:
        assert got[key] == want[key], f"{name}: {key} diverged"


# ---------------------------------------------------------------------------
# Event-selective cells
# ---------------------------------------------------------------------------

#: Opcodes whose events a memory-bug detector never hears.
_QUIET_FOR_MEMBUG = (set(ALU_OPS) | set(COND_BRANCHES)
                     | {Op.MOVRR, Op.MOVRI, Op.CMPRR, Op.CMPRI, Op.JMPI,
                        Op.JMPR, Op.NOP})


def _count_general_path(cpu) -> list:
    """Wrap the CPU's general-path handlers; returns the list each call
    appends ``(op, pc)`` to.  Must run before cells are compiled, as
    they bind their handler."""
    calls: list = []
    for op, handler in list(cpu._dispatch.items()):
        def counted(pc, insn, hk, handler=handler):
            calls.append((insn.op, pc))
            return handler(pc, insn, hk)
        cpu._dispatch[op] = counted
    return calls


def test_membug_replay_runs_non_memory_instructions_on_plain_cells():
    """No instruction whose events a memory-bug detector does not hear
    may reach the general path from a cached pc.  cvsd predecodes its
    whole text, so no such instruction is first met through step()."""
    spec = EXPLOITS["CVS"]
    process = Process(spec.build_image(), seed=5, layout=ReferenceLayout())
    process.run(max_steps=1_000_000)
    calls = _count_general_path(process.cpu)
    process.hooks.attach(MemoryBugDetector(), process)
    for request in TrafficStream(spec.app, seed=5).take(3):
        process.feed(request)
        process.run(max_steps=1_000_000)
    cpu = process.cpu
    quiet = {pc for pc in cpu._icells
             if cpu._decode_cache[pc].op in _QUIET_FOR_MEMBUG}
    assert quiet, "no non-memory instruction ran instrumented"
    assert not [(op, pc) for op, pc in calls
                if op in _QUIET_FOR_MEMBUG and pc in cpu._plain], \
        "a non-memory instruction took the general path"
    assert any(op in (Op.LDW, Op.STW, Op.CALLI, Op.RET) for op, _ in calls)


LOOP = """
.text
main:
    mov r1, 0
    mov r2, buf
loop:
    add r1, 1
    stw [r2], r1
    cmp r1, 20
    jl loop
    halt
.data
buf: .space 16
"""


class _Stores(Tool):
    """Hears stores only; calls ``action(iteration)`` after each."""

    def __init__(self, action):
        self.action = action
        self.count = 0

    def on_mem_write(self, pc, addr, size, data):
        self.count += 1
        self.action(self.count)


class _Ins(Tool):
    def __init__(self, log, hooks, detach_after: int):
        self.log = log
        self.hooks = hooks
        self.detach_after = detach_after

    def on_ins(self, pc, insn, cpu):
        self.log.append((pc, cpu.regs[1], cpu.cycles))
        if len(self.log) == self.detach_after:
            self.hooks.detach(self)


def _both_tiers(body) -> list:
    """``body(process, drive)`` on the instrumented loop and on a raw
    ``step()`` loop; returns both results."""
    results = []
    for tier in ("run", "step"):
        process = Process(assemble(LOOP), seed=3, layout=ReferenceLayout())

        def drive(process=process, tier=tier):
            cpu = process.cpu
            try:
                if tier == "run":
                    return cpu.run(max_steps=10_000)
                while True:
                    cpu.step()
            except ProcessExited as exited:
                return "exit", exited.status

        results.append(body(process, drive))
    return results


def test_tool_attached_and_detached_mid_run_recompiles_cells():
    """A tool hearing only stores leaves the loop's ALU/CMP/Jcc cells
    plain; a tool attached from its callback must hear every later
    instruction, and detaching itself must silence it again — exactly
    as on the step() path."""
    def body(process, drive):
        log: list = []
        hooks = process.hooks

        def action(count):
            if count == 5:
                hooks.attach(_Ins(log, hooks, detach_after=17), process)

        hooks.attach(_Stores(action), process)
        outcome = drive()
        return outcome, log, process.cpu.cycles

    run, step = _both_tiers(body)
    assert run == step
    assert len(run[1]) == 17


def test_probe_armed_mid_run_recompiles_cells():
    """Arming a check at an instruction already running as a plain cell
    (from a tool callback), and disarming it from the check itself, must
    take effect at once, exactly as on the step() path."""
    def body(process, drive):
        cpu = process.cpu
        loop = process.symbols["loop"]
        hits: list = []

        def check(cpu, insn):
            hits.append((cpu.regs[1], cpu.cycles))
            cpu.cycles += 3
            if len(hits) == 6:
                cpu.disarm([loop], check)

        def action(count):
            if count == 4:
                cpu.arm([loop], check)

        process.hooks.attach(_Stores(action), process)
        outcome = drive()
        return outcome, hits, cpu.cycles

    run, step = _both_tiers(body)
    assert run == step
    assert len(run[1]) == 6


class _Recorder(Tool):
    """Every tier event, attributed to the pc that emitted it."""

    def __init__(self, log):
        self.log = log

    def on_ins(self, pc, insn, cpu):
        self.log.append(("ins", pc, insn.op))

    def on_mem_read(self, pc, addr, size):
        self.log.append(("mem_read", pc))

    def on_mem_write(self, pc, addr, size, data):
        self.log.append(("mem_write", pc))

    def on_reg_write(self, pc, reg, value):
        self.log.append(("reg_write", pc))

    def on_branch(self, pc, target, taken):
        self.log.append(("branch", pc))

    def on_call(self, pc, target, return_addr):
        self.log.append(("call", pc))

    def on_ret(self, pc, target, sp):
        self.log.append(("ret", pc))


@pytest.mark.parametrize("name", ["Apache1", "CVS", "Squid"])
def test_emitted_events_cover_the_general_path(name):
    """The per-opcode event table the cell selection trusts: every tier
    event an instruction emits on the general path is listed for its
    opcode."""
    spec = EXPLOITS[name]
    process = Process(spec.build_image(), seed=7, layout=ReferenceLayout())
    log: list = []
    process.hooks.attach(_Recorder(log), process)
    process.run(max_steps=1_000_000)
    for request in TrafficStream(spec.app, seed=7).take(2):
        process.feed(request)
        process.run(max_steps=1_000_000)
    seen: dict = {}
    op = current = None
    for entry in log:
        if entry[0] == "ins":
            current, op = entry[1], entry[2]
            seen.setdefault(op, set()).add("ins")
        elif entry[1] == current:
            seen[op].add(entry[0])
    assert len(seen) > 10
    for op, events in seen.items():
        assert events <= EMITTED_EVENTS[op], (op, events)


# ---------------------------------------------------------------------------
# The heap index
# ---------------------------------------------------------------------------

def _ordered_scan(table: dict, addr: int, size: int):
    """The detector's original lookup: first block, in insertion order,
    that the access lies in or starts inside."""
    for block in table.values():
        if block.payload <= addr and addr + size <= block.end:
            return block
        if block.payload <= addr < block.end:
            return block
    return None


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("overlapping", [False, True])
def test_block_index_matches_ordered_scan(seed, overlapping):
    """Random adds (some replacing a live payload), pops and lookups,
    over disjoint blocks or over a corrupted heap's overlapping ones,
    zero-size blocks and zero-size accesses included."""
    rng = random.Random(f"{seed}:{overlapping}")
    index = _BlockMap()
    table: dict = {}
    fallbacks = 0
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.35:
            payload = rng.randrange(0, 2048, 4)
            size = rng.choice([0, 4, 8, 16, 24, 64, 200]) if overlapping \
                else rng.choice([0, 4, 8])
            block = _LiveBlock(payload, size)
            clash = any(other.payload < block.end
                        and block.payload < other.end
                        for key, other in table.items() if key != payload)
            if not overlapping and clash:
                continue
            table[payload] = block
            index.add(block)
        elif roll < 0.5 and table:
            payload = rng.choice(list(table))
            assert index.pop(payload) is table.pop(payload)
        else:
            addr = rng.randrange(-8, 2300)
            size = rng.choice([0, 1, 2, 4, 4, 16])
            assert index.covering(addr, size) is _ordered_scan(
                table, addr, size)
        assert list(index.blocks) == list(table)
        fallbacks += bool(index._overlaps)
    if overlapping:
        assert fallbacks, "no overlap ever forced the ordered scan"
    else:
        assert not fallbacks
