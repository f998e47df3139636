"""The CPU: fetch/decode/execute with faults, hooks and VSEF checks.

Design notes tied to the paper:

- **Fault model** — data accesses to unmapped memory raise SEGV, accesses
  under the NULL guard page raise NULL_DEREF, fetches from unmapped
  memory raise BAD_PC (carrying the *source* control transfer for blame),
  and undecodable bytes raise ILLEGAL_OPCODE.  These faults are the
  lightweight monitor's trigger.

- **Control-event ring** — the CPU always records the last 64 control
  transfers (calls/rets/branches), standing in for a hardware LBR.  The
  core-dump analyzer uses it to attribute a wild-PC crash to the ``ret``
  (or indirect jump) that launched it.  Its cost is a deque append on
  control transfers only, consistent with "lightweight".

- **Two-speed execution** — the paper's whole bargain is that the common
  case (no deployed analysis) is nearly free while full analysis may be
  20-1000x.  The CPU therefore has a batched :meth:`run` that selects an
  inner loop *once* per batch: a **fused** loop over supercells and
  predecoded executable cells, a **plain** per-cell loop (no hook calls,
  no per-step decode in either), or the fully instrumented loop when a
  tool listens to per-instruction events.  All three produce
  bit-identical guest-visible state and cycle counts.

- **VSEF fast path** — deployed vulnerability-specific execution filters
  are *pc-scoped probes*: :meth:`arm` registers a pre-execution check at
  a handful of pcs, and :meth:`watch` registers call/ret observers plus
  the sites where they can matter.  A probed pc is taken off both fast
  dispatch tables and out of every supercell, so the fused and plain
  loops miss on it and run that one instruction through :meth:`step`,
  which runs the probes; every other instruction keeps its cell or its
  trace.  Arming costs nothing per instruction elsewhere, which is why
  VSEF overhead is ~1% while full analysis is 20-1000x (§5.3).

- **Virtual clock** — one cycle per instruction, plus per-byte costs in
  natives.  ``CPU_HZ`` converts cycles to the virtual seconds used by all
  timing experiments.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple

from repro.errors import (FAULT_BADPC, FAULT_DIVZERO, FAULT_ILLEGAL,
                          EncodingError, ProcessExited, VMFault)
from repro.isa.encoding import (OP_LENGTHS, Insn, block_leaders, decode,
                                decode_range)
from repro.isa.opcodes import (ALU_FUNCS, ALU_OPS, CONTROL_TRANSFER_OPS, FP,
                               OP_SIGNATURES, PREDICATE_FUNCS, SP, Op,
                               to_signed, to_unsigned)
from repro.machine.execcore import (compile_cell, compile_instrumented_cell,
                                    compile_trace)
from repro.machine.memory import PagedMemory

#: Virtual CPU frequency: cycles per virtual second.  2 MHz is chosen so
#: that (a) checkpoint cost vs. interval reproduces Figure 4's overhead
#: band (~5% at 30 ms, <1% at 200 ms), and (b) instrumented-replay
#: analysis times land in the same order of magnitude as Table 3 (tens
#: of seconds for slicing) while experiments stay fast in wall time.
CPU_HZ = 2_000_000

CONTROL_RING_SIZE = 64

#: Widest encodable instruction (opcode + operand bytes); invalidation
#: uses it to catch instructions whose operand bytes straddle a changed
#: code range.
MAX_INSN_LENGTH = max(OP_LENGTHS.values())

#: Longest straight-line run fused into one supercell.  Bounds generated
#: code size and how often a step budget smaller than a trace forces the
#: per-cell tail path.
FUSION_LIMIT = 32

#: Probe stages, in the order they run at one pc: ordinary VSEF checks,
#: then probes standing in for an ``ins`` hook (the hook bus fired
#: ``ins`` after the checks).  Control probes (:meth:`CPU.watch`) fire
#: later still, from the executed call or return itself.
STAGE_CHECK = 0
STAGE_INS = 1


class ControlEvent(NamedTuple):
    """One control transfer: kind is 'call', 'ret', 'branch' or 'native'.

    A named tuple rather than a dataclass: the ring append is on the
    fast path of every taken branch/call/ret, and tuple construction is
    about twice as cheap as a frozen dataclass ``__init__``.
    """

    kind: str
    pc: int
    target: int


class CPU:
    """A single-threaded 32-bit CPU bound to one guest memory."""

    #: Execution cells reach the event class through the instance to
    #: avoid a circular import with the execcore module.
    CONTROL_EVENT = ControlEvent

    def __init__(self, memory: PagedMemory, hooks):
        self.memory = memory
        self.hooks = hooks
        self.regs = [0] * 10
        self.pc = 0
        self.zf = False
        self.sf = False
        self.cf = False
        self.cycles = 0
        #: Monotone counter bumped whenever architectural state (regs,
        #: pc, flags, ring — anything but the cycle counter) may have
        #: changed: at every ``run``/``step`` entry and on every
        #: ``restore_state``.  Pure cycle charging (modeled busy work)
        #: does not bump it, which lets checkpoint takes over quiet
        #: intervals share one frozen cpu-state dict instead of
        #: re-copying the register file and control ring each time.
        self.state_version = 0
        self.control_ring: deque[ControlEvent] = deque(maxlen=CONTROL_RING_SIZE)
        #: Every address ever observed as a CALL target; used to tell
        #: function entries apart from local jump labels when symbolizing.
        self.known_call_targets: set[int] = set()
        #: pc -> checks ``fn(cpu, insn)`` in stage order: the probe
        #: table, and the stage of each entry.
        self._checks: dict[int, tuple[Callable, ...]] = {}
        self._stages: dict[int, tuple[int, ...]] = {}
        #: Read-only view of the probe table; change it with :meth:`arm`
        #: and :meth:`disarm`.
        self.pre_checks = MappingProxyType(self._checks)
        #: Control probes (:meth:`watch`): ``fn(pc, target, return_addr)``
        #: / ``fn(pc, target, sp)`` told of every call / return the
        #: general path executes, just before the hook bus hears of it.
        self.call_probes: list[Callable] = []
        self.ret_probes: list[Callable] = []
        #: pc -> how many control watchers route it to the general path.
        self._watched: dict[int, int] = {}
        #: Native dispatch: absolute address -> handler(cpu, pc).
        self.native_entries: dict[int, Callable] = {}
        #: Syscall dispatch, set by the owning Process.
        self.syscall_handler: Callable[[int, int], int] | None = None
        #: Decoded-instruction cache for read-only (code) regions.  Safe
        #: because those pages cannot change after load; instructions
        #: fetched from writable memory (injected shellcode) are decoded
        #: fresh every time.
        self._decode_cache: dict[int, Insn] = {}
        #: Executable-form cells for the same addresses: pc -> closure.
        self._cells: dict[int, Callable] = {}
        #: The plain loop's dispatch table: ``_cells`` minus probed pcs.
        self._plain: dict[int, Callable] = {}
        #: Instrumented-form cells, compiled lazily by the analysis-mode
        #: loop (:meth:`_run_instrumented`): pc -> closure emitting the
        #: ``step()`` events some listener hears.  Invalidated together
        #: with ``_decode_cache``, per pc when its probes change, and
        #: wholesale when the listener set does: ``_icells_version`` is
        #: the hook manager's ``version`` they were compiled against.
        self._icells: dict[int, Callable] = {}
        self._icells_version = -1
        #: Fused traces: head pc -> (supercell, insn count, end address,
        #: member (pc, insn) tuple).  Members are kept so invalidation
        #: can re-split a partially stale trace.
        self._traces: dict[int, tuple] = {}
        #: Fusion runs as predecode and invalidation cut them, before
        #: any probe split: run head -> members.  The live supercells
        #: are these runs cut at probed pcs (:meth:`_cut`), so disarming
        #: a probe re-fuses exactly what arming split.
        self._runs: dict[int, tuple] = {}
        #: Live supercell head -> head of the run it was cut from.
        self._run_of: dict[int, int] = {}
        #: The fused loop's dispatch table: pc -> (fn, insn count).
        #: Every unprobed cell appears with count 1; trace heads are
        #: overridden by their supercell.
        self._hot: dict[int, tuple] = {}
        #: Tier switch: False forces the plain per-cell loop even with
        #: traces built (differential testing, debugging).
        self.fusion_enabled = True
        #: Set by a faulting supercell: (faulting pc, uncharged cycles).
        self._trace_fault: tuple[int, int] | None = None
        #: Bound-method dispatch table for the general execute path.
        self._dispatch: dict[Op, Callable] = {
            op: getattr(self, name) for op, name in _DISPATCH_NAMES.items()}
        memory.add_code_listener(self.invalidate_code)

    # -- helpers ------------------------------------------------------------

    def fetch(self, addr: int, size: int) -> bytes:
        try:
            return self.memory.read(addr, size)
        except VMFault as fault:
            source = self.control_ring[-1].pc if self.control_ring else None
            raise VMFault(FAULT_BADPC, pc=addr, addr=addr, source_pc=source,
                          detail="instruction fetch from unmapped memory") \
                from fault

    def _data_fault(self, fault: VMFault, pc: int) -> VMFault:
        return VMFault(fault.kind, pc=pc, addr=fault.addr, detail=fault.detail)

    def virtual_time(self) -> float:
        """Virtual seconds elapsed since process start."""
        return self.cycles / CPU_HZ

    def snapshot_state(self) -> dict:
        return {"regs": list(self.regs), "pc": self.pc, "zf": self.zf,
                "sf": self.sf, "cf": self.cf, "cycles": self.cycles,
                "control_ring": list(self.control_ring)}

    def restore_state(self, state: dict):
        # In place: execution cells capture the register file and the
        # control ring by identity, so those objects must survive a
        # rollback (only their contents rewind).
        self.state_version += 1
        self.regs[:] = state["regs"]
        self.pc = state["pc"]
        self.zf = state["zf"]
        self.sf = state["sf"]
        self.cf = state["cf"]
        self.cycles = state["cycles"]
        self.control_ring.clear()
        self.control_ring.extend(state["control_ring"])

    # -- predecode ----------------------------------------------------------

    @property
    def predecoded_count(self) -> int:
        """How many instructions currently have executable cells."""
        return len(self._cells)

    @property
    def fused_trace_count(self) -> int:
        """How many supercells (fused straight-line traces) are live."""
        return len(self._traces)

    def predecode(self, start: int, end: int):
        """Predecode the read-only range ``[start, end)`` into executable
        cells (linear sweep; stops quietly at undecodable padding), then
        fuse straight-line runs within basic blocks into supercells."""
        region = self.memory.region_at(start)
        if region is None or region.writable:
            return
        stream = decode_range(self.fetch, start, end)
        for pc, insn in stream.items():
            self._decode_cache[pc] = insn
            cell = compile_cell(self, pc, insn)
            if cell is not None:
                self._cells[pc] = cell
                self._route(pc)
        self._fuse_stream(stream)

    def _fuse_stream(self, stream: dict[int, Insn]):
        """Merge maximal straight-line runs of fusible instructions —
        each closed by its block's terminating control transfer, when
        present — into supercells.  A run ends at any block leader
        (branch/call target, post-call return address), at any control
        transfer (which joins the trace as its tail), at SYS/HALT
        (which never compile), and at ``FUSION_LIMIT``; runs shorter
        than 2 stay per-cell.  Collected runs are then extended along
        the recovered CFG (:meth:`_extend_runs`) before installation."""
        if not stream:
            return
        leaders = block_leaders(stream)
        runs: list[list[tuple[int, Insn]]] = []
        run: list[tuple[int, Insn]] = []
        for pc in sorted(stream):
            insn = stream[pc]
            if run and (pc in leaders or pc != run[-1][0] + run[-1][1].length):
                runs.append(run)
                run = []
            if insn.fusible:
                run.append((pc, insn))
            elif insn.op in CONTROL_TRANSFER_OPS:
                run.append((pc, insn))
                runs.append(run)
                run = []
            else:                         # SYS/HALT: runtime re-entry
                runs.append(run)
                run = []
        runs.append(run)
        runs = [r for r in runs if r]
        self._extend_runs(stream, runs)
        for run in runs:
            self._install_traces(run)

    def _extend_runs(self, stream: dict[int, Insn],
                     runs: list[list[tuple[int, Insn]]]):
        """CFG-driven trace extension: splice a run's control-flow
        successor into the run when the successor is statically unique.

        A run ending in an unconditional immediate jump always
        continues into the jump target's run (the target is the only
        possible successor).  A run ending in a direct call continues
        into the callee when the stream CFG proves the callee
        single-entry — it heads its own block, has exactly one
        predecessor edge, and its address is never taken — so inlining
        it cannot duplicate code another caller reaches.  Extension
        fills up to ``FUSION_LIMIT`` (partial target slices allowed:
        the trace then falls off mid-run onto the target's cells);
        target runs keep their own standalone traces for entries that
        bypass the extended head.
        """
        # Lazy import: repro.analysis pulls the dynamic-analysis
        # pipeline whose runtime imports circle back into machine/.
        # By predecode time every module is fully initialised.
        from repro.analysis.static.cfg import cfg_from_stream
        cfg = cfg_from_stream(stream)
        by_head = {run[0][0]: run for run in runs}
        for run in runs:
            visited = {run[0][0]}
            while len(run) < FUSION_LIMIT:
                last_insn = run[-1][1]
                op = last_insn.op
                if op is Op.JMPI:
                    target = last_insn.operands[0]
                elif op is Op.CALLI:
                    target = last_insn.operands[0]
                    if (cfg.owner.get(target) != target
                            or len(cfg.preds.get(target, ())) != 1
                            or target in cfg.address_taken):
                        break
                else:
                    break
                nxt = by_head.get(target)
                if nxt is None or target in visited:
                    break
                visited.add(target)
                run.extend(nxt[:FUSION_LIMIT - len(run)])

    def _install_traces(self, run: list[tuple[int, Insn]]):
        """Record ``run`` (in ``FUSION_LIMIT`` pieces) as fusion runs and
        install their supercells."""
        for base in range(0, len(run), FUSION_LIMIT):
            items = tuple(run[base:base + FUSION_LIMIT])
            if len(items) >= 2:
                self._runs[items[0][0]] = items
                self._cut(items[0][0])

    def _cut(self, head: int):
        """(Re)install the supercells of run ``head``: the run cut at
        every probed pc, since a probed instruction must run through
        :meth:`step`.  Supercells previously cut from the run go first;
        with the run gone, that is all this does.  A piece never
        displaces another run's supercell at the same head (both are
        valid traces), except that a run always owns its own head."""
        for h in [h for h, owner in self._run_of.items() if owner == head]:
            del self._run_of[h], self._traces[h]
            self._route(h)
        chain: list[tuple[int, Insn]] = []
        for item in self._runs.get(head, ()) + (None,):
            if item is not None and not self._probed(item[0]):
                chain.append(item)
                continue
            if len(chain) >= 2 and (chain[0][0] == head
                                    or chain[0][0] not in self._traces):
                fn = compile_trace(self, chain)
                if fn is not None:
                    first = chain[0][0]
                    last_pc, last_insn = chain[-1]
                    self._traces[first] = (fn, len(chain),
                                           last_pc + last_insn.length,
                                           tuple(chain))
                    self._hot[first] = (fn, len(chain))
                    self._run_of[first] = head
            chain = []

    def invalidate_code(self, start: int | None = None,
                        end: int | None = None):
        """Forget predecoded instructions overlapping ``[start, end)``
        (everything when no range is given).  Called when a code region
        is unmapped/remapped or patched, so stale decodings can never
        execute.  Fusion runs overlapping the range are *re-split*: the
        run is dropped and its maximal chains of still-valid members are
        re-fused, so no supercell can replay stale bytes while untouched
        instructions keep their fast path.  Armed probes are keyed by pc
        and survive."""
        if start is None or end is None:
            self._decode_cache.clear()
            self._cells.clear()
            self._plain.clear()
            self._icells.clear()
            self._traces.clear()
            self._runs.clear()
            self._run_of.clear()
            self._hot.clear()
            return
        low = start - MAX_INSN_LENGTH
        stale = [pc for pc in self._decode_cache if low < pc < end]
        for pc in stale:
            self._decode_cache.pop(pc, None)
            self._cells.pop(pc, None)
            self._plain.pop(pc, None)
            self._icells.pop(pc, None)
            self._hot.pop(pc, None)
        for head in [h for h, run in self._runs.items()
                     if any(m_pc < end and m_pc + m_insn.length > start
                            for m_pc, m_insn in run)]:
            run = self._runs.pop(head)
            self._cut(head)
            # Members of one run are linked in order (by contiguity or
            # by a CFG-extended splice), so the still-valid chains are
            # the stretches between dead members: for a contiguous run,
            # exactly the classic prefix + suffix around the patch.
            chain: list[tuple[int, Insn]] = []
            for item in run + (None,):
                if item is not None and item[0] in self._cells:
                    chain.append(item)
                    continue
                self._install_traces(chain)
                chain = []

    # -- probes ---------------------------------------------------------------

    def arm(self, pcs: Iterable[int], check: Callable,
            stage: int = STAGE_CHECK):
        """Arm ``check(cpu, insn)`` to run before the instruction (or
        native) at each of ``pcs``, after the checks of the same or an
        earlier stage already armed there.  Natives see ``insn=None``."""
        fresh = []
        for pc in pcs:
            checks = self._checks.get(pc, ())
            stages = self._stages.get(pc, ())
            at = bisect_right(stages, stage)
            self._checks[pc] = checks[:at] + (check,) + checks[at:]
            self._stages[pc] = stages[:at] + (stage,) + stages[at:]
            if not checks:
                fresh.append(pc)
        self._reroute(fresh)

    def disarm(self, pcs: Iterable[int], check: Callable):
        """Remove one arming of ``check`` at each of ``pcs``."""
        cleared = []
        for pc in pcs:
            checks = self._checks.get(pc, ())
            if check not in checks:
                continue
            at = checks.index(check)
            stages = self._stages[pc]
            if len(checks) > 1:
                self._checks[pc] = checks[:at] + checks[at + 1:]
                self._stages[pc] = stages[:at] + stages[at + 1:]
            else:
                del self._checks[pc], self._stages[pc]
                cleared.append(pc)
        self._reroute(cleared)

    def watch(self, sites: Iterable[int], on_call: Callable,
              on_ret: Callable):
        """Add control probes: ``on_call(pc, target, return_addr)`` after
        every call's push and ``on_ret(pc, target, sp)`` after every
        return's pop that the general path executes — step(), the
        instrumented loop and native returns, which covers all code in
        writable memory.  Cached code runs on the general path only
        where probed, so ``sites`` must hold every cached call or
        return the probes can act on."""
        self.call_probes.append(on_call)
        self.ret_probes.append(on_ret)
        fresh = []
        for pc in sites:
            count = self._watched.get(pc, 0)
            self._watched[pc] = count + 1
            if not count:
                fresh.append(pc)
        self._reroute(fresh)

    def unwatch(self, sites: Iterable[int], on_call: Callable,
                on_ret: Callable):
        """Undo one :meth:`watch` with the same arguments."""
        self.call_probes.remove(on_call)
        self.ret_probes.remove(on_ret)
        cleared = []
        for pc in sites:
            count = self._watched.pop(pc)
            if count > 1:
                self._watched[pc] = count - 1
            else:
                cleared.append(pc)
        self._reroute(cleared)

    def _probed(self, pc: int) -> bool:
        return pc in self._checks or pc in self._watched

    def _route(self, pc: int):
        """Point both fast dispatch tables at ``pc``'s cell, or take the
        pc off them while it is probed (the loops then miss on it and
        take :meth:`step`).  A live supercell head keeps its entry.
        The pc's instrumented cell is dropped: its form depends on
        whether the pc is probed."""
        self._icells.pop(pc, None)
        cell = self._cells.get(pc)
        if cell is None or self._probed(pc):
            self._plain.pop(pc, None)
            self._hot.pop(pc, None)
        else:
            self._plain[pc] = cell
            if pc not in self._traces:
                self._hot[pc] = (cell, 1)

    def _reroute(self, pcs: list[int]):
        """Re-derive dispatch for ``pcs`` after their probe state changed
        and re-cut every fusion run through one of them."""
        if not pcs:
            return
        changed = set(pcs)
        for pc in changed:
            self._route(pc)
        for head in [h for h, run in self._runs.items()
                     if any(pc in changed for pc, _ in run)]:
            self._cut(head)

    def adopt_decoded(self, pcs):
        """Decode (and compile) every pc in ``pcs`` not yet decoded.

        Used when forking a golden boot image: the donor's boot run may
        have lazily decoded instructions past the linear-sweep horizon
        (code after padding reached through jumps), and a forked node
        must start with the identical decoded set so introspection and
        fast-path selection match an eagerly booted sibling exactly.
        """
        for pc in pcs:
            if pc not in self._decode_cache:
                self._decode_at(pc)

    def _decode_at(self, pc: int) -> Insn:
        """Decode at ``pc``; cache (and compile) read-only instructions."""
        try:
            insn = decode(self.fetch, pc)
        except EncodingError as err:
            source = self.control_ring[-1].pc if self.control_ring else None
            raise VMFault(FAULT_ILLEGAL, pc=pc, source_pc=source,
                          detail=str(err)) from None
        region = self.memory.region_at(pc)
        if region is not None and not region.writable:
            self._decode_cache[pc] = insn
            cell = compile_cell(self, pc, insn)
            if cell is not None:
                self._cells[pc] = cell
                self._route(pc)
        return insn

    # -- stack -----------------------------------------------------------------

    def push(self, value: int, pc: int):
        self.regs[SP] = to_unsigned(self.regs[SP] - 4)
        try:
            self.memory.write_word(self.regs[SP], value)
        except VMFault as fault:
            raise self._data_fault(fault, pc)
        self.hooks.sink.mem_write(pc, self.regs[SP], 4,
                                  (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def pop(self, pc: int) -> int:
        addr = self.regs[SP]
        try:
            value = self.memory.read_word(addr)
        except VMFault as fault:
            raise self._data_fault(fault, pc)
        self.hooks.sink.mem_read(pc, addr, 4)
        self.regs[SP] = to_unsigned(addr + 4)
        return value

    # -- execution ---------------------------------------------------------------

    def step(self):
        """Execute one instruction (or one native call at a native entry).

        This is the general path: it runs the pc's probes, emits every
        instrumentation event through the hook sink, and dispatches
        through the bound-method table (whose call/ret handlers feed the
        control probes).  The batched :meth:`run` only falls back here
        for natives, syscalls, HALT, writable-memory code and probed
        pcs, or while a tool listens to per-instruction events.
        """
        self.state_version += 1
        pc = self.pc
        native = self.native_entries.get(pc)
        if native is not None:
            native(self, pc)
            return
        insn = self._decode_cache.get(pc)
        if insn is None:
            insn = self._decode_at(pc)
        if self._checks:
            checks = self._checks.get(pc)
            if checks:
                for check in checks:
                    check(self, insn)
        hk = self.hooks.sink
        hk.ins(pc, insn, self)
        self.cycles += 1
        self._dispatch[insn.op](pc, insn, hk)

    def run(self, max_steps: int | None = None,
            max_cycles: int | None = None) -> str:
        """Batched execution until a budget is exhausted.

        Selects the cheapest inner loop the current deployment allows —
        fused supercells, plain cells, or instrumented cells — and
        re-selects whenever a fallback step attaches a tool.  Armed VSEF
        probes do not change the tier: a probed pc is absent from the
        fast dispatch tables, so either loop takes that one instruction
        through :meth:`step`, which runs its probes, and re-derives its
        budget chunk afterwards (probes may charge cycles).  Returns
        ``"steps"`` or ``"cycles"`` (which budget tripped); faults,
        syscall blocking and process exit propagate as exceptions.  With
        no budgets it runs until one of those.
        """
        self.state_version += 1
        steps_left = max_steps
        cycle_cap = self.cycles + max_cycles if max_cycles is not None \
            else None
        while True:
            if self.hooks.active:
                return self._run_instrumented(steps_left, cycle_cap)
            if self.fusion_enabled and self._traces:
                done, reason = self._run_fused(steps_left, cycle_cap)
            else:
                done, reason = self._run_plain(steps_left, cycle_cap)
            if reason is not None:
                return reason
            if steps_left is not None:
                steps_left -= done

    def _run_instrumented(self, steps_left: int | None,
                          cycle_cap: int | None) -> str:
        """The analysis-mode loop: every event reaches the tools.

        Instead of paying the full ``step()`` per instruction (native
        probe, decode probe, dispatch-table lookup, hook-sink fetch),
        decode-cached read-only code runs through lazily compiled
        *instrumented cells* (:func:`compile_instrumented_cell`) that
        hoist those lookups while emitting the identical event stream —
        and an unprobed instruction whose operand and control events no
        listener hears runs its plain cell — so an analysis-mode guest
        costs closer to the fast tier than to the interpreter.  Natives
        and writable-memory code still take ``step()``, which is also
        what first decodes a pc into the cache so its icell can be built
        on the next visit.
        """
        icells_get = self._icells.get
        icells = self._icells
        decode_get = self._decode_cache.get
        native_entries = self.native_entries
        hooks = self.hooks
        version = self._icells_version
        step = self.step
        done = 0
        while True:
            if cycle_cap is not None and self.cycles >= cycle_cap:
                return "cycles"
            if steps_left is not None and done >= steps_left:
                return "steps"
            if hooks.version != version:
                # A tool attached or detached (possibly from inside the
                # last cell): recompile against the new listener set.
                icells.clear()
                version = self._icells_version = hooks.version
            pc = self.pc
            cell = icells_get(pc)
            if cell is not None:
                cell(self)
            else:
                insn = decode_get(pc)
                if insn is not None and pc not in native_entries:
                    cell = compile_instrumented_cell(self, pc, insn)
                    icells[pc] = cell
                    cell(self)
                else:
                    step()
            done += 1

    def _run_fused(self, steps_left: int | None,
                   cycle_cap: int | None) -> tuple[int, str | None]:
        """The fused hot loop: supercells where traces exist, plain
        cells everywhere else, no hook dispatch; probed pcs miss and
        take the general path.

        ``_hot`` maps every unprobed predecoded pc to ``(fn, k)``; one
        dict probe dispatches either a single cell (k=1) or a whole
        straight-line trace (k instructions in one call).  Budgets stay
        exact: a trace larger than the remaining chunk is executed
        per-cell instead, so a budget can pause execution mid-trace and
        resume (possibly on a different tier) from any member pc.  A
        faulting supercell reports the faulting pc and its uncharged
        tail cycles through ``_trace_fault``; the ``finally`` below
        settles both, keeping fault-time state bit-identical to
        per-cell execution.
        """
        hot_get = self._hot.get
        cells_get = self._cells.get
        hooks = self.hooks
        pc = self.pc
        done = 0
        n = 0          # instructions executed since the last flush
        try:
            while True:
                chunk = _BIG if steps_left is None else steps_left - done
                if cycle_cap is not None:
                    room = cycle_cap - self.cycles
                    if room < chunk:
                        chunk = room
                        if chunk <= 0:
                            return done, "cycles"
                if chunk <= 0:
                    return done, "steps"
                n = 0
                while n < chunk:
                    entry = hot_get(pc)
                    if entry is None:
                        break
                    fn, k = entry
                    m = n + k
                    if m > chunk:
                        # The whole trace does not fit the budget: take
                        # one member cell (k=1 never lands here).
                        n += 1
                        pc = cells_get(pc)(self)
                        continue
                    n = m
                    pc = fn(self)
                else:
                    # Chunk exhausted without a miss: flush, re-derive.
                    self.cycles += n
                    done += n
                    n = 0
                    continue
                # Hot miss: probed pc, native entry, SYS/HALT,
                # writable-memory or unmapped code.  Flush and take the
                # general path; the chunk is re-derived after it.
                self.pc = pc
                self.cycles += n
                done += n
                n = 0
                self.step()
                pc = self.pc
                done += 1
                if hooks.active:
                    return done, None
        finally:
            fault = self._trace_fault
            if fault is None:
                self.pc = pc
                self.cycles += n
            else:
                self._trace_fault = None
                self.pc = fault[0]
                self.cycles += n - fault[1]

    def _run_plain(self, steps_left: int | None, cycle_cap: int | None
                   ) -> tuple[int, str | None]:
        """The batched hot loop over executable cells.

        Invariant hoisting: no hook dispatch (no tool listens to
        per-instruction events) and no probe lookup (probed pcs are
        absent from ``_plain``).  Cells cost exactly one cycle each, so
        the cycle budget converts into a pure instruction count per
        chunk; anything that charges irregular cycles (natives,
        syscalls, probes) misses, flushes the chunk and re-derives it.
        Returns ``(steps_executed, reason)`` where a ``None`` reason
        means the caller must re-select loops because a fallback
        attached a tool.
        """
        cells_get = self._plain.get
        hooks = self.hooks
        pc = self.pc
        done = 0
        n = 0          # cells executed since the last flush: == cycles owed
        try:
            while True:
                # Derive the largest chunk of 1-cycle cells both budgets
                # allow; outside the chunk, budgets are exact.
                chunk = _BIG if steps_left is None else steps_left - done
                if cycle_cap is not None:
                    room = cycle_cap - self.cycles
                    if room < chunk:
                        chunk = room
                        if chunk <= 0:
                            return done, "cycles"
                if chunk <= 0:
                    return done, "steps"
                n = 0
                while n < chunk:
                    cell = cells_get(pc)
                    if cell is None:
                        break
                    n += 1
                    pc = cell(self)
                else:
                    # Chunk exhausted without a miss: flush and re-derive.
                    self.cycles += n
                    done += n
                    n = 0
                    continue
                # Cell miss: probed pc, native entry, SYS/HALT,
                # writable-memory or unmapped code.  Flush and take the
                # general path.
                self.pc = pc
                self.cycles += n
                done += n
                n = 0
                self.step()
                pc = self.pc
                done += 1
                if hooks.active:
                    return done, None
        finally:
            self.pc = pc
            self.cycles += n

    # -- general-path opcode handlers (bound-method dispatch) ----------------

    def _op_alu_rr(self, pc: int, insn: Insn, hk):
        rd, rs = insn.operands
        regs = self.regs
        try:
            value = _ALU_BY_OP[insn.op](regs[rd], regs[rs]) & 0xFFFFFFFF
        except ZeroDivisionError:
            raise VMFault(FAULT_DIVZERO, pc=pc) from None
        regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_alu_ri(self, pc: int, insn: Insn, hk):
        rd, imm = insn.operands
        regs = self.regs
        try:
            value = _ALU_BY_OP[insn.op](regs[rd], imm) & 0xFFFFFFFF
        except ZeroDivisionError:
            raise VMFault(FAULT_DIVZERO, pc=pc) from None
        regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_movrr(self, pc: int, insn: Insn, hk):
        rd, rs = insn.operands
        value = self.regs[rs]
        self.regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_movri(self, pc: int, insn: Insn, hk):
        rd, imm = insn.operands
        self.regs[rd] = imm
        hk.reg_write(pc, rd, imm)
        self.pc = pc + insn.length

    def _op_load(self, pc: int, insn: Insn, hk):
        rd, base, disp = insn.operands
        addr = to_unsigned(self.regs[base] + to_signed(disp))
        size = 4 if insn.op == _LDW else 1
        try:
            raw = self.memory.read(addr, size)
        except VMFault as fault:
            raise self._data_fault(fault, pc)
        hk.mem_read(pc, addr, size)
        value = int.from_bytes(raw, "little")
        self.regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_store(self, pc: int, insn: Insn, hk):
        base, disp, rs = insn.operands
        addr = to_unsigned(self.regs[base] + to_signed(disp))
        size = 4 if insn.op == _STW else 1
        data = (self.regs[rs] & (0xFFFFFFFF if size == 4 else 0xFF)
                ).to_bytes(size, "little")
        try:
            self.memory.write(addr, data)
        except VMFault as fault:
            raise self._data_fault(fault, pc)
        hk.mem_write(pc, addr, size, data)
        self.pc = pc + insn.length

    def _op_cmp(self, pc: int, insn: Insn, hk):
        a = self.regs[insn.operands[0]]
        b = self.regs[insn.operands[1]] if insn.op == _CMPRR \
            else insn.operands[1]
        self.zf = a == b
        self.sf = to_signed(a) < to_signed(b)
        self.cf = a < b
        self.pc = pc + insn.length

    def _op_jmp(self, pc: int, insn: Insn, hk):
        target = insn.operands[0] if insn.op == _JMPI \
            else self.regs[insn.operands[0]]
        self.control_ring.append(ControlEvent("branch", pc, target))
        hk.branch(pc, target, True)
        self.pc = target

    def _op_cond_branch(self, pc: int, insn: Insn, hk):
        taken = PREDICATE_FUNCS[insn.op](self.zf, self.sf, self.cf)
        target = insn.operands[0]
        hk.branch(pc, target, taken)
        if taken:
            self.control_ring.append(ControlEvent("branch", pc, target))
            self.pc = target
        else:
            self.pc = pc + insn.length

    def _op_call(self, pc: int, insn: Insn, hk):
        next_pc = pc + insn.length
        target = insn.operands[0] if insn.op == _CALLI \
            else self.regs[insn.operands[0]]
        self.push(next_pc, pc)
        self.known_call_targets.add(target)
        self.control_ring.append(ControlEvent("call", pc, target))
        for probe in self.call_probes:
            probe(pc, target, next_pc)
        hk.call(pc, target, next_pc)
        self.pc = target

    def _op_ret(self, pc: int, insn: Insn, hk):
        sp_before = self.regs[SP]
        target = self.pop(pc)
        self.control_ring.append(ControlEvent("ret", pc, target))
        for probe in self.ret_probes:
            probe(pc, target, sp_before)
        hk.ret(pc, target, sp_before)
        self.pc = target

    def _op_push(self, pc: int, insn: Insn, hk):
        value = self.regs[insn.operands[0]] if insn.op == _PUSHR \
            else insn.operands[0]
        self.push(value, pc)
        self.pc = pc + insn.length

    def _op_pop(self, pc: int, insn: Insn, hk):
        value = self.pop(pc)
        rd = insn.operands[0]
        self.regs[rd] = value
        hk.reg_write(pc, rd, value)
        self.pc = pc + insn.length

    def _op_sys(self, pc: int, insn: Insn, hk):
        if self.syscall_handler is None:
            raise VMFault(FAULT_ILLEGAL, pc=pc, detail="no syscall handler")
        # The handler may raise _WouldBlock; the Process rewinds pc to
        # re-execute the SYS on resume, so update pc first.
        self.pc = pc + insn.length
        self.syscall_handler(insn.operands[0], pc)

    def _op_nop(self, pc: int, insn: Insn, hk):
        self.pc = pc + insn.length

    def _op_halt(self, pc: int, insn: Insn, hk):
        raise ProcessExited(self.regs[0])


#: ALU opcode -> semantic callable (shared with the execution cells).
_ALU_BY_OP = {op: ALU_FUNCS[name] for op, name in ALU_OPS.items()}

#: Opcodes the general-path handlers test for, bound once: reading a
#: member off ``Op`` is an enum attribute lookup on every call.
_LDW, _STW, _CMPRR, _JMPI, _CALLI, _PUSHR = (
    Op.LDW, Op.STW, Op.CMPRR, Op.JMPI, Op.CALLI, Op.PUSHR)

_BIG = 1 << 62

#: Opcode -> general-path handler method name; instances bind these into
#: their dispatch table.  Replaces the monolithic if/elif execute ladder.
_DISPATCH_NAMES: dict[Op, str] = {}
for _op in ALU_OPS:
    _DISPATCH_NAMES[_op] = ("_op_alu_rr" if OP_SIGNATURES[_op] == "rr"
                            else "_op_alu_ri")
for _op in PREDICATE_FUNCS:
    _DISPATCH_NAMES[_op] = "_op_cond_branch"
_DISPATCH_NAMES.update({
    Op.MOVRR: "_op_movrr",
    Op.MOVRI: "_op_movri",
    Op.LDW: "_op_load",
    Op.LDB: "_op_load",
    Op.STW: "_op_store",
    Op.STB: "_op_store",
    Op.CMPRR: "_op_cmp",
    Op.CMPRI: "_op_cmp",
    Op.JMPI: "_op_jmp",
    Op.JMPR: "_op_jmp",
    Op.CALLI: "_op_call",
    Op.CALLR: "_op_call",
    Op.RET: "_op_ret",
    Op.PUSHR: "_op_push",
    Op.PUSHI: "_op_push",
    Op.POPR: "_op_pop",
    Op.SYS: "_op_sys",
    Op.NOP: "_op_nop",
    Op.HALT: "_op_halt",
})
assert set(_DISPATCH_NAMES) == set(OP_SIGNATURES), "dispatch table incomplete"


# Re-export register aliases for convenience of callers.
REG_SP = SP
REG_FP = FP
