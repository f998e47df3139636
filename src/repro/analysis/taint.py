"""Dynamic taint analysis — analysis step #3 (a TaintCheck [41] port).

Byte-granular shadow state over memory and registers.  Network input is
the taint source: every byte received is labeled ``(msg_id, offset)``.
Taint propagates through data movement and arithmetic (including native
libc copies) and is *checked at sinks*: a tainted return address at
``ret``, or a tainted target at an indirect jump/call, raises
:class:`TaintViolation` on the spot.

Each shadow cell also remembers the recent instructions that moved it
(a bounded writer chain), which is exactly what a taint-derived VSEF
needs: "a list of instructions which propagated the taint, and the
instruction which incorrectly consumed tainted data" (§3.3).

Deliberate fidelity to TaintCheck's blind spots: comparisons do not
taint the flags and control dependences are not tracked — the paper's
``z=x`` example explains why backward slicing (step #4) still matters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.antibody.vsef import VSEF, CodeLoc, loc_for_address
from repro.errors import ReproError
from repro.instrument.hooks import Tool
from repro.isa.opcodes import ALU_OPS, SP, Op, to_signed, to_unsigned
from repro.machine.syscalls import SYS_RECV

_MAX_WRITERS = 24
_RECENT_TAINTED_OPS = 32

Label = tuple[int, int]          # (msg_id, byte offset within message)


@dataclass(frozen=True)
class TaintCell:
    """Shadow state for one byte or register: labels + writer chain."""

    labels: frozenset[Label]
    writers: tuple[int, ...] = ()

    def with_writer(self, pc: int) -> "TaintCell":
        if self.writers and self.writers[-1] == pc:
            return self
        writers = (self.writers + (pc,))[-_MAX_WRITERS:]
        return TaintCell(self.labels, writers)


def _union(cells: list[TaintCell | None]) -> TaintCell | None:
    present = [cell for cell in cells if cell is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    labels = frozenset().union(*(cell.labels for cell in present))
    writers: tuple[int, ...] = ()
    for cell in present:
        writers += cell.writers
    return TaintCell(labels, writers[-_MAX_WRITERS:])


class TaintViolation(ReproError):
    """Tainted data reached a sensitive sink; replay stops here."""

    def __init__(self, kind: str, pc: int, cell: TaintCell):
        self.kind = kind
        self.pc = pc
        self.cell = cell
        msgs = sorted({label[0] for label in cell.labels})
        super().__init__(f"{kind} at pc={pc:#010x} from message(s) {msgs}")


@dataclass
class TaintReport:
    """What taint analysis concluded."""

    violation: TaintViolation | None
    malicious_msg_ids: list[int]
    tainted_offsets: dict[int, list[int]]   # msg_id -> offsets involved
    propagation_pcs: list[int]
    sink_pc: int | None
    pointer_taint_events: list[tuple[int, int]] = field(default_factory=list)

    def derive_vsef(self, process) -> VSEF | None:
        """The taint-subset VSEF: propagation instructions + sink (§3.3)."""
        if self.sink_pc is None:
            return None
        sink = loc_for_address(process, self.sink_pc)
        if sink is None:
            return None
        pcs = []
        for pc in self.propagation_pcs:
            loc = loc_for_address(process, pc)
            if loc is not None and loc not in pcs:
                pcs.append(loc)
        return VSEF(kind="taint_subset",
                    params={"pcs": pcs, "sinks": [sink]},
                    provenance="taint",
                    note="taint-tracking over the propagation slice only")


class TaintTracker(Tool):
    """The attachable dynamic taint analysis tool."""

    name = "taint"
    #: TaintCheck's 20-40x; LIFT reduces it to 2-4x but we model the
    #: paper's PIN reimplementation.
    overhead_factor = 20.0

    def __init__(self, raise_on_violation: bool = True):
        self.raise_on_violation = raise_on_violation
        self.shadow_mem: dict[int, TaintCell] = {}
        self.shadow_reg: list[TaintCell | None] = [None] * 10
        self.violations: list[TaintViolation] = []
        self.pointer_taint_events: list[tuple[int, int]] = []
        self.recent_tainted: deque = deque(maxlen=_RECENT_TAINTED_OPS)
        self._pending_store: TaintCell | None = None
        self._pending_addr: int | None = None
        self.process = None

    def on_attach(self, process):
        self.process = process

    # -- sources ---------------------------------------------------------------

    def on_syscall(self, pc, number, args, result):
        if number == SYS_RECV and isinstance(result, dict):
            buf = result["buf"]
            msg_id = result["msg_id"]
            # New request: fault attribution should reflect taint moved
            # while *this* request is being served, not remnants of the
            # previous one still sitting in the ring.
            self.recent_tainted.clear()
            for offset in range(len(result["data"])):
                self.shadow_mem[buf + offset] = TaintCell(
                    frozenset({(msg_id, offset)}))

    # -- native copies -------------------------------------------------------------

    def on_mem_copy(self, pc, dst, src, size):
        for offset in range(size):
            cell = self.shadow_mem.get(src + offset)
            if cell is None:
                self.shadow_mem.pop(dst + offset, None)
            else:
                moved = cell.with_writer(pc)
                self.shadow_mem[dst + offset] = moved
                self.recent_tainted.append((pc, moved))

    def on_mem_write(self, pc, addr, size, data):
        if self._pending_addr == addr and self._pending_store is not None:
            cell = self._pending_store.with_writer(pc)
            for offset in range(size):
                self.shadow_mem[addr + offset] = cell
            self.recent_tainted.append((pc, cell))
        else:
            for offset in range(size):
                self.shadow_mem.pop(addr + offset, None)
        self._pending_store = None
        self._pending_addr = None

    # -- instruction semantics --------------------------------------------------------

    def on_ins(self, pc, insn, cpu):
        self._pending_store = None
        self._pending_addr = None
        handler = _INS_HANDLERS.get(insn.op)
        if handler is not None:
            handler(self, pc, insn, cpu)

    def _ins_movrr(self, pc, insn, cpu):
        regs = self.shadow_reg
        rd, rs = insn.operands
        regs[rd] = regs[rs].with_writer(pc) if regs[rs] else None

    def _ins_movri(self, pc, insn, cpu):
        self.shadow_reg[insn.operands[0]] = None

    def _ins_alu(self, pc, insn, cpu):
        regs = self.shadow_reg
        rd = insn.operands[0]
        if insn.signature == "rr":
            merged = _union([regs[rd], regs[insn.operands[1]]])
        else:
            merged = regs[rd]
        regs[rd] = merged.with_writer(pc) if merged else None

    def _ins_load(self, pc, insn, cpu):
        regs = self.shadow_reg
        rd, base, disp = insn.operands
        addr = to_unsigned(cpu.regs[base] + to_signed(disp))
        size = 4 if insn.op == _LDW else 1
        if regs[base] is not None:
            self.pointer_taint_events.append((pc, addr))
        merged = _union([self.shadow_mem.get(addr + i)
                         for i in range(size)])
        regs[rd] = merged.with_writer(pc) if merged else None
        if merged:
            self.recent_tainted.append((pc, merged))

    def _ins_store(self, pc, insn, cpu):
        base, disp, rs = insn.operands
        addr = to_unsigned(cpu.regs[base] + to_signed(disp))
        self._pending_store = self.shadow_reg[rs]
        self._pending_addr = addr

    def _ins_pushr(self, pc, insn, cpu):
        rs = insn.operands[0]
        self._pending_store = self.shadow_reg[rs]
        self._pending_addr = to_unsigned(cpu.regs[SP] - 4)

    def _ins_popr(self, pc, insn, cpu):
        rd = insn.operands[0]
        sp = cpu.regs[SP]
        merged = _union([self.shadow_mem.get(sp + i) for i in range(4)])
        self.shadow_reg[rd] = merged.with_writer(pc) if merged else None

    def _ins_indirect(self, pc, insn, cpu):
        cell = self.shadow_reg[insn.operands[0]]
        if cell is not None:
            self._violate("tainted indirect control transfer", pc, cell)

    def _ins_ret(self, pc, insn, cpu):
        sp = cpu.regs[SP]
        cell = _union([self.shadow_mem.get(sp + i) for i in range(4)])
        if cell is not None:
            self._violate("tainted return address", pc, cell)

    def _violate(self, kind: str, pc: int, cell: TaintCell):
        violation = TaintViolation(kind, pc, cell)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    # -- reporting ---------------------------------------------------------------------

    def _labels_near_fault(self) -> TaintCell | None:
        return _union([cell for _pc, cell in self.recent_tainted])

    def report(self, fault=None) -> TaintReport:
        """Summarize: prefer a hard violation; otherwise attribute the
        fault to the taint that was moving when it happened."""
        violation = self.violations[-1] if self.violations else None
        if violation is not None:
            cell = violation.cell
            sink = violation.pc
        else:
            cell = self._labels_near_fault()
            sink = fault.pc if fault is not None and cell is not None else None
        if cell is None:
            msg_ids: list[int] = []
            offsets: dict[int, list[int]] = {}
            pcs: list[int] = []
        else:
            msg_ids = sorted({label[0] for label in cell.labels})
            offsets = {}
            for msg_id, offset in sorted(cell.labels):
                offsets.setdefault(msg_id, []).append(offset)
            pcs = list(dict.fromkeys(cell.writers))
        return TaintReport(violation=violation,
                           malicious_msg_ids=msg_ids,
                           tainted_offsets=offsets,
                           propagation_pcs=pcs,
                           sink_pc=sink,
                           pointer_taint_events=list(
                               self.pointer_taint_events))


#: ``on_ins`` dispatches on the opcode through this table rather than an
#: if-chain over ``Op`` members: reading an enum member off its class is
#: a slow attribute lookup, and the chain paid up to a dozen of them on
#: every instrumented instruction.  Opcodes absent here move no taint.
_LDW = Op.LDW
_INS_HANDLERS = {
    Op.MOVRR: TaintTracker._ins_movrr,
    Op.MOVRI: TaintTracker._ins_movri,
    **{op: TaintTracker._ins_alu for op in ALU_OPS},
    Op.LDW: TaintTracker._ins_load,
    Op.LDB: TaintTracker._ins_load,
    Op.STW: TaintTracker._ins_store,
    Op.STB: TaintTracker._ins_store,
    Op.PUSHR: TaintTracker._ins_pushr,
    Op.POPR: TaintTracker._ins_popr,
    Op.JMPR: TaintTracker._ins_indirect,
    Op.CALLR: TaintTracker._ins_indirect,
    Op.RET: TaintTracker._ins_ret,
}
