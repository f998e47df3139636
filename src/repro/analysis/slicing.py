"""Dynamic backward slicing — analysis step #4 (§3.2, after [61, 65]).

Records the full dynamic dependence graph of the replayed window: for
every executed instruction, edges to the last writers of each register
and memory byte it reads, to the last flags-setter (for conditional
branches), and to the last taken control transfer (control dependence).
Unlike taint analysis, this captures *all* influences — including the
``j``/``w`` control and index dependences of the paper's example that
taint misses.

The slice is the paper's sanity check: any instruction a previous step
blamed must appear in the backward slice from the crash; "if they
identify an issue which is not in the slice, then they are incorrect."

Cost is 100-1000x, which is precisely why it is only ever run over the
short replay window; the tool enforces a node budget as a backstop.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ReproError
from repro.instrument.hooks import Tool
from repro.isa.opcodes import (ALU_OPS, COND_BRANCHES, OP_SIGNATURES, SP, Op,
                               to_signed, to_unsigned)
from repro.machine.syscalls import SYS_RECV

_DEFAULT_NODE_BUDGET = 4_000_000


@dataclass(frozen=True)
class SliceNode:
    """One dynamic instruction instance in the dependence graph."""

    index: int
    pc: int
    kind: str      # opcode name, native name, or "input"


@dataclass
class SliceReport:
    """A computed backward slice."""

    criterion: int                     # node index sliced from
    node_indices: set[int]
    pcs: set[int]
    input_labels: set[tuple[int, int]]  # (msg_id, offset) sources reached
    total_nodes: int

    @property
    def malicious_msg_ids(self) -> list[int]:
        return sorted({msg_id for msg_id, _ in self.input_labels})

    def contains_pc(self, pc: int) -> bool:
        return pc in self.pcs

    def verifies(self, pcs: list[int]) -> bool:
        """The paper's cross-check: every blamed pc must be in the slice."""
        return all(pc in self.pcs for pc in pcs)


class _NodeView(Sequence):
    """Read-only view of a slicer's nodes: builds each :class:`SliceNode`
    from the parallel ``pcs``/``kinds`` lists on access."""

    __slots__ = ("_pcs", "_kinds")

    def __init__(self, pcs: list[int], kinds: list[str]):
        self._pcs = pcs
        self._kinds = kinds

    def __len__(self) -> int:
        return len(self._pcs)

    def __getitem__(self, index: int) -> SliceNode:
        if index < 0:
            index += len(self._pcs)
        return SliceNode(index=index, pc=self._pcs[index],
                         kind=self._kinds[index])


class BackwardSlicer(Tool):
    """The attachable dependence-graph recorder.

    Nodes are stored as parallel lists — ``pcs``, ``kinds`` and ``deps``
    indexed by node — rather than one object per dynamic instruction;
    :attr:`nodes` views them as :class:`SliceNode` records.
    """

    name = "slicing"
    #: "our implementation imposes 100x to 1000x overhead" (§3.2).
    overhead_factor = 300.0

    def __init__(self, node_budget: int = _DEFAULT_NODE_BUDGET,
                 control_deps: bool = True):
        self.node_budget = node_budget
        self.control_deps = control_deps
        self.pcs: list[int] = []
        self.kinds: list[str] = []
        self.deps: list[tuple[int, ...]] = []
        self.node_labels: dict[int, tuple[int, int]] = {}  # input nodes
        #: Per register, the edge to its last writer: ``(node,)`` or ``()``.
        self._reg_dep: list[tuple[int, ...]] = [()] * 10
        self._last_mem: dict[int, int] = {}
        self._flags_dep: tuple[int, ...] = ()
        #: The control-dependence edge every node carries: the last taken
        #: control transfer, or ``()`` (none yet, or ``control_deps`` off).
        self._ctl: tuple[int, ...] = ()
        self._native_reads: list[int] = []
        self._in_native: int | None = None
        self._pending_store: tuple[int, int, tuple[int, ...]] | None = None
        self.truncated = False

    @property
    def nodes(self) -> _NodeView:
        return _NodeView(self.pcs, self.kinds)

    # -- node plumbing ----------------------------------------------------------

    def _add_node(self, pc: int, kind: str, deps: tuple[int, ...]) -> int:
        pcs = self.pcs
        index = len(pcs)
        if index >= self.node_budget:
            self.truncated = True
            raise ReproError("slice node budget exhausted")
        pcs.append(pc)
        self.kinds.append(kind)
        self.deps.append(deps)
        return index

    def _set_control(self, node: int):
        if self.control_deps:
            self._ctl = (node,)

    def _mem_deps(self, addr: int, size: int) -> tuple[int, ...]:
        """Last writers of ``[addr, addr + size)``, each once, in byte
        order."""
        get = self._last_mem.get
        if size == 1:
            writer = get(addr)
            return () if writer is None else (writer,)
        out: list[int] = []
        for byte in range(addr, addr + size):
            writer = get(byte)
            if writer is not None and writer not in out:
                out.append(writer)
        return tuple(out)

    def _define_mem(self, addr: int, size: int, node: int):
        last_mem = self._last_mem
        for byte in range(addr, addr + size):
            last_mem[byte] = node

    # -- sources -----------------------------------------------------------------

    def on_syscall(self, pc, number, args, result):
        if number == SYS_RECV and isinstance(result, dict):
            buf, msg_id = result["buf"], result["msg_id"]
            for offset in range(len(result["data"])):
                node = self._add_node(pc, "input", ())
                self.node_labels[node] = (msg_id, offset)
                self._last_mem[buf + offset] = node

    # -- natives -------------------------------------------------------------------

    def on_native(self, pc, name, args):
        self._in_native = pc
        self._native_reads = []

    def on_free(self, pc, payload):
        # free() consumes the block's free-list link word; recording the
        # dependence puts the free (and, transitively, whoever wrote those
        # bytes — e.g. a use-after-free strcpy) into the slice.
        self._add_node(pc, "free", self._mem_deps(payload, 4) + self._ctl)

    def on_malloc(self, pc, payload, size):
        if payload:
            self._add_node(pc, "malloc", self._ctl)

    def on_mem_read(self, pc, addr, size):
        if self._in_native == pc:
            self._native_reads.extend(self._mem_deps(addr, size))

    def on_mem_copy(self, pc, dst, src, size):
        node = self._add_node(pc, "copy", self._mem_deps(src, size)
                              + self._ctl)
        self._define_mem(dst, size, node)

    def on_mem_write(self, pc, addr, size, data):
        pending = self._pending_store
        if pending is not None:
            self._pending_store = None
            if pending[0] == addr:
                node = self._add_node(pc, "store", pending[2])
                self._define_mem(addr, size, node)
                return
        deps = tuple(dict.fromkeys(self._native_reads)) \
            if self._in_native == pc else ()
        node = self._add_node(pc, "write", deps + self._ctl)
        self._define_mem(addr, size, node)

    def on_reg_write(self, pc, reg, value):
        if self._in_native == pc:
            deps = tuple(dict.fromkeys(self._native_reads))
            self._reg_dep[reg] = (self._add_node(pc, "native-result", deps),)
            self._in_native = None

    # -- instruction semantics ----------------------------------------------------------

    def on_ins(self, pc, insn, cpu):
        self._in_native = None
        self._pending_store = None
        handler = _INS_HANDLERS.get(insn.op)
        if handler is not None:
            handler(self, pc, insn, cpu)

    def _ins_movrr(self, pc, insn, cpu):
        rd, rs = insn.operands
        self._reg_dep[rd] = (self._add_node(
            pc, "MOVRR", self._reg_dep[rs] + self._ctl),)

    def _ins_movri(self, pc, insn, cpu):
        self._reg_dep[insn.operands[0]] = (self._add_node(
            pc, "MOVRI", self._ctl),)

    def _ins_alu_rr(self, pc, insn, cpu):
        rd, rs = insn.operands
        reg_dep = self._reg_dep
        reg_dep[rd] = (self._add_node(
            pc, _KIND[insn.op], reg_dep[rd] + reg_dep[rs] + self._ctl),)

    def _ins_alu_ri(self, pc, insn, cpu):
        rd = insn.operands[0]
        reg_dep = self._reg_dep
        reg_dep[rd] = (self._add_node(
            pc, _KIND[insn.op], reg_dep[rd] + self._ctl),)

    def _ins_load(self, pc, insn, cpu):
        rd, base, disp = insn.operands
        addr = to_unsigned(cpu.regs[base] + to_signed(disp))
        op = insn.op
        deps = (self._reg_dep[base]
                + self._mem_deps(addr, 4 if op == _LDW else 1) + self._ctl)
        self._reg_dep[rd] = (self._add_node(pc, _KIND[op], deps),)

    def _ins_store(self, pc, insn, cpu):
        base, disp, rs = insn.operands
        reg_dep = self._reg_dep
        addr = to_unsigned(cpu.regs[base] + to_signed(disp))
        self._pending_store = (addr, 4 if insn.op == _STW else 1,
                               reg_dep[base] + reg_dep[rs] + self._ctl)

    def _ins_cmprr(self, pc, insn, cpu):
        r1, r2 = insn.operands
        reg_dep = self._reg_dep
        self._flags_dep = (self._add_node(
            pc, "CMPRR", reg_dep[r1] + reg_dep[r2] + self._ctl),)

    def _ins_cmpri(self, pc, insn, cpu):
        self._flags_dep = (self._add_node(
            pc, "CMPRI", self._reg_dep[insn.operands[0]] + self._ctl),)

    def _ins_cond(self, pc, insn, cpu):
        self._set_control(self._add_node(pc, _KIND[insn.op],
                                         self._flags_dep + self._ctl))

    def _ins_indirect(self, pc, insn, cpu):
        self._set_control(self._add_node(
            pc, _KIND[insn.op], self._reg_dep[insn.operands[0]] + self._ctl))

    def _ins_ret(self, pc, insn, cpu):
        self._set_control(self._add_node(
            pc, "RET", self._mem_deps(cpu.regs[SP], 4) + self._ctl))

    def _ins_pushr(self, pc, insn, cpu):
        self._pending_store = (to_unsigned(cpu.regs[SP] - 4), 4,
                               self._reg_dep[insn.operands[0]] + self._ctl)

    def _ins_pushi(self, pc, insn, cpu):
        self._pending_store = (to_unsigned(cpu.regs[SP] - 4), 4, self._ctl)

    def _ins_popr(self, pc, insn, cpu):
        self._reg_dep[insn.operands[0]] = (self._add_node(
            pc, "POPR", self._mem_deps(cpu.regs[SP], 4) + self._ctl),)

    # -- slicing --------------------------------------------------------------------------

    def last_node_for_pc(self, pc: int) -> int | None:
        pcs = self.pcs
        for index in range(len(pcs) - 1, -1, -1):
            if pcs[index] == pc:
                return index
        return None

    def backward_slice(self, criterion: int | None = None) -> SliceReport:
        """Walk the dependence graph backward from ``criterion``
        (default: the last recorded node, i.e. the crash site)."""
        if not self.pcs:
            return SliceReport(criterion=-1, node_indices=set(), pcs=set(),
                               input_labels=set(), total_nodes=0)
        if criterion is None:
            criterion = len(self.pcs) - 1
        deps = self.deps
        visited: set[int] = set()
        frontier = [criterion]
        while frontier:
            index = frontier.pop()
            if index not in visited:
                visited.add(index)
                frontier.extend(deps[index])
        pcs = {self.pcs[index] for index in visited}
        labels = {self.node_labels[index] for index in visited
                  if index in self.node_labels}
        return SliceReport(criterion=criterion, node_indices=visited,
                           pcs=pcs, input_labels=labels,
                           total_nodes=len(self.pcs))

    def forward_slice(self, start: int) -> set[int]:
        """All nodes influenced by ``start`` (§3.2's forward slice)."""
        influenced: set[int] = {start}
        for index in range(start + 1, len(self.pcs)):
            if any(dep in influenced for dep in self.deps[index]):
                influenced.add(index)
        return influenced

    def forward_slice_from_input(self, msg_id: int) -> SliceReport:
        """Everything influenced by one input message.

        The paper notes this capability ("a forward slice from the
        exploit input would reveal all instructions and memory
        potentially tainted by it") but left it unimplemented; we
        implement it as the natural extension: seed the frontier with
        the message's input nodes and sweep forward once.
        """
        seeds = {index for index, label in self.node_labels.items()
                 if label[0] == msg_id}
        influenced: set[int] = set(seeds)
        if seeds:
            first = min(seeds)
            for index in range(first + 1, len(self.pcs)):
                if index in influenced:
                    continue
                if any(dep in influenced for dep in self.deps[index]):
                    influenced.add(index)
        pcs = {self.pcs[index] for index in influenced}
        labels = {self.node_labels[index] for index in influenced
                  if index in self.node_labels}
        return SliceReport(criterion=-1, node_indices=influenced,
                           pcs=pcs, input_labels=labels,
                           total_nodes=len(self.pcs))


#: ``on_ins`` dispatches on the opcode through this table, as
#: ``TaintTracker`` does: an ``if`` chain over ``Op`` members pays a slow
#: enum attribute lookup per test on every instrumented instruction.
#: Opcodes absent here (direct jumps and calls, NOP, SYS, HALT) add no
#: node.
_LDW = Op.LDW
_STW = Op.STW
_KIND = {op: op.name for op in Op}
_INS_HANDLERS = {
    Op.MOVRR: BackwardSlicer._ins_movrr,
    Op.MOVRI: BackwardSlicer._ins_movri,
    **{op: (BackwardSlicer._ins_alu_rr if OP_SIGNATURES[op] == "rr"
            else BackwardSlicer._ins_alu_ri) for op in ALU_OPS},
    Op.LDW: BackwardSlicer._ins_load,
    Op.LDB: BackwardSlicer._ins_load,
    Op.STW: BackwardSlicer._ins_store,
    Op.STB: BackwardSlicer._ins_store,
    Op.CMPRR: BackwardSlicer._ins_cmprr,
    Op.CMPRI: BackwardSlicer._ins_cmpri,
    **{op: BackwardSlicer._ins_cond for op in COND_BRANCHES},
    Op.JMPR: BackwardSlicer._ins_indirect,
    Op.CALLR: BackwardSlicer._ins_indirect,
    Op.RET: BackwardSlicer._ins_ret,
    Op.PUSHR: BackwardSlicer._ins_pushr,
    Op.PUSHI: BackwardSlicer._ins_pushi,
    Op.POPR: BackwardSlicer._ins_popr,
}
