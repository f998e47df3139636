"""If-chain reference backward slicer.

This is the original ``BackwardSlicer``: it builds one frozen
``SliceNode`` per dynamic instruction and walks an ``if`` chain over
``Op`` members in ``on_ins``.  It lives in the test tree only, as the
oracle the table-driven slicer in ``repro.analysis.slicing`` is compared
against: same node pcs and kinds, same dependence edges, same input
labels, same slices.
"""

from __future__ import annotations

from repro.analysis.slicing import SliceNode, SliceReport
from repro.errors import ReproError
from repro.instrument.hooks import Tool
from repro.isa.opcodes import ALU_OPS, SP, Op, to_signed, to_unsigned
from repro.machine.syscalls import SYS_RECV

_DEFAULT_NODE_BUDGET = 4_000_000


class ReferenceSlicer(Tool):
    """The original dependence-graph recorder: one ``SliceNode`` per
    dynamic instruction, an ``if`` chain over ``Op`` members."""

    name = "slicing"
    #: "our implementation imposes 100x to 1000x overhead" (§3.2).
    overhead_factor = 300.0

    def __init__(self, node_budget: int = _DEFAULT_NODE_BUDGET,
                 control_deps: bool = True):
        self.node_budget = node_budget
        self.control_deps = control_deps
        self.nodes: list[SliceNode] = []
        self.deps: list[tuple[int, ...]] = []
        self.node_labels: dict[int, tuple[int, int]] = {}  # input nodes
        self._last_reg: list[int | None] = [None] * 10
        self._last_mem: dict[int, int] = {}
        self._last_flags: int | None = None
        self._last_control: int | None = None
        self._native_reads: list[int] = []
        self._in_native: int | None = None
        self._pending_store: tuple[int, int, tuple[int, ...]] | None = None
        self.truncated = False

    # -- node plumbing ----------------------------------------------------------

    def _add_node(self, pc: int, kind: str, deps: tuple[int, ...]) -> int:
        if len(self.nodes) >= self.node_budget:
            self.truncated = True
            raise ReproError("slice node budget exhausted")
        index = len(self.nodes)
        self.nodes.append(SliceNode(index=index, pc=pc, kind=kind))
        self.deps.append(deps)
        return index

    def _mem_deps(self, addr: int, size: int) -> tuple[int, ...]:
        out = []
        for offset in range(size):
            writer = self._last_mem.get(addr + offset)
            if writer is not None:
                out.append(writer)
        return tuple(dict.fromkeys(out))

    def _define_mem(self, addr: int, size: int, node: int):
        for offset in range(size):
            self._last_mem[addr + offset] = node

    def _control_dep(self) -> tuple[int, ...]:
        if self.control_deps and self._last_control is not None:
            return (self._last_control,)
        return ()

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
        deps = self._mem_deps(payload, 4) + self._control_dep()
        self._add_node(pc, "free", deps)

    def on_malloc(self, pc, payload, size):
        if payload:
            self._add_node(pc, "malloc", self._control_dep())

    def on_mem_read(self, pc, addr, size):
        if self._in_native == pc:
            self._native_reads.extend(self._mem_deps(addr, size))

    def on_mem_copy(self, pc, dst, src, size):
        deps = self._mem_deps(src, size) + self._control_dep()
        node = self._add_node(pc, "copy", deps)
        self._define_mem(dst, size, node)

    def on_mem_write(self, pc, addr, size, data):
        if self._pending_store is not None:
            store_addr, store_size, deps = self._pending_store
            self._pending_store = None
            if store_addr == addr:
                node = self._add_node(pc, "store", deps)
                self._define_mem(addr, size, node)
                return
        deps = tuple(dict.fromkeys(self._native_reads)) \
            if self._in_native == pc else ()
        node = self._add_node(pc, "write", deps + self._control_dep())
        self._define_mem(addr, size, node)

    def on_reg_write(self, pc, reg, value):
        if self._in_native == pc:
            deps = tuple(dict.fromkeys(self._native_reads))
            node = self._add_node(pc, "native-result", deps)
            self._last_reg[reg] = node
            self._in_native = None

    # -- instruction semantics ----------------------------------------------------------

    def on_ins(self, pc, insn, cpu):
        self._in_native = None
        self._pending_store = None
        op = insn.op
        last_reg = self._last_reg

        def reg_dep(reg: int) -> tuple[int, ...]:
            writer = last_reg[reg]
            return (writer,) if writer is not None else ()

        if op == Op.MOVRR:
            rd, rs = insn.operands
            node = self._add_node(pc, op.name,
                                  reg_dep(rs) + self._control_dep())
            last_reg[rd] = node
        elif op == Op.MOVRI:
            node = self._add_node(pc, op.name, self._control_dep())
            last_reg[insn.operands[0]] = node
        elif op in ALU_OPS:
            rd = insn.operands[0]
            deps = reg_dep(rd)
            if insn.signature == "rr":
                deps += reg_dep(insn.operands[1])
            node = self._add_node(pc, op.name, deps + self._control_dep())
            last_reg[rd] = node
        elif op in (Op.LDW, Op.LDB):
            rd, base, disp = insn.operands
            addr = to_unsigned(cpu.regs[base] + to_signed(disp))
            size = 4 if op == Op.LDW else 1
            deps = (reg_dep(base) + self._mem_deps(addr, size)
                    + self._control_dep())
            node = self._add_node(pc, op.name, deps)
            last_reg[rd] = node
        elif op in (Op.STW, Op.STB):
            base, disp, rs = insn.operands
            addr = to_unsigned(cpu.regs[base] + to_signed(disp))
            size = 4 if op == Op.STW else 1
            deps = reg_dep(base) + reg_dep(rs) + self._control_dep()
            self._pending_store = (addr, size, deps)
        elif op in (Op.CMPRR, Op.CMPRI):
            deps = reg_dep(insn.operands[0])
            if op == Op.CMPRR:
                deps += reg_dep(insn.operands[1])
            self._last_flags = self._add_node(pc, op.name,
                                              deps + self._control_dep())
        elif op in (Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.JB,
                    Op.JAE):
            deps = ((self._last_flags,) if self._last_flags is not None
                    else ()) + self._control_dep()
            self._last_control = self._add_node(pc, op.name, deps)
        elif op in (Op.JMPR, Op.CALLR):
            deps = reg_dep(insn.operands[0]) + self._control_dep()
            self._last_control = self._add_node(pc, op.name, deps)
        elif op == Op.RET:
            sp = cpu.regs[SP]
            deps = self._mem_deps(sp, 4) + self._control_dep()
            self._last_control = self._add_node(pc, op.name, deps)
        elif op == Op.PUSHR:
            rs = insn.operands[0]
            addr = to_unsigned(cpu.regs[SP] - 4)
            self._pending_store = (addr, 4,
                                   reg_dep(rs) + self._control_dep())
        elif op == Op.PUSHI:
            addr = to_unsigned(cpu.regs[SP] - 4)
            self._pending_store = (addr, 4, self._control_dep())
        elif op == Op.POPR:
            rd = insn.operands[0]
            sp = cpu.regs[SP]
            node = self._add_node(pc, op.name,
                                  self._mem_deps(sp, 4) + self._control_dep())
            last_reg[rd] = node

    # -- slicing --------------------------------------------------------------------------

    def last_node_for_pc(self, pc: int) -> int | None:
        for node in reversed(self.nodes):
            if node.pc == pc:
                return node.index
        return None

    def backward_slice(self, criterion: int | None = None) -> SliceReport:
        """Walk the dependence graph backward from ``criterion``
        (default: the last recorded node, i.e. the crash site)."""
        if not self.nodes:
            return SliceReport(criterion=-1, node_indices=set(), pcs=set(),
                               input_labels=set(), total_nodes=0)
        if criterion is None:
            criterion = len(self.nodes) - 1
        visited: set[int] = set()
        frontier = [criterion]
        while frontier:
            index = frontier.pop()
            if index in visited:
                continue
            visited.add(index)
            frontier.extend(dep for dep in self.deps[index]
                            if dep not in visited)
        pcs = {self.nodes[index].pc for index in visited}
        labels = {self.node_labels[index] for index in visited
                  if index in self.node_labels}
        return SliceReport(criterion=criterion, node_indices=visited,
                           pcs=pcs, input_labels=labels,
                           total_nodes=len(self.nodes))

    def forward_slice(self, start: int) -> set[int]:
        """All nodes influenced by ``start`` (§3.2's forward slice)."""
        influenced: set[int] = {start}
        for index in range(start + 1, len(self.nodes)):
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
            for index in range(first + 1, len(self.nodes)):
                if index in influenced:
                    continue
                if any(dep in influenced for dep in self.deps[index]):
                    influenced.add(index)
        pcs = {self.nodes[index].pc for index in influenced}
        labels = {self.node_labels[index] for index in influenced
                  if index in self.node_labels}
        return SliceReport(criterion=-1, node_indices=influenced,
                           pcs=pcs, input_labels=labels,
                           total_nodes=len(self.nodes))
