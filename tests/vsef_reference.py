"""Hook-tool reference enforcement for the stateful VSEF kinds.

These are the original ``ret_guard`` and ``taint_subset`` enforcers: hook
tools that listen to every ``call``/``ret`` and every ``ins`` event, and
so keep a protected process on the fully instrumented execution loop.
They live in the test tree only, as the oracle the pc-scoped probes in
``repro.antibody.vsef`` are compared against: same responses,
detections, cycles, side stacks and shadow sets.

:func:`reference_installers` returns installer callables with the
signature of ``repro.antibody.vsef``'s own, for swapping into its
installer table.
"""

from __future__ import annotations

from repro.antibody.vsef import CodeLoc, InstalledVSEF, VSEF, resolve_loc
from repro.errors import AttackDetected
from repro.instrument.hooks import Tool
from repro.isa.opcodes import SP, Op, to_signed, to_unsigned


class RetGuardTool(Tool):
    """Side return-address stack for one function (hook-based)."""

    name = "ret-guard"
    overhead_factor = 1.001

    def __init__(self, vsef: VSEF, process, entry_addr: int):
        self.vsef = vsef
        self.process = process
        self.entry_addr = entry_addr
        self.side_stack: list[tuple[int, int]] = []   # (slot, return_addr)

    def on_call(self, pc, target, return_addr):
        if target == self.entry_addr:
            slot = self.process.cpu.regs[SP]
            self.side_stack.append((slot, return_addr))

    def on_ret(self, pc, target, sp):
        if not self.side_stack:
            return
        slot, saved = self.side_stack[-1]
        if sp == slot:
            self.side_stack.pop()
            if target != saved:
                raise AttackDetected(
                    self.vsef.vsef_id, pc,
                    f"return address of {self.vsef.params['function']} "
                    f"was overwritten ({target:#x} != {saved:#x})")


class TaintSubsetTool(Tool):
    """Taint tracking restricted to the propagation set + sink, checked
    on every ``ins`` event."""

    name = "taint-subset"
    overhead_factor = 1.02

    def __init__(self, vsef: VSEF, process, pcs: set[int], sinks: set[int]):
        self.vsef = vsef
        self.process = process
        self.pcs = pcs
        self.sinks = sinks
        self.shadow_mem: set[int] = set()
        self.shadow_reg: set[int] = set()

    def on_syscall(self, pc, number, args, result):
        if isinstance(result, dict) and "buf" in result:
            buf, data = result["buf"], result["data"]
            self.shadow_mem.update(range(buf, buf + len(data)))

    def on_mem_copy(self, pc, dst, src, size):
        if pc not in self.pcs:
            return
        for offset in range(size):
            if src + offset in self.shadow_mem:
                self.shadow_mem.add(dst + offset)
            else:
                self.shadow_mem.discard(dst + offset)

    def on_ins(self, pc, insn, cpu):
        interesting = pc in self.pcs or pc in self.sinks
        if not interesting:
            return
        op = insn.op
        if op in (Op.LDW, Op.LDB):
            rd, base, disp = insn.operands
            addr = to_unsigned(cpu.regs[base] + to_signed(disp))
            size = 4 if op == Op.LDW else 1
            if any(addr + i in self.shadow_mem for i in range(size)):
                self.shadow_reg.add(rd)
            else:
                self.shadow_reg.discard(rd)
        elif op in (Op.STW, Op.STB):
            base, disp, rs = insn.operands
            addr = to_unsigned(cpu.regs[base] + to_signed(disp))
            size = 4 if op == Op.STW else 1
            if rs in self.shadow_reg:
                self.shadow_mem.update(range(addr, addr + size))
            else:
                for i in range(size):
                    self.shadow_mem.discard(addr + i)
        elif op == Op.MOVRR:
            rd, rs = insn.operands
            if rs in self.shadow_reg:
                self.shadow_reg.add(rd)
            else:
                self.shadow_reg.discard(rd)
        if pc in self.sinks:
            if op in (Op.JMPR, Op.CALLR) and \
                    insn.operands[0] in self.shadow_reg:
                raise AttackDetected(self.vsef.vsef_id, pc,
                                     "tainted indirect control transfer")
            if op == Op.RET:
                sp = cpu.regs[SP]
                if any(sp + i in self.shadow_mem for i in range(4)):
                    raise AttackDetected(self.vsef.vsef_id, pc,
                                         "tainted return address")


def _attach(tool: Tool, process, installed: InstalledVSEF):
    process.hooks.attach(tool, process)
    installed.state = tool
    installed._undo.append(lambda: process.hooks.detach(tool, process))


def _install_ret_guard(vsef: VSEF, process, installed: InstalledVSEF):
    loc: CodeLoc = vsef.params["entry"]
    _attach(RetGuardTool(vsef, process, resolve_loc(loc, process)),
            process, installed)


def _install_taint_subset(vsef: VSEF, process, installed: InstalledVSEF):
    pcs = {resolve_loc(loc, process) for loc in vsef.params.get("pcs", [])}
    sinks = {resolve_loc(loc, process)
             for loc in vsef.params.get("sinks", [])}
    _attach(TaintSubsetTool(vsef, process, pcs, sinks), process, installed)


def reference_installers() -> dict:
    """Installer table entries for the hook-tool enforcement."""
    return {"ret_guard": _install_ret_guard,
            "taint_subset": _install_taint_subset}
