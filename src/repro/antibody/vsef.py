"""Vulnerability-Specific Execution Filters (VSEFs) [38].

A VSEF applies the *same check a heavyweight detector would apply*, but
only at the handful of instructions involved in a known vulnerability.
Five kinds are produced by the analysis steps:

================  ===========================================  =============
kind              check                                        typical source
================  ===========================================  =============
``ret_guard``     side return-address stack for one function   memory-state
``null_check``    operand register non-NULL at one load/store  memory-state
``double_free``   block status at one ``free`` callsite        memory-state /
                                                               memory-bug
``heap_bounds``   destination fits its heap block, at one      memory-state /
                  native string/copy routine + caller          memory-bug
``store_guard``   one store must not hit a return-address      memory-bug
                  slot nor escape its heap block
``taint_subset``  taint tracking over only the propagation     taint
                  instructions + the sink
================  ===========================================  =============

**Shareability.** Hosts randomize their layouts independently, so a VSEF
never contains absolute addresses: every location is a :class:`CodeLoc`
(``code`` section offset, or native-library symbol) resolved against the
installing process's own layout.  This is what makes the paper's
"distribute VSEFs, apply before verifying — at worst they waste cycles"
argument hold: an unfounded check cannot introduce new behaviour.

**Enforcement.** Every kind is a set of pc-scoped probes
(:meth:`~repro.machine.cpu.CPU.arm`): a probed pc leaves the fused and
plain dispatch tables and runs through the CPU's general path, so the
rest of the program keeps its supercells and cells.  ``taint_subset``
arms its code-space propagation pcs and sinks as ``ins``-stage probes
and seeds / propagates through the ``syscall`` and ``mem_copy`` boundary
events.  ``ret_guard`` watches calls and returns
(:meth:`~repro.machine.cpu.CPU.watch`) and routes the cached sites it
can act on — every ``RET``, every ``CALLR`` and every ``CALLI`` to the
guarded entry, from the image's recovered CFG — to the general path,
which also carries all code in writable memory and the native return
path.  No kind attaches a hook tool.  A firing check raises
:class:`~repro.errors.AttackDetected` *before* state is corrupted, which
is what lets the runtime drop the request without a rollback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import AttackDetected, ReproError
from repro.isa.encoding import Insn
from repro.isa.opcodes import FP, SP, Op, to_signed, to_unsigned
from repro.machine.allocator import STATUS_FREE
from repro.machine.cpu import STAGE_CHECK, STAGE_INS
from repro.machine.natives import NATIVE_OFFSETS

_ids = itertools.count(1)


@dataclass(frozen=True)
class CodeLoc:
    """A layout-independent code location.

    ``space`` is ``"code"`` (offset into the application text) or
    ``"lib"`` (a native symbol name).
    """

    space: str
    value: int | str

    def to_dict(self) -> dict:
        return {"space": self.space, "value": self.value}

    @staticmethod
    def from_dict(data: dict) -> "CodeLoc":
        return CodeLoc(space=data["space"], value=data["value"])

    def __str__(self) -> str:
        if self.space == "lib":
            return f"lib.{self.value}"
        return f"code+{self.value:#x}"


def loc_for_address(process, addr: int) -> CodeLoc | None:
    """Translate an absolute address in ``process`` into a :class:`CodeLoc`."""
    for name, native_addr in process.native_addresses.items():
        if native_addr == addr:
            return CodeLoc("lib", name)
    region = process.memory.region_at(addr)
    if region is not None and region.name == "code":
        return CodeLoc("code", addr - process.layout.code_base)
    return None


def resolve_loc(loc: CodeLoc, process) -> int:
    """Absolute address of ``loc`` under ``process``'s layout."""
    if loc.space == "lib":
        offset = NATIVE_OFFSETS.get(str(loc.value))
        if offset is None:
            raise ReproError(f"unknown native {loc.value!r}")
        return process.layout.lib_base + offset
    return process.layout.code_base + int(loc.value)


@dataclass
class VSEF:
    """One shareable execution filter."""

    kind: str
    params: dict
    provenance: str = ""
    app: str = ""
    note: str = ""
    vsef_id: str = field(default_factory=lambda: f"vsef-{next(_ids)}")

    def to_dict(self) -> dict:
        return {"vsef_id": self.vsef_id, "kind": self.kind,
                "params": _params_to_dict(self.params),
                "provenance": self.provenance, "app": self.app,
                "note": self.note}

    @staticmethod
    def from_dict(data: dict) -> "VSEF":
        return VSEF(kind=data["kind"],
                    params=_params_from_dict(data["params"]),
                    provenance=data.get("provenance", ""),
                    app=data.get("app", ""), note=data.get("note", ""),
                    vsef_id=data["vsef_id"])

    def describe(self) -> str:
        bits = [f"{self.kind}"]
        for key, value in self.params.items():
            bits.append(f"{key}={value}")
        return " ".join(bits)


def _params_to_dict(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, CodeLoc):
            out[key] = {"__codeloc__": value.to_dict()}
        elif isinstance(value, list) and value and isinstance(value[0], CodeLoc):
            out[key] = [{"__codeloc__": v.to_dict()} for v in value]
        else:
            out[key] = value
    return out


def _params_from_dict(params: dict) -> dict:
    def revive(value):
        if isinstance(value, dict) and "__codeloc__" in value:
            return CodeLoc.from_dict(value["__codeloc__"])
        if isinstance(value, list):
            return [revive(v) for v in value]
        return value

    return {key: revive(value) for key, value in params.items()}


# ---------------------------------------------------------------------------
# Enforcement
# ---------------------------------------------------------------------------

class InstalledVSEF:
    """Runtime binding of a VSEF to one process; supports uninstall."""

    def __init__(self, vsef: VSEF, process):
        self.vsef = vsef
        self.process = process
        #: The filter's own state, for the kinds that keep some (the
        #: ret guard's side stack, the taint subset's shadow sets).
        self.state = None
        self._undo: list = []

    def arm(self, pcs, check, stage: int = STAGE_CHECK):
        pcs = tuple(pcs)
        cpu = self.process.cpu
        cpu.arm(pcs, check, stage)
        self._undo.append(lambda: cpu.disarm(pcs, check))

    def watch(self, sites, on_call, on_ret):
        sites = tuple(sites)
        cpu = self.process.cpu
        cpu.watch(sites, on_call, on_ret)
        self._undo.append(lambda: cpu.unwatch(sites, on_call, on_ret))

    def listen(self, event: str, fn):
        hooks = self.process.hooks
        hooks.listen(event, fn)
        self._undo.append(lambda: hooks.unlisten(event, fn))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def install_vsef(vsef: VSEF, process) -> InstalledVSEF:
    """Install ``vsef`` into ``process``; returns the runtime binding."""
    installed = InstalledVSEF(vsef, process)
    installer = _INSTALLERS.get(vsef.kind)
    if installer is None:
        raise ReproError(f"unknown VSEF kind {vsef.kind!r}")
    installer(vsef, process, installed)
    return installed


def _caller_matches(expected: CodeLoc | None, process, cpu) -> bool:
    if expected is None:
        return True
    try:
        return_addr = process.memory.read_word(cpu.regs[SP])
    except ReproError:
        return False
    # The caller location is the CALL site; the recorded return address
    # is the instruction after it, so compare by enclosing function.
    expected_addr = resolve_loc(expected, process)
    return (process.function_at(return_addr) ==
            process.function_at(expected_addr))


def _install_null_check(vsef: VSEF, process, installed: InstalledVSEF):
    loc: CodeLoc = vsef.params["pc"]
    reg = int(vsef.params["reg"])
    addr = resolve_loc(loc, process)

    def check(cpu, insn: Insn | None):
        cpu.cycles += 2
        if cpu.regs[reg] < 0x1000:
            raise AttackDetected(vsef.vsef_id, addr,
                                 f"NULL pointer in {vsef.params['pc']}")

    installed.arm([addr], check)


def _install_double_free(vsef: VSEF, process, installed: InstalledVSEF):
    caller: CodeLoc | None = vsef.params.get("caller")
    free_addr = resolve_loc(CodeLoc("lib", "free"), process)

    def check(cpu, insn):
        cpu.cycles += 4
        if not _caller_matches(caller, process, cpu):
            return
        payload = cpu.regs[0]
        if payload == 0:
            return
        try:
            block = process.allocator.read_block(payload - 12)
        except ReproError:
            return
        if block.status == STATUS_FREE:
            raise AttackDetected(vsef.vsef_id, free_addr,
                                 "double free blocked")

    installed.arm([free_addr], check)


_NATIVE_NEED = {
    # destination arg index, how to compute required bytes
    "strcat": (0, "strcat"),
    "strcpy": (0, "strcpy"),
    "strncpy": (0, "n"),
    "strncat": (0, "strncat"),
    "memcpy": (0, "n"),
    "memset": (0, "n"),
}


def _install_heap_bounds(vsef: VSEF, process, installed: InstalledVSEF):
    native = str(vsef.params["native"])
    caller: CodeLoc | None = vsef.params.get("caller")
    if native not in _NATIVE_NEED:
        raise ReproError(f"heap_bounds cannot guard native {native!r}")
    dst_arg, mode = _NATIVE_NEED[native]
    native_addr = resolve_loc(CodeLoc("lib", native), process)

    def _cstrlen(addr: int, cap: int = 1 << 20) -> int:
        text = process.memory.scan(addr, cap, 0)
        if text[-1:] == b"\x00":
            return len(text) - 1
        if len(text) < cap:
            process.memory.raise_fault(addr + len(text))
        return cap

    def check(cpu, insn):
        if not _caller_matches(caller, process, cpu):
            cpu.cycles += 2
            return
        dst = cpu.regs[dst_arg]
        block = process.allocator.block_containing_any(dst)
        if block is None or not block.consistent:
            cpu.cycles += 4
            return  # not a heap destination; nothing to bound
        if mode == "strcat":
            need = _cstrlen(dst) + _cstrlen(cpu.regs[1]) + 1
        elif mode == "strcpy":
            need = _cstrlen(cpu.regs[1]) + 1
        elif mode == "strncat":
            need = _cstrlen(dst) + min(_cstrlen(cpu.regs[1]),
                                       cpu.regs[2]) + 1
        else:  # explicit length
            need = cpu.regs[2]
        cpu.cycles += need + 8  # the paper's ~1% malloc/strlen bookkeeping
        if dst + need > block.end:
            raise AttackDetected(
                vsef.vsef_id, native_addr,
                f"{native} would overflow heap block by "
                f"{dst + need - block.end} bytes")

    installed.arm([native_addr], check)


def _effective_store_addr(cpu, insn: Insn) -> tuple[int, int] | None:
    if insn is None or insn.op not in (Op.STW, Op.STB):
        return None
    base, disp, _rs = insn.operands
    addr = to_unsigned(cpu.regs[base] + to_signed(disp))
    return addr, 4 if insn.op == Op.STW else 1


def _install_store_guard(vsef: VSEF, process, installed: InstalledVSEF):
    loc: CodeLoc = vsef.params["pc"]
    addr_at = resolve_loc(loc, process)
    stack_region = process.memory.region_named("stack")

    def protected_slots(cpu) -> set[int]:
        slots = set()
        fp = cpu.regs[FP]
        hops = 0
        while stack_region.start <= fp < stack_region.end and hops < 64:
            slots.add(fp)        # saved frame pointer
            slots.add(fp + 4)    # return address
            try:
                fp = process.memory.read_word(fp)
            except ReproError:
                break
            hops += 1
        return slots

    def check(cpu, insn):
        cpu.cycles += 6
        target = _effective_store_addr(cpu, insn)
        if target is None:
            return
        addr, size = target
        if stack_region.start <= addr < stack_region.end:
            slots = protected_slots(cpu)
            if any(addr <= slot < addr + size for slot in slots):
                raise AttackDetected(vsef.vsef_id, addr_at,
                                     "store would smash a return "
                                     "address / saved frame pointer")
        else:
            block = process.allocator.block_containing(addr)
            if block is not None and block.consistent and \
                    not (block.payload <= addr and addr + size <= block.end):
                raise AttackDetected(vsef.vsef_id, addr_at,
                                     "store escapes its heap block")

    installed.arm([addr_at], check)


class _RetGuard:
    """Side return-address stack for one function, fed by the CPU's
    control probes."""

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


def _ret_guard_sites(process, entry_addr: int) -> list[int]:
    """The text instructions a ret guard on ``entry_addr`` can act on:
    every ``RET``, every ``CALLR`` and every ``CALLI`` whose loaded
    target is the entry, over the image's recovered CFG (which covers
    every pc executed from read-only text)."""
    # Deferred: repro.analysis pulls the dynamic pipeline, whose
    # runtime imports circle back into repro.antibody.
    from repro.analysis.static.cfg import image_cfg, imm_field_offset
    base = process.layout.code_base
    imm = imm_field_offset(Op.CALLI)
    sites = []
    for offset, insn in image_cfg(process.image).insns.items():
        op = insn.op
        if op is Op.RET or op is Op.CALLR or (
                op is Op.CALLI
                and process.memory.read_word(base + offset + imm)
                == entry_addr):
            sites.append(base + offset)
    return sites


def _install_ret_guard(vsef: VSEF, process, installed: InstalledVSEF):
    loc: CodeLoc = vsef.params["entry"]
    entry_addr = resolve_loc(loc, process)
    guard = _RetGuard(vsef, process, entry_addr)
    installed.watch(_ret_guard_sites(process, entry_addr), guard.on_call,
                    guard.on_ret)
    installed.state = guard


class _TaintSubset:
    """Taint tracking restricted to the propagation set + sink [38].

    Only the listed instructions update shadow state: they are armed as
    ``ins``-stage probes, so the rest of the program runs untouched —
    "ordinary dynamic taint analysis instrumentation applied for those
    instructions only" (§3.3).  Received bytes are seeded, and natives'
    copies propagated, from the ``syscall`` and ``mem_copy`` boundary
    events.
    """

    def __init__(self, vsef: VSEF, pcs: set[int], sinks: set[int]):
        self.vsef = vsef
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

    def probe(self, cpu, insn):
        """Propagate through, and check at, the instruction at a
        propagation pc or sink."""
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
        pc = cpu.pc
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


def _install_taint_subset(vsef: VSEF, process, installed: InstalledVSEF):
    pc_locs = vsef.params.get("pcs", [])
    sink_locs = vsef.params.get("sinks", [])
    taint = _TaintSubset(vsef, {resolve_loc(loc, process) for loc in pc_locs},
                         {resolve_loc(loc, process) for loc in sink_locs})
    installed.listen("syscall", taint.on_syscall)
    installed.listen("mem_copy", taint.on_mem_copy)
    # Natives emit no ``ins`` event, so only text locations are probed;
    # a library pc only matters to native copy propagation.
    text = {resolve_loc(loc, process) for loc in [*pc_locs, *sink_locs]
            if loc.space == "code"}
    installed.arm(sorted(text), taint.probe, STAGE_INS)
    installed.state = taint


_INSTALLERS = {
    "null_check": _install_null_check,
    "double_free": _install_double_free,
    "heap_bounds": _install_heap_bounds,
    "store_guard": _install_store_guard,
    "ret_guard": _install_ret_guard,
    "taint_subset": _install_taint_subset,
}

VSEF_KINDS = tuple(_INSTALLERS)
