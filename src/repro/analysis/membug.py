"""Dynamic memory-bug detection — analysis step #2 (§3.2).

A Purify/Valgrind-class detector implemented as an instrumentation tool
that can attach *mid-execution* during sandboxed replay, which is the
paper's key trick: full memory monitoring at 20-100x cost is affordable
because it only runs over the few hundred milliseconds since the last
checkpoint.

Detects the paper's three bug classes plus dangling pointers:

- **stack smashing** — every live return-address slot is watched for
  writes; pre-existing frames are inferred from the frame-pointer chain
  at attach time (the paper's ``ebp`` inference);
- **heap overflow** — red zones from the allocator's own inline
  metadata; blocks allocated before the checkpoint are inferred from the
  memory image; writes outside any live payload are flagged;
- **double free** — ``free`` of a block that is not live;
- **dangling pointer** — reads/writes of freed payloads.

Each finding carries the precise blamed instruction (application PC or
native + application caller), from which the improved VSEF is built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.antibody.vsef import VSEF, CodeLoc, loc_for_address
from repro.instrument.hooks import Tool
from repro.isa.opcodes import FP, SP


@dataclass(frozen=True)
class MemBugReport:
    """One detected memory bug."""

    kind: str            # "stack_smash" | "heap_overflow" | "double_free"
                         # | "dangling_read" | "dangling_write"
    pc: int              # blamed instruction (app pc or native address)
    caller_pc: int | None  # application caller when pc is a native
    addr: int            # memory address involved
    detail: str = ""
    function: str | None = None

    def describe(self, process) -> str:
        where = process.describe_address(self.pc)
        text = f"{self.kind.replace('_', ' ')} by {where}"
        if self.caller_pc is not None:
            text += f" called by {process.describe_address(self.caller_pc)}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class _LiveBlock:
    payload: int
    size: int

    @property
    def end(self) -> int:
        return self.payload + self.size


class _BlockMap:
    """Heap blocks by payload, in insertion order, indexed for lookup.

    ``blocks`` keeps the insertion order the detector's verdicts are
    defined by: the block covering an access is the *first* one, in
    that order, that the access starts inside.  A sorted index of
    payloads and ends answers that with one bisection while the blocks
    are disjoint, which is every clean heap; ``_overlaps`` counts the
    adjacent index pairs that overlap (a corrupted heap can hand out
    blocks that do), and while any does, lookups fall back to the
    ordered scan.
    """

    def __init__(self, blocks=()):
        self.blocks: dict[int, _LiveBlock] = {}
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._overlaps = 0
        for block in blocks:
            self.add(block)

    def _overlap(self, left: int, right: int) -> int:
        """1 if index entries ``left`` and ``right`` overlap, else 0."""
        if left < 0 or right >= len(self._starts):
            return 0
        return 1 if self._ends[left] > self._starts[right] else 0

    def add(self, block: _LiveBlock):
        """Add ``block``; one already at its payload is replaced in place
        (a dict keeps the key's insertion position)."""
        payload = block.payload
        if payload in self.blocks:
            self._unindex(payload)
        at = bisect_left(self._starts, payload)
        self._overlaps -= self._overlap(at - 1, at)
        self._starts.insert(at, payload)
        self._ends.insert(at, block.end)
        self._overlaps += self._overlap(at - 1, at) + self._overlap(at, at + 1)
        self.blocks[payload] = block

    def pop(self, payload: int) -> _LiveBlock | None:
        block = self.blocks.pop(payload, None)
        if block is not None:
            self._unindex(payload)
        return block

    def _unindex(self, payload: int):
        at = bisect_left(self._starts, payload)
        self._overlaps -= self._overlap(at - 1, at) + self._overlap(at, at + 1)
        del self._starts[at], self._ends[at]
        self._overlaps += self._overlap(at - 1, at)

    def covering(self, addr: int, size: int) -> _LiveBlock | None:
        """The first block, in insertion order, that ``[addr, addr +
        size)`` lies in or starts inside."""
        if self._overlaps or size <= 0:
            for block in self.blocks.values():
                if block.payload <= addr and addr + size <= block.end:
                    return block
                if block.payload <= addr < block.end:
                    return block    # starts inside: overflow checks use end
            return None
        # Disjoint blocks: only the last one starting at or below
        # ``addr`` can hold it, and a nonempty access starting inside a
        # block satisfies both of the scan's conditions.
        at = bisect_right(self._starts, addr) - 1
        if at >= 0 and addr < self._ends[at]:
            return self.blocks[self._starts[at]]
        return None


class MemoryBugDetector(Tool):
    """The attachable memory-bug detection tool."""

    name = "membug"
    #: The paper puts full memory-bug detection at up to 100x; our model
    #: charges 20x (its Table 3 component times correspond to roughly
    #: this multiple over the replay window).
    overhead_factor = 20.0

    def __init__(self, max_reports: int = 64):
        self.max_reports = max_reports
        self.reports: list[MemBugReport] = []
        self.process = None
        self._live = _BlockMap()
        self._freed = _BlockMap()
        self._ret_slots: dict[int, tuple[int, str | None]] = {}
        self._call_stack: list[tuple[int, int]] = []   # (call_pc, target)
        self._heap_region = None
        self._stack_region = None
        self._lib_addrs: set[int] = set()

    # -- attach: infer pre-existing state from the memory image -------------

    def on_attach(self, process):
        if process is None:
            return
        self.process = process
        self._heap_region = process.memory.region_named("heap")
        self._stack_region = process.memory.region_named("stack")
        self._lib_addrs = set(process.native_addresses.values())
        self._live = _BlockMap(_LiveBlock(block.payload, block.size)
                               for block in process.allocator.live_blocks())
        self._seed_stack_frames(process)

    def _seed_stack_frames(self, process):
        """Infer live frames from the frame-pointer chain (the paper's
        'pre-existing stack frames are inferred from ebp').

        Frame ownership: the innermost frame belongs to the function
        executing now; each outer frame belongs to the function the
        previous frame returns into.
        """
        fp = process.cpu.regs[FP]
        stack = self._stack_region
        owner = process.function_at(process.cpu.pc)
        hops = 0
        while stack.start <= fp < stack.end - 8 and hops < 128:
            ret_addr = process.memory.read_word(fp + 4)
            self._ret_slots[fp + 4] = (ret_addr, owner)
            owner = process.function_at(ret_addr)
            fp = process.memory.read_word(fp)
            hops += 1

    # -- call/ret maintain the protected-slot map ---------------------------

    def on_call(self, pc, target, return_addr):
        # The CALL has already pushed the return address; its slot is the
        # current stack pointer.
        slot = self.process.cpu.regs[SP]
        function = self.process.function_at(target) \
            if target not in self._lib_addrs else None
        self._ret_slots[slot] = (return_addr, function)
        self._call_stack.append((pc, target))

    def on_ret(self, pc, target, sp):
        self._ret_slots.pop(sp, None)
        if self._call_stack:
            self._call_stack.pop()

    # -- allocator events ------------------------------------------------------

    def on_malloc(self, pc, payload, size):
        if payload:
            self._freed.pop(payload)
            self._live.add(_LiveBlock(payload, size))

    def on_free(self, pc, payload):
        if payload == 0:
            return
        block = self._live.pop(payload)
        if block is None:
            self._report("double_free", pc, payload,
                         detail="free() of a block that is not live")
        else:
            self._freed.add(block)

    # -- memory accesses ----------------------------------------------------------

    def on_mem_write(self, pc, addr, size, data):
        self._check_write(pc, addr, size)

    def on_mem_copy(self, pc, dst, src, size):
        self._check_write(pc, dst, size)
        self._check_read(pc, src, size)

    def on_mem_read(self, pc, addr, size):
        self._check_read(pc, addr, size)

    def _in_heap(self, addr) -> bool:
        # The heap (and mmap'd blocks) grow during replay, so the region
        # table must be consulted live, not cached at attach time.
        region = self.process.memory.region_at(addr)
        return region is not None and (
            region.name == "heap" or region.name.startswith("mmap_"))

    def _check_write(self, pc, addr, size):
        stack = self._stack_region
        if stack.start <= addr < stack.end:
            for slot, (ret_addr, function) in self._ret_slots.items():
                if addr <= slot < addr + size or addr <= slot + 3 < addr + size:
                    self._report(
                        "stack_smash", pc, slot,
                        detail=f"overwrites return address of "
                               f"{function or 'a live frame'}",
                        function=function)
            return
        if self._in_heap(addr):
            if self._heap_region.start <= addr < self._heap_region.start + 16:
                return  # arena header is allocator-private
            block = self._live.covering(addr, size)
            if block is not None:
                if addr + size > block.end:
                    self._report("heap_overflow", pc, addr,
                                 detail=f"write past block "
                                        f"[{block.payload:#x},{block.end:#x})")
                return
            if self._freed.covering(addr, size) is not None:
                self._report("dangling_write", pc, addr,
                             detail="write to freed block")
                return
            self._report("heap_overflow", pc, addr,
                         detail="write outside any live block "
                                "(red zone / metadata)")

    def _check_read(self, pc, addr, size):
        if not self._in_heap(addr):
            return
        if self._live.covering(addr, size) is not None:
            return
        if self._freed.covering(addr, size) is not None:
            self._report("dangling_read", pc, addr,
                         detail="read from freed block")

    # -- reporting ----------------------------------------------------------------

    def _caller(self, pc) -> int | None:
        if pc in self._lib_addrs and self._call_stack:
            call_pc, target = self._call_stack[-1]
            if target == pc:
                return call_pc
        return None

    def _report(self, kind, pc, addr, detail="", function=None):
        if len(self.reports) >= self.max_reports:
            return
        report = MemBugReport(kind=kind, pc=pc, caller_pc=self._caller(pc),
                              addr=addr, detail=detail, function=function)
        # Collapse repeats of the same (kind, pc) — a long overflow is one
        # bug, not one bug per byte.
        for existing in self.reports:
            if existing.kind == kind and existing.pc == pc:
                return
        self.reports.append(report)

    # -- VSEF derivation --------------------------------------------------------

    def derive_vsefs(self, process) -> list[VSEF]:
        """Build the improved VSEFs from the findings (§3.3)."""
        vsefs = []
        for report in self.reports:
            loc = loc_for_address(process, report.pc)
            if loc is None:
                continue
            caller_loc = (loc_for_address(process, report.caller_pc)
                          if report.caller_pc is not None else None)
            if report.kind == "stack_smash":
                if loc.space == "lib":
                    vsefs.append(VSEF(
                        kind="heap_bounds",
                        params={"native": loc.value, "caller": caller_loc},
                        provenance="memory_bug",
                        note=f"{loc.value} must not smash the stack"))
                else:
                    vsefs.append(VSEF(
                        kind="store_guard", params={"pc": loc},
                        provenance="memory_bug",
                        note=f"{loc} should not overflow a stack buffer"))
            elif report.kind in ("heap_overflow", "dangling_write"):
                if loc.space == "lib":
                    vsefs.append(VSEF(
                        kind="heap_bounds",
                        params={"native": loc.value, "caller": caller_loc},
                        provenance="memory_bug",
                        note=f"heap bounds-check {loc.value}"))
                else:
                    vsefs.append(VSEF(
                        kind="store_guard", params={"pc": loc},
                        provenance="memory_bug",
                        note=f"{loc} should stay within its heap block"))
            elif report.kind == "double_free":
                vsefs.append(VSEF(
                    kind="double_free", params={"caller": caller_loc},
                    provenance="memory_bug",
                    note=(f"{caller_loc or loc} should not double-free")))
        return vsefs
