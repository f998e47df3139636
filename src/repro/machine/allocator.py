"""Boundary-tagged heap allocator with **in-memory** metadata.

The paper's memory-bug detector deliberately reuses "malloc()'s own inline
data structures" as red zones (§3.2), and its double-free crash manifests
*inside* ``free`` with an inconsistent heap (Table 2, CVS row).  To make
both behaviours faithful, the allocator here keeps every piece of state —
brk pointer, free list head, block headers — inside guest memory:

- rollback to a memory snapshot restores the heap with no extra work;
- heap-overflow exploits physically clobber the next block's header, so a
  later ``malloc``/``free`` faults with "heap inconsistent";
- a double ``free`` follows the (attacker-controlled) free-list link in
  the payload, modelling the glibc unlink dereference, and usually SEGVs
  right inside ``free``;
- the core-dump analyzer and the membug detector can walk the heap from
  a bare memory image, which is what lets them start *mid-execution*.

Layout within the heap region::

    heap_base + 0   brk          (absolute address of first unused byte)
    heap_base + 4   free head    (header address of first free block, 0=none)
    heap_base + 8   init magic
    heap_base + 12  mmap bump    (next address for large "mmap" allocations)
    heap_base + 16  first block header

Block: ``[magic:4][size:4][status:4]`` then ``size`` payload bytes.
A free block's first payload word is the next-free link.

Like glibc, requests of ``MMAP_THRESHOLD`` bytes or more are satisfied
from separately mapped regions far above the main arena, with a guard
gap between them.  This matters for fidelity: in the Squid exploit the
huge escape buffer is mmap'd away, so the overflowing ``strcat`` runs
off the end of the *main arena's* mapping and faults right inside
``strcat`` — the paper's observed crash site.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.errors import FAULT_SEGV, VMFault
from repro.machine.memory import PAGE_SIZE, PagedMemory

HEADER_SIZE = 12
BLOCK_MAGIC = 0x5AFEB10C
STATUS_ALLOCATED = 0xA110C8ED
STATUS_FREE = 0xF9EEF9EE
INIT_MAGIC = 0x48454150  # "HEAP"
_ARENA_HEADER = 16
_MIN_SPLIT = 16
#: Allocations at or above this size come from separate mappings (glibc's
#: M_MMAP_THRESHOLD behaviour, scaled to our small pages).
MMAP_THRESHOLD = 4096
#: Distance from the arena base to the first mmap'd allocation.
_MMAP_AREA_OFFSET = 0x01000000
_MMAP_GUARD = 4096

#: ``(magic, size, status)`` of a block header, and the same plus the
#: free-list link, unpacked straight from page bytes.
_unpack_header = struct.Struct("<3I").unpack_from
_unpack_hop = struct.Struct("<4I").unpack_from
_HOP_SIZE = HEADER_SIZE + 4


@dataclass(frozen=True)
class Block:
    """A decoded block header."""

    header: int          # address of the header
    size: int            # payload size in bytes
    status: int          # STATUS_ALLOCATED / STATUS_FREE / garbage
    magic: int

    @property
    def payload(self) -> int:
        return self.header + HEADER_SIZE

    @property
    def end(self) -> int:
        return self.payload + self.size

    @property
    def consistent(self) -> bool:
        return self.magic == BLOCK_MAGIC and self.status in (
            STATUS_ALLOCATED, STATUS_FREE)


class HeapCorruption(VMFault):
    """Heap metadata found corrupt while ``malloc``/``free`` walked it.

    This is the "crash inside the library with an inconsistent heap" that
    the paper's lightweight monitor observes for heap-overflow and
    double-free exploits.
    """

    def __init__(self, addr: int, detail: str):
        super().__init__(FAULT_SEGV, pc=-1, addr=addr, detail=detail)


class Allocator:
    """First-fit free-list allocator operating on guest memory.

    The class itself is stateless between calls; everything lives in the
    ``heap`` region of ``memory``.
    """

    def __init__(self, memory: PagedMemory, heap_base: int):
        self.memory = memory
        self.heap_base = heap_base

    # -- metadata accessors --------------------------------------------------

    @property
    def brk(self) -> int:
        return self.memory.read_word(self.heap_base)

    @brk.setter
    def brk(self, value: int):
        self.memory.write_word(self.heap_base, value)

    @property
    def free_head(self) -> int:
        return self.memory.read_word(self.heap_base + 4)

    @free_head.setter
    def free_head(self, value: int):
        self.memory.write_word(self.heap_base + 4, value)

    @property
    def initialized(self) -> bool:
        return self.memory.read_word(self.heap_base + 8) == INIT_MAGIC

    def initialize(self):
        """Set up an empty arena (called once by the loader)."""
        self.brk = self.heap_base + _ARENA_HEADER
        self.free_head = 0
        self.memory.write_word(self.heap_base + 8, INIT_MAGIC)
        self.memory.write_word(self.heap_base + 12,
                               self.heap_base + _MMAP_AREA_OFFSET)

    def read_block(self, header: int) -> Block:
        magic, size, status = self._read_header(header)
        return Block(header=header, magic=magic, size=size, status=status)

    def _read_header(self, header: int) -> tuple[int, int, int]:
        """``(magic, size, status)`` at ``header``: unpacked from the page
        when all 12 bytes lie in one mapped page (no read can fault),
        else through the checked word accessor."""
        page = self.memory.resident_page(header, HEADER_SIZE)
        if page is not None:
            return _unpack_header(page, header & (PAGE_SIZE - 1))
        read_word = self.memory.read_word
        return read_word(header), read_word(header + 4), read_word(header + 8)

    def _write_block(self, header: int, size: int, status: int):
        self.memory.write_word(header, BLOCK_MAGIC)
        self.memory.write_word(header + 4, size)
        self.memory.write_word(header + 8, status)

    # -- allocation -----------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the payload address (0 for 0)."""
        if size <= 0:
            return 0
        size = (size + 3) & ~3
        if size >= MMAP_THRESHOLD:
            return self._mmap_alloc(size)
        payload = self._take_from_free_list(size)
        if payload:
            return payload
        header = self.brk
        needed_end = header + HEADER_SIZE + size
        heap_region = self.memory.region_named("heap")
        if needed_end > heap_region.end:
            self.memory.extend_region("heap", needed_end)
        self._write_block(header, size, STATUS_ALLOCATED)
        self.brk = needed_end
        return header + HEADER_SIZE

    def _mmap_alloc(self, size: int) -> int:
        """Satisfy a large request from its own mapping (glibc mmap path)."""
        bump = self.memory.read_word(self.heap_base + 12)
        total = HEADER_SIZE + size
        region_name = f"mmap_{bump:#x}"
        self.memory.map_region(region_name, bump, total)
        self._write_block(bump, size, STATUS_ALLOCATED)
        next_bump = bump + _round_to_page(total) + _MMAP_GUARD
        self.memory.write_word(self.heap_base + 12, next_bump)
        return bump + HEADER_SIZE

    def _take_from_free_list(self, size: int) -> int:
        memory = self.memory
        previous = 0
        cursor = self.free_head
        hops = 0
        while cursor:
            hops += 1
            if hops > 1_000_000:
                raise HeapCorruption(cursor, "free list cycle")
            # Header and link in one mapped page: unpack the hop from the
            # page bytes.  Anywhere else, the checked accessors decide
            # which read faults.
            page = memory.resident_page(cursor, _HOP_SIZE)
            if page is not None:
                magic, block_size, _, next_free = _unpack_hop(
                    page, cursor & (PAGE_SIZE - 1))
                if magic != BLOCK_MAGIC:
                    raise HeapCorruption(
                        cursor, f"bad magic {magic:#x} on free list")
            else:
                block_size, next_free = self._read_hop(cursor)
            if block_size >= size:
                self._unlink(previous, next_free)
                self._maybe_split(cursor, block_size, size)
                memory.write_word(cursor + 8, STATUS_ALLOCATED)
                return cursor + HEADER_SIZE
            previous = cursor
            cursor = next_free
        return 0

    def _read_hop(self, cursor: int) -> tuple[int, int]:
        """``(size, next link)`` of the free block at ``cursor`` through
        the checked accessors, in the walk's read order."""
        magic, size, _ = self._read_header(cursor)
        if magic != BLOCK_MAGIC:
            raise HeapCorruption(cursor, f"bad magic {magic:#x} on free list")
        return size, self.memory.read_word(cursor + HEADER_SIZE)

    def _unlink(self, previous: int, next_free: int):
        if previous:
            self.memory.write_word(previous + HEADER_SIZE, next_free)
        else:
            self.free_head = next_free

    def _maybe_split(self, header: int, block_size: int, size: int):
        remainder = block_size - size
        if remainder < HEADER_SIZE + _MIN_SPLIT:
            return
        tail_header = header + HEADER_SIZE + size
        self._write_block(tail_header, remainder - HEADER_SIZE, STATUS_FREE)
        self.memory.write_word(tail_header + HEADER_SIZE, self.free_head)
        self.free_head = tail_header
        self.memory.write_word(header + 4, size)

    def free(self, payload: int):
        """Free a payload pointer.

        Faithfully dangerous: corrupted headers raise
        :class:`HeapCorruption` (crash inside ``free``), and freeing an
        already-free block dereferences the attacker-controlled free-list
        link in the payload — the glibc-unlink behaviour double-free
        exploits rely on — before corrupting the free list.
        """
        if payload == 0:
            return
        header = payload - HEADER_SIZE
        magic, _, status = self._read_header(header)
        if magic != BLOCK_MAGIC:
            raise HeapCorruption(
                header, f"free() of block with bad magic {magic:#x}")
        if status == STATUS_FREE:
            # Double free: treat the payload as a free-list node and chase
            # its link, as glibc's unlink would.  With an attacker-supplied
            # payload this is a wild dereference -> SEGV inside free().
            stale_link = self.memory.read_word(payload)
            self.memory.read_word(stale_link)    # likely faults (SEGV)
            # If the wild read happened to hit mapped memory, fall through
            # and corrupt the free list exactly like the real bug would.
        elif status != STATUS_ALLOCATED:
            raise HeapCorruption(
                header, f"free() of block with bad status {status:#x}")
        self.memory.write_word(header + 8, STATUS_FREE)
        if self._is_mmap_block(header):
            # glibc would munmap; keeping the (now FREE) mapping around
            # preserves snapshot simplicity while still catching double
            # frees through the status check above.
            return
        self.memory.write_word(payload, self.free_head)
        self.free_head = header

    # -- introspection (used by the analysis tools) ----------------------------

    def walk(self) -> Iterator[Block]:
        """Iterate blocks from the arena start; stops at the first
        inconsistent header (the caller decides what that means)."""
        cursor = self.heap_base + _ARENA_HEADER
        brk = self.brk
        while cursor < brk:
            block = self.read_block(cursor)
            yield block
            if not block.consistent or block.size > brk - cursor:
                return
            cursor = block.end

    def check_consistency(self) -> list[str]:
        """Return a list of problems found walking the heap (empty = ok).

        Checks both the linear arena walk (clobbered headers from
        overflows) and the free list (stale/planted links from
        use-after-free writes, the CVS-style corruption).
        """
        problems = []
        last_end = self.heap_base + _ARENA_HEADER
        for block in self.walk():
            if block.magic != BLOCK_MAGIC:
                problems.append(
                    f"bad magic {block.magic:#x} at {block.header:#010x}")
                return problems
            if block.status not in (STATUS_ALLOCATED, STATUS_FREE):
                problems.append(
                    f"bad status {block.status:#x} at {block.header:#010x}")
                return problems
            last_end = block.end
        if last_end != self.brk:
            problems.append(
                f"arena ends at {last_end:#010x} but brk={self.brk:#010x}")
        problems.extend(self._check_free_list())
        return problems

    def _check_free_list(self) -> list[str]:
        cursor = self.free_head
        seen: set[int] = set()
        while cursor:
            if cursor in seen:
                return [f"free list cycle through {cursor:#010x}"]
            seen.add(cursor)
            try:
                block = self.read_block(cursor)
                link = self.memory.read_word(block.payload)
            except VMFault:
                return [f"free list link {cursor:#010x} is unmapped"]
            if block.magic != BLOCK_MAGIC or block.status != STATUS_FREE:
                return [f"free list node {cursor:#010x} is not a free "
                        f"block (status {block.status:#x})"]
            cursor = link
        return []

    def live_blocks(self) -> list[Block]:
        """Allocated blocks inferred from the memory image alone.

        This is how the membug detector seeds its red zones when attached
        mid-execution ("buffers allocated prior to the checkpoint are
        inferred from the memory image", §3.2).
        """
        return [b for b in self.walk()
                if b.consistent and b.status == STATUS_ALLOCATED]

    def block_containing(self, addr: int) -> Block | None:
        """The block whose payload (or header) covers ``addr``, if any."""
        for block in self.walk():
            if not block.consistent:
                return None
            if block.header <= addr < block.end:
                return block
        return None

    def block_containing_any(self, addr: int) -> Block | None:
        """Like :meth:`block_containing`, but also resolves blocks that
        live in their own mmap regions (large allocations)."""
        region = self.memory.region_at(addr)
        if region is not None and region.name.startswith("mmap_"):
            block = self.read_block(region.start)
            if block.consistent and block.header <= addr < block.end:
                return block
            return None
        return self.block_containing(addr)

    def _is_mmap_block(self, header: int) -> bool:
        return header >= self.heap_base + _MMAP_AREA_OFFSET


def _round_to_page(size: int) -> int:
    return (size + 4095) & ~4095
