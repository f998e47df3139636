"""Paged guest memory with copy-on-write snapshots.

The memory model is the foundation of two Sweeper mechanisms:

1. **Lightweight checkpointing** — :meth:`PagedMemory.snapshot` freezes the
   current pages and shares them with the snapshot, exactly like the
   fork()-based shadow-process checkpoints of Rx/FlashBack.  The first
   write to a frozen page copies it (copy-on-write), so checkpoint cost is
   proportional to the *written* working set, not the address space.

2. **Lightweight attack detection** — accesses to unmapped addresses fault
   (SEGV), and the first page is a permanent NULL guard (NULL_DEREF).
   Under address-space randomization, hijacked control flow and wild
   pointers land in unmapped memory with high probability, which is the
   paper's primary lightweight monitor.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

from repro.errors import (FAULT_NULL, FAULT_PROT, FAULT_SEGV, ReproError,
                          VMFault)

PAGE_SIZE = 4096
PAGE_SHIFT = 12
_PAGE_MASK = PAGE_SIZE - 1
_ZERO_PAGE = bytes(PAGE_SIZE)
NULL_GUARD_END = 0x1000

#: In-page 32-bit word codec, shared by every word-granular fast path
#: (read_word/write_word here, cells and fused supercells in execcore):
#: ``unpack_from``/``pack_into`` beat ``int.from_bytes``/``to_bytes``
#: over slices by 3-5x — no intermediate bytes object is created.
u32_get = struct.Struct("<I").unpack_from
u32_put = struct.Struct("<I").pack_into


@dataclass(frozen=True)
class Region:
    """A mapped address range.  ``end`` is exclusive and page-aligned."""

    name: str
    start: int
    end: int
    writable: bool = True


#: Longest chain of delta snapshots before a full page table is taken
#: again.  Bounds both the parent-chain walk at materialization time and
#: how much history a long-lived delta chain can pin in memory.
MAX_DELTA_DEPTH = 64


class MemorySnapshot:
    """An immutable view of memory at checkpoint time.

    Holds shared references to the page objects that existed when the
    snapshot was taken; :class:`PagedMemory` copies any such page before
    modifying it.  ``code_epoch`` records the memory's code-change epoch
    so a rollback knows whether instruction bytes have changed since.

    A snapshot is stored either *full* (``parent is None``; ``delta``
    holds the complete page table) or as a *delta*: a parent reference
    plus only the pages dirtied since the parent was taken.  Taking a
    delta costs O(dirty pages); the full table is materialized lazily —
    and cached — only when something actually consumes :attr:`pages`
    (rollback, analysis, introspection).  A clean interval is the
    zero-delta degenerate case: its materialized table is the parent's
    dict, shared by reference.
    """

    __slots__ = ("regions", "code_epoch", "page_count", "parent", "delta",
                 "delta_depth", "_pages_full")

    def __init__(self, pages: dict[int, bytearray] | None = None,
                 regions: list[Region] | None = None, code_epoch: int = 0,
                 parent: "MemorySnapshot | None" = None,
                 delta: dict[int, bytearray] | None = None,
                 page_count: int | None = None):
        self.regions = list(regions) if regions is not None else []
        self.code_epoch = code_epoch
        self.parent = parent
        if pages is not None:          # full-table construction
            self.delta = pages
            self._pages_full = pages
            self.delta_depth = 0
            self.page_count = len(pages)
        else:
            self.delta = delta if delta is not None else {}
            self._pages_full = None
            self.delta_depth = 0 if parent is None else \
                parent.delta_depth + 1
            self.page_count = page_count if page_count is not None else \
                len(self.delta)

    @property
    def pages(self) -> dict[int, bytearray]:
        """The complete page table at snapshot time (materialized lazily
        for delta snapshots; cached along the chain, and shared with the
        parent outright when the delta is empty)."""
        full = self._pages_full
        if full is not None:
            return full
        chain = [self]
        node = self.parent
        while node._pages_full is None:
            chain.append(node)
            node = node.parent
        full = node._pages_full
        for snap in reversed(chain):
            if snap.delta:
                full = dict(full)
                full.update(snap.delta)
            snap._pages_full = full
        return full

    def page_identities(self) -> set[int]:
        """Identity set of this snapshot's page objects.

        The fleet's memory accounting deduplicates pages across nodes and
        checkpoints by object identity — COW-shared pages are one object,
        so they count once however many snapshots reference them.  Going
        through :attr:`pages` keeps the semantics of the materialized
        full table (delta chains resolve to whatever page object is live
        at this snapshot's depth)."""
        return {id(page) for page in self.pages.values()}


class PagedMemory:
    """Sparse paged memory for one guest process.

    Write tracking is a dirty-page bitmap (``_dirty``): the set of page
    indices whose page object differs from the one shared with the last
    snapshot — pages COW-copied or newly materialized since then.  The
    hot write path is therefore a single set-membership test (already
    dirty → write straight through); the frozen-page check only runs on
    a page's *first* write per checkpoint interval.  ``cow_copies`` is
    derived from the bitmap transitions (it counts frozen pages entering
    the dirty set), and the checkpoint cost model charges COW work from
    it instead of intercepting every write.
    """

    def __init__(self):
        self._pages: dict[int, bytearray] = {}
        self._frozen: set[int] = set()
        self._dirty: set[int] = set()
        self._regions: list[Region] = []
        #: Page index -> owning region.  Regions are page-aligned so a
        #: page belongs to at most one region; this turns every mapping
        #: check into a single dict probe instead of a list walk (which
        #: thrashed when accesses alternate between stack and data).
        self._page_region: dict[int, Region] = {}
        #: Cumulative count of pages copied by COW faults (dirty-bitmap
        #: transitions of frozen pages); the timing model charges
        #: checkpoint cost from this.
        self.cow_copies = 0
        #: Callbacks ``fn(start, end)`` fired when code bytes in a range
        #: may have changed meaning: region unmapped/remapped, or a
        #: loader patch into read-only memory.  The CPU registers one to
        #: invalidate its predecoded instruction stream.
        self._code_listeners: list = []
        #: Monotone code-change epoch.  Every event that can alter
        #: instruction bytes (unmap, patch to read-only memory) takes a
        #: fresh value; snapshots record the value at freeze time, so a
        #: rollback across *any* such event — however many checkpoints
        #: ago — is detectable.  The counter itself never rewinds, which
        #: keeps epochs unique across rollback/re-patch timelines.
        self._code_epoch = 0
        self._epoch_counter = itertools.count(1)
        #: The newest snapshot/restore source, and whether the page
        #: *set* changed behind the dirty bitmap's back (unmap pops
        #: pages without dirtying).  Together they let a snapshot of a
        #: clean interval share the previous snapshot's page table
        #: outright instead of copying it — checkpoints taken while only
        #: modeled (cycle-charged) work ran cost O(1), and a fleet of
        #: idle nodes holds one page table per *distinct* state.
        self._last_snapshot: MemorySnapshot | None = None
        self._pages_mutated = False

    # -- mapping -----------------------------------------------------------

    @property
    def regions(self) -> list[Region]:
        return list(self._regions)

    @property
    def code_epoch(self) -> int:
        """The current code-change epoch (see ``_code_epoch``).  Callers
        compare it against ``MemorySnapshot.code_epoch`` to tell whether
        a rollback will cross a code change — in which case every
        predecoded cell *and fused trace* is dropped and must be rebuilt
        from the restored bytes."""
        return self._code_epoch

    def region_named(self, name: str) -> Region:
        for region in self._regions:
            if region.name == name:
                return region
        raise ReproError(f"no region named {name!r}")

    def region_at(self, addr: int) -> Region | None:
        return self._page_region.get(addr >> PAGE_SHIFT)

    def _index_region(self, region: Region):
        for index in range(region.start >> PAGE_SHIFT,
                           region.end >> PAGE_SHIFT):
            self._page_region[index] = region

    def map_region(self, name: str, start: int, size: int,
                   writable: bool = True) -> Region:
        """Map ``size`` bytes (rounded up to pages) at page-aligned ``start``."""
        if start % PAGE_SIZE:
            raise ReproError(f"region {name!r} start {start:#x} not page aligned")
        if start < NULL_GUARD_END:
            raise ReproError(f"region {name!r} overlaps the NULL guard page")
        end = start + _round_up(size)
        for existing in self._regions:
            if start < existing.end and existing.start < end:
                raise ReproError(
                    f"region {name!r} overlaps {existing.name!r}")
        region = Region(name=name, start=start, end=end, writable=writable)
        self._regions.append(region)
        self._index_region(region)
        return region

    def extend_region(self, name: str, new_end: int) -> Region:
        """Grow a region (heap brk).  ``new_end`` is rounded up to a page."""
        region = self.region_named(name)
        new_end = region.start + _round_up(new_end - region.start)
        if new_end < region.end:
            raise ReproError(f"cannot shrink region {name!r}")
        for other in self._regions:
            if other is not region and region.start < other.end \
                    and other.start < new_end:
                raise ReproError(
                    f"extending {name!r} would overlap {other.name!r}")
        grown = Region(name=region.name, start=region.start, end=new_end,
                       writable=region.writable)
        self._regions[self._regions.index(region)] = grown
        self._index_region(grown)
        return grown

    def unmap_region(self, name: str) -> Region:
        """Unmap a region, dropping its pages.

        The address range may later be remapped with different contents,
        so code listeners (the CPU's predecoded-instruction cache) are
        told to forget everything they derived from it.
        """
        region = self.region_named(name)
        self._regions.remove(region)
        for index in range(region.start >> PAGE_SHIFT,
                           (region.end + PAGE_SIZE - 1) >> PAGE_SHIFT):
            self._pages.pop(index, None)
            self._frozen.discard(index)
            self._dirty.discard(index)
            self._page_region.pop(index, None)
        self._pages_mutated = True
        self._code_epoch = next(self._epoch_counter)
        self._notify_code_changed(region.start, region.end)
        return region

    def add_code_listener(self, fn):
        """Register ``fn(start, end)`` to hear about code-range changes."""
        self._code_listeners.append(fn)

    def _notify_code_changed(self, start: int, end: int):
        for fn in self._code_listeners:
            fn(start, end)

    def is_mapped(self, addr: int) -> bool:
        return self.region_at(addr) is not None

    def mapped_page_count(self) -> int:
        """Number of pages currently spanned by mapped regions."""
        return sum((r.end - r.start) >> PAGE_SHIFT for r in self._regions)

    def page_identities(self) -> set[int]:
        """Identity set of the live page objects (see
        :meth:`MemorySnapshot.page_identities`) — the process-side half
        of the fleet's COW-sharing accounting, counting a golden-forked
        or checkpoint-shared page once per distinct object."""
        return {id(page) for page in self._pages.values()}

    # -- access ------------------------------------------------------------

    def _check(self, addr: int, size: int, write: bool):
        addr &= 0xFFFFFFFF
        if addr < NULL_GUARD_END:
            raise VMFault(FAULT_NULL, pc=-1, addr=addr)
        end = addr + size
        # Fast path: the whole access falls inside the region owning the
        # first page (one dict probe).
        region = self._page_region.get(addr >> PAGE_SHIFT)
        if region is not None and end <= region.end:
            if write and not region.writable:
                raise VMFault(FAULT_PROT, pc=-1, addr=addr)
            return
        cursor = addr
        while cursor < end:
            region = self._page_region.get(cursor >> PAGE_SHIFT)
            if region is None:
                raise VMFault(FAULT_SEGV, pc=-1, addr=cursor)
            if write and not region.writable:
                raise VMFault(FAULT_PROT, pc=-1, addr=cursor)
            cursor = min(end, region.end)

    def _page_for_read(self, index: int) -> bytes | bytearray:
        return self._pages.get(index, b"\x00" * PAGE_SIZE)

    def _page_for_write(self, index: int) -> bytearray:
        # Dirty fast path: a page written since the last snapshot is
        # private by construction, so one set probe suffices.
        if index in self._dirty:
            return self._pages[index]
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        elif index in self._frozen:
            page = bytearray(page)
            self._pages[index] = page
            self._frozen.discard(index)
            self.cow_copies += 1
        self._dirty.add(index)
        return page

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes, faulting on unmapped or NULL-guard access."""
        if size == 0:
            return b""
        self._check(addr, size, write=False)
        index, offset = divmod(addr, PAGE_SIZE)
        end = offset + size
        if end <= PAGE_SIZE:                     # common case: one page
            page = self._pages.get(index)
            if page is None:
                return bytes(size)
            return bytes(page[offset:end])
        out = bytearray()
        cursor = addr
        remaining = size
        while remaining:
            index, offset = divmod(cursor, PAGE_SIZE)
            chunk = min(remaining, PAGE_SIZE - offset)
            out += self._page_for_read(index)[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes):
        """Write bytes, faulting on unmapped, NULL-guard or read-only access."""
        if not data:
            return
        self._check(addr, len(data), write=True)
        self._write_pages(addr, data)

    def _write_pages(self, addr: int, data: bytes):
        index, offset = divmod(addr, PAGE_SIZE)
        end = offset + len(data)
        if end <= PAGE_SIZE:                     # common case: one page
            self._page_for_write(index)[offset:end] = data
            return
        cursor = addr
        view = memoryview(data)
        while view:
            index, offset = divmod(cursor, PAGE_SIZE)
            chunk = min(len(view), PAGE_SIZE - offset)
            self._page_for_write(index)[offset:offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    def write_unchecked(self, addr: int, data: bytes):
        """Write ignoring protections (loader patching read-only code).

        Patching non-writable memory can change instruction bytes, so
        code listeners are notified for the affected range.
        """
        self._write_pages(addr, data)
        region = self.region_at(addr)
        if region is not None and not region.writable:
            self._code_epoch = next(self._epoch_counter)
            self._notify_code_changed(addr, addr + len(data))

    def read_byte(self, addr: int) -> int:
        return self.read(addr, 1)[0]

    def write_byte(self, addr: int, value: int):
        self.write(addr, bytes([value & 0xFF]))

    def read_word(self, addr: int) -> int:
        """Read one little-endian 32-bit word (the stack/load fast path)."""
        self._check(addr, 4, write=False)
        index, offset = divmod(addr, PAGE_SIZE)
        if offset <= PAGE_SIZE - 4:
            page = self._pages.get(index)
            if page is None:
                return 0
            return u32_get(page, offset)[0]
        return int.from_bytes(self.read(addr, 4), "little")

    def write_word(self, addr: int, value: int):
        """Write one little-endian 32-bit word (the stack/store fast path)."""
        self._check(addr, 4, write=True)
        index, offset = divmod(addr, PAGE_SIZE)
        if offset <= PAGE_SIZE - 4:
            u32_put(self._page_for_write(index), offset, value & 0xFFFFFFFF)
            return
        self._write_pages(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    # -- page spans ----------------------------------------------------------
    #
    # What a byte-at-a-time reader or writer would get, computed a region
    # or a page at a time.  None of these fault: a caller that needs the
    # byte where a span stopped calls raise_fault() for it, which raises
    # exactly what the one-byte access would have.

    def span(self, addr: int, limit: int, write: bool = False) -> int:
        """How many of the ``limit`` bytes from ``addr`` are accessible
        (writable, with ``write``) before the first byte that faults."""
        page_region = self._page_region
        cursor, end = addr, addr + limit
        while cursor < end:
            region = page_region.get(cursor >> PAGE_SHIFT)
            if region is None or (write and not region.writable):
                return cursor - addr
            cursor = region.end
        return limit

    def scan(self, addr: int, limit: int, stop: int | None = None) -> bytes:
        """Up to ``limit`` bytes from ``addr``, ending just after the first
        ``stop`` byte or just before the first unreadable byte.  Each
        page is sliced (and searched with ``find``) once."""
        page_region, pages = self._page_region, self._pages
        chunks = []
        cursor, end = addr, addr + limit
        while cursor < end:
            index = cursor >> PAGE_SHIFT
            if index not in page_region:
                break
            offset = cursor & _PAGE_MASK
            upto = min(PAGE_SIZE, offset + end - cursor)
            page = pages.get(index, _ZERO_PAGE)
            if stop is not None:
                hit = page.find(stop, offset, upto)
                if hit >= 0:
                    chunks.append(page[offset:hit + 1])
                    break
            chunks.append(page[offset:upto])
            cursor += upto - offset
        return b"".join(chunks)

    def resident_page(self, addr: int, size: int) -> bytes | bytearray | None:
        """The page holding all ``size`` bytes at ``addr`` if they lie in
        one mapped page that has been written (so reading them cannot
        fault), else None."""
        index = addr >> PAGE_SHIFT
        if (addr & _PAGE_MASK) > PAGE_SIZE - size \
                or index not in self._page_region:
            return None
        return self._pages.get(index)

    def write_byte_unchecked(self, addr: int, value: int):
        """Store one byte at an address :meth:`span` found writable."""
        self._page_for_write(addr >> PAGE_SHIFT)[addr & _PAGE_MASK] = value

    def raise_fault(self, addr: int, write: bool = False):
        """Raise the fault a one-byte access at ``addr`` raises."""
        self._check(addr, 1, write)
        raise ReproError(f"{addr:#x} is accessible")

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string (faults if it runs off the map)."""
        text = self.scan(addr, limit, 0)
        if text[-1:] == b"\x00":
            return text[:-1]
        if len(text) < limit:
            self.raise_fault(addr + len(text))
        raise ReproError(f"unterminated string at {addr:#x}")

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> MemorySnapshot:
        """Take a copy-on-write snapshot (the Rx shadow process).

        Snapshots are *incremental*: with a previous snapshot to parent
        on, the new one records only the pages dirtied since it — an
        O(dirty) dict build instead of the O(mapped) page-table copy —
        and the full table materializes lazily if rollback or analysis
        ever selects this snapshot.  A clean interval (checkpoints
        during modeled busy-work, repeated snapshots of an idle node)
        is the zero-delta degenerate case and costs O(1).  A full table
        is recorded when there is no parent, when the page *set* mutated
        behind the dirty bitmap (region unmap), and every
        ``MAX_DELTA_DEPTH`` snapshots to bound chain walks.
        """
        last = self._last_snapshot
        if last is not None and not self._pages_mutated \
                and last.delta_depth < MAX_DELTA_DEPTH:
            dirty = self._dirty
            snap = MemorySnapshot(
                regions=self._regions, code_epoch=self._code_epoch,
                parent=last,
                delta={index: self._pages[index] for index in dirty},
                page_count=len(self._pages))
            if dirty:
                self._frozen |= dirty
                dirty.clear()
        else:
            self._frozen = set(self._pages)
            self._dirty.clear()
            snap = MemorySnapshot(pages=dict(self._pages),
                                  regions=self._regions,
                                  code_epoch=self._code_epoch)
        self._last_snapshot = snap
        self._pages_mutated = False
        return snap

    def restore(self, snap: MemorySnapshot):
        """Roll memory back to ``snap`` (near-instant, like a context switch).

        Container objects (page table, page-region index, dirty bitmap)
        are mutated in place: execution cells and fused supercells
        capture them by identity.  Restoring a delta snapshot
        materializes its full table (walking the parent chain once;
        the result is cached on the snapshot).  Rolling back across a
        code-epoch change — any unmap or read-only patch between the
        snapshot and now, however many checkpoints back the snapshot is
        — flushes predecoded state (decode cache, cells and fused
        traces) so stale decodings cannot survive the rollback.
        """
        if snap.code_epoch != self._code_epoch:
            self._code_epoch = snap.code_epoch
            self._notify_code_changed(0, 1 << 32)
        self._pages.clear()
        self._pages.update(snap.pages)
        self._regions = list(snap.regions)
        self._page_region.clear()
        for region in self._regions:
            self._index_region(region)
        # Restored pages are shared with the snapshot again, and the
        # snapshot's page table is current — an immediately following
        # clean-interval snapshot may share it.
        self._frozen = set(self._pages)
        self._dirty.clear()
        self._last_snapshot = snap
        self._pages_mutated = False

    def dirty_page_count(self) -> int:
        """Pages written (COW-copied or created) since the last snapshot
        or restore — a straight read of the dirty bitmap."""
        return len(self._dirty)

    def dirty_page_indices(self) -> set[int]:
        """The dirty bitmap itself, as a copy."""
        return set(self._dirty)

    def dirty_pages_since(self, snap: MemorySnapshot) -> int:
        """How many pages differ from ``snap`` by identity (COW accounting).

        For the most recent snapshot this *is* the dirty bitmap — a
        single identity check and a ``len`` instead of a walk over every
        mapped page.  The identity walk (which materializes the
        snapshot's page table) remains for older snapshots still
        retained by the checkpoint manager.
        """
        if snap is self._last_snapshot:
            return len(self._dirty)
        dirty = 0
        snap_pages = snap.pages
        for index, page in self._pages.items():
            if snap_pages.get(index) is not page:
                dirty += 1
        return dirty


def _round_up(size: int) -> int:
    return (size + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
