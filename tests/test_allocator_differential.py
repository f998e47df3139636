"""The allocator's page-bytes free-list walk against the accessor walk.

``Allocator`` unpacks a free-list hop straight from the page bytes when
the 16-byte header-plus-link lies in one mapped page, and falls back to
the checked word accessors for every other hop.  ``AccessorAllocator``
(test tree) is the original walk that reads every word through the
accessors.  Both must place every block at the same address, leave the
same memory, and raise the same fault -- on long fragmenting sequences
and on deliberately corrupted free lists.  A squidp node serving benign
traffic must take the page path on every hop it can.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.exploits import EXPLOITS
from repro.apps.workload import benign_requests
from repro.errors import VMFault
from repro.machine import allocator as allocator_module
from repro.machine.allocator import (BLOCK_MAGIC, HEADER_SIZE, STATUS_FREE,
                                     Allocator)
from repro.machine.memory import PAGE_SIZE, PagedMemory
from repro.runtime.sweeper import Sweeper, SweeperConfig
from tests.natives_reference import AccessorAllocator

HEAP = 0x30000000


def _outcome(fn):
    try:
        return ("ok", fn())
    except VMFault as fault:
        return (type(fault).__name__, fault.kind, fault.addr, fault.detail)


def _pages(memory: PagedMemory) -> dict[int, bytes]:
    return {index: bytes(page) for index, page in memory._pages.items()}


def _pair(snapshot):
    """The fast and the accessor allocator over two copies of an image."""
    pair = []
    for cls in (Allocator, AccessorAllocator):
        memory = PagedMemory()
        memory.restore(snapshot)
        pair.append(cls(memory, HEAP))
    return pair


def _fresh_heap() -> tuple[PagedMemory, Allocator]:
    memory = PagedMemory()
    memory.map_region("heap", HEAP, PAGE_SIZE)
    allocator = Allocator(memory, HEAP)
    allocator.initialize()
    return memory, allocator


def _op(allocator: Allocator, live: list[int], rng: random.Random):
    """One seeded heap operation, squidp-shaped: many small, short-lived
    blocks, a few long-lived ones, occasional large and huge requests."""
    memory = allocator.memory
    kind = rng.random()
    if kind < 0.45 or not live:
        size = rng.choice((rng.randrange(1, 64), rng.randrange(64, 400),
                           rng.randrange(400, 3000), 5000))
        payload = allocator.malloc(size)
        if kind < 0.2 and payload:                    # calloc zeroes
            memory.write(payload, bytes((size + 3) & ~3))
        live.append(payload)
        return payload
    victim = live[rng.randrange(len(live))]
    if kind < 0.6:                                    # realloc
        old = allocator.read_block(victim - HEADER_SIZE)
        size = rng.randrange(1, 2 * max(old.size, 8))
        new = allocator.malloc(size)
        copied = min(old.size, size)
        memory.write(new, memory.read(victim, copied))
        allocator.free(victim)
        live[live.index(victim)] = new
        return new
    live.remove(victim)
    allocator.free(victim)
    return victim


@pytest.mark.parametrize("seed", [3, 29])
def test_fragmenting_sequences_match(seed):
    memory, _ = _fresh_heap()
    fast, slow = _pair(memory.snapshot())
    rngs = (random.Random(seed), random.Random(seed))
    lives: tuple[list, list] = ([], [])
    for step in range(2500):
        results = [_op(a, l, r) for a, l, r in zip((fast, slow), lives, rngs)]
        assert results[0] == results[1], (seed, step)
        if step % 100 == 0:
            assert _pages(fast.memory) == _pages(slow.memory), (seed, step)
    assert _pages(fast.memory) == _pages(slow.memory)
    assert slow.hops > 50_000


def _list_image():
    """A heap with a ten-block free list (free head first)."""
    memory, allocator = _fresh_heap()
    blocks = [allocator.malloc(24 + 8 * i) for i in range(12)]
    for payload in blocks[1:11]:
        allocator.free(payload)
    return memory, allocator, blocks


def _corrupt_magic(memory, allocator, blocks):
    memory.write_word(blocks[5] - HEADER_SIZE, 0xDEADBEEF)


def _cycle(memory, allocator, blocks):
    memory.write_word(blocks[3], blocks[8] - HEADER_SIZE)


def _link_unmapped(memory, allocator, blocks):
    memory.write_word(blocks[6], HEAP + 0x400000)


def _link_null(memory, allocator, blocks):
    memory.write_word(blocks[6], 0x7F0)


def _straddle(memory, allocator, blocks, magic=BLOCK_MAGIC):
    # A forged free block whose header starts 6 bytes before a page end.
    memory.extend_region("heap", HEAP + 3 * PAGE_SIZE)
    header = HEAP + 2 * PAGE_SIZE - 6
    memory.write(header, magic.to_bytes(4, "little")
                 + (4096).to_bytes(4, "little")
                 + STATUS_FREE.to_bytes(4, "little") + bytes(4))
    memory.write_word(blocks[2], header)


def _straddle_bad(memory, allocator, blocks):
    _straddle(memory, allocator, blocks, magic=0x1234)


def _link_absent(memory, allocator, blocks):
    memory.extend_region("heap", HEAP + 4 * PAGE_SIZE)
    memory.write_word(blocks[4], HEAP + 3 * PAGE_SIZE + 64)


def _link_after_page(memory, allocator, blocks):
    # Header in one page, link word in the next.
    memory.extend_region("heap", HEAP + 3 * PAGE_SIZE)
    header = HEAP + 2 * PAGE_SIZE - HEADER_SIZE
    memory.write(header, BLOCK_MAGIC.to_bytes(4, "little")
                 + (2048).to_bytes(4, "little")
                 + STATUS_FREE.to_bytes(4, "little"))
    memory.write_word(header + HEADER_SIZE, 0)
    memory.write_word(blocks[2], header)


@pytest.mark.parametrize("corrupt,expected", [
    (_corrupt_magic, "bad magic 0xdeadbeef"),
    (_cycle, "free list cycle"),
    (_link_unmapped, "SEGV"),
    (_link_null, "NULL_DEREF"),
    (_straddle, None),
    (_straddle_bad, "bad magic 0x1234"),
    (_link_absent, "bad magic 0x0"),
    (_link_after_page, None),
])
def test_corrupted_free_lists_match(corrupt, expected):
    memory, allocator, blocks = _list_image()
    corrupt(memory, allocator, blocks)
    fast, slow = _pair(memory.snapshot())
    # Larger than every genuine free block: the walk visits the whole list.
    size = 2000
    outcome = _outcome(lambda: fast.malloc(size))
    assert outcome == _outcome(lambda: slow.malloc(size))
    assert _pages(fast.memory) == _pages(slow.memory)
    if expected is None:
        assert outcome[0] == "ok"
    else:
        assert expected in (outcome[1] or "") + " " + (outcome[3] or "")
    for payload in blocks[:2]:
        assert _outcome(lambda: fast.free(payload)) == \
            _outcome(lambda: slow.free(payload))
    assert _pages(fast.memory) == _pages(slow.memory)


def _one_page_hop(memory: PagedMemory, cursor: int) -> bool:
    return cursor & (PAGE_SIZE - 1) <= PAGE_SIZE - 16 \
        and memory.region_at(cursor) is not None


def _squidp_node() -> Sweeper:
    spec = EXPLOITS["Squid"]
    return Sweeper(spec.build_image(), app_name=spec.app,
                   config=SweeperConfig(seed=5))


def test_squidp_walk_takes_page_path(monkeypatch):
    requests = benign_requests("squidp", 1000, seed=17)

    reference = _squidp_node()
    process = reference.process
    accessor = AccessorAllocator(process.memory, process.allocator.heap_base)
    process.allocator = accessor
    reference_out = [reference.submit(request) for request in requests]

    counts = {"page": 0, "accessor": 0}
    unpack = allocator_module._unpack_hop
    read_hop = Allocator._read_hop

    def page_hop(page, offset):
        counts["page"] += 1
        return unpack(page, offset)

    def accessor_hop(self, cursor):
        counts["accessor"] += 1
        assert not _one_page_hop(self.memory, cursor), hex(cursor)
        return read_hop(self, cursor)

    monkeypatch.setattr(allocator_module, "_unpack_hop", page_hop)
    monkeypatch.setattr(Allocator, "_read_hop", accessor_hop)
    node = _squidp_node()
    assert type(node.process.allocator) is Allocator
    out = [node.submit(request) for request in requests]

    assert out == reference_out
    assert counts["page"] + counts["accessor"] == accessor.hops
    assert accessor.hops > 10_000
