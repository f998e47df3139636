"""Differential suite: page-span natives against the byte-loop reference.

Every case runs one native on a seeded random memory image twice -- once
with the page-span implementation in ``repro.machine.natives`` and once
with the byte-loop reference kept in ``tests/natives_reference.py`` --
and compares the return value, ``cpu.cycles``, every page's bytes, the
dirty-page set, the COW count and the fault's ``kind``/``pc``/``addr``/
``source_pc``/``detail``.  Each case runs with the null sink, with a
recording tool attached, and with a recording tool that raises partway
through; the recorder stores a hash of the destination bytes at every
event, so the interleaving of events and writes is compared as well.

The images cover strings that cross page boundaries, tails that run into
unmapped or never-written pages, pointers below the NULL guard,
destinations in read-only code, overlapping copies in both directions,
limits of 0 and near 64 KB, and empty ``strstr`` needles.

Seeds come from ``NATIVES_DIFF_SEED`` (comma-separated), with
``NUM_CASES`` random cases per seed; CI runs the suite under two seeds.
"""

from __future__ import annotations

import os
import random
import zlib
from types import SimpleNamespace

import pytest

from repro.errors import VMFault
from repro.instrument.hooks import HookManager, Tool
from repro.machine.allocator import Allocator
from repro.machine.memory import PAGE_SIZE, PagedMemory
from repro.machine.natives import NATIVES, NativeContext
from tests.natives_reference import REFERENCE_NATIVES, ByteLoopContext

SEEDS = [int(s) for s in
         os.environ.get("NATIVES_DIFF_SEED", "7,19").split(",")]
NUM_CASES = 200

NATIVE_PC = 0x4F0F0907
CALLER = 0x08048123

CODE = 0x10000           # 2 pages, read-only
DATA = 0x20000           # 6 pages; page 2 never written
DATA_PAGES = 6
HOLE = DATA + DATA_PAGES * PAGE_SIZE          # 1 unmapped page
TAIL = HOLE + PAGE_SIZE  # 2 pages, then a contiguous 2-page region
NEXT = TAIL + 2 * PAGE_SIZE
BIG = 0x60000            # 17 pages: room for copies near 64 KB
BIG_PAGES = 17
HEAP = 0x100000
STACK = 0x200000
SP = STACK + 0x800

#: The data pages the image writes: page 2 stays absent (reads as zeros).
_WRITTEN = [0, 1, 3, 4, 5]
#: Page 4 starts as a lightly mutated copy of page 0, so two pointers at
#: the same offset compare equal for a long prefix.
_TWIN_OFFSET = 4 * PAGE_SIZE

_LIMITS = (0, 1, 2, 3, 7, 16, 100, 4095, 4096, 4097,
           65535, 65536, 65537, 0xFFFFFFFF)


class _Stop(Exception):
    """Raised by a recorder that stops the native partway."""


class Recorder(Tool):
    """Logs every event with a hash of the watched destination bytes
    (taken when the event fires, i.e. before or after the native's write
    of that byte); optionally raises once the shared log holds more than
    ``stop_at`` events."""

    name = "recorder"

    def __init__(self, memory: PagedMemory, watch: int, events: list,
                 tag: str, stop_at=None):
        self.memory = memory
        self.watch = watch
        self.events = events
        self.tag = tag
        self.stop_at = stop_at

    def _note(self, *event):
        digest = zlib.crc32(self.memory.scan(self.watch, 256))
        self.events.append((self.tag,) + event + (digest,))
        if self.stop_at is not None and len(self.events) > self.stop_at:
            raise _Stop(len(self.events))

    def on_mem_read(self, pc, addr, size):
        self._note("read", pc, addr, size)

    def on_mem_write(self, pc, addr, size, data):
        self._note("write", pc, addr, size, bytes(data))

    def on_mem_copy(self, pc, dst, src, size):
        self._note("copy", pc, dst, src, size)

    def on_malloc(self, pc, payload, size):
        self._note("malloc", pc, payload, size)

    def on_free(self, pc, payload):
        self._note("free", pc, payload)


def _text(rng: random.Random, size: int) -> bytearray:
    """Printable runs split by NULs at random distances, with digits,
    '-' and a few high bytes mixed in."""
    out = bytearray()
    while len(out) < size:
        run = rng.choice((0, 1, 3, 8, 20, 60, 300, 1500, 5000))
        alphabet = rng.choice((b"ab", b"abc-", b"0123456789-",
                               b"hello world", bytes(range(1, 256))))
        out += bytes(rng.choice(alphabet) for _ in range(run))
        out.append(0)
    return out[:size]


def build_image(rng: random.Random):
    """A memory image plus the heap payloads planted in it."""
    memory = PagedMemory()
    memory.map_region("code", CODE, 2 * PAGE_SIZE, writable=False)
    memory.map_region("data", DATA, DATA_PAGES * PAGE_SIZE)
    memory.map_region("tail", TAIL, 2 * PAGE_SIZE)
    memory.map_region("next", NEXT, 2 * PAGE_SIZE)
    memory.map_region("big", BIG, BIG_PAGES * PAGE_SIZE)
    memory.map_region("heap", HEAP, 4 * PAGE_SIZE)
    memory.map_region("stack", STACK, PAGE_SIZE)
    memory.write_unchecked(CODE, bytes(_text(rng, 2 * PAGE_SIZE)))
    twin = _text(rng, PAGE_SIZE)
    for page in _WRITTEN:
        content = _text(rng, PAGE_SIZE)
        if page == 4:
            content = bytearray(twin)
            for _ in range(rng.randrange(4)):
                content[rng.randrange(PAGE_SIZE)] = rng.randrange(256)
        if page == 0:
            content = twin
        memory.write(DATA + page * PAGE_SIZE, bytes(content))
    # The last data page and the tail end without a NUL: strings there
    # run into the hole, or across the tail/next region boundary.
    memory.write(HOLE - 64, b"x" * 64)
    memory.write(TAIL, bytes(_text(rng, 2 * PAGE_SIZE)))
    memory.write(NEXT - 32, b"y" * 32)
    memory.write(NEXT, bytes(_text(rng, 2 * PAGE_SIZE)))
    memory.write(BIG, bytes(_text(rng, BIG_PAGES * PAGE_SIZE)))
    memory.write_word(SP, CALLER)
    allocator = Allocator(memory, HEAP)
    allocator.initialize()
    payloads = [allocator.malloc(rng.choice((4, 16, 64, 300, 1000)))
                for _ in range(6)]
    for payload in payloads:
        block = allocator.read_block(payload - 12)
        memory.write(payload, bytes(_text(rng, block.size)))
    allocator.free(payloads[1])
    # A block whose size field was clobbered: realloc copies off the heap.
    memory.write_word(payloads[4] - 8, 0x7FFFF)
    return memory, payloads


def _pointer(rng: random.Random, payloads, writable: bool = False) -> int:
    kind = rng.randrange(12)
    if kind == 0:
        return rng.randrange(0, 0x1000)               # NULL guard
    if kind == 1:
        return HOLE + rng.randrange(PAGE_SIZE)        # unmapped
    if kind == 2 and not writable:
        return CODE + rng.randrange(2 * PAGE_SIZE)    # read-only
    if kind == 2:
        return CODE + rng.randrange(64)               # dst in code: PROT
    if kind == 3:
        return DATA + 2 * PAGE_SIZE + rng.randrange(PAGE_SIZE)  # absent
    if kind == 4:
        return HOLE - rng.randrange(1, 80)            # runs into the hole
    if kind == 5:
        return NEXT - rng.randrange(1, 80)            # region boundary
    if kind == 6:
        page = rng.choice(_WRITTEN)
        return DATA + (page + 1) * PAGE_SIZE - rng.randrange(1, 40)
    if kind == 7:
        return rng.choice(payloads)
    if kind == 8:
        return BIG + rng.randrange(BIG_PAGES * PAGE_SIZE)
    return DATA + rng.randrange(DATA_PAGES * PAGE_SIZE)


def _near(rng: random.Random, base: int) -> int:
    """A pointer overlapping ``base`` in either direction."""
    return base + rng.choice((-1, 1)) * rng.choice((0, 1, 2, 3, 5, 17, 100))


def _limit(rng: random.Random) -> int:
    if rng.random() < 0.5:
        return rng.choice(_LIMITS)
    return rng.randrange(0, 300)


def make_case(rng: random.Random, payloads) -> tuple[str, list[int]]:
    """One (native, args) draw."""
    name = rng.choice(("strlen", "strcpy", "strncpy", "strcat", "strncat",
                       "memcpy", "strcmp", "strncmp", "strchr", "strstr",
                       "atoi", "realloc"))
    src = _pointer(rng, payloads)
    dst = _pointer(rng, payloads, writable=True)
    if name in ("strcpy", "strncpy", "strcat", "strncat", "memcpy") \
            and rng.random() < 0.3:
        dst = _near(rng, src)                         # overlapping copy
    if name == "strlen":
        return name, [src]
    if name in ("strcpy", "strcat"):
        return name, [dst, src]
    if name in ("strncpy", "strncat", "memcpy"):
        return name, [dst, src, _limit(rng)]
    if name in ("strcmp", "strncmp"):
        a = src
        b = rng.choice((a, a + _TWIN_OFFSET, a - _TWIN_OFFSET,
                        _pointer(rng, payloads)))
        return name, [a, b] + ([_limit(rng)] if name == "strncmp" else [])
    if name == "strchr":
        return name, [src, rng.choice((0, ord("a"), ord("b"), ord("-"),
                                       0x161, rng.randrange(256)))]
    if name == "strstr":
        needle = rng.choice((src + rng.randrange(0, 12),
                             _pointer(rng, payloads),
                             DATA + 2 * PAGE_SIZE))   # absent page: ""
        return name, [src, needle]
    if name == "atoi":
        return name, [src]
    return name, [rng.choice(payloads + [0]), rng.choice(
        (0, 1, 8, 64, 500, 1200, 5000))]


def run_native(impl: str, snapshot, name: str, args: list[int],
               tool: str | None, stop_at: int | None = None) -> dict:
    """Run one native on a fresh copy of the image; report everything a
    caller could observe."""
    memory = PagedMemory()
    memory.restore(snapshot)
    hooks = HookManager()
    events = None
    if tool is not None:
        # Two tools sharing one log: events must reach every listener
        # byte by byte, in attach order.
        events = []
        hooks.attach(Recorder(memory, args[0], events, "a", stop_at))
        hooks.attach(Recorder(memory, args[0], events, "b"))
    cpu = SimpleNamespace(regs=[0] * 10, cycles=0)
    cpu.regs[:len(args)] = args
    cpu.regs[8] = SP
    process = SimpleNamespace(cpu=cpu, memory=memory, hooks=hooks,
                              allocator=Allocator(memory, HEAP))
    if impl == "span":
        ctx, fn = NativeContext(process, NATIVE_PC, name), NATIVES[name]
    else:
        ctx = ByteLoopContext(process, NATIVE_PC, name)
        fn = REFERENCE_NATIVES[name]
    result = fault = None
    try:
        result = fn(ctx)
    except VMFault as exc:
        # The process's native handler blames the library pc + caller.
        if exc.pc in (-1, None):
            exc = VMFault(exc.kind, pc=NATIVE_PC, addr=exc.addr,
                          source_pc=ctx.caller,
                          detail=exc.detail or f"in {name}")
        fault = (exc.kind, exc.pc, exc.addr, exc.source_pc, exc.detail)
    except (_Stop, ValueError) as exc:
        fault = (type(exc).__name__, str(exc))
    return {
        "result": result,
        "fault": fault,
        "cycles": cpu.cycles,
        "pages": {index: bytes(page)
                  for index, page in memory._pages.items()},
        "dirty": memory.dirty_page_indices(),
        "cow": memory.cow_copies,
        "events": events,
    }


def _cases(seed: int):
    rng = random.Random(seed)
    memory, payloads = build_image(rng)
    snapshot = memory.snapshot()
    for index in range(NUM_CASES):
        yield index, snapshot, make_case(rng, payloads), rng.random()


def _assert_same(case, span: dict, ref: dict):
    for key in ("fault", "result", "cycles", "dirty", "cow", "events"):
        assert span[key] == ref[key], (case, key)
    assert span["pages"] == ref["pages"], (case, "memory")


@pytest.mark.parametrize("seed", SEEDS)
def test_span_natives_match_byte_loop(seed):
    covered = set()
    for index, snapshot, (name, args), stop_draw in _cases(seed):
        case = (seed, index, name, [hex(a) for a in args])
        for tool in (None, "record"):
            ref = run_native("ref", snapshot, name, args, tool)
            span = run_native("span", snapshot, name, args, tool)
            _assert_same(case, span, ref)
            covered.add((name, ref["fault"][0] if ref["fault"] else "ok"))
        if ref["events"]:
            stop_at = int(stop_draw * len(ref["events"]))
            _assert_same(case + (stop_at,),
                         run_native("span", snapshot, name, args, "record",
                                    stop_at),
                         run_native("ref", snapshot, name, args, "record",
                                    stop_at))
    # The draws must actually reach the fault paths they were built for.
    kinds = {kind for _, kind in covered}
    assert {"ok", "SEGV", "NULL_DEREF", "PROT"} <= kinds, kinds


def _image_with(extra):
    memory, payloads = build_image(random.Random(1))
    extra(memory)
    return memory.snapshot()


@pytest.mark.parametrize("name,args", [
    # Overlap ahead of the source: the copy repeats its own output until
    # it runs off the data region into the hole.
    ("strcpy", [DATA + 5 * PAGE_SIZE - 900 + 3, DATA + 5 * PAGE_SIZE - 900]),
    ("strcat", [DATA + 5 * PAGE_SIZE - 900, DATA + 5 * PAGE_SIZE - 900]),
    ("memcpy", [BIG + 5, BIG, 65536]),
    ("memcpy", [BIG, BIG + 5, 65536]),
    ("strncpy", [BIG, DATA + 2 * PAGE_SIZE, 65535]),
    ("strncpy", [BIG + 1024, DATA + 2 * PAGE_SIZE, 65536]),
    ("strncat", [DATA + 2 * PAGE_SIZE, BIG, 65537]),
    ("strstr", [DATA, DATA + 2 * PAGE_SIZE]),
    # A partial match running into the hole faults inside the inner loop.
    ("strstr", [HOLE - 64, DATA + 100]),
    ("strncmp", [DATA + 17, DATA + _TWIN_OFFSET + 17, 0]),
    ("strcmp", [BIG, BIG]),
])
def test_edge_cases(name, args):
    def plant(memory):
        memory.write(DATA + 5 * PAGE_SIZE - 900, b"abc" * 300)
        memory.write(DATA + 100, b"xxq\0")
        memory.write(BIG, b"z" * (BIG_PAGES * PAGE_SIZE - 2048) + b"\0")
    snapshot = _image_with(plant)
    for tool in (None, "record"):
        _assert_same((name, args),
                     run_native("span", snapshot, name, args, tool),
                     run_native("ref", snapshot, name, args, tool))
