"""Native "libc" routines mapped into the guest's library region.

The protected servers call these the way real servers call glibc.  Each
native runs with the guest's program counter set to its own library
address and charges the virtual cycles a one-byte-at-a-time loop would:
proportional to the bytes it touches.  The work itself is done over page
spans -- a string is found with one ``bytes.find`` per page, a copy lands
as one slice write per page -- and what the hook bus sees depends on the
sink:

- with no tool attached (``hooks.sink is NULL_SINK``) a native emits no
  events and writes in bulk;
- with a live sink it emits the byte loop's per-byte ``mem_read`` /
  ``mem_copy`` / ``mem_write`` stream, interleaved with its writes in the
  same order, so the memory-bug and taint tools observe every byte a
  native moves.

In both modes the outcome is the byte loop's.  A native faults at the
first byte the loop would have faulted on, with the same kind and
address, after the same partial writes and with the same dirty pages;
an overlapping copy leaves the forward byte copy's repeating pattern.
The process blames a fault on the native's library address and carries
the application caller as ``source_pc``.  Consequences that matter for
fidelity:

- an overflowing ``strcat`` writes real bytes until it runs off the
  mapped heap, faulting *at strcat's library address* with the partial
  overflow already in memory (Table 2's Squid row);
- a double ``free`` chases the stale free-list link and faults *at free's
  library address* with an inconsistent heap (Table 2's CVS row);
- analysis attributes blame to the library callsite plus the application
  caller, exactly like the paper's ``strcat called by ftpBuildTitleUrl``.

The two addresses quoted in the paper are preserved at reference layout:
``strcat = 0x4f0f0907`` and ``free = 0x4f0eaaa0``.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import VMFault
from repro.instrument.hooks import NULL_SINK
from repro.machine.allocator import Allocator

#: Library-region offsets for every native.  Stable across runs; the
#: loader adds the (randomized) lib base.
NATIVE_OFFSETS: dict[str, int] = {
    "malloc": 0xEA100,
    "calloc": 0xEA300,
    "realloc": 0xEA500,
    "free": 0xEAAA0,     # paper: 0x4f0eaaa0 at reference layout
    "strlen": 0xF0100,
    "strcpy": 0xF0200,
    "strncpy": 0xF0300,
    "strncat": 0xF0500,
    "memcpy": 0xF0600,
    "memset": 0xF0700,
    "strcmp": 0xF0800,
    "strcat": 0xF0907,   # paper: 0x4f0f0907 at reference layout
    "strncmp": 0xF0A00,
    "strchr": 0xF0B00,
    "atoi": 0xF0C00,
    "itoa": 0xF0D00,
    "strstr": 0xF0E00,
}

_MAX_CSTR = 1 << 20
#: Longer than any mapped span: the limit of a loop with no bound.
_UNBOUNDED = 1 << 33

#: How :meth:`NativeContext.copy` treats a NUL source byte: copy on, end
#: after copying it, or end on reading it (without copying it).
_ALL, _WITH_NUL, _BEFORE_NUL = 0, 1, 2


class NativeContext:
    """Execution context handed to a native routine.

    Binds the hook sink once for the whole call, reports every event with
    the native's own library address as the PC, and exposes the
    application caller's return address for blame attribution.
    """

    def __init__(self, process, pc: int, name: str):
        self.process = process
        self.cpu = process.cpu
        self.memory = process.memory
        self.allocator: Allocator = process.allocator
        self.pc = pc
        self.name = name
        self.sink = process.hooks.sink
        #: Return address of the application call into this native.
        self.caller = self.memory.read_word(self.cpu.regs[8])  # [sp]

    def arg(self, index: int) -> int:
        return self.cpu.regs[index]

    def cycles(self, amount: int):
        self.cpu.cycles += amount

    # -- memory operations, byte-loop semantics over page spans ---------------

    def write(self, addr: int, data: bytes):
        """A write of constant / computed bytes (not a byte-copy)."""
        self.memory.write(addr, data)
        self.sink.mem_write(self.pc, addr, len(data), data)

    def listeners(self, event: str) -> list:
        """The callbacks for ``event``, bound once per call; empty under
        the null sink, so a per-byte event loop costs nothing then."""
        return [] if self.sink is NULL_SINK else self.sink.listeners(event)

    def reads(self, addr: int, count: int):
        """Emit the events of ``count`` one-byte reads from ``addr``."""
        listeners, pc = self.listeners("mem_read"), self.pc
        if listeners:
            for at in range(addr, addr + count):
                for fn in listeners:
                    fn(pc, at, 1)

    def cstrlen(self, addr: int) -> int:
        """Length of the NUL-terminated string at ``addr`` (hooked reads)."""
        text = self.memory.scan(addr, _MAX_CSTR, 0)
        self.reads(addr, len(text))
        if text[-1:] == b"\x00":
            return len(text) - 1
        if len(text) < _MAX_CSTR:
            self.memory.raise_fault(addr + len(text))
        raise VMFault("SEGV", pc=self.pc, addr=addr,
                      detail="unterminated string")

    def copy(self, dst: int, src: int, limit: int, nul: int = _ALL) -> int:
        """Forward-copy up to ``limit`` bytes from ``src`` to ``dst`` as a
        one-byte loop does; returns the number of bytes written.

        Where ``dst`` lies ahead of ``src`` within the copy, the loop
        reads bytes it wrote itself, so the source repeats with period
        ``dst - src``.  A fault is raised at the loop's first faulting
        access: the read of ``src + n`` or the write of ``dst + n``.
        """
        memory = self.memory
        period = dst - src
        repeats = 0 < period < limit
        data = memory.scan(src, period if repeats else limit,
                           0 if nul else None)
        if nul and data[-1:] == b"\x00":
            want, ended = len(data) - (nul == _BEFORE_NUL), True
        elif repeats and len(data) == period:
            want, ended = limit, True
        else:
            want, ended = len(data), len(data) == limit
        count = memory.span(dst, want, write=True)
        if count > len(data):
            data *= count // period + 1
        reads, copies = self.listeners("mem_read"), self.listeners("mem_copy")
        if reads or copies:
            pc, write_byte = self.pc, memory.write_byte_unchecked
            for offset in range(count + (count < want)):
                at, source = dst + offset, src + offset
                for fn in reads:
                    fn(pc, source, 1)
                for fn in copies:
                    fn(pc, at, source, 1)
                if offset < count:
                    write_byte(at, data[offset])
        elif count:
            memory.write(dst, data[:count])
        if count < want:
            memory.raise_fault(dst + count, write=True)
        if not ended:
            memory.raise_fault(src + count)
        return count

    def zero(self, addr: int, count: int):
        """Write ``count`` NUL bytes one at a time (a write event each)."""
        memory = self.memory
        writable = memory.span(addr, count, write=True)
        writes = self.listeners("mem_write")
        if writes:
            pc, write_byte = self.pc, memory.write_byte_unchecked
            for at in range(addr, addr + writable):
                write_byte(at, 0)
                for fn in writes:
                    fn(pc, at, 1, b"\x00")
        elif writable:
            memory.write(addr, bytes(writable))
        if writable < count:
            memory.raise_fault(addr + writable, write=True)


NativeFn = Callable[[NativeContext], int]
NATIVES: dict[str, NativeFn] = {}


def native(name: str):
    def register(fn: NativeFn) -> NativeFn:
        NATIVES[name] = fn
        return fn
    return register


# ---------------------------------------------------------------------------
# String routines
# ---------------------------------------------------------------------------

@native("strlen")
def _strlen(ctx: NativeContext) -> int:
    length = ctx.cstrlen(ctx.arg(0))
    ctx.cycles(length + 1)
    return length


@native("strcpy")
def _strcpy(ctx: NativeContext) -> int:
    dst = ctx.arg(0)
    ctx.cycles(ctx.copy(dst, ctx.arg(1), _UNBOUNDED, _WITH_NUL))
    return dst


@native("strncpy")
def _strncpy(ctx: NativeContext) -> int:
    dst, src, limit = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    copied = ctx.copy(dst, src, limit, _WITH_NUL)
    ctx.zero(dst + copied, limit - copied)
    ctx.cycles(limit + 1)
    return dst


@native("strcat")
def _strcat(ctx: NativeContext) -> int:
    """The unbounded strcat the Squid exploit (CVE-2002-0068) abuses."""
    dst, src = ctx.arg(0), ctx.arg(1)
    dst_len = ctx.cstrlen(dst)
    copied = ctx.copy(dst + dst_len, src, _UNBOUNDED, _WITH_NUL)
    ctx.cycles(dst_len + copied + 1)
    return dst


@native("strncat")
def _strncat(ctx: NativeContext) -> int:
    dst, src, limit = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    end = dst + ctx.cstrlen(dst)
    end += ctx.copy(end, src, limit, _BEFORE_NUL)
    ctx.write(end, b"\x00")
    ctx.cycles(end - dst + 2)
    return dst


@native("memcpy")
def _memcpy(ctx: NativeContext) -> int:
    dst, src, size = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    ctx.copy(dst, src, size)
    ctx.cycles(size + 1)
    return dst


@native("memset")
def _memset(ctx: NativeContext) -> int:
    dst, value, size = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    if size:
        ctx.write(dst, bytes([value & 0xFF]) * size)
    ctx.cycles(size + 1)
    return dst


@native("strcmp")
def _strcmp(ctx: NativeContext) -> int:
    return _compare(ctx, ctx.arg(0), ctx.arg(1), _UNBOUNDED)


@native("strncmp")
def _strncmp(ctx: NativeContext) -> int:
    return _compare(ctx, ctx.arg(0), ctx.arg(1), ctx.arg(2))


def _compare(ctx: NativeContext, a: int, b: int, limit: int) -> int:
    """The byte loop reads ``a[i]`` then ``b[i]`` and stops at the first
    difference, at a shared NUL, or at ``limit``."""
    memory = ctx.memory
    text_a = memory.scan(a, limit, 0)
    text_b = memory.scan(b, len(text_a))
    common = len(text_b)
    differ = text_a[:common] != text_b
    steps = common
    if differ:
        steps = next(i for i, (x, y) in enumerate(zip(text_a, text_b))
                     if x != y) + 1
    reads, pc = ctx.listeners("mem_read"), ctx.pc
    if reads:
        for offset in range(steps):
            for fn in reads:
                fn(pc, a + offset, 1)
            for fn in reads:
                fn(pc, b + offset, 1)
        if not differ and common < len(text_a):
            ctx.reads(a + common, 1)
    if differ:
        ctx.cycles(steps)
        return 1 if text_a[steps - 1] > text_b[steps - 1] else 0xFFFFFFFF
    if common < len(text_a):
        memory.raise_fault(b + common)
    if text_a[-1:] == b"\x00":
        ctx.cycles(common)
    elif common == limit:
        ctx.cycles(limit + 1)
    else:
        memory.raise_fault(a + common)
    return 0


@native("strchr")
def _strchr(ctx: NativeContext) -> int:
    addr, wanted = ctx.arg(0), ctx.arg(1) & 0xFF
    text = ctx.memory.scan(addr, _UNBOUNDED, 0)
    hit = text.find(wanted)
    ctx.reads(addr, hit + 1 if hit >= 0 else len(text))
    if hit >= 0:
        ctx.cycles(hit + 1)
        return addr + hit
    if text[-1:] != b"\x00":
        ctx.memory.raise_fault(addr + len(text))
    ctx.cycles(len(text))
    return 0


@native("strstr")
def _strstr(ctx: NativeContext) -> int:
    haystack, needle = ctx.arg(0), ctx.arg(1)
    needle_len = ctx.cstrlen(needle)
    if needle_len == 0:
        return haystack
    memory = ctx.memory
    pattern = memory.scan(needle, needle_len)
    text = memory.scan(haystack, _UNBOUNDED, 0)
    reads = ctx.listeners("mem_read")
    if reads:
        _strstr_reads(ctx, reads, haystack, needle, text, pattern)
    hit = text.find(pattern)
    if hit >= 0:
        ctx.cycles(hit + needle_len)
        return haystack + hit
    if text[-1:] != b"\x00":
        memory.raise_fault(haystack + len(text))
    ctx.cycles(len(text))
    return 0


def _strstr_reads(ctx: NativeContext, reads: list, haystack: int,
                  needle: int, text: bytes, pattern: bytes):
    """Emit the naive search's reads: the needle's first byte, then each
    haystack byte, plus the (haystack, needle) byte pairs compared after
    each first-byte hit -- up to the match, the NUL, or the first
    unreadable haystack byte (``len(text)``), where the loop stops."""
    pc = ctx.pc

    def read(addr: int):
        for fn in reads:
            fn(pc, addr, 1)

    read(needle)
    end, first = len(text), pattern[0]
    for offset in range(end):
        read(haystack + offset)
        byte = text[offset]
        if byte == 0:
            return
        if byte == first:
            for i in range(1, len(pattern)):
                if offset + i == end:
                    return
                read(haystack + offset + i)
                read(needle + i)
                if text[offset + i] != pattern[i]:
                    break
            else:
                return


@native("atoi")
def _atoi(ctx: NativeContext) -> int:
    addr = ctx.arg(0)
    text = ctx.memory.scan(addr, _UNBOUNDED, 0)
    digits = []
    for byte in text:
        char = chr(byte)
        if not (char.isdigit() or not digits and char == "-"):
            break
        digits.append(char)
    else:
        ctx.reads(addr, len(text))
        ctx.memory.raise_fault(addr + len(text))
    ctx.reads(addr, len(digits) + 1)
    ctx.cycles(len(digits) + 1)
    if not digits or digits == ["-"]:
        return 0
    return int("".join(digits)) & 0xFFFFFFFF


@native("itoa")
def _itoa(ctx: NativeContext) -> int:
    value, buf = ctx.arg(0), ctx.arg(1)
    text = str(value).encode()
    ctx.write(buf, text + b"\x00")
    ctx.cycles(len(text) + 1)
    return buf


# ---------------------------------------------------------------------------
# Heap routines
# ---------------------------------------------------------------------------

@native("malloc")
def _malloc(ctx: NativeContext) -> int:
    size = ctx.arg(0)
    payload = ctx.allocator.malloc(size)
    ctx.cycles(16)
    ctx.sink.malloc(ctx.pc, payload, size)
    return payload


@native("calloc")
def _calloc(ctx: NativeContext) -> int:
    count, unit = ctx.arg(0), ctx.arg(1)
    size = (count * unit) & 0xFFFFFFFF
    payload = ctx.allocator.malloc(size)
    # Announce the allocation before zeroing so red-zone tools know the
    # block is live when they see the writes.
    ctx.sink.malloc(ctx.pc, payload, size)
    if payload and size:
        ctx.write(payload, b"\x00" * size)
    ctx.cycles(size + 16)
    return payload


@native("realloc")
def _realloc(ctx: NativeContext) -> int:
    old, size = ctx.arg(0), ctx.arg(1)
    if old == 0:
        ctx.cpu.regs[0] = size
        return _malloc(ctx)
    block = ctx.allocator.read_block(old - 12)
    new = ctx.allocator.malloc(size)
    ctx.sink.malloc(ctx.pc, new, size)
    ctx.copy(new, old, min(block.size, size))
    ctx.sink.free(ctx.pc, old)
    ctx.allocator.free(old)
    ctx.cycles(size + 32)
    return new


@native("free")
def _free(ctx: NativeContext) -> int:
    payload = ctx.arg(0)
    ctx.sink.free(ctx.pc, payload)
    ctx.allocator.free(payload)
    ctx.cycles(16)
    return 0


def native_name_at(lib_base: int, addr: int) -> str | None:
    """The native mapped at ``addr`` for a given library base, if any."""
    offset = addr - lib_base
    for name, native_offset in NATIVE_OFFSETS.items():
        if native_offset == offset:
            return name
    return None


def build_native_map(lib_base: int) -> dict[int, str]:
    """Absolute address -> native name for a concrete layout."""
    return {lib_base + offset: name for name, offset in NATIVE_OFFSETS.items()}
