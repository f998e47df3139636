"""Byte-loop reference natives and accessor-only free-list walk.

These are the original one-byte-at-a-time implementations of the string
natives and of the allocator's first-fit walk.  They live in the test
tree only, as the oracle the page-span implementations in
``repro.machine.natives`` and ``repro.machine.allocator`` are compared
against: same return value, cycles, memory bytes, dirty pages, fault and
hook-event stream.
"""

from __future__ import annotations

from repro.errors import VMFault
from repro.machine.allocator import (_MIN_SPLIT, BLOCK_MAGIC, HEADER_SIZE,
                                     STATUS_ALLOCATED, STATUS_FREE, Allocator,
                                     Block, HeapCorruption)

_MAX_CSTR = 1 << 20


class ByteLoopContext:
    """The original native context: every byte goes through the checked
    accessors and fires its hook event individually."""

    def __init__(self, process, pc: int, name: str):
        self.process = process
        self.cpu = process.cpu
        self.memory = process.memory
        self.allocator = process.allocator
        self.pc = pc
        self.name = name
        self.hooks = process.hooks
        self.caller = self.memory.read_word(self.cpu.regs[8])

    def arg(self, index: int) -> int:
        return self.cpu.regs[index]

    def cycles(self, amount: int):
        self.cpu.cycles += amount

    def read(self, addr: int, size: int) -> bytes:
        data = self.memory.read(addr, size)
        self.hooks.sink.mem_read(self.pc, addr, size)
        return data

    def write(self, addr: int, data: bytes):
        self.memory.write(addr, data)
        self.hooks.sink.mem_write(self.pc, addr, len(data), data)

    def copy_byte(self, dst: int, src: int):
        value = self.memory.read(src, 1)
        sink = self.hooks.sink
        sink.mem_read(self.pc, src, 1)
        sink.mem_copy(self.pc, dst, src, 1)
        self.memory.write(dst, value)

    def cstrlen(self, addr: int) -> int:
        length = 0
        while length < _MAX_CSTR:
            byte = self.memory.read(addr + length, 1)[0]
            self.hooks.sink.mem_read(self.pc, addr + length, 1)
            if byte == 0:
                return length
            length += 1
        raise VMFault("SEGV", pc=self.pc, addr=addr,
                      detail="unterminated string")


REFERENCE_NATIVES: dict = {}


def _native(name: str):
    def register(fn):
        REFERENCE_NATIVES[name] = fn
        return fn
    return register


@_native("strlen")
def _strlen(ctx) -> int:
    length = ctx.cstrlen(ctx.arg(0))
    ctx.cycles(length + 1)
    return length


@_native("strcpy")
def _strcpy(ctx) -> int:
    dst, src = ctx.arg(0), ctx.arg(1)
    offset = 0
    while True:
        byte = ctx.memory.read(src + offset, 1)[0]
        ctx.copy_byte(dst + offset, src + offset)
        if byte == 0:
            break
        offset += 1
    ctx.cycles(offset + 1)
    return dst


@_native("strncpy")
def _strncpy(ctx) -> int:
    dst, src, limit = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    offset = 0
    terminated = False
    while offset < limit:
        if not terminated:
            byte = ctx.memory.read(src + offset, 1)[0]
            ctx.copy_byte(dst + offset, src + offset)
            if byte == 0:
                terminated = True
        else:
            ctx.write(dst + offset, b"\x00")
        offset += 1
    ctx.cycles(limit + 1)
    return dst


@_native("strcat")
def _strcat(ctx) -> int:
    dst, src = ctx.arg(0), ctx.arg(1)
    dst_len = ctx.cstrlen(dst)
    offset = 0
    while True:
        byte = ctx.memory.read(src + offset, 1)[0]
        ctx.copy_byte(dst + dst_len + offset, src + offset)
        if byte == 0:
            break
        offset += 1
    ctx.cycles(dst_len + offset + 2)
    return dst


@_native("strncat")
def _strncat(ctx) -> int:
    dst, src, limit = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    dst_len = ctx.cstrlen(dst)
    offset = 0
    while offset < limit:
        byte = ctx.memory.read(src + offset, 1)[0]
        if byte == 0:
            break
        ctx.copy_byte(dst + dst_len + offset, src + offset)
        offset += 1
    ctx.write(dst + dst_len + offset, b"\x00")
    ctx.cycles(dst_len + offset + 2)
    return dst


@_native("memcpy")
def _memcpy(ctx) -> int:
    dst, src, size = ctx.arg(0), ctx.arg(1), ctx.arg(2)
    for offset in range(size):
        ctx.copy_byte(dst + offset, src + offset)
    ctx.cycles(size + 1)
    return dst


@_native("strcmp")
def _strcmp(ctx) -> int:
    return _compare(ctx, ctx.arg(0), ctx.arg(1), None)


@_native("strncmp")
def _strncmp(ctx) -> int:
    return _compare(ctx, ctx.arg(0), ctx.arg(1), ctx.arg(2))


def _compare(ctx, a: int, b: int, limit) -> int:
    offset = 0
    while limit is None or offset < limit:
        byte_a = ctx.read(a + offset, 1)[0]
        byte_b = ctx.read(b + offset, 1)[0]
        if byte_a != byte_b:
            ctx.cycles(offset + 1)
            return 1 if byte_a > byte_b else 0xFFFFFFFF
        if byte_a == 0:
            break
        offset += 1
    ctx.cycles(offset + 1)
    return 0


@_native("strchr")
def _strchr(ctx) -> int:
    addr, wanted = ctx.arg(0), ctx.arg(1) & 0xFF
    offset = 0
    while True:
        byte = ctx.read(addr + offset, 1)[0]
        if byte == wanted:
            ctx.cycles(offset + 1)
            return addr + offset
        if byte == 0:
            ctx.cycles(offset + 1)
            return 0
        offset += 1


@_native("strstr")
def _strstr(ctx) -> int:
    haystack, needle = ctx.arg(0), ctx.arg(1)
    needle_len = ctx.cstrlen(needle)
    if needle_len == 0:
        return haystack
    first = ctx.read(needle, 1)[0]
    offset = 0
    while True:
        byte = ctx.read(haystack + offset, 1)[0]
        if byte == 0:
            ctx.cycles(offset + 1)
            return 0
        if byte == first:
            matched = True
            for i in range(1, needle_len):
                if ctx.read(haystack + offset + i, 1)[0] != \
                        ctx.read(needle + i, 1)[0]:
                    matched = False
                    break
            if matched:
                ctx.cycles(offset + needle_len)
                return haystack + offset
        offset += 1


@_native("atoi")
def _atoi(ctx) -> int:
    addr = ctx.arg(0)
    text = []
    offset = 0
    while True:
        byte = ctx.read(addr + offset, 1)[0]
        char = chr(byte)
        if offset == 0 and char == "-":
            text.append(char)
        elif char.isdigit():
            text.append(char)
        else:
            break
        offset += 1
    ctx.cycles(offset + 1)
    if not text or text == ["-"]:
        return 0
    return int("".join(text)) & 0xFFFFFFFF


@_native("realloc")
def _realloc(ctx) -> int:
    old, size = ctx.arg(0), ctx.arg(1)
    if old == 0:
        ctx.cpu.regs[0] = size
        payload = ctx.allocator.malloc(size)
        ctx.cycles(16)
        ctx.hooks.sink.malloc(ctx.pc, payload, size)
        return payload
    block = ctx.allocator.read_block(old - 12)
    new = ctx.allocator.malloc(size)
    ctx.hooks.sink.malloc(ctx.pc, new, size)
    for offset in range(min(block.size, size)):
        ctx.copy_byte(new + offset, old + offset)
    ctx.hooks.sink.free(ctx.pc, old)
    ctx.allocator.free(old)
    ctx.cycles(size + 32)
    return new


class AccessorAllocator(Allocator):
    """The allocator with its original accessor-only metadata reads:
    every free-list hop decodes a :class:`Block` through four checked
    ``read_word`` calls, and a taken block is split from that
    :class:`Block`.  ``hops`` counts the hops walked."""

    hops = 0

    def read_block(self, header: int) -> Block:
        return Block(header=header,
                     magic=self.memory.read_word(header),
                     size=self.memory.read_word(header + 4),
                     status=self.memory.read_word(header + 8))

    def _take_from_free_list(self, size: int) -> int:
        previous = 0
        cursor = self.free_head
        hops = 0
        while cursor:
            hops += 1
            self.hops += 1
            if hops > 1_000_000:
                raise HeapCorruption(cursor, "free list cycle")
            block = self.read_block(cursor)
            if block.magic != BLOCK_MAGIC:
                raise HeapCorruption(
                    cursor, f"bad magic {block.magic:#x} on free list")
            next_free = self.memory.read_word(block.payload)
            if block.size >= size:
                self._unlink(previous, next_free)
                self._split_block(block, size)
                self.memory.write_word(block.header + 8, STATUS_ALLOCATED)
                return block.payload
            previous = cursor
            cursor = next_free
        return 0

    def _split_block(self, block: Block, size: int):
        remainder = block.size - size
        if remainder < HEADER_SIZE + _MIN_SPLIT:
            return
        tail_header = block.payload + size
        self._write_block(tail_header, remainder - HEADER_SIZE, STATUS_FREE)
        self.memory.write_word(tail_header + HEADER_SIZE, self.free_head)
        self.free_head = tail_header
        self.memory.write_word(block.header + 4, size)

    def free(self, payload: int):
        if payload == 0:
            return
        header = payload - HEADER_SIZE
        block = self.read_block(header)
        if block.magic != BLOCK_MAGIC:
            raise HeapCorruption(
                header, f"free() of block with bad magic {block.magic:#x}")
        if block.status == STATUS_FREE:
            stale_link = self.memory.read_word(payload)
            self.memory.read_word(stale_link)
        elif block.status != STATUS_ALLOCATED:
            raise HeapCorruption(
                header, f"free() of block with bad status {block.status:#x}")
        self.memory.write_word(header + 8, STATUS_FREE)
        if self._is_mmap_block(header):
            return
        self.memory.write_word(payload, self.free_head)
        self.free_head = header
