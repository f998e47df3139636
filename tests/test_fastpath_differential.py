"""Differential tests across the CPU's four run-loop tiers.

The batched CPU loop selects among three inner loops: **fused** (trace
supercells + cells), **plain** (per-instruction cells) and
**instrumented** (full event emission); a fourth configuration,
**checked**, arms a VSEF probe, whose pc then leaves the fast tables
and runs through step().  The contract is that the tier is *purely* an
implementation detail: registers, flags, memory, cycle counts, the
control ring and every fault must be bit-identical across all of them.
These tests run the same guest programs down every tier and diff the
final machine state, and they exercise the dirty-page bitmap through
snapshot/restore round-trips.
"""

from __future__ import annotations

import random

from repro.errors import VMFault
from repro.instrument.hooks import Tool
from repro.isa.assembler import assemble
from repro.machine.process import Process

_ALU = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]
_COND = ["je", "jne", "jl", "jle", "jg", "jge", "jb", "jae"]


class TouchEverything(Tool):
    """Subscribes to every event so the hook manager goes fully active."""

    name = "touch-everything"

    def __init__(self):
        self.counts: dict[str, int] = {}

    def _bump(self, event):
        self.counts[event] = self.counts.get(event, 0) + 1

    def on_ins(self, pc, insn, cpu):
        self._bump("ins")

    def on_mem_read(self, pc, addr, size):
        self._bump("mem_read")

    def on_mem_write(self, pc, addr, size, data):
        self._bump("mem_write")

    def on_mem_copy(self, pc, dst, src, size):
        self._bump("mem_copy")

    def on_call(self, pc, target, return_addr):
        self._bump("call")

    def on_ret(self, pc, target, sp):
        self._bump("ret")

    def on_branch(self, pc, target, taken):
        self._bump("branch")

    def on_reg_write(self, pc, reg, value):
        self._bump("reg_write")

    def on_malloc(self, pc, payload, size):
        self._bump("malloc")

    def on_free(self, pc, payload):
        self._bump("free")

    def on_native(self, pc, name, args):
        self._bump("native")

    def on_syscall(self, pc, number, args, result):
        self._bump("syscall")


def _machine_state(process: Process) -> dict:
    cpu = process.cpu
    pages = {index: bytes(page)
             for index, page in process.memory._pages.items()}
    return {"regs": list(cpu.regs), "pc": cpu.pc,
            "flags": (cpu.zf, cpu.sf, cpu.cf), "cycles": cpu.cycles,
            "ring": list(cpu.control_ring), "pages": pages}


def _benign_check(cpu, insn):
    """A VSEF probe that fires without charging cycles or touching
    state: arming it sends its pc through the general path."""


def run_differential(source: str, feeds=(), max_steps: int = 500_000,
                     seed: int = 7):
    """Run ``source`` down all four run-loop tiers; assert identical
    state.  Returns the fused process, the instrumented one and its
    tool (kept for callers asserting on event counts)."""
    image = assemble(source)
    fused = Process(image, seed=seed)
    plain = Process(image, seed=seed)
    plain.cpu.fusion_enabled = False
    checked = Process(image, seed=seed)
    checked.cpu.arm([checked.symbols[image.entry]], _benign_check)
    instrumented = Process(image, seed=seed)
    tool = TouchEverything()
    instrumented.hooks.attach(tool, instrumented)
    processes = [fused, plain, checked, instrumented]
    for process in processes:
        for data in feeds:
            process.feed(data)
    results = [process.run(max_steps=max_steps) for process in processes]
    states = [_machine_state(process) for process in processes]
    for result in results[1:]:
        assert result.reason == results[0].reason
        assert result.cycles == results[0].cycles
    for state in states[1:]:
        assert state == states[0]
    return fused, instrumented, tool


def _random_program(rng: random.Random, length: int = 60) -> str:
    """A random terminating program: ALU soup, loads/stores through a
    scratch buffer, and forward-only conditional branches."""
    lines = [".text", "main:", " mov r6, buf"]
    for index in range(length):
        lines.append(f"L{index}:")
        roll = rng.random()
        if roll < 0.35:
            op = rng.choice(_ALU)
            rd = rng.randrange(6)
            if rng.random() < 0.5:
                lines.append(f" {op} r{rd}, r{rng.randrange(6)}")
            else:
                lines.append(f" {op} r{rd}, {rng.randrange(0xFFFF)}")
        elif roll < 0.5:
            lines.append(f" mov r{rng.randrange(6)}, {rng.randrange(1 << 32)}")
        elif roll < 0.62:
            disp = rng.randrange(0, 252, 4)
            lines.append(f" st [r6+{disp}], r{rng.randrange(6)}")
        elif roll < 0.74:
            disp = rng.randrange(0, 252, 4)
            lines.append(f" ld r{rng.randrange(6)}, [r6+{disp}]")
        elif roll < 0.86:
            if rng.random() < 0.5:
                lines.append(f" cmp r{rng.randrange(6)}, r{rng.randrange(6)}")
            else:
                lines.append(f" cmp r{rng.randrange(6)}, "
                             f"{rng.randrange(0xFFFF)}")
        else:
            target = rng.randrange(index + 1, length + 1)
            lines.append(f" {rng.choice(_COND)} L{target}")
    lines.append(f"L{length}:")
    lines.append(" halt")
    lines.append(".data")
    lines.append("buf: .space 256")
    return "\n".join(lines)


def test_random_programs_bit_identical():
    rng = random.Random(1234)
    for _ in range(25):
        run_differential(_random_program(rng), max_steps=20_000)


def test_calls_natives_and_heap_bit_identical():
    source = """
    .text
    main:
        mov r0, 64
        call @malloc
        mov r5, r0
        mov r1, msg
        call @strcpy
        mov r0, r5
        call @strlen
        mov r4, r0
        mov r0, r5
        call @free
        mov r0, 3
        call fact
        halt
    fact:
        push fp
        mov fp, sp
        cmp r0, 1
        jle base
        push r0
        sub r0, 1
        call fact
        pop r1
        mul r0, r1
        jmp done
    base:
        mov r0, 1
    done:
        pop fp
        ret
    .data
    msg: .asciiz "differential"
    """
    plain, _instrumented, tool = run_differential(source)
    assert plain.cpu.regs[0] == 6          # 3!
    assert tool.counts["native"] >= 4
    assert tool.counts["call"] >= 3
    assert tool.counts["ins"] > 0


def test_server_with_syscalls_bit_identical():
    source = """
    .text
    main:
    loop:
        mov r0, buf
        mov r1, 256
        sys recv
        cmp r0, 0
        je loop
        mov r1, r0
        mov r0, buf
        sys send
        jmp loop
    .data
    buf: .space 256
    """
    feeds = [b"first request", b"second", b"third payload"]
    plain, instrumented, tool = run_differential(source, feeds=feeds)
    assert plain.sent and len(plain.sent) == len(instrumented.sent)
    assert [s.data for s in plain.sent] == [s.data for s in instrumented.sent]
    assert tool.counts["syscall"] >= len(feeds)


def test_faults_identical_on_both_paths():
    source = ".text\nmain:\n mov r1, 64\n ld r0, [r1+0]\n halt\n"
    plain = Process(assemble(source), seed=3)
    instrumented = Process(assemble(source), seed=3)
    instrumented.hooks.attach(TouchEverything(), instrumented)
    faults = []
    for process in (plain, instrumented):
        try:
            process.run(max_steps=1_000)
            raise AssertionError("expected a fault")
        except VMFault as fault:
            faults.append((fault.kind, fault.pc, fault.addr))
    assert faults[0] == faults[1]
    assert plain.cpu.cycles == instrumented.cpu.cycles


def test_stepped_and_batched_identical():
    """Single-stepping and the batched loop agree instruction for
    instruction (same cells, same accounting)."""
    rng = random.Random(99)
    source = _random_program(rng, length=40)
    batched = Process(assemble(source), seed=5)
    stepped = Process(assemble(source), seed=5)
    batched.run(max_steps=10_000)
    from repro.errors import ProcessExited
    try:
        while True:
            stepped.cpu.step()
    except ProcessExited:
        pass
    assert stepped.cpu.regs == batched.cpu.regs
    assert stepped.cpu.cycles == batched.cpu.cycles
    assert (stepped.cpu.zf, stepped.cpu.sf, stepped.cpu.cf) == \
        (batched.cpu.zf, batched.cpu.sf, batched.cpu.cf)


# ---------------------------------------------------------------------------
# Snapshot / restore through the dirty-page bitmap
# ---------------------------------------------------------------------------

def test_snapshot_restore_roundtrip_dirty_bitmap():
    source = """
    .text
    main:
    loop:
        mov r0, buf
        mov r1, 256
        sys recv
        cmp r0, 0
        je loop
        mov r1, r0
        mov r0, buf
        sys send
        jmp loop
    .data
    buf: .space 4200
    """
    process = Process(assemble(source), seed=11)
    process.run(max_steps=100_000)                  # boot to first recv
    memory = process.memory

    snap = process.snapshot_full()
    assert memory.dirty_page_count() == 0           # snapshot resets bitmap

    process.feed(b"A" * 200)
    process.run(max_steps=100_000)
    dirty_after_write = memory.dirty_page_count()
    assert dirty_after_write >= 1                   # buf page went dirty
    assert memory.cow_copies >= 1                   # it was frozen before

    state_after = {index: bytes(page)
                   for index, page in memory._pages.items()}

    process.restore_full(snap)
    assert memory.dirty_page_count() == 0           # restore resets bitmap

    # Re-execute the same input: bit-identical replay, same dirty set.
    process.feed(b"A" * 200)
    process.run(max_steps=100_000)
    assert memory.dirty_page_count() == dirty_after_write
    replay_state = {index: bytes(page)
                    for index, page in memory._pages.items()}
    assert replay_state == state_after


def test_dirty_bitmap_matches_identity_walk():
    source = ".text\nmain:\n mov r6, buf\n st [r6+0], r0\n halt\n.data\n" \
             "buf: .space 64\n"
    process = Process(assemble(source), seed=0)
    memory = process.memory
    snap = memory.snapshot()
    process.run(max_steps=1_000)
    assert memory.dirty_page_count() == memory.dirty_pages_since(snap)


def test_tool_attached_from_pre_check_sees_remaining_stream():
    """PIN-style mid-execution attach: a VSEF pre-check that attaches a
    tool must put the batched loop on the instrumented path immediately,
    and the attaching instruction itself must be observed exactly as
    step() would (checks run once, then the ins event)."""
    source = (".text\nmain:\n mov r0, 0\n add r0, 1\n add r0, 2\n"
              " add r0, 4\n halt\n")
    process = Process(assemble(source), seed=0)
    tool = TouchEverything()
    first_add = process.symbols["main"] + 6      # the first 'add'
    check_runs = []

    def check(cpu, insn):
        check_runs.append(cpu.pc)
        if tool not in process.hooks.tools:
            process.hooks.attach(tool, process)

    process.cpu.arm([first_add], check)
    result = process.run(max_steps=1_000)
    assert result.reason == "exit"
    assert process.cpu.regs[0] == 7
    # The check ran once (not re-run by loop re-selection) and the tool
    # saw the attaching instruction plus everything after it: add, add,
    # add, halt.
    assert len(check_runs) == 1
    assert tool.counts["ins"] == 4
