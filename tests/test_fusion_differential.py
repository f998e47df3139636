"""Randomized differential conformance for trace fusion.

A seeded generator produces guest programs mixing ALU soup, bounded
loops, forward branches, loads/stores (aligned, unaligned and
page-crossing), call/ret (direct and indirect), native library calls,
balanced stack traffic, self-patching code executed from writable
memory, and occasional faulting accesses.  Every program is executed
under three drivers — the fused tier, the plain per-cell tier, and a
raw ``step()`` loop — through the same schedule of step-budget slices,
with a benign VSEF check armed and disarmed between slices at random
trace heads, interiors, RET/CALL tails and CFG-spliced members (so
arming re-splits live traces, disarming re-fuses them, and budgets can
pause execution mid-trace and resume at a probed pc).  At
every slice boundary the full architectural state must be bit-identical:
registers, flags, PC, cycle count, control ring, every memory page, the
dirty-page bitmap, sent messages, VSEF hit sequences and any fault.

Alongside the generator, targeted regression tests pin the invalidation
story: patching code mid-trace must drop/re-split the supercell (both
forward and across a checkpoint rollback), and mid-trace faults must
charge exactly the executed prefix.

Seeds and program count come from ``FUSION_DIFF_SEED`` (comma-separated)
and ``FUSION_DIFF_PROGRAMS``; CI runs the suite under two seeds.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.errors import ProcessExited, VMFault
from repro.isa.assembler import assemble
from repro.isa.opcodes import Op
from repro.machine.process import Process, _WouldBlock

SEEDS = [int(s) for s in
         os.environ.get("FUSION_DIFF_SEED", "11,23").split(",")]
NUM_PROGRAMS = int(os.environ.get("FUSION_DIFF_PROGRAMS", "200"))

_ALU = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr"]
_COND = ["je", "jne", "jl", "jle", "jg", "jge", "jb", "jae"]


# ---------------------------------------------------------------------------
# Program generator
# ---------------------------------------------------------------------------

def _soup_line(rng: random.Random) -> str:
    """One straight-line instruction over r0-r4 and the r6-based buffer."""
    roll = rng.random()
    if roll < 0.30:
        op = rng.choice(_ALU)
        rd = rng.randrange(5)
        if rng.random() < 0.5:
            return f" {op} r{rd}, r{rng.randrange(5)}"
        return f" {op} r{rd}, {rng.randrange(1 << 32)}"
    if roll < 0.40:
        return f" mov r{rng.randrange(5)}, {rng.randrange(1 << 32)}"
    if roll < 0.55:
        mnem = rng.choice(["st", "stb"])
        return f" {mnem} [r6+{_disp(rng)}], r{rng.randrange(5)}"
    if roll < 0.70:
        mnem = rng.choice(["ld", "ldb"])
        return f" {mnem} r{rng.randrange(5)}, [r6+{_disp(rng)}]"
    if roll < 0.80:
        if rng.random() < 0.5:
            return f" cmp r{rng.randrange(5)}, r{rng.randrange(5)}"
        return f" cmp r{rng.randrange(5)}, {rng.randrange(1 << 16)}"
    if roll < 0.90:
        # Division: occasionally by a live register (which may be zero —
        # a DIV_ZERO fault is a legitimate differential outcome).
        op = rng.choice(["div", "mod"])
        if rng.random() < 0.7:
            return f" or r3, 1\n {op} r{rng.randrange(3)}, r3"
        return f" {op} r{rng.randrange(3)}, r{rng.randrange(5)}"
    return " nop"


def _disp(rng: random.Random) -> int:
    """A buffer displacement: usually aligned, sometimes odd, sometimes
    right at a page boundary so word accesses straddle pages."""
    roll = rng.random()
    if roll < 0.6:
        return rng.randrange(0, 8000, 4)
    if roll < 0.8:
        return rng.randrange(0, 8000)
    return rng.choice([4093, 4094, 4095, 4096, 8090])


def _patch_gadget(rng: random.Random) -> list[str]:
    """Write ``mov r0, imm; ret`` into the writable wbuf and call it —
    self-patching code, executed from writable memory (step path in
    every tier), re-patched with a different immediate each time."""
    imm = rng.randrange(1 << 32)
    return [
        " mov r7, wbuf",
        f" mov r4, {Op.MOVRI:#x}",
        " stb [r7+0], r4",
        " mov r4, 0",
        " stb [r7+1], r4",
        f" mov r4, {imm}",
        " st [r7+2], r4",
        f" mov r4, {Op.RET:#x}",
        " stb [r7+6], r4",
        " call r7",
    ]


def _native_gadget(rng: random.Random) -> list[str]:
    roll = rng.random()
    if roll < 0.4:
        return [" mov r0, msg", " call @strlen"]
    if roll < 0.7:
        return [" mov r0, buf", " mov r1, msg", " call @strcpy"]
    return [" mov r0, 48", " call @malloc", " mov r5, r0",
            " mov r0, r5", " call @free"]


def _loop_gadget(rng: random.Random, index: int) -> list[str]:
    lines = [f" mov r5, {rng.randrange(1, 5)}", f"LP{index}:"]
    for _ in range(rng.randrange(2, 5)):
        lines.append(_soup_line(rng))
    lines += [" sub r5, 1", " cmp r5, 0", f" jne LP{index}"]
    return lines


def _stack_gadget(rng: random.Random) -> list[str]:
    if rng.random() < 0.2:
        return [" push sp", f" pop r{rng.randrange(5)}"]
    a, b = rng.randrange(5), rng.randrange(5)
    return [f" push r{a}", f" push r{b}", f" pop r{b}", f" pop r{a}"]


def generate_program(rng: random.Random, segments: int = 14) -> str:
    """A random terminating program for the differential harness."""
    helpers = []
    for h in range(3):
        body = [f"fn{h}:", " push fp", " mov fp, sp"]
        for _ in range(rng.randrange(1, 5)):
            body.append(_soup_line(rng))
        body += [" pop fp", " ret"]
        helpers.append("\n".join(body))

    # fn2 is called exactly once, directly, and its address is never
    # taken — a guaranteed single-entry callee, so every generated
    # program exercises CFG-driven call-target trace extension.
    lines = [".text", "main:", " mov r6, buf", " call fn2"]
    for index in range(segments):
        lines.append(f"S{index}:")
        roll = rng.random()
        if roll < 0.45:
            for _ in range(rng.randrange(2, 6)):
                lines.append(_soup_line(rng))
        elif roll < 0.55:
            lines.extend(_loop_gadget(rng, index))
        elif roll < 0.65:
            if rng.random() < 0.5:
                lines.append(f" call fn{rng.randrange(2)}")
            else:
                lines.append(f" mov r7, fn{rng.randrange(2)}")
                lines.append(" call r7")
        elif roll < 0.73:
            lines.extend(_native_gadget(rng))
        elif roll < 0.81:
            lines.extend(_stack_gadget(rng))
        elif roll < 0.87:
            lines.extend(_patch_gadget(rng))
        elif roll < 0.97:
            lines.append(f" cmp r{rng.randrange(5)}, {rng.randrange(64)}")
            target = rng.randrange(index + 1, segments + 1)
            lines.append(f" {rng.choice(_COND)} S{target}")
        else:
            # A wild access: usually faults (SEGV/NULL), always
            # deterministically, in every tier.
            lines.append(f" ld r0, [r6+{0x300000 + rng.randrange(64)}]")
    lines.append(f"S{segments}:")
    lines.append(" halt")
    lines += helpers
    lines += [".data", "buf: .space 8192", "wbuf: .space 64",
              'msg: .asciiz "fusion-differential"']
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drivers: one per execution tier, same slice/arm/disarm schedule
# ---------------------------------------------------------------------------

def _state(process: Process) -> dict:
    cpu = process.cpu
    memory = process.memory
    return {
        "regs": list(cpu.regs), "pc": cpu.pc,
        "flags": (cpu.zf, cpu.sf, cpu.cf), "cycles": cpu.cycles,
        "ring": list(cpu.control_ring),
        "pages": {index: bytes(page)
                  for index, page in memory._pages.items()},
        "dirty": memory.dirty_page_indices(),
        "sent": [(m.msg_id, m.data) for m in process.sent],
    }


def _run_slice_batched(process: Process, max_steps: int):
    return process.run(max_steps=max_steps).reason


def _run_slice_stepped(process: Process, max_steps: int):
    """A step()-at-a-time driver replicating Process.run's contract."""
    cpu = process.cpu
    done = 0
    try:
        while done < max_steps:
            cpu.step()
            done += 1
        return "steps"
    except _WouldBlock:
        cpu.pc = process._sys_pc
        return "idle"
    except ProcessExited:
        return "exit"


def _drive(image, seed: int, tier: str, schedule):
    """Run one process through the slice schedule, arming or disarming
    the schedule's check pcs before each slice; return the per-slice
    observations (run reason, state snapshot, fault, check hits)."""
    process = Process(image, seed=seed)
    if tier == "plain":
        process.cpu.fusion_enabled = False
    run_slice = _run_slice_stepped if tier == "stepped" \
        else _run_slice_batched
    hits: list[int] = []

    def check(cpu, insn):
        hits.append(cpu.pc)

    observations = []
    dead = False
    for max_steps, action, check_pc in schedule:
        if action == "arm":
            process.cpu.arm([check_pc], check)
        elif action == "disarm":
            process.cpu.disarm([check_pc], check)
        if dead:
            continue
        reason = fault = None
        try:
            reason = run_slice(process, max_steps)
        except VMFault as err:
            fault = (err.kind, err.pc, err.addr)
            dead = True
        if reason == "exit":
            dead = True
        observations.append((reason, fault, _state(process), list(hits)))
    return observations


def _check_pc_groups(image, seed: int) -> list[list[int]]:
    """The interesting places to arm a VSEF check, from a reference
    process's fused traces: trace heads, interior members, control
    transfer tails (RET/CALL), and members spliced in by CFG extension.
    Empty groups are left out."""
    reference = Process(image, seed=seed)
    heads, interiors, tails, spliced = [], [], [], []
    for head, (_fn, _k, _end, members) in reference.cpu._traces.items():
        heads.append(head)
        for idx in range(1, len(members)):
            pc, insn = members[idx]
            prev_pc, prev_insn = members[idx - 1]
            if prev_pc + prev_insn.length != pc:
                spliced.append(pc)
            elif insn.op in (Op.RET, Op.CALLI, Op.CALLR):
                tails.append(pc)
            else:
                interiors.append(pc)
    return [group for group in (heads, interiors, tails, spliced) if group]


def _arming_schedule(rng: random.Random, groups: list[list[int]]) -> list:
    """Step-budget slices, each preceded by arming a check at a random
    pc of a random group or disarming one armed earlier."""
    schedule = [(rng.randrange(7, 157), None, None)]
    armed: list[int] = []
    for _ in range(6):
        if armed and rng.random() < 0.4:
            check_pc = armed.pop(rng.randrange(len(armed)))
            schedule.append((rng.randrange(7, 157), "disarm", check_pc))
        elif groups:
            check_pc = rng.choice(rng.choice(groups))
            armed.append(check_pc)
            schedule.append((rng.randrange(7, 157), "arm", check_pc))
    schedule.append((30_000, None, None))
    return schedule


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_bit_identical_across_tiers(seed):
    rng = random.Random(seed)
    fused_traces_seen = 0
    for index in range(NUM_PROGRAMS):
        source = generate_program(rng)
        image = assemble(source)
        proc_seed = seed * 1000 + index
        groups = _check_pc_groups(image, proc_seed)
        schedule = _arming_schedule(rng, groups)
        baseline = _drive(image, proc_seed, "fused", schedule)
        fused_traces_seen += 1 if groups else 0
        for tier in ("plain", "stepped"):
            other = _drive(image, proc_seed, tier, schedule)
            assert other == baseline, \
                f"seed={seed} program={index} tier={tier} diverged"
    # The generator must actually exercise fusion, not vacuously pass.
    assert fused_traces_seen > NUM_PROGRAMS * 0.8


# ---------------------------------------------------------------------------
# Targeted mid-trace fault accounting
# ---------------------------------------------------------------------------

def _tier_processes(source: str, seed: int = 3):
    image = assemble(source)
    fused = Process(image, seed=seed)
    plain = Process(image, seed=seed)
    plain.cpu.fusion_enabled = False
    return fused, plain


def _run_to_fault(process: Process):
    try:
        process.run(max_steps=1_000)
        raise AssertionError("expected a fault")
    except VMFault as fault:
        return (fault.kind, fault.pc, fault.addr)


def test_mid_trace_push_fault_charges_prefix_and_decrements_sp():
    source = ".text\nmain:\n mov r0, 7\n mov sp, 16\n push r0\n halt\n"
    fused, plain = _tier_processes(source)
    assert fused.cpu.fused_trace_count >= 1
    fault_fused = _run_to_fault(fused)
    fault_plain = _run_to_fault(plain)
    assert fault_fused == fault_plain
    assert fused.cpu.cycles == plain.cpu.cycles == 3
    assert fused.cpu.regs == plain.cpu.regs     # SP left decremented: 12
    assert fused.cpu.regs[8] == 12
    assert fused.cpu.pc == plain.cpu.pc         # the faulting push


def test_mid_trace_div_zero_charges_prefix():
    source = (".text\nmain:\n mov r1, 0\n mov r0, 5\n div r0, r1\n"
              " add r0, 1\n halt\n")
    fused, plain = _tier_processes(source)
    fault_fused = _run_to_fault(fused)
    fault_plain = _run_to_fault(plain)
    assert fault_fused == fault_plain
    assert fault_fused[0] == "DIV_ZERO"
    assert fused.cpu.cycles == plain.cpu.cycles == 3
    assert fused.cpu.regs == plain.cpu.regs
    assert fused.cpu.pc == plain.cpu.pc


# ---------------------------------------------------------------------------
# Invalidation and rollback: no stale supercell may ever execute
# ---------------------------------------------------------------------------

_STRAIGHT = (".text\nmain:\n mov r0, 0\n add r0, 1\n add r0, 2\n"
             " add r0, 4\n halt\n")


def _addri_at(process: Process, offset: int) -> int:
    pc = process.symbols["main"] + offset
    assert process.cpu._decode_cache[pc].op is Op.ADDRI
    return pc


def test_patch_mid_trace_drops_stale_supercell():
    """Patching an instruction in the middle of a fused trace must take
    effect on the next execution — the supercell may not replay the old
    bytes."""
    process = Process(assemble(_STRAIGHT), seed=1)
    assert process.cpu.fused_trace_count == 1
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 7
    patch_pc = _addri_at(process, 12)            # the 'add r0, 2'
    process.memory.write_unchecked(patch_pc + 2,
                                   (0x20).to_bytes(4, "little"))
    # The patched pc is forgotten and no surviving trace spans it.
    assert patch_pc not in process.cpu._decode_cache
    assert all(not (head <= patch_pc < trace[2])
               for head, trace in process.cpu._traces.items())
    process.cpu.pc = process.symbols["main"]
    process.exited = False
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 1 + 0x20 + 4


def test_rollback_across_patch_rebuilds_traces_from_restored_bytes():
    """A checkpoint rollback that crosses a code patch (a code-epoch
    change) must re-split/rebuild the fused traces from the *restored*
    bytes: executing the stale supercell — or the patched-timeline one —
    would replay the wrong instructions."""
    process = Process(assemble(_STRAIGHT), seed=2)
    snap = process.snapshot_full()
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 7
    patch_pc = _addri_at(process, 12)
    process.memory.write_unchecked(patch_pc + 2,
                                   (0x20).to_bytes(4, "little"))
    process.restore_full(snap)
    # Traces were rebuilt by re-predecode, from the rolled-back bytes.
    assert process.cpu.fused_trace_count == 1
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 7


def test_patch_resplits_trace_into_prefix_and_suffix():
    source = (".text\nmain:\n mov r1, 1\n add r1, 2\n add r1, 3\n"
              " add r1, 4\n add r1, 5\n add r1, 6\n add r1, 7\n halt\n")
    process = Process(assemble(source), seed=4)
    main = process.symbols["main"]
    assert process.cpu._traces[main][1] == 7
    patch_pc = _addri_at(process, 18)            # the 'add r1, 4'
    process.memory.write_unchecked(patch_pc + 2,
                                   (10).to_bytes(4, "little"))
    traces = process.cpu._traces
    assert main in traces and traces[main][1] == 3           # prefix
    assert patch_pc + 6 in traces and traces[patch_pc + 6][1] == 3  # suffix
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[1] == 1 + 2 + 3 + 10 + 5 + 6 + 7


def test_budget_pause_mid_trace_resumes_on_checked_tier():
    """A step budget can pause execution in the middle of a fused trace;
    a VSEF check armed at the next pc must fire when execution resumes
    (arming re-splits the trace, so the pc runs through step())."""
    source = (".text\nmain:\n mov r0, 0\n add r0, 1\n add r0, 2\n"
              " add r0, 4\n add r0, 8\n halt\n")
    process = Process(assemble(source), seed=0)
    assert process.cpu.fused_trace_count == 1
    result = process.run(max_steps=3)           # pauses inside the trace
    assert result.reason == "steps"
    hits = []
    process.cpu.arm([process.cpu.pc], lambda cpu, insn: hits.append(cpu.pc))
    result = process.run(max_steps=1_000)
    assert result.reason == "exit"
    assert process.cpu.regs[0] == 15
    assert len(hits) == 1


# ---------------------------------------------------------------------------
# Static CFG recovery must cover dynamic execution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_executed_text_pcs_lie_on_recovered_cfg(seed):
    """Every pc the machine actually executes from read-only text must
    be an instruction boundary inside a block the static CFG recovered
    — the soundness property the antibody audit and the CFG-driven
    fusion both stand on.  (Self-patched code runs from writable pages
    and is rightly outside the static view.)"""
    from repro.analysis.static import recover_image_cfg

    rng = random.Random(seed + 7)
    checked = 0
    for index in range(min(NUM_PROGRAMS, 40)):
        image = assemble(generate_program(rng))
        cfg = recover_image_cfg(image)
        process = Process(image, seed=seed * 77 + index)
        code_base = process.symbols["main"] - image.symbols["main"][1]
        executed = set()
        try:
            for _ in range(30_000):
                pc = process.cpu.pc
                region = process.memory.region_at(pc)
                if region is not None and not region.writable:
                    executed.add(pc)
                process.cpu.step()
        except (ProcessExited, VMFault, _WouldBlock):
            pass
        assert executed
        for pc in sorted(executed):
            offset = pc - code_base
            assert offset in cfg.insns, \
                f"seed={seed} program={index}: executed pc {pc:#x} " \
                f"(text+{offset:#x}) not a recovered instruction boundary"
            assert offset in cfg.owner, \
                f"seed={seed} program={index}: executed pc {pc:#x} " \
                f"(text+{offset:#x}) outside every recovered basic block"
            checked += 1
    assert checked > 0
