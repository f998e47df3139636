"""CFG-driven trace extension: superblocks across block boundaries.

The fusion tier's contiguous supercells stop at every control transfer.
CFG-driven extension splices a run's statically-unique successor into
the trace — through unconditional immediate jumps (the target is the
only successor) and into single-entry call targets (one predecessor,
address never taken).  These tests pin the policy (what may and may not
be extended), the bit-identical semantics of extended traces against
the plain per-cell tier and raw ``step()`` (registers, flags, cycles,
control ring, memory pages and the dirty bitmap), and the invalidation
story when a patch lands inside a spliced region.
"""

from __future__ import annotations

from repro.errors import ProcessExited
from repro.isa.assembler import assemble
from repro.isa.opcodes import Op
from repro.machine.process import Process

#: Straight-line chain of unconditionally-jump-linked blocks, with a
#: dead block between the head and its target so the splice is
#: genuinely non-contiguous.
_JMP_CHAIN = """
.text
main:
 mov r0, 1
 jmp part2
dead:
 add r0, 64
 halt
part2:
 add r0, 2
 jmp part3
part3:
 add r0, 4
 halt
"""

_SINGLE_CALL = """
.text
main:
 mov r0, 3
 call helper
 add r0, 16
 halt
helper:
 add r0, 8
 ret
"""

_TWO_CALLERS = """
.text
main:
 call helper
 call helper
 halt
helper:
 add r0, 1
 ret
"""

_ADDRESS_TAKEN = """
.text
main:
 mov r7, helper
 call helper
 halt
helper:
 add r0, 1
 ret
"""


def _snap(process: Process) -> dict:
    cpu = process.cpu
    memory = process.memory
    return {
        "regs": list(cpu.regs), "pc": cpu.pc,
        "flags": (cpu.zf, cpu.sf, cpu.cf), "cycles": cpu.cycles,
        "ring": list(cpu.control_ring),
        "pages": {index: bytes(page)
                  for index, page in memory._pages.items()},
        "dirty": memory.dirty_page_indices(),
    }


def _run_tiers(source: str, seed: int = 9, max_steps: int = 1_000):
    """Run fused / plain / stepped to completion; return the fused
    process plus the three final snapshots (which must already agree —
    asserted here so every test gets the differential for free)."""
    image = assemble(source)
    fused = Process(image, seed=seed)
    plain = Process(image, seed=seed)
    plain.cpu.fusion_enabled = False
    stepped = Process(image, seed=seed)
    stepped.cpu.fusion_enabled = False
    assert fused.run(max_steps=max_steps).reason == "exit"
    assert plain.run(max_steps=max_steps).reason == "exit"
    try:
        while True:
            stepped.cpu.step()
    except ProcessExited:
        pass
    snaps = [_snap(p) for p in (fused, plain, stepped)]
    assert snaps[0] == snaps[1] == snaps[2]
    return fused, snaps[0]


def _extended_members(process: Process):
    """Members of the trace at ``main``, asserting it was extended."""
    main = process.symbols["main"]
    assert main in process.cpu._traces
    members = process.cpu._traces[main][3]
    noncontig = sum(
        1 for j in range(len(members) - 1)
        if members[j][0] + members[j][1].length != members[j + 1][0])
    assert noncontig >= 1, "trace was not CFG-extended"
    return members


def test_jmp_chain_fuses_into_one_superblock():
    fused, snap = _run_tiers(_JMP_CHAIN)
    members = _extended_members(fused)
    ops = [insn.op for _pc, insn in members]
    # mov; jmp -> part2's add; jmp -> part3's add: both jumps mid-trace.
    assert ops == [Op.MOVRI, Op.JMPI, Op.ADDRI, Op.JMPI, Op.ADDRI]
    assert snap["regs"][0] == 1 + 2 + 4
    # Mid-trace jumps still record their branch events.
    branches = [e for e in snap["ring"] if e.kind == "branch"]
    assert len(branches) == 2


def test_single_entry_call_target_is_inlined():
    fused, snap = _run_tiers(_SINGLE_CALL)
    members = _extended_members(fused)
    ops = [insn.op for _pc, insn in members]
    assert ops == [Op.MOVRI, Op.CALLI, Op.ADDRI, Op.RET]
    helper = fused.symbols["helper"]
    assert members[2][0] == helper
    assert snap["regs"][0] == 3 + 8 + 16
    kinds = [e.kind for e in snap["ring"]]
    assert kinds.count("call") == 1 and kinds.count("ret") == 1


def test_multi_caller_helper_is_not_inlined():
    fused, _snap_ = _run_tiers(_TWO_CALLERS)
    for _head, (_fn, _k, _end, members) in fused.cpu._traces.items():
        for j in range(len(members) - 1):
            pc, insn = members[j]
            assert pc + insn.length == members[j + 1][0], \
                "two-caller helper must not be spliced into a trace"
    assert _snap_["regs"][0] == 2


def test_address_taken_helper_is_not_inlined():
    fused, _snap_ = _run_tiers(_ADDRESS_TAKEN)
    helper = fused.symbols["helper"]
    for head, (_fn, _k, _end, members) in fused.cpu._traces.items():
        assert not any(pc == helper and head != helper
                       for pc, _insn in members), \
            "address-taken helper must not be spliced into a caller trace"


def test_patch_inside_spliced_region_resplits_trace():
    """A patch landing in the spliced-in block must drop the extended
    supercell; surviving members re-fuse along still-valid links and
    the next run executes the patched bytes."""
    process = Process(assemble(_JMP_CHAIN), seed=5)
    members = _extended_members(process)
    patch_pc = members[2][0]                     # part2's 'add r0, 2'
    assert process.cpu._decode_cache[patch_pc].op is Op.ADDRI
    process.memory.write_unchecked(patch_pc + 2,
                                   (0x20).to_bytes(4, "little"))
    assert all(patch_pc not in (pc for pc, _insn in trace[3])
               for trace in process.cpu._traces.values())
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 1 + 0x20 + 4


def test_budget_pause_inside_spliced_region_resumes_checked():
    """A step budget pausing inside the spliced-in portion of an
    extended trace must land on the exact next pc (in another block!)
    and resume through step() when a VSEF check is armed there."""
    process = Process(assemble(_JMP_CHAIN), seed=6)
    _extended_members(process)
    result = process.run(max_steps=3)           # mov, jmp, part2's add
    assert result.reason == "steps"
    part2 = process.symbols["part2"]
    jmp_part3 = part2 + 6                       # after 'add r0, 2'
    assert process.cpu.pc == jmp_part3
    hits = []
    process.cpu.arm([jmp_part3], lambda cpu, insn: hits.append(cpu.pc))
    assert process.run(max_steps=100).reason == "exit"
    assert process.cpu.regs[0] == 7
    assert hits == [jmp_part3]
