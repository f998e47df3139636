"""Unit tests for CPU semantics, faults and the VSEF fast path."""

import pytest

from repro.errors import AttackDetected, VMFault
from repro.isa.opcodes import FP, SP
from repro.machine.layout import ReferenceLayout
from tests.conftest import run_fragment


class TestDataMovement:
    def test_mov_immediate_and_register(self):
        process = run_fragment(" mov r0, 42\n mov r1, r0\n")
        assert process.cpu.regs[0] == 42
        assert process.cpu.regs[1] == 42

    def test_load_store_word(self):
        process = run_fragment(
            " mov r0, cell\n mov r1, 0x11223344\n st [r0], r1\n"
            " ld r2, [r0]\n", data="cell: .word 0")
        assert process.cpu.regs[2] == 0x11223344

    def test_load_store_byte(self):
        process = run_fragment(
            " mov r0, cell\n mov r1, 0x1FF\n stb [r0], r1\n"
            " ldb r2, [r0]\n", data="cell: .word 0")
        assert process.cpu.regs[2] == 0xFF     # truncated to a byte

    def test_displacement_addressing(self):
        process = run_fragment(
            " mov r0, arr\n ld r1, [r0+4]\n ld r2, [r0+8]\n",
            data="arr: .word 10, 20, 30")
        assert process.cpu.regs[1] == 20
        assert process.cpu.regs[2] == 30

    def test_negative_displacement(self):
        process = run_fragment(
            " mov r0, arr+8\n ld r1, [r0-8]\n", data="arr: .word 77, 0, 0")
        assert process.cpu.regs[1] == 77


class TestALU:
    cases = [
        ("add", 7, 3, 10), ("sub", 7, 3, 4), ("mul", 7, 3, 21),
        ("div", 7, 3, 2), ("mod", 7, 3, 1), ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110), ("xor", 0b1100, 0b1010, 0b0110),
        ("shl", 3, 4, 48), ("shr", 48, 4, 3),
    ]

    @pytest.mark.parametrize("op,a,b,expected", cases)
    def test_immediate_form(self, op, a, b, expected):
        process = run_fragment(f" mov r0, {a}\n {op} r0, {b}\n")
        assert process.cpu.regs[0] == expected

    @pytest.mark.parametrize("op,a,b,expected", cases)
    def test_register_form(self, op, a, b, expected):
        process = run_fragment(
            f" mov r0, {a}\n mov r1, {b}\n {op} r0, r1\n")
        assert process.cpu.regs[0] == expected

    def test_wraparound(self):
        process = run_fragment(" mov r0, 0xFFFFFFFF\n add r0, 2\n")
        assert process.cpu.regs[0] == 1

    def test_division_by_zero_faults(self):
        with pytest.raises(VMFault) as excinfo:
            run_fragment(" mov r0, 5\n mov r1, 0\n div r0, r1\n")
        assert excinfo.value.kind == "DIV_ZERO"

    def test_shift_amount_masked(self):
        process = run_fragment(" mov r0, 1\n shl r0, 33\n")
        assert process.cpu.regs[0] == 2        # 33 & 31 == 1


class TestBranches:
    @pytest.mark.parametrize("jcc,a,b,taken", [
        ("je", 5, 5, True), ("je", 5, 6, False),
        ("jne", 5, 6, True), ("jne", 5, 5, False),
        ("jl", 3, 5, True), ("jl", 5, 3, False), ("jl", 5, 5, False),
        ("jle", 5, 5, True), ("jg", 5, 3, True), ("jge", 5, 5, True),
        ("jb", 3, 5, True), ("jae", 5, 5, True),
    ])
    def test_conditions(self, jcc, a, b, taken):
        process = run_fragment(f"""
    mov r0, {a}
    mov r1, {b}
    mov r2, 0
    cmp r0, r1
    {jcc} hit
    jmp out
hit:
    mov r2, 1
out:
""")
        assert process.cpu.regs[2] == (1 if taken else 0)

    def test_signed_vs_unsigned_comparison(self):
        # -1 (0xFFFFFFFF) is less than 1 signed, greater unsigned.
        process = run_fragment("""
    mov r0, 0xFFFFFFFF
    mov r2, 0
    mov r3, 0
    cmp r0, 1
    jl signed_hit
    jmp check_unsigned
signed_hit:
    mov r2, 1
check_unsigned:
    cmp r0, 1
    jae unsigned_hit
    jmp out
unsigned_hit:
    mov r3, 1
out:
""")
        assert process.cpu.regs[2] == 1
        assert process.cpu.regs[3] == 1

    def test_indirect_jump(self):
        process = run_fragment("""
    mov r0, target
    jmp r0
    mov r1, 99
target:
    mov r2, 7
""")
        assert process.cpu.regs[1] == 0
        assert process.cpu.regs[2] == 7

    def test_loop(self):
        process = run_fragment("""
    mov r0, 0
    mov r1, 0
again:
    add r1, r0
    add r0, 1
    cmp r0, 10
    jne again
""")
        assert process.cpu.regs[1] == sum(range(10))


class TestCallsAndStack:
    def test_call_ret(self):
        process = run_fragment("""
    call fn
    jmp out
fn:
    mov r0, 11
    ret
out:
    mov r1, r0
""")
        assert process.cpu.regs[1] == 11

    def test_push_pop(self):
        process = run_fragment(
            " mov r0, 5\n push r0\n push 9\n pop r1\n pop r2\n")
        assert process.cpu.regs[1] == 9
        assert process.cpu.regs[2] == 5

    def test_stack_pointer_balance(self):
        process = run_fragment(" mov r4, sp\n call fn\n jmp o\nfn: ret\no:"
                               " mov r5, sp\n")
        assert process.cpu.regs[4] == process.cpu.regs[5]

    def test_frame_convention(self):
        process = run_fragment("""
    call fn
    jmp out
fn:
    push fp
    mov fp, sp
    sub sp, 16
    mov r0, fp
    sub r0, 8
    mov r1, 42
    st [r0], r1
    ld r2, [r0]
    mov sp, fp
    pop fp
    ret
out:
""")
        assert process.cpu.regs[2] == 42

    def test_nested_calls(self):
        process = run_fragment("""
    call outer
    jmp out
outer:
    push fp
    mov fp, sp
    call inner
    add r0, 1
    mov sp, fp
    pop fp
    ret
inner:
    mov r0, 40
    ret
out:
""")
        assert process.cpu.regs[0] == 41

    def test_control_ring_records_transfers(self):
        process = run_fragment(" call fn\n jmp out\nfn: ret\nout:\n")
        kinds = [event.kind for event in process.cpu.control_ring]
        assert "call" in kinds and "ret" in kinds

    def test_known_call_targets_tracked(self):
        process = run_fragment(" call fn\n jmp out\nfn: ret\nout:\n")
        assert process.symbols["fn"] in process.cpu.known_call_targets


class TestFaults:
    def test_segv_carries_pc_and_addr(self):
        with pytest.raises(VMFault) as excinfo:
            run_fragment(" mov r0, 0x700000\n ld r1, [r0]\n")
        fault = excinfo.value
        assert fault.kind == "SEGV"
        assert fault.addr == 0x700000
        assert fault.pc != -1

    def test_null_dereference(self):
        with pytest.raises(VMFault) as excinfo:
            run_fragment(" mov r0, 0\n ld r1, [r0]\n")
        assert excinfo.value.kind == "NULL_DEREF"

    def test_wild_jump_reports_source(self):
        with pytest.raises(VMFault) as excinfo:
            run_fragment(" mov r0, 0x600000\n jmp r0\n")
        fault = excinfo.value
        assert fault.kind == "BAD_PC"
        assert fault.pc == 0x600000
        assert fault.source_pc is not None

    def test_jump_into_zeroed_data_is_illegal_opcode(self):
        with pytest.raises(VMFault) as excinfo:
            run_fragment(" mov r0, blob\n jmp r0\n",
                         data="blob: .space 64")
        assert excinfo.value.kind == "ILLEGAL_OPCODE"

    def test_store_to_code_region_faults(self):
        with pytest.raises(VMFault) as excinfo:
            run_fragment(" mov r0, main\n mov r1, 1\n st [r0], r1\n")
        assert excinfo.value.kind == "PROT"


class TestShellcode:
    def test_injected_code_executes_from_writable_memory(self):
        """The von-Neumann property: bytes written to data memory run."""
        from repro.isa.encoding import encode
        from repro.isa.opcodes import Op

        shellcode = encode(Op.MOVRI, 5, 0x1337) + encode(Op.HALT)
        words = ", ".join(str(b) for b in shellcode)
        process = run_fragment(
            " mov r0, sc\n jmp r0\n",
            data=f"sc: .byte {words}")
        assert process.cpu.regs[5] == 0x1337

    def test_decode_cache_not_poisoned_by_writable_memory(self):
        """Code in writable memory must be re-decoded each visit."""
        from repro.isa.encoding import encode
        from repro.isa.opcodes import Op

        process = run_fragment(" mov r0, 1\n")
        data_base = process.layout.data_base
        assert all(addr not in process.cpu._decode_cache
                   for addr in range(data_base, data_base + 64))


class TestVSEFFastPath:
    def test_pre_check_runs_and_can_block(self):
        from repro.machine.process import load_program

        source = ".text\nmain:\n mov r0, 1\n mov r1, 2\n halt\n"
        process = load_program(source, layout=ReferenceLayout())
        second_insn = process.symbols["main"] + 6   # after 'mov r0, 1'

        def check(cpu, insn):
            raise AttackDetected("vsef-test", second_insn, "blocked")

        process.cpu.arm([second_insn], check)
        with pytest.raises(AttackDetected):
            process.run()
        assert process.cpu.regs[0] == 1      # first insn ran
        assert process.cpu.regs[1] == 0      # second was blocked

    def test_pre_check_non_blocking_observation(self):
        from repro.machine.process import load_program

        source = ".text\nmain:\n mov r0, 1\n halt\n"
        process = load_program(source, layout=ReferenceLayout())
        seen = []
        process.cpu.arm([process.symbols["main"]],
                        lambda cpu, insn: seen.append(insn.op.name))
        process.run()
        assert seen == ["MOVRI"]


class TestPredecodeInvalidation:
    def _bare_cpu(self):
        from repro.instrument.hooks import HookManager
        from repro.machine.cpu import CPU
        from repro.machine.memory import PagedMemory

        memory = PagedMemory()
        cpu = CPU(memory, HookManager())
        # A stack so push/call-free programs still have a valid SP.
        memory.map_region("stack", 0x90000, 4096)
        cpu.regs[SP] = 0x91000 - 16
        return memory, cpu

    def _load_code(self, memory, cpu, base, blob):
        memory.map_region("code", base, 4096, writable=False)
        memory.write_unchecked(base, blob)
        cpu.predecode(base, base + len(blob))

    def test_stale_decodings_dropped_on_unmap_and_remap(self):
        from repro.errors import ProcessExited
        from repro.isa.encoding import encode
        from repro.isa.opcodes import Op

        memory, cpu = self._bare_cpu()
        base = 0x40000
        self._load_code(memory, cpu, base,
                        encode(Op.MOVRI, 0, 111) + encode(Op.HALT))
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 111
        assert base in cpu._decode_cache

        memory.unmap_region("code")
        assert base not in cpu._decode_cache   # invalidated with the region

        self._load_code(memory, cpu, base,
                        encode(Op.MOVRI, 0, 222) + encode(Op.HALT))
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 222              # not the stale 111

    def test_readonly_patch_invalidates_affected_range(self):
        from repro.errors import ProcessExited
        from repro.isa.encoding import encode
        from repro.isa.opcodes import Op

        memory, cpu = self._bare_cpu()
        base = 0x40000
        self._load_code(memory, cpu, base,
                        encode(Op.MOVRI, 0, 111) + encode(Op.HALT))
        # Loader-style patch of the immediate inside the cached MOVRI.
        memory.write_unchecked(base + 2, (333).to_bytes(4, "little"))
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 333

    def test_invalidate_code_full_flush(self):
        from repro.isa.encoding import encode
        from repro.isa.opcodes import Op

        memory, cpu = self._bare_cpu()
        base = 0x40000
        self._load_code(memory, cpu, base,
                        encode(Op.MOVRI, 0, 1) + encode(Op.HALT))
        assert cpu._decode_cache
        cpu.invalidate_code()
        assert not cpu._decode_cache
        assert not cpu._cells

    def test_rollback_across_remap_drops_stale_cells(self):
        """Restoring a snapshot taken before an unmap/remap must not let
        cells compiled from the newer mapping keep executing."""
        from repro.errors import ProcessExited
        from repro.isa.encoding import encode
        from repro.isa.opcodes import Op

        memory, cpu = self._bare_cpu()
        base = 0x40000
        self._load_code(memory, cpu, base,
                        encode(Op.MOVRI, 0, 111) + encode(Op.HALT))
        snap = memory.snapshot()
        cpu_snap = cpu.snapshot_state()

        memory.unmap_region("code")
        memory.map_region("code", base, 4096, writable=False)
        memory.write_unchecked(base, encode(Op.MOVRI, 0, 222)
                               + encode(Op.HALT))
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 222

        memory.restore(snap)
        cpu.restore_state(cpu_snap)
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 111              # restored code, not stale 222

    def test_rollback_across_readonly_patch_drops_stale_cells(self):
        """Same-layout rollback: a loader patch to read-only code since
        the snapshot must be forgotten when the bytes rewind."""
        from repro.errors import ProcessExited
        from repro.isa.encoding import encode
        from repro.isa.opcodes import Op

        memory, cpu = self._bare_cpu()
        base = 0x40000
        self._load_code(memory, cpu, base,
                        encode(Op.MOVRI, 0, 111) + encode(Op.HALT))
        snap = memory.snapshot()
        cpu_snap = cpu.snapshot_state()

        memory.write_unchecked(base + 2, (222).to_bytes(4, "little"))
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 222

        memory.restore(snap)
        cpu.restore_state(cpu_snap)
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 111

    def test_rollback_to_older_checkpoint_drops_stale_cells(self):
        """The patch may have happened several checkpoints ago: rolling
        back to a snapshot older than the latest must still flush."""
        from repro.errors import ProcessExited
        from repro.isa.encoding import encode
        from repro.isa.opcodes import Op

        memory, cpu = self._bare_cpu()
        base = 0x40000
        self._load_code(memory, cpu, base,
                        encode(Op.MOVRI, 0, 111) + encode(Op.HALT))
        snap_old = memory.snapshot()
        cpu_old = cpu.snapshot_state()

        memory.write_unchecked(base + 2, (222).to_bytes(4, "little"))
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 222

        memory.snapshot()          # newer checkpoint clears the bitmap

        memory.restore(snap_old)   # roll back PAST the patch
        cpu.restore_state(cpu_old)
        cpu.pc = base
        with pytest.raises(ProcessExited):
            cpu.run()
        assert cpu.regs[0] == 111  # original bytes, not the stale cell
