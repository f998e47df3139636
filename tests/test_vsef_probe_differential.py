"""Differential suite: pc-scoped VSEF probes against hook-tool enforcement.

``ret_guard`` and ``taint_subset`` are enforced in ``repro.antibody.vsef``
as pc-scoped probes and control probes, which leave a protected process
on the fused and plain execution tiers.  The hook tools they replaced
are kept in ``tests/vsef_reference.py`` as the oracle; they listen to
every instruction and keep the process on the instrumented tier.

For each app, producers attacked with the app's exploit publish antibody
bundles; consumer nodes then install those bundles (through the
verified ``apply_bundle`` path; as bare VSEFs with no signature filter,
so every variant reaches the VSEFs; and through ``apply_bundle`` on a
node that samples every third request with a taint tracker attached, so
probes also run on the instrumented tier) under the oracle and under
the probes, and serve the same seeded mix of benign requests and exploit
variants.  Every response, every detection (kind, ``vsef_id``, blame pc,
virtual time), ``cpu.cycles`` at each detection and at each request end,
the ret guards' side stacks and the taint subsets' shadow sets must be
identical.  The httpd schedule replays the stale-side-stack sequence: a
blocked Apache1 variant, more requests, then a later variant.

Targeted tests pin the ordering rules the probes keep: at one pc,
ordinary checks run before ``ins``-stage probes, which run before the
call/ret probes; a ret detection carries the cycle its ``RET`` was
charged; a call is observed only once its push succeeded; and calls and
returns executed from writable memory are still observed.  A last
group guards against silent degradation: installed bundles must leave a
node on the fast tiers, with no probed pc inside a supercell whatever
rebuilt the dispatch tables.

Seeds come from ``VSEF_DIFF_SEED`` (comma-separated); CI runs the suite
under two seeds.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

import pytest

from repro.antibody import vsef as vsef_module
from repro.antibody.distribution import CommunityBus
from repro.antibody.verify import SandboxVerifier
from repro.antibody.vsef import VSEF, install_vsef, loc_for_address
from repro.apps.exploits import EXPLOITS, ExploitStream
from repro.apps.workload import TrafficStream
from repro.errors import AttackDetected, VMFault
from repro.instrument.hooks import Tool
from repro.isa.assembler import assemble
from repro.isa.encoding import encode
from repro.isa.opcodes import SP, Op
from repro.machine.cpu import STAGE_CHECK, STAGE_INS
from repro.machine.layout import ReferenceLayout
from repro.machine.process import Process
from repro.runtime.golden import GoldenImageCache
from repro.runtime.sweeper import Sweeper, SweeperConfig
from tests.vsef_reference import reference_installers

SEEDS = [int(s) for s in os.environ.get("VSEF_DIFF_SEED", "101").split(",")]

EXPLOIT_OF = {"httpd": "Apache1", "squidp": "Squid", "cvsd": "CVS"}
#: Benign requests per node, and exploit variants mixed among them.
REQUESTS = 40
VARIANTS = 4


@contextmanager
def _enforcement(mode: str):
    """Install ``ret_guard``/``taint_subset`` through the hook-tool
    oracle (``"reference"``) or the probes (``"probes"``)."""
    table = vsef_module._INSTALLERS
    saved = dict(table)
    if mode == "reference":
        table.update(reference_installers())
    try:
        yield
    finally:
        table.clear()
        table.update(saved)


def _bundles(app: str, rng: random.Random) -> list:
    """Attack one producer of ``app``; return its published bundles."""
    image = EXPLOITS[EXPLOIT_OF[app]].build_image()
    bus = CommunityBus()
    producer = Sweeper(image, app_name=app,
                       config=SweeperConfig(seed=rng.randrange(1 << 20)),
                       bus=bus)
    for request in TrafficStream(app, seed=rng.randrange(1 << 30)).take(3):
        producer.submit(request)
    producer.submit(EXPLOITS[EXPLOIT_OF[app]].payload())
    assert bus.published, f"{app} producer published nothing"
    return list(bus.published)


def _schedule(app: str, rng: random.Random) -> list:
    """Benign requests with variants at seeded slots.  httpd's starts
    with the stale-side-stack sequence: a variant, benign requests, and
    a second variant."""
    benign = TrafficStream(app, seed=rng.randrange(1 << 30))
    variants = ExploitStream(EXPLOIT_OF[app], seed=rng.randrange(1 << 30))
    items = [("benign", benign.next_request()) for _ in range(REQUESTS)]
    for _ in range(VARIANTS):
        items.insert(rng.randrange(len(items) + 1),
                     ("variant", variants.next_payload()))
    if app == "httpd":
        items[:0] = [("variant", variants.next_payload()),
                     *[("benign", benign.next_request()) for _ in range(3)],
                     ("variant", variants.next_payload())]
    return items


def _filter_state(node: Sweeper) -> list:
    """The ret guards' side stacks and the taint subsets' shadow sets."""
    out = []
    for installed in node._installed:
        state = installed.state
        if installed.vsef.kind == "ret_guard":
            out.append(("ret_guard", list(state.side_stack)))
        elif installed.vsef.kind == "taint_subset":
            out.append(("taint_subset", sorted(state.shadow_mem),
                        sorted(state.shadow_reg)))
    return out


def _serve(app: str, mode: str, bundles: list, node_seed: int,
           schedule: list, install: str) -> list:
    """One consumer node under ``mode``, its bundles installed as
    ``install`` says: its observations per request."""
    with _enforcement(mode):
        node = Sweeper(EXPLOITS[EXPLOIT_OF[app]].build_image(),
                       app_name=app,
                       config=SweeperConfig(
                           seed=node_seed,
                           sample_every=3 if install == "sampled" else 0))
        blocks: list = []
        handle = node._handle_vsef_block

        def record(blocked: AttackDetected):
            blocks.append((blocked.vsef_id, blocked.pc,
                           node.process.cpu.cycles, node.clock))
            handle(blocked)

        node._handle_vsef_block = record
        if install == "bare":
            node.apply_foreign_vsefs(
                [v for bundle in bundles for v in bundle.vsefs])
            outcomes = []
        else:
            verifier = SandboxVerifier()
            outcomes = [(o.verified, o.detail) for o in
                        (node.apply_bundle(b, verifier=verifier)
                         for b in bundles)]
        observed = [("install", outcomes, _filter_state(node))]
        for kind, data in schedule:
            before_detections = len(node.detections)
            before_blocks = len(blocks)
            responses = node.submit(data)
            detections = [(d.kind, d.vsef_id, d.virtual_time, d.msg_id,
                           d.suspicion)
                          for d in node.detections[before_detections:]]
            observed.append((kind, responses, detections,
                             blocks[before_blocks:], node.process.cpu.cycles,
                             _filter_state(node)))
        return observed


@pytest.fixture(scope="module", params=SEEDS)
def produced(request):
    rng = random.Random(request.param)
    return request.param, {app: _bundles(app, rng) for app in EXPLOIT_OF}


@pytest.mark.parametrize("app", sorted(EXPLOIT_OF))
@pytest.mark.parametrize("install", ["bundle", "bare", "sampled"])
def test_probes_match_hook_tools(produced, app, install):
    seed, bundles = produced
    rng = random.Random(f"{seed}:{app}:{install}")
    node_seed = rng.randrange(1 << 20)
    schedule = _schedule(app, rng)
    reference = _serve(app, "reference", bundles[app], node_seed, schedule,
                       install)
    probes = _serve(app, "probes", bundles[app], node_seed, schedule,
                    install)
    assert len(probes) == len(reference)
    for index, (want, got) in enumerate(zip(reference, probes)):
        assert got == want, f"seed={seed} {app} item {index} diverged"
    kinds = {d[0] for item in probes[1:] for d in item[2]}
    assert kinds, f"{app}: no variant was ever detected"
    if install == "bare":
        # With no signature filter every variant reaches the VSEFs.
        assert any(item[3] for item in probes[1:]), \
            f"{app}: no VSEF ever fired"


# ---------------------------------------------------------------------------
# Ordering rules
# ---------------------------------------------------------------------------

GUARDED = """
.text
main:
    call r1
    halt
victim:
    ret
"""

STACK_VICTIM = """
.text
main:
loop:
    mov r0, buf
    mov r1, 256
    sys recv
    cmp r0, 0
    je loop
    call victim
    jmp loop
victim:
    push fp
    mov fp, sp
    sub sp, 8
    mov r1, buf
    mov r2, fp
    sub r2, 8
copy:
    ldb r3, [r1]
    cmp r3, 0
    je done
    stb [r2], r3
    add r1, 1
    add r2, 1
    jmp copy
done:
    mov sp, fp
    pop fp
leave:
    ret
.data
buf: .space 300
"""


def _ret_guard(process, function: str = "victim") -> VSEF:
    entry = loc_for_address(process, process.symbols[function])
    return VSEF(kind="ret_guard", params={"entry": entry,
                                          "function": function},
                vsef_id="vsef-guard")


def _both(source: str, body, seed: int = 3):
    """Run ``body(process)`` under the oracle and under the probes on
    identical processes; return both results."""
    results = []
    for mode in ("reference", "probes"):
        with _enforcement(mode):
            process = Process(assemble(source), seed=seed,
                              layout=ReferenceLayout())
            results.append(body(process))
    return results


def _blocked(process, run) -> tuple:
    try:
        run()
    except AttackDetected as blocked:
        return ("blocked", blocked.vsef_id, blocked.pc, process.cpu.cycles)
    except VMFault as fault:
        return ("fault", fault.kind, fault.pc, process.cpu.cycles)
    return ("ran", process.cpu.pc, process.cpu.cycles)


class _Order(Tool):
    def __init__(self, log):
        self.log = log

    def on_ins(self, pc, insn, cpu):
        self.log.append(("ins", pc))


def test_probe_stages_run_in_hook_order():
    """At one RET, on the fast tiers and on the instrumented one: a check
    armed *after* an ``ins``-stage probe still runs first, then the
    ``ins`` probe, then any hook-bus ``ins`` listener, and only then,
    from the executed return, the ret probe."""
    process = Process(assemble(GUARDED), seed=3, layout=ReferenceLayout())
    main, victim = process.symbols["main"], process.symbols["victim"]
    process.cpu.regs[1] = victim
    log = []
    process.cpu.arm([victim], lambda cpu, insn: log.append(("probe", 1)),
                    STAGE_INS)
    process.cpu.arm([victim], lambda cpu, insn: log.append(("check", 0)),
                    STAGE_CHECK)
    process.cpu.watch([main, victim], lambda *a: log.append(("call",)),
                      lambda *a: log.append(("ret",)))
    process.run(max_steps=2)                      # call r1; ret
    assert log == [("call",), ("check", 0), ("probe", 1), ("ret",)]
    log.clear()
    process.cpu.pc = main
    process.hooks.attach(_Order(log), process)
    process.run(max_steps=2)
    assert log == [("ins", main), ("call",), ("check", 0), ("probe", 1),
                   ("ins", victim), ("ret",)]


def test_ret_detection_carries_the_ret_cycle():
    """The hook tool's ``on_ret`` fired after the RET was charged its
    cycle; a probe detection is charged the same."""
    def body(process):
        install_vsef(_ret_guard(process), process)
        process.run(max_steps=100_000)
        process.feed(b"D" * 32)
        return _blocked(process, process.run)

    reference, probes = _both(STACK_VICTIM, body)
    assert reference == probes
    # Unguarded, the same request reaches the RET at this cycle count.
    plain = Process(assemble(STACK_VICTIM), seed=3, layout=ReferenceLayout())
    plain.run(max_steps=100_000)
    plain.feed(b"D" * 32)
    leave = plain.symbols["leave"]
    while plain.cpu.pc != leave:
        plain.cpu.step()
    assert probes == ("blocked", probes[1], leave, plain.cpu.cycles + 1)


def test_call_observed_only_after_its_push_succeeds():
    """A CALL whose push faults (SP in read-only code) must not push the
    side stack, exactly as the hook event never fired."""
    def body(process):
        installed = install_vsef(_ret_guard(process), process)
        process.cpu.regs[1] = process.symbols["victim"]
        process.cpu.regs[SP] = process.symbols["main"] + 4
        outcome = _blocked(process, lambda: process.run(max_steps=10))
        return outcome, list(installed.state.side_stack)

    reference, probes = _both(GUARDED, body)
    assert reference == probes
    assert probes[0][0] == "fault" and probes[1] == []


def test_calls_and_rets_in_writable_memory_are_observed():
    """Code in writable memory runs through step(), never through a
    probed site: a call to the guarded entry from writable memory and
    the guarded frame's return from writable memory must still reach
    the guard, which blocks the smashed return."""
    source = """
.text
main:
    call r1
    halt
victim:
    mov r2, 0x1234
    stw [sp], r2
    jmp r3
.data
pad: .space 64
"""

    def body(process):
        install_vsef(_ret_guard(process), process)
        tramp = process.layout.data_base
        process.memory.write(tramp, encode(Op.CALLI,
                                           process.symbols["victim"])
                             + encode(Op.HALT))
        process.memory.write(tramp + 32, encode(Op.RET))
        process.cpu.regs[1] = tramp
        process.cpu.regs[3] = tramp + 32
        return _blocked(process, lambda: process.run(max_steps=100))

    reference, probes = _both(source, body)
    assert reference == probes
    assert probes[0] == "blocked"


# ---------------------------------------------------------------------------
# Silent degradation: installed antibodies must keep the fast tiers
# ---------------------------------------------------------------------------

def _assert_probes_outside_supercells(cpu):
    """No probed pc sits in a supercell or in a fast dispatch table."""
    probed = set(cpu.pre_checks) | set(cpu._watched)
    assert probed
    for head, (_fn, _k, _end, members) in cpu._traces.items():
        inside = probed.intersection(pc for pc, _insn in members)
        assert not inside, f"trace {head:#x} holds probed {sorted(inside)}"
    assert not probed & cpu._hot.keys()
    assert not probed & cpu._plain.keys()


def _no_instrumented_run(*args):
    raise AssertionError("a protected node ran the instrumented loop")


@pytest.mark.parametrize("app", sorted(EXPLOIT_OF))
def test_installed_bundles_keep_fast_tiers(produced, app):
    """After an app's bundles install through ``apply_bundle``: no tool
    listens to tier events, no hook tool exists, squidp and cvsd still
    run supercells, benign requests never reach the instrumented loop,
    and no path that rebuilds the dispatch tables — lazy decode,
    predecode, invalidation, the re-predecode of a rollback across a
    code change, and a golden fork's decode adoption — puts a probed
    pc back inside a supercell."""
    seed, bundles = produced
    image = EXPLOITS[EXPLOIT_OF[app]].build_image()
    cache = GoldenImageCache()
    config = SweeperConfig(seed=seed)
    Sweeper(image, app_name=app, config=config, golden=cache)
    node = Sweeper(image, app_name=app, config=config, golden=cache)
    assert node.booted_from_golden
    verifier = SandboxVerifier()
    for bundle in bundles[app]:
        assert not node.apply_bundle(bundle, verifier=verifier).rejected
    kinds = {v.kind for v in node.antibodies}
    process, cpu = node.process, node.process.cpu
    assert not process.hooks.active
    assert not process.hooks.tools
    if "ret_guard" in kinds:
        assert cpu._watched and cpu.ret_probes
    if app != "httpd":
        assert cpu.fused_trace_count > 0
    _assert_probes_outside_supercells(cpu)

    cpu._run_instrumented = _no_instrumented_run
    for request in TrafficStream(app, seed=seed).take(3):
        assert node.submit(request)
    _assert_probes_outside_supercells(cpu)            # lazy decodes

    base = process.layout.code_base
    text = (base, base + len(image.text))
    traces = cpu.fused_trace_count
    cpu.predecode(*text)
    _assert_probes_outside_supercells(cpu)
    assert cpu.fused_trace_count == traces

    if cpu._runs:
        run = max(cpu._runs.values(), key=len)
        pc, insn = run[len(run) // 2]
        cpu.invalidate_code(pc, pc + insn.length)
        _assert_probes_outside_supercells(cpu)

    snap = process.snapshot_full()
    process.memory.write_unchecked(base, process.memory.read(base, 1))
    assert process.memory.code_epoch != snap.memory.code_epoch
    process.restore_full(snap)
    _assert_probes_outside_supercells(cpu)
    assert cpu.fused_trace_count == traces

    golden = next(iter(cache._images.values()))
    golden.fork_into(process)
    _assert_probes_outside_supercells(cpu)
