"""Control-flow-graph recovery over guest binaries.

Two front ends share one graph builder:

- :func:`recover_image_cfg` works on an assembled
  :class:`~repro.isa.assembler.Image` in *offset space* (text offsets,
  before loading).  Branch/call immediates are resolved through the
  image's relocation records rather than raw operand bytes, so the graph
  is exact regardless of where the loader will place the sections, and
  native calls are recognized by name.  Disassembly is recursive
  descent: a worklist seeded at the entry point, every text symbol and
  every address-taken text location (text-targeted relocations — jump
  tables, ``mov r, label``) decodes instructions and follows static
  control transfers, so section padding and embedded data are never
  misdecoded the way a linear sweep can.

- :func:`cfg_from_stream` works on a CPU predecode stream (absolute
  addresses, relocations already patched into the immediates).  The
  fusion pipeline uses it to extend superblock traces through
  unconditional jumps and into single-entry call targets.

Blocks are maximal straight-line instruction runs: a *leader* (root,
branch/call target, post-call return address, or the fall-through of a
conditional branch) starts a block and the block runs to the next
leader or control transfer.  Successor edges cover fall-through, branch
targets (both arms of a conditional), and calls — a guest call edge
goes to the callee *and* to the return address, so reachability
naturally follows the interprocedural paths the antibody audit needs;
indirect transfers (``jmp r``, ``call r``, ``ret``) contribute no
static target edges.  Dominators are computed by the standard iterative
set-intersection dataflow; the graphs here are a few hundred blocks at
most.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.errors import EncodingError
from repro.isa.encoding import Insn, decode_bytes
from repro.isa.opcodes import COND_BRANCHES, OP_SIGNATURES, Op

#: Control transfers with a statically encoded target ("i" operand).
_STATIC_TRANSFERS = frozenset(COND_BRANCHES) | {Op.JMPI, Op.CALLI}

#: Instructions execution cannot fall through.
_NO_FALLTHROUGH = frozenset({Op.JMPI, Op.JMPR, Op.RET, Op.HALT})

#: Instructions that end a basic block.
_TERMINATORS = _NO_FALLTHROUGH | _STATIC_TRANSFERS | {Op.CALLR}


def imm_field_offset(op: Op) -> int | None:
    """Byte offset of the 32-bit immediate field within an encoding of
    ``op`` (opcode byte included), or None when the signature carries no
    immediate.  This is where the assembler's relocations point."""
    offset = 1
    for kind in OP_SIGNATURES[op]:
        if kind == "i":
            return offset
        offset += 1          # "r" and "b" operands are one byte each
    return None


@dataclass(frozen=True)
class BasicBlock:
    """One basic block: a maximal straight-line run of instructions."""

    start: int
    pcs: tuple[int, ...]              # member instruction addresses, sorted
    end: int                          # address just past the last insn

    @property
    def last(self) -> int:
        return self.pcs[-1]


@dataclass
class CFG:
    """A recovered control-flow graph.

    ``insns`` doubles as the instruction-boundary oracle: an address is
    a real instruction boundary iff it is a key.  ``succs``/``preds``
    are block-level edges keyed by block start.  ``imm_targets`` maps an
    instruction to the *semantic* target of its immediate operand as a
    ``(space, value)`` pair — ``("text", offset)``, ``("data", offset)``
    or ``("native", name)`` — resolved through relocations by the image
    front end (absent for raw streams, whose immediates are already
    absolute).
    """

    insns: dict[int, Insn]
    blocks: dict[int, BasicBlock]
    succs: dict[int, tuple[int, ...]]
    preds: dict[int, tuple[int, ...]]
    owner: dict[int, int]             # instruction pc -> its block start
    roots: tuple[int, ...]
    #: CALLI site pc -> static guest target (absent: native/unknown).
    call_sites: dict[int, int] = field(default_factory=dict)
    #: Call site pc -> native name (image front end only).
    native_calls: dict[int, str] = field(default_factory=dict)
    #: SYS site pc -> syscall number.
    syscalls: dict[int, int] = field(default_factory=dict)
    #: Code addresses whose value is materialized by a non-transfer
    #: instruction or a data word (function pointers, jump tables).
    address_taken: frozenset[int] = frozenset()
    #: Addresses control can statically reach that fail to decode,
    #: mapped to a short reason (asmlint's fall-through-into-data).
    undecodable: dict[int, str] = field(default_factory=dict)
    #: Instruction pc -> (space, value) for its immediate operand.
    imm_targets: dict[int, tuple[str, int | str]] = field(default_factory=dict)

    # -- queries -----------------------------------------------------------

    def boundary(self, pc: int) -> bool:
        """Is ``pc`` a recovered instruction boundary?"""
        return pc in self.insns

    def block_at(self, pc: int) -> BasicBlock | None:
        """The block containing the instruction at ``pc``."""
        start = self.owner.get(pc)
        return None if start is None else self.blocks[start]

    def reachable_from(self, starts) -> set[int]:
        """Block starts reachable from the given block starts (closed
        over successor edges, including call and return-address edges)."""
        seen: set[int] = set()
        work = [s for s in starts if s in self.blocks]
        while work:
            block = work.pop()
            if block in seen:
                continue
            seen.add(block)
            work.extend(s for s in self.succs.get(block, ())
                        if s not in seen)
        return seen

    def dominators(self, root: int) -> dict[int, frozenset[int]]:
        """Block start -> its dominator set, over blocks reachable from
        ``root``.  Iterative dataflow: dom(b) = {b} ∪ ⋂ dom(preds)."""
        reachable = self.reachable_from([root])
        if not reachable:
            return {}
        everything = frozenset(reachable)
        dom = {b: everything for b in reachable}
        dom[root] = frozenset([root])
        order = sorted(reachable)
        changed = True
        while changed:
            changed = False
            for block in order:
                if block == root:
                    continue
                preds = [p for p in self.preds.get(block, ())
                         if p in reachable]
                new = everything
                for pred in preds:
                    new = new & dom[pred]
                new = new | {block}
                if new != dom[block]:
                    dom[block] = new
                    changed = True
        return dom


# ---------------------------------------------------------------------------
# Graph construction (shared by both front ends)
# ---------------------------------------------------------------------------

def build_cfg(insns: dict[int, Insn], roots, target_of, **extra) -> CFG:
    """Partition decoded ``insns`` into basic blocks and wire the edges.

    ``target_of(pc, insn)`` resolves the static target of a control
    transfer with an immediate operand (or returns None when the target
    is not guest code).  ``extra`` passes through the optional CFG
    fields (``native_calls``, ``syscalls``, ``address_taken``,
    ``undecodable``, ``imm_targets``).
    """
    roots = tuple(sorted({r for r in roots if r in insns}))
    leaders: set[int] = set(roots)
    call_sites: dict[int, int] = {}
    for pc, insn in insns.items():
        op = insn.op
        if op in _STATIC_TRANSFERS:
            target = target_of(pc, insn)
            if target is not None and target in insns:
                leaders.add(target)
                if op is Op.CALLI:
                    call_sites[pc] = target
        if op is Op.CALLI or op is Op.CALLR or op in COND_BRANCHES:
            fall = pc + insn.length
            if fall in insns:
                leaders.add(fall)

    blocks: dict[int, BasicBlock] = {}
    owner: dict[int, int] = {}
    run: list[int] = []
    prev_end: int | None = None
    for pc in sorted(insns):
        insn = insns[pc]
        if run and (pc in leaders or pc != prev_end):
            _close_block(blocks, owner, run, insns)
            run = []
        run.append(pc)
        prev_end = pc + insn.length
        if insn.op in _TERMINATORS:
            _close_block(blocks, owner, run, insns)
            run = []
    _close_block(blocks, owner, run, insns)

    succs: dict[int, tuple[int, ...]] = {}
    preds: dict[int, list[int]] = {start: [] for start in blocks}
    for start, block in blocks.items():
        last = block.last
        insn = insns[last]
        op = insn.op
        out: list[int] = []
        target = target_of(last, insn) if op in _STATIC_TRANSFERS else None
        if target is not None and target in owner:
            out.append(owner[target])
        if op not in _NO_FALLTHROUGH:
            fall = last + insn.length
            if fall in owner:
                out.append(owner[fall])
        # De-duplicate while preserving order (self-loops included once).
        seen: set[int] = set()
        ordered = tuple(s for s in out if not (s in seen or seen.add(s)))
        succs[start] = ordered
        for s in ordered:
            preds[s].append(start)
    return CFG(insns=insns, blocks=blocks, succs=succs,
               preds={k: tuple(v) for k, v in preds.items()},
               owner=owner, roots=roots, call_sites=call_sites, **extra)


def _close_block(blocks, owner, run, insns):
    if not run:
        return
    start = run[0]
    last = run[-1]
    block = BasicBlock(start=start, pcs=tuple(run),
                       end=last + insns[last].length)
    blocks[start] = block
    for pc in run:
        owner[pc] = start


# ---------------------------------------------------------------------------
# Front end: CPU predecode streams (absolute addresses)
# ---------------------------------------------------------------------------

def _stream_target(pc: int, insn: Insn):
    return insn.operands[0]


def cfg_from_stream(stream: dict[int, Insn]) -> CFG:
    """A CFG over a predecoded instruction stream.

    Immediates were patched by the loader, so a transfer's operand *is*
    its absolute target; targets outside the stream (natives, other
    regions) simply contribute no edge.  Roots are the stream start plus
    every static transfer target, so every block control can enter at is
    a block start.  Address-taken detection covers immediates of
    non-transfer instructions (``mov r, label`` / ``push label``) that
    land on a stream instruction — the fusion policy treats those as
    extra entries when judging whether a call target is single-entry.
    """
    if not stream:
        return build_cfg({}, (), _stream_target)
    roots = {min(stream)}
    taken: set[int] = set()
    for pc, insn in stream.items():
        op = insn.op
        if op in _STATIC_TRANSFERS:
            target = insn.operands[0]
            if target in stream:
                roots.add(target)
        elif op is Op.CALLR or op is Op.CALLI:
            pass
        elif "i" in OP_SIGNATURES[op]:
            imm = insn.operands[OP_SIGNATURES[op].index("i")]
            if imm in stream:
                taken.add(imm)
        if op is Op.CALLI or op is Op.CALLR:
            fall = pc + insn.length
            if fall in stream:
                roots.add(fall)
    return build_cfg(stream, roots, _stream_target,
                     address_taken=frozenset(taken))


# ---------------------------------------------------------------------------
# Front end: assembled images (offset space, relocation-aware)
# ---------------------------------------------------------------------------

#: ``id(image)`` -> its recovered CFG, dropped when the image dies.
_IMAGE_CFGS: dict[int, CFG] = {}


def image_cfg(image) -> CFG:
    """:func:`recover_image_cfg` of ``image``, recovered once per image
    object (an assembled image is not modified afterwards).  The graph
    is shared: treat it as read-only."""
    key = id(image)
    cfg = _IMAGE_CFGS.get(key)
    if cfg is None:
        cfg = _IMAGE_CFGS[key] = recover_image_cfg(image)
        weakref.finalize(image, _IMAGE_CFGS.pop, key, None)
    return cfg


def recover_image_cfg(image) -> CFG:
    """Recursive-descent CFG recovery over ``image`` in offset space.

    Roots: the entry symbol, every text symbol and every address-taken
    text offset (the semantic target of any text-targeted relocation
    whose site is *not* a control transfer's immediate — data words
    holding code addresses, ``mov r, label``).  Control-transfer targets
    are resolved through the relocation attached to the instruction's
    immediate field, never through the raw operand bytes, so the graph
    is loader-independent.
    """
    text = image.text
    reloc_at = {r.offset: r for r in image.relocations
                if r.section == "text"}

    # First pass over relocations: semantic targets of text-targeted
    # relocations, used both as extra roots and (later, per decoded
    # instruction) to resolve transfer targets.
    text_symbol_offsets = {offset for section, offset in
                           image.symbols.values() if section == "text"}
    roots: set[int] = set(text_symbol_offsets)
    entry = image.symbols.get(image.entry)
    if entry is not None and entry[0] == "text":
        roots.add(entry[1])
    roots.update(int(r.value) + r.addend
                 for r in image.relocations if r.target == "text")

    insns: dict[int, Insn] = {}
    undecodable: dict[int, str] = {}
    imm_targets: dict[int, tuple[str, int | str]] = {}
    native_calls: dict[int, str] = {}
    syscalls: dict[int, int] = {}

    def resolve_imm(pc: int, insn: Insn):
        """(space, value) for the instruction's immediate, via relocs."""
        offset = imm_field_offset(insn.op)
        if offset is None:
            return None
        reloc = reloc_at.get(pc + offset)
        if reloc is None:
            return None
        if reloc.target == "native":
            return ("native", str(reloc.value))
        return (reloc.target, int(reloc.value) + reloc.addend)

    work = sorted(roots, reverse=True)
    while work:
        pc = work.pop()
        while 0 <= pc < len(text) and pc not in insns:
            try:
                insn = decode_bytes(text, pc)
            except EncodingError as err:
                undecodable[pc] = str(err)
                break
            insns[pc] = insn
            resolved = resolve_imm(pc, insn)
            if resolved is not None:
                imm_targets[pc] = resolved
            op = insn.op
            if op is Op.SYS:
                syscalls[pc] = insn.operands[0]
            if op in _STATIC_TRANSFERS:
                if resolved is not None and resolved[0] == "text":
                    work.append(resolved[1])
                elif resolved is not None and resolved[0] == "native" \
                        and op is Op.CALLI:
                    native_calls[pc] = resolved[1]
            if op in _NO_FALLTHROUGH:
                break
            pc += insn.length

    # Address-taken: text targets materialized outside transfer
    # immediates (decoded or not — a data word pointing at code counts).
    transfer_imm_sites = set()
    for pc, insn in insns.items():
        if insn.op in _STATIC_TRANSFERS:
            offset = imm_field_offset(insn.op)
            if offset is not None:
                transfer_imm_sites.add(pc + offset)
    taken = set()
    for r in image.relocations:
        if r.target != "text":
            continue
        target = int(r.value) + r.addend
        if r.section != "text" or r.offset not in transfer_imm_sites:
            taken.add(target)

    def target_of(pc: int, insn: Insn):
        resolved = imm_targets.get(pc)
        if resolved is not None and resolved[0] == "text":
            return resolved[1]
        return None

    roots.update(taken)
    return build_cfg(insns, roots, target_of,
                     native_calls=native_calls, syscalls=syscalls,
                     address_taken=frozenset(taken),
                     undecodable=undecodable, imm_targets=imm_targets)
