"""Hook manager and tool base class.

Callback surface (mirroring PIN's instrumentation points):

- ``on_ins(pc, insn, cpu)`` — before each decoded instruction executes.
- ``on_mem_read(pc, addr, size)`` / ``on_mem_write(pc, addr, size, data)``
  — every data access, from regular instructions *and* native libc code.
- ``on_mem_copy(pc, dst, src, size)`` — a byte-preserving move performed
  by a native (strcpy/memcpy/...).  Taint tools propagate labels through
  it; memory-bug tools treat it as a write to ``dst``.
- ``on_call(pc, target, return_addr)`` / ``on_ret(pc, target, sp)`` —
  control transfers that create/destroy frames.
- ``on_branch(pc, target, taken)`` — conditional and indirect jumps.
- ``on_reg_write(pc, reg, value)`` — register updates (slicing needs it).
- ``on_malloc(pc, payload, size)`` / ``on_free(pc, payload)`` — allocator
  events (the allocator's own metadata writes are invisible, matching the
  paper's "not by malloc() or free()" red-zone rule).
- ``on_native(pc, name, args)`` — a native library routine is entered.
- ``on_syscall(pc, number, args, result)`` — after each syscall.

All ``pc`` values are absolute guest addresses; for natives they are the
native's library address, so crash/blame attribution points into "libc"
exactly as the paper's Table 2 does.

The events fall in two groups:

- **tier events** (``ins``, ``mem_read``, ``mem_write``, ``reg_write``,
  ``branch``, ``call``, ``ret``) come from every executed instruction.
  Only the fully instrumented loop emits them for all code, so a
  listener on any of them sets ``active`` and selects that loop;
- **boundary events** (``syscall``, ``native``, ``malloc``, ``free``,
  ``mem_copy``) come only from natives and syscalls, which always run
  on the general path.  Their listeners keep the sink live without
  forcing the instrumented loop, so a filter that only needs them (the
  taint VSEF's receive seeding and copy propagation) costs nothing on
  the fused and plain tiers.
"""

from __future__ import annotations


class Tool:
    """Base class for analysis tools; override the callbacks you need."""

    name = "tool"

    #: Virtual-time slowdown factor this tool imposes while attached, used
    #: by the timing model (the paper quotes 20x-100x for memory bug
    #: detection/taint and 100x-1000x for slicing).
    overhead_factor = 1.0

    def on_attach(self, process) -> None:  # noqa: D102
        pass

    def on_detach(self, process) -> None:  # noqa: D102
        pass

    def on_ins(self, pc, insn, cpu) -> None:  # noqa: D102
        pass

    def on_mem_read(self, pc, addr, size) -> None:  # noqa: D102
        pass

    def on_mem_write(self, pc, addr, size, data) -> None:  # noqa: D102
        pass

    def on_mem_copy(self, pc, dst, src, size) -> None:  # noqa: D102
        pass

    def on_call(self, pc, target, return_addr) -> None:  # noqa: D102
        pass

    def on_ret(self, pc, target, sp) -> None:  # noqa: D102
        pass

    def on_branch(self, pc, target, taken) -> None:  # noqa: D102
        pass

    def on_reg_write(self, pc, reg, value) -> None:  # noqa: D102
        pass

    def on_malloc(self, pc, payload, size) -> None:  # noqa: D102
        pass

    def on_free(self, pc, payload) -> None:  # noqa: D102
        pass

    def on_native(self, pc, name, args) -> None:  # noqa: D102
        pass

    def on_syscall(self, pc, number, args, result) -> None:  # noqa: D102
        pass


TIER_EVENTS = ("ins", "mem_read", "mem_write", "reg_write", "branch",
               "call", "ret")
BOUNDARY_EVENTS = ("syscall", "native", "malloc", "free", "mem_copy")
_EVENTS = TIER_EVENTS + BOUNDARY_EVENTS


class NullSink:
    """The do-nothing event bus: every dispatcher is a no-op.

    The machine layer never tests ``hooks.active`` on its emit paths any
    more; it calls ``hooks.sink.<event>(...)`` unconditionally, and while
    no tool is attached that sink is this shared singleton.  The batched
    execution loop goes one step further and selects a *plain* inner loop
    (whose handlers contain no hook calls at all) once per run, so the
    uninstrumented per-instruction cost of the event bus is zero.
    """

    active = False

    def ins(self, pc, insn, cpu):
        pass

    def mem_read(self, pc, addr, size):
        pass

    def mem_write(self, pc, addr, size, data):
        pass

    def mem_copy(self, pc, dst, src, size):
        pass

    def call(self, pc, target, return_addr):
        pass

    def ret(self, pc, target, sp):
        pass

    def branch(self, pc, target, taken):
        pass

    def reg_write(self, pc, reg, value):
        pass

    def malloc(self, pc, payload, size):
        pass

    def free(self, pc, payload):
        pass

    def native(self, pc, name, args):
        pass

    def syscall(self, pc, number, args, result):
        pass


NULL_SINK = NullSink()


class HookManager:
    """Dispatches CPU events to attached tools.

    Keeps one pre-computed callback list per event so an attached tool
    that only hooks a few events stays cheap (an event with a sole
    listener dispatches straight to it), and exposes ``sink`` — the
    manager itself while any listener is live, the shared
    :data:`NULL_SINK` otherwise — so emitters need no ``active`` branch.
    ``active`` is true while any *tier* event has a listener.  Besides
    tools, bare callbacks can listen to *boundary* events
    (:meth:`listen`); they run before the tools' callbacks.
    """

    def __init__(self):
        self.tools: list[Tool] = []
        self._listeners: dict[str, list] = {name: [] for name in _EVENTS}
        #: Bare boundary-event callbacks: event -> callbacks.
        self._bare: dict[str, list] = {name: [] for name in BOUNDARY_EVENTS}
        self.active = False
        #: The tier events some listener hears.
        self.heard: frozenset[str] = frozenset()
        #: Bumped whenever the listener set changes, so code compiled
        #: against :attr:`heard` (the CPU's instrumented cells) can tell
        #: it is stale.
        self.version = 0
        #: Where the machine layer sends events: ``self`` when any tool
        #: listens, the shared null object when none does.
        self.sink: "HookManager | NullSink" = NULL_SINK

    def attach(self, tool: Tool, process=None):
        """Attach ``tool``; may happen mid-execution (PIN attach)."""
        self.tools.append(tool)
        self._rebuild()
        tool.on_attach(process)

    def detach(self, tool: Tool, process=None):
        self.tools.remove(tool)
        self._rebuild()
        tool.on_detach(process)

    def detach_all(self, process=None):
        for tool in list(self.tools):
            self.detach(tool, process)

    def listen(self, event: str, fn):
        """Add ``fn`` as a listener on boundary event ``event``."""
        self._bare[event].append(fn)
        self._rebuild()

    def unlisten(self, event: str, fn):
        self._bare[event].remove(fn)
        self._rebuild()

    def _rebuild(self):
        base = Tool
        for event in _EVENTS:
            method = f"on_{event}"
            fns = self._bare.get(event, []) + [
                getattr(tool, method) for tool in self.tools
                if getattr(type(tool), method) is not getattr(base, method)]
            self._listeners[event] = fns
            # Dispatch straight to a sole listener (or to the null sink's
            # no-op): an instance attribute shadows the looping method.
            if len(fns) == 1:
                self.__dict__[event] = fns[0]
            elif not fns:
                self.__dict__[event] = getattr(NULL_SINK, event)
            else:
                self.__dict__.pop(event, None)
        self.heard = frozenset(event for event in TIER_EVENTS
                               if self._listeners[event])
        self.active = bool(self.heard)
        self.version += 1
        live = any(self._listeners[event] for event in _EVENTS)
        self.sink = self if live else NULL_SINK

    def listeners(self, event: str) -> list:
        """The callbacks attached to ``event``, for an emitter that fires
        many events in a row (a native moving a string byte by byte)
        and binds them once instead of dispatching through the sink."""
        return self._listeners[event]

    def overhead_factor(self) -> float:
        """Combined virtual-time slowdown of the attached tools."""
        factor = 1.0
        for tool in self.tools:
            factor *= max(tool.overhead_factor, 1.0)
        return factor

    # -- dispatchers (one per event, kept branch-free and minimal; an
    # event with one listener or none never reaches these) ---------------

    def ins(self, pc, insn, cpu):
        for fn in self._listeners["ins"]:
            fn(pc, insn, cpu)

    def mem_read(self, pc, addr, size):
        for fn in self._listeners["mem_read"]:
            fn(pc, addr, size)

    def mem_write(self, pc, addr, size, data):
        for fn in self._listeners["mem_write"]:
            fn(pc, addr, size, data)

    def mem_copy(self, pc, dst, src, size):
        for fn in self._listeners["mem_copy"]:
            fn(pc, dst, src, size)

    def call(self, pc, target, return_addr):
        for fn in self._listeners["call"]:
            fn(pc, target, return_addr)

    def ret(self, pc, target, sp):
        for fn in self._listeners["ret"]:
            fn(pc, target, sp)

    def branch(self, pc, target, taken):
        for fn in self._listeners["branch"]:
            fn(pc, target, taken)

    def reg_write(self, pc, reg, value):
        for fn in self._listeners["reg_write"]:
            fn(pc, reg, value)

    def malloc(self, pc, payload, size):
        for fn in self._listeners["malloc"]:
            fn(pc, payload, size)

    def free(self, pc, payload):
        for fn in self._listeners["free"]:
            fn(pc, payload)

    def native(self, pc, name, args):
        for fn in self._listeners["native"]:
            fn(pc, name, args)

    def syscall(self, pc, number, args, result):
        for fn in self._listeners["syscall"]:
            fn(pc, number, args, result)
