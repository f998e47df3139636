"""The benchmark's four workloads: serve, protected, attack and outbreak.

Every workload is driven by one closed-loop client in this process: the
next operation starts only after the previous one returned.  A workload
builds its inputs from the workload seed alone, runs a fixed number of
whole cycles of operations, and checks its outputs after the timed
phase.

- ``serve``: sets of three nodes (httpd, squidp, cvsd) at
  ``SweeperConfig`` defaults serve a seeded benign mix; the guest,
  checkpointing and the proxy do the work.
- ``protected``: the same nodes after each installed its app's antibody
  bundles through the verified consumer path, plus one polymorphic
  exploit variant per 100 requests, which the antibodies must block.
- ``attack``: each operation is one polymorphic exploit against a fresh
  node of its app — detection, analysis, antibody and recovery.
- ``outbreak``: the 512-node executed fleet, in-process.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field

from repro.antibody.distribution import CommunityBus
from repro.antibody.verify import SandboxVerifier
from repro.apps.cvsd import build_cvsd
from repro.apps.exploits import EXPLOITS, ExploitStream
from repro.apps.httpd import build_httpd
from repro.apps.squidp import build_squidp
from repro.apps.workload import TrafficStream
from repro.machine.process import Process
from repro.runtime.sweeper import Sweeper, SweeperConfig, boot_layout
from repro.worm.fleet import FleetConfig, NodeHost, build_roster, run_fleet

APPS = ("httpd", "squidp", "cvsd")
BUILDERS = {"httpd": build_httpd, "squidp": build_squidp, "cvsd": build_cvsd}

#: Modeled service work after each request: 150 ms of virtual time, so
#: a checkpoint (200 ms interval) fires about every 1.3 requests, as on
#: the paper's saturated server.
WORK_CYCLES = 300_000
#: Benign requests each node serves before timing starts.
WARMUP_REQUESTS = 20
#: One exploit variant per this many requests in ``protected``.
VARIANT_EVERY = 100
#: The exploit each protected app's producer is attacked with, and that
#: its traffic's variants come from.
PROTECTED_EXPLOITS = {"httpd": "Apache1", "squidp": "Squid", "cvsd": "CVS"}
#: Benign requests a producer or an ``attack`` node serves before its
#: exploit, so a checkpoint precedes the attack.
PRE_ATTACK_REQUESTS = 3
ATTACK_EXPLOITS = ("Apache1", "Apache2", "CVS", "Squid")
#: Detection kinds that mean an antibody stopped a variant.
BLOCK_KINDS = {"vsef", "filter"}
#: Budget for one plain reference process run.
_STEP_BUDGET = 50_000_000


def outbreak_config() -> FleetConfig:
    """The 512-node fleet the ROADMAP measured: seed 7, 32 producers,
    beta 0.6, benign 0.8/s per node, 60 s horizon, in-process."""
    return FleetConfig(seed=7, vulnerable_nodes=512, producers=32,
                       extra_apps=(), beta=0.6, benign_rate=0.8,
                       gamma2=3.0, horizon=60.0, post_immunity_slack=4.0,
                       workers=0)


#: FleetResult fields that hold host measurements; every other field of
#: ``FleetResult.to_dict()`` is the seed-deterministic trajectory.
FLEET_HOST_FIELDS = ("wall_seconds", "aggregate_insns_per_second",
                     "memory", "workers")


@dataclass
class Op:
    """One completed operation and what the checks need from it."""

    app: str
    kind: str                      # benign | variant | exploit | fleet
    data: object
    #: Wall start (``time.perf_counter``) and seconds of the operation.
    start: float
    seconds: float
    #: What the traced run must reproduce exactly.
    output: object = None
    #: Latency samples that count toward p50/p99 (per-event for fleets),
    #: as (wall start, seconds).
    samples: list[tuple[float, float]] = field(default_factory=list)
    #: Operations this record stands for (fleet events for a fleet run)
    #: and how many of them failed their check, with the first reason.
    attempted: int = 1
    failed: int = 0
    failure: str | None = None
    #: Which node set served it (``serve`` and ``protected``).
    group: int = 0
    #: The fleet run's full result (``outbreak``).
    result: object = None

    def fail(self, reason: str, count: int | None = None):
        self.failed = self.attempted if count is None else count
        if self.failure is None:
            self.failure = reason


class Workload:
    """Common loop: set-up, cycles of operations, checks.

    A run is a fixed number of whole cycles, not a time budget: some
    guests' per-request cost grows with the requests they have served,
    so a faster commit given a fixed time would serve more requests and
    see a slower tail.  ``--seconds`` scales the cycle count through
    ``cycles_per_second``, set so that a run measures about that long
    on a 2-core host.
    """

    name = ""
    cycles_per_second = 1.0
    #: Cycles in a traced run, whatever ``--seconds`` is, so its counts
    #: repeat exactly per seed.
    traced_cycles = 1

    def __init__(self, seed: int):
        self.seed = seed
        #: The :class:`speed.SpeedClock` that calibrates between timed
        #: operations; None in the traced run, whose spans it would skew.
        self.clock = None

    def cycles(self, seconds: float) -> int:
        return max(1, round(self.cycles_per_second * seconds))

    def setup(self):
        raise NotImplementedError

    def cycle(self, state) -> list:
        """The next cycle's operation inputs, drawn from the state."""
        raise NotImplementedError

    def execute(self, state, item, tracer) -> Op:
        raise NotImplementedError

    def check(self, state, ops: list[Op]) -> list[str]:
        """Check outputs after timing.  An operation the program did not
        serve as required is marked failed on its record; what is
        returned are violations of the run's own invariants (outputs
        that must repeat exactly, model cross-checks), which make the
        run incorrect."""
        return []

    def begin_cycle(self, state, index: int, tracer):
        """Untimed preparation before cycle ``index``; cycle 0 runs on
        what set-up built."""

    def run(self, state, cycles: int, tracer=None) -> list[Op]:
        ops: list[Op] = []
        for index in range(cycles):
            self.begin_cycle(state, index, tracer)
            for item in self.cycle(state):
                if tracer is not None:
                    tracer.op = len(ops)
                ops.append(self.execute(state, item, tracer))
        return ops

    def retained_bytes_per_request(self, state) -> float:
        """Bytes a node keeps per served request; 0 when not measured."""
        return 0.0

    def nodes(self, state, tracer) -> list:
        """The nodes the timed operations ran on."""
        return [sweeper for phase, sweeper in tracer.sweepers
                if phase != "setup"]

    def node_state(self, state, tracer) -> dict[str, dict[str, float]]:
        """Per app: mean hook tools and armed pre-checks per node."""
        out = {}
        built = self.nodes(state, tracer)
        for app in APPS:
            nodes = [s for s in built if s.app_name == app]
            if not nodes:
                out[app] = {"hook_tools": 0.0, "pre_checks": 0.0}
                continue
            out[app] = {
                "hook_tools": sum(len(s.process.hooks.tools)
                                  for s in nodes) / len(nodes),
                "pre_checks": sum(len(s.process.cpu.pre_checks)
                                  for s in nodes) / len(nodes)}
        return out


def _timed(workload, tracer, op_name: str, fn, *args):
    """``fn(*args)``, its wall start and its wall seconds, as an op span
    when traced.  Calibrations the call itself ran (between fleet
    events) do not count toward its seconds."""
    clock = workload.clock
    if clock is not None:
        clock.tick()
        spent = clock.spent
    if tracer is not None:
        tracer.phase = "op"
        tracer.enter(op_name)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
            tracer.phase = "build"
    if clock is not None:
        seconds -= clock.spent - spent
        clock.tick()
    return result, start, seconds


# -- serve and protected ----------------------------------------------------


#: Requests a ``serve`` or ``protected`` node set serves, 500 per node,
#: before the next cycle replaces it with a fresh set.
SET_REQUESTS = 1500


@dataclass
class _NodeSet:
    """One node per app, plus what the check needs to rebuild each as a
    plain process: its config and the warm-up it served."""

    nodes: dict
    configs: dict
    streams: dict
    warmup: dict


@dataclass
class _ServeState:
    images: dict
    seeds: random.Random
    mix: random.Random
    sets: list = field(default_factory=list)
    bundles: dict = field(default_factory=dict)
    variants: dict = field(default_factory=dict)
    slots: random.Random | None = None
    verifier: SandboxVerifier | None = None

    @property
    def current(self) -> _NodeSet:
        return self.sets[-1]


class Serve(Workload):
    """Sets of three nodes serving a seeded benign mix, closed loop.

    Each cycle is a fresh set serving 500 requests per node.  squidp's
    and cvsd's per-request cost grows with the requests a node has
    served (a plain squidp process goes from 0.6 ms to 4.8 ms over 4000
    requests), so one set kept for a whole run would put every tail
    sample in the run's last seconds; fresh sets spread them over it.
    """

    name = "serve"
    cycles_per_second = 0.8
    traced_cycles = 1

    def _state(self) -> _ServeState:
        # ``protected`` draws the same nodes and benign traffic.
        seeds = random.Random(f"serve:{self.seed}")
        return _ServeState(images={app: BUILDERS[app]() for app in APPS},
                           seeds=seeds,
                           mix=random.Random(seeds.randrange(1 << 30)))

    def _new_set(self, state: _ServeState):
        """Boot one node per app, install the state's bundles (none in
        ``serve``), warm up, and make the set current."""
        seeds = state.seeds
        configs = {app: SweeperConfig(seed=seeds.randrange(1 << 20))
                   for app in APPS}
        streams = {app: TrafficStream(app, seed=seeds.randrange(1 << 30))
                   for app in APPS}
        nodes = {app: Sweeper(state.images[app], app_name=app,
                              config=configs[app]) for app in APPS}
        warmup = {}
        for app in APPS:
            for bundle in state.bundles.get(app, ()):
                outcome = nodes[app].apply_bundle(bundle,
                                                  verifier=state.verifier)
                if outcome.rejected:
                    raise RuntimeError(f"{app} consumer rejected bundle "
                                       f"{bundle.stage}: {outcome.detail}")
            warmup[app] = streams[app].take(WARMUP_REQUESTS)
            for request in warmup[app]:
                nodes[app].submit(request)
                nodes[app].advance_busy(WORK_CYCLES)
        if state.sets:
            state.current.nodes = None
        state.sets.append(_NodeSet(nodes=nodes, configs=configs,
                                   streams=streams, warmup=warmup))

    def setup(self) -> _ServeState:
        state = self._state()
        self._new_set(state)
        return state

    def begin_cycle(self, state: _ServeState, index: int, tracer):
        if index:
            if tracer is not None:
                tracer.phase = "build"
            self._new_set(state)

    def _round(self, state: _ServeState) -> list:
        """One request per app in a seeded order: the mix stays exactly
        one third per app, so the median lands in the same app's
        requests whatever the seed."""
        order = list(APPS)
        state.mix.shuffle(order)
        streams = state.current.streams
        return [(app, "benign", streams[app].next_request())
                for app in order]

    def cycle(self, state: _ServeState) -> list:
        return [item for _ in range(SET_REQUESTS // len(APPS))
                for item in self._round(state)]

    def nodes(self, state: _ServeState, tracer) -> list:
        return list(state.current.nodes.values())

    def execute(self, state: _ServeState, item, tracer) -> Op:
        app, kind, data = item
        node = state.current.nodes[app]
        attacks = len(node.attacks)
        detections = len(node.detections)

        def serve():
            responses = node.submit(data)
            node.advance_busy(WORK_CYCLES)
            return responses

        responses, start, seconds = _timed(self, tracer, "op." + self.name,
                                           serve)
        op = Op(app=app, kind=kind, data=data, start=start, seconds=seconds,
                output=responses, group=len(state.sets) - 1)
        if kind == "benign":
            # Only completed requests are latency samples; the check
            # decides whether a missing response is a failure.
            if responses:
                op.samples.append((start, seconds))
            return op
        new = {d.kind for d in node.detections[detections:]}
        if len(node.attacks) != attacks:
            op.fail("variant started a new full analysis")
        elif not new or not new <= BLOCK_KINDS:
            op.fail(f"variant not blocked (detections {sorted(new)})")
        elif responses:
            op.fail("blocked variant produced a response")
        return op

    def check(self, state: _ServeState, ops: list[Op]) -> list[str]:
        """Compare every benign response with a plain (unprotected,
        uncheckpointed) process of the same app, seed and layout fed
        the same benign requests; a request answered otherwise fails."""
        for group, node_set in enumerate(state.sets):
            for app in APPS:
                config = node_set.configs[app]
                plain = Process(state.images[app],
                                layout=boot_layout(config, config.seed),
                                seed=config.seed, name=app)
                plain.run(max_steps=_STEP_BUDGET)

                def reference(request):
                    before = len(plain.sent)
                    plain.feed(request)
                    plain.run(max_steps=_STEP_BUDGET)
                    return [sent.data for sent in plain.sent[before:]]

                for request in node_set.warmup[app]:
                    reference(request)
                for op in ops:
                    if op.group != group or op.app != app \
                            or op.kind != "benign":
                        continue
                    expected = reference(op.data)
                    if op.output != expected:
                        op.fail("response differs from the plain node"
                                if op.output
                                else "benign request got no response")
        return []

    def retained_bytes_per_request(self, state: _ServeState) -> float:
        """Per node, the tracemalloc growth over 1000 more benign
        requests divided by 1000, averaged over the three nodes."""
        import tracemalloc
        requests = 1000
        per_node = []
        for app in APPS:
            node = state.current.nodes[app]
            stream = state.current.streams[app]
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(requests):
                    node.submit(stream.next_request())
                    node.advance_busy(WORK_CYCLES)
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            per_node.append((after - before) / requests)
        return sum(per_node) / len(per_node)


class Protected(Serve):
    """``serve`` after the antibodies landed, with exploit variants."""

    name = "protected"
    cycles_per_second = 0.3
    traced_cycles = 1

    def setup(self) -> _ServeState:
        """Attack one producer per app, then boot the first node set,
        which installs the producers' bundles through the verified
        consumer path."""
        state = self._state()
        seeds = random.Random(f"{self.name}-producers:{self.seed}")
        state.verifier = SandboxVerifier()
        for app in APPS:
            exploit = EXPLOITS[PROTECTED_EXPLOITS[app]]
            bus = CommunityBus()
            producer = Sweeper(state.images[app], app_name=app,
                               config=SweeperConfig(
                                   seed=seeds.randrange(1 << 20)),
                               bus=bus)
            for request in TrafficStream(
                    app, seed=seeds.randrange(1 << 30)).take(
                        PRE_ATTACK_REQUESTS):
                producer.submit(request)
            producer.submit(exploit.payload())
            if not any(b.stage == "final" and b.signatures
                       for b in bus.published):
                raise RuntimeError(f"{exploit.name} producer published no "
                                   f"final bundle")
            state.bundles[app] = list(bus.published)
            state.variants[app] = ExploitStream(
                exploit.name, seed=seeds.randrange(1 << 30))
        state.slots = random.Random(seeds.randrange(1 << 30))
        self._new_set(state)
        return state

    def retained_bytes_per_request(self, state: _ServeState) -> float:
        """Not measured here: under tracemalloc a protected node's
        instrumented tier runs several times slower, and ``serve``
        already measures the same retention."""
        return 0.0

    def cycle(self, state: _ServeState) -> list:
        """Blocks of 100 requests, 99 benign plus one variant at a seeded
        slot, the variants round-robin over the three exploits."""
        items = []
        for index in range(SET_REQUESTS // VARIANT_EVERY):
            app = APPS[index % len(APPS)]
            block = []
            for _ in range((VARIANT_EVERY - 1) // len(APPS)):
                block.extend(self._round(state))
            block.insert(state.slots.randrange(len(block) + 1),
                         (app, "variant", state.variants[app].next_payload()))
            items.extend(block)
        return items


# -- attack -----------------------------------------------------------------


@dataclass
class _AttackState:
    images: dict
    variants: dict
    seeds: random.Random


class Attack(Workload):
    """One polymorphic exploit per operation, each on a fresh node."""

    name = "attack"
    cycles_per_second = 0.6      # one exploit of each kind
    traced_cycles = 1

    def setup(self) -> _AttackState:
        seeds = random.Random(f"{self.name}:{self.seed}")
        images = {app: BUILDERS[app]() for app in APPS}
        variants = {name: ExploitStream(name, seed=seeds.randrange(1 << 30))
                    for name in ATTACK_EXPLOITS}
        return _AttackState(images=images, variants=variants,
                            seeds=random.Random(seeds.randrange(1 << 30)))

    def cycle(self, state: _AttackState) -> list:
        return [(name, state.seeds.randrange(1 << 20),
                 state.seeds.randrange(1 << 30),
                 state.variants[name].next_payload())
                for name in ATTACK_EXPLOITS]

    def execute(self, state: _AttackState, item, tracer) -> Op:
        name, node_seed, traffic_seed, payload = item
        app = EXPLOITS[name].app
        if tracer is not None:
            tracer.phase = "build"
        bus = CommunityBus()
        node = Sweeper(state.images[app], app_name=app,
                       config=SweeperConfig(seed=node_seed), bus=bus)
        for request in TrafficStream(app, seed=traffic_seed).take(
                PRE_ATTACK_REQUESTS):
            node.submit(request)
        gc.collect()
        responses, start, seconds = _timed(self, tracer, "op." + self.name,
                                           node.submit, payload)
        op = Op(app=app, kind="exploit", data=name, start=start,
                seconds=seconds,
                output=(responses, [d.kind for d in node.detections],
                        [(b.stage, len(b.vsefs), len(b.signatures))
                         for b in bus.published]),
                samples=[(start, seconds)])
        if not node.attacks or not node.detections:
            op.fail(f"{name} variant was not detected")
        elif not any(b.stage == "final" and b.signatures
                     for b in bus.published):
            op.fail(f"{name} produced no final bundle with a signature")
        return op


# -- outbreak ---------------------------------------------------------------


class _EventClock:
    """Times every executed fleet event (``NodeHost._deliver``, which
    every benign delivery and worm contact goes through), calibrating
    the speed clock, if any, in the gaps between events."""

    def __init__(self, speed=None):
        self.samples: list[tuple[float, float]] = []
        self.speed = speed
        self._original = None

    def __enter__(self):
        original = self._original = NodeHost.__dict__["_deliver"]
        samples = self.samples
        clock = time.perf_counter
        tick = self.speed.tick if self.speed is not None else None

        def deliver(host, node, data, t):
            if tick is not None:
                tick()
            start = clock()
            try:
                return original(host, node, data, t)
            finally:
                samples.append((start, clock() - start))
        NodeHost._deliver = deliver
        return self

    def __exit__(self, *exc):
        NodeHost._deliver = self._original


def fleet_trajectory(result) -> dict:
    data = result.to_dict()
    for key in FLEET_HOST_FIELDS:
        data.pop(key, None)
    return data


class Outbreak(Workload):
    """The 512-node executed fleet, repeated whole.

    The fleet configuration is fixed: a fleet seed picks the epidemic
    trajectory and with it the mix of work (seed 7: 3413 benign requests
    and 205 worm contacts; seed 8: 5124 and 105, 38% more events per
    second), so seeding it from the workload seed would make the event
    rate measure the seed rather than the code."""

    name = "outbreak"
    cycles_per_second = 0.15     # one fleet run
    traced_cycles = 1

    def setup(self):
        config = outbreak_config()
        build_roster(config)
        return config

    def cycle(self, config) -> list:
        return [config]

    def execute(self, config, item, tracer) -> Op:
        gc.collect()
        with _EventClock(self.clock) as events:
            if tracer is None:
                result, start, seconds = _timed(self, None, "", run_fleet,
                                                config)
            else:
                result, start, seconds = _timed(
                    self, tracer, "op." + self.name,
                    lambda: tracer.span("worm.run_fleet", run_fleet, config))
        op = Op(app="httpd", kind="fleet", data=config, start=start,
                seconds=seconds,
                output=fleet_trajectory(result), samples=events.samples,
                attempted=len(events.samples), result=result)
        # A benign request answered by nothing (one response each when
        # served) is a failed event.
        dropped = result.benign_sent - result.benign_responses
        if dropped:
            op.fail(f"{dropped} benign requests got no response", dropped)
        return op

    def check(self, config, ops: list[Op]) -> list[str]:
        violations = []
        first = ops[0].output
        for index, op in enumerate(ops):
            result = op.result
            sim = result.gillespie
            if sim is None or abs(result.t0 - sim["t0"]) > 1e-9 or \
                    result.infected_final != sim["final_infected"]:
                violations.append(f"fleet run {index}: Gillespie "
                                  f"cross-check failed ({sim})")
            if op.output != first:
                violations.append(f"fleet run {index}: trajectory differs "
                                  f"from run 0")
        return violations


WORKLOADS = {cls.name: cls for cls in (Serve, Protected, Attack, Outbreak)}
