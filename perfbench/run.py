"""The Sweeper benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, over
a number of operations that ``--seconds`` scales.  Its times are
reference times (see ``speed.py``): wall times scaled by a calibration
loop run between operations, so that the shared host's speed drift
cancels out of them; the matching wall times are printed and kept in the
result file too.  ``--trace 1`` runs a fixed number of operations twice,
untraced and then traced, checks that both give the same outputs, and
reports per-layer busy time, self time and counts from the traced pass,
in wall time.  The traced pass also writes its spans to
``perfbench/out/<workload>.spans.jsonl`` and
``perfbench/out/<workload>.trace.json`` (Chrome trace events).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print
every metric by name with its unit, the host record (cores available,
Python version, workload seed) and any failed check.  The full result is
also written to ``perfbench/out/<workload>.result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import APPS, BUILDERS, WORKLOADS  # noqa: E402

from repro.runtime.sweeper import Sweeper, SweeperConfig  # noqa: E402

OUT_DIR = HERE / "out"

#: Calibrations before and after each timed set-up.
SETUP_CALIBRATIONS = 7
#: Set-ups per run; ``setup_s`` is their median.  ``protected`` attacks
#: three producers per set-up (about 3.5 s), the others are cheap.
SETUP_REPEATS = {"serve": 9, "protected": 3, "attack": 9, "outbreak": 9}

END_TO_END = {"setup_s": "s", "p50_us": "us", "p99_us": "us",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}

ANALYSIS_STEPS = ("memory_state", "reproduce", "memory_bug", "input_taint",
                  "slicing")
TIERS = ("fused", "plain", "checked", "instrumented")

#: Every per-layer metric of the traced run, with its unit.  Time and
#: count metrics cover the timed operations; ``setup.*`` cover set-up
#: and the untimed node builds between operations.
PER_LAYER = {
    "machine.run_s": "s",
    **{f"machine.run_s.{tier}": "s" for tier in TIERS},
    "machine.run_calls": "count",
    "machine.natives_s": "s",
    "machine.native_calls": "count",
    "machine.guest_cycles": "count",
    **{f"isa.predecoded_insns.{app}": "count" for app in APPS},
    **{f"isa.fused_traces.{app}": "count" for app in APPS},
    "runtime.busy_s": "s",
    "runtime.self_s": "s",
    "runtime.checkpoint.take_s": "s",
    "runtime.checkpoint.takes": "count",
    "runtime.checkpoint.materialize_s": "s",
    "runtime.proxy_s": "s",
    "runtime.recovery_s": "s",
    "runtime.recoveries": "count",
    "runtime.retained_bytes_per_request": "bytes",
    "runtime.golden.forks": "count",
    "instrument.busy_s": "s",
    **{f"instrument.hook_tools.{app}": "count" for app in APPS},
    **{f"antibody.pre_checks_armed.{app}": "count" for app in APPS},
    "analysis.analyze_s": "s",
    **{f"analysis.{step}_s": "s" for step in ANALYSIS_STEPS},
    "analysis.isolation_replays": "count",
    "analysis.self_s": "s",
    "antibody.busy_s": "s",
    "antibody.self_s": "s",
    "antibody.apply_bundle_s": "s",
    "antibody.verify_s": "s",
    "antibody.verify.boots": "count",
    "antibody.verify.trials": "count",
    "antibody.bus_s": "s",
    "worm.materialize_s": "s",
    "worm.nodes_materialized": "count",
    "worm.scheduler_self_s": "s",
    "worm.events": "count",
    "setup.machine.run_s": "s",
    "setup.runtime.boot_s": "s",
    "setup.analysis.analyze_s": "s",
    "setup.antibody.apply_bundle_s": "s",
    "setup.antibody.verify_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def host_record(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cores_available": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def timed_setups(workload, repeats: int, clock: SpeedClock):
    """Set up ``repeats`` times, calibrating around each; returns the
    reference and wall seconds of every set-up and the last state."""
    reference, wall = [], []
    state = None
    for _ in range(repeats):
        state = None
        clock.calibrate(SETUP_CALIBRATIONS)
        start = time.perf_counter()
        state = workload.setup()
        seconds = time.perf_counter() - start
        clock.calibrate(SETUP_CALIBRATIONS)
        wall.append(seconds)
        reference.append(clock.reference(start, seconds))
    return reference, wall, state


def latencies(ops: list) -> list[float]:
    return [seconds for op in ops for _, seconds in op.samples]


def timing_metrics(setups: list[float], samples: list[float],
                   attempted: int, timed: float) -> dict:
    return {"setup_s": statistics.median(setups),
            "p50_us": statistics.median(samples) * 1e6,
            "p99_us": percentile(samples, 0.99) * 1e6,
            "ops_per_s": attempted / timed}


def measure(workload, seconds: float) -> tuple[dict, list, list[str], dict]:
    """The untraced run: end-to-end metrics in reference time, ops,
    check violations, and the same timings in wall time."""
    clock = workload.clock = SpeedClock()
    setups, wall_setups, state = timed_setups(
        workload, SETUP_REPEATS[workload.name], clock)
    ops = workload.run(state, workload.cycles(seconds))
    clock.calibrate(SETUP_CALIBRATIONS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    violations = workload.check(state, ops)
    attempted = sum(op.attempted for op in ops)
    metrics = timing_metrics(
        setups,
        [clock.reference(start, s) for op in ops for start, s in op.samples],
        attempted,
        sum(clock.reference(op.start, op.seconds) for op in ops))
    metrics["peak_rss_mb"] = peak_rss_mb
    wall = timing_metrics(wall_setups, latencies(ops), attempted,
                          sum(op.seconds for op in ops))
    wall["calibration_us"] = statistics.median(clock.durations) * 1e6
    return metrics, ops, violations, wall


def _sum(totals: dict, prefix: str, key: str = "total_s") -> float:
    return sum(row[key] for name, row in totals.items()
               if name == prefix or name.startswith(prefix + "."))


def trace(workload) -> tuple[dict, list, list[str]]:
    """The traced run: the same operations untraced, then traced."""
    cycles = workload.traced_cycles
    state = workload.setup()
    plain_ops = workload.run(state, cycles=cycles)
    violations = workload.check(state, plain_ops)
    retained = workload.retained_bytes_per_request(state)
    state = None

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup()
        traced_ops = workload.run(state, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()
    violations += [f"traced run: {v}"
                   for v in workload.check(state, traced_ops)]
    if [op.output for op in traced_ops] != [op.output for op in plain_ops]:
        violations.append("traced run's outputs differ from the untraced "
                          "run's")

    op = tracer.totals("op")
    setup = tracer.totals("setup")
    for name, row in tracer.totals("build").items():
        merged = setup.setdefault(name, dict.fromkeys(row, 0))
        for key, value in row.items():
            merged[key] += value
    fleet = traced_ops[0].result
    verifier = getattr(state, "verifier", None)
    if fleet is not None and fleet.verification is not None:
        sandbox = fleet.verification["sandbox"]
        boots, trials = sandbox["boots"], sandbox["trials"]
    elif verifier is not None:
        boots, trials = verifier.boots, verifier.trials
    else:
        boots = trials = 0
    nodes = workload.node_state(state, tracer)

    metrics = {
        "machine.run_s": _sum(op, "machine.run"),
        **{f"machine.run_s.{tier}": _sum(op, f"machine.run.{tier}")
           for tier in TIERS},
        "machine.run_calls": _sum(op, "machine.run", "calls"),
        "machine.natives_s": _sum(op, "machine.native"),
        "machine.native_calls": _sum(op, "machine.native", "calls"),
        "machine.guest_cycles": tracer.counter("machine.guest_cycles"),
        "runtime.busy_s": _sum(op, "runtime", "top_s"),
        "runtime.self_s": _sum(op, "runtime", "self_s"),
        "runtime.checkpoint.take_s": _sum(op, "runtime.checkpoint.take"),
        "runtime.checkpoint.takes": _sum(op, "runtime.checkpoint.take",
                                         "calls"),
        "runtime.checkpoint.materialize_s":
            _sum(op, "runtime.checkpoint.materialize"),
        "runtime.proxy_s": _sum(op, "runtime.proxy"),
        "runtime.recovery_s": _sum(op, "runtime.recovery"),
        "runtime.recoveries": _sum(op, "runtime.recovery", "calls"),
        "runtime.retained_bytes_per_request": retained,
        "runtime.golden.forks": fleet.golden["forks"] if fleet else 0,
        "instrument.busy_s": _sum(op, "instrument", "top_s"),
        **{f"instrument.hook_tools.{app}": nodes[app]["hook_tools"]
           for app in APPS},
        **{f"antibody.pre_checks_armed.{app}": nodes[app]["pre_checks"]
           for app in APPS},
        "analysis.analyze_s": _sum(op, "analysis.analyze"),
        **{f"analysis.{step}_s": tracer.counter(f"analysis.{step}_s")
           for step in ANALYSIS_STEPS},
        "analysis.isolation_replays":
            tracer.counter("analysis.isolation_replays"),
        "analysis.self_s": _sum(op, "analysis", "self_s"),
        "antibody.busy_s": _sum(op, "antibody", "top_s"),
        "antibody.self_s": _sum(op, "antibody", "self_s"),
        "antibody.apply_bundle_s": _sum(op, "antibody.apply_bundle"),
        "antibody.verify_s": _sum(op, "antibody.verify"),
        "antibody.verify.boots": boots,
        "antibody.verify.trials": trials,
        "antibody.bus_s": _sum(op, "antibody.bus"),
        "worm.materialize_s": _sum(op, "worm.materialize"),
        "worm.nodes_materialized": fleet.nodes_materialized if fleet else 0,
        "worm.scheduler_self_s": _sum(op, "worm.run_fleet", "self_s"),
        "worm.events": sum(o.attempted for o in traced_ops)
        if fleet else 0,
        "setup.machine.run_s": _sum(setup, "machine.run"),
        "setup.runtime.boot_s": _sum(setup, "runtime.boot"),
        "setup.analysis.analyze_s": _sum(setup, "analysis.analyze"),
        "setup.antibody.apply_bundle_s": _sum(setup,
                                              "antibody.apply_bundle"),
        "setup.antibody.verify_s": _sum(setup, "antibody.verify"),
        "trace.overhead": statistics.median(latencies(traced_ops))
        / statistics.median(latencies(plain_ops)) - 1.0,
        "trace.spans": len(tracer.spans),
    }
    for app in APPS:
        cpu = Sweeper(BUILDERS[app](), app_name=app,
                      config=SweeperConfig()).process.cpu
        metrics[f"isa.predecoded_insns.{app}"] = cpu.predecoded_count
        metrics[f"isa.fused_traces.{app}"] = cpu.fused_trace_count

    OUT_DIR.mkdir(exist_ok=True)
    tracer.export(OUT_DIR / f"{workload.name}.spans.jsonl",
                  OUT_DIR / f"{workload.name}.trace.json")
    return metrics, plain_ops, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    wall = {}
    if args.trace:
        values, ops, violations = trace(workload)
        units = PER_LAYER
    else:
        values, ops, violations, wall = measure(workload, args.seconds)
        units = END_TO_END
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics out of step with their list: {missing}")

    failures = [op for op in ops if op.failed]
    result = {
        "correct": not violations,
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    host = host_record(args)
    OUT_DIR.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (OUT_DIR / f"{args.workload}{suffix}.result.json").write_text(
        json.dumps({"host": host, "result": result,
                    "wall_metrics": wall,
                    "violations": violations,
                    "failures": [f"op {index} ({op.app} {op.kind}): "
                                 f"{op.failure}"
                                 for index, op in enumerate(ops)
                                 if op.failed]},
                   indent=2) + "\n")

    for name, unit in units.items():
        print(f"{name:<40s} {values[name]:>16.6g} {unit}")
    for name, value in wall.items():
        print(f"{'wall ' + name:<40s} {value:>16.6g}")
    reasons = Counter((op.app, op.kind, op.failure) for op in failures)
    for (app, kind, reason), count in sorted(reasons.items()):
        print(f"failed: {count} x {app} {kind}: {reason}")
    for violation in violations[:20]:
        print(f"incorrect: {violation}")
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
