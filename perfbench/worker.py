"""One iteration of one workload, in a process of its own.

``run.py`` starts this with ``PYTHONPATH=src`` from the repository root:

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT [--traced]
        [--small] [--count-pkts] [--spans PATH]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the
process started; set-up time runs from there to the first entry-point
call.  The calibration kernel is sampled before the first operation
and after each one; the report carries host seconds and reference
seconds.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def observers_installed() -> List[str]:
    """The program's own observers that are switched on, if any."""
    from repro.netsim import profiling
    from repro.obs import bus, metrics
    found = []
    if bus.current() is not None:
        found.append("TraceBus")
    if metrics.current() is not None:
        found.append("MetricsRegistry")
    if profiling.current() is not None:
        found.append("HotPathProfiler")
    return found


def require_unobserved(when: str, traced: bool) -> None:
    found = observers_installed()
    if not traced and "tracer" in sys.modules:
        found.append("the benchmark tracer")
    if found:
        raise RuntimeError(f"{', '.join(found)} installed {when} the "
                           f"timed section")


def layer_metrics(tracer: Any, results: List[Any],
                  pkts: float, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (all but overhead)."""
    counts, self_s = tracer.counts, tracer.self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    scenarios = [r for r in results if hasattr(r, "lbf_delays")]
    segments = sum(s.sent_segments for s in tracer.senders)
    builds = counts["heavyhitter.trace_builds"]
    summary = scenarios[0].hybrid_summary if scenarios else None
    if summary is not None and summary["mode"] == "fluid":
        packet_frac = summary["handoff_s"] / scenarios[0].duration_s
    else:
        packet_frac = 1.0 if scenarios else 0.0
    return {
        "engine.events": counts["engine.events"],
        "engine.schedules": counts["engine.schedules"],
        "engine.cancel_frac": ratio(counts["engine.cancels"],
                                    counts["engine.schedules"]),
        "engine.events_per_pkt": ratio(counts["engine.events"], pkts),
        "engine.self_s": self_s.get("engine", 0.0),
        "link.sends": counts["link.sends"],
        "link.events": counts["link.events"],
        "link.self_s": self_s.get("link", 0.0),
        "node.receives": counts["node.receives"],
        "node.self_s": self_s.get("node", 0.0),
        "queue.enqueues": counts["queue.enqueues"],
        "queue.drop_frac": ratio(counts["queue.drops"],
                                 counts["queue.enqueues"]),
        "queue.self_s": self_s.get("queue", 0.0),
        "core.enqueues": counts["core.enqueues"],
        "core.lbf_delay_frac": ratio(sum(r.lbf_delays for r in scenarios),
                                     counts["core.enqueues"]),
        "core.lbf_drop_frac": ratio(sum(r.lbf_drops for r in scenarios),
                                    counts["core.enqueues"]),
        "core.rotations": counts["core.rotations"],
        "core.cp_rounds": sum(a.recomputations for a in tracer.agents),
        "core.self_s": self_s.get("core", 0.0),
        "core.cp_self_s": self_s.get("core.cp", 0.0),
        "heavyhitter.updates": counts["heavyhitter.updates"],
        "heavyhitter.hash_calls": counts["heavyhitter.hash_calls"],
        "heavyhitter.hash_per_update": ratio(
            counts["heavyhitter.hash_calls"],
            counts["heavyhitter.updates"]),
        "heavyhitter.cache_self_s": self_s.get("heavyhitter.cache", 0.0),
        "heavyhitter.trace_builds": builds,
        "heavyhitter.trace_reuse_frac":
            1.0 - ratio(len(tracer.trace_keys), builds) if builds else 0.0,
        "heavyhitter.trace_pkts": counts["heavyhitter.trace_pkts"],
        "heavyhitter.trace_self_s": self_s.get("heavyhitter.trace", 0.0),
        "heavyhitter.eval_self_s": self_s.get("heavyhitter.eval", 0.0),
        "tcp.segments": segments,
        "tcp.retx_frac": ratio(sum(s.retransmits for s in tracer.senders),
                               segments),
        "tcp.rtos": sum(s.timeouts for s in tracer.senders),
        "tcp.acks": counts["tcp.acks"],
        "tcp.self_s": self_s.get("tcp", 0.0),
        "fluid.epochs": summary["epochs"] if summary else 0,
        "fluid.packet_frac": packet_frac,
        "fluid.self_s": self_s.get("fluid", 0.0),
        "runner.build_s": tracer.build_s,
        "runner.self_s": self_s.get("runner", 0.0),
        "tracing.self_s": self_s.get("tracing", 0.0),
        "other.self_s": self_s.get("other", 0.0),
        "trace.coverage": ratio(sum(seconds for layer, seconds
                                    in self_s.items() if layer != "other"),
                                wall_s),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--count-pkts", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import workloads

    inputs = workloads.build(args.workload, args.seed, small=args.small)
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    require_unobserved("before", args.traced)
    results: List[Any] = []
    errors: List[Optional[str]] = []
    op_walls: List[float] = []
    setup_s = time.monotonic() - args.spawned_at
    import calibrate  # After set-up: its import is not the program's.

    # The host's speed, sampled before, between and after the operations.
    samples = [calibrate.sample(calibrate.FIRST_WINDOW_S)]
    for op in inputs.operations:
        started = perf_counter()
        try:
            result = tracer.root(op.layer, op.call) if tracer is not None \
                else op.call()
        except Exception:  # A failed operation is counted, not fatal.
            results.append(None)
            errors.append(traceback.format_exc(limit=4))
        else:
            results.append(result)
            errors.append(None)
        op_walls.append(perf_counter() - started)
        samples.append(calibrate.sample(
            calibrate.WINDOW_FRAC * op_walls[-1]))
    wall_s = sum(op_walls)
    require_unobserved("after", args.traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = []
    for op, result, error in zip(inputs.operations, results, errors):
        if error is None:
            error = workloads.check(inputs, result)
        ops.append({"label": op.label, "error": error,
                    "digest": workloads.digest(result)
                    if result is not None else None})
    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "params": inputs.params, "traced": args.traced, "ops": ops,
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "kernel_s": [statistics.median(times) for times in samples],
        # Reference seconds: host drift removed (see calibrate.py); each
        # operation is scaled by the kernel samples on either side of it.
        "ref_setup_s": calibrate.to_reference(setup_s, samples[0]),
        "ref_wall_s": sum(calibrate.to_reference(
            seconds, samples[index], samples[index + 1])
            for index, seconds in enumerate(op_walls)),
    }
    if all(op["error"] is None for op in ops):
        if inputs.scaled is not None:
            report["pkts"] = sum(workloads.scenario_packets(r)
                                 for r in results)
            report["goodput_frac"] = sum(workloads.goodput_frac(r)
                                         for r in results) / len(results)
            report["result_events"] = sum(r.events for r in results)
        else:
            if tracer is not None:
                report["pkts"] = tracer.counts["heavyhitter.trace_pkts"]
            elif args.count_pkts:
                report["pkts"] = workloads.trace_packets(inputs) \
                    * len(results)
            # No network: every offered trace byte reaches the cache.
            report["goodput_frac"] = 1.0
        report["fidelity_err"] = workloads.fidelity_err(inputs, results)
        if tracer is not None:
            report["layers"] = layer_metrics(tracer, results,
                                             report["pkts"], wall_s)
            report["layers"]["fidelity_err"] = report["fidelity_err"]
            if args.spans:
                tracer.write(args.spans, {
                    "workload": args.workload, "seed": args.seed,
                    "wall_s": wall_s})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
