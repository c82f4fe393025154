"""The three benchmark workloads: inputs from a seed, one iteration, checks.

Everything here runs inside a workload process (see ``worker.py``).  A
workload turns the benchmark seed into the program's inputs — a
``ScaledScenario`` plus ``run_scenario`` keyword arguments, or
``evaluate_detection`` keyword arguments — and nothing else crosses into
the program.  One *iteration* makes every entry-point call of the
workload once; each call is one *operation* for ``attempted``/``failed``.

Output checks come in two kinds:

* meaning checks (below, per workload): the paper's claims that the
  workload exercises must hold, e.g. Cebinae repairs Table 2 row 7's
  starvation at no more than 13 % goodput cost;
* a result digest per operation, compared across the iterations of one
  benchmark run and between its traced and untraced iterations by
  ``run.py``.  No digest is committed: a later change may reorder events
  on purpose, and its meaning is then guarded by the checks and by the
  ``fidelity`` and ``goodput_frac`` metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.runner import Discipline, run_scenario
from repro.experiments.scenarios import (DEFAULT_POLICY, ScalePolicy,
                                         ScaledScenario, ScenarioSpec)
from repro.experiments.table2 import TABLE2_ROWS
from repro.heavyhitter.evaluation import evaluate_detection
from repro.heavyhitter.traces import SyntheticTrace
from repro.netsim.fluid import HybridPolicy
from repro.netsim.packet import MTU_BYTES

WORKLOADS = ("t2r7_cebinae", "hh_detect", "hybrid_1k")

#: Table 2 row 7 as the paper reports it under Cebinae.
T2R7_ROW = "table2_row07"
T2R7_PAPER_JFI = 0.988
T2R7_DURATION_S = 30.0

#: Figure 13 configurations (stages, slots per stage, round interval ms):
#: the cache sizes at which EXPERIMENTS.md records no detection error.
HH_CONFIGS: Tuple[Tuple[int, int, float], ...] = (
    (2, 2048, 10.0), (4, 2048, 10.0), (2, 2048, 50.0),
    (4, 2048, 50.0), (2, 2048, 100.0))
HH_TRACE_S = 0.05
#: The paper's >400k flows/minute backbone, at Figure 13's skew.
HH_FLOWS_PER_MINUTE = 400_000
HH_ZIPF_ALPHA = 0.75

#: bench_scalability's heavy-tailed Cubic dumbbell at 10^3 flows.
HYBRID_FLOWS = 1000
HYBRID_DURATION_S = 20.0
HYBRID_SETTLE_RTTS = 10.0
#: hybrid_1k draws its simulator seed from this many seeds, each with a
#: packet-backend reference JFI in ``reference.json``.
HYBRID_SEED_POOL = 16

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass
class Operation:
    """One entry-point call: what it is and how to make it."""

    label: str
    layer: str          # Root layer the traced run attributes it to.
    call: Callable[[], Any]


@dataclass
class Inputs:
    """A workload's generated inputs for one seed."""

    workload: str
    seed: int
    operations: List[Operation]
    #: Workload parameters, reported next to the results.
    params: Dict[str, Any]
    #: Set for scenario workloads.
    scaled: Optional[ScaledScenario] = None
    #: Set for hybrid_1k: the packet-backend JFI at the same seed.
    reference_jfi: Optional[float] = None
    #: Set for hh_detect: the trace every configuration replays.
    trace_kwargs: Optional[Dict[str, Any]] = None


def heavy_tailed_scenario(flows: int, duration_s: float) -> ScaledScenario:
    """The heavy-tailed Cubic dumbbell of ``bench_scalability``.

    80/15/4/1 % of the flows over a 256/384/512/768 ms RTT ladder; the
    rate floor that keeps every flow above TCP's minimum operating
    point sets the bottleneck rate (136 Mbps at 10^3 flows).
    """
    ladder = ((256.0, 0.80), (384.0, 0.15), (512.0, 0.04),
              (768.0, 0.01))
    counts = [max(1, round(flows * fraction)) for _, fraction in ladder]
    counts[0] += flows - sum(counts)
    spec = ScenarioSpec(
        name=f"scale-hybrid-{flows}",
        rate_bps=2e9,
        rtts_ms=tuple(rtt for rtt, _ in ladder),
        buffer_mtus=29_000,
        cca_mix=tuple(("cubic", count) for count in counts),
        duration_s=duration_s)
    return ScalePolicy(max_flows=flows, max_rate_bps=2e9).apply(spec)


def hybrid_sim_seed(seed: int) -> int:
    """The simulator seed hybrid_1k runs at for a benchmark seed."""
    return seed % HYBRID_SEED_POOL


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def build(workload: str, seed: int, small: bool = False) -> Inputs:
    """Generate ``workload``'s inputs from ``seed``.

    ``small`` shortens every input for the self-test; the benchmark
    itself always runs the full sizes.
    """
    if workload == "t2r7_cebinae":
        row = next(row for row in TABLE2_ROWS if row.spec.name == T2R7_ROW)
        duration = 2.0 if small else T2R7_DURATION_S
        scaled = DEFAULT_POLICY.apply(row.spec, duration_s=duration)
        op = Operation(
            label=f"{T2R7_ROW}/cebinae@{duration:g}s", layer="runner",
            call=lambda: run_scenario(scaled, Discipline.CEBINAE,
                                      seed=seed))
        return Inputs(workload, seed, [op],
                      params={"duration_s": duration, "sim_seed": seed},
                      scaled=scaled)
    if workload == "hh_detect":
        configs = HH_CONFIGS[:2] if small else HH_CONFIGS
        trace_s = 0.02 if small else HH_TRACE_S
        ops = [Operation(
            label=f"s{stages}x{slots}@{interval:g}ms",
            layer="heavyhitter.eval",
            call=lambda stages=stages, slots=slots, interval=interval:
            evaluate_detection(stages, slots, interval, trials=1,
                               trace_duration_s=trace_s,
                               flows_per_minute=HH_FLOWS_PER_MINUTE,
                               zipf_alpha=HH_ZIPF_ALPHA, seed=seed))
            for stages, slots, interval in configs]
        # The trace a one-trial evaluate_detection call builds.
        trace_kwargs = {"duration_s": trace_s,
                        "flows_per_minute": HH_FLOWS_PER_MINUTE,
                        "zipf_alpha": HH_ZIPF_ALPHA, "seed": seed}
        return Inputs(workload, seed, ops,
                      params={"trace_s": trace_s, "configs": len(configs)},
                      trace_kwargs=trace_kwargs)
    if workload == "hybrid_1k":
        flows = 60 if small else HYBRID_FLOWS
        sim_seed = hybrid_sim_seed(seed)
        scaled = heavy_tailed_scenario(flows, HYBRID_DURATION_S)
        policy = HybridPolicy(settle_rtts=HYBRID_SETTLE_RTTS)
        op = Operation(
            label=f"{scaled.spec.name}/fifo/hybrid", layer="runner",
            call=lambda: run_scenario(scaled, Discipline.FIFO,
                                      seed=sim_seed, backend="hybrid",
                                      hybrid_policy=policy))
        reference = None
        if not small:
            recorded = load_reference()["hybrid_1k"]
            if (recorded["flows"] != flows
                    or recorded["duration_s"] != HYBRID_DURATION_S):
                raise RuntimeError("reference.json was recorded for "
                                   "another hybrid_1k scenario")
            reference = recorded["packet_jfi"][str(sim_seed)]
        return Inputs(workload, seed, [op],
                      params={"flows": flows, "duration_s":
                              HYBRID_DURATION_S, "sim_seed": sim_seed},
                      scaled=scaled, reference_jfi=reference)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def digest(result: Any) -> str:
    """A canonical digest of one operation's result."""
    payload = result.to_dict() if hasattr(result, "to_dict") \
        else dataclasses.asdict(result)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(inputs: Inputs, result: Any) -> Optional[str]:
    """Why ``result`` is wrong, or None when it passes."""
    if inputs.workload == "hh_detect":
        if result.intervals < 1:
            return "no round interval closed"
        if result.true_positives + result.false_negatives < result.intervals:
            return "an interval had no top flow"
        if not result.false_positive_rate < 1e-3:
            return f"FPR {result.false_positive_rate:.2e} >= 1e-3"
        if not result.false_negative_rate < 0.25:
            return f"FNR {result.false_negative_rate:.3f} >= 0.25"
        return None
    scaled = inputs.scaled
    assert scaled is not None
    rate = scaled.spec.rate_bps
    if len(result.goodputs_bps) != scaled.spec.total_flows:
        return "goodput count differs from the flow count"
    if not all(math.isfinite(g) and g >= 0 for g in result.goodputs_bps):
        return "a goodput is negative or not finite"
    if not 0 < result.total_goodput_bps <= rate:
        return "aggregate goodput outside (0, bottleneck rate]"
    if not 0 < result.throughput_bps <= 1.01 * rate:
        return "bottleneck throughput outside (0, 1.01 x rate]"
    if inputs.workload == "t2r7_cebinae":
        # Table 2 row 7: FIFO starves Vegas (JFI 0.096 in the paper);
        # Cebinae repairs it at a goodput cost of at most 13 %.
        if result.jfi < 0.9:
            return f"JFI {result.jfi:.4f} < 0.9: starvation not repaired"
        if goodput_frac(result) < 0.87:
            return "goodput cost above 13 %"
        return None
    summary = result.hybrid_summary or {}
    if summary.get("mode") != "fluid":
        return f"no fluid handoff ({summary.get('reason')!r})"
    if inputs.reference_jfi is not None:
        # bench_scalability's tolerance for the fluid tier.
        if abs(result.jfi - inputs.reference_jfi) >= 0.12:
            return "hybrid JFI strays >= 0.12 from the packet backend"
        if result.jfi > inputs.reference_jfi + 0.02:
            return "hybrid JFI idealises the packet backend's fairness"
    return None


def goodput_frac(result: Any) -> float:
    """Aggregate goodput over the bottleneck rate (scenarios)."""
    return result.total_goodput_bps / result.sim_rate_bps


def scenario_packets(result: Any) -> float:
    """Bottleneck data packets a scenario moved."""
    return (result.throughput_bps * result.duration_s
            / (8 * MTU_BYTES))


def trace_packets(inputs: Inputs) -> int:
    """Packets in the trace every hh_detect configuration replays."""
    assert inputs.trace_kwargs is not None
    return sum(1 for _ in SyntheticTrace(**inputs.trace_kwargs).packets())


def fidelity_err(inputs: Inputs, results: List[Any]) -> Optional[float]:
    """The distance of the workload's results from the repo's reference.

    t2r7_cebinae: |JFI - 0.988| (paper Table 2).  hh_detect: mean FNR +
    FPR over the configurations (EXPERIMENTS.md records 0 at these
    cache sizes).  hybrid_1k: |hybrid JFI - packet JFI at the same
    seed|, or None for the self-test's shortened scenario, which has no
    recorded reference.
    """
    if inputs.workload == "hh_detect":
        return sum(r.false_negative_rate + r.false_positive_rate
                   for r in results) / len(results)
    (result,) = results
    if inputs.workload == "t2r7_cebinae":
        return abs(result.jfi - T2R7_PAPER_JFI)
    if inputs.reference_jfi is None:
        return None
    return abs(result.jfi - inputs.reference_jfi)
