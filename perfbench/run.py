"""The repository's benchmark: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload t2r7_cebinae --seed 1 \\
        --seconds 30 --trace 0

Every iteration of a workload runs in a fresh single-threaded process
(``worker.py``), one after another, until ``--seconds`` are used up
(at least two iterations untraced).  With ``--trace 0`` the iterations
are untraced and the last line of standard output carries the
end-to-end metrics of ``BENCHMARK.json``, as medians over the
iterations, with times in reference seconds (``calibrate.py``).  With ``--trace 1`` the run alternates an untraced and a
traced iteration and reports the per-layer metrics; the aggregated
spans are written to ``.perfbench/``.

Within one run every operation's result digest must be identical across
iterations, traced or not, and every deterministic count identical
across traced iterations; any mismatch, exception or failed output check
counts as a failed operation.  The default seed is 1; seed 2 is held out
for validating later claims.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from time import perf_counter
from typing import Any, Dict, List, NoReturn, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
#: Untraced iterations per run, at the least.
MIN_ITERATIONS = 2
#: A run must end within this many seconds.
RUN_LIMIT_S = 170.0
#: Per-layer values that are timings, not deterministic counts.
TIMED_LAYER_SUFFIXES = ("self_s", "build_s", "wall_s", "kernel_s",
                        "coverage", "overhead_frac")
#: Per-layer timings in seconds, reported as reference seconds.
SECONDS_SUFFIXES = ("self_s", "build_s")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> Dict[str, str]:
    """One thread per workload process, and the program's defaults."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = "src"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(workload: str, seed: int, deadline: float, traced: bool = False,
          small: bool = False, count_pkts: bool = False,
          spans: Optional[str] = None) -> Dict[str, Any]:
    """Run one iteration in a fresh process; its report, or an error."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), repr(spawned_at)]
    cmd += ["--traced"] * traced + ["--small"] * small
    cmd += ["--count-pkts"] * count_pkts
    if spans is not None:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=max(deadline
                                                     - perf_counter(), 1))
    except subprocess.TimeoutExpired:
        return {"crash": "iteration exceeded the run's time limit"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def tally(iterations: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Operations attempted and failed, digests compared to the first."""
    reference: Optional[List[Optional[str]]] = None
    attempted = failed = 0
    errors: List[str] = []
    ops_per_iteration = max((len(it["ops"]) for it in iterations
                             if "ops" in it), default=1)
    for it in iterations:
        if "crash" in it:
            attempted += ops_per_iteration
            failed += ops_per_iteration
            errors.append(it["crash"])
            continue
        digests = [op["digest"] for op in it["ops"]]
        if reference is None:
            reference = digests
        for index, op in enumerate(it["ops"]):
            attempted += 1
            error = op["error"]
            if error is None and op["digest"] != reference[index]:
                error = "result digest differs from the first iteration"
            if error is not None:
                failed += 1
                errors.append(f"{op['label']}: {error}")
    return {"attempted": attempted, "failed": failed, "errors": errors}


def deterministic(values: List[Any], name: str, errors: List[str]) -> Any:
    """The one value every iteration agrees on."""
    if any(value != values[0] for value in values):
        errors.append(f"{name} differs between iterations: {values}")
    return values[0]


def end_to_end(good: List[Dict[str, Any]],
               errors: List[str]) -> Dict[str, float]:
    fidelity_err = deterministic([it["fidelity_err"] for it in good],
                                 "fidelity_err", errors)
    metrics = {
        "wall_s": statistics.median(it["ref_wall_s"] for it in good),
        "setup_s": statistics.median(it["ref_setup_s"] for it in good),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in good),
        "fidelity": 1.0 - fidelity_err,
        "goodput_frac": deterministic([it["goodput_frac"] for it in good],
                                      "goodput_frac", errors),
    }
    # hh_detect counts its trace packets in the first iteration only.
    pkts = [it["pkts"] for it in good if "pkts" in it]
    if pkts:
        metrics["pkts_per_s"] = (deterministic(pkts, "pkts", errors)
                                 / metrics["wall_s"])
    return metrics


def per_layer(untraced: List[Dict[str, Any]], traced: List[Dict[str, Any]],
              errors: List[str]) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for name in traced[0]["layers"]:
        values = [it["layers"][name] for it in traced]
        if name.endswith(SECONDS_SUFFIXES):
            # The traced iteration's own host speed, as for wall_s.
            values = [value * it["ref_wall_s"] / it["wall_s"]
                      for value, it in zip(values, traced)]
        if name.endswith(TIMED_LAYER_SUFFIXES):
            layers[name] = statistics.median(values)
        else:
            layers[name] = deterministic(values, name, errors)
    # The untraced iterations as measured, before host drift is removed.
    layers["host.wall_s"] = statistics.median(it["wall_s"]
                                              for it in untraced)
    layers["host.kernel_s"] = statistics.median(
        statistics.median(it["kernel_s"]) for it in untraced)
    layers["trace.overhead_frac"] = (
        statistics.median(it["ref_wall_s"] for it in traced)
        / statistics.median(it["ref_wall_s"] for it in untraced) - 1.0)
    return layers


def load_spec() -> Dict[str, Any]:
    """BENCHMARK.json, after checking the program is there to measure."""
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        fail("no program sources at src/repro; run from the repository "
             "root")
    try:
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Cebinae repro benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    deadline = started + RUN_LIMIT_S
    iterations: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    if args.trace:
        os.makedirs(".perfbench", exist_ok=True)
        spans = os.path.join(".perfbench",
                             f"spans-{args.workload}-{args.seed}.json")
        while True:
            pair_start = perf_counter()
            iterations.append(spawn(args.workload, args.seed, deadline))
            traced.append(spawn(args.workload, args.seed, deadline,
                                traced=True, spans=spans))
            now = perf_counter()
            if now - started + (now - pair_start) > args.seconds:
                break
    else:
        while True:
            it_start = perf_counter()
            iterations.append(spawn(args.workload, args.seed, deadline,
                                    count_pkts=not iterations))
            now = perf_counter()
            if (len(iterations) >= MIN_ITERATIONS
                    and now - started + (now - it_start) > args.seconds):
                break

    counted = tally(iterations + traced)
    errors = counted["errors"]
    good = [it for it in iterations
            if "ops" in it and all(op["error"] is None for op in it["ops"])]
    good_traced = [it for it in traced
                   if "ops" in it and "layers" in it]
    metrics: Dict[str, float] = {}
    if args.trace and good and good_traced:
        metrics = per_layer(good, good_traced, errors)
        declared = spec["per_layer"]
    elif not args.trace and good:
        metrics = end_to_end(good, errors)
        declared = spec["end_to_end"]
    else:
        errors.append("no iteration completed")
        declared = []
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                for m in declared if m["name"] in metrics}
    missing = sorted({m["name"] for m in declared} - set(metrics))
    if missing:
        errors.append(f"metrics not measured: {missing}")
    correct = counted["failed"] == 0 and not errors
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    summary = {
        "workload": args.workload, "seed": args.seed,
        "iterations": len(iterations), "traced_iterations": len(traced),
        "params": next((it["params"] for it in iterations
                        if "params" in it), None),
        # Host seconds as measured, before the drift is removed.
        "host_wall_s": [it.get("wall_s") for it in iterations],
        "host_setup_s": [it.get("setup_s") for it in iterations],
        "kernel_s": [it.get("kernel_s") for it in iterations],
    }
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": counted["attempted"],
                      "failed": counted["failed"], "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
