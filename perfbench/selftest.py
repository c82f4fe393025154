"""Self-test of the benchmark's tracer, on shortened inputs.

For every workload, at one seed, runs one untraced and two traced
iterations (each in a fresh process, as the benchmark does) and checks:

* every operation's result digest is identical across the three, so
  installing the wrappers does not perturb the program's results;
* every deterministic per-layer count is identical across the two
  traced iterations;
* the engine events the wrappers counted equal the events
  ``ScenarioResult.events`` reports.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from time import perf_counter

from run import TIMED_LAYER_SUFFIXES, load_spec, spawn, tally

SEED = 1


def check_workload(workload: str) -> list:
    deadline = perf_counter() + 170
    plain = spawn(workload, SEED, deadline, small=True)
    traced = [spawn(workload, SEED, deadline, traced=True, small=True)
              for _ in range(2)]
    # Failed operations, and digests that differ from the untraced run's.
    problems = tally([plain] + traced)["errors"]
    if problems:
        return problems
    first, second = (it["layers"] for it in traced)
    for name, value in first.items():
        if not name.endswith(TIMED_LAYER_SUFFIXES) and second[name] != value:
            problems.append(f"{name}: {value} != {second[name]}")
    if "result_events" in plain and \
            first["engine.events"] != plain["result_events"]:
        problems.append(f"engine.events {first['engine.events']} != "
                        f"ScenarioResult.events {plain['result_events']}")
    return problems


def main() -> int:
    failed = False
    for workload in (w["name"] for w in load_spec()["workloads"]):
        problems = check_workload(workload)
        status = "ok" if not problems else "FAIL"
        print(f"{workload}: {status}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
