"""Record hybrid_1k's packet-backend reference JFIs in reference.json.

hybrid_1k's fidelity is |hybrid JFI - packet JFI at the same simulator
seed|.  A packet-backend run of the scenario costs several times the
hybrid run, so the reference is measured once per simulator seed of the
pool and committed.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

Re-run it whenever the hybrid_1k scenario, or the packet backend's
results, change on purpose.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.experiments.runner import Discipline, run_scenario  # noqa: E402

import workloads  # noqa: E402

COMMAND = "PYTHONPATH=src python3 perfbench/make_reference.py"


def main() -> int:
    scaled = workloads.heavy_tailed_scenario(workloads.HYBRID_FLOWS,
                                             workloads.HYBRID_DURATION_S)
    packet_jfi = {}
    for sim_seed in range(workloads.HYBRID_SEED_POOL):
        started = time.perf_counter()
        result = run_scenario(scaled, Discipline.FIFO, seed=sim_seed)
        packet_jfi[str(sim_seed)] = result.jfi
        print(f"seed {sim_seed}: packet JFI {result.jfi:.6f} "
              f"({time.perf_counter() - started:.1f} s)", file=sys.stderr)
    reference = {
        "command": COMMAND,
        "hybrid_1k": {
            "scenario": scaled.spec.name,
            "flows": workloads.HYBRID_FLOWS,
            "duration_s": workloads.HYBRID_DURATION_S,
            "discipline": "fifo",
            "backend": "packet",
            "packet_jfi": packet_jfi,
        },
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
