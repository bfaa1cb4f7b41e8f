"""One fresh-interpreter set-up sample for ``setup_s``.

Usage: ``python perfbench/setup_probe.py <workload> <seed>``

Imports the program, builds the workload's first scenario and executes
its first event; for ``sweep`` it then starts the worker pool and waits
for the first result.  Prints ``ready`` when done; the caller times the
interval from spawning this interpreter to that line.
"""

from __future__ import annotations

import atexit
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import stop_resource_tracker, use_program_source  # noqa: E402


def main(workload: str, seed: int) -> int:
    # Runs after the exit hooks of ``multiprocessing`` (imported below).
    atexit.register(stop_resource_tracker)
    use_program_source()
    from repro.harness.scenario import build_scenario
    from repro.harness.sweep import apply_overrides

    from perfbench import plans

    if workload == "sweep":
        config = apply_overrides(plans.sweep_base(), plans.sweep_points(seed)[0])
    else:
        config = plans.FLOOD_CONFIGS[workload](seed)
    result = build_scenario(config)
    result.net.run(until=config.duration_s, max_events=1)
    if workload == "sweep":
        from repro.harness.parallel import run_tasks, shutdown_pool

        from perfbench.sweep import noop

        run_tasks(noop, [{}] * plans.SWEEP_WORKERS, workers=plans.SWEEP_WORKERS)
        print("ready", flush=True)
        shutdown_pool()
        return 0
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
