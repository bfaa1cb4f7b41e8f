"""The flood workloads: one scenario built, run and finished in process.

The run advances in slices of ``SLICE_EVENTS`` events through
``Network.run``.  Each slice is timed and followed by one calibration
chunk, which measures the host's speed at that moment.  Slicing never
changes a result: the engine executes the same events in the same order
however a run is cut.  The time of a slice is also how long a caller
embedding the simulator (a control read, say) can be kept waiting
between two slices.
"""

from __future__ import annotations

import time
from typing import Any

from repro.harness.fuzzer import fingerprint_json
from repro.harness.scenario import ScenarioConfig, build_scenario, finish_scenario

from perfbench import checks
from perfbench.common import REF_CHUNK_S, chunk, sha256, to_reference
from perfbench.plans import SLICE_EVENTS


def run_once(config: ScenarioConfig) -> dict[str, Any]:
    """Build, slice-run and finish ``config``.

    Returns the run's time in host and in reference seconds (see
    :func:`perfbench.common.to_reference`), every slice's reference
    time, the fingerprint digest, claim problems and raw counters.
    """
    clock = time.perf_counter
    chunks = [chunk()]
    slices: list[float] = []
    start = clock()
    result = build_scenario(config)
    sim = result.net.sim
    while True:
        before = sim.events_executed
        slice_start = clock()
        result.net.run(until=config.duration_s, max_events=SLICE_EVENTS)
        slices.append(clock() - slice_start)
        chunks.append(chunk())
        if sim.events_executed - before < SLICE_EVENTS:
            break
    finish_scenario(result)
    elapsed = clock() - start - sum(chunks[1:])
    # Each slice is scaled by the chunk right after it; build and finish
    # by the run's median chunk.
    ref_slices = [t * REF_CHUNK_S / c for t, c in zip(slices, chunks[1:])]
    outside = (elapsed - sum(slices)) * to_reference(chunks)
    counts = checks.counters(result)
    return {
        "seconds": elapsed,
        "ref_seconds": outside + sum(ref_slices),
        "ref_slices": ref_slices,
        "frames": counts["net.link.frames"],
        "fingerprint": sha256(fingerprint_json(result)),
        "problems": checks.flood_problems(result),
        "counters": counts,
    }
