"""The sweep workload: experiment regeneration through the process pool.

Points go through ``repro.harness.parallel.run_scenarios`` with the
sweep cache off, so every point is simulated in a spawn worker.  The
reduction function :func:`sweep_row` runs in the worker; it is
module-level so the pool can pickle it by reference, and importing this
module in a worker started with ``PERFBENCH_TRACE=1`` installs the
span recorder there before the first point is built.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Optional

from repro.harness.fuzzer import fingerprint_json
from repro.harness.scenario import ScenarioResult

from perfbench import checks, tracing
from perfbench.common import chunk, sha256

TRACE_ENV = "PERFBENCH_TRACE"

#: The span recorder of a traced sweep worker, installed before the
#: worker builds its first point.
_recorder: Optional[tracing.SpanRecorder] = None
if os.environ.get(TRACE_ENV) == "1" and multiprocessing.parent_process() is not None:
    _recorder = tracing.SpanRecorder()
    tracing.install(_recorder)


def noop() -> int:
    """Pool warm-up task: its result marks a started worker."""
    return os.getpid()


def sweep_row(result: ScenarioResult) -> dict[str, Any]:
    """Reduce one finished point to plain data (runs in the worker)."""
    config = result.config
    row = {
        "defense": config.defense,
        "detector": config.detector,
        "rate": config.workload.attack_rate_pps,
        "seed": config.seed,
        "attack_window": list(result.attack_window),
        "detections": result.detection_times(),
        "fingerprint": sha256(fingerprint_json(result)),
        "counters": checks.counters(result),
        "pid": os.getpid(),
        "done_at": time.time(),
        # Host speed on this worker right after the point.
        "chunk_s": chunk(),
        "profile": None,
    }
    if _recorder is not None:
        row["profile"] = tracing.layer_profile(_recorder)
        _recorder.clear()
    return row
