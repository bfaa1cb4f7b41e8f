"""Run the ``repro serve`` control plane on an ephemeral port.

Usage: ``python perfbench/serve_host.py [--trace]``

Starts the server through its public entry point
(:func:`repro.service.server.serve`, what ``repro serve`` runs), prints
its announce line and serves until ``POST /shutdown``.  Beside it, on
the same event loop, a calibration chunk is timed every
``CHUNK_EVERY_S`` so the host speed the server saw can be reported.
On exit it prints one JSON line: the chunk times and, with ``--trace``,
the server's per-layer profile and every ``Session.step`` duration.  The
spans themselves go to ``.perfbench/spans-serve.npz``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import OUT_DIR, chunk, use_program_source  # noqa: E402

#: Seconds between calibration chunks on the server's event loop.
CHUNK_EVERY_S = 0.1


async def serve_with_calibration(chunks: list[float]) -> None:
    from repro.service.server import serve

    async def sampler() -> None:
        while True:
            chunks.append(chunk())
            await asyncio.sleep(CHUNK_EVERY_S)

    def announce(server) -> None:
        print(f"repro control plane on http://{server.host}:{server.port}", flush=True)

    calibration = asyncio.get_running_loop().create_task(sampler())
    try:
        await serve("127.0.0.1", 0, announce=announce)
    finally:
        calibration.cancel()
        await asyncio.gather(calibration, return_exceptions=True)


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    use_program_source()
    report: dict = {"chunks": []}
    recorder = None
    slices: list[float] = []
    if trace:
        from repro.service.session import Session

        from perfbench import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
        step = Session.step

        def timed_step(self):
            start = time.perf_counter()
            try:
                return step(self)
            finally:
                slices.append(time.perf_counter() - start)

        Session.step = timed_step
    asyncio.run(serve_with_calibration(report["chunks"]))
    if recorder is not None:
        from perfbench import tracing

        report["profile"] = tracing.layer_profile(recorder)
        report["slices"] = slices
        report["spans"] = len(recorder)
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.dump(os.path.join(OUT_DIR, "spans-serve.npz"))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
