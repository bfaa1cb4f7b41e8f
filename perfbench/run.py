"""End-to-end benchmark of the SPI reproduction, with a traced per-layer view.

Usage::

    python3 perfbench/run.py --workload syn-flood --seed 1 --seconds 20 --trace 0

Workloads: ``syn-flood``, ``udp-flood``, ``sweep``, ``serve`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).  The program is driven
only through its public API from the checkout's ``src`` tree.

``--trace 0`` measures for ``--seconds`` seconds with tracing off and
reports the end-to-end metrics.  ``--trace 1`` runs the workload once
untraced (exact counters, baseline time) and once with every layer's
entry points wrapped in spans, and reports the per-layer metrics, the
tracing overhead and whether both runs fingerprint identically.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import subprocess
import sys
import time
from typing import Any, Callable

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    BenchError,
    adopt_orphans,
    calibrate,
    child_env,
    chunk,
    median,
    peak_rss_mb,
    quantile,
    ratio,
    stop_children,
    to_reference,
    use_program_source,
)

WORKLOADS = ("syn-flood", "udp-flood", "sweep", "serve")
#: Fresh-interpreter set-up samples per run (``setup_s`` is their median).
SETUP_SAMPLES = {"syn-flood": 5, "udp-flood": 5, "sweep": 3, "serve": 5}
#: Every untraced run repeats its operation at least this often, so
#: repeats of one seed can be compared byte for byte.
MIN_OPS = 2

E2E_UNITS = {
    "sim_pps": "1/s",
    "resp_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Outcome:
    """Tallies of one run: operations, failures, problems, notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def same_fingerprints(self, what: str, digests: list[str]) -> None:
        """Repeats of one input must fingerprint identically."""
        if len(set(digests)) > 1:
            self.problems.append(f"{what}: repeats fingerprinted differently")
            self.failed += len(digests) - 1


# --------------------------------------------------------------- set-up


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Reference seconds from a fresh interpreter to the first simulated event.

    Floods: import + ``build_scenario`` + first event.  Sweep: the same
    plus pool start-up until the first result.  Serve: server start
    until it listens, plus creating both sessions.
    """
    samples = []
    for _ in range(SETUP_SAMPLES[workload]):
        to_ref = to_reference([chunk() for _ in range(5)])
        start = time.perf_counter()
        if workload == "serve":
            from repro.harness.serialize import config_to_dict

            from perfbench import plans
            from perfbench.serve import Server

            with Server(trace=False) as server:
                for config in plans.serve_configs(seed, 1.0):
                    server.client.create_session(
                        config_to_dict(config),
                        slice_events=plans.SERVE_SLICE_EVENTS,
                        slice_s=plans.SERVE_SLICE_S,
                    )
                samples.append((time.perf_counter() - start) * to_ref)
            continue
        probe = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "setup_probe.py"),
             workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
        )
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.communicate(timeout=120)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed: {line!r}")
        samples.append(elapsed * to_ref)
    return samples


def _repeat(op: Callable[[], dict[str, Any]], seconds: float) -> list[dict[str, Any]]:
    """Run ``op`` until ``seconds`` would be overrun (at least ``MIN_OPS``)."""
    ops: list[dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        ops.append(op())
        elapsed = time.perf_counter() - start
        typical = median([o["seconds"] for o in ops])
        if len(ops) >= MIN_OPS and elapsed + typical > seconds:
            return ops


def response_p50(values_ms: list[float], what: str, out: Outcome) -> float:
    """Median response time; the p95 and sample counts go to the notes.

    p95 is reported, not gated: on ``serve`` it is set by the server's
    full garbage collections and spreads more than any allowed bound.
    """
    beyond = sum(1 for v in values_ms if v > quantile(values_ms, 0.95))
    out.notes.append(f"{what}: {len(values_ms)} samples, p50 "
                     f"{quantile(values_ms, 0.5):.3f} ms, p95 "
                     f"{quantile(values_ms, 0.95):.3f} ms ({beyond} beyond)")
    return quantile(values_ms, 0.5)


# --------------------------------------------------------------- floods


def flood_untraced(workload: str, seed: int, seconds: float, out: Outcome) -> dict:
    from perfbench import floods, plans

    config = plans.FLOOD_CONFIGS[workload](seed)
    ops = _repeat(lambda: floods.run_once(config), seconds)
    for op in ops:
        out.op(op["problems"])
    out.same_fingerprints(workload, [op["fingerprint"] for op in ops])
    run_s = median([op["ref_seconds"] for op in ops])
    # Slice k is the same work in every repeat: its median over repeats.
    slice_ms = [median(list(t)) * 1000.0 for t in zip(*(op["ref_slices"] for op in ops))]
    out.notes.append(f"ops {len(ops)}  fingerprint {ops[0]['fingerprint']}")
    out.notes.append(f"frames/op {ops[0]['frames']}  slices/op {len(slice_ms)}")
    out.notes.append("op host seconds " + " ".join(f"{op['seconds']:.3f}" for op in ops))
    out.notes.append("op reference seconds "
                     + " ".join(f"{op['ref_seconds']:.3f}" for op in ops))
    return {
        "sim_pps": ops[0]["frames"] / run_s,
        "resp_p50_ms": response_p50(slice_ms, "slice hold time", out),
    }


def flood_traced(workload: str, seed: int, out: Outcome) -> dict:
    from perfbench import floods, plans, tracing

    config = plans.FLOOD_CONFIGS[workload](seed)
    plain = floods.run_once(config)
    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    traced = floods.run_once(config)
    out.op(plain["problems"])
    out.op(traced["problems"])
    out.same_fingerprints(f"{workload} traced vs untraced",
                          [plain["fingerprint"], traced["fingerprint"]])
    _dump(recorder, workload)
    return layer_metrics(
        profile=tracing.layer_profile(recorder),
        counts=plain["counters"],
        overhead=traced["ref_seconds"] / plain["ref_seconds"],
        fingerprint_match=plain["fingerprint"] == traced["fingerprint"],
        spans=len(recorder),
        responses_ms=[t * 1000.0 for t in plain["ref_slices"]],
    )


# ---------------------------------------------------------------- sweep


def _start_pool() -> float:
    """Start the worker pool; seconds until every warm-up task returned."""
    from repro.harness.parallel import run_tasks

    from perfbench import plans
    from perfbench.sweep import noop

    start = time.perf_counter()
    run_tasks(noop, [{}] * plans.SWEEP_WORKERS, workers=plans.SWEEP_WORKERS)
    return time.perf_counter() - start


def _sweep_once(seed: int) -> dict[str, Any]:
    from repro.harness.parallel import pool_transport_stats, run_scenarios

    from perfbench import plans
    from perfbench.sweep import sweep_row

    stats = pool_transport_stats()
    shm_before, pickled_before = stats.shm_bytes, stats.pickle_results
    called_at = time.time()
    start = time.perf_counter()
    rows = run_scenarios(
        plans.sweep_base(), plans.sweep_points(seed), extract=sweep_row,
        workers=plans.SWEEP_WORKERS, cache=None,
    )
    elapsed = time.perf_counter() - start
    returned_at = called_at + elapsed
    stats = pool_transport_stats()
    result_bytes = stats.shm_bytes - shm_before
    if stats.pickle_results != pickled_before:
        import pickle

        result_bytes += len(pickle.dumps(rows))
    # Per-worker completion times give task durations and straggler wait.
    by_worker: dict[int, list[float]] = {}
    for row in rows:
        by_worker.setdefault(row["pid"], []).append(row["done_at"])
    task_s, idle_s = [], 0.0
    for done in by_worker.values():
        done.sort()
        task_s.extend(b - a for a, b in zip([called_at] + done, done))
        idle_s += max(0.0, returned_at - done[-1])
    to_ref = to_reference([row["chunk_s"] for row in rows])
    return {
        "seconds": elapsed,
        "ref_seconds": elapsed * to_ref,
        "rows": rows,
        "frames": sum(row["counters"]["net.link.frames"] for row in rows),
        "point_ref_ms": [(row["done_at"] - called_at) * 1000.0 * to_ref for row in rows],
        "task_s": task_s,
        "idle_s": idle_s,
        "result_bytes": result_bytes,
    }


def _check_sweep(sweeps: list[dict[str, Any]], out: Outcome) -> None:
    from perfbench import checks, plans

    for sweep in sweeps:
        for row in sweep["rows"]:
            out.op(checks.sweep_point_problems(row))
        problems = checks.sweep_problems(sweep["rows"], max(plans.SWEEP_RATES))
        out.problems.extend(problems)
        out.failed += len(problems)
    for index in range(len(sweeps[0]["rows"])):
        out.same_fingerprints(
            f"sweep point {index}",
            [sweep["rows"][index]["fingerprint"] for sweep in sweeps],
        )


def sweep_untraced(seed: int, seconds: float, out: Outcome) -> dict:
    from repro.harness.cache import set_default_cache
    from repro.harness.parallel import shutdown_pool

    set_default_cache(None)
    try:
        out.notes.append(f"pool start {_start_pool():.3f} s")
        sweeps = _repeat(lambda: _sweep_once(seed), seconds)
    finally:
        shutdown_pool()
    _check_sweep(sweeps, out)
    out.notes.append(f"sweeps {len(sweeps)}  frames/sweep {sweeps[0]['frames']}")
    out.notes.append("sweep host seconds " + " ".join(f"{s['seconds']:.3f}" for s in sweeps))
    out.notes.append("sweep reference seconds "
                     + " ".join(f"{s['ref_seconds']:.3f}" for s in sweeps))
    points = [ms for sweep in sweeps for ms in sweep["point_ref_ms"]]
    return {
        "sim_pps": sweeps[0]["frames"] / median([s["ref_seconds"] for s in sweeps]),
        "resp_p50_ms": response_p50(points, "sweep point latency", out),
    }


def sweep_traced(seed: int, out: Outcome) -> dict:
    from repro.harness.cache import set_default_cache
    from repro.harness.parallel import shutdown_pool

    from perfbench import checks, tracing
    from perfbench.sweep import TRACE_ENV

    set_default_cache(None)
    try:
        pool_start = _start_pool()
        plain = _sweep_once(seed)
        shutdown_pool()
        # Workers spawned from here on install the span recorder.
        os.environ[TRACE_ENV] = "1"
        _start_pool()
        traced = _sweep_once(seed)
    finally:
        os.environ.pop(TRACE_ENV, None)
        shutdown_pool()
    _check_sweep([plain, traced], out)
    matched = all(
        a["fingerprint"] == b["fingerprint"]
        for a, b in zip(plain["rows"], traced["rows"])
    )
    profile = tracing.merge_profiles(row["profile"] for row in traced["rows"])
    return layer_metrics(
        profile=profile,
        counts=checks.sum_counters(row["counters"] for row in plain["rows"]),
        overhead=traced["ref_seconds"] / plain["ref_seconds"],
        fingerprint_match=matched,
        spans=sum(p["calls"] for p in profile.values()),
        responses_ms=plain["point_ref_ms"],
        extra={
            "harness.pool_start_s": pool_start,
            "harness.task_s_p50": quantile(plain["task_s"], 0.5),
            "harness.task_s_max": max(plain["task_s"]),
            "harness.worker_idle_s": plain["idle_s"],
            "harness.result_bytes": plain["result_bytes"],
        },
    )


# ---------------------------------------------------------------- serve


def _serve_checks(op: dict[str, Any], out: Outcome) -> list[float]:
    latencies = []
    for sample in op["samples"]:
        ok = sample["status"] is not None and 200 <= sample["status"] < 300
        out.op([] if ok else [f"{sample['action']} returned {sample['status']}"])
        latencies.append((sample["done"] - sample["due"]) * 1000.0)
    problems = op["problems"]
    out.attempted += 2
    out.failed += min(2, len(problems))
    out.problems.extend(problems)
    return latencies


def serve_untraced(seed: int, seconds: float, out: Outcome) -> dict:
    from perfbench import plans, serve

    # Each op starts its own server, so a server that lands on a busy core
    # sways one op of several, not the run.
    ops = [serve.run_once(seed, seconds / plans.SERVE_OPS) for _ in range(plans.SERVE_OPS)]
    pps, p50s, pooled = [], [], []
    for op in ops:
        to_ref = to_reference(op["chunks"])
        latencies = [ms * to_ref for ms in _serve_checks(op, out)]
        pps.append(op["frames"] / (op["seconds"] * to_ref))
        p50s.append(quantile(latencies, 0.5))
        pooled.extend(latencies)
        out.notes.append(f"op: {len(latencies)} requests, host seconds "
                         f"{op['seconds']:.3f}, reference seconds "
                         f"{op['seconds'] * to_ref:.3f}, fingerprints {op['fingerprints']}")
    lag = [(s["sent"] - s["due"]) * 1000.0 for op in ops for s in op["samples"]]
    out.notes.append(f"generator lag p50 {quantile(lag, 0.5):.2f} ms  "
                     f"p95 {quantile(lag, 0.95):.2f} ms")
    response_p50(pooled, "request latency from due time, all ops", out)
    return {"sim_pps": median(pps), "resp_p50_ms": median(p50s)}


def serve_traced(seed: int, seconds: float, out: Outcome) -> dict:
    from perfbench import serve

    plain = serve.run_once(seed, seconds / 2)
    traced = serve.run_once(seed, seconds / 2, trace=True)
    _serve_checks(plain, out)
    _serve_checks(traced, out)
    host = traced["host"]
    samples = plain["samples"]

    def round_trip_ms(kinds: Callable[[str], bool]) -> float:
        values = [(s["done"] - s["sent"]) * 1000.0 for s in samples if kinds(s["action"])]
        return quantile(values, 0.5) if values else 0.0

    slices = host.get("slices") or [0.0]
    plain_pps = plain["frames"] / (plain["seconds"] * to_reference(plain["chunks"]))
    traced_pps = traced["frames"] / (traced["seconds"] * to_reference(traced["chunks"]))
    # Served fingerprints depend on when writes land, so they are compared
    # and reported here but a mismatch does not fail the run.
    same = [a == b for a, b in zip(plain["fingerprints"], traced["fingerprints"])]
    return layer_metrics(
        profile=host.get("profile", {}),
        counts=plain["counters"],
        overhead=ratio(plain_pps, traced_pps),
        fingerprint_match=ratio(sum(same), len(same)),
        spans=host.get("spans", 0),
        responses_ms=[
            (s["done"] - s["due"]) * 1000.0 * to_reference(plain["chunks"])
            for s in samples
        ],
        extra={
            "service.slice_s_p50": quantile(slices, 0.5),
            "service.slice_s_max": max(slices),
            "service.slices_per_request": ratio(len(host.get("slices", [])),
                                                len(traced["samples"])),
            "service.read_ms_p50": round_trip_ms(lambda a: a not in serve.WRITES),
            "service.write_ms_p50": round_trip_ms(lambda a: a in serve.WRITES),
            # How late the generator sent its requests (p95).
            "bench.gen_lag_ms": quantile(
                [(s["sent"] - s["due"]) * 1000.0 for s in samples], 0.95),
        },
    )


# ------------------------------------------------------------ reporting

#: Per-layer metrics beyond ``<layer>.self_s`` / ``<layer>.calls``.
EXTRA_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_frame": "ratio",
    "net.link.frames": "count",
    "net.link.queue_drop_ratio": "ratio",
    "net.packet.pool_hit_ratio": "ratio",
    "inspection.frames": "count",
    "switch.punt_ratio": "ratio",
    "switch.buffer_evictions": "count",
    "openflow.flowtable.miss_ratio": "ratio",
    "openflow.flowtable.microflow_hit_ratio": "ratio",
    "openflow.channel.msgs": "count",
    "openflow.channel.bytes": "B",
    "controller.packet_ins": "count",
    "monitor.windows": "count",
    "monitor.alerts": "count",
    "core.mirrored_fraction": "ratio",
    "core.confirmed": "count",
    "core.refuted": "count",
    "mitigation.blocks": "count",
    "tcp.handshakes_completed": "count",
    "tcp.backlog_drops": "count",
    "harness.pool_start_s": "s",
    "harness.task_s_p50": "s",
    "harness.task_s_max": "s",
    "harness.worker_idle_s": "s",
    "harness.result_bytes": "B",
    "service.slice_s_p50": "s",
    "service.slice_s_max": "s",
    "service.slices_per_request": "ratio",
    "service.read_ms_p50": "ms",
    "service.write_ms_p50": "ms",
    "bench.gen_lag_ms": "ms",
    "bench.resp_p95_ms": "ms",
    "bench.resp_samples": "count",
    "bench.trace_overhead": "x",
    "bench.fingerprint_match": "ratio",
    "bench.spans": "count",
    "bench.calib_ms": "ms",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from perfbench.tracing import LAYERS

    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(EXTRA_LAYER_UNITS)
    return units


def layer_metrics(
    profile: dict[str, dict[str, float]],
    counts: dict[str, float],
    overhead: float,
    fingerprint_match: float,
    spans: int,
    responses_ms: list[float],
    extra: dict[str, float] | None = None,
) -> dict[str, float]:
    """Assemble every per-layer metric; layers a workload bypasses read 0."""
    from perfbench.tracing import LAYERS

    c = counts.get
    values: dict[str, float] = {}
    for layer in LAYERS:
        row = profile.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    frames = c("net.link.frames", 0)
    values.update({
        "sim.events": c("sim.events", 0),
        "sim.events_per_frame": ratio(c("sim.events", 0), frames),
        "net.link.frames": frames,
        "net.link.queue_drop_ratio": ratio(
            c("net.link.queue_drops", 0), frames + c("net.link.queue_drops", 0)),
        "net.packet.pool_hit_ratio": ratio(
            c("net.packet.pool_hits", 0),
            c("net.packet.pool_hits", 0) + c("net.packet.pool_misses", 0)),
        "inspection.frames": c("inspection.frames", 0),
        "switch.punt_ratio": ratio(c("switch.punts", 0), c("switch.packets_in", 0)),
        "switch.buffer_evictions": c("switch.buffer_evictions", 0),
        "openflow.flowtable.miss_ratio": ratio(
            c("openflow.flowtable.misses", 0), c("openflow.flowtable.lookups", 0)),
        "openflow.flowtable.microflow_hit_ratio": ratio(
            c("openflow.flowtable.microflow_hits", 0),
            c("openflow.flowtable.microflow_hits", 0)
            + c("openflow.flowtable.microflow_misses", 0)),
        "openflow.channel.msgs": c("openflow.channel.msgs", 0),
        "openflow.channel.bytes": c("openflow.channel.bytes", 0),
        "controller.packet_ins": c("controller.packet_ins", 0),
        "monitor.windows": c("monitor.windows", 0),
        "monitor.alerts": c("monitor.alerts", 0),
        "core.mirrored_fraction": ratio(c("switch.mirrored", 0), c("switch.packets_in", 0)),
        "core.confirmed": c("core.confirmed", 0),
        "core.refuted": c("core.refuted", 0),
        "mitigation.blocks": c("mitigation.blocks", 0),
        "tcp.handshakes_completed": c("tcp.handshakes_completed", 0),
        "tcp.backlog_drops": c("tcp.backlog_drops", 0),
    })
    for name in EXTRA_LAYER_UNITS:
        if name.startswith(("harness.", "service.", "bench.")):
            values[name] = 0.0
    values.update(extra or {})
    values["bench.resp_p95_ms"] = quantile(responses_ms, 0.95)
    values["bench.resp_samples"] = len(responses_ms)
    values["bench.trace_overhead"] = overhead
    values["bench.fingerprint_match"] = float(fingerprint_match)
    values["bench.spans"] = spans
    return values


def _dump(recorder: Any, workload: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.dump(os.path.join(OUT_DIR, f"spans-{workload}.npz"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_program_source()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    adopt_orphans()
    # Registered before anything imports ``multiprocessing``, so it runs
    # after that package's exit hooks have released what they tracked.
    atexit.register(stop_children)
    return run(args)


def run(args: argparse.Namespace) -> int:
    """Measure one workload as ``args`` ask and print the report."""
    out = Outcome()
    chunk_before = calibrate()
    workload, seed, seconds = args.workload, args.seed, args.seconds
    if args.trace:
        if workload == "sweep":
            values = sweep_traced(seed, out)
        elif workload == "serve":
            values = serve_traced(seed, seconds, out)
        else:
            values = flood_traced(workload, seed, out)
        units = layer_units()
    else:
        setup = setup_seconds(workload, seed)
        if workload == "sweep":
            values = sweep_untraced(seed, seconds, out)
        elif workload == "serve":
            values = serve_untraced(seed, seconds, out)
        else:
            values = flood_untraced(workload, seed, seconds, out)
        values["setup_s"] = median(setup)
        values["peak_rss_mb"] = peak_rss_mb()
        out.notes.append("setup samples " + " ".join(f"{s:.3f}" for s in setup))
        units = E2E_UNITS
    calib_ms = (chunk_before + calibrate()) / 2 * 1000.0
    if args.trace:
        values["bench.calib_ms"] = calib_ms
    out.notes.append(f"calibration chunk {calib_ms:.3f} ms (reference 0.4 ms)")

    correct = out.failed == 0 and not out.problems
    print(f"workload {workload}  seed {seed}  trace {args.trace}")
    for note in out.notes:
        print(f"  {note}")
    for problem in out.problems:
        print(f"  FAILED CHECK: {problem}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  attempted {out.attempted}  failed {out.failed}  "
          f"fail_ratio {ratio(out.failed, out.attempted):.4f}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
