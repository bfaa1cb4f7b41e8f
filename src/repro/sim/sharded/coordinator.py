"""Conservative epoch barrier driving a fleet of shard runtimes.

The synchronization protocol is classic conservative parallel DES
(LBTS / null messages), collapsed to one round trip per epoch:

1. **LBTS.**  The coordinator computes ``T`` — the minimum over every
   shard's earliest pending event time and every routed-but-undelivered
   boundary record's arrival time.  No event anywhere can exist before
   ``T``.
2. **Horizon.**  With lookahead ``λ`` (the minimum latency of any
   cross-shard surface, identical on every shard), any message emitted
   while executing events at times ``≥ T`` arrives at ``≥ T + λ``.  So
   every event *strictly before* ``T + λ`` is safe: the epoch's run
   limit is the largest float below ``T + λ`` (capped by the advance
   target).
3. **Exchange.**  Each shard ingests the records routed to it, runs to
   the limit, and returns its new earliest event time plus the records
   it emitted.  The coordinator routes those by destination for the
   next epoch — they all arrive beyond the limit just run, so no shard
   ever receives a message in its past.

Shard 0 lives in the coordinator process (the controller, correlator,
mitigation manager and every alert subscriber run there, and the
service layer reconfigures it directly); shards ``1..n-1`` are spawned
:class:`~repro.harness.shards.ShardWorker` processes, or
``InlineShardWorker`` stand-ins when ``inline=True``.  A worker failure
anywhere surfaces as :class:`~repro.harness.shards.ShardWorkerError`
after the surviving siblings are torn down.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.harness.scenario import ScenarioConfig, ScenarioResult, effective_config
from repro.harness.serialize import config_to_dict
from repro.harness.shards import (
    InlineShardWorker,
    ShardWorker,
    ShardWorkerError,
    shutdown_workers,
)
from repro.sim.sharded.merge import graft_workload, merged_fingerprint_data
from repro.sim.sharded.runtime import ShardRuntime

__all__ = ["ShardedRun", "ShardedResult", "run_sharded_scenario"]


class ShardedResult:
    """A finished sharded run: coordinator result + merged fingerprint.

    Delegates every accessor to the coordinator's
    :class:`ScenarioResult` (detections, mitigation state, config, the
    trace — all centralized state is exact there) while carrying the
    cross-shard ``fingerprint_data`` that
    :func:`repro.harness.fuzzer.fingerprint` returns verbatim.
    """

    is_sharded = True

    def __init__(
        self,
        base: ScenarioResult,
        fingerprint_data: dict[str, Any],
        boundary_stats: Optional[dict[str, Any]] = None,
    ):
        self._base = base
        self.fingerprint_data = fingerprint_data
        #: Boundary-exchange telemetry: epoch count and routed records.
        self.boundary_stats = boundary_stats or {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._base, name)

    # Datapath-wide aggregates answered from the merged rows — the
    # coordinator's replicas of foreign switches saw no traffic, so the
    # delegated implementations would undercount.

    def buffer_evictions(self) -> int:
        """Packet-in buffer evictions across all shards' switches."""
        return self.fingerprint_data["buffer_evictions"]

    def inspected_fraction(self) -> float:
        """Share of datapath packets deep-inspected, topology-wide."""
        return self.fingerprint_data["inspected_fraction"]


class ShardedRun:
    """One sharded scenario being driven epoch by epoch."""

    def __init__(
        self,
        config: ScenarioConfig,
        *,
        inline: bool = False,
        timeout_s: Optional[float] = None,
    ) -> None:
        if config.shards < 1:
            raise ValueError("shard count must be >= 1")
        config = effective_config(config)
        self.config = config
        self.duration = config.duration_s
        self.coordinator = ShardRuntime(config, 0)
        # Gates bare coordinator-side mutations that cannot reach worker
        # replicas; detector/monitor retunes go through
        # :meth:`schedule_reconfig`, which broadcasts to every shard.
        self.coordinator.result.is_sharded = True
        self.lookahead = self.coordinator.lookahead
        self.result: Optional[ShardedResult] = None
        #: Barrier rounds run so far (telemetry; benchmarks report it).
        self.epochs = 0
        #: Boundary records routed through the barrier (all shard pairs,
        #: coordinator-local included).
        self.boundary_records = 0
        self.workers: list = []
        self._pending: list[list[tuple[int, list[tuple]]]] = [
            [] for _ in range(config.shards)
        ]
        self._next = [math.inf] * config.shards
        # Barrier-aligned retune broadcasts: (at, seq, target, params,
        # callback) ordered by time then registration.
        self._reconfigs: list[tuple] = []
        self._reconfig_seq = 0
        try:
            config_data = config_to_dict(config)
            for shard in range(1, config.shards):
                if inline:
                    self.workers.append(InlineShardWorker(shard, config_data))
                elif timeout_s is None:
                    self.workers.append(ShardWorker(shard, config_data))
                else:
                    self.workers.append(
                        ShardWorker(shard, config_data, timeout_s=timeout_s)
                    )
            self._next[0] = self.coordinator.next_time()
            for worker in self.workers:
                self._next[worker.shard] = worker.ready()
        except BaseException:
            shutdown_workers(self.workers)
            raise

    # ------------------------------------------------------------- barrier

    @property
    def now(self) -> float:
        """The coordinator's pinned clock (all shards agree at barriers)."""
        return self.coordinator.result.net.sim.now

    def _lbts(self) -> float:
        """Lower bound on any future event time, anywhere."""
        bound = min(self._next)
        for batches in self._pending:
            for _src, records in batches:
                for record in records:
                    bound = min(bound, record[0])
        return bound

    def _route(self, src: int, outbox: list[tuple]) -> None:
        self.boundary_records += len(outbox)
        by_dest: dict[int, list[tuple]] = {}
        for record in outbox:
            by_dest.setdefault(record[5], []).append(record)
        for dest, records in by_dest.items():
            self._pending[dest].append((src, records))

    def _exchange(self, request_for, stage: str) -> None:
        """One barrier round: dispatch everywhere, then collect everywhere.

        Workers receive their requests before the coordinator's own
        (in-process) turn runs, so worker epochs overlap the
        coordinator's simulation wall-clock.
        """
        try:
            for worker in self.workers:
                worker.send(request_for(worker.shard))
            tag = request_for(0)[0]
            if tag == "epoch":
                _tag, batches, limit = request_for(0)
                self.coordinator.ingest(batches)
                self.coordinator.run_until(limit)
            else:
                self.coordinator.stop_workload()
            self._next[0] = self.coordinator.next_time()
            self._route(0, self.coordinator.take_outbox())
            for worker in self.workers:
                next_time, outbox = worker.recv(stage)
                self._next[worker.shard] = next_time
                self._route(worker.shard, outbox)
        except BaseException:
            shutdown_workers(self.workers)
            raise

    def _run_epoch(self, cap: float) -> bool:
        """Run one epoch of events at times ``<= cap``; False when none."""
        lbts = self._lbts()
        if lbts > cap:
            return False
        if math.isinf(self.lookahead):
            limit = cap
        else:
            limit = min(math.nextafter(lbts + self.lookahead, -math.inf), cap)
            limit = max(limit, lbts)
        batches = self._pending
        self._pending = [[] for _ in range(self.config.shards)]
        self._exchange(lambda shard: ("epoch", batches[shard], limit), "epoch")
        self.epochs += 1
        return True

    def _pin(self, target: float) -> None:
        """Advance every idle clock to ``target`` (no events remain there)."""
        if self.now >= target:
            return
        self._exchange(lambda shard: ("epoch", [], target), "pin")

    # ------------------------------------------------------------ reconfig

    def schedule_reconfig(
        self,
        at: float,
        target: str,
        params: dict,
        callback: Optional[Callable] = None,
    ) -> None:
        """Register a retune to broadcast to every shard at time ``at``.

        Detector/monitor retunes cannot ride the coordinator's
        simulation clock — the monitors execute on the worker shards
        that own their switches — so they are applied at an epoch
        barrier instead: :meth:`advance` cuts its epochs just below
        ``at``, applies the mutation to the coordinator's scenario
        (shard 0's monitors live here, and validation is atomic), ships
        the same ``("reconfig", target, params)`` request to every
        worker, then resumes.  The retune is therefore in effect before
        any event at time ``>= at`` executes, on every shard.  Times in
        the past clamp to the current barrier.  ``callback(at, applied,
        detail)`` reports the outcome — ``applied`` is the change dict
        on success, ``detail`` the rejection message otherwise.
        """
        heapq.heappush(
            self._reconfigs,
            (max(at, self.now), self._reconfig_seq, target, dict(params), callback),
        )
        self._reconfig_seq += 1

    def _broadcast_reconfig(self, target: str, params: dict) -> None:
        """One barrier round applying a validated retune on every worker."""
        try:
            for worker in self.workers:
                worker.send(("reconfig", target, params))
            for worker in self.workers:
                worker.recv("reconfig")
        except BaseException:
            shutdown_workers(self.workers)
            raise

    def _apply_due_reconfigs(self, target: float) -> None:
        """Run up to and apply every registered retune at times ``<= target``."""
        from repro.service.reconfig import apply_reconfig

        while self._reconfigs and self._reconfigs[0][0] <= target:
            at, _seq, tgt, params, callback = heapq.heappop(self._reconfigs)
            cut = math.nextafter(at, -math.inf)
            while self._run_epoch(cut):
                pass
            self._pin(cut)
            try:
                applied = apply_reconfig(
                    self.coordinator.result, tgt, params, broadcast=True
                )
            except (ValueError, KeyError) as exc:
                # Validation rejected the retune before any mutation, on
                # the same config every shard shares — nothing to ship.
                if callback is not None:
                    callback(at, None, str(exc))
                continue
            self._broadcast_reconfig(tgt, params)
            if callback is not None:
                callback(at, applied, None)

    # ------------------------------------------------------------- driving

    def advance(self, target: float) -> float:
        """Run every shard's events up to ``target`` (inclusive); pin clocks."""
        target = min(target, self.duration)
        self._apply_due_reconfigs(target)
        while self._run_epoch(target):
            pass
        self._pin(target)
        return self.now

    def stop_workload(self) -> None:
        """Stop traffic generators on every shard at the current barrier."""
        self._exchange(lambda shard: ("stop_workload",), "stop_workload")

    def set_duration(self, duration: float) -> None:
        """Shorten the run (service drain moves the end of the session)."""
        self.duration = min(self.duration, duration)

    def finalize(self) -> ShardedResult:
        """Close every shard, merge reports, release the workers."""
        if self.result is not None:
            return self.result
        try:
            for worker in self.workers:
                worker.send(("finish", self.duration))
            reports = [self.coordinator.finish(self.duration)]
            for worker in self.workers:
                reports.append(worker.recv("finish"))
        except BaseException:
            shutdown_workers(self.workers)
            raise
        graft_workload(self.coordinator.result, reports)
        data = merged_fingerprint_data(self.coordinator.result, reports)
        stats = {"epochs": self.epochs, "boundary_records": self.boundary_records}
        self.result = ShardedResult(self.coordinator.result, data, stats)
        shutdown_workers(self.workers)
        self.workers = []
        return self.result

    def run_to_completion(self) -> ShardedResult:
        """The batch path: all epochs, then finalize."""
        self.advance(self.duration)
        return self.finalize()

    def close(self) -> None:
        """Release worker processes (idempotent)."""
        shutdown_workers(self.workers)
        self.workers = []


def run_sharded_scenario(
    config: ScenarioConfig, *, inline: bool = False
) -> ShardedResult:
    """Build, run and merge one sharded scenario (the batch path)."""
    return ShardedRun(config, inline=inline).run_to_completion()
