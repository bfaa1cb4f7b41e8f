"""Flash crowd generation: the benign event that fools rate detectors.

A flash crowd is a sudden surge of *legitimate* connections — a link goes
viral, a sale opens.  Its SYN rate can match a flood's, so threshold
monitors false-alarm on it; but every handshake completes, so deep
inspection refutes the alarm.  Experiment E6 uses this generator to
measure exactly that separation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Event
from repro.sim.rng import SeededRng
from repro.tcp.socket import Connection
from repro.tcp.stack import TcpStack
from repro.workload.attacker import _BURST_HORIZON_S


@dataclass(frozen=True)
class FlashCrowdConfig:
    """Flash crowd shape."""

    server_ip: str = ""
    server_port: int = 80
    start_s: float = 5.0
    duration_s: float = 10.0
    connections_per_second: float = 150.0
    request_bytes: int = 120

    def __post_init__(self) -> None:
        if self.connections_per_second <= 0:
            raise ValueError("rate must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")


class FlashCrowd:
    """Drives a burst of short-lived legitimate connections.

    The burst is spread over the given stacks (crowd hosts) round-robin,
    so the connections originate from several genuine addresses that all
    complete their handshakes.
    """

    def __init__(
        self,
        stacks: list[TcpStack],
        rng: SeededRng,
        config: FlashCrowdConfig,
    ) -> None:
        if not stacks:
            raise ValueError("need at least one crowd host")
        if not config.server_ip:
            raise ValueError("server_ip is required")
        self.stacks = stacks
        self.rng = rng
        self.config = config
        self.connections_started = 0
        self.connections_completed = 0
        self.connections_failed = 0
        # Sharded ownership filter: every shard replays the identical
        # round-robin + rng schedule, but only the shard owning a stack's
        # host actually opens its connection (the filter runs *after* the
        # round-robin advance so the stack sequence stays in lockstep).
        self.spawn_filter = None
        self._next_stack = 0
        self._request_payload = b"F" * config.request_bytes
        sim = stacks[0].sim
        self._sim = sim
        # Burst coalescing pregenerates ~50 ms of spawn times per wake-up
        # instead of one heap entry per connection.  Only inter-arrival gaps
        # are drawn from the crowd rng, so the spawned traffic does not
        # depend on where the burst windows fall.
        self._running = False
        self._burst_events: list[Event] = []
        self._t_next = 0.0
        sim.schedule_many(
            [
                (config.start_s, self._begin, "flashcrowd.start"),
                (config.start_s + config.duration_s, self._end, "flashcrowd.end"),
            ]
        )

    def _begin(self) -> None:
        if self._running:
            return
        self._running = True
        first = self._sim.now + self.rng.expovariate(self.config.connections_per_second)
        self._t_next = first
        self._burst_events = [self._sim.schedule_at(first, self._burst_fire, "flashcrowd")]

    def _burst_fire(self) -> None:
        if not self._running:
            return
        rate = self.config.connections_per_second
        rng = self.rng
        t = self._t_next
        horizon = t + _BURST_HORIZON_S
        entries: list[tuple[float, object, str]] = []
        while True:
            t += rng.expovariate(rate)
            if t > horizon:
                break
            entries.append((t, self._spawn, "flashcrowd"))
        self._t_next = t
        entries.append((t, self._burst_fire, "flashcrowd"))
        self._burst_events = self._sim.schedule_at_many(entries)
        # This wake-up *is* an arrival (spawned after the window's draws).
        self._spawn()

    def _end(self) -> None:
        if not self._running:
            return
        self._running = False
        now = self._sim.now
        for event in self._burst_events:
            # Events strictly before now have executed; equal-time events
            # are still pending (this end entry was scheduled earlier, so
            # it wins equal-time ties by sequence number).
            if not event.cancelled and event.time >= now:
                self._sim.cancel(event)
        self._burst_events = []

    def _spawn(self) -> None:
        stack = self.stacks[self._next_stack]
        self._next_stack = (self._next_stack + 1) % len(self.stacks)
        if self.spawn_filter is not None and not self.spawn_filter(stack):
            return
        self.connections_started += 1

        completed = False

        def on_established(conn: Connection) -> None:
            conn.on_data = on_data
            conn.send(self._request_payload)

        def on_data(conn: Connection, data: bytes) -> None:
            nonlocal completed
            if data and not completed:
                completed = True
                self.connections_completed += 1
                conn.close()

        def on_failed(conn: Connection, reason: str) -> None:
            self.connections_failed += 1

        stack.connect(
            self.config.server_ip,
            self.config.server_port,
            on_established=on_established,
            on_failed=on_failed,
        )
