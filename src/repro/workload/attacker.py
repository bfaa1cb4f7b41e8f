"""Flood attack generators (the hping3 stand-in).

``SynFloodAttacker`` crafts raw SYN segments below the TCP stack —
spoofed source addresses from a configurable pool, random source ports
and sequence numbers, at a configurable rate with optional ramp-up —
exactly the packet stream ``hping3 -S --flood --rand-source`` produces on
a testbed.  ``UdpFloodAttacker`` provides the volumetric comparison
workload.

Both attackers generate Poisson arrivals in *burst events*: instead of
one self-rescheduling heap event per arrival, a burst event pre-generates
~50 ms of arrivals at a time (the next gap is drawn before each packet's
randomness), crafts the packets through a
:class:`repro.net.packet.SynFloodTemplate`/``UdpFloodTemplate`` (wire
bytes pre-packed, checksums patched incrementally), and fans the
emissions out through one ``schedule_at_many`` batch sharing a single
bound-method callback.  Overdrawing the attacker's RNG past the attack
end is harmless: the stream is an exclusive ``rng.child`` nobody else
reads.  When the host routes through an ARP service, or MAC resolution
fails, crafting falls back to the per-packet ``send_tcp``/``send_udp``
path (same draws, same counters) so ARP semantics are preserved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.net.headers import TCP_SYN, TcpHeader, UdpHeader
from repro.net.host import Host
from repro.net.packet import SynFloodTemplate, UdpFloodTemplate
from repro.sim.rng import SeededRng

#: Seconds of Poisson arrivals pre-generated per burst event.
_BURST_HORIZON_S = 0.05


@dataclass(frozen=True)
class AttackSchedule:
    """When the attack runs (relative to simulation start).

    ``pulse_on_s``/``pulse_off_s`` turn the flood into a pulsing (on-off)
    attack — the classic evasion against duty-cycled inspection, used in
    experiment E8.  ``ramp_s`` ramps the rate linearly from zero at
    onset, the low-and-slow shape CUSUM-style detectors exist for.
    """

    start_s: float = 0.0
    duration_s: float = float("inf")
    ramp_s: float = 0.0  # linear rate ramp from 0 to full over this period
    pulse_on_s: float = 0.0  # 0 = continuous
    pulse_off_s: float = 0.0

    def __post_init__(self) -> None:
        if (self.pulse_on_s > 0) != (self.pulse_off_s > 0):
            raise ValueError("pulsing needs both pulse_on_s and pulse_off_s")

    def rate_multiplier(self, now: float) -> float:
        """Fraction of the nominal rate active at ``now``."""
        if now < self.start_s or now >= self.start_s + self.duration_s:
            return 0.0
        if self.pulse_on_s > 0:
            phase = (now - self.start_s) % (self.pulse_on_s + self.pulse_off_s)
            if phase >= self.pulse_on_s:
                return 0.0
        if self.ramp_s > 0 and now < self.start_s + self.ramp_s:
            return (now - self.start_s) / self.ramp_s
        return 1.0


@dataclass(frozen=True)
class SynFloodConfig:
    """SYN flood parameters."""

    victim_ip: str = ""
    victim_port: int = 80
    rate_pps: float = 200.0
    spoof: bool = True
    spoof_prefix: str = "198.18."  # RFC 2544 benchmark range: never real hosts
    spoof_pool_size: int = 0  # 0 = unbounded random (hping3 --rand-source)
    schedule: AttackSchedule = field(default_factory=AttackSchedule)

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("rate must be positive")
        if self.spoof_pool_size < 0:
            raise ValueError("spoof pool size must be >= 0")


class _FloodAttacker:
    """Shared flood machinery: burst-scheduled Poisson arrivals.

    Subclasses define ``_kind`` plus three hooks: ``_build_template()``
    (may return ``None`` to keep per-packet sends), ``_craft(t)`` (draws
    the per-packet randomness and returns a finished packet, a fallback
    send tuple, or ``None`` for a suppressed arrival) and ``_emit(item)``
    (puts one crafted item on the wire).
    """

    _kind = "flood"

    def __init__(self, host: Host, rng: SeededRng, config) -> None:
        if not config.victim_ip:
            raise ValueError("victim_ip is required")
        self.host = host
        self.rng = rng
        self.config = config
        self.packets_sent = 0
        self.packets_rejected = 0  # NIC-level drops (link queue full)
        self._running = False
        self._label = f"{self._kind}.{host.name}"
        # Template creation is deferred to the first burst event: at
        # start() time the static ARP tables are not yet finalized, so the
        # victim's MAC (baked into the template) cannot be resolved.
        self._template = None
        self._template_ready = False
        self._pending: deque = deque()
        self._burst_events: list = []
        self._t_next = 0.0

    def start(self) -> None:
        """Arm the generator; packets begin at ``schedule.start_s``."""
        if self._running:
            return
        sim = self.host.sim
        schedule = self.config.schedule
        self._running = True
        # The first gap is drawn now, counted from the attack start.
        gap = self.rng.expovariate(self.config.rate_pps)
        first = sim.now + (schedule.start_s + gap)
        self._t_next = first
        self._burst_events = [sim.schedule_at(first, self._burst_fire, self._label)]
        end = schedule.start_s + schedule.duration_s
        if end != float("inf"):
            sim.schedule(end, self.stop, f"{self._kind}.end")

    def stop(self) -> None:
        """Cease fire."""
        if self._running:
            self._running = False
            sim = self.host.sim
            now = sim.now
            for event in self._burst_events:
                # Executed events have time < now; only genuinely pending
                # ones may be cancelled (cancel() adjusts live accounting).
                if not event.cancelled and event.time >= now:
                    sim.cancel(event)
            self._burst_events = []
            self._pending.clear()

    def _burst_fire(self) -> None:
        """One burst event: emit the arrival due now, pre-generate a window.

        Gap draws and craft draws interleave per arrival (next gap first,
        then the packet's randomness), so the packet stream does not
        depend on where the burst windows fall.
        """
        if not self._running:
            return
        if not self._template_ready:
            self._template_ready = True
            self._template = self._build_template()
        sim = self.host.sim
        t = self._t_next
        horizon = t + _BURST_HORIZON_S
        rate = self.config.rate_pps
        expovariate = self.rng.expovariate
        craft = self._craft
        pending = self._pending
        label = self._label
        emit_next = self._emit_next
        entries: list = []
        append = entries.append
        gap = expovariate(rate)
        first_item = craft(t)
        t += gap
        while t <= horizon:
            gap = expovariate(rate)
            item = craft(t)
            if item is not None:
                pending.append(item)
                append((t, emit_next, label))
            t += gap
        self._t_next = t
        append((t, self._burst_fire, label))
        self._burst_events = sim.schedule_at_many(entries)
        if first_item is not None:
            self._emit(first_item)

    def _emit_next(self) -> None:
        if self._pending:
            self._emit(self._pending.popleft())

    # Hooks ------------------------------------------------------------

    def _build_template(self):
        raise NotImplementedError

    def _resolve_victim_mac(self) -> Optional[str]:
        """Victim's next-hop MAC, or None when the fast path must stand down."""
        host = self.host
        if host.arp_service is not None:
            return None  # dynamic ARP: keep per-packet sends + their failures
        try:
            return host.resolve_mac(self.config.victim_ip)
        except KeyError:
            return None

    def _craft(self, t: float):
        raise NotImplementedError

    def _emit(self, item) -> None:
        raise NotImplementedError


class SynFloodAttacker(_FloodAttacker):
    """Raw SYN generator attached to one attacking host."""

    _kind = "synflood"

    def __init__(self, host: Host, rng: SeededRng, config: SynFloodConfig) -> None:
        super().__init__(host, rng, config)
        self._spoof_pool: list[str] = []
        if config.spoof and config.spoof_pool_size > 0:
            self._spoof_pool = [
                rng.random_ipv4(config.spoof_prefix) for _ in range(config.spoof_pool_size)
            ]

    def _build_template(self) -> Optional[SynFloodTemplate]:
        dst_mac = self._resolve_victim_mac()
        if dst_mac is None:
            return None
        return SynFloodTemplate(
            self.host.mac, dst_mac, self.config.victim_ip, self.config.victim_port,
        )

    def _craft(self, t: float):
        # Draw order: thinning (realizes the ramp), src_port, seq, source.
        multiplier = self.config.schedule.rate_multiplier(t)
        if multiplier <= 0.0:
            return None
        rng = self.rng
        if multiplier < 1.0 and rng.random() > multiplier:
            return None
        src_port = rng.randint(1024, 65535)
        seq = rng.randint(0, 0xFFFFFFFF)
        src_ip = self._source_ip()
        template = self._template
        if template is not None:
            return template.stamp(
                src_ip if src_ip is not None else self.host.ip, src_port, seq, t
            )
        return (
            src_ip,
            TcpHeader(src_port=src_port, dst_port=self.config.victim_port,
                      seq=seq, flags=TCP_SYN),
        )

    def _emit(self, item) -> None:
        if type(item) is tuple:
            src_ip, header = item
            sent = self.host.send_tcp(self.config.victim_ip, header, src_ip=src_ip)
        else:
            sent = self.host.send_packet(item)
        if sent:
            self.packets_sent += 1
        else:
            self.packets_rejected += 1

    def _source_ip(self) -> Optional[str]:
        if not self.config.spoof:
            return None  # use the host's real address
        if self._spoof_pool:
            return self.rng.choice(self._spoof_pool)
        return self.rng.random_ipv4(self.config.spoof_prefix)


@dataclass(frozen=True)
class UdpFloodConfig:
    """UDP flood parameters."""

    victim_ip: str = ""
    victim_port: int = 53
    rate_pps: float = 500.0
    payload_bytes: int = 512
    spoof: bool = True
    spoof_prefix: str = "198.18."
    schedule: AttackSchedule = field(default_factory=AttackSchedule)

    def __post_init__(self) -> None:
        if self.rate_pps <= 0:
            raise ValueError("rate must be positive")
        if self.payload_bytes < 0:
            raise ValueError("payload must be >= 0 bytes")


class UdpFloodAttacker(_FloodAttacker):
    """Volumetric UDP generator attached to one attacking host."""

    _kind = "udpflood"

    def __init__(self, host: Host, rng: SeededRng, config: UdpFloodConfig) -> None:
        super().__init__(host, rng, config)

    def _build_template(self) -> Optional[UdpFloodTemplate]:
        dst_mac = self._resolve_victim_mac()
        if dst_mac is None:
            return None
        return UdpFloodTemplate(
            self.host.mac, dst_mac, self.config.victim_ip,
            self.config.victim_port, payload=bytes(self.config.payload_bytes),
        )

    def _craft(self, t: float):
        # Draw order: src_port, then spoofed source.
        # Note: deliberately no thinning draw — the UDP flood fires at full
        # rate whenever the schedule multiplier is positive.
        if self.config.schedule.rate_multiplier(t) <= 0.0:
            return None
        rng = self.rng
        src_port = rng.randint(1024, 65535)
        src_ip = (
            rng.random_ipv4(self.config.spoof_prefix) if self.config.spoof else None
        )
        template = self._template
        if template is not None:
            return template.stamp(
                src_ip if src_ip is not None else self.host.ip, src_port, t
            )
        return (
            src_ip,
            UdpHeader(src_port=src_port, dst_port=self.config.victim_port),
        )

    def _emit(self, item) -> None:
        if type(item) is tuple:
            src_ip, header = item
            sent = self.host.send_udp(
                self.config.victim_ip, header,
                bytes(self.config.payload_bytes), src_ip=src_ip,
            )
        else:
            sent = self.host.send_packet(item)
        if sent:
            self.packets_sent += 1
        else:
            self.packets_rejected += 1
