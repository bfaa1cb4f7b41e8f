"""Scenario configuration and the single-run experiment driver.

Scenario *construction* and *execution* are split so the control-plane
service (:mod:`repro.service`) can host a built scenario and step it in
bounded slices while the batch path stays a single call:

* ``build_scenario`` assembles a topology, a workload (optionally with a
  flash crowd) and one of the defenses (``spi`` / ``monitor-only`` /
  ``always-on`` / ``sampled`` / ``flow-stats`` / ``none``), starts the
  workload, and returns a live :class:`ScenarioResult` whose simulator
  has not advanced yet;
* ``finish_scenario`` stops every component and runs the final
  invariant sweep once the clock has reached the configured duration;
* ``run_scenario`` is build + one uninterrupted ``net.run`` + finish —
  byte-identical to a served session that received no runtime
  mutations (asserted by ``repro check --oracle serve``).

``ScenarioResult`` carries uniform accessors for the quantities every
experiment reports: detection times, benign service quality per phase,
inspection workload, and live mitigation state (active blocks and
whitelist entries with expiry timestamps).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.baselines.always_on import AlwaysOnDpi
from repro.baselines.flowstats import FlowStatsDefense
from repro.baselines.sampled import SampledDpi
from repro.baselines.threshold_only import MonitorOnlyDefense
from repro.core.config import SpiConfig
from repro.core.spi import SpiSystem
from repro.metrics.detection import DetectionTimeline, extract_timeline
from repro.mitigation.manager import MitigationManager, MitigationMode
from repro.monitor.detectors import make_detector
from repro.topology import standard
from repro.topology.builder import Network
from repro.topology.standard import Roles
from repro.workload.flashcrowd import FlashCrowd, FlashCrowdConfig
from repro.workload.profiles import StandardWorkload, WorkloadConfig

TOPOLOGIES = {
    "single": standard.single_switch,
    "dumbbell": standard.dumbbell,
    "star": standard.star,
    "linear": standard.linear,
    "tree": standard.tree,
    "fat_tree": standard.fat_tree,
    "random_tree": standard.random_tree,
}

DEFENSES = ("spi", "monitor-only", "always-on", "sampled", "flow-stats", "none")

ENGINES = ("optimized", "reference")

# Process-wide override set by ``repro experiment --check-invariants``:
# experiment runners build their own configs, so the flag is applied to
# every config that reaches run_scenario (serial path) or the worker
# transport (see harness.parallel, which stamps configs before pickling
# because spawn workers start with this flag at its default).
_FORCE_CHECK_INVARIANTS = False


def force_check_invariants(enabled: bool = True) -> None:
    """Turn invariant checking on for every subsequently built scenario."""
    global _FORCE_CHECK_INVARIANTS
    _FORCE_CHECK_INVARIANTS = enabled


def check_invariants_forced() -> bool:
    """Whether the process-wide invariant override is active."""
    return _FORCE_CHECK_INVARIANTS


def effective_config(config: "ScenarioConfig") -> "ScenarioConfig":
    """Apply the process-wide invariant override to one config."""
    if _FORCE_CHECK_INVARIANTS and not config.check_invariants:
        return replace(config, check_invariants=True)
    return config


@dataclass(frozen=True)
class FlashCrowdSpec:
    """Optional flash-crowd phase inside a scenario."""

    start_s: float = 8.0
    duration_s: float = 6.0
    connections_per_second: float = 150.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment run needs."""

    topology: str = "dumbbell"
    topology_params: dict[str, Any] = field(default_factory=dict)
    seed: int = 1
    duration_s: float = 30.0
    defense: str = "spi"
    detector: str = "ewma"
    detector_params: dict[str, Any] = field(default_factory=dict)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    spi: SpiConfig = field(default_factory=SpiConfig)
    with_attack: bool = True
    # Failure injection: random per-packet loss on every link (E9).
    link_loss_probability: float = 0.0
    # Host-side defense: SYN cookies on every TCP stack (E11 baseline).
    syn_cookies: bool = False
    flash_crowd: Optional[FlashCrowdSpec] = None
    # Baseline knobs.
    sampled_period_s: float = 5.0
    sampled_duty: float = 0.2
    flowstats_poll_s: float = 1.0
    flowstats_pps_threshold: float = 200.0
    baseline_mitigates: bool = True
    # Placement: None means "the victim's edge switch".
    monitor_switches: tuple[str, ...] | None = None
    inspector_switch: str | None = None
    # Attach a time-series probe (figure generation); see harness.probe.
    probe: bool = False
    probe_period_s: float = 0.5
    # Runtime invariant checking (repro.sim.invariants): periodic sweeps
    # during the run plus a final sweep; violations raise.
    check_invariants: bool = False
    invariant_period_s: float = 0.5
    # Execution-strategy knobs the differential oracle flips: the event
    # loop implementation and the flow-table microflow cache.  Neither
    # may change any metric; repro check verifies exactly that.
    engine: str = "optimized"
    microflow_cache: bool = True
    # Multi-process domain decomposition (repro.sim.sharded): 1 runs the
    # classic single-process path, N > 1 partitions the topology across
    # N engines synchronized by conservative lookahead.  Fingerprints
    # are byte-identical either way (the sharded oracle asserts it).
    shards: int = 1

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {sorted(TOPOLOGIES)}"
            )
        if self.defense not in DEFENSES:
            raise ValueError(f"unknown defense {self.defense!r}; choose from {DEFENSES}")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.invariant_period_s <= 0:
            raise ValueError("invariant period must be positive")
        if self.shards < 1:
            raise ValueError("shard count must be >= 1")


@dataclass
class ScenarioResult:
    """A finished run plus uniform metric accessors."""

    config: ScenarioConfig
    net: Network
    roles: Roles
    workload: StandardWorkload
    spi: Optional[SpiSystem] = None
    monitor_only: Optional[MonitorOnlyDefense] = None
    tap_dpi: Optional[AlwaysOnDpi] = None
    flow_stats: Optional[FlowStatsDefense] = None
    flash_crowd: Optional[FlashCrowd] = None
    probe: Optional["ScenarioProbe"] = None
    invariants: Optional["InvariantHarness"] = None

    # ------------------------------------------------------------ service

    @property
    def victim_ip(self) -> str:
        """The attacked server's address."""
        return self.workload.victim_ip

    @property
    def attack_window(self) -> tuple[float, float]:
        """Ground-truth attack interval (clipped to the run)."""
        start = self.config.workload.attack_start_s
        end = min(
            start + self.config.workload.attack_duration_s, self.config.duration_s
        )
        return (start, end)

    def success_rate(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Benign request success fraction within a phase."""
        return self.workload.client_success_rate(start, end)

    def mean_latency(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Mean successful benign request latency within a phase."""
        latencies = self.workload.client_latencies(start, end)
        return sum(latencies) / len(latencies) if latencies else 0.0

    # ---------------------------------------------------------- detection

    def detection_times(self) -> list[float]:
        """Confirmed detection timestamps for whichever defense ran."""
        if self.spi is not None:
            return [e.time for e in self.net.tracer.entries("spi.confirmed")]
        if self.monitor_only is not None:
            return self.monitor_only.detection_times()
        if self.tap_dpi is not None:
            return self.tap_dpi.detection_times()
        if self.flow_stats is not None:
            return self.flow_stats.detection_times()
        return []

    def alert_times(self) -> list[float]:
        """Raw (unverified) alert timestamps, where the defense has them."""
        if self.spi is not None:
            return [e.time for e in self.net.tracer.entries("spi.alert")]
        if self.monitor_only is not None:
            return self.monitor_only.detection_times()
        return []

    def timeline(self) -> DetectionTimeline:
        """E1 milestones relative to attack start."""
        return extract_timeline(self.net.tracer, self.config.workload.attack_start_s)

    # ----------------------------------------------------------- workload

    def inspected_fraction(self) -> float:
        """Share of datapath packets that were deep-inspected."""
        if self.tap_dpi is not None:
            return self.tap_dpi.stats.inspected_fraction
        if self.spi is not None:
            return self.spi.mirrored_fraction()
        return 0.0

    def switch_inspection_share(self) -> float:
        """Fraction of switch CPU busy-time spent on mirroring."""
        shares = [
            sw.workload.inspection_share() for sw in self.net.switches.values()
        ]
        return sum(shares) / len(shares) if shares else 0.0

    def switch_busy_seconds(self) -> float:
        """Total CPU busy time across all switches."""
        return sum(sw.workload.total_busy for sw in self.net.switches.values())

    def buffer_evictions(self) -> int:
        """Packet-in buffer evictions across all switches (E3 pressure)."""
        return sum(
            sw.counters.buffer_evictions for sw in self.net.switches.values()
        )

    # --------------------------------------------------------- mitigation

    def mitigation_manager(self) -> Optional[MitigationManager]:
        """The active defense's mitigation manager, if it has one."""
        if self.spi is not None:
            return self.spi.mitigation
        for defense in (self.monitor_only, self.tap_dpi, self.flow_stats):
            if defense is not None:
                return defense.mitigation
        return None

    def mitigation_state(self) -> dict[str, Any]:
        """Active blocks and whitelist entries with expiry timestamps.

        Inspectable in batch runs (the E3 report) and served live over
        the control-plane API; an empty state when the defense does not
        mitigate.
        """
        manager = self.mitigation_manager()
        if manager is None:
            return {"active_blocks": [], "whitelist": []}
        return {
            "active_blocks": [b.describe() for b in manager.active_blocks()],
            "whitelist": [w.describe() for w in manager.whitelist_entries()],
        }

    def flow_table_stats(self) -> "TableStats":
        """Aggregate flow-table lookup/microflow counters across switches."""
        from repro.openflow.flowtable import TableStats

        totals = [sw.table.stats() for sw in self.net.switches.values()]
        return TableStats(
            entry_count=sum(t.entry_count for t in totals),
            lookups=sum(t.lookups for t in totals),
            hits=sum(t.hits for t in totals),
            misses=sum(t.misses for t in totals),
            microflow_hits=sum(t.microflow_hits for t in totals),
            microflow_misses=sum(t.microflow_misses for t in totals),
            microflow_size=sum(t.microflow_size for t in totals),
        )


def _default_edge(net: Network, roles: Roles) -> str:
    switch = net.switch_of_host(roles.servers[0])
    if switch is None:
        raise RuntimeError("victim host is not attached to a switch")
    return switch.name


def build_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Construct one scenario without advancing the simulator.

    Everything ``run_scenario`` does up to (but excluding) the
    ``net.run`` call: topology, workload, defense, probe and invariant
    harness are assembled and the workload's start events are scheduled.
    The returned result is *live*: step it with ``result.net.run(...)``
    (or through a :class:`repro.service.session.Session`) and close it
    with :func:`finish_scenario`.
    """
    config = effective_config(config)
    build = TOPOLOGIES[config.topology]
    extra: dict[str, Any] = {}
    if config.engine != "optimized":
        extra["engine"] = config.engine
    if not config.microflow_cache:
        extra["microflow_enabled"] = False
    if config.link_loss_probability > 0:
        from repro.topology.builder import LinkSpec

        extra["default_link"] = LinkSpec(
            loss_probability=config.link_loss_probability
        )
    if config.syn_cookies:
        from repro.tcp.config import TcpConfig

        extra["tcp_config"] = TcpConfig(syn_cookies=True)
    net, roles = build(seed=config.seed, **config.topology_params, **extra)
    workload = StandardWorkload(net, roles, config.workload)
    result = ScenarioResult(config=config, net=net, roles=roles, workload=workload)

    edge = _default_edge(net, roles)
    monitor_switches = config.monitor_switches or (edge,)
    inspector_switch = config.inspector_switch or edge

    def new_detector():
        return make_detector(config.detector, **config.detector_params)

    if config.defense == "spi":
        spi = SpiSystem(net, config.spi)
        spi.deploy_inspector(inspector_switch)
        for switch_name in monitor_switches:
            spi.deploy_monitor(switch_name, new_detector())
        result.spi = spi
    elif config.defense == "monitor-only":
        manager = None
        if config.baseline_mitigates:
            manager = MitigationManager(
                net.controller,
                replace(config.spi.mitigation, mode=MitigationMode.SHIELD_VICTIM),
                net.tracer,
            )
        defense = MonitorOnlyDefense(
            net, mitigation=manager, monitor_config=config.spi.monitor
        )
        for switch_name in monitor_switches:
            defense.deploy_monitor(switch_name, new_detector())
        result.monitor_only = defense
    elif config.defense == "always-on":
        manager = (
            MitigationManager(net.controller, config.spi.mitigation, net.tracer)
            if config.baseline_mitigates
            else None
        )
        result.tap_dpi = AlwaysOnDpi(
            net.switches[inspector_switch],
            signature_config=config.spi.signature,
            mitigation=manager,
        )
    elif config.defense == "sampled":
        manager = (
            MitigationManager(net.controller, config.spi.mitigation, net.tracer)
            if config.baseline_mitigates
            else None
        )
        result.tap_dpi = SampledDpi(
            net.switches[inspector_switch],
            period_s=config.sampled_period_s,
            duty_fraction=config.sampled_duty,
            signature_config=config.spi.signature,
            mitigation=manager,
        )
    elif config.defense == "flow-stats":
        manager = None
        if config.baseline_mitigates:
            manager = MitigationManager(
                net.controller,
                replace(config.spi.mitigation, mode=MitigationMode.SHIELD_VICTIM),
                net.tracer,
            )
        result.flow_stats = FlowStatsDefense(
            net,
            poll_period_s=config.flowstats_poll_s,
            pps_threshold=config.flowstats_pps_threshold,
            mitigation=manager,
        )
    # "none": no defense.

    if config.flash_crowd is not None:
        crowd_stacks = [net.stack(name) for name in roles.clients]
        result.flash_crowd = FlashCrowd(
            crowd_stacks,
            net.rng.child("flashcrowd"),
            FlashCrowdConfig(
                server_ip=workload.victim_ip,
                start_s=config.flash_crowd.start_s,
                duration_s=config.flash_crowd.duration_s,
                connections_per_second=config.flash_crowd.connections_per_second,
            ),
        )

    if config.probe:
        from repro.harness.probe import ScenarioProbe

        result.probe = ScenarioProbe(net, workload, period_s=config.probe_period_s)

    if config.check_invariants:
        from repro.sim.invariants import InvariantHarness

        monitors = []
        if result.spi is not None:
            monitors.extend(result.spi.monitors.values())
        if result.monitor_only is not None:
            monitors.extend(result.monitor_only.monitors.values())
        result.invariants = InvariantHarness.for_network(
            net,
            period_s=config.invariant_period_s,
            monitors=monitors,
            spi=result.spi,
        )
        result.invariants.start()

    workload.start(with_attack=config.with_attack)
    return result


def finish_scenario(result: ScenarioResult) -> ScenarioResult:
    """Stop every component of a stepped scenario and run the final sweep."""
    result.workload.stop()
    if result.probe is not None:
        result.probe.stop()
    if result.spi is not None:
        result.spi.stop()
    if result.monitor_only is not None:
        result.monitor_only.stop()
    if result.tap_dpi is not None:
        result.tap_dpi.stop()
    if result.flow_stats is not None:
        result.flow_stats.stop()
    result.net.stop()
    if result.invariants is not None:
        result.invariants.final_check()
    return result


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build, run and wrap one scenario (the batch path).

    With ``config.shards > 1`` the run is handed to the sharded
    coordinator; the returned :class:`ShardedResult` quacks like a
    :class:`ScenarioResult` (it delegates every accessor to the
    coordinator shard's result and carries the merged fingerprint).
    """
    if config.shards > 1:
        from repro.sim.sharded.coordinator import run_sharded_scenario

        return run_sharded_scenario(config)
    result = build_scenario(config)
    result.net.run(until=result.config.duration_s)
    return finish_scenario(result)
