"""Claim checks on finished runs, and exact counters read from them.

The checks decide whether an operation failed:

* floods (claims C1/C3): SPI confirms the attack inside its window and
  never before it, mitigation installs, and the mirrored share of
  datapath packets stays below 1;
* sweep (claim C2): no SPI point confirms outside the attack window,
  and at least one high-rate SPI point confirms inside it;
* serve: both sessions end DONE and every retune is logged as applied.

The counters are raw numerators and denominators taken from the
program's public counters, so per-point values can be summed across a
sweep before ratios are formed.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.harness.scenario import ScenarioResult


def flood_problems(result: ScenarioResult) -> list[str]:
    """Why a flood run breaks claims C1/C3 (empty when it holds them)."""
    start, end = result.attack_window
    detections = result.detection_times()
    problems = []
    if not any(start <= t <= end for t in detections):
        problems.append("C1: SPI did not confirm the attack inside its window")
    if any(t < start for t in detections):
        problems.append("C2: SPI confirmed an attack before it started")
    if result.net.tracer.count("mitigation.installed") == 0:
        problems.append("C1: no mitigation was installed")
    if result.spi is None or not result.spi.mirrored_fraction() < 1.0:
        problems.append("C3: every datapath packet was mirrored")
    return problems


def sweep_point_problems(row: dict[str, Any]) -> list[str]:
    """Claim C2 for one sweep point: SPI never confirms outside the attack."""
    if row["defense"] != "spi":
        return []
    start, end = row["attack_window"]
    outside = [t for t in row["detections"] if not start <= t <= end]
    if outside:
        return [f"C2: SPI point seed={row['seed']} confirmed at {outside} "
                f"outside the attack window {start}-{end}"]
    return []


def sweep_problems(rows: list[dict[str, Any]], high_rate: float) -> list[str]:
    """The sweep-wide half of claim C2 (per-point checks run separately)."""
    start_end = [
        row for row in rows
        if row["defense"] == "spi" and row["rate"] >= high_rate
        and any(row["attack_window"][0] <= t <= row["attack_window"][1]
                for t in row["detections"])
    ]
    if not start_end:
        return ["C2: no high-rate SPI point confirmed inside the attack window"]
    return []


def serve_problems(results: Iterable[dict[str, Any]]) -> list[str]:
    """Served sessions end DONE and every retune is logged as applied."""
    problems = []
    for payload in results:
        summary = payload["summary"]
        if summary["state"] != "done":
            problems.append(f"session {summary['id']} ended {summary['state']}")
        for entry in payload["reconfig_log"]:
            if entry["target"] == "detector" and entry["status"] != "applied":
                problems.append(
                    f"session {summary['id']}: retune {entry['params']} "
                    f"was {entry['status']}"
                )
    return problems


def counters(result: ScenarioResult) -> dict[str, float]:
    """Raw per-layer counts of one finished run."""
    net = result.net
    link_stats = [link.stats_for(end) for link in net.links for end in (link.a, link.b)]
    switches = list(net.switches.values())
    table = result.flow_table_stats()
    pool = getattr(net, "packet_pool", None)
    monitors = []
    if result.spi is not None:
        monitors = list(result.spi.monitors.values())
    elif result.monitor_only is not None:
        monitors = list(result.monitor_only.monitors.values())
    dpi = result.spi.dpi if result.spi is not None else None
    spi_stats = result.spi.stats if result.spi is not None else None
    stacks = list(net.stacks.values())
    channels = list(net.channels.values())
    return {
        "sim.events": net.sim.events_executed,
        "net.link.frames": sum(s.packets_sent for s in link_stats),
        "net.link.queue_drops": sum(s.packets_dropped for s in link_stats),
        "net.packet.pool_hits": pool.hits if pool is not None else 0,
        "net.packet.pool_misses": pool.misses if pool is not None else 0,
        "inspection.frames": dpi.stats.frames_received if dpi is not None else 0,
        "switch.packets_in": sum(s.counters.packets_in for s in switches),
        "switch.punts": sum(s.counters.packets_punted for s in switches),
        "switch.mirrored": sum(s.counters.packets_mirrored for s in switches),
        "switch.buffer_evictions": sum(s.counters.buffer_evictions for s in switches),
        "openflow.flowtable.lookups": table.lookups,
        "openflow.flowtable.misses": table.misses,
        "openflow.flowtable.microflow_hits": table.microflow_hits,
        "openflow.flowtable.microflow_misses": table.microflow_misses,
        "openflow.channel.msgs": sum(
            c.stats.to_controller_msgs + c.stats.to_switch_msgs for c in channels
        ),
        "openflow.channel.bytes": sum(
            c.stats.to_controller_bytes + c.stats.to_switch_bytes for c in channels
        ),
        # Every punt is one packet-in to the controller.
        "controller.packet_ins": sum(s.counters.packets_punted for s in switches),
        "monitor.windows": sum(m.windows_closed for m in monitors),
        "monitor.alerts": sum(m.alerts_emitted for m in monitors),
        "core.confirmed": spi_stats.confirmed if spi_stats is not None else 0,
        "core.refuted": spi_stats.refuted if spi_stats is not None else 0,
        "mitigation.blocks": net.tracer.count("mitigation.installed"),
        "tcp.handshakes_completed": sum(s.counters.handshakes_completed for s in stacks),
        "tcp.backlog_drops": sum(s.counters.backlog_drops for s in stacks),
    }


def counters_from_fingerprint(data: dict[str, Any]) -> dict[str, float]:
    """The subset of :func:`counters` a served session's fingerprint carries."""
    links, switches = data["links"], data["switches"].values()
    stacks = data["stacks"].values()
    spi, dpi = data.get("spi", {}), data.get("dpi", {})
    return {
        "net.link.frames": sum(row["sent"] for row in links),
        "net.link.queue_drops": sum(row["queue_drops"] for row in links),
        "inspection.frames": dpi.get("frames_received", 0),
        "switch.packets_in": sum(row["packets_in"] for row in switches),
        "switch.punts": sum(row["packets_punted"] for row in switches),
        "switch.mirrored": sum(row["packets_mirrored"] for row in switches),
        "switch.buffer_evictions": sum(row["buffer_evictions"] for row in switches),
        "openflow.flowtable.lookups": sum(row["lookups"] for row in switches),
        "openflow.flowtable.misses": sum(row["misses"] for row in switches),
        "controller.packet_ins": sum(row["packets_punted"] for row in switches),
        "core.confirmed": spi.get("confirmed", 0),
        "core.refuted": spi.get("refuted", 0),
        "mitigation.blocks": data["trace_categories"].get("mitigation.installed", 0),
        "tcp.handshakes_completed": sum(row["handshakes_completed"] for row in stacks),
        "tcp.backlog_drops": sum(row["backlog_drops"] for row in stacks),
    }


def sum_counters(rows: Iterable[dict[str, float]]) -> dict[str, float]:
    total: dict[str, float] = {}
    for row in rows:
        for key, value in row.items():
            total[key] = total.get(key, 0) + value
    return total
