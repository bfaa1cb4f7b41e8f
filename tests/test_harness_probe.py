"""Tests for the scenario time-series probe."""

from __future__ import annotations

import pytest

from repro.harness import ScenarioConfig, run_scenario
from repro.workload import WorkloadConfig

PROBED = dict(
    topology="single",
    topology_params={"n_clients": 2, "n_attackers": 1},
    duration_s=15.0,
    probe=True,
    workload=WorkloadConfig(attack_rate_pps=400, attack_start_s=5.0,
                            server_backlog=32, attack_duration_s=1000),
)


class TestProbe:
    def test_probe_disabled_by_default(self):
        config = ScenarioConfig(
            topology="single", duration_s=5.0, defense="none", with_attack=False
        )
        assert run_scenario(config).probe is None

    def test_samples_at_requested_period(self):
        result = run_scenario(ScenarioConfig(defense="none", probe_period_s=1.0, **PROBED))
        series = result.probe.series
        assert len(series.half_open) == 16  # t=0..15 inclusive
        times = [t for t, _ in series.half_open.samples()]
        assert times[1] - times[0] == pytest.approx(1.0)

    def test_half_open_rises_at_attack_onset(self):
        result = run_scenario(ScenarioConfig(defense="none", **PROBED))
        series = result.probe.series
        assert series.half_open.maximum(0.0, 5.0) == 0.0
        assert series.half_open.maximum(5.0, 10.0) == 32.0

    def test_rule_drops_grow_only_with_mitigation(self):
        undefended = run_scenario(ScenarioConfig(defense="none", **PROBED))
        defended = run_scenario(ScenarioConfig(defense="spi", **PROBED))
        assert undefended.probe.series.rule_drops.maximum() == 0.0
        assert defended.probe.series.rule_drops.maximum() > 100.0

    def test_switch_utilization_is_per_period_busy_delta(self):
        # Scripted charges on an idle, unstarted single-switch workload:
        # each sample is the busy time charged since the previous tick over
        # the period, and a charge landing exactly on a tick (t=1.0, which
        # runs before that tick's sample) counts in that window only, not
        # again in the next.
        from repro.harness.probe import ScenarioProbe
        from repro.topology import single_switch
        from repro.workload import StandardWorkload

        net, roles = single_switch(n_clients=1, n_attackers=0)
        probe = ScenarioProbe(net, StandardWorkload(net, roles), period_s=1.0)
        meter = net.switches["s1"].workload
        for at, busy in ((0.5, 0.25), (1.0, 0.125), (2.5, 0.5)):
            net.sim.schedule(
                at, lambda busy=busy: meter.charge("x", busy, net.sim.now), "charge"
            )
        net.run(until=3.0)
        probe.stop()
        assert probe.series.switch_utilization.samples() == [
            (0.0, 0.0), (1.0, 0.375), (2.0, 0.0), (3.0, 0.5),
        ]
        assert meter.total_busy == pytest.approx(0.875)

    def test_switch_utilization_positive_under_load(self):
        result = run_scenario(ScenarioConfig(defense="none", **PROBED))
        assert result.probe.series.switch_utilization.maximum(5.0, 15.0) > 0.0

    def test_csv_export(self):
        result = run_scenario(ScenarioConfig(defense="none", probe_period_s=1.0, **PROBED))
        csv = result.probe.series.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("time,half_open")
        assert len(lines) == 17  # header + 16 samples

    def test_invalid_period_rejected(self):
        from repro.harness.probe import ScenarioProbe

        with pytest.raises(ValueError):
            config = ScenarioConfig(defense="none", **PROBED)
            result = run_scenario(
                ScenarioConfig(defense="none", **{**PROBED, "probe": False})
            )
            ScenarioProbe(result.net, result.workload, period_s=0.0)

    def test_started_success_rate_attribution(self):
        """The figure metric attributes failures to attempt start time."""
        result = run_scenario(ScenarioConfig(defense="none", **PROBED))
        workload = result.workload
        # Attempts started pre-attack succeed; those started right after
        # onset (backlog full) mostly fail even though the failures are
        # *observed* many seconds later.
        assert workload.started_success_rate(0.0, 4.5) > 0.9
        assert workload.started_success_rate(5.5, 8.0) < 0.5
