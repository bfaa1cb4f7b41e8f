"""Tests for scenario config serialization and CLI replay."""

from __future__ import annotations

import json

import pytest

from repro.harness.scenario import FlashCrowdSpec, ScenarioConfig
from repro.harness.serialize import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.harness.sweep import apply_overrides
from repro.workload.profiles import WorkloadConfig


def rich_config() -> ScenarioConfig:
    base = ScenarioConfig(
        topology="star",
        topology_params={"n_arms": 3, "clients_per_arm": 2},
        defense="monitor-only",
        detector="cusum",
        detector_params={"h": 40.0},
        monitor_switches=("core", "edge1"),
        flash_crowd=FlashCrowdSpec(start_s=3.0, connections_per_second=99.0),
        syn_cookies=True,
        link_loss_probability=0.02,
        workload=WorkloadConfig(attack_rate_pps=123.0, attack_kind="udp"),
    )
    return apply_overrides(
        base,
        {"spi.budget.max_concurrent": 3, "spi.verification_window_s": 2.5},
    )


class TestUnknownKeys:
    """A typo in a saved or posted config fails loudly, never runs defaults."""

    def test_top_level_typo_rejected(self):
        with pytest.raises(ValueError, match=r"duraton_s.*duration_s"):
            config_from_dict({"duraton_s": 5})

    def test_workload_typo_named_with_dotted_path(self):
        with pytest.raises(ValueError, match=r"workload\.attak_rate_pps.*attack_rate_pps"):
            config_from_dict({"workload": {"attak_rate_pps": 9999}})

    def test_flash_crowd_typo_named_with_dotted_path(self):
        with pytest.raises(ValueError, match=r"flash_crowd\.strat_s.*start_s"):
            config_from_dict({"flash_crowd": {"strat_s": 1.0}})

    def test_deeply_nested_typo_rejected(self):
        with pytest.raises(ValueError, match=r"spi\.monitor\.windw_s"):
            config_from_dict({"spi": {"monitor": {"windw_s": 2.0}}})

    def test_every_unknown_key_at_a_level_is_named(self):
        with pytest.raises(ValueError) as excinfo:
            config_from_dict({"duraton_s": 5, "sed": 3, "seed": 4})
        message = str(excinfo.value)
        assert "duraton_s" in message and "sed" in message


class TestRoundtrip:
    def test_rich_config_roundtrips_exactly(self):
        config = rich_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_default_config_roundtrips(self):
        config = ScenarioConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_dict_is_json_serializable(self):
        payload = json.dumps(config_to_dict(rich_config()))
        assert "monitor-only" in payload

    def test_infinity_survives(self):
        config = ScenarioConfig()  # attack_duration_s defaults to inf
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.workload.attack_duration_s == float("inf")

    def test_enum_fields_survive(self):
        from repro.mitigation.manager import MitigationMode

        config = apply_overrides(
            ScenarioConfig(), {"spi.mitigation.mode": MitigationMode.SHIELD_VICTIM}
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.spi.mitigation.mode is MitigationMode.SHIELD_VICTIM

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "scenario.json")
        config = rich_config()
        save_config(config, path)
        assert load_config(path) == config

    def test_rebuilt_config_actually_runs(self):
        from repro.harness.scenario import run_scenario

        config = ScenarioConfig(
            topology="single",
            topology_params={"n_clients": 1, "n_attackers": 1},
            duration_s=8.0,
            workload=WorkloadConfig(attack_rate_pps=300, attack_start_s=2.0),
        )
        rebuilt = config_from_dict(config_to_dict(config))
        original = run_scenario(config)
        replayed = run_scenario(rebuilt)
        assert original.detection_times() == replayed.detection_times()


class TestCliIntegration:
    def test_save_then_replay(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "run.json")
        assert main([
            "run", "--topology", "single", "--duration", "8",
            "--attack-start", "2", "--rate", "300", "--save", path,
        ]) == 0
        capsys.readouterr()
        assert main(["run", "--config", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["topology"] == "single"
        assert payload["detections"] == 1
