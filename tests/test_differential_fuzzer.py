"""Tests for the differential scenario fuzzer and its CLI entry point.

A handful of real differential runs (kept small — the full 25-seed
sweep lives in CI via ``repro check``), plus determinism and failure
shape checks: the generator must be a pure function of its seed, the
fingerprint must exclude cache-dependent counters but catch genuine
metric drift, and a mismatch must surface as a failing report, not an
exception.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.harness import fuzzer
from repro.harness.fuzzer import (
    DifferentialOutcome,
    FuzzSuiteReport,
    describe_outcome,
    fingerprint,
    fingerprint_json,
    generate_scenario,
    reference_variant,
    run_differential,
    run_fuzz_suite,
)
from repro.harness.scenario import run_scenario


class TestGenerator:
    def test_deterministic_per_seed(self):
        assert generate_scenario(7) == generate_scenario(7)
        assert generate_scenario(7) != generate_scenario(8)

    def test_always_enables_invariants(self):
        for seed in range(20):
            config = generate_scenario(seed)
            assert config.check_invariants is True
            assert config.engine == "optimized"
            assert config.microflow_cache is True

    def test_udp_attacks_get_udp_detector(self):
        kinds = set()
        for seed in range(40):
            config = generate_scenario(seed)
            kinds.add(config.workload.attack_kind)
            if config.workload.attack_kind == "udp":
                assert config.detector == "udp-rate"
            else:
                assert config.detector != "udp-rate"
        assert kinds == {"syn", "udp"}

    def test_reference_variant_flips_only_strategy_knobs(self):
        config = generate_scenario(3)
        variant = reference_variant(config)
        assert variant.engine == "reference"
        assert variant.microflow_cache is False
        assert variant.seed == config.seed
        assert variant.workload == config.workload
        assert variant.topology == config.topology


class TestFingerprint:
    def test_covers_core_metrics_and_omits_microflow(self):
        config = generate_scenario(2)
        data = fingerprint(run_scenario(config))
        assert {"detections", "switches", "links", "stacks",
                "final_time"} <= set(data)
        # The raw event count is schedule-encoding-dependent (burst
        # coalescing changes it) and must stay out of the fingerprint.
        assert "events_executed" not in data
        for counters in data["switches"].values():
            assert not any(key.startswith("microflow") for key in counters)
            assert {"lookups", "hits", "misses"} <= set(counters)
        # Canonical form is stable and parseable.
        text = fingerprint_json(run_scenario(config))
        assert json.loads(text) == json.loads(fingerprint_json(run_scenario(config)))

    def test_detects_genuine_metric_drift(self):
        config = generate_scenario(2)
        result_a = run_scenario(config)
        result_b = run_scenario(config)
        result_b.net.switches["s1"].counters.packets_forwarded += 1
        assert fingerprint_json(result_a) != fingerprint_json(result_b)


class TestDifferentialRuns:
    @pytest.mark.parametrize("seed", [0, 3, 16])
    def test_seed_is_byte_identical_across_engines(self, seed):
        outcome = run_differential(seed)
        assert outcome.matched, describe_outcome(outcome)
        assert outcome.optimized == outcome.reference

    def test_suite_report_aggregates(self):
        report = run_fuzz_suite(n_seeds=2, base_seed=0)
        assert len(report.outcomes) == 2
        assert report.oracles == {}
        assert report.passed

    def test_suite_parallel_oracle_matches(self):
        report = run_fuzz_suite(n_seeds=2, base_seed=0, oracles=["parallel"],
                                workers=2)
        assert report.oracles == {"parallel": True}
        assert report.passed

    def test_failing_lane_fails_the_suite(self, monkeypatch):
        seen = []

        def failing_lane(rows, workers):
            seen.extend(row.seed for row in rows)
            return [replace(rows[0], matched=False, detail="planted lane failure")]

        monkeypatch.setitem(fuzzer.ORACLES, "parallel", failing_lane)
        progress = []
        report = run_fuzz_suite(n_seeds=1, base_seed=0, oracles=["parallel"],
                                progress=progress.append)
        assert seen == [0]
        assert all(o.matched for o in report.outcomes)
        assert report.oracles == {"parallel": False}
        assert not report.passed
        assert progress[-1].detail == "planted lane failure"

    def test_mismatch_surfaces_as_failed_report(self, monkeypatch):
        real = fuzzer.fingerprint_json
        calls = []

        def skewed(result):
            calls.append(result)
            text = real(result)
            if len(calls) % 2 == 0:  # corrupt every reference run
                data = json.loads(text)
                data["final_time"] += 1
                return json.dumps(data, sort_keys=True)
            return text

        monkeypatch.setattr(fuzzer, "fingerprint_json", skewed)
        outcome = fuzzer.run_differential(0)
        assert not outcome.matched
        assert "final_time" in outcome.detail
        report = FuzzSuiteReport(outcomes=(outcome,))
        assert not report.passed
        assert "FAIL" in describe_outcome(outcome)


class TestCheckCommand:
    def test_cli_check_passes_and_reports(self, capsys):
        from repro.cli import main

        assert main(["check", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS: 2/2 seeds byte-identical" in out

    def test_cli_check_json_shape(self, capsys):
        from repro.cli import main

        assert main(["check", "--seeds", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["failures"] == []
        assert payload["seeds"] == 1

    def test_cli_check_fails_on_mismatch(self, capsys, monkeypatch):
        from repro.cli import main

        def broken_suite(**kwargs):
            outcome = DifferentialOutcome(
                seed=0, config=generate_scenario(0), matched=False,
                detail="planted divergence",
            )
            return FuzzSuiteReport(outcomes=(outcome,))

        monkeypatch.setattr(
            "repro.harness.fuzzer.run_fuzz_suite", broken_suite
        )
        assert main(["check", "--seeds", "1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["failures"][0]["detail"] == "planted divergence"
