"""Tests for the exact-vs-sketch differential oracle (``--oracle sketch``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.harness.fuzzer import (
    _SCALAR_FIELDS,
    _ShadowPairExtractor,
    run_fuzz_suite,
    run_sketch_differential,
)
from repro.monitor.features import FeatureExtractor
from repro.net.headers import TCP_ACK, TCP_SYN, TcpHeader
from repro.net.packet import Packet

_MAC = "00:00:00:00:00:01"


def _syn(src_ip: str) -> Packet:
    return Packet.tcp_packet(
        _MAC, _MAC, src_ip, "10.0.0.2", TcpHeader(1234, 80, flags=TCP_SYN)
    )


def _ack(src_ip: str) -> Packet:
    return Packet.tcp_packet(
        _MAC, _MAC, src_ip, "10.0.0.2", TcpHeader(1234, 80, flags=TCP_ACK)
    )


class TestShadowPairExtractor:
    def _pair(self) -> _ShadowPairExtractor:
        return _ShadowPairExtractor(
            FeatureExtractor(), FeatureExtractor(backend="sketch")
        )

    def test_returns_exact_features(self):
        pair = self._pair()
        for i in range(40):
            pair.observe(_syn(f"10.0.{i}.1"))
        features = pair.close_window(1.0)
        assert features.backend == "exact"
        assert features.syn_count == 40
        assert features.distinct_sources == 40

    def test_records_both_sides_per_window(self):
        pair = self._pair()
        for i in range(30):
            pair.observe(_syn(f"10.0.{i}.1"))
        pair.close_window(1.0)
        for i in range(10):
            pair.observe(_ack(f"10.0.{i}.1"))
        pair.close_window(2.0)
        assert len(pair.windows) == 2
        exact, sketch, raw_syn, raw_udp = pair.windows[0]
        assert exact.backend == "exact"
        assert sketch.backend == "sketch"
        assert raw_syn == 30
        assert raw_udp == 0
        # Scalars agree: they come from the same batched fold.
        for name in _SCALAR_FIELDS:
            assert getattr(exact, name) == getattr(sketch, name)

    def test_sampling_probability_forwarded_to_both(self):
        pair = self._pair()
        pair.set_sampling_probability(0.25)
        assert pair.exact.sampling_probability == 0.25
        assert pair.sketch.sampling_probability == 0.25
        assert pair.sampling_probability == 0.25


class TestSketchDifferential:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_seed_passes_bounds(self, seed):
        outcome = run_sketch_differential(seed)
        assert outcome.matched, outcome.detail
        assert "windows within bounds" in outcome.detail

    def test_suite_report_includes_sketch_verdict(self):
        report = run_fuzz_suite(n_seeds=1, base_seed=7, oracles=["sketch"])
        assert report.oracles == {"sketch": True}
        assert report.passed


class TestCheckCli:
    def test_check_sketch_oracle_exit_zero(self, capsys):
        code = main(["check", "--seeds", "2", "--oracle", "sketch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sketch oracle ok" in out

    def test_check_sketch_oracle_json(self, capsys):
        code = main(["check", "--seeds", "1", "--oracle", "sketch", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracles"] == {"sketch": True}
        assert payload["passed"] is True
