"""Tests for feature extraction from sampled packets."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.features import FeatureExtractor, WindowFeatures
from repro.net.flowkey import FlowKey
from repro.net.headers import (
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    EthernetHeader,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
)
from repro.net.packet import Packet

MAC = "00:00:00:00:00:01"


def tcp(flags, src_ip="10.0.0.1", dst_ip="10.0.0.2", sport=1000):
    return Packet.tcp_packet(MAC, MAC, src_ip, dst_ip, TcpHeader(sport, 80, flags=flags))


def udp(src_ip="10.0.0.1", dst_ip="10.0.0.2"):
    return Packet.udp_packet(MAC, MAC, src_ip, dst_ip, UdpHeader(1, 2))


class TestCounting:
    def test_flag_classification(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_SYN))
        fx.observe(tcp(TCP_SYN | TCP_ACK))
        fx.observe(tcp(TCP_ACK))
        fx.observe(tcp(TCP_RST | TCP_ACK))
        fx.observe(tcp(TCP_FIN | TCP_ACK))
        fx.observe(udp())
        features = fx.close_window(1.0)
        assert features.syn_count == 1
        assert features.synack_count == 1
        assert features.ack_count == 3  # ACK, RST|ACK, FIN|ACK all carry ACK
        assert features.rst_count == 1
        assert features.fin_count == 1
        assert features.udp_packets == 1
        assert features.total_packets == 6

    def test_window_resets(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_SYN))
        fx.close_window(1.0)
        features = fx.close_window(2.0)
        assert features.syn_count == 0
        assert features.window_start == 1.0
        assert features.window_end == 2.0

    def test_syn_rate(self):
        fx = FeatureExtractor()
        for _ in range(10):
            fx.observe(tcp(TCP_SYN))
        features = fx.close_window(0.5)
        assert features.syn_rate == pytest.approx(20.0)

    def test_syn_ack_imbalance(self):
        fx = FeatureExtractor()
        for _ in range(30):
            fx.observe(tcp(TCP_SYN))
        fx.observe(tcp(TCP_ACK))
        features = fx.close_window(1.0)
        assert features.syn_ack_imbalance == pytest.approx(15.0)

    def test_non_ip_packet_ignored_gracefully(self):
        from repro.net.headers import EthernetHeader

        fx = FeatureExtractor()
        fx.observe(Packet(eth=EthernetHeader(MAC, MAC, 0x0806)))
        features = fx.close_window(1.0)
        assert features.total_packets == 1
        assert features.tcp_packets == 0


class TestSources:
    def test_distinct_sources_and_entropy(self):
        fx = FeatureExtractor()
        for i in range(16):
            fx.observe(tcp(TCP_SYN, src_ip=f"198.18.0.{i + 1}"))
        features = fx.close_window(1.0)
        assert features.distinct_sources == 16
        assert features.source_entropy == pytest.approx(1.0)

    def test_single_source_entropy_zero(self):
        fx = FeatureExtractor()
        for _ in range(16):
            fx.observe(tcp(TCP_SYN))
        features = fx.close_window(1.0)
        assert features.source_entropy == 0.0

    def test_top_destination(self):
        fx = FeatureExtractor()
        for _ in range(5):
            fx.observe(tcp(TCP_SYN, dst_ip="10.0.0.9"))
        fx.observe(tcp(TCP_SYN, dst_ip="10.0.0.8"))
        features = fx.close_window(1.0)
        assert features.top_destination == "10.0.0.9"
        assert features.top_destination_syns == 5
        assert features.per_destination_syns == {"10.0.0.9": 5, "10.0.0.8": 1}

    def test_no_syns_no_top_destination(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_ACK))
        features = fx.close_window(1.0)
        assert features.top_destination is None
        assert features.top_destination_syns == 0


class TestSampling:
    def test_counts_scaled_by_inverse_probability(self):
        fx = FeatureExtractor(sampling_probability=0.1)
        for _ in range(10):
            fx.observe(tcp(TCP_SYN))
        features = fx.close_window(1.0)
        assert features.syn_count == pytest.approx(100.0)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(sampling_probability=0.0)
        with pytest.raises(ValueError):
            FeatureExtractor(sampling_probability=1.5)

    def test_duration_property(self):
        fx = FeatureExtractor()
        fx.close_window(1.0)
        features = fx.close_window(3.5)
        assert features.duration == pytest.approx(2.5)


class TestUdpFeatures:
    def test_udp_per_destination_counts(self):
        fx = FeatureExtractor()
        for _ in range(5):
            fx.observe(udp(dst_ip="10.0.0.9"))
        fx.observe(udp(dst_ip="10.0.0.8"))
        features = fx.close_window(1.0)
        assert features.top_udp_destination == "10.0.0.9"
        assert features.top_udp_destination_packets == 5
        assert features.per_destination_udp == {"10.0.0.9": 5, "10.0.0.8": 1}

    def test_udp_rate(self):
        fx = FeatureExtractor()
        for _ in range(20):
            fx.observe(udp())
        features = fx.close_window(0.5)
        assert features.udp_rate == pytest.approx(40.0)

    def test_udp_sources_feed_entropy(self):
        fx = FeatureExtractor()
        for i in range(8):
            fx.observe(udp(src_ip=f"198.18.0.{i + 1}"))
        features = fx.close_window(1.0)
        assert features.distinct_sources == 8
        assert features.source_entropy == pytest.approx(1.0)

    def test_no_udp_means_no_top_udp_destination(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_SYN))
        features = fx.close_window(1.0)
        assert features.top_udp_destination is None
        assert features.per_destination_udp == {}

    def test_udp_scaling_with_sampling(self):
        fx = FeatureExtractor(sampling_probability=0.25)
        for _ in range(10):
            fx.observe(udp())
        features = fx.close_window(1.0)
        assert features.udp_packets == pytest.approx(40.0)
        assert features.top_udp_destination_packets == pytest.approx(40.0)


class TestReusedAccumulators:
    """The per-window counters/dicts are recycled in place across windows;
    nothing from a closed window may leak into the next one, and the
    per-destination dicts handed out must not alias the live ones."""

    def test_second_window_starts_from_zero(self):
        fx = FeatureExtractor()
        for _ in range(5):
            fx.observe(tcp(TCP_SYN))
        fx.observe(udp())
        first = fx.close_window(1.0)
        assert first.syn_count == 5 and first.udp_packets == 1
        second = fx.close_window(2.0)
        assert second.total_packets == 0
        assert second.syn_count == 0 and second.udp_packets == 0
        assert second.distinct_sources == 0
        assert second.per_destination_syns == {}
        assert second.per_destination_udp == {}
        assert second.window_start == 1.0 and second.window_end == 2.0

    def test_emitted_dicts_do_not_alias_live_state(self):
        fx = FeatureExtractor()
        fx.observe(tcp(TCP_SYN, dst_ip="10.0.0.9"))
        fx.observe(udp(dst_ip="10.0.0.9"))
        first = fx.close_window(1.0)
        # New traffic after the close must not mutate the emitted record.
        for _ in range(3):
            fx.observe(tcp(TCP_SYN, dst_ip="10.0.0.7"))
            fx.observe(udp(dst_ip="10.0.0.7"))
        assert first.per_destination_syns == {"10.0.0.9": 1}
        assert first.per_destination_udp == {"10.0.0.9": 1}
        second = fx.close_window(2.0)
        assert second.per_destination_syns == {"10.0.0.7": 3}
        assert second.per_destination_udp == {"10.0.0.7": 3}


class TestSketchBackend:
    """PR 7: the sketch feature backend must produce the same scalar
    fields as exact and bounded-estimate maps."""

    def test_scalars_match_exact(self):
        exact = FeatureExtractor()
        sketch = FeatureExtractor(backend="sketch")
        for i in range(50):
            for fx in (exact, sketch):
                fx.observe(tcp(TCP_SYN, src_ip=f"10.1.{i}.1", dst_ip="10.0.0.2"))
                fx.observe(udp(src_ip=f"10.2.{i}.1", dst_ip="10.0.0.3"))
        a = exact.close_window(1.0)
        b = sketch.close_window(1.0)
        for name in (
            "window_start", "window_end", "total_packets", "tcp_packets",
            "syn_count", "synack_count", "ack_count", "rst_count",
            "fin_count", "udp_packets",
        ):
            assert getattr(a, name) == getattr(b, name), name
        assert a.backend == "exact" and b.backend == "sketch"

    def test_sketch_estimates_bounded(self):
        sketch = FeatureExtractor(backend="sketch")
        for i in range(200):
            sketch.observe(tcp(TCP_SYN, src_ip=f"10.1.{i % 40}.1", dst_ip="10.0.0.2"))
        features = sketch.close_window(1.0)
        # Count-min never undercounts the single true destination.
        assert features.top_destination == "10.0.0.2"
        assert features.top_destination_syns >= 200
        assert features.per_destination_capped is True
        # HLL distinct estimate is near the 40 true sources.
        assert abs(features.distinct_sources - 40) <= 5
        assert 0.0 <= features.source_entropy <= 1.0

    def test_sketch_deterministic_across_instances(self):
        runs = []
        for _ in range(2):
            fx = FeatureExtractor(backend="sketch")
            for i in range(100):
                fx.observe(tcp(TCP_SYN, src_ip=f"10.1.{i}.1", dst_ip="10.0.0.2"))
            runs.append(fx.close_window(1.0))
        assert runs[0] == runs[1]

    def test_sketch_windows_reset(self):
        fx = FeatureExtractor(backend="sketch")
        for i in range(30):
            fx.observe(tcp(TCP_SYN, src_ip=f"10.1.{i}.1"))
        first = fx.close_window(1.0)
        second = fx.close_window(2.0)
        assert first.syn_count == 30
        assert second.syn_count == 0
        assert second.distinct_sources == 0
        assert second.per_destination_syns == {}

    def test_sketch_state_bytes_bounded(self):
        fx = FeatureExtractor(backend="sketch", track_state_bytes=True)
        for i in range(5_000):
            fx.observe(tcp(TCP_SYN, src_ip=f"10.{i >> 8}.{i & 255}.1"))
        fx.close_window(1.0)
        # Enough sources to saturate the bounded hash caches, so the
        # comparison isolates population-dependent growth.
        few = FeatureExtractor(backend="sketch", track_state_bytes=True)
        for i in range(1_000):
            few.observe(tcp(TCP_SYN, src_ip=f"10.0.{i >> 8}.{i & 255}"))
        few.close_window(1.0)
        assert fx.peak_state_bytes <= few.peak_state_bytes * 1.1

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(backend="bogus")


class TestPerDestinationCap:
    """PR 7 satellite: per-destination maps stay full-fidelity by default
    (cap=None) and truncate to the top-k hottest keys when capped."""

    def test_default_uncapped_full_maps(self):
        fx = FeatureExtractor()
        for i in range(20):
            fx.observe(tcp(TCP_SYN, dst_ip=f"10.9.{i}.1"))
        features = fx.close_window(1.0)
        assert len(features.per_destination_syns) == 20
        assert features.per_destination_capped is False

    def test_cap_keeps_hottest_keys(self):
        fx = FeatureExtractor(per_destination_cap=2)
        for _ in range(5):
            fx.observe(tcp(TCP_SYN, dst_ip="10.9.0.1"))
        for _ in range(3):
            fx.observe(tcp(TCP_SYN, dst_ip="10.9.0.2"))
        fx.observe(tcp(TCP_SYN, dst_ip="10.9.0.3"))
        features = fx.close_window(1.0)
        assert features.per_destination_syns == {"10.9.0.1": 5, "10.9.0.2": 3}
        assert features.per_destination_capped is True
        assert features.top_destination == "10.9.0.1"
        assert features.top_destination_syns == 5

    def test_cap_not_exceeded_leaves_map_intact(self):
        fx = FeatureExtractor(per_destination_cap=8)
        fx.observe(tcp(TCP_SYN, dst_ip="10.9.0.1"))
        fx.observe(udp(dst_ip="10.9.0.2"))
        features = fx.close_window(1.0)
        assert features.per_destination_syns == {"10.9.0.1": 1}
        assert features.per_destination_udp == {"10.9.0.2": 1}
        assert features.per_destination_capped is False

    def test_cap_applies_to_udp_map(self):
        fx = FeatureExtractor(per_destination_cap=1)
        for _ in range(4):
            fx.observe(udp(dst_ip="10.9.0.1"))
        fx.observe(udp(dst_ip="10.9.0.2"))
        features = fx.close_window(1.0)
        assert features.per_destination_udp == {"10.9.0.1": 4}
        assert features.per_destination_capped is True


class TestAccounting:
    """PR 7: the batched fold's conservation counters feed the invariant
    checker; every observed packet must be folded or still pending."""

    def test_observed_equals_folded_plus_pending(self):
        fx = FeatureExtractor()
        for _ in range(6):
            fx.observe(tcp(TCP_SYN))
        fx.close_window(1.0)
        for _ in range(4):
            fx.observe(udp())
        acct = fx.accounting()
        assert acct["observed"] == 10
        assert acct["folded_total"] == 6
        assert acct["pending"] == 4
        assert fx.pending_packets == 4

    def test_backend_adds_match_folded_totals(self):
        for backend in ("exact", "sketch"):
            fx = FeatureExtractor(backend=backend)
            for i in range(12):
                fx.observe(tcp(TCP_SYN, src_ip=f"10.1.{i}.1"))
            for _ in range(7):
                fx.observe(udp())
            fx.observe(tcp(TCP_ACK))  # folded but not a SYN/UDP add
            fx.close_window(1.0)
            acct = fx.accounting()
            assert acct["folded_syn"] == acct["backend_syn_adds"] == 12
            assert acct["folded_udp"] == acct["backend_udp_adds"] == 7
            assert acct["folded_total"] == 20


# ------------------------------------------------ fold vs naive tally

_FLAG_BYTES = st.one_of(
    st.sampled_from((
        TCP_SYN, TCP_SYN | TCP_ACK, TCP_ACK, TCP_RST, TCP_RST | TCP_ACK,
        TCP_FIN, TCP_FIN | TCP_ACK, TCP_SYN | TCP_FIN, TCP_SYN | TCP_RST,
        TCP_RST | TCP_FIN, TCP_PSH | TCP_ACK, 0,
    )),
    st.integers(0, 255),
)


@st.composite
def _frames(draw):
    """One window of (kind, flags, src, dst, pass_key) frame specs."""
    repeated = [f"10.0.0.{i}" for i in range(1, 4)]
    frames = []
    for i in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(("tcp", "tcp", "tcp", "udp", "icmp", "arp")))
        flags = draw(_FLAG_BYTES) if kind == "tcp" else None
        # Repeated addresses (shared tie-breaks) or a unique one per frame.
        src = draw(st.sampled_from(repeated + [f"198.51.{i}.7"]))
        dst = draw(st.sampled_from(repeated + [f"203.0.{i}.9"]))
        frames.append((kind, flags, src, dst, draw(st.booleans())))
    return frames


def _packet(kind, flags, src, dst):
    if kind == "tcp":
        return tcp(flags, src, dst)
    if kind == "udp":
        return udp(src, dst)
    if kind == "icmp":
        return Packet.icmp_packet(MAC, MAC, src, dst, IcmpHeader(8))
    return Packet(eth=EthernetHeader(MAC, MAC, 0x0806))


def _naive_features(frames, scale, start, end) -> WindowFeatures:
    """Per-packet tally written out longhand, independent of the fold."""
    total = tcp_n = syn = synack = ack = rst = fin = udp_n = 0
    sources: dict[str, int] = {}
    syn_dsts: dict[str, int] = {}
    udp_dsts: dict[str, int] = {}
    for kind, flags, src, dst, _ in frames:
        total += 1
        if kind == "udp":
            udp_n += 1
            sources[src] = sources.get(src, 0) + 1
            udp_dsts[dst] = udp_dsts.get(dst, 0) + 1
        elif kind == "tcp":
            tcp_n += 1
            if flags & TCP_SYN and flags & TCP_ACK:
                synack += 1
            elif flags & TCP_SYN:
                syn += 1
                sources[src] = sources.get(src, 0) + 1
                syn_dsts[dst] = syn_dsts.get(dst, 0) + 1
            elif flags & TCP_ACK:
                ack += 1
            if flags & TCP_RST:
                rst += 1
            if flags & TCP_FIN:
                fin += 1
    n = sum(sources.values())
    entropy = 0.0
    if n and len(sources) > 1:
        raw = 0.0
        for count in sources.values():
            p = count / n
            raw -= p * math.log2(p)
        entropy = raw / math.log2(len(sources))
    top_syn = max(syn_dsts, key=syn_dsts.get) if syn_dsts else None
    top_udp = max(udp_dsts, key=udp_dsts.get) if udp_dsts else None
    return WindowFeatures(
        window_start=start,
        window_end=end,
        total_packets=total * scale,
        tcp_packets=tcp_n * scale,
        syn_count=syn * scale,
        synack_count=synack * scale,
        ack_count=ack * scale,
        rst_count=rst * scale,
        fin_count=fin * scale,
        udp_packets=udp_n * scale,
        distinct_sources=len(sources),
        source_entropy=entropy,
        top_destination=top_syn,
        top_destination_syns=syn_dsts[top_syn] * scale if top_syn else 0.0,
        per_destination_syns={ip: c * scale for ip, c in syn_dsts.items()},
        top_udp_destination=top_udp,
        top_udp_destination_packets=udp_dsts[top_udp] * scale if top_udp else 0.0,
        per_destination_udp={ip: c * scale for ip, c in udp_dsts.items()},
    )


class TestFoldMatchesNaiveTally:
    @settings(max_examples=80, deadline=None)
    @given(
        windows=st.lists(_frames(), min_size=1, max_size=3),
        sampling=st.sampled_from((1.0, 0.5, 0.1, 0.3)),
    )
    def test_close_window_equals_per_packet_tally(self, windows, sampling):
        fx = FeatureExtractor(sampling_probability=sampling)
        start = 0.0
        for i, frames in enumerate(windows):
            for kind, flags, src, dst, pass_key in frames:
                packet = _packet(kind, flags, src, dst)
                key = FlowKey.from_packet(packet) if pass_key else None
                fx.observe(packet, key)
            end = float(i + 1)
            assert fx.close_window(end) == _naive_features(
                frames, 1.0 / sampling, start, end
            )
            start = end
        acc = fx.accounting()
        assert acc["pending"] == 0
        assert acc["observed"] == acc["folded_total"]
        assert acc["folded_syn"] == acc["backend_syn_adds"]
        assert acc["folded_udp"] == acc["backend_udp_adds"]

    @settings(max_examples=40, deadline=None)
    @given(windows=st.lists(_frames(), min_size=1, max_size=3))
    def test_sketch_backend_counts_equal_tally(self, windows):
        fx = FeatureExtractor(backend="sketch", sketch_width=64)
        for i, frames in enumerate(windows):
            for kind, flags, src, dst, _ in frames:
                fx.observe(_packet(kind, flags, src, dst))
            got = fx.close_window(float(i + 1))
            want = _naive_features(frames, 1.0, 0.0, 0.0)
            for name in (
                "total_packets", "tcp_packets", "syn_count", "synack_count",
                "ack_count", "rst_count", "fin_count", "udp_packets",
            ):
                assert getattr(got, name) == getattr(want, name), name
