"""The allocation fast path: flood templates and the vectorized
Internet checksum.

Everything here defends one promise: the fast path is invisible.  A
stamped packet must be byte-for-byte what the classmethod constructors
build, an attacker without a template must put the same frames on the
wire through the per-packet send path, and the word-summed checksum must
equal the word-at-a-time reference on any input.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import TCP_SYN, TcpHeader, UdpHeader, internet_checksum
from repro.net.packet import (
    Packet,
    SynFloodTemplate,
    UdpFloodTemplate,
    parse_packet,
)
from repro.topology import single_switch
from repro.workload import (
    AttackSchedule,
    SynFloodAttacker,
    SynFloodConfig,
    UdpFloodAttacker,
    UdpFloodConfig,
)

SRC_MAC = "02:00:00:00:00:01"
DST_MAC = "02:00:00:00:00:02"
VICTIM = "10.0.0.9"


def _legacy_syn(src_ip: str, src_port: int, seq: int) -> Packet:
    return Packet.tcp_packet(
        SRC_MAC, DST_MAC, src_ip, VICTIM,
        TcpHeader(src_port=src_port, dst_port=80, seq=seq, flags=TCP_SYN),
    )


def _legacy_udp(src_ip: str, src_port: int, payload: bytes) -> Packet:
    return Packet.udp_packet(
        SRC_MAC, DST_MAC, src_ip, VICTIM,
        UdpHeader(src_port=src_port, dst_port=53), payload=payload,
    )


class TestSynFloodTemplate:
    def test_stamp_matches_classmethod_bytes(self):
        template = SynFloodTemplate(SRC_MAC, DST_MAC, VICTIM, 80)
        for src_ip, src_port, seq in [
            ("198.18.3.7", 1024, 0),
            ("198.18.255.254", 65535, 0xFFFFFFFF),
            ("1.2.3.4", 40000, 0x80008000),
        ]:
            stamped = template.stamp(src_ip, src_port, seq, 0.0)
            assert stamped.to_bytes() == _legacy_syn(src_ip, src_port, seq).to_bytes()

    def test_stamp_wire_memo_is_warm_and_parses_verified(self):
        template = SynFloodTemplate(SRC_MAC, DST_MAC, VICTIM, 80)
        stamped = template.stamp("198.18.0.1", 2048, 12345, 1.5)
        assert stamped._wire  # pre-packed at birth, no lazy serialization
        parsed = parse_packet(stamped.to_bytes(), verify=True)  # checksums hold
        assert parsed.ip.src_ip == "198.18.0.1"
        assert parsed.tcp.seq == 12345

    def test_stamp_fields_match_classmethod(self):
        template = SynFloodTemplate(SRC_MAC, DST_MAC, VICTIM, 80)
        stamped = template.stamp("198.18.9.9", 5555, 77, 2.0)
        legacy = _legacy_syn("198.18.9.9", 5555, 77)
        assert stamped.flow_key() == legacy.flow_key()
        assert stamped.size_bytes == legacy.size_bytes
        assert stamped.created_at == 2.0
        assert stamped.udp is None and stamped.icmp is None

    @given(st.integers(0, 0xFFFFFFFF), st.integers(1024, 65535))
    def test_stamp_checksums_for_any_seq_and_port(self, seq, src_port):
        template = SynFloodTemplate(SRC_MAC, DST_MAC, VICTIM, 80)
        stamped = template.stamp("198.18.1.2", src_port, seq, 0.0)
        assert stamped.to_bytes() == _legacy_syn("198.18.1.2", src_port, seq).to_bytes()

    def test_distinct_stamps_get_distinct_ids(self):
        template = SynFloodTemplate(SRC_MAC, DST_MAC, VICTIM, 80)
        a = template.stamp("198.18.0.1", 1111, 1, 0.0)
        b = template.stamp("198.18.0.1", 1111, 1, 0.0)
        assert a.packet_id != b.packet_id


class TestUdpFloodTemplate:
    def test_stamp_matches_classmethod_bytes(self):
        payload = b"x" * 64
        template = UdpFloodTemplate(SRC_MAC, DST_MAC, VICTIM, 53, payload=payload)
        for src_ip, src_port in [("198.18.3.7", 1024), ("203.0.113.200", 65535)]:
            stamped = template.stamp(src_ip, src_port, 0.0)
            assert stamped.to_bytes() == _legacy_udp(src_ip, src_port, payload).to_bytes()

    def test_odd_length_payload_checksum(self):
        # Odd payloads exercise the zero-padding of the final 16-bit word.
        payload = b"abc"
        template = UdpFloodTemplate(SRC_MAC, DST_MAC, VICTIM, 53, payload=payload)
        stamped = template.stamp("198.18.7.7", 3333, 0.0)
        assert stamped.to_bytes() == _legacy_udp("198.18.7.7", 3333, payload).to_bytes()
        parse_packet(stamped.to_bytes(), verify=True)

    @given(st.integers(1024, 65535))
    def test_stamp_checksums_for_any_port(self, src_port):
        template = UdpFloodTemplate(SRC_MAC, DST_MAC, VICTIM, 53, payload=b"q" * 9)
        stamped = template.stamp("198.18.1.2", src_port, 0.0)
        assert stamped.to_bytes() == _legacy_udp("198.18.1.2", src_port, b"q" * 9).to_bytes()


def _wire_log(attacker_cls, config, fallback: bool) -> list[tuple[bytes, float]]:
    """Frames one seeded attacker puts on the wire in its first second."""
    net, _ = single_switch(n_clients=1, n_attackers=1)
    host = net.hosts["atk1"]
    frames: list[tuple[bytes, float]] = []
    send = host.send_packet

    def record(packet: Packet) -> bool:
        frames.append((packet.to_bytes(), packet.created_at))
        return send(packet)

    host.send_packet = record
    attacker = attacker_cls(
        host, net.rng.child("a"), replace(config, victim_ip=net.hosts["srv1"].ip)
    )
    if fallback:
        attacker._build_template = lambda: None
    attacker.start()
    net.run(until=1.0)
    assert (attacker._template is None) == fallback
    assert attacker.packets_sent == len(frames) > 100
    return frames


class TestTemplateFallback:
    """Without a template the attackers send per packet, frame for frame alike."""

    def test_syn_fallback_matches_template(self):
        config = SynFloodConfig(
            rate_pps=400, schedule=AttackSchedule(start_s=0.1, ramp_s=0.3)
        )
        stamped = _wire_log(SynFloodAttacker, config, fallback=False)
        assert stamped == _wire_log(SynFloodAttacker, config, fallback=True)

    def test_udp_fallback_matches_template(self):
        config = UdpFloodConfig(
            rate_pps=400, payload_bytes=65, schedule=AttackSchedule(start_s=0.1)
        )
        stamped = _wire_log(UdpFloodAttacker, config, fallback=False)
        assert stamped == _wire_log(UdpFloodAttacker, config, fallback=True)


def _reference_checksum(data: bytes) -> int:
    """The original word-at-a-time RFC 1071 loop."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestVectorizedChecksum:
    @given(st.binary(min_size=0, max_size=512))
    def test_matches_word_loop_reference(self, data):
        assert internet_checksum(data) == _reference_checksum(data)

    def test_known_edge_cases(self):
        for data in (b"", b"\x00", b"\xff", b"\xff" * 40, b"\x00" * 40,
                     b"\xff\xff\x00\x01", bytes(range(256)) * 3 + b"\x7f"):
            assert internet_checksum(data) == _reference_checksum(data)
