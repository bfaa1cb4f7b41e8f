"""The packet container that flows through links, switches and hosts.

A :class:`Packet` carries the structured headers (for efficient flow-table
matching inside the simulated OVS) *and* can serialize itself to wire bytes
(for the DPI path).  ``parse_packet`` is the inverse, used by the inspector
to prove the bytes genuinely round-trip.

The flood-scale allocation fast path lives here as well:
:class:`SynFloodTemplate` / :class:`UdpFloodTemplate` hold one immutable
frame shape per flood flow, stamped per packet with the spoofed source,
port and sequence number.  Stamping patches the pre-packed wire bytes in
place (incremental RFC 1071 checksums), so the ``to_bytes()`` memo is
warm at birth and the DPI path never re-packs a flood frame.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addresses import ip_to_int
from repro.net.headers import (
    ETHERTYPE_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_SYN,
    EthernetHeader,
    HeaderError,
    IcmpHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
    _pseudo_header,
    checksum_partial,
)

_packet_ids = itertools.count(1)

# Fields whose mutation changes the wire image / flow identity; assigning
# any of them drops the serialization and flow-key memos.
_WIRE_FIELDS = frozenset({"eth", "ip", "tcp", "udp", "icmp", "payload"})


@dataclass(init=False)
class Packet:
    """A frame in flight: Ethernet + optional IPv4 + optional L4 header.

    The frame memoizes its wire serialization and 5-tuple flow key; both
    memos are dropped automatically when a header or the payload is
    reassigned (e.g. the TTL decrement in :meth:`forwarded`), so mirror
    copies, pcap export and the DPI re-parse share one serialization
    without ever observing stale bytes.
    """

    eth: EthernetHeader
    ip: Optional[IPv4Header] = None
    tcp: Optional[TcpHeader] = None
    udp: Optional[UdpHeader] = None
    icmp: Optional[IcmpHeader] = None
    payload: bytes = b""
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_at: float = 0.0
    _wire: Optional[bytes] = field(default=None, repr=False, compare=False)
    _fkey: Optional[tuple] = field(default=None, repr=False, compare=False)
    # (in_port, FlowKey) pair memoized by FlowKey.from_packet.
    _fkobj: Optional[tuple] = field(default=None, repr=False, compare=False)
    _size: Optional[int] = field(default=None, repr=False, compare=False)

    # Hand-written so construction writes slots directly: routing every
    # dataclass-generated assignment through the memo-invalidating
    # __setattr__ below costs ~2x on the per-packet hot path.
    def __init__(
        self,
        eth: EthernetHeader,
        ip: Optional[IPv4Header] = None,
        tcp: Optional[TcpHeader] = None,
        udp: Optional[UdpHeader] = None,
        icmp: Optional[IcmpHeader] = None,
        payload: bytes = b"",
        packet_id: Optional[int] = None,
        created_at: float = 0.0,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "eth", eth)
        set_(self, "ip", ip)
        set_(self, "tcp", tcp)
        set_(self, "udp", udp)
        set_(self, "icmp", icmp)
        set_(self, "payload", payload)
        set_(self, "packet_id", next(_packet_ids) if packet_id is None else packet_id)
        set_(self, "created_at", created_at)
        set_(self, "_wire", None)
        set_(self, "_fkey", None)
        set_(self, "_fkobj", None)
        set_(self, "_size", None)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _WIRE_FIELDS:
            object.__setattr__(self, "_wire", None)
            object.__setattr__(self, "_fkey", None)
            object.__setattr__(self, "_fkobj", None)
            object.__setattr__(self, "_size", None)

    @classmethod
    def tcp_packet(
        cls,
        src_mac: str,
        dst_mac: str,
        src_ip: str,
        dst_ip: str,
        tcp: TcpHeader,
        payload: bytes = b"",
        ttl: int = 64,
        created_at: float = 0.0,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/TCP packet with correct lengths."""
        total_length = IPv4Header.LENGTH + TcpHeader.LENGTH + len(payload)
        ip = IPv4Header(
            src_ip=src_ip, dst_ip=dst_ip, protocol=PROTO_TCP, total_length=total_length, ttl=ttl
        )
        eth = EthernetHeader(src_mac=src_mac, dst_mac=dst_mac, ethertype=ETHERTYPE_IPV4)
        return cls(eth=eth, ip=ip, tcp=tcp, payload=payload, created_at=created_at)

    @classmethod
    def udp_packet(
        cls,
        src_mac: str,
        dst_mac: str,
        src_ip: str,
        dst_ip: str,
        udp: UdpHeader,
        payload: bytes = b"",
        ttl: int = 64,
        created_at: float = 0.0,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/UDP packet with correct lengths."""
        total_length = IPv4Header.LENGTH + UdpHeader.LENGTH + len(payload)
        ip = IPv4Header(
            src_ip=src_ip, dst_ip=dst_ip, protocol=PROTO_UDP, total_length=total_length, ttl=ttl
        )
        eth = EthernetHeader(src_mac=src_mac, dst_mac=dst_mac, ethertype=ETHERTYPE_IPV4)
        return cls(eth=eth, ip=ip, udp=udp, payload=payload, created_at=created_at)

    @classmethod
    def icmp_packet(
        cls,
        src_mac: str,
        dst_mac: str,
        src_ip: str,
        dst_ip: str,
        icmp: IcmpHeader,
        payload: bytes = b"",
        ttl: int = 64,
        created_at: float = 0.0,
    ) -> "Packet":
        """Build a full Ethernet/IPv4/ICMP packet with correct lengths."""
        total_length = IPv4Header.LENGTH + IcmpHeader.LENGTH + len(payload)
        ip = IPv4Header(
            src_ip=src_ip, dst_ip=dst_ip, protocol=PROTO_ICMP, total_length=total_length, ttl=ttl
        )
        eth = EthernetHeader(src_mac=src_mac, dst_mac=dst_mac, ethertype=ETHERTYPE_IPV4)
        return cls(eth=eth, ip=ip, icmp=icmp, payload=payload, created_at=created_at)

    @property
    def size_bytes(self) -> int:
        """Frame size on the wire, used for link transmission timing (memoized)."""
        size = self._size
        if size is not None:
            return size
        size = EthernetHeader.LENGTH
        if self.ip is not None:
            size += IPv4Header.LENGTH
        if self.tcp is not None:
            size += TcpHeader.LENGTH
        elif self.udp is not None:
            size += UdpHeader.LENGTH
        elif self.icmp is not None:
            size += IcmpHeader.LENGTH
        size += len(self.payload)
        object.__setattr__(self, "_size", size)
        return size

    @property
    def is_tcp(self) -> bool:
        """True for Ethernet/IPv4/TCP packets."""
        return self.tcp is not None

    @property
    def src_ip(self) -> str | None:
        """IPv4 source if present."""
        return self.ip.src_ip if self.ip is not None else None

    @property
    def dst_ip(self) -> str | None:
        """IPv4 destination if present."""
        return self.ip.dst_ip if self.ip is not None else None

    def flow_key(self) -> tuple:
        """5-tuple identifying the flow (for counters and DPI tables)."""
        cached = self._fkey
        if cached is not None:
            return cached
        if self.tcp is not None and self.ip is not None:
            key = (self.ip.src_ip, self.tcp.src_port, self.ip.dst_ip,
                   self.tcp.dst_port, PROTO_TCP)
        elif self.udp is not None and self.ip is not None:
            key = (self.ip.src_ip, self.udp.src_port, self.ip.dst_ip,
                   self.udp.dst_port, PROTO_UDP)
        elif self.ip is not None:
            key = (self.ip.src_ip, 0, self.ip.dst_ip, 0, self.ip.protocol)
        else:
            key = (self.eth.src_mac, 0, self.eth.dst_mac, 0, -1)
        object.__setattr__(self, "_fkey", key)
        return key

    def copy(self) -> "Packet":
        """Shallow per-header copy with a fresh packet id (for mirroring).

        Headers and payload are immutable, so the copy inherits the
        serialization memo: mirroring then exporting/inspecting a frame
        packs its bytes once, not once per consumer.
        """
        clone = Packet.__new__(Packet)
        # One C-level dict copy instead of a setattr per field (~2x).
        state = dict(self.__dict__)
        state["packet_id"] = next(_packet_ids)
        object.__setattr__(clone, "__dict__", state)
        return clone

    def forwarded(self) -> "Packet":
        """Copy with TTL decremented, as an L3 hop would produce."""
        if self.ip is None:
            return self.copy()
        clone = self.copy()
        clone.ip = self.ip.decrement_ttl()
        return clone

    def to_bytes(self) -> bytes:
        """Serialize the whole frame to wire format (memoized).

        The packed frame is cached until a header or the payload is
        reassigned; ``forwarded()`` replaces the IPv4 header, so each hop
        re-packs, but mirror/pcap/DPI touches of the *same* hop share
        one serialization.
        """
        cached = self._wire
        if cached is not None:
            return cached
        parts = [self.eth.pack()]
        if self.ip is not None:
            parts.append(self.ip.pack())
            if self.tcp is not None:
                parts.append(self.tcp.pack(self.ip.src_ip, self.ip.dst_ip, self.payload))
            elif self.udp is not None:
                parts.append(self.udp.pack(self.ip.src_ip, self.ip.dst_ip, self.payload))
            elif self.icmp is not None:
                parts.append(self.icmp.pack(self.payload))
            else:
                parts.append(self.payload)
        else:
            parts.append(self.payload)
        raw = b"".join(parts)
        object.__setattr__(self, "_wire", raw)
        return raw

    def describe(self) -> str:
        """One-line human-readable summary for traces."""
        if self.tcp is not None and self.ip is not None:
            return (
                f"TCP {self.ip.src_ip}:{self.tcp.src_port} -> "
                f"{self.ip.dst_ip}:{self.tcp.dst_port} [{self.tcp.flag_names()}]"
            )
        if self.udp is not None and self.ip is not None:
            return f"UDP {self.ip.src_ip}:{self.udp.src_port} -> {self.ip.dst_ip}:{self.udp.dst_port}"
        if self.icmp is not None and self.ip is not None:
            return f"ICMP type={self.icmp.icmp_type} {self.ip.src_ip} -> {self.ip.dst_ip}"
        return f"ETH {self.eth.src_mac} -> {self.eth.dst_mac} type=0x{self.eth.ethertype:04x}"


# Byte offsets of the variable fields inside a templated flood frame
# (Ethernet 14 + IPv4 20 + L4).  See SynFloodTemplate/UdpFloodTemplate.
_IP_CSUM_OFF = EthernetHeader.LENGTH + 10          # 24
_IP_SRC_OFF = EthernetHeader.LENGTH + 12           # 26
_L4_OFF = EthernetHeader.LENGTH + IPv4Header.LENGTH  # 34


class _FloodTemplate:
    """Shared machinery: pre-packed frame + incremental checksum partials."""

    __slots__ = ("eth", "dst_ip", "dst_port", "_base", "_frame_size",
                 "_ip_partial", "_proto_state")

    def __init__(self, prototype: Packet) -> None:
        self.eth = prototype.eth
        self.dst_ip = prototype.ip.dst_ip
        self._base = prototype.to_bytes()
        self._frame_size = len(self._base)
        # IPv4 header words that never change: version..protocol and dst,
        # excluding the checksum field and the (zeroed) source address.
        self._ip_partial = checksum_partial(
            self._base[_IP_SRC_OFF + 4:_IP_SRC_OFF + 8],
            checksum_partial(self._base[EthernetHeader.LENGTH:_IP_CSUM_OFF]),
        )
        # Prototype __dict__ for stamped packets: every field that is the
        # same for all packets of this shape.  stamp() copies it and fills
        # in the per-packet fields, then installs the dict wholesale.
        self._proto_state = {
            "eth": prototype.eth,
            "ip": None,
            "tcp": None,
            "udp": None,
            "icmp": None,
            "payload": prototype.payload,
            "packet_id": 0,
            "created_at": 0.0,
            "_wire": b"",
            "_fkey": None,
            "_fkobj": None,
            "_size": self._frame_size,
        }

    def _src_entry(self, src_ip: str) -> tuple:
        """(packed bytes, high word, low word, IPv4Header) for a source."""
        value = ip_to_int(src_ip)
        return (
            value.to_bytes(4, "big"),
            value >> 16,
            value & 0xFFFF,
            self._make_ip_header(src_ip),
        )

    def _make_ip_header(self, src_ip: str) -> IPv4Header:
        raise NotImplementedError


class SynFloodTemplate(_FloodTemplate):
    """One immutable SYN shape (victim, MACs, TTL); stamp the rest per packet.

    ``stamp()`` builds a finished packet whose wire bytes, flow key and
    size memos are already warm: the spoofed source, source port and
    sequence number are patched into a copy of the pre-packed frame and
    both checksums are updated incrementally (RFC 1071 ones-complement
    sums over only the changed words).
    """

    __slots__ = ("_tcp_partial",)

    def __init__(self, src_mac: str, dst_mac: str, dst_ip: str, dst_port: int) -> None:
        prototype = Packet.tcp_packet(
            src_mac, dst_mac, "0.0.0.0", dst_ip,
            TcpHeader(src_port=0, dst_port=dst_port, seq=0, flags=TCP_SYN),
        )
        super().__init__(prototype)
        self.dst_port = dst_port
        base = self._base
        # TCP words that never change: pseudo-header (with zeroed source),
        # dst_port, ack/offset/flags/window, urgent pointer.
        partial = checksum_partial(
            _pseudo_header("0.0.0.0", dst_ip, PROTO_TCP, TcpHeader.LENGTH)
        )
        partial = checksum_partial(base[_L4_OFF + 2:_L4_OFF + 4], partial)
        partial = checksum_partial(base[_L4_OFF + 8:_L4_OFF + 16], partial)
        partial = checksum_partial(base[_L4_OFF + 18:_L4_OFF + 20], partial)
        self._tcp_partial = partial

    def _make_ip_header(self, src_ip: str) -> IPv4Header:
        return IPv4Header(
            src_ip=src_ip, dst_ip=self.dst_ip, protocol=PROTO_TCP,
            total_length=IPv4Header.LENGTH + TcpHeader.LENGTH,
        )

    def stamp(self, src_ip: str, src_port: int, seq: int, created_at: float) -> Packet:
        """A finished SYN packet, byte-identical to the classmethod path."""
        src_bytes, src_hi, src_lo, ip_header = self._src_entry(src_ip)
        wire = bytearray(self._base)
        wire[_IP_SRC_OFF:_IP_SRC_OFF + 4] = src_bytes
        total = self._ip_partial + src_hi + src_lo
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        checksum = ~total & 0xFFFF
        wire[_IP_CSUM_OFF] = checksum >> 8
        wire[_IP_CSUM_OFF + 1] = checksum & 0xFF
        wire[_L4_OFF] = src_port >> 8
        wire[_L4_OFF + 1] = src_port & 0xFF
        wire[_L4_OFF + 4] = (seq >> 24) & 0xFF
        wire[_L4_OFF + 5] = (seq >> 16) & 0xFF
        wire[_L4_OFF + 6] = (seq >> 8) & 0xFF
        wire[_L4_OFF + 7] = seq & 0xFF
        total = (self._tcp_partial + src_hi + src_lo + src_port
                 + (seq >> 16) + (seq & 0xFFFF))
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        checksum = ~total & 0xFFFF
        wire[_L4_OFF + 16] = checksum >> 8
        wire[_L4_OFF + 17] = checksum & 0xFF
        packet = Packet.__new__(Packet)
        # Assemble the state as one dict and install it wholesale (same
        # trick as Packet.copy): measurably cheaper than a setattr per field.
        state = dict(self._proto_state)
        state["ip"] = ip_header
        state["tcp"] = TcpHeader(src_port=src_port, dst_port=self.dst_port,
                                 seq=seq, flags=TCP_SYN)
        state["packet_id"] = next(_packet_ids)
        state["created_at"] = created_at
        state["_wire"] = bytes(wire)
        state["_fkey"] = (src_ip, src_port, self.dst_ip, self.dst_port,
                          PROTO_TCP)
        object.__setattr__(packet, "__dict__", state)
        return packet


class UdpFloodTemplate(_FloodTemplate):
    """One immutable UDP flood shape (victim, MACs, payload); see SYN twin."""

    __slots__ = ("payload", "_udp_partial")

    def __init__(
        self, src_mac: str, dst_mac: str, dst_ip: str, dst_port: int,
        payload: bytes = b"",
    ) -> None:
        prototype = Packet.udp_packet(
            src_mac, dst_mac, "0.0.0.0", dst_ip,
            UdpHeader(src_port=0, dst_port=dst_port), payload=payload,
        )
        super().__init__(prototype)
        self.dst_port = dst_port
        self.payload = payload
        base = self._base
        udp_length = UdpHeader.LENGTH + len(payload)
        # UDP words that never change: pseudo-header (with zeroed source),
        # dst_port + length, and the payload.  Every fixed chunk starts at
        # an even offset of the checksummed stream, so summing them apart
        # pads odd-length payloads exactly like the one-shot checksum.
        partial = checksum_partial(
            _pseudo_header("0.0.0.0", dst_ip, PROTO_UDP, udp_length)
        )
        partial = checksum_partial(base[_L4_OFF + 2:_L4_OFF + 6], partial)
        partial = checksum_partial(base[_L4_OFF + 8:], partial)
        self._udp_partial = partial

    def _make_ip_header(self, src_ip: str) -> IPv4Header:
        return IPv4Header(
            src_ip=src_ip, dst_ip=self.dst_ip, protocol=PROTO_UDP,
            total_length=IPv4Header.LENGTH + UdpHeader.LENGTH + len(self.payload),
        )

    def stamp(self, src_ip: str, src_port: int, created_at: float) -> Packet:
        """A finished UDP packet, byte-identical to the classmethod path."""
        src_bytes, src_hi, src_lo, ip_header = self._src_entry(src_ip)
        wire = bytearray(self._base)
        wire[_IP_SRC_OFF:_IP_SRC_OFF + 4] = src_bytes
        total = self._ip_partial + src_hi + src_lo
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        checksum = ~total & 0xFFFF
        wire[_IP_CSUM_OFF] = checksum >> 8
        wire[_IP_CSUM_OFF + 1] = checksum & 0xFF
        wire[_L4_OFF] = src_port >> 8
        wire[_L4_OFF + 1] = src_port & 0xFF
        total = self._udp_partial + src_hi + src_lo + src_port
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        checksum = ~total & 0xFFFF
        if checksum == 0:  # RFC 768: transmitted as all-ones
            checksum = 0xFFFF
        wire[_L4_OFF + 6] = checksum >> 8
        wire[_L4_OFF + 7] = checksum & 0xFF
        packet = Packet.__new__(Packet)
        # Same dict-install trick as the SYN twin.
        state = dict(self._proto_state)
        state["ip"] = ip_header
        state["udp"] = UdpHeader(src_port=src_port, dst_port=self.dst_port)
        state["packet_id"] = next(_packet_ids)
        state["created_at"] = created_at
        state["_wire"] = bytes(wire)
        state["_fkey"] = (src_ip, src_port, self.dst_ip, self.dst_port,
                          PROTO_UDP)
        object.__setattr__(packet, "__dict__", state)
        return packet


def parse_packet(raw: bytes, verify: bool = True) -> Packet:
    """Parse wire bytes back into a :class:`Packet`.

    This is the DPI entry point: the inspector receives mirrored frames as
    bytes and reconstructs the header stack, verifying checksums unless
    ``verify`` is False.
    """
    eth, rest = EthernetHeader.unpack(raw)
    packet = Packet(eth=eth, payload=rest)
    if eth.ethertype != ETHERTYPE_IPV4:
        return packet
    ip, l4 = IPv4Header.unpack(rest)
    packet.ip = ip
    l4 = l4[: max(0, ip.total_length - IPv4Header.LENGTH)] if ip.total_length else l4
    _check_l4_length(ip.protocol, l4)
    try:
        if ip.protocol == PROTO_TCP:
            tcp, payload = TcpHeader.unpack(l4, ip.src_ip, ip.dst_ip, verify=verify)
            packet.tcp = tcp
            packet.payload = payload
        elif ip.protocol == PROTO_UDP:
            udp, payload = UdpHeader.unpack(l4, ip.src_ip, ip.dst_ip, verify=verify)
            packet.udp = udp
            packet.payload = payload
        elif ip.protocol == PROTO_ICMP:
            icmp, payload = IcmpHeader.unpack(l4, verify=verify)
            packet.icmp = icmp
            packet.payload = payload
        else:
            packet.payload = l4
    except HeaderError:
        raise
    except (struct.error, IndexError, ValueError) as exc:
        # Mirrored frames can arrive mangled in arbitrary ways; the DPI
        # engine must see a HeaderError, never a codec-internal error.
        raise HeaderError(f"malformed L4 bytes (proto={ip.protocol}): {exc}") from exc
    return packet


_L4_HEADER_LENGTHS = {
    PROTO_TCP: ("TCP", TcpHeader.LENGTH),
    PROTO_UDP: ("UDP", UdpHeader.LENGTH),
    PROTO_ICMP: ("ICMP", IcmpHeader.LENGTH),
}


def _check_l4_length(protocol: int, l4: bytes) -> None:
    """Reject truncated L4 bytes with a clear, uniform HeaderError."""
    spec = _L4_HEADER_LENGTHS.get(protocol)
    if spec is None:
        return
    name, length = spec
    if len(l4) < length:
        raise HeaderError(
            f"truncated {name} segment: {len(l4)} bytes < {length}-byte header"
        )
