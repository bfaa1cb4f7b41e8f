"""Monitor feature-plane benchmarks: observe+close throughput and memory.

The monitor tier's hot path is ``FeatureExtractor.observe`` (one call
per sampled packet) plus the per-window ``close_window`` fold.  These
benchmarks drive that path directly — no simulator — with a spoofed
SYN-flood mix (90% SYNs from rotating spoofed sources, 10% benign ACKs)
and report packets per second for the exact backend and for the sketch
backend across geometries.

Honest numbers on this machine (see also EXPERIMENTS M6): the exact
backend folds into C-speed dicts and is several times *faster* than the
sketch backend, whose per-add keyed blake2b hashing is pure-Python
overhead.  What the sketch buys is the memory column, not the time
column: its state is fixed by the sketch geometry (~110 KiB at the
default 1024x4 + 2^12 registers) while the exact backend's per-address
dicts grow without bound — ~11 MiB at 10^5 distinct sources within one
window, enforced as a ceiling test below.  In a production monitor the
hashing is line-rate hardware or C (the dpdk_100g/OctoSketch exemplar);
what this repo reproduces is the accuracy/memory trade-off, with the
throughput cost reported rather than hidden.
"""

from __future__ import annotations

from repro.monitor.features import FeatureExtractor
from repro.net.headers import TCP_ACK, TCP_SYN, TcpHeader
from repro.net.packet import Packet

_MAC = "00:00:00:00:00:01"
_WINDOW_PACKETS = 2_000


def _flood_mix(n_packets: int, n_sources: int) -> list[Packet]:
    """Deterministic spoofed SYN flood with a benign ACK trickle."""
    packets = []
    for i in range(n_packets):
        if i % 10 == 9:
            packets.append(Packet.tcp_packet(
                _MAC, _MAC, f"10.0.{(i // 10) % 4}.1", "10.0.0.2",
                TcpHeader(2000 + (i % 1000), 80, flags=TCP_ACK),
            ))
        else:
            s = i % n_sources
            packets.append(Packet.tcp_packet(
                _MAC, _MAC,
                f"198.{(s >> 16) & 255}.{(s >> 8) & 255}.{s & 255}",
                "10.0.0.2",
                TcpHeader(1024 + (i & 4095), 80, flags=TCP_SYN),
            ))
    return packets


def _run_feature_plane(
    benchmark, n_sources: int = 5_000, **extractor_kwargs
) -> None:
    packets = _flood_mix(20_000, n_sources)

    def run() -> FeatureExtractor:
        extractor = FeatureExtractor(**extractor_kwargs)
        observe = extractor.observe
        for i, packet in enumerate(packets):
            observe(packet)
            if i % _WINDOW_PACKETS == _WINDOW_PACKETS - 1:
                extractor.close_window(float(i))
        return extractor

    extractor = benchmark.pedantic(run, rounds=5, iterations=1)
    median = benchmark.stats.stats.median
    benchmark.extra_info["packets_per_second"] = round(len(packets) / median, 1)
    benchmark.extra_info["backend"] = extractor.backend.name
    for knob in ("sketch_width", "sketch_depth", "sketch_hash_cache"):
        if knob in extractor_kwargs:
            benchmark.extra_info[knob] = extractor_kwargs[knob]


def test_monitor_plane_exact(benchmark):
    """Exact backend: per-address dicts, the shipped default."""
    _run_feature_plane(benchmark)


def test_monitor_plane_sketch(benchmark):
    """Sketch backend at the default 1024x4 geometry."""
    _run_feature_plane(benchmark, backend="sketch")


def test_monitor_plane_sketch_small(benchmark):
    """Sketch backend at a minimal 256x2 geometry (fastest, loosest)."""
    _run_feature_plane(
        benchmark, backend="sketch", sketch_width=256, sketch_depth=2
    )


def test_monitor_plane_sketch_deep(benchmark):
    """Sketch backend at a paranoid 2048x6 geometry (tightest bounds)."""
    _run_feature_plane(
        benchmark, backend="sketch", sketch_width=2048, sketch_depth=6
    )


def test_monitor_plane_sketch_repeat_heavy(benchmark):
    """Sketch backend on a flood that re-hits 200 sources window after
    window — the hash-memoization fast path (PR 7 follow-up): every add
    resolves its counter slots from the bounded LRU instead of paying a
    keyed blake2b digest.  Compare against the cache-disabled twin below
    for the isolated speedup; contents are identical either way (see
    tests/test_monitor_sketch.py::TestHashMemoization)."""
    _run_feature_plane(benchmark, n_sources=200, backend="sketch")


def test_monitor_plane_sketch_repeat_heavy_nocache(benchmark):
    """The same repeat-heavy flood with memoization disabled (artifact
    twin of the case above; the delta is the cache's contribution)."""
    _run_feature_plane(
        benchmark, n_sources=200, backend="sketch", sketch_hash_cache=0
    )


# ------------------------------------------------------- memory ceiling


def _state_bytes_at(n_sources: int, backend: str) -> int:
    """Backend state bytes after one window of ``n_sources`` distinct SYNs."""
    extractor = FeatureExtractor(backend=backend, track_state_bytes=True)
    observe = extractor.observe
    for s in range(n_sources):
        observe(Packet.tcp_packet(
            _MAC, _MAC,
            f"198.{(s >> 16) & 255}.{(s >> 8) & 255}.{s & 255}",
            "10.0.0.2",
            TcpHeader(1024 + (s & 4095), 80, flags=TCP_SYN),
        ))
    extractor.close_window(1.0)
    return extractor.peak_state_bytes


def test_sketch_memory_ceiling_100k_sources():
    """The CI memory gate: 10^5 distinct sources in one window must keep
    the sketch backend under a 512 KiB ceiling while the exact backend's
    per-address state is at least 10x larger."""
    sketch = _state_bytes_at(100_000, "sketch")
    exact = _state_bytes_at(100_000, "exact")
    assert sketch < 512 * 1024, f"sketch state {sketch} bytes exceeds 512 KiB"
    assert exact > 10 * sketch, (
        f"exact state {exact} bytes is not >10x sketch {sketch} — "
        "scaling claim broken"
    )


def test_sketch_memory_independent_of_sources():
    """Sketch state is a function of geometry, not of the stream."""
    small = _state_bytes_at(1_000, "sketch")
    large = _state_bytes_at(100_000, "sketch")
    assert large <= small * 1.1, (
        f"sketch state grew with sources: {small} -> {large} bytes"
    )
