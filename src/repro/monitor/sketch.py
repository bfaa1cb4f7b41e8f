"""Bounded-memory streaming summaries for the monitor plane.

The exact :class:`~repro.monitor.features.FeatureExtractor` keeps
per-source and per-destination dicts, so monitor memory grows linearly
with the spoofed-source population.  This module provides the
constant-memory alternatives the sketch backend is built from:

* :class:`CountMinSketch` — per-key counts with one-sided error
  (estimates never undercount; overcount is bounded by ``e/width`` of
  the stream total per row, with failure probability ``e**-depth``).
* :class:`HeavyHitterSketch` — a count-min sketch plus a bounded
  candidate set tracking the current heavy hitters, standing in for the
  exact per-destination dicts.
* :class:`HyperLogLog` — distinct-key estimation in ``2**precision``
  one-byte registers, with linear counting for the small ranges that
  dominate sub-second windows.
* :class:`SketchSourceStats` — the sketch replacement for
  :class:`~repro.monitor.window.EntropyAccumulator`: heavy-hitter
  empirical entropy plus a uniform-tail term over the remaining
  (HLL-estimated) keys.

All hashing is keyed ``blake2b`` seeded from the monitor config, never
Python's builtin ``hash``: ``PYTHONHASHSEED`` randomization would make
fingerprints differ across runs and spawn workers, and the fuzz
oracles pin byte-identical behavior.

The keyed digest is the sketches' pure-Python hot spot (ROADMAP PR 7
follow-up), and a flood stream hits the same spoofed-source keys window
after window, so each sketch memoizes its *derived* per-key values
(counter slots, HLL slot/rank) in a bounded LRU.  The mapping depends
only on seed and shape — never on counts — so it survives ``reset()``
and carries across window folds; contents are byte-identical with the
cache on, off, or thrashing, and cache bytes are charged to
``state_bytes`` so the memory ceilings stay honest.
"""

from __future__ import annotations

import math
import sys
from array import array
from hashlib import blake2b

_MASK64 = (1 << 64) - 1

#: Default per-sketch LRU entries; 0 disables memoization.
DEFAULT_HASH_CACHE = 256


class _LRUCache:
    """Tiny bounded LRU over a dict (insertion order = recency)."""

    __slots__ = ("cap", "data")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.data: dict = {}

    def get(self, key):
        data = self.data
        value = data.pop(key, None)
        if value is not None:
            data[key] = value  # refresh recency
        return value

    def put(self, key, value) -> None:
        data = self.data
        if len(data) >= self.cap:
            del data[next(iter(data))]
        data[key] = value

    def state_bytes(self) -> int:
        data = self.data
        return sys.getsizeof(data) + sum(
            sys.getsizeof(k) + sys.getsizeof(v) for k, v in data.items()
        )


def _hash64(key: str, seed_bytes: bytes) -> int:
    """Deterministic 64-bit hash of ``key`` under a seed-derived key."""
    digest = blake2b(key.encode(), digest_size=8, key=seed_bytes).digest()
    return int.from_bytes(digest, "little")


def _seed_bytes(seed: int, salt: int) -> bytes:
    """Derive an 8-byte blake2b key from a config seed and a role salt."""
    return ((seed ^ (salt * 0x9E3779B97F4A7C15)) & _MASK64).to_bytes(8, "little")


class CountMinSketch:
    """Seeded count-min sketch over string keys.

    ``depth`` rows of ``width`` counters; each key maps to one counter
    per row via double hashing (one blake2b digest per update, split
    into the two 32-bit halves).  ``estimate`` returns the minimum over
    the key's counters, which never undercounts and overcounts by at
    most ``e * total / width`` with probability ``>= 1 - e**-depth``.
    """

    __slots__ = ("width", "depth", "seed", "total", "_rows", "_key", "_cache")

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        seed: int = 0,
        cache_size: int = DEFAULT_HASH_CACHE,
    ) -> None:
        if width < 8:
            raise ValueError("width must be >= 8")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.total = 0
        self._rows = [array("Q", bytes(8 * width)) for _ in range(depth)]
        self._key = _seed_bytes(seed, 0xC31)
        self._cache = _LRUCache(cache_size) if cache_size > 0 else None

    def _slots(self, key: str) -> tuple:
        """The key's counter slot per row (memoized; count-independent)."""
        cache = self._cache
        if cache is not None:
            slots = cache.get(key)
            if slots is not None:
                return slots
        digest = _hash64(key, self._key)
        h1 = digest & 0xFFFFFFFF
        h2 = (digest >> 32) | 1
        width = self.width
        slots = tuple((h1 + i * h2) % width for i in range(self.depth))
        if cache is not None:
            cache.put(key, slots)
        return slots

    @property
    def epsilon(self) -> float:
        """Per-key additive error factor: overcount <= epsilon * total."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Probability the epsilon bound fails for a given key."""
        return math.exp(-self.depth)

    def add(self, key: str, amount: int = 1) -> int:
        """Count ``amount`` for ``key``; returns the post-add estimate."""
        est = sys.maxsize
        for row, slot in zip(self._rows, self._slots(key)):
            value = row[slot] + amount
            row[slot] = value
            if value < est:
                est = value
        self.total += amount
        return est

    def add_bulk(self, counts: dict) -> list:
        """Count every ``(key, amount)`` pair; returns post-add estimates.

        Equivalent to sequential :meth:`add` calls in the dict's
        iteration (first-touch) order — same estimate sequence, same
        counter bytes — with one slot resolve (and one LRU touch) per
        unique key.
        """
        add = self.add
        return [add(key, amount) for key, amount in counts.items()]

    def estimate(self, key: str) -> int:
        """Estimated count for ``key`` (never below the true count)."""
        return min(
            row[slot] for row, slot in zip(self._rows, self._slots(key))
        )

    def row_totals(self) -> list[int]:
        """Per-row counter sums; each equals ``total`` by construction
        (every add touches exactly one counter per row) — the sketch
        accounting invariant the checker enforces."""
        return [sum(row) for row in self._rows]

    def reset(self) -> None:
        """Zero every counter (arrays reused, no reallocation)."""
        zero = bytes(8 * self.width)
        for row in self._rows:
            row[:] = array("Q", zero)
        self.total = 0

    def state_bytes(self) -> int:
        """Resident bytes: counter arrays plus the bounded slot cache."""
        total = sum(sys.getsizeof(row) for row in self._rows)
        if self._cache is not None:
            total += self._cache.state_bytes()
        return total


class HeavyHitterSketch:
    """Count-min sketch plus a bounded current-heavy-hitter candidate set.

    The candidate dict holds at most ``2 * topk`` keys: on each add the
    post-add estimate either updates an existing candidate or evicts the
    smallest one when it exceeds it.  Eviction and ``top`` tie-breaking
    follow candidate insertion order, so results are deterministic for a
    given stream and seed.
    """

    __slots__ = ("cms", "topk", "_cap", "_candidates")

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        topk: int = 8,
        seed: int = 0,
        cache_size: int = DEFAULT_HASH_CACHE,
    ) -> None:
        if topk < 1:
            raise ValueError("topk must be >= 1")
        self.cms = CountMinSketch(width, depth, seed, cache_size=cache_size)
        self.topk = topk
        self._cap = 2 * topk
        self._candidates: dict[str, int] = {}

    @property
    def total(self) -> int:
        """Total amount added this window."""
        return self.cms.total

    def add(self, key: str, amount: int = 1) -> int:
        """Count ``amount`` for ``key`` and refresh the candidate set."""
        est = self.cms.add(key, amount)
        cand = self._candidates
        if key in cand:
            cand[key] = est
        elif len(cand) < self._cap:
            cand[key] = est
        else:
            weakest = min(cand, key=cand.get)  # first-inserted wins ties
            if est > cand[weakest]:
                del cand[weakest]
                cand[key] = est
        return est

    def add_bulk(self, counts: dict) -> list:
        """Count every ``(key, amount)`` pair and refresh the candidates.

        The candidate maintenance runs once per *unique* key with that
        key's whole-window amount: the state equals sequential
        :meth:`add` calls over the dict's ``(key, amount)`` pairs.
        """
        ests = self.cms.add_bulk(counts)
        cand = self._candidates
        cap = self._cap
        for key, est in zip(counts, ests):
            if key in cand:
                cand[key] = est
            elif len(cand) < cap:
                cand[key] = est
            else:
                weakest = min(cand, key=cand.get)  # first-inserted wins ties
                if est > cand[weakest]:
                    del cand[weakest]
                    cand[key] = est
        return ests

    def estimate(self, key: str) -> int:
        """Estimated count for ``key``."""
        return self.cms.estimate(key)

    def top(self, n: int | None = None) -> list[tuple[str, int]]:
        """Up to ``n`` (default ``topk``) heaviest candidates.

        Ordered by estimated count descending, candidate insertion order
        on ties — mirroring the first-increment tie-break of the exact
        per-destination dicts.
        """
        if n is None:
            n = self.topk
        ranked = sorted(
            enumerate(self._candidates.items()), key=lambda t: (-t[1][1], t[0])
        )
        return [item for _, item in ranked[:n]]

    def reset(self) -> None:
        """Clear counters and candidates for the next window."""
        self.cms.reset()
        self._candidates.clear()

    def state_bytes(self) -> int:
        """Resident bytes — O(width * depth + topk)."""
        cand = self._candidates
        return (
            self.cms.state_bytes()
            + sys.getsizeof(cand)
            + sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in cand.items())
        )


class HyperLogLog:
    """Distinct-count estimator in ``2**precision`` one-byte registers.

    Standard HyperLogLog with the linear-counting correction for small
    cardinalities (``E <= 2.5 * m`` with empty registers), which is the
    regime sub-second monitor windows actually occupy.  No large-range
    correction: 64-bit hashes keep collisions negligible at any
    cardinality this simulator can produce.
    """

    __slots__ = (
        "precision",
        "seed",
        "_m",
        "_alpha",
        "_registers",
        "_key",
        "total",
        "_cache",
    )

    def __init__(
        self,
        precision: int = 12,
        seed: int = 0,
        cache_size: int = DEFAULT_HASH_CACHE,
    ) -> None:
        if not 4 <= precision <= 16:
            raise ValueError("precision must be in [4, 16]")
        self.precision = precision
        self.seed = seed
        self._m = 1 << precision
        if self._m >= 128:
            self._alpha = 0.7213 / (1 + 1.079 / self._m)
        elif self._m == 64:
            self._alpha = 0.709
        elif self._m == 32:
            self._alpha = 0.697
        else:
            self._alpha = 0.673
        self._registers = bytearray(self._m)
        self._key = _seed_bytes(seed, 0x41F)
        self.total = 0
        self._cache = _LRUCache(cache_size) if cache_size > 0 else None

    def add(self, key: str) -> None:
        """Observe ``key``."""
        self.total += 1
        cache = self._cache
        pair = cache.get(key) if cache is not None else None
        if pair is None:
            value = _hash64(key, self._key)
            slot = value & (self._m - 1)
            rest = value >> self.precision
            rank = (64 - self.precision) - rest.bit_length() + 1
            pair = (slot, rank)
            if cache is not None:
                cache.put(key, pair)
        slot, rank = pair
        registers = self._registers
        if rank > registers[slot]:
            registers[slot] = rank

    def add_bulk(self, keys) -> None:
        """Observe each key once (bulk adds count one distinct per key).

        Max commutes, so the register file is byte-identical to
        sequential :meth:`add` calls.
        """
        add = self.add
        for key in keys:
            add(key)

    def estimate(self) -> float:
        """Estimated number of distinct keys observed."""
        m = self._m
        registers = self._registers
        harmonic = 0.0
        zeros = 0
        for value in registers:
            harmonic += 2.0 ** -value
            if value == 0:
                zeros += 1
        raw = self._alpha * m * m / harmonic
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)
        return raw

    @property
    def relative_error(self) -> float:
        """Typical (one-sigma) relative error: ``1.04 / sqrt(m)``."""
        return 1.04 / math.sqrt(self._m)

    def reset(self) -> None:
        """Clear registers for the next window."""
        self._registers[:] = bytes(self._m)
        self.total = 0

    def state_bytes(self) -> int:
        """Resident bytes: register file plus the bounded hash cache."""
        total = sys.getsizeof(self._registers)
        if self._cache is not None:
            total += self._cache.state_bytes()
        return total


class SketchSourceStats:
    """Bounded-memory stand-in for :class:`EntropyAccumulator`.

    Tracks the source distribution with a heavy-hitter sketch (for the
    skewed head) and a HyperLogLog (for the cardinality of the long
    tail), and estimates normalized Shannon entropy as exact entropy
    over the heavy-hitter head plus a uniform-tail term for the
    remaining mass spread over the remaining estimated keys.

    A spoofed flood (every packet a fresh address) has no head, so the
    whole mass lands in the uniform tail and the estimate approaches 1;
    a flash crowd of repeat clients concentrates mass in the head and
    lands lower — the same separation the exact accumulator gives the
    entropy detector.
    """

    __slots__ = ("hitters", "hll")

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        topk: int = 8,
        precision: int = 12,
        seed: int = 0,
        cache_size: int = DEFAULT_HASH_CACHE,
    ) -> None:
        self.hitters = HeavyHitterSketch(
            width, depth, topk, seed=seed ^ 0x50FA, cache_size=cache_size
        )
        self.hll = HyperLogLog(
            precision, seed=seed ^ 0x7E11, cache_size=cache_size
        )

    @property
    def total(self) -> int:
        """Total observations this window."""
        return self.hitters.total

    def add(self, key: str, amount: int = 1) -> None:
        """Observe ``key``."""
        self.hitters.add(key, amount)
        # Bulk adds contribute one distinct key regardless of amount.
        self.hll.add(key)

    def add_bulk(self, counts: dict) -> None:
        """Observe every ``(key, amount)`` pair (one distinct each)."""
        self.hitters.add_bulk(counts)
        self.hll.add_bulk(counts.keys())

    @property
    def distinct(self) -> int:
        """Estimated distinct keys this window (rounded, >= candidate count)."""
        if self.hitters.total == 0:
            return 0
        est = int(round(self.hll.estimate()))
        return max(est, 1)

    def entropy(self) -> float:
        """Estimated normalized Shannon entropy in [0, 1]."""
        n = self.hitters.total
        if n == 0:
            return 0.0
        head = self.hitters.top()
        k_est = max(self.distinct, len(head), 1)
        if k_est <= 1:
            return 0.0
        raw = 0.0
        head_mass = 0
        head_keys = 0
        remaining = n
        for _, est in head:
            count = min(est, remaining)
            if count <= 0:
                continue
            p = count / n
            raw -= p * math.log2(p)
            head_mass += count
            head_keys += 1
            remaining -= count
        tail_mass = n - head_mass
        tail_keys = k_est - head_keys
        if tail_mass > 0 and tail_keys > 0:
            p = (tail_mass / tail_keys) / n
            raw -= tail_keys * p * math.log2(p)
        value = raw / math.log2(k_est)
        return min(max(value, 0.0), 1.0)

    def reset(self) -> None:
        """Clear for the next window."""
        self.hitters.reset()
        self.hll.reset()

    def state_bytes(self) -> int:
        """Resident bytes — independent of distinct sources."""
        return self.hitters.state_bytes() + self.hll.state_bytes()
