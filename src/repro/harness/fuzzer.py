"""Deterministic scenario fuzzer and differential oracle.

The optimized fast paths (microflow cache, tuple-heap event loop,
process-pool fan-out, sharded execution, hosted sessions) must be
*strategy-invisible*: running the same seeded scenario on the reference
event loop, with the cache disabled, across a different worker or shard
count, or stepped in service slices has to yield byte-identical
metrics.  This module generates randomized-but-seeded scenarios
(topology, workload, attack mix, defense) and asserts exactly that:

* ``generate_scenario(seed)`` — a deterministic scenario drawn from a
  seeded RNG, with invariant checking enabled;
* ``run_differential(seed)`` — the reference lane: the scenario run
  twice, optimized vs reference (:mod:`repro.sim.engine_reference` +
  linear-scan-only flow tables), compared as canonical JSON;
* :data:`ORACLES` — the optional lanes (``parallel``, ``sharded``,
  ``serve``, ``sketch``), each checked over the reference lane's rows;
* ``run_fuzz_suite(...)`` — the CI entry point behind ``repro check``.

The fingerprint intentionally covers every counter the metrics layer
reads (detections, service quality, switch/link/stack/DPI counters,
trace categories) and excludes only what legitimately differs between
strategies: the ``microflow_*`` counters (cache off) and the raw event
count (a property of the schedule encoding, not of the simulated
traffic).
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional, Sequence

from repro.harness.scenario import (
    FlashCrowdSpec,
    ScenarioConfig,
    ScenarioResult,
    build_scenario,
    finish_scenario,
    run_scenario,
)
from repro.sim.invariants import InvariantViolation
from repro.workload.profiles import WorkloadConfig

__all__ = [
    "generate_scenario",
    "reference_variant",
    "sharded_variant",
    "fingerprint",
    "fingerprint_json",
    "run_differential",
    "run_serve_differential",
    "run_sketch_differential",
    "run_fuzz_suite",
    "ORACLES",
    "DifferentialOutcome",
    "FuzzSuiteReport",
]

#: Seed-space offset so fuzz seeds do not collide with experiment seeds.
_SEED_SALT = 0x5B1


def generate_scenario(seed: int) -> ScenarioConfig:
    """One deterministic randomized scenario; same seed, same scenario."""
    rng = random.Random(seed + _SEED_SALT)
    topology = rng.choice(("single", "dumbbell", "star", "linear"))
    if topology == "single":
        params: dict[str, Any] = {
            "n_clients": rng.randint(2, 4), "n_attackers": rng.randint(1, 2)
        }
    elif topology == "dumbbell":
        params = {"n_clients": rng.randint(2, 4), "n_attackers": rng.randint(1, 2)}
    elif topology == "star":
        params = {
            "n_arms": rng.randint(2, 3),
            "clients_per_arm": rng.randint(1, 2),
            "n_attackers": rng.randint(1, 2),
        }
    else:
        params = {
            "n_switches": rng.randint(2, 3),
            "clients_per_switch": 1,
            "n_attackers": rng.randint(1, 2),
        }
    attack_kind = rng.choice(("syn", "syn", "syn", "udp"))
    detector = (
        "udp-rate" if attack_kind == "udp"
        else rng.choice(("ewma", "static", "cusum", "entropy"))
    )
    workload = WorkloadConfig(
        attack_kind=attack_kind,
        attack_rate_pps=float(rng.choice((150, 300, 500))),
        attack_start_s=rng.choice((2.0, 3.0)),
        attack_duration_s=1000.0,
        server_backlog=rng.choice((64, 128)),
        spoof=rng.random() < 0.8,
    )
    flash_crowd = None
    if rng.random() < 0.2:
        flash_crowd = FlashCrowdSpec(
            start_s=4.0, duration_s=3.0, connections_per_second=60.0
        )
    return ScenarioConfig(
        topology=topology,
        topology_params=params,
        seed=rng.randint(1, 10_000),
        duration_s=float(rng.choice((6, 8, 10))),
        defense=rng.choice(
            ("spi", "spi", "monitor-only", "always-on", "sampled", "flow-stats", "none")
        ),
        detector=detector,
        workload=workload,
        with_attack=rng.random() < 0.9,
        link_loss_probability=rng.choice((0.0, 0.0, 0.0, 0.02)),
        syn_cookies=rng.random() < 0.25,
        flash_crowd=flash_crowd,
        check_invariants=True,
    )


def reference_variant(config: ScenarioConfig) -> ScenarioConfig:
    """The same scenario forced down every reference implementation."""
    return replace(config, engine="reference", microflow_cache=False)


def sharded_variant(config: ScenarioConfig, shards: int) -> ScenarioConfig:
    """The same scenario partitioned across ``shards`` engines."""
    return replace(config, shards=shards)


def fingerprint(result: ScenarioResult) -> dict[str, Any]:
    """Every strategy-invariant metric of a finished run, as plain data.

    A result that carries precomputed ``fingerprint_data`` (a sharded
    run, whose counters are merged across worker processes by
    :mod:`repro.sim.sharded.merge`) returns it verbatim — same keys,
    same row shapes, so the JSON form stays byte-comparable.
    """
    precomputed = getattr(result, "fingerprint_data", None)
    if precomputed is not None:
        return precomputed
    from repro.harness.fingerprint import link_row, stack_row, switch_row

    net = result.net
    switches = {
        name: switch_row(switch) for name, switch in sorted(net.switches.items())
    }
    links = []
    for link in net.links:
        for iface in (link.a, link.b):
            links.append(link_row(iface, link.stats_for(iface)))
    stacks = {
        name: stack_row(stack) for name, stack in sorted(net.stacks.items())
    }
    data: dict[str, Any] = {
        "detections": result.detection_times(),
        "alerts": result.alert_times(),
        "success_rate": result.success_rate(),
        "mean_latency": result.mean_latency(),
        "attack_packets": result.workload.attack_packets_sent(),
        "inspected_fraction": result.inspected_fraction(),
        "buffer_evictions": result.buffer_evictions(),
        "switches": switches,
        "links": sorted(links, key=lambda row: row["from"]),
        "stacks": stacks,
        "trace_categories": dict(
            sorted(Counter(e.category for e in net.tracer.entries()).items())
        ),
        "final_time": net.sim.now,
        "invariant_sweeps": (
            result.invariants.checks_run if result.invariants else 0
        ),
    }
    if result.spi is not None:
        data["spi"] = dict(vars(result.spi.stats))
        if result.spi.dpi is not None:
            data["dpi"] = dict(vars(result.spi.dpi.stats))
    if result.tap_dpi is not None:
        data["tap_dpi"] = dict(vars(result.tap_dpi.stats))
    return data


def fingerprint_json(result: ScenarioResult) -> str:
    """Canonical (sorted, byte-comparable) form of :func:`fingerprint`."""
    return json.dumps(fingerprint(result), sort_keys=True)


# Module-level so the parallel oracle can pickle it by reference.
def _fingerprint_worker(config_data: dict[str, Any]) -> str:
    from repro.harness.serialize import config_from_dict

    return fingerprint_json(run_scenario(config_from_dict(config_data)))


@dataclass(frozen=True)
class DifferentialOutcome:
    """Result of one seed's optimized-vs-reference comparison."""

    seed: int
    config: ScenarioConfig
    matched: bool
    detail: str = ""
    optimized: str = ""
    reference: str = ""


@dataclass(frozen=True)
class FuzzSuiteReport:
    """Aggregate of a fuzz run (what ``repro check`` prints).

    ``outcomes`` are the reference lane's rows; ``oracles`` maps each
    optional lane that ran to whether it passed.
    """

    outcomes: tuple[DifferentialOutcome, ...]
    oracles: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every outcome matched and every lane passed."""
        return all(o.matched for o in self.outcomes) and all(self.oracles.values())


def _diff_summary(a: str, b: str) -> str:
    """First divergent top-level key between two fingerprint JSONs."""
    da, db = json.loads(a), json.loads(b)
    for key in sorted(set(da) | set(db)):
        if da.get(key) != db.get(key):
            return f"first divergence at {key!r}: {da.get(key)!r} != {db.get(key)!r}"
    return "fingerprints differ only in formatting"


def _compared(
    row: DifferentialOutcome, name: str, fp: str
) -> DifferentialOutcome:
    """``row``'s optimized fingerprint held against one lane's ``fp``."""
    if fp == row.optimized:
        return replace(row, matched=True, reference=fp)
    return replace(
        row, matched=False, reference=fp,
        detail=f"{name} diverged: {_diff_summary(row.optimized, fp)}",
    )


def run_differential(seed: int) -> DifferentialOutcome:
    """The reference lane: one generated scenario on both engines.

    The optimized run (tuple heap, microflow cache) and the reference
    run (:mod:`repro.sim.engine_reference`, linear-scan flow tables) must
    fingerprint byte-identically with invariant sweeps on.
    """
    config = generate_scenario(seed)
    try:
        optimized = fingerprint_json(run_scenario(config))
        reference = fingerprint_json(run_scenario(reference_variant(config)))
    except InvariantViolation as violation:
        return DifferentialOutcome(
            seed=seed, config=config, matched=False,
            detail=f"invariant violation: {violation}",
        )
    row = DifferentialOutcome(seed=seed, config=config, matched=True,
                              optimized=optimized)
    return _compared(row, "reference", reference)


def run_serve_differential(seed: int, optimized: str = "") -> DifferentialOutcome:
    """One seed's batch-vs-served comparison (the ``serve`` lane).

    The scenario is hosted in a control-plane :class:`Session` and
    stepped in bounded slices — slice length and event budget drawn from
    the seed, so different seeds exercise different slicings — and the
    finished session's fingerprint must be byte-identical to the batch
    ``run_scenario`` fingerprint.  Pass a precomputed batch fingerprint
    via ``optimized`` to skip re-running the batch path.
    """
    from repro.service.session import Session

    config = generate_scenario(seed)
    slicing = random.Random(seed + _SEED_SALT * 7)
    try:
        if not optimized:
            optimized = fingerprint_json(run_scenario(config))
        session = Session(
            f"serve-{seed}",
            config,
            slice_s=slicing.choice((0.1, 0.25, 0.5)),
            slice_events=slicing.choice((500, 5_000, 50_000)),
        )
        session.run_to_completion()
        served = session.fingerprint()
    except InvariantViolation as violation:
        return DifferentialOutcome(
            seed=seed, config=config, matched=False,
            detail=f"invariant violation: {violation}",
        )
    if served != optimized:
        return DifferentialOutcome(
            seed=seed, config=config, matched=False,
            detail=f"served diverged: {_diff_summary(optimized, served)}",
            optimized=optimized, reference=served,
        )
    return DifferentialOutcome(
        seed=seed, config=config, matched=True,
        optimized=optimized, reference=served,
    )


#: Absolute tolerance for the sketch oracle's entropy comparison.  The
#: heavy-hitter + uniform-tail estimator tracks the exact normalized
#: entropy well inside this on every fuzz stream; see EXPERIMENTS M6 for
#: measured errors.
_SKETCH_ENTROPY_TOL = 0.15
#: Safety factor on the HyperLogLog one-sigma relative error (1.04/sqrt(m)).
_SKETCH_HLL_SIGMAS = 6.0


class _ShadowPairExtractor:
    """Feeds one monitor's observe stream to exact and sketch extractors.

    The exact extractor's features drive the run (so the scenario is
    byte-identical to a plain exact run — the sketch shadow consumes no
    randomness and emits nothing); each window close records the
    (exact, sketch) feature pair plus the window's raw SYN/UDP counts
    for ε-bound scaling.
    """

    def __init__(self, exact, sketch) -> None:
        self.exact = exact
        self.sketch = sketch
        self.windows: list[tuple[Any, Any, int, int]] = []

    def observe(self, packet, key=None) -> None:
        self.exact.observe(packet, key)
        self.sketch.observe(packet, key)

    def close_window(self, now):
        syn_before = self.exact.folded_syn_total
        udp_before = self.exact.folded_udp_total
        exact_features = self.exact.close_window(now)
        sketch_features = self.sketch.close_window(now)
        self.windows.append((
            exact_features,
            sketch_features,
            self.exact.folded_syn_total - syn_before,
            self.exact.folded_udp_total - udp_before,
        ))
        return exact_features

    def set_sampling_probability(self, sampling_probability: float) -> None:
        self.exact.set_sampling_probability(sampling_probability)
        self.sketch.set_sampling_probability(sampling_probability)

    def accounting(self):
        return self.exact.accounting()

    @property
    def packets_observed(self) -> int:
        return self.exact.packets_observed

    @property
    def sampling_probability(self) -> float:
        return self.exact.sampling_probability

    @property
    def backend(self):
        return self.exact.backend


_SCALAR_FIELDS = (
    "window_start", "window_end", "total_packets", "tcp_packets",
    "syn_count", "synack_count", "ack_count", "rst_count", "fin_count",
    "udp_packets",
)


def _check_window_pair(
    exact, sketch, raw_syn: int, raw_udp: int,
    width: int, hll_m: int,
) -> str | None:
    """One window's estimator-error check; returns a complaint or None."""
    eps = 1e-9
    for name in _SCALAR_FIELDS:
        a, b = getattr(exact, name), getattr(sketch, name)
        if a != b:
            return f"scalar {name} diverged: exact {a!r} != sketch {b!r}"
    scale = exact.syn_count / raw_syn if raw_syn else 1.0
    cms_bound = math.e * raw_syn / width * scale + eps
    for ip, est in sketch.per_destination_syns.items():
        true = exact.per_destination_syns.get(ip)
        if true is None:
            return f"sketch reported SYN destination {ip} never seen exactly"
        if est < true - eps:
            return f"sketch undercounted SYNs to {ip}: {est} < {true}"
        if est - true > cms_bound:
            return (
                f"sketch overcounted SYNs to {ip}: {est} vs {true} "
                f"(bound {cms_bound:.3f})"
            )
    if sketch.per_destination_syns and exact.per_destination_syns:
        if sketch.top_destination_syns < exact.top_destination_syns - eps:
            return (
                "sketch top-destination SYN estimate "
                f"{sketch.top_destination_syns} below exact "
                f"{exact.top_destination_syns}"
            )
    true_distinct = exact.distinct_sources
    hll_tol = _SKETCH_HLL_SIGMAS * 1.04 / math.sqrt(hll_m) * true_distinct + 3
    if abs(sketch.distinct_sources - true_distinct) > hll_tol:
        return (
            f"distinct-source estimate {sketch.distinct_sources} vs exact "
            f"{true_distinct} (tolerance {hll_tol:.1f})"
        )
    if abs(sketch.source_entropy - exact.source_entropy) > _SKETCH_ENTROPY_TOL:
        return (
            f"entropy estimate {sketch.source_entropy:.4f} vs exact "
            f"{exact.source_entropy:.4f} (tolerance {_SKETCH_ENTROPY_TOL})"
        )
    return None


def run_sketch_differential(seed: int) -> DifferentialOutcome:
    """One seed's exact-vs-sketch estimator comparison (the ``sketch`` lane).

    The generated scenario runs once with every monitor's extractor
    shadow-paired: the exact backend drives detection (so the run is the
    plain exact run) while a sketch extractor — geometry drawn from the
    seed — consumes the identical observe stream.  Every closed window
    must satisfy the estimators' error bounds: count-min estimates never
    undercount and overcount by at most ``e/width`` of the window's adds,
    HyperLogLog distinct counts stay within ``6 * 1.04/sqrt(m)``, and the
    entropy estimate stays within ``0.15`` absolute.  The same scenario
    then re-runs end-to-end in sketch mode with invariant sweeps on,
    covering sketch accounting inside the live monitor.
    """
    from repro.monitor.features import FeatureExtractor

    config = generate_scenario(seed)
    geometry = random.Random(seed + _SEED_SALT * 11)
    width = geometry.choice((512, 1024, 2048))
    depth = geometry.choice((3, 4, 5))
    precision = geometry.choice((10, 12))
    topk = geometry.choice((4, 8))
    sketch_knobs = {
        "sketch_width": width,
        "sketch_depth": depth,
        "sketch_topk": topk,
        "hll_precision": precision,
        "sketch_seed": seed + 0xFEED,
    }
    try:
        built = build_scenario(config)
        pairs: list[_ShadowPairExtractor] = []
        monitors = []
        if built.spi is not None:
            monitors.extend(built.spi.monitors.values())
        if built.monitor_only is not None:
            monitors.extend(built.monitor_only.monitors.values())
        for monitor in monitors:
            shadow = FeatureExtractor(
                monitor.config.sampling_probability,
                backend="sketch",
                **sketch_knobs,
            )
            pair = _ShadowPairExtractor(monitor.extractor, shadow)
            monitor.extractor = pair
            pairs.append(pair)
        built.net.run(until=config.duration_s)
        finish_scenario(built)
    except InvariantViolation as violation:
        return DifferentialOutcome(
            seed=seed, config=config, matched=False,
            detail=f"invariant violation: {violation}",
        )
    checked = 0
    for pair in pairs:
        for exact, sketch, raw_syn, raw_udp in pair.windows:
            complaint = _check_window_pair(
                exact, sketch, raw_syn, raw_udp, width, 1 << precision
            )
            checked += 1
            if complaint is not None:
                return DifferentialOutcome(
                    seed=seed, config=config, matched=False,
                    detail=(
                        f"width={width} depth={depth} p={precision}: {complaint}"
                    ),
                )
    sketch_config = replace(
        config,
        spi=replace(
            config.spi,
            monitor=replace(config.spi.monitor, backend="sketch", **sketch_knobs),
        ),
    )
    try:
        run_scenario(sketch_config)
    except InvariantViolation as violation:
        return DifferentialOutcome(
            seed=seed, config=config, matched=False,
            detail=f"sketch-mode invariant violation: {violation}",
        )
    return DifferentialOutcome(
        seed=seed, config=config, matched=True,
        detail=f"{checked} windows within bounds",
    )


def _parallel_lane(
    rows: Sequence[DifferentialOutcome], workers: int
) -> list[DifferentialOutcome]:
    """Recompute every optimized run through the spawn-pool harness.

    Configs ship to ``workers`` processes via
    :mod:`repro.harness.serialize`; each pooled fingerprint must match
    the in-process one byte for byte.
    """
    from repro.harness.parallel import run_tasks
    from repro.harness.serialize import config_to_dict

    rows = [row for row in rows if row.optimized]
    tasks = [{"config_data": config_to_dict(row.config)} for row in rows]
    pooled = run_tasks(_fingerprint_worker, tasks, workers=workers)
    compared = (_compared(row, "parallel", fp) for row, fp in zip(rows, pooled))
    return [outcome for outcome in compared if not outcome.matched]


def _sharded_lane(
    rows: Sequence[DifferentialOutcome], workers: int
) -> list[DifferentialOutcome]:
    """Run every seed through the sharded epoch protocol at 1, 2 and 4 shards.

    Inline workers, full epoch/batch protocol: the heap, reference and
    sharded schedulers are held to one fingerprint.
    """
    from repro.sim.sharded.coordinator import run_sharded_scenario

    failures = []
    for row in rows:
        if not row.optimized:
            continue
        for shards in (1, 2, 4):
            try:
                fp = fingerprint_json(run_sharded_scenario(
                    sharded_variant(row.config, shards), inline=True
                ))
            except InvariantViolation as violation:
                failures.append(replace(
                    row, matched=False,
                    detail=f"sharded-{shards} invariant violation: {violation}",
                ))
                break
            outcome = _compared(row, f"sharded-{shards}", fp)
            if not outcome.matched:
                failures.append(outcome)
                break
    return failures


def _serve_lane(
    rows: Sequence[DifferentialOutcome], workers: int
) -> list[DifferentialOutcome]:
    """Host every seed in a session; see :func:`run_serve_differential`."""
    served = (run_serve_differential(row.seed, optimized=row.optimized) for row in rows)
    return [outcome for outcome in served if not outcome.matched]


def _sketch_lane(
    rows: Sequence[DifferentialOutcome], workers: int
) -> list[DifferentialOutcome]:
    """Exact-vs-sketch bounds per seed; see :func:`run_sketch_differential`."""
    sketched = (run_sketch_differential(row.seed) for row in rows)
    return [outcome for outcome in sketched if not outcome.matched]


#: The optional oracle lanes of ``repro check``, by name.  Each lane takes
#: the reference lane's rows (seed, config, optimized fingerprint) and the
#: worker count, and returns its failing outcomes.
ORACLES: dict[
    str,
    Callable[[Sequence[DifferentialOutcome], int], list[DifferentialOutcome]],
] = {
    "parallel": _parallel_lane,
    "sharded": _sharded_lane,
    "serve": _serve_lane,
    "sketch": _sketch_lane,
}


def run_fuzz_suite(
    n_seeds: int = 25,
    base_seed: int = 0,
    oracles: Sequence[str] = (),
    workers: int = 2,
    progress: Optional[Callable[[DifferentialOutcome], None]] = None,
) -> FuzzSuiteReport:
    """The full differential sweep: ``n_seeds`` scenarios, two engines each.

    The reference lane always runs; every lane named in ``oracles`` (keys
    of :data:`ORACLES`) then runs over its rows, and ``progress`` sees
    each reference outcome and each lane failure.
    """
    outcomes: list[DifferentialOutcome] = []
    for seed in range(base_seed, base_seed + n_seeds):
        outcome = run_differential(seed)
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    verdicts: dict[str, bool] = {}
    for name in dict.fromkeys(oracles):
        failures = ORACLES[name](outcomes, workers)
        verdicts[name] = not failures
        if progress is not None:
            for failure in failures:
                progress(failure)
    return FuzzSuiteReport(outcomes=tuple(outcomes), oracles=verdicts)


def describe_outcome(outcome: DifferentialOutcome) -> str:
    """One log line per seed (used by ``repro check``)."""
    config = outcome.config
    shape = (
        f"{config.topology}/{config.defense}/{config.detector}"
        f" kind={config.workload.attack_kind}"
        f" rate={config.workload.attack_rate_pps:g}"
        f" loss={config.link_loss_probability:g}"
        f" engine-pair seed={outcome.seed}"
    )
    status = "ok " if outcome.matched else "FAIL"
    line = f"{status} {shape}"
    if not outcome.matched and outcome.detail:
        line += f"\n     {outcome.detail}"
    return line
