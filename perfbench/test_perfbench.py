"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They check the benchmark's own machinery, not the program: seeded input
generation, the self-time arithmetic, failure counting, the metric list
against ``BENCHMARK.json``, and that tracing leaves a run unchanged.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import ROOT, use_program_source  # noqa: E402

use_program_source()

from perfbench import checks, plans, run, tracing  # noqa: E402


# ------------------------------------------------------------ seeded inputs


def test_same_seed_same_inputs():
    for seed in (1, 7):
        for make in plans.FLOOD_CONFIGS.values():
            assert make(seed) == make(seed)
        assert plans.sweep_points(seed) == plans.sweep_points(seed)
        assert plans.serve_configs(seed, 15.0) == plans.serve_configs(seed, 15.0)
        assert plans.request_schedule(seed, 15.0) == plans.request_schedule(seed, 15.0)


def test_seeds_change_only_rng_seeds_and_mixes():
    a, b = plans.syn_flood_config(1), plans.syn_flood_config(2)
    assert a.seed != b.seed
    assert replace(a, seed=b.seed) == b
    assert plans.request_schedule(1, 15.0) != plans.request_schedule(2, 15.0)
    assert len(plans.sweep_points(1)) == 16


def test_request_schedule_is_open_loop_and_paced():
    schedule = plans.request_schedule(3, 10.0)
    times = [item[0] for item in schedule]
    assert times == sorted(times)
    assert len(schedule) == int(10.0 * plans.REQUEST_RATE_PER_S)
    writes = [item for item in schedule if item[1] not in ("status", "session")]
    assert 0 < len(writes) < len(schedule) / 2
    for _, action, _, body in writes:
        if action != "retune":
            assert body["src_ip"] in plans.BYSTANDER_IPS


# ------------------------------------------------------------- self time


def test_self_time_on_nested_span_tree():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]; separate c [11, 12].
    names = ["root", "a", "a1", "b", "c"]
    name_ids = [0, 1, 2, 3, 4]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    selfs, calls = tracing.self_times(name_ids, parents, starts, ends, len(names))
    assert dict(zip(names, selfs)) == {
        "root": 10.0 - 3.0 - 4.0, "a": 3.0 - 1.0, "a1": 1.0, "b": 4.0, "c": 1.0,
    }
    assert calls == [1, 1, 1, 1, 1]


def test_recorder_nesting_and_layer_profile():
    ticks = iter(range(100))
    recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda: None, "net.link")
    outer = recorder.wrap(lambda: inner() or inner(), "sim")
    outer()
    profile = tracing.layer_profile(recorder)
    # outer: 0..5, inner spans 1..2 and 3..4.
    assert profile["sim"] == {"self_s": 3.0, "calls": 1}
    assert profile["net.link"] == {"self_s": 2.0, "calls": 2}
    assert tracing.merge_profiles([profile, profile])["net.link"]["calls"] == 4


def test_every_event_label_has_a_layer():
    for label in ("link.tx", "ofchan.up", "synflood.atk1", "tcp.handshake",
                  "monitor.mon-s2", "alertbus", "mitigation.expiry", "service.reconfig"):
        assert tracing.label_layer(label) in tracing.LAYERS


# -------------------------------------------------------- failure counting


def test_planted_claim_failure_is_counted():
    out = run.Outcome()
    good = {"defense": "spi", "seed": 1, "attack_window": [4.0, 8.0], "detections": [4.5]}
    early = dict(good, detections=[1.5])
    out.op(checks.sweep_point_problems(good))
    out.op(checks.sweep_point_problems(early))
    assert (out.attempted, out.failed) == (2, 1)
    assert out.problems and out.problems[0].startswith("C2")


def test_flood_without_attack_breaks_claim_c1():
    config = replace(
        plans.udp_flood_config(1), with_attack=False, duration_s=0.5,
        topology_params={"n_switches": 2, "clients_per_switch": 1, "n_attackers": 1},
    )
    from perfbench import floods

    outcome = floods.run_once(config)
    out = run.Outcome()
    out.op(outcome["problems"])
    assert out.failed == 1
    assert any(p.startswith("C1") for p in out.problems)


def test_differing_repeats_are_counted():
    out = run.Outcome()
    out.same_fingerprints("x", ["a", "a", "b"])
    assert out.failed == 2 and out.problems


# ------------------------------------------------- metric lists and map


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == run.layer_units()
    assert spec["workloads"] and {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_tracing_leaves_the_run_unchanged():
    from perfbench import floods

    config = replace(plans.syn_flood_config(2), duration_s=0.6)
    plain = floods.run_once(config)
    recorder = tracing.SpanRecorder()
    restore = tracing.install(recorder)
    try:
        traced = floods.run_once(config)
    finally:
        restore()
    assert traced["fingerprint"] == plain["fingerprint"]
    profile = tracing.layer_profile(recorder)
    assert profile["net.link"]["calls"] > 0 and profile["switch"]["calls"] > 0
    assert profile["sim"]["calls"] == len(plain["ref_slices"])


def test_layer_map_covers_every_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as handle:
        rows = json.load(handle)["rows"]
    mapped = [name for row in rows for name in row["layer_metrics"]]
    assert sorted(mapped) == sorted(run.layer_units())
    for row in rows:
        assert set(row["moves"]) <= set(run.E2E_UNITS)
        assert set(row["on"]) | (set(row["predict_no_change"]) - set(run.E2E_UNITS)) <= set(run.WORKLOADS)


# ------------------------------------------------------------ process hygiene

_ORPHAN_MAKER = """
import os, subprocess, sys
sys.path.insert(0, {root!r})
from perfbench.common import _child_pids, adopt_orphans, stop_children
adopt_orphans()
# The middle process starts a long sleeper and exits, orphaning it.
middle = subprocess.run(
    [sys.executable, "-c",
     "import subprocess, sys; "
     "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'], "
     "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
     "print(p.pid)"],
    capture_output=True, text=True, check=True,
)
orphan = int(middle.stdout)
adopted = orphan in _child_pids()
stop_children()
print(adopted, orphan in _child_pids(), os.path.exists(f"/proc/{{orphan}}"))
"""


def test_stop_children_reaps_adopted_orphans():
    import subprocess

    if not os.path.isdir("/proc"):
        return
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_MAKER.format(root=ROOT)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == ["True", "False", "False"]
