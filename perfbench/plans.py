"""Seeded inputs: scenario configs, sweep points and request schedules.

Everything the program receives is generated here from the workload
seed, so one seed always yields the same configs and schedules.  The
shapes are fixed per workload; a seed moves only the scenario RNG seeds
and the request mixes, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import random
from typing import Any

from repro.harness.scenario import FlashCrowdSpec, ScenarioConfig
from repro.workload.profiles import WorkloadConfig

#: Floods: events per timed run slice (about 300 slices per run).
SLICE_EVENTS = 1000

#: Serve: open-loop HTTP requests per host second (below capacity).
REQUEST_RATE_PER_S = 20.0
#: Serve: how the served sessions are stepped (per-session slices).
SERVE_SLICE_EVENTS = 250
SERVE_SLICE_S = 0.1
#: Serve: servers started one after another per run, each for a share
#: of the run.
SERVE_OPS = 3
#: Serve: simulated seconds per session for each second a run should
#: last (the two sessions simulate about 4 s per host second here).
SERVE_SIM_PER_S = 3.5
#: Addresses no scenario host uses: operator writes touch only these.
BYSTANDER_IPS = ("10.250.0.1", "10.250.0.2", "10.250.0.3")

#: Sweep axes (2 defenses x 2 detectors x 2 attack rates x 2 seeds).
SWEEP_DEFENSES = ("spi", "monitor-only")
SWEEP_DETECTORS = ("static", "ewma")
SWEEP_RATES = (300.0, 1500.0)
SWEEP_WORKERS = 2


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def scenario_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` distinct scenario seeds derived from the workload seed."""
    rng = _rng(workload, seed)
    return rng.sample(range(1, 100_000), count)


def syn_flood_config(seed: int) -> ScenarioConfig:
    """E5-style SYN flood: 4-switch chain, two spoofing attackers, 10 kpps.

    No benign client shares the chain, so no switch upstream of the
    victim ever learns the victim's port and every flood frame is punted
    at each of them: the packet-in / packet-out path carries the run.
    (With clients, whether one reaches the server before the flood
    decides between that regime and plain forwarding, seed by seed.)
    The static detector has no warm-up, so SPI confirms the flood
    within the run.
    """
    return ScenarioConfig(
        topology="linear",
        topology_params={"n_switches": 4, "clients_per_switch": 0, "n_attackers": 2},
        workload=WorkloadConfig(
            attack_kind="syn", attack_rate_pps=10000.0, attack_start_s=0.3
        ),
        duration_s=2.0,
        defense="spi",
        detector="static",
        seed=scenario_seeds("syn-flood", seed, 1)[0],
    )


def udp_flood_config(seed: int) -> ScenarioConfig:
    """UDP volumetric flood on a 2-switch chain at 20 kpps under SPI.

    The flood starts after a second of benign traffic, by which time
    the switches have learned the victim: flood frames then follow
    installed rules (microflow-cache reads) and the controller stays
    idle, while every mirrored frame is re-parsed by the inspector.
    """
    return ScenarioConfig(
        topology="linear",
        topology_params={"n_switches": 2, "clients_per_switch": 1, "n_attackers": 2},
        workload=WorkloadConfig(
            attack_kind="udp", attack_rate_pps=20000.0, attack_start_s=1.0
        ),
        duration_s=2.8,
        defense="spi",
        detector="udp-rate",
        seed=scenario_seeds("udp-flood", seed, 1)[0],
    )


FLOOD_CONFIGS = {"syn-flood": syn_flood_config, "udp-flood": udp_flood_config}


def sweep_base() -> ScenarioConfig:
    """Dumbbell with a flash crowd before a SYN flood (claim C2's shape)."""
    return ScenarioConfig(
        topology="dumbbell",
        duration_s=8.0,
        workload=WorkloadConfig(attack_kind="syn", attack_start_s=4.0),
        flash_crowd=FlashCrowdSpec(
            start_s=1.0, duration_s=2.5, connections_per_second=120.0
        ),
    )


def sweep_points(seed: int) -> list[dict[str, Any]]:
    """16 override points: defense x detector x attack rate x 2 seeds."""
    seeds = scenario_seeds("sweep", seed, 2)
    return [
        {
            "defense": defense,
            "detector": detector,
            "workload.attack_rate_pps": rate,
            "seed": point_seed,
        }
        for defense in SWEEP_DEFENSES
        for detector in SWEEP_DETECTORS
        for rate in SWEEP_RATES
        for point_seed in seeds
    ]


def serve_configs(seed: int, seconds: float) -> list[ScenarioConfig]:
    """The two served sessions: a dumbbell SYN flood with a flash crowd
    and a linear UDP flood, each ``SERVE_SIM_PER_S * seconds`` simulated
    seconds long."""
    syn_seed, udp_seed = scenario_seeds("serve", seed, 2)
    session_s = SERVE_SIM_PER_S * seconds
    return [
        ScenarioConfig(
            topology="dumbbell",
            duration_s=session_s,
            workload=WorkloadConfig(
                attack_kind="syn", attack_rate_pps=1500.0, attack_start_s=2.0
            ),
            flash_crowd=FlashCrowdSpec(
                start_s=0.5, duration_s=2.0, connections_per_second=120.0
            ),
            defense="spi",
            detector="ewma",
            seed=syn_seed,
        ),
        ScenarioConfig(
            topology="linear",
            topology_params={"n_switches": 2, "clients_per_switch": 1, "n_attackers": 2},
            duration_s=session_s,
            workload=WorkloadConfig(
                attack_kind="udp", attack_rate_pps=4000.0, attack_start_s=1.0
            ),
            defense="spi",
            detector="udp-rate",
            seed=udp_seed,
        ),
    ]


#: Retune values per served session (index-aligned with serve_configs).
RETUNES = (
    ("detector", "k", (2.5, 3.0, 3.5)),
    ("detector", "udp_rate_threshold", (150.0, 200.0, 250.0)),
)


def arrival_offsets(rng: random.Random, rate: float, horizon_s: float) -> list[float]:
    """Open-loop send times: one per ``1/rate`` s, each jittered by up to
    +-40% of the interval, over ``horizon_s``.

    Evenly spaced arrivals keep two connections from queueing behind
    each other the way Poisson bursts do, so latency reflects the
    service rather than the burstiness of one seed's schedule.
    """
    interval = 1.0 / rate
    count = int(horizon_s * rate)
    return [
        (i + 0.5) * interval + rng.uniform(-0.4, 0.4) * interval
        for i in range(count)
    ]


def request_schedule(
    seed: int, horizon_s: float
) -> list[tuple[float, str, int, dict[str, Any]]]:
    """Serve: ``(due offset, action, session index, body)`` tuples.

    About 80% reads (``status`` / ``session``) and 20% writes: detector
    retunes, operator blocks/unblocks and whitelist entries, the last
    three on bystander addresses so no scenario traffic is touched.
    """
    rng = _rng("requests", seed)
    schedule = []
    for t in arrival_offsets(rng, REQUEST_RATE_PER_S, horizon_s):
        session = rng.randrange(2)
        roll = rng.random()
        if roll < 0.4:
            schedule.append((t, "status", session, {}))
        elif roll < 0.8:
            schedule.append((t, "session", session, {}))
        elif roll < 0.9:
            target, param, values = RETUNES[session]
            body = {"target": target, "params": {param: rng.choice(values)}}
            schedule.append((t, "retune", session, body))
        else:
            action = rng.choice(("block", "unblock", "whitelist"))
            body: dict[str, Any] = {"src_ip": rng.choice(BYSTANDER_IPS)}
            if action != "unblock":
                body["duration_s"] = 5.0
            schedule.append((t, action, session, body))
    return schedule
