"""Tests for the control-plane service (:mod:`repro.service`).

Covers the lifecycle state machine (illegal transitions rejected), the
bounded-slice stepping identity (a hosted session fingerprints
byte-identically to the batch path, however sliced), deterministic
mid-run reconfiguration (same retune schedule, same fingerprint),
graceful draining under an active SYN flood, the operator
block/whitelist APIs with temporary-vs-permanent expiry, and the HTTP
API + ``repro ctl`` client end to end against an in-process server.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.harness.fuzzer import fingerprint_json
from repro.harness.scenario import (
    ScenarioConfig,
    build_scenario,
    finish_scenario,
    run_scenario,
)
from repro.service import (
    ControlPlaneServer,
    IllegalTransition,
    ServiceClient,
    ServiceError,
    Session,
    SessionRegistry,
    SessionState,
)
from repro.workload.profiles import WorkloadConfig

FAST = dict(
    topology="single",
    topology_params={"n_clients": 2, "n_attackers": 1},
    duration_s=12.0,
    workload=WorkloadConfig(
        attack_rate_pps=300, attack_start_s=3.0, attack_duration_s=1000.0
    ),
    seed=7,
)


def _config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(**{**FAST, **overrides})


# --------------------------------------------------------------- lifecycle


class TestLifecycle:
    def test_initial_state_is_pending(self):
        session = Session("s1", _config())
        assert session.state is SessionState.PENDING
        assert session.sim_time == 0.0

    def test_step_before_start_is_illegal(self):
        session = Session("s1", _config())
        with pytest.raises(IllegalTransition):
            session.step()

    def test_drain_before_start_is_illegal(self):
        session = Session("s1", _config())
        with pytest.raises(IllegalTransition):
            session.drain()

    def test_double_start_is_illegal(self):
        session = Session("s1", _config(duration_s=2.0))
        session.start()
        with pytest.raises(IllegalTransition):
            session.start()

    def test_terminal_state_rejects_everything(self):
        session = Session("s1", _config(duration_s=2.0, with_attack=False))
        session.start()
        session.run_to_completion()
        assert session.state is SessionState.DONE
        for illegal in (session.start, session.step, session.drain):
            with pytest.raises(IllegalTransition):
                illegal()
        with pytest.raises(IllegalTransition):
            session.schedule_reconfig("detector", {"k": 4.0})

    def test_illegal_transition_reports_both_states(self):
        session = Session("s1", _config())
        with pytest.raises(IllegalTransition) as excinfo:
            session.drain()
        assert excinfo.value.current is SessionState.PENDING
        assert excinfo.value.requested is SessionState.DRAINING
        assert "pending -> draining" in str(excinfo.value)

    def test_construction_failure_is_terminal(self, monkeypatch):
        import repro.service.session as session_module

        def boom(config):
            raise RuntimeError("no fabric today")

        monkeypatch.setattr(session_module, "build_scenario", boom)
        session = Session("s1", _config())
        with pytest.raises(RuntimeError):
            session.start()
        assert session.state is SessionState.FAILED
        assert "no fabric today" in session.error

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Session("s1", _config(), slice_s=0.0)
        with pytest.raises(ValueError):
            Session("s1", _config(), slice_events=0)
        with pytest.raises(ValueError):
            Session("s1", _config(), drain_grace_s=-1.0)


# ----------------------------------------------------- slicing determinism


class TestSlicingDeterminism:
    def test_hosted_session_matches_batch_fingerprint(self):
        config = _config()
        batch = fingerprint_json(run_scenario(config))
        session = Session("s1", config, slice_s=0.3, slice_events=2_000)
        session.run_to_completion()
        assert session.fingerprint() == batch

    def test_slicing_choice_is_invisible(self):
        config = _config(seed=11)
        prints = []
        for slice_s, slice_events in ((0.1, 500), (1.5, 100_000)):
            session = Session(
                "s", config, slice_s=slice_s, slice_events=slice_events
            )
            session.run_to_completion()
            prints.append(session.fingerprint())
        assert prints[0] == prints[1]

    def test_fingerprint_requires_done(self):
        session = Session("s1", _config())
        with pytest.raises(RuntimeError):
            session.fingerprint()


# --------------------------------------------------- reconfig determinism


class TestReconfigDeterminism:
    def test_same_retune_schedule_same_fingerprint(self):
        schedule = [
            ("detector", {"k": 4.5}, 4.0),
            ("monitor", {"holddown_s": 1.0}, 5.0),
        ]
        prints, logs = [], []
        for slice_s, slice_events in ((0.2, 1_000), (0.9, 50_000)):
            session = Session(
                "s", _config(), slice_s=slice_s, slice_events=slice_events
            )
            for target, params, at in schedule:
                session.schedule_reconfig(target, params, at=at)
            session.run_to_completion()
            prints.append(session.fingerprint())
            logs.append(session.reconfig_log)
        assert prints[0] == prints[1]
        assert logs[0] == logs[1]
        assert [e["status"] for e in logs[0]] == ["applied", "applied"]
        assert [e["at"] for e in logs[0]] == [4.0, 5.0]

    def test_retune_actually_changes_the_run(self):
        config = _config()
        baseline = Session("a", config)
        baseline.run_to_completion()
        assert baseline.summary()["detections"] >= 1

        deaf = Session("b", config)
        # Raise the EWMA deviation gate sky-high before the attack starts:
        # the flood must then go undetected.
        deaf.schedule_reconfig("detector", {"k": 1000.0, "floor": 1e9}, at=1.0)
        deaf.run_to_completion()
        assert deaf.summary()["detections"] == 0
        assert deaf.fingerprint() != baseline.fingerprint()

    def test_rejected_reconfig_is_logged_not_fatal(self):
        session = Session("s1", _config(duration_s=6.0))
        session.schedule_reconfig("detector", {"no_such_knob": 1.0}, at=1.0)
        session.run_to_completion()
        assert session.state is SessionState.DONE
        (entry,) = session.reconfig_log
        assert entry["status"] == "rejected"
        assert "no_such_knob" in entry["detail"]

    def test_unknown_target_rejected_at_schedule_time(self):
        session = Session("s1", _config())
        with pytest.raises(ValueError, match="unknown reconfig target"):
            session.schedule_reconfig("flux-capacitor", {"gw": 1.21})

    def test_pending_reconfigs_apply_at_exact_times(self):
        session = Session("s1", _config(duration_s=8.0))
        session.schedule_reconfig("detector", {"k": 5.0}, at=4.0)
        assert session.state is SessionState.PENDING
        session.run_to_completion()
        (entry,) = session.reconfig_log
        assert entry == {
            "at": 4.0,
            "target": "detector",
            "params": {"k": 5.0},
            "applied": {"k": 5.0},
            "status": "applied",
        }


# ---------------------------------------------------------------- draining


class TestDraining:
    def test_drain_under_active_syn_flood(self):
        session = Session("s1", _config(duration_s=60.0), slice_s=0.5)
        session.start()
        while session.sim_time < 6.0:
            session.step()
        # The flood is live and detected; wind down gracefully.
        assert session.result.workload.attack_packets_sent() > 0
        end = session.drain(grace_s=2.0)
        assert session.state is SessionState.DRAINING
        assert end == pytest.approx(session.sim_time + 2.0)
        session.run_to_completion()
        assert session.state is SessionState.DONE
        assert session.result.net.sim.now == pytest.approx(end)
        assert session.result.net.sim.now < 60.0
        assert session.result.net.tracer.count("service.drain") == 1
        # Drained results still fingerprint (finish_scenario ran).
        assert json.loads(session.fingerprint())["final_time"] == end

    def test_drain_stops_new_attack_traffic(self):
        session = Session("s1", _config(duration_s=60.0), slice_s=0.5)
        session.start()
        while session.sim_time < 6.0:
            session.step()
        session.drain(grace_s=3.0)
        sent_at_drain = session.result.workload.attack_packets_sent()
        session.run_to_completion()
        # Bursts already scheduled may land, but generation has stopped;
        # three graceful seconds at 300 pps would be ~900 packets.
        assert (
            session.result.workload.attack_packets_sent() - sent_at_drain
            < 300
        )

    def test_drain_grace_validation(self):
        session = Session("s1", _config(duration_s=60.0))
        session.start()
        session.step()
        with pytest.raises(ValueError):
            session.drain(grace_s=-2.0)


# ------------------------------------------------- operator blocks in situ


class TestOperatorBlockApis:
    def _running_scenario(self):
        result = build_scenario(_config(duration_s=20.0))
        result.net.run(until=4.0)
        manager = result.mitigation_manager()
        assert manager is not None
        return result, manager

    def test_temporary_block_expires(self):
        result, manager = self._running_scenario()
        entry = manager.block_source("10.9.9.9", duration_s=2.0)
        assert not entry.permanent
        assert entry.expires_at == pytest.approx(result.net.sim.now + 2.0)
        assert any(b.ip == "10.9.9.9" for b in manager.active_blocks())
        result.net.run(until=7.0)
        assert not any(b.ip == "10.9.9.9" for b in manager.active_blocks())
        finish_scenario(result)

    def test_permanent_block_survives(self):
        result, manager = self._running_scenario()
        entry = manager.block_source("10.9.9.9")
        assert entry.permanent and entry.expires_at is None
        result.net.run(until=19.0)
        assert any(
            b.ip == "10.9.9.9" and b.origin == "operator"
            for b in manager.active_blocks()
        )
        finish_scenario(result)

    def test_unblock_lifts(self):
        result, manager = self._running_scenario()
        manager.block_source("10.9.9.9")
        assert manager.unblock_source("10.9.9.9") is True
        assert manager.unblock_source("10.9.9.9") is False
        assert not any(b.ip == "10.9.9.9" for b in manager.active_blocks())
        finish_scenario(result)

    def test_whitelist_blocks_blocking(self):
        result, manager = self._running_scenario()
        manager.add_whitelist("10.0.0.1")
        with pytest.raises(ValueError, match="whitelisted"):
            manager.block_source("10.0.0.1")
        finish_scenario(result)

    def test_whitelist_lifts_existing_block_and_expires(self):
        result, manager = self._running_scenario()
        manager.block_source("10.9.9.9")
        entry = manager.add_whitelist("10.9.9.9", duration_s=2.0)
        assert not entry.permanent
        assert not any(b.ip == "10.9.9.9" for b in manager.active_blocks())
        assert any(w.ip == "10.9.9.9" for w in manager.whitelist_entries())
        result.net.run(until=7.0)
        assert not any(w.ip == "10.9.9.9" for w in manager.whitelist_entries())
        finish_scenario(result)

    def test_block_validation(self):
        result, manager = self._running_scenario()
        with pytest.raises(ValueError):
            manager.block_source("10.9.9.9", duration_s=0.0)
        finish_scenario(result)

    def test_mitigation_state_in_scenario_result(self):
        result, manager = self._running_scenario()
        manager.block_source("10.9.9.9", duration_s=5.0)
        manager.add_whitelist("10.0.0.1")
        state = result.mitigation_state()
        (block,) = [
            b for b in state["active_blocks"] if b["origin"] == "operator"
        ]
        assert block["ip"] == "10.9.9.9"
        assert block["expires_at"] == pytest.approx(result.net.sim.now + 5.0)
        assert block["permanent"] is False
        ips = [w["ip"] for w in state["whitelist"]]
        assert "10.0.0.1" in ips
        finish_scenario(result)

    def test_defense_without_manager_has_empty_state(self):
        result = run_scenario(_config(defense="none", duration_s=4.0))
        assert result.mitigation_manager() is None
        assert result.mitigation_state() == {
            "active_blocks": [], "whitelist": []
        }


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_ids_and_lookup(self):
        registry = SessionRegistry()
        a = registry.create(_config())
        b = registry.create(_config())
        assert (a.id, b.id) == ("s1", "s2")
        assert registry.get("s1") is a
        assert "s2" in registry and len(registry) == 2
        with pytest.raises(KeyError):
            registry.get("s99")

    def test_remove_requires_terminal_state(self):
        registry = SessionRegistry()
        session = registry.create(_config(duration_s=2.0, with_attack=False))
        with pytest.raises(ValueError, match="drain it"):
            registry.remove(session.id)
        session.run_to_completion()
        registry.remove(session.id)
        assert len(registry) == 0

    def test_status_schema(self):
        registry = SessionRegistry()
        registry.create(_config())
        status = registry.status()
        assert sorted(status) == ["by_state", "session_list", "sessions"]
        assert status["sessions"] == 1
        assert status["by_state"]["pending"] == 1
        (row,) = status["session_list"]
        assert row["state"] == "pending"
        assert {"id", "sim_time", "mitigation", "detections"} <= set(row)


# ------------------------------------------------------------ http service


@pytest.fixture
def live_server():
    """An in-process control plane on an ephemeral port, in a thread."""
    box: dict = {}
    ready = threading.Event()

    def run() -> None:
        async def main() -> None:
            server = ControlPlaneServer(port=0, slice_s=0.5)
            await server.start()
            box["server"] = server
            ready.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "server did not come up"
    client = ServiceClient(port=box["server"].port)
    yield client
    try:
        client.shutdown()
    except (ServiceError, OSError):
        pass  # test already shut it down
    thread.join(15)
    assert not thread.is_alive(), "server thread did not exit"


def _wait_terminal(client: ServiceClient, *ids: str, timeout: float = 60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        rows = {row["id"]: row for row in client.sessions()}
        if all(rows[i]["state"] in ("done", "failed") for i in ids):
            return rows
        time.sleep(0.1)
    raise AssertionError(f"sessions {ids} never reached a terminal state")


class TestHttpService:
    def test_smoke_two_concurrent_sessions(self, live_server):
        client = live_server
        assert client.healthz()["ok"] is True
        # Queue the retune pre-start so its sim-time is exact, then start.
        a = client.create_session(
            {**_cfg_dict(), "duration_s": 12.0},
            start=False,
            reconfigs=[{"target": "detector", "params": {"k": 4.5}, "at": 4.0}],
        )
        client.request("POST", f"/sessions/{a['id']}/start", {})
        b = client.create_session({**_cfg_dict(), "seed": 8})
        status = client.status()
        assert status["sessions"] == 2
        rows = _wait_terminal(client, a["id"], b["id"])
        assert rows[a["id"]]["state"] == "done"
        assert rows[b["id"]]["state"] == "done"
        result = client.result(a["id"])
        assert [e["status"] for e in result["reconfig_log"]] == ["applied"]
        assert result["fingerprint"].startswith("{")
        # The hosted, retuned run matches a batch-equivalent local replay.
        local = Session("local", _config())
        local.schedule_reconfig("detector", {"k": 4.5}, at=4.0)
        local.run_to_completion()
        assert result["fingerprint"] == local.fingerprint()

    def test_drain_over_api(self, live_server):
        client = live_server
        session = client.create_session({**_cfg_dict(), "duration_s": 300.0})
        deadline = time.time() + 30
        while time.time() < deadline:
            if client.session(session["id"])["sim_time"] > 4.0:
                break
            time.sleep(0.1)
        drained = client.drain(session["id"], grace_s=1.0)
        assert drained["drain_end_s"] < 300.0
        rows = _wait_terminal(client, session["id"])
        assert rows[session["id"]]["state"] == "done"
        assert rows[session["id"]]["sim_time"] == pytest.approx(
            drained["drain_end_s"]
        )

    def test_error_codes(self, live_server):
        client = live_server
        with pytest.raises(ServiceError) as excinfo:
            client.session("s404")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/sessions/s404/flux", {})
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.create_session({"duration_s": -5})
        assert excinfo.value.status == 400

    def test_unknown_config_key_is_bad_request(self, live_server):
        client = live_server
        with pytest.raises(ServiceError) as excinfo:
            client.create_session({**_cfg_dict(), "duraton_s": 5})
        assert excinfo.value.status == 400
        assert "duraton_s" in str(excinfo.value)
        assert client.status()["sessions"] == 0

    def test_result_before_terminal_is_conflict(self, live_server):
        client = live_server
        session = live_server.create_session(
            {**_cfg_dict(), "duration_s": 300.0}
        )
        with pytest.raises(ServiceError) as excinfo:
            client.result(session["id"])
        assert excinfo.value.status == 409
        client.drain(session["id"], grace_s=0.5)
        _wait_terminal(client, session["id"])

    def test_ctl_status_json_schema(self, live_server, capsys):
        from repro.cli import main

        client = live_server
        client.create_session({**_cfg_dict(), "duration_s": 4.0})
        code = main([
            "ctl", "--port", str(client.port), "status", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["by_state", "session_list", "sessions"]
        row = payload["session_list"][0]
        assert sorted(row) == [
            "defense", "detections", "detector", "duration_s", "error",
            "events_executed", "id", "mitigation", "reconfigs", "seed",
            "sim_time", "state", "steps", "topology",
        ]
        assert sorted(row["mitigation"]) == ["active_blocks", "whitelist"]


def _cfg_dict() -> dict:
    """The FAST config as the JSON the API accepts."""
    from repro.harness.serialize import config_to_dict

    return config_to_dict(_config())
