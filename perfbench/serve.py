"""The serve workload: ``repro serve`` in its own process, driven over HTTP.

The server hosts two sessions of a fixed simulated length and steps
them in bounded slices until both are done, so every run serves the
same simulated work (the server's heap, and with it the length of its
garbage-collection pauses, grows with that work).  One single-threaded
client runs the seeded request schedule as an open loop over at most
two keep-alive connections: a request is handed to a free connection
when it falls due (or, when both are busy, as soon as one frees up).
Each request is timed from its due time; how late it was sent is the
generator lag.  Sending stops once both sessions are done, and writes
to a session stop ``WRITE_MARGIN_S`` simulated seconds before its end,
so no write can reach a finished session.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time
from typing import Any, Optional

from repro.harness.serialize import config_to_dict
from repro.service.client import ServiceClient

from perfbench import checks, plans
from perfbench.common import ROOT, child_env, sha256

SERVE_HOST = os.path.join(ROOT, "perfbench", "serve_host.py")
#: Seconds to wait for the server to announce, a session to finish, or
#: the server to exit after ``/shutdown``.
DEADLINE_S = 60.0
CONNECTIONS = 2
#: Writes to a session stop this many simulated seconds before its end.
WRITE_MARGIN_S = 2.0

_ACTIONS = {
    "status": ("GET", "/status"),
    "session": ("GET", "/sessions/{id}"),
    "retune": ("POST", "/sessions/{id}/retune"),
    "block": ("POST", "/sessions/{id}/block"),
    "unblock": ("POST", "/sessions/{id}/unblock"),
    "whitelist": ("POST", "/sessions/{id}/whitelist"),
}
WRITES = frozenset({"retune", "block", "unblock", "whitelist"})


class Server:
    """A ``serve_host.py`` child process; always reaped on exit."""

    def __init__(self, trace: bool) -> None:
        args = [sys.executable, SERVE_HOST] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env()
        )
        self.port = self._read_port()
        self.client = ServiceClient(port=self.port, timeout_s=DEADLINE_S)

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], DEADLINE_S)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            self.kill()
            raise RuntimeError(f"repro serve did not announce a port: {line!r}")
        return int(line.rsplit(":", 1)[1].strip().rstrip("/"))

    def shutdown(self) -> dict[str, Any]:
        """``POST /shutdown``, wait for exit, return the host's report."""
        self.client.shutdown()
        out, _ = self.proc.communicate(timeout=DEADLINE_S)
        lines = [line for line in out.splitlines() if line.startswith("{")]
        return json.loads(lines[-1]) if lines else {}

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.kill()


class _Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(
        self, method: str, path: str, body: dict[str, Any]
    ) -> tuple[int, Any]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        data = json.dumps(body).encode() if method == "POST" else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
            .encode() + data
        )
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length)
        return status, json.loads(payload) if payload else None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.reader = self.writer = None


async def open_loop(
    port: int, schedule: list[tuple[float, str, int, dict[str, Any]]],
    session_ids: list[str], session_s: float,
) -> list[dict[str, Any]]:
    """Send ``schedule`` on time over ``CONNECTIONS`` connections until
    both sessions are done.

    Returns one sample per request sent: due, sent and done offsets (s)
    from the loop start, the action, and the HTTP status (None on error).
    """
    clock = time.perf_counter
    queue: asyncio.Queue = asyncio.Queue()
    samples: list[dict[str, Any]] = []
    # Latest (state, sim_time) per session, learned from read replies.
    progress = {sid: ("running", 0.0) for sid in session_ids}
    start = clock()

    def learn(action: str, payload: Any) -> None:
        rows = payload.get("session_list", []) if action == "status" else [payload]
        for row in rows:
            if isinstance(row, dict) and row.get("id") in progress:
                progress[row["id"]] = (row["state"], row["sim_time"])

    def writable(session_id: str) -> bool:
        state, sim_time = progress[session_id]
        return state == "running" and sim_time < session_s - WRITE_MARGIN_S

    async def worker(conn: _Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                await conn.close()
                return
            due, action, index, body = item
            method, path = _ACTIONS[action]
            path = path.format(id=session_ids[index])
            sent = clock() - start
            try:
                status, payload = await conn.request(method, path, body)
                if action in ("status", "session") and status == 200:
                    learn(action, payload)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                status = None
                await conn.close()
            samples.append({
                "due": due, "sent": sent, "done": clock() - start,
                "action": action, "status": status,
            })

    workers = [
        asyncio.create_task(worker(_Connection(port))) for _ in range(CONNECTIONS)
    ]
    for item in schedule:
        delay = item[0] - (clock() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        if all(state != "running" for state, _ in progress.values()):
            break
        if item[1] in WRITES and not writable(session_ids[item[2]]):
            continue
        queue.put_nowait(item)
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return samples


def _wait_terminal(client: ServiceClient, session_id: str) -> dict[str, Any]:
    deadline = time.monotonic() + DEADLINE_S
    while True:
        summary = client.session(session_id)
        if summary["state"] in ("done", "failed") or time.monotonic() > deadline:
            return summary
        time.sleep(0.02)


def run_once(seed: int, seconds: float, trace: bool = False) -> dict[str, Any]:
    """Serve both sessions to their end under the seeded open loop."""
    configs = plans.serve_configs(seed, seconds)
    session_s = configs[0].duration_s
    schedule = plans.request_schedule(seed, horizon_s=10 * seconds)
    with Server(trace) as server:
        client = server.client
        start = time.perf_counter()
        ids = [
            client.create_session(
                config_to_dict(config),
                slice_s=plans.SERVE_SLICE_S,
                slice_events=plans.SERVE_SLICE_EVENTS,
            )["id"]
            for config in configs
        ]
        samples = asyncio.run(open_loop(server.port, schedule, ids, session_s))
        for session_id in ids:
            _wait_terminal(client, session_id)
        elapsed = time.perf_counter() - start
        results = [client.result(session_id) for session_id in ids]
        host_report = server.shutdown()
    fingerprints = [payload["fingerprint"] for payload in results if "fingerprint" in payload]
    counts = checks.sum_counters(
        checks.counters_from_fingerprint(json.loads(fp)) for fp in fingerprints
    )
    counts["sim.events"] = sum(p["summary"]["events_executed"] for p in results)
    return {
        "seconds": elapsed,
        "frames": counts.get("net.link.frames", 0),
        "counters": counts,
        "samples": samples,
        # Host speed as the server's event loop saw it (serve_host.py).
        "chunks": host_report.get("chunks") or [],
        "fingerprints": [sha256(fp) for fp in fingerprints],
        "problems": checks.serve_problems(results),
        "host": host_report,
    }
