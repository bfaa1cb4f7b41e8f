"""Outside-in span tracing of the ``repro`` layers.

Nothing here edits the program: :func:`install` replaces public entry
points of each layer (class methods, module functions, the topology
builders) with thin wrappers, and wraps every callback handed to
``Simulator.schedule*`` in a span named after the layer that owns its
event label.  Spans are kept in memory as four flat columns (name id,
parent id, start, end) and reduced to per-layer self time and call
counts by :func:`layer_profile`; :meth:`SpanRecorder.dump` writes the
raw columns out.

A layer's self time is the summed duration of its spans minus the part
their direct child spans cover.  Because the wrappers run inside the
caller's span, their own cost lands in the *caller's* self time: the
``schedule*`` wrapper that builds each callback span is charged to
whichever layer scheduled the event (``LinkEnd.send``, for example,
pays for wrapping the ``link.tx`` callback it schedules).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable, Iterable

#: Every layer the benchmark reports, named after the ``repro`` modules.
LAYERS = (
    "sim",
    "net.link",
    "net.packet",
    "net.host",
    "switch",
    "openflow.flowtable",
    "openflow.channel",
    "controller",
    "monitor",
    "inspection",
    "core",
    "mitigation",
    "tcp",
    "workload",
    "topology",
    "harness",
    "service",
)

#: Event-label prefix (text before the first ``.``) -> owning layer.
LABEL_LAYERS = {
    "link": "net.link",
    "ofchan": "openflow.channel",
    "switch": "switch",
    "monitor": "monitor",
    "tcp": "tcp",
    "synflood": "workload",
    "udpflood": "workload",
    "client": "workload",
    "flashcrowd": "workload",
    "webserver": "workload",
    "ping": "workload",
    "alertbus": "core",
    "correlator": "core",
    "spi": "core",
    "mitigation": "mitigation",
    "service": "service",
    "stats": "controller",
    "arp": "net.host",
    "capture": "net.host",
}

#: ``(module, class or None, attribute, layer)`` public entry points.
#: ``TcpStack._on_ip_packet`` is the handler the stack registers with
#: its host, i.e. the entry point of every received segment.
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator", "run", "sim"),
    ("repro.net.link", "LinkEnd", "send", "net.link"),
    ("repro.net.packet", "Packet", "copy", "net.packet"),
    ("repro.net.packet", None, "parse_packet", "net.packet"),
    ("repro.net.host", "Host", "on_packet", "net.host"),
    ("repro.net.host", "Host", "send_packet", "net.host"),
    ("repro.net.node", "Interface", "deliver", "net.host"),
    ("repro.switch.ovs", "OpenFlowSwitch", "on_packet", "switch"),
    ("repro.switch.ovs", "OpenFlowSwitch", "handle_message", "switch"),
    ("repro.openflow.flowtable", "FlowTable", "lookup", "openflow.flowtable"),
    ("repro.openflow.flowtable", "FlowTable", "install", "openflow.flowtable"),
    ("repro.openflow.flowtable", "FlowTable", "expire", "openflow.flowtable"),
    ("repro.openflow.flowtable", "FlowTable", "remove_matching", "openflow.flowtable"),
    ("repro.openflow.channel", "ControlChannel", "to_controller", "openflow.channel"),
    ("repro.openflow.channel", "ControlChannel", "to_switch", "openflow.channel"),
    ("repro.controller.base", "Controller", "handle_message", "controller"),
    ("repro.monitor.features", "FeatureExtractor", "observe", "monitor"),
    ("repro.monitor.features", "FeatureExtractor", "close_window", "monitor"),
    ("repro.inspection.tracker", "HandshakeTracker", "observe", "inspection"),
    ("repro.inspection.udp", "UdpTracker", "observe", "inspection"),
    ("repro.core.correlator", "Correlator", "open_case", "core"),
    ("repro.core.correlator", "Correlator", "begin_inspection", "core"),
    ("repro.core.spi", "SpiSystem", "mirrored_fraction", "core"),
    ("repro.mitigation.manager", "MitigationManager", "mitigate", "mitigation"),
    ("repro.mitigation.manager", "MitigationManager", "lift", "mitigation"),
    ("repro.mitigation.manager", "MitigationManager", "block_source", "mitigation"),
    ("repro.mitigation.manager", "MitigationManager", "unblock_source", "mitigation"),
    ("repro.mitigation.manager", "MitigationManager", "add_whitelist", "mitigation"),
    ("repro.mitigation.manager", "MitigationManager", "remove_whitelist", "mitigation"),
    ("repro.tcp.stack", "TcpStack", "_on_ip_packet", "tcp"),
    ("repro.tcp.stack", "TcpStack", "transmit", "tcp"),
    ("repro.tcp.stack", "TcpStack", "connect", "tcp"),
    ("repro.harness.scenario", None, "build_scenario", "harness"),
    ("repro.harness.scenario", None, "finish_scenario", "harness"),
    ("repro.harness.fuzzer", None, "fingerprint_json", "harness"),
    ("repro.service.session", "Session", "step", "service"),
    ("repro.service.session", "Session", "schedule_reconfig", "service"),
    ("repro.service.session", "Session", "summary", "service"),
    ("repro.service.registry", "SessionRegistry", "status", "service"),
)

_SCHEDULERS = ("schedule", "schedule_at", "schedule_many", "schedule_at_many")


def label_layer(label: str) -> str:
    """The layer owning an event label (``"link.tx"`` -> ``"net.link"``)."""
    return LABEL_LAYERS.get(label.partition(".")[0], "other")


class SpanRecorder:
    """In-memory spans: name id, parent span id, start, end (seconds)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clear(self) -> None:
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self.stack[:] = [-1]

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` recording one span per call under ``name``."""
        nid = self.name_id(name)
        clock, stack = self.clock, self.stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        """Write the spans as one ``.npz`` (columns plus the name table)."""
        import numpy as np

        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
        )


def self_times(
    names: Iterable[int], parents: Iterable[int], starts: Iterable[float],
    ends: Iterable[float], n_names: int,
) -> tuple[list[float], list[int]]:
    """Per-name self time and span count from flat span columns.

    Each span's self time is its duration minus the summed durations of
    its direct children (spans whose parent id is its index).
    """
    import numpy as np

    name = np.asarray(names, dtype=np.int64)
    parent = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    own = duration.copy()
    has_parent = parent >= 0
    if has_parent.any():
        own -= np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )[: len(duration)]
    selfs = np.bincount(name, weights=own, minlength=n_names)
    calls = np.bincount(name, minlength=n_names)
    return [float(x) for x in selfs], [int(x) for x in calls]


def layer_profile(recorder: SpanRecorder) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s": ..., "calls": ...}}`` for every recorded name."""
    selfs, calls = self_times(
        recorder.name, recorder.parent, recorder.start, recorder.end,
        len(recorder.names),
    )
    return {
        name: {"self_s": selfs[i], "calls": calls[i]}
        for i, name in enumerate(recorder.names)
    }


def merge_profiles(
    profiles: Iterable[dict[str, dict[str, float]]],
) -> dict[str, dict[str, float]]:
    """Sum per-layer profiles (e.g. one per sweep task)."""
    total: dict[str, dict[str, float]] = {}
    for profile in profiles:
        for name, row in profile.items():
            slot = total.setdefault(name, {"self_s": 0.0, "calls": 0})
            slot["self_s"] += row["self_s"]
            slot["calls"] += row["calls"]
    return total


def _wrap_scheduler(recorder: SpanRecorder, original: Callable, batched: bool):
    wrap = recorder.wrap
    cache: dict[str, str] = {}

    def layer_of(label: str) -> str:
        layer = cache.get(label)
        if layer is None:
            layer = cache[label] = label_layer(label)
        return layer

    if batched:
        def schedule_batch(self, items):
            return original(
                self,
                [(when, wrap(fn, layer_of(label)), label) for when, fn, label in items],
            )

        return schedule_batch

    def schedule_one(self, when, fn, label=""):
        return original(self, when, wrap(fn, layer_of(label)), label)

    return schedule_one


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Patch every entry point in :data:`ENTRY_POINTS`; returns an undo.

    Must run before scenarios are built: objects capture bound methods
    (taps, protocol handlers) at construction.  Module-level functions
    are rebound in every loaded ``repro`` module that imported them by
    name.
    """
    import importlib

    from repro.harness import scenario
    from repro.sim.engine import Simulator

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for module_name, class_name, attr, layer in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            patch(owner, attr, functools.wraps(owner.__dict__[attr])(
                recorder.wrap(owner.__dict__[attr], layer)))
            continue
        original = getattr(module, attr)
        traced = functools.wraps(original)(recorder.wrap(original, layer))
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if name.startswith("repro") and loaded.__dict__.get(attr) is original:
                patch(loaded, attr, traced)
    for attr in _SCHEDULERS:
        patch(Simulator, attr, _wrap_scheduler(
            recorder, Simulator.__dict__[attr], batched=attr.endswith("_many")))
    for name, build in list(scenario.TOPOLOGIES.items()):
        undo.append((scenario.TOPOLOGIES, name, build))
        scenario.TOPOLOGIES[name] = recorder.wrap(build, "topology")

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    return restore
