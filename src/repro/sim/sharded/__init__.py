"""Sharded multi-process simulation (conservative lookahead sync).

One scenario, partitioned across spawn-safe worker processes — each
running its own event engine over a *replica* of the full build — and
synchronized by an LBTS-style epoch barrier whose lookahead is the
minimum latency of any cross-shard surface (cut links, the OpenFlow
control channel, the alert bus).  The controller, correlator and every
alert subscriber stay centralized on the coordinator (shard 0); cut
links and remote control channels are replaced by boundary stubs that
serialize messages through compact per-epoch batches.

The non-negotiable bar, enforced by ``repro check --oracle sharded``
and ``tests/test_sharded_determinism.py``: a sharded run fingerprints
**byte-identically** to the single-process run of the same scenario, at
any shard count.  See DESIGN.md "Sharded simulation" for the lookahead
rule and the determinism argument.
"""

from repro.sim.sharded.coordinator import (
    ShardedResult,
    ShardedRun,
    run_sharded_scenario,
)
from repro.sim.sharded.runtime import ShardRuntime

__all__ = [
    "ShardRuntime",
    "ShardedResult",
    "ShardedRun",
    "run_sharded_scenario",
]
