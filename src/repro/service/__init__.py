"""The control plane as a long-running service.

The batch harness runs "construct → simulate → exit"; this package
hosts the same scenarios as *sessions* inside an always-on asyncio
service, the way the paper's selective-inspection controller (and both
related repos' REST-wrapped detectors) actually deploy:

* :mod:`repro.service.session` — one hosted scenario: the
  ``PENDING → RUNNING → DRAINING → DONE/FAILED`` lifecycle state
  machine, cooperative stepping in bounded event slices, and
  deterministic runtime reconfiguration (retunes, blocks, whitelists
  applied as events on the *simulation* clock, so a replayed schedule
  reproduces byte-identical fingerprints);
* :mod:`repro.service.reconfig` — the validated dispatch from a
  reconfiguration request onto the live detector/budget/DPI/mitigation
  objects;
* :mod:`repro.service.registry` — the session registry;
* :mod:`repro.service.server` — the stdlib-only asyncio HTTP/JSON API
  (``repro serve``);
* :mod:`repro.service.client` — the thin blocking client behind
  ``repro ctl``.

Sessions that receive no runtime mutations are byte-identical to the
batch path; ``repro check --oracle serve`` asserts exactly that.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.registry import SessionRegistry
from repro.service.server import ControlPlaneServer
from repro.service.session import (
    IllegalTransition,
    Session,
    SessionState,
)

__all__ = [
    "ControlPlaneServer",
    "IllegalTransition",
    "ServiceClient",
    "ServiceError",
    "Session",
    "SessionRegistry",
    "SessionState",
]
