"""Parameter sweeps over scenario configurations.

Overrides address nested dataclass fields with dotted paths
(``"workload.attack_rate_pps"``), so sweep axes can reach any knob in the
composed config tree without bespoke plumbing per experiment.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Callable, Iterable, Optional

from repro.harness.scenario import ScenarioConfig, ScenarioResult


def apply_overrides(
    config: Any, overrides: dict[str, Any], _prefix: str = ""
) -> Any:
    """Return a copy of a (nested) frozen dataclass with fields replaced.

    Keys are dotted paths; each segment except the last must name a
    dataclass field holding another dataclass.  An unknown segment raises
    ``KeyError`` naming the full bad path and the fields that exist, so a
    sweep axis typo fails loudly instead of as a bare ``replace`` error.
    """
    valid = {f.name for f in dataclasses.fields(config)}
    grouped: dict[str, dict[str, Any]] = {}
    direct: dict[str, Any] = {}
    for path, value in overrides.items():
        head, _, rest = path.partition(".")
        if head not in valid:
            raise KeyError(
                f"unknown override path {_prefix + path!r}: "
                f"{type(config).__name__} has no field {head!r} "
                f"(valid fields: {', '.join(sorted(valid))})"
            )
        if rest:
            grouped.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in grouped.items():
        current = getattr(config, head)
        if not dataclasses.is_dataclass(current):
            raise TypeError(
                f"override path {_prefix + head!r} does not reach a nested "
                f"dataclass: {head!r} is a {type(current).__name__} on "
                f"{type(config).__name__}"
            )
        direct[head] = apply_overrides(current, sub, _prefix=f"{_prefix}{head}.")
    return dataclasses.replace(config, **direct)


def grid(**axes: Iterable[Any]) -> list[dict[str, Any]]:
    """Cartesian product of sweep axes as a list of override dicts.

    >>> grid(a=[1, 2], b=["x"])
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    names = list(axes)
    combos = itertools.product(*(list(axes[name]) for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def run_sweep(
    base: ScenarioConfig,
    points: list[dict[str, Any]],
    *,
    workers: Optional[int] = 1,
    extract: Optional[Callable[[ScenarioResult], Any]] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    cache: Optional[Any] = None,
) -> list[tuple[dict[str, Any], Any]]:
    """Run one scenario per override point, in order.

    With the defaults the sweep runs serially and each point pairs with its
    full :class:`ScenarioResult`.  Passing ``workers`` (``None`` = one per
    CPU) fans the points out over the process pool in
    :mod:`repro.harness.parallel`; that path needs a module-level
    ``extract`` function because live results do not pickle, and falls back
    to serial execution when it is omitted.  Point order — and, because
    runs are seed-deterministic, every value — is identical either way.

    ``cache`` (a :class:`repro.harness.cache.SweepCache`, default the
    process-wide one) lets previously extracted points skip simulation
    entirely; see :func:`repro.harness.parallel.run_scenarios`.
    """
    from repro.harness.parallel import run_scenarios

    values = run_scenarios(
        base,
        points,
        extract=extract,
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
        cache=cache,
    )
    return list(zip(points, values))
