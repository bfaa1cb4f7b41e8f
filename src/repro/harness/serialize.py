"""Scenario config serialization: share and replay exact experiments.

``config_to_dict``/``config_from_dict`` round-trip the whole nested
:class:`ScenarioConfig` tree (dataclasses, enums, tuples) through plain
JSON-compatible dicts, so a run can be saved next to its results and
replayed bit-for-bit later (the CLI's ``--save``/``--config`` flags).
Unknown keys are rejected with a ``ValueError`` naming their dotted path,
so a typo never silently runs the defaults.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any

from repro.harness.scenario import FlashCrowdSpec, ScenarioConfig
from repro.mitigation.manager import MitigationMode


def config_to_dict(config: Any) -> Any:
    """Recursively convert a (nested) dataclass config to plain data."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return {
            f.name: config_to_dict(getattr(config, f.name))
            for f in dataclasses.fields(config)
        }
    if isinstance(config, enum.Enum):
        return config.value
    if isinstance(config, tuple):
        return [config_to_dict(v) for v in config]
    if isinstance(config, dict):
        return {k: config_to_dict(v) for k, v in config.items()}
    if isinstance(config, float) and config == float("inf"):
        return "inf"
    return config


def canonical_config_json(config: Any) -> str:
    """Byte-stable canonical JSON for a config (sorted keys, no spaces).

    Two configs serialize identically iff they are equal, so this string
    is usable as identity — it is the config half of the sweep cache's
    content address (:mod:`repro.harness.cache`).
    """
    return json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))


def _build(cls: type, data: dict[str, Any], prefix: str = "") -> Any:
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    unknown = [key for key in data if key not in names]
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(prefix + k for k in unknown)}; "
            f"valid fields{' of ' + prefix[:-1] if prefix else ''}: "
            f"{', '.join(names)}"
        )
    kwargs: dict[str, Any] = {}
    for f in fields:
        if f.name not in data:
            continue
        value = data[f.name]
        kwargs[f.name] = _coerce(f.type, value, f, f"{prefix}{f.name}.")
    return cls(**kwargs)


def _coerce(annotation: Any, value: Any, f: dataclasses.Field, prefix: str) -> Any:
    if value == "inf":
        return float("inf")
    # Nested dataclasses are recognized from the default factory/value.
    default = None
    if f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        default = f.default_factory()  # type: ignore[misc]
    elif f.default is not dataclasses.MISSING:
        default = f.default
    if dataclasses.is_dataclass(default) and isinstance(value, dict):
        return _build(type(default), value, prefix)
    if isinstance(default, enum.Enum) and isinstance(value, str):
        return type(default)(value)
    if isinstance(value, list) and "tuple" in str(annotation):
        return tuple(value)
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict) and f.name == "flash_crowd":
        return _build(FlashCrowdSpec, value, prefix)
    return value


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_to_dict` output."""
    return _build(ScenarioConfig, data)


def save_config(config: ScenarioConfig, path: str) -> None:
    """Write a scenario config as pretty JSON."""
    with open(path, "w") as handle:
        json.dump(config_to_dict(config), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_config(path: str) -> ScenarioConfig:
    """Read a scenario config saved by :func:`save_config`."""
    with open(path) as handle:
        return config_from_dict(json.load(handle))
