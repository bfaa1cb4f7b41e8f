"""The simulator's runtime needs only the standard library and networkx.

Other packages may be installed (the perfbench trace mode brings its own
array library), so the check runs in a fresh interpreter: import the
package, run a small scenario in both monitor modes, and require every
newly imported top-level module to be the standard library, ``repro``
itself, or one of :data:`RUNTIME_DEPENDENCIES` — which must also be
exactly what ``pyproject.toml`` declares.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

RUNTIME_DEPENDENCIES = ("networkx",)


def _declared_dependencies() -> list[str]:
    with open(REPO / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return [
        re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
        for dep in project["dependencies"]
    ]


def test_pyproject_declares_exactly_the_runtime_dependencies():
    assert sorted(_declared_dependencies()) == sorted(RUNTIME_DEPENDENCIES)


def test_scenario_imports_only_declared_dependencies():
    code = textwrap.dedent(
        """
        import sys

        before = set(sys.modules)
        from dataclasses import replace

        from repro.harness.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig(duration_s=8.0)
        sketch = replace(config, spi=replace(
            config.spi, monitor=replace(config.spi.monitor, backend="sketch")
        ))
        for cfg in (config, sketch):
            assert run_scenario(cfg).detection_times()
        allowed = set(sys.stdlib_module_names) | {"repro", *sys.argv[1:]}
        undeclared = sorted({
            name.split(".")[0] for name in set(sys.modules) - before
        } - allowed)
        undeclared = [name for name in undeclared if not name.startswith("__")]
        assert not undeclared, f"undeclared runtime imports: {undeclared}"
        print("OK")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *RUNTIME_DEPENDENCIES],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        cwd=REPO,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
