"""The runtime imports nothing outside the standard library, and importing
one manai module imports no other that it does not use."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

_LOADED_OUTSIDE_STDLIB = (
    "import json, sys, manai.cli, manai.fixture_harness\n"
    "tops = {name.partition('.')[0] for name in sys.modules}\n"
    "print(json.dumps(sorted(tops - set(sys.stdlib_module_names) - {'manai', '__main__'})))\n"
)

_LOADED_MANAI_MODULES = (
    "import json, sys, {module}\n"
    "print(json.dumps(sorted(n for n in sys.modules if n.partition('.')[0] == 'manai')))\n"
)


def test_cli_and_fixture_harness_load_only_stdlib_modules():
    # -S keeps site-packages off the path; PYTHONPATH still finds manai.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_OUTSIDE_STDLIB],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize(("module", "loaded"), [
    ("manai", ["manai"]),
    ("manai.fixture_harness", ["manai", "manai.fixture_harness"]),
])
def test_importing_a_module_loads_no_other_manai_module(module, loaded):
    # The package re-exports nothing, so a harness child does not import
    # the profiler that measures it.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_MANAI_MODULES.format(module=module)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == loaded
