"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import json
import subprocess
import sys

_LOADED_OUTSIDE_STDLIB = (
    "import json, sys, manai.cli, manai.fixture_harness\n"
    "tops = {name.partition('.')[0] for name in sys.modules}\n"
    "print(json.dumps(sorted(tops - set(sys.stdlib_module_names) - {'manai', '__main__'})))\n"
)


def test_cli_and_fixture_harness_load_only_stdlib_modules():
    # -S keeps site-packages off the path; PYTHONPATH still finds manai.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_OUTSIDE_STDLIB],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
