"""The runtime imports nothing outside the standard library, importing one
manai module imports no other that it does not use, no manai module
imports ``threading``, and every name the benchmark hooks into resolves."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

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


def test_no_module_imports_threading():
    # No thread runs beside the test: every read of the counters, in a
    # test window or a calibration, is taken on the caller's own thread.
    src = Path(__file__).resolve().parent.parent / "src" / "manai"
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] in ("threading", "_thread") for name in names):
                importers.append(path.name)
    assert importers == []



_PERFBENCH_HOOKS = """\
import random, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import inputs, layertrace
from manai import experiment
from manai.probe import SimulatedProbe, load_scenario
from manai.sampler import SamplerConfig
tracer = layertrace.Tracer()
layertrace.install(tracer)
record = inputs.build_record(
    "hooks", "2026-01-01T00:00:00.000000+00:00", ["demo::a"], 2, 3,
    {{"demo::a": [10.0, 5.0, 2.0]}}, 1.0, random.Random(1),
)
assert [len(results) for results in record.results.values()] == [2]
tracer.enabled = True
experiment.sample_stream(SimulatedProbe(load_scenario({scenario!r})), SamplerConfig(1000.0), 3_000_000)
assert tracer.spans[-1].name == "sampler.sample_stream", tracer.spans
"""


def test_perfbench_hooks_resolve(tmp_path):
    # The benchmark wraps manai's entry points by name when it traces, and
    # builds stored records from manai's data model: a rename of either
    # fails here rather than in a benchmark run. perfbench/ is only read.
    root = Path(__file__).resolve().parent.parent
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("update_interval_ns=1000000 max_range_uj=1000000000\nduration_ns=1000000000 package=5\n")
    script = _PERFBENCH_HOOKS.format(perfbench=str(root / "perfbench"), src=str(root / "src"), scenario=str(scenario))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
