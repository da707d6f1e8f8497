"""The runtime imports nothing outside the standard library, importing one
manai module imports no other that it does not use, records and views load
no process layer, no manai process loads OpenSSL or ``statistics``, no
manai module imports ``threading``, and every name the benchmark hooks
into resolves."""

from __future__ import annotations

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from manai.experiment import ExperimentConfig, effective_config_items
from manai.harness import HarnessCommand

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
    ("manai.protocol", ["manai", "manai.errors", "manai.protocol"]),
    ("manai.fixture_harness", ["manai", "manai.errors", "manai.fixture_harness", "manai.protocol"]),
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


_LOADED_PROCESS_LAYER = (
    "import json, sys, {module}\n"
    "print(json.dumps([n for n in ('manai.harness', 'manai.experiment', 'subprocess') if n in sys.modules]))\n"
)


@pytest.mark.parametrize("module", ["manai.report", "manai.store"])
def test_records_and_views_load_no_process_layer(module):
    # Records and views take TestId and TestStatus from manai.protocol, so
    # reading a store spawns nothing and loads nothing that could.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_PROCESS_LAYER.format(module=module)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


_DIGEST_AND_OPENSSL_MODULES = (
    "import json, sys\n"
    "{preamble}"
    "import manai.cli\n"
    "from manai.experiment import ExperimentConfig, config_digest\n"
    "from manai.harness import HarnessCommand\n"
    "config = ExperimentConfig(harness=HarnessCommand(program='harness'), iterations=1, revision_label='r')\n"
    "loaded = [name for name in ('hashlib', '_hashlib', '_ssl') if name in sys.modules]\n"
    "print(json.dumps([config_digest(config), loaded]))\n"
)


def _digest_in_child(*options: str, preamble: str = "") -> list:
    proc = subprocess.run(
        [sys.executable, *options, "-c", _DIGEST_AND_OPENSSL_MODULES.format(preamble=preamble)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _hashlib_digest() -> str:
    config = ExperimentConfig(harness=HarnessCommand(program="harness"), iterations=1, revision_label="r")
    text = "\n".join(f"{k}={v}" for k, v in effective_config_items(config))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cli_and_config_digest_load_no_openssl():
    # The digest is hashed with the interpreter's built-in SHA-256, so no
    # command pays for loading libcrypto.
    assert _digest_in_child("-S") == [_hashlib_digest(), []]


def test_digest_falls_back_to_hashlib_without_the_builtin_hash():
    # As on an interpreter built without the built-in hashes. Started
    # without -S, so a site-installed line tracer sees the fallback run.
    blocked = "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
    digest, loaded = _digest_in_child(preamble=blocked)
    assert digest == _hashlib_digest()
    assert "hashlib" in loaded


_SUMMARIZE = (
    "import json, sys, manai.cli\n"
    "from manai.protocol import TestId, TestStatus\n"
    "from manai.probe import DomainKind, EnergyDomain\n"
    "from manai.results import TestExecutionResult, summarize\n"
    "from manai.sampler import EnergySample\n"
    "domain = EnergyDomain(DomainKind.PACKAGE, 0)\n"
    "results = [TestExecutionResult.build(TestId('a', 'b'), i, [EnergySample(0, 10**9, {domain: 5 + i})],\n"
    "                                     0, 10**9, TestStatus.PASS, 10**6) for i in range(3)]\n"
    "assert summarize(results).energy_stats[domain].stddev > 0\n"
    "print(json.dumps('statistics' in sys.modules))\n"
)


def test_cli_and_summarize_load_no_statistics_module():
    # Iteration statistics are exact integer arithmetic: no manai process
    # pays for importing statistics.
    proc = subprocess.run([sys.executable, "-S", "-c", _SUMMARIZE], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is False


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
