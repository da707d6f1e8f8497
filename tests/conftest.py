"""Shared fixtures: fake powercap trees, scenario files, harness plans."""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Mapping, NamedTuple

import pytest
from hypothesis import strategies as st

from manai.errors import ReadFailed
from manai.probe import (
    DomainKind,
    EnergyDomain,
    ProbeBackend,
    ProbeDescriptor,
    ProbeReading,
    SimulationScenario,
)

# Harness children run ``python -m manai.fixture_harness``; let them import
# manai from this checkout like the test process does (pyproject's pytest
# ``pythonpath`` only reaches this process).
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

PKG = EnergyDomain(DomainKind.PACKAGE, 0)
CORE = EnergyDomain(DomainKind.CORE, 0)
DRAM = EnergyDomain(DomainKind.DRAM, 0)


def make_powercap_tree(root: Path, zones: dict[str, dict[str, object]]) -> Path:
    """Build a fake powercap sysfs layout.

    ``zones`` maps zone directory names (``intel-rapl:0``,
    ``intel-rapl:0:0``) to their file contents, e.g.
    ``{"name": "package-0", "energy_uj": 1234, "max_energy_range_uj": 10**9}``.
    """
    for zone_name, files in zones.items():
        # Subzones (intel-rapl:N:M) live inside their parent directory.
        parts = zone_name.split(":")
        if len(parts) == 3:
            zone_dir = root / f"intel-rapl:{parts[1]}" / zone_name
        else:
            zone_dir = root / zone_name
        zone_dir.mkdir(parents=True, exist_ok=True)
        for file_name, content in files.items():
            (zone_dir / file_name).write_text(f"{content}\n")
    return root


@pytest.fixture
def powercap_two_domains(tmp_path):
    root = tmp_path / "powercap"
    make_powercap_tree(
        root,
        {
            "intel-rapl:0": {
                "name": "package-0",
                "energy_uj": 1000,
                "max_energy_range_uj": 262143328850,
            },
            "intel-rapl:0:0": {
                "name": "core",
                "energy_uj": 500,
                "max_energy_range_uj": 262143328850,
            },
        },
    )
    return root


def write_scenario(
    path: Path,
    segments: list[tuple[int, dict[str, str]]],
    max_range_uj: int = 10**12,
    update_interval_ns: int = 1_000_000,
) -> Path:
    """Write a scenario file. Segment powers are given as watt strings."""
    lines = [
        f"update_interval_ns={update_interval_ns}",
        f"max_range_uj={max_range_uj}",
    ]
    for duration_ns, powers in segments:
        fields = " ".join(f"{key}={value}" for key, value in powers.items())
        lines.append(f"duration_ns={duration_ns} {fields}")
    path.write_text("\n".join(lines) + "\n")
    return path


class ScenarioSegment(NamedTuple):
    """A stretch of constant per-domain power, as a test draws it."""

    duration_ns: int
    powers_uw: Mapping[EnergyDomain, int]


def scenario_of(segments, max_range_uj: int, update_interval_ns: int) -> SimulationScenario:
    """The scenario of ``segments``; a domain a segment leaves out draws 0 W there."""
    domains = {domain for segment in segments for domain in segment.powers_uw}
    return SimulationScenario(
        durations_ns=tuple(segment.duration_ns for segment in segments),
        powers_uw={
            domain: tuple(segment.powers_uw.get(domain, 0) for segment in segments)
            for domain in domains
        },
        max_range_uj=max_range_uj,
        update_interval_ns=update_interval_ns,
    )


@st.composite
def baseline_cases(draw):
    """Power segments, a refresh interval, a rate, a window of ``ticks``
    intervals at that rate, and a baseline to take off it."""
    segments = tuple(
        ScenarioSegment(
            duration_ns=draw(st.integers(100_000, 300_000_000)),
            powers_uw={PKG: draw(st.integers(0, 50_000_000)), DRAM: draw(st.integers(0, 10_000_000))},
        )
        for _ in range(draw(st.integers(1, 6)))
    )
    update_ns = draw(st.sampled_from([1_000_000, 1_500_000, 2_500_000]) | st.integers(100_000, 5_000_000))
    rate_hz = draw(st.sampled_from([1000.0, 250.0]) | st.floats(50.0, 4000.0))
    ticks = draw(st.integers(1, 600))
    baseline_w = draw(st.fixed_dictionaries({PKG: st.floats(0.0, 60.0)}, optional={DRAM: st.floats(0.0, 12.0)}))
    return segments, update_ns, rate_hz, ticks, baseline_w


class SteppingProbe:
    """A probe of one domain, ``package:0``, stamped on the monotonic clock,
    whose counter reads ``start_uj`` and then ``step_uj`` more at every
    read, modulo ``max_range_uj``. Read number ``fail_at`` (from 0) fails.
    It keeps every reading it returns. It is not a simulated probe, so a
    run over it takes the live path."""

    def __init__(self, step_uj: int, max_range_uj: int, peak_w: float, start_uj: int = 0,
                 fail_at: int | None = None):
        self.readings: list[ProbeReading] = []
        self._step_uj, self._start_uj, self._fail_at = step_uj, start_uj, fail_at
        self._descriptor = ProbeDescriptor(
            ProbeBackend.RAPL, (PKG,), 1_000_000, {PKG: max_range_uj}, {PKG: peak_w}
        )

    def describe(self) -> ProbeDescriptor:
        return self._descriptor

    def read(self) -> ProbeReading:
        count = len(self.readings)
        if count == self._fail_at:
            raise ReadFailed(PKG, f"scripted failure at read {count}")
        counter_uj = (self._start_uj + count * self._step_uj) % self._descriptor.max_range_uj[PKG]
        self.readings.append(ProbeReading(time.monotonic_ns(), (counter_uj,)))
        return self.readings[-1]


def write_plan(path: Path, lines: list[str]) -> Path:
    """Write a fixture-harness plan file."""
    path.write_text("\n".join(lines) + "\n")
    return path


def fixture_harness_command(plan_path: Path, data_dir: Path | None = None):
    """HarnessCommand invoking the bundled fixture harness for a plan."""
    from manai.harness import HarnessCommand

    base_args = ["-m", "manai.fixture_harness", "--plan", str(plan_path)]
    return HarnessCommand(
        program=sys.executable,
        args=base_args,
        list_args=base_args + ["--list"],
    )


def make_result(test, iteration=0, duration_ns=500_000_000, energy_uj=5_000_000,
                status=None, low_confidence=False):
    """One synthetic iteration result backed by a single sample."""
    from manai.harness import TestStatus
    from manai.results import TestExecutionResult
    from manai.sampler import EnergySample

    sample = EnergySample(0, duration_ns, {PKG: energy_uj})
    return TestExecutionResult.build(
        test=test,
        iteration=iteration,
        samples=[sample],
        begin_ns=0,
        end_ns=duration_ns,
        status=status or TestStatus.PASS,
        update_interval_ns=1_000_000,
        domains=(PKG,),
    )


def make_record(label, created_at, tests_energies_uj, iterations=1, digest="sha256:test"):
    """A full revision record with one test per (id, energy) pair."""
    from manai.harness import TestId
    from manai.results import summarize
    from manai.store import RevisionRecord

    summaries = {}
    results = {}
    for test_text, energy_uj in tests_energies_uj.items():
        test = TestId.parse(test_text)
        rs = [
            make_result(test, iteration=i, energy_uj=energy_uj + i)
            for i in range(iterations)
        ]
        summaries[test] = summarize(rs)
        results[test] = tuple(rs)
    return RevisionRecord(
        revision_label=label,
        created_at=created_at,
        config_digest=digest,
        probe_backend="simulated",
        probe_update_interval_ns=1_000_000,
        probe_domains=(PKG,),
        config={"experiment.rate_hz": "100.0"},
        summaries=summaries,
        results=results,
    )
