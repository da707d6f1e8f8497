"""Probe backends: powercap discovery, simulated counters, scenario parsing."""

from __future__ import annotations

import contextlib
import copy
import errno
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import time
from decimal import Decimal, InvalidOperation
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manai import probe as probe_module
from manai.sampler import _columns as sampler_columns
from manai.errors import MalformedScenario, NoProbeAvailable, PermissionDenied, ReadFailed
from manai.probe import (
    MAX_PLAUSIBLE_POWER_W,
    MAX_SCENARIO_POWER_W,
    DomainKind,
    EnergyDomain,
    ProbeBackend,
    ProbeDescriptor,
    RaplProbe,
    SimulatedProbe,
    SimulationScenario,
    _parse_watts_uw,
    load_scenario,
)

from conftest import (
    CORE,
    DRAM,
    PKG,
    ScenarioSegment,
    make_powercap_tree,
    scenario_of,
    write_scenario,
)


def constant_scenario(watts_uw: int, max_range_uj: int = 10**12, update_ns: int = 1_000_000):
    return scenario_of(
        segments=(ScenarioSegment(10**10, {PKG: watts_uw}),),
        max_range_uj=max_range_uj,
        update_interval_ns=update_ns,
    )


def _pread_failing_on(counter: Path):
    """An ``os.pread`` that fails like a removed sysfs zone on the fd of ``counter``."""
    real_pread = os.pread
    removed = os.stat(counter)

    def pread(fd, length, offset):
        if os.path.samestat(os.fstat(fd), removed):
            raise OSError(errno.ENODEV, os.strerror(errno.ENODEV))
        return real_pread(fd, length, offset)

    return pread


class TestRaplDiscovery:
    def test_maps_zone_names_to_domains(self, powercap_two_domains):
        probe = RaplProbe(powercap_root=powercap_two_domains)
        descriptor = probe.describe()
        assert descriptor.backend is ProbeBackend.RAPL
        assert set(descriptor.domains) == {PKG, CORE}
        assert descriptor.update_interval_ns == 1_000_000

    def test_read_returns_counters_and_ranges(self, powercap_two_domains):
        probe = RaplProbe(powercap_root=powercap_two_domains)
        reading = probe.read()
        assert probe.describe().domains == (PKG, CORE)
        assert reading.counters == (1000, 500)
        assert probe.describe().max_range_uj[PKG] == 262143328850

    def test_empty_tree_is_no_probe(self, tmp_path):
        with pytest.raises(NoProbeAvailable):
            RaplProbe(powercap_root=tmp_path / "missing")

    def test_unreadable_counters_signal_permission(self, tmp_path, monkeypatch):
        root = tmp_path / "powercap"
        make_powercap_tree(
            root,
            {"intel-rapl:0": {"name": "package-0", "energy_uj": 1, "max_energy_range_uj": 10}},
        )
        real_open = os.open

        def deny_energy(path, *args, **kwargs):
            if Path(path).name == "energy_uj":
                raise PermissionError(errno.EACCES, "denied", str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", deny_energy)
        with pytest.raises(PermissionDenied):
            RaplProbe(powercap_root=root)

    def test_timestamps_strictly_increase(self, powercap_two_domains):
        probe = RaplProbe(powercap_root=powercap_two_domains)
        assert probe.read().timestamp_ns < probe.read().timestamp_ns

    def test_reads_are_stamped_on_the_monotonic_clock(self, powercap_two_domains):
        probe = RaplProbe(powercap_root=powercap_two_domains)
        for _ in range(20):
            before = time.monotonic_ns()
            reading = probe.read()
            assert before <= reading.timestamp_ns <= time.monotonic_ns()

    @pytest.mark.parametrize("wait_ns", [-10**9, 0, 1, 20 * 10**6])
    def test_wait_until_returns_at_or_past_the_deadline(self, powercap_two_domains, wait_ns):
        probe = RaplProbe(powercap_root=powercap_two_domains)
        started_ns = time.monotonic_ns()
        deadline_ns = started_ns + wait_ns
        probe.wait_until(deadline_ns)
        assert probe.read().timestamp_ns >= deadline_ns
        # A deadline already past returns at once.
        assert time.monotonic_ns() - max(started_ns, deadline_ns) < 10**9 // 2

    def test_descriptor_peak_is_the_plausible_bound(self, powercap_two_domains):
        descriptor = RaplProbe(powercap_root=powercap_two_domains).describe()
        assert descriptor.peak_power_w == {PKG: MAX_PLAUSIBLE_POWER_W, CORE: MAX_PLAUSIBLE_POWER_W}

    def test_vanished_counter_fails_whole_reading(self, powercap_two_domains, monkeypatch):
        probe = RaplProbe(powercap_root=powercap_two_domains)
        # sysfs answers a read on the held fd of a removed zone with ENODEV.
        package_counter = powercap_two_domains / "intel-rapl:0" / "energy_uj"
        monkeypatch.setattr(os, "pread", _pread_failing_on(package_counter))
        with pytest.raises(ReadFailed):
            probe.read()

    def test_failure_names_the_failing_zone(self, powercap_two_domains, monkeypatch):
        probe = RaplProbe(powercap_root=powercap_two_domains)
        core_counter = powercap_two_domains / "intel-rapl:0" / "intel-rapl:0:0" / "energy_uj"
        monkeypatch.setattr(os, "pread", _pread_failing_on(core_counter))
        with pytest.raises(ReadFailed) as failure:
            probe.read()
        assert failure.value.domain == CORE

    @pytest.mark.parametrize("energy_uj", [262143328850, 262143328851])
    def test_counter_outside_range_fails_naming_the_zone(self, powercap_two_domains, energy_uj):
        core_counter = powercap_two_domains / "intel-rapl:0" / "intel-rapl:0:0" / "energy_uj"
        core_counter.write_text(f"{energy_uj}\n")
        probe = RaplProbe(powercap_root=powercap_two_domains)
        with pytest.raises(ReadFailed, match=r"outside \[0, 262143328850\)") as failure:
            probe.read()
        assert failure.value.domain == CORE

    def test_held_fds_are_closed_and_not_inherited(self, powercap_two_domains):
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("no /proc/self/fd")
        gc.collect()
        before = len(os.listdir(fd_dir))
        for _ in range(100):
            probe = RaplProbe(powercap_root=powercap_two_domains)
            held = [zone.fd for zone in probe._zones]
            assert len(held) == 2
            assert all(os.get_inheritable(fd) is False for fd in held)
            del probe
        gc.collect()
        assert len(os.listdir(fd_dir)) == before

    def test_zones_that_cannot_be_used_are_skipped(self, tmp_path, caplog):
        root = tmp_path / "powercap"
        usable = {"energy_uj": 7, "max_energy_range_uj": 10**6}
        make_powercap_tree(root, {
            "intel-rapl:0": {"name": "package-0", **usable},
            "intel-rapl:0:0": usable,  # its name is made unreadable below
            "intel-rapl:0:1": {"name": "gpu", **usable},
            "intel-rapl:0:2": {"name": "core", "max_energy_range_uj": 10**6},  # no energy_uj
            "intel-rapl:1": {"name": "dram", **usable},
        })
        (root / "intel-rapl:0" / "intel-rapl:0:0" / "name").mkdir()
        with caplog.at_level("INFO", logger="manai.probe"):
            probe = RaplProbe(powercap_root=root)
        assert "with unknown name 'gpu'" in caplog.text
        # A known zone outside any package zone is counted on socket 0.
        assert probe.describe().domains == (PKG, DRAM)
        assert len(probe._fds) == 2

    # Every way a zone can lack a usable counter range: the file is
    # missing, is a directory, does not parse, or is not positive.
    NO_RANGE = {
        "missing": lambda path: None,
        "unreadable": lambda path: path.mkdir(),
        "garbage": lambda path: path.write_text("n/a\n"),
        "zero": lambda path: path.write_text("0\n"),
        "negative": lambda path: path.write_text("-262143328850\n"),
    }

    @pytest.mark.parametrize("layout", sorted(NO_RANGE))
    def test_zone_without_range_is_skipped(self, tmp_path, caplog, layout):
        # A package counter read at 262,143,328,000 and then at 500 stepped
        # 1,350 uJ across a wrap of its 262,143,328,850 uJ range. The dram
        # zone steps alike, but its range is unknown: a made-up range of
        # 2^60 uJ would bill it about 1.15e12 J.
        root = tmp_path / "powercap"
        zones = {
            "intel-rapl:0": {"name": "package-0", "energy_uj": 262143328000,
                             "max_energy_range_uj": 262143328850},
            "intel-rapl:0:0": {"name": "dram", "energy_uj": 262143328000},
        }
        make_powercap_tree(root, zones)
        dram_dir = root / "intel-rapl:0" / "intel-rapl:0:0"
        self.NO_RANGE[layout](dram_dir / "max_energy_range_uj")
        with caplog.at_level("WARNING", logger="manai.probe"):
            probe = RaplProbe(powercap_root=root)
        assert f"skipping powercap zone {dram_dir}: no readable positive max_energy_range_uj" in caplog.text
        # The skipped zone's counter was never opened.
        assert len(probe._fds) == 1
        descriptor = probe.describe()
        assert descriptor.domains == (PKG,)
        before = probe.read()
        for zone_dir in (root / "intel-rapl:0", dram_dir):
            (zone_dir / "energy_uj").write_text("500\n")
        columns = sampler_columns([before, probe.read()], descriptor)
        assert columns.energy_uj == {PKG: (1350,)}

    def test_only_zone_without_range_is_no_probe(self, tmp_path):
        root = tmp_path / "powercap"
        make_powercap_tree(root, {"intel-rapl:0": {"name": "package-0", "energy_uj": 1}})
        with pytest.raises(NoProbeAvailable, match=r"\(1 without a readable positive max_energy_range_uj\)$"):
            RaplProbe(powercap_root=root)

    def test_multi_socket_and_psys(self, tmp_path):
        root = tmp_path / "powercap"
        make_powercap_tree(
            root,
            {
                "intel-rapl:0": {"name": "package-0", "energy_uj": 1, "max_energy_range_uj": 10},
                "intel-rapl:0:0": {"name": "dram", "energy_uj": 2, "max_energy_range_uj": 10},
                "intel-rapl:1": {"name": "package-1", "energy_uj": 3, "max_energy_range_uj": 10},
                "intel-rapl:2": {"name": "psys", "energy_uj": 4, "max_energy_range_uj": 10},
            },
        )
        probe = RaplProbe(powercap_root=root)
        assert set(probe.describe().domains) == {
            EnergyDomain(DomainKind.PACKAGE, 0),
            EnergyDomain(DomainKind.PACKAGE, 1),
            EnergyDomain(DomainKind.DRAM, 0),
            EnergyDomain(DomainKind.PSYS, 0),
        }


class TestSimulatedProbe:
    def test_descriptor_reflects_scenario(self):
        scenario = constant_scenario(5_000_000, update_ns=2_000_000)
        probe = SimulatedProbe(scenario)
        descriptor = probe.describe()
        assert descriptor.backend is ProbeBackend.SIMULATED
        assert descriptor.domains == (PKG,)
        assert descriptor.update_interval_ns == 2_000_000

    def test_descriptor_peak_is_each_domains_highest_power(self):
        segments = [
            ScenarioSegment(10, {PKG: 5_000_000, DRAM: 2_000_000}),
            ScenarioSegment(10, {PKG: 12_500_000}),
        ]
        scenario = scenario_of(segments, max_range_uj=10**9, update_interval_ns=1)
        assert SimulatedProbe(scenario).describe().peak_power_w == {PKG: 12.5, DRAM: 2.0}
        # Computed once per scenario, not once per probe replaying it.
        assert SimulatedProbe(scenario).describe() is SimulatedProbe(scenario).describe()

    def test_reads_are_stamped_on_the_virtual_clock(self):
        probe = SimulatedProbe(constant_scenario(10_000_000))
        assert probe.read() == (0, (0,))
        for deadline_ns in (1, 1_000_000, 10**9 + 1_000_000):
            probe.wait_until(deadline_ns)
            assert probe.read().timestamp_ns == probe.now_ns == deadline_ns

    def test_virtual_clock_never_moves_backwards(self):
        probe = SimulatedProbe(constant_scenario(10_000_000))
        probe.wait_until(5 * 10**6)
        for deadline_ns in (4 * 10**6, 5 * 10**6, -1):
            probe.wait_until(deadline_ns)
            assert probe.read() == (5 * 10**6, (50_000,))

    def test_constant_power_integral_at_two_seconds(self):
        # 10 W for 2 s = 20 J = 20,000,000 uJ, exact on the 1 ms grid.
        probe = SimulatedProbe(constant_scenario(10_000_000))
        probe.wait_until(2 * 10**9)
        assert probe.read().counters == (20_000_000,)

    def test_counter_wraps_modulo_max_range(self):
        # 10 W for 6 s = 60 MJu, wraps at 50 MJu to 10 MJu.
        probe = SimulatedProbe(constant_scenario(10_000_000, max_range_uj=50_000_000))
        probe.wait_until(6 * 10**9)
        assert probe.read().counters == (10_000_000,)

    def test_timestamps_strictly_increase(self):
        probe = SimulatedProbe(constant_scenario(1_000_000))
        first = probe.read()
        probe.wait_until(1)
        second = probe.read()
        assert second.timestamp_ns > first.timestamp_ns

    def test_deterministic_for_identical_clocks(self):
        scenario = constant_scenario(7_123_456)
        readings = []
        for _ in range(2):
            probe = SimulatedProbe(scenario)
            probe.wait_until(1_234_567_890)
            readings.append(probe.read().counters)
        assert readings[0] == readings[1]


def oracle_counter_uj(scenario: SimulationScenario, domain, elapsed_ns: int) -> int:
    """Independent per-tick accumulation of the scenario integral."""
    q = scenario.update_interval_ns
    total_fj = 0
    bounds = []
    cursor = 0
    powers_uw = scenario.powers_uw[domain]
    for duration_ns, power_uw in zip(scenario.durations_ns, powers_uw):
        bounds.append((cursor, cursor + duration_ns, power_uw))
        cursor += duration_ns
    tail_power = powers_uw[-1]

    for k in range(elapsed_ns // q):
        lo, hi = k * q, (k + 1) * q
        tick_fj = 0
        for seg_lo, seg_hi, power_uw in bounds:
            overlap = min(hi, seg_hi) - max(lo, seg_lo)
            if overlap > 0:
                tick_fj += power_uw * overlap
        if hi > cursor:
            tick_fj += tail_power * (hi - max(lo, cursor))
        total_fj += tick_fj
    return (total_fj // 10**9) % scenario.max_range_uj


@st.composite
def scenarios(draw):
    n_segments = draw(st.integers(1, 4))
    segments = tuple(
        ScenarioSegment(
            duration_ns=draw(st.integers(1_000, 500_000_000)),
            powers_uw={PKG: draw(st.integers(0, 50_000_000))},
        )
        for _ in range(n_segments)
    )
    return scenario_of(
        segments=segments,
        max_range_uj=draw(st.integers(1_000, 10**9)),
        update_interval_ns=draw(st.sampled_from([500_000, 1_000_000, 7_000_000])),
    )


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios(), elapsed_ns=st.integers(0, 2_000_000_000))
def test_closed_form_counter_matches_tick_oracle(scenario, elapsed_ns):
    got = scenario.counter_uj(PKG, elapsed_ns)
    assert got == oracle_counter_uj(scenario, PKG, elapsed_ns)
    assert 0 <= got < scenario.max_range_uj


def oracle_energy_fj(segments, domain, until_ns: int) -> int:
    """Independent linear walk of the scenario integral, last level held."""
    total_fj = cursor = 0
    for segment in segments:
        overlap_ns = min(until_ns, cursor + segment.duration_ns) - cursor
        if overlap_ns > 0:
            total_fj += segment.powers_uw.get(domain, 0) * overlap_ns
        cursor += segment.duration_ns
    if until_ns > cursor:
        total_fj += segments[-1].powers_uw.get(domain, 0) * (until_ns - cursor)
    return total_fj


@st.composite
def sparse_scenarios(draw):
    """Up to 64 segments over two or three domains; DRAM skips some segments.

    Yields ``(segments, scenario)``, so oracles can walk the segments as drawn.
    """
    others = draw(st.sampled_from([(DRAM,), (CORE, DRAM)]))
    segments = []
    for _ in range(draw(st.integers(1, 64))):
        powers = {PKG: draw(st.integers(0, 50_000_000))}
        for domain in others:
            if domain is not DRAM or draw(st.booleans()):
                powers[domain] = draw(st.integers(0, 50_000_000))
        segments.append(ScenarioSegment(draw(st.integers(1, 10_000_000)), powers))
    scenario = scenario_of(
        segments, max_range_uj=10**9, update_interval_ns=1_000_000
    )
    return segments, scenario


def _segment_edges(segments) -> list[int]:
    ends = [0]
    for segment in segments:
        ends.append(ends[-1] + segment.duration_ns)
    return ends


@settings(max_examples=100, deadline=None)
@given(drawn=sparse_scenarios(), data=st.data())
def test_energy_fj_matches_linear_walk_at_segment_edges(drawn, data):
    segments, scenario = drawn
    ends = _segment_edges(segments)
    edge = st.tuples(st.sampled_from(ends), st.sampled_from([-1, 0, 1])).map(sum)
    past_end = st.integers(1, 10**10).map(lambda extra: ends[-1] + extra)
    untils = data.draw(st.lists(st.one_of(edge, past_end), min_size=1, max_size=20))
    for domain in (PKG, CORE, DRAM):
        for until_ns in untils:
            expected = oracle_energy_fj(segments, domain, until_ns)
            assert scenario.energy_fj(domain, until_ns) == expected


@settings(max_examples=100, deadline=None)
@given(drawn=sparse_scenarios(), data=st.data())
def test_read_equals_counter_uj_for_every_domain(drawn, data):
    segments, scenario = drawn
    ends = _segment_edges(segments)
    before_start = st.integers(-10**9, -1)
    on_start = st.sampled_from(ends)
    inside = st.integers(0, len(segments) - 1).flatmap(
        lambda i: st.integers(ends[i] + 1, ends[i + 1] - 1) if ends[i + 1] - ends[i] > 1
        else st.just(ends[i])
    )
    past_end = st.integers(1, 10**10).map(lambda extra: ends[-1] + extra)
    elapsed = data.draw(
        st.lists(st.one_of(before_start, on_start, inside, past_end), min_size=1, max_size=20)
    )
    probe = SimulatedProbe(scenario)
    for elapsed_ns in elapsed:
        # Virtual time is elapsed time: the clock starts at the origin.
        probe.now_ns = elapsed_ns
        reading = probe.read()
        assert reading.timestamp_ns == elapsed_ns
        assert type(reading.counters) is tuple
        assert reading.counters == tuple(
            scenario.counter_uj(domain, elapsed_ns) for domain in scenario.domains
        )


class TestScenarioColumns:
    def test_load_fills_left_out_domains_with_zero(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.txt",
            [(5, {"package": "1"}), (7, {"dram": "2", "package": "3"}), (9, {"package": "4"})],
        )
        scenario = load_scenario(path)
        assert scenario.durations_ns == (5, 7, 9)
        assert scenario.powers_uw == {
            PKG: (1_000_000, 3_000_000, 4_000_000),
            DRAM: (0, 2_000_000, 0),
        }
        assert scenario.domains == (PKG, DRAM)

    @pytest.mark.parametrize(
        "durations_ns, powers_uw, message",
        [
            ((), {}, "scenario needs at least one segment"),
            ((5, 0), {PKG: (1, 1)}, "segment duration must be positive"),
            ((5, 5), {PKG: (1, -1)}, "segment power must be non-negative"),
            ((5, 5), {PKG: (1,)}, "package:0 needs one power per segment"),
        ],
    )
    def test_invalid_columns_rejected(self, durations_ns, powers_uw, message):
        with pytest.raises(ValueError, match=message):
            SimulationScenario(durations_ns, powers_uw, max_range_uj=10, update_interval_ns=1)

    @pytest.mark.parametrize("domains, update_interval_ns, message", [
        ((), 1, "a probe must expose at least one domain"),
        ((PKG,), 0, "update_interval_ns must be positive"),
    ])
    def test_invalid_descriptor_rejected(self, domains, update_interval_ns, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProbeDescriptor(ProbeBackend.SIMULATED, domains, update_interval_ns, {PKG: 10}, {PKG: 1.0})


class TestScenarioFile:
    def test_parse_round_trip(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.txt",
            [(10**9, {"package": "5"})],
            max_range_uj=10**9,
            update_interval_ns=1_000_000,
        )
        scenario = load_scenario(path)
        assert scenario.durations_ns == (10**9,)
        assert scenario.update_interval_ns == 1_000_000
        assert scenario.max_range_uj == 10**9
        assert scenario.powers_uw == {PKG: (5_000_000,)}

    def test_negative_power_rejected(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": "-1"})])
        with pytest.raises(MalformedScenario) as exc_info:
            load_scenario(path)
        assert exc_info.value.line_no == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("update_interval_ns=1000 max_range_uj=100\nduration_ns=5 gpu=3\n")
        with pytest.raises(MalformedScenario):
            load_scenario(path)

    def test_three_segments_cumulative_energy(self, tmp_path):
        # 1s@5W + 1s@10W + 1s@5W = 20 J at t=3s.
        path = write_scenario(
            tmp_path / "s.txt",
            [
                (10**9, {"package": "5"}),
                (10**9, {"package": "10"}),
                (10**9, {"package": "5"}),
            ],
        )
        scenario = load_scenario(path)
        assert scenario.counter_uj(PKG, 3 * 10**9) == 20_000_000

    def test_fractional_watts_parse_exactly(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": "2.5", "dram": "0.125"})])
        scenario = load_scenario(path)
        assert scenario.powers_uw == {PKG: (2_500_000,), DRAM: (125_000,)}

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("duration_ns=5 package=3\n")
        with pytest.raises(MalformedScenario):
            load_scenario(path)

    def test_domain_union_across_segments(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.txt",
            [(10**9, {"package": "5"}), (10**9, {"core": "1", "package": "2"})],
        )
        scenario = load_scenario(path)
        assert set(scenario.domains) == {PKG, CORE}

    @pytest.mark.parametrize("power", ["NaN", "nan", "-NaN", "sNaN", "inf", "Infinity", "1e400000000"])
    def test_non_finite_power_rejected(self, tmp_path, power):
        path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": "1", "core": power})])
        with pytest.raises(MalformedScenario, match=f"bad power value {power!r}") as exc_info:
            load_scenario(path)
        assert exc_info.value.line_no == 3

    def test_duplicate_domain_precedes_its_bad_value(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text(
            "update_interval_ns=1000 max_range_uj=100\n"
            "duration_ns=5 package=1\n"
            "duration_ns=5 core=1 package=2 core=x\n"
        )
        with pytest.raises(MalformedScenario, match="line 3: duplicate domain 'core'"):
            load_scenario(path)

    def test_negative_infinity_is_negative_power(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": "-inf"})])
        with pytest.raises(MalformedScenario, match="negative power '-inf'") as exc_info:
            load_scenario(path)
        assert exc_info.value.line_no == 3

    @pytest.mark.parametrize("power", ["1000000.000001", "2e6", "1e99990"])
    def test_power_above_bound_rejected(self, tmp_path, power):
        # "1e99990" would otherwise be converted to a 330,000-bit integer.
        path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": "1"}), (10**9, {"core": power})])
        with pytest.raises(MalformedScenario, match=f"power above 1000000 W: {power!r}") as exc_info:
            load_scenario(path)
        assert exc_info.value.line_no == 4

    def test_power_at_bound_accepted(self, tmp_path):
        path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": "1e6"})])
        assert load_scenario(path).powers_uw[PKG] == (10**12,)


# --------------------------------------------------------------------------
# Scenario parsing against a Decimal reference and the previous parser
# --------------------------------------------------------------------------


class _NegativePower(Exception):
    pass


class _PowerAbove(Exception):
    pass


def reference_watts_uw(text: str) -> int:
    """``int(Decimal(text) * 10**6)``, with negative values and values
    above ``MAX_SCENARIO_POWER_W`` refused.

    Raises ``_NegativePower``, ``_PowerAbove``, or an ``ArithmeticError``
    or ``ValueError`` for a text that is not a finite number in the
    default decimal context.
    """
    watts = Decimal(text)
    if not watts.is_nan() and watts < 0:
        raise _NegativePower
    microwatts = watts * 10**6
    if watts.is_finite() and watts > MAX_SCENARIO_POWER_W:
        raise _PowerAbove
    return int(microwatts)


@st.composite
def watts_texts(draw):
    """Decimal-like texts: leading zeros, trailing ".", long fractions,
    exponents, underscores and signs."""
    text = "0" * draw(st.integers(0, 3)) + draw(st.text("0123456789", max_size=30))
    if draw(st.booleans()):
        text += "." + draw(st.text("0123456789", max_size=30))
    if len(text) > 1 and draw(st.integers(0, 4)) == 0:
        cut = draw(st.integers(1, len(text) - 1))
        text = text[:cut] + "_" + text[cut:]
    if draw(st.integers(0, 4)) == 0:
        text += draw(st.sampled_from("eE")) + str(draw(st.integers(-40, 40)))
    return draw(st.sampled_from(["", "", "+", "-"])) + text


_ODD_WATTS = [
    "NaN", "-nan", "sNaN", "inf", "-Infinity", "1e400000000", "-1e400000000", ".5", "5.",
    "-0", "1_000", "1__0", "١٢.٥", "²", " 5", "0x10", "",
    "9" * 28, "9" * 29, "0." + "9" * 40, "1" * 27 + ".9",
    "1e6", "1000000.0000000000000000000000001", "1e999990", "1e999994", "9e999999",
]


@settings(max_examples=600, deadline=None)
@given(text=st.one_of(
    watts_texts(),
    st.text("0123456789.-+_eEnaifINFAs ", max_size=12),
    st.sampled_from(_ODD_WATTS),
))
def test_parse_watts_matches_decimal_reference(text):
    try:
        expected = reference_watts_uw(text)
    except _NegativePower:
        message = f"negative power {text!r}"
    except _PowerAbove:
        message = f"power above 1000000 W: {text!r}"
    except (ArithmeticError, ValueError):
        message = f"bad power value {text!r}"
    else:
        assert _parse_watts_uw(text, 7) == expected
        return
    with pytest.raises(MalformedScenario) as failure:
        _parse_watts_uw(text, 7)
    assert str(failure.value) == f"line 7: {message}"


def previous_load(text: str):
    """The line-by-line parser this module replaced, kept as an oracle.

    Returns ``(header, segments)`` with each segment ``(duration_ns,
    {domain: uW})`` as written; raises its ``MalformedScenario``.
    """

    def parse_watts_uw(text, line_no):
        try:
            watts = Decimal(text)
        except InvalidOperation:
            raise MalformedScenario(f"bad power value {text!r}", line_no) from None
        if watts < 0:
            raise MalformedScenario(f"negative power {text!r}", line_no)
        return int(watts * 10**6)

    def parse_int(text, key, line_no):
        try:
            return int(text)
        except ValueError:
            raise MalformedScenario(f"bad integer for {key}: {text!r}", line_no) from None

    header_keys = {"update_interval_ns", "max_range_uj"}
    domain_keys = {kind.value: EnergyDomain(kind, 0) for kind in DomainKind}
    header, segments = {}, []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        pairs = []
        for token in line.split():
            key, sep, value = token.partition("=")
            if not sep or not key or not value:
                raise MalformedScenario(f"expected key=value, got {token!r}", line_no)
            pairs.append((key, value))
        if pairs[0][0] == "duration_ns":
            duration_ns = parse_int(pairs[0][1], "duration_ns", line_no)
            if duration_ns <= 0:
                raise MalformedScenario("segment duration must be positive", line_no)
            powers = {}
            for key, value in pairs[1:]:
                domain = domain_keys.get(key)
                if domain is None:
                    raise MalformedScenario(f"unknown key {key!r}", line_no)
                if domain in powers:
                    raise MalformedScenario(f"duplicate domain {key!r}", line_no)
                powers[domain] = parse_watts_uw(value, line_no)
            if not powers:
                raise MalformedScenario("segment defines no domain power", line_no)
            segments.append((duration_ns, powers))
        else:
            if segments:
                raise MalformedScenario("header line after first segment", line_no)
            for key, value in pairs:
                if key not in header_keys:
                    raise MalformedScenario(f"unknown key {key!r}", line_no)
                if key in header:
                    raise MalformedScenario(f"duplicate header key {key!r}", line_no)
                header[key] = parse_int(value, key, line_no)
    missing = header_keys - set(header)
    if missing:
        raise MalformedScenario(f"missing header key(s): {', '.join(sorted(missing))}")
    if not segments:
        raise MalformedScenario("scenario needs at least one segment")
    if header["update_interval_ns"] <= 0:
        raise MalformedScenario("update_interval_ns must be positive")
    if header["max_range_uj"] <= 0:
        raise MalformedScenario("max_range_uj must be positive")
    return header, segments


def assert_same_scenario(scenario: SimulationScenario, header, segments) -> None:
    assert scenario.update_interval_ns == header["update_interval_ns"]
    assert scenario.max_range_uj == header["max_range_uj"]
    assert set(scenario.domains) == {d for _, powers in segments for d in powers}
    assert len(scenario.durations_ns) == len(segments)
    for index, (duration_ns, powers) in enumerate(segments):
        assert scenario.durations_ns[index] == duration_ns
        for domain in scenario.domains:
            assert scenario.powers_uw[domain][index] == powers.get(domain, 0)


def test_long_scenario_matches_previous_parser(tmp_path):
    rng = random.Random(11)
    spellings = [
        lambda uw: f"{uw // 10**6}.{uw % 10**6:06d}",
        lambda uw: f"00{uw // 10**6}.{uw % 10**6:06d}{rng.randrange(10**4)}",
        lambda uw: f"{uw // 10**6}.",
        lambda uw: f"{uw // 10**6}",
        lambda uw: f"{uw}e-6",
        lambda uw: f"{uw // 10**6}_0.5",
        lambda uw: f".{uw % 10**6:06d}",
    ]
    lines = ["# header, then 1500 segments", "update_interval_ns=1000000", "", "max_range_uj=10000000000"]
    for _ in range(1500):
        keys = rng.sample(["package", "core", "uncore", "dram", "psys"], rng.randint(1, 5))
        fields = " ".join(
            f"{key}={rng.choice(spellings)(rng.randrange(50 * 10**6))}" for key in keys
        )
        comment = "  # note" if rng.random() < 0.05 else ""
        lines.append(f"duration_ns={rng.randint(1, 5 * 10**6)}\t{fields}{comment}")
    text = "\n".join(lines) + "\n"
    path = tmp_path / "long.txt"
    path.write_text(text)
    assert_same_scenario(load_scenario(path), *previous_load(text))


_TOKENS = [
    "duration_ns=5", "duration_ns=0", "duration_ns=x", "duration_ns", "package=1.5",
    "package=2", "core=0.25", "dram=-1", "core=x", "psys=1e2", "gpu=1", "package", "=3",
    "dram=", "=", "a=b=c", "update_interval_ns=1000", "max_range_uj=10", "max_range_uj=0",
    "max_range_uj=a", "#", "package=1#2",
]


_LINES = st.tuples(
    st.sampled_from(["duration_ns=5 ", "duration_ns=5 ", ""]),
    st.lists(st.sampled_from(_TOKENS), max_size=4).map(" ".join),
).map("".join)


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(_LINES, max_size=6))
def test_rejections_match_previous_parser(tmp_path_factory, lines):
    text = "\n".join(["update_interval_ns=1000 max_range_uj=100", *lines]) + "\n"
    path = tmp_path_factory.mktemp("scenario") / "s.txt"
    path.write_text(text)
    try:
        expected = previous_load(text)
    except MalformedScenario as previous:
        with pytest.raises(MalformedScenario) as failure:
            load_scenario(path)
        assert str(failure.value) == str(previous)
        assert failure.value.line_no == previous.line_no
    else:
        assert_same_scenario(load_scenario(path), *expected)


# --------------------------------------------------------------------------
# The one-pass loader against generated scenario texts
# --------------------------------------------------------------------------


_README_POWERS = ["10", "1.5", "0.000250", "007.", "2.5e-3", "1_000", ".5"]


@pytest.mark.parametrize("power", _README_POWERS)
def test_readme_power_spellings_load_exactly(tmp_path, power):
    path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": power})])
    assert load_scenario(path).powers_uw[PKG] == (int(Decimal(power) * 10**6),)


def test_non_ascii_digits_load_as_decimal_reads_them(tmp_path):
    # "²" passes str.isdigit() but not int(); Decimal refuses it as well.
    path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": "١٢.٥"}), (10**9, {"package": "²"})])
    with pytest.raises(MalformedScenario, match="line 4: bad power value '²'"):
        load_scenario(path)
    path = write_scenario(tmp_path / "s.txt", [(10**9, {"package": "١٢.٥"})])
    assert load_scenario(path).powers_uw[PKG] == (12_500_000,)


@st.composite
def power_texts(draw):
    """A power of at most 1 MW, spelled as the README lists them."""
    style = draw(st.sampled_from(["10", "1.5", "007.", "2.5e-3", "1_000", ".5", "listed"]))
    if style == "listed":
        return draw(st.sampled_from([*_README_POWERS, "1000000", "1e6", "999999." + "9" * 30]))
    whole = str(draw(st.integers(0, 999_999)))
    if style == "10":
        return whole
    if style == "007.":
        return "00" + whole + "."
    if style == "1_000":
        return f"{whole[:1]}_{whole[1:] or '0'}"
    fraction = draw(st.text("0123456789", min_size=1, max_size=30))
    if style == "1.5":
        return f"{whole}.{fraction}"
    if style == "2.5e-3":
        return f"{whole}.{fraction}e-{len(fraction) % 10}"
    return f".{fraction}"


# A value on a line, and the message that refuses it.
_BAD_POWERS = {
    "-1.5": "negative power '-1.5'",
    "-inf": "negative power '-inf'",
    "NaN": "bad power value 'NaN'",
    "Infinity": "bad power value 'Infinity'",
    "1e400000000": "bad power value '1e400000000'",
    "1000000.000001": "power above 1000000 W: '1000000.000001'",
    "2e6": "power above 1000000 W: '2e6'",
}

_SCENARIO_KEYS = {kind.value: EnergyDomain(kind, 0) for kind in DomainKind}


@st.composite
def scenario_texts(draw):
    """Scenario text with comments, blank lines and omitted domains, and
    what loading it must give: ``(line_no, message)`` of the first broken
    line, or else the header and each segment's duration and power texts.

    About one segment in four comes with one error: a bad power, a token
    that is not key=value, an unknown key, a duplicate domain, a bad
    duration, no power at all, or a header line before or after it.
    """
    lines: list[str] = []
    errors: list[tuple[int, str]] = []

    def add(line: str) -> int:
        while draw(st.integers(0, 3)) == 3:
            lines.append(draw(st.sampled_from(["", "   ", "# a comment", "\t# key=value here"])))
        lines.append(line + draw(st.sampled_from(["", "", "  # trailing note", "#x=1"])))
        return len(lines)

    header = {"update_interval_ns": draw(st.integers(1, 10**7)), "max_range_uj": draw(st.integers(1, 10**13))}
    if draw(st.booleans()):
        add(" ".join(f"{k}={v}" for k, v in header.items()))
    else:
        for k, v in header.items():
            add(f"{k}={v}")
    segments = []
    for index in range(draw(st.integers(1, 8))):
        keys = draw(st.lists(st.sampled_from(sorted(_SCENARIO_KEYS)), min_size=1, max_size=5, unique=True))
        powers = {key: draw(power_texts()) for key in keys}
        duration = draw(st.integers(1, 10**10))
        lead, tokens = f"duration_ns={duration}", [f"{key}={value}" for key, value in powers.items()]
        error = draw(st.sampled_from([
            "bad power", "no equals sign", "unknown key", "duplicate domain", "zero duration",
            "bad duration", "no power", "header before", "header after",
        ])) if draw(st.integers(0, 3)) == 3 else None
        message = None
        if error == "header after" and index:
            errors.append((add("max_range_uj=7"), "header line after first segment"))
        elif error == "header before" and not index:
            errors.append((add("update_interval_ns=7"), "duplicate header key 'update_interval_ns'"))
        elif error == "bad power":
            at = draw(st.integers(0, len(keys) - 1))
            bad = draw(st.sampled_from(sorted(_BAD_POWERS)))
            tokens[at], message = f"{keys[at]}={bad}", _BAD_POWERS[bad]
        elif error == "no equals sign":
            tokens.insert(draw(st.integers(0, len(tokens))), keys[0])
            message = f"expected key=value, got {keys[0]!r}"
        elif error == "unknown key":
            tokens.insert(draw(st.integers(0, len(tokens))), "gpu=1")
            message = "unknown key 'gpu'"
        elif error == "duplicate domain":
            tokens.append(f"{keys[-1]}=1")
            message = f"duplicate domain {keys[-1]!r}"
        elif error == "zero duration":
            lead, message = "duration_ns=0", "segment duration must be positive"
        elif error == "bad duration":
            lead, message = "duration_ns=1.5", "bad integer for duration_ns: '1.5'"
        elif error == "no power":
            tokens, message = [], "segment defines no domain power"
        line_no = add(" ".join([lead, *tokens]))
        if message is not None:
            errors.append((line_no, message))
        segments.append((duration, powers))
    return "\n".join(lines) + "\n", min(errors, default=None), header, segments


@settings(max_examples=300, deadline=None)
@given(case=scenario_texts())
def test_loader_on_generated_scenarios(tmp_path_factory, case):
    text, first_error, header, segments = case
    path = tmp_path_factory.mktemp("scenario") / "s.txt"
    path.write_text(text)
    if first_error is not None:
        line_no, message = first_error
        with pytest.raises(MalformedScenario) as failure:
            load_scenario(path)
        assert (failure.value.line_no, str(failure.value)) == (line_no, f"line {line_no}: {message}")
        return
    scenario = load_scenario(path)
    assert (scenario.update_interval_ns, scenario.max_range_uj) == (
        header["update_interval_ns"], header["max_range_uj"])
    assert scenario.durations_ns == tuple(duration for duration, _ in segments)
    domains = {key for _, powers in segments for key in powers}
    assert set(scenario.powers_uw) == {_SCENARIO_KEYS[key] for key in domains}
    for key in domains:
        assert scenario.powers_uw[_SCENARIO_KEYS[key]] == tuple(
            int(Decimal(powers[key]) * 10**6) if key in powers else 0 for _, powers in segments
        )


def test_undecodable_scenario_names_the_line_of_its_first_bad_byte(tmp_path):
    path = tmp_path / "s.txt"
    for ending in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(ending.join([
            b"update_interval_ns=1000000 max_range_uj=1000000000", b"", b"duration_ns=1000 package=1\xff", b"",
        ]))
        with pytest.raises(MalformedScenario, match="^line 3: not UTF-8 text: invalid start byte at byte "):
            load_scenario(path)


# --------------------------------------------------------------------------
# The columnar read of uniform scenario files
# --------------------------------------------------------------------------


def _watts_of_width(draw, width: int, zfill: int) -> str:
    """Plain-digit watts, zero-filled to ``zfill`` whole digits: no point
    for a width of -1, else a point and ``width`` decimals."""
    whole = str(draw(st.integers(0, 999_999))).zfill(zfill)
    return whole if width < 0 else whole + "." + draw(st.text("0123456789", min_size=width, max_size=width))


@st.composite
def uniform_scenario_texts(draw):
    """Scenario text whose segment lines list the same domains in one order,
    each domain with one decimal width (none, or 0 to 24 decimals) and up
    to seven whole digits, with tabs, blank lines, comments, leading zeros
    and huge durations; and what loading it must give: ``(line_no,
    message)`` of its one injected error, or ``None``, then the header and
    each segment's duration and power texts.

    Half of the texts get one error: a bad value, one above the power bound,
    a duplicate or unknown key in one row or in every row from there on, a
    zero duration, one with more digits than ``int()`` reads, a token that
    is not key=value, or a header line after a segment.
    """
    header = {"update_interval_ns": draw(st.integers(1, 10**7)), "max_range_uj": draw(st.integers(1, 10**13))}
    header_rows = [[f"{k}={v}" for k, v in header.items()]]
    if draw(st.booleans()):
        header_rows = [[token] for token in header_rows[0]]
    keys = draw(st.lists(st.sampled_from(sorted(_SCENARIO_KEYS)), min_size=1, max_size=5, unique=True))
    # A few columns are too wide for the columnar read: 23 or 24 decimals,
    # or seven whole digits.
    widths = [draw(st.integers(-1, 22) if draw(st.integers(0, 19)) else st.integers(23, 24)) for _ in keys]
    zfills = [draw(st.sampled_from([0, 6] * 19 + [7])) for _ in keys]
    segments, rows = [], []
    for _ in range(draw(st.integers(1, 10))):
        duration = draw(st.one_of(st.integers(1, 10**7), st.integers(1, 10**40)))
        powers = {key: _watts_of_width(draw, width, zfill) for key, width, zfill in zip(keys, widths, zfills)}
        segments.append((duration, powers))
        lead = f"duration_ns={'0' * draw(st.integers(0, 2))}{duration}"
        rows.append([lead, *(f"{key}={value}" for key, value in powers.items())])

    error = draw(st.sampled_from([
        "bad value", "above bound", "duplicate key", "unknown key", "zero duration", "long duration",
        "not a pair", "header after",
    ])) if draw(st.booleans()) else None
    at = draw(st.integers(0, len(rows) - 1))
    column = draw(st.integers(1, len(keys)))
    key, every = keys[column - 1], draw(st.booleans())
    first, message = at, None
    if error == "bad value":
        bad = draw(st.sampled_from(sorted(_BAD_POWERS)))
        rows[at][column], message = f"{key}={bad}", _BAD_POWERS[bad]
    elif error == "above bound":
        value = "1000001" + ("" if widths[column - 1] < 0 else "." + "0" * widths[column - 1])
        rows[at][column], message = f"{key}={value}", f"power above 1000000 W: {value!r}"
    elif error == "duplicate key":
        for row in rows[at:] if every else [rows[at]]:
            row.append(f"{keys[-1]}=1")
        message = f"duplicate domain {keys[-1]!r}"
    elif error == "unknown key":
        for row in rows[at:] if every else [rows[at]]:
            row[column] = "gpu=1"
        message = "unknown key 'gpu'"
    elif error == "zero duration":
        rows[at][0], message = "duration_ns=000", "segment duration must be positive"
    elif error == "long duration":
        digits = "1" * 5000
        rows[at][0], message = f"duration_ns={digits}", f"bad integer for duration_ns: {digits!r}"
    elif error == "not a pair":
        rows[at][column], message = keys[0], f"expected key=value, got {keys[0]!r}"
    elif error == "header after":
        first, message = at + 1, "header line after first segment"
        rows.insert(first, ["max_range_uj=7", *rows[at][1:]][: draw(st.integers(1, len(keys) + 1))])

    lines: list[str] = []
    first_error = None
    for index, row in enumerate([*header_rows, *rows]):
        while draw(st.integers(0, 3)) == 3:
            lines.append(draw(st.sampled_from(["", " \t", "# a comment", "\t# key=value here"])))
        lines.append(
            draw(st.sampled_from(["", "  ", "\t"])) + draw(st.sampled_from([" ", "\t", " \t "])).join(row)
            + draw(st.sampled_from(["", "", "  # trailing note", "\t#x=1"]))
        )
        if message is not None and index == len(header_rows) + first:
            first_error = (len(lines), message)
    return "\n".join(lines) + "\n", first_error, header, segments


@contextlib.contextmanager
def token_loop_segments():
    """A list of how many segments each call of the token loop read while
    the block ran."""
    counts: list[int] = []
    read_tokens = probe_module._read_tokens

    def counting(rows):
        header, durations_ns, powers_uw = read_tokens(rows)
        counts.append(len(durations_ns))
        return header, durations_ns, powers_uw

    with mock.patch.object(probe_module, "_read_tokens", counting):
        yield counts


@settings(max_examples=300, deadline=None)
@given(case=uniform_scenario_texts())
def test_uniform_scenarios_load_as_the_token_loop_and_decimal_do(tmp_path_factory, case):
    """Errors are named by the token loop. An error-free file is read a
    column at a time unless a width exceeds 22 decimals or a whole part
    six digits, and loads as the previous parser and ``Decimal`` read it."""
    text, first_error, header, segments = case
    path = tmp_path_factory.mktemp("scenario") / "s.txt"
    path.write_text(text)
    if first_error is not None:
        line_no, message = first_error
        with pytest.raises(MalformedScenario) as failure:
            load_scenario(path)
        assert (failure.value.line_no, str(failure.value)) == (line_no, f"line {line_no}: {message}")
        return
    with token_loop_segments() as counts:
        scenario = load_scenario(path)
    columnar = all(
        len(whole) <= 6 and len(fraction) <= 22
        for _, powers in segments for whole, _, fraction in (value.partition(".") for value in powers.values())
    )
    assert sum(counts) == (0 if columnar else len(segments))
    assert_same_scenario(scenario, *previous_load(text))
    assert (scenario.update_interval_ns, scenario.max_range_uj) == (
        header["update_interval_ns"], header["max_range_uj"])
    assert scenario.durations_ns == tuple(duration for duration, _ in segments)
    keys = list(segments[0][1])
    assert list(scenario.powers_uw) == [_SCENARIO_KEYS[key] for key in keys]
    for key in keys:
        assert scenario.powers_uw[_SCENARIO_KEYS[key]] == tuple(
            int(Decimal(powers[key]) * 10**6) for _, powers in segments
        )


def _readme_scenarios() -> tuple[str, str]:
    """The README's quick-start scenario and the example of its "Scenario
    files" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"cat > scenario\.txt <<'EOF'\n(.*?)EOF\n", readme, re.S)
    example = re.search(r"## Scenario files.*?```\n(.*?)```", readme, re.S)
    return quick_start.group(1), example.group(1)


def test_uniform_files_never_enter_the_token_loop(tmp_path):
    # Shaped like perfbench's sim-trace: 1 ms segments, six decimals, three domains.
    rng = random.Random(24)
    sim_trace = "update_interval_ns=1000000 max_range_uj=262143328850\n" + "".join(
        f"duration_ns=1000000 package={rng.randrange(5, 30)}.{rng.randrange(10**6):06d} "
        f"core={rng.randrange(2, 20)}.{rng.randrange(10**6):06d} dram={rng.randrange(3)}.{rng.randrange(10**6):06d}\n"
        for _ in range(2000)
    )
    quick_start, omits_a_domain = _readme_scenarios()
    path = tmp_path / "s.txt"
    for text, segments_in_the_loop in ((sim_trace, 0), (quick_start, 0), (omits_a_domain, 2)):
        path.write_text(text)
        with token_loop_segments() as counts:
            scenario = load_scenario(path)
        assert sum(counts) == segments_in_the_loop
        assert_same_scenario(scenario, *previous_load(text))


# --------------------------------------------------------------------------
# Domain keys
# --------------------------------------------------------------------------


class TestDomainKeys:
    @pytest.mark.parametrize("kind", list(DomainKind))
    def test_every_spelling_of_a_domain_is_one_key(self, kind):
        built = EnergyDomain(kind, 1)
        spellings = [
            EnergyDomain.parse(f"{kind.value}:1"),
            copy.deepcopy(built),
            copy.copy(built),
            pickle.loads(pickle.dumps(built)),
        ]
        table = {built: "entry"}
        for domain in spellings:
            assert domain == built
            assert hash(domain) == hash(built)
            assert table[domain] == "entry"
        assert str(spellings[-1]) == f"{kind.value}:1"

    def test_parse_shares_one_instance_per_text(self):
        first = EnergyDomain.parse("dram:2")
        assert EnergyDomain.parse("dram:2") is first
        assert first == EnergyDomain(DomainKind.DRAM, 2)

    @pytest.mark.parametrize("text", ["gpu:0", "package:x", "package:-1", "package"])
    def test_bad_domain_text_raises_every_time(self, text):
        for _ in range(3):
            with pytest.raises(ValueError, match="not an energy domain"):
                EnergyDomain.parse(text)

    def test_hash_does_not_depend_on_the_hash_seed(self):
        domain = EnergyDomain(DomainKind.DRAM, 3)
        code = (
            "from manai.probe import DomainKind, EnergyDomain; "
            "print(hash(EnergyDomain(DomainKind.DRAM, 3)))"
        )
        for seed in ("1", "4242"):
            child = subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True, timeout=60,
            )
            assert int(child.stdout) == hash(domain)
