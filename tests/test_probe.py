"""Probe backends: powercap discovery, simulated counters, scenario parsing."""

from __future__ import annotations

import errno
import gc
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manai.clock import VirtualScheduler
from manai.errors import MalformedScenario, NoProbeAvailable, PermissionDenied, ReadFailed
from manai.probe import (
    DomainKind,
    EnergyDomain,
    ProbeBackend,
    RaplProbe,
    ScenarioSegment,
    SimulatedProbe,
    SimulationScenario,
    load_scenario,
)

from conftest import CORE, DRAM, PKG, make_powercap_tree, write_scenario


def constant_scenario(watts_uw: int, max_range_uj: int = 10**12, update_ns: int = 1_000_000):
    return SimulationScenario(
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
        assert reading.counters[PKG] == 1000
        assert reading.counters[CORE] == 500
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

    def test_constant_power_integral_at_two_seconds(self):
        # 10 W for 2 s = 20 J = 20,000,000 uJ, exact on the 1 ms grid.
        clock = VirtualScheduler()
        probe = SimulatedProbe(constant_scenario(10_000_000), clock=clock.now)
        clock.advance(2 * 10**9)
        assert probe.read().counters[PKG] == 20_000_000

    def test_counter_wraps_modulo_max_range(self):
        # 10 W for 6 s = 60 MJu, wraps at 50 MJu to 10 MJu.
        clock = VirtualScheduler()
        probe = SimulatedProbe(
            constant_scenario(10_000_000, max_range_uj=50_000_000), clock=clock.now
        )
        clock.advance(6 * 10**9)
        assert probe.read().counters[PKG] == 10_000_000

    def test_timestamps_strictly_increase(self):
        clock = VirtualScheduler()
        probe = SimulatedProbe(constant_scenario(1_000_000), clock=clock.now)
        first = probe.read()
        clock.advance(1)
        second = probe.read()
        assert second.timestamp_ns > first.timestamp_ns

    def test_deterministic_for_identical_clocks(self):
        scenario = constant_scenario(7_123_456)
        readings = []
        for _ in range(2):
            clock = VirtualScheduler()
            probe = SimulatedProbe(scenario, clock=clock.now)
            clock.advance(1_234_567_890)
            readings.append(probe.read().counters[PKG])
        assert readings[0] == readings[1]


def oracle_counter_uj(scenario: SimulationScenario, domain, elapsed_ns: int) -> int:
    """Independent per-tick accumulation of the scenario integral."""
    q = scenario.update_interval_ns
    total_fj = 0
    bounds = []
    cursor = 0
    for segment in scenario.segments:
        bounds.append((cursor, cursor + segment.duration_ns, segment.powers_uw.get(domain, 0)))
        cursor += segment.duration_ns
    tail_power = scenario.segments[-1].powers_uw.get(domain, 0)

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
    return SimulationScenario(
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
    """Up to 64 segments over two or three domains; DRAM skips some segments."""
    others = draw(st.sampled_from([(DRAM,), (CORE, DRAM)]))
    segments = []
    for _ in range(draw(st.integers(1, 64))):
        powers = {PKG: draw(st.integers(0, 50_000_000))}
        for domain in others:
            if domain is not DRAM or draw(st.booleans()):
                powers[domain] = draw(st.integers(0, 50_000_000))
        segments.append(ScenarioSegment(draw(st.integers(1, 10_000_000)), powers))
    return SimulationScenario(tuple(segments), max_range_uj=10**9, update_interval_ns=1_000_000)


@settings(max_examples=100, deadline=None)
@given(scenario=sparse_scenarios(), data=st.data())
def test_energy_fj_matches_linear_walk_at_segment_edges(scenario, data):
    ends = [0]
    for segment in scenario.segments:
        ends.append(ends[-1] + segment.duration_ns)
    edge = st.tuples(st.sampled_from(ends), st.sampled_from([-1, 0, 1])).map(sum)
    past_end = st.integers(1, 10**10).map(lambda extra: ends[-1] + extra)
    untils = data.draw(st.lists(st.one_of(edge, past_end), min_size=1, max_size=20))
    for domain in (PKG, CORE, DRAM):
        for until_ns in untils:
            expected = oracle_energy_fj(scenario.segments, domain, until_ns)
            assert scenario.energy_fj(domain, until_ns) == expected


class TestScenarioFile:
    def test_parse_round_trip(self, tmp_path):
        path = write_scenario(
            tmp_path / "s.txt",
            [(10**9, {"package": "5"})],
            max_range_uj=10**9,
            update_interval_ns=1_000_000,
        )
        scenario = load_scenario(path)
        assert scenario.total_duration_ns == 10**9
        assert scenario.update_interval_ns == 1_000_000
        assert scenario.max_range_uj == 10**9
        assert scenario.segments[0].powers_uw == {PKG: 5_000_000}

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
        assert scenario.segments[0].powers_uw[PKG] == 2_500_000

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
