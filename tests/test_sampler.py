"""Wrap correction, the sampling loop, sample columns, and baseline calibration."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manai.clock import DeadlineStop, VirtualScheduler
from manai.errors import InvalidConfig, ProbeLost, ReadFailed
from manai.probe import ProbeBackend, ProbeDescriptor, ProbeReading, SimulatedProbe
from manai.results import attribute
from manai.sampler import (
    BaselineProfile,
    EnergySample,
    SampleColumns,
    SamplerConfig,
    calibrate_baseline,
    check_calibration_window,
    sample_stream,
    wrap_delta,
)

from conftest import DRAM, PKG, ScenarioSegment, scenario_of

NS = 10**9
MS = 10**6


def constant_probe(watts: float, sched: VirtualScheduler, max_range_uj: int = 10**12,
                   update_ns: int = 1_000_000) -> SimulatedProbe:
    scenario = scenario_of(
        segments=(ScenarioSegment(3600 * NS, {PKG: round(watts * 1e6)}),),
        max_range_uj=max_range_uj,
        update_interval_ns=update_ns,
    )
    return SimulatedProbe(scenario, clock=sched.now)


class TestWrapDelta:
    def test_no_wrap(self):
        assert wrap_delta(100, 350, 1000) == 250

    def test_single_wrap(self):
        assert wrap_delta(900, 150, 1000) == 250

    def test_exhaustive_against_step_oracle(self):
        # Oracle: tick the counter forward one unit at a time until it
        # reaches `after`; the number of steps is the consumed energy.
        max_range = 16

        def oracle(before, after):
            steps, value = 0, before
            while value != after:
                value = (value + 1) % max_range
                steps += 1
            return steps

        for before in range(max_range):
            for after in range(max_range):
                assert wrap_delta(before, after, max_range) == oracle(before, after)

    @given(st.integers(0, 10**6 - 1))
    def test_identical_values_mean_zero(self, value):
        assert wrap_delta(value, value, 10**6) == 0

    @given(
        before=st.integers(0, 999),
        after=st.integers(0, 999),
    )
    def test_result_always_inside_range(self, before, after):
        assert 0 <= wrap_delta(before, after, 1000) < 1000

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            wrap_delta(1000, 0, 1000)
        with pytest.raises(ValueError):
            wrap_delta(0, -1, 1000)


class TestSampleStream:
    def test_constant_ten_watts_at_ten_hertz(self):
        sched = VirtualScheduler()
        probe = constant_probe(10.0, sched)
        stop = DeadlineStop(sched.now, 1 * NS)
        samples = sample_stream(probe, SamplerConfig(rate_hz=10.0), stop, sched)
        assert len(samples) == 10
        for sample in samples:
            assert sample.energy_uj[PKG] == 1_000_000

    def test_samples_are_adjacent_and_ordered(self):
        sched = VirtualScheduler()
        probe = constant_probe(3.0, sched)
        stop = DeadlineStop(sched.now, NS)
        samples = sample_stream(probe, SamplerConfig(rate_hz=7.0), stop, sched)
        for left, right in zip(samples, samples[1:]):
            assert left.end_ns == right.start_ns

    def test_stream_crosses_counter_wrap(self):
        # 10 W against a 600 J range: the counter wraps at t=60 s; every
        # 0.5 s sample still carries exactly 5 J.
        sched = VirtualScheduler()
        probe = constant_probe(10.0, sched, max_range_uj=600_000_000)
        stop = DeadlineStop(sched.now, 61 * NS)
        samples = sample_stream(probe, SamplerConfig(rate_hz=2.0), stop, sched)
        assert len(samples) == 122
        assert all(s.energy_uj[PKG] == 5_000_000 for s in samples)

    def test_baseline_cancels_equal_power_exactly(self):
        sched = VirtualScheduler()
        probe = constant_probe(10.0, sched)
        stop = DeadlineStop(sched.now, NS)
        config = SamplerConfig(rate_hz=10.0, baseline_w={PKG: 10.0})
        samples = sample_stream(probe, config, stop, sched)
        assert samples
        assert all(s.energy_uj[PKG] == 0 for s in samples)

    def test_baseline_never_yields_negative_energy(self):
        sched = VirtualScheduler()
        probe = constant_probe(1.0, sched)
        stop = DeadlineStop(sched.now, NS)
        config = SamplerConfig(rate_hz=10.0, baseline_w={PKG: 50.0})
        samples = sample_stream(probe, config, stop, sched)
        assert all(s.energy_uj[PKG] == 0 for s in samples)

    def test_stop_before_first_interval_is_empty(self):
        sched = VirtualScheduler()
        probe = constant_probe(10.0, sched)
        stop = DeadlineStop(sched.now, 0)
        assert sample_stream(probe, SamplerConfig(rate_hz=10.0), stop, sched) == SampleColumns()

    def test_slow_rate_rejected_when_wrap_ambiguous(self):
        # 1 J range at up to 1 kW wraps within 1 ms; a 1 Hz poll cannot
        # tell one wrap from many.
        sched = VirtualScheduler()
        probe = constant_probe(0.5, sched, max_range_uj=1_000_000)
        stop = DeadlineStop(sched.now, NS)
        with pytest.raises(InvalidConfig):
            sample_stream(probe, SamplerConfig(rate_hz=1.0), stop, sched)

    def test_probe_failure_mid_stream_is_probe_lost(self):
        sched = VirtualScheduler()
        inner = constant_probe(10.0, sched)

        class FlakyProbe:
            def __init__(self):
                self.reads = 0

            def describe(self):
                return inner.describe()

            def read(self):
                self.reads += 1
                if self.reads > 4:
                    raise ReadFailed(PKG, "counter vanished")
                return inner.read()

        stop = DeadlineStop(sched.now, 10 * NS)
        with pytest.raises(ProbeLost):
            sample_stream(FlakyProbe(), SamplerConfig(rate_hz=10.0), stop, sched)


@st.composite
def stream_cases(draw):
    segments = tuple(
        ScenarioSegment(
            duration_ns=draw(st.integers(50_000_000, 800_000_000)),
            powers_uw={PKG: draw(st.integers(0, 40_000_000))},
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    scenario = scenario_of(
        segments=segments,
        max_range_uj=10**12,  # large enough that the run never wraps fully
        update_interval_ns=draw(st.sampled_from([500_000, 1_000_000])),
    )
    rate_hz = draw(st.sampled_from([5.0, 10.0, 50.0]))
    run_ns = draw(st.integers(100_000_000, 2_000_000_000))
    return scenario, rate_hz, run_ns


@settings(max_examples=40, deadline=None)
@given(case=stream_cases())
def test_sample_energies_telescope_to_endpoint_delta(case):
    # Total of interval deltas must equal the wrap-corrected delta between
    # the first and last counter values, exactly, per domain.
    scenario, rate_hz, run_ns = case
    sched = VirtualScheduler()
    probe = SimulatedProbe(scenario, clock=sched.now)
    stop = DeadlineStop(sched.now, run_ns)
    samples = sample_stream(probe, SamplerConfig(rate_hz=rate_hz), stop, sched)
    if not samples:
        return
    first_counter = scenario.counter_uj(PKG, samples[0].start_ns)
    last_counter = scenario.counter_uj(PKG, samples[-1].end_ns)
    total_uj = sum(s.energy_uj[PKG] for s in samples)
    assert total_uj == wrap_delta(first_counter, last_counter, scenario.max_range_uj)


class TestSamplerConfig:
    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf"), 2e9, 1e12, 5e-324])
    def test_rate_without_a_nanosecond_interval_rejected(self, rate):
        with pytest.raises(ValueError):
            SamplerConfig(rate)

    def test_fastest_rate_samples_every_nanosecond(self):
        assert SamplerConfig(1.9e9).interval_ns == 1


class TestCalibrateBaseline:
    def test_constant_three_watts(self):
        sched = VirtualScheduler()
        probe = constant_probe(3.0, sched)
        profile = calibrate_baseline(probe, 2.0, sched)
        assert profile.powers_w[PKG] == pytest.approx(3.0, abs=0.01)
        assert profile.duration_s == pytest.approx(2.0, abs=0.2)

    def test_zero_power_scenario(self):
        sched = VirtualScheduler()
        probe = constant_probe(0.0, sched)
        profile = calibrate_baseline(probe, 1.5, sched)
        assert profile.powers_w[PKG] == 0.0

    @pytest.mark.parametrize("duration_s", [0.0, 0.999, float("nan"), float("inf")])
    def test_window_not_finite_or_below_1_s_rejected(self, duration_s):
        sched = VirtualScheduler()
        probe = constant_probe(3.0, sched)
        with pytest.raises(InvalidConfig, match="finite window of at least 1 s"):
            calibrate_baseline(probe, duration_s, sched)
        assert sched.now() == 0

    def test_window_above_an_hour_rejected(self):
        sched = VirtualScheduler()
        probe = constant_probe(3.0, sched)
        check_calibration_window(3600.0)
        with pytest.raises(InvalidConfig, match=r"window must be at most 3600 s, got 3600\.5"):
            calibrate_baseline(probe, 3600.5, sched)
        assert sched.now() == 0

    @pytest.mark.parametrize("powers_w, duration_s", [
        ({PKG: float("nan")}, 2.0),
        ({PKG: float("inf")}, 2.0),
        ({PKG: -1.0}, 2.0),
        ({PKG: 1.0}, float("nan")),
        ({PKG: 1.0}, float("inf")),
        ({PKG: 1.0}, 0.5),
    ])
    def test_profile_rejects_non_finite_or_out_of_range_values(self, powers_w, duration_s):
        with pytest.raises(ValueError):
            BaselineProfile(powers_w=powers_w, duration_s=duration_s, calibrated_at="t")


class TestSampleColumns:
    def test_views_round_trip(self):
        samples = [
            EnergySample(0, MS, {PKG: 5, DRAM: 0}),
            EnergySample(MS, 3 * MS, {PKG: 7}),
            EnergySample(4 * MS, 5 * MS, {}),
        ]
        columns = SampleColumns.of(samples)
        assert columns.energy_uj == {PKG: (5, 7, None), DRAM: (0, None, None)}
        assert list(columns) == samples
        assert columns[1] == samples[1]
        assert columns[-1] == samples[-1]
        assert columns[1:] == SampleColumns.of(samples[1:])
        assert SampleColumns.of(columns) is columns

    def test_a_domain_no_sample_holds_has_no_column(self):
        columns = SampleColumns([0, MS], [MS, 2 * MS], {PKG: [1, 2], DRAM: [None, None]})
        assert columns.energy_uj == {PKG: (1, 2)}
        assert columns == SampleColumns((0, MS), (MS, 2 * MS), {PKG: (1, 2)})

    def test_rebased_shifts_edges_only(self):
        columns = SampleColumns([5, 7], [7, 9], {PKG: [1, 2]})
        assert columns.rebased(5) == SampleColumns([0, 2], [2, 4], {PKG: [1, 2]})
        assert columns.rebased(0) == columns

    @pytest.mark.parametrize("starts, ends, energy, message", [
        ([0], [1, 2], {}, "one entry per sample"),
        ([0], [1], {PKG: [1, 2]}, "one entry per sample"),
        ([0, 1], [1, 1], {}, "end must be after its start"),
        ([0, 1], [2, 3], {}, "ordered"),
        ([0, 1], [1, 2], {PKG: [None, -1]}, "non-negative"),
    ])
    def test_checks_every_column(self, starts, ends, energy, message):
        with pytest.raises(ValueError, match=message):
            SampleColumns(starts, ends, energy)


# --------------------------------------------------------------------------
# The columnar flow against the per-sample code it replaced
# --------------------------------------------------------------------------


def previous_attribute(samples, begin_ns, end_ns):
    """The per-sample ``results.attribute`` that columns replaced, kept as an oracle."""
    interior_uj = {}
    boundary_uj = {}
    for sample in samples:
        if begin_ns <= sample.start_ns and sample.end_ns <= end_ns:
            for domain, energy_uj in sample.energy_uj.items():
                interior_uj[domain] = interior_uj.get(domain, 0) + energy_uj
            continue
        for domain in sample.energy_uj:
            interior_uj.setdefault(domain, 0)
        overlap_ns = min(end_ns, sample.end_ns) - max(begin_ns, sample.start_ns)
        if overlap_ns <= 0:
            continue
        for domain, energy_uj in sample.energy_uj.items():
            share = Fraction(energy_uj * overlap_ns, sample.duration_ns)
            boundary_uj[domain] = boundary_uj.get(domain, 0) + share
    return {
        domain: Fraction(energy_uj + boundary_uj.get(domain, 0), 10**6)
        for domain, energy_uj in interior_uj.items()
    }


@st.composite
def stretched_samples(draw):
    """Stretches of adjacent samples with gaps between them; a sample may
    lack a domain, and energies are often 0."""
    samples = []
    cursor = draw(st.integers(0, 50))
    for _ in range(draw(st.integers(0, 4))):
        cursor += draw(st.integers(1, 400))
        for _ in range(draw(st.integers(1, 6))):
            length = draw(st.integers(1, 300))
            domains = draw(st.sets(st.sampled_from([PKG, DRAM])))
            energy = {d: draw(st.sampled_from([0, 0, 1]) | st.integers(0, 10**9)) for d in domains}
            samples.append(EnergySample(cursor, cursor + length, energy))
            cursor += length
    return samples


@settings(max_examples=500, deadline=None)
@given(samples=stretched_samples(), data=st.data())
def test_columnar_attribution_equals_per_sample_attribution(samples, data):
    # Windows on sample edges, inside samples and wholly outside the samples.
    last_ns = samples[-1].end_ns if samples else 100
    edges = sorted({s.start_ns for s in samples} | {s.end_ns for s in samples})
    begin_ns = data.draw(st.integers(-50, last_ns + 50) | st.sampled_from(edges or [0]))
    end_ns = data.draw(
        st.integers(begin_ns + 1, last_ns + 100)
        | st.sampled_from([e for e in edges if e > begin_ns] or [begin_ns + 1])
    )
    got = attribute(SampleColumns.of(samples), begin_ns, end_ns)
    expected = previous_attribute(samples, begin_ns, end_ns)
    assert got == expected
    assert all(type(value) is Fraction for value in got.values())


def _previous_make_sample(previous, current, domains, max_range_uj, baseline_w):
    """The parent's ``sampler._make_sample``, over tuple counters."""
    duration_ns = current.timestamp_ns - previous.timestamp_ns
    if duration_ns <= 0:
        return None
    energy_uj = {}
    for domain, before, after in zip(domains, previous.counters, current.counters):
        delta = wrap_delta(before, after, max_range_uj[domain])
        if baseline_w is not None:
            baseline_uj = round(baseline_w.get(domain, 0.0) * duration_ns / 1000.0)
            delta = max(0, delta - baseline_uj)
        energy_uj[domain] = delta
    return EnergySample(previous.timestamp_ns, current.timestamp_ns, energy_uj)


def previous_sample_stream(probe, config, stop, sched):
    """The per-sample sampling loop that columns replaced, kept as an oracle."""
    interval_ns = config.interval_ns
    descriptor = probe.describe()
    make = lambda a, b: _previous_make_sample(  # noqa: E731
        a, b, descriptor.domains, descriptor.max_range_uj, config.baseline_w
    )
    samples = []
    try:
        previous = probe.read()
    except ReadFailed as exc:
        raise ProbeLost(f"probe failed at session start: {exc}") from exc
    origin_ns = previous.timestamp_ns
    tick = 1
    try:
        while not stop.is_set():
            deadline_ns = origin_ns + tick * interval_ns
            sched.sleep_until(deadline_ns, stop)
            if sched.now() < deadline_ns:
                break
            current = probe.read()
            sample = make(previous, current)
            if sample is not None:
                samples.append(sample)
                previous = current
            tick += 1
        if tick > 1:
            sample = make(previous, probe.read())
            if sample is not None:
                samples.append(sample)
    except ReadFailed as exc:
        raise ProbeLost(f"probe lost mid-stream: {exc}") from exc
    return samples


class ScriptedProbe:
    """Replays scripted readings and may fail at one read.

    Timestamps are scripted too, so they may repeat or step back.
    """

    RANGES = {PKG: 10**9, DRAM: 7 * 10**8}

    def __init__(self, readings, fail_at=None):
        self._readings = readings
        self._fail_at = fail_at
        self.reads = 0

    def describe(self):
        return ProbeDescriptor(ProbeBackend.SIMULATED, (PKG, DRAM), MS, self.RANGES)

    def read(self):
        index, self.reads = self.reads, self.reads + 1
        if index == self._fail_at:
            raise ReadFailed(DRAM, f"scripted failure at read {index}")
        return self._readings[index % len(self._readings)]


class TripAfter:
    """A stop signal that is set from its ``calls``-th check on."""

    def __init__(self, calls):
        self._left = calls

    def is_set(self):
        self._left -= 1
        return self._left < 0


class WakingScheduler(VirtualScheduler):
    """Wakes halfway to the deadline once the stop signal is set, as the
    real scheduler may wake before a deadline."""

    def sleep_until(self, deadline_ns, stop=None):
        if stop is not None and stop.is_set():
            self.advance(max(0, deadline_ns - self.now()) // 2)
        else:
            super().sleep_until(deadline_ns, stop)


@st.composite
def scripted_streams(draw):
    count = draw(st.integers(1, 30))
    steps = draw(st.lists(st.sampled_from([0, 0, -3, 1, 2, 1000, MS]), min_size=count, max_size=count))
    timestamps, now = [], draw(st.integers(0, 10**6))
    for step in steps:
        now += step
        timestamps.append(now)
    # Arbitrary counters in range: a pair wraps whenever its value falls.
    readings = [
        ProbeReading(t, tuple(draw(st.integers(0, r - 1)) for r in ScriptedProbe.RANGES.values()))
        for t in timestamps
    ]
    # Up to 1e5 W takes 0 to 1e8 uJ off a 1 ms sample, so some clamp to 0.
    baseline_w = draw(st.none() | st.fixed_dictionaries({PKG: st.floats(0, 1e5)}))
    fail_at = draw(st.none() | st.integers(0, count + 2))
    stop_checks = draw(st.integers(0, 60))
    waking = draw(st.booleans())
    return readings, baseline_w, fail_at, stop_checks, waking


@settings(max_examples=400, deadline=None)
@given(case=scripted_streams())
def test_columnar_stream_equals_per_sample_stream(case):
    # Counters that wrap, repeated and backward timestamps, a clamping
    # baseline, stop signals that wake the scheduler early and failures.
    readings, baseline_w, fail_at, stop_checks, waking = case
    config = SamplerConfig(rate_hz=1000.0, baseline_w=baseline_w)
    outcomes = []
    for stream in (sample_stream, previous_sample_stream):
        sched = WakingScheduler() if waking else VirtualScheduler()
        probe = ScriptedProbe(readings, fail_at)
        try:
            outcomes.append((list(stream(probe, config, TripAfter(stop_checks), sched)), probe.reads))
        except ProbeLost as exc:
            outcomes.append((str(exc), probe.reads))
    assert outcomes[0] == outcomes[1]


class TestReadContract:
    """Per-stream read counts and times: one opening read, one read per
    tick and one closing read, each tick on its deadline."""

    @pytest.mark.parametrize("run_ns, ticks", [(0, 0), (1, 1), (10 * MS, 10), (10 * MS + 1, 11)])
    def test_one_read_per_tick(self, run_ns, ticks):
        sched = VirtualScheduler()
        probe = constant_probe(5.0, sched)
        stamps = []
        read = probe.read

        def counted_read():
            reading = read()
            stamps.append(reading.timestamp_ns)
            return reading

        probe.read = counted_read
        sample_stream(probe, SamplerConfig(rate_hz=1000.0), DeadlineStop(sched.now, run_ns), sched)
        assert len(stamps) == (ticks + 2 if ticks else 1)
        assert stamps[1:ticks + 1] == [k * MS for k in range(1, ticks + 1)]

    def test_reads_that_do_not_advance_still_count(self):
        reading = ProbeReading(5, (1, 1))
        probe = ScriptedProbe([reading])
        sched = VirtualScheduler()
        samples = sample_stream(probe, SamplerConfig(rate_hz=1000.0), DeadlineStop(sched.now, 3 * MS), sched)
        assert probe.reads == 5
        assert len(samples) == 0
