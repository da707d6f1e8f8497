"""Wrap correction, the sampling loop, sample columns, baseline calibration
and baseline subtraction."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manai.clock import DeadlineStop, VirtualScheduler
from manai.errors import InvalidConfig, ProbeLost, ReadFailed
from manai.harness import TestId, TestStatus
from manai.probe import (
    MAX_PLAUSIBLE_POWER_W,
    ProbeBackend,
    ProbeDescriptor,
    ProbeReading,
    SimulatedProbe,
)
from manai.results import TestExecutionResult, attribute
from manai.sampler import (
    BaselineProfile,
    EnergySample,
    SampleColumns,
    SamplerConfig,
    _calibration_interval_ns,
    _check_single_wrap,
    _columns,
    calibrate_baseline,
    check_calibration_window,
    sample_stream,
)

from conftest import DRAM, PKG, ScenarioSegment, baseline_cases, scenario_of

NS = 10**9
MS = 10**6


def constant_probe(watts: float, max_range_uj: int = 10**12,
                   update_ns: int = 1_000_000) -> SimulatedProbe:
    scenario = scenario_of(
        segments=(ScenarioSegment(3600 * NS, {PKG: round(watts * 1e6)}),),
        max_range_uj=max_range_uj,
        update_interval_ns=update_ns,
    )
    return SimulatedProbe(scenario)


def wrapped_delta(before_uj: int, after_uj: int, max_range_uj: int) -> int:
    """The sample ``sampler._columns`` builds between two readings of one domain."""
    descriptor = ProbeDescriptor(
        ProbeBackend.SIMULATED, (PKG,), MS, {PKG: max_range_uj}, {PKG: MAX_PLAUSIBLE_POWER_W}
    )
    samples = _columns([ProbeReading(0, (before_uj,)), ProbeReading(1, (after_uj,))], descriptor)
    return samples.energy_uj[PKG][0]


class TestWrapCorrection:
    def test_no_wrap(self):
        assert wrapped_delta(100, 350, 1000) == 250

    def test_single_wrap(self):
        assert wrapped_delta(900, 150, 1000) == 250

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
                assert wrapped_delta(before, after, max_range) == oracle(before, after)

    @given(st.integers(0, 10**6 - 1))
    def test_identical_values_mean_zero(self, value):
        assert wrapped_delta(value, value, 10**6) == 0

    @given(
        before=st.integers(0, 999),
        after=st.integers(0, 999),
    )
    def test_result_always_inside_range(self, before, after):
        assert 0 <= wrapped_delta(before, after, 1000) < 1000

    def test_simulated_counters_stay_inside_range(self):
        # Wrap correction takes counters in [0, max_range); a simulated probe
        # keeps them there however often the counter wraps (live reads
        # refuse a counter outside it, see test_probe).
        probe = constant_probe(7.0, max_range_uj=1000, update_ns=1000)
        counters = []
        while probe.scheduler.now() < 5 * MS:
            counters.append(probe.read().counters[0])
            probe.scheduler.advance(37_000)
        assert len(set(counters)) > 100
        assert all(0 <= c < 1000 for c in counters)


class TestSampleStream:
    def test_constant_ten_watts_at_ten_hertz(self):
        probe = constant_probe(10.0)
        sched = probe.scheduler
        stop = DeadlineStop(sched.now, 1 * NS)
        samples = sample_stream(probe, SamplerConfig(rate_hz=10.0), stop)
        assert len(samples) == 10
        for sample in samples:
            assert sample.energy_uj[PKG] == 1_000_000

    def test_samples_are_adjacent_and_ordered(self):
        probe = constant_probe(3.0)
        sched = probe.scheduler
        stop = DeadlineStop(sched.now, NS)
        samples = sample_stream(probe, SamplerConfig(rate_hz=7.0), stop)
        for left, right in zip(samples, samples[1:]):
            assert left.end_ns == right.start_ns

    def test_stream_crosses_counter_wrap(self):
        # 10 W against a 600 J range: the counter wraps at t=60 s; every
        # 0.5 s sample still carries exactly 5 J.
        probe = constant_probe(10.0, max_range_uj=600_000_000)
        sched = probe.scheduler
        stop = DeadlineStop(sched.now, 61 * NS)
        samples = sample_stream(probe, SamplerConfig(rate_hz=2.0), stop)
        assert len(samples) == 122
        assert all(s.energy_uj[PKG] == 5_000_000 for s in samples)

    def test_stop_before_first_interval_is_empty(self):
        probe = constant_probe(10.0)
        sched = probe.scheduler
        stop = DeadlineStop(sched.now, 0)
        assert sample_stream(probe, SamplerConfig(rate_hz=10.0), stop) == SampleColumns()

    def test_slow_rate_rejected_when_wrap_ambiguous(self):
        # 1 J range at 2 W wraps within 0.5 s; a 1 Hz poll cannot tell
        # one wrap from many.
        probe = constant_probe(2.0, max_range_uj=1_000_000)
        sched = probe.scheduler
        stop = DeadlineStop(sched.now, NS)
        with pytest.raises(InvalidConfig):
            sample_stream(probe, SamplerConfig(rate_hz=1.0), stop)

    def test_rate_rejected_when_the_scenario_peak_wraps_within_a_tick(self):
        # 20 kW against a 10 J range wraps twice per 1 ms tick, so every
        # sample would read 0 J; the check uses the scenario's own peak.
        # The range fills within one refresh, so no rate can help.
        probe = constant_probe(20_000.0, max_range_uj=10**7)
        stop = DeadlineStop(probe.scheduler.now, 10 * MS)
        with pytest.raises(InvalidConfig, match="counter range is too small for the refresh interval"):
            sample_stream(probe, SamplerConfig(rate_hz=1000.0), stop)

    @pytest.mark.parametrize("rate_hz", [1.0, 1.0005])
    def test_rate_rejected_when_a_reading_pair_could_span_the_full_range(self, rate_hz):
        # 1 W against a 1 J range: the counter moves on the 1 ms refresh
        # grid, so two readings about 1 s apart can span 1000 ms of energy,
        # a full range that reads as 0 J.
        probe = constant_probe(1.0, max_range_uj=1_000_000)
        stop = DeadlineStop(probe.scheduler.now, 3 * NS)
        with pytest.raises(InvalidConfig, match="increase the sampling rate"):
            sample_stream(probe, SamplerConfig(rate_hz=rate_hz), stop)

    def test_rate_accepted_when_a_reading_pair_stays_below_the_range(self):
        # 1 W against a 0.6 J range at 2 Hz: a pair spans at most 501 ms,
        # 0.501 J, so every 0.5 s sample reads its 0.5 J across the wraps.
        probe = constant_probe(1.0, max_range_uj=600_000)
        stop = DeadlineStop(probe.scheduler.now, 3 * NS)
        samples = sample_stream(probe, SamplerConfig(rate_hz=2.0), stop)
        assert len(samples) == 6
        assert all(s.energy_uj[PKG] == 500_000 for s in samples)

    @pytest.mark.parametrize("interval_ns, shown", [(1, "1 ns"), (10_000, "10 us"), (MS, "1 ms")])
    def test_range_filled_within_one_refresh_is_refused_for_every_interval(self, interval_ns, shown):
        # 10 W fills a 10 mJ range in exactly one 1 ms refresh: even a 1 ns
        # interval could span a full wrap, so a faster rate is no advice.
        descriptor = constant_probe(10.0, max_range_uj=10_000).describe()
        with pytest.raises(InvalidConfig) as refusal:
            _check_single_wrap(descriptor, interval_ns)
        message = str(refusal.value)
        assert f"sampling interval {shown} plus one counter refresh (1 ms)" in message
        assert message.endswith("the counter range is too small for the refresh interval")
        assert "increase the sampling rate" not in message

    def test_range_filled_just_after_one_refresh_asks_for_a_faster_rate(self):
        # At 9 W the same range lasts 1.11 ms: a 10 us interval passes, so
        # a 1 ms interval is refused with the advice to sample faster.
        descriptor = constant_probe(9.0, max_range_uj=10_000).describe()
        _check_single_wrap(descriptor, 10_000)
        with pytest.raises(InvalidConfig, match=r"interval 1 ms .*; increase the sampling rate$"):
            _check_single_wrap(descriptor, MS)

    def test_probe_failure_mid_stream_is_probe_lost(self):
        inner = constant_probe(10.0)
        sched = inner.scheduler

        class FlakyProbe:
            def __init__(self):
                self.reads = 0
                self.scheduler = sched

            def describe(self):
                return inner.describe()

            def read(self):
                self.reads += 1
                if self.reads > 4:
                    raise ReadFailed(PKG, "counter vanished")
                return inner.read()

        stop = DeadlineStop(sched.now, 10 * NS)
        with pytest.raises(ProbeLost):
            sample_stream(FlakyProbe(), SamplerConfig(rate_hz=10.0), stop)


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
    probe = SimulatedProbe(scenario)
    sched = probe.scheduler
    stop = DeadlineStop(sched.now, run_ns)
    samples = sample_stream(probe, SamplerConfig(rate_hz=rate_hz), stop)
    if not samples:
        return
    first_counter = scenario.counter_uj(PKG, samples[0].start_ns)
    last_counter = scenario.counter_uj(PKG, samples[-1].end_ns)
    total_uj = sum(s.energy_uj[PKG] for s in samples)
    assert total_uj == wrapped_delta(first_counter, last_counter, scenario.max_range_uj)


class TestSamplerConfig:
    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf"), 2e9, 1e12, 5e-324])
    def test_rate_without_a_nanosecond_interval_rejected(self, rate):
        with pytest.raises(ValueError):
            SamplerConfig(rate)

    def test_fastest_rate_samples_every_nanosecond(self):
        assert SamplerConfig(1.9e9).interval_ns == 1


class TestCalibrateBaseline:
    def test_constant_three_watts(self):
        probe = constant_probe(3.0)
        profile = calibrate_baseline(probe, 2.0)
        assert profile.powers_w[PKG] == pytest.approx(3.0, abs=0.01)
        assert profile.duration_s == pytest.approx(2.0, abs=0.2)

    def test_zero_power_scenario(self):
        probe = constant_probe(0.0)
        profile = calibrate_baseline(probe, 1.5)
        assert profile.powers_w[PKG] == 0.0

    @pytest.mark.parametrize("duration_s", [0.0, 0.999, float("nan"), float("inf")])
    def test_window_not_finite_or_below_1_s_rejected(self, duration_s):
        probe = constant_probe(3.0)
        sched = probe.scheduler
        with pytest.raises(InvalidConfig, match="finite window of at least 1 s"):
            calibrate_baseline(probe, duration_s)
        assert sched.now() == 0

    @pytest.mark.parametrize("update_ns, interval_ns", [
        (MS, 100 * MS),  # 100 ms when no counter wraps sooner
        (1_500_000, 99 * MS),  # rounded down to the refresh grid
    ])
    def test_polls_every_100_ms_on_the_refresh_grid(self, update_ns, interval_ns):
        probe = constant_probe(10.0, update_ns=update_ns)
        assert _calibration_interval_ns(probe.describe()) == interval_ns

    @pytest.mark.parametrize("max_range_uj, interval_ns", [
        (10**6, 98 * MS),  # 1 J at 10 W fills in 100 ms: a pair spans < 100 ms
        (20_000, MS - 1),  # a 2 ms horizon leaves no whole refresh interval
    ])
    def test_polls_at_the_longest_interval_the_wrap_check_accepts(self, max_range_uj, interval_ns):
        descriptor = constant_probe(10.0, max_range_uj=max_range_uj).describe()
        assert _calibration_interval_ns(descriptor) == interval_ns
        _check_single_wrap(descriptor, interval_ns)
        with pytest.raises(InvalidConfig):
            _check_single_wrap(descriptor, interval_ns + MS)

    def test_small_counter_range_calibrates_exactly(self):
        # A 100 ms poll could span a full 1 J wrap at 10 W; 98 ms polls on
        # the 1 ms grid read the mean exactly.
        probe = constant_probe(10.0, max_range_uj=10**6)
        profile = calibrate_baseline(probe, 2.0)
        assert profile.powers_w[PKG] == 10.0
        assert profile.duration_s == 2.058

    def test_range_no_interval_can_poll_is_refused(self):
        # 0.01 J at 10 W fills in 1 ms, within one counter refresh.
        probe = constant_probe(10.0, max_range_uj=10_000)
        with pytest.raises(InvalidConfig, match="could span a full wrap"):
            calibrate_baseline(probe, 2.0)

    def test_window_above_an_hour_rejected(self):
        probe = constant_probe(3.0)
        sched = probe.scheduler
        check_calibration_window(3600.0)
        with pytest.raises(InvalidConfig, match=r"window must be at most 3600 s, got 3600\.5"):
            calibrate_baseline(probe, 3600.5)
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


def _marginal(samples, end_ns, baseline_w, domains=(PKG,)):
    """The result of one window ``[0, end_ns]`` of ``samples`` less ``baseline_w``."""
    return TestExecutionResult.build(
        test=TestId("demo", "case"), iteration=0, samples=samples, begin_ns=0, end_ns=end_ns,
        status=TestStatus.PASS, update_interval_ns=MS, baseline_w=baseline_w, domains=domains,
    )


class TestBaselineSubtraction:
    """``TestExecutionResult.build`` takes the baseline off each window once;
    the samples hold raw counter deltas."""

    def test_baseline_cancels_equal_power_exactly(self):
        probe = constant_probe(10.0)
        samples = sample_stream(probe, SamplerConfig(rate_hz=10.0), DeadlineStop(probe.scheduler.now, NS))
        assert all(s.energy_uj[PKG] == 1_000_000 for s in samples)
        result = _marginal(samples, NS, {PKG: 10.0})
        assert result.baseline_applied
        assert result.energy_j[PKG] == result.mean_power_w[PKG] == 0.0

    def test_baseline_never_yields_negative_energy(self):
        probe = constant_probe(1.0)
        samples = sample_stream(probe, SamplerConfig(rate_hz=10.0), DeadlineStop(probe.scheduler.now, NS))
        assert _marginal(samples, NS, {PKG: 50.0}).energy_j[PKG] == 0.0

    def test_baseline_is_taken_off_the_window_exactly(self):
        # 3 J over 0.2 s of a 1 s sample, less 4 W * 0.2 s.
        sample = EnergySample(0, NS, {PKG: 15_000_000, DRAM: 1_000_000})
        result = _marginal([sample], NS // 5, {PKG: 4.0}, domains=(PKG, DRAM))
        assert result.energy_j == {PKG: 2.2, DRAM: 0.2}
        assert result.mean_power_w == {PKG: 11.0, DRAM: 1.0}

    def test_baseline_of_a_domain_without_energy_is_ignored(self):
        result = _marginal([EnergySample(0, NS, {PKG: 1_000_000})], NS, {PKG: 0.5, DRAM: 2.0})
        assert result.energy_j == {PKG: 0.5}

    def test_no_baseline_is_recorded_as_not_applied(self):
        result = _marginal([EnergySample(0, NS, {PKG: 1_000_000})], NS, None)
        assert not result.baseline_applied
        assert result.energy_j == {PKG: 1.0}


@settings(max_examples=150, deadline=None)
@given(case=baseline_cases())
# 10 W against a fixed 10 W baseline at 1 kHz for 1 s: the true marginal
# energy is 0 J. Reads off the 1.5 and 2.5 ms refresh grids hold 0 or 2
# refresh steps, which a per-sample subtraction clamped at 0 summed to
# 3.33 and 6.0 J.
@example(case=((ScenarioSegment(NS, {PKG: 10_000_000}),), 1_500_000, 1000.0, 1000, {PKG: 10.0}))
@example(case=((ScenarioSegment(NS, {PKG: 10_000_000}),), 2_500_000, 1000.0, 1000, {PKG: 10.0}))
def test_marginal_energy_within_one_refresh_step_of_the_true_marginal(case):
    # A simulated replay over a window that ends on a read, as a simulated
    # run replays one iteration, less the baseline once over the window.
    segments, update_ns, rate_hz, ticks, baseline_w = case
    scenario = scenario_of(segments, max_range_uj=10**12, update_interval_ns=update_ns)
    probe = SimulatedProbe(scenario)
    config = SamplerConfig(rate_hz)
    window_ns = ticks * config.interval_ns
    samples = sample_stream(probe, config, DeadlineStop(probe.scheduler.now, window_ns))
    result = _marginal(samples, window_ns, baseline_w, scenario.domains)
    window_s = Fraction(window_ns, NS)
    for domain in scenario.domains:
        true_j = Fraction(scenario.energy_fj(domain, window_ns), 10**15)
        expected_j = max(Fraction(0), true_j - Fraction(baseline_w.get(domain, 0.0)) * window_s)
        peak_w = Fraction(max(segment.powers_uw[domain] for segment in segments), 10**6)
        # One refresh step, plus the counter's 1 uJ resolution.
        step_j = peak_w * Fraction(update_ns, NS) + Fraction(1, 10**6)
        assert abs(Fraction(result.energy_j[domain]) - expected_j) <= step_j
        # Counters never run ahead of the true integral.
        if expected_j == 0:
            assert result.energy_j[domain] == 0.0


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
            share = Fraction(energy_uj * overlap_ns, sample.end_ns - sample.start_ns)
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


def _previous_make_sample(previous, current, domains, max_range_uj):
    """The per-sample ``sampler._make_sample`` that columns replaced, over tuple counters."""
    duration_ns = current.timestamp_ns - previous.timestamp_ns
    if duration_ns <= 0:
        return None
    energy_uj = {}
    for domain, before, after in zip(domains, previous.counters, current.counters):
        # Wrap correction by cases: a counter that went down wrapped once.
        energy_uj[domain] = after - before if after >= before else max_range_uj[domain] - before + after
    return EnergySample(previous.timestamp_ns, current.timestamp_ns, energy_uj)


def previous_sample_stream(probe, config, stop, sched):
    """The per-sample sampling loop that columns replaced, kept as an oracle."""
    interval_ns = config.interval_ns
    descriptor = probe.describe()
    make = lambda a, b: _previous_make_sample(  # noqa: E731
        a, b, descriptor.domains, descriptor.max_range_uj
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
    PEAKS = dict.fromkeys(RANGES, MAX_PLAUSIBLE_POWER_W)

    def __init__(self, readings, fail_at=None, scheduler=None):
        self._readings = readings
        self._fail_at = fail_at
        self.reads = 0
        self.scheduler = scheduler or VirtualScheduler()

    def describe(self):
        return ProbeDescriptor(ProbeBackend.SIMULATED, (PKG, DRAM), MS, self.RANGES, self.PEAKS)

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
    fail_at = draw(st.none() | st.integers(0, count + 2))
    stop_checks = draw(st.integers(0, 60))
    waking = draw(st.booleans())
    return readings, fail_at, stop_checks, waking


@settings(max_examples=400, deadline=None)
@given(case=scripted_streams())
def test_columnar_stream_equals_per_sample_stream(case):
    # Counters that wrap, repeated and backward timestamps, stop signals
    # that wake the scheduler early and failures.
    readings, fail_at, stop_checks, waking = case
    config = SamplerConfig(rate_hz=1000.0)
    outcomes = []
    for oracle in (False, True):
        sched = WakingScheduler() if waking else VirtualScheduler()
        probe = ScriptedProbe(readings, fail_at, sched)
        stop = TripAfter(stop_checks)
        try:
            if oracle:
                samples = previous_sample_stream(probe, config, stop, sched)
            else:
                samples = sample_stream(probe, config, stop)
            outcomes.append((list(samples), probe.reads))
        except ProbeLost as exc:
            outcomes.append((str(exc), probe.reads))
    assert outcomes[0] == outcomes[1]


class TestReadContract:
    """Per-stream read counts and times: one opening read, one read per
    tick and one closing read, each tick on its deadline."""

    @pytest.mark.parametrize("run_ns, ticks", [(0, 0), (1, 1), (10 * MS, 10), (10 * MS + 1, 11)])
    def test_one_read_per_tick(self, run_ns, ticks):
        probe = constant_probe(5.0)
        sched = probe.scheduler
        stamps = []
        read = probe.read

        def counted_read():
            reading = read()
            stamps.append(reading.timestamp_ns)
            return reading

        probe.read = counted_read
        sample_stream(probe, SamplerConfig(rate_hz=1000.0), DeadlineStop(sched.now, run_ns))
        assert len(stamps) == (ticks + 2 if ticks else 1)
        assert stamps[1:ticks + 1] == [k * MS for k in range(1, ticks + 1)]

    def test_reads_that_do_not_advance_still_count(self):
        reading = ProbeReading(5, (1, 1))
        probe = ScriptedProbe([reading])
        sched = probe.scheduler
        samples = sample_stream(probe, SamplerConfig(rate_hz=1000.0), DeadlineStop(sched.now, 3 * MS))
        assert probe.reads == 5
        assert len(samples) == 0
