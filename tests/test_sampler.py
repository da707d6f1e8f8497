"""Wrap correction, the sampling loop, sample columns, baseline calibration
and baseline subtraction."""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from manai.errors import InvalidConfig, ProbeLost, ReadFailed
from manai.harness import TestId, TestStatus
from manai.probe import (
    MAX_PLAUSIBLE_POWER_W,
    ProbeBackend,
    ProbeDescriptor,
    ProbeReading,
    RaplProbe,
    SimulatedProbe,
)
from manai.results import TestExecutionResult, attribute
from manai.sampler import (
    BaselineProfile,
    EnergySample,
    SampleColumns,
    SamplerConfig,
    _check_single_wrap,
    _columns,
    _wrap_guard_ns,
    calibrate_baseline,
    check_calibration_window,
    sample_stream,
)

from conftest import DRAM, PKG, ScenarioSegment, baseline_cases, make_powercap_tree, scenario_of

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


def recorded_reads(probe) -> list[int]:
    """The timestamps of every reading ``probe`` returns from now on."""
    stamps = []
    read = probe.read

    def recorded_read():
        reading = read()
        stamps.append(reading.timestamp_ns)
        return reading

    probe.read = recorded_read
    return stamps


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
        while probe.now_ns < 5 * MS:
            counters.append(probe.read().counters[0])
            probe.wait_until(probe.now_ns + 37_000)
        assert len(set(counters)) > 100
        assert all(0 <= c < 1000 for c in counters)


class TestSampleStream:
    def test_constant_ten_watts_at_ten_hertz(self):
        probe = constant_probe(10.0)
        samples = sample_stream(probe, SamplerConfig(rate_hz=10.0), 1 * NS)
        assert len(samples) == 10
        for sample in samples:
            assert sample.energy_uj[PKG] == 1_000_000

    def test_samples_are_adjacent_and_ordered(self):
        probe = constant_probe(3.0)
        samples = sample_stream(probe, SamplerConfig(rate_hz=7.0), NS)
        for left, right in zip(samples, samples[1:]):
            assert left.end_ns == right.start_ns

    def test_stream_crosses_counter_wrap(self):
        # 10 W against a 600 J range: the counter wraps at t=60 s; every
        # 0.5 s sample still carries exactly 5 J.
        probe = constant_probe(10.0, max_range_uj=600_000_000)
        samples = sample_stream(probe, SamplerConfig(rate_hz=2.0), 61 * NS)
        assert len(samples) == 122
        assert all(s.energy_uj[PKG] == 5_000_000 for s in samples)

    def test_end_at_the_first_reading_is_empty(self):
        probe = constant_probe(10.0)
        assert sample_stream(probe, SamplerConfig(rate_hz=10.0), 0) == SampleColumns()

    def test_slow_rate_rejected_when_wrap_ambiguous(self):
        # 1 J range at 2 W wraps within 0.5 s; a 1 Hz poll cannot tell
        # one wrap from many.
        probe = constant_probe(2.0, max_range_uj=1_000_000)
        with pytest.raises(InvalidConfig):
            sample_stream(probe, SamplerConfig(rate_hz=1.0), NS)

    def test_rate_rejected_when_the_scenario_peak_wraps_within_a_tick(self):
        # 20 kW against a 10 J range wraps twice per 1 ms tick, so every
        # sample would read 0 J; the check uses the scenario's own peak.
        # The range fills within one refresh, so no rate can help.
        probe = constant_probe(20_000.0, max_range_uj=10**7)
        with pytest.raises(InvalidConfig, match="counter range is too small for the refresh interval"):
            sample_stream(probe, SamplerConfig(rate_hz=1000.0), 10 * MS)

    @pytest.mark.parametrize("rate_hz", [1.0, 1.0005])
    def test_rate_rejected_when_a_reading_pair_could_span_the_full_range(self, rate_hz):
        # 1 W against a 1 J range: the counter moves on the 1 ms refresh
        # grid, so two readings about 1 s apart can span 1000 ms of energy,
        # a full range that reads as 0 J.
        probe = constant_probe(1.0, max_range_uj=1_000_000)
        with pytest.raises(InvalidConfig, match="increase the sampling rate"):
            sample_stream(probe, SamplerConfig(rate_hz=rate_hz), 3 * NS)

    def test_rate_accepted_when_a_reading_pair_stays_below_the_range(self):
        # 1 W against a 0.6 J range at 2 Hz: a pair spans at most 501 ms,
        # 0.501 J, so every 0.5 s sample reads its 0.5 J across the wraps.
        probe = constant_probe(1.0, max_range_uj=600_000)
        samples = sample_stream(probe, SamplerConfig(rate_hz=2.0), 3 * NS)
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

    def test_pair_holding_one_whole_range_is_refused(self):
        # 1.75 W adds 1.75 uJ per 1 us refresh. A 4 uJ counter of whole
        # microjoules reads 1 at 1 us and 5 mod 4 = 1 at 3 us: two readings
        # 1.285 us apart hold 3.5 uJ of refreshes, less than the range, yet
        # read one whole range, 0 J. Flooring can add 1 uJ, so the check
        # leaves the last microjoule of the range as margin.
        probe = constant_probe(1.75, max_range_uj=4, update_ns=1000)
        probe.wait_until(1999)
        before = probe.read()
        probe.wait_until(1999 + 1285)
        assert before.counters == probe.read().counters == (1,)
        descriptor = probe.describe()
        with pytest.raises(InvalidConfig, match="could span a full wrap"):
            _check_single_wrap(descriptor, 1285)
        _check_single_wrap(descriptor, 714)
        with pytest.raises(InvalidConfig, match="could span a full wrap"):
            _check_single_wrap(descriptor, 715)

    def test_probe_failure_mid_stream_is_probe_lost(self):
        inner = constant_probe(10.0)

        class FlakyProbe:
            def __init__(self):
                self.reads = 0
                self.wait_until = inner.wait_until

            def describe(self):
                return inner.describe()

            def read(self):
                self.reads += 1
                if self.reads > 4:
                    raise ReadFailed(PKG, "counter vanished")
                return inner.read()

        with pytest.raises(ProbeLost):
            sample_stream(FlakyProbe(), SamplerConfig(rate_hz=10.0), 10 * NS)


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
    samples = sample_stream(probe, SamplerConfig(rate_hz=rate_hz), run_ns)
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
        with pytest.raises(InvalidConfig, match="finite window of at least 1 s"):
            calibrate_baseline(probe, duration_s)
        assert probe.now_ns == 0

    def test_small_counter_range_calibrates_exactly(self):
        # A 1 J range at 10 W wraps every 100 ms; guard readings on the
        # virtual clock read the mean exactly.
        probe = constant_probe(10.0, max_range_uj=10**6)
        profile = calibrate_baseline(probe, 2.0)
        assert profile.powers_w[PKG] == 10.0
        assert profile.duration_s == 2.0

    @pytest.mark.parametrize("watts", [0.0, 3.0])
    def test_probe_whose_guard_exceeds_the_window_is_read_twice(self, watts):
        # No guard at 0 W; at 3 W a 1 TJ range lasts over ten years.
        probe = constant_probe(watts)
        stamps = recorded_reads(probe)
        profile = calibrate_baseline(probe, 2.0)
        assert stamps == [0, 2 * NS]
        assert profile.powers_w[PKG] == watts

    def test_live_probe_is_read_at_its_edges_only(self, tmp_path, monkeypatch):
        # At 1 kW a RAPL range of about 262 kJ gives a guard of about 131 s:
        # one reading at each edge and one sleep between them, no thread.
        def refuse(thread):
            raise AssertionError(f"calibration started thread {thread.name}")

        root = make_powercap_tree(tmp_path / "powercap", {
            "intel-rapl:0": {"name": "package-0", "energy_uj": 1234, "max_energy_range_uj": 262143328850},
        })
        probe = RaplProbe(powercap_root=root)
        stamps = recorded_reads(probe)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        profile = calibrate_baseline(probe, 1.0)
        assert len(stamps) == 2
        assert profile.powers_w == {PKG: 0.0}
        assert 1.0 <= profile.duration_s < 1.1

    def test_wrapping_range_is_read_once_per_guard(self):
        # 10 W fills a 0.25 J range in 25 ms, so a 2 s window wraps the
        # counter 80 times; the guard is about 12 ms.
        probe = constant_probe(10.0, max_range_uj=250_000)
        guard_ns = _wrap_guard_ns(probe.describe())
        stamps = recorded_reads(probe)
        profile = calibrate_baseline(probe, 2.0)
        assert profile.powers_w[PKG] == 10.0
        assert (stamps[0], stamps[-1]) == (0, 2 * NS)
        assert len(stamps) == -(-2 * NS // guard_ns) + 1
        assert max(b - a for a, b in zip(stamps, stamps[1:])) <= guard_ns

    def test_window_is_rounded_up_to_whole_refresh_intervals(self):
        probe = constant_probe(10.0, max_range_uj=10**6)
        profile = calibrate_baseline(probe, 1.2345)
        assert profile.powers_w[PKG] == 10.0
        assert profile.duration_s == 1.235

    def test_range_no_interval_can_poll_is_refused(self):
        # 0.01 J at 10 W fills in 1 ms, within one counter refresh.
        probe = constant_probe(10.0, max_range_uj=10_000)
        with pytest.raises(InvalidConfig, match="could span a full wrap"):
            calibrate_baseline(probe, 2.0)

    def test_window_above_an_hour_rejected(self):
        probe = constant_probe(3.0)
        check_calibration_window(3600.0)
        with pytest.raises(InvalidConfig, match=r"window must be at most 3600 s, got 3600\.5"):
            calibrate_baseline(probe, 3600.5)
        assert probe.now_ns == 0

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
        samples = sample_stream(probe, SamplerConfig(rate_hz=10.0), NS)
        assert all(s.energy_uj[PKG] == 1_000_000 for s in samples)
        result = _marginal(samples, NS, {PKG: 10.0})
        assert result.baseline_applied
        assert result.energy_j[PKG] == result.mean_power_w[PKG] == 0.0

    def test_baseline_never_yields_negative_energy(self):
        probe = constant_probe(1.0)
        samples = sample_stream(probe, SamplerConfig(rate_hz=10.0), NS)
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
    samples = sample_stream(probe, config, window_ns)
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


def previous_sample_stream(probe, config, end_ns):
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
        while origin_ns + (tick - 1) * interval_ns < end_ns:
            probe.wait_until(origin_ns + tick * interval_ns)
            current = probe.read()
            sample = make(previous, current)
            if sample is not None:
                samples.append(sample)
                previous = current
            tick += 1
    except ReadFailed as exc:
        raise ProbeLost(f"probe lost mid-stream: {exc}") from exc
    return samples


class ScriptedProbe:
    """Replays scripted readings and may fail at one read.

    Timestamps are scripted too, so they may repeat or step back; waiting
    on its clock keeps each deadline it is given.
    """

    RANGES = {PKG: 10**9, DRAM: 7 * 10**8}
    PEAKS = dict.fromkeys(RANGES, MAX_PLAUSIBLE_POWER_W)

    def __init__(self, readings, fail_at=None):
        self._readings = readings
        self._fail_at = fail_at
        self.reads = 0
        self.deadlines = []

    def describe(self):
        return ProbeDescriptor(ProbeBackend.SIMULATED, (PKG, DRAM), MS, self.RANGES, self.PEAKS)

    def read(self):
        index, self.reads = self.reads, self.reads + 1
        if index == self._fail_at:
            raise ReadFailed(DRAM, f"scripted failure at read {index}")
        return self._readings[index % len(self._readings)]

    def wait_until(self, deadline_ns):
        self.deadlines.append(deadline_ns)


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
    # On, off or before the grid of deadlines from the first reading.
    end_ns = timestamps[0] + draw(st.integers(-MS, 60 * MS) | st.integers(-2, 60).map(lambda k: k * MS))
    return readings, fail_at, end_ns


@settings(max_examples=400, deadline=None)
@given(case=scripted_streams())
def test_columnar_stream_equals_per_sample_stream(case):
    # Counters that wrap, repeated and backward timestamps, ends on and
    # off the deadline grid, and failures.
    readings, fail_at, end_ns = case
    config = SamplerConfig(rate_hz=1000.0)
    outcomes = []
    for oracle in (False, True):
        probe = ScriptedProbe(readings, fail_at)
        try:
            if oracle:
                samples = previous_sample_stream(probe, config, end_ns)
            else:
                samples = sample_stream(probe, config, end_ns)
            outcomes.append((list(samples), probe.reads, probe.deadlines))
        except ProbeLost as exc:
            outcomes.append((str(exc), probe.reads, probe.deadlines))
    assert outcomes[0] == outcomes[1]


class TestReadContract:
    """Per-stream read counts and times: one opening read, then one read
    per deadline up to the first deadline at or past the end, each on its
    deadline."""

    @pytest.mark.parametrize("run_ns, ticks", [(0, 0), (1, 1), (10 * MS, 10), (10 * MS + 1, 11)])
    def test_one_read_per_tick(self, run_ns, ticks):
        probe = constant_probe(5.0)
        stamps = recorded_reads(probe)
        sample_stream(probe, SamplerConfig(rate_hz=1000.0), run_ns)
        assert stamps == [k * MS for k in range(ticks + 1)]

    def test_reads_that_do_not_advance_still_count(self):
        reading = ProbeReading(5, (1, 1))
        probe = ScriptedProbe([reading])
        samples = sample_stream(probe, SamplerConfig(rate_hz=1000.0), 3 * MS)
        assert probe.reads == 4
        assert probe.deadlines == [5 + MS, 5 + 2 * MS, 5 + 3 * MS]
        assert len(samples) == 0
