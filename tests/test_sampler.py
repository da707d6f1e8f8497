"""Wrap correction, the sampling loop, and baseline calibration."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manai.clock import DeadlineStop, VirtualScheduler
from manai.errors import InvalidConfig, ProbeLost, ReadFailed
from manai.probe import SimulatedProbe
from manai.sampler import (
    SamplerConfig,
    calibrate_baseline,
    sample_stream,
    wrap_delta,
)

from conftest import PKG, ScenarioSegment, scenario_of

NS = 10**9


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
        assert sample_stream(probe, SamplerConfig(rate_hz=10.0), stop, sched) == []

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

    def test_too_short_window_rejected(self):
        sched = VirtualScheduler()
        probe = constant_probe(3.0, sched)
        with pytest.raises(InvalidConfig):
            calibrate_baseline(probe, 0.0, sched)
