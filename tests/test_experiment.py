"""Attribution, summary statistics, and the end-to-end experiment runner."""

from __future__ import annotations

import fcntl
import math
import random
import signal
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manai import experiment
from manai.errors import EmptyInput, InvalidConfig, LockHeld
from manai.experiment import (
    BaselineSetting,
    ExperimentConfig,
    _LiveMeter,
    _meter,
    _quantize_duration_ns,
    config_digest,
    run_experiment,
)
from manai.harness import TestId, TestStatus
from manai.probe import ProbeBackend, SimulatedProbe
from manai.results import attribute, compute_stats, summarize
from manai.sampler import EnergySample, SamplerConfig, calibrate_baseline, sample_stream
from manai.store import Store

from conftest import (
    DRAM,
    PKG,
    ScenarioSegment,
    SteppingProbe,
    baseline_cases,
    fixture_harness_command,
    make_powercap_tree,
    make_result,
    scenario_of,
    write_plan,
    write_scenario,
)

NS = 10**9


def _lock_is_free(path) -> bool:
    """Whether a non-blocking exclusive ``flock`` on ``path`` succeeds now."""
    with open(path) as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            return False
    return True


class TestAttribute:
    def test_pro_rata_half_window(self):
        # 10 J over [0, 1s]; the window [0.25s, 0.75s] covers half of it.
        sample = EnergySample(0, NS, {PKG: 10_000_000})
        energy = attribute([sample], NS // 4, 3 * NS // 4)
        assert energy[PKG] == 5

    def test_full_window_telescopes_to_total(self):
        samples = [
            EnergySample(0, NS, {PKG: 10_000_000}),
            EnergySample(NS, 2 * NS, {PKG: 4_000_000}),
        ]
        assert attribute(samples, 0, 2 * NS)[PKG] == 14

    def test_disjoint_sample_contributes_nothing(self):
        sample = EnergySample(0, NS, {PKG: 10_000_000})
        assert attribute([sample], 2 * NS, 3 * NS)[PKG] == 0

    def test_empty_samples_zero_map(self):
        assert attribute([], 0, NS) == {}

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            attribute([], NS, NS)


@st.composite
def sample_runs(draw):
    rng_boundaries = sorted(
        draw(
            st.lists(st.integers(1, 10_000), min_size=2, max_size=12, unique=True)
        )
    )
    samples = []
    for lo, hi in zip(rng_boundaries, rng_boundaries[1:]):
        samples.append(
            EnergySample(
                lo * 1000, hi * 1000, {PKG: draw(st.integers(0, 10_000_000))}
            )
        )
    return samples


@settings(max_examples=60, deadline=None)
@given(
    samples=sample_runs(),
    cuts=st.lists(st.integers(1, 9_999_999), min_size=0, max_size=5, unique=True),
)
def test_attribution_conserved_over_any_partition(samples, cuts):
    # Splitting a window into sub-windows and summing the attributions
    # must reproduce the whole-window attribution exactly (rationals).
    begin_ns = samples[0].start_ns
    end_ns = samples[-1].end_ns
    bounds = [begin_ns] + sorted(c for c in cuts if begin_ns < c < end_ns) + [end_ns]
    whole = attribute(samples, begin_ns, end_ns)
    partial_sum: dict = {}
    for lo, hi in zip(bounds, bounds[1:]):
        for domain, value in attribute(samples, lo, hi).items():
            partial_sum[domain] = partial_sum.get(domain, Fraction(0)) + value
    assert partial_sum == whole


@settings(max_examples=40, deadline=None)
@given(
    power_uw=st.integers(1_000_000, 40_000_000),
    window=st.tuples(st.integers(0, 800), st.integers(100, 1200)),
)
def test_attribution_against_reintegration_oracle(power_uw, window):
    # Stream a constant-power scenario on an update-aligned grid, then
    # attribute an arbitrary interior window; re-integrating the power
    # function over that window must agree within one update quantum.
    scenario = scenario_of(
        segments=(ScenarioSegment(3600 * NS, {PKG: power_uw}),),
        max_range_uj=10**12,
        update_interval_ns=1_000_000,
    )
    probe = SimulatedProbe(scenario)
    samples = sample_stream(probe, SamplerConfig(rate_hz=100.0), 2 * NS)

    begin_ms, length_ms = window
    begin_ns = begin_ms * 1_000_000
    end_ns = begin_ns + length_ms * 1_000_000
    end_ns = min(end_ns, samples[-1].end_ns)
    if end_ns <= begin_ns:
        return
    attributed = float(attribute(samples, begin_ns, end_ns)[PKG])
    oracle_j = (
        scenario.energy_fj(PKG, end_ns) - scenario.energy_fj(PKG, begin_ns)
    ) / 1e15
    quantum_j = (power_uw / 1e6) * (scenario.update_interval_ns / 1e9)
    assert attributed == pytest.approx(oracle_j, abs=quantum_j + 1e-12)


def reference_attribution(samples, begin_ns, end_ns):
    """Per-sample rational shares in joules, every sample a ``Fraction``."""
    totals = {}
    for sample in samples:
        for domain in sample.energy_uj:
            totals.setdefault(domain, Fraction(0))
        overlap_ns = min(end_ns, sample.end_ns) - max(begin_ns, sample.start_ns)
        for domain, energy_uj in sample.energy_uj.items():
            if overlap_ns > 0:
                totals[domain] += Fraction(energy_uj * overlap_ns, (sample.end_ns - sample.start_ns) * 10**6)
    return totals


@st.composite
def two_domain_runs(draw):
    """Adjacent samples of at least 1 us; DRAM is missing from some samples."""
    edges = sorted(draw(st.lists(st.integers(1, 10_000), min_size=3, max_size=12, unique=True)))
    samples = []
    for lo, hi in zip(edges, edges[1:]):
        energy = {PKG: draw(st.integers(0, 10_000_000))}
        if draw(st.booleans()):
            energy[DRAM] = draw(st.integers(0, 10_000_000))
        samples.append(EnergySample(lo * 1000, hi * 1000, energy))
    return samples


def assert_exact_fractions(got, expected):
    assert got == expected
    assert all(type(value) is Fraction for value in got.values())


@settings(max_examples=60, deadline=None)
@given(samples=two_domain_runs(), data=st.data())
def test_attribution_on_sample_edges_is_exact(samples, data):
    # No boundary sample: every sample lies wholly inside or outside.
    first, last = sorted(data.draw(st.lists(
        st.integers(0, len(samples)), min_size=2, max_size=2, unique=True
    )))
    edges = [s.start_ns for s in samples] + [samples[-1].end_ns]
    begin_ns, end_ns = edges[first], edges[last]
    assert_exact_fractions(
        attribute(samples, begin_ns, end_ns), reference_attribution(samples, begin_ns, end_ns)
    )


@settings(max_examples=60, deadline=None)
@given(samples=two_domain_runs(), data=st.data())
def test_attribution_with_two_boundary_samples_is_exact(samples, data):
    # The window starts inside one sample and ends inside a later one.
    first, last = sorted(data.draw(st.lists(
        st.integers(0, len(samples) - 1), min_size=2, max_size=2, unique=True
    )))
    begin_ns = data.draw(st.integers(samples[first].start_ns + 1, samples[first].end_ns - 1))
    end_ns = data.draw(st.integers(samples[last].start_ns + 1, samples[last].end_ns - 1))
    assert_exact_fractions(
        attribute(samples, begin_ns, end_ns), reference_attribution(samples, begin_ns, end_ns)
    )


class TestSummarize:
    def _results(self, energies_uj, **kwargs):
        test = TestId("demo", "case")
        return [
            make_result(test, iteration=i, energy_uj=uj, **kwargs)
            for i, uj in enumerate(energies_uj)
        ]

    def test_textbook_values(self):
        summary = summarize(self._results([1_000_000, 2_000_000, 3_000_000]))
        stats = summary.energy_stats[PKG]
        assert stats.mean == pytest.approx(2.0)
        assert stats.median == pytest.approx(2.0)
        assert stats.stddev == pytest.approx(1.0)
        assert stats.min == pytest.approx(1.0)
        assert stats.max == pytest.approx(3.0)

    def test_single_iteration_convention(self):
        summary = summarize(self._results([5_000_000]))
        stats = summary.energy_stats[PKG]
        assert stats.mean == stats.median == stats.min == stats.max == 5.0
        assert stats.stddev == 0.0

    def test_median_is_lower_middle_for_even_counts(self):
        summary = summarize(self._results([1_000_000, 2_000_000, 3_000_000, 10_000_000]))
        assert summary.energy_stats[PKG].median == 2.0

    def test_against_two_pass_oracle(self):
        rng = random.Random(42)
        values = [rng.uniform(0.1, 50.0) for _ in range(100)]
        stats = compute_stats(values)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean, rel=1e-9)
        assert stats.stddev == pytest.approx(math.sqrt(variance), rel=1e-9)

    def test_status_counts(self):
        test = TestId("demo", "case")
        results = [
            make_result(test, 0, status=TestStatus.PASS),
            make_result(test, 1, status=TestStatus.FAIL),
            make_result(test, 2, status=TestStatus.SKIP),
            make_result(test, 3, status=TestStatus.PASS),
        ]
        summary = summarize(results)
        assert (summary.pass_count, summary.fail_count, summary.skip_count) == (2, 1, 1)
        assert summary.iterations == 4

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            summarize([])

    def test_mixed_tests_rejected(self):
        with pytest.raises(ValueError):
            summarize([make_result(TestId("a", "x")), make_result(TestId("b", "y"))])


@pytest.fixture
def sim_experiment(tmp_path):
    """A ready-to-run simulated experiment over two fixture tests."""
    plan = write_plan(
        tmp_path / "plan.txt",
        ["test demo::slow sleep_ms=80", "test demo::fast sleep_ms=40"],
    )
    scenario = write_scenario(
        tmp_path / "scenario.txt", [(3600 * NS, {"package": "10"})]
    )

    def build(**overrides):
        kwargs = dict(
            harness=fixture_harness_command(plan),
            sampling_rate_hz=100.0,
            iterations=2,
            revision_label="rev-1",
            probe_backend=ProbeBackend.SIMULATED,
            scenario_path=scenario,
            test_timeout_s=30.0,
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    return tmp_path, plan, scenario, build


@settings(max_examples=300, deadline=None)
@given(interval=st.integers(1, 10**8), k=st.integers(1, 10**4), data=st.data())
def test_quantize_snaps_jitter_window_to_grid_point(interval, k, data):
    # Integers in [max(I, kI - I/4), kI + 3I/4): a quarter interval early
    # and three quarters late around the grid point, clipped at one interval.
    low = max(interval, k * interval - interval // 4)
    high = k * interval + interval - interval // 4 - 1
    duration = data.draw(st.integers(low, high))
    assert _quantize_duration_ns(duration, interval) == k * interval


@given(interval=st.integers(2, 10**8), data=st.data())
def test_quantize_keeps_sub_interval_durations(interval, data):
    duration = data.draw(st.integers(1, interval - 1))
    assert _quantize_duration_ns(duration, interval) == duration


@st.composite
def replay_cases(draw):
    """A scenario, a rate, and the harness windows of one simulated run.

    Rates of 7 and 333 Hz do not divide a refresh interval, 1000 and 1500
    Hz may. Counter ranges are either huge or barely above what the wrap
    check accepts, so that counters wrap within a window. Window lengths
    include sub-interval, repeated, shrinking and growing ones.
    """
    update_ns = draw(st.sampled_from([500_000, 1_000_000, 2_000_000]))
    rate_hz = draw(st.sampled_from([7.0, 333.0, 1000.0, 1500.0]))
    segments = tuple(
        ScenarioSegment(
            duration_ns=draw(st.integers(1, 150_000_000)),
            powers_uw={PKG: draw(st.integers(0, 40_000_000)), DRAM: draw(st.integers(0, 5_000_000))},
        )
        for _ in range(draw(st.integers(1, 4)))
    )
    peak_uw = max(max(s.powers_uw.values()) for s in segments)
    # The wrap check passes while the range less 1 uJ outlasts one interval
    # plus one refresh.
    least_uj = (SamplerConfig(rate_hz).interval_ns + update_ns) * peak_uw // 10**9 + 2
    max_range_uj = draw(st.sampled_from([10**12, least_uj]) | st.integers(least_uj, least_uj + 10**6))
    scenario = scenario_of(segments, max_range_uj=max_range_uj, update_interval_ns=update_ns)
    durations = draw(st.lists(
        st.integers(0, update_ns - 1) | st.integers(0, 400_000_000), min_size=1, max_size=6,
    ))
    if draw(st.booleans()):
        durations.insert(draw(st.integers(0, len(durations))), draw(st.sampled_from(durations)))
    begins = draw(st.lists(st.integers(0, 10**12), min_size=len(durations), max_size=len(durations)))
    windows = [(begin, begin + duration) for begin, duration in zip(begins, durations)]
    return scenario, rate_hz, windows, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(case=replay_cases())
def test_replay_meter_cuts_the_fresh_replay_of_every_window(case):
    scenario, rate_hz, windows, calibrate = case
    sampler_config = SamplerConfig(rate_hz)
    run_probe = SimulatedProbe(scenario)
    meter = _meter(run_probe, sampler_config)
    if calibrate:
        # A calibrate: baseline advances the run's own probe first.
        calibrate_baseline(run_probe, 1.0)
    for begin_ns, end_ns in windows:
        meter.start()
        samples, begin, end = meter.stop(begin_ns, end_ns)
        snapped_ns = _quantize_duration_ns(end_ns - begin_ns, scenario.update_interval_ns)
        fresh = SimulatedProbe(scenario)
        expected = sample_stream(fresh, sampler_config, snapped_ns)
        assert (begin, end) == (0, snapped_ns)
        assert samples == expected


@settings(max_examples=150, deadline=None)
@given(case=baseline_cases(), data=st.data())
def test_edge_readings_stay_within_one_refresh_step_of_the_true_energy(case, data):
    # The live meter over a simulated probe, its clock called as run_one
    # calls it: at BEGIN, once per guard while the window is open, each
    # guard reading late by up to one more guard, and at END. The counter
    # range is the smallest whose guard is the drawn one, so counters wrap
    # inside most windows.
    segments, update_ns, rate_hz, ticks, _ = case
    window_ns = ticks * SamplerConfig(rate_hz).interval_ns
    peak_uw = max(max(segment.powers_uw.values()) for segment in segments)
    target_ns = data.draw(st.integers(max(1, window_ns // 40), max(1, window_ns // 3)))
    max_range_uj = -(-(2 * target_ns + update_ns + 1) * peak_uw // 10**9) + 1
    scenario = scenario_of(segments, max_range_uj=max_range_uj, update_interval_ns=update_ns)
    probe = SimulatedProbe(scenario)
    meter = _LiveMeter(probe)
    assert meter.guard_ns is None or meter.guard_ns >= target_ns - 1

    begin_ns = data.draw(st.integers(0, 2 * NS))
    end_ns = begin_ns + window_ns
    meter.start()
    probe.wait_until(begin_ns)
    begin = meter.clock()
    while meter.guard_ns is not None:
        due_ns = probe.now_ns + meter.guard_ns + data.draw(st.integers(0, meter.guard_ns))
        if due_ns >= end_ns:
            break
        probe.wait_until(due_ns)
        meter.clock()
    probe.wait_until(end_ns)
    samples, begin, end = meter.stop(begin, meter.clock())

    assert (begin, end) == (samples.starts_ns[0], samples.ends_ns[-1]) == (0, window_ns)
    energy = attribute(samples, begin, end)
    for domain in scenario.domains:
        true_j = Fraction(scenario.energy_fj(domain, end_ns) - scenario.energy_fj(domain, begin_ns), 10**15)
        peak_w = Fraction(max(segment.powers_uw[domain] for segment in segments), 10**6)
        # One refresh step, plus the counter's 1 uJ resolution.
        step_j = peak_w * Fraction(update_ns, NS) + Fraction(1, 10**6)
        assert abs(energy[domain] - true_j) <= step_j


LIVE = TestId("demo", "live")


def _run_live(tmp_path, sleep_ms: int, iterations: int = 1, powercap_root=None):
    """The stored results of a live run of one fixture test sleeping ``sleep_ms``."""
    plan = write_plan(tmp_path / "plan.txt", [f"test {LIVE} sleep_ms={sleep_ms}"])
    config = ExperimentConfig(
        harness=fixture_harness_command(plan),
        sampling_rate_hz=1000.0,
        iterations=iterations,
        revision_label="rev-live",
        selection=(LIVE,),
        probe_backend=ProbeBackend.RAPL,
        test_timeout_s=30.0,
        powercap_root=powercap_root,
    )
    run_experiment(config, data_dir=tmp_path / "data")
    results = Store(tmp_path / "data").latest("rev-live").results[LIVE]
    assert all(r.status is TestStatus.PASS for r in results)
    return results


class TestLiveRun:
    """A live run reads its probe at each window edge, and once per wrap
    guard inside the window."""

    def test_window_is_the_wrapped_delta_between_its_edge_readings(self, tmp_path, monkeypatch):
        # At 1 W a 1 kJ range takes 1000 s to fill, so the guard is about
        # 500 s and each iteration is read at BEGIN and END only. Every
        # pair of readings wraps: 0.5, 1.2, 1.9 and 2.6 kJ.
        probe = SteppingProbe(step_uj=7 * 10**8, max_range_uj=10**9, peak_w=1.0, start_uj=5 * 10**8)
        monkeypatch.setattr(experiment, "create_probe", lambda *args: probe)
        results = _run_live(tmp_path, sleep_ms=30, iterations=2)
        readings = probe.readings
        assert len(readings) == 4
        for result, begin, end in zip(results, readings[::2], readings[1::2]):
            delta_uj = (end.counters[0] - begin.counters[0]) % 10**9
            assert delta_uj == 7 * 10**8
            assert result.energy_j[PKG] == float(Fraction(delta_uj, 10**6))
            assert result.duration_ns == end.timestamp_ns - begin.timestamp_ns
            assert (result.samples.starts_ns[0], result.samples.ends_ns[-1]) == (0, result.duration_ns)

    def test_window_spanning_wraps_conserves_energy_through_guard_readings(self, tmp_path, monkeypatch):
        # 40 W fills a 1 J range in 25 ms, so the guard is about 12 ms.
        # Each reading adds 0.4 J, so 250 ms wraps the counter about 8 times.
        probe = SteppingProbe(step_uj=4 * 10**5, max_range_uj=10**6, peak_w=40.0)
        monkeypatch.setattr(experiment, "create_probe", lambda *args: probe)
        result, = _run_live(tmp_path, sleep_ms=250)
        intervals = len(probe.readings) - 1
        assert len(result.samples) == intervals
        assert intervals * 4 * 10**5 >= 3 * 10**6
        assert result.energy_j[PKG] == float(Fraction(intervals * 4 * 10**5, 10**6))

    def test_live_run_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"the run started thread {thread.name}")

        root = make_powercap_tree(tmp_path / "powercap", {
            "intel-rapl:0": {"name": "package-0", "energy_uj": 1234, "max_energy_range_uj": 262143328850},
        })
        monkeypatch.setattr(threading.Thread, "start", refuse)
        result, = _run_live(tmp_path, sleep_ms=30, powercap_root=root)
        assert len(result.samples) == 1
        assert result.energy_j[PKG] == 0.0


class TestRunExperiment:
    def test_record_structure_and_energy(self, sim_experiment):
        tmp_path, _, _, build = sim_experiment
        record = run_experiment(build(), data_dir=tmp_path / "data")

        slow = TestId("demo", "slow")
        fast = TestId("demo", "fast")
        assert set(record.summaries) == {slow, fast}
        assert record.summaries[slow].iterations == 2
        assert all(r.status is TestStatus.PASS for r in record.results[slow])
        # 10 W for ~80 ms and ~40 ms.
        assert record.summaries[slow].energy_stats[PKG].mean == pytest.approx(0.8, abs=0.15)
        assert record.summaries[fast].energy_stats[PKG].mean == pytest.approx(0.4, abs=0.15)
        # Persisted and loadable.
        stored = Store(tmp_path / "data").load("rev-1")
        assert len(stored) == 1
        assert stored[0].summaries.keys() == record.summaries.keys()

    def test_single_iteration_single_test(self, sim_experiment):
        tmp_path, _, _, build = sim_experiment
        config = build(iterations=1, selection=(TestId("demo", "fast"),))
        record = run_experiment(config, data_dir=tmp_path / "data")
        assert list(record.summaries) == [TestId("demo", "fast")]
        assert record.summaries[TestId("demo", "fast")].iterations == 1

    def test_sub_interval_run_is_low_confidence(self, tmp_path):
        # busy_ms, not sleep_ms: sub-millisecond sleeps overshoot past the
        # 1 ms update interval on coarse-timer kernels.
        plan = write_plan(tmp_path / "plan.txt", ["test demo::blink busy_ms=0.5"])
        scenario = write_scenario(
            tmp_path / "scenario.txt",
            [(3600 * NS, {"package": "10"})],
            update_interval_ns=1_000_000,
        )
        config = ExperimentConfig(
            harness=fixture_harness_command(plan),
            sampling_rate_hz=100.0,
            iterations=2,
            revision_label="rev-lc",
            probe_backend=ProbeBackend.SIMULATED,
            scenario_path=scenario,
            test_timeout_s=30.0,
        )
        record = run_experiment(config, data_dir=tmp_path / "data")
        results = record.results[TestId("demo", "blink")]
        assert all(r.low_confidence for r in results)
        assert record.summaries[TestId("demo", "blink")].any_low_confidence

    def test_replicable_on_simulated_probe(self, tmp_path):
        # Coarse update grid (20 ms) absorbs scheduling jitter; durations
        # land on the same grid point in both runs, so every stored
        # number matches bit for bit.
        plan = write_plan(
            tmp_path / "plan.txt",
            ["test demo::a sleep_ms=100", "test demo::b sleep_ms=60"],
        )
        scenario = write_scenario(
            tmp_path / "scenario.txt",
            [(3600 * NS, {"package": "7.5", "dram": "1.25"})],
            update_interval_ns=20_000_000,
        )
        config = ExperimentConfig(
            harness=fixture_harness_command(plan),
            sampling_rate_hz=50.0,
            iterations=2,
            revision_label="rev-repl",
            probe_backend=ProbeBackend.SIMULATED,
            scenario_path=scenario,
            test_timeout_s=30.0,
        )
        record_a = run_experiment(config, data_dir=tmp_path / "data-a")
        record_b = run_experiment(config, data_dir=tmp_path / "data-b")

        from manai.store import record_to_doc

        doc_a, doc_b = record_to_doc(record_a), record_to_doc(record_b)
        assert doc_a.pop("created_at") != ""
        assert doc_b.pop("created_at") != ""
        assert doc_a == doc_b
        # Every sample replicates, and each store holds its run bit-exactly.
        assert record_a.results == record_b.results
        assert Store(tmp_path / "data-a").latest("rev-repl") == record_a
        assert Store(tmp_path / "data-b").latest("rev-repl") == record_b

    def test_every_simulated_iteration_replays_from_the_origin(self, tmp_path):
        # Power steps from 5 W to 50 W at 100 ms; a 50 ms test on a 50 ms
        # grid stays in the first segment only if each iteration starts
        # the scenario over.
        plan = write_plan(tmp_path / "plan.txt", ["test demo::a sleep_ms=50"])
        scenario = write_scenario(
            tmp_path / "scenario.txt",
            [(100_000_000, {"package": "5"}), (3600 * NS, {"package": "50"})],
            update_interval_ns=50_000_000,
        )
        config = ExperimentConfig(
            harness=fixture_harness_command(plan),
            sampling_rate_hz=100.0,
            iterations=2,
            revision_label="rev-origin",
            probe_backend=ProbeBackend.SIMULATED,
            scenario_path=scenario,
            test_timeout_s=30.0,
        )
        run_experiment(config, data_dir=tmp_path / "data")
        results = Store(tmp_path / "data").latest("rev-origin").results[TestId("demo", "a")]
        assert [r.mean_power_w[PKG] for r in results] == [5.0, 5.0]
        assert results[0].energy_j[PKG] == results[1].energy_j[PKG]

    def test_protocol_violation_recorded_and_run_continues(self, sim_experiment):
        tmp_path, plan, scenario, build = sim_experiment
        write_plan(
            plan,
            ["test demo::broken no_begin=1 sleep_ms=1", "test demo::good sleep_ms=10"],
        )
        record = run_experiment(build(iterations=2), data_dir=tmp_path / "data")
        broken = record.results[TestId("demo", "broken")]
        assert len(broken) == 1  # remaining iterations skipped
        assert broken[0].status is TestStatus.FAIL
        assert "protocol violation" in broken[0].error
        good = record.summaries[TestId("demo", "good")]
        assert good.iterations == 2
        assert good.pass_count == 2

    def test_crash_recorded_as_failed_iteration(self, sim_experiment):
        tmp_path, plan, scenario, build = sim_experiment
        write_plan(plan, ["test demo::boom sleep_ms=5 crash_after_begin=1"])
        record = run_experiment(build(iterations=2), data_dir=tmp_path / "data")
        results = record.results[TestId("demo", "boom")]
        assert len(results) == 2
        assert all(r.crashed and r.status is TestStatus.FAIL for r in results)
        assert record.summaries[TestId("demo", "boom")].fail_count == 2

    def test_failed_tests_still_get_energy(self, sim_experiment):
        tmp_path, plan, scenario, build = sim_experiment
        write_plan(plan, ["test demo::fails sleep_ms=50 status=FAIL"])
        record = run_experiment(build(iterations=1), data_dir=tmp_path / "data")
        result = record.results[TestId("demo", "fails")][0]
        assert result.status is TestStatus.FAIL
        assert result.energy_j[PKG] > 0.0

    def test_baseline_calibration_cancels_constant_power(self, sim_experiment):
        tmp_path, _, _, build = sim_experiment
        config = build(baseline=BaselineSetting(mode="calibrate", calibrate_duration_s=2.0))
        record = run_experiment(config, data_dir=tmp_path / "data")
        for results in record.results.values():
            for result in results:
                assert result.baseline_applied
                assert result.energy_j[PKG] == 0.0

    def test_baseline_leaves_the_samples_raw(self, sim_experiment):
        # Each iteration replays the scenario from its origin, so the samples
        # of two runs agree as far as the shorter window reaches.
        tmp_path, _, _, build = sim_experiment
        raw = run_experiment(build(iterations=1), data_dir=tmp_path / "raw")
        config = build(iterations=1, baseline=BaselineSetting(mode="calibrate", calibrate_duration_s=1.0))
        marginal = run_experiment(config, data_dir=tmp_path / "marginal")
        for test, (result,) in raw.results.items():
            other = marginal.results[test][0]
            count = min(len(result.samples), len(other.samples))
            assert count and other.samples[:count] == result.samples[:count]
            assert result.energy_j[PKG] > 0.0 == other.energy_j[PKG]

    def test_lock_refused_while_held(self, sim_experiment):
        tmp_path, _, _, build = sim_experiment
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        with open(data_dir / "lock", "w") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(LockHeld):
                run_experiment(build(), data_dir=data_dir)

    def test_stale_lock_is_replaced(self, sim_experiment):
        tmp_path, _, _, build = sim_experiment
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "lock").write_text("999999999")
        record = run_experiment(build(iterations=1), data_dir=data_dir)
        assert record.summaries
        assert _lock_is_free(data_dir / "lock")

    def test_lock_of_killed_runner_is_released(self, sim_experiment):
        tmp_path, _, _, build = sim_experiment
        data_dir = tmp_path / "data"
        holder = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys, time\n"
                "from pathlib import Path\n"
                "from manai.experiment import _DataDirLock\n"
                "_DataDirLock(Path(sys.argv[1])).acquire()\n"
                "print('locked', flush=True)\n"
                "time.sleep(60)\n",
                str(data_dir),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert holder.stdout.readline() == "locked\n"
            with pytest.raises(LockHeld, match=f"pid {holder.pid}"):
                run_experiment(build(iterations=1), data_dir=data_dir)
        finally:
            holder.send_signal(signal.SIGKILL)
            holder.wait(timeout=10)
            holder.stdout.close()
        record = run_experiment(build(iterations=1), data_dir=data_dir)
        assert record.summaries
        assert _lock_is_free(data_dir / "lock")

    def test_spawn_failure_aborts_without_persisting(self, sim_experiment):
        tmp_path, _, scenario, build = sim_experiment
        from manai.errors import HarnessSpawnFailed
        from manai.harness import HarnessCommand

        config = build(
            harness=HarnessCommand(program="/nonexistent/harness", list_args=("--list",)),
            selection=(TestId("demo", "slow"),),
        )
        data_dir = tmp_path / "data"
        with pytest.raises(HarnessSpawnFailed):
            run_experiment(config, data_dir=data_dir)
        assert not (data_dir / "revisions").exists()
        assert _lock_is_free(data_dir / "lock")

    def test_empty_selection_rejected(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["# no tests declared"])
        scenario = write_scenario(tmp_path / "s.txt", [(NS, {"package": "1"})])
        config = ExperimentConfig(
            harness=fixture_harness_command(plan),
            sampling_rate_hz=10.0,
            iterations=1,
            revision_label="r",
            probe_backend=ProbeBackend.SIMULATED,
            scenario_path=scenario,
        )
        with pytest.raises(InvalidConfig):
            run_experiment(config, data_dir=tmp_path / "data")

    def test_config_digest_tracks_content(self, sim_experiment):
        _, _, _, build = sim_experiment
        assert config_digest(build()) == config_digest(build())
        assert config_digest(build()) != config_digest(build(iterations=5))


class TestConfigValidation:
    def test_bad_values_rejected(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test a::b"])
        cmd = fixture_harness_command(plan)
        with pytest.raises(InvalidConfig):
            ExperimentConfig(harness=cmd, sampling_rate_hz=0, iterations=1, revision_label="r")
        with pytest.raises(InvalidConfig):
            ExperimentConfig(harness=cmd, sampling_rate_hz=1, iterations=0, revision_label="r")
        with pytest.raises(InvalidConfig):
            ExperimentConfig(harness=cmd, sampling_rate_hz=1, iterations=1, revision_label="")
        with pytest.raises(InvalidConfig):
            ExperimentConfig(
                harness=cmd,
                sampling_rate_hz=1,
                iterations=1,
                revision_label="r",
                probe_backend=ProbeBackend.SIMULATED,
            )

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 2e9, 1e12])
    def test_rate_without_a_nanosecond_interval_rejected(self, tmp_path, rate):
        cmd = fixture_harness_command(write_plan(tmp_path / "plan.txt", ["test a::b"]))
        with pytest.raises(InvalidConfig, match="no finite interval"):
            ExperimentConfig(harness=cmd, sampling_rate_hz=rate, iterations=1, revision_label="r")

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan"), float("inf")])
    def test_timeout_must_be_positive_and_finite(self, tmp_path, timeout_s):
        cmd = fixture_harness_command(write_plan(tmp_path / "plan.txt", ["test a::b"]))
        with pytest.raises(InvalidConfig, match="test timeout must be positive and finite"):
            ExperimentConfig(
                harness=cmd, sampling_rate_hz=1, iterations=1, revision_label="r",
                test_timeout_s=timeout_s,
            )

    @pytest.mark.parametrize("timeout_s", [None, 1e-3, 30.0])
    def test_timeout_none_or_positive_accepted(self, tmp_path, timeout_s):
        cmd = fixture_harness_command(write_plan(tmp_path / "plan.txt", ["test a::b"]))
        config = ExperimentConfig(
            harness=cmd, sampling_rate_hz=1, iterations=1, revision_label="r",
            test_timeout_s=timeout_s,
        )
        assert config.test_timeout_s == timeout_s
