"""Acceptance criteria for the profiler, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Everything executes against the simulated probe and
the bundled fixture harness except the final live-RAPL smoke check,
which only runs on hardware with readable powercap counters.
"""

from __future__ import annotations

import json
import random
import re
import string
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from manai.experiment import ExperimentConfig, run_experiment
from manai.harness import HarnessCommand, TestId, TestStatus, discover, run_one
from manai.probe import ProbeBackend, ProbeDescriptor, ProbeReading, RaplProbe, SimulatedProbe
from manai.report import render_history, render_summary, ReportRequest
from manai.results import attribute
from manai.sampler import SamplerConfig, _columns, sample_stream
from manai.store import Store, record_to_doc, render_record

from conftest import (
    DRAM,
    PKG,
    ScenarioSegment,
    fixture_harness_command,
    scenario_of,
    write_plan,
    write_scenario,
)
from test_store import random_record

NS = 10**9


def reading_pair_delta_uj(descriptor: ProbeDescriptor, before: ProbeReading, after: ProbeReading) -> dict:
    """Per domain, the wrap-corrected energy the run path's ``_columns``
    stores for the sample between two readings."""
    samples = _columns([before, after], descriptor)
    return {domain: column[0] for domain, column in samples.energy_uj.items()}


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {title}: PASS")


def sim_config(plan: Path, scenario: Path, **overrides) -> ExperimentConfig:
    kwargs = dict(
        harness=fixture_harness_command(plan),
        sampling_rate_hz=100.0,
        iterations=1,
        revision_label="acc",
        probe_backend=ProbeBackend.SIMULATED,
        scenario_path=scenario,
        test_timeout_s=30.0,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_criterion_01_attribution_accuracy(tmp_path):
    with criterion(1, "attribution accuracy on a constant 10 W scenario"):
        plan = write_plan(tmp_path / "plan.txt", ["test acc::halfsec sleep_ms=500"])
        scenario = write_scenario(
            tmp_path / "scenario.txt", [(3600 * NS, {"package": "10"})]
        )
        config = sim_config(plan, scenario, iterations=3, sampling_rate_hz=100.0)
        record = run_experiment(config, data_dir=tmp_path / "data")
        results = record.results[TestId("acc", "halfsec")]
        assert len(results) == 3
        for result in results:
            assert 4.88 <= result.energy_j[PKG] <= 5.12, result.energy_j


def test_criterion_02_conservation(tmp_path):
    with criterion(2, "sample energies telescope; attribution conserves energy"):
        rng = random.Random(0xACC2)
        for _ in range(100):
            segments = tuple(
                ScenarioSegment(
                    duration_ns=rng.randint(50_000_000, 600_000_000),
                    powers_uw={
                        PKG: rng.randint(0, 40_000_000),
                        DRAM: rng.randint(0, 8_000_000),
                    },
                )
                for _ in range(rng.randint(1, 3))
            )
            scenario = scenario_of(
                segments=segments,
                max_range_uj=10**12,
                update_interval_ns=rng.choice([500_000, 1_000_000, 2_000_000]),
            )
            probe = SimulatedProbe(scenario)
            run_ns = rng.randint(100_000_000, 1_500_000_000)
            rate_hz = rng.choice([10.0, 20.0, 50.0])
            samples = sample_stream(probe, SamplerConfig(rate_hz=rate_hz), run_ns)
            if not samples:
                continue

            # Exact telescoping of interval deltas to the endpoint delta.
            first, last = (
                ProbeReading(t, tuple(scenario.counter_uj(d, t) for d in scenario.domains))
                for t in (samples[0].start_ns, samples[-1].end_ns)
            )
            endpoint_uj = reading_pair_delta_uj(scenario.descriptor, first, last)
            for domain in (PKG, DRAM):
                total_uj = sum(s.energy_uj[domain] for s in samples)
                assert total_uj == endpoint_uj[domain]

            # Exact conservation of attribution over a random partition.
            begin_ns, end_ns = samples[0].start_ns, samples[-1].end_ns
            cuts = sorted(rng.randint(begin_ns + 1, end_ns - 1) for _ in range(rng.randint(0, 4)))
            bounds = [begin_ns, *cuts, end_ns]
            whole = attribute(samples, begin_ns, end_ns)
            split_sum: dict = {}
            for lo, hi in zip(bounds, bounds[1:]):
                if hi <= lo:
                    continue
                for domain, value in attribute(samples, lo, hi).items():
                    split_sum[domain] = split_sum.get(domain, Fraction(0)) + value
            assert split_sum == whole


def test_criterion_03_wrap_oracle():
    with criterion(3, "wrap correction equals the step-forward oracle, exhaustively"):
        max_range = 24

        def oracle(before: int, after: int) -> int:
            steps, value = 0, before
            while value != after:
                value = (value + 1) % max_range
                steps += 1
            return steps

        descriptor = ProbeDescriptor(ProbeBackend.SIMULATED, (PKG,), 1, {PKG: max_range}, {PKG: 0.0})
        for before in range(max_range):
            for after in range(max_range):
                delta = reading_pair_delta_uj(descriptor, ProbeReading(0, (before,)), ProbeReading(1, (after,)))
                assert delta == {PKG: oracle(before, after)}


def test_criterion_04_short_test_low_confidence(tmp_path):
    with criterion(4, "sub-update-interval tests are flagged low confidence"):
        # A 0.5 ms busy-loop test against a 1 ms counter refresh.
        plan = write_plan(tmp_path / "plan.txt", ["test acc::blink busy_ms=0.5"])
        scenario = write_scenario(
            tmp_path / "scenario.txt",
            [(3600 * NS, {"package": "10"})],
            update_interval_ns=1_000_000,
        )
        config = sim_config(plan, scenario, iterations=3)
        record = run_experiment(config, data_dir=tmp_path / "data")
        results = record.results[TestId("acc", "blink")]
        assert all(r.low_confidence for r in results)
        assert record.summaries[TestId("acc", "blink")].any_low_confidence
        report = render_summary(
            Store(tmp_path / "data"),
            ReportRequest(scope="revision", revisions=("acc",), no_color=True, width=140),
        )
        assert "< update interval" in report


def test_criterion_05_replicability(tmp_path):
    with criterion(5, "identical configs replicate records except wall-clock metadata"):
        # 20 ms counter grid absorbs scheduling jitter; sleeps sit on the
        # grid, so both runs quantize to identical virtual timelines.
        plan = write_plan(
            tmp_path / "plan.txt",
            ["test acc::a sleep_ms=100", "test acc::b sleep_ms=60"],
        )
        scenario = write_scenario(
            tmp_path / "scenario.txt",
            [(3600 * NS, {"package": "7.5", "dram": "1.25"})],
            update_interval_ns=20_000_000,
        )
        config = sim_config(plan, scenario, iterations=2, sampling_rate_hz=50.0)
        record_a = run_experiment(config, data_dir=tmp_path / "data-a")
        record_b = run_experiment(config, data_dir=tmp_path / "data-b")

        doc_a, doc_b = record_to_doc(record_a), record_to_doc(record_b)
        created_a = doc_a.pop("created_at")
        created_b = doc_b.pop("created_at")
        assert doc_a == doc_b
        # Every sample replicates, and each store holds its run bit-exactly.
        assert record_a.results == record_b.results
        assert Store(tmp_path / "data-a").latest("acc") == record_a
        assert Store(tmp_path / "data-b").latest("acc") == record_b

        # Machine exports may differ only in the created_at line.
        lines_a = render_record(record_a).splitlines()
        lines_b = render_record(record_b).splitlines()
        assert len(lines_a) == len(lines_b)
        differing = [
            (la, lb) for la, lb in zip(lines_a, lines_b) if la != lb
        ]
        if created_a != created_b:
            assert len(differing) == 1
            assert '"created_at"' in differing[0][0]
        else:
            assert not differing


def test_criterion_06_evolution_view(tmp_path):
    with criterion(6, "three-revision evolution: order, trend, sparkline"):
        plan = write_plan(tmp_path / "plan.txt", ["test acc::evolve sleep_ms=500"])
        data_dir = tmp_path / "data"
        for label, watts in (("r1", "8"), ("r2", "6"), ("r3", "4")):
            scenario = write_scenario(
                tmp_path / f"scenario-{label}.txt",
                [(3600 * NS, {"package": watts})],
                update_interval_ns=20_000_000,
            )
            config = sim_config(
                plan, scenario, revision_label=label, sampling_rate_hz=50.0
            )
            run_experiment(config, data_dir=data_dir)

        store = Store(data_dir)
        test = TestId("acc", "evolve")
        series = store.history((test,))[0]
        assert [p.revision_label for p in series.points] == ["r1", "r2", "r3"]
        stored = [store.latest(p.revision_label).summaries[test] for p in series.points]
        assert [p.energy_mean_j for p in series.points] == [
            {d: stats.mean for d, stats in summary.energy_stats.items()} for summary in stored
        ]
        energies = [p.energy_mean_j[PKG] for p in series.points]
        assert energies[0] > energies[1] > energies[2]
        assert energies[0] == pytest.approx(4.0, abs=0.2)
        assert energies[2] == pytest.approx(2.0, abs=0.2)

        change_pct = (energies[2] - energies[1]) / energies[1] * 100
        assert -34.33 <= change_pct <= -32.33  # -33% within one point

        line = render_history(
            store, ReportRequest(scope="history", tests=(test,), no_color=True)
        )
        assert "↓" in line
        assert re.search(r"-3[34]% last step", line)
        glyphs = [c for c in line if c in "▁▂▃▄▅▆▇█"]
        levels = ["▁▂▃▄▅▆▇█".index(c) for c in glyphs]
        assert len(levels) == 3 and levels[0] > levels[1] > levels[2]


def test_criterion_07_headless_ci_contract(tmp_path):
    with criterion(7, "headless run and exports succeed without a terminal"):
        plan = write_plan(tmp_path / "plan.txt", ["test acc::ci sleep_ms=30"])
        scenario = write_scenario(tmp_path / "scenario.txt", [(3600 * NS, {"package": "5"})])
        config_file = tmp_path / "exp.cfg"
        config_file.write_text(
            "[harness]\n"
            f"program = {sys.executable}\n"
            f"args = -m manai.fixture_harness --plan {plan}\n"
            f"list_args = -m manai.fixture_harness --plan {plan} --list\n"
            "timeout_s = 30\n"
            "[probe]\n"
            "backend = simulated\n"
            f"scenario = {scenario}\n"
            "[experiment]\n"
            "rate_hz = 100\n"
            "iterations = 1\n"
            "revision = ci-rev\n"
            f"data_dir = {tmp_path / 'data'}\n"
        )

        def headless(argv):
            return subprocess.run(
                [sys.executable, "-m", "manai", *argv],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=60,
            )

        run_proc = headless(["run", "--config", str(config_file)])
        assert run_proc.returncode == 0, run_proc.stderr

        machine_out = tmp_path / "export.json"
        export_proc = headless([
            "report", "--config", str(config_file), "--revision", "ci-rev",
            "--format", "machine", "--out", str(machine_out),
        ])
        assert export_proc.returncode == 0, export_proc.stderr
        assert json.loads(machine_out.read_text())["revision_label"] == "ci-rev"

        csv_proc = headless([
            "report", "--config", str(config_file), "--revision", "ci-rev", "--format", "csv",
        ])
        assert csv_proc.returncode == 0, csv_proc.stderr
        assert csv_proc.stdout.splitlines()[0] == "test,domain,statistic,value,unit"


def _random_noise_lines(rng: random.Random, count: int) -> list[str]:
    alphabet = string.ascii_letters + string.digits + " :#[]()/.-_=!"
    lines = []
    for _ in range(count):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 70)))
        if line.lstrip().startswith("##MANAI:"):
            line = "x" + line
        lines.append(line)
    return lines


def test_criterion_08_harness_robustness(tmp_path):
    with criterion(8, "arbitrary noise never changes results; missing END is bounded"):
        plan = write_plan(
            tmp_path / "plan.txt",
            [
                "test acc::one sleep_ms=60 noise_before=5 noise_after=5",
                "test acc::two sleep_ms=40",
            ],
        )
        scenario = write_scenario(
            tmp_path / "scenario.txt",
            [(3600 * NS, {"package": "10"})],
            update_interval_ns=20_000_000,
        )
        base_cmd = fixture_harness_command(plan)
        baseline_tests = discover(base_cmd)
        config = sim_config(plan, scenario, sampling_rate_hz=50.0)
        baseline_record = run_experiment(config, data_dir=tmp_path / "data-base")

        rng = random.Random(0xACC8)
        for round_no in range(8):
            noise_file = tmp_path / f"noise-{round_no}.txt"
            noise_file.write_text("\n".join(_random_noise_lines(rng, 12)) + "\n")
            noisy_cmd = HarnessCommand(
                program=base_cmd.program,
                args=base_cmd.args + ("--noise-file", str(noise_file)),
                list_args=base_cmd.list_args + ("--noise-file", str(noise_file)),
            )
            assert discover(noisy_cmd) == baseline_tests
            noisy_config = sim_config(plan, scenario, sampling_rate_hz=50.0)
            object.__setattr__(noisy_config, "harness", noisy_cmd)
            record = run_experiment(
                noisy_config, data_dir=tmp_path / f"data-noise-{round_no}"
            )
            for test in baseline_tests:
                assert (
                    record.results[test][0].energy_j
                    == baseline_record.results[test][0].energy_j
                )
                assert record.results[test][0].status == baseline_record.results[test][0].status

        # Missing END: bounded by the run timeout, reported as a crash.
        hang_plan = write_plan(tmp_path / "hang.txt", ["test acc::stuck hang_after_begin=1"])
        started = time.monotonic()
        run = run_one(fixture_harness_command(hang_plan), TestId("acc", "stuck"), timeout_s=1.5)
        assert run.status is TestStatus.FAIL
        assert run.error == "test acc::stuck timed out after 1.5 s"
        assert time.monotonic() - started < 10.0


def test_criterion_09_store_integrity(tmp_path):
    with criterion(9, "partial writes never corrupt reads; 1000-record round-trip"):
        store = Store(tmp_path / "data")
        rng = random.Random(0xACC9)
        saved = []
        for index in range(1000):
            record = random_record(rng, index)
            path = store.save(record)
            saved.append((path, record))

        # Fault injection: writers killed mid-save leave only temporaries.
        for label_dir in (store.revisions_dir).iterdir():
            (label_dir / ".tmp-injected").write_text('{"format_version": 1, "trunc')
            break

        loaded_count = 0
        for path, record in saved:
            loaded_doc = json.loads(path.read_text())
            assert loaded_doc == record_to_doc(record)
            loaded_count += 1
        assert loaded_count == 1000

        # Reads through the store API skip the injected temporary and
        # return every record bit-exactly, samples included.
        all_records = sorted(store.iter_records(), key=lambda r: r.created_at)
        assert all_records == [record for _, record in saved]


_rapl_readable = False
try:
    RaplProbe().read()
    _rapl_readable = True
except Exception:
    pass


@pytest.mark.skipif(not _rapl_readable, reason="no readable RAPL powercap counters")
def test_criterion_10_live_rapl_smoke():
    with criterion(10, "live RAPL smoke: package domain enumerates and accumulates"):
        probe = RaplProbe()
        descriptor = probe.describe()
        assert any(d.kind.value == "package" for d in descriptor.domains)
        first = probe.read()
        time.sleep(0.1)
        second = probe.read()
        deltas = reading_pair_delta_uj(descriptor, first, second)
        assert set(deltas) == set(descriptor.domains)
        assert all(0 <= deltas[d] < descriptor.max_range_uj[d] for d in descriptor.domains)
