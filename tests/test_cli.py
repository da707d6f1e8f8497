"""Command line contract: exit codes, flag/config equivalence, headless use."""

from __future__ import annotations

import json
import os
import sys
import threading

import pytest

from manai.cli import main
from manai.harness import TestId, TestStatus
from manai.store import Store

from conftest import CORE, PKG, make_powercap_tree, write_plan, write_scenario

NS = 10**9


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    """Plan, scenario and config file for a small simulated experiment."""
    monkeypatch.delenv("MANAI_DATA_DIR", raising=False)
    plan = write_plan(
        tmp_path / "plan.txt",
        ["test demo::alpha sleep_ms=40", "test demo::beta sleep_ms=20"],
    )
    scenario = write_scenario(tmp_path / "scenario.txt", [(3600 * NS, {"package": "10"})])
    harness_line = f"python3 -m manai.fixture_harness --plan {plan}"
    config = tmp_path / "exp.cfg"
    config.write_text(
        "[harness]\n"
        f"program = python3\n"
        f"args = -m manai.fixture_harness --plan {plan}\n"
        f"list_args = -m manai.fixture_harness --plan {plan} --list\n"
        "timeout_s = 30\n"
        "\n"
        "[probe]\n"
        "backend = simulated\n"
        f"scenario = {scenario}\n"
        "\n"
        "[experiment]\n"
        "rate_hz = 100\n"
        "iterations = 1\n"
        "revision = rev-cli\n"
        f"data_dir = {tmp_path / 'data'}\n"
    )
    return tmp_path, plan, scenario, config, harness_line


class TestRun:
    def test_run_with_config_stores_record(self, workspace, capsys):
        tmp_path, _, _, config, _ = workspace
        code = main(["run", "--config", str(config)])
        out = capsys.readouterr().out
        assert code == 0
        assert "config experiment.rate_hz" in out
        assert "demo::alpha" in out
        stored = Store(tmp_path / "data").load("rev-cli")
        assert len(stored) == 1

    def test_flags_equal_config_file(self, workspace, capsys):
        tmp_path, plan, scenario, config, harness_line = workspace

        def echo_lines(argv):
            assert main(argv) == 0
            return sorted(
                line
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("config ") and "data_dir" not in line
            )

        from_file = echo_lines(["run", "--config", str(config)])
        from_flags = echo_lines(
            [
                "run",
                "--harness", harness_line,
                "--list-args", f"-m manai.fixture_harness --plan {plan} --list",
                "--probe", "simulated",
                "--scenario", str(scenario),
                "--rate", "100",
                "--iterations", "1",
                "--revision", "rev-cli",
                "--timeout", "30",
                "--data-dir", str(tmp_path / "data-flags"),
            ]
        )
        assert from_file == from_flags

    def test_select_subset(self, workspace, capsys):
        tmp_path, _, _, config, _ = workspace
        code = main(["run", "--config", str(config), "--select", "demo::beta",
                     "--revision", "rev-sel"])
        assert code == 0
        record = Store(tmp_path / "data").load("rev-sel")[0]
        assert [str(t) for t in record.summaries] == ["demo::beta"]

    def test_env_data_dir_respected(self, workspace, monkeypatch, capsys):
        tmp_path, _, _, config, _ = workspace
        env_dir = tmp_path / "env-data"
        monkeypatch.setenv("MANAI_DATA_DIR", str(env_dir))
        # Config file data_dir loses to the environment variable.
        code = main(["run", "--config", str(config), "--revision", "rev-env"])
        assert code == 0
        assert Store(env_dir).load("rev-env")


class TestLiveRun:
    def test_run_honours_configured_powercap_root(self, tmp_path, monkeypatch, capsys):
        # Counters start just below their range and a writer thread advances
        # them through one wrap while the test runs. The writer adds far less
        # than one range in total, so a misread wrap (about max_range in one
        # sample) cannot hide below the bound asserted at the end. The probe
        # holds its counter fds open, so the writer rewrites each file in
        # place at a fixed width, as sysfs presents a changing attribute;
        # replacing the file would leave the probe reading the old inode.
        monkeypatch.delenv("MANAI_POWERCAP_ROOT", raising=False)
        monkeypatch.delenv("MANAI_DATA_DIR", raising=False)
        max_range = 5_000_000
        width = len(str(max_range - 1))
        steps = {PKG: 1000, CORE: 400}
        start = {domain: max_range - 50 * step for domain, step in steps.items()}
        root = make_powercap_tree(
            tmp_path / "powercap",
            {
                "intel-rapl:0": {
                    "name": "package-0",
                    "energy_uj": f"{start[PKG]:0{width}d}",
                    "max_energy_range_uj": max_range,
                },
                "intel-rapl:0:0": {
                    "name": "core",
                    "energy_uj": f"{start[CORE]:0{width}d}",
                    "max_energy_range_uj": max_range,
                },
            },
        )
        paths = {
            PKG: root / "intel-rapl:0" / "energy_uj",
            CORE: root / "intel-rapl:0" / "intel-rapl:0:0" / "energy_uj",
        }
        added = {domain: 0 for domain in steps}
        wraps = {domain: 0 for domain in steps}
        stop = threading.Event()

        def write_counters():
            values = dict(start)
            fds = {domain: os.open(path, os.O_WRONLY) for domain, path in paths.items()}
            try:
                while not stop.wait(0.001) and added[PKG] < max_range // 2:
                    for domain, step in steps.items():
                        values[domain] += step
                        if values[domain] >= max_range:
                            values[domain] -= max_range
                            wraps[domain] += 1
                        os.pwrite(fds[domain], f"{values[domain]:0{width}d}\n".encode(), 0)
                        added[domain] += step
            finally:
                for fd in fds.values():
                    os.close(fd)

        plan = write_plan(tmp_path / "plan.txt", ["test demo::live sleep_ms=150"])
        harness_args = f"-m manai.fixture_harness --plan {plan}"
        config = tmp_path / "live.cfg"
        config.write_text(
            "[harness]\n"
            f"program = {sys.executable}\n"
            f"args = {harness_args}\n"
            f"list_args = {harness_args} --list\n"
            "timeout_s = 30\n"
            "\n"
            "[probe]\n"
            "backend = rapl\n"
            f"powercap_root = {root}\n"
            "\n"
            "[experiment]\n"
            "rate_hz = 1000\n"
            "iterations = 3\n"
            "select = demo::live\n"
            "revision = rev-live\n"
            f"data_dir = {tmp_path / 'data'}\n"
        )

        writer = threading.Thread(target=write_counters, name="counter-writer")
        writer.start()
        try:
            code = main(["run", "--config", str(config)])
        finally:
            stop.set()
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == 0, capsys.readouterr().err
        assert wraps[PKG] >= 1 and wraps[CORE] >= 1

        results = Store(tmp_path / "data").latest("rev-live").results[TestId("demo", "live")]
        assert len(results) == 3
        assert all(r.status is TestStatus.PASS for r in results)
        for result in results:
            assert result.samples
            assert all(a.end_ns == b.start_ns for a, b in zip(result.samples, result.samples[1:]))
            for sample in result.samples:
                for domain, energy_uj in sample.energy_uj.items():
                    assert energy_uj <= added[domain]
        for domain in steps:
            seen = sum(s.energy_uj[domain] for r in results for s in r.samples)
            assert seen > 0, f"the probe never saw {domain} advance"


class TestExitCodes:
    def test_unknown_revision_is_user_error(self, workspace, capsys):
        tmp_path, _, _, config, _ = workspace
        code = main(["report", "--config", str(config), "--revision", "nope"])
        captured = capsys.readouterr()
        assert code == 1
        assert "no records for revision" in captured.err

    def test_probe_check_without_probe_is_env_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MANAI_POWERCAP_ROOT", str(tmp_path / "missing"))
        code = main(["probe-check"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no powercap zones" in captured.err

    def test_bad_usage_is_user_error(self, capsys):
        assert main(["report"]) == 1  # neither --revision nor --evolution
        assert main(["run", "--rate"]) == 1  # missing value

    def test_malformed_scenario_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("update_interval_ns=1000 max_range_uj=10\nduration_ns=5 package=-2\n")
        code = main(["probe-check", "--probe", "simulated", "--scenario", str(bad)])
        assert code == 1

    def test_missing_harness_is_user_error(self, tmp_path, capsys):
        code = main(["list", "--data-dir", str(tmp_path)])
        assert code == 1

    def test_unlaunchable_harness_is_env_error(self, tmp_path, capsys):
        code = main(["list", "--harness", "/nonexistent/prog"])
        assert code == 2


class TestProbeCheck:
    def test_simulated_probe_reports_domains(self, workspace, capsys):
        _, _, scenario, _, _ = workspace
        code = main(["probe-check", "--probe", "simulated", "--scenario", str(scenario)])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: simulated" in out
        assert "domain package:0" in out
        assert "read permission ok" in out


class TestListCommand:
    def test_lists_discovered_tests(self, workspace, capsys):
        _, _, _, config, _ = workspace
        code = main(["list", "--config", str(config)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["demo::alpha", "demo::beta"]


class TestReportCommands:
    @pytest.fixture
    def populated(self, workspace, capsys):
        tmp_path, _, _, config, _ = workspace
        for revision in ("r1", "r2"):
            assert main(["run", "--config", str(config), "--revision", revision]) == 0
        capsys.readouterr()
        return tmp_path, config

    def test_report_csv_to_file(self, populated, tmp_path, capsys):
        _, config = populated
        out_file = tmp_path / "report.csv"
        code = main([
            "report", "--config", str(config), "--revision", "r1",
            "--format", "csv", "--out", str(out_file),
        ])
        assert code == 0
        assert out_file.read_text().splitlines()[0] == "test,domain,statistic,value,unit"

    def test_report_machine_parses(self, populated, capsys):
        _, config = populated
        code = main([
            "report", "--config", str(config), "--revision", "r1", "--format", "machine",
        ])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["revision_label"] == "r1"

    def test_evolution_view(self, populated, capsys):
        _, config = populated
        code = main([
            "report", "--config", str(config), "--evolution", "demo::alpha", "--no-color",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "demo::alpha" in out
        assert "r1" in out and "r2" in out

    def test_domain_filter_selecting_nothing_exits_1(self, populated, capsys):
        _, config = populated
        code = main([
            "report", "--config", str(config), "--revision", "r1", "--domains", "dram:0",
        ])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_compare(self, populated, capsys):
        _, config = populated
        code = main(["compare", "r1", "r2", "--config", str(config), "--no-color"])
        out = capsys.readouterr().out
        assert code == 0
        assert "demo::alpha" in out
        assert "compare r1 -> r2" in out


class TestBaselineCommand:
    def test_writes_profile(self, workspace, capsys, tmp_path):
        _, _, scenario, _, _ = workspace
        out_file = tmp_path / "baseline.json"
        code = main([
            "baseline", "--probe", "simulated", "--scenario", str(scenario),
            "--duration", "1.0", "--out", str(out_file),
        ])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["powers_w"]["package:0"] == pytest.approx(10.0, abs=0.5)
