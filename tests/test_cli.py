"""Command line contract: exit codes, flag/config equivalence, headless use."""

from __future__ import annotations

import fcntl
import importlib
import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

from manai import errors, experiment
from manai.cli import _COMMANDS, _SETTINGS, main
from manai.harness import TestId, TestStatus
from manai.results import attribute
from manai.store import Store

from conftest import (
    CORE,
    PKG,
    SteppingProbe,
    make_powercap_tree,
    make_record,
    write_plan,
    write_scenario,
)

NS = 10**9
MS = 10**6


# A command that must return at once gets this long in a child process.
CHILD_TIMEOUT_S = 8


def run_manai(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m manai argv`` in a child that is killed after
    CHILD_TIMEOUT_S, so a command that hangs fails its test."""
    return subprocess.run(
        [sys.executable, "-m", "manai", *argv],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


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


# Every command's option strings and positionals, as the first release of
# the flag set accepted them. A flag that goes or changes its spelling
# breaks scripts that call manai.
SURFACE = {
    "probe-check": (
        {"-h", "--help", "--config", "--data-dir", "--no-color", "--width",
         "--probe", "--scenario", "--update-interval-ns"},
        [],
    ),
    "list": (
        {"-h", "--help", "--config", "--data-dir", "--no-color", "--width",
         "--harness", "--list-args"},
        [],
    ),
    "run": (
        {"-h", "--help", "--config", "--data-dir", "--no-color", "--width",
         "--probe", "--scenario", "--update-interval-ns", "--harness", "--list-args",
         "--rate", "--iterations", "--select", "--revision", "--baseline", "--timeout"},
        [],
    ),
    "report": (
        {"-h", "--help", "--config", "--data-dir", "--no-color", "--width",
         "--revision", "--evolution", "--limit", "--domains", "--format", "--out"},
        [],
    ),
    "compare": (
        {"-h", "--help", "--config", "--data-dir", "--no-color", "--width",
         "--domains", "--format", "--out"},
        ["revision_a", "revision_b"],
    ),
    "baseline": (
        {"-h", "--help", "--config", "--data-dir", "--no-color", "--width",
         "--probe", "--scenario", "--update-interval-ns", "--duration", "--out"},
        [],
    ),
}

COMMAND_HELP = {
    "probe-check": "enumerate energy domains and check access",
    "list": "discover tests declared by the harness",
    "run": "execute an energy experiment",
    "report": "render stored results",
    "compare": "compare two stored revisions",
    "baseline": "calibrate idle power on a quiescent machine",
}


def help_text(argv: list[str], capsys) -> str:
    """What ``main(argv)`` prints for a help request; it exits 0."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def command_surface(command: str, capsys) -> tuple[set[str], list[str]]:
    """The option strings and positionals that ``manai <command> --help`` lists."""
    options, positionals, section = set(), [], None
    for line in help_text([command, "--help"], capsys).splitlines():
        if line.endswith(":") and not line.startswith(" "):
            section = line
        elif section == "options:" and line.lstrip().startswith("-"):
            # "  -h, --help   text" or "  --format {a,b}": the part before
            # the help text, one alias per comma, the flag before its value.
            spelled = re.split(r"\s{2,}", line.strip())[0]
            options |= {alias.split()[0] for alias in spelled.split(", ")}
        elif section == "positional arguments:" and line.startswith("  ") and line.strip():
            positionals.append(line.split()[0])
    return options, positionals


class TestSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_every_command_keeps_its_flags(self, command, capsys):
        assert command_surface(command, capsys) == SURFACE[command]

    def test_help_lists_every_command(self, capsys):
        text = help_text(["--help"], capsys)
        assert text.startswith(
            "usage: manai [-h] {probe-check,list,run,report,compare,baseline} ...\n"
        )
        for command, line in COMMAND_HELP.items():
            assert re.search(rf"^    {re.escape(command)} +{re.escape(line)}$", text, re.M), command

    def test_command_help_names_the_command(self, capsys):
        for command in SURFACE:
            assert help_text([command, "-h"], capsys).startswith(f"usage: manai {command} [-h] ")

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'probe-check', "
                    "'list', 'run', 'report', 'compare', 'baseline')"),
        (["--config", "x", "report"], "argument command: invalid choice: 'x' (choose from "
                                      "'probe-check', 'list', 'run', 'report', 'compare', 'baseline')"),
        (["report", "--bogus"], "unrecognized arguments: --bogus"),
        (["compare", "a"], "the following arguments are required: revision_b"),
        (["report", "--format", "pdf"], "argument --format: invalid choice: 'pdf' "
                                        "(choose from 'term', 'html', 'csv', 'machine')"),
        (["report", "--limit", "x"], "argument --limit: invalid int value: 'x'"),
    ])
    def test_bad_usage_exits_1_with_argparse_message(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestRun:
    def test_run_with_config_stores_record(self, workspace, capsys):
        tmp_path, _, _, config, _ = workspace
        code = main(["run", "--config", str(config)])
        out = capsys.readouterr().out
        assert code == 0
        assert "config experiment.iterations = 1" in out
        assert "demo::alpha" in out
        stored = Store(tmp_path / "data").load("rev-cli")
        assert len(stored) == 1

    def test_run_prints_the_record_it_made(self, workspace, capsys):
        # A record stamped later than the run's own is the label's newest,
        # yet the summary printed is the run's record.
        tmp_path, _, _, config, _ = workspace
        later = "2099-01-01T00:00:00.000000+00:00"
        Store(tmp_path / "data").save(make_record("rev-cli", later, {"demo::alpha": 1_000_000}))
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        (made,) = [r for r in Store(tmp_path / "data").load("rev-cli") if r.created_at != later]
        assert f"revision rev-cli  ({made.created_at})" in out
        assert later not in out

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

    @pytest.mark.parametrize("source", ["none", "config", "flag", "both"])
    def test_rate_is_accepted_ignored_and_warned_about_once(self, workspace, caplog, capsys, source):
        # The workspace config file sets rate_hz = 100.
        tmp_path, _, scenario, config, harness_line = workspace
        argv = ["run", "--select", "demo::alpha", "--revision", "rev-rate", "--data-dir", str(tmp_path / "rate")]
        if source in ("config", "both"):
            argv += ["--config", str(config)]
        else:
            argv += ["--harness", harness_line, "--probe", "simulated", "--scenario", str(scenario)]
        if source in ("flag", "both"):
            argv += ["--rate", "100"]
        with caplog.at_level(logging.WARNING, logger="manai"):
            assert main(argv) == 0
        warning = "ignoring [experiment] rate_hz and --rate: every window is read at its edges"
        assert [record.getMessage() for record in caplog.records] == ([] if source == "none" else [warning])
        assert "config experiment.rate_hz" not in capsys.readouterr().out
        stored = Store(tmp_path / "rate").latest("rev-rate").config
        assert not [key for key in stored if "rate" in key]

    def test_harness_env_reaches_the_child(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MANAI_PROBE_VAR", raising=False)
        seen = tmp_path / "seen.txt"
        script = tmp_path / "harness.py"
        script.write_text(
            "import os\n"
            f"open({str(seen)!r}, 'w').write(os.environ.get('MANAI_PROBE_VAR', '<unset>'))\n"
            "test = os.environ['MANAI_FILTER']\n"
            "print('##MANAI:BEGIN', test, flush=True)\n"
            "print('##MANAI:END', test, 'PASS', flush=True)\n"
        )
        scenario = write_scenario(tmp_path / "scenario.txt", [(3600 * NS, {"package": "10"})])
        config = tmp_path / "exp.cfg"
        config.write_text(
            "[harness]\n"
            f"program = {sys.executable}\n"
            f"args = {script}\n"
            "env.MANAI_PROBE_VAR = x\n"
            "[probe]\n"
            "backend = simulated\n"
            f"scenario = {scenario}\n"
            "[experiment]\n"
            "select = demo::a\n"
            "revision = rev-env\n"
        )
        assert main(["run", "--config", str(config), "--data-dir", str(tmp_path / "data")]) == 0
        assert "config harness.env = MANAI_PROBE_VAR=x\n" in capsys.readouterr().out
        assert seen.read_text() == "x"

    def test_no_revision_outside_a_repository_exits_1(self, tmp_path, monkeypatch, capsys):
        # The harness cannot be launched: a refusal that came only after a
        # spawn would exit 2 instead.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        scenario = write_scenario(tmp_path / "scenario.txt", [(NS, {"package": "10"})])
        data_dir = tmp_path / "data"
        code = main([
            "run", "--probe", "simulated", "--scenario", str(scenario), "--harness", "/nonexistent/prog",
            "--select", "demo::a", "--data-dir", str(data_dir),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: bad [experiment] revision '': no revision label given and no git HEAD found; pass --revision\n"
        )
        assert not data_dir.exists()

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

    @staticmethod
    def _run_live(tmp_path, monkeypatch, zones: dict, rate_hz: int) -> int:
        """``manai run`` of one short test over a static fake powercap tree."""
        monkeypatch.delenv("MANAI_DATA_DIR", raising=False)
        root = make_powercap_tree(tmp_path / "powercap", zones)
        monkeypatch.setenv("MANAI_POWERCAP_ROOT", str(root))
        plan = write_plan(tmp_path / "plan.txt", ["test demo::a sleep_ms=30"])
        harness = f"{sys.executable} -m manai.fixture_harness --plan {plan}"
        return main([
            "run", "--harness", harness, "--probe", "rapl", "--rate", str(rate_hz),
            "--select", "demo::a", "--revision", "rev-live", "--data-dir", str(tmp_path / "data"),
        ])

    def test_wrap_ambiguous_rate_exits_1_and_saves_nothing(self, tmp_path, monkeypatch, capsys):
        # A 1 J range at up to 1 kW wraps within 1 ms, so a 100 Hz poll
        # cannot tell one wrap from several; the wrap check's refusal must
        # reach the exit code. That is one 1 ms refresh: no rate helps.
        zones = {
            "intel-rapl:0": {"name": "package-0", "energy_uj": 10, "max_energy_range_uj": 10**6},
        }
        code = self._run_live(tmp_path, monkeypatch, zones, rate_hz=100)
        assert code == 1
        assert "the counter range is too small for the refresh interval" in capsys.readouterr().err
        assert not (tmp_path / "data" / "revisions").exists()

    def test_wrap_ambiguous_rate_is_refused_before_anything_runs(self, tmp_path, capsys):
        # 200 W fills a 0.1 J range in half a 1 ms refresh, so no wrap guard
        # is safe. The harness cannot be launched: a refusal that came only
        # after discovery or a spawn would exit 2 instead.
        scenario = write_scenario(
            tmp_path / "scenario.txt", [(NS, {"package": "200"})], max_range_uj=10**5
        )
        data_dir = tmp_path / "data"
        code = main([
            "run", "--probe", "simulated", "--scenario", str(scenario), "--rate", "100",
            "--harness", "/nonexistent/prog", "--select", "demo::a", "--revision", "rev",
            "--data-dir", str(data_dir),
        ])
        assert code == 1
        assert "the counter range is too small for the refresh interval" in capsys.readouterr().err
        assert not data_dir.exists()

    def test_scenario_peak_that_wraps_within_a_tick_exits_1(self, tmp_path, capsys):
        # 20 kW against a 10 J range wraps twice per 1 ms tick: a 1 kHz
        # poll would attribute 0 J to every test, and so would any rate.
        scenario = write_scenario(
            tmp_path / "scenario.txt", [(NS, {"package": "20000"})], max_range_uj=10**7
        )
        plan = write_plan(tmp_path / "plan.txt", ["test demo::a sleep_ms=10"])
        data_dir = tmp_path / "data"
        code = main([
            "run", "--probe", "simulated", "--scenario", str(scenario), "--rate", "1000",
            "--harness", f"{sys.executable} -m manai.fixture_harness --plan {plan}",
            "--select", "demo::a", "--revision", "rev", "--data-dir", str(data_dir),
        ])
        assert code == 1
        assert "the counter range is too small for the refresh interval" in capsys.readouterr().err
        assert not data_dir.exists()

    @pytest.mark.parametrize("fail_at", [0, 1], ids=["begin", "end"])
    def test_failed_read_at_an_edge_exits_2(self, tmp_path, monkeypatch, capsys, fail_at):
        # At 1 W a 1 kJ range needs no guard reading within the test, so
        # read 0 is BEGIN's and read 1 is END's. The harness sleeps after
        # END, so only a kill ends it in time.
        monkeypatch.delenv("MANAI_DATA_DIR", raising=False)
        probe = SteppingProbe(step_uj=1, max_range_uj=10**9, peak_w=1.0, fail_at=fail_at)
        monkeypatch.setattr(experiment, "create_probe", lambda *args: probe)
        pid_file = tmp_path / "pid"
        script = tmp_path / "harness.py"
        script.write_text(
            "import os, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "print('##MANAI:BEGIN demo::a', flush=True)\n"
            "time.sleep(0.05)\n"
            "print('##MANAI:END demo::a PASS', flush=True)\n"
            "time.sleep(30)\n"
        )
        data_dir = tmp_path / "data"
        started = time.monotonic()
        code = main([
            "run", "--harness", f"{sys.executable} {script}", "--probe", "rapl", "--select", "demo::a",
            "--revision", "rev", "--data-dir", str(data_dir),
        ])
        assert time.monotonic() - started < 4.0
        assert code == 2
        assert (
            f"probe lost during a test window: reading package:0 failed: scripted failure at read {fail_at}"
            in capsys.readouterr().err
        )
        assert len(probe.readings) == fail_at
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)
        assert not (data_dir / "revisions").exists()
        with open(data_dir / "lock") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)

    def test_counter_outside_range_exits_2(self, tmp_path, monkeypatch, capsys):
        zones = {
            "intel-rapl:0": {"name": "package-0", "energy_uj": 10, "max_energy_range_uj": 10**9},
            "intel-rapl:0:0": {"name": "core", "energy_uj": 10**9, "max_energy_range_uj": 10**9},
        }
        code = self._run_live(tmp_path, monkeypatch, zones, rate_hz=1000)
        assert code == 2
        assert "reading core:0 failed: counter 1000000000 outside" in capsys.readouterr().err
        assert not (tmp_path / "data" / "revisions").exists()


class TestExitCodes:
    def test_every_error_has_one_exit_class(self):
        bases = (errors.UserError, errors.EnvError)
        skipped = {errors.ManaiError, *bases}
        classes = [
            value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
            and value.__module__ == errors.__name__ and value not in skipped
        ]
        assert classes
        for cls in classes:
            assert sum(issubclass(cls, base) for base in bases) == 1, cls.__name__

    @pytest.mark.parametrize("raised, message", [
        (KeyboardInterrupt(), "interrupted\n"),
        (RuntimeError("boom"), "internal error: boom\n"),
    ])
    def test_interrupt_and_internal_error_exit_3(self, monkeypatch, capsys, raised, message):
        def handler(args, cfg):
            raise raised

        _, help_line, add_flags = _COMMANDS["list"]
        monkeypatch.setitem(_COMMANDS, "list", (handler, help_line, add_flags))
        assert main(["list"]) == 3
        assert capsys.readouterr().err.endswith(message)

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

    def test_undecodable_scenario_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"update_interval_ns=1000000 max_range_uj=1000000000\nduration_ns=1000 package=1\xff\n")
        code = main(["probe-check", "--probe", "simulated", "--scenario", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2: not UTF-8 text" in err

    def test_undecodable_config_is_user_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[experiment]\niterations = 3\xff\n")
        code = main(["list", "--config", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"cannot read config {bad}" in err

    def test_undecodable_record_is_env_error(self, workspace, capsys):
        tmp_path, _, _, config, _ = workspace
        assert main(["run", "--config", str(config)]) == 0
        (record,) = (tmp_path / "data").rglob("*.record")
        with record.open("ab") as handle:
            handle.write(b"\xff")
        capsys.readouterr()
        code = main(["report", "--config", str(config), "--revision", "rev-cli"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"unreadable record {record}" in err

    @pytest.mark.parametrize("power", ["NaN", "sNaN", "inf", "1e400000000"])
    def test_non_finite_scenario_power_is_user_error(self, tmp_path, capsys, power):
        bad = tmp_path / "nan.txt"
        bad.write_text(f"update_interval_ns=1000 max_range_uj=10\nduration_ns=5 package={power}\n")
        code = main(["probe-check", "--probe", "simulated", "--scenario", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"line 2: bad power value {power!r}" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("power", ["1000001", "1e999990"])
    def test_scenario_power_above_bound_is_user_error(self, tmp_path, capsys, power):
        bad = tmp_path / "huge.txt"
        bad.write_text(f"update_interval_ns=1000 max_range_uj=10\nduration_ns=5 package={power}\n")
        code = main(["probe-check", "--probe", "simulated", "--scenario", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"line 2: power above 1000000 W: {power!r}" in err

    def test_missing_harness_is_user_error(self, tmp_path, capsys):
        code = main(["list", "--data-dir", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("command", ["list", "run"])
    def test_unbalanced_harness_quote_is_user_error(self, tmp_path, capsys, command):
        data_dir = tmp_path / "data"
        argv = [command, "--harness", "'unclosed", "--data-dir", str(data_dir)]
        if command == "run":
            argv += ["--select", "demo::a", "--revision", "rev"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad --harness \"'unclosed\": No closing quotation")
        assert "internal error" not in err
        assert not data_dir.exists()

    def test_unlaunchable_harness_is_env_error(self, tmp_path, capsys):
        code = main(["list", "--harness", "/nonexistent/prog"])
        assert code == 2

    def test_malformed_discovery_marker_is_env_error(self, tmp_path, capsys):
        # The fixture harness declares the plan's id verbatim: ##MANAI:TEST broken
        plan = write_plan(tmp_path / "plan.txt", ["test broken"])
        harness = f"{sys.executable} -m manai.fixture_harness --plan {plan}"
        list_args = f"-m manai.fixture_harness --plan {plan} --list"
        code = main(["list", "--harness", harness, "--list-args", list_args])
        assert code == 2
        assert "bad marker line" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--timeout", "0", "test timeout must be positive and finite, or none; got 0.0"),
        ("--timeout", "-1", "test timeout must be positive and finite, or none; got -1.0"),
        ("--timeout", "nan", "test timeout must be positive and finite, or none; got nan"),
        ("--timeout", "inf", "test timeout must be positive and finite, or none; got inf"),
        ("--baseline", "calibrate:nan", "needs a finite window of at least 1 s, got nan"),
        ("--baseline", "calibrate:inf", "needs a finite window of at least 1 s, got inf"),
    ])
    def test_bad_rate_or_timeout_exits_1_and_saves_nothing(self, tmp_path, capsys, flag, value, message):
        # The harness cannot be launched: a refusal that came only after a
        # spawn would exit 2 instead.
        scenario = write_scenario(tmp_path / "scenario.txt", [(NS, {"package": "10"})])
        data_dir = tmp_path / "data"
        code = main([
            "run", "--probe", "simulated", "--scenario", str(scenario), flag, value,
            "--harness", "/nonexistent/prog", "--select", "demo::a", "--revision", "rev",
            "--data-dir", str(data_dir),
        ])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not data_dir.exists()

    def test_calibration_above_an_hour_exits_1_before_the_data_dir(self, tmp_path):
        # The harness cannot be launched; in a child with a timeout, a
        # calibration that never ends fails the test.
        scenario = write_scenario(tmp_path / "scenario.txt", [(NS, {"package": "10"})])
        data_dir = tmp_path / "data"
        child = run_manai([
            "run", "--probe", "simulated", "--scenario", str(scenario),
            "--baseline", "calibrate:1e12", "--harness", "/nonexistent/prog",
            "--select", "demo::a", "--revision", "rev", "--data-dir", str(data_dir),
        ])
        assert child.returncode == 1
        assert child.stderr.startswith("error: bad [experiment] baseline 'calibrate:1e12': ")
        assert "at most 3600 s" in child.stderr
        assert not data_dir.exists()

    @staticmethod
    def _run_with(tmp_path, sections: dict, flags: list[str]) -> int:
        """``manai run`` from a config file of ``sections`` over a base whose
        harness cannot be launched: a refusal that came only after a spawn
        would exit 2 instead."""
        scenario = write_scenario(tmp_path / "scenario.txt", [(NS, {"package": "10"})])
        base = {
            "harness": {"program": "/nonexistent/prog"},
            "probe": {"backend": "simulated", "scenario": str(scenario)},
            "experiment": {"select": "demo::a", "revision": "rev", "data_dir": str(tmp_path / "data")},
        }
        for section, values in sections.items():
            base.setdefault(section, {}).update(values)
        config = tmp_path / "exp.cfg"
        config.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
            for section, values in base.items()
        ))
        return main(["run", "--config", str(config), *flags])

    @pytest.mark.parametrize("sections, flags", [
        pytest.param({"bogus": {"key": "1"}}, [], id="unknown-section"),
        pytest.param({"probe": {"colour": "red"}}, [], id="unknown-key"),
        pytest.param({"experiment": {"iterations": "two"}}, [], id="iterations-not-int"),
        pytest.param({}, ["--probe", "quantum"], id="backend-flag"),
        pytest.param({"probe": {"backend": "quantum"}}, [], id="backend-file"),
        pytest.param({}, ["--baseline", "sometimes"], id="baseline-text"),
        pytest.param({}, ["--baseline", "fixed:{tmp}/missing.json"], id="profile-missing"),
        pytest.param({"harness": {"program": ""}}, [], id="program-empty"),
        pytest.param({}, ["--select", "nocolon"], id="select-id"),
    ])
    def test_bad_setting_exits_1_and_saves_nothing(self, tmp_path, capsys, sections, flags):
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        code = self._run_with(tmp_path, sections, flags)
        err = capsys.readouterr().err
        assert code == 1
        assert any(line.startswith("error: ") for line in err.splitlines()), err
        assert "internal error" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("sections, flags, name", [
        ({"experiment": {"iterations": "two"}}, [], "[experiment] iterations 'two'"),
        ({"probe": {"update_interval_ns": "soon"}}, [], "[probe] update_interval_ns 'soon'"),
        ({"harness": {"timeout_s": "soon"}}, [], "[harness] timeout_s 'soon'"),
        ({"harness": {"args": "'unclosed"}}, [], "[harness] args \"'unclosed\""),
        ({}, ["--probe", "quantum"], "[probe] backend 'quantum'"),
        ({"probe": {"backend": "quantum"}}, [], "[probe] backend 'quantum'"),
        ({}, ["--baseline", "sometimes"], "[experiment] baseline 'sometimes'"),
        ({}, ["--baseline", "calibrate:0.5"], "[experiment] baseline 'calibrate:0.5'"),
        ({}, ["--select", "nocolon"], "[experiment] select 'nocolon'"),
    ])
    def test_bad_setting_names_its_key_and_text(self, tmp_path, capsys, sections, flags, name):
        assert self._run_with(tmp_path, sections, flags) == 1
        assert capsys.readouterr().err.startswith(f"error: bad {name}: ")

    @pytest.mark.parametrize("doc, message", [
        ('{"powers_w": {"package:0": NaN}, "duration_s": 2.0, "calibrated_at": "t"}',
         "baseline power must be finite and non-negative"),
        ('{"powers_w": {"package:0": 1.0}, "duration_s": Infinity, "calibrated_at": "t"}',
         "baseline window must be finite and at least 1 s, got inf"),
        ("[]", "cannot load baseline profile"),
        ('{"powers_w": [1.0], "duration_s": 2.0, "calibrated_at": "t"}', "cannot load baseline profile"),
    ])
    def test_bad_fixed_profile_exits_1_before_the_test_runs(self, tmp_path, capsys, doc, message):
        # The fixture harness would run the test: a non-finite power
        # accepted here would fail only later, in the sampler.
        profile = tmp_path / "idle.json"
        profile.write_text(doc)
        plan = write_plan(tmp_path / "plan.txt", ["test demo::a sleep_ms=10"])
        harness = f"{sys.executable} -m manai.fixture_harness --plan {plan}"
        code = self._run_with(tmp_path, {}, ["--harness", harness, "--baseline", f"fixed:{profile}"])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err
        assert "internal error" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command", ["probe-check", "baseline", "run"])
    def test_simulated_probe_without_scenario_exits_1(self, tmp_path, capsys, command):
        data_dir = tmp_path / "data"
        argv = [command, "--probe", "simulated", "--data-dir", str(data_dir)]
        if command == "run":
            argv += ["--harness", "/nonexistent/prog", "--select", "demo::a", "--revision", "rev"]
        assert main(argv) == 1
        assert "simulated probe requires a scenario" in capsys.readouterr().err
        assert not data_dir.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["probe-check", "baseline", "run"])
    def test_simulated_probe_with_update_interval_exits_1(self, workspace, capsys, command, source):
        # The scenario header sets a simulated probe's refresh interval; an
        # override would only enter the echoed config and the digest.
        tmp_path, _, _, config, _ = workspace
        argv = [command, "--config", str(config)]
        if source == "flag":
            argv.append("--update-interval-ns=5000000")
        else:
            config.write_text(config.read_text().replace("[probe]\n", "[probe]\nupdate_interval_ns = 5000000\n"))
        assert main(argv) == 1
        assert "of its scenario header" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_bad_evolution_id_is_user_error(self, tmp_path, capsys):
        code = main(["report", "--evolution", "nocolon", "--data-dir", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "internal error" not in err

    @pytest.mark.parametrize("interval", ["-5", "0"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_positive_update_interval_is_user_error(
        self, powercap_two_domains, tmp_path, monkeypatch, capsys, interval, source
    ):
        monkeypatch.setenv("MANAI_POWERCAP_ROOT", str(powercap_two_domains))
        if source == "flag":
            argv = ["probe-check", f"--update-interval-ns={interval}"]
        else:
            config = tmp_path / "probe.cfg"
            config.write_text(f"[probe]\nupdate_interval_ns = {interval}\n")
            argv = ["probe-check", "--config", str(config)]
        assert main(argv) == 1
        assert "update_interval_ns must be positive" in capsys.readouterr().err


class TestProbeCheck:
    def test_simulated_probe_reports_domains(self, workspace, capsys):
        _, _, scenario, _, _ = workspace
        code = main(["probe-check", "--probe", "simulated", "--scenario", str(scenario)])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend: simulated" in out
        assert "domain package:0" in out
        assert "read permission ok" in out

    def test_simulated_probe_reads_zero_at_the_origin(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "scenario.txt", [(NS, {"package": "12.5", "core": "4", "dram": "2"})]
        )
        code = main(["probe-check", "--probe", "simulated", "--scenario", str(scenario)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[2:] == [
            f"domain {domain}: counter 0 uJ, range {10**12} uJ, read permission ok"
            for domain in ("package:0", "core:0", "dram:0")
        ]


class TestListCommand:
    def test_lists_discovered_tests(self, workspace, capsys):
        _, _, _, config, _ = workspace
        code = main(["list", "--config", str(config)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["demo::alpha", "demo::beta"]


    def test_failed_discovery_exits_2_naming_its_status(self, tmp_path):
        # The fixture harness refuses the plan and exits 1: that is not an
        # empty suite.
        plan = tmp_path / "plan.txt"
        plan.write_bytes(b"test demo::a\ntest demo::b\xff\n")
        child = run_manai(["list", "--harness", f"{sys.executable} -m manai.fixture_harness --plan {plan}",
                           "--list-args", f"-m manai.fixture_harness --plan {plan} --list"])
        assert (child.returncode, child.stdout) == (2, "")
        assert "plan line 2: not UTF-8 text: invalid start byte at byte 25\n" in child.stderr
        assert "error: discovery process exited with status 1\n" in child.stderr


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

    @pytest.mark.parametrize("argv, message", [
        (["compare", "r1", "r1"], "compare scope needs two distinct revisions"),
        (["report", "--evolution", ","], "history scope needs at least one test"),
        (["report", "--evolution", "demo::alpha", "--limit", "0"], "limit must be at least 1, got 0"),
        (["report", "--evolution", "demo::alpha", "--limit", "-1"], "limit must be at least 1, got -1"),
    ])
    def test_bad_report_request_is_user_error(self, populated, capsys, argv, message):
        _, config = populated
        assert main([*argv, "--config", str(config), "--no-color"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_views_never_read_samples(self, workspace, monkeypatch, capsys):
        """run's summary, every format of report, compare and evolution read
        the head files only."""
        _, _, _, config, _ = workspace

        def refuse(self, path):
            raise AssertionError(f"read the samples of {path}")

        monkeypatch.setattr(Store, "_read_samples", refuse)
        for revision in ("r1", "r2"):
            assert main(["run", "--config", str(config), "--revision", revision]) == 0
            assert "mean package:0 energy per test" in capsys.readouterr().out
        views = (
            ["report", "--revision", "r2"],
            ["compare", "r1", "r2"],
            ["report", "--evolution", "demo::alpha,demo::beta"],
        )
        for view in views:
            for fmt in ("term", "html", "csv", "machine"):
                assert main([*view, "--config", str(config), "--format", fmt, "--no-color"]) == 0
                assert "demo::beta" in capsys.readouterr().out
        with pytest.raises(AssertionError, match="read the samples"):
            Store(workspace[0] / "data").latest("r2")


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

    def test_profile_goes_to_stdout_without_out(self, workspace, capsys):
        _, _, scenario, _, _ = workspace
        assert main(["baseline", "--probe", "simulated", "--scenario", str(scenario), "--duration", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["powers_w"]["package:0"] == 10.0

    def test_simulated_calibration_is_exact(self, workspace, capsys, tmp_path):
        # Replayed on a virtual clock: exactly ten 100 ms polls of 10 W.
        _, _, scenario, _, _ = workspace
        out_file = tmp_path / "baseline.json"
        code = main([
            "baseline", "--probe", "simulated", "--scenario", str(scenario),
            "--duration", "1.0", "--out", str(out_file),
        ])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["powers_w"]["package:0"] == 10.0
        assert doc["duration_s"] == 1.0

    def test_small_counter_range_calibrates_for_baseline_and_run(self, workspace, capsys, tmp_path):
        # 10 W fills a 1 J range in 100 ms, so a 100 ms poll plus one 1 ms
        # refresh could span a full wrap, while a 1 kHz run passes the check.
        _, _, _, _, harness_line = workspace
        scenario = write_scenario(tmp_path / "small.txt", [(3600 * NS, {"package": "10"})], max_range_uj=10**6)
        probe = ["--probe", "simulated", "--scenario", str(scenario)]
        out_file = tmp_path / "baseline.json"
        assert main(["baseline", *probe, "--duration", "2", "--out", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["powers_w"]["package:0"] == 10.0
        assert main([
            "run", *probe, "--rate", "1000", "--baseline", "calibrate:2", "--harness", harness_line,
            "--select", "demo::alpha", "--revision", "rev", "--data-dir", str(tmp_path / "data"),
        ]) == 0
        result, = Store(tmp_path / "data").latest("rev").results[TestId("demo", "alpha")]
        assert result.baseline_applied
        assert result.energy_j[PKG] == 0.0

    @pytest.mark.parametrize("idle_w", [4.0, 25.0])
    def test_fixed_profile_takes_idle_power_off_each_window(self, workspace, capsys, tmp_path, idle_w):
        # 10 W throughout: 4 W of idle leaves 6 W of each window, 25 W
        # leaves nothing.
        _, _, scenario, _, harness_line = workspace
        profile = tmp_path / "idle.json"
        profile.write_text(json.dumps({"powers_w": {"package:0": idle_w}, "duration_s": 2.0, "calibrated_at": "t"}))
        assert main([
            "run", "--probe", "simulated", "--scenario", str(scenario), "--harness", harness_line,
            "--baseline", f"fixed:{profile}", "--iterations", "2", "--select", "demo::alpha,demo::beta",
            "--revision", "rev", "--data-dir", str(tmp_path / "data"),
        ]) == 0
        shown = f"fixed:package:0={idle_w!r}"
        assert f"config experiment.baseline = {shown}\n" in capsys.readouterr().out
        record = Store(tmp_path / "data").latest("rev")
        assert record.config["experiment.baseline"] == shown
        results = [r for runs in record.results.values() for r in runs]
        assert len(results) == 4
        for result in results:
            assert result.baseline_applied and result.status is TestStatus.PASS
            # The same window with the baseline off, from its stored samples.
            raw = attribute(result.samples, 0, result.duration_ns)[PKG]
            idle = Fraction(idle_w) * Fraction(result.duration_ns, NS)
            assert raw == 10 * Fraction(result.duration_ns, NS)
            assert result.energy_j[PKG] == float(max(Fraction(0), raw - idle))

    @pytest.mark.parametrize("command", ["baseline", "run"])
    def test_range_filled_within_one_refresh_exits_1_naming_the_range(self, workspace, capsys, tmp_path, command):
        # 10 W fills a 10 mJ range in one 1 ms refresh: no reading interval,
        # not even the shortest, can tell one wrap from several.
        _, _, _, _, harness_line = workspace
        scenario = write_scenario(tmp_path / "tiny.txt", [(MS, {"package": "10"})], max_range_uj=10_000)
        probe = ["--probe", "simulated", "--scenario", str(scenario)]
        if command == "baseline":
            argv = ["baseline", *probe, "--duration", "1", "--out", str(tmp_path / "baseline.json")]
        else:
            argv = ["run", *probe, "--harness", harness_line, "--select", "demo::alpha",
                    "--revision", "rev", "--data-dir", str(tmp_path / "data")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "sampling interval 1 ns plus one counter refresh (1 ms)" in err
        assert "the counter range is too small for the refresh interval" in err
        assert "increase the sampling rate" not in err
        assert not (tmp_path / "baseline.json").exists()
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("duration", ["nan", "inf", "0.5"])
    def test_window_not_finite_or_below_1_s_exits_1(self, workspace, capsys, tmp_path, duration):
        _, _, scenario, _, _ = workspace
        out_file = tmp_path / "baseline.json"
        code = main([
            "baseline", "--probe", "simulated", "--scenario", str(scenario),
            "--duration", duration, "--out", str(out_file),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert f"needs a finite window of at least 1 s, got {float(duration)!r}" in err
        assert not out_file.exists()

    def test_window_above_an_hour_exits_1_at_once(self, workspace, tmp_path):
        # Replayed tick by tick, this window would never end; in a child
        # with a timeout, such a hang fails the test.
        _, _, scenario, _, _ = workspace
        out_file = tmp_path / "baseline.json"
        child = run_manai([
            "baseline", "--probe", "simulated", "--scenario", str(scenario),
            "--duration", "1e12", "--out", str(out_file),
        ])
        assert child.returncode == 1
        assert "calibration window must be at most 3600 s, got 1000000000000.0" in child.stderr
        assert not out_file.exists()


class TestDocs:
    def test_readme_config_block_lists_every_key(self):
        """The README's config file block and the settings table name the same keys."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config file", 1)[1].split("```", 2)[1]
        documented, section = set(), None
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line.strip("[]")
            elif "=" in line:
                documented.add((section, line.split("=", 1)[0].strip()))
        table = {(section, key) for section, keys in _SETTINGS.items() for key in keys}
        assert documented == table | {("harness", "env.NAME")}

    def test_readme_commands_table_names_every_command(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Commands", 1)[1].split("\n\n", 2)[1]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        assert [row.split("`")[1] for row in rows] == list(_COMMANDS)

    def test_readme_stable_flags_are_accepted(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("Flags (stable):", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", paragraph))
        assert len(documented) >= 20
        accepted = set().union(*(command_surface(c, capsys)[0] for c in _COMMANDS))
        assert documented - accepted == set()

    def test_readme_python_paths_resolve(self):
        """Every backticked ``manai.<module>[.<Name>...]`` path in the README
        names a module, or an attribute reached from one with ``getattr``."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        spans = re.findall(r"`([^`\n]+)`", readme)
        paths = {path for span in spans for path in re.findall(r"\bmanai(?:\.\w+)+", span)}
        assert {"manai.fixture_harness", "manai.store.Store.load"} <= paths
        for path in sorted(paths):
            parts = path.split(".")
            target = importlib.import_module(parts[0])
            for depth, name in enumerate(parts[1:], start=2):
                if isinstance(target, ModuleType) and not hasattr(target, name):
                    importlib.import_module(".".join(parts[:depth]))
                assert hasattr(target, name), f"README names {path}, which does not resolve"
                target = getattr(target, name)
