"""Harness protocol: discovery, single-test runs, robustness to noise."""

from __future__ import annotations

import errno
import gc
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manai import harness
from manai.errors import HarnessSpawnFailed, ProtocolViolation
from manai.harness import HarnessCommand, HarnessRun, TestId, TestStatus, discover, run_one

from conftest import fixture_harness_command, write_plan

MS = 10**6


class TestTestId:
    def test_render_and_parse(self):
        test = TestId("demo", "sort_naive")
        assert str(test) == "demo::sort_naive"
        assert TestId.parse("demo::sort_naive") == test

    @pytest.mark.parametrize("bad", ["", "no_separator", "a::", "::b", "a b::c", "a::b::c"])
    def test_invalid_ids_rejected(self, bad):
        with pytest.raises(ValueError):
            TestId.parse(bad)


class TestDiscover:
    def test_declared_tests_in_order(self, tmp_path):
        plan = write_plan(
            tmp_path / "plan.txt",
            ["test demo::sort_naive sleep_ms=1", "test demo::sort_fast sleep_ms=1"],
        )
        cmd = fixture_harness_command(plan)
        assert discover(cmd) == [
            TestId("demo", "sort_naive"),
            TestId("demo", "sort_fast"),
        ]

    def test_duplicates_dropped(self, tmp_path):
        plan = write_plan(
            tmp_path / "plan.txt",
            ["test demo::a", "test demo::b", "test demo::a"],
        )
        assert discover(fixture_harness_command(plan)) == [
            TestId("demo", "a"),
            TestId("demo", "b"),
        ]

    def test_recased_declaration_is_dropped_with_a_warning(self, tmp_path, caplog):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::A", "test demo::a"])
        with caplog.at_level(logging.WARNING, logger="manai.harness"):
            assert discover(fixture_harness_command(plan)) == [TestId("demo", "A")]
        assert [r.getMessage() for r in caplog.records] == ["test demo::a re-declared with different casing"]

    def test_undecodable_plan_names_its_line(self, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_bytes(b"test demo::a\ntest demo::b\xff\n")
        cmd = fixture_harness_command(plan)
        child = subprocess.run([cmd.program, *cmd.list_args], capture_output=True, text=True, timeout=60)
        assert (child.returncode, child.stdout) == (1, "")
        assert child.stderr == "plan line 2: not UTF-8 text: invalid start byte at byte 25\n"
        with pytest.raises(HarnessSpawnFailed, match="^discovery process exited with status 1$"):
            discover(cmd)

    def test_no_markers_is_empty(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["# nothing declared"])
        assert discover(fixture_harness_command(plan)) == []

    def test_noise_interleaved_is_ignored(self, tmp_path):
        plan = write_plan(
            tmp_path / "plan.txt",
            [f"test suite::case_{i}" for i in range(50)],
        )
        noise = tmp_path / "noise.txt"
        noise.write_text("\n".join(f"[INFO] compiling unit {i}" for i in range(60)) + "\n")
        cmd = fixture_harness_command(plan)
        noisy_cmd = HarnessCommand(
            program=cmd.program,
            args=cmd.args,
            list_args=cmd.list_args + ("--noise-file", str(noise)),
        )
        found = discover(noisy_cmd)
        assert found == [TestId("suite", f"case_{i}") for i in range(50)]

    def test_idempotent(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::a", "test demo::b"])
        cmd = fixture_harness_command(plan)
        assert discover(cmd) == discover(cmd)

    def test_missing_program_fails_to_spawn(self):
        cmd = HarnessCommand(program="/nonexistent/harness", list_args=("--list",))
        with pytest.raises(HarnessSpawnFailed):
            discover(cmd)

    def test_grandchild_holding_stdout_does_not_outlast_the_harness(self, tmp_path):
        # The harness exits at once, but a forked child keeps the pipe open
        # for 30 s: discovery ends at the harness's exit, with what it wrote.
        sleeper_file = tmp_path / "sleeper"
        script = (
            f"import os, time\nsleeper = {str(sleeper_file)!r}\n"
            f"print('##MANAI:TEST a::b', flush=True)\n{_FORK_SLEEPER}"
        )
        cmd = HarnessCommand(program=sys.executable, list_args=("-c", script))
        started = time.monotonic()
        try:
            found = discover(cmd, timeout_s=20.0)
            elapsed_s = time.monotonic() - started
        finally:
            _kill_sleeper(sleeper_file)
        assert found == [TestId("a", "b")]
        assert elapsed_s < 2.0

    def test_last_line_without_newline_counts_while_a_grandchild_holds_stdout(self, tmp_path):
        sleeper_file = tmp_path / "sleeper"
        script = (
            f"import os, sys, time\nsleeper = {str(sleeper_file)!r}\n"
            "print('##MANAI:TEST a::b')\nsys.stdout.write('##MANAI:TEST c::d'); sys.stdout.flush()\n"
            f"{_FORK_SLEEPER}"
        )
        cmd = HarnessCommand(program=sys.executable, list_args=("-c", script))
        try:
            found = discover(cmd, timeout_s=20.0)
        finally:
            _kill_sleeper(sleeper_file)
        assert found == [TestId("a", "b"), TestId("c", "d")]

    def test_pipe_is_read_out_after_the_exit(self, monkeypatch):
        # The harness enlarges its pipe, writes about 200 kB of declarations
        # at once, more than three reads take, and exits. Each read is
        # slowed, so the exit is seen while most of the pipe is unread.
        script = (
            "import fcntl, os\n"
            "fcntl.fcntl(1, fcntl.F_SETPIPE_SZ, 1 << 20)\n"
            "os.write(1, b''.join(b'##MANAI:TEST s::t%d\\n' % i for i in range(10000)))\n"
            "os._exit(0)\n"
        )
        read = os.read

        def slow_read(fd, size):
            time.sleep(0.1)
            return read(fd, size)

        monkeypatch.setattr(os, "read", slow_read)
        cmd = HarnessCommand(program=sys.executable, list_args=("-c", script))
        assert discover(cmd) == [TestId("s", f"t{i}") for i in range(10000)]

    def test_harness_that_closes_stdout_and_lingers_is_killed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_EXIT_GRACE_S", 0.3)
        cmd, pid_file = _inline_harness(tmp_path, f"m('TEST a::b')\n{_CLOSE_STDOUT_AND_SLEEP}")
        started = time.monotonic()
        with pytest.raises(HarnessSpawnFailed, match="^discovery process exited with status -9$"):
            discover(HarnessCommand(program=cmd.program, list_args=cmd.args), timeout_s=20.0)
        assert time.monotonic() - started < 5.0
        _assert_reaped(pid_file)

    def test_harness_that_never_exits_times_out(self):
        script = "import time\nprint('##MANAI:TEST a::b', flush=True)\ntime.sleep(30)\n"
        cmd = HarnessCommand(program=sys.executable, list_args=("-c", script))
        started = time.monotonic()
        with pytest.raises(HarnessSpawnFailed, match="discovery timed out after 1 s"):
            discover(cmd, timeout_s=1.0)
        assert time.monotonic() - started < 2.0


class TestRunOne:
    def test_passing_run(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::quick sleep_ms=5"])
        run = run_one(fixture_harness_command(plan), TestId("demo", "quick"), timeout_s=20)
        assert run.status is TestStatus.PASS
        assert run.end_ns > run.begin_ns

    def test_failing_status_reported(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::bad sleep_ms=1 status=FAIL"])
        run = run_one(fixture_harness_command(plan), TestId("demo", "bad"), timeout_s=20)
        assert run.status is TestStatus.FAIL

    def test_sleep_duration_reflected_in_timestamps(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::nap sleep_ms=200"])
        run = run_one(fixture_harness_command(plan), TestId("demo", "nap"), timeout_s=20)
        duration_ms = (run.end_ns - run.begin_ns) / MS
        assert 200 <= duration_ms <= 250

    def test_crash_after_begin(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::boom crash_after_begin=1"])
        run = run_one(fixture_harness_command(plan), TestId("demo", "boom"), timeout_s=20)
        assert run.status is TestStatus.FAIL
        assert run.error == "harness exited (status 3) before END for demo::boom"
        assert run.end_ns >= run.begin_ns

    def test_hang_is_bounded_by_timeout(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::stuck hang_after_begin=1"])
        run = run_one(fixture_harness_command(plan), TestId("demo", "stuck"), timeout_s=1.0)
        assert run.status is TestStatus.FAIL
        assert run.error == "test demo::stuck timed out after 1.0 s"

    def test_missing_begin_is_protocol_violation(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::silent no_begin=1 sleep_ms=1"])
        # END without BEGIN is a protocol violation, not a crash.
        with pytest.raises(ProtocolViolation):
            run_one(fixture_harness_command(plan), TestId("demo", "silent"), timeout_s=20)

    def test_duplicate_begin_is_protocol_violation(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::twice begin_twice=1"])
        with pytest.raises(ProtocolViolation):
            run_one(fixture_harness_command(plan), TestId("demo", "twice"), timeout_s=20)

    def test_unknown_filter_is_protocol_violation(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::known"])
        with pytest.raises(ProtocolViolation):
            run_one(fixture_harness_command(plan), TestId("demo", "unknown"), timeout_s=20)

    def test_noise_around_markers_is_ignored(self, tmp_path):
        plan = write_plan(
            tmp_path / "plan.txt",
            ["test demo::noisy sleep_ms=5 noise_before=4 noise_after=3"],
        )
        run = run_one(fixture_harness_command(plan), TestId("demo", "noisy"), timeout_s=20)
        assert run.status is TestStatus.PASS

    def test_no_descriptor_outlives_its_run(self, tmp_path):
        """The child's stdout pipe is closed on every path: normal exit,
        protocol abort, crash and timeout."""
        fd_dir = Path("/proc/self/fd")
        if not fd_dir.is_dir():
            pytest.skip("no /proc/self/fd on this platform")
        plan = write_plan(tmp_path / "plan.txt", [
            "test demo::quick sleep_ms=1",
            "test demo::twice begin_twice=1",
            "test demo::boom crash_after_begin=1",
            "test demo::stuck hang_after_begin=1",
        ])
        cmd = fixture_harness_command(plan)
        outcomes = [("twice", None), ("boom", TestStatus.FAIL), ("stuck", TestStatus.FAIL)]
        outcomes += [("quick", TestStatus.PASS)] * 17
        # Callers keep errors, and with them the frames of run_one; collecting
        # a cycle would close a leaked pipe and hide the leak.
        kept = []
        gc.disable()
        try:
            before = len(os.listdir(fd_dir))
            for name, status in outcomes:
                if status is None:
                    with pytest.raises(ProtocolViolation) as exc_info:
                        run_one(cmd, TestId("demo", name), timeout_s=0.5)
                    kept.append(exc_info.value)
                else:
                    timeout_s = 20 if status is TestStatus.PASS else 0.5
                    kept.append(run_one(cmd, TestId("demo", name), timeout_s=timeout_s))
                    assert kept[-1].status is status
            after = len(os.listdir(fd_dir))
        finally:
            gc.enable()
        assert after == before


def _inline_harness(tmp_path, body: str) -> tuple[HarnessCommand, Path]:
    """A ``python -c`` harness that records its pid, then runs ``body``
    with ``m(text)`` printing one marker line."""
    pid_file = tmp_path / "pid"
    script = (
        "import os, sys, time\n"
        "open(sys.argv[1], 'w').write(str(os.getpid()))\n"
        "def m(text): print('##MANAI:' + text, flush=True)\n"
        + body
    )
    return HarnessCommand(program=sys.executable, args=("-c", script, str(pid_file))), pid_file


def _assert_reaped(pid_file: Path) -> None:
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


class EdgeClock:
    """A ``run_one`` clock on the monotonic clock that keeps every stamp."""

    def __init__(self):
        self.stamps: list[int] = []

    def __call__(self) -> int:
        self.stamps.append(time.monotonic_ns())
        return self.stamps[-1]


# Forks a grandchild that holds the harness's stdout open for 30 s and
# records its pid in the file named by ``sleeper``.
_FORK_SLEEPER = (
    "pid = os.fork()\n"
    "if pid == 0: time.sleep(30); os._exit(0)\n"
    "open(sleeper, 'w').write(str(pid))\n"
)


# Points the harness's stdout at /dev/null, which closes the pipe, and
# sleeps 30 s without exiting.
_CLOSE_STDOUT_AND_SLEEP = "os.dup2(os.open(os.devnull, os.O_WRONLY), 1); time.sleep(30)\n"


def _kill_sleeper(sleeper_file: Path) -> None:
    if sleeper_file.exists():
        os.kill(int(sleeper_file.read_text()), signal.SIGKILL)


A = TestId("demo", "a")


class TestRunOneOutcomes:
    """Every outcome of one run: the message it carries, and no child left
    behind. Children that violate the protocol then sleep, so only a kill
    ends them in time."""

    @pytest.mark.parametrize("body, message", [
        ("m('BEGIN demo::a'); m('END demo::b PASS')", "END for demo::b, expected demo::a"),
        ("m('END demo::a PASS')", "END without BEGIN for demo::a"),
        ("m('BEGIN demo::a'); m('END demo::a PASS'); m('END demo::a PASS')",
         "duplicate END for demo::a"),
        ("m('BEGIN demo::a'); m('END demo::a PASS'); m('BEGIN demo::a')",
         "duplicate BEGIN for demo::a"),
        ("m('BEGIN demo::a'); m('BOGUS demo::a')", "unknown marker line '##MANAI:BOGUS demo::a\\n'"),
        ("m('BEGIN demo::a'); m('END demo::a MAYBE')",
         "bad marker line '##MANAI:END demo::a MAYBE\\n': 'MAYBE' is not a valid TestStatus"),
    ])
    def test_protocol_violation_kills_the_child(self, tmp_path, body, message):
        cmd, pid_file = _inline_harness(tmp_path, body + "; time.sleep(30)\n")
        started = time.monotonic()
        with pytest.raises(ProtocolViolation) as exc_info:
            run_one(cmd, A, timeout_s=20)
        assert str(exc_info.value) == message
        assert time.monotonic() - started < 10.0
        _assert_reaped(pid_file)

    def test_timeout_before_begin(self, tmp_path):
        cmd, pid_file = _inline_harness(tmp_path, "time.sleep(30)\n")
        run = run_one(cmd, A, timeout_s=0.5)
        assert run.status is TestStatus.FAIL
        assert run.error == "test demo::a timed out after 0.5 s"
        assert run.begin_ns == run.end_ns - 1
        _assert_reaped(pid_file)

    def test_exit_before_end(self, tmp_path):
        cmd, pid_file = _inline_harness(tmp_path, "m('BEGIN demo::a'); sys.exit(3)\n")
        run = run_one(cmd, A, timeout_s=20)
        assert run.status is TestStatus.FAIL
        assert run.error == "harness exited (status 3) before END for demo::a"
        assert run.end_ns > run.begin_ns
        _assert_reaped(pid_file)

    def test_exit_before_end_while_a_grandchild_holds_stdout(self, tmp_path, monkeypatch):
        # The child's exit ends the wait, not the pipe's EOF: this run used
        # to be reported as timed out, with a window up to the deadline.
        monkeypatch.setattr(harness, "_EXIT_GRACE_S", 1.0)
        sleeper_file = tmp_path / "sleeper"
        cmd, pid_file = _inline_harness(
            tmp_path, f"sleeper = {str(sleeper_file)!r}\nm('BEGIN demo::a')\n{_FORK_SLEEPER}sys.exit(3)\n"
        )
        clock = EdgeClock()
        started = time.monotonic()
        try:
            run = run_one(cmd, A, timeout_s=1.5, clock=clock)
            elapsed_s = time.monotonic() - started
        finally:
            _kill_sleeper(sleeper_file)
        assert run.status is TestStatus.FAIL
        assert run.error == "harness exited (status 3) before END for demo::a"
        assert elapsed_s < 1.0
        # The window ends at the reading taken once the exit was seen.
        assert (run.begin_ns, run.end_ns) == tuple(clock.stamps)
        _assert_reaped(pid_file)

    def test_kernel_without_pidfd_fails_the_spawn(self, tmp_path, monkeypatch):
        def no_pidfd(pid, flags=0):
            raise OSError(errno.ENOSYS, "Function not implemented")

        spawned = []

        class RecordingPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
        monkeypatch.setattr(os, "pidfd_open", no_pidfd)
        cmd, _ = _inline_harness(tmp_path, "time.sleep(30)\n")
        with pytest.raises(HarnessSpawnFailed, match="needs Linux 5.3 or later"):
            run_one(cmd, A, timeout_s=20)
        proc, = spawned
        assert proc.returncode is not None and proc.stdout.closed

    def test_child_that_closes_stdout_and_lingers_is_killed_after_grace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_EXIT_GRACE_S", 0.3)
        cmd, pid_file = _inline_harness(tmp_path, f"m('BEGIN demo::a')\n{_CLOSE_STDOUT_AND_SLEEP}")
        started = time.monotonic()
        run = run_one(cmd, A, timeout_s=20)
        elapsed_s = time.monotonic() - started
        assert run.status is TestStatus.FAIL
        assert run.error == "harness exited (status -9) before END for demo::a"
        assert 0.3 <= elapsed_s < 5.0
        _assert_reaped(pid_file)

    def test_edges_alone_call_the_clock(self, tmp_path):
        cmd, pid_file = _inline_harness(
            tmp_path, "print('noise', flush=True); m('BEGIN demo::a'); m('END demo::a PASS')\n"
        )
        clock = EdgeClock()
        run = run_one(cmd, A, timeout_s=20, clock=clock)
        assert (run.begin_ns, run.end_ns) == tuple(clock.stamps)
        _assert_reaped(pid_file)

    def test_timeout_stamps_the_deadline_once(self, tmp_path):
        cmd, pid_file = _inline_harness(tmp_path, "m('BEGIN demo::a'); time.sleep(30)\n")
        clock = EdgeClock()
        run = run_one(cmd, A, timeout_s=0.5, clock=clock)
        assert run.error == "test demo::a timed out after 0.5 s"
        assert (run.begin_ns, run.end_ns) == tuple(clock.stamps)
        assert run.end_ns - run.begin_ns >= 0.4e9
        _assert_reaped(pid_file)

    def test_clock_failure_kills_the_child(self, tmp_path):
        cmd, pid_file = _inline_harness(tmp_path, "m('BEGIN demo::a'); time.sleep(30)\n")

        def failing_clock():
            raise OSError("no counters")

        started = time.monotonic()
        with pytest.raises(OSError, match="no counters"):
            run_one(cmd, A, timeout_s=20, clock=failing_clock)
        # Well inside the 5 s grace a child that is only waited for gets.
        assert time.monotonic() - started < 4.0
        _assert_reaped(pid_file)

    @pytest.mark.parametrize("body", [
        "time.sleep(0.3)\n",
        # A chatty child keeps the pipe busy, so select never times out.
        "for _ in range(100): print('working', flush=True); time.sleep(0.003)\n",
    ])
    def test_guard_reads_while_the_window_is_open(self, tmp_path, body):
        cmd, pid_file = _inline_harness(
            tmp_path, "m('BEGIN demo::a')\n" + body + "m('END demo::a PASS'); time.sleep(0.2)\n"
        )
        clock = EdgeClock()
        run = run_one(cmd, A, timeout_s=20, clock=clock, guard_ns=20 * MS)
        stamps = clock.stamps
        assert (run.begin_ns, run.end_ns) == (stamps[0], stamps[-1])
        # About 15 guard readings in 0.3 s, and none after END.
        assert 5 <= len(stamps) - 2 <= 16
        assert all(b - a >= 20 * MS for a, b in zip(stamps, stamps[1:-1]))
        _assert_reaped(pid_file)

    def test_lingering_child_is_killed_after_grace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_EXIT_GRACE_S", 0.3)
        cmd, pid_file = _inline_harness(
            tmp_path, "m('BEGIN demo::a'); m('END demo::a PASS'); time.sleep(30)\n"
        )
        started = time.monotonic()
        run = run_one(cmd, A, timeout_s=20)
        assert time.monotonic() - started < 5.0
        assert run.status is TestStatus.PASS and run.error is None
        assert run.end_ns > run.begin_ns
        _assert_reaped(pid_file)


class TestReadLoop:
    """How run_one reads the child's pipe: lines split across writes,
    several lines in one write, CRLF endings, a last line without a
    newline, undecodable bytes, a pipe held open after exit."""

    @staticmethod
    def _run(tmp_path, body: str) -> HarnessRun:
        # w(data) writes raw bytes to stdout at once.
        cmd, pid_file = _inline_harness(
            tmp_path,
            "def w(data): sys.stdout.buffer.write(data); sys.stdout.buffer.flush()\n" + body,
        )
        run = run_one(cmd, A, timeout_s=20)
        _assert_reaped(pid_file)
        return run

    def test_marker_split_across_writes_is_one_line(self, tmp_path):
        run = self._run(tmp_path, (
            "w(b'##MANAI:BEG'); time.sleep(0.2); w(b'IN demo::a\\n')\n"
            "m('END demo::a PASS')\n"
        ))
        assert run.status is TestStatus.PASS and run.error is None

    @pytest.mark.parametrize("ending", ["\\n", "\\r\\n"])
    def test_crlf_endings_parse_alike(self, tmp_path, ending):
        run = self._run(tmp_path, (
            f"w(b'##MANAI:BEGIN demo::a{ending}'); w(b'##MANAI:END demo::a FAIL{ending}')\n"
        ))
        assert run.status is TestStatus.FAIL and run.error is None

    def test_end_without_newline_before_exit_is_parsed(self, tmp_path):
        run = self._run(tmp_path, "m('BEGIN demo::a'); w(b'##MANAI:END demo::a SKIP')\n")
        assert run.status is TestStatus.SKIP and run.error is None

    def test_undecodable_noise_is_ignored(self, tmp_path):
        run = self._run(tmp_path, (
            "w(b'\\xff\\xfe noise\\n'); m('BEGIN demo::a')\n"
            "w(b'caf\\xc3\\n##MANAI\\xff\\n'); m('END demo::a PASS')\n"
        ))
        assert run.status is TestStatus.PASS and run.error is None

    def test_begin_and_end_in_one_write_are_stamped_apart(self, tmp_path):
        run = self._run(tmp_path, "w(b'##MANAI:BEGIN demo::a\\n##MANAI:END demo::a PASS\\n')\n")
        assert run.status is TestStatus.PASS
        assert run.end_ns > run.begin_ns

    def test_grandchild_holding_stdout_costs_one_grace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_EXIT_GRACE_S", 1.0)
        sleeper_file = tmp_path / "sleeper"
        cmd, pid_file = _inline_harness(tmp_path, (
            "m('BEGIN demo::a'); m('END demo::a PASS')\n"
            "pid = os.fork()\n"
            "if pid == 0: time.sleep(30); os._exit(0)\n"
            f"open({str(sleeper_file)!r}, 'w').write(str(pid))\n"
        ))
        started = time.monotonic()
        try:
            run = run_one(cmd, A, timeout_s=20)
            elapsed_s = time.monotonic() - started
        finally:
            if sleeper_file.exists():
                os.kill(int(sleeper_file.read_text()), signal.SIGKILL)
        assert run.status is TestStatus.PASS and run.error is None
        assert elapsed_s < 1.8
        _assert_reaped(pid_file)

    def test_end_written_just_before_exit_counts(self, tmp_path):
        # The BEGIN stamp takes 0.3 s, in which the child writes END, forks
        # a grandchild that holds the pipe and exits: the next wait sees the
        # exit and END at once, and the pipe is read out before the run ends.
        sleeper_file = tmp_path / "sleeper"

        def slow_clock():
            time.sleep(0.3)
            return time.monotonic_ns()

        cmd, pid_file = _inline_harness(tmp_path, (
            f"sleeper = {str(sleeper_file)!r}\nm('BEGIN demo::a'); time.sleep(0.05)\n"
            f"m('END demo::a SKIP')\n{_FORK_SLEEPER}"
        ))
        try:
            run = run_one(cmd, A, timeout_s=20, clock=slow_clock)
        finally:
            _kill_sleeper(sleeper_file)
        assert run.status is TestStatus.SKIP and run.error is None
        _assert_reaped(pid_file)

    def test_reap_wakes_at_the_exit_without_sleep_polling(self, tmp_path, monkeypatch):
        # The child closes its stdout after END and exits 0.1 s later: the
        # loop ends at EOF, before the child can be reaped, and the reap
        # waits on the pidfd instead of Popen.wait(timeout=...).
        monkeypatch.setattr(harness, "_EXIT_GRACE_S", 4.0)
        timeouts = []
        wait = subprocess.Popen.wait

        def recording_wait(proc, timeout=None):
            timeouts.append(timeout)
            return wait(proc, timeout)

        monkeypatch.setattr(subprocess.Popen, "wait", recording_wait)
        exit_file = tmp_path / "exit"
        run = self._run(tmp_path, (
            "m('BEGIN demo::a'); m('END demo::a PASS')\n"
            "os.dup2(os.open(os.devnull, os.O_WRONLY), 1); time.sleep(0.1)\n"
            f"open({str(exit_file)!r}, 'w').write(str(time.monotonic_ns()))\n"
        ))
        returned_ns = time.monotonic_ns()
        assert run.status is TestStatus.PASS and run.error is None
        assert timeouts == [None]
        # Woken by the exit, well before the grace period would end.
        assert 0 < returned_ns - int(exit_file.read_text()) < 2 * 10**9

    def test_run_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"run_one started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        run = self._run(tmp_path, "m('BEGIN demo::a'); m('END demo::a PASS')\n")
        assert run.status is TestStatus.PASS and run.error is None


def _noise_lines():
    # Arbitrary single-line text that is not a protocol marker.
    return st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
            min_size=0,
            max_size=60,
        ).filter(lambda s: not s.lstrip().startswith("##MANAI:")),
        min_size=1,
        max_size=8,
    )


@settings(max_examples=15, deadline=None)
@given(noise=_noise_lines())
def test_discovery_immune_to_arbitrary_noise(tmp_path_factory, noise):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    plan = write_plan(tmp_path / "plan.txt", ["test fuzz::a", "test fuzz::b"])
    noise_file = tmp_path / "noise.txt"
    noise_file.write_text("\n".join(noise) + "\n")
    cmd = fixture_harness_command(plan)
    noisy_cmd = HarnessCommand(
        program=cmd.program,
        args=cmd.args,
        list_args=cmd.list_args + ("--noise-file", str(noise_file)),
    )
    assert discover(noisy_cmd) == [TestId("fuzz", "a"), TestId("fuzz", "b")]
