"""Harness protocol: discovery, single-test runs, robustness to noise."""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manai import harness
from manai.errors import HarnessSpawnFailed, ProtocolViolation
from manai.harness import HarnessCommand, TestId, TestStatus, discover, run_one

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
