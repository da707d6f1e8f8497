"""Harness protocol: discovery, single-test runs, robustness to noise."""

from __future__ import annotations

import gc
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manai.errors import HarnessSpawnFailed, ProtocolViolation, TestCrashed
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
        with pytest.raises(TestCrashed) as exc_info:
            run_one(fixture_harness_command(plan), TestId("demo", "boom"), timeout_s=20)
        assert exc_info.value.begin_ns is not None
        assert exc_info.value.end_ns >= exc_info.value.begin_ns

    def test_hang_is_bounded_by_timeout(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::stuck hang_after_begin=1"])
        with pytest.raises(TestCrashed):
            run_one(fixture_harness_command(plan), TestId("demo", "stuck"), timeout_s=1.0)

    def test_missing_begin_is_protocol_violation(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::silent no_begin=1 sleep_ms=1"])
        with pytest.raises((ProtocolViolation, TestCrashed)) as exc_info:
            run_one(fixture_harness_command(plan), TestId("demo", "silent"), timeout_s=20)
        # END without BEGIN is a protocol violation, not a crash.
        assert isinstance(exc_info.value, ProtocolViolation)

    def test_duplicate_begin_is_protocol_violation(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::twice begin_twice=1"])
        with pytest.raises(ProtocolViolation):
            run_one(fixture_harness_command(plan), TestId("demo", "twice"), timeout_s=20)

    def test_unknown_filter_is_protocol_violation(self, tmp_path):
        plan = write_plan(tmp_path / "plan.txt", ["test demo::known"])
        with pytest.raises((ProtocolViolation, TestCrashed)):
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
        outcomes = [("twice", ProtocolViolation), ("boom", TestCrashed), ("stuck", TestCrashed)]
        outcomes += [("quick", None)] * 17
        # Callers keep errors, and with them the frames of run_one; collecting
        # a cycle would close a leaked pipe and hide the leak.
        kept = []
        gc.disable()
        try:
            before = len(os.listdir(fd_dir))
            for name, error in outcomes:
                if error is None:
                    kept.append(run_one(cmd, TestId("demo", name), timeout_s=20))
                else:
                    with pytest.raises(error) as exc_info:
                        run_one(cmd, TestId("demo", name), timeout_s=0.5)
                    kept.append(exc_info.value)
            after = len(os.listdir(fd_dir))
        finally:
            gc.enable()
        assert after == before


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
