"""Language-neutral test harness adapter.

Any executable that speaks the line-oriented marker protocol on standard
output can be profiled. The protocol (UTF-8, one marker per line):

    ##MANAI:TEST <suite>::<name>          declared during discovery
    ##MANAI:BEGIN <suite>::<name>         test body is starting
    ##MANAI:END <suite>::<name> <STATUS>  test finished; STATUS is PASS, FAIL or SKIP

The harness is told which single test to execute through the
``MANAI_FILTER`` environment variable. The run loop reads the child's
pipe itself and stamps each BEGIN and END as it handles it, with a clock
the caller passes in (the monotonic clock, or a probe reading on a live
run), so no clock agreement with the child is needed. Handling lags the
child's write by what the child does next. On a 2-vCPU host, with
children that slept and printed their own ``CLOCK_MONOTONIC`` reading
before each marker, BEGIN was handled about 0.08 ms late. END was
handled 2.5-2.8 ms late (p50) when the child exited right after END, as
most harnesses do, but 0.13 ms late when it stayed alive 50 ms longer,
with or without a sampling thread in the parent. A CPU-bound child
delays BEGIN instead: of 200 children that busy-looped 0.5 ms, BEGIN was
handled 3.7 ms (p50; max 7.9 ms) after the child wrote it, and the
median window read 0.045 ms. Lines may end in CRLF; undecodable bytes
are replaced. Standard error passes through untouched. All other stdout
lines are ignored.
"""

from __future__ import annotations

import logging
import os
import select
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


def _watch(proc: subprocess.Popen) -> tuple[int, selectors.BaseSelector]:
    """A pidfd of ``proc``, and a selector over its stdout and that pidfd,
    which becomes readable when ``proc`` exits.

    Raises:
        HarnessSpawnFailed: No pidfd can be opened (it needs Linux 5.3);
            ``proc`` is killed first.
    """
    try:
        pidfd = os.pidfd_open(proc.pid)
    except OSError as exc:
        _kill(proc)
        proc.stdout.close()
        raise HarnessSpawnFailed(f"cannot watch harness pid {proc.pid} (needs Linux 5.3 or later): {exc}") from exc
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout.fileno(), selectors.EVENT_READ)
    selector.register(pidfd, selectors.EVENT_READ)
    return pidfd, selector


def discover(cmd: HarnessCommand, timeout_s: float = 60.0) -> list[TestId]:
    """Run the harness in discovery mode and collect declared tests.

    Discovery ends when the harness exits, even while a grandchild holds
    its stdout: what it wrote before it exited is still read.
    Declaration order is preserved; repeats are dropped. A repeat whose
    casing differs from the first declaration is reported as a warning,
    not an error.

    Raises:
        HarnessSpawnFailed: The process could not start, its exit cannot
            be waited for, or it did not exit within ``timeout_s``.
        ProtocolViolation: A marker-prefixed line failed to parse.
    """
    proc = _spawn(cmd, cmd.list_args, {})
    pidfd, selector = _watch(proc)
    fd = proc.stdout.fileno()
    deadline_ns = time.monotonic_ns() + round(timeout_s * 1e9)
    chunks = []
    exited = False
    try:
        while True:
            wait_s = 0.0 if exited else max(0.0, (deadline_ns - time.monotonic_ns()) / 1e9)
            ready = {key.fd for key, _ in selector.select(wait_s)}
            if not ready and exited:
                # The exited child's output is all read.
                break
            if not ready and time.monotonic_ns() >= deadline_ns:
                raise HarnessSpawnFailed(f"discovery timed out after {timeout_s:.0f} s")
            if pidfd in ready:
                # Read what the child wrote before it exited, then stop.
                selector.unregister(pidfd)
                exited = True
            if fd in ready:
                chunks.append(os.read(fd, 65536))
                if not chunks[-1]:
                    selector.unregister(fd)
    except BaseException:
        _kill(proc)
        raise
    finally:
        selector.close()
        os.close(pidfd)
        proc.stdout.close()

    if proc.wait() != 0:
        logger.warning("discovery process exited with status %d", proc.returncode)

    seen_exact: set[TestId] = set()
    seen_folded: set[str] = set()
    tests: list[TestId] = []
    for line in b"".join(chunks).decode("utf-8", "replace").splitlines():
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


def run_one(
    cmd: HarnessCommand,
    test: TestId,
    timeout_s: float | None = None,
    clock=time.monotonic_ns,
    guard_ns: int | None = None,
) -> HarnessRun:
    """Execute exactly one test under the marker protocol.

    Launches ``program args`` with ``MANAI_FILTER`` naming the test and
    expects exactly one BEGIN/END pair for it. Every outcome of the test
    is a :class:`HarnessRun`: the status END reported, or a FAIL with an
    ``error`` when the child exited before END (the window ends at its
    exit) or the timeout elapsed (the window ends at the deadline). The
    child's exit ends the wait even while a grandchild holds its stdout:
    what the child wrote before it exited is still read. After END the
    child gets one grace period to exit; a child that lingers is killed.

    Each window edge, and nothing else, is stamped by calling ``clock``.
    While the window is open, ``clock`` is also called whenever
    ``guard_ns`` has passed on the monotonic clock since its last call, so
    a clock that reads energy counters reads them often enough to tell
    their wraps apart.

    Args:
        cmd: Harness launch description (``args``, not ``list_args``).
        test: The test to filter for; must match the emitted markers.
        timeout_s: Overall wall-clock bound. The child is killed when it
            elapses and the run is reported as crashed.
        clock: Returns the time of a window edge, in nanoseconds.
        guard_ns: Longest wait between two ``clock`` calls inside the
            window; ``None`` for no bound.

    Raises:
        HarnessSpawnFailed: The process could not start, or its exit
            cannot be waited for (``os.pidfd_open`` needs Linux 5.3).
        ProtocolViolation: Markers arrived that contradict the contract
            (wrong id, duplicate BEGIN or END, END without BEGIN, missing
            BEGIN).
        Whatever ``clock`` raises; the child is killed first.
    """
    proc = _spawn(cmd, cmd.args, {FILTER_ENV: str(test)})
    pidfd, selector = _watch(proc)
    fd = proc.stdout.fileno()
    deadline_ns = None if timeout_s is None else time.monotonic_ns() + round(timeout_s * 1e9)
    guard_at_ns = None  # when the open window's next guard reading is due
    begin_ns = end_ns = status = error = None
    exited = False
    tail = b""
    try:
        while True:
            wake_ns = min((t for t in (deadline_ns, guard_at_ns) if t is not None), default=None)
            wait_s = None if wake_ns is None else max(0.0, (wake_ns - time.monotonic_ns()) / 1e9)
            ready = {key.fd for key, _ in selector.select(0.0 if exited else wait_s)}
            if not ready:
                if exited:
                    # The exited child's output is all read.
                    break
                if deadline_ns is not None and time.monotonic_ns() >= deadline_ns:
                    if end_ns is None:
                        end_ns, status = clock(), TestStatus.FAIL
                        error = f"test {test} timed out after {timeout_s:.1f} s"
                    _kill(proc)
                    break
            if pidfd in ready:
                # Read what the child wrote before it exited, then stop.
                selector.unregister(pidfd)
                exited = True
            if fd in ready:
                # Not proc.stdout.read*: its buffer would hide data from select.
                chunk = os.read(fd, 65536)
                lines = (tail + chunk).splitlines(keepends=True)
                tail = lines.pop() if chunk and not lines[-1].endswith(b"\n") else b""
                for line in lines:
                    marker = _parse_marker(line.decode("utf-8", "replace"))
                    if marker is None or marker[0] == "TEST":
                        continue
                    word, seen, seen_status = marker
                    if seen != test:
                        raise ProtocolViolation(f"{word} for {seen}, expected {test}")
                    if word == "BEGIN":
                        if begin_ns is not None:
                            raise ProtocolViolation(f"duplicate BEGIN for {test}")
                        begin_ns = clock()
                        guard_at_ns = None if guard_ns is None else time.monotonic_ns() + guard_ns
                        continue
                    if begin_ns is None:
                        raise ProtocolViolation(f"END without BEGIN for {test}")
                    if end_ns is not None:
                        raise ProtocolViolation(f"duplicate END for {test}")
                    end_ns, status = clock(), seen_status
                    guard_at_ns = None
                    # One grace period to exit, so a lingering child cannot stall the run.
                    grace_end_ns = time.monotonic_ns() + round(_EXIT_GRACE_S * 1e9)
                    deadline_ns = grace_end_ns if deadline_ns is None else min(deadline_ns, grace_end_ns)
                if not chunk:
                    break
            if guard_at_ns is not None and time.monotonic_ns() >= guard_at_ns:
                clock()
                guard_at_ns = time.monotonic_ns() + guard_ns
    except BaseException:
        _kill(proc)
        raise
    finally:
        _reap(proc, pidfd, deadline_ns)
        selector.close()
        os.close(pidfd)
        proc.stdout.close()

    if end_ns is None:
        if begin_ns is None:
            raise ProtocolViolation(
                f"harness exited (status {proc.returncode}) without a BEGIN for {test}"
            )
        end_ns, status = clock(), TestStatus.FAIL
        error = f"harness exited (status {proc.returncode}) before END for {test}"
    return HarnessRun(end_ns - 1 if begin_ns is None else begin_ns, end_ns, status, error)


def _kill(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait()


def _reap(proc: subprocess.Popen, pidfd: int, deadline_ns: int | None) -> None:
    """Wait on ``pidfd`` for the child to exit until the deadline, at most
    one grace period; kill it if it lingers. The wait wakes at the exit,
    where ``Popen.wait`` with a timeout would poll with sleeps of up to
    50 ms."""
    if proc.poll() is not None:
        return
    grace_s = _EXIT_GRACE_S
    if deadline_ns is not None:
        grace_s = min(grace_s, max(0.0, (deadline_ns - time.monotonic_ns()) / 1e9))
    exit_poll = select.poll()
    exit_poll.register(pidfd, select.POLLIN)
    if exit_poll.poll(grace_s * 1e3):
        proc.wait()
    else:
        logger.warning("harness lingered after run; killing pid %d", proc.pid)
        _kill(proc)
