"""Language-neutral test harness adapter.

Any executable that speaks the marker protocol of ``manai.protocol`` on
standard output can be profiled. One owner of a harness process,
``_Child``, spawns it, reads its pipe and reaps it, for discovery and for
runs alike, and waits on the pipe and the child's pidfd in one
``select.poll`` for whole milliseconds rounded up, so that no wait ends
before its deadline. A run stamps each BEGIN and END as it handles it,
with a clock the caller passes in (the monotonic clock, or a probe
reading on a live run), so no clock agreement with the child is needed.
Handling lags the child's write by what the child does next; the README's
"Harness protocol" gives the lags measured on a 2-vCPU host. Undecodable
bytes are replaced. Standard error passes through untouched.
"""

from __future__ import annotations

import logging
import os
import select
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple

from manai import protocol
from manai.errors import HarnessSpawnFailed, ProtocolViolation
from manai.protocol import FILTER_ENV, TestId, TestStatus

logger = logging.getLogger(__name__)

# Grace period for the child to exit after its END marker, or after it
# closed its stdout.
_EXIT_GRACE_S = 5.0


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


class _Child:
    """The one owner of a harness process, as a context manager: it spawns
    the child, reads its stdout, and at the end kills it if it still runs
    and reaps it. Raises HarnessSpawnFailed if the child cannot start, or
    cannot be watched (``os.pidfd_open`` needs Linux 5.3) and is killed."""

    def __init__(self, cmd: HarnessCommand, argv_tail: tuple[str, ...], extra_env: dict[str, str]):
        env = dict(os.environb)  # bytes: Popen need not encode each variable again
        env.update((os.fsencode(k), os.fsencode(v)) for k, v in (*cmd.env.items(), *extra_env.items()))
        try:
            self.proc = subprocess.Popen(
                [cmd.program, *argv_tail],
                cwd=str(cmd.working_dir) if cmd.working_dir else None,
                env=env,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise HarnessSpawnFailed(f"cannot launch {cmd.program!r}: {exc}") from exc
        try:
            self.pidfd = os.pidfd_open(self.proc.pid)  # readable once the child exits
        except OSError as exc:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise HarnessSpawnFailed(
                f"cannot watch harness pid {self.proc.pid} (needs Linux 5.3 or later): {exc}"
            ) from exc
        self.exited = False
        self.poller = select.poll()
        self.poller.register(self.proc.stdout.fileno(), select.POLLIN)
        self.poller.register(self.pidfd, select.POLLIN)

    def __enter__(self) -> "_Child":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.exited:
            self.proc.kill()
        # No timeout: Popen.wait(timeout) polls with sleeps of up to 50 ms.
        self.proc.wait()
        os.close(self.pidfd)
        self.proc.stdout.close()

    def lines(self, wake):
        """Each stdout line of the child, decoded, as it is read; ``None``
        whenever the monotonic time ``wake()`` (ns, or None for never) has
        passed while the child runs. ``wake`` is called afresh after the
        caller has handled each read's lines.

        Ends once the child has exited and its pipe is read out, even
        while a grandchild holds the pipe open. A child that closes its
        stdout but does not exit is killed after one grace period.
        """
        fd = self.proc.stdout.fileno()
        tail = b""
        linger_ns = None  # when a child that closed its stdout is killed
        while True:
            wake_ns = min((t for t in (wake(), linger_ns) if t is not None), default=None)
            wait_ms = None if wake_ns is None else max(0, (wake_ns - time.monotonic_ns() + 999_999) // 1_000_000)
            ready = dict(self.poller.poll(0 if self.exited else wait_ms))
            if not ready and self.exited:
                # The exited child's output is all read.
                if tail:
                    yield tail.decode("utf-8", "replace")
                return
            if self.pidfd in ready:
                # Read what the child wrote before it exited, then stop.
                self.poller.unregister(self.pidfd)
                self.exited = True
            if fd in ready:
                # Not proc.stdout.read*: its buffer would hide data from poll.
                # POLLHUP or POLLERR alone: the pipe holds no more data.
                chunk = os.read(fd, 65536) if ready[fd] & select.POLLIN else b""
                lines = (tail + chunk).splitlines(keepends=True)
                tail = lines.pop() if chunk and not lines[-1].endswith(b"\n") else b""
                for line in lines:
                    yield line.decode("utf-8", "replace")
                if not chunk:
                    self.poller.unregister(fd)
                    linger_ns = time.monotonic_ns() + round(_EXIT_GRACE_S * 1e9)
            if self.exited:
                continue
            now_ns = time.monotonic_ns()
            if linger_ns is not None and now_ns >= linger_ns:
                logger.warning("harness closed its stdout but did not exit; killing pid %d", self.proc.pid)
                self.proc.kill()
                linger_ns = None
            wake_ns = wake()
            if wake_ns is not None and now_ns >= wake_ns:
                yield None


def discover(cmd: HarnessCommand, timeout_s: float = 60.0) -> list[TestId]:
    """Run the harness in discovery mode and collect declared tests.

    Discovery ends when the harness exits, even while a grandchild holds
    its stdout: what it wrote before it exited is still read.
    Declaration order is preserved; repeats are dropped. A repeat whose
    casing differs from the first declaration is reported as a warning,
    not an error.

    Raises:
        HarnessSpawnFailed: The process could not start, its exit cannot
            be waited for, it did not exit within ``timeout_s``, or it
            exited with a non-zero status.
        ProtocolViolation: A marker-prefixed line failed to parse; the
            process is killed first.
    """
    deadline_ns = time.monotonic_ns() + round(timeout_s * 1e9)
    declared: dict[str, TestId] = {}  # the first declaration of each lower-cased id
    with _Child(cmd, cmd.list_args, {}) as child:
        for line in child.lines(lambda: deadline_ns):
            if line is None:
                raise HarnessSpawnFailed(f"discovery timed out after {timeout_s:.0f} s")
            marker = protocol.parse_marker(line)
            if marker is None or marker[0] != "TEST":
                continue
            test = marker[1]
            first = declared.setdefault(str(test).lower(), test)
            if first != test:
                logger.warning("test %s re-declared with different casing", test)
    if child.proc.returncode != 0:
        raise HarnessSpawnFailed(f"discovery process exited with status {child.proc.returncode}")
    return list(declared.values())


def run_one(
    cmd: HarnessCommand,
    test: TestId,
    timeout_s: float | None = None,
    clock=time.monotonic_ns,
    guard_ns: int | None = None,
) -> HarnessRun:
    """Execute exactly one test under the marker protocol.

    Launches ``program args`` with ``FILTER_ENV`` naming the test and
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
    deadline_ns = None if timeout_s is None else time.monotonic_ns() + round(timeout_s * 1e9)
    guard_at_ns = None  # when the open window's next guard reading is due
    begin_ns = end_ns = status = error = None

    def wake():
        return min((t for t in (deadline_ns, guard_at_ns) if t is not None), default=None)

    verbatim = protocol.conforming_lines(test)
    with _Child(cmd, cmd.args, {FILTER_ENV: str(test)}) as child:
        for line in child.lines(wake):
            if line is None:
                if deadline_ns is not None and time.monotonic_ns() >= deadline_ns:
                    if end_ns is None:
                        end_ns, status = clock(), TestStatus.FAIL
                        error = f"test {test} timed out after {timeout_s:.1f} s"
                    break
                clock()  # the guard reading that is due
                guard_at_ns = time.monotonic_ns() + guard_ns
                continue
            marker = verbatim.get(line) or protocol.parse_marker(line)
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

    if end_ns is None:
        if begin_ns is None:
            raise ProtocolViolation(
                f"harness exited (status {child.proc.returncode}) without a BEGIN for {test}"
            )
        end_ns, status = clock(), TestStatus.FAIL
        error = f"harness exited (status {child.proc.returncode}) before END for {test}"
    return HarnessRun(end_ns - 1 if begin_ns is None else begin_ns, end_ns, status, error)

