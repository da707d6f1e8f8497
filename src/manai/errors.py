"""Exception hierarchy shared across the profiler.

Every error raised by this package derives from :class:`ManaiError` so the
command line layer can map failures onto its exit-code contract
(1 = user/config error, 2 = environment error, 3 = internal error).
"""

from __future__ import annotations


class ManaiError(Exception):
    """Base class for all errors raised by this package."""


# --- user / configuration errors (CLI exit code 1) ---


class InvalidConfig(ManaiError):
    """A configuration value violates its documented constraints."""


class MalformedScenario(ManaiError):
    """A simulation scenario file failed to parse or violates an invariant."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class UnknownRevision(ManaiError):
    """The requested revision label has no stored records."""


class EmptyScope(ManaiError):
    """A report request resolved to no data."""


class NoHistory(ManaiError):
    """An evolution view was requested for a test with no stored history."""


class EmptyInput(ManaiError):
    """An aggregation was asked to summarize zero results."""


# --- environment errors (CLI exit code 2) ---


class NoProbeAvailable(ManaiError):
    """Neither a powercap tree nor a simulation scenario is available."""


class PermissionDenied(ManaiError):
    """Energy counters exist but are not readable by this process."""


class ReadFailed(ManaiError):
    """A single counter read failed; the whole reading is discarded."""

    def __init__(self, domain: object, reason: str):
        self.domain = domain
        super().__init__(f"reading {domain} failed: {reason}")


class ProbeLost(ManaiError):
    """The probe failed mid-stream; the samples of that stream are discarded."""


class HarnessSpawnFailed(ManaiError):
    """The harness executable could not be launched."""


class ProtocolViolation(ManaiError):
    """The harness emitted a malformed marker line, or marker lines
    inconsistent with the run contract. A test run records it as a failure."""


class LockHeld(ManaiError):
    """Another experiment currently holds the data directory lock."""


class StorageError(ManaiError):
    """The data directory is not writable or the device is full."""


# --- test outcomes (handled by the experiment runner, not the CLI) ---


class TestCrashed(ManaiError):
    """The harness process ended (or timed out) before emitting END.

    ``begin_ns`` and ``end_ns`` bound the observed lifetime of the attempt
    so energy can still be attributed to it.
    """

    def __init__(self, message: str, begin_ns: int | None = None, end_ns: int | None = None):
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        super().__init__(message)
