"""Exception hierarchy shared across the profiler.

Every error raised by this package derives from :class:`ManaiError`. The
command line layer maps failures onto its exit-code contract by base class:
:class:`UserError` exits 1, :class:`EnvError` exits 2, anything else is an
internal error (3).
"""

from __future__ import annotations


class ManaiError(Exception):
    """Base class for all errors raised by this package."""


# --- user / configuration errors (CLI exit code 1) ---


class UserError(ManaiError):
    """Base of the errors that a change of command, config or input fixes."""


class InvalidConfig(UserError):
    """A configuration value violates its documented constraints."""


class MalformedScenario(UserError):
    """A simulation scenario file failed to parse or violates an invariant."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class UnknownRevision(UserError):
    """The requested revision label has no stored records."""


class EmptyScope(UserError):
    """A report request resolved to no data."""


class NoHistory(UserError):
    """An evolution view was requested for a test with no stored history."""


class EmptyInput(UserError):
    """An aggregation was asked to summarize zero results."""


# --- environment errors (CLI exit code 2) ---


class EnvError(ManaiError):
    """Base of the errors that come from the machine: probe, harness, storage."""


class NoProbeAvailable(EnvError):
    """No usable RAPL zone exists under the powercap root."""


class PermissionDenied(EnvError):
    """Energy counters exist but are not readable by this process."""


class ReadFailed(EnvError):
    """A single counter read failed; the whole reading is discarded."""

    def __init__(self, domain: object, reason: str):
        self.domain = domain
        super().__init__(f"reading {domain} failed: {reason}")


class ProbeLost(EnvError):
    """The probe failed mid-stream; the samples of that stream are discarded."""


class HarnessSpawnFailed(EnvError):
    """The harness executable could not be launched."""


class ProtocolViolation(EnvError):
    """The harness emitted a malformed marker line, or marker lines
    inconsistent with the run contract. A test run records it as a failure."""


class LockHeld(EnvError):
    """Another experiment currently holds the data directory lock."""


class StorageError(EnvError):
    """The data directory is not writable or the device is full."""

