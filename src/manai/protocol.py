"""The marker protocol between manai and a test harness, defined once.

A harness writes these lines to standard output (UTF-8, one per line,
CRLF allowed; all other lines are ignored):

    ##MANAI:TEST <suite>::<name>          declared during discovery
    ##MANAI:BEGIN <suite>::<name>         test body is starting
    ##MANAI:END <suite>::<name> <STATUS>  test finished; STATUS is PASS, FAIL or SKIP

and runs the one test that ``MANAI_FILTER`` names. A Python harness may
import this module: it loads only the standard library and ``manai.errors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from manai.errors import ProtocolViolation

MARKER_PREFIX = "##MANAI:"
FILTER_ENV = "MANAI_FILTER"


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


def format_marker(word: str, test: str, status: str | None = None) -> str:
    """The marker line ``word`` for the id ``test``, with ``status`` on END,
    without its line ending. Both are written as given, unchecked."""
    return f"{MARKER_PREFIX}{word} {test}" + ("" if status is None else f" {status}")


def parse_marker(line: str) -> tuple[str, TestId, TestStatus | None] | None:
    """``(word, test, status)`` of one stdout line, status only on END;
    None for a line without the marker prefix. Raises ProtocolViolation
    for a line with it that is not a valid marker."""
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


def conforming_lines(test: TestId) -> dict[str, tuple[str, TestId, TestStatus | None]]:
    """The lines a conforming run of ``test`` sends, as ``parse_marker`` reads them."""
    edges = [("BEGIN", None), *(("END", s) for s in TestStatus)]
    return {format_marker(w, str(test), s and s.value) + "\n": (w, test, s) for w, s in edges}
