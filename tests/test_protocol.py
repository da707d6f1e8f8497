"""The marker protocol: test ids, the marker lines a harness sends, and the
lines run_one looks up instead of parsing."""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manai import protocol
from manai.errors import ProtocolViolation
from manai.harness import HarnessRun, run_one
from manai.protocol import TestId, TestStatus, conforming_lines, format_marker, parse_marker

from conftest import inline_harness

A = TestId("demo", "a")

_SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]

# A part that starts or ends with ':' is left out: its id renders as text
# that parses to other parts (test_colon_at_a_part_edge_changes_the_id).
_PARTS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
    lambda p: "::" not in p and p[0] != ":" != p[-1] and not any(c.isspace() for c in p)
)
_IDS = st.builds(TestId, _PARTS, _PARTS)
_MARKERS = st.sampled_from([("TEST", None), ("BEGIN", None), *(("END", s) for s in TestStatus)])


class TestTestId:
    def test_render_and_parse(self):
        test = TestId("demo", "sort_naive")
        assert str(test) == "demo::sort_naive"
        assert TestId.parse("demo::sort_naive") == test

    @pytest.mark.parametrize("bad", ["", "no_separator", "a::", "::b", "a b::c", "a::b::c"])
    def test_invalid_ids_rejected(self, bad):
        with pytest.raises(ValueError):
            TestId.parse(bad)

    @pytest.mark.xfail(strict=True, reason="'a:' and 'b' render as 'a:::b', which parses as 'a' and ':b'")
    def test_colon_at_a_part_edge_changes_the_id(self):
        assert TestId.parse(str(TestId("a:", "b"))) == TestId("a:", "b")


class TestMarkerLines:
    @given(test=_IDS, marker=_MARKERS, ending=st.sampled_from(["\n", "\r\n"]))
    def test_parse_reads_what_format_writes(self, test, marker, ending):
        word, status = marker
        line = format_marker(word, str(test), status and status.value) + ending
        assert parse_marker(line) == (word, test, status)

    @given(test=_IDS)
    def test_conforming_lines_are_formatted_lines(self, test):
        lines = conforming_lines(test)
        assert set(lines) == {format_marker("BEGIN", str(test)) + "\n"} | {
            format_marker("END", str(test), s.value) + "\n" for s in TestStatus
        }
        assert all(parse_marker(line) == marker for line, marker in lines.items())

    @given(
        parts=st.tuples(_PARTS, _PARTS, _PARTS),
        joint=st.sampled_from(["::", *_SPACES]),
        in_suite=st.booleans(),
        marker=_MARKERS,
    )
    def test_id_part_with_whitespace_or_separator_is_refused(self, parts, joint, in_suite, marker):
        left, right, other = parts
        bad = left + joint + right
        word, status = marker
        line = format_marker(word, f"{bad}::{other}" if in_suite else f"{other}::{bad}", status and status.value)
        message = re.escape(f"bad marker line {line!r}: test id part ") + ".+" + re.escape(" contains whitespace or '::'")
        with pytest.raises(ProtocolViolation, match=f"^{message}$"):
            parse_marker(line)


class TestConformingLines:
    """run_one looks up the four lines a conforming child sends for its test
    and parses only other lines: every outcome is the one that parsing each
    line gives."""

    def test_each_line_reads_as_parsed(self):
        lines = protocol.conforming_lines(A)
        assert sorted(lines) == [
            "##MANAI:BEGIN demo::a\n", "##MANAI:END demo::a FAIL\n",
            "##MANAI:END demo::a PASS\n", "##MANAI:END demo::a SKIP\n",
        ]
        assert all(protocol.parse_marker(line) == marker for line, marker in lines.items())

    def test_conforming_lines_are_not_parsed(self, tmp_path, monkeypatch):
        parsed = []
        parse = protocol.parse_marker
        monkeypatch.setattr(protocol, "parse_marker", lambda line: parsed.append(line) or parse(line))
        cmd, _ = inline_harness(tmp_path, "print('noise'); m('BEGIN demo::a'); m('END demo::a SKIP')\n")
        assert run_one(cmd, A, timeout_s=20).status is TestStatus.SKIP
        assert parsed == ["noise\n"]

    @pytest.mark.parametrize("data, outcome", [
        (b"##MANAI:BEGIN demo::a\r\n##MANAI:END demo::a PASS\r\n", HarnessRun(0, 1, TestStatus.PASS)),
        (b"##MANAI:BEGIN demo::a \n##MANAI:END demo::a FAIL \n", HarnessRun(0, 1, TestStatus.FAIL)),
        (b"##MANAI:BEGIN demo::a\n##MANAI:END demo::a SKIP", HarnessRun(0, 1, TestStatus.SKIP)),
        (b"##MANAI:BEGIN demo::a\n##MANAI:END demo::a pass\n",
         "bad marker line '##MANAI:END demo::a pass\\n': 'pass' is not a valid TestStatus"),
        (b"##MANAI:BEGIN demo::a\n##MANAI:END demo::a DONE\n",
         "bad marker line '##MANAI:END demo::a DONE\\n': 'DONE' is not a valid TestStatus"),
        (b"##MANAI:BEGIN demo::a\n##MANAI:END demo::b PASS\n", "END for demo::b, expected demo::a"),
        (b"##MANAI:BEGIN demo::a\n##MANAI:BEGIN demo::a\n", "duplicate BEGIN for demo::a"),
        (b"##MANAI:BEGIN demo::a\n##MANAI:END demo::a PASS\n##MANAI:END demo::a FAIL\n",
         "duplicate END for demo::a"),
        (b"##MANAI:END demo::a PASS\n##MANAI:BEGIN demo::a\n", "END without BEGIN for demo::a"),
    ])
    def test_outcome_equals_parsing_every_line(self, tmp_path, monkeypatch, data, outcome):
        cmd, _ = inline_harness(tmp_path, f"sys.stdout.buffer.write({data!r})\n")

        def run():
            try:
                return run_one(cmd, A, timeout_s=20, clock=iter(range(10)).__next__)
            except ProtocolViolation as exc:
                return str(exc)

        assert run() == outcome
        monkeypatch.setattr(protocol, "conforming_lines", lambda test: {})
        assert run() == outcome


def test_protocol_module_is_the_one_definition():
    # The marker prefix and the filter variable are spelled out in
    # manai.protocol alone: every other module formats and parses through it.
    src = Path(__file__).resolve().parent.parent / "src" / "manai"
    spelled = [
        path.name for path in sorted(src.glob("*.py"))
        if path.name != "protocol.py" and re.search("##MANAI:|MANAI_FILTER", path.read_text(encoding="utf-8"))
    ]
    assert spelled == []
