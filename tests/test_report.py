"""Report rendering: tables, bars, sparklines, CSV and machine exports."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import manai.store
from manai.cli import main
from manai.errors import EmptyScope, NoHistory, UnknownRevision
from manai.protocol import TestId
from manai.report import (
    CSV_HEADER,
    ReportFormat,
    ReportRequest,
    _arrow,
    _buckets,
    export,
    render_compare,
    render_history,
    render_summary,
    sparkline,
)
from manai.store import Store, record_to_doc

from conftest import DRAM, PKG, make_record, make_result


def ts(i: int) -> str:
    return f"2026-08-10T11:{i // 60:02d}:{i % 60:02d}.000000+00:00"


@pytest.fixture
def store_one_revision(tmp_path):
    store = Store(tmp_path)
    store.save(
        make_record("rev-a", ts(0), {"demo::heavy": 5_000_000, "demo::light": 2_500_000})
    )
    return store


@pytest.fixture
def store_three_revisions(tmp_path):
    store = Store(tmp_path)
    for i, (label, uj) in enumerate([("r1", 4_000_000), ("r2", 3_000_000), ("r3", 2_000_000)]):
        store.save(make_record(label, ts(i), {"demo::t": uj}))
    return store


def history_request(limit=None, no_color=False):
    return ReportRequest(
        scope="history", tests=(TestId("demo", "t"),), limit=limit, no_color=no_color
    )


def summary_request(revision="rev-a", **overrides):
    kwargs = dict(scope="revision", revisions=(revision,), no_color=True, width=120)
    kwargs.update(overrides)
    return ReportRequest(**kwargs)


class TestSummaryTerm:
    def test_bar_lengths_follow_energy_ratio(self, store_one_revision):
        text = render_summary(store_one_revision, summary_request())
        bars = {
            m.group(1): len(m.group(2))
            for m in re.finditer(r"^  (demo::\w+)\s+(█+)", text, re.MULTILINE)
        }
        # 5 J vs 2.5 J must render bars in a 2:1 ratio.
        assert bars["demo::heavy"] == 2 * bars["demo::light"]

    def test_table_carries_statistics(self, store_one_revision):
        text = render_summary(store_one_revision, summary_request())
        assert "demo::heavy" in text
        assert "5 J" in text
        assert "package:0" in text

    def test_low_confidence_marker_passthrough(self, tmp_path):
        store = Store(tmp_path)
        record = make_record("rev-lc", ts(0), {"demo::blink": 1000})
        # Rebuild with a sub-interval duration to set the flag.
        from conftest import make_result
        from manai.results import summarize

        test = TestId("demo", "blink")
        result = make_result(test, duration_ns=500_000, energy_uj=10)
        assert result.low_confidence
        object.__setattr__(record, "summaries", {test: summarize([result])})
        object.__setattr__(record, "results", {test: (result,)})
        store.save(record)
        text = render_summary(store, summary_request("rev-lc"))
        assert "< update interval" in text

    def test_unknown_revision_raises(self, store_one_revision):
        with pytest.raises(UnknownRevision):
            render_summary(store_one_revision, summary_request("missing"))

    def test_empty_revision_is_empty_scope(self, tmp_path):
        store = Store(tmp_path)
        record = make_record("rev-empty", ts(0), {"demo::a": 1})
        object.__setattr__(record, "summaries", {})
        object.__setattr__(record, "results", {})
        store.save(record)
        with pytest.raises(EmptyScope):
            render_summary(store, summary_request("rev-empty"))

    def test_term_output_is_deterministic(self, store_one_revision):
        first = render_summary(store_one_revision, summary_request())
        second = render_summary(store_one_revision, summary_request())
        assert first == second


class TestSummaryFormats:
    def test_csv_header_bit_exact(self, store_one_revision):
        text = render_summary(store_one_revision, summary_request(fmt=ReportFormat.CSV))
        assert text.splitlines()[0] == "test,domain,statistic,value,unit"
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_values_full_precision(self, store_one_revision):
        text = render_summary(store_one_revision, summary_request(fmt=ReportFormat.CSV))
        row = next(
            line for line in text.splitlines()
            if line.startswith("demo::heavy,package:0,energy_mean,")
        )
        value = float(row.split(",")[3])
        record = store_one_revision.latest("rev-a")
        assert value == record.summaries[TestId("demo", "heavy")].energy_stats[
            next(iter(record.probe_domains))
        ].mean

    def test_machine_round_trips_to_stored_record(self, store_one_revision):
        text = render_summary(store_one_revision, summary_request(fmt=ReportFormat.MACHINE))
        doc = json.loads(text)
        assert doc == record_to_doc(store_one_revision.latest("rev-a"))

    def test_machine_is_the_stored_file_without_decoding(self, store_one_revision, monkeypatch):
        (path,) = store_one_revision.revisions_dir.glob("rev-a/*.record")

        def refuse(*args):
            raise AssertionError("the machine export must not decode or re-render")

        monkeypatch.setattr(manai.store, "record_from_doc", refuse)
        monkeypatch.setattr(manai.store, "render_record", refuse)
        text = render_summary(store_one_revision, summary_request(fmt=ReportFormat.MACHINE))
        assert text.encode("utf-8") == path.read_bytes()

    def test_html_is_self_contained(self, store_one_revision):
        text = render_summary(store_one_revision, summary_request(fmt=ReportFormat.HTML))
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text
        assert "demo::heavy" in text
        assert "http-equiv" not in text and "src=" not in text  # no external resources
        assert len(re.findall(r"<!-- generated .+ -->", text)) == 1

    def test_export_writes_file(self, store_one_revision, tmp_path):
        out = tmp_path / "out" / "report.csv"
        text = export(
            store_one_revision,
            summary_request(fmt=ReportFormat.CSV, output_path=out),
        )
        assert out.read_text() == text


class TestEvolution:
    def test_decrease_with_percentage(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("r1", ts(0), {"demo::t": 4_000_000}))
        store.save(make_record("r2", ts(1), {"demo::t": 2_000_000}))
        line = render_history(store, history_request(no_color=True))
        assert "-50% last step" in line
        assert "↓" in line

    def test_single_point_is_flat_without_percentage(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("r1", ts(0), {"demo::t": 4_000_000}))
        line = render_history(store, history_request(no_color=True))
        assert "single point" in line
        assert "→" in line
        assert "%" not in line

    def test_step_from_zero_has_no_percentage(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("r1", ts(0), {"demo::t": 0}))
        store.save(make_record("r2", ts(1), {"demo::t": 3_000_000}))
        line = render_history(store, history_request(no_color=True))
        assert "↑  n/a last step" in line
        assert "single point" not in line
        assert "latest 3 J  (r1 -> r2)" in line

    def test_three_revision_descent_is_monotone(self, store_three_revisions):
        line = render_history(store_three_revisions, history_request(no_color=True))
        glyphs = [c for c in line if c in "▁▂▃▄▅▆▇█"]
        levels = ["▁▂▃▄▅▆▇█".index(c) for c in glyphs]
        assert len(levels) == 3
        assert levels[0] > levels[1] > levels[2]

    def test_colour_keeps_the_columns_of_series_of_any_length(self, tmp_path):
        store = Store(tmp_path)
        for i, uj in enumerate([4_000_000, 3_000_000, 2_000_000, 5_000_000]):
            tests = {"demo::long": uj}
            if i >= 2:
                tests["demo::short"] = 1_000_000 * (i + 1)
            store.save(make_record(f"r{i + 1}", ts(i), tests))
        request = ReportRequest(scope="history", tests=(TestId("demo", "long"), TestId("demo", "short")))
        coloured = render_history(store, request)
        plain = re.sub(r"\x1b\[[0-9;]*m", "", coloured)
        assert plain != coloured
        assert plain == render_history(store, replace(request, no_color=True))
        arrows = [re.search("[↑↓→]", line).start() for line in plain.splitlines()]
        assert len(arrows) == 2 and arrows[0] == arrows[1]

    def test_no_history_raises(self, tmp_path):
        with pytest.raises(NoHistory):
            render_history(
                Store(tmp_path), ReportRequest(scope="history", tests=(TestId("demo", "ghost"),))
            )

    def test_limit_respected(self, store_three_revisions):
        line = render_history(store_three_revisions, history_request(limit=2))
        assert "r1" not in line
        assert "r2" in line and "r3" in line

    def test_history_csv_rows(self, store_three_revisions):
        request = ReportRequest(
            scope="history",
            tests=(TestId("demo", "t"),),
            fmt=ReportFormat.CSV,
            no_color=True,
        )
        text = export(store_three_revisions, request)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("demo::t,package:0,energy_mean@r1,")
        assert len(lines) == 4


class TestGlyph:
    def test_trend_thresholds(self):
        assert _arrow((1.0, 1.005)) == ("→", None)
        assert _arrow((1.0, 1.02)) == ("↑", "31")
        assert _arrow((1.0, 0.98)) == ("↓", "32")

    def test_bucket_is_rank_quintile(self):
        assert _buckets([float(v) for v in range(10)]) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_equal_values_keep_input_order(self):
        assert _buckets([2.0, 1.0, 2.0, 2.0, 1.0]) == [2, 0, 3, 4, 1]

    @given(scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_bucket_invariant_under_uniform_scaling(self, scale):
        # Rank-based buckets cannot move when all energies scale together.
        energies = [5.0, 1.0, 9.0, 2.0]
        assert _buckets([e * scale for e in energies]) == _buckets(energies)


class TestSparkline:
    def test_levels_scale_min_to_max(self):
        assert sparkline([4.0, 3.0, 2.0]) == "█▅▁"
        assert sparkline([1.0]) == "▁"
        assert sparkline([2.0, 2.0]) == "▁▁"


class TestCompare:
    def test_delta_rows_match_hand_computed_difference(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("A", ts(0), {"demo::t": 4_000_000}))
        store.save(make_record("B", ts(1), {"demo::t": 3_000_000}))
        request = ReportRequest(
            scope="compare", revisions=("A", "B"), fmt=ReportFormat.CSV, no_color=True
        )
        text = render_compare(store, request)
        rows = dict()
        for line in text.splitlines()[1:]:
            test, domain, stat, value, unit = line.split(",")
            rows[stat] = float(value)
        assert rows["energy_mean_delta"] == rows["energy_mean_b"] - rows["energy_mean_a"]
        assert rows["energy_mean_delta"] == pytest.approx(-1.0)

    def test_term_view_shows_change(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("A", ts(0), {"demo::t": 4_000_000}))
        store.save(make_record("B", ts(1), {"demo::t": 2_000_000}))
        request = ReportRequest(scope="compare", revisions=("A", "B"), no_color=True)
        text = render_compare(store, request)
        assert "-50.0%" in text

    @pytest.mark.parametrize("fmt, line", [
        (ReportFormat.TERM, "only in {label}: {tests}"),
        (ReportFormat.HTML, "<p>only in {label}: {tests}</p>"),
    ])
    def test_tests_of_one_revision_only_are_named(self, tmp_path, fmt, line):
        store = Store(tmp_path)
        store.save(make_record("A", ts(0), {"demo::t": 4_000_000, "demo::old": 1, "demo::gone": 2}))
        store.save(make_record("B", ts(1), {"demo::t": 3_000_000, "demo::new": 5}))
        text = render_compare(store, ReportRequest(scope="compare", revisions=("A", "B"), fmt=fmt, no_color=True))
        lines = text.splitlines()
        assert line.format(label="A", tests="demo::gone, demo::old") in lines
        assert line.format(label="B", tests="demo::new") in lines

    def test_same_revision_rejected(self):
        with pytest.raises(ValueError):
            ReportRequest(scope="compare", revisions=("A", "A"))

    def test_revision_scope_needs_one_revision(self):
        with pytest.raises(ValueError, match="^revision scope needs exactly one revision$"):
            ReportRequest(scope="revision", revisions=("A", "B"))


def make_two_domain_record(label, created_at, tests, iterations=2):
    """A package:0 + dram:0 record.

    ``tests`` maps a test id to ``(package_uj, dram_uj, duration_ns)``;
    iteration ``i`` adds ``i * 123_457`` µJ to both domains and
    ``i * 7`` ms to the duration.
    """
    from manai.protocol import TestStatus
    from manai.results import TestExecutionResult, summarize
    from manai.sampler import EnergySample
    from manai.store import RevisionRecord

    summaries, results = {}, {}
    for test_text, (package_uj, dram_uj, duration_ns) in tests.items():
        test = TestId.parse(test_text)
        runs = []
        for i in range(iterations):
            end_ns = duration_ns + i * 7_000_000
            sample = EnergySample(
                0, end_ns, {PKG: package_uj + i * 123_457, DRAM: dram_uj + i * 123_457}
            )
            runs.append(TestExecutionResult.build(
                test=test, iteration=i, samples=[sample], begin_ns=0, end_ns=end_ns,
                status=TestStatus.PASS, update_interval_ns=1_000_000, domains=(PKG, DRAM),
            ))
        summaries[test] = summarize(runs)
        results[test] = tuple(runs)
    return RevisionRecord(
        revision_label=label,
        created_at=created_at,
        config_digest="sha256:0123456789abcdef0123456789abcdef",
        probe_backend="simulated",
        probe_update_interval_ns=1_000_000,
        probe_domains=(PKG, DRAM),
        config={"experiment.rate_hz": "100.0"},
        summaries=summaries,
        results=results,
    )


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_TESTS = (TestId("demo", "heavy"), TestId("demo", "light"))

# Every format of every scope whose bytes must not change. HTML is compared
# without its one generated-timestamp comment line. After an intended output
# change, rewrite a file from ``render_golden(build_golden_store(tmp), name)``.
GOLDEN_CASES = {
    "revision.csv": dict(scope="revision", revisions=("r2",), fmt=ReportFormat.CSV),
    "revision.machine": dict(scope="revision", revisions=("r2",), fmt=ReportFormat.MACHINE),
    "revision.term": dict(scope="revision", revisions=("r2",), no_color=True),
    "revision.term-color": dict(scope="revision", revisions=("r2",)),
    "revision.html": dict(scope="revision", revisions=("r2",), fmt=ReportFormat.HTML),
    "compare.csv": dict(scope="compare", revisions=("r1", "r2"), fmt=ReportFormat.CSV),
    "compare.machine": dict(scope="compare", revisions=("r1", "r2"), fmt=ReportFormat.MACHINE),
    "compare.term": dict(scope="compare", revisions=("r1", "r2"), no_color=True),
    "compare.term-color": dict(scope="compare", revisions=("r1", "r2")),
    "compare.html": dict(scope="compare", revisions=("r1", "r2"), fmt=ReportFormat.HTML),
    "history.csv": dict(scope="history", tests=GOLDEN_TESTS, fmt=ReportFormat.CSV),
    "history.machine": dict(scope="history", tests=GOLDEN_TESTS, fmt=ReportFormat.MACHINE),
    "history.term": dict(scope="history", tests=GOLDEN_TESTS, no_color=True),
    "history.term-color": dict(scope="history", tests=GOLDEN_TESTS),
    "history.html": dict(scope="history", tests=GOLDEN_TESTS, fmt=ReportFormat.HTML),
}


def build_golden_store(path) -> Store:
    """Two revisions of two tests over package:0 and dram:0.

    ``demo::light`` runs below the 1 ms update interval in r2, so the
    low-confidence marker is part of the golden revision views.
    """
    store = Store(path)
    store.save(make_two_domain_record("r1", ts(0), {
        "demo::heavy": (5_000_000, 1_200_000, 500_000_000),
        "demo::light": (2_500_000, 400_000, 250_000_000),
    }))
    store.save(make_two_domain_record("r2", ts(1), {
        "demo::heavy": (6_100_000, 900_000, 520_000_000),
        "demo::light": (2_000_000, 400_000, 600_000),
    }))
    return store


def render_golden(store: Store, name: str) -> str:
    text = export(store, ReportRequest(width=120, **GOLDEN_CASES[name]))
    return re.sub(r"<!-- generated [^\n]* -->\n", "", text)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_is_byte_identical_to_golden(tmp_path, name):
    expected = (GOLDEN_DIR / name).read_bytes().decode("utf-8")
    assert render_golden(build_golden_store(tmp_path), name) == expected


# A two-domain record in which ``demo::pkg`` holds package:0 only: its
# rows and lines leave dram:0 out, in the summary as in the comparison.
PARTIAL_CASES = {
    "partial.term": dict(scope="revision", revisions=("p2",), no_color=True),
    "partial.csv": dict(scope="revision", revisions=("p2",), fmt=ReportFormat.CSV),
    "partial-compare.term": dict(scope="compare", revisions=("p1", "p2"), no_color=True),
    "partial-compare.csv": dict(scope="compare", revisions=("p1", "p2"), fmt=ReportFormat.CSV),
}


def make_partial_record(label, created_at, both_package_uj, pkg_uj):
    """``demo::both`` over package:0 and dram:0, and ``demo::pkg`` over
    package:0 only, in one package:0 + dram:0 record."""
    from manai.results import summarize

    record = make_two_domain_record(
        label, created_at, {"demo::both": (both_package_uj, 1_200_000, 500_000_000)}
    )
    test = TestId("demo", "pkg")
    runs = (make_result(test, energy_uj=pkg_uj),)
    return replace(
        record,
        summaries={**record.summaries, test: summarize(runs)},
        results={**record.results, test: runs},
    )


@pytest.mark.parametrize("name", sorted(PARTIAL_CASES))
def test_domain_a_test_lacks_is_left_out_of_its_lines(tmp_path, name):
    store = Store(tmp_path)
    store.save(make_partial_record("p1", ts(0), 5_000_000, 3_000_000))
    store.save(make_partial_record("p2", ts(1), 6_000_000, 2_000_000))
    text = export(store, ReportRequest(width=120, **PARTIAL_CASES[name]))
    assert text == (GOLDEN_DIR / name).read_bytes().decode("utf-8")


def refuse(*args):
    raise AssertionError("a view decoded what it does not show")


GOLDEN_HISTORY = ",".join(map(str, GOLDEN_TESTS))


# Views decode only what they show: the summary and compare views build no
# per-iteration result, and evolution builds no summary statistics.
@pytest.mark.parametrize("decoder, argv", [
    *(pytest.param("_result_from_doc", ["report", "--revision", "r2", "--format", fmt],
                   id=f"revision-{fmt}") for fmt in ("term", "csv", "html")),
    *(pytest.param("_result_from_doc", ["compare", "r1", "r2", "--format", fmt],
                   id=f"compare-{fmt}") for fmt in ("term", "csv", "html")),
    *(pytest.param("_stats_from_doc", ["report", "--evolution", GOLDEN_HISTORY, "--format", fmt],
                   id=f"evolution-{fmt}") for fmt in ("term", "csv", "html", "machine")),
])
def test_views_decode_only_what_they_show(tmp_path, monkeypatch, capsys, decoder, argv):
    build_golden_store(tmp_path)
    argv = [*argv, "--data-dir", str(tmp_path), "--no-color"]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    monkeypatch.setattr(manai.store, decoder, refuse)
    assert main(argv) == 0
    stamp = re.compile(r"<!-- generated [^\n]* -->")
    assert stamp.sub("", capsys.readouterr().out) == stamp.sub("", shown)


class TestDomainFilter:
    @pytest.fixture
    def store_dram_rising(self, tmp_path):
        """package:0 falls from 4 J to 2 J while dram:0 rises from 1 J to 3 J."""
        store = Store(tmp_path)
        store.save(make_two_domain_record(
            "r1", ts(0), {"demo::t": (4_000_000, 1_000_000, 500_000_000)}, iterations=1
        ))
        store.save(make_two_domain_record(
            "r2", ts(1), {"demo::t": (2_000_000, 3_000_000, 500_000_000)}, iterations=1
        ))
        return store

    def test_history_follows_selected_domain(self, store_dram_rising):
        request = ReportRequest(
            scope="history", tests=(TestId("demo", "t"),), domains=(DRAM,), no_color=True
        )
        csv = render_history(store_dram_rising, replace(request, fmt=ReportFormat.CSV))
        assert csv.splitlines()[1:] == [
            "demo::t,dram:0,energy_mean@r1,1.0,J",
            "demo::t,dram:0,energy_mean@r2,3.0,J",
        ]
        line = render_history(store_dram_rising, request)
        assert "↑" in line
        assert "+200% last step" in line
        assert "latest 3 J" in line

    @pytest.fixture
    def store_dram_added(self, tmp_path):
        """r1 holds package:0 only; r2 holds package:0 and dram:0."""
        store = Store(tmp_path)
        store.save(make_record("r1", ts(0), {"demo::t": 4_000_000}))
        store.save(make_two_domain_record(
            "r2", ts(1), {"demo::t": (2_000_000, 3_000_000, 500_000_000)}, iterations=1
        ))
        return store

    def test_history_shows_only_the_points_it_draws(self, store_dram_added):
        request = ReportRequest(
            scope="history", tests=(TestId("demo", "t"),), domains=(DRAM,), no_color=True
        )
        csv = render_history(store_dram_added, replace(request, fmt=ReportFormat.CSV))
        assert csv.splitlines()[1:] == ["demo::t,dram:0,energy_mean@r2,3.0,J"]
        line = render_history(store_dram_added, request)
        assert "single point" in line
        assert line.endswith("latest 3 J  (r2)\n")
        page = render_history(store_dram_added, replace(request, fmt=ReportFormat.HTML))
        assert "font-size='11'>r2</text>" in page
        assert "r1" not in page
        # The machine export keeps the points that hold a selected domain.
        doc = json.loads(render_history(store_dram_added, replace(request, fmt=ReportFormat.MACHINE)))
        assert [(p["revision_label"], p["energy_mean_j"]) for p in doc[0]["points"]] == [
            ("r2", {"dram:0": 3.0}),
        ]

    def test_history_machine_lists_selected_domains(self, store_dram_rising):
        request = ReportRequest(
            scope="history", tests=(TestId("demo", "t"),), domains=(DRAM,),
            fmt=ReportFormat.MACHINE,
        )
        doc = json.loads(render_history(store_dram_rising, request))
        assert [p["energy_mean_j"] for p in doc[0]["points"]] == [
            {"dram:0": 1.0}, {"dram:0": 3.0},
        ]

    def test_summary_chart_follows_selected_domain(self, store_dram_rising):
        term = render_summary(store_dram_rising, summary_request("r2", domains=(DRAM,)))
        assert "mean dram:0 energy per test:" in term
        assert re.search(r"^  demo::t\s+█+ 3 J$", term, re.MULTILINE)
        assert "package:0" not in term
        page = render_summary(
            store_dram_rising, summary_request("r2", domains=(DRAM,), fmt=ReportFormat.HTML)
        )
        assert "<h2>Mean dram:0 energy per test</h2>" in page
        assert ">3 J</text>" in page
        assert "package:0" not in page

    @pytest.mark.parametrize("fmt", list(ReportFormat))
    @pytest.mark.parametrize("scope", [
        dict(scope="revision", revisions=("r1",)),
        dict(scope="compare", revisions=("r1", "r2")),
        dict(scope="history", tests=(TestId("demo", "t"),)),
    ], ids=["revision", "compare", "history"])
    def test_filter_selecting_no_domain_is_empty_scope(self, store_three_revisions, scope, fmt):
        request = ReportRequest(domains=(DRAM,), fmt=fmt, **scope)
        with pytest.raises(EmptyScope, match="no selected domain"):
            export(store_three_revisions, request)


def test_compare_html_is_a_table(store_three_revisions):
    request = ReportRequest(scope="compare", revisions=("r1", "r3"), fmt=ReportFormat.HTML)
    page = render_compare(store_three_revisions, request)
    assert "<pre>" not in page
    assert "<th>delta [J]</th>" in page
    assert (
        "<tr><td class='name'>demo::t</td><td>package:0</td>"
        "<td>4</td><td>2</td><td>-2</td><td>-50.0%</td></tr>"
    ) in page
