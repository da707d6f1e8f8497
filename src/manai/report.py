"""Render stored results: summary tables, comparisons, evolution views.

Each scope builds its rows once: the ``(test, domain, statistic, value,
unit)`` tuples of the CSV export, which prints them at full precision.
The terminal and HTML output draw the points those rows list, to three
significant digits. A table is one tuple of ``_Column``s, each owning
its cell, over the rows pivoted by ``(test, domain)``; an evolution view
draws the ``(revision, energy)`` points of its rows. The terminal adds
block-bar charts and sparklines, both coloured by rank quintile
(``_buckets``); every HTML page shares one self-contained shell with
inline SVG; and the machine-readable JSON export mirrors the record
schema verbatim.

Domains: ``ReportRequest.domains`` selects among a record's domains (all
when unset); a filter that selects none raises ``EmptyScope``. Charts and
evolution views follow the lead domain, the first selected domain in
``domain_sort_key`` order.

Rendering is a pure function of store content and the request, so
identical inputs produce identical bytes (the HTML generation timestamp
lives in a single metadata comment line).
"""

from __future__ import annotations

import html
import json
import math
import shutil
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from manai.errors import EmptyScope, NoHistory, StorageError
from manai.protocol import TestId
from manai.probe import EnergyDomain, domain_sort_key
from manai.store import HistorySeries, RevisionHead, Store, head_from_doc, record_to_doc

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
CSV_HEADER = "test,domain,statistic,value,unit"

# Relative change below this is rendered as flat; absorbs quantization noise.
DEFAULT_TREND_THRESHOLD = 0.01

_BUCKET_COLORS = ("32", "36", "33", "35", "31")  # green .. red
_SVG_BUCKET_FILLS = ("#2e7d32", "#00838f", "#f9a825", "#ad1457", "#c62828")


class ReportFormat(Enum):
    TERM = "term"
    HTML = "html"
    CSV = "csv"
    MACHINE = "machine"


@dataclass(frozen=True)
class ReportRequest:
    """What to render: one revision, a pair to compare, or test histories."""

    scope: str  # "revision" | "compare" | "history"
    revisions: tuple[str, ...] = ()
    tests: tuple[TestId, ...] = ()
    limit: int | None = None
    domains: tuple[EnergyDomain, ...] | None = None
    fmt: ReportFormat = ReportFormat.TERM
    output_path: Path | None = None
    no_color: bool = False
    width: int | None = None

    def __post_init__(self):
        if self.scope == "revision" and len(self.revisions) != 1:
            raise ValueError("revision scope needs exactly one revision")
        if self.scope == "compare":
            if len(self.revisions) != 2 or self.revisions[0] == self.revisions[1]:
                raise ValueError("compare scope needs two distinct revisions")
        if self.scope == "history" and not self.tests:
            raise ValueError("history scope needs at least one test")
        if self.limit is not None and self.limit < 1:
            raise ValueError(f"limit must be at least 1, got {self.limit}")


def _buckets(values: list[float]) -> list[int]:
    """Colour bucket of each value: its rank quintile, 0 (lowest) to 4.
    Equal values keep their input order."""
    buckets = [0] * len(values)
    for rank, i in enumerate(sorted(range(len(values)), key=values.__getitem__)):
        buckets[i] = rank * 5 // len(values)
    return buckets


def _last_change(series: tuple[float, ...]) -> float | None:
    """Relative change of the last step; None without a nonzero previous point."""
    if len(series) >= 2 and series[-2] != 0:
        return (series[-1] - series[-2]) / series[-2]
    return None


def _arrow(series: tuple[float, ...]) -> tuple[str, str | None]:
    """Trend glyph and ANSI colour of the last step of an energy series.
    A step from 0 J has no relative change; its arrow follows its sign."""
    change = _last_change(series)
    if change is None:
        change = math.copysign(1.0, series[-1]) if len(series) > 1 and series[-1] else 0.0
    if change > DEFAULT_TREND_THRESHOLD:
        return "↑", "31"
    if change < -DEFAULT_TREND_THRESHOLD:
        return "↓", "32"
    return "→", None


def sparkline(values: list[float]) -> str:
    """One block glyph per value, from the lowest glyph at the minimum to
    the highest at the maximum; equal values all take the lowest."""
    lo, hi = min(values, default=0.0), max(values, default=0.0)
    if hi == lo:
        return SPARK_BLOCKS[0] * len(values)
    top = len(SPARK_BLOCKS) - 1
    return "".join(SPARK_BLOCKS[round((v - lo) / (hi - lo) * top)] for v in values)


def format_sig(value: float) -> str:
    """Three-significant-digit display form."""
    return f"{value:.3g}"


def _colorize(text: str, code: str | None, no_color: bool) -> str:
    if no_color or code is None:
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _select_domains(
    available: Iterable[EnergyDomain], request: ReportRequest, where: str
) -> list[EnergyDomain]:
    """The requested domains among ``available`` in ``domain_sort_key`` order;
    the first is the lead domain.

    Raises:
        EmptyScope: ``request.domains`` selects none of ``available``.
    """
    available = sorted(available, key=domain_sort_key)
    domains = [d for d in available if not request.domains or d in request.domains]
    if not domains:
        names = ", ".join(map(str, available))
        raise EmptyScope(f"no selected domain in {where} (it has {names})")
    return domains


def _require_tests(summaries, revision: str) -> None:
    if not summaries:
        raise EmptyScope(f"revision {revision!r} holds no test data")


def _latest_head(store: Store, revision: str) -> RevisionHead:
    """The head of the newest record of ``revision``; views show no
    results or samples, so no sidecar is read."""
    head = store.latest_text(revision, head_from_doc)[0]
    _require_tests(head.summaries, revision)
    return head


class _Row(NamedTuple):
    """One CSV line; ``domain`` is None for a statistic of the whole test."""

    test: TestId
    domain: EnergyDomain | None
    statistic: str
    value: float
    unit: str


def _as_csv(rows: list[_Row]) -> str:
    lines = [
        f"{r.test},{'' if r.domain is None else r.domain},{r.statistic},{r.value!r},{r.unit}"
        for r in rows
    ]
    return "\n".join([CSV_HEADER, *lines]) + "\n"


class _Column(NamedTuple):
    """A table column: its headings, its cell, terminal layout and HTML
    class. ``cell`` maps statistics by name, which also hold ``test`` and
    ``domain``, to text, or to (text, ANSI colour) for the terminal. A
    ``per_test`` column gets its test's domainless statistics and shows on
    the test's first line only; any other gets the line domain's."""

    term: str
    html: str
    spec: str  # format spec of the terminal cell, unit included
    cell: Callable[[dict], str | tuple[str, str]]
    unit: str = ""  # terminal suffix of a non-empty cell
    gap: str = " "  # terminal separator before the cell
    span: str = ""  # class of an HTML span around a non-empty cell
    per_test: bool = False


def _sig(statistic: str) -> Callable[[dict], str]:
    """The cell of a statistic, to three significant digits."""
    return lambda stats: format_sig(stats[statistic])


def _table_lines(rows: list[_Row], columns: tuple[_Column, ...]) -> list[list]:
    """Pivot rows by (test, domain) into one line of cells per domain."""
    groups: dict[tuple, dict] = {}
    key = None
    for test, domain, statistic, value, _ in rows:
        if (test, domain) != key:  # rows come in runs: one lookup per run
            key = (test, domain)
            stats = groups.setdefault(key, {"test": test, "domain": domain})
        stats[statistic] = value
    cells = [(column.cell, column.per_test) for column in columns]
    lines, previous = [], None
    for (test, domain), stats in groups.items():
        if domain is None:
            continue
        if test != previous:
            test_stats = groups[test, None]
            lines.append([cell(test_stats if per_test else stats) for cell, per_test in cells])
        else:
            lines.append(["" if per_test else cell(stats) for cell, per_test in cells])
        previous = test
    return lines


def _width(request: ReportRequest) -> int:
    return request.width or shutil.get_terminal_size(fallback=(100, 24)).columns


def _term_table(columns: tuple[_Column, ...], lines: list[list], request: ReportRequest) -> list[str]:
    header = "".join(column.gap + format(column.term, column.spec) for column in columns)
    out = [header, "-" * min(len(header), _width(request))]
    for cells in lines:
        text = ""
        for column, cell in zip(columns, cells):
            value, code = cell if isinstance(cell, tuple) else (cell, None)
            padded = format(value + column.unit if value else "", column.spec)
            text += column.gap + _colorize(padded, code, request.no_color)
        out.append(text)
    return out


def _html_table(columns: tuple[_Column, ...], lines: list[list]) -> str:
    heads = [f'<th class="name">{columns[0].html}</th>']
    heads += [f"<th>{column.html}</th>" for column in columns[1:]]
    # Four heading cells to a source line keep the markup readable.
    header = "\n".join("".join(heads[i:i + 4]) for i in range(0, len(heads), 4))
    body = []
    for cells in lines:
        tds = []
        for column, cell in zip(columns, cells):
            text = html.escape(cell[0] if isinstance(cell, tuple) else cell)
            if text and column.span:
                text = f'<span class="{column.span}">{text}</span>'
            tds.append(text)
        body.append("<tr><td class='name'>" + "</td><td>".join(tds) + "</td></tr>")
    return f"<table>\n<tr>{header}</tr>\n{''.join(body)}\n</table>"


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
th { background: #f0f0f0; }
td.name, th.name { text-align: left; font-family: monospace; }
.low-confidence { color: #b26a00; font-weight: bold; }
svg { margin: 0.5em 0; }
"""


def _html_page(title: str, body: str) -> str:
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{html.escape(title)}</title>
<style>{_HTML_STYLE}</style>
</head>
<body>
<!-- generated {datetime.now(timezone.utc).isoformat(timespec="seconds")} -->
{body}
</body>
</html>
"""


# --- summary (one revision) ---------------------------------------------


_SUMMARY_STATISTICS = ("mean", "median", "min", "max", "stddev")

_SUMMARY_COLUMNS = (
    _Column("test", "test", "<28", lambda stats: str(stats["test"]), gap="", per_test=True),
    _Column("domain", "domain", "<10", lambda stats: str(stats["domain"])),
    _Column("iter", "iterations", ">4", lambda stats: str(stats["iterations"]), per_test=True),
    _Column("P/F/S", "P/F/S", ">6", per_test=True,
            cell=lambda stats: f"{stats['pass_count']}/{stats['fail_count']}/{stats['skip_count']}"),
    _Column("E mean", "E mean [J]", ">9", _sig("energy_mean"), " J"),
    _Column("E median", "E median [J]", ">9", _sig("energy_median"), " J"),
    _Column("E stddev", "E stddev [J]", ">9", _sig("energy_stddev"), " J"),
    _Column("P mean", "P mean [W]", ">9", _sig("power_mean"), " W"),
    _Column("dur mean", "duration [s]", ">9", _sig("duration_mean"), " s", per_test=True),
    _Column("conf", "confidence", "", gap="  ", span="low-confidence", per_test=True,
            cell=lambda stats: "< update interval" if stats["low_confidence"] else ""),
)


def _summary_rows(record: RevisionHead, domains: list[EnergyDomain], names=None) -> list[_Row]:
    """The summary rows of the statistics in ``names``, or of all for None."""
    per_domain = [(kind == "power", stat, f"{kind}_{stat}", unit)
                  for kind, unit in (("energy", "J"), ("power", "W"))
                  for stat in _SUMMARY_STATISTICS if names is None or f"{kind}_{stat}" in names]
    rows = []
    for test in sorted(record.summaries, key=str):
        summary = record.summaries[test]
        for domain in domains:
            energy = summary.energy_stats.get(domain)
            power = summary.power_stats.get(domain)
            if energy is None or power is None:
                continue
            for is_power, stat, name, unit in per_domain:
                rows.append(_Row(test, domain, name, getattr(power if is_power else energy, stat), unit))
        per_test = [
            _Row(test, None, "duration_mean", summary.mean_duration_s, "s"),
            _Row(test, None, "iterations", summary.iterations, "count"),
            _Row(test, None, "pass_count", summary.pass_count, "count"),
            _Row(test, None, "fail_count", summary.fail_count, "count"),
            _Row(test, None, "skip_count", summary.skip_count, "count"),
            _Row(test, None, "low_confidence", int(summary.any_low_confidence), "flag"),
        ]
        rows += [row for row in per_test if names is None or row.statistic in names]
    return rows


def _chart(rows: list[_Row], lead: EnergyDomain) -> list[tuple[TestId, float, int]]:
    """(test, mean lead-domain energy, colour bucket) of each charted test."""
    means = [(r.test, r.value) for r in rows if r.domain == lead and r.statistic == "energy_mean"]
    buckets = _buckets([mean for _, mean in means])
    return [(test, mean, bucket) for (test, mean), bucket in zip(means, buckets)]


def _summary_term(
    record: RevisionHead, rows: list[_Row], lead: EnergyDomain, request: ReportRequest
) -> str:
    lines = [
        f"revision {record.revision_label}  ({record.created_at})",
        f"probe {record.probe_backend}, update interval "
        f"{record.probe_update_interval_ns / 1e6:g} ms, "
        f"config {record.config_digest.split(':', 1)[1][:12]}",
        "",
        *_term_table(_SUMMARY_COLUMNS, _table_lines(rows, _SUMMARY_COLUMNS), request),
        "",
    ]
    chart = _chart(rows, lead)
    if chart:
        lines.append(f"mean {lead} energy per test:")
        scale = max(mean for _, mean, _ in chart)
        bar_width = max(10, min(48, _width(request) - 45))
        for test, mean, bucket in chart:
            bar = "█" * max(1, round(mean / scale * bar_width)) if mean > 0 else ""
            bar = _colorize(bar, _BUCKET_COLORS[bucket], request.no_color)
            lines.append(f"  {str(test):<28} {bar} {format_sig(mean)} J")
    return "\n".join(lines) + "\n"


def _summary_html(record: RevisionHead, rows: list[_Row], lead: EnergyDomain) -> str:
    chart = _chart(rows, lead)
    scale = max((mean for _, mean, _ in chart), default=0.0) or 1.0
    bars = []
    for i, (test, mean, bucket) in enumerate(chart):
        bar_w = max(1, round(mean / scale * 420))
        y = 8 + i * 26
        bars.append(
            f"<text x='0' y='{y + 13}' font-size='12' font-family='monospace'>"
            f"{html.escape(str(test))}</text>"
            f"<rect x='240' y='{y}' width='{bar_w}' height='16' "
            f"fill='{_SVG_BUCKET_FILLS[bucket]}' />"
            f"<text x='{244 + bar_w}' y='{y + 13}' font-size='12'>"
            f"{format_sig(mean)} J</text>"
        )
    svg = (
        f"<svg width='760' height='{12 + 26 * max(len(chart), 1)}' "
        f"xmlns='http://www.w3.org/2000/svg'>{''.join(bars)}</svg>"
    )
    return _html_page(
        f"energy summary: {record.revision_label}",
        f"<h1>Energy summary for revision {html.escape(record.revision_label)}</h1>\n"
        f"<p>probe {record.probe_backend}, update interval "
        f"{record.probe_update_interval_ns / 1e6:g} ms,\n"
        f"created {record.created_at}, config {record.config_digest}</p>\n"
        f"{_html_table(_SUMMARY_COLUMNS, _table_lines(rows, _SUMMARY_COLUMNS))}\n"
        f"<h2>Mean {html.escape(str(lead))} energy per test</h2>\n{svg}",
    )


def render_summary(store: Store, request: ReportRequest) -> str:
    """Summary view of one stored revision in the requested format.

    Raises:
        UnknownRevision: Nothing stored under that label.
        EmptyScope: The revision holds no test data, or the domain filter
            selects none of its domains.
    """
    revision = request.revisions[0]
    if request.fmt is ReportFormat.MACHINE:
        # The stored file is the export; check it without decoding it.
        def check(doc):
            _require_tests(doc["summaries"], revision)
            _select_domains(map(EnergyDomain.parse, doc["probe"]["domains"]), request, f"revision {revision!r}")

        return store.latest_text(revision, check)[1]
    return render_head(_latest_head(store, revision), request)


def render_head(head: RevisionHead, request: ReportRequest) -> str:
    """Summary view of one record's head in the term, HTML or CSV format;
    ``manai run`` prints the record it made through it, reading no file.
    The machine format is a stored file's text, so only ``render_summary``
    has it.

    Raises:
        EmptyScope: The record holds no test data, or the domain filter
            selects none of its domains.
    """
    revision = head.revision_label
    _require_tests(head.summaries, revision)
    domains = _select_domains(head.probe_domains, request, f"revision {revision!r}")
    rows = _summary_rows(head, domains)
    if request.fmt is ReportFormat.CSV:
        return _as_csv(rows)
    if request.fmt is ReportFormat.HTML:
        return _summary_html(head, rows, domains[0])
    return _summary_term(head, rows, domains[0], request)


# --- compare (two revisions) --------------------------------------------


def _change_cell(stats: dict) -> tuple[str, str]:
    """B's relative change of the mean energy, coloured by its sign."""
    mean_a, delta = stats["energy_mean_a"], stats["energy_mean_delta"]
    change = f"{delta / mean_a * 100:+.1f}%" if mean_a else "n/a"
    return change, "31" if delta > 0 else "32" if delta < 0 else "0"


_COMPARE_COLUMNS = (
    _Column("test", "test", "<28", lambda stats: str(stats["test"]), gap=""),
    _Column("domain", "domain", "<10", lambda stats: str(stats["domain"])),
    _Column("A mean", "A mean [J]", ">10", _sig("energy_mean_a"), " J"),
    _Column("B mean", "B mean [J]", ">10", _sig("energy_mean_b"), " J"),
    _Column("delta", "delta [J]", ">10", _sig("energy_mean_delta"), " J"),
    _Column("change", "change", ">8", _change_cell),
)


_COMPARED = ("energy_mean", "power_mean", "duration_mean")


def _compare_rows(a: RevisionHead, b: RevisionHead, domains: list[EnergyDomain]) -> list[_Row]:
    """B's summary rows of the compared statistics, joined with A's on
    (test, domain, statistic) and split into ``_a``, ``_b`` and ``_delta``."""
    rows_a = {(r.test, r.domain, r.statistic): r.value for r in _summary_rows(a, domains, _COMPARED)}
    rows = []
    for row in _summary_rows(b, domains, _COMPARED):
        value_a = rows_a.get((row.test, row.domain, row.statistic))
        if value_a is None:
            continue
        for suffix, value in (("a", value_a), ("b", row.value), ("delta", row.value - value_a)):
            rows.append(row._replace(statistic=f"{row.statistic}_{suffix}", value=value))
    return rows


def _only_in(a: RevisionHead, b: RevisionHead) -> list[str]:
    """A line for each revision that holds tests the other one lacks."""
    lines = []
    for this, other in ((a, b), (b, a)):
        only = sorted(set(this.summaries) - set(other.summaries), key=str)
        if only:
            lines.append(f"only in {this.revision_label}: {', '.join(map(str, only))}")
    return lines


def render_compare(store: Store, request: ReportRequest) -> str:
    """Comparison of two stored revisions (latest record of each).

    Raises:
        EmptyScope: A revision holds no test data, or the domain filter
            selects none of a revision's domains.
    """
    a, b = (_latest_head(store, revision) for revision in request.revisions)
    # The filter must select a domain of each record; the rows follow B's.
    _select_domains(a.probe_domains, request, f"revision {a.revision_label!r}")
    domains = _select_domains(b.probe_domains, request, f"revision {b.revision_label!r}")
    if request.fmt is ReportFormat.MACHINE:
        doc = {"a": record_to_doc(a), "b": record_to_doc(b)}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    rows = _compare_rows(a, b, domains)
    if request.fmt is ReportFormat.CSV:
        return _as_csv(rows)
    lines = _table_lines(rows, _COMPARE_COLUMNS)
    title = f"compare {a.revision_label} -> {b.revision_label}"
    if request.fmt is ReportFormat.HTML:
        notes = "".join(f"\n<p>{html.escape(line)}</p>" for line in _only_in(a, b))
        table = _html_table(_COMPARE_COLUMNS, lines)
        return _html_page(f"energy {title}", f"<h1>{html.escape(title)}</h1>\n{table}{notes}")
    text = [title, "", *_term_table(_COMPARE_COLUMNS, lines, request), *_only_in(a, b)]
    return "\n".join(text) + "\n"


# --- evolution (history of tests) ---------------------------------------


class _Evolution(NamedTuple):
    """One requested test's history in its lead domain: the (revision,
    energy) points of its records that hold that domain, oldest first."""

    test: TestId
    lead: EnergyDomain
    points: list[tuple[str, float]]


def _evolution(series: HistorySeries, request: ReportRequest) -> _Evolution:
    if not series.points:
        raise NoHistory(f"no stored history for {series.test}")
    latest = series.points[-1].energy_mean_j
    lead = _select_domains(latest, request, f"the latest record of {series.test}")[0]
    points = [
        (p.revision_label, p.energy_mean_j[lead]) for p in series.points if lead in p.energy_mean_j
    ]
    return _Evolution(series.test, lead, points)


def _evolution_term_line(evolution: _Evolution, bucket: int, no_color: bool) -> str:
    revisions, energies = zip(*evolution.points)
    # Padded before colouring, so the escape codes take no column.
    spark = _colorize(f"{sparkline(list(energies)):<12}", _BUCKET_COLORS[bucket], no_color)
    arrow = _colorize(*_arrow(energies), no_color)
    change = _last_change(energies)
    if len(energies) == 1:
        step = "single point"
    elif change is None:
        step = "n/a last step"  # a step from 0 J has no relative change
    else:
        step = f"{change * 100:+.0f}% last step"
    return (
        f"{str(evolution.test):<28} {spark} {arrow}  {step:<16} "
        f"latest {format_sig(energies[-1])} J  ({' -> '.join(revisions)})"
    )


def _evolution_svg(evolution: _Evolution) -> str:
    width, height, pad = 320, 64, 6
    revisions, energies = zip(*evolution.points)
    lo, hi = min(energies), max(energies)
    span = (hi - lo) or 1.0
    step = (width - 2 * pad) / max(len(energies) - 1, 1)
    points = " ".join(
        f"{pad + i * step:.1f},{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(energies)
    )
    labels = html.escape(" -> ".join(revisions))
    return (
        f"<svg width='{width}' height='{height + 18}' xmlns='http://www.w3.org/2000/svg'>"
        f"<polyline fill='none' stroke='#1565c0' stroke-width='2' points='{points}'/>"
        f"<text x='{pad}' y='{height + 14}' font-size='11'>{labels}</text></svg>"
    )


def render_history(store: Store, request: ReportRequest) -> str:
    """Evolution view of the selected tests, each in its lead domain.

    Raises:
        NoHistory: A test has no stored history.
        EmptyScope: The domain filter selects none of the domains of a
            test's latest record.
    """
    histories = store.history(request.tests, request.limit)
    evolutions = [_evolution(series, request) for series in histories]
    if request.fmt is ReportFormat.CSV:
        return _as_csv([
            _Row(e.test, e.lead, f"energy_mean@{revision}", energy, "J")
            for e in evolutions for revision, energy in e.points
        ])
    if request.fmt is ReportFormat.MACHINE:
        # The points of each series that hold a selected domain, with those.
        doc = []
        for series in histories:
            points = []
            for p in series.points:
                means = {
                    str(d): mean for d, mean in p.energy_mean_j.items()
                    if not request.domains or d in request.domains
                }
                if means:
                    points.append({"revision_label": p.revision_label, "created_at": p.created_at,
                                   "energy_mean_j": means})
            doc.append({"test": str(series.test), "points": points})
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if request.fmt is ReportFormat.HTML:
        fragments = "".join(
            f"<h2>{html.escape(str(e.test))}</h2>{_evolution_svg(e)}" for e in evolutions
        )
        return _html_page("energy evolution", fragments)
    buckets = _buckets([e.points[-1][1] for e in evolutions])
    lines = [_evolution_term_line(e, b, request.no_color) for e, b in zip(evolutions, buckets)]
    return "\n".join(lines) + "\n"


# --- export -------------------------------------------------------------


def write_document(path: Path, text: str) -> None:
    """Write a rendered document to ``path``, making its directories; a
    path that cannot be written raises ``StorageError`` naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def export(store: Store, request: ReportRequest) -> str:
    """Render a request with the renderer of its scope and, when an output
    path is set, write the document (see ``write_document``).

    Returns the rendered text either way.
    """
    render = {"revision": render_summary, "compare": render_compare}.get(request.scope, render_history)
    text = render(store, request)
    if request.output_path is not None:
        write_document(request.output_path, text)
    return text
