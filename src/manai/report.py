"""Render stored results: summary tables, comparisons, evolution views.

Four output formats share the same data: a terminal view with block-bar
charts and sparklines, a self-contained static HTML page with inline SVG,
CSV for spreadsheets, and a machine-readable JSON export that mirrors the
record schema verbatim.

Display rule: terminal and HTML show numbers at three significant digits;
CSV and machine output carry full precision. Rendering is a pure function
of store content and the request, so identical inputs produce identical
bytes (the HTML generation timestamp lives in a single metadata comment
line).
"""

from __future__ import annotations

import html
import json
import shutil
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from manai.errors import EmptyScope, NoHistory
from manai.harness import TestId
from manai.probe import EnergyDomain, domain_sort_key
from manai.store import HistorySeries, RevisionRecord, Store, record_to_doc, render_record

SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
CSV_HEADER = "test,domain,statistic,value,unit"

# Relative change below this is rendered as flat; absorbs quantization noise.
DEFAULT_TREND_THRESHOLD = 0.01

_BUCKET_COLORS = ("32", "36", "33", "35", "31")  # green .. red


class ReportFormat(Enum):
    TERM = "term"
    HTML = "html"
    CSV = "csv"
    MACHINE = "machine"


class Trend(Enum):
    INCREASE = "increase"
    DECREASE = "decrease"
    FLAT = "flat"


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
    trend_threshold: float = DEFAULT_TREND_THRESHOLD

    def __post_init__(self):
        if self.scope == "revision" and len(self.revisions) != 1:
            raise ValueError("revision scope needs exactly one revision")
        if self.scope == "compare":
            if len(self.revisions) != 2 or self.revisions[0] == self.revisions[1]:
                raise ValueError("compare scope needs two distinct revisions")
        if self.scope == "history" and not self.tests:
            raise ValueError("history scope needs at least one test")


@dataclass(frozen=True)
class EvolutionGlyph:
    """Compact evolution indicator for one test within a rendered view."""

    test: TestId
    series: tuple[float, ...]
    trend: Trend
    color_bucket: int

    @classmethod
    def from_series(
        cls,
        test: TestId,
        series: tuple[float, ...],
        rank: int = 0,
        population: int = 1,
        threshold: float = DEFAULT_TREND_THRESHOLD,
    ) -> "EvolutionGlyph":
        trend = Trend.FLAT
        if len(series) >= 2 and series[-2] != 0:
            change = (series[-1] - series[-2]) / series[-2]
            if change > threshold:
                trend = Trend.INCREASE
            elif change < -threshold:
                trend = Trend.DECREASE
        bucket = min(4, rank * 5 // max(population, 1))
        return cls(test=test, series=series, trend=trend, color_bucket=bucket)


def sparkline_levels(values: list[float]) -> list[int]:
    """Map values onto the 8 block glyph levels, min to max."""
    if not values:
        return []
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0] * len(values)
    return [round((v - lo) / (hi - lo) * (len(SPARK_BLOCKS) - 1)) for v in values]


def sparkline(values: list[float]) -> str:
    return "".join(SPARK_BLOCKS[level] for level in sparkline_levels(values))


def format_sig(value: float) -> str:
    """Three-significant-digit display form."""
    return f"{value:.3g}"


def format_full(value) -> str:
    """Full-precision round-trip form for CSV and machine output."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _colorize(text: str, code: str, no_color: bool) -> str:
    if no_color:
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _lead_domain(record: RevisionRecord) -> EnergyDomain:
    return record.probe_domains[0]


def _select_domains(record: RevisionRecord, request: ReportRequest) -> list[EnergyDomain]:
    domains = list(record.probe_domains)
    if request.domains:
        domains = [d for d in domains if d in request.domains]
    return sorted(domains, key=domain_sort_key)


def _sorted_tests(record: RevisionRecord) -> list[TestId]:
    return sorted(record.summaries, key=str)


def _latest_record(store: Store, revision: str) -> RevisionRecord:
    record = store.latest(revision)
    if not record.summaries:
        raise EmptyScope(f"revision {revision!r} holds no test data")
    return record


# --------------------------------------------------------------------------
# summary (one revision)
# --------------------------------------------------------------------------


def _bar(value: float, scale: float, width: int) -> str:
    if scale <= 0:
        return ""
    return "█" * max(1, round(value / scale * width)) if value > 0 else ""


def _summary_term(record: RevisionRecord, request: ReportRequest) -> str:
    domains = _select_domains(record, request)
    width = request.width or shutil.get_terminal_size(fallback=(100, 24)).columns
    lines = [
        f"revision {record.revision_label}  ({record.created_at})",
        f"probe {record.probe_backend}, update interval "
        f"{record.probe_update_interval_ns / 1e6:g} ms, "
        f"config {record.config_digest.split(':', 1)[1][:12]}",
        "",
    ]
    header = (
        f"{'test':<28} {'domain':<10} {'iter':>4} {'P/F/S':>6} "
        f"{'E mean':>9} {'E median':>9} {'E stddev':>9} {'P mean':>9} "
        f"{'dur mean':>9}  conf"
    )
    lines.append(header)
    lines.append("-" * min(len(header), width))
    for test in _sorted_tests(record):
        summary = record.summaries[test]
        statuses = f"{summary.pass_count}/{summary.fail_count}/{summary.skip_count}"
        for index, domain in enumerate(domains):
            energy = summary.energy_stats.get(domain)
            power = summary.power_stats.get(domain)
            if energy is None or power is None:
                continue
            marker = ""
            if index == 0 and summary.any_low_confidence:
                marker = "< update interval"
            lines.append(
                f"{str(test) if index == 0 else '':<28} {str(domain):<10} "
                f"{summary.iterations if index == 0 else '':>4} "
                f"{statuses if index == 0 else '':>6} "
                f"{format_sig(energy.mean) + ' J':>9} "
                f"{format_sig(energy.median) + ' J':>9} "
                f"{format_sig(energy.stddev) + ' J':>9} "
                f"{format_sig(power.mean) + ' W':>9} "
                f"{format_sig(summary.mean_duration_s) + ' s' if index == 0 else '':>9}"
                f"  {marker}"
            )
    lines.append("")

    # Block-bar chart of mean lead-domain energy across tests.
    lead = _lead_domain(record)
    means = {
        t: record.summaries[t].energy_stats[lead].mean
        for t in _sorted_tests(record)
        if lead in record.summaries[t].energy_stats
    }
    if means:
        lines.append(f"mean {lead} energy per test:")
        scale = max(means.values())
        bar_width = max(10, min(48, width - 45))
        ranked = sorted(means, key=lambda t: means[t])
        for test in _sorted_tests(record):
            if test not in means:
                continue
            bucket = min(4, ranked.index(test) * 5 // max(len(ranked), 1))
            bar = _colorize(
                _bar(means[test], scale, bar_width), _BUCKET_COLORS[bucket], request.no_color
            )
            lines.append(f"  {str(test):<28} {bar} {format_sig(means[test])} J")
    return "\n".join(lines) + "\n"


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em; color: #222; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
th { background: #f0f0f0; }
td.name, th.name { text-align: left; font-family: monospace; }
.low-confidence { color: #b26a00; font-weight: bold; }
svg { margin: 0.5em 0; }
"""

_SVG_BUCKET_FILLS = ("#2e7d32", "#00838f", "#f9a825", "#ad1457", "#c62828")


def _summary_html(record: RevisionRecord, request: ReportRequest) -> str:
    domains = _select_domains(record, request)
    rows = []
    for test in _sorted_tests(record):
        summary = record.summaries[test]
        for index, domain in enumerate(domains):
            energy = summary.energy_stats.get(domain)
            power = summary.power_stats.get(domain)
            if energy is None or power is None:
                continue
            conf = ""
            if index == 0 and summary.any_low_confidence:
                conf = '<span class="low-confidence">&lt; update interval</span>'
            first = index == 0
            name = html.escape(str(test)) if first else ""
            statuses = f"{summary.pass_count}/{summary.fail_count}/{summary.skip_count}"
            rows.append(
                f"<tr><td class='name'>{name}</td><td>{html.escape(str(domain))}</td>"
                f"<td>{summary.iterations if first else ''}</td>"
                f"<td>{statuses if first else ''}</td>"
                f"<td>{format_sig(energy.mean)}</td><td>{format_sig(energy.median)}</td>"
                f"<td>{format_sig(energy.stddev)}</td><td>{format_sig(power.mean)}</td>"
                f"<td>{format_sig(summary.mean_duration_s) if first else ''}</td>"
                f"<td>{conf}</td></tr>"
            )

    lead = _lead_domain(record)
    tests = [t for t in _sorted_tests(record) if lead in record.summaries[t].energy_stats]
    means = [record.summaries[t].energy_stats[lead].mean for t in tests]
    bars = []
    if means:
        scale = max(means) or 1.0
        ranked = sorted(range(len(tests)), key=lambda i: means[i])
        bucket_of = {i: min(4, ranked.index(i) * 5 // len(tests)) for i in range(len(tests))}
        for i, (test, mean) in enumerate(zip(tests, means)):
            bar_w = max(1, round(mean / scale * 420))
            y = 8 + i * 26
            bars.append(
                f"<text x='0' y='{y + 13}' font-size='12' font-family='monospace'>"
                f"{html.escape(str(test))}</text>"
                f"<rect x='240' y='{y}' width='{bar_w}' height='16' "
                f"fill='{_SVG_BUCKET_FILLS[bucket_of[i]]}' />"
                f"<text x='{244 + bar_w}' y='{y + 13}' font-size='12'>"
                f"{format_sig(mean)} J</text>"
            )
    svg = (
        f"<svg width='760' height='{12 + 26 * max(len(tests), 1)}' "
        f"xmlns='http://www.w3.org/2000/svg'>{''.join(bars)}</svg>"
    )

    generated = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>energy summary: {html.escape(record.revision_label)}</title>
<style>{_HTML_STYLE}</style>
</head>
<body>
<!-- generated {generated} -->
<h1>Energy summary for revision {html.escape(record.revision_label)}</h1>
<p>probe {record.probe_backend}, update interval {record.probe_update_interval_ns / 1e6:g} ms,
created {record.created_at}, config {record.config_digest}</p>
<table>
<tr><th class="name">test</th><th>domain</th><th>iterations</th><th>P/F/S</th>
<th>E mean [J]</th><th>E median [J]</th><th>E stddev [J]</th><th>P mean [W]</th>
<th>duration [s]</th><th>confidence</th></tr>
{''.join(rows)}
</table>
<h2>Mean {html.escape(str(lead))} energy per test</h2>
{svg}
</body>
</html>
"""


_SUMMARY_STATISTICS = ("mean", "median", "min", "max", "stddev")


def _summary_csv_rows(record: RevisionRecord, request: ReportRequest) -> list[str]:
    rows = []
    domains = _select_domains(record, request)
    for test in _sorted_tests(record):
        summary = record.summaries[test]
        for domain in domains:
            energy = summary.energy_stats.get(domain)
            power = summary.power_stats.get(domain)
            if energy is None or power is None:
                continue
            for stat in _SUMMARY_STATISTICS:
                rows.append(f"{test},{domain},energy_{stat},{format_full(getattr(energy, stat))},J")
            for stat in _SUMMARY_STATISTICS:
                rows.append(f"{test},{domain},power_{stat},{format_full(getattr(power, stat))},W")
        rows.append(f"{test},,duration_mean,{format_full(summary.mean_duration_s)},s")
        rows.append(f"{test},,iterations,{summary.iterations},count")
        rows.append(f"{test},,pass_count,{summary.pass_count},count")
        rows.append(f"{test},,fail_count,{summary.fail_count},count")
        rows.append(f"{test},,skip_count,{summary.skip_count},count")
        rows.append(f"{test},,low_confidence,{int(summary.any_low_confidence)},flag")
    return rows


def _as_csv(rows: list[str]) -> str:
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def render_summary(store: Store, request: ReportRequest) -> str:
    """Summary view of one stored revision in the requested format.

    Raises:
        UnknownRevision: Nothing stored under that label.
        EmptyScope: The revision exists but holds no test data.
    """
    record = _latest_record(store, request.revisions[0])
    if request.fmt is ReportFormat.TERM:
        return _summary_term(record, request)
    if request.fmt is ReportFormat.HTML:
        return _summary_html(record, request)
    if request.fmt is ReportFormat.CSV:
        return _as_csv(_summary_csv_rows(record, request))
    return render_record(record)


# --------------------------------------------------------------------------
# compare (two revisions)
# --------------------------------------------------------------------------


def _compare_term(a: RevisionRecord, b: RevisionRecord, request: ReportRequest) -> str:
    lines = [
        f"compare {a.revision_label} -> {b.revision_label}",
        "",
        f"{'test':<28} {'domain':<10} {'A mean':>10} {'B mean':>10} "
        f"{'delta':>10} {'change':>8}",
    ]
    lines.append("-" * len(lines[-1]))
    common = sorted(set(a.summaries) & set(b.summaries), key=str)
    for test in common:
        for domain in _select_domains(b, request):
            stats_a = a.summaries[test].energy_stats.get(domain)
            stats_b = b.summaries[test].energy_stats.get(domain)
            if stats_a is None or stats_b is None:
                continue
            delta = stats_b.mean - stats_a.mean
            change = f"{delta / stats_a.mean * 100:+.1f}%" if stats_a.mean else "n/a"
            arrow_code = "31" if delta > 0 else "32" if delta < 0 else "0"
            lines.append(
                f"{str(test):<28} {str(domain):<10} "
                f"{format_sig(stats_a.mean) + ' J':>10} "
                f"{format_sig(stats_b.mean) + ' J':>10} "
                f"{format_sig(delta) + ' J':>10} "
                f"{_colorize(f'{change:>8}', arrow_code, request.no_color)}"
            )
    skipped_a = sorted(set(a.summaries) - set(b.summaries), key=str)
    skipped_b = sorted(set(b.summaries) - set(a.summaries), key=str)
    if skipped_a:
        lines.append(f"only in {a.revision_label}: {', '.join(map(str, skipped_a))}")
    if skipped_b:
        lines.append(f"only in {b.revision_label}: {', '.join(map(str, skipped_b))}")
    return "\n".join(lines) + "\n"


def _compare_csv_rows(a: RevisionRecord, b: RevisionRecord, request: ReportRequest) -> list[str]:
    rows = []
    common = sorted(set(a.summaries) & set(b.summaries), key=str)
    for test in common:
        for domain in _select_domains(b, request):
            stats_a = a.summaries[test].energy_stats.get(domain)
            stats_b = b.summaries[test].energy_stats.get(domain)
            if stats_a is None or stats_b is None:
                continue
            p_a = a.summaries[test].power_stats[domain]
            p_b = b.summaries[test].power_stats[domain]
            rows.append(f"{test},{domain},energy_mean_a,{format_full(stats_a.mean)},J")
            rows.append(f"{test},{domain},energy_mean_b,{format_full(stats_b.mean)},J")
            rows.append(
                f"{test},{domain},energy_mean_delta,{format_full(stats_b.mean - stats_a.mean)},J"
            )
            rows.append(f"{test},{domain},power_mean_a,{format_full(p_a.mean)},W")
            rows.append(f"{test},{domain},power_mean_b,{format_full(p_b.mean)},W")
            rows.append(f"{test},{domain},power_mean_delta,{format_full(p_b.mean - p_a.mean)},W")
        dur_a = a.summaries[test].mean_duration_s
        dur_b = b.summaries[test].mean_duration_s
        rows.append(f"{test},,duration_mean_a,{format_full(dur_a)},s")
        rows.append(f"{test},,duration_mean_b,{format_full(dur_b)},s")
        rows.append(f"{test},,duration_mean_delta,{format_full(dur_b - dur_a)},s")
    return rows


def render_compare(store: Store, request: ReportRequest) -> str:
    """Comparison of two stored revisions (latest record of each)."""
    record_a = _latest_record(store, request.revisions[0])
    record_b = _latest_record(store, request.revisions[1])
    if request.fmt is ReportFormat.CSV:
        return _as_csv(_compare_csv_rows(record_a, record_b, request))
    if request.fmt is ReportFormat.MACHINE:
        doc = {"a": record_to_doc(record_a), "b": record_to_doc(record_b)}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if request.fmt is ReportFormat.HTML:
        plain = replace(request, no_color=True)
        body = html.escape(_compare_term(record_a, record_b, plain))
        generated = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return (
            "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
            f"<title>energy compare</title><style>{_HTML_STYLE}</style></head>\n"
            f"<body>\n<!-- generated {generated} -->\n<pre>{body}</pre>\n</body></html>\n"
        )
    return _compare_term(record_a, record_b, request)


# --------------------------------------------------------------------------
# evolution (history of tests)
# --------------------------------------------------------------------------


def _series_energies(series: HistorySeries, domain: EnergyDomain) -> tuple[float, ...]:
    return tuple(
        p.summary.energy_stats[domain].mean
        for p in series.points
        if domain in p.summary.energy_stats
    )


def _trend_arrow(glyph: EvolutionGlyph, no_color: bool) -> str:
    if glyph.trend is Trend.INCREASE:
        return _colorize("↑", "31", no_color)
    if glyph.trend is Trend.DECREASE:
        return _colorize("↓", "32", no_color)
    return "→"


def _evolution_term_line(
    series: HistorySeries, glyph: EvolutionGlyph, no_color: bool
) -> str:
    energies = list(glyph.series)
    spark = _colorize(sparkline(energies), _BUCKET_COLORS[glyph.color_bucket], no_color)
    arrow = _trend_arrow(glyph, no_color)
    revisions = " -> ".join(p.revision_label for p in series.points)
    if len(energies) >= 2 and energies[-2] != 0:
        change = (energies[-1] - energies[-2]) / energies[-2] * 100
        step = f"{change:+.0f}% last step"
    else:
        step = "single point"
    latest = format_sig(energies[-1]) if energies else "n/a"
    return (
        f"{str(series.test):<28} {spark:<12} {arrow}  {step:<16} "
        f"latest {latest} J  ({revisions})"
    )


def _evolution_svg(series: HistorySeries, energies: tuple[float, ...]) -> str:
    width, height, pad = 320, 64, 6
    lo, hi = min(energies), max(energies)
    span = (hi - lo) or 1.0
    step = (width - 2 * pad) / max(len(energies) - 1, 1)
    points = " ".join(
        f"{pad + i * step:.1f},{height - pad - (v - lo) / span * (height - 2 * pad):.1f}"
        for i, v in enumerate(energies)
    )
    labels = html.escape(" -> ".join(p.revision_label for p in series.points))
    return (
        f"<svg width='{width}' height='{height + 18}' xmlns='http://www.w3.org/2000/svg'>"
        f"<polyline fill='none' stroke='#1565c0' stroke-width='2' points='{points}'/>"
        f"<text x='{pad}' y='{height + 14}' font-size='11'>{labels}</text></svg>"
    )


def _history_series(store: Store, request: ReportRequest) -> list[HistorySeries]:
    series_list = []
    for test in request.tests:
        series = store.history(test, request.limit)
        if not series.points:
            raise NoHistory(f"no stored history for {test}")
        series_list.append(series)
    return series_list


def render_history(store: Store, request: ReportRequest) -> str:
    """Evolution view of the selected tests."""
    series_list = _history_series(store, request)
    lead_domains = [
        sorted(s.points[-1].summary.energy_stats, key=domain_sort_key)[0]
        for s in series_list
    ]
    energies = [
        _series_energies(s, d) for s, d in zip(series_list, lead_domains)
    ]
    order = sorted(
        range(len(series_list)), key=lambda i: energies[i][-1] if energies[i] else 0.0
    )
    ranks = {i: order.index(i) for i in range(len(series_list))}
    glyphs = [
        EvolutionGlyph.from_series(
            s.test, e, rank=ranks[i], population=len(series_list),
            threshold=request.trend_threshold,
        )
        for i, (s, e) in enumerate(zip(series_list, energies))
    ]

    if request.fmt is ReportFormat.CSV:
        rows = []
        for series, domain in zip(series_list, lead_domains):
            for point in series.points:
                stats = point.summary.energy_stats.get(domain)
                if stats is None:
                    continue
                rows.append(
                    f"{series.test},{domain},energy_mean@{point.revision_label},"
                    f"{format_full(stats.mean)},J"
                )
        return _as_csv(rows)
    if request.fmt is ReportFormat.MACHINE:
        doc = [
            {
                "test": str(series.test),
                "points": [
                    {
                        "revision_label": p.revision_label,
                        "created_at": p.created_at,
                        "energy_mean_j": {
                            str(d): s.mean for d, s in sorted(
                                p.summary.energy_stats.items(), key=lambda kv: str(kv[0])
                            )
                        },
                    }
                    for p in series.points
                ],
            }
            for series in series_list
        ]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if request.fmt is ReportFormat.HTML:
        fragments = "".join(
            f"<h2>{html.escape(str(s.test))}</h2>{_evolution_svg(s, e)}"
            for s, e in zip(series_list, energies)
        )
        generated = datetime.now(timezone.utc).isoformat(timespec="seconds")
        return (
            "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
            f"<title>energy evolution</title><style>{_HTML_STYLE}</style></head>\n"
            f"<body>\n<!-- generated {generated} -->\n{fragments}\n</body></html>\n"
        )
    lines = [
        _evolution_term_line(series, glyph, request.no_color)
        for series, glyph in zip(series_list, glyphs)
    ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# dispatch and export
# --------------------------------------------------------------------------


def render_report(store: Store, request: ReportRequest) -> str:
    """Route a request to its renderer; the single entry the CLI uses."""
    if request.scope == "revision":
        return render_summary(store, request)
    if request.scope == "compare":
        return render_compare(store, request)
    return render_history(store, request)


def export(store: Store, request: ReportRequest) -> str:
    """Render and, when an output path is set, write the document.

    Returns the rendered text either way.
    """
    text = render_report(store, request)
    if request.output_path is not None:
        request.output_path.parent.mkdir(parents=True, exist_ok=True)
        request.output_path.write_text(text, encoding="utf-8")
    return text
