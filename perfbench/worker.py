"""Measured phase of one benchmark run, in a process that ran no set-up.

Usage (run.py starts it; PYTHONPATH must name the checkout's ``src``):
    python3 worker.py META_JSON SECONDS TRACE OUT_JSON

One repetition is what a CI job does with manai, every step through
``manai.cli.main`` except the appends:

1. ``manai run`` of the workload's plan, adding a record to the store;
2. ``report`` of the newest stored revision in term, html, csv and machine
   format, ``compare --format csv`` of the two newest revisions and
   ``report --evolution`` of every stored test;
3. three appends of one history-shaped record with ``Store.save``.

Afterwards the files the repetition added are removed, so every
repetition sees the same store. Each output is checked against an oracle
that does not use the code under test wherever the benchmark knows the
answer itself, and against a consistency check otherwise; a mismatch
counts the operation as failed. Timings are scaled to a reference host
speed (see reference.py).

With TRACE 0 the worker measures for SECONDS and writes every sample to
OUT_JSON; run.py pools them over several workers into the end-to-end
metrics. With TRACE 1 it alternates untraced and traced repetitions for
SECONDS (see layertrace.py) and writes per-layer metrics derived from
the spans.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import layertrace
import reference

_NS_PER_MS = 1_000_000
# An append is short and its fsync noisy, so each repetition times several
# in a row and reports their mean.
_APPENDS_PER_REP = 3
_HTML_STAMP = re.compile(r"<!-- generated [^>]* -->")


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    """(p50, tail value, tail percentile, n).

    The tail is the highest of p99.9/p99/p90/p50 that leaves at least ten
    samples beyond it (nearest rank).
    """
    if not values:
        return 0.0, 0.0, 0, 0
    ordered = sorted(values)
    n = len(ordered)
    q = next((q for q in (99.9, 99.0, 90.0) if n * (100 - q) / 100 >= 10), 50.0)
    rank = max(1, math.ceil(q / 100 * n))
    return statistics.median(ordered), ordered[rank - 1], q, n


def _tree_files(root: Path) -> set[Path]:
    found = set()
    for dirpath, dirnames, filenames in os.walk(root):
        base = Path(dirpath)
        found.update(base / name for name in dirnames + filenames)
    return found


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in _tree_files(root) if p.is_file())


def _expected_counter_uj(powers_uw: list[list[int]], domain: int, elapsed_ns: int) -> int:
    """Counter of a 1 ms-segment trace after ``elapsed_ns``, without manai.

    The scenario refreshes every millisecond and holds its last level past
    the end; ranges are far above any energy a run consumes.
    """
    ticks = elapsed_ns // inputs.UPDATE_INTERVAL_NS
    boundary_ns = ticks * inputs.UPDATE_INTERVAL_NS
    full = min(ticks, len(powers_uw))
    energy_fj = sum(row[domain] for row in powers_uw[:full]) * inputs.SAMPLE_NS
    if boundary_ns > full * inputs.SAMPLE_NS:
        energy_fj += powers_uw[-1][domain] * (boundary_ns - full * inputs.SAMPLE_NS)
    return energy_fj // 1_000_000_000


class Bench:
    def __init__(self, meta: dict):
        from manai import cli
        from manai.store import Store, render_record

        self.meta = meta
        self.cli = cli
        self.Store = Store
        self.render_record = render_record
        self.data_dir = Path(meta["data_dir"])
        self.tracer = layertrace.Tracer()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # Measurements of untraced (False) and traced (True) repetitions.
        self.samples: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self._calls = 0
        newest, previous = meta["history_labels"][-1], meta["history_labels"][-2]
        tests = ",".join(meta["history_tests"])
        self.report_ops = [
            ("report_s", ["report", "--revision", newest]),
            ("report_html_s", ["report", "--revision", newest, "--format", "html"]),
            ("report_csv_s", ["report", "--revision", newest, "--format", "csv"]),
            ("report_machine_s", ["report", "--revision", newest, "--format", "machine"]),
            ("compare_s", ["compare", previous, newest, "--format", "csv"]),
            ("evolution_s", ["report", "--evolution", tests]),
        ]
        self.append = inputs.append_record(meta)
        self.verified: dict[str, str] = {}

    # -- helpers ---------------------------------------------------------

    def _timed(self, op: str, fn):
        """Run ``fn()`` as operation ``op``.

        Returns its result, its wall and process CPU time in ns, and the
        factor that scales them to the reference host speed (see
        reference.py).
        """
        self._calls += 1
        gc.collect()
        self.tracer.op = f"{op}#{self._calls}"
        try:
            result, elapsed, cpu, ref = reference.timed(fn)
        finally:
            self.tracer.op = None
        self._add("host.reference_ms", ref / _NS_PER_MS)
        return result, elapsed, cpu, reference.REFERENCE_NS / ref

    def _call(self, op: str, argv: list[str]) -> tuple[int, str, int, int, float]:
        """Run one CLI command: (exit code, stdout, wall ns, CPU ns, scale)."""
        out = io.StringIO()

        def command():
            with contextlib.redirect_stdout(out):
                return self.cli.main([*argv, "--data-dir", str(self.data_dir), "--no-color"])

        code, elapsed, cpu, scale = self._timed(op, command)
        return code, out.getvalue(), elapsed, cpu, scale

    def _outcome(self, op: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op}: {problem}")

    def _add(self, metric: str, value: float) -> None:
        self.samples[self.tracer.enabled].setdefault(metric, []).append(value)

    @contextlib.contextmanager
    def _untraced(self):
        enabled, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = enabled

    # -- oracles ---------------------------------------------------------

    def prepare(self) -> None:
        """Expected values that depend only on the seeded store."""
        store = self.Store(self.data_dir)
        newest, previous = self.meta["history_labels"][-1], self.meta["history_labels"][-2]
        self.newest = store.latest(newest)
        self.previous = store.latest(previous)
        self.machine_expected = self.render_record(self.newest)

    def _check_run(self, code: int) -> list[str | None]:
        """One verdict per planned iteration of the ``manai run`` just made."""
        iterations = self.meta["run_iterations"] * len(self.meta["run_tests"])
        if code != 0:
            return [f"manai run exited {code}"] * iterations
        record = self.Store(self.data_dir).latest(inputs.RUN_LABEL)
        verdicts = []
        for test_name in self.meta["run_tests"]:
            runs = [r for t, rs in record.results.items() if str(t) == test_name for r in rs]
            for index in range(self.meta["run_iterations"]):
                if index >= len(runs):
                    verdicts.append(f"{test_name} iteration {index} missing")
                    continue
                verdicts.append(self._check_iteration(record, runs[index]))
        return verdicts

    def _check_iteration(self, record, result) -> str | None:
        if result.status.value != "PASS" or result.crashed:
            return f"{result.test} status {result.status.value} crashed={result.crashed}"
        samples = result.samples
        if not samples:
            return f"{result.test} has no samples"
        if any(a.end_ns != b.start_ns for a, b in zip(samples, samples[1:])):
            return f"{result.test} samples are not adjacent"
        domains = [str(d) for d in record.probe_domains]
        if domains != ["package:0", "core:0", "dram:0"]:
            return f"unexpected domains {domains}"
        for index, domain in enumerate(record.probe_domains):
            got = result.energy_j[domain]
            if self.meta["backend"] == "rapl":
                # The fake powercap counters never advance.
                expected = 0.0
            else:
                uj = _expected_counter_uj(self.meta["trace_powers_uw"], index, result.duration_ns)
                expected = float(Fraction(uj, 10**6))
            if got != expected:
                return f"{result.test} {domain} energy {got!r} != {expected!r}"
        return None

    def _check_report(self, metric: str, text: str) -> str | None:
        """Verify an output in full once; later outputs must repeat it.

        Evolution is checked in full every time, because it includes the
        record this repetition's run added.
        """
        if metric == "evolution_s":
            return self._check_evolution(text)
        if metric in self.verified:
            first = self.verified[metric]
            if metric == "report_html_s":
                # The generation comment carries a wall-clock timestamp.
                first, text = (_HTML_STAMP.sub("", t) for t in (first, text))
            return None if first == text else "output differs from the verified first output"
        problem = self._verify_first(metric, text)
        if problem is None:
            self.verified[metric] = text
        return problem

    def _verify_first(self, metric: str, text: str) -> str | None:
        tests = self.meta["history_tests"]
        if metric in ("report_s", "report_html_s"):
            missing = [t for t in tests if t not in text]
            if metric == "report_html_s" and not text.startswith("<!DOCTYPE html>"):
                return "not an html document"
            return f"tests missing: {missing}" if missing else None
        if metric == "report_machine_s":
            return None if text == self.machine_expected else "differs from render_record(latest)"
        if metric == "report_csv_s":
            return self._check_summary_csv(text)
        return self._check_compare_csv(text)

    def _csv_rows(self, text: str) -> list[list[str]]:
        lines = text.splitlines()
        if not lines or lines[0] != "test,domain,statistic,value,unit":
            raise ValueError("missing csv header")
        return [line.split(",") for line in lines[1:]]

    def _check_summary_csv(self, text: str) -> str | None:
        checked = 0
        for test, domain, stat, value, _unit in self._csv_rows(text):
            kind, _, name = stat.partition("_")
            if kind not in ("energy", "power") or not domain:
                continue
            summary = next(s for t, s in self.newest.summaries.items() if str(t) == test)
            table = summary.energy_stats if kind == "energy" else summary.power_stats
            stats = next(s for d, s in table.items() if str(d) == domain)
            if value != repr(getattr(stats, name)):
                return f"{test} {domain} {stat} = {value}, stored {getattr(stats, name)!r}"
            checked += 1
        expected = len(self.meta["history_tests"]) * 3 * 10
        return None if checked == expected else f"{checked} statistic rows, expected {expected}"

    def _check_compare_csv(self, text: str) -> str | None:
        checked = 0
        for test, domain, stat, value, _unit in self._csv_rows(text):
            if stat not in ("energy_mean_delta", "power_mean_delta"):
                continue
            pick = "energy_stats" if stat.startswith("energy") else "power_stats"
            means = []
            for record in (self.previous, self.newest):
                summary = next(s for t, s in record.summaries.items() if str(t) == test)
                means.append(next(s.mean for d, s in getattr(summary, pick).items() if str(d) == domain))
            if value != repr(means[1] - means[0]):
                return f"{test} {domain} {stat} = {value}, expected {means[1] - means[0]!r}"
            checked += 1
        expected = len(self.meta["history_tests"]) * 3 * 2
        return None if checked == expected else f"{checked} delta rows, expected {expected}"

    def _check_evolution(self, text: str) -> str | None:
        run_tests = set(self.meta["run_tests"])
        lines = text.splitlines()
        if len(lines) != len(self.meta["history_tests"]):
            return f"{len(lines)} evolution lines"
        for line in lines:
            test = line.split()[0]
            if test not in self.meta["history_tests"]:
                return f"unknown test line {line!r}"
            expected = list(self.meta["history_points"])
            if test in run_tests:
                expected.append(inputs.RUN_LABEL)
            shown = line[line.rindex("(") + 1: line.rindex(")")].split(" -> ")
            if shown != expected:
                return f"{test}: {len(shown)} points shown, {len(expected)} records hold it"
        return None

    def _check_append(self, path: Path) -> str | None:
        if "append" in self.verified:
            return None if path.is_file() else f"{path} missing"
        loaded = self.Store(self.data_dir).load(inputs.APPEND_LABEL)
        if not loaded or loaded[-1].summaries != self.append.summaries:
            return "appended record does not read back"
        self.verified["append"] = ""
        return None

    # -- one repetition --------------------------------------------------

    def repetition(self) -> None:
        before = _tree_files(self.data_dir)
        try:
            code, _out, elapsed, cpu, scale = self._call(
                "run", ["run", "--config", self.meta["config"]])
            # The planned test bodies are sleeps: only the rest is scaled.
            overhead_ms = elapsed / _NS_PER_MS - self.meta["planned_body_ms"]
            self._add("run_s", overhead_ms * scale / 1000)
            iterations = self.meta["run_iterations"] * len(self.meta["run_tests"])
            with self._untraced():
                for verdict in self._check_run(code):
                    self._outcome("run", verdict)
            self._add("run_overhead_ms_per_iter", overhead_ms * scale / iterations)
            self._add("run_cpu_ms_per_iter", cpu / _NS_PER_MS * scale / iterations)
            self._add("store_mb", _tree_bytes(self.data_dir) / 1e6)

            for metric, argv in self.report_ops:
                code, out, elapsed, _cpu, scale = self._call(metric, argv)
                with self._untraced():
                    try:
                        problem = f"exit {code}" if code else self._check_report(metric, out)
                    except (ValueError, StopIteration) as exc:
                        # Malformed lines, or a test or domain the store lacks.
                        problem = f"unreadable output: {exc!r}"
                self._outcome(metric, problem)
                self._add(metric, elapsed * scale / 1e9)

            def appends():
                store = self.Store(self.data_dir)
                return [store.save(self.append) for _ in range(_APPENDS_PER_REP)]

            paths, elapsed, _cpu, scale = self._timed("append", appends)
            self._add("append_s", elapsed * scale / _APPENDS_PER_REP / 1e9)
            with self._untraced():
                for path in paths:
                    self._outcome("append", self._check_append(Path(path)))
        finally:
            added = _tree_files(self.data_dir) - before
            for path in sorted(added, key=lambda p: len(p.parts), reverse=True):
                if path.is_dir():
                    shutil.rmtree(path)
                elif path.exists():
                    path.unlink()

    def measure(self, seconds: float, alternate_tracing: bool = False) -> None:
        """Repeat for about ``seconds``.

        With ``alternate_tracing`` repetitions are traced in the pattern
        untraced, traced, traced, untraced, ..., so traced and untraced
        repetitions see the same machine conditions and drift; there is
        at least one of each.
        """
        start = time.monotonic()
        for rep in itertools.count():
            self.tracer.enabled = alternate_tracing and rep % 4 in (1, 2)
            self.repetition()
            now = time.monotonic()
            # Stop when the next repetition would end more than half of
            # one past the deadline, so runs end close to it on average.
            mean = (now - start) / (rep + 1)
            if now + mean / 2 >= start + seconds and (rep or not alternate_tracing):
                self.tracer.enabled = False
                return

    # -- results ---------------------------------------------------------

    def per_layer(self) -> dict:
        return layer_metrics(self.tracer, self.meta, self.samples)


def _shares(tracer, own, spans, ops, layers, body_ns=0) -> dict[str, float]:
    """Share of main-thread self time per layer over the spans of ``ops``.

    ``body_ns``, the test bodies the plan asked for, is not overhead and
    is taken out of the harness layer, which waits for them.
    """
    layer_ns = dict.fromkeys(layers, 0)
    for span in spans:
        if span.thread == tracer.main_thread and span.op and span.op.partition("#")[0] in ops:
            layer_ns[span.layer] += own[span.id]
    if "harness" in layer_ns:
        layer_ns["harness"] = max(0, layer_ns["harness"] - body_ns)
    total = sum(layer_ns.values()) or 1
    return {layer: ns / total for layer, ns in layer_ns.items()}


def layer_metrics(tracer: layertrace.Tracer, meta: dict, samples: dict) -> dict:
    spans = tracer.spans
    own = tracer.self_ns()
    by_name: dict[str, list[layertrace.Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out: dict[str, tuple[float, str]] = {}

    def ms(ns):
        return ns / _NS_PER_MS

    def median_ms(name, self_time=False):
        """Median duration (or self time) of the spans called ``name``."""
        return _median([ms(own[s.id] if self_time else s.duration_ns) for s in by_name.get(name, [])]), "ms"

    reads = by_name.get("probe.read", [])
    p50, tail, q, n = _tail([s.duration_ns / 1000 for s in reads])
    out["probe.read.calls"] = (n, "count")
    out["probe.read.us_p50"] = (p50, "us")
    out["probe.read.us_tail"] = (tail, "us")
    out["probe.read.tail_q"] = (q, "%")

    runs = by_name.get("harness.run_one", [])
    streams = by_name.get("sampler.sample_stream", [])
    reads_by_stream: dict[int, list[int]] = {}
    for span in reads:
        reads_by_stream.setdefault(span.parent, []).append(span.info.get("ts", 0))
    ticks = cpu_ns = in_window = 0
    late_us = []
    for stream in streams:
        stamps = reads_by_stream.get(stream.id, [])
        intervals = list(zip(stamps, stamps[1:]))
        ticks += len(intervals)
        cpu_ns += stream.cpu_ns or 0
        if stream.info.get("virtual"):
            in_window += len(intervals)
            continue
        step = stream.info["interval_ns"]
        # Exclude the session-start reading and the closing reading.
        late_us += [(ts - (stamps[0] + k * step)) / 1000 for k, ts in enumerate(stamps[1:-1], 1)]
        window = next((r for r in runs if stream.start_ns <= r.start_ns <= stream.end_ns
                       and "begin_ns" in r.info), None)
        if window is not None:
            begin, end = window.info["begin_ns"], window.info["end_ns"]
            in_window += sum(1 for a, b in intervals if b > begin and a < end)
    out["sampler.ticks"] = (ticks, "count")
    out["sampler.cpu_us_per_tick"] = (cpu_ns / 1000 / ticks if ticks else 0.0, "us")
    p50, tail, q, n = _tail(late_us)
    out["sampler.late_us_p50"] = (p50, "us")
    out["sampler.late_us_tail"] = (tail, "us")
    out["sampler.late_tail_q"] = (q, "%")
    out["sampler.in_window_ratio"] = (in_window / ticks if ticks else 0.0, "ratio")

    ok_runs = [r for r in runs if "begin_ns" in r.info]
    out["harness.discover_ms"] = median_ms("harness.discover")
    out["harness.run_one_ms_p50"] = median_ms("harness.run_one")
    out["harness.spawn_to_begin_ms_p50"] = (
        _median([ms(r.info["begin_ns"] - r.start_ns) for r in ok_runs]), "ms")
    out["harness.end_to_return_ms_p50"] = (
        _median([ms(r.end_ns - r.info["end_ns"]) for r in ok_runs]), "ms")
    out["harness.failed"] = (sum(1 for r in runs if r.error or r.info.get("status") != "PASS"), "count")

    attrs = by_name.get("results.attribute", [])
    out["results.attribute_ms_p50"] = median_ms("results.attribute")
    sampled = sum(s.info.get("samples", 0) for s in attrs)
    out["results.attribute_us_per_sample"] = (
        sum(s.duration_ns for s in attrs) / 1000 / sampled if sampled else 0.0, "us")
    out["results.summarize_ms"] = median_ms("results.summarize")
    out["experiment.self_ms"] = median_ms("experiment.run_experiment", self_time=True)
    out["cli.self_ms"] = median_ms("cli.main", self_time=True)

    renders = by_name.get("store.render_record", [])
    out["store.save_ms"] = median_ms("store.save")
    out["store.render_record_ms"] = median_ms("store.render_record")
    out["store.record_bytes"] = (_median([s.info.get("chars", 0) for s in renders]), "B")

    queries = by_name.get("store.latest", []) + by_name.get("store.history", [])
    query_ids = {s.id for s in queries}
    parsed = [s for s in by_name.get("store.record_from_doc", []) if s.parent in query_ids]
    out["store.latest_ms"] = median_ms("store.latest")
    out["store.history_ms"] = median_ms("store.history")
    out["store.record_from_doc_ms"] = median_ms("store.record_from_doc")
    out["store.records_parsed_per_op"] = (len(parsed) / len(queries) if queries else 0.0, "count")
    returned = sum(s.info.get("returned", 0) for s in queries)
    out["store.useful_ratio"] = (returned / len(parsed) if parsed else 0.0, "ratio")

    report_self: dict[str, dict[str, int]] = {}
    for span in spans:
        if span.layer == "report" and span.op:
            metric, _, call = span.op.partition("#")
            per_call = report_self.setdefault(metric, {})
            per_call[call] = per_call.get(call, 0) + own[span.id]
    for metric in ("report_s", "report_html_s", "report_csv_s", "report_machine_s",
                   "compare_s", "evolution_s"):
        name = "report.self_ms." + metric[: -len("_s")]
        out[name] = (_median([ms(v) for v in report_self.get(metric, {}).values()]), "ms")

    # Where the time manai adds goes: blocking (main-thread) self time
    # per layer, over the `manai run` calls and over the report commands.
    runs_made = len(by_name.get("experiment.run_experiment", []))
    run_layers = ("cli", "experiment", "harness", "sampler", "probe", "results",
                  "store_read", "store_write", "report")
    body_ns = runs_made * meta["planned_body_ms"] * _NS_PER_MS
    for layer, share in _shares(tracer, own, spans, {"run"}, run_layers, body_ns).items():
        out[f"run_share.{layer}"] = (share, "ratio")
    report_ops = {"report_s", "report_html_s", "report_csv_s", "report_machine_s",
                  "compare_s", "evolution_s", "append"}
    report_layers = ("cli", "report", "store_read", "store_write")
    for layer, share in _shares(tracer, own, spans, report_ops, report_layers).items():
        out[f"report_share.{layer}"] = (share, "ratio")

    # Tracing overhead: summed median time of every operation, traced
    # against untraced repetitions of the same run.
    timed = [m for m in samples[False] if m.endswith("_s") and samples[True].get(m)]
    untraced = sum(_median(samples[False][m]) for m in timed)
    traced = sum(_median(samples[True][m]) for m in timed)
    out["trace.overhead_frac"] = ((traced - untraced) / untraced if untraced else 0.0, "ratio")
    references = samples[False]["host.reference_ms"] + samples[True]["host.reference_ms"]
    out["host.reference_ms"] = (_median(references), "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main(argv: list[str]) -> int:
    meta_path, seconds, traced, out_path = argv[1], float(argv[2]), argv[3] == "1", argv[4]
    meta = json.loads(Path(meta_path).read_text(encoding="utf-8"))
    if meta["powercap_root"]:
        os.environ["MANAI_POWERCAP_ROOT"] = meta["powercap_root"]
    bench = Bench(meta)
    bench.prepare()
    metrics = None
    if traced:
        layertrace.install(bench.tracer)
        bench.measure(seconds, alternate_tracing=True)
        bench.tracer.dump(Path(meta["root"]) / "spans.jsonl")
        metrics = bench.per_layer()
    else:
        bench.measure(seconds)
    result = {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "errors": bench.errors,
        "samples": bench.samples[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "metrics": metrics,
    }
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
