"""Revision-keyed persistence of experiment outcomes.

Each record is a pair of files under ``<data_dir>/revisions/<label>/``:

* ``<created_at>.record``, the head: an indented, key-sorted JSON
  document with the config, the probe, the summaries and each
  iteration's result fields (energy and power per domain, duration,
  status, flags). It holds no samples, stays human-browsable and
  diff-friendly, and is the machine export of the record.
* ``<created_at>.samples``, the sidecar: every iteration's samples as one
  compact columnar JSON block. ``start_ns`` holds each sample's start;
  adjacent samples share their edges, so ``end_ns`` holds only the end
  of each stretch of adjacent samples, and ``stretches`` gives, per test
  and iteration, the lengths of those stretches in sample order.
  ``energy_uj`` holds one integer array per domain, with ``null`` where
  a sample lacks that domain.

A result's samples are already columns (:class:`SampleColumns`), so a
save concatenates each iteration's columns and a load slices them back
out, per iteration and per stretch, never per sample.

The directory name is the label with every character outside
``[A-Za-z0-9._-]`` replaced by ``_``; the labels ``.`` and ``..`` become
``_`` and ``__``, so every record lies under ``revisions/<label>/``.
Re-running a revision appends a new timestamped record instead of
overwriting; a record saved with the same timestamp gets a ``-<n>``
suffix and sorts after the ones before it. Each file is written to a
dot-prefixed temporary, fsynced and renamed into place, the sidecar
before the head, so a visible head always has its samples and readers
never observe a partial record; they skip temporaries, and a sidecar
without its head is not a record.

Each query reads only what it returns. ``load``, ``latest`` and
``latest_text`` list the one directory their label sanitizes to and keep
the records of exactly that label (two labels can share a directory).
``load`` reads every head of its label. ``latest`` and ``latest_text``
read heads newest file name first and stop at the first of their label,
so they read one head when the directory holds no other label; file
names order records as ``created_at`` and save order do (see
:class:`Store`). ``load`` and ``latest`` read the sidecars of the
records they return; ``latest_text`` returns the newest head's document
and file text, and never opens a sidecar. ``history`` reads every head
once per call, for any number of tests, and builds only the label, the
timestamp and the mean energies of the requested tests.

Each query decodes each byte of a head at most once. A head as
``render_record`` writes it is split at its top-level ``results``
member, about half of it, before decoding. The views' queries,
``latest_text`` and ``history``, decode the rest only; ``load``,
``latest`` and ``iter_records`` decode the rest and then the results. So
damage confined to a head's results is reported by ``load`` and
``latest``, not by the views. A head in any other layout (heads may be
edited by hand) is decoded whole.

Format 1 records, a single document with every sample inline as an
object, stay readable: they load to the same records, samples included.
Every save writes format 2.

Floating-point fields are serialized in shortest round-trip decimal form
(standard JSON float text), so save followed by load reproduces every
numeric field bit-exactly.
"""

from __future__ import annotations

import errno
import json
import os
import re
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from manai.errors import StorageError, UnknownRevision
from manai.harness import TestId, TestStatus
from manai.probe import EnergyDomain
from manai.results import Stats, TestExecutionResult, TestSummary
from manai.sampler import EnergySample, SampleColumns

FORMAT_VERSION = 2
# Format 1 kept every sample inline in the record; it is read, never written.
_INLINE_SAMPLES_VERSION = 1

_RECORD_SUFFIX = ".record"
_SAMPLES_SUFFIX = ".samples"

# The samples of every result decoded without its sidecar; frozen, so shared.
_NO_SAMPLES = SampleColumns()


@dataclass(frozen=True)
class RevisionHead:
    """What the summary and compare views of a record show: all of it but
    the per-iteration results."""

    revision_label: str
    created_at: str
    config_digest: str
    probe_backend: str
    probe_update_interval_ns: int
    probe_domains: tuple[EnergyDomain, ...]
    config: Mapping[str, str]
    summaries: Mapping[TestId, TestSummary]

    def __post_init__(self):
        if not self.revision_label:
            raise ValueError("revision label must be non-empty")


@dataclass(frozen=True)
class RevisionRecord(RevisionHead):
    """Everything one experiment run produced, keyed by revision."""

    results: Mapping[TestId, tuple[TestExecutionResult, ...]]

    def __post_init__(self):
        super().__post_init__()
        if set(self.summaries) != set(self.results):
            raise ValueError("summaries and results must cover the same tests")


@dataclass(frozen=True)
class HistoryPoint:
    """One record's mean energy per domain for one test."""

    revision_label: str
    created_at: str
    energy_mean_j: Mapping[EnergyDomain, float]


@dataclass(frozen=True)
class HistorySeries:
    """Chronological evolution of one test across stored records."""

    test: TestId
    points: tuple[HistoryPoint, ...]


class Histories(tuple):
    """The series one ``Store.history`` query returned, in request order."""

    @property
    def points(self) -> tuple[HistoryPoint, ...]:
        """Every point of every series."""
        return tuple(p for series in self for p in series.points)


# --- document (de)serialization -------------------------------------------


def _stats_to_doc(stats: Stats) -> dict:
    return {
        "mean": stats.mean,
        "median": stats.median,
        "min": stats.min,
        "max": stats.max,
        "stddev": stats.stddev,
    }


def _stats_from_doc(doc: dict) -> Stats:
    return Stats(doc["mean"], doc["median"], doc["min"], doc["max"], doc["stddev"])


def _domain_map_to_doc(mapping: Mapping[EnergyDomain, object], value_fn=lambda v: v) -> dict:
    return {str(d): value_fn(v) for d, v in sorted(mapping.items(), key=lambda kv: str(kv[0]))}


def _domain_map_from_doc(doc: dict, value_fn=lambda v: v) -> dict:
    return {EnergyDomain.parse(k): value_fn(v) for k, v in doc.items()}


def _result_to_doc(result: TestExecutionResult) -> dict:
    return {
        "iteration": result.iteration,
        "duration_ns": result.duration_ns,
        "status": result.status.value,
        "low_confidence": result.low_confidence,
        "baseline_applied": result.baseline_applied,
        "crashed": result.crashed,
        "error": result.error,
        "energy_j": _domain_map_to_doc(result.energy_j),
        "mean_power_w": _domain_map_to_doc(result.mean_power_w),
    }


def _result_from_doc(test: TestId, doc: dict, samples: SampleColumns) -> TestExecutionResult:
    return TestExecutionResult(
        test=test,
        iteration=doc["iteration"],
        duration_ns=doc["duration_ns"],
        energy_j=_domain_map_from_doc(doc["energy_j"]),
        mean_power_w=_domain_map_from_doc(doc["mean_power_w"]),
        samples=samples,
        status=TestStatus(doc["status"]),
        low_confidence=doc["low_confidence"],
        baseline_applied=doc["baseline_applied"],
        crashed=doc["crashed"],
        error=doc["error"],
    )


def _summary_to_doc(summary: TestSummary) -> dict:
    return {
        "iterations": summary.iterations,
        "mean_duration_s": summary.mean_duration_s,
        "any_low_confidence": summary.any_low_confidence,
        "pass_count": summary.pass_count,
        "fail_count": summary.fail_count,
        "skip_count": summary.skip_count,
        "energy_j": _domain_map_to_doc(summary.energy_stats, _stats_to_doc),
        "power_w": _domain_map_to_doc(summary.power_stats, _stats_to_doc),
    }


def _summary_from_doc(test: TestId, doc: dict) -> TestSummary:
    return TestSummary(
        test=test,
        iterations=doc["iterations"],
        energy_stats=_domain_map_from_doc(doc["energy_j"], _stats_from_doc),
        power_stats=_domain_map_from_doc(doc["power_w"], _stats_from_doc),
        mean_duration_s=doc["mean_duration_s"],
        any_low_confidence=doc["any_low_confidence"],
        pass_count=doc["pass_count"],
        fail_count=doc["fail_count"],
        skip_count=doc["skip_count"],
    )


def _stretches(samples: SampleColumns) -> tuple[list[int], list[int]]:
    """The lengths of the stretches of adjacent samples, in order, and the
    end of each stretch."""
    count = len(samples)
    if not count:
        return [], []
    # A stretch starts at 0 and wherever a sample does not start at the
    # previous sample's end.
    cuts = compress(range(1, count), map(ne, samples.ends_ns, samples.starts_ns[1:]))
    bounds = [0, *cuts, count]
    return [b - a for a, b in zip(bounds, bounds[1:])], [samples.ends_ns[b - 1] for b in bounds[1:]]


def _samples_to_doc(record: RevisionRecord) -> dict:
    """The sidecar document of ``record``."""
    starts: list[int] = []
    ends: list[int] = []
    columns: dict[EnergyDomain, list] = {}
    stretches = {}
    count = 0
    # Tests in key order: the dump sorts ``stretches``, and readers take
    # the columns in that order.
    for test, results in sorted(record.results.items(), key=lambda kv: str(kv[0])):
        stretches[str(test)] = per_iteration = []
        for result in results:
            samples = result.samples
            lengths, stretch_ends = _stretches(samples)
            per_iteration.append(lengths)
            starts += samples.starts_ns
            ends += stretch_ends
            for domain, values in samples.energy_uj.items():
                column = columns.get(domain)
                if column is None:
                    column = columns[domain] = [None] * count
                column += values
            count += len(samples)
            for column in columns.values():
                if len(column) < count:
                    column += [None] * (count - len(column))
    return {
        "start_ns": starts,
        "end_ns": ends,
        "stretches": stretches,
        "energy_uj": {str(d): values for d, values in columns.items()},
    }


def _inline_samples(doc: dict) -> dict[str, list[SampleColumns]]:
    """Per test, each iteration's samples from a format 1 document."""
    return {
        test: [SampleColumns.of(
            EnergySample(s["start_ns"], s["end_ns"], _domain_map_from_doc(s["energy_uj"]))
            for s in result["samples"]
        ) for result in results]
        for test, results in doc["results"].items()
    }


def _samples_from_doc(doc: dict) -> dict[str, list[SampleColumns]]:
    """Per test, each iteration's samples from a sidecar document."""
    starts, ends = doc["start_ns"], doc["end_ns"]
    columns = [(EnergyDomain.parse(d), values) for d, values in doc["energy_uj"].items()]
    index = stretch = 0
    runs = {}
    for test, iterations in doc["stretches"].items():
        runs[test] = per_iteration = []
        for lengths in iterations:
            first = index
            sample_ends: list[int] = []
            for length in lengths:
                # Within a stretch each sample ends where the next starts.
                stop = index + length
                sample_ends += starts[index + 1:stop]
                sample_ends.append(ends[stretch])
                index, stretch = stop, stretch + 1
            per_iteration.append(SampleColumns(
                starts[first:index],
                sample_ends,
                {domain: values[first:index] for domain, values in columns},
            ))
    if (index, stretch) != (len(starts), len(ends)):
        raise StorageError("sample columns do not match their stretches")
    return runs


def record_to_doc(record: RevisionRecord) -> dict:
    """The head document of a record: everything but the samples."""
    return {
        "format_version": FORMAT_VERSION,
        "revision_label": record.revision_label,
        "created_at": record.created_at,
        "config_digest": record.config_digest,
        "probe": {
            "backend": record.probe_backend,
            "update_interval_ns": record.probe_update_interval_ns,
            "domains": [str(d) for d in record.probe_domains],
        },
        "config": dict(sorted(record.config.items())),
        "summaries": {
            str(t): _summary_to_doc(s)
            for t, s in sorted(record.summaries.items(), key=lambda kv: str(kv[0]))
        },
        "results": {
            str(t): [_result_to_doc(r) for r in rs]
            for t, rs in sorted(record.results.items(), key=lambda kv: str(kv[0]))
        },
    }


def _check_version(doc: dict) -> None:
    version = doc.get("format_version")
    if version not in (FORMAT_VERSION, _INLINE_SAMPLES_VERSION):
        raise StorageError(f"unsupported record format_version {version!r}")


def _head_fields(doc: dict, tests: Mapping[str, TestId]) -> dict:
    """The ``RevisionHead`` fields of a head document; ``tests`` maps each
    summary key to its test."""
    probe = doc["probe"]
    return {
        "revision_label": doc["revision_label"],
        "created_at": doc["created_at"],
        "config_digest": doc["config_digest"],
        "probe_backend": probe["backend"],
        "probe_update_interval_ns": probe["update_interval_ns"],
        "probe_domains": tuple(EnergyDomain.parse(d) for d in probe["domains"]),
        "config": doc["config"],
        "summaries": {
            tests[t]: _summary_from_doc(tests[t], s) for t, s in doc["summaries"].items()
        },
    }


def head_from_doc(doc: dict) -> RevisionHead:
    """The head a head document describes; its ``results``, if present,
    are not read.

    Raises:
        StorageError: The format version is unsupported.
    """
    _check_version(doc)
    return RevisionHead(**_head_fields(doc, {t: TestId.parse(t) for t in doc["summaries"]}))


def record_from_doc(doc: dict, samples: dict | None = None) -> RevisionRecord:
    """The record a head document describes.

    ``samples`` is the record's sidecar document; without it the results
    carry no samples. A format 1 document carries its samples inline and
    always decodes with them.

    Raises:
        StorageError: The format version is unsupported, or the samples
            do not match the results.
    """
    _check_version(doc)
    if doc["format_version"] == _INLINE_SAMPLES_VERSION:
        runs = _inline_samples(doc)
    else:
        runs = None if samples is None else _samples_from_doc(samples)
    counts = {t: len(rs) for t, rs in doc["results"].items()}
    if runs is not None and {t: len(rs) for t, rs in runs.items()} != counts:
        raise StorageError("samples do not match the record's results")
    tests = {t: TestId.parse(t) for t in doc["summaries"].keys() | counts.keys()}
    results = {
        tests[t]: tuple(
            _result_from_doc(tests[t], r, _NO_SAMPLES if runs is None else runs[t][i])
            for i, r in enumerate(rs)
        )
        for t, rs in doc["results"].items()
    }
    return RevisionRecord(**_head_fields(doc, tests), results=results)


def render_record(record: RevisionRecord) -> str:
    """The canonical text of a record's head file (also the machine export)."""
    return json.dumps(record_to_doc(record), indent=2, sort_keys=True) + "\n"


def _render_samples(record: RevisionRecord) -> str:
    """The text of a record's sidecar; compact, so the C encoder renders it."""
    return json.dumps(_samples_to_doc(record), sort_keys=True, separators=(",", ":")) + "\n"


# ``render_record`` indents by two, sorts keys and escapes every string,
# so a newline followed by two spaces and a quote starts a top-level key
# and nothing else.
_TOP_KEY = '\n  "'
_RESULTS_KEY = _TOP_KEY + 'results": '


def _split_results(text: str) -> tuple[str, str | None]:
    """A head's text without its top-level ``results`` member, and that
    member's value; ``(text, None)`` unless the text is laid out as
    ``render_record`` lays it out and another key follows ``results``."""
    if text.startswith("{" + _TOP_KEY):
        start = text.find(_RESULTS_KEY)
        end = text.find(_TOP_KEY, start + 1) if start > 0 else -1
        if end > 0:
            # The value ends at the comma before the next key.
            return text[:start] + text[end:], text[start + len(_RESULTS_KEY):end - 1]
    return text, None


def _decode_head(text: str) -> tuple[dict, str | None]:
    """A head's document without its ``results`` member and that member's
    text, when the text splits and its rest decodes to a document that has
    no other ``results``; otherwise the whole document and None. Either way
    the document is ``json.loads(text)``'s, less what was split off."""
    rest, results = _split_results(text)
    if results is not None:
        # Text only laid out like render_record's may split elsewhere: its
        # rest then fails to decode or still holds the results.
        with suppress(json.JSONDecodeError):
            doc = json.loads(rest)
            if "results" not in doc:
                return doc, results
    return json.loads(text), None


class _Head(NamedTuple):
    """One head file as read: its document, without the ``results``
    member when the text split, that member's text (None when ``doc``
    holds it), the file's text and its path."""

    doc: dict
    results: str | None
    text: str
    path: Path


# --- the store itself ------------------------------------------------------


def _sanitize_label(label: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", label)
    # "." and ".." would name the revisions directory or the data directory.
    if safe in ("", ".", ".."):
        return safe.replace(".", "_") or "_"
    return safe


def _file_stamp(created_at: str) -> str:
    return re.sub(r"[^0-9TZ.]", "", created_at.replace("+00:00", "Z"))


def _save_order(path: Path) -> tuple[str, int]:
    """Sort key of ``<stamp>[-<n>].record``: same-stamp records keep save order."""
    stamp, _, counter = path.stem.partition("-")
    return stamp, int(counter) if counter.isdigit() else 0


def _write_file(target: Path, text: str) -> None:
    """Write ``text`` to a fsynced temporary beside ``target``, then rename
    it into place."""
    fd, tmp_name = tempfile.mkstemp(prefix=".tmp-", dir=target.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise


class Store:
    """File-backed record storage under one data directory.

    Single writer (the experiment lock enforces that), any number of
    readers. Stored records are never mutated.

    A record's file name is ``_file_stamp(created_at)`` plus the save
    counter of its stamp, so for ``created_at`` values in one ISO 8601 UTC
    form (``run_experiment`` writes microseconds and ``+00:00``) the
    names sort as the records do by ``created_at``, then by save order.
    ``latest`` relies on that to read the newest head first.

    ``load`` and ``latest`` read only the directory of their label, so an
    unreadable record under another label does not affect them;
    ``history`` reads every record and raises ``StorageError`` on any.
    """

    def __init__(self, data_dir: Path | str):
        self.data_dir = Path(data_dir)

    @property
    def revisions_dir(self) -> Path:
        return self.data_dir / "revisions"

    def save(self, record: RevisionRecord) -> Path:
        """Atomically persist ``record``: its sidecar first, then its head;
        returns the head file.

        Saving the same revision label again appends a new record.

        Raises:
            StorageError: The directory is not writable or the device
                is full. A failed save never leaves a partial record
                visible.
        """
        target_dir = self.revisions_dir / _sanitize_label(record.revision_label)
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            head = render_record(record)
            samples = _render_samples(record)
            stamp = _file_stamp(record.created_at)
            target = target_dir / f"{stamp}{_RECORD_SUFFIX}"
            counter = 1
            while target.exists():
                target = target_dir / f"{stamp}-{counter}{_RECORD_SUFFIX}"
                counter += 1
            # The sidecar lands first: a visible head always has its samples.
            sidecar = target.with_suffix(_SAMPLES_SUFFIX)
            _write_file(sidecar, samples)
            try:
                _write_file(target, head)
            except BaseException:
                with suppress(OSError):
                    os.unlink(sidecar)
                raise
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise StorageError("storage full while saving record") from exc
            raise StorageError(f"cannot save record: {exc}") from exc
        return target

    def _record_files(self, label_dir: Path) -> list[Path]:
        """The records of one label directory, oldest save first."""
        if not label_dir.is_dir():
            return []
        # Dot-prefixed files are in-flight temporaries.
        paths = [
            p for p in label_dir.iterdir()
            if not p.name.startswith(".") and p.suffix == _RECORD_SUFFIX
        ]
        return sorted(paths, key=_save_order)

    def _iter_record_files(self) -> Iterator[Path]:
        root = self.revisions_dir
        if not root.is_dir():
            return
        for label_dir in sorted(root.iterdir()):
            yield from self._record_files(label_dir)

    def _read_doc(self, path: Path) -> _Head:
        """The version-checked head of one record file, split as
        ``_decode_head`` splits it."""
        try:
            text = path.read_text(encoding="utf-8")
            doc, results = _decode_head(text)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"unreadable record {path}: {exc}") from exc
        _check_version(doc)
        return _Head(doc, results, text, path)

    def _read_samples(self, path: Path) -> dict:
        """The sidecar document of the format 2 record file ``path``."""
        sidecar = path.with_suffix(_SAMPLES_SUFFIX)
        try:
            return json.loads(sidecar.read_bytes())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"unreadable samples {sidecar}: {exc}") from exc

    def _record(self, head: _Head) -> RevisionRecord:
        """The full record of ``head``: its results decoded, and its
        sidecar read unless it is a format 1 record."""
        doc = head.doc
        if head.results is not None:
            try:
                doc = dict(doc, results=json.loads(head.results))
            except json.JSONDecodeError as exc:
                raise StorageError(f"unreadable record {head.path}: results: {exc}") from exc
        if doc["format_version"] == _INLINE_SAMPLES_VERSION:
            return record_from_doc(doc)
        return record_from_doc(doc, self._read_samples(head.path))

    def iter_records(self) -> Iterator[RevisionRecord]:
        for path in self._iter_record_files():
            yield self._record(self._read_doc(path))

    def _label_heads(self, revision_label: str, newest_first: bool = False) -> Iterator[_Head]:
        """The heads stored under ``revision_label``, oldest file name
        first or, with ``newest_first``, newest first; each head is read
        only when it is reached.

        Raises:
            UnknownRevision: Nothing is stored under that label.
        """
        label_dir = self.revisions_dir / _sanitize_label(revision_label)
        paths = self._record_files(label_dir)
        found = False
        for path in reversed(paths) if newest_first else paths:
            head = self._read_doc(path)
            # Labels that sanitize alike share a directory; keep the exact one.
            if head.doc["revision_label"] == revision_label:
                found = True
                yield head
        if not found:
            raise UnknownRevision(f"no records for revision {revision_label!r}")

    def load(self, revision_label: str) -> list[RevisionRecord]:
        """All records stored under ``revision_label``, oldest first.

        Raises:
            UnknownRevision: Nothing is stored under that label.
        """
        heads = sorted(self._label_heads(revision_label), key=lambda head: head.doc["created_at"])
        return [self._record(head) for head in heads]

    def latest(self, revision_label: str) -> RevisionRecord:
        """The newest record under ``revision_label``; the last saved on a tie.

        Raises:
            UnknownRevision: Nothing is stored under that label.
        """
        return self._record(next(self._label_heads(revision_label, newest_first=True)))

    def latest_text(self, revision_label: str) -> tuple[dict, str]:
        """The head document of the record ``latest`` returns, without its
        ``results`` member when the file is laid out as ``render_record``
        lays it out, and the file's exact text, which is the machine export
        of that record. Reads no sidecar and decodes no results, so damage
        confined to the results shows only in ``latest`` and ``load``.

        Raises:
            UnknownRevision: Nothing is stored under that label.
        """
        head = next(self._label_heads(revision_label, newest_first=True))
        return head.doc, head.text

    def history(self, tests: Sequence[TestId], limit: int | None = None) -> Histories:
        """Evolution of each of ``tests`` across all records, newest last.

        One series per test, in the order given; a test that no record
        holds yields an empty series. ``limit`` keeps only the most recent
        points of each series.
        """
        points: dict[TestId, list[HistoryPoint]] = {test: [] for test in tests}
        for path in self._iter_record_files():
            doc = self._read_doc(path).doc
            summaries = doc["summaries"]
            for test, test_points in points.items():
                summary = summaries.get(str(test))
                if summary is not None:
                    test_points.append(HistoryPoint(
                        doc["revision_label"], doc["created_at"],
                        _domain_map_from_doc(summary["energy_j"], itemgetter("mean")),
                    ))
        series = []
        for test in tests:
            ordered = sorted(points[test], key=lambda p: p.created_at)
            if limit is not None:
                ordered = ordered[-limit:]
            series.append(HistorySeries(test=test, points=tuple(ordered)))
        return Histories(series)
