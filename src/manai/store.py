"""Revision-keyed persistence of experiment outcomes.

Each record is a pair of files under ``<data_dir>/revisions/<label>/``:

* ``<created_at>.record``, the head: an indented, key-sorted JSON
  document with what the views show: the config, the probe and each
  test's summary. It stays human-browsable and diff-friendly, and is
  the machine export of the record.
* ``<created_at>.samples``, the sidecar: one compact JSON document with
  each iteration's result fields under ``results`` (energy and power per
  domain, duration, status, flags, error) and every iteration's samples
  as columns. ``start_ns`` holds each sample's start; adjacent samples
  share their edges, so ``end_ns`` holds only the end of each stretch of
  adjacent samples, and ``stretches`` gives, per test and iteration, the
  lengths of those stretches in sample order. ``energy_uj`` holds one
  integer array per domain, with ``null`` where a sample lacks that
  domain.

A result's samples are already columns (:class:`SampleColumns`), so a
save concatenates each iteration's columns and a load slices them back
out, per iteration and per stretch, never per sample.

Each stored field is declared once, as an entry of its record part's
field table (``_HEAD``, ``_PROBE``, ``_SUMMARY``, ``_STATS`` or
``_RESULT``), which both writes and reads it.

The directory name is the label with every character outside
``[A-Za-z0-9._-]`` replaced by ``_``; the labels ``.`` and ``..`` become
``_`` and ``__``, so every record lies under ``revisions/<label>/``.
Re-running a revision appends a new timestamped record instead of
overwriting; a record saved with the same timestamp gets a ``-<n>``
suffix and sorts after the ones before it. Each file is written to a
dot-prefixed temporary of mode 0o666 less the umask, fsynced, renamed
into place and its directory fsynced, so the rename outlasts a power
loss; the sidecar before the head, so a visible head always has its
sidecar and readers never observe a partial record. Readers skip
temporaries, and a sidecar without its head is not a record.

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

Each query lists each directory it needs once, by entry name, without a
stat per entry, and reads and decodes each head it needs once. A
missing label directory, or a label path that is not a directory, holds
no records; a directory that exists but cannot be listed raises
``StorageError``, as an unreadable record file does, and a head that
lacks a field a query or a view reads, or holds it with the wrong type.
Damage confined to a sidecar shows in ``load`` and ``latest`` only.

Older records stay readable and load to the same records, samples
included. Format 1 kept everything in one document, with every sample
inline as an object; format 2 kept the result fields in the head and
the samples in the sidecar. The views read their heads as they read a
format 3 head, passing over the ``results`` member. Every save writes
format 3.

Floating-point fields are serialized in shortest round-trip decimal form
(standard JSON float text), so save followed by load reproduces every
numeric field bit-exactly.
"""

from __future__ import annotations

import errno
import json
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, itemgetter, ne
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from manai.errors import StorageError, UnknownRevision
from manai.protocol import TestId, TestStatus
from manai.probe import EnergyDomain
from manai.results import Stats, TestExecutionResult, TestSummary
from manai.sampler import EnergySample, SampleColumns

FORMAT_VERSION = 3
# Formats 1 and 2 kept the results in the head, format 1 with every
# sample inline; they are read, never written.
_INLINE_SAMPLES_VERSION = 1
_HEAD_RESULTS_VERSION = 2

_RECORD_SUFFIX = ".record"
_SAMPLES_SUFFIX = ".samples"


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


class _Field(NamedTuple):
    """One stored field of a record part: the attribute that holds it, its
    key in the part's document, and how its value is encoded and decoded
    (``None``: stored as it is)."""

    attr: str
    key: str
    encode: Callable | None = None
    decode: Callable | None = None


class _Table:
    """A record part's field table: each entry a ``_Field``, or the name of
    an attribute stored as it is under that key. ``args`` returns the
    values in table order, which is the order the part's constructor
    takes them in."""

    def __init__(self, *fields: _Field | str):
        fields = [_Field(f, f) if isinstance(f, str) else f for f in fields]
        self.attrs, self.keys = [f.attr for f in fields], [f.key for f in fields]
        self._get_attrs, self._get_keys = attrgetter(*self.attrs), itemgetter(*self.keys)
        self._encoders = [(f.key, f.encode) for f in fields if f.encode]
        self._decoders = [(i, f.decode) for i, f in enumerate(fields) if f.decode]

    def to_doc(self, part) -> dict:
        """The document of the record part ``part``."""
        doc = dict(zip(self.keys, self._get_attrs(part)))
        for key, encode in self._encoders:
            doc[key] = encode(doc[key])
        return doc

    def args(self, doc: dict) -> list:
        """The values that the document ``doc`` of a record part holds."""
        values = list(self._get_keys(doc))
        for i, decode in self._decoders:
            values[i] = decode(values[i])
        return values

    def kwargs(self, doc: dict) -> dict:
        """The values that ``doc`` holds, by attribute name."""
        return dict(zip(self.attrs, self.args(doc)))


def _domain_map_to_doc(mapping: Mapping[EnergyDomain, object], value_fn=lambda v: v) -> dict:
    return {str(d): value_fn(v) for d, v in sorted(mapping.items(), key=lambda kv: str(kv[0]))}


def _domain_map_from_doc(doc: dict, value_fn=lambda v: v) -> dict:
    return {EnergyDomain.parse(k): value_fn(v) for k, v in doc.items()}


def _stats_from_doc(doc: dict) -> Stats:
    return Stats(*_STATS.args(doc))


def _result_from_doc(test: TestId, doc: dict, samples: SampleColumns) -> TestExecutionResult:
    return TestExecutionResult(test=test, samples=samples, **_RESULT.kwargs(doc))


# The stats maps look ``_stats_from_doc`` up at each call, so replacing it
# replaces every stats decode.
_STATS = _Table("mean", "median", "min", "max", "stddev")
_STATS_MAP = (
    lambda stats: _domain_map_to_doc(stats, _STATS.to_doc),
    lambda doc: _domain_map_from_doc(doc, _stats_from_doc),
)
# Each iteration's result, in the sidecar (in the head in format 2).
_RESULT = _Table(
    "iteration", "duration_ns", "low_confidence", "baseline_applied", "crashed", "error",
    _Field("status", "status", lambda status: status.value, TestStatus),
    _Field("energy_j", "energy_j", _domain_map_to_doc, _domain_map_from_doc),
    _Field("mean_power_w", "mean_power_w", _domain_map_to_doc, _domain_map_from_doc),
)
# Each test's summary, under the head's ``summaries``; its test comes first.
_SUMMARY = _Table(
    "iterations",
    _Field("energy_stats", "energy_j", *_STATS_MAP),
    _Field("power_stats", "power_w", *_STATS_MAP),
    "mean_duration_s", "any_low_confidence", "pass_count", "fail_count", "skip_count",
)
# The head's top level beside ``format_version`` and ``summaries``, and
# its ``probe`` member.
_HEAD = _Table("revision_label", "created_at", "config_digest", _Field("config", "config", dict))
_PROBE = _Table(
    _Field("probe_backend", "backend"),
    _Field("probe_update_interval_ns", "update_interval_ns"),
    _Field("probe_domains", "domains", lambda domains: list(map(str, domains)),
           lambda domains: tuple(map(EnergyDomain.parse, domains))),
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


def _sidecar_doc(record: RevisionRecord) -> dict:
    """The sidecar document of ``record``: its result fields and samples."""
    starts: list[int] = []
    ends: list[int] = []
    columns: dict[EnergyDomain, list] = {}
    result_docs = {}
    stretches = {}
    count = 0
    # Tests in key order: the dump sorts ``stretches``, and readers take
    # the columns in that order.
    for test, results in sorted(record.results.items(), key=lambda kv: str(kv[0])):
        result_docs[str(test)] = [_RESULT.to_doc(result) for result in results]
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
        "results": result_docs,
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


def _results_and_samples(
    doc: dict, read_sidecar: Callable[[], dict]
) -> tuple[dict, dict[str, list[SampleColumns]]]:
    """Per test, each iteration's result document and samples, from the
    head document ``doc`` and the sidecar document ``read_sidecar``
    returns: format 1 holds both in the head, format 2 the results in the
    head and the samples in the sidecar, and format 3 both in the sidecar.
    """
    version = doc["format_version"]
    if version == _INLINE_SAMPLES_VERSION:
        return doc["results"], _inline_samples(doc)
    sidecar = read_sidecar()
    results = doc["results"] if version == _HEAD_RESULTS_VERSION else sidecar["results"]
    return results, _samples_from_doc(sidecar)


def record_to_doc(head: RevisionHead) -> dict:
    """The head document of a record, or of a head: what the views show."""
    return {
        "format_version": FORMAT_VERSION,
        **_HEAD.to_doc(head),
        "probe": _PROBE.to_doc(head),
        "summaries": {str(t): _SUMMARY.to_doc(s) for t, s in head.summaries.items()},
    }


def _head_fields(doc: dict, tests: Mapping[str, TestId]) -> dict:
    """The ``RevisionHead`` fields of a head document; ``tests`` maps each
    summary key to its test."""
    return {
        **_HEAD.kwargs(doc),
        **_PROBE.kwargs(doc["probe"]),
        "summaries": {tests[t]: TestSummary(tests[t], *_SUMMARY.args(s)) for t, s in doc["summaries"].items()},
    }


def head_from_doc(doc: dict) -> RevisionHead:
    """The head a head document of any format describes; the ``results``
    of a format 1 or 2 head are not read."""
    return RevisionHead(**_head_fields(doc, {t: TestId.parse(t) for t in doc["summaries"]}))


def record_from_doc(doc: dict, read_sidecar: Callable[[], dict]) -> RevisionRecord:
    """The record a head document describes; ``read_sidecar`` returns the
    record's sidecar document and is not called for a format 1 record,
    whose samples are inline.

    Raises:
        StorageError: The samples do not match the results.
    """
    results, runs = _results_and_samples(doc, read_sidecar)
    if {t: len(rs) for t, rs in runs.items()} != {t: len(rs) for t, rs in results.items()}:
        raise StorageError("samples do not match the record's results")
    tests = {t: TestId.parse(t) for t in doc["summaries"].keys() | results.keys()}
    return RevisionRecord(**_head_fields(doc, tests), results={
        tests[t]: tuple(_result_from_doc(tests[t], r, runs[t][i]) for i, r in enumerate(rs))
        for t, rs in results.items()
    })


def render_record(head: RevisionHead) -> str:
    """The canonical text of a record's head file (also the machine export)."""
    return json.dumps(record_to_doc(head), indent=2, sort_keys=True) + "\n"


def _render_sidecar(record: RevisionRecord) -> str:
    """The text of a record's sidecar; compact, so the C encoder renders it."""
    return json.dumps(_sidecar_doc(record), sort_keys=True, separators=(",", ":")) + "\n"


@contextmanager
def _fields_of(path: str):
    """Raise a missing or mistyped field of the record file ``path`` as StorageError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed record {path}: {type(exc).__name__}: {exc}") from exc


class _Head(NamedTuple):
    """One head file as read: its document, its text and its path."""

    doc: dict
    text: str
    path: str


# --- the store itself ------------------------------------------------------


def _sanitize_label(label: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", label)
    # "." and ".." would name the revisions directory or the data directory.
    if safe in ("", ".", ".."):
        return safe.replace(".", "_") or "_"
    return safe


def _file_stamp(created_at: str) -> str:
    return re.sub(r"[^0-9TZ.]", "", created_at.replace("+00:00", "Z"))


def _save_order(name: str) -> tuple[str, int]:
    """Sort key of ``<stamp>[-<n>].record``: same-stamp records keep save order."""
    stamp, _, counter = name[:-len(_RECORD_SUFFIX)].partition("-")
    return stamp, int(counter) if counter.isdigit() else 0


def _list_dir(path: str) -> list[str]:
    """The entry names of the directory ``path``; none when it is missing
    or is not a directory.

    Raises:
        StorageError: The directory cannot be listed.
    """
    try:
        with os.scandir(path) as entries:
            return [entry.name for entry in entries]
    except (FileNotFoundError, NotADirectoryError):
        return []
    except OSError as exc:
        raise StorageError(f"unreadable store directory {path}: {exc}") from exc


def _write_file(target: Path, text: str) -> None:
    """Write ``text`` to a fsynced temporary beside ``target``, rename it
    into place and fsync the directory; a file not made durable is removed."""
    path = target.parent / f".tmp-{os.urandom(8).hex()}"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(path, target)
        path = target  # a failure from here on removes the renamed file
        directory = os.open(target.parent, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        with suppress(OSError):
            os.unlink(path)
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
            sidecar_text = _render_sidecar(record)
            stamp = _file_stamp(record.created_at)
            target = target_dir / f"{stamp}{_RECORD_SUFFIX}"
            counter = 1
            while target.exists():
                target = target_dir / f"{stamp}-{counter}{_RECORD_SUFFIX}"
                counter += 1
            # The sidecar lands first: a visible head always has its sidecar.
            sidecar = target.with_suffix(_SAMPLES_SUFFIX)
            _write_file(sidecar, sidecar_text)
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

    def _record_files(self, label_dir: str) -> list[str]:
        """The records of one label directory, oldest save first; none
        when it is missing or is not a directory."""
        # Dot-prefixed files are in-flight temporaries.
        names = [
            name for name in _list_dir(label_dir)
            if name.endswith(_RECORD_SUFFIX) and not name.startswith(".")
        ]
        names.sort(key=_save_order)
        return [os.path.join(label_dir, name) for name in names]

    def _iter_record_files(self) -> Iterator[str]:
        root = os.fspath(self.revisions_dir)
        for name in sorted(_list_dir(root)):
            yield from self._record_files(os.path.join(root, name))

    def _read_doc(self, path: str) -> _Head:
        """The head of one record file, its format version and text
        ``revision_label`` and ``created_at`` checked."""
        try:
            with open(path, "rb") as handle:
                text = handle.read().decode("utf-8")
            if "\r" in text:
                # Universal newlines, as a text-mode read gives them.
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            doc = json.loads(text)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"unreadable record {path}: {exc}") from exc
        with _fields_of(path):
            version = doc.get("format_version")
            if version not in (_INLINE_SAMPLES_VERSION, _HEAD_RESULTS_VERSION, FORMAT_VERSION):
                raise StorageError(f"unsupported record format_version {version!r}")
            if not all(isinstance(doc[key], str) for key in ("revision_label", "created_at")):
                raise TypeError("revision_label and created_at must be strings")
        return _Head(doc, text, path)

    def _read_samples(self, path: str) -> dict:
        """The sidecar document of the record file ``path``."""
        sidecar = path[:-len(_RECORD_SUFFIX)] + _SAMPLES_SUFFIX
        try:
            with open(sidecar, "rb") as handle:
                return json.loads(handle.read())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(f"unreadable samples {sidecar}: {exc}") from exc

    def _record(self, head: _Head) -> RevisionRecord:
        """The full record of ``head``, its sidecar read if it has one."""
        with _fields_of(head.path):
            return record_from_doc(head.doc, lambda: self._read_samples(head.path))

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
        paths = self._record_files(os.path.join(self.revisions_dir, _sanitize_label(revision_label)))
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
        records = [self._record(head) for head in self._label_heads(revision_label)]
        return sorted(records, key=lambda record: record.created_at)

    def latest(self, revision_label: str) -> RevisionRecord:
        """The newest record under ``revision_label``; the last saved on a tie.

        Raises:
            UnknownRevision: Nothing is stored under that label.
        """
        return self._record(next(self._label_heads(revision_label, newest_first=True)))

    def latest_text(self, revision_label: str, decode=lambda doc: doc) -> tuple[object, str]:
        """The head document of the record ``latest`` returns, passed
        through ``decode``, and the file's exact text, which is the machine
        export of that record. Reads no sidecar, so damage confined to the
        sidecar shows only in ``latest`` and ``load``.

        Raises:
            UnknownRevision: Nothing is stored under that label.
            StorageError: ``decode`` finds a field missing or mistyped.
        """
        head = next(self._label_heads(revision_label, newest_first=True))
        with _fields_of(head.path):
            return decode(head.doc), head.text

    def history(self, tests: Sequence[TestId], limit: int | None = None) -> Histories:
        """Evolution of each of ``tests`` across all records, newest last.

        One series per test, in the order given; a test that no record
        holds yields an empty series. ``limit`` keeps only the most recent
        points of each series.
        """
        points: dict[TestId, list[HistoryPoint]] = {test: [] for test in tests}
        keyed = [(str(test), test_points) for test, test_points in points.items()]
        for path in self._iter_record_files():
            doc = self._read_doc(path).doc
            with _fields_of(path):
                summaries = doc["summaries"]
                for key, test_points in keyed:
                    summary = summaries.get(key)
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
