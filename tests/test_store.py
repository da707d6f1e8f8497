"""Persistence: atomic saves, lossless round-trips, history queries."""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import random
import re
import shutil
import stat
from collections import Counter
from pathlib import Path

import pytest

import manai.store
from manai.errors import StorageError, UnknownRevision
from manai.protocol import TestId, TestStatus
from manai.report import ReportFormat, ReportRequest, render_history, render_summary
from manai.results import Stats, TestExecutionResult, TestSummary, summarize
from manai.sampler import EnergySample
from manai.store import RevisionRecord, Store, head_from_doc, record_from_doc, record_to_doc

from conftest import DRAM, PKG, fill_device_at_head, make_record, refuse_listing

V1_DIR = Path(__file__).parent / "v1"


def ts(i: int) -> str:
    return f"2026-08-10T10:{i // 60:02d}:{i % 60:02d}.000000+00:00"


class TestSaveLoad:
    def test_round_trip_preserves_structure(self, tmp_path):
        store = Store(tmp_path)
        record = make_record("abc123", ts(0), {"demo::a": 5_000_000, "demo::b": 2_500_000})
        store.save(record)
        loaded = store.load("abc123")
        assert len(loaded) == 1
        assert record_to_doc(loaded[0]) == record_to_doc(record)
        assert loaded == [record]  # samples included

    def test_same_label_appends(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("abc", ts(0), {"demo::a": 1_000_000}))
        store.save(make_record("abc", ts(1), {"demo::a": 2_000_000}))
        loaded = store.load("abc")
        assert [r.created_at for r in loaded] == [ts(0), ts(1)]

    def test_identical_created_at_still_appends(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("abc", ts(0), {"demo::a": 1_000_000}))
        store.save(make_record("abc", ts(0), {"demo::a": 2_000_000}))
        assert len(store.load("abc")) == 2
        # The later save is the newer record, although its file sorts first by name.
        latest = store.latest("abc").summaries[TestId("demo", "a")]
        assert latest.energy_stats[PKG].mean == 2.0

    def test_unknown_revision_raises(self, tmp_path):
        with pytest.raises(UnknownRevision):
            Store(tmp_path).load("nope")

    def test_leftover_temporaries_are_ignored(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("abc", ts(0), {"demo::a": 1_000_000}))
        # Simulate a writer killed mid-save.
        label_dir = store.revisions_dir / "abc"
        (label_dir / ".tmp-killed").write_text('{"format_version": 1, "partial')
        loaded = store.load("abc")
        assert len(loaded) == 1

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_files_take_their_mode_from_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            path = Store(tmp_path).save(make_record("abc", ts(0), {"demo::a": 1}))
        finally:
            os.umask(previous)
        for saved in (path, path.with_suffix(".samples")):
            assert oct(stat.S_IMODE(saved.stat().st_mode)) == oct(mode)

    def test_each_rename_is_followed_by_a_directory_fsync(self, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync

        def record_kind(fd):
            synced.append("directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            fsync(fd)

        monkeypatch.setattr(manai.store.os, "fsync", record_kind)
        Store(tmp_path).save(make_record("abc", ts(0), {"demo::a": 1}))
        assert synced == ["file", "directory", "file", "directory"]

    def test_saved_records_never_mutate(self, tmp_path):
        store = Store(tmp_path)
        path = store.save(make_record("abc", ts(0), {"demo::a": 1_000_000}))
        before = path.read_bytes()
        store.load("abc")
        store.history((TestId("demo", "a"),))[0]
        store.save(make_record("abc", ts(1), {"demo::a": 2_000_000}))
        assert path.read_bytes() == before

    def test_unreadable_record_is_reported(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("abc", ts(0), {"demo::a": 1}))
        for path in (store.revisions_dir / "abc").glob("*.record"):
            path.write_text("{ not json")
        with pytest.raises(StorageError):
            store.load("abc")

    @pytest.mark.parametrize("suffix, message", [(".record", "unreadable record"), (".samples", "unreadable samples")])
    def test_undecodable_file_is_reported(self, tmp_path, suffix, message):
        store = Store(tmp_path)
        path = store.save(make_record("abc", ts(0), {"demo::a": 1}))
        with path.with_suffix(suffix).open("ab") as handle:
            handle.write(b"\xff")
        with pytest.raises(StorageError, match=message):
            store.load("abc")

    def test_unsupported_format_version_is_reported(self, tmp_path):
        store = Store(tmp_path)
        path = store.save(make_record("abc", ts(0), {"demo::a": 1}))
        path.write_text(path.read_text().replace('"format_version": 3', '"format_version": 4'))
        for query in (store.load, store.latest):
            with pytest.raises(StorageError, match="format_version 4"):
                query("abc")
        with pytest.raises(StorageError, match="format_version 4"):
            store.history((TestId("demo", "a"),))

    @pytest.mark.parametrize("doc", [
        [], {"format_version": 2}, {"format_version": 2, "revision_label": "abc", "created_at": 5},
    ], ids=["list", "version-only", "created-at-not-text"])
    def test_malformed_head_is_reported(self, tmp_path, doc):
        store = Store(tmp_path)
        path = store.save(make_record("abc", ts(0), {"demo::a": 1}))
        path.write_text(json.dumps(doc))
        history = lambda label: store.history((TestId("demo", "a"),))  # noqa: E731
        for query in (store.load, store.latest, store.latest_text, history):
            with pytest.raises(StorageError, match=f"^malformed record {re.escape(str(path))}: "):
                query("abc")

    def test_labels_sharing_a_directory_stay_apart(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("a/b", ts(0), {"demo::a": 1_000_000}))
        store.save(make_record("a_b", ts(1), {"demo::a": 2_000_000}))
        store.save(make_record("a/b", ts(2), {"demo::a": 3_000_000}))
        assert [d.name for d in store.revisions_dir.iterdir()] == ["a_b"]
        assert [(r.revision_label, r.created_at) for r in store.load("a/b")] == [
            ("a/b", ts(0)), ("a/b", ts(2)),
        ]
        assert [(r.revision_label, r.created_at) for r in store.load("a_b")] == [
            ("a_b", ts(1)),
        ]
        assert store.latest("a_b").created_at == ts(1)

    @pytest.mark.parametrize("label", [".", ".."])
    def test_dot_labels_stay_under_revisions(self, tmp_path, label):
        store = Store(tmp_path / "data")
        path = store.save(make_record(label, ts(0), {"demo::a": 1_000_000}))
        assert path.resolve().parent.parent == store.revisions_dir.resolve()
        assert [r.revision_label for r in store.iter_records()] == [label]
        (series,) = store.history((TestId("demo", "a"),))
        assert [p.revision_label for p in series.points] == [label]
        assert store.latest(label).created_at == ts(0)
        assert [r.revision_label for r in store.load(label)] == [label]

    def test_unreadable_record_of_another_label_is_isolated(self, tmp_path):
        store = Store(tmp_path)
        store.save(make_record("good", ts(0), {"demo::a": 1_000_000}))
        store.save(make_record("bad", ts(1), {"demo::a": 2_000_000})).write_text("{ not json")
        assert [r.created_at for r in store.load("good")] == [ts(0)]
        assert store.latest("good").created_at == ts(0)
        # history reads every record, so it still reports the damage.
        with pytest.raises(StorageError, match="unreadable record"):
            store.history((TestId("demo", "a"),))

    def test_empty_label_is_refused(self):
        with pytest.raises(ValueError, match="^revision label must be non-empty$"):
            make_record("", ts(0), {"demo::a": 1})

    def test_awkward_labels_are_stored_and_found(self, tmp_path):
        store = Store(tmp_path)
        label = "feature/wip branch#7"
        store.save(make_record(label, ts(0), {"demo::a": 1_000_000}))
        assert store.load(label)[0].revision_label == label


def random_float(rng: random.Random) -> float:
    choices = [
        rng.uniform(0.0, 1e6),
        rng.random() * 10 ** rng.randint(-12, 12),
        0.0,
        1 / 3,
        5e-324,
        1.7976931348623157e308,
    ]
    return rng.choice(choices)


def random_record(rng: random.Random, index: int) -> RevisionRecord:
    """Up to three samples; a sample may follow a gap or lack a domain.
    Every stored field is drawn on its own, so a field stored under
    another field's key does not read back."""
    test = TestId("suite", f"case_{rng.randint(0, 5)}")
    n_samples = rng.randint(0, 3)
    samples = []
    cursor = 0
    for _ in range(n_samples):
        cursor += rng.choice([0, 0, rng.randint(1, 10**6)])
        length = rng.randint(1, 10**9)
        domains = rng.choice([(PKG,), (PKG,), (PKG, DRAM), (DRAM,)])
        energy = {d: rng.randint(0, 10**9) for d in domains}
        samples.append(EnergySample(cursor, cursor + length, energy))
        cursor += length
    result = TestExecutionResult(
        test=test,
        iteration=rng.randint(0, 99),
        duration_ns=rng.randint(1, 10**10),
        energy_j={PKG: random_float(rng)},
        mean_power_w={PKG: random_float(rng)},
        samples=tuple(samples),
        status=rng.choice(list(TestStatus)),
        low_confidence=rng.random() < 0.5,
        baseline_applied=rng.random() < 0.5,
        crashed=rng.random() < 0.1,
        error=None if rng.random() < 0.8 else "synthetic failure",
    )
    summary = TestSummary(
        test=test,
        iterations=rng.randint(1, 100),
        energy_stats={PKG: Stats(*(random_float(rng) for _ in range(5)))},
        power_stats={PKG: Stats(*(random_float(rng) for _ in range(5)))},
        mean_duration_s=random_float(rng),
        any_low_confidence=result.low_confidence,
        pass_count=1 if result.status is TestStatus.PASS else 0,
        fail_count=1 if result.status is TestStatus.FAIL else 0,
        skip_count=1 if result.status is TestStatus.SKIP else 0,
    )
    return RevisionRecord(
        revision_label=f"rev-{rng.randint(0, 9)}",
        created_at=ts(index),
        config_digest=f"sha256:{rng.getrandbits(64):x}",
        probe_backend="simulated",
        probe_update_interval_ns=rng.randint(1, 10**7),
        probe_domains=(PKG,),
        config={"experiment.rate_hz": repr(rng.uniform(0.1, 1000.0))},
        summaries={test: summary},
        results={test: (result,)},
    )


def test_randomized_round_trip_is_bit_exact(tmp_path):
    rng = random.Random(20260810)
    store = Store(tmp_path)
    for index in range(200):
        record = random_record(rng, index)
        path = store.save(record)
        loaded_doc = json.loads(path.read_text())
        assert loaded_doc == record_to_doc(record)
        assert record_to_doc(head_from_doc(loaded_doc)) == record_to_doc(record)
        sidecar_doc = json.loads(path.with_suffix(".samples").read_text())
        assert record_from_doc(loaded_doc, lambda: sidecar_doc) == record


class TestHistory:
    def test_series_ordered_and_limited(self, tmp_path):
        store = Store(tmp_path)
        for i, label in enumerate(["r1", "r2", "r3"]):
            store.save(make_record(label, ts(i), {"demo::t": (i + 1) * 1_000_000}))
        series = store.history((TestId("demo", "t"),))[0]
        assert [p.revision_label for p in series.points] == ["r1", "r2", "r3"]
        limited = store.history((TestId("demo", "t"),), limit=2)[0]
        assert [p.revision_label for p in limited.points] == ["r2", "r3"]

    def test_unknown_test_is_empty_series(self, tmp_path):
        series = Store(tmp_path).history((TestId("no", "where"),))[0]
        assert series.points == ()

    def test_matches_full_scan_oracle(self, tmp_path):
        rng = random.Random(7)
        store = Store(tmp_path)
        saved: list[RevisionRecord] = []
        paths = {}
        for index in range(20):
            record = random_record(rng, index)
            paths[record.created_at] = store.save(record)
            saved.append(record)

        all_tests = {t for r in saved for t in r.summaries}
        for test in all_tests:
            expected = sorted(
                (
                    (r.created_at, r.revision_label)
                    for r in saved
                    if test in r.summaries
                ),
                key=lambda pair: pair[0],
            )
            series = store.history((test,))[0]
            assert [(p.created_at, p.revision_label) for p in series.points] == expected
            for p in series.points:
                stored = head_from_doc(json.loads(paths[p.created_at].read_text()))
                energy = stored.summaries[test].energy_stats
                assert p.energy_mean_j == {d: stats.mean for d, stats in energy.items()}

        tests = sorted(all_tests, key=str)
        assert list(store.history(tests)) == [store.history((t,))[0] for t in tests]


class TestReadScope:
    """Each query reads only the record files its answer needs."""

    TESTS = tuple(TestId("demo", f"t{i}") for i in range(4))

    @pytest.fixture
    def store_twelve_labels(self, tmp_path):
        store = Store(tmp_path)
        energies = {str(t): (i + 1) * 1_000_000 for i, t in enumerate(self.TESTS)}
        for index in range(12):
            store.save(make_record(f"r{index}", ts(index), energies))
        store.save(make_record("r3", ts(12), energies))
        return store

    @pytest.fixture
    def reads(self, monkeypatch):
        counts: Counter = Counter()
        read_doc = Store._read_doc

        def counting(self, path):
            counts[path] += 1
            return read_doc(self, path)

        monkeypatch.setattr(Store, "_read_doc", counting)
        return counts

    def test_latest_reads_only_its_label(self, store_twelve_labels, reads):
        assert store_twelve_labels.latest("r3").created_at == ts(12)
        newest = store_twelve_labels.revisions_dir / "r3" / f"{manai.store._file_stamp(ts(12))}.record"
        assert reads == {str(newest): 1}

    def test_latest_text_of_many_records_reads_one_head(self, tmp_path, reads):
        # 25 records of one label, saved out of order, several sharing a
        # stamp: the newest is the greatest created_at, and the last saved
        # of those that share it.
        store = Store(tmp_path)
        rng = random.Random(25)
        order = list(range(25))
        rng.shuffle(order)
        saved = {}
        for position, index in enumerate(order):
            created_at = ts((index + 2) // 3)
            path = store.save(make_record("many", created_at, {"demo::a": (index + 1) * 1000}))
            saved[created_at, position] = path
        newest = saved[max(saved)]
        with_ties = Counter(created_at for created_at, _ in saved)
        assert with_ties[max(saved)[0]] == 3
        reads.clear()
        doc, text = store.latest_text("many")
        assert text == newest.read_text()
        assert reads == {str(newest): 1}
        docs = [json.loads(Path(path).read_text()) for path in store._record_files(newest.parent)]
        newest_doc = sorted(docs, key=lambda d: d["created_at"])[-1]
        assert doc == newest_doc

    def test_evolution_reads_each_record_once(self, store_twelve_labels, reads):
        request = ReportRequest(scope="history", tests=self.TESTS, no_color=True)
        assert len(render_history(store_twelve_labels, request).splitlines()) == 4
        assert set(reads) == {str(path) for path in store_twelve_labels.revisions_dir.glob("*/*.record")}
        assert len(reads) == 13
        assert set(reads.values()) == {1}


def _pathlib_save_order(path: Path) -> tuple[str, int]:
    stamp, _, counter = path.stem.partition("-")
    return stamp, int(counter) if counter.isdigit() else 0


def pathlib_record_files(label_dir: Path) -> list[Path]:
    """The records of one label directory as the ``pathlib`` listing found
    them: the reference for ``Store._record_files``."""
    if not label_dir.is_dir():
        return []
    paths = [
        p for p in label_dir.iterdir()
        if not p.name.startswith(".") and p.suffix == ".record"
    ]
    return sorted(paths, key=_pathlib_save_order)


def pathlib_iter_record_files(revisions_dir: Path) -> list[Path]:
    """Every record of a store as the ``pathlib`` listing found them: the
    reference for ``Store._iter_record_files``."""
    if not revisions_dir.is_dir():
        return []
    return [path for label_dir in sorted(revisions_dir.iterdir()) for path in pathlib_record_files(label_dir)]


class TestListing:
    """The store lists record files as the ``pathlib`` listing did."""

    @pytest.fixture
    def cluttered(self, tmp_path):
        store = Store(tmp_path)
        # Twelve saves of one stamp: counters -1 to -11, where -10 sorts
        # after -2 by number, not by text.
        for energy in range(12):
            store.save(make_record("shared", ts(0), {"demo::a": energy + 1}))
        for index, label in enumerate(["r10", "r9", "B", "a", "a/b", "."]):
            store.save(make_record(label, ts(index + 1), {"demo::a": 1_000}))
            store.save(make_record(label, ts(0), {"demo::a": 2_000}))
        shared = store.revisions_dir / "shared"
        (shared / ".tmp-killed").write_text('{"format_version": 2, "partial')
        (shared / ".tmp-x.record").write_text("{}")
        (shared / "notes.txt").write_text("not a record\n")
        orphan = store.save(make_record("orphan", ts(3), {"demo::a": 1}))
        store.save(make_record("orphan", ts(4), {"demo::a": 1}))
        orphan.unlink()  # its sidecar stays, without its head
        (store.revisions_dir / "afile").write_text("a label path that is a file\n")
        (store.revisions_dir / "empty").mkdir()
        return store

    def test_matches_the_pathlib_listing(self, cluttered):
        revisions = cluttered.revisions_dir
        expected = pathlib_iter_record_files(revisions)
        assert [os.fspath(p) for p in cluttered._iter_record_files()] == [os.fspath(p) for p in expected]
        assert len(expected) == 12 + 6 * 2 + 1
        for label_dir in [*revisions.iterdir(), revisions / "missing"]:
            expected = pathlib_record_files(label_dir)
            assert [os.fspath(p) for p in cluttered._record_files(label_dir)] == [os.fspath(p) for p in expected]
        shared = [Path(p).name for p in cluttered._record_files(revisions / "shared")]
        stamp = manai.store._file_stamp(ts(0))
        assert shared == [f"{stamp}.record", *(f"{stamp}-{n}.record" for n in range(1, 12))]

    def test_store_without_revisions_lists_nothing(self, tmp_path):
        store = Store(tmp_path / "never-written")
        assert list(store._iter_record_files()) == pathlib_iter_record_files(store.revisions_dir) == []
        assert store.history((TestId("demo", "a"),))[0].points == ()

    @pytest.mark.parametrize("denied", ["", "r1"])
    def test_unlistable_directory_is_a_storage_error(self, tmp_path, monkeypatch, denied):
        store = Store(tmp_path)
        store.save(make_record("r1", ts(0), {"demo::a": 1}))
        path = os.fspath(store.revisions_dir / denied)
        refuse_listing(monkeypatch, path)
        message = f"^unreadable store directory {re.escape(path)}: \\[Errno 13\\]"
        with pytest.raises(StorageError, match=message):
            store.history((TestId("demo", "a"),))
        if denied:
            with pytest.raises(StorageError, match=message):
                store.latest_text("r1")

    def test_crlf_head_reads_as_text_mode_does(self, tmp_path):
        store = Store(tmp_path)
        path = store.save(make_record("abc", ts(0), {"demo::a": 1}))
        text = path.read_text()
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert store.latest_text("abc") == (json.loads(text), text)
        assert store.load("abc") == [make_record("abc", ts(0), {"demo::a": 1})]


def sampled_record(label: str, iterations: list[list[EnergySample]]) -> RevisionRecord:
    """A record of one test whose iterations carry ``iterations``' samples."""
    test = TestId("demo", "sampled")
    results = tuple(
        TestExecutionResult(
            test=test, iteration=i, duration_ns=6_000_000,
            energy_j={PKG: 0.5, DRAM: 0.25}, mean_power_w={PKG: 1 / 3, DRAM: 0.1},
            samples=tuple(samples), status=TestStatus.PASS, low_confidence=False,
            baseline_applied=False,
        )
        for i, samples in enumerate(iterations)
    )
    return RevisionRecord(
        revision_label=label,
        created_at=ts(0),
        config_digest="sha256:test",
        probe_backend="simulated",
        probe_update_interval_ns=1_000_000,
        probe_domains=(PKG, DRAM),
        config={},
        summaries={test: summarize(results)},
        results={test: results},
    )


MS = 1_000_000
SAMPLE_CASES = {
    "non-adjacent": [
        [
            EnergySample(0, MS, {PKG: 5, DRAM: 1}),
            EnergySample(2 * MS, 3 * MS, {PKG: 7, DRAM: 2}),
            EnergySample(3 * MS, 5 * MS, {PKG: 9, DRAM: 3}),
        ],
        # Starts where the previous iteration ended, yet is a stretch of its own.
        [EnergySample(5 * MS, 6 * MS, {PKG: 11, DRAM: 4})],
    ],
    "domain sets differ": [[
        EnergySample(0, MS, {PKG: 1, DRAM: 2}),
        EnergySample(MS, 2 * MS, {PKG: 3}),
        EnergySample(2 * MS, 3 * MS, {DRAM: 0}),
        EnergySample(3 * MS, 4 * MS, {}),
    ]],
    # Iterations with {package, dram}, {package} and mixed columns: the
    # sidecar pads every column another iteration lacks with nulls.
    "iterations hold different domains": [
        [EnergySample(0, MS, {PKG: 1, DRAM: 2})],
        [EnergySample(MS, 2 * MS, {PKG: 3}), EnergySample(2 * MS, 3 * MS, {PKG: 4})],
        [EnergySample(3 * MS, 4 * MS, {DRAM: 5}), EnergySample(4 * MS, 5 * MS, {PKG: 6})],
    ],
    "some iterations without samples": [[], [EnergySample(0, MS, {PKG: 1})], []],
    "no samples at all": [[], []],
}


def rename_sidecar_test(doc: dict) -> None:
    """Results and samples that agree, but name a test the head lacks."""
    for key in ("results", "stretches"):
        doc[key]["demo::b"] = doc[key].pop("demo::a")


class TestSampleSidecar:
    @pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
    def test_round_trip_is_bit_exact(self, tmp_path, case):
        store = Store(tmp_path)
        record = sampled_record("abc", SAMPLE_CASES[case])
        path = store.save(record)
        assert store.load("abc") == [record]
        assert store.latest("abc") == record
        assert list(store.iter_records()) == [record]
        assert "samples" not in path.read_text()

    def test_layout_is_columnar(self, tmp_path):
        path = Store(tmp_path).save(sampled_record("abc", SAMPLE_CASES["non-adjacent"]))
        sidecar = path.with_suffix(".samples")
        results = [{
            "baseline_applied": False, "crashed": False, "duration_ns": 6 * MS,
            "energy_j": {"dram:0": 0.25, "package:0": 0.5}, "error": None, "iteration": i,
            "low_confidence": False, "mean_power_w": {"dram:0": 0.1, "package:0": 1 / 3},
            "status": "PASS",
        } for i in range(2)]
        assert sidecar.read_text() == json.dumps({
            "end_ns": [MS, 5 * MS, 6 * MS],
            "energy_uj": {"dram:0": [1, 2, 3, 4], "package:0": [5, 7, 9, 11]},
            "results": {"demo::sampled": results},
            "start_ns": [0, 2 * MS, 3 * MS, 5 * MS],
            "stretches": {"demo::sampled": [[1, 2], [1]]},
        }, separators=(",", ":")) + "\n"
        assert "results" not in json.loads(path.read_text())

    def test_failed_head_rename_leaves_no_record(self, tmp_path, monkeypatch):
        store = Store(tmp_path)
        renamed = []
        replace = os.replace

        def fail_on_head(src, dst):
            renamed.append(Path(dst).suffix)
            if Path(dst).suffix == ".record":
                raise OSError("injected failure")
            replace(src, dst)

        monkeypatch.setattr(manai.store.os, "replace", fail_on_head)
        with pytest.raises(StorageError, match="injected failure"):
            store.save(make_record("abc", ts(0), {"demo::a": 1}))
        assert renamed == [".samples", ".record"]
        assert list((store.revisions_dir / "abc").iterdir()) == []
        with pytest.raises(UnknownRevision):
            store.load("abc")
        assert store.history((TestId("demo", "a"),))[0].points == ()

    def test_failed_directory_fsync_at_the_head_leaves_no_file(self, tmp_path, monkeypatch):
        store = Store(tmp_path)
        directories = []
        fsync = os.fsync

        def fail_on_second_directory(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                directories.append(fd)
                if len(directories) == 2:
                    raise OSError(errno.EIO, os.strerror(errno.EIO))
            fsync(fd)

        monkeypatch.setattr(manai.store.os, "fsync", fail_on_second_directory)
        with pytest.raises(StorageError, match="^cannot save record: .*Input/output error$"):
            store.save(make_record("abc", ts(0), {"demo::a": 1}))
        # The head was renamed into place, so it is removed as well as the sidecar.
        assert list((store.revisions_dir / "abc").iterdir()) == []
        with pytest.raises(UnknownRevision):
            store.load("abc")

    def test_full_device_at_the_head_leaves_no_file(self, tmp_path, monkeypatch):
        store = Store(tmp_path)
        opened = fill_device_at_head(monkeypatch)
        with pytest.raises(StorageError, match="^storage full while saving record$") as raised:
            store.save(make_record("abc", ts(0), {"demo::a": 1}))
        assert raised.value.__cause__.errno == errno.ENOSPC
        assert len(opened) == 2
        # Neither the sidecar, nor the head, nor either temporary remains.
        assert list((store.revisions_dir / "abc").iterdir()) == []
        with pytest.raises(UnknownRevision):
            store.load("abc")

    def test_sidecar_without_head_is_not_a_record(self, tmp_path):
        store = Store(tmp_path)
        path = store.save(make_record("abc", ts(0), {"demo::a": 1}))
        # A writer killed between the two renames leaves only the sidecar.
        path.unlink()
        with pytest.raises(UnknownRevision):
            store.load("abc")
        assert list(store.iter_records()) == []
        record = make_record("abc", ts(0), {"demo::a": 2})
        assert store.save(record) == path
        assert store.load("abc") == [record]

    def test_missing_sidecar_is_reported(self, tmp_path):
        store = Store(tmp_path)
        path = store.save(make_record("abc", ts(0), {"demo::a": 1}))
        path.with_suffix(".samples").unlink()
        for query in (store.load, store.latest):
            with pytest.raises(StorageError, match="unreadable samples"):
                query("abc")
        # The head alone still serves the views.
        assert store.latest_text("abc")[1] == path.read_text()
        assert len(store.history((TestId("demo", "a"),))[0].points) == 1

    @pytest.mark.parametrize("damage, message", [
        (lambda doc: doc["start_ns"].append(0), "sample columns do not match their stretches"),
        (lambda doc: doc["stretches"]["demo::a"].append([]), "samples do not match the record's results"),
        (rename_sidecar_test, "summaries and results must cover the same tests"),
    ])
    def test_sidecar_that_does_not_match_is_reported(self, tmp_path, damage, message):
        store = Store(tmp_path)
        path = store.save(make_record("abc", ts(0), {"demo::a": 1}))
        sidecar = path.with_suffix(".samples")
        doc = json.loads(sidecar.read_text())
        damage(doc)
        sidecar.write_text(json.dumps(doc))
        for query in (store.load, store.latest):
            with pytest.raises(StorageError, match=message):
                query("abc")
        # The views read no sidecar.
        assert "demo::a" in render_summary(store, ReportRequest(scope="revision", revisions=("abc",)))
        assert len(store.history((TestId("demo", "a"),))[0].points) == 1

    def test_damaged_results_show_only_in_full_reads(self, tmp_path):
        store = Store(tmp_path)
        test = TestId("demo", "a")
        path = store.save(make_record("dmg", ts(0), {str(test): 1_000_000}))
        sidecar = path.with_suffix(".samples")
        text = sidecar.read_text()
        assert text.count('"iteration":0') == 1
        sidecar.write_text(text.replace('"iteration":0', '"iteration":?'))
        request = ReportRequest(scope="revision", revisions=("dmg",))
        assert "demo::a" in render_summary(store, request)
        assert [p.created_at for p in store.history((test,)).points] == [ts(0)]
        for query in (store.latest, store.load):
            with pytest.raises(StorageError, match=f"^unreadable samples {re.escape(str(sidecar))}: "):
                query("dmg")


V1_LABEL = "v1/fixture"
V1_RECORD = V1_DIR / "20260809T090000.123456Z.record"


def v1_fixture_record() -> RevisionRecord:
    """The record that ``V1_RECORD`` was saved from by the format 1 writer:
    adjacent, non-adjacent and partial-domain samples, and a result with no
    samples."""

    def result(test, iteration, samples, begin_ns, end_ns):
        return TestExecutionResult.build(
            test=test, iteration=iteration, samples=samples, begin_ns=begin_ns,
            end_ns=end_ns, status=TestStatus.PASS, update_interval_ns=MS, domains=(PKG, DRAM),
        )

    steady, gappy, broken = (TestId("demo", n) for n in ("steady", "gappy", "broken"))
    results = {
        steady: tuple(
            result(steady, i, [
                EnergySample(k * MS, (k + 1) * MS, {PKG: 10_003 + 7 * k + i, DRAM: 1_201 + k})
                for k in range(4)
            ], MS // 3, 4 * MS - MS // 7)
            for i in range(2)
        ),
        gappy: (
            result(gappy, 0, [
                EnergySample(0, 2 * MS, {PKG: 20_000, DRAM: 2_500}),
                EnergySample(2 * MS, 3 * MS, {PKG: 9_999}),
                EnergySample(5 * MS, 6 * MS, {PKG: 10_001, DRAM: 0}),
            ], 0, 6 * MS),
        ),
        broken: (
            TestExecutionResult(
                test=broken, iteration=0, duration_ns=0,
                energy_j={PKG: 0.0, DRAM: 0.0}, mean_power_w={PKG: 0.0, DRAM: 0.0},
                samples=(), status=TestStatus.FAIL, low_confidence=True,
                baseline_applied=False, error="protocol violation: END without BEGIN",
            ),
        ),
    }
    return RevisionRecord(
        revision_label=V1_LABEL,
        created_at="2026-08-09T09:00:00.123456+00:00",
        config_digest="sha256:fedcba9876543210fedcba9876543210",
        probe_backend="simulated",
        probe_update_interval_ns=MS,
        probe_domains=(PKG, DRAM),
        config={"experiment.rate_hz": "1000.0", "probe.backend": "simulated"},
        summaries={test: summarize(rs) for test, rs in results.items()},
        results=results,
    )


def format1_text(record: RevisionRecord) -> str:
    """``record`` as the format 1 writer rendered it: results in the
    head, each with its samples inline."""
    doc = record_to_doc(record)
    doc["format_version"] = 1
    doc["results"] = {}
    for test, results in record.results.items():
        doc["results"][str(test)] = [manai.store._RESULT.to_doc(result) for result in results]
        for result_doc, result in zip(doc["results"][str(test)], results):
            result_doc["samples"] = [
                {
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "energy_uj": {str(d): uj for d, uj in s.energy_uj.items()},
                }
                for s in result.samples
            ]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestFormatVersion1:
    """``tests/v1`` holds a record saved by the format 1 writer, with that
    writer's CSV and term reports of it."""

    @pytest.fixture
    def v1_store(self, tmp_path):
        store = Store(tmp_path)
        label_dir = store.revisions_dir / "v1_fixture"
        label_dir.mkdir(parents=True)
        shutil.copy(V1_RECORD, label_dir)
        return store

    def test_loads_bit_exactly(self, v1_store):
        (loaded,) = v1_store.load(V1_LABEL)
        assert loaded == v1_fixture_record()
        assert format1_text(loaded) == V1_RECORD.read_text()
        assert v1_store.latest(V1_LABEL) == loaded
        assert list(v1_store.iter_records()) == [loaded]

    @pytest.mark.parametrize("fmt", [ReportFormat.CSV, ReportFormat.TERM])
    def test_reports_are_byte_identical(self, v1_store, fmt):
        request = ReportRequest(
            scope="revision", revisions=(V1_LABEL,), fmt=fmt, no_color=True, width=120
        )
        expected = (V1_DIR / f"revision.{fmt.value}").read_text()
        assert render_summary(v1_store, request) == expected

    def test_machine_export_is_the_file(self, v1_store):
        request = ReportRequest(scope="revision", revisions=(V1_LABEL,), fmt=ReportFormat.MACHINE)
        assert render_summary(v1_store, request) == V1_RECORD.read_text()


V2_DIR = Path(__file__).parent / "v2"
V2_LABEL = "v2/fixture"
V2_RECORD = V2_DIR / "20260901T090000.654321Z.record"


def v2_fixture_record() -> RevisionRecord:
    """The record that ``V2_RECORD`` and its sidecar were saved from by the
    format 2 writer: two domains, two iterations per test, a low-confidence
    pass and a failure with an error."""
    steady, flaky = TestId("demo", "steady"), TestId("demo", "flaky")

    def samples(first_uj):
        return [
            EnergySample(k * MS, (k + 1) * MS, {PKG: first_uj + 13 * k, DRAM: 1_199 + k})
            for k in range(5)
        ]

    def result(test, iteration, begin_ns, end_ns, status=TestStatus.PASS, error=None):
        return TestExecutionResult.build(
            test=test, iteration=iteration, samples=samples(10_009 + iteration), begin_ns=begin_ns,
            end_ns=end_ns, status=status, update_interval_ns=MS, error=error, domains=(PKG, DRAM),
        )

    results = {
        steady: tuple(result(steady, i, MS // 3, 4 * MS + MS // 7) for i in range(2)),
        flaky: (
            # Shorter than the counter refresh: low confidence.
            result(flaky, 0, MS + MS // 5, MS + 9 * MS // 10),
            result(flaky, 1, MS // 2, 3 * MS, TestStatus.FAIL, "AssertionError: expected 3, got 4"),
        ),
    }
    return RevisionRecord(
        revision_label=V2_LABEL,
        created_at="2026-09-01T09:00:00.654321+00:00",
        config_digest="sha256:0123456789abcdef0123456789abcdef",
        probe_backend="simulated",
        probe_update_interval_ns=MS,
        probe_domains=(PKG, DRAM),
        config={"experiment.iterations": "2", "probe.backend": "simulated"},
        summaries={test: summarize(rs) for test, rs in results.items()},
        results=results,
    )


class TestFormatVersion2:
    """``tests/v2`` holds a record saved by the format 2 writer, with that
    writer's CSV, term and machine reports of it."""

    @pytest.fixture
    def v2_store(self, tmp_path):
        store = Store(tmp_path)
        label_dir = store.revisions_dir / "v2_fixture"
        label_dir.mkdir(parents=True)
        shutil.copy(V2_RECORD, label_dir)
        shutil.copy(V2_RECORD.with_suffix(".samples"), label_dir)
        return store

    def test_loads_bit_exactly(self, v2_store):
        (loaded,) = v2_store.load(V2_LABEL)
        assert loaded == v2_fixture_record()
        assert v2_store.latest(V2_LABEL) == loaded
        assert list(v2_store.iter_records()) == [loaded]
        doc = json.loads(V2_RECORD.read_text())
        assert doc["format_version"] == 2
        assert {test: len(results) for test, results in doc["results"].items()} == {
            "demo::flaky": 2, "demo::steady": 2,
        }

    @pytest.mark.parametrize("fmt", [ReportFormat.CSV, ReportFormat.TERM])
    def test_reports_are_byte_identical(self, v2_store, fmt):
        request = ReportRequest(
            scope="revision", revisions=(V2_LABEL,), fmt=fmt, no_color=True, width=120
        )
        expected = (V2_DIR / f"revision.{fmt.value}").read_text()
        assert render_summary(v2_store, request) == expected

    def test_machine_export_is_the_file(self, v2_store):
        request = ReportRequest(scope="revision", revisions=(V2_LABEL,), fmt=ReportFormat.MACHINE)
        text = render_summary(v2_store, request)
        assert text == V2_RECORD.read_text() == (V2_DIR / "revision.machine").read_text()

    def test_evolution_lists_all_three_formats(self, v2_store):
        shutil.copy(V1_RECORD, v2_store.revisions_dir / "v2_fixture")
        record = dataclasses.replace(
            v2_fixture_record(), revision_label="v3", created_at="2026-10-01T09:00:00.000000+00:00"
        )
        path = v2_store.save(record)
        assert json.loads(path.read_text())["format_version"] == 3
        assert v2_store.load("v3") == [record]
        test = TestId("demo", "steady")
        (series,) = v2_store.history((test,))
        assert [p.revision_label for p in series.points] == [V1_LABEL, V2_LABEL, "v3"]
        for point, source in zip(series.points, (v1_fixture_record(), v2_fixture_record(), record)):
            means = {d: stats.mean for d, stats in source.summaries[test].energy_stats.items()}
            assert point.energy_mean_j == means
        text = render_history(v2_store, ReportRequest(scope="history", tests=(test,), no_color=True))
        assert "(v1/fixture -> v2/fixture -> v3)" in text
