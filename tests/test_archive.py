import errno
import inspect
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import pytest

import oracle_digests as oracle
import sample_docs as docs
from dircollect import archive as archive_module
from dircollect import docparse
from dircollect.archive import Archive, ArchiveEntry, entry_path, index_json_bytes
from dircollect.clock import ManualClock
from dircollect.dirserver import DirServer
from dircollect.docmodel import DocType, DocumentIdentifier, parse_ts
from dircollect.errors import ArchiveError, CorruptEntry, StorageFull

NOW = datetime(2018, 11, 15, 19, 5, 0, tzinfo=timezone.utc)


@pytest.fixture
def clock():
    return ManualClock(NOW)


@pytest.fixture
def arch(tmp_path, clock):
    return Archive(tmp_path / "data", clock)


def raw_of(body, doctype=None):
    return docparse.make_raw(body, source="test", retrieved_at=NOW, doctype=doctype)


def store_doc(arch, body, doctype=None):
    raw = raw_of(body, doctype)
    parsed = docparse.parse(raw) if raw.doctype is not None else None
    ident = docparse.identify(raw, parsed)
    return arch.store(raw, ident)


def segment_of(arch, entry):
    return arch.root / "archive" / entry.segment


def stored_bytes(arch, entry):
    """The bytes at the entry's place in its segment."""
    data = segment_of(arch, entry).read_bytes()
    return data[entry.offset:entry.offset + entry.size_bytes]


ALL_DOCS = [
    docs.CONSENSUS_NS,
    docs.CONSENSUS_MD,
    docs.VOTE,
    docs.SAMPLE_DETACHED_SIGNATURE,
    docs.SERVER_DESCRIPTOR,
    docs.EXTRA_INFO,
    docs.MICRODESCRIPTOR,
    docs.BANDWIDTH_LIST,
]


def test_store_load_round_trip_every_type(arch):
    for body in ALL_DOCS:
        entry = store_doc(arch, body)
        raw = arch.load_entry(arch.find_by_digests(entry.digests))
        assert raw.body == body, entry.type_name


def test_store_is_idempotent(arch):
    first = store_doc(arch, docs.SERVER_DESCRIPTOR)
    second = store_doc(arch, docs.SERVER_DESCRIPTOR)
    assert first == second
    files = [p for p in (arch.root / "archive").rglob("*") if p.is_file()]
    assert files == [segment_of(arch, first)]
    assert files[0].read_bytes() == b"@type server-descriptor 1.0\n" + docs.SERVER_DESCRIPTOR
    (manifest,) = (arch.root / "manifest").glob("*.jsonl")
    assert len(manifest.read_bytes().splitlines()) == 1


def test_unrecognized_blob_is_kept(arch):
    blob = b"zzzz total junk\n"
    entry = store_doc(arch, blob)
    assert entry.doctype is None
    assert entry.path.startswith("unrecognized/")
    assert oracle.whole_file_sha256(blob) in entry.path
    raw = arch.load_entry(arch.find_by_digests(entry.digests))
    assert raw.body == blob  # no annotation on unrecognized blobs


def test_server_descriptor_path_layout(arch):
    entry = store_doc(arch, docs.SERVER_DESCRIPTOR)
    digest = docs.SERVER_DESCRIPTOR_SHA1
    assert entry.path == f"server-descriptor/2018/11/{digest[0]}/{digest[1]}/{digest}"


def test_period_document_path_layout(arch):
    entry = store_doc(arch, docs.VOTE)
    sha = oracle.status_sha256(docs.VOTE)
    assert entry.path == f"vote/2018/11/15/vote-2018-11-15-19-00-00-{sha[:8]}"


def test_torperf_path_layout(arch, clock):
    raw = docparse.make_raw(docs.TORPERF, "test", NOW, DocType.TorperfResults)
    ident = DocumentIdentifier(DocType.TorperfResults, "op-nl-51200", NOW, raw.digests)
    entry = arch.store(raw, ident)
    sha = oracle.whole_file_sha256(docs.TORPERF)
    assert entry.path == f"torperf/2018/11/{sha[:8]}/op-nl-51200-2018-11-15.tpf"


def test_path_is_pure_function_of_identity():
    raw = raw_of(docs.MICRODESCRIPTOR, DocType.Microdescriptor)
    a = entry_path(DocType.Microdescriptor, "", NOW, raw.digests)
    b = entry_path(DocType.Microdescriptor, "", NOW, raw.digests)
    assert a == b
    assert "/" not in a.split("/")[-1]
    assert "+" not in a


def test_stored_file_is_annotated(arch):
    vote = store_doc(arch, docs.VOTE)
    entry = store_doc(arch, docs.SERVER_DESCRIPTOR)
    data = stored_bytes(arch, entry)
    assert data == b"@type server-descriptor 1.0\n" + docs.SERVER_DESCRIPTOR
    assert entry.size_bytes == len(data)
    assert stored_bytes(arch, vote) == b"@type network-status-vote-3 1.0\n" + docs.VOTE
    assert entry.segment == "server-descriptor/2018/11/server-descriptor-2018-11-15-19"
    assert not (arch.root / "archive" / entry.path).exists()


def test_segment_appends_in_store_order_and_rotates_by_hour(arch, clock):
    bodies = [_descriptor_variant(i) for i in range(3)]
    first = [store_doc(arch, b) for b in bodies[:2]]
    micro = store_doc(arch, docs.MICRODESCRIPTOR)
    clock.advance(3600)
    later = store_doc(arch, bodies[2])
    assert first[1].offset == first[0].offset + first[0].size_bytes
    assert segment_of(arch, first[0]).read_bytes() == b"".join(
        b"@type server-descriptor 1.0\n" + b for b in bodies[:2])
    assert later.segment.endswith("server-descriptor-2018-11-15-20")
    assert later.offset == 0
    files = sorted(p for p in (arch.root / "archive").rglob("*") if p.is_file())
    assert files == sorted(segment_of(arch, e) for e in (first[0], micro, later))
    # two segments and one manifest month held at most; the rotation
    # closed the 19:00 handle before opening the 20:00 one
    assert arch.metrics.gauge("archive.open_files_peak") == 3
    for entry, body in zip((*first, later), bodies):
        assert arch.load_entry(entry).body == body


def test_load_unknown_digest(arch):
    ident = DocumentIdentifier(
        DocType.ServerDescriptor,
        digests=docparse.compute_digests(b"router x 1.2.3.4 1 1 1\nrouter-signature\n",
                                         DocType.ServerDescriptor),
    )
    assert arch.find_by_digests(ident.digests) is None
    assert not arch.contains(ident)


def test_load_by_period(arch):
    store_doc(arch, docs.CONSENSUS_NS)
    guessed = DocumentIdentifier(DocType.ConsensusNs, "", parse_ts("2018-11-15 19:00:00"))
    (entry,) = arch.find_period(guessed.doctype, guessed.datetime)
    assert arch.load_entry(entry).body == docs.CONSENSUS_NS
    assert arch.contains(guessed)


def test_corruption_detected_on_load(arch):
    before = store_doc(arch, docs.EXTRA_INFO.replace(b"extra-info demo", b"extra-info dem0"))
    entry = store_doc(arch, docs.EXTRA_INFO)
    target = segment_of(arch, entry)
    data = bytearray(target.read_bytes())
    data[entry.offset + entry.size_bytes // 2] ^= 0x01
    target.write_bytes(bytes(data))
    assert arch.load_entry(before).digests.matches(before.digests)
    with pytest.raises(CorruptEntry):
        arch.load_entry(arch.find_by_digests(entry.digests))
    report = arch.verify_integrity()
    assert report.corrupt == [entry.path]
    assert report.warn


def test_manifest_reload(tmp_path, clock):
    arch = Archive(tmp_path / "data", clock)
    stored = {store_doc(arch, body).path for body in ALL_DOCS}
    reopened = Archive(tmp_path / "data", clock)
    assert {e.path for e in reopened.entries()} == stored
    entry = reopened.find_by_digests(
        docparse.compute_digests(docs.SERVER_DESCRIPTOR, DocType.ServerDescriptor))
    assert reopened.load_entry(entry).body == docs.SERVER_DESCRIPTOR


def test_torn_manifest_tail_is_dropped(tmp_path, clock):
    arch = Archive(tmp_path / "data", clock)
    vote = store_doc(arch, docs.VOTE)
    lost = store_doc(arch, docs.SERVER_DESCRIPTOR)
    (manifest,) = (arch.root / "manifest").glob("*.jsonl")
    manifest.write_bytes(manifest.read_bytes()[:-40])  # crash mid-append

    reopened = Archive(tmp_path / "data", clock)
    assert [e.path for e in reopened.entries()] == [vote.path]
    added = store_doc(reopened, docs.EXTRA_INFO)
    again = store_doc(reopened, docs.SERVER_DESCRIPTOR)
    assert again == lost

    final = Archive(tmp_path / "data", clock)
    assert {e.path for e in final.entries()} == {vote.path, lost.path, added.path}
    assert final.load_entry(final.find_by_digests(added.digests)).body == docs.EXTRA_INFO


def _descriptor_variant(i):
    return docs.SERVER_DESCRIPTOR.replace(b"router demo ", b"router demo%03d " % i)


def test_of_type_is_in_store_order_then_path_order(tmp_path, clock):
    arch = Archive(tmp_path / "data", clock)
    # filed under December's manifest, but stored first
    december = store_doc(arch, docs.SERVER_DESCRIPTOR.replace(
        b"published 2018-11-15", b"published 2018-12-01"))
    clock.advance(60)
    same_instant = [store_doc(arch, _descriptor_variant(i)).path for i in range(10)]
    assert same_instant != sorted(same_instant)
    expected = [december.path] + sorted(same_instant)
    for archive in (arch, Archive(tmp_path / "data", clock)):
        assert [e.path for e in archive.of_type(DocType.ServerDescriptor)] == expected
        assert [e.path for e in archive.of_type(DocType.ServerDescriptor, clock.now())] \
            == sorted(same_instant)
        assert archive.of_type(DocType.ExtraInfoDescriptor) == []


def test_duplicated_manifest_line_is_one_entry(tmp_path, clock):
    arch = Archive(tmp_path / "data", clock)
    store_doc(arch, docs.SERVER_DESCRIPTOR)
    (manifest,) = (arch.root / "manifest").glob("*.jsonl")
    manifest.write_bytes(manifest.read_bytes() * 2)

    reopened = Archive(tmp_path / "data", clock)
    assert reopened.counts() == {"server-descriptor": 1}
    assert DirServer(reopened, clock).respond("/tor/server/all")[1] \
        == docs.SERVER_DESCRIPTOR
    assert len(reopened.build_index().entries) == 1


# --- recent/ ----------------------------------------------------------------


def test_recent_snapshot_concatenates_run(arch, clock):
    for i in range(25):
        store_doc(arch, _descriptor_variant(i))
    written = arch.recent_snapshot()
    assert len(written) == 1
    data = written[0].read_bytes()
    assert data.count(b"@type server-descriptor 1.0\n") == 25
    assert written[0].name.endswith("-server-descriptor")


def test_recent_snapshot_empty_run(arch):
    assert arch.recent_snapshot() == []


def test_recent_snapshot_splits_runs_within_one_second(arch):
    store_doc(arch, _descriptor_variant(1))
    (first,) = arch.recent_snapshot("a")
    store_doc(arch, _descriptor_variant(2))  # same clock second, same segment
    (second,) = arch.recent_snapshot("b")
    assert first.read_bytes() == b"@type server-descriptor 1.0\n" + _descriptor_variant(1)
    assert second.read_bytes() == b"@type server-descriptor 1.0\n" + _descriptor_variant(2)
    assert arch.recent_snapshot("c") == []


def test_recent_snapshot_leaves_out_what_an_earlier_process_stored(tmp_path, clock):
    store_doc(Archive(tmp_path / "data", clock), docs.SERVER_DESCRIPTOR)
    reopened = Archive(tmp_path / "data", clock)
    assert reopened.recent_snapshot() == []
    store_doc(reopened, _descriptor_variant(1))
    (written,) = reopened.recent_snapshot()
    assert written.read_bytes() == b"@type server-descriptor 1.0\n" + _descriptor_variant(1)


def test_recent_snapshot_keeps_stores_after_the_clock_steps_back(arch, clock):
    store_doc(arch, _descriptor_variant(1))
    clock.advance(30)
    arch.recent_snapshot("a")
    clock.advance(-3600)  # the wall clock is set back an hour
    later = store_doc(arch, _descriptor_variant(2))
    (written,) = arch.recent_snapshot("b")
    assert written.read_bytes() == b"@type server-descriptor 1.0\n" + _descriptor_variant(2)
    assert arch.of_type(DocType.ServerDescriptor)[-1] == later


def _holds_entries(value):
    if isinstance(value, ArchiveEntry):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple, set)) and any(_holds_entries(v) for v in value)


def test_stores_hold_no_entry_outside_the_indexes(arch):
    for i in range(54):
        store_doc(arch, _descriptor_variant(i))
    indexes = {"_by_digest", "_by_type", "_by_period"}
    held = [name for name, value in vars(arch).items()
            if name not in indexes and _holds_entries(value)]
    assert held == []
    assert len(arch.recent_snapshot()[0].read_bytes().split(b"@type ")) == 55


def test_recent_pruned_after_72h(arch, clock):
    store_doc(arch, docs.SERVER_DESCRIPTOR)
    (old,) = arch.recent_snapshot()
    clock.advance(73 * 3600)
    store_doc(arch, _descriptor_variant(1))
    (new,) = arch.recent_snapshot()
    assert not old.exists()
    assert new.exists()


# --- index -------------------------------------------------------------------


def test_index_empty_archive(arch):
    index = arch.build_index()
    assert index.entries == ()
    doc = json.loads(index_json_bytes(index))
    assert list(doc.keys()) == ["generated_at", "task_status", "entries"]
    assert doc["entries"] == []


def test_index_sorted_and_stable(arch):
    for body in (docs.VOTE, docs.SERVER_DESCRIPTOR, docs.MICRODESCRIPTOR):
        store_doc(arch, body)
    first = index_json_bytes(arch.build_index({"eager-votes": "2018-11-15 19:52:30"}))
    second = index_json_bytes(arch.build_index())
    assert first == second
    doc = json.loads(first)
    assert [e["type"] for e in doc["entries"]] == [
        "microdescriptor", "server-descriptor", "vote",
    ]
    assert doc["task_status"] == {"eager-votes": "2018-11-15 19:52:30"}
    entry_keys = [list(e.keys()) for e in doc["entries"]]
    assert all(
        keys == ["path", "type", "sha1", "sha256", "size", "stored_at", "datetime"]
        for keys in entry_keys
    )


def test_index_survives_reopen_identically(tmp_path, clock):
    arch = Archive(tmp_path / "data", clock)
    for body in ALL_DOCS:
        store_doc(arch, body)
    first = index_json_bytes(arch.build_index())
    reopened = Archive(tmp_path / "data", clock)
    assert index_json_bytes(reopened.build_index()) == first


# --- integrity ---------------------------------------------------------------


def test_integrity_counts_dangling_references(arch):
    store_doc(arch, docs.VOTE)
    store_doc(arch, docs.SERVER_DESCRIPTOR)
    store_doc(arch, docs.BANDWIDTH_LIST)
    report = arch.verify_integrity()
    # the vote names three descriptors and one bandwidth list; two of the
    # descriptors were never published anywhere
    assert report.total_references == 4
    assert report.missing == 2
    assert report.warn  # 50% missing is far over the default 0.5%


def test_integrity_clean_when_references_resolve(arch):
    store_doc(arch, docs.SERVER_DESCRIPTOR)
    store_doc(arch, docs.EXTRA_INFO)
    store_doc(arch, docs.MICRODESCRIPTOR)
    report = arch.verify_integrity()
    assert report.checked == 3
    assert report.missing == 0
    assert not report.warn


def test_integrity_window_excludes_other_periods(arch):
    store_doc(arch, docs.VOTE)
    window = (parse_ts("2018-12-01 00:00:00"), parse_ts("2018-12-02 00:00:00"))
    report = arch.verify_integrity(window)
    assert report.checked == 0
    assert report.total_references == 0


# --- import ------------------------------------------------------------------


def test_import_annotated_files(arch, tmp_path):
    src = tmp_path / "incoming"
    src.mkdir()
    (src / "one").write_bytes(
        docparse.annotate(raw_of(docs.SERVER_DESCRIPTOR, DocType.ServerDescriptor))
        + docparse.annotate(raw_of(docs.EXTRA_INFO, DocType.ExtraInfoDescriptor))
    )
    (src / "two").write_bytes(
        docparse.annotate(raw_of(docs.CONSENSUS_NS, DocType.ConsensusNs))
    )
    report = arch.import_path(src)
    assert report.stored == {"server-descriptor": 1, "extra-info": 1, "consensus": 1}
    assert not report.errors


def test_import_cached_descriptor_concatenation(arch, tmp_path):
    blob = b"".join(_descriptor_variant(i) for i in range(10))
    src = tmp_path / "cached-descriptors"
    src.write_bytes(blob)
    report = arch.import_path(src)
    assert report.stored == {"server-descriptor": 10}
    assert arch.counts()["server-descriptor"] == 10


def test_import_junk_and_duplicates(arch, tmp_path):
    src = tmp_path / "incoming"
    src.mkdir()
    (src / "junk.txt").write_bytes(b"hello world\n")
    (src / "desc").write_bytes(docs.SERVER_DESCRIPTOR)
    (src / "desc-again").write_bytes(docs.SERVER_DESCRIPTOR)
    report = arch.import_path(src)
    assert report.stored.get("unrecognized") == 1
    assert report.stored.get("server-descriptor") == 1
    assert report.duplicates == 1


def test_import_empty_directory(arch, tmp_path):
    src = tmp_path / "empty"
    src.mkdir()
    report = arch.import_path(src)
    assert report.total == 0


def test_segments_import_under_the_same_paths(arch, tmp_path, clock):
    for body in ALL_DOCS:
        store_doc(arch, body)
        clock.advance(1800)  # spread over several segments
    fresh = Archive(tmp_path / "fresh", clock)
    report = fresh.import_path(arch.root / "archive")
    assert (report.total, report.errors) == (len(ALL_DOCS), [])
    assert {e.path for e in fresh.entries()} == {e.path for e in arch.entries()}
    assert fresh.verify_integrity().corrupt == []


def test_import_torperf_file(arch, tmp_path):
    src = tmp_path / "op-nl-51200-2018-11-15.tpf"
    src.write_bytes(docs.TORPERF)
    report = arch.import_path(src)
    assert report.stored == {"torperf": 1}
    (entry,) = arch.entries()
    sha = oracle.whole_file_sha256(docs.TORPERF)
    assert entry.path == f"torperf/2018/11/{sha[:8]}/op-nl-51200-2018-11-15.tpf"
    assert (entry.subject, entry.doc_datetime) == ("op-nl-51200", parse_ts("2018-11-15 00:00:00"))


def test_import_torperf_files_sharing_a_name_keeps_both(arch, tmp_path):
    bodies = [docs.TORPERF, docs.TORPERF.replace(b"CIRC_ID=8", b"CIRC_ID=7")]
    for n, body in enumerate(bodies):
        src = tmp_path / f"host{n}" / "op-nl-51200-2018-11-15.tpf"
        src.parent.mkdir()
        src.write_bytes(body)
        assert arch.import_path(src).stored == {"torperf": 1}
    entries = arch.entries()
    assert len({e.path for e in entries}) == 2
    assert sorted(arch.load_entry(e).body for e in entries) == sorted(bodies)
    assert arch.verify_integrity().corrupt == []


# --- concurrency -------------------------------------------------------------


def test_bounded_file_handles_under_burst(tmp_path, clock):
    arch = Archive(tmp_path / "data", clock, max_open_files=8)
    bodies = [_descriptor_variant(i) for i in range(120)]
    raws = [raw_of(b, DocType.ServerDescriptor) for b in bodies]
    with ThreadPoolExecutor(max_workers=32) as pool:
        list(pool.map(lambda r: arch.store(r), raws))
    assert len(arch.entries()) == 120
    peak = arch.metrics.gauge("archive.open_files_peak")
    assert 0 < peak <= 8


def test_concurrent_duplicate_stores_register_once(arch):
    raw = raw_of(docs.MICRODESCRIPTOR, DocType.Microdescriptor)
    results = []
    barrier = threading.Barrier(8)

    def go():
        barrier.wait()
        results.append(arch.store(raw))

    threads = [threading.Thread(target=go) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({e.path for e in results}) == 1
    assert len(arch.entries()) == 1


def test_partial_tmp_file_is_invisible(arch):
    store_doc(arch, docs.SERVER_DESCRIPTOR)
    leftover = arch.root / "archive" / "server-descriptor" / ".tmp-deadbeef"
    leftover.parent.mkdir(parents=True, exist_ok=True)
    leftover.write_bytes(b"half a descriptor")
    index = arch.build_index()
    assert len(index.entries) == 1
    report = arch.verify_integrity()
    assert not report.corrupt


def test_racing_stores_tile_their_segment(arch):
    bodies = [_descriptor_variant(i) for i in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=32) as pool:
            stored = list(pool.map(lambda b: store_doc(arch, b), bodies))
    finally:
        sys.setswitchinterval(interval)
    by_offset = sorted(stored, key=lambda e: e.offset)
    ends = [0] + [e.offset + e.size_bytes for e in by_offset]
    assert [e.offset for e in by_offset] == ends[:-1]
    assert segment_of(arch, stored[0]).stat().st_size == ends[-1]
    assert [arch.load_entry(e).body for e in stored] == bodies


def test_second_writer_on_one_root_waits_for_the_first_append(tmp_path, clock, monkeypatch):
    # each archive has its own descriptor on the root, so the two lock one
    # another out exactly as two processes would
    first, second = (Archive(tmp_path / "data", clock) for _ in range(2))
    bodies = [_descriptor_variant(i) for i in range(2)]
    inside, resume = threading.Event(), threading.Event()
    append = archive_module._append

    def paused(fd, data, start):
        if not inside.is_set():  # the first store's segment append
            inside.set()
            resume.wait(10)
        append(fd, data, start)

    monkeypatch.setattr(archive_module, "_append", paused)
    with ThreadPoolExecutor(max_workers=2) as pool:
        before = pool.submit(store_doc, first, bodies[0])
        assert inside.wait(10)
        after = pool.submit(store_doc, second, bodies[1])
        with pytest.raises(TimeoutError):
            after.result(timeout=0.3)  # it must not take the same end
        resume.set()
        stored = [before.result(timeout=10), after.result(timeout=10)]
    monkeypatch.undo()
    assert stored[1].offset == stored[0].offset + stored[0].size_bytes
    assert [first.load_entry(stored[0]).body, second.load_entry(stored[1]).body] == bodies
    final = Archive(tmp_path / "data", clock)
    assert sorted(final.load_entry(e).body for e in final.entries()) == bodies
    assert final.verify_integrity().corrupt == []


def test_open_waits_for_a_store_between_segment_and_manifest(tmp_path, clock, monkeypatch):
    arch = Archive(tmp_path / "data", clock)
    first = store_doc(arch, _descriptor_variant(0))
    inside, resume = threading.Event(), threading.Event()
    append_manifest = Archive._append_manifest

    def paused(self, entry):
        inside.set()
        resume.wait(10)
        append_manifest(self, entry)

    monkeypatch.setattr(Archive, "_append_manifest", paused)
    storing = ThreadPoolExecutor(max_workers=1).submit(store_doc, arch, _descriptor_variant(1))
    assert inside.wait(10)
    opening = ThreadPoolExecutor(max_workers=1).submit(Archive, tmp_path / "data", clock)
    with pytest.raises(TimeoutError):
        opening.result(timeout=0.3)  # it must not cut the bytes on their way in
    resume.set()
    second = storing.result(timeout=10)
    monkeypatch.undo()
    assert second.offset == first.size_bytes
    assert segment_of(arch, second).stat().st_size == second.offset + second.size_bytes
    for archive in (arch, opening.result(timeout=10), Archive(tmp_path / "data", clock)):
        assert sorted(archive.load_entry(e).body for e in archive.entries()) == \
            sorted([_descriptor_variant(0), _descriptor_variant(1)])
    third = store_doc(arch, _descriptor_variant(2))
    assert third.offset == second.offset + second.size_bytes
    assert arch.load_entry(second).body == _descriptor_variant(1)


def test_bounded_file_handles_under_read_burst(tmp_path, clock):
    writer = Archive(tmp_path / "data", clock)
    bodies = [_descriptor_variant(i) for i in range(120)]
    for body in bodies:
        store_doc(writer, body)
    writer.close()
    arch = Archive(tmp_path / "data", clock, max_open_files=8)
    with ThreadPoolExecutor(max_workers=32) as pool:
        loaded = list(pool.map(arch.load_entry, arch.entries()))
    assert sorted(raw.body for raw in loaded) == sorted(bodies)
    peak = arch.metrics.gauge("archive.open_files_peak")
    assert 0 < peak <= 8


# --- failed and interrupted stores ----------------------------------------------


class _WriteFault:
    """Stands in for the archive module's ``os``: from the ``fail_at``-th
    ``write`` on, each write keeps none of its bytes (the first one
    ``keep`` of them) and returns ``then(bytes written)``."""

    def __init__(self, fail_at, keep, then):
        self._fail_at, self._keep, self._then = fail_at, keep, then
        self.writes = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        self.writes += 1
        if self.writes < self._fail_at:
            return os.write(fd, data)
        keep = self._keep if self.writes == self._fail_at else 0.0
        return self._then(os.write(fd, data[:int(len(data) * keep)]))


def _disk_full(written):
    if written:
        return written  # a short count first; the next write fails
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


#: a store appends to its segment (write 1), then to the manifest (2)
@pytest.mark.parametrize("fail_at, keep", [(1, 0.0), (1, 0.5), (2, 0.0), (2, 0.5)],
                         ids=["segment", "segment-short", "manifest", "manifest-short"])
def test_full_disk_stores_nothing(arch, monkeypatch, fail_at, keep):
    first = store_doc(arch, _descriptor_variant(0))
    (manifest,) = (arch.root / "manifest").glob("*.jsonl")
    committed = manifest.read_bytes()
    monkeypatch.setattr(archive_module, "os", _WriteFault(fail_at, keep, _disk_full))
    with pytest.raises(StorageFull):
        store_doc(arch, _descriptor_variant(1))
    monkeypatch.undo()
    assert arch.entries() == [first]
    assert manifest.read_bytes() == committed
    assert segment_of(arch, first).stat().st_size == first.size_bytes
    again = store_doc(arch, _descriptor_variant(1))
    assert (again.segment, again.offset) == (first.segment, first.size_bytes)
    assert arch.load_entry(again).body == _descriptor_variant(1)


#: stores the documents on stdin with a _WriteFault that ends the process
_CRASHING_STORE = """
import os, sys
from dircollect import archive, docparse
from dircollect.clock import ManualClock
from dircollect.docmodel import DocType, parse_ts

WRITE_FAULT
archive.os = _WriteFault(int(sys.argv[3]), float(sys.argv[4]), lambda written: os._exit(3))
clock = ManualClock(parse_ts(sys.argv[2]))
arch = archive.Archive(sys.argv[1], clock)
for body in sys.stdin.buffer.read().split(b"\\0"):
    arch.store(docparse.make_raw(body, "child", clock.now(), DocType.ServerDescriptor))
"""


#: the second document's appends are writes 3 (segment) and 4 (manifest)
@pytest.mark.parametrize("fail_at, keep", [(4, 0.0), (3, 0.5), (4, 0.5)],
                         ids=["before-manifest", "mid-segment", "mid-manifest"])
def test_crashed_store_is_cut_away_on_open(tmp_path, clock, fail_at, keep):
    root = tmp_path / "data"
    bodies = [_descriptor_variant(i) for i in range(3)]
    script = _CRASHING_STORE.replace("WRITE_FAULT", inspect.getsource(_WriteFault))
    src = str(Path(archive_module.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-c", script, str(root), "2018-11-15 19:05:00", str(fail_at), str(keep)],
        input=b"\0".join(bodies[:2]), env={**os.environ, "PYTHONPATH": src},
        capture_output=True, timeout=60)
    assert child.returncode == 3, child.stderr.decode()

    arch = Archive(root, clock)
    (first,) = arch.entries()
    assert arch.load_entry(first).body == bodies[0]
    assert segment_of(arch, first).stat().st_size == first.size_bytes
    assert arch.verify_integrity().corrupt == []
    again = store_doc(arch, bodies[1])
    assert (again.segment, again.offset) == (first.segment, first.size_bytes)
    assert arch.load_entry(again).body == bodies[1]
    after = store_doc(arch, bodies[2])
    assert arch.load_entry(after).body == bodies[2]

    final = Archive(root, clock)
    assert sorted(final.load_entry(e).body for e in final.entries()) == sorted(bodies)
    assert final.verify_integrity().corrupt == []


# --- older archives ---------------------------------------------------------------


def test_per_file_archive_is_refused_and_migrates_by_import(tmp_path, clock):
    old = tmp_path / "old"
    bodies = {docs.SERVER_DESCRIPTOR: DocType.ServerDescriptor,
              docs.CONSENSUS_NS: DocType.ConsensusNs}
    paths = set()
    for body, doctype in bodies.items():
        raw = raw_of(body, doctype)
        ident = docparse.identify(raw, docparse.parse(raw))
        rel = entry_path(doctype, ident.subject, ident.datetime, raw.digests)
        target = old / "archive" / rel
        target.parent.mkdir(parents=True)
        target.write_bytes(docparse.annotate(raw))
        paths.add(rel)
        line = {"path": rel, "type": doctype.dirname, "size": len(docparse.annotate(raw)),
                "stored_at": "2018-11-15 19:05:00", "datetime": "2018-11-15 19:00:00"}
        (old / "manifest").mkdir(exist_ok=True)
        with open(old / "manifest" / "2018-11.jsonl", "a") as fh:
            fh.write(json.dumps(line) + "\n")
    before = {p: p.read_bytes() for p in old.rglob("*") if p.is_file()}

    with pytest.raises(ArchiveError, match="import"):
        Archive(old, clock)
    assert {p: p.read_bytes() for p in old.rglob("*") if p.is_file()} == before

    fresh = Archive(tmp_path / "fresh", clock)
    assert fresh.import_path(old / "archive").total == 2
    assert {e.path for e in fresh.entries()} == paths
    assert fresh.verify_integrity().corrupt == []
