import json
import threading
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import pytest

import oracle_digests as oracle
import sample_docs as docs
from dircollect import docparse
from dircollect.archive import Archive, entry_path, index_json_bytes
from dircollect.clock import ManualClock
from dircollect.dirserver import DirServer
from dircollect.docmodel import DocType, DocumentIdentifier, parse_ts
from dircollect.errors import CorruptEntry

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
    assert len(files) == 1


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
    entry = store_doc(arch, docs.SERVER_DESCRIPTOR)
    data = (arch.root / "archive" / entry.path).read_bytes()
    assert data == b"@type server-descriptor 1.0\n" + docs.SERVER_DESCRIPTOR
    assert entry.size_bytes == len(data)


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
    entry = store_doc(arch, docs.EXTRA_INFO)
    target = arch.root / "archive" / entry.path
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
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
