"""Tests for re-serving archived documents."""

import gzip
import http.client
import json
import logging
import socket
import struct
import time
import urllib.error
import urllib.request
from datetime import datetime, timedelta, timezone

import pytest

import sample_docs
from dircollect import archive as archive_module
from dircollect import dirserver, docparse
from dircollect.archive import Archive, index_json_bytes
from dircollect.clock import ManualClock
from dircollect.dirserver import BULK_WINDOW, DirServer
from dircollect.docmodel import DocType, DocumentIdentifier, b64_to_hex, fmt_ts
from dircollect.fetcher import (
    BATCH_URLS,
    BULK_URLS,
    MAX_BATCH,
    Fetcher,
    Role,
    ServerEndpoint,
)
from dircollect.simnet import SimNetwork, SimScenario


def ts(hour, minute=0, second=0, day=15):
    return datetime(2018, 11, day, hour, minute, second, tzinfo=timezone.utc)


@pytest.fixture
def clock():
    return ManualClock(ts(19, 30))


@pytest.fixture
def archive(tmp_path, clock):
    return Archive(tmp_path / "data", clock)


@pytest.fixture
def server(archive, clock):
    srv = DirServer(archive, clock, listen="127.0.0.1:0",
                    status_provider=lambda: {"phase": "alpha", "jobs": 3})
    srv.start()
    yield srv
    srv.stop()


def stored(archive, clock, *bodies):
    entries = []
    for body in bodies:
        entries.append(archive.store(docparse.make_raw(body, "test", clock.now())))
    return entries


def get(server, path, gzip_ok=False):
    req = urllib.request.Request(f"http://{server.address}{path}")
    if gzip_ok:
        req.add_header("Accept-Encoding", "gzip")
    return urllib.request.urlopen(req, timeout=5)


def get_body(server, path):
    with get(server, path) as resp:
        return resp.read()


def get_code(server, path):
    try:
        with get(server, path) as resp:
            return resp.status
    except urllib.error.HTTPError as err:
        return err.code


class TestCurrentConsensus:
    def test_serves_latest_flavor(self, server, archive, clock):
        stored(archive, clock, sample_docs.CONSENSUS_NS, sample_docs.CONSENSUS_MD)
        assert get_body(server, "/tor/status-vote/current/consensus") \
            == sample_docs.CONSENSUS_NS
        assert get_body(server, "/tor/status-vote/current/consensus-microdesc") \
            == sample_docs.CONSENSUS_MD

    def test_newest_wins(self, server, archive, clock):
        net = SimNetwork(
            SimScenario(seed=5, n_authorities=1, n_relays=1, n_periods=2,
                        period_start=ts(19)),
            clock,
        )
        stored(archive, clock, sample_docs.CONSENSUS_NS)  # valid-after 19:00
        stored(archive, clock, net.periods[1].consensus_ns)  # valid-after 20:00
        clock.set(ts(20, 30))
        assert get_body(server, "/tor/status-vote/current/consensus") \
            == net.periods[1].consensus_ns

        # published but not yet started periods stay invisible
        srv2_archive_state = get_code(server, "/tor/status-vote/current/consensus")
        assert srv2_archive_state == 200

    def test_nothing_stored_404(self, server):
        assert get_code(server, "/tor/status-vote/current/consensus") == 404

    def test_each_consensus_is_parsed_once(self, server, archive, clock, monkeypatch):
        stored(archive, clock, sample_docs.CONSENSUS_NS)
        parsed = []
        parse = docparse.parse
        monkeypatch.setattr(docparse, "parse", lambda raw: parsed.append(raw) or parse(raw))
        for _ in range(3):
            assert get_body(server, "/tor/status-vote/current/consensus") \
                == sample_docs.CONSENSUS_NS
        assert len(parsed) == 1

    def test_expired_404(self, server, archive, clock):
        stored(archive, clock, sample_docs.CONSENSUS_NS)  # valid until 22:00
        clock.set(ts(22, 0))
        assert get_code(server, "/tor/status-vote/current/consensus") == 404


class TestDigestBatches:
    def test_served_by_digest_without_annotation(self, server, archive, clock):
        stored(archive, clock, sample_docs.SERVER_DESCRIPTOR, sample_docs.EXTRA_INFO)
        body = get_body(server, f"/tor/server/d/{sample_docs.SERVER_DESCRIPTOR_SHA1}")
        assert body == sample_docs.SERVER_DESCRIPTOR
        assert not body.startswith(b"@type")
        assert get_body(server, f"/tor/extra/d/{sample_docs.EXTRA_INFO_SHA1}") \
            == sample_docs.EXTRA_INFO

    def test_batch_is_concatenated_and_partial(self, server, archive, clock):
        stored(archive, clock, sample_docs.SERVER_DESCRIPTOR)
        d = sample_docs.SERVER_DESCRIPTOR_SHA1
        body = get_body(server, f"/tor/server/d/{d}+{'0' * 40}")
        assert body == sample_docs.SERVER_DESCRIPTOR
        assert get_code(server, "/tor/server/d/" + "0" * 40) == 404

    def test_wrong_type_not_served_from_other_route(self, server, archive, clock):
        stored(archive, clock, sample_docs.SERVER_DESCRIPTOR)
        assert get_code(
            server, f"/tor/extra/d/{sample_docs.SERVER_DESCRIPTOR_SHA1}"
        ) == 404

    def test_micro_batch_by_base64(self, server, archive, clock):
        stored(archive, clock, sample_docs.MICRODESCRIPTOR)
        b64 = sample_docs.MICRODESCRIPTOR_SHA256_B64
        assert get_body(server, f"/tor/micro/d/{b64}") \
            == sample_docs.MICRODESCRIPTOR

    def test_malformed_tokens_are_400(self, server, archive, clock):
        stored(archive, clock, sample_docs.SERVER_DESCRIPTOR)
        assert get_code(server, "/tor/server/d/nothex") == 400
        assert get_code(server, "/tor/server/d/") == 400
        assert get_code(server, "/tor/micro/d/short") == 400


class TestBulk:
    def test_recently_stored_only(self, server, archive, clock):
        stored(archive, clock, sample_docs.SERVER_DESCRIPTOR)
        body = get_body(server, "/tor/server/all")
        assert body == sample_docs.SERVER_DESCRIPTOR

        clock.set(clock.now() + timedelta(hours=25))
        assert get_code(server, "/tor/server/all") == 404

    def test_extra_all(self, server, archive, clock):
        stored(archive, clock, sample_docs.EXTRA_INFO)
        assert get_body(server, "/tor/extra/all") == sample_docs.EXTRA_INFO


class TestMeta:
    def test_index_json_matches_archive(self, server, archive, clock):
        stored(archive, clock, sample_docs.VOTE, sample_docs.SERVER_DESCRIPTOR)
        body = get_body(server, "/index.json")
        assert body == index_json_bytes(archive.build_index())
        parsed = json.loads(body)
        assert len(parsed["entries"]) == 2

    def test_index_json_is_a_pure_read(self, server, archive, clock):
        stored(archive, clock, sample_docs.VOTE)
        assert json.loads(get_body(server, "/index.json"))["entries"]
        assert not (archive.root / "index.json").exists()
        assert not list(archive.root.glob(".tmp-*"))

    def test_status_endpoint(self, server):
        status = json.loads(get_body(server, "/status"))
        assert status == {"phase": "alpha", "jobs": 3}

    def test_gzip(self, server, archive, clock):
        stored(archive, clock, sample_docs.CONSENSUS_NS)
        with get(server, "/tor/status-vote/current/consensus", gzip_ok=True) as resp:
            assert resp.headers.get("Content-Encoding") == "gzip"
            assert gzip.decompress(resp.read()) == sample_docs.CONSENSUS_NS

    def test_keep_alive_responses_do_not_wait_for_acks(self, server):
        # headers and body are two writes; with Nagle on, each response
        # stalls ~40 ms on the client's delayed ACK
        host, _, port = server.address.rpartition(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            started = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/status")
                resp = conn.getresponse()
                assert resp.status == 200 and resp.read()
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.4

    def test_unknown_path_404(self, server):
        assert get_code(server, "/nothing/here") == 404

    def test_round_trip_is_byte_identical(self, server, archive, clock):
        """What was stored off the wire is what gets served back."""
        for body in (sample_docs.CONSENSUS_NS, sample_docs.SERVER_DESCRIPTOR,
                     sample_docs.MICRODESCRIPTOR):
            stored(archive, clock, body)
        assert get_body(server, "/tor/status-vote/current/consensus") \
            == sample_docs.CONSENSUS_NS
        assert get_body(server, f"/tor/server/d/{sample_docs.SERVER_DESCRIPTOR_SHA1}") \
            == sample_docs.SERVER_DESCRIPTOR
        assert get_body(
            server, f"/tor/micro/d/{sample_docs.MICRODESCRIPTOR_SHA256_B64}"
        ) == sample_docs.MICRODESCRIPTOR


def test_a_fetcher_collects_through_every_route(server, archive, clock):
    """A dircollect collecting from a dircollect: each route the fetcher
    asks for serves back the stored bytes."""
    batches = {DocType.ServerDescriptor: sample_docs.SERVER_DESCRIPTOR,
               DocType.ExtraInfoDescriptor: sample_docs.EXTRA_INFO,
               DocType.Microdescriptor: sample_docs.MICRODESCRIPTOR}
    assert set(batches) == set(BATCH_URLS) and set(BULK_URLS) <= set(batches)
    flavors = {DocType.ConsensusNs: sample_docs.CONSENSUS_NS,
               DocType.ConsensusMicrodesc: sample_docs.CONSENSUS_MD}
    entries = stored(archive, clock, *flavors.values(), *batches.values())
    upstream = ServerEndpoint("upstream", server.address, frozenset({Role.Authority}))
    fetcher = Fetcher(clock, timeout=5.0)

    for flavor, body in flavors.items():
        assert fetcher.fetch(upstream, flavor).body == body
    for entry in entries[len(flavors):]:
        ident = DocumentIdentifier(entry.doctype, "", None, entry.digests)
        docs, unfetched = fetcher.fetch_batch(entry.doctype, [ident], [upstream])
        assert ([d.body for d in docs], unfetched) == ([batches[entry.doctype]], [])
    for doctype in BULK_URLS:
        assert [d.body for d in fetcher.fetch_all_descriptors(upstream, doctype)] \
            == [batches[doctype]]


def test_batches_are_capped_at_max_batch(server, archive, clock):
    stored(archive, clock, sample_docs.SERVER_DESCRIPTOR)
    fillers = [f"{n:040x}" for n in range(MAX_BATCH)]
    tokens = [sample_docs.SERVER_DESCRIPTOR_SHA1] + fillers
    assert get_code(server, "/tor/server/d/" + "+".join(tokens[:MAX_BATCH])) == 200
    assert get_code(server, "/tor/server/d/" + "+".join(tokens[:MAX_BATCH + 1])) == 400


@pytest.mark.parametrize("accept, gzipped", [
    ("gzip", True),
    ("gzip, deflate", True),
    ("deflate, GZIP; q=0.5", True),
    ("gzip;q=0", False),
    ("gzip; q=0.000, deflate", False),
    ("deflate", False),
])
def test_gzip_only_when_accepted(server, archive, clock, accept, gzipped):
    stored(archive, clock, sample_docs.SERVER_DESCRIPTOR)
    for path in ("/index.json", f"/tor/server/d/{sample_docs.SERVER_DESCRIPTOR_SHA1}"):
        req = urllib.request.Request(f"http://{server.address}{path}",
                                     headers={"Accept-Encoding": accept})
        with urllib.request.urlopen(req, timeout=5) as resp:
            body = resp.read()
            assert (resp.headers.get("Content-Encoding") == "gzip") is gzipped
        assert (gzip.decompress(body) if gzipped else body) == get_body(server, path)


# --- the verified-body cache and the snapshots ------------------------------------


def descriptors(clock, n):
    """``n`` distinct server descriptors, smallest first."""
    net = SimNetwork(
        SimScenario(seed=5, n_authorities=1, n_relays=n, n_periods=1,
                    period_start=ts(19)),
        clock,
    )
    return sorted(net.periods[0].server_descriptors.values(), key=len)


def counted(monkeypatch):
    """Record each ``Archive.load_entry`` (its entry) and ``build_index`` call."""
    calls = []
    load_entry, build_index = Archive.load_entry, Archive.build_index
    monkeypatch.setattr(Archive, "load_entry",
                        lambda self, entry: calls.append(entry) or load_entry(self, entry))
    monkeypatch.setattr(Archive, "build_index", lambda self, *args: (
        calls.append("build_index") or build_index(self, *args)))
    return calls


def batch_path(entry):
    return f"/tor/server/d/{entry.digests.sha1_hex}"


class TestCaches:
    def test_second_get_reads_and_builds_nothing(self, server, archive, clock, monkeypatch):
        entries = stored(archive, clock, *descriptors(clock, 3))
        calls = counted(monkeypatch)
        paths = ("/index.json", "/tor/server/all", batch_path(entries[0]))
        first = [get_body(server, path) for path in paths]
        assert "build_index" in calls and len(calls) == 1 + len(entries)
        calls.clear()
        assert [get_body(server, path) for path in paths] == first
        for path, body in zip(paths, first):
            with get(server, path, gzip_ok=True) as resp:
                assert gzip.decompress(resp.read()) == body
        assert calls == []

    def test_store_between_gets_is_served(self, server, archive, clock):
        first, second = descriptors(clock, 2)
        stored(archive, clock, first)
        assert get_body(server, "/tor/server/all") == first
        get_body(server, "/index.json")
        clock.set(clock.now() + timedelta(minutes=5))
        stored(archive, clock, second)
        assert get_body(server, "/index.json") == index_json_bytes(archive.build_index())
        assert get_body(server, "/tor/server/all") == first + second

    def test_window_slides_without_a_store(self, server, archive, clock):
        first, second = descriptors(clock, 2)
        stored(archive, clock, first)
        clock.set(clock.now() + timedelta(hours=2))
        stored(archive, clock, second)
        assert get_body(server, "/tor/server/all") == first + second
        clock.set(clock.now() + BULK_WINDOW - timedelta(hours=1))
        assert get_body(server, "/tor/server/all") == second

    def test_least_recently_served_body_is_evicted(
            self, server, archive, clock, monkeypatch):
        bodies = descriptors(clock, 3)
        entries = stored(archive, clock, *bodies)
        # room for any two of the three, never for all three
        monkeypatch.setattr(dirserver, "BODY_CACHE_BYTES", len(bodies[1]) + len(bodies[2]))
        calls = counted(monkeypatch)
        for i in (0, 1, 2, 1, 0, 1):
            assert get_body(server, batch_path(entries[i])) == bodies[i]
            assert server._body_bytes == sum(map(len, server._bodies.values()))
            assert server._body_bytes <= dirserver.BODY_CACHE_BYTES
        # 0 went out for 2; 2, served before 1 was served again, went out for 0
        assert calls == [entries[0], entries[1], entries[2], entries[0]]

    def test_stop_releases_both_caches(self, server, archive, clock):
        entries = stored(archive, clock, sample_docs.CONSENSUS_NS,
                         sample_docs.SERVER_DESCRIPTOR)
        for path in ("/index.json", "/tor/server/all", batch_path(entries[1]),
                     "/tor/status-vote/current/consensus"):
            assert get_code(server, path) == 200
        assert server._bodies and server._snapshots and server._index_records
        server.stop()
        assert not server._bodies and not server._snapshots
        assert not server._index_records
        assert server._body_bytes == 0

    def test_verify_rehashes_a_served_body(self, server, archive, clock):
        (entry,) = stored(archive, clock, sample_docs.SERVER_DESCRIPTOR)
        assert get_body(server, batch_path(entry)) == sample_docs.SERVER_DESCRIPTOR
        with open(archive.root / "archive" / entry.segment, "r+b") as fh:
            fh.seek(fh.read().index(b"uptime 93600", entry.offset))
            fh.write(b"uptime 93601")
        assert archive.verify_integrity().corrupt == [entry.path]

    def test_each_index_record_is_rendered_once(self, server, archive, clock, monkeypatch):
        first, second, third = descriptors(clock, 3)
        rendered = []
        render = archive_module._index_record
        monkeypatch.setattr(archive_module, "_index_record",
                            lambda entry: rendered.append(entry) or render(entry))
        stored(archive, clock, first, second)
        get_body(server, "/index.json")
        assert len(rendered) == 2
        rendered.clear()
        (entry,) = stored(archive, clock, third)
        body = get_body(server, "/index.json")
        assert rendered == [entry]
        server._snapshots.clear()  # an unchanged archive, built again
        assert get_body(server, "/index.json") == body
        assert rendered == [entry]
        assert body == reference_index_json(archive.build_index())


def reference_index_json(index) -> bytes:
    """``/index.json`` as a dict encoded by ``json.dumps(doc, indent=2)``:
    what ``index_json_bytes`` must write, byte for byte."""
    doc = {
        "generated_at": index.generated_at,
        "task_status": {},
        "entries": [
            {
                "path": e.path,
                "type": e.type_name,
                "sha1": e.digests.sha1_hex,
                "sha256": e.digests.sha256_any_hex(),
                "size": e.size_bytes,
                "stored_at": fmt_ts(e.stored_at),
                "datetime": fmt_ts(e.doc_datetime),
            }
            for e in index.entries
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("ascii")


def assert_index_is_reference(server, archive) -> bytes:
    """The built, served and gzip-served index all equal the reference."""
    expected = reference_index_json(archive.build_index())
    assert index_json_bytes(archive.build_index()) == expected
    assert get_body(server, "/index.json") == expected
    with get(server, "/index.json", gzip_ok=True) as resp:
        assert resp.headers["Content-Encoding"] == "gzip"
        assert gzip.decompress(resp.read()) == expected
    return expected


def store_every_type(archive, clock):
    """One document of every type, and an unrecognized blob; the torperf
    subject needs json's escaping."""
    stored(archive, clock, sample_docs.CONSENSUS_NS, sample_docs.CONSENSUS_MD,
           sample_docs.VOTE, sample_docs.SAMPLE_DETACHED_SIGNATURE,
           sample_docs.SERVER_DESCRIPTOR, sample_docs.EXTRA_INFO,
           sample_docs.MICRODESCRIPTOR, sample_docs.BANDWIDTH_LIST,
           b"zzzz total junk\n")
    raw = docparse.make_raw(sample_docs.TORPERF, "test", clock.now(), DocType.TorperfResults)
    archive.store(raw, DocumentIdentifier(DocType.TorperfResults, "op-\u00e9\"x",
                                          clock.now(), raw.digests))


class TestIndexBytes:
    def test_empty_archive(self, server, archive):
        expected = assert_index_is_reference(server, archive)
        assert b'"entries": []' in expected

    def test_every_type_and_an_unrecognized_blob(self, server, archive, clock):
        store_every_type(archive, clock)
        clock.set(clock.now() + timedelta(minutes=5))
        stored(archive, clock, descriptors(clock, 1)[0])  # a later stored_at
        doc = json.loads(assert_index_is_reference(server, archive))
        assert {e["type"] for e in doc["entries"]} == (
            {t.value for t in DocType} | {"unrecognized"})
        assert doc["generated_at"] == fmt_ts(clock.now())

    def test_reopened_archive_and_a_base64_only_digest(self, tmp_path, archive, clock):
        store_every_type(archive, clock)
        before = index_json_bytes(archive.build_index())
        # a manifest line without the hex sha256: the index derives it
        (manifest,) = (archive.root / "manifest").glob("*.jsonl")
        lines = []
        for line in manifest.read_text().splitlines(keepends=True):
            rec = json.loads(line)
            if rec["type"] == "microdescriptor":
                del rec["sha256"]
                line = json.dumps(rec, sort_keys=True) + "\n"
            lines.append(line)
        manifest.write_text("".join(lines))
        reopened = Archive(archive.root, clock)
        (micro,) = reopened.of_type(DocType.Microdescriptor)
        assert micro.digests.sha256_hex is None
        srv = DirServer(reopened, clock)
        srv.start()
        try:
            assert assert_index_is_reference(srv, reopened) == before
        finally:
            srv.stop()
        assert b64_to_hex(micro.digests.sha256_base64).encode() in before


def _hang_up(server, request: bytes) -> None:
    """Send ``request`` and reset the connection without reading."""
    host, port = server.address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=5)
    sock.sendall(request)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def _gone(caplog):
    return [r for r in caplog.records if "event=client_gone" in r.getMessage()]


class TestHandlerErrors:
    def test_clients_that_hang_up_are_logged_not_printed(
            self, server, archive, clock, capfd, caplog):
        caplog.set_level(logging.DEBUG, logger="dircollect.dirserver")
        stored(archive, clock, *descriptors(clock, 40))
        for request in (b"GET /status HTTP/1.1\r\n\r\n", b"GET /sta",
                        b"GET /tor/server/all HTTP/1.1\r\n\r\n") * 2:
            _hang_up(server, request)
        # the half-sent requests are reset while the handler reads them
        deadline = time.monotonic() + 5
        while len(_gone(caplog)) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(0.2)  # let the other handlers finish
        assert get_code(server, "/status") == 200
        assert len(_gone(caplog)) >= 2
        assert all(r.levelno == logging.DEBUG for r in _gone(caplog))
        assert capfd.readouterr().err == ""

    def test_other_handler_errors_keep_their_traceback(
            self, server, capfd, caplog, monkeypatch):
        def broken(value):
            raise RuntimeError("broken header check")

        monkeypatch.setattr(dirserver, "_accepts_gzip", broken)
        with pytest.raises((urllib.error.URLError, http.client.HTTPException, OSError)):
            get_body(server, "/status")
        deadline = time.monotonic() + 5
        while not caplog.records and time.monotonic() < deadline:
            time.sleep(0.02)
        (record,) = [r for r in caplog.records if "event=handler_failed" in r.getMessage()]
        assert record.levelno == logging.ERROR and record.exc_info[0] is RuntimeError
        assert capfd.readouterr().err == ""
