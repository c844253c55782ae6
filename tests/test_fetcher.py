"""Fetcher tests, run against the simulated authority network."""

import base64
import gzip
import socket
import threading
import time
import tracemalloc
import zlib
from datetime import date, datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dircollect.clock import ManualClock
from dircollect.docmodel import DigestSet, DocType, DocumentIdentifier
from dircollect.errors import (
    FetchError,
    FetchTimeout,
    HttpError,
    PermanentMiss,
    TooLarge,
    TransientError,
)
from dircollect import fetcher as fetcher_module
from dircollect.fetcher import Fetcher, Role, ServerEndpoint
from dircollect.metrics import Metrics
from dircollect.simnet import SimNetwork, SimScenario


def ts(hour, minute=0, second=0):
    return datetime(2018, 11, 15, hour, minute, second, tzinfo=timezone.utc)


@pytest.fixture
def clock():
    return ManualClock(ts(19, 5))


@pytest.fixture
def net(clock):
    network = SimNetwork(
        SimScenario(seed=3, n_authorities=3, n_relays=5, n_periods=3,
                    period_start=ts(19)),
        clock,
    )
    network.start()
    yield network
    network.stop()


@pytest.fixture
def servers(net):
    return [
        ServerEndpoint(identity, addr, frozenset({Role.Authority}))
        for identity, addr in net.endpoints()
    ]


@pytest.fixture
def fetcher(clock):
    return Fetcher(clock, metrics=Metrics(), timeout=5.0)


def sd_ident(sha1_hex):
    return DocumentIdentifier(
        DocType.ServerDescriptor, "", None,
        DigestSet.build(sha1=bytes.fromhex(sha1_hex)),
    )


def micro_ident(b64):
    raw = base64.b64decode(b64 + "=" * (-len(b64) % 4))
    return DocumentIdentifier(
        DocType.Microdescriptor, "", None, DigestSet.build(sha256=raw)
    )


def test_role_expansion():
    auth = ServerEndpoint("a", "127.0.0.1:1", frozenset({Role.Authority}))
    assert auth.roles == frozenset(
        {Role.Authority, Role.ExtraInfoCache, Role.DirectoryCache}
    )
    ei = ServerEndpoint("b", "127.0.0.1:1", frozenset({Role.ExtraInfoCache}))
    assert ei.roles == frozenset({Role.ExtraInfoCache, Role.DirectoryCache})
    assert not ei.is_authority
    cache = ServerEndpoint("c", "127.0.0.1:1")
    assert cache.roles == frozenset({Role.DirectoryCache})
    assert not cache.serves_extra_info()


class TestSingleDocuments:
    def test_current_consensus_both_flavors(self, net, servers, fetcher):
        raw = fetcher.fetch(servers[0], DocType.ConsensusNs)
        assert raw.body == net.periods[0].consensus_ns
        assert raw.doctype is DocType.ConsensusNs
        assert raw.source == servers[0].server_id

        md = fetcher.fetch(servers[1], DocType.ConsensusMicrodesc)
        assert md.body == net.periods[0].consensus_md
        assert md.doctype is DocType.ConsensusMicrodesc

    def test_vote_and_signature_and_bandwidth(self, net, servers, fetcher, clock):
        with pytest.raises(HttpError) as err:
            fetcher.fetch(servers[0], DocType.Vote)
        assert err.value.status == 404

        clock.set(ts(19, 50))
        vote = fetcher.fetch(servers[0], DocType.Vote)
        assert vote.body == net.periods[1].votes[servers[0].server_id]
        assert vote.doctype is DocType.Vote
        bw = fetcher.fetch(servers[2], DocType.BandwidthList)
        assert bw.doctype is DocType.BandwidthList

        clock.set(ts(19, 55))
        sig = fetcher.fetch(servers[1], DocType.DetachedSignature)
        assert sig.body == net.periods[1].sigs[servers[1].server_id]
        assert sig.doctype is DocType.DetachedSignature


class TestBatches:
    def test_full_batch_round_trip(self, net, servers, fetcher):
        period = net.periods[0]
        idents = [sd_ident(d) for d in period.server_descriptors]
        docs, unfetched = fetcher.fetch_batch(
            DocType.ServerDescriptor, idents, servers
        )
        assert unfetched == []
        assert {d.digests.sha1_hex for d in docs} == set(period.server_descriptors)
        assert all(d.doctype is DocType.ServerDescriptor for d in docs)

    def test_microdescriptors_use_dash_joined_base64(self, net, servers, fetcher):
        period = net.periods[0]
        idents = [micro_ident(b) for b in period.micros]
        docs, unfetched = fetcher.fetch_batch(
            DocType.Microdescriptor, idents, servers
        )
        assert unfetched == []
        assert {d.digests.sha256_base64 for d in docs} == set(period.micros)
        paths = [r.path for r in net.requests() if r.path.startswith("/tor/micro/d/")]
        assert len(paths) == 1 and "-" in paths[0]

    def test_chunking_respects_max_batch(self, net, servers, clock, monkeypatch):
        monkeypatch.setattr(fetcher_module, "MAX_BATCH", 2)
        small = Fetcher(clock, timeout=5.0)
        period = net.periods[0]
        idents = [sd_ident(d) for d in period.server_descriptors]  # 5 of them
        docs, unfetched = small.fetch_batch(
            DocType.ServerDescriptor, idents, servers[:1]
        )
        assert unfetched == [] and len(docs) == 5
        paths = [r.path for r in net.requests() if r.path.startswith("/tor/server/d/")]
        assert len(paths) == 3
        assert all(len(p.split("/")[-1].split("+")) <= 2 for p in paths)

    def test_failed_server_hands_over_to_next(self, clock):
        net = SimNetwork(
            SimScenario(seed=3, n_authorities=3, n_relays=5, n_periods=3,
                        period_start=ts(19), down=frozenset({0})),
            clock,
        )
        net.start()
        try:
            servers = [
                ServerEndpoint(identity, addr, frozenset({Role.Authority}))
                for identity, addr in net.endpoints()
            ]
            fetcher = Fetcher(clock, timeout=5.0)
            idents = [sd_ident(d) for d in net.periods[0].server_descriptors]
            docs, unfetched = fetcher.fetch_batch(
                DocType.ServerDescriptor, idents, servers
            )
            assert unfetched == [] and len(docs) == 5
            by_server = {r.server_id: r.status for r in net.requests()}
            assert by_server[servers[0].server_id] == 0       # dropped
            assert by_server[servers[1].server_id] == 200
        finally:
            net.stop()

    def test_gate_filters_per_server(self, net, servers, fetcher):
        period = net.periods[0]
        idents = [sd_ident(d) for d in period.server_descriptors]
        denied = servers[0].server_id
        calls = []

        def gate(ident, server_id):
            calls.append((ident.digests.sha1_hex, server_id))
            return server_id != denied

        docs, unfetched = fetcher.fetch_batch(
            DocType.ServerDescriptor, idents, servers, gate=gate
        )
        assert unfetched == [] and len(docs) == 5
        assert not any(r.server_id == denied and r.path.startswith("/tor/server/d/")
                       for r in net.requests())
        # every ident was offered to the denied server exactly once
        assert sum(1 for _, s in calls if s == denied) == 5

    def test_extra_info_needs_caching_role(self, net, servers, fetcher):
        period = net.periods[0]
        plain_cache = ServerEndpoint(
            servers[0].server_id, servers[0].address,
            frozenset({Role.DirectoryCache}),
        )
        idents = [sd_ident(d) for d in period.extra_infos]
        idents = [
            DocumentIdentifier(DocType.ExtraInfoDescriptor, "", None, i.digests)
            for i in idents
        ]
        docs, unfetched = fetcher.fetch_batch(
            DocType.ExtraInfoDescriptor, idents, [plain_cache, servers[1]]
        )
        assert unfetched == [] and len(docs) == 5
        extra_requests = [r for r in net.requests()
                          if r.path.startswith("/tor/extra/d/")]
        assert {r.server_id for r in extra_requests} == {servers[1].server_id}

    def test_ident_without_digest_is_unfetchable(self, servers, fetcher):
        bare = DocumentIdentifier(DocType.ServerDescriptor, "nick", None)
        docs, unfetched = fetcher.fetch_batch(
            DocType.ServerDescriptor, [bare], servers
        )
        assert docs == [] and unfetched == [bare]

    def test_mismatched_body_quarantined(self, net, servers, fetcher, monkeypatch):
        period = net.periods[0]
        bodies = list(period.server_descriptors.values())
        wanted, served = bodies[0], bodies[1]
        monkeypatch.setattr(fetcher, "get", lambda server, path: served)
        ident = sd_ident(
            next(d for d, b in period.server_descriptors.items() if b is wanted)
        )
        docs, unfetched = fetcher.fetch_batch(
            DocType.ServerDescriptor, [ident], servers[:1]
        )
        assert unfetched == [ident]
        assert len(docs) == 1 and docs[0].doctype is None
        assert fetcher.metrics.counter("fetcher.digest_mismatches") == 1


class TestBulkDiscovery:
    def test_all_endpoints_split_into_documents(self, net, servers, fetcher):
        docs = fetcher.fetch_all_descriptors(servers[0], DocType.ServerDescriptor)
        assert {d.digests.sha1_hex for d in docs} \
            == set(net.periods[0].server_descriptors)
        extras = fetcher.fetch_all_descriptors(servers[1], DocType.ExtraInfoDescriptor)
        assert {d.digests.sha1_hex for d in extras} == set(net.periods[0].extra_infos)

    def test_failure_yields_empty_without_retry(self, clock):
        net = SimNetwork(
            SimScenario(seed=3, n_authorities=1, n_relays=2, n_periods=2,
                        period_start=ts(19), down=frozenset({0})),
            clock,
        )
        net.start()
        try:
            server = ServerEndpoint(*net.endpoints()[0], frozenset({Role.Authority}))
            fetcher = Fetcher(clock, timeout=5.0)
            assert fetcher.fetch_all_descriptors(server, DocType.ServerDescriptor) == []
            assert len(net.requests()) == 1
        finally:
            net.stop()


class TestTransportEdges:
    def test_http_error_carries_status(self, net, servers, fetcher):
        with pytest.raises(HttpError) as err:
            fetcher.get(servers[0], "/tor/status-vote/current/nonsense")
        assert err.value.status == 404
        assert err.value.server_id == servers[0].server_id

    def test_connection_refused_is_fetch_error(self, clock):
        fetcher = Fetcher(clock, timeout=2.0)
        dead = ServerEndpoint("dead", "127.0.0.1:1")
        with pytest.raises(FetchError) as err:
            fetcher.get(dead, "/tor/server/all")
        assert not isinstance(err.value, (FetchTimeout, HttpError))

    def test_read_timeout_classified(self, clock):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        conns = []

        def accept():
            try:
                conn, _ = listener.accept()
                conns.append(conn)
                time.sleep(3)
            except OSError:
                pass

        thread = threading.Thread(target=accept, daemon=True)
        thread.start()
        try:
            fetcher = Fetcher(clock, timeout=0.3)
            with pytest.raises(FetchTimeout):
                fetcher.get(ServerEndpoint("slow", f"127.0.0.1:{port}"), "/x")
        finally:
            listener.close()
            for conn in conns:
                conn.close()

    def test_size_cap_enforced(self, net, servers, clock, monkeypatch):
        monkeypatch.setattr(fetcher_module, "MAX_BODY", 64)
        tiny = Fetcher(clock, timeout=5.0)
        with pytest.raises(TooLarge):
            tiny.get(servers[0], "/tor/status-vote/current/consensus")

    def test_malformed_content_length_is_fetch_error(self, net, servers, clock):
        broken = ThreadingHTTPServer(("127.0.0.1", 0), _BadLengthHandler)
        threading.Thread(target=broken.serve_forever, daemon=True).start()
        try:
            metrics = Metrics()
            fetcher = Fetcher(clock, metrics=metrics, timeout=5.0)
            bad = ServerEndpoint("broken", f"127.0.0.1:{broken.server_address[1]}",
                                 frozenset({Role.Authority}))
            with pytest.raises(FetchError):
                fetcher.get(bad, "/tor/server/all")
            assert metrics.counter("fetcher.errors") == 1
            # one broken server must not stop the rest of the list
            idents = [sd_ident(d) for d in net.periods[0].server_descriptors]
            docs, unfetched = fetcher.fetch_batch(
                DocType.ServerDescriptor, idents, [bad, servers[0]])
            assert unfetched == [] and len(docs) == len(idents)
            assert metrics.counter("fetcher.errors") == 2
        finally:
            broken.shutdown()
            broken.server_close()

    def test_gzip_bodies_digested_after_decompression(self, net, servers, fetcher):
        # the simnet gzips when asked; round-tripping a consensus through
        # get() must produce the original bytes, not the compressed ones
        body = fetcher.get(servers[0], "/tor/status-vote/current/consensus")
        assert body == net.periods[0].consensus_ns


class _BadLengthHandler(BaseHTTPRequestHandler):
    """Answers every GET with a Content-Length that is no number."""

    def do_GET(self):
        self.send_response(200)
        self.send_header("Content-Length", "abc")
        self.end_headers()
        self.wfile.write(b"whatever\n")

    def log_message(self, format, *args):
        pass


class _MeasurementHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        files = self.server.files
        if self.path in files:
            body, encoding = files[self.path], None
            if isinstance(body, tuple):
                body, encoding = body
            self.send_response(200)
            if encoding:
                self.send_header("Content-Encoding", encoding)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/hold":
            self.server.held.set()
            self.server.release.wait(10)
            self.send_response(200)
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path.startswith("/boom-"):
            self.send_response(503)
            self.send_header("Content-Length", "0")
            self.end_headers()
        else:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()

    def log_message(self, format, *args):
        pass


TPF = (b"BUILDTIMES=0.3 DATACOMPLETE=1542305002.91 FILESIZE=51200 "
       b"SOURCE=op-x START=1542305000.00\n")


@pytest.fixture
def file_server():
    """A plain HTTP server; tests fill ``files`` with path -> body or
    path -> (body, Content-Encoding). A GET of /hold is answered only
    once ``release`` is set."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _MeasurementHandler)
    server.files = {}
    server.held = threading.Event()  # a GET of /hold has arrived
    server.release = threading.Event()  # ... and may now be answered
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()


def _zeros_bomb(size: int) -> bytes:
    """gzip of ``size`` zero bytes, built without holding them in memory."""
    packer = zlib.compressobj(9, zlib.DEFLATED, zlib.MAX_WBITS | 16)
    chunk = bytes(1 << 20)
    return b"".join(packer.compress(chunk) for _ in range(size >> 20)) + packer.flush()


class TestCompressedBodies:
    @pytest.fixture
    def endpoint(self, file_server):
        return ServerEndpoint("files", f"127.0.0.1:{file_server.server_address[1]}")

    def test_deflate_and_gzip_both_decoded(self, file_server, endpoint, fetcher):
        file_server.files["/gz"] = (gzip.compress(TPF), "gzip")
        file_server.files["/zz"] = (zlib.compress(TPF), "deflate")
        assert fetcher.get(endpoint, "/gz") == TPF
        assert fetcher.get(endpoint, "/zz") == TPF

    def test_corrupt_gzip_body_is_fetch_error(self, file_server, endpoint, fetcher):
        good = gzip.compress(TPF)
        file_server.files["/corrupt"] = (good[:10] + b"\xff" * 40, "gzip")
        file_server.files["/truncated"] = (good[: len(good) // 2], "gzip")
        for path in ("/corrupt", "/truncated"):
            with pytest.raises(FetchError):
                fetcher.get(endpoint, path)
        base = f"http://{endpoint.address}"
        file_server.files["/op-x-51200-2018-11-14.tpf"] = (good[:10] + b"\xff" * 40, "gzip")
        with pytest.raises(FetchError):
            fetcher.fetch_onionperf(base, "op-x", 51200, date(2018, 11, 14))

    def test_gzip_bomb_refused_before_inflating(self, file_server, endpoint, clock,
                                                monkeypatch):
        inflated = 64 << 20
        file_server.files["/bomb"] = (_zeros_bomb(inflated), "gzip")
        monkeypatch.setattr(fetcher_module, "MAX_BODY", 1 << 20)
        small = Fetcher(clock, timeout=5.0)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                small.get(endpoint, "/bomb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < inflated // 8


class TestOnionperf:
    @pytest.fixture
    def host(self, file_server):
        file_server.files["/op-x-51200-2018-11-14.tpf"] = TPF
        return f"http://127.0.0.1:{file_server.server_address[1]}"

    def test_fetches_and_types_results(self, host, fetcher):
        raw = fetcher.fetch_onionperf(host, "op-x", 51200, date(2018, 11, 14))
        assert raw.doctype is DocType.TorperfResults
        assert b"SOURCE=op-x" in raw.body

    def test_missing_day_is_permanent(self, host, fetcher):
        with pytest.raises(PermanentMiss):
            fetcher.fetch_onionperf(host, "op-x", 51200, date(2018, 11, 13))

    def test_server_trouble_is_transient(self, host, fetcher, clock):
        with pytest.raises(TransientError):
            fetcher.fetch_onionperf(host, "boom", 51200, date(2018, 11, 14))
        refused = Fetcher(clock, timeout=1.0)
        with pytest.raises(TransientError):
            refused.fetch_onionperf(
                "http://127.0.0.1:1", "op-x", 51200, date(2018, 11, 14)
            )

    def test_deflate_results_decoded(self, host, file_server, fetcher):
        file_server.files["/op-x-51200-2018-11-13.tpf"] = (zlib.compress(TPF), "deflate")
        raw = fetcher.fetch_onionperf(host, "op-x", 51200, date(2018, 11, 13))
        assert raw.body == TPF

    def test_waits_for_the_global_limit(self, host, file_server, clock, monkeypatch):
        monkeypatch.setattr(fetcher_module, "GLOBAL_INFLIGHT", 1)
        single = Fetcher(clock, timeout=5.0)
        endpoint = ServerEndpoint("files", host.removeprefix("http://"))
        holder = threading.Thread(target=single.get, args=(endpoint, "/hold"))
        holder.start()
        fetched = threading.Event()

        def fetch():
            single.fetch_onionperf(host, "op-x", 51200, date(2018, 11, 14))
            fetched.set()

        try:
            assert file_server.held.wait(5)
            threading.Thread(target=fetch, daemon=True).start()
            assert not fetched.wait(0.5)
        finally:
            file_server.release.set()
            holder.join(5)
        assert fetched.wait(5)
