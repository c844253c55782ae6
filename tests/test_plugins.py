"""Plugin host and built-in collector tests against the simulated network."""

import re
import threading
from collections import Counter
from datetime import date, datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

import sample_docs
from dircollect import docparse
from dircollect.archive import Archive
from dircollect.clock import ManualClock
from dircollect.docmodel import DocType, DocumentIdentifier, RawDocument
from dircollect.errors import PluginInitError
from dircollect.fetcher import Fetcher, Role, ServerEndpoint
from dircollect.metrics import Metrics
from dircollect.plugins import (
    OnionPerfConfig,
    OnionPerfPlugin,
    Plugin,
    PluginContext,
    PluginHost,
    RelayDescsPlugin,
    discover,
)
from dircollect.refchecker import ReferenceChecker
from dircollect.scheduler import Phase, Scheduler, phase_token
from dircollect.simnet import SimNetwork, SimScenario


def ts(hour, minute=0, second=0, day=15):
    return datetime(2018, 11, day, hour, minute, second, tzinfo=timezone.utc)


@pytest.fixture
def clock():
    return ManualClock(ts(19, 5))


def build_rig(tmp_path, clock, net):
    archive = Archive(tmp_path / "data", clock)
    metrics = Metrics()
    scheduler = Scheduler(clock, metrics)
    refchecker = ReferenceChecker(
        archive, clock,
        authorities=[identity for identity, _ in net.endpoints()],
        metrics=metrics,
    )
    host = PluginHost(archive, metrics)
    servers = [
        ServerEndpoint(identity, addr, frozenset({Role.Authority}))
        for identity, addr in net.endpoints()
    ]
    context = PluginContext(
        archive=archive,
        fetcher=Fetcher(clock, metrics=metrics, timeout=5.0),
        clock=clock,
        scheduler=scheduler,
        refchecker=refchecker,
        host=host,
        servers=servers,
        metrics=metrics,
    )
    (plugin,) = discover(["relaydescs"], context)
    return SimpleNamespace(
        archive=archive, metrics=metrics, scheduler=scheduler,
        refchecker=refchecker, host=host, context=context, plugin=plugin,
    )


def referenced(body, now):
    """The keys of every document ``body`` references."""
    parsed = docparse.parse(docparse.make_raw(body, "test", now))
    return {ref.key() for ref in docparse.extract_references(parsed)}


def pending_keys(rig):
    return {p.key() for p in rig.refchecker.expectations()}


def archived_digests(archive):
    out = {}
    for entry in archive.entries():
        if entry.doctype is None:
            continue
        out.setdefault(entry.doctype, set()).add(
            entry.digests.primary_for(entry.doctype))
    return out


def assert_census(net, archive, start, end):
    census = net.expected_census(start, end)
    got = archived_digests(archive)
    for doctype in DocType:
        assert got.get(doctype, set()) == census[doctype], doctype


def assert_digest_requests_unique(net, timings):
    """No digest was asked of the same server twice within one phase."""
    seen = Counter()
    routes = {"/tor/server/d/": "+", "/tor/extra/d/": "+", "/tor/micro/d/": "-"}
    for rec in net.requests():
        for prefix, sep in routes.items():
            if rec.path.startswith(prefix):
                for token in rec.path[len(prefix):].split(sep):
                    seen[(rec.server_id, token, phase_token(rec.at, timings))] += 1
    repeats = {k: n for k, n in seen.items() if n > 1}
    assert not repeats


# --- host mechanics, no network ------------------------------------------------


def junk_doc(n, now):
    body = b"junk %d\n" % n
    return RawDocument(None, body, "toy", now, docparse.compute_digests(body, None))


class _ToyPlugin(Plugin):
    name = "toy"

    def __init__(self, clock):
        self.clock = clock
        self.rounds = 0
        self.admitted = []
        self.explode_on_admit = False

    def expectations(self):
        self.rounds += 1
        return [DocumentIdentifier(None, f"round-{self.rounds}", None)]

    def fetch(self, docid):
        return [junk_doc(self.rounds, self.clock.now())]

    def admit(self, entry, parsed):
        if self.explode_on_admit:
            raise RuntimeError("bad admit")
        self.admitted.append(entry.path)


class _GatedPlugin(Plugin):
    """Each cycle's `fetch_many` signals it entered, then holds until
    released; it fetches nothing, so a cycle is one round."""

    name = "gated"

    def __init__(self):
        self.entered = [threading.Event(), threading.Event()]
        self.release = threading.Event()
        self.calls = 0
        self.inside = 0
        self.most_inside = 0
        self._lock = threading.Lock()

    def expectations(self):
        return [DocumentIdentifier(None, "held", None)]

    def fetch_many(self, docids):
        with self._lock:
            self.entered[self.calls].set()
            self.calls += 1
            self.inside += 1
            self.most_inside = max(self.most_inside, self.inside)
        self.release.wait(5)
        with self._lock:
            self.inside -= 1
        return [], docids


class TestPluginHost:
    def test_cycle_stops_at_round_cap(self, tmp_path, clock):
        host = PluginHost(Archive(tmp_path / "data", clock))
        toy = _ToyPlugin(clock)
        stored = host.run_cycle(toy, max_rounds=3)
        assert stored == 3
        assert toy.rounds == 3

    def test_cycle_stops_without_progress(self, tmp_path, clock):
        host = PluginHost(Archive(tmp_path / "data", clock))
        toy = _ToyPlugin(clock)
        toy.fetch = lambda docid: []
        assert host.run_cycle(toy) == 0
        assert toy.rounds == 1

    def test_store_deduplicates_and_admits_once(self, tmp_path, clock):
        host = PluginHost(Archive(tmp_path / "data", clock))
        toy = _ToyPlugin(clock)
        raw = junk_doc(1, clock.now())
        assert host.store(toy, raw) is True
        assert host.store(toy, raw) is False
        assert len(toy.admitted) == 1

    def test_admit_errors_do_not_escape(self, tmp_path, clock):
        host = PluginHost(Archive(tmp_path / "data", clock))
        toy = _ToyPlugin(clock)
        toy.explode_on_admit = True
        assert host.store(toy, junk_doc(2, clock.now())) is True

    def test_cycle_offers_each_identifier_once(self, tmp_path, clock):
        host = PluginHost(Archive(tmp_path / "data", clock))
        toy = _ToyPlugin(clock)
        offered = []
        wanted = [DocumentIdentifier(None, "new", None),
                  DocumentIdentifier(None, "failing", None)]
        toy.expectations = lambda: wanted

        def fetch(docid):
            offered.append(docid.subject)
            return [junk_doc(1, clock.now())] if docid.subject == "new" else []

        toy.fetch = fetch
        # the first round stores one document; the second has nothing
        # left that was not offered already
        assert host.run_cycle(toy) == 1
        assert offered == ["new", "failing"]

    def test_cycles_of_one_plugin_never_overlap(self, tmp_path, clock):
        host = PluginHost(Archive(tmp_path / "data", clock))
        gated = _GatedPlugin()
        first = threading.Thread(target=host.run_cycle, args=(gated,))
        first.start()
        assert gated.entered[0].wait(5)
        second = threading.Thread(target=host.run_cycle, args=(gated,))
        second.start()
        # while the first cycle is inside fetch_many the second stays out
        assert not gated.entered[1].wait(0.5)
        gated.release.set()
        assert gated.entered[1].wait(5)
        first.join(5)
        second.join(5)
        assert gated.most_inside == 1

    def test_cycles_of_two_plugins_overlap(self, tmp_path, clock):
        host = PluginHost(Archive(tmp_path / "data", clock))
        one, other = _GatedPlugin(), _GatedPlugin()
        threads = [threading.Thread(target=host.run_cycle, args=(plugin,))
                   for plugin in (one, other)]
        for thread in threads:
            thread.start()
        try:
            # both get inside fetch_many before either is released
            assert one.entered[0].wait(5) and other.entered[0].wait(5)
        finally:
            one.release.set()
            other.release.set()
            for thread in threads:
                thread.join(5)


def bare_context(archive, clock, **fields):
    return PluginContext(
        archive=archive, fetcher=Fetcher(clock), clock=clock,
        scheduler=Scheduler(clock), refchecker=ReferenceChecker(archive, clock),
        host=PluginHost(archive), **fields,
    )


class TestDiscovery:
    def test_broken_plugin_is_skipped_not_fatal(self, tmp_path, clock):
        # relaydescs cannot start without servers; the registry logs it
        # and moves on.
        archive = Archive(tmp_path / "data", clock)
        metrics = Metrics()
        context = bare_context(archive, clock, metrics=metrics)
        assert discover(["relaydescs"], context) == []
        assert metrics.counter("plugins.init_failures") == 1


# --- the directory-protocol plugin ---------------------------------------------


@pytest.fixture
def net(clock):
    network = SimNetwork(
        SimScenario(seed=11, n_authorities=3, n_relays=4, n_periods=3,
                    period_start=ts(19)),
        clock,
    )
    network.start()
    yield network
    network.stop()


@pytest.fixture
def rig(tmp_path, clock, net):
    return build_rig(tmp_path, clock, net)


class TestBootstrap:
    def test_bootstrap_adopts_timings_and_seeds_checker(self, rig, net):
        rig.plugin.bootstrap()
        timings = rig.scheduler.timings
        assert timings is not None
        assert timings.valid_after == ts(19)
        pending = rig.refchecker.expectations()
        assert pending and {p.doctype for p in pending} == {DocType.ServerDescriptor}
        assert {p.key() for p in pending} == referenced(
            net.periods[0].consensus_ns, ts(19, 5))
        assert rig.archive.counts() == {"consensus": 1}

    def test_bootstrap_skips_dead_authority(self, tmp_path, clock):
        network = SimNetwork(
            SimScenario(seed=11, n_authorities=3, n_relays=4, n_periods=3,
                        period_start=ts(19), down=frozenset({0})),
            clock,
        )
        network.start()
        try:
            rig = build_rig(tmp_path, clock, network)
            rig.plugin.bootstrap()
            assert rig.scheduler.timings is not None
        finally:
            network.stop()

    def test_bootstrap_is_idempotent(self, rig, net):
        rig.plugin.bootstrap()
        before = len(net.requests())
        rig.plugin.bootstrap()
        assert len(net.requests()) == before

    def test_bootstrap_admits_an_already_archived_consensus(self, rig, net):
        # stored without admission, as `dircollect import` does
        rig.archive.store(docparse.make_raw(
            net.periods[0].consensus_ns, "import", rig.context.clock.now()))
        rig.plugin.bootstrap()
        assert rig.scheduler.timings.valid_after == ts(19)
        assert pending_keys(rig) == referenced(net.periods[0].consensus_ns, ts(19, 5))

    def test_expired_consensus_sets_no_timings(self, rig, net, clock):
        raw = docparse.make_raw(net.periods[0].consensus_ns, "test", clock.now())
        entry = rig.archive.store(raw)
        clock.set(ts(22, 0))  # its valid-until
        rig.plugin.admit(entry, docparse.parse_admitted(raw))
        assert rig.scheduler.timings is None
        # still a referrer: its references stay wanted until 22:05
        assert pending_keys(rig) == referenced(net.periods[0].consensus_ns, ts(19, 5))

    def test_consensus_without_voting_delay_sets_no_timings(self, rig, net, clock):
        body, n = re.subn(rb"voting-delay \d+ \d+\n", b"", net.periods[0].consensus_ns)
        assert n == 1
        raw = docparse.make_raw(body, "test", clock.now())
        rig.plugin.admit(rig.archive.store(raw), docparse.parse_admitted(raw))
        assert rig.scheduler.timings is None
        assert pending_keys(rig) == referenced(body, ts(19, 5))


class TestSeed:
    def test_seed_readmits_recent_statuses(self, tmp_path, net):
        clock = ManualClock(ts(18, 55))  # before 19:00: the vote's bandwidth list is wanted
        archive = Archive(tmp_path / "data", clock)
        for body in (sample_docs.VOTE, sample_docs.CONSENSUS_NS,
                     sample_docs.SERVER_DESCRIPTOR, sample_docs.EXTRA_INFO):
            archive.store(docparse.make_raw(body, "test", clock.now()))
        fresh = build_rig(tmp_path, clock, net)
        fresh.plugin.seed()
        # the vote's and the consensus's references, less the stored
        # descriptor; the descriptor's extra-info is stored too
        assert pending_keys(fresh) == (
            referenced(sample_docs.VOTE, clock.now())
            | referenced(sample_docs.CONSENSUS_NS, clock.now())
        ) - {sample_docs.VOTE_SD_DIGESTS[0]}
        assert fresh.scheduler.timings.valid_after == ts(19)

        clock.set(ts(23, 30))  # stored 4h35m ago now
        later = build_rig(tmp_path, clock, net)
        later.plugin.seed()
        later.refchecker.prune()  # a re-admitted reference would be missed now
        assert later.refchecker.permanently_missed_count() == 0
        assert later.refchecker.expectations() == []
        assert later.scheduler.timings is None

    def test_reseeded_descriptor_still_wants_its_extra_info(self, tmp_path, clock, net):
        archive = Archive(tmp_path / "data", clock)
        archive.store(docparse.make_raw(sample_docs.SERVER_DESCRIPTOR, "test", clock.now()))
        restarted = build_rig(tmp_path, clock, net)
        restarted.plugin.seed()
        pending = restarted.refchecker.expectations()
        assert [p.digests.sha1_hex for p in pending] == [sample_docs.EXTRA_INFO_SHA1]


class TestEagerTasks:
    def test_eager_votes_fetches_each_authority_once(self, rig, net, clock):
        rig.plugin.bootstrap()
        clock.set(ts(19, 52, 30))
        rig.plugin.eager_votes()
        assert rig.archive.counts().get("vote") == 3
        # a second firing in the same phase stays quiet
        rig.plugin.eager_votes()
        vote_requests = [
            r for r in net.requests()
            if r.path == "/tor/status-vote/next/authority"
        ]
        assert len(vote_requests) == 3

    def test_eager_signatures_satisfy_guesses(self, rig, net, clock):
        rig.plugin.bootstrap()
        clock.set(ts(19, 57, 30))
        rig.plugin.eager_signatures()
        assert rig.archive.counts().get("detached-signature") == 3
        guessed = rig.refchecker.guess_period_documents(
            clock.now(), rig.scheduler.timings)
        assert not [g for g in guessed
                    if g.doctype is DocType.DetachedSignature]

    def test_signature_pass_then_one_request_per_consensus_url(self, rig, net, clock):
        # the period's guess and the signatures' digest reference name the
        # same consensus; one hunt asks its URL, not one hunt each
        rig.plugin.bootstrap()
        clock.set(ts(19, 57, 30))
        rig.plugin.eager_signatures()
        asked_before = len(net.requests())
        clock.set(ts(20, 0, 30))
        rig.plugin.check_references()
        asked = Counter(r.path for r in net.requests()[asked_before:]
                        if r.path.startswith("/tor/status-vote/current/consensus"))
        assert asked == {"/tor/status-vote/current/consensus": 1,
                         "/tor/status-vote/current/consensus-microdesc": 1}
        for flavor in (DocType.ConsensusNs, DocType.ConsensusMicrodesc):
            assert rig.archive.contains(DocumentIdentifier(flavor, "", ts(20)))


class TestReferenceCycle:
    def drive(self, rig, clock):
        """One collector day, compressed: bootstrap, then cycles around
        the vote/signature windows and the period rollover."""
        rig.plugin.bootstrap()
        rig.plugin.check_references()
        clock.set(ts(19, 52, 30))
        rig.plugin.eager_votes()
        clock.set(ts(19, 53))
        rig.plugin.check_references()
        clock.set(ts(19, 57, 30))
        rig.plugin.eager_signatures()
        clock.set(ts(20, 0, 30))
        rig.plugin.check_references()

    def test_closes_over_first_period(self, rig, net, clock):
        rig.plugin.bootstrap()
        rig.plugin.check_references()
        assert_census(net, rig.archive, ts(19, 5), clock.now())
        assert rig.plugin.expectations() == []

    def test_closes_over_period_rollover(self, rig, net, clock):
        self.drive(rig, clock)
        assert_census(net, rig.archive, ts(19, 5), clock.now())
        assert rig.plugin.expectations() == []
        assert rig.refchecker.permanently_missed_count() == 0
        assert_digest_requests_unique(net, rig.scheduler.timings)

    def test_down_authority_not_retried_within_phase(self, tmp_path, clock):
        network = SimNetwork(
            SimScenario(seed=11, n_authorities=3, n_relays=4, n_periods=3,
                        period_start=ts(19), down=frozenset({2})),
            clock,
        )
        network.start()
        try:
            rig = build_rig(tmp_path, clock, network)
            self.drive(rig, clock)
            # one more cycle in the same phase must not re-ask the dead one
            rig.plugin.check_references()
            assert_census(network, rig.archive, ts(19, 5), clock.now())
            down_id = network.authorities[2].identity
            down_votes = [
                r for r in network.requests()
                if r.server_id == down_id
                and r.path == "/tor/status-vote/next/authority"
            ]
            assert len(down_votes) == 1
            # its vote and signature windows closed unserved
            assert rig.refchecker.permanently_missed_count() == 2
        finally:
            network.stop()

    def test_split_consensus_archives_both_variants(self, tmp_path, clock):
        network = SimNetwork(
            SimScenario(seed=11, n_authorities=3, n_relays=4, n_periods=3,
                        period_start=ts(19), split_period=1, split_minority=1),
            clock,
        )
        network.start()
        try:
            rig = build_rig(tmp_path, clock, network)
            self.drive(rig, clock)
            assert_census(network, rig.archive, ts(19, 5), clock.now())
            variants = rig.archive.find_period(DocType.ConsensusNs, ts(20))
            assert len(variants) == 2
            assert rig.plugin.expectations() == []
        finally:
            network.stop()


class TestParseOnce:
    def test_each_stored_document_is_parsed_once(self, rig, clock, monkeypatch):
        parsed = Counter()
        parse = docparse.parse

        def counting(raw):
            parsed[raw.digests.primary_for(raw.doctype)] += 1
            return parse(raw)

        monkeypatch.setattr(docparse, "parse", counting)
        TestReferenceCycle().drive(rig, clock)
        rig.plugin.check_references()
        stored = [e for e in rig.archive.entries()
                  if e.doctype in docparse.PARSED_TYPES]
        assert {e.type_name for e in stored} >= {
            "consensus", "vote", "detached-signature", "server-descriptor",
            "extra-info"}
        assert parsed == Counter(
            e.digests.primary_for(e.doctype) for e in stored)

        parsed.clear()
        for entry in stored:
            assert rig.host.store(rig.plugin, rig.archive.load_entry(entry)) is False
        assert not parsed


class TestFetchMany:
    def test_digestless_consensus_guess_asks_each_server_once(self, tmp_path, clock):
        network = SimNetwork(
            SimScenario(seed=11, n_authorities=3, n_relays=4, n_periods=3,
                        period_start=ts(19), down=frozenset({0})),
            clock,
        )
        network.start()
        try:
            rig = build_rig(tmp_path, clock, network)
            rig.plugin.bootstrap()
            (guess,) = [g for g in rig.plugin.expectations()
                        if g.doctype is DocType.ConsensusMicrodesc]
            assert guess.digests.empty
            pairs, unfetched = rig.plugin.fetch_many([guess])
            assert unfetched == []
            (ident, raw), = pairs
            assert ident is None and raw.doctype is DocType.ConsensusMicrodesc
            assert raw.body == network.periods[0].consensus_md
            # the dead authority was asked, then the next one answered
            ids = [a.identity for a in network.authorities]
            asked = Counter(
                r.server_id for r in network.requests()
                if r.path == "/tor/status-vote/current/consensus-microdesc")
            assert asked == {ids[0]: 1, ids[1]: 1}
        finally:
            network.stop()

    def test_single_documents_are_placed_by_their_bytes(self, rig, net, clock):
        rig.plugin.bootstrap()
        clock.set(ts(19, 52, 30))
        votes = [g for g in rig.plugin.expectations() if g.doctype is DocType.Vote]
        assert len(votes) == 3
        pairs, unfetched = rig.plugin.fetch_many(votes)
        assert unfetched == []
        assert [ident for ident, _ in pairs] == [None, None, None]
        assert {raw.doctype for _, raw in pairs} == {DocType.Vote}


class TestServerPreference:
    def test_alpha_uses_authorities_beta_prefers_caches(self, rig, clock):
        rig.plugin.bootstrap()
        cache = ServerEndpoint("cache-1", "127.0.0.1:1")
        rig.plugin.servers.append(cache)
        clock.set(ts(19, 55))  # inside the alpha window
        assert rig.scheduler.phase() is Phase.Alpha
        assert cache not in rig.plugin._preference()
        clock.set(ts(20, 40))
        assert rig.scheduler.phase() is Phase.Beta
        assert rig.plugin._preference()[0] is cache


# --- the measurement plugin -----------------------------------------------------


class _TpfHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.paths.append(self.path)
        body = self.server.files.get(self.path, 404)
        if isinstance(body, int):  # an error status
            self.send_response(body)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def tpf_host():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _TpfHandler)
    httpd.files = {}
    httpd.paths = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()


def tpf_body(source, size, day):
    return (f"SOURCE={source} FILESIZE={size} START={day}T00:05:00\n"
            f"SOURCE={source} FILESIZE={size} START={day}T06:05:00\n"
            ).encode()


def perf_rig(tmp_path, clock, tpf_host, sizes=(51200,)):
    base = f"http://127.0.0.1:{tpf_host.server_address[1]}"
    archive = Archive(tmp_path / "data", clock)
    metrics = Metrics()
    refchecker = ReferenceChecker(archive, clock, metrics=metrics)
    host = PluginHost(archive, metrics)
    context = PluginContext(
        archive=archive,
        fetcher=Fetcher(clock, metrics=metrics, timeout=5.0),
        clock=clock,
        scheduler=Scheduler(clock, metrics),
        refchecker=refchecker,
        host=host,
        onionperf=OnionPerfConfig(hosts=(("op-ab", base),), sizes=sizes),
        metrics=metrics,
    )
    (plugin,) = discover(["onionperf"], context)
    return SimpleNamespace(archive=archive, host=host, plugin=plugin,
                           refchecker=refchecker, context=context)


class TestOnionPerf:
    def test_expectations_cover_three_days_back(self, tmp_path, tpf_host):
        clock = ManualClock(ts(0, 20, day=16))
        rig = perf_rig(tmp_path, clock, tpf_host, sizes=(51200, 1048576))
        wanted = rig.plugin.expectations()
        assert len(wanted) == 6
        days = {d.datetime.date().isoformat() for d in wanted}
        assert days == {"2018-11-15", "2018-11-14", "2018-11-13"}
        assert all(d.doctype is DocType.TorperfResults for d in wanted)

    def test_collect_archives_under_measurement_day(self, tmp_path, tpf_host):
        clock = ManualClock(ts(0, 20, day=16))
        for day in ("2018-11-15", "2018-11-14", "2018-11-13"):
            tpf_host.files[f"/op-ab-51200-{day}.tpf"] = tpf_body(
                "op-ab", 51200, day)
        rig = perf_rig(tmp_path, clock, tpf_host)
        rig.plugin.run_once()
        assert rig.archive.counts() == {"torperf": 3}
        entry = next(e for e in rig.archive.entries()
                     if "2018-11-15" in e.path)
        assert entry.subject == "op-ab-51200"
        assert entry.doc_datetime == ts(0, 0, day=15)
        # a fresh plugin instance sees them as done without private state
        again = perf_rig(tmp_path, clock, tpf_host)
        assert again.plugin.expectations() == []

    def test_permanent_miss_never_asked_again(self, tmp_path, tpf_host):
        clock = ManualClock(ts(0, 20, day=16))
        tpf_host.files["/op-ab-51200-2018-11-15.tpf"] = tpf_body(
            "op-ab", 51200, "2018-11-15")
        tpf_host.files["/op-ab-51200-2018-11-13.tpf"] = tpf_body(
            "op-ab", 51200, "2018-11-13")
        rig = perf_rig(tmp_path, clock, tpf_host)
        rig.plugin.run_once()
        rig.plugin.run_once()
        tpf_host.files["/op-ab-51200-2018-11-16.tpf"] = tpf_body(
            "op-ab", 51200, "2018-11-16")
        clock.set(ts(0, 20, day=17))
        rig.plugin.run_once()
        missing = [p for p in tpf_host.paths
                   if p == "/op-ab-51200-2018-11-14.tpf"]
        assert len(missing) == 1
        assert rig.refchecker.permanently_missed_count() == 1
        assert rig.archive.counts() == {"torperf": 3}  # day 16 arrived on the 17th

    def test_missed_days_age_out_of_the_ledger(self, tmp_path, tpf_host):
        clock = ManualClock(ts(0, 20, day=16))
        rig = perf_rig(tmp_path, clock, tpf_host)
        rig.plugin.run_once()  # days 13-15, none served
        clock.set(ts(0, 20, day=20))
        rig.plugin.run_once()  # days 17-19, none served
        assert rig.refchecker.permanently_missed_count() == 6
        held = [day for day in range(13, 20) if rig.refchecker.missed(
            OnionPerfPlugin._ident("op-ab", 51200, date(2018, 11, day)))]
        assert held == [17, 18, 19]

    def test_day_failing_through_its_window_is_missed_once(self, tmp_path, tpf_host):
        clock = ManualClock(ts(0, 20, day=14))
        for day in (11, 12, 14, 15, 16, 17):
            tpf_host.files[f"/op-ab-51200-2018-11-{day}.tpf"] = tpf_body(
                "op-ab", 51200, f"2018-11-{day}")
        tpf_host.files["/op-ab-51200-2018-11-13.tpf"] = 503
        rig = perf_rig(tmp_path, clock, tpf_host)
        asked = {}
        for day in (14, 15, 16, 17, 18):
            clock.set(ts(0, 20, day=day))
            rig.plugin.run_once()
            asked[day] = tpf_host.paths.count("/op-ab-51200-2018-11-13.tpf")
            # its window closes at the start of the 17th
            assert rig.refchecker.permanently_missed_count() == (day >= 17)
        # one request per daily collect while the day is wanted
        assert asked == {14: 1, 15: 2, 16: 3, 17: 3, 18: 3}
        assert rig.archive.counts() == {"torperf": 6}

    def test_requires_hosts(self, tmp_path, clock):
        archive = Archive(tmp_path / "data", clock)
        context = bare_context(archive, clock)
        with pytest.raises(PluginInitError):
            OnionPerfPlugin(context)
