"""End-to-end acceptance checks against the simulated authority network.

Every test announces its verdict with a single "ACCEPTANCE nn name:
PASS|FAIL" line written to the real stdout, so a batch log shows the
whole table even under pytest's capture; the assertion failure carries
the detail.

The compressed-time collector runs cost a minute or two of wall clock
each, so they are built once and shared by every criterion that examines
them. A failed build is cached and re-raised, letting each dependent
criterion report FAIL without repeating the run.
"""

import math
import sys
import threading
import time
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import oracle_digests as oracle
import sample_docs
from dircollect import docparse
from dircollect.archive import Archive, index_json_bytes
from dircollect.clock import Clock, ManualClock, SystemClock
from dircollect.dirserver import DirServer
from dircollect.docmodel import (
    ConsensusTimings,
    DocType,
    DocumentIdentifier,
    RawDocument,
)
from dircollect.fetcher import Fetcher, Role, ServerEndpoint
from dircollect.metrics import Metrics
from dircollect.plugins import OnionPerfConfig, PluginContext, PluginHost, discover
from dircollect.refchecker import ReferenceChecker
from dircollect.scheduler import Phase, Scheduler, compute_schedule, phase_at
from dircollect.service import Config, Service
from dircollect.simnet import SimNetwork, SimScenario

SPEED = 60  # one wall second is one simulated minute
EPOCH = None  # filled below; collector runs start a few minutes before a voting window


def ts(hour, minute=0, second=0, day=15):
    return datetime(2018, 11, day, hour, minute, second, tzinfo=timezone.utc)


EPOCH = ts(19, 47)
BAIL = ts(21, 40)  # before the 21:50 voting window, so the census stays put


class ScaledClock(Clock):
    """Clock that maps wall time onto an accelerated timeline.

    One wall second corresponds to ``speed`` clock seconds, starting from
    ``epoch``, so full voting periods run in a few wall seconds while real
    threads and HTTP servers keep working normally.
    """

    POLL = 0.05  # wall seconds between interrupt checks while waiting

    def __init__(self, epoch: datetime, speed: float = 1.0):
        self.epoch = epoch
        self.speed = speed
        self._wall_start = time.monotonic()

    def now(self) -> datetime:
        elapsed = time.monotonic() - self._wall_start
        return self.epoch + timedelta(seconds=elapsed * self.speed)

    def wait_until(self, when, interrupt=None):
        while True:
            remaining = (when - self.now()).total_seconds() / self.speed
            if remaining <= 0:
                return
            if interrupt is not None:
                if interrupt.wait(min(remaining, self.POLL)):
                    return
            else:
                time.sleep(min(remaining, self.POLL))


def _announce(capsys, num: int, name: str, verdict: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {verdict}\n"
    if capsys is not None:
        with capsys.disabled():  # punch through pytest's fd capture
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()


@contextmanager
def criterion(capsys, num: int, name: str):
    try:
        yield
    except BaseException:
        _announce(capsys, num, name, "FAIL")
        raise
    _announce(capsys, num, name, "PASS")


# --- shared collector runs ---------------------------------------------------------


def archived_primaries(archive: Archive) -> dict:
    out: dict[DocType, set] = {}
    for entry in archive.entries():
        if entry.doctype is None:
            continue
        out.setdefault(entry.doctype, set()).add(
            entry.digests.primary_for(entry.doctype))
    return out


def census_satisfied(archive: Archive, census: dict) -> bool:
    have = archived_primaries(archive)
    return all(wanted <= have.get(doctype, set())
               for doctype, wanted in census.items())


def authority_endpoints(net: SimNetwork) -> list[ServerEndpoint]:
    return [
        ServerEndpoint(identity, addr, frozenset({Role.Authority}))
        for identity, addr in net.endpoints()
    ]


def run_collector(root, scenario: SimScenario, settings=None) -> SimpleNamespace:
    """Run the assembled service against a simnet on a 60x clock.

    Stops as soon as the archive covers everything the scenario says a
    collector running over [EPOCH, now] should hold, or at BAIL. The
    census is stable between satisfaction and BAIL (the next voting
    window opens later), so the exact stop time does not matter.
    """
    wall_started = time.monotonic()
    # document generation can take a wall second or two; do it on a
    # throwaway timeline so the run's clock starts at EPOCH afterwards
    net = SimNetwork(scenario, ScaledClock(EPOCH, speed=SPEED))
    net.start()
    service = None
    try:
        clock = ScaledClock(EPOCH, speed=SPEED)
        net.clock = clock
        config = Config(
            archive_root=root / "data",
            listen="127.0.0.1:0",
            plugins_enabled=["relaydescs"],
            servers=authority_endpoints(net),
            settings=settings or {},
        )
        service = Service(config, clock=clock)
        target = net.expected_census(EPOCH, BAIL)
        service.start()
        satisfied = False
        while clock.now() < BAIL:
            if census_satisfied(service.archive, target):
                satisfied = True
                break
            time.sleep(0.2)
        stopped = clock.now()
        expectations = service.plugins[0].expectations()
        checker_pending = service.refchecker.expectations(stopped)
    finally:
        if service is not None:
            service.stop()
        net.stop()
    return SimpleNamespace(
        scenario=scenario,
        stopped=stopped,
        satisfied=satisfied,
        census=net.expected_census(EPOCH, stopped),
        archived=archived_primaries(service.archive),
        counts=service.archive.counts(),
        expectations=expectations,
        checker_pending=checker_pending,
        integrity=service.archive.verify_integrity(),
        permanently_missed=service.metrics.counter("refchecker.permanently_missed"),
        requests=net.requests(),
        down_ids=frozenset(net.authorities[i].identity for i in scenario.down),
        root=root / "data",
        wall_seconds=time.monotonic() - wall_started,
    )


_shared: dict = {}


def shared(name: str, builder):
    """Build-once cache; a failed build fails every dependent criterion."""
    if name not in _shared:
        try:
            _shared[name] = ("ok", builder())
        except BaseException as exc:
            _shared[name] = ("error", exc)
    kind, value = _shared[name]
    if kind == "error":
        raise RuntimeError(f"shared build {name!r} failed") from value
    return value


def full_run(tmp_path_factory):
    return shared("full", lambda: run_collector(
        tmp_path_factory.mktemp("full"),
        SimScenario(seed=101, n_authorities=9, n_relays=40, n_periods=4,
                    period_start=ts(19)),
    ))


def faulty_run(tmp_path_factory):
    return shared("faulty", lambda: run_collector(
        tmp_path_factory.mktemp("faulty"),
        SimScenario(seed=102, n_authorities=9, n_relays=40, n_periods=4,
                    period_start=ts(19), down=frozenset({0, 2, 4, 6})),
    ))


def split_run(tmp_path_factory):
    return shared("split", lambda: run_collector(
        tmp_path_factory.mktemp("split"),
        SimScenario(seed=103, n_authorities=9, n_relays=40, n_periods=4,
                    period_start=ts(19), split_period=1, split_minority=4),
    ))


# --- request-log analysis ----------------------------------------------------------

_PHASE_ANCHOR = ts(19, 52, 30)  # first eager fire; phases tile hourly from here
_ALPHA_SECONDS = 2250  # :52:30 up to :30:00 of the next hour

_DIGEST_PREFIXES = (
    ("/tor/server/d/", "+"),
    ("/tor/extra/d/", "+"),
    ("/tor/micro/d/", "-"),
)


def phase_bucket(at: datetime) -> tuple:
    """Hand-rolled phase tiling, deliberately independent of the package:
    with hourly periods and 300/300 delays, directory-cache mode spans
    [:52:30, next :30:00) and client mode the rest."""
    off = (at - _PHASE_ANCHOR).total_seconds()
    ordinal = math.floor(off / 3600)
    within = off - ordinal * 3600
    return ordinal, ("alpha" if within < _ALPHA_SECONDS else "beta")


def digest_requests(requests):
    """(server, route, digest, phase bucket) for every digest a batch URL asked for."""
    for rec in requests:
        for prefix, sep in _DIGEST_PREFIXES:
            if rec.path.startswith(prefix):
                for token in rec.path[len(prefix):].split(sep):
                    yield rec.server_id, prefix, token, phase_bucket(rec.at)


def assert_census_equal(run) -> None:
    for doctype in DocType:
        assert run.archived.get(doctype, set()) == run.census[doctype], (
            f"{doctype.dirname}: archived {len(run.archived.get(doctype, set()))} "
            f"of {len(run.census[doctype])} expected (satisfied={run.satisfied}, "
            f"stopped={run.stopped})"
        )
    assert "unrecognized" not in run.counts


# --- the criteria ------------------------------------------------------------------


def test_01_detached_signature_fixture(capsys):
    with criterion(capsys, 1, "detached-signature-fixture"):
        started = time.monotonic()
        raw = docparse.make_raw(
            sample_docs.SAMPLE_DETACHED_SIGNATURE, "fixture", ts(19, 57))
        parsed = docparse.parse(raw)
        assert parsed.doctype is DocType.DetachedSignature
        assert parsed.first("consensus-digest") == (
            "1CBD322788FFC841B0DB701C2942EE5750617CFF")
        assert parsed.first("valid-after") == "2018-11-15 19:00:00"
        assert parsed.first("fresh-until") == "2018-11-15 20:00:00"
        assert parsed.first("valid-until") == "2018-11-15 22:00:00"
        assert parsed.first("additional-digest") == (
            "microdesc sha256 "
            "476993E797C51682E95ACEED12B2DD21588847E8E2FF7C49291E64207D8FED53")
        assert time.monotonic() - started < 1.0


def test_02_schedule_arithmetic(capsys):
    with criterion(capsys, 2, "schedule-arithmetic"):
        timings = ConsensusTimings(ts(19), ts(20), ts(22), 300, 300)
        sched = compute_schedule(timings)
        assert sched.task1_at == ts(19, 52, 30)
        assert sched.task2_at == ts(19, 57, 30)
        assert sched.task1_at.microsecond == 0
        assert sched.task2_at.microsecond == 0
        assert phase_at(ts(19, 55), timings) is Phase.Alpha
        assert phase_at(ts(20, 40), timings) is Phase.Beta


def test_03_full_closure(capsys, tmp_path_factory):
    run = full_run(tmp_path_factory)
    with criterion(capsys, 3, "full-closure"):
        assert run.wall_seconds < 180
        assert_census_equal(run)
        assert run.expectations == []
        assert run.checker_pending == []
        assert run.permanently_missed == 0
        assert run.integrity.missing == 0
        assert run.integrity.corrupt == []


def test_04_fault_tolerance(capsys, tmp_path_factory):
    run = faulty_run(tmp_path_factory)
    with criterion(capsys, 4, "fault-tolerance"):
        assert_census_equal(run)
        # every descriptor, both consensus flavors, and exactly the
        # five votes that reachable authorities produced
        archive = Archive(run.root, ManualClock(run.stopped))
        for period_time in (ts(20), ts(21)):
            votes = archive.find_period(DocType.Vote, period_time)
            assert len(votes) == 5, f"votes for {period_time}"
        assert len(run.archived[DocType.ServerDescriptor]) == 3 * 40
        assert len(run.archived[DocType.ExtraInfoDescriptor]) == 3 * 40
        assert len(run.archived[DocType.Microdescriptor]) == 3 * 40
        # down servers saw each request path at most once per phase
        down_hits = Counter(
            (rec.server_id, rec.path, phase_bucket(rec.at))
            for rec in run.requests if rec.server_id in run.down_ids
        )
        assert down_hits, "down servers were never probed at all"
        retried = {key: n for key, n in down_hits.items() if n > 1}
        assert retried == {}


def test_05_split_consensus(capsys, tmp_path_factory):
    run = split_run(tmp_path_factory)
    with criterion(capsys, 5, "split-consensus"):
        assert_census_equal(run)
        archive = Archive(run.root, ManualClock(run.stopped))
        variants = archive.find_period(DocType.ConsensusNs, ts(20))
        assert len(variants) == 2
        bodies = {archive.load_entry(e).body for e in variants}
        assert len(bodies) == 2
        consensus_digests = {e.digests.sha1_hex for e in variants}
        # the split is visible in the signatures: two camps referencing
        # two different consensus digests
        referenced = set()
        for entry in archive.find_period(DocType.DetachedSignature, ts(20)):
            parsed = docparse.parse(archive.load_entry(entry))
            referenced.add(parsed.first("consensus-digest"))
        assert referenced == consensus_digests
        assert len(referenced) == 2


def test_06_request_ledger(capsys, tmp_path_factory):
    runs = [
        ("full", full_run(tmp_path_factory)),
        ("faulty", faulty_run(tmp_path_factory)),
        ("split", split_run(tmp_path_factory)),
    ]
    with criterion(capsys, 6, "request-ledger"):
        for name, run in runs:
            seen = Counter(digest_requests(run.requests))
            assert seen, f"{name}: no digest-addressed requests logged"
            repeats = {key: n for key, n in seen.items() if n > 1}
            assert repeats == {}, f"{name}: digest re-requested within a phase"


def test_07_greedy_discovery(capsys, tmp_path_factory):
    run = full_run(tmp_path_factory)
    with criterion(capsys, 7, "greedy-discovery"):
        # off by default: a plain run never sweeps the bulk listings
        bulk = [r for r in run.requests if r.path.endswith("/all")]
        assert bulk == []

        # switched on: one sweep per list per authority, failures not retried
        scenario = SimScenario(seed=47, n_authorities=3, n_relays=6,
                               n_periods=2, period_start=ts(19),
                               down=frozenset({2}))
        net = SimNetwork(scenario, ScaledClock(EPOCH, speed=SPEED))
        net.start()
        service = None
        try:
            clock = ScaledClock(EPOCH, speed=SPEED)
            net.clock = clock
            config = Config(
                archive_root=tmp_path_factory.mktemp("greedy") / "data",
                listen="127.0.0.1:0",
                plugins_enabled=["relaydescs"],
                servers=authority_endpoints(net),
                settings={"tasks": {"greedy_discovery": {
                    "enabled": True, "interval_seconds": 7200.0}}},
            )
            service = Service(config, clock=clock)
            service.start()
            deadline = time.time() + 30
            while time.time() < deadline:
                sweeps = [r for r in net.requests() if r.path.endswith("/all")]
                if len(sweeps) >= 6:
                    break
                time.sleep(0.2)
            time.sleep(2)  # room for any wrongly scheduled retry to show up
        finally:
            if service is not None:
                service.stop()
            net.stop()
        sweeps = Counter(
            (r.server_id, r.path)
            for r in net.requests() if r.path.endswith("/all")
        )
        expected = {
            (auth.identity, path): 1
            for auth in net.authorities
            for path in ("/tor/server/all", "/tor/extra/all")
        }
        assert dict(sweeps) == expected


# --- generated corpus, shared by the digest and burst criteria ----------------------


def build_corpus() -> SimpleNamespace:
    scenario = SimScenario(
        seed=31, n_authorities=9, n_relays=8, n_periods=130,
        period_start=datetime(2018, 11, 1, tzinfo=timezone.utc),
    )
    net = SimNetwork(scenario, ManualClock(scenario.period_start))  # never started
    docs: list[tuple[DocType, bytes]] = []
    for period in net.periods:
        docs.append((DocType.ConsensusNs, period.consensus_ns))
        docs.append((DocType.ConsensusMicrodesc, period.consensus_md))
        for table, doctype in (
            (period.votes, DocType.Vote),
            (period.sigs, DocType.DetachedSignature),
            (period.bandwidths, DocType.BandwidthList),
            (period.server_descriptors, DocType.ServerDescriptor),
            (period.extra_infos, DocType.ExtraInfoDescriptor),
            (period.micros, DocType.Microdescriptor),
        ):
            docs.extend((doctype, body) for body in table.values())
    return SimpleNamespace(docs=docs, counts=Counter(t for t, _ in docs))


def corpus():
    return shared("corpus", build_corpus)


# field of the computed DigestSet -> independent recomputation
_DIGEST_ORACLES = {
    DocType.ServerDescriptor: (
        ("sha1_hex", oracle.server_descriptor_sha1),
        ("sha256_base64", oracle.server_descriptor_sha256_b64),
    ),
    DocType.ExtraInfoDescriptor: (
        ("sha1_hex", oracle.extra_info_sha1),
        ("sha256_base64", oracle.extra_info_sha256_b64),
    ),
    DocType.Vote: (
        ("sha1_hex", oracle.status_sha1),
        ("sha256_hex", oracle.status_sha256),
    ),
    DocType.ConsensusNs: (
        ("sha1_hex", oracle.status_sha1),
        ("sha256_hex", oracle.status_sha256),
    ),
    DocType.ConsensusMicrodesc: (
        ("sha1_hex", oracle.status_sha1),
        ("sha256_hex", oracle.status_sha256),
    ),
    DocType.Microdescriptor: (
        ("sha256_base64", oracle.microdescriptor_b64),
    ),
    DocType.BandwidthList: (
        ("sha256_base64", oracle.sha256_b64),
        ("sha256_hex", oracle.whole_file_sha256),
    ),
    DocType.DetachedSignature: (
        ("sha256_hex", oracle.whole_file_sha256),
    ),
}


def test_08_digest_oracle(capsys):
    body_corpus = corpus()
    with criterion(capsys, 8, "digest-oracle"):
        for doctype in _DIGEST_ORACLES:
            assert body_corpus.counts[doctype] >= 100, doctype
        mismatches = []
        for doctype, body in body_corpus.docs:
            computed = docparse.compute_digests(body, doctype)
            for field, recompute in _DIGEST_ORACLES[doctype]:
                if getattr(computed, field) != recompute(body):
                    mismatches.append((doctype, field, body[:60]))
        assert mismatches == []


def test_09_serve_duality(capsys, tmp_path_factory):
    run = full_run(tmp_path_factory)
    with criterion(capsys, 9, "serve-duality"):
        clock = ManualClock(run.stopped)
        archive = Archive(run.root, clock)  # reopened purely from manifests
        server = DirServer(archive, clock, listen="127.0.0.1:0")
        server.start()
        try:
            endpoint = ServerEndpoint("dual", server.address,
                                      frozenset({Role.Authority}))
            fetcher = Fetcher(clock)
            for doctype in (DocType.ServerDescriptor,
                            DocType.ExtraInfoDescriptor,
                            DocType.Microdescriptor):
                entries = [e for e in archive.entries() if e.doctype is doctype]
                assert entries
                idents = [
                    DocumentIdentifier(doctype, e.subject, e.doc_datetime, e.digests)
                    for e in entries
                ]
                docs, unfetched = fetcher.fetch_batch(doctype, idents, [endpoint])
                assert unfetched == []
                assert len(docs) == len(entries)
                stored = {
                    e.digests.primary_for(doctype): archive.load_entry(e).body
                    for e in entries
                }
                for raw in docs:
                    assert raw.body == stored[raw.digests.primary_for(doctype)]

            for flavor, path in (
                (DocType.ConsensusNs, "/tor/status-vote/current/consensus"),
                (DocType.ConsensusMicrodesc,
                 "/tor/status-vote/current/consensus-microdesc"),
            ):
                newest = max(
                    (e for e in archive.entries() if e.doctype is flavor),
                    key=lambda e: (e.doc_datetime, e.digests.primary_for(flavor)),
                )
                with urllib.request.urlopen(
                    f"http://{server.address}{path}", timeout=10
                ) as resp:
                    assert resp.read() == archive.load_entry(newest).body

            def fetch_index() -> bytes:
                with urllib.request.urlopen(
                    f"http://{server.address}/index.json", timeout=10
                ) as resp:
                    return resp.read()

            first = fetch_index()
            assert first == fetch_index()
            assert first == index_json_bytes(archive.build_index())
        finally:
            server.stop()


def test_10_bounded_handles(capsys, tmp_path_factory):
    body_corpus = corpus()
    with criterion(capsys, 10, "bounded-handles"):
        assert len(body_corpus.docs) >= 6500
        metrics = Metrics()
        clock = SystemClock()
        archive = Archive(tmp_path_factory.mktemp("burst") / "data", clock, metrics)

        def store(item):
            doctype, body = item
            archive.store(RawDocument(
                doctype, body, "burst", clock.now(),
                docparse.compute_digests(body, doctype)))

        with ThreadPoolExecutor(max_workers=600) as pool:
            list(pool.map(store, body_corpus.docs))
        assert sum(archive.counts().values()) == len(body_corpus.docs)
        peak = metrics.gauge("archive.open_files_peak")
        assert 0 < peak <= 512


# --- measurement file collection ----------------------------------------------------


class _TpfHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 (http.server API)
        self.server.log.append(self.path)
        body = self.server.files.get(self.path)
        if body is None:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


def test_11_onionperf_daily(capsys, tmp_path_factory):
    with criterion(capsys, 11, "onionperf-daily"):
        sources = ("op-aa", "op-bb", "op-cc")
        sizes = (51200, 1048576, 5242880)
        stub = ThreadingHTTPServer(("127.0.0.1", 0), _TpfHandler)
        stub.daemon_threads = True
        stub.files = {}
        stub.log = []
        threading.Thread(target=stub.serve_forever, daemon=True).start()
        addr = f"127.0.0.1:{stub.server_address[1]}"
        victim = "/op-bb/op-bb-1048576-2018-11-19.tpf"
        for day in (17, 18, 19, 20, 21):
            for source in sources:
                for size in sizes:
                    path = f"/{source}/{source}-{size}-2018-11-{day}.tpf"
                    if path == victim:
                        continue
                    stub.files[path] = (
                        f"{source} {size} 2018-11-{day} measurement\n".encode())
        try:
            clock = ManualClock(ts(1, 0, 0, day=20))
            metrics = Metrics()
            archive = Archive(tmp_path_factory.mktemp("perf") / "data",
                              clock, metrics)
            host = PluginHost(archive, metrics)
            refchecker = ReferenceChecker(archive, clock, metrics=metrics)
            context = PluginContext(
                archive=archive,
                fetcher=Fetcher(clock),
                clock=clock,
                scheduler=Scheduler(clock),
                refchecker=refchecker,
                host=host,
                metrics=metrics,
                onionperf=OnionPerfConfig(hosts=tuple(
                    (source, f"http://{addr}/{source}") for source in sources)),
            )
            plugin = discover(["onionperf"], context)[0]

            for day in (20, 21, 22):
                clock.set(ts(1, 0, 0, day=day))
                plugin.run_once()

            per_day = Counter(
                entry.doc_datetime.date().isoformat()
                for entry in archive.entries()
                if entry.doctype is DocType.TorperfResults
            )
            assert per_day == {
                "2018-11-17": 9,
                "2018-11-18": 9,
                "2018-11-19": 8,  # the permanent miss
                "2018-11-20": 9,
                "2018-11-21": 9,
            }
            assert refchecker.permanently_missed_count() == 1
            assert stub.log.count(victim) == 1
        finally:
            stub.shutdown()
            stub.server_close()
