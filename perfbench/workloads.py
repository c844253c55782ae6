"""The benchmark's workloads: set-up, deterministic collection, serving
load from a separate client process, and the output checks.

Every workload drives the real ``Service`` stack against an in-process
``SimNetwork``; both read one ``ManualClock``. Collector jobs are fired
one at a time on the clock the scheduler would use, and the clock only
moves between jobs, so request and document counts repeat exactly for a
given seed. A run repeats the workload's unit (set-up, measured phases,
checks) for as long as ``--seconds`` allows, and reports the median
repetition's collector times and each request's fastest response.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import struct
import subprocess
import sys
import time
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

from dircollect import docparse
from dircollect.archive import Archive, index_json_bytes
from dircollect.clock import ManualClock, utc
from dircollect.dirserver import BULK_WINDOW
from dircollect.docmodel import DocType
from dircollect.fetcher import MAX_BATCH, Role, ServerEndpoint
from dircollect.scheduler import compute_schedule
from dircollect.service import Config, Service
from dircollect.simnet import SimNetwork, SimScenario

from spans import Tracer, serve_class

CLIENT = Path(__file__).with_name("client.py")

PERIOD_START = utc(2018, 11, 15, 19)
#: Collection starts three minutes before the 19:50 voting window.
EPOCH = utc(2018, 11, 15, 19, 47)
#: serve-mirror's clock: twenty minutes into the first prefilled period,
#: outside any voting window. A downstream collector then follows the
#: mirror through the two later periods at hourly checks.
MIRROR_START = utc(2018, 11, 15, 19, 20)
N_AUTHORITIES = 9
#: The scheduler registers the relaydescs jobs in this order, and fires
#: jobs that fall due together in registration order.
JOB_ORDER = ("bootstrap", "eager-votes", "eager-signatures", "reference-check")
#: serve-mirror load requests per repetition, and the consensus share
#: among them; the rest are full descriptor batches, a third of each kind
MIRROR_REQUESTS = 150
MIRROR_CONSENSUS_SHARE = 0.15
#: collect-live: times each repetition's mirror copies the archive
PULLS = 2
LIGHT = ("consensus", "batch", "status")
BULK = ("bulk", "index")
BATCH_ROUTES = {
    DocType.ServerDescriptor: ("/tor/server/d/", "+"),
    DocType.ExtraInfoDescriptor: ("/tor/extra/d/", "+"),
    DocType.Microdescriptor: ("/tor/micro/d/", "-"),
}
CONSENSUS_ROUTES = {
    DocType.ConsensusNs: "/tor/status-vote/current/consensus",
    DocType.ConsensusMicrodesc: "/tor/status-vote/current/consensus-microdesc",
}


@dataclass(frozen=True)
class Workload:
    name: str
    relays: int
    periods: int
    #: tasks.reference_check.interval_seconds of the collector
    check_interval: int
    #: usual wall seconds of one repetition (2-vCPU Xeon VM); a run makes
    #: as many as fit in --seconds
    rep_s: float
    #: clock time at which collection starts
    start: datetime
    #: collection window length in simulated seconds
    window_s: int
    #: whether set-up stores every simulated document first
    prefill: bool = False


WORKLOADS = {
    w.name: w for w in (
        # burst path: an empty archive collects the next period's votes,
        # bandwidth files, signatures and the closure of its consensus
        Workload("collect-live", relays=500, periods=2, check_interval=300, rep_s=6.5,
                 start=EPOCH, window_s=15 * 60),
        # idle path: an hour of reference checks that mostly find nothing,
        # beside a keep-alive reader on the same archive and interpreter
        Workload("steady-serve", relays=150, periods=2, check_interval=30, rep_s=7.0,
                 start=EPOCH, window_s=60 * 60),
        # read path: a prefilled archive serving one-request-per-connection
        # mirrors, then a downstream dircollect following it for two hours
        Workload("serve-mirror", relays=300, periods=3, check_interval=3600, rep_s=8.0,
                 start=MIRROR_START, window_s=2 * 3600, prefill=True),
    )
}


# --- samples ---------------------------------------------------------------


@dataclass
class Samples:
    """Every repetition's measurements: set-up, each collector job (by
    name and fire time), the reopen, and each request's latency (by
    connection and index in its list). A repetition sends the same
    requests exactly, so a run can report each request's fastest
    response; see ``best_latencies``. Set-up, jobs and reopens are timed
    in CPU seconds of the thread that runs them (see ``Stopwatch``), with
    wall time kept for comparison."""

    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    #: per repetition: {(job, fire time): (wall seconds, CPU seconds)}
    jobs: list[dict[tuple, tuple[float, float]]] = field(default_factory=list)
    requests: list[int] = field(default_factory=list)
    documents: list[int] = field(default_factory=list)
    reopen_cpu_s: list[float] = field(default_factory=list)
    #: per load: responses per second of the load client, and the
    #: median light and bulk latency in ms
    serve_rps: list[float] = field(default_factory=list)
    light_p50_ms: list[float] = field(default_factory=list)
    bulk_p50_ms: list[float] = field(default_factory=list)
    #: {(connection, request index): [latency ms of every response]}
    latency_ms: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    #: {(connection, request index): serve class}
    request_class: dict[tuple[int, int], str] = field(default_factory=dict)
    #: every light response's latency: a tail percentile needs them pooled
    light_ms: list[float] = field(default_factory=list)
    serve_sent: int = 0
    serve_failed: int = 0
    docs_expected: int = 0
    docs_missing: int = 0
    failures: list[str] = field(default_factory=list)
    client_ms: dict[str, list[float]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def best_latencies(self, classes) -> list[float]:
        """Each request's smallest latency in ms, for requests of ``classes``."""
        return [min(ms) for key, ms in self.latency_ms.items()
                if self.request_class[key] in classes]

    def best_rps(self) -> float:
        """Responses per second of the closed loop with every request at
        its smallest latency: a connection completes one request per
        latency, so its rate is its requests over their summed latency."""
        busy_s: dict[int, float] = {}
        count: dict[int, int] = {}
        for (conn, _), ms in self.latency_ms.items():
            busy_s[conn] = busy_s.get(conn, 0.0) + min(ms) / 1000
            count[conn] = count.get(conn, 0) + 1
        return sum(count[conn] / busy_s[conn] for conn in busy_s)


class Stopwatch:
    """Wall time and the calling thread's CPU time since it was made.

    The benchmark runs set-up, every collector job and every reopen on
    its main thread, as the scheduler runs each job on a thread of its
    own, so that thread's CPU time is the work the program did for them.
    It leaves out the time the hypervisor gives the CPU to other guests
    (steal), and the time spent waiting for the simulated network or for
    the interpreter lock.
    """

    def __init__(self):
        self._wall = time.perf_counter()
        self._cpu = time.thread_time()

    def read(self) -> tuple[float, float]:
        """(wall seconds, CPU seconds)"""
        return time.perf_counter() - self._wall, time.thread_time() - self._cpu


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- set-up ----------------------------------------------------------------

#: FS_IOC_GETFLAGS, FS_IOC_SETFLAGS and FS_TOPDIR_FL from linux/fs.h
_GETFLAGS, _SETFLAGS, _TOPDIR = 0x80086601, 0x40086602, 0x00020000


def scratch_dir(path: Path) -> Path:
    """Make ``path`` and mark it the top of a directory tree, so ext4
    spreads its subdirectories over block groups.

    Each repetition builds its archive in a fresh subdirectory and
    deletes it at the end. ext4 without a journal skips, one by one,
    the inodes freed in the last half minute of a block group when it
    allocates a new one there. An archive built where the last one was
    just deleted then creates each file 200-500 us slower, and the
    collector's timings would depend on how recently the previous run
    ended. In a block group of its own a file costs 30-50 us. Other
    filesystems ignore or refuse the flag, which changes nothing else.
    """
    path.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDONLY)
    try:
        flags, = struct.unpack("i", fcntl.ioctl(fd, _GETFLAGS, struct.pack("i", 0)))
        fcntl.ioctl(fd, _SETFLAGS, struct.pack("i", flags | _TOPDIR))
    except OSError:
        pass
    finally:
        os.close(fd)
    return path



def make_net(seed: int, workload: Workload, clock: ManualClock) -> SimNetwork:
    net = SimNetwork(SimScenario(
        seed=seed, n_authorities=N_AUTHORITIES, n_relays=workload.relays,
        n_periods=workload.periods, period_start=PERIOD_START), clock)
    net.start()
    return net


def make_service(root: Path, clock: ManualClock, servers: list[ServerEndpoint],
                 interval: int) -> Service:
    config = Config(
        archive_root=root,
        listen="127.0.0.1:0",
        plugins_enabled=["relaydescs"],
        servers=servers,
        settings={"tasks": {"reference_check": {"interval_seconds": interval}}},
    )
    return Service(config, clock=clock)


def authority_endpoints(net: SimNetwork) -> list[ServerEndpoint]:
    return [ServerEndpoint(identity, addr, frozenset({Role.Authority}))
            for identity, addr in net.endpoints()]


@dataclass
class Stack:
    """One set-up: simulated network, service and a scratch directory
    holding the service's archive (and a downstream's, if any)."""

    clock: ManualClock
    net: SimNetwork
    service: Service
    workdir: Path
    #: (wall, CPU) seconds of the set-up
    setup: tuple[float, float]

    @property
    def root(self) -> Path:
        return self.workdir / "archive"

    def close(self) -> None:
        self.service.dirserver.stop()
        self.net.stop()
        shutil.rmtree(self.workdir, ignore_errors=True)


def set_up(seed: int, workload: Workload, work: Path) -> Stack:
    workdir = work / f"rep-{time.monotonic_ns()}"
    watch = Stopwatch()
    clock = ManualClock(workload.start)
    net = make_net(seed, workload, clock)
    if workload.prefill:
        prefill(net, workdir / "archive", clock)
    service = make_service(workdir / "archive", clock, authority_endpoints(net),
                           workload.check_interval)
    service.dirserver.start()
    return Stack(clock, net, service, workdir, watch.read())


def prefill(net: SimNetwork, root: Path, clock: ManualClock) -> None:
    """Store every document of every simulated period, as an archive that
    has been collecting for a while holds them."""
    archive = Archive(root, clock)
    for period in net.periods:
        bodies = [(DocType.ConsensusNs, period.consensus_ns),
                  (DocType.ConsensusMicrodesc, period.consensus_md)]
        for doctype, table in ((DocType.Vote, period.votes),
                               (DocType.BandwidthList, period.bandwidths),
                               (DocType.DetachedSignature, period.sigs),
                               (DocType.ServerDescriptor, period.server_descriptors),
                               (DocType.ExtraInfoDescriptor, period.extra_infos),
                               (DocType.Microdescriptor, period.micros)):
            bodies.extend((doctype, body) for body in table.values())
        for doctype, body in bodies:
            archive.store(docparse.make_raw(body, "prefill", clock.now(), doctype))


# --- deterministic job driver -------------------------------------------------


def _first_fire(anchor, period: int, after, strictly: bool):
    """Smallest anchor + k*period at or (strictly) after ``after``."""
    behind = (after - anchor).total_seconds()
    k = max(0, math.ceil(behind / period))
    fire = anchor + timedelta(seconds=k * period)
    if strictly and fire <= after:
        fire += timedelta(seconds=period)
    return fire


class JobDriver:
    """Fires the relaydescs jobs one at a time at the scheduler's fire
    times: bootstrap once at the start, the reference check every
    ``interval`` seconds from the start, and the eager vote and signature
    fetches at the times ``compute_schedule`` gives for the newest known
    consensus. The clock advances only between jobs."""

    def __init__(self, service: Service, start, interval: int,
                 tracer: Tracer | None = None):
        plugin = service.plugins[0]
        self.service = service
        self.clock: ManualClock = service.clock
        self.tracer = tracer
        self.actions = {
            "bootstrap": plugin.bootstrap_and_check,
            "eager-votes": plugin.eager_votes,
            "eager-signatures": plugin.eager_signatures,
            "reference-check": plugin.check_references,
        }
        self.interval = interval
        self.next_at = {"bootstrap": start, "reference-check": start}
        self.last: dict[str, object] = {}
        self.known_since = None
        #: (job, fire time, wall seconds, CPU seconds)
        self.fired: list[tuple[str, object, float, float]] = []
        self.errors: list[str] = []

    def _eager_times(self) -> None:
        timings = self.service.scheduler.timings
        if timings is None:
            return
        if self.known_since is None:
            self.known_since = self.clock.now()
        sched = compute_schedule(timings)
        for name, anchor in (("eager-votes", sched.task1_at),
                             ("eager-signatures", sched.task2_at)):
            last = self.last.get(name)
            self.next_at[name] = _first_fire(
                anchor, sched.period_seconds,
                last if last is not None else self.known_since,
                strictly=last is not None)

    def run_until(self, end) -> None:
        while True:
            self._eager_times()
            due = [(at, JOB_ORDER.index(name), name)
                   for name, at in self.next_at.items()
                   if at is not None and at <= end]
            if not due:
                return
            at, _, name = min(due)
            self.fire(name, at)

    def fire(self, name: str, at) -> None:
        self.clock.set(at)
        watch = Stopwatch()
        try:
            with self.tracer.root("job", name) if self.tracer else nullcontext():
                self.actions[name]()
        except Exception as exc:  # the scheduler would log and carry on
            self.errors.append(f"job {name} at {at}: {exc!r}")
        self.fired.append((name, at, *watch.read()))
        self.last[name] = at
        if name == "bootstrap":
            self.next_at[name] = None
        elif name == "reference-check":
            self.next_at[name] = at + timedelta(seconds=self.interval)

    def record(self, samples: Samples) -> None:
        samples.jobs.append({(name, at): (wall, cpu) for name, at, wall, cpu in self.fired})
        samples.requests.append(self.service.metrics.counter("fetcher.requests"))
        for error in self.errors:
            samples.fail(error)


# --- serving load --------------------------------------------------------------


class LoadClient:
    """The separate load-generator process (``client.py``)."""

    def __init__(self, plan: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(CLIENT)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.proc.stdin.write(json.dumps(plan) + "\n")
        self.proc.stdin.flush()
        if not plan["loop"]:
            self.proc.stdin.close()

    def finish(self) -> dict:
        try:
            if not self.proc.stdin.closed:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            out = self.proc.stdout.read()
            if self.proc.wait(timeout=120) != 0:
                raise RuntimeError("load client failed")
            return json.loads(out)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def connections() -> int:
    """Never more concurrent connections than this machine has cores."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Request:
    path: str
    #: sha256 hex digests a 200 body may have; None: content checked elsewhere
    expect: frozenset | None


def tally(requests: list[list[Request]], result: dict, samples: Samples) -> None:
    """Check every response of one client run and add its latencies."""
    light: list[float] = []
    heavy: list[float] = []
    for conn, index, status, digest, latency in result["records"]:
        req = requests[conn][index]
        samples.serve_sent += 1
        if status != 200:
            samples.serve_failed += 1
            samples.fail(f"GET {req.path[:60]} answered {status}")
            continue
        if req.expect is not None and digest not in req.expect:
            samples.serve_failed += 1
            samples.fail(f"GET {req.path[:60]} body differs from the originals")
            continue
        cls = serve_class(req.path)
        ms = latency * 1000
        (light if cls in LIGHT else heavy).append(ms)
        samples.latency_ms.setdefault((conn, index), []).append(ms)
        samples.request_class[(conn, index)] = cls
        samples.client_ms.setdefault(cls, []).append(ms)
    if not light or not heavy:
        samples.fail(f"no light or no bulk response among {len(result['records'])}")
        return
    samples.light_ms.extend(light)
    samples.serve_rps.append((len(light) + len(heavy)) / result["elapsed_s"])
    samples.light_p50_ms.append(statistics.median(light))
    samples.bulk_p50_ms.append(statistics.median(heavy))


def sha(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


class Originals:
    """The simulated network's own bytes, by each document's primary digest."""

    def __init__(self, net: SimNetwork):
        self.by_digest: dict[str, bytes] = {}
        self.consensus: dict[DocType, list[bytes]] = {t: [] for t in CONSENSUS_ROUTES}
        for period in net.periods:
            for table in (period.server_descriptors, period.extra_infos, period.micros):
                self.by_digest.update(table)
            for doctype, body in ((DocType.ConsensusNs, period.consensus_ns),
                                  (DocType.ConsensusNs, period.consensus_ns_alt),
                                  (DocType.ConsensusMicrodesc, period.consensus_md)):
                if body:
                    self.consensus[doctype].append(body)
                    self.by_digest[docparse.compute_digests(body, doctype)
                                   .primary_for(doctype)] = body

    def batch(self, doctype: DocType, keys: list[str]) -> Request:
        prefix, sep = BATCH_ROUTES[doctype]
        body = b"".join(self.by_digest[k] for k in keys)
        return Request(prefix + sep.join(keys), frozenset({sha(body)}))


def batch_key(entry) -> str:
    if entry.doctype is DocType.Microdescriptor:
        return entry.digests.sha256_base64
    return entry.digests.sha1_hex


def served_keys(archive, doctype: DocType) -> list[str]:
    return sorted(batch_key(e) for e in archive.entries() if e.doctype is doctype)


def current_consensus(archive, originals: Originals, doctype: DocType, now) -> Request:
    newest = max((e for e in archive.entries()
                  if e.doctype is doctype and e.doc_datetime <= now),
                 key=lambda e: (e.doc_datetime, e.digests.primary_for(doctype)))
    body = originals.by_digest[newest.digests.primary_for(doctype)]
    return Request(CONSENSUS_ROUTES[doctype], frozenset({sha(body)}))


def bulk(archive, originals: Originals, doctype: DocType, now) -> Request:
    cutoff = now - BULK_WINDOW
    recent = sorted((e for e in archive.entries()
                     if e.doctype is doctype and e.stored_at >= cutoff),
                    key=lambda e: (e.stored_at, e.path))
    body = b"".join(originals.by_digest[batch_key(e)] for e in recent)
    path = "/tor/server/all" if doctype is DocType.ServerDescriptor else "/tor/extra/all"
    return Request(path, frozenset({sha(body)}))


def index_request(archive) -> Request:
    return Request("/index.json", frozenset({sha(index_json_bytes(archive.build_index()))}))


def mirror_pull(archive, originals: Originals, now, rng: random.Random) -> list[Request]:
    """What a downstream mirror asks for to copy everything held: every
    descriptor in full 96-digest batches, both consensus flavors, the
    bulk routes and the index."""
    requests = []
    for doctype in BATCH_ROUTES:
        keys = served_keys(archive, doctype)
        rng.shuffle(keys)
        requests.extend(originals.batch(doctype, keys[i:i + MAX_BATCH])
                        for i in range(0, len(keys), MAX_BATCH))
    rng.shuffle(requests)
    extra = [current_consensus(archive, originals, t, now) for t in CONSENSUS_ROUTES]
    extra += [bulk(archive, originals, DocType.ServerDescriptor, now),
              bulk(archive, originals, DocType.ExtraInfoDescriptor, now),
              index_request(archive)]
    return spread(requests, extra)


def spread(requests: list[Request], extra: list[Request]) -> list[Request]:
    """Insert ``extra`` at evenly spaced positions of ``requests``."""
    out = list(requests)
    step = max(1, len(requests) // (len(extra) + 1))
    for k, req in enumerate(extra):
        out.insert((k + 1) * step + k, req)
    return out


def split(requests: list[Request], n: int) -> list[list[Request]]:
    return [requests[k::n] for k in range(n)]


def plan(address: str, conns: list[list[Request]], keepalive: bool, loop: bool) -> dict:
    return {"address": address, "keepalive": keepalive, "loop": loop,
            "connections": [[r.path for r in c] for c in conns]}


# --- checks --------------------------------------------------------------------


def check_census(archive, census: dict, samples: Samples) -> None:
    """The archive holds exactly the documents the scenario says it should."""
    have: dict[DocType, set] = {}
    for entry in archive.entries():
        if entry.doctype is None:
            samples.fail(f"unrecognized entry {entry.path}")
            continue
        have.setdefault(entry.doctype, set()).add(entry.digests.primary_for(entry.doctype))
    expected = sum(len(v) for v in census.values())
    missing = sum(len(census[t] - have.get(t, set())) for t in census)
    extra = sum(len(have.get(t, set()) - census[t]) for t in census)
    samples.docs_expected += expected
    samples.docs_missing += missing
    samples.documents.append(sum(len(v) for v in have.values()))
    if missing or extra:
        samples.fail(f"archive holds {missing} too few and {extra} unexpected "
                     f"documents of {expected}")


def check_archive(service: Service, samples: Samples, originals: Originals | None = None) -> None:
    """Re-hash every entry, and compare bodies with the originals."""
    archive = service.archive
    report = archive.verify_integrity()
    if report.corrupt:
        samples.fail(f"verify_integrity: {len(report.corrupt)} corrupt entries")
    if originals is not None:
        for entry in archive.entries():
            if entry.doctype in BATCH_ROUTES:
                body = archive.load_entry(entry).body
                if body != originals.by_digest.get(batch_key(entry)):
                    samples.fail(f"stored body of {entry.path} differs from the original")


def check_index(service: Service, samples: Samples) -> None:
    """The served /index.json lists every archived entry."""
    with urllib.request.urlopen(f"http://{service.dirserver.address}/index.json",
                                timeout=60) as resp:
        listed = {e["path"] for e in json.loads(resp.read())["entries"]}
    held = {e.path for e in service.archive.entries()}
    if listed != held:
        samples.fail(f"/index.json lists {len(listed)} entries, archive holds {len(held)}")


def reopen(stack: Stack, samples: Samples, tracer: Tracer | None) -> None:
    """Build a fresh Service on the archive and adopt what it holds."""
    servers = list(stack.service.servers)
    interval = int(stack.service.plugins[0].check_interval)
    watch = Stopwatch()
    with tracer.root("reopen") if tracer else nullcontext():
        make_service(stack.root, stack.clock, servers, interval).seed_from_archive()
    samples.reopen_cpu_s.append(watch.read()[1])


# --- the workloads' units ----------------------------------------------------------


def collect_live(stack: Stack, workload: Workload, seed: int, samples: Samples,
                 tracer: Tracer | None) -> Callable[[bool], None]:
    """Collect a voting window from an empty archive, then let a mirror
    copy everything collected back out of the dirserver, ``PULLS`` times."""
    service = stack.service
    end = workload.start + timedelta(seconds=workload.window_s)
    driver = JobDriver(service, workload.start, workload.check_interval, tracer)
    driver.run_until(end)
    driver.record(samples)
    originals = Originals(stack.net)
    conns = split(mirror_pull(service.archive, originals, stack.clock.now(),
                              random.Random(seed)), connections())
    for _ in range(PULLS):
        with tracer.requests() if tracer else nullcontext():
            result = LoadClient(plan(service.dirserver.address, conns, keepalive=False,
                                     loop=False)).finish()
        tally(conns, result, samples)
    reopen(stack, samples, tracer)
    def checks(full: bool) -> None:
        check_census(service.archive, stack.net.expected_census(workload.start, end), samples)
        if full:
            check_archive(service, samples, originals)
            check_index(service, samples)
    return checks


def steady_serve(stack: Stack, workload: Workload, seed: int, samples: Samples,
                 tracer: Tracer | None) -> Callable[[bool], None]:
    """An hour of reference checks while one keep-alive reader polls."""
    service = stack.service
    end = workload.start + timedelta(seconds=workload.window_s)
    driver = JobDriver(service, workload.start, workload.check_interval, tracer)
    driver.fire("bootstrap", workload.start)
    originals = Originals(stack.net)
    rng = random.Random(seed)
    keys = {t: served_keys(service.archive, t) for t in BATCH_ROUTES}
    consensus = {t: Request(path, frozenset(sha(b) for b in originals.consensus[t]))
                 for t, path in CONSENSUS_ROUTES.items()}
    # each block of ten reads: three /status, three consensuses, three
    # small batches in a seeded order, then the index
    reads: list[Request] = []
    for _ in range(40):
        kinds = ["status", "consensus", "batch"] * 3
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "status":
                reads.append(Request("/status", None))
            elif kind == "consensus":
                reads.append(consensus[rng.choice(list(CONSENSUS_ROUTES))])
            else:
                doctype = rng.choice(list(BATCH_ROUTES))
                reads.append(originals.batch(doctype, rng.sample(keys[doctype],
                                                                 rng.randint(2, 8))))
        reads.append(Request("/index.json", None))
    with tracer.requests() if tracer else nullcontext():
        client = LoadClient(plan(service.dirserver.address, [reads], keepalive=True,
                                 loop=True))
        try:
            driver.run_until(end)
        finally:
            result = client.finish()
    driver.record(samples)
    tally([reads], result, samples)
    reopen(stack, samples, tracer)
    def checks(full: bool) -> None:
        check_census(service.archive, stack.net.expected_census(workload.start, end), samples)
        if full:
            check_archive(service, samples, originals)
            check_index(service, samples)
    return checks


def serve_mirror(stack: Stack, workload: Workload, seed: int, samples: Samples,
                 tracer: Tracer | None) -> Callable[[bool], None]:
    """Mirrors pull batches and consensuses from a prefilled archive; then
    a downstream dircollect, configured with the mirror as its only
    server, collects each period's closure from it."""
    service = stack.service
    archive = service.archive
    now = stack.clock.now()
    originals = Originals(stack.net)
    keys = {t: served_keys(archive, t) for t in BATCH_ROUTES}
    fixed = [current_consensus(archive, originals, t, now) for t in CONSENSUS_ROUTES]
    # each bulk route three times, so that its best time has samples enough
    rare = [bulk(archive, originals, DocType.ServerDescriptor, now),
            bulk(archive, originals, DocType.ExtraInfoDescriptor, now),
            index_request(archive)] * 3
    rng = random.Random(seed)
    n_consensus = round(MIRROR_REQUESTS * MIRROR_CONSENSUS_SHARE)
    reads = [fixed[k % len(fixed)] for k in range(n_consensus)]
    doctypes = list(BATCH_ROUTES)
    reads += [originals.batch(doctypes[k % len(doctypes)],
                              rng.sample(keys[doctypes[k % len(doctypes)]], MAX_BATCH))
              for k in range(MIRROR_REQUESTS - n_consensus)]
    rng.shuffle(reads)
    conns = split(spread(reads, rare), connections())
    with tracer.requests() if tracer else nullcontext():
        result = LoadClient(plan(service.dirserver.address, conns, keepalive=False,
                                 loop=False)).finish()
    tally(conns, result, samples)

    upstream = ServerEndpoint("mirror", service.dirserver.address,
                              frozenset({Role.Authority}))
    downstream = make_service(stack.workdir / "downstream", stack.clock, [upstream],
                              workload.check_interval)
    end = now + timedelta(seconds=workload.window_s)
    driver = JobDriver(downstream, now, workload.check_interval, tracer)
    driver.run_until(end)
    driver.record(samples)
    reopen(stack, samples, tracer)

    def checks(full: bool) -> None:
        # the dirserver serves consensuses and descriptors, not the
        # voting-window documents an authority hands out
        census = stack.net.expected_census(now, end)
        for doctype in (DocType.Vote, DocType.BandwidthList, DocType.DetachedSignature):
            census[doctype] = set()
        check_census(downstream.archive, census, samples)
        if full:
            check_archive(downstream, samples, originals)
            check_archive(service, samples)
            check_index(service, samples)
    return checks


UNITS = {
    "collect-live": collect_live,
    "steady-serve": steady_serve,
    "serve-mirror": serve_mirror,
}
