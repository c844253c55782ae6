"""Pluggable document collectors and the host that drives them.

A plugin names the documents it wants (`expectations`) and knows how to
fetch them; the host owns every archive write and every parse: it parses
each new document once, identifies and stores it, and hands the parse to
the plugin's `admit`. Every scheduled fetch is one host cycle, which
repeats the expectations -> fetch -> store loop until a round stops
producing new documents, offers each identifier once, and runs one cycle
per plugin at a time. Two collectors ship in-tree: `relaydescs` for the
directory protocol and `onionperf` for daily measurement files.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

from . import docparse
from .archive import Archive, ArchiveEntry
from .clock import Clock
from .docmodel import DocType, DocumentIdentifier, RawDocument
from .errors import CollectorError, FetchError, PermanentMiss, PluginInitError
from .fetcher import BATCH_URLS, DOCUMENT_URLS, ONIONPERF_SIZES, Fetcher, ServerEndpoint
from .metrics import Metrics
from .refchecker import REFERRER_TYPES, REFERRER_WINDOW, ReferenceChecker
from .scheduler import Phase, Scheduler

log = logging.getLogger("dircollect.plugins")

MAX_ROUNDS = 10

_CONSENSUS_TYPES = frozenset({DocType.ConsensusNs, DocType.ConsensusMicrodesc})

FetchResult = list[tuple[DocumentIdentifier | None, RawDocument]]


@dataclass(frozen=True)
class TasksConfig:
    """relaydescs' jobs: the config file's ``tasks`` section."""

    reference_check_interval: float = 30.0
    greedy_enabled: bool = False
    greedy_interval: float = 3600.0


@dataclass(frozen=True)
class OnionPerfConfig:
    """The config file's ``onionperf`` section."""

    #: (source, base URL) per measurement host
    hosts: tuple[tuple[str, str], ...] = ()
    sizes: tuple[int, ...] = ONIONPERF_SIZES
    daily_at: str = "00:15"


@dataclass
class PluginContext:
    """Everything a plugin may lean on, assembled once by the service."""

    archive: Archive
    fetcher: Fetcher
    clock: Clock
    scheduler: Scheduler
    refchecker: ReferenceChecker
    host: PluginHost
    servers: list[ServerEndpoint] = field(default_factory=list)
    tasks: TasksConfig = TasksConfig()
    onionperf: OnionPerfConfig = OnionPerfConfig()
    metrics: Metrics = field(default_factory=Metrics)


class Plugin:
    """One document family: name what you want, fetch what you can.

    The host archives whatever `fetch_many` hands back; a pair may carry
    an explicit identifier when the plugin knows more about the document
    than its bytes do (e.g. which day a measurement file belongs to).
    """

    name = "plugin"

    def __init__(self, context: PluginContext):
        self.host = context.host
        self.archive = context.archive
        self.fetcher = context.fetcher
        self.clock = context.clock
        self.refchecker = context.refchecker

    def expectations(self) -> list[DocumentIdentifier]:
        """Wanted documents the archive lacks; the host fetches every one."""
        return []

    def fetch(self, docid: DocumentIdentifier) -> list[RawDocument]:
        raise NotImplementedError

    def fetch_many(
        self, docids: list[DocumentIdentifier]
    ) -> tuple[FetchResult, list[DocumentIdentifier]]:
        pairs: FetchResult = []
        unfetched: list[DocumentIdentifier] = []
        for docid in docids:
            try:
                docs = self.fetch(docid)
            except FetchError as exc:
                log.info("event=fetch_failed plugin=%s doc=%s error=%r",
                         self.name, docid.key(), exc)
                unfetched.append(docid)
                continue
            if len(docs) == 1:
                pairs.append((docid, docs[0]))
            elif docs:
                pairs.extend((None, raw) for raw in docs)
            else:
                unfetched.append(docid)
        return pairs, unfetched

    def admit(self, entry: ArchiveEntry,
              parsed: docparse.ParsedDocument | None) -> None:
        """Called by the host once for each newly archived document, with
        its `docparse.parse_admitted` parse."""

    def seed(self) -> None:
        """Called once at start to adopt what a previous run archived."""

    def register_jobs(self, scheduler: Scheduler) -> None:
        """Hook for plugins that want scheduler time."""

    def run_once(self) -> int:
        """One collection cycle; returns documents stored."""
        return self.host.run_cycle(self)


class PluginHost:
    """Owns archive writes and parses; plugins only produce documents."""

    def __init__(self, archive: Archive, metrics: Metrics | None = None):
        self.archive = archive
        self.metrics = metrics or Metrics()
        self._cycle_locks: dict[Plugin, threading.Lock] = {}
        self._guard = threading.Lock()

    def store(self, plugin: Plugin, raw: RawDocument,
              ident: DocumentIdentifier | None = None) -> bool:
        """Archive one document; returns True when it was new. A new one's
        one parse identifies it (unless ``ident`` does) and goes to `admit`."""
        if self.archive.find_by_digests(raw.digests) is not None:
            return False
        parsed = docparse.parse_admitted(raw)
        entry = self.archive.store(raw, ident or docparse.identify(raw, parsed))
        self.metrics.incr(f"plugins.{plugin.name}.archived")
        try:
            plugin.admit(entry, parsed)
        except Exception as exc:  # a bad document must not kill the cycle
            log.warning("event=admit_failed plugin=%s path=%s error=%r",
                        plugin.name, entry.path, exc)
        return True

    def run_cycle(self, plugin: Plugin, max_rounds: int = MAX_ROUNDS) -> int:
        """Drive one plugin to a fixed point; returns new documents stored.

        Each round re-asks the plugin what is still missing, so documents
        discovered by earlier rounds (a vote referencing descriptors, a
        descriptor referencing its extra-info) get picked up before the
        cycle ends. Each identifier is offered once: one a round could not
        fetch waits for a later cycle. A round that archives nothing new
        ends the cycle. A plugin runs one cycle at a time, so two of its
        jobs never hunt the same document at once; other plugins' cycles
        do not wait.
        """
        with self._guard:
            lock = self._cycle_locks.setdefault(plugin, threading.Lock())
        total = 0
        offered: set[str] = set()
        with lock:
            for _ in range(max_rounds):
                pending = [ident for ident in plugin.expectations()
                           if ident.key() not in offered]
                if not pending:
                    break
                offered.update(ident.key() for ident in pending)
                pairs, unfetched = plugin.fetch_many(pending)
                fresh = sum(
                    1 for ident, raw in pairs if self.store(plugin, raw, ident)
                )
                if unfetched:
                    log.info("event=cycle_unfetched plugin=%s count=%d",
                             plugin.name, len(unfetched))
                total += fresh
                if fresh == 0:
                    break
        self.metrics.incr(f"plugins.{plugin.name}.cycles")
        return total


# --- the directory-protocol collector ----------------------------------------


class RelayDescsPlugin(Plugin):
    """Consensuses, votes, signatures, descriptors and bandwidth files.

    Wires four jobs onto the scheduler: a bootstrap fetch of the current
    consensus, eager passes timed for next-period votes and detached
    signatures, a periodic reference check, and (off unless configured) a
    greedy sweep of everything each authority volunteers. After the
    bootstrap fetch, every job but the sweep runs one host cycle. Every
    digest-addressed attempt goes through the reference checker's
    per-phase attempt ledger, so no (document, server) pair is asked
    twice within one phase.
    """

    name = "relaydescs"

    def __init__(self, context: PluginContext):
        if not context.servers:
            raise PluginInitError("relaydescs needs at least one directory server")
        super().__init__(context)
        self.scheduler = context.scheduler
        self.servers = list(context.servers)
        self.tasks = context.tasks
        self.check_interval = context.tasks.reference_check_interval

    # -- scheduling ----------------------------------------------------------

    def register_jobs(self, scheduler: Scheduler) -> None:
        scheduler.add_bootstrap(self.bootstrap_and_check)
        scheduler.add_eager_votes(self.eager_votes)
        scheduler.add_eager_signatures(self.eager_signatures)
        scheduler.add_interval("reference-check", self.check_references,
                               self.check_interval)
        if self.tasks.greedy_enabled:
            scheduler.add_interval("greedy-discovery", self.greedy_discovery,
                                   self.tasks.greedy_interval)

    def bootstrap(self) -> None:
        """First consensus; raising lets the scheduler back off and retry.

        The consensus is adopted through `admit`, so one that is no longer
        valid sets no schedule and the next authority is asked.
        """
        if self.scheduler.timings is not None:
            return
        failures = 0
        for server in self._authorities():
            try:
                raw = self.fetcher.fetch(server, DocType.ConsensusNs)
            except FetchError as exc:
                log.info("event=bootstrap_attempt_failed server=%s error=%r",
                         server.server_id, exc)
                failures += 1
                continue
            if raw.doctype in _CONSENSUS_TYPES and not self.host.store(self, raw):
                self.admit(self.archive.find_by_digests(raw.digests),
                           docparse.parse_admitted(raw))
            if self.scheduler.timings is not None:
                return
            log.warning("event=bootstrap_no_timings server=%s", server.server_id)
            failures += 1
        raise FetchError(f"bootstrap failed against {failures} authorities")

    def bootstrap_and_check(self):
        """Scheduled bootstrap: chase the fresh consensus's references right
        away instead of waiting out the next reference-check slot."""
        self.bootstrap()
        self.check_references()

    def check_references(self) -> int:
        """One reference-check cycle; returns documents stored."""
        if self.scheduler.timings is None:
            # bootstrap owns discovery (with its own backoff) until a
            # first consensus exists; probing here would double up on it
            return 0
        return self.host.run_cycle(self)

    # timed to open windows, the cycle guesses the votes or signatures
    # just published and chases their references at once
    eager_votes = eager_signatures = check_references

    def run_once(self) -> int:
        try:
            self.bootstrap()
        except FetchError as exc:
            log.warning("event=bootstrap_failed error=%r", exc)
            return 0
        return self.check_references()

    def greedy_discovery(self) -> None:
        """Sweep each authority's voluntary listings once, no retries."""
        for doctype in (DocType.ExtraInfoDescriptor, DocType.ServerDescriptor):
            for server in self._authorities():
                if doctype is DocType.ExtraInfoDescriptor and not server.serves_extra_info():
                    continue
                for raw in self.fetcher.fetch_all_descriptors(server, doctype):
                    self.host.store(self, raw)

    # -- the plugin contract --------------------------------------------------

    def expectations(self) -> list[DocumentIdentifier]:
        now = self.clock.now()
        guesses = self.refchecker.guess_period_documents(
            now, self.scheduler.timings)
        refs = self.refchecker.expectations(now)
        # both hunts of a consensus ask for its period's URL, so a guess
        # beside a digest reference would only ask the next server again
        hunted = {(ref.doctype, ref.datetime) for ref in refs
                  if ref.doctype in _CONSENSUS_TYPES}
        return [g for g in guesses if (g.doctype, g.datetime) not in hunted] + refs

    def fetch_many(self, docids):
        pairs: FetchResult = []
        unfetched: list[DocumentIdentifier] = []
        batches: dict[DocType, list[DocumentIdentifier]] = {}
        singles: list[DocumentIdentifier] = []
        for docid in docids:
            if docid.doctype in BATCH_URLS and not docid.digests.empty:
                batches.setdefault(docid.doctype, []).append(docid)
            else:
                singles.append(docid)
        for doctype, group in batches.items():
            docs, left = self.fetcher.fetch_batch(
                doctype, group, self._preference(), gate=self._gate)
            pairs.extend((None, raw) for raw in docs)
            unfetched.extend(left)
        # a response is placed by its own bytes: a consensus hunt may
        # answer with a variant other than the one asked for
        single_pairs, left = super().fetch_many(singles)
        pairs.extend((None, raw) for _, raw in single_pairs)
        unfetched.extend(left)
        return pairs, unfetched

    def fetch(self, docid: DocumentIdentifier) -> list[RawDocument]:
        if docid.doctype in _CONSENSUS_TYPES:
            return self._fetch_consensus(docid)
        if docid.doctype in DOCUMENT_URLS:
            return self._fetch_from_authority(docid)
        raise FetchError(f"relaydescs cannot fetch {docid.key()}")

    def admit(self, entry, parsed) -> None:
        """Make a status or server descriptor a referrer; a consensus that
        is still valid also sets the schedule. Idempotent."""
        if entry.doctype not in REFERRER_TYPES:
            return
        if parsed is None:
            log.warning("event=admit_unparsed path=%s", entry.path)
            return
        self.refchecker.add_referrer(parsed, entry)
        if entry.doctype in _CONSENSUS_TYPES:
            try:
                timings = docparse.extract_timings(parsed)
                if timings.valid_until > self.clock.now():
                    self.scheduler.set_timings(timings)
            except CollectorError as exc:
                log.warning("event=timings_rejected path=%s error=%r",
                            entry.path, exc)

    def seed(self) -> None:
        """Re-admit the statuses and server descriptors stored within the
        referrer window, as if they had just arrived."""
        since = self.clock.now() - REFERRER_WINDOW
        for doctype in REFERRER_TYPES:
            for entry in self.archive.of_type(doctype, since):
                try:
                    raw = self.archive.load_entry(entry)
                except (CollectorError, OSError) as exc:
                    log.warning("event=referrer_unloadable path=%s error=%r",
                                entry.path, exc)
                    continue
                self.admit(entry, docparse.parse_admitted(raw))

    # -- fetch strategies ------------------------------------------------------

    def _fetch_from_authority(self, docid: DocumentIdentifier) -> list[RawDocument]:
        server = self._endpoint_for(docid.subject)
        if server is None:
            raise FetchError(f"no endpoint for {docid.subject[:16]}")
        if not self._gate(docid, server.server_id):
            return []
        return [self.fetcher.fetch(server, docid.doctype)]

    def _fetch_consensus(self, docid: DocumentIdentifier) -> list[RawDocument]:
        """Hunt one flavor's consensus for one period across servers.

        Servers may disagree about the current consensus (a vote split),
        so every response is kept for archiving even when it is not the
        one asked for. The hunt stops at the first response when any
        variant will do (no digests), else at the first digest match.

        Attempts are recorded against the period, not the digest: every
        hunt for this flavor and period asks the same URL, and a server's
        answer to it will not change within a phase.
        """
        if docid.datetime is not None and self.clock.now() < docid.datetime:
            return []  # not published yet; keep the per-phase attempts
        if self.archive.find_by_digests(docid.digests) is not None:
            return []  # arrived since the cycle's to-do list was drawn up
        period_docid = DocumentIdentifier(docid.doctype, "", docid.datetime)
        docs: list[RawDocument] = []
        for server in self._preference():
            if not self._gate(period_docid, server.server_id):
                continue
            try:
                raw = self.fetcher.fetch(server, docid.doctype)
            except FetchError as exc:
                log.info("event=consensus_fetch_failed server=%s error=%r",
                         server.server_id, exc)
                continue
            docs.append(raw)
            if docid.digests.empty or raw.digests.matches(docid.digests):
                break
        return docs

    # -- plumbing ---------------------------------------------------------------

    def _gate(self, docid: DocumentIdentifier, server_id: str) -> bool:
        return self.refchecker.record_attempt(
            docid, server_id, self.scheduler.phase_token())

    def _authorities(self) -> list[ServerEndpoint]:
        return [s for s in self.servers if s.is_authority]

    def _preference(self) -> list[ServerEndpoint]:
        """Server order for the current phase.

        Right after a consensus appears we behave like a directory cache
        and sync straight from the authorities; later in the period we
        behave like a client and spare them where caches exist.
        """
        if self.scheduler.phase() is Phase.Alpha:
            return self._authorities() or list(self.servers)
        caches = [s for s in self.servers if not s.is_authority]
        return caches + self._authorities()

    def _endpoint_for(self, fingerprint: str) -> ServerEndpoint | None:
        for server in self.servers:
            if server.server_id.upper() == fingerprint.upper():
                return server
        return None


# --- the measurement collector -----------------------------------------------


class OnionPerfPlugin(Plugin):
    """Daily `.tpf` files from measurement hosts.

    Each day's files are collected the morning after; a missing file is
    retried on later days while it is still fresh. A 404, or a day still
    missing when its window closes, becomes a permanent miss in the
    reference checker's wanted ledger, and is never asked for again.
    """

    name = "onionperf"
    RETAIN_DAYS = 3

    def __init__(self, context: PluginContext):
        if not context.onionperf.hosts:
            raise PluginInitError("onionperf enabled with no hosts")
        super().__init__(context)
        self.hosts = dict(context.onionperf.hosts)
        self.sizes = context.onionperf.sizes
        self.daily_at = context.onionperf.daily_at

    def register_jobs(self, scheduler: Scheduler) -> None:
        scheduler.add_daily("onionperf", self.run_once, at=self.daily_at)

    def expectations(self) -> list[DocumentIdentifier]:
        now = self.clock.now()
        self.refchecker.prune(now)
        today = now.date()
        out: list[DocumentIdentifier] = []
        for source in sorted(self.hosts):
            for size in self.sizes:
                for back in range(1, self.RETAIN_DAYS + 1):
                    ident = self._ident(source, size,
                                        today - timedelta(days=back))
                    if self.refchecker.want(ident, self._window_end(ident)):
                        out.append(ident)
        return out

    def fetch(self, docid: DocumentIdentifier) -> list[RawDocument]:
        source, _, size = docid.subject.rpartition("-")
        base = self.hosts.get(source)
        if base is None or docid.datetime is None:
            raise FetchError(f"unroutable measurement {docid.key()}")
        try:
            raw = self.fetcher.fetch_onionperf(
                base, source, int(size), docid.datetime.date())
        except PermanentMiss:
            self.refchecker.miss(docid, self._window_end(docid), "gone")
            raise
        return [raw]

    def _window_end(self, docid: DocumentIdentifier) -> datetime:
        """Asked for up to RETAIN_DAYS after its day, so wanted until then."""
        return docid.datetime + timedelta(days=self.RETAIN_DAYS + 1)

    @staticmethod
    def _ident(source: str, size: int, day) -> DocumentIdentifier:
        when = datetime(day.year, day.month, day.day, tzinfo=timezone.utc)
        return DocumentIdentifier(DocType.TorperfResults,
                                  f"{source}-{size}", when)


# --- registry -----------------------------------------------------------------

BUILTIN: dict[str, type[Plugin]] = {
    "relaydescs": RelayDescsPlugin,
    "onionperf": OnionPerfPlugin,
}


def discover(names: list[str], context: PluginContext) -> list[Plugin]:
    """Instantiate the named `BUILTIN` plugins; a broken one never stops
    the rest: a plugin whose constructor blows up is logged, counted and
    skipped."""
    plugins: list[Plugin] = []
    for name in names:
        cls = BUILTIN[name]
        try:
            plugin = cls(context)
        except Exception as exc:
            context.metrics.incr("plugins.init_failures")
            log.error("event=plugin_init_failed plugin=%s error=%r", name, exc)
            continue
        plugins.append(plugin)
    return plugins
