"""Reference checking: what is still wanted, until when, and what was tried.

`_wanted` is the one ledger of documents a plugin waits for and has not
yet seen archived: the references of every status document and server
descriptor, extracted once on arrival and wanted for three hours from
its store time (a bandwidth file only until its vote's valid-after);
period documents guessed from the consensus timing, wanted while the
protocol serves them; OnionPerf's measurement days.
`prune` is the one expiry step: a window that closes unarchived makes a
permanent miss, forgotten one referrer window later. The attempt ledger
stops a (document, server) pair being asked twice in one downloader phase.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta
from math import floor

from . import docparse
from .archive import Archive, ArchiveEntry
from .clock import Clock
from .docmodel import ConsensusTimings, DocType, DocumentIdentifier
from .errors import WrongDocType
from .metrics import Metrics

log = logging.getLogger("dircollect.refchecker")

#: a tuple, not a set, so a restart re-admits them in the same order each run
REFERRER_TYPES = (
    DocType.Vote,
    DocType.ConsensusNs,
    DocType.ConsensusMicrodesc,
    DocType.DetachedSignature,
    DocType.ServerDescriptor,
)

#: a reference is wanted through this long after its referrer's store
#: time, both ends included
REFERRER_WINDOW = timedelta(hours=3)

#: Output ordering of expectations. Consensus digests (referenced by
#: detached signatures) come first since everything else hangs off them,
#: then bandwidth lists, then the descriptors, then documents referenced
#: by descriptors.
_EXPECT_ORDER = {
    DocType.ConsensusNs: 0,
    DocType.ConsensusMicrodesc: 1,
    DocType.BandwidthList: 2,
    DocType.ServerDescriptor: 3,
    DocType.Microdescriptor: 4,
    DocType.ExtraInfoDescriptor: 5,
}


@dataclass(frozen=True)
class _Wanted:
    ident: DocumentIdentifier
    #: the first instant it is no longer wanted
    until: datetime
    missed: bool


class ReferenceChecker:
    def __init__(
        self,
        archive: Archive,
        clock: Clock,
        authorities: list[str] | None = None,
        metrics: Metrics | None = None,
    ):
        self.archive = archive
        self.clock = clock
        self.authorities = list(authorities or [])
        self.metrics = metrics or Metrics()
        self._lock = threading.RLock()
        #: key -> a document not yet seen archived, in first-wanted order
        self._wanted: dict[str, _Wanted] = {}
        self._attempts: set[tuple[str, str]] = set()
        self._phase_tag: object = None

    # -- the wanted ledger ------------------------------------------------------

    def _want(self, ident: DocumentIdentifier, until: datetime) -> bool:
        """The one insert: a later window extends an entry and revives it
        if it was missed. True while the document is still to be fetched."""
        key = ident.key()
        with self._lock:
            held = self._wanted.get(key)
            if held is None or until > held.until:
                held = _Wanted(held.ident if held else ident, until, False)
                self._wanted[key] = held
            return not held.missed

    def want(self, ident: DocumentIdentifier, until: datetime) -> bool:
        """`_want` for a document the archive lacks, else forget it."""
        if self.archive.contains(ident):
            with self._lock:
                self._wanted.pop(ident.key(), None)
            return False
        return self._want(ident, until)

    def add_referrer(self, parsed: docparse.ParsedDocument, entry: ArchiveEntry) -> None:
        """Want what one archived document references, as of its store time."""
        if parsed.doctype not in REFERRER_TYPES:
            raise WrongDocType(f"{parsed.doctype} references nothing worth checking")
        until = entry.stored_at + REFERRER_WINDOW + timedelta.resolution
        for ref in docparse.extract_references(parsed, self.metrics):
            ends = until
            if ref.doctype is DocType.BandwidthList and ref.datetime is not None:
                ends = min(until, ref.datetime)  # served until its vote's valid-after
            # a window that closed before its referrer arrived asks for nothing
            if ref.doctype in _EXPECT_ORDER and ends > entry.stored_at:
                self._want(ref, ends)

    def prune(self, now: datetime | None = None) -> None:
        """The one expiry step: an entry whose window closed unarchived
        becomes a `window_closed` miss, which is forgotten REFERRER_WINDOW
        after that."""
        now = now or self.clock.now()
        with self._lock:
            for key, held in list(self._wanted.items()):
                if now < held.until:
                    continue
                if held.missed:
                    if now - held.until > REFERRER_WINDOW:
                        del self._wanted[key]
                elif self.archive.contains(held.ident):
                    del self._wanted[key]
                else:
                    self.miss(held.ident, held.until, "window_closed")

    # -- guessing period documents ---------------------------------------------

    def guess_period_documents(
        self,
        now: datetime | None = None,
        timings: ConsensusTimings | None = None,
    ) -> list[DocumentIdentifier]:
        """Digest-less identifiers for period documents that should exist.

        Consensus flavors are guessed for the period containing now once
        the known consensus is stale; votes and detached signatures are
        guessed for the upcoming period while the protocol actually
        serves them (the voting window and the distribution window).
        Expires the ledger first, so a guess whose window closed
        unfetched is a permanent miss. Without timings nothing is
        guessed; bootstrap fetches the first consensus.
        """
        now = now or self.clock.now()
        self.prune(now)
        if timings is None:
            return []
        period = timings.period_seconds
        elapsed = (now - timings.valid_after).total_seconds()
        current_start = timings.valid_after + timedelta(
            seconds=floor(elapsed / period) * period)
        next_start = current_start + timedelta(seconds=period)
        validity = timings.valid_until - timings.valid_after
        candidates = [
            (DocumentIdentifier(flavor, "", current_start), current_start + validity)
            for flavor in (DocType.ConsensusNs, DocType.ConsensusMicrodesc)
        ]
        vote = timedelta(seconds=timings.vote_seconds)
        dist = timedelta(seconds=timings.dist_seconds)
        for doctype, opens in ((DocType.Vote, next_start - vote - dist),
                               (DocType.DetachedSignature, next_start - dist)):
            if now >= opens:
                candidates += [(DocumentIdentifier(doctype, auth, next_start), next_start)
                               for auth in self.authorities]
        return [ident for ident, until in candidates if self.want(ident, until)]

    # -- permanent misses ----------------------------------------------------------

    def miss(self, docid: DocumentIdentifier, until: datetime, reason: str) -> None:
        """Record a document missed for good; it is never asked for again
        unless a later reference wants it past ``until``, the end of its
        window. `prune` forgets the miss REFERRER_WINDOW after that."""
        key = docid.key()
        with self._lock:
            self._wanted[key] = _Wanted(docid, until, True)
        self.metrics.incr("refchecker.permanently_missed")
        log.info("event=permanently_missed key=%s reason=%s", key, reason)

    def missed(self, docid: DocumentIdentifier) -> bool:
        with self._lock:
            held = self._wanted.get(docid.key())
            return held is not None and held.missed

    def permanently_missed_count(self) -> int:
        """Documents missed for good since start, pruned or not."""
        return self.metrics.counter("refchecker.permanently_missed")

    # -- expectations -------------------------------------------------------------

    def expectations(self, now: datetime | None = None) -> list[DocumentIdentifier]:
        """Every reference still wanted and not archived, in fetch order:
        consensuses, bandwidth lists, server descriptors,
        microdescriptors, then extra-info descriptors. A reference the
        archive now holds leaves the ledger."""
        now = now or self.clock.now()
        with self._lock:
            # references are the digest-addressed entries; guesses and
            # measurement days are addressed by period
            refs = [held.ident for held in self._wanted.values()
                    if not held.missed and now < held.until
                    and not held.ident.digests.empty]
        pending, arrived = [], []
        for ident in refs:
            held = self.archive.find_by_digests(ident.digests) is not None
            (arrived if held else pending).append(ident)
        with self._lock:
            for ident in arrived:
                self._wanted.pop(ident.key(), None)
        pending.sort(key=lambda ident: _EXPECT_ORDER[ident.doctype])
        self.metrics.set_gauge("refchecker.expectations_pending", len(pending))
        return pending

    # -- attempt ledger --------------------------------------------------------------

    def record_attempt(self, docid: DocumentIdentifier, server_id: str, phase) -> bool:
        """True exactly once per (document, server) per phase.

        ``phase`` is any equality-comparable tag; a change of tag clears
        the ledger, which is how "until the next phase" is enforced.
        Documents are keyed by digest when they have one and by their
        period identity otherwise, so guessed documents are gated too.
        """
        key = (docid.key(), server_id)
        with self._lock:
            if phase != self._phase_tag:
                self._attempts.clear()
                self._phase_tag = phase
                log.info("event=phase_change phase=%r", phase)
            if key in self._attempts:
                return False
            self._attempts.add(key)
            return True
