"""Reference checking: what should exist, what to fetch, what was tried.

Holds the references of every status document (vote, consensus,
detached signature) and server descriptor admitted in the last three
hours, extracted once when the document arrives; filters them against
the archive to produce download expectations; guesses period documents
that should exist by now from the consensus timing alone; keeps the one
ledger of documents every plugin has missed for good; and keeps the
one-attempt ledger that stops a (document, server) pair being asked
twice in the same downloader phase.
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
_ORDER_COUNT = 6


@dataclass(frozen=True)
class _Referrer:
    #: (fetch order, referenced document) pairs
    refs: tuple[tuple[int, DocumentIdentifier], ...]
    added_at: datetime


@dataclass(frozen=True)
class _Guess:
    ident: DocumentIdentifier
    window_end: datetime


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
        self._referrers: dict[str, _Referrer] = {}
        self._guessed: dict[str, _Guess] = {}
        #: permanently missed document -> the end of its window
        self._missed: dict[str, datetime] = {}
        self._attempts: set[tuple[str, str]] = set()
        self._phase_tag: object = None

    # -- referrers ------------------------------------------------------------

    def add_referrer(self, parsed: docparse.ParsedDocument, entry: ArchiveEntry) -> None:
        """Remember what one archived document references, as of its store time."""
        if parsed.doctype not in REFERRER_TYPES:
            raise WrongDocType(f"{parsed.doctype} references nothing worth checking")
        with self._lock:
            if entry.path in self._referrers:
                return
        refs = tuple(
            (_EXPECT_ORDER[ref.doctype], ref)
            for ref in docparse.extract_references(parsed, self.metrics)
            if ref.doctype in _EXPECT_ORDER
        )
        with self._lock:
            self._referrers.setdefault(entry.path, _Referrer(refs, entry.stored_at))
            self.metrics.set_gauge("refchecker.referrers", len(self._referrers))

    def prune(self, now: datetime | None = None) -> int:
        now = now or self.clock.now()
        with self._lock:
            stale = [
                key for key, referrer in self._referrers.items()
                if now - referrer.added_at > REFERRER_WINDOW
            ]
            for key in stale:
                del self._referrers[key]
            for key in [key for key, end in self._missed.items()
                        if now - end > REFERRER_WINDOW]:
                del self._missed[key]
            self.metrics.set_gauge("refchecker.referrers", len(self._referrers))
        return len(stale)

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
        Documents whose window closes unfetched become permanent misses.
        Without timings nothing is guessed; bootstrap fetches the first consensus.
        """
        now = now or self.clock.now()
        if timings is None:
            return []
        period = timings.period_seconds
        elapsed = (now - timings.valid_after).total_seconds()
        current_start = timings.valid_after + timedelta(
            seconds=floor(elapsed / period) * period
        )
        next_start = current_start + timedelta(seconds=period)
        validity = timings.valid_until - timings.valid_after
        out: list[DocumentIdentifier] = []

        def consider(ident: DocumentIdentifier, window_end: datetime) -> None:
            if self.missed(ident):
                return
            key = ident.key()
            if self.archive.contains(ident):
                with self._lock:
                    self._guessed.pop(key, None)
                return
            with self._lock:
                self._guessed.setdefault(key, _Guess(ident, window_end))
            out.append(ident)

        for flavor in (DocType.ConsensusNs, DocType.ConsensusMicrodesc):
            consider(
                DocumentIdentifier(flavor, "", current_start),
                current_start + validity,
            )
        vote_open = next_start - timedelta(
            seconds=timings.vote_seconds + timings.dist_seconds
        )
        if now >= vote_open:
            for auth in self.authorities:
                consider(DocumentIdentifier(DocType.Vote, auth, next_start), next_start)
        sig_open = next_start - timedelta(seconds=timings.dist_seconds)
        if now >= sig_open:
            for auth in self.authorities:
                consider(
                    DocumentIdentifier(DocType.DetachedSignature, auth, next_start),
                    next_start,
                )
        self._expire_guesses(now)
        return out

    def _expire_guesses(self, now: datetime) -> None:
        with self._lock:
            expired = [
                (key, guess) for key, guess in self._guessed.items()
                if now >= guess.window_end
            ]
            for key, guess in expired:
                del self._guessed[key]
                if not self.archive.contains(guess.ident):
                    self.miss(guess.ident, guess.window_end, "window_closed")

    # -- permanent misses ----------------------------------------------------------

    def miss(self, docid: DocumentIdentifier, until: datetime, reason: str) -> None:
        """Record a document missed for good; it is never asked for again.
        ``until`` is the end of its window: `prune` drops the entry once
        that lies more than REFERRER_WINDOW behind."""
        key = docid.key()
        with self._lock:
            self._missed[key] = until
        self.metrics.incr("refchecker.permanently_missed")
        log.info("event=permanently_missed key=%s reason=%s", key, reason)

    def missed(self, docid: DocumentIdentifier) -> bool:
        with self._lock:
            return docid.key() in self._missed

    def permanently_missed_count(self) -> int:
        """Documents missed for good since start, pruned or not."""
        return self.metrics.counter("refchecker.permanently_missed")

    # -- expectations -------------------------------------------------------------

    def expectations(self, now: datetime | None = None) -> list[DocumentIdentifier]:
        """Everything referenced from the window but not archived, in fetch
        order: consensuses, bandwidth lists, server descriptors,
        microdescriptors, then extra-info descriptors."""
        now = now or self.clock.now()
        buckets: list[dict[str, DocumentIdentifier]] = [{} for _ in range(_ORDER_COUNT)]
        with self._lock:
            referrers = list(self._referrers.values())
        for referrer in referrers:
            if now - referrer.added_at > REFERRER_WINDOW:
                continue
            for order, ref in referrer.refs:
                buckets[order].setdefault(ref.key(), ref)
        pending = [
            ident
            for bucket in buckets
            for ident in bucket.values()
            if self.archive.find_by_digests(ident.digests) is None
        ]
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
