"""Tests for reference checking: the wanted ledger, guesses, attempts."""

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sample_docs
from dircollect import docparse
from dircollect.archive import Archive
from dircollect.clock import ManualClock
from dircollect.docmodel import DigestSet, DocType, DocumentIdentifier
from dircollect.errors import WrongDocType
from dircollect.metrics import Metrics
from dircollect.refchecker import ReferenceChecker
from dircollect.scheduler import Phase


def ts(hour, minute=0, second=0, day=15):
    return datetime(2018, 11, day, hour, minute, second, tzinfo=timezone.utc)


AUTHS = ["AA" * 20, "BB" * 20, "CC" * 20]


@pytest.fixture
def clock():
    return ManualClock(ts(19, 5))


@pytest.fixture
def archive(tmp_path, clock):
    return Archive(tmp_path / "data", clock)


@pytest.fixture
def checker(archive, clock):
    return ReferenceChecker(archive, clock, authorities=AUTHS, metrics=Metrics())


def checker_at(tmp_path, now):
    """An archive and a checker whose clock starts at ``now``."""
    clock = ManualClock(now)
    archive = Archive(tmp_path / "at", clock)
    return archive, ReferenceChecker(archive, clock, authorities=AUTHS, metrics=Metrics())


def make_parsed(body, clock):
    raw = docparse.make_raw(body, "test", clock.now())
    return docparse.parse(raw), raw


def admit(archive, checker, body):
    """Archive a document and hand it to the checker, as the relaydescs
    plugin does for every newly stored document."""
    parsed, raw = make_parsed(body, checker.clock)
    entry = archive.store(raw)
    checker.add_referrer(parsed, entry)
    return entry


def timings():
    parsed, _ = make_parsed(sample_docs.CONSENSUS_NS, ManualClock(ts(19, 5)))
    return docparse.extract_timings(parsed)


class TestStartingPoints:
    def test_accepts_status_documents(self, tmp_path):
        # each referrer type adds references of a kind of its own; the
        # vote's bandwidth list only before the vote's 19:00 valid-after
        archive, checker = checker_at(tmp_path, ts(18, 55))
        for body, kind in (
            (sample_docs.CONSENSUS_NS, DocType.ServerDescriptor),
            (sample_docs.VOTE, DocType.BandwidthList),
            (sample_docs.CONSENSUS_MD, DocType.Microdescriptor),
            (sample_docs.SAMPLE_DETACHED_SIGNATURE, DocType.ConsensusNs),
            (sample_docs.SERVER_DESCRIPTOR, DocType.ExtraInfoDescriptor),
        ):
            assert kind not in {p.doctype for p in checker.expectations()}
            admit(archive, checker, body)
            assert kind in {p.doctype for p in checker.expectations()}

    def test_rejects_descriptor_types(self, archive, checker):
        for body in (sample_docs.EXTRA_INFO, sample_docs.MICRODESCRIPTOR):
            with pytest.raises(WrongDocType):
                admit(archive, checker, body)

    def test_duplicate_add_keeps_one_entry(self, archive, checker, clock):
        entry = admit(archive, checker, sample_docs.VOTE)
        first = checker.expectations()
        # three descriptors; the bandwidth list's window closed at 19:00
        assert [p.doctype for p in first] == [DocType.ServerDescriptor] * 3
        clock.set(ts(22, 0))
        parsed, _ = make_parsed(sample_docs.VOTE, clock)
        checker.add_referrer(parsed, entry)
        assert checker.expectations() == first
        # the window still runs from the entry's store time, not the re-add
        assert checker.expectations(now=ts(22, 5, 1)) == []

    def test_prune_window_boundaries(self, archive, checker):
        admit(archive, checker, sample_docs.VOTE)  # added at 19:05
        wanted = checker.expectations()
        # the bandwidth list's window closed at 19:00, before the vote came
        assert DocType.BandwidthList not in {p.doctype for p in wanted}

        for now in (ts(22, 4), ts(22, 5)):  # 2h59m, then exactly 3h: kept
            checker.prune(now)
            assert checker.expectations(now) == wanted
        assert checker.permanently_missed_count() == 0
        checker.prune(ts(22, 5, 1))  # 3h1s old: gone
        assert checker.expectations(ts(22, 5, 1)) == []
        assert all(checker.missed(ident) for ident in wanted)
        checker.prune(ts(22, 5, 1))  # idempotent
        assert checker.permanently_missed_count() == len(wanted)

    def test_bandwidth_list_wanted_until_its_votes_valid_after(self, tmp_path):
        archive, checker = checker_at(tmp_path, ts(18, 55))
        admit(archive, checker, sample_docs.VOTE)

        def bandwidth(now):
            return [p for p in checker.expectations(now) if p.doctype is DocType.BandwidthList]

        (wanted,) = bandwidth(ts(18, 55))
        assert bandwidth(ts(18, 59, 59)) == [wanted]
        checker.prune(ts(18, 59, 59))
        assert not checker.missed(wanted)
        assert bandwidth(ts(19, 0)) == []
        checker.prune(ts(19, 0, 1))
        assert checker.missed(wanted)
        assert checker.permanently_missed_count() == 1  # the descriptors are still wanted

    def test_unserved_reference_is_missed_once_at_its_window_end(
            self, archive, checker, clock):
        for body in (sample_docs.BANDWIDTH_LIST, sample_docs.SERVER_DESCRIPTOR):
            archive.store(docparse.make_raw(body, "test", clock.now()))
        admit(archive, checker, sample_docs.VOTE)  # at 19:05
        unserved = checker.expectations()
        assert [p.digests.sha1_hex for p in unserved] == sample_docs.VOTE_SD_DIGESTS[1:]

        checker.prune(ts(22, 5))
        assert not any(checker.missed(ident) for ident in unserved)
        for now in (ts(22, 5, 1), ts(22, 30), ts(23, 0)):
            checker.prune(now)
            assert checker.permanently_missed_count() == 2
            assert all(checker.missed(ident) for ident in unserved)
            assert checker.expectations(now) == []

    def test_later_referrer_wants_a_missed_reference_again(self, archive, checker, clock):
        admit(archive, checker, sample_docs.VOTE)  # at 19:05
        checker.prune(ts(22, 5, 1))
        clock.set(ts(23, 0))
        # the ns consensus references the first two of the vote's descriptors
        admit(archive, checker, sample_docs.CONSENSUS_NS)
        again = [p.digests.sha1_hex for p in checker.expectations()]
        assert again == sample_docs.CONSENSUS_NS_SD_DIGESTS
        left = DocumentIdentifier(DocType.ServerDescriptor, "", None, DigestSet(
            sha1_hex=sample_docs.VOTE_SD_DIGESTS[2]))
        assert checker.missed(left)
        # wanted until the new referrer's window closes, then missed again
        checker.prune(ts(2, 0, 1, day=16))
        # the vote's three descriptors, then two again; its bandwidth
        # list's window closed at 19:00, before the vote came
        assert checker.permanently_missed_count() == 3 + 2


class TestGuessing:
    def test_missing_flavor_guessed_for_current_period(self, archive, checker, clock):
        archive.store(docparse.make_raw(sample_docs.CONSENSUS_NS, "test", clock.now()))
        guesses = checker.guess_period_documents(now=ts(19, 5), timings=timings())
        assert [g.doctype for g in guesses] == [DocType.ConsensusMicrodesc]
        assert guesses[0].datetime == ts(19, 0)

    def test_vote_window_opens_before_fresh_until(self, checker):
        tm = timings()
        early = checker.guess_period_documents(now=ts(19, 49, 59), timings=tm)
        assert all(g.doctype is not DocType.Vote for g in early)

        # fresh-until 20:00 minus (vote 300 + dist 300) = 19:50
        open_ = checker.guess_period_documents(now=ts(19, 50), timings=tm)
        votes = [g for g in open_ if g.doctype is DocType.Vote]
        assert sorted(v.subject for v in votes) == AUTHS
        assert all(v.datetime == ts(20, 0) for v in votes)
        assert all(g.doctype is not DocType.DetachedSignature for g in open_)

    def test_signature_window_opens_at_dist_delay(self, checker):
        tm = timings()
        guesses = checker.guess_period_documents(now=ts(19, 55), timings=tm)
        sigs = [g for g in guesses if g.doctype is DocType.DetachedSignature]
        assert sorted(s.subject for s in sigs) == AUTHS
        assert all(s.datetime == ts(20, 0) for s in sigs)

    def test_archived_period_documents_not_guessed(self, archive, checker, clock):
        ident = DocumentIdentifier(DocType.Vote, AUTHS[0], ts(20, 0))
        raw = docparse.make_raw(sample_docs.VOTE, "test", clock.now())
        archive.store(raw, ident=ident)
        guesses = checker.guess_period_documents(now=ts(19, 50), timings=timings())
        votes = [g for g in guesses if g.doctype is DocType.Vote]
        assert sorted(v.subject for v in votes) == AUTHS[1:]

    def test_window_close_marks_permanent_misses(self, checker):
        tm = timings()
        checker.guess_period_documents(now=ts(19, 55), timings=tm)
        assert checker.permanently_missed_count() == 0

        # Nothing got archived; at 20:00 both windows for that period close.
        late = checker.guess_period_documents(now=ts(20, 0), timings=tm)
        assert checker.permanently_missed_count() == 6  # 3 votes + 3 sigs

        # Missed documents are never guessed again; only the new period's
        # consensus flavors come back (votes/sigs windows not open yet, and
        # the 19:00 microdesc flavor is no longer reachable via current/).
        types = [g.doctype for g in late]
        assert types == [DocType.ConsensusNs, DocType.ConsensusMicrodesc]
        assert {g.datetime for g in late} == {ts(20, 0)}

        # Not even from inside their windows again.
        again = checker.guess_period_documents(now=ts(19, 55), timings=tm)
        assert [g.doctype for g in again] == [DocType.ConsensusNs,
                                              DocType.ConsensusMicrodesc]

        # The unfetched 19:00 flavors expire with their validity window.
        checker.guess_period_documents(now=ts(22, 0), timings=tm)
        assert checker.permanently_missed_count() == 8

    def test_guess_window_end_is_exclusive(self, checker):
        tm = timings()
        guessed = checker.guess_period_documents(now=ts(19, 55), timings=tm)
        votes = [g for g in guessed if g.doctype is DocType.Vote]
        late = checker.guess_period_documents(now=ts(19, 59, 59), timings=tm)
        assert [g for g in late if g.doctype is DocType.Vote] == votes
        assert checker.permanently_missed_count() == 0
        checker.guess_period_documents(now=ts(20, 0), timings=tm)
        assert all(checker.missed(v) for v in votes)

    def test_pruning_keeps_the_missed_ledger_to_one_window(self, checker):
        # A day of guessing with nothing ever served: each hourly period
        # misses 3 votes, 3 signatures and 2 consensus flavors for good.
        tm = timings()
        now = ts(19, 5)
        guessed = {}
        while now < ts(19, 5, day=16):
            for ident in checker.guess_period_documents(now=now, timings=tm):
                guessed[ident.key()] = ident
            checker.prune(now)
            now += timedelta(minutes=5)
        assert checker.permanently_missed_count() > 8 * 23
        # only misses whose window closed in the last 3 h (both ends
        # included: four periods) are kept
        kept = [ident for ident in guessed.values() if checker.missed(ident)]
        assert 0 < len(kept) <= 8 * 4
        assert not checker.missed(DocumentIdentifier(DocType.Vote, AUTHS[0], ts(20, 0)))


class TestExpectations:
    def test_order_and_archive_filtering(self, tmp_path):
        # at 18:55 the vote's bandwidth list is still served
        archive, checker = checker_at(tmp_path, ts(18, 55))
        for body in (sample_docs.VOTE, sample_docs.SAMPLE_DETACHED_SIGNATURE,
                     sample_docs.SERVER_DESCRIPTOR):
            admit(archive, checker, body)

        pending = checker.expectations()
        kinds = [p.doctype for p in pending]
        # Both consensus flavors first (from the detached signature), the
        # bandwidth list next, the two not-yet-archived descriptors, and
        # finally the extra-info referenced by the descriptor we stored.
        assert kinds == [
            DocType.ConsensusNs,
            DocType.ConsensusMicrodesc,
            DocType.BandwidthList,
            DocType.ServerDescriptor,
            DocType.ServerDescriptor,
            DocType.ExtraInfoDescriptor,
        ]
        sd_digests = {p.digests.sha1_hex for p in pending
                      if p.doctype is DocType.ServerDescriptor}
        assert sd_digests == set(sample_docs.VOTE_SD_DIGESTS[1:])
        assert checker.metrics.gauge("refchecker.expectations_pending") == 6

    def test_extra_info_follows_archived_descriptors(self, archive, checker, clock):
        admit(archive, checker, sample_docs.SERVER_DESCRIPTOR)
        pending = checker.expectations()
        assert [p.doctype for p in pending] == [DocType.ExtraInfoDescriptor]
        assert pending[0].digests.sha1_hex == sample_docs.EXTRA_INFO_SHA1

        archive.store(docparse.make_raw(sample_docs.EXTRA_INFO, "test", clock.now()))
        assert checker.expectations() == []

    def test_descriptors_age_out_of_the_walk(self, archive, checker, clock):
        admit(archive, checker, sample_docs.SERVER_DESCRIPTOR)
        clock.set(clock.now() + timedelta(hours=4))
        assert checker.expectations() == []

    def test_duplicate_references_collapse(self, archive, checker):
        # The ns consensus and the vote both point at the same descriptor.
        for body in (sample_docs.VOTE, sample_docs.CONSENSUS_NS):
            admit(archive, checker, body)
        pending = checker.expectations()
        sds = [p for p in pending if p.doctype is DocType.ServerDescriptor]
        assert len(sds) == 3  # not 5: two shared digests counted once

    def test_references_extracted_once_per_referrer(self, archive, checker, monkeypatch):
        calls = []
        extract = docparse.extract_references

        def counting(parsed, metrics=None):
            calls.append(parsed.doctype)
            return extract(parsed, metrics)

        monkeypatch.setattr(docparse, "extract_references", counting)
        for body in (sample_docs.VOTE, sample_docs.SERVER_DESCRIPTOR):
            admit(archive, checker, body)
        archive.store(docparse.make_raw(sample_docs.CONSENSUS_NS, "test", checker.clock.now()))
        first = checker.expectations()
        for _ in range(3):
            assert checker.expectations() == first
        assert calls == [DocType.Vote, DocType.ServerDescriptor]


class TestAttemptLedger:
    def d(self, n):
        return DocumentIdentifier(
            DocType.ServerDescriptor, "", None,
            DigestSet.build(sha1=n.to_bytes(20, "big")),
        )

    def test_once_per_document_server_and_phase(self, checker):
        alpha, beta = (3, Phase.Alpha), (3, Phase.Beta)
        assert checker.record_attempt(self.d(1), "auth-0", alpha)
        assert not checker.record_attempt(self.d(1), "auth-0", alpha)
        assert checker.record_attempt(self.d(1), "auth-1", alpha)
        assert checker.record_attempt(self.d(2), "auth-0", alpha)
        # Phase change clears the whole ledger.
        assert checker.record_attempt(self.d(1), "auth-0", beta)
        assert not checker.record_attempt(self.d(1), "auth-0", beta)

    def test_digestless_documents_keyed_by_period(self, checker):
        a = DocumentIdentifier(DocType.Vote, AUTHS[0], ts(20, 0))
        b = DocumentIdentifier(DocType.Vote, AUTHS[0], ts(20, 0))
        tag = (1, Phase.Alpha)
        assert checker.record_attempt(a, "auth-0", tag)
        assert not checker.record_attempt(b, "auth-0", tag)  # same identity

    @given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["a", "b", "c"])),
                    max_size=40))
    def test_first_attempt_wins_within_a_phase(self, seq):
        checker = ReferenceChecker(
            Archive.__new__(Archive), ManualClock(ts(19, 0)), authorities=[]
        )
        seen = set()
        tag = (0, Phase.Alpha)
        for n, server in seq:
            expected = (n, server) not in seen
            seen.add((n, server))
            assert checker.record_attempt(self.d(n), server, tag) == expected
