import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_digests as oracle
import sample_docs as docs
from dircollect import docparse
from dircollect.docmodel import DocType, RawDocument, b64_to_hex, parse_ts
from dircollect.errors import (
    DigestRangeNotFound,
    InvalidTimings,
    MalformedDocument,
    MissingTimingField,
    UnrecognizedDocument,
    WrongDocType,
)
from dircollect.metrics import Metrics

NOW = datetime(2018, 11, 15, 19, 5, 0, tzinfo=timezone.utc)


def raw_of(body, doctype=None):
    return docparse.make_raw(body, source="test", retrieved_at=NOW, doctype=doctype)


# --- oracle sanity -------------------------------------------------------

def test_oracle_empty_range_sentinel():
    assert oracle.sha1_hex(b"") == "DA39A3EE5E6B4B0D3255BFEF95601890AFD80709"


# --- detect_type ---------------------------------------------------------

DETECT_CASES = [
    (docs.CONSENSUS_NS, DocType.ConsensusNs),
    (docs.CONSENSUS_MD, DocType.ConsensusMicrodesc),
    (docs.VOTE, DocType.Vote),
    (docs.SAMPLE_DETACHED_SIGNATURE, DocType.DetachedSignature),
    (docs.SERVER_DESCRIPTOR, DocType.ServerDescriptor),
    (docs.EXTRA_INFO, DocType.ExtraInfoDescriptor),
    (docs.MICRODESCRIPTOR, DocType.Microdescriptor),
    (docs.BANDWIDTH_LIST, DocType.BandwidthList),
    (docs.TORPERF, DocType.TorperfResults),
]


@pytest.mark.parametrize("body,expected", DETECT_CASES, ids=[t.value for _, t in DETECT_CASES])
def test_detect_type(body, expected):
    assert docparse.detect_type(body) is expected


def test_detect_type_consumes_annotation():
    annotated = b"@type server-descriptor 1.0\n" + docs.SERVER_DESCRIPTOR
    assert docparse.detect_type(annotated) is DocType.ServerDescriptor


def test_detect_type_unknown_keyword():
    with pytest.raises(UnrecognizedDocument):
        docparse.detect_type(b"zzzz\n")
    with pytest.raises(UnrecognizedDocument):
        docparse.detect_type(b"")


# --- compute_digests against the oracle ----------------------------------

def test_server_descriptor_digests():
    ds = docparse.compute_digests(docs.SERVER_DESCRIPTOR, DocType.ServerDescriptor)
    assert ds.sha1_hex == oracle.server_descriptor_sha1(docs.SERVER_DESCRIPTOR)
    assert ds.sha256_base64 == oracle.server_descriptor_sha256_b64(docs.SERVER_DESCRIPTOR)


def test_extra_info_digests():
    ds = docparse.compute_digests(docs.EXTRA_INFO, DocType.ExtraInfoDescriptor)
    assert ds.sha1_hex == oracle.extra_info_sha1(docs.EXTRA_INFO)
    assert ds.sha256_base64 == oracle.extra_info_sha256_b64(docs.EXTRA_INFO)


@pytest.mark.parametrize(
    "body,doctype",
    [
        (docs.CONSENSUS_NS, DocType.ConsensusNs),
        (docs.CONSENSUS_MD, DocType.ConsensusMicrodesc),
        (docs.VOTE, DocType.Vote),
    ],
)
def test_status_digests(body, doctype):
    ds = docparse.compute_digests(body, doctype)
    assert ds.sha1_hex == oracle.status_sha1(body)
    assert ds.sha256_hex == oracle.status_sha256(body)


def test_microdescriptor_digest():
    ds = docparse.compute_digests(docs.MICRODESCRIPTOR, DocType.Microdescriptor)
    assert ds.sha256_base64 == oracle.microdescriptor_b64(docs.MICRODESCRIPTOR)


@pytest.mark.parametrize(
    "body,doctype",
    [
        (docs.SAMPLE_DETACHED_SIGNATURE, DocType.DetachedSignature),
        (docs.BANDWIDTH_LIST, DocType.BandwidthList),
        (docs.TORPERF, DocType.TorperfResults),
    ],
)
def test_whole_file_digests(body, doctype):
    ds = docparse.compute_digests(body, doctype)
    assert ds.sha256_hex == oracle.whole_file_sha256(body)
    assert ds.sha1_hex is None


def test_digest_range_not_found():
    with pytest.raises(DigestRangeNotFound):
        docparse.compute_digests(b"router demo 1.2.3.4 9001 0 0\ntruncated\n",
                                 DocType.ServerDescriptor)
    with pytest.raises(DigestRangeNotFound):
        docparse.compute_digests(b"network-status-version 3\nvote-status consensus\n",
                                 DocType.ConsensusNs)


# --- parse ---------------------------------------------------------------

def test_parse_detached_signature_items():
    parsed = docparse.parse(raw_of(docs.SAMPLE_DETACHED_SIGNATURE))
    assert parsed.first("valid-after") == "2018-11-15 19:00:00"
    assert parsed.first("fresh-until") == "2018-11-15 20:00:00"
    signatureish = [
        (kw, block) for kw, _, block in parsed.items
        if kw in ("directory-signature", "additional-signature")
    ]
    assert len(signatureish) == 2
    assert all(block and block.startswith(b"-----BEGIN SIGNATURE-----") for _, block in signatureish)


def test_parse_keeps_unknown_keywords():
    body = b"router demo 198.51.100.7 9001 0 9030\nfuture-field x y\nrouter-signature\n"
    parsed = docparse.parse(raw_of(body, DocType.ServerDescriptor))
    assert parsed.first("future-field") == "x y"


def test_parse_covers_every_line():
    parsed = docparse.parse(raw_of(docs.VOTE))
    rebuilt_lines = sum(
        1 + (block.count(b"\n") if block else 0) for _, _, block in parsed.items
    )
    assert rebuilt_lines == docs.VOTE.count(b"\n")


def test_parse_truncated_block():
    body = b"onion-key\n-----BEGIN RSA PUBLIC KEY-----\nabcd\n"
    with pytest.raises(MalformedDocument):
        docparse.parse(raw_of(body, DocType.Microdescriptor))


def test_parse_non_utf8_keyword_line():
    body = b"onion-key\n\xff\xfe bogus\nntor-onion-key x\n"
    with pytest.raises(MalformedDocument):
        docparse.parse(raw_of(body, DocType.Microdescriptor))


def test_vote_relay_count():
    parsed = docparse.parse(raw_of(docs.VOTE))
    assert len(parsed.all("r")) == 3


# --- extract_timings -----------------------------------------------------

def test_extract_timings_consensus():
    t = docparse.extract_timings(docparse.parse(raw_of(docs.CONSENSUS_NS)))
    assert t.valid_after == parse_ts("2018-11-15 19:00:00")
    assert t.fresh_until == parse_ts("2018-11-15 20:00:00")
    assert t.valid_until == parse_ts("2018-11-15 22:00:00")
    assert t.vote_seconds == 300 and t.dist_seconds == 300


def test_extract_timings_requires_status_doc():
    with pytest.raises(WrongDocType):
        docparse.extract_timings(docparse.parse(raw_of(docs.SERVER_DESCRIPTOR)))


def test_extract_timings_missing_field():
    body = docs.CONSENSUS_NS.replace(b"voting-delay 300 300\n", b"")
    with pytest.raises(MissingTimingField):
        docparse.extract_timings(docparse.parse(raw_of(body)))


def test_extract_timings_bad_ordering():
    body = docs.CONSENSUS_NS.replace(
        b"fresh-until 2018-11-15 20:00:00", b"fresh-until 2018-11-15 19:00:00"
    )
    with pytest.raises((MissingTimingField, InvalidTimings)):
        docparse.extract_timings(docparse.parse(raw_of(body)))


# --- extract_references --------------------------------------------------

def test_detached_signature_references():
    refs = docparse.extract_references(docparse.parse(raw_of(docs.SAMPLE_DETACHED_SIGNATURE)))
    assert len(refs) == 2
    by_type = {r.doctype: r for r in refs}
    assert by_type[DocType.ConsensusNs].digests.sha1_hex == docs.SAMPLE_CONSENSUS_SHA1
    assert (
        by_type[DocType.ConsensusMicrodesc].digests.sha256_hex
        == docs.SAMPLE_MICRODESC_CONSENSUS_SHA256
    )


def test_vote_references():
    refs = docparse.extract_references(docparse.parse(raw_of(docs.VOTE)))
    sds = [r for r in refs if r.doctype is DocType.ServerDescriptor]
    bws = [r for r in refs if r.doctype is DocType.BandwidthList]
    assert sorted(r.digests.sha1_hex for r in sds) == sorted(docs.VOTE_SD_DIGESTS)
    assert len(bws) == 1
    assert bws[0].digests.sha256_hex == b64_to_hex(docs.BANDWIDTH_LIST_SHA256_B64)
    # votes carry m lines, but microdescriptors are referenced only by the
    # microdesc consensus flavor
    assert not any(r.doctype is DocType.Microdescriptor for r in refs)


def test_consensus_ns_references():
    refs = docparse.extract_references(docparse.parse(raw_of(docs.CONSENSUS_NS)))
    assert [r.doctype for r in refs] == [DocType.ServerDescriptor] * 2
    assert sorted(r.digests.sha1_hex for r in refs) == sorted(docs.CONSENSUS_NS_SD_DIGESTS)


def test_consensus_md_references():
    refs = docparse.extract_references(docparse.parse(raw_of(docs.CONSENSUS_MD)))
    assert [r.doctype for r in refs] == [DocType.Microdescriptor] * 2
    assert sorted(r.digests.sha256_base64 for r in refs) == sorted(docs.CONSENSUS_MD_MICRO_DIGESTS)


def test_server_descriptor_references_extra_info():
    refs = docparse.extract_references(docparse.parse(raw_of(docs.SERVER_DESCRIPTOR)))
    assert len(refs) == 1
    assert refs[0].doctype is DocType.ExtraInfoDescriptor
    assert refs[0].digests.sha1_hex == docs.EXTRA_INFO_SHA1
    assert refs[0].subject == docs.RELAY_FP


def test_leaf_documents_have_no_references():
    for body, doctype in [
        (docs.MICRODESCRIPTOR, DocType.Microdescriptor),
        (docs.EXTRA_INFO, DocType.ExtraInfoDescriptor),
        (docs.BANDWIDTH_LIST, DocType.BandwidthList),
        (docs.TORPERF, DocType.TorperfResults),
    ]:
        assert docparse.extract_references(docparse.parse(raw_of(body, doctype))) == []


def test_malformed_reference_lines_skipped_and_counted():
    body = docs.VOTE.replace(
        docs.VOTE.split(b"\nr ")[1].split(b"\n")[0],  # mangle first r line's args
        b"broken !!!only-two-fields",
        1,
    )
    metrics = Metrics()
    refs = docparse.extract_references(docparse.parse(raw_of(body)), metrics=metrics)
    sds = [r for r in refs if r.doctype is DocType.ServerDescriptor]
    assert len(sds) == 2
    assert metrics.counter("docparse.skipped_references") == 1


# --- annotations ---------------------------------------------------------

def test_annotation_names():
    expected = {
        DocType.ConsensusNs: b"@type network-status-consensus-3 1.0\n",
        DocType.ConsensusMicrodesc: b"@type network-status-microdesc-consensus-3 1.0\n",
        DocType.Vote: b"@type network-status-vote-3 1.0\n",
        DocType.DetachedSignature: b"@type detached-signature-3 1.0\n",
        DocType.ServerDescriptor: b"@type server-descriptor 1.0\n",
        DocType.ExtraInfoDescriptor: b"@type extra-info 1.0\n",
        DocType.Microdescriptor: b"@type microdescriptor 1.0\n",
        DocType.BandwidthList: b"@type bandwidth-file 1.0\n",
        DocType.TorperfResults: b"@type torperf 1.1\n",
    }
    for doctype, prefix in expected.items():
        line = docparse.annotation_line(doctype)
        assert line == prefix


def test_annotate_strip_round_trip():
    raw = raw_of(docs.SERVER_DESCRIPTOR, DocType.ServerDescriptor)
    annotated = docparse.annotate(raw)
    assert annotated.startswith(b"@type server-descriptor 1.0\n")
    ann, body = docparse.strip_annotation(annotated)
    assert ann is not None and ann.type_name == "server-descriptor"
    assert (ann.major, ann.minor) == (1, 0)
    assert body == docs.SERVER_DESCRIPTOR


def test_strip_annotation_absent():
    ann, body = docparse.strip_annotation(docs.MICRODESCRIPTOR)
    assert ann is None
    assert body == docs.MICRODESCRIPTOR


@settings(max_examples=50)
@given(st.binary(min_size=1, max_size=512))
def test_annotate_round_trip_random_bodies(body):
    for doctype in DocType:
        raw = RawDocument(doctype, body, "x", NOW, docparse.compute_digests(body, None))
        ann, stripped = docparse.strip_annotation(docparse.annotate(raw))
        assert stripped == body
        assert ann.type_name == docparse.annotation_line(doctype).split()[1].decode()


# --- tolerant parsing property -------------------------------------------

@settings(max_examples=200)
@given(st.binary(min_size=0, max_size=256))
def test_detect_never_crashes(data):
    try:
        docparse.detect_type(data)
    except (UnrecognizedDocument, MalformedDocument):
        pass


@settings(max_examples=100)
@given(st.binary(min_size=1, max_size=256))
def test_make_raw_always_archivable(data):
    raw = docparse.make_raw(data, source="fuzz", retrieved_at=NOW)
    # whatever came in, we end up with bytes plus at least one digest
    assert raw.body == data
    assert not raw.digests.empty


# --- identify ------------------------------------------------------------

def test_identify_consensus():
    raw = raw_of(docs.CONSENSUS_NS)
    ident = docparse.identify(raw, docparse.parse(raw))
    assert ident.doctype is DocType.ConsensusNs
    assert ident.subject == ""
    assert ident.datetime == parse_ts("2018-11-15 19:00:00")
    assert ident.digests.sha1_hex == oracle.status_sha1(docs.CONSENSUS_NS)


def test_identify_vote_subject_is_authority():
    raw = raw_of(docs.VOTE)
    ident = docparse.identify(raw, docparse.parse(raw))
    assert ident.subject == docs.AUTH_FP
    assert ident.datetime == parse_ts("2018-11-15 19:00:00")


def test_identify_server_descriptor():
    raw = raw_of(docs.SERVER_DESCRIPTOR)
    ident = docparse.identify(raw, docparse.parse(raw))
    assert ident.subject == docs.RELAY_FP
    assert ident.datetime == parse_ts("2018-11-15 18:05:00")


def test_identify_microdescriptor_uses_hint():
    raw = raw_of(docs.MICRODESCRIPTOR)
    hint = parse_ts("2018-11-15 19:00:00")
    ident = docparse.identify(raw, docparse.parse(raw), datetime_hint=hint)
    assert ident.datetime == hint
    assert ident.digests.sha256_base64 == docs.MICRODESCRIPTOR_SHA256_B64


def test_identify_unrecognized_blob():
    raw = docparse.make_raw(b"zzzz total junk\n", source="fuzz", retrieved_at=NOW)
    ident = docparse.identify(raw, None)
    assert ident.doctype is None
    assert ident.digests.sha256_hex == oracle.whole_file_sha256(b"zzzz total junk\n")


def test_identify_never_parses(monkeypatch):
    def no_parse(raw):
        raise AssertionError("identify parsed")

    monkeypatch.setattr(docparse, "parse", no_parse)
    raw = raw_of(docs.VOTE)
    # without a parse, a status falls back to the hints, else retrieval time
    assert docparse.identify(raw, None).datetime == NOW
    hint = parse_ts("2018-11-15 20:00:00")
    ident = docparse.identify(raw, None, subject_hint="AB", datetime_hint=hint)
    assert (ident.subject, ident.datetime) == ("AB", hint)


def test_parse_admitted_skips_other_types_and_malformed_bytes():
    assert docparse.parse_admitted(raw_of(docs.MICRODESCRIPTOR)) is None
    assert docparse.parse_admitted(raw_of(docs.VOTE)).first("dir-source")
    broken = docs.VOTE.replace(b"\ncontact ", b"\ncontact \xff", 1)
    assert broken != docs.VOTE
    assert docparse.parse_admitted(raw_of(broken, DocType.Vote)) is None


def test_vote_with_a_short_dir_source_line_is_identified():
    body = re.sub(rb"\ndir-source [^\n]*", b"\ndir-source lonely", docs.VOTE, count=1)
    raw = raw_of(body, DocType.Vote)
    parsed = docparse.parse(raw)
    ident = docparse.identify(raw, parsed, subject_hint="HINT")
    assert ident.subject == "HINT"
    assert docparse.extract_references(parsed)  # not an IndexError


# --- splitting concatenated input ----------------------------------------

def test_split_annotated_concatenation():
    blob = (
        docparse.annotate(raw_of(docs.SERVER_DESCRIPTOR, DocType.ServerDescriptor))
        + docparse.annotate(raw_of(docs.EXTRA_INFO, DocType.ExtraInfoDescriptor))
        + docparse.annotate(raw_of(docs.MICRODESCRIPTOR, DocType.Microdescriptor))
    )
    parts = docparse.split_concatenated(blob)
    assert [p for _, p in parts] == [docs.SERVER_DESCRIPTOR, docs.EXTRA_INFO, docs.MICRODESCRIPTOR]
    assert [a.type_name for a, _ in parts] == ["server-descriptor", "extra-info", "microdescriptor"]


def test_split_bare_concatenation():
    second = docs.SERVER_DESCRIPTOR.replace(b"router demo", b"router demo2")
    blob = docs.SERVER_DESCRIPTOR + second
    parts = docparse.split_concatenated(blob)
    assert [p for _, p in parts] == [docs.SERVER_DESCRIPTOR, second]
    assert all(a is None for a, _ in parts)


def test_split_microdescriptors():
    second = docs.MICRODESCRIPTOR.replace(b"reject", b"accept")
    parts = docparse.split_concatenated(docs.MICRODESCRIPTOR + second)
    assert [p for _, p in parts] == [docs.MICRODESCRIPTOR, second]


def test_split_single_document():
    parts = docparse.split_concatenated(docs.CONSENSUS_NS)
    assert parts == [(None, docs.CONSENSUS_NS)]
