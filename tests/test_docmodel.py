import base64
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dircollect.docmodel import (
    DigestSet,
    DocType,
    DocumentIdentifier,
    ConsensusTimings,
    RawDocument,
    b64_to_hex,
    ensure_utc,
    fmt_compact,
    fmt_ts,
    parse_compact,
    parse_ts,
)
from dircollect.errors import InvalidTimings, MalformedDocument

T0 = datetime(2018, 11, 15, 19, 0, 0, tzinfo=timezone.utc)


def hex_to_b64(hexdigest: str) -> str:
    """Hex digest -> unpadded standard base64."""
    return base64.b64encode(bytes.fromhex(hexdigest)).decode("ascii").rstrip("=")


def test_doctype_members():
    assert len(DocType) == 9
    dirnames = {t.dirname for t in DocType}
    assert len(dirnames) == 9
    assert DocType.ServerDescriptor.dirname == "server-descriptor"
    assert DocType.ConsensusMicrodesc.dirname == "consensus-microdesc"


def test_timestamp_round_trip():
    assert fmt_ts(T0) == "2018-11-15 19:00:00"
    assert parse_ts("2018-11-15 19:00:00") == T0
    assert fmt_compact(T0) == "2018-11-15-19-00-00"
    assert parse_compact("2018-11-15-19-00-00") == T0


@pytest.mark.parametrize("dt", [
    datetime(2018, 11, 15, 19, 0, 0),                                  # naive
    T0,
    datetime(2018, 11, 15, 19, 4, 5, 999999, tzinfo=timezone.utc),      # microseconds
    datetime(2018, 11, 15, 20, 4, 5, 500000),                          # naive, microseconds
    datetime(2018, 11, 16, 1, 30, 0, tzinfo=timezone(timedelta(hours=5, minutes=30))),
    datetime(2018, 12, 31, 20, 0, 0, 1, tzinfo=timezone(timedelta(hours=-5))),  # next year
    datetime(1000, 1, 1, 0, 30, 0, tzinfo=timezone(timedelta(hours=1))),  # year 999 in UTC
    datetime(999, 12, 31, 23, 59, 59),
    datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
])
def test_timestamp_formats_match_strftime(dt):
    utc = ensure_utc(dt)
    year = f"{utc.year:04d}"  # strftime leaves a year before 1000 unpadded
    assert fmt_ts(dt) == year + utc.strftime("-%m-%d %H:%M:%S")
    assert fmt_compact(dt) == year + utc.strftime("-%m-%d-%H-%M-%S")
    assert parse_ts(fmt_ts(dt)) == utc
    assert parse_compact(fmt_compact(dt)) == utc


_OFFSETS = st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23, minutes=59),
                                             max_value=timedelta(hours=23, minutes=59)))


@given(st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
                    timezones=st.none() | st.just(timezone.utc) | _OFFSETS))
def test_timestamp_formats_match_strftime_anywhere(dt):
    test_timestamp_formats_match_strftime(dt)


@pytest.mark.parametrize("text", [
    "2018-11-15T19:00:00",        # ISO separator
    "2018-11-15 19:00:00+00:00",  # UTC offset
    "2018-11-15 19:00:00.5",      # fractional seconds
    "2018-11-15 19:00+01",        # 19 characters, not a timestamp
    "2018-11-5 19:00:00",         # unpadded day
    "2018-11-15 9:00:00",         # unpadded hour
    "2018-11-15 19:00:00\n",
])
def test_parse_ts_accepts_only_the_canonical_form(text):
    with pytest.raises(ValueError):
        parse_ts(text)


def test_naive_datetimes_become_utc():
    naive = datetime(2018, 11, 15, 19, 0, 0)
    ident = DocumentIdentifier(DocType.Vote, subject="A" * 40, datetime=naive)
    assert ident.datetime.tzinfo is timezone.utc


@given(st.binary(min_size=32, max_size=32))
def test_digest_encoding_round_trip(raw):
    hexd = raw.hex().upper()
    assert b64_to_hex(hex_to_b64(hexd)) == hexd


def test_digestset_build_fills_all_encodings():
    ds = DigestSet.build(sha1=b"\x01" * 20, sha256=b"\x02" * 32)
    assert ds.sha1_hex == "01" * 20  # hex of 0x01 bytes has no letters to case
    assert ds.sha256_hex == "02" * 32
    assert b64_to_hex(ds.sha256_base64) == ds.sha256_hex


def test_digestset_rejects_bad_values():
    with pytest.raises(ValueError):
        DigestSet(sha1_hex="abcd")
    with pytest.raises(ValueError):
        DigestSet(sha1_hex="g" * 40)
    with pytest.raises(ValueError):
        DigestSet(sha256_base64="!!!!")
    with pytest.raises(ValueError):
        DigestSet(sha256_base64=hex_to_b64("00" * 20))  # 20 bytes, not 32
    with pytest.raises(ValueError):
        DigestSet(sha256_hex="00" * 32, sha256_base64=hex_to_b64("11" * 32))


def test_digestset_matches_across_encodings():
    a = DigestSet.build(sha256=b"\x03" * 32)
    b = DigestSet(sha256_base64=hex_to_b64("03" * 32))
    c = DigestSet(sha256_hex=("04" * 32).upper())
    assert a.matches(b)
    assert not a.matches(c)
    assert not a.matches(DigestSet())  # nothing in common


def test_primary_digest_per_type():
    ds = DigestSet.build(sha1=b"\x05" * 20, sha256=b"\x06" * 32)
    assert ds.primary_for(DocType.ServerDescriptor) == ds.sha1_hex
    assert ds.primary_for(DocType.Microdescriptor) == ds.sha256_base64
    assert ds.primary_for(DocType.ConsensusNs) == ds.sha256_hex


def test_identifier_key_uses_digest_when_present():
    ds = DigestSet.build(sha1=b"\x07" * 20, sha256=b"\x08" * 32)
    ident = DocumentIdentifier(DocType.ServerDescriptor, "A" * 40, T0, ds)
    assert ident.key() == ds.sha1_hex


def test_identifier_key_for_guessed_documents():
    ident = DocumentIdentifier(DocType.Vote, "B" * 40, T0)
    assert ident.key() == "vote|" + "B" * 40 + "|2018-11-15 19:00:00"


def test_timings_validation():
    good = ConsensusTimings(T0, T0 + timedelta(hours=1), T0 + timedelta(hours=3), 300, 300)
    assert good.period_seconds == 3600
    with pytest.raises(InvalidTimings):
        ConsensusTimings(T0, T0, T0 + timedelta(hours=1), 300, 300)
    with pytest.raises(InvalidTimings):
        ConsensusTimings(T0, T0 + timedelta(hours=1), T0 + timedelta(minutes=30), 300, 300)
    with pytest.raises(InvalidTimings):
        ConsensusTimings(T0, T0 + timedelta(hours=1), T0 + timedelta(hours=3), 0, 300)
    with pytest.raises(InvalidTimings):
        ConsensusTimings(T0, T0 + timedelta(minutes=10), T0 + timedelta(hours=3), 300, 300)


def test_raw_document_rejects_empty_body():
    with pytest.raises(MalformedDocument):
        RawDocument(DocType.Vote, b"", "test", T0)
