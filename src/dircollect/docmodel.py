"""Shared document taxonomy: types, identifiers, digests, timings.

Everything here is an immutable value. Parsing and digest computation
live in docparse; storage in archive. Timestamps are timezone-aware UTC
with whole seconds, formatted ``YYYY-MM-DD HH:MM:SS``.
"""

from __future__ import annotations

import base64
import binascii
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum

from .errors import InvalidTimings, MalformedDocument

_TS = re.compile(r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d\Z", re.ASCII)
_HEX40 = re.compile(r"^[0-9A-F]{40}$")
_HEX64 = re.compile(r"^[0-9A-F]{64}$")


class DocType(Enum):
    """The nine collected document types.

    Values double as archive directory names and index "type" strings.
    """

    ConsensusNs = "consensus"
    ConsensusMicrodesc = "consensus-microdesc"
    Vote = "vote"
    DetachedSignature = "detached-signature"
    ServerDescriptor = "server-descriptor"
    ExtraInfoDescriptor = "extra-info"
    Microdescriptor = "microdescriptor"
    BandwidthList = "bandwidth-file"
    TorperfResults = "torperf"

    @property
    def dirname(self) -> str:
        return self.value


def ensure_utc(dt: datetime) -> datetime:
    """Normalize to aware UTC with whole seconds."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    else:
        dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=0)


def fmt_ts(dt: datetime) -> str:
    """``YYYY-MM-DD HH:MM:SS`` of ``dt`` in UTC, the year zero-padded."""
    if dt.tzinfo is not None and dt.tzinfo is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    return dt.isoformat(" ", "seconds")[:19]


def parse_ts(text: str) -> datetime:
    if not _TS.match(text):
        raise ValueError(f"not a YYYY-MM-DD HH:MM:SS timestamp: {text!r}")
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


def fmt_compact(dt: datetime) -> str:
    """Filename-safe variant: 2018-11-15-19-00-00."""
    text = fmt_ts(dt)
    return f"{text[:10]}-{text[11:13]}-{text[14:16]}-{text[17:]}"


def parse_compact(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%d-%H-%M-%S").replace(tzinfo=timezone.utc)


def b64_to_hex(b64: str) -> str:
    """Unpadded base64 digest -> uppercase hex."""
    raw = base64.b64decode(b64 + "=" * (-len(b64) % 4))
    return raw.hex().upper()


@dataclass(frozen=True)
class DigestSet:
    """Digests of one document in every encoding we know for it.

    Whenever a hash is computed, all encodings derivable from it are
    filled in, so lookups never need to convert on the fly. An empty set
    is only legal on "guessed" identifiers for period documents that are
    resolved by URL before their bytes exist locally.
    """

    sha1_hex: str | None = None
    sha256_base64: str | None = None
    sha256_hex: str | None = None

    def __post_init__(self):
        if self.sha1_hex is not None and not _HEX40.match(self.sha1_hex):
            raise ValueError("sha1_hex must be 40 uppercase hex chars")
        if self.sha256_hex is not None and not _HEX64.match(self.sha256_hex):
            raise ValueError("sha256_hex must be 64 uppercase hex chars")
        if self.sha256_base64 is not None:
            try:
                raw = base64.b64decode(self.sha256_base64 + "=" * (-len(self.sha256_base64) % 4))
            except binascii.Error as exc:
                raise ValueError(f"undecodable base64 digest: {exc}")
            if len(raw) != 32:
                raise ValueError("sha256_base64 must decode to 32 bytes")
            if self.sha256_hex is not None and b64_to_hex(self.sha256_base64) != self.sha256_hex:
                raise ValueError("sha256 encodings disagree")

    @classmethod
    def build(cls, sha1: bytes | None = None, sha256: bytes | None = None) -> "DigestSet":
        """Construct from raw digest bytes, filling every encoding."""
        return cls(
            sha1_hex=sha1.hex().upper() if sha1 else None,
            sha256_base64=base64.b64encode(sha256).decode("ascii").rstrip("=") if sha256 else None,
            sha256_hex=sha256.hex().upper() if sha256 else None,
        )

    @property
    def empty(self) -> bool:
        return self.sha1_hex is None and self.sha256_base64 is None and self.sha256_hex is None

    def sha256_any_hex(self) -> str | None:
        if self.sha256_hex:
            return self.sha256_hex
        if self.sha256_base64:
            return b64_to_hex(self.sha256_base64)
        return None

    def matches(self, other: "DigestSet") -> bool:
        """True when any digest algorithm present on both sides agrees.

        Encodings are normalized first, so a base64 sha256 matches its
        hex form.
        """
        if self.sha1_hex and other.sha1_hex:
            return self.sha1_hex == other.sha1_hex
        mine, theirs = self.sha256_any_hex(), other.sha256_any_hex()
        if mine and theirs:
            return mine == theirs
        return False

    def primary_for(self, doctype: DocType | None) -> str | None:
        """The digest encoding a document of this type is looked up by."""
        if doctype in (DocType.ServerDescriptor, DocType.ExtraInfoDescriptor):
            return self.sha1_hex or self.sha256_any_hex()
        if doctype is DocType.Microdescriptor:
            return self.sha256_base64 or self.sha256_hex
        return self.sha256_any_hex() or self.sha1_hex


EMPTY_DIGESTS = DigestSet()


@dataclass(frozen=True)
class DocumentIdentifier:
    """What a plugin asks the host to fetch, and how archives key documents.

    ``subject`` is an opaque discriminator: a 40-hex relay or authority
    fingerprint, an OnionPerf source name, or "" when there is exactly
    one document of the type per period.
    """

    doctype: DocType | None
    subject: str = ""
    datetime: datetime | None = None
    digests: DigestSet = EMPTY_DIGESTS

    def __post_init__(self):
        if self.datetime is not None:
            object.__setattr__(self, "datetime", ensure_utc(self.datetime))

    def key(self) -> str:
        """Stable string identity: the primary digest when one is known,
        otherwise type + subject + timestamp (for guessed period docs)."""
        primary = self.digests.primary_for(self.doctype)
        if primary:
            return primary
        when = fmt_ts(self.datetime) if self.datetime else "?"
        name = self.doctype.value if self.doctype else "unrecognized"
        return f"{name}|{self.subject}|{when}"


@dataclass(frozen=True)
class ConsensusTimings:
    """Validity window and voting delays read from a consensus or vote."""

    valid_after: datetime
    fresh_until: datetime
    valid_until: datetime
    vote_seconds: int
    dist_seconds: int

    def __post_init__(self):
        object.__setattr__(self, "valid_after", ensure_utc(self.valid_after))
        object.__setattr__(self, "fresh_until", ensure_utc(self.fresh_until))
        object.__setattr__(self, "valid_until", ensure_utc(self.valid_until))
        if not (self.valid_after < self.fresh_until < self.valid_until):
            raise InvalidTimings(
                f"want valid-after < fresh-until < valid-until, got "
                f"{fmt_ts(self.valid_after)} / {fmt_ts(self.fresh_until)} / {fmt_ts(self.valid_until)}"
            )
        if self.vote_seconds <= 0 or self.dist_seconds <= 0:
            raise InvalidTimings("voting delays must be positive")
        if self.vote_seconds + self.dist_seconds >= self.period_seconds:
            raise InvalidTimings("voting delays do not fit inside the period")

    @property
    def period_seconds(self) -> int:
        return int((self.fresh_until - self.valid_after).total_seconds())


@dataclass(frozen=True)
class RawDocument:
    """Bytes exactly as retrieved, annotation excluded, digests recomputed.

    ``doctype`` is None for unrecognized blobs, which are still archived
    (debugging beats discarding). Construct through docparse.make_raw so
    the digests really are recomputed rather than trusted.
    """

    doctype: DocType | None
    body: bytes
    source: str
    retrieved_at: datetime
    digests: DigestSet = field(repr=False, default=EMPTY_DIGESTS)

    def __post_init__(self):
        if not self.body:
            raise MalformedDocument("empty document body")
        object.__setattr__(self, "retrieved_at", ensure_utc(self.retrieved_at))
