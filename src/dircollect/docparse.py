"""Parsing, digesting, annotating and splitting of collected documents.

Everything here is pure and tolerant: unknown keywords are retained,
malformed input raises a typed error but the caller can always still
archive the bytes. Nothing in this module re-serializes a document;
stored bytes are exactly the retrieved bytes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from datetime import datetime

from .docmodel import (
    ConsensusTimings,
    DigestSet,
    DocType,
    DocumentIdentifier,
    RawDocument,
    b64_to_hex,
    parse_ts,
)
from .errors import (
    DigestRangeNotFound,
    MalformedDocument,
    MissingTimingField,
    UnrecognizedDocument,
    WrongDocType,
)

ANNOTATIONS: dict[DocType, tuple[str, int, int]] = {
    DocType.ConsensusNs: ("network-status-consensus-3", 1, 0),
    DocType.ConsensusMicrodesc: ("network-status-microdesc-consensus-3", 1, 0),
    DocType.Vote: ("network-status-vote-3", 1, 0),
    DocType.DetachedSignature: ("detached-signature-3", 1, 0),
    DocType.ServerDescriptor: ("server-descriptor", 1, 0),
    DocType.ExtraInfoDescriptor: ("extra-info", 1, 0),
    DocType.Microdescriptor: ("microdescriptor", 1, 0),
    DocType.BandwidthList: ("bandwidth-file", 1, 0),
    DocType.TorperfResults: ("torperf", 1, 1),
}

ANNOTATIONS_BY_NAME = {name: t for t, (name, _, _) in ANNOTATIONS.items()}

_ANNOTATION_RE = re.compile(rb"^@type ([a-z0-9-]+) (\d+)\.(\d+)$")
_HEX40_RE = re.compile(r"^[0-9A-Fa-f]{40}$")


@dataclass(frozen=True)
class Annotation:
    type_name: str
    major: int
    minor: int

    def line(self) -> bytes:
        return f"@type {self.type_name} {self.major}.{self.minor}\n".encode("ascii")


@dataclass(frozen=True)
class ParsedDocument:
    """Keyword-line view of a document.

    items are (keyword, argument-string, object-block) triples in file
    order; the object block, when present, is the raw bytes of the
    -----BEGIN/END----- lines attached to the keyword before it.
    """

    doctype: DocType | None
    items: tuple[tuple[str, str, bytes | None], ...]
    source_bytes: bytes

    def first(self, keyword: str) -> str | None:
        for kw, args, _ in self.items:
            if kw == keyword:
                return args
        return None

    def all(self, keyword: str) -> list[tuple[str, bytes | None]]:
        return [(args, block) for kw, args, block in self.items if kw == keyword]


def annotation_line(doctype: DocType) -> bytes:
    name, major, minor = ANNOTATIONS[doctype]
    return Annotation(name, major, minor).line()


def _parse_annotation(line: bytes) -> Annotation | None:
    m = _ANNOTATION_RE.match(line)
    if not m:
        return None
    return Annotation(m.group(1).decode("ascii"), int(m.group(2)), int(m.group(3)))


def strip_annotation(data: bytes) -> tuple[Annotation | None, bytes]:
    """Pop a single leading ``@type`` line off ``data`` if present."""
    if not data.startswith(b"@type "):
        return None, data
    eol = data.find(b"\n")
    if eol < 0:
        return None, data
    ann = _parse_annotation(data[:eol])
    if ann is None:
        return None, data
    return ann, data[eol + 1 :]


def annotate(raw: RawDocument) -> bytes:
    if raw.doctype is None:
        raise WrongDocType("unrecognized documents have no annotation")
    return annotation_line(raw.doctype) + raw.body


def detect_type(data: bytes) -> DocType:
    """Classify raw bytes, consuming ``@``-prefixed metadata lines.

    Raises UnrecognizedDocument when nothing matches; the caller can
    still archive the bytes as an unrecognized blob.
    """
    if not data:
        raise UnrecognizedDocument("empty input")
    pos = 0
    while pos < len(data) and data[pos : pos + 1] == b"@":
        eol = data.find(b"\n", pos)
        if eol < 0:
            eol = len(data)
        ann = _parse_annotation(data[pos:eol])
        if ann is not None and ann.type_name in ANNOTATIONS_BY_NAME:
            return ANNOTATIONS_BY_NAME[ann.type_name]
        pos = eol + 1
    head = data[pos : pos + 4096]
    try:
        first = head.split(b"\n", 1)[0].decode("utf-8")
    except UnicodeDecodeError:
        raise UnrecognizedDocument("first line is not UTF-8")
    if first.startswith("network-status-version"):
        if "microdesc" in first.split()[1:]:
            return DocType.ConsensusMicrodesc
        status = re.search(rb"\nvote-status (\S+)", head)
        if status is not None and status.group(1) == b"vote":
            return DocType.Vote
        return DocType.ConsensusNs
    if first.startswith("router "):
        return DocType.ServerDescriptor
    if first.startswith("extra-info "):
        return DocType.ExtraInfoDescriptor
    if first == "onion-key" or first.startswith("onion-key "):
        return DocType.Microdescriptor
    if first.startswith("consensus-digest "):
        return DocType.DetachedSignature
    if first and first.isascii() and first.isdigit():
        return DocType.BandwidthList
    tokens = first.split()
    if tokens and all("=" in tok and tok.split("=", 1)[0] for tok in tokens):
        return DocType.TorperfResults
    raise UnrecognizedDocument(f"no known leading keyword: {first[:40]!r}")


# --- digests --------------------------------------------------------------

def _descriptor_range(body: bytes, lead: bytes) -> bytes:
    start = re.search(rb"(?m)^" + lead + rb" ", body)
    if start is None:
        raise DigestRangeNotFound(f"no {lead.decode()} line")
    end = re.search(rb"(?m)^router-signature\n", body[start.start() :])
    if end is None:
        raise DigestRangeNotFound("no router-signature line")
    return body[start.start() : start.start() + end.end()]


def _status_range(body: bytes) -> bytes:
    token = b"directory-signature "
    if body.startswith(token):
        return body[: len(token)]
    pos = body.find(b"\n" + token)
    if pos < 0:
        raise DigestRangeNotFound("no directory-signature line")
    return body[: pos + 1 + len(token)]


def compute_digests(body: bytes, doctype: DocType | None) -> DigestSet:
    """Digest ``body`` over the byte range its type is identified by.

    Descriptors hash from their first keyword through the
    router-signature line; statuses hash from the start through the
    space after the first directory-signature token; everything else
    hashes the whole file. All derivable encodings are filled in.
    """
    if doctype in (DocType.ServerDescriptor, DocType.ExtraInfoDescriptor):
        lead = b"router" if doctype is DocType.ServerDescriptor else b"extra-info"
        rng = _descriptor_range(body, lead)
        return DigestSet.build(
            sha1=hashlib.sha1(rng).digest(), sha256=hashlib.sha256(rng).digest()
        )
    if doctype in (DocType.Vote, DocType.ConsensusNs, DocType.ConsensusMicrodesc):
        rng = _status_range(body)
        return DigestSet.build(
            sha1=hashlib.sha1(rng).digest(), sha256=hashlib.sha256(rng).digest()
        )
    # microdescriptors, detached signatures, bandwidth and torperf files
    # (and unrecognized blobs) are identified by their full bytes
    return DigestSet.build(sha256=hashlib.sha256(body).digest())


def make_raw(
    body: bytes,
    source: str,
    retrieved_at: datetime,
    doctype: DocType | None = None,
) -> RawDocument:
    """Build a RawDocument with freshly computed digests.

    Detection failures and missing digest ranges demote the document to
    an unrecognized blob (doctype None, full-body SHA-256) rather than
    dropping it.
    """
    ann, body = strip_annotation(body)
    if doctype is None:
        if ann is not None and ann.type_name in ANNOTATIONS_BY_NAME:
            doctype = ANNOTATIONS_BY_NAME[ann.type_name]
        else:
            try:
                doctype = detect_type(body)
            except UnrecognizedDocument:
                doctype = None
    try:
        digests = compute_digests(body, doctype)
    except DigestRangeNotFound:
        doctype = None
        digests = compute_digests(body, None)
    return RawDocument(doctype, body, source, retrieved_at, digests)


# --- line-level parsing ----------------------------------------------------

def parse(raw: RawDocument) -> ParsedDocument:
    """Split a document into keyword items with attached object blocks.

    Raises MalformedDocument on truncated blocks or undecodable keyword
    lines; the document should then be archived but not reference
    checked.
    """
    lines = raw.body.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    items: list[tuple[str, str, bytes | None]] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith(b"-----BEGIN "):
            block_lines = [line]
            i += 1
            while i < len(lines) and not lines[i].startswith(b"-----END"):
                block_lines.append(lines[i])
                i += 1
            if i >= len(lines):
                raise MalformedDocument("object block not terminated")
            block_lines.append(lines[i])
            i += 1
            block = b"\n".join(block_lines) + b"\n"
            if not items:
                raise MalformedDocument("object block precedes any keyword")
            kw, args, prev = items[-1]
            items[-1] = (kw, args, (prev or b"") + block)
            continue
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            raise MalformedDocument("keyword line is not UTF-8")
        if " " in text:
            kw, args = text.split(" ", 1)
        else:
            kw, args = text, ""
        items.append((kw, args, None))
        i += 1
    return ParsedDocument(raw.doctype, tuple(items), raw.body)


_STATUS_TYPES = (DocType.Vote, DocType.ConsensusNs, DocType.ConsensusMicrodesc)
#: the types whose identity or references live in their keyword lines
PARSED_TYPES = frozenset(_STATUS_TYPES + (
    DocType.DetachedSignature, DocType.ServerDescriptor, DocType.ExtraInfoDescriptor))


def parse_admitted(raw: RawDocument) -> ParsedDocument | None:
    """The one parse a document gets on its way into the archive: statuses,
    signatures and server or extra-info descriptors only. Malformed bytes
    give None; they are archived all the same, just not reference checked."""
    if raw.doctype not in PARSED_TYPES:
        return None
    try:
        return parse(raw)
    except MalformedDocument:
        return None


# --- field extraction ------------------------------------------------------


def extract_timings(parsed: ParsedDocument) -> ConsensusTimings:
    """Read the voting-period timings out of a consensus or vote.

    dir-spec requires exactly one voting-delay line in each, so a status
    document without one is an error.
    """
    if parsed.doctype not in _STATUS_TYPES:
        raise WrongDocType(f"no timings on {parsed.doctype}")
    fields = {}
    for name in ("valid-after", "fresh-until", "valid-until"):
        value = parsed.first(name)
        if value is None:
            raise MissingTimingField(name)
        try:
            fields[name] = parse_ts(value)
        except ValueError:
            raise MissingTimingField(f"unparseable {name}: {value!r}")
    delay = parsed.first("voting-delay")
    if delay is None:
        raise MissingTimingField("voting-delay")
    parts = delay.split()
    try:
        vote_seconds, dist_seconds = int(parts[0]), int(parts[1])
    except (IndexError, ValueError):
        raise MissingTimingField(f"unparseable voting-delay: {delay!r}")
    return ConsensusTimings(
        fields["valid-after"], fields["fresh-until"], fields["valid-until"],
        vote_seconds, dist_seconds,
    )


def _b64_digest_hex(encoded: str, nbytes: int) -> str:
    """Decode an unpadded base64 digest and require its exact length."""
    hexd = b64_to_hex(encoded)
    if len(hexd) != nbytes * 2:
        raise ValueError(f"digest is {len(hexd) // 2} bytes, want {nbytes}")
    return hexd


def _valid_after(parsed: ParsedDocument) -> datetime | None:
    value = parsed.first("valid-after")
    if value is None:
        return None
    try:
        return parse_ts(value)
    except ValueError:
        return None


def extract_references(parsed: ParsedDocument, metrics=None) -> list[DocumentIdentifier]:
    """Identifiers of every document this one points at.

    Votes and ns consensuses reference server descriptors; votes also
    reference their authority's bandwidth list; the microdesc consensus
    references microdescriptors; server descriptors reference their
    extra-info document; detached signatures reference both consensus
    flavors. Malformed reference lines are skipped and counted, never
    fatal.
    """

    def skipped():
        if metrics is not None:
            metrics.incr("docparse.skipped_references")

    refs: list[DocumentIdentifier] = []
    t = parsed.doctype
    if t in (DocType.Vote, DocType.ConsensusNs):
        when = _valid_after(parsed)
        for args, _ in parsed.all("r"):
            fields = args.split()
            try:
                if len(fields) != 8:
                    raise ValueError(f"want 8 r-line fields, got {len(fields)}")
                fp = _b64_digest_hex(fields[1], 20)
                digest = _b64_digest_hex(fields[2], 20)
                published = parse_ts(f"{fields[3]} {fields[4]}")
            except ValueError:
                skipped()
                continue
            refs.append(
                DocumentIdentifier(
                    DocType.ServerDescriptor, fp, published, DigestSet(sha1_hex=digest)
                )
            )
        if t is DocType.Vote:
            bw = parsed.first("bandwidth-file-digest")
            if bw is not None:
                try:
                    scheme, encoded = bw.split("=", 1)
                    if scheme != "sha256":
                        raise ValueError(f"unknown digest scheme {scheme!r}")
                    hexd = _b64_digest_hex(encoded, 32)
                except ValueError:
                    skipped()
                else:
                    source = (parsed.first("dir-source") or "").split()
                    subject = source[1] if len(source) > 1 else ""
                    refs.append(
                        DocumentIdentifier(
                            DocType.BandwidthList, subject, when,
                            DigestSet(sha256_base64=encoded, sha256_hex=hexd),
                        )
                    )
    elif t is DocType.ConsensusMicrodesc:
        when = _valid_after(parsed)
        for args, _ in parsed.all("m"):
            encoded = args.strip()
            try:
                hexd = _b64_digest_hex(encoded, 32)
            except ValueError:
                skipped()
                continue
            refs.append(
                DocumentIdentifier(
                    DocType.Microdescriptor, "", when,
                    DigestSet(sha256_base64=encoded, sha256_hex=hexd),
                )
            )
    elif t is DocType.ServerDescriptor:
        value = parsed.first("extra-info-digest")
        if value is not None:
            fields = value.split()
            try:
                if not fields or not _HEX40_RE.match(fields[0]):
                    raise ValueError(f"bad extra-info-digest: {value!r}")
                sha1_hex = fields[0].upper()
                sha256_b64 = fields[1] if len(fields) > 1 else None
                digests = DigestSet(
                    sha1_hex=sha1_hex,
                    sha256_base64=sha256_b64,
                    sha256_hex=_b64_digest_hex(sha256_b64, 32) if sha256_b64 else None,
                )
            except ValueError:
                skipped()
            else:
                fp = (parsed.first("fingerprint") or "").replace(" ", "")
                published = parsed.first("published")
                when = None
                if published:
                    try:
                        when = parse_ts(published)
                    except ValueError:
                        when = None
                refs.append(
                    DocumentIdentifier(DocType.ExtraInfoDescriptor, fp, when, digests)
                )
    elif t is DocType.DetachedSignature:
        when = _valid_after(parsed)
        digest = parsed.first("consensus-digest")
        if digest is not None:
            if _HEX40_RE.match(digest.strip()):
                refs.append(
                    DocumentIdentifier(
                        DocType.ConsensusNs, "", when,
                        DigestSet(sha1_hex=digest.strip().upper()),
                    )
                )
            else:
                skipped()
        for args, _ in parsed.all("additional-digest"):
            fields = args.split()
            if len(fields) == 3 and fields[0] == "microdesc" and fields[1] == "sha256" \
                    and re.match(r"^[0-9A-Fa-f]{64}$", fields[2]):
                refs.append(
                    DocumentIdentifier(
                        DocType.ConsensusMicrodesc, "", when,
                        DigestSet(sha256_hex=fields[2].upper()),
                    )
                )
            else:
                skipped()
    return refs


def identify(
    raw: RawDocument,
    parsed: ParsedDocument | None,
    subject_hint: str = "",
    datetime_hint: datetime | None = None,
) -> DocumentIdentifier:
    """Build the archive identifier for a document from its bytes and its
    `parse_admitted` parse; without one, from the hints and retrieval time.

    Hints supply what the bytes cannot: the consensus period a
    microdescriptor was listed in, or the source and size of a Torperf
    file fetched by URL.
    """
    t = raw.doctype
    fallback = datetime_hint or raw.retrieved_at
    if t is DocType.BandwidthList:
        when = fallback
        head = raw.body.split(b"\n", 1)[0]
        if head.isdigit():
            try:
                when = datetime.fromtimestamp(int(head), tz=fallback.tzinfo)
            except (OverflowError, OSError, ValueError):
                pass
        return DocumentIdentifier(t, subject_hint, when, raw.digests)
    if t is DocType.TorperfResults:
        subject = subject_hint
        if not subject:
            first = raw.body.split(b"\n", 1)[0].decode("utf-8", "replace")
            kv = dict(tok.split("=", 1) for tok in first.split() if "=" in tok)
            subject = f"{kv.get('SOURCE', 'unknown')}-{kv.get('FILESIZE', '0')}"
        return DocumentIdentifier(t, subject, fallback, raw.digests)
    if parsed is None or t not in PARSED_TYPES:
        # unrecognized blobs, microdescriptors and malformed documents
        return DocumentIdentifier(t, subject_hint, fallback, raw.digests)
    if t in (DocType.ConsensusNs, DocType.ConsensusMicrodesc):
        return DocumentIdentifier(t, "", _valid_after(parsed) or fallback, raw.digests)
    if t is DocType.Vote:
        source = (parsed.first("dir-source") or "").split()
        subject = source[1] if len(source) > 1 else subject_hint
        return DocumentIdentifier(t, subject, _valid_after(parsed) or fallback, raw.digests)
    if t is DocType.DetachedSignature:
        sigs = parsed.all("directory-signature")
        # directory-signature [algorithm] identity signing-key-digest
        fields = sigs[0][0].split() if sigs else []
        subject = fields[-2] if len(fields) in (2, 3) else subject_hint
        return DocumentIdentifier(t, subject, _valid_after(parsed) or fallback, raw.digests)
    # server descriptor or extra-info descriptor
    published = parsed.first("published")
    when = fallback
    if published:
        try:
            when = parse_ts(published)
        except ValueError:
            pass
    if t is DocType.ServerDescriptor:
        subject = (parsed.first("fingerprint") or "").replace(" ", "") or subject_hint
    else:
        fields = (parsed.first("extra-info") or "").split()
        subject = fields[1] if len(fields) >= 2 else subject_hint
    return DocumentIdentifier(t, subject.upper(), when, raw.digests)


# --- concatenated files ----------------------------------------------------

_START_KEYWORDS = (b"network-status-version", b"consensus-digest")


def _starts_document(line: bytes, current: bytes | None) -> bool:
    """Does this line open a new document given what we are inside now?

    onion-key opens a microdescriptor only outside server descriptors,
    which legitimately contain an onion-key line of their own.
    """
    if line.startswith(b"router "):
        return True
    if line.startswith(b"extra-info "):
        return True
    for kw in _START_KEYWORDS:
        if line == kw or line.startswith(kw + b" "):
            return True
    if line == b"onion-key" or line.startswith(b"onion-key "):
        return current not in (b"router", b"extra-info")
    return False


def split_concatenated(data: bytes) -> list[tuple[Annotation | None, bytes]]:
    """Split a file of concatenated documents into (annotation, body) parts.

    Handles both annotated archives (split on @type lines) and bare
    concatenations such as a client's cached descriptor files (split on
    document-opening keywords, ignoring keywords inside object blocks).
    """
    ends_with_newline = data.endswith(b"\n")
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    parts: list[tuple[Annotation | None, list[bytes]]] = []
    current_lines: list[bytes] | None = None
    current_ann: Annotation | None = None
    current_kw: bytes | None = None
    in_block = False

    def flush():
        nonlocal current_lines, current_ann, current_kw
        if current_lines:
            parts.append((current_ann, current_lines))
        current_lines, current_ann, current_kw = None, None, None

    for line in lines:
        if in_block:
            current_lines.append(line)
            if line.startswith(b"-----END"):
                in_block = False
            continue
        if line.startswith(b"@type "):
            ann = _parse_annotation(line)
            if ann is not None:
                flush()
                current_ann = ann
                current_lines = []
                continue
        if line.startswith(b"-----BEGIN "):
            if current_lines is None:
                current_lines = []
            current_lines.append(line)
            in_block = True
            continue
        if current_lines and _starts_document(line, current_kw):
            flush()
        if current_lines is None:
            current_lines = []
        if current_kw is None and line and not line.startswith(b"@"):
            current_kw = line.split(b" ", 1)[0].split(b"\n")[0]
        current_lines.append(line)

    flush()
    out: list[tuple[Annotation | None, bytes]] = []
    for idx, (ann, body_lines) in enumerate(parts):
        body = b"\n".join(body_lines)
        if idx < len(parts) - 1 or ends_with_newline:
            body += b"\n"
        out.append((ann, body))
    return out
