"""Read side: re-serve archived documents over the fetcher's URL table.

A collector is also a directory source. What was fetched can be fetched
back: the current consensus per flavor, descriptors by digest batch,
recently stored descriptors in bulk, plus the archive index and a small
operational status document. Bodies go out exactly as they came off the
wire (annotations stay internal to the archive).

Stored bytes never change, so a body is verified on its first read only
and then kept in memory, up to ``BODY_CACHE_BYTES`` (``verify`` still
re-hashes from disk). The index, the bulk routes and each flavor's current
consensus keep one snapshot, gzipped once, until the archive moves on.

Each entry's index record is rendered once, then held here. The index
snapshot's gzip is spliced from raw deflate pieces (RFC 1951, 1952): a
head piece that carries ``generated_at``, one piece per run of one type's
entries in one UTC day of ``doc_datetime`` (per UTC hour once a day holds
more than ``PIECE_RECORDS``), and a constant tail. Each piece is flushed
to a byte boundary and refers to nothing before it, so a rebuild after a
store sorts and joins the records but recompresses only the head and the
pieces whose text changed. The decoded bytes are exactly
``index_json_bytes``'s; the gzip bytes differ from ``gzip.compress``'s.
"""

from __future__ import annotations

import gzip
import json
import logging
import re
import struct
import sys
import threading
import zlib
from bisect import bisect_left
from collections import OrderedDict
from datetime import datetime, timedelta
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import docparse
from .archive import (
    INDEX_SEP,
    INDEX_TAIL,
    Archive,
    ArchiveEntry,
    index_head,
    index_json_bytes,
)
from .clock import Clock
from .docmodel import DocType, RawDocument
from .errors import CollectorError
from .fetcher import BATCH_URLS, BULK_URLS, DOCUMENT_URLS, MAX_BATCH
from .metrics import Metrics

log = logging.getLogger("dircollect.dirserver")

#: how far back the bulk routes reach
BULK_WINDOW = timedelta(hours=24)
#: the most body bytes kept in memory once verified
BODY_CACHE_BYTES = 64 << 20
#: zlib's default level: level 9 (gzip's default) took twice the CPU for
#: a 1.5% smaller index
GZIP_LEVEL = 6
#: the most records in one index piece before its UTC day is split by hour
PIECE_RECORDS = 2000
#: seconds a connection may take to send its headers, or sit idle between
#: keep-alive requests, before it is closed
CLIENT_TIMEOUT = 60

#: a gzip member header: deflate, no flags, no mtime, unknown OS
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
#: an empty final deflate block (fixed codes, end of block only)
_FINAL_BLOCK = b"\x03\x00"
_DAY = timedelta(days=1)
_HOUR = timedelta(hours=1)

_HEX40 = re.compile(r"[0-9A-Fa-f]{40}\Z")
_B64_43 = re.compile(r"[0-9A-Za-z+/]{43}\Z")

#: batch prefix -> (type, separator, digest token)
_BATCH_ROUTES = {
    prefix: (doctype, sep, _B64_43 if doctype is DocType.Microdescriptor else _HEX40)
    for doctype, (prefix, sep) in BATCH_URLS.items()
}
_BULK = {path: doctype for doctype, path in BULK_URLS.items()}
_FLAVORS = {DOCUMENT_URLS[t]: t for t in (DocType.ConsensusNs, DocType.ConsensusMicrodesc)}

#: gzip in an Accept-Encoding value, and its q-value if it has one
_GZIP_CODING = re.compile(
    r"(?:^|,)\s*gzip\s*(?:;\s*q=([01](?:\.\d{0,3})?))?\s*(?:,|$)", re.IGNORECASE)


class DirServer:
    def __init__(
        self,
        archive: Archive,
        clock: Clock,
        listen: str = "127.0.0.1:0",
        metrics: Metrics | None = None,
        status_provider=None,
    ):
        self.archive = archive
        self.clock = clock
        self.metrics = metrics or Metrics()
        self.status_provider = status_provider
        host, _, port = listen.rpartition(":")
        self._host = host or "127.0.0.1"
        self._port = int(port)
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None
        #: (segment, offset) -> verified body, least recently served first
        self._bodies: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        self._body_bytes = 0
        self._bodies_lock = threading.Lock()
        #: route -> (key, body, gzipped body); a key is read before what its
        #: body is built from, so a store landing mid-build files a newer
        #: body under an older key (rebuilt once more), never the reverse
        self._snapshots: dict[str, tuple[object, bytes, bytes]] = {}
        #: segment -> offset -> that entry's /index.json record, rendered by
        #: the first index build that needs it; unbounded (~430 B per
        #: archived entry) and never evicted until ``stop``
        self._index_records: dict[str, dict[int, bytes]] = {}
        #: piece key -> (follows another run, its records, their deflated
        #: text) as the last index build left it; a build never changes
        #: this map, it swaps in a new one
        self._index_pieces: dict[tuple, tuple[bool, tuple[bytes, ...], bytes]] = {}
        #: flavor -> ((segment, offset), valid_until) of the consensus
        #: parsed last
        self._consensus_validity: dict[DocType, tuple[tuple[str, int], datetime]] = {}

    def start(self) -> None:
        self._server = _Server((self._host, self._port), _Handler)
        self._server.dirserver = self
        self._port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="dirserver",
            daemon=True,
        )
        self._thread.start()
        log.info("event=dirserver_started address=%s", self.address)

    def stop(self) -> None:
        """Stop serving and release the cached bodies, snapshots, index
        records and index pieces."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        with self._bodies_lock:
            self._bodies.clear()
            self._body_bytes = 0
        self._snapshots.clear()
        self._index_records.clear()
        self._index_pieces = {}
        self._consensus_validity.clear()

    @property
    def address(self) -> str:
        return f"{self._host}:{self._port}"

    # -- request handling ----------------------------------------------------

    def respond(self, path: str) -> tuple[int, bytes, str, bytes | None]:
        """(status, body, content type, the body gzipped or None) for a
        GET of ``path``; routes served from a snapshot carry its gzip."""
        self.metrics.incr("dirserver.requests")
        if path in _FLAVORS:
            return _served(self._current_consensus(path, _FLAVORS[path]), "text/plain")

        for prefix, (doctype, sep, pattern) in _BATCH_ROUTES.items():
            if path.startswith(prefix):
                return self._batch(path[len(prefix):], doctype, sep, pattern)

        if path in _BULK:
            return _served(self._bulk(path, _BULK[path]), "text/plain")

        if path == "/index.json":
            snapshot = self._snapshot(path, self.archive.generation, self._index)
            return _served(snapshot, "application/json")

        if path == "/status":
            status = self.status_provider() if self.status_provider else {}
            body = json.dumps(status, indent=2, sort_keys=True).encode() + b"\n"
            return 200, body, "application/json", None

        return 404, b"", "text/plain", None

    def _snapshot(self, route: str, key, build) -> tuple | None:
        """``route``'s snapshot, rebuilt by ``build`` (body, gzipped body)
        unless it was built at ``key``; None, and nothing kept, when
        ``build`` gives no bytes. No lock is held while building: two
        misses at once both build."""
        snapshot = self._snapshots.get(route)
        if snapshot is None or snapshot[0] != key:
            body, gzipped = build()
            if not body:
                return None
            snapshot = (key, body, gzipped)
            self._snapshots[route] = snapshot
        return snapshot

    def _index(self) -> tuple[bytes, bytes]:
        """``/index.json`` and its gzip, spliced from the last build's
        deflated pieces: only the head and the pieces whose text changed
        are compressed again."""
        index = self.archive.build_index(self._index_records)
        body = index_json_bytes(index)
        deflater = _deflater()  # one for every piece this build deflates
        last, pieces = self._index_pieces, {}
        out = [_GZIP_HEADER, _deflate(deflater, index_head(index))]
        for key, start, end in _index_runs(index.entries):
            run, lead = index.records[start:end], start > 0
            piece = last.get(key)
            # an unchanged run holds the very same record objects
            if piece is None or piece[0] != lead or piece[1] != run:
                text = INDEX_SEP.join(run)
                piece = (lead, run, _deflate(deflater, INDEX_SEP + text if lead else text))
            pieces[key] = piece
            out.append(piece[2])
        if index.records:
            out.append(_TAIL_PIECE)
        out.append(_FINAL_BLOCK)
        out.append(struct.pack("<II", zlib.crc32(body), len(body) & 0xFFFFFFFF))
        self._index_pieces = pieces
        return body, b"".join(out)

    def _body(self, entry: ArchiveEntry) -> bytes:
        """``entry``'s body, verified by ``Archive.load_entry`` on its first
        read only; raises CollectorError, and keeps nothing, when that fails."""
        key = (entry.segment, entry.offset)
        with self._bodies_lock:
            body = self._bodies.get(key)
            if body is not None:
                self._bodies.move_to_end(key)
                return body
        body = self.archive.load_entry(entry).body
        if len(body) <= BODY_CACHE_BYTES:
            with self._bodies_lock:
                if key not in self._bodies:
                    self._bodies[key] = body
                    self._body_bytes += len(body)
                    while self._body_bytes > BODY_CACHE_BYTES:
                        self._body_bytes -= len(self._bodies.popitem(last=False)[1])
        return body

    def _bodies_of(self, entries) -> bytes:
        """The servable bodies of ``entries``, concatenated in order."""
        bodies = []
        for entry in entries:
            try:
                bodies.append(self._body(entry))
            except CollectorError as exc:
                log.warning("event=entry_unservable path=%s error=%r",
                            entry.path, exc)
        return b"".join(bodies)

    def _current_consensus(self, route: str, flavor: DocType) -> tuple | None:
        now = self.clock.now()
        candidates = [e for e in self.archive.of_type(flavor) if e.doc_datetime <= now]
        if not candidates:
            return None
        # newest first; equal timestamps (a split) break on the digest so
        # every cache that holds the same set serves the same answer
        best = max(
            candidates,
            key=lambda e: (e.doc_datetime, e.digests.primary_for(flavor)),
        )
        # the entry, not the path: a path names only 8 hex digits of the digest
        key = (best.segment, best.offset)
        validity = self._consensus_validity.get(flavor)
        try:
            if validity is None or validity[0] != key:
                raw = RawDocument(flavor, self._body(best), f"archive:{best.path}",
                                  best.stored_at, best.digests)
                validity = (key, docparse.extract_timings(docparse.parse(raw)).valid_until)
                self._consensus_validity[flavor] = validity
            if validity[1] <= now:
                return None
            return self._snapshot(route, key, lambda: _gzipped(self._body(best)))
        except CollectorError as exc:
            log.warning("event=consensus_unservable path=%s error=%r", best.path, exc)
            return None

    def _batch(self, spec: str, doctype: DocType, sep: str, pattern) -> tuple:
        tokens = spec.split(sep) if spec else []
        if (not tokens or len(tokens) > MAX_BATCH
                or any(not pattern.match(t) for t in tokens)):
            return 400, b"", "text/plain", None
        found = (self.archive.find_digest_token(token) for token in tokens)
        body = self._bodies_of(e for e in found if e is not None and e.doctype is doctype)
        if not body:
            return 404, b"", "text/plain", None
        return 200, body, "text/plain", None

    def _bulk(self, route: str, doctype: DocType) -> tuple | None:
        generation = self.archive.generation
        window = self.archive.of_type(doctype, self.clock.now() - BULK_WINDOW)
        # one generation's list of a type is fixed, so the window's length
        # fixes its first index: a window sliding past an entry rebuilds
        return self._snapshot(route, (generation, len(window)),
                              lambda: _gzipped(self._bodies_of(window)))


def _index_runs(entries: tuple[ArchiveEntry, ...]):
    """(key, start, end) of each piece's run of ``entries``, in index
    order: one type's entries in one UTC day of ``doc_datetime``, or in one
    UTC hour when the day holds more than ``PIECE_RECORDS``. Keys and
    bounds follow from the entries' own sort keys, so a store moves no
    other run."""
    start = 0
    while start < len(entries):
        first = entries[start]
        name = first.type_name
        day = first.doc_datetime.replace(hour=0, minute=0, second=0, microsecond=0)
        day_end = bisect_left(entries, (name, day + _DAY), start, key=_run_key)
        if day_end - start <= PIECE_RECORDS:
            yield (name, day), start, day_end
            start = day_end
            continue
        while start < day_end:
            hour = entries[start].doc_datetime.replace(minute=0, second=0, microsecond=0)
            end = bisect_left(entries, (name, hour + _HOUR), start, day_end, key=_run_key)
            yield (name, hour), start, end
            start = end


def _run_key(entry: ArchiveEntry) -> tuple:
    # the leading part of Archive.build_index's sort key
    return entry.type_name, entry.doc_datetime


def _deflater():
    """A raw deflate stream (no zlib or gzip framing)."""
    return zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, -15)


def _deflate(deflater, text: bytes) -> bytes:
    """``text`` through ``deflater``, fully flushed: the piece ends on a
    byte boundary and refers to nothing before it."""
    return deflater.compress(text) + deflater.flush(zlib.Z_FULL_FLUSH)


#: compressed once: every index with entries ends with it
_TAIL_PIECE = _deflate(_deflater(), INDEX_TAIL)


def _gzipped(body: bytes) -> tuple[bytes, bytes]:
    return body, gzip.compress(body, compresslevel=GZIP_LEVEL)


def _served(snapshot: tuple | None, ctype: str) -> tuple[int, bytes, str, bytes | None]:
    if snapshot is None:
        return 404, b"", "text/plain", None
    return 200, snapshot[1], ctype, snapshot[2]


def _accepts_gzip(accept_encoding: str) -> bool:
    """Whether an Accept-Encoding value lists gzip with a q-value above 0."""
    found = _GZIP_CODING.search(accept_encoding)
    return found is not None and float(found.group(1) or 1) > 0


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        """A client hanging up mid-request or mid-response is routine."""
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            log.debug("event=client_gone client=%s error=%r", client_address[0], exc)
        else:
            log.exception("event=handler_failed client=%s", client_address[0])


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out as two writes; with Nagle on, the body would
    # wait for the client's delayed ACK on every keep-alive response
    disable_nagle_algorithm = True

    @property
    def timeout(self):
        # socketserver applies it to each connection as it starts
        return CLIENT_TIMEOUT

    def do_GET(self):  # noqa: N802 (http.server API)
        srv: DirServer = self.server.dirserver
        try:
            status, body, ctype, gzipped = srv.respond(self.path.split("?", 1)[0])
        except Exception:
            log.exception("event=request_failed path=%s", self.path)
            status, body, ctype, gzipped = 500, b"", "text/plain", None
        encoding = None
        if body and _accepts_gzip(self.headers.get("Accept-Encoding", "")):
            body = gzipped or gzip.compress(body, compresslevel=GZIP_LEVEL)
            encoding = "gzip"
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        if encoding:
            self.send_header("Content-Encoding", encoding)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def log_message(self, format, *args):
        pass
