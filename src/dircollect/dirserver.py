"""Read side: re-serve archived documents over the directory URL layout.

A collector is also a directory source. What was fetched can be fetched
back: the current consensus per flavor, descriptors by digest batch,
recently stored descriptors in bulk, plus the archive index and a small
operational status document. Bodies go out exactly as they came off the
wire (annotations stay internal to the archive).
"""

from __future__ import annotations

import gzip
import json
import logging
import re
import threading
from datetime import datetime, timedelta
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import docparse
from .archive import Archive, index_json_bytes
from .clock import Clock
from .docmodel import DocType
from .errors import CollectorError
from .metrics import Metrics

log = logging.getLogger("dircollect.dirserver")

#: how far back /tor/server/all and /tor/extra/all reach
BULK_WINDOW = timedelta(hours=24)

_HEX40 = re.compile(r"[0-9A-Fa-f]{40}\Z")
_B64_43 = re.compile(r"[0-9A-Za-z+/]{43}\Z")

_BATCH_ROUTES = {
    "/tor/server/d/": (DocType.ServerDescriptor, "+", _HEX40),
    "/tor/extra/d/": (DocType.ExtraInfoDescriptor, "+", _HEX40),
    "/tor/micro/d/": (DocType.Microdescriptor, "-", _B64_43),
}

_FLAVORS = {
    "/tor/status-vote/current/consensus": DocType.ConsensusNs,
    "/tor/status-vote/current/consensus-microdesc": DocType.ConsensusMicrodesc,
}


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
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        #: flavor -> (path, valid_until) of the consensus parsed last
        #: (archive files are content-addressed: a path's bytes never change)
        self._consensus_validity: dict[DocType, tuple[str, datetime]] = {}

    def start(self) -> None:
        self._server = ThreadingHTTPServer((self._host, self._port), _Handler)
        self._server.daemon_threads = True
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
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def address(self) -> str:
        return f"{self._host}:{self._port}"

    # -- request handling ----------------------------------------------------

    def respond(self, path: str) -> tuple[int, bytes, str]:
        """(status, body, content type) for a GET of ``path``."""
        self.metrics.incr("dirserver.requests")
        if path in _FLAVORS:
            body = self._current_consensus(_FLAVORS[path])
            if body is None:
                return 404, b"", "text/plain"
            return 200, body, "text/plain"

        for prefix, (doctype, sep, pattern) in _BATCH_ROUTES.items():
            if path.startswith(prefix):
                return self._batch(path[len(prefix):], doctype, sep, pattern)

        if path in ("/tor/server/all", "/tor/extra/all"):
            doctype = (DocType.ServerDescriptor if path == "/tor/server/all"
                       else DocType.ExtraInfoDescriptor)
            body = self._bulk(doctype)
            if body is None:
                return 404, b"", "text/plain"
            return 200, body, "text/plain"

        if path == "/index.json":
            return 200, index_json_bytes(self.archive.build_index()), "application/json"

        if path == "/status":
            status = self.status_provider() if self.status_provider else {}
            body = json.dumps(status, indent=2, sort_keys=True).encode() + b"\n"
            return 200, body, "application/json"

        return 404, b"", "text/plain"

    def _current_consensus(self, flavor: DocType) -> bytes | None:
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
        validity = self._consensus_validity.get(flavor)
        try:
            raw = self.archive.load_entry(best)
            if validity is None or validity[0] != best.path:
                validity = (best.path,
                            docparse.extract_timings(docparse.parse(raw)).valid_until)
                self._consensus_validity[flavor] = validity
        except CollectorError as exc:
            log.warning("event=consensus_unservable path=%s error=%r", best.path, exc)
            return None
        if validity[1] <= now:
            return None
        return raw.body

    def _batch(self, spec: str, doctype: DocType, sep: str, pattern) -> tuple:
        tokens = spec.split(sep) if spec else []
        if not tokens or any(not pattern.match(t) for t in tokens):
            return 400, b"", "text/plain"
        bodies = []
        for token in tokens:
            entry = self.archive.find_digest_token(token)
            if entry is None or entry.doctype is not doctype:
                continue
            try:
                bodies.append(self.archive.load_entry(entry).body)
            except CollectorError as exc:
                log.warning("event=entry_unservable path=%s error=%r",
                            entry.path, exc)
        if not bodies:
            return 404, b"", "text/plain"
        return 200, b"".join(bodies), "text/plain"

    def _bulk(self, doctype: DocType) -> bytes | None:
        bodies = []
        for entry in self.archive.of_type(doctype, self.clock.now() - BULK_WINDOW):
            try:
                bodies.append(self.archive.load_entry(entry).body)
            except CollectorError as exc:
                log.warning("event=entry_unservable path=%s error=%r",
                            entry.path, exc)
        return b"".join(bodies) if bodies else None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out as two writes; with Nagle on, the body would
    # wait for the client's delayed ACK on every keep-alive response
    disable_nagle_algorithm = True

    def do_GET(self):  # noqa: N802 (http.server API)
        srv: DirServer = self.server.dirserver
        try:
            status, body, ctype = srv.respond(self.path.split("?", 1)[0])
        except Exception:
            log.exception("event=request_failed path=%s", self.path)
            status, body, ctype = 500, b"", "text/plain"
        encoding = None
        if body and "gzip" in self.headers.get("Accept-Encoding", ""):
            # zlib's default level: level 9 (gzip's default) took twice the
            # CPU for a 1.5% smaller index
            body = gzip.compress(body, compresslevel=6)
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
