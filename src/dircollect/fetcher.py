"""HTTP client for directory servers.

Wraps urllib with the concerns a polite directory client has: bounded
in-flight requests per server and globally, gzip/deflate negotiation,
a response size cap, digest verification of batch downloads, and role
awareness (extra-info descriptors may only be requested from servers
that actually cache them).

The ``gate`` callable threaded through the batch methods is how the
one-attempt-per-phase ledger hooks in: before a digest is put on a URL
for a given server the gate is asked, and a False answer removes that
digest from the request. The fetcher itself never retries; callers
decide whether an identifier is offered to another server.
"""

from __future__ import annotations

import enum
import http.client
import logging
import socket
import threading
import urllib.error
import urllib.request
import zlib
from dataclasses import dataclass
from datetime import date

from . import docparse
from .clock import Clock, SystemClock
from .docmodel import DocType, DocumentIdentifier, RawDocument
from .errors import (
    FetchError,
    FetchTimeout,
    HttpError,
    PermanentMiss,
    TooLarge,
    TransientError,
)
from .metrics import Metrics

log = logging.getLogger("dircollect.fetcher")

MAX_BODY = 32 * 1024 * 1024
MAX_BATCH = 96
PER_SERVER_INFLIGHT = 4
GLOBAL_INFLIGHT = 32
TIMEOUT = 30.0

ONIONPERF_SIZES = (51200, 1048576, 5242880)


class Role(enum.Enum):
    DirectoryCache = "directory-cache"
    ExtraInfoCache = "extra-info-cache"
    Authority = "authority"


def _expand_roles(roles) -> frozenset:
    """Authorities are extra-info caches; extra-info caches are caches."""
    out = set(roles)
    if Role.Authority in out:
        out.add(Role.ExtraInfoCache)
    if Role.ExtraInfoCache in out:
        out.add(Role.DirectoryCache)
    return frozenset(out)


@dataclass(frozen=True)
class ServerEndpoint:
    server_id: str
    address: str  # host:port
    roles: frozenset = frozenset({Role.DirectoryCache})

    def __post_init__(self):
        object.__setattr__(self, "roles", _expand_roles(self.roles))

    @property
    def is_authority(self) -> bool:
        return Role.Authority in self.roles

    def serves_extra_info(self) -> bool:
        return Role.ExtraInfoCache in self.roles


#: The directory protocol's URLs (dir-spec), the one place they are
#: written: the dirserver serves these same routes back.
#: Whole documents by type: both consensus flavors, then the next
#: period's vote, detached signatures and bandwidth file.
DOCUMENT_URLS = {
    DocType.ConsensusNs: "/tor/status-vote/current/consensus",
    DocType.ConsensusMicrodesc: "/tor/status-vote/current/consensus-microdesc",
    DocType.Vote: "/tor/status-vote/next/authority",
    DocType.DetachedSignature: "/tor/status-vote/next/consensus-signatures",
    DocType.BandwidthList: "/tor/status-vote/next/bandwidth",
}
#: Digest batches: (prefix, separator) per type.
BATCH_URLS = {
    DocType.ServerDescriptor: ("/tor/server/d/", "+"),
    DocType.ExtraInfoDescriptor: ("/tor/extra/d/", "+"),
    DocType.Microdescriptor: ("/tor/micro/d/", "-"),
}
#: Everything a server volunteers of a type.
BULK_URLS = {
    DocType.ServerDescriptor: "/tor/server/all",
    DocType.ExtraInfoDescriptor: "/tor/extra/all",
}


def _batch_key(ident: DocumentIdentifier) -> str | None:
    if ident.doctype is DocType.Microdescriptor:
        return ident.digests.sha256_base64
    return ident.digests.sha1_hex


class Fetcher:
    def __init__(self, clock: Clock | None = None, metrics: Metrics | None = None,
                 timeout: float = TIMEOUT):
        self.clock = clock or SystemClock()
        self.metrics = metrics or Metrics()
        self.timeout = timeout
        self._global = threading.BoundedSemaphore(GLOBAL_INFLIGHT)
        self._per_server: dict[str, threading.BoundedSemaphore] = {}
        self._sem_lock = threading.Lock()

    # -- transport ---------------------------------------------------------------

    def _server_sem(self, server_id: str) -> threading.BoundedSemaphore:
        with self._sem_lock:
            return self._per_server.setdefault(
                server_id, threading.BoundedSemaphore(PER_SERVER_INFLIGHT)
            )

    def get(self, server: ServerEndpoint, path: str) -> bytes:
        """One GET, decompressed and size-capped. Raises on any failure."""
        return self._get_url(f"http://{server.address}{path}", server.server_id)

    def _get_url(self, url: str, server_id: str) -> bytes:
        """The one transport: in-flight limits, size cap, error mapping."""
        request = urllib.request.Request(
            url, headers={"Accept-Encoding": "gzip, deflate"}
        )
        self.metrics.incr("fetcher.requests")
        with self._global, self._server_sem(server_id):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    length = resp.headers.get("Content-Length")
                    try:
                        advertised = int(length or 0)
                    except ValueError:  # counted and mapped below like any bad response
                        raise http.client.HTTPException(
                            f"bad Content-Length {length!r}") from None
                    if advertised > MAX_BODY:
                        raise TooLarge(f"{url}: advertised {length} bytes")
                    body = resp.read(MAX_BODY + 1)
                    encoding = resp.headers.get("Content-Encoding", "")
            except urllib.error.HTTPError as exc:
                self.metrics.incr("fetcher.errors")
                raise HttpError(exc.code, server_id=server_id) from exc
            except (socket.timeout, TimeoutError) as exc:
                self.metrics.incr("fetcher.timeouts")
                raise FetchTimeout(
                    f"{url} after {self.timeout}s", server_id=server_id
                ) from exc
            except urllib.error.URLError as exc:
                if isinstance(exc.reason, (socket.timeout, TimeoutError)):
                    self.metrics.incr("fetcher.timeouts")
                    raise FetchTimeout(
                        f"{url} after {self.timeout}s", server_id=server_id
                    ) from exc
                self.metrics.incr("fetcher.errors")
                raise FetchError(
                    f"{url}: {exc.reason}", server_id=server_id
                ) from exc
            except (http.client.HTTPException, ConnectionError, OSError) as exc:
                self.metrics.incr("fetcher.errors")
                raise FetchError(f"{url}: {exc}", server_id=server_id) from exc
        if len(body) > MAX_BODY:
            raise TooLarge(f"{url}: body exceeds {MAX_BODY} bytes")
        body = self._decode(body, encoding, url)
        self.metrics.incr("fetcher.bytes", len(body))
        return body

    def _decode(self, body: bytes, encoding: str, url: str) -> bytes:
        """Inflate a gzip or deflate body, never past MAX_BODY bytes."""
        if encoding not in ("gzip", "deflate"):
            return body
        inflater = zlib.decompressobj(zlib.MAX_WBITS | 32)  # either header
        try:
            out = inflater.decompress(body, MAX_BODY + 1)
        except zlib.error as exc:
            raise FetchError(f"{url}: corrupt {encoding} body: {exc}") from exc
        if len(out) > MAX_BODY:
            raise TooLarge(f"{url}: decompressed body exceeds {MAX_BODY} bytes")
        if not inflater.eof:
            raise FetchError(f"{url}: truncated {encoding} body")
        return out

    def _raw(self, body: bytes, server: ServerEndpoint) -> RawDocument:
        return docparse.make_raw(body, server.server_id, self.clock.now())

    # -- single documents --------------------------------------------------------

    def fetch(self, server: ServerEndpoint, doctype: DocType) -> RawDocument:
        """The whole document of a `DOCUMENT_URLS` type a server serves now."""
        return self._raw(self.get(server, DOCUMENT_URLS[doctype]), server)

    # -- digest batches -----------------------------------------------------------

    def fetch_batch(
        self,
        doctype: DocType,
        idents: list[DocumentIdentifier],
        servers: list[ServerEndpoint],
        gate=None,
    ) -> tuple[list[RawDocument], list[DocumentIdentifier]]:
        """Fetch digest-addressed descriptors from a preference-ordered
        server list.

        Returns (documents, unfetched). Documents whose recomputed digest
        does not match anything requested come back as unrecognized raw
        documents so the caller can quarantine them. Identifiers still
        unfetched after every willing server was tried once are returned
        for the caller to deal with; there are no retries here.
        """
        prefix, sep = BATCH_URLS[doctype]
        remaining: dict[str, DocumentIdentifier] = {}
        unfetchable = []
        for ident in idents:
            key = _batch_key(ident)
            if key is None:
                unfetchable.append(ident)
            else:
                remaining[key] = ident
        docs: list[RawDocument] = []

        for server in servers:
            if not remaining:
                break
            if doctype is DocType.ExtraInfoDescriptor and not server.serves_extra_info():
                continue
            keys = list(remaining)
            for i in range(0, len(keys), MAX_BATCH):
                chunk = keys[i : i + MAX_BATCH]
                if gate is not None:
                    chunk = [
                        k for k in chunk
                        if gate(remaining[k], server.server_id)
                    ]
                if not chunk:
                    continue
                try:
                    body = self.get(server, prefix + sep.join(chunk))
                except FetchError as exc:
                    log.info("event=batch_failed server=%s type=%s error=%r",
                             server.server_id, doctype.value, exc)
                    continue
                for _, part in docparse.split_concatenated(body):
                    raw = self._raw(part, server)
                    matched = self._match(raw, remaining)
                    if matched is not None:
                        del remaining[matched]
                        docs.append(raw)
                    else:
                        self.metrics.incr("fetcher.digest_mismatches")
                        log.warning("event=digest_mismatch server=%s type=%s",
                                    server.server_id, doctype.value)
                        docs.append(RawDocument(
                            None, raw.body, raw.source, raw.retrieved_at,
                            docparse.compute_digests(raw.body, None),
                        ))
        return docs, list(remaining.values()) + unfetchable

    @staticmethod
    def _match(raw: RawDocument, remaining: dict) -> str | None:
        for key in (raw.digests.sha1_hex, raw.digests.sha256_base64):
            if key is not None and key in remaining:
                return key
        return None

    # -- bulk discovery ------------------------------------------------------------

    def fetch_all_descriptors(
        self, server: ServerEndpoint, doctype: DocType
    ) -> list[RawDocument]:
        """Everything a server will volunteer of a `BULK_URLS` type.
        One attempt, no retry; failures just log."""
        path = BULK_URLS[doctype]
        try:
            body = self.get(server, path)
        except FetchError as exc:
            log.info("event=discovery_failed server=%s path=%s error=%r",
                     server.server_id, path, exc)
            return []
        return [
            self._raw(part, server)
            for _, part in docparse.split_concatenated(body)
        ]

    # -- measurement results ---------------------------------------------------------

    def fetch_onionperf(
        self, base_url: str, source: str, size: int, day: date
    ) -> RawDocument:
        """One day's measurement file from an onionperf host.

        404/410 mean the file will never exist (PermanentMiss); anything
        else that goes wrong is worth trying again later (TransientError).
        """
        url = f"{base_url.rstrip('/')}/{source}-{size}-{day.isoformat()}.tpf"
        try:
            body = self._get_url(url, base_url)
        except FetchError as exc:
            if isinstance(exc, HttpError) and exc.status in (404, 410):
                raise PermanentMiss(url) from exc
            raise TransientError(str(exc), server_id=base_url) from exc
        return docparse.make_raw(body, base_url, self.clock.now(),
                                 DocType.TorperfResults)
