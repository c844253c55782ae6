"""Content-addressed on-disk archive with annotations and an index.

Layout under the root:

    archive/<type>/<YYYY>/<MM>/<type>-<YYYY>-<MM>-<DD>-<HH>   segments
    manifest/<YYYY>-<MM>.jsonl                               entry metadata
    recent/<type>-<YYYY>-<MM>-<DD>-<HH>                      last 72 h of closed segments
    index.json

A segment holds every document of one type stored in one UTC hour (of
``stored_at``), appended in store order: annotated (@type line + body),
except unrecognized blobs. A manifest line names the document's segment,
its ``offset`` there and its ``size``; reads are one ``pread`` of that
range. A segment of a recognized type reads like any other annotated
concatenation, so ``import`` files its documents under the same paths;
not so torperf segments (their source and day were in the file name) or
unrecognized ones (bare blobs run together).

An entry's ``path`` is its name, a pure function of its identity (see
``entry_path``): the archive and ``index.json`` know it by that name, but
no file carries it.

A store appends the payload to its segment, then appends the manifest
line, and only then indexes the entry. A failed write truncates the
segment (or the manifest) back to where the append began. A crash can
leave a torn manifest line or segment bytes that no manifest line
covers; opening the archive truncates both away, so a partial document
is never visible.

Every store and that open-time truncation hold an exclusive ``flock`` on
the root directory, so several processes (or archives) may open, and
write, one root: no opener sees another's store between its segment
append and its manifest line, and no two appends take the same end.

A segment is closed once its hour is over: nothing appends to it again.
``recent/`` publishes each closed segment of a recognized type (torperf
included) from the last 72 h as a hard link under the segment's own name,
so it shares the segment's bytes and must be treated as read-only. The
open links the closed segments it finds, after cutting their torn tails;
the first store of a later hour links the hour the process was in. Both
then drop the links whose hour ended 72 h ago or more. A failed link is
logged and fails nothing.

Each type's current segment and the manifest month last written keep
one held append handle each, replaced when the store moves on. All other
opens pass through one counting gate; ``archive.open_files_peak``
counts both (but not the root's directory descriptor).

``index.json`` and the served ``/index.json`` are one rendering,
``index_json_bytes(archive.build_index())``: each entry's record is
rendered by the index build (not by the store), and a build handed the
records that earlier builds rendered renders only the entries they lack.
The rendering is ``index_head``, the records joined by ``INDEX_SEP``, then
``INDEX_TAIL``. The dirserver holds the records, and gzips the index in
pieces cut at those joins (one per type and UTC day of ``doc_datetime``),
so that its rebuild after a store is a sort, a join and the recompression
of the pieces the store changed.
"""

from __future__ import annotations

import errno
import fcntl
import json
import logging
import os
import re
import sys
import threading
import weakref
from bisect import bisect_left, insort
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from operator import attrgetter
from pathlib import Path

from . import docparse
from .clock import Clock
from .docmodel import (
    DigestSet,
    DocType,
    DocumentIdentifier,
    RawDocument,
    ensure_utc,
    fmt_compact,
    fmt_ts,
    parse_compact,
    parse_ts,
)
from .errors import ArchiveError, CorruptEntry, DigestRangeNotFound, StorageFull
from .metrics import Metrics

log = logging.getLogger("dircollect.archive")

UNRECOGNIZED_DIR = "unrecognized"
RECENT_RETENTION = timedelta(hours=72)
#: transient file opens allowed at once, across all threads
MAX_OPEN_FILES = 512
#: missing-reference ratio above which ``verify_integrity`` warns
MISSING_THRESHOLD = 0.005
#: generated_at for an index over an empty archive; otherwise it is the
#: newest stored_at, so regeneration without changes is byte-identical.
_EPOCH_TS = "1970-01-01 00:00:00"

#: a segment's path relative to archive/; the open-time tail check
#: touches nothing else
_SEGMENT_RE = re.compile(r"([a-z0-9-]+)/\d{4}/\d\d/\1-\d{4}-\d\d-\d\d-\d\d")
#: the hour in a recent/ file's name: a segment's, or the snapshot time
#: that ``once`` put first in names of the older format
_HOUR_RE = re.compile(r"\d{4}-\d\d-\d\d-\d\d")

_DIGEST_TYPES = frozenset({
    DocType.ServerDescriptor,
    DocType.ExtraInfoDescriptor,
    DocType.Microdescriptor,
    DocType.BandwidthList,
})


def _pathsafe(digest: str) -> str:
    """base64 digests carry '/' and '+'; swap to the url-safe alphabet."""
    return digest.replace("+", "-").replace("/", "_")


def entry_path(doctype: DocType | None, subject: str, when: datetime,
               digests: DigestSet) -> str:
    """A document's name in the archive: a pure function of its identity."""
    when = ensure_utc(when)
    primary = digests.primary_for(doctype)
    if primary is None:
        raise ArchiveError("cannot place a document with no digests")
    dirname = doctype.dirname if doctype else UNRECOGNIZED_DIR
    if doctype is DocType.TorperfResults:
        # different files can share source, size and day; the digest parts them
        return f"{dirname}/{when:%Y/%m}/{primary[:8]}/{subject}-{when:%Y-%m-%d}.tpf"
    if doctype is None or doctype in _DIGEST_TYPES:
        name = _pathsafe(primary)
        return f"{dirname}/{when:%Y/%m}/{name[0]}/{name[1]}/{name}"
    # period documents: consensuses, votes, detached signatures
    stamp = fmt_compact(when)
    return f"{dirname}/{when:%Y/%m/%d}/{dirname}-{stamp}-{_pathsafe(primary)[:8]}"


def segment_path(type_name: str, stored_at: datetime) -> str:
    """The segment, relative to archive/, that holds ``type_name``
    documents stored in ``stored_at``'s UTC hour."""
    return f"{type_name}/{stored_at:%Y/%m}/{type_name}-{_hour(stored_at)}"


def _hour(when: datetime) -> str:
    """``when``'s hour as segment names end in it; these sort in time order."""
    return f"{when:%Y-%m-%d-%H}"


def _end_of_hour(when: datetime) -> datetime:
    """The first instant after ``when``'s hour."""
    return when.replace(minute=0, second=0, microsecond=0) + timedelta(hours=1)


def _append(fd: int, data: bytes, start: int) -> None:
    """Append all of ``data`` to the file whose end is ``start``, or cut
    the file back to ``start`` and raise: StorageFull when it is full."""
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
    except OSError as exc:
        os.ftruncate(fd, start)
        if exc.errno == errno.ENOSPC:
            raise StorageFull(str(exc)) from exc
        raise


@dataclass(frozen=True, slots=True)
class ArchiveEntry:
    path: str
    doctype: DocType | None
    digests: DigestSet
    size_bytes: int
    stored_at: datetime
    doc_datetime: datetime
    #: where the annotated bytes are: a segment under archive/, and the
    #: offset of the first of ``size_bytes`` there
    segment: str
    offset: int
    subject: str = ""

    @property
    def type_name(self) -> str:
        return self.doctype.dirname if self.doctype else UNRECOGNIZED_DIR


@dataclass(frozen=True)
class IndexFile:
    generated_at: str
    entries: tuple[ArchiveEntry, ...]
    #: each entry's record in ``/index.json`` (see ``_index_record``), in
    #: the same order
    records: tuple[bytes, ...]


@dataclass
class IntegrityReport:
    checked: int = 0
    corrupt: list[str] = field(default_factory=list)
    total_references: int = 0
    missing: int = 0
    warn: bool = False

    @property
    def missing_ratio(self) -> float:
        return self.missing / self.total_references if self.total_references else 0.0


@dataclass
class ImportReport:
    stored: dict[str, int] = field(default_factory=dict)
    duplicates: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)

    def count(self, type_name: str) -> None:
        self.stored[type_name] = self.stored.get(type_name, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.stored.values())


class _FileGate:
    """Counting gate around transient file opens, with a high-water mark
    that also counts the held append handles."""

    def __init__(self, limit: int, metrics: Metrics):
        self._sem = threading.BoundedSemaphore(limit)
        self._lock = threading.Lock()
        self._open = 0
        self._metrics = metrics

    def count(self, delta: int) -> None:
        """Count opens and closes that take no permit (the held handles)."""
        with self._lock:
            self._open += delta
            self._metrics.max_gauge("archive.open_files_peak", self._open)

    @contextmanager
    def held(self):
        self._sem.acquire()
        self.count(1)
        try:
            yield
        finally:
            self.count(-1)
            self._sem.release()


class _Appender:
    """One held unbuffered append handle, on one file at a time: moving
    to another file closes the last one, so each appender holds at most
    one handle. It takes no gate permit, so it cannot wait on reads."""

    def __init__(self, base: Path, gate: _FileGate):
        self._base = base
        self._gate = gate
        self._rel: str | None = None
        self._fh = None

    def fd(self, rel: str) -> int:
        """The descriptor of ``base/rel``, opened (and created) on a move."""
        if rel != self._rel:
            self.close()
            path = self._base / rel
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(path, "ab", buffering=0)
            except OSError as exc:
                if exc.errno == errno.ENOSPC:
                    raise StorageFull(str(exc)) from exc
                raise
            self._rel = rel
            self._gate.count(1)
        return self._fh.fileno()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._gate.count(-1)
            self._fh = self._rel = None


def _close_appenders(segments: dict[DocType | None, _Appender], manifest: _Appender) -> None:
    for appender in (*segments.values(), manifest):
        appender.close()


class Archive:
    """Concurrent-safe document store; see module docstring for layout."""

    def __init__(self, root: str | Path, clock: Clock, metrics: Metrics | None = None):
        self.root = Path(root)
        self.clock = clock
        self.metrics = metrics or Metrics()
        self._gate = _FileGate(MAX_OPEN_FILES, self.metrics)
        #: guards the indexes; held only for in-memory work, so readers
        #: never wait on a store's file writes
        self._lock = threading.RLock()
        #: one store at a time, from the digest re-check to the index
        self._store_lock = threading.Lock()
        self._by_digest: dict[str, ArchiveEntry] = {}
        #: each type's entries in (stored_at, path) order
        self._by_type: dict[DocType | None, list[ArchiveEntry]] = {}
        self._by_period: dict[tuple[DocType | None, datetime], list[ArchiveEntry]] = {}
        #: bumped by ``_register`` for each entry it indexes, and by nothing
        #: else: what was built from the indexes at one generation holds
        #: until the next
        self.generation = 0
        for sub in ("archive", "manifest", "recent"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        #: one held append handle per type's current segment, and one for
        #: the manifest month last written
        self._segments: dict[DocType | None, _Appender] = {}
        self._manifest = _Appender(self.root / "manifest", self._gate)
        #: flocked across each store and the open-time repair
        self._root_fd = os.open(self.root, os.O_RDONLY)
        # an archive dropped without close() still closes its handles
        weakref.finalize(self, _close_appenders, self._segments, self._manifest)
        weakref.finalize(self, os.close, self._root_fd)
        #: the last time the open or a store took
        self._last_now = self.clock.now()
        #: the end of the hour whose segments are open: the first store
        #: at or past it publishes them
        self._hour_end = _end_of_hour(self._last_now)
        # read unlocked first, so that a process writing this root waits
        # only for the lines it appended meanwhile and the repair
        ends: dict[str, int] = {}
        done = self._load_manifests({}, ends, repair=False)
        with self._root_locked():
            self._load_manifests(done, ends, repair=True)
            self._truncate_segments(ends)
        self._prune_recent()

    @contextmanager
    def _root_locked(self):
        """Hold the root's exclusive flock, which every store, in any
        process, holds from its segment append to its manifest line."""
        fcntl.flock(self._root_fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(self._root_fd, fcntl.LOCK_UN)

    def _now(self) -> datetime:
        """The clock's time, but never before the last one taken: a clock
        stepped back must not file a store before an earlier one, or in a
        segment already closed. Call with the store lock held."""
        self._last_now = max(self.clock.now(), self._last_now)
        return self._last_now

    # -- metadata bookkeeping -------------------------------------------------

    def _register(self, entry: ArchiveEntry) -> ArchiveEntry:
        """Index one entry unless its digests are indexed already (a raced
        store, a duplicated manifest line); returns the entry kept."""
        kept = self.find_by_digests(entry.digests)
        if kept is not None:
            return kept
        insort(self._by_type.setdefault(entry.doctype, []), entry,
               key=attrgetter("stored_at", "path"))
        for digest in (
            entry.digests.sha1_hex,
            entry.digests.sha256_hex,
            entry.digests.sha256_base64,
        ):
            if digest:
                self._by_digest[digest] = entry
        key = (entry.doctype, entry.doc_datetime)
        self._by_period.setdefault(key, []).append(entry)
        self.generation += 1
        return entry

    def _load_manifests(self, done: dict[str, int], ends: dict[str, int],
                        repair: bool) -> dict[str, int]:
        """Index each manifest's lines past the bytes ``done`` has read of
        it, and raise ``ends`` to each segment's committed end, the largest
        offset + size a line gives it; returns the bytes now read.

        A line without its newline is a store still appending, or, when
        the root lock is held (``repair``), one that crashed: that one is
        cut away, as the next append would run into it."""
        read: dict[str, int] = {}
        for manifest in sorted((self.root / "manifest").glob("*.jsonl")):
            with self._gate.held(), open(manifest, "r+b" if repair else "rb") as fh:
                kept = done.get(manifest.name, 0)
                fh.seek(kept)
                for line in fh:
                    if not line.endswith(b"\n"):
                        if repair:
                            fh.truncate(kept)
                            log.warning("event=manifest_torn_tail file=%s dropped_bytes=%d",
                                        manifest.name, len(line))
                        break
                    kept += len(line)
                    if not line.strip():
                        continue
                    rec = json.loads(line)
                    if "segment" not in rec:
                        raise ArchiveError(
                            f"{manifest} lists per-document files; import that "
                            "root's archive/ into a fresh root to migrate it")
                    entry = ArchiveEntry(
                        path=rec["path"],
                        doctype=DocType(rec["type"]) if rec["type"] != UNRECOGNIZED_DIR else None,
                        digests=DigestSet(
                            sha1_hex=rec.get("sha1"),
                            sha256_base64=rec.get("sha256_b64"),
                            sha256_hex=rec.get("sha256"),
                        ),
                        size_bytes=rec["size"],
                        stored_at=parse_ts(rec["stored_at"]),
                        doc_datetime=parse_ts(rec["datetime"]),
                        subject=rec.get("subject", ""),
                        # one string per segment, not one per entry
                        segment=sys.intern(rec["segment"]),
                        offset=rec["offset"],
                    )
                    end = entry.offset + entry.size_bytes
                    if end > ends.get(entry.segment, 0):
                        ends[entry.segment] = end
                    with self._lock:
                        self._register(entry)
                read[manifest.name] = kept
        return read

    def _truncate_segments(self, ends: dict[str, int]) -> None:
        """Cut each segment back to its committed end: with the root lock
        held, bytes past it are a store that crashed before its manifest
        line was whole. Then publish it if it is recognized, closed and
        recent."""
        current, cutoff = _hour(self._last_now), _hour(self._last_now - RECENT_RETENTION)
        base = self.root / "archive"
        for path in base.glob("*/[0-9][0-9][0-9][0-9]/[0-9][0-9]/*"):
            rel = path.relative_to(base).as_posix()
            segment = _SEGMENT_RE.fullmatch(rel)
            if not segment:
                continue
            size = path.stat().st_size
            committed = ends.get(rel, 0)
            if size > committed:
                os.truncate(path, committed)
                log.warning("event=segment_torn_tail file=%s dropped_bytes=%d",
                            rel, size - committed)
            if (cutoff <= path.name[-13:] < current
                    and segment.group(1) != UNRECOGNIZED_DIR):
                self._publish(rel)

    def _append_manifest(self, entry: ArchiveEntry) -> None:
        """Append the entry's line to its month's manifest; call with the
        store lock held."""
        rec = {
            "path": entry.path,
            "type": entry.type_name,
            "subject": entry.subject,
            "sha1": entry.digests.sha1_hex,
            "sha256": entry.digests.sha256_any_hex(),
            "sha256_b64": entry.digests.sha256_base64,
            "size": entry.size_bytes,
            "stored_at": fmt_ts(entry.stored_at),
            "datetime": fmt_ts(entry.doc_datetime),
            "segment": entry.segment,
            "offset": entry.offset,
        }
        fd = self._manifest.fd(f"{entry.doc_datetime:%Y-%m}.jsonl")
        line = (json.dumps(rec, sort_keys=True) + "\n").encode("ascii")
        _append(fd, line, os.lseek(fd, 0, os.SEEK_END))

    def close(self) -> None:
        """Close the held append handles; a later store opens them again."""
        with self._store_lock:
            _close_appenders(self._segments, self._manifest)

    # -- lookups ---------------------------------------------------------------

    def find_by_digests(self, digests: DigestSet) -> ArchiveEntry | None:
        with self._lock:
            for digest in (digests.sha1_hex, digests.sha256_hex, digests.sha256_base64):
                if digest and digest in self._by_digest:
                    return self._by_digest[digest]
            hexd = digests.sha256_any_hex()
            if hexd and hexd in self._by_digest:
                return self._by_digest[hexd]
        return None

    def find_digest_token(self, token: str) -> ArchiveEntry | None:
        """Single-digest lookup in any encoding; hex is case-insensitive."""
        with self._lock:
            entry = self._by_digest.get(token)
            if entry is None:
                entry = self._by_digest.get(token.upper())
            return entry

    def find_period(self, doctype: DocType, when: datetime,
                    subject: str | None = None) -> list[ArchiveEntry]:
        with self._lock:
            found = list(self._by_period.get((doctype, ensure_utc(when)), []))
        if subject is not None:
            found = [e for e in found if e.subject == subject]
        return found

    def contains(self, docid: DocumentIdentifier) -> bool:
        """Digest lookup when possible, else (type, time, subject) lookup."""
        if not docid.digests.empty:
            return self.find_by_digests(docid.digests) is not None
        if docid.doctype is None or docid.datetime is None:
            return False
        subject = docid.subject if docid.subject else None
        return bool(self.find_period(docid.doctype, docid.datetime, subject))

    def of_type(self, doctype: DocType | None,
                since: datetime | None = None) -> list[ArchiveEntry]:
        """One type's entries stored at or after ``since``, oldest first
        (equal store times in path order)."""
        with self._lock:
            found = self._by_type.get(doctype, [])
            start = 0 if since is None else bisect_left(
                found, since, key=attrgetter("stored_at"))
            return found[start:]

    def entries(self) -> list[ArchiveEntry]:
        with self._lock:
            return [e for found in self._by_type.values() for e in found]

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {found[0].type_name: len(found)
                    for found in self._by_type.values()}

    # -- store / load ------------------------------------------------------------

    def store(self, raw: RawDocument, ident: DocumentIdentifier | None = None) -> ArchiveEntry:
        """Append one document to its segment; duplicates by digest are
        no-ops. Without ``ident`` the document is parsed to identify it."""
        if ident is None:
            ident = docparse.identify(raw, docparse.parse_admitted(raw))
        when = ident.datetime or raw.retrieved_at
        rel = entry_path(raw.doctype, ident.subject, when, raw.digests)
        payload = raw.body if raw.doctype is None else docparse.annotate(raw)
        type_name = raw.doctype.dirname if raw.doctype else UNRECOGNIZED_DIR
        # a raced duplicate writes nothing, and offsets follow the appends
        # (of other processes too, by the root lock)
        with self._store_lock:
            kept = self.find_by_digests(raw.digests)
            if kept is not None:
                return kept
            stored_at = self._now()
            if stored_at >= self._hour_end:
                self._close_hour(stored_at)
            segment = sys.intern(segment_path(type_name, stored_at))
            appender = self._segments.get(raw.doctype)
            if appender is None:
                appender = self._segments[raw.doctype] = _Appender(
                    self.root / "archive", self._gate)
            with self._root_locked():
                fd = appender.fd(segment)
                offset = os.lseek(fd, 0, os.SEEK_END)
                _append(fd, payload, offset)
                entry = ArchiveEntry(
                    path=rel,
                    doctype=raw.doctype,
                    digests=raw.digests,
                    size_bytes=len(payload),
                    stored_at=stored_at,
                    doc_datetime=ensure_utc(when),
                    subject=ident.subject,
                    segment=segment,
                    offset=offset,
                )
                try:
                    self._append_manifest(entry)
                except BaseException:
                    os.ftruncate(fd, offset)
                    raise
            with self._lock:
                self._register(entry)
        self.metrics.incr("archive.stored")
        log.info("event=stored type=%s path=%s size=%d", type_name, rel, len(payload))
        return entry

    def _read_entry(self, entry: ArchiveEntry) -> bytes:
        with self._gate.held():
            fd = os.open(self.root / "archive" / entry.segment, os.O_RDONLY)
            try:
                data = os.pread(fd, entry.size_bytes, entry.offset)
            finally:
                os.close(fd)
        if len(data) != entry.size_bytes:
            raise CorruptEntry(entry.path)
        return data

    def load_entry(self, entry: ArchiveEntry) -> RawDocument:
        data = self._read_entry(entry)
        _, body = docparse.strip_annotation(data)
        try:
            digests = docparse.compute_digests(body, entry.doctype)
        except DigestRangeNotFound:
            # corruption can eat the very delimiters the digest range needs
            raise CorruptEntry(entry.path)
        if not digests.matches(entry.digests):
            raise CorruptEntry(entry.path)
        return RawDocument(
            entry.doctype, body, f"archive:{entry.path}", entry.stored_at, digests
        )

    # -- recent/ ------------------------------------------------------------------

    def _close_hour(self, now: datetime) -> None:
        """Publish the hour that ended before ``now``: each recognized
        type's segment of it, whether this process or an earlier one wrote
        it, and close the append handles, all on segments of that hour.
        Call with the store lock held, so every append to them is
        committed."""
        start = self._hour_end - timedelta(hours=1)
        for doctype in self._by_type:
            stored = self.of_type(doctype, start)
            if doctype is not None and stored and stored[0].stored_at < self._hour_end:
                self._publish(stored[0].segment)
        for appender in self._segments.values():
            appender.close()
        self._hour_end = _end_of_hour(now)
        self._prune_recent()

    def _publish(self, segment: str) -> None:
        """Hard-link a closed segment into recent/ under its own name."""
        name = segment.rpartition("/")[2]
        try:
            os.link(self.root / "archive" / segment, self.root / "recent" / name)
        except FileExistsError:
            pass  # published by an earlier open or process
        except OSError as exc:
            log.warning("event=recent_link_failed file=%s error=%r", name, exc)

    def _prune_recent(self) -> None:
        """Drop the files in recent/ whose hour ended RECENT_RETENTION ago
        or earlier."""
        cutoff = _hour(self._last_now - RECENT_RETENTION)
        for path in (self.root / "recent").iterdir():
            hour = _HOUR_RE.search(path.name)
            if hour and hour.group() < cutoff:
                path.unlink(missing_ok=True)
                log.info("event=recent_pruned file=%s", path.name)

    # -- index ----------------------------------------------------------------------

    def build_index(self, rendered: dict[str, dict[int, bytes]] | None = None) -> IndexFile:
        """The index as of now; writing it out is the service's job.

        ``rendered`` (segment -> offset -> record) holds the records that
        earlier builds rendered; this build renders only the entries it
        lacks, and adds them. The indexes stay locked only while each
        type's list is copied: the sort and the rendering run unlocked."""
        with self._lock:
            lists = [found[:] for found in self._by_type.values()]
        if not lists:
            return IndexFile(_EPOCH_TS, (), ())
        # each list is in stored_at order
        generated = fmt_ts(max(found[-1].stored_at for found in lists))
        entries = sorted(
            (e for found in lists for e in found),
            key=lambda e: (
                e.type_name,
                e.doc_datetime,
                e.digests.primary_for(e.doctype) or "",
            ),
        )
        if rendered is None:
            rendered = {}
        records = []
        for e in entries:
            # two builds at once may both render a record: the same bytes
            in_segment = rendered.get(e.segment)
            if in_segment is None:
                in_segment = rendered.setdefault(e.segment, {})
            record = in_segment.get(e.offset)
            if record is None:
                record = in_segment[e.offset] = _index_record(e)
            records.append(record)
        return IndexFile(generated, tuple(entries), tuple(records))

    # -- integrity --------------------------------------------------------------------

    def verify_integrity(self) -> IntegrityReport:
        """Rehash files and count dangling references from statuses."""
        report = IntegrityReport()
        referencing = (DocType.Vote, DocType.ConsensusNs, DocType.ConsensusMicrodesc)
        missing_digests: set[str] = set()
        for entry in self.entries():
            report.checked += 1
            try:
                raw = self.load_entry(entry)
            except (CorruptEntry, OSError):
                report.corrupt.append(entry.path)
                continue
            parsed = docparse.parse_admitted(raw) if entry.doctype in referencing else None
            if parsed is None:
                continue
            for ref in docparse.extract_references(parsed, self.metrics):
                report.total_references += 1
                if self.find_by_digests(ref.digests) is None:
                    primary = ref.digests.primary_for(ref.doctype)
                    if primary:
                        missing_digests.add(primary)
        report.missing = len(missing_digests)
        report.warn = report.missing_ratio > MISSING_THRESHOLD or bool(report.corrupt)
        self.metrics.set_gauge("archive.last_missing", report.missing)
        return report

    # -- filesystem import -----------------------------------------------------------

    def import_path(self, path: str | Path) -> ImportReport:
        """Recursively ingest annotated archives or bare concatenations."""
        report = ImportReport()
        root = Path(path)
        files = [root] if root.is_file() else sorted(
            p for p in root.rglob("*") if p.is_file()
        )
        if not root.exists():
            report.errors.append((str(root), "no such file or directory"))
        now = self.clock.now()
        for file in files:
            try:
                with self._gate.held(), open(file, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                report.errors.append((str(file), str(exc)))
                continue
            if not data:
                continue
            try:
                self._import_file(file, data, now, report)
            except Exception as exc:
                report.errors.append((str(file), repr(exc)))
        return report

    def _import_file(self, file: Path, data: bytes, now: datetime,
                     report: ImportReport) -> None:
        subject_hint, datetime_hint = _hints_from_name(file.name)
        if file.suffix == ".tpf":
            raws = [docparse.make_raw(data, f"import:{file}", now,
                                      DocType.TorperfResults)]
        else:
            raws = []
            for ann, body in docparse.split_concatenated(data):
                doctype = None
                if ann is not None:
                    doctype = docparse.ANNOTATIONS_BY_NAME.get(ann.type_name)
                raws.append(docparse.make_raw(body, f"import:{file}", now, doctype))
        for raw in raws:
            if self.find_by_digests(raw.digests) is not None:
                report.duplicates += 1
                continue
            ident = docparse.identify(raw, docparse.parse_admitted(raw),
                                      subject_hint or "", datetime_hint)
            report.count(self.store(raw, ident).type_name)


def _hints_from_name(name: str) -> tuple[str | None, datetime | None]:
    """Recover (subject, datetime) hints from conventional filenames."""
    stem = name[: -len(".tpf")] if name.endswith(".tpf") else name
    parts = stem.split("-")
    if len(parts) >= 6:
        tail = "-".join(parts[-6:])
        try:
            return ("-".join(parts[:-6]) or None), parse_compact(tail)
        except ValueError:
            pass
    if len(parts) >= 3:
        tail = "-".join(parts[-3:])
        try:
            when = datetime.strptime(tail, "%Y-%m-%d")
            return ("-".join(parts[:-3]) or None), ensure_utc(when)
        except ValueError:
            pass
    return None, None


#: an ``/index.json`` record, as ``json.dumps(doc, indent=2)`` writes
#: one, with each value the ``json.dumps`` of its scalar
_RECORD = (
    '    {\n'
    '      "path": %s,\n'
    '      "type": %s,\n'
    '      "sha1": %s,\n'
    '      "sha256": %s,\n'
    '      "size": %s,\n'
    '      "stored_at": %s,\n'
    '      "datetime": %s\n'
    '    }'
)


def _index_record(entry: ArchiveEntry) -> bytes:
    """``entry``'s record in ``/index.json``, ASCII as ``json`` escapes it."""
    values = (
        entry.path,
        entry.type_name,
        entry.digests.sha1_hex,
        entry.digests.sha256_any_hex(),
        entry.size_bytes,
        fmt_ts(entry.stored_at),
        fmt_ts(entry.doc_datetime),
    )
    return (_RECORD % tuple(map(json.dumps, values))).encode("ascii")


#: what ``index_json_bytes`` writes between two records, and after the last
INDEX_SEP = b",\n"
INDEX_TAIL = b"\n  ]\n}\n"


def index_head(index: IndexFile) -> bytes:
    """``index_json_bytes(index)`` up to its first record: all of it when
    the index has no entries."""
    head = (b'{\n  "generated_at": %s,\n  "task_status": {},\n  "entries": '
            % json.dumps(index.generated_at).encode("ascii"))
    return head + (b"[\n" if index.records else b"[]\n}\n")


def index_json_bytes(index: IndexFile) -> bytes:
    """The bytes ``json.dumps(doc, indent=2)`` writes for the index (fixed
    field order, two-space indentation): its head, then its records joined
    by ``INDEX_SEP``, then ``INDEX_TAIL``."""
    if not index.records:
        return index_head(index)
    return b"".join((index_head(index), INDEX_SEP.join(index.records), INDEX_TAIL))
