"""Span tracing from outside the program, and per-layer aggregation.

The tracer replaces public functions and methods of the dircollect
modules with wrappers that record a span: name, start, end, parent and
root id. A span is recorded only while a root is open on the calling
thread. Roots are collector jobs (opened by the benchmark's job driver),
served requests and archive reopens. ``DirServer.respond`` opens its own
root, but only inside ``Tracer.requests()``, which the benchmark holds
while its load client runs, so requests from anyone else (a downstream
collector, the output checks) are not counted as served load. Calls
made elsewhere, such as the simulated network digesting its own
documents, pass straight through and are not charged to the program.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from dircollect import docparse, scheduler
from dircollect.archive import Archive
from dircollect.dirserver import DirServer
from dircollect.fetcher import MAX_BATCH, Fetcher
from dircollect.plugins import PluginHost, RelayDescsPlugin
from dircollect.refchecker import ReferenceChecker
from dircollect.service import Service

#: (owner, attribute, span name). Module functions are looked up through
#: the module at call time, so replacing the module attribute reaches
#: callers inside the package as well.
TRACED = [
    (docparse, "parse", "docparse.parse"),
    (docparse, "extract_references", "docparse.extract_references"),
    (docparse, "compute_digests", "docparse.compute_digests"),
    (docparse, "identify", "docparse.identify"),
    (docparse, "split_concatenated", "docparse.split_concatenated"),
    (scheduler, "phase_token", "scheduler.phase_token"),
    (ReferenceChecker, "expectations", "refchecker.expectations"),
    (ReferenceChecker, "guess_period_documents", "refchecker.guess_period_documents"),
    (ReferenceChecker, "record_attempt", "refchecker.record_attempt"),
    (Archive, "store", "archive.store"),
    (Archive, "load_entry", "archive.load_entry"),
    (Archive, "entries", "archive.entries"),
    (Archive, "build_index", "archive.build_index"),
    (Archive, "__init__", "archive.open"),
    (PluginHost, "run_cycle", "plugins.run_cycle"),
    (PluginHost, "store", "plugins.store"),
    (RelayDescsPlugin, "expectations", "plugins.expectations"),
    (Fetcher, "get", "fetcher.get"),
    (Service, "seed_from_archive", "service.seed_from_archive"),
]

#: Served routes grouped the way the end-to-end metrics group them.
SERVE_CLASSES = ("consensus", "batch", "bulk", "index", "status")


def serve_class(path: str) -> str:
    if path.startswith("/tor/status-vote/current/consensus"):
        return "consensus"
    if path.endswith("/all"):
        return "bulk"
    if path == "/index.json":
        return "index"
    if path == "/status":
        return "status"
    return "batch"


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: [id, name, start, end, parent, root, info]
        self.spans: list[list] = []
        self._saved: list[tuple] = []
        self._serving = False

    # -- roots and spans -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name: str, info=None):
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                stack[-1][0] if stack else 0, 0, info]
        span[5] = stack[-1][5] if stack else span[0]
        stack.append(span)
        try:
            yield span
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def requests(self):
        """While this is held, each served request opens a root."""
        self._serving = True
        try:
            yield
        finally:
            self._serving = False

    def _wrap(self, fn, name: str, opens_root: bool):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if not stack and not (opens_root and tracer._serving):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = [next(tracer._ids), name, time.perf_counter(), 0.0,
                    parent[0] if parent else 0, 0, None]
            span[5] = parent[5] if parent else span[0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span[6] = _info(name, args, result)
                return result
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name in TRACED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, opens_root=False))
        fn = DirServer.__dict__["respond"]
        self._saved.append((DirServer, "respond", fn))
        setattr(DirServer, "respond", self._wrap(fn, "dirserver.respond", opens_root=True))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, target: Path) -> None:
        target.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(target, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "id": span[0], "name": span[1], "start": span[2],
                    "end": span[3], "parent": span[4], "root": span[5],
                }) + "\n")


def _info(name: str, args: tuple, result):
    """The per-call fact a layer ratio needs, taken where the work happens."""
    if name == "refchecker.record_attempt":
        return bool(result)
    if name == "plugins.store":
        return bool(result)
    if name == "archive.store":
        # a new entry carries the stored document's own DigestSet; a
        # duplicate comes back as the entry some earlier document made
        return result.digests is not args[1].digests
    if name == "archive.entries":
        return len(result)
    if name == "fetcher.get":
        path = args[2]
        tokens = 0
        for prefix, sep in (("/tor/server/d/", "+"), ("/tor/extra/d/", "+"),
                            ("/tor/micro/d/", "-")):
            if path.startswith(prefix):
                tokens = len(path[len(prefix):].split(sep))
        return (len(result), tokens)
    if name == "dirserver.respond":
        return (serve_class(args[1]), len(result[1]))
    return None


def _p50_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1000 if durations else 0.0


def layer_metrics(spans: list[list], client_ms: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer numbers from one traced repetition.

    ``client_ms`` holds client-side latencies per served class, so the
    transport share of each class is client latency minus respond time.
    """
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4]:
            child_time[span[4]] += span[3] - span[2]
    by_name: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def dur(name):
        return [s[3] - s[2] for s in by_name[name]]

    def self_s(name, selected=None):
        chosen = by_name[name] if selected is None else selected
        return sum((s[3] - s[2]) - child_time[s[0]] for s in chosen)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    exp = dur("refchecker.expectations")
    out["refchecker.expectations.calls"] = len(exp)
    out["refchecker.expectations.self_s"] = self_s("refchecker.expectations")
    out["refchecker.expectations.p50_ms"] = _p50_ms(exp)
    out["refchecker.guess_period_documents.self_s"] = self_s("refchecker.guess_period_documents")
    attempts = by_name["refchecker.record_attempt"]
    out["refchecker.record_attempt.calls"] = len(attempts)
    out["refchecker.record_attempt.granted_ratio"] = ratio(
        sum(1 for s in attempts if s[6]), len(attempts))

    for fn in ("parse", "extract_references", "compute_digests", "identify",
               "split_concatenated"):
        out[f"docparse.{fn}.calls"] = len(by_name[f"docparse.{fn}"])
        out[f"docparse.{fn}.self_s"] = self_s(f"docparse.{fn}")

    stores = by_name["archive.store"]
    out["archive.store.calls"] = len(stores)
    out["archive.store.self_s"] = self_s("archive.store")
    out["archive.store.dup_ratio"] = ratio(sum(1 for s in stores if s[6]), len(stores))
    out["archive.load_entry.calls"] = len(by_name["archive.load_entry"])
    out["archive.load_entry.self_s"] = self_s("archive.load_entry")
    out["archive.entries.calls"] = len(by_name["archive.entries"])
    out["archive.entries.items"] = sum(s[6] or 0 for s in by_name["archive.entries"])
    out["archive.build_index.calls"] = len(by_name["archive.build_index"])
    out["archive.build_index.self_s"] = self_s("archive.build_index")
    opens = dur("archive.open")
    out["archive.open_s"] = statistics.median(opens) if opens else 0.0

    out["plugins.run_cycle.calls"] = len(by_name["plugins.run_cycle"])
    out["plugins.run_cycle.rounds"] = len(by_name["plugins.expectations"])
    pstores = by_name["plugins.store"]
    out["plugins.store.calls"] = len(pstores)
    out["plugins.store.new_ratio"] = ratio(sum(1 for s in pstores if s[6]), len(pstores))

    gets = by_name["fetcher.get"]
    out["fetcher.get.calls"] = len(gets)
    out["fetcher.get.self_s"] = self_s("fetcher.get")
    out["fetcher.get.p50_ms"] = _p50_ms(dur("fetcher.get"))
    out["fetcher.bytes"] = sum(s[6][0] for s in gets if s[6])
    batch_urls = [s[6][1] for s in gets if s[6] and s[6][1]]
    out["fetcher.batch_fill"] = ratio(sum(batch_urls), len(batch_urls) * MAX_BATCH)

    tokens = by_name["scheduler.phase_token"]
    out["scheduler.phase_token.calls"] = len(tokens)
    out["scheduler.phase_token.self_s"] = self_s("scheduler.phase_token")

    responds = [s for s in by_name["dirserver.respond"] if s[6]]
    for cls in SERVE_CLASSES:
        chosen = [s for s in responds if s[6][0] == cls]
        durations = [s[3] - s[2] for s in chosen]
        out[f"dirserver.respond.{cls}.calls"] = len(chosen)
        out[f"dirserver.respond.{cls}.self_s"] = self_s("dirserver.respond", chosen)
        out[f"dirserver.respond.{cls}.p50_ms"] = _p50_ms(durations)
        client = client_ms.get(cls, [])
        out[f"dirserver.transport_ms.{cls}"] = (
            statistics.median(client) - _p50_ms(durations) if client and durations else 0.0)
    out["dirserver.bytes_out"] = sum(s[6][1] for s in responds)

    out["service.seed_from_archive.self_s"] = self_s("service.seed_from_archive")
    return out
