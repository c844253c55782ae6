"""Closed-loop HTTP load generator, run as its own process.

Reads one JSON plan from stdin:

    {"address": "127.0.0.1:7000",
     "keepalive": false,            # true: one persistent connection each
     "loop": false,                 # true: cycle the paths until told to stop
     "connections": [[path, ...], ...]}

Each connection is one thread that sends its next request only after the
previous response is fully read. Requests carry the same headers
dircollect's own fetcher sends. In loop mode the client runs until a
line reading ``stop`` arrives on stdin; otherwise each connection sends
its paths once.

Writes one JSON object to stdout: ``{"records": [[conn, index, status,
sha256_hex, latency_s], ...], "elapsed_s": ...}``. The digest
covers the decoded body, so the caller can compare it with the bytes it
expects; status 0 marks a dropped or failed request.
"""

import gzip
import hashlib
import http.client
import json
import sys
import threading
import time
import zlib

HEADERS = {"Accept-Encoding": "gzip, deflate"}
TIMEOUT = 60.0


def _decode(body: bytes, encoding: str) -> bytes:
    if encoding == "gzip":
        return gzip.decompress(body)
    if encoding == "deflate":
        return zlib.decompress(body)
    return body


def _one(conn: http.client.HTTPConnection, path: str, keepalive: bool):
    headers = dict(HEADERS)
    if not keepalive:
        headers["Connection"] = "close"
    conn.request("GET", path, headers=headers)
    resp = conn.getresponse()
    body = _decode(resp.read(), resp.getheader("Content-Encoding", ""))
    return resp.status, body


def _worker(plan: dict, conn_index: int, stop: threading.Event, out: list) -> None:
    host, _, port = plan["address"].rpartition(":")
    paths = plan["connections"][conn_index]
    keepalive = plan["keepalive"]
    conn = http.client.HTTPConnection(host, int(port), timeout=TIMEOUT) if keepalive else None
    i = 0
    try:
        while not stop.is_set():
            if i >= len(paths):
                if not plan["loop"]:
                    break
                i = 0
            path = paths[i]
            started = time.perf_counter()
            try:
                if not keepalive:
                    conn = http.client.HTTPConnection(host, int(port), timeout=TIMEOUT)
                status, body = _one(conn, path, keepalive)
                digest = hashlib.sha256(body).hexdigest()
            except (OSError, http.client.HTTPException, zlib.error):
                status, digest = 0, ""
                if keepalive:
                    conn.close()
                    conn = http.client.HTTPConnection(host, int(port), timeout=TIMEOUT)
            finally:
                if not keepalive and conn is not None:
                    conn.close()
            out.append([conn_index, i, status, digest, time.perf_counter() - started])
            i += 1
    finally:
        if keepalive and conn is not None:
            conn.close()


def main() -> int:
    plan = json.loads(sys.stdin.readline())
    stop = threading.Event()
    results: list[list] = [[] for _ in plan["connections"]]
    threads = [
        threading.Thread(target=_worker, args=(plan, k, stop, results[k]))
        for k in range(len(plan["connections"]))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if plan["loop"]:
        for line in sys.stdin:
            if line.strip() == "stop":
                break
        stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    json.dump({"records": [r for rs in results for r in rs], "elapsed_s": elapsed},
              sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
