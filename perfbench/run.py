"""dircollect benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload collect-live --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The workloads (see workloads.py) build
a simulated authority network from ``--seed``, run the real service
stack against it and check its outputs, repeating the workload's unit
as often as fits in ``--seconds`` (and at least ``MIN_REPS`` times).
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced repetition
after the untraced ones, plus the tracing overhead (the traced
repetition's end-to-end figures minus the median untraced repetition's)
and the untraced repetitions' wall times and light-response tail, which
are too noisy on a shared machine to be end-to-end metrics.
Human-readable lines with sample counts come first; the last line of
stdout is the JSON result. Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "dircollect").is_dir():
    sys.exit(f"no dircollect sources at {SRC}: run from the root of a checkout")
sys.path[:0] = [str(SRC), str(HERE)]

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (BULK, LIGHT, UNITS, WORKLOADS, Samples, percentile,  # noqa: E402
                       scratch_dir, set_up)

#: A run repeats its unit at least this often, however long each takes.
MIN_REPS = 3
#: ...but starts no further repetition that would end after this share
#: of --seconds, so that a slow machine still keeps the run's length.
OVERRUN = 1.1

#: name -> unit; every workload reports every one of these.
END_TO_END = {
    "setup_s": "s",
    "collect_cpu_s": "s",
    "closure_cpu_s": "s",
    "requests": "count",
    "peak_rss_mb": "MB",
    "serve_rps": "1/s",
    "light_p50_ms": "ms",
    "bulk_p50_ms": "ms",
}


def end_to_end(samples: Samples) -> dict[str, tuple[float, str]]:
    """(value, how it was taken) per end-to-end metric.

    Set-up and collector times are the median over the repetitions; the
    serve metrics take each request's fastest response; see DESIGN.md,
    "Medians and best times"."""
    reps = len(samples.jobs)
    own = per_rep(samples)
    out = {
        "setup_s": (statistics.median(samples.setup_s), f"median of {len(samples.setup_s)}"),
        "collect_cpu_s": (statistics.median(own["collect_cpu_s"]),
                          f"median of {reps}, {len(samples.jobs[0])} jobs each"),
        "closure_cpu_s": (statistics.median(own["closure_cpu_s"]), f"median of {reps}"),
        "requests": (samples.requests[0], f"the same in all {reps}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "peak of the process"),
        "serve_rps": (samples.best_rps(),
                      f"{len(samples.latency_ms)} requests at the best of their "
                      f"{samples.serve_sent} responses"),
    }
    for name, classes in (("light_p50_ms", LIGHT), ("bulk_p50_ms", BULK)):
        best_ms = samples.best_latencies(classes)
        out[name] = (statistics.median(best_ms),
                     f"median over {len(best_ms)} requests of the best of their responses")
    return out


def per_rep(samples: Samples) -> dict[str, list[float]]:
    """Each repetition's own figure for the timed end-to-end metrics; the
    tracing overhead compares their medians."""
    return {
        "collect_cpu_s": [sum(cpu for _, cpu in rep.values()) for rep in samples.jobs],
        "closure_cpu_s": [cpu for rep in samples.jobs
                          for (name, _), (_, cpu) in rep.items() if name == "bootstrap"],
        "reopen_cpu_s": samples.reopen_cpu_s,
        "serve_rps": samples.serve_rps,
        "light_p50_ms": samples.light_p50_ms,
        "bulk_p50_ms": samples.bulk_p50_ms,
    }


def context(samples: Samples) -> dict[str, float]:
    """Figures too noisy on a shared machine to bound: the wall times of
    the CPU-timed phases, the light-response tail, and the reopen."""
    collect_wall = [sum(wall for wall, _ in rep.values()) for rep in samples.jobs]
    closure_wall = [wall for rep in samples.jobs for (name, _), (wall, _) in rep.items()
                    if name == "bootstrap"]
    return {
        "wall.setup_s": statistics.median(samples.setup_wall_s),
        "wall.collect_s": statistics.median(collect_wall),
        "wall.closure_s": statistics.median(closure_wall),
        "serve.light_p90_ms": percentile(samples.light_ms, 0.90),
        "reopen.cpu_s": statistics.median(samples.reopen_cpu_s),
    }


def run_rep(args, workload, work: Path, samples: Samples, tracer: Tracer | None,
            full: bool) -> None:
    """One set-up and measured unit. Every repetition checks the census and
    each served body; with ``full`` it also re-hashes the archive and checks
    the served index, which repetitions of one seed would only repeat."""
    stack = set_up(args.seed, workload, work)
    samples.setup_wall_s.append(stack.setup[0])
    samples.setup_s.append(stack.setup[1])
    try:
        if tracer is not None:
            tracer.install()
        try:
            checks = UNITS[workload.name](stack, workload, args.seed, samples, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        checks(full)
    finally:
        stack.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the workload's unit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--relays", type=int,
                        help="override the workload's relay count (self-check)")
    args = parser.parse_args(argv)
    # a terminated run still stops its load client, servers and threads
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    workload = WORKLOADS[args.workload]
    if args.relays:
        workload = replace(workload, relays=args.relays)

    scratch = scratch_dir(Path.cwd() / ".bench_work")
    work = scratch_dir(scratch / f"{workload.name}-{args.seed}-{time.monotonic_ns()}")
    samples = Samples()
    traced = Samples()
    rep_walls: list[float] = []
    tracer = Tracer() if args.trace else None
    try:
        # the repetition count follows from --seconds alone, so that every
        # run on a machine of the usual speed makes as many;
        # the first repetition does the full checks
        reps = max(MIN_REPS, int(args.seconds // workload.rep_s))
        cap = time.perf_counter() + OVERRUN * args.seconds
        for rep in range(reps):
            if rep >= MIN_REPS and time.perf_counter() + rep_walls[-1] > cap:
                break
            started = time.perf_counter()
            run_rep(args, workload, work, samples, None, full=rep == 0)
            rep_walls.append(time.perf_counter() - started)
        if tracer is not None:
            cpu = time.process_time()
            run_rep(args, workload, work, traced, tracer, full=True)
            cpu = time.process_time() - cpu
            responded = sum(1 for span in tracer.spans
                            if span[1] == "dirserver.respond" and span[6])
            print(f"traced requests sent {traced.serve_sent}, responded {responded}")
            if responded != traced.serve_sent:
                traced.fail(f"traced {responded} responses to {traced.serve_sent} requests")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    both = (samples, traced)

    def total(attr: str) -> int:
        return sum(getattr(s, attr) for s in both)

    failures = samples.failures + traced.failures
    for name in ("requests", "documents"):
        values = getattr(samples, name) + getattr(traced, name)
        if len(set(values)) > 1:
            failures.append(f"{name} differ between repetitions: {values}")
    print(f"workload {workload.name} relays={workload.relays} seed={args.seed} "
          f"documents={(samples.documents + traced.documents)[:1]}")
    print(f"collect_fail_ratio {total('docs_missing') / max(1, total('docs_expected')):.6g} "
          f"n={total('docs_expected')}")
    print(f"serve_fail_ratio {total('serve_failed') / max(1, total('serve_sent')):.6g} "
          f"n={total('serve_sent')}")
    if any(rep.keys() != samples.jobs[0].keys() for rep in samples.jobs + traced.jobs):
        failures.append("repetitions fired different jobs")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, values in {"wall_s": rep_walls, "setup_s": samples.setup_s,
                         **per_rep(samples)}.items():
        print(f"per repetition {name} " + " ".join(f"{v:.4g}" for v in values))

    metrics: dict[str, dict] = {}
    if not failures and tracer is None:
        for name, (value, basis) in end_to_end(samples).items():
            print(f"{name} {value:.6g} {END_TO_END[name]} ({basis})")
            metrics[name] = {"value": value, "unit": END_TO_END[name]}
        for name, value in context(samples).items():
            print(f"context {name} {value:.6g} {layer_unit(name)}")
    elif not failures:
        base, with_spans = per_rep(samples), per_rep(traced)
        layers = layer_metrics(tracer.spans, traced.client_ms)
        layers["process.cpu_s"] = cpu
        layers.update(context(samples))
        for name in base:
            layers[f"overhead.{name}"] = (statistics.median(with_spans[name])
                                          - statistics.median(base[name]))
        for name, value in layers.items():
            print(f"{name} {value:.6g}")
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        tracer.write(scratch / f"spans-{workload.name}-{args.seed}.jsonl.gz")

    correct = not failures
    print(json.dumps({"correct": correct,
                      "attempted": total("docs_expected") + total("serve_sent"),
                      "failed": total("docs_missing") + total("serve_failed"),
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.startswith("overhead."):
        name = name[len("overhead."):]
        if name in END_TO_END:
            return END_TO_END[name]
    if name.startswith("dirserver.transport_ms") or name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return {"calls": "count", "items": "count", "rounds": "count", "bytes": "bytes",
            "bytes_out": "bytes"}.get(name.rsplit(".", 1)[1], "ratio")


if __name__ == "__main__":
    sys.exit(main())
