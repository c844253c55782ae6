"""Task timing: fire-time arithmetic, downloader phases, and the job loop.

The arithmetic lives in pure functions of ConsensusTimings so it can be
tested exactly. The Scheduler owns a small table of named jobs, runs
them in worker threads against an injectable clock, skips (never
backfills) misfires, and records completion times for the status
endpoint. Only the bootstrap job retries, with exponential backoff.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from datetime import datetime, time as dtime, timedelta
from enum import Enum
from typing import Callable

from .clock import Clock
from .docmodel import ConsensusTimings, fmt_ts
from .errors import InvalidTimings
from .metrics import Metrics

log = logging.getLogger("dircollect.scheduler")

BOOTSTRAP_BACKOFF_BASE = 5.0
BOOTSTRAP_BACKOFF_CAP = 300.0


class Phase(Enum):
    Alpha = "alpha"  # directory cache mode: eager, authority-only
    Beta = "beta"    # client mode: lazy, caches preferred


@dataclass(frozen=True)
class TaskSchedule:
    """Fire times and phase boundaries derived from one consensus.

    The successor period is extrapolated to start at fresh-until with
    the same length and delays; the real next consensus corrects this
    when it arrives.
    """

    task1_at: datetime
    task2_at: datetime
    alpha_start: datetime
    beta_start: datetime
    beta_end: datetime
    period_seconds: int


def compute_schedule(timings: ConsensusTimings) -> TaskSchedule:
    """Fire times for the eager tasks and the phase window boundaries.

    Votes are fetched halfway through the voting window (fresh-until
    minus dist delay minus half the vote delay), signatures halfway
    through the distribution window. Half seconds floor away; protocol
    timestamps are whole seconds.
    """
    period = timings.period_seconds
    task1_at = timings.fresh_until - timedelta(
        seconds=timings.dist_seconds + timings.vote_seconds // 2
    )
    task2_at = timings.fresh_until - timedelta(seconds=timings.dist_seconds // 2)
    alpha_start = task1_at
    beta_start = timings.fresh_until + timedelta(seconds=period // 2)
    beta_end = task1_at + timedelta(seconds=period)
    if not (alpha_start < beta_start < beta_end):
        raise InvalidTimings(
            "voting delays leave no client-mode window "
            f"(dist={timings.dist_seconds}s vote={timings.vote_seconds}s period={period}s)"
        )
    return TaskSchedule(task1_at, task2_at, alpha_start, beta_start, beta_end, period)


def phase_at(t: datetime, timings: ConsensusTimings | None) -> Phase:
    """Which downloader mode applies at ``t``.

    Without a known consensus everything is Alpha. With one, the
    [alpha_start, beta_start) / [beta_start, beta_end) split tiles
    periodically in both directions.
    """
    return phase_token(t, timings)[1]


def phase_token(t: datetime, timings: ConsensusTimings | None) -> tuple[int | None, Phase]:
    """Phase plus a period ordinal, so equality detects every transition."""
    if timings is None:
        return None, Phase.Alpha
    sched = compute_schedule(timings)
    offset = (t - sched.alpha_start).total_seconds()
    ordinal = int(offset // sched.period_seconds)
    within = int(offset - ordinal * sched.period_seconds)
    alpha_len = int((sched.beta_start - sched.alpha_start).total_seconds())
    return ordinal, (Phase.Alpha if within < alpha_len else Phase.Beta)


def next_daily(now: datetime, at: str) -> datetime:
    """Next occurrence of the UTC wall time ``"HH:MM"`` strictly after now."""
    hour, minute = (int(part) for part in at.split(":"))
    candidate = datetime.combine(now.date(), dtime(hour, minute, tzinfo=now.tzinfo))
    if candidate <= now:
        candidate += timedelta(days=1)
    return candidate


@dataclass
class _Job:
    name: str
    action: Callable[[], None]
    next_at: datetime | None
    interval: timedelta | None = None  # None: one-shot
    daily_at: str | None = None
    eager: str | None = None  # "task1"/"task2": fire time follows timings
    retry_backoff: bool = False
    backoff: float = BOOTSTRAP_BACKOFF_BASE
    running: bool = field(default=False, repr=False)


class Scheduler:
    """Runs named jobs at computed times on an injectable clock."""

    def __init__(self, clock: Clock, metrics: Metrics | None = None):
        self._clock = clock
        self.metrics = metrics or Metrics()
        self._jobs: dict[str, _Job] = {}
        self._completions: dict[str, datetime] = {}
        self._timings: ConsensusTimings | None = None
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._loop: threading.Thread | None = None
        self._threads: list[threading.Thread] = []

    # -- job registration ---------------------------------------------------

    def add_bootstrap(self, action: Callable[[], None]) -> None:
        """One-shot job run immediately; failures retry with backoff."""
        self._put(_Job("bootstrap", action, self._clock.now(), retry_backoff=True))

    def add_eager_votes(self, action: Callable[[], None]) -> None:
        self._put(_Job("eager-votes", action, None, eager="task1"))

    def add_eager_signatures(self, action: Callable[[], None]) -> None:
        self._put(_Job("eager-signatures", action, None, eager="task2"))

    def add_interval(self, name: str, action: Callable[[], None],
                     every_seconds: float) -> None:
        self._put(_Job(name, action, self._clock.now(),
                       interval=timedelta(seconds=every_seconds)))

    def add_daily(self, name: str, action: Callable[[], None], at: str = "00:15") -> None:
        self._put(_Job(name, action, next_daily(self._clock.now(), at), daily_at=at))

    def _put(self, job: _Job) -> None:
        with self._lock:
            self._jobs[job.name] = job
        self._wake.set()

    # -- consensus-driven rescheduling ---------------------------------------

    def set_timings(self, timings: ConsensusTimings) -> None:
        """Adopt the newest consensus timings; idempotent per valid-after."""
        with self._lock:
            if self._timings is not None and timings.valid_after <= self._timings.valid_after:
                return
            sched = compute_schedule(timings)  # raises before anything is adopted
            self._timings = timings
            now = self._clock.now()
            for job in self._jobs.values():
                if job.eager == "task1":
                    job.next_at = _next_occurrence(sched.task1_at, sched.period_seconds, now)
                    job.interval = timedelta(seconds=sched.period_seconds)
                elif job.eager == "task2":
                    job.next_at = _next_occurrence(sched.task2_at, sched.period_seconds, now)
                    job.interval = timedelta(seconds=sched.period_seconds)
        log.info("event=timings_adopted valid_after=%r task1=%r task2=%r",
                 fmt_ts(timings.valid_after), fmt_ts(sched.task1_at), fmt_ts(sched.task2_at))
        self._wake.set()

    @property
    def timings(self) -> ConsensusTimings | None:
        with self._lock:
            return self._timings

    def phase(self, now: datetime | None = None) -> Phase:
        return phase_at(now or self._clock.now(), self.timings)

    def phase_token(self, now: datetime | None = None) -> tuple[int | None, Phase]:
        return phase_token(now or self._clock.now(), self.timings)

    def completions(self) -> dict[str, datetime]:
        with self._lock:
            return dict(self._completions)

    # -- the loop -------------------------------------------------------------

    def run(self) -> None:
        while True:
            # cleared first, so no stop or wake-up during the pass is lost
            self._wake.clear()
            if self._stop.is_set():
                return
            now = self._clock.now()
            to_fire: list[_Job] = []
            with self._lock:
                for job in self._jobs.values():
                    if job.next_at is None or job.next_at > now:
                        continue
                    if job.running:
                        # misfire: drop this slot entirely rather than queueing
                        log.warning("event=misfire job=%s due=%r", job.name,
                                    fmt_ts(job.next_at))
                        self.metrics.incr("scheduler.misfires")
                        self._advance(job, now)
                        continue
                    job.running = True
                    self._advance(job, now)
                    to_fire.append(job)
            if to_fire:
                self._threads = [t for t in self._threads if t.is_alive()]
            for job in to_fire:
                thread = threading.Thread(
                    target=self._execute, args=(job,), name=f"job-{job.name}", daemon=True
                )
                self._threads.append(thread)
                thread.start()
            wait_target = self._soonest(now) or now + timedelta(seconds=5)
            self._clock.wait_until(min(wait_target, now + timedelta(seconds=60)), self._wake)

    def start(self) -> None:
        self._loop = threading.Thread(target=self.run, name="scheduler", daemon=True)
        self._loop.start()

    def stop(self) -> None:
        """Join the loop first, so it starts no job after that, then the jobs."""
        self._stop.set()
        self._wake.set()
        if self._loop is not None:
            self._loop.join(timeout=10)
        for thread in self._threads:
            thread.join(timeout=10)

    def _soonest(self, now: datetime) -> datetime | None:
        with self._lock:
            pending = [j.next_at for j in self._jobs.values() if j.next_at is not None]
        return min(pending, default=None)

    def _advance(self, job: _Job, now: datetime) -> None:
        """Move next_at past now, logging any skipped slots."""
        if job.daily_at is not None:
            job.next_at = next_daily(now, job.daily_at)
        elif job.interval is not None:
            skipped = 0
            while job.next_at <= now:
                job.next_at += job.interval
                skipped += 1
            if skipped > 1:
                log.warning("event=slots_skipped job=%s count=%d", job.name, skipped - 1)
        else:
            job.next_at = None

    def _execute(self, job: _Job) -> None:
        started = self._clock.now()
        try:
            job.action()
        except Exception as exc:
            log.warning("event=job_failed job=%s error=%r", job.name, exc)
            with self._lock:
                if job.retry_backoff:
                    job.next_at = self._clock.now() + timedelta(seconds=job.backoff)
                    job.backoff = min(job.backoff * 2, BOOTSTRAP_BACKOFF_CAP)
                job.running = False
                # counted last, so a reader of the counter sees the retry set
                self.metrics.incr(f"scheduler.failures.{job.name}")
            self._wake.set()
            return
        finished = self._clock.now()
        with self._lock:
            self._completions[job.name] = finished
            job.running = False
            if job.retry_backoff:
                job.next_at = None  # bootstrap succeeded, never again
                job.backoff = BOOTSTRAP_BACKOFF_BASE
        log.info(
            "event=job_done job=%s started=%r finished=%r",
            job.name, fmt_ts(started), fmt_ts(finished),
        )
        self._wake.set()


def _next_occurrence(anchor: datetime, period_seconds: int, now: datetime) -> datetime:
    """Smallest anchor + k*period (integer k >= 0) that is >= now."""
    if anchor >= now:
        return anchor
    behind = (now - anchor).total_seconds()
    k = int(behind // period_seconds)
    candidate = anchor + timedelta(seconds=k * period_seconds)
    if candidate < now:
        candidate += timedelta(seconds=period_seconds)
    return candidate
