import threading
import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dircollect.clock import ManualClock, SystemClock
from dircollect.docmodel import ConsensusTimings
from dircollect.errors import InvalidTimings
from dircollect.scheduler import (
    Phase,
    Scheduler,
    compute_schedule,
    next_daily,
    phase_at,
    phase_token,
)


def ts(h, m=0, s=0, day=15):
    return datetime(2018, 11, day, h, m, s, tzinfo=timezone.utc)


TIMINGS = ConsensusTimings(ts(19), ts(20), ts(22), 300, 300)


def test_schedule_arithmetic():
    sched = compute_schedule(TIMINGS)
    assert sched.task1_at == ts(19, 52, 30)
    assert sched.task2_at == ts(19, 57, 30)
    assert sched.alpha_start == ts(19, 52, 30)
    assert sched.beta_start == ts(20, 30, 0)
    assert sched.beta_end == ts(20, 52, 30)
    assert sched.task1_at < sched.task2_at < TIMINGS.fresh_until


def test_schedule_floors_half_seconds():
    t = ConsensusTimings(ts(19), ts(20), ts(22), 301, 301)
    sched = compute_schedule(t)
    assert sched.task1_at == ts(19, 52, 29)  # 301 + 150 floor
    assert sched.task2_at == ts(19, 57, 30)  # 150 floor


def test_schedule_rejects_oversized_delays():
    with pytest.raises(InvalidTimings):
        ConsensusTimings(ts(19), ts(20), ts(22), 300, 0)
    squeezed = ConsensusTimings(ts(19), ts(20), ts(22), 1700, 1700)
    with pytest.raises(InvalidTimings):
        compute_schedule(squeezed)


def test_phase_examples():
    assert phase_at(ts(19, 55), TIMINGS) is Phase.Alpha
    assert phase_at(ts(20, 40), TIMINGS) is Phase.Beta
    assert phase_at(ts(19, 55), None) is Phase.Alpha
    assert phase_at(ts(3, 0), None) is Phase.Alpha


def test_phase_tiles_past_the_known_period():
    # next period, same offsets
    assert phase_at(ts(21, 0), TIMINGS) is Phase.Alpha
    assert phase_at(ts(21, 40), TIMINGS) is Phase.Beta
    # and backwards in time too
    assert phase_at(ts(19, 0), TIMINGS) is Phase.Alpha
    assert phase_at(ts(19, 45), TIMINGS) is Phase.Beta


def test_phase_token_distinguishes_periods():
    a = phase_token(ts(19, 55), TIMINGS)
    b = phase_token(ts(21, 0), TIMINGS)
    assert a[1] is b[1] is Phase.Alpha
    assert a[0] != b[0]


def _oracle_phase(t, timings):
    """Interval membership in the period containing t, computed naively."""
    sched = compute_schedule(timings)
    period = timedelta(seconds=sched.period_seconds)
    start, beta = sched.alpha_start, sched.beta_start
    while t < start:
        start, beta = start - period, beta - period
    while t >= start + period:
        start, beta = start + period, beta + period
    return Phase.Alpha if t < beta else Phase.Beta


@settings(max_examples=200)
@given(
    period=st.integers(min_value=600, max_value=7200),
    vote=st.integers(min_value=1, max_value=500),
    dist=st.integers(min_value=1, max_value=500),
    offset=st.integers(min_value=-100_000, max_value=100_000),
)
def test_phase_matches_oracle(period, vote, dist, offset):
    if vote + dist >= period or dist + vote // 2 >= period // 2:
        return
    t0 = ts(0)
    timings = ConsensusTimings(
        t0, t0 + timedelta(seconds=period), t0 + timedelta(seconds=3 * period), vote, dist
    )
    probe = t0 + timedelta(seconds=offset)
    assert phase_at(probe, timings) is _oracle_phase(probe, timings)


def test_next_daily():
    now = datetime(2018, 11, 15, 0, 10, 0, tzinfo=timezone.utc)
    assert next_daily(now, "00:15") == datetime(2018, 11, 15, 0, 15, tzinfo=timezone.utc)
    later = datetime(2018, 11, 15, 0, 15, 0, tzinfo=timezone.utc)
    assert next_daily(later, "00:15") == datetime(2018, 11, 16, 0, 15, tzinfo=timezone.utc)


# --- loop behaviour -------------------------------------------------------


def _wait_for(predicate, clock=None, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


@pytest.fixture
def loop():
    clock = ManualClock(ts(19, 0))
    sched = Scheduler(clock)
    sched.start()
    yield clock, sched
    sched.stop()


def test_bootstrap_retries_with_backoff(loop):
    clock, sched = loop
    attempts = []

    def flaky():
        attempts.append(clock.now())
        if len(attempts) < 3:
            raise RuntimeError("authority unreachable")

    def failures():
        return sched.metrics.counter("scheduler.failures.bootstrap")

    sched.add_bootstrap(flaky)
    assert _wait_for(lambda: len(attempts) == 1)
    assert _wait_for(lambda: failures() == 1)  # the retry time is set by now
    clock.advance(4)  # below the 5 s backoff: nothing yet
    assert not _wait_for(lambda: len(attempts) > 1, timeout=0.3)
    clock.advance(2)
    assert _wait_for(lambda: len(attempts) == 2)
    assert _wait_for(lambda: failures() == 2)
    clock.advance(10)  # second failure backs off to 10 s
    assert _wait_for(lambda: len(attempts) == 3)
    assert _wait_for(lambda: "bootstrap" in sched.completions())
    # success: no more firings no matter how far time moves
    clock.advance(3600)
    assert not _wait_for(lambda: len(attempts) > 3, timeout=0.3)


def test_eager_tasks_fire_at_schedule(loop):
    clock, sched = loop
    fired = {"votes": [], "sigs": []}
    sched.add_eager_votes(lambda: fired["votes"].append(clock.now()))
    sched.add_eager_signatures(lambda: fired["sigs"].append(clock.now()))
    # nothing scheduled until a consensus is known
    clock.advance(600)
    assert not fired["votes"] and not fired["sigs"]
    sched.set_timings(TIMINGS)
    clock.set(ts(19, 52, 30))
    assert _wait_for(lambda: len(fired["votes"]) == 1)
    assert not fired["sigs"]
    clock.set(ts(19, 57, 30))
    assert _wait_for(lambda: len(fired["sigs"]) == 1)
    assert fired["votes"][0] >= ts(19, 52, 30)
    # next period's firing comes from extrapolation
    clock.set(ts(20, 52, 30))
    assert _wait_for(lambda: len(fired["votes"]) == 2)


def test_set_timings_is_idempotent(loop):
    clock, sched = loop
    count = [0]
    sched.add_eager_votes(lambda: count.__setitem__(0, count[0] + 1))
    sched.set_timings(TIMINGS)
    sched.set_timings(TIMINGS)
    sched.set_timings(ConsensusTimings(ts(19), ts(20), ts(22), 300, 300))
    clock.set(ts(19, 52, 30))
    assert _wait_for(lambda: count[0] == 1)
    assert not _wait_for(lambda: count[0] > 1, timeout=0.3)


def test_rejected_timings_are_not_adopted():
    sched = Scheduler(ManualClock(ts(19, 55)))
    sched.set_timings(TIMINGS)
    phase = sched.phase()
    # 2 * 1700 + 300 s of delays leave no room in an hourly period
    with pytest.raises(InvalidTimings):
        sched.set_timings(ConsensusTimings(ts(20), ts(21), ts(23), 300, 1700))
    assert sched.timings == TIMINGS
    assert sched.phase() is phase


def test_misfire_skips_and_never_overlaps(loop):
    clock, sched = loop
    release = threading.Event()
    running = []

    def slow():
        running.append(clock.now())
        release.wait(5)

    sched.add_interval("slow-job", slow, every_seconds=10)
    assert _wait_for(lambda: len(running) == 1)
    clock.advance(35)  # three slots pass while the first run blocks
    assert not _wait_for(lambda: len(running) > 1, timeout=0.5)
    assert sched.metrics.counter("scheduler.misfires") >= 1
    release.set()
    assert _wait_for(lambda: "slow-job" in sched.completions())
    clock.advance(10)
    assert _wait_for(lambda: len(running) == 2)


def test_daily_job_fires_once_per_day(loop):
    clock, sched = loop
    runs = []
    sched.add_daily("daily-results", lambda: runs.append(clock.now()), at="00:15")
    clock.set(ts(0, 15, 0, day=16))
    assert _wait_for(lambda: len(runs) == 1)
    clock.set(ts(23, 0, 0, day=16))
    assert not _wait_for(lambda: len(runs) > 1, timeout=0.3)
    clock.set(ts(0, 15, 0, day=17))
    assert _wait_for(lambda: len(runs) == 2)


def test_completion_records(loop):
    clock, sched = loop
    sched.add_interval("quick", lambda: None, every_seconds=30)
    assert _wait_for(lambda: "quick" in sched.completions())
    assert sched.completions()["quick"] >= ts(19, 0)


def test_finished_job_threads_are_dropped(loop):
    clock, sched = loop
    runs = []
    sched.add_interval("tick", lambda: runs.append(clock.now()), every_seconds=30)
    for n in range(1, 51):
        assert _wait_for(lambda: len(runs) == n)
        assert _wait_for(lambda: sched.completions().get("tick") == clock.now())
        clock.advance(30)
    assert _wait_for(lambda: len(runs) == 51)
    assert len(sched._threads) <= 2


@pytest.mark.parametrize("make_clock", [lambda: ManualClock(ts(19, 0)), SystemClock],
                         ids=["manual", "system"])
@pytest.mark.parametrize("job_seconds", [0.0, 0.2], ids=["done", "running"])
def test_stop_leaves_no_loop_or_job_thread(make_clock, job_seconds):
    before = set(threading.enumerate())
    sched = Scheduler(make_clock())
    sched.start()
    started = threading.Event()
    sched.add_interval("job", lambda: (started.set(), time.sleep(job_seconds)),
                       every_seconds=30)
    assert started.wait(5)
    if not job_seconds:
        assert _wait_for(lambda: "job" in sched.completions())
    sched.stop()
    left = [t.name for t in threading.enumerate() if t not in before
            and (t.name == "scheduler" or t.name.startswith("job-"))]
    assert left == []
