"""Tests for :func:`repro.parallel.iter_resilient`, the one executor.

Kernels live at module level so spawn-started pool workers can import
them; the retry/backoff callbacks run only in the parent and may be
closures.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro import parallel
from repro.errors import EntryDeadlineError, ParallelError
from repro.parallel import TaskOutcome, iter_resilient, map_shards


def _echo_kernel(context, value, attempt):
    return (context, value, attempt)


def _fail_until_third_kernel(context, value, attempt):
    if attempt < 3:
        raise OSError(f"flaky value={value} attempt={attempt}")
    return value * 10


def _always_fail_kernel(context, value, attempt):
    raise ValueError(f"broken value={value}")


def _hang_first_attempt_kernel(context, value, attempt):
    if value == 0 and attempt == 1:
        time.sleep(60)
    return value


def _hang_in_pool_kernel(context, value, attempt):
    if multiprocessing.current_process().daemon:
        time.sleep(60)
    return ("inline", value, attempt)


def _square_shard_kernel(context, value):
    return value * value


def _retry_immediately(index, attempt, error, *, budget=3):
    return 0.0 if attempt < budget else None


class TestInline:
    def test_empty_tasks_yield_nothing(self):
        assert list(iter_resilient(_echo_kernel, None, [], jobs=1)) == []

    def test_happy_path_attempt_is_one(self):
        outcomes = list(iter_resilient(_echo_kernel, "ctx", [(1,), (2,)], jobs=1))
        assert all(outcome.ok for outcome in outcomes)
        assert [outcome.value for outcome in outcomes] == [("ctx", 1, 1), ("ctx", 2, 1)]
        assert [outcome.attempts for outcome in outcomes] == [1, 1]

    def test_retries_until_success(self):
        outcomes = list(
            iter_resilient(
                _fail_until_third_kernel, None, [(4,)], jobs=1,
                retry_delay=_retry_immediately,
            )
        )
        assert len(outcomes) == 1
        assert outcomes[0].ok
        assert outcomes[0].value == 40
        assert outcomes[0].attempts == 3

    def test_no_retry_policy_fails_on_first_attempt(self):
        outcomes = list(iter_resilient(_fail_until_third_kernel, None, [(4,)], jobs=1))
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].error, OSError)
        assert outcomes[0].attempts == 1
        assert "flaky value=4 attempt=1" in outcomes[0].traceback

    def test_budget_exhaustion_reports_last_error(self):
        outcomes = list(
            iter_resilient(
                _fail_until_third_kernel, None, [(4,)], jobs=1,
                retry_delay=lambda i, a, e: 0.0 if a < 2 else None,
            )
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert "attempt=2" in str(outcomes[0].error)

    def test_terminal_error_not_retried(self):
        calls = []

        def classify(index, attempt, error):
            calls.append((attempt, type(error).__name__))
            return None

        outcomes = list(
            iter_resilient(_always_fail_kernel, None, [(1,)], jobs=1, retry_delay=classify)
        )
        assert not outcomes[0].ok
        assert calls == [(1, "ValueError")]


class TestPooled:
    def test_pool_matches_inline(self):
        tasks = [(i,) for i in range(6)]
        inline = sorted(
            o.value for o in iter_resilient(_echo_kernel, "c", tasks, jobs=1)
        )
        pooled = sorted(
            o.value for o in iter_resilient(_echo_kernel, "c", tasks, jobs=3)
        )
        assert inline == pooled

    def test_worker_traceback_recovered(self):
        outcomes = list(iter_resilient(_always_fail_kernel, None, [(7,), (8,)], jobs=2))
        assert all(not outcome.ok for outcome in outcomes)
        for outcome in outcomes:
            assert isinstance(outcome.error, ValueError)
            assert "Traceback (most recent call last)" in outcome.traceback
            assert "_always_fail_kernel" in outcome.traceback

    def test_deadline_reaps_hung_worker_and_retries(self):
        events = []
        started = time.monotonic()
        outcomes = list(
            iter_resilient(
                _hang_first_attempt_kernel, None, [(0,), (1,)], jobs=2,
                deadline=1.0,
                retry_delay=lambda i, a, e: (
                    0.0 if isinstance(e, EntryDeadlineError) and a < 2 else None
                ),
                on_event=events.append,
            )
        )
        elapsed = time.monotonic() - started
        assert elapsed < 30  # nobody waited for the 60s sleep
        by_index = {outcome.index: outcome for outcome in outcomes}
        assert by_index[0].ok and by_index[0].value == 0
        assert by_index[0].attempts == 2  # reaped once, succeeded on retry
        assert by_index[1].ok and by_index[1].value == 1
        assert any("recycled" in event for event in events)

    def test_deadline_without_retry_fails_with_deadline_error(self):
        # Two tasks so the pool actually engages (a single task runs
        # inline, where deadlines are unenforceable and ignored).
        outcomes = list(
            iter_resilient(
                _hang_first_attempt_kernel, None, [(0,), (1,)], jobs=2, deadline=0.5
            )
        )
        by_index = {outcome.index: outcome for outcome in outcomes}
        assert not by_index[0].ok
        assert isinstance(by_index[0].error, EntryDeadlineError)
        assert "deadline" in str(by_index[0].error)
        assert by_index[1].ok and by_index[1].value == 1

    def test_repeatedly_dying_pool_degrades_to_inline(self, monkeypatch):
        monkeypatch.setattr(parallel, "MAX_POOL_RESTARTS", 0)
        events = []
        outcomes = list(
            iter_resilient(
                _hang_in_pool_kernel, None, [(0,), (1,)], jobs=2,
                deadline=0.5,
                retry_delay=lambda i, a, e: 0.0 if a < 4 else None,
                on_event=events.append,
            )
        )
        assert any("degrading to in-process" in event for event in events)
        # Both attempts expired together, the pool was recycled once
        # (past the 0 budget), and both tasks completed inline on
        # attempt 2 — degraded, not dead.
        assert all(outcome.ok for outcome in outcomes)
        assert sorted(outcome.value for outcome in outcomes) == [
            ("inline", 0, 2),
            ("inline", 1, 2),
        ]

    def test_validation(self, monkeypatch):
        with pytest.raises(ParallelError, match="deadline"):
            list(iter_resilient(_echo_kernel, None, [(1,)], jobs=2, deadline=0))
        monkeypatch.setattr(parallel, "MAX_POOL_RESTARTS", -1)
        with pytest.raises(ParallelError, match="MAX_POOL_RESTARTS"):
            list(iter_resilient(_echo_kernel, None, [(1,)], jobs=2))

    def test_pooled_loop_waits_for_completions_not_a_timer(self, monkeypatch):
        # With no retry and no deadline there is nothing to wake up for
        # but a completion: any sleep in the pooled path is a poll.
        def no_sleep(seconds):
            raise AssertionError(
                f"the executor slept {seconds}s instead of waiting for a completion"
            )

        monkeypatch.setattr(parallel.time, "sleep", no_sleep)
        tasks = [(i,) for i in range(6)]
        outcomes = list(iter_resilient(_echo_kernel, "c", tasks, jobs=2))
        assert sorted(outcome.value for outcome in outcomes) == [
            ("c", i, 1) for i in range(6)
        ]
        assert map_shards(_square_shard_kernel, None, tasks, jobs=2) == [
            i * i for i in range(6)
        ]


class TestTaskOutcome:
    def test_ok_property(self):
        assert TaskOutcome(index=0, value=1).ok
        assert not TaskOutcome(index=0, error=ValueError()).ok
