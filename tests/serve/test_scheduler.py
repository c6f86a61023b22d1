"""Scheduler: dedup (two identical submits -> one execution), retries, drain."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import ExperimentRequest, ExperimentResult, RunOptions
from repro.obs import metrics
from repro.serve.scheduler import JobEvents, Scheduler
from repro.serve.store import CANCELLED, DONE, FAILED, RUNNING, JobStore, QUEUED
from repro.serve.worker import Worker


def _request(rate: float = 0.9, experiment: str = "fig8") -> ExperimentRequest:
    return ExperimentRequest(experiment=experiment, pruning_rate=rate)


class CountingExecutor:
    """Fake pipeline executor: thread-safe call counting, optional gating."""

    def __init__(
        self,
        fail_first: int = 0,
        gate: threading.Event | None = None,
        started: threading.Event | None = None,
    ) -> None:
        self.calls = 0
        self.fail_first = fail_first
        self.gate = gate
        self.started = started
        self._lock = threading.Lock()

    def __call__(self, request, options, on_stage, deadline):
        with self._lock:
            self.calls += 1
            call = self.calls
        if self.started is not None:
            self.started.set()
        if self.gate is not None:
            assert self.gate.wait(10.0)
        if call <= self.fail_first:
            raise ValueError(f"synthetic failure #{call}")
        on_stage("report", 0.01)
        return ExperimentResult(
            experiment=request.experiment,
            request=request,
            payload={"call": call},
            summary=f"call {call}",
        )


@pytest.fixture
def store(tmp_path):
    with JobStore(tmp_path / "serve.db") as job_store:
        yield job_store


def _scheduler(store, execute, **kwargs) -> Scheduler:
    kwargs.setdefault("poll_interval", 0.02)
    kwargs.setdefault("retry_base_delay", 0.01)
    return Scheduler(store, options=RunOptions(use_cache=False), execute=execute, **kwargs)


class TestDedup:
    def test_two_identical_submits_execute_once(self, store):
        """The acceptance property: 1 execution record, 2 submissions."""
        started, gate = threading.Event(), threading.Event()
        executor = CountingExecutor(gate=gate, started=started)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            first, deduped_first = scheduler.submit(_request())
            assert not deduped_first
            assert started.wait(10.0)  # now running
            second, deduped_second = scheduler.submit(_request())
            assert deduped_second
            assert second.id == first.id
            gate.set()
            job = scheduler.wait(first.id, timeout=10.0)
            assert job.state == DONE
            assert job.executions == 1
            assert job.submissions == 2
            assert executor.calls == 1
        finally:
            gate.set()
            assert scheduler.stop(timeout=10.0)

    def test_submit_after_done_attaches_without_rerun(self, store):
        executor = CountingExecutor()
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request())
            scheduler.wait(job.id, timeout=10.0)
            again, deduped = scheduler.submit(_request())
            assert deduped
            assert again.state == DONE
            time.sleep(0.1)  # a rerun would need the queue to move again
            assert executor.calls == 1
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_different_requests_both_execute(self, store):
        executor = CountingExecutor()
        scheduler = _scheduler(store, executor, concurrency=2)
        scheduler.start()
        try:
            a, _ = scheduler.submit(_request(rate=0.9))
            b, _ = scheduler.submit(_request(rate=0.5))
            assert scheduler.wait(a.id, timeout=10.0).state == DONE
            assert scheduler.wait(b.id, timeout=10.0).state == DONE
            assert executor.calls == 2
        finally:
            assert scheduler.stop(timeout=10.0)


class TestRetries:
    def test_transient_failures_retry_with_backoff_then_succeed(self, store):
        executor = CountingExecutor(fail_first=2)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request(), max_retries=3)
            finished = scheduler.wait(job.id, timeout=10.0)
            assert finished.state == DONE
            assert finished.executions == 3
            assert executor.calls == 3
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_exhausted_retry_budget_fails_terminally(self, store):
        executor = CountingExecutor(fail_first=100)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request(), max_retries=1)
            finished = scheduler.wait(job.id, timeout=10.0)
            assert finished.state == FAILED
            assert finished.executions == 2  # first run + one retry
            assert "synthetic failure" in finished.error
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_resubmitted_job_gets_a_fresh_retry_budget(self, store):
        """Lifetime executions must not deplete a new submission's budget."""
        executor = CountingExecutor(fail_first=3)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request())  # fails terminally (call 1)
            assert scheduler.wait(job.id, timeout=10.0).state == FAILED
            job, deduped = scheduler.submit(_request(), max_retries=2)
            assert not deduped
            finished = scheduler.wait(job.id, timeout=10.0)
            # Incarnation 2 may execute up to 3 times (calls 2, 3, 4);
            # call 4 succeeds — the old execution did not eat the budget.
            assert finished.state == DONE
            assert finished.executions == 4
            assert finished.executions_this_incarnation == 3
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_no_retries_by_default(self, store):
        executor = CountingExecutor(fail_first=100)
        scheduler = _scheduler(store, executor)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request())
            finished = scheduler.wait(job.id, timeout=10.0)
            assert finished.state == FAILED
            assert finished.executions == 1
        finally:
            assert scheduler.stop(timeout=10.0)


class TestLifecycle:
    def test_start_recovers_interrupted_jobs(self, tmp_path):
        path = tmp_path / "crash.db"
        with JobStore(path) as before:
            before.submit(_request())
            # Expired lease == a worker that died without heartbeating.
            assert before.claim_next(worker_id="w-dead", lease_ttl=0.0) is not None

        with JobStore(path) as after:
            executor = CountingExecutor()
            scheduler = _scheduler(after, executor)
            recovered = scheduler.start()
            try:
                assert recovered == 1
                job = scheduler.wait(_request().content_hash, timeout=10.0)
                assert job.state == DONE
                assert job.executions == 2  # the crashed claim + the rerun
            finally:
                assert scheduler.stop(timeout=10.0)

    def test_drain_finishes_running_and_keeps_queue(self, store):
        started, gate = threading.Event(), threading.Event()
        executor = CountingExecutor(gate=gate, started=started)
        scheduler = _scheduler(store, executor, concurrency=1)
        scheduler.start()
        running, _ = scheduler.submit(_request(rate=0.9))
        queued, _ = scheduler.submit(_request(rate=0.5))
        assert started.wait(10.0)

        # Ask for the drain from a helper thread, then release the gate: the
        # running job must complete, the queued one must stay queued.
        stopper = threading.Thread(target=scheduler.stop)
        stopper.start()
        time.sleep(0.05)
        gate.set()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert store.get(running.id).state == DONE
        assert store.get(queued.id).state == QUEUED
        assert executor.calls == 1

    def test_double_start_rejected(self, store):
        scheduler = _scheduler(store, CountingExecutor())
        scheduler.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                scheduler.start()
        finally:
            assert scheduler.stop(timeout=10.0)

    def test_wait_times_out(self, store):
        scheduler = _scheduler(store, CountingExecutor())  # never started
        job, _ = scheduler.submit(_request())
        with pytest.raises(TimeoutError):
            scheduler.wait(job.id, timeout=0.05, poll=0.01)


class TestLostLease:
    def test_result_after_reap_is_not_reported_done(self, store):
        """A job reaped mid-execution and re-claimed elsewhere: the late
        result is discarded, and the scheduler reports no ``done``."""
        started, gate = threading.Event(), threading.Event()
        executor = CountingExecutor(gate=gate, started=started)
        scheduler = _scheduler(store, executor, concurrency=1, lease_ttl=30.0)
        lost = metrics().counter("jobs.lease_lost")
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request())
            assert started.wait(10.0)
            assert store.reap_expired(now=time.time() + 1000.0).requeued == [job.id]
            assert store.claim_next(worker_id="w-other", lease_ttl=30.0).id == job.id
            lost_before = lost.value
            gate.set()
        finally:
            gate.set()
            assert scheduler.stop(timeout=10.0)

        assert lost.value == lost_before + 1
        events = [e["event"] for e in scheduler.events.since(job.id)]
        assert events[0] == "started" and "done" not in events
        current = store.get(job.id)
        assert current.state == RUNNING and current.worker_id == "w-other"


    def test_bare_worker_discards_result_after_reap(self, store):
        """The same lost-lease path when a ``repro worker`` loop runs the
        job: no ``done`` event, no ``jobs_done`` tally, the new owner keeps
        the job."""
        started, gate = threading.Event(), threading.Event()
        events = JobEvents()
        worker = Worker(
            store,
            worker_id="w-bare",
            lease_ttl=30.0,
            poll_interval=0.02,
            execute=CountingExecutor(gate=gate, started=started),
            events=events,
        )
        lost = metrics().counter("jobs.lease_lost")
        job, _ = store.submit(_request())
        runner = threading.Thread(target=worker.run, kwargs={"max_jobs": 1})
        runner.start()
        try:
            assert started.wait(10.0)
            assert store.reap_expired(now=time.time() + 1000.0).requeued == [job.id]
            assert store.claim_next(worker_id="w-other", lease_ttl=30.0).id == job.id
            (row,) = store.list_workers()
            lost_before = lost.value
        finally:
            gate.set()
            runner.join(timeout=10.0)
        assert not runner.is_alive()

        assert lost.value == lost_before + 1
        assert row["id"] == "w-bare" and row["jobs_done"] == 0
        kinds = [e["event"] for e in events.since(job.id)]
        assert kinds[0] == "started" and "done" not in kinds
        current = store.get(job.id)
        assert current.state == RUNNING and current.worker_id == "w-other"


class TestFrontEndReaper:
    def test_lease_expiry_reaches_the_events_feed(self, store):
        """``concurrency=0`` (the ``--fleet`` front end) still reaps, and
        each requeue is announced to events long-pollers."""
        scheduler = _scheduler(store, CountingExecutor(), concurrency=0, lease_ttl=0.2)
        scheduler.start()
        try:
            job, _ = scheduler.submit(_request())
            # A worker process that claimed the job and died at once.
            assert store.claim_next(worker_id="w-dead", lease_ttl=0.0).id == job.id
            seen = scheduler.events.wait(job.id, since=0, timeout=10.0)
        finally:
            assert scheduler.stop(timeout=10.0)
        assert [(e["event"], e["reason"]) for e in seen] == [
            ("requeued", "lease expired")
        ]
        assert store.get(job.id).state == QUEUED


class TestJobEventsEviction:
    """The events log must not grow without bound on a long-lived service."""

    def test_terminal_log_evicted_after_grace(self):
        events = JobEvents(terminal_grace=5.0)
        events.emit("a", "done")
        events.mark_terminal("a", now=time.time() - 10.0)  # grace already over
        events.emit("b", "started")  # purge runs on the next emit
        assert events.since("a") == []
        assert events.tracked_jobs == 1

    def test_terminal_log_readable_within_grace(self):
        """Late long-pollers get a window to read the final event."""
        events = JobEvents(terminal_grace=60.0)
        events.emit("a", "done")
        events.mark_terminal("a")
        events.emit("b", "started")
        assert [e["event"] for e in events.since("a")] == ["done"]

    def test_max_jobs_cap_evicts_oldest(self):
        events = JobEvents(max_jobs=3, terminal_grace=1000.0)
        for index in range(5):
            events.emit(f"job{index}", "started")
        assert events.since("job0") == []  # oldest evicted
        assert events.since("job4")  # newest kept
        assert events.tracked_jobs <= 4  # cap enforced at next emit

    def test_cap_prefers_evicting_terminal_logs(self):
        events = JobEvents(max_jobs=2, terminal_grace=1000.0)
        events.emit("live-old", "started")
        events.emit("finished", "done")
        events.mark_terminal("finished")
        events.emit("live-new", "started")
        events.emit("live-newer", "started")  # over cap: terminal goes first
        assert events.since("finished") == []
        assert events.since("live-old")  # older but live: survives

    def test_per_job_ring_limit(self):
        events = JobEvents(per_job_limit=3)
        for index in range(5):
            events.emit("a", f"stage{index}")
        log = events.since("a")
        assert [e["event"] for e in log] == ["stage2", "stage3", "stage4"]
        assert log[-1]["seq"] == 5  # sequence numbers keep counting


class TestCancelEvents:
    def test_cancel_emits_cancelled_event(self, store):
        scheduler = _scheduler(store, CountingExecutor())  # never started
        job, _ = scheduler.submit(_request())
        cancelled_job, cancelled = scheduler.cancel(job.id)
        assert cancelled
        assert cancelled_job.state == CANCELLED
        assert [e["event"] for e in scheduler.events.since(job.id)] == [
            "cancelled"
        ]

    def test_cancel_noop_emits_nothing(self, store):
        scheduler = _scheduler(store, CountingExecutor())
        job, _ = scheduler.submit(_request())
        scheduler.cancel(job.id)
        scheduler.cancel(job.id)  # second cancel is a no-op
        assert len(scheduler.events.since(job.id)) == 1

    def test_long_poller_woken_by_cancel(self, store):
        """The satellite fix: DELETE must not leave event streams hanging."""
        scheduler = _scheduler(store, CountingExecutor())
        job, _ = scheduler.submit(_request())
        seen: list[dict] = []
        poller = threading.Thread(
            target=lambda: seen.extend(scheduler.events.wait(job.id, 0, 10.0))
        )
        poller.start()
        time.sleep(0.1)
        scheduler.cancel(job.id)
        poller.join(timeout=10.0)
        assert not poller.is_alive()
        assert [e["event"] for e in seen] == ["cancelled"]


class TestRealPipeline:
    def test_smoke_experiment_end_to_end(self, store):
        """One real registered pipeline through the default executor."""
        from repro.eval.common import ExperimentScale

        scheduler = Scheduler(
            store, options=RunOptions(use_cache=False), poll_interval=0.02
        )
        scheduler.start()
        try:
            request = ExperimentRequest(
                experiment="ablate-fifo", scale=ExperimentScale.preset("smoke")
            )
            job, _ = scheduler.submit(request)
            finished = scheduler.wait(job.id, timeout=120.0)
            assert finished.state == DONE
            result = finished.result()
            assert result is not None
            assert result.summary  # the harness-rendered table
            # Live per-stage timings arrived via the on_stage hook.
            assert set(finished.timings) == {"prune", "report"}
        finally:
            assert scheduler.stop(timeout=10.0)
