"""The job scheduler: drain the queue through the registered pipelines.

A :class:`Scheduler` owns a :class:`~repro.serve.store.JobStore` and runs
``concurrency`` :class:`~repro.serve.worker.Worker` threads over it — the
same claim/heartbeat/execute/outcome loop a ``repro worker`` process runs.
Each worker atomically *leases* the next due job (priority first, FIFO
within a priority, retry-backoff gates respected), executes it through
:func:`repro.api.run_experiment` — i.e. through the exact registered
pipeline the CLI runs, every stage in the worker's own thread and no
process started, with the persistent density cache, so a job whose stages
were computed before short-circuits to cached artifacts — and persists the
outcome.

What the scheduler guarantees:

* **hash-level dedup** — submission goes through the store's content-hash
  key; an identical in-flight or completed request never executes twice
  (see :meth:`JobStore.submit`).
* **retry with exponential backoff** — a failed execution requeues the job
  gated behind ``retry_base_delay * 2**(execution-1)`` seconds until the
  job's retry budget (``max_retries``) is spent, then fails terminally.
* **lease liveness** — each worker thread heartbeats its in-flight lease
  well inside its TTL, and one *reaper* thread reaps expired leases
  fleet-wide every ``reap_interval``, so jobs leased by a SIGKILL'd worker
  **process** (this one or any `repro worker` sharing the store) requeue
  without operator intervention.
* **graceful drain** — :meth:`Scheduler.stop` lets every claimed job finish
  (pipelines are not interrupted mid-stage), then joins the workers; jobs
  still queued stay queued in the store and survive to the next start.
* **live progress** — each worker feeds the process-local
  :class:`JobEvents` long-poll log (``started``, every pipeline stage via
  the :class:`~repro.api.PipelineContext` ``on_stage`` hook, the outcome),
  and the reaper adds ``requeued`` / ``quarantined``.

With ``concurrency=0`` the scheduler runs *front-end only*: it submits,
reaps, and serves events, while execution belongs entirely to external
worker processes (the ``repro serve --fleet N`` topology).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any

from repro.api.request import ExperimentRequest, RunOptions
from repro.serve.store import (
    DEFAULT_LEASE_TTL,
    DEFAULT_REQUEUE_CAP,
    INACTIVE_STATES,
    Job,
    JobStore,
)
from repro.serve.worker import ExecuteFn, Worker, reap_and_report


class JobEvents:
    """In-memory per-job progress event log with long-poll support.

    Fed by the scheduler's worker threads as jobs start, complete stages
    (the pipeline's ``on_stage`` hook) and finish, and by its reaper;
    drained by ``GET /jobs/<id>/events``.  Events are monotonically
    sequence-numbered per job, so a client resumes with ``since=<last seen
    seq>`` and never misses or re-reads one.  The log
    is bounded three ways — per job (a ring of ``per_job_limit`` events),
    per process (at most ``max_jobs`` tracked jobs, oldest evicted first),
    and in time (a job marked terminal is forgotten ``terminal_grace``
    seconds later, leaving late long-pollers a window to read the final
    event) — so a long-lived service never accumulates logs without bound.
    It is a live progress feed, not a durable record (the store's
    ``timings`` column is the persistent part).
    """

    def __init__(
        self,
        per_job_limit: int = 512,
        max_jobs: int = 1024,
        terminal_grace: float = 60.0,
    ) -> None:
        self.per_job_limit = per_job_limit
        self.max_jobs = max_jobs
        self.terminal_grace = terminal_grace
        self._events: dict[str, list[dict[str, Any]]] = {}
        self._terminal: dict[str, float] = {}
        self._cond = threading.Condition()

    def emit(self, job_id: str, event: str, **data: Any) -> dict[str, Any]:
        """Append one event and wake every long-poll waiter."""
        with self._cond:
            self._purge_locked(time.time())
            log = self._events.setdefault(job_id, [])
            seq = (log[-1]["seq"] + 1) if log else 1
            entry = {"seq": seq, "ts": time.time(), "event": event, **data}
            log.append(entry)
            if len(log) > self.per_job_limit:
                del log[: len(log) - self.per_job_limit]
            self._cond.notify_all()
        return entry

    def mark_terminal(self, job_id: str, now: float | None = None) -> None:
        """Start the eviction grace clock for a finished job's log."""
        with self._cond:
            if job_id in self._events:
                self._terminal[job_id] = time.time() if now is None else now

    def _purge_locked(self, now: float) -> None:
        expired = [
            job_id
            for job_id, at in self._terminal.items()
            if at + self.terminal_grace <= now
        ]
        for job_id in expired:
            del self._terminal[job_id]
            self._events.pop(job_id, None)
        if len(self._events) <= self.max_jobs:
            return
        # Over the cap even after the grace sweep: evict oldest logs,
        # terminal ones first (their readers had their window).
        overflow = len(self._events) - self.max_jobs
        doomed = [j for j in self._events if j in self._terminal][:overflow]
        remaining = overflow - len(doomed)
        if remaining > 0:
            doomed += [j for j in self._events if j not in self._terminal][
                :remaining
            ]
        for job_id in doomed:
            self._events.pop(job_id, None)
            self._terminal.pop(job_id, None)

    @property
    def tracked_jobs(self) -> int:
        with self._cond:
            return len(self._events)

    def since(self, job_id: str, since: int = 0) -> list[dict[str, Any]]:
        """Events for ``job_id`` with ``seq > since`` (no waiting)."""
        with self._cond:
            return [e for e in self._events.get(job_id, []) if e["seq"] > since]

    def wait(
        self, job_id: str, since: int = 0, timeout: float = 30.0
    ) -> list[dict[str, Any]]:
        """Long-poll: block until events past ``since`` exist or ``timeout``."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                fresh = [
                    e for e in self._events.get(job_id, []) if e["seq"] > since
                ]
                if fresh:
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)

    def forget(self, job_id: str) -> None:
        with self._cond:
            self._events.pop(job_id, None)
            self._terminal.pop(job_id, None)


class Scheduler:
    """Concurrency-bounded queue drainer over a :class:`JobStore`.

    Parameters
    ----------
    store:
        The persistent job store (shared with the HTTP API and any external
        ``repro worker`` processes).
    options:
        The :class:`RunOptions` every job executes with — the disk-cache
        location the pipelines short-circuit to.
    concurrency:
        How many jobs run at once (worker threads; a job runs entirely in
        its thread).  ``0`` runs no local execution at all — submissions,
        the reaper, and the events feed still work, execution is left to
        external workers.
    retry_base_delay / retry_max_delay:
        Exponential-backoff parameters for failed executions.
    poll_interval:
        How long an idle worker sleeps between queue checks; submissions
        wake the workers immediately, so this only bounds retry-gate latency.
    lease_ttl / heartbeat_interval:
        Lease duration stamped on claims and how often each worker thread
        extends its in-flight lease (default: a third of the TTL).  Expired
        leases anywhere in the fleet are reaped every ``lease_ttl / 2``.
    quarantine_after:
        The crash-loop bound the reaper applies: a job whose lease expired
        this many times is quarantined instead of requeued.
    execute:
        The execution callable, replaceable in tests.
    """

    def __init__(
        self,
        store: JobStore,
        options: RunOptions | None = None,
        concurrency: int = 1,
        retry_base_delay: float = 0.5,
        retry_max_delay: float = 60.0,
        poll_interval: float = 0.2,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: float | None = None,
        quarantine_after: int = DEFAULT_REQUEUE_CAP,
        execute: ExecuteFn | None = None,
    ) -> None:
        if concurrency < 0:
            raise ValueError(f"concurrency must be >= 0, got {concurrency}")
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        if quarantine_after < 0:
            raise ValueError(
                f"quarantine_after must be >= 0, got {quarantine_after}"
            )
        self.quarantine_after = quarantine_after
        self.store = store
        self.options = options if options is not None else RunOptions()
        self.concurrency = concurrency
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self.poll_interval = poll_interval
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, lease_ttl / 3.0)
        )
        self.reap_interval = max(self.heartbeat_interval, lease_ttl / 2.0)
        self._execute = execute
        self._workers: list[Worker] = []
        self._threads: list[threading.Thread] = []
        self._reaper: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = False
        self.events = JobEvents()
        self.worker_id_base = f"{socket.gethostname()}:{os.getpid()}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Recover interrupted jobs and start the worker + reaper threads.

        Returns the number of jobs requeued by crash recovery (expired or
        missing leases only — jobs leased by live external workers are not
        touched).
        """
        if self._started:
            raise RuntimeError("scheduler already started")
        recovered = self.store.recover(quarantine_after=self.quarantine_after)
        self._stop.clear()
        self._workers = [
            Worker(
                self.store,
                self.options,
                worker_id=f"{self.worker_id_base}:t{index}",
                lease_ttl=self.lease_ttl,
                heartbeat_interval=self.heartbeat_interval,
                poll_interval=self.poll_interval,
                reap=False,
                retry_base_delay=self.retry_base_delay,
                retry_max_delay=self.retry_max_delay,
                quarantine_after=self.quarantine_after,
                execute=self._execute,
                events=self.events,
            )
            for index in range(self.concurrency)
        ]
        self._threads = [
            threading.Thread(
                target=worker.run,
                kwargs={"stop": self._stop},
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            for index, worker in enumerate(self._workers)
        ]
        for thread in self._threads:
            thread.start()
        self._reaper = threading.Thread(
            target=self._reap_loop, name="repro-serve-reaper", daemon=True
        )
        self._reaper.start()
        self._started = True
        return recovered

    def _reap_loop(self) -> None:
        while not self._stop.wait(self.reap_interval):
            reap_and_report(
                self.store, self.quarantine_after, events=self.events
            )

    def _wake_workers(self) -> None:
        for worker in self._workers:
            worker.wake()

    def stop(self, timeout: float | None = None) -> bool:
        """Graceful drain: finish claimed jobs, keep the rest queued.

        Returns ``True`` when every worker joined within ``timeout``.
        """
        self._stop.set()
        self._wake_workers()
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            drained = drained and not thread.is_alive()
        if self._reaper is not None:
            self._reaper.join(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
        if drained:
            self._threads = []
            self._reaper = None
            self._started = False
        return drained

    @property
    def running(self) -> bool:
        if not self._started:
            return False
        if not self._threads:  # front-end-only mode: alive once started
            return True
        return any(t.is_alive() for t in self._threads)

    @property
    def workers_alive(self) -> int:
        """How many worker threads are currently alive (liveness probe)."""
        return sum(1 for t in self._threads if t.is_alive())

    @property
    def last_dequeue_at(self) -> float | None:
        """The most recent claim across all worker threads."""
        stamps = [
            worker.last_dequeue_at
            for worker in self._workers
            if worker.last_dequeue_at is not None
        ]
        return max(stamps) if stamps else None

    def worker_liveness(self) -> dict[str, dict[str, Any]]:
        """Per-worker-thread liveness: last dequeue, current job, tallies."""
        return {
            worker.worker_id: {
                "last_dequeue_at": worker.last_dequeue_at,
                "current_job": worker.current_job,
                "jobs_done": worker.jobs_executed,
            }
            for worker in self._workers
        }

    # ------------------------------------------------------------------
    # Submission / waiting / cancellation
    # ------------------------------------------------------------------
    def submit(
        self,
        request: ExperimentRequest,
        priority: int = 0,
        max_retries: int | None = None,
        source: str | None = None,
        deadline_s: float | None = None,
        trace_id: str | None = None,
    ) -> tuple[Job, bool]:
        """Submit through the store's dedup seam and wake a worker."""
        job, deduped = self.store.submit(
            request,
            priority=priority,
            max_retries=0 if max_retries is None else max_retries,
            source=source,
            deadline_s=deadline_s,
            trace_id=trace_id,
        )
        self._wake_workers()
        return job, deduped

    def requeue(self, job_id: str) -> tuple[Job, bool]:
        """The quarantine escape hatch: release a resting job and wake a
        worker; the events feed learns about the transition immediately."""
        job, requeued = self.store.requeue(job_id)
        if requeued:
            self.events.emit(job.id, "requeued", reason="manual")
            self._wake_workers()
        return job, requeued

    def cancel(self, job_id: str) -> tuple[Job, bool]:
        """Cancel a queued job *and* tell the events feed about it.

        Routing cancellation through the scheduler (instead of straight at
        the store) is what lets a ``/jobs/<id>/events`` long-poller learn the
        job is terminal immediately instead of blocking out its timeout.
        """
        job, cancelled = self.store.cancel(job_id)
        if cancelled:
            self.events.emit(job.id, "cancelled")
            self.events.mark_terminal(job.id)
        return job, cancelled

    def wait(
        self, job_id: str, timeout: float | None = None, poll: float = 0.05
    ) -> Job:
        """Block until the job is terminal or quarantined (or ``timeout``).

        Quarantine counts as an answer: the job will not run again without
        operator intervention, so a waiter must not block out its timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.store.get(job_id)
            if job.state in INACTIVE_STATES:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job.short_id} still {job.state} after {timeout}s"
                )
            time.sleep(poll)


__all__ = ["JobEvents", "Scheduler"]
