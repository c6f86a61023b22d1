"""The job scheduler: drain the queue through the shared pipeline runner.

A :class:`Scheduler` owns a :class:`~repro.serve.store.JobStore` and a small
team of worker threads.  Each worker atomically *leases* the next due job
(priority first, FIFO within a priority, retry-backoff gates respected),
executes it through :func:`repro.api.run_experiment` — i.e. through the
exact registered pipeline the CLI runs, including the shared
:class:`~repro.api.Runner` process-pool fan-out and the persistent density /
sweep disk caches, so a job whose stages were computed before short-circuits
to cached artifacts — and persists the outcome.

What the scheduler guarantees:

* **hash-level dedup** — submission goes through the store's content-hash
  key; an identical in-flight or completed request never executes twice
  (see :meth:`JobStore.submit`).
* **retry with exponential backoff** — a failed execution requeues the job
  gated behind ``retry_base_delay * 2**(execution-1)`` seconds until the
  job's retry budget (``max_retries``) is spent, then fails terminally.
* **lease liveness** — a background *keeper* thread heartbeats every
  in-flight lease well inside its TTL and periodically reaps expired
  leases fleet-wide, so jobs leased by a SIGKILL'd worker **process**
  (this one or any `repro worker` sharing the store) requeue without
  operator intervention.
* **graceful drain** — :meth:`Scheduler.stop` lets every claimed job finish
  (pipelines are not interrupted mid-stage), then joins the workers; jobs
  still queued stay queued in the store and survive to the next start.
* **live progress** — each completed pipeline stage is streamed into the job
  row through the :class:`~repro.api.PipelineContext` ``on_stage`` hook, and
  into the process-local :class:`JobEvents` long-poll feed.

With ``concurrency=0`` the scheduler runs *front-end only*: it submits,
reaps, and serves events, while execution belongs entirely to external
worker processes (the ``repro serve --fleet N`` topology).
"""

from __future__ import annotations

import inspect
import os
import socket
import threading
import time
from typing import Any, Callable

from repro.api.request import ExperimentRequest, ExperimentResult, RunOptions
from repro.api.stages import DeadlineExceeded
from repro.faults import fault_point
from repro.obs import metrics, trace_context, trace_span
from repro.serve.store import (
    DEFAULT_LEASE_TTL,
    DEFAULT_REQUEUE_CAP,
    INACTIVE_STATES,
    Job,
    JobStore,
)

# Execution callable signature: (request, options, on_stage) -> result.
# Implementations may accept an optional fourth positional argument — the
# absolute epoch-seconds ``deadline`` — which :func:`call_execute` passes
# only when the callable's signature takes it, so three-argument test
# doubles keep working unchanged.
ExecuteFn = Callable[
    [ExperimentRequest, RunOptions, Callable[[str, float], None]],
    ExperimentResult,
]


def _deadline_style(execute: Callable[..., Any]) -> str | None:
    """How ``execute`` takes a deadline: "positional", "keyword", or None."""
    try:
        parameters = inspect.signature(execute).parameters.values()
    except (TypeError, ValueError):  # builtins/C callables: assume modern
        return "positional"
    positional = [
        p
        for p in parameters
        if p.kind
        in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)
    ]
    if any(p.kind == p.VAR_POSITIONAL for p in positional):
        return "positional"
    if len(positional) >= 4:
        return "positional"
    if "deadline" in {
        p.name for p in parameters if p.kind == p.KEYWORD_ONLY
    }:
        return "keyword"
    return None


def _accepts_deadline(execute: Callable[..., Any]) -> bool:
    return _deadline_style(execute) is not None


def call_execute(
    execute: Callable[..., Any],
    request: ExperimentRequest,
    options: RunOptions,
    on_stage: Callable[[str, float], None],
    deadline: float | None,
) -> ExperimentResult:
    """Invoke an :data:`ExecuteFn`, passing ``deadline`` only if accepted."""
    if deadline is not None:
        style = _deadline_style(execute)
        if style == "positional":
            return execute(request, options, on_stage, deadline)
        if style == "keyword":
            return execute(request, options, on_stage, deadline=deadline)
    return execute(request, options, on_stage)


def plan_retry(
    job: Job,
    base_delay: float,
    max_delay: float,
    now: float | None = None,
) -> float | None:
    """The requeue-at timestamp for a failed execution, or ``None``.

    ``None`` means the retry budget of the job's current incarnation is
    spent and the failure is terminal.  Shared by the in-process scheduler
    and the standalone :class:`~repro.serve.worker.Worker` so both halves of
    the fleet apply identical backoff policy.
    """
    attempts = job.executions_this_incarnation
    if attempts > job.max_retries:
        return None
    delay = min(max_delay, base_delay * (2 ** (attempts - 1)))
    return (time.time() if now is None else now) + delay


class JobEvents:
    """In-memory per-job progress event log with long-poll support.

    Fed by the scheduler as jobs start, complete stages (the pipeline's
    ``on_stage`` hook) and finish; drained by ``GET /jobs/<id>/events``.
    Events are monotonically sequence-numbered per job, so a client resumes
    with ``since=<last seen seq>`` and never misses or re-reads one.  The log
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


def _default_execute(
    request: ExperimentRequest,
    options: RunOptions,
    on_stage: Callable[[str, float], None],
    deadline: float | None = None,
) -> ExperimentResult:
    from repro.api.registry import run_experiment

    return run_experiment(
        request, options=options, on_stage=on_stage, deadline=deadline
    )


class Scheduler:
    """Concurrency-bounded queue drainer over a :class:`JobStore`.

    Parameters
    ----------
    store:
        The persistent job store (shared with the HTTP API and any external
        ``repro worker`` processes).
    options:
        The :class:`RunOptions` every job executes with — worker-pool size
        for fan-out stages and the disk-cache location the pipelines
        short-circuit to.
    concurrency:
        How many jobs run at once (worker threads; each job may additionally
        fan out over worker *processes* through its pipeline's Runner).
        ``0`` runs no local execution at all — submissions, the reaper, and
        the events feed still work, execution is left to external workers.
    retry_base_delay / retry_max_delay:
        Exponential-backoff parameters for failed executions.
    poll_interval:
        How long an idle worker sleeps between queue checks; submissions
        wake the workers immediately, so this only bounds retry-gate latency.
    lease_ttl / heartbeat_interval:
        Lease duration stamped on claims and how often the keeper thread
        extends in-flight leases (default: a third of the TTL).  Expired
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
        self._execute = execute if execute is not None else _default_execute
        self._threads: list[threading.Thread] = []
        self._keeper: threading.Thread | None = None
        self._stop = threading.Event()
        self._wake = threading.Condition()
        self._started = False
        self.events = JobEvents()
        self.worker_id_base = f"{socket.gethostname()}:{os.getpid()}"
        # Per-worker liveness, guarded by its own lock (worker threads write
        # concurrently — the old single unsynchronized ``last_dequeue_at``
        # scalar raced here).
        self._state_lock = threading.Lock()
        self._worker_state: dict[str, dict[str, Any]] = {}
        # In-flight leases the keeper thread must heartbeat.
        self._inflight: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Recover interrupted jobs and start the worker + keeper threads.

        Returns the number of jobs requeued by crash recovery (expired or
        missing leases only — jobs leased by live external workers are not
        touched).
        """
        if self._started:
            raise RuntimeError("scheduler already started")
        recovered = self.store.recover(quarantine_after=self.quarantine_after)
        self._stop.clear()
        self._threads = []
        with self._state_lock:
            self._worker_state = {}
        for index in range(self.concurrency):
            worker_id = f"{self.worker_id_base}:t{index}"
            with self._state_lock:
                self._worker_state[worker_id] = {
                    "last_dequeue_at": None,
                    "current_job": None,
                    "jobs_done": 0,
                }
            self.store.register_worker(worker_id)
            self._threads.append(
                threading.Thread(
                    target=self._worker_loop,
                    args=(worker_id,),
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
            )
        for thread in self._threads:
            thread.start()
        self._keeper = threading.Thread(
            target=self._keeper_loop, name="repro-serve-keeper", daemon=True
        )
        self._keeper.start()
        self._started = True
        return recovered

    def stop(self, timeout: float | None = None) -> bool:
        """Graceful drain: finish claimed jobs, keep the rest queued.

        Returns ``True`` when every worker joined within ``timeout``.
        """
        self._stop.set()
        with self._wake:
            self._wake.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        drained = True
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            drained = drained and not thread.is_alive()
        if self._keeper is not None:
            self._keeper.join(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
        if drained:
            with self._state_lock:
                worker_ids = list(self._worker_state)
            for worker_id in worker_ids:
                self.store.deregister_worker(worker_id)
            self._threads = []
            self._keeper = None
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
        with self._state_lock:
            stamps = [
                state["last_dequeue_at"]
                for state in self._worker_state.values()
                if state["last_dequeue_at"] is not None
            ]
        return max(stamps) if stamps else None

    def worker_liveness(self) -> dict[str, dict[str, Any]]:
        """Per-worker-thread liveness: last dequeue, current job, tallies."""
        with self._state_lock:
            return {
                worker_id: dict(state)
                for worker_id, state in self._worker_state.items()
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
        with self._wake:
            self._wake.notify_all()
        return job, deduped

    def requeue(self, job_id: str) -> tuple[Job, bool]:
        """The quarantine escape hatch: release a resting job and wake a
        worker; the events feed learns about the transition immediately."""
        job, requeued = self.store.requeue(job_id)
        if requeued:
            self.events.emit(job.id, "requeued", reason="manual")
            with self._wake:
                self._wake.notify_all()
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

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _worker_loop(self, worker_id: str) -> None:
        while not self._stop.is_set():
            job = self.store.claim_next(
                worker_id=worker_id, lease_ttl=self.lease_ttl
            )
            if job is None:
                with self._wake:
                    if not self._stop.is_set():
                        self._wake.wait(self.poll_interval)
                continue
            with self._state_lock:
                state = self._worker_state[worker_id]
                state["last_dequeue_at"] = time.time()
                state["current_job"] = job.id
                self._inflight[worker_id] = job.id
            try:
                self._run_job(job, worker_id)
            finally:
                with self._state_lock:
                    self._inflight.pop(worker_id, None)
                    state = self._worker_state[worker_id]
                    state["current_job"] = None
                    state["jobs_done"] += 1

    def _keeper_loop(self) -> None:
        """Heartbeat in-flight leases; reap expired leases fleet-wide."""
        next_reap = time.monotonic() + self.reap_interval
        while not self._stop.wait(self.heartbeat_interval):
            now = time.time()
            with self._state_lock:
                inflight = dict(self._inflight)
                worker_ids = list(self._worker_state)
            for worker_id, job_id in inflight.items():
                self.store.heartbeat(
                    job_id, worker_id, lease_ttl=self.lease_ttl, now=now
                )
            for worker_id in worker_ids:
                self.store.worker_heartbeat(
                    worker_id, current_job=inflight.get(worker_id), now=now
                )
            if time.monotonic() >= next_reap:
                outcome = self.store.reap_expired(
                    now=now, quarantine_after=self.quarantine_after
                )
                for job_id in outcome.requeued:
                    self.events.emit(job_id, "requeued", reason="lease expired")
                for job_id in outcome.quarantined:
                    self.events.emit(
                        job_id,
                        "quarantined",
                        reason=(
                            f"lease expired more than {self.quarantine_after}"
                            " times (crash loop?)"
                        ),
                    )
                    self.events.mark_terminal(job_id)
                next_reap = time.monotonic() + self.reap_interval

    def _run_job(self, job: Job, worker_id: str) -> None:
        def on_stage(stage: str, seconds: float) -> None:
            self.store.record_stage(job.id, stage, seconds)
            self.events.emit(job.id, "stage", stage=stage, seconds=seconds)

        self.events.emit(
            job.id,
            "started",
            execution=job.executions,
            experiment=job.experiment,
            worker=worker_id,
        )
        # ``started_at`` was stamped by the claim, so the deadline covers
        # execution only — queue wait does not eat a job's budget.
        deadline = (
            None
            if job.deadline_s is None or job.started_at is None
            else job.started_at + job.deadline_s
        )
        try:
            # The whole execution runs under the job's trace context, so
            # every span below (pipeline, stages, the execute wrapper) is
            # stamped with the ids a cross-process merge needs.
            with trace_context(
                trace_id=job.trace_id, job_id=job.id, worker_id=worker_id
            ):
                fault_point(
                    "worker.claim",
                    job=job.id,
                    experiment=job.experiment,
                    execution=job.executions,
                )
                with trace_span(
                    "scheduler.execute",
                    experiment=job.experiment,
                    execution=job.executions,
                ):
                    result = call_execute(
                        self._execute,
                        job.request(),
                        self.options,
                        on_stage,
                        deadline,
                    )
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            self._record_failure(job, exc, worker_id)
        except BaseException:
            # Interrupt during drain: put the job back so the next start
            # (or the lease reaper) re-runs it, then unwind.
            self.store.mark_failed(
                job.id,
                "interrupted during shutdown",
                retry_at=time.time(),
                worker_id=worker_id,
            )
            self.events.emit(job.id, "interrupted")
            raise
        else:
            finished = self.store.mark_done(job.id, result, worker_id=worker_id)
            if finished.worker_id != worker_id:
                # Reaped while we ran: the owner guard discarded the result
                # (``mark_done`` counted ``jobs.lease_lost``) and the job
                # belongs to another execution, which reports its own end.
                return
            self.events.emit(job.id, "done")
            self.events.mark_terminal(job.id)

    def _record_failure(self, job: Job, exc: Exception, worker_id: str) -> None:
        error = f"{type(exc).__name__}: {exc}"
        # ``claim_next`` already counted this execution; the budget is scoped
        # to the current incarnation (a resubmitted failed job retries with a
        # fresh budget, not one depleted by its history).  A blown deadline
        # is terminal regardless of budget: retrying an over-budget job just
        # blows the same budget again and wastes another worker-deadline.
        if isinstance(exc, DeadlineExceeded):
            metrics().counter("serve.deadline_exceeded").inc()
            self.store.mark_failed(job.id, error, worker_id=worker_id)
            self.events.emit(job.id, "failed", error=error, deadline=True)
            self.events.mark_terminal(job.id)
            return
        retry_at = plan_retry(job, self.retry_base_delay, self.retry_max_delay)
        if retry_at is not None:
            self.store.mark_failed(
                job.id, error, retry_at=retry_at, worker_id=worker_id
            )
            metrics().counter("serve.retries").inc()
            self.events.emit(
                job.id,
                "retry_scheduled",
                error=error,
                delay=max(0.0, retry_at - time.time()),
            )
        else:
            self.store.mark_failed(job.id, error, worker_id=worker_id)
            self.events.emit(job.id, "failed", error=error)
            self.events.mark_terminal(job.id)


__all__ = [
    "ExecuteFn",
    "JobEvents",
    "Scheduler",
    "call_execute",
    "plan_retry",
]
