"""The one lease-based job loop over a shared :class:`JobStore`.

:class:`Worker` is the only code that claims, heartbeats, executes and
records the outcome of a job.  It runs in two places:

* ``repro worker --db serve.db`` is the execution half of the distributed
  service: any number of these processes (on any machine that can reach the
  SQLite file) lease jobs from one store, run them through the registered
  pipelines, and heartbeat while they work.  The supervisor process
  (``repro serve --fleet N``) owns the HTTP front end and spawns/respawns
  workers, but workers are also usable bare — point several at one database
  and they coordinate purely through the store's lease transactions.
* In-process ``repro serve`` runs ``concurrency`` Worker *threads* inside
  the :class:`~repro.serve.scheduler.Scheduler`, each with the scheduler's
  :class:`~repro.serve.scheduler.JobEvents` log as its ``events`` hook.

Crash-recovery contract:

* A claim stamps ``worker_id`` + ``lease_expires_at`` on the job row; a
  background thread extends the lease every ``heartbeat_interval`` seconds
  (TTL/3 by default) for as long as the pipeline runs.
* If this process dies (SIGKILL, OOM, power loss), the lease stops being
  extended and lapses; the next reaper pass — every worker runs one
  periodically, as does the supervisor's scheduler — requeues the job, and
  a surviving worker re-executes it.
* If this process is merely *slow* and its lease is reaped out from under
  it, the owner guard on ``mark_done``/``mark_failed`` discards its late
  result: the job's outcome belongs to whoever holds the lease.

SIGTERM/SIGINT drain gracefully: the current job finishes, nothing new is
claimed, the worker deregisters and exits 0.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.api.request import ExperimentRequest, ExperimentResult, RunOptions
from repro.api.stages import DeadlineExceeded
from repro.faults import fault_point
from repro.obs import metrics, trace_context, trace_span
from repro.serve.store import (
    DEFAULT_LEASE_TTL,
    DEFAULT_REQUEUE_CAP,
    JobStore,
    Job,
    default_worker_id,
)

if TYPE_CHECKING:
    from repro.serve.scheduler import JobEvents

# Execution callable signature: (request, options, on_stage, deadline) ->
# result, where ``deadline`` is the job's absolute epoch-seconds budget or
# ``None`` when it has none.
ExecuteFn = Callable[
    [ExperimentRequest, RunOptions, Callable[[str, float], None], float | None],
    ExperimentResult,
]


def _default_execute(
    request: ExperimentRequest,
    options: RunOptions,
    on_stage: Callable[[str, float], None],
    deadline: float | None,
) -> ExperimentResult:
    from repro.api.registry import run_experiment

    return run_experiment(
        request, options=options, on_stage=on_stage, deadline=deadline
    )


def plan_retry(
    job: Job,
    base_delay: float,
    max_delay: float,
    now: float | None = None,
) -> float | None:
    """The requeue-at timestamp for a failed execution, or ``None``.

    ``None`` means the retry budget of the job's current incarnation is
    spent and the failure is terminal.
    """
    attempts = job.executions_this_incarnation
    if attempts > job.max_retries:
        return None
    delay = min(max_delay, base_delay * (2 ** (attempts - 1)))
    return (time.time() if now is None else now) + delay


def reap_and_report(
    store: JobStore,
    quarantine_after: int,
    who: str = "reaper",
    log: Callable[[str], None] | None = None,
    events: JobEvents | None = None,
) -> None:
    """One fleet-wide reaper pass: requeue or quarantine lapsed leases.

    Run by every reaping :class:`Worker` and by the scheduler's reaper
    thread; with ``events`` each transition also reaches the long-poll feed.
    """
    log = log if log is not None else (lambda message: None)
    outcome = store.reap_expired(quarantine_after=quarantine_after)
    for job_id in outcome.requeued:
        log(f"{who}: requeued expired lease on job {job_id[:12]}")
        if events is not None:
            events.emit(job_id, "requeued", reason="lease expired")
    for job_id in outcome.quarantined:
        log(f"{who}: quarantined crash-looping job {job_id[:12]}")
        if events is not None:
            events.emit(
                job_id,
                "quarantined",
                reason=(
                    f"lease expired more than {quarantine_after}"
                    " times (crash loop?)"
                ),
            )
            events.mark_terminal(job_id)


class Worker:
    """A single claim-execute-heartbeat loop over one shared store.

    Parameters
    ----------
    store:
        The shared :class:`JobStore` (same database file as the service).
    options:
        :class:`RunOptions` each job executes with.
    worker_id:
        Lease identity; defaults to ``<host>:<pid>`` so the owning process
        is identifiable (and SIGKILL-able) from the job row alone.
    lease_ttl / heartbeat_interval:
        Lease duration and extension cadence (default TTL/3).  The TTL is
        the fleet's failure-detection latency: a dead worker's jobs requeue
        at most one TTL + one reap interval after its last heartbeat.
    poll_interval:
        Idle sleep between queue checks; :meth:`wake` cuts it short.
    reap:
        Whether this worker also reaps expired leases fleet-wide (on by
        default — any surviving worker rescues a dead one's jobs even
        without a supervisor).
    retry_base_delay / retry_max_delay:
        Backoff policy for failed executions.
    quarantine_after:
        Crash-loop bound applied by this worker's reaper passes.
    execute:
        The execution callable, replaceable in tests.
    events:
        Optional :class:`~repro.serve.scheduler.JobEvents` log fed with
        each job's ``started`` / ``stage`` / outcome events.
    """

    def __init__(
        self,
        store: JobStore,
        options: RunOptions | None = None,
        worker_id: str | None = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.5,
        reap: bool = True,
        retry_base_delay: float = 0.5,
        retry_max_delay: float = 60.0,
        quarantine_after: int = DEFAULT_REQUEUE_CAP,
        execute: ExecuteFn | None = None,
        log: Callable[[str], None] | None = None,
        events: JobEvents | None = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self.quarantine_after = quarantine_after
        self.store = store
        self.options = options if options is not None else RunOptions()
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, lease_ttl / 3.0)
        )
        self.poll_interval = poll_interval
        self.reap = reap
        self.reap_interval = max(self.heartbeat_interval, lease_ttl / 2.0)
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        self._execute = execute if execute is not None else _default_execute
        self._log = log if log is not None else (lambda message: None)
        self.events = events
        self.jobs_executed = 0
        self.last_dequeue_at: float | None = None
        self.current_job: str | None = None
        self._wake = threading.Event()

    def wake(self) -> None:
        """End the current idle wait now (new work, or a stop request)."""
        self._wake.set()

    def _emit(
        self, job_id: str, event: str, terminal: bool = False, **data: Any
    ) -> None:
        if self.events is not None:
            self.events.emit(job_id, event, **data)
            if terminal:
                self.events.mark_terminal(job_id)

    # ------------------------------------------------------------------
    def run(
        self,
        stop: threading.Event | None = None,
        max_jobs: int | None = None,
        idle_exit: float | None = None,
    ) -> int:
        """Drain the queue until stopped; returns jobs executed.

        ``max_jobs`` bounds the number of executions (testing / batch use);
        ``idle_exit`` exits after that many consecutive idle seconds.
        """
        stop = stop if stop is not None else threading.Event()
        self.store.register_worker(self.worker_id)
        self._log(f"worker {self.worker_id}: draining (lease_ttl={self.lease_ttl}s)")
        idle_since: float | None = None
        next_reap = time.monotonic()
        try:
            while not stop.is_set():
                if self.reap and time.monotonic() >= next_reap:
                    reap_and_report(
                        self.store,
                        self.quarantine_after,
                        who=f"worker {self.worker_id}",
                        log=self._log,
                        events=self.events,
                    )
                    next_reap = time.monotonic() + self.reap_interval
                # Cleared before the claim, so a wake() landing after an
                # empty claim still cuts the idle wait below short.
                self._wake.clear()
                job = self.store.claim_next(
                    worker_id=self.worker_id, lease_ttl=self.lease_ttl
                )
                if job is None:
                    now = time.monotonic()
                    idle_since = idle_since if idle_since is not None else now
                    if idle_exit is not None and now - idle_since >= idle_exit:
                        break
                    self.store.worker_heartbeat(self.worker_id)
                    self._wake.wait(self.poll_interval)
                    continue
                idle_since = None
                self.last_dequeue_at = time.time()
                self.current_job = job.id
                try:
                    self._run_job(job)
                finally:
                    self.current_job = None
                self.jobs_executed += 1
                if max_jobs is not None and self.jobs_executed >= max_jobs:
                    break
        finally:
            self.store.deregister_worker(self.worker_id)
            self._log(
                f"worker {self.worker_id}: exiting after "
                f"{self.jobs_executed} job(s)"
            )
        return self.jobs_executed

    # ------------------------------------------------------------------
    def _run_job(self, job: Job) -> None:
        # The whole claim-to-outcome arc runs under the job's trace context,
        # so every span (and JSON log line) this thread emits carries the
        # cross-process correlation ids.
        with trace_context(
            trace_id=job.trace_id, job_id=job.id, worker_id=self.worker_id
        ):
            self._run_job_traced(job)

    def _run_job_traced(self, job: Job) -> None:
        # An instantaneous claim marker, recorded (and spooled) *before*
        # execution starts: even a worker SIGKILL'd mid-job leaves proof in
        # the span store that it touched this trace.
        with trace_span(
            "worker.claim", experiment=job.experiment, execution=job.executions
        ):
            pass
        self._log(
            f"worker {self.worker_id}: claimed job {job.short_id}"
            f" [{job.experiment}] execution={job.executions}"
        )
        self._emit(
            job.id,
            "started",
            execution=job.executions,
            experiment=job.experiment,
            worker=self.worker_id,
        )

        def on_stage(stage: str, seconds: float) -> None:
            self.store.record_stage(job.id, stage, seconds)
            self._emit(job.id, "stage", stage=stage, seconds=seconds)

        # ``started_at`` was stamped by the claim, so the deadline covers
        # execution only — queue wait does not eat a job's budget.
        deadline = (
            None
            if job.deadline_s is None or job.started_at is None
            else job.started_at + job.deadline_s
        )
        try:
            with self._heartbeating(job) as lease_lost:
                fault_point(
                    "worker.claim",
                    job=job.id,
                    experiment=job.experiment,
                    execution=job.executions,
                )
                with trace_span(
                    "worker.execute",
                    experiment=job.experiment,
                    execution=job.executions,
                ):
                    result = self._execute(
                        job.request(), self.options, on_stage, deadline
                    )
        except Exception as exc:  # noqa: BLE001 — job isolation boundary
            self._record_failure(job, exc)
        except BaseException:
            # Interrupt mid-job (SIGTERM escalation, drain): requeue
            # immediately rather than waiting out the lease.
            self.store.mark_failed(
                job.id,
                "interrupted during worker shutdown",
                retry_at=time.time(),
                worker_id=self.worker_id,
            )
            self._emit(job.id, "interrupted")
            raise
        else:
            finished = self.store.mark_done(
                job.id, result, worker_id=self.worker_id
            )
            if lease_lost.is_set() or finished.worker_id != self.worker_id:
                # Reaped while we ran: the result was discarded by the owner
                # guard and the job belongs to another execution, which
                # reports its own end.
                self._log(
                    f"worker {self.worker_id}: lost lease on job"
                    f" {job.short_id}; result discarded"
                )
                return
            self.store.worker_finished(self.worker_id, ok=True)
            self._log(f"worker {self.worker_id}: job {job.short_id} done")
            self._emit(job.id, "done", terminal=True)

    @contextmanager
    def _heartbeating(self, job: Job) -> Iterator[threading.Event]:
        """Extend ``job``'s lease in the background; yields the lost flag."""
        done = threading.Event()
        lease_lost = threading.Event()

        def _beat() -> None:
            while not done.wait(self.heartbeat_interval):
                now = time.time()
                if not self.store.heartbeat(
                    job.id, self.worker_id, lease_ttl=self.lease_ttl, now=now
                ):
                    lease_lost.set()
                    return
                self.store.worker_heartbeat(
                    self.worker_id, current_job=job.id, now=now
                )

        beater = threading.Thread(
            target=_beat, name=f"repro-worker-heartbeat-{job.short_id}", daemon=True
        )
        beater.start()
        try:
            yield lease_lost
        finally:
            done.set()
            beater.join()

    def _record_failure(self, job: Job, exc: Exception) -> None:
        error = f"{type(exc).__name__}: {exc}"
        # ``claim_next`` already counted this execution; the budget is scoped
        # to the current incarnation (a resubmitted failed job retries with a
        # fresh budget, not one depleted by its history).
        retry_at = plan_retry(job, self.retry_base_delay, self.retry_max_delay)
        if isinstance(exc, DeadlineExceeded):
            # Terminal regardless of retry budget: the same budget would be
            # blown again, wasting another worker-deadline of fleet time.
            metrics().counter("serve.deadline_exceeded").inc()
            self.store.mark_failed(job.id, error, worker_id=self.worker_id)
            self._log(
                f"worker {self.worker_id}: job {job.short_id} exceeded its"
                f" deadline ({error})"
            )
            self._emit(job.id, "failed", terminal=True, error=error, deadline=True)
        elif retry_at is not None:
            self.store.mark_failed(
                job.id, error, retry_at=retry_at, worker_id=self.worker_id
            )
            metrics().counter("serve.retries").inc()
            self._log(
                f"worker {self.worker_id}: job {job.short_id} failed"
                f" ({error}); retry scheduled"
            )
            self._emit(
                job.id,
                "retry_scheduled",
                error=error,
                delay=max(0.0, retry_at - time.time()),
            )
        else:
            self.store.mark_failed(job.id, error, worker_id=self.worker_id)
            self._log(
                f"worker {self.worker_id}: job {job.short_id} failed"
                f" terminally ({error})"
            )
            self._emit(job.id, "failed", terminal=True, error=error)
        self.store.worker_finished(self.worker_id, ok=False)


__all__ = ["ExecuteFn", "Worker", "plan_retry", "reap_and_report"]
