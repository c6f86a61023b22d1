"""``serve``: a seeded closed-loop job stream against a real ``repro serve``.

Two client threads each submit the next request of the stream once their
previous one is done, polling ``GET /jobs/<id>`` every 10 ms.  The same
stream runs twice, each time against a fresh service with a fresh job db and
cache: first executed in-process (``--concurrency 2``), then by a worker
fleet (``--fleet 2``).  The mix is mostly distinct 4-point sweeps, about one
in four exact duplicates of an earlier request (they attach by dedup and do
not execute) and about one in eight smoke-scale AlexNet ``fig8`` jobs, which train.

Both services run with ``--workers 1``: each job evaluates in the thread or
process that claimed it.  With the default per-job process pool, an
in-process service running two jobs at once can deadlock: one job thread
forks the pool while the other is training in numpy (see NOTES.md).
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.common import (
    PhaseResult,
    digest,
    fresh_dir,
    median,
    percentile,
    subprocess_env,
)

PHASES = (("serve", ("--concurrency", "2")), ("fleet", ("--fleet", "2")))
SERVICE_ARGS = ("--workers", "1")
CLIENTS = 2
POLL_SECONDS = 0.01
#: A job not done after this long counts as failed.
JOB_TIMEOUT = 60.0
#: Requests still unsent after this long in one phase count as failed.
PHASE_BUDGET = 90.0
READY_TIMEOUT = 60.0
#: One done request in this many is re-run in-process and compared.
PAYLOAD_CHECK_EVERY = 16

SWEEP_MODELS = ("AlexNet", "ResNet-18", "VGG-16", "MobileNetV1")
PE_CHOICES = (84, 126, 168, 252, 336, 504, 672)
BUFFER_CHOICES = (192, 256, 386, 512, 772)


def _sweep(model: str, pes: list[int], buffer: int, rates: list[float]):
    from repro.api import ExperimentRequest

    return ExperimentRequest(
        "sweep",
        workloads=((model, "CIFAR-10"),),
        params={"pes": pes, "buffers": [buffer], "pruning_rates": rates},
    )


def _fig8(model: str, rate: float):
    from repro.api import ExperimentRequest
    from repro.eval.common import ExperimentScale

    return ExperimentRequest(
        "fig8", workloads=((model, "CIFAR-10"),), pruning_rate=rate,
        scale=ExperimentScale.smoke(),
    )


def make_stream(seed: int, count: int) -> list:
    """The seeded request stream; duplicates repeat a request two or more
    places earlier, so it has been submitted by the time its copy is."""
    rng = random.Random(seed)
    stream: list = []
    for index in range(count):
        draw = rng.random()
        if index >= 4 and draw < 0.25:
            stream.append(stream[rng.randrange(index - 2)])
        elif draw < 0.375:
            stream.append(_fig8("AlexNet", round(rng.uniform(0.5, 0.95), 4)))
        else:
            rates = sorted(round(rate / 1e4, 4) for rate in rng.sample(range(3000, 9700), 2))
            stream.append(
                _sweep(
                    rng.choice(SWEEP_MODELS),
                    sorted(rng.sample(PE_CHOICES, 2)),
                    rng.choice(BUFFER_CHOICES),
                    rates,
                )
            )
    return stream


#: Untimed jobs run on each fresh service before the stream.  Their pruning
#: rates lie outside the stream's ranges, so no stream request attaches to them.
WARM_UP = (
    lambda: _sweep("AlexNet", [84, 168], 386, [0.1, 0.2]),
    lambda: _sweep("ResNet-18", [84, 168], 386, [0.1, 0.2]),
    lambda: _fig8("AlexNet", 0.2),
    lambda: _fig8("AlexNet", 0.25),
)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Service:
    """One ``repro serve`` process group with its own db and cache."""

    def __init__(self, work: Path, mode_args: tuple[str, ...]) -> None:
        self.dir = fresh_dir(work, "serve-")
        self.port = _free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.fleet = "--fleet" in mode_args
        self.args = [
            sys.executable, "-m", "repro", "serve",
            "--port", str(self.port),
            "--db", str(self.dir / "jobs.db"),
            "--cache-dir", str(self.dir / "cache"),
            *SERVICE_ARGS, *mode_args,
        ]
        self.process: subprocess.Popen | None = None
        self.log = self.dir / "serve.log"

    def start(self) -> None:
        """Spawn the service and wait until it (and, for a fleet, both
        workers) can take jobs."""
        from repro.serve.client import ServeClient, ServeError

        with self.log.open("wb") as log:
            self.process = subprocess.Popen(
                self.args, cwd=self.dir, env=subprocess_env(),
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        client = ServeClient(self.url, timeout=5.0)
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            try:
                health = client.health()
                if not self.fleet or len(health.get("workers") or ()) >= 2:
                    return
            except ServeError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"repro serve did not become ready:\n{self.tail()}")

    def tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM (drain), then make sure no process of the group is left."""
        if self.process is None:
            return
        pgid = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                self.process.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        self.process = None


@dataclass
class Submission:
    index: int
    request_hash: str
    state: str = "unsent"
    job_id: str | None = None
    deduped: bool | None = None
    latency: float = float("inf")
    submit_seconds: float | None = None
    poll_seconds: list[float] = field(default_factory=list)


def drive(url: str, stream: list, tracer, phase: str) -> tuple[list[Submission], tuple[float, float]]:
    """Run the stream closed-loop from :data:`CLIENTS` threads; returns the
    submissions and the (start, end) perf_counter window it took."""
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.store import INACTIVE_STATES

    submissions = [Submission(i, request.content_hash) for i, request in enumerate(stream)]
    next_index = iter(range(len(stream)))
    lock = threading.Lock()
    budget_end = time.monotonic() + PHASE_BUDGET

    def client() -> None:
        api = ServeClient(url, timeout=10.0)
        while True:
            with lock:
                index = next(next_index, None)
            if index is None or time.monotonic() > budget_end:
                return
            sub = submissions[index]
            with tracer.op(f"{phase}.job:{index}"):
                start = time.perf_counter()
                try:
                    with tracer.span("serve.http_submit"):
                        response = api.submit(stream[index], admission_retries=0)
                    sub.submit_seconds = time.perf_counter() - start
                    job = response["job"]
                    sub.job_id, sub.deduped = job["id"], response["deduped"]
                    timeout_at = start + JOB_TIMEOUT
                    while job["state"] not in INACTIVE_STATES:
                        if time.perf_counter() > timeout_at:
                            break
                        time.sleep(POLL_SECONDS)
                        poll_start = time.perf_counter()
                        with tracer.span("serve.http_poll"):
                            job = api.job(job["id"])
                        sub.poll_seconds.append(time.perf_counter() - poll_start)
                    sub.state = job["state"]
                    if sub.state == "done":
                        sub.latency = time.perf_counter() - start
                except ServeError as exc:
                    sub.state = f"error: {exc}"

    threads = [threading.Thread(target=client, name=f"client-{n}") for n in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return submissions, (start, time.perf_counter())


def check_submissions(submissions: list[Submission], jobs: dict[str, dict]) -> set[int]:
    """Indices of failed submissions.

    A submission fails when its job did not end ``done``, when its request
    did not create exactly one job (every duplicate must attach), or when
    its job executed other than exactly once.
    """
    failed = {s.index for s in submissions if s.state != "done"}
    by_request: dict[str, list[Submission]] = {}
    for sub in submissions:
        by_request.setdefault(sub.request_hash, []).append(sub)
    for group in by_request.values():
        created = sum(1 for s in group if s.deduped is False)
        if created != 1 or len({s.job_id for s in group}) != 1:
            failed.update(s.index for s in group)
    for sub in submissions:
        job = jobs.get(sub.job_id or "")
        if job is None or job.get("executions") != 1:
            failed.add(sub.index)
    return failed


def comparable(payload: dict) -> dict:
    """A result payload without its cache-dependent ``stats`` line."""
    return {key: value for key, value in payload.items() if key != "stats"}


class Serve:
    """Inputs of the path: the seeded request stream."""

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.work = work
        self.stream = make_stream(seed, 12 if tiny else 200)

    def warm_up(self) -> None:
        """Nothing in-process: each service is warmed right after it starts."""

    def run_once(self, tracer, index: int) -> PhaseResult:
        out = PhaseResult()
        digests = []
        for phase, mode_args in PHASES:
            result = self._phase(phase, mode_args, tracer, index)
            out.merge(result)
            digests.append(result.digest)
        out.passes = 1  # both phases together are one pass of the path
        out.digest = "|".join(sorted(set(digests)))
        if len(set(digests)) != 1:
            out.failed += 1
            out.notes.append("serve: in-process and fleet payloads differ")
        return out

    def _phase(self, phase: str, mode_args: tuple[str, ...], tracer, index: int) -> PhaseResult:
        from repro.serve.client import ServeClient

        out = PhaseResult()
        service = Service(self.work, mode_args)
        api = ServeClient(service.url, timeout=30.0)
        try:
            start = time.perf_counter()
            service.start()
            ready = time.perf_counter() - start
            warm = [api.submit(make(), admission_retries=0)["job"]["id"] for make in WARM_UP]
            for job_id in warm:
                api.wait(job_id, timeout=JOB_TIMEOUT, poll=POLL_SECONDS)
            out.layer[f"{phase}.ready_s"] = ready

            with tracer.op(f"{phase}#{index}"):
                submissions, window = drive(service.url, self.stream, tracer, phase)
            stats = api.stats()
            jobs = {
                job_id: api.job(job_id)
                for job_id in {s.job_id for s in submissions if s.job_id}
            }
        finally:
            service.stop()

        failed = check_submissions(submissions, jobs)
        failed |= self._check_payloads(submissions, jobs)
        done = [s for s in submissions if s.state == "done"]
        out.attempted = len(submissions)
        out.failed = len(failed)
        wall = window[1] - window[0]
        out.op_seconds = wall
        latencies_ms = [sub.latency * 1000.0 for sub in submissions]
        executed = [job for job in jobs.values() if job.get("started_at") and job.get("finished_at")]
        out.layer.update(
            {
                f"{phase}.http_submit_ms": 1000.0 * median(
                    s.submit_seconds for s in submissions if s.submit_seconds is not None
                ),
                f"{phase}.http_poll_ms": 1000.0 * median(
                    t for s in submissions for t in s.poll_seconds
                ),
                f"{phase}.queue_wait_ms": 1000.0 * median(
                    job["started_at"] - job["created_at"] for job in executed
                ),
                f"{phase}.exec_ms": 1000.0 * median(
                    job["finished_at"] - job["started_at"] for job in executed
                ),
                f"{phase}.dedup_frac": sum(1 for s in submissions if s.deduped) / len(submissions),
                f"{phase}.executions_per_job": sum(
                    job.get("executions", 0) for job in jobs.values()
                ) / max(1, len(jobs)),
                f"{phase}.jobs_per_s": len(done) / wall,
                f"{phase}.p50_ms": percentile(latencies_ms, 50),
                f"{phase}.p95_ms": percentile(latencies_ms, 95),
                f"{phase}.busy_retries": stats["jobs"]["busy_retries"],
                f"{phase}.lease_lost": stats["jobs"]["lease_lost"],
            }
        )
        out.digest = digest(
            sorted(
                (_request_hash(job), digest(comparable(job["result"]["payload"])))
                for job in jobs.values()
                if job.get("result")
            )
        )
        return out

    def _check_payloads(self, submissions: list[Submission], jobs: dict[str, dict]) -> set[int]:
        """Re-run a seeded sample of the done requests in-process; a payload
        that differs from the service's fails every submission of it."""
        from repro.api import RunOptions, run_experiment

        rng = random.Random(self.seed)
        by_request: dict[str, list[Submission]] = {}
        for sub in submissions:
            if sub.state == "done":
                by_request.setdefault(sub.request_hash, []).append(sub)
        hashes = sorted(by_request)
        sample = [h for h in hashes if rng.random() < 1.0 / PAYLOAD_CHECK_EVERY] or hashes[:1]
        failed: set[int] = set()
        for request_hash in sample:
            group = by_request[request_hash]
            job = jobs[group[0].job_id]
            request = self.stream[group[0].index]
            local = run_experiment(
                request,
                RunOptions(max_workers=1, cache_dir=fresh_dir(self.work, "check-")),
            )
            if comparable(job["result"]["payload"]) != comparable(local.payload):
                failed.update(s.index for s in group)
        return failed


def _request_hash(job: dict) -> str:
    from repro.api import ExperimentRequest

    return ExperimentRequest.from_dict(job["request"]).content_hash

