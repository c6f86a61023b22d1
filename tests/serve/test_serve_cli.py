"""CLI verbs: ``repro serve`` drain, ``submit --wait`` exit codes, status."""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.api import (
    EXPERIMENTS,
    ExperimentReport,
    Pipeline,
    RunOptions,
    Stage,
    register_experiment,
)
from repro.cli import main
from repro.serve.http_api import ExperimentServer
from repro.serve.scheduler import Scheduler
from repro.serve.store import JobStore


def _register_test_experiments() -> None:
    """Experiments exercising the failure/timeout paths (idempotent)."""
    if "explode-test" not in EXPERIMENTS:
        @register_experiment("explode-test", description="always fails (test)")
        def _build_explode(request) -> Pipeline:
            def _boom(ctx):
                raise RuntimeError("synthetic pipeline failure")

            return Pipeline("explode-test", [Stage("report", _boom)])

    if "sleepy-test" not in EXPERIMENTS:
        @register_experiment("sleepy-test", description="sleeps 3s (test)")
        def _build_sleepy(request) -> Pipeline:
            def _sleep(ctx):
                time.sleep(3.0)
                return ExperimentReport(payload={}, summary="slept")

            return Pipeline("sleepy-test", [Stage("report", _sleep)])


_register_test_experiments()


@pytest.fixture
def service(tmp_path):
    """A real service (default executor) on an ephemeral port."""
    store = JobStore(tmp_path / "serve.db")
    scheduler = Scheduler(
        store, options=RunOptions(use_cache=False), poll_interval=0.02
    )
    scheduler.start()
    server = ExperimentServer(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    scheduler.stop(timeout=10.0)
    store.close()


def _submit(service, *args: str) -> int:
    return main(["submit", *args, "--url", service.url])


class TestSubmitExitCodes:
    def test_wait_done_exits_zero_and_prints_summary(self, service, capsys):
        code = _submit(
            service, "ablate-fifo", "--smoke", "--wait", "--timeout", "120"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "queued (new job)" in out
        assert "depth" in out  # the harness summary table made it back
        assert "done in" in out

    def test_second_identical_submit_reports_dedup(self, service, capsys):
        assert _submit(service, "ablate-fifo", "--smoke", "--wait",
                       "--timeout", "120") == 0
        capsys.readouterr()
        code = _submit(service, "ablate-fifo", "--smoke", "--wait",
                       "--timeout", "120")
        out = capsys.readouterr().out
        assert code == 0
        assert "deduped (attached to existing job)" in out
        assert "submissions=2 executions=1" in out

    def test_wait_failed_exits_one(self, service, capsys):
        code = _submit(service, "explode-test", "--wait", "--timeout", "60")
        captured = capsys.readouterr()
        assert code == 1
        assert "failed" in captured.err
        assert "synthetic pipeline failure" in captured.err

    def test_wait_timeout_exits_124(self, service):
        code = _submit(
            service, "sleepy-test", "--wait", "--timeout", "0.3"
        )
        assert code == 124

    def test_without_wait_returns_immediately(self, service, capsys):
        code = _submit(service, "sleepy-test")
        assert code == 0
        assert "queued" in capsys.readouterr().out

    def test_unknown_experiment_exits_two(self, service, capsys):
        code = _submit(service, "not-an-experiment", "--wait")
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unreachable_service_exits_two(self, capsys):
        code = main(["submit", "ablate-fifo", "--url", "http://127.0.0.1:9"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestStatusAndCancel:
    def test_status_lists_jobs_and_health(self, service, capsys):
        assert _submit(service, "ablate-fifo", "--smoke", "--wait",
                       "--timeout", "120") == 0
        capsys.readouterr()
        code = main(["status", "--url", service.url])
        out = capsys.readouterr().out
        assert code == 0
        assert "service up" in out
        assert "done=1" in out
        assert "ablate-fifo" in out

    def test_status_single_job_shows_timings(self, service, capsys):
        assert _submit(service, "ablate-fifo", "--smoke", "--wait",
                       "--timeout", "120") == 0
        capsys.readouterr()
        job_id = service.store.list_jobs()[0].id
        code = main(["status", job_id[:12], "--url", service.url])
        out = capsys.readouterr().out
        assert code == 0
        assert "prune" in out and "report" in out  # per-stage timings
        assert "depth" in out  # stored summary

    def test_status_unreachable_exits_two(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:9"]) == 2

    def test_cancel_queued_job(self, tmp_path, capsys):
        # A service that never drains, so the job stays cancellable.
        store = JobStore(tmp_path / "idle.db")
        scheduler = Scheduler(store, options=RunOptions(use_cache=False))
        server = ExperimentServer(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert main(["submit", "ablate-fifo", "--smoke",
                         "--url", server.url]) == 0
            capsys.readouterr()
            job_id = store.list_jobs()[0].id
            assert main(["cancel", job_id[:12], "--url", server.url]) == 0
            assert "cancelled" in capsys.readouterr().out
            # A second cancel finds the job already terminal: exit 1.
            assert main(["cancel", job_id[:12], "--url", server.url]) == 1
        finally:
            server.shutdown()
            server.server_close()
            store.close()

    def test_cancel_unknown_job_exits_two(self, service, capsys):
        assert main(["cancel", "ffff00001111", "--url", service.url]) == 2
        assert "no job matches" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_renders_snapshot(self, service, capsys):
        assert _submit(service, "ablate-fifo", "--smoke", "--wait",
                       "--timeout", "120") == 0
        capsys.readouterr()
        code = main(["stats", "--url", service.url])
        out = capsys.readouterr().out
        assert code == 0
        assert "service v" in out
        assert "queue:" in out and "done=1" in out
        assert "jobs:" in out and "submitted=" in out
        assert "workers_alive=1" in out
        # The ablation pipeline's stages show with quantiles.
        assert "prune" in out and "p50" in out

    def test_stats_json_round_trips(self, service, capsys):
        import json

        code = main(["stats", "--json", "--url", service.url])
        out = capsys.readouterr().out
        assert code == 0
        stats = json.loads(out)
        assert {"queue", "jobs", "scheduler", "stages", "caches"} <= set(stats)

    def test_stats_unreachable_exits_two(self, capsys):
        assert main(["stats", "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach" in capsys.readouterr().err


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestServeCommand:
    def test_serve_executes_jobs_and_drains_on_sigterm(self, tmp_path, capsys):
        """The acceptance loop, in-process: serve -> submit -> SIGTERM drain."""
        from repro.serve.client import ServeClient

        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        outcome: dict[str, object] = {}

        def _drive() -> None:
            client = ServeClient(url)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    client.health()
                    break
                except Exception:
                    time.sleep(0.05)
            try:
                job = client.submit(_smoke_request())["job"]
                outcome["job"] = client.wait(job["id"], timeout=60.0, poll=0.05)
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        def _smoke_request():
            from repro.api import ExperimentRequest
            from repro.eval.common import ExperimentScale

            return ExperimentRequest(
                experiment="ablate-fifo", scale=ExperimentScale.preset("smoke")
            )

        driver = threading.Thread(target=_drive, daemon=True)
        driver.start()
        code = main(
            [
                "serve",
                "--port", str(port),
                "--db", str(tmp_path / "serve.db"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        driver.join(timeout=30.0)
        out = capsys.readouterr().out
        assert code == 0
        assert "listening on" in out
        assert "drained cleanly" in out
        assert outcome["job"]["state"] == "done"

    def test_hidden_workers_flag_is_accepted_and_validated(
        self, tmp_path, capsys
    ):
        """``--workers`` is kept for older scripts but must be a positive int.

        A bad value exits 2 from argument parsing, before the port is bound
        or the job store is opened, and the flag stays out of ``--help``.
        """
        from repro.cli import build_parser

        assert build_parser().parse_args(["serve", "--workers", "1"]).workers == 1
        db = tmp_path / "serve.db"
        for bad in ("0", "-1", "two"):
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--workers", bad, "--port", "0", "--db", str(db)])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err
        assert not db.exists()
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        assert "--workers" not in capsys.readouterr().out

    def test_port_conflict_exits_two_before_touching_the_queue(
        self, tmp_path, capsys
    ):
        """A second serve on a taken port must die at bind time, exit 2."""
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            code = main(
                ["serve", "--port", str(port), "--db", str(tmp_path / "x.db")]
            )
        assert code == 2
        assert "cannot bind" in capsys.readouterr().err
