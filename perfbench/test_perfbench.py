"""Tests of the benchmark itself: tiny runs pass their checks, and the
checks catch a corrupted output and count it as a failed operation."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import rowops, serve, sweep
from perfbench.common import ROOT
from perfbench.figures import check_figures
from perfbench.run import parse_importtime
from perfbench.tracer import NULL, Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _summary(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace, kind",
    [(name, "0", "end_to_end") for name in WORKLOADS] + [(WORKLOADS[0], "1", "per_layer")],
)
def test_tiny_run_passes_every_check_and_prints_every_metric(workload, trace, kind):
    summary = _summary(
        _run("--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", trace, "--size", "tiny")
    )
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0
    assert set(summary["metrics"]) == {metric["name"] for metric in SPEC[kind]}
    for metric in SPEC[kind]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "figures", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_perturbed_sweep_record_fails_one_point():
    cold = [{"key": str(i), "latency_us": float(i)} for i in range(5)]
    warm = [dict(record) for record in cold]
    assert sweep.check_warm(cold, warm) == 0
    warm[2]["latency_us"] += 1e-6
    assert sweep.check_warm(cold, warm) == 1


def test_analytic_record_outside_bound_fails_one_point():
    from repro.analytic.validate import DEFAULT_ERROR_BOUNDS

    record = {"model": "AlexNet", "dataset": "CIFAR-10", "pruning_rate": 0.9,
              "overrides": {"num_pes": 168}}
    record.update({metric: 2.0 for metric in DEFAULT_ERROR_BOUNDS})
    close = dict(record, latency_us=2.0 * (1 + 1e-12))
    far = dict(record, latency_us=2.0 * (1 + 1e-6))
    assert sweep.check_analytic([record], [close]) == 0
    assert sweep.check_analytic([record], [far]) == 1


def _executed_step(step: str):
    from repro.arch.pe import execute_ops_arrays
    from repro.dataflow.decompose import accumulate_forward, accumulate_gta, accumulate_gtw

    accumulate = {"forward": accumulate_forward, "gta": accumulate_gta, "gtw": accumulate_gtw}
    case = rowops.make_cases(5, tiny=True)[0]
    ops = rowops._decompose(case, NULL.span)[step]
    results, stats = execute_ops_arrays(ops)
    reference = rowops.references(case)[step, True]
    return case, ops, results, stats, accumulate[step], reference


@pytest.mark.parametrize("step", ["forward", "gta", "gtw"])
def test_flipped_row_op_result_is_caught(step):
    case, ops, results, stats, accumulate, reference = _executed_step(step)
    sample = np.arange(0, len(ops), rowops.SCALAR_SAMPLE_EVERY)
    tensor = accumulate(case.spec, ops, results)
    assert rowops.check_step(ops, results, stats, tensor, reference, sample, True) == 0

    target = next(i for i in range(len(ops)) if np.any(results[i]))
    flipped = list(results)
    flipped[target] = -results[target]
    bad_tensor = accumulate(case.spec, ops, flipped)
    # The accumulated tensor no longer matches: every op of the step fails.
    assert rowops.check_step(ops, flipped, stats, bad_tensor, reference, sample, True) == len(ops)
    # Against the scalar backend alone, exactly the flipped op fails.
    assert rowops.check_step(
        ops, flipped, stats, tensor, reference, np.array([target]), True
    ) == 1


def test_serve_checks_fail_unattached_duplicates_and_reexecuted_jobs():
    subs = [
        serve.Submission(0, "a", state="done", job_id="j1", deduped=False),
        serve.Submission(1, "b", state="done", job_id="j2", deduped=False),
        serve.Submission(2, "a", state="done", job_id="j1", deduped=True),
    ]
    jobs = {"j1": {"executions": 1}, "j2": {"executions": 1}}
    assert serve.check_submissions(subs, jobs) == set()
    subs[2].deduped = False
    assert serve.check_submissions(subs, jobs) == {0, 2}
    subs[2].deduped = True
    jobs["j2"]["executions"] = 2
    assert serve.check_submissions(subs, jobs) == {1}
    subs[0].state = "failed"
    assert 0 in serve.check_submissions(subs, jobs)


def test_figures_check_requires_identical_regenerations():
    table = {"AlexNet/CIFAR-10": [2.5, 1.7, 1.0, 2.5, 1.0, 1.7]}
    assert check_figures(table, table, None) == 0
    changed = {"AlexNet/CIFAR-10": [2.5000001, 1.7, 1.0, 2.5, 1.0, 1.7]}
    assert check_figures(table, changed, None) == 1
    assert check_figures(changed, changed, table) == 1


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.op("figures#0"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("outer"):
                pass
    own = tracer.self_seconds("figures")
    total = tracer.total_seconds("figures")
    spans = {s.name: s for s in tracer.spans if s.parent is None}
    assert total["outer"] == pytest.approx(spans["outer"].end - spans["outer"].start)
    assert own["outer"] + own["inner"] == pytest.approx(total["outer"])


def test_parse_importtime_splits_repro_and_first_level_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        400 |     scipy.special",
        "import time:        10 |        710 |   repro.pruning.threshold",
        "import time:        40 |       1000 | repro.cli",
    ])
    parsed = parse_importtime(text)
    assert parsed["import.repro_s"] == pytest.approx(1000e-6)
    assert parsed["import.scipy_s"] == pytest.approx(700e-6)
