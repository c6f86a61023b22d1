"""No pipeline stage starts a process, whatever worker count is passed.

Every stage runs in the process that runs the job.  Starting a process
(``os.fork`` or any ``multiprocessing`` process start) is made to raise, and
fig8, fig9 and a smoke table2 must still run, with ``RunOptions(max_workers=4)``
giving the same payload as ``RunOptions()``.  A fork while another job thread
trains is what once deadlocked ``repro serve --concurrency 2``; this pins that
no job forks.

fig8/fig9 use fixed hand-written densities (no training), so they are fast and
deterministic.
"""

from __future__ import annotations

import multiprocessing.process
import os

import pytest

from repro.api import ExperimentRequest, RunOptions, get_experiment
from repro.dataflow.counts import LayerDensities
from repro.eval.common import ExperimentScale
from repro.sim.trace import MeasuredDensities

WORKLOADS = (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10"))

_PROFILES = (
    dict(input_density=1.0, grad_output_density=0.3, mask_density=0.55,
         grad_input_density=0.5, output_density=0.55),
    dict(input_density=0.55, grad_output_density=0.2, mask_density=0.5,
         grad_input_density=0.4, output_density=0.5),
)


def _fixed_measured() -> dict[str, MeasuredDensities]:
    measured = {}
    for family in ("AlexNet", "ResNet"):
        names = tuple(f"{family}.layer{i}" for i in range(len(_PROFILES)))
        measured[family] = MeasuredDensities(
            layer_names=names,
            densities={
                name: LayerDensities(**profile)
                for name, profile in zip(names, _PROFILES)
            },
        )
    return measured


@pytest.fixture(autouse=True)
def no_process_start(monkeypatch):
    # Not an OSError: nothing may quietly fall back after a refused start.
    def refuse(*args, **kwargs):
        raise AssertionError("a pipeline stage tried to start a process")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


def _payloads(experiment: str, **kwargs) -> tuple[dict, dict]:
    request = ExperimentRequest(experiment=experiment, **kwargs.pop("request", {}))
    run = get_experiment(experiment).run
    with_workers = run(request, RunOptions(max_workers=4, use_cache=False), **kwargs)
    default = run(request, RunOptions(use_cache=False), **kwargs)
    return with_workers.payload, default.payload


@pytest.mark.parametrize("experiment", ["fig8", "fig9"])
def test_figures_run_in_process(experiment):
    with_workers, default = _payloads(
        experiment,
        request={"workloads": WORKLOADS},
        extras={"measured": _fixed_measured()},
    )
    assert with_workers == default
    assert sorted(default["workloads"]) == ["AlexNet/CIFAR-10", "ResNet-18/CIFAR-10"]


def test_table2_trains_in_process():
    with_workers, default = _payloads(
        "table2",
        request={
            "scale": ExperimentScale.preset("smoke"),
            "params": {
                "models": ["AlexNet"],
                "datasets": ["CIFAR-10"],
                "pruning_rates": [None, 0.9],
            },
        },
    )
    assert with_workers == default
    assert len(default["cells"]) == 2
