"""The legacy ``RunOptions(max_workers=N)`` input must not change a result.

Every stage runs in the process that runs the job, so a worker count older
callers still pass is validated and ignored.  The fig8/fig9/table2 case,
with starting a process forbidden, is pinned in ``test_no_process_started``.
"""

from __future__ import annotations

from repro.api import ExperimentRequest, RunOptions, run_experiment
from repro.eval.common import ExperimentScale

SMOKE = ExperimentScale.preset("smoke")


def _run(experiment: str, params: dict, max_workers: int | None):
    request = ExperimentRequest(
        experiment=experiment, scale=SMOKE, params=params
    )
    return run_experiment(
        request,
        options=RunOptions(max_workers=max_workers, use_cache=False),
    )


class TestAblationWorkers:
    PARAMS = {"pruning_rates": [0.5, 0.9]}

    def test_serial_and_parallel_sweeps_agree(self):
        serial = _run("ablate-rate", self.PARAMS, max_workers=None)
        parallel = _run("ablate-rate", self.PARAMS, max_workers=2)
        assert serial.payload == parallel.payload
        assert len(serial.payload["points"]) == 2
