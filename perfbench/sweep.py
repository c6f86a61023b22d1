"""``sweep``: one seeded design grid evaluated three ways.

The grid crosses AlexNet, ResNet-18, VGG-16 and MobileNetV1 on CIFAR-10 with
seeded PE-count, buffer and pruning-rate axes (100,000 points).  A pass
evaluates a seeded sample of it on the vectorized tier from an empty sweep
cache (writing ``sweeps.jsonl``), reads the same sample back from that cache,
and evaluates the full grid on the analytic tier with no cache.  Nothing
trains, so the time goes to ``repro.explore``, ``repro.sim``, ``repro.arch``
and ``repro.analytic``.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

import numpy as np

from perfbench.common import SAMPLER_CPU, PhaseResult, fresh_dir, on_sampler_cpu

WORKLOADS = (
    ("AlexNet", "CIFAR-10"),
    ("ResNet-18", "CIFAR-10"),
    ("VGG-16", "CIFAR-10"),
    ("MobileNetV1", "CIFAR-10"),
)

#: A cache read of the sample takes ~50 ms; the median of many is steadier.
WARM_PASSES = 15


def make_axes(seed: int, tiny: bool = False) -> dict[str, list]:
    """Seeded, duplicate-free axes; PE counts are multiples of the 3-PE group."""
    rng = np.random.default_rng(seed)
    n_pes, n_buffers, n_rates = (4, 3, 3) if tiny else (40, 25, 25)
    pes = sorted(3 * int(k) for k in rng.choice(np.arange(8, 400), n_pes, replace=False))
    buffers = sorted(int(b) for b in rng.choice(np.arange(96, 1537), n_buffers, replace=False))
    rates: set[float] = set()
    while len(rates) < n_rates:
        rates.add(round(float(rng.uniform(0.3, 0.97)), 4))
    return {"pes": pes, "buffers": buffers, "pruning_rates": sorted(rates)}


class Sweep:
    """Inputs of the path: the seeded grid axes and sample."""

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.work = work
        self.axes = make_axes(seed, tiny)
        self.sample = 4 if tiny else 96
        self.grid_points = (
            len(WORKLOADS)
            * len(self.axes["pes"])
            * len(self.axes["buffers"])
            * len(self.axes["pruning_rates"])
        )
        self.analytic_sample: list[dict] = []

    def _request(self, sample: bool, fidelity: str = "vectorized"):
        from repro.api import ExperimentRequest

        params = dict(self.axes)
        if sample:
            params.update(sample=self.sample, seed=self.seed)
        return ExperimentRequest(
            "sweep", workloads=WORKLOADS, params=params, fidelity=fidelity
        )

    def warm_up(self) -> None:
        """Evaluate the sample on the analytic tier (kept for the parity check).

        It also fills the in-process ``_configs_for`` cache for every
        architecture of the sample before the timed passes.
        """
        from repro.api import RunOptions, run_experiment

        result = run_experiment(
            self._request(sample=True, fidelity="analytic"), RunOptions(use_cache=False)
        )
        self.analytic_sample = result.payload["records"]

    def run_once(self, tracer, index: int) -> PhaseResult:
        from repro.api import RunOptions, run_experiment
        from repro.obs import metrics

        out = PhaseResult()
        cached = RunOptions(cache_dir=fresh_dir(self.work, "sweeps-"))
        sampled = self._request(sample=True)
        with tracer.op(f"sweep#{index}"):
            runner_before = _runner_seconds(metrics())
            start = time.perf_counter()
            with tracer.span("experiment.sweep.cold"):
                cold = run_experiment(sampled, cached)
            end = time.perf_counter()
            runner_after = _runner_seconds(metrics())
            points = len(cold.payload["records"])
            out.add("sweep_points_per_s", points / (end - start), (start, end))
            out.op_seconds += end - start

            for _ in range(WARM_PASSES):
                with on_sampler_cpu():
                    start = time.perf_counter()
                    with tracer.span("experiment.sweep.warm"):
                        warm = run_experiment(sampled, cached)
                    end = time.perf_counter()
                records = warm.payload["records"]
                out.add(
                    "sweep_cached_points_per_s", len(records) / (end - start),
                    (start, end, SAMPLER_CPU),
                )
                out.op_seconds += end - start
                out.attempted += len(records)
                out.failed += check_warm(cold.payload["records"], records)

            with on_sampler_cpu():
                start = time.perf_counter()
                with tracer.span("experiment.sweep.analytic"):
                    grid = run_experiment(
                        self._request(sample=False, fidelity="analytic"),
                        RunOptions(use_cache=False),
                    )
                end = time.perf_counter()
            grid_records = grid.native["records"]
            out.add(
                "analytic_points_per_s", len(grid_records) / (end - start),
                (start, end, SAMPLER_CPU),
            )
            out.op_seconds += end - start

        out.attempted += points + len(grid_records)
        out.failed += check_analytic(cold.payload["records"], self.analytic_sample)
        if len(grid_records) != self.grid_points:
            out.failed += abs(self.grid_points - len(grid_records))

        workers = os.cpu_count() or 1
        out.layer["runner.queue_wait_s"] = runner_after[0] - runner_before[0]
        out.layer["runner.exec_s"] = runner_after[1] - runner_before[1]
        out.layer["runner.pool_wall_s"] = cold.stage_seconds["simulate"]
        out.layer["runner.workers"] = workers
        out.layer["sweep.points"] = points
        out.layer["analytic.points"] = len(grid_records)
        out.digest = hashlib.sha256(
            repr(sorted((r["key"], r["latency_us"], r["energy_uj"]) for r in cold.payload["records"])).encode()
            + _grid_columns(grid_records).tobytes()
        ).hexdigest()
        return out

    def serial_pass(self, tracer) -> dict[str, float]:
        """Traced only: the sample again, in-process and uncached.

        Gives the host time per design point without a pool, the base of
        ``runner.parallel_eff``, and lets the simulator's spans be recorded
        (inside pool workers they would stay in the workers).
        """
        from repro.api import RunOptions, run_experiment

        with tracer.op("sweep.serial"):
            result = run_experiment(
                self._request(sample=True), RunOptions(parallel=False, use_cache=False)
            )
        seconds = result.stage_seconds["simulate"]
        return {"seconds": seconds, "points": len(result.payload["records"])}


def _runner_seconds(registry) -> tuple[float, float]:
    snapshot = registry.snapshot()

    def total(name: str) -> float:
        return sum(entry["sum"] for entry in snapshot.get(name, ()))

    return (
        total("runner.task.queue_wait_seconds"),
        total("runner.task.exec_seconds"),
    )


def _grid_columns(records) -> np.ndarray:
    return np.array(
        [(r.latency_us, r.energy_uj, r.area_mm2, r.baseline_latency_us, r.baseline_energy_uj) for r in records],
        dtype=np.float64,
    )


def check_warm(cold: list[dict], warm: list[dict]) -> int:
    """Failed points: every cached record must equal the one simulated cold."""
    by_key = {record["key"]: record for record in cold}
    failed = sum(1 for record in warm if by_key.get(record["key"]) != record)
    return failed + max(0, len(cold) - len(warm))


def _point(record: dict) -> tuple:
    return (
        record["model"],
        record["dataset"],
        record["pruning_rate"],
        tuple(sorted(record["overrides"].items())),
    )


def check_analytic(vectorized: list[dict], analytic: list[dict]) -> int:
    """Failed points: analytic records must match the simulated ones within
    ``analytic-validate``'s per-metric relative bounds."""
    from repro.analytic.validate import DEFAULT_ERROR_BOUNDS

    by_point = {_point(record): record for record in analytic}
    failed = 0
    for record in vectorized:
        other = by_point.get(_point(record))
        if other is None:
            failed += 1
            continue
        for metric, bound in DEFAULT_ERROR_BOUNDS.items():
            reference = record[metric]
            error = abs(other[metric] - reference) / max(abs(reference), 1e-300)
            if not error <= bound:
                failed += 1
                break
    return failed
