"""``figures``: regenerate Fig. 8, then Fig. 9, from an empty density cache.

One operation is a Fig. 8 run over the paper's nine workloads, which trains
one reduced model per family and writes the density cache, followed by a
Fig. 9 run that reads that cache.  The cost sits in ``repro.nn`` and
``repro.pruning`` (training), not in the simulator.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path

from perfbench.common import PhaseResult, digest, fresh_dir

#: The paper's headline averages (Fig. 8 speedup, Fig. 9 energy efficiency).
PAPER_SPEEDUP = 2.7
PAPER_ENERGY_EFFICIENCY = 2.2

#: Per-workload numbers that must not change between regenerations.
SIMULATED_FIELDS = (
    "speedup",
    "energy_efficiency",
    "latency_us",
    "baseline_latency_us",
    "energy_uj",
    "baseline_energy_uj",
)


class Figures:
    """Inputs of the path: the workload grid and the seeded training scale."""


    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        from repro.eval.common import ExperimentScale
        from repro.eval.fig8 import PAPER_FIG8_WORKLOADS

        self.work = work
        if tiny:
            self.workloads = (("AlexNet", "CIFAR-10"),)
            self.scale = replace(ExperimentScale.smoke(), seed=seed)
        else:
            self.workloads = PAPER_FIG8_WORKLOADS
            self.scale = replace(ExperimentScale.quick(), seed=seed)
        self.reference: dict[str, list[float]] | None = None

    def warm_up(self) -> None:
        """Fill the in-process im2col index cache with one smoke-scale run.

        The smoke scale trains the same layer shapes as the quick scale, on
        fewer samples, so the timed runs pay no first-call cache misses.
        """
        from repro.api import ExperimentRequest, RunOptions, run_experiment
        from repro.eval.common import ExperimentScale

        smoke = replace(ExperimentScale.smoke(), seed=self.scale.seed)
        for workload in (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10")):
            run_experiment(
                ExperimentRequest("fig8", workloads=(workload,), scale=smoke),
                RunOptions(cache_dir=fresh_dir(self.work, "warm-")),
            )

    def run_once(self, tracer, index: int) -> PhaseResult:
        from repro.api import ExperimentRequest, RunOptions, run_experiment
        from repro.obs import metrics

        out = PhaseResult()
        options = RunOptions(cache_dir=fresh_dir(self.work, "densities-"))
        requests = [
            ExperimentRequest(name, workloads=self.workloads, pruning_rate=0.9, scale=self.scale)
            for name in ("fig8", "fig9")
        ]
        with tracer.op(f"figures#{index}"):
            start = time.perf_counter()
            with tracer.span("experiment.fig8"):
                fig8 = run_experiment(requests[0], options)
            lookups_before = _train_lookups(metrics())
            with tracer.span("experiment.fig9"):
                fig9 = run_experiment(requests[1], options)
            end = time.perf_counter()
        seconds = end - start
        lookups_after = _train_lookups(metrics())
        hits = lookups_after["hit"] - lookups_before["hit"]
        total = hits + lookups_after["miss"] - lookups_before["miss"]
        out.attempted = 2
        out.op_seconds = seconds
        out.add("figures_s", seconds, (start, end))
        out.layer["eval.density_cache_hit_frac"] = hits / total if total else 0.0

        table8 = simulated_table(fig8.payload)
        table9 = simulated_table(fig9.payload)
        out.failed += check_figures(table8, table9, self.reference)
        first = self.reference is None
        if first:
            self.reference = table8
        out.digest = digest(table8)
        speedup = fig8.payload["mean_speedup"]
        efficiency = fig9.payload["mean_efficiency"]
        out.layer["model.speedup_vs_paper"] = speedup / PAPER_SPEEDUP - 1.0
        out.layer["model.energy_eff_vs_paper"] = efficiency / PAPER_ENERGY_EFFICIENCY - 1.0
        if first:
            out.notes.append(
                f"figures: mean speedup {speedup:.3f}x (paper {PAPER_SPEEDUP}x, "
                f"{out.layer['model.speedup_vs_paper']:+.1%}), mean energy efficiency "
                f"{efficiency:.3f}x (paper {PAPER_ENERGY_EFFICIENCY}x, "
                f"{out.layer['model.energy_eff_vs_paper']:+.1%})"
            )
        return out


def _train_lookups(registry) -> dict[str, int]:
    counts = {"hit": 0, "miss": 0}
    for entry in registry.snapshot().get("pipeline.cache.lookups", ()):
        if entry["labels"].get("stage") == "train":
            counts[entry["labels"]["outcome"]] += entry["value"]
    return counts


def simulated_table(payload: dict) -> dict[str, list[float]]:
    """Workload -> the simulated numbers Fig. 8 and Fig. 9 both report."""
    return {
        name: [float(row[field]) for field in SIMULATED_FIELDS]
        for name, row in payload["workloads"].items()
    }


def check_figures(
    fig8: dict[str, list[float]],
    fig9: dict[str, list[float]],
    reference: dict[str, list[float]] | None,
) -> int:
    """Failed experiments: Fig. 9 must repeat Fig. 8's numbers exactly, and
    both must equal the first regeneration of this run."""
    failed = 0
    if fig9 != fig8:
        failed += 1
    if reference is not None and fig8 != reference:
        failed += 1
    return failed
