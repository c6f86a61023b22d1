"""``python -m repro bench`` — the staged performance benchmark.

Times the stages of the evaluation pipeline — reduced-model *training*
(density measurement), program *compilation*, workload *simulation* and the
row-operation *validation* path — and writes the measurements to
``BENCH_repro.json``, seeding the repository's performance trajectory.

The row-op validation stage doubles as the equivalence benchmark for the
vectorized execution engine: it decomposes one convolution layer into its
full SRC/MSRC/OSRC operation set, executes it on both PE backends, asserts
bit-identical values and event counts, and reports the scalar/vector speedup
(the acceptance bar is >= 10x).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import (
    ExperimentReport,
    ExperimentRequest,
    Pipeline,
    PipelineContext,
    RunOptions,
    Stage,
    get_experiment,
    register_experiment,
)
from repro.arch.pe import execute_ops, execute_ops_arrays, stats_from_arrays
from repro.dataflow.compiler import compile_training_iteration
from repro.dataflow.decompose import (
    accumulate_forward,
    accumulate_gta,
    accumulate_gtw,
    decompose_forward,
    decompose_gta,
    decompose_gtw,
)
from repro.dataflow.reference import forward_by_rows, gta_by_rows, gtw_by_rows
from repro.eval.common import ExperimentScale
from repro.eval.fig8 import densities_for_workload, train_stage
from repro.explore.cache import ResultCache
from repro.models.spec import ConvLayerSpec, ConvStructure
from repro.models.zoo import get_model_spec
from repro.sim.runner import compare_workload

DEFAULT_BENCH_PATH = "BENCH_repro.json"

# The workload every bench run times (small enough to train in seconds,
# representative of the Conv-ReLU family the paper leads with).
BENCH_WORKLOAD: tuple[tuple[str, str], ...] = (("AlexNet", "CIFAR-10"),)

# Scales: ``--smoke`` finishes in well under a minute on CI; the default run
# matches the quick experiment scale used by the benchmark suite.
SMOKE_SCALE = ExperimentScale.smoke()
FULL_SCALE = ExperimentScale.quick()


def _rowop_layer(smoke: bool) -> ConvLayerSpec:
    """The convolution layer the row-op validation stage decomposes.

    The full-scale layer exercises the large-kernel geometry class of the
    paper's workloads (AlexNet's 5x5/11x11 convolutions, ResNet's 7x7 stem)
    at reduced channel counts and unit stride — the densest row-pairing
    pattern — so the scalar reference pass stays affordable while every
    operand still pairs with K kernel taps.
    """
    if smoke:
        return ConvLayerSpec(
            name="bench_conv_smoke",
            in_channels=4,
            out_channels=8,
            kernel=3,
            stride=1,
            padding=1,
            in_height=12,
            in_width=12,
            structure=ConvStructure.CONV_RELU,
        )
    return ConvLayerSpec(
        name="bench_conv",
        in_channels=6,
        out_channels=12,
        kernel=7,
        stride=1,
        padding=3,
        in_height=24,
        in_width=24,
        structure=ConvStructure.CONV_RELU,
    )


@dataclass
class BenchResult:
    """All stage timings of one ``repro bench`` run."""

    smoke: bool
    stages: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def rowop_speedup(self) -> float:
        return float(self.stages["rowop_validate"]["speedup"])

    def stage_quantiles(self) -> dict[str, dict[str, Any]]:
        """Per-stage p50/p95 from the process-global metrics registry.

        The telemetry snapshot recorded alongside the raw timings: within one
        ``repro bench`` process the ``pipeline.stage.seconds`` histograms
        cover exactly this run's stages.
        """
        from repro.obs import metrics

        quantiles: dict[str, dict[str, Any]] = {}
        for entry in metrics().snapshot().get("pipeline.stage.seconds", ()):
            stage = entry["labels"].get("stage", "?")
            quantiles[stage] = {
                "count": entry["count"],
                "p50": entry["p50"],
                "p95": entry["p95"],
            }
        return quantiles

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema": 1,
            "bench": "repro",
            "smoke": self.smoke,
            "workload": "/".join(BENCH_WORKLOAD[0]),
            "created_unix": time.time(),
            "stages": self.stages,
            "metrics": {"stage_seconds": self.stage_quantiles()},
            "rowop_speedup": self.rowop_speedup,
        }

    def format(self) -> str:
        lines = [f"{'stage':<16} {'seconds':>10}  notes"]
        for name, stage in self.stages.items():
            notes = ", ".join(
                f"{key}={value:.3g}" if isinstance(value, float) else f"{key}={value}"
                for key, value in stage.items()
                if key != "seconds"
            )
            lines.append(f"{name:<16} {stage['seconds']:>10.3f}  {notes}")
        lines.append(f"row-op scalar/vector speedup: {self.rowop_speedup:.1f}x")
        return "\n".join(lines)


def _bench_rowops(smoke: bool, seed: int = 7) -> dict[str, Any]:
    """Time and cross-validate both PE backends on one decomposed layer."""
    layer = _rowop_layer(smoke)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(layer.in_channels, layer.in_height, layer.in_width))
    x *= rng.random(x.shape) < 0.5
    weight = rng.normal(
        size=(layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
    )
    grad_out = rng.normal(size=(layer.out_channels, layer.out_height, layer.out_width))
    grad_out *= rng.random(grad_out.shape) < 0.3
    mask = rng.random((layer.in_channels, layer.in_height, layer.in_width)) < 0.5

    ops = (
        decompose_forward(layer, x, weight)
        + decompose_gta(layer, grad_out, weight, mask)
        + decompose_gtw(layer, grad_out, x)
    )

    # Untimed warm-up so the timed vector passes do not pay one-off numpy
    # setup, page-fault and allocator costs.
    execute_ops_arrays(ops, backend="vector")

    # Validate both PE modes: the sparse (zero-skipping) dataflow and the
    # dense-baseline PE that the paper's comparison also simulates.  The
    # vector pass is cheap enough to repeat, so its time is the best of two
    # runs (standard noise suppression); the scalar pass runs once.
    scalar_seconds = 0.0
    vector_seconds = 0.0
    vector_results = None
    for zero_skipping in (True, False):
        start = time.perf_counter()
        scalar_results, scalar_stats = execute_ops(
            ops, zero_skipping=zero_skipping, backend="scalar"
        )
        scalar_seconds += time.perf_counter() - start

        mode_seconds = []
        for _ in range(2):
            start = time.perf_counter()
            mode_results, vector_arrays = execute_ops_arrays(
                ops, zero_skipping=zero_skipping, backend="vector"
            )
            mode_seconds.append(time.perf_counter() - start)
        vector_seconds += min(mode_seconds)

        # Hard equivalence gate: values and every per-op event count must be
        # bit-identical between the backends.
        for index, (scalar_row, vector_row) in enumerate(
            zip(scalar_results, mode_results)
        ):
            if not np.array_equal(scalar_row, vector_row):
                raise AssertionError(
                    f"row-op {index} (zero_skipping={zero_skipping}): "
                    "scalar/vector values differ"
                )
        if scalar_stats != stats_from_arrays(vector_arrays):
            raise AssertionError(
                f"row-op stats differ between backends (zero_skipping={zero_skipping})"
            )
        if zero_skipping:
            vector_results = mode_results

    # And the decomposition itself stays exact against the row-wise reference.
    n_fwd = layer.out_channels * layer.out_height * layer.in_channels * layer.kernel
    n_gta = layer.in_channels * layer.out_channels * layer.out_height * layer.kernel
    fwd_ops, gta_ops, gtw_ops = (
        ops[:n_fwd],
        ops[n_fwd : n_fwd + n_gta],
        ops[n_fwd + n_gta :],
    )
    fwd = accumulate_forward(layer, fwd_ops, vector_results[:n_fwd])
    gta = accumulate_gta(layer, gta_ops, vector_results[n_fwd : n_fwd + n_gta])
    gtw = accumulate_gtw(layer, gtw_ops, vector_results[n_fwd + n_gta :])
    np.testing.assert_allclose(
        fwd, forward_by_rows(x, weight, None, layer.stride, layer.padding), atol=1e-12
    )
    np.testing.assert_allclose(
        gta,
        gta_by_rows(
            grad_out, weight, x.shape, layer.stride, layer.padding, mask=mask
        ),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        gtw, gtw_by_rows(grad_out, x, layer.kernel, layer.stride, layer.padding),
        atol=1e-12,
    )

    return {
        "seconds": vector_seconds,
        "scalar_seconds": scalar_seconds,
        "vector_seconds": vector_seconds,
        "speedup": scalar_seconds / max(vector_seconds, 1e-12),
        "ops": len(ops),
        "exact": True,
    }


# ---------------------------------------------------------------------------
# The bench pipeline: train -> compile -> simulate -> report
# ---------------------------------------------------------------------------
# The ``train`` stage is the fig8 pipeline's density-measurement stage run
# over BENCH_WORKLOAD, so bench shares both the measurement code path and the
# on-disk density cache (same content keys) with the figure harnesses.

def _is_smoke(request: ExperimentRequest) -> bool:
    return request.scale == SMOKE_SCALE


def _train_stage(ctx: PipelineContext):
    """``train`` — the fig8 density-measurement stage over the bench workload.

    A ``run bench`` request without explicit workloads means "the standard
    bench workload", not the fig8 quick grid the shared stage would default
    to, so the request is pinned to BENCH_WORKLOAD before delegating.
    """
    if not ctx.request.workloads:
        ctx.request = ExperimentRequest(
            experiment=ctx.request.experiment,
            workloads=BENCH_WORKLOAD,
            pruning_rate=ctx.request.pruning_rate,
            scale=ctx.request.scale,
            params=ctx.request.params,
        )
    return train_stage(ctx)


def _compile_stage(ctx: PipelineContext) -> dict[str, Any]:
    """``compile`` — lower the full-size spec to instruction programs."""
    model_name, dataset_name = ctx.request.workloads[0]
    spec = get_model_spec(model_name, dataset_name)
    densities = densities_for_workload(model_name, dataset_name, ctx["train"])
    sparse_program = compile_training_iteration(spec, densities=densities, sparse=True)
    dense_program = compile_training_iteration(spec, densities=None, sparse=False)
    return {
        "spec": spec,
        "densities": densities,
        "instructions": len(sparse_program.instructions)
        + len(dense_program.instructions),
    }


def _simulate_stage(ctx: PipelineContext):
    """``simulate`` — SparseTrain vs the dense baseline on the workload."""
    compiled = ctx["compile"]
    return compare_workload(compiled["spec"], compiled["densities"])


def _report_stage(ctx: PipelineContext) -> ExperimentReport:
    request = ctx.request
    smoke = _is_smoke(request)
    comparison = ctx["simulate"]
    result = BenchResult(smoke=smoke)
    result.stages["train"] = {
        "seconds": ctx.timings["train"],
        "cache_hit": ctx.stage_cache_hit("train"),
        "epochs": request.scale.epochs,
        "samples": request.scale.num_samples,
    }
    result.stages["compile"] = {
        "seconds": ctx.timings["compile"],
        "instructions": ctx["compile"]["instructions"],
    }
    result.stages["simulate"] = {
        "seconds": ctx.timings["simulate"],
        "speedup": float(comparison.speedup),
        "energy_efficiency": float(comparison.energy_efficiency),
    }
    # Row-op validation: both PE backends over one decomposed layer.
    result.stages["rowop_validate"] = _bench_rowops(smoke)
    return ExperimentReport(
        payload=result.to_payload(), summary=result.format(), native=result
    )


@register_experiment(
    "bench",
    description="Staged performance benchmark (train/compile/simulate/row-op validate)",
    category="validation",
)
def build_bench_pipeline(request: ExperimentRequest) -> Pipeline:
    return Pipeline(
        "bench",
        [
            Stage("train", _train_stage, "measure densities (timed, cached)"),
            Stage("compile", _compile_stage, "lower to instruction programs"),
            Stage("simulate", _simulate_stage, "SparseTrain vs dense baseline"),
            Stage("report", _report_stage, "stage timings + row-op validation"),
        ],
    )


def run_bench(
    smoke: bool = False,
    out: str | Path | None = DEFAULT_BENCH_PATH,
    density_cache: ResultCache | None = None,
    pruning_rate: float = 0.9,
) -> BenchResult:
    """Run every bench stage; write ``out`` (unless ``None``) and return results.

    A thin wrapper over the registered ``bench`` experiment pipeline; the
    stage timings in the result are the pipeline's own stage clock.
    """
    request = ExperimentRequest(
        experiment="bench",
        workloads=BENCH_WORKLOAD,
        pruning_rate=pruning_rate,
        scale=SMOKE_SCALE if smoke else FULL_SCALE,
    )
    result = get_experiment("bench").run(
        request,
        options=RunOptions(),
        extras={"density_cache": density_cache},
    )
    bench_result: BenchResult = result.native
    if out is not None:
        _write_atomic(Path(out), bench_result.to_payload())
    return bench_result


#: Stages whose baseline p95 is below this are skipped by the regression
#: check: sub-50ms quantiles are dominated by scheduler and allocator noise,
#: and a 20% band around them gates on nothing real.
MIN_STAGE_SECONDS = 0.05


def check_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.2,
    min_stage_seconds: float = MIN_STAGE_SECONDS,
) -> tuple[list[str], list[str]]:
    """Compare a bench payload against a committed baseline.

    Returns ``(violations, checked)``: human-readable violation strings
    (empty = pass) and notes describing every comparison actually made.
    Two gates, both relative with the same ``tolerance`` band:

    * ``rowop_speedup`` must not drop more than ``tolerance`` below the
      baseline — the vectorized-engine advantage is the repository's
      headline performance claim;
    * each stage's ``p95`` (from ``metrics.stage_seconds``) must not exceed
      the baseline by more than ``tolerance``, skipping stages whose
      baseline p95 sits under ``min_stage_seconds`` (pure noise), that
      either run lacks, or whose ``stages[<name>].cache_hit`` differs
      between the runs (a cache hit is not comparable with a cold run).

    Raises ``ValueError`` when the two payloads ran at different scales
    (``smoke`` flags differ) — comparing a smoke run against a full-scale
    baseline measures the scale difference, not a regression.
    """
    if bool(current.get("smoke")) != bool(baseline.get("smoke")):
        raise ValueError(
            "bench scale mismatch: current smoke="
            f"{bool(current.get('smoke'))} vs baseline smoke="
            f"{bool(baseline.get('smoke'))}; rerun at the baseline's scale"
        )
    violations: list[str] = []
    checked: list[str] = []

    base_speedup = float(baseline.get("rowop_speedup", 0.0))
    cur_speedup = float(current.get("rowop_speedup", 0.0))
    floor = base_speedup * (1.0 - tolerance)
    checked.append(
        f"rowop_speedup {cur_speedup:.2f}x vs baseline {base_speedup:.2f}x "
        f"(floor {floor:.2f}x)"
    )
    if cur_speedup < floor:
        violations.append(
            f"rowop_speedup regressed: {cur_speedup:.2f}x < "
            f"{floor:.2f}x ({base_speedup:.2f}x baseline - {tolerance:.0%})"
        )

    base_stages = (baseline.get("metrics") or {}).get("stage_seconds") or {}
    cur_stages = (current.get("metrics") or {}).get("stage_seconds") or {}
    for stage, base_info in base_stages.items():
        base_p95 = base_info.get("p95")
        cur_p95 = (cur_stages.get(stage) or {}).get("p95")
        if base_p95 is None or cur_p95 is None:
            checked.append(f"stage {stage}: skipped (p95 missing)")
            continue
        base_hit = ((baseline.get("stages") or {}).get(stage) or {}).get("cache_hit")
        cur_hit = ((current.get("stages") or {}).get(stage) or {}).get("cache_hit")
        if base_hit != cur_hit:
            checked.append(
                f"stage {stage}: skipped (cache_hit={cur_hit} vs baseline "
                f"cache_hit={base_hit}; not comparable)"
            )
            continue
        if base_p95 < min_stage_seconds:
            checked.append(
                f"stage {stage}: skipped (baseline p95 {base_p95:.3f}s "
                f"under the {min_stage_seconds:.2f}s noise floor)"
            )
            continue
        ceiling = base_p95 * (1.0 + tolerance)
        checked.append(
            f"stage {stage} p95 {cur_p95:.3f}s vs baseline {base_p95:.3f}s "
            f"(ceiling {ceiling:.3f}s)"
        )
        if cur_p95 > ceiling:
            violations.append(
                f"stage {stage} p95 regressed: {cur_p95:.3f}s > "
                f"{ceiling:.3f}s ({base_p95:.3f}s baseline + {tolerance:.0%})"
            )
    return violations, checked


def _write_atomic(out: Path, payload: dict[str, Any]) -> None:
    """Write the benchmark JSON via temp file + ``os.replace``.

    A reader (CI trend gates, a concurrent ``repro stats`` consumer) never
    sees a torn half-written file: the rename is atomic on POSIX, and the
    temp file lives in the target directory so the replace never crosses a
    filesystem boundary.  ``/dev/null``-style non-regular targets are written
    directly — there is nothing to tear.
    """
    text = json.dumps(payload, indent=2) + "\n"
    if out.exists() and not out.is_file():
        out.write_text(text, encoding="utf-8")
        return
    fd, tmp_name = tempfile.mkstemp(
        dir=str(out.parent) if str(out.parent) else ".",
        prefix=out.name + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, out)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
