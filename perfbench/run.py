"""Run one workload of the reproduction's benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Every run is one process that sets up, exercises the paths a user of the
reproduction takes, checks their outputs, and prints its metrics, one
``name value unit`` line each, then a JSON summary as the last line.

``--trace 0`` runs Fig. 8/9 regeneration, a design sweep and the row-op
dataflow once each, then the workload's path again while its next pass
fits in ``--seconds``, and prints the end-to-end metrics.  ``--trace 1``
runs those paths and the job service once untraced and once traced, and
prints the per-layer metrics, including the tracing overhead; the spans go
to ``.perfbench/traces/``.

Everything a run writes lives under ``.perfbench/`` in the checkout.  See
``perfbench/NOTES.md`` for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"error: no repro sources under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402
from perfbench.figures import Figures  # noqa: E402
from perfbench.rowops import RowOps  # noqa: E402
from perfbench.serve import PHASES as SERVE_PHASES, Serve  # noqa: E402
from perfbench.sweep import Sweep  # noqa: E402
from perfbench.tracer import NULL, Tracer, instrument  # noqa: E402

#: The paths whose end-to-end metrics every untraced run reports; a
#: workload names the one that gets the extra passes.
TIMED_PATHS = {"figures": Figures, "sweep": Sweep, "rowops": RowOps}
#: The job service yields per-layer metrics only, so only traced runs pay
#: for its two streams (see NOTES.md).
TRACED_PATHS = {**TIMED_PATHS, "serve": Serve}
IMPORT_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "figures_s": "s",
    "sweep_points_per_s": "1/s",
    "sweep_cached_points_per_s": "1/s",
    "analytic_points_per_s": "1/s",
    "rowops_per_s": "1/s",
}


def import_probe(trace: bool, work: Path) -> tuple[float, dict[str, float]]:
    """Wall time of a cold interpreter importing ``repro.cli``.

    With ``trace`` the import runs under ``-X importtime`` and the result
    also splits out ``repro.cli`` and the first-level ``scipy`` imports.
    """
    args = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", "import repro.cli"]
    start = time.perf_counter()
    done = subprocess.run(
        args, cwd=work, env=common.subprocess_env(), capture_output=True, text=True, check=True
    )
    wall = time.perf_counter() - start
    return wall, (parse_importtime(done.stderr) if trace else {})


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of ``repro.cli`` and of every ``scipy`` import
    whose importer is not itself a ``scipy`` module."""
    rows = []  # (depth, name, cumulative seconds), children before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    out = {"import.repro_s": 0.0, "import.scipy_s": 0.0}
    for index, (depth, name, seconds) in enumerate(rows):
        if name == "repro.cli":
            out["import.repro_s"] = seconds
        elif name.split(".")[0] == "scipy":
            parent = next((r for r in rows[index + 1:] if r[0] < depth), None)
            if parent is None or parent[1].split(".")[0] != "scipy":
                out["import.scipy_s"] += seconds
    return out


def run_path(name: str, path, tracer, index: int, results: dict) -> float:
    start = time.perf_counter()
    outcome = path.run_once(tracer, index)
    first = results.get(name)
    if first is None:
        results[name] = outcome
    else:
        if outcome.digest != first.digest:
            outcome.failed += 1
            outcome.notes.append(f"{name}: pass {index} digest differs from pass 0")
        first.merge(outcome)
    return time.perf_counter() - start


def run_round(paths: dict, tracer, focus: str | None, seconds: float) -> dict:
    """Every path once; then the focus path again while its next pass still
    fits in ``seconds`` (measured from the start of the round)."""
    results: dict = {}
    start = time.perf_counter()
    last = {name: run_path(name, path, tracer, 0, results) for name, path in paths.items()}
    index = 1
    while focus is not None:
        elapsed = time.perf_counter() - start
        if elapsed + last[focus] > seconds:
            break
        last[focus] = run_path(focus, paths[focus], tracer, index, results)
        index += 1
    return results


def end_to_end(results: dict, sampler, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics, every timing at reference host speed."""
    samples: dict[str, list[float]] = {}
    for outcome in results.values():
        for metric, values in outcome.rescaled(sampler).items():
            samples.setdefault(metric, []).extend(values)
    values = {"setup_s": setup_s, "peak_rss_mb": common.peak_rss_mb()}
    for metric in ("figures_s", "sweep_points_per_s", "sweep_cached_points_per_s",
                   "analytic_points_per_s", "rowops_per_s"):
        values[metric] = common.median(samples[metric])
    return values


def per_layer(tracer: Tracer, traced: dict, untraced: dict, serial: dict,
              imports: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer table of one traced round (see NOTES.md for the map)."""
    layer: dict[str, float] = {}
    for outcome in traced.values():
        layer.update(outcome.layer)
    own = tracer.self_seconds
    total = tracer.total_seconds
    fig, swp, rows = own("figures"), own("sweep#"), own("rowops")
    counts = tracer.counts
    kept_in = counts["figures", "pruning.nonzero_in"]
    hits = counts["sweep", "explore.cache_hits"]
    lookups = hits + counts["sweep", "explore.cache_misses"]
    analytic_s = total("sweep#")["analytic.eval"]
    traced_s = sum(o.op_seconds for o in traced.values())
    untraced_s = sum(o.op_seconds for o in untraced.values())
    out = {
        "trace_overhead_frac": (traced_s / untraced_s - 1.0, "frac"),
        "import.repro_s": (imports["import.repro_s"], "s"),
        "import.scipy_s": (imports["import.scipy_s"], "s"),
        "eval.measure_densities_s": (fig["eval.measure_densities"], "s"),
        "eval.measure_densities_total_s": (total("figures")["eval.measure_densities"], "s"),
        "eval.density_cache_hit_frac": (layer["eval.density_cache_hit_frac"], "frac"),
        "nn.conv2d_forward_s": (fig["nn.conv2d_forward"], "s"),
        "nn.conv2d_backward_s": (fig["nn.conv2d_backward"], "s"),
        "nn.col2im_s": (fig["nn.col2im"], "s"),
        "nn.im2col_s": (fig["nn.im2col"], "s"),
        "nn.maxpool_s": (fig["nn.maxpool"], "s"),
        "nn.calls": (tracer.span_count("nn.", "figures"), "count"),
        "pruning.prune_s": (fig["pruning.prune"], "s"),
        "pruning.kept_frac": (counts["figures", "pruning.nonzero_out"] / kept_in if kept_in else 1.0, "frac"),
        "dataflow.compile_s": (total("figures")["dataflow.compile"], "s"),
        "dataflow.instructions": (counts["figures", "dataflow.instructions"], "count"),
        "model.speedup_vs_paper": (layer["model.speedup_vs_paper"], "frac"),
        "model.energy_eff_vs_paper": (layer["model.energy_eff_vs_paper"], "frac"),
        "sim.compare_s": (own("sweep.serial")["sim.compare"], "s"),
        "sim.point_us": (1e6 * serial["seconds"] / serial["points"], "us"),
        "runner.queue_wait_s": (layer["runner.queue_wait_s"], "s"),
        "runner.exec_s": (layer["runner.exec_s"], "s"),
        "runner.parallel_eff": (
            serial["seconds"] / (layer["runner.pool_wall_s"] * layer["runner.workers"]), "frac"
        ),
        "explore.cache_hit_frac": (hits / lookups if lookups else 0.0, "frac"),
        "explore.cache_get_s": (swp["explore.cache_get"], "s"),
        "explore.cache_put_s": (swp["explore.cache_put"], "s"),
        "analytic.eval_s": (analytic_s, "s"),
        "analytic.point_us": (1e6 * analytic_s / layer["analytic.points"], "us"),
        "dataflow.decompose_s": (rows["dataflow.decompose"], "s"),
        "dataflow.accumulate_s": (rows["dataflow.accumulate"], "s"),
        "arch.pe.src_s": (rows["arch.pe.src"], "s"),
        "arch.pe.msrc_s": (rows["arch.pe.msrc"], "s"),
        "arch.pe.osrc_s": (rows["arch.pe.osrc"], "s"),
        "arch.pe.macs": (layer["arch.pe.macs"], "count"),
        "arch.pe.processed_operands": (layer["arch.pe.processed_operands"], "count"),
        "arch.pe.skip_frac": (layer["arch.pe.skip_frac"], "frac"),
        "store.busy_retries": (layer["serve.busy_retries"] + layer["fleet.busy_retries"], "count"),
        "jobs.lease_lost": (layer["serve.lease_lost"] + layer["fleet.lease_lost"], "count"),
        "serve.dedup_frac": (layer["serve.dedup_frac"], "frac"),
        "serve.executions_per_job": (layer["serve.executions_per_job"], "count"),
    }
    for phase, _ in SERVE_PHASES:
        for metric in ("http_submit_ms", "http_poll_ms", "queue_wait_ms", "exec_ms"):
            out[f"{phase}.{metric}"] = (layer[f"{phase}.{metric}"], "ms")
        out[f"{phase}.ready_s"] = (layer[f"{phase}.ready_s"], "s")
        # Too unsteady between runs for an end-to-end bound (see NOTES.md).
        out[f"{phase}.jobs_per_s"] = (layer[f"{phase}.jobs_per_s"], "1/s")
        out[f"{phase}.p50_ms"] = (layer[f"{phase}.p50_ms"], "ms")
        out[f"{phase}.p95_ms"] = (layer[f"{phase}.p95_ms"], "ms")
    return out


def benchmark(args: argparse.Namespace, work: Path) -> tuple[dict, list[str]]:
    if args.trace:
        return traced_benchmark(args, work)
    tiny = args.size == "tiny"
    with common.SpeedSampler() as sampler:
        setup_start = time.perf_counter()
        probes = [import_probe(False, work)[0] for _ in range(IMPORT_PROBES)]
        paths, notes = prepare(TIMED_PATHS, args, work, tiny)
        setup_end = time.perf_counter()
        results = run_round(paths, NULL, args.workload, args.seconds)
    # One cold import (the median probe) plus input generation and warm-up.
    base_setup = common.median(probes) + setup_end - setup_start - sum(probes)
    metrics = {
        name: (value, END_TO_END_UNITS[name])
        for name, value in end_to_end(
            results, sampler, base_setup * sampler.speed(setup_start, setup_end)
        ).items()
    }
    unscaled = end_to_end(results, _UNIT_SPEED, base_setup)
    notes.append("unscaled: " + " ".join(f"{name}={value:.6g}" for name, value in unscaled.items()))
    speeds = [speed for _, _, speed in sampler.samples]
    notes.append(
        f"host speed: {len(speeds)} samples, mean {statistics.fmean(speeds):.3f}, "
        f"min {min(speeds):.3f}, max {max(speeds):.3f} of the reference"
    )
    return summarize(results, metrics, notes)


class _UnitSpeed:
    """A sampler that reports the reference speed: metrics as measured."""

    @staticmethod
    def speed(start: float, end: float, cpu: int | None = None) -> float:
        return 1.0


_UNIT_SPEED = _UnitSpeed()


def prepare(classes: dict, args: argparse.Namespace, work: Path, tiny: bool) -> tuple[dict, list[str]]:
    """Generate every path's inputs from the seed and run its warm-up."""
    start = time.perf_counter()
    paths = {name: cls(args.seed, work, tiny) for name, cls in classes.items()}
    for path in paths.values():
        path.warm_up()
    notes = [
        f"set-up: inputs and warm-up passes (im2col and config caches filled) "
        f"in {time.perf_counter() - start:.2f}s"
    ]
    return paths, notes


def traced_benchmark(args: argparse.Namespace, work: Path) -> tuple[dict, list[str]]:
    """Every path once untraced, then once traced: the per-layer table."""
    probes = [import_probe(True, work)[1] for _ in range(IMPORT_PROBES)]
    paths, notes = prepare(TRACED_PATHS, args, work, args.size == "tiny")
    untraced = run_round(paths, NULL, None, 0.0)
    tracer = Tracer()
    with instrument(tracer):
        results = run_round(paths, tracer, None, 0.0)
        serial = paths["sweep"].serial_pass(tracer)
    for name, outcome in results.items():
        if outcome.digest != untraced[name].digest:
            outcome.failed += 1
            outcome.notes.append(f"{name}: traced and untraced digests differ")
    imports = {
        key: common.median(probe[key] for probe in probes)
        for key in ("import.repro_s", "import.scipy_s")
    }
    metrics = per_layer(tracer, results, untraced, serial, imports)
    trace_file = common.WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.json"
    tracer.write(trace_file)
    notes.append(f"trace: {len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
    for name in results:
        untraced[name].merge(results[name])
    return summarize(untraced, metrics, notes)


def summarize(results: dict, metrics: dict, notes: list[str]) -> tuple[dict, list[str]]:
    attempted = sum(o.attempted for o in results.values())
    failed = sum(o.failed for o in results.values())
    for outcome in results.values():
        notes.extend(outcome.notes)
    notes.extend(
        f"{name}: {o.passes} pass(es); attempted {o.attempted}, failed {o.failed}, "
        f"digest {o.digest[:16]}"
        for name, o in results.items()
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, notes


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TIMED_PATHS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input (the benchmark's own tests use it)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every service group is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = common.fresh_dir(common.WORK_ROOT, f"{args.workload}-seed{args.seed}-")
    try:
        summary, notes = benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in notes:
        print(note)
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"attempted {summary['attempted']}, failed {summary['failed']}")
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
