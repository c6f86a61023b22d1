"""``rowops``: decompose, execute and accumulate the 1-D row-op dataflow.

The inputs are seeded tensors for four reduced-width conv layers, one per
geometry class of the paper's networks: large-kernel unit-stride, strided,
1x1 and depthwise.  Densities follow Table I's classes: a dense first-layer
input, ~50% ReLU activations elsewhere, and pruned gradients at or below 30%.
Each step (Forward/GTA/GTW) is decomposed into SRC/MSRC/OSRC ops, executed
on the vectorized PE engine in zero-skipping and dense mode, and accumulated
back into tensors.  No other workload runs this path.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.common import SAMPLER_CPU, PhaseResult, on_sampler_cpu
from perfbench.tracer import NULL

#: Op kind executed by each step, named after the PE instruction.
STEP_KIND = {"forward": "src", "gta": "msrc", "gtw": "osrc"}
#: Accumulated tensors must equal the row-wise reference within this.
TENSOR_TOLERANCE = 1e-12
#: One op in this many is re-executed on the scalar backend.
SCALAR_SAMPLE_EVERY = 64


@dataclass
class LayerCase:
    spec: object
    x: np.ndarray
    weight: np.ndarray
    grad_out: np.ndarray
    mask: np.ndarray


def _layers(tiny: bool):
    from repro.models.spec import ConvLayerSpec

    if tiny:
        return [
            (ConvLayerSpec("k5", 2, 3, 5, 1, 2, 8, 8), 1.0, 0.3),
            (ConvLayerSpec("dw", 4, 4, 3, 1, 1, 6, 6, groups=4), 0.5, 0.1),
        ]
    # (layer, input density, gradient density)
    return [
        (ConvLayerSpec("k5_first", 3, 8, 5, 1, 2, 20, 20), 1.0, 0.25),
        (ConvLayerSpec("s2_strided", 8, 12, 3, 2, 1, 18, 18), 0.5, 0.3),
        (ConvLayerSpec("pw_1x1", 16, 16, 1, 1, 0, 12, 12), 0.5, 0.2),
        (ConvLayerSpec("dw_depthwise", 16, 16, 3, 1, 1, 14, 14, groups=16), 0.5, 0.1),
    ]


def make_cases(seed: int, tiny: bool = False) -> list[LayerCase]:
    rng = np.random.default_rng(seed)
    cases = []
    for spec, x_density, grad_density in _layers(tiny):
        x_shape = (spec.in_channels, spec.in_height, spec.in_width)
        g_shape = (spec.out_channels, spec.out_height, spec.out_width)
        x = rng.normal(size=x_shape) * (rng.random(x_shape) < x_density)
        weight = rng.normal(
            size=(spec.out_channels, spec.group_in_channels, spec.kernel, spec.kernel)
        )
        grad_out = rng.normal(size=g_shape) * (rng.random(g_shape) < grad_density)
        cases.append(LayerCase(spec, x, weight, grad_out, x != 0))
    return cases


def references(case: LayerCase) -> dict[tuple[str, bool], np.ndarray]:
    """Row-wise reference tensors keyed by (step, zero_skipping).

    Only zero-skipping GTA applies the forward ReLU mask; the dense PE
    computes every input-gradient position and leaves masking to the ReLU
    backward, so its reference is the unmasked GTA.
    """
    from repro.dataflow.reference import forward_by_rows, gta_by_rows, gtw_by_rows

    spec = case.spec
    forward = forward_by_rows(
        case.x, case.weight, None, spec.stride, spec.padding, groups=spec.groups
    )
    gtw = gtw_by_rows(
        case.grad_out, case.x, spec.kernel, spec.stride, spec.padding, groups=spec.groups
    )
    out = {}
    for zero_skipping in (True, False):
        out["forward", zero_skipping] = forward
        out["gta", zero_skipping] = gta_by_rows(
            case.grad_out, case.weight, case.x.shape, spec.stride, spec.padding,
            mask=case.mask if zero_skipping else None, groups=spec.groups,
        )
        out["gtw", zero_skipping] = gtw
    return out


def scalar_sample(num_ops: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded indices of one op in every ``SCALAR_SAMPLE_EVERY``."""
    count = max(1, num_ops // SCALAR_SAMPLE_EVERY)
    return np.sort(rng.choice(num_ops, size=count, replace=False))


def check_step(
    ops: list,
    results: list[np.ndarray],
    stats: dict[str, np.ndarray],
    tensor: np.ndarray,
    reference: np.ndarray,
    sample: np.ndarray,
    zero_skipping: bool,
) -> int:
    """Failed ops of one executed step.

    A tensor that differs from the row-wise reference fails every op of the
    step; otherwise each sampled op whose values or event counts differ
    from the scalar backend's fails.
    """
    from repro.arch.pe import execute_ops_arrays

    if tensor.shape != reference.shape or not (
        np.max(np.abs(tensor - reference), initial=0.0) <= TENSOR_TOLERANCE
    ):
        return len(ops)
    scalar_results, scalar_stats = execute_ops_arrays(
        [ops[i] for i in sample], zero_skipping=zero_skipping, backend="scalar"
    )
    failed = 0
    for position, index in enumerate(sample):
        same = np.array_equal(results[index], scalar_results[position]) and all(
            stats[key][index] == scalar_stats[key][position] for key in scalar_stats
        )
        failed += not same
    return failed


class RowOps:
    """Inputs of the path: seeded layer tensors and their reference results."""

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.cases = make_cases(seed, tiny)
        self.references = [references(case) for case in self.cases]

    def warm_up(self) -> None:
        """One small batch per op kind, so numpy's first-call costs are paid."""
        from repro.arch.pe import execute_ops_arrays

        for ops in _decompose(self.cases[0], NULL.span).values():
            execute_ops_arrays(ops[:8])

    def run_once(self, tracer, index: int) -> PhaseResult:
        from repro.arch.pe import execute_ops_arrays
        from repro.dataflow.decompose import accumulate_forward, accumulate_gta, accumulate_gtw

        accumulate = {"forward": accumulate_forward, "gta": accumulate_gta, "gtw": accumulate_gtw}
        out = PhaseResult()
        executed = []
        distinct_ops = 0
        with tracer.op(f"rowops#{index}"), on_sampler_cpu():
            start = time.perf_counter()
            for case_index, case in enumerate(self.cases):
                steps = _decompose(case, tracer.span)
                for step, ops in steps.items():
                    kind = STEP_KIND[step]
                    distinct_ops += len(ops)
                    for zero_skipping in (True, False):
                        with tracer.span(f"arch.pe.{kind}"):
                            results, stats = execute_ops_arrays(ops, zero_skipping=zero_skipping)
                        with tracer.span("dataflow.accumulate"):
                            tensor = accumulate[step](case.spec, ops, results)
                        executed.append((case_index, step, ops, results, stats, tensor, zero_skipping))
            end = time.perf_counter()

        rng = np.random.default_rng(self.seed)
        hasher = hashlib.sha256()
        totals = {"macs": [0, 0], "processed_operands": [0, 0]}
        for case_index, step, ops, results, stats, tensor, zero_skipping in executed:
            out.attempted += len(ops)
            out.failed += check_step(
                ops, results, stats, tensor, self.references[case_index][step, zero_skipping],
                scalar_sample(len(ops), rng), zero_skipping,
            )
            hasher.update(tensor.tobytes())
            for key in totals:
                value = int(stats[key].sum())
                totals[key][0 if zero_skipping else 1] += value
                hasher.update(str(value).encode())
        out.op_seconds = end - start
        # Each op is decomposed once, executed in both modes and accumulated.
        out.add("rowops_per_s", distinct_ops / (end - start), (start, end, SAMPLER_CPU))
        out.layer["arch.pe.macs"] = totals["macs"][0]
        out.layer["arch.pe.processed_operands"] = totals["processed_operands"][0]
        out.layer["arch.pe.skip_frac"] = 1.0 - totals["macs"][0] / totals["macs"][1]
        out.digest = hasher.hexdigest()
        return out


def _decompose(case: LayerCase, span) -> dict[str, list]:
    from repro.dataflow.decompose import decompose_forward, decompose_gta, decompose_gtw

    spec = case.spec
    with span("dataflow.decompose"):
        return {
            "forward": decompose_forward(spec, case.x, case.weight),
            "gta": decompose_gta(spec, case.grad_out, case.weight, case.mask),
            "gtw": decompose_gtw(spec, case.grad_out, case.x),
        }
