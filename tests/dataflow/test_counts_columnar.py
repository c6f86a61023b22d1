"""Columnar step counts equal per-layer scalar counts.

``forward_counts``/``gta_counts``/``gtw_counts`` and the weight-tiling factor
are written once and evaluate on one layer spec or on a whole model's
per-layer columns (:class:`LayerGeometry` + :class:`DensityGrid`).  The
closed-form model relies on the columnar call; the simulator on the scalar one.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analytic.model import DensityGrid, LayerGeometry
from repro.api.registry import WORKLOADS
from repro.arch.buffer import GlobalBuffer, weight_tiling_factor
from repro.dataflow.counts import (
    LayerDensities,
    StepCounts,
    forward_counts,
    gta_counts,
    gtw_counts,
)
from repro.models.zoo import get_model_spec

ZOO = [
    (model, dataset)
    for model, workload in WORKLOADS.items()
    for dataset in workload.datasets
]

STEP_COUNTS = (forward_counts, gta_counts, gtw_counts)

#: Fields computed through ``skip_factor``'s ``1 - (1 - d) ** k``: numpy's
#: ``pow`` and libm's differ in the last ulp for about 5% of inputs.  The
#: subtraction turns that into an absolute error of a few ulps of 1.0 in the
#: skip factor, so these fields are compared at 1e-14 of their no-skipping
#: scale (row operations x row length), not of the possibly tiny skipped value.
POW_FIELDS = ("processed_operands", "reg_accesses")
POW_TOLERANCE = 1e-14

COUNT_FIELDS = tuple(f.name for f in dataclasses.fields(StepCounts) if f.name != "step")

#: Design points per density grid: the columnar call gets a (points, layers)
#: grid, the scalar calls one density map per point.
POINTS = 3


def _random_maps(spec, seed: int) -> list[dict[str, LayerDensities]]:
    rng = np.random.default_rng(seed)
    return [
        {
            layer.name: LayerDensities(*(float(v) for v in rng.uniform(0.0, 1.0, 5)))
            for layer in spec.conv_layers
        }
        for _ in range(POINTS)
    ]


def _grid(spec, maps: list[dict[str, LayerDensities]]) -> DensityGrid:
    return DensityGrid(
        **{
            name: np.asarray(
                [[getattr(m[layer.name], name) for layer in spec.conv_layers] for m in maps]
            )
            for name in (f.name for f in dataclasses.fields(LayerDensities))
        }
    )


def test_zoo_covers_depthwise_and_maskless_layers():
    layers = [
        layer for model, dataset in ZOO for layer in get_model_spec(model, dataset).conv_layers
    ]
    assert any(layer.groups > 1 and layer.groups == layer.in_channels for layer in layers)
    assert any(not layer.has_relu_mask for layer in layers)
    assert ("MobileNetV1", "CIFAR-10") in ZOO


def test_density_grid_from_layer_densities_matches_manual_grid():
    spec = get_model_spec("ResNet-18", "CIFAR-10")
    density_map = _random_maps(spec, 0)[0]
    from_map = DensityGrid.from_layer_densities(LayerGeometry.from_spec(spec), density_map)
    manual = _grid(spec, [density_map])
    for field in dataclasses.fields(DensityGrid):
        assert np.array_equal(getattr(from_map, field.name), getattr(manual, field.name)[0])


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("model,dataset", ZOO)
def test_columnar_counts_match_per_layer_calls(model, dataset, sparse):
    spec = get_model_spec(model, dataset)
    seed = ZOO.index((model, dataset))
    maps = _random_maps(spec, seed)
    geometry = LayerGeometry.from_spec(spec)
    grid = _grid(spec, maps)
    shape = (POINTS, geometry.num_layers)
    row_length = np.maximum(geometry.in_width, geometry.out_width)
    for step_counts in STEP_COUNTS:
        columnar = step_counts(geometry, grid, sparse)
        scalar = [
            [step_counts(layer, m[layer.name], sparse) for layer in spec.conv_layers]
            for m in maps
        ]
        assert columnar.step is scalar[0][0].step
        for name in COUNT_FIELDS:
            expected = np.asarray(
                [[getattr(c, name) for c in row] for row in scalar], dtype=np.float64
            )
            actual = np.broadcast_to(getattr(columnar, name), shape)
            if name in POW_FIELDS:
                bound = POW_TOLERANCE * columnar.row_ops * row_length
                assert np.all(np.abs(actual - expected) <= bound), (step_counts.__name__, name)
            else:
                assert np.array_equal(actual, expected), (step_counts.__name__, name)


def test_dense_counts_ignore_the_density_grid():
    spec = get_model_spec("MobileNetV1", "CIFAR-10")
    geometry = LayerGeometry.from_spec(spec)
    grid = _grid(spec, _random_maps(spec, 1))
    for step_counts in STEP_COUNTS:
        from_grid = step_counts(geometry, grid, sparse=False)
        from_dense = step_counts(geometry, DensityGrid.dense(), sparse=False)
        for name in COUNT_FIELDS:
            assert np.array_equal(getattr(from_grid, name), getattr(from_dense, name))


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
def test_tiling_factor_columnar_matches_scalar_when_tiling(sparse):
    # At 8 KiB even ImageNet AlexNet's activations overflow the buffer, so
    # the ceil branch is exercised, not just the fits-in-buffer 1.0.
    spec = get_model_spec("AlexNet", "ImageNet")
    maps = _random_maps(spec, 2)
    geometry = LayerGeometry.from_spec(spec)
    capacities = np.asarray([[8 * 512.0], [64 * 512.0], [386 * 512.0]])
    columnar = weight_tiling_factor(geometry, _grid(spec, maps), capacities, sparse)
    expected = np.asarray(
        [
            [
                GlobalBuffer(int(capacity)).weight_tiling_factor(layer, m[layer.name], sparse)
                for layer in spec.conv_layers
            ]
            for capacity, m in zip(capacities[:, 0], maps)
        ]
    )
    assert np.array_equal(columnar, expected)
    assert expected[0].max() > 1.0
