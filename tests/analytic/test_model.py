"""The closed-form model must agree with the simulator to float-noise level.

Both paths evaluate the same closed-form formulas; they differ only in float
rounding (summation order, energy charged on totals), so any disagreement
beyond 1e-9 relative is a structural divergence.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.analytic.model import (
    ArchGrid,
    DensityGrid,
    LayerGeometry,
    evaluate_points_analytic,
)
from repro.arch.accelerator import compute_cycles
from repro.arch.area import estimate_area
from repro.dataflow.counts import LayerDensities, gta_counts
from repro.explore.engine import DesignPoint, evaluate_point
from repro.models.zoo import get_model_spec

RTOL = 1e-9

RECORD_METRICS = (
    "latency_us",
    "energy_uj",
    "area_mm2",
    "baseline_latency_us",
    "baseline_energy_uj",
    "speedup",
    "energy_efficiency",
)

POINTS = [
    DesignPoint(model="AlexNet", dataset="CIFAR-10", pruning_rate=0.9),
    DesignPoint(
        model="AlexNet",
        dataset="CIFAR-10",
        pruning_rate=0.7,
        overrides=(("buffer_kib", 192), ("num_pes", 84)),
    ),
    DesignPoint(
        model="ResNet-18",
        dataset="CIFAR-10",
        pruning_rate=0.95,
        overrides=(("batch_size", 16), ("pe_utilization", 0.7)),
    ),
    DesignPoint(
        model="MobileNetV1",
        dataset="CIFAR-10",
        pruning_rate=0.5,
        overrides=(("dram_words_per_cycle", 8.0),),
        energy_overrides=(("dram_pj", 80.0),),
    ),
    DesignPoint(model="VGG-16", dataset="ImageNet", pruning_rate=0.9),
]


class TestBatchedRecordsMatchSimulator:
    @pytest.fixture(scope="class")
    def pairs(self):
        analytic = evaluate_points_analytic(POINTS)
        simulated = [evaluate_point(point) for point in POINTS]
        return list(zip(analytic, simulated))

    @pytest.mark.parametrize("metric", RECORD_METRICS)
    def test_metric_within_float_noise(self, pairs, metric):
        for analytic, simulated in pairs:
            assert getattr(analytic, metric) == pytest.approx(
                getattr(simulated, metric), rel=RTOL
            )

    def test_non_metric_fields_carried_over(self, pairs):
        for analytic, simulated in pairs:
            assert analytic.model == simulated.model
            assert analytic.dataset == simulated.dataset
            assert analytic.pruning_rate == simulated.pruning_rate
            assert analytic.overrides == simulated.overrides
            assert analytic.num_pes == simulated.num_pes
            assert analytic.buffer_kib == simulated.buffer_kib

    def test_records_are_plain_floats(self, pairs):
        # numpy scalars would break the exact CSV round-trip of the report
        # module, like the simulator path they must be built-in floats.
        for analytic, _ in pairs:
            for metric in RECORD_METRICS:
                assert type(getattr(analytic, metric)) is float


class TestAnalyticKeys:
    def test_keys_equal_simulator_keys(self):
        records = evaluate_points_analytic(POINTS[:2])
        assert [record.key for record in records] == [
            evaluate_point(point).key for point in POINTS[:2]
        ]

    def test_records_carry_point_keys(self):
        records = evaluate_points_analytic(POINTS)
        assert [record.key for record in records] == [point.key for point in POINTS]
        assert POINTS[0].key == "AlexNet/CIFAR-10@0.9|()|()"

    def test_dedup_first_seen_order(self):
        records = evaluate_points_analytic([POINTS[0], POINTS[1], POINTS[0]])
        assert len(records) == 2
        assert records[0].key == POINTS[0].key
        assert records[1].key == POINTS[1].key

    def test_chunking_is_invisible(self):
        many = [
            DesignPoint(
                model="AlexNet",
                dataset="CIFAR-10",
                pruning_rate=round(0.5 + 0.004 * index, 6),
            )
            for index in range(100)
        ]
        whole = evaluate_points_analytic(many)
        chunked = evaluate_points_analytic(many, chunk_points=7)
        assert [record.to_dict() for record in whole] == [
            record.to_dict() for record in chunked
        ]


class TestSharedMachineFormulas:
    """compute_cycles and estimate_area read an ArchGrid like an ArchConfig."""

    CONFIGS = [point.sparse_config() for point in POINTS] + [
        point.baseline_config() for point in POINTS
    ]

    def test_compute_cycles_columns_equal_per_config_calls(self):
        spec = get_model_spec("MobileNetV1", "CIFAR-10")
        geometry = LayerGeometry.from_spec(spec)
        columnar = compute_cycles(
            gta_counts(geometry, DensityGrid.dense()), ArchGrid.from_configs(self.CONFIGS)
        )
        expected = [
            [
                compute_cycles(gta_counts(layer, LayerDensities.dense()), config)
                for layer in spec.conv_layers
            ]
            for config in self.CONFIGS
        ]
        assert np.array_equal(columnar, np.asarray(expected))

    def test_area_columns_equal_per_config_calls(self):
        columnar = estimate_area(ArchGrid.from_configs(self.CONFIGS))
        for index, config in enumerate(self.CONFIGS):
            scalar = estimate_area(config)
            assert columnar.total_mm2[index, 0] == scalar.total_mm2
            assert columnar.ppu_mm2[index, 0] == scalar.ppu_mm2


class TestObsCounters:
    def test_points_evaluated_counter_increments(self):
        from repro.obs import metrics

        def total() -> float:
            snapshot = metrics().snapshot()
            return sum(
                entry["value"]
                for entry in snapshot.get("analytic.points_evaluated", ())
            )

        before = total()
        evaluate_points_analytic(POINTS[:3])
        assert total() == before + 3
