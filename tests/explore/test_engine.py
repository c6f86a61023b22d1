"""Tests for design points, records and their evaluation."""

from __future__ import annotations

import pytest

from repro.analytic.model import evaluate_points_analytic
from repro.arch.area import estimate_area
from repro.explore.engine import (
    DesignPoint,
    EvaluationRecord,
    analytic_densities,
    evaluate_point,
    points_for,
)
from repro.explore.space import DesignSpace, grid_axis, paper_neighborhood_space
from repro.models.zoo import get_model_spec

WORKLOADS = (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10"))

SMALL_SPACE = DesignSpace(
    axes=(
        grid_axis("num_pes", [84, 168]),
        grid_axis("pruning_rate", [0.5, 0.9]),
    )
)


class TestDesignPoint:
    def test_from_assignment_splits_arch_and_pruning(self):
        point = DesignPoint.from_assignment(
            "AlexNet", "CIFAR-10", {"num_pes": 84, "pruning_rate": 0.7}
        )
        assert point.pruning_rate == 0.7
        assert point.sparse_config().num_pes == 84
        assert point.baseline_config().num_pes == 84
        assert not point.baseline_config().sparse_dataflow

    def test_from_assignment_normalizes_names(self):
        point = DesignPoint.from_assignment("resnet18", "cifar10", {})
        assert point.model == "ResNet-18"
        assert point.dataset == "CIFAR-10"

    def test_from_assignment_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown assignment"):
            DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pe": 84})

    def test_from_assignment_validates_config_eagerly(self):
        with pytest.raises(ValueError):
            DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 85})

    def test_key_is_stable_and_input_sensitive(self):
        a = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 84})
        b = DesignPoint.from_assignment("alexnet", "cifar-10", {"num_pes": 84})
        c = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 168})
        d = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 84},
                                        energy_overrides={"sram_pj": 5.0})
        assert a.key == b.key
        assert a.key != c.key
        assert a.key != d.key


class TestEvaluatePoint:
    def test_record_matches_direct_simulation(self):
        point = DesignPoint.from_assignment(
            "AlexNet", "CIFAR-10", {"num_pes": 168, "pruning_rate": 0.9}
        )
        record = evaluate_point(point)
        assert record.key == point.key
        assert record.num_pes == 168
        assert record.buffer_kib == 386
        assert record.speedup > 1.0
        assert record.energy_efficiency > 1.0
        assert record.latency_us < record.baseline_latency_us
        area = estimate_area(point.sparse_config())
        assert record.area_mm2 == pytest.approx(area.total_mm2)

    def test_record_dict_round_trip(self):
        point = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 84})
        record = evaluate_point(point)
        assert EvaluationRecord.from_dict(record.to_dict()) == record

    def test_analytic_densities_track_pruning_rate(self):
        spec = get_model_spec("AlexNet", "CIFAR-10")
        light = analytic_densities(spec, 0.5)
        heavy = analytic_densities(spec, 0.99)
        name = spec.conv_layers[1].name
        assert heavy[name].grad_output_density < light[name].grad_output_density


class TestPointsFor:
    def test_crosses_space_with_workloads(self):
        points = points_for(SMALL_SPACE, WORKLOADS)
        assert len(points) == SMALL_SPACE.size * len(WORKLOADS)
        assert len({p.key for p in points}) == len(points)

    def test_sampled_subset(self):
        points = points_for(paper_neighborhood_space(), WORKLOADS, sample=5, seed=1)
        assert len(points) == 5 * len(WORKLOADS)


class TestExplorationEngine:
    """Sweeps evaluate point lists through the closed-form model."""

    def test_serial_run_returns_input_order(self):
        points = points_for(SMALL_SPACE, WORKLOADS)
        records = evaluate_points_analytic(points)
        assert [r.key for r in records] == [p.key for p in points]

    def test_deduplicates_identical_points(self):
        point = DesignPoint.from_assignment("AlexNet", "CIFAR-10", {"num_pes": 84})
        records = evaluate_points_analytic([point, point, point])
        assert len(records) == 1
        assert records[0].key == point.key
