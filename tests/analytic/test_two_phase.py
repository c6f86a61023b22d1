"""Sweeps through the one closed-form evaluator.

Every design point of ``sweep``, ``pareto`` and the ablation sweeps is
evaluated by ``evaluate_points_analytic`` / ``evaluate_grid_analytic``.  The
simulator walk (``evaluate_point``) is the reference they must match within
``analytic-validate``'s per-metric bounds.
"""

from __future__ import annotations

import pytest

from repro.analytic import model as analytic_model
from repro.analytic.validate import DEFAULT_ERROR_BOUNDS
from repro.api import ExperimentRequest, RunOptions, run_experiment
from repro.explore.engine import DesignPoint, evaluate_point


def _sweep_request(workloads=None, **extra_params) -> ExperimentRequest:
    params = {
        "pes": [84, 168, 336],
        "buffers": [192, 386],
        "pruning_rates": [0.7, 0.9],
        **extra_params,
    }
    return ExperimentRequest(
        experiment="sweep",
        workloads=workloads or (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10")),
        params=params,
    )


def _assert_matches_simulator(record, point: DesignPoint) -> None:
    """All seven metrics of ``record`` within the validation bounds."""
    reference = evaluate_point(point)
    assert record.key == reference.key
    for metric, bound in DEFAULT_ERROR_BOUNDS.items():
        expected = getattr(reference, metric)
        error = abs(getattr(record, metric) - expected) / max(abs(expected), 1e-300)
        assert error <= bound, (point, metric, error)


def _point(record) -> DesignPoint:
    return DesignPoint(record.model, record.dataset, record.pruning_rate, record.overrides)


def _spy(monkeypatch, name: str) -> list:
    """Record every call of ``analytic_model.<name>`` as (args, result)."""
    calls = []
    real = getattr(analytic_model, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(analytic_model, name, spy)
    return calls


class TestSweepMatchesSimulator:
    def test_sampled_sweep_matches_simulator(self):
        # The same workload twice: every sampled point appears twice.
        result = run_experiment(
            _sweep_request(
                workloads=(("AlexNet", "CIFAR-10"), ("alexnet", "cifar10")),
                sample=5,
                seed=3,
            ),
            options=RunOptions(use_cache=False),
        )
        records = result.native["records"]
        assert len(records) == 5
        assert result.native["stats"].startswith("10 points (5 duplicate), 5 evaluated")
        for record in records:
            _assert_matches_simulator(record, _point(record))

    def test_energy_overrides_match_simulator(self):
        points = [
            DesignPoint("AlexNet", "CIFAR-10", 0.9, energy_overrides=(("sram_pj", 12.0),)),
            DesignPoint(
                "MobileNetV1",
                "CIFAR-10",
                0.6,
                overrides=(("num_pes", 84),),
                energy_overrides=(("dram_pj", 80.0), ("mac_pj", 0.5)),
            ),
        ]
        for record, point in zip(analytic_model.evaluate_points_analytic(points), points):
            _assert_matches_simulator(record, point)

    @pytest.mark.parametrize(
        "run_sweep, kwargs",
        [
            ("run_pe_sweep", {"pe_counts": (42, 84, 336)}),
            ("run_pruning_rate_sweep", {"pruning_rates": (0.0, 0.5, 0.95)}),
        ],
    )
    def test_ablation_sweeps_match_simulator(self, monkeypatch, run_sweep, kwargs):
        from repro.eval import ablations

        calls = _spy(monkeypatch, "evaluate_points_analytic")
        sweep = getattr(ablations, run_sweep)(**kwargs)
        ((args, records),) = calls
        assert len(records) == len(sweep) == 3
        for point, record, sweep_point in zip(args[0], records, sweep):
            _assert_matches_simulator(record, point)
            assert sweep_point.speedup == record.speedup
            assert sweep_point.energy_efficiency == record.energy_efficiency


class TestGridFastPath:
    """Full grids skip point materialization; results must not change."""

    def test_grid_evaluator_matches_point_list_bit_for_bit(self):
        from repro.analytic.model import (
            AnalyticGridPlan,
            evaluate_grid_analytic,
            evaluate_points_analytic,
        )
        from repro.explore.engine import points_for
        from repro.explore.space import DesignSpace, grid_axis

        pes, buffers, rates = (84, 168, 336), (192, 386), (0.5, 0.9)
        workloads = (("AlexNet", "CIFAR-10"), ("ResNet-18", "CIFAR-10"))
        grid = evaluate_grid_analytic(
            AnalyticGridPlan(workloads=workloads, pes=pes, buffers=buffers, rates=rates)
        )
        space = DesignSpace(
            axes=(
                grid_axis("num_pes", pes),
                grid_axis("buffer_kib", buffers),
                grid_axis("pruning_rate", rates),
            )
        )
        via_points = evaluate_points_analytic(points_for(space, list(workloads)))
        assert len(grid) == len(via_points) == 24
        assert [r.to_dict() for r in grid] == [r.to_dict() for r in via_points]

    def test_sampled_sweep_uses_the_point_path(self, monkeypatch):
        # ``sample`` has seeded-subset semantics the grid plan cannot honour.
        grid_calls = _spy(monkeypatch, "evaluate_grid_analytic")
        point_calls = _spy(monkeypatch, "evaluate_points_analytic")
        result = run_experiment(
            _sweep_request(sample=5, seed=1),
            options=RunOptions(use_cache=False),
        )
        assert len(result.native["records"]) == 10  # 5 sampled x 2 workloads
        assert not grid_calls
        assert len(point_calls) == 1

    def test_duplicate_workloads_use_the_point_path(self, monkeypatch):
        # A repeated workload repeats every grid cell; the point path
        # evaluates each cell once.
        grid_calls = _spy(monkeypatch, "evaluate_grid_analytic")
        result = run_experiment(
            _sweep_request(workloads=(("AlexNet", "CIFAR-10"), ("alexnet", "cifar10"))),
            options=RunOptions(use_cache=False),
        )
        assert not grid_calls
        assert len(result.native["records"]) == 12
        assert result.native["stats"].startswith("24 points (12 duplicate), 12 evaluated")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            run_experiment(_sweep_request(pes=[]), options=RunOptions(use_cache=False))

    def test_duplicate_axis_values_rejected_like_every_tier(self):
        # The grid plan only covers duplicate-free axes; duplicates fall
        # through to the DesignSpace path, which rejects them.
        with pytest.raises(ValueError, match="duplicate values"):
            run_experiment(
                _sweep_request(pes=[84, 84, 168]),
                options=RunOptions(use_cache=False),
            )


class TestAnalyticSweepWithoutResim:
    def test_payload_record_cap(self):
        result = run_experiment(
            _sweep_request(max_records=5),
            options=RunOptions(use_cache=False),
        )
        assert len(result.native["records"]) == 24
        assert len(result.payload["records"]) == 5
        assert result.payload["records_truncated"] is True
        assert result.payload["records_total"] == 24
        # The cap keeps the best (latency-ranked) records.
        kept = [record["latency_us"] for record in result.payload["records"]]
        assert kept == sorted(kept)

    def test_analytic_records_not_written_to_sweep_cache(self, tmp_path):
        # Design points are never persisted: a sweep leaves the cache
        # directory as it found it.
        run_experiment(_sweep_request(), options=RunOptions(cache_dir=tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_large_grid_is_one_grid_call(self, monkeypatch):
        calls = _spy(monkeypatch, "evaluate_grid_analytic")
        point_calls = _spy(monkeypatch, "evaluate_points_analytic")
        request = ExperimentRequest(
            experiment="sweep",
            workloads=(("AlexNet", "CIFAR-10"),),
            params={
                "pes": [3 * n for n in range(8, 48)],
                "buffers": list(range(64, 364, 50)),
                "pruning_rates": [0.5 + 0.05 * i for i in range(10)],
            },
        )
        result = run_experiment(request, options=RunOptions(use_cache=False))
        assert len(calls) == 1 and not point_calls
        assert len(calls[0][1]) == 40 * 6 * 10
        assert result.native["records"] == calls[0][1]
