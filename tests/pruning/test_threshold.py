"""Tests for threshold determination, FIFO prediction and the density model."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pruning.stochastic import density, stochastic_prune
from repro.pruning.threshold import (
    ThresholdFIFO,
    ThresholdPredictor,
    determine_threshold,
    determine_threshold_from_abs_sum,
    estimate_sigma,
    expected_density_after_pruning,
    quantile_factor,
)

SRC = Path(__file__).resolve().parents[2] / "src"


class TestSigmaEstimation:
    def test_estimate_sigma_on_normal_data(self):
        rng = np.random.default_rng(0)
        for sigma in (0.1, 1.0, 5.0):
            data = rng.normal(0.0, sigma, size=200_000)
            assert estimate_sigma(data) == pytest.approx(sigma, rel=0.02)

    def test_estimate_sigma_empty(self):
        assert estimate_sigma(np.array([])) == 0.0

    def test_estimate_sigma_scales_linearly(self, rng):
        data = rng.normal(size=10_000)
        assert estimate_sigma(3.0 * data) == pytest.approx(3.0 * estimate_sigma(data), rel=1e-9)


class TestQuantileFactor:
    def test_known_values(self):
        # P(|Z| < 1.6449) ~ 0.90 for a standard normal.
        assert quantile_factor(0.9) == pytest.approx(1.6449, abs=1e-3)
        assert quantile_factor(0.0) == 0.0
        assert quantile_factor(1.0) == float("inf")

    def test_monotonically_increasing(self):
        values = [quantile_factor(p) for p in (0.1, 0.5, 0.9, 0.99)]
        assert values == sorted(values)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantile_factor(1.5)

    def test_cli_imports_without_scipy(self):
        """numpy is the only declared runtime dependency: with ``scipy``
        blocked, the CLI (and the pruning code under it) still imports."""
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import repro.cli\n"
            "from repro.pruning.threshold import quantile_factor\n"
            "print(quantile_factor(0.9))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(1.6449, abs=1e-3)


class TestDetermineThreshold:
    def test_realised_sparsity_matches_target_on_normal_gradients(self):
        rng = np.random.default_rng(3)
        gradients = rng.normal(0.0, 0.01, size=100_000)
        for target in (0.5, 0.8, 0.9, 0.99):
            threshold = determine_threshold(gradients, target)
            below = np.mean(np.abs(gradients) < threshold)
            assert below == pytest.approx(target, abs=0.01)

    def test_streaming_form_matches_tensor_form(self, rng):
        gradients = rng.normal(size=5000)
        tensor_threshold = determine_threshold(gradients, 0.9)
        streaming_threshold = determine_threshold_from_abs_sum(
            float(np.abs(gradients).sum()), gradients.size, 0.9
        )
        assert streaming_threshold == pytest.approx(tensor_threshold, rel=1e-12)

    def test_zero_target_gives_zero_threshold(self, rng):
        assert determine_threshold(rng.normal(size=100), 0.0) == 0.0

    def test_empty_count_gives_zero(self):
        assert determine_threshold_from_abs_sum(0.0, 0, 0.9) == 0.0


class TestThresholdFIFO:
    def test_not_full_returns_none(self):
        fifo = ThresholdFIFO(3)
        fifo.push(1.0)
        fifo.push(2.0)
        assert not fifo.is_full
        assert fifo.predict() is None

    def test_full_returns_mean(self):
        fifo = ThresholdFIFO(3)
        for value in (1.0, 2.0, 3.0):
            fifo.push(value)
        assert fifo.is_full
        assert fifo.predict() == pytest.approx(2.0)

    def test_oldest_evicted(self):
        fifo = ThresholdFIFO(2)
        for value in (1.0, 2.0, 3.0):
            fifo.push(value)
        assert fifo.values() == [2.0, 3.0]

    def test_rejects_invalid_thresholds(self):
        fifo = ThresholdFIFO(2)
        with pytest.raises(ValueError):
            fifo.push(-1.0)
        with pytest.raises(ValueError):
            fifo.push(float("inf"))

    def test_rejects_invalid_depth(self):
        with pytest.raises(ValueError):
            ThresholdFIFO(0)

    def test_clear(self):
        fifo = ThresholdFIFO(1)
        fifo.push(1.0)
        fifo.clear()
        assert len(fifo) == 0
        assert fifo.predict() is None


class TestThresholdPredictor:
    def test_warm_up_then_predict(self, rng):
        predictor = ThresholdPredictor(target_sparsity=0.9, fifo_depth=2)
        assert predictor.current_threshold() is None
        predictor.observe(rng.normal(size=1000))
        assert predictor.current_threshold() is None
        predictor.observe(rng.normal(size=1000))
        assert predictor.current_threshold() is not None
        assert predictor.batches_observed == 2

    def test_prediction_tracks_stationary_distribution(self):
        rng = np.random.default_rng(0)
        predictor = ThresholdPredictor(target_sparsity=0.9, fifo_depth=5)
        for _ in range(5):
            predictor.observe(rng.normal(0.0, 1.0, size=20_000))
        exact = determine_threshold(rng.normal(0.0, 1.0, size=20_000), 0.9)
        assert predictor.current_threshold() == pytest.approx(exact, rel=0.05)

    def test_observe_streaming_consistent(self, rng):
        gradients = rng.normal(size=4096)
        a = ThresholdPredictor(0.8, 1)
        b = ThresholdPredictor(0.8, 1)
        a.observe(gradients)
        b.observe_streaming(float(np.abs(gradients).sum()), gradients.size)
        assert a.current_threshold() == pytest.approx(b.current_threshold(), rel=1e-12)


class TestExpectedDensity:
    def test_boundary_values(self):
        assert expected_density_after_pruning(0.0) == 1.0
        assert expected_density_after_pruning(1.0) == 0.0
        assert expected_density_after_pruning(0.0, natural_density=0.3) == 0.3

    def test_monotonically_decreasing_in_p(self):
        densities = [expected_density_after_pruning(p) for p in (0.1, 0.5, 0.9, 0.99)]
        assert densities == sorted(densities, reverse=True)

    @pytest.mark.parametrize("target", [0.7, 0.9, 0.99])
    def test_matches_monte_carlo(self, target):
        rng = np.random.default_rng(5)
        gradients = rng.normal(0.0, 1.0, size=200_000)
        threshold = determine_threshold(gradients, target)
        pruned = stochastic_prune(gradients, threshold, np.random.default_rng(6))
        assert density(pruned) == pytest.approx(
            expected_density_after_pruning(target), abs=0.01
        )

    def test_scales_with_natural_density(self):
        full = expected_density_after_pruning(0.9, 1.0)
        half = expected_density_after_pruning(0.9, 0.5)
        assert half == pytest.approx(full / 2.0)

    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(0.01, 0.99), natural=st.floats(0.01, 1.0))
    def test_property_bounded(self, p, natural):
        value = expected_density_after_pruning(p, natural)
        assert 0.0 <= value <= natural + 1e-12
