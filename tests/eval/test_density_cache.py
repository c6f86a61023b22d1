"""Tests for the on-disk measured-density cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ExperimentRequest, RunOptions, run_experiment
from repro.dataflow.counts import LayerDensities
from repro.eval.common import ExperimentScale
from repro.eval.density_cache import (
    density_cache_key,
    deserialize_measured,
    load_cached_densities,
    serialize_measured,
    store_cached_densities,
)
from repro.eval.fig8 import measure_model_densities
from repro.explore.cache import ResultCache
from repro.sim.trace import MeasuredDensities

TINY = ExperimentScale(
    num_samples=96, num_classes=4, image_size=8, epochs=1, batch_size=32,
    width_scale=0.1, resnet_blocks=(1,), resnet_width=8, seed=5,
)


def _measured_fixture() -> MeasuredDensities:
    names = ("conv1", "conv2")
    return MeasuredDensities(
        layer_names=names,
        densities={
            "conv1": LayerDensities(1.0, 0.3, 0.55, 0.5, 0.6),
            "conv2": LayerDensities(0.6, 0.2, 0.5, 0.4, 0.5),
        },
    )


class TestSerialization:
    def test_round_trip(self):
        measured = _measured_fixture()
        restored = deserialize_measured(serialize_measured(measured))
        assert restored.layer_names == measured.layer_names
        assert restored.densities == measured.densities

    def test_corrupted_record_warns_and_falls_back_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "densities.jsonl")
        key = density_cache_key("AlexNet", 0.9, TINY)
        cache.put(key, {"not": "a measurement"})
        with pytest.warns(RuntimeWarning, match="corrupt record"):
            assert load_cached_densities(cache, "AlexNet", 0.9, TINY) is None

    def test_torn_write_skips_line_and_warns(self, tmp_path):
        """A torn (truncated) JSONL write loses one entry, not the cache."""
        path = tmp_path / "densities.jsonl"
        cache = ResultCache(path)
        key = density_cache_key("AlexNet", 0.9, TINY)
        store_cached_densities(cache, "AlexNet", 0.9, TINY, _measured_fixture())
        intact = path.read_text(encoding="utf-8")
        # Simulate a writer killed mid-append: half a record, no newline.
        path.write_text(intact + intact[: len(intact) // 2], encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt/truncated"):
            reloaded = ResultCache(path)
        restored = load_cached_densities(reloaded, "AlexNet", 0.9, TINY)
        assert restored is not None
        assert restored.densities == _measured_fixture().densities
        assert reloaded.get(key) is not None


class TestKeying:
    def test_key_is_stable_and_sensitive(self):
        base = density_cache_key("AlexNet", 0.9, TINY)
        assert base == density_cache_key("AlexNet", 0.9, TINY)
        assert base != density_cache_key("ResNet-18", 0.9, TINY)
        assert base != density_cache_key("AlexNet", 0.5, TINY)
        assert base != density_cache_key(
            "AlexNet", 0.9, ExperimentScale(num_samples=TINY.num_samples + 1)
        )


class TestStoreAndLoad:
    def test_store_then_load(self, tmp_path):
        cache = ResultCache(tmp_path / "densities.jsonl")
        measured = _measured_fixture()
        store_cached_densities(cache, "AlexNet", 0.9, TINY, measured)
        restored = load_cached_densities(cache, "AlexNet", 0.9, TINY)
        assert restored is not None
        assert restored.densities == measured.densities
        # Survives a reload from disk.
        reloaded = ResultCache(tmp_path / "densities.jsonl")
        assert load_cached_densities(reloaded, "AlexNet", 0.9, TINY) is not None

    def test_disabled_cache_is_noop(self):
        store_cached_densities(None, "AlexNet", 0.9, TINY, _measured_fixture())
        assert load_cached_densities(None, "AlexNet", 0.9, TINY) is None


class TestMeasureIntegration:
    def test_second_measurement_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "densities.jsonl")
        first = measure_model_densities("AlexNet", 0.9, TINY, cache=cache)
        assert len(cache) == 1
        second = measure_model_densities("AlexNet", 0.9, TINY, cache=cache)
        assert second.layer_names == first.layer_names
        for name in first.layer_names:
            a, b = first.densities[name], second.densities[name]
            assert a == b or np.allclose(
                [a.input_density, a.grad_output_density, a.mask_density,
                 a.grad_input_density, a.output_density],
                [b.input_density, b.grad_output_density, b.mask_density,
                 b.grad_input_density, b.output_density],
            )
        assert len(cache) == 1  # no second entry appended

    def test_different_scale_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "densities.jsonl")
        measure_model_densities("AlexNet", 0.9, TINY, cache=cache)
        other = ExperimentScale(
            num_samples=96, num_classes=4, image_size=8, epochs=2, batch_size=32,
            width_scale=0.1, resnet_blocks=(1,), resnet_width=8, seed=5,
        )
        measure_model_densities("AlexNet", 0.9, other, cache=cache)
        assert len(cache) == 2


class TestPipelineCacheHit:
    def test_second_fig8_run_records_train_cache_hit(self, tmp_path):
        """The fig8 result reports the density-cache hit of its ``train`` stage."""
        request = ExperimentRequest(
            experiment="fig8",
            workloads=(("AlexNet", "CIFAR-10"),),
            scale=ExperimentScale.smoke(),
        )
        options = RunOptions(cache_dir=tmp_path)
        first = run_experiment(request, options)
        assert dict(first.cache_hits)["train"] is False
        second = run_experiment(request, options)
        assert dict(second.cache_hits)["train"] is True
        assert second.payload == first.payload
