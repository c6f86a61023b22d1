"""ExperimentRequest/ExperimentResult: JSON round-trip and hash stability."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentRequest, ExperimentResult, RunOptions
from repro.eval.common import ExperimentScale


def make_request(**overrides) -> ExperimentRequest:
    kwargs = dict(
        experiment="fig8",
        workloads=(("AlexNet", "CIFAR-10"), ("ResNet-18", "ImageNet")),
        pruning_rate=0.9,
        scale=ExperimentScale.quick(),
        params={"alpha": [1, 2, 3], "mode": "fast", "flag": True},
    )
    kwargs.update(overrides)
    return ExperimentRequest(**kwargs)


class TestRequestConstruction:
    def test_workload_names_are_normalized(self):
        request = ExperimentRequest(
            experiment="fig8", workloads=(("resnet18", "cifar10"),)
        )
        assert request.workloads == (("ResNet-18", "CIFAR-10"),)

    def test_unknown_model_lists_registered_names(self):
        with pytest.raises(ValueError, match="registered models.*AlexNet"):
            ExperimentRequest(experiment="fig8", workloads=(("LeNet", "CIFAR-10"),))

    def test_unknown_dataset_lists_known_names(self):
        with pytest.raises(ValueError, match="known datasets.*CIFAR-10"):
            ExperimentRequest(experiment="fig8", workloads=(("AlexNet", "MNIST"),))

    def test_default_scale_is_quick(self):
        assert ExperimentRequest(experiment="fig8").scale == ExperimentScale.quick()

    def test_invalid_pruning_rate_rejected(self):
        with pytest.raises(ValueError, match="pruning_rate"):
            ExperimentRequest(experiment="fig8", pruning_rate=1.0)

    def test_params_are_sorted_and_jsonified(self):
        request = make_request(params={"b": (1, 2), "a": "x"})
        assert request.params == (("a", "x"), ("b", [1, 2]))

    def test_non_json_param_rejected(self):
        with pytest.raises(TypeError, match="not JSON-serialisable"):
            make_request(params={"bad": object()})

    def test_param_lookup_and_with_params(self):
        request = make_request()
        assert request.param("mode") == "fast"
        assert request.param("missing", 42) == 42
        updated = request.with_params(mode="slow", extra=1)
        assert updated.param("mode") == "slow"
        assert updated.param("extra") == 1
        assert request.param("mode") == "fast"  # original untouched


class TestRequestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        request = make_request()
        assert ExperimentRequest.from_dict(request.to_dict()) == request

    def test_json_round_trip_is_identity(self):
        request = make_request(scale=ExperimentScale.thorough())
        restored = ExperimentRequest.from_json(request.to_json())
        assert restored == request
        assert restored.scale == ExperimentScale.thorough()

    def test_to_json_is_valid_json(self):
        payload = json.loads(make_request().to_json())
        assert payload["experiment"] == "fig8"
        assert payload["workloads"] == [["AlexNet", "CIFAR-10"], ["ResNet-18", "ImageNet"]]


class TestContentHash:
    def test_hash_is_stable_across_instances(self):
        assert make_request().content_hash == make_request().content_hash

    def test_hash_survives_json_round_trip(self):
        request = make_request()
        restored = ExperimentRequest.from_json(request.to_json())
        assert restored.content_hash == request.content_hash

    def test_hash_ignores_param_order(self):
        a = make_request(params={"x": 1, "y": 2})
        b = make_request(params={"y": 2, "x": 1})
        assert a.content_hash == b.content_hash

    @pytest.mark.parametrize(
        "override",
        [
            {"experiment": "fig9"},
            {"pruning_rate": 0.8},
            {"workloads": (("AlexNet", "CIFAR-10"),)},
            {"scale": ExperimentScale.thorough()},
            {"params": {"alpha": [1, 2, 4], "mode": "fast", "flag": True}},
        ],
    )
    def test_hash_is_sensitive_to_every_field(self, override):
        assert make_request(**override).content_hash != make_request().content_hash


class TestResultRoundTrip:
    def test_result_round_trip(self):
        result = ExperimentResult(
            experiment="fig8",
            request=make_request(),
            payload={"mean_speedup": 2.5},
            summary="table text",
            timings=(("train", 1.5), ("report", 0.1)),
            cache_hits=(("train", True),),
            native=object(),  # never serialized
        )
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.experiment == result.experiment
        assert restored.request == result.request
        assert restored.payload == result.payload
        assert restored.summary == result.summary
        assert restored.stage_seconds == {"train": 1.5, "report": 0.1}
        assert restored.native is None


class TestRunOptions:
    def test_caches_disabled(self):
        options = RunOptions(use_cache=False)
        assert options.density_cache() is None

    def test_caches_land_in_cache_dir(self, tmp_path):
        options = RunOptions(cache_dir=tmp_path)
        assert str(options.density_cache().path).startswith(str(tmp_path))

    def test_legacy_worker_inputs_are_validated_then_ignored(self):
        # Every stage runs in process; older callers still pass these.
        for kwargs in ({"max_workers": 1}, {"max_workers": 4}, {"parallel": False}):
            options = RunOptions(use_cache=False, **kwargs)
            assert options == RunOptions(use_cache=False)
            assert "max_workers" not in vars(options)
            assert "parallel" not in vars(options)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": 0},
            {"max_workers": -2},
            {"max_workers": 2.0},
            {"max_workers": True},
            {"parallel": "yes"},
            {"parallel": None},
        ],
    )
    def test_bad_legacy_worker_inputs_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            RunOptions(**kwargs)
