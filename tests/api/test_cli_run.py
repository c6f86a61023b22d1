"""CLI registry dispatch: ``repro list``, ``repro run``, and error paths."""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentResult
from repro.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListCommand:
    def test_lists_experiments_and_workloads(self, capsys):
        code, out, _ = run_cli(["list"], capsys)
        assert code == 0
        for name in ("fig8", "fig9", "table1", "table2", "sweep", "pareto"):
            assert name in out
        for workload in ("AlexNet", "ResNet-18", "VGG-16", "MobileNetV1"):
            assert workload in out


class TestRunCommand:
    def test_unknown_experiment_lists_alternatives_and_fails(self, capsys):
        code, _, err = run_cli(["run", "nope"], capsys)
        assert code == 2
        assert "unknown experiment 'nope'" in err
        assert "fig8" in err and "sweep" in err  # the helpful listing

    def test_unknown_workload_lists_alternatives_and_fails(self, capsys):
        code, _, err = run_cli(
            ["run", "fig8", "--workloads", "LeNet/CIFAR-10"], capsys
        )
        assert code == 2
        assert "unknown workload model 'LeNet'" in err
        assert "AlexNet" in err

    def test_unknown_dataset_fails_helpfully(self, capsys):
        code, _, err = run_cli(
            ["run", "fig8", "--workloads", "AlexNet/MNIST"], capsys
        )
        assert code == 2
        assert "unknown dataset" in err and "CIFAR-10" in err

    def test_bad_set_syntax_fails(self, capsys):
        code, _, err = run_cli(["run", "ablate-fifo", "--set", "oops"], capsys)
        assert code == 2
        assert "key=value" in err

    def test_run_ablation_summary(self, capsys):
        code, out, _ = run_cli(
            ["run", "ablate-fifo", "--set", "fifo_depths=[1,5]",
             "--set", "num_batches=16", "--set", "batch_elements=1024"],
            capsys,
        )
        assert code == 0
        assert "depth" in out and "target" in out

    def test_run_json_round_trips(self, capsys, tmp_path):
        out_file = tmp_path / "result.json"
        code, out, _ = run_cli(
            ["run", "ablate-rate", "--json", "--out", str(out_file),
             "--set", "pruning_rates=[0.0,0.9]"],
            capsys,
        )
        assert code == 0
        # stdout carries the same JSON document that was written to --out.
        printed = json.loads(out)
        written = json.loads(out_file.read_text())
        assert printed == written
        result = ExperimentResult.from_json(out_file.read_text())
        assert result.experiment == "ablate-rate"
        assert len(result.payload["points"]) == 2
        assert result.request.param("pruning_rates") == [0.0, 0.9]
        assert set(result.stage_seconds) == {"compile", "simulate", "report"}

    def test_smoke_flag_selects_smoke_scale(self, capsys):
        code, out, _ = run_cli(
            ["run", "ablate-pes", "--smoke", "--json", "--set", "pe_counts=[84]"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["request"]["scale"]["num_samples"] == 96
        assert payload["request"]["scale"]["epochs"] == 1

    def test_unknown_scale_preset_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig8", "--scale", "galactic"])
