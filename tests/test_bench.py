"""Tests for the ``repro bench`` harness and its CLI wiring."""

from __future__ import annotations

import json

import pytest

from pathlib import Path

from repro.bench import (
    SMOKE_SCALE,
    BenchResult,
    _write_atomic,
    check_regression,
    run_bench,
)
from repro.cli import main
from repro.explore.cache import ResultCache


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    """One shared smoke bench run (trains a tiny model once per module)."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_repro.json"
    result = run_bench(smoke=True, out=out, density_cache=None)
    return result, out


class TestRunBench:
    def test_stages_present(self, smoke_result):
        result, _ = smoke_result
        assert set(result.stages) == {"train", "compile", "simulate", "rowop_validate"}
        for stage in result.stages.values():
            assert stage["seconds"] >= 0.0

    def test_rowop_stage_is_exact_and_faster(self, smoke_result):
        result, _ = smoke_result
        rowop = result.stages["rowop_validate"]
        assert rowop["exact"] is True
        assert rowop["ops"] > 0
        # The acceptance bar (>= 10x) is asserted on the full-scale bench in
        # CI-adjacent runs; the smoke layer is tiny, so only require a clear
        # win here to keep the test robust on loaded machines.
        assert rowop["speedup"] > 2.0

    def test_payload_written(self, smoke_result):
        result, out = smoke_result
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["smoke"] is True
        assert payload["rowop_speedup"] == result.rowop_speedup
        assert set(payload["stages"]) == set(result.stages)

    def test_format_mentions_speedup(self, smoke_result):
        result, _ = smoke_result
        text = result.format()
        assert "rowop_validate" in text and "speedup" in text

    def test_out_none_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_bench(smoke=True, out=None, density_cache=None)
        assert isinstance(result, BenchResult)
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_density_cache_hit_recorded(self, tmp_path):
        cache = ResultCache(tmp_path / "densities.jsonl")
        first = run_bench(smoke=True, out=None, density_cache=cache)
        assert first.stages["train"]["cache_hit"] is False
        second = run_bench(smoke=True, out=None, density_cache=cache)
        assert second.stages["train"]["cache_hit"] is True
        # The cached re-run skips retraining entirely.
        assert second.stages["train"]["seconds"] <= first.stages["train"]["seconds"]


class TestMetricsSnapshot:
    def test_payload_carries_stage_quantiles(self, smoke_result):
        """BENCH_repro.json includes the p50/p95 telemetry snapshot."""
        _, out = smoke_result
        payload = json.loads(out.read_text())
        stage_seconds = payload["metrics"]["stage_seconds"]
        assert {"train", "compile", "simulate"} <= set(stage_seconds)
        for info in stage_seconds.values():
            assert info["count"] >= 1
            assert info["p50"] is not None and info["p95"] is not None

    def test_no_temp_files_left_behind(self, smoke_result):
        _, out = smoke_result
        assert not list(out.parent.glob("*.tmp"))


class TestAtomicWrite:
    def test_replaces_existing_file_atomically(self, tmp_path):
        out = tmp_path / "BENCH_repro.json"
        out.write_text('{"stale": true}')
        _write_atomic(out, {"fresh": True})
        assert json.loads(out.read_text()) == {"fresh": True}
        assert not list(tmp_path.glob("*.tmp"))

    def test_nonregular_target_written_directly(self):
        """CI passes --out /dev/null; there is nothing to rename onto it."""
        _write_atomic(Path("/dev/null"), {"discard": True})  # must not raise

    def test_failed_serialization_leaves_target_intact(self, tmp_path):
        out = tmp_path / "BENCH_repro.json"
        out.write_text('{"original": true}')
        with pytest.raises(TypeError):
            _write_atomic(out, {"bad": object()})
        assert json.loads(out.read_text()) == {"original": True}
        assert not list(tmp_path.glob("*.tmp"))


def _payload(
    speedup: float,
    stages: dict[str, float] | None = None,
    smoke: bool = False,
) -> dict:
    """A minimal bench payload with the given rowop speedup and stage p95s."""
    stage_seconds = {
        stage: {"count": 1, "p50": p95, "p95": p95}
        for stage, p95 in (stages or {}).items()
    }
    return {
        "schema": 1,
        "smoke": smoke,
        "rowop_speedup": speedup,
        "metrics": {"stage_seconds": stage_seconds},
    }


class TestCheckRegression:
    def test_within_tolerance_passes(self):
        violations, checked = check_regression(
            _payload(10.0, {"train": 1.0}),
            _payload(11.0, {"train": 0.9}),
        )
        assert violations == []
        assert any("rowop_speedup" in note for note in checked)
        assert any("stage train" in note for note in checked)

    def test_speedup_regression_detected(self):
        violations, _ = check_regression(_payload(7.9), _payload(10.0))
        assert len(violations) == 1
        assert "rowop_speedup regressed" in violations[0]
        # Exactly at the floor (10.0 * 0.8) is still a pass.
        assert check_regression(_payload(8.0), _payload(10.0))[0] == []

    def test_stage_p95_regression_detected(self):
        violations, _ = check_regression(
            _payload(10.0, {"train": 1.3}), _payload(10.0, {"train": 1.0})
        )
        assert len(violations) == 1
        assert "stage train p95 regressed" in violations[0]

    def test_noise_floor_stages_are_skipped(self):
        """A 10x blowup of a 1ms stage is noise, not a regression."""
        violations, checked = check_regression(
            _payload(10.0, {"compile": 0.010}),
            _payload(10.0, {"compile": 0.001}),
        )
        assert violations == []
        assert any("noise floor" in note for note in checked)

    def test_stage_missing_from_current_is_skipped(self):
        violations, checked = check_regression(
            _payload(10.0, {}), _payload(10.0, {"train": 1.0})
        )
        assert violations == []
        assert any("p95 missing" in note for note in checked)

    def test_cache_hit_stage_is_not_compared_with_a_cold_run(self):
        """A 0 s cache-hit ``train`` must not pass against a cold baseline."""
        current = _payload(10.0, {"train": 0.001, "report": 1.0})
        current["stages"] = {"train": {"cache_hit": True}}
        baseline = _payload(10.0, {"train": 1.5, "report": 1.0})
        baseline["stages"] = {"train": {"cache_hit": False}}
        violations, checked = check_regression(current, baseline)
        assert violations == []
        assert any(
            note.startswith("stage train: skipped") and "cache_hit" in note
            for note in checked
        )
        assert not any(note.startswith("stage train p95") for note in checked)
        # Stages without a cache flag are still compared.
        assert any(note.startswith("stage report p95") for note in checked)

    def test_scale_mismatch_raises(self):
        with pytest.raises(ValueError, match="scale mismatch"):
            check_regression(_payload(10.0, smoke=True), _payload(10.0))

    def test_tolerance_is_configurable(self):
        current, baseline = _payload(9.5), _payload(10.0)
        assert check_regression(current, baseline, tolerance=0.1)[0] == []
        assert check_regression(current, baseline, tolerance=0.01)[0] != []


class TestBenchCheckCLI:
    def test_missing_baseline_exits_2(self, tmp_path):
        code = main(
            [
                "bench", "--smoke", "--check",
                "--baseline", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "bench.json"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 2

    def test_scale_mismatch_exits_2(self, tmp_path, capsys):
        baseline = tmp_path / "full.json"
        baseline.write_text(json.dumps(_payload(10.0, smoke=False)))
        code = main(
            [
                "bench", "--smoke", "--check", "--baseline", str(baseline),
                "--out", str(tmp_path / "bench.json"),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 2
        assert "scale mismatch" in capsys.readouterr().err

    def test_regression_exits_1_and_clean_run_exits_0(self, tmp_path, capsys):
        # A deliberately unbeatable baseline: the smoke run cannot reach a
        # 1000x speedup, so the check must fail...
        impossible = tmp_path / "impossible.json"
        impossible.write_text(
            json.dumps(_payload(1000.0, {"train": 100.0}, smoke=True))
        )
        out = tmp_path / "bench.json"
        args = ["--out", str(out), "--cache-dir", str(tmp_path / "cache")]
        code = main(["bench", "--smoke", "--check", "--baseline",
                     str(impossible)] + args)
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err
        # ...while a generous baseline passes (exit 0) using the same run
        # shape; the payload just written is a valid baseline format.
        generous = tmp_path / "generous.json"
        generous.write_text(
            json.dumps(_payload(1.0, {"train": 1000.0}, smoke=True))
        )
        code = main(["bench", "--smoke", "--check", "--baseline",
                     str(generous)] + args)
        assert code == 0
        assert "no regression" in capsys.readouterr().out

    def test_committed_baseline_is_checkable(self):
        """The repo's BENCH_repro.json must parse and be full-scale."""
        payload = json.loads(
            (Path(__file__).resolve().parents[1] / "BENCH_repro.json").read_text()
        )
        assert payload["smoke"] is False
        assert payload["rowop_speedup"] >= 10.0
        assert payload["metrics"]["stage_seconds"]
        # Self-comparison is the identity check: zero violations.
        violations, _ = check_regression(payload, payload)
        assert violations == []


class TestBenchCLI:
    def test_cli_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--smoke", "--out", str(out),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "rowop_validate" in captured
        assert json.loads(out.read_text())["smoke"] is True

    def test_smoke_scale_is_small(self):
        assert SMOKE_SCALE.num_samples <= 128 and SMOKE_SCALE.epochs == 1
