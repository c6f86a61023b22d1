"""Hash stability of requests that carry the legacy ``fidelity`` input.

Requests once had a hash-affecting ``fidelity`` tier.  It is still accepted
(and validated) but never serialized, so:

* requests keep their content hashes bit for bit — pinned below against
  hashes computed before the field existed;
* a request hashes the same whichever legacy tier it names, so identical
  submissions dedup however old the client that sent them.
"""

from __future__ import annotations

import json

import pytest

from repro.api import ExperimentRequest

# Content hashes computed on the seed code base, before the fidelity field
# existed.  These must never change.
PINNED_SWEEP_HASH = "2551fa9699dcba75aa5d7c02c8f129f9cee411eb1152fd98a8f1b7907cb44263"
PINNED_FIG8_HASH = "53828017b485b95225b8c92738f5df1da181532f018831b3799fa708901059be"


def _sweep_request(**kwargs) -> ExperimentRequest:
    return ExperimentRequest(
        experiment="sweep",
        workloads=(("AlexNet", "CIFAR-10"),),
        pruning_rate=0.9,
        params={
            "pes": [84, 168],
            "buffers": [386],
            "pruning_rates": [0.9],
            "sample": None,
            "seed": 0,
        },
        **kwargs,
    )


class TestLegacyHashStability:
    def test_pinned_seed_hashes_unchanged(self):
        assert _sweep_request().content_hash == PINNED_SWEEP_HASH
        assert (
            ExperimentRequest(experiment="fig8").content_hash == PINNED_FIG8_HASH
        )

    def test_default_fidelity_not_serialized(self):
        data = _sweep_request().to_dict()
        assert "fidelity" not in data
        assert ExperimentRequest.from_dict(data).to_dict() == data

    def test_explicit_default_equals_legacy(self):
        assert (
            _sweep_request(fidelity="vectorized").content_hash == PINNED_SWEEP_HASH
        )


class TestLegacyFidelityInput:
    def test_legacy_tiers_hash_like_no_fidelity(self):
        for tier in ("analytic", "scalar", "vectorized"):
            request = _sweep_request(fidelity=tier)
            assert request.content_hash == PINNED_SWEEP_HASH
            assert "fidelity" not in request.to_dict()
            data = dict(_sweep_request().to_dict(), fidelity=tier)
            assert ExperimentRequest.from_dict(data).content_hash == PINNED_SWEEP_HASH

    def test_bogus_fidelity_raises(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            _sweep_request(fidelity="bogus")
        with pytest.raises(ValueError, match="unknown fidelity"):
            ExperimentRequest.from_dict(dict(_sweep_request().to_dict(), fidelity="bogus"))

    def test_stored_analytic_job_row_still_loads(self, tmp_path):
        from repro.serve.store import JobStore

        store = JobStore(tmp_path / "serve.db")
        try:
            job, _ = store.submit(_sweep_request())
            # A row written when the request schema still stored the tier.
            legacy_json = json.dumps(dict(_sweep_request().to_dict(), fidelity="analytic"))
            with store._lock:
                store._conn.execute(
                    "UPDATE jobs SET request = ? WHERE id = ?", (legacy_json, job.id)
                )
                store._conn.commit()
            row = store.get(job.id)
            assert row.request() == _sweep_request()
            payload = row.to_dict()
            assert payload["request"]["fidelity"] == "analytic"
            assert "fidelity" not in {key for key in payload if key != "request"}
            # A new submission naming the old tier dedups onto the same job.
            again, deduped = store.submit(_sweep_request(fidelity="analytic"))
            assert deduped and again.id == job.id
        finally:
            store.close()
