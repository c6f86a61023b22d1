"""The legacy ``fidelity`` request input: validated, then ignored."""

from __future__ import annotations

import pytest

from repro.api import ExperimentRequest


class TestRequestFidelityField:
    def test_default_and_normalization(self):
        default = ExperimentRequest(experiment="sweep")
        for value in ("analytic", " ANALYTIC ", "Scalar", "vectorized"):
            request = ExperimentRequest(experiment="sweep", fidelity=value)
            assert request == default
            assert request.to_dict() == default.to_dict()

    def test_invalid_fidelity_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            ExperimentRequest(experiment="sweep", fidelity="exact")
