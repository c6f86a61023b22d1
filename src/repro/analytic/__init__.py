"""repro.analytic — the closed-form cost model and its validation.

Two pieces:

* :mod:`repro.analytic.model` — vectorized closed-form estimators over
  batched design-point grids; every sweep, Pareto front and ablation sweep
  evaluates through it.
* :mod:`repro.analytic.validate` — the ``analytic-validate`` experiment,
  which compares the closed form against the simulator reference
  (:func:`repro.explore.engine.evaluate_point`) under enforceable
  per-metric error bounds.

Both are exposed lazily: they import the explore and api layers, which
importing this package alone should not pull in.
"""

from __future__ import annotations

_LAZY_SUBMODULES = ("model", "validate")

__all__ = [
    "model",
    "validate",
]


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        module = importlib.import_module(f"repro.analytic.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
