"""In-memory spans for the traced run, and the layer wrappers that emit them.

A span is (id, name, start, end, parent, op): ``op`` names the benchmark
operation the span belongs to (``figures#0``, ``job:17``, ...), so every span
of one operation shares an identifier.  Spans stay in memory and are written
out once, when the run ends.

The untraced run uses :data:`NULL`, whose ``span`` and ``op`` do nothing; the
traced run installs :func:`instrument`, which wraps the public functions the
benchmark's calls reach inside each layer, for the duration of the run only.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None


class Tracer:
    """Collects spans and counts; parents come from a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, getattr(self._local, "op", None))
            )

    def count(self, name: str, amount: float = 1) -> None:
        """Add to ``name`` under the current operation's path (``figures``
        for ``figures#0``, ``sweep`` for ``sweep.serial``)."""
        path = (getattr(self._local, "op", None) or "").split("#")[0].split(".")[0]
        with self._lock:
            self.counts[path, name] += amount

    # ------------------------------------------------------------------
    def _select(self, op_prefix: str) -> list[Span]:
        return [s for s in self.spans if (s.op or "").startswith(op_prefix)]

    def self_seconds(self, op_prefix: str = "") -> Counter[str]:
        """Per span name: duration minus the time its child spans cover."""
        spans = self._select(op_prefix)
        child_time: Counter[int] = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Counter[str] = Counter()
        for span in spans:
            out[span.name] += (span.end - span.start) - child_time[span.id]
        return out

    def total_seconds(self, op_prefix: str = "") -> Counter[str]:
        """Per span name: wall time of the outermost spans of that name."""
        by_id = {span.id: span for span in self.spans}
        out: Counter[str] = Counter()
        for span in self._select(op_prefix):
            parent = by_id.get(span.parent) if span.parent is not None else None
            nested = False
            while parent is not None:
                if parent.name == span.name:
                    nested = True
                    break
                parent = by_id.get(parent.parent) if parent.parent is not None else None
            if not nested:
                out[span.name] += span.end - span.start
        return out

    def span_count(self, prefix: str, op_prefix: str = "") -> int:
        return sum(1 for s in self._select(op_prefix) if s.name.startswith(prefix))

    def write(self, path: Path) -> None:
        """Write every span and count as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "spans": [span._asdict() for span in self.spans],
                    "counts": {f"{op_path}:{name}": value for (op_path, name), value in self.counts.items()},
                }
            )
            + "\n",
            encoding="utf-8",
        )


class _NullTracer:
    """Stand-in for untraced runs: ``op`` and ``span`` do nothing."""

    def op(self, op_id: str):
        return nullcontext()

    def span(self, name: str):
        return nullcontext()


NULL = _NullTracer()


# ---------------------------------------------------------------------------
# Layer wrappers
# ---------------------------------------------------------------------------

def _resolve(path: str) -> Any:
    """``"pkg.mod"`` or ``"pkg.mod.Class"`` -> the module or class object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _nonzero(array: Any) -> int:
    import numpy as np

    return int(np.count_nonzero(array))


def _prune_hook(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("pruning.nonzero_in", _nonzero(args[1]))
    tracer.count("pruning.nonzero_out", _nonzero(result))


def _compile_hook(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("dataflow.instructions", len(result.instructions))


def _sweep_cache(method: str, span_name: str) -> Callable[[Tracer, Callable], Callable]:
    """Wrap ``ResultCache.<method>`` for the sweep store only (not densities)."""

    def make(tracer: Tracer, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            if self.path.stem != "sweeps":
                return original(self, *args, **kwargs)
            with tracer.span(span_name):
                result = original(self, *args, **kwargs)
            if method == "get":
                tracer.count("explore.cache_hits" if result is not None else "explore.cache_misses")
            return result

        return wrapper

    return make


def _timed(span_name: str, hook: Callable | None = None):
    def make(tracer: Tracer, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    return make


#: (owner, attribute, wrapper factory).  Each owner is the module or class
#: through which the calls are looked up at call time, so replacing the
#: attribute there reaches every caller: layers call ``F.conv2d_forward``,
#: ``fig8`` resolves ``profile_training_densities`` from its own globals, etc.
LAYER_WRAPPERS: tuple[tuple[str, str, Callable], ...] = (
    ("repro.eval.fig8", "profile_training_densities", _timed("eval.measure_densities")),
    ("repro.nn.functional", "conv2d_forward", _timed("nn.conv2d_forward")),
    ("repro.nn.functional", "conv2d_backward", _timed("nn.conv2d_backward")),
    ("repro.nn.functional", "im2col", _timed("nn.im2col")),
    ("repro.nn.functional", "col2im", _timed("nn.col2im")),
    ("repro.nn.functional", "maxpool2d_forward", _timed("nn.maxpool")),
    ("repro.nn.functional", "maxpool2d_backward", _timed("nn.maxpool")),
    ("repro.pruning.layer_pruner.LayerPruner", "prune", _timed("pruning.prune", _prune_hook)),
    ("repro.sim.runner", "compile_training_iteration", _timed("dataflow.compile", _compile_hook)),
    ("repro.sim.runner", "compare_workload", _timed("sim.compare")),
    ("repro.explore.engine", "compare_workload", _timed("sim.compare")),
    ("repro.explore.cache.ResultCache", "get", _sweep_cache("get", "explore.cache_get")),
    ("repro.explore.cache.ResultCache", "put", _sweep_cache("put", "explore.cache_put")),
    ("repro.analytic.model", "evaluate_grid_analytic", _timed("analytic.eval")),
    ("repro.analytic.model", "evaluate_points_analytic", _timed("analytic.eval")),
)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper; restore the originals on exit.

    Wrapped callables are closures, which cannot be pickled: the functions a
    worker pool ships (``evaluate_point``, ``_run_job``) are left alone, and
    spans raised inside pool workers stay in those processes.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner_path, attr, make in LAYER_WRAPPERS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
