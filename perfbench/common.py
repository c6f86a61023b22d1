"""Helpers shared by the benchmark phases: outcomes, statistics, isolation."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

#: Root of the checkout the benchmark runs from (holds ``src/repro``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives under here (gitignored).
WORK_ROOT = ROOT / ".perfbench"


def subprocess_env() -> dict[str, str]:
    """Environment under which child interpreters import this checkout's ``repro``."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def fresh_dir(parent: Path, prefix: str) -> Path:
    """A new empty directory under ``parent`` (caches and job dbs start empty)."""
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


#: The CPU single-threaded passes are pinned to (see :func:`on_sampler_cpu`).
SAMPLER_CPU = min(os.sched_getaffinity(0))


@contextmanager
def on_sampler_cpu() -> Iterator[None]:
    """Run the calling thread on :data:`SAMPLER_CPU`.

    The reference host's two CPUs drift in speed independently, so a
    single-threaded pass is pinned and rescaled by that CPU's speed alone.
    Use it only around single-threaded work: threads started inside inherit
    the pin, and numpy's BLAS pool, restarted lazily after every fork, would
    then crowd onto one CPU (8x slower training).
    """
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {SAMPLER_CPU})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


class SpeedSampler:
    """Each CPU's speed relative to the reference host, while a run lasts.

    The reference host's CPUs each drift between two speeds about 1.7x
    apart over seconds to minutes (the same fixed loop takes 20-34 ms),
    which would swamp any change to the program.  ``perfbench/sampler.py``
    runs beside the benchmark in its own process, timing a fixed
    calibration unit on every CPU every 50 ms.  A time ``t`` measured over
    a window whose mean speed was ``s`` is reported as ``t * s``, a rate
    ``r`` as ``r / s``.  The unit runs none of the program's code, so a
    change to the program moves rescaled metrics as it moves raw ones.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, int, float]] = []
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "SpeedSampler":
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("sampler.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc: Any) -> None:
        output, _ = self._process.communicate(timeout=30)
        for line in output.splitlines():
            at, cpu, speed = line.split()
            self.samples.append((float(at), int(cpu), float(speed)))

    def speed(self, start: float, end: float, cpu: int | None = None) -> float:
        """Mean speed over ``[start, end]`` of one CPU, or of all when
        ``cpu`` is None; the nearest samples when none fell inside."""
        samples = [(at, speed) for at, on, speed in self.samples if cpu is None or on == cpu]
        inside = [speed for at, speed in samples if start <= at <= end]
        if inside:
            return statistics.fmean(inside)
        before = [speed for at, speed in samples if at < start][-1:]
        after = [speed for at, speed in samples if at > end][:1]
        return statistics.fmean(before + after) if before or after else 1.0


def digest(value: Any) -> str:
    """sha256 of the canonical JSON form of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Iterable[float], q: int) -> float:
    """Interpolated ``q``-th percentile; ``inf`` entries (failed jobs) sort
    last, so a failure counts as missing any latency limit."""
    return float(statistics.quantiles(sorted(values), n=100, method="inclusive")[q - 1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class PhaseResult:
    """What one pass of a path produced.

    ``samples`` maps an end-to-end metric to the values this pass measured,
    each with the window it was measured over (the run reports their
    median, or a percentile of pooled latencies);
    ``op_seconds`` is the timed work the pass did, the base of the
    trace-overhead ratio.
    """

    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    op_seconds: float = 0.0
    digest: str = ""
    notes: list[str] = field(default_factory=list)
    windows: dict[str, list[tuple]] = field(default_factory=dict)
    passes: int = 1

    def add(self, metric: str, value: float, window: tuple) -> None:
        """Record ``value``, measured over ``window``: perf_counter start and
        end, and the CPU the work was pinned to, if it was."""
        self.samples.setdefault(metric, []).append(float(value))
        self.windows.setdefault(metric, []).append(window)

    def rescaled(self, sampler: SpeedSampler) -> dict[str, list[float]]:
        """Every sample expressed at reference host speed."""
        out: dict[str, list[float]] = {}
        for metric, values in self.samples.items():
            rate = metric.endswith("_per_s")
            speeds = [sampler.speed(*window) for window in self.windows[metric]]
            out[metric] = [
                value / speed if rate else value * speed
                for value, speed in zip(values, speeds)
            ]
        return out

    def merge(self, other: "PhaseResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for metric, values in other.samples.items():
            self.samples.setdefault(metric, []).extend(values)
            self.windows.setdefault(metric, []).extend(other.windows[metric])
        self.layer.update(other.layer)
        self.op_seconds += other.op_seconds
        self.notes.extend(other.notes)
        self.passes += other.passes
