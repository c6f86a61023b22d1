"""Persistent JSON-lines key -> record store.

Every computed value is appended to an on-disk JSON-lines file keyed by a
stable content hash of its full input description, so a repeated run skips
every value already computed with identical inputs.  The measured-density
cache (:mod:`repro.eval.density_cache`) and the pipeline's per-stage cache
hook (:meth:`repro.api.PipelineContext.cached`) store through it.

The format is append-only and human-greppable: one ``{"key": ..., "record":
...}`` object per line.  If the same key is appended twice (two processes
racing on the same file), the last line wins on reload, and both carry the
same payload by construction, so the race is benign.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple

from repro.obs import metrics

# Default cache location, relative to the working directory (gitignored).
DEFAULT_CACHE_DIR = ".repro-cache"


def stable_key(payload: Mapping[str, Any]) -> str:
    """Deterministic content hash of a JSON-serialisable mapping."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CacheInfo(NamedTuple):
    """Lookup statistics of one :class:`ResultCache` instance.

    Mirrors the ``functools.lru_cache`` ``cache_info()`` idiom:
    ``hits``/``misses`` count :meth:`ResultCache.get` outcomes, ``corrupt``
    counts JSONL lines dropped at load time, ``entries`` is the live size.
    """

    hits: int
    misses: int
    corrupt: int
    entries: int


class ResultCache:
    """On-disk key -> record-dict store with an in-memory index.

    Every lookup is double-counted: locally (:meth:`cache_info`) and into the
    process-global metrics registry (``cache.hits`` / ``cache.misses`` /
    ``cache.corrupt_lines`` counters labelled by the cache file's stem, e.g.
    ``cache="densities"``), which is where the service's ``/stats`` hit rates
    come from.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: dict[str, dict[str, Any]] = {}
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        corrupt = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    self._records[entry["key"]] = entry["record"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # A truncated line (interrupted writer) only loses that
                    # one entry; the value is simply recomputed.
                    corrupt += 1
        if corrupt:
            self._corrupt = corrupt
            metrics().counter("cache.corrupt_lines", cache=self.path.stem).inc(corrupt)
            warnings.warn(
                f"result cache {self.path}: skipped {corrupt} corrupt/truncated "
                f"line(s) (torn write?); the affected entries will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> dict[str, Any] | None:
        """Cached record dict for ``key``, or ``None`` on a miss."""
        record = self._records.get(key)
        if record is not None:
            self._hits += 1
            metrics().counter("cache.hits", cache=self.path.stem).inc()
        else:
            self._misses += 1
            metrics().counter("cache.misses", cache=self.path.stem).inc()
        return record

    def cache_info(self) -> CacheInfo:
        """Hit/miss/corrupt-line statistics of this cache instance."""
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            corrupt=self._corrupt,
            entries=len(self._records),
        )

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Store a record, appending it to the on-disk file."""
        record = dict(record)
        if self._records.get(key) == record:
            return
        self._records[key] = record
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": key, "record": record}) + "\n")

    def items(self) -> Iterator[tuple[str, dict[str, Any]]]:
        yield from self._records.items()

    def clear(self) -> None:
        """Drop every entry, in memory and on disk."""
        self._records.clear()
        if self.path.exists():
            self.path.unlink()
