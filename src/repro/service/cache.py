"""Content-addressed result cache: JSON files on disk with an LRU front.

Verdicts are keyed by the job fingerprint (:mod:`repro.service.fingerprint`).
The disk layout shards entries by the first two hex digits of the fingerprint
(``<dir>/ab/abcdef….json``) so directories stay small even with hundreds of
thousands of entries.  Writes are atomic (temp file + ``os.replace``) and a
corrupt or stale entry is treated as a miss and deleted, never propagated.

This is the *verdict* cache (whole checks skipped across service runs); it
is distinct from the in-process Presburger *operation* cache of
:mod:`repro.presburger.opcache`, which accelerates the set/relation algebra
inside a running check.  The two compound: a batch first consults this
cache, and only the misses exercise (and warm) the operation cache.

An in-memory LRU front (bounded, default 1024 entries) makes repeated hits
within one batch run free of any filesystem traffic.  The cache can also run
purely in memory (``directory=None``) for ephemeral runs and tests.

One lock guards the memory tier and the counters, so the server's worker
threads can share one cache; disk reads and writes happen outside it.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..checker import EquivalenceResult
from .fingerprint import CACHE_FORMAT_VERSION

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Counters of one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    store_errors: int = 0
    memory_hits: int = 0
    corrupt_entries: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_errors": self.store_errors,
            "memory_hits": self.memory_hits,
            "corrupt_entries": self.corrupt_entries,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """A two-level (memory LRU over disk JSON) verdict cache."""

    def __init__(self, directory: Optional[str] = None, memory_entries: int = 1024):
        self.directory = os.path.abspath(directory) if directory else None
        self.memory_entries = max(0, memory_entries)
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, EquivalenceResult]" = OrderedDict()
        self._lock = threading.Lock()
        if self.directory:
            os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------ #
    def _path(self, fingerprint: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, fingerprint[:2], fingerprint + ".json")

    def _remember(self, fingerprint: str, result: EquivalenceResult) -> None:
        # Caller holds self._lock.
        if self.memory_entries == 0:
            return
        self._memory[fingerprint] = result
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _drop_corrupt(self, path: str) -> None:
        with self._lock:
            self.stats.corrupt_entries += 1
        try:
            os.remove(path)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    def get(self, fingerprint: str) -> Optional[EquivalenceResult]:
        """The cached verdict for *fingerprint*, or ``None`` on a miss."""
        with self._lock:
            cached = self._memory.get(fingerprint)
            if cached is not None:
                self._memory.move_to_end(fingerprint)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return cached
        if self.directory:
            path = self._path(fingerprint)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload.get("format_version") != CACHE_FORMAT_VERSION:
                    raise ValueError("stale cache format")
                if payload.get("fingerprint") != fingerprint:
                    raise ValueError("fingerprint mismatch")
                result = EquivalenceResult.from_dict(payload["result"])
            except FileNotFoundError:
                pass
            except (OSError, ValueError, KeyError, TypeError):
                self._drop_corrupt(path)
            else:
                with self._lock:
                    self._remember(fingerprint, result)
                    self.stats.hits += 1
                return result
        with self._lock:
            self.stats.misses += 1
        return None

    def put(self, fingerprint: str, result: EquivalenceResult) -> None:
        """Store a verdict under *fingerprint* (atomically on disk)."""
        with self._lock:
            self._remember(fingerprint, result)
            self.stats.stores += 1
        if not self.directory:
            return
        path = self._path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "format_version": CACHE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "result": result.to_dict(),
        }
        fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.remove(temp_path)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        """The number of entries on disk (memory-only: entries in the LRU)."""
        if not self.directory:
            return len(self._memory)
        count = 0
        for _root, _dirs, files in os.walk(self.directory):
            count += sum(1 for name in files if name.endswith(".json"))
        return count

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        with self._lock:
            self._memory.clear()
        if self.directory:
            for root, _dirs, files in os.walk(self.directory):
                for name in files:
                    if name.endswith(".json"):
                        try:
                            os.remove(os.path.join(root, name))
                        except OSError:
                            pass
