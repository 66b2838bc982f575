"""The power-of-two latency histogram of the verification stack.

Where spans (:mod:`repro.telemetry.trace`) answer *where did the time go*,
a :class:`Histogram` answers *how is it spread*: the verification daemon
keeps one per request and per check latency, always on, and ships their
snapshots in its ``stats`` payload.  Work counts have one owner each
instead: the Presburger work in
:class:`~repro.presburger.opcache.OpCacheStats`, the per-check traversal
counts in :class:`~repro.checker.result.CheckStats` and the daemon's
lifetime counts in :class:`~repro.server.pool.ServerStats`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["Histogram"]


class Histogram:
    """Count/sum/min/max plus power-of-two magnitude buckets.

    Bucket ``k`` counts observations ``v`` with ``2**(k-1) < |v| <= 2**k``
    (bucket 0 counts ``|v| <= 1``), which is coarse but cheap.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")
    kind = "histogram"
    MAX_BUCKET = 40

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.buckets: List[int] = [0] * (self.MAX_BUCKET + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        magnitude = abs(value)
        bucket = 0
        while magnitude > 1 and bucket < self.MAX_BUCKET:
            magnitude /= 2.0
            bucket += 1
        self.buckets[bucket] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in enumerate(self.buckets) if v},
        }
