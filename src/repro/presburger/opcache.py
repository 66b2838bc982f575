"""Hash-consing and memoization for the Presburger relation algebra.

Every equivalence check reduces to long chains of ``Map.compose``, inverses,
intersections, subtractions, projections and feasibility tests over the same
handful of dependency relations, so the checker keeps re-deriving results it
has already derived (the synchronized traversal of Section 5 revisits the
same relations once per path through a shared sub-ADDG).  This module
extends the paper's tabling idea (Section 6.2) one layer down, into the
integer set/relation operations themselves:

* **interning** (hash-consing) of :class:`~repro.presburger.conjunct.Conjunct`
  values, :class:`~repro.presburger.linexpr.LinExpr` values and normalized
  constraint vectors, so that structurally equal values become *the same
  object* and every later equality test or dict/set membership check is an
  O(1) identity-or-cached-hash comparison;
* a bounded, instrumented **operation cache** (LRU) that memoizes the
  results of the relation-algebra operations, keyed on the interned operands.

Both layers are per-process, purely an optimization, and can be switched
off with :func:`disabled` — results are bit-for-bit identical either way,
which the unit tests in ``tests/unit/presburger/test_opcache.py`` assert
property-style.

Public knobs
------------

:func:`disabled`
    Context manager that switches memoization and interning off for a code
    block (the one off switch; used by the ablation benchmarks and the
    cache-invariance tests).

:func:`attach_persistent` / :func:`detach_persistent`
    A disk-backed second tier (see :mod:`repro.presburger.persist`):
    in-memory misses consult ``<dir>/opcache.sqlite`` before recomputing,
    fresh results are written through, and decoded conjuncts repopulate the
    intern pools — so warm state survives processes and is shared by
    executor workers and the server pool.  Nothing is attached by default
    (memory-only); the process that owns the run attaches it once — the CLI
    and the daemon from their ``--persist-dir`` — and batch pool workers
    re-attach the parent's store.

:func:`collect` / :func:`stats` / :func:`reset`
    Instrumentation: counters of the cache tiers, the intern pools and the
    omega core's work.  A unit of work (a check, a job, a CLI run) reads
    its own counts from its :func:`collect` block, whatever other threads
    do meanwhile; :func:`stats` copies the process totals.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

from ..telemetry import TRACER as _TRACER
from .conjunct import Conjunct

__all__ = [
    "OpCacheStats",
    "OpCache",
    "attach_persistent",
    "cache",
    "collect",
    "detach_persistent",
    "disabled",
    "intern_conjunct",
    "intern_expr",
    "intern_vector",
    "memoized",
    "persistent_store",
    "reattach_persistent",
    "reset",
    "stats",
]

DEFAULT_SIZE = 8192
_INTERN_POOL_SIZE = 16384
_MISSING = object()


@dataclass
class OpCacheStats:
    """Counters of the operation cache, the intern pools and omega.

    ``hits``/``misses`` count memoized-operation lookups; ``per_op`` breaks
    them down by operation name (``"compose"``, ``"inverse"``, ``"ui"`` for
    union-intersect, ``"us"`` for union-subtract, ``"subset"`` for the
    union containment test, ``"project"``, ``"restrict"``, ``"simplify"``,
    ``"feasible"``, ``"lexmin"``).
    ``intern_hits``/``intern_misses`` count intern-pool lookups (a hit means
    an already-canonical object was reused).

    ``disk_hits``/``disk_misses``/``disk_writes``/``disk_errors`` count the
    optional persistent tier (always zero when no store is attached); a disk
    hit is *also* recorded as an ordinary hit for the consulted operation,
    since the caller got a cached result either way.

    ``fm_eliminations``/``dark_shadow_splinters``/``feasibility_checks``
    count the omega core's work (:mod:`repro.presburger.omega`): variable
    eliminations, dark-shadow splinters and integer-feasibility decisions
    (one per :func:`~repro.presburger.omega.is_feasible` call, recursive
    calls included), whether or not the operation that asked for them was
    memoized; feasibility itself is memoized per conjunct.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    disk_writes: int = 0
    disk_errors: int = 0
    fm_eliminations: int = 0
    dark_shadow_splinters: int = 0
    feasibility_checks: int = 0
    per_op: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def record(self, op: str, hit: bool) -> None:
        h, m = self.per_op.get(op, (0, 0))
        if hit:
            self.hits += 1
            self.per_op[op] = (h + 1, m)
        else:
            self.misses += 1
            self.per_op[op] = (h, m + 1)

    def merge(self, data: Dict[str, Any]) -> None:
        """Add counts in their :meth:`as_dict` form (a closed collector, a worker's shipment)."""
        for name in _COUNTS:
            setattr(self, name, getattr(self, name) + data.get(name, 0))
        for op, counts in data.get("per_op", {}).items():
            h, m = self.per_op.get(op, (0, 0))
            self.per_op[op] = (h + counts["hits"], m + counts["misses"])

    def as_dict(self) -> Dict[str, Any]:
        return {
            **{name: getattr(self, name) for name in _COUNTS},
            "per_op": {op: {"hits": h, "misses": m} for op, (h, m) in sorted(self.per_op.items())},
        }


#: The scalar counters of :class:`OpCacheStats` (every field but ``per_op``).
_COUNTS = tuple(f.name for f in fields(OpCacheStats) if f.name != "per_op")

#: The innermost open collector of this thread or asyncio task (:func:`collect`).
_SINK: ContextVar[Optional[OpCacheStats]] = ContextVar("repro_opcache_sink", default=None)


class _InternPool:
    """A bounded FIFO pool mapping a structural key to its canonical object.

    *key* derives a value's pool key (``None``: the value is its own key).
    Eviction only forfeits future sharing for the evicted entry; it never
    affects correctness, because callers always fall back to the object they
    were about to intern.  The pool reads its owner's ``enabled`` switch and
    counters itself, so a bound :meth:`canonical` is a complete intern
    function: :func:`intern_vector` is one, and costs a single call.
    """

    __slots__ = ("_entries", "_maxsize", "_owner", "_key")

    def __init__(
        self,
        owner: "OpCache",
        key: Callable[[Any], Hashable] | None = None,
        maxsize: int = _INTERN_POOL_SIZE,
    ):
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._maxsize = maxsize
        self._owner = owner
        self._key = key

    def canonical(self, value: Any) -> Any:
        """The pooled instance equal to *value* (*value* itself while the owner is disabled)."""
        owner = self._owner
        if not owner.enabled:
            return value
        key = value if self._key is None else self._key(value)
        entries = self._entries
        found = entries.get(key)
        if found is not None:
            owner.count("intern_hits")
            return found
        owner.count("intern_misses")
        entries[key] = value
        if len(entries) > self._maxsize:
            entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


def _expr_key(expr) -> Hashable:
    """The intern-pool key of a :class:`LinExpr`: its sorted terms and constant."""
    return (tuple(sorted(expr._coeffs.items())), expr._const)


class OpCache:
    """A bounded LRU cache for relation-algebra results plus intern pools.

    One instance per process (see :func:`cache`).  All stored results are
    immutable (:class:`Conjunct` tuples, ``Set``/``Map`` values, booleans),
    so returning the cached object itself — rather than a copy — is safe.

    Counter writes go to the innermost open :func:`collect` block of the
    calling thread or task without a lock; with none open they go to the
    process totals (:attr:`stats`) under :attr:`_lock`, as does every
    closing outermost collector.
    """

    def __init__(self, maxsize: int = DEFAULT_SIZE):
        self.maxsize = maxsize
        self.enabled = True
        self.stats = OpCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._conjuncts = _InternPool(self, key=Conjunct.normalized_key)
        self._exprs = _InternPool(self, key=_expr_key)
        self._vectors = _InternPool(self)
        # Optional disk-backed second tier (repro.presburger.persist); None
        # means memory-only.
        self._persist = None

    # ---------------------------- memoization --------------------------- #
    def memoized(self, op: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached result for ``(op, key)`` or compute and store it.

        *key* must capture every input that can influence the result of
        *compute* (the wrappers in :mod:`repro.presburger.setmap` build keys
        from interned conjunct tuples plus the dimension names that appear in
        the result).
        """
        if not self.enabled:
            return compute()
        full_key = (op, key)
        entries = self._entries
        found = entries.get(full_key, _MISSING)
        if found is not _MISSING:
            try:
                entries.move_to_end(full_key)
            except KeyError:
                pass  # another thread evicted it since the get; the value is still good
            self.record(op, True)
            return found
        store = self._persist
        if store is not None:
            found = store.load(op, key)
            if found is not store.MISS:
                # A disk hit is still a cache hit for the caller; promote it
                # into the memory tier so repeats stay identity-fast.
                self.record(op, True)
                self.count("disk_hits")
                self._insert(full_key, found)
                return found
            self.count("disk_misses")
        self.record(op, False)
        if _TRACER.enabled:
            with _TRACER.span("opcache." + op, "presburger"):
                result = compute()
        else:
            result = compute()
        if store is not None and store.save(op, key, result):
            self.count("disk_writes")
        self._insert(full_key, result)
        return result

    def _insert(self, full_key: Hashable, value: Any) -> None:
        """Store *value* and evict the least recently used entry past :attr:`maxsize`."""
        entries = self._entries
        entries[full_key] = value
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.count("evictions")

    # ----------------------------- counting ----------------------------- #
    def record(self, op: str, hit: bool) -> None:
        """Count one lookup of *op*."""
        sink = _SINK.get()
        if sink is None:
            with self._lock:
                self.stats.record(op, hit)
        else:
            sink.record(op, hit)

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the counter *name*."""
        sink = _SINK.get()
        if sink is None:
            with self._lock:
                setattr(self.stats, name, getattr(self.stats, name) + amount)
        else:
            setattr(sink, name, getattr(sink, name) + amount)

    def ingest(self, data: Dict[str, Any]) -> None:
        """Add counts in their :meth:`OpCacheStats.as_dict` form."""
        sink = _SINK.get()
        if sink is None:
            with self._lock:
                self.stats.merge(data)
        else:
            sink.merge(data)

    # ----------------------------- interning ---------------------------- #
    def intern_conjunct(self, conjunct):
        """The canonical instance for *conjunct* (hash-consing).

        Two conjuncts with the same :meth:`~repro.presburger.conjunct.Conjunct.normalized_key`
        intern to the same object, making later ``==``, ``hash`` and
        operation-cache keys identity-fast.
        """
        return self._conjuncts.canonical(conjunct)

    def intern_expr(self, expr):
        """The canonical instance for a :class:`LinExpr` (hash-consing)."""
        return self._exprs.canonical(expr)

    def intern_vector(self, vector: Tuple[int, ...]) -> Tuple[int, ...]:
        """The canonical tuple for a normalized constraint vector."""
        return self._vectors.canonical(vector)

    # ---------------------------- maintenance --------------------------- #
    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every memoized result and intern-pool entry (counters survive)."""
        self._entries.clear()
        self._conjuncts.clear()
        self._exprs.clear()
        self._vectors.clear()


_CACHE = OpCache()


def cache() -> OpCache:
    """The process-wide operation cache instance."""
    return _CACHE


def attach_persistent(path: str):
    """Attach a disk-backed second tier at *path* (a directory).

    Replaces any previously attached store.  Returns the
    :class:`~repro.presburger.persist.PersistentStore`; the caller may
    inspect ``store.disabled`` to see whether the directory was usable (an
    unusable store silently degrades to memory-only, because persistence is
    purely an optimization).
    """
    from . import persist as _persist

    detach_persistent()
    store = _persist.PersistentStore(path)
    _CACHE._persist = store
    return store


def detach_persistent() -> None:
    """Close and drop the persistent tier (memory tier is untouched)."""
    store = _CACHE._persist
    if store is not None:
        _CACHE._persist = None
        store.close()


def persistent_store():
    """The currently attached persistent store, or ``None``."""
    return _CACHE._persist


def reattach_persistent() -> None:
    """Re-open the persistent store on a fresh connection (fork safety).

    sqlite connections must not be shared across ``fork``; pool-worker
    initializers call this so each worker process talks to the shared store
    through its own connection.  The inherited parent connection object is
    dropped without closing it (closing could disturb the parent's handle).
    """
    store = _CACHE._persist
    if store is not None:
        _CACHE._persist = store.reopened()


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager: run a block with memoization and interning off.

    The one off switch.  Stored entries are kept, so the cache resumes warm
    when the block exits.  Used by the ablation benchmarks and the property
    tests that assert cached and uncached results agree.
    """
    previous = _CACHE.enabled
    _CACHE.enabled = False
    try:
        yield
    finally:
        _CACHE.enabled = previous


def reset() -> None:
    """Clear all cached results, intern pools and the process totals (a cold start)."""
    _CACHE.clear()
    with _CACHE._lock:
        _CACHE.stats = OpCacheStats()


def stats() -> OpCacheStats:
    """A copy of the process totals (collectors still open are not in it yet)."""
    totals = OpCacheStats()
    with _CACHE._lock:
        totals.merge(_CACHE.stats.as_dict())
    return totals


@contextmanager
def collect() -> Iterator[OpCacheStats]:
    """Yield the counters that take every write this thread or task makes in the block.

    A thread started inside the block counts elsewhere (it starts with an
    empty context).  At exit the counts are added to the enclosing
    collector, else to the process totals.
    """
    counts = OpCacheStats()
    token = _SINK.set(counts)
    try:
        yield counts
    finally:
        _SINK.reset(token)
        _CACHE.ingest(counts.as_dict())


def memoized(op: str, key: Hashable, compute: Callable[[], Any]) -> Any:
    """Module-level convenience for :meth:`OpCache.memoized` on the global cache."""
    return _CACHE.memoized(op, key, compute)


def intern_conjunct(conjunct):
    """Module-level convenience for :meth:`OpCache.intern_conjunct`."""
    return _CACHE.intern_conjunct(conjunct)


def intern_expr(expr):
    """Module-level convenience for :meth:`OpCache.intern_expr`."""
    return _CACHE.intern_expr(expr)


#: The canonical tuple for a normalized constraint vector: the global vector
#: pool's bound :meth:`_InternPool.canonical`, so the kernel's hottest call
#: is one Python frame.
intern_vector = _CACHE._vectors.canonical
