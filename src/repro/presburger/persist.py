"""Disk-backed operation cache + intern store (warm state across processes).

The in-memory op-cache (:mod:`repro.presburger.opcache`) dies with the
process, so every batch-executor worker and every server restart re-derives
the whole relation algebra cold.  This module adds an optional sqlite-backed
tier underneath it:

* on an in-memory **miss**, the memoized wrapper consults the store and — on
  a disk hit — decodes the stored result instead of recomputing it;
* every freshly computed result of a persistable operation is written
  through, so the *next* process starts warm;
* decoding routes every constraint vector and conjunct through the intern
  pools, which makes the store double as a persistent **intern store**: a
  warm start repopulates the hash-consing pools with canonical instances.

Design constraints, in order:

1. **Correctness is never at stake.**  The store only memoizes pure
   operations whose keys capture all inputs (the same contract as the
   in-memory cache), results are versioned by :data:`CACHE_FORMAT_VERSION`
   plus a fingerprint of the Python major/minor version and the kernel
   revision (stale or foreign files are wiped, never trusted), and every
   sqlite error degrades the store to a no-op — caches here are purely an
   optimization, an invariant the cache-invariance test leg gates.
2. **Multi-process safe.**  sqlite in WAL mode with a busy timeout handles
   concurrent executor workers and server threads sharing one directory; a
   ``threading.Lock`` serialises the connection inside one process, and
   :meth:`PersistentStore.reopened` gives forked workers a fresh connection
   (sqlite connections must not cross ``fork``).
3. **Compact keys.**  Keys are SHA-256 digests of a canonicalised pickle of
   ``(format-version, op, key)`` with conjuncts replaced by their
   ``normalized_key`` — the same structural identity the in-memory cache
   uses, so the two tiers can never disagree about equality.

Values are encoded with a small tagged scheme (ints, strings, tuples,
conjuncts, sets, maps) rather than raw pickle so that decoding rebuilds
*interned* objects; the envelope itself uses pickle for the primitives.
The file is a cache the process itself wrote — it is trusted the same way
the in-memory cache is.

Selection: :func:`repro.presburger.opcache.attach_persistent` with a
directory (the CLI's and the daemon's ``--persist-dir`` call it once per
process); the store lives in ``<dir>/opcache.sqlite``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import sys
import threading
from typing import Any, Optional, Tuple

from . import kernel as _kernel
from . import opcache as _opcache
from .conjunct import Conjunct

__all__ = [
    "CACHE_FORMAT_VERSION",
    "PERSISTABLE_OPS",
    "PersistentStore",
    "store_fingerprint",
]

#: Bump whenever the key canonicalisation or the value encoding changes;
#: mismatching stores are wiped on open.
CACHE_FORMAT_VERSION = 1

#: Operations whose results the store knows how to encode.  Everything the
#: in-memory cache memoizes today is covered; unknown ops simply stay
#: memory-only.
PERSISTABLE_OPS = frozenset(
    {
        "simplify", "feasible", "subset", "ui", "us", "project", "restrict",
        "compose", "inverse", "lexmin", "smt.query",
    }
)

#: Consecutive sqlite failures after which a store stops trying (a dead disk
#: should cost a bounded number of exceptions, not one per operation).
_MAX_ERRORS = 8

_DB_FILENAME = "opcache.sqlite"


def store_fingerprint() -> str:
    """The compatibility fingerprint burned into every store.

    Covers the serialisation format, the Python major/minor version (pickle
    stability) and the kernel revision (normal-form stability).  Deliberately
    *excludes* every tuning knob: those change execution strategy, never
    results.
    """
    return (
        f"format-v{CACHE_FORMAT_VERSION};"
        f"py{sys.version_info[0]}.{sys.version_info[1]};"
        f"{_kernel.fingerprint()}"
    )


# --------------------------------------------------------------------------- #
# Key canonicalisation and value encoding
# --------------------------------------------------------------------------- #
def _canonical(obj: Any) -> Any:
    """Replace conjuncts by their structural keys, recursively."""
    if isinstance(obj, Conjunct):
        return ("\x00conjunct", obj.normalized_key())
    if isinstance(obj, tuple):
        return tuple(_canonical(item) for item in obj)
    if obj is None or isinstance(obj, (bool, int, str, bytes, frozenset)):
        return obj
    raise TypeError(f"unsupported key component {type(obj).__name__}")


def encode_key(op: str, key: Any) -> bytes:
    """The 32-byte digest addressing ``(op, key)`` in the store."""
    payload = pickle.dumps(
        (CACHE_FORMAT_VERSION, op, _canonical(key)), protocol=4
    )
    return hashlib.sha256(payload).digest()


def _encode(value: Any) -> Any:
    """Tagged, interning-aware encoding of a memoized result."""
    if value is None:
        return ("N",)
    if value is True or value is False:
        return ("B", value)
    if isinstance(value, int):
        return ("I", value)
    if isinstance(value, str):
        return ("S", value)
    if isinstance(value, Conjunct):
        return ("C", value.n_vars, value.n_div, value.eqs, value.ineqs)
    # Import lazily: setmap imports opcache which imports this module.
    from .setmap import Map, Set

    if isinstance(value, Map):
        return (
            "M",
            tuple(value.in_names),
            tuple(value.out_names),
            tuple(_encode(c) for c in value.conjuncts),
        )
    if isinstance(value, Set):
        return ("Z", tuple(value.names), tuple(_encode(c) for c in value.conjuncts))
    if isinstance(value, tuple):
        return ("T",) + tuple(_encode(item) for item in value)
    raise TypeError(f"unsupported persisted value {type(value).__name__}")


def _decode(node: Any) -> Any:
    """Inverse of :func:`_encode`; conjuncts and rows come back interned."""
    tag = node[0]
    if tag == "N":
        return None
    if tag in ("B", "I", "S"):
        return node[1]
    if tag == "C":
        _, n_vars, n_div, eqs, ineqs = node
        iv = _opcache.intern_vector
        conjunct = Conjunct._make(
            int(n_vars),
            int(n_div),
            tuple(iv(tuple(int(x) for x in row)) for row in eqs),
            tuple(iv(tuple(int(x) for x in row)) for row in ineqs),
        )
        return _opcache.intern_conjunct(conjunct)
    if tag == "M":
        from .setmap import Map

        _, in_names, out_names, conjuncts = node
        return Map(
            in_names,
            out_names,
            tuple(_decode(c) for c in conjuncts),
            _clean_input=False,
        )
    if tag == "Z":
        from .setmap import Set

        _, names, conjuncts = node
        return Set(names, tuple(_decode(c) for c in conjuncts), _clean_input=False)
    if tag == "T":
        return tuple(_decode(item) for item in node[1:])
    raise ValueError(f"unknown value tag {tag!r}")


def encode_value(value: Any) -> bytes:
    return pickle.dumps(_encode(value), protocol=4)


def decode_value(blob: bytes) -> Any:
    return _decode(pickle.loads(blob))


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #
class PersistentStore:
    """A sqlite-backed second tier for the operation cache.

    Thread-safe (one lock around the shared connection) and multi-process
    safe (WAL journal, busy timeout, idempotent upserts).  All public
    methods degrade to misses/no-ops on any sqlite error; after
    ``_MAX_ERRORS`` consecutive failures the store disables itself.
    """

    #: A sentinel distinguishing "miss" from a stored ``None`` result.
    MISS = object()

    def __init__(self, path: str):
        self.path = os.path.abspath(path)
        self.disabled = False
        self.errors = 0
        self._lock = threading.Lock()
        os.makedirs(self.path, exist_ok=True)
        self._db_path = os.path.join(self.path, _DB_FILENAME)
        try:
            self._conn = self._open()
        except sqlite3.Error:
            # A corrupt file: start over once (losing a cache is fine).
            try:
                os.unlink(self._db_path)
                self._conn = self._open()
            except (OSError, sqlite3.Error):
                self._conn = None
                self.disabled = True

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self._db_path, check_same_thread=False)
        conn.isolation_level = None  # autocommit: one statement, one txn
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=5000")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS ops"
            " (key BLOB PRIMARY KEY, op TEXT NOT NULL, value BLOB NOT NULL)"
        )
        expected = store_fingerprint()
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'fingerprint'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('fingerprint', ?)",
                (expected,),
            )
        elif row[0] != expected:
            # Foreign or stale: wipe rather than risk decoding mismatched data.
            conn.execute("DELETE FROM ops")
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('fingerprint', ?)",
                (expected,),
            )
        return conn

    def reopened(self) -> "PersistentStore":
        """A fresh store over the same directory (for forked workers)."""
        return PersistentStore(self.path)

    def _fail(self) -> None:
        with self._lock:
            self.errors += 1
            if self.errors >= _MAX_ERRORS:
                self.disabled = True
        _opcache.count("disk_errors")

    def load(self, op: str, key: Any) -> Any:
        """The stored result for ``(op, key)``, or :data:`MISS`."""
        if self.disabled or op not in PERSISTABLE_OPS:
            return self.MISS
        try:
            digest = encode_key(op, key)
        except TypeError:
            return self.MISS
        try:
            with self._lock:
                row = self._conn.execute(
                    "SELECT value FROM ops WHERE key = ?", (digest,)
                ).fetchone()
        except sqlite3.Error:
            self._fail()
            return self.MISS
        if row is None:
            return self.MISS
        try:
            return decode_value(row[0])
        except Exception:
            # A torn or undecodable row: treat as a miss and drop it.
            try:
                with self._lock:
                    self._conn.execute("DELETE FROM ops WHERE key = ?", (digest,))
            except sqlite3.Error:
                self._fail()
            return self.MISS

    def save(self, op: str, key: Any, value: Any) -> bool:
        """Write a computed result through; returns True when stored."""
        if self.disabled or op not in PERSISTABLE_OPS:
            return False
        try:
            digest = encode_key(op, key)
            blob = encode_value(value)
        except TypeError:
            return False
        try:
            with self._lock:
                self._conn.execute(
                    "INSERT OR REPLACE INTO ops (key, op, value) VALUES (?, ?, ?)",
                    (digest, op, blob),
                )
        except sqlite3.Error:
            self._fail()
            return False
        return True

    def entry_count(self) -> int:
        """Number of persisted results (0 when the store is unusable)."""
        if self.disabled:
            return 0
        try:
            with self._lock:
                return int(self._conn.execute("SELECT COUNT(*) FROM ops").fetchone()[0])
        except sqlite3.Error:
            self._fail()
            return 0

    def close(self) -> None:
        if getattr(self, "_conn", None) is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        self.disabled = True
