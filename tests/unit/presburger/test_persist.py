"""Unit tests for the persistent operation cache (disk tier + intern store).

Covers the store in isolation (roundtrips, fingerprint wipes, corruption
tolerance, the op whitelist) and its integration with the in-memory cache
(disk counters, promotion, cross-process warm starts, no attachment at
import).
All failures must degrade to cache misses — persistence can never change a
verdict, only how fast it is reached.
"""

import os
import sqlite3
import subprocess
import sys

import pytest

from repro.presburger import opcache, parse_map, parse_set
from repro.presburger import persist
from repro.presburger.conjunct import Conjunct
from repro.presburger.persist import (
    CACHE_FORMAT_VERSION,
    PERSISTABLE_OPS,
    PersistentStore,
    store_fingerprint,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))


@pytest.fixture
def store(tmp_path):
    st = PersistentStore(str(tmp_path / "cache"))
    yield st
    st.close()


@pytest.fixture
def attached(tmp_path):
    st = opcache.attach_persistent(str(tmp_path / "cache"))
    opcache.reset()
    yield st
    opcache.detach_persistent()
    opcache.reset()


def sample_conjunct():
    return parse_set("{ [i] : exists a : i = 2a and 0 <= i < 16 }").conjuncts[0]


class TestRoundtrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            42,
            -7,
            "infeasible",
            ("a", 1, None),
        ],
    )
    def test_primitives(self, store, value):
        assert store.save("feasible", ("k", 1), value)
        assert store.load("feasible", ("k", 1)) == value

    def test_none_is_not_a_miss(self, store):
        assert store.load("feasible", "absent") is store.MISS
        store.save("feasible", "present", None)
        assert store.load("feasible", "present") is None

    def test_conjunct_roundtrip_interns(self, store):
        conjunct = sample_conjunct()
        assert store.save("simplify", conjunct, conjunct)
        loaded = store.load("simplify", conjunct)
        assert loaded == conjunct
        for vector in loaded.eqs + loaded.ineqs:
            assert opcache.intern_vector(vector) is vector
        assert opcache.intern_conjunct(loaded) is loaded

    def test_set_roundtrip(self, store):
        value = parse_set("{ [i] : 0 <= i < 4 ; [i] : 6 <= i < 10 }")
        store.save("us", ("union", 1), value)
        loaded = store.load("us", ("union", 1))
        assert loaded == value
        assert loaded.names == value.names
        assert isinstance(loaded.conjuncts, tuple)

    def test_map_roundtrip(self, store):
        value = parse_map("{ [i] -> [j] : j = i + 1 and 0 <= i < 8 }")
        store.save("compose", ("m", 2), value)
        loaded = store.load("compose", ("m", 2))
        assert loaded == value
        assert tuple(loaded.in_names) == tuple(value.in_names)
        assert tuple(loaded.out_names) == tuple(value.out_names)

    def test_conjunct_keys_use_structural_identity(self, store):
        conjunct = sample_conjunct()
        twin = Conjunct(conjunct.n_vars, conjunct.n_div, conjunct.eqs, conjunct.ineqs)
        store.save("feasible", conjunct, True)
        assert store.load("feasible", twin) is True


class TestGating:
    def test_unknown_ops_are_not_persisted(self, store):
        assert "internal.debug" not in PERSISTABLE_OPS
        assert not store.save("internal.debug", "k", 1)
        assert store.load("internal.debug", "k") is store.MISS
        assert store.entry_count() == 0

    def test_unencodable_value_is_skipped(self, store):
        assert not store.save("simplify", "k", object())
        assert store.load("simplify", "k") is store.MISS

    def test_unencodable_key_is_a_miss(self, store):
        assert not store.save("simplify", object(), 1)
        assert store.load("simplify", object()) is store.MISS


class TestLifecycle:
    def test_fingerprint_mismatch_wipes(self, tmp_path):
        path = str(tmp_path / "cache")
        first = PersistentStore(path)
        first.save("feasible", "k", True)
        assert first.entry_count() == 1
        first.close()

        db = os.path.join(path, "opcache.sqlite")
        conn = sqlite3.connect(db)
        conn.execute(
            "UPDATE meta SET value = 'format-v0;alien' WHERE key = 'fingerprint'"
        )
        conn.commit()
        conn.close()

        second = PersistentStore(path)
        assert second.entry_count() == 0
        assert second.load("feasible", "k") is second.MISS
        second.close()

    def test_matching_fingerprint_preserves(self, tmp_path):
        path = str(tmp_path / "cache")
        first = PersistentStore(path)
        first.save("feasible", "k", True)
        first.close()
        second = PersistentStore(path)
        assert second.load("feasible", "k") is True
        second.close()

    def test_rows_of_a_retired_op_do_not_wipe_the_store(self, tmp_path):
        """A store written while "closure" was persistable still opens and serves."""
        assert "closure" not in PERSISTABLE_OPS
        path = str(tmp_path / "cache")
        first = PersistentStore(path)
        first.save("feasible", "k", True)
        relation = parse_map("{ [k] -> [k - 1] : 1 <= k < 8 }")
        with first._lock:
            first._conn.execute(
                "INSERT INTO ops (key, op, value) VALUES (?, ?, ?)",
                (
                    persist.encode_key("closure", "k"),
                    "closure",
                    persist.encode_value((relation, True)),
                ),
            )
        first.close()

        second = PersistentStore(path)
        assert second.entry_count() == 2
        assert second.load("feasible", "k") is True
        assert second.load("closure", "k") is second.MISS
        second.close()

    def test_corrupt_file_restarts_empty(self, tmp_path):
        path = str(tmp_path / "cache")
        os.makedirs(path)
        with open(os.path.join(path, "opcache.sqlite"), "wb") as fh:
            fh.write(b"this is not a sqlite database at all")
        st = PersistentStore(path)
        assert not st.disabled
        assert st.save("feasible", "k", False)
        assert st.load("feasible", "k") is False
        st.close()

    def test_torn_row_is_dropped(self, store):
        store.save("feasible", "k", True)
        digest = persist.encode_key("feasible", "k")
        with store._lock:
            store._conn.execute(
                "UPDATE ops SET value = ? WHERE key = ?", (b"\x80garbage", digest)
            )
        assert store.load("feasible", "k") is store.MISS
        assert store.entry_count() == 0

    def test_closed_store_is_disabled(self, store):
        store.close()
        assert store.disabled
        assert not store.save("feasible", "k", True)
        assert store.load("feasible", "k") is store.MISS
        assert store.entry_count() == 0

    def test_reopened_shares_the_directory(self, store):
        store.save("feasible", "k", 7)
        clone = store.reopened()
        assert clone.path == store.path
        assert clone.load("feasible", "k") == 7
        clone.close()

    def test_fingerprint_content(self):
        fp = store_fingerprint()
        assert f"format-v{CACHE_FORMAT_VERSION}" in fp
        assert f"py{sys.version_info[0]}.{sys.version_info[1]}" in fp
        assert "kernel-v" in fp


class TestCacheIntegration:
    def test_disk_write_then_cross_reset_hit(self, attached):
        conjunct = sample_conjunct()
        opcache.memoized("feasible", conjunct, lambda: True)
        stats = opcache.stats()
        assert stats.disk_writes >= 1
        assert stats.misses >= 1

        opcache.reset()  # drop the in-memory tier, keep the disk tier
        sentinel = []

        def recompute():
            sentinel.append(True)
            return True

        assert opcache.memoized("feasible", conjunct, recompute) is True
        assert sentinel == []  # served from disk, not recomputed
        stats = opcache.stats()
        assert stats.disk_hits == 1
        assert stats.hits == 1  # a disk hit is an ordinary hit too
        assert stats.misses == 0

    def test_disk_hit_promotes_to_memory(self, attached):
        conjunct = sample_conjunct()
        opcache.memoized("feasible", conjunct, lambda: False)
        opcache.reset()
        opcache.memoized("feasible", conjunct, lambda: False)
        first = opcache.stats().disk_hits
        opcache.memoized("feasible", conjunct, lambda: False)
        assert opcache.stats().disk_hits == first  # second hit was memory-only

    def test_projection_and_restriction_are_served_from_disk(self, attached):
        assert {"project", "restrict"} <= PERSISTABLE_OPS
        relation = parse_map("{ [k] -> [k + 1] : 0 <= k < 128 }")
        window = parse_set("{ [k] : exists j : k = 2j and 10 <= k < 40 }")
        relation.domain()
        relation.restrict_domain(window)

        opcache.reset()  # drop the in-memory tier, keep the disk tier
        with opcache.collect() as counts:
            domain = relation.domain()
            restricted = relation.restrict_domain(window)
        assert counts.per_op == {"project": (1, 0), "restrict": (1, 0)}
        assert counts.disk_hits == 2
        with opcache.disabled():
            assert domain.conjuncts == relation.domain().conjuncts
            assert restricted.conjuncts == relation.restrict_domain(window).conjuncts

    def test_containment_is_served_from_disk(self, attached):
        assert "subset" in PERSISTABLE_OPS
        small = parse_map("{ [k] -> [k + 1] : 0 <= k < 16 }")
        large = parse_map("{ [k] -> [k + 1] : 0 <= k < 32 }")
        assert small.is_subset(large) and not large.is_subset(small)

        opcache.reset()  # drop the in-memory tier, keep the disk tier
        with opcache.collect() as counts:
            assert small.is_subset(large) and not large.is_subset(small)
        assert counts.per_op == {"subset": (2, 0)}
        assert counts.disk_hits == 2
        assert counts.feasibility_checks == 0

    def test_nonpersistable_ops_stay_memory_only(self, attached):
        opcache.memoized("transient.op", "k", lambda: 3)
        stats = opcache.stats()
        assert stats.disk_writes == 0
        assert attached.entry_count() == 0

    def test_each_failed_statement_is_one_disk_error(self, attached):
        """A unit counts its own sqlite failures; the totals match the store's."""

        class FailingConnection:
            def execute(self, *args):
                raise sqlite3.OperationalError("disk I/O error")

            def close(self):
                pass

        attached._conn = FailingConnection()
        units = []
        for answer in (True, False):
            with opcache.collect() as counts:
                assert opcache.memoized("feasible", answer, lambda: answer) is answer
            units.append(counts)
        for counts in units:
            assert counts.disk_errors == 2  # the failed load and the failed save
            assert (counts.disk_misses, counts.disk_writes) == (1, 0)
        assert opcache.stats().disk_errors == attached.errors == 4

    def test_detach_stops_writing(self, tmp_path):
        store = opcache.attach_persistent(str(tmp_path / "cache"))
        opcache.reset()
        opcache.detach_persistent()
        opcache.memoized("feasible", "k", lambda: True)
        assert store.entry_count() == 0
        assert opcache.persistent_store() is None

    def test_reattach_uses_fresh_connection(self, attached):
        opcache.memoized("feasible", "k", lambda: True)
        before = opcache.persistent_store()
        opcache.reattach_persistent()
        after = opcache.persistent_store()
        assert after is not None
        assert after is not before
        assert after.path == before.path
        assert after.load("feasible", "k") is True

    def test_import_attaches_nothing(self, tmp_path):
        """Importing the package opens no file, whatever the environment:
        the persistent tier is attached only by the process that owns it."""
        path = tmp_path / "envcache"
        code = (
            "from repro.presburger import opcache\n"
            "assert opcache.persistent_store() is None\n"
            "opcache.memoized('feasible', 'warm', lambda: True)\n"
        )
        env = dict(os.environ, REPRO_OPCACHE_PERSIST_DIR=str(path))
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=REPO_ROOT,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert not path.exists()

    def test_cross_process_warm_start(self, tmp_path):
        """A second process over the same persist dir must serve the first
        process's results from disk without recomputing."""
        path = str(tmp_path / "shared")
        workload = (
            "from repro.presburger import opcache, parse_set\n"
            "opcache.attach_persistent({path!r})\n"
            "a = parse_set('{{ [i] : exists d : i = 2d and 0 <= i < 32 }}')\n"
            "b = parse_set('{{ [i] : 0 <= i < 32 }}')\n"
            "assert a.is_subset(b) and not b.is_subset(a)\n"
            "stats = opcache.stats()\n"
            "print(stats.disk_hits, stats.disk_writes)\n"
        ).format(path=path)
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

        cold = subprocess.run(
            [sys.executable, "-c", workload], env=env, cwd=REPO_ROOT,
            capture_output=True, text=True,
        )
        assert cold.returncode == 0, cold.stderr
        cold_hits, cold_writes = map(int, cold.stdout.split())
        assert cold_writes > 0
        assert cold_hits == 0

        warm = subprocess.run(
            [sys.executable, "-c", workload], env=env, cwd=REPO_ROOT,
            capture_output=True, text=True,
        )
        assert warm.returncode == 0, warm.stderr
        warm_hits, warm_writes = map(int, warm.stdout.split())
        assert warm_hits > 0
        assert warm_writes == 0
