"""Unit tests: result cache hit/miss, persistence, corruption recovery."""

import json
import os
import sys
import threading

from repro.checker import CheckStats, Diagnostic, EquivalenceResult, OutputReport
from repro.service import ResultCache


def make_result(equivalent=True):
    return EquivalenceResult(
        equivalent=equivalent,
        outputs=[OutputReport(array="B", equivalent=equivalent, checked_domain="{[k]}")],
        diagnostics=[]
        if equivalent
        else [Diagnostic("leaf-mismatch", "leaves differ", output_array="B")],
        stats=CheckStats(elapsed_seconds=0.25, compare_calls=3),
        method="extended",
    )


FP = "ab" + "0" * 62
OTHER = "cd" + "1" * 62


class TestMemoryCache:
    def test_miss_then_hit(self):
        cache = ResultCache(None)
        assert cache.get(FP) is None
        cache.put(FP, make_result())
        cached = cache.get(FP)
        assert cached is not None and cached.equivalent
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = ResultCache(None, memory_entries=2)
        cache.put(FP, make_result())
        cache.put(OTHER, make_result(False))
        cache.put("ef" + "2" * 62, make_result())
        assert cache.get(FP) is None  # evicted (oldest)
        assert cache.stats.evictions == 1


class TestDiskCache:
    def test_round_trip_across_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        ResultCache(directory).put(FP, make_result(False))
        fresh = ResultCache(directory)
        cached = fresh.get(FP)
        assert cached is not None
        assert not cached.equivalent
        assert cached.diagnostics[0].kind == "leaf-mismatch"
        assert cached.stats.compare_calls == 3

    def test_sharded_layout_and_len(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.put(FP, make_result())
        cache.put(OTHER, make_result())
        assert os.path.exists(os.path.join(directory, "ab", FP + ".json"))
        assert len(cache) == 2

    def test_corrupt_json_is_a_miss_and_deleted(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.put(FP, make_result())
        path = os.path.join(directory, "ab", FP + ".json")
        with open(path, "w") as handle:
            handle.write("{ not json")
        fresh = ResultCache(directory)
        assert fresh.get(FP) is None
        assert fresh.stats.corrupt_entries == 1
        assert not os.path.exists(path)

    def test_stale_format_version_is_a_miss(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.put(FP, make_result())
        path = os.path.join(directory, "ab", FP + ".json")
        with open(path) as handle:
            payload = json.load(handle)
        payload["format_version"] = -1
        with open(path, "w") as handle:
            json.dump(payload, handle)
        fresh = ResultCache(directory)
        assert fresh.get(FP) is None
        assert not os.path.exists(path)

    def test_missing_result_key_is_recovered(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.put(FP, make_result())
        path = os.path.join(directory, "ab", FP + ".json")
        with open(path) as handle:
            payload = json.load(handle)
        del payload["result"]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        fresh = ResultCache(directory)
        assert fresh.get(FP) is None
        assert fresh.stats.corrupt_entries == 1

    def test_clear(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.put(FP, make_result())
        cache.clear()
        assert len(cache) == 0
        assert cache.get(FP) is None


class TestThreadSafety:
    def test_concurrent_put_get_keeps_exact_counts(self):
        """The server's worker threads share one cache: the LRU reorder and
        the counters must not race (unguarded, ``move_to_end`` raised
        ``KeyError`` and ``+=`` dropped counts)."""
        threads, rounds = 4, 20_000
        cache = ResultCache(None, memory_entries=4)
        result = make_result()
        errors = []

        def hammer(thread_index):
            try:
                for step in range(rounds):
                    key = f"{thread_index}-{step}"
                    cache.put(key, result)
                    cache.get(key)
            except BaseException as error:  # pragma: no cover - the failure mode
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        total = threads * rounds
        assert errors == []
        assert cache.stats.stores == total
        assert cache.stats.hits + cache.stats.misses == total
        assert cache.stats.memory_hits == cache.stats.hits
        # Every put inserted a fresh key into the 4-entry LRU.
        assert cache.stats.evictions == total - 4
        assert len(cache) == 4
