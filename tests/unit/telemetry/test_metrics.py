"""Unit tests: the power-of-two latency histogram the server keeps."""


class TestHistogramEdgeCases:
    def _histogram(self):
        from repro.telemetry.metrics import Histogram

        return Histogram("h")

    def test_buckets_and_moments(self):
        histogram = self._histogram()
        for value in (0.5, 1.0, 3.0, 1000.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["min"] == 0.5
        assert snapshot["max"] == 1000.0
        assert snapshot["mean"] == (0.5 + 1.0 + 3.0 + 1000.0) / 4
        # |v| <= 1 -> bucket 0; 3.0 -> bucket 2 (2 < 3 <= 4); 1000 -> bucket 10.
        assert snapshot["buckets"] == {"0": 2, "2": 1, "10": 1}

    def test_empty_snapshot(self):
        snapshot = self._histogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["sum"] == 0
        assert snapshot["buckets"] == {}
        assert snapshot["min"] is None and snapshot["max"] is None
        assert snapshot["mean"] == 0.0

    def test_single_sample(self):
        histogram = self._histogram()
        histogram.observe(3.0)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["min"] == snapshot["max"] == snapshot["mean"] == 3.0
        # 2 < 3 <= 4 = 2**2: magnitude bucket 2
        assert snapshot["buckets"] == {"2": 1}

    def test_all_equal_samples_share_one_bucket(self):
        histogram = self._histogram()
        for _ in range(10):
            histogram.observe(0.25)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"0": 10}
        assert snapshot["mean"] == 0.25

    def test_overflow_clamps_to_max_bucket(self):
        from repro.telemetry.metrics import Histogram

        histogram = self._histogram()
        histogram.observe(2.0 ** 80)  # way past 2**MAX_BUCKET
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {str(Histogram.MAX_BUCKET): 1}

    def test_boundary_values_land_low(self):
        # bucket k holds 2**(k-1) < |v| <= 2**k: an exact power of two stays
        # in its own bucket, just past it moves up.
        histogram = self._histogram()
        histogram.observe(2.0)
        histogram.observe(2.000001)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"1": 1, "2": 1}
