"""Unit tests: fingerprint stability and sensitivity."""

from repro.service import (
    CheckOptions,
    ResultCache,
    VerificationJob,
    job_fingerprint,
    normalize_source,
)

ORIGINAL = """
#define N 16
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k] + A[k+1];
}
"""

# Same program, different whitespace and no #define folding.
ORIGINAL_REFORMATTED = """
f(int A[], int B[]) {
    int k;
    for (k = 0; k < 16; k++)
s1: B[k] = A[k] + A[k + 1];
}
"""

TRANSFORMED = """
#define N 16
f(int A[], int B[])
{
    int k;
    for (k = N-1; k >= 0; k--)
t1:     B[k] = A[k+1] + A[k];
}
"""


def make_job(**overrides):
    fields = dict(
        name="job",
        original_source=ORIGINAL,
        transformed_source=TRANSFORMED,
    )
    fields.update(overrides)
    return VerificationJob(**fields)


class TestNormalizeSource:
    def test_whitespace_insensitive(self):
        assert normalize_source(ORIGINAL) == normalize_source(ORIGINAL_REFORMATTED)

    def test_different_programs_differ(self):
        assert normalize_source(ORIGINAL) != normalize_source(TRANSFORMED)

    def test_unparseable_text_falls_back_to_stripped(self):
        assert normalize_source("  not a program  ") == "not a program"


class TestJobFingerprint:
    def test_stable_across_calls(self):
        assert job_fingerprint(make_job()) == job_fingerprint(make_job())

    def test_sha256_hex_shape(self):
        fingerprint = job_fingerprint(make_job())
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")

    def test_ignores_job_name_and_metadata_and_expectation(self):
        baseline = job_fingerprint(make_job())
        assert job_fingerprint(make_job(name="other")) == baseline
        assert job_fingerprint(make_job(metadata={"a": 1})) == baseline
        assert job_fingerprint(make_job(expected_equivalent=False)) == baseline

    def test_whitespace_insensitive(self):
        assert job_fingerprint(make_job()) == job_fingerprint(
            make_job(original_source=ORIGINAL_REFORMATTED)
        )

    def test_sensitive_to_programs_and_options(self):
        baseline = job_fingerprint(make_job())
        assert job_fingerprint(make_job(transformed_source=ORIGINAL)) != baseline
        assert job_fingerprint(make_job(options=CheckOptions(method="basic"))) != baseline
        assert job_fingerprint(make_job(options=CheckOptions(outputs=("B",)))) != baseline
        assert job_fingerprint(make_job(options=CheckOptions(tabling=False))) != baseline
        min_ac = CheckOptions(operators=(("min", "AC"),))
        assert job_fingerprint(make_job(options=min_ac)) != baseline

    def test_operator_declaration_order_is_canonicalised(self):
        first = CheckOptions(operators=(("min", "AC"), ("max", "C")))
        second = CheckOptions(operators=(("max", "C"), ("min", "CA")))
        assert job_fingerprint(make_job(options=first)) == job_fingerprint(
            make_job(options=second)
        )
        assert first == second

    def test_timeout_does_not_split_the_key_space(self):
        # A timeout aborts a check; it can never change a computed verdict,
        # so re-running with a different budget must hit the same cache entry.
        budgeted = make_job(options=CheckOptions(timeout=5.0))
        assert job_fingerprint(budgeted) == job_fingerprint(make_job())


class TestOptionsNeverAliasCachedVerdicts:
    """Regression: the result-cache key must cover every checker option.

    A verdict computed under one option set (e.g. ``method="basic"``) being
    served for a request with another (``method="extended"``) is a soundness
    bug of the service layer; the :class:`CheckOptions` fingerprint folded
    into :func:`job_fingerprint` prevents it.
    """

    def test_options_object_changes_fingerprint(self):
        baseline = job_fingerprint(make_job())
        basic = make_job()
        basic = VerificationJob(
            name=basic.name,
            original_source=basic.original_source,
            transformed_source=basic.transformed_source,
            options=CheckOptions(method="basic"),
        )
        assert job_fingerprint(basic) != baseline

    def test_flat_and_options_spellings_agree(self):
        flat = VerificationJob.from_dict(
            {
                "name": "job",
                "original_source": ORIGINAL,
                "transformed_source": TRANSFORMED,
                "method": "basic",
                "outputs": ["B"],
                "tabling": False,
            }
        )
        via_options = VerificationJob(
            name="job",
            original_source=ORIGINAL,
            transformed_source=TRANSFORMED,
            options=CheckOptions(method="basic", outputs=("B",), tabling=False),
        )
        assert job_fingerprint(flat) == job_fingerprint(via_options)

    def test_basic_verdict_is_never_served_for_extended_request(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        basic_job = make_job(options=CheckOptions(method="basic"))
        extended_job = make_job(options=CheckOptions(method="extended"))
        basic_result = basic_job.run()
        cache.put(job_fingerprint(basic_job), basic_result)
        # The same pair under the extended method must miss the cache.
        assert cache.get(job_fingerprint(extended_job)) is None
        hit = cache.get(job_fingerprint(basic_job))
        assert hit is not None and hit.method == "basic"

    def test_every_option_field_splits_the_key(self):
        baseline = job_fingerprint(make_job())
        variants = [
            make_job(options=CheckOptions(method="basic")),
            make_job(options=CheckOptions(outputs=("B",))),
            make_job(options=CheckOptions(correspondences=(("x", "y"),))),
            make_job(options=CheckOptions(operators=(("min", "AC"),))),
            make_job(options=CheckOptions(tabling=False)),
            make_job(options=CheckOptions(check_preconditions=False)),
        ]
        fingerprints = {job_fingerprint(job) for job in variants}
        assert baseline not in fingerprints
        assert len(fingerprints) == len(variants)
