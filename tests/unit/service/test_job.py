"""Unit tests: job model serialization and in-process execution."""

import pickle

import pytest

from repro.service import CheckOptions, JobResult, JobStatus, VerificationJob, execute_job
from repro.service.fingerprint import job_fingerprint

ORIGINAL = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k] + A[k+1];
}
"""

TRANSFORMED_EQ = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = N-1; k >= 0; k--)
t1:     B[k] = A[k+1] + A[k];
}
"""

TRANSFORMED_BAD = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
t1:     B[k] = A[k] + A[k+2];
}
"""


def test_job_dict_round_trip():
    job = VerificationJob(
        name="j",
        original_source=ORIGINAL,
        transformed_source=TRANSFORMED_EQ,
        options=CheckOptions(
            method="basic",
            outputs=("B",),
            correspondences=(("t", "t2"),),
            operators=(("min", "AC"),),
            tabling=False,
            timeout=5.0,
        ),
        expected_equivalent=True,
        metadata={"source": "test"},
    )
    clone = VerificationJob.from_dict(job.to_dict())
    assert clone == job


def test_legacy_flat_keys_convert_once():
    # Flat ``operators`` are declarations over the default registry; empty
    # props remove a default law.
    job = VerificationJob.from_dict(
        {
            "name": "j",
            "original_source": ORIGINAL,
            "transformed_source": TRANSFORMED_EQ,
            "method": "basic",
            "outputs": ["B"],
            "operators": [["min", "ca"], ["+", ""]],
            "tabling": False,
            "timeout": 5,
        }
    )
    assert job.options == CheckOptions(
        method="basic",
        outputs=("B",),
        operators=(("*", "AC"), ("min", "AC")),
        tabling=False,
        timeout=5,
    )


def test_options_object_wins_over_flat_keys():
    job = VerificationJob.from_dict(
        {
            "name": "j",
            "original_source": ORIGINAL,
            "transformed_source": TRANSFORMED_EQ,
            "method": "basic",
            "options": {"tabling": False},
        }
    )
    assert job.options == CheckOptions(tabling=False)


def test_stale_persist_dir_key_is_ignored():
    """Job files and clients from before the persistent opcache became
    process state may still send ``options.persist_dir``: it loads, is
    ignored, and leaves the fingerprint unchanged."""
    plain = VerificationJob("j", ORIGINAL, TRANSFORMED_EQ)
    payload = plain.to_dict()
    payload["options"]["persist_dir"] = "/somewhere"
    job = VerificationJob.from_dict(payload)
    assert job == plain
    assert job_fingerprint(job) == job_fingerprint(plain)
    assert "persist_dir" not in job.to_dict()["options"]


@pytest.mark.parametrize(
    "entry",
    [
        {"options": "basic"},
        {"options": ["basic"]},
        {"timeout": "soon"},
        {"timeout": True},
        {"timeout": -1},
        {"timeout": float("inf")},
        {"timeout": 1e12},
        {"options": {"timeout": "soon"}},
        {"options": {"timeout": float("inf")}},
    ],
)
def test_malformed_entries_fail_at_load(entry):
    data = {"name": "j", "original_source": ORIGINAL, "transformed_source": TRANSFORMED_EQ}
    with pytest.raises(ValueError):
        VerificationJob.from_dict({**data, **entry})


def test_job_is_picklable():
    job = VerificationJob("j", ORIGINAL, TRANSFORMED_EQ)
    assert pickle.loads(pickle.dumps(job)) == job


def test_job_run_verdicts():
    assert VerificationJob("eq", ORIGINAL, TRANSFORMED_EQ).run().equivalent
    assert not VerificationJob("bad", ORIGINAL, TRANSFORMED_BAD).run().equivalent


def test_execute_job_ok_and_expectation():
    outcome = execute_job(
        VerificationJob("eq", ORIGINAL, TRANSFORMED_EQ, expected_equivalent=True)
    )
    assert outcome.status == JobStatus.OK
    assert outcome.equivalent is True
    assert outcome.matches_expectation is True
    assert outcome.elapsed_seconds > 0
    assert outcome.result is not None


def test_execute_job_detected_bug_matches_expectation():
    outcome = execute_job(
        VerificationJob("bad", ORIGINAL, TRANSFORMED_BAD, expected_equivalent=False)
    )
    assert outcome.status == JobStatus.OK
    assert outcome.equivalent is False
    assert outcome.matches_expectation is True


def test_execute_job_captures_errors():
    outcome = execute_job(VerificationJob("broken", "not a program", "also broken"))
    assert outcome.status == JobStatus.ERROR
    assert outcome.equivalent is None
    assert outcome.matches_expectation is None
    assert "LexError" in (outcome.error or "")


def test_job_result_dict_round_trip():
    outcome = execute_job(
        VerificationJob("eq", ORIGINAL, TRANSFORMED_EQ, expected_equivalent=True)
    )
    data = outcome.to_dict()
    clone = JobResult.from_dict(data)
    assert clone.name == outcome.name
    assert clone.status == outcome.status
    assert clone.equivalent == outcome.equivalent
    assert clone.result is not None
    assert clone.result.to_dict() == outcome.result.to_dict()
    # the derived field is exported but not stored
    assert data["matches_expectation"] is True
