"""Unit tests: corpus enumeration and job-file loading."""

import json
import os

import pytest

from repro.service import BatchExecutor, CorpusSpec, build_corpus, job_fingerprint, jobs_from_file
from repro.workloads import kernel_names


class TestBuildCorpus:
    def test_kernel_jobs(self):
        jobs = build_corpus(CorpusSpec(kernels=("fir", "downsample")))
        assert [job.name for job in jobs] == ["kernel/fir", "kernel/downsample"]
        assert all(job.expected_equivalent for job in jobs)
        assert jobs[0].metadata["source"] == "kernel"

    def test_all_kernels_expands_registry(self):
        jobs = build_corpus(CorpusSpec(kernels=("all",)))
        assert len(jobs) == len(kernel_names())

    def test_generated_and_buggy_labels(self):
        spec = CorpusSpec(generated=3, buggy=2, size=16, transform_steps=2, seed=5)
        jobs = build_corpus(spec)
        assert len(jobs) == 5
        equivalent = [job for job in jobs if job.expected_equivalent]
        buggy = [job for job in jobs if not job.expected_equivalent]
        assert len(equivalent) == 3 and len(buggy) == 2
        assert all("mutation" in job.metadata for job in buggy)
        assert all(job.metadata["source"] == "generator" for job in jobs)

    def test_deterministic_fingerprints(self):
        spec = CorpusSpec(generated=2, buggy=2, size=16, transform_steps=2)
        first = [job_fingerprint(job) for job in build_corpus(spec)]
        second = [job_fingerprint(job) for job in build_corpus(spec)]
        assert first == second

    def test_corpus_grows_by_appending(self):
        small = build_corpus(CorpusSpec(generated=2, size=16, transform_steps=2))
        large = build_corpus(CorpusSpec(generated=4, size=16, transform_steps=2))
        assert [job.name for job in large[:2]] == [job.name for job in small]
        assert [job_fingerprint(job) for job in large[:2]] == [
            job_fingerprint(job) for job in small
        ]


SOURCE = """
#define N 8
f(int A[], int B[])
{
    int k;
    for (k = 0; k < N; k++)
s1:     B[k] = A[k] + 1;
}
"""


class TestJobsFromFile:
    def test_inline_sources(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([
            {"name": "pair", "original_source": SOURCE, "transformed_source": SOURCE,
             "expected_equivalent": True},
        ]))
        jobs = jobs_from_file(str(path))
        assert len(jobs) == 1
        assert jobs[0].name == "pair"
        assert jobs[0].expected_equivalent is True

    def test_file_references_resolved_relative_to_job_file(self, tmp_path):
        (tmp_path / "orig.c").write_text(SOURCE)
        (tmp_path / "trans.c").write_text(SOURCE)
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([
            {"original": "orig.c", "transformed": "trans.c"},
        ]))
        jobs = jobs_from_file(str(path))
        assert jobs[0].name == "job-0"
        assert jobs[0].original_source == SOURCE

    def test_rejects_non_list(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"name": "oops"}))
        with pytest.raises(ValueError):
            jobs_from_file(str(path))

    def test_rejects_job_without_sources(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"name": "incomplete"}]))
        with pytest.raises(ValueError):
            jobs_from_file(str(path))


EXAMPLE_JOBS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, os.pardir, "examples", "jobs.json"
)

# The fingerprint of every job in examples/jobs.json.  Fingerprints are the
# verdict-cache keys: a change here orphans every cached verdict, so it must
# come with a CACHE_FORMAT_VERSION bump.
EXAMPLE_FINGERPRINTS = {
    "flat/sum-commuted": "6ba920a6d1875435e63fdf0122c3645acc243e85ae8e485644a821d35111dbb9",
    "flat/sum-commuted-no-plus-law": (
        "7255a6a82c777d3943b792a8cd39f243de2e3e604f725d5462144245ff5b14e1"
    ),
    "flat/sum-reversed-basic": "50cace2e967a4ed0b49e1ec39e74ce1921c04e4ded8053a7a687be35b49a723f",
    "flat/sum-wrong-read": "04f19d3f125bf07df99843edd3849224814762747289ab59ccd110a2c25fd426",
    "options/pipe-propagated": "df1ec5384f5697934e066e1cb26143118660bb899821181003a778e4242a851e",
}


class TestExampleJobFile:
    """examples/jobs.json mixes legacy flat-key entries with the options form."""

    def test_fingerprints_are_pinned(self):
        jobs = jobs_from_file(EXAMPLE_JOBS)
        assert {job.name: job_fingerprint(job) for job in jobs} == EXAMPLE_FINGERPRINTS

    def test_flat_operator_delta_removes_a_default_law(self):
        jobs = {job.name: job for job in jobs_from_file(EXAMPLE_JOBS)}
        assert jobs["flat/sum-commuted-no-plus-law"].options.operators == (("*", "AC"),)
        assert jobs["flat/sum-reversed-basic"].options.method == "basic"

    def test_verdicts_match_expectations(self):
        results = BatchExecutor().run(jobs_from_file(EXAMPLE_JOBS))
        assert [outcome.matches_expectation for outcome in results] == [True] * len(results)
