"""Unit tests for corpus persistence and the job bridge."""

import json

from repro.scenarios import (
    ScenarioSpec,
    build_scenarios,
    corpus_digest,
    read_corpus,
    scenario_jobs,
    serialize_pair,
    write_corpus,
)
from repro.service import job_fingerprint
from repro.verifier import CheckOptions

SPEC = ScenarioSpec(seed=5, pairs=6, mutation_rate=0.5, size=12)


class TestCorpusPersistence:
    def test_write_read_roundtrip(self, tmp_path):
        pairs = build_scenarios(SPEC)
        path = tmp_path / "corpus.jsonl"
        write_corpus(str(path), pairs)
        recovered = read_corpus(str(path))
        assert corpus_digest(recovered) == corpus_digest(pairs)
        assert [p.name for p in recovered] == [p.name for p in pairs]
        assert [p.expected_label for p in recovered] == [p.expected_label for p in pairs]

    def test_serialized_rows_are_canonical_json(self):
        pairs = build_scenarios(SPEC)
        for pair in pairs:
            row = serialize_pair(pair)
            assert json.loads(row)["name"] == pair.name
            assert row == json.dumps(json.loads(row), sort_keys=True, separators=(",", ":"))

    def test_trace_and_oracle_survive_roundtrip(self, tmp_path):
        pairs = build_scenarios(SPEC)
        path = tmp_path / "corpus.jsonl"
        write_corpus(str(path), pairs)
        for before, after in zip(pairs, read_corpus(str(path))):
            assert [s.to_dict() for s in after.trace] == [s.to_dict() for s in before.trace]
            assert after.oracle == before.oracle
            assert after.mutation == before.mutation
            assert after.original == before.original
            assert after.transformed == before.transformed


class TestScenarioJobs:
    def test_jobs_carry_labels_and_provenance(self):
        pairs = build_scenarios(SPEC)
        jobs = scenario_jobs(pairs)
        assert len(jobs) == len(pairs)
        for pair, job in zip(pairs, jobs):
            assert job.name == pair.name
            assert job.expected_equivalent == pair.expected_equivalent
            assert job.metadata["source"] == "scenario"
            assert job.metadata["expected_label"] == pair.expected_label
            assert job.metadata["oracle"]["label"] == pair.oracle.label
            assert job.metadata["trace"] == [s.to_dict() for s in pair.trace]

    def test_jobs_from_disk_fingerprint_identically(self, tmp_path):
        pairs = build_scenarios(SPEC)
        path = tmp_path / "corpus.jsonl"
        write_corpus(str(path), pairs)
        fresh = scenario_jobs(pairs)
        reloaded = scenario_jobs(read_corpus(str(path)))
        assert [job_fingerprint(a) for a in fresh] == [job_fingerprint(b) for b in reloaded]

    def test_jobs_use_given_options(self):
        pairs = build_scenarios(SPEC)[:2]
        options = CheckOptions(method="basic")
        for job in scenario_jobs(pairs, options=options):
            assert job.options is options
