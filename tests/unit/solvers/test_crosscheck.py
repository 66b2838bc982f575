"""Differential cross-check backend: agreement counting, disagreement alarm,
serialized-query replay, and the executor's handling of the alarm."""

import json

import pytest

from repro.presburger import parse_set
from repro.service import VerificationJob
from repro.service.executor import JobStatus, execute_job
from repro.solvers import (
    BackendDisagreement,
    CrossCheckBackend,
    OmegaBackend,
    replay_query,
    serialize_query,
    use_backend,
)
from repro.solvers.base import Abstain
from repro.solvers.enum_backend import EnumBackend


class LyingBackend(OmegaBackend):
    """An intentionally unsound backend: inverts every subset verdict."""

    name = "lying"

    def is_subset(self, a, b):
        return not super().is_subset(a, b)


class AbstainingBackend(OmegaBackend):
    """A partner that declines every query."""

    name = "abstaining"

    def is_subset(self, a, b):
        raise Abstain("declined")

    def is_feasible(self, conjunct):
        raise Abstain("declined")


class TestAgreement:
    def test_counters_accumulate_across_children(self):
        small = parse_set("{ [i] : 0 <= i < 4 }")
        big = parse_set("{ [i] : 0 <= i < 8 }")
        backend = CrossCheckBackend(OmegaBackend(), EnumBackend())
        assert backend.is_subset(small.conjuncts, big.conjuncts)
        assert backend.is_equal(small.conjuncts, small.conjuncts)
        counts = backend.query_counts
        assert counts["crosscheck.agreements"] == 2
        assert counts["omega.is_subset"] == 1
        assert counts["enum.is_subset"] == 1
        assert counts["omega.is_equal"] == 1
        assert counts["enum.is_equal"] == 1
        assert "crosscheck.disagreements" not in counts

    def test_sample_point_checked_by_membership(self):
        # The two backends may return different witnesses of the same set;
        # the secondary only verifies membership of the primary's point.
        stripes = parse_set("{ [i] : exists a : i = 3a and 0 <= i < 12 }")
        backend = CrossCheckBackend(OmegaBackend(), EnumBackend())
        point = backend.sample_point(stripes)
        assert point[0] % 3 == 0
        assert backend.query_counts["crosscheck.agreements"] == 1

    def test_routing_through_set_api(self):
        small = parse_set("{ [i] : 0 <= i < 4 }")
        with use_backend("crosscheck") as backend:
            assert small.is_equal(small)
        assert backend.query_counts["crosscheck.agreements"] == 1


class TestAbstention:
    def test_abstention_keeps_the_primary_answer(self):
        small = parse_set("{ [i] : 0 <= i < 4 }")
        big = parse_set("{ [i] : 0 <= i < 8 }")
        backend = CrossCheckBackend(OmegaBackend(), AbstainingBackend())
        assert backend.is_subset(small.conjuncts, big.conjuncts) is True
        assert not backend.is_subset(big.conjuncts, small.conjuncts)
        assert backend.sample_point(small) in {(i,) for i in range(4)}
        counts = backend.query_counts
        assert counts["crosscheck.abstentions"] == 3
        assert "crosscheck.agreements" not in counts
        assert "crosscheck.disagreements" not in counts

    def test_enum_abstains_on_an_unbounded_subset(self):
        # Both sets are infinite: enumeration cannot decide containment.
        upper = parse_set("{ [i] : i >= 0 }")
        wider = parse_set("{ [i] : i >= -1 }")
        backend = CrossCheckBackend(OmegaBackend(), EnumBackend())
        assert backend.is_subset(upper.conjuncts, wider.conjuncts)
        assert backend.query_counts["crosscheck.abstentions"] == 1

    def test_enum_pins_only_a_column_no_side_constrains(self):
        enum = EnumBackend()
        narrow = parse_set("{ [i, j] : 0 <= i < 4 }").conjuncts
        wide = parse_set("{ [i, j] : 0 <= i < 8 }").conjuncts
        assert enum.is_subset(narrow, wide)
        assert not enum.is_subset(wide, narrow)
        with pytest.raises(Abstain):
            enum.is_subset(narrow, parse_set("{ [i, j] : 0 <= i < 8 and j >= 0 }").conjuncts)


class TestDisagreement:
    def test_divergence_raises_with_replayable_query(self):
        small = parse_set("{ [i] : 0 <= i < 4 }")
        big = parse_set("{ [i] : 0 <= i < 8 }")
        backend = CrossCheckBackend(OmegaBackend(), LyingBackend())
        with pytest.raises(BackendDisagreement) as info:
            backend.is_subset(small.conjuncts, big.conjuncts)
        error = info.value
        assert error.primary == "omega"
        assert error.secondary == "lying"
        assert error.primary_result is True
        assert error.secondary_result is False
        assert backend.query_counts["crosscheck.disagreements"] == 1

        # The payload is JSON-serialisable and replays the exact query: a
        # sound backend answers True, the lying one answers False — offline.
        payload = json.loads(json.dumps(error.to_dict()))
        assert payload["query"]["kind"] == "is_subset"
        assert replay_query(payload["query"], OmegaBackend()) is True
        assert replay_query(payload["query"], EnumBackend()) is True
        assert replay_query(payload["query"], LyingBackend()) is False

    def test_disagreement_is_not_an_exception(self):
        # Like JobTimeoutError: it must pierce `except Exception` recovery.
        assert not issubclass(BackendDisagreement, Exception)
        assert issubclass(BackendDisagreement, BaseException)

    def test_replay_all_kinds(self):
        small = parse_set("{ [i] : 0 <= i < 4 }")
        other = parse_set("{ [i] : 10 <= i < 12 }")
        backend = OmegaBackend()
        feasible = serialize_query("is_feasible", (small.conjuncts[0],))
        assert replay_query(feasible, backend) is True
        disjoint = serialize_query("is_disjoint", small.conjuncts, other.conjuncts)
        assert replay_query(disjoint, backend) is True
        equal = serialize_query("is_equal", small.conjuncts, small.conjuncts)
        assert replay_query(equal, backend) is True
        sample = serialize_query("sample_point", small.conjuncts, seed=1, limit=64)
        assert replay_query(sample, backend) in {(i,) for i in range(4)}

    def test_replay_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            replay_query({"kind": "is_convex", "a": []}, OmegaBackend())


class TestExecutorHandling:
    def test_disagreement_yields_error_result_with_payload(self):
        # The alarm must surface as a structured ERROR row, not crash the
        # batch and not be swallowed by the generic recovery path.
        small = parse_set("{ [i] : 0 <= i < 4 }")
        big = parse_set("{ [i] : 0 <= i < 8 }")
        backend = CrossCheckBackend(OmegaBackend(), LyingBackend())
        job = VerificationJob(
            name="divergent",
            original_source="f(int A[]) { int k; for(k=0;k<4;k++) s1: A[k] = k; }",
            transformed_source="f(int A[]) { int k; for(k=0;k<4;k++) s1: A[k] = k; }",
        )

        def run():
            return backend.is_subset(small.conjuncts, big.conjuncts)

        result = execute_job(job, run=run)
        assert result.status == JobStatus.ERROR
        assert "BackendDisagreement" in result.error
        payload = result.metadata["backend_disagreement"]
        assert payload["primary"] == "omega"
        assert payload["secondary"] == "lying"
        assert replay_query(payload["query"], OmegaBackend()) is True
