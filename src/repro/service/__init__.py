"""Batch verification service: jobs, result cache, parallel executor, corpus.

This package is the production layer above :func:`repro.checker.api.check_equivalence`:
it runs many (original, transformed) pairs per invocation, reuses verdicts
through a content-addressed cache, fans cache misses out to worker processes,
and aggregates the outcomes into a JSONL report.  The ``repro-eqcheck batch``
CLI subcommand and :mod:`benchmarks.bench_service` are thin wrappers over it.

Module tour
-----------

* :mod:`~repro.service.job` — :class:`VerificationJob` (picklable check
  description carrying a :class:`~repro.verifier.options.CheckOptions`) and
  :class:`JobResult` (verdict + execution status);
* :mod:`~repro.service.fingerprint` — content-addressed job fingerprints
  over normalised sources, the cache key;
* :mod:`~repro.service.cache` — the on-disk verdict cache with an LRU front;
* :mod:`~repro.service.executor` — :class:`BatchExecutor`: in-batch
  deduplication, process pool, per-job timeouts (a signal-free watchdog on
  any thread — see :func:`call_with_timeout`), and the job-running steps
  the verification server shares with it;
* :mod:`~repro.service.corpus` — turns the repo's workloads (kernels,
  generated pairs, mutated buggy pairs) into labelled job lists;
* :mod:`~repro.service.report` — JSONL report writing/reading and the batch
  summary (verdict counts, timing percentiles, verdict-cache and Presburger
  operation-cache aggregates).

The end-to-end workflow is documented in ``docs/batch-verification.md``.
"""

from ..verifier import CheckOptions
from .cache import CacheStats, ResultCache
from .corpus import CorpusSpec, build_corpus, jobs_from_file
from .executor import BatchExecutor, JobTimeoutError, call_with_timeout, execute_job
from .fingerprint import CACHE_FORMAT_VERSION, job_fingerprint, normalize_source
from .job import JobResult, JobStatus, VerificationJob
from .report import (
    aggregate_results,
    format_summary,
    read_report,
    scenario_summary,
    write_report,
    write_result_row,
    write_summary_row,
)

__all__ = [
    "BatchExecutor",
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CheckOptions",
    "CorpusSpec",
    "JobResult",
    "JobStatus",
    "JobTimeoutError",
    "ResultCache",
    "VerificationJob",
    "aggregate_results",
    "build_corpus",
    "call_with_timeout",
    "execute_job",
    "format_summary",
    "job_fingerprint",
    "jobs_from_file",
    "normalize_source",
    "read_report",
    "scenario_summary",
    "write_report",
    "write_result_row",
    "write_summary_row",
]
