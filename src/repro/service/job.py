"""The job model of the batch verification service.

A :class:`VerificationJob` is a self-contained, picklable description of one
equivalence check: the two programs as mini-C source text plus the
:class:`~repro.verifier.options.CheckOptions` describing how to check them.
Carrying source text (rather than parsed :class:`~repro.lang.ast.Program`
values) keeps jobs cheap to ship across process boundaries and trivially
serialisable into job files.

The options value is the job's only spelling of *how* to check:
:meth:`VerificationJob.run`, :func:`~repro.service.fingerprint.job_fingerprint`,
the executor and the server all read it.  Job files written before the
``options`` object existed spell the options as flat keys (``method``,
``outputs``, ``correspondences``, ``operators``, ``tabling``,
``check_preconditions``, ``timeout``, ``backend``, ``smt_solver``);
:meth:`VerificationJob.from_dict` still reads them, converting them once.

A :class:`JobResult` is the service-level outcome of running (or recalling
from cache) one job: the checker verdict plus execution status, wall time,
cache provenance and — when the corpus runner attached an expectation — the
comparison against the expected verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..checker import EquivalenceResult, default_registry
from ..verifier import CheckOptions, Verifier

__all__ = ["JobStatus", "VerificationJob", "JobResult"]


class JobStatus:
    """Execution status of one job (independent of the verdict)."""

    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"

    ALL = (OK, ERROR, TIMEOUT)


#: The flat option keys of legacy job-file entries (everything but ``operators``).
_FLAT_KEYS = (
    "method",
    "outputs",
    "correspondences",
    "tabling",
    "check_preconditions",
    "timeout",
    "backend",
    "smt_solver",
)


def _flat_options(data: Dict[str, Any]) -> CheckOptions:
    """The :class:`CheckOptions` a legacy flat-key job entry describes.

    Flat ``operators`` are ``(name, props)`` declarations applied on top of
    the default registry; empty props remove a default law.
    """
    registry = default_registry()
    for op, props in data.get("operators", ()):
        props = str(props).upper()
        registry.declare(str(op), associative="A" in props, commutative="C" in props)
    flat = {key: data[key] for key in _FLAT_KEYS if key in data}
    return CheckOptions.from_registry(registry, **flat)


@dataclass
class VerificationJob:
    """One (original, transformed) pair plus the checker options to use.

    ``options.timeout`` is this job's own wall-clock budget in seconds; it
    overrides the executor's and the server's budgets when set (see
    :func:`~repro.service.executor.job_budget`).
    """

    name: str
    original_source: str
    transformed_source: str
    options: CheckOptions = field(default_factory=CheckOptions)
    expected_equivalent: Optional[bool] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> EquivalenceResult:
        """Run the equivalence check described by this job (in-process)."""
        return Verifier().check(
            self.original_source, self.transformed_source, options=self.options
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "original_source": self.original_source,
            "transformed_source": self.transformed_source,
            "options": self.options.to_dict(),
            "expected_equivalent": self.expected_equivalent,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerificationJob":
        """Build a job from its JSON form.

        The options come from an ``"options"`` object in the
        :meth:`CheckOptions.to_dict` shape or, when that is absent, from the
        legacy flat keys.  A wrong-typed entry raises :class:`ValueError`
        (or :class:`TypeError`/:class:`KeyError`), never a later run failure.
        """
        options = data.get("options")
        if options is None:
            options = _flat_options(data)
        elif isinstance(options, dict):
            options = CheckOptions.from_dict(options)
        else:
            raise ValueError(f"'options' must be an object, got {type(options).__name__}")
        return cls(
            name=data["name"],
            original_source=data["original_source"],
            transformed_source=data["transformed_source"],
            options=options,
            expected_equivalent=data.get("expected_equivalent"),
            metadata=dict(data.get("metadata", {})),
        )


@dataclass
class JobResult:
    """The service-level outcome of one job."""

    name: str
    status: str
    equivalent: Optional[bool] = None
    expected_equivalent: Optional[bool] = None
    elapsed_seconds: float = 0.0
    cache_hit: bool = False
    fingerprint: str = ""
    result: Optional[EquivalenceResult] = None
    error: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    # The job's spans and opcache counts, packed by execute_job(ship=True)
    # for another process.  Transient: the executor or the daemon consumes (and
    # clears) it, and it never appears in ``to_dict`` / the JSONL reports.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def matches_expectation(self) -> Optional[bool]:
        """Whether the verdict matched the expectation (``None`` when unknown).

        ``None`` means no expectation was attached or the job did not complete.
        """
        if self.expected_equivalent is None or self.status != JobStatus.OK:
            return None
        return self.equivalent == self.expected_equivalent

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "equivalent": self.equivalent,
            "expected_equivalent": self.expected_equivalent,
            "matches_expectation": self.matches_expectation,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_hit": self.cache_hit,
            "fingerprint": self.fingerprint,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        result = data.get("result")
        return cls(
            name=data["name"],
            status=data["status"],
            equivalent=data.get("equivalent"),
            expected_equivalent=data.get("expected_equivalent"),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            cache_hit=data.get("cache_hit", False),
            fingerprint=data.get("fingerprint", ""),
            result=EquivalenceResult.from_dict(result) if result is not None else None,
            error=data.get("error"),
            metadata=dict(data.get("metadata", {})),
        )
