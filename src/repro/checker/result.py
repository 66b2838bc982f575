"""Checker verdicts, statistics and error diagnostics.

The checker never simply answers "no": every failed check produces a
:class:`Diagnostic` carrying the kind of mismatch, the statements and arrays
involved on both sides, the conflicting dependency mappings and the output
domain on which they disagree, plus suspect statements/variables derived by
the heuristic of Section 6.1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Diagnostic", "CheckStats", "OutputReport", "EquivalenceResult", "DiagnosticKind"]


class DiagnosticKind:
    """Symbolic names of the diagnostic categories emitted by the checker."""

    PRECONDITION = "precondition"
    OUTPUT_MISSING = "output-missing"
    DOMAIN_MISMATCH = "output-domain-mismatch"
    UNDEFINED_READ = "undefined-read"
    OPERATOR_MISMATCH = "operator-mismatch"
    LEAF_MISMATCH = "leaf-mismatch"
    CONSTANT_MISMATCH = "constant-mismatch"
    MAPPING_MISMATCH = "mapping-mismatch"
    OPERAND_COUNT_MISMATCH = "operand-count-mismatch"
    SIGNATURE_MISMATCH = "signature-mismatch"
    MATCHING_FAILURE = "matching-failure"
    KIND_MISMATCH = "kind-mismatch"
    UNSUPPORTED = "unsupported"

    ALL = (
        PRECONDITION,
        OUTPUT_MISSING,
        DOMAIN_MISMATCH,
        UNDEFINED_READ,
        OPERATOR_MISMATCH,
        LEAF_MISMATCH,
        CONSTANT_MISMATCH,
        MAPPING_MISMATCH,
        OPERAND_COUNT_MISMATCH,
        SIGNATURE_MISMATCH,
        MATCHING_FAILURE,
        KIND_MISMATCH,
        UNSUPPORTED,
    )


@dataclass
class Diagnostic:
    """A single piece of error feedback for the designer."""

    kind: str
    message: str
    output_array: Optional[str] = None
    original_statements: Tuple[str, ...] = ()
    transformed_statements: Tuple[str, ...] = ()
    original_arrays: Tuple[str, ...] = ()
    transformed_arrays: Tuple[str, ...] = ()
    original_mapping: Optional[str] = None
    transformed_mapping: Optional[str] = None
    mismatch_domain: Optional[str] = None
    original_path: Tuple[str, ...] = ()
    transformed_path: Tuple[str, ...] = ()
    suspect_statements: Tuple[str, ...] = ()
    suspect_arrays: Tuple[str, ...] = ()

    def format(self) -> str:
        """A multi-line human readable rendering of the diagnostic."""
        lines = [f"[{self.kind}] {self.message}"]
        if self.output_array:
            lines.append(f"  output array      : {self.output_array}")
        if self.original_statements:
            lines.append(f"  original stmts    : {', '.join(self.original_statements)}")
        if self.transformed_statements:
            lines.append(f"  transformed stmts : {', '.join(self.transformed_statements)}")
        if self.original_mapping:
            lines.append(f"  original mapping  : {self.original_mapping}")
        if self.transformed_mapping:
            lines.append(f"  transformed mapping: {self.transformed_mapping}")
        if self.mismatch_domain:
            lines.append(f"  mismatch domain   : {self.mismatch_domain}")
        if self.original_path:
            lines.append(f"  original path     : {' -> '.join(self.original_path)}")
        if self.transformed_path:
            lines.append(f"  transformed path  : {' -> '.join(self.transformed_path)}")
        if self.suspect_statements:
            lines.append(f"  suspect statements: {', '.join(self.suspect_statements)}")
        if self.suspect_arrays:
            lines.append(f"  suspect variables : {', '.join(self.suspect_arrays)}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable rendering (tuples become lists)."""
        data = asdict(self)
        return {key: list(value) if isinstance(value, tuple) else value for key, value in data.items()}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Diagnostic":
        kwargs = dict(data)
        for key in (
            "original_statements",
            "transformed_statements",
            "original_arrays",
            "transformed_arrays",
            "original_path",
            "transformed_path",
            "suspect_statements",
            "suspect_arrays",
        ):
            if key in kwargs and kwargs[key] is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class CheckStats:
    """Work counters of one equivalence check (used by the benchmarks).

    The tabling counters (``table_hits`` / ``table_entries``) instrument the
    Section 6.2 reuse of established equivalences; the ``opcache_*`` and
    ``intern_hits`` counters instrument the layer below — the memoized
    Presburger operation cache of :mod:`repro.presburger.opcache` — from
    the check's own collector, so other threads' work never reaches them.

    Wall time is split along the pipeline stages of the staged verifier API:
    ``frontend_seconds`` (parse + def-use + ADDG extraction actually paid by
    this check — a session-cached :class:`~repro.verifier.session.CompiledProgram`
    contributes ~0) and ``engine_seconds`` (the synchronized traversal);
    ``elapsed_seconds`` is kept as their sum for schema compatibility.
    ``phase_seconds`` refines the split further when :mod:`repro.telemetry`
    tracing is active during the check: a per-phase breakdown (``frontend`` /
    ``engine`` / ``presburger`` / …) aggregated from the very spans the trace
    file carries.  It stays empty when tracing is off, and readers must treat
    it as schema-tolerant: keys may come and go as instrumentation evolves.
    """

    elapsed_seconds: float = 0.0
    frontend_seconds: float = 0.0
    engine_seconds: float = 0.0
    compare_calls: int = 0
    leaf_comparisons: int = 0
    paths_checked: int = 0
    table_hits: int = 0
    table_entries: int = 0
    flatten_operations: int = 0
    matching_operations: int = 0
    assumption_uses: int = 0
    original_addg_size: int = 0
    transformed_addg_size: int = 0
    opcache_hits: int = 0
    opcache_misses: int = 0
    intern_hits: int = 0
    # Which decision-procedure backend produced the verdict (PR 8,
    # ``repro.solvers``) and how many queries it answered, keyed
    # ``"<backend>.<kind>"``.  ``solver_queries`` stays empty under the
    # default omega backend, whose decisions run inline.
    backend: str = "omega"
    solver_queries: Dict[str, int] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    # Keys from other schema versions, preserved verbatim by the round trip
    # (never interpreted here); see ``from_dict``.
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            f.name: getattr(self, f.name) for f in dataclass_fields(self) if f.name != "extra"
        }
        data["phase_seconds"] = dict(self.phase_seconds)
        # Unknown keys ride along at the top level so a row written by a
        # different stats schema re-serialises losslessly; known keys always
        # win over a stale extra entry of the same name.
        for key, value in self.extra.items():
            data.setdefault(key, value)
        return data

    # ``as_dict`` predates the cache; ``to_dict``/``from_dict`` complete the
    # round trip used by the verification service.
    to_dict = as_dict

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CheckStats":
        known = {f.name for f in dataclass_fields(cls)} - {"extra"}
        # Tolerate rows written by other versions of the stats schema: extra
        # keys are parked in ``extra`` (and re-emitted by ``to_dict``, so the
        # round trip is lossless), missing ones keep their defaults.
        stats = cls(**{key: value for key, value in data.items() if key in known})
        stats.phase_seconds = dict(stats.phase_seconds)
        stats.extra = {key: value for key, value in data.items() if key not in known}
        return stats


@dataclass
class OutputReport:
    """The per-output-array verdict of a check."""

    array: str
    equivalent: bool
    checked_domain: Optional[str] = None
    failing_domain: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OutputReport":
        return cls(**data)


@dataclass
class EquivalenceResult:
    """The overall verdict of one equivalence check."""

    equivalent: bool
    outputs: List[OutputReport] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    stats: CheckStats = field(default_factory=CheckStats)
    method: str = "extended"

    def failures(self) -> List[Diagnostic]:
        return list(self.diagnostics)

    def diagnostics_of_kind(self, kind: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.kind == kind]

    def summary(self) -> str:
        """A compact human readable report (what the CLI prints)."""
        lines = []
        verdict = "EQUIVALENT" if self.equivalent else "NOT PROVEN EQUIVALENT"
        lines.append(f"{verdict}  (method: {self.method})")
        for report in self.outputs:
            status = "ok" if report.equivalent else "FAILED"
            line = f"  output {report.array}: {status}"
            if report.failing_domain and not report.equivalent:
                line += f"  (failing on {report.failing_domain})"
            lines.append(line)
        if self.diagnostics:
            lines.append(f"  {len(self.diagnostics)} diagnostic(s):")
            for diagnostic in self.diagnostics:
                for text_line in diagnostic.format().splitlines():
                    lines.append("    " + text_line)
        lines.append(
            "  stats: "
            f"{self.stats.paths_checked} path(s), {self.stats.compare_calls} compare call(s), "
            f"{self.stats.table_hits} table hit(s), {self.stats.opcache_hits} opcache hit(s), "
            f"{self.stats.elapsed_seconds:.3f} s"
        )
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return self.equivalent

    def __str__(self) -> str:
        return self.summary()

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable rendering; inverse of :meth:`from_dict`.

        Used by :mod:`repro.service` to persist verdicts in the result cache
        and to ship results across process boundaries.
        """
        return {
            "equivalent": self.equivalent,
            "outputs": [report.to_dict() for report in self.outputs],
            "diagnostics": [diagnostic.to_dict() for diagnostic in self.diagnostics],
            "stats": self.stats.to_dict(),
            "method": self.method,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EquivalenceResult":
        return cls(
            equivalent=data["equivalent"],
            outputs=[OutputReport.from_dict(entry) for entry in data.get("outputs", [])],
            diagnostics=[Diagnostic.from_dict(entry) for entry in data.get("diagnostics", [])],
            stats=CheckStats.from_dict(data.get("stats", {})),
            method=data.get("method", "extended"),
        )
