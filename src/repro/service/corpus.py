"""Corpus enumeration: turn the repo's workloads into verification jobs.

The corpus runner composes the workload generators with the transformation
pipeline to produce a labelled job list:

* every registered DSP **kernel pair** (:mod:`repro.workloads.kernels`),
  expected equivalent;
* **generated pairs** — random programs transformed by a random
  equivalence-preserving pipeline (:mod:`repro.transforms.pipeline`),
  expected equivalent;
* **buggy pairs** — the same, but with one random error injected by
  :mod:`repro.transforms.mutate`, expected *not* equivalent, so the service
  exercises the diagnostic path and catches false-positive regressions.

Jobs carry their provenance in ``metadata`` and the expected verdict in
``expected_equivalent``, which the report aggregator turns into an
expectation-mismatch count.  Job lists can also be loaded from a JSON file
(see :func:`jobs_from_file`) for user-supplied corpora.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from ..lang import program_to_text
from ..verifier import CheckOptions
from ..workloads import RandomProgramGenerator, kernel_names, kernel_pair
from .job import VerificationJob

__all__ = ["CorpusSpec", "build_corpus", "jobs_from_file"]


@dataclass
class CorpusSpec:
    """What the built-in corpus should contain.

    ``kernels`` lists kernel names (``("all",)`` expands to the full
    registry); ``generated``/``buggy`` count random equivalent/mutated pairs
    derived from seeds ``seed, seed+1, …`` so the corpus is fully
    deterministic and grows by appending, never by reshuffling.

    Every job of the corpus carries the same
    :class:`~repro.verifier.options.CheckOptions`, ``options``.
    """

    kernels: Sequence[str] = ()
    kernel_params: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    generated: int = 0
    buggy: int = 0
    seed: int = 0
    stages: int = 3
    size: int = 24
    transform_steps: int = 3
    options: CheckOptions = field(default_factory=CheckOptions)

    def resolved_kernels(self) -> List[str]:
        if any(name == "all" for name in self.kernels):
            return kernel_names()
        return list(self.kernels)


def _generated_job(
    spec: CorpusSpec, seed: int, name: str, inject_error: bool
) -> VerificationJob:
    generator = RandomProgramGenerator(seed=seed, stages=spec.stages, size=spec.size)
    pair = generator.generate_pair(
        transform_steps=spec.transform_steps, inject_error=inject_error
    )
    metadata: Dict[str, Any] = {
        "source": "generator",
        "seed": seed,
        "stages": spec.stages,
        "size": spec.size,
        "transform_steps": [step.name for step in pair.steps],
    }
    if pair.mutation is not None:
        metadata["mutation"] = {
            "kind": pair.mutation.kind,
            "label": pair.mutation.label,
            "description": pair.mutation.description,
        }
    return VerificationJob(
        name=name,
        original_source=program_to_text(pair.original),
        transformed_source=program_to_text(pair.transformed),
        options=spec.options,
        expected_equivalent=pair.expected_equivalent,
        metadata=metadata,
    )


def build_corpus(spec: CorpusSpec) -> List[VerificationJob]:
    """Enumerate the jobs described by *spec* (deterministic in the spec)."""
    jobs: List[VerificationJob] = []
    for name in spec.resolved_kernels():
        pair = kernel_pair(name, **spec.kernel_params.get(name, {}))
        jobs.append(
            VerificationJob(
                name=f"kernel/{name}",
                original_source=program_to_text(pair.original),
                transformed_source=program_to_text(pair.transformed),
                options=spec.options,
                expected_equivalent=True,
                metadata={
                    "source": "kernel",
                    "kernel": name,
                    "description": pair.description,
                    "uses_algebraic": pair.uses_algebraic,
                    "uses_recurrence": pair.uses_recurrence,
                },
            )
        )
    for offset in range(spec.generated):
        seed = spec.seed + offset
        jobs.append(_generated_job(spec, seed, f"generated/eq-{seed}", inject_error=False))
    for offset in range(spec.buggy):
        # A disjoint seed range keeps buggy pairs from shadowing equivalent
        # ones (same generator seed would yield the same original program).
        seed = spec.seed + 100_000 + offset
        jobs.append(_generated_job(spec, seed, f"generated/bug-{seed}", inject_error=True))
    return jobs


def jobs_from_file(path: str) -> List[VerificationJob]:
    """Load a job list from a JSON file.

    The file holds a list of job objects.  Each object either embeds the
    programs (``original_source`` / ``transformed_source``) or references
    mini-C files (``original`` / ``transformed``, resolved relative to the
    job file); the remaining keys are the :meth:`VerificationJob.from_dict`
    schema — an ``options`` object or the legacy flat option keys.  Any
    malformed entry raises :class:`ValueError` naming its position.
    """
    with open(path, "r", encoding="utf-8") as handle:
        entries = json.load(handle)
    if not isinstance(entries, list):
        raise ValueError(f"job file {path!r} must contain a JSON list of jobs")
    base = os.path.dirname(os.path.abspath(path))
    jobs = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"job #{position} in {path!r} is not an object")
        entry = dict(entry)
        for source_key, path_key in (
            ("original_source", "original"),
            ("transformed_source", "transformed"),
        ):
            if source_key not in entry:
                if path_key not in entry:
                    raise ValueError(
                        f"job #{position} in {path!r} needs {source_key!r} or {path_key!r}"
                    )
                file_path = entry.pop(path_key)
                if not os.path.isabs(file_path):
                    file_path = os.path.join(base, file_path)
                with open(file_path, "r", encoding="utf-8") as handle:
                    entry[source_key] = handle.read()
            else:
                entry.pop(path_key, None)
        entry.setdefault("name", f"job-{position}")
        try:
            jobs.append(VerificationJob.from_dict(entry))
        except (TypeError, KeyError, ValueError) as error:
            # Normalise wrong-typed fields into the ValueError contract the
            # CLI reports cleanly (instead of a raw traceback).
            raise ValueError(f"job #{position} in {path!r} is malformed: {error}") from error
    return jobs
