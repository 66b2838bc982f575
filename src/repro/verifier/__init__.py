"""The session-oriented public API of the equivalence checker.

This package exposes the paper's pipeline (Fig. 6) as explicit, reusable
stages instead of one kwargs-heavy call:

* :class:`~repro.verifier.options.CheckOptions` — the unified, frozen option
  set shared by the checker, the batch service and the CLI, with a stable
  :meth:`~repro.verifier.options.CheckOptions.fingerprint` that participates
  in the service's result-cache key;
* :class:`~repro.verifier.session.Verifier` /
  :class:`~repro.verifier.session.CompiledProgram` — the session object and
  its cached frontend artifact, amortising parse + def-use + ADDG extraction
  across many checks;
* :class:`~repro.verifier.events.CheckObserver` /
  :class:`~repro.verifier.events.CallbackObserver` — streaming milestones
  (per-output verdicts, diagnostics, final stats) for the CLI and the
  service layer.

``repro.checker.check_equivalence`` remains as a one-shot shim over a
throwaway :class:`Verifier`; see ``docs/api.md`` for the migration table.
"""

from .events import CallbackObserver, CheckObserver
from .options import OPTIONS_FINGERPRINT_VERSION, CheckOptions
from .session import CompiledProgram, Verifier, normalized_program_text

__all__ = [
    "CallbackObserver",
    "CheckObserver",
    "CheckOptions",
    "CompiledProgram",
    "OPTIONS_FINGERPRINT_VERSION",
    "Verifier",
    "normalized_program_text",
]
