"""Command-line driver: one-pair checking (Fig. 6) and batch verification.

Usage::

    repro-eqcheck check original.c transformed.c
    repro-eqcheck check original.c transformed.c --method basic --output C
    repro-eqcheck check original.c transformed.c --json
    repro-eqcheck diagnose original.c transformed.c
    repro-eqcheck batch --generated 40 --buggy 10 --report report.jsonl
    repro-eqcheck batch --jobs jobs.json --workers 4 --timeout 60
    repro-eqcheck fuzz --seed 0 --pairs 50 --report fuzz_report.jsonl
    repro-eqcheck fuzz --smoke
    repro-eqcheck serve --port 8571 --workers 2 --cache-dir .eqcheck_cache
    repro-eqcheck serve --log server.jsonl --slow-threshold 5
    repro-eqcheck check original.c transformed.c --server 127.0.0.1:8571
    repro-eqcheck batch --kernel all --server 127.0.0.1:8571
    repro-eqcheck stats 127.0.0.1:8571
    repro-eqcheck stats --prom

``check`` accepts the original and the transformed function in the mini-C
subset and runs them through a :class:`repro.verifier.Verifier` session: the
def-use checker, ADDG extraction and the equivalence engine.  Per-output
progress streams to stderr while the check runs (via the observer protocol);
the final summary and verdict go to stdout, with exit status 0 / 1 for
equivalent / not equivalent.  ``--json`` replaces the human summary with the
machine-readable :meth:`EquivalenceResult.to_dict` JSON object — the same
schema the batch JSONL report embeds per result row (see
``docs/batch-verification.md``).

``diagnose`` (:mod:`repro.diagnostics`) checks the pair like ``check`` and
then explains a non-equivalent verdict end to end: a concrete witness cell
sampled from the Presburger mismatch set, an interpreter replay that
reproduces the divergence on a seeded input (with the writing statements of
both sides), and the cell's dependency paths through the two ADDGs.  Exit
status follows ``check``; ``--json`` emits the
:meth:`FailureReport.to_dict` form.

``batch`` runs many pairs through :mod:`repro.service`: either a JSON job
file (``--jobs``) or the built-in corpus (kernels, generated equivalent pairs
and mutated buggy pairs), with result caching, optional worker processes and
per-job timeouts, writing a JSONL report.  It exits 0 when every job
completed and matched its expectation, 1 otherwise.

``serve`` starts the long-lived verification server (:mod:`repro.server`):
an asyncio daemon speaking newline-delimited JSON over TCP and/or a unix
socket, holding one warm verifier session (whose compile cache every request
shares) and the verdict cache across requests, with cross-request dedup of
identical in-flight jobs and graceful ``SIGTERM`` draining.  ``check --server`` and
``batch --server`` send their jobs to such a daemon instead of checking
in-process — verdicts, output and exit codes are identical, only the
execution moves; see ``docs/server.md``.

``fuzz`` is the self-exercising mode (:mod:`repro.scenarios`): it manufactures
a seeded, labelled corpus of composed-transformation pairs plus mutated buggy
twins, labels every pair with the differential interpreter oracle, runs the
corpus through the batch service and reports the
checker-vs-expected-vs-oracle confusion matrix.  Unless ``--no-diagnose`` is
given, every non-equivalent verdict is additionally diagnosed
(:mod:`repro.diagnostics`): the failure report rides along in the JSONL rows
and two more hard gates apply — an oracle witness the checker-side replay
cannot reproduce, and a mutated twin whose pipeline bisection fails to name
the injected mutation step.  It exits non-zero on any *soundness
disagreement* (the checker proved a pair the oracle refutes with a concrete
witness input), on witness/bisection gate violations, on label disputes
(corpus bugs) and on failed jobs; re-running with the same seed reproduces
the corpus byte for byte.

All subcommands build one :class:`repro.verifier.CheckOptions` from the
shared checker flags (``--method``, ``--output``, ``--correspond``,
``--declare-op``, ``--no-tabling``, ``--no-preconditions``), so the option
set cannot drift between the one-pair and the batch paths.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Sequence, TextIO

from . import telemetry
from .addg import addg_to_dot
from .checker import default_registry
from .lang import LangError, parse_program
from .verifier import CheckObserver, CheckOptions, Verifier
from .verifier.options import BACKEND_NAMES, is_budget

__all__ = ["main", "build_cli_parser", "checker_options_from_args"]

_DESCRIPTION = (
    "Functional equivalence checker for array-intensive programs related by "
    "expression propagation, loop and algebraic transformations (DATE 2005)."
)


def _seconds(text: str) -> float:
    """argparse type of the budget flags: the one budget rule (:func:`is_budget`)."""
    try:
        if is_budget(float(text)):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a finite, non-negative number of seconds, got {text!r}"
    )


def _count(minimum: int) -> Callable[[str], int]:
    """argparse type of an integer flag that is at least *minimum*."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _probability(text: str) -> float:
    """argparse type of a probability flag: a number in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {text!r}")
    return value


def _add_checker_option_arguments(parser: argparse.ArgumentParser) -> None:
    """The checker flags shared by ``check`` and ``batch`` (one option set)."""
    parser.add_argument(
        "--method",
        choices=("basic", "extended"),
        default="extended",
        help="'basic' disables algebraic normalisation (Section 5.1); default: extended",
    )
    parser.add_argument(
        "--output",
        action="append",
        default=None,
        metavar="ARRAY",
        help="restrict the check to the given output array (repeatable, focused checking)",
    )
    parser.add_argument(
        "--correspond",
        action="append",
        default=[],
        metavar="ORIG=TRANS",
        help="declare an intermediate-array correspondence, e.g. --correspond buf=buf2",
    )
    parser.add_argument(
        "--declare-op",
        action="append",
        default=[],
        metavar="OP:PROPS",
        help="declare operator properties, e.g. --declare-op min:AC or --declare-op f:C",
    )
    parser.add_argument(
        "--no-preconditions",
        action="store_true",
        help="skip the def-use / single-assignment prerequisite checks",
    )
    parser.add_argument(
        "--no-tabling",
        action="store_true",
        help="disable tabling of established equivalences (for ablation experiments)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="omega",
        help="decision-procedure backend: the omega core (default), an SMT-LIB2 "
        "solver binary, or 'crosscheck' (omega vs brute-force enumeration on "
        "every query, hard error on divergence)",
    )
    parser.add_argument(
        "--smt-solver",
        metavar="CMD",
        default=None,
        help="solver command for --backend smtlib, e.g. 'z3' or 'cvc5 --lang smt2' "
        "(default: z3, else cvc5, on PATH)",
    )
    parser.add_argument(
        "--persist-dir",
        metavar="DIR",
        default=None,
        help="persist the Presburger operation cache under DIR so warm state "
        "survives processes (shared by batch workers; default: in-memory only)",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability flags every subcommand shares (see docs/observability.md)."""
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record spans for the whole run and write Chrome trace-event JSON "
        "(load in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write the run's Presburger work counters as JSONL "
        "(one counter row per line, then an aggregate opcache row)",
    )


def _add_check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("original", help="path to the original function (mini-C)")
    parser.add_argument("transformed", help="path to the transformed function (mini-C)")
    _add_checker_option_arguments(parser)
    _add_telemetry_arguments(parser)
    parser.add_argument(
        "--dump-addg",
        nargs=2,
        metavar=("ORIG_DOT", "TRANS_DOT"),
        help="write the two extracted ADDGs in Graphviz DOT format and continue",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable EquivalenceResult.to_dict() JSON instead of the summary",
    )
    parser.add_argument("--quiet", action="store_true", help="print only the verdict line")
    parser.add_argument(
        "--server",
        metavar="ADDR",
        default=None,
        help="send the check to a running `repro-eqcheck serve` daemon "
        "(HOST:PORT or unix:PATH) instead of checking in-process",
    )
    parser.add_argument(
        "--timeout",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the check (enforced server-side with --server)",
    )


def _add_diagnose_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("original", help="path to the original function (mini-C)")
    parser.add_argument("transformed", help="path to the transformed function (mini-C)")
    _add_checker_option_arguments(parser)
    _add_telemetry_arguments(parser)
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed of the replay inputs (default: 0)"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable FailureReport.to_dict() JSON instead of the report",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the check progress lines on stderr"
    )


def _add_run_arguments(
    parser: argparse.ArgumentParser, report: str, workers_for: str, noun: str
) -> None:
    """The --report/--workers/--timeout/--quiet arguments of batch and fuzz.

    *report* is the default report path, *workers_for* what the worker
    processes run and *noun* what one progress line reports.
    """
    parser.add_argument(
        "--report",
        metavar="FILE",
        default=report,
        help=f"JSONL report path (default: {report}; '-' to skip the file)",
    )
    parser.add_argument(
        "--workers",
        type=_count(1),
        default=1,
        metavar="N",
        help=f"worker processes for {workers_for} (default: 1 = serial)",
    )
    parser.add_argument(
        "--timeout",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget (default: unlimited)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help=f"print only the summary (no per-{noun} lines)"
    )


def _add_batch_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_argument_group("job sources")
    source.add_argument(
        "--jobs",
        metavar="FILE",
        help="JSON job file (list of jobs with inline sources or mini-C file paths)",
    )
    source.add_argument(
        "--kernel",
        action="append",
        default=[],
        metavar="NAME",
        help="include the named DSP kernel pair ('all' for the whole registry; repeatable)",
    )
    source.add_argument(
        "--generated",
        type=_count(0),
        default=0,
        metavar="N",
        help="include N randomly generated equivalence-preserving pairs",
    )
    source.add_argument(
        "--buggy",
        type=_count(0),
        default=0,
        metavar="N",
        help="include N generated pairs with one injected error (expected not equivalent)",
    )
    source.add_argument("--seed", type=int, default=0, help="base seed of the generated pairs")
    source.add_argument("--stages", type=_count(1), default=3, help="stages per generated program")
    source.add_argument("--size", type=_count(1), default=24, help="domain size of generated programs")
    source.add_argument(
        "--transform-steps", type=_count(0), default=3, help="transformation steps per generated pair"
    )
    _add_checker_option_arguments(parser)
    _add_run_arguments(parser, "eqcheck_report.jsonl", "cache misses", "job")
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=".eqcheck_cache",
        help="result cache directory (default: .eqcheck_cache)",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    parser.add_argument(
        "--server",
        metavar="ADDR",
        default=None,
        help="send the jobs to a running `repro-eqcheck serve` daemon (HOST:PORT or "
        "unix:PATH); caching, workers and timeouts are then the server's",
    )
    _add_telemetry_arguments(parser)


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1; use 0.0.0.0 behind a trusted network only)",
    )
    parser.add_argument(
        "--port",
        type=_count(0),
        default=8571,
        metavar="PORT",
        help="TCP port (default: 8571; 0 binds an ephemeral port, printed on startup)",
    )
    parser.add_argument(
        "--unix-socket",
        metavar="PATH",
        default=None,
        help="also (or instead) listen on a unix domain socket at PATH",
    )
    parser.add_argument(
        "--no-tcp",
        action="store_true",
        help="do not bind a TCP listener (requires --unix-socket)",
    )
    parser.add_argument(
        "--workers",
        type=_count(1),
        default=1,
        metavar="N",
        help="verifier worker threads; each holds one warm session (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist the verdict cache under DIR (default: in-memory only)",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the verdict cache")
    parser.add_argument(
        "--timeout",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="default per-job budget when a request carries none (default: unlimited)",
    )
    parser.add_argument(
        "--max-timeout",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="ceiling on every budget, a job's own included (default: none)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="decision backend applied to requests that do not choose one "
        "themselves (default: honour each job's own options)",
    )
    parser.add_argument(
        "--smt-solver",
        metavar="CMD",
        default=None,
        help="solver command for --backend smtlib (default: z3, else cvc5, on PATH)",
    )
    parser.add_argument(
        "--persist-dir",
        metavar="DIR",
        default=None,
        help="persist the Presburger operation cache under DIR so warm "
        "state survives server restarts (default: in-memory only)",
    )
    observability = parser.add_argument_group("observability")
    observability.add_argument(
        "--log",
        metavar="FILE",
        default=None,
        dest="log_path",
        help="append one structured JSON event per line (connects, requests, "
        "verdicts) to FILE; see docs/observability.md for the schema",
    )
    observability.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum event level written to --log (default: info; debug adds "
        "connect/disconnect and non-check requests)",
    )
    observability.add_argument(
        "--slow-threshold",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="capture a self-contained record of every check slower than "
        "SECONDS into the in-memory slow ring (0 captures everything; "
        "default: disabled)",
    )


def _add_stats_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "server",
        nargs="?",
        default="127.0.0.1:8571",
        metavar="ADDR",
        help="server address, HOST:PORT or unix:PATH (default: 127.0.0.1:8571)",
    )
    parser.add_argument(
        "--prom",
        action="store_true",
        help="print the snapshot in Prometheus text exposition format 0.0.4",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw JSON snapshot instead of the human summary",
    )
    parser.add_argument(
        "--slow",
        action="store_true",
        help="also fetch and print the captured slow-request records",
    )


def _add_fuzz_arguments(parser: argparse.ArgumentParser) -> None:
    corpus = parser.add_argument_group("corpus shape")
    corpus.add_argument("--seed", type=int, default=0, help="corpus seed (default: 0)")
    corpus.add_argument(
        "--pairs",
        type=_count(1),
        default=20,
        metavar="N",
        help="number of scenarios; each yields one equivalent pair and, at "
        "--mutation-rate, one mutated buggy twin (default: 20)",
    )
    corpus.add_argument(
        "--max-depth",
        type=_count(1),
        default=4,
        metavar="K",
        help="maximum composed-transformation pipeline depth (default: 4)",
    )
    corpus.add_argument(
        "--mutation-rate",
        type=_probability,
        default=0.35,
        metavar="P",
        help="probability of pairing a scenario with a known-buggy twin (default: 0.35)",
    )
    corpus.add_argument(
        "--size", type=_count(1), default=20, help="domain size of generated base programs (default: 20)"
    )
    _add_checker_option_arguments(parser)
    _add_run_arguments(parser, "fuzz_report.jsonl", "the verification batch", "pair")
    parser.add_argument(
        "--corpus-out",
        metavar="FILE",
        default=None,
        help="also persist the labelled scenario corpus (sources, traces, oracle verdicts) "
        "as JSONL",
    )
    parser.add_argument(
        "--no-diagnose",
        action="store_true",
        help="skip the witness diagnosis of non-equivalent pairs (and its report blocks)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on incompleteness (equivalent pairs the checker cannot prove)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed-size CI corpus (overrides --pairs/--size/--max-depth)",
    )
    _add_telemetry_arguments(parser)


def build_cli_parser() -> argparse.ArgumentParser:
    """The subcommand CLI: ``check``, ``diagnose``, ``batch``, ``fuzz``, ``serve``, ``stats``."""
    parser = argparse.ArgumentParser(prog="repro-eqcheck", description=_DESCRIPTION)
    subparsers = parser.add_subparsers(dest="command", required=True)
    check = subparsers.add_parser(
        "check", help="check one (original, transformed) pair", description=_DESCRIPTION
    )
    _add_check_arguments(check)
    diagnose = subparsers.add_parser(
        "diagnose",
        help="check one pair and explain a non-equivalent verdict with a concrete, "
        "replayable witness",
        description=(
            "Witness synthesis and fault localization: sample a concrete element "
            "from the checker's Presburger mismatch sets, reproduce the divergence "
            "with the reference interpreter on seeded inputs, and walk the cell's "
            "dependency paths through both ADDGs."
        ),
    )
    _add_diagnose_arguments(diagnose)
    batch = subparsers.add_parser(
        "batch",
        help="run a job file or the built-in corpus through the batch service",
        description="Batch verification with result caching and parallel workers.",
    )
    _add_batch_arguments(batch)
    fuzz = subparsers.add_parser(
        "fuzz",
        help="manufacture a labelled scenario corpus and cross-check the checker "
        "against the differential interpreter oracle",
        description=(
            "Self-exercising verification: composed transformation pipelines plus "
            "mutated buggy twins, every verdict cross-checked against an "
            "interpreter-based differential oracle.  Exits non-zero on any "
            "soundness disagreement."
        ),
    )
    _add_fuzz_arguments(fuzz)
    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived verification server (warm sessions, shared "
        "caches, request dedup)",
        description=(
            "A JSON-over-TCP/unix-socket daemon that keeps a verifier session "
            "(its compiled programs) and the verdict cache warm across requests, "
            "coalesces identical in-flight jobs, and drains gracefully on "
            "SIGTERM.  Point `check --server` / `batch --server` at it."
        ),
    )
    _add_serve_arguments(serve)
    stats = subparsers.add_parser(
        "stats",
        help="inspect a running server: deep counters, latency histograms, "
        "Prometheus exposition, slow requests",
        description=(
            "Fetch a running server's observability snapshot and render it as "
            "a human summary (default), raw JSON (--json), or Prometheus text "
            "exposition (--prom, ready for a scrape job or textfile collector)."
        ),
    )
    _add_stats_arguments(stats)
    return parser


def _parse_correspondences(entries: Sequence[str]) -> List[tuple]:
    result = []
    for entry in entries:
        if "=" not in entry:
            raise SystemExit(f"error: --correspond expects ORIG=TRANS, got {entry!r}")
        left, right = entry.split("=", 1)
        result.append((left.strip(), right.strip()))
    return result


def _parse_operator_declarations(entries: Sequence[str]):
    registry = default_registry()
    for entry in entries:
        if ":" not in entry:
            raise SystemExit(f"error: --declare-op expects OP:PROPS, got {entry!r}")
        op, props = entry.split(":", 1)
        props = props.strip().upper()
        registry.declare(op.strip(), associative="A" in props, commutative="C" in props)
    return registry


def checker_options_from_args(args: argparse.Namespace) -> CheckOptions:
    """Build the one :class:`CheckOptions` value both subcommands share."""
    return CheckOptions.from_registry(
        _parse_operator_declarations(args.declare_op),
        method=args.method,
        outputs=tuple(args.output) if args.output else None,
        correspondences=tuple(_parse_correspondences(args.correspond)),
        tabling=not args.no_tabling,
        check_preconditions=not args.no_preconditions,
        timeout=getattr(args, "timeout", None),
        backend=getattr(args, "backend", "omega"),
        smt_solver=getattr(args, "smt_solver", None),
    )


class _ProgressObserver(CheckObserver):
    """Streams per-output progress lines to *stream* while a check runs."""

    def __init__(self, stream: TextIO):
        self._stream = stream

    def on_output_checked(self, report) -> None:
        status = "ok" if report.equivalent else "FAILED"
        print(f"  [checking] output {report.array}: {status}", file=self._stream, flush=True)

    def on_stats(self, stats) -> None:
        print(
            f"  [checking] frontend {stats.frontend_seconds:.3f} s, "
            f"engine {stats.engine_seconds:.3f} s",
            file=self._stream,
            flush=True,
        )


def _read_pair(args: argparse.Namespace):
    """Read the two mini-C files of a pair subcommand.

    Returns ``(original_source, transformed_source)`` or ``None`` after
    printing the usage error (the caller exits 2).
    """
    try:
        with open(args.original, "r", encoding="utf-8") as handle:
            original_source = handle.read()
        with open(args.transformed, "r", encoding="utf-8") as handle:
            transformed_source = handle.read()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    return original_source, transformed_source


def _parse_pair(args: argparse.Namespace, sources):
    """Parse the two sources read by :func:`_read_pair`.

    Returns the two programs, or ``None`` after printing the frontend error
    with the file it came from (the caller exits 2: malformed input is a
    usage error, not a "not proven" verdict).
    """
    programs = []
    for path, source in zip((args.original, args.transformed), sources):
        try:
            programs.append(parse_program(source))
        except LangError as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return None
    return programs


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, sort_keys=True))


def _warn_ignored(flags, context: str, reason: str) -> None:
    """Say out loud which of the given ``(flag, given)`` pairs *context* ignores."""
    ignored = [flag for flag, given in flags if given]
    if ignored:
        print(f"warning: {', '.join(ignored)} ignored with {context} ({reason})", file=sys.stderr)


def _print_result(args: argparse.Namespace, result) -> int:
    """Render a ``check`` verdict (in-process and ``--server`` alike); the exit code."""
    if args.json:
        _print_json(result.to_dict())
    elif args.quiet:
        print("Equivalent" if result.equivalent else "Not equivalent")
    else:
        print(result.summary())
    return 0 if result.equivalent else 1


def _ingest_server_spans(outcome) -> None:
    """Fold a server result's spans into the client tracer, then drop the
    transient payload so reports stay lean."""
    if outcome.telemetry:
        telemetry.ingest_spans(outcome.telemetry.get("spans") or ())
        outcome.telemetry = None


def _check_on_server(args: argparse.Namespace, original_source: str, transformed_source: str) -> int:
    """The `check --server` path: ship the pair to a daemon, render as usual."""
    from .server import ServerClient, ServerError
    from .service import JobStatus, VerificationJob

    if args.dump_addg:
        print("error: --dump-addg is not available with --server", file=sys.stderr)
        return 2
    _warn_ignored(
        [("--persist-dir", args.persist_dir is not None)],
        "--server",
        "the daemon's own pool and cache apply",
    )
    job = VerificationJob(
        name=args.original,
        original_source=original_source,
        transformed_source=transformed_source,
        options=checker_options_from_args(args),
    )
    # When the run is traced (--trace wraps this via _run_with_telemetry),
    # ask the daemon for its spans too and merge them into our timeline: the
    # exported trace then shows client wait and server work side by side,
    # keyed by pid.
    try:
        with ServerClient(args.server) as client:
            with telemetry.TRACER.span("client.request", "server", server=args.server):
                outcome = client.check_job(
                    job, timeout=args.timeout, trace=telemetry.TRACER.enabled
                )
    except (ServerError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _ingest_server_spans(outcome)
    if outcome.status != JobStatus.OK or outcome.result is None:
        print(
            f"error: server check {outcome.status}: {outcome.error or 'no result'}",
            file=sys.stderr,
        )
        return 2
    return _print_result(args, outcome.result)


def _run_check(args: argparse.Namespace) -> int:
    sources = _read_pair(args)
    if sources is None:
        return 2
    original_source, transformed_source = sources
    if getattr(args, "server", None):
        return _check_on_server(args, original_source, transformed_source)

    programs = _parse_pair(args, sources)
    if programs is None:
        return 2
    original, transformed = programs

    verifier = Verifier(options=checker_options_from_args(args))
    if args.dump_addg:
        # The compiled artifacts are cached in the session, so the ADDGs
        # written here are the very ones the subsequent check traverses.
        original_dot, transformed_dot = args.dump_addg
        with open(original_dot, "w", encoding="utf-8") as handle:
            handle.write(addg_to_dot(verifier.compile(original).addg, "original"))
        with open(transformed_dot, "w", encoding="utf-8") as handle:
            handle.write(addg_to_dot(verifier.compile(transformed).addg, "transformed"))

    observer = None if args.quiet or args.json else _ProgressObserver(sys.stderr)
    from .verifier.watchdog import JobTimeoutError, call_with_timeout
    from .solvers import SolverUnavailableError

    try:
        result = call_with_timeout(
            lambda: verifier.check(original, transformed, observer=observer),
            getattr(args, "timeout", None),
        )
    except JobTimeoutError:
        print(f"error: check exceeded the {args.timeout:g} s budget", file=sys.stderr)
        return 2
    except (LangError, SolverUnavailableError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _print_result(args, result)


def _run_diagnose(args: argparse.Namespace) -> int:
    sources = _read_pair(args)
    if sources is None:
        return 2
    programs = _parse_pair(args, sources)
    if programs is None:
        return 2

    from .solvers import SolverUnavailableError

    verifier = Verifier(options=checker_options_from_args(args))
    observer = None if args.quiet or args.json else _ProgressObserver(sys.stderr)
    try:
        report = verifier.diagnose(
            *programs,
            observer=observer,
            replay_seed=args.seed,
        )
    except (LangError, SolverUnavailableError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        _print_json(report.to_dict())
    else:
        print(report.format())
    return 0 if report.equivalent else 1


#: The daemon counters a ``batch --server`` summary row carries.
_SERVER_SUMMARY_KEYS = (
    "requests",
    "checks_executed",
    "cache_hits",
    "cache_hit_rate",
    "dedup_hits",
    "timeouts",
    "errors",
)


def _run_jobs(args: argparse.Namespace, jobs, format_line, cache_dir=None, on_row=None):
    """Run *jobs* and report them: the one runner of ``batch`` and ``fuzz``.

    * The JSONL report (``args.report``; ``-`` for none) opens before any
      job runs, so an unwritable path fails fast instead of after minutes
      of checking with every verdict lost.
    * The jobs run through a local :class:`~repro.service.BatchExecutor`
      (``args.workers``, ``args.timeout``, a verdict cache under
      *cache_dir* unless it is ``None``) or, with ``args.server``, over one
      connection to a daemon, whose spans join the client trace.
    * Each finished job passes the optional *on_row* hook, then streams as
      a report row (a killed run still leaves every finished verdict
      readable) and, unless ``args.quiet``, as ``format_line(outcome)``.
    * The summary row closes the report and the summary is printed.

    Returns ``(results, summary)`` for the subcommand's exit rule, or
    ``None`` after printing an error (the caller exits 2).
    """
    from .service import aggregate_results, format_summary, write_result_row, write_summary_row

    report = None
    if args.report and args.report != "-":
        try:
            report = open(args.report, "w", encoding="utf-8")
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return None

    def progress(outcome) -> None:
        _ingest_server_spans(outcome)
        if on_row is not None:
            on_row(outcome)
        if report is not None:
            write_result_row(report, outcome)
        if not args.quiet:
            print(format_line(outcome))

    server = getattr(args, "server", None)
    if server:
        from .server import ServerClient, ServerError

        try:
            with ServerClient(server) as client:
                with telemetry.TRACER.span("client.batch", "server", server=server, jobs=len(jobs)):
                    results = client.run_jobs(
                        jobs,
                        timeout=args.timeout,
                        progress=progress,
                        trace=telemetry.TRACER.enabled,
                    )
                server_stats = client.stats()
        except (ServerError, ValueError, OSError) as error:
            print(f"error: server batch failed: {error}", file=sys.stderr)
            if report is not None:
                report.close()
            return None
        summary = aggregate_results(results)
        summary["server"] = {key: server_stats.get(key) for key in _SERVER_SUMMARY_KEYS}
    else:
        from .presburger import opcache
        from .service import BatchExecutor, ResultCache

        cache = None if cache_dir is None else ResultCache(cache_dir)
        executor = BatchExecutor(cache=cache, workers=args.workers, timeout=args.timeout)
        with opcache.collect() as counts:
            results = executor.run(jobs, progress=progress)
        summary = aggregate_results(
            results, cache.stats if cache is not None else None, opcache_stats=counts
        )

    if report is not None:
        with report:
            write_summary_row(report, summary)
        if not args.quiet:
            print(f"report written to {args.report}")
    print(format_summary(summary))
    if server and not args.quiet:
        print(
            f"server: {server_stats.get('checks_executed', 0)} executed, "
            f"{server_stats.get('cache_hits', 0)} verdict-cache hits, "
            f"{server_stats.get('dedup_hits', 0)} dedup hits"
        )
    return results, summary


def _batch_format_line(outcome) -> str:
    """The per-job progress line of ``batch`` (local and ``--server`` alike)."""
    from .service import JobStatus

    if outcome.status != JobStatus.OK:
        verdict = outcome.status.upper()
    elif outcome.equivalent:
        verdict = "equivalent"
    else:
        verdict = "NOT EQUIVALENT"
    origin = "cache" if outcome.cache_hit else f"{outcome.elapsed_seconds:.3f} s"
    flag = "  << UNEXPECTED" if outcome.matches_expectation is False else ""
    return f"  {outcome.name:<32} {verdict:<14} ({origin}){flag}"


def _batch_exit_code(results, summary) -> int:
    """The shared ``batch`` success contract (local and ``--server`` alike)."""
    from .service import JobStatus

    ok = all(outcome.status == JobStatus.OK for outcome in results)
    no_mismatch = not summary["expectation_mismatches"]
    # Jobs without an expectation fail the batch when not proven equivalent
    # (same contract as `check`).
    unexpected_nonequivalent = any(
        outcome.expected_equivalent is None
        and outcome.status == JobStatus.OK
        and not outcome.equivalent
        for outcome in results
    )
    return 0 if ok and no_mismatch and not unexpected_nonequivalent else 1


def _run_batch(args: argparse.Namespace) -> int:
    # Imported lazily so `check` keeps working even if the service layer is
    # unavailable (e.g. a trimmed install).
    from .service import CorpusSpec, build_corpus, jobs_from_file

    if args.jobs:
        # The job file is authoritative for job-level options; the shared
        # checker flags only parameterise the built-in corpus.  Say so out
        # loud instead of silently ignoring flags the user passed.
        _warn_ignored(
            [
                ("--method", args.method != "extended"),
                ("--output", bool(args.output)),
                ("--correspond", bool(args.correspond)),
                ("--declare-op", bool(args.declare_op)),
                ("--no-tabling", args.no_tabling),
                ("--no-preconditions", args.no_preconditions),
                ("--backend", args.backend != "omega"),
                ("--smt-solver", args.smt_solver is not None),
            ],
            "--jobs",
            "each job's own options apply",
        )
        try:
            jobs = jobs_from_file(args.jobs)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        spec = CorpusSpec(
            kernels=tuple(args.kernel),
            generated=args.generated,
            buggy=args.buggy,
            seed=args.seed,
            stages=args.stages,
            size=args.size,
            transform_steps=args.transform_steps,
            options=checker_options_from_args(args),
        )
        try:
            jobs = build_corpus(spec)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    if not jobs:
        print(
            "error: no jobs selected; pass --jobs FILE or corpus options "
            "(--kernel/--generated/--buggy)",
            file=sys.stderr,
        )
        return 2
    if args.server:
        _warn_ignored(
            [
                ("--workers", args.workers != 1),
                ("--cache-dir", args.cache_dir != ".eqcheck_cache"),
                ("--no-cache", args.no_cache),
                ("--persist-dir", args.persist_dir is not None),
            ],
            "--server",
            "the daemon's own pool and cache apply",
        )

    ran = _run_jobs(
        args, jobs, _batch_format_line, cache_dir=None if args.no_cache else args.cache_dir
    )
    return 2 if ran is None else _batch_exit_code(*ran)


def _fuzz_format_line(outcome) -> str:
    """The per-pair progress line of ``fuzz``: verdict, expectation and oracle."""
    from .service import JobStatus

    if outcome.status != JobStatus.OK:
        verdict = outcome.status.upper()
    elif outcome.equivalent:
        verdict = "equivalent"
    else:
        verdict = "not equivalent"
    expected = outcome.metadata.get("expected_label", "?")
    oracle = (outcome.metadata.get("oracle") or {}).get("label", "?")
    flag = ""
    if outcome.status == JobStatus.OK and outcome.equivalent is not None:
        if outcome.equivalent and oracle == "NOT_EQUIVALENT":
            flag = "  << SOUNDNESS ERROR"
        elif outcome.matches_expectation is False:
            flag = "  << UNEXPECTED"
    failure = outcome.metadata.get("failure_report")
    if failure is not None:
        flag += "  [witness confirmed]" if failure.get("confirmed") else "  [witness UNCONFIRMED]"
    return f"  {outcome.name:<22} {verdict:<16} expected {expected:<14} oracle {oracle}{flag}"


def _run_fuzz(args: argparse.Namespace) -> int:
    from .scenarios import ScenarioSpec, build_scenarios, scenario_jobs, write_corpus
    from .service import JobStatus

    if args.smoke:
        # A fixed small corpus for CI: big enough to exercise every probe
        # class, small enough to finish in seconds.
        args.pairs, args.size, args.max_depth = 12, 14, 3

    spec = ScenarioSpec(
        seed=args.seed,
        pairs=args.pairs,
        max_depth=args.max_depth,
        mutation_rate=args.mutation_rate,
        size=args.size,
        oracle_seed=args.seed,
    )
    if not args.quiet:
        print(
            f"building {spec.pairs} scenarios (seed {spec.seed}, depth <= {spec.max_depth}, "
            f"mutation rate {spec.mutation_rate:g}) ...",
            file=sys.stderr,
        )
    pairs = build_scenarios(spec)
    buggy = sum(1 for pair in pairs if not pair.expected_equivalent)
    if not args.quiet:
        print(
            f"corpus: {len(pairs)} pairs ({len(pairs) - buggy} expected equivalent, "
            f"{buggy} oracle-validated buggy twins)",
            file=sys.stderr,
        )
    if args.corpus_out:
        try:
            write_corpus(args.corpus_out, pairs)
        except OSError as error:
            print(f"error: cannot write corpus: {error}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"corpus written to {args.corpus_out}", file=sys.stderr)

    jobs = scenario_jobs(pairs, options=checker_options_from_args(args))

    diagnose = None
    if not args.no_diagnose:
        # Diagnose every non-equivalent verdict before its row is streamed,
        # so the JSONL report carries the failure_report blocks and the
        # summary can gate on checker-witness vs oracle-witness agreement.
        from .diagnostics import attach_failure_report

        jobs_by_name = {job.name: job for job in jobs}
        reports_by_fingerprint = {}
        # One shared session: twins of one base original (and re-checked
        # duplicates) reuse the compiled frontend artifacts across diagnoses.
        diagnosis_session = Verifier()

        def diagnose(outcome) -> None:
            # In-batch duplicates share the leader's verdict; share its
            # diagnosis too instead of re-running replay + bisection.
            cached = reports_by_fingerprint.get(outcome.fingerprint)
            if cached is not None:
                outcome.metadata["failure_report"] = cached
                return
            report = attach_failure_report(
                outcome,
                jobs_by_name.get(outcome.name),
                trials=spec.oracle_trials,
                base_seed=args.seed,
                verifier=diagnosis_session,
            )
            if report is not None and outcome.fingerprint:
                reports_by_fingerprint[outcome.fingerprint] = outcome.metadata["failure_report"]

    # No verdict cache: a fuzz run must actually exercise the checker, and
    # seeded corpora change wholesale with the seed anyway.
    ran = _run_jobs(args, jobs, _fuzz_format_line, on_row=diagnose)
    if ran is None:
        return 2
    results, summary = ran

    scenarios = summary.get("scenarios") or {}
    ok = all(outcome.status == JobStatus.OK for outcome in results)
    hard_errors = bool(scenarios.get("soundness_errors")) or bool(scenarios.get("label_disputes"))
    # The diagnosis layer has its own hard gates: an oracle witness the
    # checker-side replay cannot reproduce, or a mutated twin whose pipeline
    # bisection fails to name the injected mutation.
    witness = scenarios.get("witness") or {}
    hard_errors = hard_errors or bool(witness.get("witness_errors")) or bool(
        witness.get("bisection_misses")
    )
    # A mutated twin the checker waves through is caught either as a soundness
    # error (oracle witness) or, defensively, as an expectation mismatch.
    missed_bugs = any(
        outcome.matches_expectation is False
        and outcome.expected_equivalent is False
        for outcome in results
    )
    strict_violations = args.strict and bool(scenarios.get("incompleteness"))
    # Backend-vs-backend divergence (crosscheck runs) is a soundness alarm of
    # its own: the decision procedures disagreed on a query, so neither
    # verdict can be trusted.  Always a hard failure.
    solvers_block = summary.get("solvers") or {}
    backend_disagreements = bool(solvers_block.get("disagreements"))
    return (
        0
        if ok
        and not hard_errors
        and not missed_bugs
        and not strict_violations
        and not backend_disagreements
        else 1
    )


def _run_serve(args: argparse.Namespace) -> int:
    from .server import ServerConfig, run_server

    if args.no_tcp and not args.unix_socket:
        print("error: --no-tcp requires --unix-socket", file=sys.stderr)
        return 2
    config = ServerConfig(
        host=None if args.no_tcp else args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        workers=args.workers,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        default_timeout=args.timeout,
        max_timeout=args.max_timeout,
        backend=args.backend,
        smt_solver=args.smt_solver,
        persist_dir=args.persist_dir,
        log_path=args.log_path,
        log_level=args.log_level,
        slow_threshold=args.slow_threshold,
    )

    def ready(server) -> None:
        # The parseable startup banner: one `listening on ADDR` line per
        # listener, flushed before any request is served, so wrappers (CI,
        # tests, scripts) can wait for it and read the ephemeral port.
        for address in server.addresses:
            print(f"listening on {address}", flush=True)

    try:
        run_server(config, ready=ready)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    """The `stats` subcommand: fetch and render a live server's snapshot."""
    import json

    from .server import ServerClient, ServerError
    from .service.report import format_server_snapshot

    try:
        with ServerClient(args.server) as client:
            if args.prom:
                snapshot = client.stats(format="prometheus")
            else:
                snapshot = client.stats(slow=args.slow)
    except (ServerError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.prom:
        sys.stdout.write(snapshot.get("text") or "")
    elif args.json:
        print(json.dumps(snapshot, sort_keys=True, default=str))
    else:
        print(format_server_snapshot(snapshot))
        if args.slow:
            records = (snapshot.get("slow") or {}).get("records") or []
            if not records:
                print("slow requests: none captured")
            for record in records:
                print(json.dumps(record, sort_keys=True, default=str))
    return 0


def _run_with_telemetry(args: argparse.Namespace, runner) -> int:
    """Run a subcommand under the global tracer when --trace/--metrics ask for it.

    Telemetry wraps the *whole* run — corpus building, frontend, traversal,
    workers — so the exported trace shows the run end to end.  The files are
    written (and the per-phase summary printed to stderr) even when the run
    exits non-zero: a failing batch is exactly the one worth profiling.
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if not trace_path and not metrics_path:
        return runner(args)

    from .presburger import opcache

    telemetry.reset()
    telemetry.enable()
    try:
        with opcache.collect() as counts:
            return runner(args)
    finally:
        telemetry.disable()
        records = telemetry.spans()
        if trace_path:
            try:
                telemetry.write_chrome_trace(trace_path, records)
                print(f"trace written to {trace_path}", file=sys.stderr)
            except OSError as error:
                print(f"error: cannot write trace: {error}", file=sys.stderr)
        counters = {
            f"presburger.{name}": getattr(counts, name)
            for name in ("dark_shadow_splinters", "feasibility_checks", "fm_eliminations")
            if getattr(counts, name)
        }
        if metrics_path:
            try:
                telemetry.write_metrics_jsonl(
                    metrics_path,
                    [
                        {"type": "counter", "name": name, "value": value}
                        for name, value in counters.items()
                    ],
                    extra_rows=[{"type": "opcache", **counts.as_dict()}],
                )
                print(f"metrics written to {metrics_path}", file=sys.stderr)
            except OSError as error:
                print(f"error: cannot write metrics: {error}", file=sys.stderr)
        summary = telemetry.format_phase_summary(
            telemetry.aggregate_phase_seconds(records),
            len(records),
            {"opcache.hits": counts.hits, "opcache.misses": counts.misses, **counters},
        )
        print(summary, file=sys.stderr)
        telemetry.reset()


def _run_with_persistence(args: argparse.Namespace, runner) -> int:
    """Run a checking subcommand with the persistent opcache it asked for.

    Where the Presburger operation cache keeps its work is process state,
    not an option of any one check: ``--persist-dir`` attaches the store
    here, once, for the whole run (batch pool workers re-attach the same
    store), and detaches it afterwards.  With ``--server`` the daemon's own
    store applies and the flag is ignored (with a warning).
    """
    if not args.persist_dir or getattr(args, "server", None):
        return _run_with_telemetry(args, runner)
    from .presburger import opcache

    opcache.attach_persistent(args.persist_dir)
    try:
        return _run_with_telemetry(args, runner)
    finally:
        opcache.detach_persistent()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_cli_parser().parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "stats":
        return _run_stats(args)
    runner = {"batch": _run_batch, "fuzz": _run_fuzz, "diagnose": _run_diagnose}.get(
        args.command, _run_check
    )
    return _run_with_persistence(args, runner)


if __name__ == "__main__":
    sys.exit(main())
