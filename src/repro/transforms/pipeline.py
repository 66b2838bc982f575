"""Composing transformations into pipelines and random equivalent variants.

The scaling benchmarks (EXPERIMENTS E7–E9) and the scenario engine
(:mod:`repro.scenarios`) need many (original, transformed) pairs whose
transformed member is obtained by a *random but equivalence-preserving*
sequence of the paper's transformations.  This module provides the machinery:

* a :class:`Probe` is one named, applicability-probed rewrite — it draws a
  random target from the program, applies the underlying transformation and
  raises :class:`~repro.transforms.errors.TransformError` when nothing in the
  current program is a legal target;
* :func:`default_probes` is the historical seven-transformation set used by
  :func:`apply_random_transforms`; :func:`extended_probes` adds loop
  interchange, step normalisation, temporary introduction, commutation and
  rotation for the scenario engine's deeper pipelines;
* :func:`compose_random_pipeline` draws probes until the requested number of
  steps have been applied, skipping steps that are not applicable and
  discarding candidates that break the def-use prerequisites (so the produced
  variant is really equivalent).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from ..lang.ast import Assignment, BinOp, Expr, ForLoop, IntConst, Program
from .algebraic import collect_chain, commute_operands, random_reassociation, rotate_left, rotate_right
from .dataflow import forward_substitution, introduce_temporary
from .errors import TransformError
from .locate import enclosing_loops, get_subexpr, loop_of_label
from .loop import (
    loop_fission,
    loop_fusion,
    loop_interchange,
    loop_normalize_steps,
    loop_reversal,
    loop_shift,
    loop_split,
)

__all__ = [
    "Probe",
    "TransformStep",
    "apply_pipeline",
    "apply_random_transforms",
    "compose_random_pipeline",
    "default_probes",
    "extended_probes",
]


class TransformStep:
    """A record of one applied transformation (for reporting / debugging).

    ``snapshot_source`` optionally carries the mini-C source text of the
    program *after* this step was applied.  Pipelines that capture snapshots
    (:func:`compose_random_pipeline` does) make their traces replayable:
    :mod:`repro.diagnostics` bisects the snapshot sequence to name the exact
    step that broke equivalence.
    """

    def __init__(self, name: str, detail: str, snapshot_source: Optional[str] = None):
        self.name = name
        self.detail = detail
        self.snapshot_source = snapshot_source

    def __repr__(self) -> str:
        return f"TransformStep({self.name}: {self.detail})"

    def to_dict(self) -> dict:
        return {"name": self.name, "detail": self.detail, "snapshot_source": self.snapshot_source}

    @classmethod
    def from_dict(cls, data: dict) -> "TransformStep":
        return cls(data["name"], data.get("detail", ""), data.get("snapshot_source"))


class Probe:
    """One named rewrite that picks its own random target.

    ``fn(program, rng)`` returns ``(candidate, step)`` or raises
    :class:`TransformError` when no legal target exists.  ``guarded`` probes
    additionally have their candidate validated against the def-use
    prerequisites (:func:`repro.analysis.check_dataflow`) before being
    accepted — the structural rewrites that can reorder reads relative to
    writes (fusion, shifting, interchange, temporary introduction) are not
    legal for every program, and an illegal candidate would silently turn an
    "expected equivalent" pair into a buggy one.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[Program, random.Random], Tuple[Program, TransformStep]],
        guarded: bool = False,
    ):
        self.name = name
        self.fn = fn
        self.guarded = guarded

    def __repr__(self) -> str:
        return f"Probe({self.name}{', guarded' if self.guarded else ''})"


def _labelled_assignments(program: Program) -> List[Assignment]:
    return [a for a in program.assignments() if a.label]


def _try_loop_reversal(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignment = rng.choice(_labelled_assignments(program))
    result = loop_reversal(program, assignment.label or "")
    return result, TransformStep("loop-reversal", f"loop of statement {assignment.label}")


def _try_loop_fission(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignment = rng.choice(_labelled_assignments(program))
    result = loop_fission(program, assignment.label or "")
    return result, TransformStep("loop-fission", f"loop of statement {assignment.label}")


def _try_loop_split(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignment = rng.choice(_labelled_assignments(program))
    label = assignment.label or ""
    loop = loop_of_label(program, label)
    if not isinstance(loop.init, IntConst) or not isinstance(loop.bound, IntConst):
        raise TransformError("loop split needs constant bounds")
    low, high = loop.init.value, loop.bound.value
    if abs(high - low) < 4:
        raise TransformError("loop too small to split")
    at = (low + high) // 2
    result = loop_split(program, label, at)
    return result, TransformStep("loop-split", f"loop of statement {label} at {at}")


def _try_loop_shift(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignment = rng.choice(_labelled_assignments(program))
    label = assignment.label or ""
    offset = rng.choice([1, 2, 3, -1])
    result = loop_shift(program, label, offset)
    return result, TransformStep("loop-shift", f"loop of statement {label} by {offset}")


def _try_loop_fusion(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    # Find two adjacent top-level loops with identical headers.
    body = program.body
    for index in range(len(body) - 1):
        first, second = body[index], body[index + 1]
        if (
            isinstance(first, ForLoop)
            and isinstance(second, ForLoop)
            and first.init == second.init
            and first.bound == second.bound
            and first.cond_op == second.cond_op
            and first.step == second.step
        ):
            first_label = _first_label(first)
            second_label = _first_label(second)
            if first_label and second_label:
                result = loop_fusion(program, first_label, second_label)
                return result, TransformStep("loop-fusion", f"loops of {first_label} and {second_label}")
    raise TransformError("no fusable adjacent loops")


def _first_label(loop: ForLoop) -> Optional[str]:
    for statement in loop.body:
        if isinstance(statement, Assignment) and statement.label:
            return statement.label
        if isinstance(statement, ForLoop):
            inner = _first_label(statement)
            if inner:
                return inner
    return None


def _try_forward_substitution(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    intermediates = list(program.intermediate_arrays())
    rng.shuffle(intermediates)
    for array in intermediates:
        try:
            result = forward_substitution(program, array)
            return result, TransformStep("forward-substitution", f"eliminated {array}")
        except TransformError:
            continue
    raise TransformError("no intermediate array can be forward substituted")


def _try_reassociation(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignments = _labelled_assignments(program)
    rng.shuffle(assignments)
    for assignment in assignments:
        if len(collect_chain(assignment.rhs, "+")) >= 2:
            result = random_reassociation(program, assignment.label or "", rng, op="+")
            return result, TransformStep("algebraic-reassociation", f"statement {assignment.label}")
    raise TransformError("no +-chain to reassociate")


# ------------------------------------------------------------------ #
# Extended probes (scenario engine)
# ------------------------------------------------------------------ #

def _try_loop_interchange(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    candidates = [
        a for a in _labelled_assignments(program)
        if len(enclosing_loops(program, a.label or "")) >= 2
    ]
    if not candidates:
        raise TransformError("no assignment inside a loop nest of depth two")
    assignment = rng.choice(candidates)
    result = loop_interchange(program, assignment.label or "")
    return result, TransformStep("loop-interchange", f"nest of statement {assignment.label}")


def _try_loop_normalize(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignment = rng.choice(_labelled_assignments(program))
    label = assignment.label or ""
    result = loop_normalize_steps(program, label)
    return result, TransformStep("loop-normalize-steps", f"loop of statement {label}")


def _binop_paths(expr: Expr, ops: Tuple[str, ...]) -> List[Tuple[int, ...]]:
    """The 1-based operand paths of every BinOp in *expr* whose op is in *ops*.

    Paths follow the :mod:`~repro.transforms.locate` convention — operand
    positions of BinOp/UnaryOp/Call nodes only, never descending into
    ArrayRef subscripts — so every returned path resolves via
    :func:`~repro.transforms.locate.get_subexpr`.
    """
    from .locate import _expr_children

    found: List[Tuple[int, ...]] = []

    def visit(node: Expr, path: Tuple[int, ...]) -> None:
        if isinstance(node, BinOp) and node.op in ops:
            found.append(path)
        for position, child in enumerate(_expr_children(node), start=1):
            visit(child, path + (position,))

    visit(expr, ())
    return found


def _try_commute(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignments = _labelled_assignments(program)
    rng.shuffle(assignments)
    for assignment in assignments:
        paths = _binop_paths(assignment.rhs, ("+", "*"))
        if paths:
            path = rng.choice(paths)
            result = commute_operands(program, assignment.label or "", path)
            return result, TransformStep(
                "commute-operands", f"statement {assignment.label} path {tuple(path)}"
            )
    raise TransformError("no commutative operator to commute")


def _try_rotate(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignments = _labelled_assignments(program)
    rng.shuffle(assignments)
    for assignment in assignments:
        rotations = []
        for path in _binop_paths(assignment.rhs, ("+", "*")):
            node = get_subexpr(assignment.rhs, path)
            if isinstance(node.rhs, BinOp) and node.rhs.op == node.op:
                rotations.append((path, rotate_left, "left"))
            if isinstance(node.lhs, BinOp) and node.lhs.op == node.op:
                rotations.append((path, rotate_right, "right"))
        if rotations:
            path, rotate, direction = rng.choice(rotations)
            result = rotate(program, assignment.label or "", path)
            return result, TransformStep(
                f"rotate-{direction}", f"statement {assignment.label} path {tuple(path)}"
            )
    raise TransformError("no associative chain to rotate")


def _fresh_temp_name(program: Program) -> str:
    declared = {decl.name for decl in list(program.params) + list(program.locals)}
    counter = 0
    while f"st{counter}" in declared:
        counter += 1
    return f"st{counter}"


def _try_introduce_temporary(program: Program, rng: random.Random) -> Tuple[Program, TransformStep]:
    assignments = _labelled_assignments(program)
    rng.shuffle(assignments)
    for assignment in assignments:
        label = assignment.label or ""
        loops = enclosing_loops(program, label)
        if not loops:
            continue
        if any(
            not isinstance(loop.init, IntConst)
            or not isinstance(loop.bound, IntConst)
            or loop.init.value < 0
            or loop.bound.value < 0
            for loop in loops
        ):
            # Constant, non-negative bounds keep the temporary's index domain
            # inside the declarable array extents.
            continue
        paths = _binop_paths(assignment.rhs, ("+", "-", "*", "/", "%"))
        if not paths:
            continue
        path = rng.choice(paths)
        temp = _fresh_temp_name(program)
        result = introduce_temporary(program, label, path, temp)
        return result, TransformStep(
            "introduce-temporary", f"statement {label} path {tuple(path)} as {temp}"
        )
    raise TransformError("no sub-expression suitable for a temporary")


_DEFAULT_PROBES: List[Probe] = [
    # loop-reversal reorders iterations, which is illegal across a
    # loop-carried recurrence (e.g. reversing the accumulation loop of
    # matvec makes acc[i][j] read acc[i][j-1] before it is written); the
    # historical corpus never hit this because generated programs carry no
    # recurrences, but the scenario engine also draws kernel bases.
    Probe("loop-reversal", _try_loop_reversal, guarded=True),
    Probe("loop-fission", _try_loop_fission),
    Probe("loop-split", _try_loop_split),
    Probe("loop-shift", _try_loop_shift, guarded=True),
    Probe("loop-fusion", _try_loop_fusion, guarded=True),
    # forward substitution moves the defining expression to its use sites;
    # if an array it reads is rewritten in between, the substituted reads
    # observe different values — guard rather than trust.
    Probe("forward-substitution", _try_forward_substitution, guarded=True),
    Probe("algebraic-reassociation", _try_reassociation),
]

_EXTENDED_PROBES: List[Probe] = _DEFAULT_PROBES + [
    Probe("loop-interchange", _try_loop_interchange, guarded=True),
    Probe("loop-normalize-steps", _try_loop_normalize),
    Probe("commute-operands", _try_commute),
    Probe("rotate-chain", _try_rotate),
    Probe("introduce-temporary", _try_introduce_temporary, guarded=True),
]

_ALGEBRAIC_PROBE_NAMES = frozenset(
    {"algebraic-reassociation", "commute-operands", "rotate-chain"}
)


def default_probes() -> List[Probe]:
    """The historical probe set of :func:`apply_random_transforms`."""
    return list(_DEFAULT_PROBES)


def extended_probes() -> List[Probe]:
    """The scenario engine's probe set: the default set plus loop interchange,
    step normalisation, commutation, rotation and temporary introduction."""
    return list(_EXTENDED_PROBES)


def compose_random_pipeline(
    program: Program,
    rng: random.Random,
    steps: int = 3,
    probes: Optional[Sequence[Probe]] = None,
    allowed: Optional[Sequence[str]] = None,
    attempts_per_step: int = 12,
) -> Tuple[Program, List[TransformStep]]:
    """Apply up to *steps* random equivalence-preserving transformations.

    Each attempt draws one probe from *probes* (default:
    :func:`default_probes`); probes that raise :class:`TransformError` and
    guarded candidates that violate the def-use prerequisites are skipped.
    Returns the final program and the trace of the applied steps (possibly
    fewer than *steps* when the program runs out of applicable targets).
    """
    from ..analysis import ProgramGeometry, check_dataflow

    probe_list = list(probes) if probes is not None else default_probes()
    allowed_names = set(allowed) if allowed is not None else None
    current = program
    applied: List[TransformStep] = []
    attempts = 0
    while len(applied) < steps and attempts < steps * attempts_per_step:
        attempts += 1
        probe = rng.choice(probe_list)
        if allowed_names is not None and probe.name not in allowed_names:
            continue
        try:
            candidate, step = probe.fn(current, rng)
        except TransformError:
            continue
        # Some structural rewrites (e.g. fusing loops whose second half reads
        # values produced by later iterations of the first half) are not legal
        # for every program; keep only candidates that still satisfy the
        # def-use prerequisites, so the produced variant is really equivalent.
        if probe.guarded and check_dataflow(ProgramGeometry(candidate)):
            continue
        current = candidate
        if step.snapshot_source is None:
            from ..lang import program_to_text

            step.snapshot_source = program_to_text(current)
        applied.append(step)
    return current, applied


def apply_random_transforms(
    program: Program,
    rng: random.Random,
    steps: int = 3,
    allow_algebraic: bool = True,
    allowed: Optional[Sequence[str]] = None,
) -> Tuple[Program, List[TransformStep]]:
    """Apply *steps* random equivalence-preserving transformations.

    ``allow_algebraic=False`` restricts the pipeline to expression propagation
    and loop transformations only (producing pairs that the *basic* method can
    verify); ``allowed`` restricts the pipeline to a subset of transformation
    names.  This is the historical entry point over :func:`default_probes`;
    the scenario engine calls :func:`compose_random_pipeline` with
    :func:`extended_probes` directly.
    """
    allowed_names: Optional[set] = set(allowed) if allowed is not None else None
    if not allow_algebraic:
        all_names = {probe.name for probe in _DEFAULT_PROBES}
        base = allowed_names if allowed_names is not None else all_names
        allowed_names = base - _ALGEBRAIC_PROBE_NAMES
    return compose_random_pipeline(
        program, rng, steps=steps, probes=default_probes(),
        allowed=sorted(allowed_names) if allowed_names is not None else None,
    )


def apply_pipeline(
    program: Program, steps: Sequence[Tuple[Callable[..., Program], dict]]
) -> Program:
    """Apply an explicit list of ``(transformation, kwargs)`` steps in order."""
    current = program
    for transform, kwargs in steps:
        current = transform(current, **kwargs)
    return current
