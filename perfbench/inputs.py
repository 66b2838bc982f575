"""Seeded benchmark inputs and their answers, confirmed by the interpreter.

Every pair the benchmark sends to the checker carries an answer that does
not come from the checker: the mini-C interpreter runs both programs on
seeded random inputs (``run_program`` / ``outputs_equal``), and for the
scenario corpus the answer is the scenario engine's differential-oracle
label.  A pair whose interpreter answer contradicts how it was built is a
benchmark bug, so :class:`SetupError` stops the run before any timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.lang import outputs_equal, parse_program, program_to_text, random_input_provider, run_program

#: Interpreter trials per pair (distinct input seeds).
ORACLE_TRIALS = 3

#: Output domain of the generated chains; the checker's work does not depend on it.
CHAIN_DOMAIN = 6


class SetupError(RuntimeError):
    """The generated inputs are not what the workload promises."""


@dataclass(frozen=True)
class Pair:
    """One (original, transformed) source pair and its independent answer."""

    name: str
    original: str
    transformed: str
    equivalent: bool


def interpreter_equal(original: str, transformed: str, seed: int) -> bool:
    """Whether the two programs agree on :data:`ORACLE_TRIALS` seeded inputs."""
    first, second = parse_program(original), parse_program(transformed)
    for trial in range(ORACLE_TRIALS):
        provider = random_input_provider(seed * 1000 + trial)
        if not outputs_equal(run_program(first, provider), run_program(second, provider)):
            return False
    return True


def confirmed(name: str, original: str, transformed: str, built_equivalent: bool, seed: int) -> Pair:
    """A :class:`Pair` whose construction label the interpreter agrees with."""
    if interpreter_equal(original, transformed, seed) != built_equivalent:
        raise SetupError(f"interpreter contradicts the construction label of {name}")
    return Pair(name, original, transformed, built_equivalent)


def kernel_pairs(seed: int, small: bool = False) -> List[Pair]:
    """The ``KERNEL_REGISTRY`` pairs as source text (registry or shrunken size)."""
    from repro.workloads import SMALL_KERNEL_PARAMS, kernel_names, kernel_pair

    pairs = []
    for name in kernel_names():
        kernel = kernel_pair(name, **(SMALL_KERNEL_PARAMS[name] if small else {}))
        pairs.append(
            confirmed(
                f"kernel/{name}",
                program_to_text(kernel.original),
                program_to_text(kernel.transformed),
                True,
                seed,
            )
        )
    return pairs


def fig1_pairs(seed: int, size: int = 32) -> List[Pair]:
    """The paper's Fig. 1 pairs, shrunk: (a, c) is equivalent, (a, d) is the buggy one."""
    from repro.workloads import fig1_program

    original = program_to_text(fig1_program("a", size))
    return [
        confirmed("fig1/a-c", original, program_to_text(fig1_program("c", size)), True, seed),
        confirmed("fig1/a-d", original, program_to_text(fig1_program("d", size)), False, seed),
    ]


# --------------------------------------------------------------------------- #
# Associative chains
# --------------------------------------------------------------------------- #
def _reassociate(terms: Sequence[str], rng: random.Random) -> str:
    """A seeded random binary parenthesisation of ``t0 + t1 + ...``."""
    if len(terms) == 1:
        return terms[0]
    cut = rng.randint(1, len(terms) - 1)
    return f"({_reassociate(terms[:cut], rng)} + {_reassociate(terms[cut:], rng)})"


def _sum_program(expression: str) -> str:
    return (
        f"void chain(int A[], int out[{CHAIN_DOMAIN}])\n{{\n"
        f"    for (k = 0; k < {CHAIN_DOMAIN}; k++) {{\n"
        f"        s0: out[k] = {expression};\n"
        "    }\n}\n"
    )


def _pipeline_program(offsets: Sequence[int], commuted: Sequence[bool]) -> str:
    depth = len(offsets)
    lines = [f"        s0: t0[k] = A[k + {offsets[0]}];"]
    for stage in range(1, depth):
        left, right = f"t{stage - 1}[k]", f"A[k + {offsets[stage]}]"
        if commuted[stage]:
            left, right = right, left
        lines.append(f"        s{stage}: t{stage}[k] = {left} + {right};")
    lines.append(f"        s{depth}: out[k] = t{depth - 1}[k];")
    temporaries = ", ".join(f"t{stage}[{CHAIN_DOMAIN}]" for stage in range(depth))
    return (
        f"void pipe(int A[], int out[{CHAIN_DOMAIN}])\n{{\n"
        f"    int {temporaries};\n"
        f"    for (k = 0; k < {CHAIN_DOMAIN}; k++) {{\n"
        + "\n".join(lines)
        + "\n    }\n}\n"
    )


def chain_pairs(seed: int, count: int, low: int = 8, high: int = 24) -> List[Pair]:
    """*count* chains whose shapes, lengths and labels do not depend on the seed.

    Chain *i* is a sum for even *i* and a stage pipeline for odd *i*; the
    lengths step evenly from *low* to *high*; chains with ``i % 8`` in
    ``(1, 6)`` (a quarter, both shapes) are broken.  Every seed therefore
    does the same amount of matching work, and the seed picks the operand
    orders, the reassociation and the misplaced operand.
    """
    return [
        chain_pair(
            seed,
            index,
            "sum" if index % 2 == 0 else "pipeline",
            low + (index * (high - low)) // max(1, count - 1),
            index % 8 in (1, 6),
        )
        for index in range(count)
    ]


def chain_pair(seed: int, index: int, shape: str, length: int, broken: bool) -> Pair:
    """A sum or stage pipeline of *length* reads against its reshuffle.

    The original reads ``A[k+0] .. A[k+n-1]`` in order.  The transformed
    side is a seeded permutation of the operands, reassociated (sums) or
    with seeded stage commutation (pipelines).  A *broken* pair has one
    operand's offset moved outside ``0 .. n-1``, which makes it NOT
    EQUIVALENT.
    """
    rng = random.Random(f"{seed}:chain:{index}")
    offsets = list(range(length))
    shuffled = offsets[:]
    rng.shuffle(shuffled)
    if broken:
        shuffled[rng.randrange(length)] = length + rng.randint(0, 3)
    if shape == "sum":
        original = _sum_program(" + ".join(f"A[k + {offset}]" for offset in offsets))
        terms = [f"A[k + {offset}]" for offset in shuffled]
        expression = _reassociate(terms, rng) if rng.random() < 0.5 else " + ".join(terms)
        transformed = _sum_program(expression)
    else:
        original = _pipeline_program(offsets, [False] * length)
        transformed = _pipeline_program(shuffled, [rng.random() < 0.5 for _ in range(length)])
    return confirmed(f"chain/{index}-{shape}{length}", original, transformed, not broken, seed)


# --------------------------------------------------------------------------- #
# Scenario corpus (server-mix)
# --------------------------------------------------------------------------- #
def scenario_pairs(corpus_seed: int, scenarios: int) -> List[Pair]:
    """Distinct oracle-labelled scenario pairs of ``build_scenarios``.

    The answer is the differential oracle's label.  Pairs whose oracle label
    is inconclusive or contradicts how the pair was built are dropped, and
    repeated (original, transformed) texts are kept once.
    """
    from repro.scenarios import LABEL_EQUIVALENT, LABEL_NOT_EQUIVALENT, ScenarioSpec, build_scenarios

    spec = ScenarioSpec(seed=corpus_seed, pairs=scenarios, mutation_rate=0.4)
    pairs, seen = [], set()
    for scenario in build_scenarios(spec):
        label = scenario.oracle.label if scenario.oracle is not None else None
        if label not in (LABEL_EQUIVALENT, LABEL_NOT_EQUIVALENT) or label != scenario.expected_label:
            continue
        key = (program_to_text(scenario.original), program_to_text(scenario.transformed))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(Pair(scenario.name, key[0], key[1], label == LABEL_EQUIVALENT))
    return pairs
