"""Associative chains of reads of one input array: the commutative-matching workload.

``chain_source("sum", offsets)`` is one statement summing the reads
``A[k + offset]``; ``chain_source("pipeline", offsets)`` accumulates the same
reads through one temporary array per stage (``t_i = t_{i-1} + A[k + o_i]``),
so flattening has to reduce an intermediate variable per operand.  Checked
against a permutation of its offsets, either shape is the FIR-tap case the
paper's matching step handles: every operand reads the same array, so only
the output–input mappings tell the operands apart.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["CHAIN_SHAPES", "chain_source"]

CHAIN_SHAPES = ("sum", "pipeline")


def chain_source(shape: str, offsets: Sequence[int], domain: int = 32) -> str:
    """Mini-C source of a *shape* chain over the reads ``A[k + offset]``."""
    offsets = list(offsets)
    header = f"void chain(int A[], int out[{domain}])\n{{\n"
    loop = f"    for (k = 0; k < {domain}; k++) {{\n"
    if shape == "sum":
        expression = " + ".join(f"A[k + {offset}]" for offset in offsets)
        return header + loop + f"        s0: out[k] = {expression};\n    }}\n}}\n"
    if shape != "pipeline":
        raise ValueError(f"unknown chain shape {shape!r} (expected one of {CHAIN_SHAPES})")
    depth = len(offsets)
    lines = [f"        s0: t0[k] = A[k + {offsets[0]}];"]
    for stage in range(1, depth):
        lines.append(f"        s{stage}: t{stage}[k] = t{stage - 1}[k] + A[k + {offsets[stage]}];")
    lines.append(f"        s{depth}: out[k] = t{depth - 1}[k];")
    temporaries = ", ".join(f"t{stage}[{domain}]" for stage in range(depth))
    return header + f"    int {temporaries};\n" + loop + "\n".join(lines) + "\n    }\n}\n"
