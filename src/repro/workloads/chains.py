"""Associative chains of reads of one input array: the commutative-matching workload.

``chain_source("sum", offsets)`` is one statement summing the reads
``A[k + offset]``; ``chain_source("pipeline", offsets)`` accumulates the same
reads through one temporary array per stage (``t_i = t_{i-1} + A[k + o_i]``),
so flattening has to reduce an intermediate variable per operand.  Checked
against a permutation of its offsets, either shape is the FIR-tap case the
paper's matching step handles: every operand reads the same array, so only
the output–input mappings tell the operands apart.

``conv_source(k, transformed)`` is the same problem one level up: a k×k
convolution sums k² products ``w[c] * img[...]``, so the operands of the
sum are operators, told apart by the mappings of their own operands.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["CHAIN_SHAPES", "chain_source", "conv_source"]

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


def conv_source(k: int, transformed: bool = False, domain: int = 8) -> str:
    """Mini-C source of a k×k convolution over a *domain*×*domain* output.

    The original is one flat k²-term sum ``w[r*k + c] * img[i + r][j + c]``.
    The transformed side interchanges the loops, sums each kernel row into a
    temporary ``row<r>`` with the operand order reversed (products and their
    factors alike), and adds the rows up in reverse order.
    """
    size = domain + k - 1
    rows, cols = f"for (i = 0; i < {domain}; i++)", f"for (j = 0; j < {domain}; j++)"

    def nest(outer: str, inner: str, statements: Sequence[str]) -> str:
        body = "".join(f"            {statement}\n" for statement in statements)
        return f"    {outer}\n        {inner} {{\n{body}        }}\n"

    header = f"void conv(int img[{size}][{size}], int w[], int out[{domain}][{domain}])\n{{\n"
    if not transformed:
        taps = [(r, c) for r in range(k) for c in range(k)]
        expression = " + ".join(f"w[{r * k + c}] * img[i + {r}][j + {c}]" for r, c in taps)
        body = nest(rows, cols, [f"s0: out[i][j] = {expression};"])
        return header + "    int i, j;\n" + body + "}\n"
    row_sums = []
    for r in range(k):
        products = (f"img[i + {r}][j + {c}] * w[{r * k + c}]" for c in reversed(range(k)))
        expression = " + ".join(products)
        row_sums.append(f"d{r}: row{r}[i][j] = {expression};")
    total = " + ".join(f"row{r}[i][j]" for r in reversed(range(k)))
    temporaries = ", ".join(f"row{r}[{domain}][{domain}]" for r in range(k))
    return (
        header
        + f"    int i, j, {temporaries};\n"
        + nest(cols, rows, row_sums)
        + nest(rows, cols, [f"d{k}: out[i][j] = {total};"])
        + "}\n"
    )
