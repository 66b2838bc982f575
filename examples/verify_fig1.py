#!/usr/bin/env python3
"""Reproduce the paper's running example (Fig. 1, Fig. 2, Fig. 5, Section 6.1).

The script checks all pairs of the four program versions of Fig. 1, prints the
ADDG inventory of each version (Fig. 2), and shows the diagnostics generated
for the erroneous version (d) — which point at statements v1/v3 and at the
index expression of ``buf``, as in Section 6.1 of the paper.

Run with::

    python examples/verify_fig1.py [N]
"""

import sys

from repro.addg import addg_to_dot, build_addg
from repro.checker import check_equivalence
from repro.analysis import ProgramGeometry
from repro.workloads import fig1_program


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1024
    versions = {name: fig1_program(name, n) for name in "abcd"}

    print(f"Fig. 1 example with N = {n}")
    print()
    print("ADDG inventory (Fig. 2):")
    for name, program in versions.items():
        addg = build_addg(ProgramGeometry(program))
        operators = ", ".join(addg.operator_names())
        print(
            f"  version ({name}): {len(addg.statements)} statements, "
            f"{addg.node_count()} nodes, {addg.edge_count()} edges; operators: {operators}"
        )
    print()

    expected = {
        ("a", "b"): True,
        ("a", "c"): True,
        ("b", "c"): True,
        ("a", "d"): False,
        ("b", "d"): False,
        ("c", "d"): False,
    }
    for (left, right), should_be in expected.items():
        result = check_equivalence(versions[left], versions[right])
        status = "EQUIVALENT" if result.equivalent else "NOT EQUIVALENT"
        marker = "ok" if result.equivalent == should_be else "UNEXPECTED"
        print(
            f"  ({left}) vs ({right}): {status:16s} [{marker}]  "
            f"{result.stats.paths_checked} paths, {result.stats.elapsed_seconds:.2f} s"
        )
    print()

    print("Diagnostics for (a) vs (d)  [Section 6.1]:")
    result = check_equivalence(versions["a"], versions["d"])
    for diagnostic in result.diagnostics:
        print(diagnostic.format())
        print()

    # Write the ADDGs of (a) and (d) as DOT files for visual inspection.
    for name in ("a", "d"):
        path = f"fig1_{name}.dot"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(addg_to_dot(build_addg(ProgramGeometry(versions[name])), f"fig1_{name}"))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
