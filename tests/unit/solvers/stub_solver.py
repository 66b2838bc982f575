"""A stand-in SMT-LIB2 solver binary for the subprocess tests.

Usage: ``python stub_solver.py MODE [VALUE ...] SCRIPT``.  The script path
comes last, as :class:`repro.solvers.smtlib.SmtLibBackend` appends it.

* ``sat`` prints ``sat`` and, when the script asks ``(get-value (...))``,
  binds the requested symbols to the given VALUEs in order;
* ``unsat`` prints ``unsat``;
* ``mute`` prints a line with no verdict.
"""

import re
import sys


def main(argv):
    mode, values, path = argv[0], argv[1:-1], argv[-1]
    with open(path, "r", encoding="utf-8") as handle:
        script = handle.read()
    if mode == "mute":
        print("(error \"out of resources\")")
        return 0
    print(mode)
    requested = re.search(r"\(get-value \(([^)]*)\)\)", script)
    if mode == "sat" and requested:
        pairs = []
        for symbol, value in zip(requested.group(1).split(), values):
            number = int(value)
            literal = str(number) if number >= 0 else f"(- {-number})"
            pairs.append(f"({symbol} {literal})")
        print("(" + " ".join(pairs) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
