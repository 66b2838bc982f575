"""SMT-LIB2 (``LIA``) emission and the subprocess SMT backend.

The mapping from the Presburger layer onto SMT-LIB2:

* every public dimension of a :class:`~repro.presburger.conjunct.Conjunct`
  becomes a free ``Int`` constant ``x0, x1, ...``;
* the conjunct's existential (divisibility witness) columns become either
  free constants ``d0, ...`` (feasibility — satisfiability is preserved) or
  ``(exists ((e0 Int) ...) ...)`` binders (when the conjunct appears under a
  negation, where the quantifier is semantically required);
* equalities ``v · (x, d, 1) = 0`` become ``(= affine 0)``, inequalities
  become ``(>= affine 0)`` — divisibility/mod constraints need no special
  casing because they are already linear equalities over witness columns;
* ``a ⊆ b`` over unions is one UNSAT check per conjunct ``Ai`` of ``a``:
  ``Ai ∧ ¬∃(B1) ∧ ... ∧ ¬∃(Bm)``, and disjointness is one SAT check per
  pair ``(Ai, Bj)``.

:class:`SmtLibBackend` feeds the scripts to an SMT-LIB2 solver binary (z3,
cvc5) via a subprocess; a default install needs neither.  Query results
are memoized in the operation cache under keys qualified by the solver
command, so answers can never alias across solvers.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import tempfile
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..presburger import opcache as _opcache
from ..presburger.conjunct import Conjunct

from .base import SolverBackend, SolverError, SolverUnavailableError

__all__ = [
    "SmtLibBackend",
    "resolve_solver_command",
    "parse_sexprs",
    "conjunct_formula",
    "feasibility_script",
    "subset_scripts",
    "disjoint_scripts",
]


# --------------------------------------------------------------------------- #
# Emission
# --------------------------------------------------------------------------- #
def _int(value: int) -> str:
    """An SMT-LIB integer literal (negatives are ``(- n)``, not ``-n``)."""
    return str(value) if value >= 0 else f"(- {-value})"


def _affine(vector: Sequence[int], symbols: Sequence[str]) -> str:
    """``(+ (* c0 s0) ... constant)`` for a dense constraint vector."""
    terms: List[str] = []
    for coefficient, symbol in zip(vector, symbols):
        if coefficient == 0:
            continue
        if coefficient == 1:
            terms.append(symbol)
        elif coefficient == -1:
            terms.append(f"(- {symbol})")
        else:
            terms.append(f"(* {_int(coefficient)} {symbol})")
    constant = vector[-1]
    if constant != 0 or not terms:
        terms.append(_int(constant))
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def conjunct_formula(conjunct: Conjunct, var_symbols: Sequence[str], div_prefix: str = "d") -> Tuple[str, List[str]]:
    """The quantifier-free body of *conjunct* and its existential symbol names.

    Returns ``(body, div_symbols)``; the caller decides whether the
    existential columns are free constants (feasibility) or ``exists``-bound
    (negation).
    """
    if len(var_symbols) != conjunct.n_vars:
        raise ValueError("symbol count does not match conjunct arity")
    div_symbols = [f"{div_prefix}{i}" for i in range(conjunct.n_div)]
    symbols = list(var_symbols) + div_symbols
    atoms = [f"(= {_affine(eq, symbols)} 0)" for eq in conjunct.eqs]
    atoms += [f"(>= {_affine(ineq, symbols)} 0)" for ineq in conjunct.ineqs]
    if not atoms:
        body = "true"
    elif len(atoms) == 1:
        body = atoms[0]
    else:
        body = "(and " + " ".join(atoms) + ")"
    return body, div_symbols


def _exists(body: str, div_symbols: Sequence[str]) -> str:
    if not div_symbols:
        return body
    binders = " ".join(f"({name} Int)" for name in div_symbols)
    return f"(exists ({binders}) {body})"


def _declares(symbols: Sequence[str]) -> List[str]:
    return [f"(declare-const {name} Int)" for name in symbols]


def _script(lines: Sequence[str], get_values: Sequence[str] = ()) -> str:
    header = ["(set-logic LIA)"]
    footer = ["(check-sat)"]
    if get_values:
        header.insert(0, "(set-option :produce-models true)")
        footer.append("(get-value (" + " ".join(get_values) + "))")
    return "\n".join(header + list(lines) + footer) + "\n"


def feasibility_script(conjunct: Conjunct, *, get_model: bool = False) -> str:
    """A SAT check of one conjunct (optionally extracting its public point)."""
    var_symbols = [f"x{i}" for i in range(conjunct.n_vars)]
    body, div_symbols = conjunct_formula(conjunct, var_symbols)
    lines = _declares(var_symbols + div_symbols) + [f"(assert {body})"]
    return _script(lines, get_values=var_symbols if get_model else ())


def subset_scripts(a: Sequence[Conjunct], b: Sequence[Conjunct]) -> List[str]:
    """One script per conjunct of *a*; ``a ⊆ b`` iff every script is UNSAT."""
    scripts: List[str] = []
    for left in a:
        var_symbols = [f"x{i}" for i in range(left.n_vars)]
        left_body, left_divs = conjunct_formula(left, var_symbols, div_prefix="d")
        lines = _declares(var_symbols + left_divs) + [f"(assert {left_body})"]
        for right in b:
            right_body, right_divs = conjunct_formula(right, var_symbols, div_prefix="e")
            lines.append(f"(assert (not {_exists(right_body, right_divs)}))")
        scripts.append(_script(lines))
    return scripts


def disjoint_scripts(a: Sequence[Conjunct], b: Sequence[Conjunct]) -> List[str]:
    """One script per pair; the unions are disjoint iff every script is UNSAT."""
    scripts: List[str] = []
    for left in a:
        var_symbols = [f"x{i}" for i in range(left.n_vars)]
        left_body, left_divs = conjunct_formula(left, var_symbols, div_prefix="d")
        for right in b:
            right_body, right_divs = conjunct_formula(right, var_symbols, div_prefix="e")
            lines = _declares(var_symbols + left_divs + right_divs)
            lines.append(f"(assert {left_body})")
            lines.append(f"(assert {right_body})")
            scripts.append(_script(lines))
    return scripts


# --------------------------------------------------------------------------- #
# Solver resolution
# --------------------------------------------------------------------------- #
def resolve_solver_command(spec: Optional[str] = None) -> str:
    """The solver command to use: explicit *spec* > ``z3`` > ``cvc5`` on PATH.

    Raises :class:`SolverUnavailableError` when the explicit command's
    binary is missing or, without one, when neither solver is on PATH.
    """
    if spec:
        binary = spec.split()[0]
        if shutil.which(binary) is None:
            raise SolverUnavailableError(f"solver binary not found: {binary!r}")
        return spec
    for candidate in ("z3", "cvc5"):
        if shutil.which(candidate):
            return candidate
    raise SolverUnavailableError(
        "the 'smtlib' backend needs an SMT-LIB2 solver: put z3 or cvc5 on PATH "
        "or name one with --smt-solver"
    )


def _run_solver(command: str, script: str) -> str:
    """Feed *script* to the solver binary and return its stdout."""
    argv = command.split()
    with tempfile.NamedTemporaryFile("w", suffix=".smt2", delete=False) as handle:
        handle.write(script)
        path = handle.name
    try:
        completed = subprocess.run(
            argv + [path], capture_output=True, text=True, timeout=300
        )
    except FileNotFoundError as error:
        raise SolverUnavailableError(f"solver binary not found: {argv[0]!r}") from error
    except subprocess.TimeoutExpired as error:
        raise SolverError(f"solver {argv[0]!r} timed out") from error
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
    output = completed.stdout
    if "sat" not in output:
        raise SolverError(
            f"solver {argv[0]!r} produced no verdict "
            f"(exit {completed.returncode}): {completed.stderr.strip()[:200]}"
        )
    return output


Sexpr = Union[str, List["Sexpr"]]


def parse_sexprs(text: str) -> List[Sexpr]:
    """Parse solver output into a list of nested lists and atom strings."""
    forms: List[Sexpr] = []
    stack: List[List[Sexpr]] = []
    for token in re.findall(r"[()]|[^\s();]+", re.sub(r";[^\n]*", "", text)):
        if token == "(":
            stack.append([])
        elif token == ")":
            if not stack:
                raise SolverError("unbalanced ')' in solver output")
            done = stack.pop()
            (stack[-1] if stack else forms).append(done)
        else:
            (stack[-1] if stack else forms).append(token)
    if stack:
        raise SolverError("unbalanced '(' in solver output")
    return forms


def _parse_values(output_tail: str, symbols: Sequence[str]) -> Tuple[int, ...]:
    """Extract ``(get-value ...)`` integers from solver output."""
    values = {}
    for form in parse_sexprs(output_tail):
        if not isinstance(form, list):
            continue
        for pair in form:
            if isinstance(pair, list) and len(pair) == 2:
                name, value = pair
                values[name] = _sexpr_int(value)
    try:
        return tuple(values[symbol] for symbol in symbols)
    except KeyError as error:
        raise SolverError(f"solver model is missing {error.args[0]!r}") from error


def _sexpr_int(value: Any) -> int:
    if isinstance(value, list):
        if len(value) == 2 and value[0] == "-":
            return -_sexpr_int(value[1])
        raise SolverError(f"unexpected model value {value!r}")
    return int(value)


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #
class SmtLibBackend(SolverBackend):
    """Decide queries by emitting SMT-LIB2 and running an external solver."""

    name = "smtlib"

    def __init__(self, solver_cmd: Optional[str] = None) -> None:
        super().__init__()
        self.solver_cmd = resolve_solver_command(solver_cmd)
        self._tag = f"{self.name}:{self.solver_cmd}"

    # ---- raw solving (memoized on the script text) -------------------- #
    def _solve(self, script: str, model_symbols: Sequence[str] = ()) -> Tuple[str, Optional[Tuple[int, ...]]]:
        output = _run_solver(self.solver_cmd, script)
        lines = [line.strip() for line in output.splitlines() if line.strip()]
        status = next((line for line in lines if line in ("sat", "unsat", "unknown")), None)
        if status is None:
            raise SolverError(f"unparsable solver output: {output[:200]!r}")
        if status == "unknown":
            raise SolverError(f"solver {self.solver_cmd!r} returned 'unknown'")
        values: Optional[Tuple[int, ...]] = None
        if status == "sat" and model_symbols:
            tail = output.split(status, 1)[1]
            values = _parse_values(tail, model_symbols)
        return status, values

    def _query(self, script: str, model_symbols: Sequence[str] = ()) -> Tuple[str, Optional[Tuple[int, ...]]]:
        return _opcache.memoized(
            "smt.query", (self._tag, script, tuple(model_symbols)),
            lambda: self._solve(script, model_symbols),
        )

    def _is_sat(self, script: str) -> bool:
        return self._query(script)[0] == "sat"

    # ---- the decision queries ----------------------------------------- #
    def is_feasible(self, conjunct: Conjunct) -> bool:
        self._count("is_feasible")
        return self._is_sat(feasibility_script(conjunct))

    def _subset(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        return all(not self._is_sat(script) for script in subset_scripts(a, b))

    def is_subset(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        self._count("is_subset")
        return self._subset(a, b)

    def is_equal(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        self._count("is_equal")
        return self._subset(a, b) and self._subset(b, a)

    def is_disjoint(self, a: Sequence[Conjunct], b: Sequence[Conjunct]) -> bool:
        self._count("is_disjoint")
        return all(not self._is_sat(script) for script in disjoint_scripts(a, b))

    def sample_point(self, set_like: Any, seed: int = 0, limit: int = 4096) -> Tuple[int, ...]:
        self._count("sample_point")
        for conjunct in set_like.conjuncts:
            symbols = [f"x{i}" for i in range(conjunct.n_vars)]
            status, values = self._query(
                feasibility_script(conjunct, get_model=True), tuple(symbols)
            )
            if status == "sat":
                if values is None:
                    raise SolverError("solver reported sat but produced no model")
                return tuple(values)
        raise ValueError("cannot sample a point from an empty set")

