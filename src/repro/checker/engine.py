"""The synchronized ADDG traversal at the heart of the equivalence checker.

This module implements the method of Section 5 of the paper:

* the **basic method** (Section 5.1): a synchronized depth-first traversal of
  the two ADDGs that reduces intermediate variables by composing dependency
  mappings and checks, for every pair of corresponding paths, that the same
  operators appear in the same order and that the output–input mappings are
  identical;
* the **extended method** (Section 5.2): on operators declared associative
  and/or commutative the traversal first establishes a normal form through
  *flattening* (associative chains are collected across statements, reducing
  intermediate variables on the way) and *matching* (operands of commutative
  operators are paired using the output–input mappings when node labels are
  not unique);
* **tabling** of established equivalences so overlapping sub-ADDGs are not
  re-explored (Section 6.2), plus inductive assumptions for data-flow cycles
  (recurrences), whose soundness rests on the def-use order checked by
  :mod:`repro.analysis.dataflow`;
* structured **error diagnostics** (Section 6.1) with the mismatching
  mappings, the statements involved and suspect variables.

The engine works on two extracted :class:`~repro.addg.graph.ADDG` values; the
public entry point is :func:`repro.checker.api.check_equivalence`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set as PySet, Tuple

from ..presburger import Map, Set, SpaceMismatchError, opcache
from ..presburger.errors import PresburgerError
from ..telemetry import TRACER as _TRACER
from ..addg.graph import ADDG, ConstNode, ExprNode, OpNode, ReadNode, StatementNode
from .properties import OperatorProperties, OperatorRegistry, default_registry
from .result import CheckStats, Diagnostic, DiagnosticKind

__all__ = ["Term", "Engine"]

# Path entries are ("array", name) or ("stmt", label) pairs.
PathEntry = Tuple[str, str]


class Term:
    """A position reached during the synchronized traversal.

    A term is either an array node, an operator occurrence, or a constant,
    together with the *output-current mapping* ``rel`` (a relation from the
    elements of the output array being checked to the elements / statement
    instances currently under consideration) and a provenance path used for
    diagnostics.
    """

    __slots__ = ("kind", "side", "array", "node", "value", "rel", "path")

    ARRAY = "array"
    OP = "op"
    CONST = "const"

    def __init__(
        self,
        kind: str,
        side: int,
        rel: Map,
        path: Tuple[PathEntry, ...],
        array: Optional[str] = None,
        node: Optional[OpNode] = None,
        value: Optional[int] = None,
    ):
        self.kind = kind
        self.side = side
        self.rel = rel
        self.path = path
        self.array = array
        self.node = node
        self.value = value

    def with_rel(self, rel: Map) -> "Term":
        return Term(self.kind, self.side, rel, self.path, self.array, self.node, self.value)

    def display(self) -> str:
        if self.kind == Term.ARRAY:
            return str(self.array)
        if self.kind == Term.CONST:
            return str(self.value)
        assert self.node is not None
        return self.node.name

    def path_text(self) -> Tuple[str, ...]:
        return tuple(entry[1] for entry in self.path)

    def path_statements(self) -> Tuple[str, ...]:
        return tuple(name for kind, name in self.path if kind == "stmt")

    def path_arrays(self) -> Tuple[str, ...]:
        return tuple(name for kind, name in self.path if kind == "array")

    def __repr__(self) -> str:
        return f"Term({self.kind}, side={self.side}, {self.display()!r})"


def _map_key(relation: Map) -> Tuple:
    return tuple(sorted(conjunct.normalized_key() for conjunct in relation.conjuncts))


class Engine:
    """One equivalence-checking run over a pair of ADDGs."""

    def __init__(
        self,
        original: ADDG,
        transformed: ADDG,
        registry: Optional[OperatorRegistry] = None,
        method: str = "extended",
        correspondences: Sequence[Tuple[str, str]] = (),
        tabling: bool = True,
        max_depth: int = 400,
        max_resolve_depth: int = 120,
    ):
        if method not in ("basic", "extended"):
            raise ValueError(f"unknown method {method!r} (expected 'basic' or 'extended')")
        self.addgs = (original, transformed)
        self.registry = registry if registry is not None else default_registry()
        self.method = method
        self.correspondences = {tuple(pair) for pair in correspondences}
        self.tabling_enabled = tabling
        self.max_depth = max_depth
        self.max_resolve_depth = max_resolve_depth

        self.diagnostics: List[Diagnostic] = []
        self.stats = CheckStats()
        self.current_output: Optional[str] = None

        self._table: Dict[Tuple, bool] = {}
        self._assumptions: List[Tuple[str, str, Map]] = []
        self._assumption_uses: PySet[int] = set()
        self._suppress = 0
        self._correspondence_obligations: PySet[Tuple[str, str]] = set()
        self._cyclic = (set(original.cyclic_arrays()), set(transformed.cyclic_arrays()))
        # Baseline of the process-wide Presburger operation-cache counters so
        # this run's share can be reported as a delta (the cache is shared
        # across engines in the process, like the paper's tabling is shared
        # across outputs of one check).
        self._opcache_baseline = opcache.snapshot()

    def record_opcache_stats(self) -> None:
        """Store this run's Presburger cache/intern activity into :attr:`stats`.

        Called once per :meth:`repro.verifier.Verifier.check` traversal, after
        it finished; the counters are deltas against the engine's
        construction-time snapshot, so concurrent warm state contributed by
        earlier checks in the same process is not double counted.
        """
        delta = opcache.snapshot().delta(self._opcache_baseline)
        self.stats.opcache_hits = delta.hits
        self.stats.opcache_misses = delta.misses
        self.stats.intern_hits = delta.intern_hits

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def addg(self, side: int) -> ADDG:
        return self.addgs[side]

    def properties(self, op: str) -> OperatorProperties:
        if self.method == "basic":
            return OperatorProperties()
        return self.registry.get(op)

    def _diag(self, diagnostic: Diagnostic) -> None:
        if self._suppress == 0:
            diagnostic.output_array = diagnostic.output_array or self.current_output
            self.diagnostics.append(diagnostic)

    def _restrict(self, term: Term, output_domain: Set) -> Term:
        return term.with_rel(term.rel.restrict_domain(output_domain))

    @staticmethod
    def _term_key(term: Term) -> Tuple:
        if term.kind == Term.ARRAY:
            identity: Tuple = ("array", term.array)
        elif term.kind == Term.CONST:
            identity = ("const", term.value)
        else:
            assert term.node is not None
            identity = ("op", term.node.statement_label, term.node.path)
        return (term.side, identity, _map_key(term.rel))

    # ------------------------------------------------------------------ #
    # Term constructors
    # ------------------------------------------------------------------ #
    def output_term(self, side: int, array: str, rel: Map) -> Term:
        return Term(Term.ARRAY, side, rel, (("array", array),), array=array)

    def _operand_term(self, parent: Term, child: ExprNode) -> Term:
        assert parent.kind == Term.OP
        if isinstance(child, ReadNode):
            rel = parent.rel.compose(child.dependency)
            path = parent.path + (("array", child.array),)
            return Term(Term.ARRAY, parent.side, rel, path, array=child.array)
        if isinstance(child, OpNode):
            return Term(Term.OP, parent.side, parent.rel, parent.path, node=child)
        if isinstance(child, ConstNode):
            return Term(Term.CONST, parent.side, parent.rel, parent.path, value=child.value)
        raise TypeError(f"unexpected ADDG node {type(child).__name__}")

    def _statement_entry_term(self, parent: Term, statement: StatementNode, rel: Map) -> Term:
        path = parent.path + (("stmt", statement.label),)
        node = statement.rhs
        if isinstance(node, OpNode):
            return Term(Term.OP, parent.side, rel, path, node=node)
        if isinstance(node, ConstNode):
            return Term(Term.CONST, parent.side, rel, path, value=node.value)
        if isinstance(node, ReadNode):
            new_rel = rel.compose(node.dependency)
            return Term(
                Term.ARRAY, parent.side, new_rel, path + (("array", node.array),), array=node.array
            )
        raise TypeError(f"unexpected ADDG node {type(node).__name__}")

    # ------------------------------------------------------------------ #
    # Resolution: reduce intermediate variables until op / const / input
    # ------------------------------------------------------------------ #
    def _is_input_term(self, term: Term) -> bool:
        return term.kind == Term.ARRAY and self.addg(term.side).is_input(term.array)

    def _is_cyclic_term(self, term: Term) -> bool:
        """True for array terms that belong to a data-flow cycle (recurrence)."""
        return term.kind == Term.ARRAY and term.array in self._cyclic[term.side]

    def _resolve(self, term: Term, depth: int = 0, allowance: int = 0) -> Tuple[List[Term], bool]:
        """Reduce *term* through intermediate-variable definitions.

        Returns ``(pieces, ok)`` where the pieces partition the output
        sub-domain of *term* and each piece is an operator, constant, input
        array, or *recurrence* array term; ``ok`` is false when part of the
        term reads elements that no statement defines (an *undefined read*).

        Recurrence arrays (cycles in the ADDG) are only expanded while
        *allowance* is positive; each expansion consumes one unit.  This keeps
        the traversal from unrolling recurrences: they are instead discharged
        by the inductive assumptions of :meth:`compare`, which the checker
        uses instead of the paper's transitive closure of the cycle.
        """
        if term.kind in (Term.OP, Term.CONST) or self._is_input_term(term):
            return [term], True
        if self._is_cyclic_term(term):
            if allowance <= 0:
                return [term], True
            allowance -= 1
        if depth > self.max_resolve_depth:
            self._diag(
                Diagnostic(
                    DiagnosticKind.UNSUPPORTED,
                    f"intermediate-variable reduction exceeded depth {self.max_resolve_depth} "
                    f"while reducing array {term.array!r} (possible copy cycle)",
                )
            )
            return [], False

        addg = self.addg(term.side)
        needed = term.rel.range()
        if needed.is_empty():
            return [], True

        pieces: List[Term] = []
        ok = True
        covered: Optional[Set] = None
        for statement in addg.defining_statements(term.array or ""):
            try:
                restricted = term.rel.restrict_range(statement.written.rename(term.rel.out_names))
            except SpaceMismatchError:
                self._diag(
                    Diagnostic(
                        DiagnosticKind.UNSUPPORTED,
                        f"array {term.array!r} is accessed with inconsistent dimensionality",
                    )
                )
                return [], False
            if restricted.is_empty():
                continue
            covered = statement.written if covered is None else covered.union(statement.written)
            child = self._statement_entry_term(term, statement, restricted)
            sub_pieces, sub_ok = self._resolve(child, depth + 1, allowance)
            pieces.extend(sub_pieces)
            ok = ok and sub_ok

        total_written: Optional[Set] = None
        for statement in addg.defining_statements(term.array or ""):
            total_written = (
                statement.written
                if total_written is None
                else total_written.union(statement.written)
            )
        if total_written is None:
            uncovered = needed
        else:
            uncovered = needed.subtract(total_written.rename(needed.names))
        if not uncovered.is_empty():
            side_name = "original" if term.side == 0 else "transformed"
            affected = term.rel.restrict_range(uncovered.rename(term.rel.out_names)).domain()
            diagnostic = Diagnostic(
                DiagnosticKind.UNDEFINED_READ,
                f"{side_name} program reads elements of {term.array!r} that are never defined",
                mismatch_domain=str(uncovered),
            )
            if term.side == 0:
                diagnostic.original_arrays = (term.array or "",)
                diagnostic.original_path = term.path_text()
                diagnostic.original_statements = term.path_statements()
            else:
                diagnostic.transformed_arrays = (term.array or "",)
                diagnostic.transformed_path = term.path_text()
                diagnostic.transformed_statements = term.path_statements()
            diagnostic.mismatch_domain = str(affected) if not affected.is_empty() else str(uncovered)
            self._diag(diagnostic)
            ok = False
        return pieces, ok

    # ------------------------------------------------------------------ #
    # The synchronized comparison
    # ------------------------------------------------------------------ #
    def compare(self, first: Term, second: Term, trial: bool = False, depth: int = 0) -> bool:
        """Check the sufficient condition for the two terms (memoized)."""
        self.stats.compare_calls += 1
        if depth > self.max_depth:
            self._diag(
                Diagnostic(
                    DiagnosticKind.UNSUPPORTED,
                    f"traversal exceeded the maximum depth of {self.max_depth}",
                )
            )
            return False

        key: Optional[Tuple] = None
        if self.tabling_enabled:
            key = (self._term_key(first), self._term_key(second))
            if key in self._table:
                self.stats.table_hits += 1
                if _TRACER.enabled:
                    _TRACER.event("engine.table_hit", "engine", output=self.current_output)
                return self._table[key]

        entry_assumptions = len(self._assumptions)
        uses_before = set(self._assumption_uses)
        if trial:
            self._suppress += 1
        try:
            result = self._compare_inner(first, second, trial, depth)
        finally:
            if trial:
                self._suppress -= 1

        if self.tabling_enabled and key is not None:
            new_uses = self._assumption_uses - uses_before
            independent = all(index >= entry_assumptions for index in new_uses)
            if independent and (result or not trial):
                self._table[key] = result
                self.stats.table_entries = len(self._table)
        return result

    def _compare_inner(self, first: Term, second: Term, trial: bool, depth: int) -> bool:
        domain1 = first.rel.domain()
        domain2 = second.rel.domain()
        if domain1.is_empty() and domain2.is_empty():
            return True
        try:
            domains_equal = domain1.is_equal(domain2)
        except SpaceMismatchError:
            self._diag(
                Diagnostic(
                    DiagnosticKind.KIND_MISMATCH,
                    "output spaces of the two programs have different dimensionality",
                )
            )
            return False
        if not domains_equal:
            common = domain1.intersect(domain2)
            self._diag(
                Diagnostic(
                    DiagnosticKind.DOMAIN_MISMATCH,
                    "the two paths define / use different parts of the output",
                    original_path=first.path_text(),
                    transformed_path=second.path_text(),
                    original_statements=first.path_statements(),
                    transformed_statements=second.path_statements(),
                    mismatch_domain=str(domain1.subtract(common).union(domain2.subtract(common))),
                )
            )
            return False

        # Constants.
        if first.kind == Term.CONST and second.kind == Term.CONST:
            if first.value == second.value:
                return True
            self._diag(
                Diagnostic(
                    DiagnosticKind.CONSTANT_MISMATCH,
                    f"constant {first.value} in the original vs {second.value} in the transformed program",
                    original_path=first.path_text(),
                    transformed_path=second.path_text(),
                    original_statements=first.path_statements(),
                    transformed_statements=second.path_statements(),
                )
            )
            return False

        input1 = self._is_input_term(first)
        input2 = self._is_input_term(second)
        if input1 and input2:
            return self._compare_leaves(first, second)

        both_arrays = (
            first.kind == Term.ARRAY
            and second.kind == Term.ARRAY
            and not input1
            and not input2
        )
        if both_arrays:
            if (first.array, second.array) in self.correspondences:
                return self._compare_via_correspondence(first, second)
            correspondence = self._correspondence_relation(first, second)
            if correspondence is not None:
                for index, (name1, name2, previous) in enumerate(self._assumptions):
                    if name1 == first.array and name2 == second.array:
                        try:
                            if correspondence.is_subset(previous):
                                self._assumption_uses.add(index)
                                self.stats.assumption_uses += 1
                                return True
                        except SpaceMismatchError:
                            continue
                self._assumptions.append((first.array or "", second.array or "", correspondence))
                try:
                    return self._compare_after_reduction(first, second, trial, depth)
                finally:
                    self._assumptions.pop()
        return self._compare_after_reduction(first, second, trial, depth)

    def _array_under_comparison(self, term: Term) -> bool:
        """True when the term's array is currently on the assumption stack (a cycle)."""
        position = 0 if term.side == 0 else 1
        return any(entry[position] == term.array for entry in self._assumptions)

    def _correspondence_relation(self, first: Term, second: Term) -> Optional[Map]:
        try:
            return first.rel.inverse().compose(second.rel)
        except (SpaceMismatchError, PresburgerError):
            return None

    def _compare_after_reduction(self, first: Term, second: Term, trial: bool, depth: int) -> bool:
        # One level of recurrence expansion is allowed here: the enclosing
        # compare() has just installed (or found) the inductive assumption for
        # this array pair, so unfolding one step is exactly the induction step.
        pieces1, ok1 = self._resolve(first, allowance=1)
        pieces2, ok2 = self._resolve(second, allowance=1)
        compared = self._compare_piecewise(pieces1, pieces2, trial, depth)
        return ok1 and ok2 and compared

    def _compare_piecewise(
        self, pieces1: Sequence[Term], pieces2: Sequence[Term], trial: bool, depth: int
    ) -> bool:
        ok = True
        for piece1 in pieces1:
            domain1 = piece1.rel.domain()
            if domain1.is_empty():
                continue
            for piece2 in pieces2:
                domain2 = piece2.rel.domain()
                common = domain1.intersect(domain2)
                if common.is_empty():
                    continue
                restricted1 = self._restrict(piece1, common)
                restricted2 = self._restrict(piece2, common)
                if not self._compare_resolved(restricted1, restricted2, trial, depth):
                    ok = False
        return ok

    def _compare_resolved(self, first: Term, second: Term, trial: bool, depth: int) -> bool:
        if first.kind == Term.CONST and second.kind == Term.CONST:
            return self._compare_inner(first, second, trial, depth)
        input1 = self._is_input_term(first)
        input2 = self._is_input_term(second)
        if input1 and input2:
            return self._compare_leaves(first, second)
        array1 = first.kind == Term.ARRAY and not input1
        array2 = second.kind == Term.ARRAY and not input2
        if array1 and array2:
            # Both sides stopped at recurrence arrays: go through the full
            # comparison (assumption / induction logic) for the pair.
            return self._compare_inner(first, second, trial, depth)
        if array1 or array2:
            # Only one side is an unexpanded recurrence array (the other side
            # inlined the definition differently); force one expansion step so
            # the structural comparison can proceed.
            pieces1, ok1 = (self._resolve(first, allowance=1) if array1 else ([first], True))
            pieces2, ok2 = (self._resolve(second, allowance=1) if array2 else ([second], True))
            return ok1 and ok2 and self._compare_piecewise(pieces1, pieces2, trial, depth + 1)
        if first.kind == Term.OP and second.kind == Term.OP:
            return self._compare_ops(first, second, trial, depth)
        # Mixed kinds after full resolution: a genuine structural mismatch.
        self._diag(
            Diagnostic(
                DiagnosticKind.KIND_MISMATCH,
                f"computation mismatch: {self._describe(first)} in the original program "
                f"vs {self._describe(second)} in the transformed program",
                original_path=first.path_text(),
                transformed_path=second.path_text(),
                original_statements=first.path_statements(),
                transformed_statements=second.path_statements(),
                original_arrays=first.path_arrays(),
                transformed_arrays=second.path_arrays(),
            )
        )
        return False

    def _describe(self, term: Term) -> str:
        if term.kind == Term.OP:
            assert term.node is not None
            return f"operator {term.node.op!r} (statement {term.node.statement_label})"
        if term.kind == Term.CONST:
            return f"constant {term.value}"
        return f"input array {term.array!r}"

    # ------------------------------------------------------------------ #
    # Leaves
    # ------------------------------------------------------------------ #
    def _compare_leaves(self, first: Term, second: Term) -> bool:
        self.stats.leaf_comparisons += 1
        self.stats.paths_checked += 1
        return self._leaf_verdict(first, second)

    def _leaf_verdict(self, first: Term, second: Term) -> bool:
        """Decide one pair of input leaves, diagnosing a mismatch (not counted)."""
        if first.array != second.array:
            self._diag(
                Diagnostic(
                    DiagnosticKind.LEAF_MISMATCH,
                    f"corresponding paths end at different input arrays: {first.array!r} in the "
                    f"original program, {second.array!r} in the transformed program",
                    original_arrays=(first.array or "",),
                    transformed_arrays=(second.array or "",),
                    original_path=first.path_text(),
                    transformed_path=second.path_text(),
                    original_statements=first.path_statements(),
                    transformed_statements=second.path_statements(),
                    original_mapping=str(first.rel),
                    transformed_mapping=str(second.rel),
                )
            )
            return False
        try:
            if first.rel.is_equal(second.rel):
                return True
        except SpaceMismatchError:
            self._diag(
                Diagnostic(
                    DiagnosticKind.KIND_MISMATCH,
                    f"input array {first.array!r} is accessed with different dimensionality",
                )
            )
            return False
        difference = first.rel.subtract(second.rel).union(second.rel.subtract(first.rel))
        self._diag(
            Diagnostic(
                DiagnosticKind.MAPPING_MISMATCH,
                f"output-input mappings to input array {first.array!r} differ on corresponding paths",
                original_arrays=(first.array or "",),
                transformed_arrays=(second.array or "",),
                original_mapping=str(first.rel),
                transformed_mapping=str(second.rel),
                mismatch_domain=str(difference.domain()),
                original_path=first.path_text(),
                transformed_path=second.path_text(),
                original_statements=first.path_statements(),
                transformed_statements=second.path_statements(),
            )
        )
        return False

    def _compare_via_correspondence(self, first: Term, second: Term) -> bool:
        """Handle a user-declared intermediate correspondence as a cut point."""
        self._correspondence_obligations.add((first.array or "", second.array or ""))
        self.stats.leaf_comparisons += 1
        try:
            if first.rel.is_equal(second.rel):
                return True
        except SpaceMismatchError:
            pass
        self._diag(
            Diagnostic(
                DiagnosticKind.MAPPING_MISMATCH,
                f"mappings to corresponding intermediate arrays {first.array!r} / {second.array!r} differ",
                original_mapping=str(first.rel),
                transformed_mapping=str(second.rel),
                original_path=first.path_text(),
                transformed_path=second.path_text(),
            )
        )
        return False

    def correspondence_obligations(self) -> List[Tuple[str, str]]:
        return sorted(self._correspondence_obligations)

    # ------------------------------------------------------------------ #
    # Operators: positional, flattening, matching
    # ------------------------------------------------------------------ #
    def _compare_ops(self, first: Term, second: Term, trial: bool, depth: int) -> bool:
        node1, node2 = first.node, second.node
        assert node1 is not None and node2 is not None
        if node1.op != node2.op:
            self._diag(
                Diagnostic(
                    DiagnosticKind.OPERATOR_MISMATCH,
                    f"operator {node1.op!r} (statement {node1.statement_label}) in the original "
                    f"program does not match operator {node2.op!r} (statement "
                    f"{node2.statement_label}) in the transformed program",
                    original_statements=(node1.statement_label,),
                    transformed_statements=(node2.statement_label,),
                    original_path=first.path_text(),
                    transformed_path=second.path_text(),
                )
            )
            return False

        properties = self.properties(node1.op)
        if properties.associative:
            self.stats.flatten_operations += 1
            flattened1 = self._flatten(first, node1.op)
            flattened2 = self._flatten(second, node2.op)
            return self._compare_flattened(flattened1, flattened2, properties, trial, depth)
        if properties.commutative:
            operands1 = [self._operand_term(first, child) for child in node1.operands]
            operands2 = [self._operand_term(second, child) for child in node2.operands]
            if len(operands1) != len(operands2):
                self._diag_operand_count(first, second, len(operands1), len(operands2))
                return False
            self.stats.matching_operations += 1
            return self._match_terms(operands1, operands2, trial, depth)

        # No algebraic laws: synchronized positional traversal (basic method).
        operands1 = [self._operand_term(first, child) for child in node1.operands]
        operands2 = [self._operand_term(second, child) for child in node2.operands]
        if len(operands1) != len(operands2):
            self._diag_operand_count(first, second, len(operands1), len(operands2))
            return False
        ok = True
        for child1, child2 in zip(operands1, operands2):
            if not self.compare(child1, child2, trial, depth + 1):
                ok = False
        return ok

    def _diag_operand_count(self, first: Term, second: Term, count1: int, count2: int) -> None:
        self._diag(
            Diagnostic(
                DiagnosticKind.OPERAND_COUNT_MISMATCH,
                f"operator has {count1} operand(s) in the original program but {count2} in the "
                "transformed program",
                original_path=first.path_text(),
                transformed_path=second.path_text(),
                original_statements=first.path_statements(),
                transformed_statements=second.path_statements(),
            )
        )

    # ---------------------------- flattening ---------------------------- #
    def _flatten(self, term: Term, op: str, depth: int = 0) -> List[Tuple[Set, List[Term]]]:
        """Collect the operand terms of the maximal *op*-chain rooted at *term*.

        Intermediate variables encountered inside the chain are reduced on the
        fly (Fig. 4 of the paper), so the chain may span several statements.
        The result is a list of pieces ``(output sub-domain, ordered terms)``
        because piece-wise defined intermediate arrays may give the chain a
        different shape on different parts of the output.
        """
        assert term.kind == Term.OP and term.node is not None
        results: List[Tuple[Set, List[Term]]] = [(term.rel.domain(), [])]
        for child in term.node.operands:
            child_term = self._operand_term(term, child)
            expanded = self._expand_chain_element(child_term, op, depth)
            merged: List[Tuple[Set, List[Term]]] = []
            for domain_acc, terms_acc in results:
                for domain_new, terms_new in expanded:
                    common = domain_acc.intersect(domain_new)
                    if common.is_empty():
                        continue
                    merged.append((common, terms_acc + terms_new))
            results = merged
            if not results:
                break
        return [
            (domain, [self._restrict(element, domain) for element in terms])
            for domain, terms in results
        ]

    def _expand_chain_element(self, term: Term, op: str, depth: int) -> List[Tuple[Set, List[Term]]]:
        if depth > 80:
            self._diag(
                Diagnostic(
                    DiagnosticKind.UNSUPPORTED,
                    "flattening exceeded the maximum associative-chain depth",
                )
            )
            return [(term.rel.domain(), [term])]
        if term.kind == Term.ARRAY and self._array_under_comparison(term):
            # Do not unroll a recurrence through flattening: keep the
            # recursive operand as a chain element so that it is discharged by
            # the inductive assumption (the checker uses induction where the
            # paper takes the transitive closure of the cycle).
            return [(term.rel.domain(), [term])]
        pieces, _ok = self._resolve(term)
        expanded: List[Tuple[Set, List[Term]]] = []
        for piece in pieces:
            if (
                piece.kind == Term.OP
                and piece.node is not None
                and piece.node.op == op
                and self.properties(op).associative
            ):
                expanded.extend(self._flatten(piece, op, depth + 1))
            else:
                expanded.append((piece.rel.domain(), [piece]))
        return expanded

    def _compare_flattened(
        self,
        flattened1: Sequence[Tuple[Set, List[Term]]],
        flattened2: Sequence[Tuple[Set, List[Term]]],
        properties: OperatorProperties,
        trial: bool,
        depth: int,
    ) -> bool:
        ok = True
        for domain1, terms1 in flattened1:
            if domain1.is_empty():
                continue
            for domain2, terms2 in flattened2:
                common = domain1.intersect(domain2)
                if common.is_empty():
                    continue
                restricted1 = [self._restrict(t, common) for t in terms1]
                restricted2 = [self._restrict(t, common) for t in terms2]
                if properties.commutative:
                    self.stats.matching_operations += 1
                    if not self._match_terms(restricted1, restricted2, trial, depth):
                        ok = False
                else:
                    if len(restricted1) != len(restricted2):
                        self._diag(
                            Diagnostic(
                                DiagnosticKind.OPERAND_COUNT_MISMATCH,
                                f"associative chain has {len(restricted1)} operand(s) in the original "
                                f"program but {len(restricted2)} in the transformed program",
                                mismatch_domain=str(common),
                            )
                        )
                        ok = False
                        continue
                    for element1, element2 in zip(restricted1, restricted2):
                        if not self.compare(element1, element2, trial, depth + 1):
                            ok = False
        return ok

    # ----------------------------- matching ----------------------------- #
    @staticmethod
    def _signature(term: Term, addg: ADDG) -> Tuple:
        if term.kind == Term.CONST:
            return ("const", term.value)
        if term.kind == Term.ARRAY and addg.is_input(term.array or ""):
            return ("input", term.array)
        if term.kind == Term.ARRAY:
            return ("other",)
        assert term.node is not None
        return ("op", term.node.op)

    def _match_terms(self, terms1: List[Term], terms2: List[Term], trial: bool, depth: int) -> bool:
        """Pair the operands of a commutative operator (Section 5.2, "matching").

        Operands are grouped by a coarse signature (constant value, input
        array, operator, recurrence array); the group sizes must agree.  A
        group of several reads of one input array is first paired by key:
        each read's key is its dependency mapping's :func:`_map_key` (already
        restricted to the common output domain).  Two input leaves are
        compatible exactly when their mappings are equal, which is an
        equivalence relation, and equal keys mean identical conjuncts, hence
        equal mappings.  So pairing equal keys greedily never loses a
        complete matching, and the chain ``A[k+0] + ... + A[k+n-1]`` against
        any permutation costs n compares where trial-comparing every pair
        would cost n².  Each key pair is still confirmed through
        :meth:`compare`, so tabling and the leaf counters keep their
        meaning.  Reads without a key partner (equal mappings written
        differently, or genuine mismatches) and all other groups are paired
        by trial-comparing every pair and taking a maximum bipartite
        matching.  Unpaired operands stay in their
        original order, so the diagnostics of Section 6.1 name the same
        failing operands whichever way they were paired.
        """
        if len(terms1) != len(terms2):
            self._diag(
                Diagnostic(
                    DiagnosticKind.OPERAND_COUNT_MISMATCH,
                    f"commutative operator has {len(terms1)} operand(s) in the original program "
                    f"but {len(terms2)} in the transformed program",
                )
            )
            return False

        groups1: Dict[Tuple, List[Term]] = {}
        groups2: Dict[Tuple, List[Term]] = {}
        for term in terms1:
            groups1.setdefault(self._signature(term, self.addg(0)), []).append(term)
        for term in terms2:
            groups2.setdefault(self._signature(term, self.addg(1)), []).append(term)

        if {k: len(v) for k, v in groups1.items()} != {k: len(v) for k, v in groups2.items()}:
            self._diag(
                Diagnostic(
                    DiagnosticKind.SIGNATURE_MISMATCH,
                    "the operands of a commutative operator cannot be paired: the original program "
                    f"supplies {sorted(self._describe_group(groups1))} while the transformed program "
                    f"supplies {sorted(self._describe_group(groups2))}",
                    original_arrays=tuple(t.array for t in terms1 if t.array),
                    transformed_arrays=tuple(t.array for t in terms2 if t.array),
                )
            )
            return False

        ok = True
        failing_pairs: List[Tuple[Term, Term]] = []
        for signature, group1 in groups1.items():
            group2 = groups2[signature]
            if len(group1) == 1:
                if not self.compare(group1[0], group2[0], trial, depth + 1):
                    ok = False
                    failing_pairs.append((group1[0], group2[0]))
                continue
            if signature[0] == "input":
                group1, group2 = self._pair_by_key(group1, group2, depth)
            compatibility = [
                [self.compare(a, b, True, depth + 1) for b in group2] for a in group1
            ]
            matching = _maximum_matching(compatibility)
            if len(matching) == len(group1):
                continue
            ok = False
            matched_rows = {i for i, _ in matching}
            matched_cols = {j for _, j in matching}
            unmatched1 = [group1[i] for i in range(len(group1)) if i not in matched_rows]
            unmatched2 = [group2[j] for j in range(len(group2)) if j not in matched_cols]
            failing_pairs.extend(zip(unmatched1, unmatched2))

        if failing_pairs and not trial:
            self._report_matching_failures(failing_pairs)
        return ok

    def _pair_by_key(
        self, group1: List[Term], group2: List[Term], depth: int
    ) -> Tuple[List[Term], List[Term]]:
        """Pair reads of one input array whose mappings have equal keys.

        Each term of *group1*, in order, takes the first unused term of
        *group2* with the same key (the column Kuhn's algorithm would pick
        first).  Returns the unpaired terms of both groups in their original
        order.
        """
        buckets: Dict[Tuple, Deque[int]] = {}
        for index, term in enumerate(group2):
            buckets.setdefault(_map_key(term.rel), deque()).append(index)
        paired: PySet[int] = set()
        unpaired1: List[Term] = []
        for term in group1:
            bucket = buckets.get(_map_key(term.rel))
            if bucket and self.compare(term, group2[bucket[0]], True, depth + 1):
                paired.add(bucket.popleft())
            else:
                unpaired1.append(term)
        unpaired2 = [term for index, term in enumerate(group2) if index not in paired]
        return unpaired1, unpaired2

    @staticmethod
    def _describe_group(groups: Dict[Tuple, List[Term]]) -> List[str]:
        result = []
        for signature, members in groups.items():
            result.append(f"{signature[0]}:{signature[1] if len(signature) > 1 else ''}x{len(members)}")
        return result

    def _report_matching_failures(self, failing_pairs: Sequence[Tuple[Term, Term]]) -> None:
        for term1, term2 in failing_pairs:
            if self._is_input_term(term1) and self._is_input_term(term2) and term1.array == term2.array:
                # Re-decide the leaf pair without suppression to get the
                # detailed mapping-mismatch diagnostic of Section 6.1; the
                # pair was already counted when matching tried it.
                self._leaf_verdict(term1, term2)
            else:
                self._diag(
                    Diagnostic(
                        DiagnosticKind.MATCHING_FAILURE,
                        f"no valid pairing found for operand {self._describe(term1)} of the original "
                        f"program against operand {self._describe(term2)} of the transformed program",
                        original_mapping=str(term1.rel),
                        transformed_mapping=str(term2.rel),
                        original_path=term1.path_text(),
                        transformed_path=term2.path_text(),
                        original_statements=term1.path_statements(),
                        transformed_statements=term2.path_statements(),
                        original_arrays=term1.path_arrays(),
                        transformed_arrays=term2.path_arrays(),
                    )
                )

    # ------------------------------------------------------------------ #
    # Suspect heuristic (Section 6.1)
    # ------------------------------------------------------------------ #
    def apply_suspect_heuristic(self) -> None:
        """Annotate mapping/matching diagnostics with suspect statements and arrays.

        Following Section 6.1: when several corresponding paths fail, a
        variable that is common to all failing paths of the transformed
        program (and is not an input or output) is the most likely place of
        the error; the statements on those paths are reported as suspects.
        """
        failing = [
            d
            for d in self.diagnostics
            if d.kind
            in (
                DiagnosticKind.MAPPING_MISMATCH,
                DiagnosticKind.MATCHING_FAILURE,
                DiagnosticKind.LEAF_MISMATCH,
            )
        ]
        if not failing:
            return
        transformed = self.addg(1)
        candidate_sets = []
        for diagnostic in failing:
            arrays = {
                name
                for name in diagnostic.transformed_path
                if name in transformed.intermediates
            }
            candidate_sets.append(arrays)
        common = set.intersection(*candidate_sets) if candidate_sets else set()
        statements: PySet[str] = set()
        for diagnostic in failing:
            statements.update(diagnostic.transformed_statements)
        for diagnostic in failing:
            diagnostic.suspect_arrays = tuple(sorted(common))
            diagnostic.suspect_statements = tuple(sorted(statements))


def _maximum_matching(compatibility: List[List[bool]]) -> List[Tuple[int, int]]:
    """Maximum bipartite matching (Kuhn's algorithm) over a boolean matrix."""
    rows = len(compatibility)
    cols = len(compatibility[0]) if rows else 0
    match_for_col: List[Optional[int]] = [None] * cols

    def try_augment(row: int, visited: List[bool]) -> bool:
        for col in range(cols):
            if compatibility[row][col] and not visited[col]:
                visited[col] = True
                if match_for_col[col] is None or try_augment(match_for_col[col], visited):
                    match_for_col[col] = row
                    return True
        return False

    for row in range(rows):
        try_augment(row, [False] * cols)
    return [(row, col) for col, row in enumerate(match_for_col) if row is not None]
