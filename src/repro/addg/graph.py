"""The array data dependence graph (ADDG) data structure.

An ADDG (Section 3.2 of the paper) has nodes for the array variables and for
the occurrences of operators in the program, and edges directed against the
flow of data:

* a *statement edge* from the defined array variable to the root of the
  statement's right-hand-side expression, labelled with the statement, and
* *operand edges* from an operator node to its operands, labelled with the
  operand position.

Edges into array variables carry **dependency mappings**: integer tuple
relations from the elements of the defined array to the elements of the
operand array (Section 3.2).  In this implementation each statement is stored
as a :class:`StatementNode` whose right-hand side is an explicit expression
tree (:class:`OpNode` / :class:`ReadNode` / :class:`ConstNode`), and the
dependency mapping is attached to every :class:`ReadNode`.  The classic
"nodes and labelled edges" view used for Fig. 2-style inventories and DOT
export is derived from this structure on demand.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set as PySet, Tuple

from ..presburger import Map, Set
from ..lang.ast import ArrayRef
from ..analysis.domains import ProgramGeometry, StatementContext

__all__ = ["ExprNode", "OpNode", "ReadNode", "ConstNode", "StatementNode", "ADDG"]


class ExprNode:
    """Base class of right-hand-side expression nodes inside an ADDG."""

    __slots__ = ()

    def children(self) -> Tuple["ExprNode", ...]:
        return ()


class OpNode(ExprNode):
    """An occurrence of an operator (or of an uninterpreted function call)."""

    __slots__ = ("op", "operands", "statement_label")

    def __init__(self, op: str, operands: Sequence[ExprNode], statement_label: str):
        self.op = op
        self.operands: Tuple[ExprNode, ...] = tuple(operands)
        self.statement_label = statement_label

    def children(self) -> Tuple[ExprNode, ...]:
        return self.operands

    def __repr__(self) -> str:
        return f"OpNode({self.op!r}, {len(self.operands)} operand(s), stmt={self.statement_label!r})"


class ReadNode(ExprNode):
    """A read of an array element; carries the dependency mapping of its edge."""

    __slots__ = ("array", "ref", "dependency")

    def __init__(self, array: str, ref: ArrayRef, dependency: Map):
        self.array = array
        self.ref = ref
        self.dependency = dependency

    def __repr__(self) -> str:
        return f"ReadNode({self.array!r}, dep={self.dependency})"


class ConstNode(ExprNode):
    """An integer constant appearing as a data operand."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    def __repr__(self) -> str:
        return f"ConstNode({self.value})"


class StatementNode:
    """One assignment statement of the program inside the ADDG."""

    __slots__ = ("context", "rhs")

    def __init__(self, context: StatementContext, rhs: ExprNode):
        self.context = context
        self.rhs = rhs

    @property
    def write_map(self) -> Map:
        """The statement's write access map (owned by its context)."""
        return self.context.write_map

    @property
    def written(self) -> Set:
        """The elements the statement writes (owned by its context)."""
        return self.context.defined

    @property
    def label(self) -> str:
        return self.context.label

    @property
    def target(self) -> str:
        return self.context.target_array

    def reads(self) -> List[ReadNode]:
        """All read nodes of the right-hand side, left to right."""
        return [node for node in _preorder(self.rhs) if isinstance(node, ReadNode)]

    def operator_nodes(self) -> List[OpNode]:
        return [node for node in _preorder(self.rhs) if isinstance(node, OpNode)]

    def __repr__(self) -> str:
        return f"StatementNode({self.label!r}: {self.target!r} <- ...)"


class ADDG:
    """The array data dependence graph of one program function (immutable once built)."""

    __slots__ = (
        "geometry",
        "program",
        "statements",
        "definitions",
        "inputs",
        "outputs",
        "intermediates",
        "cyclic_arrays",
    )

    def __init__(self, geometry: ProgramGeometry, statements: Sequence[StatementNode]):
        self.geometry = geometry
        program = self.program = geometry.program
        self.statements: List[StatementNode] = list(statements)
        self.definitions: Dict[str, List[StatementNode]] = {}
        for statement in self.statements:
            self.definitions.setdefault(statement.target, []).append(statement)
        self.inputs: Tuple[str, ...] = program.input_arrays()
        self.outputs: Tuple[str, ...] = program.output_arrays()
        written = set(self.definitions)
        self.intermediates: Tuple[str, ...] = tuple(
            name for name in written if name not in self.outputs
        )
        #: Arrays whose values (transitively) depend on other elements of
        #: themselves: the recurrences of the program (cycles in the ADDG), which
        #: the checker treats specially (Section 5.2's closing remark on cycles).
        self.cyclic_arrays: Tuple[str, ...] = _cyclic_arrays(self.statements)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def defining_statements(self, array: str) -> List[StatementNode]:
        """The statements that write elements of *array* (empty for inputs)."""
        return list(self.definitions.get(array, []))

    def statement(self, label: str) -> StatementNode:
        for node in self.statements:
            if node.label == label:
                return node
        raise KeyError(f"no statement labelled {label!r}")

    def is_input(self, array: str) -> bool:
        return array in self.inputs

    def is_output(self, array: str) -> bool:
        return array in self.outputs

    def written_set(self, array: str) -> Set:
        """The union of elements of *array* written by the program (from its geometry)."""
        written = self.geometry.written_set(array)
        if written is None:
            raise KeyError(f"array {array!r} is never written")
        return written

    # ------------------------------------------------------------------ #
    # Fig. 2-style inventory (used by tests, examples and benchmarks)
    # ------------------------------------------------------------------ #
    def array_nodes(self) -> Tuple[str, ...]:
        names: List[str] = []
        for statement in self.statements:
            if statement.target not in names:
                names.append(statement.target)
            for read in statement.reads():
                if read.array not in names:
                    names.append(read.array)
        return tuple(names)

    def operator_nodes(self) -> List[OpNode]:
        result: List[OpNode] = []
        for statement in self.statements:
            result.extend(statement.operator_nodes())
        return result

    def operator_names(self) -> List[str]:
        """Display names of the operator nodes, in :meth:`operator_nodes` order.

        An operator in statement ``t4`` is named ``+@t4`` at the root of the
        right-hand side and ``+@t4.1_2`` at operand 2 of operand 1 of the root.
        """
        result: List[str] = []
        for statement in self.statements:
            result.extend(_operator_names(statement).values())
        return result

    def edges(self) -> List[Tuple[str, str, str]]:
        """All edges as ``(source, target, label)`` display triples."""
        result: List[Tuple[str, str, str]] = []
        for statement in self.statements:
            names = _operator_names(statement)
            root = statement.rhs
            result.append((statement.target, _node_display_name(root, names), statement.label))
            stack: List[ExprNode] = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, OpNode):
                    for position, child in enumerate(node.operands, start=1):
                        result.append((names[node], _node_display_name(child, names), str(position)))
                        stack.append(child)
        return result

    def node_count(self) -> int:
        return len(self.array_nodes()) + len(self.operator_nodes())

    def edge_count(self) -> int:
        """``len(self.edges())``, counted without building display names."""
        return len(self.statements) + sum(len(node.operands) for node in self.operator_nodes())

    def size(self) -> int:
        """A simple size metric (nodes + edges) used in the scaling benchmarks."""
        return self.node_count() + self.edge_count()

    def __repr__(self) -> str:
        return (
            f"ADDG({self.program.name!r}: {len(self.statements)} statement(s), "
            f"{self.node_count()} node(s), {self.edge_count()} edge(s))"
        )


def _cyclic_arrays(statements: Sequence[StatementNode]) -> Tuple[str, ...]:
    """The arrays that reach themselves along the read edges of *statements*, sorted."""
    reads_of: Dict[str, PySet[str]] = {}
    for statement in statements:
        targets = reads_of.setdefault(statement.target, set())
        for read in statement.reads():
            targets.add(read.array)

    def reachable_from(start: str) -> PySet[str]:
        seen: PySet[str] = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for nxt in reads_of.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    return tuple(sorted(name for name in reads_of if name in reachable_from(name)))


def _preorder(root: ExprNode) -> Iterator[ExprNode]:
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def _operator_names(statement: StatementNode) -> Dict[OpNode, str]:
    """The display name of every operator node of *statement*, in pre-order."""
    names: Dict[OpNode, str] = {}
    stack: List[Tuple[ExprNode, str]] = [(statement.rhs, "")]
    while stack:
        node, suffix = stack.pop()
        if isinstance(node, OpNode):
            names[node] = f"{node.op}@{statement.label}" + (f".{suffix}" if suffix else "")
            prefix = suffix + "_" if suffix else ""
            for position in range(len(node.operands), 0, -1):
                stack.append((node.operands[position - 1], f"{prefix}{position}"))
    return names


def _node_display_name(node: ExprNode, names: Dict[OpNode, str]) -> str:
    if isinstance(node, OpNode):
        return names[node]
    if isinstance(node, ReadNode):
        return node.array
    if isinstance(node, ConstNode):
        return str(node.value)
    raise TypeError(f"unexpected node type {type(node).__name__}")
