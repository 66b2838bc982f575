"""Abstract syntax tree for the allowed program class.

The program class follows Section 3.1 of the paper: C functions over integer
arrays in dynamic single-assignment form, with static affine control flow
(``for`` loops with affine bounds and steps, ``if`` conditions on iterators
only), affine (piece-wise affine) index expressions, and explicit indexing
(no pointer arithmetic).

The AST is deliberately small and regular so that the geometric analyses
(:mod:`repro.analysis`) and the transformation engine (:mod:`repro.transforms`)
can pattern-match on it easily.  All nodes are plain dataclass-like objects
with value equality, a ``children()`` method for generic traversals, and a
``clone()`` method producing an independent copy (transformations never
mutate shared nodes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #
class Expr:
    """Base class of all expression nodes."""

    __slots__ = ()

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def clone(self) -> "Expr":
        raise NotImplementedError

    def __repr__(self) -> str:
        from .printer import expr_to_text

        return f"{type(self).__name__}({expr_to_text(self)!r})"


class IntConst(Expr):
    """An integer literal."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = int(value)

    def clone(self) -> "IntConst":
        return IntConst(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntConst) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("IntConst", self.value))


class VarRef(Expr):
    """A reference to a scalar variable (in practice: a loop iterator)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def clone(self) -> "VarRef":
        return VarRef(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarRef) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("VarRef", self.name))


class ArrayRef(Expr):
    """A subscripted array access ``name[e0][e1]...``."""

    __slots__ = ("name", "indices")

    def __init__(self, name: str, indices: Sequence[Expr]):
        self.name = name
        self.indices: Tuple[Expr, ...] = tuple(indices)

    def children(self) -> Tuple[Expr, ...]:
        return self.indices

    def clone(self) -> "ArrayRef":
        return ArrayRef(self.name, [index.clone() for index in self.indices])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayRef)
            and self.name == other.name
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash(("ArrayRef", self.name, self.indices))


class BinOp(Expr):
    """A binary operation on data values (``+``, ``-``, ``*``, ``/``, ...)."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def children(self) -> Tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def clone(self) -> "BinOp":
        return BinOp(self.op, self.lhs.clone(), self.rhs.clone())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinOp)
            and self.op == other.op
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash(("BinOp", self.op, self.lhs, self.rhs))


class UnaryOp(Expr):
    """A unary operation (only ``-`` in practice)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def clone(self) -> "UnaryOp":
        return UnaryOp(self.op, self.operand.clone())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnaryOp) and self.op == other.op and self.operand == other.operand

    def __hash__(self) -> int:
        return hash(("UnaryOp", self.op, self.operand))


class Call(Expr):
    """A call of a (possibly uninterpreted) function, e.g. ``f(A[i], 3)``."""

    __slots__ = ("func", "args")

    def __init__(self, func: str, args: Sequence[Expr]):
        self.func = func
        self.args: Tuple[Expr, ...] = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def clone(self) -> "Call":
        return Call(self.func, [arg.clone() for arg in self.args])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Call) and self.func == other.func and self.args == other.args

    def __hash__(self) -> int:
        return hash(("Call", self.func, self.args))


# --------------------------------------------------------------------------- #
# Conditions (affine guards of if statements)
# --------------------------------------------------------------------------- #
class Condition:
    """Base class of affine conditions used in ``if`` statements."""

    __slots__ = ()

    def clone(self) -> "Condition":
        raise NotImplementedError


class Comparison(Condition):
    """An affine comparison ``lhs op rhs`` with op in ``< <= > >= == !=``."""

    __slots__ = ("op", "lhs", "rhs")

    VALID_OPS = ("<", "<=", ">", ">=", "==", "!=")

    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        if op not in self.VALID_OPS:
            raise ValueError(f"invalid comparison operator {op!r}")
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def clone(self) -> "Comparison":
        return Comparison(self.op, self.lhs.clone(), self.rhs.clone())

    def negated(self) -> "Comparison":
        """The logical negation of the comparison."""
        opposites = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
        return Comparison(opposites[self.op], self.lhs.clone(), self.rhs.clone())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and self.op == other.op
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash(("Comparison", self.op, self.lhs, self.rhs))

    def __repr__(self) -> str:
        from .printer import condition_to_text

        return f"Comparison({condition_to_text(self)!r})"


class And(Condition):
    """A conjunction of comparisons (``a && b && ...``)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Condition]):
        self.parts: Tuple[Condition, ...] = tuple(parts)

    def clone(self) -> "And":
        return And([part.clone() for part in self.parts])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("And", self.parts))

    def __repr__(self) -> str:
        from .printer import condition_to_text

        return f"And({condition_to_text(self)!r})"


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
class Statement:
    """Base class of statement nodes."""

    __slots__ = ("line",)

    def __init__(self, line: Optional[int] = None):
        self.line = line

    def clone(self) -> "Statement":
        raise NotImplementedError

    def body_statements(self) -> Tuple["Statement", ...]:
        return ()


class Assignment(Statement):
    """A labelled single assignment to an array element."""

    __slots__ = ("label", "target", "rhs")

    def __init__(self, label: Optional[str], target: ArrayRef, rhs: Expr, line: Optional[int] = None):
        super().__init__(line)
        self.label = label
        self.target = target
        self.rhs = rhs

    def clone(self) -> "Assignment":
        return Assignment(self.label, self.target.clone(), self.rhs.clone(), self.line)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Assignment)
            and self.label == other.label
            and self.target == other.target
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash(("Assignment", self.label, self.target, self.rhs))

    def __repr__(self) -> str:
        from .printer import statement_to_text

        return f"Assignment({statement_to_text(self).strip()!r})"


class ForLoop(Statement):
    """A counted loop ``for (var = init; var <op> bound; var += step)``.

    ``cond_op`` is one of ``<``, ``<=``, ``>``, ``>=``; ``step`` is a non-zero
    integer constant.  ``init`` and ``bound`` must be affine in the enclosing
    iterators and program constants.
    """

    __slots__ = ("var", "init", "cond_op", "bound", "step", "body")

    def __init__(
        self,
        var: str,
        init: Expr,
        cond_op: str,
        bound: Expr,
        step: int,
        body: Sequence[Statement],
        line: Optional[int] = None,
    ):
        super().__init__(line)
        if cond_op not in ("<", "<=", ">", ">="):
            raise ValueError(f"invalid loop condition operator {cond_op!r}")
        if step == 0:
            raise ValueError("loop step must be non-zero")
        self.var = var
        self.init = init
        self.cond_op = cond_op
        self.bound = bound
        self.step = int(step)
        self.body: List[Statement] = list(body)

    def clone(self) -> "ForLoop":
        return ForLoop(
            self.var,
            self.init.clone(),
            self.cond_op,
            self.bound.clone(),
            self.step,
            [statement.clone() for statement in self.body],
            self.line,
        )

    def body_statements(self) -> Tuple[Statement, ...]:
        return tuple(self.body)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ForLoop)
            and self.var == other.var
            and self.init == other.init
            and self.cond_op == other.cond_op
            and self.bound == other.bound
            and self.step == other.step
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return hash(("ForLoop", self.var, self.init, self.cond_op, self.bound, self.step, tuple(self.body)))

    def __repr__(self) -> str:
        return f"ForLoop(var={self.var!r}, step={self.step}, body={len(self.body)} stmt(s))"


class IfThenElse(Statement):
    """A two-armed conditional guarded by an affine condition on iterators."""

    __slots__ = ("condition", "then_body", "else_body")

    def __init__(
        self,
        condition: Condition,
        then_body: Sequence[Statement],
        else_body: Sequence[Statement] = (),
        line: Optional[int] = None,
    ):
        super().__init__(line)
        self.condition = condition
        self.then_body: List[Statement] = list(then_body)
        self.else_body: List[Statement] = list(else_body)

    def clone(self) -> "IfThenElse":
        return IfThenElse(
            self.condition.clone(),
            [statement.clone() for statement in self.then_body],
            [statement.clone() for statement in self.else_body],
            self.line,
        )

    def body_statements(self) -> Tuple[Statement, ...]:
        return tuple(self.then_body) + tuple(self.else_body)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IfThenElse)
            and self.condition == other.condition
            and self.then_body == other.then_body
            and self.else_body == other.else_body
        )

    def __hash__(self) -> int:
        return hash(("IfThenElse", self.condition, tuple(self.then_body), tuple(self.else_body)))

    def __repr__(self) -> str:
        return (
            f"IfThenElse(condition={self.condition!r}, then={len(self.then_body)} stmt(s), "
            f"else={len(self.else_body)} stmt(s))"
        )


# --------------------------------------------------------------------------- #
# Declarations and programs
# --------------------------------------------------------------------------- #
class ArrayDecl:
    """Declaration of an integer array (or scalar when ``dims`` is empty)."""

    __slots__ = ("name", "dims")

    def __init__(self, name: str, dims: Sequence[int] = ()):
        self.name = name
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)

    @property
    def is_scalar(self) -> bool:
        return not self.dims

    def clone(self) -> "ArrayDecl":
        return ArrayDecl(self.name, self.dims)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrayDecl) and self.name == other.name and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(("ArrayDecl", self.name, self.dims))

    def __repr__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.dims)
        return f"ArrayDecl(int {self.name}{dims})"


class Program:
    """A single C function in the allowed program class.

    Parameters
    ----------
    name:
        The function name.
    params:
        Declarations of the formal array parameters, in order.  Which of them
        are inputs and which are outputs is determined by usage (see
        :meth:`input_arrays` / :meth:`output_arrays`).
    locals_:
        Declarations of local arrays and scalars.
    body:
        The statement list of the function body.
    defines:
        Symbolic constants (``#define``) recorded for pretty-printing.
    """

    __slots__ = ("name", "params", "locals", "body", "defines")

    def __init__(
        self,
        name: str,
        params: Sequence[ArrayDecl],
        locals_: Sequence[ArrayDecl],
        body: Sequence[Statement],
        defines: Optional[Dict[str, int]] = None,
    ):
        self.name = name
        self.params: List[ArrayDecl] = list(params)
        self.locals: List[ArrayDecl] = list(locals_)
        self.body: List[Statement] = list(body)
        self.defines: Dict[str, int] = dict(defines or {})

    # ------------------------------------------------------------------ #
    def clone(self) -> "Program":
        return Program(
            self.name,
            [decl.clone() for decl in self.params],
            [decl.clone() for decl in self.locals],
            [statement.clone() for statement in self.body],
            dict(self.defines),
        )

    def declarations(self) -> Dict[str, ArrayDecl]:
        """All declarations (parameters and locals) by name."""
        return {decl.name: decl for decl in list(self.params) + list(self.locals)}

    def param_names(self) -> Tuple[str, ...]:
        return tuple(decl.name for decl in self.params)

    # ------------------------------------------------------------------ #
    # Array role classification (inputs / outputs / intermediates)
    # ------------------------------------------------------------------ #
    def written_arrays(self) -> Tuple[str, ...]:
        names: List[str] = []
        for assignment in self.assignments():
            if assignment.target.name not in names:
                names.append(assignment.target.name)
        return tuple(names)

    def input_arrays(self) -> Tuple[str, ...]:
        """Parameters that are read but never written (the function inputs)."""
        written = set(self.written_arrays())
        return tuple(name for name in self.param_names() if name not in written)

    def output_arrays(self) -> Tuple[str, ...]:
        """Parameters that are written (the function outputs)."""
        written = set(self.written_arrays())
        return tuple(name for name in self.param_names() if name in written)

    def intermediate_arrays(self) -> Tuple[str, ...]:
        """Local arrays holding intermediate values."""
        return tuple(decl.name for decl in self.locals if not decl.is_scalar)

    # ------------------------------------------------------------------ #
    # Traversal helpers
    # ------------------------------------------------------------------ #
    def assignments(self) -> List[Assignment]:
        """All assignment statements, in textual order."""
        result: List[Assignment] = []

        def visit(statements: Iterable[Statement]) -> None:
            for statement in statements:
                if isinstance(statement, Assignment):
                    result.append(statement)
                else:
                    visit(statement.body_statements())

        visit(self.body)
        return result

    def assignment_by_label(self, label: str) -> Assignment:
        for assignment in self.assignments():
            if assignment.label == label:
                return assignment
        raise KeyError(f"no assignment labelled {label!r}")

    def statements(self) -> List[Statement]:
        """All statements (of every kind), pre-order."""
        result: List[Statement] = []

        def visit(statements: Iterable[Statement]) -> None:
            for statement in statements:
                result.append(statement)
                visit(statement.body_statements())

        visit(self.body)
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Program)
            and self.name == other.name
            and self.params == other.params
            and self.locals == other.locals
            and self.body == other.body
        )

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, params={[d.name for d in self.params]}, "
            f"locals={[d.name for d in self.locals]}, {len(self.assignments())} assignment(s))"
        )


# --------------------------------------------------------------------------- #
# Generic expression utilities
# --------------------------------------------------------------------------- #
def walk_expr(expr: Expr) -> Iterable[Expr]:
    """Pre-order traversal of an expression tree (an explicit stack, so any depth)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def array_reads(expr: Expr) -> List[ArrayRef]:
    """All array references appearing in *expr*, left to right."""
    return [node for node in walk_expr(expr) if isinstance(node, ArrayRef)]


def map_expr(expr: Expr, transform) -> Expr:
    """Rebuild an expression bottom-up, applying *transform* to every node.

    ``transform`` receives a node whose children have already been rebuilt and
    must return a node (possibly the same one).
    """
    if isinstance(expr, ArrayRef):
        rebuilt: Expr = ArrayRef(expr.name, [map_expr(index, transform) for index in expr.indices])
    elif isinstance(expr, BinOp):
        rebuilt = BinOp(expr.op, map_expr(expr.lhs, transform), map_expr(expr.rhs, transform))
    elif isinstance(expr, UnaryOp):
        rebuilt = UnaryOp(expr.op, map_expr(expr.operand, transform))
    elif isinstance(expr, Call):
        rebuilt = Call(expr.func, [map_expr(arg, transform) for arg in expr.args])
    else:
        rebuilt = expr.clone()
    return transform(rebuilt)


def substitute_vars(expr: Expr, bindings: Dict[str, Expr]) -> Expr:
    """Substitute scalar variable references by expressions."""

    def transform(node: Expr) -> Expr:
        if isinstance(node, VarRef) and node.name in bindings:
            return bindings[node.name].clone()
        return node

    return map_expr(expr, transform)
