"""Recursive-descent parser for the mini-C input language.

The accepted language is the program class of Section 3.1 of the paper:
functions over ``int`` arrays, ``#define`` constants, ``for`` loops with
affine bounds and constant steps, ``if``/``else`` with affine conditions,
and labelled single assignments to array elements.  The Fig. 1 programs of
the paper parse verbatim.

The entry point is :func:`parse_program`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .ast import (
    And,
    ArrayDecl,
    ArrayRef,
    Assignment,
    BinOp,
    Call,
    Comparison,
    Condition,
    Expr,
    ForLoop,
    IfThenElse,
    IntConst,
    Program,
    Statement,
    UnaryOp,
    VarRef,
)
from .errors import ParseSyntaxError
from .lexer import Token, TokenStream, tokenize

__all__ = ["parse_program"]


class _ProgramParser:
    def __init__(self, source: str):
        self.stream = TokenStream(tokenize(source))
        self.defines: Dict[str, int] = {}
        self.declared: Dict[str, ArrayDecl] = {}

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def parse(self) -> Program:
        self._parse_defines()
        program = self._parse_function()
        if not self.stream.at_end():
            token = self.stream.peek()
            raise ParseSyntaxError(f"line {token.line}: trailing input after function body")
        return program

    def _parse_defines(self) -> None:
        while self.stream.peek() is not None and self.stream.peek().text == "#":
            self.stream.expect("#")
            keyword = self.stream.next()
            if keyword.text != "define":
                raise ParseSyntaxError(f"line {keyword.line}: only #define directives are supported")
            name = self.stream.expect_kind("ident").text
            value = self._parse_constant_expression()
            self.defines[name] = value

    def _parse_constant_expression(self) -> int:
        expr = self._parse_expression()
        value = _evaluate_constant(expr)
        if value is None:
            raise ParseSyntaxError("#define value must be a constant expression")
        return value

    # ------------------------------------------------------------------ #
    # Function, parameters, declarations
    # ------------------------------------------------------------------ #
    def _parse_function(self) -> Program:
        # Optional return type.
        token = self.stream.peek()
        if token is not None and token.text in ("void", "int"):
            self.stream.next()
        name = self.stream.expect_kind("ident").text
        self.stream.expect("(")
        params: List[ArrayDecl] = []
        if not self.stream.accept(")"):
            while True:
                params.append(self._parse_parameter())
                if self.stream.accept(")"):
                    break
                self.stream.expect(",")
        self.stream.expect("{")
        locals_: List[ArrayDecl] = []
        for decl in params:
            self.declared[decl.name] = decl
        while self.stream.peek() is not None and self.stream.peek().text == "int":
            locals_.extend(self._parse_local_declaration())
        body = self._parse_statement_list()
        self.stream.expect("}")
        return Program(name, params, locals_, body, self.defines)

    def _parse_parameter(self) -> ArrayDecl:
        self.stream.expect("int")
        name = self.stream.expect_kind("ident").text
        dims: List[int] = []
        while self.stream.accept("["):
            if self.stream.accept("]"):
                dims.append(0)  # unsized leading dimension, e.g. int A[]
                continue
            size = _evaluate_constant(self._substitute_defines(self._parse_expression()))
            if size is None:
                raise ParseSyntaxError(f"array parameter {name!r} has a non-constant dimension")
            dims.append(size)
            self.stream.expect("]")
        return ArrayDecl(name, dims)

    def _parse_local_declaration(self) -> List[ArrayDecl]:
        self.stream.expect("int")
        declarations: List[ArrayDecl] = []
        while True:
            name = self.stream.expect_kind("ident").text
            dims: List[int] = []
            while self.stream.accept("["):
                size = _evaluate_constant(self._substitute_defines(self._parse_expression()))
                if size is None:
                    raise ParseSyntaxError(f"array {name!r} has a non-constant dimension")
                dims.append(size)
                self.stream.expect("]")
            declaration = ArrayDecl(name, dims)
            declarations.append(declaration)
            self.declared[name] = declaration
            if self.stream.accept(","):
                continue
            self.stream.expect(";")
            break
        return declarations

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #
    def _parse_statement_list(self) -> List[Statement]:
        statements: List[Statement] = []
        while True:
            token = self.stream.peek()
            if token is None or token.text == "}":
                return statements
            statements.append(self._parse_statement())

    def _parse_statement(self) -> Statement:
        token = self.stream.peek()
        if token is None:
            raise ParseSyntaxError("unexpected end of input in statement")

        if token.text == "{":
            self.stream.expect("{")
            inner = self._parse_statement_list()
            self.stream.expect("}")
            if len(inner) == 1:
                return inner[0]
            # A bare block is flattened into its parent by callers that accept
            # statement lists; represent it as an if(true)-like wrapper is not
            # needed because blocks only appear as loop / if bodies.
            raise ParseSyntaxError(
                f"line {token.line}: a brace-enclosed block may only appear as a loop or if body"
            )

        if token.text == "for":
            return self._parse_for()

        if token.text == "if":
            return self._parse_if()

        # Labelled statement:  label ':' statement
        next_token = self.stream.peek(1)
        if token.kind == "ident" and next_token is not None and next_token.text == ":":
            label = self.stream.next().text
            self.stream.expect(":")
            statement = self._parse_statement()
            if isinstance(statement, Assignment):
                statement.label = statement.label or label
                return Assignment(label, statement.target, statement.rhs, token.line)
            raise ParseSyntaxError(f"line {token.line}: only assignments may carry a label")

        return self._parse_assignment()

    def _parse_body(self) -> List[Statement]:
        """A loop or if body: either a braced statement list or a single statement."""
        if self.stream.accept("{"):
            inner = self._parse_statement_list()
            self.stream.expect("}")
            return inner
        return [self._parse_statement()]

    def _parse_for(self) -> ForLoop:
        start = self.stream.expect("for")
        self.stream.expect("(")
        # init:  var = expr   (an optional 'int' is tolerated)
        self.stream.accept("int")
        var = self.stream.expect_kind("ident").text
        self.stream.expect("=")
        init = self._substitute_defines(self._parse_expression())
        self.stream.expect(";")
        # condition:  var <op> expr
        cond_var = self.stream.expect_kind("ident").text
        if cond_var != var:
            raise ParseSyntaxError(
                f"line {start.line}: loop condition must test the loop variable {var!r}"
            )
        op_token = self.stream.next()
        if op_token.text not in ("<", "<=", ">", ">="):
            raise ParseSyntaxError(f"line {op_token.line}: unsupported loop condition {op_token.text!r}")
        bound = self._substitute_defines(self._parse_expression())
        self.stream.expect(";")
        # increment
        step = self._parse_increment(var, start.line)
        self.stream.expect(")")
        body = self._parse_body()
        return ForLoop(var, init, op_token.text, bound, step, body, start.line)

    def _parse_increment(self, var: str, line: int) -> int:
        name = self.stream.expect_kind("ident").text
        if name != var:
            raise ParseSyntaxError(f"line {line}: loop increment must update the loop variable {var!r}")
        token = self.stream.next()
        if token.text == "++":
            return 1
        if token.text == "--":
            return -1
        if token.text in ("+=", "-="):
            value = _evaluate_constant(self._substitute_defines(self._parse_expression()))
            if value is None:
                raise ParseSyntaxError(f"line {line}: loop step must be a constant")
            return value if token.text == "+=" else -value
        if token.text == "=":
            # var = var + c   or   var = var - c
            source = self.stream.expect_kind("ident").text
            if source != var:
                raise ParseSyntaxError(f"line {line}: loop increment must be var = var +/- constant")
            sign_token = self.stream.next()
            if sign_token.text not in ("+", "-"):
                raise ParseSyntaxError(f"line {line}: loop increment must be var = var +/- constant")
            value = _evaluate_constant(self._substitute_defines(self._parse_expression()))
            if value is None:
                raise ParseSyntaxError(f"line {line}: loop step must be a constant")
            return value if sign_token.text == "+" else -value
        raise ParseSyntaxError(f"line {line}: unsupported loop increment")

    def _parse_if(self) -> IfThenElse:
        start = self.stream.expect("if")
        self.stream.expect("(")
        condition = self._parse_condition()
        self.stream.expect(")")
        then_body = self._parse_body()
        else_body: List[Statement] = []
        if self.stream.accept("else"):
            else_body = self._parse_body()
        return IfThenElse(condition, then_body, else_body, start.line)

    def _parse_condition(self) -> Condition:
        comparisons: List[Condition] = [self._parse_comparison()]
        while self.stream.accept("&&"):
            comparisons.append(self._parse_comparison())
        if len(comparisons) == 1:
            return comparisons[0]
        return And(comparisons)

    def _parse_comparison(self) -> Comparison:
        lhs = self._substitute_defines(self._parse_expression())
        token = self.stream.next()
        if token.text not in Comparison.VALID_OPS:
            raise ParseSyntaxError(f"line {token.line}: expected a comparison operator, found {token.text!r}")
        rhs = self._substitute_defines(self._parse_expression())
        return Comparison(token.text, lhs, rhs)

    def _parse_assignment(self) -> Assignment:
        token = self.stream.peek()
        target = self._parse_primary()
        if not isinstance(target, ArrayRef):
            raise ParseSyntaxError(
                f"line {token.line}: assignment targets must be array elements (explicit indexing)"
            )
        self.stream.expect("=")
        rhs = self._substitute_defines(self._parse_expression())
        self.stream.expect(";")
        target = _substitute_defines_expr(target, self.defines)
        return Assignment(None, target, rhs, token.line)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _parse_expression(self) -> Expr:
        expr = self._parse_multiplicative()
        while True:
            if self.stream.accept("+"):
                expr = BinOp("+", expr, self._parse_multiplicative())
            elif self.stream.accept("-"):
                expr = BinOp("-", expr, self._parse_multiplicative())
            else:
                return expr

    def _parse_multiplicative(self) -> Expr:
        expr = self._parse_unary()
        while True:
            if self.stream.accept("*"):
                expr = BinOp("*", expr, self._parse_unary())
            elif self.stream.accept("/"):
                expr = BinOp("/", expr, self._parse_unary())
            elif self.stream.accept("%"):
                expr = BinOp("%", expr, self._parse_unary())
            else:
                return expr

    def _parse_unary(self) -> Expr:
        if self.stream.accept("-"):
            return UnaryOp("-", self._parse_unary())
        if self.stream.accept("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.stream.next()
        if token.kind == "number":
            return IntConst(int(token.text))
        if token.text == "(":
            expr = self._parse_expression()
            self.stream.expect(")")
            return expr
        if token.kind == "ident":
            name = token.text
            nxt = self.stream.peek()
            if nxt is not None and nxt.text == "(":
                self.stream.expect("(")
                args: List[Expr] = []
                if not self.stream.accept(")"):
                    while True:
                        args.append(self._parse_expression())
                        if self.stream.accept(")"):
                            break
                        self.stream.expect(",")
                return Call(name, args)
            indices: List[Expr] = []
            while self.stream.peek() is not None and self.stream.peek().text == "[":
                self.stream.expect("[")
                indices.append(self._parse_expression())
                self.stream.expect("]")
            if indices:
                return ArrayRef(name, indices)
            if name in self.defines:
                return IntConst(self.defines[name])
            return VarRef(name)
        raise ParseSyntaxError(f"line {token.line}: unexpected token {token.text!r} in expression")

    def _substitute_defines(self, expr: Expr) -> Expr:
        return _substitute_defines_expr(expr, self.defines)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _substitute_defines_expr(expr: Expr, defines: Dict[str, int]) -> Expr:
    from .ast import map_expr

    def transform(node: Expr) -> Expr:
        if isinstance(node, VarRef) and node.name in defines:
            return IntConst(defines[node.name])
        # Fold constant sub-expressions (e.g. "N/2", "2*N-2") so that loop
        # bounds and index expressions written in terms of #define constants
        # remain affine after substitution.
        if isinstance(node, (BinOp, UnaryOp)):
            folded = _evaluate_constant(node)
            if folded is not None:
                return IntConst(folded)
        return node

    return map_expr(expr, transform)


def _evaluate_constant(expr: Expr) -> Optional[int]:
    """Evaluate a constant expression, returning ``None`` if it is not constant."""
    if isinstance(expr, IntConst):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.op == "-":
        value = _evaluate_constant(expr.operand)
        return None if value is None else -value
    if isinstance(expr, BinOp):
        lhs = _evaluate_constant(expr.lhs)
        rhs = _evaluate_constant(expr.rhs)
        if lhs is None or rhs is None:
            return None
        if expr.op == "+":
            return lhs + rhs
        if expr.op == "-":
            return lhs - rhs
        if expr.op == "*":
            return lhs * rhs
        if expr.op == "/":
            if rhs == 0:
                return None
            return lhs // rhs
        if expr.op == "%":
            if rhs == 0:
                return None
            return lhs % rhs
    return None


def parse_program(source: str) -> Program:
    """Parse a mini-C function definition into a :class:`~repro.lang.ast.Program`.

    The parser is recursive descent, so nesting deep enough to exhaust the
    interpreter's recursion limit is reported as a :class:`ParseSyntaxError`.
    """
    from ..telemetry import TRACER

    try:
        if not TRACER.enabled:
            return _ProgramParser(source).parse()
        with TRACER.span("frontend.parse_program", "frontend", chars=len(source)):
            with TRACER.span("frontend.lex", "frontend"):
                parser = _ProgramParser(source)
            with TRACER.span("frontend.parse", "frontend"):
                return parser.parse()
    except RecursionError:
        raise ParseSyntaxError("expression nesting too deep") from None
