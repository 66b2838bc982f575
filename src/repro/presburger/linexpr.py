"""Affine (linear + constant) integer expressions over named dimensions.

:class:`LinExpr` is the building block used by client code (the access-map
extractor, the textual parser, the transformation engine) to describe affine
index expressions and constraints symbolically before they are lowered to the
dense coefficient-vector form used inside :class:`~repro.presburger.conjunct.Conjunct`.

All coefficients are Python integers; the class is immutable and hashable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple, Union

from . import opcache as _opcache

Number = int
_ExprLike = Union["LinExpr", int, str]


class LinExpr:
    """An affine expression ``sum(coeff[v] * v) + const`` with integer coefficients.

    Examples
    --------
    >>> k = LinExpr.var("k")
    >>> e = 2 * k - 2
    >>> e.coeff("k"), e.const
    (2, -2)
    >>> str(e)
    '2*k - 2'
    """

    __slots__ = ("_coeffs", "_const", "_hash")

    def __init__(self, coeffs: Mapping[str, int] | None = None, const: int = 0):
        items = {}
        if coeffs:
            for name, value in coeffs.items():
                if not isinstance(value, int):
                    raise TypeError(f"coefficient of {name!r} must be int, got {type(value).__name__}")
                if value != 0:
                    items[name] = value
        if not isinstance(const, int):
            raise TypeError(f"constant must be int, got {type(const).__name__}")
        self._coeffs: Dict[str, int] = items
        self._const = const
        self._hash = hash((tuple(sorted(items.items())), const))

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def var(name: str) -> "LinExpr":
        """Return the expression consisting of the single variable *name*.

        The result is interned (hash-consed): repeated calls with the same
        name return the same object, so the access-map extractor and the
        parser share one instance per dimension name.
        """
        return _opcache.intern_expr(LinExpr({name: 1}, 0))

    @staticmethod
    def constant(value: int) -> "LinExpr":
        """Return a constant expression (interned, like :meth:`var`)."""
        return _opcache.intern_expr(LinExpr({}, value))

    def interned(self) -> "LinExpr":
        """The canonical (hash-consed) instance equal to this expression.

        Interning preserves the ``__eq__`` / ``__hash__`` contracts exactly;
        it only upgrades structural equality to object identity so that later
        comparisons and dict/set membership tests are O(1).
        """
        return _opcache.intern_expr(self)

    @staticmethod
    def coerce(value: _ExprLike) -> "LinExpr":
        """Convert *value* (LinExpr, int or variable name) into a LinExpr."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, int):
            return LinExpr.constant(value)
        if isinstance(value, str):
            return LinExpr.var(value)
        raise TypeError(f"cannot convert {value!r} to LinExpr")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def const(self) -> int:
        """The constant term."""
        return self._const

    def coeff(self, name: str) -> int:
        """The coefficient of variable *name* (0 if absent)."""
        return self._coeffs.get(name, 0)

    def variables(self) -> Tuple[str, ...]:
        """The variable names with non-zero coefficient, sorted."""
        return tuple(sorted(self._coeffs))

    def is_constant(self) -> bool:
        """True when the expression has no variables."""
        return not self._coeffs

    def substitute(self, bindings: Mapping[str, _ExprLike]) -> "LinExpr":
        """Substitute variables by expressions (or integers) and return the result."""
        result = LinExpr.constant(self._const)
        for name, coefficient in self._coeffs.items():
            if name in bindings:
                result = result + coefficient * LinExpr.coerce(bindings[name])
            else:
                result = result + LinExpr({name: coefficient}, 0)
        return result

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        """Evaluate the expression with integer values for all its variables."""
        total = self._const
        for name, coefficient in self._coeffs.items():
            if name not in bindings:
                raise KeyError(f"no value supplied for variable {name!r}")
            total += coefficient * bindings[name]
        return total

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables according to *mapping* (missing names are kept)."""
        return LinExpr({mapping.get(n, n): c for n, c in self._coeffs.items()}, self._const)

    def to_vector(self, order: Iterable[str]) -> Tuple[int, ...]:
        """Dense coefficient vector in the given variable *order*, constant last.

        Raises :class:`KeyError` if the expression mentions a variable that is
        not present in *order*.
        """
        order = list(order)
        known = set(order)
        for name in self._coeffs:
            if name not in known:
                raise KeyError(f"variable {name!r} not present in ordering {order!r}")
        return tuple(self._coeffs.get(name, 0) for name in order) + (self._const,)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: _ExprLike) -> "LinExpr":
        other = LinExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for name, value in other._coeffs.items():
            coeffs[name] = coeffs.get(name, 0) + value
        return LinExpr(coeffs, self._const + other._const)

    def __radd__(self, other: _ExprLike) -> "LinExpr":
        return self.__add__(other)

    def __neg__(self) -> "LinExpr":
        return LinExpr({n: -c for n, c in self._coeffs.items()}, -self._const)

    def __sub__(self, other: _ExprLike) -> "LinExpr":
        return self.__add__(-LinExpr.coerce(other))

    def __rsub__(self, other: _ExprLike) -> "LinExpr":
        return (-self).__add__(other)

    def __mul__(self, factor: int) -> "LinExpr":
        if isinstance(factor, LinExpr):
            if factor.is_constant():
                factor = factor.const
            elif self.is_constant():
                return factor * self._const
            else:
                raise TypeError("cannot multiply two non-constant affine expressions")
        if not isinstance(factor, int):
            raise TypeError(f"can only scale a LinExpr by an int, got {type(factor).__name__}")
        return LinExpr({n: c * factor for n, c in self._coeffs.items()}, self._const * factor)

    def __rmul__(self, factor: int) -> "LinExpr":
        return self.__mul__(factor)

    # ------------------------------------------------------------------ #
    # Comparison / representation
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._const == other._const

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._coeffs) or self._const != 0

    def __str__(self) -> str:
        parts = []
        for name in sorted(self._coeffs):
            coefficient = self._coeffs[name]
            if not parts:
                if coefficient == 1:
                    parts.append(name)
                elif coefficient == -1:
                    parts.append(f"-{name}")
                else:
                    parts.append(f"{coefficient}*{name}")
            else:
                sign = "+" if coefficient > 0 else "-"
                magnitude = abs(coefficient)
                term = name if magnitude == 1 else f"{magnitude}*{name}"
                parts.append(f"{sign} {term}")
        if self._const or not parts:
            if not parts:
                parts.append(str(self._const))
            else:
                sign = "+" if self._const > 0 else "-"
                parts.append(f"{sign} {abs(self._const)}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LinExpr({self._coeffs!r}, {self._const!r})"
