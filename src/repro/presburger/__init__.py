"""Exact integer sets and tuple relations (the OMEGA-calculator substitute).

This package provides the Presburger-arithmetic machinery the equivalence
checker relies on: affine integer sets (:class:`Set`), tuple relations
(:class:`Map`), symbolic affine expressions (:class:`LinExpr`) and
constraints, and a parser for the usual textual notation.

The heavy operations (composition, inversion, intersection, subtraction,
projection, feasibility) are transparently memoized over hash-consed
operands by :mod:`repro.presburger.opcache`; see ``docs/presburger.md`` for
the layering and the off switch (``opcache.disabled()``).

Quick tour
----------

>>> from repro.presburger import parse_map, parse_set
>>> m = parse_map("{ [k] -> [2k] : 0 <= k < 512 }")
>>> n = parse_map("{ [k] -> [2k] : 0 <= k < 1024 }")
>>> m.is_subset(n)
True
>>> m.is_equal(n)
False
>>> str(m.domain())
'{ [k] : k >= 0 and -k + 511 >= 0 }'
"""

from . import opcache
from .conjunct import Conjunct
from .constraints import AffineConstraint, all_of, eq_, ge_, gt_, le_, lt_
from .errors import (
    ParseError,
    PresburgerError,
    SpaceMismatchError,
    UnboundedSetError,
    UnsupportedOperationError,
)
from .linexpr import LinExpr
from .parser import parse_map, parse_set
from .setmap import Map, Set

__all__ = [
    "AffineConstraint",
    "Conjunct",
    "LinExpr",
    "Map",
    "ParseError",
    "PresburgerError",
    "Set",
    "SpaceMismatchError",
    "UnboundedSetError",
    "UnsupportedOperationError",
    "all_of",
    "eq_",
    "ge_",
    "gt_",
    "le_",
    "lt_",
    "opcache",
    "parse_map",
    "parse_set",
]
