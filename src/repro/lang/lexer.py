"""Tokenizer for the mini-C input language.

Handles the subset of C used by the allowed program class: ``#define``
constants, function definitions over ``int`` arrays, ``for`` loops, ``if`` /
``else``, labelled assignment statements, and arithmetic expressions.  Both
``//`` line comments and ``/* */`` block comments are accepted.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

from .errors import LexError


class Token(NamedTuple):
    kind: str  # "ident", "number", "punct", "keyword", "directive"
    text: str
    line: int
    column: int


KEYWORDS = {"int", "void", "for", "if", "else", "return", "define"}

_PUNCTUATION = (
    "<<=", ">>=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "==", "!=", "<=", ">=",
    "{", "}", "(", ")", "[", "]", ";", ",", ":", "=", "<", ">", "+", "-", "*", "/", "%", "!", "#", "?",
)


# One alternation, tried left to right at each position: a terminated block
# comment before an unterminated one, and both before "/" as punctuation;
# punctuation longest first (``_PUNCTUATION`` is ordered that way).  Numbers
# are ASCII digits only, identifiers start like ``str.isalpha`` (or "_") and
# continue like ``str.isalnum`` (or "_"), which is what ``\w`` matches.
_TOKEN_PATTERN = re.compile(
    r"(?P<skip>\s+|//[^\n]*|/\*.*?\*/)"
    r"|(?P<unterminated>/\*)"
    r"|(?P<number>[0-9]+)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCTUATION)) + ")"
    r"|(?P<other>.)",
    re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, returning a list of tokens (without whitespace/comments)."""
    tokens: List[Token] = []
    line = 1
    line_start = 0  # index of the first character of the current line

    for match in _TOKEN_PATTERN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + text.rindex("\n") + 1
            continue
        if kind == "ident":
            if text in KEYWORDS:
                kind = "keyword"
            elif not (text[0].isalpha() or text[0] == "_"):
                # "²" is a word character that is neither a letter nor [0-9].
                kind, text = "other", text[0]
        if kind == "other":
            raise LexError(f"line {line}: unexpected character {text!r}")
        if kind == "unterminated":
            raise LexError(f"line {line}: unterminated block comment")
        tokens.append(Token(kind, text, line, match.start() - line_start + 1))

    return tokens


class TokenStream:
    """A cursor over a token list with convenient expect/accept helpers."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.index = 0

    def peek(self, offset: int = 0) -> Optional[Token]:
        position = self.index + offset
        if position < len(self.tokens):
            return self.tokens[position]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise LexError("unexpected end of input")
        self.index += 1
        return token

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    def accept(self, text: str) -> Optional[Token]:
        token = self.peek()
        if token is not None and token.text == text:
            self.index += 1
            return token
        return None

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token is None:
            raise LexError(f"expected {text!r}, found end of input")
        if token.text != text:
            raise LexError(f"line {token.line}: expected {text!r}, found {token.text!r}")
        self.index += 1
        return token

    def expect_kind(self, kind: str) -> Token:
        token = self.peek()
        if token is None:
            raise LexError(f"expected {kind}, found end of input")
        if token.kind != kind:
            raise LexError(f"line {token.line}: expected {kind}, found {token.text!r}")
        self.index += 1
        return token
