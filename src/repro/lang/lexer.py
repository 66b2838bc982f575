"""Tokenizer for the mini-C input language.

Handles the subset of C used by the allowed program class: ``#define``
constants, function definitions over ``int`` arrays, ``for`` loops, ``if`` /
``else``, labelled assignment statements, and arithmetic expressions.  Both
``//`` line comments and ``/* */`` block comments are accepted.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional

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


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*, returning a list of tokens (without whitespace/comments)."""
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    def error(message: str) -> LexError:
        return LexError(f"line {line}: {message}")

    while index < length:
        char = source[index]

        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char.isspace():
            index += 1
            column += 1
            continue

        # Comments
        if source.startswith("//", index):
            end = source.find("\n", index)
            index = length if end == -1 else end
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise error("unterminated block comment")
            line += source.count("\n", index, end)
            index = end + 2
            continue

        # Numbers
        if char.isdigit():
            start = index
            while index < length and source[index].isdigit():
                index += 1
            text = source[start:index]
            tokens.append(Token("number", text, line, column))
            column += len(text)
            continue

        # Identifiers / keywords
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, column))
            column += len(text)
            continue

        # Punctuation (longest match first)
        for punct in _PUNCTUATION:
            if source.startswith(punct, index):
                tokens.append(Token("punct", punct, line, column))
                index += len(punct)
                column += len(punct)
                break
        else:
            raise error(f"unexpected character {char!r}")

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
