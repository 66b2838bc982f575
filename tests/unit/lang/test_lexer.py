"""Unit tests for the mini-C tokenizer."""

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import Token, TokenStream, tokenize


class TestTokenize:
    def test_identifiers_and_numbers(self):
        tokens = tokenize("foo 123 bar42")
        assert [(t.kind, t.text) for t in tokens] == [
            ("ident", "foo"),
            ("number", "123"),
            ("ident", "bar42"),
        ]

    def test_keywords_recognised(self):
        tokens = tokenize("for if else int void")
        assert all(t.kind == "keyword" for t in tokens)

    def test_compound_operators(self):
        tokens = tokenize("k++ ; k-- ; k += 2 ; a <= b ; a == b ; x && y")
        texts = [t.text for t in tokens]
        assert "++" in texts and "--" in texts and "+=" in texts
        assert "<=" in texts and "==" in texts and "&&" in texts

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3

    def test_line_comment_skipped(self):
        tokens = tokenize("a // comment until end\nb")
        assert [t.text for t in tokens] == ["a", "b"]

    def test_block_comment_skipped(self):
        tokens = tokenize("a /* multi\nline */ b")
        assert [t.text for t in tokens] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_error_texts(self):
        with pytest.raises(LexError, match=r"^line 2: unterminated block comment$"):
            tokenize("a\n/* never closed */ b /* again")
        with pytest.raises(LexError, match=r"^line 3: unexpected character '@'$"):
            tokenize("a\n\nb @ c")

    def test_column_after_block_comment(self):
        tokens = tokenize("a /* c */ b")
        assert [(t.text, t.line, t.column) for t in tokens] == [("a", 1, 1), ("b", 1, 11)]

    def test_position_after_multi_line_comment(self):
        tokens = tokenize("a /* x\n yy */ b\n  c")
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("a", 1, 1),
            ("b", 2, 8),
            ("c", 3, 3),
        ]

    def test_line_count_across_multi_line_comments(self):
        tokens = tokenize("/*\n\n*/ a /* \n */ b // x */\nc")
        assert [(t.text, t.line) for t in tokens] == [("a", 3), ("b", 4), ("c", 5)]

    def test_longest_match_punctuation(self):
        tokens = tokenize("a<<=b>=c++-->>=d/=e")
        assert [t.text for t in tokens] == ["a", "<<=", "b", ">=", "c", "++", "--", ">>=", "d", "/=", "e"]
        assert all(t.kind == "punct" for t in tokens[1::2])

    def test_slash_is_punctuation_outside_comments(self):
        assert [t.text for t in tokenize("a / b /c")] == ["a", "/", "b", "/", "c"]

    @pytest.mark.parametrize("text", ["\u00b2", "x + \u00b2", "12\u00b2", "\u0663", "\u00bd"])
    def test_non_ascii_digits_are_unexpected(self, text):
        """Numbers are [0-9]+: "²" is a digit to ``str.isdigit`` but not to ``int``."""
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(text)

    def test_unicode_identifiers(self):
        tokens = tokenize("\u00e9 = a\u00e9_1 + _x\u00b2")
        assert [(t.kind, t.text) for t in tokens] == [
            ("ident", "\u00e9"),
            ("punct", "="),
            ("ident", "a\u00e9_1"),
            ("punct", "+"),
            ("ident", "_x\u00b2"),
        ]

    def test_array_subscript_tokens(self):
        tokens = tokenize("A[2*k-2]")
        assert [t.text for t in tokens] == ["A", "[", "2", "*", "k", "-", "2", "]"]

    def test_preprocessor_define(self):
        tokens = tokenize("#define N 1024")
        assert [t.text for t in tokens] == ["#", "define", "N", "1024"]


class TestTokenStream:
    def make(self, text):
        return TokenStream(tokenize(text))

    def test_peek_and_next(self):
        stream = self.make("a b")
        assert stream.peek().text == "a"
        assert stream.next().text == "a"
        assert stream.next().text == "b"
        assert stream.at_end()

    def test_next_past_end_raises(self):
        stream = self.make("")
        with pytest.raises(LexError):
            stream.next()

    def test_accept(self):
        stream = self.make("a b")
        assert stream.accept("a")
        assert not stream.accept("z")
        assert stream.accept("b")

    def test_expect_success_and_failure(self):
        stream = self.make("( )")
        stream.expect("(")
        with pytest.raises(LexError):
            stream.expect("[")

    def test_expect_kind(self):
        stream = self.make("name 42")
        assert stream.expect_kind("ident").text == "name"
        with pytest.raises(LexError):
            stream.expect_kind("ident")

    def test_peek_offset(self):
        stream = self.make("a b c")
        assert stream.peek(2).text == "c"
        assert stream.peek(5) is None
