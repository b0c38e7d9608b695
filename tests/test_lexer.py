"""Unit tests for the MATLAB lexer."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.suite import BENCHMARK_NAMES, load_sources
from repro.frontend.lexer import TokenKind, tokenize
from repro.frontend.source import MatlabSyntaxError

#: token streams recorded from the per-character scanner this lexer
#: replaced: per suite file a count and a SHA-256, per edge case the
#: whole stream
PIN = json.loads(
    (Path(__file__).parent / "fixtures" / "lexer_pin.json").read_text()
)


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_identifiers_and_numbers(self):
        toks = tokenize("x = 42")
        assert toks[0].kind is TokenKind.IDENT
        assert toks[0].text == "x"
        assert toks[1].is_op("=")
        assert toks[2].kind is TokenKind.NUMBER
        assert toks[2].text == "42"
        assert toks[3].kind is TokenKind.EOF

    def test_float_forms(self):
        assert texts("1.5") == ["1.5"]
        assert texts(".5") == [".5"]
        assert texts("1e3") == ["1e3"]
        assert texts("1.5e-3") == ["1.5e-3"]
        assert texts("2E+10") == ["2E+10"]

    def test_trailing_dot_number(self):
        assert texts("3.") == ["3."]

    def test_imaginary_literal(self):
        assert texts("3i") == ["3i"]
        assert texts("2.5j") == ["2.5j"]

    def test_keywords_recognized(self):
        toks = tokenize("if x end")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[2].kind is TokenKind.KEYWORD

    def test_keyword_prefix_is_ident(self):
        toks = tokenize("iffy = 1")
        assert toks[0].kind is TokenKind.IDENT


class TestOperators:
    def test_elementwise_operators(self):
        assert texts("a .* b") == ["a", ".*", "b"]
        assert texts("a ./ b") == ["a", "./", "b"]
        assert texts("a .^ b") == ["a", ".^", "b"]

    def test_number_dot_star_not_swallowed(self):
        # `2.*x` must lex as 2 .* x (elementwise), not 2. * x
        assert texts("2.*x") == ["2", ".*", "x"]

    def test_comparison_operators(self):
        assert texts("a ~= b") == ["a", "~=", "b"]
        assert texts("a <= b") == ["a", "<=", "b"]

    def test_short_circuit_ops(self):
        assert texts("a && b || c") == ["a", "&&", "b", "||", "c"]


class TestQuoteDisambiguation:
    def test_transpose_after_ident(self):
        toks = tokenize("a'")
        assert toks[1].is_op("'")

    def test_transpose_after_paren(self):
        toks = tokenize("(a+b)'")
        assert toks[-2].is_op("'")

    def test_string_at_statement_start(self):
        toks = tokenize("s = 'hello'")
        assert toks[2].kind is TokenKind.STRING
        assert toks[2].text == "hello"

    def test_string_after_open_paren(self):
        toks = tokenize("disp('hi')")
        assert toks[2].kind is TokenKind.STRING

    def test_escaped_quote_in_string(self):
        toks = tokenize("s = 'don''t'")
        assert toks[2].text == "don't"

    def test_unterminated_string_raises(self):
        with pytest.raises(MatlabSyntaxError):
            tokenize("s = 'oops")

    def test_transpose_then_string_sequence(self):
        # a' followed by a string on the next statement
        toks = tokenize("b = a'; c = 'str'")
        assert any(t.kind is TokenKind.STRING and t.text == "str" for t in toks)


class TestCommentsAndContinuation:
    def test_comment_to_eol(self):
        toks = tokenize("x = 1 % a comment\ny = 2")
        assert all(t.text != "comment" for t in toks)
        idents = [t.text for t in toks if t.kind is TokenKind.IDENT]
        assert idents == ["x", "y"]

    def test_continuation(self):
        toks = tokenize("x = 1 + ...\n    2")
        assert all(t.kind is not TokenKind.NEWLINE for t in toks)
        assert [t.text for t in toks if t.kind is TokenKind.NUMBER] == [
            "1",
            "2",
        ]

    def test_newlines_collapse(self):
        toks = tokenize("a\n\n\nb")
        newline_count = sum(1 for t in toks if t.kind is TokenKind.NEWLINE)
        assert newline_count == 1


class TestLocations:
    def test_line_and_column_tracking(self):
        toks = tokenize("a = 1\nbb = 2")
        bb = next(t for t in toks if t.text == "bb")
        assert bb.location.line == 2
        assert bb.location.column == 1

    def test_unexpected_char_raises_with_location(self):
        with pytest.raises(MatlabSyntaxError) as exc:
            tokenize("x = $")
        assert "line" not in str(exc.value)  # message carries loc as f:l:c
        assert ":1:5" in str(exc.value)


def stream(text, filename="<source>"):
    return [
        [t.kind.name, t.text, t.location.line, t.location.column]
        for t in tokenize(text, filename)
    ]


class TestPinnedStreams:
    """``(kind, text, line, column)`` of every token is pinned."""

    def test_pin_covers_every_suite_file(self):
        files = {
            f"{bench}/{fname}"
            for bench in BENCHMARK_NAMES
            for fname in load_sources(bench)
        }
        assert files == set(PIN["suite"])

    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_suite_sources(self, bench):
        for fname, text in sorted(load_sources(bench).items()):
            toks = stream(text, fname)
            pinned = PIN["suite"][f"{bench}/{fname}"]
            assert len(toks) == pinned["tokens"], fname
            digest = hashlib.sha256(json.dumps(toks).encode()).hexdigest()
            assert digest == pinned["sha256"], fname

    @pytest.mark.parametrize(
        "case", PIN["edge_cases"], ids=lambda case: repr(case["source"])[:40]
    )
    def test_edge_cases(self, case):
        assert stream(case["source"]) == case["tokens"]

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("x = 'abc", "unterminated string literal", 1, 5),
            ("x = 'ab\ncd'", "unterminated string literal", 1, 5),
            ("y = 1;\n  z = 'q''", "unterminated string literal", 2, 7),
            ("'ab''", "unterminated string literal", 1, 1),
            ("x = $", "unexpected character '$'", 1, 5),
            ("a ? b", "unexpected character '?'", 1, 3),
            ('x = "s"', "unexpected character \'\"\'", 1, 5),
            ("x = ½", "unexpected character '½'", 1, 5),
            # a digit that float() cannot read is no digit: the
            # parser never sees a NUMBER token "2²"
            ("x = 2²", "unexpected character '²'", 1, 6),
        ],
    )
    def test_errors(self, source, message, line, column):
        with pytest.raises(MatlabSyntaxError) as exc:
            tokenize(source)
        assert exc.value.message == message
        assert (exc.value.location.line, exc.value.location.column) == (
            line,
            column,
        )

    def test_column_after_a_rejected_exponent(self):
        # `1e` not followed by digits lexes as 1 then the identifier e.
        # Columns come from the offset of the last newline, so the
        # tokens after it keep their true columns.
        assert stream("x = 1e + 2; y")[2:5] == [
            ["NUMBER", "1", 1, 5],
            ["IDENT", "e", 1, 6],
            ["OP", "+", 1, 8],
        ]
