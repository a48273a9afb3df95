"""Lexer tests."""

import pytest

from repro.common.errors import LexError, ParseError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse


def kinds(src):
    return [t.kind for t in tokenize(src)]


def values(src):
    return [t.value for t in tokenize(src)][:-1]  # drop eof


class TestBasics:
    def test_empty_source_is_just_eof(self):
        assert kinds("") == ["eof"]

    def test_numbers(self):
        assert values("1 23 4.5 0.25 1e3 2.5e-2") == [1, 23, 4.5, 0.25, 1000.0, 0.025]

    def test_int_vs_float_types(self):
        one, pi = values("1 3.14")
        assert isinstance(one, int)
        assert isinstance(pi, float)

    def test_names_and_keywords(self):
        toks = tokenize("for foo to bar downto next while")
        assert [t.kind for t in toks][:-1] == [
            "for", "name", "to", "name", "downto", "next", "while",
        ]

    def test_booleans_are_num_tokens(self):
        toks = tokenize("true false")
        assert toks[0].kind == "num" and toks[0].value is True
        assert toks[1].kind == "num" and toks[1].value is False

    def test_underscore_names(self):
        assert tokenize("velocity_position _x x_1")[0].value == "velocity_position"

    def test_symbols_longest_match(self):
        assert kinds("<= < >= > == != =")[:-1] == [
            "<=", "<", ">=", ">", "==", "!=", "=",
        ]

    def test_all_arithmetic_symbols(self):
        assert kinds("+ - * / % ^")[:-1] == ["+", "-", "*", "/", "%", "^"]

    def test_brackets(self):
        assert kinds("( ) { } [ ] , ;")[:-1] == [
            "(", ")", "{", "}", "[", "]", ",", ";",
        ]


class TestCommentsAndLayout:
    def test_hash_comment(self):
        assert kinds("x # the rest is ignored\ny") == ["name", "name", "eof"]

    def test_double_slash_comment(self):
        assert kinds("x // ignored\ny") == ["name", "name", "eof"]

    def test_locations_track_lines(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1
        assert toks[1].loc.line == 2
        assert toks[1].loc.column == 3

    def test_division_not_comment(self):
        assert kinds("a / b") == ["name", "/", "name", "eof"]


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")

    def test_error_location(self):
        with pytest.raises(LexError) as exc:
            tokenize("ab\n  @")
        assert exc.value.location.line == 2


class TestLexicalEdgeCases:
    """The rules ``docs/language.md`` ("Lexical rules") documents."""

    def test_fraction_may_be_empty_before_exponent(self):
        [value] = values("1.e5")
        assert value == 100000.0 and isinstance(value, float)

    def test_leading_dot_number(self):
        assert values(".5") == [0.5]

    def test_exponent_needs_digits(self):
        toks = tokenize("1e")
        assert [(t.kind, t.value) for t in toks][:-1] == [("num", 1), ("name", "e")]
        assert isinstance(toks[0].value, int)

    def test_second_dot_starts_a_new_number(self):
        toks = tokenize("1.2.3")
        assert values("1.2.3") == [1.2, 0.3]
        assert toks[1].loc.column == 4

    def test_double_slash_is_a_comment_single_slash_divides(self):
        assert kinds("a // b") == ["name", "eof"]
        assert kinds("a / b") == ["name", "/", "name", "eof"]

    def test_non_decimal_digit_is_a_malformed_number(self):
        with pytest.raises(LexError) as exc:
            tokenize("x = ²;")
        assert str(exc.value) == "1:5: malformed number '²'"

    def test_unicode_letter_is_a_name(self):
        toks = tokenize("é = 1")
        assert (toks[0].kind, toks[0].value) == ("name", "é")

    def test_nbsp_is_not_whitespace(self):
        with pytest.raises(LexError) as exc:
            tokenize("a\xa0b")
        assert str(exc.value) == "1:2: unexpected character '\\xa0'"

    def test_eof_after_trailing_comment_sits_at_comment_start(self):
        toks = tokenize("x # note")
        assert toks[-1].kind == "eof"
        assert (toks[-1].loc.line, toks[-1].loc.column) == (1, 3)
        with pytest.raises(ParseError) as exc:
            parse("function main() { return 1; # no closing brace")
        assert str(exc.value) == "1:29: unterminated block"


class TestRealPrograms:
    def test_paper_example_tokenizes(self):
        src = """
        function main(n) {
            A = matrix(50, 10);
            for i = 1 to 50 {
                for j = 1 to 10 {
                    A[i, j] = f(i, j);
                }
            }
            return A;
        }
        """
        toks = tokenize(src)
        assert toks[-1].kind == "eof"
        assert sum(1 for t in toks if t.kind == "for") == 2
