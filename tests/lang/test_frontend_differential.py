"""Differential tests: the regex scanner and precedence-climbing parser
against the frozen character-loop / ten-level reference front end
(``oracle_frontend``).

Both sides must give the same token stream (kind, value, value type,
line, column) or the same ``LexError`` text, and the same AST ``repr``
or the same ``ParseError`` text, on generated sources, on every
``repro.apps`` program and on every file under ``examples/``.
"""

import ast
import pkgutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps
from repro.apps.simple_app import simple_source
from repro.common.errors import LanguageError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse, parse_expression
from tests.lang import oracle_frontend as oracle

ROOT = Path(__file__).resolve().parents[2]


def token_view(tokenizer, source):
    try:
        return [(t.kind, t.value, type(t.value), t.loc.line, t.loc.column)
                for t in tokenizer(source)]
    except LanguageError as exc:
        return type(exc).__name__, str(exc)


def tree_view(parser, source):
    try:
        return repr(parser(source))
    except LanguageError as exc:
        return type(exc).__name__, str(exc)


def assert_same_front_end(source):
    assert token_view(tokenize, source) == token_view(oracle.tokenize, source)
    assert tree_view(parse, source) == tree_view(oracle.parse, source)


# -- corpus --------------------------------------------------------------


def app_sources():
    """Every IdLite program string a ``repro.apps`` module defines."""
    out = {"simple": simple_source(), "simple-conduction": simple_source(True)}
    for info in pkgutil.iter_modules(repro.apps.__path__):
        module = __import__(f"repro.apps.{info.name}", fromlist=["_"])
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            values = value.items() if isinstance(value, dict) else [(None, value)]
            for key, text in values:
                if isinstance(text, str) and "function" in text:
                    out[f"{info.name}.{name}" + (f"[{key}]" if key else "")] = text
    for path in Path(repro.apps.__path__[0]).rglob("*.idl"):
        out[path.name] = path.read_text()
    return out


def example_sources():
    """Every file under ``examples/``, plus the string literals of the
    Python ones (where their IdLite programs live)."""
    out = {}
    for path in sorted((ROOT / "examples").rglob("*")):
        if not path.is_file():
            continue
        text = path.read_text()
        rel = str(path.relative_to(ROOT))
        out[rel] = text
        if path.suffix == ".py":
            for k, node in enumerate(ast.walk(ast.parse(text))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    out[f"{rel}#{k}"] = node.value
    return out


APPS = app_sources()
EXAMPLES = example_sources()


def test_corpus_is_not_empty():
    assert len(APPS) >= 10
    assert any(name.endswith(".idl") for name in EXAMPLES)


@pytest.mark.parametrize("name", sorted(APPS))
def test_app_sources_match_oracle(name):
    source = APPS[name]
    assert_same_front_end(source)
    assert not isinstance(tree_view(parse, source), tuple)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_files_match_oracle(name):
    assert_same_front_end(EXAMPLES[name])


# -- generated sources ---------------------------------------------------

# Lexical fragments, with the Unicode cases the scanner decides off its
# fast path: '²' (isdigit, not decimal), '½' (numeric only), 'é' and
# '一' (letters), '٣' (a non-ASCII decimal digit), NBSP and '\f'.
FRAGMENTS = [
    "a", "x1", "_t", "e", "E", "0", "7", "12", ".", "1.", ".5", "1e5",
    "1e", "2E-3", "+", "-", "*", "/", "//", "%", "^", "<", "<=", ">", ">=",
    "=", "==", "!=", "!", "(", ")", "{", "}", "[", "]", ",", ";", "#",
    "# note", " ", "  ", "\t", "\r", "\n", "true", "false", "for", "not",
    "²", "½", "é", "一", "٣", "\xa0", "\f", "@", "$",
]

fragment_text = st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join)

# Expression and statement tokens for the parser: every operator level,
# prefix 'not' and '-', calls, subscripts and conditionals.
EXPR_TOKENS = [
    "a", "b", "1", "2.5", "true", "not", "and", "or", "<", "<=", "==",
    "!=", ">", ">=", "+", "-", "*", "/", "%", "^", "(", ")", "f(", ",",
    "x[", "]", "if", "then", "else",
]
STMT_TOKENS = EXPR_TOKENS + [
    "{", "}", ";", "=", "next", "return", "for", "to", "downto", "while",
    "function", "i",
]

token_soup = st.lists(st.sampled_from(EXPR_TOKENS), min_size=1,
                      max_size=16).map(" ".join)

# Well-formed trees printed without parentheses (except explicit ones),
# so the text re-parses under the precedence rules: chained comparisons,
# 'not' before a comparison and mixed levels all occur.
BINARY_OPS = ["or", "and", "<", "<=", ">", ">=", "==", "!=", "+", "-",
              "*", "/", "%", "^"]
flat_trees = st.recursive(
    st.sampled_from(["a", "b", "1", "2.5", "true", "x[i]", "f(a)"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(BINARY_OPS), inner).map(" ".join),
        inner.map("not {}".format),
        inner.map("-{}".format),
        inner.map("({})".format),
        st.tuples(inner, inner, inner).map(
            lambda t: "if {} then {} else {}".format(*t)),
    ),
    max_leaves=8,
)
expressions = st.one_of(token_soup, flat_trees)
statements = st.lists(st.sampled_from(STMT_TOKENS), max_size=24).map(" ".join)


@settings(max_examples=400, deadline=None)
@given(source=st.one_of(
    fragment_text,
    st.text(alphabet=st.characters(max_codepoint=0x3000), max_size=20),
))
def test_generated_token_streams_match_oracle(source):
    assert token_view(tokenize, source) == token_view(oracle.tokenize, source)


@settings(max_examples=600, deadline=None)
@given(source=expressions)
def test_generated_expressions_match_oracle(source):
    assert (tree_view(parse_expression, source)
            == tree_view(oracle.parse_expression, source))


@settings(max_examples=300, deadline=None)
@given(body=statements)
def test_generated_programs_match_oracle(body):
    assert_same_front_end("function main(a, b) { " + body + " }")
    assert_same_front_end("function main(a) { return " + body + "; }")
