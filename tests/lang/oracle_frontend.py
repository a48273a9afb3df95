"""Frozen reference front end: the character-loop tokenizer and the
ten-level recursive-descent expression chain that ``repro.lang`` used
before its regex scanner and precedence-climbing parser.

Test-only.  ``test_frontend_differential.py`` checks that the current
front end yields the same tokens, ASTs and error texts as this one, so
do not edit it to follow later language changes: a deliberate change to
the language replaces the oracle as a whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.errors import LexError, ParseError, SourceLocation
from repro.lang import ast_nodes as A

KEYWORDS = {
    "function", "for", "to", "downto", "while", "if", "then", "else",
    "next", "return", "and", "or", "not", "true", "false",
}

# Longest-match-first punctuation/operators.
SYMBOLS = [
    "<=", ">=", "==", "!=",
    "(", ")", "{", "}", "[", "]",
    ",", ";", "=", "<", ">",
    "+", "-", "*", "/", "%", "^",
]


@dataclass(frozen=True)
class Tok:
    """A lexical token: kind is 'num', 'name', a keyword, or a symbol."""

    kind: str
    value: Any
    loc: SourceLocation

    def __repr__(self) -> str:
        return f"Tok({self.kind!r}, {self.value!r} @{self.loc})"


def tokenize(source: str) -> list[Tok]:
    """Convert source text into tokens; raises LexError on bad input."""
    tokens: list[Tok] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def loc() -> SourceLocation:
        return SourceLocation(line, col)

    while i < n:
        ch = source[i]

        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue

        # Comments: '#' or '//' to end of line.
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            start_loc = loc()
            seen_dot = False
            seen_exp = False
            while i < n:
                c = source[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    i += 1
                elif c in "eE" and not seen_exp and i + 1 < n and (
                    source[i + 1].isdigit()
                    or (source[i + 1] in "+-" and i + 2 < n and source[i + 2].isdigit())
                ):
                    seen_exp = True
                    i += 1
                    if source[i] in "+-":
                        i += 1
                else:
                    break
            text = source[start:i]
            col += i - start
            try:
                value: Any = float(text) if (seen_dot or seen_exp) else int(text)
            except ValueError:
                raise LexError(f"malformed number {text!r}", start_loc) from None
            tokens.append(Tok("num", value, start_loc))
            continue

        if ch.isalpha() or ch == "_":
            start = i
            start_loc = loc()
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            col += i - start
            if word == "true":
                tokens.append(Tok("num", True, start_loc))
            elif word == "false":
                tokens.append(Tok("num", False, start_loc))
            elif word in KEYWORDS:
                tokens.append(Tok(word, word, start_loc))
            else:
                tokens.append(Tok("name", word, start_loc))
            continue

        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Tok(sym, sym, loc()))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", loc())

    tokens.append(Tok("eof", None, loc()))
    return tokens


_CMP_OPS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}
_ADD_OPS = {"+": "add", "-": "sub"}
_MUL_OPS = {"*": "mul", "/": "div", "%": "mod"}


class _Parser:
    def __init__(self, tokens: list[Tok]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- primitives ----------------------------------------------------

    @property
    def cur(self) -> Tok:
        return self.tokens[self.pos]

    def advance(self) -> Tok:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind: str) -> bool:
        return self.cur.kind == kind

    def accept(self, kind: str) -> Tok | None:
        if self.check(kind):
            return self.advance()
        return None

    def expect(self, kind: str, what: str = "") -> Tok:
        if not self.check(kind):
            hint = f" while parsing {what}" if what else ""
            raise ParseError(
                f"expected {kind!r}, found {self.cur.kind!r}{hint}", self.cur.loc
            )
        return self.advance()

    # -- grammar -------------------------------------------------------

    def parse_program(self) -> A.Program:
        loc = self.cur.loc
        functions: dict[str, A.Function] = {}
        while not self.check("eof"):
            fn = self.parse_function()
            if fn.name in functions:
                raise ParseError(f"duplicate function {fn.name!r}", fn.loc)
            functions[fn.name] = fn
        if not functions:
            raise ParseError("empty program", loc)
        return A.Program(loc, functions)

    def parse_function(self) -> A.Function:
        loc = self.expect("function", "a function definition").loc
        name = self.expect("name", "function name").value
        self.expect("(", f"parameters of {name}")
        params: list[str] = []
        if not self.check(")"):
            params.append(self.expect("name", "parameter").value)
            while self.accept(","):
                params.append(self.expect("name", "parameter").value)
        self.expect(")", f"parameters of {name}")
        body = self.parse_block()
        if len(set(params)) != len(params):
            raise ParseError(f"duplicate parameter in {name}", loc)
        return A.Function(loc, name, params, body)

    def parse_block(self) -> list[A.Stmt]:
        self.expect("{", "a block")
        stmts: list[A.Stmt] = []
        while not self.check("}"):
            if self.check("eof"):
                raise ParseError("unterminated block", self.cur.loc)
            stmts.append(self.parse_statement())
        self.expect("}")
        return stmts

    def parse_statement(self) -> A.Stmt:
        tok = self.cur

        if tok.kind == "next":
            self.advance()
            name = self.expect("name", "next-variable").value
            self.expect("=", "next binding")
            value = self.parse_expr()
            self.expect(";", "next binding")
            return A.NextBind(tok.loc, name, value)

        if tok.kind == "return":
            self.advance()
            value = self.parse_expr()
            self.expect(";", "return")
            return A.Return(tok.loc, value)

        if tok.kind == "for":
            self.advance()
            var = self.expect("name", "loop variable").value
            self.expect("=", "for loop")
            init = self.parse_expr()
            if self.accept("to"):
                descending = False
            elif self.accept("downto"):
                descending = True
            else:
                raise ParseError("expected 'to' or 'downto'", self.cur.loc)
            limit = self.parse_expr()
            body = self.parse_block()
            return A.For(tok.loc, var, init, limit, descending, body)

        if tok.kind == "while":
            self.advance()
            cond = self.parse_expr()
            body = self.parse_block()
            return A.While(tok.loc, cond, body)

        if tok.kind == "if":
            return self.parse_if_statement()

        if tok.kind == "name":
            name = self.advance().value
            if self.accept("["):
                indices = [self.parse_expr()]
                while self.accept(","):
                    indices.append(self.parse_expr())
                self.expect("]", "array subscript")
                self.expect("=", "array write")
                value = self.parse_expr()
                self.expect(";", "array write")
                return A.ArrayWrite(tok.loc, name, indices, value)
            self.expect("=", "binding")
            value = self.parse_expr()
            self.expect(";", "binding")
            return A.Bind(tok.loc, name, value)

        raise ParseError(f"unexpected token {tok.kind!r}", tok.loc)

    def parse_if_statement(self) -> A.If:
        loc = self.expect("if").loc
        cond = self.parse_expr()
        then_body = self.parse_block()
        else_body: list[A.Stmt] = []
        if self.accept("else"):
            if self.check("if"):
                else_body = [self.parse_if_statement()]
            else:
                else_body = self.parse_block()
        return A.If(loc, cond, then_body, else_body)

    # -- expressions ---------------------------------------------------

    def parse_expr(self) -> A.Expr:
        if self.check("if"):
            loc = self.advance().loc
            cond = self.parse_expr()
            self.expect("then", "conditional expression")
            then = self.parse_expr()
            self.expect("else", "conditional expression")
            other = self.parse_expr()
            return A.IfExp(loc, cond, then, other)
        return self.parse_or()

    def parse_or(self) -> A.Expr:
        left = self.parse_and()
        while self.check("or"):
            loc = self.advance().loc
            left = A.BinOp(loc, "or", left, self.parse_and())
        return left

    def parse_and(self) -> A.Expr:
        left = self.parse_not()
        while self.check("and"):
            loc = self.advance().loc
            left = A.BinOp(loc, "and", left, self.parse_not())
        return left

    def parse_not(self) -> A.Expr:
        if self.check("not"):
            loc = self.advance().loc
            return A.UnOp(loc, "not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> A.Expr:
        left = self.parse_additive()
        if self.cur.kind in _CMP_OPS:
            tok = self.advance()
            right = self.parse_additive()
            return A.BinOp(tok.loc, _CMP_OPS[tok.kind], left, right)
        return left

    def parse_additive(self) -> A.Expr:
        left = self.parse_multiplicative()
        while self.cur.kind in _ADD_OPS:
            tok = self.advance()
            left = A.BinOp(tok.loc, _ADD_OPS[tok.kind], left,
                           self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> A.Expr:
        left = self.parse_unary()
        while self.cur.kind in _MUL_OPS:
            tok = self.advance()
            left = A.BinOp(tok.loc, _MUL_OPS[tok.kind], left, self.parse_unary())
        return left

    def parse_unary(self) -> A.Expr:
        if self.check("-"):
            loc = self.advance().loc
            operand = self.parse_unary()
            if isinstance(operand, A.Num) and not isinstance(operand.value, bool):
                return A.Num(loc, -operand.value)
            return A.UnOp(loc, "neg", operand)
        return self.parse_power()

    def parse_power(self) -> A.Expr:
        base = self.parse_atom()
        if self.check("^"):
            loc = self.advance().loc
            # Right-associative.
            return A.BinOp(loc, "pow", base, self.parse_unary())
        return base

    def parse_atom(self) -> A.Expr:
        tok = self.cur

        if tok.kind == "num":
            self.advance()
            return A.Num(tok.loc, tok.value)

        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")", "parenthesized expression")
            return inner

        if tok.kind == "name":
            name = self.advance().value
            if self.accept("("):
                args: list[A.Expr] = []
                if not self.check(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")", f"arguments of {name}")
                return A.Call(tok.loc, name, args)
            if self.accept("["):
                indices = [self.parse_expr()]
                while self.accept(","):
                    indices.append(self.parse_expr())
                self.expect("]", "array subscript")
                return A.Index(tok.loc, name, indices)
            return A.Var(tok.loc, name)

        raise ParseError(f"unexpected token {tok.kind!r} in expression", tok.loc)


def parse(source: str) -> A.Program:
    """Parse IdLite source text into an AST (reference)."""
    return _Parser(tokenize(source)).parse_program()



def parse_expression(source: str) -> A.Expr:
    """Parse a single expression (reference)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect("eof", "end of expression")
    return expr
