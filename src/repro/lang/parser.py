"""Recursive-descent parser for IdLite.

Grammar (EBNF)::

    program    := { function }
    function   := "function" NAME "(" [ NAME { "," NAME } ] ")" block
    block      := "{" { statement } "}"
    statement  := "next" NAME "=" expr ";"
                | "return" expr ";"
                | "for" NAME "=" expr ("to"|"downto") expr block
                | "while" expr block
                | "if" expr block [ "else" (ifstmt | block) ]
                | NAME "[" expr { "," expr } "]" "=" expr ";"
                | NAME "=" expr ";"
    expr       := "if" expr "then" expr "else" expr | or_expr
    or_expr    := and_expr { "or" and_expr }
    and_expr   := not_expr { "and" not_expr }
    not_expr   := "not" not_expr | comparison
    comparison := additive [ ("<"|"<="|">"|">="|"=="|"!=") additive ]
    additive   := multiplic { ("+"|"-") multiplic }
    multiplic  := unary { ("*"|"/"|"%") unary }
    unary      := "-" unary | power
    power      := atom [ "^" unary ]
    atom       := NUM | NAME | NAME "(" args ")" | NAME "[" exprs "]"
                | "(" expr ")"

``or_expr`` to ``multiplic`` is one precedence-climbing loop, ``parse_binary``.
"""

from __future__ import annotations

from repro.common.errors import ParseError
from repro.lang import ast_nodes as A
from repro.lang.lexer import Tok, tokenize

# Binary operator token -> (precedence level, ISA function).  Prefix
# ``not`` sits at level 2; comparisons (level 3) do not chain.
_BINARY = {
    "or": (0, "or"), "and": (1, "and"),
    "<": (3, "lt"), "<=": (3, "le"), ">": (3, "gt"), ">=": (3, "ge"),
    "==": (3, "eq"), "!=": (3, "ne"),
    "+": (4, "add"), "-": (4, "sub"),
    "*": (5, "mul"), "/": (5, "div"), "%": (5, "mod"),
}
_NOT_LEVEL = 2
_CMP_LEVEL = 3


class _Parser:
    def __init__(self, tokens: list[Tok]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- primitives ----------------------------------------------------

    def advance(self) -> Tok:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def accept(self, kind: str) -> Tok | None:
        if self.tokens[self.pos].kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: str = "") -> Tok:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            hint = f" while parsing {what}" if what else ""
            raise ParseError(
                f"expected {kind!r}, found {tok.kind!r}{hint}", tok.loc
            )
        return self.advance()

    # -- grammar -------------------------------------------------------

    def parse_program(self) -> A.Program:
        loc = self.tokens[self.pos].loc
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
                raise ParseError("unterminated block", self.tokens[self.pos].loc)
            stmts.append(self.parse_statement())
        self.expect("}")
        return stmts

    def parse_statement(self) -> A.Stmt:
        tok = self.tokens[self.pos]

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
                raise ParseError("expected 'to' or 'downto'", self.tokens[self.pos].loc)
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
        if self.tokens[self.pos].kind == "if":
            loc = self.advance().loc
            cond = self.parse_expr()
            self.expect("then", "conditional expression")
            then = self.parse_expr()
            self.expect("else", "conditional expression")
            other = self.parse_expr()
            return A.IfExp(loc, cond, then, other)
        return self.parse_binary(0)

    def parse_binary(self, level: int) -> A.Expr:
        """Operators of precedence ``level`` and above, left associative;
        each right operand is parsed one level higher.  A comparison is
        taken only while no operator of its level or lower (prefix
        ``not`` included) has been applied here, so comparisons do not
        chain."""
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.kind == "not" and level <= _NOT_LEVEL:
            self.pos += 1
            left: A.Expr = A.UnOp(tok.loc, "not", self.parse_binary(_NOT_LEVEL))
            compare = False
        else:
            left = self.parse_unary()
            compare = True
        while True:
            tok = tokens[self.pos]
            entry = _BINARY.get(tok.kind)
            if entry is None:
                return left
            op_level, op = entry
            if op_level < level or (op_level == _CMP_LEVEL and not compare):
                return left
            self.pos += 1
            left = A.BinOp(tok.loc, op, left, self.parse_binary(op_level + 1))
            if op_level <= _CMP_LEVEL:
                compare = False

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
        tok = self.tokens[self.pos]

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
    """Parse IdLite source text into an AST."""
    return _Parser(tokenize(source)).parse_program()


def parse_expression(source: str) -> A.Expr:
    """Parse a single expression (testing convenience)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    parser.expect("eof", "end of expression")
    return expr
