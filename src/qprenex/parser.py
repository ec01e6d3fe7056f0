"""Concrete ``.fqbf`` syntax: reader and canonical printer.

Grammar (EBNF)::

    problem   := decl* formula
    decl      := "op" NAME "/" INT ":" BITS ";"
    formula   := quant | iff
    quant     := ("exists" | "forall") var+ "." formula     # binds weakest,
                                                            # scope extends right
    iff       := imp ("<->" imp)*                           # left-assoc
    imp       := xor ("->" imp)?                            # right-assoc
    xor       := or ("xor" or)*
    or        := and ("|" and)*
    and       := neg ("&" neg)*
    neg       := "~" neg | atom
    atom      := "true" | "false" | var
               | NAME "(" [formula ("," formula)*] ")"
               | "(" formula ")"
    var       := [A-Za-z_][A-Za-z0-9_]*

``#`` starts a comment running to end of line.  A multi-variable quantifier
``exists x y . f`` parses as a single block {x, y}.  Declared truth tables
are bitstrings of length 2^arity, indexed by the argument tuple read as a
binary number with the first argument most significant.

Identifiers may not contain ``@`` unless ``allow_internal_names`` is set,
which makes the tool's own output (containing generated names) re-ingestible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from .core import (
    App,
    Formula,
    Kind,
    OperatorTable,
    Quant,
    RESERVED_CHAR,
    Var,
)

KEYWORDS = {"exists", "forall", "xor", "true", "false", "op"}


class ParseError(Exception):
    """Syntax or well-formedness error, with source position."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass(frozen=True)
class OpDecl:
    """User operator declaration: name, arity, and truth-table bitstring."""

    name: str
    arity: int
    bits: str


@dataclass(frozen=True)
class Problem:
    """A parsed input: operator declarations plus one formula."""

    declarations: tuple[OpDecl, ...]
    formula: Formula
    table: OperatorTable = field(compare=False)


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[A-Za-z_@][A-Za-z0-9_@]*)
  | (?P<int>\d+)
  | (?P<iffsym><->)
  | (?P<impsym>->)
  | (?P<punct>[().,;:/~&|])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    type: str  # 'name' | 'keyword' | 'int' | literal punctuation | 'eof'
    text: str
    line: int
    column: int


def _tokenize(text: str, allow_internal_names: bool) -> Iterator[_Token]:
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok_text = m.group()
        col = pos - line_start + 1
        pos = m.end()
        if kind in ("ws", "comment"):
            newlines = tok_text.count("\n")
            if newlines:
                line += newlines
                line_start = pos - (len(tok_text) - tok_text.rfind("\n") - 1)
            continue
        if kind == "name":
            if RESERVED_CHAR in tok_text and not allow_internal_names:
                raise ParseError(
                    "reserved character '@' in identifier "
                    "(generated names need allow_internal_names)",
                    line,
                    col + tok_text.index(RESERVED_CHAR),
                )
            ttype = "keyword" if tok_text in KEYWORDS else "name"
        elif kind == "int":
            ttype = "int"
        else:  # operators and punctuation are their own type
            ttype = tok_text
        yield _Token(ttype, tok_text, line, col)
    yield _Token("eof", "", line, len(text) - line_start + 1)


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, table: OperatorTable, allow_internal_names: bool):
        self._tokens = list(_tokenize(text, allow_internal_names))
        self._pos = 0
        self._table = table

    @property
    def _tok(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tok
        self._pos += 1
        return tok

    def _expect(self, ttype: str, what: str | None = None) -> _Token:
        tok = self._tok
        if tok.type != ttype:
            expected = what or f"'{ttype}'"
            raise ParseError(
                f"expected {expected}, found {tok.text!r}" if tok.text else
                f"expected {expected}, found end of input",
                tok.line,
                tok.column,
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._tok.line, self._tok.column)

    def parse_problem(self) -> Problem:
        decls: list[OpDecl] = []
        while self._tok.type == "keyword" and self._tok.text == "op":
            decls.append(self._declaration())
        formula = self.parse_formula()
        self._expect("eof", "end of input")
        return Problem(tuple(decls), formula, self._table)

    def _declaration(self) -> OpDecl:
        self._advance()  # 'op'
        name_tok = self._expect("name", "operator name")
        self._expect("/")
        arity_tok = self._expect("int", "arity")
        self._expect(":")
        bits_tok = self._expect("int", "truth-table bitstring")
        self._expect(";")
        arity = int(arity_tok.text)
        bits = bits_tok.text
        if set(bits) - {"0", "1"}:
            raise ParseError(
                f"truth table for '{name_tok.text}' must contain only 0/1 bits",
                bits_tok.line,
                bits_tok.column,
            )
        if len(bits) != 2**arity:
            raise ParseError(
                f"truth table for '{name_tok.text}' has {len(bits)} bits, "
                f"expected {2 ** arity} for arity {arity}",
                bits_tok.line,
                bits_tok.column,
            )
        if self._table.has(name_tok.text):
            raise ParseError(
                f"operator '{name_tok.text}' collides with an existing operator",
                name_tok.line,
                name_tok.column,
            )
        self._table.add(name_tok.text, arity, (int(b) for b in bits))
        return OpDecl(name_tok.text, arity, bits)

    def parse_formula(self) -> Formula:
        if self._tok.type == "keyword" and self._tok.text in ("exists", "forall"):
            return self._quantifier()
        return self._iff()

    def _quantifier(self) -> Formula:
        head = self._advance()
        kind = Kind.EXISTS if head.text == "exists" else Kind.FORALL
        names: list[str] = []
        while self._tok.type == "name":
            tok = self._advance()
            if tok.text in names:
                raise ParseError(
                    f"duplicate variable '{tok.text}' in one quantifier block",
                    tok.line,
                    tok.column,
                )
            names.append(tok.text)
        if not names:
            raise self._error(f"expected at least one variable after '{head.text}'")
        self._expect(".")
        return Quant(kind, tuple(names), self.parse_formula())

    def _iff(self) -> Formula:
        value = self._imp()
        while self._tok.type == "<->":
            self._advance()
            value = App("iff", (value, self._imp()))
        return value

    def _imp(self) -> Formula:
        value = self._xor()
        if self._tok.type == "->":
            self._advance()
            return App("imp", (value, self._imp()))
        return value

    def _xor(self) -> Formula:
        value = self._or()
        while self._tok.type == "keyword" and self._tok.text == "xor":
            self._advance()
            value = App("xor", (value, self._or()))
        return value

    def _or(self) -> Formula:
        value = self._and()
        while self._tok.type == "|":
            self._advance()
            value = App("or", (value, self._and()))
        return value

    def _and(self) -> Formula:
        value = self._neg()
        while self._tok.type == "&":
            self._advance()
            value = App("and", (value, self._neg()))
        return value

    def _neg(self) -> Formula:
        if self._tok.type == "~":
            self._advance()
            return App("not", (self._neg(),))
        return self._atom()

    def _atom(self) -> Formula:
        tok = self._tok
        if tok.type == "keyword" and tok.text in ("true", "false"):
            self._advance()
            return App(tok.text, ())
        if tok.type == "name":
            self._advance()
            if self._tok.type == "(":
                return self._application(tok)
            return Var(tok.text)
        if tok.type == "(":
            self._advance()
            value = self.parse_formula()
            self._expect(")")
            return value
        raise self._error(f"expected a formula, found {tok.text!r}" if tok.text
                          else "expected a formula, found end of input")

    def _application(self, name_tok: _Token) -> Formula:
        if not self._table.has(name_tok.text):
            raise ParseError(
                f"unknown operator '{name_tok.text}'", name_tok.line, name_tok.column
            )
        self._advance()  # '('
        args: list[Formula] = []
        if self._tok.type != ")":
            args.append(self.parse_formula())
            while self._tok.type == ",":
                self._advance()
                args.append(self.parse_formula())
        self._expect(")")
        expected = self._table.arity(name_tok.text)
        if expected != len(args):
            raise ParseError(
                f"operator '{name_tok.text}' expects {expected} arguments, "
                f"got {len(args)}",
                name_tok.line,
                name_tok.column,
            )
        return App(name_tok.text, tuple(args))


def parse(text: str, *, allow_internal_names: bool = False) -> Problem:
    """Parse a problem (operator declarations followed by one formula)."""
    return _Parser(text, OperatorTable(), allow_internal_names).parse_problem()


def parse_formula(
    text: str,
    table: OperatorTable | None = None,
    *,
    allow_internal_names: bool = False,
) -> Formula:
    """Parse a bare formula against an existing operator table."""
    parser = _Parser(text, table or OperatorTable(), allow_internal_names)
    formula = parser.parse_formula()
    parser._expect("eof", "end of input")
    return formula


# ---------------------------------------------------------------------------
# Printer

# Precedence levels; higher binds tighter.  Quantifiers are weakest and are
# parenthesized whenever they appear as an operator argument.
_LEVEL_QUANT = 0
_LEVEL_IFF = 1
_LEVEL_IMP = 2
_LEVEL_XOR = 3
_LEVEL_OR = 4
_LEVEL_AND = 5
_LEVEL_NEG = 6
_LEVEL_ATOM = 7

# op -> (spaced symbol, level, minimum levels of the left and right argument);
# ``->`` is right-associative, the others left-associative.
_INFIX = {
    "iff": (" <-> ", _LEVEL_IFF, _LEVEL_IFF, _LEVEL_IFF + 1),
    "imp": (" -> ", _LEVEL_IMP, _LEVEL_IMP + 1, _LEVEL_IMP),
    "xor": (" xor ", _LEVEL_XOR, _LEVEL_XOR, _LEVEL_XOR + 1),
    "or": (" | ", _LEVEL_OR, _LEVEL_OR, _LEVEL_OR + 1),
    "and": (" & ", _LEVEL_AND, _LEVEL_AND, _LEVEL_AND + 1),
}


def format_formula(phi: Formula) -> str:
    """Canonical text: minimal parentheses, sorted blocks, spaced operators.

    ``parse_formula(format_formula(phi))`` is structurally ``phi``.
    """

    # Pre-order emission: the stack holds pending (subformula, minimum level)
    # pairs and literal text, so precedence flows top-down without recursion.
    out: list[str] = []
    stack: list = [(phi, _LEVEL_QUANT)]
    emit, push, pop = out.append, stack.append, stack.pop
    while stack:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        f, minimum = item
        if type(f) is Var:
            emit(f.name)
        elif type(f) is Quant:
            if not f.block:
                # No surface syntax: empty blocks arise only programmatically.
                raise ValueError("cannot print an empty quantifier block")
            head = f"{f.kind.value} {' '.join(f.block)} . "
            if minimum > _LEVEL_QUANT:
                emit("(" + head)
                push(")")
            else:
                emit(head)
            push((f.body, _LEVEL_QUANT))
        elif f.op in _INFIX and len(f.args) == 2:
            symbol, level, left, right = _INFIX[f.op]
            if minimum > level:
                emit("(")
                push(")")
            push((f.args[1], right))
            push(symbol)
            push((f.args[0], left))
        elif f.op == "not":
            emit("~")
            push((f.args[0], _LEVEL_NEG))
        elif f.op in ("true", "false"):
            emit(f.op)
        else:
            emit(f"{f.op}(")
            push(")")
            for i in reversed(range(len(f.args))):
                push((f.args[i], _LEVEL_QUANT))
                if i:
                    push(", ")
    return "".join(out)


def format_problem(problem: Problem) -> str:
    """Canonical text of a problem: declarations, then the formula."""
    lines = [f"op {d.name}/{d.arity} : {d.bits} ;" for d in problem.declarations]
    lines.append(format_formula(problem.formula))
    return "\n".join(lines)
