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
    INT, BITS := [0-9]+

The grammar is read by precedence climbing over explicit operand and
operator stacks, so nesting depth costs no Python frames: ``exists`` and
``forall`` are prefix operators of the lowest precedence, legal only where a
``formula`` starts, whose scope closes at ``)``, ``,`` or the end of input;
``~`` is a prefix operator of the highest.

Tokens are bare strings, typed by their own text (keywords and symbols) or
their first character (names and integers); a search for stray characters
precedes reading, and only an error lexes the text again for its position.

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

# One match per token or comment; the search skips the blanks between.
_TOKEN_RE = re.compile(r"[A-Za-z_@][A-Za-z0-9_@]*|[0-9]+|<->|->|[().,;:/~&|]|#[^\n]*")
# Each comment, to step over it, and each character outside comments that
# is no blank and starts no token; ``@`` too where names may not hold it.
_STRAY = r"#[^\n]*|[^A-Za-z0-9_@().,;:/~&|<>\- \t\r\n]|<(?!->)|-(?!>)|>(?<!->)"
_STRAY_RE = {True: re.compile(_STRAY), False: re.compile(_STRAY + "|@")}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_@")
# Keywords and symbols are typed by their own text, the end of input ("")
# by ``eof``; other tokens by their first character: ``name`` or ``int``.
_TYPES = {word: word for word in KEYWORDS}
_TYPES.update((symbol, symbol) for symbol in ("<->", "->", *"().,;:/~&|"))
_TYPES[""] = "eof"


def _type(word: str) -> str:
    return _TYPES.get(word) or ("name" if word[0] in _NAME_START else "int")


def _error(text: str, offset: int, message: str) -> ParseError:
    """A :class:`ParseError` at ``offset``, with its 1-based line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _token_error(text: str, i: int, message: str) -> ParseError:
    """A :class:`ParseError` at token ``i``, lexing the text again for offsets."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text) if m[0][0] != "#"]
    return _error(text, starts[i] if i < len(starts) else len(text), message)


def _unexpected(text: str, tokens: list[str], i: int, expected: str) -> ParseError:
    found = repr(tokens[i]) if tokens[i] else "end of input"
    return _token_error(text, i, f"expected {expected}, found {found}")


def _lex(text: str, allow_internal_names: bool) -> list[str]:
    """All tokens of ``text`` and then ``""``, the end of input; the first stray
    character, or ``@`` without ``allow_internal_names``, raises first."""
    for m in _STRAY_RE[bool(allow_internal_names)].finditer(text):
        if m[0] == RESERVED_CHAR:
            raise _error(text, m.start(), "reserved character '@' in identifier "
                         "(generated names need allow_internal_names)")
        if m[0][0] != "#":
            raise _error(text, m.start(), f"unexpected character {m[0]!r}")
    tokens = _TOKEN_RE.findall(text)
    if "#" in text:
        tokens = [word for word in tokens if word[0] != "#"]
    tokens.append("")
    return tokens


# ---------------------------------------------------------------------------
# Parser

_DECLARATION = (
    ("name", "operator name"),
    ("/", "'/'"),
    ("int", "arity"),
    (":", "':'"),
    ("int", "truth-table bitstring"),
    (";", "';'"),
)


def _declarations(
    text: str, tokens: list[str], table: OperatorTable
) -> tuple[list[OpDecl], int]:
    """Read the leading ``op`` declarations into ``table``.

    Returns them with the index of the first token after them.  The arity is
    checked against the number of bits without computing ``2 ** arity``, so
    an absurd arity is an ordinary error.
    """
    decls: list[OpDecl] = []
    i = 0
    while tokens[i] == "op":
        for j, (ttype, what) in enumerate(_DECLARATION, i + 1):
            if _type(tokens[j]) != ttype:
                raise _unexpected(text, tokens, j, what)
        name, _, arity_text, _, bits, _ = tokens[i + 1 : i + 7]
        i += 7
        if bits.strip("01"):
            raise _token_error(
                text, i - 2, f"truth table for '{name}' must contain only 0/1 bits"
            )
        size = len(bits)
        arity = size.bit_length() - 1  # the only arity ``size`` bits can fit
        digits = arity_text.lstrip("0") or "0"
        if size != 1 << arity or digits != str(arity):
            # Spelled out below arity 10,000, as a power above it.
            expected = str(1 << int(digits)) if len(digits) <= 4 else f"2^{digits}"
            raise _token_error(
                text,
                i - 2,
                f"truth table for '{name}' has {size} bits, "
                f"expected {expected} for arity {digits}",
            )
        if table.has(name):
            raise _token_error(
                text, i - 6, f"operator '{name}' collides with an existing operator"
            )
        table.add(name, arity, (int(b) for b in bits))
        decls.append(OpDecl(name, arity, bits))
    return decls, i


# Binary operators, loosest first: (token, operator, precedence, right-
# associative).  Precedence 0 is the quantifiers', 6 the negation's.
_INFIX_OPERATORS = (
    ("<->", "iff", 1, False),
    ("->", "imp", 2, True),
    ("xor", "xor", 3, False),
    ("|", "or", 4, False),
    ("&", "and", 5, False),
)
# Token type -> (precedence, operator, reduce-from).  On reading a binary
# operator, every pending operator of precedence at least ``reduce-from`` is
# applied first: its own precedence if it is left-associative, one above it
# if right-associative.
_BINARY = {
    token: (level, op, level + right)
    for token, op, level, right in _INFIX_OPERATORS
}
# Other operator-stack entries, by precedence: ``~`` binds tightest;
# quantifier heads (0, kind, block) are weakest and close only at ``)``,
# ``,`` or the end of input; below them sit the markers that delimit a
# formula -- ``(``, an application (-2, name, argument base, offset), and
# the bottom of the stack.
_NEG = (6, "not")
_GROUP = (-1,)
_BOTTOM = (-3,)
_QUANTIFIERS = {"exists": Kind.EXISTS, "forall": Kind.FORALL}


def _application(
    text: str, table: OperatorTable, name: str, args: tuple, at: int
) -> Formula:
    try:
        table.rows(name, len(args))
    except ValueError as err:
        raise _token_error(text, at, str(err)) from None
    return App(name, args)


def _read(text: str, tokens: list[str], i: int, table: OperatorTable) -> Formula:
    """Read one formula from ``tokens[i]`` up to the end of input.

    Precedence climbing over explicit stacks (Pratt, POPL 1973): operands
    collect in ``values``, pending operators and formula delimiters in
    ``ops``, so nesting depth costs no Python frames.
    """
    values: list[Formula] = []
    ops: list[tuple] = [_BOTTOM]
    put, push, pop = values.append, ops.append, ops.pop
    typed = _TYPES.get
    start = True  # a quantifier may open the formula read next
    while True:
        # An operand is due: an atom, or a prefix that defers it.
        word = tokens[i]
        i += 1
        ttype = typed(word) or ("name" if word[0] in _NAME_START else "int")
        if ttype == "name":
            if tokens[i] != "(":
                put(Var(word))
            elif not table.has(word):
                raise _token_error(text, i - 1, f"unknown operator '{word}'")
            elif tokens[i + 1] != ")":
                push((-2, word, len(values), i - 1))
                i += 1
                start = True
                continue
            else:
                put(_application(text, table, word, (), i - 1))
                i += 2
        elif ttype == "(":
            push(_GROUP)
            start = True
            continue
        elif ttype == "~":
            push(_NEG)
            start = False
            continue
        elif ttype == "true" or ttype == "false":
            put(App(ttype, ()))
        elif start and ttype in _QUANTIFIERS:
            block: dict[str, None] = {}
            while _type(name := tokens[i]) == "name":
                if name in block:
                    raise _token_error(
                        text, i, f"duplicate variable '{name}' in one quantifier block"
                    )
                block[name] = None
                i += 1
            if not block:
                raise _token_error(
                    text, i, f"expected at least one variable after '{word}'"
                )
            if name != ".":
                raise _unexpected(text, tokens, i, "'.'")
            i += 1
            push((0, _QUANTIFIERS[ttype], tuple(block)))
            continue
        else:
            raise _unexpected(text, tokens, i - 1, "a formula")

        # An operand is complete: apply binary operators and close delimiters
        # until one more operand is due; symbols are compared as they are.
        while True:
            word = tokens[i]
            i += 1
            binary = _BINARY.get(word)
            # Any other token closes every pending operator, quantifiers too.
            limit = 0 if binary is None else binary[2]
            while ops[-1][0] >= limit:
                top = pop()
                if top is _NEG:
                    values[-1] = App("not", (values[-1],))
                elif top[0]:
                    right = values.pop()
                    values[-1] = App(top[1], (values[-1], right))
                else:
                    values[-1] = Quant(top[1], top[2], values[-1])
            if binary is not None:
                push(binary)
                start = False
                break
            top = ops[-1]
            if top is _GROUP:
                if word != ")":
                    raise _unexpected(text, tokens, i - 1, "')'")
                pop()
            elif top is _BOTTOM:
                if word:
                    raise _unexpected(text, tokens, i - 1, "end of input")
                return values[0]
            elif word == ",":
                start = True
                break
            elif word != ")":
                raise _unexpected(text, tokens, i - 1, "')'")
            else:
                pop()
                _, name, base, at = top
                args = tuple(values[base:])
                del values[base:]
                put(_application(text, table, name, args, at))


def parse(text: str, *, allow_internal_names: bool = False) -> Problem:
    """Parse a problem (operator declarations followed by one formula)."""
    table = OperatorTable()
    tokens = _lex(text, allow_internal_names)
    decls, i = _declarations(text, tokens, table)
    return Problem(tuple(decls), _read(text, tokens, i, table), table)


def parse_formula(
    text: str,
    table: OperatorTable | None = None,
    *,
    allow_internal_names: bool = False,
) -> Formula:
    """Parse a bare formula against an existing operator table."""
    return _read(text, _lex(text, allow_internal_names), 0, table or OperatorTable())


# ---------------------------------------------------------------------------
# Printer

# op -> (spaced symbol, level, minimum levels of the left and right
# argument), from the precedences the reader uses.  Quantifiers, at level 0,
# are parenthesized whenever they appear as an operator argument.
_INFIX = {
    op: (f" {token} ", level, level + right, level + (not right))
    for token, op, level, right in _INFIX_OPERATORS
}


def format_formula(phi: Formula) -> str:
    """Canonical text: minimal parentheses, sorted blocks, spaced operators.

    ``parse_formula(format_formula(phi))`` is structurally ``phi``.
    """

    # Pre-order emission: the stack holds pending (subformula, minimum level)
    # pairs and literal text, so precedence flows top-down without recursion.
    out: list[str] = []
    stack: list = [(phi, 0)]
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
            if minimum > 0:
                emit("(" + head)
                push(")")
            else:
                emit(head)
            push((f.body, 0))
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
            push((f.args[0], _NEG[0]))
        elif f.op in ("true", "false"):
            emit(f.op)
        else:
            emit(f"{f.op}(")
            push(")")
            for i in reversed(range(len(f.args))):
                push((f.args[i], 0))
                if i:
                    push(", ")
    return "".join(out)


def format_problem(problem: Problem) -> str:
    """Canonical text of a problem: declarations, then the formula."""
    lines = [f"op {d.name}/{d.arity} : {d.bits} ;" for d in problem.declarations]
    lines.append(format_formula(problem.formula))
    return "\n".join(lines)
