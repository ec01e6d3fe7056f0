"""Brute-force reference semantics: the oracle every rewrite is checked against.

Every query asks for the first satisfying row of one formula: validity of
``phi`` asks it of ``not phi``, equivalence of ``phi xor psi``.  The formula
is evaluated over all assignments at once: every subformula becomes a truth
table packed into a Python int (bit r holds its value on row r), so the
connectives are ``& | ^`` against the all-ones table, a user operator is an
OR over the true rows of its truth table, and ``exists x`` / ``forall x``
combine with ``|`` / ``&`` the two halves of the body's table that differ in
x's bit position.  The names bound at a node take the low positions, stacked
by block nesting (sibling blocks reuse them, since a quantified table no
longer depends on its positions); the free names take the positions above,
in sorted order with the first name most significant, so ascending rows are
``itertools.product`` order and the lowest set bit is the first witness.

Tables never exceed 2^W bits.  When a query needs more than ``W`` positions,
the leading free names are enumerated outside the tables, one chunk per
assignment, each name a constant table except under a block that rebinds
it.  When the blocks alone bind more than ``W`` names at one node, the query
falls back to enumerating assignments one by one through :func:`_compile`,
which also evaluates single valuations (:func:`evaluate`) and is the
reference the table path is tested against.

Everything here is deliberately exponential in the number of free names: a
configurable cap turns oversized queries into a :class:`RefusalError`,
raised before any formula is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Mapping

from .core import (
    App,
    DEFAULT_TABLE,
    Formula,
    Kind,
    OperatorTable,
    Quant,
    Var,
    fold,
    free_vars,
    neg,
    scopes,
    xor,
)

DEFAULT_ORACLE_CAP = 24

#: Most bit positions one truth table spans, so no table exceeds 2^W bits.
W = 16


class RefusalError(Exception):
    """The query needs more free-variable enumeration than the cap allows.

    Signals an oracle scale limit, never anything about the formula itself.
    """

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"oracle refuses to enumerate {needed} free variables (cap {cap})"
        )


@dataclass(frozen=True)
class Valuation:
    """Total assignment: an explicit finite part plus a default for the rest."""

    assigned: Mapping[str, int] = field(default_factory=dict)
    default: int = 0

    def value(self, name: str) -> int:
        return self.assigned.get(name, self.default)


def _compile(phi: Formula, table: OperatorTable, env: dict[str, int]):
    """Compile a formula into a zero-argument closure reading ``env``.

    The closure implements the defining recursion directly: truth-table
    lookup for operators and depth-first enumeration of the 2^|X| local
    assignments of every block, short-circuiting on the first witness or
    counterexample.  Compiling once keeps repeated evaluation cheap.
    """
    if isinstance(phi, Var):
        name = phi.name
        return lambda: env[name]
    if isinstance(phi, App):
        op = phi.op
        if op == "true":
            return lambda: 1
        if op == "false":
            return lambda: 0
        if op == "not":
            a = _compile(phi.args[0], table, env)
            return lambda: 0 if a() else 1
        if op in ("and", "or", "imp", "iff", "xor"):
            a = _compile(phi.args[0], table, env)
            b = _compile(phi.args[1], table, env)
            if op == "and":
                return lambda: b() if a() else 0
            if op == "or":
                return lambda: 1 if a() else b()
            if op == "imp":
                return lambda: b() if a() else 1
            if op == "iff":
                return lambda: 1 if a() == b() else 0
            return lambda: 1 if a() != b() else 0
        parts = tuple(_compile(a, table, env) for a in phi.args)
        bits = table.rows(op, len(parts))

        def general() -> int:
            index = 0
            for part in parts:
                index = index << 1 | part()
            return bits[index]

        return general
    body = _compile(phi.body, table, env)
    stop = 1 if phi.kind is Kind.EXISTS else 0
    for x in reversed(phi.block):
        body = _enumerate_one(x, body, env, stop)
    return body


def _enumerate_one(x: str, body, env: dict[str, int], stop: int):
    """Closure trying x = 0 then x = 1 on ``body`` until it returns ``stop``.

    A block is a chain of these, one per name, so no closure refers to
    itself and a compiled formula is freed by reference counting alone.
    """

    def enum() -> int:
        old = env.get(x)
        env[x] = 0
        result = body()
        if result != stop:
            env[x] = 1
            result = body()
        if old is None:
            del env[x]
        else:
            env[x] = old
        return result

    return enum


def evaluate(valuation: Valuation, phi: Formula, table: OperatorTable | None = None) -> int:
    """Truth value of ``phi`` under ``valuation``; worst-case exponential."""
    env = {name: valuation.value(name) for name in free_vars(phi)}
    return _compile(phi, table or DEFAULT_TABLE, env)()


def _first(phi: Formula, table: OperatorTable | None, cap: int) -> Valuation | None:
    """The first valuation of ``phi``'s sorted free names, in ``product``
    order, that makes ``phi`` true; None if there is none."""
    names = sorted(free_vars(phi))
    if len(names) > cap:
        raise RefusalError(len(names), cap)
    table = table or DEFAULT_TABLE
    width = _binding_width(phi)
    if width > W:
        return _first_by_enumeration(phi, names, table)
    return _first_by_tables(phi, names, width, table)


def _binding_width(phi: Formula) -> int:
    """The most names that enclosing blocks bind at any one node."""
    return max(
        (n + len(f.block) for f, _, n in scopes(phi) if type(f) is Quant), default=0
    )


def _first_by_enumeration(
    phi: Formula, names: list[str], table: OperatorTable
) -> Valuation | None:
    """:func:`_first` by evaluating every valuation through :func:`_compile`."""
    env: dict[str, int] = {}
    root = _compile(phi, table, env)
    for bits in product((0, 1), repeat=len(names)):
        env.update(zip(names, bits))
        if root():
            return Valuation(dict(zip(names, bits)))
    return None


def _first_by_tables(
    phi: Formula, names: list[str], width: int, table: OperatorTable
) -> Valuation | None:
    """:func:`_first` on truth tables of at most ``W`` positions.

    Bound names take the ``width`` low positions, stacked by block nesting;
    the trailing free names take the positions above them, first name most
    significant.  The ``lead`` leading free names that do not fit are
    enumerated outside, each a constant table, one chunk per assignment.
    """
    lead = max(0, width + len(names) - W)
    inner = names[lead:]
    full, masks = _masks(width + len(inner))
    free_tables = {x: masks[width + i] for i, x in enumerate(reversed(inner))}
    for outer in product((0, 1), repeat=lead):
        env = dict(free_tables)
        env.update((x, full if bit else 0) for x, bit in zip(names, outer))
        rows = _truth_table(phi, table, env, masks, full)
        if rows:
            row = ((rows & -rows).bit_length() - 1) >> width
            bits = outer + tuple(row >> i & 1 for i in reversed(range(len(inner))))
            return Valuation(dict(zip(names, bits)))
    return None


@lru_cache(maxsize=W + 1)
def _masks(width: int) -> tuple[int, tuple[int, ...]]:
    """The all-ones table over ``width`` positions, and the mask of each
    position: the rows whose index has that bit set."""
    full = (1 << (1 << width)) - 1
    masks = []
    for i in range(width):
        run = 1 << i
        masks.append(full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    return full, tuple(masks)


def _truth_table(
    phi: Formula,
    table: OperatorTable,
    env: dict[str, int],
    masks: tuple[int, ...],
    full: int,
) -> int:
    """Truth table of ``phi`` in one :func:`fold`.

    ``env`` maps each free name to its table.  A block maps its names to the
    masks of the next free low positions for its body, then quantifies those
    positions away and restores what the names meant outside.  The result no
    longer depends on the positions, so sibling blocks reuse them.
    """
    # One frame per enclosing block: what its names meant outside it.
    frames: list[list[tuple[str, int | None]]] = []
    depth = 0  # low positions taken by the enclosing blocks

    def enter(f: Quant) -> bool:
        nonlocal depth
        frames.append([(x, env.get(x)) for x in f.block])
        for x in f.block:
            env[x] = masks[depth]
            depth += 1
        return True

    def leave(f: Formula, kids: list) -> int:
        nonlocal depth
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, App):
            op = f.op
            if op == "not":
                return full ^ kids[0]
            if op in ("and", "or", "imp", "iff", "xor"):
                a, b = kids
                if op == "and":
                    return a & b
                if op == "or":
                    return a | b
                if op == "imp":
                    return (full ^ a) | b
                if op == "iff":
                    return full ^ a ^ b
                return a ^ b
            if op == "true":
                return full
            if op == "false":
                return 0
            return _apply_user(table, op, kids, full)
        t = kids[0]
        exists = f.kind is Kind.EXISTS
        for x, old in reversed(frames.pop()):
            depth -= 1
            shift = 1 << depth
            mask = masks[depth]
            high = (t & mask) >> shift
            low = t & ~mask
            t = high | low if exists else high & low
            t |= t << shift
            if old is None:
                del env[x]
            else:
                env[x] = old
        return t

    return fold(phi, leave, enter)


def _apply_user(table: OperatorTable, op: str, args: list[int], full: int) -> int:
    """A user operator on argument tables: OR over the true rows of its
    truth table, first argument most significant in the row index."""
    result = 0
    for row, bit in enumerate(table.rows(op, len(args))):
        if bit:
            term = full
            for k, a in enumerate(reversed(args)):
                term &= a if row >> k & 1 else full ^ a
            result |= term
    return result


def satisfiable(
    phi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    return satisfying_assignment(phi, table, cap) is not None


def valid(
    phi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    return _first(neg(phi), table, cap) is None


def satisfying_assignment(
    phi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> Valuation | None:
    """The first valuation, in ``product`` order, making ``phi`` true, or None."""
    return _first(phi, table, cap)


def find_disagreement(
    phi: Formula,
    psi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> Valuation | None:
    """The first valuation on which the two formulas evaluate differently, or None."""
    return _first(xor(phi, psi), table, cap)


def equivalent(
    phi: Formula,
    psi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    return find_disagreement(phi, psi, table, cap) is None


def equisatisfiable(
    phi: Formula,
    psi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    return satisfiable(phi, table, cap) == satisfiable(psi, table, cap)


def equivalid(
    phi: Formula,
    psi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    return valid(phi, table, cap) == valid(psi, table, cap)
