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

Tables never exceed 2^W bits.  Names that do not fit are split off,
outermost first, and enumerated outside the tables as constant tables: the
leading free names, one chunk per assignment (a block that rebinds one
gives it a position again); and, where blocks bind more than ``W`` names at
one node, every free name and the first names of each block whose body does
not fit beside it, folding the body once per assignment until the block's
value is settled (branching with early exit: Cadoli, Giovanardi & Schaerf,
AAAI 1998).  :func:`evaluate` runs the same fold, every free name constant.

Everything here is deliberately exponential in the names split off: a
configurable cap turns a query with more free names than the cap, or with
more than ``W + cap`` names bound at one node, into a :class:`RefusalError`,
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
    """The query would split off more names than the cap allows: more than
    ``cap`` free names, or more than ``cap`` bound names, where blocks bind
    more than ``W + cap`` names at one node.

    Signals an oracle scale limit, never anything about the formula itself.
    """

    def __init__(self, needed: int, cap: int, kind: str = "free"):
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"oracle refuses to enumerate {needed} {kind} variables (cap {cap})"
        )


@dataclass(frozen=True)
class Valuation:
    """Total assignment: an explicit finite part plus a default for the rest."""

    assigned: Mapping[str, int] = field(default_factory=dict)
    default: int = 0

    def value(self, name: str) -> int:
        return self.assigned.get(name, self.default)


def evaluate(valuation: Valuation, phi: Formula, table: OperatorTable | None = None) -> int:
    """Truth value of ``phi`` under ``valuation``: the query fold with every
    free name a constant table, refused like a query at the default cap."""
    width, widths = _bound_positions(phi, DEFAULT_ORACLE_CAP)
    full, masks = _masks(width)
    env = {x: full if valuation.value(x) else 0 for x in free_vars(phi)}
    return 1 if _truth_table(phi, table or DEFAULT_TABLE, env, masks, full, widths) else 0


def _first(phi: Formula, table: OperatorTable | None, cap: int) -> Valuation | None:
    """The first valuation of ``phi``'s sorted free names, in ``product``
    order, that makes ``phi`` true; None if there is none.  The ``lead``
    free names that do not fit above the bound names are split off."""
    names = sorted(free_vars(phi))
    if len(names) > cap:
        raise RefusalError(len(names), cap)
    width, widths = _bound_positions(phi, cap)
    lead = max(0, width + len(names) - W)
    inner = names[lead:]
    full, masks = _masks(width + len(inner))
    free_tables = {x: masks[width + i] for i, x in enumerate(reversed(inner))}
    table = table or DEFAULT_TABLE
    for outer in product((0, 1), repeat=lead):
        env = dict(free_tables)
        env.update((x, full if bit else 0) for x, bit in zip(names, outer))
        rows = _truth_table(phi, table, env, masks, full, widths)
        if rows:
            row = ((rows & -rows).bit_length() - 1) >> width
            bits = outer + tuple(row >> i & 1 for i in reversed(range(len(inner))))
            return Valuation(dict(zip(names, bits)))
    return None


def _binding_width(phi: Formula) -> int:
    """The most names that enclosing blocks bind at any one node."""
    return max(
        (n + len(f.block) for f, _, n in scopes(phi) if type(f) is Quant), default=0
    )


def _bound_positions(phi: Formula, cap: int) -> tuple[int, dict[int, int]]:
    """The positions the bound names take, at most ``W``, and, when some
    must be split off, the binding width of each block's body by ``id``."""
    width = _binding_width(phi)
    if width <= W:
        return width, {}
    if width - W > cap:
        raise RefusalError(width - W, cap, "bound")
    widths: dict[int, int] = {}

    def leave(f: Formula, kids: list) -> int:
        if type(f) is Quant:
            widths[id(f)] = kids[0]
            return len(f.block) + kids[0]
        return max(kids, default=0)

    fold(phi, leave)
    return W, widths


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
    widths: dict[int, int],
    depth: int = 0,
) -> int:
    """Truth table of ``phi`` in one :func:`fold`, above ``depth`` taken
    positions.

    ``env`` maps each free name to its table.  A block maps its names to the
    masks of the next free low positions for its body, then quantifies those
    positions away and restores what the names meant outside.  The result no
    longer depends on the positions, so sibling blocks reuse them.  A block
    whose body does not fit beside it (``widths``) is a leaf of the fold,
    and ``split`` computes its table.
    """
    # One frame per enclosing block: what its names meant outside it.
    frames: list[list[tuple[str, int | None]]] = []

    def enter(f: Quant) -> bool:
        nonlocal depth
        if widths and f.block and depth + len(f.block) + widths[id(f)] > W:
            return False
        frames.append([(x, env.get(x)) for x in f.block])
        for x in f.block:
            env[x] = masks[depth]
            depth += 1
        return True

    def split(f: Quant) -> int:
        # The first k names become constant tables, the rest take the next
        # positions, and each assignment folds the body once, until the
        # combined result is all ones (exists) or all zeros (forall).
        k = min(len(f.block), depth + len(f.block) + widths[id(f)] - W)
        head, rest = f.block[:k], f.block[k:]
        inner = dict(env)
        inner.update((x, masks[depth + i]) for i, x in enumerate(rest))
        positions = range(depth, depth + len(rest))
        exists = f.kind is Kind.EXISTS
        settled = full if exists else 0
        result = full ^ settled
        for bits in product((0, full), repeat=k):
            inner.update(zip(head, bits))
            t = _truth_table(f.body, table, inner, masks, full, widths, positions.stop)
            t = _quantify(t, f.kind, positions, masks)
            result = result | t if exists else result & t
            if result == settled:
                break
        return result

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
        if not kids:
            return split(f)
        depth -= len(f.block)
        for x, old in frames.pop():
            if old is None:
                del env[x]
            else:
                env[x] = old
        return _quantify(kids[0], f.kind, range(depth, depth + len(f.block)), masks)

    return fold(phi, leave, enter)


def _quantify(t: int, kind: Kind, positions: range, masks: tuple[int, ...]) -> int:
    """``t`` with the given positions quantified away: for each, the two
    halves that differ in it are combined with ``|`` (exists) or ``&``
    (forall), and the result fills both halves."""
    exists = kind is Kind.EXISTS
    for p in reversed(positions):
        shift = 1 << p
        high = (t & masks[p]) >> shift
        low = t & ~masks[p]
        t = high | low if exists else high & low
        t |= t << shift
    return t


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
