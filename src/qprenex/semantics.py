"""Brute-force reference semantics: the oracle every rewrite is checked against.

The satisfiability, validity and equivalence queries evaluate each formula
once over all assignments at the same time.  Every subformula becomes a truth
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
from typing import Callable, Mapping, Sequence

from .core import (
    App,
    DEFAULT_TABLE,
    FALSE,
    Formula,
    FreshGen,
    Kind,
    OperatorTable,
    Quant,
    TRUE,
    Var,
    free_vars,
    substitute,
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
        bits = table.truth_table(op)
        if table.arity(op) != len(parts):
            raise ValueError(
                f"operator '{op}' expects {table.arity(op)} arguments, "
                f"got {len(parts)}"
            )

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


class _Evaluator:
    """Compiled form of one formula for repeated evaluation."""

    def __init__(self, phi: Formula, table: OperatorTable):
        self._env: dict[str, int] = {}
        self._free = sorted(free_vars(phi))
        self._root = _compile(phi, table, self._env)

    def under(self, valuation: Valuation) -> int:
        env = self._env
        env.clear()
        for name in self._free:
            env[name] = valuation.value(name)
        return self._root()

    def with_bits(self, names: list[str], bits: tuple[int, ...]) -> int:
        """Value with ``names`` set to ``bits``; they must cover the free names."""
        env = self._env
        env.clear()
        env.update(zip(names, bits))
        return self._root()


def evaluate(valuation: Valuation, phi: Formula, table: OperatorTable | None = None) -> int:
    """Truth value of ``phi`` under ``valuation``; worst-case exponential."""
    return _Evaluator(phi, table or DEFAULT_TABLE).under(valuation)


def _check_cap(names: list[str], cap: int) -> None:
    if len(names) > cap:
        raise RefusalError(len(names), cap)


#: Which rows answer a query: ``combine(values, full)`` maps the formulas'
#: truth tables (or their 0/1 values, with ``full == 1``) to the rows sought.
Combine = Callable[[list[int], int], int]


def _true_rows(values: list[int], full: int) -> int:
    return values[0]


def _false_rows(values: list[int], full: int) -> int:
    return full ^ values[0]


def _different_rows(values: list[int], full: int) -> int:
    return values[0] ^ values[1]


def _first(
    formulas: Sequence[Formula],
    table: OperatorTable | None,
    cap: int,
    combine: Combine,
) -> Valuation | None:
    """The first valuation of the sorted free names, in ``product`` order,
    whose row ``combine`` selects; None if there is none."""
    names = sorted(frozenset().union(*map(free_vars, formulas)))
    _check_cap(names, cap)
    table = table or DEFAULT_TABLE
    width = _binding_width(formulas)
    if width > W:
        return _first_by_enumeration(formulas, names, table, combine)
    return _first_by_tables(formulas, names, width, table, combine)


def _binding_width(formulas: Sequence[Formula]) -> int:
    """The most names that enclosing blocks bind at any one node."""
    width = 0
    stack = [(f, 0) for f in formulas]
    while stack:
        f, active = stack.pop()
        if isinstance(f, App):
            stack.extend((a, active) for a in f.args)
        elif isinstance(f, Quant):
            active += len(f.block)
            width = max(width, active)
            stack.append((f.body, active))
    return width


def _first_by_enumeration(
    formulas: Sequence[Formula],
    names: list[str],
    table: OperatorTable,
    combine: Combine,
) -> Valuation | None:
    """:func:`_first` by evaluating every valuation through :func:`_compile`."""
    evaluators = [_Evaluator(f, table) for f in formulas]
    for bits in product((0, 1), repeat=len(names)):
        if combine([e.with_bits(names, bits) for e in evaluators], 1):
            return Valuation(dict(zip(names, bits)))
    return None


def _first_by_tables(
    formulas: Sequence[Formula],
    names: list[str],
    width: int,
    table: OperatorTable,
    combine: Combine,
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
        rows = combine(_truth_tables(formulas, table, env, masks, full), full)
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


_ENTER, _LEAVE_APP, _LEAVE_QUANT = range(3)


def _truth_tables(
    roots: Sequence[Formula],
    table: OperatorTable,
    env: dict[str, int],
    masks: tuple[int, ...],
    full: int,
) -> list[int]:
    """Truth tables of ``roots`` in one iterative post-order walk.

    ``env`` maps each free name to its table.  A block maps its names to the
    masks of the next free low positions for its body, then quantifies those
    positions away and restores what the names meant outside.  The result no
    longer depends on the positions, so sibling blocks reuse them.
    """
    values: list[int] = []
    depth = 0  # low positions taken by the enclosing blocks
    stack: list[tuple] = [(_ENTER, f) for f in reversed(roots)]
    while stack:
        frame = stack.pop()
        action, f = frame[0], frame[1]
        if action == _ENTER:
            if isinstance(f, Var):
                values.append(env[f.name])
            elif isinstance(f, App):
                stack.append((_LEAVE_APP, f))
                stack.extend((_ENTER, a) for a in reversed(f.args))
            else:
                stack.append((_LEAVE_QUANT, f, [(x, env.get(x)) for x in f.block]))
                for x in f.block:
                    env[x] = masks[depth]
                    depth += 1
                stack.append((_ENTER, f.body))
        elif action == _LEAVE_APP:
            op = f.op
            if op == "not":
                values[-1] ^= full
            elif op in ("and", "or", "imp", "iff", "xor"):
                b = values.pop()
                a = values[-1]
                if op == "and":
                    values[-1] = a & b
                elif op == "or":
                    values[-1] = a | b
                elif op == "imp":
                    values[-1] = (full ^ a) | b
                elif op == "iff":
                    values[-1] = full ^ a ^ b
                else:
                    values[-1] = a ^ b
            elif op == "true":
                values.append(full)
            elif op == "false":
                values.append(0)
            else:
                n = len(f.args)
                args = values[len(values) - n:]
                del values[len(values) - n:]
                values.append(_apply_user(table, op, args, full))
        else:
            t = values.pop()
            exists = f.kind is Kind.EXISTS
            for x, old in reversed(frame[2]):
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
            values.append(t)
    return values


def _apply_user(table: OperatorTable, op: str, args: list[int], full: int) -> int:
    """A user operator on argument tables: OR over the true rows of its
    truth table, first argument most significant in the row index."""
    bits = table.truth_table(op)
    if table.arity(op) != len(args):
        raise ValueError(
            f"operator '{op}' expects {table.arity(op)} arguments, got {len(args)}"
        )
    result = 0
    for row, bit in enumerate(bits):
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
    return _first([phi], table, cap, _false_rows) is None


def satisfying_assignment(
    phi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> Valuation | None:
    """The first valuation, in ``product`` order, making ``phi`` true, or None."""
    return _first([phi], table, cap, _true_rows)


def find_disagreement(
    phi: Formula,
    psi: Formula,
    table: OperatorTable | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> Valuation | None:
    """The first valuation on which the two formulas evaluate differently, or None."""
    return _first([phi, psi], table, cap, _different_rows)


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


def evaluate_via_mc(
    valuation: Valuation, phi: Formula, table: OperatorTable | None = None
) -> int:
    """Evaluate by rewriting into a boolean combination of prenex parts.

    Free variables are first fixed to constants per the valuation, the result
    is rewritten with :func:`qprenex.transform.prenex_mc`, and each maximal
    prenex subformula is then evaluated with the plain oracle, combining the
    answers through the boolean skeleton.  Agrees with :func:`evaluate`.
    """
    from .transform import prenex_mc  # cycle: transform tests against semantics

    table = table or DEFAULT_TABLE
    constants = {
        name: TRUE if valuation.value(name) else FALSE for name in free_vars(phi)
    }
    fixed = substitute(phi, constants)
    parts = prenex_mc(fixed, FreshGen.for_formula(fixed))

    def ev(f: Formula) -> int:
        if isinstance(f, Quant):
            return evaluate(valuation, f, table)
        if isinstance(f, Var):
            return valuation.value(f.name)
        return table.apply(f.op, [ev(a) for a in f.args])

    try:
        return ev(parts)
    finally:
        del ev  # break the closure's reference cycle so its frame is freed
