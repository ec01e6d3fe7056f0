"""Syntax trees, metrics, and substitution for fully quantified boolean formulas.

A formula is an immutable tree built from three node types: variable leaves,
applications of named n-ary boolean operators, and quantifier blocks binding
finite sets of variables.  Operator meanings live in an :class:`OperatorTable`
mapping each name to a truth table.  Variable names containing ``@`` are
reserved for machine-generated variables (see :class:`FreshGen`); source-level
names never contain it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

RESERVED_CHAR = "@"

T = TypeVar("T")


class Kind(Enum):
    """Quantifier kind."""

    EXISTS = "exists"
    FORALL = "forall"

    @property
    def dual(self) -> "Kind":
        return Kind.FORALL if self is Kind.EXISTS else Kind.EXISTS


@dataclass(frozen=True, slots=True, init=False)
class Var:
    """Variable occurrence."""

    name: str

    def __init__(self, name: str) -> None:
        _set_name(self, name)


@dataclass(frozen=True, slots=True, init=False)
class App:
    """Application of a named boolean operator to argument formulas."""

    op: str
    args: tuple["Formula", ...]

    def __init__(self, op: str, args: tuple["Formula", ...]) -> None:
        _set_op(self, op)
        _set_args(self, args)


@dataclass(frozen=True, slots=True, init=False)
class Quant:
    """Quantifier block binding a finite set of variables in a body.

    Blocks are kept as sorted, duplicate-free tuples so that structural
    equality coincides with set equality and printing is deterministic.
    The block may be empty; empty blocks still count for nblock/qdepth.
    """

    kind: Kind
    block: tuple[str, ...]
    body: "Formula"

    def __init__(self, kind: Kind, block: Iterable[str], body: "Formula") -> None:
        if type(block) is not tuple or len(block) > 1:
            block = tuple(sorted(set(block)))
        _set_kind(self, kind)
        _set_block(self, block)
        _set_body(self, body)


# Node constructors set each slot through its descriptor, not through the
# frozen ``__setattr__``: every stage builds about one node per input symbol.
_set_name = Var.__dict__["name"].__set__
_set_op, _set_args = (App.__dict__[f].__set__ for f in App.__slots__)
_set_kind, _set_block, _set_body = (Quant.__dict__[f].__set__ for f in Quant.__slots__)

Formula = Union[Var, App, Quant]


class CaptureError(Exception):
    """A substitution would capture a free variable of a replacement.

    Raised instead of silently alpha-renaming: callers are expected to
    guarantee freshness, so a capture signals a bug upstream.
    """

    def __init__(self, key: str, captured: str, block: tuple[str, ...]):
        self.key = key
        self.captured = captured
        self.block = block
        super().__init__(
            f"substituting for '{key}' would capture '{captured}' "
            f"under the block {{{', '.join(block)}}}"
        )


# ---------------------------------------------------------------------------
# Operator tables

#: ``name -> truth table``; tables are indexed by the argument tuple read
#: as a binary number, first argument most significant, so an operator of
#: arity n has a table of 2^n entries.
BUILTIN_OPERATORS: dict[str, tuple[int, ...]] = {
    "false": (0,),
    "true": (1,),
    "not": (1, 0),
    "and": (0, 0, 0, 1),
    "or": (0, 1, 1, 1),
    "imp": (1, 1, 0, 1),
    "iff": (1, 0, 0, 1),
    "xor": (0, 1, 1, 0),
}


class OperatorTable:
    """Named boolean operators and their truth tables.

    Always contains the built-in operators; user operators are added with
    :meth:`add` and may have any arity >= 0.
    """

    def __init__(self) -> None:
        self._tables: dict[str, tuple[int, ...]] = dict(BUILTIN_OPERATORS)

    def add(self, name: str, arity: int, bits: Iterable[int]) -> None:
        if name in self._tables:
            raise ValueError(f"operator '{name}' is already defined")
        table = tuple(int(b) for b in bits)
        if arity < 0:
            raise ValueError(f"operator '{name}': negative arity")
        size = len(table)
        # Only arity ``size.bit_length() - 1`` fits, so ``2 ** arity`` is
        # never computed for an absurd arity; spelled out below 10,000.
        if arity != size.bit_length() - 1 or size != 1 << arity:
            expected = 1 << arity if arity < 10_000 else f"2^{arity}"
            raise ValueError(
                f"operator '{name}': truth table has {size} entries, "
                f"expected {expected}"
            )
        if any(b not in (0, 1) for b in table):
            raise ValueError(f"operator '{name}': truth table entries must be 0 or 1")
        self._tables[name] = table

    def has(self, name: str) -> bool:
        return name in self._tables

    def declares_user_operators(self) -> bool:
        return len(self._tables) > len(BUILTIN_OPERATORS)

    def arity(self, name: str) -> int:
        return len(self._table(name)).bit_length() - 1

    def rows(self, name: str, n: int) -> tuple[int, ...]:
        """The truth table of ``name``, checked against ``n`` arguments."""
        table = self._table(name)
        arity = len(table).bit_length() - 1
        if arity != n:
            raise ValueError(f"operator '{name}' expects {arity} arguments, got {n}")
        return table

    def apply(self, name: str, values: Iterable[int]) -> int:
        values = tuple(values)
        index = 0
        for v in values:
            index = index << 1 | (1 if v else 0)
        return self.rows(name, len(values))[index]

    def _table(self, name: str) -> tuple[int, ...]:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"unknown operator '{name}'") from None


DEFAULT_TABLE = OperatorTable()


# ---------------------------------------------------------------------------
# Constructors

TRUE = App("true", ())
FALSE = App("false", ())


def neg(phi: Formula) -> Formula:
    return App("not", (phi,))


def conj(a: Formula, b: Formula) -> Formula:
    return App("and", (a, b))


def disj(a: Formula, b: Formula) -> Formula:
    return App("or", (a, b))


def implies(a: Formula, b: Formula) -> Formula:
    return App("imp", (a, b))


def iff(a: Formula, b: Formula) -> Formula:
    return App("iff", (a, b))


def xor(a: Formula, b: Formula) -> Formula:
    return App("xor", (a, b))


def exists(names: Iterable[str], body: Formula) -> Formula:
    return Quant(Kind.EXISTS, tuple(names), body)


def forall(names: Iterable[str], body: Formula) -> Formula:
    return Quant(Kind.FORALL, tuple(names), body)


def big_conj(items: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty yields ``true``, ``true`` conjuncts drop."""
    acc: Formula | None = None
    for item in items:
        if item == TRUE:
            continue
        acc = item if acc is None else conj(acc, item)
    return TRUE if acc is None else acc


# ---------------------------------------------------------------------------
# Traversal
#
# No walk over a formula recurses: transformed and especially naively
# prenexed formulas can nest far deeper than the recursion limit.  Every
# rewrite is a node rule passed to the one explicit-stack loop in :func:`fold`
# (a catamorphism: Meijer, Fokkinga & Paterson, FPCA 1991).  The metrics
# that only count loop over the list :func:`nodes` returns, and qdepth and
# the transform's layers over the per-layer lists of :func:`layer_counts`;
# the oracle's binding width, which depends on the names bound above a node,
# loops over the generator :func:`scopes`.  :func:`free_vars` keeps its own
# loop, because it must see a block's scope close, and :func:`is_boolean` its
# own, because it stops at the first quantifier.  The walks tell nodes apart
# by exact type: do not subclass a node.

_LEAVE = object()  # stack marker: the node below it has all its kids' values


def fold(
    phi: Formula,
    leave: Callable[[Formula, list], T],
    enter: Callable[[Quant], bool] | None = None,
    memo: dict[int, T] | None = None,
) -> T:
    """Post-order fold of ``phi`` over an explicit stack.

    ``leave(f, kids)`` builds the value of node ``f`` from its children's
    values, in order: the arguments of an application, or ``[body]`` for a
    quantifier.  ``enter(q)`` runs before a quantifier's body; when it
    returns false, the quantifier is a leaf.  Leaves (variables, nullary
    applications and such quantifiers) get ``kids == ()``.  Nodes are entered
    and left depth-first, left to right, so the callbacks may keep context on
    a stack of their own, pushed in ``enter`` and popped in ``leave``.
    With ``memo``, keyed by ``id``, an application object with arguments is
    left once and its later occurrences reuse its value.  That is sound only
    where a node's value does not depend on where it occurs.  Nodes are told
    apart by exact type, so an instance of a subclass of a node is not one.
    """
    values: list = []
    stack: list = [phi]
    push, pop, extend, put = stack.append, stack.pop, stack.extend, values.append
    while stack:
        f = pop()
        if type(f) is Var:
            put(leave(f, ()))
        elif type(f) is App and f.args:
            if memo is not None and id(f) in memo:
                put(memo[id(f)])
            else:
                push(f)
                push(_LEAVE)
                extend(f.args[::-1])
        elif f is _LEAVE:
            f = pop()
            if type(f) is App:
                n = len(f.args)
                kids = values[-n:]
                del values[-n:]
                put(leave(f, kids))
                if memo is not None:
                    memo[id(f)] = values[-1]
            else:
                values[-1] = leave(f, [values[-1]])
        elif type(f) is Quant and (enter is None or enter(f)):
            push(f)
            push(_LEAVE)
            push(f.body)
        else:
            put(leave(f, ()))
    return values[0]


# ---------------------------------------------------------------------------
# Metrics


def nodes(phi: Formula) -> list[Formula]:
    """Every node of ``phi``, each before its children.

    The order among siblings and subtrees is unspecified.
    """
    out = [phi]
    extend = out.extend
    for f in out:  # the loop also reads what it appends
        if type(f) is App:
            extend(f.args)
        elif type(f) is Quant:
            out.append(f.body)
    return out


def length(phi: Formula) -> int:
    """Symbol count: variables and operators weigh 1, negations weigh 0,
    a quantifier block weighs 1 plus its number of variables."""
    every = nodes(phi)
    total = len(every)
    for f in every:
        if type(f) is Quant:
            total += len(f.block)
        elif type(f) is App and f.op == "not":
            total -= 1
    return total


def layer_counts(phi: Formula) -> list[int]:
    """Number of quantifier nodes at each layer (layer 0 is outermost)."""
    counts: list[int] = []
    layer = [phi]
    while True:
        bodies = []
        for f in layer:  # the loop also reads what it appends
            if type(f) is App:
                layer.extend(f.args)
            elif type(f) is Quant:
                bodies.append(f.body)
        if not bodies:
            return counts
        counts.append(len(bodies))
        layer = bodies


def scopes(phi: Formula) -> Iterator[tuple[Formula, int, int]]:
    """Every node of ``phi``, each before its children, with the number of
    quantifier blocks above it and the number of names those blocks bind.

    The order among siblings and subtrees is unspecified.
    """
    stack = [(phi, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        yield item
        f, blocks, names = item
        if type(f) is App:
            for a in f.args:
                push((a, blocks, names))
        elif type(f) is Quant:
            push((f.body, blocks + 1, names + len(f.block)))


def qdepth(phi: Formula) -> int:
    """Maximum nesting of quantifier blocks along any path (not alternation)."""
    return len(layer_counts(phi))


def nblock(phi: Formula) -> int:
    """Number of quantifier block occurrences."""
    return sum(1 for f in nodes(phi) if type(f) is Quant)


def nbvar(phi: Formula) -> int:
    """Total number of quantified variables, summed over block occurrences."""
    return sum(len(f.block) for f in nodes(phi) if type(f) is Quant)


def vars_of(phi: Formula) -> frozenset[str]:
    """All occurring variables; a mention in a block counts as an occurrence."""
    seen: set[str] = set()
    for f in nodes(phi):
        if type(f) is Var:
            seen.add(f.name)
        elif type(f) is Quant:
            seen.update(f.block)
    return frozenset(seen)


def free_vars(phi: Formula) -> frozenset[str]:
    """Variables with at least one occurrence not under a block binding them."""
    free: set[str] = set()
    bound: dict[str, int] = {}  # name -> number of enclosing blocks binding it
    stack: list = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Var):
            if f.name not in bound:
                free.add(f.name)
        elif isinstance(f, App):
            stack.extend(f.args)
        elif isinstance(f, Quant):
            for x in f.block:
                bound[x] = bound.get(x, 0) + 1
            stack.append(f.block)  # popped once the body is done
            stack.append(f.body)
        else:
            for x in f:
                if bound[x] == 1:
                    del bound[x]
                else:
                    bound[x] -= 1
    return frozenset(free)


def is_boolean(phi: Formula) -> bool:
    """True iff the formula contains no quantifier; stops at the first one."""
    out = [phi]
    for f in out:
        if type(f) is App:
            out.extend(f.args)
        elif type(f) is Quant:
            return False
    return True


def is_prenex(phi: Formula) -> bool:
    """True iff the formula is a chain of quantifier blocks over a boolean body."""
    while isinstance(phi, Quant):
        phi = phi.body
    return is_boolean(phi)


def prefix_blocks(phi: Formula) -> tuple[list[tuple[Kind, tuple[str, ...]]], Formula]:
    """Split ``phi`` into its leading quantifier chain and the remaining body."""
    blocks: list[tuple[Kind, tuple[str, ...]]] = []
    while isinstance(phi, Quant):
        blocks.append((phi.kind, phi.block))
        phi = phi.body
    return blocks, phi


# ---------------------------------------------------------------------------
# Substitution

Substitution = Mapping[str, Formula]


def substitute(phi: Formula, sigma: Substitution) -> Formula:
    """Simultaneously replace free occurrences of the keys of ``sigma``.

    Requires every replacement to be free for its key: no free occurrence of
    a key may sit under a quantifier binding a free variable of the
    replacement.  Violations raise :class:`CaptureError`; there is no silent
    renaming.
    """
    if not sigma:
        return phi
    replacement_fvs = {p: free_vars(rep) for p, rep in sigma.items()}
    lives: list[dict[str, Formula]] = [dict(sigma)]  # innermost last

    def enter(f: Quant) -> bool:
        blockset = set(f.block)
        live = {p: rep for p, rep in lives[-1].items() if p not in blockset}
        risky = [p for p in live if replacement_fvs[p] & blockset]
        if risky:
            body_free = free_vars(f.body)
            for p in sorted(risky):
                if p in body_free:
                    captured = sorted(replacement_fvs[p] & blockset)[0]
                    raise CaptureError(p, captured, f.block)
                del live[p]
        if not live:
            return False
        lives.append(live)
        return True

    def leave(f: Formula, kids: list) -> Formula:
        if isinstance(f, Var):
            return lives[-1].get(f.name, f)
        if isinstance(f, App):
            return App(f.op, tuple(kids))
        if not kids:
            return f
        lives.pop()
        return Quant(f.kind, f.block, kids[0])

    return fold(phi, leave, enter)


# ---------------------------------------------------------------------------
# Constant folding


def fold_app(
    op: str, args: tuple[Formula, ...], table: OperatorTable = DEFAULT_TABLE
) -> Formula:
    """Constant-fold one application of ``op`` to already folded ``args``.

    The result is read off ``op``'s truth table.  With every argument
    constant it is the table entry.  A built-in connective with one open
    argument ``a`` becomes ``false``, ``true``, ``a`` or ``~a``, whichever
    the two rows that ``a`` still chooses between spell.  Anything else,
    including a user operator with an open argument or an operator unknown
    to ``table``, stays as it is.
    """
    index = 0  # the arguments read as a binary number, the open one as 0
    hole = 0  # the open argument's bit in ``index``; 0 while none is open
    for a in args:
        index <<= 1
        hole <<= 1
        if a == TRUE:
            index |= 1
        elif a != FALSE:
            if hole or op not in BUILTIN_OPERATORS:
                return App(op, args)
            hole = 1
            rest = a
    if not table.has(op):
        return App(op, args)
    rows = table.rows(op, len(args))
    low = rows[index]
    if not hole or low == rows[index | hole]:
        return TRUE if low else FALSE
    return neg(rest) if low else rest


# ---------------------------------------------------------------------------
# Fresh names

ROLE_SOURCE = "source"
ROLE_POS = "pos-copy"
ROLE_NEG = "neg-copy"
ROLE_ABBREV = "abbrev"
ROLE_TSEYTIN = "tseytin"


@dataclass(frozen=True, slots=True)
class NameInfo:
    """Provenance of a variable name: role, source it copies, allocation index."""

    role: str
    origin: str
    index: int


def pos_copy(source: str, index: int) -> str:
    return f"{source}@p{index}"


def neg_copy(source: str, index: int) -> str:
    return f"{source}@n{index}"


def abbrev_name(index: int) -> str:
    return f"@a{index}"


def _decode_name(name: str) -> tuple[str, str, int] | None:
    """``(role, origin, index)`` of a generated name, read off the tag after
    its last ``@``; None for a source name, or an origin holding a newline."""
    origin, at, tail = name.rpartition(RESERVED_CHAR)
    index = tail[1:]
    if not at or not index.isdecimal() or "\n" in origin:
        return None
    tag = tail[0]
    if tag == "p":
        return ROLE_POS, origin, int(index)
    if tag == "n":
        return ROLE_NEG, origin, int(index)
    if tag == "a" and not origin:
        return ROLE_ABBREV, "abbrev", int(index)
    return None


def classify_name(name: str) -> NameInfo | None:
    """Decode a generated name back to its provenance; None for source names,
    such as ``x@a5``: only the tag after the last ``@`` decides."""
    return NameInfo(*decoded) if (decoded := _decode_name(name)) else None


class FreshGen:
    """Deterministic allocator of fresh-name indices.

    All derived names contain the reserved character ``@``, so they can never
    collide with source-parsed variables.  An input may still contain
    generated names (re-ingested output), so every transform that allocates
    indices calls :meth:`advance_past` on its input first: whatever generator
    the caller passes, no index it then hands out names a variable of the
    input.
    """

    def __init__(self, start: int = 1) -> None:
        if start < 1:
            raise ValueError("allocation indices start at 1")
        self._next = start
        self._past: Formula | None = None  # the last formula advanced past

    @classmethod
    def for_formula(cls, phi: Formula) -> "FreshGen":
        return cls().advance_past(phi)

    def advance_past(self, phi: Formula) -> "FreshGen":
        """Move past every index a generated name in ``phi`` carries; never
        back.  The last ``phi`` is not scanned again: nodes are immutable,
        and the next index only grows."""
        if phi is self._past:
            return self
        for name in vars_of(phi):
            decoded = RESERVED_CHAR in name and _decode_name(name)
            if decoded and decoded[2] >= self._next:
                self._next = decoded[2] + 1
        self._past = phi
        return self

    def allocate(self) -> int:
        return self.reserve(1)

    def reserve(self, count: int) -> int:
        """Allocate ``count`` consecutive indices; returns the first."""
        index = self._next
        self._next += count
        return index
