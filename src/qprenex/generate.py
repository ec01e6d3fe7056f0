"""Seeded random formulas and fixed benchmark families."""

from __future__ import annotations

import random
from typing import Sequence

from .core import (
    App,
    FALSE,
    Formula,
    Kind,
    OperatorTable,
    Quant,
    TRUE,
    Var,
    iff,
)
from .parser import OpDecl, Problem

DEFAULT_POOL = ("p", "q", "r", "s", "t", "u", "v", "w")

#: (operator name, arity, weight); biconditional and exclusive-or are in by
#: default so the non-monotone path is always exercised.
DEFAULT_OPS: tuple[tuple[str, int, float], ...] = (
    ("not", 1, 2.0),
    ("and", 2, 2.0),
    ("or", 2, 2.0),
    ("imp", 2, 1.0),
    ("iff", 2, 1.5),
    ("xor", 2, 1.5),
)

MONOTONE_OPS: tuple[tuple[str, int, float], ...] = (
    ("not", 1, 1.0),
    ("and", 2, 2.0),
    ("or", 2, 2.0),
)

MAJ_DECL = OpDecl("maj", 3, "00010111")


def random_formula(
    rng: random.Random,
    *,
    pool: Sequence[str] = DEFAULT_POOL,
    max_depth: int = 4,
    max_size: int = 40,
    ops: Sequence[tuple[str, int, float]] = DEFAULT_OPS,
    quant_weight: float = 0.3,
    const_weight: float = 0.05,
    max_block: int = 2,
) -> Formula:
    """Random full QBF with quantifier depth <= max_depth and length <= max_size."""
    names = list(ops)
    weights = [w for _, _, w in names]

    def leaf() -> Formula:
        if rng.random() < const_weight:
            return TRUE if rng.random() < 0.5 else FALSE
        return Var(rng.choice(pool))

    def build(budget: int, depth: int) -> Formula:
        if budget < 3:
            return leaf()
        if depth > 0 and rng.random() < quant_weight:
            width = rng.randint(1, min(max_block, len(pool), budget - 2))
            block = rng.sample(list(pool), width)
            kind = Kind.EXISTS if rng.random() < 0.5 else Kind.FORALL
            return Quant(kind, tuple(block), build(budget - 1 - width, depth - 1))
        name, arity, _ = rng.choices(names, weights)[0]
        if arity == 0:
            return App(name, ())
        if budget - 1 < arity:
            return leaf()
        splits = sorted(rng.sample(range(1, budget - 1), arity - 1)) if arity > 1 else []
        shares = [b - a for a, b in zip([0] + splits, splits + [budget - 1])]
        return App(name, tuple(build(share, depth) for share in shares))

    return build(max(1, max_size), max_depth)


def random_problem(
    rng: random.Random,
    *,
    pool: Sequence[str] = DEFAULT_POOL,
    max_depth: int = 4,
    max_size: int = 40,
    monotone: bool = False,
) -> Problem:
    """Random problem; unless monotone, declares a majority operator and may use it."""
    table = OperatorTable()
    decls: tuple[OpDecl, ...] = ()
    if monotone:
        ops: tuple[tuple[str, int, float], ...] = MONOTONE_OPS
    else:
        table.add(MAJ_DECL.name, MAJ_DECL.arity, (int(b) for b in MAJ_DECL.bits))
        decls = (MAJ_DECL,)
        ops = DEFAULT_OPS + ((MAJ_DECL.name, MAJ_DECL.arity, 0.5),)
    formula = random_formula(
        rng, pool=pool, max_depth=max_depth, max_size=max_size, ops=ops
    )
    return Problem(decls, formula, table)


def nested_iff_family(k: int) -> Formula:
    """Chain of biconditionals against existential subformulas, k levels deep.

    The classic baseline doubles at every level on this family while the
    layered transform stays linear.
    """
    if k < 1:
        raise ValueError("family is defined for k >= 1")
    inner: Formula = Var(f"y{k}")
    for i in range(k, 0, -1):
        inner = iff(Var(f"x{i}"), Quant(Kind.EXISTS, (f"y{i}",), inner))
    return inner
