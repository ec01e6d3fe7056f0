"""Shared fixtures: worked-example formulas and corpus samplers."""

from __future__ import annotations

import hashlib
import random

from qprenex.core import (
    Formula,
    FreshGen,
    Kind,
    Quant,
    is_boolean,
    nblock,
    nbvar,
    substitute,
)
from qprenex.export import (
    Manifest,
    NotPrenex,
    lower_operators,
    manifest_for_text_export,
    to_qcir,
    to_qdimacs,
)
from qprenex.generate import random_formula, random_problem
from qprenex.parser import Problem, format_problem, parse_formula
from qprenex.transform import (
    decompose_outermost,
    prenex,
    prenex_mc,
    step_transform,
)


def metrics_example() -> Formula:
    """Two nested blocks plus a negated universal: nblock 3, nbvar 4."""
    return parse_formula("(exists x . a & ~(exists x y . b)) & ~(forall y . c)")


def worked_example() -> Formula:
    """The running transform example, boolean leaves instantiated to a, b, c."""
    return parse_formula("(exists x . a & ~(exists x . b)) & ~(forall y . c)")


def xor_block_input() -> Formula:
    """Exclusive-or against an existential: (a & b) xor exists x (x | a)."""
    return parse_formula("(a & b) xor (exists x . x | a)")


def xor_block_rewrite() -> Formula:
    """The fully prenexed rewrite of :func:`xor_block_input`, spelled out by hand."""
    return parse_formula(
        "forall xn . exists xp x pv . (pv <-> (x | a)) & (pv -> (x <-> xp))"
        " & (~pv -> (x <-> xn)) & ((a & b) xor pv)"
    )


def flat_encoding_pair() -> tuple[Formula, Formula]:
    """A closed formula and its unsound flat abbreviation encoding.

    The first is unsatisfiable, the second satisfiable: abbreviating
    quantified subformulas with free definition variables at the top level
    does not preserve satisfiability.
    """
    original = parse_formula(
        "exists z . (exists x . (x <-> z) & ~x) <-> (exists y . (y <-> z) & y)"
    )
    flat = parse_formula(
        "exists z x y p q . (p <-> ((x <-> z) & ~x))"
        " & (q <-> ((y <-> z) <-> y)) & (p <-> q)"
    )
    return original, flat


def oracle_problem(rng: random.Random, limit: int = 16, **kwargs) -> Problem:
    """Random problem whose transform stays brute-force checkable.

    The transformed prefix holds exactly nblock + 2*nbvar variables, so the
    rejection below bounds oracle enumeration without constraining the
    formula shape otherwise.
    """
    size_cap = kwargs.pop("max_size", 40)
    while True:
        problem = random_problem(rng, max_size=rng.randint(4, size_cap), **kwargs)
        if nblock(problem.formula) + 2 * nbvar(problem.formula) <= limit:
            return problem


def small_formula(rng: random.Random, **kwargs) -> Formula:
    defaults = dict(pool=("a", "b", "c"), max_depth=2, max_size=12)
    defaults.update(kwargs)
    return random_formula(rng, **defaults)


def layered_prenex_tracked(
    kind: Kind, phi: Formula, gen: FreshGen
) -> tuple[Formula, frozenset[str]]:
    """Reference prenexing: one :func:`step_transform` per quantifier layer.

    Each step re-walks the whole accumulated matrix, so this is quadratic in
    the quantifier depth; ``prenex_tracked`` must produce exactly its output.
    """
    steps = []
    q = kind
    while not is_boolean(phi):
        step = step_transform(q, phi, gen)
        steps.append((q, step))
        phi = step.psi
        q = q.dual
    negatives: frozenset[str] = frozenset()
    for q, step in reversed(steps):
        phi = Quant(q.dual, tuple(step.pos | negatives), phi)
        negatives = step.neg
    return phi, negatives


def layered_prenex_mc(phi: Formula, gen: FreshGen) -> Formula:
    """Reference ``prenex_mc`` built on :func:`layered_prenex_tracked`."""
    decomposition = decompose_outermost(phi, gen)
    replacements = {}
    for b in decomposition.bindings:
        inner, negatives = layered_prenex_tracked(b.kind, b.body, gen)
        replacements[b.name] = Quant(b.kind, b.block + tuple(negatives), inner)
    return substitute(decomposition.skeleton, replacements)


def cli_outputs(problem: Problem, mode: str, fmt: str) -> tuple[str, str]:
    """The formula file and ``.map`` text the CLI writes for one input."""
    source = format_problem(problem) + "\n"
    formula = problem.formula
    gen = FreshGen.for_formula(formula)
    if mode == "mc":
        result = prenex_mc(formula, gen)
    else:
        result = prenex(Kind.EXISTS if mode == "sat" else Kind.FORALL, formula, gen)
    manifest = Manifest(mode=mode, digest=hashlib.sha256(source.encode()).hexdigest())
    try:
        if fmt == "fqbf":
            manifest_for_text_export(result, manifest)
            text = format_problem(Problem(problem.declarations, result, problem.table))
        else:
            lowered = lower_operators(result, problem.table)
            if fmt == "qcir":
                text = to_qcir(lowered, problem.table, manifest)
            else:
                qmode = "valid" if mode == "valid" else "sat"
                text = to_qdimacs(lowered, problem.table, mode=qmode, manifest=manifest)
    except NotPrenex:
        return "NotPrenex\n", "NotPrenex\n"
    if not text.endswith("\n"):
        text += "\n"
    return text, manifest.render()
