"""The benchmark's workloads: seeded inputs and the mode / format plan per input.

Each workload has a timed corpus and a family of small instances.  The
small instances come from the same generator with small parameters, so the
benchmark's own evaluator can decide them and their exported outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from qprenex.core import App, Kind, OperatorTable, Quant, Var, nblock, nbvar, substitute
from qprenex.generate import DEFAULT_POOL, nested_iff_family, random_problem
from qprenex.parser import Problem


@dataclass(frozen=True)
class Item:
    """One operation of the closed loop: an input run in one mode and format.

    ``check`` adds the ``qprenex check INPUT TRANSFORMED`` step.
    """

    stem: str
    mode: str
    fmt: str
    check: bool = False

    @property
    def out_name(self) -> str:
        return f"{self.stem}.{self.mode}.{self.fmt}"


# Modes and formats each workload runs on every input.
PLANS = {
    "deep_layers": (("sat", "fqbf"), ("valid", "fqbf")),
    "wide_prefix": (("sat", "qdimacs"), ("valid", "qcir")),
    "random_pipeline": (("sat", "qdimacs"), ("valid", "qcir"), ("mc", "fqbf")),
    "oracle_check": (("sat", "fqbf"), ("valid", "fqbf"), ("mc", "fqbf")),
}

# deep_layers: the k of each nested_iff_family(k) input.
DEEP_K = (100, 130, 160)
DEEP_SMALL_K = (1, 2, 3, 4, 5)
# wide_prefix: bindings in the single layer, and the free names they read.
WIDE_BINDINGS = 2000
WIDE_FREE = 64
WIDE_SMALL_BINDINGS = (1, 2, 3)
WIDE_SMALL_FREE = 2
# The timed corpora of the two random workloads are fixed draws: a fresh
# draw per seed moved random_pipeline's output bytes by 56 % and
# oracle_check's throughput by 2x (interquartile range over seeds), because
# a few inputs dominate (nested user operators, oracle enumeration).  The
# seed renames their names (see _reletter) and draws the small instances.
# random_pipeline: inputs per pass and the generator's size budget.
RANDOM_CORPUS_SEED = 2506
RANDOM_INPUTS = 6
RANDOM_MAX_SIZE = 4000
RANDOM_MAX_DEPTH = 4
# oracle_check: the acceptance suite's criterion 4 stream, problems per
# pass, and the prefix cap after the transform.
ORACLE_CORPUS_SEED = 20240
ORACLE_PROBLEMS = 200
ORACLE_PREFIX_LIMIT = 16
ORACLE_MAX_SIZE = 40
# Small random instances for both random families.
SMALL_COUNT = 8
SMALL_PREFIX_LIMIT = 10
SMALL_POOL = ("a", "b", "c", "d")


def _plain(formula) -> Problem:
    return Problem((), formula, OperatorTable())


def _deep(rng: random.Random, small: bool) -> list[Problem]:
    """The family is fixed; the seed only permutes each input's free names
    x1..xk among the levels, so every seed does the same work."""
    problems = []
    for k in DEEP_SMALL_K if small else DEEP_K:
        names = [f"x{i}" for i in range(1, k + 1)]
        shuffled = rng.sample(names, k)
        renaming = {old: Var(new) for old, new in zip(names, shuffled)}
        problems.append(_plain(substitute(nested_iff_family(k), renaming)))
    return problems


# Binding bodies: three leaves and two binary operators each, so every
# binding has the same length whatever the seed draws.
_BODIES = (
    lambda a, b, z: App("or", (App("xor", (a, z)), b)),
    lambda a, b, z: App("and", (App("iff", (a, z)), App("not", (b,)))),
    lambda a, b, z: App("xor", (App("or", (a, z)), b)),
    lambda a, b, z: App("iff", (App("and", (a, b)), z)),
)


def wide_formula(rng: random.Random, bindings: int, nfree: int):
    """One layer of two-variable bindings, joined pairwise by xor / <->
    into a balanced tree so that no printer or parser recursion grows with
    the width."""
    parts = []
    for i in range(bindings):
        a, b = f"a{i}", f"b{i}"
        body = rng.choice(_BODIES)(Var(a), Var(b), Var(f"z{rng.randrange(nfree)}"))
        kind = rng.choice((Kind.EXISTS, Kind.FORALL))
        parts.append(Quant(kind, (a, b), body))
    while len(parts) > 1:
        joined = [
            App(rng.choice(("xor", "iff")), (parts[j], parts[j + 1]))
            for j in range(0, len(parts) - 1, 2)
        ]
        parts = joined + parts[len(parts) - len(parts) % 2:]
    return parts[0]


def _wide(rng: random.Random, small: bool) -> list[Problem]:
    if small:
        return [_plain(wide_formula(rng, b, WIDE_SMALL_FREE)) for b in WIDE_SMALL_BINDINGS]
    return [_plain(wide_formula(rng, WIDE_BINDINGS, WIDE_FREE))]


def capped_problems(rng: random.Random, count: int, limit: int, **kwargs) -> list[Problem]:
    """Random problems whose transform has at most ``limit`` prefix
    variables, drawn as the repository's acceptance suite draws them."""
    problems = []
    while len(problems) < count:
        problem = random_problem(rng, max_size=rng.randint(4, ORACLE_MAX_SIZE), **kwargs)
        # The transform's prefix holds nblock + 2 * nbvar variables.
        if nblock(problem.formula) + 2 * nbvar(problem.formula) <= limit:
            problems.append(problem)
    return problems


def renamed(phi, mapping: dict[str, str]):
    """``phi`` with every name, free or bound, renamed by ``mapping``."""
    if isinstance(phi, Var):
        return Var(mapping.get(phi.name, phi.name))
    if isinstance(phi, Quant):
        block = tuple(mapping.get(x, x) for x in phi.block)
        return Quant(phi.kind, block, renamed(phi.body, mapping))
    return App(phi.op, tuple(renamed(a, mapping) for a in phi.args))


def _reletter(rng: random.Random, problems: list[Problem]) -> list[Problem]:
    """Rename the generator's pool p..w to eight other letters drawn from
    the seed, keeping their order.  The oracle enumerates names in sorted
    order and its cost follows that order, so this keeps every seed's work
    the same; other renamings moved oracle_check's pass time by 48 %."""
    mapping = dict(zip(DEFAULT_POOL, sorted(rng.sample("abcdefghijklmnopqrstuvwxyz", len(DEFAULT_POOL)))))
    return [Problem(p.declarations, renamed(p.formula, mapping), p.table) for p in problems]


def _random(rng: random.Random, small: bool) -> list[Problem]:
    if small:
        return capped_problems(rng, SMALL_COUNT, SMALL_PREFIX_LIMIT, pool=SMALL_POOL)
    corpus = random.Random(RANDOM_CORPUS_SEED)
    problems = [
        random_problem(corpus, max_size=RANDOM_MAX_SIZE, max_depth=RANDOM_MAX_DEPTH)
        for _ in range(RANDOM_INPUTS)
    ]
    return _reletter(rng, problems)


def _oracle(rng: random.Random, small: bool) -> list[Problem]:
    if small:
        return capped_problems(rng, SMALL_COUNT, SMALL_PREFIX_LIMIT)
    corpus = random.Random(ORACLE_CORPUS_SEED)
    return _reletter(rng, capped_problems(corpus, ORACLE_PROBLEMS, ORACLE_PREFIX_LIMIT))


GENERATORS = {
    "deep_layers": _deep,
    "wide_prefix": _wide,
    "random_pipeline": _random,
    "oracle_check": _oracle,
}


def build(workload: str, seed: int, small: bool = False) -> tuple[dict[str, Problem], list[Item]]:
    """Inputs by file stem, and the items of one pass over them."""
    rng = random.Random(f"{workload}/{seed}/{'small' if small else 'timed'}")
    tag = "small" if small else "in"
    problems = {f"{tag}{i:03d}": p for i, p in enumerate(GENERATORS[workload](rng, small))}
    check = workload == "oracle_check"
    items = [
        Item(stem, mode, fmt, check)
        for stem in problems
        for mode, fmt in PLANS[workload]
    ]
    return problems, items
