"""Quantifier prenexing with linear size growth and preserved quantifier depth.

The construction is defined on the outermost layer of quantifiers at a time:

* :func:`decompose_outermost` splits a formula into a boolean skeleton over
  fresh abbreviation variables plus one binding per maximal quantified
  subformula occurrence.
* :func:`step_transform` rewrites one layer: every abbreviation is defined
  by a biconditional against its body (quantified variables replaced by
  fresh positive copies), and a guard per binding ties positive to negative
  copies so the dropped quantifiers can be re-bound outside.
* :func:`prenex` produces exactly what iterating the step would, fusing each
  layer's introduced variables into one alternating prefix, but writes every
  layer in one linear-time pass over the input; :func:`prenex_mc` instead
  rebuilds the boolean skeleton over independently prenexed subformulas,
  which preserves logical equivalence rather than just equisatisfiability.

:func:`naive_prenex` is the classic preprocessing baseline kept as a foil
and secondary oracle: quantifiers move directly across monotone operators,
while occurrences under non-monotone operators are case-split, which blows
up exponentially once such operators nest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    App,
    FALSE,
    Formula,
    FreshGen,
    Kind,
    Quant,
    TRUE,
    Var,
    abbrev_name,
    big_conj,
    conj,
    fold,
    fold_app,
    free_vars,
    iff,
    implies,
    is_boolean,
    length,
    neg,
    neg_copy,
    pos_copy,
    scopes,
    substitute,
    vars_of,
)

DEFAULT_SIZE_BUDGET = 1_000_000


class SizeBudgetExceeded(Exception):
    """The baseline rewrite outgrew its budget: expected blowup, not a bug."""

    def __init__(self, size: int, budget: int):
        self.size = size
        self.budget = budget
        super().__init__(f"rewritten formula reached length {size} (budget {budget})")


class PreconditionError(ValueError):
    """A caller-supplied argument violates a stated precondition."""


@dataclass(frozen=True)
class Binding:
    """One abbreviated quantified subformula occurrence."""

    name: str
    kind: Kind
    block: tuple[str, ...]
    body: Formula
    index: int


@dataclass(frozen=True)
class Decomposition:
    """Boolean skeleton plus the bindings abbreviating its quantified parts."""

    skeleton: Formula
    bindings: tuple[Binding, ...]


@dataclass(frozen=True)
class StepResult:
    """One-layer transform output with its bookkeeping sets.

    ``neg`` holds the fresh negative copies, ``pos`` the positive copies plus
    the abbreviation variables.
    """

    psi: Formula
    neg: frozenset[str]
    pos: frozenset[str]


def decompose_outermost(phi: Formula, gen: FreshGen | None = None) -> Decomposition:
    """Abbreviate every maximal quantified subformula occurrence.

    The traversal is depth-first left-to-right; identical occurrences get
    distinct abbreviation variables (tree semantics, no sharing).  A boolean
    input yields itself with no bindings.
    """
    gen = (gen or FreshGen()).advance_past(phi)
    bindings: list[Binding] = []

    def leave(f: Formula, kids: list) -> Formula:
        if isinstance(f, App):
            return App(f.op, tuple(kids))
        if isinstance(f, Quant):
            index = gen.allocate()
            name = abbrev_name(index)
            bindings.append(Binding(name, f.kind, f.block, f.body, index))
            return Var(name)
        return f

    skeleton = fold(phi, leave, lambda q: False)  # quantifiers are leaves
    return Decomposition(skeleton, tuple(bindings))


def extract_quantifier(
    psi: Formula,
    p: str,
    kind: Kind,
    block: tuple[str, ...],
    phi: Formula,
    outer: tuple[str, ...],
    gen: FreshGen | None = None,
) -> Formula:
    """Move one quantifier outwards, fusing it with an existing outer block.

    Given that ``p`` abbreviates ``kind block . phi`` inside ``psi``, builds a
    formula equivalent to ``exists outer . psi[p := kind block . phi]``: the
    negative copies are bound universally outside, and ``outer``, the positive
    copies, and ``p`` itself existentially inside, with one guard equation per
    quantified variable.
    """
    gen = (gen or FreshGen()).advance_past(conj(psi, phi))
    if p not in vars_of(psi):
        raise PreconditionError(f"'{p}' does not occur in the host formula")
    if p in free_vars(phi):
        raise PreconditionError(f"'{p}' occurs free in the abbreviated body")
    if any(
        p in f.block if type(f) is Quant else type(f) is Var and f.name == p and blocks
        for f, blocks, _ in scopes(psi)
    ):
        raise PreconditionError(
            f"'{p}' occurs inside a quantifier scope of the host formula"
        )
    allowed = vars_of(psi) - vars_of(phi)
    stray = set(outer) - allowed
    if stray:
        raise PreconditionError(
            f"outer block variables {sorted(stray)} must occur in the host "
            "formula and not in the abbreviated body"
        )

    index = gen.allocate()
    positive = {x: pos_copy(x, index) for x in block}
    negative = {x: neg_copy(x, index) for x in block}
    sigma = {x: Var(positive[x]) for x in block}
    parts = [psi, iff(Var(p), substitute(phi, sigma))]
    head_of = (lambda q: neg(q)) if kind is Kind.EXISTS else (lambda q: q)
    for x in block:
        parts.append(implies(head_of(Var(p)), iff(Var(positive[x]), Var(negative[x]))))
    inner = Quant(
        Kind.EXISTS, tuple(outer) + tuple(positive.values()) + (p,), big_conj(parts)
    )
    return Quant(Kind.FORALL, tuple(negative.values()), inner)


def step_transform(kind: Kind, phi: Formula, gen: FreshGen | None = None) -> StepResult:
    """Rewrite one quantifier layer away, for re-binding under ``kind``.

    Every abbreviation gets a defining biconditional (with its block replaced
    by fresh positive copies) and, for non-empty blocks, exactly one guard:
    for an existential binding the copies must agree when the abbreviation is
    false, for a universal one when it is true.  The conjunction of these is
    conjoined with the skeleton when ``kind`` is FORALL and made to imply it
    when ``kind`` is EXISTS.
    """
    gen = gen or FreshGen()  # decompose_outermost advances it past phi
    decomposition = decompose_outermost(phi, gen)
    if not decomposition.bindings:
        return StepResult(phi, frozenset(), frozenset())

    parts: list[Formula] = []
    negatives: set[str] = set()
    positives: set[str] = set()
    for b in decomposition.bindings:
        positives.add(b.name)
        sigma = {x: Var(pos_copy(x, b.index)) for x in b.block}
        parts.append(iff(Var(b.name), substitute(b.body, sigma)))
        if b.block:
            equalities = big_conj(
                [
                    iff(Var(pos_copy(x, b.index)), Var(neg_copy(x, b.index)))
                    for x in b.block
                ]
            )
            head = neg(Var(b.name)) if b.kind is Kind.EXISTS else Var(b.name)
            parts.append(implies(head, equalities))
        for x in b.block:
            positives.add(pos_copy(x, b.index))
            negatives.add(neg_copy(x, b.index))

    core = big_conj(parts)
    if kind is Kind.FORALL:
        psi = conj(core, decomposition.skeleton)
    else:
        psi = implies(core, decomposition.skeleton)
    return StepResult(psi, frozenset(negatives), frozenset(positives))


def _layer_counts(phi: Formula) -> list[int]:
    """Number of quantifier nodes at each layer (layer 0 is outermost)."""
    counts: list[int] = []
    for f, layer, _ in scopes(phi):
        if type(f) is Quant:
            if layer == len(counts):
                counts.append(0)
            counts[layer] += 1
    return counts


def prenex_tracked(
    kind: Kind, phi: Formula, gen: FreshGen | None = None
) -> tuple[Formula, frozenset[str]]:
    """Like :func:`prenex`, also returning the first layer's negative copies.

    One pass does the work of iterating :func:`step_transform` per layer.
    Indices are handed out layer by layer, left to right within a layer, as
    the layered iteration would.  A single :func:`fold` then replaces every
    quantifier node by its abbreviation variable, renaming bound occurrences
    through one mutable environment (bound name -> current positive copy),
    and files the node's definition and guard under its layer.  The cores
    and fused blocks are assembled inside out at the end.
    """
    gen = (gen or FreshGen()).advance_past(phi)
    counts = _layer_counts(phi)
    if not counts:
        return phi, frozenset()
    next_index: list[int] = []
    index = gen.reserve(sum(counts))
    for count in counts:
        next_index.append(index)
        index += count
    parts: list[list[Formula]] = [[] for _ in counts]
    positives: list[list[str]] = [[] for _ in counts]
    negatives: list[list[str]] = [[] for _ in counts]
    env: dict[str, Var] = {}
    # One frame per enclosing quantifier: its index, the outer meanings of
    # the names it shadows, and its positive copies.
    frames: list[tuple[int, list[tuple[str, Var]], list[Var]]] = []

    def enter(f: Quant) -> bool:
        layer = len(frames)
        index = next_index[layer]
        next_index[layer] = index + 1
        shadowed = [(x, env[x]) for x in f.block if x in env]
        copies = [Var(pos_copy(x, index)) for x in f.block]
        env.update(zip(f.block, copies))
        frames.append((index, shadowed, copies))
        return True

    def leave(f: Formula, kids: list) -> Formula:
        if isinstance(f, Var):
            return env.get(f.name, f)
        if isinstance(f, App):
            unchanged = all(a is b for a, b in zip(kids, f.args))
            return f if unchanged else App(f.op, tuple(kids))
        index, shadowed, copies = frames.pop()
        layer = len(frames)
        for x in f.block:
            del env[x]
        env.update(shadowed)
        abbrev = Var(abbrev_name(index))
        layer_parts = parts[layer]
        layer_parts.append(iff(abbrev, kids[0]))
        positives[layer].append(abbrev.name)
        if f.block:
            partners = [Var(neg_copy(x, index)) for x in f.block]
            equalities = big_conj([iff(p, q) for p, q in zip(copies, partners)])
            head = neg(abbrev) if f.kind is Kind.EXISTS else abbrev
            layer_parts.append(implies(head, equalities))
            positives[layer].extend(p.name for p in copies)
            negatives[layer].extend(q.name for q in partners)
        return abbrev

    matrix = fold(phi, leave, enter)
    kinds = [kind if layer % 2 == 0 else kind.dual for layer in range(len(counts))]
    for q, layer_parts in zip(kinds, parts):
        core = big_conj(layer_parts)
        matrix = conj(core, matrix) if q is Kind.FORALL else implies(core, matrix)
    inner_negatives: list[str] = []
    for layer in reversed(range(len(counts))):
        block = tuple(positives[layer] + inner_negatives)
        matrix = Quant(kinds[layer].dual, block, matrix)
        inner_negatives = negatives[layer]
    return matrix, frozenset(negatives[0])


def prenex(kind: Kind, phi: Formula, gen: FreshGen | None = None) -> Formula:
    """Full prenexing for satisfiability (EXISTS) or validity (FORALL) use.

    Boolean formulas pass through unchanged.  Otherwise every quantifier
    layer is rewritten as by :func:`step_transform`, alternating from ``kind``
    to its dual; each layer's positive copies fuse with the next layer's
    negative copies into a single block, so quantifier depth is preserved.
    """
    return prenex_tracked(kind, phi, gen)[0]


def prenex_mc(phi: Formula, gen: FreshGen | None = None) -> Formula:
    """Equivalence-preserving rewrite into a boolean combination of prenex parts.

    Each maximal quantified subformula is prenexed on its own and re-bound
    under its original kind, with the inner negative copies fused into the
    original block; the boolean skeleton survives as-is, so free variables
    are untouched.
    """
    gen = gen or FreshGen()  # decompose_outermost advances it past phi
    decomposition = decompose_outermost(phi, gen)
    if not decomposition.bindings:
        return phi
    replacements: dict[str, Formula] = {}
    for b in decomposition.bindings:
        inner, negatives = prenex_tracked(b.kind, b.body, gen)
        replacements[b.name] = Quant(b.kind, b.block + tuple(negatives), inner)
    return substitute(decomposition.skeleton, replacements)


# ---------------------------------------------------------------------------
# Naive baseline

_MONOTONE = ("and", "or", "not", "imp")


def _dual_prenex(phi: Formula) -> Formula:
    """Negation of a prenex formula, kept prenex: dual prefix, negated matrix."""
    blocks: list[tuple[Kind, tuple[str, ...]]] = []
    while isinstance(phi, Quant):
        blocks.append((phi.kind.dual, phi.block))
        phi = phi.body
    result = neg(phi)
    for kind, names in reversed(blocks):
        result = Quant(kind, names, result)
    return result


class _NaivePrenexer:
    """Classic preprocessing: direct movement across monotone operators,
    case splits under non-monotone ones, one prefix pull at the end."""

    def __init__(self, gen: FreshGen, budget: int):
        self.gen = gen
        self.budget = budget

    def run(self, phi: Formula) -> Formula:
        return self._pulled(fold(phi, self._leave))

    def _pulled(self, rewritten: Formula) -> Formula:
        self._check(rewritten)
        return self._pull(rewritten, frozenset(free_vars(rewritten)))

    def _check(self, f: Formula) -> None:
        size = length(f)
        if size > self.budget:
            raise SizeBudgetExceeded(size, self.budget)

    def _leave(self, f: Formula, kids: list) -> Formula:
        """Remove quantifiers from non-monotone contexts, bottom-up."""
        if isinstance(f, Var):
            return f
        if isinstance(f, Quant):
            return Quant(f.kind, f.block, self._pulled(kids[0]))
        if f.op in _MONOTONE or not f.args:
            return App(f.op, tuple(kids))
        return self._eliminate(App(f.op, tuple(kids)))

    def _eliminate(self, f: Formula) -> Formula:
        """Case-split every quantified argument of a non-monotone operator."""
        if not isinstance(f, App) or is_boolean(f):
            return f
        if f.op in _MONOTONE:
            # Folding may re-expose a monotone root; anything quantified
            # beneath it is fine where it is.
            return f
        for j, arg in enumerate(f.args):
            if is_boolean(arg):
                continue
            chunk = self._pull(arg, frozenset(free_vars(arg)))
            on_true = self._eliminate(
                fold_app(f.op, f.args[:j] + (TRUE,) + f.args[j + 1 :])
            )
            on_false = self._eliminate(
                fold_app(f.op, f.args[:j] + (FALSE,) + f.args[j + 1 :])
            )
            positive = fold_app("and", (on_true, chunk))
            if on_false == FALSE:
                result = positive
            else:
                negative = fold_app("and", (on_false, _dual_prenex(chunk)))
                result = fold_app("or", (positive, negative))
            self._check(result)
            return result
        return f

    def _pull(self, f: Formula, reserved: frozenset[str]) -> Formula:
        """Pull all prefixes out across and/or/not/imp, left to right.

        Block variables are renamed only when they collide with a name already
        reserved (a free variable or an earlier pulled block), which keeps the
        common case readable while making the concatenated prefix sound.
        """
        taken = set(reserved)
        prefix: list[tuple[Kind, tuple[str, ...]]] = []
        # Work items (formula, renaming, flipped) are rewritten in order,
        # left to right; (op, count) items build a node from the last
        # ``count`` results.
        values: list[Formula] = []
        stack: list[tuple] = [(f, {}, False)]
        while stack:
            item = stack.pop()
            if len(item) == 2:
                op, count = item
                kids = tuple(values[-count:])
                del values[-count:]
                values.append(App(op, kids))
                continue
            g, env, flip = item
            while isinstance(g, Quant):
                env = dict(env)
                fresh: list[str] = []
                for x in g.block:
                    if x in taken:
                        new = pos_copy(x, self.gen.allocate())
                    else:
                        new = x
                    taken.add(new)
                    env[x] = new
                    fresh.append(new)
                prefix.append((g.kind.dual if flip else g.kind, tuple(fresh)))
                g = g.body
            if isinstance(g, Var):
                name = env.get(g.name, g.name)
                values.append(Var(name) if name != g.name else g)
            elif g.op in _MONOTONE:
                stack.append((g.op, len(g.args)))
                # The argument of ``not`` and the premise of ``imp`` flip.
                for k in reversed(range(len(g.args))):
                    flipped = flip != (k == 0 and g.op in ("not", "imp"))
                    stack.append((g.args[k], env, flipped))
            else:
                # Quantifier-free subtree: only renaming applies.
                renames = {old: Var(new) for old, new in env.items() if old != new}
                values.append(substitute(g, renames) if renames else g)
        result = values[0]
        for kind, names in reversed(prefix):
            result = Quant(kind, names, result)
        return result


def naive_prenex(
    phi: Formula,
    gen: FreshGen | None = None,
    budget: int = DEFAULT_SIZE_BUDGET,
) -> Formula:
    """Exponential-in-the-worst-case baseline prenexing.

    Quantifiers move straight across and/or/not/imp; an occurrence under any
    other operator is eliminated by a case split on its truth value, doubling
    that context.  Prefixes concatenate in left-to-right traversal order,
    which is one arbitrary sound choice among many.  Raises
    :class:`SizeBudgetExceeded` when the output length passes ``budget``.
    """
    gen = (gen or FreshGen()).advance_past(phi)
    return _NaivePrenexer(gen, budget).run(phi)
