"""Quantifier prenexing with linear size growth and preserved quantifier depth.

The paper defines the construction one layer of quantifiers at a time: every
maximal quantified subformula is abbreviated by a fresh variable, defined by
a biconditional against its body (quantified variables replaced by fresh
positive copies), and a guard per binding ties the positive copies to fresh
negative ones so the dropped quantifiers can be re-bound outside.

* :func:`prenex` produces exactly what iterating that step layer by layer
  would, fusing each layer's introduced variables into one alternating
  prefix, but writes every layer in one linear-time fold over the input.
* :func:`prenex_mc` is one fold over the boolean skeleton that replaces each
  maximal quantified subformula by its own :func:`prenex_tracked` result,
  re-bound under its original kind, which preserves logical equivalence
  rather than just equisatisfiability.

:func:`naive_prenex` is the classic preprocessing baseline kept as a foil
and secondary oracle: quantifiers move directly across monotone operators,
while occurrences under non-monotone operators are case-split, which blows
up exponentially once such operators nest.
"""

from __future__ import annotations

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
    prefix_blocks,
    scopes,
    substitute,
)

DEFAULT_SIZE_BUDGET = 1_000_000


class SizeBudgetExceeded(Exception):
    """The baseline rewrite outgrew its budget: expected blowup, not a bug."""

    def __init__(self, size: int, budget: int):
        self.size = size
        self.budget = budget
        super().__init__(f"rewritten formula reached length {size} (budget {budget})")


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

    One pass does the work of the paper's one-layer step iterated per layer.
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
    layer is rewritten by the paper's one-layer step, alternating from
    ``kind`` to its dual; each layer's positive copies fuse with the next
    layer's negative copies into a single block, so quantifier depth is
    preserved.
    """
    return prenex_tracked(kind, phi, gen)[0]


def prenex_mc(phi: Formula, gen: FreshGen | None = None) -> Formula:
    """Equivalence-preserving rewrite into a boolean combination of prenex parts.

    One fold over the boolean skeleton replaces each maximal quantified
    subformula occurrence by its :func:`prenex_tracked` result, re-bound
    under its original kind with the inner negative copies fused into the
    original block; the skeleton survives as-is, so free variables are
    untouched.
    """
    gen = (gen or FreshGen()).advance_past(phi)
    counts = _layer_counts(phi)
    if not counts:
        return phi
    # Skip the indices the layered construction's abbreviations take, to match it.
    gen.reserve(counts[0])

    def leave(f: Formula, kids: list) -> Formula:
        if isinstance(f, Quant):
            inner, negatives = prenex_tracked(f.kind, f.body, gen)
            return Quant(f.kind, f.block + tuple(negatives), inner)
        return App(f.op, tuple(kids)) if kids else f

    return fold(phi, leave, lambda q: False)  # quantifiers are leaves


# ---------------------------------------------------------------------------
# Naive baseline

_MONOTONE = ("and", "or", "not", "imp")


def _dual_prenex(phi: Formula) -> Formula:
    """Negation of a prenex formula, kept prenex: dual prefix, negated matrix."""
    blocks, matrix = prefix_blocks(phi)
    result = neg(matrix)
    for kind, names in reversed(blocks):
        result = Quant(kind.dual, names, result)
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
