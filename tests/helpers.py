"""Shared fixtures: worked-example formulas and corpus samplers."""

from __future__ import annotations

import functools
import hashlib
import random
import re
from dataclasses import dataclass
from itertools import product

from qprenex.core import (
    DEFAULT_TABLE,
    FALSE,
    RESERVED_CHAR,
    TRUE,
    App,
    CaptureError,
    Formula,
    FreshGen,
    Kind,
    OperatorTable,
    Quant,
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
    nblock,
    nbvar,
    neg,
    neg_copy,
    nodes,
    pos_copy,
    scopes,
    substitute,
    vars_of,
    xor,
)
from qprenex.cli import _transform
from qprenex.export import (
    Manifest,
    NotPrenex,
    UnloweredOperator,
    _numbered_variables,
    export_text,
)
from qprenex.generate import random_formula, random_problem
from qprenex.parser import (
    KEYWORDS,
    OpDecl,
    ParseError,
    Problem,
    _DECLARATION,
    _error,
    format_problem,
    parse,
    parse_formula,
)
from qprenex.semantics import Valuation, evaluate
from qprenex.transform import prenex_mc


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


@functools.lru_cache(maxsize=1)
def criterion_4_corpus() -> tuple[Problem, ...]:
    """The acceptance suite's criterion-4 stream: 10,000 oracle problems."""
    rng = random.Random(20240)
    return tuple(oracle_problem(rng, limit=16) for _ in range(10_000))


def small_formula(rng: random.Random, **kwargs) -> Formula:
    defaults = dict(pool=("a", "b", "c"), max_depth=2, max_size=12)
    defaults.update(kwargs)
    return random_formula(rng, **defaults)


# ---------------------------------------------------------------------------
# Reference constructions: the paper's one-layer and one-quantifier steps and
# the set helpers that only tests call.  ``prenex_tracked`` and ``prenex_mc``
# must reproduce what iterating them gives, and the acceptance criteria check
# the paper's lemmas on them.

def bound_vars(phi: Formula) -> frozenset[str]:
    """Variables mentioned in some quantifier block (mentions count as bound)."""
    return frozenset(x for f in nodes(phi) if type(f) is Quant for x in f.block)


def is_free_for(phi: Formula, key: str, replacement: Formula) -> bool:
    """True iff substituting ``replacement`` for ``key`` in ``phi`` captures nothing."""
    try:
        substitute(phi, {key: replacement})
    except CaptureError:
        return False
    return True


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


def layered_prenex_tracked(
    kind: Kind, phi: Formula, gen: FreshGen
) -> tuple[Formula, frozenset[str]]:
    """Reference prenexing: one :func:`step_transform` per quantifier layer.

    Each step re-walks the whole accumulated matrix, so this is quadratic in
    the quantifier depth; ``prenex_tracked`` must produce exactly its output.
    Like ``prenex_tracked``, it first advances ``gen`` past ``phi``.
    """
    gen.advance_past(phi)
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
    decomposition = decompose_outermost(phi, gen)  # advances gen past phi
    replacements = {}
    for b in decomposition.bindings:
        inner, negatives = layered_prenex_tracked(b.kind, b.body, gen)
        replacements[b.name] = Quant(b.kind, b.block + tuple(negatives), inner)
    return substitute(decomposition.skeleton, replacements)


# ---------------------------------------------------------------------------
# Reference scope walks: the hand-written stack loops that ``core.scopes``
# replaced.  ``qdepth``, ``_layer_counts``, ``_binding_width`` and the scope
# precondition of ``extract_quantifier`` must agree with them.

def reference_qdepth(phi: Formula) -> int:
    best = 0
    stack: list[tuple[Formula, int]] = [(phi, 0)]
    while stack:
        f, d = stack.pop()
        if isinstance(f, Quant):
            stack.append((f.body, d + 1))
        elif isinstance(f, App) and f.args:
            stack.extend((a, d) for a in f.args)
        else:
            if d > best:
                best = d
    return best


def reference_layer_counts(phi: Formula) -> list[int]:
    counts: list[int] = []
    stack: list[tuple[Formula, int]] = [(phi, 0)]
    while stack:
        f, layer = stack.pop()
        if isinstance(f, Quant):
            if layer == len(counts):
                counts.append(0)
            counts[layer] += 1
            stack.append((f.body, layer + 1))
        elif isinstance(f, App):
            stack.extend((a, layer) for a in f.args)
    return counts


# The ``scopes`` definitions that ``core.layer_counts`` replaced for the layer
# counts and ``qdepth``.

def scopes_qdepth(phi: Formula) -> int:
    return max((b + 1 for f, b, _ in scopes(phi) if type(f) is Quant), default=0)


def scopes_layer_counts(phi: Formula) -> list[int]:
    counts: list[int] = []
    for f, layer, _ in scopes(phi):
        if type(f) is Quant:
            if layer == len(counts):
                counts.append(0)
            counts[layer] += 1
    return counts


def reference_not_in_quantifier_scope(psi: Formula, name: str) -> bool:
    stack: list[tuple[Formula, bool]] = [(psi, False)]
    while stack:
        f, inside = stack.pop()
        if isinstance(f, Var):
            if inside and f.name == name:
                return False
        elif isinstance(f, App):
            stack.extend((a, inside) for a in f.args)
        else:
            if name in f.block:
                return False
            stack.append((f.body, True))
    return True


def reference_binding_width(phi: Formula) -> int:
    width = 0
    stack = [(phi, 0)]
    while stack:
        f, active = stack.pop()
        if isinstance(f, App):
            stack.extend((a, active) for a in f.args)
        elif isinstance(f, Quant):
            active += len(f.block)
            width = max(width, active)
            stack.append((f.body, active))
    return width


def quantifier_chain(depth: int) -> Formula:
    """``depth`` nested blocks of alternating kind over three shadowed names."""
    phi: Formula = Var("z")
    for i in range(depth):
        kind = Kind.EXISTS if i % 2 else Kind.FORALL
        phi = Quant(kind, (f"x{i % 3}",), xor(Var(f"x{(i + 1) % 3}"), phi))
    return phi


GENERATED_NAME_POOL = ("a", "b", "a@p1", "a@p2", "b@p1", "b@p3", "a@n1", "@a2")


@functools.lru_cache(maxsize=1)
def generated_name_inputs() -> tuple[tuple[Formula, int], ...]:
    """3,000 inputs that mention generated names, each with a generator start
    whose indices may collide with them."""
    rng = random.Random(5)
    inputs = []
    for _ in range(3000):
        phi = random_formula(rng, pool=GENERATED_NAME_POOL, max_size=rng.randint(3, 30))
        inputs.append((phi, rng.randint(1, 4)))
    return tuple(inputs)


# ---------------------------------------------------------------------------
# Reference oracle: the recursive closure compiler that the truth-table fold
# replaced, enumerating one valuation at a time.  Every answer, witness and
# value of ``qprenex.semantics`` must agree with it.

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


def reference_evaluate(
    valuation: Valuation, phi: Formula, table: OperatorTable | None = None
) -> int:
    """Truth value of ``phi`` under ``valuation`` through :func:`_compile`."""
    env = {name: valuation.value(name) for name in free_vars(phi)}
    return _compile(phi, table or DEFAULT_TABLE, env)()


def reference_first(phi: Formula, table: OperatorTable | None = None) -> Valuation | None:
    """The first valuation of ``phi``'s sorted free names, in ``product``
    order, that makes ``phi`` true, by evaluating each through :func:`_compile`."""
    names = sorted(free_vars(phi))
    env: dict[str, int] = {}
    root = _compile(phi, table or DEFAULT_TABLE, env)
    for bits in product((0, 1), repeat=len(names)):
        env.update(zip(names, bits))
        if root():
            return Valuation(dict(zip(names, bits)))
    return None


def evaluate_via_mc(
    valuation: Valuation, phi: Formula, table: OperatorTable | None = None
) -> int:
    """Evaluate by rewriting into a boolean combination of prenex parts.

    Free variables are first fixed to constants per the valuation, the result
    is rewritten with :func:`qprenex.transform.prenex_mc`, and each maximal
    prenex subformula is then evaluated with the plain oracle, combining the
    answers through the boolean skeleton.  Agrees with :func:`evaluate`.
    """
    table = table or DEFAULT_TABLE
    constants = {
        name: TRUE if valuation.value(name) else FALSE for name in free_vars(phi)
    }
    fixed = substitute(phi, constants)
    parts = prenex_mc(fixed, FreshGen.for_formula(fixed))

    def leave(f: Formula, kids: list) -> int:
        if isinstance(f, Quant):
            return evaluate(valuation, f, table)
        if isinstance(f, Var):
            return valuation.value(f.name)
        return table.apply(f.op, kids)

    return fold(parts, leave, lambda q: False)  # prenex parts are leaves


def nested_maj(depth: int) -> Problem:
    """``maj(prev, exists x_i . x_i xor w_i, u_i)`` nested ``depth`` deep on
    ``u0``: lowering shares each argument among four minterms, so the lowered
    matrix is linear as a DAG and grows 4^depth as a tree."""
    text = "u0"
    for i in range(1, depth + 1):
        text = f"maj({text}, exists x{i} . x{i} xor w{i}, u{i})"
    return parse(f"op maj/3 : 00010111 ; {text}")


def cli_outputs(problem: Problem, mode: str, fmt: str) -> tuple[str, str]:
    """The formula file and ``.map`` text the CLI writes for one input, made
    by the functions ``qprenex prenex`` calls."""
    source = format_problem(problem) + "\n"
    formula = problem.formula
    result = _transform(mode, formula)
    manifest = Manifest(mode=mode, digest=hashlib.sha256(source.encode()).hexdigest())
    try:
        text = export_text(problem, result, fmt, manifest)
    except NotPrenex:
        return "NotPrenex\n", "NotPrenex\n"
    return text, manifest.render()


# ---------------------------------------------------------------------------
# Reference QDIMACS writer: fold the whole matrix first with
# ``fold_constants``, then encode it with one clause list per schema entry.
# Both folds pass an identity memo, so each application object is folded,
# and each folded object encoded, once.  ``to_qdimacs`` folds while it
# encodes and must write exactly this text and ``.map``.

def fold_constants(phi: Formula, table: OperatorTable | None = None) -> Formula:
    """Bottom-up propagation of ``true``/``false`` through built-in operators.

    User operators fold only when all arguments are constant (needs ``table``).
    Quantifier bodies are folded in place; blocks are untouched.  A node
    object that occurs twice is folded once, to one object.
    """
    table = table or DEFAULT_TABLE

    def leave(f: Formula, kids: list) -> Formula:
        if isinstance(f, App):
            return fold_app(f.op, tuple(kids), table)
        if isinstance(f, Quant):
            return Quant(f.kind, f.block, kids[0])
        return f

    return fold(phi, leave, memo={})


_GATE_CLAUSES = {  # gate <-> op(a, b), with 1 = gate, 2 = a, 3 = b
    "and": ((-1, 2), (-1, 3), (1, -2, -3)),
    "or": ((1, -2), (1, -3), (-1, 2, 3)),
    "imp": ((1, 2), (1, -3), (-1, -2, 3)),
    "iff": ((-1, -2, 3), (-1, 2, -3), (1, 2, 3), (1, -2, -3)),
    "xor": ((-1, 2, 3), (-1, -2, -3), (1, -2, 3), (1, 2, -3)),
}


def reference_to_qdimacs(
    phi: Formula,
    table: OperatorTable | None = None,
    mode: str = "sat",
    manifest: Manifest | None = None,
) -> str:
    if mode not in ("sat", "valid"):
        raise ValueError(f"unsupported mode '{mode}'")
    ids, free, blocks, matrix, counter = _numbered_variables(phi, manifest, "QDIMACS")
    if free:
        outer = Kind.EXISTS if mode == "sat" else Kind.FORALL
        blocks = [(outer, free)] + blocks

    matrix = fold_constants(matrix, table)
    clauses: list[list[int]] = []
    definitions: list[int] = []

    def new_gate() -> int:
        nonlocal counter
        counter += 1
        definitions.append(counter)
        if manifest is not None:
            manifest.record_tseytin(range(counter, counter + 1))
        return counter

    def leave(f: Formula, lits: list) -> int:
        if isinstance(f, Var):
            return ids[f.name]
        if f.op == "not":
            return -lits[0]
        if f.op in _GATE_CLAUSES:
            a, b = lits
            g = new_gate()
            values = {1: g, 2: a, 3: b}
            for schema in _GATE_CLAUSES[f.op]:
                clauses.append(
                    [values[abs(v)] if v > 0 else -values[abs(v)] for v in schema]
                )
            return g
        # Constants survive folding only as the whole matrix.
        raise UnloweredOperator(f.op)

    if matrix == FALSE:
        clauses.append([])
    elif matrix != TRUE:
        clauses.append([fold(matrix, leave, memo={})])

    if definitions:
        blocks = blocks + [(Kind.EXISTS, definitions)]
    merged: list[tuple[Kind, list[int]]] = []
    for kind, block_ids in blocks:
        if merged and merged[-1][0] is kind:
            merged[-1][1].extend(block_ids)
        else:
            merged.append((kind, list(block_ids)))

    lines = [f"p cnf {counter} {len(clauses)}"]
    for kind, block_ids in merged:
        marker = "e" if kind is Kind.EXISTS else "a"
        lines.append(f"{marker} {' '.join(str(i) for i in block_ids)} 0")
    lines.extend(
        " ".join([str(x) for x in clause] + ["0"]) for clause in clauses
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference reader: the recursive-descent parser that precedence climbing
# replaced, over its own position-tracking lexer.  It shares only the
# declaration reader with the library.

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[A-Za-z_@][A-Za-z0-9_@]*)
  | (?P<int>[0-9]+)
  | (?P<sym><->|->|[().,;:/~&|])
    """,
    re.VERBOSE,
)


def reference_tokens(text: str, allow_internal_names: bool) -> list[tuple[str, str, int]]:
    """Tokens in the library lexer's ``(type, text, offset)`` form, one
    ``re.match`` at a time, with line and column tracked as it goes."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        word = m.group()
        start = pos
        pos = m.end()
        if kind in ("ws", "comment"):
            newlines = word.count("\n")
            if newlines:
                line += newlines
                line_start = pos - (len(word) - word.rfind("\n") - 1)
            continue
        if kind == "name":
            if RESERVED_CHAR in word and not allow_internal_names:
                raise ParseError(
                    "reserved character '@' in identifier "
                    "(generated names need allow_internal_names)",
                    line,
                    start - line_start + 1 + word.index(RESERVED_CHAR),
                )
            kind = word if word in KEYWORDS else "name"
        elif kind == "sym":
            kind = word
        tokens.append((kind, word, start))
    tokens.append(("eof", "", len(text)))
    return tokens


# The library's declaration reader over ``(type, text, offset)`` tokens, as
# it was before the lexer returned bare strings: the reference parser keeps
# reading declarations without the library's reader.
def _unexpected(text: str, token: tuple[str, str, int], expected: str) -> ParseError:
    _, found, offset = token
    return _error(
        text,
        offset,
        f"expected {expected}, found {found!r}" if found else
        f"expected {expected}, found end of input",
    )


def _declarations(
    text: str, tokens: list[tuple[str, str, int]], table: OperatorTable
) -> tuple[list[OpDecl], int]:
    """Read the leading ``op`` declarations into ``table``.

    Returns them with the index of the first token after them.  The arity is
    checked against the number of bits without computing ``2 ** arity``, so
    an absurd arity is an ordinary error.
    """
    decls: list[OpDecl] = []
    i = 0
    while tokens[i][0] == "op":
        fields = tokens[i + 1 : i + 7]
        for token, (ttype, what) in zip(fields, _DECLARATION):
            if token[0] != ttype:
                raise _unexpected(text, token, what)
        i += 7
        (_, name, name_at), _, (_, arity_text, _), _, (_, bits, bits_at), _ = fields
        if bits.strip("01"):
            raise _error(
                text, bits_at, f"truth table for '{name}' must contain only 0/1 bits"
            )
        size = len(bits)
        arity = size.bit_length() - 1  # the only arity ``size`` bits can fit
        digits = arity_text.lstrip("0") or "0"
        if size != 1 << arity or digits != str(arity):
            # Spelled out below arity 10,000, as a power above it.
            expected = str(1 << int(digits)) if len(digits) <= 4 else f"2^{digits}"
            raise _error(
                text,
                bits_at,
                f"truth table for '{name}' has {size} bits, "
                f"expected {expected} for arity {digits}",
            )
        if table.has(name):
            raise _error(
                text, name_at, f"operator '{name}' collides with an existing operator"
            )
        table.add(name, arity, (int(b) for b in bits))
        decls.append(OpDecl(name, arity, bits))
    return decls, i


class ReferenceParser:
    """Recursive descent, one method per precedence level."""

    def __init__(self, text: str, table: OperatorTable, allow_internal_names: bool):
        self._text = text
        self._tokens = reference_tokens(text, allow_internal_names)
        self._pos = 0
        self._table = table

    def _error(self, message: str, token: tuple[str, str, int]) -> ParseError:
        offset = token[2]
        before = self._text[:offset]
        return ParseError(message, before.count("\n") + 1, offset - before.rfind("\n"))

    def _advance(self) -> tuple[str, str, int]:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, ttype: str, what: str | None = None) -> tuple[str, str, int]:
        token = self._tokens[self._pos]
        if token[0] != ttype:
            expected = what or f"'{ttype}'"
            raise self._error(
                f"expected {expected}, found {token[1]!r}" if token[1] else
                f"expected {expected}, found end of input",
                token,
            )
        return self._advance()

    def parse_problem(self) -> Problem:
        decls, self._pos = _declarations(self._text, self._tokens, self._table)
        formula = self.parse_formula()
        self._expect("eof", "end of input")
        return Problem(tuple(decls), formula, self._table)

    def parse_formula(self) -> Formula:
        if self._tokens[self._pos][0] in ("exists", "forall"):
            return self._quantifier()
        return self._iff()

    def _quantifier(self) -> Formula:
        head = self._advance()
        kind = Kind.EXISTS if head[1] == "exists" else Kind.FORALL
        names: list[str] = []
        while self._tokens[self._pos][0] == "name":
            token = self._advance()
            if token[1] in names:
                raise self._error(
                    f"duplicate variable '{token[1]}' in one quantifier block", token
                )
            names.append(token[1])
        if not names:
            raise self._error(
                f"expected at least one variable after '{head[1]}'",
                self._tokens[self._pos],
            )
        self._expect(".")
        return Quant(kind, tuple(names), self.parse_formula())

    def _iff(self) -> Formula:
        value = self._imp()
        while self._tokens[self._pos][0] == "<->":
            self._advance()
            value = App("iff", (value, self._imp()))
        return value

    def _imp(self) -> Formula:
        value = self._xor()
        if self._tokens[self._pos][0] == "->":
            self._advance()
            return App("imp", (value, self._imp()))
        return value

    def _xor(self) -> Formula:
        value = self._or()
        while self._tokens[self._pos][0] == "xor":
            self._advance()
            value = App("xor", (value, self._or()))
        return value

    def _or(self) -> Formula:
        value = self._and()
        while self._tokens[self._pos][0] == "|":
            self._advance()
            value = App("or", (value, self._and()))
        return value

    def _and(self) -> Formula:
        value = self._neg()
        while self._tokens[self._pos][0] == "&":
            self._advance()
            value = App("and", (value, self._neg()))
        return value

    def _neg(self) -> Formula:
        if self._tokens[self._pos][0] == "~":
            self._advance()
            return App("not", (self._neg(),))
        return self._atom()

    def _atom(self) -> Formula:
        token = self._tokens[self._pos]
        ttype, word, _ = token
        if ttype in ("true", "false"):
            self._advance()
            return App(word, ())
        if ttype == "name":
            self._advance()
            if self._tokens[self._pos][0] == "(":
                return self._application(token)
            return Var(word)
        if ttype == "(":
            self._advance()
            value = self.parse_formula()
            self._expect(")")
            return value
        raise self._error(
            f"expected a formula, found {word!r}" if word else
            "expected a formula, found end of input",
            token,
        )

    def _application(self, name: tuple[str, str, int]) -> Formula:
        if not self._table.has(name[1]):
            raise self._error(f"unknown operator '{name[1]}'", name)
        self._advance()  # '('
        args: list[Formula] = []
        if self._tokens[self._pos][0] != ")":
            args.append(self.parse_formula())
            while self._tokens[self._pos][0] == ",":
                self._advance()
                args.append(self.parse_formula())
        self._expect(")")
        expected = self._table.arity(name[1])
        if expected != len(args):
            raise self._error(
                f"operator '{name[1]}' expects {expected} arguments, got {len(args)}",
                name,
            )
        return App(name[1], tuple(args))


def reference_parse(text: str, *, allow_internal_names: bool = False) -> Problem:
    """``parse`` by recursive descent; needs a recursion limit above the
    input's nesting depth."""
    return ReferenceParser(text, OperatorTable(), allow_internal_names).parse_problem()


def reference_parse_formula(
    text: str,
    table: OperatorTable | None = None,
    *,
    allow_internal_names: bool = False,
) -> Formula:
    """``parse_formula`` by recursive descent."""
    parser = ReferenceParser(text, table or OperatorTable(), allow_internal_names)
    formula = parser.parse_formula()
    parser._expect("eof", "end of input")
    return formula
