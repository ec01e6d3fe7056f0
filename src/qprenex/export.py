"""Solver-ready output: prenex text, cleansed QCIR-G14, and QDIMACS.

Every writer is deterministic and can record the variables it emits into a
:class:`Manifest`, whose sidecar text traces each emitted variable or gate
back to its origin (source name, positive/negative copy, abbreviation, or
CNF definition variable).

User-declared truth-table operators have no counterpart in QCIR/QDIMACS and
must be lowered first with :func:`lower_operators` (minterm expansion over
not/and/or); lowering is applied to matrices only, after prenexing, so it
cannot disturb the size guarantees of the prenex step, and it rebuilds only
the ancestors of user operators and shares each argument among its minterms.
The QCIR and QDIMACS writers give each application object one gate, and the
QDIMACS writer folds constants in the walk that encodes the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby
from operator import is_, itemgetter

from . import __version__
from .core import (
    App,
    BUILTIN_OPERATORS,
    DEFAULT_TABLE,
    FALSE,
    Formula,
    Kind,
    OperatorTable,
    Quant,
    ROLE_SOURCE,
    ROLE_TSEYTIN,
    TRUE,
    Var,
    _decode_name,
    disj,
    fold,
    fold_app,
    is_prenex,
    neg,
    prefix_blocks,
    vars_of,
)
from .parser import Problem, format_formula, format_problem

#: Operators the QCIR/QDIMACS writers encode natively.
CORE_EXPORT_OPS = frozenset(BUILTIN_OPERATORS)


class NotPrenex(Exception):
    """The writer needs a prenex formula."""


class UnloweredOperator(Exception):
    """A user operator reached a writer that cannot encode arbitrary gates."""

    def __init__(self, op: str):
        self.op = op
        super().__init__(f"operator '{op}' must be lowered before export")


@dataclass
class Manifest:
    """Provenance table for one export: variable origins plus run metadata."""

    mode: str = "sat"
    version: str = __version__
    digest: str = ""
    entries: list[str | range] = field(default_factory=list)  # rows, or gate ids

    def record_name(self, emitted: str, name: str) -> None:
        role, origin, index = _decode_name(name) or (ROLE_SOURCE, name, "-")
        self.entries.append(f"{emitted}\t{role}\t{origin}\t{index}")

    def record_tseytin(self, ids: range) -> None:
        self.entries.append(ids)

    def render(self) -> str:
        lines = [
            f"# qprenex-manifest mode={self.mode} version={self.version} "
            f"input-sha256={self.digest or '-'}"
        ]
        for entry in self.entries:
            if type(entry) is range:
                lines.extend(f"{i}\t{ROLE_TSEYTIN}\t-\t-" for i in entry)
            else:
                lines.append(entry)
        return "\n".join(lines) + "\n"


def lower_operators(phi: Formula, table: OperatorTable | None = None) -> Formula:
    """Replace user truth-table operators by their minterm expansions;
    every subtree without one is shared, not copied, and an application
    object that occurs more than once is lowered once.  Without a user
    operator in ``table``, ``phi`` itself comes back, unwalked."""
    if table is None or not table.declares_user_operators():
        return phi

    def leave(f: Formula, kids: list) -> Formula:
        if isinstance(f, Var):
            return f
        if isinstance(f, Quant):
            return f if kids[0] is f.body else Quant(f.kind, f.block, kids[0])
        if f.op in CORE_EXPORT_OPS:
            # Identity, not ``==``: dataclass equality recurses into the kids.
            return f if all(map(is_, kids, f.args)) else App(f.op, tuple(kids))
        arity = len(kids)
        minterms: list[Formula] = []
        for row, bit in enumerate(table.rows(f.op, arity)):
            if not bit:
                continue
            literals = [
                kids[j] if (row >> (arity - 1 - j)) & 1 else neg(kids[j])
                for j in range(arity)
            ]
            term: Formula = TRUE
            for lit in literals:
                term = lit if term == TRUE else App("and", (term, lit))
            minterms.append(term)
        return reduce(disj, minterms) if minterms else FALSE

    return fold(phi, leave, memo={})


def to_prenex_text(phi: Formula) -> str:
    """Prenex formula in ``.fqbf`` syntax: chained quantifiers, then the matrix."""
    if not is_prenex(phi):
        raise NotPrenex("formula is not in prenex form")
    return format_formula(phi)


def _numbered_variables(
    phi: Formula, manifest: Manifest | None, fmt: str
) -> tuple[dict[str, int], list[int], list[tuple[Kind, list[int]]], Formula, int]:
    """Assign integers to free then prefix variables, one per occurrence.

    A rebound name keeps its innermost id in the lookup table, which is the
    binding the matrix sees; returns lookup, free ids, numbered blocks,
    matrix, and the highest id handed out.  Raises :class:`NotPrenex`.
    """
    blocks, matrix = prefix_blocks(phi)
    occurring, seen, stack = set(), set(), [matrix]
    while stack:
        f = stack.pop()
        if type(f) is Var:
            occurring.add(f.name)
        elif type(f) is Quant:
            raise NotPrenex(f"{fmt} export needs a prenex formula")
        elif id(f) not in seen:
            seen.add(id(f))
            stack.extend(f.args)
    ids: dict[str, int] = {}
    top = 0

    def assign(name: str) -> int:
        nonlocal top
        top += 1
        ids[name] = top
        if manifest is not None:
            manifest.record_name(str(top), name)
        return top

    free = [assign(n) for n in sorted(occurring.difference(*(b for _, b in blocks)))]
    numbered = [
        (kind, [assign(x) for x in names]) for kind, names in blocks if names
    ]
    return ids, free, numbered, matrix, top


#: The definition of a QCIR gate, per connective.
_QCIR_GATE = {
    "true": lambda: "and()",
    "false": lambda: "or()",
    "and": lambda a, b: f"and({a}, {b})",
    "or": lambda a, b: f"or({a}, {b})",
    "xor": lambda a, b: f"xor({a}, {b})",
    "imp": lambda a, b: f"or({-a}, {b})",
    "iff": lambda a, b: f"ite({a}, {b}, {-b})",
}


def to_qcir(
    phi: Formula,
    table: OperatorTable | None = None,
    manifest: Manifest | None = None,
) -> str:
    """Cleansed prenex QCIR-G14 text, one gate per application object."""
    ids, free, blocks, matrix, top = _numbered_variables(phi, manifest, "QCIR")
    counter = top
    gates: list[str] = []

    def leave(f: Formula, lits: list) -> int:
        nonlocal counter
        if isinstance(f, Var):
            return ids[f.name]
        if f.op == "not":
            return -lits[0]
        gate = _QCIR_GATE.get(f.op)
        if gate is None:
            raise UnloweredOperator(f.op)
        counter += 1
        gates.append(f"{counter} = {gate(*lits)}")
        return counter

    output = fold(matrix, leave, memo={})
    if manifest is not None:
        manifest.record_tseytin(range(top + 1, counter + 1))
    lines = [f"#QCIR-G14 {counter}"]
    if free:
        lines.append(f"free({', '.join(str(i) for i in free)})")
    lines += [f"{kind.value}({', '.join(map(str, block))})" for kind, block in blocks]
    lines.append(f"output({output})")
    lines.extend(gates)
    return "\n".join(lines) + "\n"


#: The clauses defining gate ``g <-> op(a, b)``, one line each, per connective.
_GATE_TEXT = {
    "and": lambda g, a, b: f"{-g} {a} 0\n{-g} {b} 0\n{g} {-a} {-b} 0\n",
    "or": lambda g, a, b: f"{g} {-a} 0\n{g} {-b} 0\n{-g} {a} {b} 0\n",
    "imp": lambda g, a, b: f"{g} {a} 0\n{g} {-b} 0\n{-g} {-a} {b} 0\n",
    "iff": lambda g, a, b: (
        f"{-g} {-a} {b} 0\n{-g} {a} {-b} 0\n{g} {a} {b} 0\n{g} {-a} {-b} 0\n"
    ),
    "xor": lambda g, a, b: (
        f"{-g} {a} {b} 0\n{-g} {-a} {-b} 0\n{g} {-a} {b} 0\n{g} {a} {-b} 0\n"
    ),
}


class _MarkingMemo(dict):
    """The QDIMACS fold's memo: a hit adds no gate, so, like a leaf, it
    pushes its mark (see ``to_qdimacs``) beside its value."""

    def __getitem__(self, key: int) -> int | Formula:
        self.marks.append((len(self.parts), len(self)))
        return dict.__getitem__(self, key)


def to_qdimacs(
    phi: Formula,
    table: OperatorTable | None = None,
    mode: str = "sat",
    manifest: Manifest | None = None,
) -> str:
    """Prenex CNF via Tseytin definitions, in QDIMACS.

    Free variables are bound by an outermost existential block in ``sat`` mode
    (the transform guarantees equisatisfiability, not equivalence) and by a
    universal block in ``valid`` mode.  Definition variables go into a final
    innermost existential block; adjacent same-kind blocks merge so the
    prefix alternates strictly.  Constants are folded (:func:`fold_app`) in
    the same walk that encodes the matrix, and each application object is
    encoded once.
    """
    if mode not in ("sat", "valid"):
        raise ValueError(f"unsupported mode '{mode}'")
    table = table or DEFAULT_TABLE
    ids, free, blocks, matrix, top = _numbered_variables(phi, manifest, "QDIMACS")
    if free:
        outer = Kind.EXISTS if mode == "sat" else Kind.FORALL
        blocks = [(outer, free)] + blocks
    counter = top
    memo = _MarkingMemo()
    memo.parts = parts = []  # clause text, one entry per gate
    # Beside each value of the fold, the gate and memo counts where its subtree
    # began.  A value is an int literal or TRUE / FALSE, never a bool (True == 1).
    memo.marks = marks = []

    def leave(f: Formula, lits: list) -> int | Formula:
        nonlocal counter
        if not lits:
            marks.append((len(parts), len(memo)))
            if isinstance(f, Var):
                return ids[f.name]
        elif len(lits) > 1:
            del marks[1 - len(lits):]
            gate = _GATE_TEXT.get(f.op)
            if gate and type(lits[0]) is int and type(lits[1]) is int:
                counter += 1
                parts.append(gate(counter, *lits))
                return counter
        elif f.op == "not" and type(lits[0]) is int:
            return -lits[0]
        value = fold_app(f.op, tuple(lits), table)
        if type(value) is int:
            return value
        if value is TRUE or value is FALSE:
            # Folding first would never have encoded the open kids this drops,
            # so take back their gates and the memo entries that name them.
            gates, entries = marks[-1]
            counter = top + gates
            del parts[gates:]
            for _ in range(len(memo) - entries):
                memo.popitem()
            return value
        if value.op == "not":
            return -value.args[0]
        raise UnloweredOperator(f.op)

    output = fold(matrix, leave, memo=memo)
    if manifest is not None:
        manifest.record_tseytin(range(top + 1, counter + 1))
    if counter > top:
        blocks = blocks + [(Kind.EXISTS, range(top + 1, counter + 1))]
    prefix = "".join(
        f"{'e' if kind is Kind.EXISTS else 'a'} "
        f"{' '.join(str(i) for _, block_ids in run for i in block_ids)} 0\n"
        for kind, run in groupby(blocks, key=itemgetter(0))
    )
    if output is not TRUE:
        parts.append("0\n" if output is FALSE else f"{output} 0\n")
    clauses = "".join(parts)
    parts.clear()  # free the pieces before the header costs one more copy
    count = clauses.count("\n")
    return f"p cnf {counter} {count}\n{prefix}{clauses}"


def manifest_for_text_export(phi: Formula, manifest: Manifest) -> None:
    """Record every variable of a formula exported as text, under its own name."""
    for name in sorted(vars_of(phi)):
        manifest.record_name(name, name)


def export_text(problem: Problem, result: Formula, fmt: str, manifest: Manifest) -> str:
    """The file ``qprenex prenex`` writes for ``result``, the transform of
    ``problem`` in ``manifest.mode``, as ``fmt`` (``fqbf``, ``qcir`` or
    ``qdimacs``), ending in a newline; records the emitted variables in
    ``manifest``.  Raises :class:`NotPrenex` for QCIR or QDIMACS of a
    formula that is not prenex.
    """
    if fmt == "fqbf":
        manifest_for_text_export(result, manifest)
        text = format_problem(Problem(problem.declarations, result, problem.table))
        return text + "\n"
    lowered = lower_operators(result, problem.table)
    if fmt == "qcir":
        return to_qcir(lowered, problem.table, manifest)
    mode = "valid" if manifest.mode == "valid" else "sat"
    return to_qdimacs(lowered, problem.table, mode=mode, manifest=manifest)
