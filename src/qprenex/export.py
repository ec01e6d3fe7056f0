"""Solver-ready output: prenex text, cleansed QCIR-G14, and QDIMACS.

Every writer is deterministic and can record the variables it emits into a
:class:`Manifest`, whose sidecar text traces each emitted variable or gate
back to its origin (source name, positive/negative copy, abbreviation, or
CNF definition variable).

User-declared truth-table operators have no counterpart in QCIR/QDIMACS and
must be lowered first with :func:`lower_operators` (minterm expansion over
not/and/or); lowering is applied to matrices only, after prenexing, so it
cannot disturb the size guarantees of the prenex step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import __version__
from .core import (
    App,
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
    classify_name,
    fold,
    fold_constants,
    free_vars,
    is_prenex,
    neg,
    prefix_blocks,
    vars_of,
)
from .parser import Problem, format_formula, format_problem

#: Operators the QCIR/QDIMACS writers encode natively.
CORE_EXPORT_OPS = frozenset(
    {"true", "false", "not", "and", "or", "imp", "iff", "xor"}
)


class NotPrenex(Exception):
    """The writer needs a prenex formula."""


class UnloweredOperator(Exception):
    """A user operator reached a writer that cannot encode arbitrary gates."""

    def __init__(self, op: str):
        self.op = op
        super().__init__(f"operator '{op}' must be lowered before export")


@dataclass
class ManifestEntry:
    emitted: str
    role: str
    origin: str
    index: str


@dataclass
class Manifest:
    """Provenance table for one export: variable origins plus run metadata."""

    mode: str = "sat"
    version: str = __version__
    digest: str = ""
    entries: list[ManifestEntry] = field(default_factory=list)

    def record_name(self, emitted: str, name: str) -> None:
        info = classify_name(name)
        if info is None:
            self.entries.append(ManifestEntry(emitted, ROLE_SOURCE, name, "-"))
        else:
            self.entries.append(
                ManifestEntry(emitted, info.role, info.origin, str(info.index))
            )

    def record_tseytin(self, emitted: str) -> None:
        self.entries.append(ManifestEntry(emitted, ROLE_TSEYTIN, "-", "-"))

    def render(self) -> str:
        lines = [
            f"# qprenex-manifest mode={self.mode} version={self.version} "
            f"input-sha256={self.digest or '-'}"
        ]
        lines.extend(
            f"{e.emitted}\t{e.role}\t{e.origin}\t{e.index}" for e in self.entries
        )
        return "\n".join(lines) + "\n"


def lower_operators(phi: Formula, table: OperatorTable | None = None) -> Formula:
    """Replace user truth-table operators by their minterm expansions."""
    table = table or DEFAULT_TABLE

    def leave(f: Formula, kids: list) -> Formula:
        if isinstance(f, Var):
            return f
        if isinstance(f, Quant):
            return Quant(f.kind, f.block, kids[0])
        args = tuple(kids)
        if f.op in CORE_EXPORT_OPS:
            return App(f.op, args)
        bits = table.truth_table(f.op)
        arity = table.arity(f.op)
        minterms: list[Formula] = []
        for row, bit in enumerate(bits):
            if not bit:
                continue
            literals = [
                args[j] if (row >> (arity - 1 - j)) & 1 else neg(args[j])
                for j in range(arity)
            ]
            term: Formula = TRUE
            for lit in literals:
                term = lit if term == TRUE else App("and", (term, lit))
            minterms.append(term)
        if not minterms:
            return FALSE
        expansion = minterms[0]
        for term in minterms[1:]:
            expansion = App("or", (expansion, term))
        return expansion

    return fold(phi, leave)


def to_prenex_text(phi: Formula) -> str:
    """Prenex formula in ``.fqbf`` syntax: chained quantifiers, then the matrix."""
    if not is_prenex(phi):
        raise NotPrenex("formula is not in prenex form")
    return format_formula(phi)


def _numbered_variables(
    phi: Formula, manifest: Manifest | None
) -> tuple[dict[str, int], list[int], list[tuple[Kind, list[int]]], Formula, int]:
    """Assign integers to free then prefix variables, one per occurrence.

    A rebound name keeps its innermost id in the lookup table, which is the
    binding the matrix sees; returns lookup, free ids, numbered blocks,
    matrix, and the highest id handed out.
    """
    blocks, matrix = prefix_blocks(phi)
    ids: dict[str, int] = {}
    top = 0

    def assign(name: str) -> int:
        nonlocal top
        top += 1
        ids[name] = top
        if manifest is not None:
            manifest.record_name(str(top), name)
        return top

    free = [assign(name) for name in sorted(free_vars(phi))]
    numbered = [
        (kind, [assign(x) for x in names]) for kind, names in blocks if names
    ]
    return ids, free, numbered, matrix, top


def to_qcir(
    phi: Formula,
    table: OperatorTable | None = None,
    manifest: Manifest | None = None,
) -> str:
    """Cleansed prenex QCIR-G14 text."""
    if not is_prenex(phi):
        raise NotPrenex("QCIR export needs a prenex formula")
    ids, free, blocks, matrix, counter = _numbered_variables(phi, manifest)
    gates: list[str] = []

    def new_gate(definition: str) -> int:
        nonlocal counter
        counter += 1
        gates.append(f"{counter} = {definition}")
        if manifest is not None:
            manifest.record_tseytin(str(counter))
        return counter

    def leave(f: Formula, lits: list) -> int:
        if isinstance(f, Var):
            return ids[f.name]
        op = f.op
        if op == "not":
            return -lits[0]
        if op == "true":
            return new_gate("and()")
        if op == "false":
            return new_gate("or()")
        if op in ("and", "or", "xor"):
            return new_gate(f"{op}({', '.join(str(x) for x in lits)})")
        if op == "imp":
            a, b = lits
            return new_gate(f"or({-a}, {b})")
        if op == "iff":
            a, b = lits
            return new_gate(f"ite({a}, {b}, {-b})")
        raise UnloweredOperator(op)

    output = fold(matrix, leave)
    lines = [f"#QCIR-G14 {counter}"]
    if free:
        lines.append(f"free({', '.join(str(i) for i in free)})")
    for kind, block_ids in blocks:
        keyword = "exists" if kind is Kind.EXISTS else "forall"
        lines.append(f"{keyword}({', '.join(str(i) for i in block_ids)})")
    lines.append(f"output({output})")
    lines.extend(gates)
    return "\n".join(lines) + "\n"


# Clause schemas defining gate <-> op(a, b) for the binary connectives.
_GATE_CLAUSES = {
    "and": ((-1, 2), (-1, 3), (1, -2, -3)),
    "or": ((1, -2), (1, -3), (-1, 2, 3)),
    "imp": ((1, 2), (1, -3), (-1, -2, 3)),
    "iff": ((-1, -2, 3), (-1, 2, -3), (1, 2, 3), (1, -2, -3)),
    "xor": ((-1, 2, 3), (-1, -2, -3), (1, -2, 3), (1, 2, -3)),
}


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
    prefix alternates strictly.
    """
    if mode not in ("sat", "valid"):
        raise ValueError(f"unsupported mode '{mode}'")
    if not is_prenex(phi):
        raise NotPrenex("QDIMACS export needs a prenex formula")
    ids, free, blocks, matrix, counter = _numbered_variables(phi, manifest)
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
            manifest.record_tseytin(str(counter))
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
        clauses.append([fold(matrix, leave)])

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
