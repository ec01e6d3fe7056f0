"""Independent QBF reference for the benchmark's output checks.

Nothing here calls ``qprenex.semantics``, ``qprenex.export`` or the metric
walkers of ``qprenex.core``: the evaluator, the walkers and the QCIR /
QDIMACS readers are written from the format definitions, so a fault in the
library cannot hide itself by also being in the check.

The evaluator works on truth tables packed into Python ints.  Over ``n``
names a table has ``2**n`` bits; bit ``r`` is the value under the
assignment whose name ``i`` takes bit ``i`` of ``r``.  Quantifying a name
folds its two halves together, so a quantified table no longer depends on
that name and shadowed rebinding needs no special case.
"""

from __future__ import annotations

from dataclasses import dataclass

from qprenex.core import App, Quant, Var

#: Largest number of names the evaluator accepts (a table is 2**n bits).
MAX_NAMES = 22

# Truth tables of the built-in operators, first argument most significant,
# as the .fqbf format defines them.
BUILTIN_BITS = {
    "true": "1",
    "false": "0",
    "not": "10",
    "and": "0001",
    "or": "0111",
    "imp": "1101",
    "iff": "1001",
    "xor": "0110",
}


class CheckError(Exception):
    """An output broke a property the benchmark checks."""


# ---------------------------------------------------------------------------
# Walkers over qprenex formula trees (iterative: outputs nest deeply)


def children(f):
    if isinstance(f, App):
        return f.args
    if isinstance(f, Quant):
        return (f.body,)
    return ()


def symbols(phi) -> int:
    """The paper's length: names and operators count 1, negation 0,
    a quantifier block 1 plus its size."""
    total = 0
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Var):
            total += 1
        elif isinstance(f, Quant):
            total += 1 + len(f.block)
        elif f.op != "not":
            total += 1
        stack.extend(children(f))
    return total


def quantifier_depth(phi) -> int:
    best = 0
    stack = [(phi, 0)]
    while stack:
        f, d = stack.pop()
        d += isinstance(f, Quant)
        best = max(best, d)
        stack.extend((c, d) for c in children(f))
    return best


def quantifiers(phi) -> tuple[int, int]:
    """Quantifier blocks, and quantified names summed over the blocks."""
    blocks = names = 0
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Quant):
            blocks += 1
            names += len(f.block)
        stack.extend(children(f))
    return blocks, names


def is_prenex(phi) -> bool:
    """A chain of quantifier blocks over a quantifier-free matrix."""
    while isinstance(phi, Quant):
        phi = phi.body
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Quant):
            return False
        stack.extend(children(f))
    return True


def names_of(phi) -> set[str]:
    """Every name that occurs, as a variable or in a block."""
    names = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Var):
            names.add(f.name)
        elif isinstance(f, Quant):
            names.update(f.block)
        stack.extend(children(f))
    return names


def free_names(phi) -> set[str]:
    free = set()
    stack = [(phi, frozenset())]
    while stack:
        f, bound = stack.pop()
        if isinstance(f, Var):
            if f.name not in bound:
                free.add(f.name)
        elif isinstance(f, Quant):
            stack.append((f.body, bound | set(f.block)))
        else:
            stack.extend((a, bound) for a in f.args)
    return free


# ---------------------------------------------------------------------------
# Truth tables


class Tables:
    """Truth-table arithmetic over a fixed list of names."""

    def __init__(self, names):
        names = list(names)
        if len(names) > MAX_NAMES:
            raise CheckError(f"{len(names)} names exceed the evaluator's {MAX_NAMES}")
        self.index = {name: i for i, name in enumerate(names)}
        rows = 1 << len(names)
        self.full = (1 << rows) - 1
        self.masks = []
        for i in range(len(names)):
            half = 1 << i
            mask, width = ((1 << half) - 1) << half, 2 * half
            while width < rows:
                mask |= mask << width
                width *= 2
            self.masks.append(mask)

    def var(self, name) -> int:
        return self.masks[self.index[name]]

    def quantify(self, kind: str, name, table: int) -> int:
        i = self.index[name]
        mask, shift = self.masks[i], 1 << i
        low = table & (self.full ^ mask)
        high = (table & mask) >> shift
        folded = low | high if kind == "exists" else low & high
        return folded | (folded << shift)

    def restrict(self, table: int, kept: int) -> int:
        """The rows where only the first ``kept`` names may be 1: for a table
        that depends on no other name, its truth table over those names."""
        return table & ((1 << (1 << kept)) - 1)

    def apply(self, bits: str, args: list[int]) -> int:
        """An operator given by its truth-table bitstring, as a sum of minterms."""
        arity = len(args)
        result = 0
        for row, bit in enumerate(bits):
            if bit == "1":
                term = self.full
                for j, arg in enumerate(args):
                    term &= arg if (row >> (arity - 1 - j)) & 1 else self.full ^ arg
                result |= term
        return result


def formula_table(phi, operators: dict[str, str], tables: Tables) -> int:
    """Truth table of a qprenex formula; ``operators`` maps user ops to bits."""
    if isinstance(phi, Var):
        return tables.var(phi.name)
    if isinstance(phi, Quant):
        table = formula_table(phi.body, operators, tables)
        for name in phi.block:
            table = tables.quantify(phi.kind.value, name, table)
        return table
    bits = BUILTIN_BITS.get(phi.op) or operators[phi.op]
    return tables.apply(bits, [formula_table(a, operators, tables) for a in phi.args])


def projection(phi, operators: dict[str, str], keep: list[str], kind: str) -> int:
    """Truth table of ``phi`` over the names ``keep`` (row r gives name i
    bit i of r), with every other free name bound by ``kind``."""
    others = sorted(names_of(phi) - set(keep))
    tables = Tables(list(keep) + others)
    table = formula_table(phi, operators, tables)
    for name in others:
        table = tables.quantify(kind, name, table)
    return tables.restrict(table, len(keep))


def decide(phi, operators: dict[str, str], kind: str) -> bool:
    """Value of ``phi`` with its free names bound by ``kind``."""
    return projection(phi, operators, [], kind) == 1


# ---------------------------------------------------------------------------
# QCIR-G14 (prenex, cleansed form)


@dataclass
class Qcir:
    declared: int
    free: list[int]
    blocks: list[tuple[str, list[int]]]
    output: int
    gates: list[tuple[int, str, list[int]]]


def _ints(text: str) -> list[int]:
    text = text.strip()
    return [int(x) for x in text.split(",")] if text else []


def read_qcir(text: str) -> Qcir:
    """Parse and validate: header count, each variable declared once in a
    strictly alternating prefix, every gate defined once before its use."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#QCIR-G14 "):
        raise CheckError("QCIR: missing '#QCIR-G14 <n>' header")
    header = int(lines[0].split()[1])
    free: list[int] = []
    blocks: list[tuple[str, list[int]]] = []
    output = None
    gates: list[tuple[int, str, list[int]]] = []
    for line in lines[1:]:
        if "=" in line:
            gid, rhs = line.split("=", 1)
            op, args = rhs.strip().rstrip(")").split("(", 1)
            gates.append((int(gid), op.strip(), _ints(args)))
            continue
        if gates:
            raise CheckError(f"QCIR: '{line}' after the first gate")
        keyword, args = line.rstrip(")").split("(", 1)
        if keyword == "free":
            if free or blocks:
                raise CheckError("QCIR: free() must come first, once")
            free = _ints(args)
        elif keyword in ("exists", "forall"):
            if blocks and blocks[-1][0] == keyword:
                raise CheckError("QCIR: prefix does not alternate strictly")
            blocks.append((keyword, _ints(args)))
        elif keyword == "output":
            output = int(args)
        else:
            raise CheckError(f"QCIR: unknown line '{line}'")
    if output is None:
        raise CheckError("QCIR: no output line")
    variables = free + [v for _, vs in blocks for v in vs]
    if len(set(variables)) != len(variables):
        raise CheckError("QCIR: a variable is declared twice")
    defined = set(variables)
    for gid, op, args in gates:
        if gid in defined:
            raise CheckError(f"QCIR: id {gid} defined twice")
        if op not in ("and", "or", "xor", "ite") or (op == "ite") != (len(args) == 3):
            raise CheckError(f"QCIR: bad gate {gid} = {op}{tuple(args)}")
        if op == "xor" and len(args) != 2:
            raise CheckError(f"QCIR: xor gate {gid} needs two inputs")
        missing = [a for a in args if abs(a) not in defined]
        if missing:
            raise CheckError(f"QCIR: gate {gid} uses {missing[0]} before its definition")
        defined.add(gid)
    if abs(output) not in defined:
        raise CheckError(f"QCIR: output {output} is not defined")
    if header != max(defined, default=0) or defined != set(range(1, header + 1)):
        raise CheckError(f"QCIR: header count {header} does not match ids 1..{max(defined, default=0)}")
    return Qcir(len(variables), free, blocks, output, gates)


def qcir_projection(circuit: Qcir, keep: list, kind: str) -> int:
    """Truth table over the free variables ``keep`` (ids, or placeholders
    for names the circuit lacks), other free variables bound by ``kind``."""
    declared = circuit.free + [v for _, vs in circuit.blocks for v in vs]
    tables = Tables(list(keep) + [v for v in declared if v not in keep])
    value = {v: tables.var(v) for v in declared}

    def lit(x: int) -> int:
        return value[x] if x > 0 else tables.full ^ value[-x]

    for gid, op, args in circuit.gates:
        ins = [lit(a) for a in args]
        if op == "and":
            out = tables.full
            for t in ins:
                out &= t
        elif op == "or":
            out = 0
            for t in ins:
                out |= t
        elif op == "xor":
            out = ins[0] ^ ins[1]
        else:
            out = (ins[0] & ins[1]) | ((tables.full ^ ins[0]) & ins[2])
        value[gid] = out
    table = lit(circuit.output)
    for block_kind, vs in reversed([(kind, circuit.free)] + circuit.blocks):
        for v in vs:
            if v not in keep:
                table = tables.quantify(block_kind, v, table)
    return tables.restrict(table, len(keep))


# ---------------------------------------------------------------------------
# QDIMACS


@dataclass
class Qdimacs:
    nvars: int
    blocks: list[tuple[str, list[int]]]
    clauses: list[list[int]]


def read_qdimacs(text: str) -> Qdimacs:
    """Parse and validate: header counts, each variable declared once in a
    strictly alternating prefix, every literal declared."""
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 4 or head[:2] != ["p", "cnf"]:
        raise CheckError("QDIMACS: missing 'p cnf <vars> <clauses>' header")
    nvars, nclauses = int(head[2]), int(head[3])
    blocks: list[tuple[str, list[int]]] = []
    clauses: list[list[int]] = []
    for line in lines[1:]:
        items = line.split()
        if not items or items[-1] != "0":
            raise CheckError(f"QDIMACS: line '{line}' does not end in 0")
        if items[0] in ("a", "e"):
            if clauses:
                raise CheckError("QDIMACS: quantifier line after a clause")
            kind = "exists" if items[0] == "e" else "forall"
            if blocks and blocks[-1][0] == kind:
                raise CheckError("QDIMACS: prefix does not alternate strictly")
            blocks.append((kind, [int(x) for x in items[1:-1]]))
        else:
            clauses.append([int(x) for x in items[:-1]])
    if len(clauses) != nclauses:
        raise CheckError(f"QDIMACS: header says {nclauses} clauses, found {len(clauses)}")
    declared = [v for _, vs in blocks for v in vs]
    if len(set(declared)) != len(declared):
        raise CheckError("QDIMACS: a variable is declared twice")
    if set(declared) != set(range(1, nvars + 1)):
        raise CheckError(f"QDIMACS: prefix does not declare exactly 1..{nvars}")
    for clause in clauses:
        for x in clause:
            if x == 0 or abs(x) > nvars:
                raise CheckError(f"QDIMACS: literal {x} out of range")
    return Qdimacs(nvars, blocks, clauses)


def qdimacs_projection(cnf: Qdimacs, keep: list) -> int:
    """Truth table over the variables ``keep`` (ids, or placeholders for
    names the file lacks), which are read as free although the prefix binds
    them; every other variable is bound as the prefix says.

    An innermost existential block (it holds the CNF definition variables)
    is decided for all rows of the table at once by unit propagation.  While
    some rows stay open, the first of that block's variables left open moves
    into the table as one more name, to be quantified like the others.
    """
    blocks = cnf.blocks
    inner: list[int] = []
    if blocks and blocks[-1][0] == "exists":
        inner = [v for v in blocks[-1][1] if v not in keep]
        blocks = blocks[:-1]
    outer = list(keep) + [v for _, vs in blocks for v in vs if v not in keep]
    branched: list[int] = []
    while True:
        tables = Tables(outer + branched)
        table, open_var = _propagate(cnf.clauses, tables, [v for v in inner if v not in branched])
        if open_var is None:
            break
        branched.append(open_var)
    for v in branched:
        table = tables.quantify("exists", v, table)
    for kind, vs in reversed(blocks):
        for v in vs:
            if v not in keep:
                table = tables.quantify(kind, v, table)
    return tables.restrict(table, len(keep))


def _propagate(clauses: list[list[int]], tables: Tables, inner: list[int]):
    """Rows where the CNF is satisfiable over ``inner``, found by unit
    propagation, and the first inner variable it left open (None if none)."""
    full = tables.full
    forced = {v: [0, 0] for v in inner}  # rows where v is forced false / true

    def false_rows(x: int) -> int:
        if abs(x) in forced:
            return forced[abs(x)][x < 0]
        mask = tables.var(abs(x))
        return full ^ mask if x > 0 else mask

    conflict = 0
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            falses = [false_rows(x) for x in clause]
            after = [full] * (len(clause) + 1)
            for j in range(len(clause) - 1, -1, -1):
                after[j] = after[j + 1] & falses[j]
            before = full
            for j, x in enumerate(clause):
                if abs(x) in forced:
                    pair = forced[abs(x)]
                    grown = pair[x > 0] | (before & after[j + 1])
                    if grown != pair[x > 0]:
                        pair[x > 0] = grown
                        changed = True
                before &= falses[j]
            conflict |= before
    for pair in forced.values():
        conflict |= pair[0] & pair[1]
    alive = full ^ conflict
    for v in inner:
        if alive & ~(forced[v][0] | forced[v][1]):
            return 0, v
    return alive, None
