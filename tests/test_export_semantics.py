"""Differential checks of the emitted solver formats.

The evaluators below work on the exported *text* only, so they share no code
with the writers: QDIMACS blocks are enumerated recursively and an innermost
existential block is decided by unit propagation and splitting, and QCIR
gates are computed as plain boolean functions. Their verdicts must match
the oracle's verdict on the source formula.
"""

import random
from itertools import product

from qprenex.core import FreshGen, Kind, free_vars, nblock, nbvar
from qprenex.export import lower_operators, to_qcir, to_qdimacs
from qprenex.generate import random_formula
from qprenex.parser import parse_formula
from qprenex.semantics import Valuation, evaluate, satisfiable, valid
from qprenex.transform import prenex

from helpers import nested_maj


def cnf_satisfiable(clauses: list[list[int]], env: dict[int, int]) -> bool:
    """Whether some extension of ``env`` satisfies every clause."""
    env = dict(env)
    while True:
        branch = None  # an open clause with two or more unassigned literals
        propagated = False
        for clause in clauses:
            unassigned = []
            for lit in clause:
                value = env.get(abs(lit))
                if value is None:
                    unassigned.append(lit)
                elif value == (1 if lit > 0 else 0):
                    break
            else:
                if not unassigned:
                    return False
                if len(unassigned) == 1:
                    env[abs(unassigned[0])] = 1 if unassigned[0] > 0 else 0
                    propagated = True
                elif branch is None:
                    branch = unassigned
        if not propagated:
            break
    if branch is None:
        return True
    var = abs(branch[0])
    return any(cnf_satisfiable(clauses, {**env, var: bit}) for bit in (1, 0))


def qdimacs_value(text: str, inputs: dict[int, int] | None = None) -> bool:
    """The value of the QDIMACS text with the ids in ``inputs`` fixed."""
    lines = text.splitlines()
    blocks: list[tuple[str, list[int]]] = []
    clauses: list[list[int]] = []
    for line in lines[1:]:
        tokens = line.split()
        if tokens[0] in ("e", "a"):
            blocks.append((tokens[0], [int(t) for t in tokens[1:-1]]))
        else:
            clauses.append([int(t) for t in tokens[:-1]])

    def level(i: int, env: dict[int, int]) -> bool:
        if i == len(blocks) or (i == len(blocks) - 1 and blocks[i][0] == "e"):
            return cnf_satisfiable(clauses, env)
        marker, ids = blocks[i]
        ids = [x for x in ids if x not in env]
        for bits in product((0, 1), repeat=len(ids)):
            value = level(i + 1, {**env, **dict(zip(ids, bits))})
            if marker == "e" and value:
                return True
            if marker == "a" and not value:
                return False
        return marker == "a"

    return level(0, dict(inputs or {}))


def qcir_value(text: str, inputs: dict[int, int]) -> int:
    blocks: list[tuple[str, list[int]]] = []
    gates: dict[int, tuple[str, list[int]]] = {}
    output = None
    for line in text.splitlines()[1:]:
        if line.startswith("free("):
            continue
        if line.startswith(("exists(", "forall(")):
            keyword, rest = line.split("(", 1)
            ids = [int(t) for t in rest.rstrip(")").split(",") if t.strip()]
            blocks.append((keyword, ids))
        elif line.startswith("output("):
            output = int(line[len("output("):-1])
        else:
            head, rest = line.split(" = ")
            op, args = rest.split("(", 1)
            lits = [int(t) for t in args.rstrip(")").split(",") if t.strip()]
            gates[int(head)] = (op, lits)
    assert output is not None

    def matrix_value(var_env: dict[int, int]) -> int:
        cache: dict[int, int] = {}

        def lit(value: int) -> int:
            v = resolve(abs(value))
            return v if value > 0 else 1 - v

        def resolve(index: int) -> int:
            if index in var_env:
                return var_env[index]
            if index not in cache:
                op, lits = gates[index]
                if op == "and":
                    cache[index] = 1 if all(lit(x) for x in lits) else 0
                elif op == "or":
                    cache[index] = 1 if any(lit(x) for x in lits) else 0
                elif op == "xor":
                    a, b = (lit(x) for x in lits)
                    cache[index] = a ^ b
                elif op == "ite":
                    c, t, e = (lit(x) for x in lits)
                    cache[index] = t if c else e
                else:
                    raise AssertionError(f"unexpected gate {op}")
            return cache[index]

        return lit(output)

    def level(i: int, var_env: dict[int, int]) -> int:
        if i == len(blocks):
            return matrix_value(var_env)
        keyword, ids = blocks[i]
        want = 1 if keyword == "exists" else 0
        for bits in product((0, 1), repeat=len(ids)):
            if level(i + 1, {**var_env, **dict(zip(ids, bits))}) == want:
                return want
        return 1 - want

    return level(0, dict(inputs))


def _small_instance(rng):
    while True:
        phi = random_formula(
            rng, pool=("a", "b", "c"), max_depth=2, max_size=10, max_block=1
        )
        if nblock(phi) + 2 * nbvar(phi) <= 5 and len(free_vars(phi)) <= 3:
            return phi


class TestQdimacsDifferential:
    def test_sat_mode_matches_oracle(self):
        rng = random.Random(163)
        for _ in range(40):
            phi = _small_instance(rng)
            transformed = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            text = to_qdimacs(transformed, mode="sat")
            assert qdimacs_value(text) == satisfiable(phi)

    def test_valid_mode_matches_oracle(self):
        rng = random.Random(167)
        for _ in range(40):
            phi = _small_instance(rng)
            transformed = prenex(Kind.FORALL, phi, FreshGen.for_formula(phi))
            text = to_qdimacs(transformed, mode="valid")
            assert qdimacs_value(text) == valid(phi)

    def test_direct_prenex_inputs(self):
        cases = [
            ("exists x . x & ~x", False),
            ("forall x . x | ~x", True),
            ("exists x . forall y . x <-> y", False),
            ("forall y . exists x . x <-> y", True),
        ]
        for text, expected in cases:
            phi = parse_formula(text)
            assert qdimacs_value(to_qdimacs(phi)) is expected


class TestQcirDifferential:
    def test_matches_oracle_per_assignment(self):
        rng = random.Random(173)
        for _ in range(40):
            phi = _small_instance(rng)
            transformed = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            text = to_qcir(transformed)
            names = sorted(free_vars(transformed))
            for bits in product((0, 1), repeat=len(names)):
                valuation = Valuation(dict(zip(names, bits)))
                # free variables are numbered first, in sorted order
                inputs = dict(enumerate(bits, start=1))
                assert qcir_value(text, inputs) == evaluate(valuation, transformed)


class TestSharedEncoding:
    """Nested ``maj`` lowers to a DAG, encoded with one gate per shared node."""

    def test_nested_maj_matches_oracle(self):
        rng = random.Random(179)
        for depth in range(1, 5):
            problem = nested_maj(depth)
            phi, table = problem.formula, problem.table
            for mode, kind in (("sat", Kind.EXISTS), ("valid", Kind.FORALL)):
                transformed = prenex(kind, phi, FreshGen.for_formula(phi))
                lowered = lower_operators(transformed, table)
                qcir = to_qcir(lowered, table)
                qdimacs = to_qdimacs(lowered, table, mode)
                if depth < 4:  # the sat verdict enumerates 2^21 at depth 4
                    verdict = satisfiable(phi, table) if mode == "sat" else valid(phi, table)
                    assert qdimacs_value(qdimacs) is verdict
                # Free names are numbered first, in sorted order.
                names = sorted(free_vars(transformed))
                for _ in range(12):
                    bits = [rng.randint(0, 1) for _ in names]
                    want = evaluate(Valuation(dict(zip(names, bits))), transformed, table)
                    inputs = dict(enumerate(bits, start=1))
                    assert qcir_value(qcir, inputs) == want
                    assert qdimacs_value(qdimacs, inputs) is bool(want)
