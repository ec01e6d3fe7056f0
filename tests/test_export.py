import gc
import random
from itertools import product

import pytest

from qprenex.core import (
    App,
    FreshGen,
    Kind,
    OperatorTable,
    Quant,
    Var,
    free_vars,
    vars_of,
)
from qprenex.export import (
    Manifest,
    NotPrenex,
    UnloweredOperator,
    lower_operators,
    manifest_for_text_export,
    to_prenex_text,
    to_qcir,
    to_qdimacs,
)
from qprenex.generate import nested_iff_family, random_formula, random_problem
from qprenex.parser import Problem, format_problem, parse, parse_formula
from qprenex.semantics import (
    W,
    Valuation,
    equivalent,
    evaluate,
    find_disagreement,
    satisfiable,
    valid,
)
from qprenex.transform import prenex, prenex_mc

from helpers import cli_outputs, oracle_problem, worked_example


class TestPrenexText:
    def test_simple(self):
        phi = parse_formula("forall a . exists b . a -> b")
        assert to_prenex_text(phi) == "forall a . exists b . a -> b"

    def test_boolean_matrix_only(self):
        assert to_prenex_text(parse_formula("a xor b")) == "a xor b"

    def test_not_prenex(self):
        with pytest.raises(NotPrenex):
            to_prenex_text(parse_formula("a & (exists x . x)"))

    def test_reparse_with_flag(self):
        rng = random.Random(137)
        for _ in range(200):
            phi = random_formula(rng, max_size=25)
            result = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            text = to_prenex_text(result)
            assert parse_formula(text, allow_internal_names=True) == result


class TestQcir:
    def test_contradiction_example(self):
        phi = parse_formula("exists x . x & ~x")
        assert to_qcir(phi) == (
            "#QCIR-G14 2\n"
            "exists(1)\n"
            "output(2)\n"
            "2 = and(1, -1)\n"
        )

    def test_boolean_gates_only(self):
        text = to_qcir(parse_formula("a | b"))
        lines = text.splitlines()
        assert lines[0] == "#QCIR-G14 3"
        assert lines[1] == "free(1, 2)"
        assert lines[2] == "output(3)"
        assert lines[3] == "3 = or(1, 2)"

    def test_worked_example_exports(self):
        result = prenex(Kind.EXISTS, worked_example(), FreshGen())
        text = to_qcir(result)
        assert text.startswith("#QCIR-G14 ")
        assert "forall(" in text and "exists(" in text

    def test_iff_and_imp_lowered_to_gates(self):
        text = to_qcir(parse_formula("(a -> b) & (a <-> b)"))
        assert "ite(" in text
        assert "or(-1, 2)" in text

    def test_unlowered_operator(self):
        problem = parse("op maj/3 : 00010111 ; exists x . maj(x, a, b)")
        with pytest.raises(UnloweredOperator):
            to_qcir(problem.formula, problem.table)
        lowered = lower_operators(problem.formula, problem.table)
        to_qcir(lowered, problem.table)  # no error once lowered

    def test_not_prenex(self):
        with pytest.raises(NotPrenex):
            to_qcir(parse_formula("a & (exists x . x)"))


class TestLowering:
    def test_minterm_matches_truth_table(self):
        problem = parse("op maj/3 : 00010111 ; maj(a, b, c)")
        lowered = lower_operators(problem.formula, problem.table)
        assert equivalent(problem.formula, lowered, problem.table)
        ops = {f.op for f in _walk_apps(lowered)}
        assert ops <= {"and", "or", "not", "true", "false"}

    def test_zero_arity(self):
        table = OperatorTable.default()
        table.add("always", 0, (1,))
        lowered = lower_operators(App("always", ()), table)
        assert lowered == App("true", ())

    def test_random_tables(self):
        rng = random.Random(139)
        for trial in range(50):
            table = OperatorTable.default()
            bits = [rng.randint(0, 1) for _ in range(4)]
            table.add("g", 2, bits)
            phi = App("g", (Var("a"), App("not", (Var("b"),))))
            lowered = lower_operators(phi, table)
            assert equivalent(phi, lowered, table)


def _walk_apps(phi):
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, App):
            yield f
            stack.extend(f.args)
        elif isinstance(f, Quant):
            stack.append(f.body)


class TestQdimacs:
    def test_single_variable(self):
        assert to_qdimacs(parse_formula("exists x . x")) == (
            "p cnf 1 1\n"
            "e 1 0\n"
            "1 0\n"
        )

    def test_adjacent_existential_blocks_merge(self):
        phi = Quant(
            Kind.EXISTS, ("x",), Quant(Kind.EXISTS, ("y",), parse_formula("x & y"))
        )
        text = to_qdimacs(phi)
        lines = text.splitlines()
        assert lines[1] == "e 1 2 3 0"  # both blocks plus the definition var
        assert sum(1 for line in lines if line.startswith(("e ", "a "))) == 1

    def test_free_variables_sat_vs_valid(self):
        phi = parse_formula("a | b")
        sat_lines = to_qdimacs(phi, mode="sat").splitlines()
        valid_lines = to_qdimacs(phi, mode="valid").splitlines()
        assert sat_lines[1].startswith("e 1 2")
        assert valid_lines[1].startswith("a 1 2")

    def test_header_counts_match_body(self):
        rng = random.Random(149)
        for _ in range(200):
            phi = random_formula(rng, max_size=25)
            result = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            text = to_qdimacs(result)
            lines = text.splitlines()
            _, _, nvars, nclauses = lines[0].split()
            clause_lines = [
                line for line in lines[1:] if not line.startswith(("e ", "a "))
            ]
            assert len(clause_lines) == int(nclauses)
            declared = {
                int(tok)
                for line in lines[1:]
                if line.startswith(("e ", "a "))
                for tok in line.split()[1:-1]
            }
            assert declared == set(range(1, int(nvars) + 1))

    def test_literals_within_declared_range(self):
        rng = random.Random(151)
        for _ in range(100):
            phi = random_formula(rng, max_size=25)
            result = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            lines = to_qdimacs(result).splitlines()
            nvars = int(lines[0].split()[2])
            for line in lines[1:]:
                body = line.split()
                if line.startswith(("e ", "a ")):
                    body = body[1:]
                assert body[-1] == "0"
                assert all(1 <= abs(int(tok)) <= nvars for tok in body[:-1])

    def test_cnf_equisatisfiable_after_projection(self):
        # For every assignment of the matrix variables, the matrix is true
        # exactly when the clause set extends to the definition variables.
        rng = random.Random(157)
        done = 0
        while done < 60:
            matrix = random_formula(rng, pool=("a", "b", "c"), max_depth=0, max_size=9)
            if len(free_vars(matrix)) > 3:
                continue
            text = to_qdimacs(matrix)
            lines = text.splitlines()
            nvars = int(lines[0].split()[2])
            clauses = [
                [int(tok) for tok in line.split()[:-1]]
                for line in lines[1:]
                if not line.startswith(("e ", "a "))
            ]
            names = sorted(free_vars(matrix))
            base = len(names)
            for bits in product((0, 1), repeat=base):
                want = evaluate(Valuation(dict(zip(names, bits))), matrix)
                have = 0
                for tail in product((0, 1), repeat=nvars - base):
                    assignment = dict(
                        enumerate(list(bits) + list(tail), start=1)
                    )
                    if all(
                        any(
                            assignment[abs(lit)] == (1 if lit > 0 else 0)
                            for lit in clause
                        )
                        for clause in clauses
                    ):
                        have = 1
                        break
                assert have == want
            done += 1

    def test_constant_matrices(self):
        taut = to_qdimacs(parse_formula("forall x . x | ~x | y"))
        assert is_prenex_header_consistent(taut)
        always = to_qdimacs(parse_formula("true"))
        assert always == "p cnf 0 0\n"
        never = to_qdimacs(parse_formula("false"))
        assert never == "p cnf 0 1\n0\n"

    def test_not_prenex(self):
        with pytest.raises(NotPrenex):
            to_qdimacs(parse_formula("a & (exists x . x)"))

    def test_shadowed_prefix_numbering(self):
        # Rebinding a name across blocks must not collide ids; the matrix
        # occurrence belongs to the innermost binding.
        phi = parse_formula("exists x . forall x . x & y")
        lines = to_qdimacs(phi).splitlines()
        assert lines[0] == "p cnf 4 4"
        assert lines[1] == "e 1 2 0"
        assert lines[2] == "a 3 0"
        assert "-4 3 0" in lines
        qcir = to_qcir(phi).splitlines()
        assert qcir[-1] == "4 = and(3, 1)"


def is_prenex_header_consistent(text: str) -> bool:
    lines = text.splitlines()
    _, _, nvars, nclauses = lines[0].split()
    clause_lines = [l for l in lines[1:] if not l.startswith(("e ", "a "))]
    return len(clause_lines) == int(nclauses)


class TestManifest:
    def test_covers_exactly_emitted_variables(self):
        phi = prenex(Kind.EXISTS, worked_example(), FreshGen())
        manifest = Manifest(mode="sat", digest="abc")
        text = to_qdimacs(phi, manifest=manifest)
        nvars = int(text.splitlines()[0].split()[2])
        emitted = {entry.emitted for entry in manifest.entries}
        assert emitted == {str(i) for i in range(1, nvars + 1)}
        assert len(manifest.entries) == nvars

    def test_roles_and_render(self):
        phi = prenex(Kind.EXISTS, worked_example(), FreshGen())
        manifest = Manifest(mode="sat", digest="deadbeef")
        manifest_for_text_export(phi, manifest)
        roles = {e.role for e in manifest.entries}
        assert {"source", "pos-copy", "neg-copy", "abbrev"} <= roles
        rendered = manifest.render()
        header, *rows = rendered.strip().splitlines()
        assert header.startswith("# qprenex-manifest mode=sat")
        assert "input-sha256=deadbeef" in header
        assert len(rows) == len(vars_of(phi))
        for row in rows:
            assert len(row.split("\t")) == 4

    def test_qcir_gate_roles(self):
        manifest = Manifest()
        to_qcir(parse_formula("exists x . x & ~x"), manifest=manifest)
        by_role = {e.role for e in manifest.entries}
        assert by_role == {"source", "tseytin"}


def test_pipeline_leaves_no_cyclic_garbage():
    # Recursive closures that keep a cell pointing at themselves would hold
    # their frame's tables until a collector pass; the pipeline must free
    # everything by reference counting alone.
    rng = random.Random(31)
    sources = [format_problem(random_problem(rng, max_size=120)) for _ in range(20)]
    sources.append(format_problem(Problem((), nested_iff_family(6), OperatorTable())))
    # The oracle calls of `check` on truth tables, and on the enumeration
    # that a block of more than W names falls back to.
    small = [oracle_problem(rng, limit=10) for _ in range(10)]
    wide = parse(
        "exists " + " ".join(f"x{i:02}" for i in range(W + 1))
        + f" . (x{W:02} <-> y) & (x{W - 1:02} xor z)"
    )
    gc.collect()
    gc.disable()
    try:
        for source in sources:
            problem = parse(source)
            for mode in ("sat", "valid", "mc"):
                for fmt in ("fqbf", "qcir", "qdimacs"):
                    cli_outputs(problem, mode, fmt)
        for phi, table in [(p.formula, p.table) for p in small] + [
            (wide.formula, wide.table)
        ]:
            parts = prenex_mc(phi, FreshGen.for_formula(phi))
            satisfiable(phi, table)
            valid(phi, table)
            find_disagreement(phi, parts, table)
            evaluate(Valuation({"y": 1}), phi, table)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
