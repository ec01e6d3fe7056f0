import gc
import random
import time
from itertools import product

import pytest

from qprenex.cli import _transform
from qprenex.core import (
    App,
    FALSE,
    TRUE,
    FreshGen,
    Kind,
    OperatorTable,
    Quant,
    Var,
    conj,
    disj,
    fold,
    free_vars,
    iff,
    implies,
    is_prenex,
    neg,
    nodes,
    vars_of,
    xor,
)
from qprenex.export import (
    CORE_EXPORT_OPS,
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
from qprenex.transform import SizeBudgetExceeded, naive_prenex, prenex, prenex_mc

from helpers import (
    cli_outputs,
    nested_maj,
    oracle_problem,
    reference_to_qdimacs,
    worked_example,
)
from test_golden import golden_corpora


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

    def test_wrong_argument_count_is_refused(self):
        table = parse("op maj/3 : 00010111 ; maj(a, b, c)").table
        a, b, c = Var("a"), Var("b"), Var("c")
        for args in ((a, b, c, FALSE), (a, b)):
            with pytest.raises(
                ValueError, match=f"operator 'maj' expects 3 arguments, got {len(args)}$"
            ):
                lower_operators(App("maj", args), table)

    def test_zero_arity(self):
        table = OperatorTable()
        table.add("always", 0, (1,))
        lowered = lower_operators(App("always", ()), table)
        assert lowered == App("true", ())

    def test_random_tables(self):
        rng = random.Random(139)
        for trial in range(50):
            table = OperatorTable()
            bits = [rng.randint(0, 1) for _ in range(4)]
            table.add("g", 2, bits)
            phi = App("g", (Var("a"), App("not", (Var("b"),))))
            lowered = lower_operators(phi, table)
            assert equivalent(phi, lowered, table)


class TestLoweringShares:
    def test_formula_without_user_operators_comes_back_itself(self):
        phi = prenex(Kind.EXISTS, nested_iff_family(30), FreshGen())
        assert lower_operators(phi) is phi

    def test_no_user_operator_skips_the_walk(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("lower_operators walked its input")

        monkeypatch.setattr("qprenex.export.fold", no_walk)
        phi = prenex(Kind.EXISTS, nested_iff_family(4), FreshGen())
        for table in (None, OperatorTable(), parse("a & b").table):
            assert lower_operators(phi, table) is phi

    def test_declared_user_operator_still_walks(self, monkeypatch):
        walks = []

        def counted(phi, *args, **kwargs):
            walks.append(phi)
            return fold(phi, *args, **kwargs)

        monkeypatch.setattr("qprenex.export.fold", counted)
        table = parse("op maj/3 : 00010111 ; a").table
        phi = prenex(Kind.EXISTS, nested_iff_family(4), FreshGen())
        assert lower_operators(phi, table) is phi
        assert walks == [phi]

    def test_undeclared_operator_is_refused_by_the_writers(self):
        a, b = Var("a"), Var("b")
        for phi in (App("foo", (a, b)), App("foo", (a,)), App("foo", ()),
                    conj(a, App("foo", (TRUE, neg(b))))):
            assert lower_operators(phi, OperatorTable()) is phi  # no KeyError
            for write in (to_qcir, to_qdimacs):
                with pytest.raises(UnloweredOperator, match="'foo'"):
                    write(phi)

    def test_only_ancestors_of_user_operators_are_rebuilt(self):
        rng = random.Random(163)
        rebuilt = 0
        for _ in range(60):
            problem = random_problem(rng, max_size=80)
            lowered = lower_operators(problem.formula, problem.table)
            kept = {id(f) for f in nodes(lowered)}
            for f in nodes(problem.formula):
                if isinstance(f, App) and not f.args:
                    continue  # a constant argument may vanish from a minterm
                has_user = any(
                    isinstance(g, App) and g.op not in CORE_EXPORT_OPS for g in nodes(f)
                )
                assert (id(f) in kept) is not has_user
                rebuilt += has_user
        assert rebuilt > 0

    def test_shared_input_is_lowered_once_per_object(self):
        # Lowered nested maj shares each argument among four minterms: under
        # 200 objects, but 4^10 nodes as a tree, which takes tens of seconds
        # to walk.
        problem = nested_maj(10)
        lowered = lower_operators(problem.formula, problem.table)
        start = time.perf_counter()
        assert lower_operators(lowered, problem.table) is lowered
        assert time.perf_counter() - start < 1.0

    def test_deep_input_lowers_at_the_default_recursion_limit(self):
        problem = parse("op maj/3 : 00010111 ; maj(a, b, c)")
        bottom = problem.formula

        def imp_chain(f):
            for i in range(10**5):
                f = App("imp", (Var(f"x{i % 7}"), f))
            return f

        plain = imp_chain(parse_formula("x -> y"))
        assert lower_operators(plain) is plain
        deep = imp_chain(bottom)
        f, g = deep, lower_operators(deep, problem.table)
        while f is not bottom:
            assert g is not f and g.op == "imp" and g.args[0] is f.args[0]
            f, g = f.args[1], g.args[1]
        assert g == lower_operators(bottom, problem.table)


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


# An open subtree the writer encodes (three gates) before it meets the
# constant that drops it.
_OPEN = "((a & b) xor (c | d))"


def _hand_corpus() -> list[str]:
    texts = []
    for op in ("&", "|", "->", "<->", "xor"):
        for const in ("true", "false"):
            for inner in (f"{_OPEN} {op} {const}", f"{const} {op} {_OPEN}"):
                texts.append(f"(e <-> f) & ({inner}) & (g -> h)")
                texts.append(f"~({inner}) xor (e & f)")
                texts.append(f"exists e . forall f . (e | f) -> ~~({inner})")
    texts += [
        "true",
        "false",
        "~true",
        "exists x . (x | a) & false",
        "forall x . (x xor a) | true",
        "~((((a & b) <-> c) & false) | (d & e))",
        "((a & b) | (c & false)) & ((d xor e) | true) & ((f -> g) <-> ~false)",
        "op t/0 : 1 ; op f/0 : 0 ; ((a & b) | c) & f",
        "op t/0 : 1 ; op f/0 : 0 ; (e xor ((a & b) | t)) -> (f <-> (c & d))",
        "op m/2 : 0110 ; m(true, a & b) | (c <-> d)",
        "op maj/3 : 00010111 ; exists x . maj(true, x & a, b) xor maj(a, false, (b | c))",
        # Lowering shares ``p & q`` among the minterms; the first one encodes
        # it under ``& false``, the later ones must encode it afresh.
        "op maj/3 : 00010111 ; maj(p & q, false, r)",
        "op maj/3 : 00010111 ; forall r . maj((p & q) xor s, r, false) | (s <-> r)",
        "op maj/3 : 00010111 ; maj(p | q, maj(p & q, false, r), false -> s)",
    ]
    return texts


class TestOnePassQdimacs:
    """``to_qdimacs`` folds constants while it encodes; it must write the text
    and ``.map`` of folding the whole matrix first, byte for byte."""

    @staticmethod
    def _assert_matches_reference(phi, table):
        for mode in ("sat", "valid"):
            mine, theirs = Manifest(mode=mode), Manifest(mode=mode)
            text = to_qdimacs(phi, table, mode, mine)
            assert text == reference_to_qdimacs(phi, table, mode, theirs)
            assert mine.render() == theirs.render()

    def test_golden_corpora_in_every_mode(self):
        for problems in golden_corpora().values():
            for problem in problems:
                phi = problem.formula
                for mode in ("sat", "valid", "mc"):
                    result = _transform(mode, phi)
                    if is_prenex(result):
                        lowered = lower_operators(result, problem.table)
                        self._assert_matches_reference(lowered, problem.table)

    @pytest.mark.parametrize("text", _hand_corpus())
    def test_constants_that_drop_encoded_subtrees(self, text):
        problem = parse(text)
        lowered = lower_operators(problem.formula, problem.table)
        self._assert_matches_reference(lowered, problem.table)
        # Nullary user operators fold without lowering.
        if all(
            f.op in CORE_EXPORT_OPS or not f.args for f in _walk_apps(problem.formula)
        ):
            self._assert_matches_reference(problem.formula, problem.table)

    def test_random_matrices_dense_in_constants(self):
        rng = random.Random(167)
        for _ in range(400):
            phi = random_formula(
                rng, pool=("a", "b", "c", "d"), max_depth=2, max_size=30, const_weight=0.3
            )
            for mode in ("sat", "valid", "mc"):
                result = _transform(mode, phi)
                if is_prenex(result):
                    self._assert_matches_reference(result, None)

    def test_shared_subtrees_dropped_by_a_constant(self):
        # ``s`` is encoded first inside a subtree that a constant then drops,
        # and reused afterwards: the reuse must not name a gate taken back.
        s = parse_formula("(a & b) xor c")
        d, e = Var("d"), Var("e")
        dropping = (
            conj(conj(neg(s), d), FALSE),
            disj(conj(s, d), TRUE),
            implies(FALSE, disj(d, s)),
            implies(iff(s, d), TRUE),
            xor(conj(s, FALSE), d),
        )
        for dropped in dropping:
            for phi in (
                conj(dropped, iff(s, e)),
                disj(xor(e, dropped), conj(neg(s), d)),
                iff(conj(dropped, s), dropped),
            ):
                self._assert_matches_reference(phi, None)
                self._assert_matches_reference(Quant(Kind.FORALL, ("c",), phi), None)

    def test_unlowered_user_operator(self):
        problem = parse("op maj/3 : 00010111 ; exists x . maj(x, a, b) & true")
        with pytest.raises(UnloweredOperator, match="'maj'"):
            to_qdimacs(problem.formula, problem.table)


class TestSharedSubformulas:
    """A lowered matrix is a DAG; each application object is encoded once."""

    def test_shared_subformula_is_one_gate(self):
        s = parse_formula("a & b")
        phi = disj(s, xor(s, Var("c")))
        assert to_qcir(phi) == (
            "#QCIR-G14 6\n"
            "free(1, 2, 3)\n"
            "output(6)\n"
            "4 = and(1, 2)\n"
            "5 = xor(4, 3)\n"
            "6 = or(4, 5)\n"
        )
        assert to_qdimacs(phi).splitlines()[0] == "p cnf 6 11"

    def test_nested_maj_grows_linearly(self):
        # As a tree, each level multiplies the lowered matrix by four.
        for mode in ("sat", "valid"):
            for fmt in ("qcir", "qdimacs"):
                sizes = []
                for depth in range(1, 11):
                    text, sidecar = cli_outputs(nested_maj(depth), mode, fmt)
                    header = text.split("\n", 1)[0].split()
                    top = int(header[1] if fmt == "qcir" else header[2])
                    assert len(sidecar.splitlines()) == top + 1
                    sizes.append(len(text))
                steps = [b - a for a, b in zip(sizes, sizes[1:])]
                assert max(steps) <= 1.5 * steps[0], (mode, fmt, sizes)
                assert sizes[-1] < 10_000, (mode, fmt, sizes)


def is_prenex_header_consistent(text: str) -> bool:
    lines = text.splitlines()
    _, _, nvars, nclauses = lines[0].split()
    clause_lines = [l for l in lines[1:] if not l.startswith(("e ", "a "))]
    return len(clause_lines) == int(nclauses)


def _manifest_rows(manifest: Manifest) -> list[list[str]]:
    """The rendered sidecar's rows below its header, split into fields."""
    return [row.split("\t") for row in manifest.render().splitlines()[1:]]


class TestManifest:
    def test_covers_exactly_emitted_variables(self):
        phi = prenex(Kind.EXISTS, worked_example(), FreshGen())
        manifest = Manifest(mode="sat", digest="abc")
        text = to_qdimacs(phi, manifest=manifest)
        nvars = int(text.splitlines()[0].split()[2])
        rows = _manifest_rows(manifest)
        emitted = {row[0] for row in rows}
        assert emitted == {str(i) for i in range(1, nvars + 1)}
        assert len(rows) == nvars

    def test_roles_and_render(self):
        phi = prenex(Kind.EXISTS, worked_example(), FreshGen())
        manifest = Manifest(mode="sat", digest="deadbeef")
        manifest_for_text_export(phi, manifest)
        roles = {row[1] for row in _manifest_rows(manifest)}
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
        by_role = {row[1] for row in _manifest_rows(manifest)}
        assert by_role == {"source", "tseytin"}


def test_pipeline_leaves_no_cyclic_garbage():
    # Recursive closures that keep a cell pointing at themselves would hold
    # their frame's tables until a collector pass; the pipeline must free
    # everything by reference counting alone.
    rng = random.Random(31)
    sources = [format_problem(random_problem(rng, max_size=120)) for _ in range(20)]
    sources.append(format_problem(Problem((), nested_iff_family(6), OperatorTable())))
    # The oracle calls of `check` on truth tables, also where a block of
    # more than W names splits off its first names.
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
            try:
                naive_prenex(problem.formula)
            except SizeBudgetExceeded:
                pass
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
