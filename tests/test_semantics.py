import random
from itertools import product

import pytest

from qprenex import semantics
from qprenex.core import (
    FreshGen,
    Kind,
    OperatorTable,
    Quant,
    Var,
    big_conj,
    conj,
    disj,
    exists,
    forall,
    free_vars,
    iff,
    neg,
    neg_copy,
    substitute,
    vars_of,
    xor,
)
from qprenex.generate import random_formula
from qprenex.parser import parse_formula
from qprenex.semantics import (
    DEFAULT_ORACLE_CAP,
    RefusalError,
    Valuation,
    equisatisfiable,
    equivalent,
    equivalid,
    evaluate,
    find_disagreement,
    satisfiable,
    satisfying_assignment,
    valid,
)
from qprenex.transform import prenex, prenex_mc

from helpers import (
    bound_vars,
    evaluate_via_mc,
    flat_encoding_pair,
    metrics_example,
    oracle_problem,
    quantifier_chain,
    reference_evaluate,
    reference_first,
    small_formula,
    xor_block_input,
    xor_block_rewrite,
)


class TestEvaluate:
    def test_exists_witness(self):
        phi = parse_formula("exists x . x")
        for bit in (0, 1):
            assert evaluate(Valuation({"x": bit}), phi) == 1

    def test_forall_counterexample(self):
        phi = parse_formula("forall x . x")
        assert evaluate(Valuation(), phi) == 0

    def test_default_is_zero(self):
        assert evaluate(Valuation(), Var("unmapped")) == 0
        assert evaluate(Valuation({"other": 1}), Var("unmapped")) == 0

    def test_xor_block_rewrite_agrees_everywhere(self):
        original = xor_block_input()
        rewritten = xor_block_rewrite()
        for a, b in product((0, 1), repeat=2):
            v = Valuation({"a": a, "b": b})
            assert evaluate(v, original) == evaluate(v, rewritten)

    def test_empty_block_is_transparent(self):
        phi = Quant(Kind.EXISTS, (), Var("p"))
        assert evaluate(Valuation({"p": 1}), phi) == 1
        assert evaluate(Valuation({"p": 0}), phi) == 0


class TestJudgements:
    def test_contradiction(self):
        assert not satisfiable(parse_formula("p & ~p"))

    def test_quantified_contradiction(self):
        assert not satisfiable(parse_formula("exists x . x & ~x"))

    def test_excluded_middle(self):
        assert valid(parse_formula("forall x . x | ~x"))

    def test_flat_encoding_disagrees(self):
        original, flat = flat_encoding_pair()
        assert satisfiable(original) != satisfiable(flat)
        assert satisfiable(flat)

    def test_reflexive_equivalence(self):
        phi = parse_formula("p xor (exists x . x & q)")
        assert equivalent(phi, phi)

    def test_equisat_weaker_than_equivalence(self):
        p, pq = parse_formula("p"), parse_formula("p & q")
        assert equisatisfiable(p, pq)
        assert not equivalent(p, pq)

    def test_equivalid(self):
        assert equivalid(parse_formula("p | ~p"), parse_formula("q -> q"))
        assert not equivalid(parse_formula("p"), parse_formula("p | ~p"))

    def test_satisfying_assignment(self):
        witness = satisfying_assignment(parse_formula("~p & q"))
        assert witness is not None
        assert witness.value("p") == 0 and witness.value("q") == 1
        assert satisfying_assignment(parse_formula("p & ~p")) is None


class TestRefusal:
    def test_cap_exceeded(self):
        wide = big_conj([Var(f"v{i}") for i in range(25)])
        with pytest.raises(RefusalError) as err:
            satisfiable(wide)
        assert err.value.needed == 25
        assert err.value.cap == 24

    def test_custom_cap(self):
        phi = parse_formula("p & q")
        with pytest.raises(RefusalError):
            valid(phi, cap=1)
        assert not valid(phi, cap=2)

    def test_bound_names_past_w_plus_cap(self):
        # A chain of single-name blocks binds its length at the innermost
        # node; W names fit into the tables and up to the cap are split off.
        # The innermost name decides, so each split block settles on its
        # first assignment.
        width = semantics.W + DEFAULT_ORACLE_CAP
        names = [f"x{i:02}" for i in range(width + 1)]
        kinds = [Kind.EXISTS] * len(names)
        fits = _chain(kinds[:width], names[:width], disj(Var("x39"), Var("a")))
        assert satisfying_assignment(fits) == Valuation({"a": 0})
        assert evaluate(Valuation(), fits) == 1
        wider = _chain(kinds, names, disj(Var("x40"), Var("a")))
        for query in (
            lambda: satisfiable(wider),
            lambda: evaluate(Valuation(), wider),
        ):
            with pytest.raises(RefusalError) as err:
                query()
            assert err.value.needed == DEFAULT_ORACLE_CAP + 1
            assert str(err.value) == (
                "oracle refuses to enumerate 25 bound variables (cap 24)"
            )
        with pytest.raises(RefusalError):
            satisfiable(fits, cap=DEFAULT_ORACLE_CAP - 1)

    def test_deep_chain_is_refused_not_recursed(self):
        # 2,000 nested blocks bind 2,000 names at the innermost node, far
        # past W + cap and deeper than the default recursion limit.
        with pytest.raises(RefusalError) as err:
            evaluate(Valuation(), quantifier_chain(2000))
        assert err.value.needed == 2000 - semantics.W


class TestSubstitutionFacts:
    def test_shannon_split(self):
        # phi[p/psi] against the two-case expansion, on free-for instances
        rng = random.Random(31)
        done = 0
        while done < 400:
            phi = small_formula(rng, pool=("a", "b", "p"))
            psi = small_formula(rng, pool=("a", "c"), max_size=6)
            try:
                lhs = substitute(phi, {"p": psi})
                on_true = substitute(phi, {"p": parse_formula("true")})
                on_false = substitute(phi, {"p": parse_formula("false")})
            except Exception:
                continue
            rhs = disj(conj(on_true, psi), conj(on_false, neg(psi)))
            assert equivalent(lhs, rhs)
            done += 1

    def test_definition_form(self):
        # phi[p/psi] == exists p ((p <-> psi) & phi) when p is not free in psi
        rng = random.Random(37)
        done = 0
        while done < 400:
            phi = small_formula(rng, pool=("a", "b", "p"))
            psi = small_formula(rng, pool=("a", "b"), max_size=6)
            if "p" in free_vars(psi):
                continue
            try:
                lhs = substitute(phi, {"p": psi})
            except Exception:
                continue
            rhs = exists(["p"], conj(iff(Var("p"), psi), phi))
            assert equivalent(lhs, rhs)
            done += 1

    def test_fresh_copy_expansion(self):
        # forall X phi == forall X- exists X (phi & conj(x <-> x-))
        rng = random.Random(41)
        for _ in range(300):
            body = small_formula(rng, pool=("x", "y", "a"), max_size=8)
            block = tuple(sorted(rng.sample(["x", "y"], rng.randint(1, 2))))
            lhs = forall(block, body)
            copies = {x: neg_copy(x, 1) for x in block}
            rhs = forall(
                copies.values(),
                exists(
                    block,
                    big_conj(
                        [body] + [iff(Var(x), Var(copies[x])) for x in block]
                    ),
                ),
            )
            assert equivalent(lhs, rhs)


class TestDuality:
    def test_negated_exists(self):
        rng = random.Random(43)
        for _ in range(300):
            body = small_formula(rng, pool=("x", "y", "a"), max_size=8)
            block = tuple(rng.sample(["x", "y"], rng.randint(1, 2)))
            assert equivalent(neg(exists(block, body)), forall(block, neg(body)))

    def test_block_split(self):
        rng = random.Random(47)
        for _ in range(300):
            body = small_formula(rng, pool=("x", "y", "a"), max_size=8)
            assert equivalent(
                exists(["x", "y"], body), exists(["x"], exists(["y"], body))
            )


class TestEvaluateViaMc:
    def test_boolean_formula(self):
        rng = random.Random(53)
        for _ in range(200):
            phi = small_formula(rng, max_depth=0)
            v = Valuation({x: rng.randint(0, 1) for x in vars_of(phi)})
            assert evaluate_via_mc(v, phi) == evaluate(v, phi)

    def test_differential(self):
        rng = random.Random(59)
        for _ in range(10_000):
            phi = random_formula(
                rng, pool=("a", "b", "c", "d"), max_depth=3, max_size=14
            )
            v = Valuation({x: rng.randint(0, 1) for x in vars_of(phi)})
            assert evaluate_via_mc(v, phi) == evaluate(v, phi)

    def test_metrics_example_instantiated(self):
        phi = metrics_example()
        for bits in product((0, 1), repeat=3):
            v = Valuation(dict(zip("abc", bits)))
            assert evaluate_via_mc(v, phi) == evaluate(v, phi)

    def test_user_operator_in_skeleton_and_bodies(self):
        from qprenex.parser import parse

        problem = parse(
            "op maj/3 : 00010111 ;\n"
            "maj(a, exists x . maj(x, a, b), forall y . y xor b)"
        )
        for bits in product((0, 1), repeat=2):
            v = Valuation(dict(zip("ab", bits)))
            assert evaluate_via_mc(v, problem.formula, problem.table) == evaluate(
                v, problem.formula, problem.table
            )


def _assert_agrees(phi, psi, table=None):
    """Table oracle and reference agree on every query, witnesses included."""
    for f in (phi, psi):
        assert satisfying_assignment(f, table) == reference_first(f, table), f
        assert valid(f, table) == (reference_first(neg(f), table) is None), f
    assert find_disagreement(phi, psi, table) == reference_first(
        xor(phi, psi), table
    ), (phi, psi)


@pytest.fixture
def calls(monkeypatch):
    """Count the table folds during a test, and among them the nested folds
    of a split block's body: those that start while another one runs."""
    counts = {"tables": 0, "splits": 0}
    running = 0
    inner = semantics._truth_table

    def wrapper(*args):
        nonlocal running
        counts["tables"] += 1
        counts["splits"] += running > 0
        running += 1
        try:
            return inner(*args)
        finally:
            running -= 1

    monkeypatch.setattr(semantics, "_truth_table", wrapper)
    return counts


def _chain(kinds, names, matrix):
    """One single-name block per name, outermost first."""
    for kind, name in reversed(list(zip(kinds, names))):
        matrix = Quant(kind, (name,), matrix)
    return matrix


class TestTableOracle:
    def test_agrees_on_criterion_4_corpus(self, calls):
        rng = random.Random(20240)
        for _ in range(2_000):
            problem = oracle_problem(rng, limit=16)
            phi, table = problem.formula, problem.table
            sat = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            val = prenex(Kind.FORALL, phi, FreshGen.for_formula(phi))
            mc = prenex_mc(phi, FreshGen.for_formula(phi))
            # The queries of qprenex check in its three modes.
            for f in (phi, sat):
                assert satisfying_assignment(f, table) == reference_first(f, table)
            for f in (phi, val):
                assert valid(f, table) == (reference_first(neg(f), table) is None)
            assert find_disagreement(phi, mc, table) == reference_first(
                xor(phi, mc), table
            )
        # No query of this corpus binds more than W names at once, so none
        # splits a block.
        assert calls["splits"] == 0
        assert calls["tables"] >= 2_000 * 5

    def test_chunks_above_w_positions(self, calls):
        # 12 nested bound names and 6 free ones need 18 positions, so the
        # two leading free names are enumerated outside the tables.
        rng = random.Random(4)
        bound = [f"x{i}" for i in range(12)]
        free = ["a", "b", "c", "d", "e", "f"]
        for _ in range(6):
            kinds = [rng.choice((Kind.EXISTS, Kind.FORALL)) for _ in bound]
            matrix = xor(
                random_formula(rng, pool=bound + free, max_depth=0, max_size=30),
                big_conj(Var(n) for n in free),
            )
            phi = _chain(kinds, bound, conj(disj(Var("a"), Var("b")), matrix))
            psi = _chain(kinds, bound, matrix)
            _assert_agrees(phi, psi)
            calls["tables"] = 0
            satisfiable(conj(phi, conj(Var("a"), Var("b"))))
            assert calls["tables"] == 4

    def test_free_names_rebound_inside_a_chunk(self):
        # a0 is enumerated outside the tables (17 names need 17 positions)
        # and rebound inside, where it needs a position of its own.
        names = [f"a{i:02}" for i in range(16)]
        rebound = exists(["a00"], conj(neg(Var("a00")), Var("a15")))
        for middle in (rebound, forall(["a00", "a01"], disj(Var("a00"), Var("a01")))):
            phi = conj(big_conj(Var(n) for n in names[1:]), iff(Var("a00"), middle))
            _assert_agrees(phi, conj(Var("a00"), phi))

    def test_free_and_rebound_names(self):
        rng = random.Random(7)
        for _ in range(300):
            phi = small_formula(rng, pool=("a", "b", "c"), max_depth=3, max_size=16)
            psi = small_formula(rng, pool=("a", "b", "c"), max_depth=3, max_size=16)
            if free_vars(phi) & bound_vars(phi):
                _assert_agrees(phi, psi)

    def test_splits_above_w_bound_names(self, calls, monkeypatch):
        rng = random.Random(9)
        bound = [f"x{i:02}" for i in range(semantics.W + 1)]
        cases = []
        for _ in range(3):
            matrix = random_formula(rng, pool=bound + ["a", "b"], max_depth=0, max_size=24)
            phi = Quant(Kind.EXISTS, tuple(bound), matrix)
            cases.append((phi, conj(Var("a"), phi), Var("b")))
        expected = []
        for phi, psi, other in cases:
            expected.append(
                (
                    satisfying_assignment(neg(phi)),
                    valid(psi),
                    find_disagreement(psi, other),
                )
            )
        # Every query's fold reaches the 17-name block, which splits off x00.
        assert calls["splits"] >= 9
        splits, tables = calls["splits"], calls["tables"]
        # With room for every bound name the same queries give the same
        # answers, one fold each and no split.
        monkeypatch.setattr(semantics, "W", semantics.W + 4)
        for (phi, psi, other), answers in zip(cases, expected):
            assert answers == (
                satisfying_assignment(neg(phi)),
                valid(psi),
                find_disagreement(psi, other),
            )
        assert calls["tables"] == tables + 9
        assert calls["splits"] == splits

    def test_user_operators_of_arity_0_and_3(self):
        table = OperatorTable()
        table.add("one", 0, (1,))
        table.add("zero", 0, (0,))
        table.add("maj", 3, (0, 0, 0, 1, 0, 1, 1, 1))
        table.add("pick", 3, (0, 1, 1, 0, 0, 1, 0, 1))
        ops = (
            ("not", 1, 1.0),
            ("and", 2, 1.0),
            ("xor", 2, 1.0),
            ("one", 0, 0.2),
            ("zero", 0, 0.2),
            ("maj", 3, 1.0),
            ("pick", 3, 1.0),
        )
        rng = random.Random(11)
        for _ in range(300):
            phi, psi = (
                random_formula(rng, pool=("a", "b", "c", "d"), max_size=20, ops=ops)
                for _ in range(2)
            )
            _assert_agrees(phi, psi, table)

    def test_refuses_at_the_cap_before_any_work(self, monkeypatch):
        wide = big_conj(Var(f"v{i:02}") for i in range(DEFAULT_ORACLE_CAP))
        assert satisfying_assignment(wide) == Valuation(
            {f"v{i:02}": 1 for i in range(DEFAULT_ORACLE_CAP)}
        )

        def no_work(*args):
            raise AssertionError("the oracle started work past the cap")

        for name in ("_binding_width", "_bound_positions", "_truth_table"):
            monkeypatch.setattr(semantics, name, no_work)
        wider = conj(wide, Var("w"))
        for query in (
            lambda: satisfiable(wider),
            lambda: valid(wider),
            lambda: find_disagreement(wide, Var("w")),
            lambda: satisfiable(wide, cap=DEFAULT_ORACLE_CAP - 1),
        ):
            with pytest.raises(RefusalError):
                query()


def _nested_blocks(rng, bound, matrix):
    """``bound`` cut into up to five nested blocks of random kinds."""
    cuts = sorted(rng.sample(range(1, len(bound)), rng.randint(0, 4)))
    for lo, hi in reversed(list(zip([0] + cuts, cuts + [len(bound)]))):
        matrix = Quant(rng.choice((Kind.EXISTS, Kind.FORALL)), tuple(bound[lo:hi]), matrix)
    return matrix


def _assert_agrees_everywhere(phi, table=None):
    """:func:`_assert_agrees` on ``phi`` against its free part, and
    :func:`evaluate` against the reference on every valuation."""
    names = sorted(free_vars(phi))
    _assert_agrees(phi, big_conj(Var(n) for n in names), table)
    for bits in product((0, 1), repeat=len(names)):
        v = Valuation(dict(zip(names, bits)))
        assert evaluate(v, phi, table) == reference_evaluate(v, phi, table), (phi, v)


class TestSplitOracle:
    """Blocks binding more than W names at one node split off their first
    names; every answer, witness and value agrees with the reference."""

    def test_nested_blocks_of_mixed_kinds(self, calls):
        rng = random.Random(13)
        for _ in range(25):
            bound = [f"x{i:02}" for i in range(rng.randint(17, 22))]
            matrix = random_formula(rng, pool=bound + ["a", "b"], max_depth=0, max_size=30)
            _assert_agrees_everywhere(_nested_blocks(rng, bound, matrix))
        assert calls["splits"] > 0

    def test_free_names_rebound_inside_a_split_block(self, calls):
        rng = random.Random(17)
        bound = [f"x{i:02}" for i in range(16)]
        for _ in range(10):
            inner = random_formula(rng, pool=bound + ["a", "b"], max_depth=0, max_size=24)
            # a and b are free outside; the split block rebinds a, and b
            # in a nested block whose names all get positions.
            wide = Quant(rng.choice((Kind.EXISTS, Kind.FORALL)), ("a", *bound),
                         xor(inner, exists(["b"], conj(Var("b"), Var("x00")))))
            _assert_agrees_everywhere(iff(disj(Var("a"), Var("b")), wide))
        assert calls["splits"] > 0

    def test_user_operator_under_a_split_block(self, calls):
        table = OperatorTable()
        table.add("maj", 3, (0, 0, 0, 1, 0, 1, 1, 1))
        ops = (("not", 1, 1.0), ("and", 2, 1.0), ("xor", 2, 1.0), ("maj", 3, 1.0))
        rng = random.Random(19)
        for _ in range(10):
            bound = [f"x{i:02}" for i in range(rng.randint(17, 19))]
            matrix = random_formula(
                rng, pool=bound + ["a"], max_depth=0, max_size=24, ops=ops
            )
            _assert_agrees_everywhere(_nested_blocks(rng, bound, matrix), table)
        assert calls["splits"] > 0

    def test_empty_block_above_a_wide_one(self, calls):
        rng = random.Random(23)
        bound = [f"x{i:02}" for i in range(18)]
        for _ in range(6):
            matrix = random_formula(rng, pool=bound + ["a", "b"], max_depth=0, max_size=24)
            wide = _nested_blocks(rng, bound, matrix)
            _assert_agrees_everywhere(Quant(Kind.FORALL, (), wide))
            _assert_agrees_everywhere(Quant(Kind.EXISTS, (), neg(Quant(Kind.EXISTS, (), wide))))
        assert calls["splits"] > 0
