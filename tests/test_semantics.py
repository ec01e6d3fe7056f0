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
    bound_vars,
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
    evaluate_via_mc,
    flat_encoding_pair,
    metrics_example,
    oracle_problem,
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


def _reference(f, table=None):
    """The ``_compile`` enumeration that the truth-table path replaces."""
    names = sorted(free_vars(f))
    return semantics._first_by_enumeration(f, names, table or OperatorTable())


def _assert_agrees(phi, psi, table=None):
    """Table oracle and reference agree on every query, witnesses included."""
    for f in (phi, psi):
        assert satisfying_assignment(f, table) == _reference(f, table), f
        assert valid(f, table) == (_reference(neg(f), table) is None), f
    assert find_disagreement(phi, psi, table) == _reference(
        xor(phi, psi), table
    ), (phi, psi)


@pytest.fixture
def calls(monkeypatch):
    """Count how often each oracle path runs during a test."""
    counts = {"tables": 0, "enumeration": 0}

    def spy(name, key):
        inner = getattr(semantics, name)

        def wrapper(*args):
            counts[key] += 1
            return inner(*args)

        monkeypatch.setattr(semantics, name, wrapper)

    spy("_truth_table", "tables")
    spy("_first_by_enumeration", "enumeration")
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
                assert satisfying_assignment(f, table) == _reference(f, table)
            for f in (phi, val):
                assert valid(f, table) == (_reference(neg(f), table) is None)
            assert find_disagreement(phi, mc, table) == _reference(xor(phi, mc), table)
        # The reference runs as many times as the table path; no query of
        # this corpus binds more than W names at once.
        assert calls["enumeration"] == 2_000 * 5
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

    def test_falls_back_above_w_bound_names(self, calls, monkeypatch):
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
        assert calls["tables"] == 0
        assert calls["enumeration"] == 9
        # With room for every bound name the table path takes the same
        # queries and gives the same answers.
        monkeypatch.setattr(semantics, "W", semantics.W + 4)
        for (phi, psi, other), answers in zip(cases, expected):
            assert answers == (
                satisfying_assignment(neg(phi)),
                valid(psi),
                find_disagreement(psi, other),
            )
        assert calls["tables"] == 9
        assert calls["enumeration"] == 9

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

        for name in ("_binding_width", "_first_by_tables", "_first_by_enumeration", "_compile"):
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
