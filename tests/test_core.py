import itertools
import random

import pytest

from qprenex.core import (
    App,
    BUILTIN_OPERATORS,
    CaptureError,
    FALSE,
    FreshGen,
    Kind,
    OperatorTable,
    Quant,
    TRUE,
    Var,
    abbrev_name,
    big_conj,
    classify_name,
    conj,
    exists,
    fold_app,
    forall,
    free_vars,
    is_boolean,
    is_prenex,
    length,
    nblock,
    nbvar,
    neg,
    neg_copy,
    nodes,
    pos_copy,
    qdepth,
    substitute,
    vars_of,
)
from qprenex.generate import random_formula
from qprenex.parser import parse_formula
from qprenex.semantics import equivalent

from helpers import bound_vars, fold_constants, is_free_for, metrics_example, small_formula


class TestLength:
    def test_biconditional(self):
        assert length(parse_formula("p <-> q")) == 3

    def test_block_example(self):
        assert length(parse_formula("exists x y . x -> p")) == 6

    def test_variable(self):
        assert length(Var("p")) == 1

    def test_negation_does_not_count(self):
        assert length(neg(Var("p"))) == 1
        assert length(neg(neg(parse_formula("p & q")))) == 3


class TestQdepth:
    def test_boolean(self):
        assert qdepth(parse_formula("p & q")) == 0

    def test_non_alternating(self):
        phi = exists(["x"], exists(["y"], parse_formula("p & q")))
        assert qdepth(phi) == 2

    def test_quantifier_under_operator(self):
        assert qdepth(parse_formula("exists x . (exists y . y) <-> x")) == 2

    def test_empty_block_counts(self):
        assert qdepth(Quant(Kind.EXISTS, (), Var("p"))) == 1


class TestBlockCounts:
    def test_nested_blocks_example(self):
        phi = metrics_example()
        assert nblock(phi) == 3
        assert nbvar(phi) == 4

    def test_boolean(self):
        phi = parse_formula("p & q xor ~r")
        assert nblock(phi) == 0
        assert nbvar(phi) == 0

    def test_empty_block(self):
        phi = Quant(Kind.EXISTS, (), Var("p"))
        assert nblock(phi) == 1
        assert nbvar(phi) == 0


class TestVariableSets:
    def test_free_simple(self):
        assert free_vars(parse_formula("exists x . x & y")) == {"y"}

    def test_free_with_leak(self):
        phi = parse_formula("(exists x . z & ~(exists x y . y)) & ~(forall y . y)")
        assert free_vars(phi) == {"z"}

    def test_all_bound(self):
        phi = parse_formula("(exists x . x & ~(exists x y . y)) & ~(forall y . y)")
        assert free_vars(phi) == set()

    def test_bound_boolean(self):
        assert bound_vars(parse_formula("p & q")) == set()

    def test_block_mention_counts_as_occurrence(self):
        phi = parse_formula("exists x y . x")
        assert vars_of(phi) == {"x", "y"}
        assert bound_vars(phi) == {"x", "y"}
        assert free_vars(phi) == set()

    def test_vars_is_free_union_bound(self):
        rng = random.Random(5)
        for _ in range(300):
            phi = small_formula(rng)
            assert vars_of(phi) == free_vars(phi) | bound_vars(phi)


class TestSubstitute:
    def test_simple(self):
        phi = parse_formula("p & q")
        assert substitute(phi, {"p": TRUE}) == conj(TRUE, Var("q"))

    def test_capture_refused(self):
        phi = exists(["x"], Var("p"))
        with pytest.raises(CaptureError) as err:
            substitute(phi, {"p": Var("x")})
        assert err.value.key == "p"
        assert err.value.captured == "x"
        assert "x" in err.value.block

    def test_only_free_occurrences(self):
        phi = parse_formula("p & (exists p . p)")
        expected = parse_formula("q & (exists p . p)")
        assert substitute(phi, {"p": Var("q")}) == expected

    def test_empty_substitution_is_identity(self):
        rng = random.Random(11)
        for _ in range(100):
            phi = small_formula(rng)
            assert substitute(phi, {}) == phi

    def test_shadowed_key_untouched(self):
        phi = exists(["p"], Var("p"))
        assert substitute(phi, {"p": TRUE}) == phi

    def test_is_free_for(self):
        assert not is_free_for(exists(["x"], Var("p")), "p", Var("x"))
        assert is_free_for(exists(["x"], Var("p")), "p", Var("y"))
        # No occurrence in any scope: anything is free for p.
        assert is_free_for(parse_formula("p & q"), "p", exists(["q"], Var("q")))

    def test_simultaneous(self):
        phi = parse_formula("p & q")
        swapped = substitute(phi, {"p": Var("q"), "q": Var("p")})
        assert swapped == parse_formula("q & p")

    def test_composition_fact(self):
        # sigma + {p/psi} applied at once is equivalent to applying sigma
        # first when p is neither a key nor free in any sigma image.
        rng = random.Random(23)
        done = 0
        while done < 400:
            phi = small_formula(rng, pool=("a", "b", "p"))
            sigma = {"a": small_formula(rng, pool=("b", "c"), max_size=5)}
            repl = small_formula(rng, pool=("b", "c"), max_size=5)
            if "p" in free_vars(sigma["a"]):
                continue
            try:
                joint = substitute(phi, {**sigma, "p": repl})
                staged = substitute(substitute(phi, sigma), {"p": repl})
            except CaptureError:
                continue
            assert equivalent(joint, staged)
            done += 1


class TestMetricsInvariants:
    def test_bounds(self):
        rng = random.Random(3)
        for _ in range(500):
            phi = random_formula(rng, max_size=30)
            assert length(phi) >= 0 and qdepth(phi) >= 0
            assert nblock(phi) >= 0 and nbvar(phi) >= 0
            assert nblock(phi) + nbvar(phi) <= length(phi)
            assert qdepth(phi) <= length(phi)
            assert (qdepth(phi) == 0) == is_boolean(phi)


class TestPrenexPredicate:
    def test_prefixed(self):
        assert is_prenex(parse_formula("forall x . exists y . p & q"))

    def test_inner_quantifier(self):
        assert not is_prenex(parse_formula("p & (exists x . x)"))

    def test_boolean_is_prenex(self):
        assert is_prenex(parse_formula("p xor q"))


class TestOperatorTable:
    def test_required_operators(self):
        table = OperatorTable()
        for name, arity in [
            ("false", 0), ("true", 0), ("not", 1), ("and", 2),
            ("or", 2), ("imp", 2), ("iff", 2), ("xor", 2),
        ]:
            assert table.has(name)
            assert table.arity(name) == arity
            assert len(table.rows(name, arity)) == 2**arity

    def test_rows_checks_the_argument_count(self):
        table = _user_table()
        assert table.rows("maj", 3) == (0, 0, 0, 1, 0, 1, 1, 1)
        assert table.rows("one", 0) == (1,)
        for op, n, arity in (("maj", 2, 3), ("maj", 4, 3), ("not", 0, 1), ("one", 1, 0)):
            with pytest.raises(
                ValueError, match=f"^operator '{op}' expects {arity} arguments, got {n}$"
            ):
                table.rows(op, n)
        with pytest.raises(KeyError, match="unknown operator 'nope'"):
            table.rows("nope", 0)

    def test_first_argument_most_significant(self):
        table = OperatorTable()
        assert table.apply("imp", [1, 0]) == 0
        assert table.apply("imp", [0, 1]) == 1

    def test_add_validates(self):
        table = OperatorTable()
        with pytest.raises(ValueError):
            table.add("odd", 2, (1, 0, 1))
        with pytest.raises(ValueError):
            table.add("and", 2, (0, 0, 0, 1))
        with pytest.raises(ValueError):
            table.add("bad", 1, (2, 0))

    @pytest.mark.parametrize(
        "arity, expected",
        [(0, "1"), (3, "8"), (20_000, r"2\^20000"), (10**12, r"2\^1000000000000")],
    )
    def test_add_checks_the_size_without_computing_it(self, arity, expected):
        # An absurd arity fails at once with the table's own message.
        with pytest.raises(ValueError, match=f"has 2 entries, expected {expected}$"):
            OperatorTable().add("f", arity, (0, 1))


class TestBuilders:
    def test_big_conj_empty_is_true(self):
        assert big_conj([]) == TRUE

    def test_big_conj_drops_true(self):
        assert big_conj([TRUE, Var("p"), TRUE]) == Var("p")

    def test_big_conj_left_assoc(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert big_conj([a, b, c]) == conj(conj(a, b), c)

    def test_blocks_are_sorted_sets(self):
        assert exists(["y", "x", "y"], Var("p")).block == ("x", "y")
        assert forall(["b", "a"], Var("p")) == forall(["a", "b"], Var("p"))


class TestFoldConstants:
    def test_matches_oracle(self):
        rng = random.Random(17)
        for _ in range(300):
            phi = random_formula(rng, pool=("a", "b"), max_size=12, const_weight=0.4)
            folded = fold_constants(phi)
            assert equivalent(phi, folded)

    def test_fully_constant(self):
        assert fold_constants(parse_formula("true & (false -> true)")) == TRUE


def _user_table():
    table = OperatorTable()
    table.add("maj", 3, (0, 0, 0, 1, 0, 1, 1, 1))
    table.add("odd", 3, (0, 1, 1, 0, 1, 0, 0, 1))
    table.add("one", 0, (1,))
    table.add("zero", 0, (0,))
    return table


class TestFoldApp:
    """Every argument tuple over a small pool, for every operator."""

    POOL = tuple(
        parse_formula(text)
        for text in ("true", "false", "x", "y", "~x", "x & y", "exists z . z | x")
    )

    def _check_all(self, table, names):
        for op in names:
            for args in itertools.product(self.POOL, repeat=table.arity(op)):
                folded = fold_app(op, args, table)
                original = App(op, args)
                assert equivalent(original, folded, table), (op, args)
                open_args = [a for a in args if a not in (TRUE, FALSE)]
                if not open_args:
                    assert folded in (TRUE, FALSE), (op, args)
                elif len(open_args) == 1 and op in BUILTIN_OPERATORS:
                    a = open_args[0]
                    assert folded in (TRUE, FALSE, a, neg(a)), (op, args)
                else:
                    assert folded == original, (op, args)

    def test_builtins(self):
        self._check_all(OperatorTable(), BUILTIN_OPERATORS)

    def test_user_operators_of_arity_zero_and_three(self):
        self._check_all(_user_table(), ("maj", "odd", "one", "zero"))

    def test_unknown_operator_stays(self):
        assert fold_app("maj", (TRUE, TRUE, FALSE)) == App("maj", (TRUE, TRUE, FALSE))
        assert fold_app("one", ()) == App("one", ())
        assert fold_app("one", (), _user_table()) == TRUE

    def test_arity_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="expects 3 arguments, got 2"):
            fold_app("maj", (TRUE, FALSE), _user_table())


class TestNodes:
    def test_every_node_once_parents_first(self):
        phi = parse_formula("(exists x . a & ~(exists x y . b)) & maj(c, true, d)",
                            _user_table())
        seen = list(nodes(phi))
        assert len(seen) == 11
        assert seen[0] is phi
        for position, f in enumerate(seen):
            kids = f.args if isinstance(f, App) else (f.body,) if isinstance(f, Quant) else ()
            for kid in kids:
                assert any(g is kid for g in seen[position + 1 :])


class TestFreshGen:
    def test_names_reserved_character(self):
        assert pos_copy("x", 3) == "x@p3"
        assert neg_copy("x", 3) == "x@n3"
        assert abbrev_name(7) == "@a7"

    def test_classify_roundtrip(self):
        assert classify_name("x@p3").role == "pos-copy"
        assert classify_name("x@n12").origin == "x"
        assert classify_name("@a5").index == 5
        assert classify_name("plain") is None

    def test_never_collides_with_source(self):
        rng = random.Random(9)
        for _ in range(200):
            phi = random_formula(rng, max_size=25)
            gen = FreshGen.for_formula(phi)
            i = gen.allocate()
            names = {pos_copy("p", i), neg_copy("p", i), abbrev_name(i)}
            assert not (names & vars_of(phi))

    def test_for_formula_skips_existing_indices(self):
        phi = conj(Var("x@p4"), Var("@a2"))
        gen = FreshGen.for_formula(phi)
        assert gen.allocate() == 5

    def test_advance_past_only_moves_forward(self):
        phi = conj(Var("x@p4"), Var("@a2"))
        gen = FreshGen(2)
        assert gen.advance_past(phi) is gen
        assert gen.allocate() == 5
        assert FreshGen(9).advance_past(phi).allocate() == 9

    def test_deterministic(self):
        a = FreshGen()
        b = FreshGen()
        assert [a.allocate() for _ in range(5)] == [b.allocate() for _ in range(5)]
