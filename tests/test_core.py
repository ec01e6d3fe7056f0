import dataclasses
import itertools
import random

import pytest

from qprenex import core
from qprenex.core import (
    App,
    BUILTIN_OPERATORS,
    CaptureError,
    FALSE,
    FreshGen,
    Kind,
    NameInfo,
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
from qprenex.export import Manifest
from qprenex.generate import random_formula
from qprenex.parser import format_formula, parse_formula
from qprenex.semantics import equivalent
from qprenex.transform import prenex, prenex_mc

from helpers import bound_vars, fold_constants, is_free_for, metrics_example, small_formula
from test_golden import golden_corpora


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

    def test_declares_user_operators(self):
        assert not OperatorTable().declares_user_operators()
        assert _user_table().declares_user_operators()

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


class TestSlottedNodes:
    NODES = (
        Var("x"),
        App("and", (Var("x"), TRUE)),
        Quant(Kind.FORALL, ("y",), Var("y")),
        NameInfo("pos-copy", "x", 3),
    )

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_no_dict_and_frozen(self, node):
        assert not hasattr(node, "__dict__")
        field = dataclasses.fields(node)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, getattr(node, field))
        # CPython's frozen __setattr__ reaches a super() call that fails with
        # TypeError under slots=True for a name that is not a field (3.10-3.13).
        with pytest.raises((TypeError, AttributeError)):
            node.extra = 1

    def test_quant_sorts_and_dedupes_its_block(self):
        q = Quant(Kind.EXISTS, ("y", "x", "y", "x"), Var("x"))
        assert q.block == ("x", "y")

    def test_equal_nodes_are_equal_keys(self):
        def build():
            return Quant(Kind.EXISTS, ("b", "a"), App("or", (Var("a"), Var("b"))))

        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert {first: 1}[second] == 1
        assert first != Quant(Kind.FORALL, ("a", "b"), first.body)
        assert NameInfo("abbrev", "abbrev", 5) == classify_name("@a5")


class TestNodeConstruction:
    """The hand-written constructors keep what the generated ones gave."""

    @pytest.mark.parametrize(
        "block",
        [["y", "x"], {"y", "x"}, ("y", "x", "y"), ("x",)],
        ids=["list", "set", "unsorted_tuple", "one_name_tuple"],
    )
    def test_quant_block_is_sorted(self, block):
        q = Quant(Kind.EXISTS, block, Var("x"))
        assert type(q.block) is tuple
        assert q.block == tuple(sorted(set(block)))

    def test_replace_on_each_node_type(self):
        x = Var("x")
        assert dataclasses.replace(x, name="y") == Var("y")
        app = App("and", (x, TRUE))
        assert dataclasses.replace(app, op="or") == App("or", (x, TRUE))
        assert dataclasses.replace(app) == app
        q = Quant(Kind.EXISTS, ("x",), x)
        assert dataclasses.replace(q, kind=Kind.FORALL) == Quant(Kind.FORALL, ("x",), x)
        assert dataclasses.replace(q, block=["z", "x"]).block == ("x", "z")
        assert dataclasses.replace(q, body=TRUE).body == TRUE

    def test_equal_nodes_hash_equal(self):
        pairs = [
            (Var("x"), Var("x")),
            (App("xor", (Var("x"), Var("y"))), App("xor", (Var("x"), Var("y")))),
            (App("true", ()), TRUE),
            (Quant(Kind.FORALL, ["b", "a"], Var("a")), Quant(Kind.FORALL, ("a", "b"), Var("a"))),
        ]
        for first, second in pairs:
            assert first is not second
            assert first == second and hash(first) == hash(second)
        assert Var("x") != Var("y") and App("and", ()) != App("or", ())

    def test_keyword_arguments_and_repr(self):
        q = Quant(kind=Kind.EXISTS, block=("x",), body=Var(name="x"))
        assert q == Quant(Kind.EXISTS, ("x",), Var("x"))
        assert repr(App(op="not", args=(Var("p"),))) == (
            "App(op='not', args=(Var(name='p'),))"
        )
        assert [f.name for f in dataclasses.fields(Quant)] == ["kind", "block", "body"]


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
        seen = nodes(phi)
        assert type(seen) is list and len(seen) == 11
        for psi in [phi] + [p.formula for ps in golden_corpora().values() for p in ps]:
            seen = nodes(psi)
            assert seen[0] is psi
            last = {id(f): position for position, f in enumerate(seen)}
            for position, f in enumerate(seen):
                kids = f.args if type(f) is App else (f.body,) if type(f) is Quant else ()
                assert all(last[id(kid)] > position for kid in kids)


def _recursive_counts(f):
    """``(length, nblock, nbvar, vars_of, is_boolean)`` by plain recursion."""
    if type(f) is Var:
        return 1, 0, 0, {f.name}, True
    if type(f) is Quant:
        n, b, v, names, _ = _recursive_counts(f.body)
        return n + 1 + len(f.block), b + 1, v + len(f.block), names | set(f.block), False
    n, b, v, names, boolean = int(f.op != "not"), 0, 0, set(), True
    for kid in map(_recursive_counts, f.args):
        n, b, v, names, boolean = (
            n + kid[0], b + kid[1], v + kid[2], names | kid[3], boolean and kid[4]
        )
    return n, b, v, names, boolean


class TestWalkContracts:
    """``nodes`` returns a list, the counting metrics loop over it, and
    ``is_boolean`` keeps a loop of its own that stops early."""

    def test_counting_metrics_match_recursion(self):
        for phi in [p.formula for ps in golden_corpora().values() for p in ps]:
            expected = _recursive_counts(phi)
            got = length(phi), nblock(phi), nbvar(phi), set(vars_of(phi)), is_boolean(phi)
            assert got == expected

    def test_is_boolean_returns_at_the_first_quantifier(self):
        # A body whose arguments are not a tuple breaks any walk that enters it.
        broken = App("or", None)
        phi = conj(Var("a"), exists(["x"], broken))
        with pytest.raises(TypeError):
            length(phi)
        assert is_boolean(phi) is False

    @pytest.mark.parametrize("kind", [Kind.EXISTS, Kind.FORALL, None])
    def test_given_generator_scans_its_input_once(self, kind, monkeypatch):
        phi = parse_formula("x@p4 & (exists y . y xor @a2) & ~(forall z . z -> y)",
                            allow_internal_names=True)
        run = (lambda f, gen=None: prenex_mc(f, gen)) if kind is None else (
            lambda f, gen=None: prenex(kind, f, gen))
        expected = format_formula(run(phi))
        scanned = []
        real = core.vars_of
        monkeypatch.setattr(core, "vars_of", lambda f: scanned.append(f) or real(f))
        assert format_formula(run(phi, FreshGen.for_formula(phi))) == expected
        assert sum(f is phi for f in scanned) == 1
        # An equal but distinct object is scanned again.
        twin = parse_formula(format_formula(phi), allow_internal_names=True)
        assert twin == phi and twin is not phi
        gen = FreshGen.for_formula(phi)
        scanned.clear()
        gen.advance_past(twin)
        assert [f is twin for f in scanned] == [True]
        # Scanning again never moves the generator back.
        gen = FreshGen(9)
        assert gen.advance_past(phi).advance_past(phi).allocate() == 9
        assert gen.advance_past(phi).allocate() == 10


# Names and their provenance, or None for a source name.
_CLASSIFY_TABLE = [
    ("x@a5", None),
    ("@a", None),
    ("@a1x", None),
    ("z@p", None),
    ("a@b@p4", NameInfo("pos-copy", "a@b", 4)),
    ("@p3", NameInfo("pos-copy", "", 3)),
    ("@a007", NameInfo("abbrev", "abbrev", 7)),
    ("@a1@p2", NameInfo("pos-copy", "@a1", 2)),
    ("plain", None),
    ("x@n2", NameInfo("neg-copy", "x", 2)),
    ("y@p0", NameInfo("pos-copy", "y", 0)),
    ("@n", None),
    ("x@p1@a2", None),
    ("@a1@a2", None),
]

# The .map rows (after the emitted id) that the regex decoder
# ``(.*)@([apn])(\d+)`` gave: its ``.`` stops at a newline, and its ``\d``
# takes any decimal digit.
_REGEX_ROWS = {
    "x@a5": "source\tx@a5\t-",
    "@a": "source\t@a\t-",
    "@a1x": "source\t@a1x\t-",
    "z@p": "source\tz@p\t-",
    "a@b@p4": "pos-copy\ta@b\t4",
    "@p3": "pos-copy\t\t3",
    "@a007": "abbrev\tabbrev\t7",
    "@a1@p2": "pos-copy\t@a1\t2",
    "plain": "source\tplain\t-",
    "x@n2": "neg-copy\tx\t2",
    "y@p0": "pos-copy\ty\t0",
    "@n": "source\t@n\t-",
    "x@p1@a2": "source\tx@p1@a2\t-",
    "@a1@a2": "source\t@a1@a2\t-",
    "x\n@p1": "source\tx\n@p1\t-",
    "x@p\u0663": "pos-copy\tx\t3",
    "@a\u0661": "abbrev\tabbrev\t1",
}


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

    # Expected values read off the two-pattern decoder that preceded the
    # regex; .map sidecars print them.
    @pytest.mark.parametrize("name, expected", _CLASSIFY_TABLE)
    def test_classify_table(self, name, expected):
        assert classify_name(name) == expected

    @pytest.mark.parametrize(
        "name", [name for name, _ in _CLASSIFY_TABLE] + ["x\n@p1", "x@p\u0663", "@a\u0661"]
    )
    def test_map_row_matches_classify_name(self, name):
        manifest = Manifest()
        manifest.record_name("7", name)
        info = classify_name(name)
        row = (info.role, info.origin, info.index) if info else ("source", name, "-")
        assert manifest.entries == ["7\t{}\t{}\t{}".format(*row)]
        assert manifest.entries == ["7\t" + _REGEX_ROWS[name]]

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
