import random

import pytest

from qprenex.core import (
    App,
    FreshGen,
    Kind,
    Quant,
    TRUE,
    Var,
    classify_name,
    exists,
    free_vars,
    is_boolean,
    is_prenex,
    length,
    nblock,
    nbvar,
    prefix_blocks,
    qdepth,
    substitute,
    vars_of,
    xor,
)
from qprenex.export import lower_operators, to_qcir, to_qdimacs
from qprenex.generate import nested_iff_family, random_formula
from qprenex.parser import format_formula, parse_formula
from qprenex.semantics import Valuation, equisatisfiable, equivalent, equivalid, valid
from qprenex.transform import prenex, prenex_mc, prenex_tracked

from helpers import (
    PreconditionError,
    bound_vars,
    criterion_4_corpus,
    decompose_outermost,
    evaluate_via_mc,
    extract_quantifier,
    fold_constants,
    generated_name_inputs,
    layered_prenex_mc,
    layered_prenex_tracked,
    oracle_problem,
    quantifier_chain,
    small_formula,
    step_transform,
    worked_example,
    xor_block_input,
)


class TestDecompose:
    def test_worked_example(self):
        phi = worked_example()
        d = decompose_outermost(phi, FreshGen())
        assert d.skeleton == parse_formula(
            "@a1 & ~@a2", allow_internal_names=True
        )
        assert [b.name for b in d.bindings] == ["@a1", "@a2"]
        assert d.bindings[0].kind is Kind.EXISTS
        assert d.bindings[0].block == ("x",)
        assert d.bindings[0].body == parse_formula("a & ~(exists x . b)")
        assert d.bindings[1].kind is Kind.FORALL
        assert d.bindings[1].block == ("y",)
        assert d.bindings[1].body == Var("c")

    def test_boolean_input(self):
        phi = parse_formula("p xor ~q")
        d = decompose_outermost(phi, FreshGen())
        assert d.skeleton == phi
        assert d.bindings == ()

    def test_no_sharing(self):
        piece = exists(["x"], Var("x"))
        phi = xor(piece, piece)
        d = decompose_outermost(phi, FreshGen())
        assert len(d.bindings) == 2
        assert d.skeleton == xor(Var("@a1"), Var("@a2"))

    def test_resubstitution_recovers_input(self):
        rng = random.Random(61)
        for _ in range(500):
            phi = random_formula(rng, max_size=30)
            d = decompose_outermost(phi, FreshGen.for_formula(phi))
            sigma = {
                b.name: Quant(b.kind, b.block, b.body) for b in d.bindings
            }
            assert substitute(d.skeleton, sigma) == phi

    def test_metric_identities(self):
        rng = random.Random(67)
        for _ in range(500):
            phi = random_formula(rng, max_size=30)
            d = decompose_outermost(phi, FreshGen.for_formula(phi))
            assert length(phi) == length(d.skeleton) + sum(
                len(b.block) + length(b.body) for b in d.bindings
            )
            if d.bindings:
                assert qdepth(phi) == max(1 + qdepth(b.body) for b in d.bindings)
            for b in d.bindings:
                assert b.name not in vars_of(phi)
                assert all(
                    b.name not in free_vars(other.body) for other in d.bindings
                )


class TestExtractQuantifier:
    def test_degenerate_empty_block(self):
        psi = parse_formula("q xor p")
        phi = parse_formula("a & b")
        out = extract_quantifier(psi, "p", Kind.EXISTS, (), phi, (), FreshGen())
        assert out == Quant(
            Kind.FORALL,
            (),
            Quant(
                Kind.EXISTS,
                ("p",),
                App("and", (psi, App("iff", (Var("p"), phi)))),
            ),
        )

    def test_extraction_equivalences(self):
        from qprenex.core import CaptureError

        rng = random.Random(71)
        done = 0
        while done < 300:
            host = small_formula(rng, pool=("a", "b", "p"), max_depth=1, max_size=8)
            body = small_formula(rng, pool=("a", "x", "y"), max_depth=1, max_size=6)
            if "p" not in vars_of(host) or "p" in vars_of(body):
                continue
            gen = FreshGen.for_formula(App("and", (host, body)))
            block = tuple(sorted(free_vars(body) & {"x", "y"}))
            try:
                for kind in (Kind.EXISTS, Kind.FORALL):
                    lhs = Quant(
                        Kind.EXISTS, (), substitute(host, {"p": Quant(kind, block, body)})
                    )
                    rhs = extract_quantifier(host, "p", kind, block, body, (), gen)
                    assert equivalent(lhs, rhs)
            except (CaptureError, PreconditionError):
                continue
            done += 1

    def test_xor_block_instance(self):
        # chi xor p with p abbreviating exists x (x | a)
        host = parse_formula("(a & b) xor p")
        body = parse_formula("x | a")
        out = extract_quantifier(
            host, "p", Kind.EXISTS, ("x",), body, (), FreshGen()
        )
        assert equivalent(out, xor_block_input())

    def test_preconditions_reported(self):
        body = parse_formula("a")
        with pytest.raises(PreconditionError, match="does not occur"):
            extract_quantifier(parse_formula("q"), "p", Kind.EXISTS, (), body, ())
        with pytest.raises(PreconditionError, match="occurs free"):
            extract_quantifier(
                parse_formula("p & q"), "p", Kind.EXISTS, (), Var("p"), ()
            )
        with pytest.raises(PreconditionError, match="quantifier scope"):
            extract_quantifier(
                parse_formula("exists y . p & y"), "p", Kind.EXISTS, (), body, ()
            )
        with pytest.raises(PreconditionError, match="outer block"):
            extract_quantifier(
                parse_formula("p & q"), "p", Kind.EXISTS, (), body, ("z",)
            )


class TestStepTransform:
    def test_boolean_passthrough(self):
        phi = parse_formula("p xor q")
        step = step_transform(Kind.EXISTS, phi, FreshGen())
        assert step.psi == phi
        assert step.neg == frozenset() and step.pos == frozenset()

    def test_worked_example_sets(self):
        phi = worked_example()
        step = step_transform(Kind.EXISTS, phi, FreshGen())
        assert step.neg == {"x@n1", "y@n2"}
        assert step.pos == {"x@p1", "y@p2", "@a1", "@a2"}
        # Every fresh name traces back to its source through its spelling.
        origins = {classify_name(n).origin for n in step.pos | step.neg}
        assert origins == {"x", "y", "abbrev"}

    def test_worked_example_equivalence(self):
        # The re-bound one-layer transform is equivalent to the input.
        phi = worked_example()
        for kind in (Kind.EXISTS, Kind.FORALL):
            step = step_transform(kind, phi, FreshGen())
            rebound = Quant(
                kind, tuple(step.neg), Quant(kind.dual, tuple(step.pos), step.psi)
            )
            assert equivalent(phi, rebound)

    def test_exactly_one_guard_per_binding(self):
        phi = worked_example()
        step = step_transform(Kind.EXISTS, phi, FreshGen())

        def conjuncts(f):
            if isinstance(f, App) and f.op == "and":
                yield from conjuncts(f.args[0])
                yield from conjuncts(f.args[1])
            else:
                yield f

        assert isinstance(step.psi, App) and step.psi.op == "imp"
        core = list(conjuncts(step.psi.args[0]))
        guards = [c for c in core if isinstance(c, App) and c.op == "imp"]
        definitions = [c for c in core if isinstance(c, App) and c.op == "iff"]
        assert len(guards) == 2 and len(definitions) == 2
        assert TRUE not in core

    def test_empty_block_binding(self):
        phi = Quant(Kind.EXISTS, (), Var("p"))
        step = step_transform(Kind.EXISTS, phi, FreshGen())
        assert step.neg == frozenset()
        assert step.pos == {"@a1"}
        assert step.psi == parse_formula(
            "(@a1 <-> p) -> @a1", allow_internal_names=True
        )

    def test_qdepth_drops_by_one(self):
        rng = random.Random(73)
        for _ in range(2000):
            phi = random_formula(rng, max_size=30)
            for kind in (Kind.EXISTS, Kind.FORALL):
                step = step_transform(kind, phi, FreshGen.for_formula(phi))
                assert qdepth(step.psi) == max(0, qdepth(phi) - 1)

    def test_bookkeeping_identity(self):
        rng = random.Random(79)
        for _ in range(2000):
            phi = random_formula(rng, max_size=30)
            for kind in (Kind.EXISTS, Kind.FORALL):
                step = step_transform(kind, phi, FreshGen.for_formula(phi))
                assert len(step.neg) == nbvar(phi) - nbvar(step.psi)
                assert len(step.pos) == len(step.neg) + nblock(phi) - nblock(
                    step.psi
                )
                assert not (step.neg & step.pos)
                assert not ((step.neg | step.pos) & vars_of(phi))

    def test_weighted_length_never_grows(self):
        rng = random.Random(83)
        for _ in range(2000):
            phi = random_formula(rng, max_size=30)
            for kind in (Kind.EXISTS, Kind.FORALL):
                step = step_transform(kind, phi, FreshGen.for_formula(phi))
                before = length(phi) + 3 * nbvar(phi) + 6 * nblock(phi)
                after = (
                    length(step.psi)
                    + 3 * nbvar(step.psi)
                    + 6 * nblock(step.psi)
                )
                assert after <= before


class TestPrenex:
    def test_worked_example_structure(self):
        phi = worked_example()
        result = prenex(Kind.EXISTS, phi, FreshGen())
        expected = parse_formula(
            "forall @a1 @a2 x@n3 x@p1 y@p2 . exists @a3 x@p3 . "
            "(@a3 <-> b) & (~@a3 -> (x@p3 <-> x@n3)) & "
            "((@a1 <-> a & ~@a3) & (~@a1 -> (x@p1 <-> x@n1)) & (@a2 <-> c) & "
            "(@a2 -> (y@p2 <-> y@n2)) -> @a1 & ~@a2)",
            allow_internal_names=True,
        )
        assert result == expected
        blocks, matrix = prefix_blocks(result)
        assert [(kind, len(names)) for kind, names in blocks] == [
            (Kind.FORALL, 5),
            (Kind.EXISTS, 2),
        ]
        assert is_boolean(matrix)
        assert equisatisfiable(phi, result)
        assert qdepth(result) == qdepth(phi) == 2

    def test_boolean_unchanged(self):
        phi = parse_formula("p xor ~q")
        assert prenex(Kind.EXISTS, phi, FreshGen()) == phi
        assert prenex(Kind.FORALL, phi, FreshGen()) == phi

    def test_deterministic(self):
        rng = random.Random(89)
        for _ in range(100):
            phi = random_formula(rng, max_size=30)
            first = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            second = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            assert first == second

    def test_nine_bound_under_negation_counting(self):
        # The length metric gives negations weight 0; the 9x bound also
        # holds empirically when they weigh 1 like other operators.
        def length_counting_neg(phi):
            total = 0
            stack = [phi]
            while stack:
                f = stack.pop()
                if isinstance(f, Var):
                    total += 1
                elif isinstance(f, App):
                    total += 1
                    stack.extend(f.args)
                else:
                    total += 1 + len(f.block)
                    stack.append(f.body)
            return total

        rng = random.Random(93)
        for _ in range(2000):
            phi = random_formula(rng, max_size=40)
            for kind in (Kind.EXISTS, Kind.FORALL):
                result = prenex(kind, phi, FreshGen.for_formula(phi))
                assert length_counting_neg(result) <= 9 * length_counting_neg(phi)

    def test_structure_and_bounds(self):
        rng = random.Random(97)
        for _ in range(2000):
            phi = random_formula(rng, max_size=40)
            for kind in (Kind.EXISTS, Kind.FORALL):
                result, negatives = prenex_tracked(
                    kind, phi, FreshGen.for_formula(phi)
                )
                assert is_prenex(result)
                assert qdepth(result) == qdepth(phi)
                assert len(negatives) + length(result) <= (
                    qdepth(phi)
                    + 7 * nblock(phi)
                    + 5 * nbvar(phi)
                    + length(phi)
                )
                assert length(result) <= 9 * length(phi)
                assert free_vars(result) == free_vars(phi) | negatives

    def test_no_empty_blocks_emitted(self):
        rng = random.Random(101)
        for _ in range(500):
            phi = random_formula(rng, max_size=30)
            blocks, _ = prefix_blocks(prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi)))
            assert all(names for _, names in blocks)

    def test_outer_rebinding_equivalence(self):
        rng = random.Random(103)
        done = 0
        while done < 300:
            problem = oracle_problem(rng, limit=10, max_size=20)
            phi = problem.formula
            for kind in (Kind.EXISTS, Kind.FORALL):
                result, negatives = prenex_tracked(kind, phi, FreshGen.for_formula(phi))
                closed = Quant(kind, tuple(negatives), result)
                assert equivalent(phi, closed, problem.table)
            done += 1

    def test_empty_block_input(self):
        phi = Quant(Kind.EXISTS, (), Var("p"))
        result = prenex(Kind.EXISTS, phi, FreshGen())
        assert is_prenex(result)
        assert qdepth(result) == 1
        assert equisatisfiable(phi, result)


def _same_as_layered(phi, start=None):
    """The single pass and the layered reference agree on output and on where
    they leave the generator."""
    def outcome(transform, *args):
        gen = FreshGen(start) if start is not None else FreshGen.for_formula(phi)
        return transform(*args, gen), gen.allocate()

    for kind in (Kind.EXISTS, Kind.FORALL):
        assert outcome(prenex_tracked, kind, phi) == outcome(
            layered_prenex_tracked, kind, phi
        )
    assert outcome(prenex_mc, phi) == outcome(layered_prenex_mc, phi)


def _agrees_with_oracle(phi, start):
    """All three modes, each with its own generator starting at ``start``,
    keep their guarantee and bind none of the input's free names."""
    for_sat = prenex(Kind.EXISTS, phi, FreshGen(start))
    for_valid = prenex(Kind.FORALL, phi, FreshGen(start))
    mc = prenex_mc(phi, FreshGen(start))
    assert equisatisfiable(phi, for_sat)
    assert equivalid(phi, for_valid)
    assert equivalent(phi, mc)
    assert free_vars(phi) <= free_vars(for_sat)
    assert free_vars(phi) <= free_vars(for_valid)
    assert free_vars(mc) == free_vars(phi)


def _imp_chain(depth: int):
    """``p0 -> p1 -> ... -> (exists x . x)``, right-nested ``depth`` deep."""
    phi = Quant(Kind.EXISTS, ("x",), Var("x"))
    for i in reversed(range(depth)):
        phi = App("imp", (Var(f"p{i}"), phi))
    return phi


def _and_chain(count: int):
    """``c0 & c1 & ...``, left-nested, with ``(forall y . y | c0)`` in the middle."""
    phi = Var("c0")
    for i in range(1, count):
        item = Var(f"c{i}")
        if i == count // 2:
            item = Quant(Kind.FORALL, ("y",), App("or", (Var("y"), Var("c0"))))
        phi = App("and", (phi, item))
    return phi


def _check_qcir_header(text: str) -> None:
    """The header's count is the last gate's id."""
    lines = text.splitlines()
    assert lines[0].split()[1] == lines[-1].split()[0]


def _check_qdimacs_header(text: str) -> None:
    """The header counts the prefix's variables and the clause lines."""
    lines = text.splitlines()
    _, _, nvars, nclauses = lines[0].split()
    prefix = [line for line in lines[1:] if line[0] in "ea"]
    clauses = lines[1 + len(prefix):]
    assert len(clauses) == int(nclauses)
    top = max(int(x) for line in prefix for x in line.split()[1:-1])
    assert top == int(nvars)


class TestSinglePass:
    """``prenex_tracked`` against the reference that iterates step_transform."""

    def test_matches_layered_on_acceptance_corpus(self):
        for problem in criterion_4_corpus():
            _same_as_layered(problem.formula)

    def test_matches_layered_on_nested_iff_family(self):
        for k in range(1, 13):
            _same_as_layered(nested_iff_family(k))

    def test_matches_layered_with_shadowing_and_explicit_start(self):
        _same_as_layered(quantifier_chain(12), start=7)
        _same_as_layered(Quant(Kind.EXISTS, (), Var("p")))
        _same_as_layered(worked_example(), start=1)
        _same_as_layered(parse_formula("@a4 & (forall x@p2 . x@p2 | (exists y . y))",
                                       allow_internal_names=True))
        # One Quant object at two maximal positions: each occurrence gets its
        # own indices, as the tree-semantics reference gives them.
        piece = parse_formula("exists x . x <-> (forall y . y)")
        _same_as_layered(xor(piece, App("and", (piece, Var("a")))))

    def test_colliding_generator_keeps_bound_copy_apart(self):
        # Started at 1, the generator would name y's positive copy y@p1, which
        # the input already binds inside y's scope.
        phi = parse_formula(
            "forall y . exists y@p1 . y xor y@p1", allow_internal_names=True
        )
        _agrees_with_oracle(phi, 1)

    def test_mc_abbreviation_does_not_take_a_free_name(self):
        # With indices from 1, the abbreviation of ``exists x . x`` would be
        # the input's free @a1, and substituting it back would replace both.
        phi = parse_formula("@a1 xor (exists x . x)", allow_internal_names=True)
        result = prenex_mc(phi, FreshGen(1))
        assert equivalent(phi, result)
        assert "@a1" not in bound_vars(result)

    def test_valid_prefix_does_not_bind_a_free_name(self):
        # With indices from 1, the fused prefix would bind the input's free
        # @a1 and make a formula that is not valid look valid.
        phi = parse_formula("~(@a1 xor (exists x . x))", allow_internal_names=True)
        result = prenex(Kind.FORALL, phi, FreshGen(1))
        assert equivalid(phi, result)
        assert not valid(result)
        assert "@a1" in free_vars(result)

    def test_colliding_generators_keep_every_guarantee(self):
        for phi, start in generated_name_inputs():
            _agrees_with_oracle(phi, start)

    def test_matches_layered_on_generated_names(self):
        # Inputs that mention generated names, transformed with generators
        # whose indices may collide with them.
        for phi, start in generated_name_inputs():
            _same_as_layered(phi, start=start)
            _same_as_layered(phi)

    @pytest.mark.parametrize(
        "build, size, value",
        [
            # value: under all names true; None where the quantified part
            # binds more names at one node than the oracle takes.
            (quantifier_chain, 10_000, None),
            (nested_iff_family, 10_000, None),
            (_imp_chain, 100_000, 1),
            (_and_chain, 100_000, 1),
        ],
        ids=[
            "quantifier_chain_10k",
            "nested_iff_10k",
            "imp_chain_100k",
            "and_chain_100k",
        ],
    )
    def test_deep_inputs_at_default_recursion_limit(self, build, size, value):
        # Compared through lengths and text: dataclass equality recurses.
        phi = build(size)
        depth = qdepth(phi)
        for kind, mode in ((Kind.EXISTS, "sat"), (Kind.FORALL, "valid")):
            result = prenex(kind, phi, FreshGen.for_formula(phi))
            assert is_prenex(result)
            assert qdepth(result) == depth
            assert length(result) <= 9 * length(phi)
            lowered = lower_operators(result)
            assert length(lowered) == length(result)
            _check_qcir_header(to_qcir(lowered))
            _check_qdimacs_header(to_qdimacs(lowered, mode=mode))
        parts = prenex_mc(phi, FreshGen.for_formula(phi))
        assert qdepth(parts) == depth
        assert length(parts) <= 9 * length(phi)
        assert free_vars(parts) == free_vars(phi)

        text = format_formula(phi)
        assert len(text) > length(phi)
        assert format_formula(fold_constants(phi)) == text
        first = min(free_vars(phi))
        renamed = substitute(phi, {first: Var("w")})
        assert length(renamed) == length(phi)
        assert free_vars(renamed) == free_vars(phi) - {first} | {"w"}
        assert length(fold_constants(substitute(phi, {first: TRUE}))) < length(phi)
        if value is not None:
            assert evaluate_via_mc(Valuation(default=1), phi) == value


class TestPrenexMc:
    def test_worked_example_structure(self):
        phi = worked_example()
        result = prenex_mc(phi, FreshGen())
        expected = parse_formula(
            "(exists x x@n3 . forall @a3 x@p3 . (@a3 <-> b) & "
            "(~@a3 -> (x@p3 <-> x@n3)) -> a & ~@a3) & ~(forall y . c)",
            allow_internal_names=True,
        )
        assert result == expected
        assert equivalent(phi, result)

    def test_boolean_unchanged(self):
        phi = parse_formula("p xor ~q")
        assert prenex_mc(phi, FreshGen()) == phi

    def test_free_variables_preserved(self):
        rng = random.Random(107)
        for _ in range(1000):
            phi = random_formula(rng, max_size=35)
            result = prenex_mc(phi, FreshGen.for_formula(phi))
            assert free_vars(result) == free_vars(phi)
            assert qdepth(result) == qdepth(phi)

    def test_parts_are_prenex(self):
        rng = random.Random(109)
        for _ in range(500):
            phi = random_formula(rng, max_size=35)
            result = prenex_mc(phi, FreshGen.for_formula(phi))

            def check(f, inside_bool):
                if isinstance(f, Quant):
                    assert is_prenex(f)
                elif isinstance(f, App):
                    for a in f.args:
                        check(a, True)

            check(result, False)

    def test_equivalence_small(self):
        rng = random.Random(113)
        done = 0
        while done < 300:
            problem = oracle_problem(rng, limit=10, max_size=20)
            phi = problem.formula
            result = prenex_mc(phi, FreshGen.for_formula(phi))
            assert equivalent(phi, result, problem.table)
            done += 1


class TestMutationDetection:
    def test_flipped_guard_polarity_is_caught(self):
        # Flip one guard head in the one-layer transform; on a negated
        # existential the re-bound formula flips from unsatisfiable to valid,
        # so the oracle must notice.
        phi = parse_formula("~(exists x . x)")
        step = step_transform(Kind.EXISTS, phi, FreshGen())

        def flip_first_guard(f):
            if isinstance(f, App) and f.op == "imp" and isinstance(f.args[0], App) \
                    and f.args[0].op == "not":
                return App("imp", (f.args[0].args[0], f.args[1])), True
            if isinstance(f, App):
                new_args = []
                flipped = False
                for a in f.args:
                    if flipped:
                        new_args.append(a)
                    else:
                        new_a, flipped = flip_first_guard(a)
                        new_args.append(new_a)
                return App(f.op, tuple(new_args)), flipped
            return f, False

        corrupted, flipped = flip_first_guard(step.psi)
        assert flipped
        rebound = Quant(
            Kind.EXISTS,
            tuple(step.neg),
            Quant(Kind.FORALL, tuple(step.pos), corrupted),
        )
        pristine = Quant(
            Kind.EXISTS,
            tuple(step.neg),
            Quant(Kind.FORALL, tuple(step.pos), step.psi),
        )
        assert equivalent(phi, pristine)
        assert not equivalent(phi, rebound)
