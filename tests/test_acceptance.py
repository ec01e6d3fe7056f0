"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is exact (these are discrete properties); the only knobs are
the corpus sizes and time budgets stated in the criteria.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from qprenex.core import (
    App,
    FreshGen,
    Kind,
    Quant,
    Var,
    free_vars,
    is_prenex,
    length,
    nblock,
    nbvar,
    prefix_blocks,
    qdepth,
    vars_of,
)
from qprenex.generate import nested_iff_family, random_formula, random_problem
from qprenex.parser import format_problem, parse, parse_formula
from qprenex.semantics import (
    Valuation,
    equisatisfiable,
    equivalent,
    equivalid,
    evaluate,
    satisfiable,
)
from qprenex.core import big_conj, conj, disj, exists, forall, iff, neg, neg_copy, substitute
from qprenex.export import to_prenex_text, to_qdimacs
from qprenex.transform import (
    naive_prenex,
    prenex,
    prenex_mc,
    prenex_tracked,
)

from helpers import (
    evaluate_via_mc,
    extract_quantifier,
    flat_encoding_pair,
    metrics_example,
    oracle_problem,
    small_formula,
    step_transform,
    worked_example,
    xor_block_input,
    xor_block_rewrite,
)


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.1f}s]", flush=True)


def test_criterion_1_metric_fixtures():
    with criterion(1, "metric fixtures"):
        assert length(parse_formula("p <-> q")) == 3
        assert length(parse_formula("exists x y . x -> p")) == 6
        phi = metrics_example()
        assert nblock(phi) == 3
        assert nbvar(phi) == 4


def test_criterion_2_xor_block_example():
    with criterion(2, "xor-against-exists example"):
        original = xor_block_input()
        transformed = prenex(Kind.EXISTS, original, FreshGen())
        assert is_prenex(transformed)
        assert equisatisfiable(original, transformed)
        rewritten = xor_block_rewrite()
        assert equivalent(original, rewritten)


def test_criterion_3_layered_worked_example():
    with criterion(3, "layered worked example"):
        phi = worked_example()
        transformed = prenex(Kind.EXISTS, phi, FreshGen())
        assert is_prenex(transformed)
        blocks, _ = prefix_blocks(transformed)
        assert [(kind, len(names)) for kind, names in blocks] == [
            (Kind.FORALL, 5),
            (Kind.EXISTS, 2),
        ]
        assert qdepth(transformed) == qdepth(phi) == 2
        assert equisatisfiable(phi, transformed)
        parts = prenex_mc(phi, FreshGen())
        assert equivalent(phi, parts)


def test_criterion_4_transform_property_suite():
    with criterion(4, "10k transform property suite"):
        rng = random.Random(20240)
        for _ in range(10_000):
            problem = oracle_problem(rng, limit=16)
            phi = problem.formula
            for kind in (Kind.EXISTS, Kind.FORALL):
                result, negatives = prenex_tracked(
                    kind, phi, FreshGen.for_formula(phi)
                )
                assert is_prenex(result)
                assert qdepth(result) == qdepth(phi)
                assert len(negatives) + length(result) <= (
                    qdepth(phi) + 7 * nblock(phi) + 5 * nbvar(phi) + length(phi)
                )
                assert length(result) <= 9 * length(phi)
                assert free_vars(result) == free_vars(phi) | negatives
                if kind is Kind.EXISTS:
                    assert equisatisfiable(phi, result, problem.table)
                else:
                    assert equivalid(phi, result, problem.table)
            parts = prenex_mc(phi, FreshGen.for_formula(phi))
            assert equivalent(phi, parts, problem.table)


def _free_for_instances(rng, count):
    """Host/replacement pairs where the replacement is free for 'p'."""
    made = 0
    while made < count:
        host = small_formula(rng, pool=("a", "b", "p"), max_size=10)
        repl = small_formula(rng, pool=("a", "c"), max_depth=1, max_size=6)
        try:
            substitute(host, {"p": repl})
        except Exception:
            continue
        made += 1
        yield host, repl


def test_criterion_5_equivalence_laws():
    with criterion(5, "equivalence-law suite"):
        rng = random.Random(20241)

        from qprenex.core import CaptureError
        from helpers import PreconditionError

        # single-quantifier extraction, both kinds
        done = 0
        while done < 1000:
            host = small_formula(rng, pool=("a", "b", "p"), max_depth=1, max_size=8)
            body = small_formula(rng, pool=("a", "x", "y"), max_depth=1, max_size=6)
            if "p" not in vars_of(host) or "p" in vars_of(body):
                continue
            block = tuple(sorted(free_vars(body) & {"x", "y"}))
            gen = FreshGen.for_formula(App("and", (host, body)))
            try:
                for kind in (Kind.EXISTS, Kind.FORALL):
                    lhs = Quant(
                        Kind.EXISTS,
                        (),
                        substitute(host, {"p": Quant(kind, block, body)}),
                    )
                    rhs = extract_quantifier(host, "p", kind, block, body, (), gen)
                    assert equivalent(lhs, rhs)
            except (CaptureError, PreconditionError):
                continue
            done += 1

        # one-layer round trip: re-binding the copies recovers the input
        done = 0
        while done < 1000:
            phi = small_formula(rng, pool=("a", "b", "c"), max_size=14)
            if nblock(phi) + 2 * nbvar(phi) > 10:
                continue
            for kind in (Kind.EXISTS, Kind.FORALL):
                step = step_transform(kind, phi, FreshGen.for_formula(phi))
                rebound = Quant(
                    kind,
                    tuple(step.neg),
                    Quant(kind.dual, tuple(step.pos), step.psi),
                )
                assert equivalent(phi, rebound)
            done += 1

        # weighted length inequality of the one-layer transform
        for _ in range(1000):
            phi = random_formula(rng, max_size=35)
            for kind in (Kind.EXISTS, Kind.FORALL):
                step = step_transform(kind, phi, FreshGen.for_formula(phi))
                assert (
                    length(step.psi) + 3 * nbvar(step.psi) + 6 * nblock(step.psi)
                    <= length(phi) + 3 * nbvar(phi) + 6 * nblock(phi)
                )

        # substitution case split
        for host, repl in _free_for_instances(rng, 1000):
            lhs = substitute(host, {"p": repl})
            on_true = substitute(host, {"p": App("true", ())})
            on_false = substitute(host, {"p": App("false", ())})
            rhs = disj(conj(on_true, repl), conj(on_false, neg(repl)))
            assert equivalent(lhs, rhs)

        # substitution as existential definition
        done = 0
        for host, repl in _free_for_instances(rng, 2000):
            if "p" in free_vars(repl):
                continue
            lhs = substitute(host, {"p": repl})
            rhs = exists(["p"], conj(iff(Var("p"), repl), host))
            assert equivalent(lhs, rhs)
            done += 1
            if done >= 1000:
                break
        assert done >= 1000

        # substitution composition
        done = 0
        while done < 1000:
            phi = small_formula(rng, pool=("a", "b", "p"), max_size=10)
            image = small_formula(rng, pool=("b", "c"), max_depth=1, max_size=5)
            repl = small_formula(rng, pool=("b", "c"), max_depth=1, max_size=5)
            if "p" in free_vars(image):
                continue
            try:
                joint = substitute(phi, {"a": image, "p": repl})
                staged = substitute(substitute(phi, {"a": image}), {"p": repl})
            except Exception:
                continue
            assert equivalent(joint, staged)
            done += 1

        # fresh-copy re-binding of a universal block
        for _ in range(1000):
            body = small_formula(rng, pool=("x", "y", "a"), max_size=8)
            block = tuple(sorted(rng.sample(["x", "y"], rng.randint(1, 2))))
            copies = {x: neg_copy(x, 1) for x in block}
            lhs = forall(block, body)
            rhs = forall(
                copies.values(),
                exists(
                    block,
                    big_conj([body] + [iff(Var(x), Var(copies[x])) for x in block]),
                ),
            )
            assert equivalent(lhs, rhs)


def _enumerate_small(max_len):
    """All formulas over {p, q} with ops {not, and, xor}, single-variable
    blocks, length <= max_len, negation never applied to a negation."""
    variables = ("p", "q")
    by_len = {n: [] for n in range(1, max_len + 1)}
    by_len[1] = [Var(v) for v in variables]
    for n in range(1, max_len + 1):
        fresh = []
        if n >= 3:
            for k in range(1, n - 1):
                for a in by_len[k]:
                    for b in by_len[n - 1 - k]:
                        fresh.append(App("and", (a, b)))
                        fresh.append(App("xor", (a, b)))
            for body in by_len[n - 2]:
                for v in variables:
                    fresh.append(Quant(Kind.EXISTS, (v,), body))
                    fresh.append(Quant(Kind.FORALL, (v,), body))
        by_len[n].extend(fresh)
        by_len[n].extend(
            App("not", (f,))
            for f in by_len[n]
            if not (isinstance(f, App) and f.op == "not")
        )
    for n in by_len:
        yield from by_len[n]


def test_criterion_6_exhaustive_small_scale():
    with criterion(6, "exhaustive small-scale equivalence"):
        count = 0
        valuations = [
            Valuation(dict(zip(("p", "q"), bits)))
            for bits in product((0, 1), repeat=2)
        ]
        for phi in _enumerate_small(7):
            count += 1
            parts = prenex_mc(phi, FreshGen())
            assert equivalent(phi, parts), phi
            for v in valuations:
                assert evaluate_via_mc(v, phi) == evaluate(v, phi), phi
        assert count == 194_404


def test_criterion_7_blowup_contrast():
    with criterion(7, "blowup contrast"):
        for k in range(1, 13):
            phi = nested_iff_family(k)
            baseline = naive_prenex(phi)
            layered = prenex(Kind.EXISTS, phi, FreshGen())
            assert length(baseline) >= 2**k
            assert length(layered) <= 9 * length(phi)


def test_criterion_8_flat_encoding_witness():
    with criterion(8, "flat-encoding failure witness"):
        original, flat = flat_encoding_pair()
        assert not satisfiable(original)
        assert satisfiable(flat)


def test_criterion_9_round_trips():
    with criterion(9, "parser/export round trips"):
        rng = random.Random(20249)
        for _ in range(10_000):
            problem = random_problem(rng, max_size=30)
            printed = format_problem(problem)
            assert parse(printed).formula == problem.formula

        for _ in range(300):
            phi = random_formula(rng, max_size=30)
            result = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            text = to_prenex_text(result)
            assert parse_formula(text, allow_internal_names=True) == result
            lines = to_qdimacs(result).splitlines()
            declared_vars = int(lines[0].split()[2])
            declared_clauses = int(lines[0].split()[3])
            prefix_ids = {
                int(tok)
                for line in lines[1:]
                if line.startswith(("e ", "a "))
                for tok in line.split()[1:-1]
            }
            clause_lines = [
                line for line in lines[1:] if not line.startswith(("e ", "a "))
            ]
            assert len(clause_lines) == declared_clauses
            assert prefix_ids == set(range(1, declared_vars + 1))
            for line in clause_lines:
                tokens = line.split()
                assert tokens[-1] == "0"
                assert all(
                    1 <= abs(int(tok)) <= declared_vars for tok in tokens[:-1]
                )
