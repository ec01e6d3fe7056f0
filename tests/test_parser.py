import random
import re

import pytest

from qprenex.core import App, Kind, Quant, Var, exists, length
from qprenex.generate import nested_iff_family, random_problem
from qprenex.parser import (
    OpDecl,
    ParseError,
    format_formula,
    format_problem,
    parse,
    parse_formula,
)
from qprenex.semantics import Valuation, evaluate

from helpers import criterion_4_corpus, reference_parse
from test_golden import golden_corpora


class TestGrammar:
    def test_quantifier_block(self):
        problem = parse("exists x y . x -> p")
        assert problem.formula == Quant(
            Kind.EXISTS, ("x", "y"), App("imp", (Var("x"), Var("p")))
        )
        assert length(problem.formula) == 6

    def test_quantifier_scope_extends_right(self):
        assert parse_formula("exists x . x & y") == exists(
            ["x"], App("and", (Var("x"), Var("y")))
        )

    def test_declared_operator(self):
        problem = parse("op maj/3 : 00010111 ; maj(p, q, r)")
        assert problem.declarations == (OpDecl("maj", 3, "00010111"),)
        assert problem.formula == App("maj", (Var("p"), Var("q"), Var("r")))
        for row in range(8):
            bits = [(row >> 2) & 1, (row >> 1) & 1, row & 1]
            v = Valuation(dict(zip("pqr", bits)))
            assert evaluate(v, problem.formula, problem.table) == int(
                "00010111"[row]
            )

    def test_contradiction_parses(self):
        problem = parse("exists x . x & ~x")
        assert problem.formula == exists(["x"], App("and", (Var("x"), App("not", (Var("x"),)))))

    def test_precedence_tower(self):
        phi = parse_formula("~a & b | c xor d -> e <-> f")
        # <-> is weakest, then ->, xor, |, &, ~
        assert phi == App(
            "iff",
            (
                App(
                    "imp",
                    (
                        App(
                            "xor",
                            (
                                App(
                                    "or",
                                    (
                                        App("and", (App("not", (Var("a"),)), Var("b"))),
                                        Var("c"),
                                    ),
                                ),
                                Var("d"),
                            ),
                        ),
                        Var("e"),
                    ),
                ),
                Var("f"),
            ),
        )

    def test_imp_right_assoc(self):
        assert parse_formula("a -> b -> c") == App(
            "imp", (Var("a"), App("imp", (Var("b"), Var("c"))))
        )

    def test_iff_left_assoc(self):
        assert parse_formula("a <-> b <-> c") == App(
            "iff", (App("iff", (Var("a"), Var("b"))), Var("c"))
        )

    def test_comments(self):
        text = "# leading comment\nexists x . # trailing\n x\n# done"
        assert parse_formula(text) == exists(["x"], Var("x"))

    def test_constants(self):
        assert parse_formula("true & false") == App("and", (App("true", ()), App("false", ())))


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("p &\n& q")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="expects 3 arguments"):
            parse("op maj/3 : 00010111 ; maj(p, q)")

    def test_unknown_operator(self):
        with pytest.raises(ParseError, match="unknown operator"):
            parse("maj(p, q, r)")

    def test_reserved_character(self):
        with pytest.raises(ParseError, match="reserved character"):
            parse("x@p1 & y")

    def test_internal_names_flag(self):
        phi = parse_formula("x@p1 & @a2", allow_internal_names=True)
        assert phi == App("and", (Var("x@p1"), Var("@a2")))

    def test_duplicate_block_variable(self):
        with pytest.raises(ParseError, match="duplicate variable"):
            parse("exists x x . x")

    def test_keyword_not_a_variable(self):
        with pytest.raises(ParseError):
            parse("exists xor . xor")

    def test_declaration_collision(self):
        with pytest.raises(ParseError, match="collides"):
            parse("op and/2 : 0001 ; p")
        with pytest.raises(ParseError, match="collides"):
            parse("op m/1 : 10 ; op m/1 : 01 ; p")

    def test_declaration_bit_width(self):
        with pytest.raises(ParseError, match="expected 8"):
            parse("op maj/3 : 0001 ; p")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    @pytest.mark.parametrize(
        "arity, column, message",
        [
            # 2 ** arity is never built: its digits overflow int-to-str, or
            # take minutes, or exhaust memory.
            ("20000", 14, "has 2 bits, expected 2^20000 for arity 20000"),
            ("4000000000", 19, "expected 2^4000000000 for arity 4000000000"),
            ("40000000000000", 23, "for arity 40000000000000"),
            ("9" * 5000, 5009, "has 2 bits, expected 2^999"),
            ("0003", 13, "has 2 bits, expected 8 for arity 3"),
            ("10", 11, "has 2 bits, expected 1024 for arity 10"),
            ("9999", 13, f"has 2 bits, expected {1 << 9999} for arity 9999"),
            ("10000", 14, "has 2 bits, expected 2^10000 for arity 10000"),
            # Only ASCII digits are numbers.
            ("\u0662", 6, "unexpected character '\u0662'"),
        ],
        ids=[
            "20000",
            "4e9",
            "4e13",
            "5000_digits",
            "leading_zeros",
            "10",
            "9999",
            "10000",
            "arabic_indic",
        ],
    )
    def test_declared_arity_checked_against_bit_count(self, arity, column, message):
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse(f"op f/{arity} : 01 ; f(p)")
        assert (err.value.line, err.value.column) == (1, column)

    def test_arity_with_leading_zeros(self):
        problem = parse("op f/002 : 0110 ; f(p, q)")
        assert problem.declarations == (OpDecl("f", 2, "0110"),)


class TestPrinter:
    def test_canonical_iff(self):
        assert format_formula(parse_formula("p<->q")) == "p <-> q"

    def test_sorted_block(self):
        assert format_formula(Quant(Kind.EXISTS, ("y", "x"), Var("p"))) == "exists x y . p"

    def test_minimal_parentheses(self):
        cases = [
            "p <-> (q <-> r)",
            "(p -> q) -> r",
            "~(p & q)",
            "p & (q | r)",
            "p & (exists x . x)",
            "maj(p, q, exists x . x)",
        ]
        for text in cases:
            table_text = "op maj/3 : 00010111 ; " + text
            problem = parse(table_text)
            assert format_formula(problem.formula) == text

    def test_empty_block_unprintable(self):
        with pytest.raises(ValueError, match="empty quantifier block"):
            format_formula(Quant(Kind.EXISTS, (), Var("p")))

    def test_problem_round_trip(self):
        text = "op maj/3 : 00010111 ;\nmaj(p, q, r) & (exists x . x)"
        problem = parse(text)
        again = parse(format_problem(problem))
        assert again.formula == problem.formula
        assert again.declarations == problem.declarations

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(1000):
            problem = random_problem(rng, max_size=30)
            printed = format_problem(problem)
            assert parse(printed).formula == problem.formula

    def test_printed_transforms_reingest(self):
        from qprenex.core import FreshGen, is_boolean
        from qprenex.transform import prenex

        rng = random.Random(77)
        checked = 0
        while checked < 50:
            problem = random_problem(rng, max_size=20)
            if is_boolean(problem.formula):
                continue
            result = prenex(Kind.EXISTS, problem.formula, FreshGen())
            printed = format_formula(result)
            with pytest.raises(ParseError):
                parse_formula(printed, problem.table)
            again = parse_formula(printed, problem.table, allow_internal_names=True)
            assert again == result
            checked += 1


def _outcome(read, text, allow_internal_names):
    try:
        problem = read(text, allow_internal_names=allow_internal_names)
    except ParseError as err:
        return str(err), err.line, err.column
    return problem.formula, problem.declarations


def _mutants(rng, text):
    """A truncation and two edits of one to three characters or tokens."""
    yield text[: rng.randrange(len(text) + 1)]
    pieces = list("()~&|,.;:/<->@# \n\t0123abxy\u0662") + [
        " xor ", "exists ", "forall ", "true", "false", "op ", "maj(", "f/2", "\r\n",
    ]
    for _ in range(2):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(chars) + 1)
            edit = rng.random()
            if edit < 1 / 3 and at < len(chars):
                del chars[at]
            elif edit < 2 / 3 or at == len(chars):
                chars.insert(at, rng.choice(pieces))
            else:
                chars[at] = rng.choice(pieces)
        yield "".join(chars)


class TestReferenceParser:
    """Precedence climbing against the recursive-descent reference: the same
    formula and declarations, or the same error at the same position."""

    def test_same_trees_on_corpora(self):
        texts = [format_problem(p) for p in criterion_4_corpus()]
        texts += [format_problem(p) for ps in golden_corpora().values() for p in ps]
        for text in texts:
            assert _outcome(parse, text, False) == _outcome(reference_parse, text, False)

    def test_same_errors_on_truncated_and_mutated_inputs(self):
        rng = random.Random(6)
        sources = [format_problem(p) for p in criterion_4_corpus()[::20]]
        sources += [format_problem(p) for ps in golden_corpora().values() for p in ps]
        sources += [
            "op g/2 : 0110 ; op k/0 : 1 ;\n(exists x y . g(x, forall z . z)) -> k()",
            "# comment\n~~a -> b <-> c -> d xor e | f & ~g",
        ]
        errors = 0
        for source in sources:
            for text in _mutants(rng, source):
                allow = rng.random() < 0.5
                expected = _outcome(reference_parse, text, allow)
                assert _outcome(parse, text, allow) == expected, text
                errors += isinstance(expected[0], str)
        assert errors > len(sources)


@pytest.mark.parametrize(
    "text, allow, error_at",
    [
        ("a # \u00fc <- !\n& b", False, None),
        ("a & b # no newline at the end", False, None),
        ("# only\n# comments\nexists x .\tx", False, None),
        ("exists x .\r\n\tx &\r\n\ty", False, None),
        ("a &\r\n\t!b", False, (2, 2)),
        ("a < b", False, (1, 3)),
        ("a - b", False, (1, 3)),
        ("a > b", False, (1, 3)),
        ("!a", False, (1, 1)),
        ("a\fb", False, (1, 2)),
        ("\u00e9", False, (1, 1)),
        ("a\u00e9", False, (1, 2)),
        ("12abc", False, (1, 1)),
        ("x@p1", False, (1, 2)),
        ("x@p1", True, None),
        ("a # x@p1 <- !\n& b", False, None),
        ("a # c !\n& !b", False, (2, 3)),
        ("a & # comment\n$b", False, (2, 1)),
        ("a\r\n\r\n  & %", False, (3, 5)),
        ("op g/2 : 0110 ;\ng(a, b) $", False, (2, 9)),
        ("op g/2 : 0110 ; # two-ary\nop k/0 : 1 ; # nullary\ng(a, k())", False, None),
        ("op k/0 : 1 ;\nk() # end", False, None),
        ("a # c\n& (b", False, (2, 5)),
        ("# c\nop g/2 : 011 ;\ng(a, b)", False, (2, 10)),
        ("# c\nexists x # d\nx . x", False, (3, 1)),
        ("a <-- b", False, (1, 3)),
        ("a ->> b", False, (1, 5)),
        ("a<->>b", False, (1, 5)),
        ("a # c\n& x@p1 & $", False, (2, 4)),
        ("a # c\n& $ & x@p1", False, (2, 3)),
    ],
)
def test_lexer_cases_match_reference(text, allow, error_at):
    """Comments, blanks and stray characters: the same formula as the
    reference, or the same error at the same line and column."""
    got = _outcome(parse, text, allow)
    assert got == _outcome(reference_parse, text, allow)
    assert (got[1:] if isinstance(got[0], str) else None) == error_at


@pytest.mark.parametrize(
    "text",
    ["~" * 100_000 + "(forall x . x)", format_formula(nested_iff_family(10_000))],
    ids=["negations_100k", "nested_iff_10k"],
)
def test_deep_text_at_default_recursion_limit(text):
    # Compared through printed text: dataclass equality recurses.
    assert format_formula(parse_formula(text)) == text
