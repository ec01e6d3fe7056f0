"""The benchmark's checks accept the library's outputs and reject broken ones.

Run with ``python3 -m pytest pipebench``.  Each broken output is made by
hand from a correct one: a flipped guard, a dropped clause, a gate used
before its definition, and so on.
"""

import random

import pytest
from qprenex.core import OperatorTable
from qprenex.generate import random_formula
from qprenex.parser import format_problem, parse
from qprenex.semantics import satisfiable, valid

import checks
import qbf
import workloads
from pipeline import Verdict, run_item
from workloads import Item


def _run(tmp_path, text, mode, fmt, check=False):
    """Write one input, run it through the pipeline; return what check_pass needs."""
    (tmp_path / "in").mkdir(exist_ok=True)
    (tmp_path / "out").mkdir(exist_ok=True)
    problem = parse(text)
    (tmp_path / "in" / "x.fqbf").write_text(format_problem(problem) + "\n")
    item = Item("x", mode, fmt, check)
    outcome = run_item(item, tmp_path)
    return {"x": problem}, [item], {item: outcome.verdict}


def _errors(tmp_path, run):
    problems, items, verdicts = run
    return checks.check_pass(problems, items, tmp_path, verdicts, semantic=True)[0]


def _edit(tmp_path, item, old, new, suffix=""):
    path = tmp_path / "out" / f"{item.out_name}{suffix}"
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_evaluator_agrees_with_the_library_oracle():
    rng = random.Random(7)
    for _ in range(300):
        phi = random_formula(rng, pool=("a", "b", "c"), max_size=rng.randint(3, 20))
        table = OperatorTable()
        assert qbf.decide(phi, {}, "exists") == satisfiable(phi, table)
        assert qbf.decide(phi, {}, "forall") == valid(phi, table)


@pytest.mark.parametrize("workload", sorted(workloads.PLANS))
def test_small_instances_of_every_workload_pass(tmp_path, workload):
    problems, items = workloads.build(workload, 3, small=True)
    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    for stem, problem in problems.items():
        (tmp_path / "in" / f"{stem}.fqbf").write_text(format_problem(problem) + "\n")
    verdicts = {item: run_item(item, tmp_path).verdict for item in items}
    errors, counts = checks.check_pass(problems, items, tmp_path, verdicts, semantic=True)
    assert errors == []
    assert counts.values["transform_symbols"] > 0


def test_flipped_guard_polarity_is_rejected(tmp_path):
    run = _run(tmp_path, "exists x . x", "sat", "fqbf")
    assert _errors(tmp_path, run) == []
    _edit(tmp_path, run[1][0], "~@a1 ->", "@a1 ->")
    assert "closed, the output is False and the input True" in _errors(tmp_path, run)[0]


def test_dropped_clause_is_rejected(tmp_path):
    run = _run(tmp_path, "exists y . y & ~y", "sat", "qdimacs")
    assert _errors(tmp_path, run) == []
    item = run[1][0]
    path = tmp_path / "out" / item.out_name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # the unit clause on the output gate
    assert "header says" in _errors(tmp_path, run)[0]
    head = lines[0].split()
    head[3] = str(int(head[3]) - 1)
    path.write_text("\n".join([" ".join(head)] + lines[1:-1]) + "\n")
    assert "closed, the output is True and the input False" in _errors(tmp_path, run)[0]


def test_negated_qcir_output_is_rejected(tmp_path):
    run = _run(tmp_path, "(a & b) xor (exists x . x | a)", "valid", "qcir")
    assert _errors(tmp_path, run) == []
    text = (tmp_path / "out" / run[1][0].out_name).read_text()
    output = next(line for line in text.splitlines() if line.startswith("output("))
    _edit(tmp_path, run[1][0], output, output.replace("output(", "output(-"))
    assert "disagrees with the input" in _errors(tmp_path, run)[0]


@pytest.mark.parametrize("old, new, message", [
    ("#QCIR-G14 9", "#QCIR-G14 10", "header count"),
    ("output(9)\n4 = and(3, -3)", "output(9)\n4 = and(3, -5)", "before its definition"),
    ("forall(2, 3)", "forall(2)\nforall(3)", "alternate"),
    ("forall(2, 3)", "forall(2, 3, 1)", "declared twice"),
])
def test_malformed_qcir_is_rejected(tmp_path, old, new, message):
    run = _run(tmp_path, "exists y . y & ~y", "sat", "qcir")
    _edit(tmp_path, run[1][0], old, new)
    assert message in _errors(tmp_path, run)[0]


@pytest.mark.parametrize("old, new, message", [
    ("e 1 0\na 2 3 0", "e 1 0\na 2 0\na 3 0", "alternate"),
    ("a 2 3 0", "a 2 3 1 0", "declared twice"),
    ("\n9 0\n", "\n10 0\n", "out of range"),
])
def test_malformed_qdimacs_is_rejected(tmp_path, old, new, message):
    run = _run(tmp_path, "exists y . y & ~y", "sat", "qdimacs")
    _edit(tmp_path, run[1][0], old, new)
    assert message in _errors(tmp_path, run)[0]


def test_manifest_must_list_every_emitted_variable(tmp_path):
    run = _run(tmp_path, "exists y . y & ~y", "sat", "qdimacs")
    _edit(tmp_path, run[1][0], "9\ttseytin\t-\t-\n", "", suffix=".map")
    assert "one line per emitted variable" in _errors(tmp_path, run)[0]


def test_manifest_must_name_the_input_digest(tmp_path):
    run = _run(tmp_path, "exists x . x", "mc", "fqbf")
    _edit(tmp_path, run[1][0], "input-sha256=", "input-sha256=0", suffix=".map")
    assert "digest" in _errors(tmp_path, run)[0]


def test_paper_guarantees_are_checked():
    phi = parse("exists x . x & a").formula
    with pytest.raises(qbf.CheckError, match="not prenex"):
        checks._check_paper(phi, "sat", parse("a & (exists x . x)").formula)
    with pytest.raises(qbf.CheckError, match="depth"):
        checks._check_paper(phi, "mc", parse("exists x . exists y . x & y").formula)
    long = " & ".join(["a"] * 30)
    with pytest.raises(qbf.CheckError, match="exceeds 9"):
        checks._check_paper(phi, "mc", parse(f"exists x . {long}").formula)


def test_verdicts_must_pass_and_agree_with_the_evaluator(tmp_path):
    problems, items, verdicts = _run(tmp_path, "exists x . x & a", "sat", "fqbf", check=True)
    item = items[0]
    assert verdicts[item].line == "PASS mode=sat equisatisfiable=true"
    assert _errors(tmp_path, (problems, items, verdicts)) == []
    wrong = {item: Verdict("PASS mode=sat equisatisfiable=true", False, False)}
    assert "the evaluator True" in _errors(tmp_path, (problems, items, wrong))[0]
    failed = {item: Verdict("FAIL mode=sat input=True transformed=False", True, False)}
    assert "verdict" in _errors(tmp_path, (problems, items, failed))[0]
