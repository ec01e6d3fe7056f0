"""Checks on the files a pass wrote, made outside the timed loop.

Outputs are checked against the paper's guarantees and the format
definitions with the walkers, readers and evaluator of :mod:`qbf`, never
against stored copies of earlier output.  Each check raises
:class:`qbf.CheckError`; :func:`check_pass` collects the messages.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from qprenex.core import FreshGen
from qprenex.parser import Problem, parse

import qbf
from pipeline import Verdict, transform
from workloads import Item

LENGTH_BOUND = 9  # the paper: output length at most 9x the input length
ROLES = {"source", "pos-copy", "neg-copy", "abbrev", "tseytin"}


@dataclass
class Output:
    """What one item wrote, read back."""

    formula: object  # the transform output, as a qprenex formula
    circuit: qbf.Qcir | None = None
    cnf: qbf.Qdimacs | None = None
    ids: dict[str, int] = field(default_factory=dict)  # QCIR / QDIMACS id of each source name


@dataclass
class PassCounts:
    """Work counts of one pass, for the traced run's per-layer metrics."""

    values: Counter = field(default_factory=Counter)
    free_names_max: int = 0


def operators(problem: Problem) -> dict[str, str]:
    return {d.name: d.bits for d in problem.declarations}


def closure(mode: str) -> str:
    return "exists" if mode == "sat" else "forall"


def read_output(problem: Problem, item: Item, work: Path) -> Output:
    """Read one item's output and sidecar back and check everything that
    needs no evaluation: prenex form, depth, length, format, manifest."""
    dest = work / "out" / item.out_name
    text = dest.read_text(encoding="utf-8")
    if item.fmt == "fqbf":
        artifact = parse(text, allow_internal_names=True)
        if artifact.declarations != problem.declarations:
            raise qbf.CheckError("fqbf: operator declarations changed")
        out = Output(artifact.formula)
    else:
        # QCIR and QDIMACS do not hold the transform output; make it again.
        phi = problem.formula
        out = Output(transform(item.mode, phi, FreshGen.for_formula(phi)))
        if item.fmt == "qcir":
            out.circuit = qbf.read_qcir(text)
        else:
            out.cnf = qbf.read_qdimacs(text)
    _check_paper(problem.formula, item.mode, out.formula)
    _check_manifest(work, item, out)
    return out


def _check_paper(phi, mode: str, psi) -> None:
    if mode != "mc" and not qbf.is_prenex(psi):
        raise qbf.CheckError(f"{mode} output is not prenex")
    depth_in, depth_out = qbf.quantifier_depth(phi), qbf.quantifier_depth(psi)
    if depth_in != depth_out:
        raise qbf.CheckError(f"quantifier depth {depth_in} became {depth_out}")
    length_in, length_out = qbf.symbols(phi), qbf.symbols(psi)
    if length_out > LENGTH_BOUND * length_in:
        raise qbf.CheckError(f"length {length_out} exceeds {LENGTH_BOUND} x {length_in}")


def _check_manifest(work: Path, item: Item, out: Output) -> None:
    lines = (work / "out" / f"{item.out_name}.map").read_text(encoding="utf-8").splitlines()
    digest = hashlib.sha256((work / "in" / f"{item.stem}.fqbf").read_bytes()).hexdigest()
    head = lines[0].split() if lines else []
    if head[:2] != ["#", "qprenex-manifest"] or f"mode={item.mode}" not in head \
            or f"input-sha256={digest}" not in head:
        raise qbf.CheckError("map: header does not name the mode and input digest")
    rows = [line.split("\t") for line in lines[1:]]
    if any(len(r) != 4 or r[1] not in ROLES for r in rows):
        raise qbf.CheckError("map: malformed line")
    emitted = [r[0] for r in rows]
    tseytin = {r[0] for r in rows if r[1] == "tseytin"}
    if item.fmt == "fqbf":
        expected = qbf.names_of(out.formula)
        definitions: set[str] = set()
    elif out.circuit is not None:
        c = out.circuit
        expected = {str(i) for i in range(1, c.declared + len(c.gates) + 1)}
        definitions = {str(g) for g, _, _ in c.gates}
    else:
        expected = {str(i) for i in range(1, out.cnf.nvars + 1)}
        last = out.cnf.blocks[-1] if out.cnf.blocks else ("forall", [])
        definitions = {str(v) for v in last[1]} if last[0] == "exists" else set()
    if len(set(emitted)) != len(emitted) or set(emitted) != expected:
        raise qbf.CheckError("map: not one line per emitted variable")
    if item.fmt == "qcir" and tseytin != definitions or not tseytin <= definitions:
        raise qbf.CheckError("map: tseytin roles do not match the definitions")
    if item.fmt != "fqbf":
        out.ids = {r[2]: int(r[0]) for r in rows if r[1] == "source"}


def check_semantics(problem: Problem, item: Item, out: Output) -> None:
    """The output agrees with the input, decided by the benchmark's
    evaluator as a function of the input's free names: ``mc`` outputs are
    equivalent to the input; ``sat`` (``valid``) outputs are equivalent to
    it once their own new free names are bound existentially
    (universally), which gives equisatisfiability (equivalidity)."""
    ops = operators(problem)
    phi, psi, kind = problem.formula, out.formula, closure(item.mode)
    if item.mode == "mc":
        keep = sorted(qbf.free_names(phi) | qbf.free_names(psi))
        if qbf.projection(phi, ops, keep, kind) != qbf.projection(psi, ops, keep, kind):
            raise qbf.CheckError("mc output is not equivalent to the input")
        return
    keep = sorted(qbf.free_names(phi))
    expected = qbf.projection(phi, ops, keep, kind)
    ids = [out.ids.get(name, name) for name in keep]
    if out.circuit is not None:
        got = qbf.qcir_projection(out.circuit, ids, kind)
    elif out.cnf is not None:
        got = qbf.qdimacs_projection(out.cnf, ids)
    else:
        got = qbf.projection(psi, ops, keep, kind)
    if got != expected:
        def closed(table: int) -> bool:
            return table != 0 if kind == "exists" else table == (1 << (1 << len(keep))) - 1

        raise qbf.CheckError(
            f"{item.mode} output disagrees with the input on the free names {keep}; "
            f"closed, the output is {closed(got)} and the input {closed(expected)}"
        )


def check_verdict(problem: Problem, item: Item, verdict: Verdict) -> None:
    if not verdict.line.startswith("PASS"):
        raise qbf.CheckError(f"verdict '{verdict.line}'")
    if item.mode != "mc":
        own = qbf.decide(problem.formula, operators(problem), closure(item.mode))
        if verdict.input_value != own:
            raise qbf.CheckError(f"oracle says {verdict.input_value} on the input, the evaluator {own}")


def check_pass(problems, items, work: Path, verdicts, semantic: bool) -> tuple[list[str], PassCounts]:
    """Check every output of a pass; with ``semantic``, also evaluate them
    (only small instances fit the evaluator)."""
    errors = []
    counts = PassCounts()
    for item in items:
        problem = problems[item.stem]
        try:
            out = read_output(problem, item, work)
            if semantic:
                check_semantics(problem, item, out)
            if item.check:
                check_verdict(problem, item, verdicts[item])
        except (qbf.CheckError, OSError, ValueError, KeyError) as err:
            errors.append(f"{item.out_name}: {err}")
            continue
        _count(counts, problem, item, out)
    return errors, counts


def _count(counts: PassCounts, problem: Problem, item: Item, out: Output) -> None:
    c = counts.values
    phi, psi = problem.formula, out.formula
    size = qbf.symbols(phi)
    c["parser_symbols"] += size
    c["transform_symbols"] += size
    c["layers"] += qbf.quantifier_depth(phi)
    c["bindings"] += qbf.quantifiers(phi)[0]
    c["prefix_vars"] += qbf.quantifiers(psi)[1]
    c["clauses"] += len(out.cnf.clauses) if out.cnf else 0
    c["gates"] += len(out.circuit.gates) if out.circuit else 0
    if item.check:
        c["parser_symbols"] += size + qbf.symbols(psi)
        c["verdicts"] += 1
        free_in, free_out = qbf.free_names(phi), qbf.free_names(psi)
        if item.mode == "mc":
            c["queries"] += 1
            widest = len(free_in | free_out)
        else:
            c["queries"] += 2
            widest = max(len(free_in), len(free_out))
        counts.free_names_max = max(counts.free_names_max, widest)
