"""One item of the closed loop, driven through the library as the CLI drives it.

``run_item`` follows ``qprenex prenex`` (read, parse, transform, lower,
export, manifest, write) and, for items with ``check`` set, then
``qprenex check INPUT TRANSFORMED`` (read and parse both files, take the
oracle verdict).  Every call into a layer goes through ``call(layer, fn,
*args)``: the untraced loop passes :func:`direct`, the traced loop a
:class:`Spans`, which adds the call's wall time to the layer's busy time.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from qprenex.core import FreshGen, Kind, length, nblock, nbvar, neg, qdepth
from qprenex.export import Manifest, lower_operators, manifest_for_text_export, to_qcir, to_qdimacs
from qprenex.parser import Problem, format_problem, parse
from qprenex.semantics import find_disagreement, satisfiable
from qprenex.transform import prenex, prenex_mc

from workloads import Item

#: The layers the traced run reports, in report order.
LAYERS = (
    "parser",
    "transform",
    "export.lower",
    "export.qdimacs",
    "export.qcir",
    "export.fqbf",
    "export.manifest",
    "semantics",
    "cli.read",
    "cli.write",
)

ORACLE_CAP = 24  # qprenex check's default --oracle-cap


def direct(layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Spans:
    """Busy wall time per layer, summed over the calls of one pass."""

    def __init__(self):
        self.busy = defaultdict(float)

    def __call__(self, layer, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy[layer] += time.perf_counter() - start


@dataclass(frozen=True)
class Verdict:
    """The line ``qprenex check`` prints, and the oracle's answers behind it
    (None for ``mc``, which compares the formulas directly)."""

    line: str
    input_value: bool | None
    output_value: bool | None


@dataclass(frozen=True)
class Outcome:
    output_length: int
    output_bytes: int
    verdict: Verdict | None


def transform(mode: str, formula, gen: FreshGen):
    if mode == "mc":
        return prenex_mc(formula, gen)
    return prenex(Kind.EXISTS if mode == "sat" else Kind.FORALL, formula, gen)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path: Path, text: str) -> int:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def run_item(item: Item, work: Path, call=direct) -> Outcome:
    source = work / "in" / f"{item.stem}.fqbf"
    dest = work / "out" / item.out_name
    text = call("cli.read", _read, source)
    digest = call("cli.read", _sha256, source)
    problem = call("parser", parse, text)
    formula = problem.formula
    # The CLI's metrics line.
    length(formula), qdepth(formula), nblock(formula), nbvar(formula)
    result = call("transform", transform, item.mode, formula, FreshGen.for_formula(formula))
    out_length = length(result)

    manifest = Manifest(mode=item.mode, digest=digest)
    if item.fmt == "fqbf":
        call("export.manifest", manifest_for_text_export, result, manifest)
        out = call("export.fqbf", format_problem, Problem(problem.declarations, result, problem.table))
    else:
        ready = call("export.lower", lower_operators, result, problem.table)
        if item.fmt == "qcir":
            out = call("export.qcir", to_qcir, ready, problem.table, manifest)
        else:
            export_mode = "valid" if item.mode == "valid" else "sat"
            out = call("export.qdimacs", to_qdimacs, ready, problem.table, mode=export_mode, manifest=manifest)
    if not out.endswith("\n"):
        out += "\n"
    sidecar = call("export.manifest", manifest.render)
    written = call("cli.write", _write, dest, out)
    written += call("cli.write", _write, Path(f"{dest}.map"), sidecar)
    verdict = check_step(item.mode, source, dest, call) if item.check else None
    return Outcome(out_length, written, verdict)


def check_step(mode: str, source: Path, artifact: Path, call=direct) -> Verdict:
    """``qprenex check SOURCE ARTIFACT --mode MODE``, without the witness."""
    problem = call("parser", parse, call("cli.read", _read, source))
    other = call("parser", parse, call("cli.read", _read, artifact), allow_internal_names=True)
    if other.declarations != problem.declarations:
        return Verdict("error: operator declarations differ between the files", None, None)
    table = problem.table
    if mode == "mc":
        witness = call("semantics", find_disagreement, problem.formula, other.formula, table, ORACLE_CAP)
        if witness is None:
            return Verdict("PASS mode=mc equivalent=true", None, None)
        return Verdict("FAIL mode=mc", None, None)
    if mode == "sat":
        left = call("semantics", satisfiable, problem.formula, table, ORACLE_CAP)
        right = call("semantics", satisfiable, other.formula, table, ORACLE_CAP)
        label = "equisatisfiable"
    else:
        left = not call("semantics", satisfiable, neg(problem.formula), table, ORACLE_CAP)
        right = not call("semantics", satisfiable, neg(other.formula), table, ORACLE_CAP)
        label = "equivalid"
    if left == right:
        return Verdict(f"PASS mode={mode} {label}=true", left, right)
    return Verdict(f"FAIL mode={mode} input={left} transformed={right}", left, right)

