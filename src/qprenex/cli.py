"""Command-line front end: parse -> transform -> verify -> export.

Exit codes: 0 success (``check`` printed PASS), 1 input/parse error,
2 internal invariant violation (size bound exceeded or ``check`` FAIL) or
fault (recursion or memory exhausted), 3 oracle refusal (the query has more
free names than the cap, or its blocks bind more than ``W`` + cap names at
one node).
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import os
import random
import sys
import time
from pathlib import Path

from .core import (
    Formula,
    Kind,
    free_vars,
    length,
    nblock,
    nbvar,
    neg,
    qdepth,
)
from .export import Manifest, NotPrenex, export_text
from .generate import nested_iff_family, random_problem
from .parser import ParseError, Problem, format_problem, parse
from .semantics import (
    DEFAULT_ORACLE_CAP,
    RefusalError,
    Valuation,
    find_disagreement,
    satisfying_assignment,
)
from .transform import (
    DEFAULT_SIZE_BUDGET,
    SizeBudgetExceeded,
    naive_prenex,
    prenex,
    prenex_mc,
)

LENGTH_RATIO_BOUND = 9

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2
EXIT_REFUSED = 3


class _InputError(Exception):
    """A bad argument or environment setting, reported as exit code 1."""


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise _InputError(f"{flag} must be at least {low}, got {value}")


def _transform(mode: str, formula: Formula) -> Formula:
    if mode == "sat":
        return prenex(Kind.EXISTS, formula)
    if mode == "valid":
        return prenex(Kind.FORALL, formula)
    return prenex_mc(formula)


def _read_problem(path: str, allow_internal: bool) -> Problem:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise _InputError(f"{path} is not UTF-8 text: {err}") from None
    return parse(text, allow_internal_names=allow_internal)


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _seed(args: argparse.Namespace) -> int:
    env = os.environ.get("QPRENEX_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise _InputError(f"QPRENEX_SEED must be an integer, got {env!r}") from None


def _format_valuation(valuation: Valuation, names) -> str:
    shown = " ".join(f"{n}={valuation.value(n)}" for n in sorted(names))
    return shown or "(closed formula)"


def cmd_prenex(args: argparse.Namespace) -> int:
    problem = _read_problem(args.input, args.allow_internal_names)
    formula = problem.formula
    in_length = length(formula)
    start = time.perf_counter()
    result = _transform(args.mode, formula)
    elapsed = time.perf_counter() - start
    out_length = length(result)
    ratio = out_length / in_length if in_length else 0.0

    out_path = Path(args.out) if args.out else Path(args.input).with_suffix(
        {"fqbf": ".prenex.fqbf", "qcir": ".qcir", "qdimacs": ".qdimacs"}[args.format]
    )
    manifest = Manifest(mode=args.mode, digest=_digest(args.input))
    try:
        text = export_text(problem, result, args.format, manifest)
    except NotPrenex as err:
        print(f"error: {err} (mc output is a boolean combination; "
              f"use --format fqbf)", file=sys.stderr)
        return EXIT_INPUT
    out_path.write_text(text, encoding="utf-8")
    Path(str(out_path) + ".map").write_text(manifest.render(), encoding="utf-8")

    print(
        f"input_length={in_length} input_qdepth={qdepth(formula)} "
        f"input_nblock={nblock(formula)} input_nbvar={nbvar(formula)} "
        f"output_length={out_length} ratio={ratio:.3f} time_s={elapsed:.6f} "
        f"out={out_path}"
    )
    if ratio > LENGTH_RATIO_BOUND:
        print(
            f"error: output/input length ratio {ratio:.3f} exceeds "
            f"{LENGTH_RATIO_BOUND}",
            file=sys.stderr,
        )
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    _at_least("--oracle-cap", args.oracle_cap, 0)
    problem = _read_problem(args.input, args.allow_internal_names)
    transformed = None
    if args.transformed is not None:
        other = _read_problem(args.transformed, True)
        if other.declarations != problem.declarations:
            print("error: operator declarations differ between the files",
                  file=sys.stderr)
            return EXIT_INPUT
        transformed = other.formula
    formula = problem.formula
    table = problem.table
    cap = args.oracle_cap
    try:
        if transformed is None:
            # Every mode's oracle enumerates at least the input's free names
            # (sat and valid query the input first; mc's output has the same
            # free names), so an input past the cap is refused untransformed.
            needed = len(free_vars(formula))
            if needed > cap:
                raise RefusalError(needed, cap)
            transformed = _transform(args.mode, formula)
        if args.mode == "mc":
            witness = find_disagreement(formula, transformed, table, cap)
            if witness is None:
                print("PASS mode=mc equivalent=true")
                return EXIT_OK
            names = free_vars(formula) | free_vars(transformed)
            print(f"FAIL mode=mc witness: {_format_valuation(witness, names)}")
            return EXIT_INVARIANT
        if args.mode == "sat":
            queries = (formula, transformed)
            verdict = "equisatisfiable"
        else:
            queries = (neg(formula), neg(transformed))
            verdict = "equivalid"
        # Each side's verdict is whether its query has a satisfying row; the
        # first side that has one shows that row as the witness.
        answers = [satisfying_assignment(q, table, cap) for q in queries]
        left, right = ((a is None) != (args.mode == "sat") for a in answers)
        if left == right:
            print(f"PASS mode={args.mode} {verdict}=true")
            return EXIT_OK
        side = 0 if answers[0] is not None else 1
        shown = _format_valuation(answers[side], free_vars(queries[side]))
        print(f"FAIL mode={args.mode} input={left} transformed={right} "
              f"witness: {shown}")
        return EXIT_INVARIANT
    except RefusalError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_REFUSED


def cmd_gen(args: argparse.Namespace) -> int:
    _at_least("--vars", args.vars, 1)
    _at_least("--max-size", args.max_size, 1)
    _at_least("--max-depth", args.max_depth, 0)
    rng = random.Random(_seed(args))
    problem = random_problem(
        rng,
        pool=tuple(f"v{i}" for i in range(args.vars)),
        max_depth=args.max_depth,
        max_size=args.max_size,
        monotone=args.monotone,
    )
    text = format_problem(problem) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if args.max_k < 1 and args.corpus < 1:
        raise _InputError("nothing to measure: --max-k and --corpus are both below 1")
    _at_least("--budget", args.budget, 1)
    rng = random.Random(_seed(args))
    rows: list[dict[str, object]] = []

    def measure(name: str, formula: Formula) -> None:
        in_length = length(formula)
        start = time.perf_counter()
        transformed = prenex(Kind.EXISTS, formula)
        tr_time = time.perf_counter() - start
        tr_length = length(transformed)
        start = time.perf_counter()
        try:
            baseline = naive_prenex(formula, budget=args.budget)
            naive_length: object = length(baseline)
            naive_ratio: object = round(naive_length / in_length, 2)
        except SizeBudgetExceeded:
            naive_length = "BUDGET"
            naive_ratio = "-"
        naive_time = time.perf_counter() - start
        rows.append(
            {
                "name": name,
                "input_length": in_length,
                "tr_length": tr_length,
                "tr_ratio": round(tr_length / in_length, 2),
                "naive_length": naive_length,
                "naive_ratio": naive_ratio,
                "tr_time_s": round(tr_time, 6),
                "naive_time_s": round(naive_time, 6),
            }
        )

    for k in range(1, args.max_k + 1):
        measure(f"nested_iff_{k}", nested_iff_family(k))
    for i in range(args.corpus):
        measure(f"random_{i}", random_problem(rng).formula)
    for i in range(args.corpus):
        measure(f"monotone_{i}", random_problem(rng, monotone=True).formula)

    header = list(rows[0].keys())
    widths = {
        h: max(len(h), *(len(str(r[h])) for r in rows)) for h in header
    }
    print("  ".join(h.ljust(widths[h]) for h in header))
    for row in rows:
        print("  ".join(str(row[h]).ljust(widths[h]) for h in header))
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprenex",
        description="Prenex fully quantified boolean formulas with linear "
        "size growth and preserved quantifier depth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=("sat", "valid", "mc"), default="sat")
        p.add_argument("--allow-internal-names", action="store_true",
                       help="accept '@' in identifiers (re-ingest tool output)")

    p = sub.add_parser("prenex", help="transform a .fqbf file and export it")
    p.add_argument("input")
    common(p)
    p.add_argument("--format", choices=("fqbf", "qcir", "qdimacs"),
                   default="fqbf")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prenex)

    p = sub.add_parser("check", help="verify a transform against the oracle")
    p.add_argument("input")
    p.add_argument("transformed", nargs="?", default=None,
                   help="previously exported .fqbf to compare against "
                   "(default: transform the input in-process)")
    common(p)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="emit a seeded random problem")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vars", type=int, default=8)
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--max-size", type=int, default=40)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="contrast the transform with the baseline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-k", type=int, default=12)
    p.add_argument("--corpus", type=int, default=5)
    p.add_argument("--budget", type=int, default=DEFAULT_SIZE_BUDGET)
    p.add_argument("--out", default=None, help="also write the table as CSV")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # No stage leaves cyclic garbage; the collector would only re-scan trees.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (_InputError, OSError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (RecursionError, MemoryError) as err:
        detail = str(err) or "out of memory"
        print(f"error: {type(err).__name__}: {detail}", file=sys.stderr)
        return EXIT_INVARIANT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
