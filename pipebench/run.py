"""Pipeline benchmark for qprenex.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are made from the
seed and written as .fqbf files; then one single-threaded closed loop runs
whole passes over them (read, parse, transform, lower, export, write, and
for oracle_check the oracle verdict) until ``--seconds`` have gone by.
After the loop every output is checked (see checks.py), small instances
of the workload's family are evaluated by the benchmark's own evaluator,
and the ``qprenex`` command line is run on one input per mode and format
to show that it writes the same bytes and verdicts as the library path.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics, which are also
written to pipebench/results/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "qprenex" / "__init__.py").is_file():
    sys.exit(f"pipebench: no qprenex sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]
# cli.main raises the limit to this; the parser and printer recurse once per
# nesting level and fail below it on deep_layers (see README.md).
sys.setrecursionlimit(20_000)

from qprenex.core import length  # noqa: E402
from qprenex.parser import format_problem  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from pipeline import LAYERS, Spans, direct, run_item  # noqa: E402
from workloads import Item  # noqa: E402

SETUP_PROBES = 3  # before the loop, and as many after it
SUBPROCESS_TIMEOUT_S = 60


def setup(workload: str, seed: int, work: Path, small: bool = False):
    problems, items = workloads.build(workload, seed, small)
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    for stem, problem in problems.items():
        (work / "in" / f"{stem}.fqbf").write_text(format_problem(problem) + "\n", encoding="utf-8")
    return problems, items


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Times from spawning a fresh interpreter to the point where this
    script would start its first timed item."""
    times = []
    for i in range(SETUP_PROBES):
        probe = work / f"probe{i}"
        start = time.time()
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe", str(probe)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
        shutil.rmtree(probe)
    return times


class Pass:
    def __init__(self, busy, times: dict, outcomes: dict):
        self.busy = busy
        self.times = times
        self.totals = (
            sum(o.output_length for o in outcomes.values()),
            sum(o.output_bytes for o in outcomes.values()),
            tuple(o.verdict and o.verdict.line for o in outcomes.values()),
        )


def closed_loop(items, work: Path, seconds: float, trace: bool):
    """Whole passes for about ``seconds``: the loop stops when less than
    half a pass is left.  With ``trace`` every second pass is traced, so
    both kinds are measured under the same conditions."""
    passes, failed, failures = [], set(), []
    outcomes: dict = {}
    start = time.perf_counter()
    while True:
        spans = Spans() if trace and len(passes) % 2 == 1 else None
        call = spans or direct
        outcomes, times = {}, {}
        for item in items:
            begin = time.perf_counter()
            try:
                outcomes[item] = run_item(item, work, call)
            except Exception:  # a failed operation is counted, and the loop goes on
                failed.add(item)
                failures.append(f"{item.out_name}: {traceback.format_exc()}")
            times[item] = time.perf_counter() - begin
        passes.append(Pass(spans and spans.busy, times, outcomes))
        left = seconds - (time.perf_counter() - start)
        if left < sum(times.values()) / 2 and (not trace or len(passes) >= 2):
            return passes, outcomes, failed, failures


def throughput(passes, sizes: dict) -> float:
    """Input symbols per second, from each item's median time over the
    passes: a burst of load on the host slows a few items of one pass, and
    the per-item median sets those aside."""
    return sum(sizes.values()) / sum(statistics.median(p.times[i] for p in passes) for i in sizes)


def cli_parity(items, small_problems, work: Path) -> list[str]:
    """Run ``qprenex prenex`` on the first input in every mode and format of
    the plan, and ``qprenex check`` on a small instance in every mode."""
    errors = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli = [sys.executable, "-m", "qprenex.cli"]
    (work / "cli").mkdir(exist_ok=True)

    def run(args):
        return subprocess.run(cli + args, capture_output=True, text=True, env=env,
                              timeout=SUBPROCESS_TIMEOUT_S)

    first = items[0].stem
    for item in (i for i in items if i.stem == first):
        ours, theirs = work / "out" / item.out_name, work / "cli" / item.out_name
        done = run(["prenex", str(work / "in" / f"{first}.fqbf"), "--mode", item.mode,
                    "--format", item.fmt, "--out", str(theirs)])
        same = done.returncode == 0 and all(
            Path(f"{theirs}{s}").read_bytes() == Path(f"{ours}{s}").read_bytes() for s in ("", ".map")
        )
        if not same:
            errors.append(f"cli prenex {item.out_name}: exit {done.returncode}, "
                          f"output differs from the library path {done.stderr.strip()}")
    stem = next(iter(small_problems))
    for mode in sorted({i.mode for i in items}):
        item = Item(stem, mode, "fqbf", check=True)
        try:
            verdict = run_item(item, work).verdict
        except Exception:  # reported as a failed check
            errors.append(f"{item.out_name}: {traceback.format_exc()}")
            continue
        done = run(["check", str(work / "in" / f"{stem}.fqbf"), str(work / "out" / item.out_name),
                    "--mode", mode])
        if done.stdout.strip() != verdict.line or done.returncode != 0:
            errors.append(f"cli check {item.out_name}: exit {done.returncode} "
                          f"'{done.stdout.strip()}', library path '{verdict.line}'")
    return errors


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def end_to_end(passes, sizes: dict, setup_s: float, rss_mb: float) -> dict:
    length_total, bytes_total, _ = passes[0].totals
    return {
        "symbols_per_s": metric(throughput(passes, sizes), "1/s"),
        "output_length": metric(length_total, "symbols"),
        "output_bytes": metric(bytes_total, "B"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(passes, sizes: dict, counts: checks.PassCounts) -> tuple[dict, dict]:
    traced = [p for p in passes if p.busy is not None]
    plain = [p for p in passes if p.busy is None]
    busy = {layer: statistics.median(p.busy.get(layer, 0.0) for p in traced) for layer in LAYERS}
    c = counts.values
    metrics = {f"{layer}.busy_s": metric(busy[layer], "s") for layer in LAYERS}
    metrics.update({
        "parser.symbols_per_s": metric(rate(c["parser_symbols"], busy["parser"]), "1/s"),
        "transform.symbols_per_s": metric(rate(c["transform_symbols"], busy["transform"]), "1/s"),
        "transform.layers": metric(c["layers"], "count"),
        "transform.bindings": metric(c["bindings"], "count"),
        "transform.prefix_vars": metric(c["prefix_vars"], "count"),
        "export.clauses": metric(c["clauses"], "count"),
        "export.gates": metric(c["gates"], "count"),
        "semantics.verdicts_per_s": metric(rate(c["verdicts"], busy["semantics"]), "1/s"),
        "semantics.queries": metric(c["queries"], "count"),
        "semantics.free_names_max": metric(counts.free_names_max, "count"),
        "trace.overhead": metric(throughput(traced, sizes) / throughput(plain, sizes), "ratio"),
    })
    pass_s = statistics.median(sum(p.times.values()) for p in traced)
    detail = {
        "traced_pass_s": pass_s,
        "untraced_pass_s": statistics.median(sum(p.times.values()) for p in plain),
        "layer_share_of_pass": {layer: busy[layer] / pass_s for layer in LAYERS},
        "layers_cover": sum(busy.values()) / pass_s,
        "passes": len(passes),
    }
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        print(repr(time.time()))
        return 0

    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    phases = [time.perf_counter()]
    try:
        # Probes on both sides of the loop: the host's speed drifts over tens
        # of seconds, and probes taken together drift together.
        setup_times = measure_setup(args.workload, args.seed, work)
        problems, items = setup(args.workload, args.seed, work)
        sizes = {item: length(problems[item.stem].formula) for item in items}
        passes, outcomes, failed, failures = closed_loop(items, work, args.seconds, args.trace == 1)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(setup_times + measure_setup(args.workload, args.seed, work))
        phases.append(time.perf_counter())

        errors = []
        if len({p.totals for p in passes}) != 1:
            errors.append("output length, bytes or verdicts changed from pass to pass")
        done = [i for i in items if i not in failed]
        verdicts = {i: outcomes[i].verdict for i in done}
        found, counts = checks.check_pass(problems, done, work, verdicts, semantic=False)
        errors += found
        phases.append(time.perf_counter())
        small_problems, small_items = setup(args.workload, args.seed, work, small=True)
        small_verdicts = {}
        for item in small_items:
            try:
                small_verdicts[item] = run_item(item, work).verdict
            except Exception:  # reported as a failed check
                errors.append(f"{item.out_name}: {traceback.format_exc()}")
        errors += checks.check_pass(small_problems, list(small_verdicts), work, small_verdicts, semantic=True)[0]
        phases.append(time.perf_counter())
        errors += cli_parity(items, small_problems, work)
        phases.append(time.perf_counter())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in failures + errors:
        print(f"pipebench: {line}", file=sys.stderr)
    spent = [f"{b - a:.1f}" for a, b in zip(phases, phases[1:])]
    print("pipebench: seconds spent in set-up and loop, output checks, small instances, "
          f"cli parity: {', '.join(spent)}", file=sys.stderr)
    if args.trace:
        metrics, detail = per_layer(passes, sizes, counts)
        (HERE / "results").mkdir(exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "metrics": metrics, **detail}
        (HERE / "results" / f"trace-{args.workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    else:
        metrics = end_to_end(passes, sizes, setup_s, rss_mb)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(items) * len(passes),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
