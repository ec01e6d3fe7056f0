"""Golden digests: the exported text of every mode and format is pinned.

Each digest covers one (corpus, mode, format, artifact) combination: the
sha256 over the outputs of every input in the corpus, in order, exactly as
``qprenex prenex`` would write them (formula file and ``.map`` sidecar).
The text of the naive baseline is pinned per corpus too (``nested_iff`` up
to k = 10, with a budget of 20,000 and ``BUDGET`` where it is exceeded): its
case splits run through the constant folder.  A change that alters any
output byte fails here.  Only a change meant to alter output may regenerate
the file, with

    PYTHONPATH=src python tests/test_golden.py --write

and must say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from qprenex.core import OperatorTable
from qprenex.generate import nested_iff_family, random_problem
from qprenex.parser import Problem, format_formula
from qprenex.transform import SizeBudgetExceeded, naive_prenex

from helpers import cli_outputs

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
MODES = ("sat", "valid", "mc")
FORMATS = ("fqbf", "qcir", "qdimacs")
NAIVE_BUDGET = 20_000


def golden_corpora() -> dict[str, list[Problem]]:
    """``nested_iff_family(1..12)`` and 200 seeded random problems."""
    nested = [
        Problem((), nested_iff_family(k), OperatorTable()) for k in range(1, 13)
    ]
    rng = random.Random(20250)
    seeded = [
        random_problem(rng, max_size=rng.randint(4, 160), monotone=i % 5 == 4)
        for i in range(200)
    ]
    return {"nested_iff": nested, "random200": seeded}


def compute_digests() -> dict[str, str]:
    digests: dict[str, str] = {}
    for corpus, problems in golden_corpora().items():
        for mode in MODES:
            for fmt in FORMATS:
                text_hash = hashlib.sha256()
                map_hash = hashlib.sha256()
                for problem in problems:
                    text, sidecar = cli_outputs(problem, mode, fmt)
                    text_hash.update(text.encode() + b"\0")
                    map_hash.update(sidecar.encode() + b"\0")
                digests[f"{corpus}/{mode}/{fmt}/text"] = text_hash.hexdigest()
                digests[f"{corpus}/{mode}/{fmt}/map"] = map_hash.hexdigest()
    for corpus, problems in golden_corpora().items():
        naive_hash = hashlib.sha256()
        for problem in problems[:10] if corpus == "nested_iff" else problems:
            naive_hash.update(naive_text(problem).encode() + b"\0")
        digests[f"{corpus}/naive/text"] = naive_hash.hexdigest()
    return digests


def naive_text(problem: Problem) -> str:
    """The baseline's prenex text, or ``BUDGET`` where it outgrows the budget."""
    try:
        return format_formula(naive_prenex(problem.formula, budget=NAIVE_BUDGET))
    except SizeBudgetExceeded:
        return "BUDGET"


def test_golden_digests():
    expected = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in sorted(expected) if actual[key] != expected[key]]
    assert not changed, f"outputs changed: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    DIGEST_FILE.write_text(json.dumps(compute_digests(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGEST_FILE}")
