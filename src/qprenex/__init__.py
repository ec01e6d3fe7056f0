"""Prenexing toolkit for fully quantified boolean formulas.

Parses full (non-prenex) QBFs with arbitrary n-ary boolean operators,
rewrites them into prenex form with linear size growth and preserved
quantifier depth, verifies rewrites against a brute-force semantic oracle,
and exports solver-ready QCIR/QDIMACS.
"""

# Set before the submodule imports: the export manifest header reads it.
__version__ = "0.1.0"

from .core import (
    App,
    CaptureError,
    FALSE,
    Formula,
    FreshGen,
    Kind,
    OperatorTable,
    Quant,
    TRUE,
    Var,
    free_vars,
    is_boolean,
    is_prenex,
    length,
    nblock,
    nbvar,
    qdepth,
    substitute,
    vars_of,
)
from .export import (
    Manifest,
    NotPrenex,
    UnloweredOperator,
    lower_operators,
    to_prenex_text,
    to_qcir,
    to_qdimacs,
)
from .parser import ParseError, Problem, format_formula, format_problem, parse, parse_formula
from .semantics import (
    RefusalError,
    Valuation,
    equisatisfiable,
    equivalent,
    equivalid,
    evaluate,
    satisfiable,
    valid,
)
from .transform import (
    SizeBudgetExceeded,
    naive_prenex,
    prenex,
    prenex_mc,
)

__all__ = [
    "App",
    "CaptureError",
    "FALSE",
    "Formula",
    "FreshGen",
    "Kind",
    "Manifest",
    "NotPrenex",
    "OperatorTable",
    "ParseError",
    "Problem",
    "Quant",
    "RefusalError",
    "SizeBudgetExceeded",
    "TRUE",
    "UnloweredOperator",
    "Valuation",
    "Var",
    "equisatisfiable",
    "equivalent",
    "equivalid",
    "evaluate",
    "format_formula",
    "format_problem",
    "free_vars",
    "is_boolean",
    "is_prenex",
    "length",
    "lower_operators",
    "naive_prenex",
    "nblock",
    "nbvar",
    "parse",
    "parse_formula",
    "prenex",
    "prenex_mc",
    "qdepth",
    "satisfiable",
    "substitute",
    "to_prenex_text",
    "to_qcir",
    "to_qdimacs",
    "valid",
    "vars_of",
]
