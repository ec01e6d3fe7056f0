"""The scope and layer walks against the loops they replaced.

``qdepth``, the transform's layer counts, the oracle's binding width and the
scope precondition of ``extract_quantifier`` must each agree with its old
hand-written loop (kept in ``tests/helpers.py``) on the golden corpora and
their outputs, the criterion-4 corpus and its ``sat`` outputs, the
generated-name inputs, and 10^5-deep chains at the default recursion limit.
``layer_counts`` and ``qdepth`` also agree with their ``scopes`` definitions,
which ``layer_counts`` replaced.
"""

import sys

import pytest

from qprenex.cli import _transform
from qprenex.core import (
    TRUE,
    App,
    FreshGen,
    Kind,
    Quant,
    Var,
    layer_counts,
    qdepth,
    scopes,
    vars_of,
)
from qprenex.generate import nested_iff_family
from qprenex.parser import parse_formula
from qprenex.semantics import _binding_width
from qprenex.transform import prenex

from helpers import (
    PreconditionError,
    criterion_4_corpus,
    extract_quantifier,
    generated_name_inputs,
    quantifier_chain,
    reference_binding_width,
    reference_layer_counts,
    reference_not_in_quantifier_scope,
    reference_qdepth,
    scopes_layer_counts,
    scopes_qdepth,
)
from test_golden import MODES, golden_corpora
from test_transform import _and_chain, _imp_chain


def _scope_refused(psi, name):
    """Whether ``extract_quantifier`` refuses ``name`` for sitting inside a
    quantifier scope of ``psi``; every other precondition holds."""
    try:
        extract_quantifier(psi, name, Kind.EXISTS, (), TRUE, (), FreshGen())
    except PreconditionError as err:
        assert "inside a quantifier scope" in str(err), err
        return True
    return False


def _agree(phi, names=None):
    """The new walks match the references on ``phi``; the scope precondition
    is probed for ``names``, by default every name of ``phi``."""
    assert qdepth(phi) == reference_qdepth(phi)
    assert layer_counts(phi) == reference_layer_counts(phi)
    assert _binding_width(phi) == reference_binding_width(phi)
    for name in sorted(vars_of(phi)) if names is None else names:
        expected = not reference_not_in_quantifier_scope(phi, name)
        assert _scope_refused(phi, name) == expected, name


def _some_names(phi):
    """The first and last three names: outputs hold many, and each probe
    walks the whole formula."""
    names = sorted(vars_of(phi))
    return names[:3] + names[3:][-3:]


class TestScopes:
    def test_yields_blocks_and_names_above_each_node(self):
        phi = parse_formula("(exists x y . a & (forall z . z)) | ~(exists w . w)")
        seen = {(f.name if type(f) is Var else None, b, n) for f, b, n in scopes(phi)}
        assert {("a", 1, 2), ("z", 2, 3), ("w", 1, 1)} <= seen
        assert sorted((b, n) for f, b, n in scopes(phi) if type(f) is Quant) == [
            (0, 0), (0, 0), (1, 2)
        ]
        assert len(list(scopes(phi))) == 9

    def test_hand_cases(self):
        for text in ("p", "true", "exists x . x", "p & (forall y . y & p)",
                     "(exists x . (exists y . p) & x) & (forall z . z) & p"):
            _agree(parse_formula(text))
        _agree(Quant(Kind.EXISTS, (), Var("p")))
        _agree(Quant(Kind.EXISTS, (), App("true", ())))

    def test_golden_corpora_and_their_outputs(self):
        for problems in golden_corpora().values():
            for problem in problems:
                phi = problem.formula
                _agree(phi)
                for mode in MODES:
                    output = _transform(mode, phi)
                    _agree(output, _some_names(output))

    def test_criterion_4_inputs_and_sat_outputs(self):
        for problem in criterion_4_corpus()[:2000]:
            phi = problem.formula
            _agree(phi)
            output = prenex(Kind.EXISTS, phi, FreshGen.for_formula(phi))
            _agree(output, _some_names(output))

    def test_generated_name_inputs(self):
        inputs = generated_name_inputs()
        assert len(inputs) == 3000
        for phi, _ in inputs:
            _agree(phi)

    @pytest.mark.parametrize(
        "build, names",
        [
            (_imp_chain, ("p0", "p99999", "x")),
            (_and_chain, ("c0", "c1", "c99999", "y")),
            (quantifier_chain, ("x0", "x2", "z")),
        ],
        ids=["imp_chain_100k", "and_chain_100k", "quantifier_chain_100k"],
    )
    def test_deep_chains_at_default_recursion_limit(self, build, names):
        assert sys.getrecursionlimit() <= 1000
        _agree(build(100_000), names)


class TestLayerSweep:
    """``layer_counts`` and ``qdepth`` against their ``scopes`` definitions."""

    @staticmethod
    def _agree(phi):
        assert layer_counts(phi) == scopes_layer_counts(phi)
        assert qdepth(phi) == scopes_qdepth(phi) == len(layer_counts(phi))

    def test_hand_cases(self):
        assert layer_counts(parse_formula("p & q")) == []
        phi = parse_formula("(exists x . (forall y . y) & (exists z . x)) | (forall w . w)")
        assert layer_counts(phi) == [2, 2]
        assert layer_counts(Quant(Kind.EXISTS, (), Var("p"))) == [1]

    def test_nested_iff_family(self):
        for k in range(1, 9):
            phi = nested_iff_family(k)
            self._agree(phi)
            assert layer_counts(phi) == [1] * k

    def test_acceptance_corpus_and_sat_outputs(self):
        for problem in criterion_4_corpus():
            phi = problem.formula
            self._agree(phi)
        for problem in criterion_4_corpus()[:1000]:
            self._agree(prenex(Kind.EXISTS, problem.formula))

    def test_random_corpus_and_outputs(self):
        for problem in golden_corpora()["random200"]:
            phi = problem.formula
            self._agree(phi)
            for mode in MODES:
                self._agree(_transform(mode, phi))
