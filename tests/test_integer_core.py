"""The integer core against the rational oracles.

Every scalar in the pipeline is an integer over a positive scale, and
rationals appear only where documents are read and written. Here the
spectra, sign counts, classifications, document strings and selected states of random
custom pairs are compared with dense ``Fraction`` matrices built by
``tests/oracles.py``, which share no arithmetic with the core.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import dense_spectrum, densify, mat_apply, mat_multiply, mat_tensor
from test_spectral import anticommuting_pairs
from ghzcert.certificate import _signs_to_doc, _spectrum_to_doc
from ghzcert.errors import NoGhzStateError
from ghzcert.exact import MonomialMatrix
from ghzcert.spectral import kronecker_signs, select_ghz, spectrum_of_factored
from ghzcert.words import PartySpec, build_proof_set


def rational_classification(counts: dict[Fraction, int]) -> str:
    pos = any(v > 0 for v in counts)
    neg = any(v < 0 for v in counts)
    zero = Fraction(0) in counts
    if pos and neg:
        return "indefinite"
    if neg:
        return "negative-semidefinite" if zero else "negative-definite"
    return "positive-semidefinite" if zero or not pos else "positive-definite"


def rational_doc(counts: dict[Fraction, int]) -> dict[str, int]:
    return {
        str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}": m
        for v, m in counts.items()
    }


def dense_word(letters: str, pairs) -> oracles.DenseMatrix:
    sites = [densify(a if c == "A" else b) for c, (a, b) in zip(letters, pairs)]
    out = sites[0]
    for site in sites[1:]:
        out = mat_tensor(out, site)
    return out


@st.composite
def custom_systems(draw):
    """3-5 parties with 2-6 levels (composite dimension at most 144) and a
    random anticommuting pair per party: zero, negative and mixed-denominator
    weights."""
    levels = tuple(draw(st.lists(st.integers(2, 6), min_size=3, max_size=5)))
    assume(prod(levels) <= 144)
    pairs = tuple(draw(anticommuting_pairs(m)) for m in levels)
    return levels, pairs


@settings(max_examples=40, deadline=None)
@given(custom_systems())
def test_integer_core_matches_rational_oracles_on_custom_pairs(problem):
    levels, pairs = problem
    ps = build_proof_set(PartySpec(levels))
    ops = [w.factored(pairs) for w in ps.words]
    dense = [dense_word(w.letters, pairs) for w in ps.words]
    plan_dense = dense[ps.product_plan[0]]
    for i in ps.product_plan[1:]:
        plan_dense = mat_multiply(plan_dense, dense[i])
    product = oracles.factored_product([ops[i] for i in ps.product_plan])
    for op, matrix in (*zip(ops, dense), (product, plan_dense)):
        spectrum = spectrum_of_factored(op)
        expected = dense_spectrum(matrix)
        assert oracles.rational_spectrum(spectrum) == expected
        assert spectrum.classify() == rational_classification(expected)
        assert _spectrum_to_doc(spectrum) == rational_doc(expected)
        signs = kronecker_signs([f.sign_counts for f in op.factors])
        assert _signs_to_doc(signs) == oracles.sign_counts_doc(expected)

    try:
        state = select_ghz(ps, None, ops)
    except NoGhzStateError:
        # then no joint eigenvector of the oracle's basis is eligible
        mats = [oracles.realize(w.letters, pairs, levels) for w in ps.words]
        for vec in oracles.simultaneous_eigenbasis(mats):
            t = vec.eigen_tuple
            assert not all(t) or prod(t[i] for i in ps.product_plan) > 0
        return
    full = [Fraction(0)] * prod(levels)
    for index, c in zip(state.support, state.coefficients):
        full[oracles.flat_index(levels, index)] = Fraction(c)
    eigenvalues = []
    for matrix, t, op in zip(dense, state.eigen_tuple, ops):
        lam = Fraction(t, op.scale)
        assert list(mat_apply(matrix, full)) == [lam * x for x in full]
        eigenvalues.append(lam)
    assert all(eigenvalues)
    assert prod(eigenvalues[i] for i in ps.product_plan) < 0


def test_spectrum_of_plan_product_constructs_no_fraction(monkeypatch):
    ps = build_proof_set(PartySpec((12, 12, 12)))
    ops = [w.factored() for w in ps.words]
    product = oracles.factored_product([ops[i] for i in ps.product_plan])
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    spectrum = spectrum_of_factored(product)
    monkeypatch.undo()
    assert made == []
    assert all(type(v) is int for v, _ in spectrum.entries)
    assert spectrum.classify() == "negative-definite"


@pytest.mark.parametrize("m", (2, 3, 4, 5))
def test_site_operators_are_integers_over_their_scale(m):
    ps = build_proof_set(PartySpec((m,) * 3))
    for a_op, b_op in ps.parties.canonical_pairs():
        for op in (a_op, b_op):
            assert isinstance(op, MonomialMatrix)
            assert op.scale == (1 if m % 2 else 2)
            assert all(type(w) is int for w in op.weight)
