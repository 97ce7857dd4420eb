"""Canonical one-party operator pairs for both level parities."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import densify, mat_multiply, monomial_equal

from ghzcert.errors import InvalidLevelsError, ShapeError
from ghzcert.exact import count_signs, monomial_multiply
from ghzcert.siteops import (
    build_A,
    build_B,
    canonical_pair,
    check_anticommute,
    custom_site,
)


def F(x):
    return Fraction(x)


def rationals(op):
    """The operator's column weights as rationals."""
    return tuple(Fraction(w, op.scale) for w in op.weight)


def test_build_a_three_levels():
    assert (build_A(3).weight, build_A(3).scale) == ((1, 0, -1), 1)


def test_build_a_two_levels():
    assert (build_A(2).weight, build_A(2).scale) == ((1, -1), 2)
    assert rationals(build_A(2)) == (Fraction(1, 2), Fraction(-1, 2))


def test_build_a_five_levels():
    assert (build_A(5).weight, build_A(5).scale) == ((2, 1, 0, -1, -2), 1)


def test_build_b_three_levels():
    assert (build_B(3).weight, build_B(3).scale) == ((1, 0, 1), 1)


def test_build_b_four_levels():
    assert rationals(build_B(4)) == (
        Fraction(3, 2), Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)
    )
    assert build_B(4).scale == 2


def test_build_b_two_levels():
    assert (build_B(2).weight, build_B(2).scale) == ((1, 1), 2)


def test_invalid_levels():
    for m in (0, 1, -2):
        with pytest.raises(InvalidLevelsError):
            build_A(m)
        with pytest.raises(InvalidLevelsError):
            build_B(m)


@pytest.mark.parametrize("m", range(2, 65))
def test_canonical_pair_is_spin_z_and_x_on_extreme_levels(m):
    # canonical pairs anticommute by construction, so the pipeline checks
    # only pairs from outside; this pins the construction for every m. On
    # span{e_0, e_(m-1)} A(m) acts as s*Z and B(m) as s*X, s = (m-1)/2.
    a, b = canonical_pair(m)
    assert check_anticommute(a, b)
    s = Fraction(m - 1, 2)
    last = m - 1
    assert (a.target[0], a.target[last]) == (0, last)
    assert (b.target[0], b.target[last]) == (last, 0)
    assert (rationals(a)[0], rationals(a)[last]) == (s, -s)
    assert (rationals(b)[0], rationals(b)[last]) == (s, s)


@pytest.mark.parametrize("m", range(2, 65))
def test_anticommutation_all_levels(m):
    assert check_anticommute(build_A(m), build_B(m))
    # A^2 = B^2, so every KS side context multiplies out to one operator
    a, b = canonical_pair(m)
    assert monomial_equal(monomial_multiply(a, a), monomial_multiply(b, b))


def test_a_with_itself_does_not_anticommute():
    assert not check_anticommute(build_A(3), build_A(3))


def test_anticommute_dimension_mismatch():
    with pytest.raises(ShapeError):
        check_anticommute(build_A(3), build_B(4))


@pytest.mark.parametrize("m", range(2, 9))
def test_weight_symmetries(m):
    a = build_A(m)
    b = build_B(m)
    for j in range(m):
        assert a.weight[m - 1 - j] == -a.weight[j]
        assert b.weight[m - 1 - j] == b.weight[j]
        assert b.weight[j] == abs(a.weight[j])


@pytest.mark.parametrize("m", range(2, 9))
def test_spectra(m):
    s = Fraction(m - 1, 2)
    expected = sorted(s - j for j in range(m))
    for op in canonical_pair(m):
        counts = op.eigenvalue_counts
        assert [Fraction(v, op.scale) for v, k in counts for _ in range(k)] == expected
        assert (0 in dict(counts)) == (m % 2 == 1)
        # computed once per operator
        assert op.eigenvalue_counts is counts


@pytest.mark.parametrize("m", range(2, 7))
def test_a_eigenvalues_nondegenerate(m):
    weights = build_A(m).weight
    assert len(set(weights)) == m


@pytest.mark.parametrize("m", range(2, 9))
def test_b_spectrum_multiplicities(m):
    # each +-w pair contributes one eigenvalue of each sign; the odd-m
    # center row contributes a single zero
    from ghzcert.spectral import spectrum_of_monomial

    spect = spectrum_of_monomial(build_B(m))
    assert sum(k for _, k in spect.entries) == m
    for value, mult in spect.entries:
        assert mult == 1
    assert count_signs(spect.entries)[2] == (1 if m % 2 else 0)


def test_custom_pair_accepted():
    # a scaled copy of the canonical pair still anticommutes
    a = custom_site("A", [2, 0, -2])
    b = custom_site("B", [3, 0, 3])
    assert check_anticommute(a, b)


def test_custom_asymmetric_antidiagonal_rejected():
    with pytest.raises(ShapeError):
        custom_site("B", [1, 2])


@pytest.mark.parametrize(
    "kind, weights, error",
    (("A", [1], InvalidLevelsError), ("C", [1, -1], ValueError)),
    ids=("one-level", "unknown-kind"),
)
def test_custom_site_rejects(kind, weights, error):
    with pytest.raises(error) as caught:
        custom_site(kind, weights)
    assert type(caught.value) is error


def test_custom_non_anticommuting_pair_detected():
    a = custom_site("A", [1, 1])  # not antisymmetric
    b = custom_site("B", [1, 1])
    assert not check_anticommute(a, b)


def test_dense_forms():
    a = densify(build_A(3))
    assert [a.at(i, i) for i in range(3)] == [F(1), F(0), F(-1)]
    b = densify(build_B(3))
    assert [b.at(i, 2 - i) for i in range(3)] == [F(1), F(0), F(1)]
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    assert all(a.at(i, j) == 0 for i, j in off)
    assert all(b.at(i, j) == 0 for i, j in off if i + j != 2)


def test_anticommutator_is_zero_matrix():
    # AB + BA vanishes entrywise, not just up to sign patterns
    for m in (2, 3, 4, 5):
        a, b = densify(build_A(m)), densify(build_B(m))
        ab = mat_multiply(a, b)
        ba = mat_multiply(b, a)
        assert all(x + y == 0 for x, y in zip(ab.entries, ba.entries))


def dense_anticommute(a, b):
    da, db = densify(a), densify(b)
    return mat_multiply(da, db) == -mat_multiply(db, da)


@pytest.mark.parametrize("m", range(2, 13))
def test_anticommute_matches_dense_on_canonical_pairs(m):
    a, b = build_A(m), build_B(m)
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        assert check_anticommute(x, y) == dense_anticommute(x, y)


@st.composite
def site_operators(draw, m):
    kind = draw(st.sampled_from(("A", "B")))
    weight = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
    weights = draw(st.lists(weight, min_size=m, max_size=m))
    if kind == "B":
        weights = [weights[min(j, m - 1 - j)] for j in range(m)]
    return custom_site(kind, weights)


@st.composite
def operator_pairs(draw):
    m = draw(st.integers(2, 6))
    return draw(site_operators(m)), draw(site_operators(m))


@given(operator_pairs())
def test_anticommute_matches_dense_on_custom_pairs(pair):
    assert check_anticommute(*pair) == dense_anticommute(*pair)
