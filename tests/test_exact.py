"""Matrix kernel: dense oracle operations and the monomial representation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import (
    DenseMatrix,
    densify,
    mat_apply,
    mat_multiply,
    mat_tensor,
    monomial_equal,
    sparsify,
)

from ghzcert.errors import ShapeError
from ghzcert.exact import (
    FactoredMonomial,
    MonomialMatrix,
    format_integer,
    format_rational,
    monomial_compose,
    monomial_multiply,
    monomial_tensor,
    parse_rational,
)
from ghzcert.siteops import build_A, build_B, custom_site
from ghzcert.spectral import column_product


def _random_matrix(rng, rows, cols):
    return DenseMatrix(
        rows, cols,
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rows * cols)),
    )


def test_rational_round_trip():
    for text in ("0", "7", "-3", "1/2", "-5/8", "12/35"):
        assert format_rational(parse_rational(text)) == text


def test_format_integer_past_the_digit_limit(int_digit_limit):
    values = (0, -1, 2 ** 1999, -(2 ** 2000), 10 ** 5000, -(7 ** 3000))
    int_digit_limit(0)  # no limit, for the expected texts
    expected = [str(n) for n in values]
    fraction_text = str(10 ** 700) + "/3"
    int_digit_limit(640)
    assert [format_integer(n) for n in values] == expected
    assert format_rational(Fraction(10 ** 700, 3)) == fraction_text


def test_parse_rational_past_the_digit_limit(int_digit_limit):
    int_digit_limit(0)  # no limit, for the expected values
    texts = ("9" * 5000, "-" + "7" * 640, "1/" + "3" * 700, "-" + "8" * 639)
    expected = [Fraction(text) for text in texts]
    int_digit_limit(640)
    assert [parse_rational(text) for text in texts] == expected
    assert [format_rational(value) for value in expected] == list(texts)


def test_rational_parse_rejects_junk():
    for bad in ("", "1.5", "3/0", "1/-2", "a/b", "--1", "1 / 2",
                3, 1.5, None, True, ["1"]):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_multiply_identity():
    m = _random_matrix(random.Random(7), 3, 3)
    assert mat_multiply(DenseMatrix.identity(3), m) == m
    assert mat_multiply(m, DenseMatrix.identity(3)) == m


def test_multiply_site_operators_by_hand():
    # A(3) * B(3) has +1 in the top-right corner and -1 in the bottom-left,
    # and equals the negated reverse-order product
    a3 = densify(build_A(3))
    b3 = densify(build_B(3))
    ab = mat_multiply(a3, b3)
    assert ab == DenseMatrix.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    assert ab == -mat_multiply(b3, a3)


def test_multiply_b2_squared():
    b2 = densify(build_B(2))
    assert mat_multiply(b2, b2) == DenseMatrix.from_rows(
        [["1/4", 0], [0, "1/4"]]
    )


def test_multiply_shape_error():
    m = DenseMatrix.identity(3)
    n = DenseMatrix.identity(4)
    with pytest.raises(ShapeError):
        mat_multiply(m, n)


def test_multiply_associative_random():
    rng = random.Random(2024)
    for _ in range(12):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 2)
        c = _random_matrix(rng, 2, 5)
        assert mat_multiply(mat_multiply(a, b), c) == mat_multiply(a, mat_multiply(b, c))


def test_tensor_identities():
    assert mat_tensor(DenseMatrix.identity(2), DenseMatrix.identity(3)) == DenseMatrix.identity(6)


def test_tensor_diagonal():
    d = DenseMatrix.diagonal([Fraction(1), Fraction(0), Fraction(-1)])
    out = mat_tensor(d, d)
    expected = [1, 0, -1, 0, 0, 0, -1, 0, 1]
    got = [out.at(i, i) for i in range(9)]
    assert got == [Fraction(v) for v in expected]


def test_tensor_mixed_product_random():
    rng = random.Random(99)
    for _ in range(8):
        p = _random_matrix(rng, 2, 3)
        q = _random_matrix(rng, 3, 2)
        r = _random_matrix(rng, 3, 2)
        s = _random_matrix(rng, 2, 3)
        lhs = mat_multiply(mat_tensor(p, q), mat_tensor(r, s))
        rhs = mat_tensor(mat_multiply(p, r), mat_multiply(q, s))
        assert lhs == rhs


def test_tensor_row_major_convention():
    # composite index is j1 * dim2 + j2 with the left factor most significant
    a = DenseMatrix.diagonal([Fraction(2), Fraction(3)])
    b = DenseMatrix.diagonal([Fraction(5), Fraction(7), Fraction(11)])
    out = mat_tensor(a, b)
    assert [out.at(i, i) for i in range(6)] == [
        Fraction(v) for v in (10, 14, 22, 15, 21, 33)
    ]


def test_monomial_round_trip():
    for m in (build_A(4), build_B(4), build_A(5), build_B(5)):
        assert monomial_equal(sparsify(densify(m)), m)


def test_sparsify_rejects_non_monomial():
    with pytest.raises(ShapeError):
        sparsify(DenseMatrix.from_rows([[1, 1], [0, 1]]))


def test_monomial_involution_squared_is_diagonal():
    # applying a word twice scales each basis vector by w(j) * w(target(j))
    m = build_B(5)
    dense = densify(m)
    for j in range(5):
        e = [Fraction(0)] * 5
        e[j] = Fraction(1)
        twice = mat_apply(dense, mat_apply(dense, e))
        expected = [Fraction(0)] * 5
        expected[j] = m.weight[j] * m.weight[m.target[j]]
        assert list(twice) == expected


def test_monomial_multiply_matches_dense():
    a = build_A(4)
    b = build_B(4)
    prod = monomial_multiply(a, b)
    assert densify(prod) == mat_multiply(densify(a), densify(b))


def test_monomial_tensor_matches_dense():
    a = build_A(3)
    b = build_B(3)
    word = monomial_tensor(monomial_tensor(a, b), b)
    oracle = mat_tensor(mat_tensor(densify(a), densify(b)), densify(b))
    assert densify(word) == oracle


def test_compose_word_with_itself_is_diagonal():
    a = build_A(3)
    b = build_B(3)
    word = monomial_tensor(monomial_tensor(a, b), b)
    square = monomial_compose([word, word])
    assert square.target == tuple(range(square.dim))
    for j in range(27):
        assert square.weight[j] == word.weight[j] * word.weight[word.target[j]]


def test_compose_dimension_mismatch():
    with pytest.raises(ShapeError):
        monomial_compose([MonomialMatrix.identity(3), MonomialMatrix.identity(4)])


def test_compose_four_words_m3():
    # the diagonal product of the canonical three-party words: eight entries
    # equal to -1 and nineteen zeros
    a = build_A(3)
    b = build_B(3)
    site = {"A": a, "B": b}
    words = []
    for letters in ("ABB", "BAB", "BBA", "AAA"):
        mats = [site[c] for c in letters]
        words.append(monomial_tensor(monomial_tensor(mats[0], mats[1]), mats[2]))
    product = monomial_compose(words)
    assert product.target == tuple(range(product.dim))
    values = sorted(product.weight)
    assert values.count(Fraction(-1)) == 8
    assert values.count(Fraction(0)) == 19
    # cross-check against the dense oracle
    dense = densify(words[0])
    for w in words[1:]:
        dense = mat_multiply(dense, densify(w))
    assert dense == densify(product)


def test_compose_four_words_m2_all_negative():
    a = build_A(2)
    b = build_B(2)
    site = {"A": a, "B": b}
    words = []
    for letters in ("ABB", "BAB", "BBA", "AAA"):
        mats = [site[c] for c in letters]
        words.append(monomial_tensor(monomial_tensor(mats[0], mats[1]), mats[2]))
    product = monomial_compose(words)
    assert product.target == tuple(range(product.dim))
    assert all(w < 0 for w in product.weight)
    dense = densify(words[0])
    for w in words[1:]:
        dense = mat_multiply(dense, densify(w))
    assert dense == densify(product)


def test_mat_apply_matches_columns():
    m = _random_matrix(random.Random(5), 4, 4)
    for j in range(4):
        e = [Fraction(0)] * 4
        e[j] = Fraction(1)
        assert list(mat_apply(m, e)) == [m.at(i, j) for i in range(4)]


# -- the constructors' invariant ---------------------------------------------
# MonomialMatrix does not check its fields: every constructor builds a
# permutation of 0..dim-1 with one weight per column over a positive scale.


def _constructed(op):
    return (sorted(op.target) == list(range(op.dim)) and len(op.weight) == op.dim
            and op.scale >= 1)


@pytest.mark.parametrize("m", range(2, 65))
def test_constructors_build_a_permutation_over_a_positive_scale(m):
    a, b = build_A(m), build_B(m)
    ops = [
        MonomialMatrix.identity(m),
        MonomialMatrix.diagonal(a.weight, a.scale),
        MonomialMatrix.anti_diagonal(b.weight, b.scale),
        a,
        b,
        column_product((a, b), "ABBA"),
        column_product((a, b), "BIAAB"),
        monomial_multiply(a, b),
        monomial_compose([b, a, b]),
        monomial_tensor(a, b),
        FactoredMonomial((b, a)).expand(),
    ]
    assert all(map(_constructed, ops))


WEIGHT = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=6)


@given(st.sampled_from("AB"), st.lists(WEIGHT, min_size=2, max_size=8))
def test_custom_site_builds_a_permutation_over_a_positive_scale(kind, weights):
    if kind == "B":  # anti-diagonal weights are symmetric under row reversal
        weights = [weights[min(j, len(weights) - 1 - j)] for j in range(len(weights))]
    op = custom_site(kind, weights)
    assert _constructed(op)
    assert _constructed(FactoredMonomial((op, op)).expand())
