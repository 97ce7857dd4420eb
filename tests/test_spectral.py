"""Spectra, definiteness, simultaneous eigenbases, and state selection."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import DenseMatrix, densify, mat_apply, mat_multiply, rational_spectrum
from ghzcert import spectral
from ghzcert.errors import NoGhzStateError, NonCommutingSetError
from ghzcert.exact import FactoredMonomial, count_signs, monomial_compose
from ghzcert.spectral import (
    INDEFINITE,
    NEGATIVE_DEFINITE,
    NEGATIVE_SEMIDEFINITE,
    POSITIVE_DEFINITE,
    Spectrum,
    is_eligible,
    select_ghz,
    simultaneous_eigenbasis,
    spectrum_of_factored,
    spectrum_of_monomial,
)
from ghzcert.siteops import check_anticommute, custom_site
from ghzcert.words import (
    PartySpec,
    ProofSet,
    TensorWord,
    build_proof_set,
    extend_even_set,
    generate_odd_set,
)

F = Fraction


def canonical(levels):
    spec = PartySpec(levels)
    return generate_odd_set(spec) if spec.n % 2 else extend_even_set(spec)


def moments_match(word, spectrum):
    """Moment oracle: the claimed multiset must reproduce tr(W^p) computed
    on the dense side for enough powers to pin the multiplicities."""
    dense = densify(word.realize())
    dim = dense.rows
    assert sum(m for _, m in spectrum.entries) == dim
    values = rational_spectrum(spectrum)
    power = DenseMatrix.identity(dim)
    for p in range(1, len(values) + 2):
        power = mat_multiply(power, dense)
        trace = sum(power.at(i, i) for i in range(dim))
        claimed = sum(m * v**p for v, m in values.items())
        if trace != claimed:
            return False
    return True


def test_spectrum_word_m3():
    ps = canonical((3, 3, 3))
    for word in ps.words:
        s = spectrum_of_factored(word.factored())
        assert rational_spectrum(s) == {F(-1): 4, F(0): 19, F(1): 4}
        assert moments_match(word, s)


def test_spectrum_word_m2_diagonal():
    # the all-diagonal word on three two-level parties: entries of the
    # triple tensor of diag(1/2, -1/2)
    spec = PartySpec((2, 2, 2))
    word = TensorWord("AAA", spec)
    s = spectrum_of_factored(word.factored())
    assert rational_spectrum(s) == {F(1, 8): 4, F(-1, 8): 4}
    assert moments_match(word, s)


@pytest.mark.parametrize("m,k", [(3, 19), (5, 61), (7, 127)])
def test_zero_count_law(m, k):
    # zero multiplicity k = 12 s^2 + 6 s + 1 at s = (m-1)/2, positive and
    # negative counts split the rest evenly
    s = (m - 1) // 2
    assert k == 12 * s * s + 6 * s + 1
    spec = PartySpec((m, m, m))
    word = TensorWord("ABB", spec)
    positive, negative, zero = count_signs(spectrum_of_factored(word.factored()).entries)
    assert zero == k
    assert positive == (m**3 - k) // 2
    assert negative == (m**3 - k) // 2
    # independent count: zero columns of the dense realization
    dense = densify(word.realize())
    zero_cols = sum(
        1 for j in range(m**3) if all(dense.at(i, j) == 0 for i in range(m**3))
    )
    assert zero_cols == k


@pytest.mark.parametrize("m", (3, 5, 7))
def test_plan_product_counts_odd_m(m):
    s = (m - 1) // 2
    k = 12 * s * s + 6 * s + 1
    ps = canonical((m, m, m))
    mats = [w.realize() for w in ps.words]
    product = monomial_compose([mats[i] for i in ps.product_plan])
    positive, negative, zero = count_signs(spectrum_of_monomial(product).entries)
    assert negative == m**3 - k
    assert zero == k
    assert positive == 0


def test_classify_m3_product():
    ps = canonical((3, 3, 3))
    mats = [w.realize() for w in ps.words]
    product = monomial_compose([mats[i] for i in ps.product_plan])
    assert spectrum_of_monomial(product).classify() == NEGATIVE_SEMIDEFINITE


@pytest.mark.parametrize("m", (2, 4))
def test_classify_even_m_product(m):
    ps = canonical((m, m, m))
    mats = [w.realize() for w in ps.words]
    product = monomial_compose([mats[i] for i in ps.product_plan])
    assert spectrum_of_monomial(product).classify() == NEGATIVE_DEFINITE
    # dense oracle: diagonal with strictly negative entries
    dense = densify(product)
    assert all(dense.at(i, i) < 0 for i in range(dense.rows))


def test_classify_single_word_indefinite():
    spec = PartySpec((2, 2, 2))
    word = TensorWord("ABB", spec)
    assert spectrum_of_monomial(word.realize()).classify() == INDEFINITE


def test_classify_positive_definite():
    spec = PartySpec((2, 2, 2))
    word = TensorWord("ABB", spec)
    square = monomial_compose([word.realize(), word.realize()])
    assert spectrum_of_monomial(square).classify() == POSITIVE_DEFINITE


def test_orbit_decomposition_partitions():
    spec = PartySpec((3, 3, 3))
    mats = [w.realize() for w in canonical((3, 3, 3)).words]
    targets = [m.target for m in mats]
    orbits = tuple(
        tuple([oracles.flat_index(spec.levels, x) for x in orbit])
        for orbit in spectral._orbit_walk(spec.levels, lambda x: (
            oracles.digits(spec.levels, t[oracles.flat_index(spec.levels, x)])
            for t in targets))
    )
    assert orbits == oracles.orbit_decomposition(27, targets)
    flat = sorted(i for orbit in orbits for i in orbit)
    assert flat == list(range(27))
    assert all(len(orbit) in (1, 2, 4) for orbit in orbits)


@pytest.mark.parametrize("m", (2, 3, 4))
def test_eigenbasis_complete_exact_orthogonal(m):
    ps = canonical((m, m, m))
    basis = oracles.flat_basis(simultaneous_eigenbasis(ps), (m, m, m))
    assert len(basis) == m**3
    dense = [densify(w.realize()) for w in ps.words]
    scales = [w.factored().scale for w in ps.words]
    for vec in basis:
        full = [F(0)] * (m**3)
        for idx, c in zip(vec.support, vec.coefficients):
            full[idx] = c
        for d, lam, s in zip(dense, vec.eigen_tuple, scales):
            image = mat_apply(d, full)
            assert list(image) == [F(lam, s) * x for x in full]
    # pairwise orthogonality under the exact dot product
    for u, v in itertools.combinations(basis, 2):
        uv = dict(zip(u.support, u.coefficients))
        dot = sum(uv.get(k, F(0)) * c for k, c in zip(v.support, v.coefficients))
        assert dot == 0


def test_eigenbasis_m3_eligibility_counts():
    ps = canonical((3, 3, 3))
    basis = simultaneous_eigenbasis(ps)
    eligible = [v for v in basis if is_eligible(v.eigen_tuple, ps.product_plan)]
    assert len(eligible) == 8
    for v in eligible:
        prod = F(1)
        for t in v.eigen_tuple:
            prod *= t
        assert prod == F(-1)


def test_eigenbasis_m2_all_eligible():
    ps = canonical((2, 2, 2))
    basis = simultaneous_eigenbasis(ps)
    assert all(is_eligible(v.eigen_tuple, ps.product_plan) for v in basis)


def test_eigenbasis_single_diagonal_word():
    spec = PartySpec((2, 2, 2))
    ps = ProofSet.assemble((TensorWord("AAA", spec),))
    basis = simultaneous_eigenbasis(ps)
    assert len(basis) == 8
    assert [v.support for v in basis] == [(oracles.digits((2, 2, 2), i),) for i in range(8)]


def test_commuting_site_pairs_rejected():
    # A = diag(1, 1) and B = antidiag(1, 1) commute, so the letter rule does
    # not hold for them
    pair = (custom_site("A", [1, 1]), custom_site("B", [1, 1]))
    pairs = (pair,) * 3
    ps = build_proof_set(PartySpec((2, 2, 2)))
    with pytest.raises(NonCommutingSetError):
        simultaneous_eigenbasis(ps, pairs)


def test_select_ghz_m3_reproduces_displayed_state():
    ps = canonical((3, 3, 3))
    state = select_ghz(ps, (F(1), F(1), F(1), F(-1)))
    assert state.support == (
        (0, 0, 2), (0, 2, 0), (2, 0, 0), (2, 2, 2)
    )
    assert state.coefficients == (F(1), F(1), F(1), F(-1))
    assert state.norm_sq == F(4)


def test_select_ghz_m2_two_level_analogue():
    ps = canonical((2, 2, 2))
    h = F(1, 8)
    state = select_ghz(ps, (h, h, h, -h))
    assert state.support == (
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)
    )
    assert state.coefficients == (F(1), F(1), F(1), F(-1))


def test_select_ghz_rejects_positive_tuple():
    ps = canonical((3, 3, 3))
    with pytest.raises(NoGhzStateError):
        select_ghz(ps, (F(1), F(1), F(1), F(1)))


def test_select_ghz_default_is_deterministic_and_eligible():
    ps = canonical((3, 3, 3))
    a = select_ghz(ps)
    b = select_ghz(ps)
    assert a == b
    assert is_eligible(a.eigen_tuple, ps.product_plan)


def test_select_ghz_even_extension():
    ps = canonical((3, 3, 3, 3))
    state = select_ghz(ps)
    assert all(t for t in state.eigen_tuple)
    prod = F(1)
    for i in ps.product_plan:
        prod *= state.eigen_tuple[i]
    assert prod < 0


def _fields(vec):
    return vec.support, vec.coefficients, vec.norm_sq, vec.eigen_tuple


def _orbits(ps):
    """The oracle's orbits, with each flat index mapped to its digit tuple."""
    mats = [w.realize() for w in ps.words]
    orbits = oracles.orbit_decomposition(mats[0].dim, [m.target for m in mats])
    return [tuple([oracles.digits(ps.parties.levels, x) for x in orbit]) for orbit in orbits]


SELECTION_GRID = [(m,) * n for n in (3, 4, 5) for m in (2, 3, 4)] + [(3,) * 7]


@pytest.mark.parametrize("levels", SELECTION_GRID, ids=str)
def test_select_ghz_is_first_eligible_of_full_basis(levels):
    ps = canonical(levels)
    expected = next(
        v for v in simultaneous_eigenbasis(ps)
        if is_eligible(v.eigen_tuple, ps.product_plan)
    )
    assert _fields(select_ghz(ps)) == _fields(expected)


# level lists with an eligible tuple that no vector of the first orbit carries
@pytest.mark.parametrize(
    "levels", [(2, 2, 2), (3, 3, 3), (4, 4, 4), (4, 4, 4, 4)], ids=str
)
def test_select_ghz_hint_from_later_orbit(levels):
    ps = canonical(levels)
    basis = simultaneous_eigenbasis(ps)
    first_orbit = set(_orbits(ps)[0])
    early = {v.eigen_tuple for v in basis if set(v.support) <= first_orbit}
    later = [
        v for v in basis
        if is_eligible(v.eigen_tuple, ps.product_plan) and v.eigen_tuple not in early
    ]
    expected = next(v for v in basis if v.eigen_tuple == later[-1].eigen_tuple)
    # the hint is in rationals, the eigen-tuple over the words' scales
    hint = tuple(F(t, w.factored().scale) for t, w in zip(expected.eigen_tuple, ps.words))
    assert _fields(select_ghz(ps, hint)) == _fields(expected)


def test_select_ghz_refines_only_the_first_orbit(monkeypatch):
    ps = canonical((3,) * 7)
    projected: set[tuple[int, ...]] = set()
    original = FactoredMonomial.entry

    def counting(op, j):
        projected.add(j)
        return original(op, j)

    monkeypatch.setattr(FactoredMonomial, "entry", counting)
    state = select_ghz(ps)
    first_orbit = _orbits(ps)[0]
    assert set(state.support) <= set(first_orbit)
    assert projected == set(first_orbit)


@st.composite
def permutation_sets(draw):
    dim = draw(st.integers(1, 40))
    targets = draw(st.lists(st.permutations(range(dim)), min_size=1, max_size=3))
    return dim, [tuple(t) for t in targets]


@given(permutation_sets())
def test_orbit_decomposition_matches_oracle(problem):
    dim, targets = problem
    # one site of ``dim`` levels, so a digit tuple holds the flat index
    orbits = spectral._orbit_walk((dim,), lambda x: ((t[x[0]],) for t in targets))
    assert (
        tuple(tuple([x for x, in orbit]) for orbit in orbits)
        == oracles.orbit_decomposition(dim, targets)
    )


def _matches_oracle(levels, pairs=None):
    """The closed-form basis equals the projector refinement of the oracle,
    vector for vector and in the same order."""
    spec = PartySpec(levels)
    ps = build_proof_set(spec)
    if pairs is None:
        pairs = spec.canonical_pairs()
    mats = [oracles.realize(w.letters, pairs, levels) for w in ps.words]
    return oracles.flat_basis(simultaneous_eigenbasis(ps, pairs), levels) == (
        oracles.simultaneous_eigenbasis(mats)
    )


def _level_lists(max_dim, mixed):
    """Every ordered level list of three or more parties with the given
    parity mix and at most ``max_dim`` composite dimension."""
    out = []
    for n in itertools.count(3):
        if 2**n > max_dim:
            return out
        for levels in itertools.product(range(2, max_dim // 2 ** (n - 1) + 1), repeat=n):
            dim = 1
            for m in levels:
                dim *= m
            if dim <= max_dim and (len({m % 2 for m in levels}) > 1) == mixed:
                out.append(levels)


@pytest.mark.parametrize(
    "levels", [(m,) * n for n in (3, 4, 5) for m in (2, 3, 4)], ids=str
)
def test_eigenbasis_matches_oracle_on_grid(levels):
    assert _matches_oracle(levels)


@pytest.mark.parametrize("levels", _level_lists(100, mixed=False), ids=str)
def test_eigenbasis_matches_oracle_same_parity(levels):
    assert _matches_oracle(levels)


@pytest.mark.parametrize("levels", _level_lists(64, mixed=True), ids=str)
def test_eigenbasis_matches_oracle_mixed_parity(levels):
    assert _matches_oracle(levels)


WEIGHTS = st.sampled_from(
    [F(0), F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-2, 3), F(5, 4)]
)


@st.composite
def anticommuting_pairs(draw, m):
    """A custom (A, B) pair on m levels: symmetric B weights, zeros allowed,
    and A weights tied by b_j (a_j + a_{m-1-j}) = 0, so they are free where
    B is zero and the squares of a word can vary along an orbit."""
    half = m // 2
    b_half = [draw(WEIGHTS) for _ in range(half)]
    center = [draw(WEIGHTS)] if m % 2 else []
    b = b_half + center + b_half[::-1]
    a = [F(0)] * m
    for j in range(half):
        a[j] = draw(WEIGHTS)
        a[m - 1 - j] = -a[j] if b[j] else draw(WEIGHTS)
    if m % 2 and not center[0]:
        a[half] = draw(WEIGHTS)
    return custom_site("A", a), custom_site("B", b)


@st.composite
def custom_systems(draw):
    levels = tuple(draw(st.lists(st.integers(2, 4), min_size=3, max_size=4)))
    pairs = tuple(draw(anticommuting_pairs(m)) for m in levels)
    return levels, pairs


@settings(max_examples=60)
@given(custom_systems())
def test_eigenbasis_matches_oracle_on_custom_pairs(problem):
    levels, pairs = problem
    assert all(check_anticommute(a, b) for a, b in pairs)
    assert _matches_oracle(levels, pairs)


def test_two_level_ten_party_basis_is_fast():
    ps = canonical((2,) * 10)
    started = time.monotonic()
    basis = simultaneous_eigenbasis(ps)
    assert time.monotonic() - started < 0.6
    assert len(basis) == 2**10


def test_spectrum_classify_spectrum_input():
    s = Spectrum(((-4, 5), (-2, 3)), 2)
    assert s.classify() == NEGATIVE_DEFINITE


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-8, 8), st.integers(0, 3), max_size=6),
    st.sampled_from((1, 2, 4)),
)
def test_classify_and_multiplicity_match_a_full_count(counts, scale):
    spectrum = Spectrum(tuple(sorted((v, m) for v, m in counts.items() if m)), scale)
    pos = sum(m for v, m in counts.items() if v > 0)
    neg = sum(m for v, m in counts.items() if v < 0)
    zero = counts.get(0, 0)
    if pos and neg:
        expected = INDEFINITE
    elif neg:
        expected = NEGATIVE_SEMIDEFINITE if zero else NEGATIVE_DEFINITE
    elif pos and not zero:
        expected = POSITIVE_DEFINITE
    else:
        expected = spectral.POSITIVE_SEMIDEFINITE
    assert spectrum.classify() == expected
    assert count_signs(spectrum.entries) == (pos, neg, zero)
    for value, m in counts.items():
        assert dict(spectrum.entries).get(value, 0) == m
