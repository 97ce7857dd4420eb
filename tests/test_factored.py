"""Factored operators against their expansions and the composite-dimension
oracles of ``tests/oracles.py``."""

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from test_spectral import anticommuting_pairs
from ghzcert import exact
from ghzcert import certificate, kochen_specker
from ghzcert.certificate import build_ghz_document, verify_document
from ghzcert.errors import ShapeError
from ghzcert.exact import (
    FactoredMonomial,
    MonomialMatrix,
    monomial_compose,
)
from ghzcert.kochen_specker import build_ks
from ghzcert.siteops import canonical_pair, check_anticommute, custom_site
from ghzcert.spectral import (
    column_product,
    kronecker_signs,
    plan_product,
    plan_product_signs,
    select_ghz,
    simultaneous_eigenbasis,
    spectrum_of_factored,
    spectrum_of_monomial,
)
from ghzcert.words import (
    LETTERS,
    PartySpec,
    TensorWord,
    build_proof_set,
    factor_letters,
    letters_commute,
)

F = Fraction

GRID = [(m,) * n for n in (3, 4, 5) for m in (2, 3, 4)] + [(3,) * 7, (12, 12, 12)]


@pytest.mark.parametrize("levels", GRID, ids=str)
def test_word_and_plan_spectra_match_expansion(levels):
    ps = build_proof_set(PartySpec(levels))
    ops = [w.factored() for w in ps.words]
    for word, op in zip(ps.words, ops):
        expanded = op.expand()
        assert expanded == oracles.realize(
            word.letters, ps.parties.canonical_pairs(), levels
        )
        assert spectrum_of_factored(op) == spectrum_of_monomial(expanded)
    product = oracles.factored_product([ops[i] for i in ps.product_plan])
    assert plan_product(ps, ps.parties.canonical_pairs()).factors == product.factors
    dense_product = monomial_compose([ops[i].expand() for i in ps.product_plan])
    assert oracles.monomial_equal(product.expand(), dense_product)
    assert spectrum_of_factored(product) == spectrum_of_monomial(dense_product)


@pytest.mark.parametrize("m", (2, 4, 6))
def test_ks_observables_match_oracle(m):
    cfg = build_ks(m)
    pairs = (cfg.pair,) * 3
    for obs in cfg.observables:
        factored = factor_letters(obs.letters, pairs, (m,) * 3)
        assert factored.expand() == oracles.realize(obs.letters, pairs, (m,) * 3)


@pytest.mark.parametrize(
    "levels", [(m,) * n for n in (3, 4) for m in (2, 3, 4)] + [(3,) * 5], ids=str
)
def test_eigenbasis_matches_oracle(levels):
    ps = build_proof_set(PartySpec(levels))
    assert oracles.flat_basis(simultaneous_eigenbasis(ps), levels) == (
        oracles.simultaneous_eigenbasis([w.realize() for w in ps.words])
    )


def _scaled(pairs, k):
    return tuple(
        (custom_site("A", [k * w for w in a.weight]), custom_site("B", [k * w for w in b.weight]))
        for a, b in pairs
    )


@pytest.mark.parametrize("scale", (1, 2), ids=("canonical", "scaled"))
def test_word_factors_are_the_site_operators(scale):
    # a word's site factors are the pair's own matrices, not copies
    spec = PartySpec((3, 3, 3))
    pairs = spec.canonical_pairs() if scale == 1 else _scaled(spec.canonical_pairs(), scale)
    for letters in ("ABB", "BAB", "BBA", "AAA", "BBB", "AAB"):
        factors = TensorWord(letters, spec).factored(pairs).factors
        for (a_op, b_op), letter, factor in zip(pairs, letters, factors):
            assert factor is (a_op if letter == "A" else b_op)
    cfg = build_ks(2)
    pairs = (cfg.pair,) * 3
    for obs in cfg.observables:
        factors = factor_letters(obs.letters, pairs, (2,) * 3).factors
        for (a_op, b_op), letter, factor in zip(pairs, obs.letters, factors):
            if letter != "I":
                assert factor is (a_op if letter == "A" else b_op)


def test_unsupported_site_factor_raises():
    three_cycle = MonomialMatrix(3, (1, 2, 0), (1,) * 3)
    op = FactoredMonomial((MonomialMatrix.identity(2), three_cycle))
    with pytest.raises(ShapeError):
        spectrum_of_factored(op)


def test_build_and_verify_never_expand_a_word(monkeypatch):
    calls = []
    tensor, realize = exact.monomial_tensor, TensorWord.realize

    def counting_tensor(a, b):
        calls.append("monomial_tensor")
        return tensor(a, b)

    def counting_realize(self, pairs=None):
        calls.append("realize")
        return realize(self, pairs)

    monkeypatch.setattr(exact, "monomial_tensor", counting_tensor)
    monkeypatch.setattr(TensorWord, "realize", counting_realize)
    doc = build_ghz_document(PartySpec((2,) * 11), bound=5000)
    assert verify_document(doc, 5000) == (True, "accept")
    assert calls == []


def test_only_context_products_multiply(monkeypatch):
    # the KS horizontal and side context products are the only products a
    # build forms, and each is read off site by site: no matrix product.
    # GHZ selection forms none; it reads its sign counts off without one.
    calls = []

    def counting(name, original):
        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    for module, name in ((kochen_specker, "context_product"),
                         (exact, "monomial_multiply"), (exact, "monomial_compose")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    build_ks(4)
    assert calls == ["context_product"] * 2
    calls.clear()
    select_ghz(build_proof_set(PartySpec((3, 3, 3))))
    assert calls == []


# -- properties --------------------------------------------------------------

# zero, negative and mixed-denominator values
RATIONALS = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3, 6)))


@st.composite
def site_pairs(draw, m):
    """A custom A/B pair on m levels; it need not anticommute."""
    a = draw(st.lists(RATIONALS, min_size=m, max_size=m))
    half = draw(st.lists(RATIONALS, min_size=(m + 1) // 2, max_size=(m + 1) // 2))
    b = half + half[: m // 2][::-1]
    return custom_site("A", a), custom_site("B", b)


@st.composite
def custom_systems(draw, max_parties=5):
    n = draw(st.integers(3, max_parties))
    levels = tuple(draw(st.lists(st.integers(2, 3), min_size=n, max_size=n)))
    pairs = tuple(draw(site_pairs(m)) for m in levels)
    return PartySpec(levels), pairs


@given(custom_systems(), st.data())
def test_custom_pair_spectra_match_expansion(system, data):
    spec, pairs = system
    letters = data.draw(st.text("AB", min_size=spec.n, max_size=spec.n))
    word = TensorWord(letters, spec)
    assert spectrum_of_factored(word.factored(pairs)) == spectrum_of_monomial(word.realize(pairs))
    ps = build_proof_set(spec)
    ops = [w.factored(pairs) for w in ps.words]
    product = oracles.factored_product([ops[i] for i in ps.product_plan])
    assert spectrum_of_factored(product) == spectrum_of_monomial(product.expand())


# A and B spectra differ: {3, 1, -1, -3} against {1, 1, -1, -1}
SPREAD_PAIR = (custom_site("A", [3, 1, -1, -3]), custom_site("B", [1, 1, 1, 1]))


@st.composite
def site_pair_pools(draw):
    """Parties drawn from a few pairs, so some share a pair and some share
    only a level count."""
    levels = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    pool = [SPREAD_PAIR] + [draw(anticommuting_pairs(m)) for m in levels]
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=3, max_size=5)))


@given(site_pair_pools(), st.data())
def test_grouped_word_spectra_match_each_word(pairs, data):
    levels = tuple([a.dim for a, _ in pairs])
    letter_words = data.draw(st.lists(
        st.text("AB", min_size=len(levels), max_size=len(levels)), min_size=1, max_size=6
    ))
    ops = [factor_letters(w, pairs, levels) for w in letter_words]
    grouped = certificate._word_signs(ops)
    assert grouped == [
        oracles.sign_counts_doc(oracles.kronecker_multiset(list(map(oracles.densify, op.factors))))
        for op in ops
    ]
    assert len({id(s) for s in grouped}) == len(grouped)


@settings(max_examples=10, deadline=None)
@given(st.lists(anticommuting_pairs(3), min_size=1, max_size=3), st.data())
def test_sign_counts_past_2_53_match_oracle(pool, data):
    # 61 three-level parties from a pool of custom pairs: the counts sum to
    # 3**61, past 2**53
    pairs = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=61, max_size=61)))
    ps = build_proof_set(PartySpec((3,) * 61))
    dense = [{"A": oracles.densify(a), "B": oracles.densify(b)} for a, b in pairs]
    word_signs = certificate._word_signs([w.factored(pairs) for w in ps.words])
    for word, signs in zip(ps.words, word_signs):
        assert signs == oracles.sign_counts_doc(
            oracles.kronecker_multiset([site[c] for site, c in zip(dense, word.letters)]))
    dense_product = [
        functools.reduce(oracles.mat_multiply, [site[ps.letter_words[i][party]]
                                                for i in ps.product_plan])
        for party, site in enumerate(dense)
    ]
    product = plan_product_signs(ps, pairs)
    assert product == kronecker_signs([f.sign_counts for f in plan_product(ps, pairs).factors])
    assert sum(product) == 3**61
    assert certificate._signs_to_doc(product) == oracles.sign_counts_doc(
        oracles.kronecker_multiset(dense_product))


@given(st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=1, max_size=3), st.data())
def test_grouped_kronecker_signs_match_the_one_site_fold(pool, data):
    # a few distinct site triples, repeated: each group folds in closed form
    site_signs = data.draw(st.lists(st.sampled_from(pool), max_size=120))
    assert kronecker_signs(site_signs) == oracles.fold_signs(site_signs)


@st.composite
def even_columns(draw):
    """A column in which A and B each occur an even number of times, between
    identity letters."""
    a_count = 2 * draw(st.integers(0, 3))
    b_count = 2 * draw(st.integers(0 if a_count else 1, 3))
    i_count = draw(st.integers(0, 2))
    return tuple(draw(st.permutations("A" * a_count + "B" * b_count + "I" * i_count)))


@settings(max_examples=300)
@given(
    st.one_of(st.integers(2, 6).flatmap(anticommuting_pairs),
              st.integers(2, 9).map(canonical_pair)),
    even_columns(),
)
def test_column_signs_match_dense_product(pair, column):
    # the per-site rule against the product multiplied out, both as a
    # monomial and as a dense matrix, with I the identity
    letter_ops = dict(zip(LETTERS, pair), I=MonomialMatrix.identity(pair[0].dim))
    product = monomial_compose(letter_ops[c] for c in column)
    assert column_product(pair, column) == product
    dense = functools.reduce(
        oracles.mat_multiply, [oracles.densify(letter_ops[c]) for c in column])
    assert certificate._signs_to_doc(column_product(pair, column).sign_counts) == (
        oracles.sign_counts_doc(oracles.dense_spectrum(dense)))


@given(st.lists(st.integers(2, 4), min_size=3, max_size=5).flatmap(
    lambda levels: st.tuples(*[anticommuting_pairs(m) for m in levels])))
def test_plan_product_signs_match_multiplied_product(pairs):
    ps = build_proof_set(PartySpec(tuple([a.dim for a, _ in pairs])))
    ops = [w.factored(pairs) for w in ps.words]
    product = oracles.factored_product([ops[i] for i in ps.product_plan])
    assert plan_product(ps, pairs).factors == product.factors
    signs = kronecker_signs([f.sign_counts for f in product.factors])
    assert plan_product_signs(ps, pairs) == signs


@given(st.lists(st.integers(2, 3), min_size=3, max_size=4), st.data())
def test_custom_pair_commutation_matches_oracle(levels, data):
    # one direction only: zero weights can make words commute that the
    # letter rule rejects
    spec = PartySpec(tuple(levels))
    pairs = tuple(data.draw(anticommuting_pairs(m)) for m in levels)
    assert all(check_anticommute(a, b) for a, b in pairs)
    letter_words = data.draw(
        st.lists(st.text("AB", min_size=spec.n, max_size=spec.n), min_size=2, max_size=3)
    )
    assume(all(
        letters_commute(x, y) for i, x in enumerate(letter_words)
        for y in letter_words[i + 1:]
    ))
    words = [TensorWord(w, spec) for w in letter_words]
    assert oracles.mutually_commuting([w.realize(pairs) for w in words])


# zero and negative weights over mixed scales
WEIGHTS = st.integers(-4, 4)


@st.composite
def site_matrices(draw, dim):
    target = tuple(draw(st.permutations(range(dim))))
    weights = tuple(draw(st.lists(WEIGHTS, min_size=dim, max_size=dim)))
    return MonomialMatrix(dim, target, weights, draw(st.sampled_from((1, 2, 3, 6))))


@st.composite
def factored_operators(draw):
    """A factored operator, one of whose factors may be zero."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    factors = [draw(site_matrices(d)) for d in dims]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(dims) - 1))
        target = tuple(draw(st.permutations(range(dims[k]))))
        factors[k] = MonomialMatrix(dims[k], target, (0,) * dims[k])
    return FactoredMonomial(tuple(factors))


@given(factored_operators(), st.data())
def test_apply_matches_expansion(x, data):
    vector = data.draw(
        st.dictionaries(st.integers(0, x.dim - 1), WEIGHTS, max_size=x.dim)
    )
    levels = x.levels
    flat = functools.partial(oracles.flat_index, levels)
    expanded = x.expand()
    image = x.apply({oracles.digits(levels, j): c for j, c in vector.items()})
    assert {flat(t): c for t, c in image.items()} == oracles.apply(expanded, vector)
    entries = [x.entry(oracles.digits(levels, j)) for j in range(x.dim)]
    assert [(flat(t), w) for t, w in entries] == list(zip(expanded.target, expanded.weight))
