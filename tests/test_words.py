"""Word combinatorics: commutation, requirement flags, set generation."""

import itertools
import time
from fractions import Fraction

import oracles
import pytest
from oracles import densify, exhaustive_no_4set, mat_multiply
from hypothesis import example, given, settings, strategies as st

from ghzcert import words
from ghzcert.certificate import build_ghz_document
from ghzcert.errors import (
    InvalidLevelsError,
    ParityError,
    PartyMismatchError,
    SearchBoundError,
)
from ghzcert.words import (
    PartySpec,
    ProofSet,
    TensorWord,
    build_proof_set,
    extend_even_set,
    generate_odd_set,
    letters_commute,
    plan_product_sign,
)


def make_words(spec, *letters):
    return tuple(TensorWord(w, spec) for w in letters)


def test_party_spec_validation():
    with pytest.raises(InvalidLevelsError):
        PartySpec((3, 3))
    with pytest.raises(InvalidLevelsError):
        PartySpec((3, 1, 3))
    # any mix of level counts and parities is fine
    PartySpec((3, 5, 3))
    PartySpec((2, 3, 2))


@pytest.mark.parametrize(
    "levels", ((3.9, 3, 3), (3.0, 3, 3), ("3", "3", "3"), (3, 3, Fraction(3))), ids=repr
)
def test_party_spec_levels_must_be_int(levels):
    with pytest.raises(InvalidLevelsError):
        PartySpec(levels)


def test_flat_index_round_trip():
    levels = (3, 5, 3)
    indices = [oracles.digits(levels, flat) for flat in range(45)]
    assert indices == list(itertools.product(range(3), range(5), range(3)))
    assert [oracles.flat_index(levels, x) for x in indices] == list(range(45))


def test_commute_even_distance():
    spec = PartySpec((3, 3, 3))
    u, v, w = make_words(spec, "ABB", "AAA", "BBB")
    assert letters_commute(u.letters, v.letters)  # distance 2
    assert not letters_commute(u.letters, w.letters)  # distance 1


def test_commute_party_mismatch():
    u = TensorWord("ABB", PartySpec((3, 3, 3)))
    v = TensorWord("ABB", PartySpec((5, 5, 5)))
    with pytest.raises(PartyMismatchError):
        ProofSet.assemble((u, v))


def test_commute_five_party_pair():
    spec = PartySpec((3, 3, 3, 3, 3))
    u, v = make_words(spec, "ABBBB", "AAABB")
    assert letters_commute(u.letters, v.letters)


@pytest.mark.parametrize("m", (2, 3))
@pytest.mark.parametrize("n", (3, 4))
def test_commute_matches_dense_commutator(n, m):
    # the even-distance rule must agree with the exact matrix commutator
    spec = PartySpec((m,) * n)
    all_words = ["".join(c) for c in itertools.product("AB", repeat=n)]
    dense = {w: densify(TensorWord(w, spec).realize()) for w in all_words}
    for x, y in itertools.combinations(all_words, 2):
        lhs = mat_multiply(dense[x], dense[y])
        rhs = mat_multiply(dense[y], dense[x])
        assert letters_commute(x, y) == (lhs == rhs)


def test_flags_canonical_three_party_set():
    spec = PartySpec((3, 3, 3))
    ps = ProofSet.assemble(make_words(spec, "ABB", "BAB", "BBA", "AAA"))
    assert all(ps.requirement_flags.values())


def test_flags_five_party_display_set():
    spec = PartySpec((3, 3, 3, 3, 3))
    ps = ProofSet.assemble(make_words(spec, "ABBBB", "AAABB", "BBAAA", "BABAA"))
    assert all(ps.requirement_flags.values())


def test_flags_four_party_without_coverage():
    # the fourth party never sees letter A, so the nontriviality flag fails
    spec = PartySpec((3, 3, 3, 3))
    ps = ProofSet.assemble(make_words(spec, "ABBB", "BABB", "BBAB", "AAAB"))
    flags = ps.requirement_flags
    assert not flags["both_letters_per_party"]
    assert flags["equal_a_parity"] and flags["unique_count_outlier"] and flags["even_slot_usage"]


def test_assemble_checks_the_plan_once(monkeypatch):
    calls = []
    original = words._check_plan

    def counted(*args):
        calls.append(args)
        original(*args)

    monkeypatch.setattr(words, "_check_plan", counted)
    spec = PartySpec((3, 3, 3))
    letters = make_words(spec, "ABB", "BAB", "BBA", "AAA")
    assert all(ProofSet.assemble(letters).requirement_flags.values())
    assert calls == [(4, (0, 1, 2, 3))]
    with pytest.raises(ValueError, match="product plan references a word outside the set"):
        ProofSet.assemble(letters, (0, 1, 2, 4))
    assert len(calls) == 2


def test_non_commuting_set_rejected():
    spec = PartySpec((3, 3, 3))
    with pytest.raises(ValueError):
        ProofSet.assemble(make_words(spec, "ABB", "BBB"))


def test_generate_three_party():
    ps = generate_odd_set(PartySpec((3, 3, 3)))
    assert ps.letter_words == ("ABB", "BAB", "BBA", "AAA")
    assert ps.product_plan == (0, 1, 2, 3)
    assert all(ps.requirement_flags.values())
    assert ps.product_sign() == -1


def test_generate_matches_independent_enumeration():
    # re-derive the winner with a separate, unoptimized implementation of
    # the four requirements over all 4-subsets of the 8 possible words
    def naive_flags(combo):
        counts = [w.count("A") for w in combo]
        if len({c % 2 for c in counts}) != 1:
            return False
        tally = {}
        for c in counts:
            tally[c] = tally.get(c, 0) + 1
        if sorted(tally.values()) != [1, 3]:
            return False
        for p in range(3):
            column = [w[p] for w in combo]
            if column.count("A") % 2 or column.count("B") % 2:
                return False
            if "A" not in column or "B" not in column:
                return False
        return True

    words = ["".join(c) for c in itertools.product("AB", repeat=3)]
    winners = [c for c in itertools.combinations(words, 4) if naive_flags(c)]
    assert winners[0] == ("AAA", "ABB", "BAB", "BBA")
    assert set(generate_odd_set(PartySpec((3, 3, 3))).letter_words) == set(winners[0])


def test_generate_deterministic():
    a = generate_odd_set(PartySpec((3, 3, 3, 3, 3)))
    b = generate_odd_set(PartySpec((3, 3, 3, 3, 3)))
    assert a.letter_words == b.letter_words


def test_generate_five_party():
    ps = generate_odd_set(PartySpec((3, 3, 3, 3, 3)))
    assert all(ps.requirement_flags.values())
    assert ps.product_sign() == -1
    assert len(ps.words) == 4
    # outlier word sits last
    counts = [w.a_count for w in ps.words]
    assert counts.count(counts[-1]) == 1


def test_generate_rejects_even_party_count():
    with pytest.raises(ParityError):
        generate_odd_set(PartySpec((3, 3, 3, 3)))


def test_extend_four_party():
    ps = extend_even_set(PartySpec((3, 3, 3, 3)))
    assert ps.letter_words == ("ABBB", "BABB", "BBAB", "AAAB", "BBBA")
    assert ps.product_plan == (0, 1, 2, 3, 4, 4)
    assert all(ps.requirement_flags.values())
    assert ps.product_sign() == -1
    for u, v in itertools.combinations(ps.letter_words, 2):
        assert letters_commute(u, v)


def test_extend_six_party():
    ps = extend_even_set(PartySpec((3,) * 6))
    assert len(ps.words) == 5
    assert len(ps.words[0].letters) == 6
    assert ps.product_plan == (0, 1, 2, 3, 4, 4)
    assert all(ps.requirement_flags.values())
    assert ps.product_sign() == -1


def test_extend_rejects_odd_party_count():
    with pytest.raises(ParityError):
        extend_even_set(PartySpec((3, 3, 3)))


def test_plan_slot_usage_even_for_generated_sets():
    # the precondition of the parity argument: counted through the plan,
    # every used slot has even multiplicity
    for spec in (PartySpec((3, 3, 3)), PartySpec((3, 3, 3, 3)), PartySpec((3,) * 5)):
        ps = generate_odd_set(spec) if spec.n % 2 else extend_even_set(spec)
        plan_words = [ps.letter_words[i] for i in ps.product_plan]
        for party in range(spec.n):
            for letter in "AB":
                used = sum(1 for w in plan_words if w[party] == letter)
                assert used % 2 == 0


def test_no_four_word_set_for_four_parties():
    assert exhaustive_no_4set(PartySpec((3, 3, 3, 3))) is True


def test_three_parties_have_a_four_word_set():
    assert exhaustive_no_4set(PartySpec((3, 3, 3))) is False


def test_no_4set_search_bound():
    with pytest.raises(SearchBoundError):
        exhaustive_no_4set(PartySpec((3,) * 6))


def test_plan_product_sign_order_independent():
    letters = ("ABB", "BAB", "BBA", "AAA")
    base = plan_product_sign(letters, (0, 1, 2, 3))
    for perm in itertools.permutations(range(4)):
        assert plan_product_sign(letters, perm) == base


@pytest.mark.parametrize("n", range(3, 11))
def test_construction_matches_oracle_search(n):
    # the count-vector construction and the closed-form fifth word return
    # the very set the exponential word-set searches select
    spec = PartySpec((2,) * n)
    expected = oracles.build_proof_set(spec)
    ps = build_proof_set(spec)
    assert ps.letter_words == expected.letter_words
    assert ps.product_plan == expected.product_plan


@given(st.integers(min_value=1, max_value=20), st.booleans())
@example(20, False)
@example(20, True)
def test_constructed_sets_are_proof_sets(half, even):
    n = 2 * half + 1 + even  # odd n up to 41, even n up to 42
    ps = build_proof_set(PartySpec((2,) * n))
    assert all(ps.requirement_flags.values())
    assert ps.product_sign() == -1
    assert len(set(ps.letter_words)) == len(ps.words) == 4 + even
    # the outlying A count sits on the last of the four base words; an even
    # set's fifth word carries the common count
    counts = [w.a_count for w in ps.words[:4]]
    assert counts.count(counts[-1]) == 1


def test_closed_form_matches_split_search_to_101_parties():
    # every odd n up to 101 against the search over all column splits
    for n in range(3, 102, 2):
        spec = PartySpec((2,) * n)
        expected = oracles.split_search_odd_set(spec)
        assert generate_odd_set(spec).letter_words == expected.letter_words, n


@settings(max_examples=4)
@given(st.integers(min_value=51, max_value=100))
def test_closed_form_matches_split_search_beyond_101_parties(half):
    # the split search takes up to 0.5 s per n here (2 vCPUs), so few draws
    spec = PartySpec((3,) * (2 * half + 1))
    expected = oracles.split_search_odd_set(spec)
    assert generate_odd_set(spec).letter_words == expected.letter_words


@given(st.integers(min_value=1, max_value=500))
@example(500)
def test_closed_form_is_a_proof_set_to_1001_parties(half):
    ps = generate_odd_set(PartySpec((2,) * (2 * half + 1)))
    assert all(ps.requirement_flags.values())
    assert ps.product_sign() == -1
    counts = [w.a_count for w in ps.words]
    assert counts.count(counts[-1]) == 1


def test_thousand_and_one_parties_build_quickly():
    # the proof set is built in O(n), so a whole certificate takes well
    # under half a second
    start = time.perf_counter()
    doc = build_ghz_document(PartySpec((3,) * 1001))
    assert time.perf_counter() - start < 0.5
    assert len(doc["words"]) == 4


def test_thirteen_parties_build_quickly():
    start = time.perf_counter()
    ps = build_proof_set(PartySpec((2,) * 13))
    assert time.perf_counter() - start < 1.0
    assert len(ps.words) == 4 and all(ps.requirement_flags.values())
