"""Local value assignments: the analytic obstruction and the brute force."""

import itertools
import math
from fractions import Fraction

import oracles
import pytest
from oracles import verify_witness

from ghzcert.errors import SearchBoundError
from ghzcert.lhv import (
    ConstraintSystem,
    SAT,
    UNSAT,
    _space_exceeds,
    analyze_lhv,
    brute_force_lhv,
    explain_parity,
    parity_unsat,
)
from ghzcert.spectral import select_ghz
from ghzcert.words import (
    PartySpec,
    ProofSet,
    TensorWord,
    build_proof_set,
    extend_even_set,
    generate_odd_set,
)

F = Fraction


def assignment_space(cs):
    return math.prod(len(d) for d in cs.domains)


def canonical_system(levels, rhs=None):
    spec = PartySpec(levels)
    ps = generate_odd_set(spec) if spec.n % 2 else extend_even_set(spec)
    if rhs is None:
        rhs = select_ghz(ps).eigen_tuple
    return ps, ConstraintSystem.build(ps, rhs)


def test_parity_unsat_canonical_m3():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    assert parity_unsat(cs)


def test_parity_not_applicable_for_positive_rhs():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(1)))
    assert not parity_unsat(cs)


def test_parity_unsat_even_extension():
    _, cs = canonical_system((3, 3, 3, 3))
    assert parity_unsat(cs)


def test_brute_force_m3_unsat_count():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    report = brute_force_lhv(cs)
    assert report.status == UNSAT
    assert report.assignments_checked == 729
    assert report.witness is None


def test_brute_force_m2_unsat_count():
    h = F(1, 8)
    _, cs = canonical_system((2, 2, 2), (h, h, h, -h))
    report = brute_force_lhv(cs)
    assert report.status == UNSAT
    assert report.assignments_checked == 64


def test_brute_force_sat_all_positive():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(1)))
    report = brute_force_lhv(cs)
    assert report.status == SAT
    assert verify_witness(cs, dict(report.witness))
    # all-ones also satisfies the system, even if it is not the first witness
    ones = {slot: F(1) for slot in cs.slots}
    assert verify_witness(cs, ones)


def test_brute_force_witness_is_lexicographically_first():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(1)))
    report = brute_force_lhv(cs)
    values = [v for _, v in report.witness]
    # the slot order is A1 B1 A2 B2 A3 B3 with domains ascending from -1
    assert values == [F(-1), F(-1), F(-1), F(-1), F(1), F(1)]


def test_sign_only_precheck_agrees():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    report = brute_force_lhv(cs, sign_only=True)
    assert report.status == UNSAT
    assert report.assignments_checked == 64
    assert report.sign_only


def test_search_bound_enforced():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    with pytest.raises(SearchBoundError):
        brute_force_lhv(cs, bound=100)


def test_analyze_runs_both_methods():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    report = analyze_lhv(cs)
    assert report.status == UNSAT
    assert report.method == "both"
    assert report.assignments_checked == 729


def test_analyze_falls_back_to_parity_past_bound():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    report = analyze_lhv(cs, bound=10)
    assert report.status == UNSAT
    assert report.method == "parity-analytic"
    assert report.assignments_checked == 0


@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_bound_verdict_at_and_beside_the_space(offset):
    # a bound below the 729 assignments gets the analytic verdict alone; at
    # or above them the search runs too
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    bound = assignment_space(cs) + offset
    assert _space_exceeds(cs.domains, bound) == (offset < 0)
    assert analyze_lhv(cs, bound).method == ("parity-analytic" if offset < 0 else "both")


def test_bound_verdict_on_a_space_of_thousands_of_digits():
    # 3 x12001 has 3**24002 assignments, 11,452 digits
    cs = ConstraintSystem.build(build_proof_set(PartySpec((3,) * 12001)), (1, 1, 1, -1))
    space = assignment_space(cs)
    assert _space_exceeds(cs.domains, space - 1) and not _space_exceeds(cs.domains, space)
    assert analyze_lhv(cs).method == "parity-analytic"


@pytest.mark.parametrize(
    "levels,expected_space",
    [((3, 3, 3), 729), ((2, 2, 2), 64), ((4, 4, 4), 4096),
     ((3, 3, 3, 3), 6561), ((3, 5, 3), 2025)],
)
def test_agreement_parity_and_brute_force(levels, expected_space):
    ps, cs = canonical_system(levels)
    assert assignment_space(cs) == expected_space
    assert parity_unsat(cs)
    assert brute_force_lhv(cs).status == UNSAT


@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_agreement_full_grid(n, m):
    # every canonical system in the n x m grid: the analytic obstruction
    # holds and enumeration confirms it
    _, cs = canonical_system((m,) * n)
    assert parity_unsat(cs)
    assert assignment_space(cs) == m ** (2 * n)
    assert brute_force_lhv(cs).status == UNSAT


def _flips(rhs):
    """``rhs`` and every copy of it with one entry's sign flipped."""
    yield tuple(rhs)
    for k in range(len(rhs)):
        yield tuple([-t if i == k else t for i, t in enumerate(rhs)])


@pytest.mark.parametrize("m", (2, 3, 4, 5))
@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_parity_flag_matches_the_slot_count_oracle(n, m):
    # the flag-based check agrees with counting slots down the plan, on the
    # canonical right-hand sides and on every single sign flip of them
    ps, cs = canonical_system((m,) * n)
    assert parity_unsat(cs) and oracles.parity_unsat(cs)
    for rhs in _flips(cs.rhs):
        flipped = ConstraintSystem.build(ps, rhs)
        assert parity_unsat(flipped) == oracles.parity_unsat(flipped)


def test_parity_flag_matches_the_oracle_on_a_zero_doubled_word():
    # the even plan counts its fifth word twice; a zero right-hand side there
    # zeroes the planned product, so neither check finds an obstruction
    ps, cs = canonical_system((3, 3, 3, 3))
    zeroed = ConstraintSystem.build(ps, cs.rhs[:4] + (0,))
    assert ps.product_plan == (0, 1, 2, 3, 4, 4)
    assert not parity_unsat(zeroed) and not oracles.parity_unsat(zeroed)
    assert brute_force_lhv(zeroed).status == UNSAT


def test_parity_flag_matches_the_oracle_on_every_short_plan():
    # plans that use a slot an odd number of times clear the flag; the
    # oracle must find the same verdict by counting
    spec = PartySpec((3, 3, 3))
    words = generate_odd_set(spec).words
    verdicts = set()
    for k in range(1, 6):
        for plan in itertools.combinations_with_replacement(range(4), k):
            ps = ProofSet(words, plan)
            for rhs in _flips((1, 1, 1, -1)):
                cs = ConstraintSystem.build(ps, rhs)
                verdicts.add(parity_unsat(cs))
                assert parity_unsat(cs) == oracles.parity_unsat(cs)
    assert verdicts == {True, False}


def test_monotone_impossibility():
    # appending a constraint that an all-diagonal word trivially satisfies
    # cannot turn an unsatisfiable system satisfiable
    spec = PartySpec((3, 3, 3))
    ps = generate_odd_set(spec)
    rhs = (F(1), F(1), F(1), F(-1))
    base = ConstraintSystem.build(ps, rhs)
    assert brute_force_lhv(base).status == UNSAT
    extended_words = ps.words + (TensorWord("AAA", spec),)
    extended = ProofSet(extended_words, ps.product_plan)
    achievable = F(1)  # product of the top eigenvalues 1 * 1 * 1
    cs2 = ConstraintSystem.build(extended, rhs + (achievable,))
    assert brute_force_lhv(cs2).status == UNSAT


def test_witness_round_trip_on_satisfiable_case():
    # right-hand sides 1/8 over the words' scale 8
    _, cs = canonical_system((2, 2, 2), (1, 1, 1, 1))
    report = brute_force_lhv(cs)
    assert report.status == SAT
    assert verify_witness(cs, dict(report.witness))


def test_zero_values_remain_in_domain():
    # odd levels keep 0 in the value domain; it is excluded by the nonzero
    # right-hand sides, not removed up front
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    assert all(F(0) in domain for domain in cs.domains)


def test_explanation_strings():
    _, cs = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(-1)))
    text = explain_parity(cs)
    assert "A1:2" in text and "B3:2" in text and "-1" in text
    _, cs_pos = canonical_system((3, 3, 3), (F(1), F(1), F(1), F(1)))
    assert explain_parity(cs_pos).startswith("no parity obstruction")
