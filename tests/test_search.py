"""The exhaustive search kernel against the brute-force oracles."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ghzcert.kochen_specker import FULL_SPECTRUM, SIGN_ONLY, build_ks, ks_color_search
from ghzcert.lhv import ConstraintSystem, brute_force_lhv
from ghzcert.search import Check, first_assignment
from ghzcert.spectral import select_ghz
from ghzcert.words import PartySpec, extend_even_set, generate_odd_set

F = Fraction


def canonical_system(levels):
    spec = PartySpec(levels)
    ps = generate_odd_set(spec) if spec.n % 2 else extend_even_set(spec)
    return ConstraintSystem.build(ps, select_ghz(ps).eigen_tuple)


def sign_flips(cs):
    for j in range(len(cs.rhs)):
        rhs = tuple(-t if k == j else t for k, t in enumerate(cs.rhs))
        yield dataclasses.replace(cs, rhs=rhs)


@pytest.mark.parametrize("sign_only", (False, True))
@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_lhv_grid_matches_oracle(n, m, sign_only):
    cs = canonical_system((m,) * n)
    report = brute_force_lhv(cs, sign_only=sign_only)
    assert report == oracles.brute_force_lhv(cs, sign_only=sign_only)


@pytest.mark.parametrize("sign_only", (False, True))
@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_lhv_sign_flips_match_oracle(n, m, sign_only):
    statuses = set()
    for cs in sign_flips(canonical_system((m,) * n)):
        report = brute_force_lhv(cs, sign_only=sign_only)
        assert report == oracles.brute_force_lhv(cs, sign_only=sign_only)
        statuses.add(report.status)
    assert "SAT" in statuses


@pytest.mark.parametrize("mode", (SIGN_ONLY, FULL_SPECTRUM))
@pytest.mark.parametrize("m", (2, 4, 6))
def test_ks_matches_oracle(m, mode):
    cfg = build_ks(m)
    assert ks_color_search(cfg, mode) == oracles.ks_color_search(cfg, mode)


@pytest.mark.parametrize("mode", (SIGN_ONLY, FULL_SPECTRUM))
@pytest.mark.parametrize("m", (2, 4))
@pytest.mark.parametrize(
    "targets", [(1, 1, 1, 1, 1), (-1, -1, 1, 1, 1), (1, 1, 1, 1, -1), (-1, 1, -1, 1, -1)]
)
def test_ks_flipped_targets_match_oracle(m, mode, targets):
    cfg = dataclasses.replace(build_ks(m), sign_targets=targets)
    assert ks_color_search(cfg, mode) == oracles.ks_color_search(cfg, mode)


def agree(domains, checks):
    result = first_assignment(domains, checks)
    assert result == oracles.first_assignment(domains, checks)
    return result


def test_zero_partial_product_with_zero_target():
    # slot 0 is zero, so the first check holds for every value of slot 1
    # and only the second check decides
    domains = [(F(0),), (F(1), F(2), F(3))]
    checks = [Check((0, 1), allowed=frozenset({0})), Check((1,), allowed=frozenset({3}))]
    assert agree(domains, checks) == (3, (0, 3))


def test_zero_partial_product_with_nonzero_target():
    domains = [(F(0), F(1)), (F(1), F(2))]
    checks = [Check((0, 1), allowed=frozenset({2}))]
    assert agree(domains, checks) == (4, (1, 2))


def test_quotient_not_in_domain():
    domains = [(F(1), F(2)), (F(1), F(3))]
    checks = [Check((0, 1), allowed=frozenset({4}))]
    assert agree(domains, checks) == (4, None)


def test_target_off_the_integer_scale():
    domains = [(F(1, 2), F(1)), (F(-1), F(3, 2))]
    checks = [Check((0, 1), allowed=frozenset({F(1, 3)}))]
    assert agree(domains, checks) == (4, None)


def test_empty_domain_and_constant_checks():
    assert agree([(F(1),), ()], [Check((0,), allowed=frozenset({1}))]) == (0, None)
    assert agree([(F(1), F(2))], [Check((), positive=False)]) == (2, None)
    assert agree([(F(2), F(1))], [Check((), allowed=frozenset({1}))]) == (1, (2,))


values = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3, 4, 6))
)


@st.composite
def problems(draw):
    domains = draw(
        st.lists(st.lists(values, min_size=1, max_size=4), min_size=1, max_size=5)
    )
    slots = st.lists(st.integers(0, len(domains) - 1), min_size=1, max_size=4)
    targets = st.one_of(values, st.sampled_from((F(0), F(7, 5), F(-11))))
    checks = draw(
        st.lists(
            st.builds(
                Check,
                slots.map(tuple),
                st.one_of(st.none(), st.frozensets(targets, min_size=1, max_size=3)),
                st.sampled_from((None, True, False)),
            ),
            max_size=4,
        )
    )
    return [tuple(d) for d in domains], checks


@given(problems())
def test_kernel_matches_oracle(problem):
    agree(*problem)
