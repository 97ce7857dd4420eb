"""The search kernel and its sign refutation against the brute-force oracles."""

import dataclasses
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from ghzcert import search
from ghzcert.certificate import build_ghz_document, build_ks_document, verify_document
from ghzcert.kochen_specker import FULL_SPECTRUM, SIGN_ONLY, build_ks, ks_color_search
from ghzcert.lhv import ConstraintSystem, brute_force_lhv
from ghzcert.search import Check, first_assignment, sign_refutation
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
    domains = [(0,), (1, 2, 3)]
    checks = [Check((0, 1), allowed=frozenset({0})), Check((1,), allowed=frozenset({3}))]
    assert agree(domains, checks) == (3, (0, 3))


def test_zero_partial_product_with_nonzero_target():
    domains = [(0, 1), (1, 2)]
    checks = [Check((0, 1), allowed=frozenset({2}))]
    assert agree(domains, checks) == (4, (1, 2))


def test_quotient_not_in_domain():
    domains = [(1, 2), (1, 3)]
    checks = [Check((0, 1), allowed=frozenset({4}))]
    assert agree(domains, checks) == (4, None)


def test_target_off_the_integer_scale():
    # values are integers over their scales, so no product meets a target
    # that is not an integer, whether a check lists it alone or with others
    domains = [(1, 2), (-2, 3)]
    assert agree(domains, [Check((0, 1), allowed=frozenset({F(1, 3)}))]) == (4, None)
    checks = [Check((0, 1), allowed=frozenset({F(1, 3), 6}))]
    assert agree(domains, checks) == (4, (2, 3))


def test_empty_domain_and_constant_checks():
    assert agree([(1,), ()], [Check((0,), allowed=frozenset({1}))]) == (0, None)
    assert agree([(1, 2)], [Check((), positive=False)]) == (2, None)
    assert agree([(2, 1)], [Check((), allowed=frozenset({1}))]) == (1, (2,))


# domain values are integers (over their scales); targets may also be off
# that scale
values = st.integers(-6, 6)


@st.composite
def problems(draw):
    domains = draw(
        st.lists(st.lists(values, min_size=1, max_size=4), min_size=1, max_size=5)
    )
    slots = st.lists(st.integers(0, len(domains) - 1), min_size=1, max_size=4)
    targets = st.one_of(values, st.sampled_from((0, F(7, 5), -11)))
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


# -- sign refutation ---------------------------------------------------------


@pytest.fixture
def kernel_spy(monkeypatch):
    """Record every refutation the kernel computes and every walk it runs."""
    seen = {"refutations": [], "walks": 0}
    refute, walk = search.sign_refutation, search._walk

    def spy_refute(domains, checks):
        refutation = refute(domains, checks)
        if refutation is not None:
            assert_refutes(domains, checks, refutation)
        seen["refutations"].append(refutation)
        return refutation

    def spy_walk(domains, checks):
        seen["walks"] += 1
        return walk(domains, checks)

    monkeypatch.setattr(search, "sign_refutation", spy_refute)
    monkeypatch.setattr(search, "_walk", spy_walk)
    return seen


def accepts(check, product):
    return (check.allowed is None or product in check.allowed) and (
        check.positive is None or (product > 0) == check.positive
    )


def assert_refutes(domains, checks, refutation):
    """Re-check a refutation from the definition of the checks.

    Either one check forbids a zero product while one of its slots can only
    be zero, or the listed checks each force a nonzero product of one sign,
    and multiplied together they use every slot of mixed sign an even number
    of times while their signs and the odd-used fixed-sign slots have odd
    parity: the product would be a positive square times -1.
    """
    listed = [checks[c] for c in refutation]
    assert refutation == tuple(sorted(set(refutation)))
    if len(listed) == 1 and any(not any(domains[k]) for k in listed[0].slots):
        assert not accepts(listed[0], 0)
        return
    parity = 0
    usage = Counter()
    for check in listed:
        usage.update(check.slots)
        if check.allowed is None:
            assert check.positive is not None
            allowed_signs = {check.positive}
        else:
            allowed_signs = {t > 0 for t in check.allowed if accepts(check, t)}
        nonzero_forced = not accepts(check, 0) or all(
            0 not in domains[k] for k in check.slots
        )
        assert nonzero_forced and len(allowed_signs) == 1
        parity ^= not allowed_signs.pop()
    for k, uses in usage.items():
        if uses % 2:
            signs = {v > 0 for v in domains[k] if v}
            assert len(signs) == 1, f"mixed-sign slot {k} used an odd number of times"
            parity ^= not signs.pop()
    assert parity == 1


def lhv_systems(n, m):
    cs = canonical_system((m,) * n)
    return [cs, *sign_flips(cs)]


@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_lhv_refutation_matches_oracle(n, m, kernel_spy):
    # the full-spectrum reports of the same systems are compared with the
    # oracle by test_lhv_grid_matches_oracle and test_lhv_sign_flips_match_oracle
    for index, cs in enumerate(lhv_systems(n, m)):
        sign_oracle = oracles.brute_force_lhv(cs, sign_only=True)
        for sign_only in (False, True):
            kernel_spy["refutations"].clear()
            kernel_spy["walks"] = 0
            report = brute_force_lhv(cs, sign_only=sign_only)
            if sign_only:
                assert report == sign_oracle
            [refutation] = kernel_spy["refutations"]
            # canonical pairs leave every slot of mixed sign, so the full
            # system has exactly the sign-only system's equations
            assert (refutation is not None) == (sign_oracle.status == "UNSAT")
            assert kernel_spy["walks"] == (refutation is None)
            if index == 0:
                assert refutation is not None


KS_TARGETS = [
    (-1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (-1, -1, 1, 1, 1), (1, 1, 1, 1, -1),
    (-1, 1, -1, 1, -1),
]


@pytest.mark.parametrize("mode", (SIGN_ONLY, FULL_SPECTRUM))
@pytest.mark.parametrize("m", (2, 4, 6))
def test_ks_refutation_matches_oracle(m, mode, kernel_spy):
    for targets in KS_TARGETS:
        kernel_spy["refutations"].clear()
        kernel_spy["walks"] = 0
        cfg = dataclasses.replace(build_ks(m), sign_targets=targets)
        assert ks_color_search(cfg, mode) == oracles.ks_color_search(cfg, mode)
        [refutation] = kernel_spy["refutations"]
        if mode == SIGN_ONLY:
            # every observable sits in two contexts: the signs fail exactly
            # when an odd number of targets is negative
            assert (refutation is not None) == (targets.count(-1) % 2 == 1)
        else:
            # composites stand for the product of their factors, so every
            # context's value product is a square: a negative target alone
            # refutes
            assert (refutation is not None) == (-1 in targets)
        assert kernel_spy["walks"] == (refutation is None)


signed_values = st.sampled_from((-4, -2, -1, 1, 3, 6))


@st.composite
def sign_problems(draw):
    """Domains that are zero-only, one-signed or mixed, with or without a
    zero, and checks over repeated slots of every kind."""
    shapes = st.sampled_from(("zero", "positive", "negative", "mixed", "mixed", "mixed"))
    domains = []
    for shape in draw(st.lists(shapes, min_size=1, max_size=5)):
        nonzero = draw(st.lists(signed_values, min_size=1, max_size=3, unique=True))
        if shape == "positive":
            nonzero = [abs(v) for v in nonzero]
        elif shape == "negative":
            nonzero = [-abs(v) for v in nonzero]
        elif shape == "mixed":
            nonzero = [abs(nonzero[0]), -abs(nonzero[-1])] + nonzero[1:-1]
        else:
            nonzero = []
        with_zero = shape == "zero" or draw(st.booleans())
        domains.append(tuple(dict.fromkeys([0] * with_zero + nonzero)))
    slots = st.lists(st.integers(0, len(domains) - 1), max_size=4)
    products = st.sampled_from((-1, 1, -2, 2, F(1, 2), 0, F(-3, 2)))
    checks = draw(
        st.lists(
            st.builds(
                Check,
                slots.map(tuple),
                st.one_of(st.none(), st.frozensets(products, min_size=1, max_size=2)),
                st.sampled_from((None, True, False)),
            ),
            max_size=6,
        )
    )
    if len(checks) >= 2:
        # a check over the joined slots of others, so that combinations of
        # several checks decide the sign system too
        indices = st.integers(0, len(checks) - 1)
        joined = draw(st.lists(indices, min_size=2, max_size=3, unique=True))
        slots = tuple(k for c in joined for k in checks[c].slots)
        checks.append(Check(slots, positive=draw(st.booleans())))
    return domains, checks


@given(sign_problems())
def test_refutation_is_sound_on_random_systems(problem):
    domains, checks = problem
    refutation = sign_refutation(domains, checks)
    expected = oracles.first_assignment(domains, checks)
    assert first_assignment(domains, checks) == expected
    if refutation is not None:
        assert expected[1] is None
        assert_refutes(domains, checks, refutation)


@given(sign_problems())
def test_refutation_is_complete_on_unit_signs(problem):
    # with every value a unit sign and every check sign-definite, the sign
    # system is the whole system: no refutation means a witness exists
    domains, checks = problem
    domains = [
        tuple(dict.fromkeys(1 if v > 0 else -1 for v in d if v)) or (1,)
        for d in domains
    ]
    checks = [
        Check(c.slots, allowed=frozenset({-1}), positive=None)
        if c.positive is False else Check(c.slots, positive=True)
        for c in checks
    ]
    refutation = sign_refutation(domains, checks)
    checked, witness = oracles.first_assignment(domains, checks)
    assert (refutation is None) == (witness is not None)


def test_refutation_examples():
    pm = (1, -1)
    # Mermin's parity argument: x1 y2 y3 = y1 x2 y3 = y1 y2 x3 = 1, x1 x2 x3 = -1
    checks = [
        Check((0, 3, 5), allowed=frozenset({1})),
        Check((1, 2, 5), allowed=frozenset({1})),
        Check((1, 3, 4), allowed=frozenset({1})),
        Check((0, 2, 4), allowed=frozenset({-1})),
    ]
    assert sign_refutation([pm] * 6, checks) == (0, 1, 2, 3)
    assert sign_refutation([pm] * 6, checks[:3]) is None
    # a slot that can only be zero refutes a check that forbids zero ...
    assert sign_refutation([pm, (0,)], [Check((0, 1), positive=True)]) == (0,)
    # ... but not one that a zero product meets
    assert sign_refutation([pm, (0,)], [Check((0, 1), positive=False)]) is None
    # a fixed-sign slot is a constant: x * (-2) > 0 and x > 0 contradict
    checks = [Check((0, 1), positive=True), Check((0,), positive=True)]
    assert sign_refutation([pm, (-2,)], checks) == (0, 1)
    # a zero in the domain makes "not positive" no sign constraint
    checks = [Check((0,), positive=True), Check((0,), positive=False)]
    assert sign_refutation([pm], checks) == (0, 1)
    assert sign_refutation([pm + (0,)], checks) is None
    # a square is never negative
    assert sign_refutation([pm], [Check((0, 0), allowed=frozenset({-1}))]) == (0,)


def test_unsat_build_and_verify_never_walk(monkeypatch):
    def no_walk(domains, checks):
        raise AssertionError("the search walked an unsatisfiable system")

    monkeypatch.setattr(search, "_walk", no_walk)
    doc = build_ghz_document(PartySpec((3, 3, 3)))
    assert doc["lhv"]["status"] == "UNSAT"
    assert doc["lhv"]["assignments_checked"] == 729
    assert verify_document(doc) == (True, "accept")
    for mode in (SIGN_ONLY, FULL_SPECTRUM):
        assert verify_document(build_ks_document(4, mode)) == (True, "accept")


def test_large_ks_full_spectrum_verifies_quickly():
    doc = build_ks_document(60)
    doc["search"]["mode"] = FULL_SPECTRUM
    doc["search"]["patterns_checked"] = 60**6
    started = time.monotonic()
    assert verify_document(doc) == (True, "accept")
    assert time.monotonic() - started < 5.0


def test_default_bound_two_level_13_parties_builds_quickly():
    started = time.monotonic()
    doc = build_ghz_document(PartySpec((2,) * 13))
    assert time.monotonic() - started < 2.0
    assert doc["lhv"]["method"] == "both"
    assert doc["lhv"]["assignments_checked"] == 2**26
