"""Acceptance suite: one test per criterion, one pass/fail line each.

Every check is exact rational arithmetic; the only tolerances are the
stated wall-clock ceilings. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines inline).
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from oracles import (
    densify,
    exhaustive_no_4set,
    flat_basis,
    mat_apply,
    mat_multiply,
    rational_spectrum,
    realized,
    shared_side_product,
    verify_witness,
)

from ghzcert.certificate import (
    StateVector,
    build_ghz_document,
    check_ghz_criteria,
    dumps_document,
    load_document,
    save_document,
    verify_document,
    verify_ghz_document,
)
from ghzcert.exact import count_signs, monomial_compose
from ghzcert.kochen_specker import (
    FULL_SPECTRUM,
    KS_UNSAT,
    SIGN_ONLY,
    build_ks,
    ks_color_search,
)
from ghzcert.lhv import ConstraintSystem, SAT, UNSAT, brute_force_lhv, parity_unsat
from ghzcert.siteops import build_A, build_B
from ghzcert.spectral import (
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    is_eligible,
    select_ghz,
    simultaneous_eigenbasis,
    spectrum_of_factored,
    spectrum_of_monomial,
)
from ghzcert.words import (
    PartySpec,
    TensorWord,
    extend_even_set,
    generate_odd_set,
    letters_commute,
)

F = Fraction


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:>2} PASS: {description} ({elapsed:.2f}s)")


def canonical(levels):
    spec = PartySpec(levels)
    return generate_odd_set(spec) if spec.n % 2 else extend_even_set(spec)


def plan_product(ps):
    mats = [w.realize() for w in ps.words]
    return monomial_compose([mats[i] for i in ps.product_plan])


def test_criterion_01_anticommutation():
    with criterion(1, "A(m) and B(m) anticommute exactly for m = 2..8"):
        started = time.monotonic()
        for m in range(2, 9):
            a = densify(build_A(m))
            b = densify(build_B(m))
            assert mat_multiply(a, b) == -mat_multiply(b, a)
        assert time.monotonic() - started < 1.0


def test_criterion_02_three_level_spectra():
    with criterion(2, "m=3 words have spectrum {-1:4, 0:19, +1:4}; plan product {-1:8, 0:19}"):
        started = time.monotonic()
        ps = canonical((3, 3, 3))
        for word in ps.words:
            spectrum = spectrum_of_factored(word.factored())
            assert rational_spectrum(spectrum) == {F(-1): 4, F(0): 19, F(1): 4}
        product_spectrum = spectrum_of_monomial(plan_product(ps))
        assert rational_spectrum(product_spectrum) == {F(-1): 8, F(0): 19}
        assert time.monotonic() - started < 1.0


def test_criterion_03_zero_count_formula():
    with criterion(3, "zero counts 12s^2+6s+1 and split counts for m = 3, 5, 7"):
        started = time.monotonic()
        for m, k in ((3, 19), (5, 61), (7, 127)):
            s = (m - 1) // 2
            assert k == 12 * s * s + 6 * s + 1
            ps = canonical((m, m, m))
            for word in ps.words:
                positive, _, zero = count_signs(spectrum_of_factored(word.factored()).entries)
                assert zero == k
                assert positive == (m**3 - k) // 2
            _, negative, zero = count_signs(spectrum_of_monomial(plan_product(ps)).entries)
            assert negative == m**3 - k
            assert zero == k
        assert time.monotonic() - started < 5.0


def test_criterion_04_displayed_eigenvector():
    with criterion(4, "hinted selection reproduces the displayed three-level state"):
        ps = canonical((3, 3, 3))
        state = select_ghz(ps, (F(1), F(1), F(1), F(-1)))
        assert state.support == (
            (0, 0, 2), (0, 2, 0), (2, 0, 0), (2, 2, 2)
        )
        assert state.coefficients == (F(1), F(1), F(1), F(-1))
        assert state.norm_sq == F(4)


def test_criterion_05_even_levels_definite():
    with criterion(5, "even m: plan product negative-definite, every eigenvector eligible"):
        for m in (2, 4):
            ps = canonical((m, m, m))
            assert spectrum_of_monomial(plan_product(ps)).classify() == NEGATIVE_DEFINITE
            basis = simultaneous_eigenbasis(ps)
            assert len(basis) == m**3
            assert all(is_eligible(v.eigen_tuple, ps.product_plan) for v in basis)


@pytest.mark.parametrize(
    "levels,space",
    [((2, 2, 2), 64), ((3, 3, 3), 729), ((4, 4, 4), 4096),
     ((3, 3, 3, 3, 3), 59049), ((3, 3, 3, 3), 6561)],
    ids=["m2", "m3", "m4", "n5", "n4-plan-of-six"],
)
def test_criterion_06_lhv_impossibility(levels, space):
    label = "x".join(str(m) for m in levels)
    with criterion(6, f"LHV impossible for {label}: {space} assignments, both methods"):
        started = time.monotonic()
        ps = canonical(levels)
        state = select_ghz(ps)
        cs = ConstraintSystem.build(ps, state.eigen_tuple)
        assert math.prod(len(d) for d in cs.domains) == space
        assert parity_unsat(cs)
        report = brute_force_lhv(cs)
        assert report.status == UNSAT
        assert report.assignments_checked == space
        assert time.monotonic() - started < 10.0


def test_criterion_07_sat_control():
    with criterion(7, "achievable all-positive system is SAT with a checkable witness"):
        ps = canonical((3, 3, 3))
        cs = ConstraintSystem.build(ps, (F(1), F(1), F(1), F(1)))
        report = brute_force_lhv(cs)
        assert report.status == SAT
        assert verify_witness(cs, dict(report.witness))
        ps2 = canonical((2, 2, 2))
        # right-hand sides 1/8 over the words' scale 8
        cs2 = ConstraintSystem.build(ps2, (1, 1, 1, 1))
        report2 = brute_force_lhv(cs2)
        assert report2.status == SAT
        assert verify_witness(cs2, dict(report2.witness))


def test_criterion_08_no_four_word_set_for_four_parties():
    with criterion(8, "no four-word set satisfies all requirements at n=4"):
        started = time.monotonic()
        assert exhaustive_no_4set(PartySpec((3, 3, 3, 3))) is True
        assert exhaustive_no_4set(PartySpec((3, 3, 3))) is False
        assert time.monotonic() - started < 10.0


@pytest.mark.parametrize("m", (2, 4))
def test_criterion_09_ks_certification(m):
    with criterion(9, f"noncontextuality configuration at m={m}: structure and UNSAT"):
        started = time.monotonic()
        cfg = build_ks(m)  # the fixed structure is pinned by test_ks.py and test_siteops.py
        mats = realized(cfg)
        horizontal = monomial_compose([mats[i] for i in cfg.contexts[0]])
        assert spectrum_of_monomial(horizontal).classify() == NEGATIVE_DEFINITE
        side = shared_side_product(cfg)
        assert spectrum_of_monomial(side).classify() == POSITIVE_DEFINITE
        sign_report = ks_color_search(cfg, SIGN_ONLY)
        assert sign_report.status == KS_UNSAT
        assert sign_report.patterns_checked == 1024
        full_report = ks_color_search(cfg, FULL_SPECTRUM)
        assert full_report.status == KS_UNSAT
        assert full_report.patterns_checked == m**6
        assert time.monotonic() - started < 30.0


def test_criterion_10_w_state_rejected_analogue_accepted():
    with criterion(10, "three-qubit W state rejected; constructed analogue accepted"):
        pairs = PartySpec((2, 2, 2)).canonical_pairs()
        w = StateVector(
            (2, 2, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0)), (F(1), F(1), F(1)), F(3)
        )
        ok, reason = check_ghz_criteria(w, pairs, ("ABB", "BAB", "BBA", "AAA"))
        assert not ok
        assert "not an eigenvector" in reason
        ps = canonical((2, 2, 2))
        state = select_ghz(ps)
        analogue = StateVector(
            ps.parties.levels, state.support, state.coefficients, state.norm_sq
        )
        ok, reason = check_ghz_criteria(analogue, pairs, ps.letter_words)
        assert ok, reason


def test_criterion_11a_commutation_oracle_sweep():
    with criterion(11, "letter rule matches the dense commutator for n <= 4, m <= 4"):
        for n in (3, 4):
            for m in (2, 3, 4):
                spec = PartySpec((m,) * n)
                all_words = ["".join(c) for c in itertools.product("AB", repeat=n)]
                dense = {w: densify(TensorWord(w, spec).realize()) for w in all_words}
                for x, y in itertools.combinations(all_words, 2):
                    lhs = mat_multiply(dense[x], dense[y])
                    rhs = mat_multiply(dense[y], dense[x])
                    assert letters_commute(x, y) == (lhs == rhs)


def test_criterion_11b_eigenbasis_completeness():
    with criterion(11, "eigenbasis complete, exact, and orthogonal for n=3, m in {2,3,4}"):
        for m in (2, 3, 4):
            ps = canonical((m, m, m))
            basis = flat_basis(simultaneous_eigenbasis(ps), (m, m, m))
            assert len(basis) == m**3
            dense = [densify(w.realize()) for w in ps.words]
            scales = [w.factored().scale for w in ps.words]
            vectors = []
            for vec in basis:
                full = [F(0)] * (m**3)
                for idx, c in zip(vec.support, vec.coefficients):
                    full[idx] = c
                vectors.append(full)
                for d, lam, s in zip(dense, vec.eigen_tuple, scales):
                    assert list(mat_apply(d, full)) == [F(lam, s) * x for x in full]
            for u, v in itertools.combinations(vectors, 2):
                assert sum(a * b for a, b in zip(u, v)) == 0


def test_criterion_11c_certificate_round_trip_and_tamper(tmp_path):
    with criterion(11, "certificate round-trip accepts and single-value tampering rejects"):
        for levels in ((2, 2, 2), (3, 3, 3), (3, 3, 3, 3), (3, 5, 3)):
            doc = build_ghz_document(PartySpec(levels))
            path = tmp_path / ("-".join(map(str, levels)) + ".json")
            save_document(doc, str(path))
            ok, reason = verify_document(load_document(str(path)))
            assert ok, reason
        doc = build_ghz_document(PartySpec((3, 3, 3)))
        assert dumps_document(doc) == dumps_document(build_ghz_document(PartySpec((3, 3, 3))))
        import copy

        tampered = copy.deepcopy(doc)
        tampered["state"]["coefficients"][0] = "2"
        ok, _ = verify_ghz_document(tampered)
        assert not ok
        tampered = copy.deepcopy(doc)
        tampered["eigen_tuple"][3] = "0"
        ok, reason = verify_ghz_document(tampered)
        assert not ok and reason == "criterion III: zero eigenvalue"
        tampered = copy.deepcopy(doc)
        tampered["site_operators"][0]["a_weights"][0] = "2"
        ok, _ = verify_ghz_document(tampered)
        assert not ok
