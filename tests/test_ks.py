"""The ten-observable noncontextuality configuration and its searches."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from oracles import densify, mat_multiply, monomial_equal, realized, shared_side_product

from ghzcert.errors import ParityError
from ghzcert.exact import count_signs, monomial_compose
from ghzcert.kochen_specker import (
    FULL_SPECTRUM,
    KS_SAT,
    KS_UNSAT,
    SIGN_ONLY,
    build_ks,
    ks_color_search,
    render_contexts,
)
from ghzcert.spectral import NEGATIVE_DEFINITE, POSITIVE_DEFINITE, spectrum_of_monomial

F = Fraction


def test_build_rejects_odd_levels():
    with pytest.raises(ParityError):
        build_ks(3)
    with pytest.raises(ParityError):
        build_ks(5)
    with pytest.raises(ParityError):
        build_ks(1)


@pytest.mark.parametrize("m", (2, 4))
def test_structure(m):
    cfg = build_ks(m)
    assert len(cfg.observables) == 10
    assert len(cfg.contexts) == 5
    assert cfg.sign_targets == (-1, 1, 1, 1, 1)
    appearances = [0] * 10
    for ctx in cfg.contexts:
        for i in ctx:
            appearances[i] += 1
    assert appearances == [2] * 10


@pytest.mark.parametrize("m", (2, 4))
def test_context_commutation_dense_oracle(m):
    cfg = build_ks(m)
    mats = [densify(mat) for mat in realized(cfg)]
    for ctx in cfg.contexts:
        for i, j in itertools.combinations(ctx, 2):
            assert mat_multiply(mats[i], mats[j]) == mat_multiply(mats[j], mats[i])


@pytest.mark.parametrize("m", (2, 4, 6))
def test_context_products(m):
    # the configuration's spectra, read off site by site, against the
    # contexts multiplied out
    cfg = build_ks(m)
    mats = realized(cfg)
    horizontal = monomial_compose([mats[i] for i in cfg.contexts[0]])
    assert cfg.horizontal_spectrum == spectrum_of_monomial(horizontal)
    assert spectrum_of_monomial(horizontal).classify() == NEGATIVE_DEFINITE
    side = shared_side_product(cfg)
    assert cfg.side_spectrum == spectrum_of_monomial(side)
    assert spectrum_of_monomial(side).classify() == POSITIVE_DEFINITE
    for ctx in cfg.contexts[1:]:
        assert monomial_equal(monomial_compose([mats[i] for i in ctx]), side)


def test_side_product_m2_is_scaled_identity():
    # for two levels every squared site weight is 1/4, so the shared side
    # product is the identity scaled by 1/64
    cfg = build_ks(2)
    side = shared_side_product(cfg)
    assert side.target == tuple(range(side.dim))
    assert all(F(w, side.scale) == F(1, 64) for w in side.weight)


@pytest.mark.parametrize("m", (2, 4))
def test_sign_only_unsat(m):
    report = ks_color_search(build_ks(m), SIGN_ONLY)
    assert report.status == KS_UNSAT
    assert report.patterns_checked == 1024
    assert report.witness is None


@pytest.mark.parametrize("m", (2, 4))
def test_full_spectrum_unsat(m):
    report = ks_color_search(build_ks(m), FULL_SPECTRUM)
    assert report.status == KS_UNSAT
    assert report.patterns_checked == m**6


def test_flipped_targets_admit_all_positive_witness():
    cfg = build_ks(2)
    flipped = dataclasses.replace(cfg, sign_targets=(1, 1, 1, 1, 1))
    report = ks_color_search(flipped, SIGN_ONLY)
    assert report.status == KS_SAT
    assert all(v > 0 for _, v in report.witness)


def test_parity_identity_over_contexts():
    # each observable appears in two contexts, so the product of all five
    # context products is a square for any nonzero sign assignment, while
    # the targets multiply to -1: the analytic form of the search result
    cfg = build_ks(2)
    target_product = 1
    for t in cfg.sign_targets:
        target_product *= t
    assert target_product == -1
    for signs in [(1,) * 10, (-1,) * 10, (1, -1) * 5]:
        prod = 1
        for ctx in cfg.contexts:
            for i in ctx:
                prod *= signs[i]
        assert prod == 1


def test_horizontal_spectrum_all_negative():
    for m in (2, 4):
        positive, negative, zero = count_signs(build_ks(m).horizontal_spectrum.entries)
        assert positive == 0
        assert zero == 0
        assert negative == m**3


def test_render_contexts():
    text = render_contexts(build_ks(2))
    lines = text.split("\n")
    assert len(lines) == 5
    assert lines[0] == "ABB, BAB, BBA, AAA  (value product must be negative)"
    assert all("must be positive" in line for line in lines[1:])


def test_search_state_independent():
    # the report depends only on the level count
    a = ks_color_search(build_ks(2), SIGN_ONLY)
    b = ks_color_search(build_ks(2), SIGN_ONLY)
    assert a == b


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        ks_color_search(build_ks(2), "free-form")
