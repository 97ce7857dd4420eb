"""Certificate round-trips, tamper detection, and the GHZ criteria checker."""

import copy
import json
from fractions import Fraction

import pytest

from ghzcert.certificate import (
    StateVector,
    build_ghz_document,
    build_ks_document,
    check_ghz_criteria,
    dumps_document,
    load_document,
    save_document,
    verify_document,
    verify_ghz_document,
    verify_ks_document,
)
from ghzcert.errors import CertificateError
from ghzcert.exact import parse_rational, format_rational
from ghzcert.kochen_specker import FULL_SPECTRUM, SIGN_ONLY
from ghzcert.spectral import select_ghz
from ghzcert.words import PartySpec, extend_even_set, generate_odd_set

F = Fraction

ROUND_TRIP_SPECS = [
    (2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 3, 3, 3), (3, 3, 3, 3, 3), (3, 5, 3),
]


@pytest.fixture(scope="module")
def m3_doc():
    return build_ghz_document(PartySpec((3, 3, 3)))


@pytest.mark.parametrize("levels", ROUND_TRIP_SPECS)
def test_round_trip(levels, tmp_path):
    doc = build_ghz_document(PartySpec(levels))
    path = tmp_path / "cert.json"
    save_document(doc, str(path))
    loaded = load_document(str(path))
    ok, reason = verify_document(loaded)
    assert ok, reason


def test_determinism_byte_identical(m3_doc):
    again = build_ghz_document(PartySpec((3, 3, 3)))
    assert dumps_document(m3_doc) == dumps_document(again)


def test_document_contents_m3(m3_doc):
    assert m3_doc["words"] == ["ABB", "BAB", "BBA", "AAA"]
    assert m3_doc["product_plan"] == [0, 1, 2, 3]
    assert m3_doc["spectra"]["plan_product"] == {"-1": 8, "0": 19}
    assert m3_doc["lhv"]["status"] == "UNSAT"
    assert m3_doc["lhv"]["assignments_checked"] == 729
    assert m3_doc["parties"]["mixed_parity_experimental"] is False


def test_hinted_build_matches_displayed_state():
    doc = build_ghz_document(PartySpec((3, 3, 3)), (F(1), F(1), F(1), F(-1)))
    assert doc["eigen_tuple"] == ["1", "1", "1", "-1"]
    assert doc["state"]["support"] == [[0, 0, 2], [0, 2, 0], [2, 0, 0], [2, 2, 2]]
    assert doc["state"]["coefficients"] == ["1", "1", "1", "-1"]
    assert doc["state"]["norm_sq"] == "4"


def _verify_copy(doc, mutate):
    tampered = copy.deepcopy(doc)
    mutate(tampered)
    return verify_ghz_document(tampered)


def test_tamper_state_coefficient(m3_doc):
    ok, reason = _verify_copy(
        m3_doc, lambda d: d["state"]["coefficients"].__setitem__(0, "-1")
    )
    assert not ok
    assert reason == "eigenvector equation fails for word 1"


def test_tamper_every_rational_rejects(m3_doc):
    """Bumping any single rational in state, tuple, or weights must reject."""

    def bump(text):
        value = parse_rational(text)
        return format_rational(value + 1)

    mutations = []
    for i in range(len(m3_doc["state"]["coefficients"])):
        mutations.append(lambda d, i=i: d["state"]["coefficients"].__setitem__(
            i, bump(d["state"]["coefficients"][i])))
    mutations.append(lambda d: d["state"].__setitem__("norm_sq", bump(d["state"]["norm_sq"])))
    for i in range(len(m3_doc["eigen_tuple"])):
        mutations.append(lambda d, i=i: d["eigen_tuple"].__setitem__(
            i, bump(d["eigen_tuple"][i])))
    for p in range(3):
        for key in ("a_weights", "b_weights"):
            for i in range(3):
                mutations.append(lambda d, p=p, key=key, i=i: d["site_operators"][p][key].__setitem__(
                    i, bump(d["site_operators"][p][key][i])))
    for mutate in mutations:
        ok, _ = _verify_copy(m3_doc, mutate)
        assert not ok


def test_tamper_zero_eigenvalue(m3_doc):
    ok, reason = _verify_copy(
        m3_doc, lambda d: d["eigen_tuple"].__setitem__(0, "0")
    )
    assert not ok
    assert reason == "criterion III: zero eigenvalue"


def test_tamper_spectrum(m3_doc):
    def mutate(d):
        d["spectra"]["words"][0]["0"] = 18
        d["spectra"]["words"][0]["1"] = 5
    ok, reason = _verify_copy(m3_doc, mutate)
    assert not ok
    assert "spectrum" in reason


def test_tamper_lhv_count(m3_doc):
    ok, reason = _verify_copy(
        m3_doc, lambda d: d["lhv"].__setitem__("assignments_checked", 728)
    )
    assert not ok
    assert "LHV" in reason


def test_tamper_word_list(m3_doc):
    ok, _ = _verify_copy(m3_doc, lambda d: d["words"].__setitem__(3, "BBB"))
    assert not ok


def test_tamper_flags(m3_doc):
    ok, reason = _verify_copy(
        m3_doc,
        lambda d: d["requirement_flags"].__setitem__("even_slot_usage", False),
    )
    assert not ok
    assert "flags" in reason


def test_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "ghz-certificate",', encoding="utf-8")
    with pytest.raises(CertificateError) as err:
        load_document(str(path))
    assert "line" in str(err.value)


def test_missing_key_rejected(m3_doc):
    tampered = copy.deepcopy(m3_doc)
    del tampered["eigen_tuple"]
    ok, reason = verify_ghz_document(tampered)
    assert not ok
    assert "malformed" in reason


def _assert_malformed(doc):
    ok, reason = verify_document(doc)
    assert not ok
    assert reason.startswith("malformed certificate: ")


def test_missing_mixed_parity_marker_rejected(m3_doc):
    tampered = copy.deepcopy(m3_doc)
    del tampered["parties"]["mixed_parity_experimental"]
    _assert_malformed(tampered)


def test_ks_missing_observables_rejected():
    tampered = build_ks_document(2, SIGN_ONLY)
    del tampered["observables"]
    _assert_malformed(tampered)


def test_ks_structure_list_rejected():
    tampered = build_ks_document(2, SIGN_ONLY)
    tampered["structure"] = list(tampered["structure"].values())
    _assert_malformed(tampered)


@pytest.mark.parametrize("value", (True, 1.0))
def test_format_version_must_be_int(m3_doc, value):
    tampered = copy.deepcopy(m3_doc)
    tampered["format_version"] = value
    _assert_malformed(tampered)
    ks = build_ks_document(2, SIGN_ONLY)
    ks["format_version"] = value
    _assert_malformed(ks)


@pytest.mark.parametrize("levels", ([3.9, 3, 3], [3.0, 3, 3]))
def test_levels_must_be_int(m3_doc, levels):
    tampered = copy.deepcopy(m3_doc)
    tampered["parties"]["levels"] = levels
    _assert_malformed(tampered)


def test_unknown_kind_rejected(m3_doc):
    tampered = copy.deepcopy(m3_doc)
    tampered["kind"] = "something-else"
    ok, reason = verify_document(tampered)
    assert not ok


def test_atomic_save_leaves_no_temp(tmp_path, m3_doc):
    path = tmp_path / "cert.json"
    save_document(m3_doc, str(path))
    assert path.exists()
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("mode", (SIGN_ONLY, FULL_SPECTRUM))
def test_ks_round_trip(mode, tmp_path):
    doc = build_ks_document(2, mode)
    path = tmp_path / "ks.json"
    save_document(doc, str(path))
    ok, reason = verify_document(load_document(str(path)))
    assert ok, reason


def test_ks_tamper_rejects():
    doc = build_ks_document(2, SIGN_ONLY)
    tampered = copy.deepcopy(doc)
    tampered["search"]["patterns_checked"] = 1000
    ok, _ = verify_ks_document(tampered)
    assert not ok
    tampered = copy.deepcopy(doc)
    tampered["sign_targets"] = [1, 1, 1, 1, 1]
    ok, _ = verify_ks_document(tampered)
    assert not ok


def test_mixed_parity_certificate_marked():
    doc = build_ghz_document(PartySpec((2, 3, 2), allow_mixed_parity=True))
    assert doc["parties"]["mixed_parity_experimental"] is True
    ok, reason = verify_ghz_document(doc)
    assert ok, reason


# -- state vectors and criteria ----------------------------------------------


def w_state():
    return StateVector(
        (2, 2, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0)), (F(1), F(1), F(1)), F(3)
    )


def test_state_vector_validation():
    with pytest.raises(CertificateError):
        StateVector((2, 2, 2), ((0, 0, 2),), (F(1),), F(1))  # digit out of range
    with pytest.raises(CertificateError):
        StateVector((2, 2, 2), ((0, 0, 1),), (F(0),), F(0))  # zero coefficient
    with pytest.raises(CertificateError):
        StateVector((2, 2, 2), ((0, 0, 1),), (F(1),), F(2))  # wrong norm
    with pytest.raises(CertificateError):
        StateVector((2, 2, 2), ((0, 0, 1), (0, 0, 1)), (F(1), F(1)), F(2))  # dup


def test_state_vector_doc_round_trip():
    sv = w_state()
    again = StateVector.from_doc((2, 2, 2), sv.to_doc())
    assert again == sv


def test_criteria_rejects_w_state():
    pairs = PartySpec((2, 2, 2)).canonical_pairs()
    ok, reason = check_ghz_criteria(w_state(), pairs, ("ABB", "BAB", "BBA", "AAA"))
    assert not ok
    assert reason == "not an eigenvector of word ABB"


def test_criteria_accepts_constructed_analogue():
    spec = PartySpec((2, 2, 2))
    ps = generate_odd_set(spec)
    state = select_ghz(ps)
    sv = StateVector(
        spec.levels,
        tuple(spec.digits(i) for i in state.support),
        state.coefficients,
        state.norm_sq,
    )
    ok, reason = check_ghz_criteria(sv, spec.canonical_pairs(), ps.letter_words)
    assert ok, reason


def test_criteria_accepts_three_level_state():
    mu = StateVector(
        (3, 3, 3),
        ((0, 0, 2), (0, 2, 0), (2, 0, 0), (2, 2, 2)),
        (F(1), F(1), F(1), F(-1)),
        F(4),
    )
    pairs = PartySpec((3, 3, 3)).canonical_pairs()
    ok, reason = check_ghz_criteria(mu, pairs, ("ABB", "BAB", "BBA", "AAA"))
    assert ok, reason


def test_criteria_accepts_five_word_even_extension():
    spec = PartySpec((3, 3, 3, 3))
    ps = extend_even_set(spec)
    state = select_ghz(ps)
    sv = StateVector(
        spec.levels,
        tuple(spec.digits(i) for i in state.support),
        state.coefficients,
        state.norm_sq,
    )
    ok, reason = check_ghz_criteria(sv, spec.canonical_pairs(), ps.letter_words)
    assert ok, reason


def test_criteria_rejects_wrong_word_count():
    pairs = PartySpec((2, 2, 2)).canonical_pairs()
    ok, reason = check_ghz_criteria(w_state(), pairs, ("ABB", "BAB"))
    assert not ok
    assert "four or five" in reason


def test_criteria_rejects_non_anticommuting_pair():
    from ghzcert.siteops import custom_site

    pairs = (
        (custom_site("A", [1, 1]), custom_site("B", [1, 1])),
    ) + PartySpec((2, 2, 2)).canonical_pairs()[1:]
    spec = PartySpec((2, 2, 2))
    ps = generate_odd_set(spec)
    state = select_ghz(ps)
    sv = StateVector(
        spec.levels,
        tuple(spec.digits(i) for i in state.support),
        state.coefficients,
        state.norm_sq,
    )
    ok, reason = check_ghz_criteria(sv, pairs, ps.letter_words)
    assert not ok
    assert "criterion I" in reason


def test_criteria_custom_scaled_pair_still_ghz():
    # scaling both operators of the m=2 pair keeps every criterion intact
    from ghzcert.siteops import custom_site

    spec = PartySpec((2, 2, 2))
    scaled = tuple(
        (custom_site("A", [2 * w for w in a.weights]),
         custom_site("B", [2 * w for w in b.weights]))
        for a, b in spec.canonical_pairs()
    )
    ps = generate_odd_set(spec)
    state = select_ghz(ps, pairs=scaled)
    sv = StateVector(
        spec.levels,
        tuple(spec.digits(i) for i in state.support),
        state.coefficients,
        state.norm_sq,
    )
    ok, reason = check_ghz_criteria(sv, scaled, ps.letter_words)
    assert ok, reason


def test_json_is_sorted_and_newline_terminated(m3_doc):
    text = dumps_document(m3_doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == m3_doc
    assert list(parsed) == sorted(parsed)
