"""Certificate round-trips, tamper detection, and the GHZ criteria checker."""

import copy
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert m3_doc["spectra"]["plan_product"] == {
        "classification": "negative-semidefinite", "negative": "8", "positive": "0", "zero": "19"
    }
    assert m3_doc["lhv"]["status"] == "UNSAT"
    assert m3_doc["lhv"]["assignments_checked"] == 729
    assert m3_doc["parties"] == {"levels": [3, 3, 3]}


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
        d["spectra"]["words"][0]["zero"] = "18"
        d["spectra"]["words"][0]["positive"] = "5"
    assert _verify_copy(m3_doc, mutate) == (
        False, "stored spectra.words[0].positive does not match re-derivation"
    )


def test_tamper_lhv_count(m3_doc):
    assert _verify_copy(
        m3_doc, lambda d: d["lhv"].__setitem__("assignments_checked", 728)
    ) == (False, "stored lhv.assignments_checked does not match re-derivation")


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


@pytest.mark.parametrize(
    "field, weights, reason",
    (
        ("a_weights", ["1"], "level count must be at least 2, got 1"),
        ("b_weights", ["1", "0", "2"],
         "anti-diagonal weights must be symmetric under row reversal"),
    ),
    ids=("one-level", "asymmetric-b"),
)
def test_bad_site_weights_rejected(m3_doc, field, weights, reason):
    tampered = copy.deepcopy(m3_doc)
    tampered["site_operators"][1][field] = weights
    assert verify_document(tampered) == (False, f"malformed certificate: {reason}")


def test_negative_stored_bound_rejected(m3_doc):
    tampered = copy.deepcopy(m3_doc)
    tampered["lhv"]["bound"] = -1
    assert verify_document(tampered) == (
        False, "malformed certificate: bound must be non-negative, got -1"
    )


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


NON_STRING_RATIONALS = (1, -1, 0.5, True, None, ["1"], {"1": 1})
GHZ_RATIONAL_FIELDS = {
    "a_weight": lambda d, v: d["site_operators"][0]["a_weights"].__setitem__(0, v),
    "b_weight": lambda d, v: d["site_operators"][2]["b_weights"].__setitem__(1, v),
    "eigen_tuple": lambda d, v: d["eigen_tuple"].__setitem__(3, v),
    "coefficient": lambda d, v: d["state"]["coefficients"].__setitem__(0, v),
    "norm_sq": lambda d, v: d["state"].__setitem__("norm_sq", v),
}


@pytest.mark.parametrize("value", NON_STRING_RATIONALS, ids=repr)
@pytest.mark.parametrize("field", sorted(GHZ_RATIONAL_FIELDS))
def test_non_string_rational_rejected(m3_doc, field, value):
    tampered = copy.deepcopy(m3_doc)
    GHZ_RATIONAL_FIELDS[field](tampered, value)
    _assert_malformed(tampered)


@pytest.mark.parametrize("word", (["A", "B", "B"], 7, None), ids=repr)
def test_non_string_word_rejected(m3_doc, word):
    # a word is stored as a string; a list of its letters is not coerced
    ok, reason = _verify_copy(m3_doc, lambda d: d["words"].__setitem__(0, word))
    assert (ok, reason) == (False, "malformed certificate: words[0] must be a string")


def test_non_string_spectrum_key_rejected(m3_doc):
    # JSON keys are strings, but a library caller can hand over any dict
    tampered = copy.deepcopy(m3_doc)
    tampered["spectra"]["plan_product"] = {-1: 8, 0: 19}
    _assert_malformed(tampered)
    ks = build_ks_document(2, SIGN_ONLY)
    ks["structure"]["side_spectrum"] = {
        parse_rational(k): v for k, v in ks["structure"]["side_spectrum"].items()
    }
    _assert_malformed(ks)


def _replace_at(doc, path, change):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = change(doc[last])


def _plus_half(value):
    return value + 0.5


GHZ_INTEGER_FIELDS = {
    "plan index": ("product_plan", 0),
    "support digit": ("state", "support", 1, 1),
    "assignments_checked": ("lhv", "assignments_checked"),
    "bound": ("lhv", "bound"),
}
# each keeps the value that int() would read back, or (bool) one it would
# read as an index
NON_INT_CHANGES = {"str": str, "float": float, "plus half": _plus_half, "bool": bool}


@pytest.mark.parametrize("change", sorted(NON_INT_CHANGES))
@pytest.mark.parametrize("field", sorted(GHZ_INTEGER_FIELDS))
def test_integer_field_must_be_int(m3_doc, field, change):
    tampered = copy.deepcopy(m3_doc)
    _replace_at(tampered, GHZ_INTEGER_FIELDS[field], NON_INT_CHANGES[change])
    _assert_malformed(tampered)


SIGN_COUNT_FIELDS = {
    "word count": (("spectra", "words", 0, "zero"), "spectra.words[0].zero"),
    "plan-product count": (("spectra", "plan_product", "negative"),
                           "spectra.plan_product.negative"),
}
# other types, named by their path, and other spellings than the one
# format_integer writes
NON_STRING_COUNTS = {"int": int, "float": float, "bool": bool}
NON_DECIMAL_SPELLINGS = {
    "plus half": lambda text: f"{text}.5", "padded": lambda text: f" {text}",
    "signed": lambda text: f"+{text}", "leading zero": lambda text: f"0{text}",
    "fraction": lambda text: f"{text}/1",
}


@pytest.mark.parametrize("change", sorted({**NON_STRING_COUNTS, **NON_DECIMAL_SPELLINGS}))
@pytest.mark.parametrize("field", sorted(SIGN_COUNT_FIELDS))
def test_sign_count_must_be_a_decimal_string(m3_doc, field, change):
    path, dotted = SIGN_COUNT_FIELDS[field]
    tampered = copy.deepcopy(m3_doc)
    _replace_at(tampered, path, {**NON_STRING_COUNTS, **NON_DECIMAL_SPELLINGS}[change])
    value = functools.reduce(lambda node, key: node[key], path, tampered)
    assert verify_document(tampered) == (False, f"malformed certificate: {dotted} " + (
        "must be a string" if change in NON_STRING_COUNTS
        else f"must be a decimal string, got {value!r}"))


def test_format_1_document_rejected(m3_doc):
    # the format-1 layout: spectra as value -> multiplicity maps and the
    # mixed-parity marker
    old = copy.deepcopy(m3_doc)
    old["format_version"] = 1
    old["parties"]["mixed_parity_experimental"] = False
    old["spectra"] = {"words": [{"-1": 4, "0": 19, "1": 4}] * 4,
                      "plan_product": {"-1": 8, "0": 19},
                      "plan_product_classification": "negative-semidefinite"}
    assert verify_document(old) == (
        False, "malformed certificate: unsupported format version 1"
    )


@pytest.mark.parametrize("value", (0.9, "0", True, False))
def test_plan_index_must_be_int(m3_doc, value):
    tampered = copy.deepcopy(m3_doc)
    tampered["product_plan"][0] = value
    _assert_malformed(tampered)


@pytest.mark.parametrize("change", sorted(NON_INT_CHANGES))
def test_ks_patterns_checked_must_be_int(change):
    tampered = build_ks_document(2, SIGN_ONLY)
    _replace_at(tampered, ("search", "patterns_checked"), NON_INT_CHANGES[change])
    _assert_malformed(tampered)


def _flags_as_pairs(flags):
    return [[name, value] for name, value in flags.items()]


def _flags_as_ints(flags):
    return {name: int(value) for name, value in flags.items()}


def _one_flag_zero(flags):
    return {**flags, "even_slot_usage": 0}


@pytest.mark.parametrize(
    "change", (_flags_as_pairs, _flags_as_ints, _one_flag_zero), ids=lambda f: f.__name__
)
def test_requirement_flags_must_be_booleans(m3_doc, change):
    tampered = copy.deepcopy(m3_doc)
    _replace_at(tampered, ("requirement_flags",), change)
    _assert_malformed(tampered)


KS_INTEGER_FIELDS = {
    "context index": ("contexts", 0, 3),
    "context index one": ("contexts", 1, 1),
    "sign target": ("sign_targets", 1),
}


@pytest.mark.parametrize("change", (float, bool), ids=("float", "bool"))
@pytest.mark.parametrize("field", sorted(KS_INTEGER_FIELDS))
def test_ks_context_fields_must_be_int(field, change):
    tampered = build_ks_document(2, SIGN_ONLY)
    _replace_at(tampered, KS_INTEGER_FIELDS[field], change)
    _assert_malformed(tampered)


def test_lhv_explanation_is_rederived(m3_doc):
    ok, reason = _verify_copy(
        m3_doc, lambda d: d["lhv"].__setitem__("explanation", "LHV models exist")
    )
    assert (ok, reason) == (
        False, "stored lhv.explanation does not match re-derivation"
    )


@pytest.mark.parametrize("witness", ({}, {"A1": "1"}, "none"), ids=repr)
def test_lhv_witness_must_be_null(m3_doc, witness):
    ok, reason = _verify_copy(m3_doc, lambda d: d["lhv"].__setitem__("witness", witness))
    assert (ok, reason) == (
        False, "stored lhv.witness does not match re-derivation"
    )


def test_ks_rendered_contexts_are_rederived():
    tampered = build_ks_document(2, SIGN_ONLY)
    tampered["contexts_rendered"][0] = "ABB, BAB, BBA, AAA  (value product must be positive)"
    assert verify_ks_document(tampered) == (
        False, "stored contexts_rendered[0] does not match re-derivation"
    )


@pytest.mark.parametrize("witness", ({}, {"A1": "1"}, "none"), ids=repr)
def test_ks_search_witness_must_be_null(witness):
    tampered = build_ks_document(2, SIGN_ONLY)
    tampered["search"]["witness"] = witness
    assert verify_ks_document(tampered) == (
        False, "stored search.witness does not match re-derivation"
    )


@pytest.mark.parametrize("party", range(3))
def test_short_b_weights_rejected(m3_doc, party):
    tampered = copy.deepcopy(m3_doc)
    del tampered["site_operators"][party]["b_weights"][1]
    ok, reason = verify_document(tampered)
    assert not ok
    assert reason == (
        f"site operators for party {party + 1} have the wrong dimension"
    )


@pytest.mark.parametrize("plan", ([7, 1, 2, 3], [0, 1, 2, 4], [-1, 0, 1, 2]))
def test_plan_index_out_of_range_rejected(m3_doc, plan):
    tampered = copy.deepcopy(m3_doc)
    tampered["product_plan"] = plan
    ok, reason = verify_document(tampered)
    assert not ok
    assert reason == (
        "invalid word set: product plan references a word outside the set"
    )


def test_empty_word_list_rejected(m3_doc):
    tampered = copy.deepcopy(m3_doc)
    tampered["words"] = []
    tampered["eigen_tuple"] = []
    ok, reason = verify_document(tampered)
    assert not ok
    assert reason == "invalid word set: a proof set needs at least one word"


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


def test_mixed_parity_certificate_verifies():
    doc = build_ghz_document(PartySpec((2, 3, 2)))
    assert doc["parties"] == {"levels": [2, 3, 2]}
    ok, reason = verify_ghz_document(doc)
    assert ok, reason


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(2, 8), min_size=3, max_size=5).filter(
    lambda levels: len({m % 2 for m in levels}) == 2))
def test_mixed_level_lists_build_and_verify(levels):
    doc = build_ghz_document(PartySpec(tuple(levels)))
    assert verify_ghz_document(json.loads(dumps_document(doc))) == (True, "accept")


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
    doc = {"support": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
           "coefficients": ["1", "1", "1"], "norm_sq": "3"}
    again = StateVector.from_doc((2, 2, 2), doc)
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
    sv = StateVector(spec.levels, state.support, state.coefficients, state.norm_sq)
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
    sv = StateVector(spec.levels, state.support, state.coefficients, state.norm_sq)
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
    sv = StateVector(spec.levels, state.support, state.coefficients, state.norm_sq)
    ok, reason = check_ghz_criteria(sv, pairs, ps.letter_words)
    assert not ok
    assert reason == "site operators for party 1 do not anticommute"


def test_criteria_custom_scaled_pair_still_ghz():
    # scaling both operators of the m=2 pair keeps every criterion intact
    from ghzcert.siteops import custom_site

    spec = PartySpec((2, 2, 2))
    scaled = tuple(
        (custom_site("A", [2 * w for w in a.weight]),
         custom_site("B", [2 * w for w in b.weight]))
        for a, b in spec.canonical_pairs()
    )
    ps = generate_odd_set(spec)
    state = select_ghz(ps, ops=[w.factored(scaled) for w in ps.words])
    sv = StateVector(spec.levels, state.support, state.coefficients, state.norm_sq)
    ok, reason = check_ghz_criteria(sv, scaled, ps.letter_words)
    assert ok, reason


def test_json_is_sorted_and_newline_terminated(m3_doc):
    text = dumps_document(m3_doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == m3_doc
    assert list(parsed) == sorted(parsed)


def test_verifier_bound_is_the_callers():
    # a document cannot lower the verifier's work limit: built past its
    # bound, the LHV claim is analytic, and only a caller who passes the
    # same bound accepts that
    doc = build_ghz_document(PartySpec((3, 3, 3)), bound=100)
    assert doc["lhv"]["method"] == "parity-analytic"
    assert verify_document(doc) == (
        False, "stored lhv.method does not match re-derivation"
    )
    assert verify_document(doc, bound=100) == (True, "accept")


@pytest.mark.parametrize("root", ([], "x", None, 3, True), ids=repr)
@pytest.mark.parametrize(
    "verify", (verify_document, verify_ghz_document, verify_ks_document)
)
def test_non_object_root_is_malformed(verify, root):
    ok, reason = verify(root)
    assert not ok
    assert reason.startswith("malformed certificate: ")
