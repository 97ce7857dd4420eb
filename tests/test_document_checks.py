"""One derivation per certificate kind: build runs it once, verify compares
against it; document rationals have one spelling; the declared document
shapes match what build emits; the verifier is total under single mutations
and arbitrary subtree replacements of real certificates."""

import ast
import json
import re
import time
from fractions import Fraction
from functools import cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzcert import certificate, cli, exact, kochen_specker, lhv, siteops, spectral, words
from ghzcert.certificate import (
    StateVector,
    build_ghz_document,
    build_ks_document,
    check_ghz_criteria,
    dumps_document,
    verify_document,
)
from ghzcert.kochen_specker import FULL_SPECTRUM, SIGN_ONLY
from ghzcert.lhv import ConstraintSystem, parity_unsat
from ghzcert.words import PartySpec, build_proof_set


def _count_calls(monkeypatch, names, modules=(certificate,)):
    """Count calls to each name, wrapped wherever ``modules`` look it up."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = next(vars(m)[name] for m in modules if name in vars(m))

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


SECTION_STEPS = ("analyze_lhv", "kronecker_signs", "spectrum_of_factored")


def test_ghz_build_derives_each_section_once(monkeypatch):
    counts = _count_calls(monkeypatch, SECTION_STEPS, (certificate, spectral))
    build_ghz_document(PartySpec((3, 3, 3)))
    # sign counts once for the four words, which share their site sign
    # counts, and once for the plan product; no full spectrum
    assert counts == {"analyze_lhv": 1, "kronecker_signs": 2, "spectrum_of_factored": 0}


def test_ghz_derivation_counts_plan_slots_once(monkeypatch):
    counts = _count_calls(monkeypatch, ("plan_slot_counts",), (lhv,))
    # build and verify each run one derivation, whose explanation counts the
    # plan slots; its LHV decision reads the even_slot_usage flag instead
    doc = build_ghz_document(PartySpec((3, 3, 3)))
    assert counts == {"plan_slot_counts": 1}
    assert verify_document(doc) == (True, "accept")
    assert counts == {"plan_slot_counts": 2}
    cs = ConstraintSystem.build(build_proof_set(PartySpec((3, 3, 3))), (1, 1, 1, -1))
    assert parity_unsat(cs)
    assert counts == {"plan_slot_counts": 2}


LARGE_LEVELS = ((60, 62, 64, 66, 68), (40, 42, 44, 46))


@pytest.mark.parametrize("levels", LARGE_LEVELS, ids=lambda levels: " ".join(map(str, levels)))
def test_large_levels_build_and_verify_without_full_spectra(monkeypatch, levels):
    def refuse(op):
        raise AssertionError("a GHZ certificate needs no full spectrum")

    for module in (spectral, certificate):
        if hasattr(module, "spectrum_of_factored"):
            monkeypatch.setattr(module, "spectrum_of_factored", refuse)
    start = time.perf_counter()
    doc = build_ghz_document(PartySpec(levels))
    text = dumps_document(doc)
    assert verify_document(json.loads(text)) == (True, "accept")
    # about 0.1 s for both on a 2-vCPU machine; multiplied-out spectra took
    # 0.6 s (40 ... 46) and 13 s (60 ... 68)
    assert time.perf_counter() - start < 2.0
    assert len(text.encode()) < 20_000


def test_norm_past_the_int_digit_limit_gets_its_own_reason(int_digit_limit):
    int_digit_limit(4300)  # the interpreter's default
    doc = build_ghz_document(PartySpec((3, 3, 3)))
    doc["state"]["norm_sq"] = "9" * 5000
    assert verify_document(doc) == (
        False, "malformed certificate: norm_sq does not match the coefficients"
    )


def test_party_count_costs_linear_time():
    # about 0.25 s for both on a 2-vCPU machine; 0.75 s while composite
    # indices were integers with a digit per party
    start = time.perf_counter()
    doc = build_ghz_document(PartySpec((3,) * 6001))
    assert verify_document(json.loads(dumps_document(doc))) == (True, "accept")
    assert time.perf_counter() - start < 5.0


def test_ghz_build_verify_and_criteria_multiply_no_matrices(monkeypatch, capsys):
    # every product, the plan's, the KS contexts' and the one ``spectrum
    # --product`` prints, is read off site by site by the per-site rule
    args = _criteria_args(build_ghz_document(PartySpec((3, 4, 3, 2))))
    counts = _count_calls(monkeypatch, ("monomial_compose", "monomial_multiply"),
                          (exact, spectral, kochen_specker, certificate, cli))
    doc = build_ghz_document(PartySpec((3, 4, 3, 2)))
    assert verify_document(doc) == (True, "accept")
    assert check_ghz_criteria(*args) == (True, "is-ghz")
    for mode in (SIGN_ONLY, FULL_SPECTRUM):
        assert verify_document(build_ks_document(4, mode)) == (True, "accept")
    assert cli.main(["spectrum", "3", "3", "3", "--product"]) == 0
    assert "plan product over" in capsys.readouterr().out
    assert counts == {"monomial_compose": 0, "monomial_multiply": 0}


def test_ghz_build_and_verify_check_the_letter_rule_once_each(monkeypatch):
    # a ProofSet's constructor checks its words' commutation; the eigenbasis
    # does not check it again. A build constructs two proof sets (its own
    # and its derivation's), a verify one: six word pairs each.
    counts = _count_calls(monkeypatch, ("letters_commute",), (words,))
    doc = build_ghz_document(PartySpec((3, 3, 3)))
    assert counts == {"letters_commute": 12}
    assert verify_document(doc) == (True, "accept")
    assert counts == {"letters_commute": 18}


def test_ghz_verify_reads_each_distinct_rational_once(monkeypatch):
    doc = build_ghz_document(PartySpec((12, 12, 12)))
    texts = {w for entry in doc["site_operators"] for w in entry["a_weights"] + entry["b_weights"]}
    texts |= {*doc["eigen_tuple"], *doc["state"]["coefficients"], doc["state"]["norm_sq"]}
    counts = _count_calls(monkeypatch, ("parse_rational",))
    assert verify_document(doc) == (True, "accept")
    assert counts == {"parse_rational": len(texts)}
    # nothing is kept between derivations
    assert verify_document(doc) == (True, "accept")
    assert counts == {"parse_rational": 2 * len(texts)}


def test_counts_past_the_int_digit_limit_build_and_verify(int_digit_limit):
    int_digit_limit(640)  # the lowest limit the interpreter accepts
    doc = build_ghz_document(PartySpec((3,) * 1401))
    assert len(doc["spectra"]["plan_product"]["zero"]) > 640
    assert verify_document(json.loads(dumps_document(doc))) == (True, "accept")


@pytest.mark.parametrize("levels", ((3,) * 7, (2,) * 10), ids=("3 x7", "2 x10"))
def test_ghz_verify_reads_each_distinct_site_pair_once(monkeypatch, levels):
    doc = build_ghz_document(PartySpec(levels))
    counts = _count_calls(
        monkeypatch, ("custom_site", "check_anticommute"), (siteops, spectral, certificate)
    )
    assert verify_document(doc) == (True, "accept")
    # every party holds the same site_operators entry: its A and B are read,
    # and their anticommutation checked, once
    assert counts == {"custom_site": 2, "check_anticommute": 1}


HASH_FREE_DOCS = {
    "2 x11": lambda: build_ghz_document(PartySpec((2,) * 11)),
    "12 12 12": lambda: build_ghz_document(PartySpec((12, 12, 12))),
    **{f"ks {m} {mode}": (lambda m=m, mode=mode: build_ks_document(m, mode))
       for m in (2, 4) for mode in (SIGN_ONLY, FULL_SPECTRUM)},
}


@pytest.mark.parametrize("name", sorted(HASH_FREE_DOCS))
def test_build_and_verify_hash_no_site_operator(monkeypatch, name):
    # per-site derivations tell site pairs apart by identity, never by a
    # field-by-field hash of their operators
    def refuse(op):
        raise AssertionError("a site operator was hashed")

    monkeypatch.setattr(exact.MonomialMatrix, "__hash__", refuse)
    with pytest.raises(AssertionError, match="hashed"):
        hash(exact.MonomialMatrix.identity(2))
    assert verify_document(HASH_FREE_DOCS[name]()) == (True, "accept")


def test_builds_make_one_canonical_pair_per_level_count(monkeypatch):
    counts = _count_calls(monkeypatch, ("canonical_pair",), (siteops, words, kochen_specker))
    # the proof set's state selection and the document share one set of pairs
    build_ghz_document(PartySpec((2,) * 11))
    assert counts == {"canonical_pair": 1}
    # the full-spectrum search reads the configuration's own pair
    doc = build_ks_document(4, FULL_SPECTRUM)
    assert counts == {"canonical_pair": 2}
    assert verify_document(doc) == (True, "accept")
    assert counts == {"canonical_pair": 3}


@pytest.mark.parametrize("levels", ((3, 3, 3), (2,) * 10), ids=("3 3 3", "2 x10"))
def test_tampered_eigen_tuple_stops_at_its_first_failing_equation(monkeypatch, levels):
    doc = build_ghz_document(PartySpec(levels))
    # doubled, the first eigenvalue keeps its sign, so criterion III passes
    doc["eigen_tuple"][0] = exact.format_rational(2 * Fraction(doc["eigen_tuple"][0]))
    counts = _count_calls(monkeypatch, ("eigenvalue_of",), (spectral, certificate))
    assert verify_document(doc) == (False, "eigenvector equation fails for word 1")
    assert counts == {"eigenvalue_of": 1}


def test_shared_word_spectra_are_separate_objects():
    doc = build_ghz_document(PartySpec((3, 3, 3)))
    spectra = doc["spectra"]["words"]
    before = [dict(s) for s in spectra]
    spectra[1]["zero"] = "5"
    assert spectra[0] == before[0] and spectra[2:] == before[2:]
    assert verify_document(doc) == (
        False, "stored spectra.words[1].zero does not match re-derivation"
    )


def test_malformed_stored_section_rejected_before_derivation(monkeypatch):
    doc = build_ghz_document(PartySpec((3, 3, 3)))
    doc["spectra"] = {}
    counts = _count_calls(monkeypatch, SECTION_STEPS, (certificate, spectral))
    assert verify_document(doc) == (
        False, "malformed certificate: missing key 'spectra.words'"
    )
    assert counts == dict.fromkeys(SECTION_STEPS, 0)


def test_ks_build_derives_each_section_once(monkeypatch):
    counts = _count_calls(monkeypatch, ("build_ks", "ks_color_search"))
    build_ks_document(4, FULL_SPECTRUM)
    assert counts == {"build_ks": 1, "ks_color_search": 1}


def _criteria_args(doc):
    """The state, pairs, words and plan of a certificate, as ``check_ghz_criteria`` takes them."""
    state = StateVector.from_doc(tuple(doc["parties"]["levels"]), doc["state"])
    pairs = certificate._pairs_from_doc(doc["site_operators"])
    return state, pairs, tuple(doc["words"]), tuple(doc["product_plan"])


def _build(levels):
    return lambda: build_ghz_document(PartySpec(levels))


def _criteria(levels):
    args = _criteria_args(build_ghz_document(PartySpec(levels)))
    return lambda: check_ghz_criteria(*args)


# Each prepares its inputs first, so only the claim checks are counted.
CLAIM_CHECKERS = {"build": _build, "criteria": _criteria}


@pytest.mark.parametrize("checker", sorted(CLAIM_CHECKERS))
def test_ghz_build_checks_each_eigenvector_equation_once(monkeypatch, checker):
    # the claim steps are the one eigenvector-equation check, once per word
    run = CLAIM_CHECKERS[checker]((3, 3, 3))
    counts = _count_calls(monkeypatch, ("eigenvalue_of",), (spectral, certificate))
    run()
    assert counts == {"eigenvalue_of": 4}


@pytest.mark.parametrize("checker", sorted(CLAIM_CHECKERS))
def test_ghz_build_checks_each_site_pair_once(monkeypatch, checker):
    # select_ghz takes the canonical pairs as built; the claim steps check
    # the stored or supplied pairs, once per distinct pair
    run = CLAIM_CHECKERS[checker]((3, 3, 3, 3))
    counts = _count_calls(
        monkeypatch, ("check_anticommute",), (siteops, spectral, certificate)
    )
    run()
    assert counts == {"check_anticommute": 1}


@pytest.mark.parametrize("checker", ("verify", "criteria"))
def test_shared_pair_failure_names_its_first_party(monkeypatch, checker):
    # parties 1 and 3 share an anticommuting pair, parties 2 and 4 one that
    # commutes: the reason names party 2, after one check per distinct pair
    doc = build_ghz_document(PartySpec((3, 2, 3, 2)))
    for party in (1, 3):
        doc["site_operators"][party] = {"a_weights": ["1", "1"], "b_weights": ["1", "1"]}
    run = {"verify": lambda: verify_document(doc),
           "criteria": lambda: check_ghz_criteria(*_criteria_args(doc))}[checker]
    counts = _count_calls(monkeypatch, ("check_anticommute",), (siteops, certificate))
    assert run() == (False, "site operators for party 2 do not anticommute")
    assert counts == {"check_anticommute": 2}


@pytest.mark.parametrize("checker", ("verify", "criteria"))
def test_shared_pair_of_the_wrong_dimension_names_its_party(checker):
    # parties 1 and 2 share the canonical 3-level entry, but party 2 has 2 levels
    doc = build_ghz_document(PartySpec((3, 2, 3)))
    doc["site_operators"][1] = dict(doc["site_operators"][0])
    reason = "site operators for party 2 have the wrong dimension"
    if checker == "verify":
        assert verify_document(doc) == (False, reason)
    else:
        assert check_ghz_criteria(*_criteria_args(doc)) == (False, reason)


ONE_PATH_GRID = {
    "3 3 3": (3, 3, 3),
    "2 2 2 2": (2, 2, 2, 2),
    "4 4 4": (4, 4, 4),
    "3 x5": (3,) * 5,
    "2 3 2 mixed": (2, 3, 2),
}


@pytest.mark.parametrize("levels", ONE_PATH_GRID.values(), ids=ONE_PATH_GRID)
def test_criteria_and_verify_share_the_claim_steps(levels):
    doc = build_ghz_document(PartySpec(levels))
    assert check_ghz_criteria(*_criteria_args(doc)) == (True, "is-ghz")
    # the first party's pair no longer anticommutes
    ones = ["1"] * levels[0]
    doc["site_operators"][0] = {"a_weights": ones, "b_weights": ones}
    reason = "site operators for party 1 do not anticommute"
    assert verify_document(doc) == (False, reason)
    assert check_ghz_criteria(*_criteria_args(doc)) == (False, reason)


def test_ks_build_does_not_recheck_its_fixed_structure(monkeypatch):
    # the fixed pair and contexts are pinned by test_siteops.py and test_ks.py
    counts = _count_calls(
        monkeypatch, ("check_anticommute", "letters_commute"),
        (siteops, words, spectral, kochen_specker, certificate),
    )
    kochen_specker.build_ks(4)
    assert counts == {"check_anticommute": 0, "letters_commute": 0}


# -- one spelling per rational ----------------------------------------------


def _doubled(text):
    value = Fraction(text)
    return f"{2 * value.numerator}/{2 * value.denominator}"


def _padded(text):
    return f" {text}"


def _set_item(path):
    def mutate(doc, spell):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = spell(doc[last])
    return mutate


def _rename_key(path, key):
    def mutate(doc, spell):
        for step in path:
            doc = doc[step]
        doc[spell(key)] = doc.pop(key)
    return mutate


# (document, where the rational sits, expected reason prefix)
NON_CANONICAL_FIELDS = {
    "a weight": ("ghz", _set_item(("site_operators", 0, "a_weights", 2)), "malformed"),
    "b weight": ("ghz", _set_item(("site_operators", 1, "b_weights", 0)), "malformed"),
    "eigen tuple": ("ghz", _set_item(("eigen_tuple", 2)), "malformed"),
    "coefficient": ("ghz", _set_item(("state", "coefficients", 3)), "malformed"),
    "norm_sq": ("ghz", _set_item(("state", "norm_sq")), "malformed"),
    "word count": ("ghz", _set_item(("spectra", "words", 0, "zero")), "malformed"),
    "plan-product count": ("ghz", _set_item(("spectra", "plan_product", "negative")), "malformed"),
    "ks spectrum key": (
        "ks", _rename_key(("structure", "horizontal_spectrum"), "-1/4096"),
        "stored structure.horizontal_spectrum does not match re-derivation",
    ),
}


@pytest.fixture(scope="module")
def docs():
    return {"ghz": build_ghz_document(PartySpec((3, 3, 3))), "ks": build_ks_document(2)}


@pytest.mark.parametrize("spell", (_doubled, _padded), ids=("doubled", "padded"))
@pytest.mark.parametrize("field", sorted(NON_CANONICAL_FIELDS))
def test_non_canonical_rational_rejected(docs, field, spell):
    kind, mutate, reason = NON_CANONICAL_FIELDS[field]
    tampered = json.loads(dumps_document(docs[kind]))
    mutate(tampered, spell)
    ok, got = verify_document(tampered)
    assert not ok
    assert got.startswith(reason), got


# -- single mutations of whole documents -------------------------------------

# Every value differs in JSON from some leaf it replaces; ints stay small, since
# a large KS level count is work the verifier does not cap.
JUNK = (True, 1, 12, 1.0, "1/1", " 1", "x", [], {}, None)
NON_OBJECT_ROOTS = ([], "x", None, 3, 1.0, True, ["kind"])

# Changing these never changes a verdict: the provenance is free text, and the
# stored LHV bound is a record that the caller's bound overrides.
UNCHECKED = (("provenance",), ("lhv", "bound"))

MUTATED_DOCS = {
    "3 3 3": lambda: build_ghz_document(PartySpec((3, 3, 3))),
    "2 2 2 2": lambda: build_ghz_document(PartySpec((2, 2, 2, 2))),
    "ks 2 sign-only": lambda: build_ks_document(2, SIGN_ONLY),
    "ks 4 full-spectrum": lambda: build_ks_document(4, FULL_SPECTRUM),
}


def _nodes(value, path=()):
    """Every (container, key, path) below ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        yield value, key, path + (key,)
        if isinstance(child, (dict, list)):
            yield from _nodes(child, path + (key,))


def _mutations(doc):
    """Apply each single mutation in place, yield (path, new value or
    "deleted"), then undo it. Every node, a whole section too, is replaced by
    each junk value that differs from it, and deleted."""
    for parent, key, path in _nodes(doc):
        original = parent[key]
        text = json.dumps(original)
        for junk in JUNK:
            if json.dumps(junk) != text:
                parent[key] = junk
                yield path, junk
        parent[key] = original
        if isinstance(parent, dict):
            del parent[key]
            yield path, "deleted"
            parent[key] = original
        else:
            parent.pop(key)
            yield path, "deleted"
            parent.insert(key, original)


# Python's own text for a failed lookup: a bare quoted key (a KeyError) or an
# indexing TypeError. A reason names the section by its dotted path instead.
LEAKED_REASONS = re.compile(
    r"malformed [a-z ]+: '[^']*'$|indices must be integers|not subscriptable|not iterable"
)


@pytest.mark.parametrize("name", sorted(MUTATED_DOCS))
def test_every_single_mutation_is_rejected(name):
    doc = MUTATED_DOCS[name]()
    before = dumps_document(doc)
    assert verify_document(doc) == (True, "accept")
    accepted, leaked = [], []
    for path, change in _mutations(doc):
        result = verify_document(doc)
        assert isinstance(result, tuple) and len(result) == 2, path
        ok, reason = result
        assert isinstance(ok, bool) and isinstance(reason, str), path
        if ok and not any(path[:len(p)] == p for p in UNCHECKED):
            accepted.append((path, change))
        if LEAKED_REASONS.search(reason):
            leaked.append((path, change, reason))
    assert dumps_document(doc) == before
    assert accepted == []
    assert leaked == []


@pytest.mark.parametrize(
    "mutate, reason",
    (
        (lambda d: d["spectra"].pop("words"), "missing key 'spectra.words'"),
        (lambda d: d.__setitem__("spectra", []), "spectra must be an object"),
        (lambda d: d["lhv"].pop("status"), "missing key 'lhv.status'"),
        (lambda d: d["parties"].pop("levels"), "missing key 'parties.levels'"),
        (lambda d: d["site_operators"][1].pop("b_weights"),
         "missing key 'site_operators[1].b_weights'"),
        (lambda d: d["state"]["support"].__setitem__(0, 3), "state.support[0] must be a list"),
        (lambda d: d["parties"]["levels"].__setitem__(0, 3.0),
         "parties.levels[0] must be an integer"),
        (lambda d: d["state"]["support"][2].__setitem__(1, True),
         "state.support[2][1] must be an integer"),
        (lambda d: d["requirement_flags"].__setitem__("even_slot_usage", 1),
         "requirement_flags['even_slot_usage'] must be a boolean"),
        (lambda d: d["lhv"].__setitem__("bound", "5"), "lhv.bound must be an integer"),
    ),
    ids=("spectra.words", "spectra", "lhv.status", "parties.levels", "b_weights", "support",
         "level float", "support bool", "flag int", "bound str"),
)
def test_malformed_reason_names_the_section(docs, mutate, reason):
    tampered = json.loads(dumps_document(docs["ghz"]))
    mutate(tampered)
    assert verify_document(tampered) == (False, f"malformed certificate: {reason}")


@pytest.mark.parametrize(
    "mutate, reason",
    (
        (lambda d: d.__setitem__("levels", 2.0), "levels must be an integer"),
        (lambda d: d["contexts"][1].__setitem__(0, True), "contexts[1][0] must be an integer"),
        (lambda d: d["observables"][0]["letters"].__setitem__(0, 1),
         "observables[0].letters[0] must be a string"),
        (lambda d: d["structure"]["side_spectrum"].__setitem__("1/3", "4"),
         "structure.side_spectrum['1/3'] must be an integer"),
        (lambda d: d["structure"]["side_spectrum"].__setitem__(1, 4),
         "structure.side_spectrum keys must be strings"),
        (lambda d: d.pop("provenance"), "missing key 'provenance'"),
    ),
    ids=("levels", "context index", "letter", "multiplicity", "spectrum key", "provenance"),
)
def test_ks_malformed_reason_names_the_field(docs, mutate, reason):
    tampered = json.loads(dumps_document(docs["ks"]))
    mutate(tampered)
    assert verify_document(tampered) == (False, f"malformed certificate: {reason}")


def _undeclared(value, shape, path=""):
    """The keys ``value`` holds that ``shape`` does not declare, and those it
    declares that ``value`` lacks, at every level the shape spells out."""
    if isinstance(shape, list):
        for i, entry in enumerate(value):
            yield from _undeclared(entry, shape[0], f"{path}[{i}]")
    elif isinstance(shape, dict) and str not in shape:
        yield from (f"{path}.{key}" for key in set(value) ^ set(shape))
        for key in set(value) & set(shape):
            yield from _undeclared(value[key], shape[key], f"{path}.{key}")


BUILT_DOCS = {
    **MUTATED_DOCS,
    "2 3 2": lambda: build_ghz_document(PartySpec((2, 3, 2))),
    "3 x5 hinted": lambda: build_ghz_document(
        PartySpec((3,) * 5), (Fraction(1), Fraction(1), Fraction(1), Fraction(-1))),
    "ks 6 sign-only": lambda: build_ks_document(6, SIGN_ONLY),
}


@pytest.mark.parametrize("name", sorted(BUILT_DOCS))
def test_declared_shape_matches_what_build_emits(name):
    doc = BUILT_DOCS[name]()
    shape = certificate._GHZ_SHAPE if doc["kind"] == "ghz-certificate" else certificate._KS_SHAPE
    assert sorted(_undeclared(doc, shape)) == []
    assert certificate._misshapen(doc, shape) is None


@pytest.mark.parametrize("root", NON_OBJECT_ROOTS, ids=repr)
def test_non_object_root_rejected(root):
    ok, reason = verify_document(root)
    assert not ok
    assert reason.startswith("malformed certificate: ")


# -- any subtree replaced by any JSON value ----------------------------------


@cache
def _mutated_texts():
    return {name: dumps_document(make()) for name, make in MUTATED_DOCS.items()}


@cache
def _document_strings():
    """Every key and string leaf of the documents, so replacements often
    hold the names and spellings a verifier looks for."""
    found = set()
    for text in _mutated_texts().values():
        for parent, key, _ in _nodes(json.loads(text)):
            found.update(s for s in (key, parent[key]) if isinstance(s, str))
    return sorted(found)


_STRINGS = st.text(max_size=6) | st.deferred(lambda: st.sampled_from(_document_strings()))
# Integers stay small, since a large KS level count is work the verifier does
# not cap. Half the draws are a scalar that equals or reads like a stored
# leaf: true for 1, 1.0 for 1, "1" for 1.
JSON_VALUES = st.sampled_from((True, False, 0, 1, -1, 2, 0.0, 1.0, None, "", "0", "1", "-1")) \
    | st.recursive(
        st.none() | st.booleans() | st.integers(-16, 16)
        | st.floats(allow_nan=False, allow_infinity=False) | _STRINGS,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
        max_leaves=8,
    )


def _same_json(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@settings(max_examples=600)
@given(data=st.data())
def test_any_subtree_replacement_is_rejected(data):
    name = data.draw(st.sampled_from(sorted(MUTATED_DOCS)))
    doc = json.loads(_mutated_texts()[name])
    # descend from the root, stopping at each container with chance 1/4, so a
    # small section is replaced as often as a large one
    path, old = (), doc
    while isinstance(old, (dict, list)) and old and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(sorted(old) if isinstance(old, dict) else range(len(old))))
        path, old = path + (key,), old[key]
    new = data.draw(JSON_VALUES)
    if path:
        reduce(lambda node, key: node[key], path[:-1], doc)[path[-1]] = new
    else:
        doc = new
    result = verify_document(doc)
    assert type(result) is tuple and len(result) == 2
    ok, reason = result
    assert type(ok) is bool and type(reason) is str
    assert not LEAKED_REASONS.search(reason), reason
    if ok:
        assert _same_json(old, new) or any(path[:len(p)] == p for p in UNCHECKED), (path, new)


# -- stored claim sections against the re-derivation -------------------------

# The sections each kind's derivation returns. The KS search mode is an input
# of that derivation, and the stored LHV bound a record (UNCHECKED).
DERIVED_SECTIONS = {
    "ghz-certificate": ("requirement_flags", "spectra", "lhv"),
    "ks-certificate": ("observables", "contexts", "sign_targets", "contexts_rendered",
                       "structure", "search"),
}
NOT_CLAIMS = (("search", "mode"), ("lhv", "bound"))
_PATH_STEP = re.compile(r"\.(\w+)|\[(\d+)\]|\[('[^']*')\]")


def _shape_of(doc):
    return certificate._GHZ_SHAPE if doc["kind"] == "ghz-certificate" else certificate._KS_SHAPE


def _dotted(path, shape):
    """``path`` in the notation of the shape walk: ``.key`` for a declared
    key, ``[...]`` for a list index or a key of an object with any keys."""
    text = ""
    for key in path:
        by_index = isinstance(shape, list) or str in shape
        text += f"[{key!r}]" if by_index else f".{key}"
        shape = shape[0] if isinstance(shape, list) else shape[str if by_index else key]
    return text.removeprefix(".")


def _parsed(text):
    """The keys of a dotted path, from its first name on."""
    name, rest = re.fullmatch(r"(\w+)(.*)", text).groups()
    keys = [name]
    while rest:
        step = _PATH_STEP.match(rest)
        keys.append(step[1] or (int(step[2]) if step[2] else ast.literal_eval(step[3])))
        rest = rest[step.end():]
    return tuple(keys)


def _well_formed_change(value):
    """A different value that every check before the comparison admits:
    the same type, and a sign count still a decimal string."""
    if value is None:  # a witness, of any shape
        return 0
    if type(value) is bool:
        return not value
    if type(value) is int:
        return value + 1
    return str(int(value) + 1) if value.isdigit() else value + "x"


@pytest.mark.parametrize("name", sorted(MUTATED_DOCS))
def test_each_derived_leaf_is_named_by_its_path(name):
    doc = MUTATED_DOCS[name]()
    shape = _shape_of(doc)
    checked = 0
    for section in DERIVED_SECTIONS[doc["kind"]]:
        for parent, key, path in _nodes(doc[section], (section,)):
            original = parent[key]
            if isinstance(original, (dict, list)) or path in NOT_CLAIMS:
                continue
            parent[key] = _well_formed_change(original)
            ok, reason = verify_document(doc)
            assert (ok, reason) == (
                False, f"stored {_dotted(path, shape)} does not match re-derivation"), path
            named = reason.removeprefix("stored ").removesuffix(" does not match re-derivation")
            # the named path resolves, in the document, to the changed leaf
            assert _parsed(named) == path
            parent[key] = original
            checked += 1
    assert checked > 20
    assert verify_document(doc) == (True, "accept")


# (document, where a key is added, its value); the reason names that section.
# An object with any keys gets a value of its declared type.
UNKNOWN_KEY_SECTIONS = {
    "lhv": ("3 3 3", ("lhv",), "1"),
    "requirement_flags": ("3 3 3", ("requirement_flags",), True),
    "spectra": ("2 2 2 2", ("spectra",), "1"),
    "spectra.words[1]": ("3 3 3", ("spectra", "words", 1), "1"),
    "spectra.plan_product": ("3 3 3", ("spectra", "plan_product"), "1"),
    "structure": ("ks 2 sign-only", ("structure",), "1"),
    "structure.side_spectrum": ("ks 2 sign-only", ("structure", "side_spectrum"), 1),
    "search": ("ks 4 full-spectrum", ("search",), "1"),
}


@pytest.mark.parametrize("section", sorted(UNKNOWN_KEY_SECTIONS))
def test_unknown_key_in_a_derived_section_is_rejected(section):
    name, path, value = UNKNOWN_KEY_SECTIONS[section]
    doc = MUTATED_DOCS[name]()
    reduce(lambda node, key: node[key], path, doc)["note"] = value
    assert verify_document(doc) == (False, f"stored {section} does not match re-derivation")


@pytest.mark.parametrize("name, path", (
    ("3 3 3", ()), ("3 3 3", ("state",)), ("3 3 3", ("provenance",)),
    ("ks 2 sign-only", ()), ("ks 2 sign-only", ("provenance",)),
), ids=("ghz root", "ghz state", "ghz provenance", "ks root", "ks provenance"))
def test_unknown_key_outside_the_derived_sections_is_admitted(name, path):
    doc = MUTATED_DOCS[name]()
    reduce(lambda node, key: node[key], path, doc)["note"] = "1"
    assert verify_document(doc) == (True, "accept")


SAT_DERIVATIONS = {
    "ghz": ("analyze_lhv", lambda cs, bound: lhv.LhvReport(lhv.SAT, (), "brute-force", 1),
            lambda: build_ghz_document(PartySpec((3, 3, 3))), ("lhv", "status")),
    "ks": ("ks_color_search",
           lambda cfg, mode: kochen_specker.KsReport(kochen_specker.KS_SAT, (), 1, mode),
           lambda: build_ks_document(2, SIGN_ONLY), ("search", "status")),
}


@pytest.mark.parametrize("kind", sorted(SAT_DERIVATIONS))
def test_a_derived_sat_status_is_never_accepted(monkeypatch, kind):
    step, sat, build, (section, key) = SAT_DERIVATIONS[kind]
    doc = build()
    monkeypatch.setattr(certificate, step, sat)
    reason = f"re-derived {section}.{key} is 'SAT', not 'UNSAT'"
    assert verify_document(doc) == (False, reason)
    # a stored SAT status that agrees with the derivation is refused too
    doc[section][key] = "SAT"
    assert verify_document(doc) == (False, reason)
    with pytest.raises(AssertionError, match=f"^freshly built certificate failed to verify: {reason}$"):
        build()
