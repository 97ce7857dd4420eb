"""Certificate documents: building, serialization, and zero-trust verification.

A certificate is a single JSON document (sorted keys, two-space indent, one
trailing newline) whose rationals are written as ``num`` or ``num/den``
strings. Being plain text it diffs and audits cleanly, and identical inputs
produce byte-identical files.

Verification trusts nothing derived: site-pair anticommutation, pairwise
word commutation, requirement flags, the eigenvector equations, eligibility
of the eigenvalue tuple, all spectra, and the unsatisfiability report are
recomputed from the raw weights and compared against the stored values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from . import __version__ as _tool_version
from .errors import CertificateError, GhzError
from .exact import ZERO, format_rational, monomial_compose, parse_rational
from .kochen_specker import (
    FULL_SPECTRUM,
    KS_UNSAT,
    SIGN_ONLY,
    build_ks,
    ks_color_search,
    plan_product_spectrum,
    render_contexts,
    shared_side_product,
)
from .lhv import (
    ConstraintSystem,
    DEFAULT_BOUND,
    UNSAT,
    analyze_lhv,
    explain_parity,
    parity_unsat,
)
from .siteops import check_anticommute, custom_site
from .spectral import (
    Spectrum,
    eigen_tuple_plan_product,
    select_ghz,
    spectrum_of_monomial,
)
from .words import (
    PartySpec,
    ProofSet,
    SitePairs,
    TensorWord,
    _flags,
    build_proof_set,
)

GHZ_KIND = "ghz-certificate"
KS_KIND = "ks-certificate"
FORMAT_VERSION = 1

STATE_SELECTION_NOTE = (
    "orbits ascend by smallest composite index, eigenvalue branches descend, "
    "coefficients are primitive integers with a positive leading entry; "
    "without a tuple hint the first eligible eigenvector in this order is taken"
)


# -- shared pieces -----------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    """Sparse state with exact coefficients and a separate squared norm."""

    dims: tuple[int, ...]
    support: tuple[tuple[int, ...], ...]
    coefficients: tuple[Fraction, ...]
    norm_sq: Fraction

    def __post_init__(self) -> None:
        if len(self.support) != len(self.coefficients):
            raise CertificateError("support and coefficient counts differ")
        if not self.support:
            raise CertificateError("state has empty support")
        seen = set()
        for digits in self.support:
            if len(digits) != len(self.dims):
                raise CertificateError("support entry has wrong arity")
            if any(not 0 <= d < m for d, m in zip(digits, self.dims)):
                raise CertificateError(f"support entry {digits} out of range")
            if digits in seen:
                raise CertificateError(f"duplicate support entry {digits}")
            seen.add(digits)
        if any(not c for c in self.coefficients):
            raise CertificateError("zero coefficient on the support")
        total = sum((c * c for c in self.coefficients), ZERO)
        if total != self.norm_sq:
            raise CertificateError("norm_sq does not match the coefficients")

    def flat_vec(self) -> dict[int, Fraction]:
        spec = PartySpec(self.dims, allow_mixed_parity=True)
        return {
            spec.flat_index(digits): c
            for digits, c in zip(self.support, self.coefficients)
        }

    def to_doc(self) -> dict:
        return {
            "support": [list(d) for d in self.support],
            "coefficients": [format_rational(c) for c in self.coefficients],
            "norm_sq": format_rational(self.norm_sq),
        }

    @classmethod
    def from_doc(cls, dims: tuple[int, ...], doc: dict) -> StateVector:
        support = tuple(tuple(int(x) for x in entry) for entry in doc["support"])
        coeffs = tuple(parse_rational(c) for c in doc["coefficients"])
        return cls(dims, support, coeffs, parse_rational(doc["norm_sq"]))


def _spectrum_to_doc(spectrum: Spectrum) -> dict:
    return {format_rational(v): m for v, m in spectrum.entries}


def _spectrum_from_doc(doc: dict) -> Spectrum:
    if not isinstance(doc, dict):
        raise CertificateError("a spectrum must be an object")
    return Spectrum.from_counts({parse_rational(k): int(v) for k, v in doc.items()})


def _pairs_to_doc(pairs: SitePairs) -> list[dict]:
    return [
        {
            "a_weights": [format_rational(w) for w in a_op.weights],
            "b_weights": [format_rational(w) for w in b_op.weights],
        }
        for a_op, b_op in pairs
    ]


def _pairs_from_doc(doc: list) -> SitePairs:
    pairs = []
    for entry in doc:
        a_op = custom_site("A", [parse_rational(w) for w in entry["a_weights"]])
        b_op = custom_site("B", [parse_rational(w) for w in entry["b_weights"]])
        pairs.append((a_op, b_op))
    return tuple(pairs)


def _exact_int(value, what: str) -> int:
    """An integer field; bools and floats are not integers here."""
    if type(value) is not int:
        raise CertificateError(f"{what} must be an integer, got {value!r}")
    return value


def _check_format_version(doc: dict) -> None:
    if _exact_int(doc["format_version"], "format_version") != FORMAT_VERSION:
        raise CertificateError(f"unsupported format version {doc['format_version']!r}")


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_document(doc: dict, path: str) -> None:
    """Serialize and write atomically (temp file, then rename)."""
    text = dumps_document(doc)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise CertificateError("certificate root must be an object")
    return doc


# -- GHZ criteria ------------------------------------------------------------


def check_ghz_criteria(
    state: StateVector,
    pairs: SitePairs,
    words: tuple[str, ...],
    plan: tuple[int, ...] | None = None,
) -> tuple[bool, str]:
    """Decide whether a state qualifies as GHZ relative to supplied data.

    The three conditions: (I) every site pair anticommutes; (II) the state
    is a simultaneous eigenvector of the supplied words (four of them, or
    five with the last counted twice in the plan); (III) the eigenvalues are
    nonzero, every one-particle operator enters the plan an even number of
    times, and the planned eigenvalue product is negative.
    """
    n = len(state.dims)
    if len(pairs) != n:
        return False, f"expected {n} site pairs, got {len(pairs)}"
    for party, (a_op, b_op) in enumerate(pairs):
        if a_op.dim != state.dims[party] or b_op.dim != state.dims[party]:
            return False, f"site pair for party {party + 1} has the wrong dimension"
        if not check_anticommute(a_op, b_op):
            return False, f"criterion I: site pair for party {party + 1} does not anticommute"
    if len(words) not in (4, 5):
        return False, f"criterion II: expected four or five words, got {len(words)}"
    if any(len(w) != n for w in words):
        return False, "criterion II: word length does not match the party count"
    if plan is None:
        plan = tuple(range(len(words))) if len(words) == 4 else (0, 1, 2, 3, 4, 4)

    spec = PartySpec(state.dims, allow_mixed_parity=True)
    tensor_words = [TensorWord(w, spec) for w in words]
    vec = state.flat_vec()
    eigen_tuple: list[Fraction] = []
    for word in tensor_words:
        mat = word.realize(pairs)
        image = mat.apply(vec)
        lam = _eigenvalue_of(vec, image)
        if lam is None:
            return False, f"not an eigenvector of word {word.letters}"
        eigen_tuple.append(lam)

    if any(not t for t in eigen_tuple):
        return False, "criterion III: zero eigenvalue"
    flags = _flags(tuple(words), plan)
    if not flags.even_slot_usage:
        return False, (
            "criterion III: a one-particle observable enters the plan an odd "
            "number of times"
        )
    if eigen_tuple_plan_product(tuple(eigen_tuple), plan) >= 0:
        return False, "criterion III: plan product of eigenvalues is not negative"
    return True, "is-ghz"


def _eigenvalue_of(
    vec: dict[int, Fraction], image: dict[int, Fraction]
) -> Fraction | None:
    """The exact scalar with image = scalar * vec, or None."""
    if not image:
        return ZERO
    anchor = min(vec)
    lam = image.get(anchor, ZERO) / vec[anchor]
    expected = {k: lam * c for k, c in vec.items() if lam * c}
    return lam if image == expected else None


# -- GHZ certificates --------------------------------------------------------


def build_ghz_document(
    parties: PartySpec,
    tuple_hint: tuple[Fraction, ...] | None = None,
    bound: int = DEFAULT_BOUND,
) -> dict:
    """Run the whole pipeline and emit a verifiable certificate document."""
    ps = build_proof_set(parties)
    pairs = parties.canonical_pairs()
    state = select_ghz(ps, tuple_hint, pairs)
    cs = ConstraintSystem.for_state(ps, state, pairs)
    report = analyze_lhv(cs, bound)

    mats = [w.realize(pairs) for w in ps.words]
    word_spectra = [spectrum_of_monomial(m) for m in mats]
    product = monomial_compose([mats[i] for i in ps.product_plan])
    product_spectrum = spectrum_of_monomial(product)

    doc = {
        "kind": GHZ_KIND,
        "format_version": FORMAT_VERSION,
        "parties": {
            "levels": list(parties.levels),
            "mixed_parity_experimental": parties.mixed_parity,
        },
        "site_operators": _pairs_to_doc(pairs),
        "words": list(ps.letter_words),
        "product_plan": list(ps.product_plan),
        "requirement_flags": ps.requirement_flags.as_dict(),
        "eigen_tuple": [format_rational(t) for t in state.eigen_tuple],
        "state": StateVector(
            parties.levels,
            tuple(parties.digits(i) for i in state.support),
            state.coefficients,
            state.norm_sq,
        ).to_doc(),
        "spectra": {
            "words": [_spectrum_to_doc(s) for s in word_spectra],
            "plan_product": _spectrum_to_doc(product_spectrum),
            "plan_product_classification": product_spectrum.classify(),
        },
        "lhv": {
            "status": report.status,
            "method": report.method,
            "assignments_checked": report.assignments_checked,
            "bound": bound,
            "witness": None,
            "explanation": explain_parity(cs),
        },
        "provenance": {
            "tool": f"ghzcert {_tool_version}",
            "state_selection": STATE_SELECTION_NOTE,
            "tuple_hint": (
                [format_rational(t) for t in tuple_hint] if tuple_hint else None
            ),
        },
    }
    ok, reason = verify_ghz_document(doc)
    if not ok:
        raise AssertionError(f"freshly built certificate failed to verify: {reason}")
    return doc


_GHZ_REQUIRED_KEYS = (
    "kind", "format_version", "parties", "site_operators", "words",
    "product_plan", "requirement_flags", "eigen_tuple", "state", "spectra",
    "lhv", "provenance",
)


def verify_ghz_document(doc: dict, bound: int | None = None) -> tuple[bool, str]:
    """Re-derive every claim in a certificate; accept only if all hold."""
    try:
        for key in _GHZ_REQUIRED_KEYS:
            if key not in doc:
                raise CertificateError(f"missing key {key!r}")
        if doc["kind"] != GHZ_KIND:
            raise CertificateError(f"not a GHZ certificate: kind {doc['kind']!r}")
        _check_format_version(doc)
        levels = tuple(_exact_int(m, "a level count") for m in doc["parties"]["levels"])
        mixed_marker = doc["parties"]["mixed_parity_experimental"]
        parties = PartySpec(levels, allow_mixed_parity=True)
        pairs = _pairs_from_doc(doc["site_operators"])
        word_strings = tuple(str(w) for w in doc["words"])
        plan = tuple(int(i) for i in doc["product_plan"])
        eigen_tuple = tuple(parse_rational(t) for t in doc["eigen_tuple"])
        state = StateVector.from_doc(levels, doc["state"])
        stored_flags = dict(doc["requirement_flags"])
    except (CertificateError, KeyError, TypeError, ValueError, GhzError) as exc:
        return False, f"malformed certificate: {exc}"

    if len(pairs) != parties.n:
        return False, "malformed certificate: one site pair per party required"
    if len(eigen_tuple) != len(word_strings):
        return False, "malformed certificate: eigen_tuple length mismatch"
    if not parties.mixed_parity and mixed_marker:
        return False, "mixed-parity marker set on a uniform-parity certificate"
    if parties.mixed_parity and not mixed_marker:
        return False, "mixed-parity certificate must carry the experimental marker"

    # structural: anticommutation, word commutation, flags
    for party, (a_op, b_op) in enumerate(pairs):
        if a_op.dim != levels[party]:
            return False, f"site operators for party {party + 1} have the wrong dimension"
        if not check_anticommute(a_op, b_op):
            return False, f"site operators for party {party + 1} do not anticommute"
    try:
        words = tuple(TensorWord(w, parties) for w in word_strings)
        ps = ProofSet.assemble(words, plan)
    except (GhzError, ValueError) as exc:
        return False, f"invalid word set: {exc}"
    flags = ps.requirement_flags
    if flags.as_dict() != stored_flags:
        return False, "stored requirement flags do not match recomputation"
    if not flags.all_ok:
        return False, "requirement flags are not all satisfied"

    # criterion III before the eigenvector equations, so a zeroed tuple is
    # reported for what it is rather than as an equation failure
    if any(not t for t in eigen_tuple):
        return False, "criterion III: zero eigenvalue"
    if eigen_tuple_plan_product(eigen_tuple, plan) >= 0:
        return False, "criterion III: plan product of eigenvalues is not negative"

    vec = state.flat_vec()
    mats = [w.realize(pairs) for w in words]
    for i, (mat, lam) in enumerate(zip(mats, eigen_tuple), start=1):
        image = mat.apply(vec)
        expected = {k: lam * c for k, c in vec.items() if lam * c}
        if image != expected:
            return False, f"eigenvector equation fails for word {i}"

    # spectra are advisory in the file; recompute and insist they match
    try:
        stored_word_spectra = [
            _spectrum_from_doc(d) for d in doc["spectra"]["words"]
        ]
        stored_product = _spectrum_from_doc(doc["spectra"]["plan_product"])
        stored_class = doc["spectra"]["plan_product_classification"]
    except (CertificateError, KeyError, TypeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    if len(stored_word_spectra) != len(words):
        return False, "malformed certificate: one spectrum per word required"
    for i, (mat, stored) in enumerate(zip(mats, stored_word_spectra), start=1):
        if spectrum_of_monomial(mat) != stored:
            return False, f"stored spectrum for word {i} does not match recomputation"
    product = monomial_compose([mats[i] for i in plan])
    product_spectrum = spectrum_of_monomial(product)
    if product_spectrum != stored_product:
        return False, "stored plan-product spectrum does not match recomputation"
    if product_spectrum.classify() != stored_class:
        return False, "stored plan-product classification does not match recomputation"
    if product_spectrum.positive_count:
        return False, "plan product has a positive eigenvalue"

    # the unsatisfiability claim, re-derived from scratch
    cs = ConstraintSystem.build(ps, eigen_tuple, pairs)
    if not parity_unsat(cs):
        return False, "parity obstruction does not hold for the stored system"
    lhv_doc = doc["lhv"]
    try:
        stored_status = lhv_doc["status"]
        stored_method = lhv_doc["method"]
        stored_checked = int(lhv_doc["assignments_checked"])
        stored_bound = int(lhv_doc["bound"])
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    effective_bound = bound if bound is not None else stored_bound
    try:
        report = analyze_lhv(cs, effective_bound)
    except GhzError as exc:
        return False, f"unsatisfiability re-derivation failed: {exc}"
    if report.status != UNSAT or stored_status != UNSAT:
        return False, "stored LHV status does not match re-derivation"
    if report.method != stored_method or report.assignments_checked != stored_checked:
        return False, "stored LHV report does not match re-derivation"

    return True, "accept"


# -- KS certificates ---------------------------------------------------------


def build_ks_document(m: int, mode: str = SIGN_ONLY) -> dict:
    cfg = build_ks(m)
    report = ks_color_search(cfg, mode)
    side = spectrum_of_monomial(shared_side_product(cfg))
    horizontal = plan_product_spectrum(cfg)
    doc = {
        "kind": KS_KIND,
        "format_version": FORMAT_VERSION,
        "levels": m,
        "observables": [
            {"label": obs.label, "letters": list(obs.letters)}
            for obs in cfg.observables
        ],
        "contexts": [list(ctx) for ctx in cfg.contexts],
        "sign_targets": list(cfg.sign_targets),
        "structure": {
            "horizontal_classification": horizontal.classify(),
            "side_classification": side.classify(),
            "horizontal_spectrum": _spectrum_to_doc(horizontal),
            "side_spectrum": _spectrum_to_doc(side),
        },
        "search": {
            "mode": report.mode,
            "status": report.status,
            "patterns_checked": report.patterns_checked,
            "witness": (
                None
                if report.witness is None
                else {label: format_rational(v) for label, v in report.witness}
            ),
        },
        "provenance": {"tool": f"ghzcert {_tool_version}"},
        "contexts_rendered": render_contexts(cfg).split("\n"),
    }
    ok, reason = verify_ks_document(doc)
    if not ok:
        raise AssertionError(f"freshly built certificate failed to verify: {reason}")
    return doc


def verify_ks_document(doc: dict) -> tuple[bool, str]:
    try:
        if doc.get("kind") != KS_KIND:
            raise CertificateError(f"not a KS certificate: kind {doc.get('kind')!r}")
        _check_format_version(doc)
        m = _exact_int(doc["levels"], "levels")
        mode = doc["search"]["mode"]
        stored_status = doc["search"]["status"]
        stored_checked = int(doc["search"]["patterns_checked"])
        observables = doc["observables"]
        contexts = doc["contexts"]
        sign_targets = doc["sign_targets"]
        structure = doc["structure"]
        if not isinstance(structure, dict):
            raise CertificateError("structure must be an object")
        stored_horizontal = _spectrum_from_doc(structure["horizontal_spectrum"])
        stored_side = _spectrum_from_doc(structure["side_spectrum"])
    except (CertificateError, KeyError, TypeError, ValueError) as exc:
        return False, f"malformed certificate: {exc}"
    try:
        cfg = build_ks(m)
    except GhzError as exc:
        return False, f"configuration rebuild failed: {exc}"
    rebuilt_observables = [
        {"label": obs.label, "letters": list(obs.letters)} for obs in cfg.observables
    ]
    if observables != rebuilt_observables:
        return False, "stored observables do not match the rebuilt configuration"
    if contexts != [list(ctx) for ctx in cfg.contexts]:
        return False, "stored contexts do not match the rebuilt configuration"
    if sign_targets != list(cfg.sign_targets):
        return False, "stored sign targets do not match the rebuilt configuration"
    horizontal = plan_product_spectrum(cfg)
    side = spectrum_of_monomial(shared_side_product(cfg))
    if structure.get("horizontal_classification") != horizontal.classify():
        return False, "stored horizontal classification does not match recomputation"
    if structure.get("side_classification") != side.classify():
        return False, "stored side classification does not match recomputation"
    if stored_horizontal != horizontal:
        return False, "stored horizontal spectrum does not match recomputation"
    if stored_side != side:
        return False, "stored side spectrum does not match recomputation"
    if mode not in (SIGN_ONLY, FULL_SPECTRUM):
        return False, f"unknown search mode {mode!r}"
    report = ks_color_search(cfg, mode)
    if report.status != stored_status or report.status != KS_UNSAT:
        return False, "stored search status does not match re-derivation"
    if report.patterns_checked != stored_checked:
        return False, "stored pattern count does not match re-derivation"
    return True, "accept"


def verify_document(doc: dict, bound: int | None = None) -> tuple[bool, str]:
    """Dispatch on the certificate kind."""
    kind = doc.get("kind")
    if kind == GHZ_KIND:
        return verify_ghz_document(doc, bound)
    if kind == KS_KIND:
        return verify_ks_document(doc)
    return False, f"unknown certificate kind {kind!r}"
