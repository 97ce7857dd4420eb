"""Certificate documents: building, serialization, and zero-trust verification.

A certificate is a single JSON document (sorted keys, two-space indent, one
trailing newline) whose rationals are written as ``num`` or ``num/den``
strings. Being plain text it diffs and audits cleanly, and identical inputs
produce byte-identical files. This module and the command line are where
rationals are read and written; everything they call computes with integers
over positive scales (see `ghzcert.exact`).

Each certificate kind has one derivation: it checks every claim of the input
sections and returns the derived ones in document form. Building fills the
document with it; verifying accepts only if each derived section equals the
stored one, compared whole, and otherwise names the first differing path
(``stored spectra.words[0].negative does not match re-derivation``). Before
anything is read, one walk checks the document against its kind's declared
shape, type-exact down to the leaves; rationals must then be spelled as
``format_rational`` writes them. Within one derivation each distinct
rational string and site pair is read once, each distinct pair checked for
anticommutation once, and each distinct word's and plan column's sign
counts derived once, the plan's from its per-site factors
(`spectral.column_product`); a stored eigen-tuple is checked word by word,
up to its first failing equation. Nothing is kept between calls. A GHZ
certificate stores a spectrum as its classification and sign counts,
decimal strings that may pass 2**53: criterion III needs only that the
plan product has no positive eigenvalue.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__ as _tool_version
from .errors import CertificateError, GhzError
from .exact import format_integer, format_rational, parse_rational, scaled_to_integers
from .kochen_specker import (
    FULL_SPECTRUM,
    KS_UNSAT,
    SIGN_ONLY,
    build_ks,
    ks_color_search,
    render_contexts,
)
from .lhv import (
    ConstraintSystem,
    DEFAULT_BOUND,
    UNSAT,
    analyze_lhv,
    explain_parity,
)
from .siteops import check_anticommute, custom_site
from .spectral import (
    Spectrum,
    classify_signs,
    eigen_tuple_plan_product,
    eigenvalue_of,
    kronecker_signs,
    plan_product_signs,
    select_ghz,
)
from .words import (
    PartySpec,
    ProofSet,
    SitePairs,
    TensorWord,
    build_proof_set,
)

GHZ_KIND = "ghz-certificate"
KS_KIND = "ks-certificate"
FORMAT_VERSION = 2

STATE_SELECTION_NOTE = (
    "orbits ascend by smallest composite index, eigenvalue branches descend, "
    "coefficients are primitive integers with a positive leading entry; "
    "without a tuple hint the first eligible eigenvector in this order is taken"
)


# -- shared pieces -----------------------------------------------------------


def _read_rational(text) -> Fraction:
    """A rational field, in the one spelling ``format_rational`` writes."""
    value = parse_rational(text)
    if format_rational(value) != text:
        raise CertificateError(
            f"rational {text!r} is not written as {format_rational(value)!r}"
        )
    return value


@dataclass(frozen=True)
class StateVector:
    """Sparse state with exact coefficients and a separate squared norm;
    ``vec`` keys the coefficients, scaled to integers over one scale, by
    their digit tuples, and the norm is checked on those integers."""

    dims: tuple[int, ...]
    support: tuple[tuple[int, ...], ...]
    coefficients: tuple[Fraction, ...]
    norm_sq: Fraction
    vec: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.support) != len(self.coefficients):
            raise CertificateError("support and coefficient counts differ")
        if not self.support:
            raise CertificateError("state has empty support")
        coefficients, scale = scaled_to_integers(self.coefficients)
        vec: dict[tuple[int, ...], int] = {}
        for digits, c in zip(self.support, coefficients):
            if len(digits) != len(self.dims):
                raise CertificateError("support entry has wrong arity")
            if any(not 0 <= d < m for d, m in zip(digits, self.dims)):
                raise CertificateError(f"support entry {digits} out of range")
            if digits in vec:
                raise CertificateError(f"duplicate support entry {digits}")
            vec[digits] = c
        if 0 in coefficients:
            raise CertificateError("zero coefficient on the support")
        norm_sq = sum([c * c for c in coefficients])
        if norm_sq * self.norm_sq.denominator != self.norm_sq.numerator * scale**2:
            raise CertificateError("norm_sq does not match the coefficients")
        object.__setattr__(self, "vec", vec)

    @classmethod
    def from_doc(cls, dims: tuple[int, ...], doc: dict, read=_read_rational) -> StateVector:
        support = tuple([tuple(entry) for entry in doc["support"]])
        coeffs = tuple([read(c) for c in doc["coefficients"]])
        return cls(dims, support, coeffs, read(doc["norm_sq"]))


def _spectrum_to_doc(spectrum: Spectrum) -> dict:
    return {format_rational(v, spectrum.scale): m for v, m in spectrum.entries}


_COUNT_KEYS = ("negative", "positive", "zero")


def _signs_to_doc(signs: tuple[int, int, int]) -> dict:
    p, n, z = signs
    return {"classification": classify_signs(p, n, z),
            "negative": format_integer(n), "positive": format_integer(p),
            "zero": format_integer(z)}


def _check_decimal_counts(spectra: dict) -> None:
    """Stored sign counts are spelled as ``format_integer`` writes them: no
    sign, space or leading zero; a bad count is named by its path."""
    sections = {f"words[{i}]": signs for i, signs in enumerate(spectra["words"])}
    sections["plan_product"] = spectra["plan_product"]
    for name, signs in sections.items():
        for key in _COUNT_KEYS:
            text = signs[key]
            if not (text.isascii() and text.isdigit()) or (text[0] == "0" and text != "0"):
                raise _Rejected(f"malformed certificate: spectra.{name}.{key} must be a "
                                f"decimal string, got {text!r}")


def _pairs_to_doc(pairs: SitePairs) -> list[dict]:
    """The site pairs in document form, each distinct pair object formatted
    once; each party gets its own lists, for editing."""
    # ``weight`` is indexed by column and the document stores row weights; they
    # agree because anti-diagonal weights are symmetric under row reversal
    formatted: dict[int, list[list[str]]] = {}
    out = []
    for pair in pairs:
        if id(pair) not in formatted:
            formatted[id(pair)] = [[format_rational(w, op.scale) for w in op.weight]
                                   for op in pair]
        a_weights, b_weights = formatted[id(pair)]
        out.append({"a_weights": list(a_weights), "b_weights": list(b_weights)})
    return out


def _pairs_from_doc(doc: list, read=_read_rational) -> SitePairs:
    """One site pair per entry; entries with the same weight strings share one."""
    built: dict = {}
    pairs = []
    for entry in doc:
        key = (tuple(entry["a_weights"]), tuple(entry["b_weights"]))
        if key not in built:
            built[key] = (custom_site("A", [read(w) for w in key[0]]),
                          custom_site("B", [read(w) for w in key[1]]))
        pairs.append(built[key])
    return tuple(pairs)


_NOT_AN_OBJECT = "malformed certificate: certificate root must be an object"

# The keys each document kind must hold and the shape of each value, down to
# the leaves: a dict of keys; {str: shape} for an object whose keys are any
# strings; [shape] for a list; or the exact type of a leaf (a bool is no int,
# 3.0 no 3), where object admits any value.
_SIGNS_SHAPE = dict.fromkeys(("classification", *_COUNT_KEYS), str)
_GHZ_SHAPE = {
    "kind": str, "format_version": int, "provenance": object,
    "parties": {"levels": [int]},
    "site_operators": [{"a_weights": [str], "b_weights": [str]}],
    "words": [str], "product_plan": [int], "eigen_tuple": [str],
    "state": {"support": [[int]], "coefficients": [str], "norm_sq": str},
    "requirement_flags": {str: bool},
    "spectra": {"words": [_SIGNS_SHAPE], "plan_product": _SIGNS_SHAPE},
    "lhv": {"status": str, "method": str, "assignments_checked": int, "bound": int,
            "witness": object, "explanation": str},
}
_KS_SHAPE = {
    "kind": str, "format_version": int, "levels": int,
    "observables": [{"label": str, "letters": [str]}],
    "contexts_rendered": [str], "contexts": [[int]], "sign_targets": [int],
    "structure": {"horizontal_classification": str, "side_classification": str,
                  "horizontal_spectrum": {str: int}, "side_spectrum": {str: int}},
    "search": {"mode": str, "status": str, "witness": object, "patterns_checked": int},
    "provenance": object,
}
# The input files of `criteria`: a state section with its level counts, and
# the site operators, each as a certificate holds it.
_STATE_FILE_SHAPE = {"dims": [int], **_GHZ_SHAPE["state"]}
_PAIRS_FILE_SHAPE = {"site_operators": _GHZ_SHAPE["site_operators"]}

_SHAPE_NAMES = {int: "an integer", bool: "a boolean", str: "a string", list: "a list",
                dict: "an object"}


def _misshapen(value, shape) -> str | None:
    """The first missing key or value of the wrong type in ``value``, named by
    its dotted path, else None."""
    if found := _departure(value, shape):
        path, wrong = found[0].removeprefix("."), found[1]
        return f"{path} {wrong}" if wrong else f"missing key {path!r}"
    return None


def _departure(value, shape) -> tuple[str, str | None] | None:
    """The path below ``value`` of its first departure from ``shape`` and what
    is wrong there (None for a missing key); the path is built only on the
    way out of a departure, and an entry of a leaf type is checked in place."""
    kind = type(shape)
    if kind is type:  # a leaf
        return None if shape is object or type(value) is shape else (
            "", f"must be {_SHAPE_NAMES[shape]}")
    if type(value) is not kind:
        return "", f"must be {_SHAPE_NAMES[kind]}"
    if kind is dict and str not in shape:
        for key, inner in shape.items():
            if key not in value:
                return f".{key}", None
            entry = value[key]
            if type(entry) is not inner and (found := _departure(entry, inner)):
                return f".{key}{found[0]}", found[1]
        return None
    if kind is list:
        entries, inner = enumerate(value), shape[0]
    else:
        if any(type(key) is not str for key in value):
            return "", "keys must be strings"
        entries, inner = value.items(), shape[str]
    for key, entry in entries:
        if type(entry) is not inner and (found := _departure(entry, inner)):
            return f"[{key!r}]{found[0]}", found[1]
    return None


def _difference(stored, derived, shape) -> str | None:
    """The path below ``stored``, a value of ``shape``, of its first
    difference from ``derived``, else None; a leaf, or a section whose keys
    or list length differ, is named itself."""
    if stored == derived:
        return None
    kind = type(shape)
    by_name = kind is dict and str not in shape
    if kind is type or len(stored) != len(derived) or (
            kind is dict and stored.keys() != derived.keys()):
        return ""
    for key in range(len(derived)) if kind is list else derived:
        inner = shape[key] if by_name else shape[0 if kind is list else str]
        if (found := _difference(stored[key], derived[key], inner)) is not None:
            return (f".{key}" if by_name else f"[{key!r}]") + found


def _compare_sections(doc: dict, derived: dict, shape: dict) -> tuple[bool, str]:
    """Accept only if each derived section equals the stored one, compared
    whole; else reject, naming the first differing path."""
    for name, section in derived.items():
        if (path := _difference(doc[name], section, shape[name])) is not None:
            return False, f"stored {name}{path} does not match re-derivation"
    return True, "accept"


def _read_input_file(path: str, name: str, shape: dict, parse):
    """``parse`` of a file with ``shape``; a departure names the file and field."""
    doc = load_document(path)
    try:
        if found := _misshapen(doc, shape):
            raise CertificateError(found)
        return parse(doc)
    except ValueError as exc:
        raise CertificateError(f"malformed {name} file: {exc}") from exc


def load_state_file(path: str) -> StateVector:
    return _read_input_file(path, "state", _STATE_FILE_SHAPE,
                            lambda doc: StateVector.from_doc(tuple(doc["dims"]), doc))


def load_pairs_file(path: str) -> SitePairs:
    return _read_input_file(path, "pairs", _PAIRS_FILE_SHAPE,
                            lambda doc: _pairs_from_doc(doc["site_operators"]))


def _shape_reason(doc, kind: str, label: str, shape: dict) -> str | None:
    """Why ``doc`` is not a document of ``kind`` with every field of ``shape``,
    else None. A document of another format is rejected by its version, not
    by this format's shape."""
    if not isinstance(doc, dict):
        return _NOT_AN_OBJECT
    if doc.get("kind") != kind:
        return f"malformed certificate: not a {label} certificate: kind {doc.get('kind')!r}"
    version = doc.get("format_version")
    if type(version) is int and version != FORMAT_VERSION:
        return f"malformed certificate: unsupported format version {version!r}"
    if found := _misshapen(doc, shape):
        return f"malformed certificate: {found}"
    return None


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_document(doc: dict, path: str) -> None:
    """Serialize and write through symlinks: a FIFO or device in place, a
    regular file atomically (temp file, then rename)."""
    text = dumps_document(doc)
    path = os.path.realpath(path) if os.path.islink(path) else path
    regular = os.path.isfile(path) or not os.path.exists(path)
    tmp = f"{path}.tmp" if regular else path
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    if regular:
        os.replace(tmp, path)


def load_document(path: str) -> dict:
    """Read one JSON object; an unreadable, non-UTF-8 or non-JSON file, or a
    root that is not an object, raises ``CertificateError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CertificateError(str(exc)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # past the digit or nesting limit
        raise CertificateError(f"parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise CertificateError("document root must be an object")
    return doc


# -- GHZ claims --------------------------------------------------------------
# Criteria I-III, checked once for `criteria`, `build` and `verify`.


class _Rejected(Exception):
    """A failed claim; the message is the reason."""


def _check_site_pairs(pairs: SitePairs, levels: tuple[int, ...]) -> None:
    """Criterion I: each party's pair has its level count and anticommutes.
    Anticommutation is checked once per distinct pair object, so parties
    that share a pair share its check; a failure names the first party."""
    anticommuting: set[int] = set()
    for party, pair in enumerate(pairs):
        if pair[0].dim != levels[party] or pair[1].dim != levels[party]:
            raise _Rejected(f"site operators for party {party + 1} have the wrong dimension")
        if id(pair) not in anticommuting and not check_anticommute(*pair):
            raise _Rejected(f"site operators for party {party + 1} do not anticommute")
        anticommuting.add(id(pair))


def _word_set(word_strings, plan, parties: PartySpec, pairs: SitePairs):
    """The words as a proof set and their operators on ``pairs``."""
    try:
        ps = ProofSet.assemble(tuple([TensorWord(w, parties) for w in word_strings]), plan)
    except (GhzError, ValueError) as exc:
        raise _Rejected(f"invalid word set: {exc}") from None
    return ps, [w.factored(pairs) for w in ps.words]


def _check_eigen_tuple(ps: ProofSet, ops, vec, eigen_tuple=None) -> tuple[int, ...]:
    """Criteria II and III for a stored ``eigen_tuple`` or the one derived from
    ``vec``; returns the eigenvalues, over the operators' positive scales.

    Criterion III runs first on the stored tuple, so a zeroed tuple is
    reported as such; its equations then run word by word, and the first
    that fails ends the check."""
    if eigen_tuple is None:
        claimed = [eigenvalue_of(op, vec) for op in ops]
        if None in claimed:
            raise _Rejected(f"not an eigenvector of word {ps.words[claimed.index(None)]}")
    else:
        claimed = eigen_tuple
    if any(not t for t in claimed):
        raise _Rejected("criterion III: zero eigenvalue")
    if eigen_tuple_plan_product(claimed, ps.product_plan) >= 0:
        raise _Rejected("criterion III: plan product of eigenvalues is not negative")
    if eigen_tuple is None:
        return tuple(claimed)
    values = []
    for i, (op, lam) in enumerate(zip(ops, eigen_tuple), start=1):
        value = eigenvalue_of(op, vec)
        if value is None or value * lam.denominator != lam.numerator * op.scale:
            raise _Rejected(f"eigenvector equation fails for word {i}")
        values.append(value)
    return tuple(values)


def check_ghz_criteria(
    state: StateVector,
    pairs: SitePairs,
    words: tuple[str, ...],
    plan: tuple[int, ...] | None = None,
) -> tuple[bool, str]:
    """Decide whether a state is GHZ for the supplied data by a certificate's
    claim steps: (I) every site pair anticommutes; (II) the state is an
    eigenvector of each word (four, or five with the last counted twice in
    the plan); (III) every one-particle operator enters the plan an even
    number of times, and the eigenvalues are nonzero with a negative product."""
    try:
        if len(pairs) != len(state.dims):
            raise _Rejected(f"expected {len(state.dims)} site pairs, got {len(pairs)}")
        _check_site_pairs(pairs, state.dims)
        if len(words) not in (4, 5):
            raise _Rejected(f"criterion II: expected four or five words, got {len(words)}")
        if plan is None:
            plan = tuple(range(len(words))) if len(words) == 4 else (0, 1, 2, 3, 4, 4)
        ps, ops = _word_set(words, plan, PartySpec(state.dims), pairs)
        if not ps.requirement_flags["even_slot_usage"]:
            raise _Rejected("criterion III: a one-particle observable enters the plan "
                            "an odd number of times")
        _check_eigen_tuple(ps, ops, state.vec)
    except _Rejected as exc:
        return False, str(exc)
    return True, "is-ghz"


# -- GHZ certificates --------------------------------------------------------


def _word_signs(ops) -> list[dict]:
    """Each word's sign counts in document form, derived once per multiset of
    site sign counts; each word gets its own copy, for editing."""
    derived: dict[tuple, dict] = {}
    out = []
    for op in ops:
        key = tuple(sorted([f.sign_counts for f in op.factors]))
        if key not in derived:
            derived[key] = _signs_to_doc(kronecker_signs(key))
        out.append(dict(derived[key]))
    return out


def _ghz_sections(doc: dict, bound: int) -> dict:
    """Check the claims of the input sections, from ``parties`` to ``state``,
    and return ``requirement_flags``, ``spectra`` and ``lhv`` in document
    form; ``bound`` caps the LHV enumeration and is recorded in ``lhv``."""
    # each distinct rational string is read, and its spelling checked, once
    read = functools.cache(_read_rational)
    try:
        levels = tuple(doc["parties"]["levels"])
        parties = PartySpec(levels)
        pairs = _pairs_from_doc(doc["site_operators"], read)
        word_strings = tuple(doc["words"])
        plan = tuple(doc["product_plan"])
        eigen_tuple = tuple([read(t) for t in doc["eigen_tuple"]])
        state = StateVector.from_doc(levels, doc["state"], read)
    except (ValueError, GhzError) as exc:
        raise _Rejected(f"malformed certificate: {exc}") from None

    if len(pairs) != parties.n:
        raise _Rejected("malformed certificate: one site pair per party required")
    if len(eigen_tuple) != len(word_strings):
        raise _Rejected("malformed certificate: eigen_tuple length mismatch")

    _check_site_pairs(pairs, levels)
    ps, ops = _word_set(word_strings, plan, parties, pairs)
    if not all(ps.requirement_flags.values()):
        raise _Rejected("requirement flags are not all satisfied")
    rhs = _check_eigen_tuple(ps, ops, state.vec, eigen_tuple)

    # word factors are diagonal or symmetric anti-diagonals, so have sign counts;
    # the site pairs anticommute and the flags hold, as the per-site rule needs
    word_signs = _word_signs(ops)
    product_signs = plan_product_signs(ps, pairs)

    # the unsatisfiability claim, derived from the stored tuple
    cs = ConstraintSystem.build(ps, rhs, pairs)
    try:
        report = analyze_lhv(cs, bound)
    except GhzError as exc:
        raise _Rejected(f"unsatisfiability re-derivation failed: {exc}") from None
    if report.status != UNSAT:
        raise _Rejected(f"re-derived lhv.status is {report.status!r}, not {UNSAT!r}")

    return {
        "requirement_flags": dict(ps.requirement_flags),
        "spectra": {"words": word_signs, "plan_product": _signs_to_doc(product_signs)},
        "lhv": {
            "status": report.status,
            "method": report.method,
            "assignments_checked": report.assignments_checked,
            "bound": bound,
            "witness": None,
            "explanation": explain_parity(cs),
        },
    }


def build_ghz_document(
    parties: PartySpec,
    tuple_hint: tuple[Fraction, ...] | None = None,
    bound: int = DEFAULT_BOUND,
) -> dict:
    """Run the whole pipeline and emit a verifiable certificate document."""
    ps = build_proof_set(parties)
    pairs = parties.canonical_pairs()
    # canonical pairs anticommute by construction, so select_ghz takes the
    # operators as they are
    ops = [w.factored(pairs) for w in ps.words]
    state = select_ghz(ps, tuple_hint, ops=ops)
    scales = [op.scale for op in ops]
    doc = {
        "kind": GHZ_KIND,
        "format_version": FORMAT_VERSION,
        "parties": {"levels": list(parties.levels)},
        "site_operators": _pairs_to_doc(pairs),
        "words": list(ps.letter_words),
        "product_plan": list(ps.product_plan),
        "eigen_tuple": [format_rational(t, s) for t, s in zip(state.eigen_tuple, scales)],
        "state": {"support": [list(d) for d in state.support],
                  "coefficients": [format_integer(c) for c in state.coefficients],
                  "norm_sq": format_integer(state.norm_sq)},
        "provenance": {
            "tool": f"ghzcert {_tool_version}",
            "state_selection": STATE_SELECTION_NOTE,
            "tuple_hint": [format_rational(t) for t in tuple_hint] if tuple_hint else None,
        },
    }
    try:
        doc.update(_ghz_sections(doc, bound))
    except _Rejected as exc:
        raise AssertionError(f"freshly built certificate failed to verify: {exc}") from None
    return doc


def verify_ghz_document(doc: dict, bound: int | None = None) -> tuple[bool, str]:
    """Re-derive every claim in a certificate; accept only if all hold.

    ``bound`` caps the LHV enumeration (``DEFAULT_BOUND`` when omitted); the
    document's own ``lhv.bound`` never sets how much work the check does.
    """
    if reason := _shape_reason(doc, GHZ_KIND, "GHZ", _GHZ_SHAPE):
        return False, reason
    stored_bound = doc["lhv"]["bound"]
    try:
        _check_decimal_counts(doc["spectra"])
        if stored_bound < 0:
            raise _Rejected(f"malformed certificate: bound must be non-negative, "
                            f"got {format_integer(stored_bound)}")
        derived = _ghz_sections(doc, DEFAULT_BOUND if bound is None else bound)
    except _Rejected as exc:
        return False, str(exc)
    # lhv.bound is recorded for the reader; the caller's bound sets the work done
    derived["lhv"]["bound"] = stored_bound
    return _compare_sections(doc, derived, _GHZ_SHAPE)


# -- KS certificates ---------------------------------------------------------


def _ks_sections(m: int, mode: str) -> dict:
    """Every section of a KS certificate from ``observables`` to ``search``,
    derived from the level count and the search mode, in document form."""
    cfg = build_ks(m)
    report = ks_color_search(cfg, mode)
    # the canonical configuration is UNSAT in both modes (build_ks asserts
    # the definite products the refutation rests on)
    if report.status != KS_UNSAT:
        raise _Rejected(f"re-derived search.status is {report.status!r}, not {KS_UNSAT!r}")
    horizontal, side = cfg.horizontal_spectrum, cfg.side_spectrum
    return {
        "observables": [{"label": o.label, "letters": list(o.letters)} for o in cfg.observables],
        "contexts": [list(ctx) for ctx in cfg.contexts],
        "sign_targets": list(cfg.sign_targets),
        "contexts_rendered": render_contexts(cfg).split("\n"),
        "structure": {
            "horizontal_classification": horizontal.classify(),
            "side_classification": side.classify(),
            "horizontal_spectrum": _spectrum_to_doc(horizontal),
            "side_spectrum": _spectrum_to_doc(side),
        },
        "search": {"mode": report.mode, "status": report.status,
                   "patterns_checked": report.patterns_checked, "witness": None},
    }


def build_ks_document(m: int, mode: str = SIGN_ONLY) -> dict:
    try:
        sections = _ks_sections(m, mode)
    except _Rejected as exc:
        raise AssertionError(f"freshly built certificate failed to verify: {exc}") from None
    return {"kind": KS_KIND, "format_version": FORMAT_VERSION, "levels": m, **sections,
            "provenance": {"tool": f"ghzcert {_tool_version}"}}


def verify_ks_document(doc: dict) -> tuple[bool, str]:
    if reason := _shape_reason(doc, KS_KIND, "KS", _KS_SHAPE):
        return False, reason
    mode = doc["search"]["mode"]
    if mode not in (SIGN_ONLY, FULL_SPECTRUM):
        return False, f"unknown search mode {mode!r}"
    try:
        derived = _ks_sections(doc["levels"], mode)
    except GhzError as exc:
        return False, f"configuration rebuild failed: {exc}"
    except _Rejected as exc:
        return False, str(exc)
    return _compare_sections(doc, derived, _KS_SHAPE)


def verify_document(doc: dict, bound: int | None = None) -> tuple[bool, str]:
    """Dispatch on the certificate kind; ``bound`` is the caller's LHV
    enumeration cap, as in ``verify_ghz_document``."""
    if not isinstance(doc, dict):
        return False, _NOT_AN_OBJECT
    kind = doc.get("kind")
    if kind == GHZ_KIND:
        return verify_ghz_document(doc, bound)
    if kind == KS_KIND:
        return verify_ks_document(doc)
    return False, f"unknown certificate kind {kind!r}"
