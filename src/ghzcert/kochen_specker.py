"""Ten-observable noncontextuality test on three even-level parties.

The configuration holds the four composite words ABB, BAB, BBA, AAA together
with the six one-party observables that appear in them (embedded with
identity factors so everything acts on the same composite space). Five
contexts of four mutually commuting observables each are formed:

    ABB BAB BBA AAA     product negative-definite
    ABB A1 B2 B3        product positive-definite
    BAB B1 A2 B3        product positive-definite (the same operator)
    BBA B1 B2 A3        product positive-definite (the same operator)
    AAA A1 A2 A3        product positive-definite (the same operator)

Each observable sits in exactly two contexts, so the product of all five
context value-products is a product of squares -- positive -- while the sign
targets demand four positive contexts and one negative. No assignment of
eigenvalues can satisfy all five functional relations at once; the search
routines confirm this by exhaustive enumeration.

Even level counts are essential: they keep every eigenvalue away from zero,
which is what makes the context products definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParityError
from .exact import MonomialMatrix, ONE, monomial_compose, monomial_equal, monomial_tensor
from .search import Check, first_assignment
from .siteops import SiteOperator, canonical_pair
from .spectral import (
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    Spectrum,
    check_mutually_commuting,
    classify_definiteness,
    spectrum_of_monomial,
)

COMPOSITE_WORDS = ("ABB", "BAB", "BBA", "AAA")

SIGN_ONLY = "sign-only"
FULL_SPECTRUM = "full-spectrum"

KS_SAT = "SAT"
KS_UNSAT = "UNSAT"


@dataclass(frozen=True)
class KsObservable:
    """One of the ten observables: a composite word, or a one-party operator
    padded with identity letters."""

    label: str
    letters: tuple[str, ...]  # per party: "A", "B", or "I"

    def realize(self, pairs: tuple[tuple[SiteOperator, SiteOperator], ...]) -> MonomialMatrix:
        mats = []
        for letter, (a_op, b_op) in zip(self.letters, pairs):
            if letter == "A":
                mats.append(a_op.to_monomial())
            elif letter == "B":
                mats.append(b_op.to_monomial())
            else:
                mats.append(MonomialMatrix.identity(a_op.dim))
        acc = mats[0]
        for m in mats[1:]:
            acc = monomial_tensor(acc, m)
        return acc

    @property
    def is_composite(self) -> bool:
        return "I" not in self.letters


@dataclass(frozen=True)
class KsConfiguration:
    """The ten observables, five contexts, and required product signs."""

    levels: int
    observables: tuple[KsObservable, ...]
    contexts: tuple[tuple[int, int, int, int], ...]
    sign_targets: tuple[int, ...]

    def pairs(self) -> tuple[tuple[SiteOperator, SiteOperator], ...]:
        return tuple(canonical_pair(self.levels) for _ in range(3))

    def realized(self) -> list[MonomialMatrix]:
        pairs = self.pairs()
        return [obs.realize(pairs) for obs in self.observables]


@dataclass(frozen=True)
class KsReport:
    status: str
    witness: tuple[tuple[str, Fraction], ...] | None
    patterns_checked: int
    mode: str


def _one_party_label(letter: str, party: int) -> str:
    return f"{letter}{party + 1}"


def build_ks(m: int) -> KsConfiguration:
    """Construct and structurally verify the configuration for even m."""
    if m < 2:
        raise ParityError(f"level count must be at least 2, got {m}")
    if m % 2 != 0:
        raise ParityError(
            f"the noncontextuality construction needs even levels, got {m}"
        )
    observables = [
        KsObservable(word, tuple(word)) for word in COMPOSITE_WORDS
    ]
    one_party_index: dict[str, int] = {}
    for party in range(3):
        for letter in "AB":
            letters = tuple(
                letter if p == party else "I" for p in range(3)
            )
            label = _one_party_label(letter, party)
            one_party_index[label] = len(observables)
            observables.append(KsObservable(label, letters))
    contexts = [(0, 1, 2, 3)]
    sign_targets = [-1]
    for k, word in enumerate(COMPOSITE_WORDS):
        factors = tuple(
            one_party_index[_one_party_label(letter, party)]
            for party, letter in enumerate(word)
        )
        contexts.append((k,) + factors)
        sign_targets.append(1)
    cfg = KsConfiguration(m, tuple(observables), tuple(contexts), tuple(sign_targets))
    _verify_structure(cfg)
    return cfg


def _verify_structure(cfg: KsConfiguration) -> None:
    mats = cfg.realized()
    appearances = [0] * len(cfg.observables)
    for ctx in cfg.contexts:
        for i in ctx:
            appearances[i] += 1
        if not check_mutually_commuting([mats[i] for i in ctx]):
            raise AssertionError(f"context {ctx} is not mutually commuting")
    if any(count != 2 for count in appearances):
        raise AssertionError("every observable must sit in exactly two contexts")
    products = [monomial_compose([mats[i] for i in ctx]) for ctx in cfg.contexts]
    if classify_definiteness(products[0]) != NEGATIVE_DEFINITE:
        raise AssertionError("the composite-context product must be negative-definite")
    side = products[1]
    if classify_definiteness(side) != POSITIVE_DEFINITE:
        raise AssertionError("side-context products must be positive-definite")
    for other in products[2:]:
        if not monomial_equal(side, other):
            raise AssertionError("side-context products must all be the same operator")


def shared_side_product(cfg: KsConfiguration) -> MonomialMatrix:
    """The one operator every non-horizontal context multiplies out to."""
    mats = cfg.realized()
    return monomial_compose([mats[i] for i in cfg.contexts[1]])


def plan_product_spectrum(cfg: KsConfiguration) -> Spectrum:
    """Spectrum of the product of the four composite observables."""
    mats = cfg.realized()
    return spectrum_of_monomial(monomial_compose([mats[i] for i in cfg.contexts[0]]))


def ks_color_search(cfg: KsConfiguration, mode: str = SIGN_ONLY) -> KsReport:
    """Search for a noncontextual value assignment.

    Sign-only mode scans all 2^10 sign patterns against the context sign
    targets. Full-spectrum mode scans all assignments of one-party
    eigenvalues, forces each composite's value to the product of its three
    factor values, and additionally requires the product of the four
    composite values to be an eigenvalue of their operator product.
    Enumeration is exhaustive, in lexicographic order with refuted prefixes
    counted whole, so ``patterns_checked`` is the complete count for UNSAT
    and the 1-based position of the first witness for SAT. It prefers larger
    values first, so a satisfiable control case reports its all-positive
    witness.
    """
    if mode == SIGN_ONLY:
        return _search_signs(cfg)
    if mode == FULL_SPECTRUM:
        return _search_full(cfg)
    raise ValueError(f"unknown search mode {mode!r}")


def _search_signs(cfg: KsConfiguration) -> KsReport:
    checks = [
        Check(ctx, allowed=frozenset((target,)))
        for ctx, target in zip(cfg.contexts, cfg.sign_targets)
    ]
    checked, signs = first_assignment([(1, -1)] * len(cfg.observables), checks)
    if signs is None:
        return KsReport(KS_UNSAT, None, checked, SIGN_ONLY)
    witness = tuple(
        (obs.label, Fraction(sign)) for obs, sign in zip(cfg.observables, signs)
    )
    return KsReport(KS_SAT, witness, checked, SIGN_ONLY)


def _search_full(cfg: KsConfiguration) -> KsReport:
    # One search slot per one-party observable, in observable order; each
    # composite stands for the product of its three factors.
    pairs = cfg.pairs()
    slot_of: dict[int, tuple[int, ...]] = {}
    domains = []
    for idx, obs in enumerate(cfg.observables):
        if obs.is_composite:
            continue
        party = next(p for p, c in enumerate(obs.letters) if c != "I")
        a_op, b_op = pairs[party]
        op = a_op if obs.letters[party] == "A" else b_op
        slot_of[idx] = (len(domains),)
        domains.append(tuple(sorted(op.spectrum_values(), reverse=True)))
    for ctx in cfg.contexts[1:]:
        slot_of[ctx[0]] = tuple(k for i in ctx[1:] for k in slot_of[i])
    allowed_products = frozenset(plan_product_spectrum(cfg).as_dict())

    checks = [
        Check(
            tuple(k for i in ctx for k in slot_of[i]),
            allowed=allowed_products if c == 0 else None,
            positive=target > 0,
        )
        for c, (ctx, target) in enumerate(zip(cfg.contexts, cfg.sign_targets))
    ]
    checked, values = first_assignment(domains, checks)
    if values is None:
        return KsReport(KS_UNSAT, None, checked, FULL_SPECTRUM)
    witness = tuple(
        (obs.label, math.prod((values[k] for k in slot_of[idx]), start=ONE))
        for idx, obs in enumerate(cfg.observables)
    )
    return KsReport(KS_SAT, witness, checked, FULL_SPECTRUM)


def render_contexts(cfg: KsConfiguration) -> str:
    """Plain-text listing of the five contexts and their sign targets."""
    lines = []
    for ctx, target in zip(cfg.contexts, cfg.sign_targets):
        members = ", ".join(cfg.observables[i].label for i in ctx)
        sign = "negative" if target < 0 else "positive"
        lines.append(f"{members}  (value product must be {sign})")
    return "\n".join(lines)
