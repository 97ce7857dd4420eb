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
eigenvalues can satisfy all five functional relations at once. The search
routines confirm this through the search kernel, which finds exactly this
sign contradiction by elimination over GF(2) and reports the size of the
pattern space without visiting each pattern.

Even level counts are essential: they keep every eigenvalue away from zero,
which is what makes the context products definite.

Every context commutes by the letter rule (`words.letters_commute`), every
observable sits in exactly two contexts, and every side context is the
product of the squares of its composite word's letters, one operator for
all four since A^2 = B^2. These are facts of the fixed configuration,
pinned by the tests. In every context each one-particle operator occurs an
even number of times, so `build_ks` reads the horizontal and the side
product off site by site (`spectral.context_product`), with no matrix
product. It asserts only their definiteness, which depends on m and which
the sign targets rest on; the configuration carries both spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParityError
from .exact import MonomialMatrix
from .search import Check, first_assignment
from .siteops import canonical_pair
from .spectral import (
    NEGATIVE_DEFINITE,
    POSITIVE_DEFINITE,
    Spectrum,
    context_product,
    spectrum_of_factored,
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


@dataclass(frozen=True)
class KsConfiguration:
    """The ten observables, five contexts, required product signs, the
    spectra of the horizontal product and of the one side product, and the
    site pair every party shares."""

    levels: int
    observables: tuple[KsObservable, ...]
    contexts: tuple[tuple[int, int, int, int], ...]
    sign_targets: tuple[int, ...]
    horizontal_spectrum: Spectrum
    side_spectrum: Spectrum
    pair: tuple[MonomialMatrix, MonomialMatrix] = field(repr=False, compare=False)


@dataclass(frozen=True)
class KsReport:
    """A search outcome; witness values are over their observables' scales."""

    status: str
    witness: tuple[tuple[str, int], ...] | None
    patterns_checked: int
    mode: str


def build_ks(m: int) -> KsConfiguration:
    """Construct the configuration for even m."""
    if m < 2:
        raise ParityError(f"level count must be at least 2, got {m}")
    if m % 2 != 0:
        raise ParityError(
            f"the noncontextuality construction needs even levels, got {m}"
        )
    observables = [KsObservable(word, tuple(word)) for word in COMPOSITE_WORDS]
    observables += [
        KsObservable(f"{c}{p + 1}", tuple([c if q == p else "I" for q in range(3)]))
        for p in range(3)
        for c in "AB"
    ]
    index = {obs.label: i for i, obs in enumerate(observables)}
    contexts = [(0, 1, 2, 3)] + [
        (k,) + tuple([index[f"{letter}{p + 1}"] for p, letter in enumerate(word)])
        for k, word in enumerate(COMPOSITE_WORDS)
    ]
    sign_targets = [-1] + [1] * len(COMPOSITE_WORDS)
    pair = canonical_pair(m)
    pairs = (pair,) * 3
    horizontal, side = (
        spectrum_of_factored(context_product(pairs, [observables[i].letters for i in ctx]))
        for ctx in contexts[:2]
    )
    if horizontal.classify() != NEGATIVE_DEFINITE:
        raise AssertionError("the composite-context product must be negative-definite")
    if side.classify() != POSITIVE_DEFINITE:
        raise AssertionError("side-context products must be positive-definite")
    return KsConfiguration(
        m, tuple(observables), tuple(contexts), tuple(sign_targets), horizontal, side, pair
    )


def ks_color_search(cfg: KsConfiguration, mode: str = SIGN_ONLY) -> KsReport:
    """Search for a noncontextual value assignment.

    Sign-only mode ranges over all 2^10 sign patterns against the context
    sign targets. Full-spectrum mode ranges over all assignments of
    one-party eigenvalues, forces each composite's value to the product of
    its three factor values, and additionally requires the product of the
    four composite values to be an eigenvalue of their operator product.
    ``patterns_checked`` is the size of the pattern space for UNSAT --
    certified by a sign refutation when there is one, otherwise by a walk in
    lexicographic order with refuted prefixes counted whole -- and the
    1-based position of the first witness for SAT. The walk prefers larger
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
    witness = tuple([(obs.label, sign) for obs, sign in zip(cfg.observables, signs)])
    return KsReport(KS_SAT, witness, checked, SIGN_ONLY)


def _search_full(cfg: KsConfiguration) -> KsReport:
    # One search slot per one-party observable, in observable order: every
    # party's A then B (A1 B1 A2 B2 A3 B3, as `build_ks` lists them), each on
    # the shared pair. Each composite stands for the product of its three factors.
    domains = [tuple([v for v, _ in reversed(op.eigenvalue_counts)]) for op in cfg.pair] * 3
    slot_of = {len(COMPOSITE_WORDS) + k: (k,) for k in range(len(domains))}
    for ctx in cfg.contexts[1:]:
        slot_of[ctx[0]] = tuple([k for i in ctx[1:] for k in slot_of[i]])
    # the horizontal product and the product of its twelve slots' values are
    # over the same scale, that of the twelve site operators
    allowed_products = frozenset(v for v, _ in cfg.horizontal_spectrum.entries)

    checks = [
        Check(
            tuple([k for i in ctx for k in slot_of[i]]),
            allowed=allowed_products if c == 0 else None,
            positive=target > 0,
        )
        for c, (ctx, target) in enumerate(zip(cfg.contexts, cfg.sign_targets))
    ]
    checked, values = first_assignment(domains, checks)
    if values is None:
        return KsReport(KS_UNSAT, None, checked, FULL_SPECTRUM)
    witness = tuple([
        (obs.label, math.prod(values[k] for k in slot_of[idx]))
        for idx, obs in enumerate(cfg.observables)
    ])
    return KsReport(KS_SAT, witness, checked, FULL_SPECTRUM)


def render_contexts(cfg: KsConfiguration) -> str:
    """Plain-text listing of the five contexts and their sign targets."""
    lines = []
    for ctx, target in zip(cfg.contexts, cfg.sign_targets):
        members = ", ".join(cfg.observables[i].label for i in ctx)
        sign = "negative" if target < 0 else "positive"
        lines.append(f"{members}  (value product must be {sign})")
    return "\n".join(lines)
