"""Independent brute-force oracles for the exhaustive search kernel.

These are the plain ``itertools.product`` loops the package used before its
searches moved onto ``ghzcert.search.first_assignment``. They visit every
assignment one by one, with no pruning, scaling or division, so agreement
with the kernel on status, count and witness checks the kernel's
prefix refutation and counting.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ghzcert.errors import SearchBoundError
from ghzcert.exact import ONE
from ghzcert.kochen_specker import (
    FULL_SPECTRUM,
    KS_SAT,
    KS_UNSAT,
    SIGN_ONLY,
    KsConfiguration,
    KsReport,
    plan_product_spectrum,
)
from ghzcert.lhv import DEFAULT_BOUND, SAT, UNSAT, ConstraintSystem, LhvReport
from ghzcert.search import Check


def brute_force_lhv(
    cs: ConstraintSystem, bound: int = DEFAULT_BOUND, sign_only: bool = False
) -> LhvReport:
    if sign_only:
        domains: tuple[tuple[Fraction, ...], ...] = tuple(
            (Fraction(-1), Fraction(1)) for _ in cs.domains
        )
        targets = tuple(
            Fraction(1) if t > 0 else Fraction(-1) if t < 0 else Fraction(0)
            for t in cs.rhs
        )
    else:
        domains = cs.domains
        targets = cs.rhs
    space = 1
    for d in domains:
        space *= len(d)
    if space > bound:
        raise SearchBoundError(
            f"assignment space {space} exceeds the bound {bound}"
        )
    word_slots = cs.word_slot_indices()
    method = "brute-force"
    checked = 0
    for assignment in itertools.product(*domains):
        checked += 1
        ok = True
        for slots, target in zip(word_slots, targets):
            prod = ONE
            for k in slots:
                prod *= assignment[k]
            if prod != target:
                ok = False
                break
        if ok:
            witness = tuple(zip(cs.slots, assignment))
            return LhvReport(SAT, witness, method, checked, sign_only)
    return LhvReport(UNSAT, None, method, checked, sign_only)


def ks_search_signs(cfg: KsConfiguration) -> KsReport:
    labels = [obs.label for obs in cfg.observables]
    checked = 0
    for signs in itertools.product((1, -1), repeat=len(cfg.observables)):
        checked += 1
        ok = True
        for ctx, target in zip(cfg.contexts, cfg.sign_targets):
            prod = 1
            for i in ctx:
                prod *= signs[i]
            if prod != target:
                ok = False
                break
        if ok:
            witness = tuple(
                (label, Fraction(sign)) for label, sign in zip(labels, signs)
            )
            return KsReport(KS_SAT, witness, checked, SIGN_ONLY)
    return KsReport(KS_UNSAT, None, checked, SIGN_ONLY)


def ks_search_full(cfg: KsConfiguration) -> KsReport:
    pairs = cfg.pairs()
    one_party = [
        (idx, obs) for idx, obs in enumerate(cfg.observables) if not obs.is_composite
    ]
    domains = []
    for _, obs in one_party:
        party = next(p for p, c in enumerate(obs.letters) if c != "I")
        a_op, b_op = pairs[party]
        op = a_op if obs.letters[party] == "A" else b_op
        domains.append(tuple(sorted(op.spectrum_values(), reverse=True)))
    factor_of = {idx: k for k, (idx, _) in enumerate(one_party)}
    composite_ids = [i for i, obs in enumerate(cfg.observables) if obs.is_composite]
    composite_factors = {
        ctx[0]: tuple(factor_of[i] for i in ctx[1:]) for ctx in cfg.contexts[1:]
    }
    allowed_products = set(plan_product_spectrum(cfg).as_dict())

    labels = [obs.label for obs in cfg.observables]
    checked = 0
    for values in itertools.product(*domains):
        checked += 1
        value_of: dict[int, Fraction] = {
            idx: values[k] for k, (idx, _) in enumerate(one_party)
        }
        for cid in composite_ids:
            prod = ONE
            for k in composite_factors[cid]:
                prod *= values[k]
            value_of[cid] = prod
        ok = True
        for ctx, target in zip(cfg.contexts, cfg.sign_targets):
            prod = ONE
            for i in ctx:
                prod *= value_of[i]
            if (prod > 0) != (target > 0):
                ok = False
                break
        if ok:
            horizontal = ONE
            for i in cfg.contexts[0]:
                horizontal *= value_of[i]
            if horizontal not in allowed_products:
                ok = False
        if ok:
            witness = tuple((labels[i], value_of[i]) for i in sorted(value_of))
            return KsReport(KS_SAT, witness, checked, FULL_SPECTRUM)
    return KsReport(KS_UNSAT, None, checked, FULL_SPECTRUM)


def ks_color_search(cfg: KsConfiguration, mode: str = SIGN_ONLY) -> KsReport:
    if mode == SIGN_ONLY:
        return ks_search_signs(cfg)
    if mode == FULL_SPECTRUM:
        return ks_search_full(cfg)
    raise ValueError(f"unknown search mode {mode!r}")


def first_assignment(domains, checks: list[Check]) -> tuple[int, tuple | None]:
    """The kernel's contract, computed one assignment at a time in Fractions."""
    checked = 0
    for assignment in itertools.product(*domains):
        checked += 1
        ok = True
        for check in checks:
            prod = ONE
            for k in check.slots:
                prod *= assignment[k]
            if check.allowed is not None and prod not in check.allowed:
                ok = False
                break
            if check.positive is not None and (prod > 0) != check.positive:
                ok = False
                break
        if ok:
            return checked, assignment
    return checked, None
