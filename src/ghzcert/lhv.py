"""Local value assignments versus the constraint system of a selected state.

Once an eligible eigenvector is fixed, each word yields one equation: the
product of the one-particle values chosen for its letters must equal the
word's eigenvalue. Unsatisfiability is established twice, independently:

* analytically -- every one-particle observable occurs an even number of
  times across the product plan (the proof set's ``even_slot_usage``
  requirement flag), so the left-hand side of the multiplied-out system is a
  product of squares, while the right-hand side is negative;
* by the search kernel (``ghzcert.search``) over every assignment drawing
  each value from the exact spectrum of its site operator, an integer over
  the operator's scale -- it refutes the
  word equations' sign system by elimination over GF(2), trying every
  combination of equations rather than just the plan, and reports the size
  of the assignment space as the count without visiting each assignment; a
  satisfiable sign system is walked in lexicographic order instead, with
  refuted prefixes counted whole.

The caller's bound still runs first, so a space past it gets the analytic
verdict alone (method ``parity-analytic``) exactly as when every assignment
was visited; it keeps certificate bytes stable and caps satisfiable walks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import SearchBoundError
from .exact import format_integer, format_rational
from .search import Check, first_assignment
from .spectral import eigen_tuple_plan_product
from .words import LETTERS, ProofSet, SitePairs

DEFAULT_BOUND = 10**8

SAT = "SAT"
UNSAT = "UNSAT"

Slot = tuple[int, str]  # (party index, letter)


def slot_label(slot: Slot) -> str:
    party, letter = slot
    return f"{letter}{party + 1}"


@dataclass(frozen=True)
class ConstraintSystem:
    """The equations of a proof set's words over one value slot per (party,
    letter), slot 2 * party + the letter's index in ``LETTERS``.

    Slot k takes its site operator's eigenvalues over ``scales[k]``, and a
    word's right-hand side is over its operator's scale, the product of its
    slots' scales: the equations are between integers."""

    proof_set: ProofSet
    rhs: tuple[int, ...]
    slots: tuple[Slot, ...]
    domains: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]

    @classmethod
    def build(
        cls,
        ps: ProofSet,
        rhs: tuple[int, ...],
        pairs: SitePairs | None = None,
    ) -> ConstraintSystem:
        if len(rhs) != len(ps.words):
            raise ValueError(f"{len(rhs)} right-hand sides for {len(ps.words)} words")
        if pairs is None:
            pairs = ps.parties.canonical_pairs()
        slots: list[Slot] = []
        domains: list[tuple[int, ...]] = []
        scales: list[int] = []
        # each distinct operator's eigenvalues are read once; operators are
        # told apart by identity, so parties that share a pair share them
        read: dict[int, tuple[int, ...]] = {}
        for party, pair in enumerate(pairs):
            for letter, op in zip(LETTERS, pair):
                slots.append((party, letter))
                if id(op) not in read:
                    read[id(op)] = tuple([v for v, _ in op.eigenvalue_counts])
                domains.append(read[id(op)])
                scales.append(op.scale)
        return cls(ps, tuple(rhs), tuple(slots), tuple(domains), tuple(scales))

    def word_slot_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple([
            tuple([2 * party + LETTERS.index(letter) for party, letter in enumerate(word)])
            for word in self.proof_set.letter_words
        ])


@dataclass(frozen=True)
class LhvReport:
    """Outcome of an unsatisfiability analysis."""

    status: str
    witness: tuple[tuple[Slot, int], ...] | None  # values over the slots' scales
    method: str
    assignments_checked: int
    sign_only: bool = False


def parity_unsat(cs: ConstraintSystem) -> bool:
    """Analytic obstruction: every slot occurs an even number of times across
    the plan (the ``even_slot_usage`` flag), and the planned right-hand product
    is negative. When both hold, no nonzero assignment can work, and zero
    values are excluded by the nonzero right-hand sides."""
    ps = cs.proof_set
    return (ps.requirement_flags["even_slot_usage"]
            and eigen_tuple_plan_product(cs.rhs, ps.product_plan) < 0)


def _space_exceeds(domains: tuple[tuple[int, ...], ...], bound: int) -> bool:
    """Whether the assignment space, the product of the domain sizes, passes
    ``bound``. No domain is empty, so the sizes are multiplied only until
    their product does, and a space of n digits costs no n-digit product."""
    size = 1
    for d in domains:
        size *= len(d)
        if size > bound:
            return True
    return size > bound


def brute_force_lhv(
    cs: ConstraintSystem, bound: int = DEFAULT_BOUND, sign_only: bool = False
) -> LhvReport:
    """Search over all value assignments.

    Values range over the exact site spectra (or over signs in the fast
    pre-check mode, where a sign refutation implies a full refutation).
    ``assignments_checked`` is the size of the whole space for UNSAT --
    certified by a sign refutation when there is one, otherwise by the walk
    -- and for SAT the 1-based position of the lexicographically first
    witness under ascending domains.
    """
    if sign_only:
        domains: tuple[tuple[int, ...], ...] = tuple([(-1, 1) for _ in cs.domains])
        targets = tuple([1 if t > 0 else -1 if t < 0 else 0 for t in cs.rhs])
    else:
        domains = cs.domains
        targets = cs.rhs
    if _space_exceeds(domains, bound):
        space = format_integer(math.prod(len(d) for d in domains))
        raise SearchBoundError(f"assignment space {space} exceeds the bound {bound}")
    checks = [
        Check(slots, allowed=frozenset((target,)))
        for slots, target in zip(cs.word_slot_indices(), targets)
    ]
    checked, values = first_assignment(domains, checks)
    if values is None:
        return LhvReport(UNSAT, None, "brute-force", checked, sign_only)
    witness = tuple(zip(cs.slots, values))
    return LhvReport(SAT, witness, "brute-force", checked, sign_only)


def analyze_lhv(cs: ConstraintSystem, bound: int = DEFAULT_BOUND) -> LhvReport:
    """Run the analytic check and the brute force together.

    When the assignment space fits the bound both must agree; past the bound
    the analytic result stands alone (reported as such).
    """
    analytic = parity_unsat(cs)
    if _space_exceeds(cs.domains, bound):
        if not analytic:
            raise SearchBoundError(
                "assignment space exceeds the bound and no analytic "
                "obstruction applies"
            )
        return LhvReport(UNSAT, None, "parity-analytic", 0)
    report = brute_force_lhv(cs, bound)
    if analytic and report.status != UNSAT:
        raise AssertionError(
            "analytic obstruction holds but brute force found a witness"
        )
    return LhvReport(report.status, report.witness, "both", report.assignments_checked)


def plan_slot_counts(cs: ConstraintSystem) -> Counter[Slot]:
    """How often each slot enters the plan, as `explain_parity` lists it."""
    ps = cs.proof_set
    return Counter([slot for i in ps.product_plan for slot in enumerate(ps.words[i].letters)])


def explain_parity(cs: ConstraintSystem) -> str:
    """Human-readable account of the analytic obstruction with the actual
    slot multiplicities and right-hand product."""
    counts = plan_slot_counts(cs)
    usage = ", ".join(
        f"{slot_label(slot)}:{counts[slot]}" for slot in sorted(counts)
    )
    scale_of = dict(zip(cs.slots, cs.scales))
    rhs_prod = format_rational(
        eigen_tuple_plan_product(cs.rhs, cs.proof_set.product_plan),
        math.prod(scale_of[slot] ** k for slot, k in counts.items()),
    )
    if parity_unsat(cs):
        return (
            f"multiplying all planned equations, every one-particle value "
            f"enters an even number of times ({usage}), so the left side is "
            f"a product of squares and cannot be negative; the right side "
            f"is {rhs_prod} < 0, so no assignment exists"
        )
    return (
        f"no parity obstruction: slot usage {usage}, right-hand product "
        f"{rhs_prod}"
    )
