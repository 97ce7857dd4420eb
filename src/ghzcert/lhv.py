"""Local value assignments versus the constraint system of a selected state.

Once an eligible eigenvector is fixed, each word yields one equation: the
product of the one-particle values chosen for its letters must equal the
word's eigenvalue. Unsatisfiability is established twice, independently:

* analytically -- every one-particle observable occurs an even number of
  times across the product plan, so the left-hand side of the multiplied-out
  system is a product of squares, while the right-hand side is negative;
* by exhaustive search -- every assignment drawing each value from the exact
  spectrum of its site operator, walked in lexicographic order with refuted
  prefixes counted whole (``ghzcert.search``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import SearchBoundError
from .exact import ONE, format_rational
from .search import Check, first_assignment
from .spectral import GhzState, eigen_tuple_plan_product
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
    """Word equations over one value slot per (party, letter)."""

    letter_words: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    plan: tuple[int, ...]
    slots: tuple[Slot, ...]
    domains: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def build(
        cls,
        ps: ProofSet,
        rhs: tuple[Fraction, ...],
        pairs: SitePairs | None = None,
    ) -> ConstraintSystem:
        if len(rhs) != len(ps.words):
            raise ValueError(f"{len(rhs)} right-hand sides for {len(ps.words)} words")
        if pairs is None:
            pairs = ps.parties.canonical_pairs()
        slots: list[Slot] = []
        domains: list[tuple[Fraction, ...]] = []
        for party, (a_op, b_op) in enumerate(pairs):
            for letter, op in zip(LETTERS, (a_op, b_op)):
                slots.append((party, letter))
                domains.append(op.spectrum_values())
        return cls(ps.letter_words, tuple(rhs), ps.product_plan,
                   tuple(slots), tuple(domains))

    @classmethod
    def for_state(
        cls, ps: ProofSet, state: GhzState, pairs: SitePairs | None = None
    ) -> ConstraintSystem:
        return cls.build(ps, state.eigen_tuple, pairs)

    @property
    def assignment_space(self) -> int:
        size = 1
        for d in self.domains:
            size *= len(d)
        return size

    def slot_index(self, slot: Slot) -> int:
        return self.slots.index(slot)

    def word_slot_indices(self) -> tuple[tuple[int, ...], ...]:
        index = {slot: k for k, slot in enumerate(self.slots)}
        return tuple(
            tuple(index[(party, letter)] for party, letter in enumerate(word))
            for word in self.letter_words
        )

    def plan_slot_multiplicities(self) -> dict[Slot, int]:
        counts: dict[Slot, int] = {}
        for i in self.plan:
            word = self.letter_words[i]
            for party, letter in enumerate(word):
                counts[(party, letter)] = counts.get((party, letter), 0) + 1
        return counts


@dataclass(frozen=True)
class LhvReport:
    """Outcome of an unsatisfiability analysis."""

    status: str
    witness: tuple[tuple[Slot, Fraction], ...] | None
    method: str
    assignments_checked: int
    sign_only: bool = False


def parity_unsat(cs: ConstraintSystem) -> bool:
    """Analytic obstruction: every used slot occurs an even number of times
    across the plan, and the planned right-hand product is negative. When
    both hold, no nonzero assignment can work, and zero values are excluded
    by the nonzero right-hand sides."""
    counts = cs.plan_slot_multiplicities()
    if any(m % 2 for m in counts.values()):
        return False
    return eigen_tuple_plan_product(cs.rhs, cs.plan) < 0


def verify_witness(cs: ConstraintSystem, witness: dict[Slot, Fraction]) -> bool:
    """Re-check a claimed satisfying assignment by direct substitution."""
    for word, target in zip(cs.letter_words, cs.rhs):
        prod = ONE
        for party, letter in enumerate(word):
            prod *= witness[(party, letter)]
        if prod != target:
            return False
    return True


def brute_force_lhv(
    cs: ConstraintSystem, bound: int = DEFAULT_BOUND, sign_only: bool = False
) -> LhvReport:
    """Exhaustive search over all value assignments.

    Values range over the exact site spectra (or over signs in the fast
    pre-check mode, where a sign refutation implies a full refutation).
    Assignments are walked in lexicographic order under ascending domains,
    with refuted prefixes counted whole, so ``assignments_checked`` is the
    complete count for UNSAT and the 1-based position of the
    lexicographically first witness for SAT.
    """
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
    space = math.prod(len(d) for d in domains)
    if space > bound:
        raise SearchBoundError(
            f"assignment space {space} exceeds the bound {bound}"
        )
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
    if cs.assignment_space > bound:
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


def explain_parity(cs: ConstraintSystem) -> str:
    """Human-readable account of the analytic obstruction with the actual
    slot multiplicities and right-hand product."""
    counts = cs.plan_slot_multiplicities()
    usage = ", ".join(
        f"{slot_label(slot)}:{counts[slot]}" for slot in sorted(counts)
    )
    rhs_prod = eigen_tuple_plan_product(cs.rhs, cs.plan)
    if parity_unsat(cs):
        return (
            f"multiplying all planned equations, every one-particle value "
            f"enters an even number of times ({usage}), so the left side is "
            f"a product of squares and cannot be negative; the right side "
            f"is {format_rational(rhs_prod)} < 0, so no assignment exists"
        )
    return (
        f"no parity obstruction: slot usage {usage}, right-hand product "
        f"{format_rational(rhs_prod)}"
    )
