"""Tensor words over the letters {A, B} and the rules that govern a proof set.

A word assigns one letter per party; letter A selects the diagonal site
operator and letter B the anti-diagonal one. Two words commute exactly when
their letters differ at an even number of positions (sitewise anticommutation
turns each differing position into one sign flip). `letters_commute`, the
only commutation rule, also takes the identity letter I.

A usable four-word set must satisfy four combinatorial requirements:

1. every word carries the same parity of A letters (pairwise commutation);
2. exactly one word's A count differs from the common count of the others,
   with the same parity (keeps the plan product free of positive eigenvalues);
3. counted through the product plan, every one-particle operator that is
   used at all is used an even number of times (the parity contradiction);
4. both letters occur at every party (all particles matter).

Odd party counts admit such sets directly; even party counts do not, and are
handled by extending an odd set with a trailing B plus one extra word that is
taken twice in the product plan.

Requirements 3 and 4 leave every party column of a four-word set exactly two
A letters, so each column is one of six types, and the other requirements and
the plan sign depend only on how many columns there are of each type. The
lexicographically first set has a closed form in those counts, and so does
the extra word of the even case: a proof set is built in O(n) for n parties.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import (
    InvalidLevelsError,
    ParityError,
    PartyMismatchError,
)
from .exact import FactoredMonomial, MonomialMatrix
from .siteops import canonical_pair

LETTERS = "AB"

SitePairs = tuple[tuple[MonomialMatrix, MonomialMatrix], ...]


@dataclass(frozen=True)
class PartySpec:
    """Level counts per party: n >= 3 parties with m >= 2 levels each, in any
    mix of parities. On the span of a site's extreme levels e_0 and e_{m-1}
    the canonical A(m) and B(m) are s*Z and s*X with s = (m-1)/2 > 0; every
    word leaves that span invariant and acts there as a Pauli word times a
    positive scalar, so the qubit argument holds for any level list."""

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if any(type(m) is not int for m in self.levels):
            raise InvalidLevelsError(f"level counts must be integers, got {self.levels}")
        if len(self.levels) < 3:
            raise InvalidLevelsError(
                f"need at least 3 parties, got {len(self.levels)}"
            )
        if any(m < 2 for m in self.levels):
            raise InvalidLevelsError("every party needs at least 2 levels")

    @property
    def n(self) -> int:
        return len(self.levels)

    def canonical_pairs(self) -> SitePairs:
        """The canonical pair of every party, built once per distinct level
        count: parties with equal level counts share one pair object."""
        built = {m: canonical_pair(m) for m in dict.fromkeys(self.levels)}
        return tuple([built[m] for m in self.levels])


@dataclass(frozen=True)
class TensorWord:
    """A letter per party; its operator is a weighted involutive monomial matrix."""

    letters: str
    parties: PartySpec

    def __post_init__(self) -> None:
        if len(self.letters) != self.parties.n:
            raise PartyMismatchError(
                f"word {self.letters!r} has {len(self.letters)} letters "
                f"for {self.parties.n} parties"
            )
        if any(c not in LETTERS for c in self.letters):
            raise ValueError(f"word letters must be drawn from {LETTERS!r}")

    @property
    def a_count(self) -> int:
        return self.letters.count("A")

    def factored(self, pairs: SitePairs | None = None) -> FactoredMonomial:
        """The word's operator, one site factor per party."""
        if pairs is None:
            pairs = self.parties.canonical_pairs()
        return factor_letters(self.letters, pairs, self.parties.levels)

    def realize(self, pairs: SitePairs | None = None) -> MonomialMatrix:
        """The word's operator as a monomial matrix on the composite space."""
        return self.factored(pairs).expand()

    def __str__(self) -> str:
        return self.letters


def factor_letters(
    letters: Sequence[str], pairs: SitePairs, levels: tuple[int, ...]
) -> FactoredMonomial:
    """The operator of a letter string, kept factored: letter A picks the
    party's diagonal site operator, B its anti-diagonal one and I the
    identity. Each site operator must match its party's level count."""
    factors = []
    for letter, (a_op, b_op), m in zip(letters, pairs, levels):
        if letter == "I":
            factors.append(MonomialMatrix.identity(m))
            continue
        op = a_op if letter == "A" else b_op
        if op.dim != m:
            raise PartyMismatchError(
                f"site operator dimension {op.dim} does not match level {m}"
            )
        factors.append(op)
    return FactoredMonomial(tuple(factors))


def letters_commute(x: Sequence[str], y: Sequence[str]) -> bool:
    """The letter rule: two letter strings over {A, B, I} commute iff they
    hold different letters from {A, B} at an even number of parties. It
    holds when every party's A and B anticommute."""
    if "I" in x or "I" in y:
        return sum(1 for p, q in zip(x, y) if p != q and "I" not in (p, q)) % 2 == 0
    # over {A, B}, #A(x) + #A(y) counts the differing parties, plus twice the shared As
    return (x.count("A") + y.count("A")) % 2 == 0


def _flags(letter_words: tuple[str, ...], plan: tuple[int, ...]) -> dict[str, bool]:
    """The four proof-set requirements by name, as a certificate stores them."""
    a_counts = [w.count("A") for w in letter_words]
    plan_counts = Counter([a_counts[i] for i in plan])
    # one string per party: its letters down the plan, and down the words
    plan_columns = map("".join, zip(*[letter_words[i] for i in plan]))
    return {
        "equal_a_parity": len({c % 2 for c in a_counts}) == 1,
        "unique_count_outlier": (len(plan_counts) == 2 and min(plan_counts.values()) == 1
                                 and len({c % 2 for c in plan_counts}) == 1),
        "even_slot_usage": all(c.count("A") % 2 == 0 and c.count("B") % 2 == 0
                               for c in plan_columns),
        "both_letters_per_party": all("A" in c and "B" in c
                                      for c in map("".join, zip(*letter_words))),
    }


def plan_product_sign(letter_words: tuple[str, ...], plan: tuple[int, ...]) -> int:
    """Sign of every nonzero diagonal entry of the plan product.

    The product of the planned words factors sitewise; at each site the
    letters multiply out to a nonnegative diagonal matrix times (-1) raised
    to the number of B-before-A letter pairs. Commutation makes the total
    parity independent of the plan order.
    """
    columns = zip(*[letter_words[i] for i in plan])
    return -1 if sum(map(column_inversions, columns)) % 2 else 1


def column_inversions(column: Sequence[str]) -> int:
    """The number of B-before-A letter pairs in one party's plan column."""
    inversions = b_seen = 0
    for letter in column:
        if letter == "B":
            b_seen += 1
        elif letter == "A":
            inversions += b_seen
    return inversions


def _check_plan(word_count: int, plan: tuple[int, ...]) -> None:
    if not word_count:
        raise ValueError("a proof set needs at least one word")
    if any(not 0 <= i < word_count for i in plan):
        raise ValueError("product plan references a word outside the set")


@dataclass(frozen=True)
class ProofSet:
    """Mutually commuting words plus the plan of indices whose operator
    product must have a nonpositive spectrum; the requirement flags are
    derived from both."""

    words: tuple[TensorWord, ...]
    product_plan: tuple[int, ...]
    requirement_flags: dict[str, bool] = field(init=False)

    def __post_init__(self) -> None:
        _check_plan(len(self.words), self.product_plan)
        parties = self.words[0].parties
        for w in self.words[1:]:
            if w.parties != parties:
                raise PartyMismatchError("proof-set words span different party specs")
        for u, v in itertools.combinations(self.words, 2):
            if not letters_commute(u.letters, v.letters):
                raise ValueError(f"words {u} and {v} do not commute")
        # the flags index the words through the plan, so they come after its check
        object.__setattr__(self, "requirement_flags", _flags(self.letter_words, self.product_plan))

    @classmethod
    def assemble(
        cls, words: tuple[TensorWord, ...], plan: tuple[int, ...] | None = None
    ) -> ProofSet:
        return cls(words, tuple(range(len(words))) if plan is None else plan)

    @property
    def parties(self) -> PartySpec:
        return self.words[0].parties

    @property
    def letter_words(self) -> tuple[str, ...]:
        return tuple([w.letters for w in self.words])

    def product_sign(self) -> int:
        return plan_product_sign(self.letter_words, self.product_plan)


# The six column types of a four-word set, read down its words, in lexicographic order.
_COLUMN_TYPES = ("AABB", "ABAB", "ABBA", "BAAB", "BABA", "BBAA")


def _checked(ps: ProofSet) -> ProofSet:
    """A constructed set, once its flags all hold and its plan sign is -1."""
    if not all(ps.requirement_flags.values()) or ps.product_sign() != -1:
        raise ValueError(
            f"constructed word set {' '.join(ps.letter_words)} is not a proof set"
        )
    return ps


def generate_odd_set(parties: PartySpec) -> ProofSet:
    """Deterministic four-word proof set for an odd number of parties, in O(n).

    Returns the lexicographically first (letter order A < B, sets compared as
    sorted tuples) four-word set whose requirement flags all hold and whose
    plan product has a negative sign (for n = 3, ABB BAB BBA AAA, the analogue
    of Mermin's XYY YXY YYX XXX): the common-count words first, sorted, and
    the outlier last, so that the odd-signed equation is always the final one.

    Let x = (#AABB, #ABAB, #ABBA, #BAAB, #BABA, #BBAA) split the n columns
    over the six ``_COLUMN_TYPES``. The words' A counts a0 = x1+x2+x3,
    a1 = x1+x4+x5, a2 = x2+x4+x6 and a3 = x3+x5+x6 then sum to 2n;
    the flags ask for one parity and three equal counts c beside an outlier
    o, so 3c + o = 2n; the sign asks for x2 + x5 odd (an ABAB column adds one
    B-before-A inversion, a BABA column three, the others an even number).
    Sorting a split's columns gives its smallest word tuple, which for the
    first qualifying split is already sorted, so splits compare by k = a0
    descending, then by #AABB descending (as ``tests/oracles.py`` searches
    them). With s = -n mod 3 and c = (n+s)/3, the first qualifying split is
    (c, c-s, c-s, 0, 0, s):

    - At k = n - t with t <= s, a common a0 would need two more counts of
      n - t within a1 + a2 + a3 = n + t, so n <= 3t <= 3s, which no odd
      n >= 3 meets (n = 3 has s = 0, n = 5 has s = 1). So a0 is the outlier
      and 3c = n + t, which needs t = s.
    - At k = n - s, a1 = x1 + x4 + x5 = c bounds #AABB by c, reached only
      with x4 = x5 = 0, the surplus s in BBAA and x2 = x3 = c - s. Every
      count then has the parity of n - s (c has that of 3c = n + s), and
      x2 + x5 = (n - 2s)/3 is odd since n is.

    So row 0 is the outlier, and rows 1-3 come out ascending: row 1 starts
    with A, rows 2 and 3 with B^c and then A and B, as c - s >= 1. The rows
    are taken in the order 1, 2, 3, 0.
    """
    if parties.n % 2 == 0:
        raise ParityError(f"party count {parties.n} is even; use extend_even_set")
    surplus = -parties.n % 3
    common = (parties.n + surplus) // 3
    counts = (common, common - surplus, common - surplus, 0, 0, surplus)
    rows = ["".join([t[row] * c for t, c in zip(_COLUMN_TYPES, counts)]) for row in range(4)]
    words = tuple([TensorWord(w, parties) for w in rows[1:] + rows[:1]])
    return _checked(ProofSet.assemble(words, (0, 1, 2, 3)))


def extend_even_set(parties: PartySpec) -> ProofSet:
    """Five-word proof set for an even number of parties.

    Builds the odd set on the first n-1 parties, appends letter B to every
    word, and adds the lexicographically first word ending in A such that
    all requirement flags hold under the six-factor plan that counts the new
    word twice. Taken twice, the new word always uses its slots an even
    number of times and never changes the plan sign, and the plan's A
    counts keep a unique outlier only if the new word carries the common A
    count c of the base set; so it is A^(c-1) B^(n-c) A.
    """
    if parties.n % 2 == 1:
        raise ParityError(f"party count {parties.n} is odd; use generate_odd_set")
    if parties.n < 4:
        raise InvalidLevelsError("even extension needs at least 4 parties")
    sub = PartySpec(parties.levels[:-1])
    base = generate_odd_set(sub)
    common = base.words[0].a_count
    fifth = "A" * (common - 1) + "B" * (parties.n - common) + "A"
    letters = tuple([w.letters + "B" for w in base.words]) + (fifth,)
    words = tuple([TensorWord(w, parties) for w in letters])
    return _checked(ProofSet.assemble(words, (0, 1, 2, 3, 4, 4)))


def build_proof_set(parties: PartySpec) -> ProofSet:
    """Canonical proof set for any party spec: odd n directly, even n extended."""
    if parties.n % 2 == 1:
        return generate_odd_set(parties)
    return extend_even_set(parties)

