"""Independent brute-force oracles for the package's searches.

The first part holds the plain ``itertools.product`` loops the package used
before its searches moved onto ``ghzcert.search.first_assignment``. They
visit every assignment one by one, with no pruning, scaling or division, so
agreement with the kernel on status, count and witness checks the kernel's
prefix refutation and counting. A claimed LHV witness is checked by direct
substitution into the word equations. Beside them sits the analytic check
the package made before it read the proof set's ``even_slot_usage`` flag: it
counts every (party, letter) slot down the plan.

The second part holds the word-set searches the package used before proof
sets were constructed from column-type counts: the lexicographic search over
four-word sets and the loop over every candidate fifth word, plus the
enumeration showing that no four-word set exists for four parties, and the
sort that put a candidate's outlying word last. They take time
exponential in the party count, so they are the reference for small ``n``.
Beside them sits the search the package used before the closed form: it
walks every split of the party columns over the six column types in
lexicographic order and takes the first that qualifies. It is polynomial in
the party count (about 0.5 s at ``n`` = 199 on a 2-vCPU machine), so it is
the reference for larger ``n``.

The third part holds the orbit decomposition loop the package used before
its orbit walk (``spectral._orbit_walk``) took its seeds in one pass over the
indices: it seeds each orbit with ``min`` of the unvisited set.

It also holds the mixed-radix map between the package's composite indices,
digit tuples, and the flat indices of the dense oracles: the package turned
every digit tuple into a flat index before its indices stayed digit tuples.

The fourth part holds the composite-dimension path the package used before
words stayed factored: realization as a fold of ``monomial_tensor`` (for
the KS observables and their shared side product too), the site-by-site
product of factored operators the package multiplied out before
``spectral.column_product`` read each site factor off its letters, the
pairwise commutation check on full products, and the simultaneous
eigenbasis the package computed before it read the joint eigenvectors off in
closed form: each word in turn splits an orbit's subspaces by Lagrange
projectors onto its possible eigenvalues, with every subspace kept in
reduced row echelon form and every vector scaled to primitive integers.

The fifth part holds the dense matrices the package shipped before only the
monomial form was left in it: products, Kronecker products and vector
application entry by entry, the conversions to and from monomial form, and
the dense view of a site operator.

The sixth part holds the full eigenvalue multisets certificates stored
before format 2, folded site by site from dense site matrices; their sign
counts are what a format-2 certificate stores.

The package computes with integers over positive scales; the searches and
the eigenbasis here take its operators and values in that form, while the
dense part works with the rationals themselves (``densify`` divides by the
scale), in ``Fraction`` arithmetic throughout.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from ghzcert.errors import InvalidLevelsError, ParityError, SearchBoundError, ShapeError
from ghzcert.exact import (
    FactoredMonomial,
    MonomialMatrix,
    monomial_compose,
    monomial_multiply,
    monomial_tensor,
    parse_rational,
    scaled_to_integers,
)
from ghzcert.kochen_specker import (
    FULL_SPECTRUM,
    KS_SAT,
    KS_UNSAT,
    SIGN_ONLY,
    KsConfiguration,
    KsReport,
)
from ghzcert.lhv import DEFAULT_BOUND, SAT, UNSAT, ConstraintSystem, LhvReport
from ghzcert.search import Check
from ghzcert.spectral import JointEigenvector, Spectrum, spectrum_of_monomial
from ghzcert.words import (
    _COLUMN_TYPES,
    LETTERS,
    PartySpec,
    ProofSet,
    TensorWord,
    _flags,
    plan_product_sign,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def rational_spectrum(spectrum: Spectrum) -> dict[Fraction, int]:
    """A package spectrum as {eigenvalue: multiplicity} in rationals."""
    return {Fraction(v, spectrum.scale): m for v, m in spectrum.entries}


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


def verify_witness(cs: ConstraintSystem, witness: dict[tuple[int, str], Fraction]) -> bool:
    """Re-check a claimed satisfying assignment by direct substitution."""
    for word, target in zip(cs.proof_set.letter_words, cs.rhs):
        prod = ONE
        for party, letter in enumerate(word):
            prod *= witness[(party, letter)]
        if prod != target:
            return False
    return True


def parity_unsat(cs: ConstraintSystem) -> bool:
    """The analytic obstruction by slot counts: every (party, letter) slot
    that the plan uses enters it an even number of times, and the planned
    right-hand product is negative."""
    ps = cs.proof_set
    counts = Counter(slot for i in ps.product_plan for slot in enumerate(ps.words[i].letters))
    if any(m % 2 for m in counts.values()):
        return False
    return math.prod(cs.rhs[i] for i in ps.product_plan) < 0


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
    pairs = (cfg.pair,) * 3
    one_party = [
        (idx, obs) for idx, obs in enumerate(cfg.observables) if "I" in obs.letters
    ]
    domains = []
    for _, obs in one_party:
        party = next(p for p, c in enumerate(obs.letters) if c != "I")
        a_op, b_op = pairs[party]
        op = a_op if obs.letters[party] == "A" else b_op
        domains.append(tuple(sorted((v for v, _ in op.eigenvalue_counts), reverse=True)))
    factor_of = {idx: k for k, (idx, _) in enumerate(one_party)}
    composite_ids = [i for i, obs in enumerate(cfg.observables) if "I" not in obs.letters]
    composite_factors = {
        ctx[0]: tuple(factor_of[i] for i in ctx[1:]) for ctx in cfg.contexts[1:]
    }
    # the horizontal spectrum on the composite path, not the one the
    # configuration carries
    mats = realized(cfg)
    horizontal = monomial_compose(mats[i] for i in cfg.contexts[0])
    allowed_products = {v for v, _ in spectrum_of_monomial(horizontal).entries}

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


def _all_words(n: int) -> list[str]:
    return ["".join(c) for c in itertools.product(LETTERS, repeat=n)]


def exhaustive_no_4set(parties: PartySpec) -> bool:
    """Confirm by enumeration that no four-word set meets all four
    requirements. Only small party counts are searchable; n = 4 is the claim
    of interest, n = 3 is the deliberate counterexample."""
    if parties.n > 4:
        raise SearchBoundError(
            f"exhaustive four-word search is bounded to n <= 4, got {parties.n}"
        )
    plan = (0, 1, 2, 3)
    for candidate in itertools.combinations(_all_words(parties.n), 4):
        if all(_flags(tuple(candidate), plan).values()):
            return False
    return True


def search_four_sets(n: int):
    """Yield 4-word candidates in lexicographic order with column pruning.

    Requirements 3 and 4 force every party column of a valid 4-word set to
    hold exactly two A and two B letters, which prunes the search hard.
    """
    words = _all_words(n)
    total = len(words)

    def recurse(chosen: list[str], start: int, acol: list[int], bcol: list[int]):
        depth = len(chosen)
        if depth == 4:
            yield tuple(chosen)
            return
        remaining = 4 - depth
        for idx in range(start, total):
            w = words[idx]
            if chosen and (w.count("A") - chosen[0].count("A")) % 2 != 0:
                continue
            na = [acol[p] + (1 if w[p] == "A" else 0) for p in range(n)]
            nb = [bcol[p] + (1 if w[p] == "B" else 0) for p in range(n)]
            rest = remaining - 1
            if any(a > 2 or b > 2 for a, b in zip(na, nb)):
                continue
            if any(a + rest < 2 or b + rest < 2 for a, b in zip(na, nb)):
                continue
            chosen.append(w)
            yield from recurse(chosen, idx + 1, na, nb)
            chosen.pop()

    yield from recurse([], 0, [0] * n, [0] * n)


def outlier_last(candidate: tuple[str, ...]) -> tuple[str, ...]:
    """The words of a candidate set with the common A count sorted, and the
    word of the outlying count last."""
    counts = [w.count("A") for w in candidate]
    outlier_value = next(c for c in counts if counts.count(c) == 1)
    common = sorted(w for w in candidate if w.count("A") != outlier_value)
    outlier = next(w for w in candidate if w.count("A") == outlier_value)
    return tuple(common) + (outlier,)


def generate_odd_set(parties: PartySpec) -> ProofSet:
    if parties.n % 2 == 0:
        raise ParityError(f"party count {parties.n} is even; use extend_even_set")
    plan = (0, 1, 2, 3)
    for candidate in search_four_sets(parties.n):
        if not all(_flags(candidate, plan).values()):
            continue
        if plan_product_sign(candidate, plan) != -1:
            continue
        ordered = outlier_last(candidate)
        words = tuple(TensorWord(w, parties) for w in ordered)
        return ProofSet.assemble(words, plan)
    raise ValueError(f"no valid four-word set exists for {parties.n} parties")


def count_vectors(n: int):
    """Yield every split of n columns over the six types, as counts in
    ``_COLUMN_TYPES`` order, so that the word tuples of the column-sorted
    arrangements ascend lexicographically.

    With the columns sorted, the first word is A^k B^(n-k) for
    k = #AABB + #ABAB + #ABBA, so larger k comes first; ties are broken the
    same way by #AABB, by #BAAB + #BABA, by #ABAB and by #BAAB in turn, which
    fix the second and third words; the fourth follows from them.
    """
    for k in range(n, -1, -1):
        for aabb in range(k, -1, -1):
            for baab_baba in range(n - k, -1, -1):
                for abab in range(k - aabb, -1, -1):
                    for baab in range(baab_baba, -1, -1):
                        yield (
                            aabb, abab, k - aabb - abab,
                            baab, baab_baba - baab, n - k - baab_baba,
                        )


def counts_qualify(counts: tuple[int, ...]) -> bool:
    """The requirements and the negative plan sign, from column-type counts.

    Each word's A count is the number of columns whose type puts an A in its
    row. Equal parities make the words commute, and a unique outlier among
    the counts also keeps the words distinct: two equal words would force
    the other two to be equal as well, giving two pairs of equal counts.
    A column adds one B-before-A inversion to the plan sign for ABAB, three
    for BABA and an even number for the other types.
    """
    a_counts = [
        sum(c for t, c in zip(_COLUMN_TYPES, counts) if t[row] == "A")
        for row in range(4)
    ]
    if len({c % 2 for c in a_counts}) != 1:
        return False
    if sorted(a_counts.count(c) for c in set(a_counts)) != [1, 3]:
        return False
    return (counts[1] + counts[4]) % 2 == 1


def split_search_odd_set(parties: PartySpec) -> ProofSet:
    """The first qualifying split in ``count_vectors`` order, its columns
    sorted into words, with the outlying A count last."""
    if parties.n % 2 == 0:
        raise ParityError(f"party count {parties.n} is even; use extend_even_set")
    counts = next((c for c in count_vectors(parties.n) if counts_qualify(c)), None)
    if counts is None:
        raise ValueError(f"no valid four-word set exists for {parties.n} parties")
    columns = [t for t, c in zip(_COLUMN_TYPES, counts) for _ in range(c)]
    rows = tuple(["".join(col[row] for col in columns) for row in range(4)])
    words = tuple([TensorWord(w, parties) for w in outlier_last(rows)])
    return ProofSet.assemble(words, (0, 1, 2, 3))


def extend_even_set(parties: PartySpec) -> ProofSet:
    if parties.n % 2 == 1:
        raise ParityError(f"party count {parties.n} is odd; use generate_odd_set")
    if parties.n < 4:
        raise InvalidLevelsError("even extension needs at least 4 parties")
    sub = PartySpec(parties.levels[:-1])
    base = generate_odd_set(sub)
    extended = tuple(w.letters + "B" for w in base.words)
    base_parity = base.words[0].a_count % 2
    plan = (0, 1, 2, 3, 4, 4)
    for prefix in itertools.product(LETTERS, repeat=parties.n - 1):
        fifth = "".join(prefix) + "A"
        if fifth.count("A") % 2 != base_parity:
            continue
        candidate = extended + (fifth,)
        if not all(_flags(candidate, plan).values()):
            continue
        if plan_product_sign(candidate, plan) != -1:
            continue
        words = tuple(TensorWord(w, parties) for w in candidate)
        return ProofSet.assemble(words, plan)
    raise ValueError(f"no fifth word completes the even extension for {parties.n} parties")


def build_proof_set(parties: PartySpec) -> ProofSet:
    if parties.n % 2 == 1:
        return generate_odd_set(parties)
    return extend_even_set(parties)


def flat_index(levels: Sequence[int], digits: Sequence[int]) -> int:
    """The flat index of a digit tuple: its mixed-radix value, left digit
    most significant, as in `monomial_tensor`."""
    if len(digits) != len(levels):
        raise IndexError(f"{len(digits)} digits for {len(levels)} levels")
    idx = 0
    for m, d in zip(levels, digits):
        if not 0 <= d < m:
            raise IndexError(f"digit {d} out of range for {m} levels")
        idx = idx * m + d
    return idx


def digits(levels: Sequence[int], flat: int) -> tuple[int, ...]:
    """The digit tuple of a flat index, the inverse of `flat_index`."""
    out = []
    for m in reversed(levels):
        flat, d = divmod(flat, m)
        out.append(d)
    return tuple(reversed(out))


def flat_basis(basis, levels: Sequence[int]) -> tuple[JointEigenvector, ...]:
    """Package eigenvectors with each support index mapped to its flat index."""
    return tuple([
        JointEigenvector(v.eigen_tuple, tuple([flat_index(levels, x) for x in v.support]),
                         v.coefficients)
        for v in basis
    ])


def orbit_decomposition(dim: int, targets: list[tuple[int, ...]]):
    """The orbits of the index maps, each sorted, ordered by smallest index."""
    unvisited = set(range(dim))
    orbits = []
    while unvisited:
        seed = min(unvisited)
        frontier = [seed]
        members = {seed}
        while frontier:
            nxt = []
            for x in frontier:
                for t in targets:
                    y = t[x]
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        unvisited -= members
        orbits.append(tuple(sorted(members)))
    return tuple(sorted(orbits))


def realize(letters, pairs, levels) -> MonomialMatrix:
    """A letter string (A, B or I per party) as one composite monomial."""
    mats = []
    for letter, (a_op, b_op), m in zip(letters, pairs, levels):
        if letter == "I":
            mats.append(MonomialMatrix.identity(m))
        else:
            mats.append(a_op if letter == "A" else b_op)
    acc = mats[0]
    for mat in mats[1:]:
        acc = monomial_tensor(acc, mat)
    return acc


def realized(cfg: KsConfiguration) -> list[MonomialMatrix]:
    """The ten KS observables as composite monomials, in observable order."""
    pairs = (cfg.pair,) * 3
    return [realize(obs.letters, pairs, (cfg.levels,) * 3) for obs in cfg.observables]


def factored_product(ops) -> FactoredMonomial:
    """Left-to-right product of factored operators, multiplied site by site."""
    sites = zip(*[op.factors for op in ops])
    return FactoredMonomial(tuple([monomial_compose(site) for site in sites]))


def shared_side_product(cfg: KsConfiguration) -> MonomialMatrix:
    """The one operator every non-horizontal KS context multiplies out to."""
    mats = realized(cfg)
    return monomial_compose(mats[i] for i in cfg.contexts[1])


def apply(op: MonomialMatrix, vector: dict) -> dict:
    """A monomial applied to a sparse vector {index: coefficient}, the
    result over ``op.scale``; zero results dropped."""
    out = {}
    for j, c in vector.items():
        w = op.weight[j]
        if w and c:
            out[op.target[j]] = w * c
    return out


def monomial_equal(a: MonomialMatrix, b: MonomialMatrix) -> bool:
    """Equality as linear maps (zero-weight columns may differ in target,
    and the scales may differ)."""
    if a.dim != b.dim:
        return False
    for j in range(a.dim):
        wa, wb = a.weight[j], b.weight[j]
        if wa * b.scale != wb * a.scale:
            return False
        if wa and a.target[j] != b.target[j]:
            return False
    return True


def mutually_commuting(mats: list[MonomialMatrix]) -> bool:
    for a, b in itertools.combinations(mats, 2):
        if not monomial_equal(monomial_multiply(a, b), monomial_multiply(b, a)):
            return False
    return True


Vec = dict[int, Fraction]


def _vec_add(u: Vec, v: Vec) -> Vec:
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, ZERO) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _vec_scale(u: Vec, c: Fraction) -> Vec:
    if not c:
        return {}
    return {k: c * v for k, v in u.items()}


def _rref(vectors: list[Vec]) -> list[Vec]:
    """Reduced row echelon basis (unique per subspace), pivots ascending."""
    basis: list[tuple[int, Vec]] = []
    for vec in vectors:
        v = dict(vec)
        for pivot, row in basis:
            coeff = v.get(pivot)
            if coeff:
                v = _vec_add(v, _vec_scale(row, -coeff))
        if not v:
            continue
        pivot = min(v)
        v = _vec_scale(v, ONE / v[pivot])
        basis = [
            (p, _vec_add(row, _vec_scale(v, -row.get(pivot, ZERO))))
            for p, row in basis
        ]
        basis.append((pivot, v))
        basis.sort(key=lambda item: item[0])
    return [row for _, row in basis]


def _primitive(v: Vec) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Scale to coprime integer coefficients with positive leading entry."""
    support = tuple(sorted(v))
    denom_lcm = 1
    for k in support:
        d = v[k].denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(v[k] * denom_lcm) for k in support]
    g = 0
    for value in ints:
        g = gcd(g, abs(value))
    ints = [value // g for value in ints]
    if ints[0] < 0:
        ints = [-value for value in ints]
    return support, tuple(Fraction(value) for value in ints)


def _eigenvalue_candidates(op: MonomialMatrix, orbit) -> list[Fraction]:
    values: set[Fraction] = set()
    for x in orbit:
        w = op.weight[x]
        if op.target[x] == x:
            values.add(w)
        else:
            values.add(w)
            values.add(-w)
    return sorted(values, reverse=True)


def _project_eigenspace(op: MonomialMatrix, basis, eigenvalue, candidates):
    projected = []
    for v in basis:
        u = dict(v)
        for mu in candidates:
            if mu == eigenvalue:
                continue
            u = _vec_scale(
                _vec_add(apply(op, u), _vec_scale(u, -mu)), ONE / (eigenvalue - mu)
            )
        if u:
            projected.append(u)
    return _rref(projected)


def simultaneous_eigenbasis(mats: list[MonomialMatrix]) -> tuple[JointEigenvector, ...]:
    """Every joint eigenvector of commuting composite monomials, in order."""
    if not mutually_commuting(mats):
        raise ValueError("word set is not mutually commuting")
    out = []
    for orbit in orbit_decomposition(mats[0].dim, [m.target for m in mats]):
        spaces = [([{j: ONE} for j in orbit], ())]
        for op in mats:
            candidates = _eigenvalue_candidates(op, orbit)
            refined = []
            for basis, partial in spaces:
                for lam in candidates:
                    sub = _project_eigenspace(op, basis, lam, candidates)
                    if sub:
                        refined.append((sub, partial + (lam,)))
            spaces = refined
        for basis, tup in spaces:
            for v in basis:
                support, coeffs = _primitive(v)
                out.append(JointEigenvector(tup, support, coeffs))
    return tuple(out)


def as_rational(value: int | Fraction | str) -> Fraction:
    """Coerce an int, Fraction, or rational literal; floats are rejected."""
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


@dataclass(frozen=True)
class DenseMatrix:
    """Immutable dense matrix with row-major rational entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | Fraction | str]]) -> DenseMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged row lengths")
            flat.extend(as_rational(v) for v in row)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> DenseMatrix:
        ent = [ZERO] * (n * n)
        for i in range(n):
            ent[i * n + i] = ONE
        return cls(n, n, tuple(ent))

    @classmethod
    def diagonal(cls, weights: Sequence[Fraction]) -> DenseMatrix:
        n = len(weights)
        ent = [ZERO] * (n * n)
        for i, w in enumerate(weights):
            ent[i * n + i] = w
        return cls(n, n, tuple(ent))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __neg__(self) -> DenseMatrix:
        return DenseMatrix(self.rows, self.cols, tuple(-e for e in self.entries))


def mat_multiply(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Exact matrix product. Skips zero entries, so structured operators
    (diagonal, monomial) multiply in near-linear time."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    # nonzero (column, value) pairs per row of b, computed once
    b_nonzero: list[list[tuple[int, Fraction]]] = [
        [(j, v) for j, v in enumerate(b.row(k)) if v] for k in range(b.rows)
    ]
    out: list[Fraction] = [ZERO] * (a.rows * b.cols)
    for i in range(a.rows):
        arow = a.row(i)
        base = i * b.cols
        for k, aik in enumerate(arow):
            if not aik:
                continue
            for j, bkj in b_nonzero[k]:
                out[base + j] += aik * bkj
    return DenseMatrix(a.rows, b.cols, tuple(out))


def mat_tensor(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Kronecker product with the left factor as the most significant index:
    composite row i1*b.rows + i2, column j1*b.cols + j2."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out: list[Fraction] = [ZERO] * (rows * cols)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            av = a.at(i1, j1)
            if not av:
                continue
            for i2 in range(b.rows):
                base = (i1 * b.rows + i2) * cols + j1 * b.cols
                brow = b.row(i2)
                for j2, bv in enumerate(brow):
                    if bv:
                        out[base + j2] = av * bv
    return DenseMatrix(rows, cols, tuple(out))


def mat_apply(a: DenseMatrix, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact matrix-vector product (dense oracle path)."""
    if a.cols != len(vector):
        raise ShapeError(f"cannot apply {a.rows}x{a.cols} to length-{len(vector)} vector")
    out = []
    for i in range(a.rows):
        acc = ZERO
        for j, v in enumerate(a.row(i)):
            if v and vector[j]:
                acc += v * vector[j]
        out.append(acc)
    return tuple(out)


def densify(m: MonomialMatrix) -> DenseMatrix:
    ent = [ZERO] * (m.dim * m.dim)
    for j in range(m.dim):
        if m.weight[j]:
            ent[m.target[j] * m.dim + j] = Fraction(m.weight[j], m.scale)
    return DenseMatrix(m.dim, m.dim, tuple(ent))


def dense_spectrum(dense: DenseMatrix) -> dict[Fraction, int]:
    """Eigenvalue multiplicities of a dense matrix that is diagonal or an
    involution with symmetric weights, read column by column: a zero column
    gives 0, a diagonal entry w gives w, and two columns swapped with weight
    w give w and -w."""
    counts: dict[Fraction, int] = {}
    for j in range(dense.cols):
        rows = [i for i in range(dense.rows) if dense.at(i, j)]
        if not rows:
            values = [ZERO]
        elif rows == [j]:
            values = [dense.at(j, j)]
        else:
            (i,) = rows
            if dense.at(j, i) != dense.at(i, j):
                raise ShapeError("not a symmetric involution")
            values = [dense.at(i, j), -dense.at(i, j)] if j < i else []
        for v in values:
            counts[v] = counts.get(v, 0) + 1
    return counts


def sparsify(dense: DenseMatrix) -> MonomialMatrix:
    """Recover the monomial form of a dense matrix; error if not monomial."""
    if dense.rows != dense.cols:
        raise ShapeError("only square matrices can be monomial")
    n = dense.rows
    target = [-1] * n
    weight = [ZERO] * n
    rows_used: set[int] = set()
    for j in range(n):
        hits = [i for i in range(n) if dense.at(i, j)]
        if len(hits) > 1:
            raise ShapeError(f"column {j} has {len(hits)} nonzero entries")
        if hits:
            i = hits[0]
            if i in rows_used:
                raise ShapeError(f"row {i} has more than one nonzero entry")
            rows_used.add(i)
            target[j] = i
            weight[j] = dense.at(i, j)
    # zero columns keep no row constraint; fill the free slots so target is
    # a permutation (zero weight makes the choice immaterial)
    free_rows = sorted(set(range(n)) - rows_used)
    for j in range(n):
        if target[j] < 0:
            target[j] = free_rows.pop(0)
    return MonomialMatrix(n, tuple(target), *scaled_to_integers(weight))


# -- full multisets against the certificate's sign counts ---------------------


def kronecker_multiset(sites: Sequence[DenseMatrix]) -> dict[Fraction, int]:
    """The full eigenvalue multiset of the Kronecker product of dense site
    matrices: every product of one eigenvalue per site, multiplicities
    multiplied (the rule the package used before it kept only signs)."""
    counts = {ONE: 1}
    for site in sites:
        spectrum = dense_spectrum(site)
        product: dict[Fraction, int] = {}
        for v, m in counts.items():
            for w, k in spectrum.items():
                product[v * w] = product.get(v * w, 0) + m * k
        counts = product
    return counts


def fold_signs(site_signs) -> tuple[int, int, int]:
    """(positive, negative, zero) counts of a Kronecker product, folded one
    site at a time from its factors' counts (what `spectral.kronecker_signs`
    does in closed form for each group of equal factors)."""
    p, n, z = 1, 0, 0
    for sp, sn, sz in site_signs:
        p, n, z = p * sp + n * sn, p * sn + n * sp, z * (sp + sn + sz) + (p + n) * sz
    return p, n, z


def sign_counts_doc(counts: dict[Fraction, int]) -> dict[str, str]:
    """A multiset's sign counts and classification as a certificate stores them."""
    positive = sum(m for v, m in counts.items() if v > 0)
    negative = sum(m for v, m in counts.items() if v < 0)
    zero = counts.get(ZERO, 0)
    if positive and negative:
        classification = "indefinite"
    elif negative:
        classification = "negative-semidefinite" if zero else "negative-definite"
    else:
        # an all-zero multiset is reported on the positive side
        classification = "positive-semidefinite" if zero or not positive else "positive-definite"
    return {"classification": classification, "negative": str(negative),
            "positive": str(positive), "zero": str(zero)}


def certificate_spectra(doc: dict) -> dict:
    """The ``spectra`` section of a GHZ certificate, from its site operators,
    words and plan through dense site matrices and full multisets."""
    sites = []
    for entry in doc["site_operators"]:
        a = [Fraction(w) for w in entry["a_weights"]]
        b = [Fraction(w) for w in entry["b_weights"]]
        m = len(b)
        anti = [ZERO] * (m * m)
        for i, w in enumerate(b):
            anti[i * m + m - 1 - i] = w
        sites.append({"A": DenseMatrix.diagonal(a), "B": DenseMatrix(m, m, tuple(anti))})
    words, plan = doc["words"], doc["product_plan"]
    product = []
    for party, site in enumerate(sites):
        factor = DenseMatrix.identity(site["A"].rows)
        for i in plan:
            factor = mat_multiply(factor, site[words[i][party]])
        product.append(factor)
    return {
        "words": [
            sign_counts_doc(kronecker_multiset([s[c] for s, c in zip(sites, w)])) for w in words
        ],
        "plan_product": sign_counts_doc(kronecker_multiset(product)),
    }
