"""Exact spectra and simultaneous eigenbases for commuting monomial words.

Values are integers over positive scales (see `ghzcert.exact`), so a sign is
the sign of an integer. Everything here exploits one structural fact: a
tensor word acts on the composite basis by an index involution with
symmetric weights. The spectrum of one such monomial reads off directly from
the orbits of its involution (a fixed point contributes its weight; a
2-cycle contributes the weight with both signs;
`MonomialMatrix.eigenvalue_counts` is that rule), and a commuting set of
words is diagonalized orbit by orbit of the abelian group their involutions
generate. A set commutes when every site pair anticommutes and every two
words pass the letter rule (`words.letters_commute`); operators are never
multiplied to decide it.

Words and their products stay factored (`FactoredMonomial`), and their
spectra follow the Kronecker rule: the spectrum of x_1 (x) ... (x) x_n is
the multiset of products l_1 ... l_n of site eigenvalues, with the site
multiplicities multiplied. The rule is exact for the factors that occur
here: a diagonal factor and an involution with symmetric weights are both
real symmetric matrices, so each site space has a basis of eigenvectors
with rational eigenvalues (w, or +-w on a 2-cycle), and the tensor products
of those bases are a basis of eigenvectors of the product. So a word's
spectrum depends only on the multiset of its site spectra. A certificate
needs only how many eigenvalues are positive, negative and zero, and those
counts follow the same rule (`kronecker_signs`), in closed form for the
sites that share their counts.

A product of words in which every one-particle operator occurs an even
number of times is diagonal at every site, and one rule reads each site
factor off the pair's weights and the column's letter order
(`column_product`), with no matrix product. The GHZ plan product
(`plan_product`) and the KS context products are formed this way
(`context_product`), and the plan's sign counts are read off its factors.

A composite index is a tuple of digits, one per party, never an integer:
lexicographic order on tuples is the ascending mixed-radix order of the
dense expansion, and an index costs O(n) for n parties.

The simultaneous eigenbasis is read off in closed form. An orbit splits into
components that join x to t_k(x) wherever word k has a nonzero weight at x.
Each W_k^2 is diagonal and commutes with every word, so on a component each
word is 0 or a constant |w_k| times a signed permutation; those signed
permutations commute and square to one, and the joint eigenvectors are the
characters of the group they generate (the stabilizer picture). One walk
from the component's smallest index x0 records, per index, the sign and the
word parity of the path product that carries e_x0 there; every edge the walk
meets again ties a product of eigenvalue signs to a sign. Each sign vector
that meets all ties gives one eigenvector with coefficients +-1, +1 at x0,
and eigenvalue +-|w_k| for word k.

The output is canonical: orbits ascend by smallest index, eigenvalue tuples
descend within an orbit, and equal tuples ascend by smallest index. Vectors
of different components have disjoint supports, so this is the reduced row
echelon basis of each joint eigenspace, scaled to primitive integers with a
positive leading entry.

Orbits are diagonalized one at a time, in that order. ``simultaneous_eigenbasis``
diagonalizes them all; ``select_ghz`` stops at the orbit that holds the vector it
picks, so a build never computes the rest of the basis.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import NoGhzStateError, NonCommutingSetError
from .exact import FactoredMonomial, MonomialMatrix, count_signs
from .siteops import check_anticommute
from .words import ProofSet, SitePairs, column_inversions

# A composite index: one digit per party.
Index = tuple[int, ...]

NEGATIVE_DEFINITE = "negative-definite"
NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
POSITIVE_DEFINITE = "positive-definite"
POSITIVE_SEMIDEFINITE = "positive-semidefinite"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class Spectrum:
    """Exact eigenvalue multiset: integer values over ``scale``, stored
    sorted ascending with positive multiplicities."""

    entries: tuple[tuple[int, int], ...]
    scale: int = 1

    def classify(self) -> str:
        return classify_signs(*count_signs(self.entries))


def classify_signs(positive: int, negative: int, zero: int) -> str:
    """The definiteness class of a spectrum with these sign counts."""
    if positive and negative:
        return INDEFINITE
    if negative:
        return NEGATIVE_SEMIDEFINITE if zero else NEGATIVE_DEFINITE
    if positive:
        return POSITIVE_SEMIDEFINITE if zero else POSITIVE_DEFINITE
    # all-zero spectrum: conventionally reported on the positive side
    return POSITIVE_SEMIDEFINITE


def _orbit_walk(levels: tuple[int, ...], images) -> Iterator[tuple[Index, ...]]:
    """Yield the orbits of the index maps on the digit tuples of ``levels``,
    each sorted, as they are reached.

    ``images(x)`` gives the image of index ``x`` under every map; it is
    called once for each index, when the walk reaches it. Seeds ascend in
    lexicographic order and each one is the smallest index left, so the
    orbits come out ordered by their smallest index.
    """
    visited: set[Index] = set()
    for seed in itertools.product(*[range(m) for m in levels]):
        if seed in visited:
            continue
        frontier = [seed]
        members = {seed}
        while frontier:
            nxt = []
            for x in frontier:
                for y in images(x):
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        visited |= members
        yield tuple(sorted(members))


def spectrum_of_monomial(op: MonomialMatrix) -> Spectrum:
    """Exact spectrum of a diagonal or involutive symmetric-weight monomial.

    Other monomial shapes (longer cycles) fall outside the structured family
    this engine supports and raise ``ShapeError``; see
    `MonomialMatrix.eigenvalue_counts`.
    """
    return Spectrum(op.eigenvalue_counts, op.scale)


def spectrum_of_factored(op: FactoredMonomial) -> Spectrum:
    """Exact spectrum of a factored operator by the Kronecker rule (see the
    module docstring); each site factor goes through `spectrum_of_monomial`,
    which raises ``ShapeError`` for a factor outside the supported shapes.
    """
    counts: dict[int, int] = {1: 1}
    scale = 1
    for factor in op.factors:
        site = spectrum_of_monomial(factor)
        scale *= site.scale
        product: dict[int, int] = {}
        for p, m in counts.items():
            for w, k in site.entries:
                product[p * w] = product.get(p * w, 0) + m * k
        counts = product
    # one positive scale for all values, so integer order is value order
    return Spectrum(tuple(sorted(counts.items())), scale)


def kronecker_signs(site_signs) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a Kronecker product,
    from its factors' (positive, negative, zero) counts: a product of site
    eigenvalues is positive when an even number of them are negative and
    none is zero (the module docstring's rule, kept to signs).

    The k factors with equal counts (p, n, z) fold in closed form, their
    products being nonzero in (p+n)^k ways: ((p+n)^k +- (p-n)^k)/2 positive
    and negative, (p+n+z)^k - (p+n)^k zero. The groups then fold one at a
    time, so the work is a few big-integer powers per distinct triple."""
    groups: dict[tuple[int, int, int], int] = {}
    for signs in site_signs:
        groups[signs] = groups.get(signs, 0) + 1
    p, n, z = 1, 0, 0
    for (sp, sn, sz), k in groups.items():
        nonzero, balance = (sp + sn) ** k, (sp - sn) ** k
        gp, gn = (nonzero + balance) // 2, (nonzero - balance) // 2
        gz = (sp + sn + sz) ** k - nonzero
        p, n, z = p * gp + n * gn, p * gn + n * gp, z * (gp + gn + gz) + (p + n) * gz
    return p, n, z


def _per_column(pairs: SitePairs, rows, derive) -> list:
    """``derive(pair, column)`` for each party's site pair and column of the
    letter strings ``rows``, once per distinct (site pair, column). A pair is
    told apart by identity, so parties that share a pair object share its
    derivations and no operator is hashed."""
    derived: dict = {}
    out = []
    for pair, column in zip(pairs, zip(*rows)):
        key = (id(pair), column)
        if key not in derived:
            derived[key] = derive(pair, column)
        out.append(derived[key])
    return out


def column_product(pair, column) -> MonomialMatrix:
    """The product of the letters ``column`` (A, B or I), in which A and B
    each occur an even number of times, on an anticommuting pair (A
    diagonal, B anti-diagonal with symmetric weights). Moving each B past
    the As after it flips the sign k times, k the column's B-before-A pairs
    (`words.column_inversions`), and leaves A^#A B^#B = diag(a_j^#A b_j^#B)."""
    (a_op, b_op), a, b = pair, column.count("A"), column.count("B")
    sign = -1 if column_inversions(column) % 2 else 1
    return MonomialMatrix.diagonal([sign * x**a * y**b for x, y in zip(a_op.weight, b_op.weight)],
                                   a_op.scale**a * b_op.scale**b)


def context_product(pairs: SitePairs, rows) -> FactoredMonomial:
    """The product of the letter strings ``rows``, kept factored: `column_product`
    at every site, with its preconditions."""
    return FactoredMonomial(tuple(_per_column(pairs, rows, column_product)))


def plan_product(ps: ProofSet, pairs: SitePairs) -> FactoredMonomial:
    """The product of the words along the plan by `context_product`: the site
    pairs must anticommute, and every one-particle operator must enter the
    plan an even number of times (the ``even_slot_usage`` requirement flag)."""
    return context_product(pairs, [ps.words[i].letters for i in ps.product_plan])


def plan_product_signs(ps: ProofSet, pairs: SitePairs) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of `plan_product`, from
    its site factors' sign counts, with no matrix product."""
    return kronecker_signs([f.sign_counts for f in plan_product(ps, pairs).factors])


# -- joint eigenvectors ------------------------------------------------------

Vec = dict[Index, int]


@dataclass(frozen=True)
class JointEigenvector:
    """One simultaneous eigenvector with its per-word eigenvalues, each over
    its word's scale; the support is digit tuples and the coefficients are
    +-1."""

    eigen_tuple: tuple[int, ...]
    support: tuple[Index, ...]
    coefficients: tuple[int, ...]

    @property
    def norm_sq(self) -> int:
        return sum(c * c for c in self.coefficients)


# Every word's entry at one index: (target index, weight) per word.
Row = tuple[tuple[Index, int], ...]


def _joint_eigenvectors(ops: list[FactoredMonomial]) -> Iterator[JointEigenvector]:
    """Yield the simultaneous eigenbasis orbit by orbit, in canonical order.

    An orbit is found and diagonalized only when the caller asks for its
    first vector, so a caller that stops early never pays for the orbits
    after it. Each word's entry at an index is read once, by the orbit walk.
    The words must commute (see ``simultaneous_eigenbasis``).
    """
    rows: dict[Index, Row] = {}

    def images(x: Index) -> list[Index]:
        row = rows[x] = tuple([op.entry(x) for op in ops])
        return [t for t, _ in row]

    for orbit in _orbit_walk(ops[0].levels, images):
        found: list[JointEigenvector] = []
        for x0 in orbit:
            if x0 in rows:
                found += _component_eigenvectors(x0, rows)
        if len(found) != len(orbit):
            raise AssertionError("an orbit did not yield one eigenvector per index")
        found.sort(key=lambda v: v.eigen_tuple, reverse=True)
        yield from found


def _component_eigenvectors(x0: Index, rows: dict[Index, Row]) -> list[JointEigenvector]:
    """The joint eigenvectors on the component of ``x0`` (see the module
    docstring); the rows of the component's indices are consumed.

    ``paths`` maps each index x to (sign bit, word mask) with
    S_mask e_x0 = (-1)^bit e_x. A tie (h, b) asks that the eigenvalue signs
    of the words in mask h multiply to (-1)^b; a word that is zero on the
    component is tied to +1, so its entry in the tuple is 0.
    """
    magnitude = [abs(w) for _, w in rows[x0]]
    ties = {(1 << k, 0) for k, a in enumerate(magnitude) if not a}
    paths = {x0: (0, 0)}
    frontier = [x0]
    for x in frontier:
        bit, mask = paths[x]
        for k, (t, w) in enumerate(rows.pop(x)):
            if abs(w) != magnitude[k]:
                raise AssertionError("a word's weight magnitude varies on a component")
            if not w:
                continue
            step = (bit ^ (w < 0), mask ^ (1 << k))
            seen = paths.get(t)
            if seen is None:
                paths[t] = step
                frontier.append(t)
            else:
                ties.add((step[1] ^ seen[1], step[0] ^ seen[0]))
    support = tuple(sorted(paths))
    return [
        JointEigenvector(
            tuple([-a if signs >> k & 1 else a for k, a in enumerate(magnitude)]),
            support,
            tuple([
                -1 if ((signs & paths[x][1]).bit_count() ^ paths[x][0]) & 1 else 1
                for x in support
            ]),
        )
        for signs in range(1 << len(magnitude))
        if not any(((signs & h).bit_count() ^ b) & 1 for h, b in ties)
    ]


def simultaneous_eigenbasis(
    ps: ProofSet, pairs: SitePairs | None = None
) -> tuple[JointEigenvector, ...]:
    """Full exact simultaneous eigenbasis of a commuting word set.

    Returns exactly dim vectors; each is an eigenvector of every word, and
    vectors from different eigenvalue tuples are orthogonal (the words are
    symmetric matrices). Deterministic: see the module docstring.
    ``select_ghz`` walks the same vectors in the same order but stops at the
    one it picks.

    A `ProofSet`'s words pass the letter rule, so they commute once their
    site pairs anticommute: outside pairs are checked, canonical ones are not.
    """
    if pairs is not None and not all(check_anticommute(a, b) for a, b in pairs):
        raise NonCommutingSetError("word set is not mutually commuting")
    ops = [w.factored(pairs) for w in ps.words]
    out = tuple(_joint_eigenvectors(ops))
    if len(out) != ops[0].dim:
        raise AssertionError("eigenbasis is incomplete")
    return out


def eigen_tuple_plan_product(eigen_tuple: tuple, plan: tuple[int, ...]):
    return math.prod(eigen_tuple[i] for i in plan)


def is_eligible(eigen_tuple: tuple[int, ...], plan: tuple[int, ...]) -> bool:
    """Nonzero everywhere and negative product along the plan."""
    if any(not t for t in eigen_tuple):
        return False
    return eigen_tuple_plan_product(eigen_tuple, plan) < 0


def select_ghz(
    ps: ProofSet,
    tuple_hint: tuple | None = None,
    ops: list[FactoredMonomial] | None = None,
) -> JointEigenvector:
    """Pick the entangled eigenvector the contradiction is built on: its
    eigenvalues are nonzero and their planned product is negative.

    With a hint of rationals (ints or Fractions, the eigenvalues themselves),
    returns the first eigenvector carrying exactly that eigenvalue tuple;
    otherwise the first eligible one in the deterministic basis order of
    ``simultaneous_eigenbasis``. Orbits are refined in that order only until
    the vector is found, so the rest of the basis is never computed.
    ``ops`` are the words' operators on site pairs known to anticommute;
    they default to the operators on the canonical pairs.
    """
    if tuple_hint is not None and len(tuple_hint) != len(ps.words):
        raise ValueError(f"hint has {len(tuple_hint)} entries for {len(ps.words)} words")
    if ops is None:
        ops = [w.factored() for w in ps.words]
    if tuple_hint is None:
        def wanted(t: tuple[int, ...]) -> bool:
            return is_eligible(t, ps.product_plan)
        missing = (
            "no simultaneous eigenvector has all-nonzero eigenvalues with "
            "a negative plan product"
        )
    else:
        # t over scale s equals p/q exactly when t * q == p * s
        hint = [(h.numerator, h.denominator, op.scale) for h, op in zip(tuple_hint, ops)]

        def wanted(t: tuple[int, ...]) -> bool:
            return all(v * q == p * s for v, (p, q, s) in zip(t, hint))
        missing = "no simultaneous eigenvector carries the requested eigen-tuple"
    chosen = next(
        (v for v in _joint_eigenvectors(ops) if wanted(v.eigen_tuple)), None
    )
    if chosen is None:
        raise NoGhzStateError(missing)
    if not is_eligible(chosen.eigen_tuple, ps.product_plan):
        raise NoGhzStateError(
            "requested eigen-tuple is not eligible: it has a zero entry "
            "or a nonnegative plan product"
        )
    return chosen


def eigenvalue_of(op: FactoredMonomial, vec: Vec) -> int | None:
    """The scalar lam, over ``op.scale``, with op*vec = lam*vec for an integer
    vector ``vec``, or None when ``vec`` is not an eigenvector of ``op``.
    Only the support of ``vec`` is visited. A rational eigenvalue of the
    integer matrix ``op.scale * op`` is an integer, so a quotient that does
    not divide means no eigenvector."""
    image = op.apply(vec)
    if not image:
        return 0
    anchor = min(vec)
    lam, rest = divmod(image.get(anchor, 0), vec[anchor])
    if rest:
        return None
    expected = {k: lam * c for k, c in vec.items() if lam * c}
    return lam if image == expected else None
