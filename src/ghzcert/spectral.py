"""Exact spectra and simultaneous eigenbases for commuting monomial words.

Everything here exploits one structural fact: a tensor word acts on the
composite basis by an index involution with symmetric weights. The spectrum
of one such monomial reads off directly from the orbits of its involution
(a fixed point contributes its weight; a 2-cycle contributes the weight with
both signs), and a commuting set of words is diagonalized orbit by orbit of
the abelian group their involutions generate.

Words and their products stay factored (`FactoredMonomial`), and their
spectra follow the Kronecker rule: the spectrum of x_1 (x) ... (x) x_n is
the multiset of products l_1 ... l_n of site eigenvalues, with the site
multiplicities multiplied. The rule is exact for the factors that occur
here: a diagonal factor and an involution with symmetric weights are both
real symmetric matrices, so each site space has a basis of eigenvectors
with rational eigenvalues (w, or +-w on a 2-cycle), and the tensor products
of those bases are a basis of eigenvectors of the product. A plan product
whose one-particle operators all occur an even number of times has a
diagonal factor at every site. Any other site factor is rejected.

The simultaneous eigenbasis is computed by sequential eigenspace refinement:
within an orbit's coordinate subspace, each word in turn splits the current
subspaces into exact eigencomponents via Lagrange projectors built from the
word's possible eigenvalues on that orbit. Subspaces are kept in reduced row
echelon form, so the output is canonical: orbits ascend by smallest index,
eigenvalue branches descend, and each eigenvector is scaled to primitive
integer coefficients with a positive leading entry.

Orbits are refined one at a time, in that order. ``simultaneous_eigenbasis``
refines them all; ``select_ghz`` stops at the orbit that holds the vector it
picks, so a build never computes the rest of the basis.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import NoGhzStateError, NonCommutingSetError, ShapeError
from .exact import FactoredMonomial, MonomialMatrix, ONE, ZERO
from .words import ProofSet, SitePairs

NEGATIVE_DEFINITE = "negative-definite"
NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
POSITIVE_DEFINITE = "positive-definite"
POSITIVE_SEMIDEFINITE = "positive-semidefinite"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class Spectrum:
    """Exact eigenvalue multiset, stored sorted ascending."""

    entries: tuple[tuple[Fraction, int], ...]

    @classmethod
    def from_counts(cls, counts: dict[Fraction, int]) -> Spectrum:
        return cls(tuple(sorted((v, m) for v, m in counts.items() if m)))

    def as_dict(self) -> dict[Fraction, int]:
        return dict(self.entries)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def multiplicity(self, value: Fraction) -> int:
        return self.as_dict().get(value, 0)

    @property
    def zero_count(self) -> int:
        return self.multiplicity(ZERO)

    @property
    def positive_count(self) -> int:
        return sum(m for v, m in self.entries if v > 0)

    @property
    def negative_count(self) -> int:
        return sum(m for v, m in self.entries if v < 0)

    def classify(self) -> str:
        pos, neg, zero = self.positive_count, self.negative_count, self.zero_count
        if pos and neg:
            return INDEFINITE
        if neg:
            return NEGATIVE_SEMIDEFINITE if zero else NEGATIVE_DEFINITE
        if pos:
            return POSITIVE_SEMIDEFINITE if zero else POSITIVE_DEFINITE
        # all-zero spectrum: conventionally reported on the positive side
        return POSITIVE_SEMIDEFINITE


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of the composite indices under one or several index maps."""

    dim: int
    orbits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = sorted(i for orbit in self.orbits for i in orbit)
        if seen != list(range(self.dim)):
            raise ShapeError("orbits do not partition the index range")

    @classmethod
    def from_targets(cls, dim: int, targets: list[tuple[int, ...]]) -> OrbitDecomposition:
        return cls(dim, tuple(_orbit_walk(dim, lambda x: (t[x] for t in targets))))

    @classmethod
    def from_involution(cls, target: tuple[int, ...]) -> OrbitDecomposition:
        return cls.from_targets(len(target), [target])


def _orbit_walk(dim: int, images) -> Iterator[tuple[int, ...]]:
    """Yield the orbits of the index maps, each sorted, as they are reached.

    ``images(x)`` gives the image of index ``x`` under every map. Seeds
    ascend and each one is the smallest index left, so the orbits come out
    ordered by their smallest index.
    """
    visited: set[int] = set()
    for seed in range(dim):
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
    this engine supports and are rejected.
    """
    counts: dict[Fraction, int] = {}
    if op.is_diagonal():
        for w in op.weight:
            counts[w] = counts.get(w, 0) + 1
        return Spectrum.from_counts(counts)
    if not (op.is_involution() and op.has_symmetric_weights()):
        raise ShapeError(
            "spectrum requires a diagonal or involutive symmetric-weight operator"
        )
    for orbit in OrbitDecomposition.from_involution(op.target).orbits:
        if len(orbit) == 1:
            w = op.weight[orbit[0]]
            counts[w] = counts.get(w, 0) + 1
        else:
            w = op.weight[orbit[0]]
            counts[w] = counts.get(w, 0) + 1
            counts[-w] = counts.get(-w, 0) + 1
    return Spectrum.from_counts(counts)


def spectrum_of_factored(op: FactoredMonomial) -> Spectrum:
    """Exact spectrum of a factored operator by the Kronecker rule (see the
    module docstring); each site factor goes through `spectrum_of_monomial`,
    which raises ``ShapeError`` for a factor outside the supported shapes.

    Site eigenvalues are scaled to integers by their common denominator, so
    the products are exact integer products over one overall denominator.
    """
    counts: dict[int, int] = {1: 1}
    scale = 1
    for factor in op.factors:
        site = spectrum_of_monomial(factor).entries
        den = lcm(*(v.denominator for v, _ in site))
        scale *= den
        site_ints = [(v.numerator * (den // v.denominator), k) for v, k in site]
        product: dict[int, int] = {}
        for p, m in counts.items():
            for w, k in site_ints:
                product[p * w] = product.get(p * w, 0) + m * k
        counts = product
    # one positive denominator for all values, so integer order is value order
    return Spectrum(tuple((Fraction(p, scale), m) for p, m in sorted(counts.items())))


def spectrum_of_word(word, pairs: SitePairs | None = None) -> Spectrum:
    """Exact spectrum of one tensor word."""
    return spectrum_of_factored(word.factored(pairs))


def classify_definiteness(op: MonomialMatrix | Spectrum) -> str:
    """Definiteness class read off the exact spectrum sign pattern."""
    spectrum = op if isinstance(op, Spectrum) else spectrum_of_monomial(op)
    return spectrum.classify()


# -- sparse rational vectors -------------------------------------------------

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


@dataclass(frozen=True)
class JointEigenvector:
    """One simultaneous eigenvector with its per-word eigenvalues."""

    eigen_tuple: tuple[Fraction, ...]
    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]

    def as_vec(self) -> Vec:
        return dict(zip(self.support, self.coefficients))

    @property
    def norm_sq(self) -> Fraction:
        return sum((c * c for c in self.coefficients), ZERO)


@dataclass(frozen=True)
class GhzState:
    """A selected eligible eigenvector: nonzero eigenvalues whose planned
    product is negative. Coefficients are primitive integers; the squared
    norm is carried separately so nothing ever leaves rational arithmetic."""

    support: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    norm_sq: Fraction
    eigen_tuple: tuple[Fraction, ...]

    def as_vec(self) -> Vec:
        return dict(zip(self.support, self.coefficients))


# A word's action on one orbit: orbit index -> (target index, weight).
OrbitAction = dict[int, tuple[int, Fraction]]


def _eigenvalue_candidates(action: OrbitAction) -> list[Fraction]:
    """Possible eigenvalues of a word restricted to one orbit subspace."""
    values: set[Fraction] = set()
    for x, (t, w) in action.items():
        values.add(w)
        if t != x:
            values.add(-w)
    return sorted(values, reverse=True)


def _act(action: OrbitAction, u: Vec) -> Vec:
    out: Vec = {}
    for j, c in u.items():
        t, w = action[j]
        if w:
            out[t] = w * c
    return out


def _project_eigenspace(
    action: OrbitAction, basis: list[Vec], eigenvalue: Fraction, candidates: list[Fraction]
) -> list[Vec]:
    """Lagrange projector onto one eigenvalue, applied to a subspace basis."""
    projected = []
    for v in basis:
        u = dict(v)
        for mu in candidates:
            if mu == eigenvalue:
                continue
            u = _vec_scale(
                _vec_add(_act(action, u), _vec_scale(u, -mu)), ONE / (eigenvalue - mu)
            )
        if u:
            projected.append(u)
    return _rref(projected)


def check_mutually_commuting(ops: list[FactoredMonomial]) -> bool:
    """True iff every pair satisfies UV == VU, decided site by site."""
    return all(
        a.multiply(b).equals(b.multiply(a))
        for a, b in itertools.combinations(ops, 2)
    )


def _joint_eigenvectors(ops: list[FactoredMonomial]) -> Iterator[JointEigenvector]:
    """Yield the simultaneous eigenbasis orbit by orbit, in canonical order.

    An orbit is found and refined only when the caller asks for its first
    vector, so a caller that stops early never pays for the orbits after it.
    """
    if not check_mutually_commuting(ops):
        raise NonCommutingSetError("word set is not mutually commuting")
    for orbit in _orbit_walk(ops[0].dim, lambda x: (op.entry(x)[0] for op in ops)):
        spaces: list[tuple[list[Vec], tuple[Fraction, ...]]] = [
            ([{j: ONE} for j in orbit], ())
        ]
        for op in ops:
            # each word's entries on the orbit, computed once per orbit
            action = {x: op.entry(x) for x in orbit}
            candidates = _eigenvalue_candidates(action)
            refined: list[tuple[list[Vec], tuple[Fraction, ...]]] = []
            for basis, partial in spaces:
                found = 0
                for lam in candidates:
                    sub = _project_eigenspace(action, basis, lam, candidates)
                    if sub:
                        refined.append((sub, partial + (lam,)))
                        found += len(sub)
                if found != len(basis):
                    raise AssertionError("eigenspace refinement lost dimensions")
            spaces = refined
        for basis, tup in spaces:
            for v in basis:
                support, coeffs = _primitive(v)
                yield JointEigenvector(tup, support, coeffs)


def simultaneous_eigenbasis(
    ps: ProofSet, pairs: SitePairs | None = None
) -> tuple[JointEigenvector, ...]:
    """Full exact simultaneous eigenbasis of a commuting word set.

    Returns exactly dim vectors; each is an eigenvector of every word, and
    vectors from different eigenvalue tuples are orthogonal (the words are
    symmetric matrices). Deterministic: see the module docstring.
    ``select_ghz`` walks the same vectors in the same order but stops at the
    one it picks.
    """
    ops = [w.factored(pairs) for w in ps.words]
    out = tuple(_joint_eigenvectors(ops))
    if len(out) != ops[0].dim:
        raise AssertionError("eigenbasis is incomplete")
    return out


def eigen_tuple_plan_product(
    eigen_tuple: tuple[Fraction, ...], plan: tuple[int, ...]
) -> Fraction:
    prod = ONE
    for i in plan:
        prod *= eigen_tuple[i]
    return prod


def is_eligible(eigen_tuple: tuple[Fraction, ...], plan: tuple[int, ...]) -> bool:
    """Nonzero everywhere and negative product along the plan."""
    if any(not t for t in eigen_tuple):
        return False
    return eigen_tuple_plan_product(eigen_tuple, plan) < 0


def select_ghz(
    ps: ProofSet,
    tuple_hint: tuple[Fraction, ...] | None = None,
    pairs: SitePairs | None = None,
) -> GhzState:
    """Pick the entangled eigenvector the contradiction is built on.

    With a hint, returns the first eigenvector carrying exactly that
    eigenvalue tuple; otherwise the first eligible one in the deterministic
    basis order of ``simultaneous_eigenbasis``. Orbits are refined in that
    order only until the vector is found, so the rest of the basis is never
    computed.
    """
    if tuple_hint is None:
        def wanted(t: tuple[Fraction, ...]) -> bool:
            return is_eligible(t, ps.product_plan)
        missing = (
            "no simultaneous eigenvector has all-nonzero eigenvalues with "
            "a negative plan product"
        )
    else:
        if len(tuple_hint) != len(ps.words):
            raise ValueError(
                f"hint has {len(tuple_hint)} entries for {len(ps.words)} words"
            )
        wanted = tuple(tuple_hint).__eq__
        missing = "no simultaneous eigenvector carries the requested eigen-tuple"
    ops = [w.factored(pairs) for w in ps.words]
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
    state = GhzState(
        chosen.support, chosen.coefficients, chosen.norm_sq, chosen.eigen_tuple
    )
    _check_state(state, ps, ops)
    return state


def _check_state(state: GhzState, ps: ProofSet, ops: list[FactoredMonomial]) -> None:
    """Re-verify the eigenvector equations before handing the state out."""
    vec = state.as_vec()
    for word, op, lam in zip(ps.words, ops, state.eigen_tuple):
        if eigenvalue_of(op, vec) != lam:
            raise AssertionError(f"state fails the eigenvector equation for {word}")


def eigenvalue_of(op: FactoredMonomial, vec: Vec) -> Fraction | None:
    """The exact scalar lam with op*vec = lam*vec, or None when ``vec`` is not
    an eigenvector of ``op``. Only the support of ``vec`` is visited."""
    image = op.apply(vec)
    if not image:
        return ZERO
    anchor = min(vec)
    lam = image.get(anchor, ZERO) / vec[anchor]
    expected = {k: lam * c for k, c in vec.items() if lam * c}
    return lam if image == expected else None
