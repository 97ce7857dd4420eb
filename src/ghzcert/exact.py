"""Exact integer scalars and the small matrix kernel everything else uses.

Every scalar is an integer over a positive ``scale``: a site operator's
weights over its own (1 for odd m, 2 for even m), and a product or tensor
product over the product of its factors' scales. No floating point exists
anywhere in the package, and `fractions.Fraction` only at the document
boundary: `parse_rational`, `scaled_to_integers` and `format_rational`.

Matrices are kept in `MonomialMatrix` form: generalized permutations (one
nonzero per row and column). Each site operator is one (diagonal or
anti-diagonal), and so is every tensor word.

A tensor word, and any product of words, is kept as a `FactoredMonomial`:
the tuple of its per-site monomial factors. It applies to sparse vectors
keyed by digit tuples, so nothing of composite dimension is ever formed;
`expand()` gives the `MonomialMatrix` of the whole operator. Products are
not multiplied: `spectral.column_product` reads each site factor of a
product off its letters. Factored operators are never compared:
`words.letters_commute` decides commutation.

All forms are immutable; every operation is a pure function.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm, prod
from operator import getitem
from typing import Iterable, Mapping, Sequence

from .errors import ShapeError

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational written as ``num`` or ``num/den`` (den positive).

    Anything that is not a string raises ``ValueError`` too, so callers that
    read untrusted documents can reject every malformed value the same way.
    """
    if not isinstance(text, str):
        raise ValueError(f"a rational literal must be a string, got {text!r}")
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = parse_integer(m.group(1))
    den = parse_integer(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def parse_integer(text: str) -> int:
    """``int(text)`` at any size, the inverse of `format_integer`: ``int``
    refuses a string past the interpreter's digit limit."""
    if len(text) < 640:
        return int(text)
    from decimal import Decimal
    return int(Decimal(text))


def format_integer(n: int) -> str:
    """``str(n)`` at any size: ``str`` refuses an int past the interpreter's
    digit limit (640 digits at the least), ``Decimal`` has no such limit."""
    if n.bit_length() < 2000:
        return str(n)
    from decimal import Decimal
    return str(Decimal(n))


def format_rational(x: int | Fraction, scale: int = 1) -> str:
    """Render x / scale (scale positive) in lowest terms as ``num`` or
    ``num/den`` with positive denominator."""
    num, den = x.numerator, x.denominator * scale
    if scale != 1:
        g = gcd(num, den)
        num, den = num // g, den // g
    if den == 1:
        return format_integer(num)
    return f"{format_integer(num)}/{format_integer(den)}"


def scaled_to_integers(values: Sequence[int | Fraction]) -> tuple[tuple[int, ...], int]:
    """The integers over the least common denominator that equal ``values``,
    with that denominator."""
    scale = reduce(lcm, (v.denominator for v in values), 1)
    return tuple([v.numerator * (scale // v.denominator) for v in values]), scale


@dataclass(frozen=True)
class MonomialMatrix:
    """Matrix with at most one nonzero entry per row and column.

    Column ``j`` holds ``weight[j] / scale`` at row ``target[j]`` (integer
    weights, positive scale); weights may be zero (the column is then
    empty). The constructors guarantee that ``target`` is a permutation
    with one weight per column, so the fields are not checked again.

    Tensor-word realizations additionally satisfy ``target`` being an
    involution with ``weight[j] == weight[target[j]]``; products of such
    matrices stay monomial but are checked lazily where those stronger
    properties are required.
    """

    dim: int
    target: tuple[int, ...]
    weight: tuple[int, ...]
    scale: int = 1

    @classmethod
    def identity(cls, dim: int) -> MonomialMatrix:
        return cls(dim, tuple(range(dim)), (1,) * dim)

    @classmethod
    def diagonal(cls, weights: Sequence[int], scale: int = 1) -> MonomialMatrix:
        return cls(len(weights), tuple(range(len(weights))), tuple(weights), scale)

    @classmethod
    def anti_diagonal(cls, weights: Sequence[int], scale: int = 1) -> MonomialMatrix:
        """Column j maps to row dim-1-j; ``weights`` are indexed by row."""
        n = len(weights)
        # entry at (row i, column n-1-i) is weights[i], so column j carries
        # weights[n-1-j]
        return cls(n, tuple([n - 1 - j for j in range(n)]),
                   tuple([weights[n - 1 - j] for j in range(n)]), scale)

    @cached_property
    def eigenvalue_counts(self) -> tuple[tuple[int, int], ...]:
        """(eigenvalue over ``scale``, multiplicity) pairs, ascending, of a
        diagonal or involutive symmetric-weight monomial: the one
        orbit/spectrum rule, computed once per operator.

        Each column j is paired with ``target[j]``: a fixed point contributes
        its weight, a 2-cycle its weight with both signs. Any other shape (a
        longer cycle, or a 2-cycle with unequal weights) raises ``ShapeError``.
        """
        counts: dict[int, int] = {}
        for j, t in enumerate(self.target):
            w = self.weight[j]
            if t == j:
                counts[w] = counts.get(w, 0) + 1
            elif self.target[t] != j or self.weight[t] != w:
                raise ShapeError(
                    "spectrum requires a diagonal or involutive symmetric-weight operator"
                )
            elif j < t:
                counts[w] = counts.get(w, 0) + 1
                counts[-w] = counts.get(-w, 0) + 1
        return tuple(sorted(counts.items()))

    @cached_property
    def sign_counts(self) -> tuple[int, int, int]:
        """(positive, negative, zero) eigenvalue counts, computed once per operator."""
        return count_signs(self.eigenvalue_counts)


def count_signs(entries: Sequence[tuple[int, int]]) -> tuple[int, int, int]:
    """(positive, negative, zero) totals of a (value, multiplicity) list."""
    return (sum(m for v, m in entries if v > 0), sum(m for v, m in entries if v < 0),
            sum(m for v, m in entries if not v))


def monomial_multiply(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """Matrix product a*b of two monomial matrices (always monomial)."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    target = tuple([a.target[b.target[j]] for j in range(b.dim)])
    weight = tuple([b.weight[j] * a.weight[b.target[j]] for j in range(b.dim)])
    return MonomialMatrix(a.dim, target, weight, a.scale * b.scale)


def monomial_compose(words: Iterable[MonomialMatrix]) -> MonomialMatrix:
    """Left-to-right product of monomial matrices.

    The monomial family is closed under products, so the result is always
    returned in monomial form.
    """
    mats = list(words)
    if not mats:
        raise ShapeError("cannot compose an empty sequence")
    acc = mats[0]
    for m in mats[1:]:
        acc = monomial_multiply(acc, m)
    return acc


def monomial_tensor(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    """Kronecker product in monomial form: composite column
    j1 * b.dim + j2 (left factor most significant)."""
    dim = a.dim * b.dim
    target = []
    weight = []
    for j1 in range(a.dim):
        for j2 in range(b.dim):
            target.append(a.target[j1] * b.dim + b.target[j2])
            weight.append(a.weight[j1] * b.weight[j2])
    return MonomialMatrix(dim, tuple(target), tuple(weight), a.scale * b.scale)


@dataclass(frozen=True, eq=False)
class FactoredMonomial:
    """Kronecker product of per-site monomial matrices, kept factored.

    A composite index is a tuple of digits, one per site; ``expand()``, the
    fold of `monomial_tensor` over ``factors``, indexes it by its mixed-radix
    value, so lexicographic order is that index's order. Entries are over
    ``scale``, the product of the factors' scales. ``==`` is identity.
    """

    factors: tuple[MonomialMatrix, ...]

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple([f.dim for f in self.factors])

    @property
    def dim(self) -> int:
        return prod(self.levels)

    @property
    def scale(self) -> int:
        return prod(f.scale for f in self.factors)

    @cached_property
    def _tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        return (tuple([f.target for f in self.factors]),
                tuple([f.weight for f in self.factors]))

    def entry(self, digits: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Target row and weight (over ``scale``) of composite column
        ``digits``: each site's digit is looked up in its factor's tables."""
        targets, weights = self._tables
        return tuple(map(getitem, targets, digits)), prod(map(getitem, weights, digits))

    def apply(self, vector: Mapping[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
        """Apply to a sparse vector {digits: coefficient}, one support index
        at a time (the result is over ``scale``); zero results dropped. Both
        tables are read in place, as `entry` reads them."""
        targets, weights = self._tables
        out: dict[tuple[int, ...], int] = {}
        for j, c in vector.items():
            w = prod(map(getitem, weights, j))
            if w and c:
                out[tuple(map(getitem, targets, j))] = w * c
        return out

    def expand(self) -> MonomialMatrix:
        """The operator as one monomial matrix on the composite space."""
        return reduce(monomial_tensor, self.factors)
