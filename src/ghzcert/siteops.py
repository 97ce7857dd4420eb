"""One-party anticommuting operator pairs for any level count m >= 2.

A site operator is a `MonomialMatrix`. The canonical pair on an m-level site
(spin s = (m-1)/2):

* A(m) is diagonal with entries s, s-1, ..., -s descending by one per row.
  For odd m the center entry is 0; for even m the entries are half-integers
  and never vanish.
* B(m) is anti-diagonal with row entries |s|, |s-1|, ..., |s| -- the absolute
  values of the A entries, symmetric under row reversal.

These satisfy A(m) B(m) = -B(m) A(m) exactly. Custom pairs with the same
diagonal/anti-diagonal structure are accepted wherever a canonical pair is,
provided anticommutation holds. `custom_site` checks outside weights: the
anti-diagonal ones must be symmetric (that makes the spectral engine exact).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidLevelsError, ShapeError
from .exact import MonomialMatrix, as_rational, monomial_equal, monomial_multiply


def spin(m: int) -> Fraction:
    """The spin value (m-1)/2 attached to an m-level site."""
    if m < 2:
        raise InvalidLevelsError(f"level count must be at least 2, got {m}")
    return Fraction(m - 1, 2)


def build_A(m: int) -> MonomialMatrix:
    """Canonical diagonal operator diag(s, s-1, ..., -s) for s = (m-1)/2."""
    s = spin(m)
    return MonomialMatrix.diagonal(tuple(s - j for j in range(m)))


def build_B(m: int) -> MonomialMatrix:
    """Canonical anti-diagonal operator with row weights |s - j|."""
    s = spin(m)
    return MonomialMatrix.anti_diagonal(tuple(abs(s - j) for j in range(m)))


def custom_site(kind: str, weights) -> MonomialMatrix:
    """A diagonal (kind "A") or anti-diagonal (kind "B") site operator from
    outside row weights, structure checked."""
    ws = tuple(as_rational(w) for w in weights)
    if len(ws) < 2:
        raise InvalidLevelsError(f"level count must be at least 2, got {len(ws)}")
    if kind == "A":
        return MonomialMatrix.diagonal(ws)
    if kind != "B":
        raise ValueError("kind must be 'A' or 'B'")
    if ws != ws[::-1]:
        raise ShapeError("anti-diagonal weights must be symmetric under row reversal")
    return MonomialMatrix.anti_diagonal(ws)


def canonical_pair(m: int) -> tuple[MonomialMatrix, MonomialMatrix]:
    return build_A(m), build_B(m)


def check_anticommute(a: MonomialMatrix, b: MonomialMatrix) -> bool:
    """True iff a*b = -(b*a) exactly.

    Both operators are monomial, so both products are too, and they are
    compared column by column. For diagonal a and anti-diagonal b this is
    the row rule b_j * (a_j + a_{m-1-j}) = 0 for every row j.
    """
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ba = monomial_multiply(b, a)
    minus_ba = MonomialMatrix(ba.dim, ba.target, tuple(-w for w in ba.weight))
    return monomial_equal(monomial_multiply(a, b), minus_ba)
