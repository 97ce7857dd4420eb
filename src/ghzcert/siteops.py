"""One-party anticommuting operator pairs for any level count m >= 2.

The canonical pair on an m-level site (spin s = (m-1)/2):

* A(m) is diagonal with entries s, s-1, ..., -s descending by one per row.
  For odd m the center entry is 0; for even m the entries are half-integers
  and never vanish.
* B(m) is anti-diagonal with row entries |s|, |s-1|, ..., |s| -- the absolute
  values of the A entries, symmetric under row reversal.

These satisfy A(m) B(m) = -B(m) A(m) exactly. Custom pairs with the same
diagonal/anti-diagonal structure are accepted wherever a canonical pair is,
provided anticommutation holds; the anti-diagonal weights must be symmetric
(that symmetry is what makes the spectral engine exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidLevelsError, ShapeError
from .exact import MonomialMatrix, as_rational, monomial_equal, monomial_multiply

A_KIND = "A"
B_KIND = "B"


@dataclass(frozen=True)
class SiteOperator:
    """One-party operator, diagonal (A-kind) or anti-diagonal (B-kind).

    ``weights`` are indexed by row: A-kind stores the diagonal entries top
    to bottom, B-kind the anti-diagonal entries top to bottom.
    """

    dim: int
    kind: str
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise InvalidLevelsError(f"level count must be at least 2, got {self.dim}")
        if self.kind not in (A_KIND, B_KIND):
            raise ValueError(f"kind must be {A_KIND!r} or {B_KIND!r}")
        if len(self.weights) != self.dim:
            raise ShapeError("weight count must equal the level count")
        if self.kind == B_KIND:
            for j in range(self.dim):
                if self.weights[j] != self.weights[self.dim - 1 - j]:
                    raise ShapeError(
                        "anti-diagonal weights must be symmetric under row reversal"
                    )

    def to_monomial(self) -> MonomialMatrix:
        if self.kind == A_KIND:
            return MonomialMatrix.diagonal(self.weights)
        return MonomialMatrix.anti_diagonal(self.weights)

    def spectrum_values(self) -> tuple[Fraction, ...]:
        """Distinct eigenvalues, ascending, by the orbit/spectrum rule of
        `MonomialMatrix.eigenvalue_counts`: A-kind is diagonal, so the
        eigenvalues are its weights; B-kind pairs rows j and m-1-j into
        blocks [[0, w], [w, 0]] with eigenvalues +-w, and an odd-m center row
        contributes its own weight.
        """
        return tuple(sorted(self.to_monomial().eigenvalue_counts()))


def spin(m: int) -> Fraction:
    """The spin value (m-1)/2 attached to an m-level site."""
    if m < 2:
        raise InvalidLevelsError(f"level count must be at least 2, got {m}")
    return Fraction(m - 1, 2)


def build_A(m: int) -> SiteOperator:
    """Canonical diagonal operator diag(s, s-1, ..., -s) for s = (m-1)/2."""
    s = spin(m)
    return SiteOperator(m, A_KIND, tuple(s - j for j in range(m)))


def build_B(m: int) -> SiteOperator:
    """Canonical anti-diagonal operator with row weights |s - j|."""
    s = spin(m)
    return SiteOperator(m, B_KIND, tuple(abs(s - j) for j in range(m)))


def custom_site(kind: str, weights) -> SiteOperator:
    """Wrap user-supplied weights as a site operator (structure checked)."""
    ws = tuple(as_rational(w) for w in weights)
    return SiteOperator(len(ws), kind, ws)


def canonical_pair(m: int) -> tuple[SiteOperator, SiteOperator]:
    return build_A(m), build_B(m)


def check_anticommute(a: SiteOperator, b: SiteOperator) -> bool:
    """True iff a*b = -(b*a) exactly.

    Both operators are monomial, so both products are too, and they are
    compared column by column. For diagonal a and anti-diagonal b this is
    the row rule b_j * (a_j + a_{m-1-j}) = 0 for every row j.
    """
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ma, mb = a.to_monomial(), b.to_monomial()
    ba = monomial_multiply(mb, ma)
    minus_ba = MonomialMatrix(ba.dim, ba.target, tuple(-w for w in ba.weight))
    return monomial_equal(monomial_multiply(ma, mb), minus_ba)
