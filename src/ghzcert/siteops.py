"""One-party anticommuting operator pairs for any level count m >= 2.

A site operator is a `MonomialMatrix`. The canonical pair on an m-level site
(spin s = (m-1)/2), with integer weights over the scale 1 for odd m and 2
for even m:

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

from .errors import InvalidLevelsError, ShapeError
from .exact import MonomialMatrix, scaled_to_integers


def _spin_weights(m: int) -> tuple[tuple[int, ...], int]:
    """s, s-1, ..., -s for s = (m-1)/2, as integers over their scale."""
    if m < 2:
        raise InvalidLevelsError(f"level count must be at least 2, got {m}")
    scale = 2 - m % 2
    return tuple([(m - 1 - 2 * j) * scale // 2 for j in range(m)]), scale


def build_A(m: int) -> MonomialMatrix:
    """Canonical diagonal operator diag(s, s-1, ..., -s) for s = (m-1)/2."""
    weights, scale = _spin_weights(m)
    return MonomialMatrix.diagonal(weights, scale)


def build_B(m: int) -> MonomialMatrix:
    """Canonical anti-diagonal operator with row weights |s - j|."""
    weights, scale = _spin_weights(m)
    return MonomialMatrix.anti_diagonal(tuple([abs(w) for w in weights]), scale)


def custom_site(kind: str, weights) -> MonomialMatrix:
    """A diagonal (kind "A") or anti-diagonal (kind "B") site operator from
    outside row weights (ints or Fractions), structure checked."""
    ws, scale = scaled_to_integers(weights)
    if len(ws) < 2:
        raise InvalidLevelsError(f"level count must be at least 2, got {len(ws)}")
    if kind == "A":
        return MonomialMatrix.diagonal(ws, scale)
    if kind != "B":
        raise ValueError("kind must be 'A' or 'B'")
    if ws != ws[::-1]:
        raise ShapeError("anti-diagonal weights must be symmetric under row reversal")
    return MonomialMatrix.anti_diagonal(ws, scale)


def canonical_pair(m: int) -> tuple[MonomialMatrix, MonomialMatrix]:
    return build_A(m), build_B(m)


def check_anticommute(a: MonomialMatrix, b: MonomialMatrix) -> bool:
    """True iff a*b = -(b*a) exactly.

    Both products are monomial and over the same scale, so they are compared
    column by column. For diagonal a and anti-diagonal b this is the row
    rule b_j * (a_j + a_{m-1-j}) = 0 for every row j.
    """
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    for j in range(a.dim):
        ab = a.weight[b.target[j]] * b.weight[j]
        ba = b.weight[a.target[j]] * a.weight[j]
        if ab != -ba or (ab and a.target[b.target[j]] != b.target[a.target[j]]):
            return False
    return True
