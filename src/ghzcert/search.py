"""Search for the first value assignment that meets product checks.

One kernel serves every enumeration in the package: the local-value
assignments of a GHZ constraint system (full spectra or signs only) and the
value assignments of the noncontextuality configuration (signs or full
spectra). Each problem is a list of finite domains of integer values, one
per slot, and a list of checks, each a condition on the exact product of the
values at a multiset of slots. Callers put each slot's values over its
operator's scale and each allowed product over the product of those scales,
so every product is an exact Python integer; an allowed product that is not
an integer can never be met.

Every search first decides the sign system of its checks by Gaussian
elimination over GF(2) (``sign_refutation``). Each slot contributes one sign
bit, a constant when all nonzero values of its domain share a sign and a
free variable when they do not; each check whose allowed products are all
nonzero and of one sign contributes the equation "the odd-multiplicity slot
bits sum to the sign", and is refuted alone when one of its slots has no
nonzero value. Checks that allow a zero product, or products of both signs,
are left out, which only weakens the system. When the equations combine to
0 = 1, no assignment meets the checks, and the count is the size of the
whole space -- exactly what an exhaustive walk reports -- without visiting
any assignment.

Otherwise the depth-first walk runs, in the lexicographic order of
``itertools.product(*domains)`` (the last slot varies fastest), with refuted
prefixes counted whole:

* every check runs as soon as its deepest slot is assigned, on a partial
  product carried down the depth-first walk; a failed check refutes the whole
  subtree below, and the subtree's size is added to the count;
* a check that pins the product to a single value is solved at its deepest
  slot by division instead of looping over the slot's values.

The count therefore equals what a plain ``itertools.product`` loop would
report: the full space when no assignment works, otherwise the 1-based
position of the lexicographically first witness.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """A condition on the exact product of the values at ``slots``.

    ``slots`` is a multiset: a slot listed twice enters the product squared.
    When ``allowed`` is given the product must be one of its values; when
    ``positive`` is given the product must be positive (True) or not
    positive (False).
    """

    slots: tuple[int, ...]
    allowed: frozenset[int] | None = None
    positive: bool | None = None


def _sign_parity(check: Check, domains: Sequence[Sequence[int]]) -> int | None:
    """1 (negative) or 0 (positive) when every product the check allows is
    nonzero and of that sign, otherwise None."""
    if check.allowed is not None:
        allowed = [
            t for t in check.allowed
            if check.positive is None or (t > 0) == check.positive
        ]
        signs = {t > 0 for t in allowed}
        if 0 in allowed or len(signs) != 1:
            return None
        return 0 if True in signs else 1
    if check.positive:
        return 0
    if check.positive is False and all(0 not in domains[k] for k in check.slots):
        return 1
    return None


def sign_refutation(
    domains: Sequence[Sequence[int]], checks: Sequence[Check]
) -> tuple[int, ...] | None:
    """Indices of checks whose sign equations sum to 0 = 1 over GF(2).

    Any assignment meeting the checks has nonzero values at every slot of a
    sign-definite check, so its sign bits would solve the equations; a
    refutation therefore proves that no assignment exists. A single index
    may also name a sign-definite check over a slot with no nonzero value.
    Returns None when the sign system is solvable.
    """
    free: dict[int, int] = {}  # slot -> its variable's bit
    fixed: dict[int, int] = {}  # slot -> its constant sign bit
    for k, d in enumerate(domains):
        signs = {v > 0 for v in d if v}
        if len(signs) == 2:
            free[k] = 1 << len(free)
        elif signs:
            fixed[k] = 0 if True in signs else 1
    # reduced rows keyed by their lowest variable bit: (row, rhs, checks used)
    pivots: dict[int, tuple[int, int, int]] = {}
    for c, check in enumerate(checks):
        rhs = _sign_parity(check, domains)
        if rhs is None:
            continue
        row, used = 0, 1 << c
        for k, e in Counter(check.slots).items():
            if k not in free and k not in fixed:
                return (c,)
            if e % 2:
                if k in free:
                    row ^= free[k]
                else:
                    rhs ^= fixed[k]
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = (row, rhs, used)
                break
            prow, prhs, pused = pivots[low]
            row, rhs, used = row ^ prow, rhs ^ prhs, used ^ pused
        else:
            if rhs:
                return tuple([i for i in range(len(checks)) if used >> i & 1])
    return None


def first_assignment(
    domains: Sequence[Sequence[int]], checks: Sequence[Check]
) -> tuple[int, tuple | None]:
    """The lexicographically first assignment meeting every check.

    Slot ``k`` takes its values from ``domains[k]`` in the order given;
    there must be at least one slot.
    Returns ``(checked, witness)``: ``witness`` is the assignment as a tuple
    of the original domain values, or None when there is none; ``checked``
    is the witness's 1-based position in ``itertools.product(*domains)``
    order, or the size of the whole space when there is no witness. A
    sign refutation settles the second case without walking the space.
    """
    if not domains:
        raise ValueError("the search needs at least one slot")
    if sign_refutation(domains, checks) is not None:
        return math.prod(len(d) for d in domains), None
    return _walk(domains, checks)


def _walk(
    domains: Sequence[Sequence[int]], checks: Sequence[Check]
) -> tuple[int, tuple | None]:
    """``first_assignment`` by the depth-first walk."""
    n = len(domains)

    # File every check under its deepest slot:
    # carry[k] updates the partial products, final[k] tests them, and
    # solve[k] is the first final check that pins the product to at most one
    # value, solved by division as (check, target or None, value index).
    carry: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    final: list[list[tuple]] = [[] for _ in range(n)]
    solve: list[tuple[int, int | None, dict[int, list[int]]] | None] = [None] * n
    for c, check in enumerate(checks):
        exponents = Counter(check.slots)
        allowed = check.allowed
        # a check on no slots is a constant, tested at the first slot
        deepest = max(exponents, default=0)
        exponents.setdefault(deepest, 0)
        for k, e in exponents.items():
            powers = tuple([v**e for v in domains[k]])
            if k != deepest:
                carry[k].append((c, powers))
                continue
            final[k].append((c, powers, allowed, check.positive))
            if solve[k] is None and allowed is not None and len(allowed) <= 1:
                index: dict[int, list[int]] = {}
                for i, v in enumerate(powers):
                    index.setdefault(v, []).append(i)
                solve[k] = (c, next(iter(allowed), None), index)

    below = [1] * n
    for k in range(n - 2, -1, -1):
        below[k] = below[k + 1] * len(domains[k + 1])
    last = n - 1
    chosen = [0] * n
    checked = 0

    def candidates(k: int, prods: list[int]):
        if solve[k] is None:
            return range(len(domains[k]))
        c, target, index = solve[k]
        p = prods[c]
        if target is None:
            return ()
        if p == 0:
            return range(len(domains[k])) if target == 0 else ()
        if target % p:
            return ()
        return index.get(target // p, ())

    def visit(k: int, prods: list[int]) -> bool:
        nonlocal checked
        tests = final[k]
        size = below[k]
        counted = 0  # values below this index are already in the count
        for i in candidates(k, prods):
            checked += (i - counted) * size
            counted = i + 1
            for c, powers, allowed, positive in tests:
                p = prods[c] * powers[i]
                if (allowed is not None and p not in allowed) or (
                    positive is not None and (p > 0) != positive
                ):
                    break
            else:
                chosen[k] = i
                if k == last:
                    checked += 1
                    return True
                nxt = list(prods)
                for c, powers in carry[k]:
                    nxt[c] *= powers[i]
                if visit(k + 1, nxt):
                    return True
                continue
            checked += size
        checked += (len(domains[k]) - counted) * size
        return False

    if not visit(0, [1] * len(checks)):
        return checked, None
    return checked, tuple([d[i] for d, i in zip(domains, chosen)])
