"""Exhaustive search for the first value assignment that meets product checks.

One kernel serves every enumeration in the package: the local-value
assignments of a GHZ constraint system (full spectra or signs only) and the
value assignments of the noncontextuality configuration (signs or full
spectra). Each problem is a list of finite value domains, one per slot, and a
list of checks, each a condition on the exact product of the values at a
multiset of slots.

The walk is exhaustive, in the lexicographic order of
``itertools.product(*domains)`` (the last slot varies fastest), with refuted
prefixes counted whole:

* every check runs as soon as its deepest slot is assigned, on a partial
  product carried down the depth-first walk; a failed check refutes the whole
  subtree below, and the subtree's size is added to the count;
* a check that pins the product to a single value is solved at its deepest
  slot by division instead of looping over the slot's values;
* every slot's values are scaled by the common denominator of its domain, so
  all products are exact Python integers; the allowed products scale with
  them, and one that does not scale to an integer can never be met.

The count therefore equals what a plain ``itertools.product`` loop would
report: the full space when no assignment works, otherwise the 1-based
position of the lexicographically first witness.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Check:
    """A condition on the exact product of the values at ``slots``.

    ``slots`` is a multiset: a slot listed twice enters the product squared.
    When ``allowed`` is given the product must be one of its values; when
    ``positive`` is given the product must be positive (True) or not
    positive (False).
    """

    slots: tuple[int, ...]
    allowed: frozenset[Fraction] | None = None
    positive: bool | None = None


def first_assignment(
    domains: Sequence[Sequence[Fraction]], checks: Sequence[Check]
) -> tuple[int, tuple | None]:
    """The lexicographically first assignment meeting every check.

    Slot ``k`` takes its values from ``domains[k]`` in the order given;
    there must be at least one slot.
    Returns ``(checked, witness)``: ``witness`` is the assignment as a tuple
    of the original domain values, or None when there is none; ``checked``
    is the witness's 1-based position in ``itertools.product(*domains)``
    order, or the size of the whole space when there is no witness.
    """
    n = len(domains)
    if n == 0:
        raise ValueError("the search needs at least one slot")
    denominators = [math.lcm(*(Fraction(v).denominator for v in d)) for d in domains]
    values = [
        tuple(int(Fraction(v) * den) for v in d)
        for d, den in zip(domains, denominators)
    ]

    # Scale every check to integers and file it under its deepest slot:
    # carry[k] updates the partial products, final[k] tests them, and
    # solve[k] is the first final check that pins the product to at most one
    # value, solved by division as (check, target or None, value index).
    carry: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    final: list[list[tuple]] = [[] for _ in range(n)]
    solve: list[tuple[int, int | None, dict[int, list[int]]] | None] = [None] * n
    for c, check in enumerate(checks):
        exponents = Counter(check.slots)
        scale = math.prod(denominators[k] ** e for k, e in exponents.items())
        allowed = check.allowed
        if allowed is not None:
            allowed = frozenset(
                int(x) for x in (Fraction(t) * scale for t in allowed)
                if x.denominator == 1
            )
        # a check on no slots is a constant, tested at the first slot
        deepest = max(exponents, default=0)
        exponents.setdefault(deepest, 0)
        for k, e in exponents.items():
            powers = tuple(v**e for v in values[k])
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
        below[k] = below[k + 1] * len(values[k + 1])
    last = n - 1
    chosen = [0] * n
    checked = 0

    def candidates(k: int, prods: list[int]):
        if solve[k] is None:
            return range(len(values[k]))
        c, target, index = solve[k]
        p = prods[c]
        if target is None:
            return ()
        if p == 0:
            return range(len(values[k])) if target == 0 else ()
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
        checked += (len(values[k]) - counted) * size
        return False

    if not visit(0, [1] * len(checks)):
        return checked, None
    return checked, tuple(d[i] for d, i in zip(domains, chosen))
