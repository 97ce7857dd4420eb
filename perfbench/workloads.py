"""Seeded workload generation for the ghzcert benchmark (stdlib only).

A workload is a list of items. Each item is one certificate: the argv a user
would type to build it, the extra argv its ``verify`` needs, what the stored
LHV or KS report must say, and how its tampered twin is made.

Every workload draws only cost-neutral choices from the seed (item order,
level permutations, caller bound, KS mode of the cheap companion item and
the tamper details), so that runs with different seeds measure the same
amount of work and their throughputs can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("enum", "wide", "search", "many-small")

# Tamper kinds. COUNT edits the stored enumeration count, which is caught only
# after the verifier has re-run the whole search; RATIONAL edits one exact
# rational, which is caught as soon as the claim it feeds is re-derived.
COUNT = "count"
RATIONAL = "rational"

BRUTE_FORCE = "brute-force"
ANALYTIC = "parity-analytic"


@dataclass(frozen=True)
class Item:
    kind: str  # "ghz" or "ks"
    build_argv: tuple[str, ...]
    verify_extra: tuple[str, ...]
    lhv_expect: str | None  # BRUTE_FORCE or ANALYTIC for GHZ items
    assignment_space: int  # prod(m^2) for GHZ items, 0 for KS
    tamper: str  # COUNT or RATIONAL
    tamper_pick: int  # which entry the tamper edits (taken modulo the count)
    tamper_factor: tuple[int, int]  # scale (num, den) for RATIONAL, delta for COUNT


def _ghz(levels, rng, tamper, bound=None) -> Item:
    space = math.prod(m * m for m in levels)
    extra = () if bound is None else ("--bound", str(bound))
    return Item(
        kind="ghz",
        build_argv=("build", *map(str, levels), *extra),
        verify_extra=extra,
        lhv_expect=BRUTE_FORCE if bound is None else ANALYTIC,
        assignment_space=space,
        tamper=tamper,
        tamper_pick=rng.randrange(1 << 16),
        tamper_factor=_tamper_factor(rng, tamper),
    )


def _ks(m, mode, rng, tamper) -> Item:
    return Item(
        kind="ks",
        build_argv=("ks", str(m), "--mode", mode),
        verify_extra=(),
        lhv_expect=None,
        assignment_space=0,
        tamper=tamper,
        tamper_pick=rng.randrange(1 << 16),
        tamper_factor=_tamper_factor(rng, tamper),
    )


def _tamper_factor(rng, tamper) -> tuple[int, int]:
    if tamper == COUNT:
        return (rng.choice((-3, -2, -1, 1, 2, 3)), 1)
    return rng.choice(((2, 1), (3, 1), (1, 2), (5, 3), (3, 7)))


def _enum(rng) -> list[Item]:
    # Assignment spaces 1.6e4 .. 6.6e4 under the default bound: LHV brute
    # force and the full-spectrum KS search dominate build and verify.
    items = [
        _ghz((3,) * 5, rng, COUNT),
        _ghz((4,) * 4, rng, COUNT),
        _ghz((2,) * 7, rng, COUNT),
        _ghz((6,) * 3, rng, COUNT),
        _ks(6, "full-spectrum", rng, COUNT),
    ]
    rng.shuffle(items)
    return items


def _wide(rng) -> list[Item]:
    # Composite dimensions 1,000 .. 2,187 with a caller bound below every
    # assignment space: the LHV decision takes the parity-analytic bypass and
    # the eigenbasis, spectra and word realization carry the cost.
    bound = rng.randrange(1_000, 1_000_000)
    items = [
        _ghz((3,) * 7, rng, COUNT, bound),
        _ghz((10,) * 3, rng, RATIONAL, bound),
        _ghz((12,) * 3, rng, COUNT, bound),
        _ghz((2,) * 10, rng, RATIONAL, bound),
        _ks(2, rng.choice(("sign-only", "full-spectrum")), rng, COUNT),
    ]
    rng.shuffle(items)
    return items


def _search(rng) -> list[Item]:
    # Eleven parties: the exponential four-word proof-set search is most of
    # the build. The KS companion keeps every layer metric defined here.
    bound = rng.randrange(1_000, 4 ** 11)
    items = [
        _ghz((2,) * 11, rng, COUNT, bound),
        _ks(2, rng.choice(("sign-only", "full-spectrum")), rng, COUNT),
    ]
    rng.shuffle(items)
    return items


# Every level multiset with 3..6 parties, 2..8 levels of one parity and an
# assignment space of at most 4,096 (product of levels at most 64).
SMALL_LEVELS = (
    (2, 2, 2), (2, 2, 4), (2, 2, 6), (2, 2, 8), (2, 4, 4), (2, 4, 6),
    (2, 4, 8), (4, 4, 4), (3, 3, 3), (3, 3, 5), (3, 3, 7),
    (2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 2, 6), (2, 2, 2, 8), (2, 2, 4, 4),
    (2, 2, 2, 2, 2), (2, 2, 2, 2, 4), (2, 2, 2, 2, 2, 2),
)
SMALL_KS = ((2, "sign-only"), (4, "sign-only"), (6, "sign-only"),
            (2, "full-spectrum"), (4, "full-spectrum"))


def _many_small(rng) -> list[Item]:
    # Each class appears twice, once per tamper kind, so the reject cost does
    # not depend on the seed; the seed permutes the levels of each copy, which
    # makes some copies exact repeats of others.
    items = []
    for levels in SMALL_LEVELS:
        for tamper in (COUNT, RATIONAL):
            perm = list(levels)
            rng.shuffle(perm)
            items.append(_ghz(tuple(perm), rng, tamper))
    for m, mode in SMALL_KS:
        for tamper in (COUNT, RATIONAL):
            items.append(_ks(m, mode, rng, tamper))
    rng.shuffle(items)
    return items


_GENERATORS = {"enum": _enum, "wide": _wide, "search": _search,
               "many-small": _many_small}


def generate(workload: str, seed: int) -> list[Item]:
    """The items of one workload; the same seed gives the same items."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def repeat_share(items: list[Item]) -> float:
    """Share of items whose build argv repeats an earlier item's exactly."""
    seen: set[tuple[str, ...]] = set()
    repeats = 0
    for item in items:
        repeats += item.build_argv in seen
        seen.add(item.build_argv)
    return repeats / len(items)
