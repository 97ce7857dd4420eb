"""Independent brute-force oracles for the package's searches.

The first part holds the plain ``itertools.product`` loops the package used
before its searches moved onto ``ghzcert.search.first_assignment``. They
visit every assignment one by one, with no pruning, scaling or division, so
agreement with the kernel on status, count and witness checks the kernel's
prefix refutation and counting.

The second part holds the word-set searches the package used before proof
sets were constructed from column-type counts: the lexicographic search over
four-word sets and the loop over every candidate fifth word, plus the
enumeration showing that no four-word set exists for four parties. They take time
exponential in the party count, so they are the reference for small ``n``.

The third part holds the orbit decomposition loop the package used before
``OrbitDecomposition.from_targets`` took its seeds in one pass over the
indices: it seeds each orbit with ``min`` of the unvisited set.

The fourth part holds the composite-dimension path the package used before
words stayed factored: realization as a fold of ``monomial_tensor``, the
pairwise commutation check on full products, and the simultaneous
eigenbasis refined over the orbits of full index maps.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ghzcert.errors import InvalidLevelsError, ParityError, SearchBoundError
from ghzcert.exact import (
    ONE,
    MonomialMatrix,
    monomial_equal,
    monomial_multiply,
    monomial_tensor,
)
from ghzcert.kochen_specker import (
    FULL_SPECTRUM,
    KS_SAT,
    KS_UNSAT,
    SIGN_ONLY,
    KsConfiguration,
    KsReport,
    plan_product_spectrum,
)
from ghzcert.lhv import DEFAULT_BOUND, SAT, UNSAT, ConstraintSystem, LhvReport
from ghzcert.search import Check
from ghzcert.spectral import (
    JointEigenvector,
    OrbitDecomposition,
    _primitive,
    _rref,
    _vec_add,
    _vec_scale,
)
from ghzcert.words import (
    LETTERS,
    PartySpec,
    ProofSet,
    TensorWord,
    _flags,
    _outlier_last,
    plan_product_sign,
)


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
    pairs = cfg.pairs()
    one_party = [
        (idx, obs) for idx, obs in enumerate(cfg.observables) if not obs.is_composite
    ]
    domains = []
    for _, obs in one_party:
        party = next(p for p, c in enumerate(obs.letters) if c != "I")
        a_op, b_op = pairs[party]
        op = a_op if obs.letters[party] == "A" else b_op
        domains.append(tuple(sorted(op.spectrum_values(), reverse=True)))
    factor_of = {idx: k for k, (idx, _) in enumerate(one_party)}
    composite_ids = [i for i, obs in enumerate(cfg.observables) if obs.is_composite]
    composite_factors = {
        ctx[0]: tuple(factor_of[i] for i in ctx[1:]) for ctx in cfg.contexts[1:]
    }
    allowed_products = set(plan_product_spectrum(cfg).as_dict())

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
        if _flags(tuple(candidate), plan).all_ok:
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


def generate_odd_set(parties: PartySpec) -> ProofSet:
    if parties.n % 2 == 0:
        raise ParityError(f"party count {parties.n} is even; use extend_even_set")
    plan = (0, 1, 2, 3)
    for candidate in search_four_sets(parties.n):
        if not _flags(candidate, plan).all_ok:
            continue
        if plan_product_sign(candidate, plan) != -1:
            continue
        ordered = _outlier_last(candidate)
        words = tuple(TensorWord(w, parties) for w in ordered)
        return ProofSet.assemble(words, plan)
    raise ValueError(f"no valid four-word set exists for {parties.n} parties")


def extend_even_set(parties: PartySpec) -> ProofSet:
    if parties.n % 2 == 1:
        raise ParityError(f"party count {parties.n} is odd; use generate_odd_set")
    if parties.n < 4:
        raise InvalidLevelsError("even extension needs at least 4 parties")
    sub = PartySpec(parties.levels[:-1], allow_mixed_parity=parties.allow_mixed_parity)
    base = generate_odd_set(sub)
    extended = tuple(w.letters + "B" for w in base.words)
    base_parity = base.words[0].a_count % 2
    plan = (0, 1, 2, 3, 4, 4)
    for prefix in itertools.product(LETTERS, repeat=parties.n - 1):
        fifth = "".join(prefix) + "A"
        if fifth.count("A") % 2 != base_parity:
            continue
        candidate = extended + (fifth,)
        if not _flags(candidate, plan).all_ok:
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
            mats.append((a_op if letter == "A" else b_op).to_monomial())
    acc = mats[0]
    for mat in mats[1:]:
        acc = monomial_tensor(acc, mat)
    return acc


def mutually_commuting(mats: list[MonomialMatrix]) -> bool:
    for a, b in itertools.combinations(mats, 2):
        if not monomial_equal(monomial_multiply(a, b), monomial_multiply(b, a)):
            return False
    return True


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
                _vec_add(op.apply(u), _vec_scale(u, -mu)), ONE / (eigenvalue - mu)
            )
        if u:
            projected.append(u)
    return _rref(projected)


def simultaneous_eigenbasis(mats: list[MonomialMatrix]) -> tuple[JointEigenvector, ...]:
    """Every joint eigenvector of commuting composite monomials, in order."""
    if not mutually_commuting(mats):
        raise ValueError("word set is not mutually commuting")
    decomposition = OrbitDecomposition.from_targets(
        mats[0].dim, [m.target for m in mats]
    )
    out = []
    for orbit in decomposition.orbits:
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
