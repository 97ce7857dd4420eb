"""Command-line front end.

Exit codes: 0 means accept / unsatisfiable-as-claimed / is-ghz, 1 means
reject / satisfiable / not-ghz (including a construction that finds no
eligible eigenvector), 2 means a usage or input-validation error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .certificate import (
    build_ghz_document,
    build_ks_document,
    check_ghz_criteria,
    dumps_document,
    load_document,
    load_pairs_file,
    load_state_file,
    save_document,
    verify_document,
    _spectrum_to_doc,
)
from .errors import GhzError, NoGhzStateError, UsageError
from .exact import format_rational, parse_rational
from .lhv import (
    ConstraintSystem,
    DEFAULT_BOUND,
    brute_force_lhv,
    explain_parity,
    parity_unsat,
)
from .kochen_specker import FULL_SPECTRUM, SIGN_ONLY
from .spectral import plan_product, select_ghz, spectrum_of_factored
from .words import LETTERS, PartySpec, TensorWord, build_proof_set

TEXT = "text"
STRUCTURED = "structured"


def _parse_tuple(text: str, flag: str, count: int) -> tuple[Fraction, ...]:
    """Comma-separated rationals given to ``flag``, one per word."""
    try:
        values = tuple([parse_rational(part) for part in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc
    if len(values) != count:
        raise UsageError(f"system has {count} words; {flag} needs that many entries")
    return values


def _bound(text: str) -> int:
    """A ``--bound`` value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _letters(word: str, flag: str) -> str:
    if set(word) - set(LETTERS):
        raise UsageError(f"{flag}: word {word!r} has a letter outside {LETTERS!r}")
    return word


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == STRUCTURED:
        sys.stdout.write(dumps_document(doc))
    else:
        for line in text_lines:
            print(line)


def _cmd_build(args) -> int:
    parties = PartySpec(tuple(args.levels))
    hint = None
    if args.tuple_hint:
        count = len(build_proof_set(parties).words)
        hint = _parse_tuple(args.tuple_hint, "--tuple-hint", count)
    doc = build_ghz_document(parties, hint, args.bound)
    if args.output:
        save_document(doc, args.output)
    lines = [
        f"parties: {' '.join(str(m) for m in parties.levels)}",
        f"words: {' '.join(doc['words'])}",
        f"plan: {' '.join(str(i) for i in doc['product_plan'])}",
        f"eigen tuple: {' '.join(doc['eigen_tuple'])}",
        f"lhv: {doc['lhv']['status']} after {doc['lhv']['assignments_checked']} assignments",
    ]
    if args.output:
        lines.append(f"certificate written to {args.output}")
    _emit(args, doc, lines)
    return 0


def _cmd_verify(args) -> int:
    doc = load_document(args.certificate)
    ok, reason = verify_document(doc, args.bound)
    result = {"result": "accept" if ok else "reject", "reason": reason}
    _emit(args, result, [f"{result['result']}: {reason}"])
    return 0 if ok else 1


def _cmd_ks(args) -> int:
    mode = args.mode
    doc = build_ks_document(args.m, mode)
    if args.output:
        save_document(doc, args.output)
    lines = [
        f"levels: {args.m}",
        "contexts:",
        *("  " + line for line in doc["contexts_rendered"]),
        f"search ({mode}): {doc['search']['status']} after "
        f"{doc['search']['patterns_checked']} patterns",
    ]
    if args.output:
        lines.append(f"certificate written to {args.output}")
    _emit(args, doc, lines)
    return 0 if doc["search"]["status"] == "UNSAT" else 1


def _cmd_lhv(args) -> int:
    parties = PartySpec(tuple(args.levels))
    ps = build_proof_set(parties)
    pairs = parties.canonical_pairs()
    ops = [w.factored(pairs) for w in ps.words]
    scales = [op.scale for op in ops]
    if args.rhs:
        # over each word's scale; a value off it is met by no assignment
        rhs = tuple([
            t * s for t, s in zip(_parse_tuple(args.rhs, "--rhs", len(ps.words)), scales)
        ])
    else:
        rhs = select_ghz(ps, ops=ops).eigen_tuple
    cs = ConstraintSystem.build(ps, rhs, pairs)
    analytic = parity_unsat(cs)
    report = brute_force_lhv(cs, args.bound, sign_only=args.sign_only)
    doc = {
        "words": list(ps.letter_words),
        "plan": list(ps.product_plan),
        "rhs": [format_rational(t, s) for t, s in zip(rhs, scales)],
        "parity_obstruction": analytic,
        "status": report.status,
        "assignments_checked": report.assignments_checked,
        "sign_only": report.sign_only,
        "witness": (
            None
            if report.witness is None
            else {f"{letter}{party + 1}": format_rational(v, s)
                  for ((party, letter), v), s in zip(report.witness, cs.scales)}
        ),
        "explanation": explain_parity(cs),
    }
    lines = [
        f"words: {' '.join(ps.letter_words)}   plan: {' '.join(str(i) for i in ps.product_plan)}",
        f"rhs: {' '.join(doc['rhs'])}",
        f"parity obstruction: {'yes' if analytic else 'no'}",
        f"brute force: {report.status} after {report.assignments_checked} assignments",
    ]
    if report.witness is not None:
        lines.append(
            "witness: "
            + " ".join(f"{k}={v}" for k, v in sorted(doc["witness"].items()))
        )
    _emit(args, doc, lines)
    return 0 if report.status == "UNSAT" else 1


def _cmd_spectrum(args) -> int:
    parties = PartySpec(tuple(args.levels))
    doc: dict = {"levels": list(parties.levels)}
    lines: list[str] = []
    if args.word is not None:
        word = TensorWord(_letters(args.word, "--word"), parties)
        spectrum = spectrum_of_factored(word.factored())
        doc["word"] = args.word
        doc["spectrum"] = _spectrum_to_doc(spectrum)
        doc["classification"] = spectrum.classify()
        lines.append(f"word {args.word}: " + ", ".join(
            f"{format_rational(v, spectrum.scale)} x{m}" for v, m in spectrum.entries))
        lines.append(f"classification: {spectrum.classify()}")
    if args.product or args.word is None:
        ps = build_proof_set(parties)
        spectrum = spectrum_of_factored(plan_product(ps, parties.canonical_pairs()))
        doc["plan_words"] = list(ps.letter_words)
        doc["plan"] = list(ps.product_plan)
        doc["plan_product_spectrum"] = _spectrum_to_doc(spectrum)
        doc["plan_product_classification"] = spectrum.classify()
        lines.append(
            f"plan product over {' '.join(ps.letter_words)}: "
            + ", ".join(f"{format_rational(v, spectrum.scale)} x{m}" for v, m in spectrum.entries)
        )
        lines.append(f"classification: {spectrum.classify()}")
    _emit(args, doc, lines)
    return 0


def _cmd_criteria(args) -> int:
    state = load_state_file(args.state)
    spec = functools.partial(PartySpec, state.dims)
    pairs = load_pairs_file(args.pairs) if args.pairs else spec().canonical_pairs()
    words = build_proof_set(spec()).letter_words if args.words is None else tuple(
        [_letters(w, "--words") for w in args.words.split(",")])
    if "" in words:
        raise UsageError(f"--words: {args.words!r} has an empty word")
    ok, reason = check_ghz_criteria(state, pairs, words)
    doc = {"result": "is-ghz" if ok else "not-ghz", "reason": reason,
           "words": list(words)}
    _emit(args, doc, [f"{doc['result']}: {reason}"])
    return 0 if ok else 1


@functools.cache  # built on the first call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzcert",
        description=(
            "Construct and verify exact certificates of all-or-nothing "
            "nonlocality and noncontextuality proofs for multiparty "
            "multilevel systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("--format", choices=(TEXT, STRUCTURED), default=TEXT,
                       help="stdout rendering (default: text)")
        if output:
            p.add_argument("--output", help="path to write the certificate")

    p_build = sub.add_parser("build", help="construct a GHZ certificate")
    p_build.add_argument("levels", type=int, nargs="+", help="levels per party")
    p_build.add_argument("--tuple-hint",
                         help="comma-separated eigenvalues to pin the state")
    add_common(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_verify = sub.add_parser("verify", help="re-verify a certificate file")
    p_verify.add_argument("certificate", help="path to the certificate")
    add_common(p_verify, output=False)
    p_verify.set_defaults(func=_cmd_verify)

    p_ks = sub.add_parser("ks", help="build a noncontextuality certificate")
    p_ks.add_argument("m", type=int, help="levels per party (must be even)")
    p_ks.add_argument("--mode", choices=(SIGN_ONLY, FULL_SPECTRUM),
                      default=SIGN_ONLY)
    add_common(p_ks)
    p_ks.set_defaults(func=_cmd_ks)

    p_lhv = sub.add_parser("lhv", help="run the local-value analysis")
    p_lhv.add_argument("levels", type=int, nargs="+")
    p_lhv.add_argument("--rhs", help="comma-separated right-hand sides")
    p_lhv.add_argument("--sign-only", action="store_true",
                       help="fast pre-check over signs instead of spectra")
    add_common(p_lhv, output=False)
    p_lhv.set_defaults(func=_cmd_lhv)

    p_spec = sub.add_parser("spectrum", help="exact spectra of words and plans")
    p_spec.add_argument("levels", type=int, nargs="+")
    p_spec.add_argument("--word", help="letter string, e.g. ABB")
    p_spec.add_argument("--product", action="store_true",
                        help="also show the canonical plan-product spectrum")
    add_common(p_spec, output=False)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_crit = sub.add_parser("criteria", help="check a state against the GHZ criteria")
    p_crit.add_argument("--state", required=True,
                        help="JSON state file with dims/support/coefficients/norm_sq")
    p_crit.add_argument("--words", help="comma-separated words (default: canonical)")
    p_crit.add_argument("--pairs",
                        help="JSON file with custom site_operators (default: canonical)")
    add_common(p_crit, output=False)
    p_crit.set_defaults(func=_cmd_criteria)

    for p in (p_build, p_verify, p_lhv):
        p.add_argument("--bound", type=_bound, default=DEFAULT_BOUND,
                       help="cap on enumeration sizes (a non-negative integer)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoGhzStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GhzError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
