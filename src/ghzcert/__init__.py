"""Exact construction and verification of all-or-nothing nonlocality proofs
for systems of n parties with m levels each (or mixed levels of equal
parity), plus the companion noncontextuality certificates for even levels.

All arithmetic is exact rational; every derived claim ships with an
independent re-verification path.
"""

__version__ = "0.1.0"

from .errors import (
    CertificateError,
    GhzError,
    InvalidLevelsError,
    NoGhzStateError,
    NonCommutingSetError,
    ParityError,
    PartyMismatchError,
    SearchBoundError,
    ShapeError,
)
from .exact import (
    FactoredMonomial,
    MonomialMatrix,
    Rational,
    format_rational,
    monomial_compose,
    monomial_multiply,
    monomial_tensor,
    parse_rational,
)
from .siteops import SiteOperator, build_A, build_B, canonical_pair, check_anticommute, custom_site
from .words import (
    PartySpec,
    ProofSet,
    RequirementFlags,
    TensorWord,
    build_proof_set,
    extend_even_set,
    generate_odd_set,
    validate_requirements,
    words_commute,
)
from .spectral import (
    JointEigenvector,
    Spectrum,
    classify_definiteness,
    select_ghz,
    simultaneous_eigenbasis,
    spectrum_of_factored,
    spectrum_of_monomial,
    spectrum_of_word,
)
from .lhv import (
    ConstraintSystem,
    LhvReport,
    analyze_lhv,
    brute_force_lhv,
    parity_unsat,
    verify_witness,
)
from .kochen_specker import (
    KsConfiguration,
    KsObservable,
    KsReport,
    build_ks,
    ks_color_search,
    render_contexts,
)
from .certificate import (
    StateVector,
    build_ghz_document,
    build_ks_document,
    check_ghz_criteria,
    load_document,
    save_document,
    verify_document,
    verify_ghz_document,
    verify_ks_document,
)

__all__ = [
    "__version__",
    # errors
    "GhzError", "ShapeError", "InvalidLevelsError", "ParityError",
    "PartyMismatchError", "SearchBoundError", "NonCommutingSetError",
    "NoGhzStateError", "CertificateError",
    # exact core
    "Rational", "MonomialMatrix", "FactoredMonomial",
    "monomial_multiply", "monomial_compose", "monomial_tensor",
    "parse_rational", "format_rational",
    # site operators
    "SiteOperator", "build_A", "build_B", "canonical_pair", "custom_site",
    "check_anticommute",
    # words
    "PartySpec", "TensorWord", "ProofSet", "RequirementFlags",
    "words_commute", "validate_requirements", "generate_odd_set",
    "extend_even_set", "build_proof_set",
    # spectral
    "Spectrum", "JointEigenvector",
    "spectrum_of_word", "spectrum_of_factored", "spectrum_of_monomial",
    "classify_definiteness",
    "simultaneous_eigenbasis", "select_ghz",
    # lhv
    "ConstraintSystem", "LhvReport", "parity_unsat", "brute_force_lhv",
    "analyze_lhv", "verify_witness",
    # kochen-specker
    "KsConfiguration", "KsObservable", "KsReport", "build_ks",
    "ks_color_search", "render_contexts",
    # certificates
    "StateVector", "build_ghz_document", "verify_ghz_document",
    "build_ks_document", "verify_ks_document", "verify_document",
    "check_ghz_criteria", "save_document", "load_document",
]
