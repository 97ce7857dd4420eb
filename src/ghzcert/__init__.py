"""Exact construction and verification of all-or-nothing nonlocality proofs
for systems of n parties with m levels each (or mixed levels of equal
parity), plus the companion noncontextuality certificates for even levels.

All arithmetic is exact rational; every derived claim ships with an
independent re-verification path.
"""

__version__ = "0.1.0"
