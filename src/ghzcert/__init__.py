"""Exact construction and verification of all-or-nothing nonlocality proofs
for systems of n parties with any mix of level counts, plus the companion
noncontextuality certificates for even levels.

All arithmetic is exact, on integers over positive scales (`ghzcert.exact`);
every derived claim ships with an independent re-verification path. Tuples
are built from lists, not generators: CPython resizes a tuple built from a
generator, and the resized ones fill its per-size free lists (about 1 MB
over a long verify loop).
"""

__version__ = "0.1.0"
