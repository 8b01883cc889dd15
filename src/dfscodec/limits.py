"""Every numerical tolerance and size budget of the package, defined once.

The protocol's guarantees are exact in exact arithmetic; each tolerance bounds
the floating-point residue a certificate may show before the check fails.
The budgets bound dense objects and are checked before the allocation they
guard, so an oversized input is refused with ``ResourceLimit`` or
``GroupTooLarge`` instead of exhausting memory.
"""

# quantities exact by construction: diagonal rep entries, and probability and
# logical-amplitude sums
EXACT_TOL = 1e-12
# state-vector norm and character orthogonality
NORM_TOL = 1e-10
# unitarity, product law, traces, token closure, projector norm and overlap,
# block-basis unitarity, control-register leak and fidelity deficit
UNITARY_TOL = 1e-9
# token orthonormality (condition one) and isotypic block structure
ORTHONORMAL_TOL = 1e-8
# Gram-Schmidt: a projector image shorter than this adds no basis vector
RANK_TOL = 1e-7
# distance of fusion counts from integers, and of projective phases from |1|
MULTIPLICITY_TOL = 1e-6

# groups above this order are rejected at validation
MAX_GROUP_ORDER = 64
# amplitudes of one dense state vector; of the |G| tokens together (|G| d^r,
# the largest objects preparation builds); and entries of the dense reference
# decomposition's d^r x d^r basis and of its |G| stacked tensor powers
MAX_AMPLITUDES = 2**24
