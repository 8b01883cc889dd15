"""Every numerical tolerance and size budget of the package, defined once.

The protocol's guarantees are exact in exact arithmetic; each tolerance bounds
the floating-point residue a certificate may show before the check fails.
The budgets bound dense objects.  Every dense size goes through
:func:`check_entries` before the allocation it guards, so an oversized input
is refused with one ``ResourceLimit`` message (or ``GroupTooLarge`` at group
validation) instead of exhausting memory.
"""

from .errors import ResourceLimit

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
# entries of one dense object: a state vector; the |G| tokens together (|G| d^r,
# the largest objects preparation builds); a d^r x d^r matrix (the reference
# decomposition's basis, the token basis change, the group-average projector);
# and the |G| stacked tensor powers
MAX_AMPLITUDES = 2**24
# entries of one block of the product-law check of a stack of k representations
# (1 MiB of complex128): the block holds as many rows of pairs (i, h), at
# k |G| d^2 entries each, as fit, and at least one
PRODUCT_BLOCK_ENTRIES = 2**16


def check_entries(entries: int, what: str) -> int:
    """``entries``, refused with ``ResourceLimit`` above ``MAX_AMPLITUDES``."""
    if entries > MAX_AMPLITUDES:
        raise ResourceLimit(
            f"{what}: {entries} entries, over the budget 2^{MAX_AMPLITUDES.bit_length() - 1}"
        )
    return entries
