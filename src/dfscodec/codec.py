"""Token states, encoding into the noise-invariant joint state, and decoding.

The construction: pick r so the r-fold collective action contains the regular
representation, build the fiducial ancilla state that pairs each irrep's
carrier basis with its first multiplicity vectors, and act with every group
element to obtain |G| orthonormal token states that the channel permutes among
themselves.  A message is protected by correlating tokens with collectively
rotated copies of it; decoding measures the token register and undoes the
rotation with one local correction per message qudit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    ConditionOneViolated,
    ConditionTwoViolated,
    DimensionMismatch,
    MissingIrrepMatrices,
    NumericalDegeneracy,
    PerpOutcome,
    RegularRepMissing,
    ResourceLimit,
)
from .groups import FiniteGroup
from .limits import EXACT_TOL, MAX_AMPLITUDES, ORTHONORMAL_TOL, UNITARY_TOL
from .reps import (
    CharacterTable,
    IsotypicDecomposition,
    MultiplicityVector,
    UnitaryRep,
    _is_diagonal_rep,
    _orthonormalize,
    builtin_character_table,
    isotypic_decompose,
    min_r,
    multiplicities,
)
from .statevec import (
    StateVector,
    _collective_rows,
    apply_collective,
    check_register,
    apply_local,
    extract_prefix_register,
    fidelity,
    inner,
    outcome_probabilities,
    product_state,
    project_measure,
    random_state,
)


@dataclass(frozen=True, eq=False)
class TokenSet:
    """The |G| mutually orthogonal ancilla states closed under the collective action."""

    rep: UnitaryRep
    r: int
    fiducial: StateVector
    tokens: tuple[StateVector, ...]
    gram_residue: float

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Collective noise: one group element hits every transmitted qudit.

    Either a fixed element (deterministic channel) or a probability vector
    over the group, sampled per transmission.
    """

    rep: UnitaryRep
    probabilities: np.ndarray | None = None
    fixed_element: int | None = None

    def __post_init__(self) -> None:
        if (self.probabilities is None) == (self.fixed_element is None):
            raise ValueError("specify exactly one of probabilities / fixed_element")
        if self.probabilities is not None:
            p = self.probabilities
            if p.shape != (self.rep.group.order,) or np.any(p < 0):
                raise ValueError("need one non-negative probability per group element")
            if abs(float(np.sum(p)) - 1.0) > EXACT_TOL:
                raise ValueError(f"probabilities sum to {float(np.sum(p))}, not 1")
            p.setflags(write=False)
        else:
            if not 0 <= self.fixed_element < self.rep.group.order:
                raise ValueError(f"fixed element {self.fixed_element} out of range")


def uniform_channel(rep: UnitaryRep) -> ChannelSpec:
    n = rep.group.order
    return ChannelSpec(rep=rep, probabilities=np.full(n, 1.0 / n))


def fixed_channel(rep: UnitaryRep, element: int) -> ChannelSpec:
    return ChannelSpec(rep=rep, fixed_element=element)


def distribution_channel(rep: UnitaryRep, probabilities) -> ChannelSpec:
    return ChannelSpec(rep=rep, probabilities=np.asarray(probabilities, dtype=float))


@dataclass
class ProtocolReport:
    """Everything one run of the protocol produces, rates kept exact."""

    m: int
    r: int
    rate: Fraction
    outcome_index: int | None = None
    applied_element: int | None = None
    roundtrip_fidelity: float | None = None
    perp_probability: float | None = None
    channel_seed: int | None = None
    measure_seed: int | None = None
    message_seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "rate": [self.rate.numerator, self.rate.denominator],
            "rate_float": float(self.rate),
            "outcome_index": self.outcome_index,
            "applied_element": self.applied_element,
            "roundtrip_fidelity": self.roundtrip_fidelity,
            "perp_probability": self.perp_probability,
            "seeds": {
                "channel": self.channel_seed,
                "measure": self.measure_seed,
                "message": self.message_seed,
            },
        }


def build_fiducial(rep: UnitaryRep, r: int, table: CharacterTable) -> StateVector:
    """Ancilla state pairing each irrep's carrier basis with its first multiplicity vectors.

    Weights sqrt(d_lam / |G|) make the tokens exactly orthonormal whenever the
    r-th power contains every irrep at least d_lam times.  Only the |G| block
    vectors ``(lam, n, n)`` of the isotypic basis are built, never the basis:
    they equal ``isotypic_decompose(rep, r, table).block_vector(lam, n, n)``,
    and ``build_tokens`` certifies the result.
    """
    mv = multiplicities(rep, table, r)
    order = rep.group.order
    diagonal = table.classes.s == order and _is_diagonal_rep(rep.matrices)
    if not diagonal and table.irrep_matrices is None:
        for lam in range(table.num_irreps):
            if table.dims[lam] > 1 and mv[lam] > 0:
                raise MissingIrrepMatrices(
                    f"irrep {lam} has dimension {int(table.dims[lam])}; "
                    "explicit matrices are required"
                )
    for lam in range(table.num_irreps):
        if mv[lam] < int(table.dims[lam]):
            raise RegularRepMissing(
                f"irrep {lam} appears {mv[lam]} times, needs "
                f">= {int(table.dims[lam])}; increase the tensor power"
            )
    amps = np.zeros(check_register(rep.dim, r), dtype=np.complex128)
    if diagonal:
        weight = np.sqrt(1 / order)
        for j in _diagonal_support(rep, r, table, mv):
            amps[j] = weight
    else:
        for lam in range(table.num_irreps):
            weight = np.sqrt(int(table.dims[lam]) / order)
            for vec in _carrier_vectors(rep, r, table, lam):
                amps += weight * vec
    return StateVector.from_amplitudes(rep.dim, r, amps, normalize=True)


def _diagonal_support(
    rep: UnitaryRep, r: int, table: CharacterTable, mv: MultiplicityVector
) -> list[int]:
    """Lowest basis index of each irrep's phase class, for a diagonal abelian action.

    A basis state's phase under ``g`` depends only on its digit counts, and the
    lowest index with given counts has its digits in ascending order, so the
    ``C(r+d-1, d-1)`` ascending digit strings, in index order, stand for all
    ``d^r`` states.  Each multiplicity is certified as an exact multinomial sum.
    """
    d = rep.dim
    strings = np.array(
        list(combinations_with_replacement(range(d), r)), dtype=np.int64
    ).reshape(-1, r)
    counts = np.stack([np.count_nonzero(strings == level, axis=1) for level in range(d)], axis=1)
    indices = strings @ d ** np.arange(r - 1, -1, -1, dtype=np.int64)
    states = np.array(
        [math.factorial(r) // math.prod(map(math.factorial, row)) for row in counts.tolist()],
        dtype=np.int64,
    )
    diagonals = np.einsum("gii->gi", rep.matrices)
    phases = np.prod(diagonals[:, None, :] ** counts, axis=2)  # (|G|, strings)
    element_chars = table.chars[:, table.classes.class_of]
    # character orthogonality names each string's irrep; the entrywise test certifies it
    irrep = np.argmax(np.abs(element_chars.conj() @ phases), axis=0)
    matched = np.max(np.abs(phases - element_chars[irrep].T), axis=0) <= UNITARY_TOL
    found = np.zeros(table.num_irreps, dtype=np.int64)
    np.add.at(found, irrep[matched], states[matched])
    for lam in range(table.num_irreps):
        if found[lam] != mv[lam]:
            raise NumericalDegeneracy(
                f"irrep {lam}: {found[lam]} diagonal states for multiplicity {mv[lam]}"
            )
    # every irrep is matched here, so the first hits come in irrep order
    _, first = np.unique(irrep[matched], return_index=True)
    return [int(j) for j in indices[matched][first]]


def _carrier_vectors(
    rep: UnitaryRep, r: int, table: CharacterTable, lam: int
) -> list[np.ndarray]:
    """Block vectors ``(lam, n, n)`` for ``n = 1 .. d_lam``: ``P^lam_n1 w_n``.

    ``w_n`` is the n-th orthonormalized image ``P^lam_11 e_j`` over ``j`` in
    index order, as in the dense decomposition; Gram-Schmidt is sequential, so
    stopping at ``d_lam`` vectors keeps the same ones.  Each image is formed
    from Kronecker products of columns of ``U_g``, ``d_lam`` candidates at a
    time, and each carrier row ``n >= 2`` through the collective kernel.
    """
    group, d, dim = rep.group, rep.dim, rep.dim**r
    d_lam = int(table.dims[lam])
    if d_lam == 1:
        umats = table.chars[lam, table.classes.class_of].reshape(-1, 1, 1)
    else:
        umats = table.irrep_matrices[lam]
    scale = d_lam / group.order
    place = d ** np.arange(r - 1, -1, -1)

    def images():
        for start in range(0, dim, d_lam):
            digits = np.arange(start, min(start + d_lam, dim))[:, None] // place % d
            # U_g^{(x)r} e_j = (x)_k U_g[:, j_k], one row per (g, j)
            cols = rep.matrices[:, :, digits[:, 0]].transpose(0, 2, 1)
            for k in range(1, r):
                step = rep.matrices[:, :, digits[:, k]].transpose(0, 2, 1)
                cols = (cols[:, :, :, None] * step[:, :, None, :]).reshape(
                    group.order, len(digits), -1
                )
            yield from scale * np.tensordot(umats[:, 0, 0].conj(), cols, axes=(0, 0))

    mult_basis = _orthonormalize(images(), d_lam)
    vectors = [mult_basis[0]]
    for n in range(1, d_lam):
        rows = mult_basis[n][None]
        moved = np.array(
            [_collective_rows(rows, rep.matrices[g], r, range(r))[0] for g in range(group.order)]
        )
        # partial isometry between multiplicity rows: the image stays normalized
        vectors.append(scale * np.tensordot(umats[:, n, 0].conj(), moved, axes=(0, 0)))
    return vectors


def build_tokens(rep: UnitaryRep, r: int, fiducial: StateVector) -> TokenSet:
    """Act with every element on the fiducial state and certify both token conditions."""
    if fiducial.d != rep.dim or fiducial.n != r:
        raise DimensionMismatch(
            f"fiducial lives on {fiducial.n} qudits of dimension {fiducial.d}, "
            f"expected ({r}, {rep.dim})"
        )
    order = rep.group.order
    tokens = tuple(
        apply_collective(fiducial, rep.matrices[i]) for i in range(order)
    )
    gram = np.array([[inner(a, b) for b in tokens] for a in tokens])
    residue = float(np.max(np.abs(gram - np.eye(order))))
    if residue > ORTHONORMAL_TOL:
        raise ConditionOneViolated(
            f"token overlap residue {residue:.3e} exceeds {ORTHONORMAL_TOL:.1e}"
        )
    # closure: U_k^{(x)r} on the whole token stack, one batched collective per k
    stack = np.array([t.amps for t in tokens])
    for k in range(order):
        moved = _collective_rows(stack, rep.matrices[k], r, range(r))
        targets = stack[rep.group.cayley[k]]
        devs = np.abs(np.einsum("ij,ij->i", targets.conj(), moved) - 1.0)
        failed = devs > UNITARY_TOL
        if failed.any():
            i = int(np.argmax(failed))
            raise ConditionTwoViolated(
                f"closure fails at pair (k={k}, i={i}) with deviation {devs[i]:.3e}"
            )
    return TokenSet(rep=rep, r=r, fiducial=fiducial, tokens=tokens, gram_residue=residue)


def encode(tokens: TokenSet, message: StateVector) -> StateVector:
    """Correlate each token with the correspondingly rotated message register."""
    rep = tokens.rep
    if message.d != rep.dim:
        raise DimensionMismatch(
            f"message dimension {message.d} != representation dimension {rep.dim}"
        )
    if message.n < 1:
        raise DimensionMismatch("need at least one message qudit")
    order = rep.group.order
    out = np.zeros(check_register(rep.dim, tokens.r + message.n), dtype=np.complex128)
    for i in range(order):
        rotated = apply_collective(message, rep.matrices[i])
        out += np.outer(tokens.tokens[i].amps, rotated.amps).reshape(-1)
    out /= np.sqrt(order)
    return StateVector.from_amplitudes(rep.dim, tokens.r + message.n, out)


def transmit(
    channel: ChannelSpec, state: StateVector, seed: int | None = None
) -> tuple[StateVector, int]:
    """Sample a group element (or use the fixed one) and hit every qudit with it."""
    if channel.fixed_element is not None:
        element = channel.fixed_element
    else:
        rng = np.random.default_rng(seed)
        cumulative = np.cumsum(channel.probabilities)
        element = int(np.searchsorted(cumulative, float(rng.random()), side="right"))
        element = min(element, channel.rep.group.order - 1)
    return apply_collective(state, channel.rep.matrices[element]), element


def decode(
    tokens: TokenSet, received: StateVector, seed: int
) -> tuple[StateVector, ProtocolReport]:
    """Measure the token register, then undo the rotation qudit by qudit.

    The correction is a product of identical single-qudit unitaries, so in a
    multi-receiver setting each holder of a message qudit can apply it locally
    once told the outcome.
    """
    rep = tokens.rep
    r = tokens.r
    m = received.n - r
    if m < 1:
        raise DimensionMismatch(f"received register has no message qudits (n={received.n})")
    record = project_measure(
        received, range(r), [t.amps for t in tokens.tokens], seed
    )
    perp_probability = record.probabilities[-1]
    if record.is_remainder:
        raise PerpOutcome(
            f"remainder outcome sampled (probability {perp_probability:.3e}); "
            "the received state left the token span"
        )
    outcome = record.outcome
    message = extract_prefix_register(
        record.post_state, tokens.tokens[outcome].amps, r
    )
    correction = rep.matrices[rep.group.inv(outcome)]
    for t in range(m):
        message = apply_local(message, correction, t)
    report = ProtocolReport(
        m=m,
        r=r,
        rate=Fraction(m, m + r),
        outcome_index=outcome,
        perp_probability=perp_probability,
        measure_seed=seed,
    )
    return message, report


def measure_and_realign(
    tokens: TokenSet,
    message: StateVector,
    channel: ChannelSpec,
    *,
    alice_element: int = 0,
    channel_seed: int | None = None,
    measure_seed: int = 0,
) -> tuple[StateVector, ProtocolReport]:
    """Variant where the sender uses a single token and the receiver learns the product.

    The measurement outcome is the index of (channel element * alice element),
    so this branch reveals the composed transformation; recovery is still exact.
    """
    rep = tokens.rep
    rotated = apply_collective(message, rep.matrices[alice_element])
    state = product_state(tokens.tokens[alice_element], rotated)
    received, applied = transmit(channel, state, channel_seed)
    out, report = decode(tokens, received, measure_seed)
    report.applied_element = applied
    report.channel_seed = channel_seed
    return out, report


def invariance_certificate(
    tokens: TokenSet, m: int, trials: int, seed: int = 0
) -> float:
    """Max |1 - <chi|U_g chi>| over random messages and all elements; phase-sensitive."""
    rep = tokens.rep
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        message = random_state(rep.dim, m, rng)
        chi = encode(tokens, message)
        for g in range(rep.group.order):
            moved = apply_collective(chi, rep.matrices[g])
            worst = max(worst, abs(1.0 - inner(chi, moved)))
    return worst


def group_average_projector(tokens: TokenSet) -> np.ndarray:
    """(1/|G|) sum of token projectors; commutes with every collective operator."""
    dim = tokens.rep.dim**tokens.r
    out = np.zeros((dim, dim), dtype=np.complex128)
    for t in tokens.tokens:
        out += np.outer(t.amps, t.amps.conj())
    return out / tokens.group.order


def decode_outcome_probabilities(tokens: TokenSet, received: StateVector) -> np.ndarray:
    """Analytic outcome distribution of the decoding measurement (remainder last)."""
    return outcome_probabilities(
        received, range(tokens.r), [t.amps for t in tokens.tokens]
    )


@dataclass(frozen=True, eq=False)
class ProtocolContext:
    """Everything derived from (group, representation): r and the certified tokens."""

    group: FiniteGroup
    rep: UnitaryRep
    table: CharacterTable
    r: int
    tokens: TokenSet

    @cached_property
    def decomposition(self) -> IsotypicDecomposition:
        """The dense isotypic decomposition of the r-th power, built on first read.

        Preparation never needs it: it is the reference the fiducial's block
        vectors can be checked against, and it is refused above the dense budget.
        """
        return isotypic_decompose(self.rep, self.r, self.table)


def prepare_protocol(
    rep: UnitaryRep,
    table: CharacterTable | None = None,
    *,
    r: int | None = None,
) -> ProtocolContext:
    """Resolve r, build the fiducial's block vectors and certify the token set."""
    table = table or builtin_character_table(rep.group)
    if r is None:
        r = min_r(rep, table)
    # the |G| tokens, and the closure check's stack, are the largest objects built
    stack = rep.group.order * rep.dim**r
    if stack > MAX_AMPLITUDES:
        raise ResourceLimit(
            f"{rep.group.order} tokens of {rep.dim}**{r} amplitudes make {stack}, "
            f"over the budget {MAX_AMPLITUDES}"
        )
    fiducial = build_fiducial(rep, r, table)
    tokens = build_tokens(rep, r, fiducial)
    return ProtocolContext(group=rep.group, rep=rep, table=table, r=r, tokens=tokens)


@dataclass
class RoundTripResult:
    report: ProtocolReport
    message: StateVector
    decoded: StateVector
    encoded: StateVector


def run_roundtrip(
    context: ProtocolContext,
    channel: ChannelSpec,
    *,
    m: int,
    message: StateVector | None = None,
    message_seed: int | None = None,
    channel_seed: int | None = None,
    measure_seed: int = 0,
) -> RoundTripResult:
    """encode -> transmit -> decode, reporting fidelity against the input message."""
    if message is None:
        # refuse an oversized encoded register before drawing the message
        check_register(context.rep.dim, context.r + m)
        rng = np.random.default_rng(message_seed)
        message = random_state(context.rep.dim, m, rng)
    chi = encode(context.tokens, message)
    received, applied = transmit(channel, chi, channel_seed)
    decoded, report = decode(context.tokens, received, measure_seed)
    report.applied_element = applied
    report.channel_seed = channel_seed
    report.message_seed = message_seed
    report.roundtrip_fidelity = fidelity(message, decoded)
    return RoundTripResult(report=report, message=message, decoded=decoded, encoded=chi)
