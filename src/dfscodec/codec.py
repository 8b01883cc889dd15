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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConditionOneViolated,
    ConditionTwoViolated,
    DimensionMismatch,
    PerpOutcome,
    RegularRepMissing,
)
from .groups import FiniteGroup
from .limits import EXACT_TOL, ORTHONORMAL_TOL, UNITARY_TOL
from .reps import (
    CharacterTable,
    IsotypicDecomposition,
    UnitaryRep,
    builtin_character_table,
    isotypic_decompose,
    min_r,
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


def build_fiducial(decomp: IsotypicDecomposition) -> StateVector:
    """Ancilla state pairing each irrep's carrier basis with its first multiplicity vectors.

    Weights sqrt(d_lam / |G|) make the tokens exactly orthonormal whenever the
    decomposition contains every irrep at least d_lam times.
    """
    table = decomp.table
    order = decomp.rep.group.order
    for lam in range(table.num_irreps):
        if decomp.multiplicities[lam] < int(table.dims[lam]):
            raise RegularRepMissing(
                f"irrep {lam} appears {decomp.multiplicities[lam]} times, needs "
                f">= {int(table.dims[lam])}; increase the tensor power"
            )
    amps = np.zeros(decomp.dimension, dtype=np.complex128)
    for comp in decomp.components:
        weight = np.sqrt(comp.dim / order)
        for n in range(1, comp.dim + 1):
            amps += weight * decomp.block_vector(comp.irrep, n, n)
    return StateVector.from_amplitudes(decomp.rep.dim, decomp.power, amps, normalize=True)


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
    """Everything derived from (group, representation): r, decomposition, tokens."""

    group: FiniteGroup
    rep: UnitaryRep
    table: CharacterTable
    r: int
    decomposition: IsotypicDecomposition
    tokens: TokenSet


def prepare_protocol(
    rep: UnitaryRep,
    table: CharacterTable | None = None,
    *,
    r: int | None = None,
) -> ProtocolContext:
    """Resolve r, decompose, and build the certified token set for a channel."""
    table = table or builtin_character_table(rep.group)
    if r is None:
        r = min_r(rep, table)
    decomp = isotypic_decompose(rep, r, table)
    fiducial = build_fiducial(decomp)
    tokens = build_tokens(rep, r, fiducial)
    return ProtocolContext(
        group=rep.group, rep=rep, table=table, r=r, decomposition=decomp, tokens=tokens
    )


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
