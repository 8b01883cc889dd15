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
    DfsCodecError,
    DimensionMismatch,
    NonOrthogonalProjectors,
    NumericalDegeneracy,
    PerpOutcome,
)
from .groups import FiniteGroup, generator_decomposition
from .limits import EXACT_TOL, ORTHONORMAL_TOL, UNITARY_TOL, check_entries
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
    require_regular,
    require_regular_possible,
)
from .statevec import (
    StateVector,
    _collective_rows,
    _draw,
    _outcome_distribution,
    _overlap_rows,
    apply_collective,
    check_register,
    fidelity,
    product_state,
    random_state,
)


@dataclass(frozen=True, eq=False)
class TokenSet:
    """The |G| mutually orthogonal ancilla states closed under the collective action.

    The one store is ``stack``, the frozen ``(|G|, d^r)`` array whose row k is
    ``U_k^{(x)r}|fiducial>``, certified by ``gram_residue`` and ``closure_bound``.
    Readers use three operations: :meth:`overlaps` (the rows ``<t_k| B`` of a
    received register), :meth:`superpose` (the encoded register) and :meth:`columns`
    (the tokens as columns).  ``tokens`` views the rows as states.
    """

    rep: UnitaryRep
    r: int
    fiducial: StateVector
    stack: np.ndarray
    gram_residue: float
    closure_bound: float  # certified max ||U_g^{(x)r} t_k - t_{gk}|| over all pairs

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group

    @cached_property
    def tokens(self) -> tuple[StateVector, ...]:
        return tuple(StateVector(d=self.rep.dim, n=self.r, amps=row) for row in self.stack)

    def overlaps(self, received: StateVector) -> np.ndarray:
        """The ``(|G|, d^m)`` rows ``<t_k| B`` on the received register's first r wires.
        Only ``received`` is checked; the tokens are trusted to their certificate, and
        a Gram residue above ``UNITARY_TOL`` (which ``build_tokens`` accepts up to
        ``ORTHONORMAL_TOL``) is refused as a measurement."""
        if received.d != self.rep.dim or received.n <= self.r:
            raise DimensionMismatch(
                f"received {received.n} qudits of dimension {received.d}; "
                f"need more than {self.r} of dimension {self.rep.dim}"
            )
        if self.gram_residue > UNITARY_TOL:
            raise NonOrthogonalProjectors(
                f"token Gram residue {self.gram_residue:.3e} exceeds {UNITARY_TOL:.1e}"
            )
        return _overlap_rows(self.stack, received.amps.reshape(self.stack.shape[1], -1))

    @cached_property
    def _support(self) -> np.ndarray:
        """The basis states on which some token is nonzero, ascending: all ``d^r``
        for a dense action, ``|G|`` for a diagonal one."""
        return np.flatnonzero(np.any(self.stack != 0, axis=0))

    def superpose(self, rotated: np.ndarray) -> np.ndarray:
        """``sum_k t_k (x) rotated_k / sqrt|G|`` over the ``(|G|, w)`` rows ``rotated``,
        summed in element order, each term through one reused temporary.

        Only the rows of ``_support`` are summed; every other row stays the
        ``+0.0`` the full sum leaves there (``+0.0 + (+-0.0) = +0.0``), so the bytes,
        the sign of every zero included, are those of the sum over all rows.  When
        every row is in the support the sum runs on the output itself."""
        out = np.zeros((self.stack.shape[1], rotated.shape[1]), dtype=np.complex128)
        live = self._support
        dense = len(live) == len(out)
        part = out if dense else np.zeros((len(live), rotated.shape[1]), dtype=np.complex128)
        term = np.empty_like(part)
        for token, row in zip(self.stack if dense else self.stack[:, live], rotated):
            part += np.outer(token, row, out=term)
        part /= np.sqrt(len(self.stack))
        if not dense:
            out[live] = part
        return out.reshape(-1)

    def columns(self, element_order=None) -> np.ndarray:
        """The ``(d^r, |G|)`` array whose column i is token ``element_order[i]``."""
        order = list(map(int, range(len(self.stack)) if element_order is None else element_order))
        if sorted(order) != list(range(len(self.stack))):
            raise DfsCodecError("element_order must enumerate the group")
        return np.ascontiguousarray(self.stack[order].T)


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
            # a frozen copy: the caller's array stays writable and cannot alter the channel
            p = np.array(self.probabilities, dtype=float)
            object.__setattr__(self, "probabilities", p)
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
    return ChannelSpec(rep=rep, probabilities=probabilities)


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
    mv = require_regular(multiplicities(rep, table, r), table)
    order = rep.group.order
    diagonal = table.classes.s == order and _is_diagonal_rep(rep.matrices)
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
    # character orthogonality names each string's irrep; the entrywise test certifies it
    irrep = np.argmax(np.abs(table.element_chars.conj() @ phases), axis=0)
    matched = np.max(np.abs(phases - table.element_chars[irrep].T), axis=0) <= UNITARY_TOL
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
    umats = table.irrep(lam)  # (|G|, d_lam, d_lam)
    d_lam = umats.shape[1]
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
        moved = _orbit(rep, mult_basis[n], r)
        # partial isometry between multiplicity rows: the image stays normalized
        vectors.append(scale * np.tensordot(umats[:, n, 0].conj(), moved, axes=(0, 0)))
    return vectors


def _orbit(rep: UnitaryRep, amps: np.ndarray, n: int) -> np.ndarray:
    """Row g is ``U_g^{(x)n}`` on the n-qudit ``amps``, bit-identical to ``apply_collective``."""
    rows = np.broadcast_to(amps, (rep.group.order, amps.size))
    return _collective_rows(rows, rep.matrices, n, range(n))


def _word_lengths(group: FiniteGroup, generators: list[int]) -> list[int]:
    """Length of the shortest positive word ``s_1 ... s_l`` over ``generators`` for each
    element, by breadth-first search on the Cayley table (``g = s h``); -1 for the
    elements outside the subgroup they generate."""
    moves = group.cayley[generators].tolist()  # moves[j][h] is s_j h
    lengths = [0] + [-1] * (group.order - 1)
    frontier = [0]
    while frontier:
        reached = []
        for h in frontier:
            for row in moves:
                if lengths[row[h]] < 0:
                    lengths[row[h]] = lengths[h] + 1
                    reached.append(row[h])
        frontier = reached
    return lengths


def _generating_set(group: FiniteGroup) -> tuple[list[int], list[int]]:
    """A generating set ``S`` and each element's word length over it: an abelian
    group's generator decomposition; otherwise, one at a time, the lowest-index
    element outside the subgroup generated so far."""
    if group.is_abelian:
        generators = generator_decomposition(group)[0]
        return generators, _word_lengths(group, generators)
    generators: list[int] = []
    lengths = _word_lengths(group, generators)
    while -1 in lengths:
        generators.append(lengths.index(-1))
        lengths = _word_lengths(group, generators)
    return generators, lengths


def build_tokens(rep: UnitaryRep, r: int, fiducial: StateVector) -> TokenSet:
    """Act with every element on the fiducial state and certify both token conditions.

    Closure is checked on a generating set ``S`` only, one batched collective per
    generator.  Let ``delta = max ||U_s^{(x)r} t_k - t_{sk}||`` over ``S`` and the
    tokens, ``eps`` the rep's product-law residue (``||U_g U_h - omega U_gh||`` is
    at most ``d eps``, and ``r d eps`` on the r-th power) and ``c`` the largest
    ``|omega(g, h)^r - 1|`` of a projective rep's phases (0 for a linear rep).
    Peeling one generator off a word costs at most ``delta + r d eps + c``, so
    every pair obeys ``||U_g^{(x)r} t_k - t_{gk}|| <= L (delta + r d eps + c)``,
    where ``L`` is the longest shortest word over ``S`` (at least 1, which covers
    the identity's own matrix).  For unit tokens, ``|<t_{gk}|U_g t_k> - 1|`` is at
    most that distance.  A bound above ``UNITARY_TOL`` is refused.
    """
    if fiducial.d != rep.dim or fiducial.n != r:
        raise DimensionMismatch(
            f"fiducial lives on {fiducial.n} qudits of dimension {fiducial.d}, "
            f"expected ({r}, {rep.dim})"
        )
    group = rep.group
    # one frozen stack of U_g^{(x)r}|fiducial>; the tokens are its rows
    stack = _orbit(rep, fiducial.amps, r)
    stack.setflags(write=False)
    gram = np.array([[np.vdot(a, b) for b in stack] for a in stack])
    residue = float(np.max(np.abs(gram - np.eye(group.order))))
    if residue > ORTHONORMAL_TOL:
        raise ConditionOneViolated(
            f"token overlap residue {residue:.3e} exceeds {ORTHONORMAL_TOL:.1e}"
        )
    # closure: U_s^{(x)r} on the whole token stack, one batched collective per s in S
    generators, lengths = _generating_set(group)
    delta = 0.0
    for s in generators:
        moved = _collective_rows(stack, rep.matrices[s], r, range(r))
        moved -= stack[group.cayley[s]]
        pairs = moved.view(np.float64)  # re and im side by side: no squared copy
        devs = np.sqrt(np.einsum("ij,ij->i", pairs, pairs))
        failed = ~(devs <= UNITARY_TOL)
        if failed.any():
            i = int(np.argmax(failed))
            raise ConditionTwoViolated(
                f"closure fails at pair (k={s}, i={i}) with deviation {devs[i]:.3e}"
            )
        delta = max(delta, float(devs.max()))
    eps, cocycle = rep.product_law[0], rep.cocycle_residue(r)
    longest = max(1, *lengths)
    bound = longest * (delta + r * rep.dim * eps + cocycle)
    if not bound <= UNITARY_TOL:
        raise ConditionTwoViolated(
            f"closure bound L*(delta + r*d*eps + c) = {longest}*({delta:.3e} + "
            f"{r}*{rep.dim}*{eps:.3e} + {cocycle:.3e}) = {bound:.3e} exceeds {UNITARY_TOL:.1e}"
        )
    return TokenSet(
        rep=rep, r=r, fiducial=fiducial, stack=stack, gram_residue=residue, closure_bound=bound
    )


def encode(tokens: TokenSet, message: StateVector) -> StateVector:
    """Correlate each token with the correspondingly rotated message register."""
    rep = tokens.rep
    if message.d != rep.dim:
        raise DimensionMismatch(
            f"message dimension {message.d} != representation dimension {rep.dim}"
        )
    if message.n < 1:
        raise DimensionMismatch("need at least one message qudit")
    n = tokens.r + message.n
    check_register(rep.dim, n)
    # the sum is fresh: it becomes the state's amplitudes, checked but not copied
    return StateVector._adopt(rep.dim, n, tokens.superpose(_orbit(rep, message.amps, message.n)))


def transmit(
    channel: ChannelSpec, state: StateVector, seed: int | None = None
) -> tuple[StateVector, int]:
    """Sample a group element (or use the fixed one) and hit every qudit with it."""
    if channel.fixed_element is not None:
        element = channel.fixed_element
    else:
        element = _draw(channel.probabilities, seed)
    return apply_collective(state, channel.rep.matrices[element]), element


def decode(
    tokens: TokenSet, received: StateVector, seed: int
) -> tuple[StateVector, ProtocolReport]:
    """Measure the token register, then undo the rotation with one collective.

    The measurement trusts the tokens' certificate and draws as :func:`project_measure`
    does, but builds no post-measurement register: the message is the sampled
    token's row ``<t_k|received``, normalized.  The correction is a product of
    identical single-qudit unitaries, so in a multi-receiver setting each holder
    of a message qudit can apply it locally once told the outcome.
    """
    rep, r = tokens.rep, tokens.r
    m = received.n - r
    rows = tokens.overlaps(received)
    probabilities = _outcome_distribution(rows)
    outcome = _draw(probabilities, seed)
    perp_probability = float(probabilities[-1])
    if outcome == len(rows):
        raise PerpOutcome(
            f"remainder outcome sampled (probability {perp_probability:.3e}); "
            "the received state left the token span"
        )
    message = StateVector.from_amplitudes(rep.dim, m, rows[outcome], normalize=True)
    message = apply_collective(message, rep.matrices[rep.group.inv(outcome)])
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
    state = product_state(StateVector(rep.dim, tokens.r, tokens.stack[alice_element]), rotated)
    received, applied = transmit(channel, state, channel_seed)
    out, report = decode(tokens, received, measure_seed)
    report.applied_element = applied
    report.channel_seed = channel_seed
    return out, report


def decode_outcome_probabilities(tokens: TokenSet, received: StateVector) -> np.ndarray:
    """Analytic outcome distribution of the decoding measurement (remainder last)."""
    return _outcome_distribution(tokens.overlaps(received))


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
    else:
        require_regular_possible(rep, table)
    # the |G| tokens, and the closure check's stack, are the largest objects built
    check_entries(
        rep.group.order * rep.dim**r, f"{rep.group.order} tokens of {rep.dim}**{r} amplitudes"
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
