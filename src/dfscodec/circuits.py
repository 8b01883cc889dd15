"""Gate-level synthesis of the encoding network, with cost accounting.

One synthesizer, :func:`synth_w`, builds the controlled-rotation stage
W = sum_g |g><g| (x) U_g^(x m) from the controlled blocks of one of three paths:

* general: one block per group element, each block an X conjugation on the
  control wires plus m multi-controlled U_g gates;
* abelian: one block per generator power, controls read generator exponents;
* cyclic: one plain controlled gate per control wire and message qudit.

Costs follow the standard multi-control accounting: a gate with c >= 3 all-one
controls spends 40(c-2) elementary gates on the two Toffoli chains plus one
per controlled target.  Chains are emitted as costed marker gates; simulation
applies the full control pattern on the target gates instead of expanding the
chain, which keeps equivalence checks exact while preserving the counts.

The basis change from group labels to token states is a plan too: either one
dense gate completing the token columns (any group) or, for cyclic groups on
qubits, a Fourier stage followed by a CNOT fan-out/fold network whose CNOT
count is exactly (token wires + control wires).  The network writes label k as a
token pattern of weight k; :func:`token_group_slices` is the one definition of
that weight code, and the fan-out, the network fiducial and
:func:`network_basis_indices` all read it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .codec import TokenSet
from .errors import (
    DfsCodecError,
    DimensionMismatch,
    NotAbelian,
    UnsupportedDimension,
)
from .groups import FiniteGroup, cyclic_generator, generator_decomposition, word_elements
from .limits import UNITARY_TOL, check_entries
from .reps import UnitaryRep
from .statevec import (
    StateVector,
    _finite_norm,
    _run,
    _unitarity_residues,
    apply_controlled,
    check_register,
)

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_X.setflags(write=False)
_H.setflags(write=False)

# The channel stages, by what they depend on: the basis change and the register
# network by token set, the prep gate by group.  Each is built on first use, kept
# while its key lives and shared by every encoder built from it: only W depends on m.
_CHANNEL_STAGES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _channel_stage(owner, key, build):
    """``build()``, made on the first call for ``(owner, key)`` and kept while
    ``owner`` lives; a build that raises keeps nothing."""
    stages = _CHANNEL_STAGES.setdefault(owner, {})
    if key not in stages:
        stages[key] = build()
    return stages[key]


def _frozen(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class Gate:
    """One entry of a gate list.

    ``kind`` is one of single / controlled / cnot / chain / prep.  Chain
    markers carry the Toffoli-chain cost of a multi-control collapse and act
    as identity in simulation; the controlled gates between a marker pair
    carry the full control pattern themselves.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    matrix: np.ndarray | None = None
    cost: int = 1
    stage: str = ""
    note: str = ""


@dataclass(frozen=True)
class RegisterLayout:
    """Wire roles: control labels, token qudits, message qudits."""

    d: int
    control: tuple[int, ...]
    token: tuple[int, ...]
    message: tuple[int, ...]

    @property
    def n_wires(self) -> int:
        wires = set(self.control) | set(self.token) | set(self.message)
        return max(wires) + 1


@dataclass(eq=False)
class CircuitPlan:
    """Ordered gate list plus count and depth bookkeeping."""

    gates: list[Gate]
    layout: RegisterLayout
    metadata: dict = field(default_factory=dict)

    @property
    def total_count(self) -> int:
        return sum(g.cost for g in self.gates)


def _gate_matrix(gate: Gate) -> np.ndarray | None:
    """The matrix a gate applies; ``None`` for a chain marker."""
    if gate.kind == "chain":
        return None
    if gate.kind not in ("single", "prep", "controlled", "cnot"):
        raise DfsCodecError(f"unknown gate kind {gate.kind!r}")
    if gate.matrix is None:
        raise DfsCodecError(f"{gate.kind} gate has no matrix")
    return gate.matrix


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    matrix = _gate_matrix(gate)
    if matrix is None:
        return state
    return apply_controlled(state, gate.controls, matrix, gate.targets)


def _run_gates(gates, tensor: np.ndarray, wires, n: int, labels=()) -> np.ndarray:
    """``gates`` in order through :func:`statevec._run` on an n-wire register of
    which the writable ``tensor`` holds ``wires``, every other wire in |0>; chain
    markers are skipped.  Returns the register's tensor, one axis per wire, less
    each wire of ``labels`` that ends idle in |0>; the other label wires lead."""
    ops = ((_gate_matrix(gate), gate.controls, gate.targets) for gate in gates)
    return _run(tensor, wires, n, (op for op in ops if op[0] is not None), labels)


def run_plan(plan: CircuitPlan, state: StateVector) -> StateVector:
    """The plan's gates applied to ``state``, every wire held; ``state`` is only read."""
    tensor = _run_gates(plan.gates, state.tensor().copy(), range(state.n), state.n)
    return StateVector(d=state.d, n=state.n, amps=tensor.reshape(-1))


def control_wire_count(order: int) -> int:
    return max(1, int(np.ceil(np.log2(order))))


def _control_pattern(control_wires, value: int) -> tuple[tuple[int, int], ...]:
    """Big-endian bit pattern of ``value`` across the given wires."""
    width = len(control_wires)
    bits = [(value >> (width - 1 - pos)) & 1 for pos in range(width)]
    return tuple((w, b) for w, b in zip(control_wires, bits))


def prep_gates(group: FiniteGroup, control_wires) -> list[Gate]:
    """Uniform superposition over the first |G| control labels.

    For |G| = 2^(wires) this is one Hadamard per wire; otherwise a single
    costed preparation unitary (cost: one gate per control wire) whose first
    column is the desired superposition, completed once per group and width
    and shared read-only.
    """
    control_wires = list(control_wires)
    r_prime = len(control_wires)
    if group.order == 2**r_prime:
        return [
            Gate(kind="single", targets=(w,), matrix=_H, cost=1, stage="prep")
            for w in control_wires
        ]

    def uniform() -> np.ndarray:
        first = np.zeros((2**r_prime, 1), dtype=np.complex128)
        first[: group.order] = 1.0 / np.sqrt(group.order)
        return _frozen(_complete_unitary(first))

    matrix = _channel_stage(group, ("prep", r_prime), uniform)
    return [
        Gate(
            kind="prep",
            targets=tuple(control_wires),
            matrix=matrix,
            cost=r_prime,
            stage="prep",
            note=f"uniform over first {group.order} labels",
        )
    ]


def _complete_unitary(columns: np.ndarray) -> np.ndarray:
    """The given orthonormal columns, followed by an orthonormal complement."""
    if not _unitarity_residues(columns[None])[0] <= UNITARY_TOL:
        raise DfsCodecError("columns to complete are not orthonormal")
    q, _ = np.linalg.qr(columns, mode="complete")
    q[:, : columns.shape[1]] = columns  # exact columns, written into q so the unitary is held once
    return q


def _message_wires(first: int, m: int) -> tuple[int, ...]:
    """The m message wires from ``first`` on; every W path needs m >= 1."""
    if m < 1:
        raise DimensionMismatch(f"need at least one message qubit, got m={m}")
    return tuple(range(first, first + m))


def _w_layout(r_prime: int, m: int) -> RegisterLayout:
    """A W stage's own wires: control 0..r'-1, then the m message wires."""
    return RegisterLayout(2, tuple(range(r_prime)), (), _message_wires(r_prime, m))


def _chain_cost(num_controls: int) -> int:
    return 20 * max(num_controls - 2, 0)


def _block_gates(pattern, unitary, message_wires, note: str, conjugate_x: bool) -> list[Gate]:
    """One controlled block: chain markers around m target gates, X-conjugated
    into an all-ones pattern when ``conjugate_x``."""
    flips = []
    if conjugate_x:
        flips = [Gate("single", (w,), matrix=_X, stage="w") for w, v in pattern if v == 0]
        pattern = tuple((w, 1) for w, _ in pattern)
    cost = _chain_cost(len(pattern))
    chain = [Gate("chain", (), pattern, cost=cost, stage="w")] if cost else []
    targets = [
        Gate("controlled", (t,), pattern, unitary, stage="w", note=note) for t in message_wires
    ]
    return [*flips, *chain, *targets, *chain, *flips]


# Each W path gives its r', its blocks as (control pattern, element, note) triples,
# the pattern over control positions 0..r'-1, and its own metadata.


def _general_blocks(rep: UnitaryRep, m: int):
    """Block-per-element controlled network on ceil(log2 |G|) control wires.

    The X conjugation of every block is emitted explicitly; over a full
    power-of-two enumeration the emitted gates sum to |G| * (41 r' - 80 + m),
    matching the closed-form count.
    """
    group = rep.group
    r_prime = control_wire_count(group.order)
    blocks = [
        (_control_pattern(range(r_prime), i), i, f"element {group.labels[i]}")
        for i in range(group.order)
    ]
    full = group.order == 2**r_prime
    return r_prime, blocks, {
        "count_formula": group.order * (41 * r_prime - 80 + m) if full else None,
        "depth_formula": group.order * (41 * r_prime - 80 + 1) if full else None,
        "control_labeling": "element_index",
    }


def _abelian_blocks(rep: UnitaryRep, m: int):
    """Generator-power controlled network for abelian groups.

    Control labels are generator words (first generator most significant); the
    identity power of each generator needs no gates, so the emitted count sits
    below the per-generator bound L_i * (40 max(log2 L_i - 2, 0) + m).
    """
    group = rep.group
    generators, orders = generator_decomposition(group)
    for bound in orders:
        if bound & (bound - 1):
            raise DfsCodecError(
                f"generator order {bound} is not a power of two; control wires are qubits"
            )
    blocks = []
    r_prime = bound_total = 0  # each generator's exponent takes the next width positions
    for gen, bound in zip(generators, orders):
        width = max(1, int(np.log2(bound)))
        positions = range(r_prime, r_prime + width)
        r_prime += width
        bound_total += bound * (40 * max(width - 2, 0) + m)
        blocks.extend(
            (_control_pattern(positions, k), group.powers[gen, k], f"{group.labels[gen]}^{k}")
            for k in range(1, bound)
        )
    return r_prime, blocks, {
        "generators": list(generators),
        "generator_orders": list(orders),
        "count_bound": bound_total,
        "control_labeling": "generator_words",
        "word_elements": word_elements(group, generators, orders),
    }


def _network_generator(rep: UnitaryRep) -> int | None:
    """The generator g of the cyclic path and the register network: the
    lowest-index element with U(g) = diag(1, e^(2 pi i / N)) within UNITARY_TOL
    when one exists, since that is the phase the Fourier stage gives, and
    otherwise the lowest-index generator; None when the group is not cyclic."""
    group, gen = rep.group, cyclic_generator(rep.group)
    if gen is None or rep.dim != 2:
        return gen
    omega = np.diag([1.0, np.exp(2j * np.pi / group.order)])
    hits = np.flatnonzero(np.abs(rep.matrices - omega).max(axis=(1, 2)) <= UNITARY_TOL)
    return int(hits[0]) if hits.size else gen


def _cyclic_blocks(rep: UnitaryRep, m: int):
    """One controlled power of the generator per control wire: m log2 N gates.

    Control label v stands for the v-th power of the generator of
    :func:`_network_generator`, so the labels are generator words like those of
    the abelian path.
    """
    group = rep.group
    n = group.order
    if n & (n - 1):
        raise DfsCodecError(
            f"cyclic path needs a power-of-two order, got {n}; use the general path"
        )
    gen = _network_generator(rep)
    if gen is None:
        raise NotAbelian("group has no generator; the cyclic path needs a cyclic group")
    r_prime = control_wire_count(n)
    powers = word_elements(group, [gen], [n])  # powers[k] is gen^k, and gen has order n
    # bit i (1-indexed from the least significant) lives on control position r' - i
    blocks = [
        (((r_prime - i, 1),), powers[2 ** (i - 1) % n], f"U^{2 ** (i - 1)}")
        for i in range(1, r_prime + 1)
    ]
    return r_prime, blocks, {
        "controlled_count": m * r_prime,
        "control_labeling": "generator_words",
        "word_elements": powers,
    }


_W_PATHS = {"general": _general_blocks, "abelian": _abelian_blocks, "cyclic": _cyclic_blocks}


def synth_w(path: str, group: FiniteGroup, rep: UnitaryRep, m: int, place=_w_layout) -> CircuitPlan:
    """The controlled-rotation stage W of one synthesis path, on the register
    ``place(r', m)`` lays out for the r' control wires the path needs.

    Every block becomes m controlled ``U_element`` gates on the message wires,
    X-conjugated on the general path, whose patterns read the element index.
    """
    if path not in _W_PATHS:
        raise DfsCodecError(f"unknown synthesis path {path!r}")
    if path == "abelian" and not group.is_abelian:
        raise NotAbelian("the generator-power network needs an abelian group")
    if rep.dim != 2:
        raise UnsupportedDimension("gate-level synthesis is defined for qubits only")
    r_prime, blocks, metadata = _W_PATHS[path](rep, m)
    layout = place(r_prime, m)
    gates: list[Gate] = []
    for pattern, element, note in blocks:
        wired = tuple((layout.control[pos], v) for pos, v in pattern)
        gates.extend(
            _block_gates(wired, rep.matrices[element], layout.message, note, path == "general")
        )
    metadata = {"path": path, "m": m, "r_prime": r_prime, **metadata}
    return CircuitPlan(gates=gates, layout=layout, metadata=metadata)


# --- basis change to token states --------------------------------------------


def check_token_basis_change(d: int, r: int) -> None:
    """Refuse a dense ``d^r x d^r`` token basis change over the dense budget."""
    check_entries(d ** (2 * r), f"a token basis change of {d}**{r} x {d}**{r}")


def apply_t_direct(tokens: TokenSet, element_order=None) -> np.ndarray:
    """The dense unitary {|0...0, label_i> -> token_i}; cost bound O(d^r).

    ``element_order[i]`` names the group element encoded by label column i,
    so generator-word control registers reuse the same oracle.  The size is
    checked on every call, before anything is allocated; the unitary is
    completed once per token set and label order while the token set lives.
    The result is shared and read-only: every encoder built from the token set
    multiplies by this one matrix, which the runner checks once while it lives.
    """
    check_token_basis_change(tokens.rep.dim, tokens.r)
    order = None if element_order is None else tuple(map(int, element_order))
    return _channel_stage(
        tokens, ("t", order), lambda: _frozen(_complete_unitary(tokens.columns(element_order)))
    )


def qft_gates(control_wires) -> list[Gate]:
    """Standard Fourier circuit without final swaps: r'(r'+1)/2 gates.

    Input read big-endian over the wires; output bits come out reversed, with
    the least significant output bit on the first wire.
    """
    wires = list(control_wires)
    r_prime = len(wires)
    gates: list[Gate] = []
    for k in range(r_prime):
        gates.append(Gate(kind="single", targets=(wires[k],), matrix=_H, cost=1, stage="t_qft"))
        for l in range(k + 1, r_prime):
            angle = np.pi / 2 ** (l - k)
            phase = _frozen(np.diag([1.0, np.exp(1j * angle)]))
            gates.append(
                Gate(
                    kind="controlled",
                    targets=(wires[k],),
                    controls=((wires[l], 1),),
                    matrix=phase,
                    cost=1,
                    stage="t_qft",
                )
            )
    return gates


def token_group_slices(r_prime: int) -> list[tuple[int, int]]:
    """The weight code: the token-wire span of each bit group, most significant first.

    Group m (1-indexed, least significant last) holds 2^(m-1) wires; the list
    is indexed by m-1.  Label k sets the groups of its set bits, a pattern of
    weight k.  Every reader of the network's label patterns derives from here.
    """
    spans = []
    for m in range(1, r_prime + 1):
        offset = 2**r_prime - 2**m
        spans.append((offset, offset + 2 ** (m - 1)))
    return spans


def network_basis_indices(n: int) -> np.ndarray:
    """Big-endian token-wire index of each label's pattern, for a power-of-two n.

    Exact in int64 up to n = 64, whose largest index is 2^63 - 1.
    """
    r_prime, r = control_wire_count(n), n - 1
    # the place value of a group [lo, hi) of the r token wires
    places = np.array([2 ** (r - lo) - 2 ** (r - hi) for lo, hi in token_group_slices(r_prime)])
    return ((np.arange(n)[:, None] >> np.arange(r_prime)) & 1) @ places


def register_network_gates(control_wires, token_wires) -> list[Gate]:
    """CNOT fan-out then fold: copies bit m, read on control_wires[m-1], onto its
    2^(m-1)-wire group, then clears the controls.

    Exactly len(token_wires) + len(control_wires) CNOTs.
    """
    spans = token_group_slices(len(control_wires))
    gates: list[Gate] = []
    for m in range(len(control_wires), 0, -1):
        ctl = control_wires[m - 1]
        lo, hi = spans[m - 1]
        for t in token_wires[lo:hi]:
            gates.append(
                Gate(kind="cnot", targets=(t,), controls=((ctl, 1),), matrix=_X,
                     cost=1, stage="t_fanout")
            )
    for m in range(len(control_wires), 0, -1):
        ctl = control_wires[m - 1]
        lo, _ = spans[m - 1]
        gates.append(
            Gate(kind="cnot", targets=(ctl,), controls=((token_wires[lo], 1),),
                 matrix=_X, cost=1, stage="t_fold")
        )
    return gates


def _check_network_order(n: int) -> None:
    """The one order check of the register network: N = 2^r' with r' >= 1."""
    if n < 2:
        raise DfsCodecError(f"register network needs a group of order at least 2, got {n}")
    if n & (n - 1):
        raise DfsCodecError(f"register network needs a power-of-two order, got {n}")


def synth_t_cyclic(n: int) -> CircuitPlan:
    """Fourier stage plus CNOT network mapping group labels to token states.

    Uses r' control wires and r = N - 1 token wires; after the fold the control
    register returns to |0...0> and the token register carries the state.  The
    swap-free Fourier stage leaves output bit m on control wire m-1, which is
    where the fan-out reads it, so no swap gates are needed.
    """
    _check_network_order(n)
    r_prime = control_wire_count(n)
    r = n - 1
    control_wires = tuple(range(r_prime))
    token_wires = tuple(range(r_prime, r_prime + r))
    gates = [*qft_gates(control_wires), *register_network_gates(control_wires, token_wires)]
    layout = RegisterLayout(d=2, control=control_wires, token=token_wires, message=())
    cnots = sum(1 for g in gates if g.kind == "cnot")
    return CircuitPlan(
        gates=gates,
        layout=layout,
        metadata={
            "path": "cyclic",
            "n": n,
            "r": r,
            "r_prime": r_prime,
            "qft_gate_count": r_prime * (r_prime + 1) // 2,
            "cnot_count": cnots,
            "cnot_formula": r + r_prime,
        },
    )


def _check_network(rep: UnitaryRep, fiducial: StateVector | None = None) -> np.ndarray:
    """The weight-code fiducial's amplitudes, uniform over the patterns
    :func:`network_basis_indices` gives the labels, once ``rep`` (and a given
    ``fiducial``) is one whose tokens the register network realizes.

    The Fourier stage gives label k the phase e^(2 pi i k w / N) on the pattern of
    weight w.  That is the action of U_(g^k) on every token wire, for the generator
    g of :func:`_network_generator`, only when U_(g^k) = diag(1, e^(2 pi i k / N)),
    and the labels' states are those tokens only when the fiducial is this one.
    """
    group = rep.group
    n = group.order
    _check_network_order(n)
    gen = _network_generator(rep)
    if rep.dim != 2 or gen is None:
        raise DfsCodecError("network tokens are defined for qubit cyclic groups of power-of-two order")
    expected = np.zeros((n, 2, 2), dtype=np.complex128)
    expected[:, 0, 0] = 1.0
    expected[:, 1, 1] = np.exp(2j * np.pi * np.arange(n) / n)
    if np.max(np.abs(rep.matrices[word_elements(group, [gen], [n])] - expected)) > UNITARY_TOL:
        raise DfsCodecError(
            f"the register network needs U(g^k) = diag(1, e^(2 pi i k/{n})) "
            f"for the generator g = {group.labels[gen]!r}"
        )
    r = n - 1
    amps = np.zeros(check_register(2, r), dtype=np.complex128)
    amps[network_basis_indices(n)] = 1.0 / np.sqrt(n)
    if fiducial is not None and (
        fiducial.n != r or np.max(np.abs(fiducial.amps - amps)) > UNITARY_TOL
    ):
        raise DfsCodecError("the register network realizes only the tokens of network_token_set")
    return amps


def network_token_set(rep: UnitaryRep) -> TokenSet:
    """Token set whose per-label basis states match the register network output.

    Same protocol guarantees as the canonical tokens (each label state has the
    right phase character), but the label-to-pattern map is the one the CNOT
    network realizes, so network-built circuits reproduce these tokens exactly.
    """
    from .codec import build_tokens

    r = rep.group.order - 1
    return build_tokens(rep, r, StateVector.from_amplitudes(2, r, _check_network(rep)))


def logical_depth(plan: CircuitPlan) -> int:
    """Sequential layers of the plan; controlled gates sharing the same control
    pattern with distinct targets commute and sit in one layer, everything else
    contributes its full cost."""
    depth = 0
    previous: Gate | None = None
    for gate in plan.gates:
        if (
            gate.kind == "controlled"
            and previous is not None
            and previous.kind == "controlled"
            and previous.controls == gate.controls
            and previous.targets != gate.targets
        ):
            previous = gate
            continue
        depth += gate.cost
        previous = gate
    return depth


# --- full encoding pipelines --------------------------------------------------


@dataclass(eq=False)
class EncodingPipeline:
    """Composed prep + W + basis-change circuit producing the protected state."""

    tokens: TokenSet
    m: int
    path: str
    w_plan: CircuitPlan
    prep: list[Gate]
    t_plan: CircuitPlan
    layout: RegisterLayout

    def run(self, message: StateVector) -> StateVector:
        """Encode a message, returning the state on token + message wires only."""
        if message.d != 2 or message.n != self.m:
            raise DimensionMismatch(f"expected an {self.m}-qubit message")
        n = self.layout.n_wires
        check_register(2, n)
        # the work wires start idle in |0...0>: the buffer holds the message alone
        # until a gate targets one of them
        gates = [*self.prep, *self.w_plan.gates, *self.t_plan.gates]
        # a label register apart from the token wires must disentangle back to |0...0>:
        # the runner writes only the label wires that did not, ahead of the kept wires
        labels = () if set(self.layout.control) <= set(self.layout.token) else self.layout.control
        tensor = _run_gates(gates, message.tensor().copy(), self.layout.message, n, labels)
        if not labels:
            return StateVector(d=2, n=n, amps=tensor.reshape(-1))
        block = tensor.reshape(2 ** (tensor.ndim - n + len(labels)), -1)
        leak = float(np.sqrt(np.vdot(block[1:], block[1:]).real))  # one read, no temporaries
        if leak > UNITARY_TOL:
            raise DfsCodecError(f"control register failed to clear (leak {leak:.3e})")
        kept = block[0]
        kept /= _finite_norm(kept)  # from_amplitudes' division, in the runner's fresh block
        return StateVector(d=2, n=n - len(labels), amps=kept)


def build_encoding_pipeline(
    tokens: TokenSet,
    m: int,
    path: str = "general",
    *,
    cyclic_network: bool = False,
) -> EncodingPipeline:
    """Wire a W plan and a basis change into one simulable encoder.

    ``cyclic_network=True`` uses the Fourier + CNOT network (cyclic groups on
    qubits, power-of-two order, with the register-pattern token basis);
    otherwise the basis change is one dense gate completing the token columns.
    The W gates are synthesized on the encoder's wires, so no gate is moved.
    The basis change and the prep gate depend on the channel alone: they are
    built once per token set (see :func:`_channel_stage`), and each call
    synthesizes only W.
    """
    group = tokens.group
    r = tokens.r
    if cyclic_network and path != "cyclic":
        raise DfsCodecError("the register network pairs with the cyclic W path")

    def place(r_prime: int, m: int) -> RegisterLayout:
        # network: control 0..r'-1, token r'..r'+r-1, message after; otherwise the
        # label register doubles as the trailing r' token wires
        first = r_prime if cyclic_network else 0
        control = tuple(range(r_prime)) if cyclic_network else tuple(range(r - r_prime, r))
        token = tuple(range(first, first + r))
        return RegisterLayout(2, control, token, _message_wires(first + r, m))

    w_plan = synth_w(path, group, tokens.rep, m, place)
    layout = w_plan.layout
    if cyclic_network:

        def network() -> CircuitPlan:
            t = synth_t_cyclic(group.order)
            _check_network(tokens.rep, tokens.fiducial)
            return t

        # the network's own wires, control 0..r'-1 then the tokens, are the encoder's
        t = _channel_stage(tokens, ("network",), network)
        t_plan = CircuitPlan(gates=list(t.gates), layout=layout, metadata=dict(t.metadata))
    else:
        dense = apply_t_direct(tokens, w_plan.metadata.get("word_elements"))
        t_plan = CircuitPlan([Gate("single", layout.token, matrix=dense)], layout)
    return EncodingPipeline(
        tokens=tokens,
        m=m,
        path=path,
        w_plan=w_plan,
        prep=prep_gates(group, layout.control),
        t_plan=t_plan,
        layout=layout,
    )


def gate_count_report(
    group: FiniteGroup,
    rep: UnitaryRep,
    m: int,
    r: int,
    *,
    paths: tuple[str, ...] = ("general", "abelian", "cyclic"),
) -> dict:
    """Counts per synthesis route, the basis-change bound, and the rate.

    With several ``paths``, a route that does not apply to this group or
    representation is left out; a single named route that cannot be built
    raises its synthesizer's error.
    """
    # every path refuses m < 1; with several paths a failing one would be skipped
    _message_wires(0, m)
    r_prime = control_wire_count(group.order)
    rate = Fraction(m, m + r)
    report: dict = {
        "group": group.name or f"order-{group.order}",
        "order": group.order,
        "m": m,
        "r": r,
        "r_prime": r_prime,
        "rate": [rate.numerator, rate.denominator],
        "rate_float": float(rate),
        "scaling": "O(m, |G| log |G|, d^r)",
        "t_direct_bound": rep.dim**r,
        "paths": {},
    }
    for path in ("general", "abelian", "cyclic"):
        if path not in paths:
            continue
        try:
            plan = synth_w(path, group, rep, m)
        except DfsCodecError:
            if len(paths) == 1:
                raise
            continue
        if path == "general":
            entry = {
                "emitted_count": plan.total_count,
                "count_formula": plan.metadata["count_formula"],
                "logical_depth": logical_depth(plan),
                "depth_formula": plan.metadata["depth_formula"],
            }
        elif path == "abelian":
            entry = {
                "emitted_count": plan.total_count,
                "count_bound": plan.metadata["count_bound"],
            }
        else:
            t_plan = synth_t_cyclic(group.order) if group.order >= 2 else None
            entry = {
                "controlled_count": plan.total_count,
                "controlled_formula": m * plan.metadata["r_prime"],
                "t_cnot_count": t_plan.metadata["cnot_count"] if t_plan else 0,
                "t_cnot_formula": t_plan.metadata["cnot_formula"] if t_plan else 0,
                "t_qft_count": t_plan.metadata["qft_gate_count"] if t_plan else 0,
            }
        report["paths"][path] = entry
    return report


def inverse_plan(plan: CircuitPlan) -> CircuitPlan:
    """Reverse the gate list with every matrix conjugate-transposed."""
    gates = [
        replace(gate, matrix=None if gate.matrix is None else gate.matrix.conj().T)
        for gate in reversed(plan.gates)
    ]
    return CircuitPlan(gates=gates, layout=plan.layout, metadata=dict(plan.metadata))
