"""Dense state vectors over n qudits of local dimension d.

Addressing is big-endian: qudit 0 is the most significant digit, so the basis
index of |i_0 i_1 ... i_{n-1}> is sum_k i_k * d**(n-1-k).  One convention is
used everywhere in the package; conversions never happen at module borders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTarget,
    DimensionMismatch,
    NonOrthogonalProjectors,
    ResourceLimit,
)
from .limits import MAX_AMPLITUDES, NORM_TOL, UNITARY_TOL


def check_register(d: int, n: int) -> int:
    """Amplitude count ``d**n`` of an n-qudit register, refused above the dense budget."""
    if d < 2 or n < 1:
        raise DimensionMismatch(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    size = d**n
    if size > MAX_AMPLITUDES:
        raise ResourceLimit(f"d**n = {size} exceeds the dense guard {MAX_AMPLITUDES}")
    return size


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes over (C_d)^(x n)."""

    d: int
    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps.setflags(write=False)

    @classmethod
    def from_amplitudes(cls, d: int, n: int, amps, *, normalize: bool = False) -> "StateVector":
        size = check_register(d, n)
        arr = np.array(amps, dtype=np.complex128).reshape(-1)
        if arr.size != size:
            raise DimensionMismatch(f"expected {size} amplitudes, got {arr.size}")
        norm = np.linalg.norm(arr)
        if normalize:
            if norm == 0:
                raise DimensionMismatch("cannot normalize the zero vector")
            arr = arr / norm
        elif abs(norm - 1.0) > NORM_TOL:
            raise DimensionMismatch(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        return cls(d=d, n=n, amps=arr)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape([self.d] * self.n)


def basis_state(d: int, n: int, index: int = 0) -> StateVector:
    amps = np.zeros(check_register(d, n), dtype=np.complex128)
    amps[index] = 1.0
    return StateVector.from_amplitudes(d, n, amps)


def product_state(a: StateVector, b: StateVector) -> StateVector:
    if a.d != b.d:
        raise DimensionMismatch(f"local dimensions differ: {a.d} vs {b.d}")
    return StateVector.from_amplitudes(a.d, a.n + b.n, np.kron(a.amps, b.amps))


def random_state(d: int, n: int, rng: np.random.Generator) -> StateVector:
    size = check_register(d, n)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector.from_amplitudes(d, n, amps, normalize=True)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _check_unitary(u: np.ndarray, dim: int) -> None:
    if u.shape != (dim, dim):
        raise DimensionMismatch(f"operator must be {dim}x{dim}, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > UNITARY_TOL:
        raise DimensionMismatch("operator is not unitary within tolerance")


def _to_front(tensor: np.ndarray, axes, d: int) -> np.ndarray:
    """Move ``axes`` to the front, in order, and flatten to a (d^k, rest) block."""
    return np.moveaxis(tensor, axes, range(len(axes))).reshape(d ** len(axes), -1)


def _from_front(block: np.ndarray, axes, ndim: int, d: int) -> np.ndarray:
    """Inverse of :func:`_to_front`: an ``ndim``-axis tensor with ``axes`` back in place."""
    return np.moveaxis(block.reshape([d] * ndim), range(len(axes)), axes)


def _apply(src: np.ndarray, out: np.ndarray, op: np.ndarray, targets, controls=()) -> None:
    """The operator kernel: write ``op`` on ``targets``, wherever every control
    matches, into the writable ``(d,)*n`` tensor ``out``.

    ``src`` holds the input amplitudes and may be ``out`` itself.  Wires and
    controls are validated and ``op`` is checked by the caller.
    """
    n, d = out.ndim, out.shape[0]
    if not controls:
        # right-multiplied form: pins perp_probability in roundtrip_z8.json
        block = (_to_front(src, targets, d).T @ op.T).T
        out[...] = _from_front(block, targets, n, d)
        return
    if out is not src:
        out[...] = src
    index: list = [slice(None)] * n
    for w, v in controls:
        index[w] = v
    sub = out[tuple(index)]
    # axis rank of each target among the non-control wires, in the sliced view
    control_wires = {w for w, _ in controls}
    remaining = [w for w in range(n) if w not in control_wires]
    axes = [remaining.index(t) for t in targets]
    # left-multiplied form: pins fidelity_vs_direct_encoding in circuit_simulate_z8.json
    out[tuple(index)] = _from_front(op @ _to_front(sub, axes, d), axes, sub.ndim, d)


def _check_wires(n: int, wires) -> list[int]:
    wires = [int(w) for w in wires]
    if len(set(wires)) != len(wires):
        raise BadTarget(f"repeated qudit in {wires}")
    for w in wires:
        if not 0 <= w < n:
            raise BadTarget(f"qudit {w} out of range for {n} qudits")
    return wires


def _check_operands(d: int, n: int, controls, targets) -> tuple[list, list[int]]:
    """Validated ``(controls, targets)`` of one operator on an n-qudit register."""
    controls = [(int(w), int(v)) for w, v in controls]
    targets = _check_wires(n, targets)
    control_wires = [w for w, _ in controls]
    if len(set(control_wires)) != len(control_wires):
        raise BadTarget("repeated control qudit")
    if set(control_wires) & set(targets):
        raise BadTarget("control and target sets overlap")
    for w, v in controls:
        if not (0 <= w < n) or not (0 <= v < d):
            raise BadTarget(f"control ({w},{v}) out of range")
    return controls, targets


def apply_local(state: StateVector, u: np.ndarray, target: int) -> StateVector:
    """Apply a d x d unitary to one qudit."""
    return apply_controlled(state, (), u, [target])


def _collective_rows(rows: np.ndarray, u: np.ndarray, n: int, targets) -> np.ndarray:
    """``u`` on every wire in ``targets`` of each row of a ``(rows, d**n)`` array.

    The collective kernel, with no checks.  Each step views the leading qudit
    of every row as the columns of a ``(rest, d)`` block, right-multiplies it
    by ``u.T`` as :func:`_apply` does, and flattens so that qudit becomes the
    trailing one; after ``n`` steps the wires are back in place.  The rows go
    through one stacked matmul per step, one GEMM per row, so each row comes
    out bit-identical to a one-row call.
    """
    d, ut, x = u.shape[0], u.T, rows
    count = x.shape[0]
    for w in range(n):
        x = x.reshape(count, d, -1).transpose(0, 2, 1)
        if w in targets:
            x = x @ ut
        x = x.reshape(count, -1)
    return x


def apply_collective(state: StateVector, u: np.ndarray, targets=None) -> StateVector:
    """Apply the same single-qudit unitary to every listed qudit (default: all).

    Targets are processed in ascending wire order, whatever order they are
    given in; this is the one-row case of :func:`_collective_rows`.
    """
    targets = set(_check_wires(state.n, range(state.n) if targets is None else targets))
    u = np.asarray(u, dtype=np.complex128)
    _check_unitary(u, state.d)
    amps = _collective_rows(state.amps[None], u, state.n, targets)[0]
    return StateVector(d=state.d, n=state.n, amps=amps)


def apply_controlled(state: StateVector, controls, u: np.ndarray, targets) -> StateVector:
    """Apply a unitary on a target block when every control qudit holds its value.

    ``controls`` is a sequence of ``(qudit, required_value)`` pairs, possibly
    empty; amplitudes whose control digits do not match are left bit-exact.
    The result is a fresh state; ``state`` is only read.
    """
    controls, targets = _check_operands(state.d, state.n, controls, targets)
    u = np.asarray(u, dtype=np.complex128)
    _check_unitary(u, state.d ** len(targets))
    out = np.empty_like(state.amps).reshape([state.d] * state.n)
    _apply(state.tensor(), out, u, targets, controls)
    return StateVector(d=state.d, n=state.n, amps=out.reshape(-1))


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Outcome of a projective measurement on a qudit subset.

    ``outcome`` indexes the offered projectors; ``outcome == len(probabilities) - 1``
    together with ``is_remainder`` marks the leftover projector.
    """

    outcome: int
    probability: float
    probabilities: tuple[float, ...]
    post_state: StateVector
    seed: int
    is_remainder: bool


def _projector_amplitudes(state: StateVector, subset, projectors):
    """Amplitude rows <v_i| B for rank-one projectors |v_i><v_i| on the subset."""
    subset = _check_wires(state.n, subset)
    dim = state.d ** len(subset)
    block = _to_front(state.tensor(), subset, state.d)
    vectors = []
    for p in projectors:
        v = np.asarray(p, dtype=np.complex128).reshape(-1)
        if v.size != dim:
            raise DimensionMismatch(f"projector size {v.size} != {dim}")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > UNITARY_TOL:
            raise NonOrthogonalProjectors(f"projector vector has norm {norm}")
        vectors.append(v)
    stacked = np.reshape(vectors, (len(vectors), dim))
    overlaps = np.argwhere(np.triu(np.abs(stacked.conj() @ stacked.T), 1) > UNITARY_TOL)
    if len(overlaps):
        i, j = overlaps[0]
        raise NonOrthogonalProjectors(f"projectors {i} and {j} overlap")
    rows = np.array([v.conj() @ block for v in vectors])
    return vectors, rows, block, subset


def outcome_probabilities(state: StateVector, subset, projectors) -> np.ndarray:
    """Exact probabilities of the offered outcomes plus the remainder, in order."""
    _, rows, _, _ = _projector_amplitudes(state, subset, projectors)
    probs = np.sum(np.abs(rows) ** 2, axis=1)
    perp = max(0.0, 1.0 - float(np.sum(probs)))
    return np.append(probs, perp)


def project_measure(state: StateVector, subset, projectors, seed: int) -> MeasurementRecord:
    """Sample one outcome of {|v_i><v_i|} plus the remainder on a qudit subset.

    Same seed, same state: same outcome and a bit-identical post state.
    """
    vectors, rows, block, subset = _projector_amplitudes(state, subset, projectors)
    probs = np.sum(np.abs(rows) ** 2, axis=1)
    total = float(np.sum(probs))
    if total > 1.0 + UNITARY_TOL:
        raise NonOrthogonalProjectors(f"offered probabilities sum to {total} > 1")
    perp = max(0.0, 1.0 - total)
    all_probs = np.append(probs, perp)

    rng = np.random.default_rng(seed)
    draw = float(rng.random())
    cumulative = np.cumsum(all_probs)
    outcome = int(np.searchsorted(cumulative, draw, side="right"))
    outcome = min(outcome, len(all_probs) - 1)
    is_remainder = outcome == len(vectors)

    if is_remainder:
        kept = block.copy()
        for v, row in zip(vectors, rows):
            kept -= np.outer(v, row)
    else:
        kept = np.outer(vectors[outcome], rows[outcome])
    norm = np.linalg.norm(kept)
    if norm == 0:
        raise NonOrthogonalProjectors("post-measurement state vanished")
    kept = kept / norm
    post = StateVector(
        d=state.d, n=state.n, amps=_from_front(kept, subset, state.n, state.d).reshape(-1)
    )
    return MeasurementRecord(
        outcome=outcome,
        probability=float(all_probs[outcome]),
        probabilities=tuple(float(p) for p in all_probs),
        post_state=post,
        seed=seed,
        is_remainder=is_remainder,
    )


def inner(a: StateVector, b: StateVector) -> complex:
    if a.d != b.d or a.n != b.n:
        raise DimensionMismatch("states live on different registers")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; symmetric and clipped to [0, 1]."""
    return float(min(1.0, abs(inner(a, b)) ** 2))


def extract_prefix_register(state: StateVector, prefix: np.ndarray, k: int) -> StateVector:
    """Contract the leading k qudits against a known vector and renormalize."""
    dim = state.d**k
    vec = np.asarray(prefix, dtype=np.complex128).reshape(-1)
    if vec.size != dim:
        raise DimensionMismatch(f"prefix vector size {vec.size} != {dim}")
    block = state.amps.reshape(dim, -1)
    rest = vec.conj() @ block
    return StateVector.from_amplitudes(state.d, state.n - k, rest, normalize=True)
