from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dfscodec.errors import (
    BadTarget,
    DimensionMismatch,
    NonOrthogonalProjectors,
    ResourceLimit,
)
from dfscodec.statevec import (
    StateVector,
    _collective_rows,
    apply_collective,
    apply_controlled,
    apply_local,
    basis_state,
    extract_prefix_register,
    fidelity,
    haar_unitary,
    inner,
    outcome_probabilities,
    product_state,
    project_measure,
    random_state,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
OMEGA3 = np.exp(2j * np.pi / 3)


def dense_apply(state: StateVector, op: np.ndarray) -> np.ndarray:
    return op @ state.amps


def embed_local(u: np.ndarray, target: int, d: int, n: int) -> np.ndarray:
    factors = [np.eye(d)] * n
    factors[target] = u
    return reduce(np.kron, factors)


@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(1, 5),
    target=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_apply_local_preserves_norm_and_matches_dense(d, n, target, seed):
    target %= n
    rng = np.random.default_rng(seed)
    state = random_state(d, n, rng)
    u = haar_unitary(d, rng)
    out = apply_local(state, u, target)
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10
    expected = dense_apply(state, embed_local(u, target, d, n))
    np.testing.assert_allclose(out.amps, expected, atol=1e-10)


def test_apply_local_norm_on_ten_qubits(rng):
    state = random_state(2, 10, rng)
    out = apply_collective(state, haar_unitary(2, rng))
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10


def test_identity_is_noop(rng):
    state = random_state(3, 2, rng)
    out = apply_local(state, np.eye(3), 1)
    np.testing.assert_allclose(out.amps, state.amps, atol=0)


def test_sigma_x_on_most_significant_qubit():
    state = basis_state(2, 2, 0)  # |00>
    out = apply_local(state, X, 0)
    np.testing.assert_allclose(out.amps, basis_state(2, 2, 2).amps)  # |10>


def test_phase_rep_action_on_single_qutrit_level():
    u = np.diag([1, OMEGA3])
    state = basis_state(2, 1, 1)
    out = apply_local(state, u, 0)
    np.testing.assert_allclose(out.amps, [0, OMEGA3], atol=1e-12)


def test_collective_equals_sequential_and_dense_kron(rng):
    # oracle: dense three-fold Kronecker product built here
    state = random_state(3, 3, rng)
    u = haar_unitary(3, rng)
    collective = apply_collective(state, u)
    sequential = state
    for t in range(3):
        sequential = apply_local(sequential, u, t)
    np.testing.assert_allclose(collective.amps, sequential.amps, atol=1e-12)
    dense = reduce(np.kron, [u] * 3) @ state.amps
    np.testing.assert_allclose(collective.amps, dense, atol=1e-10)


def test_collective_on_bell_state_is_invariant():
    bell = StateVector.from_amplitudes(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    out = apply_collective(bell, X)
    np.testing.assert_allclose(out.amps, bell.amps, atol=1e-12)


def test_collective_rejects_duplicate_targets(rng):
    state = random_state(2, 2, rng)
    with pytest.raises(BadTarget):
        apply_collective(state, X, [0, 0])


def test_cnot_and_nonmatching_pattern(rng):
    state = basis_state(2, 2, 2)  # |10>
    out = apply_controlled(state, [(0, 1)], X, [1])
    np.testing.assert_allclose(out.amps, basis_state(2, 2, 3).amps)  # |11>
    # pattern |11> does not match |10...>: state untouched bit-exactly
    state = product_state(basis_state(2, 2, 2), random_state(2, 1, rng))
    out = apply_controlled(state, [(0, 1), (1, 1)], X, [2])
    assert np.array_equal(out.amps, state.amps)


def test_controlled_block_matches_dense_oracle(rng):
    # two controls on |1>, one arbitrary target unitary, against a dense matrix
    u = haar_unitary(2, rng)
    state = random_state(2, 4, rng)
    out = apply_controlled(state, [(0, 1), (1, 1)], u, [3])
    p1 = np.diag([0.0, 1.0])
    proj_match = reduce(np.kron, [p1, p1, np.eye(2), u])
    proj_rest = reduce(np.kron, [np.eye(4) - np.kron(p1, p1), np.eye(2), np.eye(2)])
    dense = proj_match + proj_rest
    np.testing.assert_allclose(out.amps, dense @ state.amps, atol=1e-10)


def test_controlled_with_empty_controls_equals_local(rng):
    state = random_state(2, 3, rng)
    u = haar_unitary(2, rng)
    np.testing.assert_allclose(
        apply_controlled(state, [], u, [1]).amps,
        apply_local(state, u, 1).amps,
        atol=1e-12,
    )


def test_controlled_multi_target_block(rng):
    state = random_state(2, 3, rng)
    u = haar_unitary(4, rng)
    out = apply_controlled(state, [(0, 1)], u, [1, 2])
    p1 = np.diag([0.0, 1.0])
    dense = np.kron(p1, u) + np.kron(np.eye(2) - p1, np.eye(4))
    np.testing.assert_allclose(out.amps, dense @ state.amps, atol=1e-10)


def test_uncontrolled_block_on_out_of_order_wires_matches_kron_oracle(rng):
    # prep gates and the token basis change reach the kernel in this form
    state = random_state(2, 3, rng)
    u = haar_unitary(4, rng)
    out = apply_controlled(state, [], u, [2, 0])
    # |a0 a1 a2> -> |a2 a0 a1> puts the targets first, in the order given
    perm = np.zeros((8, 8))
    for a0, a1, a2 in np.ndindex(2, 2, 2):
        perm[4 * a2 + 2 * a0 + a1, 4 * a0 + 2 * a1 + a2] = 1.0
    dense = perm.T @ np.kron(u, np.eye(2)) @ perm
    np.testing.assert_allclose(out.amps, dense @ state.amps, atol=1e-10)


def test_collective_is_bit_identical_to_local_loop(rng):
    # the golden reports depend on this rounding, so compare bit for bit
    state = random_state(2, 6, rng)
    u = haar_unitary(2, rng)
    sequential = state
    for t in range(6):
        sequential = apply_local(sequential, u, t)
    assert np.array_equal(apply_collective(state, u).amps, sequential.amps)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 4, 7])
@pytest.mark.parametrize("subset", [False, True])
def test_collective_on_targets_is_bit_identical_to_local_loop(d, n, subset, rng):
    state = random_state(d, n, rng)
    u = haar_unitary(d, rng)
    targets = list(range(n))
    if subset:
        targets = sorted(rng.choice(n, size=(n + 1) // 2, replace=False).tolist())
    sequential = state
    for t in targets:
        sequential = apply_local(sequential, u, t)
    assert np.array_equal(apply_collective(state, u, targets).amps, sequential.amps)


@pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (2, 7), (3, 1), (3, 4), (5, 1), (5, 3)])
@pytest.mark.parametrize("subset", [False, True])
def test_batched_collective_rows_are_bit_identical_to_apply_collective(d, n, subset, rng):
    states = [random_state(d, n, rng) for _ in range(5)]
    u = haar_unitary(d, rng)
    targets = list(range(n))
    if subset:
        targets = sorted(rng.choice(n, size=(n + 1) // 2, replace=False).tolist())
    rows = _collective_rows(np.array([s.amps for s in states]), u, n, set(targets))
    assert rows.shape == (5, d**n)
    for row, state in zip(rows, states):
        assert np.array_equal(row, apply_collective(state, u, targets).amps)


def test_control_target_overlap_rejected(rng):
    state = random_state(2, 2, rng)
    with pytest.raises(BadTarget):
        apply_controlled(state, [(0, 1)], X, [0])


def test_qutrit_control_value_two_matches_dense_oracle(rng):
    # non-binary control values select a single level of a qutrit
    state = random_state(3, 3, rng)
    u = haar_unitary(3, rng)
    out = apply_controlled(state, [(1, 2)], u, [2])
    sel = np.zeros((3, 3))
    sel[2, 2] = 1.0
    dense = reduce(np.kron, [np.eye(3), sel, u]) + reduce(
        np.kron, [np.eye(3), np.eye(3) - sel, np.eye(3)]
    )
    np.testing.assert_allclose(out.amps, dense @ state.amps, atol=1e-10)


def test_collective_identity_is_noop(rng):
    state = random_state(3, 3, rng)
    out = apply_collective(state, np.eye(3))
    np.testing.assert_allclose(out.amps, state.amps, atol=0)


def test_measure_deterministic_outcome():
    state = basis_state(2, 1, 0)
    record = project_measure(state, [0], [[1, 0], [0, 1]], seed=123)
    assert record.outcome == 0
    assert abs(record.probability - 1.0) < 1e-12
    assert not record.is_remainder


def test_measure_probabilities_sum_to_one(rng):
    state = random_state(2, 3, rng)
    vecs = np.eye(4)
    probs = outcome_probabilities(state, [0, 1], [vecs[i] for i in range(4)])
    assert abs(np.sum(probs) - 1.0) < 1e-9
    assert probs[-1] < 1e-12  # complete projector set leaves nothing over


def test_measure_reproducible_same_seed(rng):
    state = random_state(2, 3, rng)
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    first = project_measure(state, [1], [plus, minus], seed=9)
    second = project_measure(state, [1], [plus, minus], seed=9)
    assert first.outcome == second.outcome
    assert np.array_equal(first.post_state.amps, second.post_state.amps)


def test_measure_rejects_overlapping_projectors(rng):
    state = random_state(2, 2, rng)
    v = np.array([1, 0])
    with pytest.raises(NonOrthogonalProjectors):
        project_measure(state, [0], [v, v], seed=0)


def test_overlapping_projectors_name_their_first_pair(rng):
    # pairs (0,3) and (1,2) overlap; the first in row-major order is named
    state = random_state(2, 2, rng)
    e0, e1 = np.eye(2)
    with pytest.raises(NonOrthogonalProjectors, match="projectors 0 and 3 overlap"):
        outcome_probabilities(state, [1], [e0, e1, e1, e0])


def test_remainder_outcome_sampled():
    # state orthogonal to the only offered projector
    state = basis_state(2, 1, 1)
    record = project_measure(state, [0], [[1, 0]], seed=0)
    assert record.is_remainder
    np.testing.assert_allclose(record.post_state.amps, [0, 1], atol=1e-12)


def test_fidelity_basics(rng):
    a = random_state(2, 2, rng)
    assert abs(fidelity(a, a) - 1.0) < 1e-12
    zero, one = basis_state(2, 1, 0), basis_state(2, 1, 1)
    assert fidelity(zero, one) == 0.0
    plus = StateVector.from_amplitudes(2, 1, np.array([1, 1]) / np.sqrt(2))
    assert abs(fidelity(plus, zero) - 0.5) < 1e-12
    assert abs(fidelity(zero, plus) - fidelity(plus, zero)) < 1e-15


def test_fidelity_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(basis_state(2, 1, 0), basis_state(2, 2, 0))


def test_extract_prefix_register(rng):
    front = random_state(2, 2, rng)
    back = random_state(2, 1, rng)
    joint = product_state(front, back)
    out = extract_prefix_register(joint, front.amps, 2)
    assert abs(abs(inner(out, back)) - 1.0) < 1e-12


def test_resource_guard():
    with pytest.raises(ResourceLimit):
        StateVector.from_amplitudes(2, 25, np.zeros(2**25))


def test_norm_validation():
    with pytest.raises(DimensionMismatch):
        StateVector.from_amplitudes(2, 1, [1.0, 1.0])
