import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dfscodec.errors import (
    BadTarget,
    DfsCodecError,
    DimensionMismatch,
    NonOrthogonalProjectors,
    ResourceLimit,
)
from dfscodec.groups import builtin_group
from dfscodec.limits import UNITARY_TOL
from dfscodec.reps import builtin_rep
from dfscodec.statevec import (
    MIN_BLOCK_COLUMNS,
    MONOMIAL_MIN_BLOCK,
    StateVector,
    _apply,
    _check_operands,
    _checked_ops,
    _collective_rows,
    _cycles,
    _digit_source,
    _from_front,
    _fused_width,
    _monomial,
    _run,
    _to_front,
    apply_collective,
    apply_controlled,
    apply_local,
    basis_state,
    fidelity,
    haar_unitary,
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


@pytest.mark.parametrize("d, n", [(2, 5), (3, 3), (5, 2), (8, 2)])
def test_stacked_matrices_equal_one_collective_per_row(d, n, rng):
    # a (rows, d, d) stack applies matrix i to row i, bit for bit
    rows = np.array([random_state(d, n, rng).amps for _ in range(4)])
    stack = np.array([haar_unitary(d, rng) for _ in range(4)])
    got = _collective_rows(rows, stack, n, range(n))
    for i in range(4):
        assert np.array_equal(got[i], _collective_rows(rows[i][None], stack[i], n, range(n))[0])


def _gemm_rows(rows, u, n, targets):
    """The collective kernel before its monomial step, the oracle: one stacked
    matmul per target wire, whatever ``u`` is."""
    d, ut, x = u.shape[-1], np.swapaxes(u, -1, -2), rows
    count = x.shape[0]
    for w in range(n):
        x = x.reshape(count, d, -1).transpose(0, 2, 1)
        if w in targets:
            x = x @ ut
        x = x.reshape(count, -1)
    return x


def _per_digit_rows(rows, u, n, targets):
    """The monomial collective kernel before its steps were fused, the oracle: one
    step per wire of the rotating loop, output digit ``j`` of each row its source
    digit ``src[j]`` read in place times ``phase[j]``, one product per output digit,
    all rows at once when they share a permutation and row by row otherwise."""
    d, count = u.shape[-1], rows.shape[0]
    src, phases = _monomial(u)
    table = np.array(phases, dtype=np.complex128).reshape(-1, d)
    if src == src[:d] * (len(src) // d):
        moves = [(slice(None), src[:d])]
    else:
        moves = [(slice(i, i + 1), src[i * d : i * d + d]) for i in range(count)]
    x = rows
    for w in range(n):
        out = np.empty((count, d**n), dtype=np.complex128)
        x, y = x.reshape(count, d, -1), out.reshape(count, -1, d)
        if w not in targets:
            np.copyto(y, x.transpose(0, 2, 1))
        else:
            for sel, sources in moves:
                for j, k in enumerate(sources):
                    np.multiply(x[sel, k], table[sel, j, None], out=y[sel, :, j])
        x = out
    return x


def _monomial_matrix(d, rng, exact, perm=None):
    """A random permutation (or ``perm``) times random phases, or exact ones from
    {1, -1, i, -i}."""
    if exact:
        phases = rng.choice(np.array([1, -1, 1j, -1j]), size=d)
    else:
        phases = np.exp(2j * np.pi * rng.random(d))
    return np.eye(d)[rng.permutation(d) if perm is None else perm] * phases[:, None]


def _planted_zero_rows(d, n, count, rng):
    """Unit rows with about a quarter of the amplitudes' parts set to +0.0 or -0.0."""
    rows = rng.normal(size=(count, d**n)) + 1j * rng.normal(size=(count, d**n))
    pairs = rows.view(np.float64)
    planted = rng.random(pairs.shape) < 0.25
    pairs[planted] = np.where(rng.random(int(planted.sum())) < 0.5, 0.0, -0.0)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("kind", ["one", "shared", "per-row"])
@pytest.mark.parametrize("exact", [False, True], ids=["random-phases", "exact-phases"])
def test_monomial_collective_matches_the_gemm_loop(d, kind, exact, rng):
    # values equal at d = 2 (a zero may change sign), within 1e-15 above, where
    # the GEMM sums d products; the sizes reach both sides of MONOMIAL_MIN_BLOCK,
    # for a shared permutation and row by row, and 15 qubits are a round trip's
    for n in {2: [1, 2, 9, 11, 15], 3: [1, 2, 7, 8], 5: [1, 2, 5, 6]}[d]:
        for count in (1, 4):
            if kind == "one":
                u = _monomial_matrix(d, rng, exact)
            elif kind == "shared":
                perm = rng.permutation(d)
                u = np.array([_monomial_matrix(d, rng, exact, perm) for _ in range(count)])
            else:
                u = np.array([_monomial_matrix(d, rng, exact) for _ in range(count)])
            rows = _planted_zero_rows(d, n, count, rng)
            subset = set(rng.choice(n, size=(n + 1) // 2, replace=False).tolist())
            for targets in (set(range(n)), subset):
                got, want = _collective_rows(rows, u, n, targets), _gemm_rows(rows, u, n, targets)
                if d == 2:
                    assert np.array_equal(got, want), (n, count, targets)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-15, (n, count, targets)


@pytest.mark.parametrize("d, exact", [(2, False), (2, True), (3, False), (5, False)],
                         ids=["d2-random-phases", "d2-exact-phases", "d3-random-phases",
                              "d5-random-phases"])
@pytest.mark.parametrize("kind", ["one", "shared", "per-row"])
def test_fused_step_keeps_the_bits_of_the_per_digit_loop(d, exact, kind, rng):
    # identity and reversal only, so every size over the floor takes the fused
    # step; inexact phases meet each amplitude one wire at a time, in wire order,
    # so the bytes equal the per-digit loop's, the sign of every zero included.
    # Exact phases are grouped, which rounds no nonzero part but may flip a
    # zero's sign, so their rows hold no zeros.  Below the floor the GEMM runs:
    # at d = 2 its values are equal, and only a zero's sign may differ; at d >= 3
    # it sums d products, so those sizes stay over the floor
    ends = [np.arange(d), np.arange(d)[::-1]]
    for n in {2: [2, 9, 11, 15], 3: [8, 9], 5: [6, 7]}[d]:
        for count in (1, 4):
            perm = ends[rng.integers(2)]
            if kind == "one":
                u = _monomial_matrix(d, rng, exact, perm)
            elif kind == "shared":
                u = np.array([_monomial_matrix(d, rng, exact, perm) for _ in range(count)])
            else:
                u = np.array([_monomial_matrix(d, rng, exact, ends[i % 2]) for i in range(count)])
            if exact:
                rows = rng.normal(size=(count, d**n)) + 1j * rng.normal(size=(count, d**n))
            else:
                rows = _planted_zero_rows(d, n, count, rng)
            subset = set(rng.choice(n, size=(n + 1) // 2, replace=False).tolist())
            fused = d ** (n - 1) * (1 if kind == "per-row" else count) >= MONOMIAL_MIN_BLOCK
            for targets in (set(range(n)), subset):
                got, want = _collective_rows(rows, u, n, targets), _per_digit_rows(rows, u, n, targets)
                if fused:
                    assert got.tobytes() == want.tobytes(), (n, count, targets)
                else:
                    assert np.array_equal(got, want), (n, count, targets)


def _fused_step(u):
    """Whether an over-the-floor collective of ``u`` takes the fused step: every
    permutation the identity or the digit reversal, with any phases."""
    d = u.shape[-1]
    src, _ = _monomial(u)
    ends = {tuple(range(d)), tuple(range(d))[::-1]}
    return {tuple(src[i : i + d]) for i in range(0, len(src), d)} <= ends


def _group_width(u):
    """Target wires per product of the fused step: ``_fused_width(d)`` when every
    phase is exactly 1, -1, i or -i, one otherwise."""
    exact = set(_monomial(u)[1]) <= {1, -1, 1j, -1j}
    return _fused_width(u.shape[-1]) if exact else 1


def _exact_phase_sets():
    """(name, d, matrix or stack) of exact-phase monomials: the k4 stack and each of
    its Paulis, and Y with its phases i and -i; at d = 3 and 5 the identity and
    the digit reversal, which take the fused step, and a shift, which takes the
    GEMM, with phases from {1, -1, i, -i}; and the z4xz2 regular stack (d = 8),
    whose permutations take the GEMM."""
    k4 = builtin_rep(builtin_group("k4"), "builtin", 2).matrices
    y = np.array([[0, -1j], [1j, 0]])
    cases = [("k4", 2, k4), ("Y", 2, y)] + [(f"k4[{i}]", 2, m) for i, m in enumerate(k4)]
    for d in (3, 5):
        phases = np.array([1, 1j, -1, -1j, 1j])[:d, None]
        cases += [(f"I{d}", d, np.eye(d)), (f"reverse{d}", d, np.eye(d)[::-1] * phases),
                  (f"shift{d}", d, np.roll(np.eye(d), 1, axis=0) * phases)]
    cases.append(("z4xz2", 8, builtin_rep(builtin_group("z4xz2"), "regular", 8).matrices))
    return cases


@pytest.mark.parametrize("d, u", [case[1:] for case in _exact_phase_sets()],
                         ids=[case[0] for case in _exact_phase_sets()])
def test_exact_phase_collectives_equal_the_gemm_loop(d, u, products, rng):
    # exact phases round nothing, so the values equal the GEMM's at every d (only a
    # zero's sign may differ); sizes on both sides of MONOMIAL_MIN_BLOCK, one row
    # and four for a single matrix, every wire and a subset, and runs of target
    # wires longer than one phase table.  The product count shows the path: one
    # per group of rows and of _fused_width target wires on the fused step, none
    # on the GEMM
    stacked = u.ndim == 3
    shared = not stacked or len({tuple(np.argmax(m != 0, axis=1)) for m in u}) == 1
    for n in {2: [2, 9, 11, 13, 17], 3: [2, 6, 7, 9], 5: [2, 4, 5], 8: [2, 4, 5]}[d]:
        for count in (len(u),) if stacked else (1, 4):
            rows = _planted_zero_rows(d, n, count, rng)
            # rng.choice calls np.prod, which the products spy breaks
            subset = set(rng.permutation(n)[: (n + 1) // 2].tolist())
            for targets in (set(range(n)), subset):
                products[0] = 0
                got = _collective_rows(rows, u, n, targets)
                assert np.array_equal(got, _gemm_rows(rows, u, n, targets)), (n, count, targets)
                groups = 1 if shared else count
                want = 0
                if d ** (n - 1) * count // groups >= MONOMIAL_MIN_BLOCK and _fused_step(u):
                    want = groups * -(-len(targets) // _fused_width(d))
                assert products[0] == want, (n, count, targets)


def test_collective_steps_write_into_two_buffers(rng):
    # tracemalloc sees numpy's buffers: a GEMM collective holds the input and at
    # most two buffers of its size, the output and one scratch; the fused step
    # (every monomial at d = 2, exact phases or not) reads its source through
    # views and writes the output in place, so it holds the input and the output;
    # 256 KiB covers numpy's ufunc buffer
    s3 = builtin_rep(builtin_group("s3"), "builtin-2d", 2).matrices
    z8 = builtin_rep(builtin_group("z8"), "builtin", 2).matrices
    k4 = builtin_rep(builtin_group("k4"), "builtin", 2).matrices
    for u, buffers in [(s3, 2), (z8, 1), (haar_unitary(2, rng), 2), (k4, 1), (X, 1)]:
        count = len(u) if u.ndim == 3 else 1
        state = rng.normal(size=(count, 2**16)) + 0j
        tracemalloc.start()
        try:
            rows = state.copy()
            _collective_rows(rows, u, 16, range(16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (1 + buffers) * rows.nbytes + 256 * 1024, (u.shape, peak / rows.nbytes)


@pytest.fixture
def products(monkeypatch):
    """Count of ``np.multiply`` calls: one per group of target wires and of rows on
    the fused step, none on the GEMM path."""
    calls = [0]
    multiply = np.multiply

    def spy(*args, **kwargs):
        calls[0] += 1
        return multiply(*args, **kwargs)

    monkeypatch.setattr(np, "multiply", spy)
    return calls


# (group, rep, d, n): n puts MONOMIAL_MIN_BLOCK amplitudes in each product of a row
_MONOMIAL_REPS = [(f"z{k}", "builtin", 2, 11) for k in range(2, 13)] + [
    ("k4", "builtin", 2, 11), ("z3", "builtin", 3, 8), ("z5", "builtin", 5, 6)]


@pytest.mark.parametrize("group, spec, dim, n", _MONOMIAL_REPS, ids=[
    f"{g}-{s}-d{d}" for g, s, d, _ in _MONOMIAL_REPS])
def test_monomial_reps_run_no_gemm(group, spec, dim, n, products, rng):
    # the orbit's stack and each element's matrix, on every wire and on a subset,
    # all on the fused step (_fused_step); the product count shows the grouping,
    # per group of rows (all rows when they share a permutation, one row
    # otherwise): one product per group of _fused_width target wires when every
    # phase is exact, one per target wire otherwise (_group_width)
    matrices = builtin_rep(builtin_group(group), spec, dim).matrices
    state = random_state(dim, n, rng)
    orbit = np.broadcast_to(state.amps, (len(matrices), dim**n))
    shared = len({tuple(np.argmax(m != 0, axis=1)) for m in matrices}) == 1
    cases = [(orbit, matrices, range(n), 1 if shared else len(matrices))]
    cases += [(state.amps[None], m, [0, n - 1], 1) for m in matrices]
    for rows, u, targets, groups in cases:
        products[0] = 0
        _collective_rows(rows, u, n, set(targets))
        assert _fused_step(u)
        assert products[0] == groups * -(-len(targets) // _group_width(u))
    assert MONOMIAL_MIN_BLOCK <= dim ** (n - 1)
    assert [_fused_width(d) for d in (2, 3, 5, 8, 16, 17)] == [8, 5, 3, 2, 2, 1]


def test_other_collectives_keep_the_gemm(products, rng):
    # the s3 2-d stack, a Haar matrix and 1e-300 where X has a zero; a monomial
    # on one wire, even over MONOMIAL_MIN_BLOCK rows, where numpy's matmul rounds
    # some products otherwise than the multiply; blocks below the floor: X on
    # 2**9 amplitudes per digit, and the k4 stack, whose four rows share no
    # permutation, on 2**8 per digit and row; and the z4xz2 regular stack over
    # the floor, whose permutations are neither the identity nor the reversal
    s3 = builtin_rep(builtin_group("s3"), "builtin-2d", 2).matrices
    k4 = builtin_rep(builtin_group("k4"), "builtin", 2).matrices
    regular = builtin_rep(builtin_group("z4xz2"), "regular", 8).matrices
    orbit = np.broadcast_to(random_state(8, 5, rng).amps, (len(regular), 8**5))
    near_x = X.copy()
    near_x[0, 0] = 1e-300
    rows = np.array([random_state(2, 11, rng).amps for _ in range(len(s3))])
    wide = np.array([random_state(2, 1, rng).amps for _ in range(MONOMIAL_MIN_BLOCK)])
    for block, u, n in [(rows, s3, 11), (rows[:1], haar_unitary(2, rng), 11),
                        (rows[:1], near_x, 11), (wide, _monomial_matrix(2, rng, False), 1),
                        (rows[:1, :2**10], X, 10),
                        (rows[:4, :2**9], k4, 9), (orbit, regular, 5)]:
        got = _collective_rows(block, u, n, set(range(n)))
        assert products[0] == 0
        assert got.tobytes() == _gemm_rows(block, u, n, set(range(n))).tobytes()
    assert 2**9 < MONOMIAL_MIN_BLOCK <= 4 * 2**8


def test_one_monomial_detector_serves_moves_and_collectives():
    # exact zeros only; the 0/1 permutations are the monomials with unit phases
    y = np.array([[0, -1j], [1j, 0]])
    assert _monomial(y) == ([1, 0], [-1j, 1j])
    assert _monomial(np.array([X, y])) == ([1, 0, 1, 0], [1, 1, -1j, 1j])
    assert _monomial(np.array([[1, 1e-300], [0, 1]])) is None
    assert _monomial(np.array([[0, 1], [0, 1]])) is None  # one column twice
    assert _monomial(np.array([[1, 0], [0, 0]])) is None  # a zero row
    assert _monomial(np.array([np.eye(2), [[1, 1], [0, 1]]])) is None
    # a 0/1 permutation is the source list _monomial gives; _move finds its cycles
    assert _digit_source(X.astype(complex), 2) == [1, 0]
    assert _digit_source(y, 2) is None
    assert _digit_source(np.eye(3)[[1, 2, 0]], 3) == [1, 2, 0]
    assert _cycles([1, 2, 0]) == [[0, 1, 2]]
    assert _digit_source(np.eye(3), 3) == [0, 1, 2]
    assert _cycles([0, 1, 2]) == []
    assert _digit_source(np.eye(2), 3) is None


@pytest.mark.parametrize("k", [2, 3, 4, 8, 9, 16, 27, 128])
def test_gemm_columns_keep_their_bits_in_a_narrower_block(k, rng):
    # the block kernel pads a block narrower than MIN_BLOCK_COLUMNS with zero columns
    # and relies on each column of a product having the bits it has in a wider block
    op = haar_unitary(k, rng)
    block = rng.normal(size=(k, 4096)) + 1j * rng.normal(size=(k, 4096))
    wide = op @ block
    narrow = op @ block[:, :MIN_BLOCK_COLUMNS]
    assert narrow.tobytes() == wide[:, :MIN_BLOCK_COLUMNS].tobytes(), (
        f"this BLAS gives a {k}x{k} product on {MIN_BLOCK_COLUMNS} columns other bits"
        " than on 4096; runs on held wires would drift from whole-register runs"
    )
    padded = np.zeros((k, MIN_BLOCK_COLUMNS), dtype=np.complex128)
    for c in range(1, MIN_BLOCK_COLUMNS):
        for start in (1, 100, 4096 - c):  # non-leading positions of the wide product
            padded[:, :c] = block[:, start:start + c]
            got = (op @ padded)[:, :c]
            assert got.tobytes() == wide[:, start:start + c].tobytes(), (k, c, start)
    # the pad exists because a product on 1 or 2 columns alone has other bits
    for c in (1, 2):
        assert (op @ block[:, 1:1 + c]).tobytes() != wide[:, 1:1 + c].tobytes(), (k, c)


def _unpadded_apply(state, controls, op, targets):
    """``op @ block`` on the whole register, the block never padded: the oracle
    of the block kernel on a block as wide as the register gives it."""
    tensor, d = state.tensor().copy(), state.d
    index = [slice(None)] * state.n
    for w, v in controls:
        index[w] = v
    sub = tensor[tuple(index)]
    axes = [t - sum(w < t for w, _ in controls) for t in targets]
    tensor[tuple(index)] = _from_front(op @ _to_front(sub, axes, d), axes, sub.ndim, d)
    return tensor.reshape(-1)


@pytest.mark.parametrize("d", [2, 3])
def test_whole_register_products_are_never_padded(d, rng):
    # a block on the whole register is as wide as the register gives it, even
    # under MIN_BLOCK_COLUMNS, so the pad never changes its bits
    for n in range(1, 7):
        for i in range(24):
            wires = rng.permutation(n)
            width = int(rng.integers(1, min(n, 3) + 1))
            count = int(rng.integers(0, n - width + 1)) if i % 2 else 0  # half uncontrolled
            controls = [(int(w), int(rng.integers(0, d))) for w in wires[width:width + count]]
            targets = wires[:width].tolist()
            op = haar_unitary(d**width, rng)
            state = random_state(d, n, rng)
            got = apply_controlled(state, controls, op, targets).amps
            expected = _unpadded_apply(state, controls, op, targets)
            assert got.tobytes() == expected.tobytes(), (n, controls, targets)


@pytest.mark.parametrize("d, n, held", [(2, 10, [6, 7, 8, 9]), (2, 9, [0, 4]),
                                        (3, 6, [4, 5]), (3, 6, [1, 3])])
def test_run_on_held_wires_equals_the_whole_register(d, n, held, rng):
    # random gates on random wires, some controlled on wires that are still idle
    ops = []
    for _ in range(40):
        wires = rng.permutation(n)
        width, count = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        controls = [(int(w), int(rng.integers(0, d))) for w in wires[width:width + count]]
        ops.append((haar_unitary(d**width, rng), controls, wires[:width].tolist()))
    part = random_state(d, len(held), rng)
    whole = np.zeros([d] * n, dtype=np.complex128)
    whole[tuple(slice(None) if w in held else 0 for w in range(n))] = part.tensor()
    got = _run(part.tensor().copy(), held, n, ops)
    assert got.shape == (d,) * n
    assert got.tobytes() == _run(whole, range(n), n, ops).tobytes()


def _random_plan(d, n, idle, rng):
    """4-15 ops on n qudits: one-target 0/1 permutations (X; at d = 3 the shifts and
    the transpositions), Haar products on 1-2 targets, each with 0-2 controls on any
    wire; fan-outs onto a wire of ``idle`` with 1-3 controls; copies, fan-outs onto a
    wire of ``idle`` with one control, often an earlier copy (a chain), each followed
    half the time by a product on the copy or controlled by it; and folds, a
    permutation on a copy's control controlled by the copy's fired digit, which at
    d = 2 returns that control to one digit."""
    eye = np.eye(d, dtype=complex)
    perms = [eye[list(p)] for p in ([(1, 0)] if d == 2 else
                                    [(1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)])]
    ops, copies = [], []  # copies: (copy, its control, the digit the copy takes where it fired)
    for _ in range(int(rng.integers(4, 16))):
        wires, kind = rng.permutation(n).tolist(), int(rng.integers(6))
        perm = perms[int(rng.integers(len(perms)))]
        if kind == 3 and idle:
            target = idle[int(rng.integers(len(idle)))]
            wires.remove(target)
            count = int(rng.integers(1, min(3, n - 1) + 1))
            controls = [(w, int(rng.integers(d))) for w in wires[:count]]
            ops.append((perm, controls, [target]))
            continue
        if kind == 4 and idle:
            target = idle[int(rng.integers(len(idle)))]
            chained = [c for c, _, _ in copies if c != target]
            control = (chained[int(rng.integers(len(chained)))] if chained and rng.integers(2)
                       else [w for w in wires if w != target][0])
            ops.append((perm, [(control, int(rng.integers(d)))], [target]))
            copies.append((target, control, int(np.argmax(perm[:, 0]))))
            if rng.integers(2):  # a product on one of the pair, maybe controlled by the other
                pair = [target, control][::1 - 2 * int(rng.integers(2))]
                controls = [(pair[1], int(rng.integers(d)))][:int(rng.integers(2))]
                ops.append((haar_unitary(d, rng), controls, pair[:1]))
            continue
        if kind == 5 and copies:
            copy, control, fired = copies[int(rng.integers(len(copies)))]
            ops.append((perm, [(copy, fired)], [control]))
            continue
        width = 1 if kind < 2 else int(rng.integers(1, 3))
        count = int(rng.integers(0, min(2, n - width) + 1)) if rng.integers(2) else 0
        controls = [(w, int(rng.integers(d))) for w in wires[width:width + count]]
        op = perm if kind < 2 else haar_unitary(d**width, rng)
        ops.append((op, controls, wires[:width]))
    return ops


@pytest.mark.parametrize("d", [2, 3])
def test_relabelled_runs_equal_the_gates_one_by_one(d, rng):
    # uncontrolled permutations only relabel digits, controls read wires through
    # their tables (idle ones too), fan-outs onto idle wires copy their control's
    # axis, folds return a wire to idle, and products split the copies they touch
    for _ in range(300):
        n = int(rng.integers(2, 7))
        held = sorted(rng.choice(n, int(rng.integers(1, n)), replace=False).tolist())
        ops = _random_plan(d, n, [w for w in range(n) if w not in held], rng)
        part = random_state(d, len(held), rng)
        whole = np.zeros([d] * n, dtype=np.complex128)
        whole[tuple(slice(None) if w in held else 0 for w in range(n))] = part.tensor()
        state = StateVector(d=d, n=n, amps=whole.reshape(-1).copy())
        for op, controls, targets in ops:
            state = apply_controlled(state, controls, op, targets)
        got = _run(whole, range(n), n, ops)
        assert got.tobytes() == state.amps.tobytes(), (n, held, ops)
        # equal values, not bytes: a product on the whole register can leave -0.0 at
        # the digits of a wire the held run keeps idle, where that run places +0.0 when
        # the wire joins; at d = 3 a block's last width % 4 columns may also round
        # otherwise in the whole register (see MIN_BLOCK_COLUMNS), in their last bits
        on_held = _run(part.tensor().copy(), held, n, ops)
        if d == 2:
            assert np.array_equal(on_held, got), (n, held, ops)
        else:
            np.testing.assert_allclose(on_held, got, rtol=0, atol=1e-15)


def test_identity_moves_nothing_and_other_monomials_are_multiplied(monkeypatch, rng):
    from dfscodec import statevec

    calls = []
    apply = statevec._apply
    monkeypatch.setattr(statevec, "_apply", lambda *args: calls.append(args) or apply(*args))
    tensor = random_state(2, 3, rng).tensor().copy()
    tensor.setflags(write=False)  # any write raises
    assert _run(tensor, range(3), 3, [(np.eye(2), [(0, 1)], [1]), (np.eye(2), [], [2])]) is tensor
    assert not calls
    state = random_state(2, 3, rng)
    for op in (np.array([[0, -1], [1, 0]]), np.diag([1, 1j])):
        expected = dense_apply(state, embed_local(op, 1, 2, 3))
        assert np.allclose(apply_controlled(state, (), op, [1]).amps, expected, atol=1e-12)
    assert len(calls) == 2


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


def test_measurement_samples_as_the_cumulative_search():
    # probabilities (0.36, 0, 0.64) and a remainder of 0
    amps = np.array([0.6, 0, 0, 0, 0.8, 0, 0, 0], dtype=complex)
    state = StateVector.from_amplitudes(2, 3, amps)
    for seed in range(200):
        record = project_measure(state, [0, 1], np.eye(4)[:3], seed)
        rng = np.random.default_rng(seed)
        cumulative = np.cumsum(record.probabilities)
        expected = int(np.searchsorted(cumulative, float(rng.random()), side="right"))
        assert record.outcome == min(expected, len(record.probabilities) - 1)
        assert record.outcome in (0, 2)


def test_outcome_probabilities_refuse_a_sum_above_one():
    # the projector's norm is within tolerance, but it carries the whole state:
    # the offered probability is (1 + 0.9e-9)^2, above 1 + UNITARY_TOL
    state = basis_state(2, 1, 0)
    with pytest.raises(NonOrthogonalProjectors, match="sum to"):
        outcome_probabilities(state, [0], [[1 + 0.9e-9, 0]])


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


def test_resource_guard():
    with pytest.raises(ResourceLimit):
        StateVector.from_amplitudes(2, 25, np.zeros(2**25))


def test_norm_validation():
    with pytest.raises(DimensionMismatch):
        StateVector.from_amplitudes(2, 1, [1.0, 1.0])


def test_adopt_refuses_non_finite_and_off_norm_amplitudes():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf], [1e200, 1e200]):
        with pytest.raises(DimensionMismatch, match="state amplitudes are not finite"):
            StateVector._adopt(2, 1, np.array(bad, dtype=complex))
    with pytest.raises(DimensionMismatch, match="state norm .* deviates from 1"):
        StateVector._adopt(2, 1, np.array([1.0, 1.0], dtype=complex))
    arr = np.array([0.6, 0.8j])
    assert StateVector._adopt(2, 1, arr).amps is arr


def test_norm_validation_refuses_non_finite_amplitudes():
    for amps in ([np.nan, 0.0], [np.inf, 0.0], [1.0, -np.inf], [np.nan, np.inf]):
        for normalize in (False, True):
            with pytest.raises(DimensionMismatch, match="state amplitudes are not finite"):
                StateVector.from_amplitudes(2, 1, amps, normalize=normalize)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_operators_are_refused(bad, rng):
    state = random_state(2, 3, rng)
    u = np.eye(2, dtype=complex)
    u[1, 1] = bad
    wide = np.eye(4, dtype=complex)
    wide[0, 3] = bad
    with pytest.raises(DimensionMismatch, match="not unitary"):
        apply_collective(state, u)
    with pytest.raises(DimensionMismatch, match="not unitary"):
        apply_local(state, u, 1)
    with pytest.raises(DimensionMismatch, match="not unitary"):
        apply_controlled(state, [(0, 1)], u, [2])
    with pytest.raises(DimensionMismatch, match="not unitary"):
        apply_controlled(state, [], wide, [0, 2])


def test_unitarity_residues_of_isometry_stacks(rng):
    # (k, n, c) stacks: the residue of c orthonormal columns, and one per matrix
    from dfscodec.statevec import _unitarity_residues

    q = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))[0]
    huge, nan = q.copy(), q.copy()
    huge[0, 0], nan[2, 1] = 1e200, np.nan
    residues = _unitarity_residues(np.array([q, 2 * q, huge, nan]))
    assert residues[0] <= 1e-12
    assert residues[1] == pytest.approx(3.0)
    assert residues[2] == np.inf and np.isnan(residues[3])
    square = np.array([haar_unitary(4, rng), np.eye(4)])
    assert np.all(_unitarity_residues(square) <= 1e-12)


def test_a_stack_of_one_block_keeps_the_residue_of_the_whole_product(rng):
    # up to 64 columns the residue is the one product of the whole stack
    from dfscodec.statevec import _unitarity_residues

    for n, c in [(2, 2), (8, 3), (64, 64)]:
        stack = rng.normal(size=(3, n, c)) + 1j * rng.normal(size=(3, n, c))
        whole = (stack.conj().transpose(0, 2, 1) @ stack).reshape(3, -1)
        whole[:, :: c + 1] -= 1
        assert _unitarity_residues(stack).tobytes() == np.abs(whole).max(axis=1).tobytes()


def test_unitarity_residues_carry_nan_and_inf_across_blocks(rng):
    # 256 columns are four blocks of 64: a NaN entry, and the overflow of a 1e200
    # entry in the first block, survive the max over the blocks
    from dfscodec.statevec import _unitarity_residues

    u = haar_unitary(256, rng)
    nan, huge = u.copy(), u.copy()
    nan[3, 200], huge[100, 5] = np.nan, 1e200
    residues = _unitarity_residues(np.array([u, nan, huge]))
    assert residues[0] <= 1e-12
    assert np.isnan(residues[1]) and residues[2] == np.inf


def test_unitarity_check_peaks_at_a_fraction_of_the_matrix(rng):
    # a block of 128 conjugated columns, its 128 rows of U^H U and their moduli: 0.38x
    # the bytes of a 1024 x 1024 unitary, where the whole conjugate and product took 2.0x
    from dfscodec.statevec import _unitarity_residues

    u = haar_unitary(1024, rng)[None]
    tracemalloc.start()
    try:
        residue = _unitarity_residues(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residue[0] <= 1e-12
    assert peak < 0.5 * u.nbytes


def test_a_frozen_matrix_that_owns_its_data_is_checked_once_while_it_lives(monkeypatch, rng):
    import gc

    from dfscodec import statevec

    state = random_state(2, 3, rng)
    checked = []
    real = statevec._unitarity_residues
    monkeypatch.setattr(statevec, "_unitarity_residues",
                        lambda stack: checked.append(stack.shape) or real(stack))
    u = haar_unitary(4, rng)
    u.setflags(write=False)
    for _ in range(3):
        apply_controlled(state, [], u, [0, 2])
    assert checked == [(1, 4, 4)]
    # the same matrix on another width is another check, and a writable one is
    # checked on every run
    apply_controlled(state, [], haar_unitary(2, rng), [1])
    assert len(checked) == 2
    loose = haar_unitary(4, rng)
    for _ in range(2):
        apply_controlled(state, [], loose, [0, 1])
    assert len(checked) == 4
    # made writable again, it is checked again; its entry dies with it
    u.setflags(write=True)
    apply_controlled(state, [], u, [0, 2])
    assert len(checked) == 5
    key = (id(u), 4)
    u.setflags(write=False)
    apply_controlled(state, [], u, [0, 2])
    assert key in statevec._CERTIFIED
    del u
    gc.collect()
    assert key not in statevec._CERTIFIED


def test_a_frozen_matrix_is_trusted_only_once_certified_and_only_if_it_owns_its_data(rng):
    from dfscodec import statevec

    state = random_state(2, 3, rng)
    bad = np.diag([1.0, 2.0]).astype(complex)
    bad.setflags(write=False)
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="not unitary"):
            apply_controlled(state, [], bad, [0])
    assert (id(bad), 2) not in statevec._CERTIFIED
    # a read-only view of a writable array can change under it: checked every run
    base = np.eye(4, dtype=complex)
    view = base[:]
    view.setflags(write=False)
    apply_controlled(state, [], view, [0, 1])
    base[0, 0] = 2
    with pytest.raises(DimensionMismatch, match="not unitary"):
        apply_controlled(state, [], view, [0, 1])


def test_a_frozen_stack_is_certified_once_and_trusted_through_its_views(fresh_memos,
                                                                        monkeypatch, rng):
    import gc

    from dfscodec import statevec

    state = random_state(2, 3, rng)
    checked = []
    real = statevec._unitarity_residues
    monkeypatch.setattr(statevec, "_unitarity_residues",
                        lambda stack: checked.append(stack.shape) or real(stack))
    stack = np.array([haar_unitary(2, rng), X, np.diag([1.0, 2.0]), haar_unitary(2, rng)])
    stack.setflags(write=False)
    key = (id(stack), 2)
    # each read-only view is a fresh object; the stack they come from is checked
    # once, by one batched residue, and keeps each matrix's digit source
    for _ in range(2):
        for i in (0, 1, 3):
            apply_controlled(state, [(2, 1)], stack[i], [0])
            apply_collective(state, stack[i])
    assert checked == [(4, 2, 2)]
    assert _checked_ops(2, 3, [(stack[1], (), (0,))])[0][3] == [1, 0]
    assert statevec._CERTIFIED[key][3] == [None, [1, 0], None, None]
    # its one failing matrix is refused on every call, by the check of that matrix
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="not unitary"):
            apply_controlled(state, [], stack[2], [1])
        with pytest.raises(DimensionMismatch, match="not unitary"):
            apply_collective(state, stack[2])
    assert checked.count((4, 2, 2)) == 1 and set(checked[1:]) == {(1, 2, 2)}
    # only a whole matrix of the stack is trusted, never another view of its data
    part = stack.reshape(8, 2)[1:3]
    assert part.strides == stack.strides[1:]
    assert statevec._certificate(part, 2) is None
    assert statevec._certificate(stack[3], 2)[1] == 3
    # made writable and changed, the stack loses its entry and the next run raises
    stack.setflags(write=True)
    stack[0] *= 2
    assert statevec._certificate(stack[0], 2) is None and key not in statevec._CERTIFIED
    view = stack[0]
    view.setflags(write=False)
    with pytest.raises(DimensionMismatch, match="not unitary"):
        apply_controlled(state, [], view, [0])
    with pytest.raises(DimensionMismatch, match="not unitary"):
        apply_collective(state, view)
    # frozen again it is certified again, and its entry dies with it
    stack.setflags(write=False)
    apply_controlled(state, [], stack[1], [0])
    assert key in statevec._CERTIFIED
    del stack, view, part
    gc.collect()
    assert key not in statevec._CERTIFIED


def test_each_layout_is_checked_once_and_a_refused_one_on_every_call(fresh_memos,
                                                                    monkeypatch, rng):
    from dfscodec import statevec

    calls = []
    real = statevec._check_operands
    monkeypatch.setattr(statevec, "_check_operands",
                        lambda *args: calls.append(args[2:]) or real(*args))
    state = random_state(2, 3, rng)
    u = haar_unitary(2, rng)
    for _ in range(2):
        with pytest.raises(BadTarget, match="control and target sets overlap"):
            apply_controlled(state, [(0, 1)], u, [0])
        with pytest.raises(BadTarget, match="qudit 3 out of range for 3 qudits"):
            apply_controlled(state, [], u, [3])
    assert len(calls) == 4 and statevec._layout.cache_info().currsize == 0
    # lists are made tuples, so a list and a tuple of one layout share its check
    first = apply_controlled(state, [[1, 0]], u, [2])
    again = apply_controlled(state, ((1, 0),), u, (2,))
    assert first.amps.tobytes() == again.amps.tobytes()
    assert calls[4:] == [(((1, 0),), (2,))]
    assert _checked_ops(2, 3, [(u, [[1, 0]], [2])])[0][1:3] == (((1, 0),), (2,))
    assert len(calls) == 5


def copying_apply(tensor, op, targets, controls, columns):
    """The block kernel as it was before it gathered and wrote each block once,
    kept as the reference: the gathered block, a padded copy of it, and the
    product scattered back through an assignment to the matched slice."""
    n, d = tensor.ndim, tensor.shape[0]
    index: list = [slice(None)] * n
    for w, v in controls:
        index[w] = v
    sub = tensor[tuple(index)]
    axes = [t - sum(w < t for w, _ in controls) for t in targets]
    block = _to_front(sub, axes, d)
    width, pad = block.shape[1], min(MIN_BLOCK_COLUMNS, columns) - block.shape[1]
    if pad > 0:
        block = np.concatenate((block, np.zeros((len(block), pad), dtype=block.dtype)), axis=1)
    tensor[tuple(index)] = _from_front((op @ block)[:, :width], axes, sub.ndim, d)


@pytest.mark.parametrize("d", [2, 3])
def test_block_kernel_keeps_the_bits_of_the_copying_kernel(d, rng):
    # controlled, multi-target and padded products on random tensors: columns
    # above the block's width are the idle wires of a larger register
    for _ in range(300):
        n = int(rng.integers(1, 8 if d == 2 else 6))
        wires = [int(w) for w in rng.permutation(n)]
        k = int(rng.integers(1, min(n, 3) + 1))
        c = int(rng.integers(0, n - k + 1))
        targets = wires[:k]
        controls = [(w, int(rng.integers(d))) for w in sorted(wires[k : k + c])]
        width = d ** (n - k - c)
        columns = width * d ** int(rng.integers(0, 7))
        op = haar_unitary(d**k, rng)
        tensor = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
        expected = tensor.copy()
        copying_apply(expected, op, targets, controls, columns)
        _apply(tensor, op, targets, controls, columns)
        assert tensor.tobytes() == expected.tobytes()


def test_normalizing_refuses_an_overflowing_norm_without_a_warning(rng):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="state amplitudes are not finite"):
            StateVector.from_amplitudes(2, 1, [1e200, 1e200], normalize=True)
    # the division keeps its bits
    for size in (2, 8, 2**10):
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        state = StateVector.from_amplitudes(2, size.bit_length() - 1, amps, normalize=True)
        assert state.amps.tobytes() == (amps / np.linalg.norm(amps)).tobytes()


def test_non_finite_projector_is_refused(rng):
    state = random_state(2, 2, rng)
    with pytest.raises(NonOrthogonalProjectors, match="norm nan"):
        project_measure(state, [0], [[np.nan, 0.0]], seed=1)


@given(
    d=st.sampled_from([2, 3]),
    ndim=st.integers(1, 8),
    sliced=st.booleans(),
    data=st.data(),
)
def test_gather_is_moveaxis_and_scatter_inverts_it(d, ndim, sliced, data):
    # the block the kernel multiplies is the view np.moveaxis gives, strides and
    # all, so the GEMM reads its operand the same way and keeps its bits
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (d,) * (ndim + sliced)
    whole = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # a controlled op gathers from the slice where its control matches
    tensor = whole[:, 1] if sliced else whole
    axes = data.draw(st.permutations(range(ndim)))[: data.draw(st.integers(1, ndim))]
    block = _to_front(tensor, axes, d)
    expected = np.moveaxis(tensor, axes, range(len(axes))).reshape(d ** len(axes), -1)
    assert block.tobytes() == expected.tobytes()
    assert block.strides == expected.strides
    back = _from_front(block, axes, ndim, d)
    assert back.tobytes() == tensor.tobytes()
    reference = np.moveaxis(block.reshape([d] * ndim), range(len(axes)), axes)
    assert back.strides == reference.strides


def _reference_checked_ops(d, n, ops):
    """The op check as one loop: each op's wires, then its matrix once per target width."""
    checked = {}
    for matrix, controls, targets in ops:
        controls, targets = _check_operands(d, n, controls, targets)
        op = np.asarray(matrix, dtype=np.complex128)
        dim = d ** len(targets)
        if (id(matrix), len(targets)) not in checked:
            if op.shape != (dim, dim):
                raise DimensionMismatch(f"operator must be {dim}x{dim}, got {op.shape}")
            with np.errstate(invalid="ignore"):
                residue = np.max(np.abs(op.conj().T @ op - np.eye(dim)))
            if not residue <= UNITARY_TOL:
                raise DimensionMismatch("operator is not unitary within tolerance")
            checked[(id(matrix), len(targets))] = matrix


def _raised(check, *args):
    try:
        check(*args)
    except DfsCodecError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("d", [2, 3])
def test_batched_unitarity_check_raises_the_first_invalid_op(d, rng):
    n = 4
    good = [haar_unitary(d, rng) for _ in range(3)]
    wide = haar_unitary(d**2, rng)
    # faults planted among valid ops: (matrix, controls, targets)
    faults = [
        lambda: (1.5 * haar_unitary(d, rng), [], [0]),
        lambda: (np.full((d, d), np.nan), [], [0]),
        lambda: (np.eye(d + 1), [], [0]),
        lambda: (2 * haar_unitary(d**2, rng), [], [1, 2]),
        lambda: (wide, [], [0]),  # a matrix already used on two wires, on one
        lambda: (good[0], [], [n]),
        lambda: (good[1], [(2, d)], [0]),
    ]
    for _ in range(80):
        ops = []
        for _ in range(int(rng.integers(1, 8))):
            if rng.random() < 0.2:
                ops.append((wide, [], [0, 3]))
            else:
                ops.append((good[int(rng.integers(3))], [(1, 0)], [int(rng.integers(2, 4))]))
        for _ in range(int(rng.integers(0, 3))):
            ops.insert(int(rng.integers(len(ops) + 1)), faults[int(rng.integers(len(faults)))]())
        expected = _raised(_reference_checked_ops, d, n, ops)
        assert _raised(_checked_ops, d, n, ops) == expected
        if expected is None:
            assert all(op is m for (op, *_), (m, _, _) in zip(_checked_ops(d, n, ops), ops))
