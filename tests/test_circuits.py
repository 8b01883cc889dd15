import dataclasses
import re
import tracemalloc
from functools import reduce
from itertools import chain

import numpy as np
import pytest

from dfscodec.circuits import (
    _check_network,
    apply_t_direct,
    build_encoding_pipeline,
    gate_count_report,
    inverse_plan,
    logical_depth,
    network_basis_indices,
    network_token_set,
    prep_gates,
    register_network_gates,
    run_plan,
    synth_t_cyclic,
    synth_w,
    token_group_slices,
)
from dfscodec.codec import decode, encode, prepare_protocol
from dfscodec.errors import (
    DfsCodecError,
    DimensionMismatch,
    NonOrthogonalProjectors,
    NotAbelian,
    ResourceLimit,
    UnsupportedDimension,
)
from dfscodec.groups import builtin_group, generator_decomposition
from dfscodec.limits import UNITARY_TOL
from dfscodec.reps import builtin_rep, pauli_rep, zn_phase_rep
from dfscodec.statevec import (
    StateVector,
    _checked_ops,
    apply_controlled,
    basis_state,
    fidelity,
    haar_unitary,
    product_state,
    project_measure,
    random_state,
)

from conftest import complete_unitary, dense_encoder_run


def w_operator(group, rep, m):
    """Dense oracle for the controlled-rotation stage, built independently."""
    r_prime = max(1, int(np.ceil(np.log2(group.order))))
    dim_c = 2**r_prime
    out = np.zeros((dim_c * 2**m, dim_c * 2**m), dtype=complex)
    for label in range(dim_c):
        proj = np.zeros((dim_c, dim_c))
        proj[label, label] = 1.0
        if label < group.order:
            block = reduce(np.kron, [rep.matrices[label]] * m)
        else:
            block = np.eye(2**m)
        out += np.kron(proj, block)
    return out


def plan_unitary(plan, n_wires):
    dim = 2**n_wires
    columns = []
    for index in range(dim):
        state = basis_state(2, n_wires, index)
        columns.append(run_plan(plan, state).amps)
    return np.column_stack(columns)


# --- counts against the closed forms -------------------------------------------


def test_k4_general_counts():
    group = builtin_group("k4")
    rep = pauli_rep(group)
    for m, expected in ((3, 20), (1, 12)):
        plan = synth_w("general", group, rep, m)
        assert plan.total_count == expected
        assert plan.metadata["count_formula"] == expected
        assert plan.total_count == sum(g.cost for g in plan.gates)


def test_z8_general_count_and_depth():
    group = builtin_group("z8")
    rep = zn_phase_rep(group, 2)
    plan = synth_w("general", group, rep, 2)
    assert plan.metadata["count_formula"] == 8 * (41 * 3 - 80 + 2) == 360
    assert plan.total_count == 360
    assert logical_depth(plan) == 8 * (41 * 3 - 80 + 1) == 352


def test_k4_depth_independent_of_m():
    group = builtin_group("k4")
    rep = pauli_rep(group)
    depths = {logical_depth(synth_w("general", group, rep, m)) for m in (1, 2, 5, 64)}
    assert depths == {12}


def test_cyclic_counts():
    group = builtin_group("z8")
    rep = zn_phase_rep(group, 2)
    plan = synth_w("cyclic", group, rep, 4)
    assert plan.total_count == 12  # m log2 N
    assert all(g.kind == "controlled" for g in plan.gates)
    z2 = builtin_group("z2")
    assert synth_w("cyclic", z2, zn_phase_rep(z2, 2), 1).total_count == 1


def test_t_cyclic_cnot_counts():
    for n, expected in ((8, 10), (2, 2), (16, 19)):
        plan = synth_t_cyclic(n)
        cnots = [g for g in plan.gates if g.kind == "cnot"]
        assert len(cnots) == expected
        assert plan.metadata["cnot_formula"] == expected
        assert plan.metadata["qft_gate_count"] == sum(
            1 for g in plan.gates if g.stage == "t_qft"
        )


def test_gate_count_report_pinned_values():
    k4 = builtin_group("k4")
    report = gate_count_report(k4, pauli_rep(k4), 3, r=2)
    assert report["paths"]["general"]["emitted_count"] == 20
    z8 = builtin_group("z8")
    report = gate_count_report(z8, zn_phase_rep(z8, 2), 4, r=7)
    assert report["paths"]["cyclic"]["controlled_count"] == 12
    assert report["paths"]["cyclic"]["t_cnot_count"] == 10
    z16 = builtin_group("z16")
    report = gate_count_report(z16, zn_phase_rep(z16, 2), 1, r=15)
    assert report["paths"]["cyclic"]["controlled_count"] == 4
    assert report["paths"]["cyclic"]["t_cnot_count"] == 19
    assert report["rate"] == [1, 16]


def test_abelian_counts_within_bound():
    k4 = builtin_group("k4")
    plan = synth_w("abelian", k4, pauli_rep(k4), 2)
    assert plan.total_count <= plan.metadata["count_bound"]
    z4xz2 = builtin_group("z4xz2")
    plan = synth_w("abelian", z4xz2, zn_phase_rep_product(z4xz2), 2)
    assert plan.total_count <= plan.metadata["count_bound"]


def zn_phase_rep_product(group):
    """Faithful diagonal rep of z4xz2 on qubits: phases i^a * (-1)^b."""
    mats = []
    for g in range(group.order):
        a, b = divmod(g, 2)
        mats.append(np.diag([1.0, (1j**a) * ((-1.0) ** b)]))
    from dfscodec.reps import UnitaryRep

    return UnitaryRep.build(group, np.array(mats))


def test_z2_abelian_single_controlled_gate():
    z2 = builtin_group("z2")
    plan = synth_w("abelian", z2, zn_phase_rep(z2, 2), 1)
    assert plan.total_count == 1
    assert plan.gates[0].kind == "controlled"


# --- counts and depth read from W's blocks ----------------------------------------


def count_rep(spec):
    group = builtin_group(spec)
    if spec == "z4xz2":
        return group, zn_phase_rep_product(group)
    return group, builtin_rep(group, "builtin", 2)


COUNT_CASES = [("general", spec) for spec in ("z2", "k4", "s3", "z8", "z12", "z16")] + [
    ("abelian", spec) for spec in ("z2", "k4", "z8", "z4xz2", "z16")] + [
    ("cyclic", spec) for spec in ("z2", "z4", "z8", "z16")]


@pytest.mark.parametrize("path,spec", COUNT_CASES)
def test_block_counts_and_depth_are_the_expanded_gate_walk(path, spec, monkeypatch):
    from dfscodec import limits
    from dfscodec.circuits import CircuitPlan

    group, rep = count_rep(spec)
    for m in range(1, 9):
        plan = synth_w(path, group, rep, m)
        walked = CircuitPlan(list(plan.gates), plan.layout)  # the same gates, no blocks
        assert plan.blocks is not None and walked.blocks is None
        assert plan.total_count == walked.total_count == sum(g.cost for g in plan.gates)
        assert logical_depth(plan) == logical_depth(walked)
        # the budget check takes the expansion's exact length
        size = len(plan.gates)
        monkeypatch.setattr(limits, "MAX_AMPLITUDES", size)
        assert len(synth_w(path, group, rep, m).gates) == size
        monkeypatch.setattr(limits, "MAX_AMPLITUDES", size - 1)
        with pytest.raises(ResourceLimit, match=f"the gate list of W: {size} entries"):
            synth_w(path, group, rep, m).gates
        monkeypatch.undo()


@pytest.mark.parametrize("m", [1, 8, 1000, 10**6])
def test_block_counts_meet_the_closed_forms_at_any_m(m, monkeypatch):
    from dfscodec import circuits

    monkeypatch.setattr(circuits, "Gate", lambda *a, **k: pytest.fail("a W gate was made"))
    for spec in ("k4", "z8", "z16"):
        group, rep = count_rep(spec)
        paths = gate_count_report(group, rep, m, r=1, paths=("general", "abelian"))["paths"]
        general = paths["general"]
        assert general["emitted_count"] == general["count_formula"]
        assert general["logical_depth"] == general["depth_formula"]
        # each generator's identity power needs no block, so the bound is one block over
        _, orders = generator_decomposition(group)
        blocks = [40 * max(int(np.log2(n)) - 2, 0) + m for n in orders]
        assert paths["abelian"]["count_bound"] == sum(n * b for n, b in zip(orders, blocks))
        assert paths["abelian"]["emitted_count"] == sum((n - 1) * b for n, b in zip(orders, blocks))
        if spec != "k4":
            plan = synth_w("cyclic", group, rep, m)
            assert plan.total_count == m * plan.metadata["r_prime"]
        # the logical depth does not grow with m
        for path in paths:
            assert (logical_depth(synth_w(path, group, rep, m))
                    == logical_depth(synth_w(path, group, rep, 1)))


@pytest.mark.parametrize("spec,rep_spec,m,path,network", [
    ("z8", "builtin", 7, "cyclic", True), ("z8", "builtin", 3, "general", False),
    ("k4", "builtin", 6, "abelian", False), ("s3", "builtin-2d", 3, "general", False),
])
def test_an_encoder_is_built_and_run_without_a_w_gate(spec, rep_spec, m, path, network,
                                                        monkeypatch, rng):
    from dfscodec import circuits

    rep = builtin_rep(builtin_group(spec), rep_spec, 2)
    tokens = network_token_set(rep) if network else prepare_protocol(rep).tokens
    real, stages = circuits.Gate, []

    def recorded(*args, **kwargs):
        gate = real(*args, **kwargs)
        stages.append(gate.stage)
        return gate

    monkeypatch.setattr(circuits, "Gate", recorded)
    pipeline = build_encoding_pipeline(tokens, m, path, cyclic_network=network)
    message = random_state(2, m, rng)
    state = pipeline.run(message)
    assert "w" not in stages
    assert fidelity(state, encode(tokens, message)) > 1 - 1e-12
    # reading the gate list expands the blocks, through the recorded constructor
    assert pipeline.w_plan.gates and "w" in stages


# --- operator-level equivalences -------------------------------------------------


def test_general_w_matches_dense_oracle():
    group = builtin_group("k4")
    rep = pauli_rep(group)
    plan = synth_w("general", group, rep, 1)
    got = plan_unitary(plan, 3)
    np.testing.assert_allclose(got, w_operator(group, rep, 1), atol=1e-10)


def test_cyclic_w_equals_general_w(rng):
    group = builtin_group("z8")
    rep = zn_phase_rep(group, 2)
    general = synth_w("general", group, rep, 2)
    cyclic = synth_w("cyclic", group, rep, 2)
    for _ in range(10):
        state = random_state(2, 5, rng)
        a = run_plan(general, state)
        b = run_plan(cyclic, state)
        assert fidelity(a, b) >= 1 - 1e-12


def test_cyclic_exponent_identity():
    group = builtin_group("z8")
    rep = zn_phase_rep(group, 2)
    u = rep.matrices[1]
    for j in range(8):
        powers = np.eye(2, dtype=complex)
        for i in range(1, 4):
            if (j >> (i - 1)) & 1:
                powers = powers @ np.linalg.matrix_power(u, 2 ** (i - 1))
        np.testing.assert_allclose(powers, rep.matrices[j], atol=1e-12)


def test_abelian_word_control_matches_word_operator(rng):
    # oracle: explicit sum over words with generator powers
    group = builtin_group("k4")
    rep = pauli_rep(group)
    plan = synth_w("abelian", group, rep, 1)
    (g1, g2), orders = generator_decomposition(group)
    assert orders == [2, 2]
    got = plan_unitary(plan, 3)
    expected = np.zeros((8, 8), dtype=complex)
    for l1 in range(2):
        for l2 in range(2):
            word = (l1 << 1) | l2
            proj = np.zeros((4, 4))
            proj[word, word] = 1.0
            element = group.mul(
                reduce(group.mul, [g1] * l1, 0), reduce(group.mul, [g2] * l2, 0)
            )
            expected += np.kron(proj, rep.matrices[element])
    np.testing.assert_allclose(got, expected, atol=1e-10)


# --- the register network --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_register_network_fanout_and_fold_all_patterns(n):
    r_prime = max(1, int(np.ceil(np.log2(n))))
    r = n - 1
    control = tuple(range(r_prime))
    token = tuple(range(r_prime, r_prime + r))
    gates = register_network_gates(control[::-1], token)  # big-endian register
    fanout = [g for g in gates if g.stage == "t_fanout"]
    fold = [g for g in gates if g.stage == "t_fold"]
    assert len(fanout) == r and len(fold) == r_prime
    spans = token_group_slices(r_prime)
    for value in range(n):
        state = product_state(
            basis_state(2, r_prime, value), basis_state(2, r, 0)
        )
        mid = state
        for g in fanout:
            from dfscodec.circuits import apply_gate

            mid = apply_gate(mid, g)
        # after fan-out: control keeps its value, group m holds bit m everywhere
        digits = np.unravel_index(int(np.argmax(np.abs(mid.amps))), (2,) * (r_prime + r))
        assert int("".join(map(str, digits[:r_prime])), 2) == value
        for m in range(1, r_prime + 1):
            bit = (value >> (m - 1)) & 1
            lo, hi = spans[m - 1]
            assert all(digits[r_prime + w] == bit for w in range(lo, hi))
        out = mid
        for g in fold:
            from dfscodec.circuits import apply_gate

            out = apply_gate(out, g)
        index = int(np.argmax(np.abs(out.amps)))
        assert index == network_basis_indices(n)[value]  # control wires cleared


def test_register_network_z4_worked_example():
    # value 2, two-bit register: fan-out sets the two-wire group, fold clears
    gates = register_network_gates((1, 0), (2, 3, 4))  # bit 1 on wire 1, bit 2 on wire 0
    from dfscodec.circuits import apply_gate

    state = product_state(basis_state(2, 2, 2), basis_state(2, 3, 0))  # |10>|000>
    for g in [g for g in gates if g.stage == "t_fanout"]:
        state = apply_gate(state, g)
    np.testing.assert_allclose(
        state.amps, product_state(basis_state(2, 2, 2), basis_state(2, 3, 6)).amps
    )  # |10> (x) |110>
    for g in [g for g in gates if g.stage == "t_fold"]:
        state = apply_gate(state, g)
    np.testing.assert_allclose(
        state.amps, product_state(basis_state(2, 2, 0), basis_state(2, 3, 6)).amps
    )  # |00> (x) |110>


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_weight_code_gives_label_k_a_distinct_pattern_of_weight_k(n):
    indices = network_basis_indices(n)
    assert indices.dtype == np.int64
    assert len(set(indices.tolist())) == n
    # the Fourier stage gives label k the phases of a weight-k pattern
    assert [bin(int(i)).count("1") for i in indices] == list(range(n))
    # z64's all-ones pattern sits on the int64 edge without wrapping
    assert int(indices.max()) == 2 ** (n - 1) - 1
    if n <= 16:
        support = np.flatnonzero(_check_network(zn_phase_rep(builtin_group(f"z{n}"), 2)))
        np.testing.assert_array_equal(support, np.sort(indices))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_full_t_stage_maps_labels_to_network_tokens(n):
    rep = zn_phase_rep(builtin_group(f"z{n}"), 2)
    tokens = network_token_set(rep)
    plan = synth_t_cyclic(n)
    r_prime = plan.metadata["r_prime"]
    for j in range(n):
        state = product_state(basis_state(2, r_prime, j), basis_state(2, n - 1, 0))
        out = run_plan(plan, state)
        block = out.amps.reshape(2**r_prime, -1)
        assert np.linalg.norm(block[1:]) < 1e-12  # control cleared
        got = StateVector.from_amplitudes(2, n - 1, block[0], normalize=True)
        assert fidelity(got, tokens.tokens[j]) >= 1 - 1e-12
        # phase-exact, not only up to phase
        assert abs(np.vdot(tokens.tokens[j].amps, block[0]) - 1.0) < 1e-9


# --- token basis change -----------------------------------------------------------


def test_apply_t_direct_k4_mapping(context_for):
    # the token columns themselves, read-only; k4 has |G| = d^r = 4, so T is square
    ctx = context_for("k4")
    change = apply_t_direct(ctx.tokens)
    assert np.array_equal(change, ctx.tokens.columns()) and not change.flags.writeable
    for label in range(4):
        np.testing.assert_allclose(change[:, label], ctx.tokens.tokens[label].amps, atol=1e-12)
    assert np.max(np.abs(change.conj().T @ change - np.eye(4))) < 1e-10
    assert change.shape == (4, 4)


def test_the_basis_change_past_the_square_budget_is_built_without_a_qr(context_for,
                                                                        monkeypatch, rng):
    # z14 has r = 13: T is its 2^13 x 14 token columns, where a square completion
    # would be 2^26 entries, over the dense budget; no QR runs, and it encodes
    ctx = context_for("z14")
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: pytest.fail("qr ran"))
    change = apply_t_direct(ctx.tokens)
    assert change.shape == (2**13, 14)
    pipeline = build_encoding_pipeline(ctx.tokens, 1, "general")
    message = random_state(2, 1, rng)
    assert fidelity(pipeline.run(message), encode(ctx.tokens, message)) > 1 - 1e-12


def test_apply_t_direct_holds_one_copy_of_the_matrix():
    # z10 has r = 9: T is the 2^9 x 10 token columns, filled column by column into
    # the one array it keeps (a gather and its transpose took two copies), never a
    # 2^9 x 2^9 matrix; a token set of its own, since a shared one may hold its
    # columns already
    tokens = prepare_protocol(zn_phase_rep(builtin_group("z10"), 2)).tokens
    tracemalloc.start()
    try:
        change = apply_t_direct(tokens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert change.shape == (512, 10)
    assert peak < 1.5 * change.nbytes


def test_one_token_set_builds_and_checks_its_basis_change_once(fresh_memos, monkeypatch, rng):
    # T depends on the token set alone: the z8 general encoders for m = 1-4, built
    # and run from one token set, gather the 2^7 x 8 T once, with no QR, and check it
    # once, by the token set's certificate: no residue is computed
    from dfscodec import statevec

    tokens = prepare_protocol(zn_phase_rep(builtin_group("z8"), 2)).tokens
    columns, gram = type(tokens).columns, type(tokens)._check_gram
    calls, checked = [], []
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: pytest.fail("qr ran"))
    monkeypatch.setattr(type(tokens), "columns",
                        lambda self, *a: calls.append(1) or columns(self, *a))
    monkeypatch.setattr(type(tokens), "_check_gram", lambda self: checked.append(1) or gram(self))
    monkeypatch.setattr(statevec, "_unitarity_residues", lambda stack: pytest.fail("residue ran"))
    for m in range(1, 5):
        pipeline = build_encoding_pipeline(tokens, m, "general")
        expected = encode(tokens, message := random_state(2, m, rng))
        assert fidelity(pipeline.run(message), expected) > 1 - 1e-12
    assert len(calls) == 1
    assert len(checked) == 1
    assert pipeline.t_plan.gates[0].matrix is apply_t_direct(tokens)


@pytest.mark.parametrize("spec,rep_spec,m,path,network", [
    ("z8", "builtin", 7, "cyclic", True), ("z8", "builtin", 3, "general", False),
    ("k4", "builtin", 6, "abelian", False), ("s3", "builtin-2d", 3, "general", False),
])
def test_a_second_encoder_from_one_token_set_checks_nothing_again(spec, rep_spec, m, path,
                                                                  network, fresh_memos,
                                                                  monkeypatch, rng):
    # the four encoders of the circuit benchmark: no build or run checks a wire or a
    # matrix, and the digit sources of the rep's matrices and the network's gates are
    # found on the first build alone, kept with the rep and the token set
    from dfscodec import circuits, statevec
    from dfscodec.reps import builtin_rep

    rep = builtin_rep(builtin_group(spec), rep_spec, 2)
    tokens = network_token_set(rep) if network else prepare_protocol(rep).tokens
    message = random_state(2, m, rng)
    calls: list = []
    for module, name in ((statevec, "_unitarity_residues"), (statevec, "_check_operands"),
                         (statevec, "_digit_source"), (circuits, "_digit_source")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    runs, states, compiled = [], [], []
    for _ in range(2):
        calls.clear()
        misses = statevec._compile.cache_info().misses
        states.append(build_encoding_pipeline(tokens, m, path, cyclic_network=network).run(message))
        runs.append(set(calls))
        compiled.append(statevec._compile.cache_info().misses - misses)
    assert runs == [{"_digit_source"}, set()]
    # the first build compiles its run's schedule; the second replays it
    assert compiled == [1, 0]
    assert states[0].amps.tobytes() == states[1].amps.tobytes()
    assert fidelity(states[1], encode(tokens, message)) > 1 - 1e-12
    # another m is another layout: compiled once, then replayed
    other = random_state(2, m - 1, rng)
    for expected in (1, 0):
        misses = statevec._compile.cache_info().misses
        build_encoding_pipeline(tokens, m - 1, path, cyclic_network=network).run(other)
        assert statevec._compile.cache_info().misses - misses == expected


def test_a_trusted_matrix_cannot_be_made_writable(context_for):
    # what encoders run unchecked is a read-only view of a frozen owner, which numpy
    # refuses to make writable: the rep's matrices, T, the prep column (z3), and H, the
    # Fourier phases and X (the z4 network)
    tokens = context_for("z3").tokens
    network = build_encoding_pipeline(network_token_set(zn_phase_rep(builtin_group("z4"), 2)),
                                      1, "cyclic", cyclic_network=True)
    records = [*build_encoding_pipeline(tokens, 1, "general").records, *network.records]
    matrices = [tokens.rep.matrices, apply_t_direct(tokens), *(op for op, *_ in records)]
    assert len({id(matrix) for matrix in matrices}) > 8
    for matrix in matrices:
        with pytest.raises(ValueError, match="read-only"):
            matrix[(0,) * matrix.ndim] = 0
        with pytest.raises(ValueError, match="WRITEABLE"):
            matrix.setflags(write=True)


@pytest.mark.parametrize("spec,rep_spec,m,path,network", [
    ("z1", "builtin", 1, "general", False), ("z2", "builtin", 2, "general", False),
    ("z8", "builtin", 3, "general", False), ("z8", "builtin", 3, "abelian", False),
    ("z8", "builtin", 3, "cyclic", False), ("z8", "builtin", 3, "cyclic", True),
    ("k4", "builtin", 2, "abelian", False), ("s3", "builtin-2d", 2, "general", False),
    ("z12", "builtin", 2, "general", False), ("z13", "builtin", 1, "general", False),
    ("z16", "builtin", 2, "cyclic", True),
])
def test_synthesized_records_are_the_checked_records_of_their_gates(spec, rep_spec, m, path,
                                                                    network):
    # build_encoding_pipeline makes its op records without a check; checking the ops
    # of its gates on the whole register gives the same records: each matrix the
    # same object, the same wires, as tuples of Python ints, and the same digit source
    from dfscodec.circuits import _gate_ops

    rep = builtin_rep(builtin_group(spec), rep_spec, 2)
    tokens = network_token_set(rep) if network else prepare_protocol(rep).tokens
    pipeline = build_encoding_pipeline(tokens, m, path, cyclic_network=network)
    gates = [*pipeline.prep, *pipeline.w_plan.gates, *pipeline.t_plan.gates]
    checked = _checked_ops(2, pipeline.layout.n_wires, _gate_ops(gates))
    assert len(pipeline.records) == len(checked)
    for got, want in zip(pipeline.records, checked):
        assert got[0] is want[0] and got[1:] == want[1:]
        assert all(type(w) is int for w in chain(got[2], *got[1]))


def test_a_pipeline_put_together_by_hand_is_checked_on_every_run(context_for, rng):
    # a pipeline build_encoding_pipeline did not make has no records: its gates are
    # checked on every run, and valid ones give the bytes of the synthesized run
    pipeline = build_encoding_pipeline(context_for("k4").tokens, 2, "general")
    message = random_state(2, 2, rng)
    assert dataclasses.replace(pipeline).records is None
    by_hand = dataclasses.replace(pipeline).run(message)
    assert by_hand.amps.tobytes() == pipeline.run(message).amps.tobytes()
    bad = [dataclasses.replace(gate, matrix=2 * gate.matrix) for gate in pipeline.prep]
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="^operator is not unitary within tolerance$"):
            dataclasses.replace(pipeline, prep=bad).run(message)


def test_the_basis_change_is_refused_by_the_token_certificate(context_for):
    # T is built from the token columns once per token set, and refused there, on
    # every build, when the certificate's Gram residue exceeds UNITARY_TOL
    doubted = dataclasses.replace(context_for("z3").tokens, gram_residue=2 * UNITARY_TOL)
    for _ in range(2):
        with pytest.raises(NonOrthogonalProjectors,
                           match=r"^token Gram residue 2\.000e-09 exceeds 1\.0e-09$"):
            build_encoding_pipeline(doubted, 1, "general")


def test_the_channel_stages_live_as_long_as_their_token_set(rng):
    import gc
    import weakref

    from dfscodec import circuits

    rep = zn_phase_rep(builtin_group("z4"), 2)
    tokens = prepare_protocol(rep).tokens
    pipeline = build_encoding_pipeline(tokens, 1, "general")
    pipeline.run(random_state(2, 1, rng))
    change = weakref.ref(pipeline.t_plan.gates[0].matrix)
    assert rep in circuits._CHANNEL_STAGES and tokens in circuits._CHANNEL_STAGES
    # W's blocks and digit sources are kept with the rep, and hold no reference to it
    owner = weakref.ref(rep)
    del rep, tokens, pipeline
    gc.collect()
    assert change() is None and owner() is None
    # the network's gates are made once per token set; each encoder has its own list
    tokens = network_token_set(zn_phase_rep(builtin_group("z4"), 2))
    first, second = (build_encoding_pipeline(tokens, m, "cyclic", cyclic_network=True).t_plan
                     for m in (1, 2))
    assert first.gates == second.gates and first.gates is not second.gates
    # the prep gate of a group whose order is not a power of two lives with its group
    group = builtin_group("s3")
    prep = weakref.ref(prep_gates(group, (0, 1, 2))[0].matrix)
    assert prep_gates(group, (3, 4, 5))[0].matrix is prep()
    del group
    gc.collect()
    assert prep() is None


def test_apply_t_direct_trivial_group(context_for):
    # one token: T is the fiducial's one column
    ctx = context_for("z1")
    change = apply_t_direct(ctx.tokens)
    assert change.shape == (2, 1)
    assert np.array_equal(change[:, 0], ctx.tokens.fiducial.amps)


# --- end-to-end circuit vs direct encoding ----------------------------------------


@pytest.mark.parametrize("spec,path", [("k4", "general"), ("k4", "abelian"),
                                        ("z4", "general"), ("z4", "cyclic"),
                                        ("z8", "cyclic"), ("z3", "general"),
                                        ("z5", "general")])
def test_pipeline_matches_direct_encoding(spec, path, context_for, rng):
    ctx = context_for(spec)
    m = 2
    pipeline = build_encoding_pipeline(ctx.tokens, m, path)
    for _ in range(3):
        message = random_state(2, m, rng)
        assert fidelity(pipeline.run(message), encode(ctx.tokens, message)) >= 1 - 1e-9


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_network_pipeline_matches_direct_encoding(n, rng):
    rep = zn_phase_rep(builtin_group(f"z{n}"), 2)
    tokens = network_token_set(rep)
    pipeline = build_encoding_pipeline(tokens, 2, "cyclic", cyclic_network=True)
    for _ in range(3):
        message = random_state(2, 2, rng)
        assert fidelity(pipeline.run(message), encode(tokens, message)) >= 1 - 1e-9


def test_network_fiducial_over_the_budget_is_refused_before_allocating():
    # z32 has r = 31: the weight-code fiducial would be 2^31 amplitudes
    rep = zn_phase_rep(builtin_group("z32"), 2)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="a register of 2\\*\\*31 amplitudes"):
            network_token_set(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("spec", ["z4", "z8"])
def test_network_refuses_tokens_it_does_not_realize(spec, context_for):
    # the canonical tokens are certified, but their fiducial is not the weight code
    # the Fourier and CNOT stage maps label 0 to
    with pytest.raises(DfsCodecError, match="realizes only the tokens of network_token_set"):
        build_encoding_pipeline(context_for(spec).tokens, 2, "cyclic", cyclic_network=True)


@pytest.mark.parametrize("power", [2, 3, 5, 7])
def test_network_refuses_a_generator_it_does_not_realize(power, rng):
    # U_k = diag(1, w^(power k)): for odd power it is faithful, and the element g with
    # U_g = diag(1, w) generates the phases the Fourier stage gives, so the network
    # runs on g's powers; for power 2 no element has U_g = diag(1, w), and the rep is
    # not faithful, so only the network's own check can refuse it
    from dfscodec.reps import UnitaryRep

    z8 = builtin_group("z8")
    phases = np.exp(2j * np.pi * (power * np.arange(8) % 8) / 8)
    rep = UnitaryRep.build(z8, [np.diag([1.0, p]) for p in phases])
    if power % 2:
        tokens = network_token_set(rep)
        pipeline = build_encoding_pipeline(tokens, 2, "cyclic", cyclic_network=True)
        generator = pow(power, -1, 8)  # power * generator = 1 mod 8
        assert pipeline.w_plan.metadata["word_elements"][1] == generator
        message = random_state(2, 2, rng)
        assert fidelity(pipeline.run(message), encode(tokens, message)) >= 1 - 1e-9
        return
    line = r"needs U\(g\^k\) = diag\(1, e\^\(2 pi i k/8\)\) for the generator g = '1'"
    with pytest.raises(DfsCodecError, match=line):
        network_token_set(rep)


@pytest.mark.parametrize("spec", ["z4", "z8"])
def test_cyclic_path_on_relabelled_group_matches_direct_encoding(spec, relabelled, rng):
    # control label v is the v-th generator power, not element index v
    tokens = prepare_protocol(zn_phase_rep(relabelled(spec), 2)).tokens
    pipeline = build_encoding_pipeline(tokens, 2, "cyclic")
    order = pipeline.w_plan.metadata["word_elements"]
    assert order != list(range(tokens.group.order))
    (dense,) = pipeline.t_plan.gates
    for column, element in enumerate(order):
        np.testing.assert_array_equal(dense.matrix[:, column], tokens.tokens[element].amps)
    message = random_state(2, 2, rng)
    assert fidelity(pipeline.run(message), encode(tokens, message)) >= 1 - 1e-9


def test_z4_direct_t_reproduces_encoding_from_w_stage(context_for, rng):
    # uniform label superposition -> W -> token basis change == direct encode
    ctx = context_for("z4")
    message = random_state(2, 1, rng)
    pipeline = build_encoding_pipeline(ctx.tokens, 1, "general")
    got = pipeline.run(message)
    assert fidelity(got, encode(ctx.tokens, message)) >= 1 - 1e-9


def test_decode_side_inverse_network_matches_projective_decode(rng):
    # running the basis change backwards and reading the label register samples
    # the same distribution with the same seeds as the direct token measurement
    n = 4
    rep = zn_phase_rep(builtin_group(f"z{n}"), 2)
    tokens = network_token_set(rep)
    pipeline = build_encoding_pipeline(tokens, 1, "cyclic", cyclic_network=True)
    message = random_state(2, 1, rng)
    received = encode(tokens, message)
    inverse = inverse_plan(pipeline.t_plan)
    r_prime = len(pipeline.layout.control)
    labels = np.eye(2**r_prime)
    for seed in (0, 1, 7, 40):
        _, direct_report = decode(tokens, received, seed)
        attached = product_state(basis_state(2, r_prime, 0), received)
        unwound = run_plan(inverse, attached)
        record = project_measure(
            unwound, range(r_prime), [labels[j] for j in range(n)], seed
        )
        assert record.outcome == direct_report.outcome_index


# --- guards ------------------------------------------------------------------------


def test_qutrit_synthesis_rejected():
    z3 = builtin_group("z3")
    rep = zn_phase_rep(z3, 3)
    with pytest.raises(UnsupportedDimension):
        synth_w("general", z3, rep, 1)


def test_cyclic_path_rejects_non_power_orders():
    z3 = builtin_group("z3")
    with pytest.raises(DfsCodecError):
        synth_w("cyclic", z3, zn_phase_rep(z3, 2), 1)


def test_abelian_path_rejects_s3():
    s3 = builtin_group("s3")
    from dfscodec.reps import s3_two_dim_rep

    with pytest.raises(NotAbelian):
        synth_w("abelian", s3, s3_two_dim_rep(s3), 1)


def test_prep_gates_non_power_order(context_for):
    ctx = context_for("z3")
    gates = prep_gates(ctx.group, (0, 1))
    assert len(gates) == 1 and gates[0].kind == "prep"
    state = run_plan_like(gates, basis_state(2, 2, 0))
    np.testing.assert_allclose(
        np.abs(state.amps) ** 2, [1 / 3, 1 / 3, 1 / 3, 0], atol=1e-12
    )


def test_apply_gate_rejects_non_unitary_prep():
    from dfscodec.circuits import Gate, apply_gate

    gate = Gate(kind="prep", targets=(0, 1), matrix=2 * np.eye(4), cost=2, stage="prep")
    with pytest.raises(DimensionMismatch):
        apply_gate(basis_state(2, 2, 0), gate)


@pytest.mark.parametrize("kind,targets,controls", [
    ("single", (0,), ()), ("prep", (0, 1), ()),
    ("controlled", (1,), ((0, 1),)), ("cnot", (1,), ((0, 1),)),
])
def test_gate_without_a_matrix_is_refused(kind, targets, controls, rng):
    # no kind falls back to the identity or to X
    from dfscodec.circuits import CircuitPlan, Gate, RegisterLayout, apply_gate

    gate = Gate(kind, targets, controls)
    state = random_state(2, 2, rng)
    with pytest.raises(DfsCodecError, match=f"^{kind} gate has no matrix$"):
        apply_gate(state, gate)
    plan = CircuitPlan([gate], RegisterLayout(2, (), (0, 1), ()))
    with pytest.raises(DfsCodecError, match=f"^{kind} gate has no matrix$"):
        run_plan(plan, state)


def test_the_count_report_holds_one_plan_at_a_time():
    # each W plan holds its m message wires: the report over every path peaks at
    # about one plan's size, not two
    group = builtin_group("z16")
    rep = zn_phase_rep(group, 2)
    peaks = []
    for build in (lambda: synth_w("general", group, rep, 10**5),
                  lambda: gate_count_report(group, rep, 10**5, 15)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


def test_unitary_completion_keeps_columns_and_rejects_overlap(rng):
    # no completion is made any more: the runner applies the 8 x 3 columns as
    # they are, so basis state 0 of the targets becomes the first column, and
    # refuses two overlapping columns in one line
    columns = np.linalg.qr(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)))[0]
    state = basis_state(2, 3, 0)
    assert np.array_equal(apply_controlled(state, [], columns, (0, 1, 2)).amps, columns[:, 0])
    overlap = np.column_stack([columns[:, 0], columns[:, 0]])
    with pytest.raises(DimensionMismatch, match="^operator is not unitary within tolerance$"):
        apply_controlled(state, [], overlap, (0, 1, 2))


def test_unitary_completion_refuses_huge_columns_without_a_warning():
    # |1e200|^2 overflows: the Gram residue is inf, refused in one line, and no
    # RuntimeWarning escapes (the suite turns warnings into errors)
    columns = np.zeros((4, 2), dtype=np.complex128)
    columns[0, 0], columns[1, 1] = 1e200, 1.0
    with pytest.raises(DimensionMismatch, match="^operator is not unitary within tolerance$"):
        apply_controlled(basis_state(2, 3, 0), [], columns, (1, 2))


# the encoders whose prep gate or basis change is narrower than square, with the
# power-of-two k4 and z8 beside them: each run keeps the values of the dense run
# that completed both to unitaries, its prep and W through the runner, then T
DENSE_REFERENCE = [("z6", "general", (1, 4)), ("z12", "general", (2,)),
                   ("z13", "general", (1, 3)), ("k4", "general", (3,)),
                   ("s3", "general", (3,)), ("z8", "abelian", (1, 3))]


@pytest.mark.parametrize("spec,path,ms", DENSE_REFERENCE)
def test_isometry_encoders_equal_the_dense_completion(spec, path, ms, context_for, rng):
    pipelines = [build_encoding_pipeline(context_for(spec).tokens, m, path) for m in ms]
    dense_t = complete_unitary(pipelines[0].t_plan.gates[0].matrix)  # one T for every m
    for pipeline, m in zip(pipelines, ms):
        for message in (random_state(2, m, rng), basis_state(2, m, 2**m - 1)):
            expected = dense_encoder_run(pipeline, message, dense_t)
            assert np.array_equal(pipeline.run(message).amps, expected)


def test_a_label_past_the_group_order_leaks_out_of_the_basis_change(context_for, rng):
    # z6's T reads the labels 0-5 of its 3 label wires, with the 2 leading token
    # wires at 0; amplitude on label 6 or 7 is refused in one line
    pipeline = build_encoding_pipeline(context_for("z6").tokens, 1, "general")
    r = len(pipeline.layout.token)
    for label in (6, 7):
        state = product_state(basis_state(2, r, label), random_state(2, 1, rng))
        with pytest.raises(DfsCodecError, match=r"^amplitude 1\.000e\+00 outside the first 6 "
                                                r"of 32 target states of an isometry$"):
            run_plan(pipeline.t_plan, state)
    state = product_state(basis_state(2, r, 5), random_state(2, 1, rng))
    assert run_plan(pipeline.t_plan, state).amps.shape == (2 ** (r + 1),)


def test_the_inverse_of_the_dense_basis_change_is_refused(context_for, rng):
    # T's adjoint is 8 x 128, wider than tall: the runner takes no such gate
    pipeline = build_encoding_pipeline(context_for("z8").tokens, 1, "general")
    state = random_state(2, pipeline.layout.n_wires, rng)
    with pytest.raises(DimensionMismatch, match=r"^operator must be 128x128, got \(8, 128\)$"):
        run_plan(inverse_plan(pipeline.t_plan), state)


def run_plan_like(gates, state):
    """The gates one at a time, each through the one-op ``_run`` call that
    ``apply_controlled`` makes, in place on one writable register: no copy per gate."""
    from dfscodec.circuits import _gate_matrix
    from dfscodec.statevec import _run

    tensor = state.tensor().copy()
    for gate in gates:
        matrix = _gate_matrix(gate)
        if matrix is not None:
            tensor = _run(tensor, range(state.n), state.n, [(matrix, gate.controls, gate.targets)])
    return StateVector(d=state.d, n=state.n, amps=tensor.reshape(-1))


@pytest.mark.parametrize("path", ["general", "abelian", "cyclic"])
@pytest.mark.parametrize("m", [0, -2])
def test_every_w_path_needs_a_message_qubit(path, m):
    group = builtin_group("z8")
    with pytest.raises(DimensionMismatch):
        synth_w(path, group, zn_phase_rep(group), m)


# --- in-place plan execution ------------------------------------------------------


def pipeline_like(pipeline, message):
    """The encoder composed gate by gate, each gate returning a fresh state."""
    n_work = pipeline.layout.n_wires - pipeline.m
    state = product_state(basis_state(2, n_work, 0), message)
    state = run_plan_like([*pipeline.prep, *pipeline.w_plan.gates, *pipeline.t_plan.gates], state)
    if set(pipeline.layout.control) <= set(pipeline.layout.token):
        return state
    r_prime = len(pipeline.layout.control)
    block = state.amps.reshape(2**r_prime, -1)
    return StateVector.from_amplitudes(2, state.n - r_prime, block[0], normalize=True)


IN_PLACE_CASES = [
    *[(spec, path, m) for spec, path in [("z8", "general"), ("z8", "abelian"),
                                         ("z8", "cyclic"), ("z8", "network"),
                                         ("k4", "general"), ("k4", "abelian"),
                                         ("s3", "general"), ("z4", "network"),
                                         ("z16", "network"), ("z2xz2", "abelian")]
      for m in (1, 2, 3)],
    ("z12", "general", 1),
    ("z12", "general", 2),
]


@pytest.mark.parametrize("spec,path,m", IN_PLACE_CASES)
def test_in_place_runs_are_bit_identical_to_gate_by_gate(spec, path, m, context_for, rng):
    if path == "network":
        tokens = network_token_set(zn_phase_rep(builtin_group(spec), 2))
        pipeline = build_encoding_pipeline(tokens, m, "cyclic", cyclic_network=True)
    else:
        pipeline = build_encoding_pipeline(context_for(spec).tokens, m, path)
    messages = [random_state(2, m, rng), random_state(2, m, rng), basis_state(2, m, 2**m - 1)]
    for message in messages:
        assert pipeline.run(message).amps.tobytes() == pipeline_like(pipeline, message).amps.tobytes()
    state = random_state(2, pipeline.layout.n_wires, rng)
    got = run_plan(pipeline.w_plan, state)
    assert got.amps.tobytes() == run_plan_like(pipeline.w_plan.gates, state).amps.tobytes()
    # T reads only the labels of the group with the other token wires at 0: its
    # input is what prep and W make of a message
    n_work = pipeline.layout.n_wires - m
    state = product_state(basis_state(2, n_work, 0), random_state(2, m, rng))
    state = run_plan_like([*pipeline.prep, *pipeline.w_plan.gates], state)
    got = run_plan(pipeline.t_plan, state)
    assert got.amps.tobytes() == run_plan_like(pipeline.t_plan.gates, state).amps.tobytes()


def moveaxis_apply(tensor, op, targets, controls=()):
    """The block kernel as it was before the gather by permutation, kept as the
    reference: ``np.moveaxis`` there and back, in place in the whole register.  An
    op of c columns multiplies the block's first c rows."""
    n, d = tensor.ndim, tensor.shape[0]
    index: list = [slice(None)] * n
    for w, v in controls:
        index[w] = v
    sub = tensor[tuple(index)]
    remaining = [w for w in range(n) if w not in {c for c, _ in controls}]
    axes = [remaining.index(t) for t in targets]
    block = np.moveaxis(sub, axes, range(len(axes))).reshape(d ** len(axes), -1)
    product = op @ block[: op.shape[1]]
    tensor[tuple(index)] = np.moveaxis(product.reshape(sub.shape), range(len(axes)), axes)


# the four encoders of the circuit benchmark, then the z4 and z16 networks at m = 1-3
REFERENCE_ENCODERS = [
    ("z8", "network", 7), ("z8", "general", 3), ("k4", "abelian", 6), ("s3", "general", 3),
    *[(spec, "network", m) for spec in ("z4", "z16") for m in (1, 2, 3)],
]


@pytest.mark.parametrize("spec,path,m", REFERENCE_ENCODERS)
def test_encoder_is_bit_identical_to_the_moveaxis_kernel(spec, path, m, context_for, rng):
    from dfscodec.circuits import _gate_matrix

    if path == "network":
        tokens = network_token_set(zn_phase_rep(builtin_group(spec), 2))
        pipeline = build_encoding_pipeline(tokens, m, "cyclic", cyclic_network=True)
    else:
        pipeline = build_encoding_pipeline(context_for(spec).tokens, m, path)
    message = random_state(2, m, rng)
    n, layout = pipeline.layout.n_wires, pipeline.layout
    tensor = product_state(basis_state(2, n - m, 0), message).tensor().copy()
    for gate in [*pipeline.prep, *pipeline.w_plan.gates, *pipeline.t_plan.gates]:
        if gate.kind != "chain":
            moveaxis_apply(tensor, _gate_matrix(gate), gate.targets, gate.controls)
    expected = tensor.reshape(-1)
    if not set(layout.control) <= set(layout.token):
        expected = tensor.reshape(2 ** len(layout.control), -1)[0]
        expected = expected / np.linalg.norm(expected)
    assert pipeline.run(message).amps.tobytes() == expected.tobytes()


def test_network_cnots_are_moved_not_multiplied(monkeypatch, rng):
    from dfscodec import statevec

    tokens = network_token_set(zn_phase_rep(builtin_group("z8"), 2))
    pipeline = build_encoding_pipeline(tokens, 7, "cyclic", cyclic_network=True)
    gates = [gate for gate in [*pipeline.prep, *pipeline.w_plan.gates, *pipeline.t_plan.gates]
             if gate.kind != "chain"]
    calls = []
    apply = statevec._apply
    monkeypatch.setattr(statevec, "_apply", lambda *args: calls.append(args) or apply(*args))
    pipeline.run(random_state(2, 7, rng))
    assert (len(gates), sum(gate.kind == "cnot" for gate in gates), len(calls)) == (40, 10, 30)


@pytest.mark.parametrize("spec,path,m,expected", [
    # 24 uncontrolled X gates relabel their wires; only the 3 controlled
    # permutations move, and the 25 other gates are products
    ("z8", "general", 3, {"uncontrolled": 24, "controlled": 3, "_move": 3, "_apply": 25,
                          "held": 2**10, "written": []}),
    # the 7 fan-out CNOTs copy their control's axis and the 3 folds leave their
    # targets idle again: nothing moves, the buffer never outgrows the 7 message
    # and 3 label wires, and the last write holds the 14 kept wires of 17
    ("z8", "network", 7, {"uncontrolled": 0, "controlled": 10, "_move": 0, "_apply": 30,
                          "held": 2**10, "written": [2**14]}),
    # 15 fan-outs and 4 folds: 2^9 amplitudes held, and 2^20 written of a 2^24 register
    ("z16", "network", 5, {"uncontrolled": 0, "controlled": 19, "_move": 0, "_apply": 34,
                           "held": 2**9, "written": [2**20]}),
])
def test_permutations_relabel_or_place_before_they_move(spec, path, m, expected, monkeypatch,
                                                         context_for, rng):
    from dfscodec import statevec
    from dfscodec.circuits import _gate_matrix

    if path == "network":
        tokens = network_token_set(zn_phase_rep(builtin_group(spec), 2))
        pipeline = build_encoding_pipeline(tokens, m, "cyclic", cyclic_network=True)
    else:
        pipeline = build_encoding_pipeline(context_for(spec).tokens, m, path)
    gates = [*pipeline.prep, *pipeline.w_plan.gates, *pipeline.t_plan.gates]
    perms = [gate for gate in gates if gate.kind != "chain" and len(gate.targets) == 1
             and statevec._digit_source(_gate_matrix(gate), 2) is not None]
    events: list = []  # kernel names and the sizes of the buffers _hold makes, in order
    for name in ("_move", "_apply"):
        kernel = getattr(statevec, name)
        monkeypatch.setattr(statevec, name, lambda *args, name=name, kernel=kernel:
                            events.append(name) or kernel(*args))
    hold = statevec._hold

    def held_hold(*args):
        out = hold(*args)
        events.append(out[0].size)
        return out

    monkeypatch.setattr(statevec, "_hold", held_hold)
    pipeline.run(random_state(2, m, rng))
    # a gate's hold is followed by its kernel, so a hold after the last kernel is the
    # last write; the general encoder ends with every wire on its own axis and makes none
    last = max(i for i, event in enumerate(events) if isinstance(event, str))
    uncontrolled = sum(not gate.controls for gate in perms)
    assert {"uncontrolled": uncontrolled, "controlled": len(perms) - uncontrolled,
            "_move": events.count("_move"), "_apply": events.count("_apply"),
            "held": max(e for e in events[:last] if not isinstance(e, str)),
            "written": events[last + 1:]} == expected


@pytest.mark.parametrize("controls", [(), ((0, 2),)], ids=["uncontrolled", "control-2"])
@pytest.mark.parametrize("power", [1, 2])
def test_qudit_shifts_are_bit_identical_to_the_moveaxis_kernel(power, controls, monkeypatch, rng):
    from dfscodec import statevec

    shift = np.linalg.matrix_power(np.roll(np.eye(3, dtype=np.complex128), 1, axis=0), power)
    state = random_state(3, 4, rng)
    expected = state.tensor().copy()
    moveaxis_apply(expected, shift, [2], controls)
    monkeypatch.setattr(statevec, "_apply", lambda *args: pytest.fail("the shift was multiplied"))
    assert apply_controlled(state, controls, shift, [2]).amps.tobytes() == expected.tobytes()


def test_a_move_keeps_negative_zeros_whose_values_equal_the_product(rng):
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps[:4] = complex(-0.0, -0.0)
    state = StateVector.from_amplitudes(2, 3, amps, normalize=True)
    expected = state.tensor().copy()
    moveaxis_apply(expected, x, [0])
    got = apply_controlled(state, (), x, [0]).amps
    assert (got == expected.reshape(-1)).all()
    # the one difference from the product: a move copies, so each -0.0 keeps its sign
    assert np.signbit(state.amps[:4].real).all()
    assert got.tobytes() == np.concatenate([state.amps[4:], state.amps[:4]]).tobytes()


def _with_first_w_gate(pipeline, gate):
    from dataclasses import replace

    from dfscodec.circuits import CircuitPlan

    plan = CircuitPlan(gates=[gate, *pipeline.w_plan.gates], layout=pipeline.layout)
    return replace(pipeline, w_plan=plan)


def test_gate_that_never_fires_is_still_checked(rng):
    from dfscodec.circuits import Gate
    from dfscodec.errors import BadTarget

    tokens = network_token_set(zn_phase_rep(builtin_group("z8"), 2))
    pipeline = build_encoding_pipeline(tokens, 2, "cyclic", cyclic_network=True)
    layout = pipeline.layout
    message = random_state(2, 2, rng)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    # the token wires stay |0> until the fan-out, so a control asking for 1 never matches
    idle = ((layout.token[0], 1),)
    skipped = Gate(kind="controlled", targets=(layout.message[0],), controls=idle, matrix=x)
    assert (_with_first_w_gate(pipeline, skipped).run(message).amps.tobytes()
            == pipeline.run(message).amps.tobytes())
    bad = Gate(kind="controlled", targets=(layout.message[0],), controls=idle,
               matrix=2 * np.eye(2))
    with pytest.raises(DimensionMismatch):
        _with_first_w_gate(pipeline, bad).run(message)
    outside = Gate(kind="controlled", targets=(layout.n_wires,), controls=idle, matrix=x)
    with pytest.raises(BadTarget):
        _with_first_w_gate(pipeline, outside).run(message)


@pytest.mark.parametrize("matrix,leak", [
    (np.array([[0, 1], [1, 0]]), "1.000e+00"),  # the label wire set: all of the state leaks
    (np.array([[1, 1], [1, -1]]) / np.sqrt(2), "7.071e-01"),  # half its weight leaks
], ids=["X", "H"])
def test_a_label_wire_left_set_fails_the_leak_check(matrix, leak, rng):
    from dataclasses import replace

    from dfscodec.circuits import CircuitPlan, Gate

    tokens = network_token_set(zn_phase_rep(builtin_group("z8"), 2))
    pipeline = build_encoding_pipeline(tokens, 2, "cyclic", cyclic_network=True)
    # after the network's last fold every label wire is back in |0>
    late = Gate("single", (pipeline.layout.control[0],), matrix=matrix)
    t_plan = CircuitPlan(gates=[*pipeline.t_plan.gates, late], layout=pipeline.layout)
    with pytest.raises(DfsCodecError, match=re.escape(f"failed to clear (leak {leak})")):
        replace(pipeline, t_plan=t_plan).run(random_state(2, 2, rng))


def test_network_encoder_peak_stays_near_one_register(rng):
    # the message is held from the start, the token wires join at their first CNOT,
    # and the last write leaves out the label wires, which end idle in |0>, and the
    # kept register is normalized in place: the run peaks near the kept register
    # (1.10x for z8, 1.00x for z16; 2.0x with a normalized copy), never near the
    # whole register (a run on the full buffer from the first gate peaks at 3x that)
    for spec, m, n_wires in [("z8", 7, 17), ("z16", 5, 24)]:
        tokens = network_token_set(zn_phase_rep(builtin_group(spec), 2))
        pipeline = build_encoding_pipeline(tokens, m, "cyclic", cyclic_network=True)
        layout = pipeline.layout
        assert layout.n_wires == n_wires
        message = random_state(2, m, rng)
        tracemalloc.start()
        try:
            pipeline.run(message)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 ** (n_wires - len(layout.control)) * 16, spec


def test_non_unitary_gate_mid_plan_is_refused(context_for, rng):
    from dataclasses import replace

    from dfscodec.circuits import CircuitPlan, Gate

    pipeline = build_encoding_pipeline(context_for("k4").tokens, 1, "general")
    gates = list(pipeline.w_plan.gates)
    # same shape as the unitary 2x2 gates before and after it
    bad = Gate(kind="controlled", targets=(pipeline.layout.message[0],),
               controls=((pipeline.layout.control[0], 1),), matrix=2 * np.eye(2))
    gates.insert(len(gates) // 2, bad)
    plan = CircuitPlan(gates=gates, layout=pipeline.layout)
    with pytest.raises(DimensionMismatch):
        run_plan(plan, random_state(2, pipeline.layout.n_wires, rng))
    with pytest.raises(DimensionMismatch):
        replace(pipeline, w_plan=plan).run(random_state(2, 1, rng))


def test_matrix_reused_on_a_wider_target_set_is_refused(rng):
    from dfscodec.circuits import CircuitPlan, Gate, RegisterLayout

    eye = np.eye(2, dtype=np.complex128)
    layout = RegisterLayout(d=2, control=(), token=(0, 1), message=())
    plan = CircuitPlan(
        gates=[Gate("single", (0,), matrix=eye), Gate("single", (0, 1), matrix=eye)],
        layout=layout,
    )
    with pytest.raises(DimensionMismatch, match="must be 4x4"):
        run_plan(plan, random_state(2, 2, rng))


def test_run_plan_leaves_its_input_unmodified(context_for, rng):
    pipeline = build_encoding_pipeline(context_for("z8").tokens, 2, "cyclic")
    state = random_state(2, pipeline.layout.n_wires, rng)
    before = state.amps.tobytes()
    out = run_plan(pipeline.w_plan, state)
    assert state.amps.tobytes() == before
    assert out.amps.tobytes() != before
    assert not np.shares_memory(out.amps, state.amps)
    message = random_state(2, 2, rng)
    before = message.amps.tobytes()
    pipeline.run(message)
    assert message.amps.tobytes() == before


@pytest.mark.parametrize("controls,targets", [((), [0]), ((), [3, 1]), (((2, 1),), [0])])
def test_apply_controlled_result_does_not_alias_its_input(controls, targets, rng):
    state = random_state(2, 4, rng)
    before = state.amps.tobytes()
    out = apply_controlled(state, controls, haar_unitary(2 ** len(targets), rng), targets)
    assert not np.shares_memory(out.amps, state.amps)
    assert not out.amps.flags.writeable
    assert state.amps.tobytes() == before


def test_kernel_multiplies_every_block_on_the_left(rng):
    # 2x2 products round differently in the two orientations, so a swap shows
    state = random_state(2, 6, rng)
    u = haar_unitary(2, rng)
    tensor = state.tensor()
    block = np.moveaxis(tensor, 2, 0).reshape(2, -1)
    right = np.moveaxis((block.T @ u.T).T.reshape([2] * 6), 0, 2).reshape(-1)
    left = np.moveaxis((u @ block).reshape([2] * 6), 0, 2).reshape(-1)
    assert right.tobytes() != left.tobytes()
    # no controls: left-multiplied
    assert apply_controlled(state, (), u, [2]).amps.tobytes() == left.tobytes()
    # with controls: left-multiplied on the matching slice, the rest untouched
    sub = np.moveaxis(tensor[:, 1], 1, 0).reshape(2, -1)
    expected = tensor.copy()
    expected[:, 1] = np.moveaxis((u @ sub).reshape([2] * 5), 0, 1)
    swapped = tensor.copy()
    swapped[:, 1] = np.moveaxis((sub.T @ u.T).T.reshape([2] * 5), 0, 1)
    assert expected.tobytes() != swapped.tobytes()
    got = apply_controlled(state, [(1, 1)], u, [2])
    assert got.amps.tobytes() == expected.reshape(-1).tobytes()
