import dataclasses
import re
import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dfscodec.codec as codec
import dfscodec.reps as reps
from dfscodec.circuits import apply_t_direct
from dfscodec.codec import (
    build_fiducial,
    build_tokens,
    decode,
    decode_outcome_probabilities,
    distribution_channel,
    encode,
    fixed_channel,
    measure_and_realign,
    prepare_protocol,
    run_roundtrip,
    transmit,
    uniform_channel,
)
from dfscodec.errors import (
    ConditionOneViolated,
    ConditionTwoViolated,
    DimensionMismatch,
    MissingIrrepMatrices,
    NonOrthogonalProjectors,
    NumericalDegeneracy,
    PerpOutcome,
    RegularRepMissing,
)
from dfscodec.groups import builtin_group
from dfscodec.limits import ORTHONORMAL_TOL, UNITARY_TOL, check_entries
from dfscodec.reps import (
    CharacterTable,
    UnitaryRep,
    builtin_character_table,
    builtin_rep,
    isotypic_decompose,
    min_r,
    pauli_rep,
    s3_two_dim_rep,
    zn_phase_rep,
)
from dfscodec.statevec import (
    StateVector,
    apply_collective,
    basis_state,
    fidelity,
    inner,
    product_state,
    project_measure,
    random_state,
)

INV_SQRT2 = 1 / np.sqrt(2)
GROUP_SPECS = ["k4", "z3", "z4", "z8", "z3:3", "s3"]
_FUZZ_CONTEXTS: dict = {}


# --- fixtures pinned to exact amplitudes --------------------------------------


def test_k4_fiducial_is_zero_plus(context_for):
    ctx = context_for("k4")
    expected = np.array([INV_SQRT2, INV_SQRT2, 0, 0])
    np.testing.assert_allclose(ctx.tokens.fiducial.amps, expected, atol=1e-12)


def test_k4_token_set_with_signs(context_for):
    ctx = context_for("k4")
    expected = {
        "e": [INV_SQRT2, INV_SQRT2, 0, 0],  # |0+>
        "x": [0, 0, INV_SQRT2, INV_SQRT2],  # |1+>
        "y": [0, 0, -INV_SQRT2, INV_SQRT2],  # -|1->
        "z": [INV_SQRT2, -INV_SQRT2, 0, 0],  # |0->
    }
    for i, label in enumerate(ctx.group.labels):
        np.testing.assert_allclose(
            ctx.tokens.tokens[i].amps, expected[label], atol=1e-12
        )


def test_z3_fiducial(context_for):
    ctx = context_for("z3")
    expected = np.array([1, 1, 0, 1]) / np.sqrt(3)
    np.testing.assert_allclose(ctx.tokens.fiducial.amps, expected, atol=1e-12)


def test_z3_tokens_phases(context_for):
    ctx = context_for("z3")
    omega = np.exp(2j * np.pi / 3)
    for g in range(3):
        expected = np.array([1, omega**g, 0, omega ** (2 * g)]) / np.sqrt(3)
        np.testing.assert_allclose(ctx.tokens.tokens[g].amps, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_zn_staircase_fiducial(n, context_for):
    # trailing-ones basis states, one per number of ones
    ctx = context_for(f"z{n}")
    r = ctx.r
    assert r == n - 1
    expected = np.zeros(2**r)
    for lam in range(n):
        expected[2**lam - 1] = 1 / np.sqrt(n)  # lam trailing ones
    np.testing.assert_allclose(ctx.tokens.fiducial.amps, expected, atol=1e-12)


def test_trivial_group_single_token(context_for):
    ctx = context_for("z1")
    assert len(ctx.tokens.tokens) == 1
    assert fidelity(ctx.tokens.tokens[0], ctx.tokens.fiducial) == 1.0


# --- token conditions ---------------------------------------------------------


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_token_conditions_certified(spec, context_for):
    ctx = context_for(spec)
    tokens = ctx.tokens
    assert tokens.gram_residue <= 1e-8
    for k in range(ctx.group.order):
        for i in range(ctx.group.order):
            moved = apply_collective(tokens.tokens[i], ctx.rep.matrices[k])
            target = tokens.tokens[ctx.group.mul(k, i)]
            assert abs(inner(target, moved) - 1.0) <= 1e-9


def test_condition_one_violation_raises(context_for):
    ctx = context_for("z3")
    bad = basis_state(2, 2, 0)  # |00> is not moved anywhere by the phases
    with pytest.raises(ConditionOneViolated):
        build_tokens(ctx.rep, 2, bad)


def test_closure_violation_names_the_first_failing_pair(context_for):
    # z4 phases on the Klein group: the tokens are orthonormal, but U_1 U_1 is
    # U_2, not the identity that k4's g_1 * g_1 asks for
    z4 = context_for("z4")
    k4 = builtin_group("k4")
    assert k4.mul(1, 1) == 0 and z4.group.mul(1, 1) != 0
    wrong = UnitaryRep(group=k4, dim=2, matrices=z4.rep.matrices)
    with pytest.raises(
        ConditionTwoViolated, match=r"closure fails at pair \(k=1, i=1\) with deviation"
    ):
        build_tokens(wrong, z4.r, z4.tokens.fiducial)


@pytest.mark.parametrize(
    "spec,generators", [("z8", [1]), ("s3", [1, 3]), ("k4", [1, 2])], ids=["z8", "s3", "k4"]
)
def test_build_tokens_applies_one_collective_per_element(
    spec, generators, context_for, monkeypatch
):
    # the orbit is one batched collective, row g under U_g; the closure check
    # adds one (d, d) collective per generator on the whole stack: z8's
    # generator, k4's decomposition, and for s3 the rotation (123) and then
    # (12)(3), the lowest index outside the rotations
    ctx = context_for(spec)
    order, d, r = ctx.group.order, ctx.rep.dim, ctx.r
    calls = []
    original = codec._collective_rows

    def spy(rows, u, n, targets):
        calls.append((rows.shape, u))
        return original(rows, u, n, targets)

    monkeypatch.setattr(codec, "_collective_rows", spy)
    tokens = build_tokens(ctx.rep, r, ctx.tokens.fiducial)
    (shape, orbit), *closure = calls
    assert shape == (order, d**r) and np.array_equal(orbit, ctx.rep.matrices)
    assert [u.shape for _, u in closure] == [(d, d)] * len(generators)
    assert all(np.array_equal(u, ctx.rep.matrices[s]) for (_, u), s in zip(closure, generators))
    for i, token in enumerate(tokens.tokens):
        want = apply_collective(ctx.tokens.fiducial, ctx.rep.matrices[i])
        assert np.array_equal(token.amps, want.amps)
        assert np.array_equal(token.amps, ctx.tokens.tokens[i].amps)
    assert tokens.gram_residue == ctx.tokens.gram_residue


@pytest.mark.parametrize("spec, m", [("z2", 11), ("z5", 9), ("z8", 9), ("z12", 5),
                                     ("k4", 11), ("s3", 3), ("z3:3", 7)])
def test_round_trip_values_match_the_gemm_kernel(spec, m, context_for, monkeypatch):
    # the monomial collective against the GEMM on every step of a round trip, at
    # m = 1 and at an m whose encode, transmit or decode collective is monomial
    # (z2 and k4: all three): at d = 2 every value (a zero may change sign) and
    # every report field is the GEMM's; at d = 3 values agree to 1e-15 and the
    # outcomes are the same
    import dfscodec.statevec as statevec

    ctx = context_for(spec)
    channel = uniform_channel(ctx.rep)
    runs = []
    for detector in (statevec._monomial, lambda op: None):
        monkeypatch.setattr(statevec, "_monomial", detector)
        runs.append([
            run_roundtrip(ctx, channel, m=size, message_seed=seed, channel_seed=seed + 1,
                          measure_seed=seed + 2)
            for size in (1, m) for seed in (1, 5)
        ])
    for got, want in zip(*runs):
        assert got.report.outcome_index == want.report.outcome_index
        assert got.report.applied_element == want.report.applied_element
        for a, b in [(got.encoded, want.encoded), (got.decoded, want.decoded)]:
            if ctx.rep.dim == 2:
                assert np.array_equal(a.amps, b.amps)
            else:
                assert np.max(np.abs(a.amps - b.amps)) <= 1e-15
        if ctx.rep.dim == 2:
            assert got.report.perp_probability == want.report.perp_probability
            assert got.report.roundtrip_fidelity == want.report.roundtrip_fidelity


def _full_closure_loop(tokens):
    """The |G| loop the generator certificate replaces: U_k^{(x)r} on the whole token
    stack for every element k; the largest distance ||U_k t_i - t_{ki}|| and overlap
    deviation |<t_{ki}|U_k t_i> - 1| over all |G|^2 pairs."""
    rep, r, stack = tokens.rep, tokens.r, tokens.stack
    distance = deviation = 0.0
    for k in range(rep.group.order):
        moved = codec._collective_rows(stack, rep.matrices[k], r, range(r))
        targets = stack[rep.group.cayley[k]]
        distance = max(distance, float(np.max(np.linalg.norm(moved - targets, axis=1))))
        overlaps = np.einsum("ij,ij->i", targets.conj(), moved)
        deviation = max(deviation, float(np.max(np.abs(overlaps - 1.0))))
    return distance, deviation


CERTIFIED = [(f"z{n}", "builtin", 2) for n in range(2, 13)] + [
    ("k4", "builtin", 2),
    ("s3", "builtin-2d", 2),
    ("z4xz2", "regular", 2),
    ("z3", "builtin", 3),
    ("z5", "builtin", 5),
]


@pytest.mark.parametrize("name,spec,dim", CERTIFIED, ids=str)
def test_generator_certificate_bounds_the_full_closure_loop(name, spec, dim):
    # the bound certified on the generators holds for every pair, as the full loop
    # measures it, and both accept; the overlap of a token a norm error off 1 is
    # at most the distance plus that error, which the Gram residue bounds
    tokens = prepare_protocol(builtin_rep(builtin_group(name), spec, dim)).tokens
    distance, deviation = _full_closure_loop(tokens)
    assert distance <= tokens.closure_bound <= UNITARY_TOL
    assert deviation <= distance + tokens.gram_residue


def _level_two_rep(theta):
    """z4 on a qutrit, U_g = diag(1, i^g, e^(i theta_g)): the tokens at r = 3 live on
    levels 0 and 1, so closure holds exactly however theta breaks the product law."""
    group = builtin_group("z4")
    mats = np.array([np.diag([1, 1j**g, np.exp(1j * t)]) for g, t in enumerate(theta)])
    return group, mats


def test_product_law_residue_refuses_closure_its_generators_pass():
    exact_group, exact = _level_two_rep([0, 0, 0, 0])
    ctx = prepare_protocol(UnitaryRep.build(exact_group, exact))
    assert ctx.r == 3 and ctx.tokens.closure_bound == 0.0
    # off its product law on level 2 only: U_3 U_3 = U_2 fails by |e^(2i 1e-3) - 1|
    group, mats = _level_two_rep([0, 0, 0, 1e-3])
    broken = UnitaryRep(group=group, dim=3, matrices=mats)
    eps, phases = broken.product_law
    assert phases is None and eps == pytest.approx(2e-3, rel=1e-6)
    # the tokens are closed (the full loop passes, and delta is 0), but nothing
    # certifies the elements beyond the generator
    tokens = ctx.tokens
    assert _full_closure_loop(tokens)[1] <= UNITARY_TOL
    with pytest.raises(
        ConditionTwoViolated,
        match=r"^closure bound L\*\(delta \+ r\*d\*eps \+ c\) = "
        r"3\*\(0\.000e\+00 \+ 3\*3\*2\.000e-03 \+ 0\.000e\+00\) = 5\.400e-02 exceeds 1\.0e-09$",
    ):
        build_tokens(broken, 3, tokens.fiducial)


def test_cocycle_term_refuses_a_projective_rep_its_generators_pass():
    # the Pauli set with U_3 rephased by e^(i theta): at r = 2 a generator moves a
    # token by at most delta = |e^(2i theta) - 1| = 4e-10, so L delta = 8e-10 passes,
    # but omega(3, 3)^2 = e^(4i theta) puts c at 8e-10 and L (delta + c) over 1e-9
    group = builtin_group("k4")
    mats = pauli_rep(group).matrices.copy()
    mats[3] *= np.exp(2e-10j)
    rep = UnitaryRep.build(group, mats, projective=True)
    with pytest.raises(ConditionTwoViolated) as info:
        prepare_protocol(rep)
    delta, eps, cocycle, bound = map(float, re.fullmatch(
        r"closure bound .* = 2\*\((\S+) \+ 2\*2\*(\S+) \+ (\S+)\) = (\S+) exceeds 1\.0e-09",
        str(info.value),
    ).groups())
    assert 2 * (delta + 4 * eps) <= UNITARY_TOL < bound
    assert cocycle == pytest.approx(8e-10, rel=1e-3)


def test_build_fiducial_requires_regular_containment(context_for):
    ctx = context_for("z3")
    with pytest.raises(RegularRepMissing):
        build_fiducial(ctx.rep, 1, ctx.table)


def test_build_fiducial_requires_irrep_matrices_for_2d_blocks():
    group = builtin_group("s3")
    full = builtin_character_table(group)
    stripped = CharacterTable.build(group, full.dims, full.chars, None)
    with pytest.raises(MissingIrrepMatrices):
        build_fiducial(s3_two_dim_rep(group), 3, stripped)


def _dense_reference_fiducial(rep, r, table) -> np.ndarray:
    """The fiducial assembled from the dense isotypic basis."""
    decomp = isotypic_decompose(rep, r, table)
    amps = np.zeros(decomp.dimension, dtype=np.complex128)
    for comp in decomp.components:
        weight = np.sqrt(comp.dim / rep.group.order)
        for n in range(1, comp.dim + 1):
            amps += weight * decomp.block_vector(comp.irrep, n, n)
    return StateVector.from_amplitudes(rep.dim, r, amps, normalize=True).amps


# (group, rep, dim, r or None for min_r); every `tokens build` of the benchmark
# matrix, plus z2xz2; the round-trip channels z8, k4 and s3 (r = 6) are among them
EXACT_FIDUCIALS = [(f"z{n}", "builtin", 2, None) for n in range(2, 9)] + [
    ("k4", "builtin", 2, None),
    ("z2xz2", "builtin", 2, None),
    ("z3", "builtin", 3, None),
    ("z5", "builtin", 5, None),
    ("z4xz2", "regular", 2, None),
]
# S3's second carrier row goes through the collective kernel, not a dense
# projector, so it may differ from the dense basis in the last bits
S3_FIDUCIALS = [("s3", "builtin-2d", 2, r) for r in range(3, 7)]


@pytest.mark.parametrize("spec", EXACT_FIDUCIALS + S3_FIDUCIALS, ids=str)
def test_fiducial_matches_the_dense_decomposition(spec):
    name, rep_spec, dim, r = spec
    group = builtin_group(name)
    rep = builtin_rep(group, rep_spec, dim)
    table = builtin_character_table(group)
    r = r or min_r(rep, table)
    got = build_fiducial(rep, r, table).amps
    want = _dense_reference_fiducial(rep, r, table)
    if spec in EXACT_FIDUCIALS:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("spec", ["z8", "k4", "s3"])
def test_preparation_builds_no_dense_decomposition(spec, monkeypatch):
    from conftest import make_context

    calls = []

    def refuse(name):
        return lambda *args: pytest.fail(f"{name} called")

    def spy(*args):
        calls.append(args)
        return isotypic_decompose(*args)

    monkeypatch.setattr(reps, "tensor_power_matrices", refuse("tensor_power_matrices"))
    monkeypatch.setattr(reps, "isotypic_decompose", refuse("isotypic_decompose"))
    monkeypatch.setattr(codec, "isotypic_decompose", refuse("isotypic_decompose"))
    ctx = make_context(spec)
    monkeypatch.undo()
    # the dense reference is built once, when first read
    monkeypatch.setattr(codec, "isotypic_decompose", spy)
    first, second = ctx.decomposition, ctx.decomposition
    assert first is second and len(calls) == 1
    assert calls[0][1] == ctx.r


def test_diagonal_multiplicities_are_certified(monkeypatch):
    # a multiplicity vector that disagrees with the digit-count census
    from dfscodec.reps import MultiplicityVector

    real = codec.multiplicities

    def swapped(rep, table, r):
        gammas = list(real(rep, table, r).gammas)
        gammas[0], gammas[1] = gammas[1], gammas[0]
        return MultiplicityVector(power=r, gammas=tuple(gammas))

    monkeypatch.setattr(codec, "multiplicities", swapped)
    group = builtin_group("z8")
    with pytest.raises(NumericalDegeneracy, match="diagonal states for multiplicity"):
        build_fiducial(zn_phase_rep(group), 7, builtin_character_table(group))


def test_z16_roundtrip_at_fidelity_one():
    # r = 15: the dense 2^15 x 2^15 basis is never built
    ctx = prepare_protocol(zn_phase_rep(builtin_group("z16")))
    assert ctx.r == 15
    res = run_roundtrip(
        ctx, uniform_channel(ctx.rep), m=1, message_seed=1, channel_seed=2, measure_seed=3
    )
    assert res.report.roundtrip_fidelity >= 1 - 1e-9
    assert res.report.perp_probability <= 1e-10


# --- encoding -----------------------------------------------------------------


def test_k4_encoded_state_matches_hand_built_four_terms(context_for, rng):
    # oracle: assemble the four-term state from hardcoded tokens and Paulis
    ctx = context_for("k4")
    phi = random_state(2, 1, rng)
    tok = {
        "e": np.array([1, 1, 0, 0]) * INV_SQRT2,
        "x": np.array([0, 0, 1, 1]) * INV_SQRT2,
        "y": np.array([0, 0, -1, 1]) * INV_SQRT2,
        "z": np.array([1, -1, 0, 0]) * INV_SQRT2,
    }
    ops = {
        "e": np.eye(2),
        "x": np.array([[0, 1], [1, 0]]),
        "y": np.array([[0, 1], [-1, 0]]),
        "z": np.diag([1, -1]),
    }
    expected = np.zeros(8, dtype=complex)
    for label in ("e", "x", "y", "z"):
        expected += np.kron(tok[label], ops[label] @ phi.amps)
    expected /= 2.0
    got = encode(ctx.tokens, phi)
    np.testing.assert_allclose(got.amps, expected, atol=1e-12)


def test_trivial_group_encoding_is_product(context_for, rng):
    ctx = context_for("z1")
    phi = random_state(2, 2, rng)
    chi = encode(ctx.tokens, phi)
    np.testing.assert_allclose(
        chi.amps, product_state(ctx.tokens.fiducial, phi).amps, atol=1e-12
    )


def test_z3_encoding_has_three_terms(context_for, rng):
    ctx = context_for("z3")
    phi = random_state(2, 1, rng)
    chi = encode(ctx.tokens, phi)
    rebuilt = sum(
        np.kron(
            ctx.tokens.tokens[g].amps,
            apply_collective(phi, ctx.rep.matrices[g]).amps,
        )
        for g in range(3)
    ) / np.sqrt(3)
    np.testing.assert_allclose(chi.amps, rebuilt, atol=1e-12)


@pytest.mark.parametrize(
    "name, rep_spec, dim",
    [("z8", "builtin", 2), ("s3", "builtin-2d", 2), ("k4", "builtin", 2),
     ("z3", "builtin", 3), ("z4xz2", "regular", 2)],
    ids=str,
)
def test_encode_equals_the_per_element_sum(name, rep_spec, dim, rng):
    group = builtin_group(name)
    ctx = prepare_protocol(builtin_rep(group, rep_spec, dim))
    message = random_state(ctx.rep.dim, 2 if ctx.rep.dim < 8 else 1, rng)
    want = np.zeros(ctx.rep.dim ** (ctx.r + message.n), dtype=np.complex128)
    for token, u in zip(ctx.tokens.tokens, ctx.rep.matrices):
        want += np.outer(token.amps, apply_collective(message, u).amps).reshape(-1)
    want /= np.sqrt(group.order)
    assert np.array_equal(encode(ctx.tokens, message).amps, want)


@pytest.mark.parametrize("spec", ["z8", "z16", "z3:3", "k4", "s3"])
def test_superpose_on_the_token_support_keeps_the_bytes_of_the_full_sum(spec, context_for, rng):
    # a diagonal rep's |G| tokens live on |G| basis states, a dense rep's on all d^r;
    # the rows off that support stay +0.0, as in the sum over every row, and the
    # rotated rows carry -0.0 parts so that the sign of every zero is compared
    tokens = context_for(spec).tokens
    order, size = tokens.stack.shape
    rotated = rng.normal(size=(order, 8)) + 1j * rng.normal(size=(order, 8))
    pairs = rotated.view(np.float64)
    pairs[rng.random(pairs.shape) < 0.25] = -0.0
    want = np.zeros((size, 8), dtype=np.complex128)
    for token, row in zip(tokens.stack, rotated):
        want += np.outer(token, row)
    want /= np.sqrt(order)
    assert tokens.superpose(rotated).tobytes() == want.reshape(-1).tobytes()
    live = np.count_nonzero(np.any(tokens.stack != 0, axis=0))
    assert live == (order if spec.startswith("z") else size)


def test_encode_dimension_mismatch(context_for, rng):
    ctx = context_for("z3")
    with pytest.raises(DimensionMismatch):
        encode(ctx.tokens, random_state(3, 1, rng))


# --- channel invariance ---------------------------------------------------------


@pytest.mark.parametrize("spec", ["z3", "z4", "z8", "z3:3", "s3"])
def test_encoded_state_invariant_under_every_element(spec, context_for, rng):
    ctx = context_for(spec)
    phi = random_state(ctx.rep.dim, 1, rng)
    chi = encode(ctx.tokens, phi)
    for g in range(ctx.group.order):
        out, applied = transmit(fixed_channel(ctx.rep, g), chi)
        assert applied == g
        assert abs(inner(chi, out) - 1.0) < 1e-9  # equality with phase


def invariance_certificate(tokens, m: int, trials: int, seed: int = 0) -> float:
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


def group_average_projector(tokens) -> np.ndarray:
    """(1/|G|) sum of token projectors; commutes with every collective operator."""
    d, r = tokens.rep.dim, tokens.r
    check_entries(d ** (2 * r), f"a projector of {d}**{r} x {d}**{r}")
    out = np.zeros((d**r, d**r), dtype=np.complex128)
    for t in tokens.tokens:
        out += np.outer(t.amps, t.amps.conj())
    return out / tokens.group.order


def test_invariance_certificate_small(context_for):
    for spec, m in [("z3", 1), ("s3", 1), ("z4", 2)]:
        ctx = context_for(spec)
        assert invariance_certificate(ctx.tokens, m, trials=5, seed=3) <= 1e-9


def test_k4_certificate_even_message_count(context_for):
    # the Pauli set composes with plus-minus signs, which square away for even m
    ctx = context_for("k4")
    assert invariance_certificate(ctx.tokens, 2, trials=5, seed=3) <= 1e-10


def test_transmit_on_unencoded_state_disturbs_it(context_for):
    ctx = context_for("z3")
    plus = StateVector.from_amplitudes(2, 1, np.array([1, 1]) * INV_SQRT2)
    out, _ = transmit(fixed_channel(ctx.rep, 1), plus)
    # analytic: |<+|U|+>|^2 = |1 + omega|^2 / 4 = 1/4
    assert abs(fidelity(plus, out) - 0.25) < 1e-12


def test_group_average_projector_commutes(context_for):
    for spec in ("k4", "z3", "s3"):
        ctx = context_for(spec)
        proj = group_average_projector(ctx.tokens)
        for g in range(ctx.group.order):
            coll = reduce(np.kron, [ctx.rep.matrices[g]] * ctx.r)
            assert np.max(np.abs(coll @ proj - proj @ coll)) < 1e-9


def test_group_average_projector_is_refused_before_allocating(context_for, monkeypatch):
    from dfscodec.errors import ResourceLimit

    ctx = context_for("z14")
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: pytest.fail("qr ran"))
    monkeypatch.setattr(np, "zeros", lambda *a, **k: pytest.fail("zeros ran"))
    with pytest.raises(ResourceLimit, match="over the budget"):
        group_average_projector(ctx.tokens)


# --- decode -------------------------------------------------------------------


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_roundtrip_every_fixed_element(spec, context_for):
    ctx = context_for(spec)
    for g in range(ctx.group.order):
        channel = fixed_channel(ctx.rep, g)
        for m in (1, 2):
            res = run_roundtrip(
                ctx, channel, m=m, message_seed=11 * g + m, measure_seed=5
            )
            assert res.report.roundtrip_fidelity >= 1 - 1e-9
            assert res.report.perp_probability <= 1e-10
            assert res.report.applied_element == g


def test_decode_every_outcome_returns_message(context_for, rng):
    # brute force: drive the seed until every outcome has been sampled
    ctx = context_for("z3")
    phi = random_state(2, 1, rng)
    chi = encode(ctx.tokens, phi)
    seen = {}
    for seed in range(200):
        message, report = decode(ctx.tokens, chi, seed)
        seen.setdefault(report.outcome_index, fidelity(message, phi))
        if len(seen) == ctx.group.order:
            break
    assert sorted(seen) == list(range(ctx.group.order))
    assert all(f >= 1 - 1e-9 for f in seen.values())


def test_decode_outcome_distribution_uniform_and_channel_independent(context_for):
    for spec in GROUP_SPECS:
        ctx = context_for(spec)
        rng = np.random.default_rng(17)
        phi = random_state(ctx.rep.dim, 1, rng)
        chi = encode(ctx.tokens, phi)
        order = ctx.group.order
        for g in range(order):
            moved, _ = transmit(fixed_channel(ctx.rep, g), chi)
            probs = decode_outcome_probabilities(ctx.tokens, moved)
            np.testing.assert_allclose(probs[:-1], np.full(order, 1 / order), atol=1e-10)
            assert probs[-1] <= 1e-10


def test_decode_outcome_chi_square_at_ten_thousand_samples(context_for):
    ctx = context_for("k4")
    rng = np.random.default_rng(23)
    chi = encode(ctx.tokens, random_state(2, 1, rng))
    counts = np.zeros(4)
    for seed in range(10_000):
        _, report = decode(ctx.tokens, chi, seed)
        counts[report.outcome_index] += 1
    expected = 10_000 / 4
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < 16.27  # chi-square, 3 dof, alpha = 0.001


def test_decode_rejects_state_outside_token_span(context_for):
    ctx = context_for("z3")
    # |10> on the token wires is orthogonal to all three tokens
    corrupted = product_state(basis_state(2, 2, 2), basis_state(2, 1, 0))
    with pytest.raises(PerpOutcome):
        decode(ctx.tokens, corrupted, seed=0)


def test_decode_is_local_per_message_qudit(context_for, rng, monkeypatch):
    ctx = context_for("z3")
    phi = random_state(2, 2, rng)
    chi = encode(ctx.tokens, phi)
    calls = []
    original = codec._collective_rows

    def spy(rows, u, n, targets):
        calls.append((rows.shape, u.shape, n, list(targets)))
        return original(rows, u, n, targets)

    monkeypatch.setattr(codec, "_collective_rows", spy)
    decode(ctx.tokens, chi, seed=4)
    # one collective of a d x d matrix on exactly the m message qudits: the
    # same single-qudit correction on each of them
    assert calls == [((1, 4), (2, 2), 2, [0, 1])]


# (group, rep, dim, r): the diagonal, Pauli, 2-d and regular reps, on qubits and a qutrit
DECODE_PARITY = [
    ("z8", "builtin", 2, None),
    ("s3", "builtin-2d", 2, 6),
    ("k4", "builtin", 2, None),
    ("z3", "builtin", 3, None),
    ("z4xz2", "regular", 2, None),
]


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("name,rep_spec,dim,r", DECODE_PARITY, ids=str)
def test_decode_reads_the_row_project_measure_would_keep(name, rep_spec, dim, r, m):
    rep = builtin_rep(builtin_group(name), rep_spec, dim)
    ctx = prepare_protocol(rep, r=r)
    d, r = rep.dim, ctx.r
    vectors = [t.amps for t in ctx.tokens.tokens]
    for seed in range(10):
        message = random_state(d, m, np.random.default_rng(seed))
        received, _ = transmit(uniform_channel(rep), encode(ctx.tokens, message), seed)
        decoded, report = decode(ctx.tokens, received, seed)
        record = project_measure(received, range(r), vectors, seed)
        assert report.outcome_index == record.outcome
        assert report.perp_probability == record.probabilities[-1]
        # contract the post-measurement register against the sampled token, then correct
        row = vectors[record.outcome].conj() @ record.post_state.amps.reshape(d**r, -1)
        expected = apply_collective(
            StateVector.from_amplitudes(d, m, row, normalize=True),
            rep.matrices[rep.group.inv(record.outcome)],
        )
        np.testing.assert_allclose(decoded.amps, expected.amps, rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("name,rep_spec,dim,r", DECODE_PARITY, ids=str)
def test_token_operations_keep_the_bits_of_the_token_tuple(name, rep_spec, dim, r, m):
    # each operation on the frozen stack against the expression over the tuple of
    # token states that it replaced
    rep = builtin_rep(builtin_group(name), rep_spec, dim)
    tokens = prepare_protocol(rep, r=r).tokens
    d, r, order = rep.dim, tokens.r, rep.group.order
    message = random_state(d, m, np.random.default_rng(m))
    want = np.zeros(d ** (r + m), dtype=np.complex128)
    for token, u in zip(tokens.tokens, rep.matrices):
        want += np.outer(token.amps, apply_collective(message, u).amps).reshape(-1)
    want /= np.sqrt(order)
    encoded = encode(tokens, message)
    assert np.array_equal(encoded.amps, want)
    received, _ = transmit(uniform_channel(rep), encoded, m)
    block = received.amps.reshape(d**r, -1)
    rows = np.array([t.amps.conj() @ block for t in tokens.tokens])
    assert np.array_equal(tokens.overlaps(received), rows)
    for element_order in (None, np.random.default_rng(m).permutation(order)):
        picks = range(order) if element_order is None else element_order
        columns = np.column_stack([tokens.tokens[int(e)].amps for e in picks])
        assert np.array_equal(tokens.columns(element_order), columns)
        assert np.array_equal(apply_t_direct(tokens, element_order), columns)
    gram = np.array([[inner(a, b) for b in tokens.tokens] for a in tokens.tokens])
    assert tokens.gram_residue == float(np.max(np.abs(gram - np.eye(order))))


def test_encode_holds_two_registers_and_the_message_orbit(context_for):
    # s3 has r = 3: with m = 12 the register holds 2^15 amplitudes and the message
    # orbit 6 x 2^12; the sum and one term buffer reused across the tokens
    ctx = context_for("s3")
    message = random_state(2, 12, np.random.default_rng(4))
    register, orbit = 2**15 * 16, ctx.group.order * 2**12 * 16
    tracemalloc.start()
    try:
        encode(ctx.tokens, message)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * register + orbit + 64 * 1024


def test_decode_refuses_tokens_certified_only_to_the_orthonormal_tolerance(context_for):
    # a z8 fiducial perturbed by 1e-9 N(0, 1) certifies at a Gram residue between
    # UNITARY_TOL and ORTHONORMAL_TOL: the measurement refuses it from the stored
    # certificate, as its re-check of every token overlap did; encode's norm check
    # refuses the register
    ctx = context_for("z8")
    amps = ctx.tokens.fiducial.amps + 1e-9 * np.random.default_rng(0).normal(size=2**7)
    tokens = build_tokens(ctx.rep, 7, StateVector.from_amplitudes(2, 7, amps, normalize=True))
    assert UNITARY_TOL < tokens.gram_residue <= ORTHONORMAL_TOL
    phi = random_state(2, 1, np.random.default_rng(1))
    received = product_state(tokens.tokens[0], phi)
    refusal = r"^token Gram residue \d\.\d{3}e-09 exceeds 1\.0e-09$"
    with pytest.raises(NonOrthogonalProjectors, match=refusal):
        decode(tokens, received, 0)
    with pytest.raises(NonOrthogonalProjectors, match=refusal):
        decode_outcome_probabilities(tokens, received)
    with pytest.raises(DimensionMismatch, match="state norm"):
        encode(tokens, phi)


def test_decode_reads_the_certificate_not_the_tokens(context_for, rng):
    # the same orthonormal stack under a certificate that says otherwise is refused
    ctx = context_for("z3")
    chi = encode(ctx.tokens, random_state(2, 1, rng))
    assert decode(ctx.tokens, chi, 0)[1].perp_probability <= 1e-12
    doubted = dataclasses.replace(ctx.tokens, gram_residue=2 * UNITARY_TOL)
    with pytest.raises(NonOrthogonalProjectors, match="token Gram residue 2.000e-09"):
        decode(doubted, chi, 0)


@pytest.mark.parametrize(
    "measure", [lambda t, s: decode(t, s, 0), decode_outcome_probabilities],
    ids=["decode", "probabilities"],
)
def test_decode_refuses_received_states_it_cannot_measure(measure, context_for, rng):
    # z3 has r = 2 on qubits: another local dimension, no message qudit, and an
    # unnormalized register whose offered probabilities sum past 1
    tokens = context_for("z3").tokens
    with pytest.raises(DimensionMismatch, match="dimension 3"):
        measure(tokens, random_state(3, 3, rng))
    for n in (1, 2):
        with pytest.raises(DimensionMismatch, match=f"received {n} qudits"):
            measure(tokens, random_state(2, n, rng))
    chi = encode(tokens, random_state(2, 1, rng))
    with pytest.raises(NonOrthogonalProjectors, match="sum to"):
        measure(tokens, StateVector(d=2, n=3, amps=1.01 * chi.amps))


@pytest.mark.parametrize("d", [3, 4, 5])
def test_weyl_channels_round_trip_at_r_equal_d(d):
    # the clock-and-shift set's fusion counts are integral at every power, but only
    # power d is linear: min_r gives r = d, and every element is recovered at m = 1
    from conftest import weyl_rep

    rep = weyl_rep(d)
    ctx = prepare_protocol(rep)
    assert ctx.r == d
    for h in range(rep.group.order):
        res = run_roundtrip(ctx, fixed_channel(rep, h), m=1, message_seed=h, measure_seed=h)
        assert res.report.roundtrip_fidelity >= 1 - 1e-9


def test_decode_builds_no_full_register(context_for):
    # z8 has r = 7: the received register holds 2^15 amplitudes, the message 2^8
    ctx = context_for("z8")
    message = random_state(2, 8, np.random.default_rng(5))
    received, _ = transmit(uniform_channel(ctx.rep), encode(ctx.tokens, message), 5)
    tracemalloc.start()
    try:
        decoded, _ = decode(ctx.tokens, received, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fidelity(decoded, message) >= 1 - 1e-9
    assert peak < received.amps.nbytes / 2


def test_decode_builds_its_rows_once(context_for):
    # s3 has r = 3: with m = 12 the six token rows hold 6 x 2^12 amplitudes
    ctx = context_for("s3")
    m = 12
    received = encode(ctx.tokens, random_state(2, m, np.random.default_rng(2)))
    rows_bytes = ctx.group.order * 2**m * 16
    tracemalloc.start()
    try:
        decode(ctx.tokens, received, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * rows_bytes


def test_transmit_samples_as_the_cumulative_search(context_for):
    ctx = context_for("z8")
    probabilities = np.random.default_rng(3).random(8)
    channel = distribution_channel(ctx.rep, probabilities / probabilities.sum())
    state = encode(ctx.tokens, basis_state(2, 1, 0))
    for seed in range(200):
        rng = np.random.default_rng(seed)
        cumulative = np.cumsum(channel.probabilities)
        expected = int(np.searchsorted(cumulative, float(rng.random()), side="right"))
        expected = min(expected, ctx.group.order - 1)
        assert transmit(channel, state, seed)[1] == expected


def test_distribution_independence(context_for):
    rng = np.random.default_rng(31)
    for spec in GROUP_SPECS:
        ctx = context_for(spec)
        for trial in range(5):
            raw = rng.random(ctx.group.order) + 1e-3
            channel = distribution_channel(ctx.rep, raw / raw.sum())
            res = run_roundtrip(
                ctx, channel, m=1, message_seed=trial, channel_seed=trial, measure_seed=trial
            )
            assert res.report.roundtrip_fidelity >= 1 - 1e-9


def test_product_group_protocol_end_to_end():
    # Z4 x Z2 on a qutrit: diag(1, i^a, (-1)^b) keeps the trivial character,
    # so powers accumulate every irrep; the protocol then runs exactly
    from dfscodec.reps import UnitaryRep

    group = builtin_group("z4xz2")
    mats = np.array([np.diag([1.0, 1j ** (g // 2), (-1.0) ** (g % 2)]) for g in range(8)])
    ctx = prepare_protocol(UnitaryRep.build(group, mats))
    assert ctx.r == 4
    for element in (0, 3, 5, 7):
        res = run_roundtrip(
            ctx, fixed_channel(ctx.rep, element), m=1, message_seed=element, measure_seed=1
        )
        assert res.report.roundtrip_fidelity >= 1 - 1e-9
        assert res.report.rate == Fraction(1, 5)


def test_decode_single_token_input_deterministic(context_for):
    # a one-token input (no superposition, no channel) must decode to outcome 0
    ctx = context_for("z3")
    phi = basis_state(2, 1, 1)
    received = product_state(ctx.tokens.tokens[0], phi)
    for seed in (0, 1, 99):
        message, report = decode(ctx.tokens, received, seed)
        assert report.outcome_index == 0
        assert fidelity(message, phi) >= 1 - 1e-12


def test_transmit_identity_element_is_noop(context_for):
    ctx = context_for("s3")
    rng = np.random.default_rng(2)
    state = random_state(2, ctx.r + 1, rng)
    out, applied = transmit(fixed_channel(ctx.rep, 0), state)
    assert applied == 0
    np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)


def test_transmit_sampling_reproducible(context_for):
    ctx = context_for("z8")
    channel = uniform_channel(ctx.rep)
    state = encode(ctx.tokens, basis_state(2, 1, 0))
    _, first = transmit(channel, state, seed=99)
    _, second = transmit(channel, state, seed=99)
    assert first == second


# --- measure and realign --------------------------------------------------------


def test_measure_and_realign_k4_exhaustive(context_for, rng):
    ctx = context_for("k4")
    phi = random_state(2, 1, rng)
    recovered = 0
    for i in range(4):
        for k in range(4):
            out, report = measure_and_realign(
                ctx.tokens,
                phi,
                fixed_channel(ctx.rep, k),
                alice_element=i,
                measure_seed=0,
            )
            assert report.outcome_index == ctx.group.mul(k, i)
            if fidelity(out, phi) >= 1 - 1e-12:
                recovered += 1
    assert recovered == 16


def test_measure_and_realign_z3_pairs(context_for, rng):
    ctx = context_for("z3")
    phi = random_state(2, 2, rng)
    for i in range(3):
        for k in range(3):
            out, report = measure_and_realign(
                ctx.tokens,
                phi,
                fixed_channel(ctx.rep, k),
                alice_element=i,
                measure_seed=1,
            )
            assert report.outcome_index == (k + i) % 3
            assert fidelity(out, phi) >= 1 - 1e-12


# --- report arithmetic ----------------------------------------------------------


def test_rate_is_exact_fraction(context_for):
    ctx = context_for("z8")
    res = run_roundtrip(ctx, fixed_channel(ctx.rep, 0), m=1, message_seed=0, measure_seed=0)
    assert res.report.rate == Fraction(1, 8)
    rates = [Fraction(m, m + 7) for m in (1, 7, 70)]
    assert rates == [Fraction(1, 8), Fraction(1, 2), Fraction(70, 77)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_monotone_toward_one(context_for):
    ctx = context_for("z4")
    reported = []
    for m in (1, 2):
        res = run_roundtrip(
            ctx, fixed_channel(ctx.rep, 1), m=m, message_seed=0, measure_seed=0
        )
        assert res.report.rate == Fraction(m, m + ctx.r)
        reported.append(res.report.rate)
    assert reported[1] > reported[0]
    rates = [Fraction(m, m + ctx.r) for m in (1, 2, 4, 9, 30, 1000)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert all(rate < 1 for rate in rates)


def test_channel_distribution_validation(context_for):
    ctx = context_for("z3")
    with pytest.raises(ValueError):
        distribution_channel(ctx.rep, [0.5, 0.5])
    with pytest.raises(ValueError):
        distribution_channel(ctx.rep, [0.5, 0.4, 0.2])
    with pytest.raises(ValueError):
        fixed_channel(ctx.rep, 3)


def test_distribution_channel_leaves_the_callers_array_writable(context_for):
    ctx = context_for("z3")
    p = np.full(3, 1 / 3)
    channel = distribution_channel(ctx.rep, p)
    assert not channel.probabilities.flags.writeable
    p[0] = 0.5  # the caller's array stays writable
    assert channel.probabilities[0] == 1 / 3


@given(
    spec=st.sampled_from(GROUP_SPECS),
    m=st.integers(1, 2),
    message_seed=st.integers(0, 10**6),
    channel_seed=st.integers(0, 10**6),
    measure_seed=st.integers(0, 10**6),
)
def test_roundtrip_fuzz(spec, m, message_seed, channel_seed, measure_seed):
    from conftest import make_context

    if spec not in _FUZZ_CONTEXTS:
        _FUZZ_CONTEXTS[spec] = make_context(spec)
    ctx = _FUZZ_CONTEXTS[spec]
    res = run_roundtrip(
        ctx,
        uniform_channel(ctx.rep),
        m=m,
        message_seed=message_seed,
        channel_seed=channel_seed,
        measure_seed=measure_seed,
    )
    assert res.report.roundtrip_fidelity >= 1 - 1e-9
    assert res.report.perp_probability <= 1e-10
    assert res.report.rate == Fraction(m, m + ctx.r)


def test_prepare_protocol_refuses_an_oversized_token_stack_before_building(monkeypatch):
    # one 2^22-amplitude register fits the budget; the eight z8 tokens do not
    from dfscodec.errors import ResourceLimit

    monkeypatch.setattr(codec, "build_fiducial", lambda *args: pytest.fail("fiducial built"))
    with pytest.raises(ResourceLimit, match="8 tokens of 2\\*\\*22 amplitudes"):
        prepare_protocol(zn_phase_rep(builtin_group("z8")), r=22)


def test_oversized_encoded_register_is_refused_before_allocating(monkeypatch):
    # z8 has r = 7; 7 + 24 qubits is 2^31 amplitudes, over the dense budget
    from types import SimpleNamespace

    from conftest import make_context
    from dfscodec.errors import ResourceLimit

    ctx = make_context("z8")
    monkeypatch.setattr(codec, "random_state", lambda *args: pytest.fail("message drawn"))
    with pytest.raises(ResourceLimit):
        run_roundtrip(ctx, uniform_channel(ctx.rep), m=24)
    # encode reads only d and n of the message before refusing
    with pytest.raises(ResourceLimit):
        encode(ctx.tokens, SimpleNamespace(d=2, n=24))
