from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dfscodec.codec as codec
import dfscodec.reps as reps
from dfscodec.codec import (
    build_fiducial,
    build_tokens,
    decode,
    decode_outcome_probabilities,
    distribution_channel,
    encode,
    fixed_channel,
    group_average_projector,
    invariance_certificate,
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
    NumericalDegeneracy,
    PerpOutcome,
    RegularRepMissing,
)
from dfscodec.groups import builtin_group
from dfscodec.reps import (
    CharacterTable,
    UnitaryRep,
    builtin_character_table,
    builtin_rep,
    isotypic_decompose,
    min_r,
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


@pytest.mark.parametrize("spec", ["z8", "s3", "k4"])
def test_build_tokens_applies_one_collective_per_element(spec, context_for, monkeypatch):
    ctx = context_for(spec)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return apply_collective(*args, **kwargs)

    monkeypatch.setattr(codec, "apply_collective", spy)
    tokens = build_tokens(ctx.rep, ctx.r, ctx.tokens.fiducial)
    assert len(calls) == ctx.group.order
    for got, want in zip(tokens.tokens, ctx.tokens.tokens):
        assert np.array_equal(got.amps, want.amps)
    assert tokens.gram_residue == ctx.tokens.gram_residue


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
    original = codec.apply_local

    def spy(state, u, target):
        calls.append((target, u.shape))
        return original(state, u, target)

    monkeypatch.setattr(codec, "apply_local", spy)
    decode(ctx.tokens, chi, seed=4)
    assert len(calls) == 2  # one single-qudit correction per message qudit
    assert all(shape == (2, 2) for _, shape in calls)
    assert [t for t, _ in calls] == [0, 1]


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
