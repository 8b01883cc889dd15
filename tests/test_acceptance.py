"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Tolerances are fixed here, not configurable.
"""

from fractions import Fraction

import numpy as np

from dfscodec.circuits import (
    build_encoding_pipeline,
    logical_depth,
    network_token_set,
    synth_t_cyclic,
    synth_w,
)
from dfscodec.codec import (
    decode_outcome_probabilities,
    distribution_channel,
    encode,
    fixed_channel,
    measure_and_realign,
    run_roundtrip,
    transmit,
)
from dfscodec.groups import builtin_group, cyclic_group
from dfscodec.reps import (
    builtin_character_table,
    compound_character,
    min_r,
    s3_two_dim_rep,
    zn_phase_rep,
)
from dfscodec.statevec import fidelity, random_state
from dfscodec.su2 import (
    block_structure_certificate,
    coupled_blocks,
    euler_unitary,
    logical_qubit_roundtrip,
    random_su2,
    wigner_d_three_half_entries,
)
from conftest import make_context

PROTOCOL_SPECS = ["k4", "z3", "z4", "z8", "z3:3", "s3"]
_CTX = {}


def ctx(spec):
    if spec not in _CTX:
        _CTX[spec] = make_context(spec)
    return _CTX[spec]


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def gamma_residue(rep, table, n) -> float:
    chi = compound_character(rep, table.classes)
    sizes = table.classes.class_sizes
    raw = (table.chars.conj() * sizes) @ (chi**n) / rep.group.order
    return float(np.max(np.abs(raw - np.round(raw.real))))


def test_criterion_1_multiplicity_tables():
    z3 = cyclic_group(3)
    rep = zn_phase_rep(z3, 2)
    table = builtin_character_table(z3)
    from dfscodec.reps import multiplicities

    assert multiplicities(rep, table, 1).gammas == (1, 1, 0)
    assert multiplicities(rep, table, 2).gammas == (1, 2, 1)
    assert gamma_residue(rep, table, 1) < 1e-6
    assert gamma_residue(rep, table, 2) < 1e-6

    s3 = builtin_group("s3")
    rep3 = s3_two_dim_rep(s3)
    table3 = builtin_character_table(s3)
    assert multiplicities(rep3, table3, 1).gammas == (0, 0, 1)
    assert multiplicities(rep3, table3, 2).gammas == (1, 1, 1)
    assert multiplicities(rep3, table3, 3).gammas == (1, 1, 3)
    for n in (1, 2, 3):
        assert gamma_residue(rep3, table3, n) < 1e-6
    report("criterion 1 PASS: multiplicity tables reproduced with residue < 1e-6")


def test_criterion_2_minimal_ancilla_counts():
    z3 = cyclic_group(3)
    assert min_r(zn_phase_rep(z3, 2), builtin_character_table(z3)) == 2
    s3 = builtin_group("s3")
    assert min_r(s3_two_dim_rep(s3), builtin_character_table(s3)) == 3
    for n in range(2, 9):
        for d in (2, 3):
            group = cyclic_group(n)
            expected = -(-(n - 1) // (d - 1))
            assert min_r(zn_phase_rep(group, d), builtin_character_table(group)) == expected
    report("criterion 2 PASS: minimal ancilla counts (z3: 2, s3: 3, cyclic ceiling formula)")


def test_criterion_3_token_fixtures():
    inv_sqrt2 = 1 / np.sqrt(2)
    k4 = ctx("k4")
    np.testing.assert_allclose(
        k4.tokens.fiducial.amps, [inv_sqrt2, inv_sqrt2, 0, 0], atol=1e-12
    )
    expected_tokens = [
        [inv_sqrt2, inv_sqrt2, 0, 0],
        [0, 0, inv_sqrt2, inv_sqrt2],
        [0, 0, -inv_sqrt2, inv_sqrt2],
        [inv_sqrt2, -inv_sqrt2, 0, 0],
    ]
    for token, expected in zip(k4.tokens.tokens, expected_tokens):
        np.testing.assert_allclose(token.amps, expected, atol=1e-12)

    z3 = ctx("z3")
    np.testing.assert_allclose(
        z3.tokens.fiducial.amps, np.array([1, 1, 0, 1]) / np.sqrt(3), atol=1e-12
    )
    for n in range(2, 9):
        context = ctx(f"z{n}")
        expected = np.zeros(2 ** (n - 1))
        for lam in range(n):
            expected[2**lam - 1] = 1 / np.sqrt(n)
        np.testing.assert_allclose(context.tokens.fiducial.amps, expected, atol=1e-12)
    report("criterion 3 PASS: token fixtures amplitude-exact (k4 signs, z3, staircase)")


def test_criterion_4_protocol_exactness():
    rng = np.random.default_rng(404)
    worst_fidelity = 1.0
    worst_perp = 0.0
    for spec in PROTOCOL_SPECS:
        context = ctx(spec)
        order = context.group.order
        for element in range(order):
            channel = fixed_channel(context.rep, element)
            for m in (1, 2):
                for _ in range(20):
                    message = random_state(context.rep.dim, m, rng)
                    res = run_roundtrip(
                        context, channel, m=m, message=message, measure_seed=int(rng.integers(1 << 30))
                    )
                    worst_fidelity = min(worst_fidelity, res.report.roundtrip_fidelity)
                    worst_perp = max(worst_perp, res.report.perp_probability)
        for trial in range(5):
            raw = rng.random(order) + 1e-3
            channel = distribution_channel(context.rep, raw / raw.sum())
            res = run_roundtrip(
                context,
                channel,
                m=1,
                message=random_state(context.rep.dim, 1, rng),
                channel_seed=trial,
                measure_seed=trial,
            )
            worst_fidelity = min(worst_fidelity, res.report.roundtrip_fidelity)
            worst_perp = max(worst_perp, res.report.perp_probability)
    assert worst_fidelity >= 1 - 1e-9
    assert worst_perp <= 1e-10
    report(
        f"criterion 4 PASS: round-trip fidelity >= 1-1e-9 (worst {worst_fidelity:.3e}), "
        f"remainder probability <= 1e-10 (worst {worst_perp:.3e})"
    )


def test_criterion_5_outcome_hiding():
    rng = np.random.default_rng(505)
    worst = 0.0
    for spec in PROTOCOL_SPECS:
        context = ctx(spec)
        order = context.group.order
        chi = encode(context.tokens, random_state(context.rep.dim, 1, rng))
        for element in range(order):
            moved, _ = transmit(fixed_channel(context.rep, element), chi)
            probs = decode_outcome_probabilities(context.tokens, moved)
            worst = max(worst, float(np.max(np.abs(probs[:-1] - 1.0 / order))))
    assert worst <= 1e-10
    report(
        f"criterion 5 PASS: every outcome probability equals 1/|G| within 1e-10 "
        f"(worst deviation {worst:.3e}), independent of the applied element"
    )


def test_criterion_6_gate_count_formulas():
    k4 = builtin_group("k4")
    rep = ctx("k4").rep
    plan3 = synth_w("general", k4, rep, 3)
    plan1 = synth_w("general", k4, rep, 1)
    assert sum(g.cost for g in plan3.gates) == 20
    assert sum(g.cost for g in plan1.gates) == 12
    depths = {logical_depth(synth_w("general", k4, rep, m)) for m in (1, 3, 17)}
    assert depths == {12}

    z8 = builtin_group("z8")
    rep8 = ctx("z8").rep
    cyc = synth_w("cyclic", z8, rep8, 4)
    assert sum(g.cost for g in cyc.gates) == 12
    assert all(g.kind == "controlled" for g in cyc.gates)
    t_plan = synth_t_cyclic(8)
    cnots = [g for g in t_plan.gates if g.kind == "cnot"]
    assert len(cnots) == 10 == (8 - 1) + 3
    report(
        "criterion 6 PASS: emitted gate lists sum to the closed forms "
        "(k4: 20/12, depth 12 for all m; z8 cyclic: 12 controlled, 10 basis-change CNOTs)"
    )


def test_criterion_7_circuit_codec_equivalence():
    rng = np.random.default_rng(707)
    worst = 1.0
    cases = []
    for spec in ["k4", "z2", "z3", "z4", "z5", "z6", "z7", "z8"]:
        context = ctx(spec)
        for m in (1, 2):
            cases.append((spec, "general", build_encoding_pipeline(context.tokens, m, "general"), context.tokens, m))
    for n in (2, 4, 8):
        context = ctx(f"z{n}")
        for m in (1, 2):
            cases.append(
                (f"z{n}", "cyclic", build_encoding_pipeline(context.tokens, m, "cyclic"), context.tokens, m)
            )
            net_tokens = network_token_set(context.rep)
            cases.append(
                (
                    f"z{n}",
                    "cyclic+network",
                    build_encoding_pipeline(net_tokens, m, "cyclic", cyclic_network=True),
                    net_tokens,
                    m,
                )
            )
    for spec, path, pipeline, tokens, m in cases:
        for _ in range(10):
            message = random_state(2, m, rng)
            f = fidelity(pipeline.run(message), encode(tokens, message))
            worst = min(worst, f)
    assert worst >= 1 - 1e-9
    report(
        f"criterion 7 PASS: synthesized encoders match the direct encoder on "
        f"{len(cases)} cases x 10 random messages (worst fidelity {worst:.12f})"
    )


def test_criterion_8_measure_and_realign_sweeps():
    rng = np.random.default_rng(808)
    k4 = ctx("k4")
    phi = random_state(2, 1, rng)
    for i in range(4):
        for k in range(4):
            out, rep_ = measure_and_realign(
                k4.tokens, phi, fixed_channel(k4.rep, k), alice_element=i, measure_seed=2
            )
            assert rep_.outcome_index == k4.group.mul(k, i)
            assert fidelity(out, phi) >= 1 - 1e-12
    z3 = ctx("z3")
    phi3 = random_state(2, 1, rng)
    for i in range(3):
        for k in range(3):
            out, rep_ = measure_and_realign(
                z3.tokens, phi3, fixed_channel(z3.rep, k), alice_element=i, measure_seed=2
            )
            assert rep_.outcome_index == (k + i) % 3
            assert fidelity(out, phi3) >= 1 - 1e-12
    report("criterion 8 PASS: 16/16 (k4) and 9/9 (z3) realign pairs recover exactly")


def test_criterion_9_su2_demo():
    violation = block_structure_certificate(50, seed=11)
    assert violation <= 1e-10
    phi = np.pi / 3
    expected = 0.75 * np.cos(np.pi / 6)
    closed = wigner_d_three_half_entries(phi)[("3/2", "3/2")]
    measured = coupled_blocks(euler_unitary(0.0, phi, 0.0))[0, 0].real
    assert abs(closed - expected) < 1e-12
    assert abs(measured - expected) < 1e-12
    rng = np.random.default_rng(909)
    worst = 1.0
    for _ in range(20):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp = amp / np.linalg.norm(amp)
        worst = min(worst, logical_qubit_roundtrip(amp[0], amp[1], random_su2(rng)))
    assert worst >= 1 - 1e-9
    report(
        f"criterion 9 PASS: block certificate {violation:.2e} <= 1e-10, spin-3/2 "
        f"corner entry matches the closed form, logical round trips >= 1-1e-9"
    )


def test_criterion_10_rate_reporting():
    z8 = ctx("z8")
    assert z8.r == 7
    observed = []
    for m in (1, 7):
        res = run_roundtrip(
            z8, fixed_channel(z8.rep, 3), m=m, message_seed=m, measure_seed=m
        )
        assert res.report.rate == Fraction(m, m + 7)
        observed.append(res.report.rate)
    assert observed == [Fraction(1, 8), Fraction(1, 2)]
    rates = [Fraction(m, m + 7) for m in (1, 7, 70)]
    assert rates == [Fraction(1, 8), Fraction(1, 2), Fraction(70, 77)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert all(r < 1 for r in rates)
    report(
        "criterion 10 PASS: reported rates are exact fractions "
        "(z8: 1/8, 1/2, 70/77), increasing toward 1"
    )
