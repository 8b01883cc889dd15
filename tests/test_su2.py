import numpy as np
import pytest

from dfscodec.errors import BadNormalization
from dfscodec.su2 import (
    LogicalEncoding,
    block_structure_certificate,
    collective_rotation,
    coupled_basis,
    coupled_blocks,
    euler_unitary,
    logical_qubit_roundtrip,
    random_su2,
    run_demo,
    wigner_d_three_half_entries,
)


def test_basis_is_orthonormal():
    v = coupled_basis()
    assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-12


def test_basis_is_one_frozen_module_value():
    v = coupled_basis()
    assert v is coupled_basis() and not v.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        v[0, 0] = 0


def test_basis_amplitudes_square_to_rationals():
    v = coupled_basis()
    squares = np.abs(v) ** 2
    allowed = {0.0, 1.0, 1 / 2, 1 / 3, 2 / 3, 1 / 6}
    for value in squares.reshape(-1):
        assert any(abs(value - a) < 1e-12 for a in allowed)


def test_euler_identity_and_diagonal_cases():
    np.testing.assert_allclose(euler_unitary(0, 0, 0), np.eye(2), atol=1e-15)
    theta = 1.3
    diag = euler_unitary(theta, 0, 0)
    np.testing.assert_allclose(
        diag, np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]), atol=1e-15
    )


def test_determinant_one_over_samples(rng):
    for _ in range(100):
        u = random_su2(rng)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_identity_has_zero_violation():
    b = coupled_blocks(np.eye(2))
    np.testing.assert_allclose(b, np.eye(8), atol=1e-12)


def test_certificate_over_fifty_rotations():
    assert block_structure_certificate(50, seed=11) <= 1e-10


def test_degeneracy_blocks_identical(rng):
    u = random_su2(rng)
    b = coupled_blocks(u)
    np.testing.assert_allclose(b[4:6, 4:6], b[6:8, 6:8], atol=1e-12)
    assert np.max(np.abs(b[:4, 4:])) < 1e-12


def test_wigner_spot_values_match_block():
    phi = np.pi / 3
    entries = wigner_d_three_half_entries(phi)
    block = coupled_blocks(euler_unitary(0.0, phi, 0.0))[:4, :4]
    order = ["3/2", "1/2", "-1/2", "-3/2"]
    for col, m in enumerate(order):
        if ("3/2", m) in entries:
            assert abs(block[0, col] - entries[("3/2", m)]) < 1e-12
    assert abs(block[1, 1] - entries[("1/2", "1/2")]) < 1e-12
    assert abs(block[1, 2] - entries[("1/2", "-1/2")]) < 1e-12
    expected = 0.75 * np.cos(np.pi / 6)
    assert abs(entries[("3/2", "3/2")] - expected) < 1e-15


def test_wigner_symmetry_relations():
    phi = 0.9
    entries = wigner_d_three_half_entries(phi)
    block = coupled_blocks(euler_unitary(0.0, phi, 0.0))[:4, :4].real
    # d[m, m'] = (-1)^(m - m') d[m', m] and d[m, m'] = d[-m', -m]
    for i in range(4):
        for j in range(4):
            assert abs(block[i, j] - (-1.0) ** (i - j) * block[j, i]) < 1e-12
            assert abs(block[i, j] - block[3 - j, 3 - i]) < 1e-12
    assert abs(block[0, 0] - entries[("3/2", "3/2")]) < 1e-12


def test_logical_roundtrip_identity():
    assert logical_qubit_roundtrip(1.0, 0.0, np.eye(2)) >= 1 - 1e-12


def test_logical_roundtrip_twenty_random_trials(rng):
    for _ in range(20):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp = amp / np.linalg.norm(amp)
        assert logical_qubit_roundtrip(amp[0], amp[1], random_su2(rng)) >= 1 - 1e-9


def test_logical_roundtrip_with_custom_doublet_coefficients(rng):
    enc = LogicalEncoding(
        c=(np.sqrt(0.5), np.sqrt(0.5)), d=(np.sqrt(0.25), np.sqrt(0.75) * 1j)
    )
    for _ in range(5):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp = amp / np.linalg.norm(amp)
        assert logical_qubit_roundtrip(amp[0], amp[1], random_su2(rng), enc) >= 1 - 1e-9


def test_logical_state_stays_in_spin_half_sector(rng):
    enc = LogicalEncoding()
    state = enc.state(0.6, 0.8)
    coeffs = coupled_basis().conj().T @ state
    assert np.max(np.abs(coeffs[:4])) < 1e-12
    rotated = coupled_basis().conj().T @ (collective_rotation(random_su2(rng)) @ state)
    assert np.max(np.abs(rotated[:4])) < 1e-12


def test_bad_normalization_rejected():
    with pytest.raises(BadNormalization):
        LogicalEncoding(c=(1.0, 1.0))
    with pytest.raises(BadNormalization):
        LogicalEncoding().state(1.0, 1.0)


def test_demo_report_shape():
    report = run_demo(trials=10, seed=11)
    assert report["max_block_violation"] <= 1e-10
    assert report["min_roundtrip_fidelity"] >= 1 - 1e-9
    assert report["rate"] == [1, 3]
    assert abs(report["wigner_spot"]["closed_form"] - report["wigner_spot"]["from_block"]) < 1e-12
