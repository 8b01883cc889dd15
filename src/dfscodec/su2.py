"""Three-qubit total-angular-momentum basis and its noiseless-subsystem check.

Collective single-qubit rotations act on three qubits as a direct sum of a
spin-3/2 block and two identical spin-1/2 blocks; the two-fold degeneracy
index of the spin-1/2 sector is untouched by any collective rotation and
carries one logical qubit at rate 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadNormalization
from .limits import EXACT_TOL

_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)


def euler_unitary(theta: float, phi: float, psi: float) -> np.ndarray:
    """Euler-angle parameterization of a special unitary on one qubit."""
    return np.array(
        [
            [
                np.exp(-0.5j * (theta + psi)) * np.cos(phi / 2),
                -np.exp(-0.5j * (theta - psi)) * np.sin(phi / 2),
            ],
            [
                np.exp(0.5j * (theta - psi)) * np.sin(phi / 2),
                np.exp(0.5j * (theta + psi)) * np.cos(phi / 2),
            ],
        ],
        dtype=np.complex128,
    )


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Rotation with uniformly sampled angles; coverage, not exact Haar measure."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    phi = rng.uniform(0.0, np.pi)
    psi = rng.uniform(0.0, 2.0 * np.pi)
    return euler_unitary(theta, phi, psi)


def _coupled_basis() -> np.ndarray:
    """The eight coupled basis vectors as columns, built once into a frozen module value."""
    vecs = np.zeros((8, 8), dtype=np.complex128)

    def ket(bits: str) -> int:
        return int(bits, 2)

    # J = 3/2
    vecs[ket("000"), 0] = 1.0
    for bits in ("001", "010", "100"):
        vecs[ket(bits), 1] = 1.0 / _SQRT3
    for bits in ("110", "101", "011"):
        vecs[ket(bits), 2] = 1.0 / _SQRT3
    vecs[ket("111"), 3] = 1.0
    # J = 1/2, degeneracy 0 (first two qubits antisymmetric)
    vecs[ket("100"), 4] = 1.0 / np.sqrt(2.0)
    vecs[ket("010"), 4] = -1.0 / np.sqrt(2.0)
    vecs[ket("011"), 5] = 1.0 / np.sqrt(2.0)
    vecs[ket("101"), 5] = -1.0 / np.sqrt(2.0)
    # J = 1/2, degeneracy 1 (first two qubits in the symmetric sector)
    vecs[ket("001"), 6] = np.sqrt(2.0 / 3.0)
    vecs[ket("010"), 6] = -1.0 / _SQRT6
    vecs[ket("100"), 6] = -1.0 / _SQRT6
    vecs[ket("110"), 7] = np.sqrt(2.0 / 3.0)
    vecs[ket("101"), 7] = -1.0 / _SQRT6
    vecs[ket("011"), 7] = -1.0 / _SQRT6
    vecs.setflags(write=False)
    return vecs


_COUPLED_BASIS = _coupled_basis()


def coupled_basis() -> np.ndarray:
    """Columns: the eight total-angular-momentum basis vectors, one shared
    read-only array.

    Order: the spin-3/2 quadruplet (M = 3/2 .. -3/2), then the two spin-1/2
    doublets (M = +1/2, -1/2 within each), degeneracy index 0 then 1.
    """
    return _COUPLED_BASIS


def collective_rotation(u: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(u, u), u)


def coupled_blocks(u: np.ndarray) -> np.ndarray:
    """The three-qubit collective rotation expressed in the coupled basis."""
    v = coupled_basis()
    return v.conj().T @ collective_rotation(u) @ v


def block_structure_certificate(trials: int, seed: int = 0) -> float:
    """Max violating entry over sampled rotations.

    Checks: no coupling between the spin sectors, no coupling between the two
    degeneracy blocks, and the two degeneracy blocks are the same matrix.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        b = coupled_blocks(random_su2(rng))
        worst = max(worst, _block_violation(b))
    return worst


def _block_violation(b: np.ndarray) -> float:
    cross_sector = max(
        float(np.max(np.abs(b[:4, 4:]))), float(np.max(np.abs(b[4:, :4])))
    )
    cross_degeneracy = max(
        float(np.max(np.abs(b[4:6, 6:8]))), float(np.max(np.abs(b[6:8, 4:6])))
    )
    mismatch = float(np.max(np.abs(b[4:6, 4:6] - b[6:8, 6:8])))
    return max(cross_sector, cross_degeneracy, mismatch)


def wigner_d_three_half_entries(phi: float) -> dict[tuple[str, str], float]:
    """Closed forms of the independent spin-3/2 small-d matrix entries."""
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    cos_phi = np.cos(phi)
    return {
        ("3/2", "3/2"): (1 + cos_phi) / 2 * c,
        ("3/2", "1/2"): -_SQRT3 * (1 + cos_phi) / 2 * s,
        ("3/2", "-1/2"): _SQRT3 * (1 - cos_phi) / 2 * c,
        ("3/2", "-3/2"): -(1 - cos_phi) / 2 * s,
        ("1/2", "1/2"): (3 * cos_phi - 1) / 2 * c,
        ("1/2", "-1/2"): -(3 * cos_phi + 1) / 2 * s,
    }


@dataclass(frozen=True)
class LogicalEncoding:
    """Logical qubit in the spin-1/2 degeneracy index.

    The doublet amplitudes (c1, c2) and (d1, d2) are free; the default puts
    each logical state on the M = +1/2 member.
    """

    c: tuple[complex, complex] = (1.0, 0.0)
    d: tuple[complex, complex] = (1.0, 0.0)

    def __post_init__(self) -> None:
        for pair in (self.c, self.d):
            if abs(abs(pair[0]) ** 2 + abs(pair[1]) ** 2 - 1.0) > EXACT_TOL:
                raise BadNormalization(f"coefficient pair {pair} is not normalized")

    def state(self, alpha: complex, beta: complex) -> np.ndarray:
        """Eight-amplitude state for alpha |0_L> + beta |1_L>."""
        if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > EXACT_TOL:
            raise BadNormalization("logical amplitudes are not normalized")
        v = coupled_basis()
        out = alpha * (self.c[0] * v[:, 4] + self.c[1] * v[:, 5])
        out = out + beta * (self.d[0] * v[:, 6] + self.d[1] * v[:, 7])
        return out


def _degeneracy_density(state: np.ndarray) -> np.ndarray:
    """2x2 reduced state of the degeneracy index within the spin-1/2 sector."""
    coeffs = coupled_basis().conj().T @ state
    a = coeffs[4:8].reshape(2, 2)  # rows: degeneracy index, columns: M
    return a @ a.conj().T


def _fidelity_2x2(rho: np.ndarray, sigma: np.ndarray) -> float:
    trace = np.trace(rho @ sigma).real
    det_term = 2.0 * np.sqrt(max(0.0, np.linalg.det(rho).real * np.linalg.det(sigma).real))
    return float(min(1.0, trace + det_term))


def logical_qubit_roundtrip(
    alpha: complex,
    beta: complex,
    u: np.ndarray,
    encoding: LogicalEncoding | None = None,
) -> float:
    """Fidelity of the degeneracy register before and after a collective rotation."""
    encoding = encoding or LogicalEncoding()
    state = encoding.state(alpha, beta)
    rotated = collective_rotation(u) @ state
    return _fidelity_2x2(_degeneracy_density(state), _degeneracy_density(rotated))


def run_demo(trials: int, seed: int) -> dict:
    """Certificate, spot values, and logical round trips, in one report dict."""
    violation = block_structure_certificate(trials, seed)
    phi = np.pi / 3
    spot = wigner_d_three_half_entries(phi)
    block = coupled_blocks(euler_unitary(0.0, phi, 0.0))
    spot_measured = float(block[0, 0].real)
    rng = np.random.default_rng(seed + 1)
    worst_fidelity = 1.0
    for _ in range(20):
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp = amp / np.linalg.norm(amp)
        f = logical_qubit_roundtrip(amp[0], amp[1], random_su2(rng))
        worst_fidelity = min(worst_fidelity, f)
    return {
        "trials": trials,
        "seed": seed,
        "max_block_violation": violation,
        "wigner_spot": {
            "phi": float(phi),
            "closed_form": float(spot[("3/2", "3/2")]),
            "from_block": spot_measured,
        },
        "min_roundtrip_fidelity": worst_fidelity,
        "rate": [1, 3],
        "rate_float": 1.0 / 3.0,
    }
