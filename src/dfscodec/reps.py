"""Unitary representations, characters, multiplicities and isotypic bases.

The block basis produced by :func:`isotypic_decompose` is the dense reference
for token-state construction: in that basis every collective operator splits
into one block per irrep, each block being the irrep matrix tensored with an
identity on the multiplicity space.  Preparation builds only the few block
vectors the fiducial needs (``codec.build_fiducial``), never this basis.

Built-in character tables and representations follow the structure of the
group, never its name or labels: every abelian group gets the product table of
its generator decomposition, every non-abelian group of order 6 (only S3) gets
irreps built from an element of order 3 and one of order 2, and ``builtin``
means the diagonal phases for a cyclic group, the Pauli set for the Klein
group and the two-dimensional action for S3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    MissingIrrepMatrices,
    NonIntegerMultiplicity,
    NotFaithful,
    NumericalDegeneracy,
    ResourceLimit,
    RMaxExceeded,
)
from .groups import (
    ConjugacyClasses,
    FiniteGroup,
    conjugacy_classes,
    cyclic_generator,
    element_words,
    generator_decomposition,
)
from .limits import (
    EXACT_TOL,
    MAX_AMPLITUDES,
    MULTIPLICITY_TOL,
    NORM_TOL,
    ORTHONORMAL_TOL,
    RANK_TOL,
    UNITARY_TOL,
)

DEFAULT_R_MAX = 32


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """A map from group elements to d x d unitaries.

    ``projective`` marks representations that are homomorphisms only up to a
    per-pair phase (the Pauli set for the Klein group is the canonical case);
    validation then checks the product law up to a unimodular factor.
    """

    group: FiniteGroup
    dim: int
    matrices: np.ndarray  # shape (|G|, d, d)
    projective: bool = False

    def __post_init__(self) -> None:
        self.matrices.setflags(write=False)

    @classmethod
    def build(
        cls,
        group: FiniteGroup,
        matrices,
        *,
        projective: bool = False,
    ) -> "UnitaryRep":
        """Validate and construct; the identity matrix is snapped to exact I."""
        mats = np.array(matrices, dtype=np.complex128)
        if mats.shape[0] != group.order or mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected {group.order} square matrices, got shape {mats.shape}")
        d = mats.shape[1]
        eye = np.eye(d)
        if np.max(np.abs(mats[0] - eye)) > UNITARY_TOL:
            raise ValueError("matrix at the identity element is not the identity")
        mats[0] = eye
        for i in range(group.order):
            err = np.max(np.abs(mats[i].conj().T @ mats[i] - eye))
            if err > UNITARY_TOL:
                raise ValueError(f"matrix {i} is not unitary (residue {err:.2e})")
        # one row of pairs (i, k) at a time: |G| d^2 entries, never |G|^2 d^2
        for i in range(group.order):
            prods = mats[i] @ mats
            targets = mats[group.cayley[i]]
            if projective:
                # per-pair phase trace(target^H prod) / d
                phases = np.einsum("kab,kab->k", targets.conj(), prods) / d
                off_phase = np.abs(np.abs(phases) - 1.0) > MULTIPLICITY_TOL
                targets = phases[:, None, None] * targets
            else:
                off_phase = np.zeros(group.order, dtype=bool)
            errs = np.max(np.abs(prods - targets), axis=(1, 2))
            failed = off_phase | (errs > UNITARY_TOL)
            if failed.any():
                k = int(np.argmax(failed))
                if off_phase[k]:
                    raise ValueError(f"pair ({i},{k}) is not a product up to phase")
                raise ValueError(
                    f"product law fails at pair ({i},{k}) with residue {errs[k]:.2e}"
                )
        return cls(group=group, dim=d, matrices=mats, projective=projective)


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Irrep characters per conjugacy class, plus optional explicit irrep matrices.

    Row 0 is the trivial irrep.  ``irrep_matrices[lam]`` has shape
    (|G|, d_lam, d_lam) and is required whenever a multi-dimensional irrep has
    to be resolved into matrix elements (non-abelian token construction).
    """

    group: FiniteGroup
    classes: ConjugacyClasses
    dims: np.ndarray
    chars: np.ndarray  # shape (s, s), chars[lam, c]
    irrep_matrices: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        self.dims.setflags(write=False)
        self.chars.setflags(write=False)

    @property
    def num_irreps(self) -> int:
        return len(self.dims)

    def element_character(self, lam: int, element: int) -> complex:
        return complex(self.chars[lam, self.classes.class_of[element]])

    @classmethod
    def build(
        cls,
        group: FiniteGroup,
        dims,
        chars,
        irrep_matrices=None,
        *,
        classes: ConjugacyClasses | None = None,
    ) -> "CharacterTable":
        classes = classes or conjugacy_classes(group)
        dims = np.asarray(dims, dtype=np.int64)
        chars = np.asarray(chars, dtype=np.complex128)
        s = classes.s
        if chars.shape != (s, s):
            raise ValueError(f"character matrix must be {s}x{s}, got {chars.shape}")
        if dims.shape != (s,):
            raise ValueError(f"expected {s} irrep dimensions")
        if int(np.sum(dims**2)) != group.order:
            raise ValueError("sum of squared irrep dimensions must equal the group order")
        if np.max(np.abs(chars[0] - 1.0)) > NORM_TOL:
            raise ValueError("row 0 must be the trivial irrep (all ones)")
        gram = (chars * classes.class_sizes) @ chars.conj().T / group.order
        if np.max(np.abs(gram - np.eye(s))) > NORM_TOL:
            raise ValueError("characters violate the orthogonality relation")
        if irrep_matrices is not None:
            irrep_matrices = tuple(np.asarray(m, dtype=np.complex128) for m in irrep_matrices)
            for lam, mats in enumerate(irrep_matrices):
                if mats.shape != (group.order, dims[lam], dims[lam]):
                    raise ValueError(f"irrep {lam}: matrix block has shape {mats.shape}")
                for i in range(group.order):
                    if np.max(np.abs(mats[i] @ mats - mats[group.cayley[i]])) > UNITARY_TOL:
                        raise ValueError(f"irrep {lam} is not a homomorphism")
                trace = np.array([np.trace(mats[c[0]]) for c in classes.classes])
                if np.max(np.abs(trace - chars[lam])) > UNITARY_TOL:
                    raise ValueError(f"irrep {lam} matrices disagree with the character row")
        return cls(
            group=group,
            classes=classes,
            dims=dims,
            chars=chars,
            irrep_matrices=irrep_matrices,
        )


@dataclass(frozen=True)
class MultiplicityVector:
    """Irrep multiplicities of the n-th tensor power of a representation."""

    power: int
    gammas: tuple[int, ...]

    def __iter__(self):
        return iter(self.gammas)

    def __getitem__(self, lam: int) -> int:
        return self.gammas[lam]


@dataclass(frozen=True)
class IsotypicComponent:
    irrep: int
    dim: int
    multiplicity: int
    offset: int  # first column of this block in the basis matrix


@dataclass(frozen=True, eq=False)
class IsotypicDecomposition:
    """Orthonormal block basis for a tensor power of a representation.

    Columns of ``basis`` are ordered per component as (carrier index n outer,
    multiplicity index beta inner), so each collective operator becomes
    ``irrep_matrix(g) (x) I_multiplicity`` on its block.
    """

    rep: UnitaryRep
    power: int
    table: CharacterTable
    multiplicities: MultiplicityVector
    basis: np.ndarray
    components: tuple[IsotypicComponent, ...]

    def __post_init__(self) -> None:
        self.basis.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def component(self, lam: int) -> IsotypicComponent:
        for comp in self.components:
            if comp.irrep == lam:
                return comp
        raise KeyError(f"irrep {lam} does not appear in the decomposition")

    def block_vector(self, lam: int, n: int, beta: int) -> np.ndarray:
        """Basis vector for irrep ``lam``, carrier index ``n``, multiplicity ``beta`` (1-based)."""
        comp = self.component(lam)
        if not (1 <= n <= comp.dim and 1 <= beta <= comp.multiplicity):
            raise IndexError(f"(n, beta) = ({n}, {beta}) out of range for irrep {lam}")
        return self.basis[:, comp.offset + (n - 1) * comp.multiplicity + (beta - 1)]


def compound_character(rep: UnitaryRep, classes: ConjugacyClasses | None = None) -> np.ndarray:
    """Trace of the representing matrix, one entry per conjugacy class."""
    classes = classes or conjugacy_classes(rep.group)
    values = np.empty(classes.s, dtype=np.complex128)
    for c, members in enumerate(classes.classes):
        traces = np.array([np.trace(rep.matrices[i]) for i in members])
        if np.max(np.abs(traces - traces[0])) > UNITARY_TOL:
            raise ValueError(f"class {c} members disagree on the trace")
        values[c] = traces[0]
    return values


def _gamma_floats(chi_powered: np.ndarray, table: CharacterTable) -> np.ndarray:
    sizes = table.classes.class_sizes
    return (table.chars.conj() * sizes) @ chi_powered / table.group.order


def multiplicities(rep: UnitaryRep, table: CharacterTable, n: int) -> MultiplicityVector:
    """Irrep multiplicities of the n-th tensor power, via character arithmetic.

    The character of the power is the elementwise power of the base compound
    character, so no matrices are ever tensored here.
    """
    if n < 1:
        raise ValueError("tensor power must be >= 1")
    chi = compound_character(rep, table.classes)
    raw = _gamma_floats(chi**n, table)
    rounded = np.round(raw.real).astype(np.int64)
    residue = float(np.max(np.abs(raw - rounded)))
    if residue > MULTIPLICITY_TOL:
        raise NonIntegerMultiplicity(
            f"multiplicities of power {n} are not integers (residue {residue:.3e}); "
            "the character table is inconsistent with the representation"
        )
    if np.any(rounded < 0):
        raise NonIntegerMultiplicity(f"negative multiplicity at power {n}")
    total = int(np.sum(rounded * table.dims))
    if total != rep.dim**n:
        raise NonIntegerMultiplicity(
            f"dimension accounting fails at power {n}: {total} != {rep.dim ** n}"
        )
    return MultiplicityVector(power=n, gammas=tuple(int(x) for x in rounded))


def contains_regular(mv: MultiplicityVector, table: CharacterTable) -> bool:
    """True iff every irrep appears at least as often as its dimension."""
    return all(g >= d for g, d in zip(mv.gammas, table.dims))


def is_faithful(rep: UnitaryRep) -> bool:
    mats = rep.matrices
    # one row of pairs (i, k > i) at a time, as in UnitaryRep.build
    for i in range(len(mats) - 1):
        if np.any(np.max(np.abs(mats[i + 1 :] - mats[i]), axis=(1, 2)) <= UNITARY_TOL):
            return False
    return True


def min_r(rep: UnitaryRep, table: CharacterTable, r_max: int = DEFAULT_R_MAX) -> int:
    """Smallest tensor power whose decomposition contains the regular representation.

    Powers whose multiplicities are not integers (possible for projective base
    representations) cannot contain the regular representation and are skipped.
    """
    if not is_faithful(rep):
        raise NotFaithful("two elements share a matrix; the token construction needs all |G|")
    chi = compound_character(rep, table.classes)
    for r in range(1, r_max + 1):
        raw = _gamma_floats(chi**r, table)
        rounded = np.round(raw.real)
        scale = max(1.0, float(rep.dim) ** r * EXACT_TOL)
        if np.max(np.abs(raw - rounded)) > MULTIPLICITY_TOL * scale:
            continue
        if np.all(rounded >= table.dims):
            return r
    raise RMaxExceeded(
        f"no power r <= {r_max} contains the regular representation; raise r_max"
    )


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    """The |G|-dimensional permutation representation g_k : |g_i> -> |g_k g_i>."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=np.complex128)
    for k in range(n):
        for i in range(n):
            mats[k, group.mul(k, i), i] = 1.0
    return UnitaryRep.build(group, mats)


def _dense_power_dim(rep: UnitaryRep, r: int, count: int = 1) -> int:
    """Dimension d^r of the tensor power, refused when ``count`` d^r x d^r
    matrices exceed the budget."""
    dim = rep.dim**r
    if count * dim * dim > MAX_AMPLITUDES:
        raise ResourceLimit(
            f"dense tensor power of dimension {dim}: {count} x {dim * dim} entries, "
            f"over the budget {MAX_AMPLITUDES}"
        )
    return dim


def tensor_power_matrices(rep: UnitaryRep, r: int) -> np.ndarray:
    """Dense r-fold Kronecker powers of every representing matrix."""
    dim = _dense_power_dim(rep, r, rep.group.order)
    out = np.empty((rep.group.order, dim, dim), dtype=np.complex128)
    for i in range(rep.group.order):
        out[i] = reduce(np.kron, [rep.matrices[i]] * r)
    return out


def _orthonormalize(candidates, expected: int) -> list[np.ndarray]:
    """Deterministic Gram-Schmidt: keep the first ``expected`` independent images."""
    basis: list[np.ndarray] = []
    for vec in candidates:
        w = vec.astype(np.complex128, copy=True)
        for b in basis:
            w -= b * np.vdot(b, w)
        # second pass for numerical stability
        for b in basis:
            w -= b * np.vdot(b, w)
        norm = np.linalg.norm(w)
        if norm > RANK_TOL:
            basis.append(w / norm)
        if len(basis) == expected:
            return basis
    raise NumericalDegeneracy(
        f"found {len(basis)} independent vectors, expected {expected}"
    )


def _is_diagonal_rep(mats: np.ndarray) -> bool:
    off = mats - np.einsum("gii->gi", mats)[:, :, None] * np.eye(mats.shape[1])
    return bool(np.max(np.abs(off)) <= EXACT_TOL)


def isotypic_decompose(rep: UnitaryRep, r: int, table: CharacterTable) -> IsotypicDecomposition:
    """Block basis of the r-th tensor power.

    Diagonal representations of abelian groups take a fast path that simply
    groups computational basis states by their phase character, in index
    order; this is what pins the canonical token fixtures.  The general path
    uses matrix-element projectors built from the explicit irrep matrices and
    orthonormalizes projector images of computational basis vectors in
    lexicographic order, which is deterministic and RNG-free.
    """
    # refused here: the diagonal path stacks a d^r x d^r basis before any other check
    dim = _dense_power_dim(rep, r)
    group = rep.group
    mv = multiplicities(rep, table, r)
    abelian = table.classes.s == group.order

    columns: list[np.ndarray] = []
    components: list[IsotypicComponent] = []

    if abelian and _is_diagonal_rep(rep.matrices):
        # the diagonal of every U_g^{(x)r}: each basis state's phase under g
        powers = np.empty((group.order, dim), dtype=np.complex128)
        for g in range(group.order):
            powers[g] = reduce(np.kron, [np.diag(rep.matrices[g])] * r)
        element_chars = table.chars[:, table.classes.class_of]  # (s, |G|)
        offset = 0
        for lam in range(table.num_irreps):
            gamma = mv[lam]
            if gamma == 0:
                continue
            match = np.max(np.abs(powers.T - element_chars[lam]), axis=1) <= UNITARY_TOL
            indices = np.flatnonzero(match)
            if len(indices) != gamma:
                raise NumericalDegeneracy(
                    f"irrep {lam}: {len(indices)} diagonal states for multiplicity {gamma}"
                )
            for j in indices:
                e = np.zeros(dim, dtype=np.complex128)
                e[j] = 1.0
                columns.append(e)
            components.append(
                IsotypicComponent(irrep=lam, dim=1, multiplicity=gamma, offset=offset)
            )
            offset += gamma
    else:
        powers = tensor_power_matrices(rep, r)
        element_chars = table.chars[:, table.classes.class_of]
        offset = 0
        for lam in range(table.num_irreps):
            gamma = mv[lam]
            if gamma == 0:
                continue
            d_lam = int(table.dims[lam])
            if d_lam == 1:
                proj = np.tensordot(element_chars[lam].conj(), powers, axes=(0, 0)) / group.order
                images = (proj[:, j] for j in range(dim))
                vecs = _orthonormalize(images, gamma)
                columns.extend(vecs)
                components.append(
                    IsotypicComponent(irrep=lam, dim=1, multiplicity=gamma, offset=offset)
                )
                offset += gamma
            else:
                if table.irrep_matrices is None:
                    raise MissingIrrepMatrices(
                        f"irrep {lam} has dimension {d_lam}; explicit matrices are required"
                    )
                umats = table.irrep_matrices[lam]  # (|G|, d_lam, d_lam)
                scale = d_lam / group.order
                proj_11 = scale * np.tensordot(umats[:, 0, 0].conj(), powers, axes=(0, 0))
                images = (proj_11[:, j] for j in range(dim))
                mult_basis = _orthonormalize(images, gamma)
                block: list[np.ndarray] = []
                for n in range(d_lam):
                    if n == 0:
                        block.extend(mult_basis)
                        continue
                    proj_n1 = scale * np.tensordot(
                        umats[:, n, 0].conj(), powers, axes=(0, 0)
                    )
                    # partial isometry between multiplicity rows: images stay orthonormal
                    block.extend(proj_n1 @ w for w in mult_basis)
                columns.extend(block)
                components.append(
                    IsotypicComponent(irrep=lam, dim=d_lam, multiplicity=gamma, offset=offset)
                )
                offset += d_lam * gamma

    basis = np.column_stack(columns)
    if basis.shape != (dim, dim):
        raise NumericalDegeneracy(
            f"block basis has shape {basis.shape}, expected ({dim}, {dim})"
        )
    unitarity = np.max(np.abs(basis.conj().T @ basis - np.eye(dim)))
    if unitarity > UNITARY_TOL:
        raise NumericalDegeneracy(f"block basis is not unitary (residue {unitarity:.3e})")

    decomp = IsotypicDecomposition(
        rep=rep,
        power=r,
        table=table,
        multiplicities=mv,
        basis=basis,
        components=tuple(components),
    )
    _verify_block_structure(decomp, powers)
    return decomp


def _verify_block_structure(decomp: IsotypicDecomposition, powers: np.ndarray) -> None:
    """Check ``v^H U_g^{(x)r} v`` against each element's expected block, entrywise.

    ``powers`` is the tensor power the decomposition already built: the
    ``(|G|, d^r)`` diagonals of a diagonal representation, or the
    ``(|G|, d^r, d^r)`` dense stack.  One element is checked at a time, and
    its expected block is subtracted in place, one component at a time.
    """
    table = decomp.table
    v = decomp.basis
    vh = v.conj().T
    worst = 0.0
    for g in range(decomp.rep.group.order):
        moved = powers[g][:, None] * v if powers.ndim == 2 else powers[g] @ v
        got = vh @ moved
        for comp in decomp.components:
            end = comp.offset + comp.dim * comp.multiplicity
            if comp.dim == 1:
                # character times the identity: only the diagonal is nonzero
                diag = np.arange(comp.offset, end)
                got[diag, diag] -= table.element_character(comp.irrep, g)
            else:
                u = table.irrep_matrices[comp.irrep][g]
                got[comp.offset : end, comp.offset : end] -= np.kron(u, np.eye(comp.multiplicity))
        worst = max(worst, float(np.max(np.abs(got))))
    if worst > ORTHONORMAL_TOL:
        raise NumericalDegeneracy(
            f"block structure violated by {worst:.3e} (tolerance {ORTHONORMAL_TOL:.1e})"
        )


# --- built-in representations and character tables ---------------------------


def pauli_rep(group: FiniteGroup) -> UnitaryRep:
    """The qubit Pauli set {I, X, iY, Z} as a projective Klein-group action."""
    if group.order != 4 or cyclic_generator(group) is not None:
        raise ValueError("pauli_rep expects the Klein four-group")
    mats = np.array(
        [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, 1], [-1, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=np.complex128,
    )
    return UnitaryRep.build(group, mats, projective=True)


def zn_phase_rep(group: FiniteGroup, dim: int = 2) -> UnitaryRep:
    """Diagonal phase action of a cyclic group on a d-level system.

    Level j of element g^k picks up omega^(j k), where g is the lowest-index
    generator and k the discrete log.
    """
    gen = cyclic_generator(group)
    if gen is None:
        raise ValueError("zn_phase_rep expects a cyclic group")
    n = group.order
    log = element_words(group, [gen], [n])[:, 0]
    omega = np.exp(2j * np.pi / n)
    mats = np.array(
        [np.diag([omega ** (level * log[g]) for level in range(dim)]) for g in range(n)]
    )
    return UnitaryRep.build(group, mats)


def s3_two_dim_rep(group: FiniteGroup) -> UnitaryRep:
    """The faithful two-dimensional irrep of S3 (triangle symmetries)."""
    return UnitaryRep.build(group, _s3_irrep_matrices(group))


_S3_ROT = np.array([[-0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]], dtype=np.complex128)
_S3_FLIP = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _is_s3(group: FiniteGroup) -> bool:
    """Every non-abelian group of order 6 is S3."""
    return group.order == 6 and not group.is_abelian


def _s3_irrep_matrices(group: FiniteGroup) -> np.ndarray:
    """b^j a^k -> flip^j rot^k for the lowest-index a of order 3 and b of order 2."""
    if not _is_s3(group):
        raise ValueError("the two-dimensional S3 irrep needs a non-abelian group of order 6")
    a = next(i for i in range(6) if group.element_order(i) == 3)
    b = next(i for i in range(6) if group.element_order(i) == 2)
    mats = np.empty((6, 2, 2), dtype=np.complex128)
    for element, matrix in ((0, np.eye(2, dtype=np.complex128)), (b, _S3_FLIP)):
        for _ in range(3):
            mats[element] = matrix
            element, matrix = group.mul(element, a), matrix @ _S3_ROT
    return mats


def _roots_of_unity(m: int) -> np.ndarray:
    """exp(2 pi i k / m) for k < m, exact at the quarter turns 1, i, -1 and -i."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    for quarter, value in enumerate((1, 1j, -1, -1j)):
        if quarter * m % 4 == 0:
            roots[quarter * m // 4] = value
    return roots


def _abelian_character_table(group: FiniteGroup, classes: ConjugacyClasses) -> CharacterTable:
    """chi_lam(g) = prod_i omega_Li^(lam_i l_i(g)) over the generator decomposition.

    Irreps lam and elements g are both numbered by their generator words in
    mixed radix, first generator most significant.
    """
    generators, bounds = generator_decomposition(group)
    n = group.order
    exponents = element_words(group, generators, bounds)
    lams = np.array(list(np.ndindex(*bounds)), dtype=np.int64).reshape(n, len(bounds))
    lcm = math.lcm(*bounds)
    scaled = lams * (lcm // np.array(bounds, dtype=np.int64))
    per_element = _roots_of_unity(lcm)[(scaled @ exponents.T) % lcm]
    irreps = tuple(row.reshape(n, 1, 1) for row in per_element)
    chars = per_element[:, list(classes.representatives)]
    return CharacterTable.build(
        group, np.ones(n, dtype=np.int64), chars, irreps, classes=classes
    )


def _s3_character_table(group: FiniteGroup, classes: ConjugacyClasses) -> CharacterTable:
    trivial = np.ones((6, 1, 1), dtype=np.complex128)
    sign = np.array(
        [[[-1.0 if group.element_order(g) == 2 else 1.0]] for g in range(6)],
        dtype=np.complex128,
    )
    irreps = (trivial, sign, _s3_irrep_matrices(group))
    chars = np.array(
        [
            [np.trace(irreps[lam][c[0]]) for c in classes.classes]
            for lam in range(3)
        ]
    )
    return CharacterTable.build(
        group, np.array([1, 1, 2], dtype=np.int64), chars, irreps, classes=classes
    )


def builtin_character_table(group: FiniteGroup) -> CharacterTable:
    """Character table, with explicit irrep matrices, for abelian groups and S3.

    Chosen from the group's structure alone, so a group read from a file gets
    the same irreps as the isomorphic built-in group.
    """
    classes = conjugacy_classes(group)
    if group.is_abelian:
        return _abelian_character_table(group, classes)
    if _is_s3(group):
        return _s3_character_table(group, classes)
    raise ValueError(
        f"no built-in character table for group {group.name or group.order}; supply one"
    )


def builtin_rep(group: FiniteGroup, spec: str = "builtin", dim: int = 2) -> UnitaryRep:
    """Resolve a named built-in representation from the group's structure.

    ``builtin`` is the diagonal phase action for a cyclic group, the Pauli set
    for the Klein four-group and the two-dimensional action for S3.
    """
    spec = spec.strip().lower()
    if spec == "regular":
        return regular_rep(group)
    cyclic = cyclic_generator(group) is not None
    if spec in ("builtin", "diagonal") and cyclic:
        return zn_phase_rep(group, dim)
    if spec in ("builtin", "pauli") and group.order == 4 and not cyclic:
        return pauli_rep(group)
    if spec in ("builtin", "builtin-2d", "standard") and _is_s3(group):
        return s3_two_dim_rep(group)
    raise ValueError(
        f"no built-in representation {spec!r} for group {group.name or group.order}"
    )
