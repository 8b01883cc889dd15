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
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, count, islice, repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    MissingIrrepMatrices,
    NonIntegerMultiplicity,
    NotFaithful,
    NumericalDegeneracy,
    RegularRepMissing,
    RMaxExceeded,
    UnknownBuiltin,
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
    MULTIPLICITY_TOL,
    NORM_TOL,
    ORTHONORMAL_TOL,
    PRODUCT_BLOCK_ENTRIES,
    RANK_TOL,
    UNITARY_TOL,
    check_entries,
)
from .statevec import _frozen, _unitarity_residues

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
        # a read-only view that cannot be made writable: encoders and the codec
        # apply these matrices unchecked
        object.__setattr__(self, "matrices", _frozen(self.matrices))

    @cached_property
    def product_law(self) -> tuple[float, np.ndarray | None]:
        """``(eps, omega)``: the largest entrywise product-law residue
        ``|U_g U_h - omega(g, h) U_gh|`` over all pairs, and a projective rep's
        ``(|G|, |G|)`` phases ``omega`` (None for a linear rep, where they are 1).
        :meth:`build` keeps the ones its check measured; a rep constructed
        directly measures them on first read, with the same helper."""
        errs, phases = _product_law(self.group, self.matrices[None], self.projective)
        return float(errs.max()), None if phases is None else phases[0]

    def cocycle_residue(self, n: int) -> float:
        """``max |omega(g, h)^n - 1|`` over the phases of :attr:`product_law`, 0 for a
        linear rep: the n-th tensor power is a linear rep only within ``UNITARY_TOL``."""
        if not self.projective:
            return 0.0
        return float(np.max(np.abs(self.product_law[1] ** n - 1.0)))

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
        if mats.ndim != 3 or mats.shape[0] != group.order or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"expected {group.order} square matrices, got shape {mats.shape}")
        d = mats.shape[1]
        if d < 1:
            raise ValueError(f"representation matrices must be at least 1x1, got {d}x{d}")
        check = _check_stack(group, mats[None], projective=projective)
        if check.faults[0] is not None:
            raise ValueError(check.faults[0])
        rep = cls(group=group, dim=d, matrices=mats, projective=projective)
        # the residue the check measured, kept for the token closure certificate
        rep.__dict__["product_law"] = (
            float(check.residues[0]), None if check.phases is None else check.phases[0]
        )
        return rep


class _StackCheck(NamedTuple):
    """What :func:`_check_stack` found on a ``(k, |G|, d, d)`` stack of representations."""

    faults: list[str | None]  # per member: the message of its first failing check
    residues: np.ndarray  # (k,) largest product-law residue of each member
    phases: np.ndarray | None  # (k, |G|, |G|) projective phases; None for linear members
    characters: np.ndarray | None  # (k, s) traces per class, when classes are given


def _product_law(group: FiniteGroup, stack: np.ndarray, projective: bool):
    """Per-pair residues ``max |U_g U_h - omega(g, h) U_gh|`` of each member of a
    ``(k, |G|, d, d)`` stack, ``(k, |G|, |G|)``, and the phases ``omega`` of a
    projective stack (``trace(U_gh^H U_g U_h) / d``; None for a linear one).

    Products are formed a block of rows ``g`` at a time: at most
    ``PRODUCT_BLOCK_ENTRIES`` entries, or one row of ``k |G| d^2`` when a row is
    larger, never ``k |G|^2 d^2``.  NaN and inf pass through to the residue.
    """
    k, n, d, _ = stack.shape
    rows = max(1, PRODUCT_BLOCK_ENTRIES // (k * n * d * d))
    errs = np.empty((k, n, n))
    phases = np.empty((k, n, n), dtype=np.complex128) if projective else None
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            prods = stack[:, block, None] @ stack[:, None]
            targets = stack[:, group.cayley[block]]
            if projective:
                phases[:, block] = np.einsum("jikab,jikab->jik", targets.conj(), prods) / d
                targets = phases[:, block, :, None, None] * targets
            errs[:, block] = np.max(np.abs(prods - targets), axis=(3, 4))
    return errs, phases


def _class_traces(stack: np.ndarray, classes: ConjugacyClasses):
    """The trace of each member of a ``(k, |G|, d, d)`` stack at each class's
    representative, ``(k, s)``, and per member the message of a class whose
    members disagree on the trace (the class of the largest spread), or None."""
    traces = np.trace(stack, axis1=2, axis2=3)
    values = traces[:, list(classes.representatives)]
    spread = np.abs(traces - values[:, classes.class_of])
    worst = np.argmax(spread, axis=1)
    faults = [
        f"class {classes.class_of[g]} members disagree on the trace"
        if spread[j, g] > UNITARY_TOL else None
        for j, g in enumerate(worst.tolist())
    ]
    return values, faults


def _check_stack(
    group: FiniteGroup,
    stack: np.ndarray,
    *,
    projective: bool = False,
    classes: ConjugacyClasses | None = None,
    prefixes: list[str] | None = None,
) -> _StackCheck:
    """Check ``k`` representations at once, a ``(k, |G|, d, d)`` stack: finite
    entries, the identity at element 0 (then snapped to exact I, in place),
    unitarity, the product law (up to a phase when ``projective``) and, with
    ``classes``, traces constant on each class.

    Every check runs on the whole stack; each member keeps the message of the
    first check it fails, in that order, naming the first failing matrix or
    pair in row-major order, as one member checked alone would.  ``prefixes``
    (one string per member) lead the messages of every check but the traces.
    """
    k, n, d, _ = stack.shape
    faults: list[str | None] = [None] * k

    def blame(failed, message):
        """``message(j, i)`` for each member ``j`` without a fault whose row of
        ``failed`` has a True, ``i`` its first, row-major."""
        if not failed.any():
            return
        flat = failed.reshape(k, -1)
        for j in np.flatnonzero(flat.any(axis=1)).tolist():
            if faults[j] is None:
                faults[j] = message(j, int(np.argmax(flat[j])))

    with np.errstate(invalid="ignore", over="ignore"):  # a failing member's NaN or inf
        blame(
            ~np.isfinite(stack).all(axis=(2, 3)), lambda j, i: f"matrix {i} has a non-finite entry"
        )
        eye = np.eye(d)
        blame(
            np.max(np.abs(stack[:, 0] - eye), axis=(1, 2)) > UNITARY_TOL,
            lambda j, i: "matrix at the identity element is not the identity",
        )
        stack[:, 0] = eye
        unitarity = _unitarity_residues(stack.reshape(k * n, d, d)).reshape(k, n)
        blame(
            ~(unitarity <= UNITARY_TOL),
            lambda j, i: f"matrix {i} is not unitary (residue {unitarity[j, i]:.2e})",
        )
        errs, phases = _product_law(group, stack, projective)
        off_phase = np.zeros(errs.shape, dtype=bool)
        if projective:
            off_phase = np.abs(np.abs(phases) - 1.0) > MULTIPLICITY_TOL

        def law(j, pair):
            i, h = divmod(pair, n)
            if off_phase[j, i, h]:
                return f"pair ({i},{h}) is not a product up to phase"
            return f"product law fails at pair ({i},{h}) with residue {errs[j, i, h]:.2e}"

        blame(off_phase | (errs > UNITARY_TOL), law)
        if prefixes is not None:
            faults[:] = [f if f is None else p + f for f, p in zip(faults, prefixes)]
        characters = None
        if classes is not None:
            characters, trace_faults = _class_traces(stack, classes)
            faults[:] = [f or t for f, t in zip(faults, trace_faults)]
    return _StackCheck(faults, errs.max(axis=(1, 2)), phases, characters)


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Irrep characters per conjugacy class, plus optional explicit irrep matrices.

    Row 0 is the trivial irrep.  ``irrep_matrices[lam]`` has shape
    (|G|, d_lam, d_lam) and is required whenever a multi-dimensional irrep has
    to be resolved into matrix elements (non-abelian token construction).
    Readers take irreps from :meth:`irrep` and per-element characters from
    :attr:`element_chars`, never from the raw fields.
    """

    group: FiniteGroup
    classes: ConjugacyClasses
    dims: np.ndarray
    chars: np.ndarray  # shape (s, s), chars[lam, c]
    irrep_matrices: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        self.dims.setflags(write=False)
        self.chars.setflags(write=False)
        for block in self.irrep_matrices or ():
            block.setflags(write=False)

    @property
    def num_irreps(self) -> int:
        return len(self.dims)

    @cached_property
    def element_chars(self) -> np.ndarray:
        """Frozen ``(s, |G|)`` characters, one column per element."""
        out = self.chars[:, self.classes.class_of]
        out.setflags(write=False)
        return out

    def irrep(self, lam: int) -> np.ndarray:
        """The ``(|G|, d_lam, d_lam)`` matrices of irrep ``lam``; a 1-d irrep is its characters."""
        if self.dims[lam] == 1:
            return self.element_chars[lam].reshape(-1, 1, 1)
        if self.irrep_matrices is None:
            raise MissingIrrepMatrices(
                f"irrep {lam} has dimension {int(self.dims[lam])}; explicit matrices are required"
            )
        return self.irrep_matrices[lam]

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
        # int64 would truncate 1.5 and read True as 1, so each entry is checked first
        if not all(_is_dimension(x, group.order) for x in dims):
            raise ValueError(
                f"'dims' entries must be whole numbers from 1 to {group.order}, got {dims!r}"
            )
        # copies: the table freezes them, and the caller's arrays stay writable and apart
        dims = np.array(dims, dtype=np.int64)
        chars = np.array(chars, dtype=np.complex128)
        s = classes.s
        if chars.shape != (s, s):
            raise ValueError(f"character matrix must be {s}x{s}, got {chars.shape}")
        if dims.shape != (s,):
            raise ValueError(f"expected {s} irrep dimensions")
        if irrep_matrices is not None and len(irrep_matrices) != s:
            raise ValueError(
                f"expected {s} irrep matrix blocks, one per irrep, got {len(irrep_matrices)}"
            )
        if not np.isfinite(chars).all():
            raise ValueError("character matrix has a non-finite entry")
        if int(np.sum(dims**2)) != group.order:
            raise ValueError("sum of squared irrep dimensions must equal the group order")
        if np.max(np.abs(chars[0] - 1.0)) > NORM_TOL:
            raise ValueError("row 0 must be the trivial irrep (all ones)")
        # the rows scaled by sqrt(|C|/|G|) are orthonormal; their isometry residue,
        # unlike the Gram product, refuses a huge character without an overflow warning
        scaled = chars * np.sqrt(classes.class_sizes / group.order)
        if not _unitarity_residues(scaled.conj().T[None])[0] <= NORM_TOL:
            raise ValueError("characters violate the orthogonality relation")
        wrong = np.flatnonzero(np.abs(chars[:, 0] - dims) > NORM_TOL)  # class 0 is {e}
        if wrong.size:
            lam = wrong[0]
            raise ValueError(f"irrep {lam}: chi(e) = {chars[lam, 0]} != dimension {dims[lam]}")
        if irrep_matrices is not None:
            # one stack per irrep dimension, checked at once; the lowest failing
            # irrep is refused, with the message of its first failing check
            faults, blocks, by_dim = {}, {}, {}
            for lam, mats in enumerate(irrep_matrices):
                if np.shape(mats) != (group.order, dims[lam], dims[lam]):
                    faults[lam] = f"irrep {lam}: matrix block has shape {np.shape(mats)}"
                else:
                    by_dim.setdefault(int(dims[lam]), []).append(lam)
            for lams in by_dim.values():
                stack = np.array([irrep_matrices[lam] for lam in lams], dtype=np.complex128)
                prefixes = [f"irrep {lam} is not a homomorphism: " for lam in lams]
                check = _check_stack(group, stack, classes=classes, prefixes=prefixes)
                off_row = np.max(np.abs(check.characters - chars[lams]), axis=1) > UNITARY_TOL
                for lam, fault, off, block in zip(lams, check.faults, off_row.tolist(), stack):
                    if fault is None and off:
                        fault = f"irrep {lam} matrices disagree with the character row"
                    if fault is not None:
                        faults[lam] = fault
                    blocks[lam] = block
            if faults:
                raise ValueError(faults[min(faults)])
            irrep_matrices = tuple(blocks[lam] for lam in range(len(irrep_matrices)))
        return cls(
            group=group,
            classes=classes,
            dims=dims,
            chars=chars,
            irrep_matrices=irrep_matrices,
        )


def _is_dimension(x, order: int) -> bool:
    """Whether ``x`` is an integer, or an integral float, from 1 to ``order``; a bool is not."""
    if isinstance(x, bool) or not isinstance(x, (numbers.Integral, float)):
        return False
    return 1 <= x <= order and float(x).is_integer()


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
    values, faults = _class_traces(rep.matrices[None], classes or conjugacy_classes(rep.group))
    if faults[0] is not None:
        raise ValueError(faults[0])
    return values[0]


def _multiplicity_sequence(chi: np.ndarray, table: CharacterTable, projective: bool):
    """Exact multiplicities of V^(x)n, n = 1, 2, ..., from V's compound character chi:
    F_k[lam, mu] = <chi_lam chi_V^k, chi_mu> is read once, at the least k where |G| F_k
    (F_k for a linear V, k = 1) is integral, and gamma^(jk) = gamma^((j-1)k) F_k in ints,
    F_k = step / q (Fractions over q^j for a projective V).  Powers between are None."""
    den = table.group.order if projective else 1  # projective V: only |G| F_k is integral
    weights = table.chars * table.classes.class_sizes * den / table.group.order
    for k in count(1):
        raw = (weights * chi**k) @ table.chars.conj().T
        if np.max(np.abs(raw)) * np.finfo(float).eps > MULTIPLICITY_TOL:
            raise NonIntegerMultiplicity(
                f"no power below {k} of the projective representation has integer fusion "
                f"counts, and floats cannot test power {k}"
            )
        fusion = np.round(raw.real).astype(np.int64)
        residue = float(np.max(np.abs(raw - fusion)))
        if residue <= MULTIPLICITY_TOL:
            break
        if not projective:
            raise NonIntegerMultiplicity(
                f"fusion counts are not integers (residue {residue:.3e}); "
                "the character table is inconsistent with the representation"
            )
        yield None
    common = math.gcd(den, *fusion.flat)
    q, step = den // common, (fusion // common).astype(object)
    for j, numerators in enumerate(accumulate(repeat(step), np.dot, initial=step[0]), 1):
        yield numerators if q == 1 else [Fraction(x, q**j) for x in numerators]
        yield from repeat(None, k - 1)


def multiplicities(rep: UnitaryRep, table: CharacterTable, n: int) -> MultiplicityVector:
    """Irrep multiplicities of the n-th tensor power: term n of the exact sequence."""
    if n < 1:
        raise ValueError("tensor power must be >= 1")
    chi = compound_character(rep, table.classes)
    gammas = next(islice(_multiplicity_sequence(chi, table, rep.projective), n - 1, None))
    residue = None if gammas is None else float(max(abs(g - round(g)) for g in gammas))
    if residue != 0:
        detail = "" if residue is None else f" (residue {residue:.3e})"
        raise NonIntegerMultiplicity(
            f"power {n} of a projective representation has non-integer multiplicities{detail}"
        )
    if (cocycle := rep.cocycle_residue(n)) > UNITARY_TOL:
        raise NonIntegerMultiplicity(
            f"power {n} of a projective representation is not linear "
            f"(max |omega^{n} - 1| = {cocycle:.3e})"
        )
    if min(gammas) < 0:
        raise NonIntegerMultiplicity(f"negative multiplicity at power {n}")
    total = sum(g * int(d) for g, d in zip(gammas, table.dims))
    if total != rep.dim**n:
        raise NonIntegerMultiplicity(f"power {n}: dimensions sum to {total}, not {rep.dim**n}")
    return MultiplicityVector(power=n, gammas=tuple(int(g) for g in gammas))


def integral_multiplicities(rep: UnitaryRep, table: CharacterTable) -> MultiplicityVector:
    """Multiplicities of the least power with integer ones: power 1 for a linear V, the
    first linear power of a projective V (2 for the Pauli set); power 1's refusal if none."""
    chi = compound_character(rep, table.classes)
    first = next(_linear_powers(rep, chi, table, DEFAULT_R_MAX), (1, None))[0]
    return multiplicities(rep, table, first)


def _linear_powers(rep: UnitaryRep, chi: np.ndarray, table: CharacterTable, limit: int):
    """``(n, gammas)`` for each power ``n <= limit`` of ``rep`` that is a linear rep with
    integer multiplicities.  Integral fusion counts alone do not make a power linear:
    the Weyl set's fuse at every power, but ``V^(x)n`` is linear only where
    ``rep.cocycle_residue(n)`` is within ``UNITARY_TOL``."""
    sequence = islice(_multiplicity_sequence(chi, table, rep.projective), max(limit, 0))
    for n, gammas in enumerate(sequence, 1):
        if (gammas is not None and all(g.denominator == 1 for g in gammas)
                and rep.cocycle_residue(n) <= UNITARY_TOL):
            yield n, gammas


def require_regular(mv: MultiplicityVector, table: CharacterTable) -> MultiplicityVector:
    """``mv``, refused unless every irrep appears at least ``d_lam`` times."""
    for lam in range(table.num_irreps):
        if mv[lam] < int(table.dims[lam]):
            raise RegularRepMissing(
                f"irrep {lam} appears {mv[lam]} times, needs "
                f">= {int(table.dims[lam])}; increase the tensor power"
            )
    return mv


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


def require_regular_possible(rep: UnitaryRep, table: CharacterTable) -> np.ndarray:
    """The compound character of ``rep``, refused when no tensor power can contain the
    regular representation: two elements share a matrix, or U_g = c I for a g != e, so
    that every power holds only irreps where g acts as c^n (Schur)."""
    if not is_faithful(rep):
        raise NotFaithful("two elements share a matrix; the token construction needs all |G|")
    chi = compound_character(rep, table.classes)
    scalar = np.flatnonzero(np.abs(chi) >= rep.dim - UNITARY_TOL)  # class 0 is {e}
    if len(scalar) > 1:
        g = table.classes.representatives[scalar[1]]
        raise RMaxExceeded(f"element {g} acts as a scalar; no power has every irrep")
    return chi


def min_r(rep: UnitaryRep, table: CharacterTable, r_max: int = DEFAULT_R_MAX) -> int:
    """Smallest tensor power containing the regular representation; powers of a projective
    V that are not linear reps with integer multiplicities are skipped, and reps no cap
    helps are refused up front."""
    chi = require_regular_possible(rep, table)
    for r, gammas in _linear_powers(rep, chi, table, r_max):
        if all(g >= d for g, d in zip(gammas, table.dims)):
            return r
    raise RMaxExceeded(f"no power r <= {r_max} contains the regular representation; raise r_max")


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    """The |G|-dimensional permutation representation g_k : |g_i> -> |g_k g_i>."""
    idx = np.arange(group.order)
    mats = np.zeros((group.order,) * 3, dtype=np.complex128)
    mats[idx[:, None], group.cayley, idx] = 1.0
    return UnitaryRep.build(group, mats)


def tensor_power_matrices(rep: UnitaryRep, r: int) -> np.ndarray:
    """Dense r-fold Kronecker powers of every representing matrix."""
    order, dim = rep.group.order, rep.dim**r
    check_entries(order * dim * dim, f"a tensor power stack of {order} x {dim * dim} entries")
    out = np.empty((order, dim, dim), dtype=np.complex128)
    for i in range(order):
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
    order.  It is a reference only: ``build_fiducial`` pins the canonical
    token fixtures.  The general path
    uses matrix-element projectors built from ``table.irrep`` and
    orthonormalizes projector images of computational basis vectors in
    lexicographic order, which is deterministic and RNG-free.
    """
    dim = rep.dim**r
    # refused here: the diagonal path stacks a d^r x d^r basis before any other check
    check_entries(dim * dim, f"a block basis of {rep.dim}**{r} x {rep.dim}**{r}")
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
        offset = 0
        for lam in range(table.num_irreps):
            gamma = mv[lam]
            if gamma == 0:
                continue
            match = np.max(np.abs(powers.T - table.element_chars[lam]), axis=1) <= UNITARY_TOL
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
        offset = 0
        for lam in range(table.num_irreps):
            gamma = mv[lam]
            if gamma == 0:
                continue
            umats = table.irrep(lam)  # (|G|, d_lam, d_lam)
            d_lam = umats.shape[1]
            scale = d_lam / group.order
            proj_11 = scale * np.tensordot(umats[:, 0, 0].conj(), powers, axes=(0, 0))
            mult_basis = _orthonormalize((proj_11[:, j] for j in range(dim)), gamma)
            columns.extend(mult_basis)
            for n in range(1, d_lam):
                proj_n1 = scale * np.tensordot(umats[:, n, 0].conj(), powers, axes=(0, 0))
                # partial isometry between multiplicity rows: images stay orthonormal
                columns.extend(proj_n1 @ w for w in mult_basis)
            components.append(
                IsotypicComponent(irrep=lam, dim=d_lam, multiplicity=gamma, offset=offset)
            )
            offset += d_lam * gamma

    basis = np.column_stack(columns)
    if basis.shape != (dim, dim):
        raise NumericalDegeneracy(
            f"block basis has shape {basis.shape}, expected ({dim}, {dim})"
        )
    unitarity = _unitarity_residues(basis[None])[0]
    if not unitarity <= UNITARY_TOL:
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
                got[diag, diag] -= table.element_chars[comp.irrep, g]
            else:
                u = table.irrep(comp.irrep)[g]
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
    raise UnknownBuiltin(
        f"no built-in representation {spec!r} for group {group.name or group.order}"
    )
