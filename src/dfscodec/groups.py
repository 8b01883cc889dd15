"""Concrete finite groups (Cayley tables) and their conjugacy structure.

Elements are integers ``0..order-1`` and the identity always sits at index 0;
``validate_group`` relabels input tables that put it elsewhere.  Groups above
``MAX_GROUP_ORDER`` are rejected: the dense protocol state, not the group
algebra, is the binding cost, and nothing past order 64 fits that budget.

Element orders, the cyclic generator and generator words are read from one
power table per group, :attr:`FiniteGroup.powers`; conjugacy classes from one
conjugation table.  Both are whole-table array operations on the Cayley table.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GroupTooLarge, NotAGroup, UnknownBuiltin
from .limits import MAX_GROUP_ORDER


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its Cayley table.

    ``cayley[i, k]`` is the index of ``g_i * g_k`` and ``inverse[i]`` the index
    of ``g_i^-1``.  Instances are immutable; the arrays are marked read-only.
    """

    order: int
    cayley: np.ndarray
    inverse: np.ndarray
    labels: tuple[str, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        self.cayley.setflags(write=False)
        self.inverse.setflags(write=False)

    def mul(self, i: int, k: int) -> int:
        return int(self.cayley[i, k])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))

    @cached_property
    def powers(self) -> np.ndarray:
        """Frozen ``(|G|, |G|+1)`` table: ``powers[i, k]`` is the index of ``g_i^k``."""
        idx = np.arange(self.order)
        out = np.zeros((self.order, self.order + 1), dtype=np.int64)
        for k in range(self.order):
            out[:, k + 1] = self.cayley[out[:, k], idx]
        out.setflags(write=False)
        return out

    @cached_property
    def decomposition(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Frozen generators and exponent bounds of a direct-product decomposition of
        an abelian group, computed once.

        Each step takes, among the elements not yet generated, one of largest
        quotient order (by what is already generated) whose element order equals
        that quotient order, lowest index first.  Such an element always exists,
        and the cyclic subgroup it generates meets the earlier ones trivially, so
        every generator's order is its bound and (l_1, ..., l_k) -> prod g_i^l_i
        is an isomorphism from Z_L1 x ... x Z_Lk onto the group (verified).
        """
        if not self.is_abelian:
            raise NotAGroup("generator decomposition is only defined here for abelian groups")
        generators: list[int] = []
        bounds: list[int] = []
        generated = np.arange(self.order) == 0
        while not generated.all():
            # quotient order: the least k >= 1 with g^k already generated
            quotient = np.argmax(generated[self.powers[:, 1:]], axis=1) + 1
            # the product formula is a character only if each generator's order is its bound
            exact = ~generated & (self.powers[np.arange(self.order), quotient] == 0)
            best = int(np.argmax(np.where(exact, quotient, 0)))
            if not exact[best]:
                raise NotAGroup("failed to generate the group")
            generators.append(best)
            bounds.append(int(quotient[best]))
            generated[word_elements(self, generators, bounds)] = True
        if math.prod(bounds) != self.order:
            raise NotAGroup("generator words do not enumerate the group bijectively")
        return tuple(generators), tuple(bounds)

    def element_order(self, i: int) -> int:
        """Smallest n >= 1 with g_i^n = e."""
        return self.powers[i].tolist().index(0, 1)

    def conjugate(self, l: int, i: int) -> int:
        """Index of g_l * g_i * g_l^-1."""
        return self.mul(self.mul(l, i), self.inv(l))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteGroup(order={self.order}, name={self.name!r})"


@dataclass(frozen=True, eq=False)
class ConjugacyClasses:
    """Partition of the element indices into conjugacy classes.

    Classes are sorted by their minimal element, so the identity class comes
    first and the ordering is reproducible across runs.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    class_sizes: np.ndarray
    representatives: tuple[int, ...]

    def __post_init__(self) -> None:
        self.class_of.setflags(write=False)
        self.class_sizes.setflags(write=False)

    @property
    def s(self) -> int:
        return len(self.classes)


def validate_group(cayley, labels=None, name: str | None = None) -> FiniteGroup:
    """Check a raw Cayley table and build a :class:`FiniteGroup`.

    Verifies closure, identity, inverses and associativity, in that order; the
    error message names the first failing element or triple.  These axioms make
    every row and column a permutation.  If the identity is not element 0 the
    table is relabeled by swapping it into place.
    """
    table = np.asarray(cayley)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup(f"Cayley table must be square, got shape {table.shape}")
    if table.size == 0:
        raise NotAGroup("Cayley table is empty")
    # integers, or floats with integral values (NaN fails); no object, string or bool
    if table.dtype.kind not in "iu" and (
        table.dtype.kind != "f" or not np.all(table == np.floor(table))
    ):
        raise NotAGroup("Cayley table entries must be integers")
    n = table.shape[0]
    if n > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"group order {n} exceeds the supported maximum {MAX_GROUP_ORDER}")
    # the range is checked before the cast, so no float (inf, 1e200) casts out of int64
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotAGroup(
            f"entry [{bad[0]}][{bad[1]}] = {table[bad[0], bad[1]]} is outside 0..{n - 1}"
        )
    table = table.astype(np.int64)

    labels = tuple(str(x) for x in (range(n) if labels is None else labels))
    if len(labels) != n:
        raise NotAGroup(f"expected {n} labels, got {len(labels)}")

    idx = np.arange(n)
    identities = np.flatnonzero((table == idx).all(axis=1) & (table == idx[:, None]).all(axis=0))
    if identities.size == 0:
        raise NotAGroup("no two-sided identity element found")
    identity = int(identities[0])
    if identity != 0:
        perm = idx.copy()
        perm[0], perm[identity] = identity, 0
        # perm swaps two labels, so it is its own inverse
        table = perm[table[np.ix_(perm, perm)]]
        labels = tuple(labels[perm[i]] for i in range(n))

    # the first right inverse of each element, and whether it is a left inverse too
    zero = table == 0
    has_right, inverse = zero.any(axis=1), np.argmax(zero, axis=1)
    two_sided = has_right & (table[inverse, idx] == 0)
    if not two_sided.all():
        i = int(np.argmin(two_sided))
        if not has_right[i]:
            raise NotAGroup(f"element {i} has no right inverse")
        raise NotAGroup(f"element {i}: right inverse {inverse[i]} is not a left inverse")

    # cayley[cayley[i,j],k] against cayley[i,cayley[j,k]], all triples at once
    left = table[table, :]
    right = table[:, table]
    mismatch = left != right
    if mismatch.any():
        i, j, k = (int(x) for x in np.argwhere(mismatch)[0])
        raise NotAGroup(
            f"associativity fails at triple ({i},{j},{k}): "
            f"({labels[i]}*{labels[j]})*{labels[k]} = {labels[int(left[i, j, k])]} "
            f"but {labels[i]}*({labels[j]}*{labels[k]}) = {labels[int(right[i, j, k])]}"
        )

    return FiniteGroup(order=n, cayley=table, inverse=inverse, labels=labels, name=name)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
    """Partition the group into conjugacy classes, sorted by minimal element."""
    # column i of the conjugation table holds g_l g_i g_l^-1 for every l: the class of g_i
    least = group.cayley[group.cayley, group.inverse[:, None]].min(axis=0)
    reps = np.flatnonzero(least == np.arange(group.order))  # each class's least member
    class_of = np.searchsorted(reps, least)
    sizes = np.bincount(class_of)
    members, ends = np.argsort(class_of, kind="stable").tolist(), np.cumsum(sizes).tolist()
    return ConjugacyClasses(
        classes=tuple(tuple(members[start:end]) for start, end in zip([0, *ends], ends)),
        class_of=class_of.astype(np.int64),
        class_sizes=sizes.astype(np.int64),
        representatives=tuple(reps.tolist()),
    )


def cyclic_group(n: int) -> FiniteGroup:
    """Z_n with additive labels 0..n-1."""
    if n < 1:
        raise NotAGroup(f"cyclic group order must be >= 1, got {n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return validate_group(table, labels=[str(i) for i in range(n)], name=f"z{n}")


def klein_group() -> FiniteGroup:
    """The Klein four-group with labels e, x, y, z (x*z = y, all self-inverse)."""
    table = np.array(
        [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 2, 1, 0],
        ]
    )
    return validate_group(table, labels=["e", "x", "y", "z"], name="k4")


_S3_PERMS: tuple[tuple[int, ...], ...] = (
    (0, 1, 2),  # e
    (1, 2, 0),  # (123)
    (2, 0, 1),  # (132)
    (1, 0, 2),  # (12)(3)
    (0, 2, 1),  # (23)(1)
    (2, 1, 0),  # (13)(2)
)
_S3_LABELS = ("e", "(123)", "(132)", "(12)(3)", "(23)(1)", "(13)(2)")


def symmetric_group_3() -> FiniteGroup:
    """S3 on three symbols, generated by (123) and (12)(3), cycle-notation labels."""

    def compose(p, q):
        return tuple(p[q[x]] for x in range(3))

    index = {p: i for i, p in enumerate(_S3_PERMS)}
    table = np.array(
        [[index[compose(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]
    )
    return validate_group(table, labels=_S3_LABELS, name="s3")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with element (i, k) encoded as i * |B| + k."""
    n = a.order * b.order
    if n > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"product order {n} exceeds the supported maximum {MAX_GROUP_ORDER}")
    # axes (i1, k1, i2, k2): (i1, k1) * (i2, k2) = (i1 * i2, k1 * k2)
    table = (a.cayley[:, None, :, None] * b.order + b.cayley[None, :, None, :]).reshape(n, n)
    labels = [
        f"({a.labels[i]},{b.labels[k]})" for i in range(a.order) for k in range(b.order)
    ]
    name = None
    if a.name and b.name:
        name = f"{a.name}x{b.name}"
    return validate_group(table, labels=labels, name=name)


def builtin_group(spec: str) -> FiniteGroup:
    """Build one of the named groups: ``z<N>``, ``k4``, ``s3`` or products like ``z4xz2``."""
    group = None
    for part in (p.strip() for p in spec.strip().lower().split("x")):
        m = re.fullmatch(r"z(\d+)", part)
        if m:
            factor = cyclic_group(int(m.group(1)))
        elif part == "k4":
            factor = klein_group()
        elif part == "s3":
            factor = symmetric_group_3()
        else:
            # the whole spec, as given: one of its fragments may be no name at all
            raise UnknownBuiltin(
                f"unknown builtin group {spec!r} (expected z<N>, k4, s3 or a product)"
            )
        group = factor if group is None else direct_product(group, factor)
    return group


def cyclic_generator(group: FiniteGroup) -> int | None:
    """Lowest-index element of order |G|, or None when the group is not cyclic."""
    full = np.flatnonzero(group.powers[:, 1:-1].all(axis=1))  # no g^k = e below k = |G|
    return int(full[0]) if full.size else None


def generator_decomposition(group: FiniteGroup) -> tuple[list[int], list[int]]:
    """Generators and exponent bounds of a direct-product decomposition of an abelian
    group: fresh lists of :attr:`FiniteGroup.decomposition`."""
    generators, bounds = group.decomposition
    return list(generators), list(bounds)


def word_elements(group: FiniteGroup, generators: list[int], bounds: list[int]) -> list[int]:
    """Element index for every word, in mixed-radix order (first generator most significant)."""
    elements = np.zeros(1, dtype=np.int64)
    for g, bound in zip(generators, bounds):
        elements = group.cayley[elements[:, None], group.powers[g, :bound]].ravel()
    return elements.tolist()


def element_words(group: FiniteGroup, generators: list[int], bounds: list[int]) -> np.ndarray:
    """Row g holds the exponent word of element g; the inverse of ``word_elements``."""
    words = np.array(list(np.ndindex(*bounds)), dtype=np.int64).reshape(group.order, len(bounds))
    return words[np.argsort(word_elements(group, generators, bounds))]
