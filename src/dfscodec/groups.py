"""Concrete finite groups (Cayley tables) and their conjugacy structure.

Elements are integers ``0..order-1`` and the identity always sits at index 0;
``validate_group`` relabels input tables that put it elsewhere.  Groups above
``MAX_GROUP_ORDER`` are rejected: the dense protocol state, not the group
algebra, is the binding cost, and nothing past order 64 fits that budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

    def element_order(self, i: int) -> int:
        """Smallest n >= 1 with g_i^n = e."""
        n, cur = 1, i
        while cur != 0:
            cur = self.mul(cur, i)
            n += 1
        return n

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

    Verifies closure, identity, inverses and associativity; the error message
    pinpoints the first failing triple.  If the identity is not element 0 the
    table is relabeled by swapping it into place.
    """
    table = np.asarray(cayley)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup(f"Cayley table must be square, got shape {table.shape}")
    if table.size == 0:
        raise NotAGroup("Cayley table is empty")
    if not np.issubdtype(table.dtype, np.integer):
        if not np.all(table == np.floor(table)):
            raise NotAGroup("Cayley table entries must be integers")
        table = table.astype(np.int64)
    else:
        table = table.astype(np.int64)
    n = table.shape[0]
    if n > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"group order {n} exceeds the supported maximum {MAX_GROUP_ORDER}")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotAGroup(
            f"entry [{bad[0]}][{bad[1]}] = {table[bad[0], bad[1]]} is outside 0..{n - 1}"
        )

    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise NotAGroup(f"expected {n} labels, got {len(labels)}")
    else:
        labels = tuple(str(i) for i in range(n))

    idx = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(table[e, :], idx) and np.array_equal(table[:, e], idx):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity element found")
    if identity != 0:
        perm = idx.copy()
        perm[0], perm[identity] = identity, 0
        # perm swaps two labels, so it is its own inverse
        table = perm[table[np.ix_(perm, perm)]]
        labels = tuple(labels[perm[i]] for i in range(n))

    inverse = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        hits = np.flatnonzero(table[i, :] == 0)
        if hits.size == 0:
            raise NotAGroup(f"element {i} has no right inverse")
        k = int(hits[0])
        if table[k, i] != 0:
            raise NotAGroup(f"element {i}: right inverse {k} is not a left inverse")
        inverse[i] = k

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

    sorted_rows = np.sort(table, axis=1)
    sorted_cols = np.sort(table, axis=0)
    if not (np.all(sorted_rows == idx) and np.all(sorted_cols == idx[:, None])):
        bad = 0 if np.all(sorted_rows == idx) else int(np.argwhere(sorted_rows != idx)[0][0])
        raise NotAGroup(f"row/column {bad} of the Cayley table is not a permutation")

    return FiniteGroup(order=n, cayley=table, inverse=inverse, labels=labels, name=name)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyClasses:
    """Partition the group into conjugacy classes, sorted by minimal element."""
    n = group.order
    seen = np.zeros(n, dtype=bool)
    classes: list[tuple[int, ...]] = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = {group.conjugate(l, i) for l in range(n)}
        for x in orbit:
            seen[x] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: c[0])
    class_of = np.empty(n, dtype=np.int64)
    for c, members in enumerate(classes):
        for x in members:
            class_of[x] = c
    sizes = np.array([len(c) for c in classes], dtype=np.int64)
    reps = tuple(c[0] for c in classes)
    return ConjugacyClasses(
        classes=tuple(classes), class_of=class_of, class_sizes=sizes, representatives=reps
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
    return next(
        (i for i in range(group.order) if group.element_order(i) == group.order), None
    )


def generator_decomposition(group: FiniteGroup) -> tuple[list[int], list[int]]:
    """Generators and exponent bounds of a direct-product decomposition of an abelian group.

    Each step takes, among the elements not yet generated, one of largest
    quotient order (by what is already generated) whose element order equals
    that quotient order, lowest index first.  Such an element always exists,
    and the cyclic subgroup it generates meets the earlier ones trivially, so
    every generator's order is its bound and (l_1, ..., l_k) -> prod g_i^l_i
    is an isomorphism from Z_L1 x ... x Z_Lk onto the group (verified).
    """
    if not group.is_abelian:
        raise NotAGroup("generator decomposition is only defined here for abelian groups")
    generators: list[int] = []
    bounds: list[int] = []
    generated = {0}
    while len(generated) < group.order:
        best_bound, best = 0, None
        for g in range(group.order):
            if g in generated:
                continue
            quotient_order, cur = 1, g
            while cur not in generated:
                cur = group.mul(cur, g)
                quotient_order += 1
            # the product formula is a character only if each generator's order is its bound
            if cur == 0 and quotient_order > best_bound:
                best_bound, best = quotient_order, g
        if best is None:
            raise NotAGroup("failed to generate the group")
        generators.append(best)
        bounds.append(best_bound)
        generated = set(word_elements(group, generators, bounds))
    return generators, bounds


def word_elements(group: FiniteGroup, generators: list[int], bounds: list[int]) -> list[int]:
    """Element index for every word, in mixed-radix order (first generator most significant)."""
    elements = [0]
    for g, bound in zip(generators, bounds):
        powers = [0]
        for _ in range(bound - 1):
            powers.append(group.mul(powers[-1], g))
        elements = [group.mul(e, p) for e in elements for p in powers]
    return elements


def element_words(group: FiniteGroup, generators: list[int], bounds: list[int]) -> np.ndarray:
    """Row g holds the exponent word of element g; the inverse of ``word_elements``."""
    words = np.array(list(np.ndindex(*bounds)), dtype=np.int64).reshape(group.order, len(bounds))
    return words[np.argsort(word_elements(group, generators, bounds))]
