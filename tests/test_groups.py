import itertools

import numpy as np
import pytest

from dfscodec.errors import GroupTooLarge, NotAGroup
from dfscodec.groups import (
    builtin_group,
    conjugacy_classes,
    cyclic_generator,
    cyclic_group,
    direct_product,
    element_words,
    generator_decomposition,
    klein_group,
    symmetric_group_3,
    validate_group,
    word_elements,
)

BUILTINS = ["z1", "z2", "z3", "z4", "z8", "k4", "s3", "z4xz2", "z3xz2"]


def test_trivial_group():
    group = validate_group([[0]])
    assert group.order == 1
    assert conjugacy_classes(group).s == 1


def test_z4_table_valid():
    group = cyclic_group(4)
    assert group.inv(1) == 3
    assert group.mul(2, 3) == 1


def test_corrupted_z4_table_fails_associativity():
    # oracle: scan all triples of the corrupted table by brute force first
    table = ((np.arange(4)[:, None] + np.arange(4)[None, :]) % 4).tolist()
    table[1][1] = 3
    failing = None
    for i in range(4):
        for j in range(4):
            for k in range(4):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    failing = (i, j, k)
                    break
            if failing:
                break
        if failing:
            break
    assert failing is not None
    with pytest.raises(NotAGroup, match="associativity|identity|permutation|inverse"):
        validate_group(table)


def test_missing_identity_rejected():
    with pytest.raises(NotAGroup, match="identity"):
        validate_group([[1, 0], [1, 0]])


def test_identity_relocated_to_front():
    # Z2 written with the identity at position 1
    group = validate_group([[1, 0], [0, 1]], labels=["a", "e"])
    assert group.labels[0] == "e"
    assert group.mul(0, 1) == 1


def test_identity_relocated_in_a_larger_table():
    # z4xz2 with labels 0 and 5 swapped: relabelling swaps them back
    group = builtin_group("z4xz2")
    perm = np.arange(8)
    perm[0], perm[5] = 5, 0
    table = np.empty_like(group.cayley)
    table[np.ix_(perm, perm)] = perm[group.cayley]
    moved = validate_group(table, labels=[group.labels[p] for p in perm])
    assert np.array_equal(moved.cayley, group.cayley)
    assert moved.labels == group.labels


def test_order_guard():
    with pytest.raises(GroupTooLarge):
        cyclic_group(65)


@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_validate(name):
    group = builtin_group(name)
    revalidated = validate_group(group.cayley, labels=group.labels)
    assert revalidated.order == group.order


@pytest.mark.parametrize("name", BUILTINS + ["z24", "s3xz2", "z6"])
def test_conjugation_closure_exhaustive(name):
    group = (
        direct_product(symmetric_group_3(), cyclic_group(2))
        if name == "s3xz2"
        else builtin_group(name)
    )
    assert group.order <= 24
    classes = conjugacy_classes(group)
    for l in range(group.order):
        for i in range(group.order):
            assert classes.class_of[group.conjugate(l, i)] == classes.class_of[i]
    assert int(np.sum(classes.class_sizes)) == group.order


@pytest.mark.parametrize("name", BUILTINS)
def test_abelian_iff_all_classes_singletons(name):
    group = builtin_group(name)
    classes = conjugacy_classes(group)
    assert group.is_abelian == (classes.s == group.order)


def test_k4_classes_are_four_singletons():
    classes = conjugacy_classes(klein_group())
    assert classes.classes == ((0,), (1,), (2,), (3,))


def test_s3_class_sizes():
    classes = conjugacy_classes(symmetric_group_3())
    assert sorted(classes.class_sizes.tolist()) == [1, 2, 3]
    # identity class first
    assert classes.classes[0] == (0,)


def test_s3_generated_by_labeled_generators():
    group = symmetric_group_3()
    rot = group.labels.index("(123)")
    flip = group.labels.index("(12)(3)")
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in (rot, flip):
            y = group.mul(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert len(seen) == 6


def test_k4_every_element_self_inverse():
    group = klein_group()
    assert all(group.inv(i) == i for i in range(4))
    assert group.mul(1, 3) == 2  # x * z = y


def test_zn_classes_all_singletons():
    for n in (2, 5, 8):
        classes = conjugacy_classes(cyclic_group(n))
        assert classes.s == n


def test_generator_decomposition_bijection():
    for name in ("z8", "k4", "z4xz2", "z2xz2", "z3xz2", "z2xz2xz2", "z6xz2", "z8xz2", "z3xz3",
                 "z4xz4", "z3xz6", "k4xz4", "k4xk4", "z8xz8", "z4xz16", "z2xz4xz8",
                 "z2xz2xz3xz4", "z2xz2xz2xz2xz2xz2"):
        group = builtin_group(name)
        generators, bounds = generator_decomposition(group)
        elements = word_elements(group, generators, bounds)
        assert sorted(elements) == list(range(group.order))
        assert int(np.prod(bounds)) == group.order


def test_generator_decomposition_is_computed_once_and_returned_fresh():
    group = builtin_group("z4xz2")
    first, second = generator_decomposition(group), generator_decomposition(group)
    assert first == second == (list(group.decomposition[0]), list(group.decomposition[1]))
    assert first[0] is not second[0] and first[1] is not second[1]
    first[0].append(99)  # a caller's edit reaches no later call
    assert generator_decomposition(group) == second
    with pytest.raises(NotAGroup, match="abelian"):
        generator_decomposition(builtin_group("s3"))


@pytest.mark.parametrize("name", ["z4xz2", "z8xz2", "z6xz2", "z2xz2xz2"])
def test_generator_orders_equal_their_bounds(name):
    # otherwise the words do not form a direct product and prod omega^(lam l)
    # is not a character
    group = builtin_group(name)
    generators, bounds = generator_decomposition(group)
    assert [group.element_order(g) for g in generators] == bounds
    assert sorted(word_elements(group, generators, bounds)) == list(range(group.order))


@pytest.mark.parametrize("name", ["z5", "k4", "z4xz2", "z2xz2xz2"])
def test_element_words_invert_word_elements(name):
    group = builtin_group(name)
    generators, bounds = generator_decomposition(group)
    words = element_words(group, generators, bounds)
    elements = word_elements(group, generators, bounds)
    assert words[elements].tolist() == [list(w) for w in np.ndindex(*bounds)]


@pytest.mark.parametrize("name", BUILTINS + ["z24", "s3xz2"])
def test_power_table_matches_a_walk(name, relabelled):
    for group in [builtin_group(name)] + ([relabelled(name)] if name != "z1" else []):
        n = group.order
        walk = [[0] for _ in range(n)]
        for i, row in enumerate(walk):
            for _ in range(n):
                row.append(group.mul(row[-1], i))
        assert group.powers.dtype == np.int64 and not group.powers.flags.writeable
        assert group.powers.tolist() == walk
        orders = [row.index(0, 1) for row in walk]
        assert [group.element_order(i) for i in range(n)] == orders
        assert cyclic_generator(group) == next((i for i in range(n) if orders[i] == n), None)


def _axiom_refusal(table):
    """The refusal ``validate_group`` documents for a table over 0..n-1, by brute force:
    identity, then inverses element by element, then associativity; None for a group."""
    n = len(table)
    ids = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not ids:
        return "no two-sided identity element found"
    swap = {0: ids[0], ids[0]: 0}  # the identity moves to index 0
    s = [swap.get(x, x) for x in range(n)]
    t = [[s[table[s[i]][s[k]]] for k in range(n)] for i in range(n)]
    for i in range(n):
        rights = [k for k in range(n) if t[i][k] == 0]
        if not rights:
            return f"element {i} has no right inverse"
        if t[rights[0]][i] != 0:
            return f"element {i}: right inverse {rights[0]} is not a left inverse"
    for i, j, k in itertools.product(range(n), repeat=3):
        left, right = t[t[i][j]][k], t[i][t[j][k]]
        if left != right:
            return (f"associativity fails at triple ({i},{j},{k}): ({s[i]}*{s[j]})*{s[k]} = "
                    f"{s[left]} but {s[i]}*({s[j]}*{s[k]}) = {s[right]}")
    return None


def test_validate_group_on_every_two_and_three_element_table():
    # 16 + 19683 tables: the axioms alone decide, and they leave no non-Latin table
    accepted = 0
    for n in (2, 3):
        for flat in itertools.product(range(n), repeat=n * n):
            table = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            expected = _axiom_refusal(table)
            if expected is None:
                group = validate_group(table)
                accepted += 1
                for t in (np.array(table), group.cayley):
                    assert (np.sort(t, axis=0) == np.arange(n)[:, None]).all()
                    assert (np.sort(t, axis=1) == np.arange(n)).all()
            else:
                with pytest.raises(NotAGroup) as info:
                    validate_group(table)
                assert str(info.value) == expected
    assert accepted == 2 + 3  # z2 and z3, each with every element as the identity once


@pytest.mark.parametrize(
    "table, message",
    [
        (np.array([[0, 1], [1, 1.5]]), "entries must be integers"),
        (np.array([[0, 1], [1, np.nan]]), "entries must be integers"),
        (np.array([[0, 1], [1, np.inf]]), r"entry \[1\]\[1\] = inf is outside 0\.\.1"),
        (np.array([[0, 1], [1, 1e200]]), r"entry \[1\]\[1\] = 1e\+200 is outside 0\.\.1"),
        (np.array([[0, 1], [1, None]], dtype=object), "entries must be integers"),
        (np.array([["0", "1"], ["1", "0"]]), "entries must be integers"),
        (np.array([[False, True], [True, False]]), "entries must be integers"),
        ([[0, 1], [1, -(2**70)]], "entries must be integers"),
    ],
    ids=["fraction", "nan", "inf", "1e200", "none", "string", "bool", "below-int64"],
)
def test_validate_group_refuses_entries_that_are_no_integers_in_range(table, message):
    # each used to raise TypeError or OverflowError, or warn on a cast out of int64
    with pytest.raises(NotAGroup, match=message):
        validate_group(table)


def test_validate_group_reads_integral_floats():
    assert validate_group(np.array([[0.0, 1.0], [1.0, 0.0]])).cayley.tolist() == [[0, 1], [1, 0]]


def test_cyclic_generator_is_lowest_index_of_full_order(relabelled):
    assert cyclic_generator(cyclic_group(1)) == 0
    assert cyclic_generator(cyclic_group(8)) == 1
    assert cyclic_generator(relabelled("z8")) == 2
    assert cyclic_generator(builtin_group("z3xz2")) == 3
    assert cyclic_generator(klein_group()) is None
    assert cyclic_generator(symmetric_group_3()) is None


@pytest.mark.parametrize("spec", ["z2xz2", "z4xz2", "z2xz2xz2", "s3xz2"])
def test_builtin_product_table_is_the_pairwise_product(spec):
    # (i1, k1) * (i2, k2) = (i1 * i2, k1 * k2), element (i, k) numbered i * |B| + k
    parts = [builtin_group(p) for p in spec.split("x")]
    table = parts[0].cayley
    for b in parts[1:]:
        na, nb = table.shape[0], b.order
        expected = np.empty((na * nb, na * nb), dtype=np.int64)
        for i1 in range(na):
            for k1 in range(nb):
                for i2 in range(na):
                    for k2 in range(nb):
                        expected[i1 * nb + k1, i2 * nb + k2] = table[i1, i2] * nb + b.cayley[k1, k2]
        table = expected
    assert np.array_equal(builtin_group(spec).cayley, table)
