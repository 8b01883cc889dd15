import numpy as np
import pytest

import dfscodec.reps as reps
from dfscodec.errors import (
    MissingIrrepMatrices,
    NonIntegerMultiplicity,
    NotFaithful,
    NumericalDegeneracy,
    ResourceLimit,
    RMaxExceeded,
)
from dfscodec.groups import builtin_group, conjugacy_classes, cyclic_group
from dfscodec.reps import (
    CharacterTable,
    UnitaryRep,
    builtin_character_table,
    builtin_rep,
    compound_character,
    contains_regular,
    is_faithful,
    isotypic_decompose,
    min_r,
    multiplicities,
    pauli_rep,
    regular_rep,
    s3_two_dim_rep,
    tensor_power_matrices,
    zn_phase_rep,
)

OMEGA3 = np.exp(2j * np.pi / 3)


def test_klein_table_values():
    table = builtin_character_table(builtin_group("k4"))
    expected = np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=complex
    )
    np.testing.assert_allclose(table.chars, expected, atol=1e-12)


def test_z3_table_values():
    table = builtin_character_table(cyclic_group(3))
    w = OMEGA3
    expected = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w]])
    np.testing.assert_allclose(table.chars, expected, atol=1e-12)


def test_zn_table_values():
    n = 6
    table = builtin_character_table(cyclic_group(n))
    w = np.exp(2j * np.pi / n)
    expected = np.array([[w ** (lam * g) for g in range(n)] for lam in range(n)])
    np.testing.assert_allclose(table.chars, expected, atol=1e-12)


def test_s3_table_values():
    table = builtin_character_table(builtin_group("s3"))
    expected = np.array([[1, 1, 1], [1, 1, -1], [2, -1, 0]], dtype=complex)
    np.testing.assert_allclose(table.chars, expected, atol=1e-12)
    assert table.dims.tolist() == [1, 1, 2]
    rot = table.irrep_matrices[2][1]
    np.testing.assert_allclose(
        rot, [[-0.5, -np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]], atol=1e-12
    )
    flip = table.irrep_matrices[2][3]
    np.testing.assert_allclose(flip, [[1, 0], [0, -1]], atol=1e-12)


@pytest.mark.parametrize("name", ["z2", "z3", "z8", "k4", "s3", "z4xz2"])
def test_character_table_orthogonality_and_dims(name):
    group = builtin_group(name)
    table = builtin_character_table(group)
    sizes = table.classes.class_sizes
    gram = (table.chars * sizes) @ table.chars.conj().T / group.order
    assert np.max(np.abs(gram - np.eye(table.num_irreps))) < 1e-10
    assert int(np.sum(table.dims**2)) == group.order
    np.testing.assert_allclose(table.chars[0], np.ones(table.num_irreps), atol=1e-12)


def test_k4_pauli_compound_character_squares_to_regular():
    group = builtin_group("k4")
    rep = pauli_rep(group)
    table = builtin_character_table(group)
    chi = compound_character(rep, table.classes)
    np.testing.assert_allclose(chi**2, [4, 0, 0, 0], atol=1e-12)


def test_trivial_rep_character_is_all_ones():
    group = builtin_group("s3")
    mats = np.ones((6, 1, 1), dtype=complex)
    rep = UnitaryRep.build(group, mats)
    chi = compound_character(rep)
    np.testing.assert_allclose(chi, np.ones(3), atol=1e-12)


def test_z3_phase_rep_compound_character():
    group = cyclic_group(3)
    rep = zn_phase_rep(group, 2)
    chi = compound_character(rep)
    np.testing.assert_allclose(chi, [2, -OMEGA3**2, -OMEGA3], atol=1e-12)


def test_z3_multiplicities_powers_one_and_two():
    group = cyclic_group(3)
    rep = zn_phase_rep(group, 2)
    table = builtin_character_table(group)
    assert multiplicities(rep, table, 1).gammas == (1, 1, 0)
    assert multiplicities(rep, table, 2).gammas == (1, 2, 1)


def test_s3_two_dim_multiplicities():
    group = builtin_group("s3")
    rep = s3_two_dim_rep(group)
    table = builtin_character_table(group)
    assert multiplicities(rep, table, 1).gammas == (0, 0, 1)
    assert multiplicities(rep, table, 2).gammas == (1, 1, 1)
    assert multiplicities(rep, table, 3).gammas == (1, 1, 3)


def test_contains_regular_thresholds():
    group = builtin_group("s3")
    rep = s3_two_dim_rep(group)
    table = builtin_character_table(group)
    assert not contains_regular(multiplicities(rep, table, 2), table)
    assert contains_regular(multiplicities(rep, table, 3), table)
    reg = regular_rep(group)
    assert contains_regular(multiplicities(reg, table, 1), table)


def test_regular_rep_traces_and_multiplicities():
    for name in ("z2", "k4", "s3"):
        group = builtin_group(name)
        reg = regular_rep(group)
        assert abs(np.trace(reg.matrices[0]) - group.order) < 1e-12
        for g in range(1, group.order):
            assert abs(np.trace(reg.matrices[g])) < 1e-12
        table = builtin_character_table(group)
        mv = multiplicities(reg, table, 1)
        assert mv.gammas == tuple(int(d) for d in table.dims)
    # Z2 regular rep is the swap
    swap = regular_rep(builtin_group("z2")).matrices[1]
    np.testing.assert_allclose(swap, [[0, 1], [1, 0]], atol=1e-12)


def test_min_r_values():
    z3 = cyclic_group(3)
    assert min_r(zn_phase_rep(z3, 2), builtin_character_table(z3)) == 2
    s3 = builtin_group("s3")
    assert min_r(s3_two_dim_rep(s3), builtin_character_table(s3)) == 3
    k4 = builtin_group("k4")
    assert min_r(pauli_rep(k4), builtin_character_table(k4)) == 2


def test_min_r_matches_ceiling_formula_for_cyclic_phase_reps():
    for n in range(2, 9):
        for d in (2, 3):
            group = cyclic_group(n)
            rep = zn_phase_rep(group, d)
            table = builtin_character_table(group)
            expected = -(-(n - 1) // (d - 1))  # ceil((n-1)/(d-1))
            assert min_r(rep, table) == expected


def test_min_r_rejects_unfaithful_rep():
    group = cyclic_group(4)
    # g -> diag(1, (-1)^g) identifies g=0,2 and g=1,3
    mats = np.array([np.diag([1.0, (-1.0) ** g]) for g in range(4)], dtype=complex)
    rep = UnitaryRep.build(group, mats)
    assert not is_faithful(rep)
    with pytest.raises(NotFaithful):
        min_r(rep, builtin_character_table(group))


def _pairwise_faithful(rep):
    mats = rep.matrices
    return all(
        np.max(np.abs(mats[i] - mats[k])) > 1e-9
        for i in range(len(mats))
        for k in range(i + 1, len(mats))
    )


@pytest.mark.parametrize("spec", ["z8", "z2-trivial", "z3-trivial", "z4-halved",
                                  "z4xz2-dropped", "s3-regular", "k4-pauli"])
def test_is_faithful_matches_the_pairwise_check(spec):
    name, _, kind = spec.partition("-")
    group = builtin_group(name)
    order = group.order
    if kind == "trivial":
        rep = UnitaryRep.build(group, np.ones((order, 1, 1)))
    elif kind == "halved":
        rep = UnitaryRep.build(group, np.array([np.diag([1.0, (-1.0) ** g]) for g in range(order)]))
    elif kind == "dropped":
        # keeps the Z2 factor only: every element shares its matrix with three others
        rep = UnitaryRep.build(group, np.array([[[(-1.0) ** (g % 2)]] for g in range(order)]))
    elif kind == "regular":
        rep = regular_rep(group)
    elif kind == "pauli":
        rep = pauli_rep(group)
    else:
        rep = zn_phase_rep(group, 2)
    assert is_faithful(rep) == _pairwise_faithful(rep)
    assert is_faithful(rep) == (kind in ("", "regular", "pauli"))


def test_min_r_r_max_exceeded():
    group = cyclic_group(8)
    rep = zn_phase_rep(group, 2)
    with pytest.raises(RMaxExceeded):
        min_r(rep, builtin_character_table(group), r_max=3)


def test_min_r_coset_trapped_rep_never_succeeds():
    # a faithful rep whose constituents omit the trivial character can have
    # every tensor power trapped in a character-group coset: the sign action
    # of Z2 alternates between the trivial and sign irreps and never holds both
    group = cyclic_group(2)
    sign_only = UnitaryRep.build(group, np.array([[[1.0]], [[-1.0]]]))
    assert is_faithful(sign_only)
    with pytest.raises(RMaxExceeded):
        min_r(sign_only, builtin_character_table(group), r_max=24)
    # same obstruction in two dimensions, on a product group
    prod = builtin_group("z4xz2")
    mats = np.array([np.diag([1j ** (g // 2), (-1.0) ** (g % 2)]) for g in range(8)])
    trapped = UnitaryRep.build(prod, mats)
    assert is_faithful(trapped)
    with pytest.raises(RMaxExceeded):
        min_r(trapped, builtin_character_table(prod), r_max=16)


def test_projective_rep_has_non_integer_odd_multiplicities():
    group = builtin_group("k4")
    rep = pauli_rep(group)
    table = builtin_character_table(group)
    with pytest.raises(NonIntegerMultiplicity):
        multiplicities(rep, table, 1)
    assert multiplicities(rep, table, 2).gammas == (1, 1, 1, 1)


def test_dimension_accounting_for_every_builtin():
    cases = [
        ("z3", zn_phase_rep(cyclic_group(3), 2), (1, 2, 3)),
        ("s3", s3_two_dim_rep(builtin_group("s3")), (1, 2, 3)),
        ("z8", zn_phase_rep(cyclic_group(8), 2), (1, 3, 7)),
    ]
    for _, rep, powers in cases:
        table = builtin_character_table(rep.group)
        for n in powers:
            mv = multiplicities(rep, table, n)
            assert sum(g * int(d) for g, d in zip(mv.gammas, table.dims)) == rep.dim**n


def test_character_power_consistency_brute_force():
    # trace of the explicit tensor power equals the powered compound character
    for rep in (
        zn_phase_rep(cyclic_group(3), 2),
        s3_two_dim_rep(builtin_group("s3")),
        zn_phase_rep(cyclic_group(4), 3),
    ):
        classes = conjugacy_classes(rep.group)
        chi = compound_character(rep, classes)
        for n in (2, 3):
            if rep.dim**n > 512:
                continue
            powers = tensor_power_matrices(rep, n)
            traced = np.array(
                [np.trace(powers[c[0]]) for c in classes.classes]
            )
            np.testing.assert_allclose(traced, chi**n, atol=1e-9)


def test_isotypic_z3_power_two_blocks():
    group = cyclic_group(3)
    rep = zn_phase_rep(group, 2)
    table = builtin_character_table(group)
    decomp = isotypic_decompose(rep, 2, table)
    dims = [(c.irrep, c.dim * c.multiplicity) for c in decomp.components]
    assert dims == [(0, 1), (1, 2), (2, 1)]
    # the two-dimensional component is spanned by |01> and |10>, |01> first
    first = decomp.block_vector(1, 1, 1)
    second = decomp.block_vector(1, 1, 2)
    np.testing.assert_allclose(first, [0, 1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(second, [0, 0, 1, 0], atol=1e-12)


def test_isotypic_trivial_group_single_block():
    group = cyclic_group(1)
    rep = zn_phase_rep(group, 2)
    table = builtin_character_table(group)
    for r in (1, 2, 3):
        decomp = isotypic_decompose(rep, r, table)
        assert len(decomp.components) == 1
        assert decomp.components[0].multiplicity == 2**r


def test_isotypic_s3_blocks_and_off_block_zeros():
    group = builtin_group("s3")
    rep = s3_two_dim_rep(group)
    table = builtin_character_table(group)
    decomp = isotypic_decompose(rep, 3, table)
    sizes = {c.irrep: (c.dim, c.multiplicity) for c in decomp.components}
    assert sizes == {0: (1, 1), 1: (1, 1), 2: (2, 3)}
    # brute force: conjugate every collective operator and check the block mask
    powers = tensor_power_matrices(rep, 3)
    v = decomp.basis
    mask = np.zeros((8, 8), dtype=bool)
    for comp in decomp.components:
        size = comp.dim * comp.multiplicity
        mask[comp.offset : comp.offset + size, comp.offset : comp.offset + size] = True
    for g in range(group.order):
        conjugated = v.conj().T @ powers[g] @ v
        assert np.max(np.abs(conjugated[~mask])) < 1e-8
    assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-9


def _builtin_decomposition_args(spec: str):
    group = builtin_group(spec)
    rep = builtin_rep(group, "builtin-2d" if spec == "s3" else "builtin")
    table = builtin_character_table(group)
    return rep, min_r(rep, table), table


def _decompose_with_altered_basis(spec: str, alter, monkeypatch):
    """isotypic_decompose with ``alter(basis, components)`` applied to the
    basis after its unitarity check, just before the block-structure check."""
    real = reps.IsotypicDecomposition

    def altered(**fields):
        basis = fields["basis"].copy()
        alter(basis, fields["components"])
        return real(**{**fields, "basis": basis})

    monkeypatch.setattr(reps, "IsotypicDecomposition", altered)
    return isotypic_decompose(*_builtin_decomposition_args(spec))


BLOCK_VIOLATION = r"block structure violated by .* \(tolerance"


@pytest.mark.parametrize("spec", ["z8", "k4", "s3"])
def test_rotated_basis_breaks_the_block_structure(spec, monkeypatch):
    # mix the first columns of two components: the basis stays unitary, so
    # only the block-structure check can see it
    def rotate(basis, components):
        a, b = (comp.offset for comp in components[:2])
        c, s = np.cos(0.3), np.sin(0.3)
        basis[:, [a, b]] = basis[:, [a, b]] @ np.array([[c, -s], [s, c]])

    with pytest.raises(NumericalDegeneracy, match=BLOCK_VIOLATION):
        _decompose_with_altered_basis(spec, rotate, monkeypatch)


def test_rephased_carrier_breaks_the_two_dimensional_block(monkeypatch):
    # a phase on one carrier column of S3's 2-d irrep moves only off-diagonal
    # entries of its block
    def rephase(basis, components):
        comp = next(c for c in components if c.dim == 2)
        basis[:, comp.offset] *= 1j

    with pytest.raises(NumericalDegeneracy, match=BLOCK_VIOLATION):
        _decompose_with_altered_basis("s3", rephase, monkeypatch)


@pytest.mark.parametrize("spec, builds", [("z8", 0), ("k4", 1), ("s3", 1)])
def test_decomposition_builds_its_tensor_power_once(spec, builds, monkeypatch):
    # the block-structure check reuses the diagonals or the dense stack
    calls = []

    def spy(rep, r):
        calls.append(r)
        return tensor_power_matrices(rep, r)

    monkeypatch.setattr(reps, "tensor_power_matrices", spy)
    isotypic_decompose(*_builtin_decomposition_args(spec))
    assert len(calls) == builds


def test_tensor_power_stack_is_refused_before_allocating():
    # one 4096 x 4096 matrix fits the budget; S3's stack of six (1.5 GiB) does not
    rep = s3_two_dim_rep(builtin_group("s3"))
    with pytest.raises(ResourceLimit, match="6 x 16777216 entries"):
        isotypic_decompose(rep, 12, builtin_character_table(rep.group))


def test_isotypic_requires_irrep_matrices_for_2d_blocks():
    group = builtin_group("s3")
    rep = s3_two_dim_rep(group)
    full = builtin_character_table(group)
    stripped = CharacterTable.build(group, full.dims, full.chars, None)
    with pytest.raises(MissingIrrepMatrices):
        isotypic_decompose(rep, 3, stripped)


def test_unitary_rep_build_rejects_bad_matrices():
    group = cyclic_group(2)
    with pytest.raises(ValueError, match="unitary"):
        UnitaryRep.build(group, [np.eye(2), 2 * np.eye(2)])
    with pytest.raises(ValueError, match="product law"):
        UnitaryRep.build(group, [np.eye(2), np.diag([1, 1j])])


def test_identity_snap():
    group = cyclic_group(2)
    almost = np.eye(2) * (1 + 3e-10)
    rep = UnitaryRep.build(group, [almost, np.diag([1.0, -1.0])])
    assert np.array_equal(rep.matrices[0], np.eye(2))


def test_abelian_tables_are_exact_at_quarter_turns():
    k4 = builtin_character_table(builtin_group("k4"))
    signs = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
    assert np.array_equal(k4.chars, np.array(signs))
    z4 = builtin_character_table(cyclic_group(4))
    quarter = (1, 1j, -1, -1j)
    assert np.array_equal(
        z4.chars, np.array([[quarter[lam * g % 4] for g in range(4)] for lam in range(4)])
    )


def test_relabelled_s3_gets_table_and_two_dim_rep(relabelled):
    group = relabelled("s3")
    table = builtin_character_table(group)  # build checks every irrep's product law
    rep = s3_two_dim_rep(group)  # UnitaryRep.build checks the product law
    assert table.dims.tolist() == [1, 1, 2]
    sign = table.irrep_matrices[1][:, 0, 0]
    assert [s < 0 for s in sign.real] == [group.element_order(g) == 2 for g in range(6)]
    assert multiplicities(rep, table, 3).gammas == (1, 1, 3)
    assert min_r(rep, table) == 3


def test_perturbed_rep_names_first_failing_pair_in_row_major_order():
    # (1,2) and (2,1) both fail; the scan reports row 1 first
    group = cyclic_group(4)
    mats = zn_phase_rep(group).matrices.copy()
    mats[3] = mats[3] @ np.array([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=r"product law fails at pair \(1,2\) with residue"):
        UnitaryRep.build(group, mats)
    k4 = builtin_group("k4")
    pauli = pauli_rep(k4).matrices.copy()
    pauli[2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    with pytest.raises(ValueError, match=r"pair \(1,2\) is not a product up to phase"):
        UnitaryRep.build(k4, pauli, projective=True)


def test_perturbed_irrep_block_is_not_a_homomorphism():
    group = builtin_group("s3")
    full = builtin_character_table(group)
    blocks = [m.copy() for m in full.irrep_matrices]
    blocks[2][1] = blocks[2][1] @ np.diag([1, -1])
    with pytest.raises(ValueError, match="irrep 2 is not a homomorphism"):
        CharacterTable.build(group, full.dims, full.chars, blocks)
