import dataclasses

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
from dfscodec.limits import MULTIPLICITY_TOL, UNITARY_TOL
from dfscodec.reps import (
    CharacterTable,
    UnitaryRep,
    builtin_character_table,
    builtin_rep,
    compound_character,
    contains_regular,
    integral_multiplicities,
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


def test_character_table_build_leaves_the_callers_arrays_writable():
    group = cyclic_group(3)
    full = builtin_character_table(group)
    dims, chars = full.dims.copy(), full.chars.copy()
    irreps = [m.copy() for m in full.irrep_matrices]
    table = CharacterTable.build(group, dims, chars, irreps)
    assert not table.dims.flags.writeable and not table.chars.flags.writeable
    # the caller's arrays stay writable, and writes to them do not reach the table
    dims[0], chars[0, 0], irreps[1][1, 0, 0] = 7, 7.0, 7.0
    assert table.dims[0] == 1 and table.chars[0, 0] == 1.0
    assert table.irrep_matrices[1][1, 0, 0] == full.irrep_matrices[1][1, 0, 0]


@pytest.mark.parametrize(
    "dims", [[1.5, 1], [True, 1], [1, np.bool_(True)], ["1", "1"], [float("nan"), 1], [0, 1],
             [3, 1], [1, 10**30], [[1], [1]]]
)
def test_character_table_refuses_dims_that_are_not_whole_numbers(dims):
    group = cyclic_group(2)
    full = builtin_character_table(group)
    with pytest.raises(ValueError, match=r"^'dims' entries must be whole numbers from 1 to 2"):
        CharacterTable.build(group, dims, full.chars)


def test_character_table_reads_integral_dims_of_any_number_type():
    group = cyclic_group(2)
    full = builtin_character_table(group)
    for dims in ([1.0, 1.0], np.array([1, 1], dtype=np.int32), [np.float64(1), np.int64(1)]):
        table = CharacterTable.build(group, dims, full.chars)
        assert table.dims.dtype == np.int64 and table.dims.tolist() == [1, 1]


@pytest.mark.parametrize("count", [1, 3])
def test_character_table_needs_one_matrix_block_per_irrep(count):
    group = cyclic_group(2)
    full = builtin_character_table(group)
    blocks = [full.irrep_matrices[lam % 2] for lam in range(count)]
    expected = f"^expected 2 irrep matrix blocks, one per irrep, got {count}$"
    with pytest.raises(ValueError, match=expected):
        CharacterTable.build(group, full.dims, full.chars, blocks)


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


@pytest.mark.parametrize("name,spec,dim", [("z5", "builtin", 5), ("z12", "builtin", 9),
                                           ("s3", "builtin-2d", 2), ("z4xz2", "regular", 2)])
def test_compound_character_equals_the_per_class_trace_loop(name, spec, dim):
    group = builtin_group(name)
    rep = builtin_rep(group, spec, dim)
    # a dense change of basis makes every diagonal entry count in the sum
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(rep.dim, rep.dim)) + 0j)
    for r in (rep, UnitaryRep.build(group, q @ rep.matrices @ q.T)):
        classes = conjugacy_classes(group)
        loop = np.array([np.trace(r.matrices[members[0]]) for members in classes.classes])
        assert np.array_equal(compound_character(r, classes), loop)


def test_compound_character_needs_a_class_function():
    # rephasing one rotation of the S3 action keeps a projective rep, but the
    # two rotations, which form one class, then disagree on the trace
    group = builtin_group("s3")
    mats = s3_two_dim_rep(group).matrices.copy()
    rotation = next(g for g in range(6) if group.element_order(g) == 3)
    mats[rotation] *= 1j
    rep = UnitaryRep.build(group, mats, projective=True)
    classes = conjugacy_classes(group)
    with pytest.raises(ValueError, match=f"class {classes.class_of[rotation]} members disagree"):
        compound_character(rep, classes)


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
    # z29 and above: the multiplicities of z32 reach 2^31 / 32, past float integers
    for n in [*range(2, 9), 29, 30, 31, 32, 33, 48, 64]:
        for d in (2, 3):
            group = cyclic_group(n)
            rep = zn_phase_rep(group, d)
            table = builtin_character_table(group)
            expected = -(-(n - 1) // (d - 1))  # ceil((n-1)/(d-1))
            assert min_r(rep, table, r_max=64) == expected


# the benchmark's `tokens build` matrix, the z8/s3/k4 round-trip channels and z2xz2,
# each with the r that min_r gives it
PARITY_CONFIGS = [(f"z{n}", "builtin", 2, n - 1) for n in range(2, 9)] + [
    ("k4", "builtin", 2, 2),
    ("s3", "builtin-2d", 2, 3),
    ("z3", "builtin", 3, 1),
    ("z5", "builtin", 5, 1),
    ("z4xz2", "regular", 2, 1),
    ("z2xz2", "builtin", 2, 2),
]


@pytest.mark.parametrize("name,spec,dim,r", PARITY_CONFIGS,
                         ids=[f"{c[0]}-{c[1]}-d{c[2]}" for c in PARITY_CONFIGS])
def test_exact_multiplicities_match_the_float_character_sum(name, spec, dim, r):
    group = builtin_group(name)
    rep = builtin_rep(group, spec, dim)
    table = builtin_character_table(group)
    assert min_r(rep, table) == r
    chi = compound_character(rep, table.classes)
    for n in range(1, r + 3):
        # exact in floats at these sizes: |G| d^n <= 2^12
        raw = (table.chars.conj() * table.classes.class_sizes) @ chi**n / group.order
        rounded = np.round(raw.real)
        if np.max(np.abs(raw - rounded)) < 1e-9 and rep.cocycle_residue(n) <= UNITARY_TOL:
            assert multiplicities(rep, table, n).gammas == tuple(int(x) for x in rounded)
        else:
            # only the odd powers of the Pauli set are not linear representations; the
            # third fuses integrally and is refused all the same
            assert rep.projective and n % 2 == 1
            with pytest.raises(NonIntegerMultiplicity, match=f"power {n} of a projective"):
                multiplicities(rep, table, n)


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
    with pytest.raises(RMaxExceeded, match="raise r_max"):
        min_r(rep, builtin_character_table(group), r_max=3)


def test_min_r_coset_trapped_rep_never_succeeds():
    # a faithful rep whose constituents omit the trivial character can have
    # every tensor power trapped in a character-group coset: the sign action
    # of Z2 alternates between the trivial and sign irreps and never holds both.
    # Both reps have a non-identity element acting as a scalar, so no r_max helps
    group = cyclic_group(2)
    sign_only = UnitaryRep.build(group, np.array([[[1.0]], [[-1.0]]]))
    assert is_faithful(sign_only)
    with pytest.raises(RMaxExceeded, match="element 1 acts as a scalar") as refused:
        min_r(sign_only, builtin_character_table(group), r_max=24)
    assert "r_max" not in str(refused.value)
    # same obstruction in two dimensions, on a product group: element 5 is -I
    prod = builtin_group("z4xz2")
    mats = np.array([np.diag([1j ** (g // 2), (-1.0) ** (g % 2)]) for g in range(8)])
    trapped = UnitaryRep.build(prod, mats)
    assert is_faithful(trapped)
    with pytest.raises(RMaxExceeded, match="element 5 acts as a scalar") as refused:
        min_r(trapped, builtin_character_table(prod), r_max=16)
    assert "r_max" not in str(refused.value)


def test_projective_rep_has_non_integer_odd_multiplicities():
    group = builtin_group("k4")
    rep = pauli_rep(group)
    table = builtin_character_table(group)
    message = (
        r"power 1 of a projective representation has non-integer multiplicities "
        r"\(residue 5\.000e-01\)"
    )
    with pytest.raises(NonIntegerMultiplicity, match=message):
        multiplicities(rep, table, 1)
    assert multiplicities(rep, table, 2).gammas == (1, 1, 1, 1)


def test_rephased_projective_rep_steps_by_its_first_integral_power():
    # U_1 = i diag(1, 1, -1) squares to -I: chi_V = (3, i) has no integer fusion counts, but
    # chi_V^2 = (9, -1) does, so the even powers are integral and the odd ones never are
    group = cyclic_group(2)
    rep = UnitaryRep.build(group, [np.eye(3), 1j * np.diag([1, 1, -1])], projective=True)
    table = builtin_character_table(group)
    assert min_r(rep, table) == 2
    assert multiplicities(rep, table, 2).gammas == (4, 5)
    assert multiplicities(rep, table, 4).gammas == (41, 40)
    for n in (1, 3):
        with pytest.raises(NonIntegerMultiplicity, match=f"power {n} of a projective") as refused:
            multiplicities(rep, table, n)
        assert "inconsistent" not in str(refused.value)
    # a generic phase leaves every power projective; the search stops where floats do
    generic = UnitaryRep.build(group, [np.eye(3), np.exp(0.7j) * np.diag([1, 1, -1])],
                               projective=True)
    with pytest.raises(NonIntegerMultiplicity, match="floats cannot test power 21"):
        min_r(generic, table)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_weyl_rep_skips_powers_that_are_not_linear(d):
    # chi = d delta_e fuses integrally at every power, but V^(x)n is linear only where
    # omega^n = 1, which for the clock-and-shift phases means d | n
    from conftest import weyl_rep

    rep = weyl_rep(d)
    table = builtin_character_table(rep.group)
    assert min_r(rep, table) == d
    assert integral_multiplicities(rep, table).power == d
    assert rep.cocycle_residue(d) <= UNITARY_TOL < rep.cocycle_residue(2)
    with pytest.raises(NonIntegerMultiplicity,
                       match=r"^power 2 of a projective representation is not linear \(max"):
        multiplicities(rep, table, 2)


def test_inconsistent_table_is_blamed_on_the_fusion_counts():
    # a unitary mix of the z3 classes g and g^2 that fixes the trivial row keeps
    # the characters orthonormal and chi(e) = d, so the table passes validation,
    # but its fusion counts are not integers
    group = cyclic_group(3)
    table = builtin_character_table(group)
    z = np.exp(0.3j)
    mix = np.array([[1, 0, 0], [0, (1 + z) / 2, (1 - z) / 2], [0, (1 - z) / 2, (1 + z) / 2]])
    skewed = CharacterTable.build(group, table.dims, table.chars @ mix, classes=table.classes)
    with pytest.raises(NonIntegerMultiplicity, match="character table is inconsistent"):
        multiplicities(zn_phase_rep(group, 2), skewed, 1)
    # a rotation of the rows is orthonormal too, but moves chi(e) off the dimensions
    c, s = np.cos(0.3), np.sin(0.3)
    rotated = np.array([[1, 0, 0], [0, c, -s], [0, s, c]]) @ table.chars
    with pytest.raises(ValueError, match=r"irrep 1: chi\(e\) = \(0\.659.* != dimension 1"):
        CharacterTable.build(group, table.dims, rotated, classes=table.classes)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 1])
def test_unitary_rep_build_refuses_non_finite_matrices(bad, index):
    # a NaN in the identity's matrix used to be snapped away, and elsewhere it
    # passed every residue check
    group = cyclic_group(2)
    mats = zn_phase_rep(group).matrices.copy()
    mats[index, 1, 1] = bad
    with pytest.raises(ValueError, match=rf"^matrix {index} has a non-finite entry$"):
        UnitaryRep.build(group, mats)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_character_table_build_refuses_non_finite_entries(bad):
    group = builtin_group("s3")
    full = builtin_character_table(group)
    chars = full.chars.copy()
    chars[1, 2] = bad
    with pytest.raises(ValueError, match="^character matrix has a non-finite entry$"):
        CharacterTable.build(group, full.dims, chars, full.irrep_matrices)
    blocks = [m.copy() for m in full.irrep_matrices]
    blocks[2][3, 0, 1] = bad
    with pytest.raises(ValueError, match="irrep 2 is not a homomorphism: matrix 3 has a non-finite"):
        CharacterTable.build(group, full.dims, full.chars, blocks)


def test_unitarity_failure_names_the_first_failing_matrix():
    # matrices 2 and 3 both fail; the batched residue reports index 2
    group = cyclic_group(4)
    mats = zn_phase_rep(group).matrices.copy()
    mats[2] *= 1.5
    mats[3] *= 2.0
    with pytest.raises(ValueError, match=r"^matrix 2 is not unitary \(residue 1\.25e\+00\)$"):
        UnitaryRep.build(group, mats)


@pytest.mark.parametrize("name", ["z3", "k4", "s3"])
def test_character_table_irrep_blocks_are_read_only(name):
    table = builtin_character_table(builtin_group(name))
    with pytest.raises(ValueError, match="read-only"):
        table.irrep_matrices[1][0, 0, 0] = 5
    assert table.irrep_matrices[1][0, 0, 0] == 1


@pytest.mark.parametrize("name", ["z4xz2", "s3"])
def test_irrep_reads_one_dimensional_irreps_from_characters(name):
    table = builtin_character_table(builtin_group(name))
    ones = [lam for lam in range(table.num_irreps) if table.dims[lam] == 1]
    assert ones
    for lam in ones:
        assert np.array_equal(table.irrep(lam), table.irrep_matrices[lam])


def test_irrep_without_matrices_gives_characters_and_refuses_the_2d_irrep():
    group = builtin_group("s3")
    full = builtin_character_table(group)
    stripped = CharacterTable.build(group, full.dims, full.chars, None)
    for lam in (0, 1):
        assert stripped.irrep(lam).shape == (6, 1, 1)
        assert np.array_equal(
            stripped.irrep(lam)[:, 0, 0], stripped.chars[lam, stripped.classes.class_of]
        )
    with pytest.raises(MissingIrrepMatrices, match="irrep 2 has dimension 2"):
        stripped.irrep(2)


def test_element_chars_are_read_only():
    table = builtin_character_table(builtin_group("s3"))
    assert table.element_chars.shape == (3, 6)
    with pytest.raises(ValueError, match="read-only"):
        table.element_chars[1, 1] = 5
    with pytest.raises(ValueError, match="read-only"):
        table.irrep(1)[0, 0, 0] = 5


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


def _first_failing_pair_row_by_row(group, mats, projective):
    """Reference: the product-law message of a check that scans one row at a time."""
    d = mats.shape[1]
    for i in range(group.order):
        prods = mats[i] @ mats
        targets = mats[group.cayley[i]]
        off_phase = np.zeros(group.order, dtype=bool)
        if projective:
            phases = np.einsum("kab,kab->k", targets.conj(), prods) / d
            off_phase = np.abs(np.abs(phases) - 1.0) > MULTIPLICITY_TOL
            targets = phases[:, None, None] * targets
        errs = np.max(np.abs(prods - targets), axis=(1, 2))
        for k in range(group.order):
            if off_phase[k]:
                return f"pair ({i},{k}) is not a product up to phase"
            if errs[k] > UNITARY_TOL:
                return f"product law fails at pair ({i},{k}) with residue {errs[k]:.2e}"
    return None


@pytest.mark.parametrize(
    "name,spec,projective",
    [("z8", "builtin", False), ("s3", "builtin-2d", False), ("s3", "builtin-2d", True),
     ("k4", "builtin", True)],
)
@pytest.mark.parametrize("rows", [0.5, 1, 2, 3, 64])
def test_product_law_blocks_name_the_row_by_row_first_pair(
    name, spec, projective, rows, monkeypatch
):
    # a wrong Cayley entry fails exactly its own pair; with two rows a block,
    # (2, n-1) and (3, 1) share a block and (n-1, 0) lies in a later one for
    # z8 and s3, and (3, 1) comes first in column order but not in row order;
    # a budget of half a row still checks one row per block
    group = builtin_group(name)
    mats = builtin_rep(group, spec).matrices
    n, d = group.order, mats.shape[1]
    monkeypatch.setattr(reps, "PRODUCT_BLOCK_ENTRIES", int(rows * n * d * d))
    planted = [(2, n - 1), (3, 1), (n - 1, 0)]
    for pairs in (planted, planted[1:], planted[2:]):
        cayley = group.cayley.copy()
        for i, k in pairs:
            cayley[i, k] = (cayley[i, k] + 1) % n
        bad = dataclasses.replace(group, cayley=cayley)
        expected = _first_failing_pair_row_by_row(bad, mats, projective)
        assert "pair ({},{})".format(*min(pairs)) in expected
        with pytest.raises(ValueError) as info:
            UnitaryRep.build(bad, mats, projective=projective)
        assert str(info.value) == expected
    UnitaryRep.build(group, mats, projective=projective)


def test_perturbed_irrep_block_is_not_a_homomorphism():
    group = builtin_group("s3")
    full = builtin_character_table(group)
    blocks = [m.copy() for m in full.irrep_matrices]
    blocks[2][1] = blocks[2][1] @ np.diag([1, -1])
    with pytest.raises(ValueError, match="irrep 2 is not a homomorphism"):
        CharacterTable.build(group, full.dims, full.chars, blocks)


def test_non_unitary_irrep_block_is_refused():
    # S3's 2-d irrep conjugated by diag(1, 2): a homomorphism with the right characters
    group = builtin_group("s3")
    full = builtin_character_table(group)
    blocks = [m.copy() for m in full.irrep_matrices]
    s = np.diag([1.0, 2.0])
    blocks[2] = s @ blocks[2] @ np.linalg.inv(s)
    with pytest.raises(ValueError, match=r"irrep 2 is not a homomorphism: matrix \d is not unitary"):
        CharacterTable.build(group, full.dims, full.chars, blocks)


def _first_failing_irrep_one_at_a_time(group, dims, chars, blocks):
    """Reference: the table's refusal when each irrep is built and traced on its own."""
    classes = conjugacy_classes(group)
    for lam, mats in enumerate(blocks):
        if np.shape(mats) != (group.order, dims[lam], dims[lam]):
            return f"irrep {lam}: matrix block has shape {np.shape(mats)}"
        try:
            irrep = UnitaryRep.build(group, mats)
        except ValueError as exc:
            return f"irrep {lam} is not a homomorphism: {exc}"
        try:
            values = compound_character(irrep, classes)
        except ValueError as exc:
            return str(exc)
        if np.max(np.abs(values - chars[lam])) > UNITARY_TOL:
            return f"irrep {lam} matrices disagree with the character row"
    return None


def _plant(blocks, lam, fault):
    """Irrep ``lam`` of a copied block list with one fault planted."""
    mats = blocks[lam].copy()
    d = mats.shape[1]
    if fault == "nan":
        mats[1, 0, 0] = np.nan
    elif fault == "identity":
        mats[0] = -mats[0]
    elif fault == "unitary":
        mats[2] = 1.5 * mats[2]
    elif fault == "product":
        mats[1] = mats[1] @ np.diag([1j] + [1] * (d - 1))
    elif fault == "row":  # a homomorphism of another character: another 1-d irrep on level 0
        other = next(
            m for m in blocks if m.shape[1] == 1 and not np.array_equal(m, mats[:, :1, :1])
        )
        mats = np.broadcast_to(np.eye(d), mats.shape).astype(complex)
        mats[:, 0, 0] = other[:, 0, 0]
    elif fault == "shape":
        mats = mats[1:]
    blocks = list(blocks)
    blocks[lam] = mats
    return blocks


FAULTS = ["nan", "identity", "unitary", "product", "row", "shape"]


@pytest.mark.parametrize("name,lams", [("s3", (1, 2)), ("s3", (2, 0)), ("z4xz2", (6, 3))])
def test_stacked_irreps_name_the_irrep_one_at_a_time_checks_name(name, lams):
    # every pair of planted faults, in two irreps (of different dimensions for
    # S3): the stacked check refuses with the message the per-irrep loop gives
    group = builtin_group(name)
    full = builtin_character_table(group)
    base = [np.array(m) for m in full.irrep_matrices]
    for first in FAULTS:
        for second in [None, *FAULTS]:
            blocks = _plant(base, lams[0], first)
            if second is not None:
                blocks = _plant(blocks, lams[1], second)
            expected = _first_failing_irrep_one_at_a_time(group, full.dims, full.chars, blocks)
            assert expected is not None and expected.split(" ")[1].rstrip(":") in {
                str(lams[0]), str(lams[1])
            }
            with pytest.raises(ValueError) as info:
                CharacterTable.build(group, full.dims, full.chars, blocks)
            assert str(info.value) == expected, (first, second)


@pytest.mark.parametrize(
    "name,spec,dim", [("z8", "builtin", 2), ("k4", "builtin", 2), ("s3", "builtin-2d", 2),
                      ("z4xz2", "regular", 2), ("z5", "builtin", 3)]
)
def test_build_keeps_the_product_law_a_direct_rep_measures(name, spec, dim):
    rep = builtin_rep(builtin_group(name), spec, dim)
    kept = rep.product_law
    direct = UnitaryRep(group=rep.group, dim=rep.dim, matrices=rep.matrices,
                        projective=rep.projective)
    measured = direct.product_law
    assert kept[0] == measured[0] <= UNITARY_TOL
    assert (kept[1] is None) == (measured[1] is None) == (not rep.projective)
    if rep.projective:
        assert np.array_equal(kept[1], measured[1])
