import json

import numpy as np

from dfscodec.circuits import synth_w
from dfscodec.groups import builtin_group
from dfscodec.reps import builtin_character_table, pauli_rep
from dfscodec.serialization import (
    canonical_json,
    character_table_from_dict,
    character_table_to_dict,
    group_from_dict,
    group_to_dict,
    plan_to_dict,
    rep_from_dict,
    rep_to_dict,
    state_from_dict,
    state_to_dict,
)
from dfscodec.statevec import random_state


def test_group_roundtrip():
    group = builtin_group("s3")
    data = json.loads(canonical_json(group_to_dict(group)))
    again = group_from_dict(data)
    assert np.array_equal(again.cayley, group.cayley)
    assert again.labels == group.labels


def test_rep_roundtrip():
    group = builtin_group("k4")
    rep = pauli_rep(group)
    again = rep_from_dict(group, json.loads(canonical_json(rep_to_dict(rep))))
    np.testing.assert_allclose(again.matrices, rep.matrices, atol=1e-15)
    assert again.projective


def test_character_table_roundtrip_with_irrep_matrices():
    group = builtin_group("s3")
    table = builtin_character_table(group)
    data = json.loads(canonical_json(character_table_to_dict(table)))
    again = character_table_from_dict(group, data)
    np.testing.assert_allclose(again.chars, table.chars, atol=1e-12)
    assert again.irrep_matrices is not None
    np.testing.assert_allclose(
        again.irrep_matrices[2], table.irrep_matrices[2], atol=1e-12
    )


def test_state_roundtrip(rng):
    state = random_state(3, 2, rng)
    again = state_from_dict(json.loads(canonical_json(state_to_dict(state))))
    np.testing.assert_allclose(again.amps, state.amps, atol=1e-15)
    assert (again.d, again.n) == (3, 2)


def test_plan_export_schema():
    group = builtin_group("k4")
    plan = synth_w("general", group, pauli_rep(group), 2)
    data = plan_to_dict(plan)
    assert data["total_count"] == sum(g["cost"] for g in data["gates"])
    kinds = {g["kind"] for g in data["gates"]}
    assert kinds <= {"single", "controlled", "cnot", "chain", "prep"}
    controlled = [g for g in data["gates"] if g["kind"] == "controlled"]
    assert all("matrix" in g and len(g["targets"]) == 1 for g in controlled)


def test_canonical_json_is_stable():
    payload = {"b": 1.5, "a": [1, 2], "nested": {"y": None, "x": "s"}}
    assert canonical_json(payload) == canonical_json(json.loads(canonical_json(payload)))
