import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfscodec.circuits import synth_w
from dfscodec.groups import builtin_group
from dfscodec.reps import builtin_character_table, builtin_rep, pauli_rep
from dfscodec.serialization import (
    canonical_json,
    complex_pairs,
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


def _reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _outcome(encode, payload):
    """The text ``encode`` gives, or the type and message of what it raises."""
    try:
        return encode(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-05, 1e300])
FLOATS = st.floats() | SPECIAL_FLOATS
# control characters, a lone surrogate and a character outside the BMP are escaped
STRINGS = st.text() | st.sampled_from(["\x00\x1f\"\\/\u00e9\u2028", "\ud800", "\U0001f600"])
SCALARS = (
    st.none() | st.booleans() | st.integers() | FLOATS | STRINGS | FLOATS.map(np.float64)
)
NUMBERS = st.sampled_from([
    FLOATS,
    st.integers(),
    st.integers() | st.booleans(),  # bools mixed into an int list
    st.integers() | FLOATS,
    FLOATS | FLOATS.map(np.float64),
])


@st.composite
def nested_numbers(draw):
    """A nested list of numbers: rectangular unless a row is cut, tuples here and there."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    elements = draw(NUMBERS)
    ragged = draw(st.booleans())

    def build(axes):
        if not axes:
            return draw(elements)
        row = [build(axes[1:]) for _ in range(axes[0])]
        if ragged and draw(st.booleans()):
            row = row[: draw(st.integers(0, len(row)))]
        return tuple(row) if draw(st.integers(0, 9)) == 0 else row

    return build(shape)


KEYS = st.sampled_from([
    STRINGS, st.integers(), FLOATS, st.booleans(), st.none(), st.integers() | st.booleans(),
])
PAYLOADS = st.recursive(
    SCALARS | nested_numbers(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4))
    ),
    max_leaves=30,
)


@settings(max_examples=150)
@given(PAYLOADS)
def test_canonical_json_is_json_dumps_byte_for_byte(payload):
    assert _outcome(canonical_json, payload) == _outcome(_reference, payload)


def _circular():
    loop = []
    loop.append(loop)
    doubled = []
    doubled.extend([doubled, doubled])
    # rectangular down to its second row, which is the array itself
    late = [[1.0, 2.0], None]
    late[1] = late
    deep = [[[1.0, 2.0]], [[3.0, 4.0]]]
    deep[1][0] = deep
    return [loop, doubled, late, deep, {"a": [loop]}, [[loop] * 50] * 50]


@pytest.mark.parametrize(
    "payload",
    [np.int64(3), np.bool_(True), {1, 2}, {1: 0, "a": 0}, {(1,): 0}, [[1, 2], [3, np.int64(4)]],
     [[1.0, 2.0], [3.0, np.bool_(False)]], {"x": [{2j: 1}]}, *_circular()],
    ids=["int64", "bool_", "set", "mixed-keys", "tuple-key", "int64-in-array",
         "bool_-in-array", "complex-key", "loop", "doubled", "late", "deep", "in-dict",
         "wide"],
)
def test_canonical_json_refuses_as_json_dumps_does(payload):
    got = _outcome(canonical_json, payload)
    assert isinstance(got, tuple) and got == _outcome(_reference, payload)


def test_canonical_json_calls_no_json_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json encoder called")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    assert canonical_json({"a": [[1.5, 2.0]], "b": [1, 2]}).startswith("{\n")


def test_canonical_json_of_the_largest_digest_input_is_json_dumps():
    # rep min-r z64 regular hashes this: 64 matrices of 64 x 64 [re, im] pairs
    group = builtin_group("z64")
    rep = builtin_rep(group, "regular", 2)
    inputs = {
        "group": group_to_dict(group),
        "rep": {"dim": rep.dim, "matrices": complex_pairs(rep.matrices)},
    }
    assert canonical_json(inputs) == _reference(inputs)
