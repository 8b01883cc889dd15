"""File formats: group and representation JSON, state dumps, canonical reports.

Reports are serialized with sorted keys and a fixed layout so identical runs
produce byte-identical files; every report embeds a digest of its inputs.
:func:`canonical_json` is the one encoder. Its text is byte-identical to
``json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"``
for every payload, refusals included, without ``json``'s pure-Python
``indent`` encoder.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

import numpy as np

from .errors import DfsCodecError, NotAGroup
from .groups import FiniteGroup, validate_group
from .reps import CharacterTable, UnitaryRep
from .statevec import StateVector


_ARRAYS = frozenset((list, tuple))
_NUMBERS = {float: float.__repr__, int: int.__repr__}


def canonical_json(payload) -> str:
    """``payload`` as sorted-key, 2-space-indented ASCII JSON with a final newline."""
    out: list[str] = []
    _write(payload, 0, out, {})
    out.append("\n")
    return "".join(out)


def _float(x) -> str:
    """``x`` as ``json`` writes a float: its repr, or NaN, Infinity or -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    """A dict key as ``json`` converts it, after sorting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value, level: int, out: list, markers: dict) -> None:
    """Append ``value``'s text at indent ``level`` to ``out``; ``markers`` holds the
    containers being written, by id, as ``json``'s cycle check does."""
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        if id(value) in markers:
            raise ValueError("Circular reference detected")
        markers[id(value)] = value
        newline = "\n" + "  " * (level + 1)
        if isinstance(value, dict):
            sep = "{" + newline
            for key, item in sorted(value.items()):
                out.append(sep)
                out.append(_string(_key(key)))
                out.append(": ")
                _write(item, level + 1, out, markers)
                sep = "," + newline
            out.append("\n" + "  " * level + "}")
        else:
            text = _numbers(value, level, markers)
            if text is not None:
                out.append(text)
            else:
                sep = "[" + newline
                for item in value:
                    out.append(sep)
                    _write(item, level + 1, out, markers)
                    sep = "," + newline
                out.append("\n" + "  " * level + "]")
        del markers[id(value)]
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _numbers(array, level: int, markers: dict) -> str | None:
    """The text of ``array`` at indent ``level`` when it is a rectangular nested list
    of only floats or only ints, else None.

    Each axis costs C-level passes: the types and lengths of its entries, one
    flattening, and after the scalars are formatted, one join. An array that
    holds itself is a cycle, left to :func:`_write` to name: a list met again
    among arrays that hold arrays is caught by its id, and one met among the
    innermost arrays brings a container among the scalars.
    """
    sizes, seen, entries = [], set(markers), array
    kinds = set(map(type, entries))
    while kinds <= _ARRAYS:
        lengths = set(map(len, entries))
        if len(lengths) != 1 or 0 in lengths:
            return None
        if type(entries[0][0]) in _ARRAYS:
            ids = set(map(id, entries))
            if not seen.isdisjoint(ids):
                return None
            seen |= ids
        sizes.append(lengths.pop())
        entries = list(chain.from_iterable(entries))
        kinds = set(map(type, entries))
    if len(kinds) != 1 or kinds.isdisjoint(_NUMBERS):
        return None
    (kind,) = kinds
    # the entries of axis k sit at indent level + k + 1. Each separator closes
    # and reopens the axes below its own, so one join per axis, innermost
    # first, leaves one run of openings and one of closings for the whole array
    depth = len(sizes) + 1
    newlines = ["\n" + "  " * (level + k) for k in range(depth + 1)]
    opens = ["[" + newlines[k + 1] for k in range(depth)]
    closes = [newlines[k] + "]" for k in range(depth)]

    def separator(k: int) -> str:
        return "".join(closes[:k:-1]) + "," + newlines[k + 1] + "".join(opens[k + 1:])

    parts = map(_NUMBERS[kind], entries)
    for k in range(depth - 1, 0, -1):
        parts = map(separator(k).join, zip(*[iter(parts)] * sizes[k - 1]))
    text = "".join(opens) + separator(0).join(parts) + "".join(closes[::-1])
    if kind is float and "n" in text:  # nan and inf, as json writes them
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def complex_pairs(array: np.ndarray) -> list:
    """Nested [re, im] pairs with the same shape as the input."""
    arr = np.asarray(array, dtype=np.complex128)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def pairs_to_complex(data, what: str = "data") -> np.ndarray:
    """Nested [re, im] number pairs as a complex array; ``what`` names them in a refusal."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):  # an entry that is no number, or ragged nesting
        arr = None
    if arr is None or arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError(f"{what} must be nested arrays of [re, im] number pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _entry(data: dict, key: str, kind: type, default=None):
    """``data[key]``, or ``default`` when absent; refused unless a JSON array or boolean."""
    if key in data and not isinstance(data[key], kind):
        expected = "true or false" if kind is bool else "an array"
        raise DfsCodecError(f"{key!r} must be {expected}, got {data[key]!r}")
    return data.get(key, default)


def group_to_dict(group: FiniteGroup) -> dict:
    return {
        "order": group.order,
        "cayley": group.cayley.tolist(),
        "labels": list(group.labels),
    }


def _cayley(data: dict) -> list:
    """``data["cayley"]``, refused at the first entry of a row that is no JSON integer
    within int64; rows that are no arrays are left to :func:`validate_group`'s shape check."""
    if "cayley" not in data:
        raise NotAGroup("group file must contain a 'cayley' table")
    table = _entry(data, "cayley", list)
    for i, row in enumerate(table):
        for j, x in enumerate(row if isinstance(row, list) else ()):
            if type(x) is not int or not -(2**63) <= x < 2**63:
                raise NotAGroup(
                    f"'cayley' entry [{i}][{j}] must be an integer within int64, got {x!r}"
                )
    return table


def group_from_dict(data: dict, name: str | None = None) -> FiniteGroup:
    labels = _entry(data, "labels", list)
    group = validate_group(_cayley(data), labels=labels, name=name)
    if "order" in data and data["order"] != group.order:
        raise NotAGroup(f"declared order {data['order']!r} != table size {group.order}")
    return group


def _read_object(path: str | Path, *keys: str) -> dict:
    """The JSON object in the file at ``path``, refused unless it has every key in ``keys``;
    the one reader of every input file."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise DfsCodecError(f"{path} is not a JSON object")
    for key in keys:
        if key not in data:
            raise DfsCodecError(f"{path} has no {key!r} entry")
    return data


def load_group_file(path: str | Path) -> FiniteGroup:
    return group_from_dict(_read_object(path), name=Path(path).stem)


def rep_to_dict(rep: UnitaryRep) -> dict:
    return {
        "dim": rep.dim,
        "projective": rep.projective,
        "matrices": complex_pairs(rep.matrices),
    }


def rep_from_dict(group: FiniteGroup, data: dict) -> UnitaryRep:
    matrices = pairs_to_complex(_entry(data, "matrices", list), "'matrices'")
    return UnitaryRep.build(
        group, matrices, projective=_entry(data, "projective", bool, False)
    )


def load_rep_file(group: FiniteGroup, path: str | Path) -> UnitaryRep:
    return rep_from_dict(group, _read_object(path, "matrices"))


def character_table_to_dict(table: CharacterTable) -> dict:
    payload = {
        "dims": table.dims.tolist(),
        "chars": complex_pairs(table.chars),
    }
    if table.irrep_matrices is not None:
        payload["irrep_matrices"] = [complex_pairs(m) for m in table.irrep_matrices]
    return payload


def character_table_from_dict(group: FiniteGroup, data: dict) -> CharacterTable:
    irreps = None
    if "irrep_matrices" in data:
        irreps = tuple(
            pairs_to_complex(m, "'irrep_matrices'") for m in _entry(data, "irrep_matrices", list)
        )
    dims = _entry(data, "dims", list)
    chars = pairs_to_complex(_entry(data, "chars", list), "'chars'")
    return CharacterTable.build(group, dims, chars, irreps)


def state_to_dict(state: StateVector) -> dict:
    return {"d": state.d, "n": state.n, "amps": complex_pairs(state.amps)}


def state_from_dict(data: dict) -> StateVector:
    return StateVector.from_amplitudes(
        int(data["d"]), int(data["n"]), pairs_to_complex(data["amps"], "'amps'")
    )


def load_character_table_file(group: FiniteGroup, path: str | Path) -> CharacterTable:
    return character_table_from_dict(group, _read_object(path, "dims", "chars"))


def gate_to_dict(gate) -> dict:
    payload = {
        "kind": gate.kind,
        "controls": [[w, v] for w, v in gate.controls],
        "targets": list(gate.targets),
        "cost": gate.cost,
        "stage": gate.stage,
    }
    if gate.matrix is not None:
        payload["matrix"] = complex_pairs(gate.matrix)
    if gate.note:
        payload["note"] = gate.note
    return payload


def plan_to_dict(plan) -> dict:
    return {
        "layout": {
            "d": plan.layout.d,
            "control": list(plan.layout.control),
            "token": list(plan.layout.token),
            "message": list(plan.layout.message),
        },
        "total_count": plan.total_count,
        "metadata": dict(plan.metadata),
        "gates": [gate_to_dict(g) for g in plan.gates],
    }


def write_report(path: str | Path, payload: dict) -> None:
    Path(path).write_text(canonical_json(payload))
