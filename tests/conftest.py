import numpy as np
import pytest
from hypothesis import settings

from dfscodec import statevec
from dfscodec.codec import prepare_protocol
from dfscodec.groups import builtin_group, validate_group
from dfscodec.reps import UnitaryRep, pauli_rep, s3_two_dim_rep, zn_phase_rep

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


def make_context(spec: str):
    """Protocol context for a named channel: 'k4', 'z2xz2', 's3', 'z<N>' or 'z<N>:d'."""
    if spec in ("k4", "z2xz2"):
        group = builtin_group(spec)
        return prepare_protocol(pauli_rep(group))
    if spec == "s3":
        group = builtin_group("s3")
        return prepare_protocol(s3_two_dim_rep(group))
    name, _, dim = spec.partition(":")
    group = builtin_group(name)
    return prepare_protocol(zn_phase_rep(group, int(dim) if dim else 2))


def weyl_rep(d: int) -> UnitaryRep:
    """The clock-and-shift set X^a Z^b on one qudit, a projective rep of z<d>xz<d> whose
    element (a, b) has index a d + b; its phases are d-th roots of unity."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    mats = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            for a in range(d) for b in range(d)]
    return UnitaryRep.build(builtin_group(f"z{d}xz{d}"), np.array(mats), projective=True)


def complete_unitary(columns: np.ndarray) -> np.ndarray:
    """The orthonormal ``columns`` followed by an orthonormal complement from one
    complete QR: the dense unitary that the prep gate and the token basis change
    were completed to before gates took isometries, kept as the dense reference."""
    q, _ = np.linalg.qr(columns, mode="complete")
    q[:, : columns.shape[1]] = columns
    return q


def dense_encoder_run(pipeline, message, dense_t: np.ndarray) -> np.ndarray:
    """The amplitudes of ``pipeline.run(message)`` on the dense path, computed with
    the prep gate completed (:func:`complete_unitary`) and the basis change replaced
    by its completion ``dense_t``: prep and W through the runner with every wire
    kept, then the one product ``dense_t @ block`` that the block kernel made on the
    leading r token wires, the others being the message wires."""
    from dataclasses import replace
    from itertools import chain

    from dfscodec.circuits import _gate_ops, _plan_ops

    prep = [replace(g, matrix=complete_unitary(g.matrix)) if g.kind == "prep" else g
            for g in pipeline.prep]
    ops = chain(_gate_ops(prep), _plan_ops(pipeline.w_plan))
    tensor = statevec._run(message.tensor().copy(), pipeline.layout.message,
                           pipeline.layout.n_wires, ops)
    return (dense_t @ tensor.reshape(len(dense_t), -1)).reshape(-1)


_CONTEXT_CACHE: dict = {}


@pytest.fixture
def context_for():
    def get(spec: str):
        if spec not in _CONTEXT_CACHE:
            _CONTEXT_CACHE[spec] = make_context(spec)
        return _CONTEXT_CACHE[spec]

    return get


@pytest.fixture
def fresh_memos():
    """The runner's one memo, its compiled schedules, emptied, so a test that counts
    compiles sees every first one whatever ran before it."""
    statevec._compile.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def relabelled():
    """A built-in group, by name, with old element 1 moved last, the others
    shifted down one and plain labels g0, g1, ...; so in z4 and z8 index 1 is
    not a generator, and no label or name gives the group away."""

    def relabel(spec: str):
        group = builtin_group(spec)
        n = group.order
        new = np.array([0, n - 1, *range(1, n - 1)])
        table = np.empty_like(group.cayley)
        table[np.ix_(new, new)] = new[group.cayley]
        return validate_group(table, labels=[f"g{i}" for i in range(n)])

    return relabel
