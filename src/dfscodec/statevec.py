"""Dense state vectors over n qudits of local dimension d.

Addressing is big-endian: qudit 0 is the most significant digit, so the basis
index of |i_0 i_1 ... i_{n-1}> is sum_k i_k * d**(n-1-k).  One convention is
used everywhere in the package; conversions never happen at module borders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, groupby, product
from operator import sub

import numpy as np

from .errors import (
    BadTarget,
    DfsCodecError,
    DimensionMismatch,
    NonOrthogonalProjectors,
)
from .limits import NORM_TOL, UNITARY_TOL, check_entries


def check_register(d: int, n: int) -> int:
    """Amplitude count ``d**n`` of an n-qudit register, refused above the dense budget."""
    if d < 2 or n < 1:
        raise DimensionMismatch(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    return check_entries(d**n, f"a register of {d}**{n} amplitudes")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes over (C_d)^(x n)."""

    d: int
    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps.setflags(write=False)

    @classmethod
    def from_amplitudes(cls, d: int, n: int, amps, *, normalize: bool = False) -> "StateVector":
        size = check_register(d, n)
        # the division makes a fresh array; only an adopted one is copied first
        arr = (np.asarray if normalize else np.array)(amps, dtype=np.complex128).reshape(-1)
        if arr.size != size:
            raise DimensionMismatch(f"expected {size} amplitudes, got {arr.size}")
        if not normalize:
            return cls._adopt(d, n, arr)
        norm = _finite_norm(arr)
        if norm == 0:
            raise DimensionMismatch("cannot normalize the zero vector")
        return cls(d=d, n=n, amps=arr / norm)

    @classmethod
    def _adopt(cls, d: int, n: int, arr: np.ndarray) -> "StateVector":
        """The state whose amplitudes are the fresh complex vector ``arr`` of ``d**n``
        entries, frozen in place, not copied, once its norm is checked to be 1.  The
        norm is only compared, never divided by, so it is one BLAS read,
        ``sqrt(<arr|arr>)``, in less than half the time of :func:`_finite_norm`."""
        norm = _finite(np.sqrt(np.vdot(arr, arr).real))
        if abs(norm - 1.0) > NORM_TOL:
            raise DimensionMismatch(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        return cls(d=d, n=n, amps=arr)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape([self.d] * self.n)


def _finite_norm(arr: np.ndarray) -> float:
    """The norm every division by a state's norm uses: its bits pin goldens.  An
    overflow gives inf, refused by :func:`_finite` without numpy's warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(arr)
    return _finite(norm)


def _finite(norm: float) -> float:
    if not np.isfinite(norm):
        raise DimensionMismatch(f"state amplitudes are not finite (norm {norm})")
    return norm


def basis_state(d: int, n: int, index: int = 0) -> StateVector:
    amps = np.zeros(check_register(d, n), dtype=np.complex128)
    amps[index] = 1.0
    return StateVector.from_amplitudes(d, n, amps)


def product_state(a: StateVector, b: StateVector) -> StateVector:
    if a.d != b.d:
        raise DimensionMismatch(f"local dimensions differ: {a.d} vs {b.d}")
    return StateVector.from_amplitudes(a.d, a.n + b.n, np.kron(a.amps, b.amps))


def random_state(d: int, n: int, rng: np.random.Generator) -> StateVector:
    size = check_register(d, n)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return StateVector.from_amplitudes(d, n, amps, normalize=True)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unitarity_residues(stack: np.ndarray) -> np.ndarray:
    """``max |U^H U - I|`` of each matrix of a ``(k, n, c)`` stack: the unitarity
    residue of square matrices, the isometry residue of ``c`` columns.  NaN or inf
    for a matrix with a NaN or infinite entry or whose product overflows, which
    fails every ``<= tol`` check.

    The product is formed for one block of ``max(c // 8, 64)`` columns of U at a
    time, the rows of ``U^H U`` they give, and the largest entry kept by a max that
    carries NaN.  The temporaries, the conjugated block, its product and their
    moduli, hold 3/8 of a square stack's bytes where the whole product took twice
    them; a stack of at most 64 columns is one block, the product of the whole
    stack."""
    k, _, c = stack.shape
    width = max(c // 8, 64)  # GEMMs narrower than this run several times slower
    out = np.zeros(k)
    with np.errstate(invalid="ignore", over="ignore"):  # the residue carries them
        for lo in range(0, c, width):
            rows = stack[:, :, lo : lo + width].conj().transpose(0, 2, 1) @ stack
            residue = rows.reshape(k, -1)
            residue[:, lo :: c + 1] -= 1  # the diagonal, in place: no identity is built
            np.maximum(out, np.abs(residue).max(axis=1), out=out)
    return out


def _to_front(tensor: np.ndarray, axes, d: int) -> np.ndarray:
    """``tensor`` with ``axes`` moved to the front, in order, by one transpose (the
    view ``np.moveaxis`` makes), flattened to a (d^k, rest) block."""
    rest = [a for a in range(tensor.ndim) if a not in axes]
    return tensor.transpose([*axes, *rest]).reshape(d ** len(axes), -1)


def _from_front(block: np.ndarray, axes, ndim: int, d: int) -> np.ndarray:
    """Inverse of :func:`_to_front`: an ``ndim``-axis tensor with ``axes`` back in place."""
    perm = [*axes, *(a for a in range(ndim) if a not in axes)]
    # the inverse permutation: axis a comes from position perm.index(a) of the front
    return block.reshape([d] * ndim).transpose(sorted(range(ndim), key=perm.__getitem__))


def _apply(tensor: np.ndarray, op: np.ndarray, index: tuple, axes: tuple, padded: int) -> None:
    """The block kernel: ``op @ block`` in place, on the targets the transpose ``axes``
    puts in front of the matched slice ``tensor[index]`` (:func:`_product`), with zero
    columns appended up to ``padded`` and only its own kept.  The block is gathered
    once, padded or by a reshape, and written back once, through the view.  A
    ``d^k x c`` op (:func:`_check_unitaries`) reads the first c basis states of its
    targets and writes all d^k: amplitude on any other is refused as a leak."""
    front = tensor[index].transpose(axes)
    (dim, c), width = op.shape, front.size // len(op)
    if padded > width:
        block = np.zeros((dim, padded), dtype=tensor.dtype)
        block[:, :width].reshape(front.shape)[...] = front  # splitting axes: a view
    else:
        block = front.reshape(dim, width)
    if c < dim:
        if block[c:].any():
            raise DfsCodecError(f"amplitude {np.linalg.norm(block[c:]):.3e} outside the first "
                                f"{c} of {dim} target states of an isometry")
        block = block[:c]
    front[...] = (op @ block)[:, :width].reshape(front.shape)


def _product(ndim: int, targets, controls, columns: int) -> tuple:
    """The ``(index, axes, padded)`` of :func:`_apply` on the axes ``targets`` where every
    ``(axis, digit)`` control matches, ``columns`` the block's width on the register."""
    digits = dict(controls)
    index = [digits.get(a, slice(None)) for a in range(ndim)]
    # axis rank of each target among the non-control wires, in the sliced view
    ranks = [t - sum(w < t for w, _ in controls) for t in targets]
    axes = (*ranks, *(a for a in range(ndim - len(controls)) if a not in ranks))
    return tuple(index), axes, min(MIN_BLOCK_COLUMNS, columns)


def _move(tensor: np.ndarray, cycles) -> None:
    """The permutation kernel, unchecked: along each cycle ``[i, ..., k]`` of indices
    (:func:`_moves`), each slice takes the next one's amplitudes and ``tensor[k]``
    those ``i`` held.  Copies: the values ``op @ block`` gives for exact 0s and 1s."""
    for cycle in cycles:
        saved = tensor[cycle[0]].copy()
        for a, b in zip(cycle, cycle[1:]):
            tensor[a] = tensor[b]
        tensor[cycle[-1]] = saved


def _moves(ndim: int, source, target: int, controls=()) -> tuple:
    """The cycles of :func:`_move` that give digit ``a`` of axis ``target`` the amplitudes
    of digit ``source[a]`` wherever every ``(axis, digit)`` control matches."""
    digits = dict(controls)
    index = [digits.get(a, slice(None)) for a in range(ndim)]
    digit = [(*index[:target], a, *index[target + 1:]) for a in range(len(source))]
    return tuple(tuple(digit[a] for a in cycle) for cycle in _cycles(source))


def _check_wires(n: int, wires) -> list[int]:
    wires = [int(w) for w in wires]
    if len(set(wires)) != len(wires):
        raise BadTarget(f"repeated qudit in {wires}")
    for w in wires:
        if not 0 <= w < n:
            raise BadTarget(f"qudit {w} out of range for {n} qudits")
    return wires


def _check_operands(d: int, n: int, controls, targets) -> tuple[list, list[int]]:
    """Validated ``(controls, targets)`` of one operator on an n-qudit register."""
    controls = [(int(w), int(v)) for w, v in controls]
    targets = _check_wires(n, targets)
    control_wires = [w for w, _ in controls]
    if len(set(control_wires)) != len(control_wires):
        raise BadTarget("repeated control qudit")
    if set(control_wires) & set(targets):
        raise BadTarget("control and target sets overlap")
    for w, v in controls:
        if not (0 <= w < n) or not (0 <= v < d):
            raise BadTarget(f"control ({w},{v}) out of range")
    return controls, targets


# OpenBLAS gives the last ``width % 4`` columns of a product other bits than they
# get in a wider product, so a block of 1 or 2 columns rounds otherwise than the
# same columns on more wires.  The block kernel pads a narrower block with zero
# columns to this width, or the whole register's if fewer: on qubits every
# amplitude then keeps the bits of a run on the whole register.  At d >= 3 an odd
# width leaves the last bit of a few columns to where they sit.
MIN_BLOCK_COLUMNS = 64


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` frozen in place, or of a frozen copy when it does
    not own its data: numpy refuses to make a view of a read-only owner writable, so
    a matrix the package trusts cannot be re-written through what it hands out."""
    owner = array if array.flags.owndata else array.copy()
    owner.setflags(write=False)
    return owner.view()


def _check_unitaries(d: int, ops: list) -> None:
    """Each ``(op, dim)`` checked to be ``dim x c`` with orthonormal columns,
    ``c <= dim``: a unitary, or an isometry (:func:`_apply`).  The first failure in
    order is raised.  The ``(d, d)`` ops of one-wire gates share one stacked residue."""
    passed = [None] * len(ops)
    small = [i for i, (op, dim) in enumerate(ops) if op.shape == (d, d) == (dim, dim)]
    if small:
        for i, residue in zip(small, _unitarity_residues(np.array([ops[i][0] for i in small]))):
            passed[i] = residue <= UNITARY_TOL
    for (op, dim), ok in zip(ops, passed):
        if ok:
            continue
        if not (op.ndim == 2 and op.shape[0] == dim and 1 <= op.shape[1] <= dim):
            raise DimensionMismatch(f"operator must be {dim}x{dim}, got {op.shape}")
        if ok is None and _unitarity_residues(op[None])[0] <= UNITARY_TOL:
            continue
        raise DimensionMismatch("operator is not unitary within tolerance")


def _monomial(op: np.ndarray) -> tuple[list[int], list] | None:
    """``(src, phases)`` of a ``(d, d)`` matrix or a ``(k, d, d)`` stack whose every
    matrix has exactly one nonzero in each row and column, zeros compared ``== 0``
    with no tolerance: for row ``j`` of each matrix in turn, ``src`` holds the
    column of its nonzero and ``phases`` the value, as Python scalars.  ``None``
    for any other input.  Built-in list steps on Python scalars: microseconds for
    the small matrices of a rep, where numpy calls would cost more."""
    d = op.shape[-1]
    entries = op.reshape(-1).tolist()
    hits = list(compress(range(len(entries)), entries))  # positions of the nonzeros
    if len(hits) * d != len(entries):
        return None
    src = list(map(sub, hits, range(0, len(entries), d)))
    if min(src) < 0 or max(src) >= d:
        return None  # some row has no nonzero and another more than one
    if any(len(set(src[i : i + d])) < d for i in range(0, len(src), d)):
        return None  # some matrix has two nonzeros in one column
    return src, list(map(entries.__getitem__, hits))


def _digit_source(op: np.ndarray, d: int) -> tuple[int, ...] | None:
    """The source tuple ``source`` of a ``d x d`` matrix of exact 0s and 1s with one 1 in
    each row and column, row ``a`` having its 1 in column ``source[a]``, as
    :func:`_monomial` gives it; ``None`` for any other matrix."""
    found = _monomial(op) if op.shape == (d, d) else None
    if found is None or found[1].count(1) != d:
        return None
    return tuple(found[0])


def _cycles(source) -> list[list[int]]:
    """The cycles of the permutation ``source`` of ``range(d)``, each as ``[a, b, ...]``
    with ``b = source[a]``, fixed digits left out."""
    cycles, seen = [], set()
    for start in range(len(source)):
        if start in seen:
            continue
        cycle = [start]
        while source[cycle[-1]] != start:
            cycle.append(source[cycle[-1]])
        seen.update(cycle)
        if len(cycle) > 1:
            cycles.append(cycle)
    return cycles


def _records(d: int, ops) -> list:
    """The ``(matrix, controls, targets, source)`` record of each ``(matrix, controls,
    targets)`` op, unchecked: ``source`` is the :func:`_digit_source` of a one-target
    op's matrix, ``None`` for a wider op."""
    return [(op, controls, targets, _digit_source(op, d) if len(targets) == 1 else None)
            for op, controls, targets in ops]


def _checked_ops(d: int, n: int, ops) -> list:
    """The :func:`_records` of ``(matrix, controls, targets)`` ops supplied by a
    caller, validated on an n-qudit register on every call: each op's wires
    (:func:`_check_operands`), as tuples of Python ints, then each matrix object
    once per target width (:func:`_check_unitaries`), as a complex array.

    The first invalid op in list order raises: when an op's wires are bad, the
    matrices of the ops before it are checked first."""
    first: dict = {}  # holds each matrix, so no id is reused within the call
    out = []
    try:
        for matrix, controls, targets in ops:
            controls, targets = _check_operands(d, n, controls, targets)
            key = (id(matrix), len(targets))
            if key not in first:
                first[key] = matrix, np.asarray(matrix, dtype=np.complex128)
            out.append((first[key][1], tuple(controls), tuple(targets)))
    finally:
        _check_unitaries(d, [(op, d**width) for (_, width), (_, op) in first.items()])
    return _records(d, out)


def _widen(keys, wire: dict, joining, d: int) -> tuple[tuple, tuple]:
    """The new keys and ``(dst, src)`` index pairs of the :func:`_hold` that gives each
    wire of ``joining`` an axis of its own in a tensor whose axes are keyed by the
    ascending wires ``keys``; updates the runner's ``{wire: (axis, table)}`` map.

    At each digit ``s`` of the axis it read, a joining wire's new axis holds that
    slice's amplitudes at digit ``table[s]`` and zeros at its other digits; an idle
    wire's holds them all at its one digit.  The new axis goes after the old ones
    keyed at or below its wire, with the identity table; each amplitude is copied once."""
    entries = [*keys, *joining]
    order = sorted(range(len(entries)), key=entries.__getitem__)  # stable: old axes first
    place = sorted(range(len(entries)), key=order.__getitem__)  # the new axis of each entry
    joins = [(place[i], *wire[w]) for i, w in enumerate(joining, len(keys))]
    sources = sorted({a for _, a, _ in joins if a is not None})
    copies = []
    src, dst = [slice(None)] * len(keys), [slice(None)] * len(entries)
    for digits in product(range(d), repeat=len(sources)):
        for a, s in zip(sources, digits):
            src[a] = dst[place[a]] = s
        for new, a, table in joins:
            dst[new] = table[0 if a is None else src[a]]
        copies.append((tuple(dst), tuple(src)))
    wire.update({w: (place[a], table) for w, (a, table) in wire.items() if a is not None})
    identity = tuple(range(d))
    wire.update({w: (new, identity) for (new, _, _), w in zip(joins, joining)})
    return tuple(entries[i] for i in order), tuple(copies)


def _hold(tensor: np.ndarray, keys: tuple, copies: tuple) -> tuple[np.ndarray, tuple]:
    """The widening kernel: a zeroed tensor of one axis per wire of ``keys``, each
    ``(dst, src)`` of :func:`_widen` copying ``tensor[src]`` in; returns both."""
    out = np.zeros((tensor.shape[0],) * len(keys), dtype=tensor.dtype)
    for dst, src in copies:
        out[dst] = tensor[src]
    return out, keys


@lru_cache(maxsize=256)
def _compile(d: int, n: int, wires: tuple, labels: tuple, layout: tuple) -> tuple:
    """The schedule of :func:`_run_records` for the ``(controls, targets, source)`` of
    its records on a tensor holding ``wires``: its kernel calls in order as tuples,
    ``("hold", (keys, copies))``, ``("move", cycles)``, ``("apply", (i, index, axes,
    padded))`` on the matrix of op ``i``, and ``("transpose", axes)``.  It reads no
    amplitude or matrix, so each distinct key, Python ints by construction, is
    compiled once while it stays among the 256 cached.  A schedule takes 0.25-0.75
    KiB per kernel call, more on more axes: 5-30 KiB for each bench encoder and the
    z16 network at m = 5, so 256 schedules of that size hold under 8 MiB.

    Each wire reads one held axis, or none when idle, through a table from stored
    to logical digit: a bijection on a held axis, a constant on an idle wire;
    several wires may read one axis.  A control matches the one stored digit its
    table maps to its value; on an idle wire it drops out or skips the op.

    A one-target 0/1 permutation whose target and held controls read at most one
    axis composes into the target's table and moves nothing: it relabels an
    uncontrolled target, a fan-out onto an idle wire makes the target read its
    control's axis (a copy), and a fold, controlled by a copy of its target,
    leaves the target a constant table, idle again.  A d >= 3 fan-out, whose table would
    be neither, goes on as any other op: it first gives each wire it touches (a
    product, every held wire) an axis of its own where the wire is idle or shares
    its axis (:func:`_hold`), and moves its targets' tables and a product's
    columns into identity order (:func:`_move`), so every product multiplies
    wires on axes of their own in identity order, with the bits at d = 2 of a
    run on the whole register (``MIN_BLOCK_COLUMNS``).  Then it is a
    :func:`_move` or an :func:`_apply`.

    The last write is the same pair: each held axis, keyed by its lowest reader
    through a transpose, gives every other reader and every idle wire it returns
    an axis of its own in one :func:`_hold`, and :func:`_move` puts each table in
    identity order; the schedule of a run that writes nothing is empty."""
    identity = tuple(range(d))
    keys = list(wires)  # the wire each axis was made for, ascending
    wire = {w: (None, (0,) * d) for w in range(n)}
    wire.update((w, (i, identity)) for i, w in enumerate(keys))
    relabelled: set = set()  # held wires whose table may not be the identity
    copies: set = set()  # held wires that may share their axis: every reader of a shared one
    steps: list = []
    for i, (controls, targets, source) in enumerate(layout):
        if any(wire[w][0] is None and wire[w][1][0] != v for w, v in controls):
            continue  # an idle wire holds one digit, so this control never matches
        held = [(w, v) for w, v in controls if wire[w][0] is not None]
        t = targets[0]
        read = source is not None and {wire[t][0], *(wire[w][0] for w, _ in held)} - {None}
        if source is not None and len(read) <= 1:  # compose into the target's table
            fire = identity  # the stored digits where every held control matches
            if held:  # held tables are bijective: each control asks for one digit
                asks = {wire[w][1].index(v) for w, v in held}
                fire = asks if len(asks) == 1 else ()
            table = list(wire[t][1])
            for s in fire:
                table[s] = source.index(table[s])  # digit source[a] goes to a
            distinct = len(set(table))
            if distinct == 1:  # idle, or idle again
                wire[t] = (None, tuple(table))
                relabelled.discard(t)
                copies.discard(t)
                continue
            if distinct == d:  # a d >= 3 fan-out's table is neither: it goes on below
                wire[t] = (read.pop(), tuple(table))
                relabelled.add(t)
                if held:
                    copies.update([t, *(w for w, _ in held)])
                continue
        joining = [w for w in targets if wire[w][0] is None]
        if copies:  # a shared axis keeps one reader, one the op does not touch if it can
            touched = copies if source is None else {t, *(w for w, _ in held)}
            readers: dict = {}
            for w in copies:
                readers.setdefault(wire[w][0], []).append(w)
            for share in readers.values():
                keep = min(set(share) - touched or share)
                joining += [w for w in share if w in touched and w != keep]
            copies = copies - touched
        if joining:
            keys, pairs = _widen(keys, wire, joining, d)
            steps.append(("hold", (keys, pairs)))
        if relabelled:  # a permutation's target, a product's targets and columns
            due = {t} if source is not None else relabelled.difference(w for w, _ in held)
            for w in due & relabelled:
                a, table = wire[w]
                if table != identity:
                    steps.append(("move", _moves(len(keys), [table.index(x) for x in identity], a)))
                    wire[w] = (a, identity)
            relabelled -= due
        matched = [(wire[w][0], wire[w][1].index(v)) for w, v in held]
        if source is None:
            columns = d ** (n - len(targets) - len(controls))
            args = _product(len(keys), [wire[u][0] for u in targets], matched, columns)
            steps.append(("apply", (i, *args)))
        else:
            steps.append(("move", _moves(len(keys), source, wire[t][0], matched)))
    # each held axis keyed by its lowest reader: every held axis has one
    lowest = {a: w for w, (a, _) in sorted(wire.items(), reverse=True) if a is not None}
    keys = [lowest[a] for a in range(len(keys))]
    if keys != sorted(keys):
        keys, order = sorted(keys), sorted(range(len(keys)), key=keys.__getitem__)
        steps.append(("transpose", tuple(order)))
        wire.update({w: (order.index(a), table) for w, (a, table) in wire.items() if a is not None})
    joining = [w for w, (a, table) in wire.items() if w not in keys and (a is not None
               or w not in labels or table[0] != 0)]
    if joining:
        keys, pairs = _widen(keys, wire, joining, d)
        steps.append(("hold", (keys, pairs)))
    for a, table in wire.values():
        if a is not None and table != identity:
            steps.append(("move", _moves(len(keys), [table.index(x) for x in identity], a)))
    front = [wire[w][0] for w in labels if wire[w][0] is not None]
    if front != list(range(len(front))):
        steps.append(("transpose", (*front, *(a for a in range(len(keys)) if a not in front))))
    return tuple(steps)


def _execute(tensor: np.ndarray, matrices: list, schedule: tuple) -> np.ndarray:
    """The kernel calls of a :func:`_compile` schedule, in order, on ``tensor`` and the
    run's matrices.  Returns the last tensor, ``tensor`` itself if none replaced it."""
    for kind, args in schedule:
        if kind == "apply":
            _apply(tensor, matrices[args[0]], *args[1:])
        elif kind == "move":
            _move(tensor, args)
        else:
            tensor = _hold(tensor, *args)[0] if kind == "hold" else tensor.transpose(args)
    return tensor


def _run(tensor: np.ndarray, wires, n: int, ops, labels=()) -> np.ndarray:
    """``(matrix, controls, targets)`` ops supplied by a caller, validated on every
    call (:func:`_checked_ops`), then run (:func:`_run_records`)."""
    return _run_records(tensor, wires, n, _checked_ops(tensor.shape[0], n, ops), labels)


def _run_records(tensor: np.ndarray, wires, n: int, records, labels=()) -> np.ndarray:
    """The ``(matrix, controls, targets, source)`` op records of :func:`_records` in
    order, unchecked; returns the tensor of the register, one axis per wire in wire
    order, less each wire of ``labels`` that ends idle in |0>; the other wires of
    ``labels`` lead, in the order given.

    The writable ``tensor`` holds the ascending ``wires`` of an n-qudit register
    whose every other wire is idle in |0>, and ops may write into it.  Every wire
    and control digit is a Python int in range and every matrix fits its targets:
    :func:`_checked_ops` makes such records of a caller's ops, and a synthesizer
    makes them from validated objects.  :func:`_compile` decides every kernel call
    from the layout alone, and :func:`_execute` makes them: a layout seen before
    replays its schedule."""
    layout = tuple((controls, targets, source) for _, controls, targets, source in records)
    schedule = _compile(tensor.shape[0], n, tuple(wires), tuple(labels), layout)
    return _execute(tensor, [op for op, _, _, _ in records], schedule)


def apply_local(state: StateVector, u: np.ndarray, target: int) -> StateVector:
    """Apply a d x d unitary to one qudit: the one-target collective."""
    return apply_collective(state, u, [target])


# Each elementwise product of a monomial collective step covers at least this many
# amplitudes; on smaller blocks numpy's cost per call exceeds the GEMM's, so those
# keep the GEMM.
MONOMIAL_MIN_BLOCK = 2**10

# The exact unit phases: products of them round nothing.
_UNITS = frozenset({1, -1, 1j, -1j})

# With exact phases, the fused step multiplies by one phase table per group of
# target wires, each of at most this many entries: groups of 8 wires at d = 2.
FUSED_TABLE_ENTRIES = 2**8


def _fused_width(d: int) -> int:
    """Wires per group of the fused step: the most whose phase table fits
    ``FUSED_TABLE_ENTRIES``, and at least one."""
    width = 1
    while d ** (width + 1) <= FUSED_TABLE_ENTRIES:
        width += 1
    return width


def _phase_table(phases: np.ndarray, widths: list[int]) -> np.ndarray:
    """The product of ``phases[row, digit]`` over the digits of the wires of each
    run, broadcast over a ``(rows, ...)`` tensor of runs of wires: a run of
    width ``w`` gets ``d**w`` entries, one of width 0 a single entry."""
    rows, d = phases.shape
    table = np.ones((rows, 1), dtype=np.complex128)
    for _ in range(sum(widths)):
        table = (table[:, :, None] * phases[:, None, :]).reshape(rows, -1)
    return table.reshape(rows, *(d**w for w in widths))


def _fused_rows(rows: np.ndarray, n: int, targets, moves, phases: np.ndarray) -> np.ndarray:
    """The monomial collective step for permutations that are the identity or the
    digit reversal: for each ``(rows, src)`` group of rows, the rows themselves or
    a view with every target wire's digits reversed, then one multiply per group
    of target wires by its table of the ``(1 or rows, d)`` phases, the first
    written into the output and the rest in place.  A group is
    :func:`_fused_width` wires when every phase is exactly 1, -1, i or -i, whose
    products round nothing, and one wire otherwise, so each amplitude meets the
    phases one at a time in wire order and keeps its bits.  Adjacent wires of one
    group, or of none, are merged into one axis, so each multiply runs over a few
    long axes."""
    count, d = rows.shape[0], phases.shape[1]
    wires = sorted(targets)
    width = _fused_width(d) if _UNITS.issuperset(phases.flat) else 1
    group = {w: i // width for i, w in enumerate(wires)}
    runs = [(key, len(list(run))) for key, run in groupby(range(n), lambda w: group.get(w, -1))]
    shape = (count, *(d**length for _, length in runs))
    tensor, out = rows.reshape(shape), np.empty(shape, dtype=np.complex128)
    tables = [_phase_table(phases, [length if key == g else 0 for key, length in runs])
              for g in range(group[wires[-1]] + 1)]
    reverse = (slice(None), *(slice(None, None, -1 if key >= 0 else 1) for key, _ in runs))
    for sel, src in moves:
        view = tensor[sel][reverse] if src[0] else tensor[sel]  # src[0] = d - 1: reversal
        for table in tables:
            np.multiply(view, table[sel], out=out[sel])
            view = out[sel]
    return out.reshape(count, -1)


def _collective_rows(rows: np.ndarray, u: np.ndarray, n: int, targets) -> np.ndarray:
    """``u`` on every wire in ``targets`` of each row of a ``(rows, d**n)`` array.

    The collective kernel, with no checks.  ``u`` is one ``(d, d)`` matrix for
    every row or a ``(rows, d, d)`` stack with one matrix per row.  Each step
    views the leading qudit of every row as the columns of a ``(rest, d)``
    block, right-multiplies it by the transposed matrix, and flattens so that
    qudit becomes the trailing one; after ``n`` steps the wires are back in
    place.  The rows go through one stacked matmul per step, one GEMM per row,
    so each row comes out bit-identical to a one-row call.  The steps write in
    turn into the output and one scratch buffer, both allocated once.

    When every matrix is monomial (:func:`_monomial`) and every permutation is
    the identity or the digit reversal (every monomial at d = 2), the step of
    :func:`_fused_rows` runs instead of the GEMM.  It takes all rows at once when
    they share a permutation and row by row otherwise, and each of its products
    must cover ``MONOMIAL_MIN_BLOCK`` amplitudes; one wire keeps the GEMM, whose
    bits there differ from the multiply's even at d = 2.  At d = 2, or with
    exact phases, every nonzero amplitude has the GEMM's bits; at larger d with
    other phases, where the GEMM sums d products, the last bit may move.  Only
    the sign of a zero may differ from the GEMM.  Other monomials (d >= 3
    shifts, the regular rep) take the GEMM.
    """
    d, x, count = u.shape[-1], rows, rows.shape[0]
    block = d ** (n - 1)  # amplitudes of one digit of one row
    if n > 1 and targets and count * block >= MONOMIAL_MIN_BLOCK and (found := _monomial(u)):
        # (rows, source digit of each output digit) for each group of rows
        src, phases = found
        moves = []
        if src == src[:d] * (len(src) // d):  # one permutation for every row
            moves = [(slice(None), src[:d])]
        elif block >= MONOMIAL_MIN_BLOCK:
            moves = [(slice(i, i + 1), src[i * d : i * d + d]) for i in range(count)]
        ends = (list(range(d)), list(range(d - 1, -1, -1)))  # identity, reversal
        if moves and all(s in ends for _, s in moves):
            table = np.array(phases, dtype=np.complex128).reshape(-1, d)  # (1 or rows, d)
            return _fused_rows(rows, n, targets, moves, table)
    ut = np.swapaxes(u, -1, -2)
    buffers = [np.empty((count, d**n), dtype=np.complex128)]
    for w in range(n):
        if w == 1:
            buffers.append(np.empty_like(buffers[0]))
        out = buffers[w % 2]
        x, y = x.reshape(count, d, -1), out.reshape(count, block, d)
        if w not in targets:
            np.copyto(y, x.transpose(0, 2, 1))
        else:
            np.matmul(x.transpose(0, 2, 1), ut, out=y)
        x = out
    return x


def apply_collective(state: StateVector, u: np.ndarray, targets=None) -> StateVector:
    """Apply the same single-qudit unitary to every listed qudit (default: all),
    both checked on every call.

    Targets are processed in ascending wire order, whatever order they are
    given in; this is the one-row case of :func:`_collective_rows`.
    """
    targets = set(_check_wires(state.n, range(state.n) if targets is None else targets))
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (state.d, state.d):  # a collective reads every state of its wires
        raise DimensionMismatch(f"operator must be {state.d}x{state.d}, got {u.shape}")
    _check_unitaries(state.d, [(u, state.d)])
    amps = _collective_rows(state.amps[None], u, state.n, targets)[0]
    return StateVector(d=state.d, n=state.n, amps=amps)


def apply_controlled(state: StateVector, controls, u: np.ndarray, targets) -> StateVector:
    """Apply a unitary or an isometry on a target block when every control qudit holds its value.

    ``controls`` is a sequence of ``(qudit, required_value)`` pairs, possibly
    empty; amplitudes whose control digits do not match are left bit-exact.
    The result is a fresh state; ``state`` is only read.
    """
    tensor = _run(state.tensor().copy(), range(state.n), state.n, [(u, controls, targets)])
    return StateVector(d=state.d, n=state.n, amps=tensor.reshape(-1))


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Outcome of a projective measurement on a qudit subset.

    ``outcome`` indexes the offered projectors; ``outcome == len(probabilities) - 1``
    together with ``is_remainder`` marks the leftover projector.
    """

    outcome: int
    probability: float
    probabilities: tuple[float, ...]
    post_state: StateVector
    seed: int
    is_remainder: bool


def _projector_amplitudes(state: StateVector, subset, projectors):
    """Amplitude rows <v_i| B for rank-one projectors |v_i><v_i| on the subset."""
    subset = _check_wires(state.n, subset)
    dim = state.d ** len(subset)
    block = _to_front(state.tensor(), subset, state.d)
    vectors = []
    for p in projectors:
        v = np.asarray(p, dtype=np.complex128).reshape(-1)
        if v.size != dim:
            raise DimensionMismatch(f"projector size {v.size} != {dim}")
        norm = np.linalg.norm(v)
        if not abs(norm - 1.0) <= UNITARY_TOL:  # a NaN norm fails too
            raise NonOrthogonalProjectors(f"projector vector has norm {norm}")
        vectors.append(v)
    stacked = np.reshape(vectors, (len(vectors), dim))
    overlaps = np.argwhere(np.triu(np.abs(stacked.conj() @ stacked.T), 1) > UNITARY_TOL)
    if len(overlaps):
        i, j = overlaps[0]
        raise NonOrthogonalProjectors(f"projectors {i} and {j} overlap")
    return stacked, _overlap_rows(stacked, block), block, subset


def _overlap_rows(vectors: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``<v_i| block`` for each row of ``vectors``, unchecked.  Each GEMV goes straight
    into its row, so the rows exist once; the GEMV keeps the bits that pin
    perp_probability in roundtrip_z8.json."""
    rows = np.empty((len(vectors), block.shape[1]), dtype=np.complex128)
    for v, row in zip(vectors, rows):
        row[...] = v.conj() @ block
    return rows


def _outcome_distribution(rows: np.ndarray) -> np.ndarray:
    """Offered probabilities ``sum |row|^2``, remainder last; refused above 1 + UNITARY_TOL."""
    probs = np.array([np.sum(np.abs(row) ** 2) for row in rows])
    total = float(np.sum(probs))
    if total > 1.0 + UNITARY_TOL:
        raise NonOrthogonalProjectors(f"offered probabilities sum to {total} > 1")
    return np.append(probs, max(0.0, 1.0 - total))


def _draw(probabilities, seed) -> int:
    """One sampled index of ``probabilities``: the sampler of every channel and measurement."""
    draw = float(np.random.default_rng(seed).random())
    index = int(np.searchsorted(np.cumsum(probabilities), draw, side="right"))
    return min(index, len(probabilities) - 1)


def outcome_probabilities(state: StateVector, subset, projectors) -> np.ndarray:
    """Exact probabilities of the offered outcomes plus the remainder, in order."""
    _, rows, _, _ = _projector_amplitudes(state, subset, projectors)
    return _outcome_distribution(rows)


def project_measure(state: StateVector, subset, projectors, seed: int) -> MeasurementRecord:
    """Sample one outcome of {|v_i><v_i|} plus the remainder on a qudit subset.

    Same seed, same state: same outcome and a bit-identical post state.
    """
    vectors, rows, block, subset = _projector_amplitudes(state, subset, projectors)
    all_probs = _outcome_distribution(rows)
    outcome = _draw(all_probs, seed)
    is_remainder = outcome == len(vectors)

    if is_remainder:
        kept = block.copy()
        for v, row in zip(vectors, rows):
            kept -= np.outer(v, row)
    else:
        kept = np.outer(vectors[outcome], rows[outcome])
    norm = np.linalg.norm(kept)
    if norm == 0:
        raise NonOrthogonalProjectors("post-measurement state vanished")
    kept = kept / norm
    post = StateVector(
        d=state.d, n=state.n, amps=_from_front(kept, subset, state.n, state.d).reshape(-1)
    )
    return MeasurementRecord(
        outcome=outcome,
        probability=float(all_probs[outcome]),
        probabilities=tuple(float(p) for p in all_probs),
        post_state=post,
        seed=seed,
        is_remainder=is_remainder,
    )


def inner(a: StateVector, b: StateVector) -> complex:
    if a.d != b.d or a.n != b.n:
        raise DimensionMismatch("states live on different registers")
    return complex(np.vdot(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; symmetric and clipped to [0, 1]."""
    return float(min(1.0, abs(inner(a, b)) ** 2))
