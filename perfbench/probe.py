"""Capability probe: the largest cyclic group whose qubit round trip completes.

Sizes z2, z3, ... z16 (``builtin`` phases on qubits, r = N - 1, m = 1) are
tried in ascending order, each in a forked child under an address-space cap
and a wall-clock timeout, stopping at the first failure or when the probe's
time budget is spent.  The result is recorded, not gated.
"""

from __future__ import annotations

import os
import resource
import time

from forked import ChildFailed, run_in_child

SIZES = range(2, 17)
HEADROOM_BYTES = 1 << 30  # address space a size may add on top of the parent's
TIMEOUT_S = 20.0  # per size
BUDGET_S = 60.0  # whole probe: no size starts once this much time has passed


def _cap_address_space() -> None:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[0])
    cap = pages * os.sysconf("SC_PAGE_SIZE") + HEADROOM_BYTES
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _roundtrip(n: int):
    from dfscodec import builtin_group, prepare_protocol, run_roundtrip, uniform_channel
    from dfscodec.reps import builtin_rep

    rep = builtin_rep(builtin_group(f"z{n}"), "builtin", 2)
    context = prepare_protocol(rep)
    result = run_roundtrip(
        context, uniform_channel(rep), m=1, message_seed=1, channel_seed=2, measure_seed=3
    )
    if not result.report.roundtrip_fidelity >= 1 - 1e-9:
        raise AssertionError(f"fidelity {result.report.roundtrip_fidelity}")
    return context.r


def run_probe() -> dict:
    sizes = []
    largest = 1
    start = time.monotonic()
    for n in SIZES:
        if time.monotonic() - start > BUDGET_S:
            sizes.append({"n": n, "status": None, "error": "ProbeBudget"})
            break
        try:
            r = run_in_child(lambda: _roundtrip(n), TIMEOUT_S, before=_cap_address_space)
        except ChildFailed as exc:
            sizes.append({"n": n, "status": exc.status, "error": exc.error_type})
            break
        sizes.append({"n": n, "status": 0, "r": r})
        largest = n
    return {
        "max_r_roundtrip": largest,
        "headroom_mib": HEADROOM_BYTES >> 20,
        "timeout_s": TIMEOUT_S,
        "budget_s": BUDGET_S,
        "sizes": sizes,
    }
