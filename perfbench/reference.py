"""Reference kernels: fixed work that measures how fast the host runs right now.

Shared cloud hosts drift: the same pass can take 1.9x longer for minutes at a
time, and process CPU time drifts with wall time, so the cause is a slower CPU
(contended caches and memory) rather than scheduler waits.  The benchmark
times a reference kernel next to every pass and rescales each timing to a
host on which the kernel takes its nominal time.  Raw timings are recorded
beside the rescaled ones.

The slowdown hits memory-bound array work harder than interpreter work, so
there are two kernels, each matching the work of the workloads it rescales:

* ``state``: axis moves and small matmuls on a 2**15-amplitude state, the
  state-vector work of round trips and circuit simulation, run in process;
* ``cold``: argparse, JSON, small-array numpy and object walks in a freshly
  forked child, the work of one cold CLI process and of set-up.

Neither kernel calls dfscodec, so no change to the library moves them.
"""

from __future__ import annotations

import argparse
import json
import statistics
from time import perf_counter

import numpy as np

from forked import run_in_child

# Kernel seconds on the calibration host (2-vCPU Xeon VM, quiet phase).
NOMINAL_S = {"state": 0.015, "cold": 0.040}
WINDOW = 5  # kernel timings in the median around each pass
CHILD_TIMEOUT_S = 60.0

_rng = np.random.default_rng(20120404)
_STATE = _rng.normal(size=2**15) + 1j * _rng.normal(size=2**15)
_U = np.linalg.qr(_rng.normal(size=(2, 2)) + 1j * _rng.normal(size=(2, 2)))[0]
_SMALL = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_BLOB = {f"k{i}": [float(j) for j in range(20)] for i in range(200)}
_OBJECTS = [{"a": i, "b": str(i)} for i in range(30000)]


def state_kernel() -> float:
    """Seconds for six single-qubit updates of a 15-qubit state."""
    start = perf_counter()
    amps = _STATE
    for axis in range(6):
        moved = np.moveaxis(amps.reshape([2] * 15), axis, -1) @ _U.T
        amps = np.moveaxis(moved, -1, axis).reshape(-1)
    return perf_counter() - start


def cold_kernel() -> float:
    """Seconds for parser builds, JSON dumps, small matmuls and an object walk."""
    start = perf_counter()
    for _ in range(5):
        parser = argparse.ArgumentParser()
        commands = parser.add_subparsers()
        for k in range(10):
            command = commands.add_parser(f"c{k}")
            command.add_argument("--x")
            command.add_argument("--y", type=int)
    for _ in range(10):
        json.dumps(_BLOB, sort_keys=True, indent=2)
    small = _SMALL
    for _ in range(100):
        small = small @ _SMALL / np.linalg.norm(small)
    total = 0
    for obj in _OBJECTS[:15000]:
        total += obj["a"]
    return perf_counter() - start


class HostSpeed:
    """Timings of one kernel; ``scale(k)`` maps host seconds near sample k to nominal."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; return the sample's index."""
        if self.kind == "state":
            seconds = state_kernel()
        else:
            seconds = run_in_child(cold_kernel, CHILD_TIMEOUT_S)
        self.samples.append(seconds)
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """Nominal time over the median of the samples centred on sample k."""
        window = self.samples[max(0, k - WINDOW // 2): k + WINDOW // 2 + 1]
        return NOMINAL_S[self.kind] / statistics.median(window)
