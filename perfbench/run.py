"""dfscodec benchmark: one closed-loop client, one workload per invocation.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; dfscodec is imported from its ``src``.
The last stdout line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The line before it records the environment and, for a
traced run, the full per-layer table.
"""

import os

# Pin the BLAS and OpenMP pools before numpy loads: at the default two
# OpenBLAS threads, single prepare calls stall for 15x their median.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from forked import run_in_child  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("roundtrip", "cli-cold", "circuit")
SETUP_REPEATS = 5
SETUP_SPEED_SAMPLES = 3
SETUP_TIMEOUT_S = 120.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_dfscodec():
    import dfscodec

    origin = Path(dfscodec.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"dfscodec imported from {origin}, not from {SRC}")
    return dfscodec


def _timed_setup(name: str, seed: int) -> list[float]:
    """Raw and rescaled seconds of ``import dfscodec`` plus the workload's preparation.

    Runs in a fresh child, so each sample pays the import again.
    """
    start = time.perf_counter()
    _import_dfscodec()
    import workloads

    workloads.make(name, seed).setup()
    seconds = time.perf_counter() - start
    from reference import HostSpeed

    speed = HostSpeed("cold")
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    # the window centred on the middle sample holds all of them
    return [seconds, seconds * speed.scale(SETUP_SPEED_SAMPLES // 2)]


class Loop:
    """Closed loop: reference kernel, op, then its check, until the time is up.

    Each finished pass keeps its raw seconds and the index of the kernel
    sample taken just before it; ``times`` rescales them to nominal host
    speed (see ``reference``).
    """

    def __init__(self, workload, speed, tracer=None):
        self.workload = workload
        self.speed = speed
        self.tracer = tracer
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.done: list[tuple[str, int, float, dict]] = []

    def one(self, phase: str) -> None:
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        tracer = self.tracer
        try:
            k = self.speed.sample()
            if tracer is not None:
                tracer.phase, tracer.op = phase, i
            seconds, parts, out = self.workload.op(i)
            if tracer is not None:
                tracer.phase = "check"
            self.workload.check(i, out)
        # an op that raises for any reason is a failed op, not a crashed run
        except Exception:  # noqa: BLE001
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        self.done.append((phase, k, seconds, parts))

    def run(self, seconds: float, phase: str = "op") -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.one(phase)

    def times(self, phase: str = "op", raw: bool = False) -> list[float]:
        return [
            seconds * (1.0 if raw else self.speed.scale(k))
            for p, k, seconds, _ in self.done if p == phase
        ]

    def part_times(self) -> dict[str, list[float]]:
        parts: dict[str, list[float]] = {}
        for p, k, _, by_part in self.done:
            if p == "op":
                for label, seconds in by_part.items():
                    parts.setdefault(label, []).append(seconds * self.speed.scale(k))
        return parts


def p50_p90_ms(times: list[float]) -> tuple[float, float]:
    if len(times) < 2:
        raise RuntimeError(f"only {len(times)} successful ops; nothing to report")
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return statistics.median(times) * 1e3, deciles[8] * 1e3


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_pin": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_samples = [
        run_in_child(lambda: _timed_setup(args.workload, args.seed), SETUP_TIMEOUT_S)
        for _ in range(SETUP_REPEATS)
    ]
    _import_dfscodec()
    import workloads
    from reference import HostSpeed

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.make(args.workload, args.seed, tracer)
    workload.setup()
    if tracer is not None:
        tracer.uninstall()

    loop = Loop(workload, HostSpeed(workload.REFERENCE), tracer)
    loop.one("warmup")  # fills lazy state; checked, not timed
    record = {"workload": args.workload, "env": environment(args.seed)}
    if not args.trace:
        loop.run(args.seconds)
        times = loop.times()
        p50, p90 = p50_p90_ms(times)
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
            "pass_p50_ms": (p50, "ms"),
            "pass_p90_ms": (p90, "ms"),
        }
        record["samples"] = len(times)
        record["part_p50_p90_ms"] = {
            label: p50_p90_ms(values) for label, values in loop.part_times().items()
        }
        record["raw"] = {
            "setup_s": statistics.median(raw for raw, _ in setup_samples),
            "pass_p50_p90_ms": p50_p90_ms(loop.times(raw=True)),
            "reference": loop.speed.kind,
            "reference_p50_ms": statistics.median(loop.speed.samples) * 1e3,
        }
    else:
        from layers import traced_run

        metrics = traced_run(loop, workload, tracer, args.seconds, record)
    record["failed_share"] = loop.failed / loop.attempted
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
