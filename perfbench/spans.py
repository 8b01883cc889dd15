"""Span tracing for the benchmark's traced run.

The tracer wraps public dfscodec functions from the outside: every
``dfscodec.*`` module attribute that *is* a listed function object is rebound
to a wrapper, so ``from .statevec import apply_local`` copies are caught as
well.  Each call records a span (name, start, end, parent, op id, phase) in
memory; self time is a span's duration minus the time covered by its children.
A listed function that no longer exists is reported as absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Wrapped functions, in layer order, with the end-to-end metrics each one is
# expected to move: metric@workload, [part] naming a part of the pass.
_CLI = "pass_*@cli-cold"
_SETUP = ("setup_s@roundtrip", "setup_s@circuit")
LAYERS = {
    "groups.builtin_group": [_CLI],
    "groups.conjugacy_classes": [_CLI],
    "groups.validate_group": [_CLI],
    "reps.builtin_character_table": [_CLI],
    "reps.min_r": [_CLI],
    "reps.isotypic_decompose": [_CLI, *_SETUP],
    "reps.tensor_power_matrices": [_CLI, *_SETUP],
    "codec.prepare_protocol": [_CLI, *_SETUP],
    "codec.build_fiducial": [_CLI, *_SETUP],
    "codec.build_tokens": [_CLI, *_SETUP],
    "codec.encode": ["pass_*@roundtrip[k4]", "pass_*@roundtrip"],
    "codec.transmit": ["pass_*@roundtrip[z8]", "pass_*@roundtrip[s3]"],
    "codec.decode": ["pass_*@roundtrip"],
    "statevec.apply_collective": ["pass_*@roundtrip", *_SETUP],
    "statevec.apply_local": ["pass_*@roundtrip", "pass_*@circuit"],
    "statevec.apply_controlled": ["pass_*@circuit"],
    "statevec.project_measure": ["pass_*@roundtrip"],
    "circuits.build_encoding_pipeline": ["pass_*@circuit"],
    "circuits.apply_t_direct": ["pass_*@circuit[z8-general]"],
    "circuits.EncodingPipeline.run": ["pass_*@circuit[z8-cyclic-network]"],
    "circuits.apply_gate": ["pass_*@circuit"],
    "circuits.network_token_set": ["setup_s@circuit", _CLI],
    "circuits.gate_count_report": [_CLI],
    "serialization.canonical_json": [_CLI],
    "su2.run_demo": [_CLI],
    "cli.main": [_CLI],
}

STATEVEC_BYTES = ("statevec.apply_local", "statevec.apply_controlled")


def _state_bytes(args) -> int:
    # computed, not measured: one read and one write of the full state
    return 2 * args[0].amps.nbytes


class Tracer:
    """Spans kept in memory plus computed counters, keyed by phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.op = -1
        self.part = ""  # label of the part of a pass being run
        self.counts: dict[tuple[str, str], float] = {}
        self.peaks: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.unmeasured: set[str] = set()  # calls whose arguments no longer fit a counter

    def reset(self) -> None:
        """Drop what was recorded so far (a forked child reports only its own)."""
        self.spans, self.counts, self.peaks, self.errors = [], {}, {}, {}

    # -- recording ---------------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        slot = (self.phase, key)
        self.counts[slot] = self.counts.get(slot, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    def _measure(self, name: str, args) -> None:
        if name in STATEVEC_BYTES:
            self.count(f"{name}.bytes", _state_bytes(args))
        if name.startswith("statevec.") and args and hasattr(args[0], "amps"):
            self.peak("statevec.peak_amplitudes", args[0].amps.size)
        if name == "reps.tensor_power_matrices":
            rep, r = args[0], args[1]
            dim = rep.dim**r
            self.count(f"{name}.bytes", rep.group.order * dim * dim * 16)
        elif name == "reps.isotypic_decompose":
            self.peak(f"{name}.dim", args[0].dim ** args[1])
        elif name == "circuits.apply_gate":
            self.count(f"{name}.calls.{args[1].kind}")

    def wrap(self, name: str, fn, error_type):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                self._measure(name, args)
            except (IndexError, AttributeError, TypeError):
                self.unmeasured.add(name)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.op, self.phase, self.part]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                # count an error once, in the innermost span it leaves
                if not getattr(exc, "_traced", False):
                    exc._traced = True
                    self.errors[layer] = self.errors.get(layer, 0) + 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if name == "serialization.canonical_json":
                self.count(f"{name}.bytes", len(result.encode()))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every dfscodec attribute that is a listed function."""
        from dfscodec.errors import DfsCodecError

        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "dfscodec" or key.startswith("dfscodec."))
        ]
        self.absent = []
        for name in LAYERS:
            layer, *path = name.split(".")
            try:
                owner = importlib.import_module(f"dfscodec.{layer}")
            except ImportError:
                owner = None
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, fn, DfsCodecError)
            if isinstance(owner, type):
                self._rebind(owner, path[-1], fn, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, attr, fn, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls, total and self seconds per (phase, name); mergeable across processes."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        stats: dict[str, list[float]] = {}
        nested: dict[str, int] = {}
        by_part: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _op, phase, part) in enumerate(self.spans):
            entry = stats.setdefault(f"{phase}|{name}", [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
            if phase == "op":
                totals = by_part.setdefault(part, {})
                totals[name] = totals.get(name, 0.0) + end - start
            if parent >= 0:
                pair = f"{phase}|{self.spans[parent][0]}>{name}"
                nested[pair] = nested.get(pair, 0) + 1
        return {
            "stats": stats,
            "nested": nested,
            "counts": {f"{p}|{k}": v for (p, k), v in self.counts.items()},
            "peaks": dict(self.peaks),
            "errors": dict(self.errors),
            "by_part": by_part,
        }


def merge(into: dict, other: dict) -> dict:
    """Add one aggregate (for example from a forked child) into another."""
    for key, (calls, total, self_time) in other["stats"].items():
        entry = into["stats"].setdefault(key, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += self_time
    for field in ("nested", "counts", "errors"):
        for key, value in other[field].items():
            into[field][key] = into[field].get(key, 0) + value
    for key, value in other["peaks"].items():
        into["peaks"][key] = max(into["peaks"].get(key, 0), value)
    for part, totals in other["by_part"].items():
        mine = into["by_part"].setdefault(part, {})
        for name, value in totals.items():
            mine[name] = mine.get(name, 0.0) + value
    return into
