"""The traced run: per-layer table, tracing overhead and the capability probe."""

from __future__ import annotations

import statistics

from probe import run_probe
from spans import LAYERS, merge

CODEC_STAGES = ("codec.encode", "codec.transmit", "codec.decode")
GATE_KINDS = ("single", "controlled", "cnot", "chain", "prep")

# Self ms per call over set-up and passes: every workload calls these.
MS_PER_CALL = (
    "groups.builtin_group",
    "groups.conjugacy_classes",
    "groups.validate_group",
    "reps.builtin_character_table",
    "reps.min_r",
    "reps.isotypic_decompose",
    "reps.tensor_power_matrices",
    "codec.prepare_protocol",
    "codec.build_fiducial",
    "codec.build_tokens",
)

# Self ms per timed pass: every workload's passes call these.
MS_PER_PASS = ("statevec.apply_local",)

# Calls per timed pass; zero on the workloads that bypass the function.
CALLS_PER_PASS = (
    "reps.tensor_power_matrices",
    "codec.encode",
    "codec.transmit",
    "codec.decode",
    "statevec.apply_local",
    "statevec.apply_controlled",
    "statevec.project_measure",
    "circuits.build_encoding_pipeline",
    "circuits.apply_t_direct",
    "circuits.EncodingPipeline.run",
    "circuits.apply_gate",
    "serialization.canonical_json",
    "su2.run_demo",
    "cli.main",
)

# Computed bytes per timed pass.
BYTES_PER_PASS = (
    "statevec.apply_local",
    "statevec.apply_controlled",
    "serialization.canonical_json",
)


def layer_table(agg: dict, passes: int, absent: list[str]) -> dict:
    """Per wrapped function: calls and self/total time per pass, plus set-up spans."""
    stats, counts = agg["stats"], agg["counts"]

    def get(phase, name):
        return stats.get(f"{phase}|{name}", [0, 0.0, 0.0])

    table = {}
    for name, moves in LAYERS.items():
        if name in absent:
            table[name] = {"status": "absent", "moves": moves}
            continue
        calls, total, self_time = get("op", name)
        setup_calls, _setup_total, setup_self = get("setup", name)
        all_calls = calls + setup_calls
        entry = {
            "status": "wrapped",
            "moves": moves,
            "calls_per_pass": calls / passes,
            "self_ms_per_pass": self_time * 1e3 / passes,
            "total_ms_per_pass": total * 1e3 / passes,
            "setup_calls": setup_calls,
            "setup_self_ms": setup_self * 1e3,
            "self_ms_per_call": (self_time + setup_self) * 1e3 / all_calls if all_calls else None,
        }
        for key, value in counts.items():
            phase, _, counter = key.partition("|")
            if not counter.startswith(name + "."):
                continue
            suffix = counter[len(name) + 1:]
            if phase == "op":
                entry[f"{suffix}_per_pass"] = value / passes
            elif phase == "setup":
                entry[f"setup_{suffix}"] = value
        table[name] = entry

    tensor = table.get("reps.tensor_power_matrices", {})
    tensor_calls = sum(get(p, "reps.tensor_power_matrices")[0] for p in ("op", "setup"))
    if tensor_calls:
        tensor_bytes = tensor.get("bytes_per_pass", 0) * passes + tensor.get("setup_bytes", 0)
        tensor["bytes_per_call"] = tensor_bytes / tensor_calls
    build_calls = sum(get(p, "codec.build_tokens")[0] for p in ("op", "setup"))
    collective = sum(
        agg["nested"].get(f"{p}|codec.build_tokens>statevec.apply_collective", 0)
        for p in ("op", "setup")
    )
    if build_calls and "codec.build_tokens" in table:
        table["codec.build_tokens"]["collective_calls_per_call"] = collective / build_calls
    return table


def per_layer_metrics(table: dict, agg: dict, probe: dict, overhead: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""

    def field(name, key):
        value = table.get(name, {}).get(key)
        return 0.0 if value is None else value

    metrics = {}
    for name in MS_PER_CALL:
        metrics[f"{name}.ms_per_call"] = (field(name, "self_ms_per_call"), "ms")
    for name in MS_PER_PASS:
        metrics[f"{name}.ms_per_pass"] = (field(name, "self_ms_per_pass"), "ms")
    for name in CALLS_PER_PASS:
        metrics[f"{name}.calls"] = (field(name, "calls_per_pass"), "count")
    for kind in GATE_KINDS:
        metrics[f"circuits.apply_gate.calls.{kind}"] = (
            field("circuits.apply_gate", f"calls.{kind}_per_pass"), "count")
    for name in BYTES_PER_PASS:
        metrics[f"{name}.bytes"] = (field(name, "bytes_per_pass"), "B")
    metrics["reps.tensor_power_matrices.bytes_per_call"] = (
        field("reps.tensor_power_matrices", "bytes_per_call"), "B")
    metrics["reps.isotypic_decompose.dim"] = (
        agg["peaks"].get("reps.isotypic_decompose.dim", 0), "count")
    metrics["codec.build_tokens.collective_calls"] = (
        field("codec.build_tokens", "collective_calls_per_call"), "count")
    metrics["statevec.peak_amplitudes"] = (
        agg["peaks"].get("statevec.peak_amplitudes", 0), "count")
    for layer in sorted({name.split(".")[0] for name in LAYERS}):
        metrics[f"{layer}.errors"] = (agg["errors"].get(layer, 0), "count")
    metrics["max_r_roundtrip"] = (probe["max_r_roundtrip"], "count")
    metrics["trace.overhead_share"] = (overhead, "ratio")
    return metrics


def traced_run(loop, workload, tracer, seconds: float, record: dict) -> dict:
    """Half the time untraced, half traced; the difference is the overhead."""
    loop.run(seconds / 2, "untraced")
    tracer.install()
    first_traced = loop.next_op
    loop.run(seconds / 2)
    tracer.uninstall()
    passes = max(1, loop.next_op - first_traced)
    agg = tracer.aggregate()
    if getattr(workload, "child_trace", None) is not None:
        merge(agg, workload.child_trace)
    table = layer_table(agg, passes, tracer.absent)
    untraced_ms = statistics.median(loop.times("untraced")) * 1e3
    traced_ms = statistics.median(loop.times()) * 1e3
    overhead = traced_ms / untraced_ms - 1.0
    record["overhead"] = {
        "untraced_p50_ms": untraced_ms,
        "traced_p50_ms": traced_ms,
        "overhead_ms": traced_ms - untraced_ms,
        "overhead_share": overhead,
    }
    record["codec_stage_ms_per_pass"] = _codec_stages(agg, passes)
    record["layers"] = table
    record["absent"] = tracer.absent
    record["unmeasured"] = sorted(tracer.unmeasured)
    probe = run_probe()
    record["probe"] = probe
    return per_layer_metrics(table, agg, probe, overhead)


def _codec_stages(agg: dict, passes: int) -> dict:
    """Per part of the pass: encode, transmit and decode ms (self plus children)."""
    stages = {}
    for label, totals in agg["by_part"].items():
        row = {s: totals[s] * 1e3 / passes for s in CODEC_STAGES if s in totals}
        if row:
            row["largest"] = max(row, key=row.get)
            stages[label] = row
    return stages
