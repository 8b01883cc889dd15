"""The benchmark's workloads: inputs from the seed, one timed op, its check.

Each workload is driven by one closed-loop client: the next op starts when
the previous one and its check are done.  An op is one pass over a fixed list
of parts (channels, encoders or command lines).  ``op(i)`` returns the pass's
timed seconds, the seconds of each part, and what ``check(i, out)`` needs;
checks run outside the timed interval and raise ``AssertionError``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from time import perf_counter as _now

import numpy as np

# Calls go through module attributes, so the traced run's wrappers see them.
from dfscodec import circuits, cli, codec, groups, reps, statevec

from forked import run_in_child
from spans import merge

ROOT = Path(__file__).resolve().parent.parent
FIDELITY_TOL = 1e-9
UNIFORM_TOL = 1e-9
UNIFORM_CHECK_EVERY = 10
STATE_QUDITS = 15  # 2**15 = 32768 amplitudes per round-trip state
CLI_PASS_TIMEOUT_S = 120.0


def op_seed(seed: int, op: int, stream: int) -> int:
    """Per-op seed for one random stream, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, op, stream]).generate_state(1)[0])


# (label, group, rep, r or None for min_r, expected r); m = STATE_QUDITS - r
CHANNELS = [
    ("z8", "z8", "builtin", None, 7),  # diagonal phases
    ("s3", "s3", "builtin-2d", 6, 6),  # dense 2x2 action
    ("k4", "k4", "builtin", None, 2),  # Pauli set, rate 13/15
]


class Roundtrip:
    """Per pass: one ``run_roundtrip`` through each channel, uniform over the group."""

    REFERENCE = "state"

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        self.contexts = []
        for _label, group_name, rep_spec, r, expect_r in CHANNELS:
            rep = reps.builtin_rep(groups.builtin_group(group_name), rep_spec, 2)
            context = codec.prepare_protocol(rep, r=r)
            if context.r != expect_r:
                raise AssertionError(f"{group_name}: r = {context.r}, expected {expect_r}")
            self.contexts.append((context, codec.uniform_channel(rep)))

    def op(self, i: int):
        parts, results = {}, []
        for k, (label, *_spec) in enumerate(CHANNELS):
            context, channel = self.contexts[k]
            seeds = dict(
                message_seed=op_seed(self.seed, i, 3 * k),
                channel_seed=op_seed(self.seed, i, 3 * k + 1),
                measure_seed=op_seed(self.seed, i, 3 * k + 2),
            )
            _label_part(self.tracer, label)
            start = _now()
            result = codec.run_roundtrip(
                context, channel, m=STATE_QUDITS - context.r, **seeds
            )
            parts[label] = _now() - start
            results.append((result, seeds))
        return sum(parts.values()), parts, results

    def check(self, i: int, out) -> None:
        for (label, *_spec), (context, channel), (result, seeds) in zip(
            CHANNELS, self.contexts, out
        ):
            report = result.report
            if not report.roundtrip_fidelity >= 1 - FIDELITY_TOL:
                raise AssertionError(f"{label}: fidelity {report.roundtrip_fidelity}")
            if not report.perp_probability <= FIDELITY_TOL:
                raise AssertionError(f"{label}: perp probability {report.perp_probability}")
            if i % UNIFORM_CHECK_EVERY == 0:
                # the outcome must not reveal the channel element: uniform over |G|
                received, _ = codec.transmit(channel, result.encoded, seeds["channel_seed"])
                probs = codec.decode_outcome_probabilities(context.tokens, received)
                spread = float(np.max(np.abs(probs[:-1] - 1.0 / context.group.order)))
                if spread > UNIFORM_TOL or probs[-1] > UNIFORM_TOL:
                    raise AssertionError(f"{label}: outcomes not uniform ({spread:.3e})")


# (label, group, rep, m, path, register network)
ENCODERS = [
    ("z8-cyclic-network", "z8", "builtin", 7, "cyclic", True),
    ("z8-general", "z8", "builtin", 3, "general", False),
    ("k4-abelian", "k4", "builtin", 6, "abelian", False),
    ("s3-general", "s3", "builtin-2d", 3, "general", False),
]


class Circuit:
    """Per pass: synthesize and simulate four encoders, then compare to ``encode``."""

    REFERENCE = "state"

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        self.tokens = []
        for _label, group_name, rep_spec, _m, _path, network in ENCODERS:
            rep = reps.builtin_rep(groups.builtin_group(group_name), rep_spec, 2)
            tokens = circuits.network_token_set(rep) if network else codec.prepare_protocol(rep).tokens
            self.tokens.append(tokens)

    def op(self, i: int):
        messages = [
            statevec.random_state(2, enc[3], np.random.default_rng(op_seed(self.seed, i, k)))
            for k, enc in enumerate(ENCODERS)
        ]
        parts, states = {}, []
        for enc, tokens, message in zip(ENCODERS, self.tokens, messages):
            label, _g, _r, m, path, network = enc
            _label_part(self.tracer, label)
            start = _now()
            pipeline = circuits.build_encoding_pipeline(tokens, m, path, cyclic_network=network)
            states.append(pipeline.run(message))
            parts[label] = _now() - start
        return sum(parts.values()), parts, (messages, states)

    def check(self, i: int, out) -> None:
        for enc, tokens, message, state in zip(ENCODERS, self.tokens, *out):
            fid = statevec.fidelity(state, codec.encode(tokens, message))
            if not fid >= 1 - FIDELITY_TOL:
                raise AssertionError(f"{enc[0]}: fidelity to direct encoding {fid}")


# README commands with a committed golden report (argv, golden file name)
GOLDEN_ARGVS = [
    (["group", "validate", "@{data}/z2_group.json"], "group_validate_z2.json"),
    (["group", "info", "--builtin", "s3"], "group_info_s3.json"),
    (["rep", "analyze", "z3", "builtin"], "rep_analyze_z3.json"),
    (["rep", "min-r", "s3", "builtin-2d"], "rep_min_r_s3.json"),
    (["roundtrip", "--group", "k4", "--m", "1", "--seed", "1"], "roundtrip_k4.json"),
    (["roundtrip", "--group", "z8", "--rep", "builtin", "--m", "2",
      "--dist", "uniform", "--seed", "7"], "roundtrip_z8.json"),
    (["circuit", "count", "--group", "k4", "--m", "3", "--path", "general"],
     "circuit_count_k4.json"),
    (["circuit", "count", "--group", "z8", "--m", "4", "--path", "all"],
     "circuit_count_z8.json"),
    (["circuit", "simulate", "--group", "z8", "--m", "2", "--path", "cyclic",
      "--network", "--verify", "--seed", "3"], "circuit_simulate_z8.json"),
    (["circuit", "simulate", "--group", "k4", "--m", "2", "--path", "general",
      "--verify", "--seed", "3"], "circuit_simulate_k4.json"),
    (["demo", "su2", "--trials", "50", "--seed", "11"], "demo_su2.json"),
]

# `tokens build` over the configuration matrix
MATRIX_ARGVS = (
    [["tokens", "build", "--group", f"z{n}"] for n in range(2, 9)]
    + [["tokens", "build", "--group", "k4"]]
    + [["tokens", "build", "--group", "s3", "--rep", "builtin-2d", "--r", str(r)]
       for r in range(3, 7)]
    + [["tokens", "build", "--group", "z3", "--dim", "3"],
       ["tokens", "build", "--group", "z5", "--dim", "5"],
       ["tokens", "build", "--group", "z4xz2", "--rep", "regular"]]
)


class CliCold:
    """Per pass: every argv through ``cli.main``, in one child forked per pass.

    The child starts after ``import dfscodec``, so interpreter start-up stays
    out of the pass time while nothing cached by one pass reaches the next.
    """

    REFERENCE = "cold"

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.child_trace = None  # per-layer aggregate merged from the children

    def setup(self) -> None:
        data = ROOT / "tests" / "data"
        golden = ROOT / "tests" / "golden"
        self.argvs = [[a.format(data=data) for a in argv] for argv, _ in GOLDEN_ARGVS]
        self.argvs += MATRIX_ARGVS
        self.expected = [(golden / name).read_bytes() for _, name in GOLDEN_ARGVS]
        self.first_matrix = None

    def _pass(self) -> dict:
        if self.tracer is not None:
            self.tracer.reset()
        outputs, codes, seconds = [], [], []
        for k, argv in enumerate(self.argvs):
            _label_part(self.tracer, "golden" if k < len(GOLDEN_ARGVS) else "matrix")
            buffer = io.StringIO()
            start = _now()
            with contextlib.redirect_stdout(buffer):
                codes.append(cli.main(list(argv)))
            seconds.append(_now() - start)
            outputs.append(buffer.getvalue())
        n_golden = len(GOLDEN_ARGVS)
        parts = {"golden": sum(seconds[:n_golden]), "matrix": sum(seconds[n_golden:])}
        payload = {"parts": parts, "codes": codes, "outputs": outputs}
        if self.tracer is not None:
            payload["trace"] = self.tracer.aggregate()
        return payload

    def op(self, i: int):
        payload = run_in_child(self._pass, CLI_PASS_TIMEOUT_S)
        trace = payload.pop("trace", None)
        if trace is not None and self.child_trace is not None:
            merge(self.child_trace, trace)
        elif trace is not None:
            self.child_trace = trace
        parts = payload.pop("parts")
        return sum(parts.values()), parts, payload

    def check(self, i: int, out) -> None:
        if any(code != 0 for code in out["codes"]):
            raise AssertionError(f"non-zero exit codes {out['codes']}")
        n_golden = len(self.expected)
        for (argv, name), got, want in zip(GOLDEN_ARGVS, out["outputs"], self.expected):
            if got.encode() != want:
                raise AssertionError(f"{' '.join(argv)}: stdout differs from {name}")
        matrix = out["outputs"][n_golden:]
        if self.first_matrix is None:
            self.first_matrix = matrix
        elif matrix != self.first_matrix:
            raise AssertionError("tokens build output differs from the first pass")


def _label_part(tracer, label: str) -> None:
    if tracer is not None:
        tracer.part = label


def make(name: str, seed: int, tracer=None):
    if name == "roundtrip":
        return Roundtrip(seed, tracer)
    if name == "circuit":
        return Circuit(seed, tracer)
    if name == "cli-cold":
        return CliCold(tracer)  # fixed argv list: the seed changes nothing
    raise ValueError(f"unknown workload {name!r}")
