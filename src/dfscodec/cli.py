"""Command-line front end.

Exit codes: 0 success, 2 usage, 3 validation failure or a size over the
dense budget, 4 protocol violation.
Every command prints a canonical JSON report to stdout (and optionally to a
file); identical configuration and seeds give byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import (
    build_encoding_pipeline,
    gate_count_report,
    network_token_set,
    synth_t_cyclic,
    synth_w,
)
from .codec import (
    distribution_channel,
    encode,
    fixed_channel,
    prepare_protocol,
    run_roundtrip,
    uniform_channel,
)
from .errors import DfsCodecError, PerpOutcome, UnknownBuiltin
from .groups import builtin_group, conjugacy_classes
from .limits import UNITARY_TOL
from .reps import (
    DEFAULT_R_MAX,
    builtin_character_table,
    builtin_rep,
    compound_character,
    integral_multiplicities,
    min_r,
    multiplicities,
    require_regular,
    require_regular_possible,
)
from .serialization import (
    canonical_json,
    complex_pairs,
    digest,
    group_to_dict,
    load_character_table_file,
    load_group_file,
    load_rep_file,
    plan_to_dict,
    state_to_dict,
    write_report,
)
from .statevec import fidelity, random_state
from .su2 import run_demo

DEFAULT_SEED = 57180

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_PROTOCOL = 4


def _resolve_seed(args) -> int:
    """``--seed``, else ``DFSCODEC_SEED``, else ``DEFAULT_SEED``.  A negative seed is
    refused up front: the run derives its generators' seeds from it, and numpy
    takes no negative one."""
    if args.seed is not None:
        name, seed = "--seed", args.seed
    else:
        name, env = "DFSCODEC_SEED", os.environ.get("DFSCODEC_SEED", str(DEFAULT_SEED))
        try:
            seed = int(env)
        except ValueError:
            raise DfsCodecError(f"DFSCODEC_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise DfsCodecError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def _resolve(spec: str, builtin, load):
    """``load(path)`` for ``@path``, else the builtin that ``spec`` names, else
    ``load(spec)`` for an existing file; ``builtin=None`` reads only files."""
    if spec.startswith("@"):
        return load(spec[1:])
    if builtin is not None:
        try:
            return builtin(spec)
        except UnknownBuiltin as exc:
            if not os.path.exists(spec):
                raise UnknownBuiltin(f"{exc}, and no such file exists") from None
    return load(spec)


def _load_inputs(args):
    """The group, rep and character table that ``args`` names; None for those it lacks."""
    group = _resolve(vars(args).get("builtin") or args.group, builtin_group, load_group_file)
    if "rep" not in args:
        return group, None, None
    rep = _resolve(
        args.rep, lambda spec: builtin_rep(group, spec, args.dim), partial(load_rep_file, group)
    )
    if "table" not in args:  # circuit simulate builds the builtin table if it needs one
        return group, rep, None
    if args.table is None:
        return group, rep, builtin_character_table(group)
    return group, rep, _resolve(args.table, None, partial(load_character_table_file, group))


def _emit(args, payload: dict, group=None, rep=None) -> None:
    """Print ``payload`` and write the same text to ``--report``, stamped with the
    digest of the group and rep it was computed from."""
    if group is not None:
        inputs = {"group": group_to_dict(group)}
        if rep is not None:
            inputs["rep"] = {"dim": rep.dim, "matrices": complex_pairs(rep.matrices)}
        payload["input_digest"] = digest(inputs)
    text = canonical_json(payload)
    sys.stdout.write(text)
    if args.report:
        Path(args.report).write_text(text)


def cmd_group_validate(args) -> int:
    group, _, _ = _load_inputs(args)
    payload = {
        "command": "group.validate",
        "valid": True,
        "order": group.order,
        "abelian": group.is_abelian,
    }
    _emit(args, payload, group)
    return EXIT_OK


def cmd_group_info(args) -> int:
    group, _, _ = _load_inputs(args)
    classes = conjugacy_classes(group)
    payload = {
        "command": "group.info",
        "name": group.name,
        "order": group.order,
        "abelian": group.is_abelian,
        "labels": list(group.labels),
        "num_classes": classes.s,
        "class_sizes": classes.class_sizes.tolist(),
        "classes": [list(c) for c in classes.classes],
    }
    _emit(args, payload, group)
    return EXIT_OK


def cmd_rep_analyze(args) -> int:
    group, rep, table = _load_inputs(args)
    chi = compound_character(rep, table.classes)
    mv = integral_multiplicities(rep, table)
    payload = {
        "command": "rep.analyze",
        "group": group.name,
        "dim": rep.dim,
        "projective": rep.projective,
        "compound_character": complex_pairs(chi),
        "irrep_dims": table.dims.tolist(),
        "multiplicities_power_1": list(mv.gammas) if mv.power == 1 else None,
    }
    if mv.power > 1:  # a projective rep: power 1 has no integer multiplicities
        payload["first_integral_power"] = mv.power
        payload["multiplicities_first_integral_power"] = list(mv.gammas)
    _emit(args, payload, group, rep)
    return EXIT_OK


def cmd_rep_min_r(args) -> int:
    group, rep, table = _load_inputs(args)
    payload = {
        "command": "rep.min_r",
        "group": group.name,
        "dim": rep.dim,
        "r": min_r(rep, table, args.r_max),
        "r_max": args.r_max,
    }
    _emit(args, payload, group, rep)
    return EXIT_OK


def cmd_tokens_build(args) -> int:
    group, rep, table = _load_inputs(args)
    context = prepare_protocol(rep, table, r=args.r)
    payload = {
        "command": "tokens.build",
        "group": group.name,
        "dim": rep.dim,
        "r": context.r,
        "gram_residue": context.tokens.gram_residue,
        "fiducial": state_to_dict(context.tokens.fiducial),
    }
    if args.dump_state:
        dump = {
            "fiducial": state_to_dict(context.tokens.fiducial),
            "tokens": [state_to_dict(t) for t in context.tokens.tokens],
        }
        write_report(args.dump_state, dump)
        payload["state_dump"] = args.dump_state
    _emit(args, payload, group, rep)
    return EXIT_OK


def _make_channel(rep, dist: str, seed: int):
    if dist == "uniform":
        return uniform_channel(rep)
    if dist.startswith("fixed:"):
        try:
            element = int(dist.split(":", 1)[1])
        except ValueError:
            raise DfsCodecError(
                f"--dist {dist!r} is not one of uniform, random or fixed:<element>"
            ) from None
        return fixed_channel(rep, element)
    if dist == "random":
        rng = np.random.default_rng(seed)
        raw = rng.random(rep.group.order) + 1e-3
        return distribution_channel(rep, raw / raw.sum())
    raise DfsCodecError(f"unknown distribution spec {dist!r}")


def cmd_roundtrip(args) -> int:
    group, rep, table = _load_inputs(args)
    seed = _resolve_seed(args)
    context = prepare_protocol(rep, table, r=args.r)
    channel = _make_channel(rep, args.dist, seed + 1)
    result = run_roundtrip(
        context,
        channel,
        m=args.m,
        message_seed=seed + 2,
        channel_seed=seed + 3,
        measure_seed=seed + 4,
    )
    payload = {
        "command": "roundtrip",
        "group": group.name,
        "dim": rep.dim,
        "distribution": args.dist,
        "seed": seed,
        "report": result.report.to_dict(),
    }
    _emit(args, payload, group, rep)
    return EXIT_OK


def cmd_circuit_count(args) -> int:
    group, rep, table = _load_inputs(args)
    # an explicit power must contain the regular representation, as in tokens build
    if args.r is None:
        r = min_r(rep, table)
    else:
        require_regular_possible(rep, table)
        r = require_regular(multiplicities(rep, table, args.r), table).power
    paths = ("general", "abelian", "cyclic") if args.path == "all" else (args.path,)
    payload = gate_count_report(group, rep, args.m, r, paths=paths)
    payload["command"] = "circuit.count"
    if args.export_plan:
        if args.path == "all":
            raise DfsCodecError("--export-plan needs a single --path")
        export = {"w": plan_to_dict(synth_w(args.path, group, rep, args.m))}
        if args.path == "cyclic":
            export["t"] = plan_to_dict(synth_t_cyclic(group.order))
        write_report(args.export_plan, export)
        payload["plan_export"] = args.export_plan
    _emit(args, payload, group, rep)
    return EXIT_OK


def cmd_circuit_simulate(args) -> int:
    group, rep, _ = _load_inputs(args)
    seed = _resolve_seed(args)
    if args.network and args.path != "cyclic":
        raise DfsCodecError(f"--network pairs with --path cyclic, got --path {args.path}")
    tokens = network_token_set(rep) if args.network else prepare_protocol(rep).tokens
    pipeline = build_encoding_pipeline(tokens, args.m, args.path, cyclic_network=args.network)
    rng = np.random.default_rng(seed)
    message = random_state(2, args.m, rng)
    circuit_state = pipeline.run(message)
    direct_state = encode(tokens, message)
    fid = fidelity(circuit_state, direct_state)
    payload = {
        "command": "circuit.simulate",
        "group": group.name,
        "path": args.path,
        "network_basis_change": args.network,
        "m": args.m,
        "seed": seed,
        "w_gate_count": pipeline.w_plan.total_count,
        "fidelity_vs_direct_encoding": fid,
    }
    _emit(args, payload, group, rep)
    if args.verify and fid < 1.0 - UNITARY_TOL:
        raise PerpOutcome(f"circuit/encoder fidelity {fid} below 1 - {UNITARY_TOL}")
    return EXIT_OK


def cmd_demo_su2(args) -> int:
    seed = _resolve_seed(args)
    payload = run_demo(args.trials, seed)
    payload["command"] = "demo.su2"
    _emit(args, payload)
    return EXIT_OK


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: only the commands that ``argv`` names get their arguments.

    argparse picks a command only by an exact match with one of ``argv``'s
    strings, so the command that runs is always complete, and only a command
    that ``argv`` names needs a ``-h`` action. The others keep the name and help
    that the root's usage and help text list. Each command list gets its
    ``prog``, which argparse would otherwise derive by formatting a usage line.
    """
    parser = argparse.ArgumentParser(
        prog="dfscodec",
        description="Token-state protection against collective noise from a finite group",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, prog="dfscodec")
    leaves = []

    def add(commands, name, summary):
        return commands.add_parser(name, help=summary, add_help=name in argv)

    def subcommands(command):
        return command.add_subparsers(dest="subcommand", required=True, prog=command.prog)

    def declare(command, func, inputs=None, table=True):
        """``command`` running ``func``, with its inputs: ``group`` and ``rep`` as
        positionals or as options, then ``--dim`` and ``--table``. Its own flags
        follow, and ``--report`` comes last."""
        command.set_defaults(func=func)
        if inputs == "positional":
            command.add_argument("group")
            command.add_argument("rep")
        elif inputs == "options":
            command.add_argument("--group", required=True)
            command.add_argument("--rep", default="builtin")
        if inputs:
            command.add_argument("--dim", type=int, default=2)
        if inputs and table:
            command.add_argument(
                "--table", help="@file with dims, chars and optional irrep matrices"
            )
        leaves.append(command)

    group_cmd = add(sub, "group", "group validation and structure")
    if "group" in argv:
        group_sub = subcommands(group_cmd)
        gv = add(group_sub, "validate", "check a group definition file")
        declare(gv, cmd_group_validate)
        gv.add_argument("group", help="@file.json or a builtin name")
        gi = add(group_sub, "info", "order, classes and labels")
        declare(gi, cmd_group_info)
        gi.add_argument("group", nargs="?", default=None)
        gi.add_argument("--builtin", help="builtin name, e.g. s3 or z8")

    rep_cmd = add(sub, "rep", "representation analysis")
    if "rep" in argv:
        rep_sub = subcommands(rep_cmd)
        ra = add(rep_sub, "analyze", "characters and irrep content")
        declare(ra, cmd_rep_analyze, "positional")
        rm = add(rep_sub, "min-r", "smallest power containing the regular rep")
        declare(rm, cmd_rep_min_r, "positional")
        rm.add_argument("--r-max", type=int, default=DEFAULT_R_MAX)

    tok_cmd = add(sub, "tokens", "token-state construction")
    if "tokens" in argv:
        tok_sub = subcommands(tok_cmd)
        tb = add(tok_sub, "build", "build and certify the token set")
        declare(tb, cmd_tokens_build, "options")
        tb.add_argument("--r", type=int, default=None)
        tb.add_argument("--dump-state", help="write fiducial and tokens to a JSON file")

    rt = add(sub, "roundtrip", "encode, transmit, decode")
    if "roundtrip" in argv:
        declare(rt, cmd_roundtrip, "options")
        rt.add_argument("--m", type=int, default=1)
        rt.add_argument("--r", type=int, default=None)
        rt.add_argument("--dist", default="uniform", help="uniform | fixed:<k> | random")
        rt.add_argument("--seed", type=int, default=None)

    circ_cmd = add(sub, "circuit", "gate synthesis and verification")
    if "circuit" in argv:
        circ_sub = subcommands(circ_cmd)
        cc = add(circ_sub, "count", "gate counts per synthesis path")
        declare(cc, cmd_circuit_count, "options")
        cc.add_argument("--m", type=int, default=1)
        cc.add_argument("--r", type=int, default=None)
        cc.add_argument("--path", default="all", choices=["all", "general", "abelian", "cyclic"])
        cc.add_argument("--export-plan", help="write the emitted gate list to a JSON file")
        cs = add(circ_sub, "simulate", "simulate a synthesized encoder")
        declare(cs, cmd_circuit_simulate, "options", table=False)
        cs.add_argument("--m", type=int, default=1)
        cs.add_argument("--path", default="general", choices=["general", "abelian", "cyclic"])
        cs.add_argument("--network", action="store_true",
                        help="use the Fourier + CNOT basis change (cyclic path)")
        cs.add_argument("--verify", action="store_true")
        cs.add_argument("--seed", type=int, default=None)

    demo_cmd = add(sub, "demo", "worked demonstrations")
    if "demo" in argv:
        demo_sub = subcommands(demo_cmd)
        ds = add(demo_sub, "su2", "three-qubit collective-rotation check")
        declare(ds, cmd_demo_su2)
        ds.add_argument("--trials", type=int, default=50)
        ds.add_argument("--seed", type=int, default=None)

    for command in leaves:
        command.add_argument("--report")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if args.func is cmd_group_info and args.group is None and not args.builtin:
        parser.exit(EXIT_USAGE, "dfscodec group info: error: give a group or --builtin\n")
    try:
        return args.func(args)
    except PerpOutcome as exc:
        sys.stderr.write(f"protocol violation: {exc}\n")
        return EXIT_PROTOCOL
    except (DfsCodecError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except MemoryError as exc:
        # backstop for an allocation no budget in dfscodec.limits foresaw
        sys.stderr.write(f"error: out of memory: {str(exc) or type(exc).__name__}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
