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

import numpy as np

from . import __version__
from .circuits import (
    build_encoding_pipeline,
    check_token_basis_change,
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
from .errors import DfsCodecError, PerpOutcome
from .groups import builtin_group, conjugacy_classes
from .limits import UNITARY_TOL
from .reps import (
    DEFAULT_R_MAX,
    builtin_character_table,
    builtin_rep,
    compound_character,
    min_r,
    multiplicities,
    require_regular,
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
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("DFSCODEC_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _load_group(spec: str):
    if spec.startswith("@"):
        return load_group_file(spec[1:])
    try:
        return builtin_group(spec)
    except DfsCodecError:
        if os.path.exists(spec):
            return load_group_file(spec)
        raise


def _load_rep(group, spec: str, dim: int):
    if spec.startswith("@"):
        return load_rep_file(group, spec[1:])
    try:
        return builtin_rep(group, spec, dim)
    except ValueError:
        if os.path.exists(spec):
            return load_rep_file(group, spec)
        raise


def _load_table(group, spec):
    if spec is None:
        return builtin_character_table(group)
    return load_character_table_file(group, spec.lstrip("@"))


def _emit(args, payload: dict) -> None:
    text = canonical_json(payload)
    sys.stdout.write(text)
    report_path = getattr(args, "report", None)
    if report_path:
        write_report(report_path, payload)


def _input_digest(group, rep=None) -> str:
    payload = {"group": group_to_dict(group)}
    if rep is not None:
        payload["rep"] = {"dim": rep.dim, "matrices": complex_pairs(rep.matrices)}
    return digest(payload)


def cmd_group_validate(args) -> int:
    group = _load_group(args.group)
    _emit(
        args,
        {
            "command": "group.validate",
            "valid": True,
            "order": group.order,
            "abelian": group.is_abelian,
            "input_digest": _input_digest(group),
        },
    )
    return EXIT_OK


def cmd_group_info(args) -> int:
    group = _load_group(args.builtin or args.group)
    classes = conjugacy_classes(group)
    _emit(
        args,
        {
            "command": "group.info",
            "name": group.name,
            "order": group.order,
            "abelian": group.is_abelian,
            "labels": list(group.labels),
            "num_classes": classes.s,
            "class_sizes": classes.class_sizes.tolist(),
            "classes": [list(c) for c in classes.classes],
            "input_digest": _input_digest(group),
        },
    )
    return EXIT_OK


def cmd_rep_analyze(args) -> int:
    group = _load_group(args.group)
    rep = _load_rep(group, args.rep, args.dim)
    table = _load_table(group, args.table)
    chi = compound_character(rep, table.classes)
    mv = multiplicities(rep, table, 1)
    _emit(
        args,
        {
            "command": "rep.analyze",
            "group": group.name,
            "dim": rep.dim,
            "projective": rep.projective,
            "compound_character": complex_pairs(chi),
            "irrep_dims": table.dims.tolist(),
            "multiplicities_power_1": list(mv.gammas),
            "input_digest": _input_digest(group, rep),
        },
    )
    return EXIT_OK


def cmd_rep_min_r(args) -> int:
    group = _load_group(args.group)
    rep = _load_rep(group, args.rep, args.dim)
    table = _load_table(group, args.table)
    r = min_r(rep, table, args.r_max)
    _emit(
        args,
        {
            "command": "rep.min_r",
            "group": group.name,
            "dim": rep.dim,
            "r": r,
            "r_max": args.r_max,
            "input_digest": _input_digest(group, rep),
        },
    )
    return EXIT_OK


def cmd_tokens_build(args) -> int:
    group = _load_group(args.group)
    rep = _load_rep(group, args.rep, args.dim)
    context = prepare_protocol(rep, _load_table(group, args.table), r=args.r)
    payload = {
        "command": "tokens.build",
        "group": group.name,
        "dim": rep.dim,
        "r": context.r,
        "gram_residue": context.tokens.gram_residue,
        "fiducial": state_to_dict(context.tokens.fiducial),
        "input_digest": _input_digest(group, rep),
    }
    if args.dump_state:
        dump = {
            "fiducial": state_to_dict(context.tokens.fiducial),
            "tokens": [state_to_dict(t) for t in context.tokens.tokens],
        }
        write_report(args.dump_state, dump)
        payload["state_dump"] = args.dump_state
    _emit(args, payload)
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
    group = _load_group(args.group)
    rep = _load_rep(group, args.rep, args.dim)
    seed = _resolve_seed(args)
    context = prepare_protocol(rep, _load_table(group, args.table), r=args.r)
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
        "input_digest": _input_digest(group, rep),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_circuit_count(args) -> int:
    group = _load_group(args.group)
    rep = _load_rep(group, args.rep, args.dim)
    table = _load_table(group, args.table)
    # an explicit power must contain the regular representation, as in tokens build
    if args.r is None:
        r = min_r(rep, table)
    else:
        r = require_regular(multiplicities(rep, table, args.r), table).power
    paths = ("general", "abelian", "cyclic") if args.path == "all" else (args.path,)
    payload = gate_count_report(group, rep, args.m, r, paths=paths)
    payload["command"] = "circuit.count"
    payload["input_digest"] = _input_digest(group, rep)
    if args.export_plan:
        if args.path == "all":
            raise DfsCodecError("--export-plan needs a single --path")
        export = {"w": plan_to_dict(synth_w(args.path, group, rep, args.m))}
        if args.path == "cyclic":
            export["t"] = plan_to_dict(synth_t_cyclic(group.order))
        write_report(args.export_plan, export)
        payload["plan_export"] = args.export_plan
    _emit(args, payload)
    return EXIT_OK


def cmd_circuit_simulate(args) -> int:
    group = _load_group(args.group)
    rep = _load_rep(group, args.rep, args.dim)
    seed = _resolve_seed(args)
    if args.network and args.path != "cyclic":
        raise DfsCodecError(f"--network pairs with --path cyclic, got --path {args.path}")
    if args.network:
        tokens = network_token_set(rep)
    else:
        # the dense basis change is refused from r alone, before the tokens are prepared
        table = builtin_character_table(group)
        r = min_r(rep, table)
        check_token_basis_change(rep.dim, r)
        tokens = prepare_protocol(rep, table, r=r).tokens
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
        "input_digest": _input_digest(group, rep),
    }
    _emit(args, payload)
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
    strings, so the command that runs is always complete. The others keep the
    name and help that the root's usage and help text list.
    """
    parser = argparse.ArgumentParser(
        prog="dfscodec",
        description="Token-state protection against collective noise from a finite group",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    group_cmd = sub.add_parser("group", help="group validation and structure")
    if "group" in argv:
        group_sub = group_cmd.add_subparsers(dest="subcommand", required=True)
        gv = group_sub.add_parser("validate", help="check a group definition file")
        gv.add_argument("group", help="@file.json or a builtin name")
        gv.add_argument("--report")
        gv.set_defaults(func=cmd_group_validate)
        gi = group_sub.add_parser("info", help="order, classes and labels")
        gi.add_argument("group", nargs="?", default=None)
        gi.add_argument("--builtin", help="builtin name, e.g. s3 or z8")
        gi.add_argument("--report")
        gi.set_defaults(func=cmd_group_info)

    rep_cmd = sub.add_parser("rep", help="representation analysis")
    if "rep" in argv:
        rep_sub = rep_cmd.add_subparsers(dest="subcommand", required=True)
        ra = rep_sub.add_parser("analyze", help="characters and irrep content")
        ra.add_argument("group")
        ra.add_argument("rep")
        ra.add_argument("--dim", type=int, default=2)
        ra.add_argument("--table", default=None, help="@file with dims, chars and optional irrep matrices")
        ra.add_argument("--report")
        ra.set_defaults(func=cmd_rep_analyze)
        rm = rep_sub.add_parser("min-r", help="smallest power containing the regular rep")
        rm.add_argument("group")
        rm.add_argument("rep")
        rm.add_argument("--dim", type=int, default=2)
        rm.add_argument("--table", default=None, help="@file with dims, chars and optional irrep matrices")
        rm.add_argument("--r-max", type=int, default=DEFAULT_R_MAX)
        rm.add_argument("--report")
        rm.set_defaults(func=cmd_rep_min_r)

    tok_cmd = sub.add_parser("tokens", help="token-state construction")
    if "tokens" in argv:
        tok_sub = tok_cmd.add_subparsers(dest="subcommand", required=True)
        tb = tok_sub.add_parser("build", help="build and certify the token set")
        tb.add_argument("--group", required=True)
        tb.add_argument("--rep", default="builtin")
        tb.add_argument("--dim", type=int, default=2)
        tb.add_argument("--table", default=None, help="@file with dims, chars and optional irrep matrices")
        tb.add_argument("--r", type=int, default=None)
        tb.add_argument("--dump-state", help="write fiducial and tokens to a JSON file")
        tb.add_argument("--report")
        tb.set_defaults(func=cmd_tokens_build)

    rt = sub.add_parser("roundtrip", help="encode, transmit, decode")
    if "roundtrip" in argv:
        rt.add_argument("--group", required=True)
        rt.add_argument("--rep", default="builtin")
        rt.add_argument("--dim", type=int, default=2)
        rt.add_argument("--table", default=None, help="@file with dims, chars and optional irrep matrices")
        rt.add_argument("--m", type=int, default=1)
        rt.add_argument("--r", type=int, default=None)
        rt.add_argument("--dist", default="uniform", help="uniform | fixed:<k> | random")
        rt.add_argument("--seed", type=int, default=None)
        rt.add_argument("--report")
        rt.set_defaults(func=cmd_roundtrip)

    circ_cmd = sub.add_parser("circuit", help="gate synthesis and verification")
    if "circuit" in argv:
        circ_sub = circ_cmd.add_subparsers(dest="subcommand", required=True)
        cc = circ_sub.add_parser("count", help="gate counts per synthesis path")
        cc.add_argument("--group", required=True)
        cc.add_argument("--rep", default="builtin")
        cc.add_argument("--dim", type=int, default=2)
        cc.add_argument("--table", default=None, help="@file with dims, chars and optional irrep matrices")
        cc.add_argument("--m", type=int, default=1)
        cc.add_argument("--r", type=int, default=None)
        cc.add_argument("--path", default="all", choices=["all", "general", "abelian", "cyclic"])
        cc.add_argument("--export-plan", help="write the emitted gate list to a JSON file")
        cc.add_argument("--report")
        cc.set_defaults(func=cmd_circuit_count)
        cs = circ_sub.add_parser("simulate", help="simulate a synthesized encoder")
        cs.add_argument("--group", required=True)
        cs.add_argument("--rep", default="builtin")
        cs.add_argument("--dim", type=int, default=2)
        cs.add_argument("--m", type=int, default=1)
        cs.add_argument("--path", default="general", choices=["general", "abelian", "cyclic"])
        cs.add_argument("--network", action="store_true",
                        help="use the Fourier + CNOT basis change (cyclic path)")
        cs.add_argument("--verify", action="store_true")
        cs.add_argument("--seed", type=int, default=None)
        cs.add_argument("--report")
        cs.set_defaults(func=cmd_circuit_simulate)

    demo_cmd = sub.add_parser("demo", help="worked demonstrations")
    if "demo" in argv:
        demo_sub = demo_cmd.add_subparsers(dest="subcommand", required=True)
        ds = demo_sub.add_parser("su2", help="three-qubit collective-rotation check")
        ds.add_argument("--trials", type=int, default=50)
        ds.add_argument("--seed", type=int, default=None)
        ds.add_argument("--report")
        ds.set_defaults(func=cmd_demo_su2)

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
