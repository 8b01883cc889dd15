import json
import subprocess
import sys
from pathlib import Path

import pytest

from dfscodec.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

END_TO_END = [
    (
        ["group", "validate", f"@{DATA}/z2_group.json"],
        "group_validate_z2.json",
    ),
    (["group", "info", "--builtin", "s3"], "group_info_s3.json"),
    (["rep", "analyze", "z3", "builtin"], "rep_analyze_z3.json"),
    (["rep", "min-r", "s3", "builtin-2d"], "rep_min_r_s3.json"),
    (["roundtrip", "--group", "k4", "--m", "1", "--seed", "1"], "roundtrip_k4.json"),
    (
        ["roundtrip", "--group", "z8", "--rep", "builtin", "--m", "2",
         "--dist", "uniform", "--seed", "7"],
        "roundtrip_z8.json",
    ),
    (
        ["circuit", "count", "--group", "k4", "--m", "3", "--path", "general"],
        "circuit_count_k4.json",
    ),
    (
        ["circuit", "count", "--group", "z8", "--m", "4", "--path", "all"],
        "circuit_count_z8.json",
    ),
    (
        ["circuit", "simulate", "--group", "z8", "--m", "2", "--path", "cyclic",
         "--network", "--verify", "--seed", "3"],
        "circuit_simulate_z8.json",
    ),
    (
        ["circuit", "simulate", "--group", "k4", "--m", "2", "--path", "general",
         "--verify", "--seed", "3"],
        "circuit_simulate_k4.json",
    ),
    (["demo", "su2", "--trials", "50", "--seed", "11"], "demo_su2.json"),
]


@pytest.mark.parametrize("argv,golden", END_TO_END, ids=[g for _, g in END_TO_END])
def test_command_matches_golden_report(argv, golden, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv + ["--report", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_reports_byte_identical_across_runs(tmp_path, capsys):
    argv = ["roundtrip", "--group", "z3", "--m", "2", "--seed", "5"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--report", str(first)]) == 0
    assert main(argv + ["--report", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_stdout_equals_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["rep", "min-r", "z3", "builtin", "--report", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()


def test_tokens_build_dump_state(tmp_path, capsys):
    dump = tmp_path / "dump.json"
    assert main(["tokens", "build", "--group", "z3", "--dump-state", str(dump)]) == 0
    capsys.readouterr()
    payload = json.loads(dump.read_text())
    assert payload["fiducial"]["d"] == 2 and payload["fiducial"]["n"] == 2
    assert len(payload["tokens"]) == 3
    golden = json.loads((GOLDEN / "tokens_z3_dump.json").read_text())
    assert payload == golden


def test_bare_file_path_accepted(capsys):
    assert main(["group", "validate", f"{DATA}/z2_group.json"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_rep_file_loaded_for_custom_group(tmp_path, capsys):
    from dfscodec.reps import zn_phase_rep
    from dfscodec.groups import cyclic_group
    from dfscodec.serialization import canonical_json, rep_to_dict

    rep = zn_phase_rep(cyclic_group(3), 2)
    path = tmp_path / "rep.json"
    path.write_text(canonical_json(rep_to_dict(rep)))
    assert main(["rep", "min-r", "z3", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 2


def test_malformed_group_file_exits_3(capsys):
    code = main(["group", "validate", f"@{DATA}/bad_group.json"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in captured.err


def test_unknown_builtin_exits_3(capsys):
    assert main(["group", "info", "nosuchgroup"]) == 3
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["roundtrip", "--m", "1"])  # missing --group
    assert info.value.code == 2
    capsys.readouterr()


def test_group_info_without_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["group", "info"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error" in err


def test_env_seed_used_and_recorded(monkeypatch, capsys):
    monkeypatch.setenv("DFSCODEC_SEED", "4242")
    assert main(["roundtrip", "--group", "z2", "--m", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 4242


def test_default_seed_is_fixed_constant(capsys):
    assert main(["roundtrip", "--group", "z2", "--m", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 57180


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dfscodec.cli", "rep", "min-r", "z3", "builtin"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["r"] == 2


def test_custom_character_table_file(tmp_path, capsys):
    from dfscodec.groups import builtin_group
    from dfscodec.reps import builtin_character_table
    from dfscodec.serialization import canonical_json, character_table_to_dict

    table = builtin_character_table(builtin_group("s3"))
    path = tmp_path / "s3_table.json"
    path.write_text(canonical_json(character_table_to_dict(table)))
    assert main(["rep", "min-r", "s3", "builtin-2d", "--table", f"@{path}"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 3


def test_plan_export_gate_list(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main(
        ["circuit", "count", "--group", "k4", "--m", "3", "--path", "general",
         "--export-plan", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    plan = json.loads(out.read_text())
    assert plan["w"]["total_count"] == 20
    assert sum(g["cost"] for g in plan["w"]["gates"]) == 20


def test_protocol_violation_exits_4(monkeypatch, capsys):
    # build_parser binds command handlers by name, so patching the module
    # attribute routes the remainder-outcome error through the exit mapping
    import dfscodec.cli as cli
    from dfscodec.errors import PerpOutcome

    def explode(args):
        raise PerpOutcome("remainder outcome sampled")

    monkeypatch.setattr(cli, "cmd_roundtrip", explode)
    code = cli.main(["roundtrip", "--group", "z2", "--m", "1"])
    assert code == 4
    assert "protocol violation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec,rep", [("k4", "builtin"), ("s3", "builtin-2d"), ("z4", "builtin"),
                 ("z8", "builtin"), ("z4xz2", "regular"), ("z2xz2xz2", "regular")]
)
def test_group_file_gives_same_r_as_builtin_name(spec, rep, relabelled, tmp_path, capsys):
    from dfscodec.serialization import canonical_json, group_to_dict

    path = tmp_path / "e8.json"
    path.write_text(canonical_json(group_to_dict(relabelled(spec))))
    for argv in (["rep", "min-r", "{g}", rep],
                 ["tokens", "build", "--group", "{g}", "--rep", rep],
                 ["roundtrip", "--group", "{g}", "--rep", rep]):
        found = []
        for group in (spec, f"@{path}"):
            assert main([a.format(g=group) for a in argv]) == 0
            payload = json.loads(capsys.readouterr().out)
            found.append(payload["report"]["r"] if "report" in payload else payload["r"])
        assert found[0] == found[1], argv


def test_product_of_two_z2_runs_with_pauli_set(capsys):
    assert main(["roundtrip", "--group", "z2xz2", "--m", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 2 and payload["report"]["r"] == 2


def test_non_abelian_order_8_file_has_no_builtin_table(tmp_path, capsys):
    # dihedral group of the square: element 4j + k is s^j r^k
    cayley = [
        [4 * ((j1 + j2) % 2) + ((-1) ** j2 * k1 + k2) % 4
         for j2 in range(2) for k2 in range(4)]
        for j1 in range(2) for k1 in range(4)
    ]
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"order": 8, "cayley": cayley}))
    assert main(["roundtrip", "--group", f"@{path}", "--rep", "regular"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no built-in character table" in err


@pytest.mark.parametrize(
    "argv",
    [["roundtrip", "--group", "z8", "--r", "25"], ["roundtrip", "--group", "z8", "--m", "40"]],
)
def test_oversized_roundtrip_is_refused_before_allocating(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_memory_error_exits_3(monkeypatch, capsys):
    import dfscodec.cli as cli

    def explode(args):
        raise MemoryError("Unable to allocate 3.25 GiB")

    monkeypatch.setattr(cli, "cmd_roundtrip", explode)
    assert cli.main(["roundtrip", "--group", "z2", "--m", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "out of memory" in err


@pytest.mark.parametrize("path", ["general", "abelian", "cyclic"])
@pytest.mark.parametrize("m", ["0", "-2"])
def test_circuit_count_needs_a_message_qubit(path, m, capsys):
    assert main(["circuit", "count", "--group", "z8", "--m", m, "--path", path]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "message qubit" in err


@pytest.mark.parametrize("path,message", [("cyclic", "power-of-two order"),
                                          ("abelian", "not a power of two")])
def test_circuit_count_refuses_a_named_path_it_cannot_build(path, message, capsys):
    assert main(["circuit", "count", "--group", "z3", "--m", "1", "--path", path]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_circuit_count_all_skips_paths_that_do_not_apply(capsys):
    assert main(["circuit", "count", "--group", "z3", "--m", "1", "--path", "all"]) == 0
    assert list(json.loads(capsys.readouterr().out)["paths"]) == ["general"]
