import json
import subprocess
import sys
from pathlib import Path

import pytest

import dfscodec.cli as cli
import dfscodec.serialization as serialization
from dfscodec.cli import main
from dfscodec.serialization import canonical_json

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


def test_stdout_equals_report_file(tmp_path, monkeypatch, capsys):
    # the report is encoded once (the digest's inputs hold no "command"), and the
    # same text goes to stdout and the file
    encoded = []

    def counting(payload):
        if "command" in payload:
            encoded.append(payload["command"])
        return canonical_json(payload)

    monkeypatch.setattr(cli, "canonical_json", counting)
    monkeypatch.setattr(serialization, "canonical_json", counting)
    for argv in (["rep", "min-r", "z3", "builtin"], ["tokens", "build", "--group", "z3"],
                 ["demo", "su2", "--trials", "3", "--seed", "2"]):
        out = tmp_path / "report.json"
        encoded.clear()
        assert main(argv + ["--report", str(out)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        assert len(encoded) == 1


def test_tokens_build_dump_state(tmp_path, capsys):
    dump = tmp_path / "dump.json"
    assert main(["tokens", "build", "--group", "z3", "--dump-state", str(dump)]) == 0
    capsys.readouterr()
    payload = json.loads(dump.read_text())
    assert payload["fiducial"]["d"] == 2 and payload["fiducial"]["n"] == 2
    assert len(payload["tokens"]) == 3
    golden = json.loads((GOLDEN / "tokens_z3_dump.json").read_text())
    assert payload == golden


def test_tokens_build_matches_golden_report_and_dump(tmp_path, monkeypatch, capsys):
    # the report embeds the dump's relative path, so run where that path resolves
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tests" / "golden").mkdir(parents=True)
    dump = "tests/golden/tokens_z3_dump.json"
    assert main(["tokens", "build", "--group", "z3", "--dump-state", dump]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "tokens_build_z3.json").read_bytes()
    assert (tmp_path / dump).read_bytes() == (GOLDEN / "tokens_z3_dump.json").read_bytes()


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


def test_a_table_spec_is_a_file_with_one_optional_at(tmp_path, monkeypatch, capsys):
    from dfscodec.groups import builtin_group
    from dfscodec.reps import builtin_character_table
    from dfscodec.serialization import canonical_json, character_table_to_dict

    table = canonical_json(character_table_to_dict(builtin_character_table(builtin_group("z2"))))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.json").write_text(table)
    (tmp_path / "@z2").write_text(table)  # and no file z2: "@@z2" names "@z2"
    for spec in ("table.json", "@table.json", "@@z2"):
        assert main(["rep", "min-r", "z2", "builtin", "--table", spec]) == 0
        assert json.loads(capsys.readouterr().out)["r"] == 1
    assert main(["rep", "min-r", "z2", "builtin", "--table", "@nonexist.json"]) == 3
    assert "No such file or directory: 'nonexist.json'" in capsys.readouterr().err


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


def test_malformed_env_seed_names_the_variable(monkeypatch, capsys):
    monkeypatch.setenv("DFSCODEC_SEED", "x")
    assert main(["roundtrip", "--group", "z2"]) == 3
    assert capsys.readouterr().err == "error: DFSCODEC_SEED must be an integer, got 'x'\n"


@pytest.mark.parametrize("argv", [["roundtrip", "--group", "z2"], ["demo", "su2", "--trials", "1"]])
def test_negative_env_seed_names_the_variable(argv, monkeypatch, capsys):
    monkeypatch.setenv("DFSCODEC_SEED", "-9")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: DFSCODEC_SEED must be a non-negative integer, got -9\n"
    assert captured.out == ""


def test_seed_zero_runs(capsys):
    assert main(["roundtrip", "--group", "z8", "--seed", "0", "--dist", "random"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


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


@pytest.mark.parametrize(
    "group,path", [("z8", "cyclic"), ("z8", "abelian"), ("k4", "abelian")]
)
def test_plan_export_matches_golden(group, path, tmp_path, capsys):
    out = tmp_path / "plan.json"
    argv = ["circuit", "count", "--group", group, "--m", "2", "--path", path,
            "--export-plan", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"plan_export_{group}_{path}.json").read_bytes()


def test_an_export_over_the_budget_is_refused_before_a_gate_is_made(tmp_path, monkeypatch,
                                                                     capsys):
    import dfscodec.circuits as circuits

    monkeypatch.setattr(circuits, "Gate", lambda *a, **k: pytest.fail("a gate was made"))
    out = tmp_path / "plan.json"
    # z16's general W at m = 1.1e6: 16 blocks of m target gates, 64 X flips, 32 chain markers
    argv = ["circuit", "count", "--group", "z16", "--m", "1100000", "--path", "general",
            "--export-plan", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the gate list of W: 17600096 entries, over the budget 2^24\n"
    assert not out.exists()


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


def test_bare_memory_error_names_its_type(monkeypatch, capsys):
    import dfscodec.cli as cli

    def explode(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_roundtrip", explode)
    assert cli.main(["roundtrip", "--group", "z2", "--m", "1"]) == 3
    assert capsys.readouterr().err == "error: out of memory: MemoryError\n"


def test_oversized_dense_basis_change_exits_3(capsys):
    # z21's basis change, the 2^20 x 21 token columns, is over the budget: the tokens
    # are refused before they are built
    assert main(["circuit", "simulate", "--group", "z21", "--path", "general"]) == 3
    assert capsys.readouterr().err == (
        "error: 21 tokens of 2**20 amplitudes: 22020096 entries, over the budget 2^24\n"
    )


@pytest.mark.parametrize(
    "argv,line",
    [
        (["roundtrip", "--group", "z4", "--dim", "0"],
         "representation matrices must be at least 1x1, got 0x0"),
        (["circuit", "simulate", "--group", "z1", "--path", "cyclic", "--network"],
         "register network needs a group of order at least 2, got 1"),
        (["circuit", "count", "--group", "z1", "--m", "1", "--path", "cyclic",
          "--export-plan", "{tmp}/z1-plan.json"],
         "register network needs a group of order at least 2, got 1"),
    ],
)
def test_degenerate_sizes_exit_3_with_a_named_line(argv, line, tmp_path, capsys):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 3
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.iterdir())  # refused before any report is written


@pytest.mark.parametrize("group,path", [("z14", "general"), ("z16", "cyclic")])
def test_a_basis_change_past_the_square_budget_runs(group, path, capsys):
    # T is the token columns, 2^13 x 14 and 2^15 x 16, where a square completion
    # would be 2^26 and 2^30 entries, over the budget
    assert main(["circuit", "simulate", "--group", group, "--path", path, "--verify"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["fidelity_vs_direct_encoding"] >= 1 - 1e-9


@pytest.mark.parametrize("path", ["general", "abelian"])
def test_network_off_the_cyclic_path_is_refused_before_the_tokens(path, monkeypatch, capsys):
    import dfscodec.codec as codec

    monkeypatch.setattr(codec, "build_tokens", lambda *args: pytest.fail("tokens built"))
    assert main(["circuit", "simulate", "--group", "z4", "--path", path, "--network"]) == 3
    assert capsys.readouterr().err == f"error: --network pairs with --path cyclic, got --path {path}\n"


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


def test_rep_analyze_names_the_projective_power(capsys):
    # the Pauli set is the default rep of both: power 1 is not a linear representation,
    # power 2 holds every irrep once
    for group in ("k4", "z2xz2"):
        assert main(["rep", "analyze", group, "builtin"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["projective"] is True and payload["multiplicities_power_1"] is None
        assert payload["first_integral_power"] == 2
        assert payload["multiplicities_first_integral_power"] == [1, 1, 1, 1]


def test_z32_gets_its_exact_r(capsys):
    assert main(["rep", "min-r", "z32", "builtin"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 31
    assert main(["circuit", "count", "--group", "z32", "--m", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 31
    # r = 31 is exact, so the refusal names the token budget, not the r cap
    assert main(["roundtrip", "--group", "z32", "--m", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "over the budget" in err and "r_max" not in err


def test_circuit_count_all_skips_paths_that_do_not_apply(capsys):
    assert main(["circuit", "count", "--group", "z3", "--m", "1", "--path", "all"]) == 0
    assert list(json.loads(capsys.readouterr().out)["paths"]) == ["general"]


@pytest.mark.parametrize(
    "argv,line",
    [
        (["circuit", "count", "--group", "z4", "--r", "-1"], "tensor power must be >= 1"),
        (["circuit", "count", "--group", "z4", "--r", "0"], "tensor power must be >= 1"),
        (["circuit", "count", "--group", "z4", "--r", "2"],
         "irrep 3 appears 0 times, needs >= 1; increase the tensor power"),
        (["circuit", "simulate", "--group", "z2xz2", "--path", "cyclic", "--network"],
         "network tokens are defined for qubit cyclic groups of power-of-two order"),
        (["demo", "su2", "--trials", "0"], "need at least one trial, got 0"),
        (["demo", "su2", "--trials", "-1"], "need at least one trial, got -1"),
        (["roundtrip", "--group", "z4", "--dist", "fixed:x"],
         "--dist 'fixed:x' is not one of uniform, random or fixed:<element>"),
        (["roundtrip", "--group", "z4", "--dist", "fixed:"],
         "--dist 'fixed:' is not one of uniform, random or fixed:<element>"),
        (["roundtrip", "--group", "z4", "--dist", "fixed:9"], "fixed element 9 out of range"),
        (["roundtrip", "--group", "z4", "--dist", "bogus"], "unknown distribution spec 'bogus'"),
        # the file's JSON NaN literal: no RuntimeWarning, and not blamed on the table
        (["rep", "analyze", "z2", f"@{DATA}/nan_rep_z2.json"], "matrix 1 has a non-finite entry"),
        (["tokens", "build", "--group", "z2", "--rep", f"@{DATA}/nan_rep_z2.json"],
         "matrix 1 has a non-finite entry"),
        # |1e200|^2 overflows in the unitarity product: no RuntimeWarning, one line
        (["rep", "analyze", "z2", f"@{DATA}/huge_rep_z2.json"],
         "matrix 1 is not unitary (residue inf)"),
        # a character at -1e200 overflows the Gram product: no RuntimeWarning, one line
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/huge_table_z2.json"],
         "characters violate the orthogonality relation"),
        (["circuit", "simulate", "--group", "z8", "--m", "2", "--path", "general", "--network",
          "--verify", "--seed", "3"],
         "--network pairs with --path cyclic, got --path general"),
        # malformed input files: a missing key or a file that holds no JSON object
        (["rep", "analyze", "z2", f"@{DATA}/rep_without_matrices_z2.json"],
         f"{DATA}/rep_without_matrices_z2.json has no 'matrices' entry"),
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_without_chars_z2.json"],
         f"{DATA}/table_without_chars_z2.json has no 'chars' entry"),
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_without_dims_z2.json"],
         f"{DATA}/table_without_dims_z2.json has no 'dims' entry"),
        (["rep", "analyze", "z2", f"@{DATA}/rep_array_z2.json"],
         f"{DATA}/rep_array_z2.json is not a JSON object"),
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_array_z2.json"],
         f"{DATA}/table_array_z2.json is not a JSON object"),
        # the declared order is the string '2', which equals no table size
        (["group", "validate", f"@{DATA}/group_string_order.json"],
         "declared order '2' != table size 2"),
        # a Cayley entry that is no JSON integer within int64, named before numpy reads it:
        # these raised TypeError, OverflowError or a cast warning
        (["group", "validate", f"@{DATA}/group_null_cayley.json"],
         "'cayley' entry [1][1] must be an integer within int64, got None"),
        (["group", "validate", f"@{DATA}/group_string_cayley.json"],
         "'cayley' entry [1][1] must be an integer within int64, got 'a'"),
        (["group", "validate", f"@{DATA}/group_float_cayley.json"],
         "'cayley' entry [1][1] must be an integer within int64, got 1e+200"),
        (["group", "validate", f"@{DATA}/group_huge_cayley.json"],
         "'cayley' entry [1][1] must be an integer within int64, got -1180591620717411303424"),
        # neither a builtin nor a file: the whole spec is quoted, not its fragment before an x
        (["group", "validate", f"{DATA}/nonexist.json"],
         f"unknown builtin group '{DATA}/nonexist.json' (expected z<N>, k4, s3 or a product), "
         "and no such file exists"),
        (["rep", "analyze", "z2", f"{DATA}/nonexist.json"],
         f"no built-in representation '{DATA}/nonexist.json' for group z2, "
         "and no such file exists"),
        # entries of the wrong JSON type: a string or number for a boolean or an array
        (["rep", "analyze", "z2", f"@{DATA}/rep_string_projective_z2.json"],
         "'projective' must be true or false, got 'false'"),
        (["rep", "analyze", "z2", f"@{DATA}/rep_int_projective_z2.json"],
         "'projective' must be true or false, got 1"),
        (["group", "info", f"@{DATA}/group_string_labels.json"],
         "'labels' must be an array, got 'ea'"),
        (["group", "info", f"@{DATA}/group_int_labels.json"], "'labels' must be an array, got 5"),
        (["rep", "analyze", "z2", f"@{DATA}/rep_int_matrices_z2.json"],
         "'matrices' must be an array, got 5"),
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_int_chars_z2.json"],
         "'chars' must be an array, got 5"),
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_int_irreps_z2.json"],
         "'irrep_matrices' must be an array, got 3"),
        # an entry of the right JSON type holding the wrong thing: an object for a
        # [re, im] pair, a string for the dimensions
        (["rep", "analyze", "z2", f"@{DATA}/rep_object_matrices_z2.json"],
         "'matrices' must be nested arrays of [re, im] number pairs"),
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_string_dims_z2.json"],
         "'dims' must be an array, got 'ab'"),
        # dimensions that int64 would truncate or misread, and one irrep matrix block
        # too many or too few
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_fractional_dims_z2.json"],
         "'dims' entries must be whole numbers from 1 to 2, got [1.5, 1]"),
        (["rep", "analyze", "z2", "builtin", "--table",
          f"@{DATA}/table_string_entries_dims_z2.json"],
         "'dims' entries must be whole numbers from 1 to 2, got ['a', 'b']"),
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_extra_irreps_z2.json"],
         "expected 2 irrep matrix blocks, one per irrep, got 3"),
        (["rep", "analyze", "z2", "builtin", "--table", f"@{DATA}/table_missing_irreps_z2.json"],
         "expected 2 irrep matrix blocks, one per irrep, got 1"),
        # orthonormal characters with chi_1(e) = -1: no power would contain irrep 1 d_1 times
        (["rep", "min-r", "z2", "builtin", "--table", f"@{DATA}/table_wrong_identity_z2.json"],
         "irrep 1: chi(e) = (-1+0j) != dimension 1"),
        (["tokens", "build", "--group", "z2", "--table", f"@{DATA}/table_wrong_identity_z2.json"],
         "irrep 1: chi(e) = (-1+0j) != dimension 1"),
        # U_k = diag(1, (-1)^k) is not faithful and U_k = i^k I is scalar: no power works,
        # so an explicit --r gets min_r's refusals
        (["tokens", "build", "--group", "z4", "--rep", f"@{DATA}/z4_unfaithful_rep.json"],
         "two elements share a matrix; the token construction needs all |G|"),
        (["tokens", "build", "--group", "z4", "--rep", f"@{DATA}/z4_unfaithful_rep.json",
          "--r", "3"], "two elements share a matrix; the token construction needs all |G|"),
        (["circuit", "count", "--group", "z4", "--rep", f"@{DATA}/z4_unfaithful_rep.json",
          "--r", "3"], "two elements share a matrix; the token construction needs all |G|"),
        (["tokens", "build", "--group", "z4", "--rep", f"@{DATA}/z4_scalar_rep.json",
          "--r", "3"], "element 1 acts as a scalar; no power has every irrep"),
        (["circuit", "count", "--group", "z4", "--rep", f"@{DATA}/z4_scalar_rep.json",
          "--r", "3"], "element 1 acts as a scalar; no power has every irrep"),
        # a negative seed, refused before any generator is seeded from it: -2 used to
        # run unless --dist random seeded -1, and -3 failed on the message seed
        (["roundtrip", "--group", "z8", "--seed", "-2"],
         "--seed must be a non-negative integer, got -2"),
        (["roundtrip", "--group", "z8", "--seed", "-2", "--dist", "random"],
         "--seed must be a non-negative integer, got -2"),
        (["roundtrip", "--group", "z8", "--seed", "-3"],
         "--seed must be a non-negative integer, got -3"),
        (["demo", "su2", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        (["circuit", "simulate", "--group", "z2", "--m", "1", "--path", "general",
          "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
    ],
    ids=["count-r-1", "count-r0", "count-r2", "network-z2xz2", "su2-trials0", "su2-trials-1",
         "dist-fixed-x", "dist-fixed-empty", "dist-fixed-9", "dist-bogus", "analyze-nan-rep",
         "tokens-nan-rep", "analyze-huge-rep", "analyze-huge-table", "network-general",
         "rep-without-matrices", "table-without-chars", "table-without-dims", "rep-array",
         "table-array", "group-string-order",
         "group-null-cayley", "group-string-cayley", "group-float-cayley", "group-huge-cayley",
         "group-neither-builtin-nor-file", "rep-neither-builtin-nor-file",
         "rep-string-projective", "rep-int-projective", "group-string-labels",
         "group-int-labels", "rep-int-matrices", "table-int-chars", "table-int-irreps",
         "rep-object-matrices", "table-string-dims", "table-fractional-dims",
         "table-string-entries-dims", "table-extra-irreps", "table-missing-irreps",
         "min-r-wrong-identity", "tokens-wrong-identity", "tokens-unfaithful",
         "tokens-unfaithful-r3", "count-unfaithful-r3", "tokens-scalar-r3", "count-scalar-r3",
         "roundtrip-seed-2", "roundtrip-random-seed-2", "roundtrip-seed-3", "su2-seed-1",
         "simulate-seed-1"],
)
def test_bad_inputs_exit_3_with_a_named_line(argv, line, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("case", ["phase3", "relabelled"])
def test_network_takes_its_generator_from_the_rep(case, tmp_path, capsys):
    # the lowest-index generator of each group has U = diag(1, w^3): in z8 with
    # U_k = diag(1, w^(3k)), and in z8 listed as [0, 3, 2, 1, 4, 7, 6, 5] with the
    # builtin matrices in that order; the network runs on the element with U = diag(1, w)
    import numpy as np

    from dfscodec.groups import builtin_group
    from dfscodec.reps import builtin_rep
    from dfscodec.serialization import complex_pairs, group_to_dict

    group, rep = "z8", f"@{DATA}/z8_phase3_rep.json"
    if case == "relabelled":
        z8, order = builtin_group("z8"), np.array([0, 3, 2, 1, 4, 7, 6, 5])  # an involution
        payload = group_to_dict(z8)
        payload["cayley"] = order[z8.cayley[np.ix_(order, order)]].tolist()
        payload["labels"] = [z8.labels[i] for i in order]
        group, rep = tmp_path / "z8.json", tmp_path / "z8_rep.json"
        group.write_text(canonical_json(payload))
        rep.write_text(canonical_json({"matrices": complex_pairs(builtin_rep(z8).matrices[order])}))
        group, rep = f"@{group}", f"@{rep}"
    argv = ["circuit", "simulate", "--group", group, "--rep", rep, "--path", "cyclic",
            "--network", "--m", "2", "--seed", "3", "--verify"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["fidelity_vs_direct_encoding"] >= 1 - 1e-9


def test_circuit_count_accepts_an_explicit_power_with_every_irrep(capsys):
    assert main(["circuit", "count", "--group", "z64", "--m", "1", "--r", "63"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 63


def test_fixed_channel_applies_its_element(capsys):
    assert main(["roundtrip", "--group", "z4", "--dist", "fixed:3"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["applied_element"] == 3
    assert abs(report["roundtrip_fidelity"] - 1.0) < 1e-9


def test_random_channel_report_is_reproducible(capsys):
    argv = ["roundtrip", "--group", "z4", "--dist", "random", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one ``main`` call; usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_import_builds_no_parser():
    probe = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import dfscodec.cli
assert not built, len(built)
dfscodec.cli.main(["rep", "min-r", "z3", "builtin"])
assert built
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_main_builds_only_the_command_its_argv_names(monkeypatch, capsys):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert _outcome(["rep", "min-r", "z3", "builtin"], capsys)[0] == 0
    top = ["dfscodec group", "dfscodec rep", "dfscodec tokens", "dfscodec roundtrip",
           "dfscodec circuit", "dfscodec demo"]
    assert built == ["dfscodec", *top[:2], "dfscodec rep analyze", "dfscodec rep min-r", *top[2:]]
    built.clear()
    # the root's help still lists every command
    code, out, err = _outcome(["--help"], capsys)
    assert built == ["dfscodec", *top] and (code, err) == (0, "")
    for line in ("group               group validation and structure",
                 "demo                worked demonstrations"):
        assert line in out
    built.clear()
    code, out, err = _outcome([], capsys)
    assert built == ["dfscodec", *top] and (code, out) == (2, "")
    assert err.endswith("dfscodec: error: the following arguments are required: command\n")


COMMAND_PATHS = [
    [], ["group"], ["group", "validate"], ["group", "info"], ["rep"], ["rep", "analyze"],
    ["rep", "min-r"], ["tokens"], ["tokens", "build"], ["roundtrip"], ["circuit"],
    ["circuit", "count"], ["circuit", "simulate"], ["demo"], ["demo", "su2"],
]


@pytest.mark.parametrize(
    "extra", [["-h"], [], ["--bogus"], ["bogus"]],
    ids=["help", "bare", "unknown-flag", "invalid-choice"],
)
@pytest.mark.parametrize("path", COMMAND_PATHS, ids=lambda path: " ".join(path) or "root")
def test_parser_for_argv_answers_as_the_parser_of_every_command(path, extra, monkeypatch, capsys):
    # only the commands argv names get -h, and every command list its prog: the
    # exit code, stdout and stderr are those of the parser that has every command
    import dfscodec.cli as cli

    argv = [*path, *extra]
    own = _outcome(argv, capsys)
    if extra == ["-h"]:
        assert own[0] == 0 and own[1].startswith(f"usage: {' '.join(['dfscodec', *path])} ")
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda _: full(sum(COMMAND_PATHS, [])))
    assert _outcome(argv, capsys) == own


def test_handler_patched_between_main_calls_is_the_one_that_runs(monkeypatch, capsys):
    import dfscodec.cli as cli

    assert _outcome(["group", "info", "--builtin", "z2"], capsys)[0] == 0
    seen = []

    def fake(args):
        seen.append(args.builtin)
        return 0

    monkeypatch.setattr(cli, "cmd_group_info", fake)
    assert _outcome(["group", "info", "--builtin", "s3"], capsys) == (0, "", "")
    assert seen == ["s3"]
    # the missing-group check reads the patched handler too
    code, out, err = _outcome(["group", "info"], capsys)
    assert (code, out, seen) == (2, "", ["s3"])
    assert err == "dfscodec group info: error: give a group or --builtin\n"


def test_golden_commands_repeat_byte_for_byte_between_usage_errors(capsys):
    import dfscodec

    others = [["roundtrip", "--group", "z8", "--m", "x"], ["group"], ["--version"]]
    rounds = []
    for _ in range(2):
        seen = []
        for argv, golden in END_TO_END:
            code, out, err = _outcome(argv, capsys)
            assert (code, err) == (0, ""), argv
            assert out.encode() == (GOLDEN / golden).read_bytes(), golden
            seen.append((code, out, err))
            seen += [_outcome(other, capsys) for other in others]
        rounds.append(seen)
    assert rounds[0] == rounds[1]
    bad_m, bare_group, version = rounds[0][1:4]
    assert bad_m[0] == 2 and "argument --m: invalid int value: 'x'" in bad_m[2]
    assert bare_group[0] == 2 and bare_group[2].startswith("usage: dfscodec group")
    assert version == (0, f"{dfscodec.__version__}\n", "")


INPUTS = {"dim": 2, "table": None, "report": None}
PARSED = [
    (["group", "validate", "z2"],
     {"command": "group", "subcommand": "validate", "group": "z2", "report": None}),
    (["group", "info"],
     {"command": "group", "subcommand": "info", "group": None, "builtin": None, "report": None}),
    (["rep", "analyze", "z3", "builtin"],
     {"command": "rep", "subcommand": "analyze", "group": "z3", "rep": "builtin", **INPUTS}),
    (["rep", "min-r", "z3", "builtin"],
     {"command": "rep", "subcommand": "min-r", "group": "z3", "rep": "builtin", "r_max": 32,
      **INPUTS}),
    (["tokens", "build", "--group", "z3"],
     {"command": "tokens", "subcommand": "build", "group": "z3", "rep": "builtin", "r": None,
      "dump_state": None, **INPUTS}),
    (["roundtrip", "--group", "z3"],
     {"command": "roundtrip", "group": "z3", "rep": "builtin", "m": 1, "r": None,
      "dist": "uniform", "seed": None, **INPUTS}),
    (["circuit", "count", "--group", "z3"],
     {"command": "circuit", "subcommand": "count", "group": "z3", "rep": "builtin", "m": 1,
      "r": None, "path": "all", "export_plan": None, **INPUTS}),
    (["circuit", "simulate", "--group", "z3"],
     {"command": "circuit", "subcommand": "simulate", "group": "z3", "rep": "builtin",
      "dim": 2, "m": 1, "path": "general", "network": False, "verify": False, "seed": None,
      "report": None}),
    (["demo", "su2"],
     {"command": "demo", "subcommand": "su2", "trials": 50, "seed": None, "report": None}),
]


def _parsed(argv):
    from dfscodec.cli import build_parser

    parsed = vars(build_parser(argv).parse_args(argv))
    del parsed["func"]
    return parsed


@pytest.mark.parametrize(
    "argv,expected", PARSED, ids=[f"{e['command']} {e.get('subcommand', '')}" for _, e in PARSED]
)
def test_each_command_parses_its_own_flags_and_defaults(argv, expected):
    assert _parsed(argv) == expected
    # the shared flags keep their types: --dim is an int, --table and --report are strings
    values = {"dim": 3, "table": "t.json", "report": "r.json"}
    shared = {dest: value for dest, value in values.items() if dest in expected}
    given = [arg for dest, value in shared.items() for arg in (f"--{dest}", str(value))]
    assert _parsed(argv + given) == {**expected, **shared}


def test_weyl_rep_file_gets_the_first_linear_power(tmp_path, capsys):
    # the clock-and-shift set at d = 3 fuses integrally at r = 2, where its tokens
    # failed closure by 1.732; its first linear power is 3
    from conftest import weyl_rep

    path = tmp_path / "weyl3.json"
    path.write_text(canonical_json(serialization.rep_to_dict(weyl_rep(3))))
    assert main(["rep", "min-r", "z3xz3", f"@{path}"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 3
    assert main(["tokens", "build", "--group", "z3xz3", "--rep", f"@{path}"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 3
    assert main(["rep", "analyze", "z3xz3", f"@{path}"]) == 0
    assert json.loads(capsys.readouterr().out)["first_integral_power"] == 3
