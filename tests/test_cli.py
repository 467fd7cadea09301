import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qvertex import cli, fock, repring, toroidal, vertex, wreath
from qvertex.cli import REGISTRY, build_parser, main
from qvertex.report import CheckReport

from helpers import laurent_from_obj


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mckay_pass_exit0(capsys):
    code, out, _ = run(["mckay", "--group", "cyclic:3", "--xi", "first"], capsys)
    assert code == 0 and "pass" in out


def test_cartan_json_round_trips(capsys):
    code, out, _ = run(["cartan", "--group", "cyclic:2", "--xi", "first", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    from qvertex.scalar import Laurent

    entries = [[laurent_from_obj(e) for e in row] for row in doc["entries"]]
    qq = Laurent.q_pow(1) + Laurent.q_pow(-1)
    assert entries[0][0] == qq and entries[0][1] == Laurent.of(-2)
    # round trip: re-serialise
    assert [[e.to_obj() for e in row] for row in entries] == doc["entries"]


def test_bad_config_exit2(capsys):
    code, _, err = run(["mckay", "--group", "bt", "--xi", "second"], capsys)
    assert code == 2 and "cyclic" in err
    code, _, err = run(["positivity", "--group", "cyclic:2", "--t", "-1"], capsys)
    assert code == 2 and "t > 0" in err
    code, _, err = run(["mckay", "--group", "nope:3"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv,precondition", [
    (["ope", "--group", "cyclic:2", "--max-mode", "-1"], "--max-mode must be >= 0"),
    (["isometry", "--group", "cyclic:2", "--n", "-1"], "--n must be >= 0"),
    (["heisenberg", "--group", "cyclic:2", "--max-mode", "-1"], "--max-mode must be >= 0"),
    (["toroidal", "--group", "cyclic:2", "--max-degree", "-1"], "--max-degree must be >= 0"),
    (["ope", "--group", "cyclic:2", "--series-order", "-1"], "--series-order must be >= 0"),
    (["positivity", "--group", "cyclic:2", "--t", "nan"], "finite t > 0"),
    (["positivity", "--group", "cyclic:2", "--t", "inf"], "finite t > 0"),
])
def test_invalid_numbers_exit2(argv, precondition, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and precondition in err and out == ""


def test_run_that_checks_nothing_exits2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_vertex_checks", lambda cfg, g: [CheckReport("vertex.qpow", {}, passed=True)])
    code, out, err = run(["ope", "--group", "cyclic:2"], capsys)
    assert code == 2 and "checks no case" in err and out == ""


def test_chartable_text_and_json(capsys):
    code, out, _ = run(["chartable", "--group", "bd:2"], capsys)
    assert code == 0 and "order 8" in out
    code, out, _ = run(["chartable", "--group", "bd:2", "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["order"] == 8 and doc["violations"] == []


def test_group_file_rejected_exit2(tmp_path, capsys):
    from qvertex.groups import cyclic, dump_group_file

    p = tmp_path / "g.grp"
    dump_group_file(cyclic(2), str(p))
    p.write_text(p.read_text().replace("char 0:1 0:-1", "char 0:1 0:1"))
    code, _, err = run(["chartable", "--group", f"file:{p}"], capsys)
    assert code == 2 and "orthogonality" in err


@pytest.mark.parametrize("command,old,new,precondition", [
    ("chartable", "conductor 3\n", "", "a char row needs a positive conductor header before it"),
    ("chartable", "class c1 3 2 3", "class c1 3 7 3", "inverse class index 7 of c1 is outside 0..2"),
    ("chartable", "natural 0:2 0:-1 0:-1", "natural 0:2 0:-1", "natural character has 2 values for 3 classes"),
    ("chartable", "class c1 3 2 3", "class c1 0 2 3", "centralizer and element orders of c1 must be positive"),
    ("all", "classes 3", "classes 5", "header declares classes 5 but 3 class lines follow"),
    ("chartable", "class c1 3 2 3", "class c1 3 2",
     "a class record reads class LABEL CENTRALIZER INVERSE_INDEX ELEMENT_ORDER, three integers; got 'class c1 3 2'"),
    ("chartable", "classes 3", "classes seven", "a classes record reads classes K, an integer; got 'classes seven'"),
    ("chartable", "char 0:1 0:1 0:1", "char 0:1/0 0:1 0:1",
     "a char record reads char V1 ... VK, each V semicolon-joined POWER:RATIONAL pairs with nonzero denominators;"
     " got 'char 0:1/0 0:1 0:1'"),
], ids=["char-before-conductor", "inverse-index-out-of-range", "short-natural-row", "zero-centralizer", "class-count-mismatch",
        "three-field-class", "non-integer-class-count", "zero-denominator"])
def test_malformed_group_file_exits2(command, old, new, precondition, tmp_path, capsys):
    from qvertex.groups import cyclic, dump_group_file

    p = tmp_path / "g.grp"
    dump_group_file(cyclic(3), str(p))
    text = p.read_text()
    assert old in text
    p.write_text(text.replace(old, new) + ("" if new else old))  # a removed line moves to the end
    code, out, err = run([command, "--group", f"file:{p}"], capsys)
    assert code == 2 and precondition in err and out == ""


def test_group_file_path_that_is_a_directory_exits2(tmp_path, capsys):
    code, out, err = run(["chartable", "--group", f"file:{tmp_path}"], capsys)
    assert code == 2 and "Is a directory" in err and out == ""


def test_isometry_per_pair_output(capsys):
    code, out, _ = run(["isometry", "--group", "cyclic:2", "--n", "1", "--k-twist", "1", "--l-twist", "0"], capsys)
    assert code == 0
    assert out.count("wreath.isometry_pair") == 4  # 2 types at n=1, all pairs


def test_toroidal_json_schema(capsys):
    code, out, _ = run(
        ["toroidal", "--group", "cyclic:2", "--variant", "plus", "--max-degree", "1", "--max-mode", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["suite", "config", "checks"]
    assert doc["suite"] == "toroidal_plus"
    assert {c["id"] for c in doc["checks"]} >= {"toroidal.heisenberg", "toroidal.serre"}


def test_parser_has_all_subcommands():
    ap = build_parser()
    subactions = next(a for a in ap._actions if isinstance(a, type(ap._actions[-1]))).choices
    for name in ("chartable", "cartan", "mckay", "positivity", "heisenberg", "isometry", "ope", "toroidal", "affine", "all"):
        assert name in subactions


WEIGHT = ("--xi", "--p-exp")


@pytest.mark.parametrize("command,options", [
    ("chartable", ()),
    ("cartan", WEIGHT),
    ("mckay", WEIGHT),
    ("positivity", (*WEIGHT, "--t")),
    ("heisenberg", (*WEIGHT, "--max-degree", "--max-mode")),
    ("isometry", (*WEIGHT, "--n", "--k-twist", "--l-twist")),
    ("ope", (*WEIGHT, "--k", "--max-mode", "--series-order")),
    ("toroidal", (*WEIGHT, "--k", "--max-degree", "--max-mode", "--variant")),
    ("affine", (*WEIGHT, "--k", "--max-degree", "--max-mode")),
    ("all", (*WEIGHT, "--k", "--max-degree", "--max-mode", "--series-order")),
])
def test_each_subcommand_accepts_exactly_the_options_it_reads(command, options):
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, type(ap._actions[-1]))).choices[command]
    flags = {f for a in sub._actions for f in a.option_strings} - {"-h", "--help"}
    assert flags == {"--group", "--format", *options}


@pytest.mark.parametrize("argv", [
    ["chartable", "--xi", "second"],
    ["cartan", "--max-mode", "1"],
    ["ope", "--max-degree", "1"],
    ["toroidal", "--series-order", "4"],
    ["isometry", "--k", "1"],
])
def test_option_a_command_does_not_read_exits2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["cartan"],
    ["mckay"],
    ["positivity"],
    ["heisenberg"],
    ["isometry"],
    ["ope"],
    ["affine"],
    ["toroidal", "--variant", "plus"],
    ["toroidal", "--variant", "minus"],
    ["toroidal", "--variant", "minus", "--xi", "first"],
])
def test_p_exp_no_check_reads_exits2(argv, capsys):
    # p = q^{p_exp} belongs to the second weight and the qp variant only
    code, out, err = run([*argv, "--group", "cyclic:2", "--p-exp", "7", "--format", "json"], capsys)
    assert code == 2 and "--p-exp is read only with --xi second" in err and out == ""


def test_p_exp_is_read_by_the_second_weight_the_qp_variant_and_all(capsys):
    code, out, _ = run(["toroidal", "--group", "cyclic:3", "--variant", "qp", "--p-exp", "2",
                        "--max-degree", "1", "--max-mode", "1", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["config"]["p_exp"] == 2
    assert json.loads(out)["config"]["xi"] == "second"  # the weight the qp suite runs in, whatever --xi says
    code, out, _ = run(["cartan", "--group", "cyclic:3", "--xi", "second", "--p-exp", "2", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["xi"] == "second"
    cli.require_p_exp_read("all", cli.Config(p_exp=2))  # qp_degeneracy and the typeA_qp suite read it


@pytest.mark.parametrize("spec,form", [("cyclic:x", "cyclic:N"), ("bd:", "bd:N"), ("cyclic:3:4", "cyclic:N")])
def test_malformed_group_spec_names_the_form_exit2(spec, form, capsys):
    code, out, err = run(["mckay", "--group", spec], capsys)
    assert code == 2 and f"expected {form} with an integer N" in err and out == ""


def check_function_names(module):
    out = set()
    for name, obj in vars(module).items():
        if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        if name.startswith("check_") or name.endswith("_check") or name in ("positivity_probe", "mckay_eigencheck"):
            out.add(name)
    return out


def test_registry_covers_every_check_operation():
    """A check function defined in the core modules but missing from the CLI
    registry is a build failure."""
    registered = set(REGISTRY.values())
    for module in (repring, wreath, fock, vertex, toroidal):
        for name in check_function_names(module):
            assert name in registered, f"{module.__name__}.{name} not registered for `all`"


def test_all_command_runs_registry(capsys):
    code, out, _ = run(["all", "--group", "cyclic:2", "--max-degree", "1", "--max-mode", "1"], capsys)
    assert code == 0
    seen = {line.split()[1] for line in out.splitlines() if line.startswith("[")}
    assert {"repring.mckay", "fock.heisenberg", "wreath.isometry", "vertex.qpow", "toroidal.serre"} <= seen


def test_toroidal_json_reports_the_p_exp_it_ran_with(capsys):
    # the second weight runs at p = q^{p_exp}; the JSON config must say so
    argv = ["toroidal", "--group", "cyclic:3", "--xi", "second", "--p-exp", "2",
            "--max-degree", "1", "--max-mode", "1", "--format", "json"]
    _, out, _ = run(argv, capsys)
    config = json.loads(out)["config"]
    assert config["xi"] == "second" and config["p_exp"] == 2


def test_second_weight_runs_toroidal_suites_in_p_mode(capsys):
    # the second weight is two-parameter: every check of every suite passes
    argv = ["all", "--group", "cyclic:3", "--xi", "second", "--p-exp", "2", "--max-degree", "1", "--max-mode", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "FAIL" not in out
    assert "toroidal.xx {'variant': 'toroidal_plus'" in out


def test_second_weight_on_cyclic2_is_a_bad_config(capsys):
    argv = ["toroidal", "--group", "cyclic:2", "--xi", "second", "--max-degree", "1", "--max-mode", "1"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "p-mode requires a cyclic group of order >= 3" in err


def test_python_dash_m_qvertex_runs_the_cli(capsys):
    argv = ["isometry", "--group", "cyclic:3", "--n", "2", "--format", "json"]
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "qvertex", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) == 81 and all(c["pass"] for c in checks)
    _, out, _ = run(argv, capsys)
    assert proc.stdout == out


def test_importing_the_cli_leaves_numpy_unimported():
    # numpy's one reader, the positivity probe, imports it itself, so exact runs never pay for it
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = "import sys, qvertex.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["isometry", "--group", "bd:3", "--n", "2", "--format", "json"],
    ["chartable", "--group", "bt", "--format", "json"],
])
def test_a_reader_closing_the_pipe_early_gets_no_traceback(argv):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "qvertex", *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the first write, so every write meets a closed pipe
    try:
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == 1
    finally:
        proc.stderr.close()
        proc.kill()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_ope_window_runs_as_given(capsys):
    # --max-mode 3 is the (2*3+1)^2 mode pairs on both states, not a capped window 2
    code, out, _ = run(["ope", "--group", "cyclic:2", "--max-mode", "3", "--format", "json"], capsys)
    assert code == 0
    ypyp = [c for c in json.loads(out)["checks"] if c["id"] == "ope:YpYp"]
    assert len(ypyp) == 2 and all(c["cases"] == 98 and c["pass"] for c in ypyp)


def test_toroidal_bounds_run_as_given(capsys):
    argv = ["toroidal", "--group", "cyclic:2", "--max-mode", "3", "--max-degree", "1", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert config["max_mode"] == 3 and config["max_degree"] == 1


def test_a_toroidal_check_that_ran_no_case_says_why(capsys):
    code, out, _ = run(["toroidal", "--group", "cyclic:2", "--max-mode", "0", "--format", "json"], capsys)
    assert code == 0
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    for cid in ("toroidal.heisenberg", "toroidal.a_x"):
        assert checks[cid]["cases"] == 0 and checks[cid]["pass"]
        assert any("no nonzero mode" in n for n in checks[cid]["notes"]), checks[cid]
    assert all("notes" not in c for c in checks.values() if c["cases"])
    code, out, _ = run(["all", "--group", "cyclic:2", "--format", "json"], capsys)
    serre = [c for c in json.loads(out)["checks"] if c["id"] == "toroidal.serre"]
    assert [c["params"]["variant"] for c in serre if c["cases"] == 0] == ["affine"]
    assert all(any("no Serre pair" in n for n in c.get("notes", [])) == (c["cases"] == 0) for c in serre)


@pytest.mark.parametrize("argv,sha256", [
    (["ope", "--group", "cyclic:4", "--xi", "second", "--p-exp", "-1"],
     "9ede7a827a20f9d16c6974c2716b13bcdfe62cd81702771194d208d74021a4cc"),
    (["cartan", "--group", "bt"], "4dbc7e9ca592478b45635105206c54ce4530092e2aba1dbda5bed2d5035eba0b"),
    (["isometry", "--group", "bt", "--n", "2"], "a0ac0c6bc8a2512cd766abd60794bcef2fb1ed98942131227a427f147c298364"),
    # bd:3 mixes rational and conductor-4 scalars (its zeta_6^k + zeta_6^-k are rational);
    # bd:5 mixes conductor-4 and conductor-10 values, which meet at conductor 20
    (["isometry", "--group", "bd:3", "--n", "2"], "a772e3cdda6e05bffbb4f27c8e69526df396c8485e90f63d98aa5f457770e81b"),
    (["isometry", "--group", "bd:5", "--n", "2"], "7920e510884b5a8080c959eae9bebde8028f66e01c5b5fa31b3648df412eadfe"),
    # the toroidal relation suites: vector sums, scalings and generator columns
    (["toroidal", "--group", "cyclic:3"], "80892a51cacdc7e75c8a5a6a2f6ef6a80cdefe30ed218ed8543155948c6fa4e3"),
    (["toroidal", "--group", "bd:3"], "3e7f0ded6d7d0eef3d48746ca4de0fde9ebb828ff20abe87fbb6467a5aee7352"),
    (["all", "--group", "cyclic:3", "--xi", "second"],
     "7fdaf93af69486a3539eddb6938c538cb8b3b7f40cab0f5f10dc784ff1e7518e"),
    # character values print at their own conductor: bd:5's 2-dimensional values at 10
    (["chartable", "--group", "bd:5"], "576c407609021217c6d157dbd752744e13f3c37ddd7bff8030f4a3fbb43b3b5a"),
    (["chartable", "--group", "bt"], "b060c014a4bc3fa170ca1e3a721c15d40e8afaf993afb3ee50ef5bad027f0688"),
    # columns translated from the lattice origin: the quotient lattice's reduction signs,
    # p-mode's zero-mode v-powers, conductor-12 columns and the second weight at p = q^-1
    (["toroidal", "--group", "cyclic:3", "--variant", "qp", "--p-exp", "1"],
     "5e6ee3eeabe74242d3cc55f8464b5e4b3540a16accc86ac411b440c72b9fe188"),
    (["toroidal", "--group", "cyclic:3", "--variant", "qp", "--p-exp", "2"],
     "d7f9c4f080e35723bc442b07f9edbd8b8fb551ad16c5354153c3a736bceb64a4"),
    (["toroidal", "--group", "bt"], "ce6769ad9b5855d6ef9ab88408dff6be0b2fa00aec7c0cd4e710d27b587cbede"),
    (["toroidal", "--group", "cyclic:4", "--xi", "second", "--p-exp", "-1"],
     "8437cebccd748fd61aace801b01578d72524569daf57662d4eb53e7c3567f845"),
    # n = 3: class-basis Gram rows paired by the one-factor tables, three-factor monomials
    (["isometry", "--group", "bt", "--n", "3"], "9023a4ef2f20d0ae3254319f10b12fb40c587b7137b640c32230e3c6103b60ef"),
    (["isometry", "--group", "cyclic:6", "--n", "3"], "23a3f535807398d9f1cd922b7d554dea62de4103f0dd022e280242bb5bb002a3"),
    # n = 8: up to 8 repeated factors, the Wick recursion's deepest branching
    (["isometry", "--group", "cyclic:2", "--n", "8"], "9b8e4e434f991bfb5878ea3d090fc4586f28d6baee4f7fe626b6d4bdb943c74c"),
    # OPE products at window 3: the right side reads the factor series further than at window 2
    (["ope", "--group", "cyclic:4", "--max-mode", "3"],
     "9fe87f5ed721f703368ad02664e63e75acebe04155c1644a54b27985c462532d"),
    (["ope", "--group", "cyclic:3", "--xi", "second", "--p-exp", "2", "--max-mode", "3"],
     "56ec6f6ba314ce85dda5d2fcf1258c37d960134b6c1a4e19a412420fc81b76de"),
    (["ope", "--group", "bt", "--max-mode", "3"], "daac0900ac9acb93a22e0556221739e9027d06f0b0d94bbe5b1d4682adaa9067"),
    (["ope", "--group", "bd:3", "--max-mode", "3"], "c1f48d4ff930678888dde6f0615751594761ea40cbb916085b30b0c859995dac"),
])
def test_json_output_is_byte_identical_to_the_recorded_golden(argv, sha256, capsys):
    # the JSON is the exactness contract: a kernel change must leave every byte in place
    code, out, _ = run([*argv, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_chartable_text_is_byte_identical_to_the_recorded_golden(capsys):
    # the table prints bd:5's values at conductor 10, where a Laurent's rendering descends to 5
    code, out, _ = run(["chartable", "--group", "bd:5"], capsys)
    assert code == 0
    assert "1 + 1*z10^2 + -1*z10^3" in out
    assert hashlib.sha256(out.encode()).hexdigest() == "074bb2bd7894dcc79aadcbc418391d7304663ca9d27adeb29c2c5f111b27e4cf"
