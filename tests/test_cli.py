"""Problem parsing, command dispatch, exit codes, output determinism."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homotor.cli import (
    COMMANDS,
    FLAG_DEFAULTS,
    _sample_degrees,
    main,
    parse_problem,
    random_instance,
    run,
)
from homotor.errors import ParamOutOfRange, ParseError, UnknownCommand, ValidationError
from homotor.monomial import MonomialIdeal, iter_box
from homotor.support import supportoftors_check
from homotor.torlab import family_box


@pytest.fixture
def problem_path(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({
        "characteristic": 32003,
        "variables": ["x", "y"],
        "ideals": {"I1": [[1, 0]], "I2": [[0, 1]]},
    }))
    return str(path)


def test_parse_minimal(problem_path):
    p = parse_problem(problem_path)
    assert p.variables == ["x", "y"]
    assert list(p.ideals) == ["I1", "I2"]
    assert p.ideals["I1"] == MonomialIdeal(2, [(1, 0)])


def test_parse_rejects_bad_exponents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "variables": ["x", "y"],
        "ideals": {"I1": [[1, 0, 0]]},
    }))
    with pytest.raises(ValidationError) as err:
        parse_problem(str(path))
    assert "I1" in str(err.value)


def test_parse_rejects_composite_characteristic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "characteristic": 6,
        "variables": ["x"],
        "ideals": {"I": [[1]]},
    }))
    with pytest.raises(ValidationError):
        parse_problem(str(path))


def test_parse_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_problem(str(path))
    with pytest.raises(ParseError):
        parse_problem(str(tmp_path / "missing.json"))


def test_run_tor_command(problem_path):
    report = run("tor", parse_problem(problem_path), {})
    assert report["results"]["tor"] == [{"i": 0, "degree": [0, 0], "dim": 1}]
    assert report["box"] == [1, 1]


def test_run_unknown_command(problem_path):
    with pytest.raises(UnknownCommand):
        run("frobnicate", parse_problem(problem_path), {})


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "selftest"])
def test_run_without_a_problem_raises_parse_error(command, capsys):
    """Every command but selftest needs a problem, from run as from main."""
    message = f"command {command!r} needs a problem file"
    with pytest.raises(ParseError) as err:
        run(command, None, {})
    assert str(err.value) == message
    assert main([command]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "ParseError", "message": message}


def test_cli_tor_with_a_17_generator_ideal(tmp_path, capsys):
    """tor succeeds when the 17-generator ideal is the module multi_tor
    leaves unresolved, and exits 2 when a second one must be resolved."""
    big = [[k, 16 - k] for k in range(17)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": big, "J": [[1, 1]]}}))
    assert main(["tor", str(path)]) == 0
    assert {"i": 0, "degree": [0, 0], "dim": 1} in \
        json.loads(capsys.readouterr().out)["results"]["tor"]
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": big, "J": big}}))
    assert main(["tor", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParamOutOfRange"


def test_cli_exit_codes(problem_path, capsys, monkeypatch):
    assert main(["tor", problem_path]) == 0
    capsys.readouterr()
    assert main(["bogus", problem_path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "UnknownCommand"
    assert main(["verify", problem_path]) == 0
    capsys.readouterr()
    # the checkers hold on every valid input, so exercise the failure exit
    # path by stubbing a failed assertion
    import homotor.cli as cli

    def fake_run(command, problem, flags):
        return {"command": command, "inputs": {}, "box": None, "results": {},
                "assertions": [{"name": "stub", "passed": False, "witnesses": []}]}

    monkeypatch.setattr(cli, "run", fake_run)
    assert main(["tor", problem_path]) == 1
    capsys.readouterr()


def test_cli_byte_identical_output(problem_path, capsys):
    assert main(["tor1-oracle", problem_path]) == 0
    first = capsys.readouterr().out
    assert main(["tor1-oracle", problem_path]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["timing"] == {"wall_ms": None}
    assert report["assertions"][0]["name"] == "tor1_oracle_equivalence"
    assert report["assertions"][0]["passed"]


def test_cli_json_flag_writes_file(problem_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["tor", problem_path, "--json", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout


def test_cli_field_and_box_flags(problem_path, capsys):
    assert main(["tor", problem_path, "--field", "7", "--box", "2,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["box"] == [2, 2]


@pytest.mark.parametrize("command, flag", [("tor", ["--field", "3"]),
                                           ("spectral", ["--kind", "kcone"])])
def test_cli_flag_before_the_problem_file(problem_path, capsys, command, flag):
    """A flag may come before or after the problem file: both orders print
    the same report."""
    assert main([command, *flag, problem_path]) == 0
    before = capsys.readouterr().out
    assert main([command, problem_path, *flag]) == 0
    assert capsys.readouterr().out == before


def test_cli_spectral_command(problem_path, capsys):
    assert main(["spectral", problem_path, "--kind", "interior_augmented"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["assertions"][0]["name"] == "convergence"
    assert main(["spectral", problem_path, "--kind", "sum_to_product"]) == 0
    capsys.readouterr()
    assert main(["spectral", problem_path, "--kind", "nope"]) == 2
    capsys.readouterr()


def test_cli_spectral_converges_past_a_zero_d2(tmp_path, capsys):
    """At degree (0, 3) kcone has d^1 = d^2 = 0 but d^3 != 0."""
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({
        "characteristic": 32003,
        "variables": ["x", "y"],
        "ideals": {"I1": [[0, 2]], "I2": [[0, 1], [1, 0]], "I3": [[0, 1]]},
    }))
    assert main(["spectral", str(path), "--kind", "kcone"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(pg["converged"] for pg in report["results"]["pages"].values())
    assert report["results"]["pages"]["0,3"]["r_stab"] == 5


def test_cli_spectral_sum_to_product_with_a_module(tmp_path, capsys):
    """The sum complex is a cochain complex stored in negative degrees, so
    the Koszul sign (-1)^i of its tensor with the module's resolution has
    negative i and must still be an integer."""
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({
        "characteristic": 32003,
        "variables": ["x", "y", "z"],
        "ideals": {"I1": [[2, 2, 2]], "I2": [[0, 1, 2], [0, 2, 1]],
                   "I3": [[1, 0, 1]],
                   "M": [[0, 2, 2], [1, 0, 2], [2, 1, 0]]},
    }))
    assert main(["spectral", str(path), "--kind", "sum_to_product",
                 "--module", "M"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(pg["converged"] for pg in report["results"]["pages"].values())


@pytest.mark.parametrize("flags", [
    ["--box", "a,b"],
    ["--box", "1,-1"],
    ["--subset", "x"],
    ["--field", "4"],
    ["--field", "4294967311"],
])
def test_cli_malformed_flags_exit_2(problem_path, capsys, flags):
    assert main(["tor", problem_path, *flags]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ValidationError"


def _unread(flag, values, readers, named=False):
    """A case per value and per command with a problem file that does not
    read the flag, with the id value-command, or flag=value-command when
    named (so --seed 0 and --subset 0 get distinct ids); a flag without a
    value (values [None]) has the id flag-command."""
    def case_id(value, command):
        if value is None:
            return f"{flag[2:]}-{command}"
        return f"{flag[2:]}={value}-{command}" if named else f"{value}-{command}"
    return [pytest.param(command, [flag] if value is None else [flag, value],
                         id=case_id(value, command))
            for value in values for command in COMMANDS
            if command != "selftest" and command not in readers]


@pytest.mark.parametrize("command, argv", [
    *_unread("--box", ["1,1", "1"], ("tor", "tor1-oracle", "scomplex", "pcomplex",
                                     "spectral")),
    *_unread("--subset", ["0", "5,5"], ("support",)),
    *_unread("--kind", ["foo"], ("scomplex", "pcomplex", "spectral")),
    *_unread("--module", ["I1"], ("tor", "betti", "spectral", "support")),
    *_unread("--strong", [None], ("indep",)),
    *_unread("--seed", ["0", "7"], ("selftest",), named=True),
    *_unread("--trials", ["10", "3"], ("selftest",), named=True),
])
def test_cli_box_rejected_where_unread(problem_path, capsys, command, argv):
    """A command rejects --box, --subset, --kind, --module, --strong, --seed
    or --trials when it does not read it, instead of echoing and ignoring
    it, even when the value given is the default."""
    assert main([command, problem_path, *argv]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("command", ["betti", "indep", "verify", "support",
                                     "rigidity", "a8", "equiv-exactness"])
def test_cli_problem_box_rejected_where_unread(tmp_path, capsys, command):
    """A problem file's box exits 2 on a command that reads no box, as
    --box does, and stays the box of a command that reads one."""
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y"], "box": [2, 2],
                                "ideals": {"I1": [[1, 0]], "I2": [[0, 1]]}}))
    assert main([command, str(path)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == {"type": "ValidationError",
                             "message": f"{command} reads no box, so its problem "
                                        "file sets none"}
    assert main(["tor", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["box"] == [2, 2]


@pytest.mark.parametrize("command", [c for c, (reads, _) in COMMANDS.items()
                                     if "module" not in reads and c != "selftest"])
def test_cli_problem_module_rejected_where_unread(tmp_path, capsys, command):
    """A problem file's module exits 2 on a command that reads no module,
    as --module does and as a problem file's box does, and stays the
    module of a command that reads one."""
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y"], "module": "I2",
                                "ideals": {"I1": [[1, 0]], "I2": [[0, 1]]}}))
    assert main([command, str(path)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == {"type": "ValidationError",
                             "message": f"{command} reads no module, so its problem "
                                        "file sets none"}
    assert main(["tor", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["box"] == [1, 2]


def test_cli_betti_reads_the_problem_module(tmp_path, capsys):
    """The problem file's module is the default of --module for betti, as
    for every command that reads a module: it tabulates that ideal alone,
    and --module overrides it."""
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y"], "module": "I2",
                                "ideals": {"I1": [[1, 0]], "I2": [[0, 1]]}}))
    assert main(["betti", str(path)]) == 0
    assert list(json.loads(capsys.readouterr().out)["results"]) == ["I2"]
    assert main(["betti", str(path), "--module", "I1"]) == 0
    assert list(json.loads(capsys.readouterr().out)["results"]) == ["I1"]


def test_python_m_homotor_runs_the_cli(problem_path, capsys):
    """``python -m homotor`` prints what main prints and exits as main
    does, with nothing on stderr: 0 on a report that passes, 2 on a unit
    ideal."""
    unit = Path(problem_path).with_name("unit.json")
    unit.write_text(json.dumps({"variables": ["x"], "ideals": {"I": [[0]]}}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for path, code in ((problem_path, 0), (str(unit), 2)):
        assert main(["tor", path]) == code
        expected = capsys.readouterr().out
        done = subprocess.run([sys.executable, "-m", "homotor", "tor", path],
                              capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (code, expected, "")


def test_cli_selftest_rejects_box(capsys):
    assert main(["selftest", "--trials", "0", "--box", "1,1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"
    assert main(["selftest", "--trials", "0", "--strong"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"


def test_cli_selftest_refuses_a_problem_file(problem_path, capsys):
    """selftest draws its own families, so a problem file exits 2, as a
    problem file's box or module does on a command that reads none."""
    message = "selftest reads no problem file"
    assert main(["selftest", problem_path, "--trials", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "ValidationError", "message": message}
    with pytest.raises(ValidationError, match=message):
        run("selftest", parse_problem(problem_path), dict(FLAG_DEFAULTS))


@pytest.mark.parametrize("kind", ["interior", "sum_to_product"])
def test_cli_spectral_refuses_a_box_below_the_family_box(tmp_path, capsys, kind):
    """spectral reads its pages over a box that dominates the family box,
    as every other box reader does: --box 0,0 misses (2, 3) and exits 2."""
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I1": [[2, 0]], "I2": [[0, 3]]}}))
    assert main(["spectral", str(path), "--kind", kind, "--box", "0,0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "BoxTooSmall", "message": "box (0, 0) does not dominate (2, 3)"}
    assert main(["spectral", str(path), "--kind", kind, "--box", "2,3"]) == 0
    assert json.loads(capsys.readouterr().out)["box"] == [2, 3]


def test_cli_defaults_of_unread_flags_are_echoed(problem_path, capsys):
    """main fills --strong, --seed and --trials in after the check, so every
    report echoes them; run takes those defaults from any command, as the
    flags of a command line, but not another value."""
    assert main(["tor", problem_path]) == 0
    echoed = json.loads(capsys.readouterr().out)["inputs"]["flags"]
    assert echoed == {**FLAG_DEFAULTS, "timing": False}
    assert FLAG_DEFAULTS == {"strong": False, "seed": 0, "trials": 10}
    problem = parse_problem(problem_path)
    flags = {"field": None, "strong": False, "module": None, "kind": None,
             "seed": 0, "trials": 10, "json": None, "timing": False}
    assert run("tor", problem, flags)["inputs"]["flags"] == echoed
    for flag, value in (("strong", True), ("seed", 7), ("trials", 3)):
        with pytest.raises(ValidationError):
            run("tor", problem, {**flags, flag: value})


@pytest.mark.parametrize("argv", [
    ["tor1-oracle"], ["scomplex"], ["pcomplex"], ["spectral", "--kind", "interior"],
])
def test_cli_box_read_where_accepted(problem_path, capsys, argv):
    assert main([argv[0], problem_path, *argv[1:], "--box", "2,2"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["box"] == [2, 2]


@pytest.mark.parametrize("command", ["tor", "tor1-oracle", "scomplex", "pcomplex"])
def test_cli_huge_box_exits_2(problem_path, capsys, command):
    """A box of more than MAX_BOX_POINTS degrees is refused, not swept."""
    assert main([command, problem_path, "--box", "100000,100000"]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ParamOutOfRange"


@pytest.mark.parametrize("argv", [
    ["scomplex", "--kind", "tilde"], ["pcomplex", "--kind", "tilde"],
    ["support", "--module", "I2"],
])
def test_cli_flag_read_where_accepted(problem_path, capsys, argv):
    assert main([argv[0], problem_path, *argv[1:]]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["flags"][argv[1][2:]] == argv[2]


@pytest.mark.parametrize("fields", [
    {"ideals": {"I": [[True, 0]]}},
    {"ideals": {"I": [[1, False]]}},
    {"ideals": {"I": [[1, 0]]}, "box": [True, False]},
    {"ideals": {"I": [[1, 0]]}, "box": [2, True]},
])
def test_cli_boolean_exponents_exit_2(tmp_path, capsys, fields):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"variables": ["x", "y"], **fields}))
    with pytest.raises(ValidationError):
        parse_problem(str(path))
    assert main(["tor", str(path)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("fields", [
    {"variables": [["x"], "y"]},
    {"variables": ["x", {"y": 1}]},
    {"variables": ["x", "y"], "module": ["I"]},
    {"variables": ["x", "y"], "module": {"I": 1}},
])
def test_cli_unhashable_names_exit_2(tmp_path, capsys, fields):
    """A list or object as a variable name or as the module is refused as
    a schema error, not with a raw TypeError."""
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"ideals": {"I": [[1, 0]]}, **fields}))
    with pytest.raises(ValidationError):
        parse_problem(str(path))
    assert main(["tor", str(path)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("variables", [["x", "y"], [1, None], [True, "y"]])
def test_cli_accepts_json_scalar_names(tmp_path, capsys, variables):
    """Variable names are any distinct JSON scalars, and the module any
    name of an ideal."""
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"variables": variables, "module": "J",
                                "ideals": {"I": [[1, 0]], "J": [[0, 1]]}}))
    assert parse_problem(str(path)).variables == variables
    assert main(["tor", str(path)]) == 0


@pytest.mark.parametrize("grading", [
    [[True, "a"]],
    [],
    [[1, 0], [True, 1]],
    [[1, 0.5]],
    [[1, "1"]],
    [[1, None]],
    [[1, 0, 0]],
    [[1]],
    {"x": [1, 0]},
    [1, 0],
])
def test_cli_bad_grading_exit_2(tmp_path, capsys, grading):
    path = tmp_path / "grading.json"
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": [[1, 0]]}, "grading": grading}))
    with pytest.raises(ValidationError):
        parse_problem(str(path))
    assert main(["tor", str(path)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ValidationError"


def test_cli_grading_takes_negative_integers(tmp_path, capsys):
    path = tmp_path / "grading.json"
    grading = [[1, 1], [-2, 0]]
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": [[1, 0]]}, "grading": grading}))
    assert parse_problem(str(path)).grading == grading
    assert main(["tor", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"]["problem"]["grading"] == grading


def test_cli_invariant_failure_exit_code(problem_path, capsys, monkeypatch):
    from homotor.gcomplex import GradedComplex

    masked_rank = GradedComplex._masked_rank
    monkeypatch.setattr(GradedComplex, "_masked_rank", lambda c, i, s, t, fld: (
        masked_rank(c, i, s, t, fld) + bool(c._block(i, s, t, fld.p))))
    assert main(["spectral", problem_path, "--kind", "interior"]) == 3
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "InvariantBroken"


def test_cli_support_command(problem_path, capsys):
    assert main(["support", problem_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["p=1"]["passed"]
    assert report["results"]["p=2"]["passed"]


def test_cli_betti_unknown_module_exit_2(problem_path, capsys):
    assert main(["betti", problem_path, "--module", "Z"]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ValidationError"
    assert main(["betti", problem_path, "--module", "I2"]) == 0
    assert list(json.loads(capsys.readouterr().out)["results"]) == ["I2"]


@pytest.mark.parametrize("flags", [[], ["--module", "J"]])
def test_cli_tor_box_is_the_family_box(tmp_path, capsys, flags):
    """tor and tor --module tabulate over family_box by default; a --box
    that misses it in one coordinate exits 2 with BoxTooSmall."""
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": [[1, 0]], "J": [[2, 0], [1, 1], [0, 2]]}}))
    problem = parse_problem(str(path))
    coeff = problem.ideals["J"] if flags else None
    box = list(family_box(problem.family(), coeff))
    assert main(["tor", str(path), *flags]) == 0
    assert json.loads(capsys.readouterr().out)["box"] == box
    for k in range(2):
        smaller = [b - (j == k) for j, b in enumerate(box)]
        assert main(["tor", str(path), *flags, "--box", ",".join(map(str, smaller))]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "BoxTooSmall"


@pytest.mark.parametrize("kind", ["kcone", "kcone_augmented", "interior",
                                  "interior_augmented"])
def test_cli_spectral_filtration_kinds_reject_a_module(tmp_path, capsys, kind):
    """The four multicomplex filtrations have no coefficient module: a module
    from the flag or from the problem file exits 2 instead of being
    ignored."""
    ideals = {"I": [[2, 0], [1, 1]], "J": [[0, 2], [1, 0]]}
    for module, flag in ((None, ["--module", "J"]), ("J", [])):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps({"variables": ["x", "y"], "ideals": ideals,
                                    "module": module}))
        assert main(["spectral", str(path), "--kind", kind, *flag]) == 2
        diag = json.loads(capsys.readouterr().out)
        assert diag["error"]["type"] == "ValidationError"
        assert main(["spectral", str(path), "--kind", "product_to_sum", *flag]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["box"] == [4, 5]  # (3, 3) for the family, plus J's (1, 2)


@pytest.fixture
def partition_path(tmp_path):
    """Two variable blocks: (x) and (y, z)."""
    path = tmp_path / "partition.json"
    path.write_text(json.dumps({
        "variables": ["x", "y", "z"],
        "ideals": {"A": [[1, 0, 0]], "B": [[0, 1, 0], [0, 0, 1]]},
    }))
    return str(path)


@pytest.mark.parametrize("subset", ["0,1,2", "0,0", "2"])
def test_cli_support_bad_subset_exit_2(partition_path, capsys, subset):
    """--subset names distinct ideals of the family; its length is p."""
    assert main(["support", partition_path, "--subset", subset]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ValidationError"


def test_cli_support_subset_sets_p(partition_path, capsys):
    assert main(["support", partition_path, "--subset", "1,0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["results"]) == ["p=2"]


def test_cli_support_subset_names_the_ideals(partition_path, capsys):
    """--subset 0 checks the block (x) alone and --subset 1 the block (y, z)."""
    results = {}
    for subset, block in (("0", [0]), ("1", [1, 2])):
        assert main(["support", partition_path, "--subset", subset]) == 0
        report = json.loads(capsys.readouterr().out)
        alone = supportoftors_check([MonomialIdeal.variables(3, block)], None,
                                    [1])[1].to_json()
        assert report["results"] == {"p=1": json.loads(json.dumps(alone))}
        results[subset] = report["results"]["p=1"]
    assert results["0"]["context"] != results["1"]["context"]


def test_cli_support_subset_needs_a_variable_partition(tmp_path, capsys):
    """--subset names blocks of a disjoint variable partition; on any other
    family it exits 2 instead of being echoed and ignored."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": [[1, 1]], "J": [[0, 1]]}}))
    assert main(["support", str(path), "--subset", "0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"
    assert main(["support", str(path)]) == 0


def test_cli_support_zero_ideal_takes_the_per_ideal_path(tmp_path, capsys):
    """The zero ideal has no variable block, so a family holding it is not a
    variable partition: support reports each ideal's region, and --subset
    exits 2."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": [], "J": [[1, 0]]}}))
    assert main(["support", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert list(results) == ["I", "J", "compare_first_two"]
    assert main(["support", str(path), "--subset", "0"]) == 2
    diag = json.loads(capsys.readouterr().out)["error"]
    assert diag["type"] == "ValidationError" and "--subset needs" in diag["message"]


@pytest.mark.parametrize("command", ["betti", "a8", "rigidity"])
def test_cli_more_than_16_variables_exit_2(tmp_path, capsys, command):
    """The Krull dimension search is bounded before any table is built."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "variables": [f"x{k}" for k in range(17)],
        "ideals": {"I": [[1] + [0] * 16]},
    }))
    assert main([command, str(path)]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ParamOutOfRange"


def test_cli_more_commands(problem_path, capsys):
    for cmd in ("betti", "indep", "scomplex", "pcomplex", "rigidity", "a8",
                "equiv-exactness"):
        assert main([cmd, problem_path]) == 0, cmd
        capsys.readouterr()
    assert main(["indep", problem_path, "--strong"]) == 0
    capsys.readouterr()


def test_selftest_deterministic(capsys):
    assert main(["selftest", "--seed", "42", "--trials", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest", "--seed", "42", "--trials", "5"]) == 0
    assert capsys.readouterr().out == first


def test_selftest_rejects_negative_trials(capsys):
    assert main(["selftest", "--trials", "-1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValidationError"
    assert main(["selftest", "--trials", "0"]) == 0


def test_random_instance_contract():
    a = random_instance(7, n_vars=2, n_ideals=2, max_gens=2, max_exp=2)
    b = random_instance(7, n_vars=2, n_ideals=2, max_gens=2, max_exp=2)
    assert a == b
    for seed in range(100):
        fam = random_instance(seed, n_vars=3, n_ideals=3, max_gens=3, max_exp=2)
        for ideal in fam:
            assert not ideal.is_unit() and not ideal.is_zero()
    with pytest.raises(ParamOutOfRange):
        random_instance(0, n_vars=5)
    with pytest.raises(ParamOutOfRange):
        random_instance(0, max_exp=3)


def _sample_from_the_list(box, cap=12):
    cells = list(iter_box(box))
    if len(cells) <= cap:
        return cells
    stride = max(1, len(cells) // (cap - 1))
    picked = cells[::stride][: cap - 1]
    if cells[-1] not in picked:
        picked.append(cells[-1])
    return picked


def test_sample_degrees_unranks_the_listed_choice():
    boxes = [box for n in (1, 2, 3) for box in itertools.product(range(5), repeat=n)]
    assert (1, 2, 0) in boxes  # 6 cells: all of them are taken
    for box in boxes:
        assert _sample_degrees(box) == _sample_from_the_list(box), box
