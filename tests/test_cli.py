"""Problem parsing, command dispatch, exit codes, output determinism."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

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
from homotor.gcomplex import resolution
from homotor import cli, errors, gcomplex, multicomplex, spectral, sumprod
from homotor.monomial import MonomialIdeal, iter_box
from homotor.multicomplex import tensor
from homotor.spectral import build_filtration
from homotor.sumprod import mv_total_complex
from homotor.support import supportoftors_check
from homotor.torlab import family_box, multi_tor


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


NOT_UTF8 = b"\xff\xfe{}"  # a UTF-16 byte-order mark, invalid as UTF-8
DEEP = b"[" * 200_000  # nested past any recursion limit
REPEATED = b'{"variables": ["x", "y"], "ideals": {"I": [[1, 0]], "I": [[0, 1]], "J": [[1, 1]]}}'


def test_parse_rejects_garbage(tmp_path, capsys):
    """Text that is not JSON, a missing file, bytes that are not UTF-8 and
    nesting too deep to parse are one ``ParseError``, which ``main`` exits
    2 on, never a raw traceback."""
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_problem(str(path))
    with pytest.raises(ParseError):
        parse_problem(str(tmp_path / "missing.json"))
    for content, message in ((NOT_UTF8, "can't decode byte 0xff"), (DEEP, "recursion")):
        path.write_bytes(content)
        with pytest.raises(ParseError, match=message):
            parse_problem(str(path))
        assert main(["tor", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


def test_a_repeated_key_is_refused(tmp_path, capsys):
    """A key given twice, in the ideals as at the top level, is refused by
    name rather than collapsed onto its last value."""
    path = tmp_path / "twice.json"
    path.write_bytes(REPEATED)
    with pytest.raises(ValidationError, match="^problem file repeats the key 'I'$"):
        parse_problem(str(path))
    assert main(["tor", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "ValidationError", "message": "problem file repeats the key 'I'"}
    path.write_text('{"variables": ["x"], "variables": ["y"], "ideals": {"I": [[1]]}}')
    with pytest.raises(ValidationError, match="'variables'"):
        parse_problem(str(path))


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


def _assert_abutment(report, filtered):
    """Each sampled degree's E^infinity records sum, diagonal by diagonal,
    to the nonzero homology of the filtered total at that degree."""
    for key, pg in report["results"]["pages"].items():
        sums = {}
        for cell in pg["e_infinity"]:
            i = cell["p"] + cell["q"]
            sums[i] = sums.get(i, 0) + cell["dim"]
        h = filtered.total.homology_at(tuple(int(g) for g in key.split(",")))
        assert sums == {i: d for i, d in h.items() if d}, key
        assert pg["converged"] is True


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
    family = parse_problem(str(path)).family()
    _assert_abutment(report, build_filtration(
        tensor([resolution(i) for i in family]), kind="kcone"))
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
    problem = parse_problem(str(path))
    _assert_abutment(report, mv_total_complex("sum_to_product", problem.family(),
                                              problem.ideals["M"]))


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


def test_cli_module_stays_a_family_member(tmp_path, capsys):
    """The module's ideal is also one of the family: ``tor`` on I = (x),
    J = (y) with module J tabulates Tor(R/(x), R/(y); R/(y)), whose Tor_1
    is 1 at (0, 1), not Tor(R/(x); R/(y)), which has Tor_0 only."""
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y"], "module": "J",
                                "ideals": {"I": [[1, 0]], "J": [[0, 1]]}}))
    assert main(["tor", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    x, y = MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])
    assert report["results"]["tor"] == [{"i": 0, "degree": [0, 0], "dim": 1},
                                        {"i": 1, "degree": [0, 1], "dim": 1}]
    assert report["results"]["tor"] == multi_tor([x, y], coefficient=y).records()
    assert multi_tor([x], coefficient=y).nonzero_indices() == [0]


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


@pytest.mark.parametrize("kind", cli.SPECTRAL_KINDS + cli.MV_KINDS)
def test_cli_spectral_checks_the_family_and_box_before_it_builds(tmp_path, capsys,
                                                                 monkeypatch, kind):
    """spectral checks the family and refuses a box below the family box
    before it builds a complex: --box 0,0,0 exits 2 with BoxTooSmall, and
    no Multicomplex or GradedComplex is constructed."""
    def built(self, *args, **kwargs):
        raise AssertionError("a complex was built before the box was checked")

    monkeypatch.setattr(multicomplex.Multicomplex, "__init__", built)
    monkeypatch.setattr(gcomplex.GradedComplex, "__init__", built)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y", "z"],
                                "ideals": {"I1": [[1, 0, 0]], "I2": [[0, 1, 1]]}}))
    assert main(["spectral", str(path), "--kind", kind, "--box", "0,0,0"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "BoxTooSmall", "message": "box (0, 0, 0) does not dominate (1, 1, 1)"}


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


def test_cli_tor_refuses_a_tensor_past_the_bound(tmp_path, capsys, monkeypatch):
    """Ten 2-generator ideals leave nine 4-summand resolutions to tensor,
    4^9 summands, past MAX_TENSOR_SUMMANDS: tor exits 2 with
    ParamOutOfRange before any product summand or multicomplex is built.
    The counters are live: a 2-ideal tor builds both."""
    built = {"products": 0, "multicomplexes": 0}
    product, init = multicomplex._product_summand, multicomplex.Multicomplex.__init__

    def counted_product(combo):
        built["products"] += 1
        return product(combo)

    def counted_init(self, *args, **kwargs):
        built["multicomplexes"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(multicomplex, "_product_summand", counted_product)
    monkeypatch.setattr(multicomplex.Multicomplex, "__init__", counted_init)
    path = tmp_path / "ten.json"
    ideals = {f"I{k}": [[k + 1, 0, 0], [0, 1, k + 1]] for k in range(10)}
    path.write_text(json.dumps({"variables": ["x", "y", "z"], "ideals": ideals}))
    assert main(["tor", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParamOutOfRange"
    assert f"at most {multicomplex.MAX_TENSOR_SUMMANDS} summands" in error["message"]
    assert "make 262144" in error["message"]
    assert built == {"products": 0, "multicomplexes": 0}
    two = {k: ideals[k] for k in ("I0", "I1", "I2")}
    path.write_text(json.dumps({"variables": ["x", "y", "z"], "ideals": two}))
    assert main(["tor", str(path)]) == 0
    assert built["products"] > 0 and built["multicomplexes"] == 1


def test_cli_spectral_refuses_a_cone_past_the_bound(tmp_path, capsys, monkeypatch):
    """The kcone cone of 11 principal ideals has 3^11 summands and the
    kcone_augmented cone of 10 has 2 * 3^10, both past MAX_TENSOR_SUMMANDS:
    spectral exits 2 with ParamOutOfRange, and the only multicomplex built
    is the cone's input, the tensor of the resolutions (2^n summands).
    kcone_augmented counts its cone on that tensor, so no psi is composed
    for an extension.  The kcone cone of 10 ideals is admitted by the
    count (3^10 summands)."""
    built = []
    init = multicomplex.Multicomplex.__init__

    def counted_init(self, n_axes, n_vars, terms, *args, **kwargs):
        built.append(sum(map(len, terms.values())))
        init(self, n_axes, n_vars, terms, *args, **kwargs)

    def composed(*args):
        raise AssertionError("psi composed for a refused cone")

    monkeypatch.setattr(multicomplex.Multicomplex, "__init__", counted_init)
    monkeypatch.setattr(multicomplex, "_compose_chain", composed)
    path = tmp_path / "principal.json"
    for kind, n, size, inputs in (("kcone", 11, 3 ** 11, [2 ** 11]),
                                  ("kcone_augmented", 10, 2 * 3 ** 10, [2 ** 10])):
        built.clear()
        ideals = {f"I{k}": [[k + 1, 0, 1]] for k in range(n)}
        path.write_text(json.dumps({"variables": ["x", "y", "z"], "ideals": ideals}))
        assert main(["spectral", str(path), "--kind", kind]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "ParamOutOfRange", "message": (
            f"koszul_cone supports at most {multicomplex.MAX_TENSOR_SUMMANDS} "
            f"summands, its copies make {size}")}
        assert built == inputs
    assert 3 ** 10 <= multicomplex.MAX_TENSOR_SUMMANDS < 2 * 3 ** 10


def test_cli_s_and_p_are_refused_past_the_ideal_bound(tmp_path, capsys, monkeypatch):
    """S, S_- and P have one summand per subset of the family: on
    MAX_SP_IDEALS + 1 principal ideals, scomplex and pcomplex of both
    kinds and both Mayer-Vietoris spectral kinds, with and without a
    module, exit 2 with ParamOutOfRange before ``exterior_complex`` runs,
    so no GradedComplex is built.  On MAX_SP_IDEALS ideals the three
    builders are admitted."""
    built, laid_out = [], []
    init, exterior = gcomplex.GradedComplex.__init__, sumprod.exterior_complex

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(gcomplex.GradedComplex, "__init__", counted_init)
    monkeypatch.setattr(sumprod, "exterior_complex",
                        lambda m, *args: laid_out.append(m) or exterior(m, *args))
    bound = sumprod.MAX_SP_IDEALS
    path = tmp_path / "principal.json"
    ideals = {f"I{k}": [[k + 1, 0, 1]] for k in range(bound + 1)}
    path.write_text(json.dumps({"variables": ["x", "y", "z"], "ideals": ideals}))
    for command, *flags in (["scomplex"], ["scomplex", "--kind", "tilde"], ["pcomplex"],
                            ["pcomplex", "--kind", "tilde"],
                            ["spectral", "--kind", "sum_to_product"],
                            ["spectral", "--kind", "product_to_sum", "--module", "I0"]):
        assert main([command, str(path), *flags]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "ParamOutOfRange", "message": (
            f"S and P support at most {bound} ideals, the family has {bound + 1}")}
        assert built == laid_out == [], (command, flags)
    family = [MonomialIdeal(3, [(k + 1, 0, 1)]) for k in range(bound)]
    assert len(sumprod.build_s_complex(family).terms) == bound + 1
    assert len(sumprod.build_p_complex(family).terms) == bound
    assert len(mv_total_complex("sum_to_product", family).total.terms) == bound
    assert laid_out == [bound] * 3


def test_cli_checkers_refuse_past_the_ideal_bound_before_any_table(tmp_path, capsys,
                                                                   monkeypatch):
    """``verify`` and ``equiv-exactness`` build S and P of the whole family,
    so on MAX_SP_IDEALS + 1 principal ideals both refuse the family with
    ParamOutOfRange, exit 2, before they visit a subfamily: no ideal is
    resolved and no Tor table, H table, GradedComplex or Multicomplex is
    built first."""
    work = []
    for module, name in ((sumprod, "multi_tor"), (sumprod, "augmented_interior_H"),
                         (gcomplex, "resolution")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k:
                            work.append(name) or real(*a, **k))
    for cls in (gcomplex.GradedComplex, multicomplex.Multicomplex):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *a, init=init, cls=cls, **k:
                            work.append(cls.__name__) or init(self, *a, **k))
    bound = sumprod.MAX_SP_IDEALS
    message = f"S and P support at most {bound} ideals, the family has {bound + 1}"
    path = tmp_path / "principal.json"
    ideals = {f"I{k}": [[k + 1, 0, 1]] for k in range(bound + 1)}
    path.write_text(json.dumps({"variables": ["x", "y", "z"], "ideals": ideals}))
    for command in ("verify", "equiv-exactness"):
        assert main([command, str(path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "ParamOutOfRange", "message": message}
    family = [MonomialIdeal(3, [(k + 1, 0, 1)]) for k in range(bound + 1)]
    for checker in (sumprod.verify_identities, sumprod.exactness_equivalences):
        with pytest.raises(ParamOutOfRange, match=f"^{message}$"):
            checker(family)
    assert work == []


def test_cli_kcone_augmented_refuses_a_broken_extension(problem_path, capsys, monkeypatch):
    """kcone_augmented cones the extension's unchecked parts, and the cone
    checks them: with one coefficient of psi at the top vertex doubled,
    the corner square no longer commutes, and spectral exits 3 with
    CompositionNonzero, as a built extension would.  The unbroken
    extension is admitted."""
    assert main(["spectral", problem_path, "--kind", "kcone_augmented"]) == 0
    capsys.readouterr()
    attach = multicomplex._attach_corner

    def broken(m, vertices):
        terms, diffs = attach(m, vertices)
        psi = diffs[((1,) * m.n_axes + (1,), m.n_axes)]
        s = min(psi)
        psi[s] = [(t, 2 * c) for t, c in psi[s]]
        return terms, diffs

    monkeypatch.setattr(multicomplex, "_attach_corner", broken)
    assert main(["spectral", problem_path, "--kind", "kcone_augmented"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "CompositionNonzero"


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


def _faulty(fault):
    """A stand-in maker for ``exterior_complex``: from the original, one
    that applies fault to the (terms, d) it returns."""
    def stand_in(orig):
        def faulty(*args):
            terms, d = orig(*args)
            fault(terms, d)
            return terms, d
        return faulty
    return stand_in


def _double_the_first_coefficient(terms, d):
    """The first entry of the last map doubled, so it and the map before
    no longer compose to 0."""
    rows = d[max(d)]
    (t, c), *rest = rows[min(rows)]
    rows[min(rows)] = [(t, 2 * c), *rest]


def _reversed_levels(by_weight):
    return lambda m, weight: by_weight(m, lambda q: len(q) - weight(q))


def _ideal_kind(ideal):
    return gcomplex.GradedComplex(ideal.n, {0: [gcomplex.summand(ideal)]}, {}, gcomplex.IDEAL)


#: (command, what is replaced, its faulty stand-in, from the original, the
#: diagnostic's type, a piece of its message): one builder made wrong per
#: internal class and raise site, as only a bug in homotor could make it.
INTERNAL_FAULTS = {
    "composition": (["scomplex"], (sumprod, "exterior_complex"),
                    _faulty(_double_the_first_coefficient),
                    "CompositionNonzero", "d∘d != 0 from degree"),
    "levels": (["spectral", "--kind", "interior"], (spectral, "_by_weight"), _reversed_levels,
               "FiltrationViolation", "not inside"),
    "tensor kind": (["spectral", "--kind", "interior"], (cli, "resolution"),
                    lambda orig: _ideal_kind, "MixedKinds", "tensor factors must consist"),
    "base change kind": (["tor"], (gcomplex, "resolution"), lambda orig: _ideal_kind,
                         "MixedKinds", "base change needs"),
    "ideal_augment kind": (["verify"], (sumprod, "hypercube_augment"),
                           lambda orig: lambda m: gcomplex.base_change(
                               orig(m), MonomialIdeal(m.n_vars, [(1,) * m.n_vars])),
                           "MixedKinds", "free summands only"),
    "_rows": (["tor"], (gcomplex, "exterior_complex"),
              _faulty(lambda terms, d: d[1][0].append((99, 1))),
              "ValidationError", "entry 0 -> 99 outside its"),
    "_entry_valid": (["tor"], (gcomplex, "exterior_complex"),
                     _faulty(lambda terms, d: terms.update({0: (gcomplex.free_summand((9, 9)),)})),
                     "ValidationError", "inhomogeneous or ill-defined entry"),
    "float index": (["tor"], (gcomplex, "exterior_complex"),
                    _faulty(lambda terms, d: d[1].update({0.0: d[1].pop(0)})),
                    "ValidationError", "summand index 0.0 is not an integer"),
    "summand length": (["tor"], (gcomplex, "exterior_complex"), _faulty(
                           lambda terms, d: terms.update({0: (gcomplex.free_summand((0,) * 3),)})),
                       "LengthMismatch", "summand length != variable count"),
    "position arity": (["spectral", "--kind", "interior"], (cli, "tensor"),
                       lambda orig: lambda fs: multicomplex.Multicomplex(
                           len(fs) + 1, fs[0].n, orig(fs).terms, {}),
                       "LengthMismatch", "has wrong arity"),
}


@pytest.mark.parametrize("case", INTERNAL_FAULTS)
def test_an_internal_failure_exits_3_with_its_type(case, tmp_path, capsys, monkeypatch):
    """A builder made wrong fails one of the checks no problem file
    reaches: ``main`` exits 3, not 2, and the diagnostic keeps the
    concrete class name, while a library caller still catches the input
    class it has always caught."""
    argv, (module, name), stand_in, error_type, message = INTERNAL_FAULTS[case]
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": [[1, 0], [0, 1]], "J": [[2, 0], [0, 1]]}}))
    monkeypatch.setattr(module, name, stand_in(getattr(module, name)))
    assert main([argv[0], str(path), *argv[1:]]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == error_type and message in error["message"]
    with pytest.raises(getattr(errors, error_type), match=message):
        run(argv[0], parse_problem(str(path)), {"kind": argv[2] if argv[1:] else None})


#: Families on which each checker command counts its resolutions: three
#: 2-generator ideals whose sums and products repeat, a drawn family, and a
#: family that lists one ideal twice.
RESOLVED_FAMILIES = [
    {"I": [[2, 0, 0], [1, 1, 0]], "J": [[0, 2, 0], [0, 1, 1]], "K": [[1, 0, 1], [0, 0, 2]]},
    {f"I{k}": [list(g) for g in ideal.gens]
     for k, ideal in enumerate(random_instance(7, n_vars=3, n_ideals=3, max_gens=3))},
    {"I": [[1, 0, 0], [0, 1, 0]], "J": [[1, 0, 0], [0, 1, 0]], "K": [[0, 0, 2]]},
]

#: A family of variable blocks, which ``support`` gives its union check.
BLOCK_FAMILY = {"A": [[1, 0, 0, 0]], "B": [[0, 1, 0, 0], [0, 0, 1, 0]], "C": [[0, 0, 0, 1]]}

#: A family on which ``betti`` and ``support --module J`` build one table per
#: ideal: I = (x^2, y^2), J = (xy, x^3), K = (y^3, x^2 y), not variable
#: blocks, each with as many generators as variables, so every Betti table
#: resolves the residue field's ideal (x, y).
LOOPED_FAMILY = {"I": [[2, 0], [0, 2]], "J": [[1, 1], [3, 0]], "K": [[0, 3], [2, 1]]}


@pytest.mark.parametrize("command, flags", [
    ("verify", {}), ("equiv-exactness", {}), ("indep", {"strong": True}),
    ("rigidity", {}), ("a8", {}), ("support", {}), ("support", {"module": "B"}),
    ("betti", {}), ("support", {"module": "J"})])
def test_each_checker_resolves_each_ideal_at_most_once(command, flags, tmp_path,
                                                       monkeypatch):
    """A checker makes one map of resolutions per call and hands it to every
    Tor table, Betti table, augmented interior and Mayer-Vietoris total it
    builds, so no command resolves an ideal twice; the support check also
    resolves its module once for all its tables and totals.  The CLI's own
    loops do the same: ``betti`` over every ideal and ``support`` over the
    ideals of a family that is not made of variable blocks."""
    resolved = []
    real = gcomplex.resolution
    monkeypatch.setattr(gcomplex, "resolution",
                        lambda ideal: resolved.append(ideal) or real(ideal))
    if command == "betti" or flags.get("module") == "J":
        families = [LOOPED_FAMILY]
    else:
        families = [BLOCK_FAMILY] if command == "support" else RESOLVED_FAMILIES
    for ideals in families:
        n = len(next(iter(ideals.values()))[0])
        path = tmp_path / "prob.json"
        path.write_text(json.dumps({"variables": ["x", "y", "z", "w"][:n], "ideals": ideals}))
        resolved.clear()
        run(command, parse_problem(str(path)), flags)
        assert resolved and max(Counter(resolved).values()) == 1, (ideals, resolved)


def test_verify_takes_a_family_with_an_ideal_past_the_taylor_bound(tmp_path, capsys):
    """verify leaves the ideal with the most generators unresolved in its Tor
    table and its augmented interior alike, and S and P resolve nothing,
    so a family with one 17-generator ideal passes; tor on two such ideals
    must resolve one of them and is still refused with exit 2."""
    degree5 = [list(g) for g in itertools.product(range(6), repeat=3) if sum(g) == 5][:17]
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y", "z"],
                                "ideals": {"I": degree5, "J": [[1, 0, 0], [0, 2, 0]]}}))
    assert main(["verify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(a["passed"] for a in report["assertions"])
    path.write_text(json.dumps({"variables": ["x", "y", "z"],
                                "ideals": {"I": degree5, "J": degree5[::-1]}}))
    assert main(["tor", str(path)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParamOutOfRange" and "at most 16 generators" in error["message"]


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
    """--subset names distinct ideals of the family, by the indices of the
    message; its length is p."""
    assert main(["support", partition_path, "--subset", subset]) == 2
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"]["type"] == "ValidationError"
    assert diag["error"]["message"] == "--subset must name distinct ideal indices in 0..1"


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


_KEYS = ("characteristic", "variables", "ideals", "module", "grading", "box")
_NAMES = st.text("xyIJ", max_size=2)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(-2, 4) | _NAMES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_NAMES, kids, max_size=3),
    max_leaves=6)
_IDEALS = st.dictionaries(
    st.sampled_from(["I", "J", "K"]),
    st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), max_size=2),
    min_size=1, max_size=3)


def _render(pairs) -> bytes:
    """A JSON object written pair by pair, so a key may repeat."""
    return ("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}").encode()


@st.composite
def problem_files(draw):
    """Problem-file bytes: random bytes, deep nesting, or an object whose
    entries are small, valid or random JSON values, perhaps repeated."""
    shape = draw(st.sampled_from(["bytes", "deep", "object"]))
    if shape == "bytes":
        return draw(st.binary(max_size=24))
    if shape == "deep":
        opening = draw(st.sampled_from([b"[", b'{"a": ']))
        return opening * draw(st.sampled_from([8, 5000, 200_000]))
    valid = {"variables": ["x", "y"], "ideals": draw(_IDEALS)}
    pairs = [(k, draw(st.just(valid[k]) | _JSON_VALUES) if k in valid else draw(_JSON_VALUES))
             for k in draw(st.lists(st.sampled_from(_KEYS), max_size=7))]
    pairs = [(k, v) for k, v in valid.items() if k not in dict(pairs)] + pairs
    return _render(pairs)


def _repeats_a_key(content: bytes) -> bool:
    """Whether the content parses as JSON with some object repeating a key."""
    repeated = []

    def pairs_hook(pairs):
        repeated.extend(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        return dict(pairs)
    try:
        json.loads(content.decode("utf-8"), object_pairs_hook=pairs_hook)
    except (ValueError, RecursionError):
        return False
    return bool(repeated)


@settings(deadline=None, max_examples=50)
@given(content=problem_files(),
       command=st.sampled_from([["tor"], ["scomplex"], ["support"], ["verify"],
                                ["spectral", "--kind", "product_to_sum"]]))
@example(content=NOT_UTF8, command=["tor"])
@example(content=DEEP, command=["tor"])
@example(content=REPEATED, command=["tor"])
def test_any_problem_file_exits_cleanly(tmp_path_factory, content, command):
    """Whatever a problem file holds, ``main`` exits 0, 1 or 2 and lets no
    exception escape; it exits 1 only with a failed assertion in its
    report, and 2 on any file that repeats a key.  No input reaches an
    ``InternalError``, the classes that exit 3: the class raised through
    ``run`` is read, not only the exit code."""
    path = tmp_path_factory.mktemp("fuzz") / "problem.json"
    path.write_bytes(content)
    printed = io.StringIO()
    raised = []

    def recording_run(*args):
        try:
            return run(*args)
        except Exception as exc:
            raised.append(exc)
            raise
    with contextlib.redirect_stdout(printed), mock.patch.object(cli, "run", recording_run):
        code = main([command[0], str(path), *command[1:]])
    out = json.loads(printed.getvalue())
    assert not any(isinstance(exc, errors.InternalError) for exc in raised), raised
    assert code in (0, 1, 2)
    assert (code == 1) == any(a["passed"] is False for a in out.get("assertions", []))
    if _repeats_a_key(content):
        assert code == 2 and out["error"]["type"] == "ValidationError"
