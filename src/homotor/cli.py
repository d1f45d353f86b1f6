"""Problem-file ingestion, command dispatch and JSON reporting.

Problem files are JSON: a prime characteristic, an ordered variable list,
named ideals as lists of exponent vectors, an optional coefficient module
(named ideal), an optional coarse grading matrix and an optional box
override.  The module's ideal stays in the family: ``tor`` on I, J with
module J tabulates Tor(R/I, R/J; R/J).  The grading is validated and
echoed in every report, but no command reads it.  Reports echo their
inputs and serialize every table as a sorted array of {"i", "degree",
"dim"} records, so identical inputs produce byte-identical output;
wall-clock timing is opt-in for that reason.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from functools import partial

from . import __version__
from .errors import (
    HomotorError,
    InternalError,
    ParamOutOfRange,
    ParseError,
    UnknownCommand,
    ValidationError,
)
from .exactlin import DEFAULT_CHARACTERISTIC, GF
from .monomial import MonomialIdeal, Multidegree, dominating_box
from .spectral import build_filtration, pages
from .sumprod import (
    build_p_complex,
    build_s_complex,
    complex_homology_table,
    diff_tables,
    exactness_equivalences,
    mv_total_complex,
    verify_identities,
)
from .support import region_compare, supportoftors_check, variable_blocks
from .torlab import (
    A8_CONDITIONS,
    betti_table,
    family_box,
    independence,
    multi_tor,
    rigidity_check,
    serre_a8_check,
    tor1_oracle,
)
from .multicomplex import tensor
from .gcomplex import resolution

#: The flags a command rejects when it does not read them (a value of None
#: is not given), in the order they are checked.
CHECKED_FLAGS = ("box", "subset", "kind", "module", "strong", "seed", "trials")

#: The values ``main`` fills in for these flags after checking that no
#: command is given one it does not read; every report echoes them, and
#: ``run`` takes them from any command.
FLAG_DEFAULTS = {"strong": False, "seed": 0, "trials": 10}

SPECTRAL_KINDS = ("kcone", "kcone_augmented", "interior", "interior_augmented")
MV_KINDS = ("sum_to_product", "product_to_sum")


class ProblemFile:
    def __init__(self, characteristic, variables, ideals, module=None,
                 grading=None, box=None):
        self.characteristic = characteristic
        self.variables = variables
        self.ideals = ideals  # name -> MonomialIdeal, insertion-ordered
        self.module = module
        self.grading = grading
        self.box = box

    def family(self):
        return list(self.ideals.values())

    def echo(self):
        return {
            "characteristic": self.characteristic,
            "variables": list(self.variables),
            "ideals": {
                name: [list(g) for g in ideal.gens]
                for name, ideal in self.ideals.items()
            },
            "module": self.module,
            "grading": self.grading,
            "box": list(self.box) if self.box else None,
        }


def _is_natural(value) -> bool:
    """A non-negative JSON integer; true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _unique_keys(pairs) -> dict:
    """A JSON object, refusing a repeated key rather than keep its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"problem file repeats the key {key!r}")
        out[key] = value
    return out


def parse_problem(path) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8, or nested too deeply
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("problem file must be a JSON object")
    char = GF(raw.get("characteristic", DEFAULT_CHARACTERISTIC)).p
    variables = raw.get("variables")
    if not isinstance(variables, list) or not variables or \
            any(isinstance(v, (list, dict)) for v in variables) or \
            len(set(variables)) != len(variables):
        raise ValidationError("variables must be a nonempty list of unique names")
    n = len(variables)
    ideals_raw = raw.get("ideals")
    if not isinstance(ideals_raw, dict) or not ideals_raw:
        raise ValidationError("ideals must be a nonempty object of generator lists")
    ideals = {}
    for name, gens in ideals_raw.items():
        if not isinstance(gens, list):
            raise ValidationError(f"ideal {name!r}: generators must be a list")
        for g in gens:
            if not isinstance(g, list) or len(g) != n or \
                    not all(_is_natural(e) for e in g):
                raise ValidationError(
                    f"ideal {name!r}: exponent vector {g!r} must have "
                    f"{n} non-negative integer entries"
                )
        ideals[name] = MonomialIdeal(n, [Multidegree(g) for g in gens])
    module = raw.get("module")
    if module is not None and (isinstance(module, (list, dict)) or module not in ideals):
        raise ValidationError(f"module {module!r} does not name an ideal")
    grading = raw.get("grading")
    if grading is not None:
        if not isinstance(grading, list) or not grading or any(
            not isinstance(r, list) or len(r) != n or
            not all(isinstance(v, int) and not isinstance(v, bool) for v in r)
            for r in grading
        ):
            raise ValidationError(
                f"grading must be a nonempty list of length-{n} rows of integers"
            )
    box = raw.get("box")
    if box is not None:
        if not isinstance(box, list) or len(box) != n or \
                not all(_is_natural(b) for b in box):
            raise ValidationError(f"box must be {n} non-negative integers")
        box = Multidegree(box)
    return ProblemFile(char, variables, ideals, module, grading, box)


def random_instance(seed: int, n_vars: int = 3, n_ideals: int = 3,
                    max_gens: int = 2, max_exp: int = 2):
    """A deterministic family of proper, nonzero monomial ideals."""
    if not 1 <= n_vars <= 4:
        raise ParamOutOfRange(f"n_vars {n_vars} outside 1..4")
    if not 1 <= n_ideals <= 4:
        raise ParamOutOfRange(f"n_ideals {n_ideals} outside 1..4")
    if not 1 <= max_gens <= 3:
        raise ParamOutOfRange(f"max_gens {max_gens} outside 1..3")
    if not 1 <= max_exp <= 2:
        raise ParamOutOfRange(f"max_exp {max_exp} outside 1..2")
    rng = random.Random(seed)
    family = []
    for _ in range(n_ideals):
        k = rng.randint(1, max_gens)
        gens = []
        for _ in range(k):
            g = [0] * n_vars
            while not any(g):
                g = [rng.randint(0, max_exp) for _ in range(n_vars)]
            gens.append(Multidegree(g))
        family.append(MonomialIdeal(n_vars, gens))
    return family


def _assertion(name, passed, witnesses=None):
    return {"name": name, "passed": bool(passed), "witnesses": witnesses or []}


def _sample_degrees(box, cap=12):
    """At most ``cap`` cells of the box: the lexicographic indices 0, stride,
    2 stride, ... and the last one, unranked without listing the box."""
    sizes = [b + 1 for b in box]
    volume = math.prod(sizes)
    if volume <= cap:
        indices = list(range(volume))
    else:
        stride = max(1, volume // (cap - 1))
        indices = list(range(0, stride * (cap - 1), stride))
        if indices[-1] != volume - 1:
            indices.append(volume - 1)
    cells = []
    for index in indices:
        cell = []
        for size in reversed(sizes):
            index, digit = divmod(index, size)
            cell.append(digit)
        cells.append(Multidegree(reversed(cell)))
    return cells


# -- commands: each handler fills in the report of one command --------------


def _tor(problem, flags, fld, box, report):
    family = problem.family()
    coeff = _flag_coefficient(problem, flags)
    table = multi_tor(family, coefficient=coeff, fld=fld, box=box)
    report["box"] = list(table.box)
    report["results"]["tor"] = table.records()


def _tor1_mismatches(family, fld, box=None):
    """The Tor_1 oracle table over the box, ``family_box`` by default, and
    the first eight degrees where multi_tor's Tor_1 differs from it."""
    table = multi_tor(family, fld=fld, box=box)
    oracle = tor1_oracle(family, fld=fld, box=box)
    return oracle, diff_tables(table.slice(1), oracle.slice(1), limit=8)


def _tor1_oracle(problem, flags, fld, box, report):
    oracle, mismatches = _tor1_mismatches(problem.family(), fld, box)
    report["box"] = list(oracle.box)
    report["results"]["tor1"] = oracle.records()
    report["assertions"].append(
        _assertion("tor1_oracle_equivalence", not mismatches, mismatches)
    )


def _betti(problem, flags, fld, box, report):
    """The Betti table of the module, or of every ideal, all from one map of
    resolutions (see ``multi_tor``), so the residue field's is built once."""
    name = _module_name(problem, flags)
    names = [name] if name else list(problem.ideals)
    resolutions: dict = {}
    for name in names:
        report["results"][name] = betti_table(_named_ideal(problem, name), fld,
                                              resolutions=resolutions).to_json()


def _indep(problem, flags, fld, box, report):
    strong = flags.get("strong", FLAG_DEFAULTS["strong"])
    _checks(partial(independence, strong=strong), "independence",
            problem, flags, fld, box, report)


def _complex(build, problem, flags, fld, box, report):
    """scomplex and pcomplex: the term ranks and homology of S or P."""
    c = build(problem.family(), variant=flags.get("kind") or "quotient")
    table = complex_homology_table(c, fld, box)
    report["box"] = list(table.box)
    report["results"]["ranks"] = {str(i): len(ss) for i, ss in sorted(c.terms.items())}
    report["results"]["homology"] = table.records()


def _checks(check, key, problem, flags, fld, box, report):
    """Every checker's report: the context of its CheckReport under
    ``results[key]``, and its assertions, a skipped one passing."""
    rep = check(problem.family(), fld)
    report["results"][key] = rep.context
    report["assertions"] = [
        _assertion(a["name"], a["passed"], a["witnesses"]) if a["checked"] else
        {"name": a["name"], "passed": True, "skipped": True, "witnesses": []}
        for a in rep.assertions
    ]


def _spectral(problem, flags, fld, box, report):
    kind = flags.get("kind")
    if kind not in SPECTRAL_KINDS + MV_KINDS:
        raise ValidationError(f"--kind must be one of {SPECTRAL_KINDS + MV_KINDS}")
    family = problem.family()
    coeff = _flag_coefficient(problem, flags)
    if kind in SPECTRAL_KINDS:
        if coeff is not None:
            raise ValidationError(f"--kind {kind} takes no module")
        filtered = build_filtration(tensor([resolution(i) for i in family]), kind=kind)
    else:
        filtered = mv_total_complex(kind, family, coeff)
    use_box = dominating_box(family_box(family, coeff), box)
    report["box"] = list(use_box)
    out = {}
    for gamma in _sample_degrees(use_box):
        pg = pages(filtered, gamma, fld)
        # pages raises InvariantBroken rather than return pages whose pairs miss a rank
        out[",".join(map(str, gamma))] = {
            "e1": _page_records(pg.e1),
            "e_infinity": _page_records(pg.e_infinity),
            "r_stab": pg.r_stab,
            "converged": True,
        }
    report["results"]["pages"] = out
    report["assertions"].append(_assertion("convergence", True))


def _support(problem, flags, fld, box, report):
    family = problem.family()
    coeff = _flag_coefficient(problem, flags)
    blocks = variable_blocks(family)
    subset = flags.get("subset")
    if not blocks and subset:
        raise ValidationError(
            "--subset needs a family of disjoint variable-generated ideals"
        )
    if blocks:
        s = len(family)
        if subset and (len(set(subset)) != len(subset)
                       or any(not 0 <= i < s for i in subset)):
            raise ValidationError(
                f"--subset must name distinct ideal indices in 0..{s - 1}"
            )
        if subset:
            family = [family[i] for i in sorted(subset)]
        ps = [len(subset)] if subset else list(range(1, s + 1))
        reps = supportoftors_check(family, coeff, ps, fld)
        for p, rep in reps.items():
            report["results"][f"p={p}"] = rep.to_json()
        report["assertions"].append(_assertion(
            "support_union_equality", all(rep.passed for rep in reps.values())
        ))
    else:  # per-ideal regions, from one map of resolutions (see ``multi_tor``)
        tables, resolutions = [], {}
        for name, ideal in problem.ideals.items():
            tables.append(multi_tor([ideal], coeff, fld, resolutions=resolutions))
            report["results"][name] = [list(c) for c in sorted(tables[-1].support())]
        if len(tables) >= 2:
            report["results"]["compare_first_two"] = region_compare(*tables[:2])


def _selftest(problem, flags, fld, box, report):
    """Deterministic random-instance sweep over the main checkers."""
    seed = flags.get("seed", FLAG_DEFAULTS["seed"])
    trials = flags.get("trials", FLAG_DEFAULTS["trials"])
    if trials < 0:
        raise ValidationError(f"--trials must be non-negative, got {trials}")
    summary = {"trials": trials, "families": []}
    failures = []
    for t in range(trials):
        family = random_instance(seed * 100003 + t, n_vars=2 + t % 2,
                                 n_ideals=2 + t % 2, max_gens=2, max_exp=2)
        summary["families"].append([[list(g) for g in ideal.gens] for ideal in family])
        _, mismatches = _tor1_mismatches(family, fld)
        if mismatches:
            failures.append({"trial": t, "check": "tor1_oracle",
                             "degree": mismatches[0]["degree"]})
        rep = rigidity_check(family, fld)
        if not rep.passed:
            failures.append({"trial": t, "check": "rigidity",
                             "violations": rep.context["violations"][:2]})
        a8 = serre_a8_check(family, fld)
        if not a8.passed:
            failures.append({"trial": t, "check": "a8",
                             "triple": [a8.context[c] for c in A8_CONDITIONS]})
    report["assertions"].append(_assertion("selftest", not failures, failures[:8]))
    summary["failures"] = len(failures)
    report["results"]["summary"] = summary


#: Every command: the flags it reads (of CHECKED_FLAGS; ``box`` also covers
#: the problem file's box) and its handler, in the order of the help text.
COMMANDS = {
    "tor": (("box", "module"), _tor),
    "tor1-oracle": (("box",), _tor1_oracle),
    "betti": (("module",), _betti),
    "indep": (("strong",), _indep),
    "scomplex": (("box", "kind"), partial(_complex, build_s_complex)),
    "pcomplex": (("box", "kind"), partial(_complex, build_p_complex)),
    "verify": ((), partial(_checks, verify_identities, "context")),
    "spectral": (("box", "kind", "module"), _spectral),
    "support": (("subset", "module"), _support),
    "rigidity": ((), partial(_checks, rigidity_check, "rigidity")),
    "a8": ((), partial(_checks, serre_a8_check, "a8")),
    "equiv-exactness": ((), partial(_checks, exactness_equivalences, "context")),
    "selftest": (("seed", "trials"), _selftest),
}


def run(command: str, problem: ProblemFile | None, flags: dict) -> dict:
    """Execute one CLI command and build its report."""
    if command not in COMMANDS:
        raise UnknownCommand(f"unknown command {command!r}")
    _check_flags(command, flags, FLAG_DEFAULTS)
    reads, handler = COMMANDS[command]
    if problem is None and command != "selftest":
        raise ParseError(f"command {command!r} needs a problem file")
    if problem is not None and command == "selftest":
        raise ValidationError("selftest reads no problem file")
    for key in ("box", "module"):
        if problem is not None and getattr(problem, key) is not None and key not in reads:
            raise ValidationError(f"{command} reads no {key}, so its problem file sets none")
    field = flags.get("field")
    if field is None:
        field = problem.characteristic if problem else DEFAULT_CHARACTERISTIC
    report = {
        "command": command,
        "inputs": {
            "problem": problem.echo() if problem else None,
            "flags": {k: v for k, v in sorted(flags.items()) if v is not None},
        },
        "box": None,
        "results": {},
        "assertions": [],
    }
    box = flags.get("box") or (problem.box if problem else None)
    handler(problem, flags, GF(field), box, report)
    return report


def _check_flags(command, flags, defaults):
    """Reject each flag given to a command that does not read it; a value
    of None, or the flag's value in ``defaults``, is not given."""
    for flag in CHECKED_FLAGS:
        value = flags.get(flag)
        if value is not None and value != defaults.get(flag) and \
                flag not in COMMANDS[command][0]:
            readers = [name for name, (reads, _) in COMMANDS.items() if flag in reads]
            raise ValidationError(
                f"{command} reads no {flag}; --{flag} applies to {', '.join(readers)}"
            )


def _page_records(table):
    return [
        {"p": p, "q": q, "dim": d}
        for (p, q), d in sorted(table.items())
    ]


def _module_name(problem, flags):
    """The coefficient module's name: --module, else the problem file's."""
    return flags.get("module") or (problem.module if problem else None)


def _flag_coefficient(problem, flags):
    name = _module_name(problem, flags)
    return None if name is None else _named_ideal(problem, name)


def _named_ideal(problem, name):
    if name not in problem.ideals:
        raise ValidationError(f"--module {name!r} does not name an ideal")
    return problem.ideals[name]


def _emit(report, flags, started):
    if flags.get("timing"):
        report["timing"] = {"wall_ms": round((time.time() - started) * 1000.0, 3)}
    else:
        report["timing"] = {"wall_ms": None}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if flags.get("json"):
        with open(flags["json"], "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _int_list(flag, text):
    """Comma-separated non-negative integers from a command-line flag."""
    try:
        values = [int(v) for v in text.split(",")]
        if all(v >= 0 for v in values):
            return values
    except ValueError:
        pass
    raise ValidationError(f"{flag} must be comma-separated non-negative integers")


def main(argv=None) -> int:
    started = time.time()
    parser = argparse.ArgumentParser(
        prog="homotor",
        description="Multigraded Tor tables, sum/product complexes and "
                    "spectral sequences for monomial ideals",
    )
    parser.add_argument("command", help=f"one of: {', '.join(COMMANDS)}")
    parser.add_argument("problem", nargs="?", help="problem JSON file")
    parser.add_argument("--field", type=int, help="prime characteristic override")
    parser.add_argument("--box", help="comma-separated degree box override")
    parser.add_argument("--strong", action="store_true", default=None,
                        help="strong (all-subsets) independence")
    parser.add_argument("--subset", help="comma-separated index subset")
    parser.add_argument("--module", help="coefficient module (ideal name)")
    parser.add_argument("--kind", help="builder kind / complex variant")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--json", help="also write the report to this file")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte-stability)")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_intermixed_args(argv)

    flags = {k: v for k, v in vars(args).items() if k not in ("command", "problem")}
    try:
        flags["box"] = Multidegree(_int_list("--box", args.box)) if args.box else None
        flags["subset"] = _int_list("--subset", args.subset) if args.subset else None
        if args.command not in COMMANDS:
            raise UnknownCommand(f"unknown command {args.command!r}")
        _check_flags(args.command, flags, {})
        for flag, default in FLAG_DEFAULTS.items():
            if flags[flag] is None:
                flags[flag] = default
        problem = parse_problem(args.problem) if args.problem else None
        report = run(args.command, problem, flags)
    except HomotorError as exc:
        diag = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(json.dumps(diag, indent=2, sort_keys=True) + "\n")
        return 3 if isinstance(exc, InternalError) else 2
    _emit(report, flags, started)
    return 0 if all(a["passed"] for a in report["assertions"]) else 1
