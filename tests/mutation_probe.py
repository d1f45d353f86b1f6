"""Mutation probe: which small changes to a module does a test selection miss?

Each mutant changes one site of the module: it swaps ``<``/``<=``,
``>``/``>=``, ``==``/``!=`` or ``+``/``-``, or raises an int constant 0, 1
or 2 by one.  The probe samples a budget of sites with a fixed seed, runs
the selection with ``-x`` against each mutant in a copy of the repository
made in a new temporary directory, removed when the run ends (the working
tree is never written), and writes every mutant, survivor or killed, as
JSON: file, line, column, site index, enclosing function, mutation, and
the tests that ran.  The site index is the mutant's place in ``sites()``
and the column that of its constant or of the operand right of its
operator, so two mutants of one line are told apart.  A mutant whose run
outlasts TIMEOUT_S seconds counts as killed.

Not a gate: the file is not collected by pytest.  Run it by hand, e.g.

    python tests/mutation_probe.py torlab --sites 40 --seed 0 \\
        --tests tests/test_torlab.py tests/test_acceptance.py \\
                tests/test_golden.py tests/test_cli_golden.py \\
        --out survivors.json

``--functions`` limits the sample to the sites of the named functions.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-"}


def sites(tree) -> list:
    """(node, operator index or None, line, column, function, mutation) of
    every mutable site, in source order; the column is that of the
    constant, or of the operand right of the operator."""
    found = []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, k, node.lineno, node.comparators[k].col_offset,
                                  where, _swap_text(op)))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((node, None, node.lineno, node.right.col_offset, where,
                          _swap_text(node.op)))
        elif isinstance(node, ast.Constant) and type(node.value) is int \
                and node.value in (0, 1, 2):
            found.append((node, None, node.lineno, node.col_offset, where,
                          f"{node.value} -> {node.value + 1}"))
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(tree, "")
    return found


def _swap_text(op) -> str:
    return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def mutate(node, k) -> None:
    """Apply the site's mutation to the tree in place."""
    if isinstance(node, ast.Compare):
        node.ops[k] = SWAPS[type(node.ops[k])]()
    elif isinstance(node, ast.BinOp):
        node.op = SWAPS[type(node.op)]()
    else:
        node.value += 1


def run_tests(workdir: Path, tests) -> bool:
    """True iff the selection passes in workdir.  No bytecode is cached: a
    mutant of the same size written within the same second as the one
    before would otherwise be read from a stale .pyc."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def probe(workdir: Path, args) -> dict:
    """Copy the repository into the empty workdir and run every chosen
    mutant of the module there."""
    for part in ("src", "tests", "bench", "demos"):
        shutil.copytree(ROOT / part, workdir / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(ROOT / "pyproject.toml", workdir / "pyproject.toml")
    relative = Path("src", "homotor", f"{args.module}.py")
    target = workdir / relative
    source = target.read_text()
    if not run_tests(workdir, args.tests):
        raise SystemExit("the selection fails on the unmutated module")

    candidates = sites(ast.parse(source))
    scope = [i for i, site in enumerate(candidates)
             if not args.functions or site[4] in args.functions]
    chosen = sorted(random.Random(args.seed).sample(scope, min(args.sites, len(scope))))
    outcome = {"sites_total": len(candidates), "sites_in_scope": len(scope),
               "sites_run": len(chosen),
               "survivors": [], "killed": []}
    for index in chosen:
        tree = ast.parse(source)
        node, k, line, col, where, mutation = sites(tree)[index]
        mutate(node, k)
        target.write_text(ast.unparse(tree) + "\n")
        side = "survivors" if run_tests(workdir, args.tests) else "killed"
        outcome[side].append({"file": str(relative), "line": line, "col": col,
                              "site": index, "function": where, "mutation": mutation})
        print(f"site {index} line {line}:{col} {where}: {mutation}: {side}",
              file=sys.stderr)
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module of src/homotor, e.g. torlab")
    parser.add_argument("--tests", nargs="+", required=True,
                        help="pytest selection, relative to the repository root")
    parser.add_argument("--sites", type=int, default=40, help="site budget")
    parser.add_argument("--functions", nargs="+",
                        help="sample only the sites of these functions, named as the "
                             "records name them (e.g. GradedComplex._block)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="survivors JSON file")
    args = parser.parse_args(argv)

    started = time.time()
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        outcome = probe(Path(tmp), args)
    Path(args.out).write_text(json.dumps({
        "tests": args.tests,
        "seed": args.seed,
        **outcome,
        "elapsed_s": round(time.time() - started, 1),
    }, indent=2) + "\n")
    print(f"{len(outcome['survivors'])} of {outcome['sites_run']} mutants survived",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
