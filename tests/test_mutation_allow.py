"""The mutation probe's allow-list stays in step with the code it excuses."""

import ast
import json

import pytest

from mutation_probe import ROOT, sites

ALLOWED = json.loads((ROOT / "tests" / "mutation_allow.json").read_text())


def _definition(tree, qualname):
    """The function or class of the dotted name, as the probe names sites,
    or None."""
    node = tree
    for name in qualname.split("."):
        node = next((child for child in ast.iter_child_nodes(node)
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                     and child.name == name), None)
        if node is None:
            return None
    return node


@pytest.mark.parametrize("entry", ALLOWED, ids=lambda e: f"{e['function']}:{e['mutation']}")
def test_every_allowed_mutant_still_has_its_site(entry):
    """Each entry's code still occurs in its function, read through the AST,
    and the probe still finds the entry's mutation on the code's lines: an
    entry whose code moved or went excuses nothing and must be dropped or
    rewritten."""
    source = (ROOT / entry["file"]).read_text()
    node = _definition(ast.parse(source), entry["function"])
    assert node is not None, entry
    body = ast.get_source_segment(source, node)
    assert entry["code"] in body, entry
    first = node.lineno + body[:body.index(entry["code"])].count("\n")
    lines = range(first, first + entry["code"].count("\n") + 1)
    mutation = entry["mutation"].split(" (")[0]
    assert any(line in lines and where == entry["function"] and text == mutation
               for _, _, line, _, where, text in sites(ast.parse(source))), entry
