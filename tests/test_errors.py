"""Every error the package raises is typed."""

import ast
import inspect
from pathlib import Path

import homotor
from homotor import errors


class _Raises(ast.NodeVisitor):
    """(innermost enclosing function, raise node) of every raise statement."""

    def __init__(self):
        self.where = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Raise(self, node):
        self.found.append((self.where[-1], node))


def test_every_raise_names_a_homotor_error():
    """Each raise in src/homotor constructs a HomotorError subclass by name.
    The one exception: quotient_dimension ends in an unreachable
    AssertionError marked ``pragma: no cover``."""
    typed = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.HomotorError)}
    untyped, allowed = [], []
    for path in sorted(Path(homotor.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()
        visitor = _Raises()
        visitor.visit(ast.parse(path.read_text()))
        for func, node in visitor.found:
            exc = node.exc
            named = isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            called = exc.func.id if named else None
            line = lines[node.lineno - 1]
            if called in typed:
                continue
            if ((func, called) == ("quotient_dimension", "AssertionError")
                    and "pragma: no cover" in line):
                allowed.append((func, called))
            else:
                untyped.append(f"{path.name}:{node.lineno}: {line.strip()}")
    assert not untyped, untyped
    assert allowed == [("quotient_dimension", "AssertionError")]
