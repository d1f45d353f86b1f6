"""Every error the package raises is typed, every GF(p) elimination goes
through one kernel, d∘d = 0 is checked in one place, and complexes are
built only by the builders that make new ones."""

import ast
import graphlib
import inspect
from pathlib import Path

import homotor
from homotor import errors


class _Sites(ast.NodeVisitor):
    """Collects (dotted name of the enclosing classes and functions, such
    as ``GradedComplex._check_dd_zero``, node) of the nodes a subclass
    finds."""

    def __init__(self):
        self.where = []
        self.found = []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_ClassDef = visit_FunctionDef

    def add(self, node):
        self.found.append((".".join(self.where) or "<module>", node))


class _Raises(_Sites):
    """Every raise statement."""

    def visit_Raise(self, node):
        self.add(node)


class _Calls(_Sites):
    """Every call of the function ``name``, by name or as an attribute
    (``obj.name(...)``)."""

    def __init__(self, name):
        super().__init__()
        self.name = name

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Name) and func.id == self.name
                or isinstance(func, ast.Attribute) and func.attr == self.name):
            self.add(node)
        self.generic_visit(node)


def _call_sites(name: str) -> list:
    """(file, enclosing function, node) of every call of ``name``, by name
    or as an attribute."""
    sites = []
    for path in sorted(Path(homotor.__file__).parent.glob("*.py")):
        visitor = _Calls(name)
        visitor.visit(ast.parse(path.read_text()))
        sites += [(path.name, func, node) for func, node in visitor.found]
    return sites


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


class _Elimination(ast.NodeVisitor):
    """The innermost enclosing function of every three-argument pow, a
    modular power such as the inverse pow(x, p - 2, p) that starts each
    elimination step, and the names called by every function whose name
    mentions a rank."""

    def __init__(self):
        self.where = ["<module>"]
        self.modular = []
        self.rank_routines = {}

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        if "rank" in node.name:
            self.rank_routines[node.name] = {
                call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
                for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, (ast.Name, ast.Attribute))}
        self.generic_visit(node)
        self.where.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "pow" and len(node.args) == 3:
            self.modular.append(self.where[-1])
        self.generic_visit(node)


def test_one_elimination_path():
    """Every GF(p) elimination goes through exactlin.pivot_pairs: it holds
    the package's only modular power, and the one routine named for a rank,
    GradedComplex._masked_rank, counts its pivot pairs."""
    modular, rank_routines = [], {}
    for path in sorted(Path(homotor.__file__).parent.glob("*.py")):
        visitor = _Elimination()
        visitor.visit(ast.parse(path.read_text()))
        modular += [(path.name, func) for func in visitor.modular]
        rank_routines.update({(path.name, f): calls
                              for f, calls in visitor.rank_routines.items()})
    assert modular == [("exactlin.py", "pivot_pairs")]
    assert list(rank_routines) == [("gcomplex.py", "_masked_rank")]
    assert "pivot_pairs" in rank_routines[("gcomplex.py", "_masked_rank")]


def _raise_sites(error: str) -> list:
    """(file, enclosing function) of every raise of ``error`` by name."""
    sites = []
    for path in sorted(Path(homotor.__file__).parent.glob("*.py")):
        visitor = _Raises()
        visitor.visit(ast.parse(path.read_text()))
        sites += [(path.name, func) for func, node in visitor.found
                  if isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
                  and node.exc.func.id == error]
    return sites


def test_one_composition_check():
    """d∘d = 0 is checked in one place: CompositionNonzero is raised only by
    GradedComplex._check_dd_zero, which a multicomplex reaches through the
    one build of its total."""
    assert _raise_sites("CompositionNonzero") == [
        ("gcomplex.py", "GradedComplex._check_dd_zero")]


def test_one_summand_shape():
    """A summand is a shift and an ideal, and quotient-or-ideal is one kind
    per complex: ``Summand`` declares the fields (shift, ideal) only, the
    rebuilds in ``cancel_units`` and ``truncated`` pass their source's kind
    on, and the one place that refuses an ideal-kind complex is ``tensor``."""
    gcomplex = ast.parse((Path(homotor.__file__).parent / "gcomplex.py").read_text())
    summand = next(node for node in gcomplex.body
                   if isinstance(node, ast.ClassDef) and node.name == "Summand")
    assert [node.target.id for node in summand.body
            if isinstance(node, ast.AnnAssign)] == ["shift", "ideal"]
    rebuilds = [(func, len(node.args) == 4 or any(k.arg == "kind" for k in node.keywords))
                for _, func, node in _call_sites("GradedComplex")
                if func in ("cancel_units", "truncated")]
    assert sorted(rebuilds) == [("cancel_units", True), ("truncated", True)]
    assert _raise_sites("MixedKinds") == [("multicomplex.py", "tensor")]


#: Every function that may build a GradedComplex: each makes a complex with
#: new terms or entries, which its constructor checks.
BUILDERS = [
    ("gcomplex.py", "cancel_units"),
    ("gcomplex.py", "quotient_complex"),
    ("gcomplex.py", "taylor_resolution"),
    ("multicomplex.py", "Multicomplex.__init__"),
    ("sumprod.py", "build_p_complex"),
    ("sumprod.py", "build_s_complex"),
    ("sumprod.py", "truncated"),
]


def test_complexes_built_only_by_the_builders():
    """``GradedComplex(...)`` is called only in the builders above, so a
    rebuild that only re-keys or re-checks a complex cannot come back
    unnoticed: a total is built, and checked, once, at the degrees it is
    read."""
    sites = {(path, func) for path, func, _ in _call_sites("GradedComplex")}
    assert sorted(sites) == BUILDERS


def test_one_corner_attachment():
    """The composed axis map psi into the corner is computed in one place:
    ``_compose_chain`` is called only by ``_attach_corner``, which both
    ``hypercube_extend`` and ``hypercube_augment`` build on."""
    assert [(path, func) for path, func, _ in _call_sites("_compose_chain")] == [
        ("multicomplex.py", "_attach_corner")]


def test_the_packed_layout_stays_in_gcomplex():
    """The packed fibre layout is read in one module: ``_fibre_tables`` is
    called only by ``GradedComplex._tables``, and ``_tables``, ``_alive``
    and ``_split`` are called from gcomplex.py only."""
    assert [(path, func) for path, func, _ in _call_sites("_fibre_tables")] == [
        ("gcomplex.py", "GradedComplex._tables")]
    for name in ("_tables", "_alive", "_split"):
        paths = {path for path, _, _ in _call_sites(name)}
        assert paths == {"gcomplex.py"}, name


def _homotor_imports(tree):
    """(the homotor modules a relative import names, the node) of every
    relative import in the tree; ``from . import __version__`` names the
    package, not a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            out.append(({name for name in names if name != "__version__"}, node))
    return out


def test_imports_are_at_module_level_and_acyclic():
    """Every module imports the homotor modules it uses at its top, and the
    relative imports between the modules form no cycle: each layer is
    importable without the ones above it."""
    graph, deferred = {}, []
    for path in sorted(Path(homotor.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        graph[path.stem] = set()
        for names, node in _homotor_imports(tree):
            graph[path.stem] |= names
        deferred += [f"{path.name}:{node.lineno}"
                     for func in ast.walk(tree)
                     if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for _, node in _homotor_imports(func)]
    assert not deferred, deferred
    assert set().union(*graph.values()) <= set(graph)
    list(graphlib.TopologicalSorter(graph).static_order())  # CycleError names a cycle
