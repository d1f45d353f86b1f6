"""Every error the package raises is typed, a family of ideals is refused
in one place, every integer argument is read by one rule, every sparse map
is normalised in one place, every GF(p) elimination goes through one
kernel and reads its block through one reader, d∘d = 0 is checked in one
place, subfamilies are visited by one walker, and complexes are built only
by the builders that make new ones."""

import ast
import graphlib
import inspect
import re
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import homotor
from homotor import cli, errors, gcomplex, spectral
from homotor.errors import EmptyInput, LengthMismatch, UnitIdeal, ValidationError
from homotor.exactlin import GF
from homotor.gcomplex import GradedComplex, free_summand, resolution
from homotor.monomial import MonomialIdeal, Multidegree, iter_box
from homotor.multicomplex import Multicomplex, koszul_cone, tensor
from homotor.spectral import FilteredTotal, build_filtration, pages
from homotor.sumprod import (
    augmented_interior_H,
    build_p_complex,
    build_s_complex,
    exactness_equivalences,
    mv_total_complex,
    verify_identities,
)
from homotor.support import supportoftors_check
from homotor.torlab import (
    CheckReport,
    family_box,
    independence,
    multi_tor,
    rigidity_check,
    serre_a8_check,
    tor1_oracle,
)


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


def _error_classes() -> dict:
    """{name a raise uses, such as ``internal.LengthMismatch``: class} of
    every HomotorError subclass in ``errors``."""
    def typed(namespace, prefix=""):
        return {prefix + name: cls for name, cls in inspect.getmembers(namespace, inspect.isclass)
                if issubclass(cls, errors.HomotorError)}
    return {**typed(errors), **typed(errors.internal, "internal.")}


def _raises() -> list:
    """(file, enclosing function, the name of the class constructed or
    None, node) of every raise statement in src/homotor, in source order."""
    sites = []
    for path in sorted(Path(homotor.__file__).parent.glob("*.py")):
        visitor = _Raises()
        visitor.visit(ast.parse(path.read_text()))
        sites += [(path.name, func,
                   ast.unparse(node.exc.func) if isinstance(node.exc, ast.Call) else None, node)
                  for func, node in visitor.found]
    return sites


def test_every_raise_names_a_homotor_error():
    """Each raise in src/homotor constructs a HomotorError subclass by name,
    such as ``ValidationError`` or ``internal.ValidationError``.  The one
    exception: quotient_dimension ends in an unreachable AssertionError
    marked ``pragma: no cover``."""
    typed = _error_classes()
    untyped, allowed = [], []
    for file, func, called, node in _raises():
        if called in typed:
            continue
        line = (Path(homotor.__file__).parent / file).read_text().splitlines()[node.lineno - 1]
        if ((func, called) == ("quotient_dimension", "AssertionError")
                and "pragma: no cover" in line):
            allowed.append((func, called))
        else:
            untyped.append(f"{file}:{node.lineno}: {line.strip()}")
    assert not untyped, untyped
    assert allowed == [("quotient_dimension", "AssertionError")]


#: The class of each raise, in source order, in every function that raises
#: an ``InternalError``: the checks on the complexes, filtrations and pages
#: homotor builds for itself, which no problem file reaches, so that
#: ``cli.main`` exits 3 on each.  The input classes left among them are
#: refusals a problem file or a flag can reach (or, for a summand kind,
#: a keyword): an empty family, an unknown kind, and an integer read from
#: input, which ``errors._refuse`` refuses with the input class unless a
#: constructor of a complex read it.  The summand bound of ``tensor`` and
#: the cones is raised by ``multicomplex._check_summands``, which raises
#: nothing internal.
INTERNAL_RAISES = {
    ("errors.py", "_refuse"): ["internal.ValidationError", "ValidationError"],
    ("gcomplex.py", "_rows"): ["internal.ValidationError"] * 3,
    ("gcomplex.py", "GradedComplex.__init__"): [
        "InvalidKind", "internal.ValidationError", "internal.LengthMismatch",
        "internal.ValidationError"],
    ("gcomplex.py", "GradedComplex._check_dd_zero"): ["CompositionNonzero"],
    ("gcomplex.py", "base_change"): ["MixedKinds"],
    ("gcomplex.py", "ideal_augment"): ["MixedKinds"],
    ("multicomplex.py", "Multicomplex.__init__"): [
        "internal.LengthMismatch", "internal.ValidationError", "internal.LengthMismatch",
        "internal.ValidationError", "internal.ValidationError"],
    ("multicomplex.py", "tensor"): [
        "EmptyInput", "MixedKinds", "internal.ValidationError", "internal.LengthMismatch"],
    ("spectral.py", "FilteredTotal.__init__"): ["FiltrationViolation"] * 3,
    ("spectral.py", "pages"): ["InvariantBroken"] * 2,
}


def test_every_internal_raise_is_classified():
    """A new raise of an internal class, or a new raise of any class in a
    function that has one, must be classified above.  ``pages`` keeps two
    checks: a term's pair count against its block rank, and no (term,
    level) with more pair ends than alive summands."""
    classes, raises = _error_classes(), _raises()
    internal = {(file, func) for file, func, called, _ in raises
                if called in classes and issubclass(classes[called], errors.InternalError)}
    assert internal == set(INTERNAL_RAISES)
    for site, expected in INTERNAL_RAISES.items():
        assert [called for file, func, called, _ in raises if (file, func) == site] == expected


def test_internal_variants_are_caught_by_their_input_class():
    """A library caller catches each internal variant by the input class it
    subclasses, and a diagnostic names it by that class; only ``cli.main``
    tells them apart, by ``InternalError``."""
    for name in ("LengthMismatch", "ValidationError"):
        variant = getattr(errors.internal, name)
        assert issubclass(variant, getattr(errors, name))
        assert issubclass(variant, errors.InternalError) and variant.__name__ == name
        assert not issubclass(getattr(errors, name), errors.InternalError)
    for cls in (errors.CompositionNonzero, errors.FiltrationViolation, errors.MixedKinds,
                errors.InvariantBroken):
        assert issubclass(cls, errors.InternalError)


def _integer_arguments(bad):
    """(the argument's name in the error, a call passing ``bad`` where an
    entry point takes an integer, and True for an integer a constructor of
    a complex reads, which homotor builds for itself) for each integer
    argument of the library: exponents, counts, term and summand indices,
    positions, axes, levels and ``ps``, and the degree a
    complex, a table, a filtration or an ideal is read at."""
    x, y = MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])
    one = free_summand((0,))
    pair = {0: [one], 1: [one]}
    total = GradedComplex(1, pair, {1: {0: [(0, 1)]}})
    line = Multicomplex(1, 1, {(0,): [one], (1,): [one]}, {((1,), 0): {0: [(0, 1)]}})
    table = multi_tor([x, y])
    return [
        ("variable count", lambda: MonomialIdeal(bad, []), False),
        ("exponent", lambda: MonomialIdeal(2, [(bad, 1)]), False),
        ("exponent", lambda: Multidegree((1, bad)), False),
        ("variable index", lambda: Multidegree.unit(2, bad), False),
        ("exponent", lambda: multi_tor([x, y], box=(bad, 3)), False),
        ("variable count", lambda: GradedComplex(bad, {}, {}), True),
        ("term index", lambda: GradedComplex(1, {bad: [one]}, {}), True),
        ("term index", lambda: GradedComplex(1, pair, {bad: {0: [(0, 1)]}}), True),
        ("summand index", lambda: GradedComplex(1, pair, {1: {bad: [(0, 1)]}}), True),
        ("axis count", lambda: Multicomplex(bad, 1, {}, {}), True),
        ("position coordinate", lambda: Multicomplex(1, 1, {(bad,): [one]}, {}), True),
        ("axis", lambda: Multicomplex(1, 1, line.terms, {((1,), bad): {0: [(0, 1)]}}), True),
        ("summand index",
         lambda: Multicomplex(1, 1, line.terms, {((1,), 0): {0: [(bad, 1)]}}), True),
        ("shift", lambda: Multicomplex(1, 1, line.terms, {}, bad), True),
        ("face_axes", lambda: koszul_cone(line, face_axes=bad), False),
        ("level", lambda: FilteredTotal(total, {1: [bad]}), True),
        ("term index", lambda: FilteredTotal(total, {bad: [0]}), True),
        ("p", lambda: supportoftors_check([x, y], None, [bad]), False),
        ("degree", lambda: table.dim(0, (bad, 0)), False),
        ("degree", lambda: table.clamp((0, bad)), False),
        ("degree", lambda: total.alive_masks((bad,)), False),
        ("degree", lambda: total.homology_at((bad,)), False),
        ("degree", lambda: pages(FilteredTotal(total, {}), (bad,)), False),
        ("degree", lambda: x.contains((bad, 0)), False),
    ]


@settings(deadline=None, max_examples=40)
@given(st.one_of(st.floats(), st.text()))
def test_one_integer_rule(bad):
    """Every integer argument goes through ``errors.as_int``: a float, even
    a whole one, or a string, even of digits, is refused with
    ``ValidationError``, never truncated by ``int`` or parsed, and never
    let through to a raw TypeError.  A degree is read by the same rule, so
    Tor_0(R/(x), R/(y)) at (0.5, 0) is refused, not read as 0.  What a
    constructor of a complex reads is refused with the ``internal``
    variant, so that the CLI exits 3 on it; an input, with the input class."""
    for what, call, built in _integer_arguments(bad):
        with pytest.raises(ValidationError, match="is not an integer") as refused:
            call()
        assert str(refused.value).startswith(f"{what} "), what
        assert isinstance(refused.value, errors.InternalError) == built, what
    with pytest.raises(ValidationError, match="is not an integer"):
        multi_tor([MonomialIdeal(2, [(1, 0)])], box="ab")
    table = multi_tor([MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])])
    assert table.dim(0, (0, 0)) == 1
    with pytest.raises(ValidationError, match=r"^degree 0\.5 is not an integer$"):
        table.dim(0, (0.5, 0))
    with pytest.raises(ValidationError, match="^degree 'a' is not an integer$"):
        resolution(MonomialIdeal(2, [(1, 0)])).homology_at(("a", 1))


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


#: Every function that takes a family of ideals, called as
#: f(family, coefficient, box), with whether it takes a coefficient and
#: whether it takes a box; one that takes neither ignores the argument.
FAMILY_FUNCTIONS = {
    "family_box": (lambda f, c, b: family_box(f, c), True, False),
    "multi_tor": (lambda f, c, b: multi_tor(f, c, box=b), True, True),
    "tor1_oracle": (lambda f, c, b: tor1_oracle(f), False, False),
    "independence": (lambda f, c, b: independence(f), False, False),
    "rigidity_check": (lambda f, c, b: rigidity_check(f), False, False),
    "serre_a8_check": (lambda f, c, b: serre_a8_check(f), False, False),
    "build_s_complex": (lambda f, c, b: build_s_complex(f), False, False),
    "build_p_complex": (lambda f, c, b: build_p_complex(f), False, False),
    "mv_sum_to_product": (
        lambda f, c, b: mv_total_complex("sum_to_product", f, c), True, False),
    "mv_product_to_sum": (
        lambda f, c, b: mv_total_complex("product_to_sum", f, c), True, False),
    "augmented_interior_H": (lambda f, c, b: augmented_interior_H(f), False, False),
    "verify_identities": (lambda f, c, b: verify_identities(f), False, False),
    "exactness_equivalences": (lambda f, c, b: exactness_equivalences(f), False, False),
    "supportoftors_check": (lambda f, c, b: supportoftors_check(f, c, [1]), True, False),
}


@pytest.mark.parametrize("name", sorted(FAMILY_FUNCTIONS))
def test_every_family_function_keeps_the_family_contract(name):
    """An empty family, ideals in different variable counts (in either
    order), the unit ideal, and a coefficient that is the unit ideal or
    lives in another variable count, zero or not, with or without a box,
    get one error type and one message wherever a family is taken."""
    call, takes_coefficient, takes_box = FAMILY_FUNCTIONS[name]
    x, y = MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])
    z = MonomialIdeal(3, [(0, 1, 1)])
    unit = (UnitIdeal, "R/I is zero for the unit ideal")
    other_count = (LengthMismatch, "coefficient in 3 variables, not 2")
    mixed = (LengthMismatch, "ideals live in different variable counts")
    empty = (EmptyInput, "need at least one ideal")
    cases = [([], None, empty), ([x, z], None, mixed), ([z, x], None, mixed),
             ([x, MonomialIdeal.unit(2)], None, unit)]
    if takes_coefficient:
        cases += [([x, y], MonomialIdeal.zero(3), other_count),
                  ([x, y], MonomialIdeal(3, [(1, 0, 0)]), other_count),
                  ([x, y], MonomialIdeal.unit(2), unit)]
    for family, coefficient, (error, message) in cases:
        for box in [None, (3, 3)] if takes_box and coefficient is not None else [None]:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call(family, coefficient, box)


def test_one_family_contract():
    """A family of ideals and its coefficient are refused in one place:
    ``UnitIdeal`` is raised only by ``monomial.refuse_unit``, and every
    function of torlab, sumprod and support with a parameter ``ideals``
    calls ``check_family`` once, but for the predicate ``variable_blocks``.
    No builder is handed a family its caller checked: S and P have one
    checked builder each, and each table has one function, which checks
    the family itself, ``augmented_interior_H`` the ideals it tabulates,
    and reads its box off that check."""
    assert _raise_sites("UnitIdeal") == [("monomial.py", "refuse_unit")]
    callers = Counter((path, func) for path, func, _ in _call_sites("check_family"))
    takers = set()
    for name in ("torlab.py", "sumprod.py", "support.py"):
        tree = ast.parse((Path(homotor.__file__).parent / name).read_text())
        takers |= {(name, node.name) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and "ideals" in [a.arg for a in node.args.args + node.args.kwonlyargs]}
    # the 13 entry points of FAMILY_FUNCTIONS and ``variable_blocks``
    assert len(takers) == 14
    assert takers - set(callers) == {("support.py", "variable_blocks")}
    assert all(callers[taker] == 1 for taker in takers & set(callers))


def test_one_function_per_table():
    """A table has one function, which the checkers share: no module of
    the package defines both ``f`` and ``_f``, and every function that
    takes a map of resolutions is public and takes it as the keyword-only
    ``resolutions=None``, a fresh map when not given.  The one exception is
    the map's reader ``gcomplex.resolve(ideal, resolutions)``, which is
    always handed one."""
    takers = []
    for path in sorted(Path(homotor.__file__).parent.glob("*.py")):
        defs = [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        names = {node.name for node in defs}
        assert {name for name in names if "_" + name in names} == set(), path.name
        for node in defs:
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if "resolutions" in positional:
                    assert (path.name, node.name) == ("gcomplex.py", "resolve")
                keyword = [a.arg for a in args.kwonlyargs]
                if "resolutions" in keyword:
                    default = args.kw_defaults[keyword.index("resolutions")]
                    assert isinstance(default, ast.Constant) and default.value is None
                    takers.append((path.name, node.name))
    assert all(not name.startswith("_") for _, name in takers)
    assert sorted(takers) == [("sumprod.py", "augmented_interior_H"),
                              ("sumprod.py", "mv_total_complex"),
                              ("torlab.py", "betti_table"),
                              ("torlab.py", "multi_tor")]


def test_one_subfamily_walker():
    """Every checker visits its subfamilies through ``monomial.subfamilies``,
    whose order fixes the order of their witnesses: no other function of
    the package calls ``itertools.combinations`` but the two whose subsets
    are a layout, not a visit, ``gcomplex.exterior_complex`` (one summand
    per subset) and ``monomial.quotient_dimension`` (its variable covers)."""
    assert sorted({(path, func) for path, func, _ in _call_sites("combinations")}) == [
        ("gcomplex.py", "exterior_complex"), ("monomial.py", "quotient_dimension"),
        ("monomial.py", "subfamilies")]


def test_one_family_pass():
    """``check_family`` returns the family's stability box, so no function
    of torlab, sumprod or support calls both it and ``family_box``, and
    the ``BoxTooSmall`` of a box that misses the stable one is raised in
    one place, ``monomial.dominating_box``, for tables and the Tor_1
    oracle alike."""
    scope = ("torlab.py", "sumprod.py", "support.py")

    def callers(name):
        return {(path, func) for path, func, _ in _call_sites(name) if path in scope}

    assert callers("check_family") & callers("family_box") == set()
    assert _raise_sites("BoxTooSmall") == [("monomial.py", "dominating_box")]


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
    return [(file, func) for file, func, called, _ in _raises() if called == error]


def test_one_composition_check():
    """d∘d = 0 is checked in one place: CompositionNonzero is raised only by
    GradedComplex._check_dd_zero, which a multicomplex reaches through the
    one build of its total."""
    assert _raise_sites("CompositionNonzero") == [
        ("gcomplex.py", "GradedComplex._check_dd_zero")]


def test_one_summand_shape():
    """A summand is a shift and an ideal, and quotient-or-ideal is one kind
    per complex: ``Summand`` declares the fields (shift, ideal) only,
    ``cancel_units`` is the one rebuild that passes its source's kind on
    (the only ``GradedComplex`` call whose kind reads a complex's
    ``kind``), and the three places that refuse an ideal-kind complex are
    the three that tensor complexes, ``tensor``, ``base_change`` and
    ``ideal_augment``."""
    gcomplex = ast.parse((Path(homotor.__file__).parent / "gcomplex.py").read_text())
    summand = next(node for node in gcomplex.body
                   if isinstance(node, ast.ClassDef) and node.name == "Summand")
    assert [node.target.id for node in summand.body
            if isinstance(node, ast.AnnAssign)] == ["shift", "ideal"]
    rebuilds = [func for _, func, node in _call_sites("GradedComplex")
                if any(isinstance(v, ast.Attribute) and v.attr == "kind" for v in
                       node.args[3:] + [k.value for k in node.keywords if k.arg == "kind"])]
    assert rebuilds == ["cancel_units"]
    assert _raise_sites("MixedKinds") == [("gcomplex.py", "base_change"),
                                          ("gcomplex.py", "ideal_augment"),
                                          ("multicomplex.py", "tensor")]


#: Every function that may build a GradedComplex: each makes a complex with
#: new terms or entries, which its constructor checks.
BUILDERS = [
    ("gcomplex.py", "base_change"),
    ("gcomplex.py", "cancel_units"),
    ("gcomplex.py", "ideal_augment"),
    ("gcomplex.py", "taylor_resolution"),
    ("multicomplex.py", "Multicomplex.__init__"),
    ("sumprod.py", "build_p_complex"),
    ("sumprod.py", "build_s_complex"),
    ("sumprod.py", "mv_total_complex"),
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


class _Reads(_Sites):
    """Every read of the attribute ``name`` (``obj.name``)."""

    def __init__(self, name):
        super().__init__()
        self.name = name

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.add(node)
        self.generic_visit(node)


def _attribute_reads(name: str) -> set:
    """(file, enclosing function) of every read of the attribute ``name``."""
    sites = set()
    for path in sorted(Path(homotor.__file__).parent.glob("*.py")):
        reads = _Reads(name)
        reads.visit(ast.parse(path.read_text()))
        sites |= {(path.name, func) for func, _ in reads.found}
    return sites


def _tally(counts, name, fn):
    """fn, counting its calls in ``counts[name]``."""
    def counted(*args):
        counts[name] += 1
        return fn(*args)
    return counted


def test_one_block_reader(monkeypatch):
    """Every alive block of a differential is read by one method,
    ``GradedComplex._block``, and eliminated in one of two orders: by
    ``_masked_rank`` in index order, for ranks, and by
    ``spectral.persistence_pairs`` in (level, index) order, for pairs.  In
    spectral.py only ``FilteredTotal.__init__``, which checks the
    filtration, reads a differential ``d``.  So on the pages of a
    3-ideal kcone family, over its whole box, each elimination that
    gcomplex and spectral run reads exactly one block."""
    assert sorted((path, func) for path, func, _ in _call_sites("_block")) == [
        ("gcomplex.py", "GradedComplex._masked_rank"), ("spectral.py", "persistence_pairs")]
    assert {func for path, func in _attribute_reads("d") if path == "spectral.py"} == {
        "FilteredTotal.__init__"}

    counts = Counter()
    monkeypatch.setattr(GradedComplex, "_block", _tally(counts, "_block", GradedComplex._block))
    for module in (gcomplex, spectral):
        monkeypatch.setattr(module, "pivot_pairs",
                            _tally(counts, module.__name__, module.pivot_pairs))
    family = [MonomialIdeal(3, [(2, 0, 0), (1, 1, 0)]), MonomialIdeal(3, [(0, 1, 0)]),
              MonomialIdeal(3, [(0, 0, 1), (1, 0, 1)])]
    filtered = build_filtration(tensor([resolution(i) for i in family]), kind="kcone")
    for gamma in iter_box(filtered.total.stable_box()):
        pages(filtered, gamma)
    ranks, pairings = counts["homotor.gcomplex"], counts["homotor.spectral"]
    assert ranks and pairings and counts["_block"] == ranks + pairings


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


def test_one_sparse_map_form():
    """Every differential and axis map has one form, {source: [(target,
    coefficient), ...]}, normalised in one place: ``_rows`` is called only
    by the two constructors, ``GradedComplex`` has no second copy of d in
    another form, and outside gcomplex.py a complex's ``d`` is read only
    by ``tensor`` and ``FilteredTotal.__init__``."""
    assert sorted((path, func) for path, func, _ in _call_sites("_rows")) == [
        ("gcomplex.py", "GradedComplex.__init__"), ("multicomplex.py", "Multicomplex.__init__")]
    assert {site for site in _attribute_reads("d") if site[0] != "gcomplex.py"} == {
        ("multicomplex.py", "tensor"), ("spectral.py", "FilteredTotal.__init__")}
    c = resolution(MonomialIdeal(2, [(1, 0), (0, 1)]))
    assert not hasattr(c, "entries")
    assert c.d == {1: {0: [(0, 1)], 1: [(0, 1)]}, 2: {0: [(0, -1), (1, 1)]}}


def test_one_refusal_rule_for_map_entries():
    """A complex and a multicomplex refuse the same map entries, with one
    message: a summand index out of range is refused even when its
    coefficients sum to 0 or its coefficient is 0, and so is a coefficient
    that is not an int, and a map not of the form {source: [(target,
    coefficient), ...]}, such as a flat list of (source, target,
    coefficient) triples."""
    one = free_summand((0,))
    pair = {0: (one,), 1: (one,)}
    line = {(0,): (one,), (1,): (one,)}
    for rows in ({5: [(0, 1), (0, -1)], 0: [(0, 1)]}, {0: [(5, 1), (5, -1), (0, 1)]},
                 {-1: [(0, 2), (0, -2)]}, {0: [(1, 0)]}):
        with pytest.raises(ValidationError, match="^d_1: entry .* outside its 1 -> 1 summands$"):
            GradedComplex(1, pair, {1: rows})
        with pytest.raises(ValidationError,
                           match=r"^axis 0 map at \(1,\): entry .* outside its 1 -> 1 summands$"):
            Multicomplex(1, 1, line, {((1,), 0): rows})
    for bad in (1.0, "1", None):
        with pytest.raises(ValidationError, match="is not an int$"):
            GradedComplex(1, pair, {1: {0: [(0, bad)]}})
        with pytest.raises(ValidationError, match="is not an int$"):
            Multicomplex(1, 1, line, {((1,), 0): {0: [(0, bad)]}})
    for rows in ([(0, 0, 1)], {0: [(0, 0, 1)]}, {0: 5}, {0: [5]}):
        with pytest.raises(ValidationError, match=r"^d_1: a map must be \{source: \[\(target"):
            GradedComplex(1, pair, {1: rows})
        with pytest.raises(ValidationError,
                           match=r"^axis 0 map at \(1,\): a map must be \{source: "):
            Multicomplex(1, 1, line, {((1,), 0): rows})


@pytest.mark.parametrize("rows, normal", [
    ({0: [(-1, 1)]}, None),
    ({-1: [(0, 1)]}, None),
    ({2: [(0, 1)]}, None),
    ({0: [(2, 1)]}, None),
    ({0: [(0, 1.0)]}, None),
    ({0: [(0, 0), (1, 1)]}, {0: [(1, 1)]}),
    ({0: [(0, True)]}, {0: [(0, 1)]}),
    ({True: [(0, 1)]}, {1: [(0, 1)]}),
    ({0: [(False, 1)]}, {0: [(0, 1)]}),
    ({0: [[0, 1]]}, {0: [(0, 1)]}),
    ({0: ((0, 1),)}, {0: [(0, 1)]}),
    ({1: [(0, 1)], 0: [(1, 1)]}, {0: [(1, 1)], 1: [(0, 1)]}),
    ({0: [(1, 1), (0, 1)]}, {0: [(0, 1), (1, 1)]}),
    ({0: [(0, 1), (0, 1)]}, {0: [(0, 2)]}),
    ({0: [], 1: [(0, 1)]}, {1: [(0, 1)]}),
])
def test_a_map_one_entry_off_normal_form_takes_the_merge_and_the_sort(rows, normal):
    """A map of 2 -> 2 summands that is normal but for one source, row or
    entry is not copied by ``_rows``' scan: it is refused with the one
    message, or normalised to ints, sources and targets in order, repeats
    summed and zeros dropped, like any other map."""
    if normal is None:
        with pytest.raises(ValidationError, match="^map: (entry .* outside its 2 -> 2 "
                                                  "summands|coefficient .* is not an int)$"):
            gcomplex._rows(rows, 2, 2, lambda: "map")
        return
    out = gcomplex._rows(rows, 2, 2, lambda: "map")
    assert list(out.items()) == list(normal.items())
    assert all(type(v) is int for row in out.values() for e in row for v in e)
    assert {*map(type, out)} <= {int}


def test_one_checker_report(kxy):
    """Every checker returns a ``CheckReport``, the one report class with
    assertions (``BettiReport`` is data): torlab, sumprod and support
    define no other ``*Report`` class.  The CLI serialises every checker
    through ``_checks``, the one reader of ``.assertions`` in cli.py: the
    context goes under its results key, the assertions in order."""
    for module in ("torlab.py", "sumprod.py", "support.py"):
        tree = ast.parse((Path(homotor.__file__).parent / module).read_text())
        assert {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                and node.name.endswith("Report")} <= {"CheckReport", "BettiReport"}
    assert {site for site in _attribute_reads("assertions") if site[0] == "cli.py"} == {
        ("cli.py", "_checks")}
    assert [(path, func) for path, func, _ in _call_sites("_checks")] == [("cli.py", "_indep")]

    family = [kxy["x"], kxy["m"]]
    problem = cli.ProblemFile(32003, ["x", "y"], {"A": family[0], "B": family[1]})
    for command, key, check in (
            ("verify", "context", verify_identities),
            ("equiv-exactness", "context", exactness_equivalences),
            ("rigidity", "rigidity", rigidity_check),
            ("a8", "a8", serre_a8_check),
            ("indep", "independence", partial(independence, strong=True))):
        handler = cli.COMMANDS[command][1]
        assert command == "indep" or handler.func is cli._checks
        rep = check(family, GF(32003))
        assert isinstance(rep, CheckReport)
        report = cli.run(command, problem, {**cli.FLAG_DEFAULTS, "strong": command == "indep"})
        assert report["results"] == {key: rep.context}
        assert [a["name"] for a in report["assertions"]] == [a["name"] for a in rep.assertions]
    reps = supportoftors_check([kxy["x"], kxy["y"]], None, [1, 2])
    assert all(isinstance(rep, CheckReport) for rep in reps.values())
