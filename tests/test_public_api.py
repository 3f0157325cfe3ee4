"""The public surface of each module, pinned: its names, the methods of
its classes and the attributes of their instances.

Adding or deleting a public name, method or attribute means editing
these lists in the same change, so the API grows only by decision and a
deletion cannot leave a dangling export behind.  Each of them must also
have a reader in the library or the benchmark; code that only the tests
use lives in tests/reference.py.
"""

import ast
import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference
from systolica import errors, halfplane, hessian, polygons, trig

PUBLIC = {
    errors: {
        "DegenerateConfigurationError", "InconsistentSceneError",
        "NoPentagonError", "NoPerpendicularError", "NoPolygonError",
        "SystolicaError",
    },
    trig: {
        "ACOSH_SLACK", "ACOSH_TOUCH", "diagonal_mixed_type",
        "diagonal_same_type", "guarded_acosh", "pentagon_perpendicular",
        "pentagon_side", "semiregular_partner", "trirectangle_center",
    },
    halfplane: {
        "ASYMPTOTIC_EPS", "CommonPerpendicular", "HGeodesic", "HPoint",
        "common_perpendicular", "dist",
    },
    polygons: {
        "BoundaryFunctional", "COORDS_RTOL", "ChainDifferentials",
        "MarkedRightPolygon", "boundary_functional", "pentagon_coords",
        "polygon_from_json", "proportionality_check", "realize",
        "sides_from_pentagon_coords",
    },
    hessian: {
        "ChordConfig", "ENDPOINT_FIELDS", "EndpointVariation",
        "HalfplaneScene", "MAX_CHORD_LENGTH", "MarginReport", "SCENE_FIELDS",
        "TransverseWeights", "ZERO_ENDPOINTS", "fd_oracle",
        "first_derivatives", "hessian_form", "hessian_margin", "hessian_split",
        "realize_scene", "scene_from_json",
    },
}

# public methods and properties each class defines itself
METHODS = {
    halfplane.HPoint: {"z"},
    halfplane.HGeodesic: set(),
    halfplane.CommonPerpendicular: set(),
    polygons.MarkedRightPolygon: {"n", "side_geodesic", "vertices"},
    polygons.ChainDifferentials: {"length_rank"},
    hessian.ChordConfig: {"n"},
}

# public attributes of each class that has any (public_attributes)
ATTRIBUTES = {
    halfplane.HPoint: {"x", "y"},
    halfplane.HGeodesic: {"frame"},
    halfplane.CommonPerpendicular: {"length"},
    polygons.MarkedRightPolygon: {"closure_defect", "frames", "sides"},
    polygons.BoundaryFunctional: {"coefficients", "derivative", "value"},
    hessian.ChordConfig: {"length", "s", "theta"},
    hessian.TransverseWeights: {"weights"},
    hessian.EndpointVariation: {"u_par", "u_perp", "v_par", "v_perp"},
    hessian.MarginReport: {"eps_p", "eps_q", "epsilons"},
    hessian.HalfplaneScene: {"cfg", "endpoints", "leaves", "p", "q", "weights"},
}


def public_names(module):
    """Names the module defines itself, by a top-level ``def``, ``class``
    or assignment in its source, and not the ones it imports, whatever
    their values."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("module", list(PUBLIC), ids=lambda m: m.__name__)
def test_public_names_are_the_listed_ones(module):
    assert public_names(module) == PUBLIC[module]


def test_every_hessian_export_resolves():
    for name in hessian.__all__:
        getattr(hessian, name)
    assert set(hessian.__all__) <= PUBLIC[hessian]


def public_methods(cls):
    """Public methods and properties the class defines itself."""
    return {name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (property, functools.cached_property,
                                       classmethod, staticmethod)))}


@pytest.mark.parametrize("cls", list(METHODS), ids=lambda c: c.__name__)
def test_public_methods_are_the_listed_ones(cls):
    assert public_methods(cls) == METHODS[cls]


def _stored_on(method):
    """Names a method stores on its first parameter, by ``self.x = ...``
    or ``object.__setattr__(self, "x", ...)``."""
    this = method.args.args[0].arg
    names = set()
    for node in ast.walk(method):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == this):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
              and len(node.args) > 1 and ast.unparse(node.args[0]) == this
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def public_attributes(module):
    """{class: public attribute names} for each class the module's source
    defines: the names annotated in its body (a dataclass's fields), its
    ``__slots__`` entries, and the names its methods store on their first
    parameter (``_stored_on``)."""
    found = {}
    for cls in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign) and "__slots__" in map(ast.unparse, node.targets):
                names.update(ast.literal_eval(node.value))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names |= _stored_on(node)
        found[getattr(module, cls.name)] = {name for name in names if not name.startswith("_")}
    return found


def test_public_attributes_are_the_listed_ones():
    found = {cls: names for module in PUBLIC
             for cls, names in public_attributes(module).items() if names}
    assert found == ATTRIBUTES


ROOT = Path(__file__).parents[1]


def _class_of(annotation):
    """The last name of a parameter annotation such as ``HalfplaneScene``
    or ``"halfplane.HPoint"``, or None."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval").body
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    return annotation.id if isinstance(annotation, ast.Name) else None


def references(tree):
    """(name, enclosing, attribute, receiver) for each name the tree
    loads, reads as an attribute or imports; an attribute stored or
    deleted is no read.  ``enclosing`` holds the names of the functions
    and classes whose definitions enclose it, and ``attribute`` says
    whether it is read as ``x.name``.  ``receiver`` is then the class
    ``x`` is known to be: the enclosing class for the first parameter of
    its method, the annotation of any other parameter; "import" for a
    name that an import binds, as ``x`` of ``operator.index`` is a
    module; otherwise it is None."""
    def walk(node, enclosing, known, cls):
        if isinstance(node, ast.ClassDef):
            enclosing, cls = enclosing | {node.name}, node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            known = {**known, **{p.arg: _class_of(p.annotation) for p in params}}
            if cls and params:
                known[params[0].arg] = cls
            cls = None
        if isinstance(node, ast.Name):
            yield node.id, enclosing, False, None
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, enclosing, True, known.get(receiver)
        elif isinstance(node, ast.alias):
            yield node.name, enclosing, False, None
        for child in ast.iter_child_nodes(node):
            yield from walk(child, enclosing, known, cls)
    imported = {(alias.asname or alias.name).partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    return walk(tree, frozenset(), dict.fromkeys(imported, "import"), None)


def surface(module):
    """The module's public names, with the public methods of the classes
    it defines as "Class.method"."""
    names = public_names(module)
    return names.union(*({f"{name}.{method}" for method in public_methods(value)}
                         for name, value in vars(module).items()
                         if name in names and inspect.isclass(value)))


def is_called(name, refs):
    """Whether a reference in ``refs`` calls the public ``name`` from
    outside its own definition.  A ``Class.method`` or ``Class.attribute``
    counts as called only by an attribute read outside ``Class``, through
    a receiver not known to be another class or a module."""
    owner, _, last = name.rpartition(".")
    return any(ref == last and last not in enclosing
               and (not owner or attribute and owner not in enclosing
                    and receiver in (None, owner))
               for ref, enclosing, attribute, receiver in refs)


def library_references():
    """``references`` of the library's and the benchmark's sources."""
    return [ref for path in sorted(ROOT.glob("src/systolica/*.py"))
            + sorted(ROOT.glob("perfbench/*.py"))
            for ref in references(ast.parse(path.read_text()))]


def test_surface_has_callers_outside_the_tests():
    # Every public name and method is referenced by the library or the
    # benchmark outside its own definition, matched by its last name, and
    # a method from outside its own class (is_called).  Code that only the
    # tests use belongs in tests/reference.py.
    refs = library_references()
    uncalled = {name for module in PUBLIC for name in surface(module)
                if not is_called(name, refs)}
    assert uncalled == set()


def test_attributes_are_read_outside_the_tests():
    # every public attribute is read by the library or the benchmark from
    # outside its own class (is_called)
    refs = library_references()
    unread = {f"{cls.__name__}.{name}" for module in PUBLIC
              for cls, names in public_attributes(module).items() for name in names
              if not is_called(f"{cls.__name__}.{name}", refs)}
    assert unread == set()


def test_reference_defines_no_library_name():
    # a name that moved to tests/reference.py, a method of the library's
    # among them, exists there only
    library = {name.rpartition(".")[2] for module in PUBLIC for name in surface(module)}
    assert {name.rpartition(".")[2] for name in surface(reference)} & library == set()


def test_reference_holds_no_dead_code():
    # every public name of tests/reference.py is referenced by a test
    # module, or by the reference itself outside its own definition
    refs = [ref for path in sorted(ROOT.glob("tests/test_*.py")) + [ROOT / "tests/reference.py"]
            for ref in references(ast.parse(path.read_text()))]
    assert {name for name in public_names(reference) if not is_called(name, refs)} == set()


def frame_helpers():
    """The names that take a frame row: every function and class that
    ``halfplane`` defines, and ``hessian._measure_leaf``."""
    tree = ast.parse(Path(halfplane.__file__).read_text())
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))} | {"_measure_leaf"}


def test_no_library_call_spreads_a_row():
    # a frame travels whole, as one row: a call that spreads it into
    # four arguments builds a fresh argument tuple per row of the chart,
    # per leaf of the oracle and per side pair
    helpers = frame_helpers()
    assert {"_point", "_relative", "_product", "_unit", "_shifted", "_perpendicular_length",
            "_foot", "_measure_leaf"} <= helpers
    spread = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
              for path in sorted(ROOT.glob("src/systolica/*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call)
              and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in helpers
              and any(isinstance(arg, ast.Starred) for arg in node.args)]
    assert spread == []


STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}


def writes_to_the_console(node):
    """Whether the AST node calls print or breakpoint, or reads one of
    sys's streams, as ``sys.stdout`` or by ``from sys import stdout``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in ("print", "breakpoint")
    if isinstance(node, ast.Attribute):
        return (node.attr in STREAMS and isinstance(node.value, ast.Name)
                and node.value.id == "sys")
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(alias.name in STREAMS for alias in node.names)
    return False


def test_the_library_never_prints():
    # logging at DEBUG is the library's only channel
    found = [f"{path.name}:{node.lineno}" for path in sorted(ROOT.glob("src/systolica/*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if writes_to_the_console(node)]
    assert found == []


def test_declared_scripts_resolve():
    # an installed entry point imports its target when it runs
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r}: {target} is not callable"


def test_the_library_imports_no_scipy():
    # a fresh interpreter's import of scipy.linalg alone takes about
    # 340 ms, which the benchmark's setup time would carry
    code = ("import sys, systolica.polygons, systolica.hessian; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
