"""The public surface of each module, pinned.

Adding or deleting a public name means editing these lists in the same
change, so the API grows only by decision and a deletion cannot leave a
dangling export behind.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

import reference
from systolica import errors, halfplane, hessian, polygons, trig

PUBLIC = {
    errors: {
        "DegenerateConfigurationError", "DegenerateMarginError",
        "InconsistentSceneError", "NoPentagonError", "NoPerpendicularError",
        "NoPolygonError", "SystolicaError",
    },
    trig: {
        "ACOSH_SLACK", "ACOSH_TOUCH", "diagonal_mixed_type",
        "diagonal_same_type", "equilateral_angle", "guarded_acosh",
        "pentagon_perpendicular", "pentagon_side", "semiregular_partner",
        "trirectangle_center",
    },
    halfplane: {
        "ASYMPTOTIC_EPS", "CommonPerpendicular", "HGeodesic", "HPoint", "YMIN",
        "common_perpendicular", "dist",
    },
    polygons: {
        "BoundaryFunctional", "COORDS_RTOL", "ChainDifferentials",
        "MarkedRightPolygon", "boundary_functional", "pentagon_coords",
        "polygon_from_json", "polygon_to_json", "proportionality_check",
        "realize", "sides_from_pentagon_coords",
    },
    hessian: {
        "ChordConfig", "ENDPOINT_FIELDS", "EndpointVariation",
        "HalfplaneScene", "MAX_CHORD_LENGTH", "MarginReport", "SCENE_FIELDS",
        "TransverseWeights", "ZERO_ENDPOINTS", "fd_oracle",
        "first_derivatives", "hessian_form", "hessian_margin", "hessian_split",
        "realize_scene", "scene_from_json", "scene_to_json",
    },
}

# public methods and properties each class defines itself
METHODS = {
    halfplane.HPoint: {"z"},
    halfplane.HGeodesic: {"point_at"},
    halfplane.CommonPerpendicular: set(),
    polygons.MarkedRightPolygon: {"n", "side_geodesic", "vertices"},
    polygons.ChainDifferentials: {
        "angle_matrix", "angles", "length_rank",
    },
    hessian.ChordConfig: {"n"},
}


def public_names(module):
    """Names the module defines itself, not the ones it imports."""
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and not inspect.ismodule(value)
            and getattr(value, "__module__", module.__name__) == module.__name__}


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
    loads, reads as an attribute or imports.  ``enclosing`` holds the
    names of the functions and classes whose definitions enclose it, and
    ``attribute`` says whether it is read as ``x.name``.  ``receiver`` is
    then the class ``x`` is known to be: the enclosing class for the first
    parameter of its method, the annotation of any other parameter;
    otherwise it is None."""
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
        elif isinstance(node, ast.Attribute):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, enclosing, True, known.get(receiver)
        elif isinstance(node, ast.alias):
            yield node.name, enclosing, False, None
        for child in ast.iter_child_nodes(node):
            yield from walk(child, enclosing, known, cls)
    return walk(tree, frozenset(), {}, None)


def surface(module):
    """The module's public names, with the public methods of the classes
    it defines as "Class.method"."""
    names = public_names(module)
    return names.union(*({f"{name}.{method}" for method in public_methods(value)}
                         for name, value in vars(module).items()
                         if name in names and inspect.isclass(value)))


# Names nothing outside the tests calls yet: the report of the systolica
# CLI (ROADMAP direction 4) is to use them or see them deleted.
AWAITING_CLI = {
    "equilateral_angle", "polygon_to_json", "scene_to_json",
    "ChainDifferentials.angles", "ChainDifferentials.angle_matrix",
}


def is_called(name, refs):
    """Whether a reference in ``refs`` calls the public ``name`` from
    outside its own definition.  A ``Class.method`` counts as called only
    by an attribute read outside ``Class``, through a receiver not known
    to be another class."""
    owner, _, last = name.rpartition(".")
    return any(ref == last and last not in enclosing
               and (not owner or attribute and owner not in enclosing
                    and receiver in (None, owner))
               for ref, enclosing, attribute, receiver in refs)


def test_surface_has_callers_outside_the_tests():
    # Every public name and method is referenced by the library or the
    # benchmark outside its own definition, matched by its last name, and
    # a method from outside its own class (is_called), except the pinned
    # AWAITING_CLI names.  Geometry that only the tests use belongs in
    # tests/reference.py; a name that gains a caller must leave the
    # pinned set.
    refs = [ref for path in sorted(ROOT.glob("src/systolica/*.py"))
            + sorted(ROOT.glob("perfbench/*.py"))
            for ref in references(ast.parse(path.read_text()))]
    uncalled = {name for module in PUBLIC for name in surface(module)
                if not is_called(name, refs)}
    assert uncalled == AWAITING_CLI


def test_reference_defines_no_library_name():
    # a name that moved to tests/reference.py exists there only
    library = set().union(*(surface(module) for module in PUBLIC))
    assert surface(reference) & library == set()


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
