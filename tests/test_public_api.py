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
    halfplane.HGeodesic: {"endpoints", "point_at"},
    halfplane.CommonPerpendicular: set(),
    polygons.MarkedRightPolygon: {"n", "side_geodesic", "vertices"},
    polygons.ChainDifferentials: {
        "angle_matrix", "angles", "length_matrix", "length_rank",
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


def references(tree):
    """(name, enclosing) for each name the tree loads, reads as an
    attribute or imports, with the names of the functions and classes
    whose definitions enclose it."""
    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        elif isinstance(node, ast.alias):
            yield node.name, enclosing
        for child in ast.iter_child_nodes(node):
            yield from walk(child, enclosing)
    return walk(tree, frozenset())


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


def test_surface_has_callers_outside_the_tests():
    # Every public name and method is referenced by the library or the
    # benchmark outside its own definition, matched by its last name,
    # except the pinned AWAITING_CLI names.  Geometry that only the tests
    # use belongs in tests/reference.py; a name that gains a caller must
    # leave the pinned set.
    used = set()
    for path in sorted(ROOT.glob("src/systolica/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        used.update(name for name, enclosing in references(ast.parse(path.read_text()))
                    if name not in enclosing)
    uncalled = {name for module in PUBLIC for name in surface(module)
                if name.rpartition(".")[2] not in used}
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
