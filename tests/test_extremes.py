"""A deterministic sweep of extreme values through the public entry points.

Each of ``EXTREMES`` -- zero, the smallest subnormal, a tiny normal, a
length past sinh's range, the top of the floats, both infinities, NaN, an
integer beyond the floats, a bool, a numeric string and None -- goes into
every argument of each ``trig`` function and of the reference's
``equilateral_angle`` and ``point_at``, which keep their gates, and in
pairs into the slots of a two-crossing chord scene, as built and as
JSON, of the leaf rows of its realization, of a geodesic's frame, of a
vertex chain and of a polygon's sides, coordinates and JSON.  Only
``ValueError`` or a ``SystolicaError`` may escape, nothing may warn,
and every float returned is finite.  A value that is not a number in
the float range raises exactly ``ValueError`` in every slot that takes
a length, a count, a coordinate or a frame entry, and so does a numpy
complex scalar or array, with no warning whatever the filter.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from systolica import trig
from systolica.halfplane import HGeodesic, HPoint
from systolica.hessian import (ChordConfig, EndpointVariation, HalfplaneScene,
                               TransverseWeights, first_derivatives, fd_oracle, hessian_form,
                               hessian_margin, hessian_split, realize_scene, scene_from_json)
from systolica.polygons import (ChainDifferentials, polygon_from_json, realize,
                                sides_from_pentagon_coords)

from reference import (angle_matrix, chain_angles, equilateral_angle, point_at, polygon_to_json,
                       segment_lengths)
from test_hessian import typed_or_none

EXTREMES = (0.0, 5e-324, 1e-300, 710.0, 1e308, 2.0 ** 1023,
            math.inf, -math.inf, math.nan, 10 ** 400, True, "1", None)

# values that are not numbers in the float range
MALFORMED = (10 ** 400, "1.5", None)

# the trig functions (and the reference's equilateral_angle, gated as they
# are) and, per argument, values that make the others valid
TRIG = [
    (trig.guarded_acosh, (2.0,)),
    (trig.trirectangle_center, (1.0, 4)),
    (trig.diagonal_same_type, (1.0, 2, 5)),
    (trig.diagonal_mixed_type, (1.0, 1.0, 3, 5)),
    (trig.semiregular_partner, (1.0, 4)),
    (equilateral_angle, (1.0,)),
]

# a valid two-crossing scene, slot by slot: (L, s1, s2, theta1, theta2,
# a1, a2, u_perp, u_par, v_perp, v_par)
SCENE = (2.0, 0.5, 1.5, 1.0, 2.0, 1.0, -0.5, 0.5, 0.25, -0.5, 0.75)

# a valid triangle, coordinate by coordinate: (x0, y0, x1, y1, x2, y2)
TRIANGLE = (0.0, 1.0, 0.0, 2.0, 1.5, 2.0)

# side lengths to walk, and pentagon-chain coordinates of a hexagon and
# of a pentagon
SIDES = (1.0, 1.2, 0.8, 1.1, 0.9)
COORDS = (1.0, 1.2, 0.8)
PENTAGON = (1.5, 1.5)

# the scene realized from SCENE, and the polygon JSON of COORDS
PLACED = realize_scene(ChordConfig(SCENE[0], SCENE[1:3], SCENE[3:5]),
                       TransverseWeights(SCENE[5:7]), EndpointVariation(*SCENE[7:]))
POLYGON_JSON = polygon_to_json(sides_from_pentagon_coords(COORDS), COORDS)


def with_leaves(*rows):
    """PLACED with its leaf rows replaced by ``rows``."""
    return HalfplaneScene(cfg=PLACED.cfg, weights=PLACED.weights, endpoints=PLACED.endpoints,
                          p=PLACED.p, q=PLACED.q, leaves=rows)


@pytest.fixture(autouse=True)
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def assert_finite(value):
    assert np.isfinite(np.asarray(value, dtype=float)).all(), value


def variants(base):
    """``base`` with one slot, or two, replaced by extreme values."""
    yield base
    for slots in itertools.chain(itertools.combinations(range(len(base)), 1),
                                 itertools.combinations(range(len(base)), 2)):
        for values in itertools.product(EXTREMES, repeat=len(slots)):
            v = list(base)
            for k, x in zip(slots, values):
                v[k] = x
            yield v


@pytest.mark.parametrize("call, base", TRIG, ids=[f.__name__ for f, _ in TRIG])
def test_trig_fails_typed_on_extreme_arguments(call, base):
    for args in itertools.product(*((b, *EXTREMES) for b in base)):
        out = typed_or_none(call, *args)
        if out is not None:
            assert_finite(out)


def test_chord_scene_fails_typed_on_extreme_slots():
    for L, s1, s2, t1, t2, a1, a2, *ends in variants(SCENE):
        cfg = typed_or_none(ChordConfig, L, (s1, s2), (t1, t2))
        weights = typed_or_none(TransverseWeights, (a1, a2))
        endpoints = typed_or_none(EndpointVariation, *ends)
        if cfg is None or weights is None or endpoints is None:
            continue
        for call in (first_derivatives, hessian_split, hessian_form):
            out = typed_or_none(call, cfg, weights, endpoints)
            if out is not None:
                assert_finite(out)
        assert_finite(hessian_margin(cfg).epsilons)
        scene = typed_or_none(realize_scene, cfg, weights, endpoints)
        if scene is not None:
            for order in (1, 2):
                out = typed_or_none(fd_oracle, scene, order)
                if out is not None:
                    assert_finite(out)


def test_vertex_chain_fails_typed_on_extreme_coordinates():
    for x0, y0, x1, y1, x2, y2 in variants(TRIANGLE):
        points = [typed_or_none(HPoint, x, y) for x, y in ((x0, y0), (x1, y1), (x2, y2))]
        if None in points:
            continue
        chain = typed_or_none(ChainDifferentials, points)
        if chain is None:
            continue
        assert_finite(segment_lengths(points))
        for method, arg in ((chain_angles, chain), (angle_matrix, points),
                            (ChainDifferentials.length_rank, chain)):
            out = typed_or_none(method, arg)
            if out is not None:
                assert_finite(out)


def scene_json(L, s1, s2, t1, t2, a1, a2, u_perp, u_par, v_perp, v_par):
    return {"chord_length": L,
            "crossings": [{"s": s1, "theta": t1}, {"s": s2, "theta": t2}],
            "weights": [a1, a2],
            "endpoint": {"u_perp": u_perp, "u_par": u_par, "v_perp": v_perp, "v_par": v_par}}


def test_scene_json_fails_typed_on_extreme_slots():
    for slots in variants(SCENE):
        read = typed_or_none(scene_from_json, scene_json(*slots))
        if read is not None:
            cfg, weights, endpoints = read
            assert_finite([cfg.length, *cfg.s, *cfg.theta, *weights.weights,
                           endpoints.u_perp, endpoints.u_par, endpoints.v_perp, endpoints.v_par])


def test_scene_leaf_rows_fail_typed_on_extreme_entries():
    for entries in variants(sum(PLACED.leaves, ())):
        scene = typed_or_none(with_leaves, entries[:4], entries[4:])
        if scene is None:
            continue
        assert_finite(scene.leaves)
        for order in (1, 2):
            out = typed_or_none(fd_oracle, scene, order)
            if out is not None:
                assert_finite(out)


def test_geodesic_frames_fail_typed_on_extreme_entries():
    for frame in variants((1.0, 0.0, 0.0, 1.0)):
        g = typed_or_none(HGeodesic, frame)
        if g is None:
            continue
        assert_finite(g.frame)
        for s in (0.0, 1.0):
            point = typed_or_none(point_at, g, s)
            if point is not None:
                assert_finite((point.x, point.y))


@pytest.mark.parametrize("build, base", [(realize, SIDES), (sides_from_pentagon_coords, COORDS),
                                         (sides_from_pentagon_coords, PENTAGON)],
                         ids=["realize", "sides_from_pentagon_coords",
                              "sides_from_pentagon_coords-pentagon"])
def test_polygons_fail_typed_on_extreme_slots(build, base):
    for values in variants(base):
        poly = typed_or_none(build, values)
        if poly is not None:
            assert_finite([*poly.sides, *sum(poly.frames, ()), poly.closure_defect])


@pytest.mark.parametrize("field", ["sides", "coords"])
def test_polygon_json_fails_typed_on_extreme_entries(field):
    for values in variants(POLYGON_JSON[field]):
        poly = typed_or_none(polygon_from_json, {**POLYGON_JSON, field: values})
        if poly is not None:
            assert_finite([*poly.sides, *sum(poly.frames, ()), poly.closure_defect])


# (id, call, valid arguments): each argument is one real-number slot
SLOTS = [(f.__name__, f, base) for f, base in TRIG] + [
    ("ChordConfig", lambda L, s1, s2, t1, t2: ChordConfig(L, (s1, s2), (t1, t2)), SCENE[:5]),
    ("TransverseWeights", lambda a1, a2: TransverseWeights((a1, a2)), SCENE[5:7]),
    ("EndpointVariation", EndpointVariation, SCENE[7:]),
    ("scene_from_json", lambda L, *ends: scene_from_json(scene_json(L, *SCENE[1:7], *ends)),
     (SCENE[0], *SCENE[7:])),
    ("leaves", lambda *e: with_leaves(e[:4], e[4:]), sum(PLACED.leaves, ())),
    ("HPoint", HPoint, (0.0, 1.0)),
    ("point_at", lambda s: point_at(HGeodesic((1.0, 0.0, 0.0, 1.0)), s), (1.0,)),
    ("HGeodesic", lambda *frame: HGeodesic(frame), (1.0, 0.0, 0.0, 1.0)),
    ("realize", lambda *sides: realize(sides), SIDES),
    ("sides_from_pentagon_coords", lambda *c: sides_from_pentagon_coords(c), COORDS),
    ("sides_from_pentagon_coords-pentagon", lambda *c: sides_from_pentagon_coords(c), PENTAGON),
    ("polygon_from_json-sides", lambda *v: polygon_from_json({**POLYGON_JSON, "sides": list(v)}),
     POLYGON_JSON["sides"]),
    ("polygon_from_json-coords", lambda *v: polygon_from_json({**POLYGON_JSON, "coords": list(v)}),
     POLYGON_JSON["coords"])]

# (id, call, valid vector): the vector is one sequence-of-reals slot
VECTOR_SLOTS = [
    ("ChordConfig-s", lambda s: ChordConfig(SCENE[0], s, SCENE[3:5]), SCENE[1:3]),
    ("ChordConfig-theta", lambda theta: ChordConfig(SCENE[0], SCENE[1:3], theta), SCENE[3:5]),
    ("TransverseWeights", TransverseWeights, SCENE[5:7]),
    ("leaves", lambda row: with_leaves(row, PLACED.leaves[1]), PLACED.leaves[0]),
    ("HGeodesic", HGeodesic, (1.0, 0.0, 0.0, 1.0)),
    ("realize", realize, SIDES),
    ("sides_from_pentagon_coords", sides_from_pentagon_coords, COORDS),
    ("sides_from_pentagon_coords-pentagon", sides_from_pentagon_coords, PENTAGON),
    ("polygon_from_json", lambda v: polygon_from_json({**POLYGON_JSON, "sides": v}),
     POLYGON_JSON["sides"])]

# complex scalars, with and without an imaginary part, and arrays of them:
# numpy's complex scalars convert to their real part by the float protocol
# with only a ComplexWarning
COMPLEX = (np.complex128(1.5 + 2j), np.complex64(1.5 + 2j), np.complex128(1.5),
           np.complex64(1.5), np.array(1.5 + 2j), np.array([1.5 + 2j], dtype=np.complex64))


def malformed_slots():
    """(id, call, args) with one length, count or coordinate slot of a valid
    call replaced by each of ``MALFORMED``."""
    for name, call, base in SLOTS:
        for i, bad in itertools.product(range(len(base)), MALFORMED):
            args = list(base)
            args[i] = bad
            yield pytest.param(call, args, id=f"{name}-{i}-{type(bad).__name__}")
    for f, base in TRIG:
        if "diagonal" in f.__name__:  # the slot count k, second from last
            for bad in (2.0, True):
                yield pytest.param(f, [*base[:-2], bad, base[-1]],
                                   id=f"{f.__name__}-k-{bad!r}")


@pytest.mark.parametrize("call, args", malformed_slots())
def test_values_that_are_not_numbers_raise_exactly_value_error(call, args):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert type(info.value) is ValueError


def refused_without_a_warning(call, *args):
    """Whether call(*args) raises exactly ValueError and warns of nothing,
    under a filter that ignores warnings and under one that shows all."""
    for action in ("ignore", "always"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            try:
                call(*args)
            except ValueError as exc:
                if type(exc) is not ValueError or caught:
                    return False
            else:
                return False
    return True


@pytest.mark.parametrize("call, base", [case[1:] for case in SLOTS],
                         ids=[case[0] for case in SLOTS])
def test_complex_values_are_refused_without_a_warning(call, base):
    for i, value in itertools.product(range(len(base)), COMPLEX):
        args = list(base)
        args[i] = value
        assert refused_without_a_warning(call, *args), (i, value)


@pytest.mark.parametrize("call, base", [case[1:] for case in VECTOR_SLOTS],
                         ids=[case[0] for case in VECTOR_SLOTS])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_complex_arrays_are_refused_without_a_warning(call, base, dtype):
    for imag in (0.0, 0.5):
        assert refused_without_a_warning(call, np.array(base, dtype=dtype) + 1j * imag), imag
