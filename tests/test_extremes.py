"""A deterministic sweep of extreme values through the public entry points.

Each of ``EXTREMES`` -- zero, the smallest subnormal, a tiny normal, a
length past sinh's range, the top of the floats, both infinities, NaN, an
integer beyond the floats and a bool -- goes into every argument of each
``trig`` function, and in pairs into the slots of a two-crossing chord
scene and of a vertex chain.  Only ``ValueError`` or a ``SystolicaError``
may escape, nothing may warn, and every float returned is finite.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from systolica import trig
from systolica.halfplane import HPoint
from systolica.hessian import (ChordConfig, EndpointVariation, TransverseWeights,
                               first_derivatives, fd_oracle, hessian_form, hessian_margin,
                               hessian_split, realize_scene)
from systolica.polygons import ChainDifferentials

from test_hessian import typed_or_none

EXTREMES = (0.0, 5e-324, 1e-300, 710.0, 1e308, 2.0 ** 1023,
            math.inf, -math.inf, math.nan, 10 ** 400, True)

# the trig functions and, per argument, values that make the others valid
TRIG = [
    (trig.guarded_acosh, (2.0,)),
    (trig.pentagon_perpendicular, (1.5, 1.5)),
    (trig.pentagon_side, (1.0, 1.0)),
    (trig.trirectangle_center, (1.0, 4)),
    (trig.diagonal_same_type, (1.0, 2, 5)),
    (trig.diagonal_mixed_type, (1.0, 1.0, 3, 5)),
    (trig.semiregular_partner, (1.0, 4)),
    (trig.equilateral_angle, (1.0,)),
]

# a valid two-crossing scene, slot by slot: (L, s1, s2, theta1, theta2,
# a1, a2, u_perp, u_par, v_perp, v_par)
SCENE = (2.0, 0.5, 1.5, 1.0, 2.0, 1.0, -0.5, 0.5, 0.25, -0.5, 0.75)

# a valid triangle, coordinate by coordinate: (x0, y0, x1, y1, x2, y2)
TRIANGLE = (0.0, 1.0, 0.0, 2.0, 1.5, 2.0)


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


@pytest.mark.parametrize("closed", [True, False])
def test_vertex_chain_fails_typed_on_extreme_coordinates(closed):
    for x0, y0, x1, y1, x2, y2 in variants(TRIANGLE):
        points = [typed_or_none(HPoint, x, y) for x, y in ((x0, y0), (x1, y1), (x2, y2))]
        if None in points:
            continue
        chain = typed_or_none(ChainDifferentials, points, closed)
        if chain is None:
            continue
        assert_finite(chain.lengths)
        for method in (chain.angles, chain.angle_matrix, chain.length_rank):
            out = typed_or_none(method)
            if out is not None:
                assert_finite(out)
