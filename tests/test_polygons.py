"""Tests for the right-angled polygon chart, tangents, and differentials.

The independent checks here are geometric: polygons are rebuilt by
walking their side lengths, coordinates are re-read through common
perpendiculars, and every differential is compared against central
finite differences or against an exactly-known curve in the moduli
space.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from systolica import polygons
from systolica.errors import (DegenerateConfigurationError, NoPerpendicularError,
                              NoPolygonError)
from systolica.halfplane import HPoint, _unit, common_perpendicular, dist
from systolica.polygons import (
    BoundaryFunctional,
    boundary_functional,
    ChainDifferentials,
    pentagon_coords,
    polygon_from_json,
    polygon_to_json,
    proportionality_check,
    realize,
    sides_from_pentagon_coords,
)
from systolica.trig import pentagon_perpendicular, pentagon_side, semiregular_partner

from reference import HTangent, apply, geodesic_from_direction, geodesics, tangent_u

EPS = np.finfo(float).eps

# frozen assembly of two small polygons; the first side of the pentagon
# doubles as acosh(sinh(1)*sinh(1.2)) which pins the n=5 branch exactly
PENTAGON_SIDES = (1.1753002364660627, 1.0386778666805139, 1.0,
                  1.2, 0.9184666237052919)
HEXAGON_SIDES = (1.8143493286660695, 1.3880521073768781, 0.8,
                 2.4001304938489234, 0.9, 1.2623782554610337)
# realize(HEXAGON_SIDES) as the walk with one object per side gave it
HEXAGON_FRAMES = (
    (0.44925666281864396, -1.1129495484006657, 0.44925666281864396, 1.1129495484006657),
    (1.1046466055649178, 0.46930174002031494, 0.46930174002031494, 1.1046466055649178),
    (1.3978023357972895, 1.729357255791486, 0.2740679854938813, 1.0544849021541158),
    (0.6548185056964738, 2.2942071612104304, -0.2107043706066929, 0.7889216928992031),
    (1.0488225146561019, 2.025983039754646, -0.6627089157447328, -0.32668732679271895),
    (0.24964921755052916, 2.076563985201456, -0.5876265464883882, -0.8822143539925917))
HEXAGON_VERTICES = (
    (-0.7197734176655047, 0.6942090659319563), (0.7197734176655046, 0.6942090659319564),
    (1.8589536105043638, 0.8424233128659347), (2.507486952202692, 1.4997140735436758),
    (-2.485634428460827, 1.831811439525633), (-1.7610025951926531, 0.8899907967561952))


def pentagon_curve(sides, i, t):
    """Exact moduli-space curve through `sides` stretching side i (1-based)
    at unit rate; only the four pentagon-coupled sides move."""
    n = len(sides)
    li0, lj0 = sides[i - 1], sides[i % n]
    cosh_f = math.sinh(li0) * math.sinh(lj0)
    f = math.acosh(cosh_f)
    a0 = math.asinh(math.cosh(lj0) / math.sinh(f))
    b0 = math.asinh(math.cosh(li0) / math.sinh(f))
    li = li0 + t
    lj = math.asinh(cosh_f / math.sinh(li))
    out = list(sides)
    out[i - 1] = li
    out[i % n] = lj
    out[(i - 2) % n] += math.asinh(math.cosh(lj) / math.sinh(f)) - a0
    out[(i + 1) % n] += math.asinh(math.cosh(li) / math.sinh(f)) - b0
    return out


class TestPentagonChart:
    def test_frozen_assemblies(self):
        p5 = sides_from_pentagon_coords([1.0, 1.2])
        assert p5.sides == pytest.approx(PENTAGON_SIDES, abs=1e-14)
        p6 = sides_from_pentagon_coords([0.8, 1.1, 0.9])
        assert p6.sides == pytest.approx(HEXAGON_SIDES, abs=1e-14)

    def test_round_trip_through_realization(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(5, 10)
            if n == 5:
                coords = [rng.uniform(0.9, 2.0), rng.uniform(0.9, 2.0)]
            else:
                coords = [rng.uniform(0.35, 2.1) for _ in range(n - 3)]
            poly = sides_from_pentagon_coords(coords)
            assert poly.closure_defect < 1e-10
            back = pentagon_coords(poly)
            assert back == pytest.approx(coords, abs=1e-10)

    def test_coords_equal_the_common_perpendicular_route(self):
        # half of the polygons close up, half are walks of arbitrary sides
        # in which side 1 may cross some side i; both ways of reading h_i
        # must agree bit for bit or refuse the same polygon
        rng = random.Random(5)
        refused = 0
        for _ in range(200):
            n = rng.randint(6, 24)
            if rng.random() < 0.5:
                poly = realize([rng.uniform(0.2, 2.0) for _ in range(n)])
            else:
                poly = sides_from_pentagon_coords(
                    [rng.uniform(0.4, 2.0) for _ in range(n - 3)])
            g1 = poly.side_geodesic(1)
            try:
                hs = [common_perpendicular(g1, poly.side_geodesic(i)).length
                      for i in range(4, n - 1)]
            except NoPerpendicularError:
                refused += 1
                with pytest.raises(NoPerpendicularError):
                    pentagon_coords(poly)
                continue
            assert pentagon_coords(poly) == (poly.sides[2], *hs, poly.sides[n - 2])
        assert 0 < refused < 200

    def test_pentagon_needs_large_enough_adjacent_sides(self):
        with pytest.raises(NoPolygonError) as exc:
            sides_from_pentagon_coords([0.4, 0.5])
        assert exc.value.index == 0

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            sides_from_pentagon_coords([1.0])
        with pytest.raises(ValueError):
            sides_from_pentagon_coords([1.0, -0.5, 1.0])
        # a bad inner perpendicular of a 9-gon, which only the chain's
        # loop over h_4..h_7 reads, and one next to a coordinate that
        # overflows: malformed input is refused before any pentagon
        for bad in (-0.5, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sides_from_pentagon_coords([1.0, 1.2, bad, 0.9, 1.1, 0.8])
            with pytest.raises(ValueError):
                sides_from_pentagon_coords([800.0, 1.2, bad, 0.9, 1.1, 0.8])

    @pytest.mark.parametrize("build, args", [
        (sides_from_pentagon_coords, ([800.0, 1.0, 1.0],)),
        (sides_from_pentagon_coords, ([1.0, 1.0, 800.0],)),
        (sides_from_pentagon_coords, ([1.0, 1.2, 800.0, 0.9, 1.1, 0.8],)),  # an inner h
        (sides_from_pentagon_coords, ([1.0, 1.2, 0.9, 800.0, 1.1, 0.8],)),
        # cosh h_5 / sinh h_4 overflows, though each is a float
        (sides_from_pentagon_coords, ([1.0, 1e-300, 700.0, 0.9, 1.1, 0.8],)),
        (sides_from_pentagon_coords, ([800.0, 1.0],)),
        (pentagon_perpendicular, (800.0, 1.0)),
        (pentagon_side, (800.0, 1.0)),
        (pentagon_side, (1.0, 800.0)),
        (pentagon_side, (700.0, 1e-300)),  # the quotient overflows
        (realize, ([800.0] * 6,)),
        (realize, ([3000.0] * 6,)),  # e^{-l/4} underflows to zero
    ])
    def test_input_beyond_the_float_range_fails_typed(self, build, args):
        with pytest.raises(DegenerateConfigurationError):
            build(*args)

    def test_realize_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            realize([1.0, 1.0, 1.0, 1.0])  # too few sides
        with pytest.raises(ValueError):
            realize([1.0, 0.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("build, values", [
        (realize, [10**400, 1, 1, 1, 1]),  # beyond the float range
        (realize, ["1.5", 1, 1, 1, 1]),
        (realize, [None, 1, 1, 1, 1]),
        (sides_from_pentagon_coords, [10**400, 1.0, 1.0]),
        (sides_from_pentagon_coords, [1.0, "1.0", 1.0]),
    ])
    def test_values_that_are_not_numbers_raise_value_error(self, build, values):
        with pytest.raises(ValueError):
            build(values)

    def test_json_round_trip(self):
        poly = sides_from_pentagon_coords([0.8, 1.1, 0.9])
        data = polygon_to_json(poly)
        assert data["n"] == 6
        assert data["coords"] == pytest.approx([0.8, 1.1, 0.9])
        again = polygon_from_json(data)
        assert again.sides == pytest.approx(poly.sides)
        with pytest.raises(ValueError):
            polygon_from_json({"n": 5, "sides": [1.0] * 6})

    @pytest.mark.parametrize("coords", [
        [5.0, 5.0],  # wrong count and wrong values
        [5.0, 5.0, 5.0],
        [1.0, 1.2],
        [1.0, 1.2, 0.8, 1.0],
        [1.0, 1.2, 0.0],
        [1.0, -1.2, 0.8],
        [1.0, 1.2, math.nan],
        [1.0, 1.2, math.inf],
        [1.0, 1.2, 0.8 * (1 + 2e-6)],
        [True, 1.2, 0.8],  # JSON numbers only, though true == 1
        ["1.0", 1.2, 0.8],
    ])
    def test_json_coords_must_be_the_sides_coordinates(self, coords):
        data = polygon_to_json(sides_from_pentagon_coords([1.0, 1.2, 0.8]))
        data["coords"] = coords
        with pytest.raises(ValueError):
            polygon_from_json(data)

    def test_json_round_trip_through_the_chart_at_20_to_24(self):
        # walking these sides misses the coordinates by more than
        # COORDS_RTOL on 11 of 120 such polygons; the chart rebuilds them
        rng = random.Random(7)
        for _ in range(120):
            poly = sides_from_pentagon_coords(random_coords(rng, rng.randint(20, 24)))
            again = polygon_from_json(polygon_to_json(poly))
            assert (again.sides, again.frames, again.coords) == (
                poly.sides, poly.frames, poly.coords)

    def test_json_sides_must_be_the_coordinates_sides(self):
        data = polygon_to_json(sides_from_pentagon_coords([1.0, 1.2, 0.8]))
        data["sides"][3] *= 1 + 2e-6
        with pytest.raises(ValueError, match="side 4"):
            polygon_from_json(data)

    def test_json_coords_within_tolerance_are_kept(self):
        data = polygon_to_json(sides_from_pentagon_coords([1.0, 1.2, 0.8]))
        data["coords"] = [c * (1 + 5e-7) for c in data["coords"]]
        assert polygon_from_json(data).coords == tuple(data["coords"])


class TestFrameTable:
    def test_realize_keeps_the_walks_bits(self):
        poly = realize(HEXAGON_SIDES)
        assert poly.frames == HEXAGON_FRAMES
        assert poly.closure_defect == 1.3440693017233997e-15
        assert tuple((v.x, v.y) for v in poly.vertices) == HEXAGON_VERTICES
        for k in range(1, poly.n + 1):  # each geodesic shares its row
            assert poly.side_geodesic(k).frame is poly.frames[k - 1]

    def test_constructors_build_no_object_per_side(self, built):
        for coords in ([1.0, 1.2], [0.7, 1.3, 0.9, 1.6, 1.1] * 4):
            poly = sides_from_pentagon_coords(coords)
            pentagon_coords(poly)
            realize(poly.sides)
            polygon_from_json(polygon_to_json(poly))
        assert not built

    def test_geometry_is_built_on_access(self, built):
        poly = sides_from_pentagon_coords([0.7, 1.3, 0.9, 1.6, 1.1])
        poly.side_geodesic(3)
        assert built == {"HGeodesic": 1}
        assert poly.vertices is poly.vertices
        assert built == {"HGeodesic": 1, "HPoint": 8}

    def test_vertices_are_the_frames_images_of_i(self):
        poly = sides_from_pentagon_coords([0.7, 1.3, 0.9, 1.6, 1.1])
        for g, v in zip(geodesics(poly), poly.vertices):
            p = g.point_at(0.0)
            assert (p.x, p.y) == (v.x, v.y)

    def test_right_angle_defect_sees_a_turned_side(self):
        # side 2 turned about vertex 2 by phi, F_2 R(phi) with R the
        # rotation about i, meets side 1 at pi/2 + phi: |cos| = sin(phi)
        # (the pair alone, whose two cyclic corners are that one corner)
        rows = sides_from_pentagon_coords([0.7, 1.3, 0.9]).frames[:2]
        assert polygons._right_angle_defect(rows) < 1e-15
        phi = 1e-3
        c, s = math.cos(phi / 2), math.sin(phi / 2)
        a, b, cc, d = rows[1]
        turned = (a * c - b * s, a * s + b * c, cc * c - d * s, cc * s + d * c)
        assert polygons._right_angle_defect((rows[0], turned)) == pytest.approx(
            math.sin(phi), rel=1e-9)

    def test_vertex_near_the_real_axis_fails_typed(self):
        # side 1 of length 60 puts vertex 1 at height about 2 e^-30
        with pytest.raises(DegenerateConfigurationError, match="vertex 1"):
            realize([60.0, 1.0, 1.0, 1.0, 1.0])


class TestTangentU:
    def test_matches_the_exact_pentagon_curve(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(5, 9)
            coords = ([rng.uniform(0.9, 2.0)] * 2 if n == 5
                      else [rng.uniform(0.4, 2.0) for _ in range(n - 3)])
            poly = sides_from_pentagon_coords(coords)
            i = rng.randint(1, n)
            h = 1e-5
            fd = [(sp - sm) / (2 * h) for sp, sm in
                  zip(pentagon_curve(poly.sides, i, h),
                      pentagon_curve(poly.sides, i, -h))]
            assert tangent_u(poly, i) == pytest.approx(fd, abs=1e-8)

    def test_curve_stays_closed_at_finite_parameter(self):
        poly = sides_from_pentagon_coords([1.1, 0.8, 1.3])
        moved = realize(pentagon_curve(poly.sides, 2, 0.15))
        assert moved.closure_defect < 1e-9

    def test_first_order_closure_along_the_tangent(self):
        poly = sides_from_pentagon_coords([1.1, 0.8, 1.3])
        u = tangent_u(poly, 4)
        for t in (1e-3, 1e-4):
            moved = realize([s + t * du for s, du in zip(poly.sides, u)])
            assert moved.closure_defect < 60.0 * t * t

    def test_unit_rate_on_its_own_side(self):
        poly = sides_from_pentagon_coords([1.0, 1.2])
        for i in range(1, 6):
            assert tangent_u(poly, i)[i - 1] == 1.0
        for bad in (0, 6, 2.5, True):
            with pytest.raises(ValueError):
                tangent_u(poly, bad)
            with pytest.raises(ValueError):
                poly.side_geodesic(bad)
        assert tangent_u(poly, np.int64(2)).tolist() == tangent_u(poly, 2).tolist()


def random_chain(rng, m, closed=True):
    """A well-separated random vertex chain with no straight angles."""
    while True:
        pts = [HPoint(rng.uniform(-2, 2), math.exp(rng.uniform(-0.8, 0.8)))
               for _ in range(m)]
        if any(dist(pts[i], pts[(i + 1) % m]) < 0.3 for i in range(m)):
            continue
        theta = ChainDifferentials(pts, closed=closed).angles()
        if np.all((0.15 < theta) & (theta < 2 * math.pi - 0.15)
                  & (np.abs(theta - math.pi) > 0.12)):
            return pts


def mp_vertex_chain(cd):
    """At the working precision: (lengths, V, U), with V at each
    segment's start and U at its end as the complex components
    -i zeta/|zeta|, zeta = (z_o - z_k)/(z_o - conj z_k)."""
    z = [mp.mpc(q.x, q.y) for q in cd.points]
    ends = [(r, (r + 1) % cd.m) for r in range(len(cd.lengths))]

    def unit(k, o):
        zeta = (z[o] - z[k]) / (z[o] - mp.conj(z[k]))
        return -1j * zeta / abs(zeta)

    lengths = [2 * mp.asinh(abs(z[b] - z[a]) / (2 * mp.sqrt(z[a].imag * z[b].imag)))
               for a, b in ends]
    return lengths, [unit(a, b) for a, b in ends], [unit(b, a) for a, b in ends]


class TestChainDifferentials:
    """Finite-difference checks of the length/angle differentials."""

    def test_against_finite_differences(self):
        rng = random.Random(11)
        eps = 1e-5
        for trial in range(30):
            closed = trial % 3 != 0
            m = rng.randint(3, 6)
            pts = random_chain(rng, m, closed)
            cd = ChainDifferentials(pts, closed)
            j = rng.randrange(m)
            ang = rng.uniform(0, 2 * math.pi)
            var = np.zeros(2 * m)  # vertex j moves at unit speed
            var[2 * j:2 * j + 2] = math.cos(ang), math.sin(ang)
            g = geodesic_from_direction(pts[j], HTangent(pts[j], *var[2 * j:2 * j + 2]))
            pp, pm = list(pts), list(pts)
            pp[j], pm[j] = g.point_at(eps), g.point_at(-eps)
            cdp = ChainDifferentials(pp, closed)
            cdm = ChainDifferentials(pm, closed)
            fd_l = (cdp.lengths - cdm.lengths) / (2 * eps)
            assert cd._length_matrix() @ var == pytest.approx(fd_l, abs=1e-6)
            fd_t = (cdp.angles() - cdm.angles()) / (2 * eps)
            assert cd.angle_matrix() @ var == pytest.approx(fd_t, abs=1e-6)

    def test_open_chain_endpoints_have_no_angle(self):
        # row r of an open chain is vertex r + 1, which sees the same two
        # segments, through the same elementwise arithmetic, as in the
        # closed chain through the same points
        rng = random.Random(2)
        pts = random_chain(rng, 5, closed=False)
        cd = ChainDifferentials(pts, closed=False)
        ring = ChainDifferentials(pts)
        assert cd._length_matrix().shape == (4, 10)
        assert np.array_equal(cd.lengths, ring.lengths[:4])
        assert np.array_equal(cd.angles(), ring.angles()[1:4])
        assert np.array_equal(cd.angle_matrix(), ring.angle_matrix()[1:4])

    def test_length_differentials_have_full_rank(self):
        rng = random.Random(3)
        for m in (4, 5, 6):
            pts = random_chain(rng, m)
            rank, smin = ChainDifferentials(pts).length_rank()
            assert rank == m
            assert smin > 1e-8

    @pytest.mark.parametrize("closed", [True, False])
    def test_length_matrix_tracks_the_50_digit_reference(self, closed):
        # Entry blocks are the components of V and U, here at 50 digits.
        # First-order rounding budget of the float pass, relative to
        # |zeta| = 1 after normalizing: eps/2 for each of the two
        # componentwise differences, 2 eps for the complex quotient,
        # eps/2 for |zeta| and eps/2 for the final division, 4 eps in
        # all, absolute.  Every entry outside the two blocks of a row is
        # exactly zero.
        rng = random.Random(23 + closed)
        for m in (3, 4, 7, 12, 24):
            cd = ChainDifferentials(random_chain(rng, m, closed), closed)
            want = np.zeros((len(cd.lengths), 2 * m))
            with mp.workdps(50):
                _, v, u = mp_vertex_chain(cd)
                for r in range(len(cd.lengths)):
                    for k, w in ((r, v[r]), ((r + 1) % m, u[r])):
                        want[r, 2 * k] = float(w.real)
                        want[r, 2 * k + 1] = float(w.imag)
            got = cd._length_matrix()
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.abs(got - want).max() <= 4 * EPS

    @pytest.mark.parametrize("closed", [True, False])
    def test_angles_track_the_50_digit_reference(self, closed):
        # First-order budgets of the float values against 50 digits.  U
        # and V each err by at most 4 eps in modulus (the length-matrix
        # budget above), and a length by 4 eps relative: dist rounds the
        # two differences and hypot (1.5 eps), the product, square root
        # and quotient (1.25 eps), and asinh, of relative condition at
        # most 1, rounds once more.
        # theta = arg(U conj V) with |U conj V| = 1 takes the error of the
        # product, 4 + 4 + 2 eps, plus arctan2 (2 ulp of a value below pi,
        # 4 eps), the shift by 2 pi (half an ulp below 2 pi and the
        # rounding of 2 pi itself, 3 eps) and the reference's rounding to
        # float (2 eps): 19 eps, absolute.
        # Each matrix term is +-i U or V times f = 1/sinh l or 1/tanh l,
        # whose relative condition in l is kappa = l coth l or
        # 2l/sinh 2l.  It errs by |f| (4 + 4 kappa + 4 + 1/2 + 1/2 + 1/2)
        # eps: the unit vector, the length, sinh or tanh (4 eps allowed),
        # the quotient, the own block's one sum and the reference's
        # rounding to float.
        rng = random.Random(29 + closed)
        for m in (3, 4, 7, 12, 24):
            cd = ChainDifferentials(random_chain(rng, m, closed), closed)
            vertices = range(m) if closed else range(1, m - 1)
            theta = np.zeros(len(vertices))
            want = np.zeros((len(vertices), 2 * m))
            budget = np.zeros_like(want)
            with mp.workdps(50):
                ls, v, u = mp_vertex_chain(cd)
                # per segment: (1/sinh l, budget in eps), (1/tanh l, budget)
                csch = [(1 / mp.sinh(l), (10 + 4 * l / mp.tanh(l)) / mp.sinh(l)) for l in ls]
                coth = [(1 / mp.tanh(l), (10 + 8 * l / mp.sinh(2 * l)) / mp.tanh(l))
                        for l in ls]
                for r, k in enumerate(vertices):
                    i, o = (k - 1) % m, k  # the segments into and out of x_k
                    a = mp.arg(u[i] * mp.conj(v[o]))
                    theta[r] = float(a if a > 0 else a + 2 * mp.pi)
                    blocks = {i: (1j * v[i] * csch[i][0], csch[i][1]),
                              k: (1j * (u[i] * coth[i][0] - v[o] * coth[o][0]),
                                  coth[i][1] + coth[o][1]),
                              (k + 1) % m: (-1j * u[o] * csch[o][0], csch[o][1])}
                    for col, (w, b) in blocks.items():
                        want[r, 2 * col:2 * col + 2] = float(w.real), float(w.imag)
                        budget[r, 2 * col:2 * col + 2] = float(b) * EPS
            assert np.abs(cd.angles() - theta).max() <= 19 * EPS
            got = cd.angle_matrix()
            assert np.array_equal(got == 0.0, budget == 0.0)
            assert np.all(np.abs(got - want) <= budget)

    def test_rejects_collapsed_segments(self):
        p = HPoint(0.0, 1.0)
        with pytest.raises(DegenerateConfigurationError):
            ChainDifferentials([p, HPoint(0.0, 1.0 + 1e-12), HPoint(1.0, 1.0)])


class TestRegularChains:
    """Vertex rings of regular polygons: frozen geometry and the angle-sum
    identity that holds only at fully regular configurations."""

    @staticmethod
    def ring(m, radius):
        # the rotation about i by 2a is [[cos a, sin a], [-sin a, cos a]]
        top = HPoint(0.0, math.exp(radius))
        halves = [math.pi * k / m for k in range(m)]
        return [apply(_unit(math.cos(a), math.sin(a), -math.sin(a), math.cos(a)), top)
                for a in halves]

    def test_side_and_angle_match_the_closed_forms(self):
        for m, r in [(3, 1.0), (5, 1.3), (7, 0.6)]:
            cd = ChainDifferentials(self.ring(m, r))
            ell = cd.lengths[0]
            theta = 2.0 * math.asin(math.cos(math.pi / m) / math.cosh(ell / 2))
            assert cd.lengths == pytest.approx([ell] * m, abs=1e-12)
            assert cd.angles() == pytest.approx([theta] * m, abs=1e-12)

    def test_angle_sum_identity(self):
        # d(sum theta) = -tanh(l/2) tan(theta/2) d(sum l) as covectors,
        # so on every variation of the ring's vertices
        for m, r in [(3, 1.0), (4, 0.8), (5, 1.3)]:
            cd = ChainDifferentials(self.ring(m, r))
            factor = -math.tanh(cd.lengths[0] / 2) * math.tan(cd.angles()[0] / 2)
            lhs = cd.angle_matrix().sum(axis=0)
            rhs = factor * cd._length_matrix().sum(axis=0)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestAlternatingLocus:
    def test_proportionality_on_the_locus(self):
        for n, l1 in [(3, 1.2), (4, 0.9), (5, 1.5)]:
            poly = realize([l1, semiregular_partner(l1, n)] * n)
            assert poly.closure_defect < 1e-9
            assert proportionality_check(poly) < 1e-8

    @pytest.mark.parametrize("k", range(3, 13))
    def test_proportionality_is_the_dense_basis_residual(self, k):
        # For tangent_u the weighted sums cancel term by term for any
        # alternating sides: b tanh(l2) = 1 + 1/cosh(l2), so both sums of
        # a basis vector are a (1 + 1/cosh l_j) with opposite signs.
        # Sides off the partner relation therefore test the closed form
        # too, where a wrong term would leave a residual of order one.
        # The dense reference sums the full tangent_u vectors.  Each of
        # the two nonzero terms per sum errs by a few eps relative in
        # either path (a tanh, a sinh or cosh and a quotient), so the two
        # residuals agree to 8 eps (a sum|v_odd| + b sum|v_even|).
        l1, l2 = 0.7 + 0.1 * k, 1.9 - 0.1 * k
        poly = realize([l1, l2] * k)
        a = (1.0 + math.cosh(l1)) / math.sinh(l1)
        b = (1.0 + math.cosh(l2)) / math.sinh(l2)
        vs = [tangent_u(poly, i) for i in range(1, 2 * k + 1)]
        dense = max(abs(a * v[0::2].sum() + b * v[1::2].sum()) for v in vs)
        budget = max(8 * EPS * (a * np.abs(v[0::2]).sum()
                                + b * np.abs(v[1::2]).sum()) for v in vs)
        assert abs(proportionality_check(poly) - dense) <= budget

    def test_rejects_polygons_off_the_locus(self):
        poly = sides_from_pentagon_coords([0.8, 1.1, 0.9])
        with pytest.raises(ValueError):
            proportionality_check(poly)

    def test_all_equal_hexagon_is_the_partner_fixed_point(self):
        l_eq = 2.0 * math.asinh(1.0 / math.sqrt(2.0))
        assert semiregular_partner(l_eq, 3) == pytest.approx(l_eq, abs=1e-13)


class TestBoundaryFunctional:
    def test_value_is_the_total_odd_length(self):
        bf = boundary_functional([3, 4, 4, 7], 1.3)
        want = sum(k * semiregular_partner(1.3, k) for k in (3, 4, 4, 7))
        assert bf.value == pytest.approx(want, abs=1e-12)

    def test_derivative_against_finite_differences(self):
        h = 1e-5
        for ns, l in [([3], 0.9), ([3, 5], 1.7), ([4, 4, 6], 2.2)]:
            bf = boundary_functional(ns, l)
            fd = (boundary_functional(ns, l + h).value
                  - boundary_functional(ns, l - h).value) / (2 * h)
            assert bf.derivative == pytest.approx(fd, abs=1e-6)
            assert all(c < 0 for c in bf.coefficients)

    def test_all_equal_hexagon_trades_one_for_one(self):
        l_eq = 2.0 * math.asinh(1.0 / math.sqrt(2.0))
        bf = boundary_functional([3], l_eq)
        assert bf.coefficients[0] == pytest.approx(-1.0, abs=1e-12)

    def test_long_even_side_keeps_finite_data(self):
        # At 50 digits, against the float partner and coefficient
        # -tanh(l_odd/2)/tanh(l_even/2).  Each rounds a few times (cos,
        # sinh, a quotient and asinh; tanh twice and a quotient), and
        # every step has relative condition at most 1: 8 eps relative.
        # The (1 + cosh)/sinh form of the coefficient overflowed here.
        bf = boundary_functional([3], 800.0)
        with mp.workdps(50):
            l_odd = 2 * mp.asinh(mp.cos(mp.pi / 3) / mp.sinh(400))
            coeff = -mp.tanh(l_odd / 2) / mp.tanh(400)
            assert bf.value == pytest.approx(float(3 * l_odd), rel=8 * EPS)
            assert bf.coefficients[0] == pytest.approx(float(coeff), rel=8 * EPS)
            assert bf.derivative == pytest.approx(float(3 * coeff), rel=8 * EPS)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            boundary_functional([], 1.0)
        with pytest.raises(ValueError):
            boundary_functional([2], 1.0)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                boundary_functional([3, 4], bad)


@settings(max_examples=50, deadline=None)
@given(c0=st.floats(min_value=0.4, max_value=2.0),
       c1=st.floats(min_value=0.4, max_value=2.0),
       c2=st.floats(min_value=0.4, max_value=2.0))
@example(1.0, 1.0, 0.99999)  # sides 1 and 4 nearly concentric in the chart
def test_every_positive_hexagon_coordinate_tuple_is_admissible(c0, c1, c2):
    poly = sides_from_pentagon_coords([c0, c1, c2])
    assert poly.closure_defect < 1e-9
    assert pentagon_coords(poly) == pytest.approx([c0, c1, c2], abs=1e-9)


# --------------------------------------------------------------------------
# the float frame walk against a 50-digit one

EPS = 2.0 ** -52

# Per-entry rounding of one walk step (exp, reciprocal, product, sum and
# the determinant normalization) is at most about 4 EPS relative to
# |F_j| |M_j|, and evaluating F(i) at most about 4 EPS relative to |F|;
# C = 8 leaves a factor of two over that first-order count.
WALK_C = 8.0


def mp_walk(sides):
    """Step matrices M_0..M_n and frames F_0 = I, F_{k+1} = F_k M_k of the
    walk in realize(), at 50 digits: M_0 puts the midpoint of side 1 at i
    heading right, M_k (k >= 1) is diag(e^{l_k/2}, e^{-l_k/2}) and a
    quarter turn.  Vertex k is F_k(i)."""
    r = 1 / mp.sqrt(2)
    h = mp.exp(-mpf(sides[0]) / 4)
    steps = [mp.matrix([[h, -1 / h], [h, 1 / h]]) * r]
    for length in sides:
        e = mp.exp(mpf(length) / 2)
        steps.append(mp.matrix([[e, e], [-1 / e, 1 / e]]) * r)
    frames = [mp.eye(2)]
    for m in steps:
        frames.append(frames[-1] * m)
    return frames, steps


def _at_i(a):
    return (a[0, 0] * 1j + a[0, 1]) / (a[1, 0] * 1j + a[1, 1])


def _sensitivity(f, p, weights):
    """sum_rs |d(F P)(i) / dF_rs| weights_rs, as hyperbolic speed: how far
    vertex (F P)(i) moves per unit of componentwise error in F."""
    a = f * p
    v = _at_i(a)
    den = a[1, 0] * 1j + a[1, 1]
    total = mpf(0)
    for r in range(2):
        for s in range(2):
            b = mp.zeros(2)
            b[r, 0], b[r, 1] = p[s, 0], p[s, 1]  # E_rs P
            num = ((b[0, 0] * 1j + b[0, 1]) * den
                   - (a[0, 0] * 1j + a[0, 1]) * (b[1, 0] * 1j + b[1, 1]))
            total += abs(num / den ** 2) / v.imag * weights[r, s]
    return total


def walk_condition(frames, steps, k):
    """First-order condition number of vertex k of the float walk.

    Step j rounds F_{j+1} entrywise by at most a few EPS of
    |F_j| |M_j|; the error then rides along P = F_{j+1}^-1 F_k to vertex
    k.  Summing each entry's effect on vertex k, plus the rounding of
    F_k(i) itself, gives cond_k: the vertex error is at most
    C * EPS * cond_k to first order."""
    def absm(m):
        return mp.matrix([[abs(m[i, j]) for j in range(2)] for i in range(2)])

    def inv(m):
        return mp.matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])

    total = _sensitivity(frames[k], mp.eye(2), absm(frames[k]))
    for j in range(k):
        total += _sensitivity(frames[j + 1], inv(frames[j + 1]) * frames[k],
                              absm(frames[j]) * absm(steps[j]))
    return total


def walk_budgets(sides):
    """(vertex error, C * EPS * cond) for every vertex of realize(sides)."""
    with mp.workdps(50):
        poly = realize(sides)
        frames, steps = mp_walk(sides)
        out = []
        for k, v in enumerate(poly.vertices, start=1):
            want = _at_i(frames[k])
            got = mp.mpc(v.x, v.y)
            err = 2 * mp.asinh(abs(got - want)
                               / (2 * mp.sqrt(got.imag * want.imag)))
            out.append((float(err),
                        WALK_C * EPS * float(walk_condition(frames, steps, k))))
    return out


@pytest.mark.parametrize("n", [17, 24])
def test_realize_tracks_the_50_digit_frame_walk(n):
    sides = sides_from_pentagon_coords([1.0] * (n - 3)).sides
    for k, (err, budget) in enumerate(walk_budgets(sides), start=1):
        assert err <= budget, f"vertex {k}: error {err:.3g} > budget {budget:.3g}"


@pytest.mark.parametrize("n", range(12, 21, 2))
def test_all_ones_chain_round_trip_at_even_n(n):
    # Side n/2 + 1 is concentric with side 1 in the chart, by symmetry.
    # Each h_j is read off the frames of sides 1 and j, whose error the
    # walk budget bounds, so the round trip is held to that budget.
    coords = [1.0] * (n - 3)
    poly = sides_from_pentagon_coords(coords)
    budget = max(b for _, b in walk_budgets(poly.sides))
    assert poly.closure_defect <= budget
    assert pentagon_coords(poly) == pytest.approx(coords, abs=budget)


# --------------------------------------------------------------------------
# the pentagon chain against a 60-digit assembly

# One step P(x, y) = asinh(cosh x / sinh y) of the float chain rounds
# cosh and sinh (an ulp each), their quotient (half an ulp) and asinh (an
# ulp), and asinh(r) has relative condition r / (sqrt(1 + r^2) asinh r)
# <= 1: 3.5 eps relative, 4 eps with margin.
CHAIN_U = 4 * EPS


def mp_side(x, y):
    """P(x, y) on (value, error bound) pairs at the working precision:
    the value, and what the float P adds (CHAIN_U z) to what it inherits
    through dz/dx = tanh x tanh z and dz/dy = -tanh z / tanh y."""
    (x, ex), (y, ey) = x, y
    z = mp.asinh(mp.cosh(x) / mp.sinh(y))
    return z, CHAIN_U * z + mp.tanh(z) * (mp.tanh(x) * ex + ey / mp.tanh(y))


def mp_total(*terms):
    """A float sum of (value, error bound) pairs: half an ulp per addition."""
    v = sum(t[0] for t in terms)
    return v, sum(t[1] for t in terms) + (len(terms) - 1) * EPS / 2 * v


def mp_pentagons(coords):
    """The chart at the working precision, as (value, error bound) pairs
    for the float chain: h_3..h_{n-1}, the tails of sides 3..n-2, the
    heads of sides 4..n-1 and the pieces of side 1.  The values of the
    pieces come from the relation cosh c = coth h_k coth h_{k+1}, not
    from P.

    The float chain takes h_3 and h_{n-1} by ``trig.pentagon_side`` and
    every other step in one loop that takes cosh and sinh of each h_k
    once.  A tail is asinh(q) with q = cosh h_{k+1} / sinh h_k, a head
    P(h_k, h_{k+1}); both round as P does.  A piece is
    asinh(hypot(1, q) / sinh h_{k+1}): hypot(1, q) is the tail's cosh,
    which inherits tanh^2 of q's relative error and rounds once, where
    cosh of the rounded tail inherits tanh of the tail's error, which
    includes asinh's rounding, and rounds once more.  So the bound of
    P(tail, h_{k+1}) holds for it.  For n = 5 the one piece is
    l_1 = acosh(s) with s = sinh l_3 sinh l_4, which rounds by 2.5 eps."""
    n = len(coords) + 3
    c = [(mpf(x), mpf(0)) for x in coords]
    if n == 5:
        s = mp.sinh(c[0][0]) * mp.sinh(c[1][0])
        l1 = (mp.acosh(s), CHAIN_U * (mp.acosh(s) + s / mp.sqrt(s * s - 1)))
        return [mp_side(c[1], l1), mp_side(c[0], l1)], c[:1], c[1:], [l1]
    h = [mp_side(c[1], c[0]), *c[1:-1], mp_side(c[-2], c[-1])]
    tails = [c[0]] + [mp_side(h[k + 1], h[k]) for k in range(1, n - 4)]
    heads = [mp_side(h[k], h[k + 1]) for k in range(n - 5)] + [c[-1]]
    pieces = [(mp.acosh(1 / (mp.tanh(h[k][0]) * mp.tanh(h[k + 1][0]))),
               mp_side(t, h[k + 1])[1]) for k, t in enumerate(tails)]
    return h, tails, heads, pieces


def mp_chain(coords):
    """(sides, budgets): the chart's sides at 60 digits, and for each a
    first-order bound on the relative error of the float assembly.

    The bound follows the float chain's data flow (``mp_pentagons``):
    each step z = P(x, y) = asinh(cosh x / sinh y) adds CHAIN_U z of its
    own to what it inherits (``mp_side``), a piece no more than that,
    and each sum adds half an ulp per addition: side 1 sums the pieces,
    sides 4..n-2 each a head and the next tail."""
    with mp.workdps(60):
        h, tails, heads, pieces = mp_pentagons(coords)
        sides = [mp_total(*pieces), h[0], tails[0],
                 *(mp_total(a, b) for a, b in zip(heads, tails[1:])),
                 heads[-1], h[-1]]
        return [float(v) for v, _ in sides], [float(e / v) for v, e in sides]


@pytest.mark.parametrize("n", range(5, 25))
def test_chain_tracks_the_60_digit_assembly(n):
    # Random coordinates across (0.05, 6), then the pair (12, 12.5) at
    # the start, the middle and the end of the chain, where the side-1
    # piece between them is about 1e-5: acosh(1/(tanh tanh)) lost 2e-7
    # relative there.
    rng = random.Random(600 + n)
    chains = []
    while len(chains) < 8:
        coords = [rng.uniform(0.05, 6.0) for _ in range(n - 3)]
        if n > 5 or math.sinh(coords[0]) * math.sinh(coords[1]) > 1.01:
            chains.append(coords)
    for j in sorted({0, (n - 5) // 2, n - 5}):
        chains.append([1.0] * j + [12.0, 12.5] + [1.0] * (n - 5 - j))
    for coords in chains:
        got = sides_from_pentagon_coords(coords).sides
        want, budgets = mp_chain(coords)
        for k, (g, w, b) in enumerate(zip(got, want, budgets), start=1):
            assert abs(g - w) <= b * w, (
                f"side {k} of {coords}: error {abs(g - w) / w:.3g} > {b:.3g}")


# --------------------------------------------------------------------------
# the chart's frame rows against 50 digits

U = EPS / 2  # math's exp, sinh and cosh are taken within an ulp, 2U


def mp_chart(coords):
    """The chart at 50 digits, built as matrix products off side 1's
    frame: F_1 = Q^-1 D(-l_1/2), F_2 = F_1 D(l_1) Q,
    F_k = F_1 D(sigma_k) Q D(h_k) Q D(-eta_k) for 3 <= k <= n - 1 and
    F_n = -F_1 Q^-1 D(-l_n) (the walk closes at F_{n+1} = -F_1), with
    sigma_k the foot of h_k on side 1 and eta_k the head of side k.
    Returns (sides, rows, budgets): the sides, the rows F_1..F_n as
    lists (a, b, c, d), and for each entry a first-order bound on the
    error of the float row.

    The bound follows the float data flow of ``sides_from_pentagon_coords``
    with the chain's errors of ``mp_pentagons``: l_1 = sum of the pieces,
    mu = l_1/2 less one piece per row (a rounding each), and for rows
    3..n-1 the terms T = s e^{(mu - eta)/2} and c e^{-(mu + eta)/2} (and
    their reciprocal pairs), s, c = sinh, cosh(h/2)/sqrt 2.  s and c
    each round 4U (the constant, sinh or cosh, the product) and inherit
    coth(h/2)/2 or tanh(h/2)/2 of h's error; an exponential rounds its
    argument (U |mu -+ eta| / 2) and itself (2U) and inherits half the
    errors of mu and eta; each product or quotient adds U and each sum U
    of its result.  Rows 1, 2 and n are one or two such factors of l_1/4
    and l_n."""
    with mp.workdps(50):
        h, tails, heads, pieces = mp_pentagons(coords)
        l1, dl1 = mp_total(*pieces)
        sides = [l1, h[0][0], tails[0][0],
                 *(a[0] + b[0] for a, b in zip(heads, tails[1:])),
                 heads[-1][0], h[-1][0]]
        q = mp.matrix([[1, 1], [-1, 1]]) / mp.sqrt(2)

        def d(x):
            return mp.matrix([[mp.exp(x / 2), 0], [0, mp.exp(-x / 2)]])

        f1 = q ** -1 * d(-l1 / 2)
        frames = [f1, f1 * d(l1) * q]
        r = l1 / 4
        dr = dl1 / 4
        e = mp.exp(-r)
        budgets = [[(4 * U + dr) * v / mp.sqrt(2) for v in (e, 1 / e, e, 1 / e)],
                   [(2 * U + dr / mp.tanh(r)) * abs(v)
                    for v in (mp.cosh(r), mp.sinh(r), mp.sinh(r), mp.cosh(r))]]
        mu, dmu = l1 / 2, dl1 / 2
        etas = [(mpf(0), mpf(0))] + heads
        for k, ((hk, dh), (eta, deta)) in enumerate(zip(h, etas)):
            frames.append(f1 * d(l1 / 2 + mu) * q * d(hk) * q * d(-eta))
            s, c = mp.sinh(hk / 2) / mp.sqrt(2), mp.cosh(hk / 2) / mp.sqrt(2)
            eu, ev = mp.exp((mu - eta) / 2), mp.exp(-(mu + eta) / 2)
            rs = 4 * U + dh / (2 * mp.tanh(hk / 2))
            rc = 4 * U + dh * mp.tanh(hk / 2) / 2
            ru = 2 * U + U * abs(mu - eta) / 2 + (dmu + deta) / 2
            rv = 2 * U + U * abs(mu + eta) / 2 + (dmu + deta) / 2
            t1, t2 = s * eu * (rs + ru + U), c * ev * (rc + rv + U)
            t3, t4 = c / ev * (rc + rv + U), s / eu * (rs + ru + U)
            a, b = s * eu + c * ev, c / ev + s / eu
            cc, dd = s * eu - c * ev, c / ev - s / eu
            budgets.append([t1 + t2 + U * abs(a), t3 + t4 + U * abs(b),
                            t1 + t2 + U * abs(cc), t3 + t4 + U * abs(dd)])
            if k < len(pieces):
                mu -= pieces[k][0]
                dmu += pieces[k][1] + U * abs(mu)
        ln, dln = h[-1]
        frames.append(-f1 * q ** -1 * d(-ln))
        t = mp.exp(ln / 2)
        rt = 2 * U + dln / 2
        sh, ch = mp.sinh(r), mp.cosh(r)
        budgets.append([(2 * U + dr / mp.tanh(r) + rt + U) * sh / t,
                        (2 * U + dr * mp.tanh(r) + rt + U) * ch * t,
                        (2 * U + dr * mp.tanh(r) + rt + U) * ch / t,
                        (2 * U + dr / mp.tanh(r) + rt + U) * sh * t])
        rows = [[f[0, 0], f[0, 1], f[1, 0], f[1, 1]] for f in frames]
    return sides, rows, budgets


def mp_relative(f, df, g, dg):
    """The relative frame f^-1 g = (A, B, C, D) of two exact rows, and for
    each entry a first-order bound on its float error: the rows' errors
    df, dg carried through A = f_d a - f_b c (and likewise), plus the
    evaluation's two products and difference, 2U of |f_d a| + |f_b c|."""
    (fa, fb, fc, fd), (ga, gb, gc, gd) = f, g
    (ea, eb, ec, ed), (xa, xb, xc, xd) = df, dg
    terms = [((fd, ga, ed, xa), (fb, gc, eb, xc)), ((fd, gb, ed, xb), (fb, gd, eb, xd)),
             ((fa, gc, ea, xc), (fc, ga, ec, xa)), ((fa, gd, ea, xd), (fc, gb, ec, xb))]
    out, err = [], []
    for (p, x, dp, dx), (r, y, dr, dy) in terms:
        out.append(p * x - r * y)
        big = abs(p * x) + abs(r * y)
        err.append(abs(p) * dx + dp * abs(x) + abs(r) * dy + dr * abs(y) + 2 * U * big)
    return out, err


def mp_cos_budget(rel, err):
    """First-order bound on the float |AD + BC| of a relative frame whose
    exact value is 0: the entries' errors plus two products and a sum."""
    (a, b, c, d), (ea, eb, ec, ed) = rel, err
    return ea * abs(d) + abs(a) * ed + eb * abs(c) + abs(b) * ec + 2 * U * (
        abs(a * d) + abs(b * c))


def mp_h_budget(rel, err):
    """(h, bound): the perpendicular 2 asinh(sqrt(x)), x = bc or -ad, of a
    relative frame, and a first-order bound on the float value: x's
    error (its entries' and the product's U x) through
    dh/dx = 1/sqrt(x (1 + x)), sqrt's U through 2/sqrt(1 + x), and
    asinh's 2U of h."""
    (a, b, c, d), (ea, eb, ec, ed) = rel, err
    if b * c > 0:
        x, dx = b * c, eb * abs(c) + abs(b) * ec
    else:
        x, dx = -a * d, ea * abs(d) + abs(a) * ed
    h = 2 * mp.asinh(mp.sqrt(x))
    return h, ((dx + U * x) / mp.sqrt(x * (1 + x)) + 2 * U * mp.sqrt(x / (1 + x))
               + 2 * U * h)


def random_coords(rng, n):
    return [rng.uniform(0.4, 2.0) for _ in range(n - 3)]


@pytest.mark.parametrize("n", range(5, 13))
def test_chart_rows_track_the_50_digit_walk(n):
    # The rows are held to the walk of the exact sides, which the chart
    # must reproduce as it stands: an error in a foot sigma_k, a head
    # eta_k or a sign moves a row by O(1), while the right-angle defect
    # sees neither where a row puts s = 0 nor its sign.  The exact chart
    # equals that walk to the working precision, and each float row is
    # within twice its first-order budget (``mp_chart``).
    rng = random.Random(700 + n)
    chains = ([[rng.uniform(0.9, 2.0) for _ in range(2)] for _ in range(6)] if n == 5
              else [random_coords(rng, n) for _ in range(6)] + [[1.0] * (n - 3)])
    for coords in chains:
        rows = sides_from_pentagon_coords(coords).frames
        sides, want, budgets = mp_chart(coords)
        with mp.workdps(50):
            frames, _ = mp_walk(sides)
            for k, (row, exact, b) in enumerate(zip(rows, want, budgets), start=1):
                walk = frames[k]
                walk = [walk[0, 0], walk[0, 1], walk[1, 0], walk[1, 1]]
                scale = max(abs(v) for v in walk)
                assert max(abs(x - y) for x, y in zip(exact, walk)) <= mpf(10) ** -40 * scale
                for x, y, e in zip(row, walk, b):
                    assert abs(x - y) <= 2 * e, f"row {k} of {coords}"


@pytest.mark.parametrize("n", range(19, 25))
def test_chart_round_trip_and_closure_track_the_50_digit_chart(n):
    # Random chains with coordinates in [0.4, 2], where the walk of the
    # rounded sides closed only to 1e-4: the float rows stay within twice
    # their budget of the exact chart, the right-angle defect and the
    # round trip within twice what those row errors and the evaluation
    # allow, and both below 1e-9.
    rng = random.Random(900 + n)
    for coords in [random_coords(rng, n) for _ in range(4)]:
        poly = sides_from_pentagon_coords(coords)
        _, want, budgets = mp_chart(coords)
        with mp.workdps(50):
            for row, exact, b in zip(poly.frames, want, budgets):
                assert all(abs(x - y) <= 2 * e for x, y, e in zip(row, exact, b))
            pairs = zip(want[-1:] + want[:-1], budgets[-1:] + budgets[:-1], want, budgets)
            closure = max(mp_cos_budget(*mp_relative(*p)) for p in pairs)
            back = pentagon_coords(poly)
            assert back[0] == coords[0] and back[-1] == coords[-1]
            for k, got in enumerate(back[1:-1], start=4):
                h, dh = mp_h_budget(*mp_relative(want[0], budgets[0],
                                                 want[k - 1], budgets[k - 1]))
                assert abs(got - h) <= 2 * dh
        assert poly.closure_defect <= 2 * closure
        assert poly.closure_defect <= 1e-9
        assert pentagon_coords(poly) == pytest.approx(coords, rel=1e-9)
