"""Tests for the right-angled polygon chart, tangents, and differentials.

The independent checks here are geometric: polygons are rebuilt by
walking their side lengths, coordinates are re-read through common
perpendiculars, and every differential is compared against central
finite differences or against an exactly-known curve in the moduli
space.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from systolica import polygons
from systolica.errors import (DegenerateConfigurationError, NoPerpendicularError,
                              NoPolygonError)
from systolica.halfplane import HPoint, _relative, _unit, common_perpendicular, dist
from systolica.polygons import (
    BoundaryFunctional,
    boundary_functional,
    ChainDifferentials,
    MarkedRightPolygon,
    pentagon_coords,
    polygon_from_json,
    proportionality_check,
    realize,
    sides_from_pentagon_coords,
)
from systolica.trig import pentagon_perpendicular, pentagon_side, semiregular_partner

from reference import (HTangent, angle_matrix, apply, chain_angles, chain_matrix,
                       geodesic_from_direction, geodesics, length_rows, point_at,
                       polygon_to_json, segment_lengths, tangent_u)

EPS = np.finfo(float).eps

# frozen assembly of two small polygons; the first side of the pentagon
# doubles as acosh(sinh(1)*sinh(1.2)) which pins the n=5 branch exactly
PENTAGON_SIDES = (1.1753002364660627, 1.0386778666805139, 1.0,
                  1.2, 0.9184666237052919)
HEXAGON_SIDES = (1.8143493286660695, 1.3880521073768781, 0.8,
                 2.4001304938489234, 0.9, 1.2623782554610337)
# realize(HEXAGON_SIDES) with side 1 up the imaginary axis: the float
# walk's bits, each entry within 1.1e-15 of the 50-digit walk (mp_walk)
HEXAGON_FRAMES = (
    (0.6353448655446029, 0.0, 0.0, 1.573948345585233),
    (1.1129495484006657, 1.1129495484006657, -0.44925666281864396, 0.44925666281864396),
    (1.1821908414495184, 1.9684736676363268, -0.794600179351799, -0.47720681769231016),
    (0.31403611654278213, 2.1801013200128314, -0.6120170951060544, -1.0643975622644366),
    (0.2730235440985711, 1.2015835218766069, -1.2102354806503415, -1.6635891700822822),
    (-0.238986061179277, 0.844532723335439, -0.5920433704750656, -2.0921722276719814))
HEXAGON_VERTICES = (
    (0.0, 0.4036630981738895), (0.0, 2.477313394570492),
    (-2.186827581391523, 1.1639874501830652), (-1.666784859734581, 0.663346794948141),
    (-0.5503909903888415, 0.23628379396148871), (-0.34380730627806905, 0.21151934421504065))


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
        # the message names both coordinates of the pentagon
        with pytest.raises(NoPolygonError, match=r"adjacent sides 0\.4, 0\.5 "):
            sides_from_pentagon_coords([0.4, 0.5])

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
        # cosh h_5 / sinh l_7 overflows to an infinite h_6 without raising
        (sides_from_pentagon_coords, ([0.9, 1.1, 700.0, 1e-300],)),
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

    @pytest.mark.parametrize("sides, frames", [
        ((1.0,) * 6, ()),
        ((1.0,) * 6, ((1.0, 0.0, 0.0, 1.0),) * 5),
        ((1.0,) * 4, ((1.0, 0.0, 0.0, 1.0),) * 4),
    ], ids=["no-frames", "a-frame-short", "four-sides"])
    def test_polygon_counts_its_sides_and_frames(self, sides, frames):
        # refused when it is built, not by an IndexError in a later reader
        with pytest.raises(ValueError, match="at least 5 sides and one frame per side"):
            MarkedRightPolygon(sides=sides, frames=frames, closure_defect=0.0)

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
        data = polygon_to_json(poly, [0.8, 1.1, 0.9])
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
        data = polygon_to_json(sides_from_pentagon_coords([1.0, 1.2, 0.8]), [1.0, 1.2, 0.8])
        data["coords"] = coords
        with pytest.raises(ValueError):
            polygon_from_json(data)

    def test_json_round_trip_through_the_chart_at_20_to_24(self):
        # walking these sides misses the coordinates by more than
        # COORDS_RTOL on 11 of 120 such polygons; the chart rebuilds them
        rng = random.Random(7)
        for _ in range(120):
            coords = random_coords(rng, rng.randint(20, 24))
            poly = sides_from_pentagon_coords(coords)
            again = polygon_from_json(polygon_to_json(poly, coords))
            assert (again.sides, again.frames) == (poly.sides, poly.frames)

    def test_json_sides_must_be_the_coordinates_sides(self):
        data = polygon_to_json(sides_from_pentagon_coords([1.0, 1.2, 0.8]), [1.0, 1.2, 0.8])
        data["sides"][3] *= 1 + 2e-6
        with pytest.raises(ValueError, match="side 4"):
            polygon_from_json(data)

    def test_json_coords_within_tolerance_are_kept(self):
        # the sides are the chart's sides of [1.0, 1.2, 0.8]; the polygon
        # is the chart's of the moved coordinates, which come back from it
        # to the round-trip budget of test_round_trip_through_realization,
        # far inside their move of 5e-7
        coords = [c * (1 + 5e-7) for c in [1.0, 1.2, 0.8]]
        data = polygon_to_json(sides_from_pentagon_coords([1.0, 1.2, 0.8]), coords)
        back = pentagon_coords(polygon_from_json(data))
        assert back == pytest.approx(coords, rel=0, abs=1e-10)


class TestFrameTable:
    def test_realize_keeps_the_walks_bits(self):
        poly = realize(HEXAGON_SIDES)
        assert poly.frames == HEXAGON_FRAMES
        assert poly.closure_defect == 1.0838203501639382e-15
        assert tuple((v.x, v.y) for v in poly.vertices) == HEXAGON_VERTICES
        for k in range(1, poly.n + 1):  # each geodesic shares its row
            assert poly.side_geodesic(k).frame is poly.frames[k - 1]

    def test_constructors_build_no_object_per_side(self, built):
        for coords in ([1.0, 1.2], [0.7, 1.3, 0.9, 1.6, 1.1] * 4):
            poly = sides_from_pentagon_coords(coords)
            pentagon_coords(poly)
            realize(poly.sides)
            polygon_from_json(polygon_to_json(poly, coords))
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
            p = point_at(g, 0.0)
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
        # side 1 of length 1418 puts vertex 1 at height e^-709, below the
        # normal floats
        with pytest.raises(DegenerateConfigurationError, match="vertex 1"):
            realize([1418.0, 1.0, 1.0, 1.0, 1.0])


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


def random_chain(rng, m):
    """A well-separated random closed vertex chain with no straight angles."""
    while True:
        pts = [HPoint(rng.uniform(-2, 2), math.exp(rng.uniform(-0.8, 0.8)))
               for _ in range(m)]
        if any(dist(pts[i], pts[(i + 1) % m]) < 0.3 for i in range(m)):
            continue
        theta = chain_angles(ChainDifferentials(pts))
        if np.all((0.15 < theta) & (theta < 2 * math.pi - 0.15)
                  & (np.abs(theta - math.pi) > 0.12)):
            return pts


def mp_vertex_chain(points):
    """At the working precision, for the closed chain on ``points``:
    (lengths, V, U), with V at each segment's start and U at its end as
    the complex components -i zeta/|zeta|, zeta = (z_o - z_k)/(z_o - conj z_k)."""
    m = len(points)
    z = [mp.mpc(q.x, q.y) for q in points]
    ends = [(r, (r + 1) % m) for r in range(m)]

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
        for _ in range(30):
            m = rng.randint(3, 6)
            pts = random_chain(rng, m)
            cd = ChainDifferentials(pts)
            j = rng.randrange(m)
            ang = rng.uniform(0, 2 * math.pi)
            var = np.zeros(2 * m)  # vertex j moves at unit speed
            var[2 * j:2 * j + 2] = math.cos(ang), math.sin(ang)
            g = geodesic_from_direction(pts[j], HTangent(pts[j], *var[2 * j:2 * j + 2]))
            pp, pm = list(pts), list(pts)
            pp[j], pm[j] = point_at(g, eps), point_at(g, -eps)
            cdp = ChainDifferentials(pp)
            cdm = ChainDifferentials(pm)
            fd_l = (segment_lengths(pp) - segment_lengths(pm)) / (2 * eps)
            assert length_rows(cd) @ var == pytest.approx(fd_l, abs=1e-6)
            fd_t = (chain_angles(cdp) - chain_angles(cdm)) / (2 * eps)
            assert angle_matrix(pts) @ var == pytest.approx(fd_t, abs=1e-6)

    def test_relabeling_the_chain_cyclically_rolls_every_output(self):
        # vertex k of the chain started at x_j is x_{k+j}: each output is
        # the original one rolled by j, the angle rows along both the rows
        # and the column pairs, since every entry is the same elementwise
        # arithmetic on the same points.  length_rank's Gram matrix is the
        # original one conjugated by a permutation, so both eigensolves
        # are within (4 m + 20) eps of the same eigenvalues and their
        # roots within (4 m + 20) eps / sigma_min of each other.
        rng = random.Random(43)
        for m in (3, 4, 7, 12):
            pts = random_chain(rng, m)
            cd = ChainDifferentials(pts)
            rank, smin = cd.length_rank()
            for j in (1, m - 1):
                cj = ChainDifferentials(pts[j:] + pts[:j])
                assert np.array_equal(segment_lengths(pts[j:] + pts[:j]),
                                      np.roll(segment_lengths(pts), -j))
                assert np.abs(chain_angles(cj) - np.roll(chain_angles(cd), -j)).max() <= 4 * EPS
                want = np.roll(np.roll(angle_matrix(pts), -j, axis=0), -2 * j, axis=1)
                got = angle_matrix(pts[j:] + pts[:j])
                assert np.array_equal(got == 0.0, want == 0.0)
                assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want))
                rank_j, smin_j = cj.length_rank()
                assert rank_j == rank == m
                assert abs(smin_j - smin) <= (4 * m + 20) * EPS / smin

    def test_reversing_the_chain_reflects_every_output(self):
        # Vertex k of the reversed chain is x_j, j = m - 1 - k, and its
        # segment k is segment m - 2 - k (mod m) run backwards.  The
        # constructor calls _disk on the same pairs, so U and V at x_j
        # trade places bit for bit: the angle rows come back negated
        # and reversed along both axes, exactly, and dist is symmetric
        # to the bit.  The turn becomes V conj U, the conjugate of
        # U conj V up to the products' rounding, 1 eps a part for unit
        # factors, so the exact angles of the two turns sum to 0 within
        # 2 sqrt(2) eps; np.angle errs by an ulp, 2 eps below pi, in
        # each; one of the two raw angles is shifted by 2 pi, which
        # rounds by half an ulp of 2 pi, 2 eps; and the test's own
        # 2 pi - theta rounds by 2 eps more.  C is the original one
        # permuted (its real parts are the same float sums), so the rank
        # and sigma_min keep the relabeling test's budget.
        angle_budget = (2 * math.sqrt(2) + 2 * 2 + 2 + 2) * EPS
        rng = random.Random(29)
        for m in (3, 4, 7, 12):
            for _ in range(5):
                pts = random_chain(rng, m)
                cd, cr = ChainDifferentials(pts), ChainDifferentials(pts[::-1])
                assert np.array_equal(segment_lengths(pts[::-1]),
                                      np.roll(segment_lengths(pts)[::-1], -1))
                reflected = 2.0 * math.pi - chain_angles(cd)[::-1]
                assert np.abs(chain_angles(cr) - reflected).max() <= angle_budget
                want = -angle_matrix(pts)[::-1].reshape(m, m, 2)[:, ::-1].reshape(m, 2 * m)
                assert np.array_equal(angle_matrix(pts[::-1]), want)
                (rank, smin), (rank_r, smin_r) = cd.length_rank(), cr.length_rank()
                assert rank_r == rank == m
                assert abs(smin_r - smin) <= (4 * m + 20) * EPS / smin

    def test_length_differentials_have_full_rank(self):
        rng = random.Random(3)
        for m in (4, 5, 6):
            pts = random_chain(rng, m)
            rank, smin = ChainDifferentials(pts).length_rank()
            assert rank == m
            assert smin > 1e-8

    def test_length_rank_decomposes_the_gram_of_the_length_rows(self, monkeypatch):
        # The matrix length_rank hands to eigvalsh against L L^T of the
        # float rows.  A diagonal entry there is |V|^2 + |U|^2 of float
        # vectors whose moduli are within 1.5 eps of 1 (hypot and one
        # division), 6 eps, and the dot product rounds its sum below 2
        # twice more, 2 eps; an off-diagonal entry is Re(U conj V),
        # rounded by numpy's complex product and by the dot product, 3
        # eps.  8 eps in all, against G's exact 2 on the diagonal.
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(gram):
            seen.append(gram.copy())
            return eigvalsh(gram)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        rng = random.Random(38)
        for m in range(3, 25):
            cd = ChainDifferentials(random_chain(rng, m))
            cd.length_rank()
            (gram,), rows = seen, length_rows(cd)
            seen.clear()
            assert np.array_equal(np.diag(gram), np.full(m, 2.0))
            assert np.abs(rows @ rows.T - gram).max() <= 8 * EPS

    def test_length_rank_matches_the_svd_of_the_length_rows(self):
        # lambda_min of the computed G is within 3 * 8 eps (the test
        # above, three entries to a row) plus eigvalsh's 4 s eps of
        # sigma^2, sigma the float rows' smallest singular value, so its
        # root is within (24 + 4 s) eps / sigma of it; the SVD finds
        # sigma within s eps ||L|| <= 2 s eps <= 4 s eps / sigma.  The
        # rank is the one the SVD counts above 1e-8 of its largest.
        rng = random.Random(42)
        for m in range(3, 25):
            cd = ChainDifferentials(random_chain(rng, m))
            svals = np.linalg.svd(length_rows(cd), compute_uv=False)
            rank, smin = cd.length_rank()
            assert rank == int(np.sum(svals > 1e-8 * svals[0])) == len(svals)
            assert abs(smin - svals[-1]) <= (24 + 8 * len(svals)) * EPS / svals[-1]

    @pytest.mark.parametrize("times", [2, 3])
    def test_a_chain_that_doubles_back_loses_one_rank(self, times):
        # [A, B] repeated: every segment runs back along the one before,
        # every cos theta is 1, and 2I + C is 2I plus the adjacency of an
        # m-cycle, whose eigenvalues 2 + 2 cos(2 pi j/m) are 0 at j = m/2.
        # The zero eigenvalue reads at most the cut, (4 m + 20) eps.
        cd = ChainDifferentials([HPoint(0.0, 1.0), HPoint(0.0, 2.0)] * times)
        svals = np.linalg.svd(length_rows(cd), compute_uv=False)
        rank, smin = cd.length_rank()
        assert rank == 2 * times - 1 == int(np.sum(svals > 1e-8 * svals[0]))
        assert smin <= math.sqrt((8 * times + 20) * EPS)

    def test_right_angled_polygons_have_full_rank_at_root_two(self):
        # Every corner is right, so C holds the corner cosines, which came
        # within the chart's closure defect delta (its largest corner
        # |cos|) plus 14 eps of 0 on 600 chart polygons: the vertices
        # round once more, and U and V take 10 eps.  |lambda - 2| is at
        # most ||C|| <= 2 max|C| plus eigvalsh's 4 m eps, and
        # sigma + sqrt 2 >= 2, so |sigma - sqrt 2| <= delta + (14 + 2 m) eps.
        rng = random.Random(43)
        for m in (6, 7, 8, 9, 10, 11, 12, 13, 14) * 3:
            poly = sides_from_pentagon_coords([rng.uniform(0.2, 3.0) for _ in range(m - 3)])
            cd = ChainDifferentials(poly.vertices)
            svals = np.linalg.svd(length_rows(cd), compute_uv=False)
            rank, smin = cd.length_rank()
            assert rank == m == int(np.sum(svals > 1e-8 * svals[0]))
            assert abs(smin - math.sqrt(2.0)) <= poly.closure_defect + (14 + 2 * m) * EPS

    def test_length_matrix_tracks_the_50_digit_reference(self):
        # Entry blocks are the components of V and U, here at 50 digits.
        # First-order rounding budget of the float pass, relative to
        # |zeta| = 1 after normalizing: eps/2 for each of the two
        # componentwise differences, 2 eps for the complex quotient,
        # eps/2 for |zeta| and eps/2 for the final division, 4 eps in
        # all, absolute.  Every entry outside the two blocks of a row is
        # exactly zero.
        rng = random.Random(24)
        for m in (3, 4, 7, 12, 24):
            pts = random_chain(rng, m)
            cd = ChainDifferentials(pts)
            want = np.zeros((m, 2 * m))
            with mp.workdps(50):
                _, v, u = mp_vertex_chain(pts)
                for r in range(m):
                    for k, w in ((r, v[r]), ((r + 1) % m, u[r])):
                        want[r, 2 * k] = float(w.real)
                        want[r, 2 * k + 1] = float(w.imag)
            got = length_rows(cd)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.abs(got - want).max() <= 4 * EPS

    def test_angles_track_the_50_digit_reference(self):
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
        rng = random.Random(30)
        for m in (3, 4, 7, 12, 24):
            pts = random_chain(rng, m)
            cd = ChainDifferentials(pts)
            theta = np.zeros(m)
            want = np.zeros((m, 2 * m))
            budget = np.zeros_like(want)
            with mp.workdps(50):
                ls, v, u = mp_vertex_chain(pts)
                # per segment: (1/sinh l, budget in eps), (1/tanh l, budget)
                csch = [(1 / mp.sinh(l), (10 + 4 * l / mp.tanh(l)) / mp.sinh(l)) for l in ls]
                coth = [(1 / mp.tanh(l), (10 + 8 * l / mp.sinh(2 * l)) / mp.tanh(l))
                        for l in ls]
                for k in range(m):
                    i, o = (k - 1) % m, k  # the segments into and out of x_k
                    a = mp.arg(u[i] * mp.conj(v[o]))
                    theta[k] = float(a if a > 0 else a + 2 * mp.pi)
                    blocks = {i: (1j * v[i] * csch[i][0], csch[i][1]),
                              k: (1j * (u[i] * coth[i][0] - v[o] * coth[o][0]),
                                  coth[i][1] + coth[o][1]),
                              (k + 1) % m: (-1j * u[o] * csch[o][0], csch[o][1])}
                    for col, (w, b) in blocks.items():
                        want[k, 2 * col:2 * col + 2] = float(w.real), float(w.imag)
                        budget[k, 2 * col:2 * col + 2] = float(b) * EPS
            assert np.abs(chain_angles(cd) - theta).max() <= 19 * EPS
            got = angle_matrix(pts)
            assert np.array_equal(got == 0.0, budget == 0.0)
            assert np.all(np.abs(got - want) <= budget)

    def test_angle_matrix_is_finite_where_sinh_overflows(self):
        # two segments of about 1,381, whose sinh is beyond the floats:
        # their 1/sinh blocks are 0, with no overflow warning
        pts = [HPoint(0.0, 1e-300), HPoint(0.0, 1e300), HPoint(1e300, 1e300)]
        assert segment_lengths(pts).max() > 1000.0
        assert np.isfinite(angle_matrix(pts)).all()

    def test_angle_matrix_keeps_the_direct_quotient_on_short_segments(self):
        # 2 e^{-l} / -expm1(-2l) rounds three times (exp, expm1 and the
        # quotient, each within an ulp) where 1/sinh l rounds twice, so
        # the entries stay within a few ulps of V / sinh l and U / sinh l
        rng = random.Random(31)
        for m in (3, 5, 9):
            pts = random_chain(rng, m)
            cd = ChainDifferentials(pts)
            l, u, v = segment_lengths(pts), cd._u, cd._v
            lp = np.roll(l, 1)  # the segment into x_k
            want = chain_matrix(cd, (-1, 1j * np.roll(v, 1) / np.sinh(lp)),
                                (0, 1j * (u / np.tanh(lp) - v / np.tanh(l))),
                                (1, -1j * np.roll(u, -1) / np.sinh(l)))
            assert np.all(np.abs(angle_matrix(pts) - want) <= 4 * EPS * np.abs(want))

    def test_rejects_collapsed_segments(self):
        p = HPoint(0.0, 1.0)
        with pytest.raises(DegenerateConfigurationError):
            ChainDifferentials([p, HPoint(0.0, 1.0 + 1e-12), HPoint(1.0, 1.0)])

    def test_a_segment_is_collapsed_below_a_length_of_1e_9(self):
        # segment 1 runs up from i to i e^l, of length l to within the
        # rounding of e^l, 2.2e-16: refused, and named, at 0.9e-9 and kept
        # at 1.1e-9
        def chain(length):
            return [HPoint(1.0, 1.0), HPoint(0.0, 1.0), HPoint(0.0, math.exp(length))]

        assert segment_lengths(chain(0.9e-9))[1] == pytest.approx(0.9e-9, rel=1e-6)
        with pytest.raises(DegenerateConfigurationError, match="segment 1 of the chain"):
            ChainDifferentials(chain(0.9e-9))
        assert segment_lengths(chain(1.1e-9))[1] == pytest.approx(1.1e-9, rel=1e-6)
        assert ChainDifferentials(chain(1.1e-9)).length_rank()[0] == 3


class TestRegularChains:
    """Vertex rings of regular polygons: frozen geometry and the angle-sum
    identity that holds only at fully regular configurations."""

    @staticmethod
    def ring(m, radius):
        # the rotation about i by 2a is [[cos a, sin a], [-sin a, cos a]]
        top = HPoint(0.0, math.exp(radius))
        halves = [math.pi * k / m for k in range(m)]
        return [apply(_unit((math.cos(a), math.sin(a), -math.sin(a), math.cos(a))), top)
                for a in halves]

    def test_side_and_angle_match_the_closed_forms(self):
        for m, r in [(3, 1.0), (5, 1.3), (7, 0.6)]:
            ring = self.ring(m, r)
            cd, lengths = ChainDifferentials(ring), segment_lengths(ring)
            ell = lengths[0]
            theta = 2.0 * math.asin(math.cos(math.pi / m) / math.cosh(ell / 2))
            assert lengths == pytest.approx([ell] * m, abs=1e-12)
            assert chain_angles(cd) == pytest.approx([theta] * m, abs=1e-12)

    def test_angle_sum_identity(self):
        # d(sum theta) = -tanh(l/2) tan(theta/2) d(sum l) as covectors,
        # so on every variation of the ring's vertices
        for m, r in [(3, 1.0), (4, 0.8), (5, 1.3)]:
            ring = self.ring(m, r)
            cd = ChainDifferentials(ring)
            factor = -math.tanh(segment_lengths(ring)[0] / 2) * math.tan(chain_angles(cd)[0] / 2)
            lhs = angle_matrix(ring).sum(axis=0)
            rhs = factor * length_rows(cd).sum(axis=0)
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

    @pytest.mark.parametrize("sides", [
        (1.0, math.nan) * 3,
        (math.nan, 1.0) * 3,
        (1.0, 1.2, 1.0, math.nan, 1.0, 1.2),
        (1.0, math.inf) * 3,
        (math.inf, 1.0) * 4,
    ], ids=["nan-even", "nan-odd", "nan-later", "inf-even", "inf-odd"])
    def test_nan_and_infinite_sides_do_not_alternate(self, sides):
        # a NaN or an infinite side agrees with no side, itself included
        poly = MarkedRightPolygon(sides=sides, frames=((1.0, 0.0, 0.0, 1.0),) * len(sides),
                                  closure_defect=0.0)
        with pytest.raises(ValueError, match="alternate"):
            proportionality_check(poly)

    def test_all_equal_hexagon_is_the_partner_fixed_point(self):
        l_eq = 2.0 * math.asinh(1.0 / math.sqrt(2.0))
        assert semiregular_partner(l_eq, 3) == pytest.approx(l_eq, abs=1e-13)


class TestBoundaryFunctional:
    def test_value_is_the_total_odd_length(self):
        bf = boundary_functional([3, 4, 4, 7], 1.3)
        want = sum(k * semiregular_partner(1.3, k) for k in (3, 4, 4, 7))
        assert bf.value == pytest.approx(want, abs=1e-12)

    def test_counts_may_be_a_list_tuple_or_range(self):
        want = boundary_functional([3, 4, 5], 1.3)
        assert boundary_functional((3, 4, 5), 1.3) == want
        assert boundary_functional(range(3, 6), 1.3) == want

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
        for ns in (5, {3: 1}, "34", None, iter([3, 4])):  # not a list, tuple or range
            with pytest.raises(ValueError, match="ns") as info:
                boundary_functional(ns, 1.0)
            assert type(info.value) is ValueError
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
    walk in realize(), at 50 digits: M_0 = diag(e^{-l_1/4}, e^{l_1/4})
    runs side 1 up the imaginary axis with its midpoint at i, M_k
    (k >= 1) is diag(e^{l_k/2}, e^{-l_k/2}) and a quarter turn.  Vertex k
    is F_k(i)."""
    r = 1 / mp.sqrt(2)
    h = mp.exp(-mpf(sides[0]) / 4)
    steps = [mp.matrix([[h, 0], [0, 1 / h]])]
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

    The float chain takes h_3 and h_{n-1} as ``trig.pentagon_side``
    does, inline, and every other step in one loop that takes cosh and
    sinh of each h_k once.  A tail is asinh(q) with q = cosh h_{k+1} / sinh h_k, a head
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
    frame: F_1 = D(-l_1/2), which runs side 1 up the imaginary axis,
    F_2 = F_1 D(l_1) Q, F_k = F_1 D(sigma_k) Q D(h_k) Q D(-eta_k) for
    3 <= k <= n - 1 and F_n = -F_1 Q^-1 D(-l_n) (the walk closes at
    F_{n+1} = -F_1), with sigma_k the foot of h_k on side 1 and eta_k the
    head of side k.  Returns (sides, rows, budgets): the sides, the rows
    F_1..F_n as lists (a, b, c, d), and for each entry a first-order
    bound on the error of the float row.

    The bound follows the float data flow of ``sides_from_pentagon_coords``
    with the chain's errors of ``mp_pentagons``, relative to each entry,
    which is one product (or quotient) of two factors: l_1 = sum of the
    pieces, mu = l_1/2 less the running sum of the pieces before the row
    (a rounding per sum and one for the difference), and for rows
    3..n-1 the factors s, c = sinh, cosh(h/2), which round 2U and
    inherit coth(h/2)/2 or tanh(h/2)/2 of h's error, and
    u, v = e^{(mu - eta)/2}, e^{-(mu + eta)/2}, which round their
    argument (U |mu -+ eta| / 2) and themselves (2U) and inherit half the
    errors of mu and eta; the product adds U.  Rows 1, 2 and n are
    e = e^{l_1/4} (2U and a quarter of l_1's error), its reciprocal (U
    more), 1/sqrt 2 (U) times e or over it (U), and t = e^{l_n/2} (2U
    and half of l_n's error) times or over those (U).  A zero entry is
    exact."""
    with mp.workdps(50):
        h, tails, heads, pieces = mp_pentagons(coords)
        l1, dl1 = mp_total(*pieces)
        sides = [l1, h[0][0], tails[0][0],
                 *(a[0] + b[0] for a, b in zip(heads, tails[1:])),
                 heads[-1][0], h[-1][0]]
        q = mp.matrix([[1, 1], [-1, 1]]) / mp.sqrt(2)

        def d(x):
            return mp.matrix([[mp.exp(x / 2), 0], [0, mp.exp(-x / 2)]])

        f1 = d(-l1 / 2)
        frames = [f1, f1 * d(l1) * q]
        e, re = mp.exp(l1 / 4), 2 * U + dl1 / 4
        w, r, rw = e / mp.sqrt(2), 1 / (e * mp.sqrt(2)), re + 2 * U  # e, 1/e over sqrt 2
        budgets = [[(re + U) / e, 0, 0, re * e], [rw * w, rw * w, rw * r, rw * r]]
        foot, dfoot = mpf(0), mpf(0)
        etas = [(mpf(0), mpf(0))] + heads
        for k, ((hk, dh), (eta, deta)) in enumerate(zip(h, etas)):
            mu = l1 / 2 - foot
            dmu = dl1 / 2 + dfoot + U * abs(mu)
            frames.append(f1 * d(l1 / 2 + mu) * q * d(hk) * q * d(-eta))
            s, c = mp.sinh(hk / 2), mp.cosh(hk / 2)
            eu, ev = mp.exp((mu - eta) / 2), mp.exp(-(mu + eta) / 2)
            rs = 2 * U + dh / (2 * mp.tanh(hk / 2))
            rc = 2 * U + dh * mp.tanh(hk / 2) / 2
            ru = 2 * U + U * abs(mu - eta) / 2 + (dmu + deta) / 2
            rv = 2 * U + U * abs(mu + eta) / 2 + (dmu + deta) / 2
            budgets.append([(rs + ru + U) * s * eu, (rc + rv + U) * c / ev,
                            (rc + rv + U) * c * ev, (rs + ru + U) * s / eu])
            if k < len(pieces):
                foot += pieces[k][0]
                dfoot += pieces[k][1] + U * foot
        ln, dln = h[-1]
        frames.append(-f1 * q ** -1 * d(-ln))
        t = mp.exp(ln / 2)
        rt = rw + 2 * U + dln / 2 + U
        budgets.append([rt * r / t, rt * r * t, rt * w / t, rt * w * t])
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


# --------------------------------------------------------------------------
# the chart at n up to 400


def chart_defect_budgets(coords, poly):
    """For each corner, (side k, side k+1) at slot k - 1 cyclically, a
    first-order bound on the float right-angle defect |AD + BC| of the
    relative frame F_k^-1 F_{k+1} of the chart's rows.

    Every row is D(mu) M with M a matrix of h_k and eta_k alone, and
    |AD + BC| does not change when a row is multiplied by a diagonal
    matrix: an error that both rows' mu share cancels.  So each row's
    entries are charged a relative error r of their own, the roundings of
    their two factors and of their product with what those inherit from
    h and eta (``mp_chart``, less mu's error), and each corner half the
    error of the difference of the rows' mu, D(mu_k - mu_{k+1}), which
    is one piece: the piece's own error (``mp_pentagons``) and the
    roundings of its running sum P and of the two differences, U of
    P + |mu_k| + |mu_{k+1}|.  Rows 1 and n share -l_1/2 and rows 2 and 3
    l_1/2 exactly, so the other four corners have no such term.  An entry
    of the relative frame, A = f_d g_a - f_b g_c and its kin, is then off
    by rho = r_f + r_g + shift/2 + 2U of A^ = |f_d g_a| + |f_b g_c|, and
    the defect by (2 rho + 2U)(A^ D^ + B^ C^).  Every term is U times at
    most l_1 or a local size, so the bound grows linearly in l_1."""
    n = poly.n
    with mp.workdps(20):
        h, _, heads, pieces = mp_pentagons(coords)
        h, heads, pieces = ([(float(v), float(e)) for v, e in xs] for xs in (h, heads, pieces))
    feet = list(itertools.accumulate((p for p, _ in pieces), initial=0.0))
    mus = [0.5 * poly.sides[0] - foot for foot in feet]  # rows 3..n-1
    rel = [3 * U, 4 * U]  # 1/e and e; e/sqrt 2
    for (hk, dh), (eta, deta), mu in zip(h, [(0.0, 0.0)] + heads, mus):
        th = math.tanh(hk / 2)
        rs, rc = 2 * U + dh / (2 * th), 2 * U + dh * th / 2
        ru = 2 * U + U * abs(mu - eta) / 2 + deta / 2
        rv = 2 * U + U * abs(mu + eta) / 2 + deta / 2
        rel.append(max(rs + ru, rc + rv) + U)
    rel.append(7 * U + h[-1][1] / 2)  # e/sqrt 2 (4U) and e^{l_n/2}
    shift = [0.0] * n
    for j, (_, dp) in enumerate(pieces):  # corner (j + 3, j + 4)
        shift[j + 2] = dp + U * (feet[j + 1] + abs(mus[j]) + abs(mus[j + 1]))
    budgets = []
    for k in range(n):
        (fa, fb, fc, fd), (ga, gb, gc, gd) = poly.frames[k], poly.frames[(k + 1) % n]
        a, b = abs(fd * ga) + abs(fb * gc), abs(fd * gb) + abs(fb * gd)
        c, d = abs(fa * gc) + abs(fc * ga), abs(fa * gd) + abs(fc * gb)
        rho = rel[k] + rel[(k + 1) % n] + shift[k] / 2 + 2 * U
        budgets.append((2 * rho + 2 * U) * (a * d + b * c))
    return budgets


@pytest.mark.parametrize("n", [6, 24, 48, 64, 100, 200, 400])
def test_chart_accepts_long_chains_within_derived_budgets(n):
    # Every chain is built, up to l_1 near 450 with vertex 1 at
    # y = e^{-l_1/2}.  Its inner perpendiculars come back within 4 eps:
    # -AD = (e s u)(s/u / e) is s^2 to 6U, as e and u cancel in the
    # products, s = sinh(h/2) is within 2U, and sqrt and asinh (relative
    # condition at most 1) add U and 2U, 8U in all.  Each corner's defect
    # is within its derived budget (``chart_defect_budgets``).
    rng = random.Random(1100 + n)
    for coords in [random_coords(rng, n) for _ in range(10)]:
        poly = sides_from_pentagon_coords(coords)
        back = pentagon_coords(poly)
        assert all(abs(b - c) <= 4 * EPS * c for b, c in zip(back, coords))
        rows = poly.frames
        defects = [abs(a * d + b * c) for a, b, c, d in
                   (_relative(f, g) for f, g in zip(rows, rows[1:] + rows[:1]))]
        assert poly.closure_defect == max(defects)
        budgets = chart_defect_budgets(coords, poly)
        for k, (got, budget) in enumerate(zip(defects, budgets), start=1):
            assert got <= budget, f"corner ({k}, {k % n + 1}) of {coords}"
