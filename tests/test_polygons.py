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

from systolica.errors import DegenerateConfigurationError, NoPolygonError
from systolica.halfplane import (
    HPoint,
    HTangent,
    dist,
    exp_point,
    rotate_about,
)
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
    tangent_u,
)
from systolica.trig import semiregular_partner

# frozen assembly of two small polygons; the first side of the pentagon
# doubles as acosh(sinh(1)*sinh(1.2)) which pins the n=5 branch exactly
PENTAGON_SIDES = (1.1753002364660627, 1.0386778666805139, 1.0,
                  1.2, 0.9184666237052919)
HEXAGON_SIDES = (1.8143493286660695, 1.3880521073768781, 0.8,
                 2.4001304938489234, 0.9, 1.2623782554610337)


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

    def test_pentagon_needs_large_enough_adjacent_sides(self):
        with pytest.raises(NoPolygonError) as exc:
            sides_from_pentagon_coords([0.4, 0.5])
        assert exc.value.index == 0

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            sides_from_pentagon_coords([1.0])
        with pytest.raises(ValueError):
            sides_from_pentagon_coords([1.0, -0.5, 1.0])

    def test_realize_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            realize([1.0, 1.0, 1.0, 1.0])  # too few sides
        with pytest.raises(ValueError):
            realize([1.0, 0.0, 1.0, 1.0, 1.0])

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
    ])
    def test_json_coords_must_be_the_sides_coordinates(self, coords):
        data = polygon_to_json(sides_from_pentagon_coords([1.0, 1.2, 0.8]))
        data["coords"] = coords
        with pytest.raises(ValueError):
            polygon_from_json(data)

    def test_json_coords_within_tolerance_are_kept(self):
        data = polygon_to_json(sides_from_pentagon_coords([1.0, 1.2, 0.8]))
        data["coords"] = [c * (1 + 5e-7) for c in data["coords"]]
        assert polygon_from_json(data).coords == tuple(data["coords"])


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
        with pytest.raises(ValueError):
            tangent_u(poly, 0)
        with pytest.raises(ValueError):
            tangent_u(poly, 6)


def random_chain(rng, m, closed=True):
    """A well-separated random vertex chain with no straight angles."""
    while True:
        pts = [HPoint(rng.uniform(-2, 2), math.exp(rng.uniform(-0.8, 0.8)))
               for _ in range(m)]
        if any(dist(pts[i], pts[(i + 1) % m]) < 0.3 for i in range(m)):
            continue
        cd = ChainDifferentials(pts, closed=closed)
        if all(0.15 < cd.theta(i) < 2 * math.pi - 0.15
               and abs(cd.theta(i) - math.pi) > 0.12
               for i in cd.angle_indices()):
            return pts


class TestChainDifferentials:
    """Finite-difference checks of the length/angle differentials."""

    def test_against_finite_differences(self):
        rng = random.Random(11)
        eps = 1e-5
        for trial in range(25):
            m = rng.randint(3, 6)
            pts = random_chain(rng, m)
            cd = ChainDifferentials(pts)
            j = rng.randrange(m)
            ang = rng.uniform(0, 2 * math.pi)
            w = HTangent(pts[j], pts[j].y * math.cos(ang), pts[j].y * math.sin(ang))
            var = [HTangent(q, 0.0, 0.0) for q in pts]
            var[j] = w
            pp, pm = list(pts), list(pts)
            pp[j] = exp_point(w, eps)
            pm[j] = exp_point(w, -eps)
            cdp = ChainDifferentials(pp)
            cdm = ChainDifferentials(pm)
            for i in range(m):
                fd_l = (cdp.length(i) - cdm.length(i)) / (2 * eps)
                assert cd.d_length(i, var) == pytest.approx(fd_l, abs=1e-6)
                fd_t = (cdp.theta(i) - cdm.theta(i)) / (2 * eps)
                assert cd.d_theta(i, var) == pytest.approx(fd_t, abs=1e-6)

    def test_open_chain_endpoints_have_no_angle(self):
        rng = random.Random(2)
        pts = random_chain(rng, 5, closed=False)
        cd = ChainDifferentials(pts, closed=False)
        assert list(cd.segment_indices()) == [0, 1, 2, 3]
        assert list(cd.angle_indices()) == [1, 2, 3]

    def test_length_differentials_have_full_rank(self):
        rng = random.Random(3)
        for m in (4, 5, 6):
            pts = random_chain(rng, m)
            rank, smin = ChainDifferentials(pts).length_rank()
            assert rank == m
            assert smin > 1e-8

    @pytest.mark.parametrize("closed", [True, False])
    def test_length_matrix_is_the_d_length_matrix(self, closed):
        # the matrix every d_length functional fills in, one frame
        # vector at a time
        rng = random.Random(19 + closed)
        for m in (3, 4, 7, 12):
            cd = ChainDifferentials(random_chain(rng, m, closed), closed)
            zero = [HTangent(q, 0.0, 0.0) for q in cd.points]
            ref = np.zeros((len(cd.segment_indices()), 2 * m))
            for i in cd.segment_indices():
                for j, q in enumerate(cd.points):
                    for comp, frame in enumerate(
                            (HTangent(q, q.y, 0.0), HTangent(q, 0.0, q.y))):
                        var = list(zero)
                        var[j] = frame
                        ref[i, 2 * j + comp] = cd.d_length(i, var)
            assert np.array_equal(cd.length_matrix(), ref)

    def test_rejects_collapsed_segments(self):
        p = HPoint(0.0, 1.0)
        with pytest.raises(DegenerateConfigurationError):
            ChainDifferentials([p, HPoint(0.0, 1.0 + 1e-12), HPoint(1.0, 1.0)])


class TestRegularChains:
    """Vertex rings of regular polygons: frozen geometry and the angle-sum
    identity that holds only at fully regular configurations."""

    @staticmethod
    def ring(m, radius):
        center = HPoint(0.0, 1.0)
        top = HPoint(0.0, math.exp(radius))
        return [rotate_about(center, 2 * math.pi * k / m).apply(top)
                for k in range(m)]

    def test_side_and_angle_match_the_closed_forms(self):
        for m, r in [(3, 1.0), (5, 1.3), (7, 0.6)]:
            cd = ChainDifferentials(self.ring(m, r))
            ell = cd.length(0)
            theta = 2.0 * math.asin(math.cos(math.pi / m) / math.cosh(ell / 2))
            for i in range(m):
                assert cd.length(i) == pytest.approx(ell, abs=1e-12)
                assert cd.theta(i) == pytest.approx(theta, abs=1e-12)

    def test_angle_sum_identity(self):
        rng = random.Random(17)
        for m, r in [(3, 1.0), (4, 0.8), (5, 1.3)]:
            pts = self.ring(m, r)
            cd = ChainDifferentials(pts)
            ell = cd.length(0)
            theta = cd.theta(0)
            factor = -math.tanh(ell / 2) * math.tan(theta / 2)
            for _ in range(4):
                var = []
                for q in pts:
                    a = rng.uniform(0, 2 * math.pi)
                    s = rng.uniform(0.2, 1.0)
                    var.append(HTangent(q, s * q.y * math.cos(a),
                                        s * q.y * math.sin(a)))
                lhs = sum(cd.d_theta(i, var) for i in range(m))
                rhs = factor * sum(cd.d_length(i, var) for i in range(m))
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestAlternatingLocus:
    def test_proportionality_on_the_locus(self):
        for n, l1 in [(3, 1.2), (4, 0.9), (5, 1.5)]:
            poly = realize([l1, semiregular_partner(l1, n)] * n)
            assert poly.closure_defect < 1e-9
            assert proportionality_check(poly) < 1e-8

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

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            boundary_functional([], 1.0)
        with pytest.raises(ValueError):
            boundary_functional([2], 1.0)
        with pytest.raises(ValueError):
            boundary_functional([3], 0.0)


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
