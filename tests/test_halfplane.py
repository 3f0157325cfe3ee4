"""Tests for the upper half-plane kernel and for the reference geometry
(``reference.py``) that the other test modules measure it with.

The independent route for distances: move the pair onto the imaginary
axis with explicitly constructed isometries (never using dist itself)
and read the distance off as log(y2/y1), which is the vertical-line
integral of dy/y.
"""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from systolica.errors import DegenerateConfigurationError, NoPerpendicularError
from systolica.halfplane import HGeodesic, HPoint, _unit, common_perpendicular, dist

from reference import (
    HTangent,
    apply,
    circle_geodesic,
    compose,
    dist_to_geodesic,
    endpoints,
    geodesic_from_direction,
    geodesic_through,
    inner,
    intersection_point,
    inverse,
    norm,
    oriented_angle,
    param_of,
    push,
    rotate_quarter,
    tangent_at,
    translate_along,
    unit_toward,
    vertical_geodesic,
)

finite_xy = st.floats(-4.0, 4.0, allow_nan=False)
log_y = st.floats(-1.5, 1.5, allow_nan=False)


def hpoints(rng, n):
    return [HPoint(rng.uniform(-3, 3), math.exp(rng.uniform(-1.5, 1.5))) for _ in range(n)]


def vertical_oracle_dist(p, q):
    """Distance via explicit reduction to the imaginary axis.

    Never touches dist: builds the isometry sending p to i from its
    coordinates, then rotates about i by -phi, [[cos, -sin], [sin, cos]]
    of phi/2, until q lies straight above, and integrates dy/y (= log of
    the height ratio).
    """
    sy = math.sqrt(p.y)
    to_i = _unit(1.0 / sy, -p.x / sy, 0.0, sy)
    q1 = apply(to_i, q)
    phi = oriented_angle(HTangent(HPoint(0, 1), 0.0, 1.0), unit_toward(HPoint(0, 1), q1))
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    q2 = apply(_unit(c, -s, s, c), q1)
    assert abs(q2.x) < 1e-9
    return abs(math.log(q2.y))


class TestDistance:
    def test_vertical_segment_is_log_ratio(self):
        assert dist(HPoint(0, 1), HPoint(0, math.e ** 2)) == pytest.approx(2.0, abs=1e-14)

    def test_frozen_value(self):
        # cosh d = 1 + (3^2 + 0.5^2) / (2 * 1 * 0.5) = 10.25
        assert dist(HPoint(-1, 1), HPoint(2, 0.5)) == pytest.approx(
            3.0180368116728253, abs=1e-14
        )

    def test_against_vertical_oracle(self):
        rng = random.Random(101)
        for _ in range(300):
            p, q = hpoints(rng, 2)
            assert dist(p, q) == pytest.approx(vertical_oracle_dist(p, q), abs=1e-9)

    def test_symmetry_and_identity(self):
        p, q = HPoint(0.3, 2.0), HPoint(-1.1, 0.4)
        assert dist(p, q) == dist(q, p)
        assert dist(p, p) == 0.0

    @given(finite_xy, log_y, finite_xy, log_y, finite_xy, log_y)
    @settings(max_examples=60, deadline=None)
    @example(-1.0, 0.0, 0.0, 0.0, 1e-9, 0.0)  # q and r 1e-9 apart
    def test_triangle_inequality(self, x1, t1, x2, t2, x3, t3):
        p = HPoint(x1, math.exp(t1))
        q = HPoint(x2, math.exp(t2))
        r = HPoint(x3, math.exp(t3))
        assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-12

    @pytest.mark.parametrize("p, q", [
        (HPoint(-1e308, 1e-300), HPoint(1e308, 1e-300)),  # x - x overflows
        (HPoint(-1e308, 1e308), HPoint(1e308, 1e308)),    # and so at distance 1.76
        (HPoint(-1.7e308, 1e-300), HPoint(1.7e308, 1.7e308)),
        (HPoint(0.0, 1e-300), HPoint(1e300, 1e-300)),     # only the quotient overflows
    ])
    def test_points_that_hpoint_admits_have_a_finite_distance(self, p, q):
        # the far path forms log r from the logs of |p - q|/4 and of each
        # y, a few roundings each, and d moves by at most 2 per unit of
        # log r, so d errs by about eps (4 (|lh| + |ly1| + |ly2| + 1) + 2 d)
        with mp.workdps(50):
            x1, y1, x2, y2 = map(mpf, (p.x, p.y, q.x, q.y))
            want = float(2 * mp.asinh(mp.hypot(x1 - x2, y1 - y2) / (2 * mp.sqrt(y1 * y2))))
        lh = math.log(math.hypot(0.25 * p.x - 0.25 * q.x, 0.25 * p.y - 0.25 * q.y))
        budget = EPS * (4 * (abs(lh) + abs(math.log(p.y)) + abs(math.log(q.y)) + 1) + 2 * want)
        assert abs(dist(p, q) - want) <= budget
        assert dist(q, p) == dist(p, q)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            HPoint(0.0, -1.0)
        with pytest.raises(ValueError):
            HPoint(0.0, 0.0)


class TestIsometries:
    @pytest.mark.parametrize("entries", [
        (1.0, 0.0, 0.0, -1.0),  # det < 0
        (1.0, 2.0, 2.0, 4.0),  # det = 0
        (math.nan, 0.0, 0.0, 1.0),
        (math.inf, 0.0, 0.0, 1.0),
        (1e200, 0.0, 0.0, 1e200),  # det overflows to inf
        (5e-324, 4.0, 0.0, 5e-324),  # det 2^-2148 > 0, but b / sqrt(det) overflows
        # det 7e-218 is normal, but d / sqrt(det) overflows to -inf
        (0.0, 5e-324, -1.4205162362562467e+106, -1.1227006134817266e+280),
    ])
    def test_determinant_guard(self, entries):
        with pytest.raises(ValueError, match="positive determinant"):
            _unit(*entries)

    @given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
           st.floats(-4.0, 4.0), st.integers(-600, 0))
    @example(1.0, 0.0, 0.0, 1.0, -600)  # det = 2^-1200 underflows to 0
    @example(0.3, 0.1, 0.2, 0.9, -520)  # det subnormal
    @example(5.739351818022753e-210, 0.0, 1.0, 5.739351818022753e-210, 0)
    @example(5e-324, 4.0, 0.0, 5e-324, 0)
    @settings(max_examples=200, deadline=None)
    def test_normalizes_to_determinant_one(self, a, b, c, d, k):
        # The entries are scaled by 2^k, which takes det below the normal
        # range from k near -510.  Each entry and the root round once and
        # the determinant a few times, in total well under 8 eps of
        # |ad| + |bc| relative to det.  Below the normal range _unit forms
        # det again from exactly rescaled entries, so the bound holds for
        # every determinant it accepts.
        a, b, c, d = (math.ldexp(v, k) for v in (a, b, c, d))
        exact = Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c)
        size = abs(Fraction(a) * Fraction(d)) + abs(Fraction(b) * Fraction(c))
        if exact <= 0:
            # rounding is monotone, so the float determinant is not positive
            with pytest.raises(ValueError):
                _unit(a, b, c, d)
            return
        det = a * d - b * c
        if det >= sys.float_info.min:
            # a normal determinant: one division by the root of det
            root = math.sqrt(det)
            assert _unit(a, b, c, d) == (a / root, b / root, c / root, d / root)
        try:
            m = _unit(a, b, c, d)
        except ValueError:
            # refused only when cancellation leaves det no digit, or when
            # the normalized frame has an entry beyond the float range
            top = Fraction(max(abs(a), abs(b), abs(c), abs(d)))
            assert (exact <= 8 * EPS * size
                    or top * top > exact * Fraction(sys.float_info.max) ** 2)
            return
        drift = abs(m[0] * m[3] - m[1] * m[2] - 1.0)
        assert drift <= 8 * EPS * float(size / exact)

    def test_tiny_entries_keep_their_frame(self):
        # det = 1e-400 underflows to 0 unscaled
        assert _unit(1e-200, 0.0, 0.0, 1e-200) == (1.0, 0.0, 0.0, 1.0)
        m = _unit(1.2345678e-160, 0.0, 0.0, 1.2345678e-151)  # det subnormal
        assert abs(m[0] * m[3] - 1.0) <= 2 * EPS

    @given(st.floats(0.5, 2.0), st.floats(-1, 1), st.floats(-0.5, 0.5),
           finite_xy, log_y, finite_xy, log_y)
    @settings(max_examples=60, deadline=None)
    def test_distance_invariance(self, a, b, c, x1, t1, x2, t2):
        m = _unit(a, b, c, (1.0 + b * c) / a)  # det 1 by construction
        p, q = HPoint(x1, math.exp(t1)), HPoint(x2, math.exp(t2))
        assert dist(apply(m, p), apply(m, q)) == pytest.approx(dist(p, q), abs=1e-9)

    def test_pushforward_preserves_inner(self):
        rng = random.Random(23)
        for _ in range(100):
            (p,) = hpoints(rng, 1)
            u = HTangent(p, rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = HTangent(p, rng.uniform(-1, 1), rng.uniform(-1, 1))
            a, b, c = rng.uniform(0.5, 2.0), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)
            m = _unit(a, b, c, (1.0 + b * c) / a)  # det 1 by construction
            assert inner(push(m, u), push(m, v)) == pytest.approx(inner(u, v), abs=1e-9)

    def test_compose_and_inverse(self):
        m = _unit(2.0, 1.0, 0.5, 1.0)
        n = _unit(1.0, -0.3, 0.0, 1.0)
        p = HPoint(0.2, 1.7)
        lhs = apply(compose(m, n), p)
        rhs = apply(m, apply(n, p))
        assert dist(lhs, rhs) < 1e-12
        back = apply(inverse(m), apply(m, p))
        assert dist(back, p) < 1e-12


class TestGeodesics:
    def test_frame_is_the_four_entries_as_given(self):
        g = HGeodesic((2.0, 0.0, 0.0, 0.5))  # z -> 4z
        assert endpoints(g) == (0.0, math.inf)
        assert repr(g) == "HGeodesic(0 -> inf)"
        assert (g.point_at(0.0).x, g.point_at(0.0).y) == (0.0, 4.0)

    def test_through_hits_both_points_at_right_parameters(self):
        rng = random.Random(5)
        for _ in range(200):
            p, q = hpoints(rng, 2)
            g = geodesic_through(p, q)
            assert dist(g.point_at(0.0), p) < 1e-9
            assert dist(g.point_at(dist(p, q)), q) < 1e-9
            assert norm(tangent_at(g, rng.uniform(-1, 1))) == pytest.approx(1.0, abs=1e-12)

    def test_param_of_inverts_point_at(self):
        g = circle_geodesic(0.7, 2.2, rightward=False)
        for s in (-1.3, 0.0, 0.9):
            assert param_of(g, g.point_at(s)) == pytest.approx(s, abs=1e-12)

    def test_from_direction_matches_tangent(self):
        rng = random.Random(6)
        for _ in range(200):
            (p,) = hpoints(rng, 1)
            a = rng.uniform(-math.pi, math.pi)
            u = HTangent(p, p.y * math.cos(a), p.y * math.sin(a))
            v = tangent_at(geodesic_from_direction(p, u), 0.0)
            assert math.hypot(v.dx - u.dx, v.dy - u.dy) < 1e-9

    @pytest.mark.parametrize("s", [710.0, -746.0, 1e300])
    def test_point_beyond_the_float_range_fails_typed(self, s):
        # e^710 overflows and e^-746 underflows to a y of 0
        with pytest.raises(DegenerateConfigurationError, match=re.escape(f"arclength {s!r}")):
            HGeodesic((1.0, 0.0, 0.0, 1.0)).point_at(s)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_arclength_that_is_not_finite_is_a_value_error(self, s):
        with pytest.raises(ValueError, match="arclength"):
            HGeodesic((1.0, 0.0, 0.0, 1.0)).point_at(s)

    def test_points_of_every_normal_height_are_points(self):
        # y is refused only below the normal floats, and dist roots each
        # y alone, so two points near 1e-300 are 2 asinh(1/2) apart
        tiny = 2.0 * sys.float_info.min
        assert dist(HPoint(0.0, tiny), HPoint(tiny, tiny)) == pytest.approx(
            2.0 * math.asinh(0.5), rel=4 * EPS)
        assert HGeodesic((1.0, 0.0, 0.0, 1.0)).point_at(-708.0).y == math.exp(-708.0)
        for y in (sys.float_info.min / 2, 5e-324, 0.0):
            with pytest.raises(ValueError):
                HPoint(0.0, y)

    def test_coincident_points_raise(self):
        p = HPoint(1.0, 1.0)
        with pytest.raises(DegenerateConfigurationError):
            geodesic_through(p, HPoint(1.0, 1.0))

    def test_dist_to_geodesic_is_attained_at_the_projection(self):
        rng = random.Random(8)
        for _ in range(50):
            p, a, b = hpoints(rng, 3)
            g = geodesic_through(a, b)
            s0 = param_of(g, p)  # the parameter of p's orthogonal projection
            d = dist_to_geodesic(p, g)
            assert d == pytest.approx(dist(p, g.point_at(s0)), abs=1e-9)
            # any other point of g is farther
            for ds in (-0.7, -0.1, 0.1, 0.7):
                assert dist(p, g.point_at(s0 + ds)) >= d - 1e-12


class TestTranslate:
    def test_translation_moves_axis_points_by_t(self):
        rng = random.Random(9)
        for _ in range(100):
            p, q = hpoints(rng, 2)
            g = geodesic_through(p, q)
            t = rng.uniform(-2, 2)
            m = translate_along(g, t)
            assert dist(apply(m, g.point_at(0.4)), g.point_at(0.4 + t)) < 1e-9

    def test_group_law(self):
        g = circle_geodesic(-1.0, 1.5)
        m = compose(translate_along(g, 0.7), translate_along(g, 0.9))
        n = translate_along(g, 1.6)
        p = HPoint(0.3, 0.8)
        assert dist(apply(m, p), apply(n, p)) < 1e-11

EPS = 2.0 ** -52


def random_geodesic(rng, kind):
    if kind == "circle":
        return circle_geodesic(rng.uniform(-4, 4), math.exp(rng.uniform(-3, 3)),
                               rightward=rng.random() < 0.5)
    if kind == "vertical":
        return vertical_geodesic(rng.uniform(-4, 4), upward=rng.random() < 0.5)
    p, q = (HPoint(rng.uniform(-3, 3), math.exp(rng.uniform(-3, 3)))
            for _ in range(2))
    return geodesic_through(p, q)


def mp_translation(frame, t, dps=50):
    """F diag(e^{t/2}, e^{-t/2}) F^-1 and X = F diag(1, -1) F^-1 at dps
    digits for the stored frame F, with F^-1 its exact inverse, and the
    frame's determinant drift |det F - 1|; entries in row-major order."""
    with mp.workdps(dps):
        F = mp.matrix([list(map(mpf, frame[:2])), list(map(mpf, frame[2:]))])
        half = mpf(t) / 2
        M = F * mp.diag([mp.exp(half), mp.exp(-half)]) * F ** -1
        X = F * mp.diag([1, -1]) * F ** -1
        return list(M), list(X), abs(mp.det(F) - 1)


class TestClosedFormTranslation:
    @pytest.mark.parametrize("kind", ["circle", "vertical", "through"])
    def test_matches_the_50_digit_conjugation(self, kind):
        # translate_along is cosh(t/2) I + sinh(t/2) X, with X's entries
        # ad + bc, -2ab and 2cd read off the frame F; |ad| + |bc| is at
        # most ||F||_F^2 / 2 and |2ab|, |2cd| at most ||F||_F^2.  Counting
        # one ulp for cosh and sinh, one rounding per flop and the
        # reference's rounding to float, an entry errs by at most
        # 2 eps (cosh(t/2) + |sinh(t/2)| ||F||_F^2), which is at most
        # 3 eps ||F||_F^2 cosh(t/2) since ||F||_F^2 >= 2 at det F = 1.
        # The closed form also takes det F as 1, where the
        # stored frame is 1 only to rounding; the exact conjugation divides
        # X by det F, so the entries differ by a further
        # |sinh(t/2)| |det F - 1| |X_ij|, computed here at 50 digits.
        rng = random.Random({"circle": 31, "vertical": 32, "through": 33}[kind])
        for _ in range(200):
            g = random_geodesic(rng, kind)
            t = rng.uniform(-10.0, 10.0)
            a, b, c, d = g.frame
            norm2 = a * a + b * b + c * c + d * d
            want, X, drift = mp_translation(g.frame, t)
            for got, w, x in zip(translate_along(g, t), want, X):
                budget = (3 * EPS * norm2 * math.cosh(t / 2)
                          + abs(math.sinh(t / 2)) * float(drift * abs(x)))
                assert abs(got - float(w)) <= budget

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_length(self, t):
        with pytest.raises(ValueError):
            translate_along(circle_geodesic(0.0, 1.0), t)


class TestAngles:
    def test_quarter_turn_is_ccw_and_isometric(self):
        p = HPoint(0.5, 2.0)
        u = HTangent(p, 1.0, 0.3)
        r = rotate_quarter(u)
        assert oriented_angle(u, r) == pytest.approx(math.pi / 2, abs=1e-15)
        assert inner(u, u) == pytest.approx(inner(r, r), abs=1e-15)

def perpendicular(g, h):
    """common_perpendicular(g, h) as (foot on g, foot on h, length)."""
    cp = common_perpendicular(g, h)
    return cp.foot_first, cp.foot_second, cp.length


class TestCommonPerpendicular:
    def test_symmetric_arcs_frozen(self):
        # half-circles centered at -2 and 2 with radius sqrt(3); their
        # inversive distance is (16 - 3 - 3) / 6 = 5/3, and the
        # perpendicular is the unit half-circle.
        g1 = circle_geodesic(-2.0, math.sqrt(3.0))
        g2 = circle_geodesic(2.0, math.sqrt(3.0))
        f1, f2, length = perpendicular(g1, g2)
        assert length == pytest.approx(1.0986122886681096, abs=1e-12)  # acosh(5/3)
        assert (f1.x, f1.y) == (pytest.approx(-0.5), pytest.approx(math.sqrt(3) / 2))
        assert (f2.x, f2.y) == (pytest.approx(0.5), pytest.approx(math.sqrt(3) / 2))

    def test_random_pairs_feet_and_orthogonality(self):
        rng = random.Random(13)
        built = 0
        while built < 100:
            c1, c2 = rng.uniform(-4, 4), rng.uniform(-4, 4)
            r1, r2 = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
            g1, g2 = circle_geodesic(c1, r1), circle_geodesic(c2, r2)
            try:
                f1, f2, length = perpendicular(g1, g2)
            except NoPerpendicularError:
                continue
            built += 1
            delta = ((c1 - c2) ** 2 - r1 * r1 - r2 * r2) / (2 * r1 * r2)
            assert length == pytest.approx(math.acosh(abs(delta)), abs=1e-9)
            assert dist_to_geodesic(f1, g1) < 1e-9
            assert dist_to_geodesic(f2, g2) < 1e-9
            seg = geodesic_through(f1, f2)
            for g, f in ((g1, f1), (g2, f2)):
                a = oriented_angle(tangent_at(seg, param_of(seg, f)),
                                   tangent_at(g, param_of(g, f)))
                assert abs(a) == pytest.approx(math.pi / 2, abs=1e-8)
            # the perpendicular realizes the minimal distance
            assert length <= dist(g1.point_at(0.3), g2.point_at(-0.2)) + 1e-12

    def test_concentric(self):
        f1, f2, length = perpendicular(
            circle_geodesic(0.0, 1.0), circle_geodesic(0.0, math.e)
        )
        assert length == pytest.approx(1.0, abs=1e-12)
        assert f1.x == f2.x == 0.0

    def test_vertical_and_circle(self):
        g1 = vertical_geodesic(5.0)
        g2 = circle_geodesic(-2.0, math.sqrt(3.0))
        f1, f2, length = perpendicular(g1, g2)
        assert length == pytest.approx(math.acosh(7.0 / math.sqrt(3.0)), abs=1e-9)
        assert f1.x == 5.0
        assert dist_to_geodesic(f2, g2) < 1e-10

    def test_near_concentric_pair(self):
        # centre gap 1e-7: cosh(length) = (r1^2 + r2^2 - gap^2)/(2 r1 r2),
        # written through sinh(length/2) to keep every digit
        gap, r1, r2 = 1e-7, 1.0, math.e
        g1, g2 = circle_geodesic(0.0, r1), circle_geodesic(gap, r2)
        want = 2.0 * math.asinh(math.sqrt(((r2 - r1) ** 2 - gap ** 2) / (4.0 * r1 * r2)))
        f1, f2, length = perpendicular(g1, g2)
        assert length == pytest.approx(want, abs=1e-14)
        assert dist(f1, f2) == pytest.approx(want, abs=1e-14)
        assert dist_to_geodesic(f1, g1) < 1e-14
        assert dist_to_geodesic(f2, g2) < 1e-14

    @pytest.mark.parametrize("t", [0.0, 350.0, 360.0])
    def test_feet_of_a_scaled_pair_stay_finite(self, t):
        # The imaginary axis and the circle of centre 5 e^t and radius e^t:
        # cosh(length) = 5 for every t, and the perpendicular is the circle
        # |z| = sqrt(24) e^t, with feet i sqrt(24) e^t and
        # (4.8 + i sqrt(0.96)) e^t.  At t = 360 the quotients ab/cd and
        # bd/ac of the relative frame overflow, though the feet, near
        # 1e157, are floats.
        scale = math.exp(t)
        f1, f2, length = perpendicular(vertical_geodesic(0.0),
                                       circle_geodesic(5.0 * scale, scale))
        assert length == pytest.approx(math.acosh(5.0), rel=1e-12)
        assert f1.x == 0.0
        assert f1.y == pytest.approx(math.sqrt(24.0) * scale, rel=1e-12)
        assert (f2.x, f2.y) == (pytest.approx(4.8 * scale, rel=1e-12),
                                pytest.approx(math.sqrt(0.96) * scale, rel=1e-12))

    def test_feet_beyond_the_float_range_fail_typed(self):
        # the foot on g sits near arclength 729, whose e^s is no float
        g = geodesic_through(HPoint(-1e300, 1e-6), HPoint(-1e-300, 0.3))
        h = geodesic_through(HPoint(1.0, 5.0), HPoint(1e-12, 1e6))
        with pytest.raises(DegenerateConfigurationError, match="arclength"):
            common_perpendicular(g, h)

    def test_two_verticals_are_asymptotic(self):
        with pytest.raises(NoPerpendicularError):
            common_perpendicular(vertical_geodesic(-1.0), vertical_geodesic(1.0))

    def test_crossing_and_tangent_circles_raise(self):
        with pytest.raises(NoPerpendicularError):
            common_perpendicular(circle_geodesic(0, 2), circle_geodesic(1, 2))
        with pytest.raises(NoPerpendicularError):
            common_perpendicular(circle_geodesic(0, 1), circle_geodesic(3, 2))


def test_intersection_point():
    ip = intersection_point(circle_geodesic(0, 1), vertical_geodesic(0.3))
    assert (ip.x, ip.y) == (pytest.approx(0.3), pytest.approx(math.sqrt(0.91)))
    with pytest.raises(DegenerateConfigurationError):
        intersection_point(vertical_geodesic(0), vertical_geodesic(1))
    with pytest.raises(DegenerateConfigurationError):
        intersection_point(circle_geodesic(0, 1), circle_geodesic(10, 1))
