"""Closed-form hyperbolic trigonometry, re-derived from explicit figures.

Every formula in systolica.trig is checked here against a construction
built out of half-plane primitives only: walk the figure, measure the
distance, compare.  None of the oracles call back into trig.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from systolica.errors import (
    DegenerateConfigurationError,
    NoPentagonError,
    NoPerpendicularError,
)
from systolica.halfplane import HPoint, common_perpendicular, dist
from systolica.polygons import boundary_functional, realize
from systolica.trig import (
    diagonal_mixed_type,
    diagonal_same_type,
    guarded_acosh,
    pentagon_perpendicular,
    pentagon_side,
    semiregular_partner,
    trirectangle_center,
)

from reference import (
    HTangent,
    circle_geodesic,
    dist_to_geodesic,
    equilateral_angle,
    geodesic_from_direction,
    geodesics,
    intersection_point,
    perpendicular_feet,
    point_at,
    rotate_quarter,
    rotate_tangent,
    tangent_at,
    vertical_geodesic,
)

# The side of the regular right-angled pentagon: sinh^2 = cosh means
# cosh is the golden ratio, and the opposite-side formula fixes it.
PENTAGON_SELF_DUAL = math.acosh((1.0 + math.sqrt(5.0)) / 2.0)


def _walk(p, u, length):
    """Advance (point, unit tangent) by `length` along the geodesic of u."""
    g = geodesic_from_direction(p, u)
    return point_at(g, length), tangent_at(g, length)


class TestPentagonPerpendicular:
    def _figure(self, a, b):
        """Geodesics carrying the two sides *not* adjacent to the (a, b)
        corner of a right-angled pentagon: e enters the corner vertically,
        c leaves after two quarter turns."""
        p = HPoint(0.0, 1.0)
        u = HTangent(p, p.y, 0.0)
        p1, t1 = _walk(p, u, a)
        p2, t2 = _walk(p1, rotate_quarter(t1), b)
        g_c = geodesic_from_direction(p2, rotate_quarter(t2))
        g_e = vertical_geodesic(0.0, upward=False)
        return g_e, g_c

    def test_matches_walked_pentagon(self):
        for a, b in [(0.8, 1.5), (1.2, 1.2), (2.5, 0.5), (0.95, 0.95)]:
            g_e, g_c = self._figure(a, b)
            want = common_perpendicular(g_e, g_c).length
            assert pentagon_perpendicular(a, b) == pytest.approx(want, abs=1e-11)

    def test_pentagon_side_solves_every_relation_of_the_walked_pentagon(self):
        # The walked pentagon has the cyclic sides (a, b, c, d, e): the
        # corner (e, a) sits at i, c runs from the end of b to the foot of
        # the perpendicular d, and e from that foot on the vertical to i.
        # Each side's two opposite sides are the next two but one, and
        # pentagon_side(x, y) returns the one of them next to y.
        for a, b in [(0.8, 1.5), (1.2, 1.2), (2.5, 0.5), (0.95, 0.95)]:
            g_e, g_c = self._figure(a, b)
            foot_e, foot_c = perpendicular_feet(g_e, g_c)
            corner = point_at(g_c, 0.0)  # where c leaves the end of b
            sides = (a, b, dist(corner, foot_c), common_perpendicular(g_e, g_c).length,
                     dist(HPoint(0.0, 1.0), foot_e))
            for k, x in enumerate(sides):
                y, z = sides[(k + 2) % 5], sides[(k + 3) % 5]
                assert pentagon_side(x, y) == pytest.approx(z, rel=1e-10)
                assert pentagon_side(x, z) == pytest.approx(y, rel=1e-10)

    def test_too_small_sides_leave_no_pentagon(self):
        # sinh(0.5)^2 < 1: the would-be opposite sides cross instead
        g_e, g_c = self._figure(0.5, 0.5)
        with pytest.raises(NoPerpendicularError):
            common_perpendicular(g_e, g_c)
        with pytest.raises(NoPentagonError):
            pentagon_perpendicular(0.5, 0.5)

    def test_self_dual_side_is_fixed(self):
        s = PENTAGON_SELF_DUAL
        assert pentagon_perpendicular(s, s) == pytest.approx(s, abs=1e-14)

    @pytest.mark.parametrize("f", [pentagon_perpendicular, pentagon_side])
    def test_rejects_nonpositive_sides(self, f):
        for a, b in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)]:
            with pytest.raises(ValueError):
                f(a, b)


class TestSemiRegularPolygonFigures:
    """Measurements on realized semi-regular right-angled 2n-gons.

    The polygon is walked from its side lengths alone; the center comes
    from intersecting two perpendicular side bisectors, that of side 1
    the unit circle, since side 1 runs up the imaginary axis with its
    midpoint at i.  Apothems and
    side-to-side perpendiculars are then measured and compared with the
    closed forms.
    """

    @pytest.fixture(params=[(3, 1.4), (3, 0.7), (4, 0.9), (5, 1.9), (6, 1.1)],
                    ids=lambda p: f"n{p[0]}-l{p[1]}")
    def figure(self, request):
        n, l1 = request.param
        l2 = semiregular_partner(l1, n)
        poly = realize([l1, l2] * n)
        assert poly.closure_defect < 1e-9
        g2 = geodesics(poly)[1]
        m2 = point_at(g2, l2 / 2)
        bisector2 = geodesic_from_direction(m2, rotate_quarter(tangent_at(g2, l2 / 2)))
        center = intersection_point(circle_geodesic(0.0, 1.0), bisector2)
        return n, l1, l2, poly, center

    def test_trirectangle_center_gives_the_apothems(self, figure):
        n, l1, l2, poly, center = figure
        h_odd = dist_to_geodesic(center, geodesics(poly)[0])
        h_even = dist_to_geodesic(center, geodesics(poly)[1])
        assert trirectangle_center(l2 / 2, n) == pytest.approx(h_odd, abs=1e-10)
        assert trirectangle_center(l1 / 2, n) == pytest.approx(h_even, abs=1e-10)

    def test_same_type_diagonals(self, figure):
        n, l1, l2, poly, center = figure
        h_odd = dist_to_geodesic(center, geodesics(poly)[0])
        for k in range(1, n):
            cp = common_perpendicular(geodesics(poly)[0],
                                      geodesics(poly)[(2 * k) % (2 * n)])
            assert diagonal_same_type(h_odd, k, n) == pytest.approx(
                cp.length, abs=1e-9)

    def test_adjacent_same_type_diagonal_is_the_enclosed_side(self, figure):
        n, l1, l2, poly, center = figure
        h_odd = dist_to_geodesic(center, geodesics(poly)[0])
        h_even = dist_to_geodesic(center, geodesics(poly)[1])
        assert diagonal_same_type(h_odd, 1, n) == pytest.approx(l2, abs=1e-10)
        assert diagonal_same_type(h_even, 1, n) == pytest.approx(l1, abs=1e-10)

    def test_mixed_type_diagonals_double_the_perpendicular(self, figure):
        n, l1, l2, poly, center = figure
        h_odd = dist_to_geodesic(center, geodesics(poly)[0])
        h_even = dist_to_geodesic(center, geodesics(poly)[1])
        for k in range(3, 2 * n - 2, 2):
            cp = common_perpendicular(geodesics(poly)[0],
                                      geodesics(poly)[k % (2 * n)])
            assert diagonal_mixed_type(h_odd, h_even, k, n) == pytest.approx(
                2.0 * cp.length, abs=1e-9)


def test_equilateral_triangle_closes_with_the_predicted_angle():
    for x in (0.6, 1.3, 2.8, 4.0):
        alpha = equilateral_angle(x)
        p = HPoint(0.0, 1.0)
        u = HTangent(p, p.y, 0.0)
        start = p
        for _ in range(3):
            p, t = _walk(p, u, x)
            u = rotate_tangent(t, math.pi - alpha)
        assert dist(p, start) < 1e-9


def test_equilateral_angle_frozen_value():
    # 18 triangles of angle pi/9 tile a disk neighbourhood: the genus-2
    # extreme loop length makes equilateral_angle come out at exactly pi/9
    x = 2.0 * math.acosh(1.0 / (2.0 * math.sin(math.pi / 18.0)))
    assert equilateral_angle(x) == pytest.approx(math.pi / 9.0, abs=1e-14)


def test_guarded_acosh_edges():
    assert guarded_acosh(1.0) == 0.0
    assert guarded_acosh(1.0 + 5e-15) == 0.0
    assert guarded_acosh(2.0) == pytest.approx(math.acosh(2.0), abs=0.0)
    with pytest.raises(DegenerateConfigurationError):
        guarded_acosh(0.9)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            guarded_acosh(x)


def test_argument_validation():
    with pytest.raises(ValueError):
        diagonal_same_type(1.0, 0, 5)
    with pytest.raises(ValueError):
        diagonal_same_type(1.0, 5, 5)
    with pytest.raises(ValueError):
        diagonal_mixed_type(1.0, 1.0, 2, 5)  # even k
    with pytest.raises(ValueError):
        diagonal_mixed_type(1.0, 1.0, 9, 5)  # beyond 2n-3
    with pytest.raises(ValueError):
        trirectangle_center(1.0, 2)
    with pytest.raises(ValueError):
        semiregular_partner(-1.0, 4)
    with pytest.raises(ValueError):
        equilateral_angle(0.0)
    for bad in (math.nan, math.inf):
        for call in (lambda: pentagon_perpendicular(bad, 1.0),
                     lambda: pentagon_perpendicular(1.0, bad),
                     lambda: pentagon_side(bad, 1.0),
                     lambda: pentagon_side(1.0, bad),
                     lambda: trirectangle_center(bad, 4),
                     lambda: diagonal_same_type(bad, 2, 5),
                     lambda: diagonal_mixed_type(bad, 1.0, 3, 5),
                     lambda: diagonal_mixed_type(1.0, bad, 3, 5),
                     lambda: semiregular_partner(bad, 4),
                     lambda: equilateral_angle(bad)):
            with pytest.raises(ValueError):
                call()


@pytest.mark.parametrize("call, args, error", [
    (semiregular_partner, (2000.0, 3), DegenerateConfigurationError),
    (trirectangle_center, (800.0, 4), DegenerateConfigurationError),
    (diagonal_same_type, (800.0, 2, 5), DegenerateConfigurationError),
    (diagonal_mixed_type, (800.0, 1.0, 3, 4), DegenerateConfigurationError),
    (equilateral_angle, (2000.0,), DegenerateConfigurationError),
    # cos(pi/n) / sinh(l/2) overflows to inf without an exception
    (semiregular_partner, (1e-320, 3), DegenerateConfigurationError),
    (boundary_functional, ([3], 1e-320), DegenerateConfigurationError),
    # sinh(l/2) underflows to 0, and the quotient raises ZeroDivisionError
    (semiregular_partner, (5e-324, 3), DegenerateConfigurationError),
    (boundary_functional, ([3], 5e-324), DegenerateConfigurationError),
    (semiregular_partner, (1.0, 3.5), ValueError),
    (boundary_functional, ([3.7], 1.0), ValueError),
    (trirectangle_center, (1.0, 4.0), ValueError),
    (diagonal_same_type, (1.0, 2, 5.0), ValueError),
    (diagonal_mixed_type, (1.0, 1.0, 3, "4"), ValueError),
    (diagonal_mixed_type, (1.0, 1.0, math.inf, 5), ValueError),
    (diagonal_mixed_type, (1.0, 1.0, -math.inf, 5), ValueError),
])
def test_float_range_and_non_integral_counts_fail_typed(call, args, error):
    with pytest.raises(error):
        call(*args)


@pytest.mark.parametrize("call, args", [
    (semiregular_partner, ("1", 3)),
    (trirectangle_center, (None, 3)),
    (equilateral_angle, ("2",)),
    (pentagon_perpendicular, ("1", 2.0)),
    (guarded_acosh, ("2",)),
    (guarded_acosh, (10**400,)),
    (diagonal_same_type, (1.0, "2", 6)),
    (diagonal_mixed_type, (1.0, 1.0, None, 6)),
    (pentagon_side, ("a", 1.0)),
    (pentagon_side, (1.0, "a")),
    (HPoint, ("1", 1.0)),
    (HPoint, (0.0, None)),
    (HPoint, (0.0, 1j)),
    (HPoint, (0.0, 10**400)),
])
def test_values_that_are_not_numbers_raise_value_error(call, args):
    # a string, None, a complex number or an integer beyond the floats is
    # a malformed argument, whose comparison, libm call or float() would
    # raise TypeError or OverflowError
    with pytest.raises(ValueError):
        call(*args)


# ---------------------------------------------------------------------------
# structural properties

lengths = st.floats(min_value=0.15, max_value=4.0)
orders = st.integers(min_value=3, max_value=12)


@settings(max_examples=60, deadline=None)
@given(l1=lengths, n=orders)
def test_partner_is_an_involution(l1, n):
    l2 = semiregular_partner(l1, n)
    assert semiregular_partner(l2, n) == pytest.approx(l1, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(x=lengths, dx=st.floats(min_value=0.01, max_value=1.0))
def test_equilateral_angle_is_decreasing_below_pi_over_3(x, dx):
    a, b = equilateral_angle(x), equilateral_angle(x + dx)
    assert 0.0 < b < a < math.pi / 3.0


@settings(max_examples=60, deadline=None)
@given(h=lengths, k=st.integers(min_value=1, max_value=11), n=orders)
def test_same_type_diagonal_symmetry(h, k, n):
    if k >= n:
        k = k % (n - 1) + 1
    arg = math.cosh(h) * math.sin(k * math.pi / n)
    if arg <= 1.0 - 1e-9:
        # sides too close to the center: no perpendicular on either index
        with pytest.raises(DegenerateConfigurationError):
            diagonal_same_type(h, k, n)
        with pytest.raises(DegenerateConfigurationError):
            diagonal_same_type(h, n - k, n)
        return
    if arg < 1.0 + 1e-9:
        return  # grazing contact: too close to the edge to test either way
    d1 = diagonal_same_type(h, k, n)
    d2 = diagonal_same_type(h, n - k, n)
    assert d1 == pytest.approx(d2, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=lengths, b=lengths)
def test_pentagon_perpendicular_is_symmetric_where_defined(a, b):
    s = math.sinh(a) * math.sinh(b)
    if s <= 1.0 + 1e-9:
        return
    assert pentagon_perpendicular(a, b) == pytest.approx(
        pentagon_perpendicular(b, a), rel=1e-13)
