"""Reference geometry for the tests, built on the ``halfplane`` frame
primitives.

The library itself works on frames and points only; the tests also need
tangent vectors, isometries acting on points and vectors, and geodesics
named by their endpoints or by a direction, to measure its results by an
independent route.  They live here, on top of the frame helpers that
``systolica.halfplane`` keeps (``_point``, ``_frame_at``, ``_relative``
and the rest), so the kernel ships none of them.

Tangent vectors are (dx, dy) pairs based at a point.  A quarter turn
rotates one by +pi/2 counterclockwise in the (dx, dy) chart, which is
also a hyperbolic rotation because the model is conformal; oriented
angles are counterclockwise-positive.
"""

import math

from systolica.errors import DegenerateConfigurationError
from systolica.halfplane import (HGeodesic, HIsometry, HPoint, _frame, _frame_at,
                                 _frame_through, _half_turn, _point, _product,
                                 _relative, _toward)


class HTangent:
    """A tangent vector (dx, dy) based at an HPoint."""

    __slots__ = ("base", "dx", "dy")

    def __init__(self, base, dx, dy):
        self.base = base
        self.dx = float(dx)
        self.dy = float(dy)

    @property
    def w(self):
        return complex(self.dx, self.dy)

    def __repr__(self):
        return f"HTangent({self.base!r}, {self.dx!r}, {self.dy!r})"


def inner(u, v):
    """Hyperbolic inner product of two tangents at the same base point."""
    y = u.base.y
    return (u.dx * v.dx + u.dy * v.dy) / (y * y)


def norm(u):
    return math.hypot(u.dx, u.dy) / u.base.y


def rotate_quarter(u):
    """Rotate a tangent by +pi/2 (counterclockwise)."""
    return HTangent(u.base, -u.dy, u.dx)


def rotate_tangent(u, phi):
    c, s = math.cos(phi), math.sin(phi)
    return HTangent(u.base, c * u.dx - s * u.dy, s * u.dx + c * u.dy)


def oriented_angle(u, v):
    """Counterclockwise angle from u to v, in (-pi, pi]."""
    cross = u.dx * v.dy - u.dy * v.dx
    dot = u.dx * v.dx + u.dy * v.dy
    return math.atan2(cross, dot)


def apply(m, p):
    """The isometry m applied to the point p."""
    den = m.c * p.z + m.d
    z = (m.a * p.z + m.b) / den
    return HPoint(z.real, z.imag)


def push(m, u):
    """Pushforward of a tangent vector (derivative of the Moebius map)."""
    den = m.c * u.base.z + m.d
    w = u.w / (den * den)
    return HTangent(apply(m, u.base), w.real, w.imag)


def inverse(m):
    return HIsometry(m.d, -m.b, -m.c, m.a)


def compose(m, n):
    """The isometry m after n."""
    return HIsometry(*_product(m, n.a, n.b, n.c, n.d))


def _pull(frame, p):
    """frame^-1(p) as a complex number: p seen from the frame, in which
    the geodesic is the imaginary axis."""
    return (frame.d * p.z - frame.b) / (frame.a - frame.c * p.z)


def param_of(g, p):
    """Arclength s with g.point_at(s) = p, for a point on the geodesic.

    For a point off the geodesic this is the parameter of its
    orthogonal projection.
    """
    return math.log(abs(_pull(g.frame, p)))


def tangent_at(g, s):
    """Unit tangent of g at arclength s, in the direction of increasing s."""
    f, t = g.frame, math.exp(s)
    x, y = _point(f.a, f.b, f.c, f.d, t)
    # the unit "up" vector i t at i t, pushed by the derivative
    # 1/(c i t + d)^2, is i y (d - i ct)/(d + i ct) with y = t/|d + i ct|^2
    v = 1j * y * complex(f.d, -f.c * t) / complex(f.d, f.c * t)
    return HTangent(HPoint(x, y), v.real, v.imag)


def vertical_geodesic(x0, upward=True):
    """The vertical ray over x0, with s = 0 at x0 + i."""
    if upward:
        return HGeodesic(HIsometry(1.0, x0, 0.0, 1.0))
    return HGeodesic(HIsometry(x0, -1.0, 1.0, 0.0))


def circle_geodesic(c, r, rightward=True):
    """The half-circle of centre c and radius r, with s = 0 at its top."""
    if r <= 0.0:
        raise ValueError("circle radius must be positive")
    if rightward:
        return HGeodesic(HIsometry(c + r, c - r, 1.0, 1.0))
    return HGeodesic(HIsometry(c - r, -c - r, 1.0, -1.0))


def geodesic_through(p, q):
    """The geodesic through two distinct points, oriented p -> q, s=0 at p."""
    return HGeodesic(_frame(*_frame_through(p, q)))


def geodesic_from_direction(p, u):
    """The geodesic through the base of u in the direction of u, s=0 there."""
    if u.dx == 0.0 and u.dy == 0.0:
        raise DegenerateConfigurationError("zero tangent vector has no direction")
    c, s = _half_turn(complex(u.dy, -u.dx))
    return HGeodesic(HIsometry(*_frame_at(p.x, math.sqrt(p.y), c, s)))


def unit_toward(p, q):
    """Unit tangent at p pointing toward q."""
    zeta = _toward(p, q)
    v = 1j * p.y * zeta / abs(zeta)
    return HTangent(p, v.real, v.imag)


def translate_along(g, t):
    """Isometry translating by length t along g (forward for t > 0).

    Fixes g setwise; a point at distance rho from g moves by a length
    whose cosh-factor is cosh(rho), the usual hyperbolic spreading.

    Closed form: F diag(e^{t/2}, e^{-t/2}) F^-1 = cosh(t/2) I + sinh(t/2) X
    with F = g.frame = [[a, b], [c, d]] of determinant one and
    X = F diag(1, -1) F^-1 = [[A, B], [C, -A]], A = ad + bc, B = -2ab,
    C = 2cd.  One call costs a cosh, a sinh, about ten flops and one
    HIsometry.  The entries are stored without the constructor's
    renormalization, since their determinant is cosh^2 - sinh^2 = 1 by
    construction, and dividing by a rounded determinant, whose error
    grows like eps (|ad| + |bc|), would amplify their rounding by the
    square of their size.
    """
    if not math.isfinite(t):
        raise ValueError(f"translation length must be finite (t={t!r})")
    f = g.frame
    A, B, C = f.a * f.d + f.b * f.c, -2.0 * f.a * f.b, 2.0 * f.c * f.d
    ch, sh = math.cosh(0.5 * t), math.sinh(0.5 * t)
    return _frame(ch + sh * A, sh * B, sh * C, ch - sh * A)


def intersection_point(g, h):
    """The intersection point of two geodesics, if there is exactly one."""
    a, b, c, d = _relative(g.frame, *h.frame)
    # h crosses the axis iff its endpoints b/d and a/c have opposite
    # signs; it does so on the circle |z|^2 = -(b/d)(a/c).
    if a * b * c * d >= 0.0:
        raise DegenerateConfigurationError("geodesics do not cross")
    return g.point_at(0.5 * math.log(-a * b / (c * d)))


def dist_to_geodesic(p, g):
    """Distance from a point to a complete geodesic, in closed form."""
    w = _pull(g.frame, p)
    return math.asinh(abs(w.real) / w.imag)
