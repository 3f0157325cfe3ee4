"""Upper half-plane model of the hyperbolic plane.

Points carry Euclidean coordinates (x, y) with y > 0 and tangent vectors
are (dx, dy) pairs based at a point.  Isometries are real Moebius maps
held as determinant-one 2x2 matrices.  A geodesic is the image of the
upward imaginary axis under one of them, its frame (Beardon, *The
Geometry of Discrete Groups*, ch. 7): arclength s sits at frame(i e^s).
Half-circles and vertical rays are the same object, so no formula here
tells them apart, and any question about two geodesics is asked of the
relative frame g.frame^-1 h.frame, in which g is the imaginary axis.
Everything is closed-form; no iteration, no linear algebra.

Orientation conventions (these propagate through the whole package):
a quarter turn means rotating a tangent vector by +pi/2 counterclockwise
in the (dx, dy) chart, which is also a hyperbolic rotation because the
model is conformal.  Oriented angles are counterclockwise-positive.
"""

import cmath
import math

from .errors import DegenerateConfigurationError, NoPerpendicularError

# Points this close to the real axis (or below) are rejected: the model
# degenerates and every formula loses all precision there anyway.
YMIN = 1e-12

# Margin for deciding that two geodesics touch at infinity (asymptotic)
# rather than admitting a common perpendicular: the distance of |ad + bc|,
# the cosh of their distance or the cosine of their angle, from 1.
ASYMPTOTIC_EPS = 1e-12


class HPoint:
    """A point x + iy of the open upper half-plane."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("point coordinates must be finite")
        if y < YMIN:
            raise ValueError(f"point must lie in the upper half-plane (y={y!r})")
        self.x = float(x)
        self.y = float(y)

    @property
    def z(self):
        return complex(self.x, self.y)

    def __repr__(self):
        return f"HPoint({self.x!r}, {self.y!r})"


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


def dist(p, q):
    """Hyperbolic distance between two points.

    Written as 2 asinh(|p - q| / (2 sqrt(y1 y2))) rather than
    acosh(1 + |p - q|^2 / (2 y1 y2)), which loses every digit of a short
    distance.
    """
    return 2.0 * math.asinh(math.hypot(p.x - q.x, p.y - q.y)
                            / (2.0 * math.sqrt(p.y * q.y)))


class HIsometry:
    """Orientation-preserving isometry, a real Moebius map z -> (az+b)/(cz+d).

    The matrix is normalized to determinant one on construction; a
    non-positive determinant is rejected rather than silently flipped.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = _unit(a, b, c, d)

    def __iter__(self):
        """The entries, so that ``a, b, c, d = frame`` unpacks them."""
        return iter((self.a, self.b, self.c, self.d))

    def apply(self, p):
        den = self.c * p.z + self.d
        z = (self.a * p.z + self.b) / den
        return HPoint(z.real, z.imag)

    def push(self, u):
        """Pushforward of a tangent vector (derivative of the Moebius map)."""
        den = self.c * u.base.z + self.d
        w = u.w / (den * den)
        return HTangent(self.apply(u.base), w.real, w.imag)

    def inverse(self):
        return HIsometry(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other):
        return HIsometry(*_product(self, other.a, other.b, other.c, other.d))

    def __repr__(self):
        return f"HIsometry({self.a:.6g}, {self.b:.6g}, {self.c:.6g}, {self.d:.6g})"


def _unit(a, b, c, d):
    """The entries divided by the square root of their determinant, as
    ``HIsometry`` stores them; a determinant that is not positive and
    finite raises ValueError."""
    det = a * d - b * c
    if not math.isfinite(det) or det <= 0.0:
        raise ValueError(f"matrix must have positive determinant (det={det!r})")
    s = math.sqrt(det)
    return a / s, b / s, c / s, d / s


def _frame(a, b, c, d):
    """An HIsometry holding these entries as given, for entries whose
    determinant is one by construction: dividing by a rounded determinant
    would change their last bits."""
    m = HIsometry.__new__(HIsometry)
    m.a, m.b, m.c, m.d = a, b, c, d
    return m


class HGeodesic:
    """An oriented complete geodesic, parametrized at unit speed: its
    ``frame`` takes the upward imaginary axis onto it, arclength s to
    ``_point``'s frame(i e^s), so "up" is forward and s = 0 is frame(i)."""

    __slots__ = ("frame",)

    def __init__(self, frame):
        self.frame = frame

    def point_at(self, s):
        f = self.frame
        return HPoint(*_point(f.a, f.b, f.c, f.d, math.exp(s)))

    def tangent_at(self, s):
        """Unit tangent in the direction of increasing s."""
        f, t = self.frame, math.exp(s)
        x, y = _point(f.a, f.b, f.c, f.d, t)
        # the unit "up" vector i t at i t, pushed by the derivative
        # 1/(c i t + d)^2, is i y (d - i ct)/(d + i ct) with y = t/|d + i ct|^2
        v = 1j * y * complex(f.d, -f.c * t) / complex(f.d, f.c * t)
        return HTangent(HPoint(x, y), v.real, v.imag)

    def endpoints(self):
        """Boundary endpoints (backward, forward); math.inf encodes infinity."""
        f = self.frame
        return (f.b / f.d if f.d else math.inf, f.a / f.c if f.c else math.inf)

    def param_of(self, p):
        """Arclength s with point_at(s) = p, for a point on the geodesic.

        For a point off the geodesic this is the parameter of its
        orthogonal projection.
        """
        return math.log(abs(_pull(self.frame, p)))

    def __repr__(self):
        back, fwd = self.endpoints()
        return f"HGeodesic({back:.6g} -> {fwd:.6g})"


def _pull(frame, p):
    """frame^-1(p) as a complex number: p seen from the frame, in which
    the geodesic is the imaginary axis."""
    return (frame.d * p.z - frame.b) / (frame.a - frame.c * p.z)


def _point(a, b, c, d, t=1.0):
    """(x, y) of F(i t) for the frame F = (a, b, c, d) of determinant one."""
    ct = c * t
    den = d * d + ct * ct
    return (b * d + a * t * ct) / den, t / den


def _frame_at(x, r, c, s):
    """Entries of T R, the frame at x + i r^2 whose "up" points phi
    counterclockwise from the chart's vertical: T = [[r, x/r], [0, 1/r]]
    and the rotation R = [[c, s], [-s, c]], (c, s) = (cos, sin)(phi/2).
    The arguments may be floats or numpy columns."""
    return r * c - x * s / r, r * s + x * c / r, -s / r, c / r


def _half_turn(w):
    """(c, s) of ``_frame_at`` for phi = arg(w), the turn of "up" onto w."""
    h = cmath.sqrt(w / abs(w))  # e^{i arg(w)/2}; the sign is immaterial
    return h.real, h.imag


def _product(f, a, b, c, d):
    """Entries of f [[a, b], [c, d]], for f an HIsometry or four entries."""
    fa, fb, fc, fd = f
    return (fa * a + fb * c, fa * b + fb * d,
            fc * a + fd * c, fc * b + fd * d)


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


def _disk(zp, zq):
    """(zq - zp)/(zq - conj zp): zq in the disk model centred at zp, whose
    argument is the direction from zp to zq turned clockwise by pi/2 and
    whose modulus is tanh of half their distance.  The arguments may be
    complex numbers or numpy arrays of them."""
    return (zq - zp) / (zq - zp.conjugate())


def _toward(p, q):
    """``_disk`` of two points, refusing coincident ones."""
    zeta = _disk(p.z, q.z)
    if zeta == 0:
        raise DegenerateConfigurationError("geodesic through coincident points")
    return zeta


def _frame_through(p, q):
    """Entries of the frame of the geodesic through two distinct points,
    oriented p -> q, s=0 at p, normalized by ``_unit``."""
    return _unit(*_frame_at(p.x, math.sqrt(p.y), *_half_turn(_toward(p, q))))


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


def _relative(f, a, b, c, d):
    """Entries of f^-1 [[a, b], [c, d]] for a frame f of determinant one,
    an HIsometry or any four entries: the frame (a, b, c, d) seen from
    f, in which f's geodesic is the upward imaginary axis.  Its geodesic
    then runs from b/d to a/c on the real line.  The entries may be
    floats or numpy columns of many frames."""
    fa, fb, fc, fd = f
    return (fd * a - fb * c, fd * b - fb * d,
            fa * c - fc * a, fa * d - fc * b)


def intersection_point(g, h):
    """The intersection point of two geodesics, if there is exactly one."""
    a, b, c, d = _relative(g.frame, *h.frame)
    # h crosses the axis iff its endpoints b/d and a/c have opposite
    # signs; it does so on the circle |z|^2 = -(b/d)(a/c).
    if a * b * c * d >= 0.0:
        raise DegenerateConfigurationError("geodesics do not cross")
    return g.point_at(0.5 * math.log(-a * b / (c * d)))


def _perpendicular_length(a, b, c, d):
    """Length of the common perpendicular of two geodesics, without its
    feet, from the float entries of their relative frame (``_relative``);
    see ``common_perpendicular``."""
    ad, bc = a * d, b * c
    touch = 0.5 * ASYMPTOTIC_EPS  # |ad + bc| - 1 is 2 min(|ad|, |bc|)
    if -touch <= ad <= touch or -touch <= bc <= touch:
        raise NoPerpendicularError("geodesics are asymptotic or coincide")
    if ad * bc < 0.0:
        raise NoPerpendicularError("geodesics intersect")
    return 2.0 * math.asinh(math.sqrt(bc if bc > 0.0 else -ad))


class CommonPerpendicular:
    """The common perpendicular segment between two disjoint geodesics."""

    __slots__ = ("foot_first", "foot_second", "length")

    def __init__(self, foot_first, foot_second, length):
        self.foot_first = foot_first
        self.foot_second = foot_second
        self.length = float(length)

    def __repr__(self):
        return (f"CommonPerpendicular({self.foot_first!r}, "
                f"{self.foot_second!r}, length={self.length:.12g})")


def common_perpendicular(g, h):
    """Common perpendicular of two disjoint geodesics.

    Returns a CommonPerpendicular with the foot on g first.  Raises
    NoPerpendicularError when the geodesics intersect, are asymptotic
    (shared boundary endpoint, e.g. any two verticals), or coincide.

    With (a, b, c, d) = g.frame^-1 h.frame, cosh(length) = |ad + bc|.
    Since ad - bc = 1, the length is 2 asinh(sqrt(bc)) when bc > 0 and
    2 asinh(sqrt(-ad)) when ad < 0, and either sign pattern means h
    stays on one side of g.  The perpendicular is the circle
    |z|^2 = (b/d)(a/c) of the frame, so the foot on g sits at
    s = log(ab/cd)/2 and, symmetrically, the foot on h at log(bd/ac)/2.
    """
    a, b, c, d = _relative(g.frame, *h.frame)
    length = _perpendicular_length(a, b, c, d)
    return CommonPerpendicular(g.point_at(0.5 * math.log(a * b / (c * d))),
                               h.point_at(0.5 * math.log(b * d / (a * c))),
                               length)


def dist_to_geodesic(p, g):
    """Distance from a point to a complete geodesic, in closed form."""
    w = _pull(g.frame, p)
    return math.asinh(abs(w.real) / w.imag)
