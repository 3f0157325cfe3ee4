"""Upper half-plane model of the hyperbolic plane.

Points carry Euclidean coordinates (x, y) with y > 0 and tangent vectors
are (dx, dy) pairs based at a point.  Isometries are real Moebius maps
held as determinant-one 2x2 matrices.  A geodesic is the image of the
upward imaginary axis under one of them, its frame (Beardon, *The
Geometry of Discrete Groups*, ch. 7): arclength s sits at frame(i e^s).
Half-circles and vertical rays are the same object, so no formula here
tells them apart, and any question about two geodesics is asked of the
relative frame g.frame^-1 h.frame, in which g is the imaginary axis.  Everything is closed-form; no iteration, no linear
algebra.

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

    def scaled(self, a):
        return HTangent(self.base, a * self.dx, a * self.dy)

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


def cosh_dist(p, q):
    dx, dy = p.x - q.x, p.y - q.y
    return 1.0 + (dx * dx + dy * dy) / (2.0 * p.y * q.y)


def dist(p, q):
    """Hyperbolic distance between two points.

    Written as 2 asinh(|p - q| / (2 sqrt(y1 y2))) rather than
    acosh(cosh_dist), which loses every digit of a short distance.
    """
    return 2.0 * math.asinh(math.hypot(p.x - q.x, p.y - q.y)
                            / (2.0 * math.sqrt(p.y * q.y)))


class HIsometry:
    """Orientation-preserving isometry, a real Moebius map z -> (az+b)/(cz+d).

    The matrix is normalized to determinant one on construction; a
    non-positive determinant is rejected rather than silently flipped.
    ``_unimodular`` stores entries that are of determinant one already.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        if not math.isfinite(det) or det <= 0.0:
            raise ValueError(f"matrix must have positive determinant (det={det!r})")
        s = math.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    @classmethod
    def _unimodular(cls, a, b, c, d):
        """Float entries whose determinant is one by construction, stored
        as given.  The constructor's renormalization divides by a rounded
        determinant, whose error grows like eps (|ad| + |bc|), so it
        would amplify the entries' rounding by the square of their size."""
        m = cls.__new__(cls)
        m.a, m.b, m.c, m.d = a, b, c, d
        return m

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

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
        return HIsometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __repr__(self):
        return f"HIsometry({self.a:.6g}, {self.b:.6g}, {self.c:.6g}, {self.d:.6g})"


class HGeodesic:
    """An oriented complete geodesic, parametrized at unit speed.

    ``frame`` is an isometry taking the upward imaginary axis onto the
    geodesic: arclength s sits at ``frame(i e^s)``, so s = 0 marks
    ``frame(i)`` and the forward direction is the image of "up".  Every
    geodesic, half-circle or vertical ray alike, is stored this way.
    """

    __slots__ = ("frame",)

    def __init__(self, frame):
        self.frame = frame

    def point_at(self, s):
        f, t = self.frame, math.exp(s)
        ct = f.c * t
        den = f.d * f.d + ct * ct
        return HPoint((f.b * f.d + f.a * t * ct) / den, t / den)

    def tangent_at(self, s):
        """Unit tangent in the direction of increasing s."""
        p = self.point_at(s)
        f = self.frame
        ct = f.c * math.exp(s)
        # the unit "up" vector i t at i t, pushed by the derivative
        # 1/(c i t + d)^2, is i y (d - i ct)/(d + i ct) with y = t/|d + i ct|^2
        v = 1j * p.y * complex(f.d, -ct) / complex(f.d, ct)
        return HTangent(p, v.real, v.imag)

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

    def project(self, p):
        """Orthogonal projection: returns (foot point, distance to p)."""
        w = _pull(self.frame, p)
        return self.point_at(math.log(abs(w))), math.asinh(abs(w.real) / w.imag)

    def __repr__(self):
        back, fwd = self.endpoints()
        return f"HGeodesic({back:.6g} -> {fwd:.6g})"


def _pull(frame, p):
    """frame^-1(p) as a complex number: p seen from the frame, in which
    the geodesic is the imaginary axis."""
    return (frame.d * p.z - frame.b) / (frame.a - frame.c * p.z)


def _frame_at(p, w):
    """T_p R, with T_p = [[sqrt y, x/sqrt y], [0, 1/sqrt y]] taking i to p
    and R the rotation about i by arg(w): the frame based at p whose
    "up" points arg(w) counterclockwise from the chart's vertical."""
    h = cmath.sqrt(w / abs(w))  # e^{i arg(w)/2}; the sign is immaterial
    c, s = h.real, h.imag
    r = math.sqrt(p.y)
    return HIsometry(r * c - p.x * s / r, r * s + p.x * c / r, -s / r, c / r)


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


def _toward(p, q):
    """(q - p)/(q - conj p): q in the disk model centred at p, whose
    argument is the direction from p to q turned clockwise by pi/2."""
    zeta = (q.z - p.z) / (q.z - p.z.conjugate())
    if zeta == 0:
        raise DegenerateConfigurationError("geodesic through coincident points")
    return zeta


def geodesic_through(p, q):
    """The geodesic through two distinct points, oriented p -> q, s=0 at p."""
    return HGeodesic(_frame_at(p, _toward(p, q)))


def geodesic_from_direction(p, u):
    """The geodesic through the base of u in the direction of u, s=0 there."""
    if u.dx == 0.0 and u.dy == 0.0:
        raise DegenerateConfigurationError("zero tangent vector has no direction")
    return HGeodesic(_frame_at(p, complex(u.dy, -u.dx)))


def unit_toward(p, q):
    """Unit tangent at p pointing toward q."""
    zeta = _toward(p, q)
    v = 1j * p.y * zeta / abs(zeta)
    return HTangent(p, v.real, v.imag)


def exp_point(u, t=1.0):
    """Walk distance t*|u| from the base of u in the direction of u."""
    return geodesic_from_direction(u.base, u).point_at(t * norm(u))


def angle_data(p, q, u):
    """Angle at p between the direction toward q and the tangent u.

    Returns (psi, sign): psi in [0, pi] is the unoriented angle, sign is
    +1 when u sits counterclockwise from the direction toward q, -1
    clockwise, 0 when aligned.  Raises if p and q coincide or u vanishes.
    """
    if math.hypot(u.dx, u.dy) == 0.0:
        raise DegenerateConfigurationError("angle of a zero vector is undefined")
    e = unit_toward(p, q)  # raises DegenerateConfigurationError if p == q
    a = oriented_angle(e, u)
    return abs(a), (a > 0) - (a < 0)


def _generator(frame):
    """Entries (A, B, C) of X = F diag(1, -1) F^-1 = [[A, B], [C, -A]] for
    the frame F = [[a, b], [c, d]] of determinant one: A = ad + bc,
    B = -2ab, C = 2cd.  X/2 generates translation along the geodesic."""
    a, b, c, d = frame.a, frame.b, frame.c, frame.d
    return a * d + b * c, -2.0 * a * b, 2.0 * c * d


def translate_along(g, t):
    """Isometry translating by length t along g (forward for t > 0).

    Fixes g setwise; a point at distance rho from g moves by a length
    whose cosh-factor is cosh(rho), the usual hyperbolic spreading.

    Closed form: F diag(e^{t/2}, e^{-t/2}) F^-1 = cosh(t/2) I + sinh(t/2) X
    with X read off the frame g.frame (see ``_generator``).  One call
    costs a cosh, a sinh, about ten flops and one HIsometry.  The entries
    are stored without renormalizing, since their determinant is
    cosh^2 - sinh^2 = 1 by construction, and dividing by a rounded
    determinant would amplify their rounding by the square of their size.
    """
    if not math.isfinite(t):
        raise ValueError(f"translation length must be finite (t={t!r})")
    A, B, C = _generator(g.frame)
    ch, sh = math.cosh(0.5 * t), math.sinh(0.5 * t)
    return HIsometry._unimodular(ch + sh * A, sh * B, sh * C, ch - sh * A)


def rotate_about(p, phi):
    """Isometry rotating tangents at p by +phi (counterclockwise)."""
    sy = math.sqrt(p.y)
    m = HIsometry(sy, p.x / sy, 0.0, 1.0 / sy)
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return (m @ HIsometry(c, s, -s, c)) @ m.inverse()


def killing_vector(g, p):
    """Value at p of the Killing field generating translation along g.

    This is d/dt [translate_along(g, t)(p)] at t = 0, in closed form.
    """
    # the flow of X/2 = [[A, B], [C, -A]]/2 is z' = B/2 + A z - (C/2) z^2
    A, B, C = _generator(g.frame)
    v = 0.5 * B + A * p.z - 0.5 * C * p.z * p.z
    return HTangent(p, v.real, v.imag)


def _relative(g, h):
    """Entries (a, b, c, d) of g.frame^-1 h.frame: h seen from the frame
    in which g is the upward imaginary axis.  h then runs from b/d to
    a/c on the real line."""
    f, k = g.frame, h.frame
    return (f.d * k.a - f.b * k.c, f.d * k.b - f.b * k.d,
            f.a * k.c - f.c * k.a, f.a * k.d - f.c * k.b)


def intersection_point(g, h):
    """The intersection point of two geodesics, if there is exactly one."""
    a, b, c, d = _relative(g, h)
    # h crosses the axis iff its endpoints b/d and a/c have opposite
    # signs; it does so on the circle |z|^2 = -(b/d)(a/c).
    if a * b * c * d >= 0.0:
        raise DegenerateConfigurationError("geodesics do not cross")
    return g.point_at(0.5 * math.log(-a * b / (c * d)))


class CommonPerpendicular:
    """The common perpendicular segment between two disjoint geodesics."""

    __slots__ = ("foot_first", "foot_second", "length")

    def __init__(self, foot_first, foot_second, length):
        self.foot_first = foot_first
        self.foot_second = foot_second
        self.length = float(length)

    def __iter__(self):
        return iter((self.foot_first, self.foot_second, self.length))

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
    a, b, c, d = _relative(g, h)
    ad, bc = a * d, b * c
    if 2.0 * min(abs(ad), abs(bc)) <= ASYMPTOTIC_EPS:
        raise NoPerpendicularError("geodesics are asymptotic or coincide")
    if ad * bc < 0.0:
        raise NoPerpendicularError("geodesics intersect")
    length = 2.0 * math.asinh(math.sqrt(bc if bc > 0.0 else -ad))
    return CommonPerpendicular(g.point_at(0.5 * math.log(a * b / (c * d))),
                               h.point_at(0.5 * math.log(b * d / (a * c))),
                               length)


def dist_to_geodesic(p, g):
    """Distance from a point to a complete geodesic, in closed form."""
    w = _pull(g.frame, p)
    return math.asinh(abs(w.real) / w.imag)
