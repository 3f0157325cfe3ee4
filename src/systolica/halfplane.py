"""Upper half-plane model of the hyperbolic plane.

Points carry Euclidean coordinates (x, y), x finite and y a positive
normal float.  An isometry is a real Moebius map z -> (az + b)/(cz + d),
held as the four entries (a, b, c, d) of its determinant-one matrix, and
every helper here takes and returns such a frame whole, as one row, a
4-tuple: a call that spread a row into four arguments would build a
fresh argument tuple for each row of the per-row loops in ``polygons``
and ``hessian``.  A geodesic is the image of the upward imaginary axis
under one of them, its frame (Beardon, *The Geometry of Discrete
Groups*, ch. 7): arclength s sits at frame(i e^s).
Half-circles and vertical rays are the same object, so no formula here
tells them apart, and any question about two geodesics is asked of the
relative frame g.frame^-1 h.frame, in which g is the imaginary axis.
Everything is closed-form; no iteration, no linear algebra.

Orientation conventions (these propagate through the whole package):
angles are counterclockwise-positive in the (x, y) chart, where they are
also the hyperbolic angles because the model is conformal.  A quarter
turn is +pi/2, and ``_turned`` turns a frame's "up" by phi
counterclockwise from the chart's vertical.
"""

import cmath
import math

from .errors import (_FINITE, _NORMAL_MIN, DegenerateConfigurationError, NoPerpendicularError,
                     _real, _real_floats)

# Margin for deciding that two geodesics touch at infinity (asymptotic)
# rather than admitting a common perpendicular: the distance of |ad + bc|,
# the cosh of their distance or the cosine of their angle, from 1.
ASYMPTOTIC_EPS = 1e-12


class HPoint:
    """A point x + iy, x finite and y a positive normal float, else ValueError."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = _real(x, "point x", _FINITE), _real(y, "point y", _NORMAL_MIN)

    @property
    def z(self):
        return complex(self.x, self.y)

    def __repr__(self):
        return f"HPoint({self.x!r}, {self.y!r})"


def dist(p, q):
    """Hyperbolic distance between two points.

    Written as 2 asinh(|p - q| / (2 sqrt(y1 y2))) rather than
    acosh(1 + |p - q|^2 / (2 y1 y2)), which loses every digit of a short
    distance, with each y rooted alone, as their product can underflow.
    Where a difference, |p - q| or the denominator overflows, the
    quotient r is taken again from the quartered differences over a
    quarter of the denominator, which is a float; where r is beyond the
    floats, it is taken in log form, and
    asinh(r) = log r + log(1 + sqrt(1 + r^-2)), so every pair of points
    has a finite distance.
    """
    den = 2.0 * math.sqrt(p.y) * math.sqrt(q.y)
    d = 2.0 * math.asinh(math.hypot(p.x - q.x, p.y - q.y) / den)
    if d < math.inf and den < math.inf:
        return d
    quarter = math.hypot(0.25 * p.x - 0.25 * q.x, 0.25 * p.y - 0.25 * q.y)
    r = quarter / (0.5 * math.sqrt(p.y) * math.sqrt(q.y))
    if r < math.inf:
        return 2.0 * math.asinh(r)
    # here r is beyond the floats, so e^{-2 log r} is below 1
    log_r = math.log(quarter) + math.log(2.0) - 0.5 * (math.log(p.y) + math.log(q.y))
    return 2.0 * (log_r + math.log(1.0 + math.sqrt(1.0 + math.exp(-2.0 * log_r))))


def _unit(f):
    """The entries of the row f divided by the square root of their
    determinant, the frame normalized to determinant one; a determinant that is not
    positive and finite raises ValueError rather than being flipped, and
    so does a normalized entry beyond the float range, which only a root
    below 1 can make.  A determinant below the normal range goes to
    ``_unit_rescaled``, so tiny entries keep their digits."""
    a, b, c, d = f
    det = a * d - b * c
    if not _NORMAL_MIN <= det < math.inf:
        return _unit_rescaled(a, b, c, d, det)
    s = math.sqrt(det)
    m = a / s, b / s, c / s, d / s
    # an infinite entry makes the sum infinite or NaN; a finite frame
    # whose sum overflows only takes the slow path, which returns it
    if s < 1.0 and not -math.inf < m[0] + m[1] + m[2] + m[3] < math.inf:
        return _unit_rescaled(a, b, c, d, det)  # which refuses it
    return m


def _unit_rescaled(a, b, c, d, det):
    """``_unit`` when ``det`` is not a positive normal float, or when a
    normalized entry is not finite.  Below the normal range the entries
    are scaled up by the power of two that brings the larger of ``|ad|``
    and ``|bc|`` into [1/8, 1), which is exact and leaves the normalized
    frame as it is, and the determinant is formed again.  The frame is
    refused unless that determinant is positive and finite and every
    normalized entry is finite; the message names the determinant as
    given."""
    if det < _NORMAL_MIN:
        k = max((math.frexp(x)[1] + math.frexp(y)[1] for x, y in ((a, d), (b, c))
                 if x and y), default=0)
        if k < 0:
            try:
                a, b, c, d = (math.ldexp(v, -k // 2) for v in (a, b, c, d))
            except OverflowError:  # an entry beyond the float range, refused below
                a = b = c = d = math.nan
    scaled = a * d - b * c
    if 0.0 < scaled < math.inf:
        s = math.sqrt(scaled)
        m = a / s, b / s, c / s, d / s
        if max(map(abs, m)) < math.inf:
            return m
    raise ValueError(f"matrix must have positive determinant and a normalized frame "
                     f"within the float range (det={det!r})")


class HGeodesic:
    """An oriented complete geodesic at unit speed: its ``frame``, four
    entries (a, b, c, d) of determinant one, takes the upward imaginary
    axis onto it, s to frame(i e^s) (``_point``), so "up" is forward and
    s = 0 is frame(i).

    The frame must be four real numbers (``errors._real_floats``) with
    ad - bc positive and |ad - bc - 1| <= 8 eps (|ad| + |bc|) finite,
    else ValueError (the band alone admits ad = bc past 1/(8 eps)).  The
    rows the library builds are within 4 eps: in a chart row
    (``polygons``) ad and bc each err by 3.5 eps of themselves (each
    entry is one product or quotient of sinh, cosh and exp values within
    an ulp, and the exp factors cancel), in a ``_unit`` row by 3 eps
    plus its determinant's 0.5 eps, and the subtraction adds 0.5 eps.
    The frame is held as a tuple of floats, a tuple of four floats as
    given, the same object, and is not normalized: on a row at distance
    h from the axis |ad| + |bc| is near cosh h, and ``_unit`` would move
    it by far more than its rounding."""

    __slots__ = ("frame",)

    def __init__(self, frame):
        try:
            a, b, c, d = frame
            if type(frame) is not tuple or not type(a) is type(b) is type(c) is type(d) is float:
                frame = a, b, c, d = _real_floats(frame, "geodesic frame")
        except (TypeError, ValueError):  # not four entries, or not numbers
            a = b = c = d = math.nan
        det, size = a * d - b * c, abs(a * d) + abs(b * c)
        if not (0.0 < det and abs(det - 1.0) <= 8.0 * math.ulp(1.0) * size < math.inf):
            raise ValueError(f"a geodesic frame must be four real numbers with ad - bc "
                             f"positive and one to within rounding, got {frame!r}")
        self.frame = frame

    def __repr__(self):
        # the boundary endpoints, backward -> forward; inf is infinity
        a, b, c, d = self.frame
        back, fwd = b / d if d else math.inf, a / c if c else math.inf
        return f"HGeodesic({back:.6g} -> {fwd:.6g})"


def _point(f, t=1.0):
    """(x, y) of F(i t) for the frame row f = (a, b, c, d) of determinant one."""
    a, b, c, d = f
    ct = c * t
    den = d * d + ct * ct
    return (b * d + a * t * ct) / den, t / den


def _turned(r, c, s):
    """Entries of diag(r, 1/r) R, the frame at i r^2 whose "up" points phi
    counterclockwise from the chart's vertical, for the rotation
    R = [[c, s], [-s, c]], (c, s) = (cos, sin)(phi/2)."""
    return r * c, r * s, -s / r, c / r


def _shifted(x, f):
    """Entries of [[1, x], [0, 1]] f: the frame row f = (a, b, c, d) moved
    by x along the real axis, so ``_shifted(x, _turned(r, c, s))`` is the
    frame at x + i r^2."""
    a, b, c, d = f
    return a + x * c, b + x * d, c, d


def _half_turn(w):
    """(c, s) of ``_turned`` for phi = arg(w), the turn of "up" onto w."""
    h = cmath.sqrt(w / abs(w))  # e^{i arg(w)/2}; the sign is immaterial
    return h.real, h.imag


def _product(f, g):
    """Entries of the product f g of two frame rows."""
    fa, fb, fc, fd = f
    a, b, c, d = g
    return (fa * a + fb * c, fa * b + fb * d,
            fc * a + fd * c, fc * b + fd * d)


def _disk(zp, zq):
    """(zq - zp)/(zq - conj zp): zq in the disk model centred at zp, whose
    argument is the direction from zp to zq turned clockwise by pi/2 and
    whose modulus is tanh of half their distance.  The arguments may be
    complex numbers or numpy arrays of them, quartered first: a dilation
    keeps the quotient, and z/4 keeps the division's intermediates finite."""
    zp, zq = 0.25 * zp, 0.25 * zq
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
    c, s = _half_turn(_toward(p, q))
    return _unit(_shifted(p.x, _turned(math.sqrt(p.y), c, s)))


def _relative(f, g):
    """Entries of f^-1 g for two frame rows, f of determinant one: the
    frame g = (a, b, c, d) seen from f, in which f's geodesic is the
    upward imaginary axis.  Its geodesic then runs from b/d to a/c on the
    real line."""
    fa, fb, fc, fd = f
    a, b, c, d = g
    return (fd * a - fb * c, fd * b - fb * d,
            fa * c - fc * a, fa * d - fc * b)


def _foot(f):
    """log sqrt|ab/cd| from log|a|, ..., log|d|, each taken once, for the
    row f = (a, b, c, d): for a frame seen from another (``_relative``)
    whose geodesic crosses the imaginary axis, the arclength up the axis
    of the crossing, on the circle |z|^2 = |ab/cd|.  A sum of logs of
    single entries is finite wherever the entries are nonzero floats."""
    a, b, c, d = f
    return 0.5 * (math.log(abs(a)) + math.log(abs(b)) - math.log(abs(c)) - math.log(abs(d)))


def _perpendicular_length(f):
    """Length of the common perpendicular of two geodesics from their
    relative frame f, a row of floats (``_relative``); see
    ``common_perpendicular``."""
    a, b, c, d = f
    ad, bc = a * d, b * c
    touch = 0.5 * ASYMPTOTIC_EPS  # |ad + bc| - 1 is 2 min(|ad|, |bc|)
    if -touch <= ad <= touch or -touch <= bc <= touch:
        raise NoPerpendicularError("geodesics are asymptotic or coincide")
    if ad * bc < 0.0:
        raise NoPerpendicularError("geodesics intersect")
    return 2.0 * math.asinh(math.sqrt(bc if bc > 0.0 else -ad))


class CommonPerpendicular:
    """The common perpendicular segment between two disjoint geodesics,
    held by its length."""

    __slots__ = ("length",)

    def __init__(self, length):
        self.length = length

    def __repr__(self):
        return f"CommonPerpendicular(length={self.length:.12g})"


def common_perpendicular(g, h):
    """Common perpendicular of two disjoint geodesics, as a
    CommonPerpendicular holding its length.  Raises NoPerpendicularError
    when the geodesics intersect, are asymptotic (shared boundary
    endpoint, e.g. any two verticals), or coincide.

    With (a, b, c, d) = g.frame^-1 h.frame, cosh(length) = |ad + bc|.
    Since ad - bc = 1, the length is 2 asinh(sqrt(bc)) when bc > 0 and
    2 asinh(sqrt(-ad)) when ad < 0, and either sign pattern means h
    stays on one side of g.  A length beyond the float range raises
    DegenerateConfigurationError.
    """
    length = _perpendicular_length(_relative(g.frame, h.frame))
    if not length < math.inf:
        raise DegenerateConfigurationError(
            f"common perpendicular of length {length!r} is beyond the float range")
    return CommonPerpendicular(length)
