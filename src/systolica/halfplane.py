"""Upper half-plane model of the hyperbolic plane.

Points carry Euclidean coordinates (x, y), x finite and y a positive
normal float.  An isometry is a real Moebius map z -> (az + b)/(cz + d),
held as the four entries (a, b, c, d) of its determinant-one matrix, and
every helper here takes and returns such entries.  A geodesic is the
image of the upward imaginary axis under one of them, its frame
(Beardon, *The Geometry of Discrete Groups*, ch. 7): arclength s sits at
frame(i e^s).
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
import sys

from .errors import DegenerateConfigurationError, NoPerpendicularError

# Margin for deciding that two geodesics touch at infinity (asymptotic)
# rather than admitting a common perpendicular: the distance of |ad + bc|,
# the cosh of their distance or the cosine of their angle, from 1.
ASYMPTOTIC_EPS = 1e-12

# The smallest positive normal float, 2^-1022: a point's y or a
# determinant below it has lost digits.
_NORMAL_MIN = sys.float_info.min


class HPoint:
    """A point x + iy, x finite and y a positive normal float, else ValueError."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        try:
            if math.isfinite(x) and _NORMAL_MIN <= y < math.inf:
                self.x, self.y = float(x), float(y)
                return
        except (TypeError, OverflowError):  # not a number, or an int beyond the floats
            pass
        raise ValueError(f"point ({x!r}, {y!r}) is not finite with y a positive normal float")

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
    Where a difference, |p - q| or the quotient overflows, the quotient
    r is taken in log form from the quartered differences, and
    asinh(r) = log r + log(1 + sqrt(1 + r^-2)), so every pair of points
    has a finite distance.
    """
    d = 2.0 * math.asinh(math.hypot(p.x - q.x, p.y - q.y)
                         / (2.0 * math.sqrt(p.y) * math.sqrt(q.y)))
    if d < math.inf:
        return d
    # here r > 1/4, as |p - q| is beyond the floats or r is, so e^{-2 log r} < 16
    log_r = (math.log(math.hypot(0.25 * p.x - 0.25 * q.x, 0.25 * p.y - 0.25 * q.y))
             + math.log(2.0) - 0.5 * (math.log(p.y) + math.log(q.y)))
    return 2.0 * (log_r + math.log(1.0 + math.sqrt(1.0 + math.exp(-2.0 * log_r))))


def _unit(a, b, c, d):
    """The entries divided by the square root of their determinant, the
    frame normalized to determinant one; a determinant that is not
    positive and finite raises ValueError rather than being flipped, and
    so does a normalized entry beyond the float range, which only a root
    below 1 can make.  A determinant below the normal range goes to
    ``_unit_rescaled``, so tiny entries keep their digits."""
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
    entries held as given, takes the upward imaginary axis onto it, s to
    frame(i e^s) (``_point``), so "up" is forward and s = 0 is frame(i)."""

    __slots__ = ("frame",)

    def __init__(self, frame):
        self.frame = frame

    def point_at(self, s):
        """The point at arclength s.  A non-finite s raises ValueError,
        and one whose point is not a float point (``HPoint``) raises
        DegenerateConfigurationError."""
        try:
            return HPoint(*_point(*self.frame, math.exp(s)))
        except (ArithmeticError, ValueError):
            if not -math.inf < s < math.inf:
                raise ValueError(f"arclength {s!r} is not finite") from None
            raise DegenerateConfigurationError(
                f"the point at arclength {s!r} is beyond the float range") from None

    def __repr__(self):
        # the boundary endpoints, backward -> forward; inf is infinity
        a, b, c, d = self.frame
        back, fwd = b / d if d else math.inf, a / c if c else math.inf
        return f"HGeodesic({back:.6g} -> {fwd:.6g})"


def _point(a, b, c, d, t=1.0):
    """(x, y) of F(i t) for the frame F = (a, b, c, d) of determinant one."""
    ct = c * t
    den = d * d + ct * ct
    return (b * d + a * t * ct) / den, t / den


def _turned(r, c, s):
    """Entries of diag(r, 1/r) R, the frame at i r^2 whose "up" points phi
    counterclockwise from the chart's vertical, for the rotation
    R = [[c, s], [-s, c]], (c, s) = (cos, sin)(phi/2)."""
    return r * c, r * s, -s / r, c / r


def _shifted(x, a, b, c, d):
    """Entries of [[1, x], [0, 1]] [[a, b], [c, d]]: the frame moved by x
    along the real axis, so ``_shifted(x, *_turned(r, c, s))`` is the
    frame at x + i r^2."""
    return a + x * c, b + x * d, c, d


def _half_turn(w):
    """(c, s) of ``_turned`` for phi = arg(w), the turn of "up" onto w."""
    h = cmath.sqrt(w / abs(w))  # e^{i arg(w)/2}; the sign is immaterial
    return h.real, h.imag


def _product(f, a, b, c, d):
    """Entries of f [[a, b], [c, d]], for f four entries."""
    fa, fb, fc, fd = f
    return (fa * a + fb * c, fa * b + fb * d,
            fc * a + fd * c, fc * b + fd * d)


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
    return _unit(*_shifted(p.x, *_turned(math.sqrt(p.y), *_half_turn(_toward(p, q)))))


def _relative(f, a, b, c, d):
    """Entries of f^-1 [[a, b], [c, d]] for the four entries f of a frame
    of determinant one: the frame (a, b, c, d) seen from f, in which f's
    geodesic is the upward imaginary axis.  Its geodesic then runs from
    b/d to a/c on the real line."""
    fa, fb, fc, fd = f
    return (fd * a - fb * c, fd * b - fb * d,
            fa * c - fc * a, fa * d - fc * b)


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
    Each is a sum of the logs of single entries, so no quotient is formed
    and a foot stays finite wherever its point is a float.  A length or
    foot beyond the float range raises DegenerateConfigurationError.
    """
    a, b, c, d = _relative(g.frame, *h.frame)
    length = _perpendicular_length(a, b, c, d)
    la, lb, lc, ld = math.log(abs(a)), math.log(abs(b)), math.log(abs(c)), math.log(abs(d))
    s, t = 0.5 * (la + lb - lc - ld), 0.5 * (lb + ld - la - lc)
    if not math.isfinite(s + t + length):  # finite when all three are
        raise DegenerateConfigurationError(
            f"common perpendicular of length {length!r} with feet at arclengths "
            f"{s!r} and {t!r} is beyond the float range")
    return CommonPerpendicular(g.point_at(s), h.point_at(t), length)
