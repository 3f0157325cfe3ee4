"""Right-angled polygons, their moduli coordinates, and length differentials.

A marked right-angled n-gon is determined up to isometry by its cyclic
side lengths, and the admissible length vectors form a codimension-3
submanifold of R^n.  The chart used everywhere here is the pentagon
chain: the perpendiculars dropped from side 1 onto sides 4..n-2 cut the
polygon into right-angled pentagons, and the tuple

    (l_3, h_4, h_5, ..., h_{n-2}, l_{n-1})

of one side of the first pentagon, the perpendicular lengths, and one
side of the last pentagon gives n - 3 free positive coordinates.

Side indices are 1-based throughout the public API, matching the
coordinate names; arrays returned to the caller are 0-based with slot
j-1 holding data for side j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateConfigurationError,
    NoPolygonError,
)
from .halfplane import (
    HGeodesic,
    HIsometry,
    HPoint,
    HTangent,
    common_perpendicular,
    dist,
    inner,
    oriented_angle,
    rotate_quarter,
    unit_toward,
)
from .trig import ACOSH_TOUCH, guarded_acosh, semiregular_partner


@dataclass(frozen=True)
class MarkedRightPolygon:
    """A realized marked right-angled polygon.

    Attributes
    ----------
    sides:
        Cyclic side lengths (l_1, ..., l_n).
    vertices:
        Realized vertices; vertices[j-1] is where side j starts.
    geodesics:
        The complete geodesic carrying each side, oriented along the
        walk; its frame is the walk's frame at the side's first vertex,
        so s = 0 there and s = l_j at the next vertex.
    closure_defect:
        How far the walk fails to return to its start.  With F_1 the
        frame at vertex 1 and F_{n+1} the frame after all n sides and n
        quarter turns, the holonomy is H = F_1^-1 F_{n+1}, which is +-I
        exactly when the polygon closes.  The defect is the Frobenius
        distance ||H -+ I|| to the nearer sign; to first order it is
        sqrt((d^2 + phi^2)/2) when the walk ends a distance d from
        vertex 1, turned by phi from the initial direction.  A genuine
        polygon has defect at roundoff level; realize() reports rather
        than raises, so approximate side vectors can be inspected.
    coords:
        Pentagon-chain coordinates when the polygon was built from them,
        else None.
    """

    sides: tuple[float, ...]
    vertices: tuple[HPoint, ...]
    geodesics: tuple[HGeodesic, ...]
    closure_defect: float
    coords: tuple[float, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.sides)

    def side_geodesic(self, i: int) -> HGeodesic:
        """The oriented geodesic carrying side i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"side index {i} out of range 1..{self.n}")
        return self.geodesics[i - 1]


def realize(sides: Sequence[float]) -> MarkedRightPolygon:
    """Walk the closed right-angled polygon with the given side lengths.

    Places the midpoint of side 1 at (0, 1) heading right along the unit
    circle, then walks frames: F_{k+1} = F_k diag(e^{l_k/2}, e^{-l_k/2}) Q,
    where Q turns by +pi/2 about i (counterclockwise traversal, interior
    on the left).  Side k lies on HGeodesic(F_k) and starts at F_k(i).
    Centering the first side keeps the excursion depth at the polygon's
    intrinsic diameter, which matters for precision when side 1 is long.
    The closure defect is reported on the result, never raised:
    inadmissible side vectors are allowed and simply fail to close up.
    """
    sides = tuple(float(s) for s in sides)
    if len(sides) < 5:
        raise ValueError("a right-angled polygon needs at least 5 sides")
    if any(not math.isfinite(s) or s <= 0 for s in sides):
        raise ValueError("side lengths must be positive and finite")
    # rotation about i by -pi/2 (up becomes rightward), then back half of side 1
    h = math.exp(-0.25 * sides[0])
    start = frame = HIsometry(h, -1.0 / h, h, 1.0 / h)
    geodesics = []
    for length in sides:
        geodesics.append(HGeodesic(frame))
        # fused step and quarter turn, F diag(e, 1/e) [[1, 1], [-1, 1]];
        # the constructor restores determinant one
        e = math.exp(0.5 * length)
        a, b, c, d = frame.a * e, frame.b / e, frame.c * e, frame.d / e
        frame = HIsometry(a - b, a + b, c - d, c + d)
    hol = start.inverse() @ frame
    sign = 1.0 if hol.a + hol.d >= 0.0 else -1.0
    return MarkedRightPolygon(
        sides=sides,
        vertices=tuple(g.point_at(0.0) for g in geodesics),
        geodesics=tuple(geodesics),
        closure_defect=math.hypot(hol.a - sign, hol.b, hol.c, hol.d - sign),
    )


def _first_pentagon(l3: float, h4: float) -> tuple[float, float, float]:
    """Sides (l2, q4, p1) of the pentagon cut off by the perpendicular h4."""
    l2 = math.asinh(math.cosh(h4) / math.sinh(l3))
    q4 = math.asinh(math.cosh(l2) / math.sinh(h4))
    p1 = math.asinh(math.cosh(l3) / math.sinh(h4))
    return l2, q4, p1


def sides_from_pentagon_coords(coords: Sequence[float]) -> MarkedRightPolygon:
    """Assemble the marked right-angled polygon from pentagon-chain
    coordinates (l_3, h_4, ..., h_{n-2}, l_{n-1}) with n = len(coords)+3.

    For n >= 6 every positive coordinate tuple is admissible.  For n = 5
    the two coordinates are the adjacent sides (l_3, l_4) of a pentagon
    and must satisfy sinh(l_3) sinh(l_4) > 1; otherwise NoPolygonError
    reports the failing slot.
    """
    coords = tuple(float(c) for c in coords)
    if len(coords) < 2:
        raise ValueError("need at least two coordinates (n >= 5)")
    if any(not math.isfinite(c) or c <= 0 for c in coords):
        raise ValueError("pentagon-chain coordinates must be positive")
    n = len(coords) + 3

    if n == 5:
        l3, l4 = coords
        s = math.sinh(l3) * math.sinh(l4)
        if s <= 1.0 + ACOSH_TOUCH:
            raise NoPolygonError(
                f"no right-angled pentagon with adjacent sides l3={l3!r}, "
                f"l4={l4!r} (sinh*sinh = {s!r} <= 1)",
                index=0,
            )
        l1 = math.acosh(s)
        l2 = math.asinh(math.cosh(l4) / math.sinh(l1))
        l5 = math.asinh(math.cosh(l3) / math.sinh(l1))
        return replace(realize((l1, l2, l3, l4, l5)), coords=coords)

    l3 = coords[0]
    hs = coords[1:-1]  # h_4 .. h_{n-2}
    l_last = coords[-1]  # l_{n-1}

    l2, q4, p1 = _first_pentagon(l3, hs[0])

    # middle pentagons between consecutive perpendiculars h_i, h_{i+1}
    t = {}  # tail of side i beyond the foot of h_i
    s_in = {}  # head of side i+1 up to the foot of h_{i+1}
    c_mid = []  # pieces of side 1
    for idx in range(len(hs) - 1):
        i = 4 + idx
        hi, hj = hs[idx], hs[idx + 1]
        t[i] = math.asinh(math.cosh(hj) / math.sinh(hi))
        s_in[i + 1] = math.asinh(math.cosh(hi) / math.sinh(hj))
        c_mid.append(guarded_acosh(1.0 / (math.tanh(hi) * math.tanh(hj))))

    # last pentagon beyond h_{n-2}
    h_last = hs[-1]
    l_n = math.asinh(math.cosh(h_last) / math.sinh(l_last))
    u_tail = math.asinh(math.cosh(l_n) / math.sinh(h_last))
    c_last = guarded_acosh(1.0 / (math.tanh(h_last) * math.tanh(l_n)))

    sides = [0.0] * n
    sides[0] = p1 + sum(c_mid) + c_last
    sides[1] = l2
    sides[2] = l3
    if n == 6:
        sides[3] = q4 + u_tail
    else:
        sides[3] = q4 + t[4]
        for j in range(5, n - 2):
            sides[j - 1] = s_in[j] + t[j]
        sides[n - 3] = s_in[n - 2] + u_tail
    sides[n - 2] = l_last
    sides[n - 1] = l_n

    return replace(realize(sides), coords=coords)


def pentagon_coords(poly: MarkedRightPolygon) -> tuple[float, ...]:
    """Read the pentagon-chain coordinates off a realized polygon.

    Independent of the assembly direction: l_3 and l_{n-1} come straight
    from the side vector, and each h_i is measured as the common
    perpendicular between the geodesics of side 1 and side i.
    """
    n = poly.n
    if n < 5:
        raise ValueError("a right-angled polygon needs at least 5 sides")
    if n == 5:
        return (poly.sides[2], poly.sides[3])
    g1 = poly.side_geodesic(1)
    hs = [common_perpendicular(g1, poly.side_geodesic(i)).length
          for i in range(4, n - 1)]
    return (poly.sides[2], *hs, poly.sides[n - 2])


def tangent_u(poly: MarkedRightPolygon, i: int) -> np.ndarray:
    """The tangent vector to the moduli space that stretches side i at
    unit rate while rolling the change into its three cyclic neighbours.

    Geometrically: the perpendicular between sides i-1 and i+2 cuts off a
    pentagon, and the variation keeps everything outside that pentagon
    frozen.  Nonzero slots (1-based sides): i-1, i, i+1, i+2 with

        [ -tanh(l_{i+1})/sinh(l_i),  1,
          -tanh(l_{i+1}) coth(l_i),  1/cosh(l_{i+1}) ].
    """
    n = poly.n
    if not 1 <= i <= n:
        raise ValueError(f"side index {i} out of range 1..{n}")
    li = poly.sides[i - 1]
    lj = poly.sides[i % n]  # side i+1, cyclic
    v = np.zeros(n)
    v[(i - 2) % n] = -math.tanh(lj) / math.sinh(li)
    v[i - 1] = 1.0
    v[i % n] = -math.tanh(lj) / math.tanh(li)
    v[(i + 1) % n] = 1.0 / math.cosh(lj)
    return v


# --------------------------------------------------------------------------
# differentials of lengths and angles along a vertex chain


class ChainDifferentials:
    """First-order behaviour of segment lengths and vertex angles of a
    polygonal chain under independent motions of its vertices.

    Conventions: at an interior vertex x_i, U_i points away from x_{i-1}
    and V_i points away from x_{i+1}; theta_i is the counterclockwise
    angle from V_i to U_i in (0, 2*pi), which is the interior angle when
    the chain runs counterclockwise.  U_i^perp rotates U_i by +pi/2 and
    V_i^perp rotates V_i by -pi/2.

    A variation is one tangent vector per vertex.  For a closed chain all
    indices are cyclic; for an open chain the first and last vertices
    carry lengths only on one side and no angle.
    """

    def __init__(self, points: Sequence[HPoint], closed: bool = True):
        self.points = list(points)
        self.closed = closed
        m = len(self.points)
        if m < 3:
            raise ValueError("a chain needs at least 3 vertices")
        self.m = m
        for a, b in zip(self.points, self.points[1:]):
            if dist(a, b) < 1e-9:
                raise DegenerateConfigurationError("chain has a collapsed segment")
        if closed and dist(self.points[-1], self.points[0]) < 1e-9:
            raise DegenerateConfigurationError("closed chain repeats its start")

    # -- index helpers ----------------------------------------------------
    def _next(self, i: int) -> int:
        return (i + 1) % self.m if self.closed else i + 1

    def _prev(self, i: int) -> int:
        return (i - 1) % self.m if self.closed else i - 1

    def segment_indices(self) -> range:
        return range(self.m) if self.closed else range(self.m - 1)

    def angle_indices(self) -> range:
        return range(self.m) if self.closed else range(1, self.m - 1)

    # -- geometry ---------------------------------------------------------
    def length(self, i: int) -> float:
        return dist(self.points[i], self.points[self._next(i)])

    def _u_vec(self, i: int) -> HTangent:
        e = unit_toward(self.points[i], self.points[self._prev(i)])
        return e.scaled(-1.0)

    def _v_vec(self, i: int) -> HTangent:
        e = unit_toward(self.points[i], self.points[self._next(i)])
        return e.scaled(-1.0)

    def theta(self, i: int) -> float:
        """Oriented vertex angle in (0, 2*pi), ccw from V_i to U_i."""
        a = oriented_angle(self._v_vec(i), self._u_vec(i))
        return a if a > 0 else a + 2.0 * math.pi

    # -- differentials ----------------------------------------------------
    def d_length(self, i: int, variation: Sequence[HTangent]) -> float:
        """Derivative of the length of segment (x_i, x_{i+1})."""
        j = self._next(i)
        return (inner(variation[i], self._v_vec(i))
                + inner(variation[j], self._u_vec(j)))

    def d_theta(self, i: int, variation: Sequence[HTangent]) -> float:
        """Derivative of the vertex angle at x_i.

        Own-vertex terms carry coth of the adjacent lengths against the
        rotated frame; each neighbour contributes through 1/sinh of the
        shared segment with the opposite sign.
        """
        ip, iq = self._prev(i), self._next(i)
        l_prev = self.length(ip)
        l_next = self.length(i)
        u_perp = rotate_quarter(self._u_vec(i))
        v_perp = rotate_quarter(self._v_vec(i)).scaled(-1.0)
        val = (inner(variation[i], u_perp) / math.tanh(l_prev)
               + inner(variation[i], v_perp) / math.tanh(l_next))
        vp_prev = rotate_quarter(self._v_vec(ip)).scaled(-1.0)
        up_next = rotate_quarter(self._u_vec(iq))
        val -= inner(variation[ip], vp_prev) / math.sinh(l_prev)
        val -= inner(variation[iq], up_next) / math.sinh(l_next)
        return val

    def length_matrix(self) -> np.ndarray:
        """The d(length) functionals against an orthonormal frame at
        each vertex: one row per segment, columns (2k, 2k+1) for vertex
        k.  Row i is ``d_length(i, .)``, so its only nonzeros are V_i
        against the frame at x_i and U_{i+1} against the frame at
        x_{i+1}: two ``unit_toward`` calls per row.
        """
        frames = [(HTangent(p, p.y, 0.0), HTangent(p, 0.0, p.y))
                  for p in self.points]
        segments = self.segment_indices()
        mat = np.zeros((len(segments), 2 * self.m))
        for i in segments:
            j = self._next(i)
            for k, vec in ((i, self._v_vec(i)), (j, self._u_vec(j))):
                mat[i, 2 * k] = inner(frames[k][0], vec)
                mat[i, 2 * k + 1] = inner(frames[k][1], vec)
        return mat

    def length_rank(self) -> tuple[int, float]:
        """Rank data of the full set of length differentials:
        (rank, smallest singular value) of ``length_matrix``."""
        svals = np.linalg.svd(self.length_matrix(), compute_uv=False)
        rank = int(np.sum(svals > 1e-8 * svals[0]))
        return rank, float(svals[-1])


# --------------------------------------------------------------------------
# the semi-regular locus


def _split_alternating(poly: MarkedRightPolygon) -> tuple[float, float]:
    n = poly.n
    if n % 2 != 0 or n < 6:
        raise ValueError("the alternating locus lives in even polygons with >= 6 sides")
    odd = [poly.sides[j] for j in range(0, n, 2)]   # sides 1, 3, ...
    even = [poly.sides[j] for j in range(1, n, 2)]  # sides 2, 4, ...
    l1, l2 = odd[0], even[0]
    if max(abs(s - l1) for s in odd) > 1e-9 or max(abs(s - l2) for s in even) > 1e-9:
        raise ValueError("polygon sides do not alternate between two values")
    return l1, l2


def proportionality_check(poly: MarkedRightPolygon) -> float:
    """Residual of the odd/even length-differential proportionality on the
    alternating locus.

    On a semi-regular right-angled 2m-gon the weighted sums
    (1+cosh l1)/sinh l1 * sum(d l_odd) + (1+cosh l2)/sinh l2 * sum(d l_even)
    cancel on the whole tangent space of the moduli space.  Returns the
    largest absolute value over the basis vectors tangent_u(poly, i); a
    genuine alternating polygon stays below 1e-8.
    """
    l1, l2 = _split_alternating(poly)
    a = (1.0 + math.cosh(l1)) / math.sinh(l1)
    b = (1.0 + math.cosh(l2)) / math.sinh(l2)
    n = poly.n
    worst = 0.0
    for i in range(1, n + 1):
        v = tangent_u(poly, i)
        s_odd = float(np.sum(v[0::2]))
        s_even = float(np.sum(v[1::2]))
        worst = max(worst, abs(a * s_odd + b * s_even))
    return worst


@dataclass(frozen=True)
class BoundaryFunctional:
    """Total odd-side length of a family of semi-regular polygons sharing
    their even side length, with its derivative data."""

    value: float
    derivative: float
    coefficients: tuple[float, ...]


def boundary_functional(ns: Sequence[int], l_even: float) -> BoundaryFunctional:
    """Sum of all odd (boundary) sides over semi-regular 2n_i-gons whose
    even sides all have length l_even.

    Each polygon contributes n_i odd sides of the partner length
    2*asinh(cos(pi/n_i)/sinh(l_even/2)).  The per-side dilation
    coefficient d(l_odd)/d(l_even) is strictly negative:

        -(1 + cosh l_even) sinh l_odd / ((1 + cosh l_odd) sinh l_even)

    and the derivative of the total is the coefficient-weighted count.
    """
    if l_even <= 0:
        raise ValueError("side length must be positive")
    ns = [int(k) for k in ns]
    if not ns or any(k < 3 for k in ns):
        raise ValueError("each polygon needs n >= 3 sides of each type")
    total = 0.0
    deriv = 0.0
    coeffs = []
    for k in ns:
        l_odd = semiregular_partner(l_even, k)
        coeff = -((1.0 + math.cosh(l_even)) / (1.0 + math.cosh(l_odd))) \
            * (math.sinh(l_odd) / math.sinh(l_even))
        coeffs.append(coeff)
        total += k * l_odd
        deriv += k * coeff
    return BoundaryFunctional(value=total, derivative=deriv, coefficients=tuple(coeffs))


# --------------------------------------------------------------------------
# serialization


def polygon_to_json(poly: MarkedRightPolygon) -> dict:
    return {
        "n": poly.n,
        "sides": list(poly.sides),
        "coords": list(poly.coords) if poly.coords is not None else None,
        "closure_defect": poly.closure_defect,
    }


# How far JSON "coords" may sit from the sides' own pentagon-chain
# coordinates, relative to each coordinate.
COORDS_RTOL = 1e-6


def polygon_from_json(data: dict) -> MarkedRightPolygon:
    """Realize a polygon from ``polygon_to_json`` output.

    The optional ``"coords"`` must be the n - 3 pentagon-chain
    coordinates of the sides: each within ``COORDS_RTOL`` relative of
    ``pentagon_coords`` of the realized polygon.  The JSON values are
    kept.  Malformed input, including coordinates that fail that test,
    raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("a polygon must be a JSON object")
    sides, coords = data.get("sides"), data.get("coords")
    if not isinstance(sides, (list, tuple)):
        raise ValueError("polygon JSON needs a 'sides' array")
    try:
        if "n" in data and int(data["n"]) != len(sides):
            raise ValueError("polygon JSON 'n' disagrees with the sides array")
        sides = [float(s) for s in sides]
        if coords is not None:
            coords = tuple(float(c) for c in coords)
    except TypeError as exc:
        raise ValueError(f"malformed polygon: {exc!r}") from exc
    poly = realize(sides)
    if coords is None:
        return poly
    if len(coords) != poly.n - 3:
        raise ValueError(f"{len(coords)} pentagon-chain coordinates for "
                         f"a {poly.n}-gon, expected {poly.n - 3}")
    # the sides' coordinates are positive and finite, so this also
    # refuses zero, negative and non-finite entries
    for k, (c, want) in enumerate(zip(coords, pentagon_coords(poly))):
        if not abs(c - want) <= COORDS_RTOL * want:
            raise ValueError(f"coordinate {k} is {c!r} but the sides give {want!r}")
    return replace(poly, coords=coords)
