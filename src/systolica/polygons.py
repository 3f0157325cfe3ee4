"""Right-angled polygons, their moduli coordinates, and length differentials.

A marked right-angled n-gon is determined up to isometry by its cyclic
side lengths, and the admissible length vectors form a codimension-3
submanifold of R^n.  The chart used everywhere here is the pentagon
chain: the perpendiculars h_3 = l_2, h_4, ..., h_{n-1} = l_n from side 1
onto sides 3..n-1 cut the polygon into right-angled pentagons, one
between each consecutive pair, and the tuple

    (l_3, h_4, h_5, ..., h_{n-2}, l_{n-1})

of side 3, the inner perpendiculars, and side n-1 gives n - 3 free
positive coordinates.  With P(x, y) = asinh(cosh x / sinh y)
(``trig.pentagon_side``), the pentagon between h_k and h_{k+1} has the
tail P(h_{k+1}, h_k) of side k, the head P(h_k, h_{k+1}) of side k+1 and
the piece P(tail, h_{k+1}) of side 1.  The chart reads them off the cosh
and sinh of each h_k, taken once: with q = cosh h_{k+1} / sinh h_k the
tail is asinh q and its cosh is hypot(1, q).

A realized polygon is one table of frame rows, one per side, and no
object per side.  The chart builds every row in closed form off side 1's
frame, so its geometry rounds like the coordinates; ``realize`` walks a
side vector alone, whose rounding the walk amplifies by up to e^{l_1}.
Both are O(n) float loops.

Side indices are 1-based throughout the public API, matching the
coordinate names; arrays returned to the caller are 0-based with slot
j-1 holding data for side j.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import halfplane
from .errors import (DegenerateConfigurationError, NoPentagonError, NoPolygonError,
                     _is_integer, _real_floats)
from .halfplane import (HGeodesic, HPoint, _disk, _perpendicular_length, _point, _product,
                        _relative, _unit, dist)
from .trig import pentagon_perpendicular, pentagon_side, semiregular_partner


@dataclass(frozen=True, eq=False)
class MarkedRightPolygon:
    """A realized marked right-angled polygon.

    The geometry is one immutable table of frame rows, not one object
    per side; ``vertices`` are built from it on first access, and
    ``side_geodesic`` wraps one row, shared, per call.

    Attributes
    ----------
    sides:
        Cyclic side lengths (l_1, ..., l_n).
    frames:
        frames[j-1] = (a, b, c, d), the entries of the frame of side j,
        a matrix of determinant one taking the upward imaginary axis onto
        the geodesic of side j (as ``halfplane.HGeodesic`` holds it),
        oriented counterclockwise around the polygon, with s = 0 at the
        side's first vertex and s = l_j at the next.
    closure_defect:
        The constructor's residual; a genuine polygon has it at roundoff
        level, and the constructors report rather than raise it.
        ``realize`` walks the sides and reports how far the walk fails
        to return to its start: with F_1 the frame at vertex 1 and
        F_{n+1} the frame after all n sides and n quarter turns, the
        holonomy H = F_1^-1 F_{n+1} is +-I exactly when the polygon
        closes, and the defect is the Frobenius distance ||H -+ I|| to
        the nearer sign, to first order sqrt((d^2 + phi^2)/2) when the
        walk ends a distance d from vertex 1, turned by phi.  The chart
        builds every row in closed form and reports the right-angle
        defect, max |ad + bc| over the relative frames of consecutive
        sides, the largest |cos| of a corner angle; it does not see
        where a row puts s = 0.
    coords:
        Pentagon-chain coordinates when the polygon was built from them,
        else None.
    """

    sides: tuple[float, ...]
    frames: tuple[tuple[float, float, float, float], ...]
    closure_defect: float
    coords: tuple[float, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.sides)

    @functools.cached_property
    def vertices(self) -> tuple[HPoint, ...]:
        """vertices[j-1] = F_j(i), where side j starts (``halfplane._point``)."""
        return tuple(HPoint(*_point(*row)) for row in self.frames)

    def side_geodesic(self, i: int) -> HGeodesic:
        """The oriented geodesic carrying side i (1-based) on the row ``frames[i-1]``."""
        return HGeodesic(self.frames[_side_index(i, self.n)])


def _side_index(i, n: int) -> int:
    """Slot i - 1 of side i, an Integral but not a bool in 1..n, else ValueError."""
    if not _is_integer(i) or not 1 <= i <= n:
        raise ValueError(f"side index must be an integer in 1..{n}, got {i!r}")
    return i - 1


def _checked(rows):
    """``rows`` as a tuple, refusing a vertex that ``HPoint`` would refuse
    (not finite, or within ``halfplane.YMIN`` of the real axis) with
    DegenerateConfigurationError."""
    ymin, inf = halfplane.YMIN, math.inf
    for k, (a, b, c, d) in enumerate(rows, start=1):
        x, y = _point(a, b, c, d)
        if not (ymin <= y < inf and -inf < x < inf):
            raise DegenerateConfigurationError(
                f"vertex {k} at ({x!r}, {y!r}) is not a finite point above YMIN")
    return tuple(rows)


def realize(sides: Sequence[float]) -> MarkedRightPolygon:
    """Walk the closed right-angled polygon with the given side lengths.

    Places the midpoint of side 1 at (0, 1) heading right along the unit
    circle, then walks frames: F_{k+1} = F_k diag(e^{l_k/2}, e^{-l_k/2}) Q,
    where Q turns by +pi/2 about i (counterclockwise traversal, interior
    on the left), each renormalized to determinant one.  Row k of
    ``frames`` is F_k.  Centering the first side keeps the excursion depth
    at the polygon's intrinsic diameter, which matters for precision when
    side 1 is long.  One float loop over the sides, O(n), with no object
    per side.  The closure defect (the holonomy's, see
    ``MarkedRightPolygon``) is reported on the result, never raised:
    inadmissible side vectors are allowed and simply fail to close up.
    Its float error grows like eps e^{l_1}, so a long side vector that
    is admissible may still close only to that.  A walk that overflows
    or puts a vertex within ``halfplane.YMIN`` of the real axis raises
    DegenerateConfigurationError.
    """
    sides = _real_floats(sides, "side lengths")
    if len(sides) < 5:
        raise ValueError("a right-angled polygon needs at least 5 sides")
    if any(not math.isfinite(s) or s <= 0 for s in sides):
        raise ValueError("side lengths must be positive and finite")
    try:
        # turn up into rightward about i, then back half of side 1
        h = math.exp(-0.25 * sides[0])
        a0, b0, c0, d0 = a, b, c, d = _unit(h, -1.0 / h, h, 1.0 / h)
        rows = []
        for length in sides:
            rows.append((a, b, c, d))
            # fused step and quarter turn, F diag(e, 1/e) [[1, 1], [-1, 1]]
            e = math.exp(0.5 * length)
            a, b, c, d = a * e, b / e, c * e, d / e
            a, b, c, d = _unit(a - b, a + b, c - d, c + d)
        ha, hb, hc, hd = _unit(*_product(_unit(d0, -b0, -c0, a0), a, b, c, d))  # F_1^-1 F
        rows = _checked(rows)
    except (ArithmeticError, ValueError) as exc:
        raise DegenerateConfigurationError(f"the walk left the float range: {exc}") from exc
    sign = 1.0 if ha + hd >= 0.0 else -1.0
    return MarkedRightPolygon(sides=sides, frames=rows,
                              closure_defect=math.hypot(ha - sign, hb, hc, hd - sign))


# 1/sqrt(2), the scale of a quarter turn Q = [[1, 1], [-1, 1]] / sqrt(2)
_R = math.sqrt(0.5)


def _chart_frames(l1, h, heads, pieces):
    """The rows of sides 1..n, each a fixed product off side 1's frame
    F_1 = Q^-1 D(-l_1/2), with D(x) = diag(e^{x/2}, e^{-x/2}):

        F_2 = F_1 D(l_1) Q,  F_n = -F_1 Q^-1 D(-l_n),
        F_k = F_1 D(sigma_k) Q D(h_k) Q D(-eta_k)   (3 <= k <= n - 1),

    where sigma_k is the foot of h_k on side 1, l_1 less the pieces of
    side 1 before it, and eta_k the head of side k (eta_3 = 0).  With
    mu = sigma_k - l_1/2, s = sinh(h_k/2), c = cosh(h_k/2),
    u = e^{(mu - eta_k)/2} and v = e^{-(mu + eta_k)/2}, F_k is
    (s u + c v, c/v + s/u, s u - c v, c/v - s/u) / sqrt(2).  No row
    depends on the one before, so no error is carried along the chain.
    Each row has the walk's sign: the walk closes at F_{n+1} = -F_1."""
    q = 0.25 * l1
    e, ch, sh = math.exp(-q), math.cosh(q), math.sinh(q)
    rows = [(_R * e, -_R / e, _R * e, _R / e), (ch, sh, sh, ch)]
    mu = 2.0 * q
    for hk, eta, piece in zip(h, (0.0, *heads), (*pieces, 0.0)):
        u, v = math.exp(0.5 * (mu - eta)), math.exp(-0.5 * (mu + eta))
        s, c = _R * math.sinh(0.5 * hk), _R * math.cosh(0.5 * hk)
        rows.append((s * u + c * v, c / v + s / u, s * u - c * v, c / v - s / u))
        mu -= piece
    t = math.exp(0.5 * h[-1])
    rows.append((sh / t, ch * t, -ch / t, -sh * t))
    return rows


def _right_angle_defect(rows) -> float:
    """max |ad + bc| over the relative frames (a, b, c, d) =
    F_k^-1 F_{k+1} of consecutive rows, cyclically: the cosine of the
    angle at which the two geodesics meet, 0 at a right angle.  A NaN is
    returned as it is."""
    worst = 0.0
    f = rows[-1]
    for row in rows:
        a, b, c, d = row
        a, b, c, d = _relative(f, a, b, c, d)
        cos = a * d + b * c
        if not -worst <= cos <= worst:
            if cos != cos:
                return cos
            worst = abs(cos)
        f = row
    return worst


def sides_from_pentagon_coords(coords: Sequence[float]) -> MarkedRightPolygon:
    """Assemble the marked right-angled polygon from pentagon-chain
    coordinates (l_3, h_4, ..., h_{n-2}, l_{n-1}) with n = len(coords)+3.

    Every coordinate must be positive and finite (ValueError).  For
    n >= 6 every such tuple is admissible: l_3 is the first tail and
    l_{n-1} the last head of the module docstring's pentagons, which
    gives h_3 and h_{n-1} (``trig.pentagon_side``).  For n = 5 the two
    coordinates are the adjacent sides (l_3, l_4) of a pentagon and must
    satisfy sinh(l_3) sinh(l_4) > 1; otherwise NoPolygonError reports the
    failing slot.

    One float loop over h_3..h_{n-1} reads the pentagons off the cosh and
    sinh of each perpendicular, as the module docstring says.  Every
    frame row is then a closed-form product off side 1's frame
    (``_chart_frames``), with no walk: the geometry rounds like the
    coordinates, where walking the rounded sides loses eps e^{l_1}.  The
    rows' vertices are tested (``_checked``, as in ``realize``) and the
    closure defect is their right-angle defect.  O(n) float loops, with
    no object per side.  Sides or frames that overflow, or a vertex
    within ``halfplane.YMIN`` of the real axis, raise
    DegenerateConfigurationError.
    """
    coords = _real_floats(coords, "pentagon coordinates")
    if len(coords) < 2:
        raise ValueError("need at least two coordinates (n >= 5)")
    if not all(0.0 < x < math.inf for x in coords):
        raise ValueError(f"pentagon coordinates must be positive and finite, got {coords!r}")
    l3, last = coords[0], coords[-1]
    try:
        if len(coords) == 2:  # n = 5: (l_3, l_4) and their perpendicular l_1
            try:
                l1 = pentagon_perpendicular(l3, last)
            except NoPentagonError as exc:
                raise NoPolygonError(str(exc), index=0) from exc
            h = (pentagon_side(last, l1), pentagon_side(l3, l1))  # l_2, l_5
            heads, pieces = coords[1:], (l1,)
            sides = (l1, h[0], *coords, h[1])
        else:
            h = (pentagon_side(coords[1], l3), *coords[1:-1],
                 pentagon_side(coords[-2], last))  # h_3 .. h_{n-1}
            # the step to h_{k+1} takes the head of the pentagon before,
            # from c = cosh h_{k-1} and sn = sinh h_k, then the tail and
            # piece of (h_k, h_{k+1}); side k is that head and this tail
            c, s = math.cosh(h[0]), math.sinh(h[0])
            cn, sn = math.cosh(h[1]), math.sinh(h[1])
            heads, pieces, inner = [], [math.asinh(math.cosh(l3) / sn)], []
            for hk in h[2:]:
                head = math.asinh(c / sn)
                c, s, cn, sn = cn, sn, math.cosh(hk), math.sinh(hk)
                q = cn / s  # the sinh of the tail, whose cosh is hypot(1, q)
                heads.append(head)
                inner.append(head + math.asinh(q))
                pieces.append(math.asinh(math.hypot(1.0, q) / sn))
            heads.append(last)
            l1 = sum(pieces)
            sides = (l1, h[0], l3, *inner, last, h[-1])
            if not max(sides) < math.inf:  # a quotient overflowed
                raise OverflowError("a side is infinite")
        rows = _checked(_chart_frames(l1, h, heads, pieces))
    except ArithmeticError as exc:
        raise DegenerateConfigurationError(f"the chart left the float range: {exc}") from exc
    return MarkedRightPolygon(sides=sides, frames=rows,
                              closure_defect=_right_angle_defect(rows), coords=coords)


def pentagon_coords(poly: MarkedRightPolygon) -> tuple[float, ...]:
    """Read the pentagon-chain coordinates off a realized polygon.

    Independent of the assembly direction: l_3 and l_{n-1} come straight
    from the side vector, and each h_i (4 <= i <= n - 2) is the length of
    the common perpendicular between the geodesics of side 1 and side i,
    read from their frame rows without its feet.
    """
    n = poly.n
    if n < 5:
        raise ValueError("a right-angled polygon needs at least 5 sides")
    if n == 5:
        return (poly.sides[2], poly.sides[3])
    f1 = poly.frames[0]
    hs = [_perpendicular_length(*_relative(f1, a, b, c, d))
          for a, b, c, d in poly.frames[3:n - 2]]
    return (poly.sides[2], *hs, poly.sides[n - 2])


def _tangent_entries(li, lj):
    """The entries at sides i-1, i+1 and i+2, from l_i and l_{i+1}, of the
    moduli-space tangent u_i that stretches side i at unit rate and keeps
    all outside the pentagon cut off between sides i-1 and i+2 frozen.
    Its nonzeros at sides i-1, i, i+1, i+2 are
    [-tanh(l_{i+1})/sinh(l_i), 1, -tanh(l_{i+1}) coth(l_i), 1/cosh(l_{i+1})]."""
    t = math.tanh(lj)
    return -t / math.sinh(li), -t / math.tanh(li), 1.0 / math.cosh(lj)


# --------------------------------------------------------------------------
# differentials of lengths and angles along a vertex chain


class ChainDifferentials:
    """First-order behaviour of the segment lengths and vertex angles of a
    polygonal chain x_0, ..., x_{m-1} under independent motions of its
    vertices.

    Segment r runs from x_r to x_{r+1}: a closed chain has m segments,
    the last one back to x_0, an open chain m - 1.  At a vertex x_k, U_k
    is the unit vector pointing away from x_{k-1} and V_k the one
    pointing away from x_{k+1}; theta_k is the counterclockwise angle
    from V_k to U_k in (0, 2*pi), the interior angle when the chain runs
    counterclockwise.  Every vertex of a closed chain has an angle, and
    row k of ``angles`` and ``angle_matrix`` is vertex k; the two ends of
    an open chain have none, and row r is vertex r + 1.

    A variation moves each vertex by a tangent vector, written in the
    orthonormal frame (y, 0), (0, y) at the vertex.  Both matrices have
    one column pair (2k, 2k+1) per vertex k, holding the differential of
    their row's length or angle against that vertex's two components.

    The constructor does the geometry once: ``lengths`` (read-only, one
    per segment, from ``halfplane.dist``) and, as complex components in
    those frames, V at each segment's start and U at its end.  The unit
    vector at z_k pointing away from z_o is -i zeta/|zeta| with
    zeta = ``halfplane._disk(z_k, z_o)``, so all of them come from one
    complex-array pass, and each method is O(1) numpy calls on them.
    """

    def __init__(self, points: Sequence[HPoint], closed: bool = True):
        self.points = tuple(points)
        m = self.m = len(self.points)
        if m < 3:
            raise ValueError("a chain needs at least 3 vertices")
        ends = self.points[1:] + self.points[:1] if closed else self.points[1:]
        lengths = [dist(p, q) for p, q in zip(self.points, ends)]
        if min(lengths) < 1e-9:
            raise DegenerateConfigurationError(
                f"segment {lengths.index(min(lengths))} of the chain is collapsed")
        self.lengths = np.array(lengths)
        self.lengths.flags.writeable = False
        seg = np.arange(len(lengths))
        self._ends = seg, (seg + 1) % m  # each segment's first and last vertex
        z = np.array([p.z for p in self.points])
        zs, ze = z[:len(lengths)], z[self._ends[1]]
        self._v, self._u = (-1j * zeta / np.abs(zeta)
                            for zeta in (_disk(zs, ze), _disk(ze, zs)))
        # the segments into and out of each vertex that has an angle
        self._into, self._out = ((seg - 1) % m, seg) if closed else (seg[:-1], seg[1:])

    def _matrix(self, *blocks) -> np.ndarray:
        """One row per block entry; block (k, w) puts w at vertex k's
        column of one complex array, whose float64 view is the column
        pair (real, imaginary)."""
        rows = np.arange(len(blocks[0][1]))
        mat = np.zeros((len(rows), self.m), dtype=complex)
        for k, w in blocks:
            mat[rows, k] = w
        return mat.view(np.float64)

    def angles(self) -> np.ndarray:
        """The vertex angles theta in (0, 2*pi)."""
        a = np.angle(self._u[self._into] * self._v[self._out].conj())
        return np.where(a > 0.0, a, a + 2.0 * math.pi)

    def _length_matrix(self) -> np.ndarray:
        """The d(length) rows, one per segment: V at the segment's start
        and U at its end are its only nonzeros."""
        start, end = self._ends
        return self._matrix((start, self._v), (end, self._u))

    def angle_matrix(self) -> np.ndarray:
        """The d(theta) rows.  With l_prev and l_next the lengths of the
        segments into and out of x_k, the row of theta_k has the blocks
        i(U_k/tanh l_prev - V_k/tanh l_next) at x_k, i V_{k-1}/sinh l_prev
        at x_{k-1} and -i U_{k+1}/sinh l_next at x_{k+1}."""
        into, out = self._into, self._out
        l_in, l_out = self.lengths[into], self.lengths[out]
        return self._matrix(
            (into, 1j * self._v[into] / np.sinh(l_in)),
            (out, 1j * (self._u[into] / np.tanh(l_in) - self._v[out] / np.tanh(l_out))),
            ((out + 1) % self.m, -1j * self._u[out] / np.sinh(l_out)))

    def length_rank(self) -> tuple[int, float]:
        """Rank data of the full set of length differentials:
        (rank, smallest singular value) of ``_length_matrix``."""
        svals = np.linalg.svd(self._length_matrix(), compute_uv=False)
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
    coth(l1/2) sum(d l_odd) + coth(l2/2) sum(d l_even), where
    coth(l/2) = (1 + cosh l)/sinh l, cancel on the whole tangent space of
    the moduli space.  Returns the largest absolute value over the basis
    vectors u_i of ``_tangent_entries``, one per side i; a genuine
    alternating polygon stays below 1e-8.

    The sums are read off each u_i's four nonzeros without building the
    vectors: slots i and i+2 (same parity as side i) hold 1 and the
    entry at i+2, slots i-1 and i+1 the other two.  All n basis vectors
    cost one float pass over the sides, O(n).
    """
    l1, l2 = _split_alternating(poly)
    coth = 1.0 / math.tanh(0.5 * l1), 1.0 / math.tanh(0.5 * l2)
    sides, n = poly.sides, poly.n
    worst = 0.0
    for k in range(n):  # side k + 1, odd for even k
        before, after, far = _tangent_entries(sides[k], sides[(k + 1) % n])
        own, other = coth[k % 2], coth[1 - k % 2]
        worst = max(worst, abs(own * (1.0 + far) + other * (before + after)))
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
            = -tanh(l_odd/2) / tanh(l_even/2),

    evaluated in the second form, which cannot overflow, and the
    derivative of the total is the coefficient-weighted count.  Each n_i
    must be an integer >= 3 (ValueError); where a partner length leaves
    the float range, ``semiregular_partner`` raises
    DegenerateConfigurationError.
    """
    if not ns:
        raise ValueError("need at least one polygon")
    total = 0.0
    deriv = 0.0
    coeffs = []
    for k in ns:
        l_odd = semiregular_partner(l_even, k)
        coeff = -math.tanh(0.5 * l_odd) / math.tanh(0.5 * l_even)
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


# How far the JSON "sides" may sit from the sides that the JSON "coords"
# give through the chart, relative to each side.
COORDS_RTOL = 1e-6


def polygon_from_json(data: dict) -> MarkedRightPolygon:
    """Realize a polygon from ``polygon_to_json`` output.

    Without ``"coords"`` the sides are walked by ``realize``.  With them,
    the polygon is built through the chart by
    ``sides_from_pentagon_coords``, which keeps the JSON coordinates, and
    each JSON side must be within ``COORDS_RTOL`` relative of the chart's
    side; the polygon carries the chart's sides.  Malformed input raises
    ValueError: a ``"sides"`` or ``"coords"`` entry that is not a JSON
    number, an int or a float (a bool, a numeric string or a numpy
    scalar is not), an integer beyond the float range, a count of
    coordinates other than n - 3, a coordinate that is not positive and
    finite, or sides that fail that test.  Coordinates the chart cannot
    assemble raise its typed errors.
    """
    if not isinstance(data, dict):
        raise ValueError("a polygon must be a JSON object")
    sides, coords = data.get("sides"), data.get("coords")
    for field, values in (("sides", sides), ("coords", () if coords is None else coords)):
        if not isinstance(values, (list, tuple)) or not set(map(type, values)) <= {int, float}:
            raise ValueError(f"polygon JSON '{field}' must be an array of numbers")
    n = data.get("n", len(sides))
    if type(n) is not int or n != len(sides):  # a JSON integer, not a bool
        raise ValueError(f"polygon JSON 'n' is {n!r}, not {len(sides)}")
    try:
        sides = tuple(map(float, sides))
        coords = None if coords is None else tuple(map(float, coords))
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"polygon JSON number out of range: {exc}") from exc
    if coords is None:
        return realize(sides)
    if len(coords) != n - 3:
        raise ValueError(f"{len(coords)} pentagon-chain coordinates for "
                         f"a {n}-gon, expected {n - 3}")
    poly = sides_from_pentagon_coords(coords)
    # the chart's sides are positive and finite, so this also refuses
    # zero, negative and non-finite sides
    for k, (side, want) in enumerate(zip(sides, poly.sides), start=1):
        if not abs(side - want) <= COORDS_RTOL * want:
            raise ValueError(f"side {k} is {side!r} but the coordinates give {want!r}")
    return poly
