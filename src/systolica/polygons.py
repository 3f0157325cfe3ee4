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
tail is asinh q and its cosh is hypot(1, q).  It checks the coordinates
once and takes every P inline, the end perpendiculars h_3 and h_{n-1}
among them, with no ``trig`` call that would check them again.

A realized polygon is one table of frame rows, one per side, and no
object per side, with side 1 up the imaginary axis as in ``hessian``.
Each row travels whole, one 4-tuple, into the ``halfplane`` helpers.
The chart builds every row in closed form, each entry one product, so
its geometry rounds like the coordinates; ``realize`` walks a side
vector alone, whose rounding the walk amplifies by up to e^{l_1}.  Both
are O(n) float loops, and both refuse a vertex whose y is not a positive
normal float, as ``halfplane.HPoint`` does.

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

from .errors import (_NORMAL_MIN, _POSITIVE, DegenerateConfigurationError, NoPentagonError,
                     NoPolygonError, _count, _json_numbers, _real, _real_floats)
from .halfplane import HGeodesic, HPoint, _disk, _perpendicular_length, _point, _relative, _unit
from .trig import _ORDERS, _half_sinh, _partner, pentagon_perpendicular, pentagon_side


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
        side's first vertex and s = l_j at the next; side 1 runs up the
        imaginary axis with its midpoint at i.
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

    Fewer than 5 sides, or a count of frames other than the count of
    sides, raises ValueError; the rows themselves are not checked here.
    """

    sides: tuple[float, ...]
    frames: tuple[tuple[float, float, float, float], ...]
    closure_defect: float

    def __post_init__(self):
        if not 5 <= len(self.sides) == len(self.frames):
            raise ValueError(f"a right-angled polygon needs at least 5 sides and one frame "
                             f"per side, got {len(self.sides)} sides and "
                             f"{len(self.frames)} frames")

    @property
    def n(self) -> int:
        return len(self.sides)

    @functools.cached_property
    def vertices(self) -> tuple[HPoint, ...]:
        """vertices[j-1] = F_j(i), where side j starts (``halfplane._point``)."""
        return tuple(HPoint(x, y) for x, y in map(_point, self.frames))

    def side_geodesic(self, i: int) -> HGeodesic:
        """The oriented geodesic carrying side i (1-based) on the row ``frames[i-1]``."""
        return HGeodesic(self.frames[_side_index(i, self.n)])


def _side_index(i, n: int) -> int:
    """Slot i - 1 of side i, an Integral but not a bool in 1..n, else ValueError."""
    return _count(i, "side index", range(1, n + 1)) - 1


def _checked(rows):
    """``rows`` as a tuple, refusing a vertex that ``HPoint`` would refuse
    (x not finite, or y not a positive normal float) with
    DegenerateConfigurationError."""
    ymin, inf = _NORMAL_MIN, math.inf
    for k, row in enumerate(rows, start=1):
        x, y = _point(row)
        if not (ymin <= y < inf and -inf < x < inf):
            raise DegenerateConfigurationError(
                f"vertex {k} at ({x!r}, {y!r}) is not finite with y a positive normal float")
    return tuple(rows)


def realize(sides: Sequence[float]) -> MarkedRightPolygon:
    """Walk the closed right-angled polygon with the given side lengths.

    Runs side 1 up the imaginary axis from F_1 = diag(e^{-l_1/4},
    e^{l_1/4}), its midpoint at i, then walks frames:
    F_{k+1} = F_k diag(e^{l_k/2}, e^{-l_k/2}) Q, where Q turns by +pi/2
    about i (counterclockwise traversal, interior on the left), each
    renormalized to determinant one.  Row k of ``frames`` is F_k.
    Centering the first side keeps the excursion depth at the polygon's
    intrinsic diameter, which matters for precision when side 1 is long.
    One float loop over the sides, O(n), with no object per side.  The
    closure defect (the holonomy's, see ``MarkedRightPolygon``) is
    reported on the result, never raised: inadmissible side vectors are
    allowed and simply fail to close up.  Its float error grows like
    eps e^{l_1}, so a long side vector that is admissible may still close
    only to that.  A walk that overflows or puts a vertex below the
    normal floats (vertex 1 at y = e^{-l_1/2}) raises
    DegenerateConfigurationError.
    """
    sides = _real_floats(sides, "side lengths", _POSITIVE)
    if len(sides) < 5:
        raise ValueError("a right-angled polygon needs at least 5 sides")
    try:
        # back half of side 1 down the imaginary axis
        h = math.exp(-0.25 * sides[0])
        row = _unit((h, 0.0, 0.0, 1.0 / h))
        rows = []
        for length in sides:
            rows.append(row)
            # fused step and quarter turn, F diag(e, 1/e) [[1, 1], [-1, 1]]
            a, b, c, d = row
            e = math.exp(0.5 * length)
            a, b, c, d = a * e, b / e, c * e, d / e
            row = _unit((a - b, a + b, c - d, c + d))
        a, b, c, d = row
        ha, hb, hc, hd = _unit((a / h, b / h, c * h, d * h))  # F_1^-1 F
        rows = _checked(rows)
    except (ArithmeticError, ValueError) as exc:
        raise DegenerateConfigurationError(f"the walk left the float range: {exc}") from exc
    sign = 1.0 if ha + hd >= 0.0 else -1.0
    return MarkedRightPolygon(sides=sides, frames=rows,
                              closure_defect=math.hypot(ha - sign, hb, hc, hd - sign))


def _chart_frames(l1, h, heads, pieces):
    """The rows of sides 1..n, each a fixed product off side 1's frame
    F_1 = D(-l_1/2), D(x) = diag(e^{x/2}, e^{-x/2}), up the imaginary axis:

        F_2 = F_1 D(l_1) Q,  F_n = -F_1 Q^-1 D(-l_n),
        F_k = F_1 D(sigma_k) Q D(h_k) Q D(-eta_k)   (3 <= k <= n - 1),

    where sigma_k is the foot of h_k on side 1, l_1 less the running sum
    of the pieces before it (``l1`` is that sum in full), and eta_k the
    head of side k: ``heads`` holds eta_3 = 0, ..., eta_{n-1} and
    ``pieces`` the n - 4 pieces and a last 0, one of each per h_k.  With
    mu = sigma_k - l_1/2, s, c = sinh, cosh(h_k/2), u = e^{(mu - eta_k)/2}
    and v = e^{-(mu + eta_k)/2}, F_k is (s u, c/v, -c v, -s/u); with
    e = e^{l_1/4} and t = e^{l_n/2}, F_1 = (1/e, 0, 0, e) and, over
    sqrt 2, F_2 = (e, e, -1/e, 1/e) and F_n = (-1/(e t), t/e, -e/t, -e t).
    Each entry is one product, and consecutive rows differ by one
    rounded piece.  Each row has the walk's sign: F_{n+1} = -F_1."""
    e = math.exp(0.25 * l1)
    r, w = math.sqrt(0.5) / e, math.sqrt(0.5) * e
    rows = [(1.0 / e, 0.0, 0.0, e), (w, w, -r, r)]
    half, foot = 0.5 * l1, 0.0
    for hk, eta, piece in zip(h, heads, pieces):
        mu = half - foot
        u, v = math.exp(0.5 * (mu - eta)), math.exp(-0.5 * (mu + eta))
        s, c = math.sinh(0.5 * hk), math.cosh(0.5 * hk)
        rows.append((s * u, c / v, -c * v, -s / u))
        foot += piece
    t = math.exp(0.5 * h[-1])
    rows.append((-r / t, r * t, -w / t, -w * t))
    return rows


def _right_angle_defect(rows) -> float:
    """max |ad + bc| over the relative frames (a, b, c, d) =
    F_k^-1 F_{k+1} of consecutive rows, cyclically: the cosine of the
    angle at which the two geodesics meet, 0 at a right angle.  A NaN is
    returned as it is."""
    worst = 0.0
    f = rows[-1]
    for row in rows:
        a, b, c, d = _relative(f, row)
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

    Every coordinate must be positive and finite (ValueError), checked
    once here.  For n >= 6 every such tuple is admissible: l_3 is the
    first tail and l_{n-1} the last head of the module docstring's
    pentagons, which gives h_3 = P(h_4, l_3) and
    h_{n-1} = P(h_{n-2}, l_{n-1}).  For n = 5 the two coordinates are the
    adjacent sides (l_3, l_4) of a pentagon and must satisfy
    sinh(l_3) sinh(l_4) > 1; otherwise NoPolygonError names them.

    One float loop over h_3..h_{n-1} reads the pentagons off the cosh and
    sinh of each perpendicular, as the module docstring says.  h_3 and
    h_{n-1} are taken in the same code as the loop's heads and tails,
    with ``math`` on the checked coordinates and no ``trig`` call to
    check them again; an infinite one fails the test of the sides.  Every
    frame row is then a closed-form product off side 1's frame
    (``_chart_frames``), with side 1 up the imaginary axis and no walk:
    the geometry rounds like the coordinates, where walking the rounded
    sides loses eps e^{l_1}.  The rows' vertices are tested (``_checked``,
    as in ``realize``) and the closure defect is their right-angle
    defect.  O(n) float loops, with no object per side.  Sides or frames
    that overflow, or a vertex whose y is not a positive normal float,
    raise DegenerateConfigurationError.
    """
    coords = _real_floats(coords, "pentagon coordinates", _POSITIVE)
    if len(coords) < 2:
        raise ValueError("need at least two coordinates (n >= 5)")
    l3, last = coords[0], coords[-1]
    try:
        if len(coords) == 2:  # n = 5: (l_3, l_4) and their perpendicular l_1
            try:
                l1 = pentagon_perpendicular(l3, last)
            except NoPentagonError as exc:
                raise NoPolygonError(str(exc)) from exc
            h = (pentagon_side(last, l1), pentagon_side(l3, l1))  # l_2, l_5
            heads, pieces = (0.0, last), (l1, 0.0)
            sides = (l1, h[0], *coords, h[1])
        else:
            # h_3 = P(h_4, l_3) and h_{n-1} = P(h_{n-2}, l_{n-1}), inline
            # as the loop below takes every head and tail
            cn, sn = math.cosh(coords[1]), math.sinh(coords[1])
            h = (math.asinh(cn / math.sinh(l3)), *coords[1:-1],
                 math.asinh(math.cosh(coords[-2]) / math.sinh(last)))  # h_3 .. h_{n-1}
            # the step to h_{k+1} takes the head of the pentagon before,
            # from c = cosh h_{k-1} and sn = sinh h_k, then the tail and
            # piece of (h_k, h_{k+1}); side k is that head and this tail
            c, s = math.cosh(h[0]), math.sinh(h[0])
            l1 = math.asinh(math.cosh(l3) / sn)  # summed piece by piece, as _chart_frames sums
            heads, pieces, inner = [0.0], [l1], []
            for hk in h[2:]:
                head = math.asinh(c / sn)
                c, s, cn, sn = cn, sn, math.cosh(hk), math.sinh(hk)
                q = cn / s  # the sinh of the tail, whose cosh is hypot(1, q)
                heads.append(head)
                inner.append(head + math.asinh(q))
                pieces.append(math.asinh(math.hypot(1.0, q) / sn))
                l1 += pieces[-1]
            heads.append(last)
            pieces.append(0.0)
            sides = (l1, h[0], l3, *inner, last, h[-1])
            if not max(sides) < math.inf:  # a quotient overflowed
                raise OverflowError("a side is infinite")
        rows = _checked(_chart_frames(l1, h, heads, pieces))
    except ArithmeticError as exc:
        raise DegenerateConfigurationError(f"the chart left the float range: {exc}") from exc
    return MarkedRightPolygon(sides=sides, frames=rows,
                              closure_defect=_right_angle_defect(rows))


def pentagon_coords(poly: MarkedRightPolygon) -> tuple[float, ...]:
    """Read the pentagon-chain coordinates off a realized polygon.

    Independent of the assembly direction: l_3 and l_{n-1} come straight
    from the side vector, and each h_i (4 <= i <= n - 2) is the length of
    the common perpendicular between the geodesics of side 1 and side i,
    read from their frame rows (``halfplane._perpendicular_length``).
    """
    n = poly.n
    if n < 5:
        raise ValueError("a right-angled polygon needs at least 5 sides")
    if n == 5:
        return (poly.sides[2], poly.sides[3])
    f1 = poly.frames[0]
    hs = [_perpendicular_length(_relative(f1, row)) for row in poly.frames[3:n - 2]]
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
# differentials of lengths along a vertex chain

# |zeta| of a segment of length 1e-9, below which ChainDifferentials
# refuses it as collapsed
_COLLAPSED = math.tanh(0.5e-9)


class ChainDifferentials:
    """First-order behaviour of the segment lengths of a closed polygonal
    chain x_0, ..., x_{m-1} under independent motions of its vertices.

    Segment k runs from x_k to x_{k+1}, the last one back to x_0, so the
    chain has m segments and m vertex angles, and everything is indexed
    by vertex, cyclically.  At x_k, U_k is the unit vector pointing away
    from x_{k-1} and V_k the one pointing away from x_{k+1}; theta_k is
    the counterclockwise angle from V_k to U_k in (0, 2*pi), the interior
    angle when the chain runs counterclockwise.

    A variation moves each vertex by a tangent vector, written in the
    orthonormal frame (y, 0), (0, y) at the vertex.  The differential of
    the length of segment k is a row with one column pair (2k, 2k+1) per
    vertex k, holding it against that vertex's two components, and its
    only two nonzero pairs are V_k and U_{k+1}.  So ``length_rank`` reads
    the length rows through their Gram matrix 2I + C, C holding
    cos theta_k where segments k - 1 and k meet, and never builds them.

    The constructor does the geometry once: V_k and U_k as complex
    components in those frames, and U_k conj V_k, whose argument is
    theta_k and whose real part is cos theta_k.  The unit vector at z_k
    pointing away from z_o is -i zeta/|zeta| with
    zeta = ``halfplane._disk(z_k, z_o)``, so all of them come from one
    complex-array pass, and ``length_rank`` is O(1) numpy calls on them.
    That pass takes the vertices twice, z_0 .. z_{m-1} z_0 .. z_{m-1},
    against their neighbours, z_1 .. z_{m-1} z_0 (the next ones, giving
    V) then z_{m-1} z_0 .. z_{m-2} (the ones before, giving U), both
    arrays joined from one list of the vertices' complex values.

    A segment shorter than 1e-9 is refused as collapsed.  That bound is a
    modelling choice, not derived from any error: a chain whose vertices
    nearly coincide is taken for a mistake in its input rather than a
    polygon.  The test reads the moduli the pass computes anyway:
    |zeta_k| = tanh(d_k/2) for the segment of length d_k from z_k, so
    the segment is refused iff |zeta_k| < tanh(5e-10), and the error
    names the shortest one.
    """

    def __init__(self, points: Sequence[HPoint]):
        zs = [p.z for p in points]
        m = len(zs)
        if m < 3:
            raise ValueError("a chain needs at least 3 vertices")
        # each vertex against the next one, then against the one before
        zeta = _disk(np.array(zs + zs), np.array(zs[1:] + zs[:1] + zs[-1:] + zs[:-1]))
        size = np.abs(zeta)
        if size[:m].min() < _COLLAPSED:
            raise DegenerateConfigurationError(
                f"segment {size[:m].argmin()} of the chain is collapsed")
        vu = -1j * zeta / size
        self._v, self._u = vu[:m], vu[m:]
        self._turn = self._u * self._v.conj()  # e^{i theta_k}, to within rounding

    def length_rank(self) -> tuple[int, float]:
        """(rank, smallest singular value) of the m length rows, one per
        segment, from one ``eigvalsh`` of their Gram matrix.

        Row k is V_k at the segment's start and U_{k+1} at its end, both
        unit vectors, so its squared norm is 2, and two rows meet only
        where their segments share a vertex x_k, as the product
        Re(U_k conj V_k) = cos theta_k of segments k - 1 and k.  The Gram
        matrix is therefore exactly G = 2I + C, cyclic tridiagonal with
        cos theta_k at (k - 1, k) and (k, k - 1), and ||G|| <= 4
        (Gershgorin; Golub & Van Loan, *Matrix Computations*, 7.2 and 8.1).

        The rank counts the eigenvalues above (4 m + 20) eps.  Each cosine
        errs by at most 10 eps (U and V are within 4 eps each, and the
        product's real part rounds by 2 eps), two to a row, so the
        computed C moves every eigenvalue by at most 20 eps (Weyl), and
        the symmetric eigensolver, backward stable, by c m eps ||G||,
        taken with c = 1.  An eigenvalue at or below the cut may be zero:
        the rank sees a singular value only above about its root, 1e-7.
        sigma_min = sqrt(max(lambda_min, 0)) is the root of an eigenvalue,
        so it errs by about c eps / sigma_min, not c eps.

        On a right-angled polygon every cos theta_k is 0, so C vanishes to
        within the corner defect and the answer is (m, sqrt 2) to within
        it: a rank below m cannot happen there.

        Layout, with c = cos theta: row k holds 2 at (k, k) and c_{k+1} at
        (k, k + 1) for k < m - 1, and symmetrically below, and c_0 sits
        at the corners (0, m - 1) and (m - 1, 0), where segment m - 1
        meets segment 0.  In the row-major flat view a step of m + 1 runs
        down a diagonal, so the three diagonals are basic slices starting
        at 0, 1 and m, and the corners are the entries m - 1 and
        m (m - 1).  At the m <= 14 of the benchmark's polygons, building
        the matrix by index arrays cost about as much as the O(m^3)
        solve, and it was the part that could be cut, so nothing here
        builds an index array.
        """
        c = self._turn.real
        m = len(c)
        gram = np.zeros((m, m))
        flat = gram.reshape(-1)
        flat[::m + 1] = 2.0
        flat[1::m + 1] = flat[m::m + 1] = c[1:]
        flat[m - 1] = flat[m * (m - 1)] = c[0]
        lam = np.linalg.eigvalsh(gram)
        rank = int(np.count_nonzero(lam > (4 * m + 20) * math.ulp(1.0)))
        return rank, math.sqrt(max(lam[0], 0.0))


# --------------------------------------------------------------------------
# the semi-regular locus


def _split_alternating(poly: MarkedRightPolygon) -> tuple[float, float]:
    sides, n = poly.sides, poly.n
    if n % 2 != 0 or n < 6:
        raise ValueError("the alternating locus lives in even polygons with >= 6 sides")
    # each side agrees with side 1 or side 2, which a NaN fails, and so
    # does an infinite side, as inf - inf is NaN
    if not all(abs(s - sides[j % 2]) <= 1e-9 for j, s in enumerate(sides)):
        raise ValueError("polygon sides do not alternate between two values")
    return sides[0], sides[1]


def proportionality_check(poly: MarkedRightPolygon) -> float:
    """Residual of the odd/even length-differential proportionality over
    the basis tangents u_i of ``_tangent_entries``, one per side i, of a
    polygon whose sides alternate between l1 and l2.

    The weighted sums coth(l1/2) sum(d l_odd) + coth(l2/2) sum(d l_even),
    where coth(l/2) = (1 + cosh l)/sinh l, cancel on the tangent space of
    the moduli space at a semi-regular polygon.  For the u_i they cancel
    term by term on any alternating sides, closed or not: the two
    weighted sums of u_i are +-coth(l_i/2) (1 + 1/cosh l_{i+1}).  So the
    residual, the largest absolute value over the u_i, vanishes to
    rounding whether or not the polygon closes (``realize([1.0, 2.0] * 3)``
    has closure defect 1.65 and residual 9e-16).  It checks the closed
    form of ``_tangent_entries``, which a wrong term would leave of order
    one, and not that the polygon lies on the semi-regular locus; its
    closure defect tells that.  Sides that do not alternate to within
    1e-9, a NaN or infinite side among them, raise ValueError.

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
    2*asinh(cos(pi/n_i)/sinh(l_even/2)) (``semiregular_partner``).  The
    per-side dilation coefficient d(l_odd)/d(l_even) is strictly
    negative:

        -(1 + cosh l_even) sinh l_odd / ((1 + cosh l_odd) sinh l_even)
            = -tanh(l_odd/2) / tanh(l_even/2),

    evaluated in the second form, which cannot overflow, and the
    derivative of the total is the coefficient-weighted count.  ``ns``
    must be a non-empty list, tuple or range, each n_i an integer >= 3,
    and l_even positive and finite (ValueError).  l_even is checked, and
    sinh(l_even/2) and tanh(l_even/2) taken, once; each partner is the
    kernel that ``semiregular_partner`` evaluates, ``trig._partner``,
    which raises DegenerateConfigurationError as it does where a partner
    length leaves the float range.
    """
    if not isinstance(ns, (list, tuple, range)):
        raise ValueError(f"ns must be a list, tuple or range of counts, got {ns!r}")
    if not ns:
        raise ValueError("need at least one polygon")
    l_even = _real(l_even, "length", _POSITIVE)
    half_sinh, half_tanh = _half_sinh(l_even), math.tanh(0.5 * l_even)
    total = 0.0
    deriv = 0.0
    coeffs = []
    for k in ns:
        k = _count(k, "n", _ORDERS)
        l_odd = _partner(l_even, half_sinh, k)
        coeff = -math.tanh(0.5 * l_odd) / half_tanh
        coeffs.append(coeff)
        total += k * l_odd
        deriv += k * coeff
    return BoundaryFunctional(value=total, derivative=deriv, coefficients=tuple(coeffs))


# --------------------------------------------------------------------------
# serialization


# How far the JSON "sides" may sit from the sides that the JSON "coords"
# give through the chart, relative to each side.
COORDS_RTOL = 1e-6


def polygon_from_json(data: dict) -> MarkedRightPolygon:
    """Realize a polygon from a JSON object: ``"sides"``, the cyclic side
    lengths (l_1, ..., l_n), an optional ``"n"``, their count, and an
    optional ``"coords"``, the pentagon-chain coordinates
    (l_3, h_4, ..., h_{n-2}, l_{n-1}) or null.  Any other key is ignored.

    Without ``"coords"`` the sides are walked by ``realize``.  With them,
    the polygon is built through the chart by
    ``sides_from_pentagon_coords``, and each JSON side must be within
    ``COORDS_RTOL`` relative of the chart's side; the polygon carries the
    chart's sides.  Malformed input raises ValueError: a ``"sides"`` or
    ``"coords"`` entry that is not a JSON number (``errors._json_numbers``),
    an ``"n"`` other than the count of sides, a count of coordinates other
    than n - 3, a coordinate that is not positive and finite, or sides
    that fail that test.  Coordinates the chart cannot assemble raise its
    typed errors.
    """
    if not isinstance(data, dict):
        raise ValueError("a polygon must be a JSON object")
    sides = _json_numbers(data.get("sides"), "polygon JSON 'sides'")
    coords = data.get("coords")
    if coords is not None:
        coords = _json_numbers(coords, "polygon JSON 'coords'")
    n = _count(data.get("n", len(sides)), "polygon JSON 'n'", range(len(sides), len(sides) + 1))
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
