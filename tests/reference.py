"""Reference geometry for the tests, built on the ``halfplane`` frame
primitives.

The library itself works on frames and points only; the tests also need
tangent vectors, isometries acting on points and vectors, and geodesics
named by their endpoints or by a direction, to measure its results by an
independent route.  They live here, on top of the frame helpers that
``systolica.halfplane`` keeps (``_point``, ``_turned``, ``_relative``
and the rest), so the kernel ships none of them.  An isometry is its
four entries (a, b, c, d), as in the library.  Then come two dense
references, ``tangent_u`` and ``hessian_matrix``.

The last part is the finite-difference reference for
``hessian.fd_oracle``: ``scene_length``, the deformed chord length of a
scene, and ``fd_differences``, its central differences on a 3 x 3 grid,
which the library's Taylor-jet oracle replaced.

Tangent vectors are (dx, dy) pairs based at a point.  A quarter turn
rotates one by +pi/2 counterclockwise in the (dx, dy) chart, which is
also a hyperbolic rotation because the model is conformal; oriented
angles are counterclockwise-positive.
"""

import math

import numpy as np

from systolica import hessian
from systolica.errors import DegenerateConfigurationError, InconsistentSceneError
from systolica.halfplane import (HGeodesic, HPoint, _frame_through, _half_turn, _point,
                                 _product, _relative, _shifted, _toward, _turned, _unit, dist)
from systolica.hessian import _IDENTITY, ChordConfig, _check_length
from systolica.polygons import MarkedRightPolygon, _side_index, _tangent_entries


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
    """The isometry m = (a, b, c, d) applied to the point p."""
    a, b, c, d = m
    den = c * p.z + d
    z = (a * p.z + b) / den
    return HPoint(z.real, z.imag)


def push(m, u):
    """Pushforward of a tangent vector (derivative of the Moebius map)."""
    _, _, c, d = m
    den = c * u.base.z + d
    w = u.w / (den * den)
    return HTangent(apply(m, u.base), w.real, w.imag)


def inverse(m):
    a, b, c, d = m
    return _unit(d, -b, -c, a)


def compose(m, n):
    """The isometry m after n."""
    return _unit(*_product(m, *n))


def _pull(frame, p):
    """frame^-1(p) as a complex number: p seen from the frame, in which
    the geodesic is the imaginary axis."""
    a, b, c, d = frame
    return (d * p.z - b) / (a - c * p.z)


def param_of(g, p):
    """Arclength s with g.point_at(s) = p, for a point on the geodesic.

    For a point off the geodesic this is the parameter of its
    orthogonal projection.
    """
    return math.log(abs(_pull(g.frame, p)))


def tangent_at(g, s):
    """Unit tangent of g at arclength s, in the direction of increasing s."""
    (a, b, c, d), t = g.frame, math.exp(s)
    x, y = _point(a, b, c, d, t)
    # the unit "up" vector i t at i t, pushed by the derivative
    # 1/(c i t + d)^2, is i y (d - i ct)/(d + i ct) with y = t/|d + i ct|^2
    v = 1j * y * complex(d, -c * t) / complex(d, c * t)
    return HTangent(HPoint(x, y), v.real, v.imag)


def endpoints(g):
    """Boundary endpoints of a geodesic, (backward, forward), as the
    quotients of its frame's entries; math.inf encodes infinity."""
    a, b, c, d = g.frame
    return (b / d if d else math.inf, a / c if c else math.inf)


def vertical_geodesic(x0, upward=True):
    """The vertical ray over x0, with s = 0 at x0 + i."""
    if upward:
        return HGeodesic(_unit(1.0, x0, 0.0, 1.0))
    return HGeodesic(_unit(x0, -1.0, 1.0, 0.0))


def circle_geodesic(c, r, rightward=True):
    """The half-circle of centre c and radius r, with s = 0 at its top."""
    if r <= 0.0:
        raise ValueError("circle radius must be positive")
    if rightward:
        return HGeodesic(_unit(c + r, c - r, 1.0, 1.0))
    return HGeodesic(_unit(c - r, -c - r, 1.0, -1.0))


def geodesic_through(p, q):
    """The geodesic through two distinct points, oriented p -> q, s=0 at p."""
    return HGeodesic(_frame_through(p, q))


def geodesic_from_direction(p, u):
    """The geodesic through the base of u in the direction of u, s=0 there."""
    if u.dx == 0.0 and u.dy == 0.0:
        raise DegenerateConfigurationError("zero tangent vector has no direction")
    c, s = _half_turn(complex(u.dy, -u.dx))
    return HGeodesic(_unit(*_shifted(p.x, *_turned(math.sqrt(p.y), c, s))))


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
    C = 2cd.  One call costs a cosh, a sinh and about ten flops, and
    returns the four entries.  They are not renormalized by ``_unit``,
    since their determinant is cosh^2 - sinh^2 = 1 by construction, and
    dividing by a rounded determinant, whose error grows like
    eps (|ad| + |bc|), would amplify their rounding by the square of
    their size.
    """
    if not math.isfinite(t):
        raise ValueError(f"translation length must be finite (t={t!r})")
    a, b, c, d = g.frame
    A, B, C = a * d + b * c, -2.0 * a * b, 2.0 * c * d
    ch, sh = math.cosh(0.5 * t), math.sinh(0.5 * t)
    return ch + sh * A, sh * B, sh * C, ch - sh * A


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


def geodesics(poly):
    """The geodesic carrying each side of the polygon, in side order."""
    return tuple(poly.side_geodesic(i) for i in range(1, poly.n + 1))


# ---------------------------------------------------------------------------
# dense references


def tangent_u(poly: MarkedRightPolygon, i: int) -> np.ndarray:
    """The moduli-space tangent vector u_i of ``polygons._tangent_entries``
    as a dense vector, whose sums ``proportionality_check`` reads off its
    four nonzeros."""
    n = poly.n
    k = _side_index(i, n)
    v = np.zeros(n)
    v[k] = 1.0
    v[[k - 1, (k + 1) % n, (k + 2) % n]] = _tangent_entries(poly.sides[k],
                                                             poly.sides[(k + 1) % n])
    return v


def hessian_matrix(cfg: ChordConfig) -> np.ndarray:
    """The ``(n+2) x (n+2)`` kernel matrix ``H`` of the second variation,
    the dense O(n^2) form of ``hessian.hessian_split``.

    Slots ``0..n-1`` are the crossings in chord order, slot ``n`` is ``p``
    and slot ``n+1`` is ``q``, so ``x^T H x / sinh(L)`` with
    ``x = (sin(theta_1) a_1, ..., sin(theta_n) a_n, u_perp, v_perp)`` is
    the full second derivative of the chord length.  Entries are
    ``cosh(s_min) cosh(L - s_max)`` over the positions ``(s..., 0, L)``,
    with the ``p`` slot negated (the ``hessian`` module docstring says
    why).  A chord longer than ``hessian.MAX_CHORD_LENGTH`` raises
    ``DegenerateConfigurationError``.
    """
    _check_length(cfg)
    n = cfg.n
    L = cfg.length
    t = np.concatenate((cfg.s, [0.0, L]))
    H = np.cosh(np.minimum.outer(t, t)) * np.cosh(L - np.maximum.outer(t, t))
    H[n, :] *= -1.0
    H[:, n] *= -1.0
    return H


# ---------------------------------------------------------------------------
# the finite-difference oracle of a hessian scene

FD_STEP = 1e-4

# How far one finite-difference step may move the scene: a total rate r
# with FD_STEP r beyond it is stepped by _FD_REACH / r instead.
_FD_REACH = 1e-2


def fd_steps(scene):
    """The steps ``(h_s, h_e)`` in ``shear_t`` and ``end_t``.

    Each is ``FD_STEP`` unless its total rate r, the sum of ``|a_i|``
    for the shear and of the endpoint speeds ``|u| + |v|`` for the
    endpoints, has ``FD_STEP r`` above ``_FD_REACH``; then it is
    ``_FD_REACH / r``.  So no step moves the scene by more than
    ``_FD_REACH`` in all, and the truncation error stays
    O(_FD_REACH^2) relative to the output's scale r^2 however many
    crossings share the motion.  A total rate with ``FD_STEP r`` beyond
    ``MAX_CHORD_LENGTH`` is outside the differences' range and raises
    DegenerateConfigurationError.
    """
    ev = scene.endpoints
    return (_fd_step(math.fsum(map(abs, scene.weights.weights.tolist())), "shear rates"),
            _fd_step(math.hypot(ev.u_perp, ev.u_par) + math.hypot(ev.v_perp, ev.v_par),
                     "endpoint speeds"))


def _fd_step(r, what):
    if FD_STEP * r <= _FD_REACH:
        return FD_STEP
    if FD_STEP * r > hessian.MAX_CHORD_LENGTH:
        raise DegenerateConfigurationError(
            f"{what} sum to {r!r}, beyond the oracle's range: a step of "
            f"FD_STEP moves the scene by {FD_STEP * r!r}")
    return _FD_REACH / r


def shear_chain(length, s, theta, weights, t):
    """The chord's far end sheared by ``t``, ``M(t)`` in the chord's frame
    (``p = i``, ``q = D(L) i``, ``D(x) = diag(e^{x/2}, e^{-x/2})``), as
    entries ``(a, b, c, d)``: the sheared ``q`` is ``M(t) i``.

    The shear by ``x = t a`` along the leaf at ``(s, theta)`` is
    ``D(s) (I + E) D(-s)``, ``E = (cosh - 1) I + sinh X`` at ``x/2`` with
    ``X = [[cos theta, -sin theta], [-sin theta, -cos theta]]``, so
    ``M = D(s_1) K_1 D(s_2 - s_1) ... K_n D(L - s_n)`` with ``K = I + E``.
    The loop carries the difference ``Psi_i = D(-s_{i+1}) P_i - I`` of
    the first ``i`` steps ``P_i`` from ``D``: ``Psi_0 = 0``,
    ``Psi_i = D(-g) (Psi_{i-1} K_i + E_i) D(g)`` for the gap
    ``g = s_{i+1} - s_i`` (``s_{n+1} = L``), and ``M = D(L) (I + Psi_n)``.
    So each step rounds relative to ``Psi = O(t)``, not to entries of
    size ``e^{s/2}``; ``cosh - 1`` is ``2 sinh^2(x/4)``.  An overflow
    leaves a non-finite entry.
    """
    a = b = c = d = 0.0  # Psi
    if t != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            half = (0.5 * t) * weights
            sh, ch1 = np.sinh(half), 2.0 * np.sinh(0.5 * half) ** 2
            cs, e12 = sh * np.cos(theta), sh * -np.sin(theta)
            e11, e22 = ch1 + cs, ch1 - cs
            g = np.exp(np.concatenate((s[1:], (length,))) - s)
            steps = (1.0 + e11, 1.0 + e22, e11, e12, e22, g)
        for k11, k22, e11, e12, e22, g in zip(*(v.tolist() for v in steps)):
            a, b, c, d = (a * k11 + b * e12 + e11,
                          (a * e12 + b * k22 + e12) / g,
                          (c * k11 + d * e12 + e12) * g,
                          c * e12 + d * k22 + e22)
    e = math.exp(0.5 * length)
    return e * (1.0 + a), e * b, c / e, (1.0 + d) / e


def endpoint_frames(ev, t):
    """The frames ``(E_p, E_q)``, as entries, that move ``p`` and ``q``
    by ``t`` along their variation vectors ``w`` to ``E(i)``:
    ``E = R(phi) D(t |w|)`` with ``R(phi)`` as
    ``hessian._endpoint_turns`` builds it.  With ``R(phi) = (a, b, c, d)``
    and ``x = t |w| / 2``, ``E`` is ``(a e^x, b e^-x, c e^x, d e^-x)``.
    An overflow raises DegenerateConfigurationError."""
    frames = []
    for dx, dy in ((-ev.u_perp, -ev.u_par), (-ev.v_perp, ev.v_par)):
        x = 0.5 * t * math.hypot(dx, dy)
        if x == 0.0:
            frames.append(_IDENTITY)
            continue
        try:
            e, ei = math.exp(x), math.exp(-x)
            a, b, c, d = _unit(*_turned(1.0, *_half_turn(complex(dy, -dx))))
        except OverflowError as exc:
            raise DegenerateConfigurationError(
                f"endpoint moved {t!r} x {math.hypot(dx, dy)!r} overflows") from exc
        frames.append((a * e, b * ei, c * e, d * ei))
    return frames


def measure_scene(scene):
    """The realized ``(length, s, theta)`` of a scene: ``halfplane.dist``
    of its endpoints, and each leaf measured by ``hessian._measure_leaf``
    in the chord's frame, ``s`` and ``theta`` as float64 arrays.  Raises
    DegenerateConfigurationError if a leaf misses the chord."""
    chord = _frame_through(scene.p, scene.q)
    s, theta = [], []
    for i, row in enumerate(scene.leaves):
        measured = hessian._measure_leaf(*_relative(chord, *row))
        if measured is None:
            raise DegenerateConfigurationError(f"leaf {i} does not cross the chord")
        s.append(measured[0])
        theta.append(math.atan2(measured[2], measured[1]))
    return dist(scene.p, scene.q), np.array(s), np.array(theta)


def scene_length(scene, shear_t, end_t):
    """Deformed chord length: endpoints moved a parameter ``end_t``
    along their variation vectors, the far side of each leaf sheared by
    ``shear_t`` times its weight (leaves composed from ``q`` inward, so
    the leaf nearest ``p`` acts last), walked in the chord's frame from
    the measured ``(length, s, theta)``: the distance from ``E_p(i)`` to
    ``M E_q(i)``, with ``4 sinh^2(d/2) = (A - D)^2 + (B + C)^2`` for
    ``[[A, B], [C, D]] = E_p^-1 M E_q`` of determinant one.

    Raises ValueError if ``shear_t`` or ``end_t`` is not finite, and
    DegenerateConfigurationError if a leaf misses the chord or the
    deformed chord overflows.
    """
    if not (math.isfinite(shear_t) and math.isfinite(end_t)):
        raise ValueError(f"deformation parameters must be finite "
                         f"(shear_t={shear_t!r}, end_t={end_t!r})")
    length, s, theta = measure_scene(scene)
    ep, eq = endpoint_frames(scene.endpoints, end_t)
    m = shear_chain(length, s, theta, scene.weights.weights, shear_t)
    A, B, C, D = _product(_relative(ep, *m), *eq)
    dist = 2.0 * math.asinh(0.5 * math.hypot(A - D, B + C))
    if not math.isfinite(dist):
        raise DegenerateConfigurationError(
            f"the deformed chord length {dist!r} is not a finite float")
    return dist


def fd_grid(scene):
    """Refuse a scene whose ``measure_scene`` is more than 1e-10 from
    ``scene.cfg`` in the length or a crossing position or angle with
    InconsistentSceneError, as ``hessian.fd_oracle`` does, then evaluate
    the 3 x 3 grid ``{(i, j): scene_length(scene, i * h_s, j * h_e)}``
    for ``i, j`` in ``(-1, 0, 1)`` and the steps ``fd_steps(scene)``."""
    length, s, theta = measure_scene(scene)
    cfg = scene.cfg
    if not (abs(length - cfg.length) <= 1e-10 and (np.abs(s - cfg.s) <= 1e-10).all()
            and (np.abs(theta - cfg.theta) <= 1e-10).all()):
        raise InconsistentSceneError(f"scene measured at {(length, s, theta)!r} "
                                     f"is not its config {cfg!r}")
    hs, he = fd_steps(scene)
    return {(i, j): scene_length(scene, i * hs, j * he)
            for i in (-1, 0, 1) for j in (-1, 0, 1)}


def fd_differences(scene, order):
    """``hessian.fd_oracle`` by central differences of ``fd_grid``:
    ``order == 1`` gives ``(d_shear, d_endpoints)`` and ``order == 2``
    ``(shear2, mixed, end2)``, each truncated at O((h r)^2) relative to
    its scale for the step h and total rate r of ``fd_steps``."""
    grid = fd_grid(scene)
    hs, he = fd_steps(scene)
    if order == 1:
        d_shear = (grid[1, 0] - grid[-1, 0]) / (2.0 * hs)
        d_end = (grid[0, 1] - grid[0, -1]) / (2.0 * he)
        return d_shear, d_end
    shear2 = (grid[1, 0] - 2.0 * grid[0, 0] + grid[-1, 0]) / (hs * hs)
    end2 = (grid[0, 1] - 2.0 * grid[0, 0] + grid[0, -1]) / (he * he)
    mixed = (grid[1, 1] - grid[1, -1] - grid[-1, 1] + grid[-1, -1]) / (4.0 * hs * he)
    return shear2, mixed, end2
