"""Closed-form first and second variation of geodesic-arc length under
transverse shears and endpoint motion.

The configuration is a geodesic chord of length ``L`` from ``p`` to
``q`` crossed transversally by finitely many complete geodesic leaves.
Leaf ``i`` meets the chord at arclength ``s_i`` (measured from ``p``)
at an angle ``theta_i``, taken in ``(0, pi)`` counterclockwise from the
forward chord direction, so every leaf's forward ray leaves the chord
on its left.  Shearing along leaf ``i`` at rate ``a_i`` translates
everything beyond the leaf (as seen from ``p``) along it; endpoints may
move simultaneously with tangent vectors ``u`` at ``p`` and ``v`` at
``q``.

The crossing data lives in arrays, not in one object per crossing:
``ChordConfig`` holds ``s`` and ``theta``, and ``TransverseWeights`` the
rates ``a``, as read-only float64 arrays in chord order, validated once,
and a realized ``HalfplaneScene`` holds its leaves as one (n, 4) array
of frame entries.  ``fd_oracle`` measures a scene in O(1) numpy calls,
then walks the chord in its own frame: one float loop from ``p`` to
``q`` carries the 2 x 2 matrix chains of both shear steps ``+h`` and
``-h``, so it rounds relative to the chord, not to half-plane
coordinates of size ``e^L``.  Its checked 3 x 3 grid of deformed
lengths is memoized on the immutable scene.

Endpoint components use one parallel frame along the oriented chord:
``u_par`` and ``v_par`` point outward (away from the other endpoint),
while ``u_perp`` and ``v_perp`` are both taken against the quarter-turn
of the *forward* chord direction -- toward ``q`` at ``p``, away from
``p`` at ``q`` -- so the two perpendicular axes sit on the same (left)
side of the chord, like the leaves.

The second variation is the minimal energy ``int(xi'^2 + xi^2)`` over
perpendicular displacement fields ``xi`` along the chord with boundary
values ``u_perp``, ``v_perp`` and a prescribed jump ``sin(theta_i) a_i``
at each crossing.  Solving the piecewise ``xi'' = xi`` problem turns
that energy into an explicit quadratic form whose kernel matrix is the
Green's kernel of ``-d^2/ds^2 + 1`` on ``[0, L]`` sampled at all marked
points (crossings and endpoints), conjugated by a sign flip on the
``p`` slot: shears displace only the far segment of the chord, so they
co-operate with motion at ``q`` and work against motion at ``p``.  The
Gram structure makes the matrix positive definite outright.  Every
formula in this module is pinned against ``fd_oracle``, the
finite-difference channel that deforms an actual half-plane realization
of the scene and differentiates the resulting distances numerically.

The kernel ``cosh(s_<) cosh(L - s_>)`` is semiseparable, so
``hessian_form`` and ``hessian_split`` evaluate the form as one prefix
sum, O(n) numpy work, without building it; ``hessian_margin`` is O(n)
too.  ``hessian_matrix`` builds the dense O(n^2) kernel only as the
reference for tests and eigenvalue checks.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import halfplane
from .errors import (DegenerateConfigurationError, DegenerateMarginError,
                     InconsistentSceneError, SystolicaError, _real_floats)
from .halfplane import _frame_at, _frame_through, _half_turn, _product, _relative, _unit

__all__ = [
    "ChordConfig",
    "TransverseWeights",
    "EndpointVariation",
    "MarginReport",
    "HalfplaneScene",
    "first_derivatives",
    "hessian_matrix",
    "hessian_form",
    "hessian_split",
    "hessian_margin",
    "realize_scene",
    "scene_length",
    "fd_oracle",
    "FD_STEP",
    "MAX_CHORD_LENGTH",
    "scene_to_json",
    "scene_from_json",
]


def _readonly_vector(values, what: str) -> np.ndarray:
    # a private float64 copy, so no caller can change a validated config
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "biuf"):
        values = _real_floats(values, what)
    a = np.array(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"{what} must be a 1-D sequence of numbers")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ChordConfig:
    """A chord of length ``length`` with ordered transverse crossings.

    Crossing ``i`` sits at arclength ``s[i]`` from ``p`` and meets the
    chord at angle ``theta[i]`` in ``(0, pi)``, measured counterclockwise
    from the forward chord direction.  Both are stored as read-only 1-D
    float64 arrays.

    Raises
    ------
    ValueError
        If a value is not a number (a string, None or an integer beyond
        the float range), the length is not positive and finite, ``s`` and
        ``theta`` differ in shape, a crossing sits outside the open chord, the
        crossings are not strictly increasing in ``s``, or an angle leaves
        ``(0, pi)``.  NaN fails every one of these tests.  The message
        names the first bad crossing.
    """

    length: float
    s: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        L, = _real_floats((self.length,), "chord length")
        if not (math.isfinite(L) and L > 0):
            raise ValueError("chord length must be positive and finite")
        s = _readonly_vector(self.s, "crossing positions")
        theta = _readonly_vector(self.theta, "crossing angles")
        if s.shape != theta.shape:
            raise ValueError(
                f"{s.size} crossing positions but {theta.size} angles")
        # diff([0, s..., L]) > 0, written so that crossing i owns the test
        placed = (s > np.concatenate(([0.0], s[:-1]))) & (s < L)
        angled = (theta > 0.0) & (theta < math.pi)
        ok = placed & angled
        if not ok.all():
            i = int(ok.argmin())
            if not placed[i]:
                raise ValueError(f"crossing {i} at s={s[i].item()!r} outside "
                                 "the chord or out of order")
            raise ValueError(
                f"crossing {i} angle {theta[i].item()!r} outside (0, pi)")
        object.__setattr__(self, "length", L)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return len(self.s)


@dataclass(frozen=True, eq=False)
class TransverseWeights:
    """Shear rates, one per crossing of the configuration, stored as a
    read-only 1-D float64 array.  A rate that is not a finite number
    raises ValueError."""

    weights: np.ndarray

    def __post_init__(self):
        w = _readonly_vector(self.weights, "shear weights")
        if not np.isfinite(w).all():
            raise ValueError("shear weights must be finite")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class EndpointVariation:
    """Endpoint velocities in the chord frame described in the module
    docstring; all four default to zero and are stored as floats.  A
    component that is not a finite number raises ValueError."""

    u_perp: float = 0.0
    u_par: float = 0.0
    v_perp: float = 0.0
    v_par: float = 0.0

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        values = _real_floats([getattr(self, k) for k in names],
                              "endpoint components")
        for name, v in zip(names, values):
            if not math.isfinite(v):
                raise ValueError(f"endpoint component {name} must be finite")
            object.__setattr__(self, name, v)


ZERO_ENDPOINTS = EndpointVariation()


def _check_weights(cfg: ChordConfig, weights: TransverseWeights) -> None:
    if len(weights.weights) != cfg.n:
        raise ValueError(
            f"{len(weights.weights)} weights for {cfg.n} crossings")


# The longest chord whose sinh(L) and cosh(L) are finite floats.
MAX_CHORD_LENGTH = math.asinh(sys.float_info.max)


def _check_length(cfg: ChordConfig) -> None:
    if cfg.length > MAX_CHORD_LENGTH:
        raise DegenerateConfigurationError(
            f"chord length {cfg.length!r} exceeds {MAX_CHORD_LENGTH!r}, "
            "beyond which sinh(L) overflows")


def first_derivatives(cfg: ChordConfig, weights: TransverseWeights,
                      endpoints: EndpointVariation = ZERO_ENDPOINTS,
                      ) -> tuple[float, float]:
    """First variation of the chord length, split into its two sources.

    Returns
    -------
    (d_metric, d_endpoints)
        ``d_metric`` is the shear part ``sum(a_i * cos(theta_i))``;
        ``d_endpoints`` is ``u_par + v_par``, the outward components of
        the endpoint velocities.  The total derivative is their sum.
    """
    _check_weights(cfg, weights)
    # sin(pi/2 - theta) is cos(theta), exactly 0 at a perpendicular crossing
    d_metric = float(weights.weights @ np.sin(0.5 * math.pi - cfg.theta))
    return d_metric, endpoints.u_par + endpoints.v_par


def hessian_matrix(cfg: ChordConfig) -> np.ndarray:
    """The ``(n+2) x (n+2)`` kernel matrix ``H`` of the second variation.

    Slots ``0..n-1`` are the crossings in chord order; slot ``n`` is the
    ``p`` endpoint and slot ``n+1`` the ``q`` endpoint.  The quadratic
    form ``x^T H x / sinh(L)`` with
    ``x = (sin(theta_1) a_1, ..., sin(theta_n) a_n, u_perp, v_perp)``
    is the full second derivative of the chord length.

    Crossing-crossing entries are ``cosh(s_min) cosh(L - s_max)``; the
    ``p`` row carries ``-cosh(L - s_i)`` and the ``q`` row
    ``+cosh(s_i)``, with ``cosh(L)`` on the endpoint diagonal and ``-1``
    in the corner.  The sign asymmetry between the endpoint rows comes
    from the shear jumps displacing only the far segment of the chord,
    so they co-operate with the ``q`` endpoint and work against ``p``.
    Negating the ``p`` slot turns the matrix into the Green's kernel of
    ``-d''+1`` on ``[0, L]`` sampled at all crossing and endpoint
    positions, which is a Gram matrix: the form is positive definite.

    The matrix costs O(n^2) time and memory.  It is the dense reference
    for tests and eigenvalue checks; ``hessian_form`` and
    ``hessian_split`` evaluate the same form in O(n) without it.  Like
    them it raises ``DegenerateConfigurationError`` for a chord longer
    than ``MAX_CHORD_LENGTH``.
    """
    _check_length(cfg)
    n = cfg.n
    L = cfg.length
    t = np.concatenate((cfg.s, [0.0, L]))
    H = np.cosh(np.minimum.outer(t, t)) * np.cosh(L - np.maximum.outer(t, t))
    H[n, :] *= -1.0
    H[:, n] *= -1.0
    return H


def hessian_form(cfg: ChordConfig, weights: TransverseWeights,
                 endpoints: EndpointVariation = ZERO_ENDPOINTS) -> float:
    """Second derivative of the chord length for a joint shear/endpoint
    variation, evaluated in closed form.

    This is ``shear2 + 2 * mixed + end2`` from ``hessian_split``: O(n)
    numpy work, without building ``hessian_matrix``.
    """
    shear2, mixed, end2 = hessian_split(cfg, weights, endpoints)
    return shear2 + 2.0 * mixed + end2


def hessian_split(cfg: ChordConfig, weights: TransverseWeights,
                  endpoints: EndpointVariation = ZERO_ENDPOINTS,
                  ) -> tuple[float, float, float]:
    """The quadratic form split by deformation source.

    Returns ``(shear2, mixed, end2)``: the form restricted to the shear
    weights alone, the bilinear coupling between shears and endpoint
    motion, and the form of the endpoint motion alone, each already
    carrying the ``1/sinh(L)`` prefactor.  The joint second derivative
    is ``shear2 + 2 * mixed + end2``, matching the layout of
    ``fd_oracle(scene, order=2)``.

    With ``x_i = sin(theta_i) a_i``, ``c_i = cosh(s_i)`` and
    ``d_i = cosh(L - s_i)``, the kernel's crossing block is
    ``c_min(i,j) d_max(i,j)``, so

    ``shear2 = sum_j x_j d_j (x_j c_j + 2 sum_{i<j} x_i c_i)``,

    one prefix sum over the crossings in chord order.  The endpoint
    rows are ``-d`` and ``c``, so ``mixed = -u_perp (x.d) + v_perp (x.c)``
    and ``end2 = cosh(L)(u_perp^2 + v_perp^2) - 2 u_perp v_perp``.  The
    cost is O(n) numpy work; no ``(n+2) x (n+2)`` matrix is built.

    ``c`` and ``d`` are finite for every admitted ``L``, but a product
    ``c_i d_j`` overflows once ``L + s_i - s_j`` passes about 709.  So
    ``x`` carries a factor ``h = e^{-L/2}``: each scaled product
    ``x_i c_i h x_j d_j h`` with ``i <= j`` is about
    ``x_i x_j e^{s_i - s_j} / 4``, and the prefactors become ``1/(sinh(L) h^2)`` and ``1/(sinh(L) h)``,
    so the form stays finite up to ``MAX_CHORD_LENGTH``.

    Raises
    ------
    DegenerateConfigurationError
        If the chord is longer than ``MAX_CHORD_LENGTH``, where
        ``sinh(L)`` leaves the float range.
    """
    _check_weights(cfg, weights)
    _check_length(cfg)
    L = cfg.length
    h = math.exp(-0.5 * L)
    scale = math.sinh(L)
    x = np.sin(cfg.theta) * weights.weights * h
    xc = x * np.cosh(cfg.s)
    xd = x * np.cosh(L - cfg.s)
    shear2 = float(xc @ xd) + 2.0 * float(xd[1:] @ np.cumsum(xc)[:-1])
    u, v = endpoints.u_perp, endpoints.v_perp
    mixed = v * float(xc.sum()) - u * float(xd.sum())
    end2 = math.cosh(L) * (u * u + v * v) - 2.0 * u * v
    return shear2 / (scale * h * h), mixed / (scale * h), end2 / scale


@dataclass(frozen=True)
class MarginReport:
    """Separation margins of the marked points on the chord.

    ``epsilons[i]`` is the distance from crossing ``i`` to its nearest
    neighbour among the other crossings and both endpoints; ``eps_p``
    and ``eps_q`` are the end gaps.  Each is one rounded difference of
    two stored positions, so it is correct to half an ulp and strictly
    positive for any valid configuration.
    """

    epsilons: tuple[float, ...]
    eps_p: float
    eps_q: float


def hessian_margin(cfg: ChordConfig) -> MarginReport:
    """Separation margins of the marked points: how far each crossing
    is from its nearest neighbour and how far the outer crossings are
    from the endpoints.

    The crossings are sorted, so a crossing's nearest marked point is
    one of its two neighbours: ``epsilons`` is the smaller of the two
    adjacent gaps in ``diff([0, s_1, ..., s_n, L])``, O(n) numpy work.
    The report is no bound on the quadratic form; use the eigenvalues of
    ``hessian_matrix`` for quantitative positivity.

    Raises
    ------
    DegenerateMarginError
        If the configuration has no crossings (there is no gap
        structure to report).
    """
    if cfg.n == 0:
        raise DegenerateMarginError("no crossings: nothing to separate")
    gaps = np.diff(np.concatenate(([0.0], cfg.s, [cfg.length])))
    eps = np.minimum(gaps[:-1], gaps[1:])
    return MarginReport(epsilons=tuple(eps.tolist()),
                        eps_p=float(gaps[0]), eps_q=float(gaps[-1]))


# ---------------------------------------------------------------------------
# explicit half-plane scenes and the finite-difference oracle

@dataclass(frozen=True, eq=False)
class HalfplaneScene:
    """A chord configuration realized as actual half-plane geometry.

    Carries both the abstract data (``cfg``, ``weights``, ``endpoints``)
    and its geometric realization: the endpoints ``p``, ``q`` and one
    complete geodesic per crossing.  ``leaves`` is one read-only (n, 4)
    float64 array: row ``i`` holds the entries ``(a, b, c, d)`` of the
    frame of leaf ``i``, the matrix taking the upward imaginary axis onto
    the leaf as in ``halfplane.HGeodesic``, normalized to determinant one
    as ``halfplane.HIsometry`` is.  ``fd_oracle`` re-measures the geometry,
    refuses a scene that drifted from its configuration, and walks it.

    A scene is immutable: the dataclass is frozen, ``cfg`` and
    ``weights`` hold read-only arrays, and ``p``, ``q`` and ``leaves``
    are private copies taken here.  The private ``_grid`` memo holds the
    nine deformed lengths ``fd_oracle`` needs once ``_checked_grid`` has
    computed them, and ``_steps`` the two steps they were taken at; a
    check, step or grid that raises leaves them empty.

    Raises
    ------
    ValueError
        If ``weights`` or the rows of ``leaves`` are not one per crossing
        of ``cfg`` (the message names both counts), ``leaves`` is not an
        (n, 4) array, or a row has a non-finite entry or a determinant
        that is not positive and finite, when the message names the first
        bad leaf.
    """

    cfg: ChordConfig
    weights: TransverseWeights
    endpoints: EndpointVariation
    p: "halfplane.HPoint"
    q: "halfplane.HPoint"
    leaves: np.ndarray

    def __post_init__(self):
        _check_weights(self.cfg, self.weights)
        rows = np.array(self.leaves, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise ValueError("leaves must be an (n, 4) array of frame entries")
        if len(rows) != self.cfg.n:
            raise ValueError(f"{len(rows)} leaves for {self.cfg.n} crossings")
        a, b, c, d = rows.T
        det = a * d - b * c  # not finite if any entry is not
        ok = np.isfinite(det) & (det > 0.0)
        if not ok.all():
            i = int(ok.argmin())
            raise ValueError(f"leaf {i} frame {rows[i].tolist()!r} is not "
                             "finite with positive determinant")
        rows /= np.sqrt(det)[:, None]
        rows.setflags(write=False)
        object.__setattr__(self, "leaves", rows)
        object.__setattr__(self, "p", halfplane.HPoint(self.p.x, self.p.y))
        object.__setattr__(self, "q", halfplane.HPoint(self.q.x, self.q.y))

    @functools.cached_property
    def _grid(self):
        # cached_property stores only a returned value: a scene whose
        # check or grid raises raises again on the next access
        return _checked_grid(self)

    @functools.cached_property
    def _steps(self):
        return _fd_steps(self)


def realize_scene(cfg: ChordConfig, weights: TransverseWeights,
                  endpoints: EndpointVariation = ZERO_ENDPOINTS,
                  ) -> HalfplaneScene:
    """Place the configuration on the imaginary axis: ``p = i``,
    ``q = i e^L``, leaf ``i`` through ``i e^{s_i}`` rotated by
    ``theta_i`` from the upward direction.

    The frame of a leaf is ``halfplane._frame_at`` at ``x = 0``,
    ``r = e^{s/2}``, turned by ``theta``.  All ``n`` rows come from one
    numpy pass, O(1) numpy calls.

    Raises
    ------
    DegenerateConfigurationError
        If ``e^L`` is not a float (``L`` above about 709.78), so that
        ``q`` cannot be placed.
    """
    _check_weights(cfg, weights)
    try:
        top = math.exp(cfg.length)
    except OverflowError:
        raise DegenerateConfigurationError(
            f"chord length {cfg.length!r}: q = i e^L is not a float") from None
    half = 0.5 * cfg.theta
    leaves = np.stack(_frame_at(0.0, np.exp(0.5 * cfg.s), np.cos(half), np.sin(half)), axis=1)
    return HalfplaneScene(cfg=cfg, weights=weights, endpoints=endpoints,
                          p=halfplane.HPoint(0.0, 1.0),
                          q=halfplane.HPoint(0.0, top), leaves=leaves)


def _shear_chains(length: float, s, theta, weights, t: float):
    """The chord's far end sheared by ``t`` and by ``-t``, the pair
    ``(M(t), M(-t))`` in the chord's frame (``p = i``, ``q = D(L) i``,
    ``D(x) = diag(e^{x/2}, e^{-x/2})``), each as entries ``(a, b, c, d)``:
    the sheared ``q`` is ``M(t) i``.

    The shear by ``x = t a`` along the leaf at ``(s, theta)`` is
    ``D(s) (I + E) D(-s)``, ``E = (cosh - 1) I + sinh X`` at ``x/2`` with
    ``X = [[cos theta, -sin theta], [-sin theta, -cos theta]]``, so
    ``M = D(s_1) K_1 D(s_2 - s_1) ... K_n D(L - s_n)`` with ``K = I + E``.
    The loop carries the difference ``Psi_i = D(-s_{i+1}) P_i - I`` of
    the first ``i`` steps ``P_i`` from ``D``: ``Psi_0 = 0``,
    ``Psi_i = D(-g) (Psi_{i-1} K_i + E_i) D(g)`` for the gap
    ``g = s_{i+1} - s_i`` (``s_{n+1} = L``), and ``M = D(L) (I + Psi_n)``.
    So each step rounds relative to ``Psi = O(t)``, not to entries of
    size ``e^{s/2}``; ``cosh - 1`` is ``2 sinh^2(x/4)``.

    sinh is odd and ``2 sinh^2(x/4)`` even, both exactly so in floats,
    so ``E`` at ``-t`` is ``E`` at ``t`` with ``e11`` and ``e22``
    swapped and ``e12`` negated; the loop carries the ``-t`` difference
    beside the ``+t`` one from the same step values, each sum written
    with the negated terms subtracted, which rounds exactly as a walk
    at ``-t`` would.  O(1) numpy calls and one ``n``-step float loop
    for both signs, none at ``t == 0``.  An overflow leaves a non-finite
    entry.
    """
    a = b = c = d = am = bm = cm = dm = 0.0  # Psi at +t, then at -t
    if t != 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            half = (0.5 * t) * weights
            sh, ch1 = np.sinh(half), 2.0 * np.sinh(0.5 * half) ** 2
            cs, e12 = sh * np.cos(theta), sh * -np.sin(theta)
            e11, e22 = ch1 + cs, ch1 - cs
            g = np.exp(np.concatenate((s[1:], (length,))) - s)
            steps = (1.0 + e11, 1.0 + e22, e11, e12, e22, g)
        for k11, k22, e11, e12, e22, g in zip(*(v.tolist() for v in steps)):
            a, b, c, d, am, bm, cm, dm = (
                a * k11 + b * e12 + e11,
                (a * e12 + b * k22 + e12) / g,
                (c * k11 + d * e12 + e12) * g,
                c * e12 + d * k22 + e22,
                am * k22 - bm * e12 + e22,
                (bm * k11 - am * e12 - e12) / g,
                (cm * k22 - dm * e12 - e12) * g,
                dm * k11 - cm * e12 + e11)
    e = math.exp(0.5 * length)
    return _far_end(e, a, b, c, d), _far_end(e, am, bm, cm, dm)


def _far_end(e: float, a=0.0, b=0.0, c=0.0, d=0.0):
    """Entries of ``D(L) (I + Psi)`` for ``e = e^{L/2}`` and
    ``Psi = (a, b, c, d)``: the chain's far end, ``D(L)`` at ``Psi = 0``."""
    return e * (1.0 + a), e * b, c / e, (1.0 + d) / e


_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _endpoint_frames(ev: EndpointVariation, t: float):
    """The pairs ``(E_p, E_q)`` at ``t`` and at ``-t``: the frames
    ``E = R(phi) D(t |w|)``, as entries, that move ``p`` and ``q`` by
    ``t`` along their variation vectors ``w`` to ``E(i)``.  In the
    chord's frame at either end the chord runs up the imaginary axis
    through ``i`` (left is -x; outward is -y at ``p``, +y at ``q``), and
    ``R(phi)``, ``halfplane._frame_at`` at ``i`` normalized by ``_unit``,
    turns "up" onto ``w``.  With ``R(phi) = (a, b, c, d)`` and
    ``x = t |w| / 2``, ``E(t)`` is ``(a e^x, b e^-x, c e^x, d e^-x)`` and
    ``E(-t)`` the same with ``e^x`` and ``e^-x`` swapped, so one rotation
    and one exp pair per endpoint give both.  An overflow at either sign
    raises DegenerateConfigurationError."""
    plus, minus = [], []
    for dx, dy in ((-ev.u_perp, -ev.u_par), (-ev.v_perp, ev.v_par)):
        x = 0.5 * t * math.hypot(dx, dy)
        if x == 0.0:
            plus.append(_IDENTITY)
            minus.append(_IDENTITY)
            continue
        try:
            e, ei = math.exp(x), math.exp(-x)
            a, b, c, d = _unit(*_frame_at(0.0, 1.0, *_half_turn(complex(dy, -dx))))
        except OverflowError as exc:
            raise DegenerateConfigurationError(
                f"endpoint moved +-{t!r} x {math.hypot(dx, dy)!r} overflows") from exc
        plus.append((a * e, b * ei, c * e, d * ei))
        minus.append((a * ei, b * e, c * ei, d * e))
    return tuple(plus), tuple(minus)


def _chord_distance(ep, m, eq) -> float:
    """The distance from ``E_p(i)`` to ``M E_q(i)``: for
    ``[[A, B], [C, D]] = E_p^-1 M E_q`` of determinant one,
    ``4 sinh^2(d/2) = (A - D)^2 + (B + C)^2``.  A distance that is not
    finite raises DegenerateConfigurationError."""
    A, B, C, D = _product(_relative(ep, *m), *eq)
    dist = 2.0 * math.asinh(0.5 * math.hypot(A - D, B + C))
    if not math.isfinite(dist):
        raise DegenerateConfigurationError(
            f"the deformed chord length {dist!r} is not a finite float")
    return dist


def scene_length(scene: HalfplaneScene, shear_t: float, end_t: float) -> float:
    """Deformed chord length: endpoints moved a parameter ``end_t``
    along their variation vectors, the far side of each leaf sheared by
    ``shear_t`` times its weight (leaves composed from ``q`` inward, so
    the leaf nearest ``p`` acts last).  The chord is walked in its own
    frame from the measured ``(length, s, theta)`` by the helpers of
    ``fd_oracle``'s grid: ``_shear_chains`` and ``_endpoint_frames``,
    which give the ``+t`` and ``-t`` members of a pair, of which this
    reads the first, and ``_chord_distance``.  That is O(1) numpy calls
    and one ``n``-step float loop.

    Raises
    ------
    ValueError
        If ``shear_t`` or ``end_t`` is not finite.
    DegenerateConfigurationError
        If a leaf misses the chord or the deformed chord overflows.
    """
    if not (math.isfinite(shear_t) and math.isfinite(end_t)):
        raise ValueError(f"deformation parameters must be finite "
                         f"(shear_t={shear_t!r}, end_t={end_t!r})")
    length, s, theta = _measure_scene(scene)
    ep, eq = _endpoint_frames(scene.endpoints, end_t)[0]
    m = _shear_chains(length, s, theta, scene.weights.weights, shear_t)[0]
    return _chord_distance(ep, m, eq)


def _measure_scene(scene: HalfplaneScene):
    """Re-derive the length and the crossing positions and angles from
    the realized geometry: ``(length, s, theta)``.

    Leaf ``i`` seen from the chord's frame (s = 0 at ``p``, as entries
    from ``halfplane._frame_through``) has the relative frame
    ``(a, b, c, d)`` and runs from ``b/d`` to ``a/c``; it crosses the
    chord iff ``abcd < 0``, on the circle ``|z|^2 = -(b/d)(a/c)``.
    Since ``ad - bc = 1`` and ``ad + bc = cos(theta)`` for a crossing
    leaf, ``abcd`` is formed as ``(ad)(bc)``, a product of two factors
    at most 1 in size, and the log of the crossing radius is taken
    through ``(a/c)(b/d) = abcd / (cd)^2`` as
    ``s = log(-abcd)/2 - log|c| - log|d|``: no quotient is formed, so
    ``s`` stays finite where ``e^{2s}``, ``a/c`` or ``b/d`` overflows and
    where ``cd`` underflows.  The angle is
    ``atan2(-2 sign(ac) sqrt(-abcd), ad + bc)``, free of cancellation and
    signed, so a leaf that crosses clockwise measures outside ``(0, pi)``.
    All ``n`` leaves cost O(1) numpy calls.

    Raises
    ------
    DegenerateConfigurationError
        If a leaf misses the chord; the message names the first one.
    """
    a, b, c, d = _relative(_frame_through(scene.p, scene.q), *scene.leaves.T)
    ad, bc = a * d, b * c
    minus_abcd = -(ad * bc)
    crossing = minus_abcd > 0.0
    if not crossing.all():
        raise DegenerateConfigurationError(
            f"leaf {int(crossing.argmin())} does not cross the chord")
    s = 0.5 * np.log(minus_abcd) - (np.log(np.abs(c)) + np.log(np.abs(d)))
    theta = np.arctan2(np.copysign(2.0 * np.sqrt(minus_abcd), -(a * c)), ad + bc)
    return halfplane.dist(scene.p, scene.q), s, theta


FD_STEP = 1e-4

# How far one finite-difference step may move the scene: a total rate r
# with FD_STEP r beyond it is stepped by _FD_REACH / r instead.
_FD_REACH = 1e-2


def _fd_steps(scene: HalfplaneScene) -> tuple[float, float]:
    """The oracle's steps ``(h_s, h_e)`` in ``shear_t`` and ``end_t``.

    Each is ``FD_STEP`` unless its total rate r, the sum of ``|a_i|``
    for the shear and of the endpoint speeds ``|u| + |v|`` for the
    endpoints, has ``FD_STEP r`` above ``_FD_REACH``; then it is
    ``_FD_REACH / r``.  So no step moves the scene by more than
    ``_FD_REACH`` in all, and the truncation error stays
    O(_FD_REACH^2) relative to the output's scale r^2 however many
    crossings share the motion.  A total rate with ``FD_STEP r`` beyond
    ``MAX_CHORD_LENGTH`` is outside the oracle's range and raises
    DegenerateConfigurationError.
    """
    ev = scene.endpoints
    return (_fd_step(math.fsum(map(abs, scene.weights.weights.tolist())), "shear rates"),
            _fd_step(math.hypot(ev.u_perp, ev.u_par) + math.hypot(ev.v_perp, ev.v_par),
                     "endpoint speeds"))


def _fd_step(r: float, what: str) -> float:
    if FD_STEP * r <= _FD_REACH:
        return FD_STEP
    if FD_STEP * r > MAX_CHORD_LENGTH:
        raise DegenerateConfigurationError(
            f"{what} sum to {r!r}, beyond the oracle's range: a step of "
            f"FD_STEP moves the scene by {FD_STEP * r!r}")
    return _FD_REACH / r


def _checked_grid(scene: HalfplaneScene) -> dict:
    """Check the scene against its configuration, then evaluate the
    3 x 3 grid ``{(i, j): scene_length(scene, i * h_s, j * h_e)}`` for
    ``i, j`` in ``(-1, 0, 1)`` and the steps ``scene._steps``.

    One ``_measure_scene`` (O(1) numpy calls), one ``_shear_chains`` for
    the chains at ``shear_t = +h_s, -h_s`` (O(1) numpy calls and one
    ``n``-step float loop for both), one ``_endpoint_frames`` for
    ``end_t = +h_e, -h_e`` and nine distances; at 0 the chain is ``D(L)``
    and the endpoint frames are the identity.  Each value is bit for bit
    what ``scene_length`` computes, whose walk at ``-t`` rounds as the
    pair's second member does.  ``HalfplaneScene._grid`` memoizes the
    result.
    """
    try:
        length, s, theta = _measure_scene(scene)
    except SystolicaError as exc:
        raise InconsistentSceneError(
            f"scene geometry is not a transverse chord configuration: {exc}"
        ) from exc
    cfg = scene.cfg
    if abs(length - cfg.length) > 1e-10:
        raise InconsistentSceneError(
            f"realized chord length {length!r} != {cfg.length!r}")
    # written as agreement so that a NaN measurement is refused too
    agree = (np.abs(s - cfg.s) <= 1e-10) & (np.abs(theta - cfg.theta) <= 1e-10)
    if not agree.all():
        i = int(agree.argmin())
        raise InconsistentSceneError(
            f"leaf {i} measured at (s={s[i].item()!r}, "
            f"theta={theta[i].item()!r}) but declared "
            f"(s={cfg.s[i].item()!r}, theta={cfg.theta[i].item()!r})")
    hs, he = scene._steps
    plus, minus = _shear_chains(length, s, theta, scene.weights.weights, hs)
    chains = {-1: minus, 0: _far_end(math.exp(0.5 * length)), 1: plus}
    plus, minus = _endpoint_frames(scene.endpoints, he)
    ends = {-1: minus, 0: (_IDENTITY, _IDENTITY), 1: plus}
    return {(i, j): _chord_distance(ends[j][0], chains[i], ends[j][1])
            for i in (-1, 0, 1) for j in (-1, 0, 1)}


def fd_oracle(scene: HalfplaneScene, order: int):
    """Differentiate the realized chord length numerically.

    ``order == 1`` returns ``(d_shear, d_endpoints)`` by central
    differences in each deformation parameter separately; ``order == 2``
    returns ``(shear2, mixed, end2)`` from the full 3 x 3 grid of
    deformations: the pure second derivatives along each parameter and
    the mixed partial, so the second derivative of the joint motion is
    ``shear2 + 2 * mixed + end2``.  Each grid value is exactly
    ``scene_length(scene, i * h_s, j * h_e)``.  The steps are
    ``FD_STEP`` unless a total rate r, the sum of the shear weights'
    or of the two endpoint speeds' sizes, has ``FD_STEP r`` above 1e-2;
    that step is then 1e-2 / r, so no step moves the scene by more than
    1e-2 in all.

    The first call on a scene checks it and evaluates the nine grid
    values (``_checked_grid``): O(1) numpy calls and one ``n``-step float
    loop, which walks the chains at both shear steps at once.  The scene
    memoizes them, so a later call of either order costs a lookup and a
    few flops and reads the same values.  Nothing that raises is memoized.

    The walk rounds in the chord's frame, not in half-plane coordinates
    of size ``e^L``: to first order a grid value ``d`` errs by at most
    (10 + d) eps, plus 32 eps coth(d/2) with moving endpoints, for any
    ``n`` with ``h_s sum|a|`` small, and an order-2 value by its
    truncation, O((h r)^2) relative to r^2, plus four such budgets over
    h^2 (see tests/test_hessian.py).  On s = (1, L/2, L - 1), theta = (1, 2, 0.5),
    weights (1, -1, 0.5) and endpoint motion (0.3, 0.1, -0.2, 0.4) the
    order-2 error, relative to max(1, |value|), is at most 2e-6 up to L = 700.

    Raises
    ------
    InconsistentSceneError
        If the realized geometry disagrees with ``scene.cfg`` by more
        than 1e-10 in the chord length or any crossing position or
        angle (including a leaf that misses the chord or crosses it
        clockwise).
    DegenerateConfigurationError
        If a total rate r has ``FD_STEP r`` beyond ``MAX_CHORD_LENGTH``
        (r above about 7.1e6), or a deformed length is not a finite
        float, as when an endpoint motion overflows.
    ValueError
        For any ``order`` other than 1 or 2, after the scene is checked.
    """
    grid = scene._grid
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    hs, he = scene._steps
    if order == 1:
        d_shear = (grid[1, 0] - grid[-1, 0]) / (2.0 * hs)
        d_end = (grid[0, 1] - grid[0, -1]) / (2.0 * he)
        return d_shear, d_end
    shear2 = (grid[1, 0] - 2.0 * grid[0, 0] + grid[-1, 0]) / (hs * hs)
    end2 = (grid[0, 1] - 2.0 * grid[0, 0] + grid[0, -1]) / (he * he)
    mixed = (grid[1, 1] - grid[1, -1] - grid[-1, 1] + grid[-1, -1]) / (4.0 * hs * he)
    return shear2, mixed, end2


# ---------------------------------------------------------------------------
# scene serialization

SCENE_FIELDS = ("chord_length", "crossings", "weights", "endpoint")
ENDPOINT_FIELDS = ("u_perp", "u_par", "v_perp", "v_par")


def scene_to_json(cfg: ChordConfig, weights: TransverseWeights,
                  endpoints: EndpointVariation = ZERO_ENDPOINTS) -> dict:
    """Serialize a full variation scene (geometry + rates) to a dict."""
    _check_weights(cfg, weights)
    return {
        "chord_length": cfg.length,
        "crossings": [{"s": s, "theta": theta} for s, theta
                      in zip(cfg.s.tolist(), cfg.theta.tolist())],
        "weights": weights.weights.tolist(),
        "endpoint": {k: getattr(endpoints, k) for k in ENDPOINT_FIELDS},
    }


def _flat_floats(values: list) -> np.ndarray:
    # one C call converts every value by the float protocol and refuses
    # a string, null, nested array or integer beyond the float range,
    # where np.array would parse a numeric string or add a dimension
    return np.frombuffer(struct.pack(f"{len(values)}d", *values))


def scene_from_json(data: dict) -> tuple[ChordConfig, TransverseWeights, EndpointVariation]:
    """Rebuild (config, weights, endpoint variation) from a scene dict.

    Each crossing field is read in one flat pass: the ``s`` values, then
    the ``theta`` values, and ``weights`` as given, each converted once to
    float64 by ``struct.pack``.  That is O(n) dict lookups and three flat
    conversions, with no nested-sequence shape discovery.

    Malformed input raises ValueError: a missing field, an unknown
    ``endpoint`` key, a crossing that is not an object or lacks ``s`` or
    ``theta``, a ``chord_length`` or endpoint component that is not a
    JSON number (an int or a float by exact type; a bool, a numeric
    string or a numpy scalar is not), an ``s``, ``theta`` or weight that
    is not a number (a string, ``null`` or a nested array), an integer
    beyond the float range, and every check of ``ChordConfig`` and
    ``TransverseWeights``.  A boolean ``s``, ``theta`` or weight is still
    read as 0 or 1, because an exact-type check per value would cost
    more than the conversion itself.  The finite-difference oracle
    layers its own checks on top of this.
    """
    if not isinstance(data, dict):
        raise ValueError("a scene must be a JSON object")
    missing = [k for k in SCENE_FIELDS if k not in data]
    if missing:
        raise ValueError(f"scene is missing fields: {missing}")
    ep = data["endpoint"]
    if not isinstance(ep, dict):
        raise ValueError("scene 'endpoint' must be a JSON object")
    for field, v in (("chord_length", data["chord_length"]), *ep.items()):
        if type(v) not in (int, float):
            raise ValueError(f"scene field {field!r} must be a JSON number, got {v!r}")
    try:
        crossings = data["crossings"]
        s = _flat_floats([c["s"] for c in crossings])
        theta = _flat_floats([c["theta"] for c in crossings])
        weights = TransverseWeights(_flat_floats(data["weights"]))
        length = float(data["chord_length"])
        endpoints = EndpointVariation(**ep)
    except (KeyError, TypeError, OverflowError, struct.error) as exc:
        raise ValueError(f"malformed scene: {exc!r}") from exc
    cfg = ChordConfig(length, s=s, theta=theta)
    _check_weights(cfg, weights)
    return cfg, weights, endpoints
