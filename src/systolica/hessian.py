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
rates ``a``, as read-only float64 arrays in chord order, validated once.
A config decides its validity in one pass of comparisons and works out
which crossing to name only when it refuses.  A realized
``HalfplaneScene`` holds its leaves as a tuple of float rows of frame
entries, as ``polygons.MarkedRightPolygon`` holds its frames.
``fd_oracle`` walks the chord in its own frame in one float pass from
``p`` to ``q``: each leaf is measured, checked against the config and
added to the Taylor coefficients of the sheared chain, so the oracle
rounds relative to the chord, not to half-plane coordinates of size
``e^L``.  Both orders of its derivatives are memoized on the immutable
scene.

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
formula in this module is pinned against ``fd_oracle``, the independent
channel that deforms an actual half-plane realization of the scene and
differentiates the deformed distance exactly, by Taylor jets, up to
rounding.

The kernel ``cosh(s_<) cosh(L - s_>)`` is semiseparable, so
``hessian_form`` and ``hessian_split`` evaluate the form as one prefix
sum, O(n) numpy work, and never build the dense ``(n+2) x (n+2)``
matrix; the sums over the crossings of the last ``(config, weights)``
pair are kept, so ``hessian_form`` and ``hessian_split`` on one scene
evaluate the kernel once.  ``hessian_margin`` takes its gaps from the
marks ``[0, s_1, ..., s_n, L]`` that the config kept from its check.
The tests build the dense matrix as their reference.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import halfplane
from .errors import (DegenerateConfigurationError, DegenerateMarginError,
                     InconsistentSceneError, SystolicaError, _is_integer, _real_floats)
from .halfplane import _frame_through, _half_turn, _product, _relative, _turned, _unit

__all__ = [
    "ChordConfig",
    "TransverseWeights",
    "EndpointVariation",
    "MarginReport",
    "HalfplaneScene",
    "first_derivatives",
    "hessian_form",
    "hessian_split",
    "hessian_margin",
    "realize_scene",
    "fd_oracle",
    "MAX_CHORD_LENGTH",
    "scene_to_json",
    "scene_from_json",
]


def _readonly_vector(values, what: str) -> np.ndarray:
    # A 1-D float64 array over a bytes object is read-only over immutable
    # memory, so no caller can change it; any other input is copied, so
    # no caller can change a validated config either.
    if (type(values) is np.ndarray and type(values.base) is bytes
            and values.dtype == np.float64 and values.ndim == 1):
        return values
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
    float64 arrays: one over immutable bytes, as ``scene_from_json``
    makes them, is kept as given, and any other input is copied.

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
        L = self.length
        if type(L) is not float:
            L, = _real_floats((L,), "chord length")
        if not (math.isfinite(L) and L > 0):
            raise ValueError("chord length must be positive and finite")
        s = _readonly_vector(self.s, "crossing positions")
        theta = _readonly_vector(self.theta, "crossing angles")
        if s.shape != theta.shape:
            raise ValueError(
                f"{s.size} crossing positions but {theta.size} angles")
        # 0 < s_1 < ... < s_n < L and every angle in (0, pi), decided in
        # one pass of comparisons, which NaN fails and which warn of nothing
        marks = np.concatenate(([0.0], s, [L]))
        if not ((marks[1:] > marks[:-1]).all() and (not s.size or theta.min() > 0.0
                                                     and theta.max() < math.pi)):
            _refuse_crossings(s, theta, L)
        object.__setattr__(self, "length", L)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "theta", theta)
        # [0, s_1, ..., s_n, L], kept for hessian_margin's gaps
        marks.setflags(write=False)
        object.__setattr__(self, "_marks", marks)

    @property
    def n(self) -> int:
        return len(self.s)


def _refuse_crossings(s, theta, L) -> None:
    """Name the first crossing of a refused config: the per-crossing form
    of ``ChordConfig``'s one-pass decision."""
    # diff([0, s..., L]) > 0, written so that crossing i owns the test
    placed = (s > np.concatenate(([0.0], s[:-1]))) & (s < L)
    angled = (theta > 0.0) & (theta < math.pi)
    i = int((placed & angled).argmin())
    if not placed[i]:
        raise ValueError(f"crossing {i} at s={s[i].item()!r} outside "
                         "the chord or out of order")
    raise ValueError(f"crossing {i} angle {theta[i].item()!r} outside (0, pi)")


@dataclass(frozen=True, eq=False)
class TransverseWeights:
    """Shear rates, one per crossing of the configuration, stored as a
    read-only 1-D float64 array, kept or copied as in ``ChordConfig``.  A
    rate that is not a finite number raises ValueError."""

    weights: np.ndarray

    def __post_init__(self):
        w = _readonly_vector(self.weights, "shear weights")
        top = float(abs(w).max(initial=0.0))  # NaN if a rate is
        if not top < math.inf:
            raise ValueError("shear weights must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_top", top)  # the largest |rate|, for _shear_sums


ENDPOINT_FIELDS = ("u_perp", "u_par", "v_perp", "v_par")


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
        values = _real_floats((self.u_perp, self.u_par, self.v_perp, self.v_par),
                              "endpoint components")
        for name, v in zip(ENDPOINT_FIELDS, values):
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

    Raises
    ------
    DegenerateConfigurationError
        If a part is not a finite float: rates whose sum, or outward
        speeds whose sum, leaves the float range.
    """
    _check_weights(cfg, weights)
    # sin(pi/2 - theta) is cos(theta), exactly 0 at a perpendicular crossing
    cos = np.sin(0.5 * math.pi - cfg.theta)
    # no partial sum of n terms at most _top overflows unless n _top does
    if weights._top * cfg.n < math.inf:
        d_metric = float(weights.weights @ cos)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            d_metric = float(weights.weights @ cos)
    return _finite("the first variation's parts", d_metric, endpoints.u_par + endpoints.v_par)


def hessian_form(cfg: ChordConfig, weights: TransverseWeights,
                 endpoints: EndpointVariation = ZERO_ENDPOINTS) -> float:
    """Second derivative of the chord length for a joint shear/endpoint
    variation, evaluated in closed form.

    This is ``shear2 + 2 * mixed + end2`` from ``hessian_split``: O(n)
    numpy work, without building the kernel matrix, which a following
    ``hessian_split`` on the same ``cfg`` and ``weights`` does not repeat.

    Raises
    ------
    DegenerateConfigurationError
        As ``hessian_split`` does, or if the sum is not a finite float.
    """
    shear2, mixed, end2 = hessian_split(cfg, weights, endpoints)
    form, = _finite("the second variation", shear2 + 2.0 * mixed + end2)
    return form


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
    cost is O(n) numpy work; no ``(n+2) x (n+2)`` matrix is built.  The
    three sums over the crossings depend on ``cfg`` and ``weights`` only
    and are kept for the last pair (``_shear_sums``), so a second call on
    the pair, from ``hessian_form`` or with other endpoints, is O(1).
    The cache keeps that last config and weights, arrays and all, alive
    until a call on another pair replaces them.

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
        ``sinh(L)`` leaves the float range, or a part is not a finite
        float: rates or endpoint speeds whose squares, scaled by the
        kernel, leave the float range.
    """
    _check_weights(cfg, weights)
    _check_length(cfg)
    L = cfg.length
    h = math.exp(-0.5 * L)
    scale = math.sinh(L)
    shear2, sum_xc, sum_xd = _shear_sums(cfg, weights)
    u, v = endpoints.u_perp, endpoints.v_perp
    mixed = v * sum_xc - u * sum_xd
    end2 = math.cosh(L) * (u * u + v * v) - 2.0 * u * v
    return _finite("the second variation's parts",
                   shear2 / (scale * h * h), mixed / (scale * h), end2 / scale)


def _finite(what: str, *parts: float) -> tuple:
    """``parts``, refused with DegenerateConfigurationError, which names
    them ``what``, unless every one is a finite float."""
    if not all(map(math.isfinite, parts)):
        raise DegenerateConfigurationError(f"{what} {parts!r}: not all are finite floats")
    return parts


@functools.lru_cache(maxsize=1)
def _shear_sums(cfg: ChordConfig, weights: TransverseWeights) -> tuple[float, float, float]:
    """``shear2``, ``sum(xc)`` and ``sum(xd)`` of ``hessian_split``, with
    ``x`` carrying ``h``, for the last checked ``(cfg, weights)`` pair.
    Both types are immutable and compare by identity, and the cache holds
    both alive, so no other pair can take their ids while they are kept:
    a hit is the same pair.  Sums beyond the float range come back
    infinite or NaN, with no warning, for the caller to refuse."""
    # e^{L/2} < 2^513 for every admitted L, so with every |a| at most
    # 2^400 a scaled term x c or x d stays below 2^913 and a product
    # x_i c_i x_j d_j (i <= j) below 2^800: no sum of fewer than 2^100 of
    # them overflows, and the sums need no overflow context, whose cold
    # cost is tens of microseconds
    if weights._top <= 2.0 ** 400:
        return _kernel_sums(cfg, weights)
    with np.errstate(over="ignore", invalid="ignore"):
        return _kernel_sums(cfg, weights)


def _kernel_sums(cfg: ChordConfig, weights: TransverseWeights) -> tuple[float, float, float]:
    """The sums of ``_shear_sums``, in the numpy error state of the caller."""
    L = cfg.length
    x = np.sin(cfg.theta) * weights.weights * math.exp(-0.5 * L)
    xc = x * np.cosh(cfg.s)
    xd = x * np.cosh(L - cfg.s)
    shear2 = float(xc @ xd) + 2.0 * float(xd[1:] @ np.cumsum(xc)[:-1])
    return shear2, float(xc.sum()), float(xd.sum())


@dataclass(frozen=True, eq=False)
class MarginReport:
    """Separation margins of the marked points on the chord.

    ``epsilons`` is a read-only float64 array: ``epsilons[i]`` is the
    distance from crossing ``i`` to its nearest neighbour among the other
    crossings and both endpoints; ``eps_p`` and ``eps_q`` are the end
    gaps.  Each is one rounded difference of two stored positions, so it
    is correct to half an ulp and strictly positive for any valid
    configuration.

    Because ``epsilons`` is an array, reports compare and hash by
    identity, not by value: compare ``tuple(report.epsilons)`` instead.
    """

    epsilons: np.ndarray
    eps_p: float
    eps_q: float


def hessian_margin(cfg: ChordConfig) -> MarginReport:
    """Separation margins of the marked points: how far each crossing
    is from its nearest neighbour and how far the outer crossings are
    from the endpoints.

    The crossings are sorted, so a crossing's nearest marked point is
    one of its two neighbours: ``epsilons`` is the smaller of the two
    adjacent gaps in ``diff([0, s_1, ..., s_n, L])``, a new read-only
    array, O(n) numpy work.
    The report is no bound on the quadratic form, whose positivity comes
    from the Gram structure of its kernel (module docstring).

    Raises
    ------
    DegenerateMarginError
        If the configuration has no crossings (there is no gap
        structure to report).
    """
    if cfg.n == 0:
        raise DegenerateMarginError("no crossings: nothing to separate")
    marks = cfg._marks
    gaps = marks[1:] - marks[:-1]
    eps = np.minimum(gaps[:-1], gaps[1:])
    eps.setflags(write=False)
    return MarginReport(epsilons=eps, eps_p=float(gaps[0]), eps_q=float(gaps[-1]))


# ---------------------------------------------------------------------------
# explicit half-plane scenes and the Taylor-jet oracle

@dataclass(frozen=True, eq=False)
class HalfplaneScene:
    """A chord configuration realized as actual half-plane geometry.

    Carries both the abstract data (``cfg``, ``weights``, ``endpoints``)
    and its geometric realization: the endpoints ``p``, ``q`` and one
    complete geodesic per crossing.  ``leaves`` is given as n rows of
    four real numbers, such as a list of tuples or an (n, 4) array, and
    kept as a tuple of n float rows: row ``i`` holds the entries
    ``(a, b, c, d)`` of the frame of leaf ``i``, the matrix taking the
    upward imaginary axis onto the leaf as in ``halfplane.HGeodesic``,
    and is ``halfplane._unit`` of the given row read as floats, the frame
    normalized to determinant one.  ``fd_oracle`` re-measures the
    geometry, refuses a scene that drifted from its configuration, and
    differentiates it.

    A scene is immutable: the dataclass is frozen, ``cfg`` and
    ``weights`` hold read-only arrays, ``leaves`` is a tuple of tuples,
    and ``p`` and ``q`` are private copies taken here.  The private
    ``_jet`` memo holds both orders of ``fd_oracle`` once ``_oracle_jet``
    has computed them; a check or jet that raises leaves it empty.

    Raises
    ------
    ValueError
        If ``weights`` or the rows of ``leaves`` are not one per crossing
        of ``cfg`` (the message names both counts), or a row is not four
        numbers (a string is not a number) or ``_unit`` refuses it (a
        non-finite entry, a determinant that is not positive and finite
        or a normalized entry beyond the float range), when the message
        names the first bad leaf.
    """

    cfg: ChordConfig
    weights: TransverseWeights
    endpoints: EndpointVariation
    p: "halfplane.HPoint"
    q: "halfplane.HPoint"
    leaves: tuple

    def __post_init__(self):
        _check_weights(self.cfg, self.weights)
        if len(self.leaves) != self.cfg.n:
            raise ValueError(f"{len(self.leaves)} leaves for {self.cfg.n} crossings")
        leaves = []
        for i, row in enumerate(self.leaves):
            try:
                a, b, c, d = row
                if not (type(a) is type(b) is type(c) is type(d) is float):
                    a, b, c, d = _real_floats(row, "leaf entries")  # ints, numpy scalars
                leaves.append(_unit(a, b, c, d))
            except (TypeError, ValueError):
                raise ValueError(f"leaf {i} frame {row!r} is not four finite numbers with "
                                 "positive determinant, or its normalized entries are "
                                 "not") from None
        object.__setattr__(self, "leaves", tuple(leaves))
        object.__setattr__(self, "p", halfplane.HPoint(self.p.x, self.p.y))
        object.__setattr__(self, "q", halfplane.HPoint(self.q.x, self.q.y))

    @functools.cached_property
    def _jet(self):
        # cached_property stores only a returned value: a scene whose
        # check or jet raises raises again on the next access
        return _oracle_jet(self)


def realize_scene(cfg: ChordConfig, weights: TransverseWeights,
                  endpoints: EndpointVariation = ZERO_ENDPOINTS,
                  ) -> HalfplaneScene:
    """Place the configuration on the imaginary axis: ``p = i``,
    ``q = i e^L``, leaf ``i`` through ``i e^{s_i}`` rotated by
    ``theta_i`` from the upward direction.

    The frame of a leaf is ``halfplane._turned`` at ``r = e^{s/2}``,
    turned by ``theta``: the frame at ``i r^2`` with no shift, one float
    row per leaf.

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
    leaves = [_turned(math.exp(0.5 * s), math.cos(0.5 * theta), math.sin(0.5 * theta))
              for s, theta in zip(cfg.s.tolist(), cfg.theta.tolist())]
    return HalfplaneScene(cfg=cfg, weights=weights, endpoints=endpoints,
                          p=halfplane.HPoint(0.0, 1.0),
                          q=halfplane.HPoint(0.0, top), leaves=leaves)


def _measure_leaf(a, b, c, d):
    """``(s, cos, sin)`` of the crossing of a leaf with the chord, from
    the float entries ``(a, b, c, d)`` of the leaf's frame seen from the
    chord's (``halfplane._relative``, s = 0 at ``p``), or None for a
    leaf that misses the chord.

    The leaf runs from ``b/d`` to ``a/c`` and crosses the chord iff
    ``abcd < 0``, on the circle ``|z|^2 = -(b/d)(a/c)``.  Since
    ``ad - bc = 1`` and ``ad + bc = cos(theta)`` for a crossing leaf,
    ``abcd`` is formed as ``(ad)(bc)``, a product of two factors at most
    1 in size, and the log of the crossing radius is taken through
    ``(a/c)(b/d) = abcd / (cd)^2`` as ``s = log(-abcd)/2 - log|c| - log|d|``:
    no quotient is formed, so ``s`` stays finite where ``e^{2s}``,
    ``a/c`` or ``b/d`` overflows and where ``cd`` underflows.
    ``sin(theta)`` is ``-2 sign(ac) sqrt(-abcd)``, so ``atan2(sin, cos)``
    is the angle, free of cancellation and signed: a leaf that crosses
    clockwise measures outside ``(0, pi)``.
    """
    ad, bc = a * d, b * c
    minus_abcd = -(ad * bc)
    if not minus_abcd > 0.0:
        return None
    return (0.5 * math.log(minus_abcd) - (math.log(abs(c)) + math.log(abs(d))),
            ad + bc, math.copysign(2.0 * math.sqrt(minus_abcd), -(a * c)))


_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _endpoint_turns(ev: EndpointVariation):
    """``((R_p, |w_p|), (R_q, |w_q|))``: the rotation about ``i``, as
    entries, that turns "up" onto each endpoint's variation vector ``w``,
    and its speed.  In the chord's frame at either end the chord runs up
    the imaginary axis through ``i`` (left is -x; outward is -y at
    ``p``, +y at ``q``); ``R`` is ``halfplane._turned`` at ``r = 1``,
    normalized by ``_unit``, and the identity for a resting endpoint.
    The endpoint moved by ``u`` is ``R D(u |w|) i``.  A speed beyond the
    float range raises DegenerateConfigurationError."""
    turns = []
    for dx, dy in ((-ev.u_perp, -ev.u_par), (-ev.v_perp, ev.v_par)):
        speed = math.hypot(dx, dy)
        if not math.isfinite(speed):
            raise DegenerateConfigurationError(f"endpoint speed {speed!r} overflows")
        turns.append((_unit(*_turned(1.0, *_half_turn(complex(dy, -dx))))
                      if speed else _IDENTITY, speed))
    return turns


def _distance_jet(g0, g1, g2, alpha: float, beta: float):
    """``((d_t, d_u), (d_tt, d_tu, d_uu))`` of the distance ``d`` from
    ``i`` to ``N(t, u) i``, where ``N = D(-u |w_p|) G(t) D(u |w_q|)`` and
    ``G = g0 + t g1 + t^2 g2``, each as entries ``(A, B, C, D)``.

    ``N``'s entries are ``G``'s times ``e^{alpha u}``, ``e^{-beta u}``,
    ``e^{beta u}`` and ``e^{-alpha u}``, with
    ``alpha = (|w_q| - |w_p|)/2`` and ``beta = (|w_p| + |w_q|)/2``.  For
    determinant one, ``d = 2 asinh(r/2)`` with ``r = hypot(X, Y)``,
    ``X = A - D`` and ``Y = B + C``.  With ``(x, y) = (X, Y)/r`` at 0
    and primes for derivatives over ``r``, ``r_i / r = x X_i' + y Y_i'``
    and ``r_ij / r = k_i k_j + x X_ij' + y Y_ij'`` with the curvature
    parts ``k_i = y X_i' - x Y_i'``.  The chain rule through
    ``f1 = 1/hypot(1, r/2)``, ``d' = f1`` and ``d'' = -(r/4) f1^3``,
    gives ``d_i = c r_i/r`` and ``d_ij = c r_ij/r - (d_i d_j / 2) tanh``
    with ``c = r f1 = 2 tanh(d/2)`` and ``tanh = (r/2) f1``, each at most
    2, so nothing overflows for any float ``r``.
    """
    A0, B0, C0, D0 = g0
    A1, B1, C1, D1 = g1
    A2, B2, C2, D2 = g2
    r = math.hypot(A0 - D0, B0 + C0)
    x, y = (A0 - D0) / r, (B0 + C0) / r
    xt, yt = (A1 - D1) / r, (B1 + C1) / r
    xu, yu = alpha * (A0 + D0) / r, beta * (C0 - B0) / r
    kt, ku = y * xt - x * yt, y * xu - x * yu
    ax, by = alpha * x, beta * y
    rtt = kt * kt + 2.0 * (x * (A2 - D2) + y * (B2 + C2)) / r
    rtu = kt * ku + (ax * (A1 + D1) + by * (C1 - B1)) / r
    ruu = ku * ku + ax * ax + by * by
    f1 = 1.0 / math.hypot(1.0, 0.5 * r)
    c, tanh = r * f1, 0.5 * r * f1
    dt, du = c * (x * xt + y * yt), c * (x * xu + y * yu)
    return (dt, du), (c * rtt - 0.5 * tanh * dt * dt,
                      c * rtu - 0.5 * tanh * dt * du,
                      c * ruu - 0.5 * tanh * du * du)


def _oracle_jet(scene: HalfplaneScene):
    """Check the scene and compute both orders of ``fd_oracle`` in one
    float pass over the leaves, then the endpoint turns and
    ``_distance_jet`` on ``G_k = R_p^-1 M_k R_q``.
    ``HalfplaneScene._jet`` memoizes the result.

    The chord's far end sheared by ``t`` has the Taylor coefficients
    ``M(t) = M0 + t M1 + t^2 M2 + O(t^3)``, each as entries
    ``(a, b, c, d)`` in the chord's frame (``p = i``, ``q = D(L) i``,
    ``D(x) = diag(e^{x/2}, e^{-x/2})``, ``M0 = D(L)``), with ``M2``'s
    off-diagonal entries left 0.  The shear by ``t a`` along the leaf at
    ``(s, theta)`` is ``D(s) (I + E) D(-s)`` with
    ``E = (cosh(t a/2) - 1) I + sinh(t a/2) X``,
    ``X = [[cos theta, -sin theta], [-sin theta, -cos theta]]``, so
    ``E = t E1 + t^2 E2 + O(t^3)`` with ``E1 = (a/2) X`` and
    ``E2 = (a^2/8) I``, and ``M = D(s_1) (I + E_1) D(s_2 - s_1) ...
    (I + E_n) D(L - s_n)``.  Its normalized difference from ``D``,
    ``Psi_i = D(-g) Psi_{i-1} D(g) (I + E_i) + E_i`` for the gap
    ``g = s_i - s_{i-1}`` and ``Psi_0 = 0`` (so the first gap is
    immaterial), vanishes at ``t = 0``, and
    ``Mk = D(L) D(-(L - s_n)) Psik D(L - s_n)``.  So each leaf is
    measured (``_measure_leaf``) and checked, the coefficients carried
    so far are conjugated by its gap, and
    ``Psi1 <- Psi1 + E1`` and ``Psi2 <- Psi2 + Psi1 E1 + E2`` add it,
    with the measured ``cos`` and ``sin``: no sinh or cosh.  Only the
    diagonal of ``Psi2`` is carried, six floats a step.  Its
    off-diagonal entries feed no other entry, and they never reach an
    output: the endpoint turns are rotations, so at ``u = 0`` the
    distance depends on ``M`` only through
    ``r^2 = |M|_F^2 - 2 det M``, which to first order at ``D(L)`` moves
    with the diagonal of ``M2`` alone.  ``Psi2`` reaches about
    ``(sum|a|)^2 e^L / 4``, so the loop runs in the unit ``t T``, ``T``
    the power of two at or above ``sum|a|`` (1 below it): an exact
    rescaling, undone in ``Mk``, that keeps ``Psi`` a float on every
    chord whose far end ``i e^L`` is one.  An overflow leaves a
    non-finite entry, refused with the outputs.
    """
    cfg = scene.cfg
    try:
        chord = _frame_through(scene.p, scene.q)
    except SystolicaError as exc:
        raise InconsistentSceneError(
            f"scene geometry is not a transverse chord configuration: {exc}") from exc
    length = halfplane.dist(scene.p, scene.q)
    if abs(length - cfg.length) > 1e-10:
        raise InconsistentSceneError(
            f"realized chord length {length!r} != {cfg.length!r}")
    rates = scene.weights.weights.tolist()
    T = math.ldexp(1.0, max(0, math.frexp(sum(map(abs, rates)))[1]))
    declared = cfg.s.tolist()
    a1 = b1 = c1 = d1 = a2 = d2 = 0.0
    last = declared[0] if declared else length  # a zero Psi ignores its first gap
    try:
        for i, (row, w, s_i, theta_i) in enumerate(zip(scene.leaves, rates, declared,
                                                       cfg.theta.tolist())):
            measured = _measure_leaf(*_relative(chord, *row))
            if measured is None:
                raise InconsistentSceneError("scene geometry is not a transverse chord "
                                             f"configuration: leaf {i} does not cross the chord")
            s, co, si = measured
            theta = math.atan2(si, co)
            # written as agreement so that a NaN measurement is refused too
            if not (abs(s - s_i) <= 1e-10 and abs(theta - theta_i) <= 1e-10):
                raise InconsistentSceneError(
                    f"leaf {i} measured at (s={s!r}, theta={theta!r}) but declared "
                    f"(s={s_i!r}, theta={theta_i!r})")
            g = math.exp(s - last)
            last = s
            h = 0.5 * w / T  # E1 = [[e, f], [f, -e]] and E2 = q I
            e, f, q = h * co, -(h * si), 0.5 * (h * h)
            b1, c1 = b1 / g, c1 * g
            a1, b1, c1, d1, a2, d2 = (
                a1 + e, b1 + f, c1 + f, d1 - e,
                a2 + a1 * e + b1 * f + q, d2 + c1 * f - d1 * e + q)
        g, e = math.exp(length - last), math.exp(0.5 * length)
    except OverflowError:  # from e^gap or e^{L/2} alone
        raise DegenerateConfigurationError(
            f"chord length {length!r}: a gap between its marks or L/2 has no float "
            "exponential") from None
    b1, c1 = b1 / g, c1 * g
    m0, m1, m2 = ((e, 0.0, 0.0, 1.0 / e), (e * a1 * T, e * b1 * T, c1 / e * T, d1 / e * T),
                  (e * a2 * T * T, 0.0, 0.0, d2 / e * T * T))
    (rp, wp), (rq, wq) = _endpoint_turns(scene.endpoints)
    g0, g1, g2 = (_product(_relative(rp, *m), *rq) for m in (m0, m1, m2))
    first, second = _distance_jet(g0, g1, g2, 0.5 * (wq - wp), 0.5 * (wp + wq))
    if not all(map(math.isfinite, first + second)):
        raise DegenerateConfigurationError(
            f"the chord's derivatives {first + second!r} are not finite floats")
    return first, second


def fd_oracle(scene: HalfplaneScene, order: int):
    """Differentiate the realized chord length exactly, up to rounding.

    ``order == 1`` returns ``(d_shear, d_endpoints)``, the derivatives
    along the shear parameter ``t`` (every leaf's far side sheared by
    ``t`` times its weight, leaves composed from ``q`` inward) and along
    the endpoint parameter ``u`` (both endpoints moved by ``u`` along
    their variation vectors); ``order == 2`` returns
    ``(shear2, mixed, end2)``, the pure second derivatives and the mixed
    partial, so the second derivative of the joint motion is
    ``shear2 + 2 * mixed + end2``.

    The oracle differentiates the realized geometry, not the closed
    forms: shears are translations along the measured leaves.  Every
    factor of the chord walk is analytic in ``t`` and ``u``, so it
    carries truncated Taylor series, jets, through the walk (Griewank &
    Walther, *Evaluating Derivatives*, 2nd ed., ch. 13): the shear chain's
    two coefficients in one float pass over the leaves (``_oracle_jet``),
    which measures and checks each leaf as it goes, the endpoint motion
    in closed form, and the distance by the chain rule
    (``_distance_jet``).  There is no step and no truncation.  The first
    call on a scene checks it and computes both orders in that one pass
    of ``n`` steps.  The scene memoizes them, so a later call of either
    order is a lookup.  Nothing that raises is memoized.

    Rounding, to first order with ``u = eps/2``, taking the measured
    ``L`` and each leaf's measured ``(s, cos, sin)`` as exact, with
    ``S = sum|a_i| + |w_p| + |w_q|``, ``k = coth(L/2)`` and
    ``r = 2 sinh(L/2)``:

    - a step value rounds once, ``e^g`` of a rounded gap errs by
      ``(2 + g) u``, and a step, which conjugates the carried entries by
      the gap before it and then adds the leaf, rounds each entry at most
      five times, so
      ``Mk`` errs entrywise by at most ``(L + 7n + 4) u`` of
      ``T^k D(L) |Psik|``, the chain walked on absolute values, whose
      entries sum to at most ``2 cosh(L/2) S^k = r k S^k``;
    - the turns are rotations to ``4u`` an entry and the two products add
      ``4u``, so ``G_k`` errs by ``(L + 7n + 16) u`` of a matrix whose
      entries sum to at most ``2 r k S^k``, and ``G0``'s ``14u`` becomes
      up to ``28 k u`` in ``(x, y)`` through the cancellation in
      ``A0 - D0``;
    - an order-1 output is ``c <= 2`` times terms summing to at most
      ``2 k S``, an order-2 one a sum of terms of at most ``6 (2 k S)^2``,
      each term with a few roundings of its own.

    So an order-k output errs by at most ``4 (L + 8n + 40 k) eps (2 k S)^k``.
    The bound is linear in ``n`` only through the worst case of the
    loop's sums, and free of the size ``e^{L/2}`` of the chord's frame;
    tests/test_hessian.py holds the jet to it against 50-digit central
    differences.

    Raises
    ------
    InconsistentSceneError
        If the realized geometry disagrees with ``scene.cfg`` by more
        than 1e-10 in the chord length or any crossing position or
        angle (including a leaf that misses the chord or crosses it
        clockwise).
    DegenerateConfigurationError
        If an output is not a finite float: an endpoint speed whose
        square overflows, or rates whose ``M2``, about
        ``e^{L/2} (sum|a|)^2``, leave the float range; or if a gap
        between the chord's marks, or ``L/2``, has no float exponential,
        which only a chord longer than about 709.78 allows.
    ValueError
        For any ``order`` other than the int 1 or 2 (a bool or a float
        is refused), after the scene is checked.
    """
    jet = scene._jet
    if not _is_integer(order) or order not in (1, 2):
        raise ValueError(f"order must be the int 1 or 2, got {order!r}")
    return jet[order - 1]


# ---------------------------------------------------------------------------
# scene serialization

SCENE_FIELDS = ("chord_length", "crossings", "weights", "endpoint")


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
    float64 by ``struct.pack`` into immutable bytes, which the
    constructors keep without copying.  That is O(n) dict lookups, made
    by ``operator.itemgetter`` in C, three flat conversions and the
    constructors' O(1) numpy checks, with no nested-sequence shape
    discovery.

    Malformed input raises ValueError: a missing field, an unknown
    ``endpoint`` key, a crossing that is not an object or lacks ``s`` or
    ``theta``, a ``chord_length`` or endpoint component that is not a
    JSON number (an int or a float by exact type; a bool, a numeric
    string or a numpy scalar is not), an ``s``, ``theta`` or weight that
    is not a number (a string, ``null`` or a nested array), an integer
    beyond the float range, and every check of ``ChordConfig`` and
    ``TransverseWeights``.  A boolean ``s``, ``theta`` or weight is still
    read as 0 or 1, because an exact-type check per value would cost
    more than the conversion itself.  ``fd_oracle`` layers its own
    checks on the realized scene on top of this.
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
        s = _flat_floats(list(map(itemgetter("s"), crossings)))
        theta = _flat_floats(list(map(itemgetter("theta"), crossings)))
        weights = TransverseWeights(_flat_floats(data["weights"]))
        length = float(data["chord_length"])
        endpoints = EndpointVariation(**ep)
    except (KeyError, TypeError, OverflowError, struct.error) as exc:
        raise ValueError(f"malformed scene: {exc!r}") from exc
    cfg = ChordConfig(length, s=s, theta=theta)
    _check_weights(cfg, weights)
    return cfg, weights, endpoints
