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
``ChordConfig`` holds the positions ``s`` and the angles ``theta`` as two
read-only float64 arrays in chord order, validated once when it is
built, and ``TransverseWeights`` holds the shear rates ``a`` the same
way.  Every function below reads those arrays directly.

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

The kernel ``cosh(s_<) cosh(L - s_>)`` is semiseparable: above the
diagonal, entry ``(i, j)`` is a factor of ``i`` alone times a factor of
``j`` alone.  So ``hessian_form`` and ``hessian_split`` never build it:
with the crossings in chord order the quadratic form is one prefix sum
of ``x_i cosh(s_i)`` weighted by ``x_j cosh(L - s_j)``, O(n) numpy work
for n crossings.  ``hessian_margin`` reads its margins off adjacent
gaps, also O(n).  ``hessian_matrix`` builds the dense kernel, O(n^2) in
time and memory, and serves only as the reference for tests and
eigenvalue checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import halfplane
from .errors import (DegenerateConfigurationError, DegenerateMarginError,
                     InconsistentSceneError, SystolicaError)

__all__ = [
    "ChordConfig",
    "TransverseWeights",
    "EndpointVariation",
    "ShearRates",
    "MarginReport",
    "HalfplaneScene",
    "first_derivatives",
    "hessian_matrix",
    "hessian_form",
    "hessian_split",
    "hessian_margin",
    "shear_kinematics",
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
        If the length is not positive and finite, ``s`` and ``theta``
        differ in shape, a crossing sits outside the open chord, the
        crossings are not strictly increasing in ``s``, or an angle leaves
        ``(0, pi)``.  NaN fails every one of these tests.  The message
        names the first bad crossing.
    """

    length: float
    s: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        L = float(self.length)
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
    read-only 1-D float64 array."""

    weights: np.ndarray

    def __post_init__(self):
        w = _readonly_vector(self.weights, "shear weights")
        if not np.isfinite(w).all():
            raise ValueError("shear weights must be finite")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class EndpointVariation:
    """Endpoint velocities in the chord frame described in the module
    docstring; all four components default to zero."""

    u_perp: float = 0.0
    u_par: float = 0.0
    v_perp: float = 0.0
    v_par: float = 0.0


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

    Raises
    ------
    DegenerateConfigurationError
        If the chord is longer than ``MAX_CHORD_LENGTH``, where
        ``sinh(L)`` leaves the float range.
    """
    _check_weights(cfg, weights)
    _check_length(cfg)
    L = cfg.length
    scale = math.sinh(L)
    s = cfg.s
    x = np.sin(cfg.theta) * weights.weights
    xc = x * np.cosh(s)
    xd = x * np.cosh(L - s)
    shear2 = float(xc @ xd) + 2.0 * float(xd[1:] @ np.cumsum(xc)[:-1])
    u, v = endpoints.u_perp, endpoints.v_perp
    mixed = v * float(xc.sum()) - u * float(xd.sum())
    end2 = math.cosh(L) * (u * u + v * v) - 2.0 * u * v
    return shear2 / scale, mixed / scale, end2 / scale


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


@dataclass(frozen=True)
class ShearRates:
    """First-order kinematics at an earlier crossing while shearing a
    later leaf at unit rate.

    ``rho_prime`` is the rotation rate of the chord direction at ``p``;
    ``f_prime`` the sliding rate of the crossing point of leaf ``l``
    along its own leaf; ``dcos_theta`` the rate of change of the cosine
    of the crossing angle at leaf ``l``.
    """

    rho_prime: float
    f_prime: float
    dcos_theta: float


def shear_kinematics(cfg: ChordConfig, h_index: int, l_index: int) -> ShearRates:
    """Rates of the moving-chord picture: shear leaf ``h`` at unit rate
    and watch what happens at the earlier leaf ``l``.

    Indices are 0-based positions into ``cfg.s``; ``l_index``
    must be strictly smaller than ``h_index`` (the leaf being watched
    crosses the chord nearer to ``p`` than the leaf being sheared).  A
    chord longer than ``MAX_CHORD_LENGTH`` raises
    ``DegenerateConfigurationError``.
    """
    n = cfg.n
    if not 0 <= h_index < n:
        raise ValueError(f"h_index {h_index} out of range 0..{n - 1}")
    if not 0 <= l_index < n:
        raise ValueError(f"l_index {l_index} out of range 0..{n - 1}")
    if l_index >= h_index:
        raise ValueError(
            "kinematic rates are defined at crossings strictly before the "
            f"sheared leaf (got l_index={l_index}, h_index={h_index})")
    _check_length(cfg)
    L = cfg.length
    s_h, s_l = cfg.s[[h_index, l_index]].tolist()
    th_h, th_l = cfg.theta[[h_index, l_index]].tolist()
    sinh_L = math.sinh(L)
    rho_prime = math.cosh(L - s_h) * math.sin(th_h) / sinh_L
    f_prime = (math.cosh(L - s_h) * math.sinh(s_l) * math.sin(th_h)
               / (sinh_L * math.sin(th_l)))
    dcos_theta = (math.cosh(s_l) * math.cosh(L - s_h)
                  * math.sin(th_l) * math.sin(th_h) / sinh_L)
    return ShearRates(rho_prime=rho_prime, f_prime=f_prime,
                      dcos_theta=dcos_theta)


# ---------------------------------------------------------------------------
# explicit half-plane scenes and the finite-difference oracle

@dataclass(frozen=True)
class HalfplaneScene:
    """A chord configuration realized as actual half-plane geometry.

    Carries both the abstract data (``cfg``, ``weights``, ``endpoints``)
    and its geometric realization: the endpoints ``p``, ``q`` and one
    complete geodesic per crossing.  ``fd_oracle`` re-measures the
    geometry and refuses to differentiate a scene whose realization
    drifted from its configuration.
    """

    cfg: ChordConfig
    weights: TransverseWeights
    endpoints: EndpointVariation
    p: "halfplane.HPoint"
    q: "halfplane.HPoint"
    leaves: tuple


def realize_scene(cfg: ChordConfig, weights: TransverseWeights,
                  endpoints: EndpointVariation = ZERO_ENDPOINTS,
                  ) -> HalfplaneScene:
    """Place the configuration on the imaginary axis: ``p = i``,
    ``q = i e^L``, leaf ``i`` through ``i e^{s_i}`` rotated by
    ``theta_i`` from the upward direction."""
    _check_weights(cfg, weights)
    p = halfplane.HPoint(0.0, 1.0)
    q = halfplane.HPoint(0.0, math.exp(cfg.length))
    leaves = []
    for s, theta in zip(cfg.s.tolist(), cfg.theta.tolist()):
        base = halfplane.HPoint(0.0, math.exp(s))
        up = halfplane.HTangent(base, 0.0, base.y)
        leaves.append(halfplane.geodesic_from_direction(
            base, halfplane.rotate_tangent(up, theta)))
    return HalfplaneScene(cfg=cfg, weights=weights, endpoints=endpoints,
                          p=p, q=q, leaves=tuple(leaves))


def _moved_endpoints(scene: HalfplaneScene, t: float):
    """The endpoints ``(p_t, q_t)`` moved a parameter ``t`` along their
    variation vectors: one chord frame, two pushed tangents and up to two
    exponential maps, O(1) whatever ``n``."""
    ev = scene.endpoints
    # Seen from the chord's frame at either end, the chord runs up the
    # imaginary axis through i: forward is +y, left is -x, and outward
    # is -y at p and +y at q.
    at_p = halfplane.geodesic_through(scene.p, scene.q).frame
    e = math.exp(0.5 * halfplane.dist(scene.p, scene.q))
    at_q = at_p @ halfplane.HIsometry(e, 0.0, 0.0, 1.0 / e)
    i = halfplane.HPoint(0.0, 1.0)
    u = at_p.push(halfplane.HTangent(i, -ev.u_perp, -ev.u_par))
    v = at_q.push(halfplane.HTangent(i, -ev.v_perp, ev.v_par))
    pt = halfplane.exp_point(u, t) if halfplane.norm(u) > 0 else scene.p
    qt = halfplane.exp_point(v, t) if halfplane.norm(v) > 0 else scene.q
    return pt, qt


def _shear_isometry(scene: HalfplaneScene, t: float):
    """The far side of each leaf sheared by ``t`` times its weight, the
    leaves composed from ``q`` inward so the leaf nearest ``p`` acts
    last.  The identity at ``t == 0``; otherwise ``n`` ``translate_along``
    calls and ``n`` products."""
    iso = halfplane.HIsometry.identity()
    if t == 0.0:
        return iso
    for leaf, a in zip(scene.leaves, scene.weights.weights.tolist()):
        iso = iso @ halfplane.translate_along(leaf, t * a)
    return iso


def scene_length(scene: HalfplaneScene, shear_t: float, end_t: float) -> float:
    """Deformed chord length: endpoints moved a parameter ``end_t``
    along their variation vectors, the far side of each leaf sheared by
    ``shear_t`` times its weight (leaves composed from ``q`` inward, so
    the leaf nearest ``p`` acts last).

    Each call builds the moved endpoints (one chord frame, O(1)) and,
    unless ``shear_t == 0``, the composed shear (``n`` leaf translations
    and ``n`` products), then measures one distance.  ``fd_oracle``
    evaluates its grid from the same two helpers, calling each once per
    distinct step.
    """
    pt, qt = _moved_endpoints(scene, end_t)
    return halfplane.dist(pt, _shear_isometry(scene, shear_t).apply(qt))


def _measure_scene(scene: HalfplaneScene):
    """Re-derive the length and the (2, n) rows (s, theta) from the
    realized geometry."""
    chord = halfplane.geodesic_through(scene.p, scene.q)  # s = 0 at p
    length = halfplane.dist(scene.p, scene.q)
    measured = []
    for leaf in scene.leaves:
        x = halfplane.intersection_point(chord, leaf)
        s = chord.param_of(x)
        measured.append((s, halfplane.oriented_angle(
            chord.tangent_at(s), leaf.tangent_at(leaf.param_of(x)))))
    return length, np.array(measured).reshape(-1, 2).T


FD_STEP = 1e-4


def fd_oracle(scene: HalfplaneScene, order: int):
    """Differentiate the realized chord length numerically.

    ``order == 1`` returns ``(d_shear, d_endpoints)`` by central
    differences with step ``FD_STEP`` in each deformation parameter
    separately; ``order == 2`` evaluates the full 3 x 3 grid of
    deformations and returns ``(shear2, mixed, end2)``: the pure second
    derivatives along each parameter and the mixed partial, so the
    second derivative of the joint motion is
    ``shear2 + 2 * mixed + end2``.

    Each call measures the scene once (one chord, ``n`` intersections),
    builds the shear isometries for ``shear_t = -h, +h`` once each
    (``2n`` ``translate_along`` calls and ``2n`` products, whatever the
    order) and the moved endpoints for ``end_t = -h, 0, +h`` once each,
    then reads its 4 or 9 grid values at one isometry application and
    one distance apiece.  Each grid value is exactly
    ``scene_length(scene, i * h, j * h)`` with ``h = FD_STEP``.

    Raises
    ------
    InconsistentSceneError
        If the realized geometry disagrees with ``scene.cfg`` by more
        than 1e-10 in the chord length or any crossing position or
        angle (including a leaf that misses the chord or crosses it
        clockwise).
    ValueError
        For any ``order`` other than 1 or 2.
    """
    try:
        length, (s, theta) = _measure_scene(scene)
    except SystolicaError as exc:
        raise InconsistentSceneError(
            f"scene geometry is not a transverse chord configuration: {exc}"
        ) from exc
    cfg = scene.cfg
    if abs(length - cfg.length) > 1e-10:
        raise InconsistentSceneError(
            f"realized chord length {length!r} != {cfg.length!r}")
    if s.shape != cfg.s.shape:
        raise InconsistentSceneError("crossing count mismatch")
    # written as agreement so that a NaN measurement is refused too
    agree = (np.abs(s - cfg.s) <= 1e-10) & (np.abs(theta - cfg.theta) <= 1e-10)
    if not agree.all():
        i = int(agree.argmin())
        raise InconsistentSceneError(
            f"leaf {i} measured at (s={s[i].item()!r}, "
            f"theta={theta[i].item()!r}) but declared "
            f"(s={cfg.s[i].item()!r}, theta={cfg.theta[i].item()!r})")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    h = FD_STEP
    shear = {i: _shear_isometry(scene, i * h) for i in (-1, 0, 1)}
    moved = {j: _moved_endpoints(scene, j * h) for j in (-1, 0, 1)}

    def D(i, j):  # exactly scene_length(scene, i * h, j * h)
        pt, qt = moved[j]
        return halfplane.dist(pt, shear[i].apply(qt))

    if order == 1:
        d_shear = (D(1, 0) - D(-1, 0)) / (2.0 * h)
        d_end = (D(0, 1) - D(0, -1)) / (2.0 * h)
        return d_shear, d_end
    grid = {(i, j): D(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    shear2 = (grid[1, 0] - 2.0 * grid[0, 0] + grid[-1, 0]) / (h * h)
    end2 = (grid[0, 1] - 2.0 * grid[0, 0] + grid[0, -1]) / (h * h)
    mixed = (grid[1, 1] - grid[1, -1] - grid[-1, 1] + grid[-1, -1]) / (4.0 * h * h)
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


def scene_from_json(data: dict) -> tuple[ChordConfig, TransverseWeights, EndpointVariation]:
    """Rebuild (config, weights, endpoint variation) from a scene dict.

    Malformed input raises ValueError; the finite-difference oracle
    layers its own consistency checks on top of this.
    """
    if not isinstance(data, dict):
        raise ValueError("a scene must be a JSON object")
    missing = [k for k in SCENE_FIELDS if k not in data]
    if missing:
        raise ValueError(f"scene is missing fields: {missing}")
    ep = data["endpoint"]
    if not isinstance(ep, dict):
        raise ValueError("scene 'endpoint' must be a JSON object")
    try:
        # one pass over the crossings; np.empty keeps the (n, 2) shape at n = 0
        pairs = list(map(itemgetter("s", "theta"), data["crossings"]))
        rows = np.array(pairs or np.empty((0, 2)), dtype=np.float64)
        length = float(data["chord_length"])
        weights = TransverseWeights(data["weights"])
        endpoints = EndpointVariation(
            **{k: float(ep.get(k, 0.0)) for k in ENDPOINT_FIELDS})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scene: {exc!r}") from exc
    cfg = ChordConfig(length, s=rows[:, 0], theta=rows[:, 1])
    _check_weights(cfg, weights)
    return cfg, weights, endpoints
