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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import halfplane
from .errors import (DegenerateMarginError, InconsistentSceneError,
                     SystolicaError)

__all__ = [
    "LeafCrossing",
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
    "scene_to_json",
    "scene_from_json",
]


@dataclass(frozen=True)
class LeafCrossing:
    """One transverse leaf: position ``s`` along the chord and crossing
    angle ``theta`` in ``(0, pi)`` measured counterclockwise from the
    forward chord direction."""

    s: float
    theta: float


@dataclass(frozen=True)
class ChordConfig:
    """A chord of length ``length`` with ordered transverse crossings.


    Raises
    ------
    ValueError
        If the length is not positive, a crossing sits outside the open
        chord, the crossings are not strictly increasing in ``s``, or an
        angle leaves ``(0, pi)``.
    """

    length: float
    crossings: tuple[LeafCrossing, ...]

    def __post_init__(self):
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError("chord length must be positive and finite")
        object.__setattr__(self, "crossings", tuple(self.crossings))
        prev = 0.0
        for c in self.crossings:
            if not (prev < c.s < self.length):
                raise ValueError(
                    f"crossing at s={c.s!r} outside the chord or out of order")
            if not 0.0 < c.theta < math.pi:
                raise ValueError(f"crossing angle {c.theta!r} outside (0, pi)")
            prev = c.s

    @property
    def n(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
class TransverseWeights:
    """Shear rates, one per crossing of the configuration."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if any(not math.isfinite(w) for w in self.weights):
            raise ValueError("shear weights must be finite")


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
    d_metric = sum(a * math.sin(0.5 * math.pi - c.theta)
                   for a, c in zip(weights.weights, cfg.crossings))
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
    ``hessian_split`` evaluate the same form in O(n) without it.
    """
    n = cfg.n
    L = cfg.length
    t = np.array([c.s for c in cfg.crossings] + [0.0, L])
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
    """
    _check_weights(cfg, weights)
    L = cfg.length
    scale = math.sinh(L)
    s = np.array([c.s for c in cfg.crossings])
    theta = np.array([c.theta for c in cfg.crossings])
    x = np.sin(theta) * np.array(weights.weights)
    xc = x * np.cosh(s)
    xd = x * np.cosh(L - s)
    shear2 = float(xc @ xd) + 2.0 * float(xd[1:] @ np.cumsum(xc)[:-1])
    u, v = endpoints.u_perp, endpoints.v_perp
    mixed = v * float(xc.sum()) - u * float(xd.sum())
    end2 = math.cosh(L) * (u * u + v * v) - 2.0 * u * v
    return shear2 / scale, mixed / scale, end2 / scale


@dataclass(frozen=True)
class MarginReport:
    """Separation margins and the stability weights they certify.

    ``epsilons[i]`` is the distance from crossing ``i`` to its nearest
    neighbour among the other crossings and both endpoints; ``eps_p``
    and ``eps_q`` are the end gaps.  ``drops`` hold the exact diagonal
    surplus of the kernel over its dominance comparison (always strictly
    positive), while ``bounds`` are the closed-form floors
    ``cosh(s_i) sinh(L - s_i - eps_i) eps_i``, which may saturate to
    zero when a margin exhausts the distance to the far endpoint.
    """

    epsilons: tuple[float, ...]
    eps_p: float
    eps_q: float
    bounds: tuple[float, ...]
    bound_p: float
    bound_q: float
    drops: tuple[float, ...]
    drop_p: float
    drop_q: float


def _cosh_drop(b, e):
    # cosh(b) - cosh(b - e), written as a product so the saturated case
    # b == e comes out exactly positive instead of a cancellation of
    # nearly equal cosh values.  Works elementwise on arrays.
    return 2.0 * np.sinh(b - 0.5 * e) * np.sinh(0.5 * e)


def hessian_margin(cfg: ChordConfig) -> MarginReport:
    """Separation margins of the marked points and the diagonal surplus
    they generate in the second-variation kernel.

    For each slot the report carries the exact surplus of the kernel
    diagonal over its value with the margin spent,

    ``drops[i]  = cosh(s_i) (cosh(L - s_i) - cosh(L - s_i - eps_i))``,

    and the classical mean-value floor under it,

    ``bounds[i] = cosh(s_i) sinh(L - s_i - eps_i) eps_i``,

    with endpoint analogues ``cosh(L) - cosh(L - eps)`` over
    ``sinh(L - eps) eps``.  Drops are strictly positive; a floor
    saturates to zero exactly when the margin reaches the far endpoint.

    These are separation diagnostics, not a certified lower bound on
    the quadratic form: subtracting the drops from the diagonal does
    not in general leave a positive-semidefinite matrix once two or
    more crossings are present (random sparse configurations produce
    eigenvalues below -1), even though the kernel itself is always
    positive definite by its Gram factorization.  Use the eigenvalues
    of ``hessian_matrix`` for quantitative positivity; that dense
    matrix is the O(n^2) reference, not something this report builds.

    The crossings are sorted, so a crossing's nearest marked point is
    one of its two neighbours: ``epsilons`` is the smaller of the two
    adjacent gaps in ``diff([0, s_1, ..., s_n, L])``, O(n) numpy work.

    Raises
    ------
    DegenerateMarginError
        If the configuration has no crossings (there is no gap
        structure to report), or a margin exceeds the distance to the
        far endpoint, which cannot happen for margins derived from the
        configuration itself.
    """
    L = cfg.length
    if cfg.n == 0:
        raise DegenerateMarginError("no crossings: nothing to separate")
    s = np.array([c.s for c in cfg.crossings])
    gaps = np.diff(np.concatenate(([0.0], s, [L])))
    eps = np.minimum(gaps[:-1], gaps[1:])
    far = L - s
    over = eps > far
    if over.any():
        i = int(over.argmax())
        raise DegenerateMarginError(
            f"margin {eps[i].item()!r} at s={s[i].item()!r} exceeds the "
            "far-endpoint gap")
    eps_p, eps_q = float(gaps[0]), float(gaps[-1])
    cosh_s = np.cosh(s)
    return MarginReport(
        epsilons=tuple(eps.tolist()), eps_p=eps_p, eps_q=eps_q,
        bounds=tuple((cosh_s * np.sinh(far - eps) * eps).tolist()),
        bound_p=math.sinh(L - eps_p) * eps_p,
        bound_q=math.sinh(L - eps_q) * eps_q,
        drops=tuple((cosh_s * _cosh_drop(far, eps)).tolist()),
        drop_p=float(_cosh_drop(L, eps_p)),
        drop_q=float(_cosh_drop(L, eps_q)),
    )


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

    Indices are 0-based positions into ``cfg.crossings``; ``l_index``
    must be strictly smaller than ``h_index`` (the leaf being watched
    crosses the chord nearer to ``p`` than the leaf being sheared).
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
    L = cfg.length
    sh = cfg.crossings[h_index]
    sl = cfg.crossings[l_index]
    sinh_L = math.sinh(L)
    rho_prime = math.cosh(L - sh.s) * math.sin(sh.theta) / sinh_L
    f_prime = (math.cosh(L - sh.s) * math.sinh(sl.s) * math.sin(sh.theta)
               / (sinh_L * math.sin(sl.theta)))
    dcos_theta = (math.cosh(sl.s) * math.cosh(L - sh.s)
                  * math.sin(sl.theta) * math.sin(sh.theta) / sinh_L)
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
    for c in cfg.crossings:
        base = halfplane.HPoint(0.0, math.exp(c.s))
        up = halfplane.HTangent(base, 0.0, base.y)
        leaves.append(halfplane.geodesic_from_direction(
            base, halfplane.rotate_tangent(up, c.theta)))
    return HalfplaneScene(cfg=cfg, weights=weights, endpoints=endpoints,
                          p=p, q=q, leaves=tuple(leaves))


def scene_length(scene: HalfplaneScene, shear_t: float, end_t: float) -> float:
    """Deformed chord length: endpoints moved a parameter ``end_t``
    along their variation vectors, the far side of each leaf sheared by
    ``shear_t`` times its weight (leaves composed from ``q`` inward, so
    the leaf nearest ``p`` acts last)."""
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
    pt = halfplane.exp_point(u, end_t) if halfplane.norm(u) > 0 else scene.p
    qt = halfplane.exp_point(v, end_t) if halfplane.norm(v) > 0 else scene.q
    iso = halfplane.HIsometry.identity()
    for leaf, a in zip(scene.leaves, scene.weights.weights):
        iso = iso @ halfplane.translate_along(leaf, shear_t * a)
    return halfplane.dist(pt, iso.apply(qt))


def _measure_scene(scene: HalfplaneScene):
    """Re-derive (length, [(s, theta)]) from the realized geometry."""
    chord = halfplane.geodesic_through(scene.p, scene.q)  # s = 0 at p
    length = halfplane.dist(scene.p, scene.q)
    crossings = []
    for leaf in scene.leaves:
        x = halfplane.intersection_point(chord, leaf)
        s = chord.param_of(x)
        theta = halfplane.oriented_angle(
            chord.tangent_at(s),
            leaf.tangent_at(leaf.param_of(x)))
        crossings.append((s, theta))
    return length, crossings


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
        length, crossings = _measure_scene(scene)
    except SystolicaError as exc:
        raise InconsistentSceneError(
            f"scene geometry is not a transverse chord configuration: {exc}"
        ) from exc
    if abs(length - scene.cfg.length) > 1e-10:
        raise InconsistentSceneError(
            f"realized chord length {length!r} != {scene.cfg.length!r}")
    if len(crossings) != scene.cfg.n:
        raise InconsistentSceneError("crossing count mismatch")
    for (s, theta), c in zip(crossings, scene.cfg.crossings):
        if abs(s - c.s) > 1e-10 or abs(theta - c.theta) > 1e-10:
            raise InconsistentSceneError(
                f"leaf measured at (s={s!r}, theta={theta!r}) but declared "
                f"(s={c.s!r}, theta={c.theta!r})")
    h = FD_STEP
    D = scene_length
    if order == 1:
        d_shear = (D(scene, h, 0.0) - D(scene, -h, 0.0)) / (2.0 * h)
        d_end = (D(scene, 0.0, h) - D(scene, 0.0, -h)) / (2.0 * h)
        return d_shear, d_end
    if order == 2:
        grid = {(i, j): D(scene, i * h, j * h)
                for i in (-1, 0, 1) for j in (-1, 0, 1)}
        shear2 = (grid[1, 0] - 2.0 * grid[0, 0] + grid[-1, 0]) / (h * h)
        end2 = (grid[0, 1] - 2.0 * grid[0, 0] + grid[0, -1]) / (h * h)
        mixed = (grid[1, 1] - grid[1, -1] - grid[-1, 1] + grid[-1, -1]) / (4.0 * h * h)
        return shear2, mixed, end2
    raise ValueError(f"order must be 1 or 2, got {order!r}")


# ---------------------------------------------------------------------------
# scene serialization

SCENE_FIELDS = ("chord_length", "crossings", "weights", "endpoint")


def scene_to_json(cfg: ChordConfig, weights: TransverseWeights,
                  endpoints: EndpointVariation = ZERO_ENDPOINTS) -> dict:
    """Serialize a full variation scene (geometry + rates) to a dict."""
    _check_weights(cfg, weights)
    return {
        "chord_length": cfg.length,
        "crossings": [{"s": c.s, "theta": c.theta} for c in cfg.crossings],
        "weights": list(weights.weights),
        "endpoint": {
            "u_perp": endpoints.u_perp,
            "u_par": endpoints.u_par,
            "v_perp": endpoints.v_perp,
            "v_par": endpoints.v_par,
        },
    }


def scene_from_json(data: dict) -> tuple[ChordConfig, TransverseWeights, EndpointVariation]:
    """Rebuild (config, weights, endpoint variation) from a scene dict.

    Structural problems raise ValueError; the finite-difference oracle
    layers its own consistency checks on top of this.
    """
    missing = [k for k in SCENE_FIELDS if k not in data]
    if missing:
        raise ValueError(f"scene is missing fields: {missing}")
    crossings = tuple(LeafCrossing(float(c["s"]), float(c["theta"]))
                      for c in data["crossings"])
    cfg = ChordConfig(length=float(data["chord_length"]), crossings=crossings)
    weights = TransverseWeights(tuple(float(w) for w in data["weights"]))
    _check_weights(cfg, weights)
    ep = data["endpoint"]
    endpoints = EndpointVariation(
        u_perp=float(ep.get("u_perp", 0.0)),
        u_par=float(ep.get("u_par", 0.0)),
        v_perp=float(ep.get("v_perp", 0.0)),
        v_par=float(ep.get("v_par", 0.0)),
    )
    return cfg, weights, endpoints
