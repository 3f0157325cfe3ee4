"""Second-variation formulas against the finite-difference channel.

Every closed form here was frozen only after ``fd_oracle`` (and the
standalone Richardson measurements for the kinematic rates) agreed with
it; the sweeps below re-run a smaller version of that certification on
every test run.
"""

import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from systolica import halfplane, hessian
from systolica.errors import (DegenerateConfigurationError,
                              DegenerateMarginError, InconsistentSceneError)
from systolica.polygons import polygon_from_json
from systolica.halfplane import (
    HPoint,
    HTangent,
    geodesic_from_direction,
    geodesic_through,
    intersection_point,
    oriented_angle,
    rotate_tangent,
    translate_along,
    unit_toward,
)
from systolica.hessian import (
    ChordConfig,
    EndpointVariation,
    HalfplaneScene,
    TransverseWeights,
    fd_oracle,
    first_derivatives,
    hessian_form,
    hessian_margin,
    hessian_matrix,
    hessian_split,
    realize_scene,
    scene_from_json,
    scene_length,
    scene_to_json,
    shear_kinematics,
)

# The closed chord-length-2 endpoint Hessian at d = arccosh(2), i.e.
# (1/sinh d)[[cosh d, -1], [-1, cosh d]] with sinh d = sqrt(3).
N0_DIAG = 1.1547005383792517
N0_CROSS = -0.5773502691896258

# Two-crossing reference kernel: L = 2, crossings (0.7, 1.1), (1.4, 0.6).
REF_CFG = ChordConfig(2.0, s=(0.7, 1.4), theta=(1.1, 0.6))
REF_MATRIX = np.array([
    [2.4738304546629495, 1.4879591991912162, -1.9709142303266285, 1.255169005630943],
    [1.4879591991912162, 2.5498153186942383, -1.1854652182422678, 2.1508984653931407],
    [-1.9709142303266285, -1.1854652182422678, 3.7621956910836314, -1.0],
    [1.255169005630943, 2.1508984653931407, -1.0, 3.7621956910836314],
])


def random_config(rng, max_n=6, min_n=0):
    length = rng.uniform(0.8, 3.5)
    n = rng.randint(min_n, max_n)
    while True:
        ss = sorted(rng.uniform(0.05 * length, 0.95 * length) for _ in range(n))
        if all(b - a > 0.03 * length for a, b in zip(ss, ss[1:])):
            break
    theta = [rng.uniform(0.12 * math.pi, 0.88 * math.pi) for _ in ss]
    return ChordConfig(length=length, s=ss, theta=theta)


def random_scene(rng, max_n=6, min_n=0):
    cfg = random_config(rng, max_n=max_n, min_n=min_n)
    weights = TransverseWeights(tuple(rng.uniform(-1.2, 1.2) for _ in range(cfg.n)))
    endpoints = EndpointVariation(
        u_perp=rng.uniform(-1, 1), u_par=rng.uniform(-1, 1),
        v_perp=rng.uniform(-1, 1), v_par=rng.uniform(-1, 1))
    return realize_scene(cfg, weights, endpoints)


class TestConfigValidation:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            ChordConfig(0.0, (), ())

    def test_rejects_out_of_order_crossings(self):
        with pytest.raises(ValueError):
            ChordConfig(2.0, s=(1.4, 0.7), theta=(1.0, 1.0))

    @pytest.mark.parametrize("s", [2.0, 0.0, math.nan, math.inf, -math.inf])
    def test_rejects_crossing_outside_chord(self, s):
        # for most values crossing 1 is out of order too; the first is named
        with pytest.raises(ValueError, match="crossing 0 at s="):
            ChordConfig(2.0, s=(s, 1.5), theta=(1.0, 1.0))

    @pytest.mark.parametrize("theta", [math.pi, 0.0, math.nan])
    def test_rejects_angle_outside_range(self, theta):
        with pytest.raises(ValueError, match="crossing 1 angle"):
            ChordConfig(2.0, s=(0.5, 1.0), theta=(1.0, theta))

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_rejects_nonfinite_length(self, length):
        with pytest.raises(ValueError):
            ChordConfig(length, (), ())

    def test_rejects_unequal_positions_and_angles(self):
        with pytest.raises(ValueError):
            ChordConfig(2.0, s=(0.5, 1.0), theta=(1.0,))

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(ValueError):
            TransverseWeights((math.nan,))

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError):
            first_derivatives(REF_CFG, TransverseWeights((1.0,)))


class TestFirstDerivatives:
    def test_perpendicular_crossing_contributes_nothing(self):
        cfg = ChordConfig(2.0, s=(1.0,), theta=(math.pi / 2,))
        d_metric, _ = first_derivatives(cfg, TransverseWeights((5.0,)))
        assert d_metric == 0.0

    def test_metric_part_is_linear_in_weights(self):
        cfg = ChordConfig(2.0, s=(0.8, 1.3), theta=(math.pi / 2, math.pi / 3))
        d_metric, _ = first_derivatives(cfg, TransverseWeights((1.0, 2.0)))
        assert d_metric == pytest.approx(1.0, abs=1e-15)

    def test_endpoint_part_reads_outward_components(self):
        _, d_end = first_derivatives(
            ChordConfig(1.5, (), ()), TransverseWeights(()),
            EndpointVariation(u_par=0.25, v_par=-0.75, u_perp=3.0, v_perp=-2.0))
        assert d_end == pytest.approx(-0.5, abs=1e-15)

    def test_against_oracle(self):
        rng = random.Random(101)
        worst = 0.0
        for _ in range(30):
            scene = random_scene(rng)
            d_shear, d_end = fd_oracle(scene, 1)
            a_shear, a_end = first_derivatives(
                scene.cfg, scene.weights, scene.endpoints)
            worst = max(worst, abs(d_shear - a_shear), abs(d_end - a_end))
        assert worst < 1e-6


class TestHessianMatrix:
    def test_endpoint_block_at_arccosh_two(self):
        d = math.acosh(2.0)
        H = hessian_matrix(ChordConfig(d, (), ())) / math.sinh(d)
        expected = np.array([[N0_DIAG, N0_CROSS], [N0_CROSS, N0_DIAG]])
        assert np.max(np.abs(H - expected)) < 1e-15

    def test_two_crossing_reference_kernel(self):
        assert np.max(np.abs(hessian_matrix(REF_CFG) - REF_MATRIX)) < 1e-12

    def test_single_crossing_entry_magnitudes(self):
        # s = 1 on a chord of length 2: crossing diagonal cosh(1)^2, both
        # couplings of magnitude cosh(1), endpoint corner -1.
        H = hessian_matrix(ChordConfig(2.0, s=(1.0,), theta=(0.9,)))
        c1 = math.cosh(1.0)
        assert H[0, 0] == pytest.approx(c1 * c1, abs=1e-15)
        assert H[0, 1] == pytest.approx(-c1, abs=1e-15)
        assert H[0, 2] == pytest.approx(c1, abs=1e-15)
        assert H[1, 2] == -1.0
        assert np.linalg.eigvalsh(H)[0] > 0

    def test_positive_definite_on_random_sweep(self):
        rng = random.Random(77)
        worst = math.inf
        for _ in range(60):
            H = hessian_matrix(random_config(rng))
            worst = min(worst, np.linalg.eigvalsh(H)[0])
        assert worst > 0

    def test_diagonal_dominates_entrywise(self):
        rng = random.Random(78)
        for _ in range(20):
            H = hessian_matrix(random_config(rng, min_n=1))
            diag = np.diag(H)
            assert (np.abs(H) <= np.minimum.outer(diag, diag) + 1e-12).all()


class TestHessianForm:
    def test_single_leaf_anchor(self):
        cfg = ChordConfig(2.0, s=(1.0,), theta=(math.pi / 2,))
        value = hessian_form(cfg, TransverseWeights((1.0,)))
        assert value == pytest.approx(0.6565176427496656, abs=1e-12)

    def test_endpoint_anchor_two_tanh_one(self):
        value = hessian_form(
            ChordConfig(2.0, (), ()), TransverseWeights(()),
            EndpointVariation(u_perp=1.0, v_perp=1.0))
        assert value == pytest.approx(1.5231883119115297, abs=1e-12)

    def test_isotropic_on_chord_tangent_motion(self):
        cfg = REF_CFG
        value = hessian_form(
            cfg, TransverseWeights((0.0, 0.0)),
            EndpointVariation(u_par=0.8, v_par=-1.3))
        assert abs(value) < 1e-10

    def test_split_recomposes_form(self):
        rng = random.Random(5)
        for _ in range(25):
            scene = random_scene(rng)
            s2, mx, e2 = hessian_split(scene.cfg, scene.weights, scene.endpoints)
            total = hessian_form(scene.cfg, scene.weights, scene.endpoints)
            assert s2 + 2.0 * mx + e2 == pytest.approx(total, abs=1e-12)

    def test_against_oracle_split(self):
        rng = random.Random(202)
        worst = 0.0
        for _ in range(30):
            scene = random_scene(rng)
            f2 = fd_oracle(scene, 2)
            a2 = hessian_split(scene.cfg, scene.weights, scene.endpoints)
            worst = max(worst, max(abs(f - a) for f, a in zip(f2, a2)))
        assert worst < 1e-6

    def test_tangent_only_scene_is_flat_numerically(self):
        scene = realize_scene(
            REF_CFG, TransverseWeights((0.0, 0.0)),
            EndpointVariation(u_par=1.0, v_par=0.5))
        _, _, end2 = fd_oracle(scene, 2)
        assert abs(end2) < 1e-6

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.2, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_endpoint_form_rewrites_as_square_plus_tanh(self, a, b, d):
        # The pure-endpoint form has two equivalent closed shapes:
        # (cosh d (a^2+b^2) - 2ab)/sinh d and
        # (a-b)^2/sinh d + tanh(d/2)(a^2+b^2).
        form = hessian_form(
            ChordConfig(d, (), ()), TransverseWeights(()),
            EndpointVariation(u_perp=a, v_perp=b))
        rewritten = (a - b) ** 2 / math.sinh(d) + math.tanh(d / 2) * (a * a + b * b)
        assert form == pytest.approx(rewritten, abs=1e-11)

    def test_quadratic_in_weights(self):
        cfg = REF_CFG
        w = TransverseWeights((0.6, -0.9))
        w3 = TransverseWeights((1.8, -2.7))
        assert hessian_form(cfg, w3) == pytest.approx(
            9.0 * hessian_form(cfg, w), rel=1e-13)


class TestMargins:
    def test_midpoint_crossing_saturates_floor(self):
        rep = hessian_margin(ChordConfig(2.0, s=(1.0,), theta=(1.0,)))
        assert rep.epsilons == (1.0,)

    def test_reference_config_margins(self):
        rep = hessian_margin(REF_CFG)
        assert rep.epsilons == pytest.approx((0.7, 0.6))
        assert rep.eps_p == pytest.approx(0.7)
        assert rep.eps_q == pytest.approx(0.6)

    def test_no_crossings_raises(self):
        with pytest.raises(DegenerateMarginError):
            hessian_margin(ChordConfig(2.0, (), ()))

    def test_long_chord_margins_stay_finite(self):
        # cosh(s) near the far end of a chord this long overflows; the
        # margins are gaps and must not touch it
        cfg = ChordConfig(1000.0, s=(1e-3, 0.5, 999.0, 999.999),
                          theta=(1.0, 1.0, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = hessian_margin(cfg)
        assert np.isfinite(rep.epsilons).all()
        assert math.isfinite(rep.eps_p) and math.isfinite(rep.eps_q)
        assert rep.eps_p == 1e-3


class TestKinematics:
    def test_rotation_rate_anchor(self):
        cfg = ChordConfig(2.0, s=(0.5, 1.0), theta=(1.0, math.pi / 2))
        rates = shear_kinematics(cfg, 1, 0)
        assert rates.rho_prime == pytest.approx(0.4254590641196607, abs=1e-14)

    def test_slide_rate_anchor(self):
        cfg = ChordConfig(2.0, s=(0.5, 1.0), theta=(math.pi / 2, math.pi / 2))
        rates = shear_kinematics(cfg, 1, 0)
        assert rates.f_prime == pytest.approx(0.22170472099251845, abs=1e-14)

    def test_rotation_rate_limit_near_q(self):
        cfg = ChordConfig(2.0, s=(0.4, 2.0 - 1e-7), theta=(1.0, math.pi / 2))
        rates = shear_kinematics(cfg, 1, 0)
        assert rates.rho_prime == pytest.approx(1.0 / math.sinh(2.0), rel=1e-9)

    def test_frozen_reference_rates(self):
        rates = shear_kinematics(REF_CFG, 1, 0)
        assert rates.rho_prime == pytest.approx(0.18455742368906006, abs=1e-14)
        assert rates.f_prime == pytest.approx(0.15709279337006743, abs=1e-14)
        assert rates.dcos_theta == pytest.approx(0.20644886046988808, abs=1e-14)

    def test_watched_leaf_must_precede_sheared_leaf(self):
        with pytest.raises(ValueError):
            shear_kinematics(REF_CFG, 0, 1)
        with pytest.raises(ValueError):
            shear_kinematics(REF_CFG, 1, 1)
        with pytest.raises(ValueError):
            shear_kinematics(REF_CFG, 2, 0)

    def test_rates_against_moving_chord_measurement(self):
        rng = random.Random(909)
        worst = 0.0
        for _ in range(8):
            cfg = random_config(rng, max_n=4, min_n=2)
            h_idx = rng.randint(1, cfg.n - 1)
            l_idx = rng.randint(0, h_idx - 1)
            worst = max(worst, self._measured_gap(cfg, h_idx, l_idx))
        assert worst < 1e-6

    @staticmethod
    def _measured_gap(cfg, h_idx, l_idx):
        p = HPoint(0.0, 1.0)
        q = HPoint(0.0, math.exp(cfg.length))
        leaves = []
        for s, theta in zip(cfg.s.tolist(), cfg.theta.tolist()):
            base = HPoint(0.0, math.exp(s))
            up = HTangent(base, 0.0, base.y)
            leaves.append(geodesic_from_direction(base, rotate_tangent(up, theta)))
        leaf_h, leaf_l = leaves[h_idx], leaves[l_idx]

        def state(t):
            qt = translate_along(leaf_h, t).apply(q)
            chord = geodesic_through(p, qt)
            x = intersection_point(chord, leaf_l)
            ang_p = oriented_angle(HTangent(p, 0.0, 1.0), unit_toward(p, qt))
            slide = leaf_l.param_of(x)
            cos_th = math.cos(oriented_angle(
                chord.tangent_at(chord.param_of(x)),
                leaf_l.tangent_at(slide)))
            return ang_p, slide, cos_th

        # Intersection-point noise swamps small steps, so the measurement
        # uses a coarse pair of steps and Richardson extrapolation.
        def rate(idx, h=4e-3):
            def central(hh):
                plus, minus = state(hh), state(-hh)
                return (plus[idx] - minus[idx]) / (2.0 * hh)
            return (4.0 * central(h) - central(2.0 * h)) / 3.0

        rates = shear_kinematics(cfg, h_idx, l_idx)
        return max(abs(rate(0) - rates.rho_prime),
                   abs(rate(1) - rates.f_prime),
                   abs(rate(2) - rates.dcos_theta))


class TestSceneOracle:
    def test_rejects_mismatched_length(self):
        scene = random_scene(random.Random(3), min_n=1)
        stretched = ChordConfig(scene.cfg.length + 0.5, scene.cfg.s,
                                scene.cfg.theta)
        bad = HalfplaneScene(cfg=stretched, weights=scene.weights,
                             endpoints=scene.endpoints, p=scene.p, q=scene.q,
                             leaves=scene.leaves)
        with pytest.raises(InconsistentSceneError):
            fd_oracle(bad, 1)

    def test_rejects_clockwise_leaf(self):
        cfg = ChordConfig(2.0, s=(0.9,), theta=(1.2,))
        scene = realize_scene(cfg, TransverseWeights((1.0,)))
        base = HPoint(0.0, math.exp(0.9))
        up = HTangent(base, 0.0, base.y)
        mirrored = geodesic_from_direction(base, rotate_tangent(up, -1.2))
        bad = HalfplaneScene(cfg=cfg, weights=scene.weights,
                             endpoints=scene.endpoints, p=scene.p, q=scene.q,
                             leaves=(mirrored,))
        with pytest.raises(InconsistentSceneError):
            fd_oracle(bad, 2)

    def test_rejects_unknown_order(self):
        scene = random_scene(random.Random(4))
        with pytest.raises(ValueError):
            fd_oracle(scene, 3)

    def test_scene_json_round_trip(self):
        cfg = REF_CFG
        weights = TransverseWeights((0.4, -1.1))
        endpoints = EndpointVariation(u_perp=0.2, v_par=-0.6)
        blob = json.dumps(scene_to_json(cfg, weights, endpoints))
        cfg2, w2, ev2 = scene_from_json(json.loads(blob))
        assert np.array_equal(cfg2.length, cfg.length)
        assert np.array_equal(cfg2.s, cfg.s)
        assert np.array_equal(cfg2.theta, cfg.theta)
        assert np.array_equal(w2.weights, weights.weights)
        assert ev2 == endpoints

    def test_scene_json_missing_field(self):
        data = scene_to_json(REF_CFG, TransverseWeights((0.0, 0.0)))
        del data["weights"]
        with pytest.raises(ValueError):
            scene_from_json(data)

    def test_scene_json_weight_count_mismatch(self):
        data = scene_to_json(REF_CFG, TransverseWeights((0.0, 0.0)))
        data["weights"] = [1.0]
        with pytest.raises(ValueError):
            scene_from_json(data)


def _scene_with(**fields):
    data = scene_to_json(REF_CFG, TransverseWeights((0.0, 0.0)))
    data.update(fields)
    return data


@pytest.mark.parametrize("reader, data", [
    (scene_from_json, _scene_with(crossings=[{"s": 0.7}])),
    (scene_from_json, _scene_with(crossings=5)),
    (scene_from_json, _scene_with(crossings=[0.7, 1.4])),
    (scene_from_json, _scene_with(crossings=[{"s": [0.7], "theta": [1.1]},
                                             {"s": [1.4], "theta": [0.6]}])),
    (scene_from_json, _scene_with(endpoint=[])),
    (scene_from_json, _scene_with(weights=5)),
    (scene_from_json, _scene_with(chord_length=None)),
    (scene_from_json, 5),
    (polygon_from_json, 5),
    (polygon_from_json, {"sides": [1.0] * 5, "n": None}),
    (polygon_from_json, {"sides": [1.0] * 5, "coords": 5}),
])
def test_json_readers_raise_value_error_on_malformed_input(reader, data):
    with pytest.raises(ValueError):
        reader(data)


def test_every_export_resolves():
    for name in hessian.__all__:
        getattr(hessian, name)


# ---------------------------------------------------------------------------
# the O(n) prefix-sum kernel against the dense matrix and a 40-digit reference

EPS = np.finfo(float).eps


def long_scene(rng, n, length):
    """n crossings spread over the whole chord, random angles, weights
    and endpoint motion; the chord-kernel benchmark's scene shape."""
    ss = sorted(rng.uniform(0.0, length) for _ in range(n))
    theta = [rng.uniform(0.15, math.pi - 0.15) for _ in ss]
    cfg = ChordConfig(length, s=ss, theta=theta)
    weights = TransverseWeights(tuple(rng.uniform(-1, 1) for _ in range(n)))
    endpoints = EndpointVariation(
        u_perp=rng.uniform(-1, 1), u_par=rng.uniform(-1, 1),
        v_perp=rng.uniform(-1, 1), v_par=rng.uniform(-1, 1))
    return cfg, weights, endpoints


@st.composite
def chord_scenes(draw, max_n=200):
    n = draw(st.integers(0, max_n))
    length = draw(st.floats(0.5, 10.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cfg, weights, endpoints = long_scene(rng, n, length)
    if draw(st.booleans()):
        # one sign throughout, so rounding errors cannot cancel
        weights = TransverseWeights(tuple(abs(w) for w in weights.weights))
    return cfg, weights, endpoints


def form_vectors(cfg, weights, endpoints):
    """The shear and endpoint halves of the form vector in the slot
    layout of ``hessian_matrix``."""
    x = np.zeros(cfg.n + 2)
    x[:cfg.n] = np.sin(cfg.theta) * weights.weights
    e = np.zeros(cfg.n + 2)
    e[cfg.n:] = endpoints.u_perp, endpoints.v_perp
    return x, e


def mp_split(cfg, weights, endpoints, dps=40):
    """``(shear2, mixed, end2)`` by the same prefix sum at ``dps``
    digits, together with the same three parts for ``|y|`` in place of
    ``y = (x, -u_perp, v_perp)``.  Negating the p slot makes every
    kernel entry positive, so the second triple is ``|y|^T G |y|`` split
    the same way: the numerator of each part's condition number."""
    with mp.workdps(dps):
        L = mp.mpf(cfg.length)
        u, v = mp.mpf(endpoints.u_perp), mp.mpf(endpoints.v_perp)
        # xc and xd are the running sums of x c and x d, xc_abs and
        # xd_abs those of their magnitudes
        s2 = s2_abs = xc = xd = xc_abs = xd_abs = 0
        for s, theta, a in zip(cfg.s.tolist(), cfg.theta.tolist(),
                               weights.weights.tolist()):
            x = mp.sin(mp.mpf(theta)) * mp.mpf(a)
            xc_j = x * mp.cosh(mp.mpf(s))
            xd_j = x * mp.cosh(L - mp.mpf(s))
            s2 += xd_j * (xc_j + 2 * xc)
            s2_abs += abs(xd_j) * (abs(xc_j) + 2 * xc_abs)
            xc += xc_j
            xd += xd_j
            xc_abs += abs(xc_j)
            xd_abs += abs(xd_j)
        cosh_L, sinh_L = mp.cosh(L), mp.sinh(L)
        signed = (s2, v * xc - u * xd,
                  cosh_L * (u * u + v * v) - 2 * u * v)
        absolute = (s2_abs, abs(v) * xc_abs + abs(u) * xd_abs,
                    cosh_L * (u * u + v * v) + 2 * abs(u * v))
        return ([float(t / sinh_L) for t in signed],
                [float(t / sinh_L) for t in absolute])


class TestPrefixSumKernel:
    @given(chord_scenes())
    @example((ChordConfig(2.0, (), ()), TransverseWeights(()),
              EndpointVariation(u_perp=0.3, v_perp=-0.7)))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_matrix(self, scene):
        # Both sides add up n + 2 rounded products in different orders;
        # recursive summation errs by at most about (n + 2) eps times the
        # sum of the magnitudes (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., sec. 4.2), and each side has two
        # such sums, so the gap is held to 4 (n + 2) eps |y|^T |H| |y|.
        cfg, weights, endpoints = scene
        H = hessian_matrix(cfg) / math.sinh(cfg.length)
        x, e = form_vectors(cfg, weights, endpoints)
        budget = 4 * (cfg.n + 2) * EPS
        got = hessian_split(cfg, weights, endpoints)
        for value, a, b in zip(got, (x, x, e), (x, e, e)):
            scale = np.abs(a) @ np.abs(H) @ np.abs(b)
            assert abs(value - a @ H @ b) <= budget * scale
        y, y_abs = x + e, np.abs(x) + np.abs(e)
        form = hessian_form(cfg, weights, endpoints)
        assert abs(form - y @ H @ y) <= budget * (y_abs @ np.abs(H) @ y_abs)

    @pytest.mark.parametrize("n", [1448, 10_000])
    @pytest.mark.parametrize("length", [1.0, 10.0])
    def test_tracks_the_40_digit_reference(self, n, length):
        # The error of each part is held to 8 eps cond times its value,
        # cond = |y|^T G |y| / |y^T G y| from the 40-digit evaluation.
        # The observed error stays below 1 eps cond at these sizes; a
        # recursive-summation worst case would grow like n eps cond.
        cfg, weights, endpoints = long_scene(
            random.Random(n + int(length)), n, length)
        ref, ref_abs = mp_split(cfg, weights, endpoints)
        got = hessian_split(cfg, weights, endpoints)
        for value, want, scale in zip(got, ref, ref_abs):
            assert abs(value - want) <= 8 * EPS * scale
        form = hessian_form(cfg, weights, endpoints)
        want = ref[0] + 2 * ref[1] + ref[2]
        scale = ref_abs[0] + 2 * ref_abs[1] + ref_abs[2]
        assert abs(form - want) <= 8 * EPS * scale

    def test_form_and_split_never_build_the_matrix(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("hessian_matrix called")

        monkeypatch.setattr(hessian, "hessian_matrix", refuse)
        cfg, weights, endpoints = long_scene(random.Random(8), 50, 4.0)
        hessian_form(cfg, weights, endpoints)
        hessian_split(cfg, weights, endpoints)
        hessian_margin(cfg)


def brute_margins(cfg):
    """Nearest marked point of every crossing by all-pairs search."""
    pos = cfg.s.tolist()
    L = cfg.length
    return tuple(
        min([abs(s - t) for j, t in enumerate(pos) if j != i] + [s, L - s])
        for i, s in enumerate(pos))


GAPS = st.sampled_from([0.1, 0.125, 0.25, 0.3, 0.5])


class TestAdjacentGapMargins:
    @given(st.lists(GAPS, min_size=2, max_size=40))
    @example([0.25, 0.25, 0.25, 0.25])
    @example([0.1, 0.1, 0.1, 0.3, 0.1, 0.1])
    @settings(max_examples=80, deadline=None)
    def test_matches_all_pairs_search(self, gaps):
        # Gaps drawn from a few values put equal adjacent gaps in most
        # examples: exact ties for the binary fractions, last-bit near
        # ties for 0.1 and 0.3 once they are accumulated.
        ss = list(np.cumsum(gaps))
        cfg = ChordConfig(ss[-1], s=ss[:-1], theta=[1.0] * (len(ss) - 1))
        rep = hessian_margin(cfg)
        assert rep.epsilons == brute_margins(cfg)
        assert rep.eps_p == cfg.s[0]
        assert rep.eps_q == cfg.length - cfg.s[-1]


# ---------------------------------------------------------------------------
# chords beyond the float range

class TestLongChords:
    @pytest.mark.parametrize("length", [711.0, 1000.0])
    def test_kernels_reject_chords_whose_sinh_overflows(self, length):
        cfg = ChordConfig(length, s=(1.0, length - 1.0), theta=(1.0, 2.0))
        weights = TransverseWeights((0.5, -0.5))
        for kernel in (lambda: hessian_form(cfg, weights),
                       lambda: hessian_split(cfg, weights),
                       lambda: shear_kinematics(cfg, 1, 0),
                       lambda: hessian_matrix(cfg)):
            with pytest.raises(DegenerateConfigurationError):
                kernel()

    def test_longest_chord_is_accepted(self):
        longest = hessian.MAX_CHORD_LENGTH
        assert math.isfinite(math.sinh(longest))
        cfg = ChordConfig(longest, s=(1.0, 2.0), theta=(1.0, 2.0))
        rates = shear_kinematics(cfg, 1, 0)
        assert math.isfinite(rates.rho_prime) and rates.rho_prime > 0
        beyond = ChordConfig(math.nextafter(longest, math.inf), s=(1.0, 2.0),
                             theta=(1.0, 2.0))
        with pytest.raises(DegenerateConfigurationError):
            shear_kinematics(beyond, 1, 0)


# ---------------------------------------------------------------------------
# the oracle's grid: each shear and each endpoint pair built once

@st.composite
def oracle_scenes(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    length = draw(st.floats(1.0, 6.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return realize_scene(*long_scene(rng, n, length))


class TestOracleGrid:
    @given(oracle_scenes())
    @settings(max_examples=30, deadline=None)
    def test_oracle_is_the_difference_quotients_of_scene_length(self, scene):
        h = hessian.FD_STEP

        def D(i, j):
            return scene_length(scene, i * h, j * h)

        assert fd_oracle(scene, 1) == (
            (D(1, 0) - D(-1, 0)) / (2.0 * h),
            (D(0, 1) - D(0, -1)) / (2.0 * h))
        assert fd_oracle(scene, 2) == (
            (D(1, 0) - 2.0 * D(0, 0) + D(-1, 0)) / (h * h),
            (D(1, 1) - D(1, -1) - D(-1, 1) + D(-1, -1)) / (4.0 * h * h),
            (D(0, 1) - 2.0 * D(0, 0) + D(0, -1)) / (h * h))

    def test_oracle_composes_each_shear_once(self, monkeypatch):
        translate = halfplane.translate_along
        calls = []

        def counted(g, t):
            calls.append(t)
            return translate(g, t)

        monkeypatch.setattr(halfplane, "translate_along", counted)
        scene = realize_scene(*long_scene(random.Random(9), 12, 3.0))
        for order in (1, 2):
            calls.clear()
            fd_oracle(scene, order)
            # one leaf translation per leaf for shear_t = -h and for +h
            assert len(calls) == 2 * scene.cfg.n
