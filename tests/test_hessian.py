"""Second-variation formulas against the oracle that differentiates a
realized half-plane scene.

Every closed form here was frozen only after ``fd_oracle`` agreed with
it; the sweeps below re-run a smaller version of that certification on
every test run.  ``fd_oracle`` differentiates by Taylor jets; the
finite differences it replaced stay in tests/reference.py as a second,
independent route, tested here with their own budgets.
"""

import dataclasses
import json
import math
import random
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from systolica import hessian
from systolica.errors import (DegenerateConfigurationError, InconsistentSceneError,
                              SystolicaError)
from systolica.polygons import polygon_from_json
from systolica.halfplane import HPoint, _frame_through, _unit, common_perpendicular
from systolica.hessian import (
    ChordConfig,
    EndpointVariation,
    HalfplaneScene,
    TransverseWeights,
    fd_oracle,
    first_derivatives,
    hessian_form,
    hessian_margin,
    hessian_split,
    realize_scene,
    scene_from_json,
)

import reference
from reference import (HTangent, geodesic_from_direction, hessian_matrix, rotate_tangent,
                       scene_to_json)

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["u_perp", "u_par", "v_perp", "v_par"])
    def test_rejects_nonfinite_endpoint_component(self, field, value):
        # unchecked, it reaches hessian_split as a NaN form and fd_oracle
        # as a chord that leaves the float half-plane
        with pytest.raises(ValueError, match=field):
            EndpointVariation(**{field: value})

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError):
            first_derivatives(REF_CFG, TransverseWeights((1.0,)))

    def test_arrays_are_private(self):
        # a writable array, a read-only view of one and a view of a
        # bytearray are copied: writing through the source afterwards
        # leaves the configs and weights as built
        source = np.array([0.5, 1.0, 1.5])
        view = source[:]
        view.setflags(write=False)
        buffer = bytearray(source.tobytes())
        built = [(ChordConfig(2.0, s=a, theta=a), TransverseWeights(a))
                 for a in (source, view, np.frombuffer(buffer))]
        source[0] = 0.7
        buffer[:8] = np.float64(0.7).tobytes()
        for cfg, weights in built:
            assert cfg.s.tolist() == cfg.theta.tolist() == [0.5, 1.0, 1.5]
            assert weights.weights.tolist() == [0.5, 1.0, 1.5]
            # the marks kept from the check for hessian_margin are read-only too
            assert cfg._marks.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
            assert not cfg._marks.flags.writeable
        # a float64 vector over immutable bytes is kept as it is; over
        # bytes but float32 or strided, it is copied
        packed = np.array([0.5, 0.75, 1.0, 1.25, 1.5]).tobytes()
        frozen = np.frombuffer(packed)
        assert ChordConfig(8.0, s=frozen, theta=frozen).s is frozen
        single = np.array([0.5, 1.0, 1.5], dtype=np.float32).tobytes()
        for given in (np.frombuffer(single, dtype=np.float32), frozen[::2]):
            assert ChordConfig(2.0, s=given, theta=given).s is not given

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("i", [0, 2, 4])
    @pytest.mark.parametrize("field, value", [
        ("s", "before"), ("s", "equal"), ("s", 0.0), ("s", -0.5), ("s", 3.0),
        ("s", 3.5), ("s", math.nan), ("s", math.inf), ("s", -math.inf),
        ("theta", 0.0), ("theta", math.pi), ("theta", -1.0), ("theta", math.nan),
    ])
    def test_refusal_names_the_first_bad_crossing(self, i, field, value):
        # ChordConfig decides in one pass and explains only a refusal; the
        # message must still name the crossing this loop finds first
        s, theta = list(FIVE_S), list(FIVE_THETA)
        if field == "theta":
            theta[i] = value
        elif value in ("before", "equal"):
            # out of order against a neighbour: crossing 0 against crossing 1
            j = i - 1 if i else 1
            s[i] = s[j] + (0.0 if value == "equal" else -0.25 if i else 0.25)
        else:
            s[i] = value
        with pytest.raises(ValueError) as info:
            ChordConfig(FIVE_L, s=np.array(s), theta=tuple(theta))
        assert str(info.value) == first_refusal(FIVE_L, s, theta)


FIVE_L = 3.0
FIVE_S = (0.5, 1.0, 1.5, 2.0, 2.5)
FIVE_THETA = (0.3, 0.9, 1.5, 2.1, 2.7)
THREE_CFG = ChordConfig(3.0, s=(0.5, 1.0, 1.5), theta=(1.0, 1.5, 2.0))


def first_refusal(length, s, theta):
    """The message that names the first crossing outside the open chord,
    out of order or with its angle outside (0, pi), found by a loop."""
    previous = 0.0
    for i, (x, angle) in enumerate(zip(s, theta)):
        if not previous < x < length:
            return f"crossing {i} at s={x!r} outside the chord or out of order"
        if not 0.0 < angle < math.pi:
            return f"crossing {i} angle {angle!r} outside (0, pi)"
        previous = x
    return None


# values injected into a column of a random config: the ends of the chord
# and of the angle range, both zeros, non-finite values, and "equal", a copy
# of the neighbour before (of the one after, at the first slot)
INJECTED = (math.nan, math.inf, -math.inf, 0.0, -0.0, "L", math.pi, "equal")


@pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
def test_checks_agree_with_a_loop_on_injected_values(n):
    # ChordConfig and TransverseWeights decide by argmin and argmax over
    # their arrays; a loop over the values must accept and refuse the same
    # inputs, name the same first bad crossing and find the same top rate
    rng = random.Random(2800 + n)
    slots = sorted({0, n // 2, n - 1}) if n else []
    for _ in range(60):
        length = rng.uniform(0.5, 10.0)
        columns = {"s": sorted(rng.uniform(0.0, length) for _ in range(n)),
                   "theta": [rng.uniform(0.0, math.pi) for _ in range(n)],
                   "rates": [rng.uniform(-2.0, 2.0) * 2.0 ** rng.randint(-600, 1020)
                             for _ in range(n)]}
        for _ in range(rng.randint(0, 2) if n else 0):
            values, slot = columns[rng.choice(list(columns))], rng.choice(slots)
            value = rng.choice(INJECTED)
            if value == "L":
                value = length
            elif value == "equal":
                value = values[slot - 1 if slot else min(1, n - 1)]
            values[slot] = value
        s, theta, rates = columns["s"], columns["theta"], columns["rates"]
        want = first_refusal(length, s, theta)
        if want is None:
            cfg = ChordConfig(length, s=np.array(s), theta=np.array(theta))
            assert cfg.s.tolist() == s and cfg.theta.tolist() == theta
        else:
            with pytest.raises(ValueError) as info:
                ChordConfig(length, s=np.array(s), theta=np.array(theta))
            assert str(info.value) == want
        if not all(abs(a) < math.inf for a in rates):
            with pytest.raises(ValueError, match="shear weights must be finite"):
                TransverseWeights(np.array(rates))
            continue
        weights = TransverseWeights(np.array(rates))
        k = math.frexp(max(map(abs, rates), default=0.0))[1] + n.bit_length()
        assert weights._sum_unit == 2.0 ** max(0, k - 510)
        assert weights._walk_unit == 2.0 ** min(1023, max(0, k))


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

    @pytest.mark.parametrize("weights, ends", [
        ((1e308, 1e308), EndpointVariation()),
        ((0.5, 1.0), EndpointVariation(u_par=1e308, v_par=1e308))],
        ids=["rates", "outward-speeds"])
    def test_parts_beyond_the_float_range_are_refused(self, weights, ends):
        # the shear part overflows in the dot product, the endpoint part
        # in u_par + v_par; neither may warn or come back infinite
        cfg = ChordConfig(2.0, (0.5, 1.0), (0.1, 0.2))
        with pytest.raises(DegenerateConfigurationError):
            first_derivatives(cfg, TransverseWeights(weights), ends)

    def test_rates_whose_bound_overflows_keep_a_finite_part(self):
        # n max|a| overflows, but the sum itself is a float; each term
        # rounds to a few ulps of 1e308 (the cosine and the product),
        # which the difference keeps
        cfg = ChordConfig(2.0, (0.5, 1.0), (0.1, 0.2))
        d_metric, _ = first_derivatives(cfg, TransverseWeights((1e308, -1e308)))
        want = 1e308 * math.cos(0.1) - 1e308 * math.cos(0.2)
        assert d_metric == pytest.approx(want, rel=0.0, abs=8 * EPS * 1e308)

    def test_a_small_rate_beside_a_huge_perpendicular_one_keeps_its_part(self):
        # the perpendicular crossing adds exactly 0, so the part is the
        # 1e-30 term's alone: the unit that keeps 1e300 summable must not
        # flush it to 0
        cfg = ChordConfig(2.0, (0.5, 1.0), (math.pi / 2, 1.0))
        d_metric, _ = first_derivatives(cfg, TransverseWeights((1e300, 1e-30)))
        assert d_metric == pytest.approx(1e-30 * math.cos(1.0), rel=4 * EPS, abs=0.0)

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

    @pytest.mark.parametrize("weight, endpoints, split_refused", [
        (1e200, EndpointVariation(), True),  # the kernel sums overflow
        (1.0, EndpointVariation(u_perp=1e200), True),  # end2 overflows
        (1.5e154, EndpointVariation(v_perp=6e153), False),  # only their sum
    ])
    def test_values_beyond_the_float_range_are_refused(self, weight, endpoints,
                                                       split_refused):
        # finite input whose second variation is not a float: typed, and
        # without numpy's overflow warning (tier-1 turns it into an error)
        cfg, weights = ChordConfig(2.0, (1.0,), (1.0,)), TransverseWeights((weight,))
        if split_refused:
            with pytest.raises(DegenerateConfigurationError, match="parts"):
                hessian_split(cfg, weights, endpoints)
        else:
            assert all(map(math.isfinite, hessian_split(cfg, weights, endpoints)))
        with pytest.raises(DegenerateConfigurationError):
            hessian_form(cfg, weights, endpoints)

    def test_rates_up_to_2_to_the_400_sum_without_overflow(self):
        # the kernel sums run in the weights' power-of-two unit, 1 at these
        # rates: at the longest chord, with crossings near both ends, no
        # sum may overflow or warn (tier-1 turns warnings into errors)
        L = hessian.MAX_CHORD_LENGTH
        cfg = ChordConfig(L, s=(0.5, L - 0.5), theta=(math.pi / 2, 1.0))
        split = hessian_split(cfg, TransverseWeights((2.0 ** 400, -(2.0 ** 400))))
        assert all(map(math.isfinite, split)) and split[0] > 0.0

    @pytest.mark.parametrize("rate", [1e200, 1e300])
    def test_a_near_tangent_leaf_of_huge_rate_keeps_its_square(self, rate):
        # x = sin(theta) a is about 1 at theta = 1/rate; a unit near the
        # rate itself would scale x^2 below the float range, and shear2
        # must stay x^2 cosh(1)^2 / sinh(2), as for a unit rate
        cfg = ChordConfig(2.0, (1.0,), (1.0 / rate,))
        x = math.sin(1.0 / rate) * rate
        shear2, _, _ = hessian_split(cfg, TransverseWeights((rate,)))
        want = x * x * math.cosh(1.0) ** 2 / math.sinh(2.0)
        assert shear2 == pytest.approx(want, rel=8 * EPS, abs=0.0)

    def test_rates_of_2_to_the_1023_are_refused_at_the_longest_chord(self):
        # the kernel sums run in a unit of 2^516 here: none may overflow
        # or warn, and shear2, about 2^2046 once scaled back, is refused
        # typed
        L = hessian.MAX_CHORD_LENGTH
        cfg = ChordConfig(L, s=(0.5, L - 0.5), theta=(math.pi / 2, 1.0))
        weights = TransverseWeights((2.0 ** 1023, -(2.0 ** 1023)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateConfigurationError, match="parts"):
                hessian_split(cfg, weights)
            with pytest.raises(DegenerateConfigurationError):
                hessian_form(cfg, weights)


class TestMargins:
    def test_midpoint_crossing_saturates_floor(self):
        rep = hessian_margin(ChordConfig(2.0, s=(1.0,), theta=(1.0,)))
        assert tuple(rep.epsilons) == (1.0,)

    def test_reference_config_margins(self):
        rep = hessian_margin(REF_CFG)
        assert tuple(rep.epsilons) == pytest.approx((0.7, 0.6))
        assert rep.eps_p == pytest.approx(0.7)
        assert rep.eps_q == pytest.approx(0.6)

    def test_no_crossings_leave_the_chord_as_the_one_gap(self):
        # marks [0, L], one gap: no crossing has a margin, and both end
        # gaps are the chord, as hessian_split has (0, 0, 0) to split
        cfg = ChordConfig(2.0, (), ())
        rep = hessian_margin(cfg)
        assert rep.epsilons.dtype == np.float64 and rep.epsilons.shape == (0,)
        assert not rep.epsilons.flags.writeable
        assert rep.eps_p == rep.eps_q == 2.0
        assert hessian_split(cfg, TransverseWeights(())) == (0.0, 0.0, 0.0)

    def test_epsilons_are_a_read_only_float64_array(self):
        rep = hessian_margin(REF_CFG)
        assert isinstance(rep.epsilons, np.ndarray)
        assert rep.epsilons.dtype == np.float64 and rep.epsilons.shape == (2,)
        with pytest.raises(ValueError):
            rep.epsilons[0] = 1.0
        # a report holds an array, so it compares by identity, not by value
        again = hessian_margin(REF_CFG)
        assert rep != again and tuple(rep.epsilons) == tuple(again.epsilons)

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

    @pytest.mark.parametrize("theta", [1.2, math.pi / 2])
    @pytest.mark.parametrize("flip", ["mirrored", "reversed"])
    def test_rejects_clockwise_leaf(self, theta, flip):
        # At pi/2 both flips are the leaf reversed, (b, -a, d, -c): it
        # crosses at the declared unsigned angle, so only the sign of the
        # measured angle refuses it.
        cfg = ChordConfig(2.0, s=(0.9,), theta=(theta,))
        scene = realize_scene(cfg, TransverseWeights((1.0,)))
        if flip == "mirrored":
            base = HPoint(0.0, math.exp(0.9))
            up = HTangent(base, 0.0, base.y)
            row = geodesic_from_direction(base, rotate_tangent(up, -theta)).frame
        else:
            a, b, c, d = scene.leaves[0]
            row = (b, -a, d, -c)
        bad = HalfplaneScene(cfg=cfg, weights=scene.weights,
                             endpoints=scene.endpoints, p=scene.p, q=scene.q,
                             leaves=[row])
        with pytest.raises(InconsistentSceneError):
            fd_oracle(bad, 2)

    @pytest.mark.parametrize("row", [
        (4.0, 2.0, 1.0, 1.0),    # the half-circle from 2 to 4, beside the chord
        (1.0, 1.0, 0.0, 1.0),    # the vertical over 1, asymptotic at infinity
        (2.0, 0.0, 1.0, 1.0),    # the half-circle from 0 to 2, asymptotic at 0
        (0.5, -0.5, 1.0, 1.0),   # crosses the chord's geodesic below p
    ])
    def test_rejects_leaf_missing_the_chord(self, row):
        cfg = ChordConfig(2.0, s=(0.5, 1.0), theta=(1.0, 1.0))
        scene = realize_scene(cfg, TransverseWeights((1.0, 1.0)))
        bad = HalfplaneScene(cfg=cfg, weights=scene.weights,
                             endpoints=scene.endpoints, p=scene.p, q=scene.q,
                             leaves=[scene.leaves[0], row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconsistentSceneError, match="leaf 1"):
                fd_oracle(bad, 1)

    @pytest.mark.parametrize("leaves", [
        [(1.0, 0.0, 0.0)],                    # not four entries
        [1.0, 0.0, 0.0, 1.0],                 # not one row per leaf
        [(1.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0)],    # determinant 0
        [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)],    # determinant -1
        [(1.0, 0.0, 0.0, 1.0), (math.nan, 0.0, 0.0, 1.0)],
        [(1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, math.inf)],
        # det 7e-218 is normal, but the last entry over its root passes
        # the float range
        [(1.0, 0.0, 0.0, 1.0),
         (0.0, 5e-324, -1.4205162362562467e+106, -1.1227006134817266e+280)],
        # the determinant overflows in a product, then in the difference
        [(1.0, 0.0, 0.0, 1.0), (1e200, 0.0, 0.0, 1e200)],
        [(1.0, 0.0, 0.0, 1.0), (1e154, 1e154, -1e154, 1e154)],
        [(1.0, 0.0, 0.0, 1.0), ("1", "0", "0", "1")],    # numeric strings
        [(1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0, 0.0)],
    ])
    def test_scene_rejects_malformed_leaves(self, leaves):
        scene = realize_scene(REF_CFG, TransverseWeights((1.0, 1.0)))
        with pytest.raises(ValueError):
            HalfplaneScene(cfg=REF_CFG, weights=scene.weights,
                           endpoints=scene.endpoints, p=scene.p, q=scene.q,
                           leaves=leaves)

    def test_scene_rejects_counts_that_disagree_with_its_config(self):
        # the walk would broadcast one weight over every leaf, or zip
        # weights and leaves of different counts, so the scene refuses
        # to be built
        cfg = ChordConfig(3.0, s=(0.5, 1.5, 2.5), theta=(1.0, 2.0, 0.5))
        scene = realize_scene(cfg, TransverseWeights((0.7, -0.2, 0.4)))
        for weights, leaves, message in [
                (TransverseWeights((0.7,)), scene.leaves, "1 weights for 3 crossings"),
                (scene.weights, scene.leaves[:1], "1 leaves for 3 crossings"),
                (scene.weights, np.tile(scene.leaves, (2, 1)),
                 "6 leaves for 3 crossings")]:
            with pytest.raises(ValueError, match=message):
                HalfplaneScene(cfg=cfg, weights=weights, endpoints=scene.endpoints,
                               p=scene.p, q=scene.q, leaves=leaves)

    def test_scene_leaves_are_a_normalized_private_copy(self):
        scene = realize_scene(REF_CFG, TransverseWeights((1.0, 1.0)))
        rows = np.array(scene.leaves)
        given = 4.0 * rows
        scaled = HalfplaneScene(cfg=REF_CFG, weights=scene.weights,
                                endpoints=scene.endpoints, p=scene.p,
                                q=scene.q, leaves=given)
        # rows has determinant one to rounding, so rescaling 4 rows by
        # sqrt(16 det) = 4 sqrt(det) moves each entry by an ulp at most
        assert np.allclose(scaled.leaves, rows, rtol=2 * EPS, atol=0.0)
        # the determinant of each stored row is one to the rounding of
        # its entries (1.5 eps each, from the square root and division)
        # and of the determinant itself
        a, b, c, d = np.array(scaled.leaves).T
        assert (np.abs(a * d - b * c - 1.0)
                <= 4 * EPS * (np.abs(a * d) + np.abs(b * c))).all()
        # the rows are tuples of floats, taken from the caller's array,
        # which may change after the fact
        stored = scaled.leaves
        given[0, 0] = 1.0
        assert scaled.leaves == stored and stored[0][0] != 1.0
        assert type(stored) is tuple
        assert all(type(row) is tuple and all(type(x) is float for x in row) for row in stored)
        with pytest.raises(TypeError):
            scene.leaves[0][0] = 1.0

    def test_stored_rows_are_unit_of_the_input_rows(self):
        # Each stored row is exactly halfplane._unit of the given row, on
        # realized rows scaled over 40 decades, on rows so small that det
        # leaves the normal range or underflows, on random rows of either
        # determinant sign made positive, and on rows with entries beyond
        # 2^511, whose products overflow; given as an array, as lists of
        # floats, or as rows of numpy scalars, which are read as floats.
        rng = np.random.default_rng(17)
        n = 64
        cfg = ChordConfig(8.0, s=np.linspace(0.1, 7.9, n), theta=np.full(n, 1.3))
        base = realize_scene(cfg, TransverseWeights(np.ones(n)))
        leaves = np.array(base.leaves)
        scaled = leaves * 10.0 ** rng.uniform(-20.0, 20.0, (n, 1))
        tiny = leaves * 10.0 ** rng.uniform(-175.0, -150.0, (n, 1))
        noise = rng.normal(size=(n, 4))
        a, b, c, d = noise.T
        noise[a * d < b * c] = noise[a * d < b * c][:, [1, 0, 3, 2]]  # det -> -det
        wide = leaves * 2.0 ** np.array([-560.0, -560.0, 560.0, 560.0])
        for rows in (scaled, tiny, noise, wide):
            want = tuple(_unit(row) for row in rows.tolist())
            for leaves in (rows, rows.tolist(), list(rows)):
                scene = dataclasses.replace(base, leaves=leaves)
                assert scene.leaves == want
                assert all(type(x) is float for row in scene.leaves for x in row)
        # float32 scalars are read exactly, then normalized in float64
        single = list(scaled.astype(np.float32))
        scene = dataclasses.replace(base, leaves=single)
        assert scene.leaves == tuple(_unit(tuple(map(float, row))) for row in single)

    def test_a_chord_without_crossings_takes_an_empty_sequence(self):
        cfg = ChordConfig(2.0, s=(), theta=())
        scene = realize_scene(cfg, TransverseWeights(()), EndpointVariation(v_par=0.3))
        assert scene.leaves == ()
        for leaves in ((), [], np.empty((0, 4))):
            empty = dataclasses.replace(scene, leaves=leaves)
            assert empty.leaves == () and fd_oracle(empty, 2) == fd_oracle(scene, 2)

    def test_realize_rejects_a_chord_whose_far_end_overflows(self):
        # e^L leaves the float range above log(float max) = 709.78..., below
        # MAX_CHORD_LENGTH, so q = i e^L cannot be placed
        cfg = ChordConfig(709.9, s=(1.0, 2.0), theta=(1.0, 1.0))
        with pytest.raises(DegenerateConfigurationError):
            realize_scene(cfg, TransverseWeights((1.0, 1.0)))

    def test_rejects_unknown_order(self):
        scene = random_scene(random.Random(4))
        with pytest.raises(ValueError):
            fd_oracle(scene, 3)

    @pytest.mark.parametrize("order", [True, False, 1.0, 2.0, np.float64(2.0), "2", None])
    def test_order_must_be_the_int_1_or_2(self, order):
        # True == 1 and 2.0 == 2, but neither is an order
        scene = random_scene(random.Random(4))
        with pytest.raises(ValueError, match="order"):
            fd_oracle(scene, order)
        assert fd_oracle(scene, np.int64(2)) == fd_oracle(scene, 2)

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

    def test_scene_json_arrays_cannot_be_made_writeable(self):
        # they are read-only views of immutable bytes, so they are not copied
        cfg, weights, _ = scene_from_json(
            scene_to_json(REF_CFG, TransverseWeights((0.4, -1.1))))
        # all three view the one buffer that one conversion made
        assert type(cfg.s.base) is bytes
        assert cfg.s.base is cfg.theta.base is weights.weights.base
        for a in (cfg.s, cfg.theta, weights.weights):
            with pytest.raises(ValueError):
                a.setflags(write=True)

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

    @pytest.mark.parametrize("faults, first", [
        # a rate is checked before the crossings are
        ({"weights": [0.1, math.inf, 0.3], "s": [0.5, 1.0, 0.2]}, "shear weights must be finite"),
        # the endpoint before the crossings
        ({"endpoint": {"u_prep": 0.3}, "theta": [4.0, 1.5, 2.0]}, TypeError),
        # the crossings before the weight count
        ({"s": [0.5, 1.0, 0.2], "weights": [0.1]},
         "crossing 2 at s=0.2 outside the chord or out of order"),
        # a value that is not a number before a rate that is not finite
        ({"s": ["0.5", 1.0, 1.5], "weights": [0.1, 0.2, math.nan]}, struct.error),
        # a crossing without theta before the chord length
        ({"chord_length": math.inf, "theta": [1.0, None, 2.0]}, KeyError),
        # the JSON numbers before a crossing without s
        ({"endpoint": {"v_par": "0.5"}, "s": [None, 1.0, 1.5]},
         "scene 'chord_length' and 'endpoint' values must be an array of JSON numbers in "
         "the float range, got [3.0, '0.5']"),
        # the chord length before the crossings
        ({"chord_length": -1.0, "theta": [4.0, 1.5, 2.0]},
         "chord length must be positive and finite, got -1.0"),
        # the first bad crossing, whichever column is bad
        ({"s": [-1.0, 1.0, 1.5], "theta": [1.0, 1.5, 0.0]},
         "crossing 0 at s=-1.0 outside the chord or out of order"),
    ], ids=["rate-order", "endpoint-angle", "order-count", "string-nan", "theta-length",
            "json-s", "length-angle", "s-angle"])
    def test_scene_json_with_two_faults_reports_the_first(self, faults, first):
        # the one conversion and the checks keep the order in which the
        # scene's fields were read column by column; None in a column
        # removes that field of the crossing
        data = scene_to_json(THREE_CFG, TransverseWeights((0.1, 0.2, 0.3)))
        for field, value in faults.items():
            if field in ("s", "theta"):
                for crossing, x in zip(data["crossings"], value):
                    if x is None:
                        del crossing[field]
                    else:
                        crossing[field] = x
            else:
                data[field] = value
        with pytest.raises(ValueError) as info:
            scene_from_json(data)
        if isinstance(first, str):
            assert str(info.value) == first
        else:
            assert type(info.value.__cause__) is first


def _scene_with(**fields):
    data = scene_to_json(REF_CFG, TransverseWeights((0.0, 0.0)))
    data.update(fields)
    return data


def _last_slot_scenes():
    """A three-crossing scene with a string, None, a nested array or an
    integer beyond the floats in the last slot of each column, and one
    whose last crossing lacks theta."""
    for column in ("s", "theta", "weights"):
        for bad in ("0.5", None, [0.5], 10**400):
            data = scene_to_json(THREE_CFG, TransverseWeights((0.1, 0.2, 0.3)))
            if column == "weights":
                data["weights"][-1] = bad
            else:
                data["crossings"][-1][column] = bad
            yield data
    data = scene_to_json(THREE_CFG, TransverseWeights((0.1, 0.2, 0.3)))
    del data["crossings"][-1]["theta"]
    yield data


@pytest.mark.parametrize("reader, data", [
    (scene_from_json, _scene_with(crossings=[{"s": 0.7}])),
    (scene_from_json, _scene_with(crossings=5)),
    (scene_from_json, _scene_with(crossings=[0.7, 1.4])),
    (scene_from_json, _scene_with(crossings=[{"s": [0.7], "theta": [1.1]},
                                             {"s": [1.4], "theta": [0.6]}])),
    (scene_from_json, _scene_with(endpoint=[])),
    (scene_from_json, _scene_with(endpoint={"u_prep": 0.3})),  # a typo
    (scene_from_json, _scene_with(endpoint={"v_par": math.inf})),
    (scene_from_json, _scene_with(weights=5)),
    (scene_from_json, _scene_with(chord_length=None)),
    (scene_from_json, _scene_with(chord_length="2")),
    (scene_from_json, _scene_with(chord_length=True, crossings=[], weights=[])),
    (scene_from_json, _scene_with(endpoint={"u_perp": True})),
    (scene_from_json, _scene_with(endpoint={"v_par": "0.5"})),
    (scene_from_json, 5),
    (polygon_from_json, 5),
    (polygon_from_json, {"sides": [True, 1.0, 1.0, 1.0, "1.5"]}),
    (polygon_from_json, {"sides": [1.0, 1.0, 1.0, 1.0, "1.5"]}),
    (polygon_from_json, {"sides": [1.0, 1.0, 1.0, True, 1.5]}),
    (polygon_from_json, {"sides": [1.0] * 5, "n": None}),
    (polygon_from_json, {"sides": [1.0] * 6, "n": 6.7}),
    (polygon_from_json, {"sides": [1.0] * 6, "n": "6"}),
    (polygon_from_json, {"sides": [1.0] * 5, "coords": 5}),
    # integers beyond the float range, and values that are not numbers
    (scene_from_json, _scene_with(chord_length=10**400)),
    (scene_from_json, _scene_with(weights=[10**400, 0.0])),
    (scene_from_json, _scene_with(endpoint={"u_perp": 10**400})),
    (scene_from_json, _scene_with(crossings=[{"s": 10**400, "theta": 1.1},
                                             {"s": 1.4, "theta": 0.6}])),
    (scene_from_json, _scene_with(crossings=[{"s": 0.7, "theta": 10**400},
                                             {"s": 1.4, "theta": 0.6}])),
    (scene_from_json, _scene_with(crossings=[{"s": "0.7", "theta": 1.1},
                                             {"s": 1.4, "theta": 0.6}])),
    (scene_from_json, _scene_with(crossings=[{"s": None, "theta": 1.1},
                                             {"s": 1.4, "theta": 0.6}])),
    (scene_from_json, _scene_with(crossings=[{"s": 0.7, "theta": "1.1"},
                                             {"s": 1.4, "theta": 0.6}])),
    (scene_from_json, _scene_with(crossings=[{"s": 0.7, "theta": None},
                                             {"s": 1.4, "theta": 0.6}])),
    (scene_from_json, _scene_with(weights=["0.1", 0.0])),
    (scene_from_json, _scene_with(weights=[None, 0.0])),
    (polygon_from_json, {"sides": [10**400, 1.0, 1.0, 1.0, 1.0]}),
    (polygon_from_json, {"sides": [1.0] * 6, "coords": [10**400, 1.0, 1.0]}),
    *((scene_from_json, data) for data in _last_slot_scenes()),
])
def test_json_readers_raise_value_error_on_malformed_input(reader, data):
    with pytest.raises(ValueError):
        reader(data)


@pytest.mark.parametrize("build, args, kwargs", [
    # an integer beyond the float range, a numeric string and None, each
    # refused where float() would raise OverflowError or parse the string
    (ChordConfig, (10**400, (), ()), {}),
    (ChordConfig, ("3.0", (), ()), {}),
    (ChordConfig, (None, (), ()), {}),
    (ChordConfig, (3.0,), {"s": (10**400,), "theta": (1.0,)}),
    (ChordConfig, (3.0,), {"s": ("1.0",), "theta": ("1.0",)}),
    (ChordConfig, (3.0,), {"s": (None,), "theta": (1.0,)}),
    (TransverseWeights, ((10**400,),), {}),
    (TransverseWeights, (("0.5",),), {}),
    (TransverseWeights, ((None,),), {}),
    (EndpointVariation, (), {"u_perp": 10**400}),
    (EndpointVariation, (), {"u_perp": "0.5"}),
    (EndpointVariation, (), {"v_par": None}),
])
def test_constructors_raise_value_error_on_malformed_input(build, args, kwargs):
    with pytest.raises(ValueError):
        build(*args, **kwargs)


def typed_or_none(call, *args, **kwargs):
    """call(*args, **kwargs), or None where it raises ValueError or a
    SystolicaError; any other exception escapes."""
    try:
        return call(*args, **kwargs)
    except (ValueError, SystolicaError):
        return None


signed_extremes = st.tuples(st.floats(1e-300, 1e300), st.booleans()).map(
    lambda v: -v[0] if v[1] else v[0])


@settings(max_examples=150, deadline=None)
@given(st.lists(signed_extremes, min_size=19, max_size=19))
@example([-1e300, 1e-6, -1e-300, 0.3, 1.0, 5.0, 1e-12, 1e6, 710.0]
         + [1e200, 0.0, 0.0, 1e200] + [2.0, 1e200, 1.0, 1e200, 1.0, 1.0])
def test_extreme_floats_fail_typed_or_give_finite_floats(v):
    # Finite floats from 1e-300 to 1e300 in magnitude, either sign, through
    # the points, geodesics and scenes built of them: only ValueError or a
    # SystolicaError may escape (warnings are errors in tier-1), and every
    # float returned is finite.
    assert (typed_or_none(HPoint, v[0], v[1]) is None) == (v[1] < 0)
    points = [typed_or_none(HPoint, x, abs(y)) for x, y in zip(v[0:8:2], v[1:8:2])]
    g, h = (typed_or_none(reference.geodesic_through, *points[k:k + 2]) for k in (0, 2))
    for geodesic in (g, h):
        if geodesic is not None:
            for s in (v[8], -v[8], math.log(abs(v[8]))):
                foot = typed_or_none(reference.point_at, geodesic, s)
                assert foot is None or math.isfinite(foot.x) and math.isfinite(foot.y)
    if g is not None and h is not None:
        cp = typed_or_none(common_perpendicular, g, h)
        assert cp is None or math.isfinite(cp.length)
        feet = typed_or_none(reference.perpendicular_feet, g, h)
        assert feet is None or all(math.isfinite(foot.x) and math.isfinite(foot.y)
                                   for foot in feet)
    scene = typed_or_none(HalfplaneScene, cfg=ChordConfig(2.0, (1.0,), (1.0,)),
                          weights=TransverseWeights((1.0,)), endpoints=EndpointVariation(),
                          p=HPoint(0.0, 1.0), q=HPoint(0.0, math.exp(2.0)), leaves=[v[9:13]])
    assert scene is None or np.isfinite(scene.leaves).all()
    length = abs(v[13])
    cfg = typed_or_none(ChordConfig, length, (0.5 * length,), (min(abs(v[14]), 3.0),))
    weights = TransverseWeights((v[15],))
    endpoints = EndpointVariation(u_perp=v[16], u_par=v[17], v_perp=v[18])
    if cfg is not None:
        split = typed_or_none(hessian_split, cfg, weights, endpoints)
        assert split is None or all(map(math.isfinite, split))
        form = typed_or_none(hessian_form, cfg, weights, endpoints)
        assert form is None or math.isfinite(form)


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


@settings(max_examples=60, deadline=None)
@given(chord_scenes(max_n=50))
def test_scene_json_round_trip_is_exact(scene):
    cfg, weights, endpoints = scene
    cfg2, w2, ev2 = scene_from_json(scene_to_json(cfg, weights, endpoints))
    assert cfg2.length == cfg.length
    assert cfg2.s.dtype == cfg2.theta.dtype == w2.weights.dtype == np.float64
    assert cfg2.s.shape == cfg2.theta.shape == w2.weights.shape == (cfg.n,)
    assert (cfg2.s == cfg.s).all() and (cfg2.theta == cfg.theta).all()
    assert (w2.weights == weights.weights).all()
    assert ev2 == endpoints


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

    def test_form_then_split_sum_the_prefix_once(self):
        # chord-kernel asks hessian_form and hessian_split of one scene;
        # the second call reads the weight-dependent sums of the first
        cfg, weights, endpoints = long_scene(random.Random(5), 300, 4.0)
        memo = hessian._shear_sums
        memo.cache_clear()
        form = hessian_form(cfg, weights, endpoints)
        split = hessian_split(cfg, weights, endpoints)
        assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)
        assert form == split[0] + 2.0 * split[1] + split[2]
        # new endpoints reuse the sums; new weights, even equal ones, do not
        assert hessian_split(cfg, weights) == (split[0], 0.0, 0.0)
        again = TransverseWeights(weights.weights)
        assert hessian_split(cfg, again, endpoints) == split
        assert (memo.cache_info().misses, memo.cache_info().hits) == (2, 2)
        # the memo is invisible: a fresh config of the same data agrees bit for bit
        fresh = ChordConfig(cfg.length, cfg.s.tolist(), cfg.theta.tolist())
        assert hessian_split(fresh, TransverseWeights(weights.weights.tolist()),
                             endpoints) == split
        assert first_derivatives(fresh, weights, endpoints) == \
            first_derivatives(cfg, weights, endpoints)

    def test_form_and_split_never_build_the_matrix(self):
        # At n = 2000 the dense kernel is 32 MB; the O(n) paths allocate
        # a few arrays of n floats, 16 kB each.
        cfg, weights, endpoints = long_scene(random.Random(8), 2000, 4.0)
        tracemalloc.start()
        hessian_form(cfg, weights, endpoints)
        hessian_split(cfg, weights, endpoints)
        hessian_margin(cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1_000_000


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
        assert tuple(rep.epsilons) == brute_margins(cfg)
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
                       lambda: hessian_matrix(cfg)):
            with pytest.raises(DegenerateConfigurationError):
                kernel()

    @pytest.mark.parametrize("ends", [
        EndpointVariation(), EndpointVariation(u_perp=0.3, v_perp=-0.7)])
    def test_split_stays_finite_at_the_longest_chord(self, ends):
        # Every term depends on L through e^{-L} or e^{-2L} factors next
        # to O(e^{s}) ones, so beyond L = 60 the form moves by less than
        # e^{-56} relative, and the longest chord must give the L = 60
        # value to rounding: a few roundings per term.
        weights = TransverseWeights((1.0, 1.0))
        longest, near = (ChordConfig(length, s=(1.0, 2.0), theta=(1.0, 1.0))
                         for length in (hessian.MAX_CHORD_LENGTH, 60.0))
        got = hessian_split(longest, weights, ends)
        assert np.isfinite(got).all()
        assert got == pytest.approx(hessian_split(near, weights, ends),
                                    rel=8 * EPS, abs=0.0)
        assert hessian_form(longest, weights, ends) == pytest.approx(
            hessian_form(near, weights, ends), rel=8 * EPS, abs=0.0)

    def test_oracle_refuses_a_gap_without_a_float_exponential(self):
        # L = 720 from p = 1e-160 i, beyond what realize_scene places:
        # the gap from the crossing at 0.5 to q has no float e^gap, which
        # must be refused with a typed error rather than warn or overflow
        y0, r, c, s = 1e-160, math.exp(0.25), math.cos(0.5), math.sin(0.5)
        k = math.sqrt(y0)  # the leaf's frame D(log y0) times realize_scene's
        scene = HalfplaneScene(
            cfg=ChordConfig(720.0, s=(0.5,), theta=(1.0,)),
            weights=TransverseWeights((1.0,)), endpoints=EndpointVariation(),
            p=HPoint(0.0, y0), q=HPoint(0.0, y0 * math.exp(360.0) * math.exp(360.0)),
            leaves=[(r * c * k, r * s * k, -s / r / k, c / r / k)])
        for order in (1, 2):
            with pytest.raises(DegenerateConfigurationError, match="exponential"):
                fd_oracle(scene, order)

    def test_longest_chord_is_accepted(self):
        longest = hessian.MAX_CHORD_LENGTH
        assert math.isfinite(math.sinh(longest))
        weights = TransverseWeights((1.0, 1.0))
        cfg = ChordConfig(longest, s=(1.0, 2.0), theta=(1.0, 2.0))
        shear2, _, _ = hessian_split(cfg, weights)
        assert math.isfinite(shear2) and shear2 > 0
        beyond = ChordConfig(math.nextafter(longest, math.inf), s=(1.0, 2.0),
                             theta=(1.0, 2.0))
        with pytest.raises(DegenerateConfigurationError):
            hessian_split(beyond, weights)


# ---------------------------------------------------------------------------
# the finite-difference reference's grid, and the oracle's one pass per scene

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
        # the finite-difference reference in tests/reference.py
        h = reference.FD_STEP

        def D(i, j):
            return reference.scene_length(scene, i * h, j * h)

        assert reference.fd_differences(scene, 1) == (
            (D(1, 0) - D(-1, 0)) / (2.0 * h),
            (D(0, 1) - D(0, -1)) / (2.0 * h))
        assert reference.fd_differences(scene, 2) == (
            (D(1, 0) - 2.0 * D(0, 0) + D(-1, 0)) / (h * h),
            (D(1, 1) - D(1, -1) - D(-1, 1) + D(-1, -1)) / (4.0 * h * h),
            (D(0, 1) - 2.0 * D(0, 0) + D(0, -1)) / (h * h))

    @pytest.mark.parametrize("orders", [(1, 2), (2, 1)])
    def test_oracle_composes_each_shear_once(self, monkeypatch, orders):
        jet, measure = hessian._oracle_jet, hessian._measure_leaf
        passes, measured = [], []

        def counted(scene):
            passes.append(scene)
            return jet(scene)

        def counted_measure(row):
            measured.append(row)
            return measure(row)

        monkeypatch.setattr(hessian, "_oracle_jet", counted)
        monkeypatch.setattr(hessian, "_measure_leaf", counted_measure)
        scene = realize_scene(*long_scene(random.Random(9), 12, 3.0))
        for order in orders * 2:
            fd_oracle(scene, order)
        # over both orders on one scene, each asked twice: one pass,
        # which measures each of the 12 leaves once and gives both
        # Taylor coefficients
        assert passes == [scene]
        assert len(measured) == 12

    def test_grid_builds_only_the_chord(self, built):
        # the chord's frame, the endpoint turns, the shear jet and the
        # distance jet are entries: one oracle pass makes no object
        scene = realize_scene(*long_scene(random.Random(9), 12, 3.0))
        assert scene.endpoints != EndpointVariation()
        built.clear()
        fd_oracle(scene, 2)
        assert built == {}

    def test_inconsistent_scene_raises_on_every_call(self):
        # the test_rejects_mismatched_length construction
        scene = random_scene(random.Random(3), min_n=1)
        stretched = ChordConfig(scene.cfg.length + 0.5, scene.cfg.s,
                                scene.cfg.theta)
        bad = HalfplaneScene(cfg=stretched, weights=scene.weights,
                             endpoints=scene.endpoints, p=scene.p, q=scene.q,
                             leaves=scene.leaves)
        for order in (1, 2, 1, 2):
            with pytest.raises(InconsistentSceneError):
                fd_oracle(bad, order)

    @given(oracle_scenes(max_n=12))
    @settings(max_examples=20, deadline=None)
    def test_call_order_does_not_change_the_results(self, scene):
        # two realizations of one configuration, asked in opposite orders
        twin = realize_scene(scene.cfg, scene.weights, scene.endpoints)
        first, second = fd_oracle(scene, 1), fd_oracle(scene, 2)
        assert (fd_oracle(twin, 2), fd_oracle(twin, 1)) == (second, first)

    def test_scene_endpoints_are_private_copies(self):
        scene = realize_scene(REF_CFG, TransverseWeights((0.4, -1.1)),
                              EndpointVariation(u_perp=0.2, v_par=-0.6))
        p, q = HPoint(scene.p.x, scene.p.y), HPoint(scene.q.x, scene.q.y)
        copy = HalfplaneScene(cfg=REF_CFG, weights=scene.weights,
                              endpoints=scene.endpoints, p=p, q=q,
                              leaves=scene.leaves)
        want = fd_oracle(copy, 2)
        p.y, q.x = 2.0, 0.5  # a caller-held point changes after the fact
        assert (copy.p.y, copy.q.x) == (scene.p.y, scene.q.x)
        assert fd_oracle(copy, 2) == want == fd_oracle(scene, 2)

    @given(oracle_scenes(),
           st.one_of(st.sampled_from([reference.FD_STEP, -reference.FD_STEP]),
                     st.floats(-2.0, 2.0)))
    @example(realize_scene(ChordConfig(1.0, s=(0.08, 0.13, 0.76, 0.8),
                                       theta=(1.38, 2.21, 0.31, 1.41)),
                           TransverseWeights((0.44, -0.54, 0.89, 0.8))),
             2.225073858507e-311)
    @settings(max_examples=40, deadline=None)
    def test_shear_is_the_ordered_product_of_leaf_translations(self, scene, t):
        # The reference is the exact (50-digit) chain
        # D(s_1) K_1 D(s_2 - s_1) ... K_n D(L - s_n) of the same floats.
        # The float chain is D(L) (I + Psi_n) with
        # Psi_i = D(-g_i) (Psi_{i-1} K_i + E_i) D(g_i).  Taking each numpy
        # function within 4 ulps (8u, u = eps/2), E errs by at most 20u
        # of its absolute value (sinh, sinh^2, cos and sin), K = I + E by
        # 21u, and e^{+-g} for a gap rounded to u g by (8 + L) u; with the
        # step's own 2u and the scaling's u, each step errs by at most
        # (32 + L) u of its absolute terms, and by induction
        # |delta Psi_n| <= (32 + L) n u |Psi|_n, where |Psi| is the chain
        # of absolute values.  In the coordinates of M that is
        # D(s_{i+1}) |Psi|_i = A_i, with A_0 = 0 and
        # A_i = A_{i-1} (I + |E_i|) D(g_i) + D(s_i) |E_i| D(g_i).  The
        # final D(L) (I + Psi) adds 4u |M| (exp, the sum and the
        # product).  A rounding that underflows (a subnormal t) errs by an
        # absolute half of the smallest subnormal instead: adding tiny/u
        # to each |E| entry carries that through A.  |E| is even in t, so
        # the chains at +t and -t are held to the same A.
        cfg, w = scene.cfg, scene.weights.weights
        u, tiny = EPS / 2, np.nextafter(0.0, 1.0)
        x = 0.5 * t * w
        e_diag = 2.0 * np.sinh(0.5 * x) ** 2 + np.abs(np.sinh(x) * np.cos(cfg.theta))
        e_off = np.abs(np.sinh(x) * np.sin(cfg.theta))
        A = np.zeros((2, 2))
        for s, gap, ed, eo in zip(cfg.s, np.diff(cfg.s, append=cfg.length),
                                  e_diag + tiny / u, e_off + tiny / u):
            E = np.array([[ed, eo], [eo, ed]])
            g = np.diag([math.exp(0.5 * gap), math.exp(-0.5 * gap)])
            A = A @ (np.eye(2) + E) @ g + np.diag(
                [math.exp(0.5 * s), math.exp(-0.5 * s)]) @ E @ g
        for sign in (1, -1):
            got = reference.shear_chain(cfg.length, cfg.s, cfg.theta, w, sign * t)
            with mp.workdps(50):
                want = np.array(mp_chain(cfg.length, cfg.s, cfg.theta, w,
                                         sign * t).tolist(), dtype=float).ravel()
            budget = 4 * u * np.abs(want) + (32 + cfg.length) * cfg.n * u * A.ravel()
            assert (np.abs(np.array(got) - want) <= budget).all()

    def test_shear_rejects_nonfinite_step(self):
        scene = realize_scene(REF_CFG, TransverseWeights((1.0, 1.0)))
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError):
                reference.scene_length(scene, t, 0.0)


# ---------------------------------------------------------------------------
# the finite-difference reference's accuracy: a rounding budget that does not
# grow with n or L

def mp_chain(length, s, theta, weights, t):
    """The sheared far end M(t) = D(s_1) K_1 D(s_2 - s_1) ... K_n D(L - s_n)
    in the working precision, the given floats taken as exact:
    D(x) = diag(e^{x/2}, e^{-x/2}) and K the translation along a leaf,
    cosh(x) I + sinh(x) [[cos theta, -sin theta], [-sin theta, -cos theta]]
    at x = t a / 2."""
    M, prev = mp.eye(2), mp.mpf(0)
    for si, th, a in zip(np.asarray(s).tolist(), np.asarray(theta).tolist(),
                         np.asarray(weights).tolist()):
        x = mp.mpf(t) * mp.mpf(a) / 2
        ch, sh = mp.cosh(x), mp.sinh(x)
        c, sn = mp.cos(th), mp.sin(th)
        K = mp.matrix([[ch + sh * c, -sh * sn], [-sh * sn, ch - sh * c]])
        M = M * mp_translation(mp.mpf(si) - prev) * K
        prev = mp.mpf(si)
    return M * mp_translation(mp.mpf(length) - prev)


def mp_translation(x):
    e = mp.exp(x / 2)
    return mp.matrix([[e, 0], [0, 1 / e]])


def mp_moved(m, dx, dy, t):
    """m applied to the point at arclength t |w| from i along w = (dx, dy):
    the rotation about i by the angle phi from "up" to w, after
    D(t |w|), taking i to that point."""
    phi = mp.atan2(-mp.mpf(dx), mp.mpf(dy))
    c, s = mp.cos(phi / 2), mp.sin(phi / 2)
    f = m * mp.matrix([[c, s], [-s, c]]) * mp_translation(
        mp.mpf(t) * mp.hypot(dx, dy))
    return (f[0, 0] * 1j + f[0, 1]) / (f[1, 0] * 1j + f[1, 1])


def mp_grid(scene, steps, at=None):
    """scene_length(scene, i h_s, j h_e) to 50 digits for (i, j) in
    steps, at the steps ``at`` = (h_s, h_e), by default those of the
    finite-difference reference, from the scene's measured
    (length, s, theta): p and q moved along their variation vectors in
    the chord's frame (p = i, q = D(L) i), q sheared by M(i h_s), and the
    distance of the two points.  The height of the sheared q is a
    determinant-one cancellation among entries of size e^{L/2}, so the
    working precision grows by L digits."""
    length, s, theta = reference.measure_scene(scene)
    ev, (hs, he) = scene.endpoints, at or reference.fd_steps(scene)
    out = {}
    with mp.workdps(50 + int(length)):
        chains = {i: mp_chain(length, s, theta, scene.weights.weights, i * hs)
                  for i in {i for i, _ in steps}}
        for i, j in steps:
            zp = mp_moved(mp.eye(2), -ev.u_perp, -ev.u_par, j * he)
            zq = mp_moved(chains[i], -ev.v_perp, ev.v_par, j * he)
            out[i, j] = 2 * mp.asinh(
                abs(zp - zq) / (2 * mp.sqrt(zp.imag * zq.imag)))
    return out


def mp_order_two(W, k, steps):
    """(shear2, mixed, end2) from the values W at steps k (h_s, h_e)."""
    hs, he = (k * mp.mpf(h) for h in steps)
    return ((W[k, 0] - 2 * W[0, 0] + W[-k, 0]) / hs ** 2,
            (W[k, k] - W[k, -k] - W[-k, k] + W[-k, -k]) / (4 * hs * he),
            (W[0, k] - 2 * W[0, 0] + W[0, -k]) / he ** 2)


# Rounding of one grid value d, first order, with u = eps/2.  With the
# endpoints fixed (j = 0) the frames are exactly I and G = M =
# D(L) (I + Psi): exp (2u), 1 + Psi (u) and the product (u) put 4u on
# its diagonal, A - D cancels by coth(d/2), and hypot adds 2u; asinh
# turns a relative error r of its argument into 2 r tanh(d/2), so these
# give 2 tanh(d/2) (4u coth(d/2) + 3u) <= 7 eps, and the rounding of
# asinh itself is within eps d.  Psi rounds by (32 + L) n u |Psi| (see
# the chain test) with |Psi| <= n h max|a| / 2, which through the same
# coth(d/2) adds at most 3 eps for n <= 40, L <= 6 and |a| <= 1, for
# the three crossings of the long chords below, and for the two of the
# large rates, whose step keeps h sum|a| at 1e-2: (10 + d) eps in all.  A
# moving endpoint adds the roundings of E_p and E_q (6u per entry from
# _turned's normalization, exp and a product) and of the two products
# (2u per entry), 16u in all, entrywise against |R_p| |M| |R_q|, whose
# Frobenius norm is at most twice that of G for rotations R.  Since
# X^2 = |G|_F^2 - 2 and |G|_F^2 = X^2 coth^2(d/2), that moves d by at
# most 2 tanh(d/2) 2 (16u) coth^2(d/2) = 32 eps coth(d/2).
def value_budget(d, moving):
    return (10 + d + (32 / math.tanh(d / 2) if moving else 0)) * EPS


GRID = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
RICHARDSON = [(i, 0) for i in (-2, 2)] + [(0, j) for j in (-2, 2)] + [
    (i, j) for i in (-2, 2) for j in (-2, 2)]


def assert_oracle_within_budget(scene):
    """Each value of the finite-difference reference's grid within
    ``value_budget`` of the 50-digit walk, and its order-2 quotients
    within the budgets of their values plus twice Richardson's truncation
    estimate |D(2h) - D(h)| / 3 from the 50-digit walk, against
    ``hessian_split``.  The quotients' own rounding (u d from the first
    subtraction, the rest exact by Sterbenz, and 2u of the value) is
    added to the rounding term."""
    hs, he = reference.fd_steps(scene)
    W = mp_grid(scene, GRID + RICHARDSON)
    grid = reference.fd_grid(scene)
    moving = scene.endpoints != EndpointVariation()
    budget = {(i, j): value_budget(d, moving and j != 0)
              for (i, j), d in grid.items()}
    for key in GRID:
        assert abs(grid[key] - float(W[key])) <= budget[key], key
    got = reference.fd_differences(scene, 2)
    want = hessian_split(scene.cfg, scene.weights, scene.endpoints)
    with mp.workdps(50 + int(scene.cfg.length)):
        near, far = mp_order_two(W, 1, (hs, he)), mp_order_two(W, 2, (hs, he))
        trunc = [float(abs(b - a)) / 3 for a, b in zip(near, far)]
    d = EPS * max(grid.values())
    rounding = [
        (budget[1, 0] + 2 * budget[0, 0] + budget[-1, 0] + d) / hs ** 2,
        (budget[1, 1] + budget[1, -1] + budget[-1, 1] + budget[-1, -1] + d)
        / (4 * hs * he),
        (budget[0, 1] + 2 * budget[0, 0] + budget[0, -1] + d) / he ** 2]
    for g, w, t, r in zip(got, want, trunc, rounding):
        assert abs(g - w) <= 2 * t + r + 2 * EPS * abs(w)


class TestOracleAccuracy:
    def test_order_two_error_does_not_grow_with_n(self):
        # n = 1..40 crossings on chords up to L = 6: the rounding budget
        # above is the same for every n, and the truncation is the
        # scheme's own, so a chain whose rounding grew with n would fail
        rng = random.Random(40)
        for n in range(1, 41):
            scene = realize_scene(*long_scene(rng, n, rng.uniform(1.0, 6.0)))
            assert_oracle_within_budget(scene)

    @pytest.mark.parametrize("cfg, weights", [
        *((ChordConfig(length, s=(1.0, length / 2, length - 1.0),
                       theta=(1.0, 2.0, 0.5)), (1.0, -1.0, 0.5))
          for length in (30.0, 45.0, 50.0, 60.0, 300.0, 700.0)),
        # near-tangent leaves, whose far endpoint -e^s cot(theta/2) or
        # e^s tan(theta/2) in the chord's frame is beyond the float range
        (ChordConfig(700.0, s=(692.0647053396148,), theta=(1e-12,)), (1.0,)),
        (ChordConfig(700.0, s=(694.8175870820836,), theta=(math.pi - 1e-12,)),
         (1.0,))],
        ids=["30.0", "45.0", "50.0", "60.0", "300.0", "700.0",
             "700.0-tangent-at-0", "700.0-tangent-at-pi"])
    def test_long_chord_keeps_its_accuracy(self, cfg, weights):
        # q sits at D(L) i, yet the walk rounds relative to the chord's
        # own frame, so only the final rounding of d ~ L grows with L
        scene = realize_scene(cfg, TransverseWeights(weights),
                              EndpointVariation(0.3, 0.1, -0.2, 0.4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_oracle_within_budget(scene)


class TestOracleSteps:
    """The finite-difference reference's steps: a total rate r (the
    shear weights' sizes, or the two endpoint speeds, summed) with
    FD_STEP r above 1e-2 gets the step 1e-2 / r; the order-2 outputs then
    err by O(1e-6) of their scale r^2, where FD_STEP loses every digit."""

    FOUND = ChordConfig(2.0, s=(0.7, 1.4), theta=(1.1, 0.6))

    @pytest.mark.parametrize("rate, steps", [
        (0.0, (reference.FD_STEP, reference.FD_STEP)),
        (60.0, (reference.FD_STEP, reference.FD_STEP)),
        (1e3, (1e-2 / 1.5e3, reference.FD_STEP)),
        (1e6, (1e-2 / 1.5e6, reference.FD_STEP))])
    def test_only_a_step_that_moves_the_scene_too_far_is_scaled(self, rate, steps):
        scene = realize_scene(self.FOUND, TransverseWeights((-rate, rate / 2)),
                              EndpointVariation(u_perp=0.6, v_par=-0.8))
        assert reference.fd_steps(scene) == steps
        moved = realize_scene(self.FOUND, TransverseWeights((0.3, -0.2)),
                              EndpointVariation(u_perp=0.6 * rate, u_par=0.8 * rate,
                                                v_par=rate / 2))
        assert reference.fd_steps(moved) == steps[::-1]

    def test_many_crossings_share_one_step(self):
        # 1000 crossings with weights in [5, 10]: each rate alone keeps
        # FD_STEP small, but their shears add up, and the order-2 error
        # of FD_STEP is 1.9e-3; the step for the sum keeps it O(1e-6)
        rng = random.Random(3)
        s = sorted(rng.uniform(0.0, 6.0) for _ in range(1000))
        cfg = ChordConfig(6.0, s=s, theta=[rng.uniform(0.15, math.pi - 0.15) for _ in s])
        weights = TransverseWeights([rng.uniform(5.0, 10.0) for _ in s])
        scene = realize_scene(cfg, weights)
        assert reference.fd_steps(scene)[0] == 1e-2 / math.fsum(weights.weights.tolist())
        shear2, _, _ = reference.fd_differences(scene, 2)
        want, _, _ = hessian_split(cfg, weights)
        assert shear2 == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("w", [1e3, 1e4, 1e6])
    def test_large_shear_rates_keep_their_accuracy(self, w):
        # FD_STEP itself is off by 8.1e-5, 1.1e-2 and 93% here
        scene = realize_scene(self.FOUND, TransverseWeights((w, -w / 2)))
        assert_oracle_within_budget(scene)
        shear2, _, _ = reference.fd_differences(scene, 2)
        want, _, _ = hessian_split(self.FOUND, scene.weights)
        assert shear2 == pytest.approx(want, rel=1e-6)

    def test_large_endpoint_speed_keeps_its_accuracy(self):
        # u_par moves p along the chord, so end2 is 0; FD_STEP itself
        # moves p past q and gives 1.6e9
        ev = EndpointVariation(u_par=1e5)
        scene = realize_scene(self.FOUND, TransverseWeights((1.0, -0.5)), ev)
        assert_oracle_within_budget(scene)
        _, _, end2 = reference.fd_differences(scene, 2)
        assert abs(end2) <= 1e-6 * 1e5 ** 2

    def test_rates_beyond_the_oracles_range_are_refused(self):
        rate = 1.01 * hessian.MAX_CHORD_LENGTH / reference.FD_STEP
        for weights, ev in [((rate, 1.0), EndpointVariation()),
                            ((1.0, 1.0), EndpointVariation(v_perp=rate))]:
            scene = realize_scene(self.FOUND, TransverseWeights(weights), ev)
            for order in (1, 2):
                with pytest.raises(DegenerateConfigurationError, match="range"):
                    reference.fd_differences(scene, order)


class TestOracleRefusals:
    """What the walk cannot evaluate is refused with a typed error, and
    numpy's overflow warnings stay inside the library and the reference."""

    @pytest.fixture(autouse=True)
    def warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_overflowing_shear_is_refused(self):
        # sinh(FD_STEP * 1e10 / 2) overflows, and the reference's chain
        # turns NaN
        scene = realize_scene(REF_CFG, TransverseWeights((1e10, -1e10)))
        for order in (1, 2):
            with pytest.raises(DegenerateConfigurationError):
                reference.fd_differences(scene, order)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("ev", [
        EndpointVariation(v_par=1e300),
        EndpointVariation(u_perp=1.7e308, u_par=-1.7e308)],
        ids=["speed1e300", "speed-beyond-the-float-range"])
    def test_overflowing_endpoint_frame_is_refused(self, ev, order):
        # the jet squares the speed, and the second speed is not a float
        scene = realize_scene(REF_CFG, TransverseWeights((1.0, 1.0)), ev)
        with pytest.raises(DegenerateConfigurationError):
            fd_oracle(scene, order)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("weight", [1e308, 2.0 ** 1023, -(2.0 ** 1023)])
    def test_rates_whose_sum_has_no_power_of_two_above_it_are_refused(self, weight, order):
        # the walk's unit caps at 2^1023, where the power of two at or
        # above n max|a| is no float, and the outputs overflow
        scene = realize_scene(ChordConfig(2.0, (1.0,), (1.0,)), TransverseWeights((weight,)))
        with pytest.raises(DegenerateConfigurationError, match="not finite"):
            fd_oracle(scene, order)

    def test_nonfinite_endpoint_step_is_a_value_error(self):
        scene = realize_scene(REF_CFG, TransverseWeights((1.0, 1.0)),
                              EndpointVariation(u_par=0.5))
        with pytest.raises(ValueError):
            reference.scene_length(scene, 0.0, math.nan)

    def test_endpoint_step_beyond_the_float_range_is_refused(self):
        scene = realize_scene(REF_CFG, TransverseWeights((1.0, 1.0)),
                              EndpointVariation(u_par=0.5))
        with pytest.raises(DegenerateConfigurationError):
            reference.scene_length(scene, 0.0, 1e6)


# ---------------------------------------------------------------------------
# the Taylor-jet oracle: exact derivatives within a derived rounding budget

def total_rate(scene):
    """S = sum|a_i| + |w_p| + |w_q|: the scene's shear rates and endpoint
    speeds."""
    ev = scene.endpoints
    return (math.fsum(np.abs(scene.weights.weights).tolist())
            + math.hypot(ev.u_perp, ev.u_par) + math.hypot(ev.v_perp, ev.v_par))


def jet_budget(scene, k):
    """``fd_oracle``'s first-order rounding bound on its order-k outputs,
    4 (L + 8n + 40 coth(L/2)) eps (2 coth(L/2) S)^k, derived in its
    docstring from the roundings of the walk, the turns and the finish."""
    coth = 1.0 / math.tanh(0.5 * scene.cfg.length)
    return (4 * (scene.cfg.length + 8 * scene.cfg.n + 40 * coth) * EPS
            * (2 * coth * total_rate(scene)) ** k)


def mp_jet(scene, h=1e-12):
    """Both orders of ``fd_oracle`` by central differences of the 50-digit
    ``mp_grid``, at the steps h / max(1, r) for each parameter's total
    rate r (sum|a_i| for the shear, |w_p| + |w_q| for the endpoints).
    Each difference truncates at O((h r)^2) <= 1e-24 relative to its
    output's scale r^k, and the grid's rounding, about 1e-50 L, divided
    by the steps' squares adds at most about 1e-26 L of it, so the
    reference is exact far below any float's rounding."""
    ev = scene.endpoints
    rates = (math.fsum(np.abs(scene.weights.weights).tolist()),
             math.hypot(ev.u_perp, ev.u_par) + math.hypot(ev.v_perp, ev.v_par))
    hs, he = (h / max(1.0, r) for r in rates)
    W = mp_grid(scene, GRID, at=(hs, he))
    with mp.workdps(50 + int(scene.cfg.length)):
        first = ((W[1, 0] - W[-1, 0]) / (2 * mp.mpf(hs)),
                 (W[0, 1] - W[0, -1]) / (2 * mp.mpf(he)))
        second = mp_order_two(W, 1, (hs, he))
        return [float(v) for v in first], [float(v) for v in second]


TANGENT_700 = [(ChordConfig(700.0, s=(692.0647053396148,), theta=(1e-12,)), (1.0,)),
               (ChordConfig(700.0, s=(694.8175870820836,), theta=(math.pi - 1e-12,)),
                (1.0,))]
MOVING = EndpointVariation(0.3, 0.1, -0.2, 0.4)
FOUND = ChordConfig(2.0, s=(0.7, 1.4), theta=(1.1, 0.6))
# the rate at which the finite-difference step leaves MAX_CHORD_LENGTH
BEYOND_THE_STEP = 1.01 * hessian.MAX_CHORD_LENGTH / reference.FD_STEP


def jet_scenes():
    """(id, scene) pairs: variation-check-like scenes, the long chords and
    near-tangent leaves of TestOracleAccuracy, large rates and speeds,
    the inputs the finite differences refuse, and a short chord."""
    rng = random.Random(16)
    out = [(f"n{n}", realize_scene(*long_scene(rng, n, rng.uniform(1.0, 6.0))))
           for n in (0, 1, 2, 5, 12, 25, 40)]
    for length in (30.0, 300.0, 700.0):
        cfg = ChordConfig(length, s=(1.0, length / 2, length - 1.0),
                          theta=(1.0, 2.0, 0.5))
        out.append((f"L{length:g}", realize_scene(
            cfg, TransverseWeights((1.0, -1.0, 0.5)), MOVING)))
    for name, (cfg, weights) in zip(("tangent-at-0", "tangent-at-pi"), TANGENT_700):
        out.append((name, realize_scene(cfg, TransverseWeights(weights), MOVING)))
    for w in (1e3, 1e6, 1e10, BEYOND_THE_STEP):
        out.append((f"rate{w:.3g}", realize_scene(
            FOUND, TransverseWeights((w, -w / 2)),
            EndpointVariation(u_perp=0.6, v_par=-0.8))))
    out.append(("u_par1e5", realize_scene(
        FOUND, TransverseWeights((1.0, -0.5)), EndpointVariation(u_par=1e5))))
    out.append(("v_perp-beyond-the-step", realize_scene(
        FOUND, TransverseWeights((1.0, 1.0)), EndpointVariation(v_perp=BEYOND_THE_STEP))))
    out.append(("L0.01", realize_scene(
        ChordConfig(0.01, s=(0.003, 0.007), theta=(1.0, 2.0)),
        TransverseWeights((1.0, -0.5)), MOVING)))
    return out


JET_SCENES = jet_scenes()


def closed_forms(scene):
    return (first_derivatives(scene.cfg, scene.weights, scene.endpoints),
            hessian_split(scene.cfg, scene.weights, scene.endpoints))


def assert_matches_the_closed_forms(scene, rtol=1e-12):
    """The oracle's accuracy target: within rtol of the closed forms,
    relative to max(1, |value|)."""
    got = fd_oracle(scene, 1) + fd_oracle(scene, 2)
    want = sum(closed_forms(scene), ())
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * max(1.0, abs(w)), (got, want)


def assert_within_budget_of_the_closed_forms(scene):
    """Within ``jet_budget`` of the closed forms, plus their own error:
    the prefix sum's rounding (8 eps cond, TestPrefixSumKernel) and the
    measured crossings' drift from the declared ones, about eps (1 + s)
    in each s and theta (TestClosedFormMeasurement), which moves an
    order-k output by at most (2 coth(L/2) S)^k per unit; together
    (16 + L) eps (2 coth(L/2) S)^k.  An output that cancels far below
    S^k, such as d_end under purely perpendicular endpoint motion, keeps
    an error of order eps S^k."""
    coth = 1.0 / math.tanh(0.5 * scene.cfg.length)
    for k, got, want in zip((1, 2), (fd_oracle(scene, 1), fd_oracle(scene, 2)),
                            closed_forms(scene)):
        slack = (16 + scene.cfg.length) * EPS * (2 * coth * total_rate(scene)) ** k
        for g, w in zip(got, want):
            assert abs(g - w) <= jet_budget(scene, k) + slack, (k, got, want)


class TestTaylorJet:
    @pytest.fixture(autouse=True)
    def warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("scene", [s for _, s in JET_SCENES],
                             ids=[name for name, _ in JET_SCENES])
    def test_tracks_50_digit_central_differences(self, scene):
        got = fd_oracle(scene, 1), fd_oracle(scene, 2)
        want = mp_jet(scene)
        for k in (1, 2):
            budget = jet_budget(scene, k)
            for g, w in zip(got[k - 1], want[k - 1]):
                assert abs(g - w) <= budget, (k, g, w, budget)

    @pytest.mark.parametrize("rate", [1.0, 1e3])
    @pytest.mark.parametrize("length", [1.0, 6.0, 30.0, 300.0, 700.0])
    @pytest.mark.parametrize("n", [1, 40, 1000])
    def test_matches_the_closed_forms(self, n, length, rate):
        # the oracle's accuracy target: 1e-12 relative to max(1, |value|)
        # for n up to 1,000 and L up to 700; at n = 1,000, L = 700 and
        # rate 1e3 the chain's second coefficient reaches about
        # 1e11 e^L, beyond the float range, unless the walk is rescaled
        cfg, weights, endpoints = long_scene(random.Random(n + int(length)), n, length)
        scene = realize_scene(cfg, TransverseWeights(rate * weights.weights), endpoints)
        assert_matches_the_closed_forms(scene)

    @pytest.mark.parametrize("which", [0, 1], ids=["tangent-at-0", "tangent-at-pi"])
    def test_near_tangent_leaves_match_the_closed_forms(self, which):
        cfg, weights = TANGENT_700[which]
        scene = realize_scene(cfg, TransverseWeights(weights), MOVING)
        assert_matches_the_closed_forms(scene)
        # at rate 1e3, shear2 ~ (1e3 sin(theta))^2 ~ 1e-18 cancels from
        # terms of size 1e6, so only the budget applies
        scene = realize_scene(cfg, TransverseWeights(1e3 * np.array(weights)), MOVING)
        assert_within_budget_of_the_closed_forms(scene)

    @pytest.mark.parametrize("scene", [s for _, s in JET_SCENES],
                             ids=[name for name, _ in JET_SCENES])
    def test_within_budget_of_the_closed_forms(self, scene):
        assert_within_budget_of_the_closed_forms(scene)

    @pytest.mark.parametrize("weights, ev", [
        ((1e10, -1e10), EndpointVariation()),
        ((BEYOND_THE_STEP, 1.0), EndpointVariation()),
        ((1.0, 1.0), EndpointVariation(v_perp=BEYOND_THE_STEP))],
        ids=["weights1e10", "rate-beyond-the-step", "speed-beyond-the-step"])
    def test_inputs_the_finite_differences_refuse_are_answered(self, weights, ev):
        # the reference's sinh(FD_STEP * 1e10 / 2) overflows, and a step
        # of FD_STEP at the other two rates moves the scene beyond
        # MAX_CHORD_LENGTH; the jet has no step
        cfg = REF_CFG if weights[0] == 1e10 else FOUND
        scene = realize_scene(cfg, TransverseWeights(weights), ev)
        with pytest.raises(DegenerateConfigurationError):
            reference.fd_differences(scene, 2)
        assert_within_budget_of_the_closed_forms(scene)

    @pytest.mark.parametrize("ev", [EndpointVariation(), MOVING], ids=["resting", "moving"])
    @pytest.mark.parametrize("theta", [1e-160, 1e-200, 1e-300])
    def test_leaves_whose_bc_underflows_match_the_closed_forms(self, theta, ev):
        # below theta ~ 1e-154 the product bc of the leaf's relative frame,
        # of the size of sin^2(theta/2), is subnormal or 0, so a crossing
        # decided and measured through -(ad)(bc) drifts or misses the chord
        scene = realize_scene(ChordConfig(2.0, s=(1.0,), theta=(theta,)),
                              TransverseWeights((1.0,)), ev)
        assert_matches_the_closed_forms(scene)


# ---------------------------------------------------------------------------
# the closed-form measurement against a 50-digit reference

def _translation(t):
    e = math.exp(0.5 * t)
    return np.array([[e, 0.0], [0.0, 1.0 / e]])


def _rotation(theta):
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return np.array([[c, s], [-s, c]])


def mp_crossing(row):
    """(s, theta) at 50 digits of the geodesic with frame ``row`` along the
    upward imaginary axis, from its endpoints and not from the measured
    formula: it runs from x1 = b/d to x2 = a/c on the half-circle through
    i sqrt(-x1 x2), whose forward tangent there is sign(x2 - x1) (y, m)
    with m the circle's centre."""
    with mp.workdps(50):
        a, b, c, d = (mp.mpf(v) for v in row)
        x1, x2 = b / d, a / c
        y, m, sign = mp.sqrt(-x1 * x2), (x1 + x2) / 2, mp.sign(x2 - x1)
        return float(mp.log(y)), float(mp.atan2(-sign * y, sign * m))


class TestClosedFormMeasurement:
    def test_tracks_the_50_digit_reference(self):
        # Random frames D(s) R(theta) D(tau) on the chord p = i, where the
        # relative frame is the stored row exactly.  The budgets are the
        # first-order rounding of the product form below, which
        # _measure_leaf used until it took the logs and roots of single
        # entries; the single-entry form stays within a third of them on
        # these draws.  For the row (a, b, c, d), with u = eps/2,
        # q = -(ad)(bc), l0 = log q and lx = log|x|:
        #   s = l0/2 - (lc + ld): q rounds by 3u relative, so l0 by
        #     3u + u |l0|, halved; the logs of c and d, their sum and the
        #     difference add u (|lc| + |ld| + |lc + ld| + |s|), and the
        #     reference's own rounding u |s|, so
        #     eps (0.75 + |l0|/4 + (|lc| + |ld| + |lc + ld|)/2 + |s|);
        #   theta = atan2(Y, X) with X = ad + bc, Y = 2 sqrt(q) and
        #     X^2 + Y^2 = 1: X errs by eps (|ad| + |bc|), Y by 1.25 eps Y,
        #     so theta by eps ((|ad| + |bc| + 1.25) Y + |theta|).
        # Each is held to twice its budget, for the last-ulp error of
        # math's log and atan2.  The last 240 draws are chords up to
        # L = 700 with theta within 1e-12 of 0 or pi, where the leaf's
        # endpoint a/c = -e^s cot(theta/2) or b/d = e^s tan(theta/2)
        # overflows once s passes about 681.
        rng = random.Random(61)
        for k in range(840):
            near_tangent = k >= 600
            length = rng.uniform(600.0, 700.0) if near_tangent else rng.uniform(1.0, 6.0)
            s = (rng.uniform(0.0, length), 1e-4 * length * rng.random(),
                 length - 1e-4 * length * rng.random())[k % 3]
            if near_tangent:
                theta = (1e-12 * (1.0 - rng.random()),
                         math.pi - 1e-12 * (1.0 - rng.random()))[k // 3 % 2]
            else:
                theta = (rng.uniform(0.15, math.pi - 0.15),
                         0.15 + 1e-3 * rng.random(),
                         math.pi - 0.15 - 1e-3 * rng.random())[k // 3 % 3]
            frame = (_translation(s) @ _rotation(theta)
                     @ _translation(rng.uniform(-3.0, 3.0)))
            cfg = ChordConfig(length, s=(s,), theta=(theta,))
            placed = realize_scene(cfg, TransverseWeights((1.0,)))
            scene = HalfplaneScene(cfg=cfg, weights=placed.weights,
                                   endpoints=placed.endpoints, p=placed.p,
                                   q=placed.q, leaves=frame.reshape(1, 4))
            # the chord's frame is the identity, so the stored row is the
            # relative frame that the oracle measures
            assert _frame_through(scene.p, scene.q) == (1.0, 0.0, 0.0, 1.0)
            row = scene.leaves[0]
            got_s, cos, sin = hessian._measure_leaf(row)
            got_theta = math.atan2(sin, cos)
            want_s, want_theta = mp_crossing(row)
            a, b, c, d = row
            q = -(a * d) * (b * c)
            l0, lc, ld = math.log(q), math.log(abs(c)), math.log(abs(d))
            y = 2.0 * math.sqrt(q)
            assert abs(got_s - want_s) <= 2 * EPS * (
                0.75 + abs(l0) / 4 + (abs(lc) + abs(ld) + abs(lc + ld)) / 2
                + abs(want_s))
            assert abs(got_theta - want_theta) <= 2 * EPS * (
                (abs(a * d) + abs(b * c) + 1.25) * y + abs(want_theta))
