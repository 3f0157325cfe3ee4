"""The three benchmark workloads: seeded inputs, the timed item, and the
independent check that runs after it.

Every workload is a closed loop over *rounds*.  A round is a fixed mix of
input sizes (each size class appears the same number of times in every
round) drawn from a ``random.Random`` seeded with ``(seed, round index)``,
so a run's workload depends on the seed alone and the mix does not drift
from run to run.  The library only ever receives the generated coordinate
tuples, side tuples and JSON dicts.

An item's timed part calls public library functions through ``call``,
which is either a plain pass-through or the tracer's span recorder.  Its
check runs afterwards, outside the timed region, against references
written here with ``math`` and ``numpy``; a check never calls the library.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from systolica import halfplane, hessian, polygons, trig
from systolica.errors import SystolicaError

# Public functions the items call, by the span name the tracer gives them.
FUNCTIONS = {
    "trig": ("semiregular_partner", "trirectangle_center",
             "diagonal_same_type", "diagonal_mixed_type"),
    "halfplane": ("common_perpendicular",),
    "polygons": ("sides_from_pentagon_coords", "polygon_from_json",
                 "pentagon_coords", "proportionality_check",
                 "boundary_functional", "realize", "ChainDifferentials",
                 "length_rank"),
    "hessian": ("scene_from_json", "first_derivatives", "hessian_form",
                "hessian_split", "hessian_margin", "realize_scene",
                "fd_oracle"),
}

# Functions whose per-call time is fitted against input size, log-log.
SCALING = ("hessian.hessian_form", "hessian.hessian_split",
           "hessian.hessian_margin", "hessian.fd_oracle",
           "polygons.length_rank", "polygons.sides_from_pentagon_coords")

# Exception classes the per-layer error counts are broken down into;
# anything else is counted as "other".
ERROR_CLASSES = ("DegenerateConfigurationError", "NoPerpendicularError",
                 "NoPentagonError", "NoPolygonError", "DegenerateMarginError",
                 "InconsistentSceneError", "ValueError", "other")

# A digit count is capped here: float64 carries about 16.
MAX_DIGITS = 16.0


@dataclass
class Item:
    kind: str
    size: int
    data: object


@dataclass
class Outcome:
    """Named results of one item plus every exception its stages raised."""

    results: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @contextlib.contextmanager
    def stage(self):
        """Run one independent stage; a failure is recorded, not raised,
        so the item's other stages still run."""
        try:
            yield
        except Exception as exc:  # the run counts every failure by class
            self.errors.append(exc)


@dataclass
class Verdict:
    residuals: list
    problems: list

    @property
    def passed(self) -> bool:
        return not self.problems

    @property
    def digits(self) -> float:
        """min(16, -log10 of the worst residual); a failed item scores 0."""
        if not self.passed:
            return 0.0
        worst = max(self.residuals, default=0.0)
        return MAX_DIGITS if worst <= 0.0 else min(MAX_DIGITS, -math.log10(worst))


def _rel(got, want) -> float:
    return abs(got - want) / abs(want)


def _judge(outcome: Outcome, checks, tol: float) -> Verdict:
    """Evaluate (label, thunk) residual checks, or (label, thunk, tol) to
    override the workload tolerance; a residual above its tolerance, a
    NaN, or a check whose inputs are missing fails the item."""
    residuals, problems = [], [type(e).__name__ for e in outcome.errors]
    for label, thunk, *own_tol in checks:
        tol_here = own_tol[0] if own_tol else tol
        try:
            r = float(thunk())
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            problems.append(f"{label}: missing")
            continue
        residuals.append(r)
        if not r <= tol_here:
            problems.append(f"{label}: {r:.3g} > {tol_here:g}")
    return Verdict(residuals, problems)


def _rng(seed: int, round_index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + round_index)


class Workload:
    """A workload makes seeded rounds of items, runs one item through
    ``call`` and checks what it produced."""

    name = why = ""

    def make_round(self, seed: int, round_index: int) -> list:
        raise NotImplementedError

    def run(self, item: Item, call, out: Outcome) -> None:
        raise NotImplementedError

    def check(self, item: Item, out: Outcome) -> Verdict:
        raise NotImplementedError

    def attempt(self, item: Item, call) -> tuple:
        """(start, end, outcome) of one timed item.  An exception never ends
        the run: it fails the item and is kept for counting."""
        out = Outcome()
        t0 = perf_counter()
        try:
            self.run(item, call, out)
        except Exception as exc:  # counted by class, the loop keeps going
            out.errors.append(exc)
        return t0, perf_counter(), out

    def known_defect(self, item: Item, out: Outcome, verdict: Verdict) -> bool:
        """Whether a failure of ``item`` is one the seed commit already
        shows; none by default."""
        return False


# ---------------------------------------------------------------------------
# polygon-roundtrip

class PolygonRoundtrip(Workload):
    """Pentagon-chain assembly and its inverse, diagonals and the
    semi-regular locus.

    Why: here ``polygons``, ``halfplane`` and ``trig`` do nearly all the
    work and ``hessian`` does none.  n = 24 is where the float64 walk runs
    out of digits, and the even all-ones chains for n = 12..20 raise
    ``DegenerateConfigurationError`` at the seed; those inputs stay in.
    """

    name = "polygon-roundtrip"
    why = ("polygons, halfplane and trig do the work, hessian none; "
           "includes the n=12..24 chains where the float walk loses digits")
    # Tolerance: the float frame-walk floor is 6.7e-7 at n = 24.
    tol = 1e-6
    n_range = (6, 24)
    random_per_n = 3
    semiregular_k = range(3, 13)
    coord_range = (0.4, 2.0)
    family = tuple(range(3, 13))  # the boundary_functional family

    def make_round(self, seed: int, round_index: int) -> list:
        rng = _rng(seed, round_index)
        lo, hi = self.coord_range
        items = []
        for n in range(self.n_range[0], self.n_range[1] + 1):
            for _ in range(self.random_per_n):
                coords = tuple(rng.uniform(lo, hi) for _ in range(n - 3))
                items.append(Item("random", n, coords))
            items.append(Item("ones", n, (1.0,) * (n - 3)))
        for k in self.semiregular_k:
            l_odd = rng.uniform(lo, hi)
            l_even = trig.semiregular_partner(l_odd, k)
            items.append(Item("semiregular", 2 * k,
                              {"n": 2 * k, "sides": [l_odd, l_even] * k}))
        rng.shuffle(items)
        return items

    def run(self, item: Item, call, out: Outcome) -> None:
        res = out.results
        if item.kind != "semiregular":
            poly = call("polygons.sides_from_pentagon_coords", item.size,
                        polygons.sides_from_pentagon_coords, item.data)
            res["closure"] = poly.closure_defect
            res["coords"] = call("polygons.pentagon_coords", item.size,
                                 polygons.pentagon_coords, poly)
            return
        n, k = item.size, item.size // 2
        l_odd, l_even = item.data["sides"][:2]
        poly = call("polygons.polygon_from_json", n,
                    polygons.polygon_from_json, item.data)
        res["closure"] = poly.closure_defect
        with out.stage():
            coords = call("polygons.pentagon_coords", n,
                          polygons.pentagon_coords, poly)
            back = call("polygons.sides_from_pentagon_coords", n,
                        polygons.sides_from_pentagon_coords, coords)
            res["sides"] = back.sides
        with out.stage():
            res["proportionality"] = call(
                "polygons.proportionality_check", n,
                polygons.proportionality_check, poly)
        with out.stage():
            res["partner"] = call("trig.semiregular_partner", k,
                                  trig.semiregular_partner, l_even, k)
        with out.stage():
            # centre distances of the odd and the even sides
            h_odd = call("trig.trirectangle_center", k,
                         trig.trirectangle_center, l_even / 2.0, k)
            h_even = call("trig.trirectangle_center", k,
                          trig.trirectangle_center, l_odd / 2.0, k)
        diagonals = res["diagonals"] = []
        g1 = poly.side_geodesic(1)
        for j in range(2, k - 1):  # same type, j odd sides apart
            with out.stage():
                want = call("trig.diagonal_same_type", k,
                            trig.diagonal_same_type, h_odd, j, k)
                got = call("halfplane.common_perpendicular", n,
                           halfplane.common_perpendicular,
                           g1, poly.side_geodesic(1 + 2 * j)).length
                diagonals.append((got, want))
        for slots in range(3, 2 * k - 2, 2):  # mixed type, the arc doubles
            with out.stage():
                want = call("trig.diagonal_mixed_type", k,
                            trig.diagonal_mixed_type, h_odd, h_even, slots, k)
                got = call("halfplane.common_perpendicular", n,
                           halfplane.common_perpendicular,
                           g1, poly.side_geodesic(1 + slots)).length
                diagonals.append((2.0 * got, want))
        with out.stage():
            res["boundary"] = call("polygons.boundary_functional",
                                   len(self.family),
                                   polygons.boundary_functional,
                                   self.family, l_even)

    def check(self, item: Item, out: Outcome) -> Verdict:
        res = out.results
        checks = [("closure", lambda: res["closure"])]
        if item.kind != "semiregular":
            checks.append(("roundtrip", lambda: _max_rel(res["coords"], item.data)))
            return _judge(out, checks, self.tol)
        sides = item.data["sides"]
        l_odd, l_even = sides[:2]
        checks += [
            ("roundtrip", lambda: _max_rel(res["sides"], sides)),
            ("proportionality", lambda: res["proportionality"]),
            ("partner", lambda: _rel(res["partner"], l_odd)),
        ]
        checks += [(f"diagonal{i}", lambda d=d: _rel(*d))
                   for i, d in enumerate(res.get("diagonals", ()))]
        value, deriv, coeffs = _boundary_reference(self.family, l_even)
        checks += [
            ("boundary.value", lambda: _rel(res["boundary"].value, value)),
            ("boundary.derivative",
             lambda: _rel(res["boundary"].derivative, deriv)),
            ("boundary.coefficients",
             lambda: _max_rel(res["boundary"].coefficients, coeffs)),
        ]
        return _judge(out, checks, self.tol)

    def known_defect(self, item: Item, out: Outcome, verdict: Verdict) -> bool:
        """Failures this workload shows at the seed commit.  Tolerance
        misses come from the float half-plane walk (roadmap item 1): they
        grow with n, from a rare tail near n = 10 to most chains at n = 20.
        Typed rejections come from near-concentric sides in
        ``common_perpendicular`` (item 0) and are an allowed outcome for
        an ill-conditioned input.  An untyped exception is a new defect."""
        return all(isinstance(e, SystolicaError) for e in out.errors)


def _max_rel(got, want) -> float:
    if len(got) != len(want):
        return math.inf
    return max(_rel(g, w) for g, w in zip(got, want))


def _boundary_reference(family, l_even):
    """Total odd length of the semi-regular family, its derivative in
    l_even and the per-side coefficients, from the partner relation
    sinh(l_odd/2) sinh(l_even/2) = cos(pi/k) differentiated by hand."""
    sh, ch = math.sinh(l_even / 2.0), math.cosh(l_even / 2.0)
    value = deriv = 0.0
    coeffs = []
    for k in family:
        c = math.cos(math.pi / k)
        l_odd = 2.0 * math.asinh(c / sh)
        # d l_odd / d l_even = -(c ch / sh^2) / sqrt(1 + c^2 / sh^2)
        coeff = -(c * ch / (sh * sh)) / math.sqrt(1.0 + (c / sh) ** 2)
        value += k * l_odd
        deriv += k * coeff
        coeffs.append(coeff)
    return value, deriv, coeffs


# ---------------------------------------------------------------------------
# chord-kernel

def _random_scene(rng: random.Random, n: int, length: float) -> dict:
    """Scene JSON: n sorted crossings inside (0, L), angles in
    (0.15, pi - 0.15), random shear weights and endpoint motion."""
    s = sorted(rng.uniform(0.0, length) for _ in range(n))
    return {
        "chord_length": length,
        "crossings": [{"s": x, "theta": rng.uniform(0.15, math.pi - 0.15)}
                      for x in s],
        "weights": [rng.uniform(-1.0, 1.0) for _ in range(n)],
        "endpoint": {key: rng.uniform(-1.0, 1.0)
                     for key in ("u_perp", "u_par", "v_perp", "v_par")},
    }


class ChordKernel(Workload):
    """Closed-form first and second variation on long chords.

    Why: the dense O(n^2) ``hessian`` kernel dominates and ``halfplane``
    is never called, so this is the only workload where a faster or
    smaller second-variation kernel (roadmap item 2) can show.
    """

    name = "chord-kernel"
    why = ("dense O(n^2) hessian form/split/margin on 64..1448 crossings "
           "dominates; halfplane is never called")
    # The dense evaluation agrees with the reference to about 3e-16.
    tol = 1e-10
    # Sizes on a five-rung geometric ladder (64, 140, 304, 664, 1448):
    # log-uniform, stratified so that every round carries the same mix and
    # the same largest scene.  The top rung, 2048/sqrt(2), keeps the
    # MIN_ITEMS items of a run within the run budget while the dense
    # kernel costs O(n^2).  With five rungs of equal count, the median and
    # the 90th percentile of a run of whole rounds fall in the middle of
    # the visits of one rung (the third and the fifth), so each is the
    # median of a fifth of the run's items, not of a handful of items
    # next to a jump in cost.
    n_range = (64, 1448)
    rungs = 5
    per_rung = 5
    length_range = (1.0, 10.0)
    block = 256  # rows of the reference kernel evaluated at once

    def make_round(self, seed: int, round_index: int) -> list:
        rng = _rng(seed, round_index)
        lo, hi = (math.log(v) for v in self.n_range)
        items = []
        for j in range(self.rungs * self.per_rung):
            n = round(math.exp(lo + (hi - lo) * (j // self.per_rung)
                               / (self.rungs - 1)))
            items.append(Item("scene", n,
                              _random_scene(rng, n, rng.uniform(*self.length_range))))
        rng.shuffle(items)
        return items

    def run(self, item: Item, call, out: Outcome) -> None:
        n, res = item.size, out.results
        cfg, weights, ends = call("hessian.scene_from_json", n,
                                  hessian.scene_from_json, item.data)
        res["first"] = call("hessian.first_derivatives", n,
                            hessian.first_derivatives, cfg, weights, ends)
        res["form"] = call("hessian.hessian_form", n,
                           hessian.hessian_form, cfg, weights, ends)
        res["split"] = call("hessian.hessian_split", n,
                            hessian.hessian_split, cfg, weights, ends)
        res["margin"] = call("hessian.hessian_margin", n,
                             hessian.hessian_margin, cfg)

    def check(self, item: Item, out: Outcome) -> Verdict:
        res, scene = out.results, item.data
        s = np.array([c["s"] for c in scene["crossings"]])
        theta = np.array([c["theta"] for c in scene["crossings"]])
        w = np.array(scene["weights"])
        ep = scene["endpoint"]
        L = scene["chord_length"]
        form = self._reference_form(s, theta, w, ep, L)
        d_metric = float(w @ np.cos(theta))
        d_scale = float(np.abs(w) @ np.abs(np.cos(theta)))
        gaps = np.diff(np.concatenate(([0.0], s, [L])))
        eps = np.minimum(gaps[:-1], gaps[1:])

        def margin():
            m = res["margin"]
            return max(_max_rel(m.epsilons, eps),
                       _rel(m.eps_p, gaps[0]), _rel(m.eps_q, gaps[-1]))

        checks = [
            ("first.metric",
             lambda: abs(res["first"][0] - d_metric) / max(d_scale, 1e-300)),
            ("first.endpoints",
             lambda: abs(res["first"][1] - (ep["u_par"] + ep["v_par"]))),
            ("form", lambda: _rel(res["form"], form)),
            ("split", lambda: _rel(res["split"][0] + 2.0 * res["split"][1]
                                   + res["split"][2], res["form"])),
            ("margin", margin),
        ]
        return _judge(out, checks, self.tol)

    def _reference_form(self, s, theta, w, ep, L) -> float:
        """x^T G x / sinh(L) for the Green's kernel
        G(a, b) = cosh(min(a, b)) cosh(L - max(a, b)) sampled at the
        crossings and both endpoints, with the p slot negated; evaluated
        in row blocks so the check never holds the dense matrix."""
        t = np.concatenate((s, [0.0, L]))
        x = np.concatenate((np.sin(theta) * w, [-ep["u_perp"], ep["v_perp"]]))
        total = 0.0
        for a in range(0, t.size, self.block):
            tb = t[a:a + self.block, None]
            g = np.cosh(np.minimum(tb, t)) * np.cosh(L - np.maximum(tb, t))
            total += float(x[a:a + self.block] @ (g @ x))
        return total / math.sinh(L)


# ---------------------------------------------------------------------------
# variation-check

class VariationCheck(Workload):
    """The finite-difference oracle against the closed forms, paired with
    the length differentials of a well-conditioned polygon.

    Why: n is small, so the kernel is cheap and the time goes to
    half-plane isometry composition inside ``fd_oracle``; it is also the
    only workload that exercises ``length_rank``'s O(m^3) assembly.
    """

    name = "variation-check"
    why = ("small scenes where fd_oracle's isometry composition dominates, "
           "plus length_rank's O(m^3) assembly on 6..14-gons")
    # The oracle's own error is 1e-8 to 1e-7, relative to max(1, |value|).
    tol = 1e-5
    closure_tol = 1e-6
    n_range = (1, 40)
    length_range = (1.0, 6.0)
    m_range = (6, 14)
    coord_range = (0.4, 2.0)

    def make_round(self, seed: int, round_index: int) -> list:
        rng = _rng(seed, round_index)
        sizes = list(range(self.n_range[0], self.n_range[1] + 1))
        rng.shuffle(sizes)
        span = self.m_range[1] - self.m_range[0] + 1
        items = []
        for j, n in enumerate(sizes):
            m = self.m_range[0] + j % span
            coords = [rng.uniform(*self.coord_range) for _ in range(m - 3)]
            sides = polygons.sides_from_pentagon_coords(coords).sides
            scene = _random_scene(rng, n, rng.uniform(*self.length_range))
            items.append(Item("pair", n, (scene, sides)))
        return items

    def run(self, item: Item, call, out: Outcome) -> None:
        scene, sides = item.data
        n, m, res = item.size, len(sides), out.results
        with out.stage():
            cfg, weights, ends = call("hessian.scene_from_json", n,
                                      hessian.scene_from_json, scene)
            realized = call("hessian.realize_scene", n,
                            hessian.realize_scene, cfg, weights, ends)
            res["fd1"] = call("hessian.fd_oracle", n,
                              hessian.fd_oracle, realized, 1)
            res["fd2"] = call("hessian.fd_oracle", n,
                              hessian.fd_oracle, realized, 2)
            res["first"] = call("hessian.first_derivatives", n,
                                hessian.first_derivatives, cfg, weights, ends)
            res["split"] = call("hessian.hessian_split", n,
                                hessian.hessian_split, cfg, weights, ends)
        with out.stage():
            poly = call("polygons.realize", m, polygons.realize, sides)
            res["closure"] = poly.closure_defect
            chain = call("polygons.ChainDifferentials", m,
                         polygons.ChainDifferentials, poly.vertices)
            res["rank"] = call("polygons.length_rank", m, chain.length_rank)[0]

    def check(self, item: Item, out: Outcome) -> Verdict:
        res = out.results
        m = len(item.data[1])

        def oracle():
            got = tuple(res["fd1"]) + tuple(res["fd2"])
            want = tuple(res["first"]) + tuple(res["split"])
            return max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want))

        verdict = _judge(out, [("fd_oracle", oracle),
                               ("closure", lambda: res["closure"],
                                self.closure_tol)], self.tol)
        if res.get("rank") != m:
            verdict.problems.append(f"length_rank {res.get('rank')} != {m}")
        return verdict

    def known_defect(self, item: Item, out: Outcome, verdict: Verdict) -> bool:
        """At the seed commit ``realize`` leaves a closure defect above
        1e-6 on a few of these polygons (the half-plane walk, item 1 of
        the roadmap); any other failure is new."""
        return all(p.startswith("closure:") for p in verdict.problems)


WORKLOADS = {w.name: w for w in (PolygonRoundtrip(), ChordKernel(), VariationCheck())}
