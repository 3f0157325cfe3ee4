"""Closed-form hyperbolic trigonometry for right-angled figures.

Every function here is a single formula; the geometric content (which
pentagon, which Lambert quadrilateral, which pair of polygon sides) is
spelled out in the docstring and verified against explicitly constructed
half-plane figures in the test suite.  Malformed arguments raise
ValueError: a length that is not a positive finite number, a count n that
is not an integer >= 3.  A formula whose intermediate leaves the float range
raises DegenerateConfigurationError rather than OverflowError or a
silently infinite value.
"""

import math

from .errors import DegenerateConfigurationError, NoPentagonError, _is_integer

# Arguments to acosh this far below 1 are treated as genuinely degenerate
# rather than roundoff.
ACOSH_SLACK = 1e-10

# Arguments within this band above 1 are treated as touching (result 0).
ACOSH_TOUCH = 1e-14


def guarded_acosh(x: float) -> float:
    """acosh with an explicit policy at the boundary of its domain.

    Below 1 - ACOSH_SLACK the configuration is degenerate and raising is
    the only honest answer; within the roundoff band around 1 the figure
    is touching and the length is 0.  A value that is not a finite
    number raises ValueError.
    """
    try:
        if not -math.inf < x < math.inf:  # NaN fails this too
            raise ValueError(f"acosh argument {x!r} is not finite")
    except TypeError:
        raise ValueError(f"acosh argument {x!r} is not a number") from None
    if x < 1.0 - ACOSH_SLACK:
        raise DegenerateConfigurationError(
            f"acosh argument {x!r} is below 1: the configuration degenerates"
        )
    if x < 1.0 + ACOSH_TOUCH:
        return 0.0
    return math.acosh(x)


def _check_lengths(*lengths):
    for x in lengths:
        try:
            if 0.0 < x < math.inf:  # NaN fails this too
                continue
        except TypeError:  # not a number
            pass
        raise ValueError(f"lengths must be positive finite numbers, got {x!r}")


def _check_order(n):
    if not _is_integer(n) or n < 3:
        raise ValueError(f"need an integer n >= 3 sides of each type, got n={n!r}")


def _in_range(formula, name, *args):
    """formula() for the checked arguments ``args`` of ``name``, raising
    DegenerateConfigurationError where an intermediate left the float
    range, which makes the result infinite or NaN: ``pentagon_side``'s
    guard, evaluate and then test the result."""
    try:
        z = formula()
    except (OverflowError, ValueError):  # ValueError: guarded_acosh of inf or NaN
        z = math.nan
    if 0.0 <= z < math.inf:
        return z
    raise DegenerateConfigurationError(f"{name}{args!r} leaves the float range")


def pentagon_perpendicular(a: float, b: float) -> float:
    """Side of a right-angled pentagon opposite to the adjacent pair (a, b).

    Equivalently: the common perpendicular between the two sides that
    extend a and b.  Exists only when sinh(a) sinh(b) > 1; below that
    threshold the five right angles cannot close up.  Raises
    DegenerateConfigurationError where sinh(a) sinh(b) overflows.
    """
    _check_lengths(a, b)
    try:
        s = math.sinh(a) * math.sinh(b)
    except OverflowError:
        s = math.inf
    if s == math.inf:
        raise DegenerateConfigurationError(f"sinh({a!r}) sinh({b!r}) overflows")
    if s <= 1.0 + ACOSH_TOUCH:
        raise NoPentagonError(
            f"no right-angled pentagon with adjacent sides {a!r}, {b!r} "
            f"(sinh*sinh = {s!r} <= 1)"
        )
    return math.acosh(s)


def pentagon_side(x: float, y: float) -> float:
    """asinh(cosh x / sinh y): the side z of a right-angled pentagon with
    cosh x = sinh y sinh z, the side next to y that is, like y, opposite
    x (Buser, ch. 2).  In ``polygons`` it gives the end perpendiculars
    h_3 and h_{n-1} of the pentagon chain and the sides l_2, l_5 of a
    pentagon; the chain's loop takes the same steps inline.  The
    quotient rounds three times and asinh has relative condition at most
    1, so z is within a few eps relative.  Raises ValueError unless x and
    y are positive and finite, and DegenerateConfigurationError where
    cosh x, sinh y or their quotient overflows.
    """
    try:
        z = math.asinh(math.cosh(x) / math.sinh(y))
    except (OverflowError, ZeroDivisionError, TypeError):  # TypeError: not a number
        z = math.nan
    # valid arguments give a positive finite z unless the float range is
    # exceeded, so the arguments are checked only when z is not
    if 0.0 < z < math.inf and 0.0 < x:
        return z
    _check_lengths(x, y)
    raise DegenerateConfigurationError(f"pentagon side of ({x!r}, {y!r}) overflows")


def trirectangle_center(h_side: float, n: int) -> float:
    """Center-to-side distance of a semi-regular right-angled 2n-gon.

    In the Lambert quadrilateral cut from the polygon by its center, the
    perpendicular feet and a vertex, the acute angle at the center is
    pi/n and cosh(center distance) * sin(pi/n) = cosh(h_side), where
    h_side is half the length of a side of the *other* type.
    """
    _check_order(n)
    _check_lengths(h_side)
    return _in_range(lambda: math.acosh(math.cosh(h_side) / math.sin(math.pi / n)),
                     "trirectangle_center", h_side, n)


def diagonal_same_type(h1: float, k: float, n: int) -> float:
    """Common perpendicular between two same-type sides, k slots apart.

    Both sides lie at distance h1 from the center with an angle 2*pi*k/n
    between their perpendicular feet; the half-length sits in a Lambert
    quadrilateral with acute angle pi*k/n, giving
    2*acosh(cosh(h1) sin(k pi / n)).  At k = 1 this is exactly the length
    of the in-between side of the other type, and by the symmetry of sin
    the value at k = n-1 repeats it; the strict diagonals are k in
    2..n-2.
    """
    _check_order(n)
    try:
        ok = 1 <= k <= n - 1 and k == int(k)
    except TypeError:  # not a number
        ok = False
    if not ok:
        raise ValueError(f"slot count k must be an integer in 1..n-1, got {k!r}")
    _check_lengths(h1)
    return _in_range(lambda: 2.0 * guarded_acosh(math.cosh(h1) * math.sin(k * math.pi / n)),
                     "diagonal_same_type", h1, k, n)


def diagonal_mixed_type(h1: float, h2: float, k: float, n: int) -> float:
    """Arc between a side of each type, k slots apart (k odd), crossing
    the polygon and continuing symmetrically across the far side.

    The in-polygon perpendicular between geodesics at distances h1, h2
    from the center with angle k*pi/n between their feet has
    cosh = sinh(h1) sinh(h2) - cosh(h1) cosh(h2) cos(k pi / n); the full
    arc doubles it.  k = 1 is excluded: adjacent sides meet at a vertex.
    """
    _check_order(n)
    try:
        ok = 3 <= k <= 2 * n - 3 and k == int(k) and int(k) % 2 == 1
    except TypeError:  # not a number
        ok = False
    if not ok:
        raise ValueError(f"slot count k must be odd in 3..2n-3, got {k!r}")
    _check_lengths(h1, h2)
    return _in_range(lambda: 2.0 * guarded_acosh(
        math.sinh(h1) * math.sinh(h2)
        - math.cosh(h1) * math.cosh(h2) * math.cos(k * math.pi / n)),
        "diagonal_mixed_type", h1, h2, k, n)


def semiregular_partner(l1: float, n: int) -> float:
    """The other alternating side length of a semi-regular right-angled
    2n-gon: sinh(l1/2) sinh(l2/2) = cos(pi/n) solved for l2.

    Involutive in l1 <-> l2 for fixed n.
    """
    _check_order(n)
    _check_lengths(l1)
    return _in_range(lambda: 2.0 * math.asinh(math.cos(math.pi / n) / math.sinh(l1 / 2.0)),
                     "semiregular_partner", l1, n)


def equilateral_angle(x: float) -> float:
    """Interior angle of the equilateral hyperbolic triangle with side x.

    Strictly decreasing from pi/3 (Euclidean limit) to 0, equal to
    2*arcsin(1 / (2 cosh(x/2))).
    """
    _check_lengths(x)
    return _in_range(lambda: 2.0 * math.asin(0.5 / math.cosh(x / 2.0)),
                     "equilateral_angle", x)
