"""Closed-form hyperbolic trigonometry for right-angled figures.

Every function here is a single formula; the geometric content (which
Lambert quadrilateral, which pair of polygon sides) is spelled out in
the docstring and verified against explicitly constructed half-plane
figures in the test suite.  A formula whose intermediate leaves the
float range raises DegenerateConfigurationError rather than
OverflowError or a silently infinite value.
"""

import math

from .errors import _FINITE, _POSITIVE, DegenerateConfigurationError, _count, _real

# Arguments to acosh this far below 1 are treated as genuinely degenerate
# rather than roundoff.
ACOSH_SLACK = 1e-10

# Arguments within this band above 1 are treated as touching (result 0),
# and the n = 5 chart finds no pentagon where sinh l_3 sinh l_4 lies there.
ACOSH_TOUCH = 1e-14

# n, the sides of each type of a semi-regular polygon: the formulas read
# it as a float, which holds every integer up to 2^53 exactly
_ORDERS = range(3, 2 ** 53 + 1)


def guarded_acosh(x: float) -> float:
    """acosh with an explicit policy at the boundary of its domain.

    Below 1 - ACOSH_SLACK the configuration is degenerate and raising is
    the only honest answer; within the roundoff band around 1 the figure
    is touching and the length is 0.  A value that is not a finite
    number raises ValueError.
    """
    x = _real(x, "acosh argument", _FINITE)
    if x < 1.0 - ACOSH_SLACK:
        raise DegenerateConfigurationError(
            f"acosh argument {x!r} is below 1: the configuration degenerates"
        )
    if x < 1.0 + ACOSH_TOUCH:
        return 0.0
    return math.acosh(x)


def _in_range(formula, name, *args):
    """formula() for the checked arguments ``args`` of ``name``, raising
    DegenerateConfigurationError where an intermediate left the float
    range (an infinite or NaN result, or a divisor that underflowed to
    0): evaluate, then test the result."""
    try:
        z = formula()
    except (ArithmeticError, ValueError):  # ValueError: guarded_acosh of inf or NaN
        z = math.nan
    if 0.0 <= z < math.inf:
        return z
    raise DegenerateConfigurationError(f"{name}{args!r} leaves the float range")


def trirectangle_center(h_side: float, n: int) -> float:
    """Center-to-side distance of a semi-regular right-angled 2n-gon.

    In the Lambert quadrilateral cut from the polygon by its center, the
    perpendicular feet and a vertex, the acute angle at the center is
    pi/n and cosh(center distance) * sin(pi/n) = cosh(h_side), where
    h_side is half the length of a side of the *other* type.
    """
    n = _count(n, "n", _ORDERS)
    h_side = _real(h_side, "length", _POSITIVE)
    return _in_range(lambda: math.acosh(math.cosh(h_side) / math.sin(math.pi / n)),
                     "trirectangle_center", h_side, n)


def diagonal_same_type(h1: float, k: int, n: int) -> float:
    """Common perpendicular between two same-type sides, k slots apart.

    Both sides lie at distance h1 from the center with an angle 2*pi*k/n
    between their perpendicular feet; the half-length sits in a Lambert
    quadrilateral with acute angle pi*k/n, giving
    2*acosh(cosh(h1) sin(k pi / n)).  At k = 1 this is exactly the length
    of the in-between side of the other type, and by the symmetry of sin
    the value at k = n-1 repeats it; the strict diagonals are k in
    2..n-2.
    """
    n = _count(n, "n", _ORDERS)
    k = _count(k, "slot count k", range(1, n))
    h1 = _real(h1, "length", _POSITIVE)
    return _in_range(lambda: 2.0 * guarded_acosh(math.cosh(h1) * math.sin(k * math.pi / n)),
                     "diagonal_same_type", h1, k, n)


def diagonal_mixed_type(h1: float, h2: float, k: int, n: int) -> float:
    """Arc between a side of each type, k slots apart (k odd), crossing
    the polygon and continuing symmetrically across the far side.

    The in-polygon perpendicular between geodesics at distances h1, h2
    from the center with angle k*pi/n between their feet has
    cosh = sinh(h1) sinh(h2) - cosh(h1) cosh(h2) cos(k pi / n); the full
    arc doubles it.  k = 1 is excluded: adjacent sides meet at a vertex.
    """
    n = _count(n, "n", _ORDERS)
    k = _count(k, "slot count k", range(3, 2 * n - 2, 2))  # odd in 3..2n-3
    h1, h2 = _real(h1, "length", _POSITIVE), _real(h2, "length", _POSITIVE)
    return _in_range(lambda: 2.0 * guarded_acosh(
        math.sinh(h1) * math.sinh(h2)
        - math.cosh(h1) * math.cosh(h2) * math.cos(k * math.pi / n)),
        "diagonal_mixed_type", h1, h2, k, n)


def semiregular_partner(l1: float, n: int) -> float:
    """The other alternating side length of a semi-regular right-angled
    2n-gon: sinh(l1/2) sinh(l2/2) = cos(pi/n) solved for l2.

    Involutive in l1 <-> l2 for fixed n.
    """
    n = _count(n, "n", _ORDERS)
    l1 = _real(l1, "length", _POSITIVE)
    return _partner(l1, _half_sinh(l1), n)


def _half_sinh(l):
    """sinh(l/2), or NaN where it overflows, which ``_partner`` refuses."""
    try:
        return math.sinh(0.5 * l)
    except OverflowError:
        return math.nan


def _partner(l1, half_sinh, n):
    """``semiregular_partner(l1, n)`` of checked arguments, with
    ``half_sinh`` = ``_half_sinh(l1)``, so that ``polygons`` takes it once
    per family; DegenerateConfigurationError names l1 and n where the
    partner leaves the float range."""
    return _in_range(lambda: 2.0 * math.asinh(math.cos(math.pi / n) / half_sinh),
                     "semiregular_partner", l1, n)
