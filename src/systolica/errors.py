"""Exception types shared across the package, and the gate for numbers
from outside it.

Every geometric failure mode gets its own class so callers can tell a
degenerate input (fixable) from a genuinely infeasible problem (not).
Plain ``ValueError`` is reserved for malformed arguments: wrong lengths,
out-of-range indices, non-finite numbers, and values that are not numbers.
Every layer admits an argument number by one of three rules, each
enforced here:

- a real number (``_real``; ``_real_floats`` for a sequence) is read by
  the float protocol, which refuses a str, None, nested sequence or int
  beyond the float range, is not complex (``_complex``), and lies in
  [floor, inf) for the call site's floor, ``_FINITE``, ``_POSITIVE`` or
  ``_NORMAL_MIN``;
- a count (``_count``) is an Integral but not a bool in the call site's
  ``range``;
- a JSON number (``_json_numbers``) is an int or a float by exact type,
  not a bool, numeric string or numpy scalar, and an int in the float range.
"""

import math
import operator
import struct
import sys
from numbers import Complex, Integral, Real


class SystolicaError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateConfigurationError(SystolicaError):
    """Input collapses to a measure-zero case where the requested quantity
    is undefined (coincident points, zero-length chord, angle at a
    degenerate vertex, diagonal argument below 1), or lies beyond the
    float range in which it can be evaluated: a chord longer than
    ``hessian.MAX_CHORD_LENGTH``, whose sinh overflows; a common
    perpendicular whose length is no float; a polygon vertex whose y
    is not a positive normal float; a second variation that is not a
    finite float (``hessian_split``, ``hessian_form``, ``fd_oracle``)."""


class NoPerpendicularError(SystolicaError):
    """The two geodesics intersect or are asymptotic, so no common
    perpendicular segment exists."""


class NoPolygonError(SystolicaError):
    """Pentagon-chain coordinates do not assemble into a right-angled
    polygon."""


class InconsistentSceneError(SystolicaError):
    """A serialized scene disagrees with the configuration it claims to
    describe beyond roundoff."""


# The floors of a real number: every finite float lies at or above the
# first, every positive one at or above the least subnormal, and a point's
# y or a determinant below 2^-1022, the least normal float, has lost digits.
_FINITE = -sys.float_info.max
_POSITIVE = math.ulp(0.0)
_NORMAL_MIN = sys.float_info.min
_FLOOR_WORDS = {_FINITE: "finite", _POSITIVE: "positive and finite",
                _NORMAL_MIN: "a positive normal float"}


# the types of a sequence of reals that need no test for a complex type
_PLAIN = frozenset((float, int))


def _complex(kind: type) -> bool:
    """Whether ``kind`` is a complex type.  The float protocol refuses a
    Python complex, but a numpy complex scalar converts to its real part
    with only a ComplexWarning, which the default filter lets pass, so the
    gates test the type before they convert."""
    return issubclass(kind, Complex) and not issubclass(kind, Real)


def _real(value, what: str, floor: float) -> float:
    """``value`` read as a float by the float protocol, if it is not
    complex and lies in [floor, inf); else ValueError, naming ``what``.  A
    float is tested before anything is built."""
    x = value
    if type(x) is not float:
        try:
            x, = struct.unpack("d", struct.pack("d", math.nan if _complex(type(x)) else x))
        except (struct.error, OverflowError):  # not a number, or an int beyond the floats
            x = math.nan
    if floor <= x < math.inf:
        return x
    raise ValueError(f"{what} must be {_FLOOR_WORDS[floor]}, got {value!r}")


def _real_floats(values, what: str, floor: float = None) -> tuple:
    """``values`` as a tuple of floats by the float protocol, in one C
    call, each held to ``_real``'s floor when one is given: a string
    (which ``float`` parses), None, a nested sequence, a complex number
    or an integer beyond the float range raises ValueError."""
    try:
        values = tuple(values)
        if not _PLAIN.issuperset(map(type, values)) and any(map(_complex, set(map(type, values)))):
            raise TypeError("a complex number is not a real number")
        fmt = f"{len(values)}d"
        values = struct.unpack(fmt, struct.pack(fmt, *values))
    except (struct.error, TypeError, OverflowError) as exc:
        raise ValueError(f"{what} must be a sequence of numbers: {exc}") from exc
    if floor is not None:
        inf = math.inf  # a local: the loop is on every polygon's path
        for x in values:  # compared inline: a call per value costs more than the test
            if not floor <= x < inf:
                _real(x, what, floor)  # which refuses it
    return values


def _count(value, what: str, allowed: range) -> int:
    """``value`` as an int if it is an Integral but not a bool and lies in
    ``allowed``; else ValueError, naming ``what``.  An int passes without
    the isinstance tests against the Integral ABC, which are slow."""
    if type(value) is not int and isinstance(value, Integral) and not isinstance(value, bool):
        value = operator.index(value)  # a range tests an int alone in O(1)
    if type(value) is int and value in allowed:
        return value
    raise ValueError(f"{what} must be an integer in {allowed!r}, got {value!r}")


def _json_numbers(values, what: str) -> tuple:
    """``values``, a list or tuple of JSON numbers, as a tuple of floats;
    else ValueError, naming ``what``."""
    if isinstance(values, (list, tuple)) and set(map(type, values)) <= {int, float}:
        try:
            return tuple(map(float, values))
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"{what} must be an array of JSON numbers in the float range, "
                     f"got {values!r}")
