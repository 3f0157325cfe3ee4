"""Exception types shared across the package.

Every geometric failure mode gets its own class so callers can tell a
degenerate input (fixable) from a genuinely infeasible problem (not).
Plain ``ValueError`` is reserved for malformed arguments: wrong lengths,
out-of-range indices, non-finite numbers, and values that are not numbers.
"""

import struct
from numbers import Integral


class SystolicaError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateConfigurationError(SystolicaError):
    """Input collapses to a measure-zero case where the requested quantity
    is undefined (coincident points, zero-length chord, angle at a
    degenerate vertex, diagonal argument below 1), or lies beyond the
    float range in which it can be evaluated: a chord longer than
    ``hessian.MAX_CHORD_LENGTH``, whose sinh overflows; a point at an
    arclength whose e^s is no float (``HGeodesic.point_at``), or a common
    perpendicular whose length or feet are not; a polygon vertex whose y
    is not a positive normal float; a second variation that is not a
    finite float (``hessian_split``, ``hessian_form``, ``fd_oracle``)."""


class NoPerpendicularError(SystolicaError):
    """The two geodesics intersect or are asymptotic, so no common
    perpendicular segment exists."""


class NoPentagonError(SystolicaError):
    """No right-angled pentagon has the two prescribed adjacent sides
    (requires sinh(a) * sinh(b) > 1)."""


class NoPolygonError(SystolicaError):
    """Pentagon-chain coordinates do not assemble into a right-angled
    polygon.  ``index`` names the first coordinate slot whose pentagon
    fails to exist."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class DegenerateMarginError(SystolicaError):
    """A chord has no crossings, so it has no separation margins to
    report."""


class InconsistentSceneError(SystolicaError):
    """A serialized scene disagrees with the configuration it claims to
    describe beyond roundoff."""


def _real_floats(values, what: str) -> tuple:
    """``values`` as a tuple of floats by the float protocol, in one C
    call: a string (which ``float`` parses), None, a nested sequence or
    an integer beyond the float range raises ValueError."""
    try:
        values = tuple(values)
        fmt = f"{len(values)}d"
        return struct.unpack(fmt, struct.pack(fmt, *values))
    except (struct.error, TypeError, OverflowError) as exc:
        raise ValueError(f"{what} must be a sequence of numbers: {exc}") from exc


def _is_integer(value) -> bool:
    """Whether ``value`` is an Integral but not a bool; ``type(value) is
    int`` is tested first, as isinstance against the Integral ABC is slow."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)
