"""Exception types shared across the package.

Every geometric failure mode gets its own class so callers can tell a
degenerate input (fixable) from a genuinely infeasible problem (not).
Plain ``ValueError`` is reserved for malformed arguments: wrong lengths,
out-of-range indices, non-finite numbers.
"""


class SystolicaError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateConfigurationError(SystolicaError):
    """Input collapses to a measure-zero case where the requested quantity
    is undefined (coincident points, zero-length chord, angle at a
    degenerate vertex, diagonal argument below 1)."""


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
